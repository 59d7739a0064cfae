//! Deterministic traffic simulator for the serving front end.
//!
//! Production traffic from millions of users is *skewed* (a few hot
//! audience topics and pool slices absorb most queries — modeled by a
//! Zipf topic distribution), *bursty* (arrival spikes far above the
//! sustainable service rate), and *live* (the pool keeps growing via
//! [`sns_core::Grower::extend`] on another thread while queries are in
//! flight). One driver, [`simulate`], replays exactly that shape against
//! the real serving stack — the [`AdmissionQueue`] at the door, the
//! batch planner behind it
//! ([`SeedQueryEngine::answer_planned`](sns_core::SeedQueryEngine::answer_planned))
//! — from one seed, so every run of the same [`TrafficConfig`] produces
//! **byte-identical counters**: arrivals, serves, typed rejects,
//! expiries, planner group counts, snapshot resolutions saved, and the
//! virtual-clock sojourn percentiles.
//!
//! The counters deliberately exclude anything a wall clock or a thread
//! scheduler can touch: admission decisions happen on the virtual
//! cost-unit clock *before* any parallel execution, and the planner's
//! grouping is a pure function of the drained batch. That is what lets
//! CI diff them as a hard gate (`tests/traffic_sim.rs`, the `serving`
//! job) and `bench_diff` track them next to the sample-count baselines,
//! while the wall-clock side — p50/p99 service latency and queries/sec —
//! is reported separately ([`TrafficReport`]) and never gated on the
//! 1-CPU CI container.

// Sanctioned wall-clock read: report-only wall time in the simulator summary;
// admission decisions run on the simulated tick clock (see lint-allow.toml).
#![allow(clippy::disallowed_methods)]

use std::sync::{mpsc, Arc};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sns_core::{
    AdmissionQueue, NodeCosts, Priority, SamplingContext, SeedAnswer, SeedQuery, SeedQueryEngine,
};
use sns_diffusion::Model;
use sns_graph::{gen, WeightModel};
use sns_tvm::TargetWeights;

use crate::oracle::direct_answer;

/// A seeded traffic scenario: fixture sizes, arrival process, query
/// mix, admission limits and growth schedule. Two simulations of an
/// identical config produce identical [`TrafficReport::counters`].
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Master seed: graph, sampling stream and traffic draws all derive
    /// from it.
    pub seed: u64,
    /// Simulation steps (one admission + drain round each).
    pub steps: u32,
    /// Arrivals per ordinary step.
    pub base_arrivals: u32,
    /// Every `burst_every`-th step is a burst (0 disables bursts).
    pub burst_every: u32,
    /// Burst steps multiply arrivals by this factor.
    pub burst_multiplier: u32,
    /// Distinct audience topics (each a reusable
    /// [`TargetWeights`] with a stable topic id).
    pub topics: usize,
    /// Zipf skew exponent over topics (higher = more skew; the head
    /// topic absorbs most weighted queries).
    pub zipf_s: f64,
    /// Fraction of queries that are topic-weighted (the rest are plain).
    pub topic_share: f64,
    /// Fraction of *plain* queries that arrive as budgeted (cost-aware)
    /// queries instead of top-k. `0.0` disables the mix **and** its RNG
    /// draws, so legacy scenarios replay their exact historical streams.
    pub budget_share: f64,
    /// Seed budgets drawn uniformly per query (the "mixed k" axis).
    pub mixed_k: Vec<usize>,
    /// Admission-queue capacity (waiting queries).
    pub queue_capacity: usize,
    /// Maximum queries drained into one planned batch per step.
    pub drain_per_step: usize,
    /// Deadline patience range, in virtual cost units past admission.
    pub patience: std::ops::Range<u64>,
    /// Fraction of queries that carry a deadline at all.
    pub deadline_share: f64,
    /// Grow the pool every `grow_every` steps (0 disables growth).
    pub grow_every: u32,
    /// Sets added per growth ([`sns_core::Grower::extend`]).
    pub grow_sets: u64,
    /// Absorb each growth's acknowledgement at the next growth step (or
    /// at drain-out after the last) instead of in the step that
    /// commands it, so the grower thread runs while the serving loop
    /// keeps draining batches.
    pub defer_growth_ack: bool,
    /// Initial pool size (sets).
    pub pool_sets: u64,
    /// Engine worker threads (answers and counters are invariant to it).
    pub threads: usize,
    /// Cross-check every served answer against [`direct_answer`] on a
    /// pool of the final size (slow; for tests).
    pub verify: bool,
}

impl TrafficConfig {
    /// The fixed CI scenario: small enough for seconds-scale runs,
    /// shaped to exercise every code path — Zipf-skewed topics, mixed
    /// budgets, 4× bursts that overflow the queue, deadlines tight
    /// enough to reject, and two pool growths mid-serving. Its counters
    /// are baselined in `results/bench_baselines/sample_counts.json`.
    pub fn ci() -> Self {
        TrafficConfig {
            seed: 17,
            steps: 30,
            base_arrivals: 6,
            burst_every: 5,
            burst_multiplier: 6,
            topics: 6,
            zipf_s: 1.1,
            topic_share: 0.4,
            budget_share: 0.0,
            mixed_k: vec![3, 8, 15],
            queue_capacity: 24,
            drain_per_step: 10,
            patience: 30..600,
            deadline_share: 0.5,
            grow_every: 10,
            grow_sets: 800,
            defer_growth_ack: false,
            pool_sets: 1600,
            threads: 1,
            verify: false,
        }
    }

    /// The budgeted CI scenario: [`TrafficConfig::ci`] with a third of
    /// the plain traffic arriving as budgeted queries — half of them
    /// uniform-cost (the degeneration case, bit-identical to top-k),
    /// half with a shared per-node cost table (identity-compared, like
    /// topic weight Arcs) and a fractional budget. Its counters are
    /// baselined alongside the plain scenario's under the
    /// `traffic_budgeted_*` names.
    pub fn ci_budgeted() -> Self {
        TrafficConfig { budget_share: 0.35, ..TrafficConfig::ci() }
    }

    /// The sample-while-serving CI scenario: the [`TrafficConfig::ci`]
    /// shape, but each growth's acknowledgement is deferred
    /// ([`TrafficConfig::defer_growth_ack`]), so the grower thread
    /// extends the pool while the serving loop keeps draining batches.
    /// More frequent, smaller growths maximize the serve/grow overlap
    /// window. Counters are baselined under the `traffic_concurrent_*`
    /// names and must be byte-identical across runs and engine thread
    /// counts.
    pub fn ci_concurrent() -> Self {
        TrafficConfig {
            threads: 2,
            grow_every: 6,
            grow_sets: 600,
            defer_growth_ack: true,
            ..TrafficConfig::ci()
        }
    }
}

/// What one simulation produced: the deterministic counter set CI gates
/// on, plus wall-clock latency/throughput figures that are report-only
/// (they depend on the host; the 1-CPU container caveat of `ROADMAP.md`
/// applies).
#[derive(Debug, Clone)]
pub struct TrafficReport {
    /// Deterministic `(name, value)` counters — identical across runs,
    /// hosts and engine thread counts for a fixed [`TrafficConfig`].
    /// Names carry no scenario prefix; [`crate::sample_counts`] adds one
    /// per baselined scenario.
    pub counters: Vec<(&'static str, u64)>,
    /// Median wall-clock service latency per served query, ns.
    pub p50_service_ns: u64,
    /// 99th-percentile wall-clock service latency per served query, ns.
    pub p99_service_ns: u64,
    /// Served queries per second of engine service time.
    pub queries_per_sec: f64,
    /// Total queries served.
    pub served: u64,
}

/// Zipf(s) sampler over `0..n` via inverse CDF on precomputed cumulative
/// mass — deterministic given the caller's seeded RNG.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Draws one arrival — query (always over an explicit range), priority
/// and deadline — advancing the traffic RNG in the exact draw order the
/// baselined counter sets were recorded under.
#[allow(clippy::too_many_arguments)]
fn draw_arrival(
    cfg: &TrafficConfig,
    rng: &mut StdRng,
    topics: &[TargetWeights],
    zipf: &Zipf,
    costs: &Arc<[f64]>,
    pool_len: u32,
    now: u64,
    budgeted_arrivals: &mut u64,
) -> (SeedQuery, Priority, Option<u64>) {
    let k = cfg.mixed_k[rng.gen_range(0..cfg.mixed_k.len())];
    // Skewed range mix: the full pool is hottest, halves and the
    // head quarter make up the tail — grouping-friendly, like
    // real dashboards asking the same few slices.
    let range = match rng.gen_range(0..10u32) {
        0..=4 => 0..pool_len,
        5..=6 => 0..pool_len / 2,
        7..=8 => pool_len / 2..pool_len,
        _ => 0..pool_len / 4,
    };
    let query = if rng.gen_bool(cfg.topic_share) {
        topics[zipf.sample(rng)].seed_query(k).over_range(range)
    } else if cfg.budget_share > 0.0 && rng.gen_bool(cfg.budget_share) {
        *budgeted_arrivals += 1;
        if rng.gen_range(0..2u32) == 0 {
            // uniform costs, budget = k: the degeneration case,
            // bit-identical to the top-k query it replaces
            SeedQuery::budgeted(k as f64).over_range(range)
        } else {
            SeedQuery::budgeted(k as f64 * 0.75)
                .with_costs(NodeCosts::per_node(costs.clone()))
                .over_range(range)
        }
    } else {
        SeedQuery::top_k(k).over_range(range)
    };
    let priority = match rng.gen_range(0..10u32) {
        0 => Priority::High,
        9 => Priority::Low,
        _ => Priority::Normal,
    };
    let deadline =
        rng.gen_bool(cfg.deadline_share).then(|| now + rng.gen_range(cfg.patience.clone()));
    (query, priority, deadline)
}

/// Percentile of a sorted slice (nearest-rank); 0 for empty input.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Runs the scenario — see the module docs. Deterministic counters,
/// wall-clock figures on the side.
///
/// Growth runs on a **real second thread**: a grower thread owns
/// [`SeedQueryEngine::grower`](sns_core::SeedQueryEngine::grower) and
/// extends the shared engine while this (serving) thread keeps
/// admitting and answering, with no reader-side lock on the serving
/// path. The serving side's *known* pool length advances only when it
/// absorbs a growth's acknowledgement — in the commanding step, or with
/// [`TrafficConfig::defer_growth_ack`] at the next growth step (or at
/// drain-out after the last), so growth overlaps serving. Every
/// generated query carries an explicit range within the known length
/// and the planner groups by those ranges alone; whichever directory
/// generation a drained batch happens to pin, prefix determinism makes
/// its answers — and the group/sojourn counters — identical, so the
/// wall-clock race never leaks into `counters`.
///
/// With `cfg.verify` every served `(query, answer)` pair is re-checked
/// after drain-out against [`direct_answer`] on a pool sampled at the
/// final size in one shot.
pub fn simulate(cfg: &TrafficConfig) -> TrafficReport {
    let g = gen::erdos_renyi(500, 3000, cfg.seed).build(WeightModel::WeightedCascade).unwrap();
    let ctx = SamplingContext::new(&g, Model::IndependentCascade)
        .with_seed(cfg.seed)
        .with_threads(cfg.threads);
    let engine = SeedQueryEngine::sample(&ctx, cfg.pool_sets).with_threads(cfg.threads);
    let topics: Vec<TargetWeights> = (0..cfg.topics)
        .map(|t| {
            TargetWeights::synthetic_topic(&g, 0.15, 1.0, cfg.seed ^ (t as u64 + 1))
                .expect("valid synthetic topic")
        })
        .collect();
    let zipf = Zipf::new(cfg.topics.max(1), cfg.zipf_s);
    // One shared per-node cost table for every cost-aware query — Arcs
    // are identity-compared, the same sharing discipline as topic
    // weights. Deterministic (no RNG): cheapest node costs 0.5, so the
    // admission model's budget-derived effective k stays bounded.
    let costs: Arc<[f64]> = (0..g.num_nodes()).map(|v| 0.5 + f64::from(v % 4) * 0.5).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut queue = AdmissionQueue::new(cfg.queue_capacity);

    let mut now = 0u64; // virtual clock, cost units
    let mut arrivals_total = 0u64;
    let mut budgeted_arrivals = 0u64;
    let mut growths = 0u64; // acknowledgements absorbed
    let mut sojourns: Vec<u64> = Vec::new(); // virtual, deterministic
    let mut service_ns: Vec<u64> = Vec::new(); // wall, report-only
    let mut service_total_ns = 0u128;
    // The serving side's view of the pool: advances ONLY when a growth
    // acknowledgement is absorbed, never by peeking at the live directory.
    let mut known_len = engine.pool().id_range().end;
    let mut answered: Vec<(SeedQuery, SeedAnswer)> = Vec::new();

    let (cmd_tx, cmd_rx) = mpsc::channel::<u64>();
    let (ack_tx, ack_rx) = mpsc::channel::<u64>();
    std::thread::scope(|s| {
        let (engine, ctx) = (&engine, &ctx);
        s.spawn(move || {
            // The grower thread: single writer, processes growth
            // commands in order, acknowledges each with the pool length
            // it published.
            for additional in cmd_rx {
                if ack_tx.send(engine.grower().extend(ctx, additional).pool_len()).is_err() {
                    break;
                }
            }
        });
        let mut absorb_ack = |known_len: &mut u32| {
            let len = ack_rx.recv().expect("grower thread alive");
            *known_len = u32::try_from(len).expect("pool fits the u32 id domain");
            growths += 1;
        };

        let mut in_flight = false;
        for step in 0..cfg.steps {
            // Grow-while-serving: queries admitted before a growth keep
            // their (still valid) ranges, queries after its acknowledgement
            // see — and group over — the larger pool.
            if cfg.grow_every > 0 && step > 0 && step % cfg.grow_every == 0 {
                if in_flight {
                    // Deferred: the previous growth finished steps ago.
                    absorb_ack(&mut known_len);
                }
                cmd_tx.send(cfg.grow_sets).expect("grower thread alive");
                in_flight = cfg.defer_growth_ack;
                if !in_flight {
                    absorb_ack(&mut known_len);
                }
            }

            let burst = cfg.burst_every > 0 && step % cfg.burst_every == cfg.burst_every - 1;
            let arrivals = cfg.base_arrivals * if burst { cfg.burst_multiplier } else { 1 };
            for _ in 0..arrivals {
                arrivals_total += 1;
                let (query, priority, deadline) = draw_arrival(
                    cfg,
                    &mut rng,
                    &topics,
                    &zipf,
                    &costs,
                    known_len,
                    now,
                    &mut budgeted_arrivals,
                );
                // Rejections are the queue's job; the typed reasons land
                // in its stats and are surfaced through the counters below.
                let _ = queue.admit(query, priority, deadline, now, known_len);
            }

            let drained = queue.drain(now, cfg.drain_per_step);
            if drained.is_empty() {
                continue;
            }
            // Virtual completion: queries in a drained batch finish one
            // after another on the cost clock (the clock the deadlines
            // were admitted against), so sojourn percentiles are
            // deterministic.
            let mut cursor = now;
            for p in &drained {
                cursor += p.cost;
                sojourns.push(cursor - p.arrived);
            }
            let batch: Vec<SeedQuery> = drained.iter().map(|p| p.query.clone()).collect();
            let start = Instant::now();
            let answers = engine.answer_planned(&batch).expect("admitted queries are valid");
            let elapsed = start.elapsed().as_nanos();
            service_total_ns += elapsed;
            let per_query = (elapsed / batch.len() as u128) as u64;
            service_ns.extend(std::iter::repeat_n(per_query, batch.len()));
            if cfg.verify {
                answered.extend(batch.into_iter().zip(answers));
            }
            now = cursor;
        }

        // Drain-out: hang up the command channel (ends the grower loop)
        // and absorb the outstanding acknowledgement, so the final
        // length and generation below are the fully grown ones.
        drop(cmd_tx);
        if in_flight {
            absorb_ack(&mut known_len);
        }
    });

    if cfg.verify {
        // Every answer served mid-growth equals a direct selection on
        // the final pool sampled up front (same deterministic stream,
        // one shot): every query's range is explicit, so the prefix it
        // names is the same sets in both pools.
        let reference = SeedQueryEngine::sample(&ctx, engine.pool().len() as u64).pool();
        for (query, answer) in &answered {
            assert_eq!(
                &direct_answer(&reference, ctx.gamma(), query),
                answer,
                "served answer diverged from the one-shot reference for {query:?}"
            );
        }
    }

    let qstats = queue.stats();
    let estats = engine.stats();
    sojourns.sort_unstable();
    service_ns.sort_unstable();
    let served = qstats.drained;
    let mut counters = vec![
        ("arrivals", arrivals_total),
        ("served", served),
        ("rejected_queue_full", qstats.rejected_queue_full),
        ("rejected_deadline", qstats.rejected_deadline),
        ("expired", qstats.expired),
        ("left_queued", queue.len() as u64),
        ("planner_groups", estats.planner_groups),
        ("builds_saved", estats.planner_builds_saved),
    ];
    if cfg.defer_growth_ack {
        // Overlapped growth also reports where the acknowledgements
        // left the serving side's view of the pool.
        counters.extend([
            ("growth_acks", growths),
            ("final_generation", engine.generation()),
            ("final_pool_len", u64::from(known_len)),
        ]);
    } else {
        counters.push(("growths", growths));
    }
    counters.extend([
        ("sojourn_p50", percentile(&sojourns, 50.0)),
        ("sojourn_p99", percentile(&sojourns, 99.0)),
    ]);
    if cfg.budget_share > 0.0 {
        // Only budgeted scenarios report the mix size, so the other
        // scenarios' counter sets stay byte-identical to their baselines.
        counters.push(("mix_size", budgeted_arrivals));
    }
    let secs = service_total_ns as f64 / 1e9;
    TrafficReport {
        counters,
        p50_service_ns: percentile(&service_ns, 50.0),
        p99_service_ns: percentile(&service_ns, 99.0),
        queries_per_sec: if secs > 0.0 { served as f64 / secs } else { 0.0 },
        served,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(6, 1.1);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 6];
        for _ in 0..3000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[5] * 2, "{counts:?}");
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(percentile(&[5], 50.0), 5);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
    }
}
