//! `serve` and `serve-grow`: an open loop of seeded Poisson arrivals
//! answered by a `SeedQueryEngine` on one serving thread through
//! `AdmissionQueue` and `answer_planned`; `serve-grow` adds a second
//! thread that calls `Grower::extend` on a fixed schedule.
//!
//! A run has a fixed-rate phase (latency at `FIXED_QPS`) and a capacity
//! search (`qps_at_slo`: the highest offered rate whose p99 stays within
//! `SLO_MS` with no backlog left). Afterwards a deterministic sample of
//! answers is re-derived on the final pool through an independent path.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sns_core::planner::BatchPlan;
use sns_core::{
    AdmissionQueue, NodeCosts, Priority, QueryStats, SamplingContext, SeedAnswer, SeedQuery,
    SeedQueryEngine,
};
use sns_diffusion::Model;
use sns_graph::{Graph, NodeId};
use sns_rrset::{CoverageView, GreedyScratch, RrCollection};
use sns_tvm::TargetWeights;

use crate::layers::{parallel_speedup, per_layer_metrics, MIB};
use crate::reference::RefPool;
use crate::rng::Rng;
use crate::stats::{mean, median, percentile, supported_percentile, TAIL_P};
use crate::trace::Tracer;
use crate::{build_graph, repeated_setup, Opts, Outcome};

/// RR sets in the serving pool sampled during set-up.
const POOL_SETS: u64 = 100_000;
/// Offered rate of the fixed-rate phase, queries per second: about a
/// quarter of one serving thread's capacity on a 2-vCPU Xeon VM, low
/// enough that queueing does not amplify the host's speed noise.
const FIXED_QPS: f64 = 40.0;
/// The latency limit `qps_at_slo` is searched against (p99, ms). It sits
/// where p99 climbs steeply with the offered rate, so probe noise moves
/// the interpolated rate little.
const SLO_MS: f64 = 250.0;
/// Capacity search: `PROBES` probes of `PROBE_S` seconds each at the end
/// of the run, log-bisecting `[SEARCH_LO, SEARCH_HI]` × the capacity the
/// fixed-rate phase's mean service time implies.
const PROBES: usize = 3;
const PROBE_S: f64 = 3.0;
const SEARCH_LO: f64 = 0.8;
const SEARCH_HI: f64 = 1.3;
/// Queries one `answer_planned` call takes at most while serving. With
/// larger batches the planner's grouping — and so capacity — depended on
/// the order the seed dealt the queries in, by up to 25% between seeds;
/// the planner's grouping is measured on a fixed 64-query batch instead.
const MAX_BATCH: usize = 1;
/// Snapshot-cache budget. One window's working set (4 ranges times one
/// plain and 6 topic snapshots of 100 000 sets) is ≈85 MB; in
/// `serve-grow` the old and the new window's snapshots coexist after each
/// growth, beyond the engine's 128 MiB default, and a thrashing cache
/// would make latency measure eviction order instead of selection.
const CACHE_BUDGET: u64 = 256 << 20;
/// Large enough that the queue never rejects at the fixed rate.
const QUEUE_CAPACITY: usize = 1 << 20;
const TOPICS: usize = 6;
const TOPIC_SEED: u64 = 0x70_91C5;
/// `serve-grow`: sets added per `Grower::extend`, its period, and how
/// long after a growth starts the traffic begins to ask for its sets.
const GROW_SETS: u64 = 25_000;
const GROW_EVERY_S: f64 = 4.0;
const GROW_LAG_S: f64 = 1.5;
/// Every `AUDIT_EVERY`-th answered query is re-derived independently.
const AUDIT_EVERY: usize = 8;
/// Sets in the reference estimator behind `influence`.
const REF_SETS: usize = 50_000;
/// Sets sampled by the parallel speed-up probe.
const SPEEDUP_SETS: u64 = 20_000;

#[derive(Debug, Clone)]
struct Arrival {
    due_s: f64,
    query: SeedQuery,
    /// Top-k with no topic, budget or seed constraints: audited by a
    /// direct selection.
    plain: bool,
    /// Plain top-50 over the whole window: the queries `influence` is
    /// measured on.
    yardstick: bool,
}

/// A shuffled deck: the query mix is dealt from decks, so each run offers
/// the mix's exact proportions in a seed-dependent order instead of a
/// binomial sample of them.
struct Deck<T: Copy> {
    cards: Vec<T>,
    left: Vec<T>,
}

impl<T: Copy> Deck<T> {
    fn new(counts: &[(T, usize)]) -> Self {
        let cards = counts.iter().flat_map(|&(card, n)| std::iter::repeat_n(card, n)).collect();
        Deck { cards, left: Vec::new() }
    }

    fn draw(&mut self, rng: &mut Rng) -> T {
        if self.left.is_empty() {
            self.left = self.cards.clone();
            for i in (1..self.left.len()).rev() {
                self.left.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        self.left.pop().expect("decks are not empty")
    }
}

/// Which part of the query window a range covers.
#[derive(Debug, Clone, Copy)]
enum Part {
    Full,
    FirstHalf,
    SecondHalf,
    FirstQuarter,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Plain,
    Topic,
    BudgetUniform,
    BudgetCosts,
    Constrained,
}

/// Seeded query mix in the shape of `sns_bench::traffic`: skewed ranges
/// (full 50%, halves 20% each, first quarter 10%); plain top-k (40%),
/// Zipf(1.1) topic queries (30%), budgeted queries (20%, half with
/// per-node costs) and queries with forced and excluded seeds (10%);
/// `k ∈ {10, 50, 200}`. Every query carries an explicit range. The
/// (k, kind, range) triple is dealt from one 600-card deck holding every
/// combination in proportion, so the fixed-rate phase at `--seconds 24`
/// (600 queries) offers exactly the mix, in a seed-dependent order: the
/// costliest combinations are rare, and drawing them independently moved
/// mean service time by tens of percent between seeds.
struct Traffic {
    rng: Rng,
    /// Inter-arrival gaps come from their own stream, so two rates over
    /// one stream offer the same queries in the same order.
    gaps: Rng,
    topics: Vec<TargetWeights>,
    costs: Arc<[f64]>,
    n: u32,
    mix: Deck<(usize, Kind, Part)>,
    /// Zipf(1.1) over the topics, rounded to 20 cards.
    topic: Deck<usize>,
}

/// The audience topics, made once per run: an engine caches weighted
/// snapshots per topic instance, so every query of a topic must share
/// one `TargetWeights`. Like the graph, the topics are part of the
/// workload and do not change with the seed: which nodes a topic targets
/// moves weighted-query cost by tens of percent.
fn make_topics(graph: &Graph) -> Vec<TargetWeights> {
    (0..TOPICS as u64)
        .map(|t| {
            TargetWeights::synthetic_topic(graph, 0.15, 1.0, TOPIC_SEED ^ (t + 1))
                .expect("valid synthetic topic")
        })
        .collect()
}

impl Traffic {
    fn new(graph: &Graph, topics: &[TargetWeights], seed: u64, stream: u64) -> Self {
        let spans =
            [(Part::Full, 5), (Part::FirstHalf, 2), (Part::SecondHalf, 2), (Part::FirstQuarter, 1)];
        let kinds = [
            (Kind::Plain, 8),
            (Kind::Topic, 6),
            (Kind::BudgetUniform, 2),
            (Kind::BudgetCosts, 2),
            (Kind::Constrained, 2),
        ];
        let mut mix = Vec::new();
        for k in [10, 50, 200] {
            for &(kind, kn) in &kinds {
                for &(span, sn) in &spans {
                    mix.push(((k, kind, span), kn * sn));
                }
            }
        }
        Traffic {
            rng: Rng::new(seed, stream),
            gaps: Rng::new(seed, stream + 1),
            topics: topics.to_vec(),
            costs: (0..graph.num_nodes()).map(|v| 0.5 + f64::from(v % 4) * 0.5).collect(),
            n: graph.num_nodes(),
            mix: Deck::new(&mix),
            topic: Deck::new(&[(0, 9), (1, 4), (2, 3), (3, 2), (4, 1), (5, 1)]),
        }
    }

    fn query(&mut self, len: u32) -> Arrival {
        let rng = &mut self.rng;
        let (k, kind, span) = self.mix.draw(rng);
        let (lo, w) = (len - POOL_SETS as u32, POOL_SETS as u32);
        let range = match span {
            Part::Full => lo..len,
            Part::FirstHalf => lo..lo + w / 2,
            Part::SecondHalf => lo + w / 2..len,
            Part::FirstQuarter => lo..lo + w / 4,
        };
        let query = match kind {
            Kind::Plain => SeedQuery::top_k(k),
            Kind::Topic => self.topics[self.topic.draw(rng)].seed_query(k),
            Kind::BudgetUniform => SeedQuery::budgeted(k as f64),
            Kind::BudgetCosts => SeedQuery::budgeted(k as f64 * 0.75)
                .with_costs(NodeCosts::per_node(self.costs.clone())),
            Kind::Constrained => {
                let n = u64::from(self.n);
                let forced: Vec<NodeId> = (0..2).map(|_| rng.below(n) as NodeId).collect();
                let excluded = (0..5)
                    .map(|_| rng.below(n) as NodeId)
                    .filter(|v| !forced.contains(v))
                    .collect();
                SeedQuery::top_k(k).with_forced(forced).with_excluded(excluded)
            }
        };
        let plain = matches!(kind, Kind::Plain);
        let yardstick = plain && matches!(span, Part::Full) && k == 50;
        Arrival { due_s: 0.0, query: query.over_range(range), plain, yardstick }
    }

    /// Poisson arrivals at `rate` from `start_s`, until `duration_s` has
    /// passed or `count` queries have arrived.
    fn arrivals(
        &mut self,
        rate: f64,
        start_s: f64,
        duration_s: f64,
        count: usize,
        len_at: &impl Fn(f64) -> u32,
    ) -> Vec<Arrival> {
        let mut out = Vec::new();
        let mut t = start_s + self.gaps.exp(rate);
        while t < start_s + duration_s && out.len() < count {
            out.push(Arrival { due_s: t, ..self.query(len_at(t)) });
            t += self.gaps.exp(rate);
        }
        out
    }
}

/// What one open-loop phase produced.
#[derive(Default)]
struct Phase {
    /// Due → answer latency per arrival; `None` if never answered.
    latency_ms: Vec<Option<f64>>,
    /// Seconds after `t0` at which the phase stopped serving.
    ended_s: f64,
    due_s: Vec<f64>,
    /// Admission time minus due time per admitted arrival.
    admit_lag_ms: Vec<f64>,
    answers: Vec<(usize, SeedAnswer)>,
    errors: u64,
    rejected: u64,
    expired: u64,
    admit_ns: Vec<u64>,
    queue_wait_ms: Vec<f64>,
    batches: u64,
    batch_queries: u64,
    answer_ns: u64,
}

impl Phase {
    /// Latencies; an unanswered query counts as answered when the phase
    /// stopped, a lower bound on its lateness.
    fn latencies(&self) -> Vec<f64> {
        self.latency_ms
            .iter()
            .zip(&self.due_s)
            .map(|(l, due)| l.unwrap_or((self.ended_s - due) * 1e3))
            .collect()
    }

    fn unanswered(&self) -> usize {
        self.latency_ms.iter().filter(|l| l.is_none()).count()
    }

    /// Errors, rejects and expiries: operations that failed outright.
    fn faults(&self) -> u64 {
        self.errors + self.rejected + self.expired
    }

    /// The phase as a point of the capacity search: its offered rate and
    /// p99, passing when p99 is within `SLO_MS` and no backlog is left.
    fn probe(&self, rate: f64) -> Probe {
        let p99_ms = percentile(&self.latencies(), 99.0);
        let unanswered = self.unanswered();
        let pass = unanswered == 0 && p99_ms <= SLO_MS;
        Probe {
            rate,
            queries: self.latency_ms.len(),
            p99_ms,
            unanswered,
            faults: self.faults(),
            pass,
        }
    }
}

fn in_span<R>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, 0, |_| f()),
        None => f(),
    }
}

/// Serves `arrivals` on this thread until every one is answered or
/// `stop_s` (seconds after `t0`) passes.
fn serve_phase(
    engine: &SeedQueryEngine,
    arrivals: &[Arrival],
    t0: Instant,
    stop_s: f64,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let mut phase = Phase {
        latency_ms: vec![None; arrivals.len()],
        due_s: arrivals.iter().map(|a| a.due_s).collect(),
        ..Phase::default()
    };
    let mut queue = AdmissionQueue::new(QUEUE_CAPACITY);
    // ticket → (arrival index, admission time)
    let mut admitted: BTreeMap<u64, (usize, f64)> = BTreeMap::new();
    let mut next = 0usize;
    let mut pool_len = engine.pool().id_range().end;
    loop {
        let now = t0.elapsed().as_secs_f64();
        if now >= stop_s {
            break;
        }
        while let Some(a) = arrivals.get(next).filter(|a| a.due_s <= now) {
            let end = a.query.range.as_ref().map_or(0, |r| r.end);
            if end > pool_len {
                // serve-grow: the traffic asks for sets whose growth is
                // not published yet; wait for it.
                pool_len = engine.pool().id_range().end;
                if end > pool_len {
                    break;
                }
            }
            let admit_start = Instant::now();
            let result = in_span(&mut tracer, "core.planner.admit", || {
                queue.admit(a.query.clone(), Priority::Normal, None, (now * 1e6) as u64, pool_len)
            });
            phase.admit_ns.push(admit_start.elapsed().as_nanos() as u64);
            // A reject is counted from the queue's stats below.
            if let Ok(ticket) = result {
                admitted.insert(ticket, (next, now));
                phase.admit_lag_ms.push((now - a.due_s) * 1e3);
            }
            next += 1;
        }
        if queue.is_empty() {
            if next >= arrivals.len() {
                break;
            }
            // Spin rather than sleep: a sleeping vCPU is descheduled and
            // comes back to cold caches, which makes service time depend
            // on the host's other tenants more than on this program.
            std::hint::spin_loop();
            continue;
        }
        let drained = in_span(&mut tracer, "core.planner.drain", || {
            queue.drain((now * 1e6) as u64, MAX_BATCH)
        });
        let dequeued = t0.elapsed().as_secs_f64();
        let batch: Vec<SeedQuery> = drained.iter().map(|p| p.query.clone()).collect();
        let answer_start = Instant::now();
        let result =
            in_span(&mut tracer, "core.engine.answer_planned", || engine.answer_planned(&batch));
        phase.answer_ns += answer_start.elapsed().as_nanos() as u64;
        let done = t0.elapsed().as_secs_f64();
        phase.batches += 1;
        phase.batch_queries += batch.len() as u64;
        match result {
            Ok(answers) => {
                for (p, answer) in drained.iter().zip(answers) {
                    let Some(&(idx, admitted_at)) = admitted.get(&p.ticket) else { continue };
                    phase.latency_ms[idx] = Some((done - arrivals[idx].due_s) * 1e3);
                    phase.queue_wait_ms.push((dequeued - admitted_at) * 1e3);
                    phase.answers.push((idx, answer));
                }
            }
            Err(_) => phase.errors += batch.len() as u64,
        }
    }
    phase.ended_s = t0.elapsed().as_secs_f64();
    let stats = queue.stats();
    phase.rejected = stats.rejected_queue_full + stats.rejected_deadline;
    phase.expired = stats.expired;
    phase
}

/// One measured point of the capacity search.
struct Probe {
    rate: f64,
    queries: usize,
    p99_ms: f64,
    unanswered: usize,
    faults: u64,
    pass: bool,
}

/// Log-bisection over `[SEARCH_LO, SEARCH_HI] × estimate` with `PROBES`
/// probes of `PROBE_S` seconds. Every probe offers the same query sequence, only
/// faster or slower. A probe passes when its p99 is within `SLO_MS` and
/// no backlog is left when it ends.
fn capacity_search(
    engine: &SeedQueryEngine,
    graph: &Graph,
    topics: &[TargetWeights],
    seed: u64,
    t0: Instant,
    estimate: f64,
    len_at: &impl Fn(f64) -> u32,
) -> Vec<Probe> {
    let (mut lo, mut hi) = (SEARCH_LO * estimate, SEARCH_HI * estimate);
    let mut probes = Vec::new();
    for _ in 0..PROBES {
        let rate = (lo * hi).sqrt();
        let start = t0.elapsed().as_secs_f64();
        // Arrivals stop one latency limit before the probe does, so a
        // probe that keeps up drains before its end.
        let arrivals = Traffic::new(graph, topics, seed, 20).arrivals(
            rate,
            start,
            PROBE_S - SLO_MS / 1e3,
            usize::MAX,
            len_at,
        );
        let probe = serve_phase(engine, &arrivals, t0, start + PROBE_S, None).probe(rate);
        if probe.pass {
            lo = rate;
        } else {
            hi = rate;
        }
        probes.push(probe);
    }
    probes
}

/// The offered rate at which p99 reaches `SLO_MS`, interpolated
/// log-log between the fastest passing and the slowest failing point;
/// the fastest passing rate when no faster point fails. The points are
/// the fixed-rate phase and the probes, so the result always comes from
/// measured rates. `None` when no point passes, not even the fixed rate.
fn rate_at_slo(points: &[&Probe]) -> Option<f64> {
    let pass = points.iter().filter(|p| p.pass).max_by(|a, b| a.rate.total_cmp(&b.rate))?;
    let fail = points.iter().filter(|p| !p.pass).min_by(|a, b| a.rate.total_cmp(&b.rate));
    Some(match fail {
        Some(f) if f.rate > pass.rate && f.p99_ms > pass.p99_ms => {
            let x = ((SLO_MS.ln() - pass.p99_ms.ln()) / (f.p99_ms.ln() - pass.p99_ms.ln()))
                .clamp(0.0, 1.0);
            pass.rate * (f.rate / pass.rate).powf(x)
        }
        _ => pass.rate,
    })
}

/// Counts every arrival of a served phase as one operation: it fails
/// when it is unanswered or its answer mismatched the audit. Errors,
/// rejects and expiries fail one more check.
fn check_phase(out: &mut Outcome, name: &str, phase: &Phase, mismatched: &[usize]) {
    for (i, l) in phase.latency_ms.iter().enumerate() {
        let ok = l.is_some() && !mismatched.contains(&i);
        out.check(ok, || format!("{name} query {i} unanswered, rejected or wrong"));
    }
    out.check(phase.faults() == 0, || {
        format!(
            "{} errors, {} rejects, {} expiries in the {name} phase",
            phase.errors, phase.rejected, phase.expired
        )
    });
}

/// Re-derives every `AUDIT_EVERY`-th answer on the final pool: plain
/// top-k through a direct `CoverageView` selection, everything else
/// through `answer_batch` on a fresh engine. Returns the arrival indices
/// whose answers did not match.
fn audit(
    pool: &Arc<RrCollection>,
    gamma: f64,
    arrivals: &[Arrival],
    answers: &[(usize, SeedAnswer)],
    tracer: &mut Tracer,
    select_entries: &mut Vec<u64>,
) -> (usize, Vec<usize>) {
    let mut mismatched = Vec::new();
    let mut rest: Vec<(usize, &SeedAnswer)> = Vec::new();
    let mut scratch = GreedyScratch::new();
    let mut audited = 0;
    for (idx, answer) in answers.iter().step_by(AUDIT_EVERY) {
        audited += 1;
        let query = &arrivals[*idx].query;
        if !arrivals[*idx].plain {
            rest.push((*idx, answer));
            continue;
        }
        let range: Range<u32> = query.range.clone().unwrap_or(0..0);
        let result = tracer.span("rrset.coverage.select", *idx as u64, |_| {
            CoverageView::build(pool, range.clone()).select(query.k, &mut scratch)
        });
        select_entries.push(range.map(|i| pool.set(i as usize).len() as u64).sum());
        if result.seeds != answer.seeds || result.covered as f64 != answer.covered {
            mismatched.push(*idx);
        }
    }
    let fresh = SeedQueryEngine::from_pool((**pool).clone(), gamma);
    let queries: Vec<SeedQuery> =
        rest.iter().map(|(idx, _)| arrivals[*idx].query.clone()).collect();
    match fresh.answer_batch(&queries) {
        Ok(again) => mismatched
            .extend(rest.iter().zip(&again).filter(|((_, a), b)| *a != *b).map(|((i, _), _)| *i)),
        Err(_) => mismatched.extend(rest.iter().map(|(i, _)| *i)),
    }
    (audited, mismatched)
}

fn stats_delta(before: &QueryStats, after: &QueryStats) -> BTreeMap<&'static str, f64> {
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    let (hits, misses) = (
        after.snapshot_hits - before.snapshot_hits,
        after.snapshot_misses - before.snapshot_misses,
    );
    let (w_hits, w_misses) = (
        after.weighted_hits - before.weighted_hits,
        after.weighted_misses - before.weighted_misses,
    );
    BTreeMap::from([
        ("core.engine.snapshot_hit_ratio", ratio(hits, misses)),
        ("core.engine.weighted_hit_ratio", ratio(w_hits, w_misses)),
        ("core.engine.merges", (after.merges - before.merges) as f64),
        ("core.engine.epochs_frozen", (after.epochs_frozen - before.epochs_frozen) as f64),
        ("core.engine.evictions", (after.evictions - before.evictions) as f64),
        ("core.engine.cache_mb", after.cached_bytes as f64 / MIB),
    ])
}

/// Builds the graph, samples the serving pool and answers one query per
/// snapshot key so the measured phases start from a warm cache. Traced
/// set-ups split the pool build into its sampling, index and seal calls.
fn set_up(seed: u64, tracer: Option<&mut Tracer>) -> (Graph, SeedQueryEngine, Vec<TargetWeights>) {
    let graph = match tracer {
        Some(t) => t.span("graph.build", 0, |_| build_graph()),
        None => build_graph(),
    };
    let ctx = SamplingContext::new(&graph, Model::IndependentCascade).with_seed(seed);
    let engine = SeedQueryEngine::sample(&ctx, POOL_SETS).with_cache_budget(CACHE_BUDGET);
    let len = engine.pool().id_range().end;
    let topics = make_topics(&graph);
    let mut warm = Vec::new();
    for range in [0..len, 0..len / 2, len / 2..len, 0..len / 4] {
        warm.push(SeedQuery::top_k(10).over_range(range.clone()));
        warm.extend(topics.iter().map(|t| t.seed_query(10).over_range(range.clone())));
    }
    engine.answer_planned(&warm).expect("warm-up queries are valid");
    (graph, engine, topics)
}

/// Traced runs only: rebuilds the set-up pool through the layer calls
/// `SeedQueryEngine::sample` is made of — a sampling pass, then
/// `extend_sequential` and `seal`, then a second sampling pass. The two
/// passes sample the same sets; the later one finds the graph warmer, so
/// their mean brackets the sampling inside `extend_sequential`.
fn pool_layers(graph: &Graph, seed: u64, tracer: &mut Tracer) -> BTreeMap<&'static str, f64> {
    let ctx = SamplingContext::new(graph, Model::IndependentCascade).with_seed(seed);
    let mut probe = ctx.sampler(0);
    let mut rr = Vec::new();
    let (mut edges, mut entries) = (0u64, 0u64);
    let mut sample = |t: &mut Tracer| {
        (edges, entries) = (0, 0);
        t.span("diffusion.sample", 0, |_| {
            for i in 0..POOL_SETS {
                edges += probe.sample(i, &mut rr).edges_examined;
                entries += rr.len() as u64;
            }
        })
    };
    sample(tracer);
    let mut pool = RrCollection::new(graph.num_nodes());
    tracer.span("rrset.index.extend", 0, |_| {
        pool.extend_sequential(&mut ctx.sampler(0), 0, POOL_SETS)
    });
    tracer.span("rrset.index.seal", 0, |_| {
        let _ = pool.seal();
    });
    sample(tracer);
    let ms = |name: &str| tracer.total_ns(name) as f64 / 1e6 / tracer.count(name).max(1) as f64;
    let sample_ms = ms("diffusion.sample");
    BTreeMap::from([
        ("diffusion.sample_ms", sample_ms),
        ("diffusion.rr_sets", POOL_SETS as f64),
        ("diffusion.edges_examined", edges as f64),
        ("diffusion.set_entries", entries as f64),
        ("diffusion.ns_per_set", sample_ms * 1e6 / POOL_SETS as f64),
        ("diffusion.ns_per_edge", sample_ms * 1e6 / edges as f64),
        ("diffusion.live_ratio", entries as f64 / edges as f64),
        ("rrset.index.append_ms", ms("rrset.index.extend") - sample_ms),
        ("rrset.index.seal_ms", ms("rrset.index.seal")),
        ("rrset.index.compactions", pool.compactions() as f64),
    ])
}

pub fn run(grow: bool, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let traced = opts.trace;
    let (setup_s, (graph, engine, topics)) =
        repeated_setup(&mut out, traced.then_some(&mut tracer), |t| set_up(opts.seed, t));
    let graph = &graph;
    let mut layer =
        if traced { pool_layers(graph, opts.seed, &mut tracer) } else { BTreeMap::new() };
    let ctx = SamplingContext::new(graph, Model::IndependentCascade).with_seed(opts.seed);
    let ref_b = RefPool::sample(graph, Model::IndependentCascade, REF_SETS, opts.seed, 2);

    // Deterministic counters: the pool, and the plan of a fixed batch.
    let pool0 = engine.pool();
    out.counters.insert("serve.pool.sets".into(), pool0.len() as u64);
    out.counters.insert("serve.pool.edges_examined".into(), pool0.total_edges_examined());
    let fixed_batch: Vec<SeedQuery> = Traffic::new(graph, &topics, opts.seed, 30)
        .arrivals(1000.0, 0.0, f64::INFINITY, 64, &|_| pool0.id_range().end)
        .into_iter()
        .map(|a| a.query)
        .collect();
    let plan = BatchPlan::build(&fixed_batch, pool0.id_range().end);
    out.counters.insert("serve.plan.groups".into(), plan.num_groups() as u64);
    out.counters.insert("serve.plan.builds_saved".into(), plan.builds_saved());
    out.check(
        BatchPlan::build(&fixed_batch, pool0.id_range().end).num_groups() == plan.num_groups(),
        || "planner grouped one batch two ways".into(),
    );
    drop(pool0);

    // The capacity search gets its probes; the fixed-rate phase gets the
    // rest of `--seconds`. A traced run serves the first half of the
    // fixed-rate traffic untraced, then the same half again traced, and
    // searches no capacity.
    let total_s = opts.seconds;
    let fixed_total = ((total_s - PROBES as f64 * PROBE_S).max(1.0) * FIXED_QPS) as usize;
    let fixed_queries = if traced { fixed_total / 2 } else { fixed_total };
    let serving_s = if traced { fixed_total as f64 / FIXED_QPS } else { total_s };
    let growths =
        if grow { ((serving_s / GROW_EVERY_S).floor() as u64).saturating_sub(1) } else { 0 };
    let base = POOL_SETS as u32;
    let len_at = move |t: f64| -> u32 {
        let done = ((t - GROW_LAG_S) / GROW_EVERY_S).floor().clamp(0.0, growths as f64) as u32;
        base + done * GROW_SETS as u32
    };

    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (fixed, traced_phase, probes, grow_log) = std::thread::scope(|s| {
        let grower = s.spawn(|| {
            let mut log: Vec<(Instant, Instant, u64)> = Vec::new();
            for i in 0..growths {
                let due = t0 + Duration::from_secs_f64((i + 1) as f64 * GROW_EVERY_S);
                while Instant::now() < due && !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(
                        Duration::from_millis(5).min(due.saturating_duration_since(Instant::now())),
                    );
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let start = Instant::now();
                let outcome = engine.grower().extend(&ctx, GROW_SETS);
                log.push((start, Instant::now(), outcome.generation()));
            }
            log
        });
        let fixed_arrivals = Traffic::new(graph, &topics, opts.seed, 10).arrivals(
            FIXED_QPS,
            0.0,
            f64::INFINITY,
            fixed_queries,
            &len_at,
        );
        let fixed = serve_phase(&engine, &fixed_arrivals, t0, total_s + 60.0, None);
        let mut traced_phase = None;
        let mut probes = Vec::new();
        if traced {
            // The same traffic shape again, traced, for the overhead and
            // the per-layer split.
            let start = t0.elapsed().as_secs_f64();
            let arrivals = Traffic::new(graph, &topics, opts.seed, 10).arrivals(
                FIXED_QPS,
                start,
                f64::INFINITY,
                fixed_queries,
                &len_at,
            );
            let before = engine.stats();
            let phase = tracer.span("serve.phase", 0, |t| {
                serve_phase(&engine, &arrivals, t0, total_s + 60.0, Some(t))
            });
            traced_phase = Some((arrivals, phase, before, engine.stats()));
        } else {
            let service_ms = fixed.answer_ns as f64 / 1e6 / fixed.batch_queries.max(1) as f64;
            probes =
                capacity_search(&engine, graph, &topics, opts.seed, t0, 1e3 / service_ms, &len_at);
        }
        stop.store(true, Ordering::Relaxed);
        let log = grower.join().expect("grower thread");
        ((fixed_arrivals, fixed), traced_phase, probes, log)
    });
    let (fixed_arrivals, fixed) = fixed;

    // Audit on the final pool (prefix determinism makes it valid for any
    // generation that answered).
    let pool = engine.pool();
    let mut select_entries = Vec::new();
    let (audited, mismatched) = audit(
        &pool,
        engine.gamma(),
        &fixed_arrivals,
        &fixed.answers,
        &mut tracer,
        &mut select_entries,
    );
    let mut latencies = fixed.latencies();
    for &i in &mismatched {
        latencies[i] = f64::INFINITY;
    }
    out.note(format!("audit: {audited} answers re-derived, {} mismatched", mismatched.len()));
    for &i in mismatched.iter().take(5) {
        out.note(format!("FAILED audit of query {i}: {:?}", fixed_arrivals[i].query));
    }
    let answered = fixed.latency_ms.len() - fixed.unanswered();
    // Operations: every fixed-rate and probe query, every check. A probe
    // may leave a backlog (that is what it measures) but must not fail.
    check_phase(&mut out, "fixed-rate", &fixed, &mismatched);
    for p in &probes {
        out.attempted += p.queries as u64;
        out.failed += p.faults;
        if p.faults > 0 {
            out.note(format!("FAILED check: {} errors, rejects or expiries in a probe", p.faults));
        }
    }

    let p50 = median(&latencies);
    let top_p = supported_percentile(latencies.len(), 10).unwrap_or(50);
    let tail = percentile(&latencies, TAIL_P);
    out.note(format!(
        "query_ms_p50 = {p50} ms, query_ms_p{TAIL_P} = {tail} ms, query_ms_p{top_p} = {} ms (highest with 10 queries beyond) over {answered} answered of {} queries at {FIXED_QPS} qps offered",
        percentile(&latencies, f64::from(top_p)),
        latencies.len()
    ));
    if top_p < 99 {
        out.note(format!("query_ms_p99 unsupported: {} queries, p99 needs 1000", latencies.len()));
    }
    out.note(format!(
        "service: {:.3} ms per answered query in {} answer_planned calls of {:.2} queries on average",
        fixed.answer_ns as f64 / 1e6 / fixed.batch_queries.max(1) as f64,
        fixed.batches,
        fixed.batch_queries as f64 / fixed.batches.max(1) as f64
    ));
    out.note(format!(
        "admission lag (admitted minus due): p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        percentile(&fixed.admit_lag_ms, 50.0),
        percentile(&fixed.admit_lag_ms, 99.0),
        percentile(&fixed.admit_lag_ms, 100.0)
    ));
    // The fixed-rate phase is the capacity search's lowest point.
    let fixed_point = fixed.probe(FIXED_QPS);
    let points: Vec<&Probe> = std::iter::once(&fixed_point).chain(&probes).collect();
    for p in &points {
        out.note(format!(
            "{:.1} qps offered: {} queries, p99 {:.1} ms, {} unanswered -> {}",
            p.rate,
            p.queries,
            p.p99_ms,
            p.unanswered,
            if p.pass { "pass" } else { "fail" }
        ));
    }
    let qps_at_slo = rate_at_slo(&points);
    if !traced {
        out.check(qps_at_slo.is_some(), || {
            format!("p99 exceeds {SLO_MS} ms even at the fixed rate of {FIXED_QPS} qps")
        });
        out.note(format!(
            "qps_at_slo = {} 1/s (p99 <= {SLO_MS} ms, no backlog, {PROBES} probes above the fixed rate)",
            qps_at_slo.map_or("none".into(), |q| q.to_string())
        ));
    }
    let grow_ms: Vec<f64> =
        grow_log.iter().map(|(a, b, _)| b.duration_since(*a).as_secs_f64() * 1e3).collect();
    if grow {
        out.note(format!(
            "grow_ms_p50 = {} ms over {} growths of {GROW_SETS} sets",
            median(&grow_ms),
            grow_ms.len()
        ));
        out.check(grow_ms.len() as u64 == growths, || {
            format!("{} of {growths} growths ran", grow_ms.len())
        });
    }

    // Answer quality: reference spread of the plain top-50 full-range
    // answers.
    let mut spread_of: BTreeMap<Vec<NodeId>, f64> = BTreeMap::new();
    let yard: Vec<f64> = fixed
        .answers
        .iter()
        .filter(|(i, _)| fixed_arrivals[*i].yardstick)
        .map(|(_, a)| {
            *spread_of.entry(a.seeds.clone()).or_insert_with(|| ref_b.influence(&a.seeds))
        })
        .collect();
    out.check(!yard.is_empty(), || {
        "no plain top-50 full-range answer to measure influence on".into()
    });
    let influence = mean(&yard);
    let stats = engine.stats();
    let memory_mb = (pool.memory_bytes() + stats.cached_bytes) as f64 / MIB;
    out.note(format!(
        "influence = {influence} nodes over {} top-50 full-range answers",
        yard.len()
    ));
    out.note(format!(
        "pool {} sets, generation {}, memory {memory_mb:.1} MB",
        pool.len(),
        engine.generation()
    ));
    out.note(format!(
        "cache: {} hits, {} misses, {} weighted hits, {} weighted misses, {} merges, {} evictions",
        stats.snapshot_hits,
        stats.snapshot_misses,
        stats.weighted_hits,
        stats.weighted_misses,
        stats.merges,
        stats.evictions
    ));

    if !traced {
        out.metrics = vec![
            ("setup_s", setup_s, "s"),
            ("latency_p50_ms", p50, "ms"),
            ("latency_tail_ms", tail, "ms"),
            // Without a passing point the run has failed above; the
            // fixed rate, which missed the limit, bounds the capacity.
            ("capacity_per_s", qps_at_slo.unwrap_or(FIXED_QPS), "1/s"),
            ("influence", influence, "nodes"),
            ("memory_mb", memory_mb, "MB"),
        ];
        return out;
    }

    let (_, phase, before, after) = traced_phase.expect("traced runs trace the second phase");
    check_phase(&mut out, "traced", &phase, &[]);
    let traced_p50 = median(&phase.latencies());
    out.note(format!(
        "tracing overhead: query p50 {traced_p50:.3} ms traced vs {p50:.3} ms untraced ({:+.3} ms)",
        traced_p50 - p50
    ));
    let (speedup, identical) =
        parallel_speedup(graph, Model::IndependentCascade, opts.seed, SPEEDUP_SETS);
    out.check(identical, || "extend_parallel(2) differs from extend_sequential".into());
    for (name, value) in stats_delta(&before, &after) {
        layer.insert(name, value);
    }
    // The planner on a fixed batch: the first 64 queries of the traffic,
    // answered as one planned batch on the final pool.
    let before = engine.stats();
    let planned =
        tracer.span("core.engine.answer_planned", 0, |_| engine.answer_planned(&fixed_batch));
    out.check(planned.is_ok(), || "the fixed batch was refused".into());
    let after = engine.stats();
    layer.insert(
        "core.planner.groups_per_batch",
        (after.planner_groups - before.planner_groups) as f64,
    );
    layer.insert(
        "core.planner.builds_saved",
        (after.planner_builds_saved - before.planner_builds_saved) as f64,
    );
    let selects = select_entries.len().max(1) as f64;
    layer.extend([
        (
            "graph.build_ms",
            tracer.total_ns("graph.build") as f64 / 1e6 / tracer.count("graph.build").max(1) as f64,
        ),
        ("diffusion.parallel_speedup_2t", speedup),
        ("rrset.index.pool_mb", pool.memory_bytes() as f64 / MIB),
        (
            "rrset.coverage.select_ms",
            tracer.total_ns("rrset.coverage.select") as f64 / 1e6 / selects,
        ),
        ("rrset.coverage.select_calls", select_entries.len() as f64),
        ("rrset.coverage.entries_scanned", select_entries.iter().sum::<u64>() as f64 / selects),
        ("core.engine.answer_ms", phase.answer_ns as f64 / 1e6 / phase.batches.max(1) as f64),
        ("core.engine.batch_size", phase.batch_queries as f64 / phase.batches.max(1) as f64),
        (
            "core.planner.admit_us",
            mean(&phase.admit_ns.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>()),
        ),
        ("core.planner.queue_wait_ms", mean(&phase.queue_wait_ms)),
        ("core.planner.rejected", phase.rejected as f64),
        ("core.planner.expired", phase.expired as f64),
        ("core.grower.extend_ms", mean(&grow_ms)),
        ("core.grower.sets_added", (grow_log.len() as u64 * GROW_SETS) as f64),
        ("core.grower.generations", engine.generation() as f64),
    ]);
    for (i, (start, end, generation)) in grow_log.iter().enumerate() {
        tracer.record("core.grower.extend", i as u64 + 1000 * generation, *start, *end);
    }
    for line in tracer.self_time_lines() {
        out.note(line);
    }
    out.metrics = per_layer_metrics(&layer);
    let path =
        crate::out_dir().join("spans").join(format!("{}-seed{}.jsonl", opts.workload, opts.seed));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("warning: could not write spans to {}: {e}", path.display());
    }
    out
}
