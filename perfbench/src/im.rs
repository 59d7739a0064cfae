//! `im-ic` and `im-lt`: repeated `Dssa::run` on the Epinions stand-in,
//! checked against the independent reference estimator, and — when
//! traced — replayed checkpoint by checkpoint through the public layer
//! calls the algorithm is built from.

use std::collections::BTreeMap;
use std::time::Instant;

use sns_core::bounds::{self, ONE_MINUS_INV_E};
use sns_core::{Certificate, Dssa, Params, RunResult, SamplingContext, StopCondition};
use sns_diffusion::Model;
use sns_graph::{Graph, NodeId};
use sns_rrset::{max_coverage_with, GreedyScratch, RrCollection};

use crate::layers::{parallel_speedup, per_layer_metrics, MIB};
use crate::reference::RefPool;
use crate::rng::Rng;
use crate::stats::{mean, median, percentile, supported_percentile, TAIL_P};
use crate::trace::Tracer;
use crate::{build_graph, repeated_setup, Opts, Outcome};

const K: usize = 50;
const EPSILON: f64 = 0.1;
/// Sampling seeds drawn from the workload seed; runs cycle through them,
/// so every seed repeats and its counters can be compared.
const SAMPLING_SEEDS: usize = 4;
/// Plain runs made even when `--seconds` would allow fewer.
const MIN_RUNS: usize = 2 * SAMPLING_SEEDS;
/// Sets in each half (A and B) of the reference estimator.
const REF_SETS: usize = 50_000;
/// Sets sampled by the parallel speed-up probe.
const SPEEDUP_SETS: u64 = 20_000;

/// One checkpoint-by-checkpoint replay of a D-SSA run.
#[derive(Debug)]
struct Replay {
    seeds: Vec<NodeId>,
    sets: u64,
    checkpoints: u64,
    binding: StopCondition,
    edges: u64,
    entries: u64,
    entries_scanned: u64,
    compactions: u64,
    pool_bytes: u64,
    total_ns: u64,
}

/// Replays the checkpoint pool sizes of a D-SSA run with the public
/// calls it is made of — `RrSampler::sample`, `extend_sequential`,
/// `seal`, `max_coverage_with`, `coverage_of_range` and the
/// `Certificate::dssa` checks — one span per call.
fn replay(
    ctx: &SamplingContext<'_>,
    params: Params,
    sizes: &[u64],
    tracer: &mut Tracer,
    id: u64,
) -> Replay {
    let start = Instant::now();
    let n = u64::from(ctx.graph().num_nodes());
    let k = params.k.min(n as usize);
    let (eps, delta) = (params.epsilon, params.delta);
    let n_max = bounds::nmax(n, k as u64, eps, delta, ctx.cap_ratio(k));
    let t_max = bounds::max_iterations(n_max, eps, delta);
    let delta_iter = delta / (3.0 * f64::from(t_max));
    let gamma = ctx.gamma();
    let cert = Certificate::dssa(params.rule, eps, delta_iter, gamma);

    let mut pool = RrCollection::new(ctx.graph().num_nodes());
    let mut sampler = ctx.sampler(0);
    let mut probe = ctx.sampler(0);
    let mut greedy = GreedyScratch::new();
    let mut bits = Vec::new();
    let mut rr = Vec::new();
    // entries_before[i] = set entries in sets 0..i.
    let mut entries_before = vec![0u64];
    let (mut edges, mut entries_scanned) = (0u64, 0u64);
    let mut first_met = None;
    let mut result = None;

    tracer.span("dssa.replay", id, |tracer| {
        for (t, &full) in sizes.iter().enumerate() {
            let (have, half) = (pool.len() as u64, full / 2);
            // The standalone sampling pass and extend_sequential sample
            // the same sets; whichever runs second finds the graph warmer,
            // so the order alternates between replays.
            let mut sample = |tracer: &mut Tracer| {
                tracer.span("diffusion.sample", id, |_| {
                    for i in have..full {
                        edges += probe.sample(i, &mut rr).edges_examined;
                        entries_before
                            .push(entries_before.last().copied().unwrap_or(0) + rr.len() as u64);
                    }
                })
            };
            if id.is_multiple_of(2) {
                sample(tracer);
            }
            tracer.span("rrset.index.extend", id, |_| {
                pool.extend_sequential(&mut sampler, have, full - have)
            });
            if !id.is_multiple_of(2) {
                sample(tracer);
            }
            tracer.span("rrset.index.seal", id, |_| {
                let _ = pool.seal();
            });
            let cover = tracer.span("rrset.coverage.select", id, |_| {
                max_coverage_with(&pool, k, 0..half as u32, &mut greedy)
            });
            entries_scanned += entries_before[half as usize];
            let stop = tracer.span("core.certificate.verify", id, |_| {
                let i_t = cover.influence_estimate(gamma, half);
                let cov_c =
                    pool.coverage_of_range(&cover.seeds, half as u32..full as u32, &mut bits);
                if !cert.coverage_met(cov_c) {
                    return false;
                }
                first_met.get_or_insert(t);
                cert.dssa_precision(i_t, cov_c, half).satisfied
            });
            let last = t + 1 == sizes.len();
            if stop || last {
                let binding = match (stop, first_met) {
                    (true, Some(f)) if f == t => StopCondition::Coverage,
                    (true, _) => StopCondition::Precision,
                    (false, _) => StopCondition::Cap,
                };
                result.get_or_insert((cover.seeds, full, t as u64 + 1, binding));
            }
        }
    });
    let (seeds, sets, checkpoints, binding) =
        result.unwrap_or((Vec::new(), 0, 0, StopCondition::Cap));
    Replay {
        seeds,
        sets,
        checkpoints,
        binding,
        edges,
        entries: *entries_before.last().unwrap_or(&0),
        entries_scanned,
        compactions: pool.compactions(),
        pool_bytes: pool.memory_bytes(),
        total_ns: start.elapsed().as_nanos() as u64,
    }
}

fn valid_seeds(seeds: &[NodeId], k: usize, n: u32) -> bool {
    let mut s = seeds.to_vec();
    s.sort_unstable();
    s.dedup();
    seeds.len() == k && s.len() == k && s.iter().all(|&v| v < n)
}

fn context(graph: &Graph, model: Model, seed: u64) -> SamplingContext<'_> {
    SamplingContext::new(graph, model).with_seed(seed).with_threads(1)
}

pub fn run(model: Model, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let traced = opts.trace;
    let (setup_s, graph) = repeated_setup(&mut out, traced.then_some(&mut tracer), |t| match t {
        Some(t) => t.span("graph.build", 0, |_| build_graph()),
        None => build_graph(),
    });
    let n = graph.num_nodes();
    let params = Params::new(K, EPSILON, 1.0 / f64::from(n)).expect("valid D-SSA parameters");

    // Quality yardstick: greedy on half A, judged on half B.
    let ref_a = RefPool::sample(&graph, model, REF_SETS, opts.seed, 1);
    let ref_b = RefPool::sample(&graph, model, REF_SETS, opts.seed, 2);
    let greedy_b = ref_b.influence(&ref_a.greedy(K));
    let bar = (ONE_MINUS_INV_E - EPSILON) * greedy_b;
    out.note(format!(
        "reference: I_B(greedy on A) = {greedy_b:.1}, quality bar (1-1/e-eps) x that = {bar:.1}"
    ));

    let mut seed_rng = Rng::new(opts.seed, 3);
    let sampling_seeds: Vec<u64> = (0..SAMPLING_SEEDS).map(|_| seed_rng.next_u64()).collect();

    // Plain runs: the end-to-end numbers. A traced run makes one per
    // sampling seed here and pairs the rest with its replays.
    let (plain_budget, min_runs) =
        if traced { (0.0, SAMPLING_SEEDS) } else { (opts.seconds, MIN_RUNS) };
    let mut run_ms: Vec<f64> = Vec::new();
    let mut first: Vec<Option<RunResult>> = vec![None; SAMPLING_SEEDS];
    let (mut influence, mut peak_mb, mut rr_sets) = (Vec::new(), Vec::new(), Vec::new());
    let mut bindings: BTreeMap<String, u32> = BTreeMap::new();
    let began = Instant::now();
    while run_ms.len() < min_runs || began.elapsed().as_secs_f64() < plain_budget {
        let i = run_ms.len() % SAMPLING_SEEDS;
        let ctx = context(&graph, model, sampling_seeds[i]);
        let start = Instant::now();
        let result = Dssa::new(params).run(&ctx);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        run_ms.push(ms);
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                out.check(false, || format!("Dssa::run failed: {e}"));
                continue;
            }
        };
        out.check(valid_seeds(&r.seeds, K, n), || {
            format!("run {}: invalid seeds {:?}", run_ms.len(), r.seeds)
        });
        let quality = ref_b.influence(&r.seeds);
        out.check(quality >= bar, || {
            format!("run {}: I_B(S) = {quality:.1} < bar {bar:.1}", run_ms.len())
        });
        match &first[i] {
            None => {
                let key = format!("dssa.seed{:016x}", sampling_seeds[i]);
                out.counters.insert(format!("{key}.rr_sets"), r.rr_sets_total());
                out.counters.insert(format!("{key}.edges_examined"), r.total_edges_examined);
                out.counters.insert(format!("{key}.checkpoints"), u64::from(r.iterations));
                first[i] = Some(r.clone());
            }
            Some(f) => out.check(
                f.seeds == r.seeds
                    && f.rr_sets_total() == r.rr_sets_total()
                    && f.total_edges_examined == r.total_edges_examined
                    && f.iterations == r.iterations,
                || {
                    format!(
                        "run {}: counters drifted between runs of one sampling seed",
                        run_ms.len()
                    )
                },
            ),
        }
        influence.push(quality);
        peak_mb.push(r.peak_pool_bytes as f64 / MIB);
        rr_sets.push(r.rr_sets_total() as f64);
        *bindings.entry(format!("{:?}", r.binding)).or_default() += 1;
    }

    let runs = run_ms.len();
    let p50 = median(&run_ms);
    out.note(format!(
        "run_ms_p50 = {p50} ms over {runs} runs ({SAMPLING_SEEDS} sampling seeds, 1 thread)"
    ));
    let tail = percentile(&run_ms, TAIL_P);
    out.note(format!("run_ms_p{TAIL_P} = {tail} ms"));
    match supported_percentile(runs, 10) {
        Some(p) => out.note(format!(
            "run_ms_p{p} = {} ms (highest with 10 runs beyond)",
            percentile(&run_ms, f64::from(p))
        )),
        None => {
            out.note(format!("run_ms: {runs} runs support no percentile with 10 runs beyond it"))
        }
    }
    out.note(format!("influence = {} nodes (mean I_B of returned seed sets)", mean(&influence)));
    out.note(format!("peak_pool_mb = {} MB", mean(&peak_mb)));
    out.note(format!("rr_sets per run = {}, binding conditions {bindings:?}", mean(&rr_sets)));

    if !traced {
        out.metrics = vec![
            ("setup_s", setup_s, "s"),
            ("latency_p50_ms", p50, "ms"),
            ("latency_tail_ms", tail, "ms"),
            ("capacity_per_s", runs as f64 / (run_ms.iter().sum::<f64>() / 1e3), "1/s"),
            ("influence", mean(&influence), "nodes"),
            ("memory_mb", mean(&peak_mb), "MB"),
        ];
        return out;
    }

    // Traced part: each replay is paired with a plain run of the same
    // sampling seed right before it, so machine drift cancels out of the
    // overhead and the phase-sum check.
    let mut replays: Vec<Replay> = Vec::new();
    let mut plain_ms_matched = 0.0;
    while replays.len() < SAMPLING_SEEDS || began.elapsed().as_secs_f64() < opts.seconds {
        let i = replays.len() % SAMPLING_SEEDS;
        let Some(plain) = first[i].clone() else { break };
        let ctx = context(&graph, model, sampling_seeds[i]);
        let start = Instant::now();
        let paired = Dssa::new(params).run(&ctx);
        let paired_ms = start.elapsed().as_secs_f64() * 1e3;
        out.check(paired.is_ok_and(|r| r.seeds == plain.seeds), || {
            "plain runs of one seed differ".into()
        });
        let sizes: Vec<u64> = match Dssa::new(params).run_traced(&ctx) {
            Ok((traced_run, iters)) => {
                out.check(traced_run.seeds == plain.seeds, || {
                    "run_traced seeds differ from run".into()
                });
                iters.iter().map(|it| it.pool_size).collect()
            }
            Err(e) => {
                out.check(false, || format!("Dssa::run_traced failed: {e}"));
                continue;
            }
        };
        let rep = replay(&ctx, params, &sizes, &mut tracer, replays.len() as u64);
        out.check(rep.seeds == plain.seeds && rep.sets == plain.rr_sets_total(), || {
            format!(
                "replay {}: seeds/sets {}/{} differ from the plain run's {}",
                replays.len(),
                rep.seeds.len(),
                rep.sets,
                plain.rr_sets_total()
            )
        });
        plain_ms_matched += paired_ms;
        replays.push(rep);
    }
    let speedup_start = Instant::now();
    let (speedup, identical) = parallel_speedup(&graph, model, opts.seed, SPEEDUP_SETS);
    out.check(identical, || "extend_parallel(2) differs from extend_sequential".into());
    let speedup_s = speedup_start.elapsed().as_secs_f64();

    let reps = replays.len().max(1) as f64;
    let ms = |name: &str| tracer.total_ns(name) as f64 / 1e6;
    let sum = |f: fn(&Replay) -> u64| replays.iter().map(f).sum::<u64>() as f64;
    let (sample_ms, extend_ms) = (ms("diffusion.sample"), ms("rrset.index.extend"));
    let (seal_ms, select_ms, verify_ms) =
        (ms("rrset.index.seal"), ms("rrset.coverage.select"), ms("core.certificate.verify"));
    // The replay does the sampling twice (once alone, once inside
    // extend), so the run's phases are extend + seal + select + verify,
    // with extend split into its sampling and its index share.
    let phase_ms = extend_ms + seal_ms + select_ms + verify_ms;
    let phase_ratio = phase_ms / plain_ms_matched;
    out.note(format!(
        "phase split of {} replays: sample {:.1}%, index {:.1}%, seal {:.2}%, select {:.2}%, verify {:.2}%",
        replays.len(),
        100.0 * sample_ms / phase_ms,
        100.0 * (extend_ms - sample_ms) / phase_ms,
        100.0 * seal_ms / phase_ms,
        100.0 * select_ms / phase_ms,
        100.0 * verify_ms / phase_ms
    ));
    out.note(format!(
        "phase self times sum to {:.3} of the plain Dssa::run wall time ({phase_ms:.1} vs {plain_ms_matched:.1} ms)",
        phase_ratio
    ));
    out.check((phase_ratio - 1.0).abs() <= 0.10, || {
        format!("phase self times sum to {phase_ratio:.3} of the plain run time, not within 10%")
    });
    let replay_ms = sum(|r| r.total_ns) / 1e6;
    out.note(format!(
        "tracing overhead: {:.1} ms per run ({:.1}%: traced replay {:.1} ms vs plain {:.1} ms; the replay samples twice)",
        (replay_ms - plain_ms_matched) / reps,
        100.0 * (replay_ms / plain_ms_matched - 1.0),
        replay_ms / reps,
        plain_ms_matched / reps
    ));
    out.note(format!(
        "parallel speed-up probe: {SPEEDUP_SETS} sets at 1 and 2 threads took {speedup_s:.2} s"
    ));

    let edges = sum(|r| r.edges);
    let entries = sum(|r| r.entries);
    let sets = sum(|r| r.sets);
    let precision_bound = replays.iter().filter(|r| r.binding == StopCondition::Precision).count();
    let values: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("graph.build_ms", ms("graph.build") / tracer.count("graph.build").max(1) as f64),
        ("diffusion.sample_ms", sample_ms / reps),
        ("diffusion.rr_sets", sets / reps),
        ("diffusion.edges_examined", edges / reps),
        ("diffusion.set_entries", entries / reps),
        ("diffusion.ns_per_set", sample_ms * 1e6 / sets),
        ("diffusion.ns_per_edge", sample_ms * 1e6 / edges),
        ("diffusion.live_ratio", entries / edges),
        ("diffusion.parallel_speedup_2t", speedup),
        ("rrset.index.append_ms", (extend_ms - sample_ms) / reps),
        ("rrset.index.seal_ms", seal_ms / reps),
        ("rrset.index.compactions", sum(|r| r.compactions) / reps),
        ("rrset.index.pool_mb", sum(|r| r.pool_bytes) / reps / MIB),
        ("rrset.coverage.select_ms", select_ms / reps),
        ("rrset.coverage.select_calls", tracer.count("rrset.coverage.select") as f64 / reps),
        ("rrset.coverage.entries_scanned", sum(|r| r.entries_scanned) / reps),
        ("core.certificate.verify_ms", verify_ms / reps),
        ("core.certificate.checkpoints", sum(|r| r.checkpoints) / reps),
        ("core.certificate.binding", precision_bound as f64 / reps),
    ]);
    for line in tracer.self_time_lines() {
        out.note(line);
    }
    out.metrics = per_layer_metrics(&values);
    let path =
        crate::out_dir().join("spans").join(format!("{}-seed{}.jsonl", opts.workload, opts.seed));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("warning: could not write spans to {}: {e}", path.display());
    }
    out
}
