//! The per-layer metric set printed by traced runs, and the one layer
//! probe every workload shares (parallel sampling speed-up).

use std::collections::BTreeMap;
use std::time::Instant;

use sns_core::SamplingContext;
use sns_diffusion::Model;
use sns_graph::Graph;
use sns_rrset::RrCollection;

use crate::Metric;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// layer a workload never enters reports 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("graph.build_ms", "ms"),
    ("diffusion.sample_ms", "ms"),
    ("diffusion.rr_sets", "count"),
    ("diffusion.edges_examined", "count"),
    ("diffusion.set_entries", "count"),
    ("diffusion.ns_per_set", "ns"),
    ("diffusion.ns_per_edge", "ns"),
    ("diffusion.live_ratio", "ratio"),
    ("diffusion.parallel_speedup_2t", "ratio"),
    ("rrset.index.append_ms", "ms"),
    ("rrset.index.seal_ms", "ms"),
    ("rrset.index.compactions", "count"),
    ("rrset.index.pool_mb", "MB"),
    ("rrset.coverage.select_ms", "ms"),
    ("rrset.coverage.select_calls", "count"),
    ("rrset.coverage.entries_scanned", "count"),
    ("core.certificate.verify_ms", "ms"),
    ("core.certificate.checkpoints", "count"),
    ("core.certificate.binding", "ratio"),
    ("core.engine.answer_ms", "ms"),
    ("core.engine.batch_size", "count"),
    ("core.engine.snapshot_hit_ratio", "ratio"),
    ("core.engine.weighted_hit_ratio", "ratio"),
    ("core.engine.merges", "count"),
    ("core.engine.epochs_frozen", "count"),
    ("core.engine.evictions", "count"),
    ("core.engine.cache_mb", "MB"),
    ("core.planner.groups_per_batch", "count"),
    ("core.planner.builds_saved", "count"),
    ("core.planner.admit_us", "us"),
    ("core.planner.queue_wait_ms", "ms"),
    ("core.planner.rejected", "count"),
    ("core.planner.expired", "count"),
    ("core.grower.extend_ms", "ms"),
    ("core.grower.sets_added", "count"),
    ("core.grower.generations", "count"),
];

pub const MIB: f64 = 1024.0 * 1024.0;

/// Turns measured per-layer values into the full metric list.
pub fn per_layer_metrics(values: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    debug_assert!(values.keys().all(|k| PER_LAYER.iter().any(|(n, _)| n == k)), "{values:?}");
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// `extend_sequential` time over `extend_parallel` at 2 threads on the
/// same sample indices, plus whether both pools came out identical.
pub fn parallel_speedup(graph: &Graph, model: Model, seed: u64, count: u64) -> (f64, bool) {
    let ctx = SamplingContext::new(graph, model).with_seed(seed);
    let mut sequential = RrCollection::new(graph.num_nodes());
    let start = Instant::now();
    sequential.extend_sequential(&mut ctx.sampler(0), 0, count);
    let seq_s = start.elapsed().as_secs_f64();
    let mut parallel = RrCollection::new(graph.num_nodes());
    let start = Instant::now();
    parallel.extend_parallel(&ctx.sampler(0), 0, count, 2);
    let par_s = start.elapsed().as_secs_f64();
    let identical = sequential.len() == parallel.len()
        && sequential.total_edges_examined() == parallel.total_edges_examined()
        && (0..sequential.len()).all(|i| sequential.set(i) == parallel.set(i));
    (seq_s / par_s, identical)
}
