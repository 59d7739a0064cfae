//! Property test for the batch planner: planned/grouped execution is
//! **bit-identical** to a direct per-query selection over the same pool
//! slice (`sns_bench::oracle::direct_answer`: one
//! `CoverageView::build(pool, range).select_with(..)`, no engine cache)
//! — across epoch layouts, shuffled batch orders, and worker thread
//! counts.
//!
//! The planner's whole contract is that it only changes *who pays* for
//! snapshot resolution, never the answers. This test generates random
//! heterogeneous batches (mixed budgets, grouping-friendly skewed
//! ranges, shared-topic and solo weighted queries), shuffles their order
//! with a seeded RNG, and asserts exact equality of the full answer
//! structs on four engines: the same 2400-set pool frozen in 1, 2, 3 and
//! 4 epochs (the epoch-merge machinery must be invisible), each checked
//! at 1 and 4 worker threads.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sns_bench::oracle::direct_answer;
use stop_and_stare::graph::{gen, WeightModel};
use stop_and_stare::rrset::RrCollection;
use stop_and_stare::{Model, NodeCosts, SamplingContext, SeedAnswer, SeedQuery, SeedQueryEngine};

const POOL_SETS: u64 = 2400;

/// The same deterministic 2400-set pool frozen under four epoch
/// layouts: [2400], [1200, 1200], [800 × 3], [600 × 4]. Sampling is
/// indexed, so all four engines hold bit-identical pools — only the
/// epoch boundaries (and with them the snapshot-merge paths) differ.
fn engines() -> &'static Vec<(String, SeedQueryEngine, SeedQueryEngine)> {
    static ENGINES: OnceLock<Vec<(String, SeedQueryEngine, SeedQueryEngine)>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        let g = gen::erdos_renyi(400, 2400, 19).build(WeightModel::WeightedCascade).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(29);
        [1u64, 2, 3, 4]
            .iter()
            .map(|&epochs| {
                let build = |threads: usize| {
                    let per = POOL_SETS / epochs;
                    let e = SeedQueryEngine::sample(&ctx, per).with_threads(threads);
                    for _ in 1..epochs {
                        e.grower().extend(&ctx, per);
                    }
                    assert_eq!(e.pool().len() as u64, POOL_SETS);
                    assert_eq!(e.pool().epoch_boundaries().len() as u64, epochs);
                    e
                };
                (format!("{epochs}-epoch layout"), build(1), build(4))
            })
            .collect()
    })
}

/// Shared topic weight vectors (two topics over 400 nodes). Shared
/// `Arc`s with stable topic ids are what lets the planner form
/// [`GroupKey::Topic`](stop_and_stare::GroupKey::Topic) groups.
fn topic_weights(topic: usize) -> Arc<[f64]> {
    static TOPICS: OnceLock<Vec<Arc<[f64]>>> = OnceLock::new();
    TOPICS.get_or_init(|| {
        (0..2)
            .map(|t| {
                (0..400).map(|v| if v % (3 + t) == 0 { 1.0 + t as f64 } else { 0.0 }).collect()
            })
            .collect()
    })[topic]
        .clone()
}

/// One shared per-node cost table (400 nodes) for the budgeted flavors.
/// Like topic weights, the shared `Arc` is the sharing discipline real
/// cost-aware callers would use; budgeted queries still group by range
/// alone (snapshots are cost-agnostic).
fn shared_costs() -> NodeCosts {
    static COSTS: OnceLock<Arc<[f64]>> = OnceLock::new();
    NodeCosts::per_node(
        COSTS.get_or_init(|| (0..400u32).map(|v| 0.5 + f64::from(v % 4) * 0.25).collect()).clone(),
    )
}

/// Decodes one generated query spec: budget, one of four skewed ranges,
/// and a flavor — plain, one of two shared topics, a solo weighted
/// query (no topic id, so the planner must isolate it), or a budgeted
/// query (uniform-cost degeneration or shared per-node costs).
fn decode(k: usize, range_pick: u32, flavor: u32) -> SeedQuery {
    let total = POOL_SETS as u32;
    let range = match range_pick {
        0 => 0..total,
        1 => 0..total / 2,
        2 => total / 2..total,
        _ => 0..total / 4,
    };
    let q = SeedQuery::top_k(k).over_range(range.clone());
    match flavor {
        0..=4 => q,
        5..=6 => q.with_root_weights(topic_weights(0)).with_topic(100),
        7 => q.with_root_weights(topic_weights(1)).with_topic(101),
        8 => q.with_root_weights(topic_weights(0)),
        // budgeted flavors share the plain snapshot groups
        9..=10 => SeedQuery::budgeted(k as f64).over_range(range),
        _ => SeedQuery::budgeted(k as f64 * 0.75).with_costs(shared_costs()).over_range(range),
    }
}

/// The reference: each query answered by one fresh selection over its
/// slice of `pool`.
fn direct(pool: &RrCollection, batch: &[SeedQuery]) -> Vec<SeedAnswer> {
    batch.iter().map(|q| direct_answer(pool, f64::from(pool.num_nodes()), q)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn planned_execution_is_bit_identical_across_layouts_orders_and_threads(
        specs in prop_vec((1usize..=12, 0u32..4, 0u32..12), 1..24),
        shuffle_seed in 0u64..1_000_000,
    ) {
        let mut batch: Vec<SeedQuery> =
            specs.iter().map(|&(k, r, f)| decode(k, r, f)).collect();
        batch.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));

        // Reference: direct selection on the (layout-independent) pool.
        let reference = direct(&engines()[0].1.pool(), &batch);
        for (layout, single, threaded) in engines() {
            for (threads, engine) in [("1 thread", single), ("4 threads", threaded)] {
                prop_assert_eq!(
                    &engine.answer_planned(&batch).unwrap(),
                    &reference,
                    "planned != direct selection on {} at {}",
                    layout,
                    threads
                );
                prop_assert_eq!(
                    &engine.answer_batch(&batch).unwrap(),
                    &reference,
                    "answer_batch drifted on {} at {}",
                    layout,
                    threads
                );
            }
        }
    }
}
