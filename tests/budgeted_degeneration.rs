//! Degeneration property of budgeted selection: with uniform costs and
//! `budget = k`, a budgeted query **is** the top-k query — same seeds,
//! same covered count, same floats, bit for bit. The ratio heap orders
//! by `gain / 1.0`, which is order-isomorphic to the plain gain heap
//! (u32 → f64 is exact and division by one changes nothing), the
//! padding walks the same ascending ids, and the single-node fallback
//! needs a *strict* improvement it can never get — so any divergence is
//! a bug, not noise.
//!
//! Checked across four epoch layouts of the same deterministic pool,
//! skewed offset ranges, forced/excluded constraint combinations, and
//! 1 vs 4 engine threads.

use std::sync::OnceLock;

use proptest::prelude::*;
use stop_and_stare::graph::{gen, WeightModel};
use stop_and_stare::{Model, SamplingContext, SeedQuery, SeedQueryEngine};

const POOL_SETS: u64 = 2400;

/// The same deterministic 2400-set pool frozen under four epoch
/// layouts: [2400], [1200, 1200], [800 × 3], [600 × 4], each at 1 and 4
/// worker threads — sampling is indexed, so all hold identical pools
/// and only the snapshot/merge machinery differs.
fn engines() -> &'static Vec<(String, SeedQueryEngine, SeedQueryEngine)> {
    static ENGINES: OnceLock<Vec<(String, SeedQueryEngine, SeedQueryEngine)>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        let g = gen::erdos_renyi(400, 2400, 23).build(WeightModel::WeightedCascade).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(31);
        [1u64, 2, 3, 4]
            .iter()
            .map(|&epochs| {
                let build = |threads: usize| {
                    let per = POOL_SETS / epochs;
                    let e = SeedQueryEngine::sample(&ctx, per).with_threads(threads);
                    for _ in 1..epochs {
                        e.grower().extend(&ctx, per);
                    }
                    e
                };
                (format!("{epochs}-epoch layout"), build(1), build(4))
            })
            .collect()
    })
}

/// Decodes a constraint spec into (forced, excluded) node lists —
/// disjoint by construction (forced from one residue class, excluded
/// from another), sized to stay inside every generated k.
fn constraints(pick: u32) -> (Vec<u32>, Vec<u32>) {
    match pick {
        0 => (vec![], vec![]),
        1 => (vec![7], vec![]),
        2 => (vec![], vec![0, 13]),
        3 => (vec![7, 21], vec![0, 13]),
        _ => (vec![3], vec![50, 51, 52]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn uniform_costs_with_budget_k_are_bit_identical_to_top_k(
        k in 2usize..=12,
        range_pick in 0u32..4,
        constraint_pick in 0u32..5,
    ) {
        let total = POOL_SETS as u32;
        let range = match range_pick {
            0 => 0..total,
            1 => 0..total / 2,
            2 => total / 2..total,
            _ => total / 4..total / 2,
        };
        let (forced, excluded) = constraints(constraint_pick);
        let topk = SeedQuery::top_k(k)
            .over_range(range.clone())
            .with_forced(forced.clone())
            .with_excluded(excluded.clone());
        let budgeted = SeedQuery::budgeted(k as f64)
            .over_range(range)
            .with_forced(forced)
            .with_excluded(excluded);

        // Reference: the plain path on the single-epoch engine.
        let reference = engines()[0].1.answer(&topk).unwrap();
        for (layout, single, threaded) in engines() {
            for (threads, engine) in [("1 thread", single), ("4 threads", threaded)] {
                prop_assert_eq!(
                    &engine.answer(&budgeted).unwrap(),
                    &reference,
                    "budgeted != top-k on {} at {}",
                    layout,
                    threads
                );
                prop_assert_eq!(
                    &engine.answer(&topk).unwrap(),
                    &reference,
                    "top-k drifted on {} at {}",
                    layout,
                    threads
                );
            }
        }
    }
}
