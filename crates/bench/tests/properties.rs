//! Property tests of the library's greedy kernel against the reference
//! greedies in `sns_bench::oracle`: the textbook rescan on random pools,
//! and the pre-view lazy heap on a 100k-node pool.

use proptest::collection::vec;
use proptest::prelude::*;

use sns_bench::oracle::{max_coverage_naive, max_coverage_pre_refactor};
use sns_diffusion::RrMeta;
use sns_graph::NodeId;
use sns_rrset::{max_coverage, max_coverage_range, max_coverage_with, GreedyScratch, RrCollection};

const N: u32 = 24;

/// Strategy: a pool of up to 80 RR sets, each 1..6 distinct nodes.
fn pool_strategy() -> impl Strategy<Value = Vec<Vec<NodeId>>> {
    vec(vec(0u32..N, 1..6), 0..80).prop_map(|sets| {
        sets.into_iter()
            .map(|mut s| {
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect()
    })
}

fn build(sets: &[Vec<NodeId>]) -> RrCollection {
    let mut rc = RrCollection::new(N);
    for s in sets {
        rc.push(s, RrMeta { root: 0, edges_examined: 0 });
    }
    rc
}

proptest! {
    /// Lazy greedy and naive greedy agree exactly (same deterministic
    /// tie-breaking).
    #[test]
    fn lazy_equals_naive(sets in pool_strategy(), k in 1usize..6) {
        let rc = build(&sets);
        let a = max_coverage(&rc, k);
        let b = max_coverage_naive(&rc, k);
        prop_assert_eq!(a.covered, b.covered);
        prop_assert_eq!(a.seeds, b.seeds);
        prop_assert_eq!(a.marginal_gains, b.marginal_gains);
    }
}

/// Acceptance criterion of the coverage-view refactor: on a 100k-node
/// Barabási–Albert pool, `max_coverage` (and the ranged/scratch entry
/// points SSA, D-SSA, IMM and TIM use) must return **bit-identical**
/// seeds, marginal gains and coverage to the pre-refactor lazy-heap
/// implementation — including on D-SSA-style half ranges and on a pool
/// whose index still has a pending chain tail.
#[test]
fn greedy_bit_identical_to_pre_refactor_on_100k_ba_pool() {
    use sns_diffusion::{Model, RootDist, RrSampler};
    use sns_graph::{gen, WeightModel};

    let g = gen::barabasi_albert(100_000, 4, gen::Orientation::RandomSingle, 7)
        .build(WeightModel::WeightedCascade)
        .unwrap();
    let sampler = RrSampler::with_config(&g, Model::IndependentCascade, RootDist::Uniform, 3);
    let mut rc = RrCollection::new(g.num_nodes());
    rc.extend_parallel(&sampler, 0, 15_000, 8);
    // Leave a pending tail so the reference path also exercises the chain
    // tier the view replaces.
    {
        let mut s = sampler.clone();
        let mut rr = Vec::new();
        for i in 0..500u64 {
            let meta = s.sample(15_000 + i, &mut rr);
            rc.push(&rr, meta);
        }
    }
    assert!(rc.pending_sets() > 0, "pool must end with a pending chain tail");

    let total = rc.len() as u32;
    let mut scratch = GreedyScratch::new();
    for (k, range) in [
        (1, 0..total),
        (50, 0..total),
        (50, 0..total / 2),     // D-SSA find half
        (20, total / 3..total), // nonzero offset
    ] {
        let reference = max_coverage_pre_refactor(&rc, k, range.clone());
        let plain = max_coverage_range(&rc, k, range.clone());
        let reused = max_coverage_with(&rc, k, range.clone(), &mut scratch);
        assert_eq!(plain, reference, "k={k} range={range:?}");
        assert_eq!(reused, reference, "k={k} range={range:?} (scratch reuse)");
        if range == (0..total) {
            assert_eq!(max_coverage(&rc, k), reference, "k={k} full-pool entry point");
        }
    }
}
