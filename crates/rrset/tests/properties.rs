//! Property-based tests for the RR pool, its two-tier inverted index and
//! greedy max-coverage.

use proptest::collection::vec;
use proptest::prelude::*;

use sns_diffusion::RrMeta;
use sns_graph::NodeId;
use sns_rrset::{max_coverage, max_coverage_range, max_coverage_with, GreedyScratch, RrCollection};

const N: u32 = 24;

fn meta() -> RrMeta {
    RrMeta { root: 0, edges_examined: 0 }
}

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
        rc.push(s, meta());
    }
    rc
}

/// Exhaustive best size-k coverage, for small instances.
fn exhaustive_best(rc: &RrCollection, k: usize) -> u64 {
    fn count(rc: &RrCollection, seeds: &[NodeId]) -> u64 {
        rc.coverage_of(seeds)
    }
    let nodes: Vec<NodeId> = (0..N).collect();
    let mut best = 0;
    // choose(24, k) is fine for k <= 3
    fn rec(
        rc: &RrCollection,
        nodes: &[NodeId],
        k: usize,
        start: usize,
        current: &mut Vec<NodeId>,
        best: &mut u64,
    ) {
        if current.len() == k {
            *best = (*best).max(count(rc, current));
            return;
        }
        for i in start..nodes.len() {
            current.push(nodes[i]);
            rec(rc, nodes, k, i + 1, current, best);
            current.pop();
        }
    }
    let mut cur = Vec::new();
    rec(rc, &nodes, k, 0, &mut cur, &mut best);
    best
}

proptest! {
    /// The greedy cover is consistent with a direct coverage query over
    /// its seeds.
    #[test]
    fn reported_coverage_is_real(sets in pool_strategy(), k in 1usize..6) {
        let rc = build(&sets);
        let r = max_coverage(&rc, k);
        prop_assert_eq!(r.covered, rc.coverage_of(&r.seeds));
        let gain_sum: u64 = r.marginal_gains.iter().sum();
        prop_assert_eq!(r.covered, gain_sum);
    }

    /// Greedy achieves at least (1 - 1/e) of the exhaustive optimum
    /// (Nemhauser–Wolsey); checked on small k where exhaustive search is
    /// feasible.
    #[test]
    fn greedy_approximation_bound(sets in pool_strategy(), k in 1usize..4) {
        let rc = build(&sets);
        let greedy = max_coverage(&rc, k).covered as f64;
        let opt = exhaustive_best(&rc, k) as f64;
        prop_assert!(greedy >= (1.0 - 1.0 / std::f64::consts::E) * opt - 1e-9,
            "greedy {} below bound for opt {}", greedy, opt);
    }

    /// Coverage is monotone: more seeds never cover fewer sets.
    #[test]
    fn coverage_monotone(sets in pool_strategy(), k in 1usize..5) {
        let rc = build(&sets);
        let small = max_coverage(&rc, k);
        let large = max_coverage(&rc, k + 1);
        prop_assert!(large.covered >= small.covered);
    }

    /// Marginal gains are non-increasing (submodularity of coverage).
    #[test]
    fn marginal_gains_non_increasing(sets in pool_strategy(), k in 1usize..8) {
        let rc = build(&sets);
        let r = max_coverage(&rc, k);
        prop_assert!(r.marginal_gains.windows(2).all(|w| w[0] >= w[1]),
            "gains not monotone: {:?}", r.marginal_gains);
    }

    /// coverage_of over a union of singleton queries upper-bounds the
    /// union query (inclusion-exclusion sanity).
    #[test]
    fn coverage_subadditive(sets in pool_strategy(), a in 0u32..N, b in 0u32..N) {
        let rc = build(&sets);
        let together = rc.coverage_of(&[a, b]);
        let separate = rc.coverage_of(&[a]) + rc.coverage_of(&[b]);
        prop_assert!(together <= separate);
        prop_assert!(together >= rc.coverage_of(&[a]));
    }

    /// `max_coverage_range` over the full id range is exactly
    /// `max_coverage` — same seeds, gains and coverage (both run on the
    /// coverage view; this pins the range plumbing, not just totals).
    #[test]
    fn full_range_equals_max_coverage(sets in pool_strategy(), k in 1usize..6) {
        let rc = build(&sets);
        let full = max_coverage_range(&rc, k, 0..rc.len() as u32);
        let plain = max_coverage(&rc, k);
        prop_assert_eq!(full, plain);
    }

    /// A range starting at a nonzero offset must behave exactly like a
    /// fresh pool holding only the sets of that range: the coverage
    /// view's slot rebasing cannot leak absolute ids anywhere.
    #[test]
    fn offset_range_equals_truncated_pool(
        sets in pool_strategy(),
        lo_frac in 0.0f64..=1.0,
        hi_frac in 0.0f64..=1.0,
        k in 1usize..6,
    ) {
        let rc = build(&sets);
        let total = rc.len() as u32;
        let lo = (f64::from(total) * lo_frac) as u32;
        let hi = (f64::from(total) * hi_frac) as u32;
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let ranged = max_coverage_range(&rc, k, lo..hi);
        let sliced = build(&sets[lo as usize..hi as usize]);
        let expect = max_coverage(&sliced, k);
        prop_assert_eq!(ranged, expect);
    }

    /// Empty ranges (anywhere in the pool) cover nothing and only pad.
    #[test]
    fn empty_range_only_pads(sets in pool_strategy(), at_frac in 0.0f64..=1.0, k in 0usize..6) {
        let rc = build(&sets);
        let at = (f64::from(rc.len() as u32) * at_frac) as u32;
        let r = max_coverage_range(&rc, k, at..at);
        prop_assert_eq!(r.covered, 0);
        prop_assert_eq!(r.seeds.len(), k.min(N as usize));
        prop_assert!(r.marginal_gains.iter().all(|&g| g == 0));
    }

    /// One `GreedyScratch` reused across arbitrary pools, ranges and k
    /// (the SSA/D-SSA usage pattern) never contaminates later runs.
    #[test]
    fn scratch_reuse_matches_fresh_runs(
        pools in proptest::collection::vec((pool_strategy(), 1usize..6), 1..6),
    ) {
        let mut scratch = GreedyScratch::new();
        for (sets, k) in pools {
            let rc = build(&sets);
            let half = rc.len() as u32 / 2;
            let reused = max_coverage_with(&rc, k, 0..half, &mut scratch);
            let fresh = max_coverage_range(&rc, k, 0..half);
            prop_assert_eq!(reused, fresh);
        }
    }

    /// Two-tier index ≡ naive rescan: across random interleavings of
    /// pushes and forced epoch seals, `sets_containing_in` must return
    /// exactly the ids a linear scan of the arena finds, ascending, for
    /// every node and query range — regardless of how the ids are split
    /// between the sealed CSR tier and the pending chains.
    #[test]
    fn index_matches_naive_rescan(
        ops in vec((vec(0u32..N, 1..6), 0u32..8), 1..60),
        lo_frac in 0.0f64..=1.0,
        hi_frac in 0.0f64..=1.0,
    ) {
        let mut rc = RrCollection::new(N);
        let mut sets: Vec<Vec<NodeId>> = Vec::new();
        for (s, seal_die) in ops {
            let mut s = s.clone();
            s.sort_unstable();
            s.dedup();
            rc.push(&s, meta());
            sets.push(s);
            // seal with probability 1/8 → interleavings cover pools that
            // are fully sealed, fully pending, and everything between
            if seal_die == 0 {
                let _ = rc.seal();
            }
        }
        let total = sets.len() as u32;
        let lo = (f64::from(total) * lo_frac) as u32;
        let hi = (f64::from(total) * hi_frac) as u32;
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        for v in 0..N {
            let expect_all: Vec<u32> = (0..total)
                .filter(|&id| sets[id as usize].contains(&v))
                .collect();
            let expect_range: Vec<u32> =
                expect_all.iter().copied().filter(|&id| id >= lo && id < hi).collect();
            prop_assert_eq!(rc.sets_containing(v).to_vec(), expect_all);
            let got = rc.sets_containing_in(v, lo..hi);
            prop_assert_eq!(got.len(), expect_range.len());
            prop_assert_eq!(got.to_vec(), expect_range);
        }
    }
}

/// `extend_parallel` must be observably bit-identical to
/// `extend_sequential` for 1, 2 and 8 worker threads — same sets, same
/// index responses, same accounting — including when growth happens in
/// several increments (the SSA/D-SSA doubling schedule).
#[test]
fn extend_parallel_bit_identical_across_thread_counts() {
    use sns_diffusion::{Model, RootDist, RrSampler};
    use sns_graph::{gen, WeightModel};

    let g = gen::erdos_renyi(250, 2000, 9).build(WeightModel::WeightedCascade).unwrap();
    for model in [Model::IndependentCascade, Model::LinearThreshold] {
        let sampler = RrSampler::with_config(&g, model, RootDist::Uniform, 13);
        let mut seq = RrCollection::new(250);
        let mut s = sampler.clone();
        // grow in doubling increments like the algorithms do
        for (from, count) in [(0u64, 300u64), (300, 300), (600, 600)] {
            seq.extend_sequential(&mut s, from, count);
        }
        for threads in [1usize, 2, 8] {
            let mut par = RrCollection::new(250);
            for (from, count) in [(0u64, 300u64), (300, 300), (600, 600)] {
                par.extend_parallel(&sampler, from, count, threads);
            }
            assert_eq!(seq.len(), par.len(), "{model}: {threads} threads");
            assert_eq!(seq.total_nodes(), par.total_nodes());
            assert_eq!(seq.total_edges_examined(), par.total_edges_examined());
            assert_eq!(seq.sealed_sets(), par.sealed_sets());
            assert_eq!(seq.pending_sets(), par.pending_sets());
            assert_eq!(seq.memory_bytes(), par.memory_bytes());
            for id in 0..seq.len() {
                assert_eq!(seq.set(id), par.set(id), "{model}: set {id} differs");
            }
            for v in 0..250u32 {
                assert_eq!(
                    seq.sets_containing(v).to_vec(),
                    par.sets_containing(v).to_vec(),
                    "{model}: node {v} index differs at {threads} threads"
                );
            }
        }
    }
}

/// Acceptance criterion of the two-tier layout: on a 100k-node
/// Barabási–Albert pool the inverted index must cost at most half of
/// what the previous `Vec<Vec<u32>>` layout would (headers + capacity
/// slack measured on an actually-built per-node-Vec index).
#[test]
fn index_memory_halves_vs_per_node_vecs() {
    use sns_diffusion::{Model, RootDist, RrSampler};
    use sns_graph::{gen, WeightModel};

    let g = gen::barabasi_albert(100_000, 4, gen::Orientation::RandomSingle, 7)
        .build(WeightModel::WeightedCascade)
        .unwrap();
    let sampler = RrSampler::with_config(&g, Model::IndependentCascade, RootDist::Uniform, 3);
    let mut rc = RrCollection::new(g.num_nodes());
    rc.extend_parallel(&sampler, 0, 15_000, 8);
    assert_eq!(rc.pending_sets(), 0, "a bulk extend past the threshold must seal");

    // Rebuild the pre-refactor index layout and measure it exactly.
    let mut node_to_sets: Vec<Vec<u32>> = vec![Vec::new(); g.num_nodes() as usize];
    for id in 0..rc.len() {
        for &v in rc.set(id) {
            node_to_sets[v as usize].push(id as u32);
        }
    }
    let old_bytes: u64 = node_to_sets
        .iter()
        .map(|v| {
            (v.capacity() * std::mem::size_of::<u32>() + std::mem::size_of::<Vec<u32>>()) as u64
        })
        .sum();
    let new_bytes = rc.index_memory_bytes();
    assert!(
        2 * new_bytes <= old_bytes,
        "two-tier index {new_bytes} B not ≥2× smaller than Vec<Vec<u32>> {old_bytes} B"
    );
}
