//! Reference greedies for Algorithm 2, exported through
//! [`crate::oracle`]: the textbook rescan and the lazy heap exactly as it
//! stood before the library's coverage-view refactor. Both walk
//! [`RrCollection`] directly, so they share no code with the kernel
//! they check.

use std::ops::Range;

use sns_graph::NodeId;
use sns_rrset::{CoverageResult, RrCollection};

/// Textbook greedy: rescans every node each round. Correctness oracle for
/// [`sns_rrset::max_coverage`] and the ablation baseline.
pub fn max_coverage_naive(rc: &RrCollection, k: usize) -> CoverageResult {
    let n = rc.num_nodes();
    let k = k.min(n as usize);
    let mut gain: Vec<u64> = (0..n).map(|v| rc.sets_containing(v).len() as u64).collect();
    let mut covered_mark = vec![false; rc.len()];
    let mut selected = vec![false; n as usize];
    let mut seeds = Vec::with_capacity(k);
    let mut marginal_gains = Vec::with_capacity(k);
    let mut covered = 0u64;

    for _ in 0..k {
        let mut best: Option<(u64, NodeId)> = None;
        for v in 0..n {
            if selected[v as usize] || gain[v as usize] == 0 {
                continue;
            }
            // Tie-break on the larger node id to mirror the heap's
            // deterministic order: the (gain, id) max-heap pops the
            // largest id first among equal gains.
            let candidate = (gain[v as usize], v);
            if best.is_none_or(|b| candidate > b) {
                best = Some(candidate);
            }
        }
        let Some((g, v)) = best else { break };
        selected[v as usize] = true;
        seeds.push(v);
        marginal_gains.push(g);
        covered += g;
        for id in rc.sets_containing(v) {
            let slot = id as usize;
            if covered_mark[slot] {
                continue;
            }
            covered_mark[slot] = true;
            for &w in rc.set(slot) {
                gain[w as usize] -= 1;
            }
        }
    }

    let mut next = 0u32;
    while seeds.len() < k && next < n {
        if !selected[next as usize] {
            selected[next as usize] = true;
            seeds.push(next);
            marginal_gains.push(0);
        }
        next += 1;
    }

    CoverageResult { seeds, covered, marginal_gains }
}

/// The lazy-heap greedy exactly as it stood **before** the
/// `CoverageView` refactor, kept verbatim (do not optimize) as
/// the bit-identity reference and ablation baseline: gain initialization
/// issues one two-tier inverted-index query per node, and every
/// decremental update walks `rc.set(id)` through the pool's `u64` arena
/// offsets. Shared by the `greedy_coverage` bench and the acceptance
/// property test so both compare against the same baseline.
pub fn max_coverage_pre_refactor(rc: &RrCollection, k: usize, range: Range<u32>) -> CoverageResult {
    use std::collections::BinaryHeap;

    let n = rc.num_nodes();
    let k = k.min(n as usize);
    let range_len = (range.end - range.start) as usize;

    let mut gain: Vec<u64> =
        (0..n).map(|v| rc.sets_containing_in(v, range.clone()).len() as u64).collect();
    let mut heap: BinaryHeap<(u64, NodeId)> =
        (0..n).filter(|&v| gain[v as usize] > 0).map(|v| (gain[v as usize], v)).collect();

    let mut covered_mark = vec![false; range_len];
    let mut selected = vec![false; n as usize];
    let mut seeds = Vec::with_capacity(k);
    let mut marginal_gains = Vec::with_capacity(k);
    let mut covered = 0u64;

    while seeds.len() < k {
        let Some((g, v)) = heap.pop() else { break };
        if selected[v as usize] {
            continue;
        }
        let current = gain[v as usize];
        if g > current {
            if current > 0 {
                heap.push((current, v));
            }
            continue;
        }
        if current == 0 {
            break;
        }
        selected[v as usize] = true;
        seeds.push(v);
        marginal_gains.push(current);
        covered += current;
        for id in rc.sets_containing_in(v, range.clone()) {
            let slot = (id - range.start) as usize;
            if covered_mark[slot] {
                continue;
            }
            covered_mark[slot] = true;
            for &w in rc.set(id as usize) {
                gain[w as usize] -= 1;
            }
        }
    }

    let mut next = 0u32;
    while seeds.len() < k && next < n {
        if !selected[next as usize] {
            selected[next as usize] = true;
            seeds.push(next);
            marginal_gains.push(0);
        }
        next += 1;
    }

    CoverageResult { seeds, covered, marginal_gains }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_diffusion::RrMeta;
    use sns_rrset::max_coverage;

    fn m() -> RrMeta {
        RrMeta { root: 0, edges_examined: 0 }
    }

    #[test]
    fn lazy_matches_naive_on_random_pools() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        for trial in 0..30 {
            let n = rng.gen_range(5..40u32);
            let sets = rng.gen_range(1..120usize);
            let mut rc = RrCollection::new(n);
            for _ in 0..sets {
                let len = rng.gen_range(1..6usize);
                let mut s: Vec<NodeId> = (0..len).map(|_| rng.gen_range(0..n)).collect();
                s.sort_unstable();
                s.dedup();
                rc.push(&s, m());
            }
            let k = rng.gen_range(1..6usize);
            let lazy = max_coverage(&rc, k);
            let naive = max_coverage_naive(&rc, k);
            // Greedy choices can differ on ties, but total coverage of the
            // greedy solution is unique given deterministic tie-breaks; we
            // assert both use (gain, id) max ordering so seeds match too.
            assert_eq!(lazy.covered, naive.covered, "trial {trial}");
            assert_eq!(lazy.seeds, naive.seeds, "trial {trial}");
        }
    }
}
