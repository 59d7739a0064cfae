//! Bucket-queue greedy Max-Coverage — a reference implementation of
//! Algorithm 2, exported through [`crate::oracle`].
//!
//! An alternative to the library's lazy heap with `O(1)` decrease-key:
//! nodes live in an array of buckets indexed by their exact current
//! marginal gain, and the selection cursor only ever moves downward
//! (gains are monotone under submodularity). Asymptotically
//! `O(Σ|R_j| + n + max_gain)` — compared by the `max_coverage` ablation
//! bench against the lazy heap, which pays `O(log n)` per (re-)push but
//! touches less memory.

use sns_graph::NodeId;
use sns_rrset::narrow::node_count;
use sns_rrset::{CoverageResult, RrCollection};

/// Runs greedy max-coverage with a bucket priority queue.
///
/// Tie-breaking within a gain bucket is by insertion history rather than
/// node id, so on inputs with ties the seed *identity* may differ from
/// [`sns_rrset::max_coverage`]; the greedy guarantee and the exactness of
/// every selected gain are identical.
pub fn max_coverage_bucket(rc: &RrCollection, k: usize) -> CoverageResult {
    let n = rc.num_nodes();
    let k = k.min(n as usize);

    let mut gain: Vec<u64> = (0..n).map(|v| rc.sets_containing(v).len() as u64).collect();
    let max_gain = gain.iter().copied().max().unwrap_or(0) as usize;

    // buckets[g] holds the nodes with current gain g; pos[v] locates v
    // inside its bucket for O(1) swap-removal.
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); max_gain + 1];
    let mut pos: Vec<u32> = vec![0; n as usize];
    for v in 0..n {
        let g = gain[v as usize] as usize;
        pos[v as usize] = node_count(buckets[g].len());
        buckets[g].push(v);
    }

    let move_node =
        |buckets: &mut Vec<Vec<NodeId>>, pos: &mut Vec<u32>, v: NodeId, from: usize, to: usize| {
            let idx = pos[v as usize] as usize;
            buckets[from].swap_remove(idx);
            if idx < buckets[from].len() {
                // swap_remove relocated the former tail into idx
                let moved = buckets[from][idx];
                pos[moved as usize] = idx as u32;
            }
            pos[v as usize] = node_count(buckets[to].len());
            buckets[to].push(v);
        };

    let mut covered_mark = vec![false; rc.len()];
    let mut selected = vec![false; n as usize];
    let mut seeds = Vec::with_capacity(k);
    let mut marginal_gains = Vec::with_capacity(k);
    let mut covered = 0u64;
    let mut cursor = max_gain;

    while seeds.len() < k {
        while cursor > 0 && buckets[cursor].is_empty() {
            cursor -= 1;
        }
        if cursor == 0 {
            break; // only zero-gain nodes remain
        }
        let v = *buckets[cursor].last().expect("cursor bucket is non-empty");
        buckets[cursor].pop();
        selected[v as usize] = true;
        seeds.push(v);
        marginal_gains.push(cursor as u64);
        covered += cursor as u64;
        debug_assert_eq!(gain[v as usize] as usize, cursor);
        gain[v as usize] = 0;

        for id in rc.sets_containing(v) {
            let slot = id as usize;
            if covered_mark[slot] {
                continue;
            }
            covered_mark[slot] = true;
            for &w in rc.set(slot) {
                if selected[w as usize] || w == v {
                    continue;
                }
                let old = gain[w as usize] as usize;
                debug_assert!(old > 0);
                gain[w as usize] -= 1;
                move_node(&mut buckets, &mut pos, w, old, old - 1);
            }
        }
    }

    // pad to k with zero-gain nodes, mirroring the other implementations
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

    fn pool(sets: &[&[NodeId]], n: u32) -> RrCollection {
        let mut rc = RrCollection::new(n);
        for s in sets {
            rc.push(s, m());
        }
        rc
    }

    #[test]
    fn unique_gains_match_lazy_exactly() {
        // gains stay unique at every greedy step: 4 > 3 initially, and
        // after node 0 is taken node 1 keeps 2 > node 2's 1.
        let rc = pool(&[&[0], &[0], &[0], &[0, 1], &[1], &[1], &[2]], 4);
        let bucket = max_coverage_bucket(&rc, 3);
        let lazy = max_coverage(&rc, 3);
        assert_eq!(bucket.seeds, lazy.seeds);
        assert_eq!(bucket.covered, lazy.covered);
        assert_eq!(bucket.marginal_gains, vec![4, 2, 1]);
    }

    #[test]
    fn coverage_equals_direct_count_on_random_pools() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let n = rng.gen_range(5..40u32);
            let mut rc = RrCollection::new(n);
            for _ in 0..rng.gen_range(1..150usize) {
                let len = rng.gen_range(1..6usize);
                let mut s: Vec<NodeId> = (0..len).map(|_| rng.gen_range(0..n)).collect();
                s.sort_unstable();
                s.dedup();
                rc.push(&s, m());
            }
            let k = rng.gen_range(1..6usize);
            let r = max_coverage_bucket(&rc, k);
            assert_eq!(r.covered, rc.coverage_of(&r.seeds));
            // greedy marginal gains are exact and non-increasing
            assert!(r.marginal_gains.windows(2).all(|w| w[0] >= w[1]));
            // tie-breaking may differ from the heap, but total greedy
            // coverage of the two valid greedy runs agrees on gains:
            let lazy = max_coverage(&rc, k);
            assert_eq!(r.marginal_gains[0], lazy.marginal_gains[0], "first pick is the max");
        }
    }

    #[test]
    fn pads_and_clamps_like_the_others() {
        let rc = pool(&[&[1]], 4);
        let r = max_coverage_bucket(&rc, 3);
        assert_eq!(r.seeds.len(), 3);
        assert_eq!(r.seeds[0], 1);
        assert_eq!(r.covered, 1);
        let r = max_coverage_bucket(&rc, 10);
        assert_eq!(r.seeds.len(), 4);
    }

    #[test]
    fn empty_pool() {
        let rc = pool(&[], 3);
        let r = max_coverage_bucket(&rc, 2);
        assert_eq!(r.covered, 0);
        assert_eq!(r.seeds.len(), 2);
    }
}
