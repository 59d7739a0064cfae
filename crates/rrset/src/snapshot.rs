//! Frozen-pool gain snapshots — the pieces that turn the per-call
//! [`CoverageView`] into a query-serving subsystem.
//!
//! # Gain snapshots
//!
//! A fresh selection ([`Start::Fresh`](crate::Start::Fresh)) recomputes
//! the initial gain table (one streaming pass over the slice's members,
//! `O(entries)`) and the nonzero heap seed (`O(n)`) on every call —
//! unavoidable for RIS algorithms, whose pool grows between selections,
//! but pure waste for a *frozen* pool answering query after query.
//! [`GainSnapshot::build`] runs both passes **once** and freezes the
//! results; a selection started from it
//! ([`Start::Frozen`](crate::Start::Frozen)) begins with two memcpys
//! (gain table + heap seed) instead. Selection is bit-identical to the
//! fresh path: the frozen arrays are exactly what the per-call
//! initialization would have produced, and everything downstream is the
//! same kernel.
//!
//! A snapshot is immutable and detached from the pool borrow (it owns
//! plain arrays — including the slice's rebased CSR offsets, so
//! [`GainSnapshot::view`] rebuilds a [`CoverageView`] in `O(1)`), and a
//! server can hold `Arc<GainSnapshot>`s and fan queries out across
//! threads — `sns-core`'s `SeedQueryEngine` does.
//!
//! # Epoch-incremental maintenance
//!
//! Pool ids are append-only: a frozen slice's contents never change, so
//! growth never *invalidates* a snapshot — it only leaves new ids
//! uncovered. The incremental scheme freezes one snapshot per sealed
//! pool epoch (`RrCollection::epoch_boundaries`) and answers a query
//! spanning several epochs from their [`GainSnapshot::merge`]: gain
//! histograms sum, the heap seed is rebuilt from the merged histogram,
//! offsets concatenate. The merge is bit-identical to a from-scratch
//! snapshot of the union range, so a pool extension costs one new epoch
//! freeze instead of a wholesale cache rebuild. See `docs/ARCHITECTURE.md`
//! (repository root) for the lifecycle diagram.
//!
//! # Weighted universes
//!
//! [`Objective::Weighted`](crate::Objective::Weighted) answers targeted
//! (TVM-style) queries against an *unweighted* (uniform-root) pool:
//! per-query node weights `b(v)` turn into per-set weights
//! `w_j = b(root of set j)` (sets store their root first), and greedy
//! maximizes the covered weight mass `Σ_{j covered} w_j` instead of the
//! covered count. Since roots are uniform, `E[b(root)·1{S covers R}] =
//! I_T(S)/n`, so `n·(covered weight)/|R|` estimates the targeted
//! influence — one frozen pool serves every target group without
//! resampling. (This is a self-normalized reweighting of Lemma 1, not the
//! paper's WRIS sampler: precision concentrates where `b` does, so sparse
//! target groups warrant proportionally larger pools — see
//! `docs/DERIVATIONS.md` §5.) One-off weight vectors pay a per-query gain
//! pass; *recurring* ones (a topic queried again and again) freeze it
//! once in a `GainSnapshot<f64>` ([`GainSnapshot::weighted`]) and start
//! from a memcpy like the count path.

use std::ops::Range;

use crate::greedy::{heap_seed, CountGains, Entry, Gain, Gains, WeightedGains};
use crate::index::CsrOffsets;
use crate::{CoverageView, RrCollection};

/// The frozen initial state of a selection over one pool slice: exactly
/// what a fresh selection's initialization pass computes, sealed once so
/// repeated queries start from a memcpy (see the module docs).
///
/// `GainSnapshot` (`G = u32`) freezes covered-set counts and serves
/// every count selection over the slice — top-k and budgeted alike, since
/// costs are per-query data. `GainSnapshot<f64>` freezes the weighted
/// gains under one fixed weight vector, so it is only reusable while
/// *both* the slice and the weights are fixed — the repeated-topic (TVM)
/// serving case; `sns-core`'s `SeedQueryEngine` keys these by
/// `(range, topic id)` and verifies the weight vector by `Arc` identity.
///
/// A snapshot also freezes the slice's rebased forward-CSR offsets, so
/// [`GainSnapshot::view`] reconstructs a [`CoverageView`] in `O(1)` — a
/// steady-state cache hit does zero `O(range_len)` rebase work — and
/// count snapshots of *adjacent* slices (one per sealed pool epoch) can
/// be [`GainSnapshot::merge`]d without touching the pool arena.
#[derive(Debug, Clone, PartialEq)]
pub struct GainSnapshot<G = u32> {
    range: Range<u32>,
    /// `gains[v]` = the in-range sets containing node `v` (counted, or
    /// summed by root weight).
    gains: Vec<G>,
    /// `(gain, v)` for every node with positive gain, ascending `v` — the
    /// exact buffer a top-k selection heapifies.
    heap_seed: Vec<Entry<G>>,
    /// The slice's rebased forward-CSR offsets, exactly as
    /// [`CoverageView::build`] computes them.
    offsets: CsrOffsets,
}

impl GainSnapshot {
    /// Runs the histogram and heap-seed passes for `view`'s slice and
    /// freezes the result (gains, heap seed, and the view's rebased
    /// offsets).
    pub fn build(view: &CoverageView<'_>) -> Self {
        Self::freeze(view, &CountGains)
    }

    /// Merges snapshots of adjacent pool slices into the snapshot of
    /// their union: gain histograms sum element-wise, the heap seed is
    /// rebuilt from the merged histogram, and the offset arrays are
    /// stitched — all without reading the pool. `O(n·parts + range_len)`.
    /// The result is exactly what [`GainSnapshot::build`] over the union
    /// range would produce, so everything downstream stays bit-identical.
    ///
    /// This is how pool growth stays cheap for a serving cache: freeze
    /// one snapshot per sealed epoch, and answer a query spanning many
    /// epochs from their merge — extending the pool then freezes only the
    /// new epoch instead of invalidating every cached range.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, the parts do not tile a contiguous id
    /// range in order, or their node universes disagree.
    pub fn merge(parts: &[&GainSnapshot]) -> Self {
        let first = parts.first().expect("cannot merge zero snapshots");
        let n = first.gains.len();
        let mut pos = first.range.start;
        for part in parts {
            assert_eq!(part.range.start, pos, "snapshots must tile a contiguous id range");
            assert_eq!(part.gains.len(), n, "snapshots span different node universes");
            pos = part.range.end;
        }
        let range = first.range.start..pos;
        let mut gains = vec![0u32; n];
        for part in parts {
            for (g, &p) in gains.iter_mut().zip(&part.gains) {
                *g += p;
            }
        }
        let mut heap = Vec::new();
        heap_seed(&gains, crate::narrow::node_count(n), &mut heap);
        let offsets = CsrOffsets::concat(&parts.iter().map(|p| &p.offsets).collect::<Vec<_>>());
        GainSnapshot { range, gains, heap_seed: heap, offsets }
    }
}

impl GainSnapshot<f64> {
    /// Runs the weighted gain and heap-seed passes for `view`'s slice
    /// under `node_weights` and freezes the result. Floating-point sums
    /// run in the same order as a fresh weighted selection's, so a
    /// selection started from this snapshot is bit-identical to one
    /// started fresh.
    ///
    /// # Panics
    ///
    /// Panics if `node_weights` is not one finite nonnegative weight per
    /// node.
    pub fn weighted(view: &CoverageView<'_>, node_weights: &[f64]) -> Self {
        Self::freeze(view, &WeightedGains::new(node_weights, view.num_nodes()))
    }
}

impl<G> GainSnapshot<G> {
    fn freeze<O: Gains<G = G>>(view: &CoverageView<'_>, objective: &O) -> Self
    where
        G: Gain,
    {
        let mut gains = Vec::new();
        objective.init(view, &mut gains);
        let mut heap = Vec::new();
        heap_seed(&gains, view.num_nodes(), &mut heap);
        GainSnapshot {
            range: view.range(),
            gains,
            heap_seed: heap,
            offsets: view.offsets().clone(),
        }
    }

    /// Reconstructs a [`CoverageView`] for this snapshot's slice in
    /// `O(1)`, lending the frozen offsets instead of rebasing — pair with
    /// [`Start::Frozen`](crate::Start::Frozen) (or
    /// [`Start::FrozenWeighted`](crate::Start::FrozenWeighted)) for the
    /// zero-rebase query path.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's range is out of bounds for `rc`. The
    /// caller must pass the pool the snapshot was built from (ranges are
    /// append-only, so growth never invalidates this).
    pub fn view<'a>(&'a self, rc: &'a RrCollection) -> CoverageView<'a> {
        CoverageView::with_frozen_offsets(rc, self.range.clone(), &self.offsets)
    }

    /// The pool id range this snapshot froze.
    pub fn range(&self) -> Range<u32> {
        self.range.clone()
    }

    /// The frozen per-node gains (length = the pool's node count).
    pub fn gains(&self) -> &[G] {
        &self.gains
    }

    /// The frozen nonzero heap seed.
    pub(crate) fn heap_seed(&self) -> &[Entry<G>] {
        &self.heap_seed
    }

    /// Bytes owned by the frozen arrays (counting capacities).
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.gains.capacity() * size_of::<G>() + self.heap_seed.capacity() * size_of::<Entry<G>>())
            as u64
            + self.offsets.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        max_coverage_range, max_coverage_with, GreedyScratch, Objective, RrCollection, Selection,
        SelectionResult, Start,
    };
    use sns_diffusion::RrMeta;
    use sns_graph::NodeId;

    fn weighted(w: &[f64], k: usize) -> Selection<'_> {
        Selection { objective: Objective::Weighted(w), ..Selection::top_k(k) }
    }

    fn constrained<'a>(k: usize, forced: &'a [NodeId], excluded: &'a [NodeId]) -> Selection<'a> {
        Selection { forced, excluded, ..Selection::top_k(k) }
    }

    /// A count selection's result in [`crate::CoverageResult`] units.
    fn counts(r: SelectionResult) -> crate::CoverageResult {
        crate::CoverageResult {
            seeds: r.seeds,
            covered: r.covered as u64,
            marginal_gains: r.marginal_gains.iter().map(|&g| g as u64).collect(),
        }
    }

    fn m(root: NodeId) -> RrMeta {
        RrMeta { root, edges_examined: 0 }
    }

    /// Pool whose sets put their root first, as the samplers do.
    fn pool(sets: &[&[NodeId]], n: u32) -> RrCollection {
        let mut rc = RrCollection::new(n);
        for s in sets {
            rc.push(s, m(s.first().copied().unwrap_or(0)));
        }
        rc
    }

    fn random_pool(seed: u64, n: u32, sets: usize) -> RrCollection {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rc = RrCollection::new(n);
        for _ in 0..sets {
            let len = rng.gen_range(1..6usize);
            let root = rng.gen_range(0..n);
            let mut s = vec![root];
            for _ in 1..len {
                let v = rng.gen_range(0..n);
                if !s.contains(&v) {
                    s.push(v);
                }
            }
            rc.push(&s, m(root));
        }
        rc
    }

    #[test]
    fn snapshot_select_is_bit_identical_to_histogram_select() {
        let mut scratch = GreedyScratch::new();
        for seed in 0..10u64 {
            let rc = random_pool(seed, 30, 150);
            let total = rc.len() as u32;
            for range in [0..total, 0..total / 2, total / 4..total] {
                let view = CoverageView::build(&rc, range.clone());
                let snap = GainSnapshot::build(&view);
                assert_eq!(snap.range(), range);
                for k in [1usize, 3, 7] {
                    let frozen = counts(view.select_with(
                        &Selection::top_k(k),
                        Start::Frozen(&snap),
                        &mut scratch,
                    ));
                    let fresh = view.select(k, &mut scratch);
                    assert_eq!(frozen, fresh, "seed {seed} range {range:?} k {k}");
                }
            }
        }
    }

    #[test]
    fn snapshot_survives_repeated_queries() {
        let rc = random_pool(3, 20, 100);
        let view = CoverageView::build(&rc, 0..100);
        let snap = GainSnapshot::build(&view);
        let mut scratch = GreedyScratch::new();
        let top5 = Selection::top_k(5);
        let first = view.select_with(&top5, Start::Frozen(&snap), &mut scratch);
        for _ in 0..5 {
            assert_eq!(view.select_with(&top5, Start::Frozen(&snap), &mut scratch), first);
        }
        assert_eq!(counts(first), max_coverage_range(&rc, 5, 0..100));
        assert!(snap.memory_bytes() > 0);
    }

    /// Acceptance property: seeds selected through epoch-merged
    /// snapshots are bit-identical to direct `max_coverage` on the same
    /// pool state, across several epoch layouts (including unaligned
    /// sub-ranges), via a materialized [`GainSnapshot::merge`].
    #[test]
    fn epoch_merged_selection_is_bit_identical_across_layouts() {
        let mut scratch = GreedyScratch::new();
        for seed in 0..6u64 {
            let rc = random_pool(seed, 30, 160);
            // ≥3 epoch layouts: balanced, doubling-schedule-like, many tiny
            let layouts: [&[u32]; 4] =
                [&[40, 100, 160], &[20, 40, 80, 160], &[10, 20, 30, 60, 100, 160], &[160]];
            for (start, bounds) in layouts.iter().enumerate().map(|(i, b)| ((i as u32) * 7, *b)) {
                let mut parts = Vec::new();
                let mut lo = start;
                for &hi in bounds {
                    if hi <= lo {
                        continue;
                    }
                    parts.push(GainSnapshot::build(&CoverageView::build(&rc, lo..hi)));
                    lo = hi;
                }
                let range = start..lo;
                let refs: Vec<&GainSnapshot> = parts.iter().collect();
                let merged = GainSnapshot::merge(&refs);
                assert_eq!(merged.range(), range);
                // the merge must reproduce the from-scratch snapshot
                // exactly — gains, heap seed, and offsets
                let direct = GainSnapshot::build(&CoverageView::build(&rc, range.clone()));
                assert_eq!(merged, direct, "seed {seed} range {range:?}");
                let view = merged.view(&rc);
                for k in [1usize, 4, 9] {
                    let want = max_coverage_range(&rc, k, range.clone());
                    let via_merged = view.select_with(
                        &Selection::top_k(k),
                        Start::Frozen(&merged),
                        &mut scratch,
                    );
                    assert_eq!(counts(via_merged), want, "materialized merge, seed {seed} k {k}");
                }
            }
        }
    }

    #[test]
    fn frozen_offsets_view_equals_rebuilt_view() {
        let rc = random_pool(11, 25, 120);
        let built = CoverageView::build(&rc, 15..95);
        let snap = GainSnapshot::build(&built);
        let frozen = snap.view(&rc);
        assert_eq!(frozen.range(), built.range());
        assert_eq!(frozen.len(), built.len());
        for slot in 0..built.len() {
            assert_eq!(frozen.members(slot), built.members(slot));
        }
        let mut scratch = GreedyScratch::new();
        assert_eq!(frozen.select(6, &mut scratch), built.select(6, &mut scratch));
    }

    #[test]
    #[should_panic(expected = "tile a contiguous id range")]
    fn merge_rejects_gapped_parts() {
        let rc = random_pool(2, 10, 60);
        let a = GainSnapshot::build(&CoverageView::build(&rc, 0..20));
        let b = GainSnapshot::build(&CoverageView::build(&rc, 30..60));
        GainSnapshot::merge(&[&a, &b]);
    }

    #[test]
    fn weighted_snapshot_matches_fresh_weighted_selection() {
        use rand::{Rng, SeedableRng};
        let mut scratch = GreedyScratch::new();
        for seed in 0..5u64 {
            let rc = random_pool(200 + seed, 20, 90);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let w: Vec<f64> = (0..20).map(|_| f64::from(rng.gen_range(0..5u32)) / 2.0).collect();
            for range in [0..90u32, 10..70] {
                let view = CoverageView::build(&rc, range.clone());
                let snap = GainSnapshot::weighted(&view, &w);
                assert_eq!(snap.range(), range);
                assert!(snap.memory_bytes() > 0);
                let frozen_view = snap.view(&rc);
                for k in [1usize, 4] {
                    let spec = weighted(&w, k);
                    let fresh = view.select_with(&spec, Start::Fresh, &mut scratch);
                    let frozen =
                        frozen_view.select_with(&spec, Start::FrozenWeighted(&snap), &mut scratch);
                    assert_eq!(frozen, fresh, "seed {seed} range {range:?} k {k}");
                    // repeated frozen queries stay stable
                    let again =
                        frozen_view.select_with(&spec, Start::FrozenWeighted(&snap), &mut scratch);
                    assert_eq!(again, fresh);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "different pool slice")]
    fn weighted_snapshot_range_mismatch_panics() {
        let rc = random_pool(1, 10, 40);
        let w = vec![1.0f64; 10];
        let snap = GainSnapshot::weighted(&CoverageView::build(&rc, 0..20), &w);
        let view = CoverageView::build(&rc, 0..40);
        view.select_with(&weighted(&w, 2), Start::FrozenWeighted(&snap), &mut GreedyScratch::new());
    }

    #[test]
    #[should_panic(expected = "different pool slice")]
    fn range_mismatch_panics() {
        let rc = random_pool(1, 10, 40);
        let snap = GainSnapshot::build(&CoverageView::build(&rc, 0..20));
        let view = CoverageView::build(&rc, 0..40);
        view.select_with(&Selection::top_k(2), Start::Frozen(&snap), &mut GreedyScratch::new());
    }

    #[test]
    fn excluded_seeds_are_never_selected_nor_padded() {
        // Node 0 dominates; excluding it promotes node 1 (sets 0 and 3).
        let rc = pool(&[&[0, 1], &[0, 2], &[0, 3], &[4, 1]], 5);
        let view = CoverageView::build(&rc, 0..4);
        let mut scratch = GreedyScratch::new();
        let cons = constrained(5, &[], &[0]);
        let r = view.select_with(&cons, Start::Fresh, &mut scratch);
        assert!(!r.seeds.contains(&0), "excluded node selected: {:?}", r.seeds);
        assert_eq!(r.seeds.len(), 4, "padding must skip the excluded node");
        assert_eq!(r.seeds[0], 1, "with 0 excluded, node 1 covers most");
        assert_eq!(r.marginal_gains[0], 2.0);

        // Same answer through the frozen path.
        let snap = GainSnapshot::build(&view);
        let frozen = view.select_with(&cons, Start::Frozen(&snap), &mut scratch);
        assert_eq!(frozen, r);
    }

    #[test]
    fn forced_seeds_lead_and_their_coverage_is_accounted() {
        let rc = pool(&[&[0, 1], &[0, 2], &[3], &[3, 1]], 4);
        let view = CoverageView::build(&rc, 0..4);
        let mut scratch = GreedyScratch::new();
        let r = view.select_with(&constrained(2, &[1], &[]), Start::Fresh, &mut scratch);
        // forced first: node 1 covers sets {0, 3} (gain 2); best
        // remainder is node 0 with residual gain 1 (set 1).
        assert_eq!(r.seeds[0], 1);
        assert_eq!(r.marginal_gains[0], 2.0);
        assert_eq!(r.covered, 3.0);
        // duplicate forced seeds are selected once
        let r2 = view.select_with(&constrained(2, &[1, 1], &[]), Start::Fresh, &mut scratch);
        assert_eq!(r2.seeds, r.seeds);
    }

    #[test]
    fn empty_constraints_equal_plain_select() {
        let rc = random_pool(7, 25, 120);
        let view = CoverageView::build(&rc, 0..120);
        let mut scratch = GreedyScratch::new();
        let plain = view.select(6, &mut scratch);
        let none = view.select_with(&constrained(6, &[], &[]), Start::Fresh, &mut scratch);
        assert_eq!(plain, counts(none));
        assert_eq!(plain, max_coverage_with(&rc, 6, 0..120, &mut scratch));
    }

    /// Textbook rescan oracle for the weighted greedy.
    fn weighted_oracle(
        rc: &RrCollection,
        k: usize,
        w: &[f64],
        range: std::ops::Range<u32>,
    ) -> (Vec<NodeId>, f64) {
        let n = rc.num_nodes();
        let set_w: Vec<f64> = (range.start..range.end)
            .map(|id| rc.set(id as usize).first().map_or(0.0, |&r| w[r as usize]))
            .collect();
        let mut covered = vec![false; set_w.len()];
        let mut selected = vec![false; n as usize];
        let mut seeds = Vec::new();
        let mut total = 0.0;
        for _ in 0..k.min(n as usize) {
            let mut best: Option<(f64, NodeId)> = None;
            for v in 0..n {
                if selected[v as usize] {
                    continue;
                }
                let g: f64 = rc
                    .sets_containing_in(v, range.clone())
                    .map(|id| {
                        let slot = (id - range.start) as usize;
                        if covered[slot] {
                            0.0
                        } else {
                            set_w[slot]
                        }
                    })
                    .sum();
                if g <= 0.0 {
                    continue;
                }
                // same (gain, id) max tie-break as the heap
                if best.is_none_or(|(bg, bv)| (g, v) > (bg, bv)) {
                    best = Some((g, v));
                }
            }
            let Some((g, v)) = best else { break };
            selected[v as usize] = true;
            seeds.push(v);
            total += g;
            for id in rc.sets_containing_in(v, range.clone()) {
                covered[(id - range.start) as usize] = true;
            }
        }
        let mut next = 0u32;
        while seeds.len() < k.min(n as usize) && next < n {
            if !selected[next as usize] {
                selected[next as usize] = true;
                seeds.push(next);
            }
            next += 1;
        }
        (seeds, total)
    }

    #[test]
    fn weighted_select_matches_rescan_oracle() {
        use rand::{Rng, SeedableRng};
        let mut scratch = GreedyScratch::new();
        for seed in 0..8u64 {
            let rc = random_pool(100 + seed, 20, 90);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // power-of-two weights make the float sums exact, so the
            // oracle (which re-adds from scratch) agrees to the bit
            let w: Vec<f64> =
                (0..20).map(|_| [0.0, 0.25, 0.5, 1.0, 2.0][rng.gen_range(0..5usize)]).collect();
            for range in [0..90u32, 10..70] {
                let view = CoverageView::build(&rc, range.clone());
                for k in [1usize, 4] {
                    let got = view.select_with(&weighted(&w, k), Start::Fresh, &mut scratch);
                    let (want_seeds, want_total) = weighted_oracle(&rc, k, &w, range.clone());
                    assert_eq!(got.seeds, want_seeds, "seed {seed} range {range:?} k {k}");
                    assert!((got.covered - want_total).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn uniform_weights_reduce_to_unweighted_selection() {
        let rc = random_pool(42, 30, 200);
        let w = vec![1.0f64; 30];
        let mut scratch = GreedyScratch::new();
        let view = CoverageView::build(&rc, 0..200);
        let by_weight = view.select_with(&weighted(&w, 5), Start::Fresh, &mut scratch);
        let plain = view.select(5, &mut scratch);
        assert_eq!(by_weight.seeds, plain.seeds);
        assert!((by_weight.covered - plain.covered as f64).abs() < 1e-9);
    }

    #[test]
    fn zero_weight_roots_contribute_nothing() {
        // Sets rooted at 0 carry weight 0: only the set rooted at 3
        // counts, so its members win.
        let rc = pool(&[&[0, 1], &[0, 1, 2], &[3, 4]], 5);
        let mut w = vec![1.0f64; 5];
        w[0] = 0.0;
        let view = CoverageView::build(&rc, 0..3);
        let r = view.select_with(&weighted(&w, 1), Start::Fresh, &mut GreedyScratch::new());
        assert_eq!(r.seeds, vec![4], "ties on weight 1.0 break to the larger id");
        assert!((r.covered - 1.0).abs() < 1e-12);
    }
}
