//! Sealed CSR-transposed coverage view — the cache-linear data structure
//! greedy Max-Coverage (Algorithm 2) consumes instead of re-walking the
//! pool arena per newly covered set.
//!
//! # Why a separate view
//!
//! The selection loop of [`crate::max_coverage_range`] has two hot memory
//! patterns:
//!
//! 1. the **gain initialization** — one inverted-index query per node
//!    (`n` binary searches into the sealed CSR tier plus a
//!    pointer-chasing pending-chain walk each); and
//! 2. the **decremental updates** — for every newly covered set, walk
//!    its members and decrement their marginal gains, which chases `u64`
//!    arena offsets spread over the *whole* pool even when the query
//!    range is a small slice (D-SSA's find half).
//!
//! Once pools reach 10⁶+ sets these dependent loads dominate the round.
//! [`CoverageView::build`] materializes the transpose of the inverted
//! node→set-ids index — a flat forward **set → members** CSR
//! (`set_offsets` + `set_data`), rebased to the queried range — in
//! `O(range_len)`: slot `j` (set id `range.start + j`) owns the
//! contiguous member slice `set_data[set_offsets[j]..set_offsets[j+1]]`.
//! The member data is the arena's own contiguous slice over the range,
//! borrowed zero-copy; only the offsets are rebased, reusing the
//! width-adaptive [`CsrOffsets`] machinery of the inverted index (`u32`
//! until the range holds 2³² entries). Decremental updates thus become
//! contiguous `u32`-offset slice sweeps with half the offset traffic and
//! no pool-wide stride. Gain initialization collapses to a single linear
//! histogram pass over `set_data` — `O(entries)` streaming reads instead
//! of `n` two-tier index queries. Only the `k` per-seed "which sets
//! contain the winner" queries still consult the pool's inverted index
//! (they touch exactly the sets being covered, and `k` is tiny).
//!
//! # Memory cost and rebuild policy
//!
//! A view owns only its rebased offset array — `4 B·(range_len + 1)`
//! while narrow; member data is borrowed from the arena. It is a
//! *selection-time snapshot*: built per [`crate::max_coverage_range`]
//! call and dropped afterwards, so the pool's steady-state footprint is
//! unchanged; it is never incrementally maintained (RIS algorithms grow
//! the pool between selections, which would invalidate it wholesale
//! anyway). Callers that run several selections against one frozen pool
//! slice can build once and call [`CoverageView::select`] repeatedly.
//!
//! # Determinism
//!
//! Selection on a view is the crate's one lazy-heap kernel
//! ([`CoverageView::select_with`], see `greedy.rs`): `(gain, id)`
//! max-heap tie-break, zero-gain padding, bit-identical to the pre-view
//! implementation it replaced (`sns_bench::oracle` keeps that one as a
//! reference). The covered bitset is *generation-stamped*
//! ([`GreedyScratch`]): marking a slot covered writes the run's
//! generation number, so reusing a scratch across rounds costs zero
//! clearing work.

use std::borrow::Cow;
use std::ops::Range;

use sns_graph::NodeId;

use crate::greedy::{CountGains, Entry};
use crate::index::CsrOffsets;
use crate::{CoverageResult, RrCollection, Selection};

/// Range-rebased forward (`set → members`) CSR snapshot of a pool slice
/// (see the module docs). Borrows the pool: the member data is the
/// arena's own contiguous slice (zero-copy), and the per-seed inverted
/// queries of [`CoverageView::select`] go through the pool's index.
#[derive(Debug, Clone)]
pub struct CoverageView<'a> {
    rc: &'a RrCollection,
    range: Range<u32>,
    /// Slot `j` spans `set_data[set_offsets[j]..set_offsets[j + 1]]`.
    /// Owned when built by the per-call rebase ([`CoverageView::build`]);
    /// borrowed when a [`GainSnapshot`] lends its frozen copy
    /// ([`GainSnapshot::view`]), which makes steady-state snapshot
    /// queries skip the `O(range_len)` rebase entirely.
    set_offsets: Cow<'a, CsrOffsets>,
    /// Concatenated members of the in-range sets — the arena slice
    /// spanning the range, borrowed, since it is already contiguous.
    set_data: &'a [NodeId],
}

impl<'a> CoverageView<'a> {
    /// Materializes the view for the pool slice `range` in
    /// `O(entries in range)`.
    ///
    /// # Panics
    ///
    /// Panics if `range.start > range.end` or `range.end > rc.len()`.
    pub fn build(rc: &'a RrCollection, range: Range<u32>) -> Self {
        assert!(
            range.start <= range.end && range.end as usize <= rc.len(),
            "coverage view range {range:?} out of bounds for pool of {} sets",
            rc.len()
        );
        let (data, offsets) = rc.arena();
        let base = offsets[range.start as usize];
        let set_data = &data[base as usize..offsets[range.end as usize] as usize];
        let set_offsets =
            CsrOffsets::rebased(&offsets[range.start as usize..=range.end as usize], base);
        CoverageView { rc, range, set_offsets: Cow::Owned(set_offsets), set_data }
    }

    /// [`CoverageView::build`] with the rebased offsets supplied by a
    /// frozen snapshot instead of recomputed — `O(1)`, the steady-state
    /// fast path of `sns-core`'s query engine. Only reachable through
    /// [`GainSnapshot::view`], whose caller must
    /// pass the pool the snapshot was built from; the total-entry-count
    /// cross-check below catches a wrong-pool mix-up (it cannot prove
    /// the pools identical, but two pools rarely agree on the entry
    /// count of a slice by accident).
    pub(crate) fn with_frozen_offsets(
        rc: &'a RrCollection,
        range: Range<u32>,
        set_offsets: &'a CsrOffsets,
    ) -> Self {
        assert!(
            range.start <= range.end && range.end as usize <= rc.len(),
            "coverage view range {range:?} out of bounds for pool of {} sets",
            rc.len()
        );
        let (data, offsets) = rc.arena();
        let base = offsets[range.start as usize];
        let set_data = &data[base as usize..offsets[range.end as usize] as usize];
        if range.start < range.end {
            let last = (range.end - range.start - 1) as usize;
            assert_eq!(
                set_offsets.span(last).end,
                set_data.len(),
                "frozen offsets disagree with the pool arena over {range:?} — \
                 snapshot applied to a different pool?"
            );
        }
        CoverageView { rc, range, set_offsets: Cow::Borrowed(set_offsets), set_data }
    }

    /// Number of sets in the view's range.
    pub fn len(&self) -> usize {
        (self.range.end - self.range.start) as usize
    }

    /// Whether the view's range is empty.
    pub fn is_empty(&self) -> bool {
        self.range.start == self.range.end
    }

    /// The pool id range this view snapshots.
    pub fn range(&self) -> Range<u32> {
        self.range.clone()
    }

    /// Members of the set at `slot` (pool id `range.start + slot`).
    pub fn members(&self, slot: usize) -> &[NodeId] {
        &self.set_data[self.set_offsets.span(slot)]
    }

    /// Exact byte footprint the view *owns* — the rebased offset array.
    /// Member data is borrowed from the pool arena (zero-copy) and so
    /// costs nothing beyond the pool's own accounting
    /// ([`RrCollection::memory_bytes`]).
    pub fn memory_bytes(&self) -> u64 {
        self.set_offsets.memory_bytes()
    }

    /// Plain top-`k` greedy Max-Coverage over this view — what
    /// [`crate::max_coverage_range`] runs (as `build` + `select`), and
    /// [`CoverageView::select_with`] for [`crate::Selection::top_k`] with
    /// integer results.
    ///
    /// `scratch` supplies the gain table, heap storage and the
    /// generation-stamped covered/selected marks; reusing one scratch
    /// across rounds skips all per-round clearing and reallocation.
    pub fn select(&self, k: usize, scratch: &mut GreedyScratch) -> CoverageResult {
        self.run(&CountGains, None, &Selection::top_k(k), scratch).into_coverage()
    }

    /// The raw concatenated member data of the view's slice (what the
    /// histogram pass streams) — shared with [`GainSnapshot::build`].
    pub(crate) fn raw_members(&self) -> &[NodeId] {
        self.set_data
    }

    /// The rebased per-slot offsets — what [`GainSnapshot::build`]
    /// freezes so later views can skip the rebase.
    pub(crate) fn offsets(&self) -> &CsrOffsets {
        &self.set_offsets
    }

    /// The pool this view snapshots (for the kernel's per-seed inverted
    /// queries).
    pub(crate) fn pool(&self) -> &RrCollection {
        self.rc
    }

    /// Node-universe size of the underlying pool.
    pub fn num_nodes(&self) -> u32 {
        self.rc.num_nodes()
    }
}

/// Reusable working state for [`CoverageView::select`] and
/// [`CoverageView::select_with`]: per-node gains,
/// heap storage, and generation-stamped covered/selected marks.
///
/// The stamps make reuse O(1): a slot counts as covered only when its
/// stamp equals the *current* run's generation, so starting a new run is
/// a counter bump, not an `O(range + n)` clear. One scratch can serve
/// pools and ranges of any size (buffers grow on demand and are kept at
/// high-water capacity) — SSA/D-SSA/IMM/TIM hold one per run and pass it
/// to every selection round.
#[derive(Debug, Clone, Default)]
pub struct GreedyScratch {
    /// Exact current marginal gain per node of count selections (valid
    /// during a run). `u32` deliberately: a gain is bounded by the set-id
    /// space, and the decrement sweep's random accesses profit from the
    /// halved table.
    pub(crate) gain: Vec<u32>,
    /// Per-slot covered mark: covered iff `== generation`.
    pub(crate) covered_stamp: Vec<u32>,
    /// Per-node selected mark: selected iff `== generation`.
    pub(crate) selected_stamp: Vec<u32>,
    /// Recycled backing storage of the `(gain, id)` top-k heap.
    pub(crate) heap_buf: Vec<Entry<u32>>,
    /// Gain table of weighted selections (`Σ` of uncovered set weights
    /// per node).
    pub(crate) wgain: Vec<f64>,
    /// Recycled backing storage of the `f64`-keyed heap (weighted gains
    /// or budget ratios).
    pub(crate) wheap_buf: Vec<Entry<f64>>,
    /// Current run's stamp; incremented by [`GreedyScratch::begin_run`].
    generation: u32,
}

impl GreedyScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        GreedyScratch::default()
    }

    /// Starts a new run: bumps the generation and grows the stamp buffers
    /// to cover `n` nodes and `len` slots. Fresh (zeroed) stamp entries
    /// can never equal a live generation because generations start at 1.
    pub(crate) fn begin_run(&mut self, n: usize, len: usize) -> u32 {
        if self.generation == u32::MAX {
            // Wrapped after 2³² runs: zero the stamps so stale marks from
            // generation u32::MAX cannot alias generation numbers that
            // are about to be handed out again.
            self.covered_stamp.iter_mut().for_each(|s| *s = 0);
            self.selected_stamp.iter_mut().for_each(|s| *s = 0);
            self.generation = 0;
        }
        self.generation += 1;
        if self.covered_stamp.len() < len {
            self.covered_stamp.resize(len, 0);
        }
        if self.selected_stamp.len() < n {
            self.selected_stamp.resize(n, 0);
        }
        self.generation
    }
}

/// Greedy Max-Coverage over the pool slice `range` with caller-owned
/// working state — the allocation-recycling entry point for algorithms
/// that select round after round (SSA, D-SSA, IMM, TIM).
///
/// Equivalent to [`crate::max_coverage_range`] (bit-identical seeds,
/// gains and coverage); the only difference is that the selection scratch
/// persists in `scratch` across calls.
pub fn max_coverage_with(
    rc: &RrCollection,
    k: usize,
    range: Range<u32>,
    scratch: &mut GreedyScratch,
) -> CoverageResult {
    CoverageView::build(rc, range).select(k, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_coverage;
    use sns_diffusion::RrMeta;

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
    fn view_exposes_contiguous_member_slices() {
        let rc = pool(&[&[0, 1], &[1, 2], &[2], &[0, 3]], 4);
        let view = CoverageView::build(&rc, 0..4);
        assert_eq!(view.len(), 4);
        for slot in 0..4 {
            assert_eq!(view.members(slot), rc.set(slot));
        }
        assert!(view.memory_bytes() > 0);
    }

    #[test]
    fn view_rebases_nonzero_range_starts() {
        let rc = pool(&[&[0, 1], &[1, 2], &[2], &[0, 3]], 4);
        let view = CoverageView::build(&rc, 1..3);
        assert_eq!(view.len(), 2);
        assert_eq!(view.range(), 1..3);
        // slot 0 is pool id 1, slot 1 is pool id 2
        assert_eq!(view.members(0), &[1, 2]);
        assert_eq!(view.members(1), &[2]);
    }

    #[test]
    fn empty_range_view_selects_only_padding() {
        let rc = pool(&[&[0, 1], &[1]], 3);
        for start in 0..=2u32 {
            let view = CoverageView::build(&rc, start..start);
            assert!(view.is_empty());
            let r = view.select(2, &mut GreedyScratch::new());
            assert_eq!(r.covered, 0);
            assert_eq!(r.seeds.len(), 2);
            assert_eq!(r.marginal_gains, vec![0, 0]);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_range_panics() {
        let rc = pool(&[&[0]], 2);
        CoverageView::build(&rc, 0..2);
    }

    #[test]
    fn select_matches_naive_oracle() {
        // The textbook rescan greedy, worked by hand: node 0 covers sets
        // {0, 1, 2}, then node 4 the rest {3, 4}; padding follows in
        // ascending id order.
        let rc = pool(&[&[0, 1], &[0, 2], &[0, 3], &[4], &[4, 1]], 5);
        let view = CoverageView::build(&rc, 0..5);
        let mut scratch = GreedyScratch::new();
        let naive: [(&[NodeId], u64, &[u64]); 5] = [
            (&[0], 3, &[3]),
            (&[0, 4], 5, &[3, 2]),
            (&[0, 4, 1], 5, &[3, 2, 0]),
            (&[0, 4, 1, 2], 5, &[3, 2, 0, 0]),
            (&[0, 4, 1, 2, 3], 5, &[3, 2, 0, 0, 0]),
        ];
        for (k, (seeds, covered, gains)) in (1..).zip(naive) {
            let got = view.select(k, &mut scratch);
            assert_eq!(got.seeds, seeds, "k={k}");
            assert_eq!(got.covered, covered, "k={k}");
            assert_eq!(got.marginal_gains, gains, "k={k}");
        }
    }

    #[test]
    fn view_spans_sealed_and_pending_tiers() {
        // The per-seed queries go through the two-tier index; the sweep
        // goes through the arena copy — both must agree across a seal
        // boundary with the same sets held in one tier.
        let mut rc = pool(&[&[0, 1], &[0, 2]], 4);
        let _ = rc.seal();
        rc.push(&[0, 3], m());
        rc.push(&[3], m());
        assert!(rc.pending_sets() > 0);
        let one_tier = pool(&[&[0, 1], &[0, 2], &[0, 3], &[3]], 4);
        let r = crate::max_coverage_range(&rc, 2, 0..4);
        assert_eq!(r, max_coverage(&one_tier, 2));
        assert_eq!((r.seeds, r.covered), (vec![0, 3], 4));
    }

    #[test]
    fn scratch_reuse_across_pools_and_ranges_is_clean() {
        // A big first run must leave no residue that corrupts later runs
        // on smaller pools (stale covered marks, oversized gain tables).
        let mut scratch = GreedyScratch::new();
        let big = pool(&[&[0, 1, 2], &[3, 4, 5], &[6, 7], &[0, 7]], 8);
        let first = max_coverage_with(&big, 3, 0..4, &mut scratch);
        assert_eq!(first.covered, 4);

        let small = pool(&[&[0], &[1], &[1, 2]], 3);
        for _ in 0..3 {
            let r = max_coverage_with(&small, 2, 0..3, &mut scratch);
            assert_eq!(r, max_coverage(&small, 2));
        }
        // set {1, 2}: gains tie at 1, the (gain, id) max-heap prefers id 2
        let sliced = max_coverage_with(&small, 1, 2..3, &mut scratch);
        assert_eq!(sliced.seeds, vec![2]);
        assert_eq!(sliced.covered, 1);
    }

    #[test]
    fn generation_wrap_resets_stamps() {
        let rc = pool(&[&[0, 1], &[1]], 3);
        let mut scratch = GreedyScratch::new();
        let before = max_coverage_with(&rc, 2, 0..2, &mut scratch);
        scratch.generation = u32::MAX;
        // Runs right at and after the wrap must still be correct.
        for _ in 0..3 {
            let r = max_coverage_with(&rc, 2, 0..2, &mut scratch);
            assert_eq!(r, before);
        }
        assert!(scratch.generation >= 2 && scratch.generation < 10);
    }
}
