//! Greedy Max-Coverage — Algorithm 2 of the paper — as one lazy-heap
//! kernel.
//!
//! The greedy algorithm repeatedly selects the node covering the most
//! still-uncovered RR sets; Nemhauser–Wolsey submodularity gives the
//! `(1 − 1/e)` guarantee relative to the best size-`k` cover. Every
//! selection in this library — the solvers' rounds, the serving engine's
//! top-k, targeted (TVM) and budgeted queries — is that one greedy, run by
//! one private kernel from a [`Selection`] spec:
//!
//! * an [`Objective`]: [`Objective::Count`] maximizes the covered-set
//!   count (`u32` gains, a `(gain, id)` max-heap); [`Objective::Weighted`]
//!   maximizes the covered root-weight mass (`f64` gains, see
//!   [`crate::GainSnapshot`]'s module for the estimator);
//! * a [`Limit`]: [`Limit::TopK`] stops at `k` seeds;
//!   [`Limit::Budget`] picks by `gain / cost` under a knapsack budget and
//!   returns the better of that set and the best single affordable node
//!   (see [`crate::NodeCosts`]);
//! * `forced` seeds, selected first in order, and `excluded` nodes, never
//!   selected — not even as zero-gain padding.
//!
//! The kernel is monomorphised over the objective and the limit, so each
//! of the four combinations compiles to its own loop with no dispatch per
//! heap pop. It runs on a [`CoverageView`] (a range-rebased forward CSR
//! of the queried pool slice) with a generation-stamped
//! [`crate::GreedyScratch`], and starts either from one streaming
//! histogram pass over the slice ([`Start::Fresh`]) or from a memcpy of a
//! frozen [`GainSnapshot`] ([`Start::Frozen`], [`Start::FrozenWeighted`]).
//! Stale heap entries are re-keyed on pop: gains only decrease (costs are
//! fixed, so ratios only decrease too), which keeps the lazy heap exact.
//! Ties break on the larger node id. Total work is
//! `O(Σ|R_j| + n + heap traffic)`.
//!
//! [`max_coverage`], [`max_coverage_range`] and
//! [`crate::max_coverage_with`] are the plain top-`k` entry points the
//! solvers call; the textbook rescan, the pre-view lazy heap and the
//! bucket-queue greedies that check and benchmark this kernel live in
//! `sns_bench::oracle`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::{Add, AddAssign, Range, SubAssign};

use sns_graph::NodeId;

use crate::coverage::{max_coverage_with, GreedyScratch};
use crate::{CoverageView, GainSnapshot, NodeCosts, RrCollection};

/// Result of a plain top-`k` greedy run ([`CoverageView::select`],
/// [`max_coverage`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageResult {
    /// Selected seed nodes, in selection order.
    pub seeds: Vec<NodeId>,
    /// Number of RR sets covered by `seeds` (within the queried range).
    pub covered: u64,
    /// Marginal coverage gain of each seed at its selection time.
    pub marginal_gains: Vec<u64>,
}

impl CoverageResult {
    /// Estimated influence this cover represents: `Γ · covered / |R|`
    /// (Lemma 1 of the paper; `Γ = n` for plain RIS).
    pub fn influence_estimate(&self, gamma: f64, pool_size: u64) -> f64 {
        if pool_size == 0 {
            return 0.0;
        }
        gamma * self.covered as f64 / pool_size as f64
    }
}

/// What a [`Selection`] maximizes.
#[derive(Debug, Clone, Copy)]
pub enum Objective<'a> {
    /// The number of covered in-range sets (Algorithm 2).
    Count,
    /// The covered weight mass `Σ_{j covered} b(root of set j)` under
    /// per-node target weights `b` — one finite, nonnegative weight per
    /// node (sets store their root first).
    Weighted(&'a [f64]),
}

/// What bounds a [`Selection`].
#[derive(Debug, Clone, Copy)]
pub enum Limit<'a> {
    /// At most `k` seeds (clamped to the node count), padded to exactly
    /// that many with zero-gain nodes once nothing is left to cover.
    TopK(usize),
    /// Seeds whose costs sum to at most the budget: ratio greedy, padded
    /// with affordable zero-gain nodes, then the better of that set and
    /// the best single affordable node.
    Budget(f64, &'a NodeCosts),
}

/// One greedy Max-Coverage question: an objective, a limit and the
/// seed-query side conditions. Run it with [`CoverageView::select_with`].
#[derive(Debug, Clone, Copy)]
pub struct Selection<'a> {
    /// What to maximize.
    pub objective: Objective<'a>,
    /// When to stop.
    pub limit: Limit<'a>,
    /// Seeds selected unconditionally before the greedy loop, in order,
    /// consuming the limit and coverage; duplicates are selected once.
    pub forced: &'a [NodeId],
    /// Nodes the selection must never return.
    pub excluded: &'a [NodeId],
}

impl Selection<'_> {
    /// The plain question: the best `k` seeds by covered-set count.
    pub fn top_k(k: usize) -> Selection<'static> {
        Selection { objective: Objective::Count, limit: Limit::TopK(k), forced: &[], excluded: &[] }
    }
}

/// Where a selection's initial gains come from.
#[derive(Debug, Clone, Copy)]
pub enum Start<'a> {
    /// One streaming pass over the view's slice.
    Fresh,
    /// A memcpy of a frozen count snapshot of the view's slice
    /// ([`Objective::Count`] only).
    Frozen(&'a GainSnapshot),
    /// A memcpy of a frozen weighted snapshot of the view's slice, built
    /// with the very weights of the selection's [`Objective::Weighted`].
    FrozenWeighted(&'a GainSnapshot<f64>),
}

/// Result of [`CoverageView::select_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionResult {
    /// Selected seed nodes, in selection order (forced seeds first).
    pub seeds: Vec<NodeId>,
    /// Covered in-range sets ([`Objective::Count`]) or covered weight
    /// mass ([`Objective::Weighted`]).
    pub covered: f64,
    /// Marginal gain of each seed at its selection time (`0` for
    /// padding seeds).
    pub marginal_gains: Vec<f64>,
    /// Total cost charged against a [`Limit::Budget`] (`0` under
    /// [`Limit::TopK`]).
    pub spent: f64,
    /// Whether the best-single-affordable-node arm of a budgeted
    /// selection beat the ratio-greedy set (then `seeds` holds exactly
    /// that one node).
    pub single_fallback: bool,
}

/// Runs lazy-greedy max-coverage over the whole pool.
pub fn max_coverage(rc: &RrCollection, k: usize) -> CoverageResult {
    max_coverage_range(rc, k, rc.id_range())
}

/// Runs lazy-greedy max-coverage over the pool slice `range` (used by
/// D-SSA, whose candidate half is the id range `0..Λ·2^(t−1)`).
///
/// Materializes a [`CoverageView`] of the slice and selects on it; see
/// [`crate::max_coverage_with`] to amortize the working buffers over
/// repeated rounds.
pub fn max_coverage_range(rc: &RrCollection, k: usize, range: Range<u32>) -> CoverageResult {
    max_coverage_with(rc, k, range, &mut GreedyScratch::new())
}

/// A heap entry: a key (a `u32` gain, or an `f64` gain or gain/cost
/// ratio) and its node, max-ordered by key, ties to the larger id. Every
/// `f64` key is finite (weights and costs are validated), so the total
/// order is a plain bit trick, never a NaN judgement call. Same layout
/// as a `(key, node)` pair, so a frozen heap seed is a memcpy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Entry<G>(pub(crate) G, pub(crate) NodeId);

impl<G: Gain> Eq for Entry<G> {}

impl<G: Gain> PartialOrd for Entry<G> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
    // The heap compares with `<=` and `>=`: keep them one native
    // comparison for `u32` keys.
    #[inline]
    fn le(&self, other: &Self) -> bool {
        G::entry_le(*self, *other)
    }
    #[inline]
    fn ge(&self, other: &Self) -> bool {
        G::entry_le(*other, *self)
    }
    #[inline]
    fn lt(&self, other: &Self) -> bool {
        !self.ge(other)
    }
    #[inline]
    fn gt(&self, other: &Self) -> bool {
        !self.le(other)
    }
}

impl<G: Gain> Ord for Entry<G> {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.le(other), self.ge(other)) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            _ => Ordering::Greater,
        }
    }
}

/// A per-node gain: `u32` set counts or `f64` weight mass. `Default` is
/// zero.
pub(crate) trait Gain: Copy + PartialOrd + Default + AddAssign + SubAssign {
    /// Running totals: `u64` counts or `f64` mass.
    type Sum: Copy + PartialOrd + Default + Add<Output = Self::Sum>;
    /// `a <= b` in the heap's total order.
    fn entry_le(a: Entry<Self>, b: Entry<Self>) -> bool;
    fn widen(self) -> Self::Sum;
    /// Exact for counts, so with unit costs the ratio heap is
    /// order-isomorphic to the plain `(gain, id)` heap.
    fn sum_f64(sum: Self::Sum) -> f64;
    /// The scratch's recycled gain table and heap buffer of this type.
    fn table(scratch: &mut GreedyScratch) -> &mut Vec<Self>;
    fn heap(scratch: &mut GreedyScratch) -> &mut Vec<Entry<Self>>;

    /// Whether covering more would still add anything.
    #[inline]
    fn positive(self) -> bool {
        self > Self::default()
    }
}

impl Gain for u32 {
    type Sum = u64;
    #[inline]
    fn entry_le(a: Entry<u32>, b: Entry<u32>) -> bool {
        (a.0, a.1) <= (b.0, b.1)
    }
    #[inline]
    fn widen(self) -> u64 {
        u64::from(self)
    }
    #[inline]
    fn sum_f64(sum: u64) -> f64 {
        sum as f64
    }
    fn table(scratch: &mut GreedyScratch) -> &mut Vec<u32> {
        &mut scratch.gain
    }
    fn heap(scratch: &mut GreedyScratch) -> &mut Vec<Entry<u32>> {
        &mut scratch.heap_buf
    }
}

impl Gain for f64 {
    type Sum = f64;
    #[inline]
    fn entry_le(a: Entry<f64>, b: Entry<f64>) -> bool {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_le()
    }
    #[inline]
    fn widen(self) -> f64 {
        self
    }
    #[inline]
    fn sum_f64(sum: f64) -> f64 {
        sum
    }
    fn table(scratch: &mut GreedyScratch) -> &mut Vec<f64> {
        &mut scratch.wgain
    }
    fn heap(scratch: &mut GreedyScratch) -> &mut Vec<Entry<f64>> {
        &mut scratch.wheap_buf
    }
}

/// The objective half of the kernel: what a covered set is worth.
pub(crate) trait Gains {
    type G: Gain;

    /// The gain a set with these members contributes to each of them.
    fn set_weight(&self, members: &[NodeId]) -> Self::G;

    /// Fills `gains` (cleared by the caller) with every node's initial
    /// gain over `view`'s slice, in slot order (so frozen and fresh float
    /// sums are bit-identical).
    fn init(&self, view: &CoverageView<'_>, gains: &mut Vec<Self::G>) {
        gains.resize(view.num_nodes() as usize, Self::G::default());
        for slot in 0..view.len() {
            let members = view.members(slot);
            let w = self.set_weight(members);
            if w.positive() {
                for &v in members {
                    gains[v as usize] += w;
                }
            }
        }
    }

    /// Marks `v`'s still-uncovered in-range sets covered and lowers their
    /// members' gains.
    #[inline]
    fn cover(
        &self,
        view: &CoverageView<'_>,
        v: NodeId,
        generation: u32,
        covered_stamp: &mut [u32],
        gains: &mut [Self::G],
    ) {
        let range = view.range();
        for id in view.pool().sets_containing_in(v, range.clone()) {
            let slot = (id - range.start) as usize;
            if covered_stamp[slot] == generation {
                continue;
            }
            covered_stamp[slot] = generation;
            let members = view.members(slot);
            let w = self.set_weight(members);
            if w.positive() {
                for &u in members {
                    gains[u as usize] -= w;
                }
            }
        }
    }
}

/// [`Objective::Count`]: one unit of gain per covered set.
pub(crate) struct CountGains;

impl Gains for CountGains {
    type G = u32;

    #[inline]
    fn set_weight(&self, _: &[NodeId]) -> u32 {
        1
    }

    fn init(&self, view: &CoverageView<'_>, gains: &mut Vec<u32>) {
        // The in-range degree of every node, by one streaming pass over
        // the slice's members.
        gains.resize(view.num_nodes() as usize, 0);
        for &v in view.raw_members() {
            gains[v as usize] += 1;
        }
    }
}

/// [`Objective::Weighted`]: each covered set is worth its root's weight
/// (an empty set has no root and weighs nothing).
pub(crate) struct WeightedGains<'w>(&'w [f64]);

impl<'w> WeightedGains<'w> {
    /// # Panics
    ///
    /// Panics unless `weights` holds one finite nonnegative weight per
    /// node of an `n`-node universe.
    pub(crate) fn new(weights: &'w [f64], n: u32) -> Self {
        assert_eq!(weights.len(), n as usize, "need one weight per node");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and nonnegative"
        );
        WeightedGains(weights)
    }
}

impl Gains for WeightedGains<'_> {
    type G = f64;

    #[inline]
    fn set_weight(&self, members: &[NodeId]) -> f64 {
        members.first().map_or(0.0, |&root| self.0[root as usize])
    }
}

/// `(gain, v)` for every node with positive gain, ascending `v` — the
/// buffer a top-`k` heap starts from (and what a snapshot freezes).
pub(crate) fn heap_seed<G: Gain>(gains: &[G], n: u32, out: &mut Vec<Entry<G>>) {
    out.extend(
        (0..n).filter(|&v| gains[v as usize].positive()).map(|v| Entry(gains[v as usize], v)),
    );
}

/// The limit half of the kernel: heap keys, when to stop, and what a
/// seed costs.
trait Bound<G: Gain> {
    /// The heap key's gain type: `G` itself, or `f64` for ratios.
    type K: Gain;
    /// Seeds the selection expects (a capacity hint).
    fn capacity(&self) -> usize;
    fn key(&self, g: G, v: NodeId) -> Self::K;
    /// Fills the heap buffer from the initial gains (or a frozen seed).
    fn seed(
        &self,
        gains: &[G],
        n: u32,
        frozen: Option<&[Entry<G>]>,
        heap: &mut Vec<Entry<Self::K>>,
    );
    /// Whether another seed may be added after `picked` seeds.
    fn open(&self, picked: usize) -> bool;
    /// Charges `v`; `false` means `v` is unaffordable (and stays so).
    fn charge(&mut self, v: NodeId) -> bool;
    /// Charges a forced seed, which must fit.
    fn charge_forced(&mut self, v: NodeId);
    /// The best single affordable node and its cost, read off the
    /// initial gains, when this limit guarantees `max(greedy, best
    /// single)`.
    fn best_single(&self, gains: &[G], taken: impl Fn(NodeId) -> bool) -> Option<(G, NodeId, f64)>;
    fn spent(&self) -> f64;
}

/// [`Limit::TopK`] with `k` already clamped to the node count.
struct TopK(usize);

impl<G: Gain> Bound<G> for TopK {
    type K = G;

    fn capacity(&self) -> usize {
        self.0
    }

    #[inline]
    fn key(&self, g: G, _: NodeId) -> G {
        g
    }

    fn seed(&self, gains: &[G], n: u32, frozen: Option<&[Entry<G>]>, heap: &mut Vec<Entry<G>>) {
        match frozen {
            Some(seed) => heap.extend_from_slice(seed),
            None => heap_seed(gains, n, heap),
        }
    }

    #[inline]
    fn open(&self, picked: usize) -> bool {
        picked < self.0
    }

    #[inline]
    fn charge(&mut self, _: NodeId) -> bool {
        true
    }

    fn charge_forced(&mut self, _: NodeId) {}

    fn best_single(&self, _: &[G], _: impl Fn(NodeId) -> bool) -> Option<(G, NodeId, f64)> {
        None
    }

    fn spent(&self) -> f64 {
        0.0
    }
}

/// [`Limit::Budget`]: the remaining budget and what has been spent.
struct Budget<'c> {
    costs: &'c NodeCosts,
    budget: f64,
    remaining: f64,
    spent: f64,
    min_cost: f64,
}

impl<G: Gain> Bound<G> for Budget<'_> {
    type K = f64;

    fn capacity(&self) -> usize {
        0
    }

    #[inline]
    fn key(&self, g: G, v: NodeId) -> f64 {
        G::sum_f64(g.widen()) / self.costs.cost(v)
    }

    fn seed(&self, gains: &[G], n: u32, _: Option<&[Entry<G>]>, heap: &mut Vec<Entry<f64>>) {
        // A frozen seed holds gains, not ratios: rebuild from the table.
        heap.extend(
            (0..n)
                .filter(|&v| gains[v as usize].positive())
                .map(|v| Entry(Bound::<G>::key(self, gains[v as usize], v), v)),
        );
    }

    #[inline]
    fn open(&self, _: usize) -> bool {
        self.remaining >= self.min_cost
    }

    #[inline]
    fn charge(&mut self, v: NodeId) -> bool {
        let c = self.costs.cost(v);
        if c > self.remaining {
            return false;
        }
        self.remaining -= c;
        self.spent += c;
        true
    }

    fn charge_forced(&mut self, v: NodeId) {
        let budget = self.budget;
        assert!(Bound::<G>::charge(self, v), "forced seeds overrun the budget {budget}");
    }

    fn best_single(&self, gains: &[G], taken: impl Fn(NodeId) -> bool) -> Option<(G, NodeId, f64)> {
        let mut best: Option<(G, NodeId, f64)> = None;
        for (v, &g) in (0..).zip(gains) {
            if !g.positive() || taken(v) {
                continue;
            }
            let c = self.costs.cost(v);
            if c <= self.budget && best.is_none_or(|b| (g, v) > (b.0, b.1)) {
                best = Some((g, v, c));
            }
        }
        best
    }

    fn spent(&self) -> f64 {
        self.spent
    }
}

/// What the kernel picked, in the objective's own gain units.
pub(crate) struct Picked<S> {
    pub(crate) seeds: Vec<NodeId>,
    pub(crate) covered: S,
    pub(crate) marginal_gains: Vec<S>,
    pub(crate) spent: f64,
    pub(crate) single_fallback: bool,
}

impl Picked<u64> {
    pub(crate) fn into_coverage(self) -> CoverageResult {
        CoverageResult {
            seeds: self.seeds,
            covered: self.covered,
            marginal_gains: self.marginal_gains,
        }
    }
}

impl<S: Copy> Picked<S> {
    fn into_selection(self, to_f64: fn(S) -> f64) -> SelectionResult {
        SelectionResult {
            seeds: self.seeds,
            covered: to_f64(self.covered),
            marginal_gains: self.marginal_gains.into_iter().map(to_f64).collect(),
            spent: self.spent,
            single_fallback: self.single_fallback,
        }
    }
}

impl CoverageView<'_> {
    /// Runs `selection` over this view's slice — the one entry point of
    /// the greedy kernel (see the module docs). `start` supplies the
    /// initial gains: a fresh streaming pass, or a memcpy of a frozen
    /// snapshot of this very slice. Every start yields bit-identical
    /// results; so does reusing `scratch` across calls.
    ///
    /// # Panics
    ///
    /// Panics if a snapshot was built for a different slice or does not
    /// match the objective, if weights or costs are malformed, if more
    /// than `k` seeds are forced under [`Limit::TopK`], if the budget is
    /// not finite and nonnegative, or if the forced seeds alone overrun
    /// it.
    pub fn select_with(
        &self,
        selection: &Selection<'_>,
        start: Start<'_>,
        scratch: &mut GreedyScratch,
    ) -> SelectionResult {
        match (selection.objective, start) {
            (Objective::Count, Start::Fresh) => {
                self.run(&CountGains, None, selection, scratch).into_selection(u32::sum_f64)
            }
            (Objective::Count, Start::Frozen(snapshot)) => self
                .run(&CountGains, Some(snapshot), selection, scratch)
                .into_selection(u32::sum_f64),
            (Objective::Weighted(w), Start::Fresh) => self
                .run(&WeightedGains::new(w, self.num_nodes()), None, selection, scratch)
                .into_selection(f64::sum_f64),
            (Objective::Weighted(w), Start::FrozenWeighted(snapshot)) => self
                .run(&WeightedGains::new(w, self.num_nodes()), Some(snapshot), selection, scratch)
                .into_selection(f64::sum_f64),
            (Objective::Count, Start::FrozenWeighted(_)) => {
                panic!("a weighted gain snapshot cannot start a count selection")
            }
            (Objective::Weighted(_), Start::Frozen(_)) => {
                panic!("a count gain snapshot cannot start a weighted selection")
            }
        }
    }

    /// Resolves the limit and runs the kernel for one objective.
    pub(crate) fn run<O: Gains>(
        &self,
        gains: &O,
        frozen: Option<&GainSnapshot<O::G>>,
        selection: &Selection<'_>,
        scratch: &mut GreedyScratch,
    ) -> Picked<<O::G as Gain>::Sum> {
        let n = self.num_nodes();
        match selection.limit {
            Limit::TopK(k) => {
                let k = k.min(n as usize);
                assert!(
                    selection.forced.len() <= k,
                    "{} forced seeds exceed the budget k = {k}",
                    selection.forced.len()
                );
                self.kernel(gains, TopK(k), frozen, selection, scratch)
            }
            Limit::Budget(budget, costs) => {
                assert!(
                    budget.is_finite() && budget >= 0.0,
                    "budget must be finite and nonnegative"
                );
                let min_cost = costs.validated_min(n);
                let limit = Budget { costs, budget, remaining: budget, spent: 0.0, min_cost };
                self.kernel(gains, limit, frozen, selection, scratch)
            }
        }
    }

    /// The lazy-heap greedy — the only selection loop in the crate.
    fn kernel<O: Gains, L: Bound<O::G>>(
        &self,
        objective: &O,
        mut limit: L,
        frozen: Option<&GainSnapshot<O::G>>,
        selection: &Selection<'_>,
        scratch: &mut GreedyScratch,
    ) -> Picked<<O::G as Gain>::Sum> {
        let n = self.num_nodes();
        let generation = scratch.begin_run(n as usize, self.len());

        let mut gain = std::mem::take(O::G::table(scratch));
        let mut heap_buf = std::mem::take(L::K::heap(scratch));
        gain.clear();
        heap_buf.clear();
        match frozen {
            Some(snapshot) => {
                assert_eq!(
                    snapshot.range(),
                    self.range(),
                    "gain snapshot was built for a different pool slice"
                );
                gain.extend_from_slice(snapshot.gains());
            }
            None => objective.init(self, &mut gain),
        }

        // Excluded nodes are marked selected before anything reads the
        // gain table, so neither the greedy loop, the padding nor the
        // single-node fallback can return them.
        for &v in selection.excluded {
            scratch.selected_stamp[v as usize] = generation;
        }
        // The other arm of a budget's max(greedy, best single)
        // guarantee, read off the initial gains. Forced seeds change what
        // the query means (the fallback would drop them), so the arm
        // only applies to unconstrained-prefix queries.
        let best_single = if selection.forced.is_empty() {
            let stamps = &scratch.selected_stamp;
            limit.best_single(&gain, |v| stamps[v as usize] == generation)
        } else {
            None
        };
        limit.seed(&gain, n, frozen.map(GainSnapshot::heap_seed), &mut heap_buf);
        let mut heap = BinaryHeap::from(heap_buf);

        let mut seeds = Vec::with_capacity(limit.capacity());
        let mut marginal_gains = Vec::with_capacity(limit.capacity());
        let mut covered = <O::G as Gain>::Sum::default();

        for &v in selection.forced {
            if scratch.selected_stamp[v as usize] == generation {
                continue; // duplicate forced seed: selected (and charged) once
            }
            limit.charge_forced(v);
            scratch.selected_stamp[v as usize] = generation;
            let g = gain[v as usize];
            seeds.push(v);
            marginal_gains.push(g.widen());
            covered = covered + g.widen();
            if g.positive() {
                objective.cover(self, v, generation, &mut scratch.covered_stamp, &mut gain);
            }
        }

        while limit.open(seeds.len()) {
            let Some(Entry(key, v)) = heap.pop() else { break };
            if scratch.selected_stamp[v as usize] == generation {
                continue;
            }
            let current = gain[v as usize];
            let current_key = limit.key(current, v);
            if key > current_key {
                // Stale entry: re-key with the exact value.
                if current.positive() {
                    heap.push(Entry(current_key, v));
                }
                continue;
            }
            if !current.positive() {
                break; // nothing left to cover
            }
            if !limit.charge(v) {
                // Unaffordable now; the budget only shrinks, so retire
                // the node for the rest of the run (padding included).
                scratch.selected_stamp[v as usize] = generation;
                continue;
            }
            scratch.selected_stamp[v as usize] = generation;
            seeds.push(v);
            marginal_gains.push(current.widen());
            covered = covered + current.widen();
            objective.cover(self, v, generation, &mut scratch.covered_stamp, &mut gain);
        }

        // The paper's algorithms want exactly k seeds even when extra
        // seeds add no coverage (I(S) still counts the seeds themselves);
        // a budget spends what is left. Pad with unselected nodes in
        // ascending id order, gain 0.
        let mut next = 0u32;
        while next < n && limit.open(seeds.len()) {
            if scratch.selected_stamp[next as usize] != generation && limit.charge(next) {
                scratch.selected_stamp[next as usize] = generation;
                seeds.push(next);
                marginal_gains.push(O::G::default().widen());
            }
            next += 1;
        }

        *L::K::heap(scratch) = heap.into_vec();
        *O::G::table(scratch) = gain;

        if let Some((g, v, cost)) = best_single {
            if g.widen() > covered {
                // The single affordable node beats the whole ratio-greedy
                // set — the classical bad case for plain ratio greedy.
                return Picked {
                    seeds: vec![v],
                    covered: g.widen(),
                    marginal_gains: vec![g.widen()],
                    spent: cost,
                    single_fallback: true,
                };
            }
        }
        Picked { seeds, covered, marginal_gains, spent: limit.spent(), single_fallback: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn picks_the_dominating_node() {
        let rc = pool(&[&[0, 1], &[0, 2], &[0, 3], &[4]], 5);
        let r = max_coverage(&rc, 1);
        assert_eq!(r.seeds, vec![0]);
        assert_eq!(r.covered, 3);
        assert_eq!(r.marginal_gains, vec![3]);
    }

    #[test]
    fn two_seeds_cover_everything() {
        let rc = pool(&[&[0, 1], &[0, 2], &[4], &[4, 3]], 5);
        let r = max_coverage(&rc, 2);
        assert_eq!(r.covered, 4);
        let mut s = r.seeds.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 4]);
    }

    #[test]
    fn pads_to_k_seeds_when_coverage_exhausted() {
        let rc = pool(&[&[1]], 4);
        let r = max_coverage(&rc, 3);
        assert_eq!(r.seeds.len(), 3);
        assert_eq!(r.covered, 1);
        assert_eq!(r.seeds[0], 1);
        assert_eq!(r.marginal_gains[1], 0);
        assert_eq!(r.marginal_gains[2], 0);
    }

    #[test]
    fn k_clamped_to_n() {
        let rc = pool(&[&[0], &[1]], 2);
        let r = max_coverage(&rc, 10);
        assert_eq!(r.seeds.len(), 2);
    }

    #[test]
    fn empty_pool_yields_zero_coverage() {
        let rc = pool(&[], 3);
        let r = max_coverage(&rc, 2);
        assert_eq!(r.covered, 0);
        assert_eq!(r.seeds.len(), 2); // padded
        assert_eq!(r.influence_estimate(3.0, 0), 0.0);
    }

    #[test]
    fn range_restriction_changes_the_answer() {
        // sets 0,1 dominated by node 0; sets 2,3 dominated by node 1
        let rc = pool(&[&[0], &[0, 2], &[1], &[1, 2]], 3);
        let first = max_coverage_range(&rc, 1, 0..2);
        assert_eq!(first.seeds, vec![0]);
        let second = max_coverage_range(&rc, 1, 2..4);
        assert_eq!(second.seeds, vec![1]);
    }

    #[test]
    fn influence_estimate_scales() {
        let rc = pool(&[&[0], &[0], &[1], &[2]], 3);
        let r = max_coverage(&rc, 1);
        // covers 2 of 4 sets; gamma = 3 nodes -> estimate 1.5
        assert!((r.influence_estimate(3.0, 4) - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot start a weighted selection")]
    fn snapshot_must_match_the_objective() {
        let rc = pool(&[&[0, 1]], 2);
        let view = CoverageView::build(&rc, 0..1);
        let snap = GainSnapshot::build(&view);
        let w = [1.0, 1.0];
        let spec = Selection { objective: Objective::Weighted(&w), ..Selection::top_k(1) };
        view.select_with(&spec, Start::Frozen(&snap), &mut GreedyScratch::new());
    }
}
