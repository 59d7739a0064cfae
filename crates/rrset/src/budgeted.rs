//! Budgeted (cost-aware) greedy Max-Coverage — the CTVM/BCT workload
//! class over a frozen pool.
//!
//! The paper's Algorithm 2 fixes a *cardinality* `k`; the
//! production-shaped variants (TipTop, arXiv:1701.08462; cost-aware
//! viral marketing, arXiv:1910.04134) attach a cost `c(v) > 0` to every
//! node and replace `|S| ≤ k` with a knapsack constraint
//! `Σ_{v∈S} c(v) ≤ B`. That is [`Limit::Budget`](crate::Limit::Budget)
//! of the one greedy kernel (`greedy.rs`), with the [`NodeCosts`] below:
//!
//! * **Ratio greedy.** Nodes are picked by cost-effectiveness — marginal
//!   gain divided by cost — under the same lazy max-heap discipline as
//!   top-k (gains only decrease and costs are fixed, so ratios only
//!   decrease and stale heap entries stay safe). A node whose cost
//!   exceeds the *remaining* budget is retired permanently: budgets only
//!   shrink, so it can never become affordable again. Forced seeds are
//!   charged first, in order; leftover budget buys zero-gain padding
//!   seeds in ascending id order.
//! * **The `max(greedy, best single)` guarantee.** Ratio greedy alone
//!   has an unbounded gap (a cheap low-gain node can lock out one huge
//!   affordable node); returning the better of the greedy set and the
//!   best single affordable node restores the classical
//!   `1 − 1/√e ≈ 0.3935` factor for budgeted maximum coverage (see
//!   `docs/DERIVATIONS.md` §6 and arXiv:1512.04180).
//! * **Determinism.** Ties break on the larger node id exactly like the
//!   top-k heap, and with [`NodeCosts::Uniform`] and `B = k` the pop
//!   sequence is order-isomorphic to the plain `(gain, id)` heap — seeds,
//!   covered counts and marginal gains degenerate *bit-identically* to
//!   top-k (a `u32` gain converts to `f64` exactly, and division by 1
//!   preserves the order and the padding walk).
//!
//! Costs are per-query data like the weighted objective's node weights:
//! a frozen [`crate::GainSnapshot`] is cost-agnostic, so one snapshot
//! serves every cost vector and budget.

use std::sync::Arc;

use sns_graph::NodeId;

/// Per-node selection costs for a budgeted query.
///
/// `Uniform` charges every node `1.0`, so a budget `B = k` degenerates
/// to the cardinality constraint. `PerNode` shares an `Arc` so cloning a
/// query for another thread copies a pointer, and equality is *identity*
/// (`Arc::ptr_eq`), mirroring how the query engine keys topic weight
/// vectors.
#[derive(Debug, Clone, Default)]
pub enum NodeCosts {
    /// Every node costs `1.0` — budget = seed-count budget.
    #[default]
    Uniform,
    /// `costs[v]` is the cost of selecting node `v`; must hold one
    /// finite, strictly positive entry per node of the pool's universe.
    PerNode(Arc<[f64]>),
}

impl NodeCosts {
    /// Wraps a per-node cost vector.
    pub fn per_node(costs: Arc<[f64]>) -> Self {
        NodeCosts::PerNode(costs)
    }

    /// The cost of selecting node `v`.
    #[inline]
    pub fn cost(&self, v: NodeId) -> f64 {
        match self {
            NodeCosts::Uniform => 1.0,
            NodeCosts::PerNode(c) => c[v as usize],
        }
    }

    /// Identity comparison: `Uniform == Uniform`, per-node vectors by
    /// `Arc::ptr_eq` — the same rule the engine uses for topic weights.
    pub fn same_costs(&self, other: &NodeCosts) -> bool {
        match (self, other) {
            (NodeCosts::Uniform, NodeCosts::Uniform) => true,
            (NodeCosts::PerNode(a), NodeCosts::PerNode(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Validates the vector against a pool of `n` nodes and returns the
    /// cheapest cost (the selection loop's stopping threshold).
    ///
    /// # Panics
    ///
    /// Panics if a per-node vector is not one finite, strictly positive
    /// cost per node.
    pub(crate) fn validated_min(&self, n: u32) -> f64 {
        match self {
            NodeCosts::Uniform => 1.0,
            NodeCosts::PerNode(c) => {
                assert_eq!(c.len(), n as usize, "need one cost per node");
                let mut min = f64::INFINITY;
                for &x in c.iter() {
                    assert!(x.is_finite() && x > 0.0, "node costs must be finite and positive");
                    min = min.min(x);
                }
                min
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CoverageView, GainSnapshot, GreedyScratch, Limit, RrCollection, Selection, SelectionResult,
        Start,
    };
    use sns_diffusion::RrMeta;

    fn spec<'a>(budget: f64, costs: &'a NodeCosts) -> Selection<'a> {
        Selection { limit: Limit::Budget(budget, costs), ..Selection::top_k(0) }
    }

    fn select(
        view: &CoverageView<'_>,
        budget: f64,
        costs: &NodeCosts,
        scratch: &mut GreedyScratch,
    ) -> SelectionResult {
        view.select_with(&spec(budget, costs), Start::Fresh, scratch)
    }

    fn m(root: NodeId) -> RrMeta {
        RrMeta { root, edges_examined: 0 }
    }

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

    fn costs_from(seed: u64, n: u32) -> NodeCosts {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let c: Vec<f64> =
            (0..n).map(|_| [0.5, 1.0, 1.5, 2.0, 3.0][rng.gen_range(0..5usize)]).collect();
        NodeCosts::per_node(c.into())
    }

    #[test]
    fn uniform_costs_with_budget_k_degenerate_to_top_k() {
        let mut scratch = GreedyScratch::new();
        for seed in 0..8u64 {
            let rc = random_pool(seed, 30, 150);
            let total = rc.len() as u32;
            for range in [0..total, 0..total / 2, total / 4..total] {
                let view = CoverageView::build(&rc, range.clone());
                let snap = GainSnapshot::build(&view);
                for k in [1usize, 3, 7, 40] {
                    let plain = view.select(k, &mut scratch);
                    let budgeted = select(&view, k as f64, &NodeCosts::Uniform, &mut scratch);
                    assert_eq!(budgeted.seeds, plain.seeds, "seed {seed} range {range:?} k {k}");
                    assert_eq!(budgeted.covered, plain.covered as f64);
                    let gains: Vec<f64> = plain.marginal_gains.iter().map(|&g| g as f64).collect();
                    assert_eq!(budgeted.marginal_gains, gains);
                    assert!(!budgeted.single_fallback);
                    let frozen = view.select_with(
                        &spec(k as f64, &NodeCosts::Uniform),
                        Start::Frozen(&snap),
                        &mut scratch,
                    );
                    assert_eq!(frozen, budgeted, "frozen path diverged");
                }
            }
        }
    }

    #[test]
    fn frozen_path_matches_fresh_path_under_arbitrary_costs() {
        let mut scratch = GreedyScratch::new();
        for seed in 0..6u64 {
            let rc = random_pool(50 + seed, 25, 120);
            let costs = costs_from(seed, 25);
            for range in [0..120u32, 10..90] {
                let view = CoverageView::build(&rc, range.clone());
                let snap = GainSnapshot::build(&view);
                for budget in [1.5f64, 4.0, 9.5] {
                    let fresh = select(&view, budget, &costs, &mut scratch);
                    let frozen =
                        view.select_with(&spec(budget, &costs), Start::Frozen(&snap), &mut scratch);
                    assert_eq!(frozen, fresh, "seed {seed} range {range:?} budget {budget}");
                    // repeated queries against one snapshot stay stable
                    let again =
                        view.select_with(&spec(budget, &costs), Start::Frozen(&snap), &mut scratch);
                    assert_eq!(again, fresh);
                }
            }
        }
    }

    #[test]
    fn single_fallback_beats_ratio_greedy_lockout() {
        // Node 0 covers 4 sets but costs the whole budget; node 5 covers
        // one set at cost 0.5 with a better ratio. Plain ratio greedy
        // takes node 5, leaving node 0 unaffordable (and everything else
        // is overpriced) — the fallback must return node 0 alone.
        let rc = pool(&[&[0, 1], &[0, 2], &[0, 3], &[0, 4], &[5]], 6);
        let costs: Vec<f64> = vec![4.0, 5.0, 5.0, 5.0, 5.0, 0.5];
        let view = CoverageView::build(&rc, 0..5);
        let r = select(&view, 4.0, &NodeCosts::per_node(costs.into()), &mut GreedyScratch::new());
        assert!(r.single_fallback);
        assert_eq!(r.seeds, vec![0]);
        assert_eq!(r.covered, 4.0);
        assert_eq!(r.marginal_gains, vec![4.0]);
        assert!((r.spent - 4.0).abs() < 1e-12);
    }

    #[test]
    fn unaffordable_nodes_are_skipped_not_fatal() {
        // Node 0 has the best ratio but costs more than the budget; the
        // greedy loop must retire it and select affordable nodes.
        let rc = pool(&[&[0, 1], &[0, 2], &[0, 3], &[1, 4], &[2]], 5);
        let costs: Vec<f64> = vec![10.0, 1.0, 1.0, 1.0, 1.0];
        let view = CoverageView::build(&rc, 0..5);
        let r = select(&view, 2.0, &NodeCosts::per_node(costs.into()), &mut GreedyScratch::new());
        assert!(!r.seeds.contains(&0), "unaffordable node selected: {:?}", r.seeds);
        assert!(r.covered >= 3.0, "affordable pair should cover ≥ 3 sets: {r:?}");
        assert!(r.spent <= 2.0 + 1e-12);
    }

    #[test]
    fn forced_seeds_charge_the_budget_and_lead() {
        let rc = pool(&[&[0, 1], &[0, 2], &[3], &[3, 1]], 4);
        let view = CoverageView::build(&rc, 0..4);
        let mut scratch = GreedyScratch::new();
        let cons = Selection { forced: &[1], ..spec(2.0, &NodeCosts::Uniform) };
        let r = view.select_with(&cons, Start::Fresh, &mut scratch);
        assert_eq!(r.seeds[0], 1);
        assert_eq!(r.marginal_gains[0], 2.0);
        assert_eq!(r.covered, 3.0);
        assert!((r.spent - 2.0).abs() < 1e-12);
        // duplicates are selected and charged once
        let dup = Selection { forced: &[1, 1], ..spec(2.0, &NodeCosts::Uniform) };
        let r2 = view.select_with(&dup, Start::Fresh, &mut scratch);
        assert_eq!(r2.seeds, r.seeds);
    }

    #[test]
    #[should_panic(expected = "overrun the budget")]
    fn forced_seeds_beyond_the_budget_panic() {
        let rc = pool(&[&[0], &[1]], 2);
        let view = CoverageView::build(&rc, 0..2);
        let cons = Selection { forced: &[0, 1], ..spec(1.0, &NodeCosts::Uniform) };
        view.select_with(&cons, Start::Fresh, &mut GreedyScratch::new());
    }

    #[test]
    fn excluded_nodes_never_appear_even_via_fallback() {
        // Node 0 would win both the greedy loop and the fallback; with it
        // excluded the answer must come from the rest.
        let rc = pool(&[&[0, 1], &[0, 2], &[0, 3], &[4, 1]], 5);
        let view = CoverageView::build(&rc, 0..4);
        let costs = NodeCosts::per_node(vec![1.0, 0.1, 1.0, 1.0, 1.0].into());
        let cons = Selection { excluded: &[0], ..spec(1.0, &costs) };
        let r = view.select_with(&cons, Start::Fresh, &mut GreedyScratch::new());
        assert!(!r.seeds.contains(&0), "excluded node selected: {:?}", r.seeds);
    }

    #[test]
    fn leftover_budget_pads_with_affordable_zero_gain_nodes() {
        let rc = pool(&[&[0, 1], &[0, 2]], 6);
        let view = CoverageView::build(&rc, 0..2);
        let mut scratch = GreedyScratch::new();
        // Uniform, budget 4: node 0 covers everything, then 3 pads.
        let r = select(&view, 4.0, &NodeCosts::Uniform, &mut scratch);
        assert_eq!(r.seeds, vec![0, 1, 2, 3]);
        assert_eq!(r.marginal_gains, vec![2.0, 0.0, 0.0, 0.0]);
        assert_eq!(r.covered, 2.0);
        // Costly padding candidates are skipped when unaffordable.
        let costs: Vec<f64> = vec![1.0, 9.0, 1.0, 9.0, 1.0, 1.0];
        let r2 = select(&view, 3.0, &NodeCosts::per_node(costs.into()), &mut scratch);
        assert_eq!(r2.seeds, vec![0, 2, 4], "padding must skip nodes it cannot afford");
    }

    #[test]
    fn zero_budget_returns_nothing() {
        let rc = pool(&[&[0, 1]], 2);
        let view = CoverageView::build(&rc, 0..1);
        let r = select(&view, 0.0, &NodeCosts::Uniform, &mut GreedyScratch::new());
        assert!(r.seeds.is_empty());
        assert_eq!(r.covered, 0.0);
        assert_eq!(r.spent, 0.0);
    }

    #[test]
    fn cost_identity_semantics() {
        let a: Arc<[f64]> = vec![1.0, 2.0].into();
        let b: Arc<[f64]> = vec![1.0, 2.0].into();
        assert!(NodeCosts::Uniform.same_costs(&NodeCosts::Uniform));
        assert!(NodeCosts::per_node(a.clone()).same_costs(&NodeCosts::per_node(a.clone())));
        assert!(!NodeCosts::per_node(a.clone()).same_costs(&NodeCosts::per_node(b)));
        assert!(!NodeCosts::Uniform.same_costs(&NodeCosts::per_node(a)));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn nonpositive_costs_are_rejected() {
        let rc = pool(&[&[0]], 2);
        let view = CoverageView::build(&rc, 0..1);
        select(&view, 1.0, &NodeCosts::per_node(vec![1.0, 0.0].into()), &mut GreedyScratch::new());
    }

    #[test]
    #[should_panic(expected = "one cost per node")]
    fn wrong_length_costs_are_rejected() {
        let rc = pool(&[&[0]], 3);
        let view = CoverageView::build(&rc, 0..1);
        select(&view, 1.0, &NodeCosts::per_node(vec![1.0].into()), &mut GreedyScratch::new());
    }
}
