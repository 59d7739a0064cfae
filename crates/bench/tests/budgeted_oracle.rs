//! The exact-IP quality oracle for budgeted selection — the headline
//! test of the budgeted serving PR. An independent branch-and-bound
//! solver (`sns_bench::oracle`) computes the *exact* optimum of maximum
//! coverage under a knapsack budget on ≤20-node fixtures, and the
//! production ratio greedy must achieve at least the `1 − 1/√e`
//! fraction its guarantee promises (derived in `docs/DERIVATIONS.md`
//! §"Budgeted selection") on every cost/budget regime.

use sns_bench::oracle::{exact_on, fixtures, greedy_on, realized_gaps_permille};

/// `1 − 1/√e`: the approximation floor of max(ratio-greedy, best single
/// affordable node) for coverage under a knapsack constraint.
const GUARANTEE: f64 = 1.0 - 0.606_530_659_712_633_4; // 1/√e

#[test]
fn budgeted_greedy_meets_the_guarantee_on_every_regime() {
    let all = fixtures();
    assert!(all.len() >= 4, "at least four cost/budget regimes");
    for f in &all {
        let greedy = greedy_on(f);
        let exact = exact_on(f);
        assert!(exact > 0, "{}: degenerate fixture", f.name);
        assert!(greedy.covered <= exact as f64, "{}: greedy cannot beat the exact optimum", f.name);
        let ratio = greedy.covered / exact as f64;
        assert!(
            ratio >= GUARANTEE,
            "{}: greedy covered {} of exact {} — ratio {ratio:.4} below the 1 − 1/√e floor",
            f.name,
            greedy.covered,
            exact
        );
        assert!(greedy.spent <= f.budget, "{}: budget overrun ({})", f.name, greedy.spent);
        // Realized gap, recorded so a quality regression that stays
        // above the floor is still visible in the test log.
        println!(
            "oracle {}: greedy {} / exact {} = {:.1}% (floor {:.1}%), fallback: {}",
            f.name,
            greedy.covered,
            exact,
            ratio * 100.0,
            GUARANTEE * 100.0,
            greedy.single_fallback
        );
    }
}

#[test]
fn realized_gaps_are_deterministic_and_above_the_floor() {
    let gaps = realized_gaps_permille();
    assert_eq!(gaps, realized_gaps_permille(), "oracle gaps must replay identically");
    let floor_permille = (GUARANTEE * 1000.0) as u64;
    for (name, permille) in &gaps {
        assert!(*permille >= floor_permille, "{name}: {permille}‰ below floor");
        assert!(*permille <= 1000, "{name}: greedy above exact?");
    }
    // On these fixtures greedy is near-optimal on at least one friendly
    // regime — a sanity check that the fixtures aren't all adversarial —
    // and strictly suboptimal on at least one adversarial regime, so
    // oracle/greedy agreement elsewhere is evidence, not tautology.
    assert!(gaps.iter().any(|(_, p)| *p == 1000), "{gaps:?}");
    assert!(gaps.iter().any(|(_, p)| *p < 1000), "{gaps:?}");
}

#[test]
fn exact_oracle_degenerates_to_top_k_under_uniform_costs() {
    // On the uniform-costs regime the knapsack is a cardinality bound:
    // the production engine's budgeted answer, the plain top-k answer
    // and the exact IP must agree on the covered count's bound.
    let f = fixtures().into_iter().find(|f| f.name == "uniform-costs").unwrap();
    let greedy = greedy_on(&f);
    let exact = exact_on(&f);
    assert_eq!(greedy.seeds.len(), f.budget as usize, "uniform costs spend 1.0 per seed");
    assert!(greedy.covered <= exact as f64);
    assert!(!greedy.single_fallback);
}
