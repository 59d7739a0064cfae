//! The stopping-rule certification engine: one audited code path for
//! every "can we stop yet?" decision SSA and D-SSA make.
//!
//! Before this module, the D1/D2 checks of Algorithm 4 lived in
//! `dssa.rs` and the S1/S2 checks of Algorithm 1 in `ssa.rs` as two
//! hand-rolled copies of the same statistical argument. A [`Certificate`]
//! now owns the coverage threshold `Λ₁`, the precision composition of
//! Eq. 18, and — the reason this module exists — the **rule selection**
//! that settles the D2 anchor dispute (`docs/DERIVATIONS.md` §4):
//!
//! * [`StoppingRule::Conservative`] — the PR-3 closed forms with the
//!   find-half size `Λ·2^(t−1)` in the ε₂/ε₃ denominators. This is the
//!   default and reproduces the repository's pinned sample counts
//!   bit-exactly. At the D1 anchor it *claims* ε₂ ≈ ε/√Λ — the smallest
//!   (most conservative) ε₂-value of the two readings, which composes to
//!   the smallest `ε_t` and therefore the **earliest stop**.
//! * [`StoppingRule::DssaFix`] — ε₂ solved numerically from the
//!   stopping-rule count `Cov_{R^c} ≥ (1+ε₂)·Υ(ε₂, δ′)` (Dagum et al.,
//!   as re-anchored by the D-SSA-Fix erratum after Huang et al.'s
//!   PVLDB'17 critique), with the analogous ε₃ anchor
//!   `ε₃ = ε₂·√((1−1/e−ε)/(1+ε₂/3))`. At the D1 anchor this certifies
//!   ε₂ ≈ ε: strictly more evidence is demanded before D2 may fire, so
//!   `DssaFix` never stops before `Conservative` on the same stream.
//!
//! The mechanical settlement (see [`certified_precision`] and the tests
//! below): coverage mass `c` certifies precision `Θ(√(ln(1/δ′)/c))`, so
//! the conservative claim ε/√Λ at `c = Λ₁` overshoots what the verify
//! half's evidence supports by √Λ — the conservative rule is the
//! *optimistic* reading, D-SSA-Fix the sound one. Both are kept: the
//! conservative rule for baseline continuity (its empirical quality is
//! untouched — the pinned fixtures select identical seeds), the
//! D-SSA-Fix rule for runs that must carry the certified
//! `(1 − 1/e − ε, 1 − δ)` guarantee at the corrected constants.
//!
//! ```
//! use sns_core::bounds::certificate::certified_precision;
//! use sns_core::bounds::upsilon;
//!
//! // The stopping-rule theorem in one line: coverage mass equal to the
//! // D1 threshold (1+ε)·Υ(ε, δ′) certifies precision ≈ ε, not ε/√Λ.
//! let (eps, delta) = (0.1, 0.01);
//! let cov = (1.0 + eps) * upsilon(eps, delta);
//! let certified = certified_precision(cov, delta);
//! assert!((certified - eps).abs() < 1e-9);
//! ```

use crate::bounds::{upsilon, ONE_MINUS_INV_E};
use crate::params::SsaEpsilons;

/// Which reading of the D2/S2 precision anchor a run certifies against.
///
/// See the module docs and `docs/DERIVATIONS.md` §4 for the settlement;
/// the short version: `Conservative` is the repository's historical
/// default (earliest stop, smallest pools, pinned baselines), `DssaFix`
/// is the erratum-corrected rule (strictly ≥ samples, certified
/// constants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StoppingRule {
    /// The PR-3 closed forms: `ε₂ = ε·√(Γ(1+ε)/(Λ·2^(t−1)·Î^c))` and the
    /// gap-adjusted ε₃, i.e. the find-half size in the denominator.
    /// Default; reproduces the pinned sample counts bit-exactly.
    #[default]
    Conservative,
    /// The D-SSA-Fix reading: ε₂ is the smallest precision the verify
    /// coverage *certifies* under the stopping-rule theorem,
    /// `Cov_{R^c} ≥ (1+ε₂)·Υ(ε₂, δ′)`, solved numerically per
    /// checkpoint; ε₃ uses the analogous gap-adjusted anchor.
    DssaFix,
}

impl StoppingRule {
    /// Short stable label used by benches and reports
    /// (`"conservative"` / `"dssa-fix"`).
    pub fn label(self) -> &'static str {
        match self {
            StoppingRule::Conservative => "conservative",
            StoppingRule::DssaFix => "dssa-fix",
        }
    }
}

impl std::fmt::Display for StoppingRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which check terminated (or was the last obstacle for) a run — the
/// "what was binding at stop" record the certification engine leaves in
/// [`crate::RunResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopCondition {
    /// The coverage threshold (D-SSA's D1 / SSA's S1) fired at the
    /// stopping iteration itself: coverage was the last obstacle, the
    /// precision check passed immediately once enough verify evidence
    /// existed.
    Coverage,
    /// Coverage had already been met at an earlier checkpoint; the
    /// precision composition (D2) or validation agreement (S2) was what
    /// delayed the stop.
    Precision,
    /// The nominal cap `Nmax` (or the iteration budget) terminated the
    /// run before the statistical conditions fired.
    Cap,
    /// No stopping rule was consulted: the algorithm runs a fixed,
    /// precomputed sample schedule (IMM, TIM/TIM+) or a non-RIS
    /// procedure.
    Schedule,
}

/// One evaluated precision check (condition D2): the dynamic ε-split the
/// rule derived from the checkpoint's evidence and the verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionCheck {
    /// `ε₁ = max(0, Î/Î^c − 1)` — the find/verify disagreement, clamped
    /// at 0: a verify half that *over*-estimates must not be allowed to
    /// deflate `ε_t` below what the Eq. 18 composition supports.
    pub e1: f64,
    /// ε₂ under the certificate's [`StoppingRule`].
    pub e2: f64,
    /// ε₃ under the certificate's [`StoppingRule`].
    pub e3: f64,
    /// The realized `ε_t = (ε₁+ε₂+ε₁ε₂)(1−1/e−ε) + (1−1/e)·ε₃`.
    pub eps_t: f64,
    /// The verify-half influence estimate `Î^c = Γ·Cov/|R^c|`.
    pub i_verify: f64,
    /// `ε_t ≤ ε` — condition D2 holds.
    pub satisfied: bool,
}

/// The per-run stopping certificate: target precision, per-checkpoint
/// failure budget, coverage threshold `Λ₁`, and the selected
/// [`StoppingRule`]. Constructed once per run ([`Certificate::dssa`] /
/// [`Certificate::ssa`]) and consulted at every checkpoint, so the two
/// algorithms share one audited code path for D1/S1 and D2/S2.
#[derive(Debug, Clone, Copy)]
pub struct Certificate {
    rule: StoppingRule,
    /// Target precision ε of the run.
    eps: f64,
    /// Per-checkpoint failure budget δ′ = δ/(3·tmax).
    delta_iter: f64,
    /// Universe mass Γ (`n` for IM, `Σ b(v)` for TVM).
    gamma: f64,
    /// Coverage threshold Λ₁ (D1/S1).
    lambda1: f64,
    /// `1 − 1/e − ε` (> 0 by parameter validation).
    approx_gap: f64,
    /// SSA's static split; `None` for D-SSA's dynamic derivation.
    split: Option<SsaEpsilons>,
}

impl Certificate {
    /// Certificate for a D-SSA run (Algorithm 4): `Λ₁ = 1 + (1+ε)·Υ(ε, δ′)`
    /// and a dynamic, per-checkpoint ε-split via [`Certificate::dssa_precision`].
    pub fn dssa(rule: StoppingRule, eps: f64, delta_iter: f64, gamma: f64) -> Self {
        Certificate {
            rule,
            eps,
            delta_iter,
            gamma,
            lambda1: 1.0 + (1.0 + eps) * upsilon(eps, delta_iter),
            approx_gap: ONE_MINUS_INV_E - eps,
            split: None,
        }
    }

    /// Certificate for an SSA run (Algorithm 1): the static split fixes
    /// `Λ₁ = (1+ε₁)(1+ε₂)·Υ(ε₃, δ′)` and the agreement check
    /// ([`Certificate::agreement`]). The [`StoppingRule`] is recorded but
    /// cannot change SSA's behavior — its split is chosen up front, so
    /// both readings coincide (property-tested in `tests/paper_claims.rs`).
    pub fn ssa(
        rule: StoppingRule,
        eps: f64,
        split: SsaEpsilons,
        delta_iter: f64,
        gamma: f64,
    ) -> Self {
        Certificate {
            rule,
            eps,
            delta_iter,
            gamma,
            lambda1: (1.0 + split.e1) * (1.0 + split.e2) * upsilon(split.e3, delta_iter),
            approx_gap: ONE_MINUS_INV_E - eps,
            split: Some(split),
        }
    }

    /// The rule this certificate evaluates under.
    pub fn rule(&self) -> StoppingRule {
        self.rule
    }

    /// The coverage threshold `Λ₁` of condition D1/S1.
    pub fn lambda1(&self) -> f64 {
        self.lambda1
    }

    /// Condition D1/S1: the (verify) coverage carries enough mass.
    pub fn coverage_met(&self, covered: u64) -> bool {
        covered as f64 >= self.lambda1
    }

    /// Condition D2: derives the dynamic `(ε₁, ε₂, ε₃)` from a D-SSA
    /// checkpoint — find-half estimate `i_find`, verify-half coverage
    /// `cov_verify` over `half` sets — and composes them per Eq. 18.
    ///
    /// `half` is both the find-half and verify-half size (`Λ·2^(t−1)`,
    /// possibly clamped by the `Nmax` cap on the final iteration).
    pub fn dssa_precision(&self, i_find: f64, cov_verify: u64, half: u64) -> PrecisionCheck {
        let i_c = self.gamma * cov_verify as f64 / half as f64;
        // Negative disagreement (verify over-estimates) must clamp to 0:
        // Eq. 18's composition assumes ε₁ ≥ 0, and a negative ε₁ would
        // deflate ε_t below what the evidence supports and fire D2 early.
        let e1 = (i_find / i_c - 1.0).max(0.0);
        let (e2, e3) = match self.rule {
            StoppingRule::Conservative => {
                // PR-3 closed forms, find-half size in the denominator.
                // Kept operation-for-operation identical to the pre-split
                // dssa.rs so the pinned counters stay bit-exact.
                let find_size = half as f64;
                let eps = self.eps;
                let e2 = eps * (self.gamma * (1.0 + eps) / (find_size * i_c)).sqrt();
                let e3 = eps
                    * (self.gamma * (1.0 + eps) * self.approx_gap
                        / ((1.0 + eps / 3.0) * find_size * i_c))
                        .sqrt();
                (e2, e3)
            }
            StoppingRule::DssaFix => {
                // ε₂: smallest precision the verify coverage certifies
                // under Cov ≥ (1+ε₂)·Υ(ε₂, δ′); ε₃: the analogous
                // gap-adjusted anchor (DERIVATIONS §4).
                let e2 = certified_precision(cov_verify as f64, self.delta_iter);
                let e3 = if e2.is_finite() {
                    e2 * (self.approx_gap / (1.0 + e2 / 3.0)).sqrt()
                } else {
                    f64::INFINITY
                };
                (e2, e3)
            }
        };
        let eps_t = (e1 + e2 + e1 * e2) * self.approx_gap + ONE_MINUS_INV_E * e3;
        PrecisionCheck { e1, e2, e3, eps_t, i_verify: i_c, satisfied: eps_t <= self.eps }
    }

    /// Condition S2: the pool estimate agrees with the independent
    /// validation within the static split's `(1 + ε₁)` slack.
    ///
    /// # Panics
    /// Panics if the certificate was built with [`Certificate::dssa`]
    /// (D-SSA has no static split; its agreement lives inside
    /// [`Certificate::dssa_precision`] as ε₁).
    pub fn agreement(&self, i_find: f64, i_verify: f64) -> bool {
        let split = self.split.expect("agreement() needs the SSA static split");
        i_find <= (1.0 + split.e1) * i_verify
    }
}

/// The smallest precision `ε` certified by `cov` units of coverage mass
/// at per-checkpoint confidence `1 − delta_iter`: the boundary of the
/// stopping-rule condition `cov ≥ (1+ε)·Υ(ε, δ′)` (Dagum–Karp–Luby–Ross,
/// as used by the D-SSA-Fix erratum), solved by bisection.
///
/// `(1+ε)·Υ(ε, δ′)` decreases monotonically from `∞` (ε → 0) to
/// `(2/3)·ln(1/δ′)` (ε → ∞), so the solution is unique when it exists;
/// coverage below that floor certifies nothing and yields
/// `f64::INFINITY` (the caller's D2 then cannot fire — correct, since
/// such a checkpoint carries no usable evidence).
pub fn certified_precision(cov: f64, delta_iter: f64) -> f64 {
    assert!(cov.is_finite(), "coverage must be finite, got {cov}");
    if cov <= 0.0 {
        return f64::INFINITY;
    }
    let demand = |e: f64| (1.0 + e) * upsilon(e, delta_iter);
    // Bracket the root: demand(lo) ≥ cov ≥ demand(hi).
    let mut lo = 1e-12_f64;
    while demand(lo) < cov {
        lo /= 4.0;
        if lo < 1e-300 {
            return lo; // cov astronomically large: certified ε ≈ 0
        }
    }
    let mut hi = 1.0_f64;
    while demand(hi) > cov {
        hi *= 2.0;
        if hi > 1e15 {
            return f64::INFINITY; // below the (2/3)·ln(1/δ′) floor
        }
    }
    // 200 halvings take |hi − lo| to f64 resolution; the loop is exact
    // and deterministic (no platform-dependent libm in the hot set).
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if demand(mid) > cov {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // hi is on the certified side (demand(hi) ≤ cov).
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 0.1;
    const DELTA_ITER: f64 = 0.003;

    #[test]
    fn certified_precision_inverts_the_demand_curve() {
        for &(eps, delta) in &[(0.05, 0.01), (0.1, 0.003), (0.3, 0.03), (0.5, 0.1), (0.02, 1e-6)] {
            let cov = (1.0 + eps) * upsilon(eps, delta);
            let back = certified_precision(cov, delta);
            assert!((back - eps).abs() < 1e-9, "eps {eps}, delta {delta}: got {back}");
        }
        // more coverage certifies tighter precision
        let a = certified_precision(1_000.0, 0.01);
        let b = certified_precision(4_000.0, 0.01);
        assert!(b < a, "4x coverage must certify tighter: {a} vs {b}");
        // ~1/√cov scaling in the small-ε regime
        assert!((a / b - 2.0).abs() < 0.1, "expected ~2x tightening, got {}", a / b);
    }

    #[test]
    fn certified_precision_edge_cases() {
        // below the (2/3)·ln(1/δ′) floor nothing is certified
        assert_eq!(certified_precision(0.5, 0.01), f64::INFINITY);
        assert_eq!(certified_precision(0.0, 0.01), f64::INFINITY);
        // astronomically large coverage certifies ~0 without looping forever
        let tiny = certified_precision(1e300, 0.01);
        assert!(tiny < 1e-12);
    }

    #[test]
    fn dssa_certificate_thresholds_match_algorithm_4() {
        let cert = Certificate::dssa(StoppingRule::Conservative, EPS, DELTA_ITER, 400.0);
        let want = 1.0 + (1.0 + EPS) * upsilon(EPS, DELTA_ITER);
        assert_eq!(cert.lambda1(), want);
        assert!(!cert.coverage_met(want as u64 - 1));
        assert!(cert.coverage_met(want.ceil() as u64));
    }

    #[test]
    fn ssa_certificate_thresholds_match_algorithm_1() {
        let split = SsaEpsilons::recommended(EPS);
        let cert = Certificate::ssa(StoppingRule::Conservative, EPS, split, DELTA_ITER, 400.0);
        let want = (1.0 + split.e1) * (1.0 + split.e2) * upsilon(split.e3, DELTA_ITER);
        assert_eq!(cert.lambda1(), want);
        // S2: agreement within (1+ε₁)
        assert!(cert.agreement(100.0, 100.0));
        assert!(cert.agreement(100.0 * (1.0 + split.e1) - 1e-9, 100.0));
        assert!(!cert.agreement(100.0 * (1.0 + split.e1) + 1e-6, 100.0));
    }

    #[test]
    fn conservative_matches_pr3_closed_forms() {
        let gamma = 400.0;
        let cert = Certificate::dssa(StoppingRule::Conservative, EPS, DELTA_ITER, gamma);
        let (half, cov) = (2_398_u64, 1_589_u64);
        let check = cert.dssa_precision(260.0, cov, half);
        let i_c = gamma * cov as f64 / half as f64;
        let gap = ONE_MINUS_INV_E - EPS;
        let want_e2 = EPS * (gamma * (1.0 + EPS) / (half as f64 * i_c)).sqrt();
        let want_e3 =
            EPS * (gamma * (1.0 + EPS) * gap / ((1.0 + EPS / 3.0) * half as f64 * i_c)).sqrt();
        assert_eq!(check.e2, want_e2);
        assert_eq!(check.e3, want_e3);
        assert_eq!(check.i_verify, i_c);
        let e1 = (260.0 / i_c - 1.0_f64).max(0.0);
        assert_eq!(check.e1, e1);
        assert_eq!(check.eps_t, (e1 + want_e2 + e1 * want_e2) * gap + ONE_MINUS_INV_E * want_e3);
    }

    #[test]
    fn dssafix_certifies_eps_at_the_d1_anchor_conservative_claims_root_lambda_less() {
        // The §4 settlement in numbers: at Cov = Λ₁ the stopping-rule
        // count supports ε₂ ≈ ε, while the conservative closed form
        // claims ε₂ ≈ ε/√Λ — optimistic by √Λ.
        let gamma = 400.0;
        let lambda = upsilon(EPS, DELTA_ITER); // ≈ Λ
        let cons = Certificate::dssa(StoppingRule::Conservative, EPS, DELTA_ITER, gamma);
        let fix = Certificate::dssa(StoppingRule::DssaFix, EPS, DELTA_ITER, gamma);
        let cov = cons.lambda1().ceil() as u64; // the D1 anchor
        let half = 2 * lambda.ceil() as u64; // a t = 2 checkpoint
        let i_find = gamma * cov as f64 / half as f64; // ε₁ = 0
        let c = cons.dssa_precision(i_find, cov, half);
        let f = fix.dssa_precision(i_find, cov, half);
        assert!((f.e2 - EPS).abs() / EPS < 0.05, "DssaFix anchor: e2 = {}", f.e2);
        let claimed_ratio = f.e2 / c.e2;
        assert!(
            (claimed_ratio / lambda.sqrt() - 1.0).abs() < 0.25,
            "conservative optimism should be ~√Λ = {:.1}, got {claimed_ratio:.1}",
            lambda.sqrt()
        );
        // identical evidence: DssaFix must be the harder test to pass
        assert!(f.eps_t > c.eps_t);
    }

    #[test]
    fn dssafix_eps3_uses_the_gap_adjusted_anchor() {
        let cert = Certificate::dssa(StoppingRule::DssaFix, EPS, DELTA_ITER, 400.0);
        let check = cert.dssa_precision(100.0, 5_000, 10_000);
        let gap = ONE_MINUS_INV_E - EPS;
        let want_e3 = check.e2 * (gap / (1.0 + check.e2 / 3.0)).sqrt();
        assert!((check.e3 - want_e3).abs() < 1e-15);
        assert!(check.e3 < check.e2, "the gap shrinks ε₃ below ε₂ for ε < 1 − 1/e");
    }

    #[test]
    fn precision_clamps_negative_disagreement() {
        let cert = Certificate::dssa(StoppingRule::Conservative, EPS, DELTA_ITER, 400.0);
        // verify half over-estimates: Î < Î^c ⇒ raw ε₁ < 0 ⇒ clamp to 0
        let cov = 5_000_u64;
        let half = 10_000_u64;
        let i_c = 400.0 * cov as f64 / half as f64;
        let check = cert.dssa_precision(0.9 * i_c, cov, half);
        assert_eq!(check.e1, 0.0);
        // and the composition must not dip below the pure ε₂/ε₃ floor
        let gap = ONE_MINUS_INV_E - EPS;
        assert_eq!(check.eps_t, check.e2 * gap + ONE_MINUS_INV_E * check.e3);
    }

    #[test]
    fn no_usable_evidence_never_satisfies_d2() {
        // coverage below the certification floor: DssaFix must refuse
        let cert = Certificate::dssa(StoppingRule::DssaFix, EPS, DELTA_ITER, 400.0);
        let check = cert.dssa_precision(1.0, 1, 1_000_000);
        assert!(check.e2.is_infinite());
        assert!(!check.satisfied);
    }

    #[test]
    fn rule_labels_are_stable() {
        assert_eq!(StoppingRule::default(), StoppingRule::Conservative);
        assert_eq!(StoppingRule::Conservative.label(), "conservative");
        assert_eq!(StoppingRule::DssaFix.to_string(), "dssa-fix");
    }
}
