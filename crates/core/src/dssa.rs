//! The Dynamic Stop-and-Stare Algorithm — Algorithm 4 of the paper.

// Sanctioned wall-clock read: report-only elapsed-time stat (see lint-allow.toml).
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use sns_rrset::{max_coverage_with, GreedyScratch, RrCollection};

use crate::bounds::certificate::{Certificate, StopCondition, StoppingRule};
use crate::bounds::{self, upsilon};
use crate::{CoreError, Params, RunResult, SamplingContext};

/// Dynamic Stop-and-Stare: like [`crate::Ssa`] but with the precision
/// split `(ε₁, ε₂, ε₃)` computed *from the data* at every checkpoint, and
/// a single sample stream whose verification half is recycled into the
/// next iteration's find half.
///
/// At iteration `t` the stream's first `Λ·2^(t−1)` sets (`R_t`) feed
/// Max-Coverage and the next `Λ·2^(t−1)` sets (`R^c_t`) verify the
/// candidate. Both stopping checks are evaluated by the run's
/// [`Certificate`] (`bounds::certificate` — one audited code path shared
/// with SSA):
///
/// * **D1** `Cov_{R^c_t}(Ŝ_k) ≥ Λ₁` — the verify half carries enough
///   coverage for an (ε, δ/3tmax)-estimate of `I(Ŝ_k)` (stopping-rule
///   condition of Dagum et al.);
/// * **D2** `ε_t = (ε₁ + ε₂ + ε₁ε₂)(1 − 1/e − ε) + (1 − 1/e)ε₃ ≤ ε` with
///   `ε₁ = max(0, Î_t/Î^c_t − 1)` and ε₂/ε₃ depending on the selected
///   [`StoppingRule`] (`Params::rule`):
///   - [`StoppingRule::Conservative`] (default): the closed forms
///     `ε₂ = ε·√(Γ(1+ε)/(Λ·2^(t−1)·Î^c_t))`,
///     `ε₃ = ε·√(Γ(1+ε)(1−1/e−ε)/((1+ε/3)·Λ·2^(t−1)·Î^c_t))` — the
///     find-half size in the denominator, i.e. the repository's
///     historical (PR-3) rule, kept bit-exact;
///   - [`StoppingRule::DssaFix`]: ε₂ solved numerically from the
///     stopping-rule count `Cov_{R^c_t} ≥ (1+ε₂)·Υ(ε₂, δ/3tmax)` with
///     the analogous gap-adjusted ε₃ — the erratum-corrected anchor,
///     which demands strictly more evidence (never stops earlier than
///     the conservative rule; `docs/DERIVATIONS.md` §4 settles the
///     dispute and quantifies the gap at √Λ).
///
/// The final pool extension is clamped at `⌈Nmax⌉` — the doubling
/// schedule is not allowed to overshoot the nominal cap by up to 2× as
/// an earlier revision did.
///
/// D-SSA achieves the **type-2 minimum threshold** — the fewest samples
/// any RIS-framework algorithm can use — within a constant factor
/// (Theorem 6); empirically it needs no parameter tuning, which is why it
/// dominates SSA on every network in the paper's §7.
#[derive(Debug, Clone)]
pub struct Dssa {
    params: Params,
}

/// One stop-and-stare checkpoint of a D-SSA run, as recorded by
/// [`Dssa::run_traced`]: the dynamically derived precision split and the
/// realized `ε_t` that condition D2 compares against ε.
#[derive(Debug, Clone, PartialEq)]
pub struct DssaIteration {
    /// Iteration index `t` (1-based).
    pub t: u32,
    /// Pool size `|R_t| + |R^c_t| = Λ·2^t` at this checkpoint (clamped
    /// at `⌈Nmax⌉` on a cap-hitting final iteration).
    pub pool_size: u64,
    /// Influence estimate from the find half.
    pub influence_find: f64,
    /// Influence estimate from the verify half (`None` while condition
    /// D1 — enough verify coverage — has not fired yet).
    pub influence_verify: Option<f64>,
    /// Dynamic `(ε₁, ε₂, ε₃)` (only once D1 holds). ε₁ is clamped at 0;
    /// ε₂/ε₃ follow [`DssaIteration::rule`].
    pub epsilons: Option<(f64, f64, f64)>,
    /// The realized `ε_t` checked against ε (only once D1 holds).
    pub eps_t: Option<f64>,
    /// The stopping rule this checkpoint was evaluated under.
    pub rule: StoppingRule,
}

impl Dssa {
    /// D-SSA for the given `(k, ε, δ)` — no further tuning exists, by
    /// design.
    pub fn new(params: Params) -> Self {
        Dssa { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> Params {
        self.params
    }

    /// Runs D-SSA and returns the seed set with run statistics.
    pub fn run(&self, ctx: &SamplingContext<'_>) -> Result<RunResult, CoreError> {
        self.run_inner(ctx, None)
    }

    /// Like [`Dssa::run`], additionally recording every checkpoint's
    /// dynamic ε-split and realized `ε_t` — the §6 story made visible
    /// (see `examples/convergence.rs` in the repository root).
    pub fn run_traced(
        &self,
        ctx: &SamplingContext<'_>,
    ) -> Result<(RunResult, Vec<DssaIteration>), CoreError> {
        let mut trace = Vec::new();
        let result = self.run_inner(ctx, Some(&mut trace))?;
        Ok((result, trace))
    }

    fn run_inner(
        &self,
        ctx: &SamplingContext<'_>,
        mut trace: Option<&mut Vec<DssaIteration>>,
    ) -> Result<RunResult, CoreError> {
        let start = Instant::now();
        let n = ctx.graph().num_nodes() as u64;
        let k = self.params.k.min(n as usize);
        let eps = self.params.epsilon;
        let delta = self.params.delta;
        let gamma = ctx.gamma();

        let n_max = bounds::nmax(n, k as u64, eps, delta, ctx.cap_ratio(k));
        let t_max = bounds::max_iterations(n_max, eps, delta);
        let delta_iter = delta / (3.0 * f64::from(t_max));
        let lambda = upsilon(eps, delta_iter).ceil().max(1.0) as u64;
        // D1's Λ₁ threshold and D2's rule-dependent ε-split: one audited
        // code path shared with SSA.
        let cert = Certificate::dssa(self.params.rule, eps, delta_iter, gamma);
        // The last extension must not overshoot the nominal cap: the
        // schedule is clamped at ⌈Nmax⌉ sets (kept even so the find and
        // verify halves stay equal-sized). `as` saturates for the huge
        // Nmax of large instances, where the clamp never binds.
        let cap_sets = (n_max.ceil() as u64).max(2) & !1;

        let mut pool = RrCollection::new(ctx.graph().num_nodes());
        let sampler = ctx.sampler(0);
        // One selection scratch for the whole run: the per-round coverage
        // view's gain/heap/stamp buffers stay at high-water capacity.
        let mut cover_scratch = GreedyScratch::new();
        let mut scratch = Vec::new();
        let mut peak_bytes = 0u64;
        let mut coverage_first_met = None;
        let mut last = None;

        for t in 1..=t_max {
            let scheduled = 2 * lambda
                .checked_shl(t - 1)
                .expect("pool target overflow: Nmax bounds preclude this");
            let full = scheduled.min(cap_sets);
            let half = full / 2;
            let have = pool.len() as u64;
            if full > have {
                pool.extend_parallel(&sampler, have, full - have, ctx.threads());
            }
            peak_bytes = peak_bytes.max(pool.memory_bytes());

            // Find on the first half, verify on the second.
            let cover = max_coverage_with(&pool, k, 0..half as u32, &mut cover_scratch);
            let i_t = cover.influence_estimate(gamma, half);
            let cov_c =
                pool.coverage_of_range(&cover.seeds, half as u32..full as u32, &mut scratch);

            let mut stop = false;
            let mut record = DssaIteration {
                t,
                pool_size: full,
                influence_find: i_t,
                influence_verify: None,
                epsilons: None,
                eps_t: None,
                rule: cert.rule(),
            };
            if cert.coverage_met(cov_c) {
                // Condition D1 met: derive the dynamic ε-split under the
                // selected rule and check condition D2.
                coverage_first_met.get_or_insert(t);
                let check = cert.dssa_precision(i_t, cov_c, half);
                record.influence_verify = Some(check.i_verify);
                record.epsilons = Some((check.e1, check.e2, check.e3));
                record.eps_t = Some(check.eps_t);
                stop = check.satisfied;
            }
            if let Some(sink) = trace.as_deref_mut() {
                sink.push(record);
            }

            // Capped once the pool reaches the clamp bound (it can never
            // grow past `cap_sets`, so `full == cap_sets` means every
            // later iteration would rescan an unchanged pool) or Nmax.
            let hit_cap = full >= cap_sets || full as f64 >= n_max;
            let binding = if stop {
                if coverage_first_met == Some(t) {
                    StopCondition::Coverage
                } else {
                    StopCondition::Precision
                }
            } else {
                StopCondition::Cap
            };
            last = Some(RunResult {
                seeds: cover.seeds,
                influence_estimate: i_t,
                rr_sets_main: full,
                rr_sets_verify: 0, // the verify half is recycled, not extra
                iterations: t,
                hit_cap: hit_cap && !stop,
                stopping_rule: Some(cert.rule()),
                binding,
                wall_time: start.elapsed(),
                peak_pool_bytes: peak_bytes,
                total_edges_examined: pool.total_edges_examined(),
            });
            if stop || hit_cap {
                break;
            }
        }

        last.ok_or_else(|| CoreError::InvalidParams("no iterations executed".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::ONE_MINUS_INV_E;
    use sns_diffusion::Model;
    use sns_graph::{gen, Graph, GraphBuilder, WeightModel};

    fn dominated_graph() -> Graph {
        let mut b = GraphBuilder::new();
        for v in 1..60 {
            b.add_edge(0, v, 1.0);
        }
        for v in 1..59 {
            b.add_edge(v, v + 1, 0.05);
        }
        b.build(WeightModel::Provided).unwrap()
    }

    #[test]
    fn finds_the_dominating_seed() {
        let g = dominated_graph();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(1);
        let r = Dssa::new(Params::new(1, 0.3, 0.1).unwrap()).run(&ctx).unwrap();
        assert_eq!(r.seeds, vec![0]);
        assert!(!r.hit_cap);
        assert!((r.influence_estimate - 60.0).abs() < 10.0, "Î = {}", r.influence_estimate);
        assert_eq!(r.rr_sets_verify, 0, "D-SSA recycles its verify half");
    }

    #[test]
    fn deterministic_and_thread_invariant() {
        let g = gen::erdos_renyi(400, 2400, 3).build(WeightModel::WeightedCascade).unwrap();
        let params = Params::new(5, 0.3, 0.1).unwrap();
        let r1 = Dssa::new(params)
            .run(&SamplingContext::new(&g, Model::LinearThreshold).with_seed(9).with_threads(1))
            .unwrap();
        let r2 = Dssa::new(params)
            .run(&SamplingContext::new(&g, Model::LinearThreshold).with_seed(9).with_threads(4))
            .unwrap();
        assert_eq!(r1.seeds, r2.seeds);
        assert_eq!(r1.rr_sets_main, r2.rr_sets_main);
    }

    #[test]
    fn uses_fewer_or_similar_samples_than_ssa() {
        // The headline claim (type-2 vs type-1 threshold): D-SSA's total
        // sample count should not exceed SSA's by more than a small
        // factor, and usually beats it.
        let g = gen::rmat(2000, 12_000, gen::RmatParams::GRAPH500, 7)
            .build(WeightModel::WeightedCascade)
            .unwrap();
        let params = Params::new(10, 0.3, 0.1).unwrap();
        let ctx = SamplingContext::new(&g, Model::LinearThreshold).with_seed(5);
        let d = Dssa::new(params).run(&ctx).unwrap();
        let s = crate::Ssa::new(params).run(&ctx).unwrap();
        assert!(
            d.rr_sets_total() <= 2 * s.rr_sets_total(),
            "D-SSA used {} sets vs SSA {}",
            d.rr_sets_total(),
            s.rr_sets_total()
        );
    }

    #[test]
    fn weighted_universe_supported() {
        // TVM through the same code path: weight only nodes 0..10.
        let g = gen::erdos_renyi(200, 1000, 2).build(WeightModel::WeightedCascade).unwrap();
        let mut w = vec![0.0f64; 200];
        for slot in w.iter_mut().take(10) {
            *slot = 1.0;
        }
        let ctx = SamplingContext::new(&g, Model::IndependentCascade)
            .with_seed(3)
            .with_weighted_roots(&w)
            .unwrap();
        let r = Dssa::new(Params::new(3, 0.3, 0.1).unwrap()).run(&ctx).unwrap();
        assert_eq!(r.seeds.len(), 3);
        // targeted influence can be at most Γ = 10
        assert!(r.influence_estimate <= 10.0 * 1.3);
    }

    #[test]
    fn traced_run_matches_plain_run_and_exposes_epsilons() {
        let g = gen::erdos_renyi(400, 2400, 3).build(WeightModel::WeightedCascade).unwrap();
        let params = Params::new(5, 0.3, 0.1).unwrap();
        let ctx = SamplingContext::new(&g, Model::LinearThreshold).with_seed(9);
        let plain = Dssa::new(params).run(&ctx).unwrap();
        let (traced, trace) = Dssa::new(params).run_traced(&ctx).unwrap();
        // identical up to wall-clock time
        assert_eq!(plain.seeds, traced.seeds);
        assert_eq!(plain.influence_estimate, traced.influence_estimate);
        assert_eq!(plain.rr_sets_main, traced.rr_sets_main);
        assert_eq!(plain.iterations, traced.iterations);
        assert_eq!(plain.total_edges_examined, traced.total_edges_examined);
        assert_eq!(trace.len() as u32, traced.iterations);
        // the final checkpoint must have fired D1 + D2 (no cap hit here)
        let last = trace.last().unwrap();
        assert!(!traced.hit_cap);
        let eps_t = last.eps_t.expect("D1 fired at the stopping iteration");
        assert!(eps_t <= 0.3, "stopping eps_t = {eps_t}");
        // Pin the Λ-corrected Algorithm-4 split: each passing checkpoint's
        // ε₂/ε₃ must equal the closed forms with the *find-half size*
        // Λ·2^(t−1) = pool_size/2 in the denominator. (The Λ-dropped
        // variant this repairs yields values √Λ ≈ 12× larger here.)
        let gamma = 400.0;
        let (eps, gap) = (0.3, ONE_MINUS_INV_E - 0.3);
        for r in &trace {
            let Some((_, e2, e3)) = r.epsilons else { continue };
            let half = r.pool_size as f64 / 2.0;
            let i_c = r.influence_verify.expect("epsilons imply D1 fired");
            let want_e2 = eps * (gamma * (1.0 + eps) / (half * i_c)).sqrt();
            let want_e3 =
                eps * (gamma * (1.0 + eps) * gap / ((1.0 + eps / 3.0) * half * i_c)).sqrt();
            assert!((e2 - want_e2).abs() < 1e-12, "e2 = {e2}, want {want_e2}");
            assert!((e3 - want_e3).abs() < 1e-12, "e3 = {e3}, want {want_e3}");
            assert!(e2 < eps / 5.0, "Λ-corrected e2 must be far below ε, got {e2}");
        }
        // ε₂, ε₃ must shrink monotonically across D1-passing checkpoints
        let passing: Vec<_> = trace.iter().filter_map(|r| r.epsilons).collect();
        for w in passing.windows(2) {
            assert!(w[1].1 <= w[0].1 * 1.5, "e2 did not trend down: {passing:?}");
        }
        // pool sizes double
        for w in trace.windows(2) {
            assert_eq!(w[1].pool_size, 2 * w[0].pool_size);
        }
    }

    #[test]
    fn k_equals_n_selects_everyone() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.5);
        b.add_edge(1, 2, 0.5);
        let g = b.build(WeightModel::Provided).unwrap();
        let ctx = SamplingContext::new(&g, Model::LinearThreshold).with_seed(2);
        let r = Dssa::new(Params::new(3, 0.3, 0.2).unwrap()).run(&ctx).unwrap();
        let mut s = r.seeds.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2]);
    }
}
