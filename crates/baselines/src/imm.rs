//! IMM — "Influence Maximization in Near-Linear Time: A Martingale
//! Approach" (Tang, Shi, Xiao — SIGMOD'15).
//!
//! IMM is the best prior RIS algorithm and the main comparator of the
//! Stop-and-Stare paper. Two phases:
//!
//! 1. **Sampling** — estimate a lower bound `LB ≤ OPT_k` by testing the
//!    geometrically decreasing guesses `x = n/2^i`: for each guess,
//!    enlarge the pool to `θ_i = λ'/x` and accept
//!    `LB = n·F_R(S_i)/(1+ε')` once the greedy cover's estimate clears
//!    `(1+ε')·x`. Then enlarge the pool to `θ = λ*/LB`.
//! 2. **Node selection** — greedy Max-Coverage on the pool.
//!
//! Failure probability: IMM is parameterized by `l` with `δ = n^(−l)`;
//! we derive `l = ln(1/δ)/ln n` from the caller's δ and apply the
//! paper's `l ← l·(1 + ln 2/ln n)` correction so both phases jointly
//! fail with probability at most δ.
//!
//! Fidelity note: as in the original, the pool from phase 1 is *reused*
//! for node selection. Chen (2018) later observed this introduces a weak
//! dependence the martingale analysis glosses over; we reproduce the
//! original algorithm, since that is what the Stop-and-Stare paper
//! benchmarks against.

// Sanctioned wall-clock read: report-only elapsed-time stat (see lint-allow.toml).
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use sns_core::bounds::certificate::StopCondition;
use sns_core::bounds::{ln_choose, ONE_MINUS_INV_E};
use sns_core::{CoreError, Params, RunResult, SamplingContext};
use sns_rrset::{max_coverage_with, GreedyScratch, RrCollection};

/// The IMM algorithm.
#[derive(Debug, Clone)]
pub struct Imm {
    params: Params,
}

impl Imm {
    /// IMM for the given `(k, ε, δ)`.
    pub fn new(params: Params) -> Self {
        Imm { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> Params {
        self.params
    }

    /// Runs IMM and returns the seed set with run statistics.
    pub fn run(&self, ctx: &SamplingContext<'_>) -> Result<RunResult, CoreError> {
        let start = Instant::now();
        let n = ctx.graph().num_nodes() as u64;
        let nf = n as f64;
        let k = self.params.k.min(n as usize);
        let eps = self.params.epsilon;
        let gamma = ctx.gamma();

        // δ = n^{-l}  =>  l = ln(1/δ)/ln n, then the two-phase correction.
        let ln_n = nf.max(2.0).ln();
        let l = ((1.0 / self.params.delta).ln() / ln_n) * (1.0 + 2f64.ln() / ln_n);

        let lc = ln_choose(n, k as u64);
        let log2n = nf.log2().max(1.0);

        // Phase 1: LB estimation.
        let eps_prime = 2f64.sqrt() * eps;
        let lambda_prime = (2.0 + 2.0 * eps_prime / 3.0) * (lc + l * ln_n + log2n.ln()) * nf
            / (eps_prime * eps_prime);

        let mut pool = RrCollection::new(ctx.graph().num_nodes());
        let sampler = ctx.sampler(0);
        // Selection scratch shared by every LB-guess round and phase 2.
        let mut cover_scratch = GreedyScratch::new();
        let mut peak_bytes = 0u64;
        let mut iterations = 0u32;
        let mut lb = 1.0f64;

        let max_i = log2n.floor() as u32;
        for i in 1..max_i {
            iterations += 1;
            let x = nf / 2f64.powi(i as i32);
            let theta_i = (lambda_prime / x).ceil() as u64;
            let have = pool.len() as u64;
            if theta_i > have {
                pool.extend_parallel(&sampler, have, theta_i - have, ctx.threads());
            }
            peak_bytes = peak_bytes.max(pool.memory_bytes());
            let cover = max_coverage_with(&pool, k, pool.id_range(), &mut cover_scratch);
            let est = gamma * cover.covered as f64 / pool.len() as f64;
            if est >= (1.0 + eps_prime) * x {
                lb = est / (1.0 + eps_prime);
                break;
            }
        }

        // Phase 1b: final pool size θ = λ*/LB.
        let alpha = (l * ln_n + 2f64.ln()).sqrt();
        let beta = (ONE_MINUS_INV_E * (lc + l * ln_n + 2f64.ln())).sqrt();
        let lambda_star = 2.0 * nf * (ONE_MINUS_INV_E * alpha + beta).powi(2) / (eps * eps);
        let theta = (lambda_star / lb).ceil() as u64;
        let have = pool.len() as u64;
        if theta > have {
            pool.extend_parallel(&sampler, have, theta - have, ctx.threads());
        }
        peak_bytes = peak_bytes.max(pool.memory_bytes());
        iterations += 1;

        // Phase 2: node selection.
        let cover = max_coverage_with(&pool, k, pool.id_range(), &mut cover_scratch);
        let pool_size = pool.len() as u64;
        let i_hat = cover.influence_estimate(gamma, pool_size);

        Ok(RunResult {
            seeds: cover.seeds,
            influence_estimate: i_hat,
            rr_sets_main: pool_size,
            rr_sets_verify: 0,
            iterations,
            hit_cap: false,
            stopping_rule: None,
            binding: StopCondition::Schedule,
            wall_time: start.elapsed(),
            peak_pool_bytes: peak_bytes,
            total_edges_examined: pool.total_edges_examined(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_diffusion::Model;
    use sns_graph::{gen, GraphBuilder, WeightModel};

    #[test]
    fn finds_the_dominating_seed() {
        let mut b = GraphBuilder::new();
        for v in 1..40 {
            b.add_edge(0, v, 1.0);
        }
        for v in 1..39 {
            b.add_edge(v, v + 1, 0.05);
        }
        let g = b.build(WeightModel::Provided).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(1);
        let r = Imm::new(Params::new(1, 0.3, 0.1).unwrap()).run(&ctx).unwrap();
        assert_eq!(r.seeds, vec![0]);
        assert!((r.influence_estimate - 40.0).abs() < 8.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = gen::erdos_renyi(300, 1800, 4).build(WeightModel::WeightedCascade).unwrap();
        let params = Params::new(5, 0.3, 0.1).unwrap();
        let a = Imm::new(params)
            .run(&SamplingContext::new(&g, Model::LinearThreshold).with_seed(6))
            .unwrap();
        let b = Imm::new(params)
            .run(&SamplingContext::new(&g, Model::LinearThreshold).with_seed(6).with_threads(4))
            .unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.rr_sets_main, b.rr_sets_main);
    }

    #[test]
    fn uses_more_samples_than_dssa() {
        // The paper's Table 3 pattern: IMM's pool exceeds D-SSA's.
        let g = gen::rmat(2000, 12_000, gen::RmatParams::GRAPH500, 7)
            .build(WeightModel::WeightedCascade)
            .unwrap();
        let params = Params::new(50, 0.2, 0.05).unwrap();
        let ctx = SamplingContext::new(&g, Model::LinearThreshold).with_seed(5);
        let imm = Imm::new(params).run(&ctx).unwrap();
        let dssa = sns_core::Dssa::new(params).run(&ctx).unwrap();
        assert!(
            imm.rr_sets_main > dssa.rr_sets_total(),
            "IMM {} sets vs D-SSA {}",
            imm.rr_sets_main,
            dssa.rr_sets_total()
        );
    }

    #[test]
    fn quality_comparable_to_dssa() {
        let g = gen::rmat(1500, 9000, gen::RmatParams::GRAPH500, 3)
            .build(WeightModel::WeightedCascade)
            .unwrap();
        let params = Params::new(10, 0.3, 0.1).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(2);
        let imm = Imm::new(params).run(&ctx).unwrap();
        let dssa = sns_core::Dssa::new(params).run(&ctx).unwrap();
        // ground-truth spreads of both seed sets agree within the guarantee
        let est = sns_diffusion::SpreadEstimator::new(&g, Model::IndependentCascade);
        let si = est.estimate(&imm.seeds, 20_000, 99);
        let sd = est.estimate(&dssa.seeds, 20_000, 99);
        assert!((si - sd).abs() / si.max(sd) < 0.12, "IMM spread {si:.1} vs D-SSA spread {sd:.1}");
    }
}
