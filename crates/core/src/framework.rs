//! The unified RIS framework's two-step algorithm (§3.2).
//!
//! Every RIS method reduces to: (1) generate *some* number of RR sets,
//! (2) run greedy Max-Coverage. What distinguishes TIM/TIM+/IMM/SSA/D-SSA
//! is only *how many* sets step (1) produces. [`ris_fixed_pool`] is the
//! two-step algorithm with an explicitly given pool size; the baselines
//! (`sns-baselines`) drive it with their respective thresholds, and tests
//! use it as the "ground RIS" oracle.

// Sanctioned wall-clock read: report-only elapsed-time stat (see lint-allow.toml).
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use sns_rrset::{max_coverage, RrCollection};

use crate::bounds::certificate::StopCondition;
use crate::{RunResult, SamplingContext};

pub use crate::bounds::PriorThresholds as RisThresholds;

/// Runs the two-step RIS algorithm with a fixed pool of `num_sets` RR
/// sets: generate, then greedy Max-Coverage for `k` seeds.
pub fn ris_fixed_pool(ctx: &SamplingContext<'_>, k: usize, num_sets: u64) -> RunResult {
    let start = Instant::now();
    let mut pool = RrCollection::new(ctx.graph().num_nodes());
    pool.extend_parallel(&ctx.sampler(0), 0, num_sets, ctx.threads());
    let cover = max_coverage(&pool, k);
    let i_hat = cover.influence_estimate(ctx.gamma(), num_sets);
    RunResult {
        seeds: cover.seeds,
        influence_estimate: i_hat,
        rr_sets_main: num_sets,
        rr_sets_verify: 0,
        iterations: 1,
        hit_cap: false,
        stopping_rule: None,
        binding: StopCondition::Schedule,
        wall_time: start.elapsed(),
        peak_pool_bytes: pool.memory_bytes(),
        total_edges_examined: pool.total_edges_examined(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_diffusion::Model;
    use sns_graph::{gen, WeightModel};

    #[test]
    fn fixed_pool_runs_and_reports() {
        let g = gen::erdos_renyi(100, 600, 4).build(WeightModel::WeightedCascade).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(8);
        let r = ris_fixed_pool(&ctx, 3, 500);
        assert_eq!(r.seeds.len(), 3);
        assert_eq!(r.rr_sets_main, 500);
        assert!(r.influence_estimate >= 0.0);
        assert!(r.peak_pool_bytes > 0);
    }

    #[test]
    fn larger_pools_stabilize_the_estimate() {
        let g = gen::erdos_renyi(200, 1200, 4).build(WeightModel::WeightedCascade).unwrap();
        let ctx = SamplingContext::new(&g, Model::LinearThreshold).with_seed(8);
        // two big pools from different streams should agree more closely
        // than two small pools
        let big_a = ris_fixed_pool(&ctx.clone().with_seed(1), 3, 20_000).influence_estimate;
        let big_b = ris_fixed_pool(&ctx.clone().with_seed(2), 3, 20_000).influence_estimate;
        let small_a = ris_fixed_pool(&ctx.clone().with_seed(1), 3, 50).influence_estimate;
        let small_b = ris_fixed_pool(&ctx.clone().with_seed(2), 3, 50).influence_estimate;
        let big_gap = (big_a - big_b).abs();
        let small_gap = (small_a - small_b).abs();
        assert!(
            big_gap <= small_gap + 1.0,
            "big pools disagree more ({big_gap}) than small ({small_gap})"
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = gen::erdos_renyi(150, 900, 4).build(WeightModel::WeightedCascade).unwrap();
        let seq = ris_fixed_pool(
            &SamplingContext::new(&g, Model::IndependentCascade).with_seed(5).with_threads(1),
            4,
            2000,
        );
        let par = ris_fixed_pool(
            &SamplingContext::new(&g, Model::IndependentCascade).with_seed(5).with_threads(8),
            4,
            2000,
        );
        assert_eq!(seq.seeds, par.seeds);
        assert_eq!(seq.influence_estimate, par.influence_estimate);
    }
}
