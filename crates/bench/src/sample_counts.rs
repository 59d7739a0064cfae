//! Deterministic counters — the mechanical guard for the Λ-regression
//! bug class and, since PR 4, for the serving cache policy.
//!
//! PR 3 fixed D-SSA's stopping rule dropping the Λ factor from its
//! ε₂/ε₃ denominators (~4× over-sampling on D2-bound instances). Timing
//! benches would never have caught it — the code was *fast*, it just
//! sampled too much — but the realized RR-set totals are fully
//! deterministic (seeded RNG streams, thread-invariant pools), so they
//! can be diffed exactly against checked-in baselines. [`counters`]
//! computes the totals on the `tests/paper_claims.rs` regression
//! fixtures — under both stopping rules since PR 5, so a drift in either
//! the historical `Conservative` anchor or the erratum-anchored
//! `DssaFix` one is caught — plus the cache hit/miss/evict counters of a fixed
//! grow-while-serving query script (`serving_counters` — the same bug
//! class in serving clothes: a cache that silently stops hitting stays
//! exactly as *correct* and exactly as slow as no cache). The
//! `bench_diff` binary compares them in CI (a hard gate), and the
//! `query_engine` bench embeds them in `BENCH_query_engine.json`.

use sns_core::{
    Dssa, Params, QueryStats, Recovery, SamplingContext, SeedQuery, SeedQueryEngine, Ssa,
    StoppingRule,
};
use sns_diffusion::Model;
use sns_graph::{gen, WeightModel};
use sns_tvm::TargetWeights;

use crate::traffic::{simulate, TrafficConfig};

/// Cache counters of a fixed grow-while-serving script: sample 2000
/// sets, then three rounds of (repeated full-pool queries + a ranged
/// query + two same-topic weighted queries + a 1000-set extension).
/// Deterministic: seeded streams, sequential answering, no
/// criterion-iteration influence.
fn serving_counters() -> Vec<(&'static str, u64)> {
    let g = gen::erdos_renyi(500, 3000, 11).build(WeightModel::WeightedCascade).unwrap();
    let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(11);
    let engine = SeedQueryEngine::sample(&ctx, 2000);
    let topic = TargetWeights::synthetic_topic(&g, 0.1, 1.0, 7).expect("valid topic");
    for _ in 0..3 {
        engine.answer(&SeedQuery::top_k(20)).expect("valid query");
        engine.answer(&SeedQuery::top_k(20)).expect("valid query");
        engine.answer(&SeedQuery::top_k(10).over_range(0..1000)).expect("valid query");
        engine.answer(&topic.seed_query(10)).expect("valid query");
        engine.answer(&topic.seed_query(10)).expect("valid query");
        engine.grower().extend(&ctx, 1000);
    }
    let QueryStats {
        snapshot_hits,
        snapshot_misses,
        weighted_hits,
        weighted_misses,
        evictions,
        epochs_frozen,
        merges,
        ..
    } = engine.stats();
    vec![
        ("query_engine_grow_snapshot_hits", snapshot_hits),
        ("query_engine_grow_snapshot_misses", snapshot_misses),
        ("query_engine_grow_weighted_hits", weighted_hits),
        ("query_engine_grow_weighted_misses", weighted_misses),
        ("query_engine_grow_evictions", evictions),
        ("query_engine_grow_epochs_frozen", epochs_frozen),
        ("query_engine_grow_merges", merges),
    ]
}

/// Store-robustness counters of a fixed crash-recovery script: bake a
/// 4-epoch pool (4 × 250 sets, ER(300, 1800), IC, seed 13), flip one
/// payload bit in the newest segment on disk, and count what the
/// recovering loader keeps and loses. Fully deterministic — no timing
/// is involved, only the recovery *outcome*; a regression that makes
/// recovery keep fewer (or claim more) epochs than the damage warrants
/// shows up as an exact counter drift.
fn store_counters() -> Vec<(&'static str, u64)> {
    let g = gen::erdos_renyi(300, 1800, 13).build(WeightModel::WeightedCascade).unwrap();
    let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(13);
    let engine = SeedQueryEngine::sample(&ctx, 250);
    for _ in 0..3 {
        engine.grower().extend(&ctx, 250);
    }
    let dir = std::env::temp_dir().join(format!("sns-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    engine.save(&dir).expect("store save succeeds");

    let segment = dir.join("epoch-00003.rr");
    let mut bytes = std::fs::read(&segment).expect("newest segment exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&segment, &bytes).expect("rewrite damaged segment");

    let (recovered, recovery) =
        SeedQueryEngine::from_store_recovering(&dir, &ctx).expect("valid prefix recovers");
    let lost = match recovery {
        Recovery::Recovered { epochs_lost, .. } => u64::from(epochs_lost),
        Recovery::Intact => 0,
    };
    let _ = std::fs::remove_dir_all(&dir);
    vec![
        ("store_recovered_epochs", recovered.pool().epoch_boundaries().len() as u64),
        ("store_lost_epochs", lost),
    ]
}

/// Serving-front-end counters of the three CI traffic scenarios
/// ([`TrafficConfig::ci`], [`TrafficConfig::ci_budgeted`] and
/// [`TrafficConfig::ci_concurrent`]), named `traffic_sim_*`,
/// `traffic_budgeted_*` and `traffic_concurrent_*`: arrivals, serves,
/// typed rejects, expiries, planner groups, snapshot resolutions saved,
/// growth acknowledgements and virtual-clock sojourn percentiles.
/// Deterministic by construction — admission and planning run on the
/// virtual cost clock before any parallel execution, and the serving
/// side learns the pool length only from growth acknowledgements — so
/// `bench_diff` can track them exactly while wall-clock latency stays
/// report-only.
fn traffic_counters() -> Vec<(String, u64)> {
    [
        ("traffic_sim_", TrafficConfig::ci()),
        ("traffic_budgeted_", TrafficConfig::ci_budgeted()),
        ("traffic_concurrent_", TrafficConfig::ci_concurrent()),
    ]
    .into_iter()
    .flat_map(|(prefix, cfg)| {
        simulate(&cfg).counters.into_iter().map(move |(name, v)| (format!("{prefix}{name}"), v))
    })
    .collect()
}

/// Realized budgeted-greedy / exact-IP coverage ratios, in permille, on
/// the oracle fixtures ([`crate::oracle`]) — deterministic *quality*
/// counters: both sides are pure functions of the fixtures, so a greedy
/// regression that stays above the `1 − 1/√e` floor (≈ 393‰, asserted
/// by `tests/budgeted_oracle.rs`) still shows up as an exact drift here.
fn oracle_gap_counters() -> Vec<(String, u64)> {
    // fixture "cheap-hubs" -> counter "budgeted_oracle_cheap_hubs_permille"
    crate::oracle::realized_gaps_permille()
        .into_iter()
        .map(|(name, permille)| {
            (format!("budgeted_oracle_{}_permille", name.replace('-', "_")), permille)
        })
        .collect()
}

/// The tracked `(name, value)` counters, recomputed from scratch
/// (seconds of work; all streams seeded). Names are stable — `bench_diff`
/// fails on a counter without a baseline entry until it is recorded
/// with `--write`.
pub fn counters() -> Vec<(String, u64)> {
    // Fixture A: the D2-bound instance of the Λ regression test —
    // ER(400, 2400), IC, k = 80, ε = 0.1, δ = 0.1. Pre-fix: 19184.
    let er = gen::erdos_renyi(400, 2400, 3).build(WeightModel::WeightedCascade).unwrap();
    let params_a = Params::new(80, 0.1, 0.1).unwrap();
    let ctx_a = SamplingContext::new(&er, Model::IndependentCascade).with_seed(9);
    let dssa_er = Dssa::new(params_a).run(&ctx_a).unwrap();
    let ssa_er = Ssa::new(params_a).run(&ctx_a).unwrap();
    // The same fixture under the erratum-anchored rule (PR 5): the
    // re-anchoring is tracked exactly like the PR-3 fix was. On this
    // D2-bound instance DssaFix recovers the pre-PR-3 total (19184).
    let dssa_er_fix =
        Dssa::new(params_a.with_stopping_rule(StoppingRule::DssaFix)).run(&ctx_a).unwrap();

    // Fixture B: the D1-bound instance — RMAT(2000, 12000), LT, k = 10,
    // ε = 0.3, δ = 0.1. The fix must leave it untouched (1200) — and so
    // must the DssaFix rule (coverage, not precision, is binding).
    let rmat = gen::rmat(2000, 12_000, gen::RmatParams::GRAPH500, 7)
        .build(WeightModel::WeightedCascade)
        .unwrap();
    let params_b = Params::new(10, 0.3, 0.1).unwrap();
    let ctx_b = SamplingContext::new(&rmat, Model::LinearThreshold).with_seed(5);
    let dssa_rmat = Dssa::new(params_b).run(&ctx_b).unwrap();
    let ssa_rmat = Ssa::new(params_b).run(&ctx_b).unwrap();
    let dssa_rmat_fix =
        Dssa::new(params_b.with_stopping_rule(StoppingRule::DssaFix)).run(&ctx_b).unwrap();

    let algorithms = vec![
        ("dssa_er_ic_k80_rr_sets_total", dssa_er.rr_sets_total()),
        ("dssa_er_ic_k80_rr_sets_total_dssafix", dssa_er_fix.rr_sets_total()),
        ("ssa_er_ic_k80_rr_sets_total", ssa_er.rr_sets_total()),
        ("dssa_rmat_lt_k10_rr_sets_total", dssa_rmat.rr_sets_total()),
        ("dssa_rmat_lt_k10_rr_sets_total_dssafix", dssa_rmat_fix.rr_sets_total()),
        ("ssa_rmat_lt_k10_rr_sets_total", ssa_rmat.rr_sets_total()),
    ];
    let named = |list: Vec<(&'static str, u64)>| list.into_iter().map(|(n, v)| (n.to_string(), v));
    let mut out: Vec<(String, u64)> =
        named(algorithms).chain(named(serving_counters())).chain(named(store_counters())).collect();
    out.extend(traffic_counters());
    out.extend(oracle_gap_counters());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_deterministic() {
        let a = counters();
        let b = counters();
        assert_eq!(a, b);
        // sample totals are necessarily positive; cache counters may
        // legitimately be zero (the script provokes no evictions)
        assert!(a.iter().filter(|(name, _)| name.ends_with("rr_sets_total")).all(|&(_, v)| v > 0));
        assert!(a.iter().any(|(name, v)| name.starts_with("query_engine_grow") && *v > 0));
        assert!(a.iter().any(|(name, v)| name.starts_with("traffic_sim") && *v > 0));
        assert!(a.iter().any(|(name, v)| name.starts_with("traffic_concurrent") && *v > 0));
        // one bit flipped in the last of 4 epochs: 3 kept, 1 lost
        assert!(a.contains(&("store_recovered_epochs".to_string(), 3)));
        assert!(a.contains(&("store_lost_epochs".to_string(), 1)));
        // timing-derived floor counters (`*_speedup`) are bench-side
        // only — they must never enter the deterministic set
        assert!(a.iter().all(|(name, _)| !name.ends_with("_speedup")));
    }
}
