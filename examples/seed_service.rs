//! A seed-selection *service*: freeze one RR-set pool, then answer a
//! batch of heterogeneous campaign questions against it — no resampling
//! per question.
//!
//! ```sh
//! cargo run --release --example seed_service
//! ```
//!
//! This is the deployment shape the frozen-pool engine exists for: the
//! expensive part (sampling; here sized by one D-SSA run) happens once,
//! and every follow-up — different budgets, "hub X is unavailable",
//! "these two are already signed", "how about the sports audience?" —
//! is a sub-millisecond query against the sealed snapshot.

use stop_and_stare::graph::{gen, GraphStats, WeightModel};
use stop_and_stare::tvm::TargetWeights;
use stop_and_stare::{Dssa, Model, Params, SamplingContext, SeedQuery, SeedQueryEngine};

fn main() {
    let graph = gen::barabasi_albert(20_000, 5, gen::Orientation::RandomSingle, 42)
        .build(WeightModel::WeightedCascade)
        .expect("generator parameters are valid");
    println!("network: {}", GraphStats::compute(&graph));

    // 1. Size the pool once with D-SSA's stopping rule, then freeze a
    //    pool of that size for serving.
    let params = Params::new(25, 0.2, 0.1).expect("parameters are in range");
    let ctx = SamplingContext::new(&graph, Model::IndependentCascade).with_seed(7).with_threads(4);
    let sizing = Dssa::new(params).run(&ctx).expect("run succeeds");
    println!(
        "\nD-SSA sized the pool: {} RR sets ({} iterations), Î = {:.1}",
        sizing.rr_sets_main, sizing.iterations, sizing.influence_estimate
    );
    let engine = SeedQueryEngine::sample(&ctx, sizing.rr_sets_main);
    println!(
        "engine frozen: {} sets, {} node entries, pool {} KiB",
        engine.pool().len(),
        engine.pool().total_nodes(),
        engine.pool().memory_bytes() / 1024
    );

    // 2. One batch of very different questions, answered in parallel.
    let top = engine.answer(&SeedQuery::top_k(25)).expect("valid query");
    let star = top.seeds[0];
    let sports = TargetWeights::synthetic_topic(&graph, 0.05, 1.0, 3).expect("valid topic");
    let batch = vec![
        SeedQuery::top_k(5),
        SeedQuery::top_k(25),
        // contingency: the top influencer declined
        SeedQuery::top_k(25).with_excluded(vec![star]),
        // two ambassadors are already under contract
        SeedQuery::top_k(25).with_forced(top.seeds[3..5].to_vec()),
        // the same pool, asked for the sports-fan audience
        sports.seed_query(25),
        // sensitivity: would half the samples have agreed?
        SeedQuery::top_k(25).over_range(0..engine.pool().len() as u32 / 2),
    ];
    let answers = engine.answer_batch(&batch).expect("valid batch");

    let labels = [
        "top-5".to_string(),
        "top-25".to_string(),
        format!("top-25 minus node {star}"),
        "top-25 with 2 signed".to_string(),
        "top-25 for sports fans".to_string(),
        "top-25 on half the pool".to_string(),
    ];
    println!("\n{:<28} {:>10} {:>12}  first seeds", "query", "covered", "Î");
    for (label, answer) in labels.iter().zip(&answers) {
        println!(
            "{:<28} {:>10.1} {:>12.1}  {:?}",
            label,
            answer.covered,
            answer.influence_estimate,
            &answer.seeds[..4.min(answer.seeds.len())]
        );
    }

    // 3. Grow while serving: the campaign keeps running, so keep
    //    extending the pool (same deterministic stream — the grown pool
    //    is bit-identical to sampling the final size up front). Growth
    //    seals one new epoch; nothing cached is invalidated, and the
    //    next full-pool query merges the frozen per-epoch snapshots
    //    instead of rebuilding from scratch.
    let engine = engine;
    for _ in 0..2 {
        engine.grower().extend(&ctx, sizing.rr_sets_main / 2);
        let refreshed = engine.answer(&SeedQuery::top_k(25)).expect("valid query");
        println!(
            "extended to {} sets ({} epochs): top-25 Î = {:.1}",
            engine.pool().len(),
            engine.pool().epoch_boundaries().len(),
            refreshed.influence_estimate
        );
    }
    let stats = engine.stats();
    println!(
        "cache: {} hits / {} misses / {} evictions, {} epochs frozen, {} merges, {} KiB cached",
        stats.snapshot_hits,
        stats.snapshot_misses,
        stats.evictions,
        stats.epochs_frozen,
        stats.merges,
        stats.cached_bytes / 1024
    );

    // 4. The contract the engine keeps: answers are exactly what direct
    //    Max-Coverage over the same (grown) pool would produce.
    let direct = stop_and_stare::rrset::max_coverage(&engine.pool(), 25);
    let served = engine.answer(&SeedQuery::top_k(25)).expect("valid query");
    assert_eq!(served.seeds, direct.seeds, "engine == direct greedy");
    println!("\nverified: engine answers are bit-identical to direct max-coverage");
}
