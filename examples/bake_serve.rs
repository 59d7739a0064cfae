//! Bake-then-serve: sample an RR pool **once**, persist it with
//! [`SeedQueryEngine::save`], and let every later process start serving
//! from disk in milliseconds instead of re-running minutes of sampling.
//!
//! ```sh
//! cargo run --release --example bake_serve
//! ```
//!
//! The walk-through covers the full store lifecycle:
//!
//! 1. **Bake** — size a pool with D-SSA, sample it, stamp the run's
//!    stopping-rule metadata into the fingerprint, save atomically.
//! 2. **Serve** — reload with [`SeedQueryEngine::from_store`] (every
//!    epoch checksum-verified, the sampling fingerprint checked against
//!    the caller's context) and answer queries bit-identically.
//! 3. **Grow** — `extend` the reloaded engine and `save` again: only
//!    the new epochs are written, the old segment files are reused.
//! 4. **Recover** — corrupt a segment on disk and watch the strict
//!    loader refuse it while `from_store_recovering` serves the longest
//!    valid prefix and reports exactly what was lost.

// Example CLI reports wall-clock bake/serve timings; they never feed results.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use stop_and_stare::graph::{gen, WeightModel};
use stop_and_stare::{Dssa, Model, Params, Recovery, SamplingContext, SeedQuery, SeedQueryEngine};

fn main() {
    let graph = gen::barabasi_albert(10_000, 5, gen::Orientation::RandomSingle, 42)
        .build(WeightModel::WeightedCascade)
        .expect("generator parameters are valid");
    let ctx = SamplingContext::new(&graph, Model::IndependentCascade).with_seed(7).with_threads(4);
    let dir = std::env::temp_dir().join(format!("sns-bake-serve-{}", std::process::id()));

    // 1. Bake: one sampling run, persisted with its provenance.
    let params = Params::new(10, 0.2, 0.1).expect("parameters are in range");
    let sizing = Dssa::new(params).run(&ctx).expect("run succeeds");
    let bake_start = Instant::now();
    let engine = SeedQueryEngine::sample(&ctx, sizing.rr_sets_main).with_run_metadata(&sizing);
    let baked_in = bake_start.elapsed();
    let stats = engine.save(&dir).expect("save commits atomically");
    println!(
        "baked {} RR sets in {baked_in:.0?}; saved {} epochs, {} KiB",
        engine.pool().len(),
        stats.epochs_written,
        stats.bytes_written / 1024
    );

    // 2. Serve: a fresh process reloads in milliseconds, answers
    //    bit-identically to the engine that baked the pool.
    let load_start = Instant::now();
    let served = SeedQueryEngine::from_store(&dir, &ctx).expect("fingerprint matches");
    let loaded_in = load_start.elapsed();
    let query = SeedQuery::top_k(10);
    let baked_answer = engine.answer(&query).expect("query is valid");
    let served_answer = served.answer(&query).expect("query is valid");
    assert_eq!(baked_answer, served_answer, "load is bit-identical");
    println!(
        "reloaded + verified in {loaded_in:.0?} ({}x faster than baking); top-10 Î = {:.1}",
        (baked_in.as_nanos() / loaded_in.as_nanos().max(1)),
        served_answer.influence_estimate
    );

    // 3. Grow: extend the pool, save again — old epochs are reused on
    //    disk, only the new one is written.
    let served = served;
    served.grower().extend(&ctx, served.pool().len() as u64 / 2);
    let stats = served.save(&dir).expect("incremental save");
    println!(
        "extended to {} sets: {} epochs reused, {} written",
        served.pool().len(),
        stats.epochs_reused,
        stats.epochs_written
    );

    // 4. Recover: flip one bit in the newest segment. Strict loading
    //    refuses; recovery serves the longest valid prefix.
    let newest = format!("epoch-{:05}.rr", served.pool().epoch_boundaries().len() - 1);
    let mut bytes = std::fs::read(dir.join(&newest)).expect("segment exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(dir.join(&newest), &bytes).expect("rewrite segment");

    let strict = SeedQueryEngine::from_store(&dir, &ctx);
    println!("strict load after bit flip: {}", strict.expect_err("must be refused"));
    let (prefix, recovery) =
        SeedQueryEngine::from_store_recovering(&dir, &ctx).expect("prefix recovers");
    if let Recovery::Recovered { epochs_lost, sets_lost } = recovery {
        println!(
            "recovered {} sets (lost {epochs_lost} epoch(s), {sets_lost} sets — \
             extend({sets_lost}) would regenerate them bit-identically)",
            prefix.pool().len()
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
