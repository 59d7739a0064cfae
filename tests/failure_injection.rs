//! Failure injection and boundary-condition tests across the stack.

use stop_and_stare::graph::{gen, io, GraphBuilder, GraphError, WeightModel};
use stop_and_stare::{Dssa, Model, Params, SamplingContext, Ssa};

/// Malformed inputs fail loudly with actionable errors, never panic.
#[test]
fn malformed_edge_lists_are_rejected() {
    for (text, expect_line) in [
        ("0\n", 1usize),
        ("0 1 0.5\n0 x\n", 2),
        ("0 1 2.5e400\n", 1), // weight overflows f32 parse -> inf, caught at build or parse
        ("a b\n", 1),
    ] {
        match io::read_edge_list(text.as_bytes()) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, expect_line, "{text:?}"),
            Ok(builder) => {
                // the inf-weight case parses (f32: inf) and must then be
                // rejected at build time
                assert!(
                    builder.build(WeightModel::Provided).is_err(),
                    "{text:?} should fail somewhere"
                );
            }
            Err(other) => panic!("{text:?}: unexpected error {other}"),
        }
    }
}

/// Graphs with isolated nodes, sink-only nodes and zero-weight edges are
/// all legal and the algorithms behave sensibly on them.
#[test]
fn degenerate_graphs_run_cleanly() {
    // 10 nodes, one dead (p = 0) edge, eight isolated nodes.
    let mut b = GraphBuilder::new();
    b.set_num_nodes(10);
    b.add_edge(0, 1, 0.0);
    let g = b.build(WeightModel::Provided).unwrap();

    let params = Params::new(3, 0.3, 0.1).unwrap();
    for model in [Model::IndependentCascade, Model::LinearThreshold] {
        let ctx = SamplingContext::new(&g, model).with_seed(1);
        let r = Dssa::new(params).run(&ctx).unwrap();
        assert_eq!(r.seeds.len(), 3);
        // every node influences exactly itself: Î ≈ k
        assert!((r.influence_estimate - 3.0).abs() < 1.0, "{model}: Î = {}", r.influence_estimate);
    }
}

/// k ≥ n: all nodes are returned, no panic, estimate ≈ n on a dead graph.
#[test]
fn k_larger_than_n() {
    let mut b = GraphBuilder::new();
    b.set_num_nodes(4);
    b.add_edge(0, 1, 0.0);
    let g = b.build(WeightModel::Provided).unwrap();
    let params = Params::new(100, 0.3, 0.1).unwrap();
    let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(1);
    for r in [Ssa::new(params).run(&ctx).unwrap(), Dssa::new(params).run(&ctx).unwrap()] {
        let mut seeds = r.seeds.clone();
        seeds.sort_unstable();
        assert_eq!(seeds, vec![0, 1, 2, 3]);
    }
}

/// Parameter validation rejects out-of-domain (k, ε, δ) combinations.
#[test]
fn parameter_domain_enforced() {
    assert!(Params::new(0, 0.1, 0.1).is_err());
    assert!(Params::new(1, -0.1, 0.1).is_err());
    assert!(Params::new(1, 0.1, 1.5).is_err());
    // ε beyond 1 − 1/e makes the guarantee vacuous
    assert!(Params::new(1, 0.64, 0.1).is_err());
    // boundary-adjacent values are accepted
    assert!(Params::new(1, 0.63, 0.999).is_ok());
    assert!(Params::new(1, 1e-6, 1e-12).is_ok());
}

/// LT reverse walks require Σ w(u,v) ≤ 1; a graph violating it is
/// detectable, and normalize_for_lt repairs it.
#[test]
fn lt_constraint_detection_and_repair() {
    let mut b = GraphBuilder::new();
    b.add_edge(0, 2, 0.9);
    b.add_edge(1, 2, 0.9);
    let g = b.clone().build(WeightModel::Provided).unwrap();
    assert!(!g.lt_compatible());

    b.normalize_for_lt(true);
    let g = b.build(WeightModel::Provided).unwrap();
    assert!(g.lt_compatible());
    // and LT algorithms run on the repaired graph
    let params = Params::new(1, 0.3, 0.1).unwrap();
    let ctx = SamplingContext::new(&g, Model::LinearThreshold).with_seed(4);
    assert_eq!(Dssa::new(params).run(&ctx).unwrap().seeds.len(), 1);
}

/// Extreme ε/δ near their boundaries still terminate (via cap or
/// conditions) on a small graph.
#[test]
fn boundary_epsilon_delta_terminate() {
    let g = gen::erdos_renyi(60, 240, 3).build(WeightModel::WeightedCascade).unwrap();
    // very lax: huge ε (close to limit), huge δ
    let lax = Params::new(2, 0.6, 0.9).unwrap();
    // strict-ish but tiny graph keeps it fast
    let strict = Params::new(2, 0.05, 1e-6).unwrap();
    for params in [lax, strict] {
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(8);
        let r = Dssa::new(params).run(&ctx).unwrap();
        assert_eq!(r.seeds.len(), 2);
    }
}

/// Binary graph round-trip composes with the full algorithm stack.
#[test]
fn io_roundtrip_then_run() {
    let g = gen::rmat(500, 3000, gen::RmatParams::GRAPH500, 6)
        .build(WeightModel::WeightedCascade)
        .unwrap();
    let mut buf = Vec::new();
    io::write_binary(&g, &mut buf).unwrap();
    let g2 = io::read_binary(&buf[..]).unwrap();

    let params = Params::new(5, 0.3, 0.1).unwrap();
    let r1 = Dssa::new(params)
        .run(&SamplingContext::new(&g, Model::IndependentCascade).with_seed(3))
        .unwrap();
    let r2 = Dssa::new(params)
        .run(&SamplingContext::new(&g2, Model::IndependentCascade).with_seed(3))
        .unwrap();
    assert_eq!(r1.seeds, r2.seeds, "round-tripped graph must behave identically");
}

/// Fault injection against the persistent pool store: truncations at
/// every section boundary, single-bit flips, manifest deletion, version
/// skew in both directions, stale temp files. Every fault must surface
/// as a typed [`stop_and_stare::StoreError`] from the strict loader and
/// either a typed error or a *verified* valid-prefix recovery from the
/// recovering loader — never a panic, never silently wrong answers.
// Test-only reference model keyed by query id; iteration order is never
// observed, so hash order cannot reach an assertion.
#[allow(clippy::disallowed_types)]
mod store_faults {
    use std::collections::HashMap;
    use std::fs;
    use std::path::{Path, PathBuf};

    use proptest::prelude::*;
    use stop_and_stare::graph::{gen, Graph, WeightModel};
    use stop_and_stare::{
        Model, Recovery, SamplingContext, SeedAnswer, SeedQuery, SeedQueryEngine,
    };

    const MANIFEST: &str = "MANIFEST";
    const SEG0: &str = "epoch-00000.rr";
    const SEG1: &str = "epoch-00001.rr";
    /// 300 + 200 + 100 sets across three sealed epochs.
    const TOTAL_SETS: u64 = 600;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sns-store-faults-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_graph() -> Graph {
        gen::erdos_renyi(200, 1000, 33).build(WeightModel::WeightedCascade).unwrap()
    }

    /// Rewrite `file` inside `dir` through a byte-level mutator.
    fn patch(dir: &Path, file: &str, mutate: impl FnOnce(&mut Vec<u8>)) {
        let path = dir.join(file);
        let mut bytes = fs::read(&path).unwrap();
        mutate(&mut bytes);
        fs::write(&path, &bytes).unwrap();
    }

    fn flip_bit(dir: &Path, file: &str, at: usize) {
        patch(dir, file, |b| {
            let i = at.min(b.len() - 1);
            b[i] ^= 0x01;
        });
    }

    fn truncate_to(dir: &Path, file: &str, len: usize) {
        patch(dir, file, |b| b.truncate(len.min(b.len())));
    }

    /// Overwrite the little-endian `u32` version field at offset 4.
    fn set_version(dir: &Path, file: &str, version: u32) {
        patch(dir, file, |b| b[4..8].copy_from_slice(&version.to_le_bytes()));
    }

    /// Reset `dst` to a byte-exact copy of the pristine store in `src`.
    fn restore(src: &Path, dst: &Path) {
        let _ = fs::remove_dir_all(dst);
        fs::create_dir_all(dst).unwrap();
        for entry in fs::read_dir(src).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }

    /// ≥ 30 distinct faults; each must yield a typed strict-load error and
    /// a recovery outcome whose surviving prefix answers bit-identically
    /// to a pool sampled directly to that prefix.
    #[test]
    fn corruption_sweep_never_panics_and_recovers_valid_prefixes() {
        let g = small_graph();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(33);

        let baked = SeedQueryEngine::sample(&ctx, 300);
        baked.grower().extend(&ctx, 200);
        baked.grower().extend(&ctx, 100);
        assert_eq!(baked.pool().epoch_boundaries(), &[300, 500, 600]);

        let pristine = scratch("pristine");
        baked.save(&pristine).unwrap();
        let probe = SeedQuery::top_k(3);

        // Reference answers for every epoch prefix a recovery can return:
        // a prefix of the stored pool must answer exactly like a pool
        // sampled from scratch to the same length (determinism pins the
        // per-sample RNG streams to sample indices, not pool history).
        let mut reference: HashMap<u64, SeedAnswer> = HashMap::new();
        reference.insert(TOTAL_SETS, baked.answer(&probe).unwrap());
        for kept in [300u64, 500] {
            reference.insert(kept, SeedQueryEngine::sample(&ctx, kept).answer(&probe).unwrap());
        }

        let seg1_len = fs::metadata(pristine.join(SEG1)).unwrap().len() as usize;
        let man_len = fs::metadata(pristine.join(MANIFEST)).unwrap().len() as usize;

        // Segment layout: magic[0..4] version[4..8] epoch[8..12]
        // start[12..16] sets[16..20] entries[20..28] edges[28..36]
        // width[36..40] | offsets | node data | checksum[-12..-4] magic[-4..].
        // Manifest: magic version fingerprint … epoch table checksum[-8..].
        type Fault = Box<dyn Fn(&Path)>;
        let faults: Vec<(&'static str, Fault)> = vec![
            // -- segment truncation at every section boundary --
            ("seg: empty file", Box::new(|d: &Path| truncate_to(d, SEG1, 0))),
            ("seg: cut after magic", Box::new(|d: &Path| truncate_to(d, SEG1, 4))),
            ("seg: cut after version", Box::new(|d: &Path| truncate_to(d, SEG1, 8))),
            ("seg: cut inside header", Box::new(|d: &Path| truncate_to(d, SEG1, 39))),
            ("seg: header only", Box::new(|d: &Path| truncate_to(d, SEG1, 40))),
            ("seg: cut after offsets", Box::new(|d: &Path| truncate_to(d, SEG1, 40 + 200 * 4))),
            (
                "seg: cut before footer",
                Box::new(move |d: &Path| truncate_to(d, SEG1, seg1_len - 12)),
            ),
            (
                "seg: cut before end magic",
                Box::new(move |d: &Path| truncate_to(d, SEG1, seg1_len - 4)),
            ),
            ("seg: one byte short", Box::new(move |d: &Path| truncate_to(d, SEG1, seg1_len - 1))),
            // -- segment bit flips, field by field --
            ("seg: flip magic", Box::new(|d: &Path| flip_bit(d, SEG1, 0))),
            (
                "seg: version 1 -> 0 (file older than reader)",
                Box::new(|d: &Path| set_version(d, SEG1, 0)),
            ),
            (
                "seg: version 1 -> 2 (file newer than reader)",
                Box::new(|d: &Path| set_version(d, SEG1, 2)),
            ),
            ("seg: flip epoch id", Box::new(|d: &Path| flip_bit(d, SEG1, 8))),
            ("seg: flip start boundary", Box::new(|d: &Path| flip_bit(d, SEG1, 12))),
            ("seg: flip set count", Box::new(|d: &Path| flip_bit(d, SEG1, 16))),
            ("seg: flip entry count", Box::new(|d: &Path| flip_bit(d, SEG1, 20))),
            ("seg: flip edges delta", Box::new(|d: &Path| flip_bit(d, SEG1, 28))),
            ("seg: flip offset width", Box::new(|d: &Path| flip_bit(d, SEG1, 36))),
            ("seg: flip first offset", Box::new(|d: &Path| flip_bit(d, SEG1, 40))),
            ("seg: flip payload byte", Box::new(move |d: &Path| flip_bit(d, SEG1, seg1_len / 2))),
            (
                "seg: flip stored checksum",
                Box::new(move |d: &Path| flip_bit(d, SEG1, seg1_len - 12)),
            ),
            ("seg: flip end magic", Box::new(move |d: &Path| flip_bit(d, SEG1, seg1_len - 1))),
            // -- segment structural damage --
            ("seg: trailing garbage", Box::new(|d: &Path| patch(d, SEG1, |b| b.push(0xAB)))),
            (
                "seg: zero length with intact manifest",
                Box::new(|d: &Path| fs::write(d.join(SEG1), b"").unwrap()),
            ),
            ("seg: epoch 1 deleted", Box::new(|d: &Path| fs::remove_file(d.join(SEG1)).unwrap())),
            (
                "seg: epoch 0 deleted (no prefix survives)",
                Box::new(|d: &Path| fs::remove_file(d.join(SEG0)).unwrap()),
            ),
            (
                "seg: files swapped",
                Box::new(|d: &Path| {
                    let a = fs::read(d.join(SEG0)).unwrap();
                    let b = fs::read(d.join(SEG1)).unwrap();
                    fs::write(d.join(SEG0), &b).unwrap();
                    fs::write(d.join(SEG1), &a).unwrap();
                }),
            ),
            // -- manifest damage (always a hard error: the epoch table
            //    itself can no longer be trusted) --
            ("manifest: deleted", Box::new(|d: &Path| fs::remove_file(d.join(MANIFEST)).unwrap())),
            ("manifest: empty file", Box::new(|d: &Path| truncate_to(d, MANIFEST, 0))),
            ("manifest: cut after magic", Box::new(|d: &Path| truncate_to(d, MANIFEST, 4))),
            ("manifest: cut after version", Box::new(|d: &Path| truncate_to(d, MANIFEST, 8))),
            (
                "manifest: checksum stripped",
                Box::new(move |d: &Path| truncate_to(d, MANIFEST, man_len - 8)),
            ),
            (
                "manifest: one byte short",
                Box::new(move |d: &Path| truncate_to(d, MANIFEST, man_len - 1)),
            ),
            ("manifest: flip magic", Box::new(|d: &Path| flip_bit(d, MANIFEST, 0))),
            (
                "manifest: version 1 -> 2 (file newer than reader)",
                Box::new(|d: &Path| set_version(d, MANIFEST, 2)),
            ),
            (
                "manifest: version 1 -> 0 (file older than reader)",
                Box::new(|d: &Path| set_version(d, MANIFEST, 0)),
            ),
            ("manifest: flip fingerprint byte", Box::new(|d: &Path| flip_bit(d, MANIFEST, 12))),
            (
                "manifest: flip epoch table byte",
                Box::new(move |d: &Path| flip_bit(d, MANIFEST, man_len - 20)),
            ),
            (
                "manifest: flip checksum",
                Box::new(move |d: &Path| flip_bit(d, MANIFEST, man_len - 1)),
            ),
            (
                "manifest: trailing garbage",
                Box::new(|d: &Path| patch(d, MANIFEST, |b| b.extend_from_slice(b"junk"))),
            ),
        ];
        assert!(faults.len() >= 30, "sweep must cover >= 30 faults, has {}", faults.len());

        let dir = scratch("sweep");
        for (name, fault) in &faults {
            restore(&pristine, &dir);
            fault(&dir);

            let err = match SeedQueryEngine::from_store(&dir, &ctx) {
                Ok(_) => panic!("case {name:?}: strict load accepted a damaged store"),
                Err(e) => e,
            };
            assert!(!err.to_string().is_empty(), "case {name:?}: error must render");

            match SeedQueryEngine::from_store_recovering(&dir, &ctx) {
                Ok((engine, Recovery::Recovered { epochs_lost, sets_lost })) => {
                    assert!(epochs_lost >= 1, "case {name:?}: recovery must report losses");
                    let kept = TOTAL_SETS - sets_lost;
                    assert_eq!(
                        engine.pool().len() as u64,
                        kept,
                        "case {name:?}: prefix length mismatch"
                    );
                    if kept > 0 {
                        let got = engine.answer(&probe).unwrap();
                        let want = reference.get(&kept).unwrap_or_else(|| {
                            panic!("case {name:?}: {kept} sets is not an epoch prefix")
                        });
                        assert_eq!(
                            &got, want,
                            "case {name:?}: recovered prefix must answer bit-identically \
                             to a pool sampled to {kept} sets"
                        );
                    }
                }
                Ok((_, Recovery::Intact)) => {
                    panic!("case {name:?}: damaged store reported as intact")
                }
                Err(e) => {
                    assert!(!e.to_string().is_empty(), "case {name:?}: error must render")
                }
            }
        }

        let _ = fs::remove_dir_all(&pristine);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Leftover `.tmp` files from an interrupted commit are ignored by the
    /// loader and silently replaced by the next save.
    #[test]
    fn stale_temp_files_are_ignored() {
        let g = small_graph();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(9);
        let engine = SeedQueryEngine::sample(&ctx, 250);
        let dir = scratch("stale-tmp");
        engine.save(&dir).unwrap();

        fs::write(dir.join("MANIFEST.tmp"), b"half-written manifest junk").unwrap();
        fs::write(dir.join("epoch-00001.rr.tmp"), b"partial segment from a crash").unwrap();

        let probe = SeedQuery::top_k(4);
        let loaded = SeedQueryEngine::from_store(&dir, &ctx).unwrap();
        assert_eq!(loaded.answer(&probe).unwrap(), engine.answer(&probe).unwrap());

        // The next commit cycle overwrites the stale temps without error.
        engine.grower().extend(&ctx, 150);
        engine.save(&dir).unwrap();
        let reloaded = SeedQueryEngine::from_store(&dir, &ctx).unwrap();
        assert_eq!(reloaded.answer(&probe).unwrap(), engine.answer(&probe).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Deterministic round trip across distinct epoch layouts: a saved
    /// pool answers bit-identically after reload, whatever the boundary
    /// structure was.
    #[test]
    fn round_trip_is_bit_identical_across_epoch_layouts() {
        let g = small_graph();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(17);
        let queries = vec![
            SeedQuery::top_k(1),
            SeedQuery::top_k(5),
            SeedQuery::top_k(2).over_range(0..300),
            SeedQuery::top_k(3).with_excluded(vec![0, 1]),
        ];
        let layouts: [&[u64]; 5] =
            [&[600], &[300, 300], &[300, 200, 100], &[150, 150, 150, 150], &[450, 50, 50, 50]];
        for (i, layout) in layouts.iter().enumerate() {
            let live = SeedQueryEngine::sample(&ctx, layout[0]);
            for &count in &layout[1..] {
                live.grower().extend(&ctx, count);
            }
            let dir = scratch(&format!("layout-{i}"));
            live.save(&dir).unwrap();
            let loaded = SeedQueryEngine::from_store(&dir, &ctx).unwrap();
            assert_eq!(
                live.answer_batch(&queries).unwrap(),
                loaded.answer_batch(&queries).unwrap(),
                "layout {layout:?} must round-trip bit-identically"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// save → load → extend → save → load pins bit-identical answers
        /// across randomized seeds and epoch layouts, and the second save
        /// reuses every epoch the first one committed.
        #[test]
        fn save_load_extend_save_load_pins_answers(
            seed in 0u64..64,
            epochs in proptest::collection::vec(40u64..160, 1..4),
            extra in 40u64..120,
        ) {
            let g = gen::erdos_renyi(120, 600, 11)
                .build(WeightModel::WeightedCascade)
                .unwrap();
            let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(seed);

            let live = SeedQueryEngine::sample(&ctx, epochs[0]);
            for &count in &epochs[1..] {
                live.grower().extend(&ctx, count);
            }
            let dir = scratch(&format!("prop-{seed}-{}-{extra}", epochs.len()));
            let first = live.save(&dir).unwrap();

            let probe = SeedQuery::top_k(4);
            let reloaded = SeedQueryEngine::from_store(&dir, &ctx).unwrap();
            prop_assert_eq!(live.answer(&probe).unwrap(), reloaded.answer(&probe).unwrap());

            // Grow the *reloaded* engine and append-save: the incremental
            // path must reuse every epoch of the first commit verbatim.
            reloaded.grower().extend(&ctx, extra);
            live.grower().extend(&ctx, extra);
            let second = reloaded.save(&dir).unwrap();
            prop_assert_eq!(second.epochs_reused, first.epochs_written);
            prop_assert!(second.epochs_written >= 1);

            let again = SeedQueryEngine::from_store(&dir, &ctx).unwrap();
            prop_assert_eq!(live.answer(&probe).unwrap(), again.answer(&probe).unwrap());
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// Empty and zero-weight TVM audiences are rejected; a one-node audience
/// works.
#[test]
fn tvm_weight_edge_cases() {
    use stop_and_stare::tvm::{DssaTvm, TargetWeights};
    let g = gen::erdos_renyi(50, 250, 2).build(WeightModel::WeightedCascade).unwrap();
    assert!(TargetWeights::from_weights(vec![0.0; 50]).is_err());
    assert!(TargetWeights::from_weights(vec![]).is_err());

    let mut w = vec![0.0; 50];
    w[17] = 2.5;
    let audience = TargetWeights::from_weights(w).unwrap();
    let params = Params::new(1, 0.3, 0.1).unwrap();
    let r = DssaTvm::new(params).run(&g, Model::IndependentCascade, &audience, 4, 1).unwrap();
    assert_eq!(r.seeds.len(), 1);
    // the only mass is on node 17; influence can't exceed Γ = 2.5
    assert!(r.influence_estimate <= 2.5 + 1e-9);
}
