//! `bench_diff` — sample-count regression check (CI).
//!
//! Timing numbers drift with hardware, but the `"counters"` fields of
//! the `BENCH_*.json` snapshots (algorithm RR-set totals on fixed
//! fixtures, under both stopping rules, plus the serving front end's
//! `traffic_sim_*` admission/planner counters) are deterministic:
//! seeded RNG streams, thread-invariant pools, virtual-clock admission.
//! This binary recomputes them from scratch
//! ([`sns_bench::sample_counts::counters`]) and diffs them — and
//! any counters found in checked-in `BENCH_*.json` snapshots — against
//! the baseline file `results/bench_baselines/sample_counts.json`.
//! Counters named `*_speedup` (e.g. the pool-store load-vs-resample
//! ratio) are timing-derived **floors**: they pass at or above their
//! baselined minimum, draw a warning annotation below it (wall clocks
//! vary by host, so a missed floor never fails the run), and `--write`
//! carries the floor over instead of overwriting it with a local
//! measurement.
//! Wall-clock serving figures (the `"serving"` object of
//! `BENCH_query_engine.json` — p50/p99 latency, queries/sec) are
//! deliberately **outside** the `"counters"` section and never diffed:
//! the CI container has one CPU and latency there means nothing.
//!
//! Any mismatch prints a GitHub-annotation warning and lands in the
//! workflow's step summary as an expected-vs-realized table
//! (`$GITHUB_STEP_SUMMARY`). Drift in a deterministic counter — a
//! changed value, or a baselined counter no longer computed — makes
//! the process **exit nonzero**, and CI
//! fails on it: the counters are byte-reproducible, so a drift is a
//! behaviour change. An intended change is re-baselined with
//! `bench_diff --write` and explained in the change's notes. This is
//! the guard that would have caught the Λ-dropped D-SSA stopping rule
//! (~4× over-sampling at identical wall-time per sample) mechanically.
//!
//! ```sh
//! cargo run --release -p sns-bench --bin bench_diff          # check
//! cargo run --release -p sns-bench --bin bench_diff -- --write  # rebaseline
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const BASELINE: &str = "results/bench_baselines/sample_counts.json";

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf()
}

/// Extracts the `"name": integer` pairs of a top-level `"counters"`
/// object from our fixed-layout snapshot JSON (one pair per line — the
/// format `write_bench_json_with_counters` and `--write` emit).
fn parse_counters(json: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let Some(start) = json.find("\"counters\"") else { return out };
    for line in json[start..].lines().skip(1) {
        let line = line.trim().trim_end_matches(',');
        if line.starts_with('}') {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().trim_matches('"');
            if let Ok(value) = value.trim().parse::<u64>() {
                out.insert(name.to_string(), value);
            }
        }
    }
    out
}

/// Counters named `*_speedup` are timing-derived **floors**: the
/// realized value passes at or above the baseline, fails below it,
/// and `--write` preserves the baselined floor instead of overwriting
/// it with whatever this machine happened to measure. They are only
/// computed by the real bench runs, so the recomputed pass neither
/// produces nor orphan-checks them.
fn is_floor(name: &str) -> bool {
    name.ends_with("_speedup")
}

fn write_baseline(path: &Path, counters: &[(String, u64)]) {
    let mut out = String::from("{\n  \"counters\": {\n");
    for (i, (name, value)) in counters.iter().enumerate() {
        let sep = if i + 1 == counters.len() { "" } else { "," };
        out.push_str(&format!("    \"{name}\": {value}{sep}\n"));
    }
    out.push_str("  }\n}\n");
    std::fs::create_dir_all(path.parent().expect("baseline path has a parent"))
        .expect("create baseline dir");
    std::fs::write(path, out).expect("write baseline");
    println!("wrote {}", path.display());
}

/// One row of the expected-vs-realized report.
struct Row {
    source: String,
    name: String,
    expected: Option<u64>,
    realized: Option<u64>,
}

impl Row {
    fn is_drift(&self) -> bool {
        match (self.expected, self.realized) {
            (Some(e), Some(r)) if is_floor(&self.name) => r < e,
            (e, r) => e != r,
        }
    }

    fn status(&self) -> String {
        match (self.expected, self.realized) {
            (Some(e), Some(r)) if is_floor(&self.name) => {
                if r >= e {
                    "ok (>= floor)".into()
                } else {
                    format!("below floor ({:.2}x)", r as f64 / e as f64)
                }
            }
            (Some(e), Some(r)) if e == r => "ok".into(),
            (Some(e), Some(r)) => format!("drift ({:.2}x)", r as f64 / e as f64),
            (None, Some(_)) => "no baseline".into(),
            (Some(_), None) => "orphaned baseline".into(),
            (None, None) => unreachable!("a row always has one side"),
        }
    }
}

/// Diffs `got` against `baseline`, printing annotations and
/// accumulating report rows. Returns the number of deterministic
/// counter mismatches (a missed `*_speedup` floor only warns).
fn diff(
    source: &str,
    got: &BTreeMap<String, u64>,
    baseline: &BTreeMap<String, u64>,
    rows: &mut Vec<Row>,
) -> usize {
    let mut mismatches = 0;
    for (name, &value) in got {
        let expected = baseline.get(name).copied();
        rows.push(Row {
            source: source.into(),
            name: name.clone(),
            expected,
            realized: Some(value),
        });
        match expected {
            None => println!(
                "::warning::{source}: counter {name} = {value} has no baseline — \
                 rebaseline with `bench_diff --write`"
            ),
            Some(floor) if is_floor(name) => {
                if value >= floor {
                    println!("{source}: {name} = {value} meets its floor of {floor}");
                } else {
                    println!(
                        "::warning::{source}: counter {name} = {value} fell below its \
                         baselined floor {floor} — a performance regression, not noise; \
                         investigate before rebaselining"
                    );
                }
            }
            Some(want) if want != value => {
                mismatches += 1;
                let ratio = value as f64 / want as f64;
                println!(
                    "::warning::{source}: counter {name} = {value}, baseline {want} \
                     ({ratio:.2}x) — sample-count behavior changed; if intended, \
                     rebaseline with `bench_diff --write`"
                );
            }
            Some(_) => println!("{source}: {name} = {value} matches baseline"),
        }
    }
    mismatches
}

/// Renders the expected-vs-realized table into the GitHub step summary
/// (`$GITHUB_STEP_SUMMARY`), if CI provides one. Drifting rows sort
/// first so the signal is at the top of the checks UI.
fn write_step_summary(rows: &[Row], mismatches: usize) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else { return };
    let mut md = String::from("## bench_diff — deterministic sample counters\n\n");
    let unbaselined = rows.iter().filter(|r| r.expected.is_none()).count();
    if mismatches == 0 && unbaselined == 0 {
        let _ = writeln!(md, "All {} counters match their baselines.\n", rows.len());
    } else {
        if mismatches > 0 {
            let _ = writeln!(
                md,
                "**{mismatches} counter mismatch(es)** — sample-count behavior changed; \
                 if intended, rebaseline with `bench_diff --write`.\n"
            );
        }
        if unbaselined > 0 {
            let _ = writeln!(
                md,
                "**{unbaselined} counter(s) without a baseline** — record them with \
                 `bench_diff --write`.\n"
            );
        }
    }
    md.push_str("| source | counter | expected | realized | status |\n");
    md.push_str("|---|---|---:|---:|---|\n");
    let fmt = |v: Option<u64>| v.map_or_else(|| "—".into(), |v| v.to_string());
    let (drifted, clean): (Vec<_>, Vec<_>) = rows.iter().partition(|r| r.is_drift());
    for r in drifted.iter().chain(&clean) {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} |",
            r.source,
            r.name,
            fmt(r.expected),
            fmt(r.realized),
            r.status()
        );
    }
    md.push('\n');
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, md.as_bytes()));
    if let Err(e) = appended {
        println!("::warning::could not write step summary to {path}: {e}");
    }
}

fn main() {
    let root = workspace_root();
    let baseline_path = root.join(BASELINE);
    println!("recomputing deterministic sample counters (seconds)...");
    let fresh = sns_bench::sample_counts::counters();

    if std::env::args().any(|a| a == "--write") {
        let mut all: Vec<(String, u64)> = fresh.iter().map(|&(n, v)| (n.to_string(), v)).collect();
        // Floors are hand-set policy, not measurements: carry them over
        // verbatim from the previous baseline.
        if let Ok(old) = std::fs::read_to_string(&baseline_path) {
            for (name, value) in parse_counters(&old) {
                if is_floor(&name) && !all.iter().any(|(n, _)| *n == name) {
                    all.push((name, value));
                }
            }
        }
        write_baseline(&baseline_path, &all);
        return;
    }

    let Ok(baseline_json) = std::fs::read_to_string(&baseline_path) else {
        println!("::warning::no baseline at {BASELINE} — create one with `bench_diff --write`");
        std::process::exit(1);
    };
    let baseline = parse_counters(&baseline_json);
    let fresh_map: BTreeMap<String, u64> = fresh.iter().map(|&(n, v)| (n.to_string(), v)).collect();
    let mut rows = Vec::new();
    let mut mismatches = diff("recomputed", &fresh_map, &baseline, &mut rows);
    // Orphaned baseline entries matter too: a renamed or deleted counter
    // must not silently shrink what the guard guards. Floor counters are
    // exempt — they live only in the bench-run snapshots, never in the
    // recomputed set.
    for name in baseline.keys().filter(|n| !fresh_map.contains_key(*n) && !is_floor(n)) {
        mismatches += 1;
        rows.push(Row {
            source: "recomputed".into(),
            name: name.clone(),
            expected: baseline.get(name).copied(),
            realized: None,
        });
        println!(
            "::warning::baseline counter {name} is no longer computed — if the fixture was \
             renamed or removed on purpose, rebaseline with `bench_diff --write`"
        );
    }

    // Also diff the counters embedded in checked-in BENCH_*.json
    // snapshots (stale snapshots after a behavior change are worth a
    // nudge, even though the recomputed pass above is authoritative).
    if let Ok(entries) = std::fs::read_dir(&root) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let Ok(json) = std::fs::read_to_string(entry.path()) else { continue };
            let counters = parse_counters(&json);
            if !counters.is_empty() {
                mismatches += diff(&name, &counters, &baseline, &mut rows);
            }
        }
    }

    write_step_summary(&rows, mismatches);
    if mismatches == 0 {
        println!("bench_diff: all sample counters match their baselines");
    } else {
        println!("bench_diff: {mismatches} counter mismatch(es) — exiting nonzero");
        std::process::exit(1);
    }
}
