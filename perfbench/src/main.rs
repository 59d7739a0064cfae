//! End-to-end and per-layer benchmark for D-SSA runs and seed-query
//! serving on the Epinions stand-in. See `perfbench/README.md` for the
//! workloads, the metrics and the layer map.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload im-ic --seed 1 --seconds 24 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

// Measuring wall-clock time is this program's purpose; the workspace's
// ban on `Instant::now` guards library code, not benchmarks.
#![allow(clippy::disallowed_methods)]

mod im;
mod layers;
mod reference;
mod rng;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use sns_graph::gen::datasets::EPINIONS;
use sns_graph::Graph;

use crate::trace::Tracer;

/// The stand-in graph is the same for every seed: only the way the
/// program uses it changes between workloads and seeds.
const GRAPH_SEED: u64 = 0x5EED_E919;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

pub const WORKLOADS: [&str; 4] = ["im-ic", "im-lt", "serve", "serve-grow"];

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a workload run reports back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines printed before the result (issue-named
    /// figures, check details, tracing overhead).
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Deterministic counters compared against earlier runs of the same
    /// build and seed.
    pub counters: BTreeMap<String, u64>,
}

impl Outcome {
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked operation; a failed check is reported in the
    /// notes.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let line = format!("FAILED check: {}", what());
            if self.notes.len() < 200 {
                self.notes.push(line);
            }
        }
    }
}

/// Builds the Epinions stand-in (131 828 nodes, weighted cascade).
pub fn build_graph() -> Graph {
    EPINIONS.generate(1.0, GRAPH_SEED).expect("the Epinions stand-in builds")
}

/// Times `SETUP_REPEATS` set-ups, notes each time, and returns their
/// median in seconds plus the last set-up's product. Each set-up is
/// recorded as a `setup` span when tracing.
pub fn repeated_setup<T>(
    out: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
    mut setup: impl FnMut(Option<&mut Tracer>) -> T,
) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        drop(last.take());
        let start = Instant::now();
        let made = match tracer.as_deref_mut() {
            Some(t) => t.span("setup", i as u64, |t| setup(Some(t))),
            None => setup(None),
        };
        times.push(start.elapsed().as_secs_f64());
        last = Some(made);
    }
    let shown: Vec<String> = times.iter().map(|s| format!("{s:.3}")).collect();
    out.note(format!("set-up times: {} s", shown.join(", ")));
    (stats::median(&times), last.expect("at least one set-up"))
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (one of {})", WORKLOADS.join(", ")));
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Output directory for span dumps and determinism records.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// Identifies the running build: counters only have to repeat across
/// runs of the same code.
fn build_fingerprint() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{}-{mtime}", m.len())
        })
        .unwrap_or_else(|_| "unknown".into())
}

/// Compares this run's deterministic counters with those recorded by
/// earlier runs of the same build and seed, then records the union.
/// Returns the names of counters that drifted.
fn cross_run_determinism(opts: &Opts, counters: &BTreeMap<String, u64>) -> Vec<String> {
    let path =
        out_dir().join("determinism").join(format!("{}-seed{}.txt", opts.workload, opts.seed));
    let build = build_fingerprint();
    let mut known: BTreeMap<String, u64> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        let mut lines = text.lines();
        if lines.next() == Some(build.as_str()) {
            for line in lines {
                if let Some((k, v)) = line.split_once(' ') {
                    if let Ok(v) = v.parse() {
                        known.insert(k.to_string(), v);
                    }
                }
            }
        }
    }
    let drifted: Vec<String> = counters
        .iter()
        .filter(|(k, v)| known.get(*k).is_some_and(|old| old != *v))
        .map(|(k, v)| format!("{k}: {} -> {v}", known[k]))
        .collect();
    known.extend(counters.iter().map(|(k, v)| (k.clone(), *v)));
    let mut text = format!("{build}\n");
    for (k, v) in &known {
        text.push_str(&format!("{k} {v}\n"));
    }
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, text));
    if let Err(e) = written {
        eprintln!("warning: could not record determinism counters at {}: {e}", path.display());
    }
    drifted
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: nproc={nproc} rustc=\"{}\" workload={} seed={} seconds={} trace={}",
        env!("PERFBENCH_RUSTC_VERSION"),
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let mut outcome = match opts.workload.as_str() {
        "im-ic" => im::run(sns_diffusion::Model::IndependentCascade, &opts),
        "im-lt" => im::run(sns_diffusion::Model::LinearThreshold, &opts),
        "serve" => serve::run(false, &opts),
        _ => serve::run(true, &opts),
    };
    let drifted = cross_run_determinism(&opts, &outcome.counters);
    outcome.check(drifted.is_empty(), || format!("deterministic counters drifted: {drifted:?}"));

    for line in &outcome.notes {
        println!("{line}");
    }
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "failed_ratio = {failed_ratio} ({} of {} operations)",
        outcome.failed, outcome.attempted
    );
    for (name, value, unit) in &outcome.metrics {
        println!("metric {name} = {value} {unit}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
