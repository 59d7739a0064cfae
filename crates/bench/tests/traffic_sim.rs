//! Determinism gates for the serving traffic simulator — the tests the
//! CI `serving` job runs twice in release mode and diffs. Everything
//! asserted here must hold on any host at any thread count: the gated
//! counters are pure functions of the [`TrafficConfig`], never of the
//! wall clock or the scheduler.

use sns_bench::traffic::{simulate, TrafficConfig, TrafficReport};

/// The value of counter `name` (unprefixed, as the simulator names it).
fn get(report: &TrafficReport, name: &str) -> u64 {
    report
        .counters
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("missing counter {name}: {:?}", report.counters))
        .1
}

/// Conservation: every arrival is served, rejected, expired or still
/// queued at the end — nothing is lost or double-counted.
fn assert_conserved(report: &TrafficReport) {
    let get = |name| get(report, name);
    assert_eq!(
        get("arrivals"),
        get("served")
            + get("rejected_queue_full")
            + get("rejected_deadline")
            + get("expired")
            + get("left_queued"),
        "{:?}",
        report.counters
    );
}

#[test]
fn ci_scenario_counters_are_reproducible_across_runs() {
    let cfg = TrafficConfig::ci();
    let a = simulate(&cfg);
    let b = simulate(&cfg);
    assert_eq!(a.counters, b.counters, "same config must replay byte-identically");

    // The CI scenario must actually exercise the front end: queries are
    // served, bursts overflow the queue, deadlines reject, the planner
    // shares snapshot resolutions and the pool grows mid-serving.
    assert!(get(&a, "served") > 0);
    assert!(get(&a, "rejected_queue_full") > 0, "{:?}", a.counters);
    assert!(get(&a, "rejected_deadline") > 0, "{:?}", a.counters);
    assert!(get(&a, "builds_saved") > 0, "{:?}", a.counters);
    assert!(get(&a, "planner_groups") > 0);
    assert_eq!(get(&a, "growths"), 2);
    assert_conserved(&a);
}

#[test]
fn counters_are_invariant_to_engine_thread_count() {
    let single = simulate(&TrafficConfig::ci());
    let four = simulate(&TrafficConfig { threads: 4, ..TrafficConfig::ci() });
    assert_eq!(single.counters, four.counters, "gated counters must not depend on threads");
}

#[test]
fn budgeted_scenario_counters_are_reproducible_and_thread_invariant() {
    let cfg = TrafficConfig::ci_budgeted();
    let a = simulate(&cfg);
    let b = simulate(&cfg);
    assert_eq!(a.counters, b.counters, "budgeted scenario must replay byte-identically");
    let four = simulate(&TrafficConfig { threads: 4, ..TrafficConfig::ci_budgeted() });
    assert_eq!(a.counters, four.counters, "budgeted counters must not depend on threads");

    // The budgeted mix must actually flow: cost-aware queries arrive,
    // get admitted against the budget-derived cost model and get served.
    assert!(get(&a, "mix_size") > 0, "{:?}", a.counters);
    assert!(get(&a, "served") > 0);
    assert_eq!(get(&a, "growths"), 2);
    assert_conserved(&a);
}

#[test]
fn budgeted_share_does_not_disturb_the_legacy_scenario() {
    // ci_budgeted() differs from ci() only in the budgeted mix; the
    // legacy scenario's counters — and therefore its checked-in
    // baselines — must be exactly what they were before the mix existed.
    let legacy = simulate(&TrafficConfig::ci());
    assert_eq!(legacy.counters.len(), 11, "{:?}", legacy.counters);
    assert!(legacy.counters.iter().all(|(n, _)| *n != "mix_size"));
}

#[test]
fn planned_budgeted_answers_match_unplanned_under_traffic() {
    // verify: true cross-checks every served answer against a direct
    // selection on a one-shot pool of the final size inside simulate();
    // a divergence panics there.
    let cfg = TrafficConfig { steps: 12, verify: true, ..TrafficConfig::ci_budgeted() };
    let report = simulate(&cfg);
    assert!(report.served > 0);
}

#[test]
fn planned_answers_match_unplanned_under_traffic() {
    let cfg = TrafficConfig { steps: 12, verify: true, ..TrafficConfig::ci() };
    let report = simulate(&cfg);
    assert!(report.served > 0);
}

#[test]
fn concurrent_scenario_counters_are_reproducible_and_thread_invariant() {
    // The hard concurrency gate: growth races serving on a real second
    // thread, and the counters must still replay byte-identically —
    // across runs AND across engine thread counts (the CI `concurrency`
    // step runs this at 1, 2 and 8 worker threads via the override).
    let threads = std::env::var("SNS_TRAFFIC_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(2);
    let cfg = TrafficConfig { threads, ..TrafficConfig::ci_concurrent() };
    let a = simulate(&cfg);
    let b = simulate(&cfg);
    assert_eq!(a.counters, b.counters, "concurrent scenario must replay byte-identically");
    let other = simulate(&TrafficConfig {
        threads: if threads == 1 { 4 } else { 1 },
        ..TrafficConfig::ci_concurrent()
    });
    assert_eq!(a.counters, other.counters, "gated counters must not depend on threads");

    // The scenario must actually overlap growth with serving: four
    // growth commands are issued (steps 6, 12, 18, 24), all acknowledged
    // by drain-out, each publishing one directory generation.
    assert_eq!(get(&a, "growth_acks"), 4, "{:?}", a.counters);
    assert_eq!(get(&a, "final_generation"), 4, "{:?}", a.counters);
    assert_eq!(get(&a, "final_pool_len"), 1600 + 4 * 600, "{:?}", a.counters);
    assert!(get(&a, "served") > 0);
    assert!(get(&a, "planner_groups") > 0);
    assert!(get(&a, "builds_saved") > 0, "{:?}", a.counters);
    assert_conserved(&a);
}

#[test]
fn concurrently_served_answers_match_the_one_shot_reference() {
    // verify: true re-checks every (query, answer) pair served while
    // growth raced the serving loop against a direct selection on the
    // final pool sampled up front — the linearizability acceptance for
    // the traffic path. A divergence panics inside simulate().
    let cfg = TrafficConfig { steps: 14, verify: true, ..TrafficConfig::ci_concurrent() };
    let report = simulate(&cfg);
    assert!(report.served > 0);
}
