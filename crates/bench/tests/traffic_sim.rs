//! Determinism gates for the serving traffic simulator — the tests the
//! CI `serving` job runs twice in release mode and diffs. Everything
//! asserted here must hold on any host at any thread count: the gated
//! counters are pure functions of the [`TrafficConfig`], never of the
//! wall clock or the scheduler.

use sns_bench::traffic::{simulate, TrafficConfig};

#[test]
fn ci_scenario_counters_are_reproducible_across_runs() {
    let cfg = TrafficConfig::ci();
    let a = simulate(&cfg);
    let b = simulate(&cfg);
    assert_eq!(a.counters, b.counters, "same config must replay byte-identically");

    let get = |name: &str| {
        a.counters
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("missing counter {name}"))
            .1
    };
    // The CI scenario must actually exercise the front end: queries are
    // served, bursts overflow the queue, deadlines reject, the planner
    // shares snapshot resolutions and the pool grows mid-serving.
    assert!(get("traffic_sim_served") > 0);
    assert!(get("traffic_sim_rejected_queue_full") > 0, "{:?}", a.counters);
    assert!(get("traffic_sim_rejected_deadline") > 0, "{:?}", a.counters);
    assert!(get("traffic_sim_builds_saved") > 0, "{:?}", a.counters);
    assert!(get("traffic_sim_planner_groups") > 0);
    assert_eq!(get("traffic_sim_growths"), 2);
    // Conservation: every arrival is served, rejected, expired or still
    // queued at the end — nothing is lost or double-counted.
    assert_eq!(
        get("traffic_sim_arrivals"),
        get("traffic_sim_served")
            + get("traffic_sim_rejected_queue_full")
            + get("traffic_sim_rejected_deadline")
            + get("traffic_sim_expired")
            + get("traffic_sim_left_queued"),
        "{:?}",
        a.counters
    );
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

    let get = |name: &str| {
        a.counters
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("missing counter {name}"))
            .1
    };
    // The budgeted mix must actually flow: cost-aware queries arrive,
    // get admitted against the budget-derived cost model and get served.
    assert!(get("traffic_sim_budgeted_arrivals") > 0, "{:?}", a.counters);
    assert!(get("traffic_sim_served") > 0);
    assert_eq!(get("traffic_sim_growths"), 2);
    // Conservation holds in the budgeted mix too.
    assert_eq!(
        get("traffic_sim_arrivals"),
        get("traffic_sim_served")
            + get("traffic_sim_rejected_queue_full")
            + get("traffic_sim_rejected_deadline")
            + get("traffic_sim_expired")
            + get("traffic_sim_left_queued"),
        "{:?}",
        a.counters
    );
}

#[test]
fn budgeted_share_does_not_disturb_the_legacy_scenario() {
    // ci_budgeted() differs from ci() only in the budgeted mix; the
    // legacy scenario's counters — and therefore its checked-in
    // baselines — must be exactly what they were before the mix existed.
    let legacy = simulate(&TrafficConfig::ci());
    assert_eq!(legacy.counters.len(), 11, "{:?}", legacy.counters);
    assert!(legacy.counters.iter().all(|(n, _)| *n != "traffic_sim_budgeted_arrivals"));
}

#[test]
fn planned_budgeted_answers_match_unplanned_under_traffic() {
    let cfg = TrafficConfig { steps: 12, verify: true, ..TrafficConfig::ci_budgeted() };
    let report = simulate(&cfg);
    assert!(report.served > 0);
}

#[test]
fn planned_answers_match_unplanned_under_traffic() {
    // verify: true cross-checks every planned answer against a direct
    // selection on its pool inside simulate(); a divergence panics there.
    let cfg = TrafficConfig { steps: 12, verify: true, ..TrafficConfig::ci() };
    let report = simulate(&cfg);
    assert!(report.served > 0);
}

#[test]
fn concurrent_scenario_counters_are_reproducible_and_thread_invariant() {
    use sns_bench::traffic::simulate_concurrent;
    // The hard concurrency gate: growth races serving on a real second
    // thread, and the counters must still replay byte-identically —
    // across runs AND across engine thread counts (the CI `concurrency`
    // step runs this at 1, 2 and 8 worker threads via the override).
    let threads = std::env::var("SNS_TRAFFIC_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(2);
    let cfg = TrafficConfig { threads, ..TrafficConfig::ci_concurrent() };
    let a = simulate_concurrent(&cfg);
    let b = simulate_concurrent(&cfg);
    assert_eq!(a.counters, b.counters, "concurrent scenario must replay byte-identically");
    let other = simulate_concurrent(&TrafficConfig {
        threads: if threads == 1 { 4 } else { 1 },
        ..TrafficConfig::ci_concurrent()
    });
    assert_eq!(a.counters, other.counters, "gated counters must not depend on threads");

    let get = |name: &str| {
        a.counters
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("missing counter {name}"))
            .1
    };
    // The scenario must actually overlap growth with serving: four
    // growth commands are issued (steps 6, 12, 18, 24), all acknowledged
    // by drain-out, each publishing one directory generation.
    assert_eq!(get("traffic_concurrent_growth_acks"), 4, "{:?}", a.counters);
    assert_eq!(get("traffic_concurrent_final_generation"), 4, "{:?}", a.counters);
    assert_eq!(get("traffic_concurrent_final_pool_len"), 1600 + 4 * 600, "{:?}", a.counters);
    assert!(get("traffic_concurrent_served") > 0);
    assert!(get("traffic_concurrent_planner_groups") > 0);
    assert!(get("traffic_concurrent_builds_saved") > 0, "{:?}", a.counters);
    // Conservation holds under concurrent growth too.
    assert_eq!(
        get("traffic_concurrent_arrivals"),
        get("traffic_concurrent_served")
            + get("traffic_concurrent_rejected_queue_full")
            + get("traffic_concurrent_rejected_deadline")
            + get("traffic_concurrent_expired")
            + get("traffic_concurrent_left_queued"),
        "{:?}",
        a.counters
    );
}

#[test]
fn concurrently_served_answers_match_the_one_shot_reference() {
    use sns_bench::traffic::simulate_concurrent;
    // verify: true re-checks every (query, answer) pair served while
    // growth raced the serving loop against a direct selection on the
    // final pool sampled up front — the linearizability acceptance for the
    // traffic path. A divergence panics inside simulate_concurrent.
    let cfg = TrafficConfig { steps: 14, verify: true, ..TrafficConfig::ci_concurrent() };
    let report = simulate_concurrent(&cfg);
    assert!(report.served > 0);
}
