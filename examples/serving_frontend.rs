//! The serving *front end*: a bounded admission queue with priorities
//! and deadlines in front of the batch planner — bursty, skewed query
//! traffic against one frozen RR pool.
//!
//! ```sh
//! cargo run --release --example serving_frontend
//! ```
//!
//! Where `seed_service.rs` shows the engine answering one curated
//! batch, this example shows what stands between raw traffic and the
//! engine in production: every query is offered to an
//! [`AdmissionQueue`] with a priority and an optional deadline on the
//! queue's virtual cost clock; overflow and hopeless deadlines are
//! rejected *at the door* with a typed reason; whatever is admitted is
//! drained in priority order and executed through
//! [`SeedQueryEngine::answer_planned`], which groups the batch by
//! (range, topic) so one gain-snapshot resolution serves each group —
//! bit-identical to answering each query alone, cheaper on cold caches.

use stop_and_stare::graph::{gen, WeightModel};
use stop_and_stare::tvm::TargetWeights;
use stop_and_stare::{
    AdmissionQueue, Model, Priority, SamplingContext, SeedQuery, SeedQueryEngine,
};

fn main() {
    let graph = gen::barabasi_albert(10_000, 5, gen::Orientation::RandomSingle, 42)
        .build(WeightModel::WeightedCascade)
        .expect("generator parameters are valid");
    let ctx = SamplingContext::new(&graph, Model::IndependentCascade).with_seed(7).with_threads(4);
    let engine = SeedQueryEngine::sample(&ctx, 20_000).with_threads(4);
    let pool_len = engine.pool().len() as u32;
    println!("engine frozen: {pool_len} sets\n");

    // A burst of mixed traffic: interactive dashboards (High, tight
    // deadlines), the default campaign queries (Normal), and analytics
    // sweeps (Low, patient). Two campaigns share the sports topic — the
    // planner will give them one weighted snapshot resolution.
    let sports = TargetWeights::synthetic_topic(&graph, 0.05, 1.0, 3).expect("valid topic");
    let mut queue = AdmissionQueue::new(8);
    let now = 0u64;
    let offers: Vec<(&str, SeedQuery, Priority, Option<u64>)> = vec![
        ("dashboard top-10", SeedQuery::top_k(10), Priority::High, Some(now + 200)),
        ("campaign top-25", SeedQuery::top_k(25), Priority::Normal, None),
        ("campaign sports-25", sports.seed_query(25), Priority::Normal, None),
        ("campaign sports-10", sports.seed_query(10), Priority::Normal, None),
        ("audit half-pool", SeedQuery::top_k(25).over_range(0..pool_len / 2), Priority::Low, None),
        // a deadline the backlog ahead of it already makes impossible
        ("impatient top-50", SeedQuery::top_k(50), Priority::Normal, Some(now + 10)),
        ("campaign top-5", SeedQuery::top_k(5), Priority::Normal, None),
        ("analytics full", SeedQuery::top_k(40), Priority::Low, None),
        ("campaign top-12", SeedQuery::top_k(12), Priority::Normal, None),
        ("overflow top-3", SeedQuery::top_k(3), Priority::Normal, None),
        ("overflow top-4", SeedQuery::top_k(4), Priority::Normal, None),
    ];
    println!("{:<20} {:<8} admission", "query", "class");
    for (label, query, priority, deadline) in offers {
        let class = format!("{priority:?}");
        match queue.admit(query, priority, deadline, now, pool_len) {
            Ok(ticket) => println!("{label:<20} {class:<8} admitted (ticket {ticket})"),
            Err(reason) => println!("{label:<20} {class:<8} REJECTED: {reason}"),
        }
    }

    // Drain in service order (priority desc, FIFO within) and execute
    // through the planner: grouped queries share snapshot resolutions.
    let drained = queue.drain(now, 16);
    let batch: Vec<SeedQuery> = drained.iter().map(|p| p.query.clone()).collect();
    let answers = engine.answer_planned(&batch).expect("admitted queries are valid");
    println!("\nserved {} queries in priority order:", answers.len());
    for (pending, answer) in drained.iter().zip(&answers) {
        println!(
            "  ticket {:<2} {:<8} k={:<3} covered {:>9.1}",
            pending.ticket,
            format!("{:?}", pending.priority),
            pending.query.k,
            answer.covered
        );
    }

    let qstats = queue.stats();
    let estats = engine.stats();
    // The planner only changes who pays for snapshot resolution — never
    // the answers: each equals the query answered as a batch of one.
    for (query, answer) in batch.iter().zip(&answers) {
        let alone = engine.answer(query).expect("valid query");
        assert_eq!(answer, &alone, "a grouped answer must equal the one-query answer");
    }
    println!(
        "\nadmission: {} admitted, {} rejected (queue full), {} rejected (deadline)",
        qstats.admitted, qstats.rejected_queue_full, qstats.rejected_deadline
    );
    println!(
        "planner: {} groups over {} queries, {} snapshot resolutions saved",
        estats.planner_groups,
        batch.len(),
        estats.planner_builds_saved
    );
    println!("verified: planned answers are bit-identical to one-query answers");
}
