//! Batch planning and admission control — the serving front end in
//! front of [`SeedQueryEngine`](crate::SeedQueryEngine).
//!
//! Production query traffic is skewed and bursty: many concurrent
//! campaigns ask variations of the same few questions (same pool slice,
//! same audience topic, different budgets and constraints), and arrival
//! rates spike far above the sustainable service rate. Two pieces turn
//! the raw batch engine into a front end that survives that:
//!
//! * **[`BatchPlan`]** groups an incoming [`SeedQuery`] batch by the
//!   snapshot each query needs — the pool id range for plain queries,
//!   `(range, topic)` for topic-weighted ones — so one
//!   [`GainSnapshot`](sns_rrset::GainSnapshot) resolution serves every
//!   member of a group. The engine's LRU cache already makes repeated
//!   *hits* cheap; planning makes *misses* shared: a cold 64-query batch
//!   over 4 distinct ranges builds 4 snapshots, not up to 64 racing
//!   ones. Every engine entry point executes through a plan
//!   ([`SeedQueryEngine::answer_planned`](crate::SeedQueryEngine::answer_planned));
//!   planning changes who pays for a snapshot, never an answer.
//! * **[`AdmissionQueue`]** bounds how much work may wait. Every query
//!   is admitted with a [`Priority`] and an optional deadline on a
//!   **virtual clock** measured in deterministic cost units
//!   ([`estimated_cost`]); admission refuses — with a typed
//!   [`RejectReason`] the caller can surface — when the queue is at
//!   capacity or when the backlog ahead already makes the deadline
//!   unmeetable. Rejecting at the door with a reason is the graceful
//!   form of degradation: latency stays bounded for everything that is
//!   admitted, instead of every query getting slower without limit.
//!
//! The virtual clock is what makes the whole front end testable: cost
//! units are a pure function of the query and pool, so admission
//! decisions, queue order, rejects and virtual sojourn times are exactly
//! reproducible — the `sns-bench` traffic simulator replays a seeded
//! arrival schedule and CI diffs the resulting counters byte-for-byte.
//!
//! See `docs/ARCHITECTURE.md` (repository root) for the
//! plan → admit → build-or-hit → select → respond pipeline walk-through.

use std::collections::BTreeMap;

use sns_rrset::NodeCosts;

use crate::SeedQuery;

/// The snapshot identity a query resolves against — the grouping key of
/// [`BatchPlan`]. Queries with equal keys share one snapshot resolution.
/// `Ord` because the planner's grouping index is a `BTreeMap` (the
/// workspace determinism contract bans hash-order iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GroupKey {
    /// Unweighted queries over one pool id range: they share the range's
    /// plain [`GainSnapshot`](sns_rrset::GainSnapshot).
    Plain {
        /// Range start (pool set id).
        start: u32,
        /// Range end (exclusive).
        end: u32,
    },
    /// Topic-weighted queries over one range: they share the
    /// weighted [`GainSnapshot`](sns_rrset::GainSnapshot) keyed
    /// by the topic id.
    Topic {
        /// Range start (pool set id).
        start: u32,
        /// Range end (exclusive).
        end: u32,
        /// The weight vector's stable identity ([`SeedQuery::topic`]).
        topic: u64,
    },
    /// A query that cannot share anything: weighted but without a topic
    /// id, so no identity ties its weight vector to any other query's.
    /// Each such query is its own group (keyed by batch index).
    Solo {
        /// The query's index in the planned batch.
        index: usize,
    },
}

/// One group of a [`BatchPlan`]: the queries (by batch index, ascending)
/// that resolve the same snapshot.
#[derive(Debug, Clone)]
pub struct PlanGroup {
    /// The shared snapshot identity.
    pub key: GroupKey,
    /// Member indices into the planned batch, in input order.
    pub members: Vec<usize>,
}

/// A grouped execution plan for one query batch — see the module docs.
/// Build with [`BatchPlan::build`]; execute with
/// [`SeedQueryEngine::answer_planned`](crate::SeedQueryEngine::answer_planned).
#[derive(Debug, Clone)]
pub struct BatchPlan {
    groups: Vec<PlanGroup>,
    queries: usize,
    pool_len: u32,
    /// The pool directory generation this plan was built against, when
    /// the planner ran inside a pinned engine entry point
    /// ([`BatchPlan::build_for_generation`]). `None` for free-standing
    /// plans built against a bare pool length.
    generation: Option<u64>,
}

impl BatchPlan {
    /// Plans `queries` against a pool of `pool_len` sets (needed to
    /// resolve the default whole-pool range). Groups appear in order of
    /// first member appearance and members stay in input order, so the
    /// plan — like everything downstream of it — is a pure deterministic
    /// function of the batch.
    pub fn build(queries: &[SeedQuery], pool_len: u32) -> Self {
        Self::plan(queries, pool_len, None)
    }

    /// Like [`BatchPlan::build`], but stamps the plan with the pool
    /// directory generation the batch pinned — under grow-while-serving,
    /// the record of *which published pool prefix* answered this batch.
    pub fn build_for_generation(queries: &[SeedQuery], pool_len: u32, generation: u64) -> Self {
        Self::plan(queries, pool_len, Some(generation))
    }

    fn plan(queries: &[SeedQuery], pool_len: u32, generation: Option<u64>) -> Self {
        let mut groups: Vec<PlanGroup> = Vec::new();
        let mut index: BTreeMap<GroupKey, usize> = BTreeMap::new();
        for (i, q) in queries.iter().enumerate() {
            let range = q.range.clone().unwrap_or(0..pool_len);
            let key = match (&q.root_weights, q.topic) {
                (Some(_), Some(topic)) => {
                    GroupKey::Topic { start: range.start, end: range.end, topic }
                }
                (Some(_), None) => GroupKey::Solo { index: i },
                (None, _) => GroupKey::Plain { start: range.start, end: range.end },
            };
            match index.get(&key) {
                // The index only ever stores positions of pushed groups,
                // so the lookup always succeeds — checked access keeps
                // the serving path panic-free regardless.
                Some(&g) => {
                    if let Some(group) = groups.get_mut(g) {
                        group.members.push(i);
                    }
                }
                None => {
                    index.insert(key, groups.len());
                    groups.push(PlanGroup { key, members: vec![i] });
                }
            }
        }
        BatchPlan { groups, queries: queries.len(), pool_len, generation }
    }

    /// The plan's groups, in first-appearance order.
    pub fn groups(&self) -> &[PlanGroup] {
        &self.groups
    }

    /// Number of groups formed.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of queries planned.
    pub fn num_queries(&self) -> usize {
        self.queries
    }

    /// The pool length the plan resolved default ranges against.
    pub fn pool_len(&self) -> u32 {
        self.pool_len
    }

    /// The pool directory generation the plan was built against, if it
    /// was built through [`BatchPlan::build_for_generation`].
    pub fn generation(&self) -> Option<u64> {
        self.generation
    }

    /// Snapshot resolutions the grouping saved: every member beyond the
    /// first of a shareable (non-[`GroupKey::Solo`]) group rides on its
    /// group's single resolution instead of paying its own lookup —
    /// and, on a cold cache, its own build.
    pub fn builds_saved(&self) -> u64 {
        self.groups
            .iter()
            .filter(|g| !matches!(g.key, GroupKey::Solo { .. }))
            .map(|g| g.members.len() as u64 - 1)
            .sum()
    }
}

/// Service priority of an admitted query. Higher priorities drain first;
/// within a priority the queue is FIFO by admission order, so service
/// order is fully deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background traffic — analytics sweeps, prefetching.
    Low,
    /// The default interactive class.
    Normal,
    /// Latency-critical traffic; drained before everything else.
    High,
}

/// Why the admission queue refused a query. Returned to the caller so a
/// front end can answer "try later" / "relax the deadline" instead of
/// silently degrading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The queue already holds `capacity` queries; admitting more would
    /// grow latency without bound.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// Even served right after the backlog of equal-or-higher priority
    /// ahead of it, the query would finish past its deadline.
    DeadlineUnmeetable {
        /// Virtual time the query could finish at, at the earliest.
        earliest_finish: u64,
        /// The deadline it asked for.
        deadline: u64,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} queries waiting)")
            }
            RejectReason::DeadlineUnmeetable { earliest_finish, deadline } => write!(
                f,
                "deadline unmeetable: earliest finish at virtual time {earliest_finish}, \
                 deadline {deadline}"
            ),
        }
    }
}

/// Deterministic service-cost estimate of one query, in abstract cost
/// units — the currency of the admission queue's virtual clock.
/// Snapshot and selection work scale with the queried range, the greedy
/// loop with the number of selection rounds, so the estimate is
/// `1 + range_len/256 + effective_k`. For cardinality queries the round
/// count is `k`; for budgeted queries it is the budget divided by the
/// cheapest node cost, rounded up — the most rounds the ratio greedy can
/// possibly run. Only *relative* magnitudes matter (deadlines and
/// backlog are measured in the same units); the estimate never
/// influences answers.
pub fn estimated_cost(query: &SeedQuery, pool_len: u32) -> u64 {
    let range = query.range.clone().unwrap_or(0..pool_len);
    let range_len = u64::from(range.end.saturating_sub(range.start));
    (1 + range_len / 256).saturating_add(effective_k(query))
}

/// Upper bound on the number of greedy selection rounds a query can
/// drive: `k` for cardinality queries, `ceil(budget / min_cost)` for
/// budgeted ones. Admission runs *before* engine validation, so
/// malformed budgets or cost tables must degrade to the `k` estimate
/// instead of panicking (the planner is on the panic-free serving path).
fn effective_k(query: &SeedQuery) -> u64 {
    let Some(budget) = query.budget else {
        return query.k as u64;
    };
    let min_cost = match &query.costs {
        NodeCosts::Uniform => 1.0,
        NodeCosts::PerNode(costs) => {
            let mut min = f64::INFINITY;
            for &c in costs.iter() {
                if c.is_finite() && c > 0.0 && c < min {
                    min = c;
                }
            }
            min
        }
    };
    if !budget.is_finite() || budget < 0.0 || !min_cost.is_finite() {
        return query.k as u64;
    }
    // `f64 as u64` saturates, so even absurd budgets stay well-defined.
    let seats = (budget / min_cost).ceil();
    (seats) as u64
}

/// One admitted query waiting in (or drained from) an [`AdmissionQueue`].
#[derive(Debug, Clone)]
pub struct Pending {
    /// The query itself.
    pub query: SeedQuery,
    /// Its service class.
    pub priority: Priority,
    /// Latest acceptable completion, on the virtual clock; `None` waits
    /// indefinitely.
    pub deadline: Option<u64>,
    /// Estimated service cost ([`estimated_cost`]) in virtual units.
    pub cost: u64,
    /// Virtual time the query was admitted at.
    pub arrived: u64,
    /// Admission ticket: unique, ascending in admission order.
    pub ticket: u64,
}

/// Cumulative counters of an [`AdmissionQueue`] — the deterministic
/// half of the serving telemetry (wall-clock latency is measured by the
/// caller; these never depend on timing or threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries admitted into the queue.
    pub admitted: u64,
    /// Queries refused because the queue was at capacity.
    pub rejected_queue_full: u64,
    /// Queries refused because their deadline was already unmeetable.
    pub rejected_deadline: u64,
    /// Admitted queries dropped at drain time because their deadline had
    /// passed while they waited (burst aftermath).
    pub expired: u64,
    /// Queries handed to the engine by [`AdmissionQueue::drain`].
    pub drained: u64,
}

/// A bounded, priority-ordered admission queue over a deterministic
/// virtual clock — see the module docs. All state transitions are pure
/// functions of the admission sequence, so two replays of the same
/// arrival schedule produce identical queues, rejects and counters.
#[derive(Debug)]
pub struct AdmissionQueue {
    capacity: usize,
    entries: Vec<Pending>,
    /// Sum of queued costs per priority (index = `Priority as usize`),
    /// kept incrementally for O(1) backlog-ahead computation.
    backlog: [u64; 3],
    next_ticket: u64,
    stats: AdmissionStats,
}

impl AdmissionQueue {
    /// An empty queue admitting at most `capacity` waiting queries.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            capacity: capacity.max(1),
            entries: Vec::new(),
            backlog: [0; 3],
            next_ticket: 0,
            stats: AdmissionStats::default(),
        }
    }

    /// Queries currently waiting.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total estimated cost of all waiting queries, in virtual units.
    pub fn backlog_cost(&self) -> u64 {
        self.backlog.iter().sum()
    }

    /// The queue's cumulative counters.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Estimated cost of the queued work that would be served before a
    /// query of `priority`: everything of equal or higher priority.
    /// Destructuring instead of `backlog[priority as usize..]` keeps the
    /// serving path free of unchecked indexing (sns-lint `panics/index`).
    fn backlog_ahead(&self, priority: Priority) -> u64 {
        let [low, normal, high] = self.backlog;
        match priority {
            Priority::Low => low + normal + high,
            Priority::Normal => normal + high,
            Priority::High => high,
        }
    }

    /// The backlog accumulator for one priority class, by `match` — the
    /// array has exactly one slot per [`Priority`] variant.
    fn backlog_slot(&mut self, priority: Priority) -> &mut u64 {
        match priority {
            Priority::Low => &mut self.backlog[0],
            Priority::Normal => &mut self.backlog[1],
            Priority::High => &mut self.backlog[2],
        }
    }

    /// Offers `query` for admission at virtual time `now` against a pool
    /// of `pool_len` sets. On success the query is queued and its ticket
    /// returned; on failure nothing is queued and the [`RejectReason`]
    /// says why. A deadline of `Some(d)` means "useless unless finished
    /// by virtual time `d`": admission refuses immediately when
    /// `now + backlog_ahead + cost > d`, so callers learn at submission
    /// time — not after waiting — that the answer cannot arrive in time.
    pub fn admit(
        &mut self,
        query: SeedQuery,
        priority: Priority,
        deadline: Option<u64>,
        now: u64,
        pool_len: u32,
    ) -> Result<u64, RejectReason> {
        if self.entries.len() >= self.capacity {
            self.stats.rejected_queue_full += 1;
            return Err(RejectReason::QueueFull { capacity: self.capacity });
        }
        let cost = estimated_cost(&query, pool_len);
        let earliest_finish = now + self.backlog_ahead(priority) + cost;
        if let Some(deadline) = deadline {
            if earliest_finish > deadline {
                self.stats.rejected_deadline += 1;
                return Err(RejectReason::DeadlineUnmeetable { earliest_finish, deadline });
            }
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        *self.backlog_slot(priority) += cost;
        self.entries.push(Pending { query, priority, deadline, cost, arrived: now, ticket });
        self.stats.admitted += 1;
        Ok(ticket)
    }

    /// Removes and returns up to `max` queries in service order —
    /// priority descending, FIFO within a priority — at virtual time
    /// `now`. Admitted queries whose deadline has already passed are
    /// dropped (counted in [`AdmissionStats::expired`], not returned):
    /// after a burst it is better to shed work nobody can use than to
    /// serve it late at the expense of queries that can still make it.
    pub fn drain(&mut self, now: u64, max: usize) -> Vec<Pending> {
        // Service order must not depend on Vec layout games: sort by
        // (priority desc, ticket asc) — a total, deterministic order.
        self.entries
            .sort_by(|a, b| b.priority.cmp(&a.priority).then_with(|| a.ticket.cmp(&b.ticket)));
        let mut out = Vec::new();
        let mut kept = Vec::new();
        let mut drained = std::mem::take(&mut self.entries).into_iter();
        for entry in drained.by_ref() {
            if entry.deadline.is_some_and(|d| d < now) {
                *self.backlog_slot(entry.priority) -= entry.cost;
                self.stats.expired += 1;
                continue;
            }
            if out.len() < max {
                *self.backlog_slot(entry.priority) -= entry.cost;
                self.stats.drained += 1;
                out.push(entry);
            } else {
                kept.push(entry);
            }
        }
        kept.extend(drained);
        self.entries = kept;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(k: usize) -> SeedQuery {
        SeedQuery::top_k(k)
    }

    #[test]
    fn plan_groups_by_range_and_topic() {
        let weights: std::sync::Arc<[f64]> = vec![1.0; 10].into();
        let batch = vec![
            q(1),                                                  // full range
            q(2).over_range(0..50),                                // range A
            q(3),                                                  // full range again
            q(4).over_range(0..50),                                // range A again
            q(5).with_root_weights(weights.clone()).with_topic(7), // topic 7
            q(6).with_root_weights(weights.clone()).with_topic(7), // topic 7 again
            q(7).with_root_weights(weights.clone()),               // solo (no topic)
            q(8).with_root_weights(weights).with_topic(9),         // topic 9
        ];
        let plan = BatchPlan::build(&batch, 100);
        assert_eq!(plan.num_queries(), 8);
        assert_eq!(plan.num_groups(), 5);
        assert_eq!(plan.builds_saved(), 3);
        let keys: Vec<GroupKey> = plan.groups().iter().map(|g| g.key).collect();
        assert_eq!(
            keys,
            vec![
                GroupKey::Plain { start: 0, end: 100 },
                GroupKey::Plain { start: 0, end: 50 },
                GroupKey::Topic { start: 0, end: 100, topic: 7 },
                GroupKey::Solo { index: 6 },
                GroupKey::Topic { start: 0, end: 100, topic: 9 },
            ]
        );
        assert_eq!(plan.groups()[0].members, vec![0, 2]);
        assert_eq!(plan.groups()[1].members, vec![1, 3]);
        assert_eq!(plan.groups()[2].members, vec![4, 5]);
        // every index appears exactly once across groups
        let mut all: Vec<usize> = plan.groups().iter().flat_map(|g| g.members.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn plans_record_pool_len_and_generation() {
        let batch = vec![q(1), q(2).over_range(0..50)];
        let bare = BatchPlan::build(&batch, 100);
        assert_eq!(bare.pool_len(), 100);
        assert_eq!(bare.generation(), None);
        let pinned = BatchPlan::build_for_generation(&batch, 100, 3);
        assert_eq!(pinned.generation(), Some(3));
        // the stamp is metadata only: grouping is identical
        let keys = |p: &BatchPlan| p.groups().iter().map(|g| g.key).collect::<Vec<_>>();
        assert_eq!(keys(&bare), keys(&pinned));
        assert_eq!(bare.builds_saved(), pinned.builds_saved());
    }

    #[test]
    fn cost_model_scales_with_range_and_k() {
        assert_eq!(estimated_cost(&q(5), 256), 1 + 1 + 5);
        assert_eq!(estimated_cost(&q(5).over_range(0..512), 10_000), 1 + 2 + 5);
        assert!(estimated_cost(&q(1), 1_000_000) > estimated_cost(&q(1), 1000));
    }

    #[test]
    fn cost_model_derives_effective_k_from_the_budget() {
        // Uniform costs: ceil(budget / 1) rounds of selection at most.
        assert_eq!(estimated_cost(&SeedQuery::budgeted(5.0), 256), 1 + 1 + 5);
        assert_eq!(estimated_cost(&SeedQuery::budgeted(4.2), 256), 1 + 1 + 5);
        // Per-node costs: the cheapest node bounds the round count.
        let costs = NodeCosts::per_node(vec![2.0, 0.5, 4.0].into());
        assert_eq!(estimated_cost(&SeedQuery::budgeted(4.0).with_costs(costs), 256), 1 + 1 + 8);
        // A budgeted q(5) and a top-5 query cost the same: the admission
        // clock sees through the phrasing of the workload.
        assert_eq!(estimated_cost(&SeedQuery::budgeted(5.0), 256), estimated_cost(&q(5), 256));
    }

    #[test]
    fn cost_model_survives_malformed_budgeted_queries() {
        // Admission runs before engine validation: garbage budgets or
        // cost tables must fall back to the `k` estimate, not panic.
        assert_eq!(estimated_cost(&q(3).with_budget(f64::NAN), 256), 1 + 1 + 3);
        assert_eq!(estimated_cost(&q(3).with_budget(-1.0), 256), 1 + 1 + 3);
        let all_bad = NodeCosts::per_node(vec![f64::NAN, -2.0, 0.0].into());
        assert_eq!(estimated_cost(&q(3).with_budget(4.0).with_costs(all_bad), 256), 1 + 1 + 3);
        // Saturating cast: an absurd budget yields a huge but defined cost.
        assert!(estimated_cost(&SeedQuery::budgeted(f64::MAX), 256) > 1 << 60);
    }

    #[test]
    fn queue_full_rejects_with_capacity() {
        let mut queue = AdmissionQueue::new(2);
        assert!(queue.admit(q(1), Priority::Normal, None, 0, 100).is_ok());
        assert!(queue.admit(q(1), Priority::Normal, None, 0, 100).is_ok());
        let rejected = queue.admit(q(1), Priority::High, None, 0, 100);
        assert_eq!(rejected, Err(RejectReason::QueueFull { capacity: 2 }));
        let s = queue.stats();
        assert_eq!((s.admitted, s.rejected_queue_full), (2, 1));
    }

    #[test]
    fn unmeetable_deadline_rejects_at_the_door() {
        let mut queue = AdmissionQueue::new(16);
        // backlog of two normal queries, each cost 1 + 100/256 + 10 = 11
        queue.admit(q(10).over_range(0..100), Priority::Normal, None, 0, 100).unwrap();
        queue.admit(q(10).over_range(0..100), Priority::Normal, None, 0, 100).unwrap();
        // same query with a deadline inside the backlog: rejected, and the
        // reason carries the realizable finish time
        let r = queue.admit(q(10).over_range(0..100), Priority::Normal, Some(20), 0, 100);
        assert_eq!(r, Err(RejectReason::DeadlineUnmeetable { earliest_finish: 33, deadline: 20 }));
        // a High query only waits for High backlog (none): it fits
        assert!(queue.admit(q(10).over_range(0..100), Priority::High, Some(20), 0, 100).is_ok());
        assert_eq!(queue.stats().rejected_deadline, 1);
        // generous deadline admits
        assert!(queue.admit(q(10).over_range(0..100), Priority::Low, Some(1000), 0, 100).is_ok());
    }

    #[test]
    fn drain_orders_by_priority_then_fifo_and_expires() {
        let mut queue = AdmissionQueue::new(16);
        let t0 = queue.admit(q(1), Priority::Low, None, 0, 100).unwrap();
        let t1 = queue.admit(q(2), Priority::Normal, None, 0, 100).unwrap();
        let t2 = queue.admit(q(3), Priority::High, Some(5), 0, 100).unwrap();
        let t3 = queue.admit(q(4), Priority::Normal, None, 0, 100).unwrap();
        // each query costs 1 (base) + k; range 0..100 adds nothing
        assert_eq!(queue.backlog_cost(), 4 + (1 + 2 + 3 + 4));
        // virtual time 10: the High query's deadline (5) has passed
        let drained = queue.drain(10, 2);
        let tickets: Vec<u64> = drained.iter().map(|p| p.ticket).collect();
        assert_eq!(tickets, vec![t1, t3], "expired High dropped, Normal FIFO next");
        assert!(!tickets.contains(&t2));
        let s = queue.stats();
        assert_eq!((s.expired, s.drained), (1, 2));
        // the Low query is still waiting, backlog accounted
        assert_eq!(queue.len(), 1);
        assert_eq!(queue.backlog_cost(), 2);
        let rest = queue.drain(10, 10);
        assert_eq!(rest[0].ticket, t0);
        assert!(queue.is_empty());
        assert_eq!(queue.backlog_cost(), 0);
    }

    #[test]
    fn replayed_admission_schedules_are_identical() {
        let run = || {
            let mut queue = AdmissionQueue::new(4);
            let mut log = Vec::new();
            let mut now = 0u64;
            for step in 0u64..40 {
                let pri = match step % 5 {
                    0 => Priority::High,
                    4 => Priority::Low,
                    _ => Priority::Normal,
                };
                let deadline = (step % 3 == 0).then_some(now + 20);
                let r = queue.admit(q((step % 7) as usize + 1), pri, deadline, now, 2000);
                log.push(r);
                if step % 4 == 3 {
                    for p in queue.drain(now, 2) {
                        now += p.cost;
                        log.push(Ok(p.ticket + 1000));
                    }
                }
            }
            (log, queue.stats())
        };
        assert_eq!(run(), run());
        let (_, stats) = run();
        assert!(stats.rejected_queue_full > 0 || stats.rejected_deadline > 0, "{stats:?}");
    }
}
