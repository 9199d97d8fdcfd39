//! The per-rule profiler (paper §5.2).
//!
//! When [`crate::config::InterpreterConfig::profile`] is on, the
//! interpreter records, per query (rule version): cumulative wall time,
//! execution count, and tuples inserted — plus global dispatch,
//! loop-iteration, and super-instruction counters, per-relation
//! operation counts, and the semi-naive frontier (delta-relation sizes
//! per fixpoint iteration). This drives the Fig. 16 per-rule slowdown
//! histogram, the Fig. 19 dispatch-reduction measurement, and the
//! machine-readable profile of `telemetry::profile_json`.

use std::cell::{Cell, RefCell};
use std::time::Duration;

/// Mutable profiling state, updated with `Cell`s so the hot path never
/// takes a `RefCell` borrow.
#[derive(Debug, Default)]
pub struct ProfileState {
    /// Total interpreter dispatches (node evaluations).
    pub dispatches: Cell<u64>,
    /// Total scan-loop iterations.
    pub iterations: Cell<u64>,
    /// Super-instruction executions (`ProjectSuper` + `FilterFused`).
    pub super_hits: Cell<u64>,
    /// Total tuples inserted across all queries.
    pub total_inserts: Cell<u64>,
    /// Tuples inserted by the currently running query.
    current_inserts: Cell<u64>,
    per_query: RefCell<Vec<QueryStats>>,
    rel_ops: Vec<RelOpCells>,
    frontier: RefCell<Vec<FrontierSample>>,
}

/// Accumulated statistics for one query (rule version).
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// The rule text.
    pub label: String,
    /// Cumulative wall time.
    pub time: Duration,
    /// How many times the query ran (loop iterations re-run queries).
    pub executions: u64,
    /// Tuples inserted by this query.
    pub tuples: u64,
}

/// Hot-path per-relation counters (`Cell`-based; see [`RelOps`] for the
/// report form).
#[derive(Debug, Default)]
struct RelOpCells {
    inserts: Cell<u64>,
    exists_checks: Cell<u64>,
    range_queries: Cell<u64>,
    scans: Cell<u64>,
}

/// Per-relation operation counts of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelOps {
    /// Fresh tuples inserted into the relation.
    pub inserts: u64,
    /// Existence probes against the relation.
    pub exists_checks: u64,
    /// Range (index) scans opened on the relation.
    pub range_queries: u64,
    /// Full scans opened on the relation.
    pub scans: u64,
}

/// The semi-naive frontier at the end of one fixpoint iteration: the
/// sizes of all delta relations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrontierSample {
    /// Which `Loop` statement (in tree order) the sample belongs to.
    pub loop_id: usize,
    /// The 0-based iteration of that loop.
    pub iteration: u64,
    /// `(relation index, tuple count)` per delta relation.
    pub deltas: Vec<(usize, u64)>,
}

impl ProfileState {
    /// Creates state with one slot per query label and per relation.
    pub fn new(labels: &[String], relation_count: usize) -> Self {
        ProfileState {
            per_query: RefCell::new(
                labels
                    .iter()
                    .map(|l| QueryStats {
                        label: l.clone(),
                        ..QueryStats::default()
                    })
                    .collect(),
            ),
            rel_ops: (0..relation_count).map(|_| RelOpCells::default()).collect(),
            ..ProfileState::default()
        }
    }

    /// Marks the start of a query execution.
    pub fn begin_query(&self) -> std::time::Instant {
        self.current_inserts.set(0);
        std::time::Instant::now()
    }

    /// Records a completed query execution.
    pub fn end_query(&self, label: usize, started: std::time::Instant) {
        let mut q = self.per_query.borrow_mut();
        let s = &mut q[label];
        s.time += started.elapsed();
        s.executions += 1;
        s.tuples += self.current_inserts.get();
    }

    /// Counts one interpreter dispatch.
    #[inline]
    pub fn count_dispatch(&self) {
        self.dispatches.set(self.dispatches.get() + 1);
    }

    /// Counts `n` scan iterations.
    #[inline]
    pub fn count_iterations(&self, n: u64) {
        self.iterations.set(self.iterations.get() + n);
    }

    /// Counts one super-instruction execution.
    #[inline]
    pub fn count_super(&self) {
        self.super_hits.set(self.super_hits.get() + 1);
    }

    /// Counts one inserted tuple (running query + relation + total).
    #[inline]
    pub fn count_insert(&self, rel: usize) {
        self.current_inserts.set(self.current_inserts.get() + 1);
        self.total_inserts.set(self.total_inserts.get() + 1);
        let c = &self.rel_ops[rel].inserts;
        c.set(c.get() + 1);
    }

    /// Counts one existence probe against a relation.
    #[inline]
    pub fn count_exists(&self, rel: usize) {
        let c = &self.rel_ops[rel].exists_checks;
        c.set(c.get() + 1);
    }

    /// Counts one range query opened on a relation.
    #[inline]
    pub fn count_range(&self, rel: usize) {
        let c = &self.rel_ops[rel].range_queries;
        c.set(c.get() + 1);
    }

    /// Counts one full scan opened on a relation.
    #[inline]
    pub fn count_scan(&self, rel: usize) {
        let c = &self.rel_ops[rel].scans;
        c.set(c.get() + 1);
    }

    /// Folds another state's counters into this one. Worker threads of a
    /// parallel scan each accumulate into a private `ProfileState` (the
    /// `Cell`-based counters are not `Sync`); the coordinator absorbs them
    /// after the join, so totals are independent of the worker count.
    /// Only the flat counters are merged — per-query timings and frontier
    /// samples belong to the coordinator, and workers never record them.
    pub fn absorb(&self, other: &ProfileState) {
        self.dispatches
            .set(self.dispatches.get() + other.dispatches.get());
        self.iterations
            .set(self.iterations.get() + other.iterations.get());
        self.super_hits
            .set(self.super_hits.get() + other.super_hits.get());
        self.total_inserts
            .set(self.total_inserts.get() + other.total_inserts.get());
        self.current_inserts
            .set(self.current_inserts.get() + other.current_inserts.get());
        for (mine, theirs) in self.rel_ops.iter().zip(&other.rel_ops) {
            mine.inserts.set(mine.inserts.get() + theirs.inserts.get());
            mine.exists_checks
                .set(mine.exists_checks.get() + theirs.exists_checks.get());
            mine.range_queries
                .set(mine.range_queries.get() + theirs.range_queries.get());
            mine.scans.set(mine.scans.get() + theirs.scans.get());
        }
    }

    /// Records the delta sizes at the end of one fixpoint iteration.
    pub fn record_frontier(&self, loop_id: usize, iteration: u64, deltas: Vec<(usize, u64)>) {
        self.frontier.borrow_mut().push(FrontierSample {
            loop_id,
            iteration,
            deltas,
        });
    }

    /// Snapshots the final report.
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            dispatches: self.dispatches.get(),
            iterations: self.iterations.get(),
            super_hits: self.super_hits.get(),
            total_inserts: self.total_inserts.get(),
            queries: self.per_query.borrow().clone(),
            relations: self
                .rel_ops
                .iter()
                .map(|c| RelOps {
                    inserts: c.inserts.get(),
                    exists_checks: c.exists_checks.get(),
                    range_queries: c.range_queries.get(),
                    scans: c.scans.get(),
                })
                .collect(),
            frontier: self.frontier.borrow().clone(),
        }
    }
}

/// An immutable profiling report.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Total interpreter dispatches.
    pub dispatches: u64,
    /// Total scan iterations.
    pub iterations: u64,
    /// Super-instruction executions.
    pub super_hits: u64,
    /// Total tuples inserted.
    pub total_inserts: u64,
    /// Per-query statistics.
    pub queries: Vec<QueryStats>,
    /// Per-relation operation counts, indexed like the RAM relations.
    pub relations: Vec<RelOps>,
    /// Semi-naive frontier sizes, one sample per fixpoint iteration.
    pub frontier: Vec<FrontierSample>,
}

impl ProfileReport {
    /// Aggregates per *rule* (summing the delta versions of one rule),
    /// keyed by the rule text without the `[delta #k]` suffix.
    pub fn by_rule(&self) -> Vec<QueryStats> {
        let mut out: Vec<QueryStats> = Vec::new();
        for q in &self.queries {
            let base = match q.label.find(" [delta #") {
                Some(i) => &q.label[..i],
                None => &q.label[..],
            };
            match out.iter_mut().find(|s| s.label == base) {
                Some(s) => {
                    s.time += q.time;
                    s.executions += q.executions;
                    s.tuples += q.tuples;
                }
                None => out.push(QueryStats {
                    label: base.to_owned(),
                    time: q.time,
                    executions: q.executions,
                    tuples: q.tuples,
                }),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_query() {
        let p = ProfileState::new(&["a".into(), "b".into()], 2);
        let t = p.begin_query();
        p.count_insert(1);
        p.count_insert(1);
        p.end_query(0, t);
        p.count_dispatch();
        p.count_iterations(5);
        let r = p.report();
        assert_eq!(r.queries[0].tuples, 2);
        assert_eq!(r.queries[0].executions, 1);
        assert_eq!(r.queries[1].executions, 0);
        assert_eq!(r.dispatches, 1);
        assert_eq!(r.iterations, 5);
        assert_eq!(r.total_inserts, 2);
        assert_eq!(r.relations[1].inserts, 2);
        assert_eq!(r.relations[0].inserts, 0);
    }

    #[test]
    fn absorb_merges_flat_counters() {
        let main = ProfileState::new(&["q".into()], 2);
        let t = main.begin_query();
        main.count_dispatch();

        let worker = ProfileState::new(&[], 2);
        worker.count_dispatch();
        worker.count_iterations(7);
        worker.count_super();
        worker.count_exists(0);
        worker.count_scan(1);
        worker.count_insert(1);

        main.absorb(&worker);
        main.end_query(0, t);
        let r = main.report();
        assert_eq!(r.dispatches, 2);
        assert_eq!(r.iterations, 7);
        assert_eq!(r.super_hits, 1);
        assert_eq!(r.total_inserts, 1);
        assert_eq!(r.relations[0].exists_checks, 1);
        assert_eq!(r.relations[1].scans, 1);
        assert_eq!(r.relations[1].inserts, 1);
        // Absorbed inserts land in the query running at absorb time.
        assert_eq!(r.queries[0].tuples, 1);
    }

    #[test]
    fn by_rule_merges_delta_versions() {
        let p = ProfileState::new(
            &[
                "p(x) :- q(x). [delta #0]".into(),
                "p(x) :- q(x). [delta #1]".into(),
                "r(x) :- s(x).".into(),
            ],
            1,
        );
        for label in 0..3 {
            let t = p.begin_query();
            p.count_insert(0);
            p.end_query(label, t);
        }
        let rules = p.report().by_rule();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].label, "p(x) :- q(x).");
        assert_eq!(rules[0].executions, 2);
        assert_eq!(rules[0].tuples, 2);
    }

    #[test]
    fn relation_ops_and_frontier_accumulate() {
        let p = ProfileState::new(&["a".into()], 3);
        p.count_exists(0);
        p.count_exists(0);
        p.count_range(1);
        p.count_scan(2);
        p.count_super();
        p.record_frontier(0, 0, vec![(1, 4)]);
        p.record_frontier(0, 1, vec![(1, 0)]);
        let r = p.report();
        assert_eq!(r.relations[0].exists_checks, 2);
        assert_eq!(r.relations[1].range_queries, 1);
        assert_eq!(r.relations[2].scans, 1);
        assert_eq!(r.super_hits, 1);
        assert_eq!(r.frontier.len(), 2);
        assert_eq!(r.frontier[0].deltas, vec![(1, 4)]);
        assert_eq!(r.frontier[1].iteration, 1);
    }
}
