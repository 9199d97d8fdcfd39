//! The serving counters and the metric catalogue. Every counter and
//! gauge a surface shows is one row of [`ResidentEngine::metrics`].

use super::*;
use crate::morsel::ParallelReport;
use crate::telemetry::{
    Gate, MetricFamily, MetricKind, MetricRow, MetricSnapshot, MetricValue, Reach, Surface,
};
use std::sync::atomic::AtomicU64;

/// Declares the serving counters once: the public [`ServerStats`]
/// snapshot, the atomics behind it, and the load from one to the other.
macro_rules! serving_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// A point-in-time snapshot of the serving counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct ServerStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        #[derive(Debug, Default)]
        pub(super) struct Counters {
            $(pub(super) $name: AtomicU64,)*
            /// Per-worker tuple totals across every parallel scan; grows
            /// to the largest job count seen.
            worker_tuples: std::sync::Mutex<Vec<u64>>,
        }

        impl Counters {
            fn load(&self) -> ServerStats {
                ServerStats {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }
    };
}

serving_counters! {
    /// Requests served: updates, retractions, queries and explains.
    requests,
    /// Genuinely new tuples inserted across all updates.
    update_tuples,
    /// Rows returned across all queries.
    query_rows,
    /// Incremental stratum re-runs across all updates.
    strata_rerun,
    /// Full stratum recomputations across all updates.
    full_fallbacks,
    /// `.explain` requests served (always 0 with provenance off).
    explain_requests,
    /// Proof-tree nodes returned across all `.explain` requests.
    explain_nodes,
    /// Retraction requests served.
    retracts,
    /// Tuples actually removed across all retractions.
    retract_tuples,
    /// Over-deleted tuples restored by re-derivation.
    rederived,
    /// Scans that fanned out to work-stealing workers (0 when the engine
    /// runs sequentially).
    parallel_scans,
    /// Morsels claimed across all parallel scans and workers.
    parallel_morsels,
    /// Morsels claimed outside the claiming worker's own range.
    parallel_steals,
    /// Coordinator microseconds merging worker sinks after the joins
    /// (clocked only while a profile or metrics observer is attached).
    parallel_merge_us,
}

impl Counters {
    /// Folds one evaluation's work-stealing statistics into the serving
    /// counters. A no-op for sequential evaluations (`None`).
    pub(super) fn absorb_parallel(&self, par: Option<&ParallelReport>) {
        let Some(par) = par else { return };
        self.parallel_scans.fetch_add(par.scans, Ordering::Relaxed);
        self.parallel_morsels
            .fetch_add(par.morsels(), Ordering::Relaxed);
        self.parallel_steals
            .fetch_add(par.steals(), Ordering::Relaxed);
        self.parallel_merge_us
            .fetch_add(par.merge_us, Ordering::Relaxed);
        let mut wt = self.worker_tuples.lock().expect("worker tuples lock");
        if wt.len() < par.workers.len() {
            wt.resize(par.workers.len(), 0);
        }
        for (w, s) in par.workers.iter().enumerate() {
            wt[w] += s.tuples;
        }
    }
}

/// The catalogue's table syntax, one metric per row. A family is
/// `group [Gate: open-condition] { rows }`; a row is
/// `field: Kind Reach = value, "help" (, Surface "historical name")*;`.
macro_rules! catalogue {
    ($($group:ident [$gate:ident: $open:expr] {
        $($field:ident: $kind:ident $reach:ident = $value:expr, $help:literal
            $(, $surface:ident $name:literal)*;)*
    })*) => {
        vec![$(MetricFamily {
            group: stringify!($group),
            gate: Gate::$gate,
            open: $open,
            rows: vec![$(MetricRow {
                field: stringify!($field),
                kind: MetricKind::$kind,
                reach: Reach::$reach,
                value: MetricValue::from($value),
                help: $help,
                names: &[$((Surface::$surface, $name)),*],
            }),*],
        }),*]
    };
}

impl ResidentEngine {
    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        self.counters.load()
    }

    /// The serving-metric catalogue with current values: every counter
    /// and gauge is declared here, once, and the four surfaces (`.stats`,
    /// `.stats json`, `/metrics`, the profile registry via
    /// [`Self::sync_metrics`]) are loops over the result. Adding a metric
    /// is adding one row. Only rendering a surface calls this.
    pub fn metrics(&self) -> MetricSnapshot {
        use MetricValue::{PerLabel, State};
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let s = self.stats();
        let m = &self.serve_metrics;
        let p = self.persistence.as_ref();
        let w = self.wal_stats().unwrap_or_default();
        let rec = p.map(|p| p.recovery.clone()).unwrap_or_default();
        let (snap_writes, snap_tuples) =
            p.map_or((0, 0), |p| (p.snapshot_writes, p.snapshot_tuples));
        let group = self.group_commit_stats();
        let (group_fsyncs, group_commits) = group.unwrap_or_default();
        let cache = self.page_cache_stats();
        let (hits, misses, evictions, cached, budget) = cache.unwrap_or_default();
        let h = &self.health;
        let disk = self.config.storage == StorageBackend::Disk;
        let workers = self.counters.worker_tuples.lock();
        let workers = workers.expect("worker tuples lock").clone();
        let workers = (0..).map(|w| w.to_string()).zip(workers).collect();
        // Disk-backed indexes report only what lives in memory (fences
        // and delta overlays), not the mapped run region, so the total
        // tracks the process's real footprint.
        let relation_bytes =
            self.per_base_relation(|rel| rel.index_stats().iter().map(|s| s.bytes).sum());
        let resident_bytes: u64 = relation_bytes.iter().map(|(_, n)| n).sum();
        let families = catalogue! {
            server [Always: true] {
                requests:         Counter Line = s.requests, "Requests served.";
                update_tuples:    Counter Line = s.update_tuples, "New tuples inserted by updates.";
                query_rows:       Counter Line = s.query_rows, "Rows returned by queries.";
                strata_rerun:     Counter Line = s.strata_rerun, "Incremental stratum re-runs.";
                full_fallbacks:   Counter Line = s.full_fallbacks, "Full stratum recomputations.";
            }
            server [FirstUse: s.retracts > 0] {
                retracts:         Counter Line = s.retracts, "Retraction requests served.";
                retract_tuples:   Counter Line = s.retract_tuples, "Tuples removed by retractions.";
                rederived:        Counter Line = s.rederived,
                    "Over-deleted tuples restored by re-derivation.";
            }
            server [FirstUse: self.config.provenance] {
                explain_requests: Counter Line = s.explain_requests, "Explain requests served.",
                    Registry "explain.requests";
                explain_nodes:    Counter Line = s.explain_nodes,
                    "Proof-tree nodes returned by explain requests.", Registry "explain.nodes";
            }
            server [ParallelRan: s.parallel_scans > 0] {
                parallel_scans:   Counter Registry = s.parallel_scans,
                    "Scans fanned out to work-stealing workers.", Prom "parallel_scans";
                parallel_morsels: Counter Registry = s.parallel_morsels,
                    "Morsels claimed across all parallel scans.", Prom "parallel_morsels";
                parallel_steals:  Counter Registry = s.parallel_steals,
                    "Morsels stolen from other workers' ranges.", Prom "parallel_steals";
                parallel_merge_us: Counter Registry = s.parallel_merge_us,
                    "Coordinator microseconds merging worker sinks.", Prom "parallel_merge_us";
                parallel_worker_tuples: Counter Registry = PerLabel("worker", workers),
                    "Tuples processed per worker.", Prom "parallel_worker_tuples",
                    Registry "server.parallel_worker.{}.tuples";
            }
            connections [Always: true] {
                live:  Gauge Wire = load(&m.conns_live), "Connections currently open.";
                peak:  Gauge Wire = load(&m.conns_peak), "Peak concurrently open connections.";
                total: Counter Wire = load(&m.conns_total), "Connections accepted.",
                    Prom "connections";
                slow_requests: Counter Wire = load(&m.slow_requests),
                    "Requests over the slow threshold.", Prom "server_slow_requests";
            }
            db [Always: true] {
                epoch: Gauge Wire = u64::from(self.db.epoch.load(Ordering::Relaxed)),
                    "Database epoch (bumped on every visible mutation).";
                storage: Gauge Wire = State(u64::from(disk), self.config.storage.as_str()),
                    "Storage backend of the standard relations (0 mem, 1 disk).";
                relations: Gauge Wire = PerLabel("relation", self.relation_tuples()),
                    "Current tuples per base relation.", Prom "relation_tuples";
                relation_bytes: Gauge Wire = PerLabel("relation", relation_bytes),
                    "Approximate resident bytes per base relation \
                     (index structures only; mapped snapshot pages are excluded).",
                    Prom "relation_bytes";
                resident_bytes: Gauge Wire = resident_bytes,
                    "Approximate resident bytes across all base relations' indexes.",
                    Prom "relations_resident_bytes";
            }
            page_cache [Mapped: cache.is_some()] {
                hits:      Counter Registry = hits, "Snapshot page-cache hits.",
                    Registry "storage.page_cache.hits";
                misses:    Counter Registry = misses,
                    "Snapshot page-cache misses (pages read from disk).",
                    Registry "storage.page_cache.misses";
                evictions: Counter Registry = evictions,
                    "Snapshot pages evicted to stay within budget.",
                    Registry "storage.page_cache.evictions";
                resident_bytes: Gauge Registry = cached,
                    "Bytes of snapshot pages currently cached.",
                    Registry "storage.page_cache.resident_bytes";
                budget_bytes:   Gauge Registry = budget, "Configured snapshot page-cache budget.",
                    Registry "storage.page_cache.budget_bytes";
            }
            wal [Durable: p.is_some()] {
                appends: Counter Line = w.appends, "WAL records appended.", Plain "wal_appends";
                bytes:   Counter Line = w.bytes, "WAL bytes appended.", Plain "wal_bytes";
                fsyncs:  Counter Line = w.fsyncs, "WAL fsync calls.", Plain "wal_fsyncs";
                append_errors: Counter Line = w.append_errors, "WAL appends that failed.",
                    Plain "wal_append_errors";
            }
            snapshot [Durable: p.is_some()] {
                writes: Counter Line = snap_writes, "Snapshots written.", Plain "snapshot_writes";
                tuples: Counter Line = snap_tuples, "Tuples across written snapshots.",
                    Plain "snapshot_tuples";
            }
            recovery [Durable: p.is_some()] {
                snapshot_loaded:  Gauge Line = u64::from(rec.snapshot_loaded),
                    "Whether startup loaded a snapshot (0/1).", Plain "recovery_snapshot_loaded";
                wal_records:      Gauge Wire = rec.replayed_batches + rec.skipped_batches,
                    "WAL records read during recovery.";
                replayed_batches: Gauge Line = rec.replayed_batches,
                    "WAL batches re-applied during recovery.", Plain "recovery_replayed_batches";
                replayed_tuples:  Gauge Registry = rec.replayed_tuples,
                    "New tuples contributed by replayed WAL batches.";
                skipped_batches:  Gauge Registry = rec.skipped_batches,
                    "WAL batches dropped during recovery because they no longer apply.";
                torn_bytes:       Gauge Registry = rec.torn_bytes,
                    "Torn bytes discarded from the WAL tail during recovery.";
                replay_ms:        Gauge Line = rec.replay_ms,
                    "Milliseconds spent replaying the WAL at startup.", Plain "recovery_replay_ms";
            }
            group_commit [GroupCommit: group.is_some()] {
                fsyncs:  Counter Line = group_fsyncs, "Group-commit fsync barriers flushed.",
                    Plain "group_commit_fsyncs";
                commits: Counter Line = group_commits,
                    "Commits acknowledged through group-commit barriers.",
                    Plain "group_commit_commits";
            }
            health [EverDegraded: h.state_code() != 0 || load(&h.degraded_entered) > 0] {
                state: Gauge Line = State(u64::from(h.state_code()), h.snapshot().label()),
                    "Storage health (0 healthy, 1 degraded read-only, 2 failed).",
                    Prom "degraded", Plain "health";
                degraded_entered: Counter Line = load(&h.degraded_entered),
                    "Transitions into degraded read-only mode.", Prom "degraded_entered";
                degraded_healed:  Counter Line = load(&h.degraded_healed),
                    "Degraded episodes that healed back to healthy.", Prom "degraded_healed";
                probe_failures:   Counter Line = load(&h.probe_failures),
                    "Storage heal probes that failed.", Prom "degraded_probe_failures";
                writes_refused:   Counter Line = load(&h.writes_refused),
                    "Writes refused while degraded or failed.", Prom "degraded_writes_refused";
            }
        };
        MetricSnapshot {
            families,
            histograms: m.histograms().map(|(name, h)| (name, h.snapshot())),
        }
    }

    /// Flushes the serving counters and the database structure into an
    /// attached metrics registry. A no-op when the registry is disabled.
    pub fn sync_metrics(&self, tel: &Telemetry) {
        let m = &tel.metrics;
        if !m.enabled() {
            return;
        }
        for family in self.metrics().families.iter().filter(|f| f.open) {
            for row in family.rows.iter().filter(|r| r.reach <= Reach::Registry) {
                for (label, value) in row.value.samples() {
                    m.set(&family.registry_key(row, label), value);
                }
            }
        }
        self.db.sample_metrics(&self.ram, m);
    }

    /// Shares a serving metrics registry with the engine: WAL append
    /// and fsync latencies flow into its histograms and snapshot
    /// durations are recorded.
    pub fn attach_serve_metrics(&mut self, metrics: Arc<ServeMetrics>) {
        if let Some(p) = &mut self.persistence {
            p.wal.attach_metrics(Arc::clone(&metrics));
        }
        self.serve_metrics = metrics;
    }

    /// Current tuple count of every base (`Role::Standard`) relation,
    /// in declaration order — the per-relation gauges on `/metrics`.
    pub fn relation_tuples(&self) -> Vec<(String, u64)> {
        self.per_base_relation(|rel| rel.len())
    }

    fn per_base_relation(&self, read: impl Fn(&Relation) -> usize) -> Vec<(String, u64)> {
        let bases = self.ram.relations.iter();
        let bases = bases.filter(|r| matches!(r.role, Role::Standard));
        bases
            .map(|r| (r.name.clone(), read(&self.db.rd(r.id)) as u64))
            .collect()
    }

    /// Page-cache counters of the mapped v2 snapshot, as
    /// `(hits, misses, evictions, resident_bytes, budget_bytes)`;
    /// `None` until a cold start or a checkpoint installs one.
    pub fn page_cache_stats(&self) -> Option<(u64, u64, u64, u64, u64)> {
        self.run_file.as_ref().map(|f| {
            let s = f.stats();
            (
                s.hits.load(Ordering::Relaxed),
                s.misses.load(Ordering::Relaxed),
                s.evictions.load(Ordering::Relaxed),
                s.resident_bytes.load(Ordering::Relaxed),
                f.budget() as u64,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;

    #[test]
    fn counters_accumulate() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let mut r = resident(TC, &inputs);
        r.insert_facts("e", &pairs(&[(2, 3)]), None)
            .expect("updates");
        r.query("p", &[None, None], None).expect("queries");
        let s = r.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.update_tuples, 1);
        assert_eq!(s.query_rows, 3);
        assert!(s.strata_rerun >= 1);
    }

    #[test]
    fn retraction_counters_accumulate_and_stay_gated() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2), (1, 3)]));
        let mut r = resident(TC, &inputs);
        let s = r.stats();
        assert_eq!((s.retracts, s.retract_tuples, s.rederived), (0, 0, 0));
        r.retract_facts("e", &pairs(&[(1, 2), (9, 9)]), None)
            .expect("retracts");
        let s = r.stats();
        assert_eq!(s.retracts, 1);
        assert_eq!(s.retract_tuples, 1, "absent tuples don't count");
        assert_eq!(s.requests, 1);
    }
}
