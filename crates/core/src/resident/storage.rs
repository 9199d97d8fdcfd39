//! The storage lifecycle: opening a data directory (snapshot load, the
//! WAL folded to one net batch per relation), the one checkpoint,
//! storage health, group commit.

use super::*;
use crate::fault::{self, FaultPoint};
use crate::snap2::{self, Snap2Relation, SnapshotStats};
use crate::telemetry::LogLevel;
use crate::wal::{self, CommitTicket, Durability, WalStats, WalWriter};
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use stir_der::disk;

/// Durability settings for [`ResidentEngine::open`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PersistOptions {
    /// How hard each accepted batch is pushed toward stable storage.
    pub durability: Durability,
    /// Also checkpoint every N accepted write batches; with `None` the
    /// engine checkpoints on demand, at graceful shutdown, and when the
    /// log outgrows the snapshot and a 1 MiB floor (`CHECKPOINT_FLOOR`).
    pub snapshot_interval: Option<u64>,
}

/// The smallest log, in bytes past its header, that the engine
/// checkpoints on its own; above it, a log that outgrows the last
/// snapshot is checkpointed. Replaying a 4.15 MB churn log took
/// 0.17–0.19 s, so 1 MiB of log costs a restart about what a durable
/// server's bring-up does (0.06 s), and a data directory with no
/// snapshot yet is not checkpointed on its first write.
const CHECKPOINT_FLOOR: u64 = 1 << 20;

/// What [`ResidentEngine::open`] recovered from the data directory; its
/// `Display` is the recovery line both front ends log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// A valid snapshot was loaded (skipping the initial fixpoint).
    pub snapshot_loaded: bool,
    /// Why the snapshot file that was there could not be used. Recovery
    /// went on without it — and so without every write it covered, since
    /// the WAL was truncated when it was taken. Callers should say so.
    pub snapshot_rejected: Option<String>,
    /// WAL records after the snapshot point, folded into batches that
    /// applied.
    pub replayed_batches: u64,
    /// Tuples the folded batches changed.
    pub replayed_tuples: u64,
    /// WAL records dropped, not fatal: refused at the front door, or of
    /// a failed folded batch, whose relation keeps what the failure
    /// left: retractions applied, rows admitted, derivations partial.
    pub skipped_batches: u64,
    /// Torn bytes discarded from the WAL tail.
    pub torn_bytes: u64,
    /// Wall-clock milliseconds spent reading and replaying the WAL,
    /// fractional so a sub-millisecond replay does not read 0.
    pub replay_ms: f64,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "snapshot={} replayed={} batches ({} tuples) skipped={} torn_bytes={} replay_ms={:.3}",
            self.snapshot_loaded,
            self.replayed_batches,
            self.replayed_tuples,
            self.skipped_batches,
            self.torn_bytes,
            self.replay_ms,
        )
    }
}

impl RecoveryReport {
    /// Drops `records` logged writes that recovery could not apply.
    fn skip(&mut self, records: u64, why: &EvalError, tel: Option<&Telemetry>) {
        self.skipped_batches += records;
        if let Some(t) = tel {
            let msg = format!("skipping {records} WAL batch(es): {why}");
            t.logger.log(LogLevel::Warn, &msg);
        }
    }
}

/// Live durability state: the open WAL plus snapshot bookkeeping.
#[derive(Debug)]
pub(super) struct Persistence {
    dir: PathBuf,
    pub(super) wal: WalWriter,
    fp: u64,
    snapshot_every: Option<u64>,
    batches_since_snapshot: u64,
    /// Size of the last snapshot written or loaded (0 when none).
    snapshot_bytes: u64,
    pub(super) snapshot_writes: u64,
    pub(super) snapshot_tuples: u64,
    pub(super) recovery: RecoveryReport,
}

/// The WAL file name inside a data directory.
pub const WAL_FILE: &str = "wal.log";
/// The snapshot file name inside a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// The transient probe file written by storage health checks.
const PROBE_FILE: &str = "wal.probe";

/// Writes, fsyncs, and removes a probe file in `dir`.
/// [`ResidentEngine::open`] runs it bare, so an unwritable directory
/// fails the open and chaos tests that arm `wal_probe` still open; a heal
/// runs it behind that point.
fn probe_storage_dir(dir: &Path) -> Result<(), StorageError> {
    let err = |op: &'static str| move |e: std::io::Error| StorageError::io(op, &e);
    let path = dir.join(PROBE_FILE);
    let mut f = std::fs::File::create(&path).map_err(err("create storage probe"))?;
    f.write_all(b"stir-probe")
        .map_err(err("write storage probe"))?;
    f.sync_data().map_err(err("fsync storage probe"))?;
    drop(f);
    let _ = std::fs::remove_file(&path);
    Ok(())
}

impl Persistence {
    fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }
}

/// Rebases every index of `rel` onto its persisted run in `snap` (cold
/// start and a disk engine's checkpoint). Every index must be a disk index
/// ([`disk::rebase`]) whose order matches the run's: the fingerprint
/// makes a mismatch a corruption, not a version skew.
pub(super) fn rebase_runs(
    rel: &mut Relation,
    snap: &Snap2,
    srel: &Snap2Relation,
) -> Result<(), StorageError> {
    if rel.index_count() != srel.runs.len() {
        return Err(StorageError::new(format!(
            "snapshot relation `{}` has {} runs, the program wants {} indexes",
            srel.name,
            srel.runs.len(),
            rel.index_count()
        )));
    }
    for (k, run) in srel.runs.iter().enumerate() {
        let base = snap.base_run(srel, k);
        let idx = rel.index_mut(k);
        if idx.order().columns() != &run.order[..] {
            return Err(StorageError::new(format!(
                "snapshot run {k} of `{}` is ordered {:?}, the index wants {:?}",
                srel.name,
                run.order,
                idx.order().columns()
            )));
        }
        if !disk::rebase(idx, base) {
            return Err(StorageError::new(format!(
                "snapshot relation `{}` is run-backed but index {k} is not a disk index",
                srel.name
            )));
        }
    }
    Ok(())
}

impl ResidentEngine {
    /// Opens a resident engine backed by a data directory: probes the
    /// directory for writability, loads the latest valid snapshot
    /// (falling back to a fresh evaluation of `inputs`), folds the WAL
    /// suffix to one net batch per relation and applies it, truncates any
    /// torn tail, and keeps the WAL open for [`Self::insert_facts`]
    /// appends. A temp file orphaned by a crashed snapshot publish is
    /// removed.
    ///
    /// When a snapshot is loaded, `inputs` is ignored — the snapshot
    /// already contains those facts (and everything inserted since).
    ///
    /// # Errors
    ///
    /// Propagates construction errors (a legacy-data config is refused
    /// before any I/O on `data_dir`) and I/O failures on the data
    /// directory, an unwritable one included. An *invalid* snapshot or
    /// torn WAL tail is not an error: recovery degrades to re-evaluation
    /// and reports it ([`RecoveryReport::snapshot_rejected`]) — a
    /// retired-format `STIRSNP1` snapshot included. A retired-format
    /// `STIRWAL1` log *is* an error: starting it over would drop
    /// acknowledged history.
    pub fn open(
        engine: Engine,
        config: InterpreterConfig,
        inputs: &InputData,
        data_dir: &Path,
        opts: PersistOptions,
        tel: Option<&Telemetry>,
    ) -> Result<(ResidentEngine, RecoveryReport), EngineError> {
        refuse_legacy(&config)?;
        std::fs::create_dir_all(data_dir).map_err(|e| StorageError::io("create data dir", &e))?;
        probe_storage_dir(data_dir).map_err(|e| {
            StorageError::new(format!(
                "data dir {} is not writable: {}",
                data_dir.display(),
                e.msg
            ))
        })?;
        let fp = wal::fingerprint(&engine.ram().to_string());
        let snap_path = data_dir.join(SNAPSHOT_FILE);
        let wal_path = data_dir.join(WAL_FILE);
        wal::sweep_stale_temp(&snap_path, wal::SNAPSHOT_TMP_EXT);

        let image = snap2::load_snapshot(&snap_path, fp, disk::cache_budget_from_env());
        let snapshot_bytes = match &image {
            SnapshotImage::Mapped(_) => std::fs::metadata(&snap_path).map_or(0, |m| m.len()),
            _ => 0,
        };
        let mut report = RecoveryReport {
            snapshot_loaded: matches!(image, SnapshotImage::Mapped(_)),
            snapshot_rejected: match &image {
                SnapshotImage::Invalid(reason) => Some(reason.clone()),
                _ => None,
            },
            ..RecoveryReport::default()
        };
        let mut this = Self::assemble(engine, config, image, inputs, tel)?;

        let replay_started = Instant::now();
        let mut log = wal::replay(&wal_path, fp)?;
        // Per relation: the records folded, and each row's last operation.
        let mut folded: BTreeMap<RelId, (u64, BTreeMap<_, _>)> = BTreeMap::new();
        while let Some(batch) = log.next_batch()? {
            // A CRC-valid record is still input from outside the program.
            let lengths = batch.rows.iter().map(Vec::len);
            match lookup(&this.ram, batch.rel, Access::Write, lengths) {
                Ok(meta) => {
                    let (records, rows) = folded.entry(meta.id).or_default();
                    *records += 1;
                    let encoded = this.encode_rows(batch.kind, batch.rows);
                    rows.extend(encoded.into_iter().map(|row| (row, batch.kind)));
                }
                Err(e) => report.skip(1, &e, tel),
            }
        }
        report.torn_bytes = log.torn_bytes();
        // One retraction, then one insertion, per relation: the apply
        // steps of a live write. Rows the snapshot covers change nothing.
        for (id, (records, rows)) in folded {
            let (inserts, deletes): (Vec<_>, Vec<_>) = rows
                .into_iter()
                .partition(|(_, kind)| *kind == WalRecordKind::Insert);
            let batch = |ops: Vec<(_, _)>| ops.into_iter().map(|(row, _)| row).collect();
            let retracted = this.retract_internal(id, batch(deletes), None, tel);
            let applied = retracted.and_then(|r| {
                let inserted = this.insert_internal(id, batch(inserts), None, tel)?;
                Ok(r.retracted + inserted.inserted)
            });
            match applied {
                Ok(tuples) => {
                    report.replayed_batches += records;
                    report.replayed_tuples += tuples;
                }
                Err(e) => report.skip(records, &e, tel),
            }
        }
        report.replay_ms = replay_started.elapsed().as_secs_f64() * 1e3;

        let wal = WalWriter::open(&wal_path, opts.durability, fp, log.valid_len())?;
        this.persistence = Some(Persistence {
            dir: data_dir.to_path_buf(),
            wal,
            fp,
            snapshot_every: opts.snapshot_interval,
            batches_since_snapshot: report.replayed_batches,
            snapshot_bytes,
            snapshot_writes: 0,
            snapshot_tuples: 0,
            recovery: report.clone(),
        });
        Ok((this, report))
    }

    /// The WAL append-path counters, when the engine is durable.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.persistence.as_ref().map(|p| p.wal.stats)
    }

    /// The storage health monitor, shared for reading with the serving
    /// layer and the admin endpoint; the engine is its one writer.
    pub fn health(&self) -> Arc<HealthMonitor> {
        Arc::clone(&self.health)
    }

    /// Probes storage (behind the `wal_probe` fault point) and repairs a
    /// WAL that a failed rollback poisoned: a fresh snapshot covers all
    /// logged history and truncates the log. A no-op without a data
    /// directory.
    fn heal_storage(&mut self) -> Result<(), StorageError> {
        let Some(p) = &self.persistence else {
            return Ok(());
        };
        fault::check(FaultPoint::WalProbe).map_err(|e| StorageError::io("probe storage", &e))?;
        probe_storage_dir(&p.dir)?;
        if p.wal.is_broken() {
            self.snapshot(None)
                .map_err(|e| StorageError::new(e.to_string()))?;
        }
        Ok(())
    }

    /// Reacts to a storage failure on the write path: probe (and repair)
    /// at once. A passing probe means the failure was transient and the
    /// engine stays Healthy; a failing one enters Degraded, and writes
    /// are refused until one finds a probe due and it succeeds.
    pub fn note_storage_failure(&mut self, cause: &str) {
        match self.heal_storage() {
            Ok(()) => self.health.mark_healed(),
            Err(_) => self.health.record_degraded(cause),
        }
    }

    /// One heal attempt, recorded on the health monitor (a failure counts
    /// against the heal budget); `true` when the engine came out healthy.
    /// The write gate is its caller.
    pub fn try_heal(&mut self) -> bool {
        let healed = self.heal_storage();
        match &healed {
            Ok(()) => self.health.mark_healed(),
            Err(e) => self.health.record_probe_failure(&e.to_string()),
        }
        healed.is_ok()
    }

    /// The write gate, passed before a write is validated or logged: one
    /// atomic load while Healthy. A Degraded engine whose probe is due
    /// runs [`Self::try_heal`] first, so the write that finds storage
    /// back is accepted; probing only when a write asks suffices, since
    /// Degraded and Failed refuse nothing else.
    pub(super) fn health_gate(&mut self) -> Result<(), EngineError> {
        if self.health.state_code() == 0 {
            return Ok(());
        }
        if self.health.due_for_probe() {
            self.try_heal();
        }
        self.health
            .gate_write()
            .map_err(|retry_after_ms| EngineError::Degraded { retry_after_ms })
    }

    /// Switches `always`-durability WAL appends to group commit (see
    /// [`crate::wal::GroupCommit`]). A no-op without persistence or
    /// under other durability policies.
    pub fn enable_group_commit(&mut self) {
        if let Some(p) = &mut self.persistence {
            p.wal.enable_group_commit();
        }
    }

    /// Takes the durability ticket minted by the most recent
    /// group-committed append. The serving layer waits on it *after*
    /// releasing the engine write lock, so concurrent writers share
    /// fsyncs at the barrier instead of serializing them under the
    /// lock.
    pub fn take_commit_ticket(&mut self) -> Option<CommitTicket> {
        self.persistence.as_mut().and_then(|p| p.wal.take_ticket())
    }

    /// Group-commit counters `(fsyncs, commits)`, when enabled.
    pub fn group_commit_stats(&self) -> Option<(u64, u64)> {
        self.persistence
            .as_ref()
            .and_then(|p| p.wal.group_commit())
            .map(|g| {
                (
                    g.fsyncs.load(Ordering::Relaxed),
                    g.commits.load(Ordering::Relaxed),
                )
            })
    }

    /// Checkpoints the database, the one path every caller takes:
    /// `.snapshot` and `.compact`, the automatic checkpoint, the heal of
    /// a poisoned WAL, and graceful shutdown. It serializes a snapshot,
    /// publishes it atomically, and truncates the WAL: the snapshot is
    /// the new recovery baseline, so the log restarts empty. On a disk
    /// engine it then reopens the file (the `disk_map` fault point) and
    /// rebases every disk-backed index onto its fresh run, emptying the
    /// overlays and releasing the old snapshot's pages.
    ///
    /// # Errors
    ///
    /// Fails when the engine has no data directory, and on snapshot or
    /// WAL I/O errors (the previous snapshot stays in place; on a WAL
    /// truncation failure replay after the *new* snapshot merely
    /// re-applies writes it covers, which is idempotent). A failed
    /// reopen leaves the indexes serving off their old base and
    /// overlays, which hold the same contents.
    pub fn snapshot(&mut self, tel: Option<&Telemetry>) -> Result<SnapshotStats, EngineError> {
        let _span = tel.map(|t| t.tracer.span("phase:serve:snapshot"));
        let t_snap = self.serve_metrics.start();
        let Some(p) = &mut self.persistence else {
            return Err(StorageError::new("no data directory configured").into());
        };
        // The replay list holds the ground facts the program text does
        // not state; a load takes those from the program itself.
        let stated: HashSet<_> = self.ram.facts.iter().map(|(r, t)| (*r, &t[..])).collect();
        let mut extra = Vec::new();
        for (r, facts) in self.ground.iter().enumerate() {
            let beyond = facts.to_sorted_tuples().into_iter();
            let beyond = beyond.filter(|t| !stated.contains(&(RelId(r), &t[..])));
            extra.extend(beyond.map(|t| (RelId(r), t)));
        }
        let stats =
            snap2::write_snapshot_v2(&p.snapshot_path(), p.fp, &self.ram, &self.db, &extra)?;
        p.snapshot_bytes = stats.bytes;
        p.wal.reset()?;
        p.batches_since_snapshot = 0;
        p.snapshot_writes += 1;
        p.snapshot_tuples += stats.tuples;
        if self.config.storage == StorageBackend::Disk {
            let snap =
                snap2::open_snapshot_v2(&p.snapshot_path(), p.fp, disk::cache_budget_from_env())?;
            for srel in snap.data.relations.iter().filter(|r| !r.runs.is_empty()) {
                let meta = self.ram.relation_by_name(&srel.name).ok_or_else(|| {
                    StorageError::new(format!("checkpoint names unknown relation `{}`", srel.name))
                })?;
                rebase_runs(&mut self.db.wr(meta.id), &snap, srel)?;
            }
            self.run_file = Some(snap.file);
        }
        self.serve_metrics
            .observe(&self.serve_metrics.snapshot_write, t_snap);
        Ok(stats)
    }

    /// [`Self::snapshot`] under the name of the `.compact` verb, which
    /// is its alias. Kept as a method because the benchmark's traced
    /// replay (`benchmark/src/traced.rs`) calls it by this name.
    ///
    /// # Errors
    ///
    /// Those of [`Self::snapshot`].
    pub fn compact(&mut self, tel: Option<&Telemetry>) -> Result<SnapshotStats, EngineError> {
        self.snapshot(tel)
    }

    /// Checkpoint bookkeeping after each accepted write batch: the
    /// engine checkpoints every `snapshot_interval` batches, and when the
    /// log's bytes exceed both the last snapshot's and
    /// [`CHECKPOINT_FLOOR`]. A failed checkpoint is logged and retried
    /// after the next batch; the write it rode on is already durable in
    /// the WAL.
    pub(super) fn maybe_auto_snapshot(&mut self, tel: Option<&Telemetry>) {
        let Some(p) = &mut self.persistence else {
            return;
        };
        p.batches_since_snapshot += 1;
        let by_count = p
            .snapshot_every
            .is_some_and(|every| p.batches_since_snapshot >= every);
        let by_size = p.wal.logged_bytes() > p.snapshot_bytes.max(CHECKPOINT_FLOOR);
        if by_count || by_size {
            if let Err(e) = self.snapshot(tel) {
                if let Some(t) = tel {
                    t.logger
                        .log(LogLevel::Warn, &format!("auto-snapshot failed: {e}"));
                }
                // A failed snapshot is a storage failure like any
                // other: probe immediately and degrade if persistent.
                self.note_storage_failure(&e.to_string());
            }
        }
    }

    /// Whether the engine persists to a data directory.
    pub fn is_durable(&self) -> bool {
        self.persistence.is_some()
    }

    /// Flushes and fsyncs the WAL regardless of the durability policy
    /// (used at graceful shutdown). A no-op without a data directory.
    ///
    /// # Errors
    ///
    /// Propagates WAL I/O errors.
    pub fn flush_wal(&mut self) -> Result<(), EngineError> {
        if let Some(p) = &mut self.persistence {
            p.wal.sync()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::*;
    use crate::prov::ExplainLimits;

    #[test]
    fn wal_replay_recovers_acked_inserts() {
        let dir = tmpdir("wal-replay");
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let opts = PersistOptions::default();

        let (mut r, rec) = open_dir(TC, InterpreterConfig::optimized(), &inputs, &dir, opts);
        assert_eq!(
            RecoveryReport {
                replay_ms: 0.0,
                ..rec
            },
            RecoveryReport::default()
        );
        r.insert_facts("e", &pairs(&[(2, 3)]), None)
            .expect("inserts");
        r.insert_facts("e", &pairs(&[(3, 4)]), None)
            .expect("inserts");
        let before = r.outputs();
        drop(r); // simulated crash: no snapshot, no graceful shutdown

        let (r, rec) = open_dir(TC, InterpreterConfig::optimized(), &inputs, &dir, opts);
        assert!(!rec.snapshot_loaded);
        assert!(
            rec.replayed_batches > 0,
            "a small log is never checkpointed"
        );
        assert_eq!(rec.replayed_batches, 2);
        assert_eq!(rec.replayed_tuples, 2);
        assert_eq!(rec.skipped_batches, 0);
        assert_eq!(r.outputs(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Library writes pass the same health gate as served ones: a
    /// degraded engine refuses them until a heal probe is due, and the
    /// write that finds storage back runs the probe and is accepted.
    #[test]
    fn library_writes_are_gated_and_heal_degraded_storage() {
        let dir = tmpdir("gated");
        let opts = PersistOptions::default();
        let (mut r, _) = open_dir(
            TC,
            InterpreterConfig::optimized(),
            &InputData::new(),
            &dir,
            opts,
        );
        // A storage failure whose probe fails too: the data directory is
        // gone, so the probe file cannot be created.
        std::fs::remove_dir_all(&dir).expect("removes the data dir");
        r.note_storage_failure("disk gone");
        let refused = r.insert_facts("e", &pairs(&[(1, 2)]), None);
        let Err(EngineError::Degraded { retry_after_ms }) = refused else {
            panic!("a degraded engine accepted a library write: {refused:?}");
        };
        assert!(retry_after_ms >= 50, "retry-after {retry_after_ms}");
        assert!(r.outputs()["p"].is_empty(), "the refused write applied");

        // Storage comes back; once the probe is due, the next write heals.
        std::fs::create_dir_all(&dir).expect("data dir back");
        std::thread::sleep(std::time::Duration::from_millis(retry_after_ms + 50));
        let report = r.insert_facts("e", &pairs(&[(1, 2)]), None);
        assert_eq!(report.expect("heals and inserts").inserted, 1);
        assert_eq!(r.health().snapshot(), crate::health::HealthState::Healthy);
        assert_eq!(r.outputs()["p"], pairs(&[(1, 2)]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_truncates_wal_and_restores() {
        let dir = tmpdir("snapshot");
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let opts = PersistOptions::default();

        let (mut r, _) = open_dir(TC, InterpreterConfig::optimized(), &inputs, &dir, opts);
        r.insert_facts("e", &pairs(&[(2, 3)]), None)
            .expect("inserts");
        let stats = r.snapshot(None).expect("snapshots");
        assert!(stats.tuples > 0);
        r.insert_facts("e", &pairs(&[(3, 4)]), None)
            .expect("inserts");
        let before = r.outputs();
        drop(r);

        let (r, rec) = open_dir(TC, InterpreterConfig::optimized(), &inputs, &dir, opts);
        assert!(rec.snapshot_loaded);
        assert_eq!(rec.replayed_batches, 1, "only the post-snapshot suffix");
        assert_eq!(r.outputs(), before);
        assert!(
            r.initial_profile().is_none(),
            "snapshot load skips the initial fixpoint"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The legacy data layer is a batch baseline: `open` refuses it
    /// before writing anything under the data directory, and `new`
    /// refuses it too.
    #[test]
    fn legacy_data_is_refused_and_leaves_the_data_dir_empty() {
        let engine = || Engine::from_source(TC).expect("compiles");
        let (config, inputs) = (InterpreterConfig::legacy(), InputData::new());
        let opts = PersistOptions::default();
        let refused = |dir: &Path| {
            let refusals = [
                ResidentEngine::open(engine(), config, &inputs, dir, opts, None).map(drop),
                ResidentEngine::new(engine(), config, &inputs, None).map(drop),
            ];
            for refusal in refusals {
                let err = refusal.expect_err("legacy is refused").to_string();
                assert!(err.contains("batch-only"), "{err}");
            }
        };
        // The refusal comes before any I/O: a missing directory is not
        // created...
        let dir = tmpdir("legacy");
        refused(&dir);
        assert!(!dir.exists(), "refused open created {}", dir.display());
        // ...and a stale snapshot temp file is not swept.
        std::fs::create_dir_all(&dir).expect("data dir");
        let stale = dir
            .join(SNAPSHOT_FILE)
            .with_extension(wal::SNAPSHOT_TMP_EXT);
        std::fs::write(&stale, b"half a snapshot").expect("stale temp file");
        refused(&dir);
        assert!(stale.exists(), "refused open swept {}", stale.display());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn snapshot_magic(dir: &Path) -> Vec<u8> {
        let bytes = std::fs::read(dir.join(SNAPSHOT_FILE)).expect("snapshot exists");
        bytes[..8].to_vec()
    }

    /// The write × read matrix over one data directory: a snapshot
    /// written under any engine mode and storage backend restores under
    /// every other, with the same outputs and queryable symbols.
    #[test]
    fn snapshots_are_portable_across_engine_modes_and_storage_backends() {
        let dir = tmpdir("matrix");
        let inputs = mixed_inputs();
        let opts = PersistOptions::default();
        for (i, (writer, wconfig)) in all_setups().into_iter().enumerate() {
            // Each writer inherits the directory from the previous one,
            // adds a fact of its own, and leaves its snapshot behind.
            let (mut w, _) = open_dir(MIXED, wconfig, &inputs, &dir, opts);
            let i = i as i32;
            w.insert_facts("e", &pairs(&[(i + 2, i + 3)]), None)
                .expect("inserts");
            w.insert_facts("n", &[vec![Value::Symbol(format!("sym{i}"))]], None)
                .expect("inserts");
            w.snapshot(None).expect("snapshots");
            assert_eq!(snapshot_magic(&dir), b"STIRSNP2", "written by {writer}");
            let before = w.outputs();
            drop(w);

            for (reader, rconfig) in all_setups() {
                let (r, rec) = open_dir(MIXED, rconfig, &inputs, &dir, opts);
                assert!(rec.snapshot_loaded, "{writer} -> {reader}");
                assert_eq!(rec.snapshot_rejected, None, "{writer} -> {reader}");
                assert_eq!(rec.replayed_batches, 0, "{writer} -> {reader}");
                assert_eq!(r.outputs(), before, "{writer} -> {reader}");
                assert_eq!(
                    r.page_cache_stats().is_some(),
                    rconfig.storage == StorageBackend::Disk,
                    "{writer} -> {reader}: disk maps the runs, mem materializes them"
                );
                let rows = r
                    .query("out", &[Some(Value::Symbol(format!("sym{i}")))], None)
                    .expect("queries");
                assert_eq!(
                    rows.len(),
                    1,
                    "{writer} -> {reader}: symbols stay queryable"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Retired on-disk formats are refused by name at `open`, never
    /// mistaken for a foreign file to start over: a `STIRSNP1` snapshot
    /// is reported on the rejected-snapshot path (recovery then replays
    /// the WAL over the re-evaluated inputs), a `STIRWAL1` log fails the
    /// open and is left byte for byte as it was.
    #[test]
    fn retired_formats_are_refused_by_name_at_open() {
        let inputs = mixed_inputs();
        let opts = PersistOptions::default();
        let dir = tmpdir("retired-snapshot");
        let (mut r, _) = open_dir(MIXED, InterpreterConfig::optimized(), &inputs, &dir, opts);
        r.insert_facts("e", &pairs(&[(3, 4)]), None)
            .expect("inserts");
        drop(r);
        std::fs::write(dir.join(SNAPSHOT_FILE), b"STIRSNP1 and a tuple dump").expect("writes");
        let (r, rec) = open_dir(MIXED, InterpreterConfig::optimized(), &inputs, &dir, opts);
        assert!(!rec.snapshot_loaded);
        assert_eq!(
            rec.snapshot_rejected.as_deref(),
            Some("unsupported legacy snapshot format STIRSNP1")
        );
        assert_eq!(rec.replayed_batches, 1, "the WAL still replays");
        assert_eq!(r.outputs()["p"], pairs(&[(1, 2), (3, 4)]));
        drop(r);
        let _ = std::fs::remove_dir_all(&dir);

        let dir = tmpdir("retired-wal");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let engine = crate::engine::Engine::from_source(MIXED).expect("compiles");
        let mut log = b"STIRWAL1".to_vec();
        log.extend_from_slice(&wal::fingerprint(&engine.ram().to_string()).to_le_bytes());
        log.extend_from_slice(b"acknowledged history in kind-less frames");
        std::fs::write(dir.join(WAL_FILE), &log).expect("writes");
        let opened = ResidentEngine::open(
            engine,
            InterpreterConfig::optimized(),
            &inputs,
            &dir,
            opts,
            None,
        );
        let Err(err) = opened else {
            panic!("a v1 log must fail the open");
        };
        assert!(
            err.to_string().contains("legacy WAL format STIRWAL1"),
            "{err}"
        );
        assert_eq!(
            std::fs::read(dir.join(WAL_FILE)).expect("reads"),
            log,
            "the refused log is not truncated"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_temps_orphaned_by_a_crashed_publish() {
        let dir = tmpdir("stale-temps");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let stale = [dir.join("snapshot.tmp")];
        for path in &stale {
            std::fs::write(path, b"half a publish").expect("writes");
        }
        let (r, rec) = open_dir(
            TC,
            InterpreterConfig::optimized(),
            &InputData::new(),
            &dir,
            PersistOptions::default(),
        );
        assert_eq!(
            RecoveryReport {
                replay_ms: 0.0,
                ..rec
            },
            RecoveryReport::default(),
            "temps are not snapshots"
        );
        for path in &stale {
            assert!(!path.exists(), "{} survived open", path.display());
        }
        drop(r);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cold_start_maps_v2_snapshot_and_replays_wal_suffix() {
        let dir = tmpdir("disk-cold");
        let disk = InterpreterConfig::optimized().with_storage(StorageBackend::Disk);
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let opts = PersistOptions::default();

        let (mut r, _) = open_dir(TC, disk, &inputs, &dir, opts);
        r.insert_facts("e", &pairs(&[(2, 3)]), None)
            .expect("inserts");
        r.snapshot(None).expect("snapshots");
        r.insert_facts("e", &pairs(&[(3, 4)]), None)
            .expect("inserts");
        let before = r.outputs();
        drop(r); // simulated crash after the snapshot + one WAL batch

        let (r, rec) = open_dir(TC, disk, &inputs, &dir, opts);
        assert!(rec.snapshot_loaded);
        assert_eq!(rec.replayed_batches, 1, "only the post-snapshot suffix");
        assert!(
            r.initial_profile().is_none(),
            "cold start skips the initial fixpoint"
        );
        assert!(
            r.page_cache_stats().is_some(),
            "disk cold start maps the v2 snapshot"
        );
        assert_eq!(r.outputs(), before);
        let rows = r
            .query("p", &[Some(Value::Number(1)), None], None)
            .expect("queries");
        assert_eq!(rows.len(), 3); // (1,2) (1,3) (1,4)
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `(inserts, tombstones)` overlay sizes of every index of the
    /// binary disk relation `rel`, each asserted to sit on a base run.
    fn overlays(r: &ResidentEngine, rel: &str) -> Vec<(usize, usize)> {
        let rel = r.db.rd(r.ram.relation_by_name(rel).expect("relation").id);
        (0..rel.index_count())
            .map(|k| {
                let di = (rel.index(k).as_any())
                    .downcast_ref::<disk::DiskIndex<2>>()
                    .expect("disk index")
                    .raw();
                assert!(di.has_base(), "index {k} serves off a base run");
                di.overlay_len()
            })
            .collect()
    }

    /// Every checkpoint verb rebases a disk engine: `.compact` is an
    /// alias of `.snapshot`.
    #[test]
    fn compact_folds_overlays_into_fresh_base_runs() {
        let disk = InterpreterConfig::optimized().with_storage(StorageBackend::Disk);
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let opts = PersistOptions::default();
        for verb in ["snapshot", "compact"] {
            let dir = tmpdir(&format!("checkpoint-{verb}"));
            let (mut r, _) = open_dir(TC, disk, &inputs, &dir, opts);
            r.insert_facts("e", &pairs(&[(2, 3)]), None)
                .expect("inserts");
            let before = r.outputs();
            let stats = match verb {
                "snapshot" => r.snapshot(None),
                _ => r.compact(None),
            };
            assert!(stats.expect("checkpoints").tuples > 0, "{verb}");
            assert!(
                r.page_cache_stats().is_some(),
                "{verb} rebases onto the fresh file"
            );
            // The live indexes now serve off base runs with empty overlays.
            for o in overlays(&r, "p") {
                assert_eq!(o, (0, 0), "{verb}: overlay folded into the base");
            }
            assert_eq!(r.outputs(), before, "{verb}: contents unchanged");

            // The checkpoint truncated the WAL: a restart replays only
            // what came after and serves the same answers.
            r.insert_facts("e", &pairs(&[(3, 4)]), None)
                .expect("inserts");
            let before = r.outputs();
            drop(r);
            let (r, rec) = open_dir(TC, disk, &inputs, &dir, opts);
            assert!(rec.snapshot_loaded, "{verb}");
            assert_eq!(rec.replayed_batches, 1, "{verb}: only the later batch");
            assert_eq!(r.outputs(), before, "{verb}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn v2_snapshot_with_provenance_recomputes_annotations() {
        let dir = tmpdir("disk-prov");
        let disk = InterpreterConfig::optimized().with_storage(StorageBackend::Disk);
        let mut prov = disk;
        prov.provenance = true;
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2), (2, 3)]));
        let opts = PersistOptions::default();

        // A provenance-off disk engine writes the v2 snapshot...
        let (mut r, _) = open_dir(TC, disk, &inputs, &dir, opts);
        r.insert_facts("e", &pairs(&[(3, 4)]), None)
            .expect("inserts");
        r.snapshot(None).expect("snapshots");
        let before = r.outputs();
        drop(r);

        // ...and a provenance-on restart materializes it, re-runs the
        // fixpoint for annotations, and can serve proof trees.
        let (r, rec) = open_dir(TC, prov, &inputs, &dir, opts);
        assert!(rec.snapshot_loaded);
        assert_eq!(r.outputs(), before);
        let tree = r
            .explain(
                "p",
                &[Value::Number(1), Value::Number(4)],
                ExplainLimits::default(),
                None,
            )
            .expect("explains");
        assert!(r.render_proof(&tree).contains("p(1, 4)"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_v2_snapshot_degrades_to_reevaluation() {
        let dir = tmpdir("disk-corrupt");
        let disk = InterpreterConfig::optimized().with_storage(StorageBackend::Disk);
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let opts = PersistOptions::default();

        let (mut r, _) = open_dir(TC, disk, &inputs, &dir, opts);
        r.insert_facts("e", &pairs(&[(2, 3)]), None)
            .expect("inserts");
        r.snapshot(None).expect("snapshots");
        let before = r.outputs();
        drop(r);

        // Flip one byte in the middle of the run region: the streaming
        // CRC rejects the file and recovery falls back to re-evaluating
        // the program plus the (truncated-at-snapshot) WAL — which is
        // empty here, so only the original inputs survive.
        let snap = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&snap).expect("reads");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&snap, &bytes).expect("writes");
        let (r, rec) = open_dir(TC, disk, &inputs, &dir, opts);
        assert!(!rec.snapshot_loaded, "corrupt snapshot is not loaded");
        assert_ne!(r.outputs(), before, "post-snapshot insert lost with it");
        assert_eq!(r.outputs()["p"], pairs(&[(1, 2)]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_snapshot_interval_resets_the_wal() {
        let dir = tmpdir("auto");
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let opts = PersistOptions {
            snapshot_interval: Some(2),
            ..PersistOptions::default()
        };

        let (mut r, _) = open_dir(TC, InterpreterConfig::optimized(), &inputs, &dir, opts);
        r.insert_facts("e", &pairs(&[(2, 3)]), None)
            .expect("inserts");
        assert!(!dir.join(SNAPSHOT_FILE).exists(), "below the interval");
        r.insert_facts("e", &pairs(&[(3, 4)]), None)
            .expect("inserts");
        assert!(dir.join(SNAPSHOT_FILE).exists(), "interval reached");
        drop(r);

        let (r, rec) = open_dir(TC, InterpreterConfig::optimized(), &inputs, &dir, opts);
        assert!(rec.snapshot_loaded);
        assert_eq!(rec.replayed_batches, 0, "snapshot covered everything");
        assert_eq!(r.outputs()["p"].len(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Without an interval, the engine checkpoints once the log's bytes
    /// exceed both the last snapshot's and [`CHECKPOINT_FLOOR`] — once,
    /// and on disk with every index rebased.
    #[test]
    fn a_log_that_outgrows_the_snapshot_is_checkpointed() {
        for storage in [StorageBackend::Mem, StorageBackend::Disk] {
            let dir = tmpdir(&format!("by-size-{storage:?}"));
            let config = InterpreterConfig::optimized().with_storage(storage);
            let opts = PersistOptions::default();
            let (mut r, _) = open_dir(TC, config, &InputData::new(), &dir, opts);
            r.snapshot(None).expect("snapshots");
            let log = |r: &ResidentEngine| {
                let p = r.persistence.as_ref().expect("durable");
                (p.snapshot_writes, p.wal.logged_bytes())
            };
            // Batches of 1 000 disjoint edges (even to odd), so `p` is `e`.
            let (mut batches, mut logged) = (0, 0);
            while log(&r).0 == 1 {
                assert!(batches < 200, "{storage:?}: the log was never checkpointed");
                logged = log(&r).1;
                let base = 2000 * batches;
                let rows: Vec<_> = (base..base + 2000).step_by(2).map(|x| (x, x + 1)).collect();
                r.insert_facts("e", &pairs(&rows), None).expect("inserts");
                batches += 1;
            }
            let appended = r.wal_stats().expect("durable").bytes;
            assert!(logged <= CHECKPOINT_FLOOR, "{storage:?}: fired late");
            assert!(appended > CHECKPOINT_FLOOR, "{storage:?}: fired early");
            assert_eq!(log(&r), (2, 0), "{storage:?}: one checkpoint, log emptied");
            if storage == StorageBackend::Disk {
                for rel in ["e", "p"] {
                    for o in overlays(&r, rel) {
                        assert_eq!(o, (0, 0), "{rel}: overlay folded into the base");
                    }
                }
            }
            let before = r.outputs();
            assert_eq!(before["p"].len(), 1000 * batches as usize);
            drop(r);
            let (r, rec) = open_dir(TC, config, &InputData::new(), &dir, opts);
            assert_eq!(rec.replayed_batches, 0, "{storage:?}");
            assert_eq!(r.outputs(), before, "{storage:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn negation_retraction_survives_recovery() {
        // The explicit extra_facts section: a derived tuple in an .input
        // relation must not be replayed as ground after recovery.
        let src = "\
            .decl a(x: number)\n.input a\n\
            .decl b(x: number)\n.input b\n\
            .decl r(x: number)\n.output r\n\
            r(x) :- a(x), !b(x).\n";
        let dir = tmpdir("negation");
        let mut inputs = InputData::new();
        inputs.insert("a".into(), vec![vec![Value::Number(1)]]);
        inputs.insert("b".into(), Vec::new());
        let opts = PersistOptions::default();

        let (mut r, _) = open_dir(src, InterpreterConfig::optimized(), &inputs, &dir, opts);
        r.snapshot(None).expect("snapshots");
        r.insert_facts("b", &[vec![Value::Number(1)]], None)
            .expect("inserts");
        assert!(r.outputs()["r"].is_empty());
        drop(r);

        let (r, _) = open_dir(src, InterpreterConfig::optimized(), &inputs, &dir, opts);
        assert!(
            r.outputs()["r"].is_empty(),
            "retraction holds after snapshot + WAL replay"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_without_data_dir_is_an_error() {
        let mut r = resident(TC, &InputData::new());
        assert!(!r.is_durable());
        assert!(matches!(r.snapshot(None), Err(EngineError::Storage(_))));
        assert!(matches!(r.compact(None), Err(EngineError::Storage(_))));
        r.flush_wal().expect("no-op without persistence");
    }

    #[test]
    fn provenance_survives_snapshot_recovery_by_recompute() {
        let dir = tmpdir("prov-snap");
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let opts = PersistOptions::default();
        let config = InterpreterConfig::optimized().with_provenance();

        let (mut r, _) = open_dir(TC, config, &inputs, &dir, opts);
        r.insert_facts("e", &pairs(&[(2, 3)]), None)
            .expect("inserts");
        r.snapshot(None).expect("snapshots");
        r.insert_facts("e", &pairs(&[(3, 4)]), None)
            .expect("inserts");
        let before = r.outputs();
        drop(r);

        let (r, rec) = open_dir(TC, config, &inputs, &dir, opts);
        assert!(rec.snapshot_loaded);
        assert_eq!(r.outputs(), before, "recompute-on-recovery reaches parity");
        // Every recovered derived tuple is explainable again.
        for row in &r.outputs()["p"] {
            let node = r
                .explain("p", row, ExplainLimits::default(), None)
                .expect("explains after recovery");
            assert!(node.height >= 1 || node.is_input());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
