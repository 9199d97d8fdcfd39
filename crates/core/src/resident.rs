//! A resident engine: the database outlives the initial evaluation.
//!
//! Batch evaluation (via [`crate::Engine::run`]) builds a database, runs
//! the fixpoint, extracts outputs, and throws everything away. The
//! serving subsystem instead keeps the [`Database`] — relations, indexes,
//! and symbol table — alive so that later fact insertions and point
//! queries cost time proportional to the *change*, not the whole program.
//!
//! # Incremental updates
//!
//! [`ResidentEngine::insert_facts`] stages the genuinely new tuples of a
//! batch in the target relation's `upd_` sibling and then walks the
//! strata bottom-up. A stratum is *affected* when one of the relations it
//! defines or reads changed this cycle. An affected stratum normally
//! re-runs its translation-provided incremental update statement
//! ([`stir_ram::program::RamStratum::update`]): new upstream tuples seed
//! the semi-naive deltas, so only derivations that use at least one new
//! tuple are enumerated, and the stratum's own newly derived tuples land
//! in its `upd_` relations for downstream strata to pick up.
//!
//! Insertion-only delta restarts are sound only for monotone strata. When
//! a changed relation is read under negation or inside an aggregate, or
//! when an upstream stratum had to be recomputed from scratch (so its
//! `upd_` staging is not a faithful "what's new" set), the stratum falls
//! back to a full recompute: its relations are cleared, their facts
//! replayed, and the original stratum statement re-run. The
//! `server.full_fallbacks` counter tallies these.
//!
//! # Retractions
//!
//! [`ResidentEngine::retract_facts`] is the deletion dual, a DRed-style
//! delete-and-re-derive: the deletion-mode twin of each monotone
//! stratum's update statement ([`stir_ram::deletion`]) collects the
//! *over-delete cone* — every derived tuple with at least one derivation
//! touching a removed tuple — against the unmutated database; the doomed
//! tuples and cones are erased; and each erased tuple that is still a
//! ground fact or still one-step derivable ([`crate::rederive`]) is
//! re-admitted and propagated with the normal insertion-mode statement.
//! The same situations that defeat insertion-only delta restarts
//! (negation or aggregate readers, eqrel heads, rebuilt upstream strata,
//! plus provenance mode and opaque auto-increment heads) fall back to a
//! full stratum recompute.
//!
//! # Queries
//!
//! [`ResidentEngine::query`] answers a partially-bound pattern with the
//! relation's existing indexes through [`Relation::select`]: the index
//! whose order has the longest prefix of bound columns drives an
//! inclusive range scan, and the remaining bound columns are
//! post-filtered. No statement or tree is
//! built, and the symbol table is only read — a bound symbol that was
//! never interned simply matches nothing.
//!
//! Interpreter trees for update statements are rebuilt per request
//! (microseconds, per the paper's thesis that tree generation is cheap);
//! caching them would tie the tree's lifetime to the program's and buy
//! nothing measurable.

use crate::config::{InterpreterConfig, StorageBackend};
use crate::database::{Database, InputData};
use crate::engine::{bring_up, Engine};
use crate::error::{EngineError, EvalError, StorageError};
use crate::fault::{self, FaultPoint};
use crate::health::HealthMonitor;
use crate::interp::Interpreter;
use crate::itree;
use crate::morsel::ParallelReport;
use crate::profile::ProfileReport;
use crate::prov::{ExplainLimits, ProofNode};
use crate::snap2::{self, Snap2, Snap2Relation, SnapshotImage, SnapshotStats};
use crate::telemetry::{
    Gate, LogLevel, MetricFamily, MetricKind, MetricRow, MetricSnapshot, MetricValue, Reach,
    ServeMetrics, Surface, Telemetry,
};
use crate::value::Value;
use crate::wal::{self, CommitTicket, Durability, WalStats, WalWriter};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use stir_der::disk::{self, DiskIndex, RunFile};
use stir_der::order::Order;
use stir_der::relation::Relation;
use stir_der::IndexAdapter;
use stir_frontend::SymbolTable;
use stir_ram::expr::RamDomain;
use stir_ram::program::{RamProgram, RelId, Role};
use stir_ram::stmt::RamStmt;

/// What one [`ResidentEngine::insert_facts`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateReport {
    /// Tuples of the batch that were not already present.
    pub inserted: u64,
    /// Strata re-run through their incremental update statement.
    pub strata_rerun: u64,
    /// Strata recomputed from scratch (negation/aggregate reads, eqrel
    /// heads, or rebuilt upstream strata).
    pub full_fallbacks: u64,
    /// The request's deadline elapsed during evaluation. The update was
    /// still applied in full (and, when durability is on, logged) —
    /// aborting between strata would leave downstream strata stale — so
    /// callers should report the timeout while treating the data as
    /// committed.
    pub deadline_exceeded: bool,
}

/// What one [`ResidentEngine::retract_facts`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetractReport {
    /// Tuples of the batch that were actually present (and removed).
    pub retracted: u64,
    /// Over-deleted derived tuples restored because a surviving
    /// derivation (or surviving ground fact) still supports them.
    pub rederived: u64,
    /// Strata repaired through the deletion-mode delta + re-derivation
    /// pipeline.
    pub strata_rerun: u64,
    /// Strata recomputed from scratch (negation/aggregate readers,
    /// eqrel heads, provenance mode, or rebuilt upstream strata).
    pub full_fallbacks: u64,
    /// The request's deadline elapsed during evaluation; the retraction
    /// was still applied in full (see [`UpdateReport::deadline_exceeded`]
    /// for why mid-way aborts are never an option).
    pub deadline_exceeded: bool,
}

/// Durability settings for [`ResidentEngine::open`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PersistOptions {
    /// How hard each accepted batch is pushed toward stable storage.
    pub durability: Durability,
    /// Auto-snapshot (and truncate the WAL) every N accepted batches;
    /// `None` snapshots only on demand and at graceful shutdown.
    pub snapshot_interval: Option<u64>,
}

/// What [`ResidentEngine::open`] recovered from the data directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A valid snapshot was loaded (skipping the initial fixpoint).
    pub snapshot_loaded: bool,
    /// Why the snapshot file that was there could not be used. Recovery
    /// went on without it — and so without every write it covered, since
    /// the WAL was truncated when it was taken. Callers should say so.
    pub snapshot_rejected: Option<String>,
    /// WAL batches re-applied after the snapshot point.
    pub replayed_batches: u64,
    /// Genuinely new tuples those batches contributed.
    pub replayed_tuples: u64,
    /// WAL batches that no longer apply (e.g. the program changed in a
    /// way the fingerprint tolerates only for identical RAM, so this is
    /// normally 0); they are dropped, not fatal.
    pub skipped_batches: u64,
    /// Torn bytes discarded from the WAL tail.
    pub torn_bytes: u64,
    /// Wall-clock milliseconds spent reading and replaying the WAL.
    pub replay_ms: u64,
}

/// Live durability state: the open WAL plus snapshot bookkeeping.
#[derive(Debug)]
struct Persistence {
    dir: PathBuf,
    wal: WalWriter,
    fp: u64,
    snapshot_every: Option<u64>,
    batches_since_snapshot: u64,
    snapshot_writes: u64,
    snapshot_tuples: u64,
    recovery: RecoveryReport,
}

/// The WAL file name inside a data directory.
pub const WAL_FILE: &str = "wal.log";
/// The snapshot file name inside a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// The transient probe file written by storage health checks.
pub const PROBE_FILE: &str = "wal.probe";

/// Writes, fsyncs, and removes a probe file in `dir` — the core of a
/// storage health check. Gated by the `wal_probe` fault point (distinct
/// from the WAL append points so probes never shift `at=N` hit counts).
fn probe_storage_dir(dir: &Path) -> Result<(), StorageError> {
    let err = |op: &'static str| move |e: std::io::Error| StorageError::io(op, &e);
    fault::check(FaultPoint::WalProbe).map_err(err("probe storage"))?;
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
/// start and `.compact`). Every index must be a [`DiskIndex`] whose
/// order matches the run's: the fingerprint makes a mismatch a
/// corruption, not a version skew.
fn rebase_runs(rel: &mut Relation, snap: &Snap2, srel: &Snap2Relation) -> Result<(), StorageError> {
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
        idx.as_any_mut()
            .downcast_mut::<DiskIndex>()
            .ok_or_else(|| {
                StorageError::new(format!(
                    "snapshot relation `{}` is run-backed but index {k} is not a disk index",
                    srel.name
                ))
            })?
            .rebase(base);
    }
    Ok(())
}

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
        struct Counters {
            $($name: AtomicU64,)*
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
    fn absorb_parallel(&self, par: Option<&ParallelReport>) {
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

/// An engine whose database stays resident between requests.
///
/// Updates take `&mut self` (callers such as `stird` serialize them
/// through a write lock); queries take `&self` and may run concurrently —
/// the type is `Sync` because [`Database`] is.
///
/// # Example
///
/// ```
/// use stir_core::{InterpreterConfig, ResidentEngine, Value};
///
/// let engine = stir_core::Engine::from_source(
///     ".decl e(x: number, y: number)
///      .input e
///      .decl p(x: number, y: number)
///      .output p
///      e(1, 2).
///      p(x, y) :- e(x, y).
///      p(x, z) :- p(x, y), e(y, z).",
/// )?;
/// let mut resident = ResidentEngine::new(
///     engine,
///     InterpreterConfig::optimized(),
///     &Default::default(),
///     None,
/// )?;
/// resident.insert_facts("e", &[vec![Value::Number(2), Value::Number(3)]], None)?;
/// let rows = resident.query("p", &[Some(Value::Number(1)), None], None)?;
/// assert_eq!(rows.len(), 2); // p(1,2), p(1,3)
/// # Ok::<(), stir_core::EngineError>(())
/// ```
#[derive(Debug)]
pub struct ResidentEngine {
    ram: RamProgram,
    config: InterpreterConfig,
    db: Database,
    /// Every tuple inserted after construction (plus the initial external
    /// inputs), replayed when a fallback recompute clears a relation that
    /// also holds ground facts.
    extra_facts: Vec<(RelId, Vec<RamDomain>)>,
    /// For each base relation, its `delta_`/`new_`/`upd_` siblings.
    aux_of: Vec<Vec<RelId>>,
    /// All `upd_` staging relations (cleared at the start of each cycle).
    all_upds: Vec<RelId>,
    counters: Counters,
    initial_profile: Option<ProfileReport>,
    /// Durable state, when the engine was opened with a data directory.
    persistence: Option<Persistence>,
    /// Serving latency histograms and gauges, shared with the daemon's
    /// admin endpoint (disabled outside serving mode).
    serve_metrics: Arc<ServeMetrics>,
    /// Storage health state machine, shared (`Arc`) with the serving
    /// layer, admin endpoint, and heal loop. Stays Healthy forever on
    /// non-durable engines.
    health: Arc<HealthMonitor>,
    /// The mapped v2 snapshot the disk-backed indexes serve pages off
    /// (cold start or `.compact`); `None` when every index is
    /// memory-resident or no base has been installed yet.
    run_file: Option<Arc<RunFile>>,
}

impl ResidentEngine {
    /// Runs the initial evaluation and keeps the database resident.
    ///
    /// Mirrors [`Engine::run`] (same phase spans when telemetry is
    /// attached) but retains ownership of the RAM program and database.
    ///
    /// # Errors
    ///
    /// Propagates input-loading and runtime errors from the initial
    /// fixpoint.
    pub fn new(
        engine: Engine,
        config: InterpreterConfig,
        inputs: &InputData,
        tel: Option<&Telemetry>,
    ) -> Result<ResidentEngine, EngineError> {
        Self::assemble(engine, config, SnapshotImage::Missing, inputs, tel)
    }

    /// Builds the engine from what [`snap2::load_snapshot`] found.
    ///
    /// Without a usable snapshot, `inputs` are loaded and the initial
    /// fixpoint runs. With one, relations (EDB *and* IDB), symbols, the
    /// auto-increment counter, and the fact replay list all come from the
    /// snapshot, `inputs` is ignored, and the fixpoint is skipped — except
    /// with provenance on: annotations are deliberately not serialized,
    /// so only the `.input` relations are taken from the snapshot (as
    /// height-0 axioms) and everything derived is recomputed, regaining
    /// its rule and height annotations.
    ///
    /// A `STIRSNP2` image under disk storage (provenance off) is served
    /// in place: each disk-backed index is rebased onto its persisted run
    /// (pages fault in lazily through the shared cache) and only the
    /// inline relations are materialized. Every other combination
    /// materializes each relation from its tuples or its primary run.
    fn assemble(
        engine: Engine,
        config: InterpreterConfig,
        image: SnapshotImage,
        inputs: &InputData,
        tel: Option<&Telemetry>,
    ) -> Result<ResidentEngine, EngineError> {
        let mut ram = engine.into_ram();
        let tracer = tel.map(|t| &t.tracer);
        let snapshot: Option<&Snap2> = match &image {
            SnapshotImage::Missing | SnapshotImage::Invalid(_) => None,
            SnapshotImage::Mapped(snap) => Some(snap),
        };
        let map_runs =
            snapshot.is_some() && config.storage == StorageBackend::Disk && !config.provenance;

        // One flag per `ram.facts` entry, filled by a snapshot load: false
        // for a ground fact the snapshot says was retracted. Applied once
        // `ram` is no longer borrowed.
        let mut keep_fact = Vec::new();
        let up = bring_up(&ram, config, &[], tel, |db| {
            let Some(mapped) = snapshot else {
                let _span = tracer.map(|t| t.span("phase:load-inputs"));
                db.load_inputs(&ram, inputs)?;
                return Ok(true);
            };
            let snap = &mapped.data;
            {
                // Replace the table wholesale: every bit pattern in the
                // snapshot was encoded against it. The program's own
                // symbols are a prefix of it (interning only appends), so
                // the `ram.facts` tuples inserted by `Database::new` stay
                // valid.
                let mut fresh = SymbolTable::new();
                for s in &snap.symbols {
                    fresh.intern(s);
                }
                if fresh.len() < ram.symbols.len() {
                    return Err(StorageError::new(
                        "snapshot symbol table is smaller than the program's",
                    )
                    .into());
                }
                *db.symbols_wr() = fresh;
            }
            let _span = tracer.map(|t| {
                t.span(if map_runs {
                    "phase:map-snapshot"
                } else {
                    "phase:load-snapshot"
                })
            });
            let mut covered = vec![false; ram.relations.len()];
            for srel in &snap.relations {
                let meta = ram.relation_by_name(&srel.name).ok_or_else(|| {
                    StorageError::new(format!(
                        "snapshot relation `{}` is not in the program",
                        srel.name
                    ))
                })?;
                if srel.arity != meta.arity {
                    return Err(StorageError::new(format!(
                        "snapshot relation `{}` has arity {}, expected {}",
                        srel.name, srel.arity, meta.arity
                    ))
                    .into());
                }
                covered[meta.id.0] = meta.is_input;
                if config.provenance && !meta.is_input {
                    continue;
                }
                let mut rel = db.wr(meta.id);
                let admit = |rel: &mut Relation, t: &[RamDomain]| {
                    if rel.insert(t) && config.provenance {
                        rel.record_annotation(t, 0, crate::database::RULE_INPUT);
                    }
                };
                // Unless the runs are mapped in place, the snapshot is
                // the *complete* state of this relation.
                // `Database::new_with_storage` pre-inserted the program's
                // ground facts; any of them missing from the snapshot was
                // retracted before it was taken and must not resurrect.
                match &srel.inline {
                    None if map_runs => rebase_runs(&mut rel, mapped, srel)?,
                    Some(tuples) => {
                        rel.clear();
                        for t in tuples {
                            if t.len() != meta.arity {
                                return Err(StorageError::new(format!(
                                    "snapshot tuple for `{}` has arity {}, expected {}",
                                    srel.name,
                                    t.len(),
                                    meta.arity
                                ))
                                .into());
                            }
                            admit(&mut rel, t);
                        }
                    }
                    None => {
                        // Read the primary run through a source-layout
                        // DiskIndex: its scan decodes stored order back
                        // to source tuples, one page at a time.
                        rel.clear();
                        let order = Order::new(srel.runs[0].order.clone());
                        let run = DiskIndex::with_base(order, true, mapped.base_run(srel, 0));
                        let mut it = run.scan();
                        while let Some(t) = it.next_tuple() {
                            admit(&mut rel, t);
                        }
                    }
                }
            }
            // Reconcile the ground-fact replay list the same way: a
            // program fact of a snapshot-covered `.input` relation that
            // the snapshot no longer contains was retracted, and a later
            // fallback recompute must not replay it back to life.
            keep_fact = ram
                .facts
                .iter()
                .map(|(rid, t)| !covered[rid.0] || db.rd(*rid).contains(t))
                .collect();
            if snap
                .extra_facts
                .iter()
                .any(|(rid, _)| rid.0 >= ram.relations.len())
            {
                return Err(
                    StorageError::new("snapshot replay list names an unknown relation").into(),
                );
            }
            Ok(config.provenance)
        })?;
        let db = up.db;
        if let Some(snap) = snapshot {
            // A provenance recompute re-allocated auto-increment ids from
            // zero; keep the snapshot's high-water mark either way so
            // future allocations never collide with values it recorded.
            db.counter.fetch_max(snap.data.counter, Ordering::Relaxed);
        }
        let mut keep = keep_fact.into_iter();
        ram.facts.retain(|_| keep.next().unwrap_or(true));
        let counters = Counters::default();
        counters.absorb_parallel(up.parallel.as_ref());

        let (extra_facts, run_file) = match image {
            SnapshotImage::Missing | SnapshotImage::Invalid(_) => {
                // Record the external inputs so a later fallback recompute
                // can replay them alongside the program's own ground facts.
                let mut extra_facts = Vec::new();
                let mut symbols = db.symbols_wr();
                for (name, tuples) in inputs {
                    let id = ram
                        .relation_by_name(name)
                        .expect("validated by load_inputs")
                        .id;
                    for t in tuples {
                        extra_facts.push((id, t.iter().map(|v| v.encode(&mut symbols)).collect()));
                    }
                }
                drop(symbols);
                (extra_facts, None)
            }
            SnapshotImage::Mapped(s) => (s.data.extra_facts, map_runs.then_some(s.file)),
        };

        let mut aux_of = vec![Vec::new(); ram.relations.len()];
        let mut all_upds = Vec::new();
        for r in &ram.relations {
            match r.role {
                Role::Standard => {}
                Role::Delta(b) | Role::New(b) => aux_of[b.0].push(r.id),
                Role::Upd(b) => {
                    aux_of[b.0].push(r.id);
                    all_upds.push(r.id);
                }
            }
        }

        Ok(ResidentEngine {
            ram,
            config,
            db,
            extra_facts,
            aux_of,
            all_upds,
            counters,
            initial_profile: up.profile,
            persistence: None,
            serve_metrics: Arc::new(ServeMetrics::off()),
            health: Arc::new(HealthMonitor::new()),
            run_file,
        })
    }

    /// Opens a resident engine backed by a data directory: loads the
    /// latest valid snapshot (falling back to a fresh evaluation of
    /// `inputs`), replays the WAL suffix, truncates any torn tail, and
    /// keeps the WAL open for [`Self::insert_facts`] appends. A temp file
    /// orphaned by a crashed snapshot publish is removed.
    ///
    /// When a snapshot is loaded, `inputs` is ignored — the snapshot
    /// already contains those facts (and everything inserted since).
    ///
    /// # Errors
    ///
    /// Propagates construction errors and I/O failures on the data
    /// directory. An *invalid* snapshot or torn WAL tail is not an
    /// error: recovery degrades to re-evaluation and reports it
    /// ([`RecoveryReport::snapshot_rejected`]) — a retired-format
    /// `STIRSNP1` snapshot included. A retired-format `STIRWAL1` log *is*
    /// an error: starting it over would drop acknowledged history.
    pub fn open(
        engine: Engine,
        config: InterpreterConfig,
        inputs: &InputData,
        data_dir: &Path,
        opts: PersistOptions,
        tel: Option<&Telemetry>,
    ) -> Result<(ResidentEngine, RecoveryReport), EngineError> {
        std::fs::create_dir_all(data_dir).map_err(|e| StorageError::io("create data dir", &e))?;
        let fp = wal::fingerprint(&engine.ram().to_string());
        let snap_path = data_dir.join(SNAPSHOT_FILE);
        let wal_path = data_dir.join(WAL_FILE);
        wal::sweep_stale_temp(&snap_path, wal::SNAPSHOT_TMP_EXT);

        let image = snap2::load_snapshot(&snap_path, fp, disk::cache_budget_from_env());
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
        let replayed = wal::replay(&wal_path, fp)?;
        report.torn_bytes = replayed.torn_bytes;
        for rec in &replayed.records {
            // Replay runs the same validated path as serving, minus the
            // WAL append; batches already covered by the snapshot
            // re-insert (or re-remove) zero fresh tuples and touch no
            // strata.
            let applied = match rec.kind {
                wal::WalRecordKind::Insert => this
                    .insert_internal(&rec.rel, &rec.rows, None, tel)
                    .map(|r| r.inserted),
                wal::WalRecordKind::Delete => this
                    .retract_internal(&rec.rel, &rec.rows, None, tel)
                    .map(|r| r.retracted),
            };
            match applied {
                Ok(tuples) => {
                    report.replayed_batches += 1;
                    report.replayed_tuples += tuples;
                }
                Err(e) => {
                    report.skipped_batches += 1;
                    if let Some(t) = tel {
                        t.logger
                            .log(LogLevel::Warn, &format!("skipping WAL batch: {e}"));
                    }
                }
            }
        }

        report.replay_ms = replay_started.elapsed().as_millis().min(u64::MAX as u128) as u64;

        let wal = WalWriter::open(&wal_path, opts.durability, fp, replayed.valid_len)?;
        this.persistence = Some(Persistence {
            dir: data_dir.to_path_buf(),
            wal,
            fp,
            snapshot_every: opts.snapshot_interval,
            batches_since_snapshot: report.replayed_batches,
            snapshot_writes: 0,
            snapshot_tuples: 0,
            recovery: report.clone(),
        });
        Ok((this, report))
    }

    /// Convenience constructor: compile `source` and make it resident.
    ///
    /// # Errors
    ///
    /// Propagates frontend, translation, input-loading, and runtime
    /// errors.
    pub fn from_source(
        source: &str,
        config: InterpreterConfig,
        inputs: &InputData,
        tel: Option<&Telemetry>,
    ) -> Result<ResidentEngine, EngineError> {
        let engine = Engine::from_source_with(source, tel)?;
        ResidentEngine::new(engine, config, inputs, tel)
    }

    /// The resident RAM program.
    pub fn ram(&self) -> &RamProgram {
        &self.ram
    }

    /// The profiling report of the initial evaluation, when profiling was
    /// enabled.
    pub fn initial_profile(&self) -> Option<&ProfileReport> {
        self.initial_profile.as_ref()
    }

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

    /// The WAL append-path counters, when the engine is durable.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.persistence.as_ref().map(|p| p.wal.stats)
    }

    /// The storage health monitor, shared with the serving layer, the
    /// admin endpoint, and the daemon's heal loop.
    pub fn health(&self) -> Arc<HealthMonitor> {
        Arc::clone(&self.health)
    }

    /// Probes the storage layer and repairs recoverable damage: writes,
    /// fsyncs, and removes a probe file in the data directory (the
    /// `wal_probe` fault point), then — if a failed rollback poisoned
    /// the WAL — writes a fresh snapshot covering all logged history and
    /// truncates the log, which clears the poison. A no-op without a
    /// data directory.
    ///
    /// # Errors
    ///
    /// Returns the probe or repair failure; the engine is not healthy.
    pub fn heal_storage(&mut self) -> Result<(), StorageError> {
        let Some(p) = &self.persistence else {
            return Ok(());
        };
        probe_storage_dir(&p.dir)?;
        if p.wal.is_broken() {
            // Truncate-or-rotate: the snapshot is the new recovery
            // baseline, so resetting the poisoned tail loses nothing.
            self.snapshot(None)
                .map_err(|e| StorageError::new(e.to_string()))?;
        }
        Ok(())
    }

    /// Reacts to a storage failure on the write path: probe (and
    /// repair) immediately. A passing probe means the failure was
    /// transient — the engine stays Healthy and only the failing
    /// request reports an error. A failing probe enters Degraded:
    /// writes are refused with a `retry-after` hint until the heal
    /// loop's probe succeeds.
    pub fn note_storage_failure(&mut self, cause: &str) {
        let health = Arc::clone(&self.health);
        match self.heal_storage() {
            Ok(()) => health.mark_healed(),
            Err(_) => health.record_degraded(cause),
        }
    }

    /// One background heal attempt: probe (and repair) storage, then
    /// record the outcome on the health monitor. Returns `true` when
    /// the engine came out healthy.
    pub fn try_heal(&mut self) -> bool {
        let health = Arc::clone(&self.health);
        match self.heal_storage() {
            Ok(()) => {
                health.mark_healed();
                true
            }
            Err(e) => {
                health.record_probe_failure(&e.to_string());
                false
            }
        }
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
    /// `None` until a cold start or `.compact` installs one.
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

    /// Every `.output` relation's current tuples, sorted, keyed by name.
    pub fn outputs(&self) -> HashMap<String, Vec<Vec<Value>>> {
        self.db.extract_outputs(&self.ram)
    }

    /// Inserts a batch of facts into an `.input` relation and brings all
    /// downstream strata up to date incrementally (see the module docs
    /// for the delta-restart algorithm and its fallback rule).
    ///
    /// When the engine was [`Self::open`]ed with a data directory, the
    /// batch is appended to the write-ahead log *before* evaluation, so
    /// an `Ok` return means the facts survive a crash at any later
    /// point; a [`EngineError::Storage`] return means the batch was
    /// neither logged nor applied.
    ///
    /// # Errors
    ///
    /// Rejects unknown or non-`.input` relations and wrong-arity tuples;
    /// propagates WAL failures and runtime errors from re-evaluation.
    pub fn insert_facts(
        &mut self,
        rel: &str,
        rows: &[Vec<Value>],
        tel: Option<&Telemetry>,
    ) -> Result<UpdateReport, EngineError> {
        self.insert_facts_deadline(rel, rows, None, tel)
    }

    /// [`Self::insert_facts`] with a per-request deadline. Evaluation is
    /// never aborted mid-way (that would leave downstream strata stale);
    /// instead [`UpdateReport::deadline_exceeded`] is set when the
    /// deadline elapsed, and the caller decides how to report it.
    ///
    /// # Errors
    ///
    /// As [`Self::insert_facts`].
    pub fn insert_facts_deadline(
        &mut self,
        rel: &str,
        rows: &[Vec<Value>],
        deadline: Option<Instant>,
        tel: Option<&Telemetry>,
    ) -> Result<UpdateReport, EngineError> {
        let _span = tel.map(|t| t.tracer.span("phase:serve:update"));
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        // Validate before logging, so the WAL only ever holds batches
        // the engine would accept on replay.
        self.validate_batch(rel, rows)?;
        if let Some(p) = &mut self.persistence {
            // WAL-then-evaluate: nothing is acknowledged (or applied)
            // unless it is recoverable first.
            if let Err(e) = p.wal.append(rel, rows) {
                self.note_storage_failure(&e.to_string());
                return Err(e.into());
            }
        }
        let report = self.insert_internal(rel, rows, deadline, tel)?;
        self.maybe_auto_snapshot(tel);
        Ok(report)
    }

    /// Structural checks shared by the insert and retract serving paths
    /// (pre-WAL) and their replay twins: the relation must exist, be
    /// `.input`, and every row must have its arity.
    fn validate_batch(&self, rel: &str, rows: &[Vec<Value>]) -> Result<(), EvalError> {
        let meta = self
            .ram
            .relation_by_name(rel)
            .ok_or_else(|| EvalError::new(format!("unknown relation `{rel}`")))?;
        if !meta.is_input {
            return Err(EvalError::new(format!(
                "relation `{rel}` is not declared `.input`"
            )));
        }
        for row in rows {
            if row.len() != meta.arity {
                return Err(EvalError::new(format!(
                    "tuple for `{rel}` has {} values, expected {}",
                    row.len(),
                    meta.arity
                )));
            }
        }
        Ok(())
    }

    /// Applies one validated batch: staging, delta restart, fallback.
    /// Does *not* touch the WAL — the serving path appends first, the
    /// recovery path replays from it.
    fn insert_internal(
        &mut self,
        rel: &str,
        rows: &[Vec<Value>],
        deadline: Option<Instant>,
        tel: Option<&Telemetry>,
    ) -> Result<UpdateReport, EvalError> {
        self.validate_batch(rel, rows)?;
        let meta = self.ram.relation_by_name(rel).expect("validated above");
        let target = meta.id;
        let upd = self.ram.upd_of(target);

        let mut encoded = Vec::with_capacity(rows.len());
        {
            let mut symbols = self.db.symbols_wr();
            for row in rows {
                encoded.push(
                    row.iter()
                        .map(|v| v.encode(&mut symbols))
                        .collect::<Vec<RamDomain>>(),
                );
            }
        }

        // Start a fresh staging cycle: `upd_` relations hold exactly the
        // tuples that became visible during *this* batch.
        for &u in &self.all_upds {
            self.db.wr(u).clear();
        }
        let prov = self.db.provenance();
        let mut fresh = 0u64;
        for t in encoded {
            let mut rel_wr = self.db.wr(target);
            if rel_wr.insert(&t) {
                if prov {
                    rel_wr.record_annotation(&t, 0, crate::database::RULE_INPUT);
                }
                drop(rel_wr);
                fresh += 1;
                if let Some(u) = upd {
                    self.db.wr(u).insert(&t);
                }
                self.extra_facts.push((target, t));
            }
        }
        self.counters
            .update_tuples
            .fetch_add(fresh, Ordering::Relaxed);
        let mut report = UpdateReport {
            inserted: fresh,
            ..UpdateReport::default()
        };
        if fresh == 0 {
            report.deadline_exceeded = deadline.is_some_and(|d| Instant::now() > d);
            return Ok(report);
        }

        // `changed`: gained tuples this cycle, staged in `upd_` unless
        // also `rebuilt`. `rebuilt`: recomputed from scratch, so its
        // `upd_` staging is empty and readers cannot update incrementally.
        let n = self.ram.relations.len();
        let mut changed = vec![false; n];
        let mut rebuilt = vec![false; n];
        changed[target.0] = true;
        if upd.is_none() {
            rebuilt[target.0] = true; // eqrel input: no staging sibling
        }

        for i in 0..self.ram.strata.len() {
            let s = &self.ram.strata[i];
            let hit = |ids: &[RelId], flags: &[bool]| ids.iter().any(|r| flags[r.0]);
            let affected = hit(&s.defines, &changed)
                || hit(&s.pos_reads, &changed)
                || hit(&s.neg_agg_reads, &changed);
            if !affected {
                continue;
            }
            let fallback = s.update.is_none()
                || hit(&s.neg_agg_reads, &changed)
                || hit(&s.pos_reads, &rebuilt)
                || hit(&s.defines, &rebuilt);
            if fallback {
                self.recompute_stratum(i, tel)?;
                for d in &self.ram.strata[i].defines {
                    changed[d.0] = true;
                    rebuilt[d.0] = true;
                }
                report.full_fallbacks += 1;
            } else {
                let stmt = s.update.as_ref().expect("checked by fallback condition");
                self.run_stmt(stmt, tel)?;
                for d in &s.defines {
                    if let Some(u) = self.ram.upd_of(*d) {
                        if !self.db.rd(u).is_empty() {
                            changed[d.0] = true;
                        }
                    }
                }
                report.strata_rerun += 1;
            }
        }

        self.counters
            .strata_rerun
            .fetch_add(report.strata_rerun, Ordering::Relaxed);
        self.counters
            .full_fallbacks
            .fetch_add(report.full_fallbacks, Ordering::Relaxed);
        report.deadline_exceeded = deadline.is_some_and(|d| Instant::now() > d);
        Ok(report)
    }

    /// Retracts a batch of facts from an `.input` relation and repairs
    /// all downstream strata (delete-and-re-derive; see the module docs).
    ///
    /// When the engine is durable, the batch is appended to the WAL as a
    /// delete record *before* evaluation, so an `Ok` return means the
    /// retraction survives a crash at any later point.
    ///
    /// # Errors
    ///
    /// Rejects unknown or non-`.input` relations and wrong-arity tuples;
    /// propagates WAL failures and runtime errors from re-evaluation.
    pub fn retract_facts(
        &mut self,
        rel: &str,
        rows: &[Vec<Value>],
        tel: Option<&Telemetry>,
    ) -> Result<RetractReport, EngineError> {
        self.retract_facts_deadline(rel, rows, None, tel)
    }

    /// [`Self::retract_facts`] with a per-request deadline; like
    /// updates, retraction commits in full and only flags the overrun.
    ///
    /// # Errors
    ///
    /// As [`Self::retract_facts`].
    pub fn retract_facts_deadline(
        &mut self,
        rel: &str,
        rows: &[Vec<Value>],
        deadline: Option<Instant>,
        tel: Option<&Telemetry>,
    ) -> Result<RetractReport, EngineError> {
        let _span = tel.map(|t| t.tracer.span("phase:serve:retract"));
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters.retracts.fetch_add(1, Ordering::Relaxed);
        self.validate_batch(rel, rows)?;
        if let Some(p) = &mut self.persistence {
            if let Err(e) = p.wal.append_delete(rel, rows) {
                self.note_storage_failure(&e.to_string());
                return Err(e.into());
            }
        }
        let report = self.retract_internal(rel, rows, deadline, tel)?;
        self.maybe_auto_snapshot(tel);
        Ok(report)
    }

    /// Applies one validated retraction batch: DRed-style over-delete of
    /// the derived cone, erase, then re-derivation of the survivors.
    /// Does *not* touch the WAL — the serving path appends first, the
    /// recovery path replays from it.
    ///
    /// The three phases:
    ///
    /// 1. **Cone** — with the doomed tuples staged in `upd_target` and
    ///    the database *unmutated*, each affected monotone stratum runs
    ///    its deletion-mode twin statement
    ///    ([`stir_ram::deletion::deletion_stmt`]): every derived tuple
    ///    with at least one derivation touching a removed tuple
    ///    accumulates in its `upd_` relation. Strata behind negation,
    ///    aggregation, eqrel heads, opaque (auto-increment) heads, or a
    ///    rebuilt upstream stratum are planned for full recomputation
    ///    instead, exactly like the insert path.
    /// 2. **Erase** — the doomed tuples and every collected cone leave
    ///    their relations. All `upd_` staging is then cleared: it holds
    ///    *deleted* tuples, which a downstream insertion-mode statement
    ///    would otherwise happily treat as new.
    /// 3. **Re-derive** — bottom-up again: fallback strata recompute
    ///    from scratch; incremental strata re-admit each cone member
    ///    that is still a ground fact or still one-step derivable
    ///    ([`crate::rederive::derivable`]) from the post-deletion
    ///    database, then run the *normal* update statement so restored
    ///    seeds propagate (within-stratum recursion included). Skipping
    ///    the statement when no seed survives is sound: any truly
    ///    derivable cone member of minimal derivation height has all its
    ///    premises outside the cone, so it would have been a seed.
    fn retract_internal(
        &mut self,
        rel: &str,
        rows: &[Vec<Value>],
        deadline: Option<Instant>,
        tel: Option<&Telemetry>,
    ) -> Result<RetractReport, EvalError> {
        self.validate_batch(rel, rows)?;
        let meta = self.ram.relation_by_name(rel).expect("validated above");
        let target = meta.id;
        let upd = self.ram.upd_of(target);

        // Encode, dedup, and keep only tuples actually present. A row
        // naming a never-interned symbol cannot be present.
        let mut doomed: Vec<Vec<RamDomain>> = Vec::new();
        {
            let symbols = self.db.symbols_rd();
            'rows: for row in rows {
                let mut t = Vec::with_capacity(row.len());
                for v in row {
                    match v.encode_existing(&symbols) {
                        Some(bits) => t.push(bits),
                        None => continue 'rows,
                    }
                }
                doomed.push(t);
            }
        }
        doomed.sort_unstable();
        doomed.dedup();
        {
            let rel_rd = self.db.rd(target);
            doomed.retain(|t| rel_rd.contains(t));
        }
        self.counters
            .retract_tuples
            .fetch_add(doomed.len() as u64, Ordering::Relaxed);
        let mut report = RetractReport {
            retracted: doomed.len() as u64,
            ..RetractReport::default()
        };
        if doomed.is_empty() {
            report.deadline_exceeded = deadline.is_some_and(|d| Instant::now() > d);
            return Ok(report);
        }

        // The retracted rows stop being ground: a fallback replay (or a
        // recovery that loads this state from a snapshot) must not
        // resurrect them.
        self.ram
            .facts
            .retain(|(rid, t)| *rid != target || doomed.binary_search(t).is_err());
        self.extra_facts
            .retain(|(rid, t)| *rid != target || doomed.binary_search(t).is_err());

        // ---- Phase 1: collect the over-delete cone (DB unmutated). ----
        for &u in &self.all_upds {
            self.db.wr(u).clear();
        }
        if let Some(u) = upd {
            let mut w = self.db.wr(u);
            for t in &doomed {
                w.insert(t);
            }
        }
        let n = self.ram.relations.len();
        let mut changed = vec![false; n];
        let mut rebuilt = vec![false; n];
        changed[target.0] = true;
        if upd.is_none() {
            rebuilt[target.0] = true; // eqrel input: no staging sibling
        }

        #[derive(Clone, Copy, PartialEq)]
        enum Plan {
            Untouched,
            Incremental,
            Fallback,
        }
        let strata = self.ram.strata.len();
        let mut plan = vec![Plan::Untouched; strata];
        // Per incremental stratum: each defined relation's cone.
        let mut cones: Vec<Vec<(RelId, Vec<Vec<RamDomain>>)>> = vec![Vec::new(); strata];

        for i in 0..strata {
            let s = &self.ram.strata[i];
            let hit = |ids: &[RelId], flags: &[bool]| ids.iter().any(|r| flags[r.0]);
            let affected = hit(&s.defines, &changed)
                || hit(&s.pos_reads, &changed)
                || hit(&s.neg_agg_reads, &changed);
            if !affected {
                continue;
            }
            // A head whose provenance plan cannot be re-matched (opaque
            // auto-increment values, or no plan at all) defeats the
            // one-step derivability check of phase 3.
            let opaque = s.defines.iter().any(|d| {
                let mut rules = self
                    .ram
                    .prov
                    .rules
                    .iter()
                    .filter(|r| r.head == *d)
                    .peekable();
                rules.peek().is_none() || rules.any(|r| r.opaque || r.stmt.is_none())
            });
            let fallback = self.config.provenance // recompute re-annotates exactly
                || s.update.is_none()
                || opaque
                || hit(&s.neg_agg_reads, &changed)
                || hit(&s.pos_reads, &rebuilt)
                || hit(&s.defines, &rebuilt);
            let del = if fallback {
                None
            } else {
                stir_ram::deletion::deletion_stmt(&self.ram, i)
            };
            match del {
                None => {
                    plan[i] = Plan::Fallback;
                    for d in &self.ram.strata[i].defines {
                        changed[d.0] = true;
                        rebuilt[d.0] = true;
                    }
                    report.full_fallbacks += 1;
                }
                Some(stmt) => {
                    self.run_stmt(&stmt, tel)?;
                    let mut stratum_cones: Vec<(RelId, Vec<Vec<RamDomain>>)> = Vec::new();
                    let mut cone_total = 0usize;
                    let mut live_total = 0usize;
                    for d in &self.ram.strata[i].defines {
                        let u = self.ram.upd_of(*d).expect("deletion_stmt requires upd");
                        let cone = self.db.rd(u).to_sorted_tuples();
                        cone_total += cone.len();
                        live_total += self.db.rd(*d).len();
                        stratum_cones.push((*d, cone));
                    }
                    // Cost-based demotion: when the deletion wave swallows
                    // most of a non-trivial stratum, erasing and re-checking
                    // the cone tuple by tuple costs more than recomputing
                    // the stratum outright. Tiny strata stay incremental —
                    // either path is cheap and the counters stay stable.
                    if live_total > 1024 && cone_total * 2 > live_total {
                        plan[i] = Plan::Fallback;
                        for d in &self.ram.strata[i].defines {
                            changed[d.0] = true;
                            rebuilt[d.0] = true;
                        }
                        report.full_fallbacks += 1;
                    } else {
                        plan[i] = Plan::Incremental;
                        report.strata_rerun += 1;
                        for (d, cone) in &stratum_cones {
                            if !cone.is_empty() {
                                changed[d.0] = true;
                            }
                        }
                        cones[i] = stratum_cones;
                    }
                }
            }
        }

        // ---- Phase 2: erase the doomed tuples and the cones. ----
        let prov = self.db.provenance();
        if upd.is_none() {
            // An eqrel input cannot erase a single pair soundly (the
            // closure may re-imply it); rebuild it from the surviving
            // ground facts and let insertion re-close it.
            self.db.wr(target).clear();
            for (rid, t) in self.ram.facts.iter().chain(self.extra_facts.iter()) {
                if *rid == target {
                    let mut w = self.db.wr(target);
                    if w.insert(t) && prov {
                        w.record_annotation(t, 0, crate::database::RULE_INPUT);
                    }
                }
            }
        } else {
            let mut w = self.db.wr(target);
            for t in &doomed {
                w.erase(t);
            }
        }
        for i in 0..strata {
            if plan[i] == Plan::Incremental {
                for (d, cone) in &cones[i] {
                    let mut w = self.db.wr(*d);
                    for t in cone {
                        w.erase(t);
                    }
                }
            }
        }
        // Phase 1 left doomed tuples and cones staged in `upd_`; an
        // insertion-mode statement in phase 3 would consume them as if
        // they were fresh inserts. Restart the staging from empty.
        for &u in &self.all_upds {
            self.db.wr(u).clear();
        }

        // ---- Phase 3: re-derive survivors, bottom-up. ----
        for i in 0..strata {
            match plan[i] {
                Plan::Untouched => {}
                Plan::Fallback => self.recompute_stratum(i, tel)?,
                Plan::Incremental => {
                    let mut seeded = false;
                    for (d, cone) in &cones[i] {
                        if cone.is_empty() {
                            continue;
                        }
                        // Ground facts of `d` (an `.input` relation can
                        // also be a rule head) survive unconditionally.
                        let ground: std::collections::HashSet<&[RamDomain]> = self
                            .ram
                            .facts
                            .iter()
                            .chain(self.extra_facts.iter())
                            .filter(|(rid, _)| rid == d)
                            .map(|(_, t)| t.as_slice())
                            .collect();
                        let u = self.ram.upd_of(*d).expect("incremental plan");
                        // The batch checker shares the per-rule matching
                        // state across the whole cone; seeds go in only
                        // after it returns, which is the pure DRed
                        // re-derive step (the insertion statement below
                        // restores multi-step survivors from the seeds).
                        let derivable =
                            crate::rederive::derivable_batch(&self.ram, &self.db, *d, cone);
                        for (t, ok) in cone.iter().zip(derivable) {
                            if ok || ground.contains(t.as_slice()) {
                                self.db.wr(*d).insert(t);
                                self.db.wr(u).insert(t);
                                report.rederived += 1;
                                seeded = true;
                            }
                        }
                    }
                    if seeded {
                        // The *insertion* statement: restored seeds
                        // propagate to their within-stratum consequences,
                        // and its `upd_` staging feeds downstream strata.
                        let s = &self.ram.strata[i];
                        let stmt = s.update.as_ref().expect("incremental plan");
                        self.run_stmt(stmt, tel)?;
                    }
                }
            }
        }

        self.counters
            .strata_rerun
            .fetch_add(report.strata_rerun, Ordering::Relaxed);
        self.counters
            .full_fallbacks
            .fetch_add(report.full_fallbacks, Ordering::Relaxed);
        self.counters
            .rederived
            .fetch_add(report.rederived, Ordering::Relaxed);
        report.deadline_exceeded = deadline.is_some_and(|d| Instant::now() > d);
        Ok(report)
    }

    /// Writes a snapshot and truncates the WAL. The snapshot is the new
    /// recovery baseline: every previously logged batch is covered by
    /// it, so the log restarts empty. Disk-backed indexes keep serving
    /// off their current base (the renamed-over file stays readable
    /// through its open handle) plus overlays; only [`Self::compact`]
    /// rebases them.
    ///
    /// # Errors
    ///
    /// Fails when the engine has no data directory, and on snapshot or
    /// WAL I/O errors (the previous snapshot stays in place; on a WAL
    /// truncation failure replay after the *new* snapshot merely
    /// re-inserts duplicates, which is idempotent).
    pub fn snapshot(&mut self, tel: Option<&Telemetry>) -> Result<SnapshotStats, EngineError> {
        let _span = tel.map(|t| t.tracer.span("phase:serve:snapshot"));
        self.write_image(FaultPoint::SnapshotWrite, false)
    }

    /// Rewrites the database as a fresh snapshot — folding every
    /// disk-backed index's delta overlay into new base runs — truncates
    /// the WAL, and (under disk storage) rebases the live indexes onto
    /// the fresh file, emptying their overlays and releasing the old
    /// snapshot's pages. The write is gated by the `compact_write` fault
    /// point; a failure leaves the previous snapshot and the live
    /// overlays untouched.
    ///
    /// Under memory storage there is nothing to rebase, so this is
    /// [`Self::snapshot`] under another fault point.
    ///
    /// # Errors
    ///
    /// Fails when the engine has no data directory, and on snapshot or
    /// WAL I/O errors.
    pub fn compact(&mut self, tel: Option<&Telemetry>) -> Result<SnapshotStats, EngineError> {
        let _span = tel.map(|t| t.tracer.span("phase:serve:compact"));
        self.write_image(
            FaultPoint::CompactWrite,
            self.config.storage == StorageBackend::Disk,
        )
    }

    /// The one snapshot writer: serialize, publish atomically, truncate
    /// the WAL, and — for `.compact` on a disk engine — rebase the live
    /// indexes onto the file just written.
    fn write_image(
        &mut self,
        fault_point: FaultPoint,
        rebase: bool,
    ) -> Result<SnapshotStats, EngineError> {
        let t_snap = self.serve_metrics.start();
        let Some(p) = &mut self.persistence else {
            return Err(StorageError::new("no data directory configured").into());
        };
        let stats = snap2::write_snapshot_v2(
            &p.snapshot_path(),
            p.fp,
            &self.ram,
            &self.db,
            &self.extra_facts,
            fault_point,
        )?;
        p.wal.reset()?;
        p.batches_since_snapshot = 0;
        p.snapshot_writes += 1;
        p.snapshot_tuples += stats.tuples;
        if rebase {
            let snap =
                snap2::open_snapshot_v2(&p.snapshot_path(), p.fp, disk::cache_budget_from_env())?;
            for srel in snap.data.relations.iter().filter(|r| !r.runs.is_empty()) {
                let meta = self.ram.relation_by_name(&srel.name).ok_or_else(|| {
                    StorageError::new(format!(
                        "compacted snapshot names unknown relation `{}`",
                        srel.name
                    ))
                })?;
                rebase_runs(&mut self.db.wr(meta.id), &snap, srel)?;
            }
            self.run_file = Some(snap.file);
        }
        self.serve_metrics
            .observe(&self.serve_metrics.snapshot_write, t_snap);
        Ok(stats)
    }

    /// Auto-snapshot bookkeeping after each accepted batch. A failed
    /// auto-snapshot is logged and retried after the next batch; the
    /// insert it rode on is already durable in the WAL.
    fn maybe_auto_snapshot(&mut self, tel: Option<&Telemetry>) {
        let Some(p) = &mut self.persistence else {
            return;
        };
        p.batches_since_snapshot += 1;
        let due = p
            .snapshot_every
            .is_some_and(|every| p.batches_since_snapshot >= every);
        if due {
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

    /// Clears a stratum's relations, replays their ground and inserted
    /// facts, and re-runs the original stratum statement. Correct at any
    /// point of the bottom-up walk because every upstream relation is
    /// already fully up to date when its readers are visited.
    fn recompute_stratum(&self, i: usize, tel: Option<&Telemetry>) -> Result<(), EvalError> {
        let mut defined = vec![false; self.ram.relations.len()];
        for d in &self.ram.strata[i].defines {
            defined[d.0] = true;
            self.db.wr(*d).clear();
            for a in &self.aux_of[d.0] {
                self.db.wr(*a).clear();
            }
        }
        let prov = self.db.provenance();
        for (rid, t) in self.ram.facts.iter().chain(self.extra_facts.iter()) {
            if defined[rid.0] {
                let mut rel = self.db.wr(*rid);
                if rel.insert(t) && prov {
                    rel.record_annotation(t, 0, crate::database::RULE_INPUT);
                }
            }
        }
        self.run_stmt(self.ram.stratum_stmt(i), tel)
    }

    /// Builds the statement's interpreter tree, runs it against the
    /// resident database, and folds the run's work-stealing statistics
    /// into the serving counters (also when the run fails part-way).
    fn run_stmt(&self, stmt: &RamStmt, tel: Option<&Telemetry>) -> Result<(), EvalError> {
        let tree = itree::build_stmt(&self.ram, &self.config, stmt);
        let mut interp = Interpreter::new(&self.ram, &self.db, self.config);
        if let Some(t) = tel {
            interp.attach_telemetry(t);
        }
        let res = interp.run(&tree);
        self.counters
            .absorb_parallel(interp.parallel_report().as_ref());
        res
    }

    /// Answers a partially-bound pattern against the resident database.
    ///
    /// `pattern[i] = Some(v)` binds column `i` to `v`; `None` leaves it
    /// free. The lookup is one [`Relation::select`]; rows come back
    /// sorted, so they do not depend on which index answered. A bound
    /// symbol that was never interned yields an empty result.
    ///
    /// # Errors
    ///
    /// Rejects unknown relations, auxiliary (`delta_`/`new_`/`upd_`)
    /// relations, and wrong-arity patterns.
    pub fn query(
        &self,
        rel: &str,
        pattern: &[Option<Value>],
        tel: Option<&Telemetry>,
    ) -> Result<Vec<Vec<Value>>, EvalError> {
        self.query_deadline(rel, pattern, None, tel)
    }

    /// [`Self::query`] with a per-request deadline. Unlike updates,
    /// queries are read-only, so an elapsed deadline aborts the scan
    /// outright — nothing is poisoned — and reports an error.
    ///
    /// # Errors
    ///
    /// As [`Self::query`], plus a `deadline exceeded` error when the
    /// scan ran past `deadline`.
    pub fn query_deadline(
        &self,
        rel: &str,
        pattern: &[Option<Value>],
        deadline: Option<Instant>,
        tel: Option<&Telemetry>,
    ) -> Result<Vec<Vec<Value>>, EvalError> {
        let _span = tel.map(|t| t.tracer.span("phase:serve:query"));
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let meta = self
            .ram
            .relation_by_name(rel)
            .ok_or_else(|| EvalError::new(format!("unknown relation `{rel}`")))?;
        if meta.role != Role::Standard {
            return Err(EvalError::new(format!(
                "relation `{rel}` is internal and cannot be queried"
            )));
        }
        if pattern.len() != meta.arity {
            return Err(EvalError::new(format!(
                "pattern for `{rel}` has {} terms, expected {}",
                pattern.len(),
                meta.arity
            )));
        }
        // Check once up front so an already-elapsed deadline aborts even
        // a tiny scan; the in-loop poll only fires every 4096 tuples.
        if deadline.is_some_and(|d| Instant::now() > d) {
            return Err(EvalError::new("deadline exceeded"));
        }

        let rel_guard = self.db.rd(meta.id);
        if meta.arity == 0 {
            let rows: Vec<Vec<Value>> = if rel_guard.is_empty() {
                Vec::new()
            } else {
                vec![Vec::new()]
            };
            self.counters
                .query_rows
                .fetch_add(rows.len() as u64, Ordering::Relaxed);
            return Ok(rows);
        }

        let symbols = self.db.symbols_rd();
        let mut bound: Vec<Option<RamDomain>> = Vec::with_capacity(pattern.len());
        for v in pattern {
            match v {
                None => bound.push(None),
                Some(val) => match val.encode_existing(&symbols) {
                    Some(bits) => bound.push(Some(bits)),
                    None => return Ok(Vec::new()),
                },
            }
        }

        let mut out = Vec::new();
        let mut matches = rel_guard.select(&bound);
        let mut scanned = 0u32;
        while let Some(hit) = matches.advance() {
            // Poll the clock every 4096 tuples: cheap enough to leave on,
            // frequent enough that a runaway scan stops promptly.
            scanned = scanned.wrapping_add(1);
            if scanned & 0xFFF == 0 && deadline.is_some_and(|d| Instant::now() > d) {
                return Err(EvalError::new("deadline exceeded"));
            }
            if hit {
                out.push(matches.current().to_vec());
            }
        }
        // Which index answered the query depends on the engine mode and
        // the program's search signatures; sorting the encoded tuples
        // makes the row order deterministic across all of them (the same
        // convention `to_sorted_tuples` uses for batch outputs).
        out.sort_unstable();
        let rows: Vec<Vec<Value>> = out
            .iter()
            .map(|src| {
                src.iter()
                    .zip(&meta.attr_types)
                    .map(|(&bits, &ty)| Value::decode(bits, ty, &symbols))
                    .collect()
            })
            .collect();
        self.counters
            .query_rows
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        Ok(rows)
    }

    /// Explains how `row` of relation `rel` was derived, as a
    /// minimal-height proof tree (see [`crate::prov`]).
    ///
    /// Requires the engine to run with
    /// [`InterpreterConfig::provenance`] on; render the result with
    /// [`Self::render_proof`].
    ///
    /// # Errors
    ///
    /// Rejects unknown/internal relations and wrong-arity rows; reports
    /// provenance-off engines and non-derivable facts as evaluation
    /// errors.
    pub fn explain(
        &self,
        rel: &str,
        row: &[Value],
        limits: ExplainLimits,
        tel: Option<&Telemetry>,
    ) -> Result<ProofNode, EvalError> {
        let _span = tel.map(|t| t.tracer.span("phase:serve:explain"));
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters
            .explain_requests
            .fetch_add(1, Ordering::Relaxed);
        let meta = self
            .ram
            .relation_by_name(rel)
            .ok_or_else(|| EvalError::new(format!("unknown relation `{rel}`")))?;
        if meta.role != Role::Standard {
            return Err(EvalError::new(format!(
                "relation `{rel}` is internal and cannot be explained"
            )));
        }
        if row.len() != meta.arity {
            return Err(EvalError::new(format!(
                "fact for `{rel}` has {} values, expected {}",
                row.len(),
                meta.arity
            )));
        }
        let mut tuple = Vec::with_capacity(row.len());
        {
            let symbols = self.db.symbols_rd();
            for v in row {
                match v.encode_existing(&symbols) {
                    Some(bits) => tuple.push(bits),
                    // A never-interned symbol cannot be in any relation.
                    None => {
                        let vals: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                        return Err(EvalError::new(format!(
                            "`{rel}({})` is not derivable",
                            vals.join(", ")
                        )));
                    }
                }
            }
        }
        let node = crate::prov::explain(&self.ram, &self.db, meta.id, &tuple, &limits)?;
        self.counters
            .explain_nodes
            .fetch_add(node.size() as u64, Ordering::Relaxed);
        Ok(node)
    }

    /// Renders a proof tree from [`Self::explain`] as an indented text
    /// block (one line per node, premises indented under their rule).
    pub fn render_proof(&self, node: &ProofNode) -> String {
        crate::prov::render_proof(&self.ram, &self.db, node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TC: &str = "\
        .decl e(x: number, y: number)\n.input e\n\
        .decl p(x: number, y: number)\n.output p\n\
        p(x, y) :- e(x, y).\n\
        p(x, z) :- p(x, y), e(y, z).\n";

    fn pairs(rows: &[(i32, i32)]) -> Vec<Vec<Value>> {
        rows.iter()
            .map(|&(a, b)| vec![Value::Number(a), Value::Number(b)])
            .collect()
    }

    fn resident(src: &str, inputs: &InputData) -> ResidentEngine {
        ResidentEngine::from_source(src, InterpreterConfig::optimized(), inputs, None)
            .expect("builds")
    }

    #[test]
    fn resident_engine_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<ResidentEngine>();
    }

    #[test]
    fn incremental_chain_extension_matches_batch() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2), (2, 3)]));
        let mut r = resident(TC, &inputs);
        assert_eq!(r.outputs()["p"], pairs(&[(1, 2), (1, 3), (2, 3)]));

        let report = r
            .insert_facts("e", &pairs(&[(3, 4)]), None)
            .expect("updates");
        assert_eq!(report.inserted, 1);
        assert!(report.strata_rerun >= 1);
        assert_eq!(
            report.full_fallbacks, 0,
            "monotone program never falls back"
        );
        assert_eq!(
            r.outputs()["p"],
            pairs(&[(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        );
    }

    #[test]
    fn duplicate_inserts_are_absorbed() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let mut r = resident(TC, &inputs);
        let report = r
            .insert_facts("e", &pairs(&[(1, 2)]), None)
            .expect("updates");
        assert_eq!(report.inserted, 0);
        assert_eq!(report.strata_rerun + report.full_fallbacks, 0);
    }

    #[test]
    fn negation_reader_falls_back_and_retracts() {
        let src = "\
            .decl a(x: number)\n.input a\n\
            .decl b(x: number)\n.input b\n\
            .decl r(x: number)\n.output r\n\
            r(x) :- a(x), !b(x).\n";
        let mut inputs = InputData::new();
        inputs.insert(
            "a".into(),
            vec![vec![Value::Number(1)], vec![Value::Number(2)]],
        );
        inputs.insert("b".into(), vec![vec![Value::Number(2)]]);
        let mut r = resident(src, &inputs);
        assert_eq!(r.outputs()["r"], vec![vec![Value::Number(1)]]);

        // Growing the negated relation must *remove* a derived tuple,
        // which only the full-recompute fallback can do.
        let report = r
            .insert_facts("b", &[vec![Value::Number(1)]], None)
            .expect("updates");
        assert!(report.full_fallbacks >= 1);
        assert!(r.outputs()["r"].is_empty());
    }

    #[test]
    fn queries_use_bound_prefixes_and_post_filters() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2), (2, 3), (2, 4)]));
        let mut r = resident(TC, &inputs);
        r.insert_facts("e", &pairs(&[(4, 5)]), None)
            .expect("updates");

        let from2 = r
            .query("p", &[Some(Value::Number(2)), None], None)
            .expect("queries");
        assert_eq!(from2.len(), 3); // (2,3) (2,4) (2,5)
        let exact = r
            .query("p", &[Some(Value::Number(1)), Some(Value::Number(5))], None)
            .expect("queries");
        assert_eq!(exact, pairs(&[(1, 5)]));
        let all = r.query("e", &[None, None], None).expect("queries");
        assert_eq!(all.len(), 4);
        let to3 = r
            .query("p", &[None, Some(Value::Number(3))], None)
            .expect("queries");
        assert_eq!(to3.len(), 2); // (1,3) (2,3)
    }

    #[test]
    fn unknown_symbols_match_nothing_without_interning() {
        let src = "\
            .decl n(s: symbol)\n.input n\n\
            .decl out(s: symbol)\n.output out\n\
            out(s) :- n(s).\n";
        let mut inputs = InputData::new();
        inputs.insert("n".into(), vec![vec![Value::Symbol("ada".into())]]);
        let r = resident(src, &inputs);
        let rows = r
            .query("out", &[Some(Value::Symbol("ghost".into()))], None)
            .expect("queries");
        assert!(rows.is_empty());
        let rows = r
            .query("out", &[Some(Value::Symbol("ada".into()))], None)
            .expect("queries");
        assert_eq!(rows, vec![vec![Value::Symbol("ada".into())]]);
    }

    #[test]
    fn rejects_bad_requests() {
        let r = resident(TC, &InputData::new());
        assert!(r.query("ghost", &[], None).is_err());
        assert!(r.query("p", &[None], None).is_err());
        assert!(r.query("upd_p", &[None, None], None).is_err());
        let mut r = r;
        assert!(r.insert_facts("p", &pairs(&[(1, 2)]), None).is_err());
        assert!(r
            .insert_facts("e", &[vec![Value::Number(1)]], None)
            .is_err());
    }

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

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stir-resident-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open_dir(
        src: &str,
        config: InterpreterConfig,
        inputs: &InputData,
        dir: &Path,
        opts: PersistOptions,
    ) -> (ResidentEngine, RecoveryReport) {
        let engine = crate::engine::Engine::from_source(src).expect("compiles");
        ResidentEngine::open(engine, config, inputs, dir, opts, None).expect("opens")
    }

    #[test]
    fn wal_replay_recovers_acked_inserts() {
        let dir = tmpdir("wal-replay");
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let opts = PersistOptions::default();

        let (mut r, rec) = open_dir(TC, InterpreterConfig::optimized(), &inputs, &dir, opts);
        assert_eq!(rec, RecoveryReport::default());
        r.insert_facts("e", &pairs(&[(2, 3)]), None)
            .expect("inserts");
        r.insert_facts("e", &pairs(&[(3, 4)]), None)
            .expect("inserts");
        let before = r.outputs();
        drop(r); // simulated crash: no snapshot, no graceful shutdown

        let (r, rec) = open_dir(TC, InterpreterConfig::optimized(), &inputs, &dir, opts);
        assert!(!rec.snapshot_loaded);
        assert_eq!(rec.replayed_batches, 2);
        assert_eq!(rec.replayed_tuples, 2);
        assert_eq!(rec.skipped_batches, 0);
        assert_eq!(r.outputs(), before);
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

    /// Symbols, numbers, a recursive IDB relation and an inline
    /// (nullary) one: every shape a snapshot stores.
    const MIXED: &str = "\
        .decl e(x: number, y: number)\n.input e\n\
        .decl p(x: number, y: number)\n.output p\n\
        .decl n(s: symbol)\n.input n\n\
        .decl out(s: symbol)\n.output out\n\
        .decl any()\n.output any\n\
        p(x, y) :- e(x, y).\n\
        p(x, z) :- p(x, y), e(y, z).\n\
        out(s) :- n(s).\n\
        any() :- n(_).\n";

    /// The four engine modes under both storage backends.
    fn all_setups() -> Vec<(String, InterpreterConfig)> {
        let modes = [
            ("sti", InterpreterConfig::optimized()),
            ("dynamic", InterpreterConfig::dynamic_adapter()),
            ("unopt", InterpreterConfig::unoptimized()),
            ("legacy", InterpreterConfig::legacy()),
        ];
        let mut out = Vec::new();
        for (name, config) in modes {
            for storage in [StorageBackend::Mem, StorageBackend::Disk] {
                out.push((format!("{name}/{storage:?}"), config.with_storage(storage)));
            }
        }
        out
    }

    fn mixed_inputs() -> InputData {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        inputs.insert("n".into(), vec![vec![Value::Symbol("ada".into())]]);
        inputs
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
        assert_eq!(rec, RecoveryReport::default(), "temps are not snapshots");
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

    #[test]
    fn compact_folds_overlays_into_fresh_base_runs() {
        let dir = tmpdir("compact");
        let disk = InterpreterConfig::optimized().with_storage(StorageBackend::Disk);
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let opts = PersistOptions::default();

        let (mut r, _) = open_dir(TC, disk, &inputs, &dir, opts);
        r.insert_facts("e", &pairs(&[(2, 3)]), None)
            .expect("inserts");
        let before = r.outputs();
        let stats = r.compact(None).expect("compacts");
        assert!(stats.tuples > 0);
        assert!(
            r.page_cache_stats().is_some(),
            "compaction rebases onto the fresh file"
        );
        // The live indexes now serve off base runs with empty overlays.
        let p = r.ram.relation_by_name("p").expect("p exists").id;
        {
            let rel = r.db.rd(p);
            for k in 0..rel.index_count() {
                let di = rel
                    .index(k)
                    .as_any()
                    .downcast_ref::<DiskIndex>()
                    .expect("disk index");
                assert!(di.has_base());
                assert_eq!(di.overlay_len(), (0, 0), "overlay folded into the base");
            }
        }
        assert_eq!(r.outputs(), before, "contents unchanged by compaction");

        // Compaction truncated the WAL: a restart replays nothing and
        // serves the same answers straight off the new base runs.
        r.insert_facts("e", &pairs(&[(3, 4)]), None)
            .expect("inserts");
        let before = r.outputs();
        drop(r);
        let (r, rec) = open_dir(TC, disk, &inputs, &dir, opts);
        assert!(rec.snapshot_loaded);
        assert_eq!(rec.replayed_batches, 1, "only the post-compact batch");
        assert_eq!(r.outputs(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_without_data_dir_is_an_error() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let mut r = resident(TC, &inputs);
        assert!(r.compact(None).is_err());
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
    fn insert_deadline_sets_flag_but_commits() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let mut r = resident(TC, &inputs);
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let report = r
            .insert_facts_deadline("e", &pairs(&[(2, 3)]), Some(past), None)
            .expect("applies despite deadline");
        assert!(report.deadline_exceeded);
        assert_eq!(report.inserted, 1, "the update still committed");
        assert_eq!(r.outputs()["p"].len(), 3);
    }

    #[test]
    fn query_deadline_aborts_cleanly() {
        // Non-recursive program: large EDB without a quadratic closure.
        let src = "\
            .decl e(x: number, y: number)\n.input e\n\
            .decl p(x: number, y: number)\n.output p\n\
            p(x, y) :- e(x, y).\n";
        let mut inputs = InputData::new();
        // Enough rows that the scan crosses at least one deadline poll.
        inputs.insert(
            "e".into(),
            pairs(&(0..5000).map(|i| (i, i + 1)).collect::<Vec<_>>()),
        );
        let r = resident(src, &inputs);
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let err = r
            .query_deadline("e", &[None, None], Some(past), None)
            .unwrap_err();
        assert!(err.msg.contains("deadline"), "{err:?}");
        // The engine is untouched: the same query without a deadline works.
        assert_eq!(
            r.query("e", &[None, None], None).expect("queries").len(),
            5000
        );
    }

    #[test]
    fn snapshot_without_data_dir_is_an_error() {
        let mut r = resident(TC, &InputData::new());
        assert!(!r.is_durable());
        assert!(matches!(r.snapshot(None), Err(EngineError::Storage(_))));
        r.flush_wal().expect("no-op without persistence");
    }

    #[test]
    fn explain_covers_incremental_derivations() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2), (2, 3)]));
        let mut r = ResidentEngine::from_source(
            TC,
            InterpreterConfig::optimized().with_provenance(),
            &inputs,
            None,
        )
        .expect("builds");
        r.insert_facts("e", &pairs(&[(3, 4)]), None)
            .expect("updates");

        // p(1,4) only exists because of the incrementally inserted edge.
        let node = r
            .explain(
                "p",
                &[Value::Number(1), Value::Number(4)],
                ExplainLimits::default(),
                None,
            )
            .expect("explains");
        assert!(!node.is_input());
        assert!(node.premises.iter().any(|p| p.tuple == vec![3, 4]));
        let rendered = r.render_proof(&node);
        assert!(rendered.contains("p(1, 4)"), "{rendered}");
        assert!(rendered.contains("[input]"), "{rendered}");
        let s = r.stats();
        assert_eq!(s.explain_requests, 1);
        assert!(s.explain_nodes >= node.size() as u64);

        // Non-derivable and never-interned facts report errors, not trees.
        assert!(r
            .explain(
                "p",
                &[Value::Number(9), Value::Number(9)],
                ExplainLimits::default(),
                None,
            )
            .is_err());
    }

    #[test]
    fn explain_rejects_provenance_off_engines() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let r = resident(TC, &inputs);
        let err = r
            .explain(
                "p",
                &[Value::Number(1), Value::Number(2)],
                ExplainLimits::default(),
                None,
            )
            .unwrap_err();
        assert!(err.msg.contains("provenance"), "{err:?}");
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

    #[test]
    fn query_rows_come_back_sorted_in_every_mode() {
        // Insertion order deliberately scrambled; rows must come back in
        // encoded-tuple order regardless of which index serves the scan.
        let scrambled = pairs(&[(5, 1), (2, 9), (2, 3), (4, 4), (1, 7)]);
        for config in [
            InterpreterConfig::optimized(),
            InterpreterConfig::dynamic_adapter(),
            InterpreterConfig::unoptimized(),
            InterpreterConfig::legacy(),
        ] {
            let mut inputs = InputData::new();
            inputs.insert("e".into(), scrambled.clone());
            let r = ResidentEngine::from_source(TC, config, &inputs, None).expect("builds");
            let rows = r.query("e", &[None, None], None).expect("queries");
            assert_eq!(
                rows,
                pairs(&[(1, 7), (2, 3), (2, 9), (4, 4), (5, 1)]),
                "sorted rows in {config:?}"
            );
            let bound = r
                .query("p", &[Some(Value::Number(2)), None], None)
                .expect("queries");
            let mut sorted = bound.clone();
            sorted.sort_by_key(|row| match row[1] {
                Value::Number(n) => n,
                _ => unreachable!(),
            });
            assert_eq!(bound, sorted, "bound-prefix rows sorted in {config:?}");
        }
    }

    #[test]
    fn multi_stratum_updates_cascade() {
        let src = "\
            .decl e(x: number, y: number)\n.input e\n\
            .decl p(x: number, y: number)\n\
            .decl q(x: number)\n.output q\n\
            p(x, y) :- e(x, y).\n\
            p(x, z) :- p(x, y), e(y, z).\n\
            q(y) :- p(1, y).\n";
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let mut r = resident(src, &inputs);
        assert_eq!(r.outputs()["q"], vec![vec![Value::Number(2)]]);
        let report = r
            .insert_facts("e", &pairs(&[(2, 3)]), None)
            .expect("updates");
        assert!(report.strata_rerun >= 2, "both strata re-run incrementally");
        assert_eq!(
            r.outputs()["q"],
            vec![vec![Value::Number(2)], vec![Value::Number(3)]]
        );
    }

    #[test]
    fn retraction_removes_the_derived_cone_incrementally() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2), (2, 3), (3, 4)]));
        let mut r = resident(TC, &inputs);
        assert_eq!(r.outputs()["p"].len(), 6);

        let report = r
            .retract_facts("e", &pairs(&[(2, 3)]), None)
            .expect("retracts");
        assert_eq!(report.retracted, 1);
        assert!(report.strata_rerun >= 1);
        assert_eq!(report.full_fallbacks, 0, "monotone program stays delta");
        // Only e(1,2)→p(1,2) and e(3,4)→p(3,4) survive.
        assert_eq!(r.outputs()["p"], pairs(&[(1, 2), (3, 4)]));
        assert_eq!(r.query("e", &[None, None], None).expect("queries").len(), 2);
    }

    #[test]
    fn retraction_restores_alternatively_derivable_tuples() {
        // Diamond: p(1,4) via 2 and via 3. Removing one path must keep it.
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2), (2, 4), (1, 3), (3, 4)]));
        let mut r = resident(TC, &inputs);

        let report = r
            .retract_facts("e", &pairs(&[(2, 4)]), None)
            .expect("retracts");
        assert_eq!(report.retracted, 1);
        assert!(report.rederived >= 1, "p(1,4) must be restored: {report:?}");
        assert_eq!(r.outputs()["p"], pairs(&[(1, 2), (1, 3), (1, 4), (3, 4)]));
    }

    #[test]
    fn retracting_absent_or_unknown_tuples_is_a_noop() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let mut r = resident(TC, &inputs);
        let report = r
            .retract_facts("e", &pairs(&[(7, 8)]), None)
            .expect("retracts");
        assert_eq!(report.retracted, 0);
        assert_eq!(report.strata_rerun + report.full_fallbacks, 0);
        assert_eq!(r.outputs()["p"], pairs(&[(1, 2)]));
        // Bad requests are rejected exactly like inserts.
        assert!(r.retract_facts("p", &pairs(&[(1, 2)]), None).is_err());
        assert!(r
            .retract_facts("e", &[vec![Value::Number(1)]], None)
            .is_err());
    }

    #[test]
    fn retraction_cascades_across_strata() {
        let src = "\
            .decl e(x: number, y: number)\n.input e\n\
            .decl p(x: number, y: number)\n\
            .decl q(x: number)\n.output q\n\
            p(x, y) :- e(x, y).\n\
            p(x, z) :- p(x, y), e(y, z).\n\
            q(y) :- p(1, y).\n";
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2), (2, 3)]));
        let mut r = resident(src, &inputs);
        assert_eq!(r.outputs()["q"].len(), 2);

        let report = r
            .retract_facts("e", &pairs(&[(2, 3)]), None)
            .expect("retracts");
        assert!(report.strata_rerun >= 2, "{report:?}");
        assert_eq!(report.full_fallbacks, 0);
        assert_eq!(r.outputs()["q"], vec![vec![Value::Number(2)]]);
    }

    #[test]
    fn negation_reader_gains_tuples_via_fallback() {
        let src = "\
            .decl a(x: number)\n.input a\n\
            .decl b(x: number)\n.input b\n\
            .decl r(x: number)\n.output r\n\
            r(x) :- a(x), !b(x).\n";
        let mut inputs = InputData::new();
        inputs.insert("a".into(), vec![vec![Value::Number(1)]]);
        inputs.insert("b".into(), vec![vec![Value::Number(1)]]);
        let mut r = resident(src, &inputs);
        assert!(r.outputs()["r"].is_empty());

        // Shrinking a negated relation *adds* downstream tuples — only
        // the full-recompute fallback can produce them.
        let report = r
            .retract_facts("b", &[vec![Value::Number(1)]], None)
            .expect("retracts");
        assert!(report.full_fallbacks >= 1, "{report:?}");
        assert_eq!(r.outputs()["r"], vec![vec![Value::Number(1)]]);
    }

    #[test]
    fn interleaved_inserts_and_retractions_match_from_scratch() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let mut r = resident(TC, &inputs);
        r.insert_facts("e", &pairs(&[(2, 3), (3, 4)]), None)
            .expect("inserts");
        r.retract_facts("e", &pairs(&[(1, 2)]), None)
            .expect("retracts");
        r.insert_facts("e", &pairs(&[(4, 1)]), None)
            .expect("inserts");
        r.retract_facts("e", &pairs(&[(3, 4)]), None)
            .expect("retracts");

        // Survivors: e(2,3), e(4,1).
        let mut fresh_inputs = InputData::new();
        fresh_inputs.insert("e".into(), pairs(&[(2, 3), (4, 1)]));
        let fresh = resident(TC, &fresh_inputs);
        assert_eq!(r.outputs(), fresh.outputs());
    }

    #[test]
    fn retracting_a_program_ground_fact_sticks() {
        // The fact comes from the source text, not an insert; fallback
        // replays must not resurrect it.
        let src = "\
            .decl a(x: number)\n.input a\n\
            .decl b(x: number)\n.input b\n\
            .decl r(x: number)\n.output r\n\
            a(1). a(2). b(9).\n\
            r(x) :- a(x), !b(x).\n";
        let mut r = resident(src, &InputData::new());
        assert_eq!(r.outputs()["r"].len(), 2);
        r.retract_facts("a", &[vec![Value::Number(1)]], None)
            .expect("retracts");
        assert_eq!(r.outputs()["r"], vec![vec![Value::Number(2)]]);
        // Force the negation fallback (full recompute of r's stratum):
        // the replay list must no longer contain a(1).
        r.insert_facts("b", &[vec![Value::Number(3)]], None)
            .expect("inserts");
        assert_eq!(r.outputs()["r"], vec![vec![Value::Number(2)]]);
    }

    #[test]
    fn eqrel_input_retraction_rebuilds_the_closure() {
        let src = "\
            .decl eq(x: number, y: number) eqrel\n.input eq\n\
            .decl out(x: number, y: number)\n.output out\n\
            out(x, y) :- eq(x, y).\n";
        let mut r = resident(src, &InputData::new());
        r.insert_facts("eq", &pairs(&[(1, 2), (2, 3)]), None)
            .expect("inserts");
        assert!(
            r.query(
                "eq",
                &[Some(Value::Number(1)), Some(Value::Number(3))],
                None
            )
            .expect("queries")
            .len()
                == 1
        );

        let report = r
            .retract_facts("eq", &pairs(&[(1, 2)]), None)
            .expect("retracts");
        assert_eq!(report.retracted, 1);
        assert!(report.full_fallbacks >= 1, "eqrel readers recompute");
        // The closure of the surviving generator {(2,3)} excludes 1.
        assert!(r
            .query("eq", &[Some(Value::Number(1)), None], None)
            .expect("queries")
            .is_empty());
        assert!(
            r.query(
                "out",
                &[Some(Value::Number(2)), Some(Value::Number(3))],
                None
            )
            .expect("queries")
            .len()
                == 1
        );
    }

    #[test]
    fn retraction_survives_wal_replay() {
        let dir = tmpdir("retract-wal");
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let opts = PersistOptions::default();

        let (mut r, _) = open_dir(TC, InterpreterConfig::optimized(), &inputs, &dir, opts);
        r.insert_facts("e", &pairs(&[(2, 3)]), None)
            .expect("inserts");
        r.retract_facts("e", &pairs(&[(1, 2)]), None)
            .expect("retracts");
        let before = r.outputs();
        drop(r); // crash: recovery must replay the delete record too

        let (r, rec) = open_dir(TC, InterpreterConfig::optimized(), &inputs, &dir, opts);
        assert_eq!(rec.replayed_batches, 2);
        assert_eq!(r.outputs(), before);
        assert_eq!(r.outputs()["p"], pairs(&[(2, 3)]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retraction_is_covered_by_snapshots() {
        // Retract a *program* ground fact, snapshot, recover: neither
        // `Database::new_with`'s fact pre-load nor the replay list may
        // resurrect it.
        let src = "\
            .decl e(x: number, y: number)\n.input e\n\
            .decl p(x: number, y: number)\n.output p\n\
            e(1, 2). e(2, 3).\n\
            p(x, y) :- e(x, y).\n\
            p(x, z) :- p(x, y), e(y, z).\n";
        let dir = tmpdir("retract-snap");
        let opts = PersistOptions::default();

        let (mut r, _) = open_dir(
            src,
            InterpreterConfig::optimized(),
            &InputData::new(),
            &dir,
            opts,
        );
        r.retract_facts("e", &pairs(&[(1, 2)]), None)
            .expect("retracts");
        r.snapshot(None).expect("snapshots");
        let before = r.outputs();
        drop(r);

        let (mut r, rec) = open_dir(
            src,
            InterpreterConfig::optimized(),
            &InputData::new(),
            &dir,
            opts,
        );
        assert!(rec.snapshot_loaded);
        assert_eq!(rec.replayed_batches, 0);
        assert_eq!(r.outputs(), before);
        assert_eq!(r.outputs()["p"], pairs(&[(2, 3)]));
        // And a post-recovery fallback recompute must not resurrect it
        // from the reconciled replay list either.
        let report = r
            .retract_facts("e", &pairs(&[(2, 3)]), None)
            .expect("retracts");
        assert_eq!(report.retracted, 1);
        assert!(r.outputs()["p"].is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retract_deadline_sets_flag_but_commits() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2), (2, 3)]));
        let mut r = resident(TC, &inputs);
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let report = r
            .retract_facts_deadline("e", &pairs(&[(2, 3)]), Some(past), None)
            .expect("applies despite deadline");
        assert!(report.deadline_exceeded);
        assert_eq!(report.retracted, 1, "the retraction still committed");
        assert_eq!(r.outputs()["p"], pairs(&[(1, 2)]));
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

    #[test]
    fn explain_stays_exact_after_retraction() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2), (2, 3), (1, 3)]));
        let mut r = ResidentEngine::from_source(
            TC,
            InterpreterConfig::optimized().with_provenance(),
            &inputs,
            None,
        )
        .expect("builds");

        let report = r
            .retract_facts("e", &pairs(&[(2, 3)]), None)
            .expect("retracts");
        assert!(
            report.full_fallbacks >= 1,
            "provenance mode recomputes for exact annotations: {report:?}"
        );
        // p(1,3) survives via the direct edge and explains as such.
        let node = r
            .explain(
                "p",
                &[Value::Number(1), Value::Number(3)],
                ExplainLimits::default(),
                None,
            )
            .expect("explains");
        assert!(node.premises.iter().all(|p| p.tuple != vec![2, 3]));
        // p(2,3) is gone and reports non-derivable.
        assert!(r
            .explain(
                "p",
                &[Value::Number(2), Value::Number(3)],
                ExplainLimits::default(),
                None,
            )
            .is_err());
    }

    #[test]
    fn retraction_matches_from_scratch_in_every_mode() {
        for config in [
            InterpreterConfig::optimized(),
            InterpreterConfig::dynamic_adapter(),
            InterpreterConfig::unoptimized(),
            InterpreterConfig::legacy(),
        ] {
            let mut inputs = InputData::new();
            inputs.insert("e".into(), pairs(&[(1, 2), (2, 3), (3, 1), (3, 4)]));
            let mut r = ResidentEngine::from_source(TC, config, &inputs, None).expect("builds");
            r.retract_facts("e", &pairs(&[(2, 3)]), None)
                .expect("retracts");

            let mut fresh_inputs = InputData::new();
            fresh_inputs.insert("e".into(), pairs(&[(1, 2), (3, 1), (3, 4)]));
            let fresh =
                ResidentEngine::from_source(TC, config, &fresh_inputs, None).expect("builds");
            assert_eq!(r.outputs(), fresh.outputs(), "mode {config:?}");
        }
    }
}
