//! A resident engine: the database outlives the initial evaluation.
//!
//! Batch evaluation (via [`crate::Engine::run`]) builds a database, runs
//! the fixpoint, extracts outputs, and throws everything away. The
//! serving subsystem instead keeps the [`Database`] — relations, indexes,
//! and symbol table — alive so that later fact insertions and point
//! queries cost time proportional to the *change*, not the whole program.
//!
//! # Layout
//!
//! * `mod.rs` — construction (a fresh fixpoint or a snapshot image) and
//!   what every request shares: the ground-fact list, and the front door
//!   — one relation lookup that owns every refusal text, and one
//!   `encode_existing` for rows that must not intern a symbol.
//! * `write.rs` — the plan table of prebuilt interpreter trees, inserts,
//!   and the write path all writes share: validate, WAL append by kind,
//!   encode, apply, auto-snapshot; the one row encoder, which recovery
//!   uses too.
//! * `retract.rs` — the retraction's delete-and-re-derive phases.
//! * `storage.rs` — open and recovery (the WAL streamed and folded to
//!   one net batch per relation, applied through the write path's apply
//!   steps), the one checkpoint, storage health, group commit.
//! * `read.rs` — queries and `.explain`.
//! * `metrics.rs` — the serving counters and the metric catalogue.
//!
//! # The fallback rule
//!
//! Inserts and retractions walk the strata bottom-up through one planner,
//! `walk_strata`. A stratum is *affected* when a relation it defines or
//! reads changed in this write, and is brought up to date incrementally
//! unless it falls back to a full recompute — its relations cleared,
//! their ground facts replayed, its stratum statement re-run. It falls
//! back when
//!
//! * (a) its plan-table entry lacks the tree this kind of write needs:
//!   the update tree; for a retraction the deletion twin and re-derive
//!   pair, which bring-up builds only with provenance off (a recompute
//!   re-annotates exactly) and when the stratum has both statements (no
//!   re-derive statement when a rule draws auto-increment values);
//! * (b) a changed relation is read under negation or aggregation, where
//!   growth can retract conclusions and shrinkage can add them; or
//! * (c) one of its inputs or heads was rebuilt, so its `upd_` staging is not
//!   a faithful "what changed" set.
//!
//! A retraction also demotes a stratum whose over-delete cone swallows
//! most of it. The `server.full_fallbacks` counter tallies fallbacks.
//!
//! # Ground facts
//!
//! The engine owns one set of ground facts per relation: the program's
//! own, the initial inputs (or a snapshot's replay list) and every
//! inserted row, derived or not, minus every retraction. A fallback
//! replays only the recomputed relations' share, and a retraction keeps
//! each cone member the list still contains. The RAM program is never
//! edited after construction.

mod metrics;
mod read;
mod retract;
mod storage;
mod write;

pub use metrics::ServerStats;
pub(crate) use read::explain_row;
pub use storage::{PersistOptions, RecoveryReport, PROBE_FILE, SNAPSHOT_FILE, WAL_FILE};
use write::{build_plans, StratumPlan};
pub use write::{RetractReport, UpdateReport};

use crate::config::{InterpreterConfig, StorageBackend};
use crate::database::{admit, Database, InputData};
use crate::engine::{bring_up, Engine};
use crate::error::{EngineError, EvalError, StorageError};
use crate::health::HealthMonitor;
use crate::profile::ProfileReport;
use crate::snap2::{Snap2, SnapshotImage};
use crate::telemetry::{ServeMetrics, Telemetry};
use crate::value::Value;
use crate::wal::WalRecordKind;
use metrics::Counters;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use stir_der::disk::RunFile;
use stir_der::factory::IndexSpec;
use stir_der::order::Order;
use stir_der::relation::Relation;
use stir_frontend::SymbolTable;
use stir_ram::expr::RamDomain;
use stir_ram::program::{RamProgram, RamRelation, RelId, Role};
use stir_ram::stmt::RamStmt;
use storage::{rebase_runs, Persistence};

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
    /// The translated program; never edited after construction.
    ram: RamProgram,
    config: InterpreterConfig,
    /// Every stratum's prebuilt interpreter trees, by stratum index.
    plans: Vec<StratumPlan>,
    db: Database,
    /// Every relation's ground facts, by relation id, each in one
    /// natural-order B-tree (see the module docs).
    ground: Vec<Relation>,
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
    /// (cold start or a checkpoint); `None` when every index is
    /// memory-resident or no base has been installed yet.
    run_file: Option<Arc<RunFile>>,
}

/// What a request does with a relation; each has its own refusal text.
enum Access {
    Write,
    Query,
    Explain,
}

/// Encodes `row` without interning anything: `None` when a value names a
/// symbol that was never interned, which no relation can hold.
fn encode_existing<'v>(
    symbols: &SymbolTable,
    row: impl IntoIterator<Item = &'v Value>,
) -> Option<Vec<RamDomain>> {
    row.into_iter()
        .map(|v| v.encode_existing(symbols))
        .collect()
}

/// Refuses the legacy data layer, a batch-only baseline: a resident
/// engine runs the STI.
fn refuse_legacy(config: &InterpreterConfig) -> Result<(), EvalError> {
    if config.legacy_data {
        return Err(EvalError::new(
            "the legacy data layer is batch-only; a resident engine runs the STI",
        ));
    }
    Ok(())
}

/// Whether `deadline` has passed.
fn elapsed(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() > d)
}

impl ResidentEngine {
    /// Runs the initial evaluation and keeps the database resident.
    ///
    /// Mirrors [`Engine::run`] (same phase spans when telemetry is
    /// attached) but retains ownership of the RAM program and database.
    ///
    /// # Errors
    ///
    /// Refuses the legacy data layer ([`InterpreterConfig::legacy_data`]),
    /// a batch-only baseline. Propagates input-loading and runtime errors
    /// from the initial fixpoint.
    pub fn new(
        engine: Engine,
        config: InterpreterConfig,
        inputs: &InputData,
        tel: Option<&Telemetry>,
    ) -> Result<ResidentEngine, EngineError> {
        refuse_legacy(&config)?;
        Self::assemble(engine, config, SnapshotImage::Missing, inputs, tel)
    }

    /// Builds the engine from what [`crate::snap2::load_snapshot`] found.
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
        let ram = engine.into_ram();
        let tracer = tel.map(|t| &t.tracer);
        let snapshot: Option<&Snap2> = match &image {
            SnapshotImage::Missing | SnapshotImage::Invalid(_) => None,
            SnapshotImage::Mapped(snap) => Some(snap),
        };
        let prov = config.provenance;
        let map_runs = snapshot.is_some() && config.storage == StorageBackend::Disk && !prov;

        let mut ground: Vec<Relation> = (ram.relations.iter())
            .map(|r| {
                let btree = (r.arity > 0).then(|| IndexSpec::btree_natural(r.arity));
                let mut facts = Relation::new(r.name.clone(), r.arity, btree.into_iter().collect());
                if prov {
                    facts.enable_annotations();
                }
                facts
            })
            .collect();
        let up = bring_up(&ram, config, tel, |db| {
            // `.input` relations whose content the snapshot states whole.
            let mut covered = vec![false; ram.relations.len()];
            let recompute = match snapshot {
                None => {
                    let _span = tracer.map(|t| t.span("phase:load-inputs"));
                    db.load_inputs(&ram, inputs)?;
                    true
                }
                Some(mapped) => {
                    let snap = &mapped.data;
                    {
                        // Replace the table wholesale: every bit pattern in
                        // the snapshot was encoded against it. The program's
                        // own symbols are a prefix of it (interning only
                        // appends), so the `ram.facts` tuples inserted by
                        // `Database::new` stay valid.
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
                        if prov && !meta.is_input {
                            continue;
                        }
                        let mut rel = db.wr(meta.id);
                        // Unless the runs are mapped in place, the snapshot
                        // is the *complete* state of this relation.
                        // `Database::new_with_storage` pre-inserted the
                        // program's ground facts; any of them missing from
                        // the snapshot was retracted before it was taken and
                        // must not resurrect.
                        match &srel.inline {
                            None if map_runs => rebase_runs(&mut rel, mapped, srel)?,
                            Some(tuples) => {
                                // The section reader sized every tuple by
                                // `srel.arity`, checked just above.
                                rel.clear();
                                for t in tuples {
                                    admit(&mut rel, t, prov);
                                }
                            }
                            None => {
                                // Scan the primary run one page at a time and
                                // decode its stored order back to source tuples.
                                rel.clear();
                                let order = Order::new(srel.runs[0].order.clone());
                                let mut src = vec![0; srel.arity];
                                mapped.base_run(srel, 0).for_each(|t| {
                                    order.decode(t, &mut src);
                                    admit(&mut rel, &src, prov);
                                });
                            }
                        }
                    }
                    prov
                }
            };
            // A program fact of a snapshot-covered `.input` relation that
            // the snapshot no longer contains was retracted, and a later
            // fallback recompute must not replay it back to life.
            for (rid, t) in &ram.facts {
                if !covered[rid.0] || db.rd(*rid).contains(t) {
                    admit(&mut ground[rid.0], t, prov);
                }
            }
            Ok(recompute)
        })?;
        let db = up.db;
        if let Some(snap) = snapshot {
            // A provenance recompute re-allocated auto-increment ids from
            // zero; keep the snapshot's high-water mark either way so
            // future allocations never collide with values it recorded.
            db.counter.fetch_max(snap.data.counter, Ordering::Relaxed);
        }
        let counters = Counters::default();
        counters.absorb_parallel(up.parallel.as_ref());

        let run_file = match image {
            SnapshotImage::Missing | SnapshotImage::Invalid(_) => {
                let (mut symbols, mut encoded) = (db.symbols_wr(), Vec::new());
                for (name, tuples) in inputs {
                    let facts = &mut ground[ram.relation_by_name(name).expect("loaded").id.0];
                    for t in tuples {
                        encoded.clear();
                        encoded.extend(t.iter().map(|v| v.encode(&mut symbols)));
                        admit(facts, &encoded, prov);
                    }
                }
                None
            }
            SnapshotImage::Mapped(s) => {
                for (rid, t) in &s.data.extra_facts {
                    let facts = ground.get_mut(rid.0).filter(|f| f.arity() == t.len());
                    let bad = || StorageError::new("snapshot replay list does not fit the program");
                    admit(facts.ok_or_else(bad)?, t, prov);
                }
                map_runs.then_some(s.file)
            }
        };

        let mut aux_of = vec![Vec::new(); ram.relations.len()];
        let mut all_upds = Vec::new();
        for r in &ram.relations {
            match r.role {
                Role::Standard | Role::Cone(_) => {}
                Role::Delta(b) | Role::New(b) => aux_of[b.0].push(r.id),
                Role::Upd(b) => {
                    aux_of[b.0].push(r.id);
                    all_upds.push(r.id);
                }
            }
        }

        Ok(ResidentEngine {
            plans: build_plans(&ram, &config),
            ram,
            config,
            db,
            ground,
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

    /// Every `.output` relation's current tuples, sorted, keyed by name.
    pub fn outputs(&self) -> HashMap<String, Vec<Vec<Value>>> {
        self.db.extract_outputs(&self.ram)
    }
}

/// The front door every request passes: `rel` when it exists, `access`
/// may use it, and every row length in `rows` is its arity; otherwise
/// the error the wire reports verbatim.
fn lookup<'r>(
    ram: &'r RamProgram,
    rel: &str,
    access: Access,
    rows: impl IntoIterator<Item = usize>,
) -> Result<&'r RamRelation, EvalError> {
    let meta = ram
        .relation_by_name(rel)
        .ok_or_else(|| EvalError::new(format!("unknown relation `{rel}`")))?;
    let internal = meta.role != Role::Standard;
    let refusal = match access {
        Access::Write if !meta.is_input => Some("is not declared `.input`"),
        Access::Query if internal => Some("is internal and cannot be queried"),
        Access::Explain if internal => Some("is internal and cannot be explained"),
        _ => None,
    };
    if let Some(why) = refusal {
        return Err(EvalError::new(format!("relation `{rel}` {why}")));
    }
    let (row, unit) = match access {
        Access::Write => ("tuple", "values"),
        Access::Query => ("pattern", "terms"),
        Access::Explain => ("fact", "values"),
    };
    match rows.into_iter().find(|&n| n != meta.arity) {
        Some(n) => Err(EvalError::new(format!(
            "{row} for `{rel}` has {n} {unit}, expected {}",
            meta.arity
        ))),
        None => Ok(meta),
    }
}

#[cfg(test)]
mod fixtures {
    //! Programs, inputs and constructors the `resident` tests share.

    pub(super) use super::{PersistOptions, RecoveryReport, ResidentEngine};
    pub(super) use crate::{InputData, InterpreterConfig, StorageBackend, Value};
    use std::path::{Path, PathBuf};

    pub(super) const TC: &str = "\
        .decl e(x: number, y: number)\n.input e\n\
        .decl p(x: number, y: number)\n.output p\n\
        p(x, y) :- e(x, y).\n\
        p(x, z) :- p(x, y), e(y, z).\n";

    /// Symbols, numbers, a recursive IDB relation and an inline
    /// (nullary) one: every shape a snapshot stores.
    pub(super) const MIXED: &str = "\
        .decl e(x: number, y: number)\n.input e\n\
        .decl p(x: number, y: number)\n.output p\n\
        .decl n(s: symbol)\n.input n\n\
        .decl out(s: symbol)\n.output out\n\
        .decl any()\n.output any\n\
        p(x, y) :- e(x, y).\n\
        p(x, z) :- p(x, y), e(y, z).\n\
        out(s) :- n(s).\n\
        any() :- n(_).\n";

    pub(super) fn pairs(rows: &[(i32, i32)]) -> Vec<Vec<Value>> {
        rows.iter()
            .map(|&(a, b)| vec![Value::Number(a), Value::Number(b)])
            .collect()
    }

    pub(super) fn resident(src: &str, inputs: &InputData) -> ResidentEngine {
        ResidentEngine::from_source(src, InterpreterConfig::optimized(), inputs, None)
            .expect("builds")
    }

    pub(super) fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stir-resident-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    pub(super) fn open_dir(
        src: &str,
        config: InterpreterConfig,
        inputs: &InputData,
        dir: &Path,
        opts: PersistOptions,
    ) -> (ResidentEngine, RecoveryReport) {
        let engine = crate::engine::Engine::from_source(src).expect("compiles");
        ResidentEngine::open(engine, config, inputs, dir, opts, None).expect("opens")
    }

    /// The STI and the dynamic adapter (the path disk-backed relations
    /// take) under both storage backends.
    pub(super) fn all_setups() -> Vec<(String, InterpreterConfig)> {
        let modes = [
            ("sti", InterpreterConfig::optimized()),
            ("dynamic", InterpreterConfig::dynamic_adapter()),
        ];
        let mut out = Vec::new();
        for (name, config) in modes {
            for storage in [StorageBackend::Mem, StorageBackend::Disk] {
                out.push((format!("{name}/{storage:?}"), config.with_storage(storage)));
            }
        }
        out
    }

    pub(super) fn mixed_inputs() -> InputData {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        inputs.insert("n".into(), vec![vec![Value::Symbol("ada".into())]]);
        inputs
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::WAL_FILE;
    use crate::prov::ExplainLimits;

    #[test]
    fn resident_engine_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<ResidentEngine>();
    }

    /// The front door's refusals, byte for byte, for every request kind;
    /// a refused write never reaches the WAL.
    #[test]
    fn rejects_bad_requests() {
        fn err<T, E: ToString>(reply: Result<T, E>) -> Result<(), String> {
            reply.map(drop).map_err(|e| e.to_string())
        }
        type Request<'a> = &'a dyn Fn(&mut ResidentEngine) -> Result<(), String>;
        let (one, two) = (&[Value::Number(1)], &pairs(&[(1, 2)]));
        let unknown = "evaluation error: unknown relation `ghost`";
        let not_input = "evaluation error: relation `p` is not declared `.input`";
        let write_arity = "evaluation error: tuple for `e` has 1 values, expected 2";
        let limits = ExplainLimits::default;
        let table: [(&str, Request<'_>, &str); 12] = [
            (
                "+ghost",
                &|r| err(r.insert_facts("ghost", two, None)),
                unknown,
            ),
            ("+p", &|r| err(r.insert_facts("p", two, None)), not_input),
            (
                "+e/1",
                &|r| err(r.insert_facts("e", &[one.to_vec()], None)),
                write_arity,
            ),
            (
                "-ghost",
                &|r| err(r.retract_facts("ghost", two, None)),
                unknown,
            ),
            ("-p", &|r| err(r.retract_facts("p", two, None)), not_input),
            (
                "-e/1",
                &|r| err(r.retract_facts("e", &[one.to_vec()], None)),
                write_arity,
            ),
            ("?ghost", &|r| err(r.query("ghost", &[], None)), unknown),
            (
                "?upd_p",
                &|r| err(r.query("upd_p", &[None, None], None)),
                "evaluation error: relation `upd_p` is internal and cannot be queried",
            ),
            (
                "?p/1",
                &|r| err(r.query("p", &[None], None)),
                "evaluation error: pattern for `p` has 1 terms, expected 2",
            ),
            (
                "explain ghost",
                &|r| err(r.explain("ghost", &[], limits(), None)),
                unknown,
            ),
            (
                "explain upd_p",
                &|r| err(r.explain("upd_p", &two[0], limits(), None)),
                "evaluation error: relation `upd_p` is internal and cannot be explained",
            ),
            (
                "explain p/1",
                &|r| err(r.explain("p", one, limits(), None)),
                "evaluation error: fact for `p` has 1 values, expected 2",
            ),
        ];

        let dir = tmpdir("front-door");
        let config = InterpreterConfig::optimized();
        let (mut r, _) = open_dir(
            TC,
            config,
            &InputData::new(),
            &dir,
            PersistOptions::default(),
        );
        let wal = |r: &ResidentEngine| {
            let s = r.wal_stats().expect("durable");
            let len = std::fs::metadata(dir.join(WAL_FILE))
                .expect("WAL exists")
                .len();
            (s.appends, s.bytes, s.fsyncs, s.append_errors, len)
        };
        for (name, request, expected) in table {
            let before = wal(&r);
            assert_eq!(request(&mut r).expect_err(name), expected, "{name}");
            assert_eq!(
                wal(&r),
                before,
                "{name}: a refused request leaves the WAL alone"
            );
        }
        drop(r);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
