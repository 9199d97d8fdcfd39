//! The runtime database: one [`Relation`] per RAM relation.
//!
//! Relations sit behind `RwLock`s because a query reads some relations
//! while inserting into another. The RAM translation guarantees that the
//! projection target of a query is never scanned or probed by the same
//! query (semi-naive evaluation separates `R`, `delta_R`, and `new_R`), so
//! batch evaluation never contends on a lock; the locks are a safety net
//! there, not a semantic device. The serving subsystem is what actually
//! exercises them: a resident engine shares one `Database` between
//! concurrent query readers while updates hold an exclusive engine-level
//! lock, so `Database` (unlike the old `RefCell`-based version) is `Sync`.

use crate::config::{InterpreterConfig, StorageBackend};
use crate::error::EvalError;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::atomic::AtomicU32;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use stir_der::dynindex::DynBTreeIndex;
use stir_der::factory::{IndexSpec, Representation};
use stir_der::order::Order;
use stir_der::relation::Relation;
use stir_der::{IndexAdapter, RamDomain};
use stir_frontend::SymbolTable;
use stir_ram::program::{RamProgram, RamRelation, RelId, ReprKind, Role};

/// How relations are represented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataMode {
    /// De-specialized DER structures from the factory (the STI's mode).
    Specialized,
    /// Fully dynamic B-trees with runtime comparators (the legacy
    /// interpreter's mode, §5.1).
    LegacyDynamic,
}

impl DataMode {
    /// The representation `config` selects.
    pub fn of(config: &InterpreterConfig) -> DataMode {
        if config.legacy_data {
            DataMode::LegacyDynamic
        } else {
            DataMode::Specialized
        }
    }
}

/// External input facts: relation name → tuples of typed values.
pub type InputData = HashMap<String, Vec<Vec<Value>>>;

/// Unwraps a poisoned lock: relation and symbol state stays usable after
/// a panicking request thread (the panic cannot leave a half-inserted
/// tuple behind — `Relation::insert` completes per index before
/// returning).
fn unpoison<G>(r: Result<G, std::sync::PoisonError<G>>) -> G {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The rule-id annotation of input tuples and source-text facts (no rule
/// fired; the tuple is an axiom). Re-exported from the RAM layer's
/// provenance module.
pub const RULE_INPUT: u32 = stir_ram::prov::RULE_INPUT;

/// Inserts an axiom — a source-text fact, an input or a served insert —
/// annotated `(0, RULE_INPUT)` under provenance. Returns whether it was
/// new.
pub(crate) fn admit(rel: &mut Relation, tuple: &[RamDomain], provenance: bool) -> bool {
    let fresh = rel.insert(tuple);
    if fresh && provenance {
        rel.record_annotation(tuple, 0, RULE_INPUT);
    }
    fresh
}

/// Whether a relation is *eligible* for disk-backed storage. Auxiliary
/// relations (`delta_`/`new_`/`upd_`) are working sets of a single
/// fixpoint — small, cleared constantly, never snapshotted — so they stay
/// in memory. Equivalence relations are semantic (the union-find closes
/// pairs); serving them off a materialized run would silently drop that
/// behavior. Nullary relations are a single presence bit. Everything else
/// — every standard B-tree or Brie relation — can live on disk, where
/// [`index_repr`] gives it [`Representation::Disk`].
pub fn disk_backed(rel: &RamRelation) -> bool {
    rel.role == Role::Standard && rel.repr != ReprKind::EqRel && rel.arity > 0
}

/// The representation of every index of `rel` in a database of `mode` on
/// `storage`: what [`Database::new_with_storage`] builds, and so what the
/// interpreter's statically dispatched handlers downcast to. `None` is the
/// legacy layer's dynamic B-tree, which has no static form. The legacy
/// layer stays in memory on either backend, and keeps eqrel: that
/// representation is semantic (it closes pairs).
pub fn index_repr(
    rel: &RamRelation,
    mode: DataMode,
    storage: StorageBackend,
) -> Option<Representation> {
    match (rel.repr, mode) {
        (ReprKind::EqRel, _) => Some(Representation::EqRel),
        (_, DataMode::LegacyDynamic) => None,
        _ if storage == StorageBackend::Disk && disk_backed(rel) => Some(Representation::Disk),
        (ReprKind::BTree, _) => Some(Representation::BTree),
        (ReprKind::Brie, _) => Some(Representation::Brie),
    }
}

/// The relations, symbol table, and counter of one evaluation.
#[derive(Debug)]
pub struct Database {
    relations: Vec<RwLock<Relation>>,
    /// [`index_repr`] of each relation, as built.
    reprs: Vec<Option<Representation>>,
    /// The symbol table grows at runtime (`cat`, `to_string`).
    pub symbols: RwLock<SymbolTable>,
    /// The `$` auto-increment counter.
    pub counter: AtomicU32,
    /// Derivation-height clock for annotated evaluation: bumped once per
    /// executed RAM query, so every tuple a query derives is annotated
    /// with a height strictly greater than all of its premises'
    /// (semi-naive evaluation never scans a query's own projection
    /// target). `0` is reserved for input facts. Stays at `0` when
    /// provenance is off.
    pub epoch: AtomicU32,
    provenance: bool,
}

impl Database {
    /// Builds the database for a RAM program: creates every relation with
    /// the orders chosen by index selection and loads the source-text
    /// facts. Equivalent to [`Database::new_with`] without provenance.
    pub fn new(ram: &RamProgram, mode: DataMode) -> Database {
        Self::new_with(ram, mode, false)
    }

    /// Builds the database, optionally with annotation stores enabled on
    /// every relation (annotated evaluation). Source-text facts are
    /// annotated `(0, RULE_INPUT)`.
    pub fn new_with(ram: &RamProgram, mode: DataMode, provenance: bool) -> Database {
        Self::new_with_storage(ram, mode, provenance, StorageBackend::Mem)
    }

    /// Builds the database on the selected storage backend: every index
    /// of a relation gets the representation [`index_repr`] decides —
    /// under [`StorageBackend::Disk`], [`Representation::Disk`] for the
    /// [`disk_backed`] relations of a [`DataMode::Specialized`] database
    /// (initially overlay-only; the resident engine attaches snapshot
    /// base runs on cold start). Everything else is identical to
    /// [`Database::new_with`].
    pub fn new_with_storage(
        ram: &RamProgram,
        mode: DataMode,
        provenance: bool,
        storage: StorageBackend,
    ) -> Database {
        let reprs: Vec<_> = (ram.relations.iter())
            .map(|r| index_repr(r, mode, storage))
            .collect();
        let relations = ram
            .relations
            .iter()
            .zip(&reprs)
            .map(|(r, repr)| {
                let orders = r.orders.iter().map(|o| Order::new(o.clone()));
                let mut rel = match repr {
                    _ if r.arity == 0 => Relation::new(r.name.clone(), 0, vec![]),
                    Some(repr) => {
                        let specs = orders.map(|o| IndexSpec::new(*repr, o)).collect();
                        Relation::new(r.name.clone(), r.arity, specs)
                    }
                    None => {
                        let indexes = orders
                            .map(|o| Box::new(DynBTreeIndex::new(o)) as Box<dyn IndexAdapter>)
                            .collect();
                        Relation::from_adapters(r.name.clone(), r.arity, indexes)
                    }
                };
                if provenance {
                    rel.enable_annotations();
                }
                RwLock::new(rel)
            })
            .collect();
        let db = Database {
            relations,
            reprs,
            symbols: RwLock::new(ram.symbols.clone()),
            counter: AtomicU32::new(0),
            epoch: AtomicU32::new(0),
            provenance,
        };
        for (rel, tuple) in &ram.facts {
            admit(&mut db.wr(*rel), tuple, provenance);
        }
        db
    }

    /// Whether annotated evaluation is enabled.
    pub fn provenance(&self) -> bool {
        self.provenance
    }

    /// The representation of relation `id`'s indexes ([`index_repr`]).
    pub fn repr(&self, id: RelId) -> Option<Representation> {
        self.reprs[id.0]
    }

    /// The relation lock for `id`.
    pub fn relation(&self, id: RelId) -> &RwLock<Relation> {
        &self.relations[id.0]
    }

    /// Shared (read) access to relation `id`.
    pub fn rd(&self, id: RelId) -> RwLockReadGuard<'_, Relation> {
        unpoison(self.relations[id.0].read())
    }

    /// Shared access to every relation at once, indexed by relation id:
    /// the frozen view a parallel fan-out hands its workers. The caller
    /// drops the guards before anything takes [`wr`](Self::wr).
    pub fn freeze(&self) -> Vec<RwLockReadGuard<'_, Relation>> {
        self.relations.iter().map(|r| unpoison(r.read())).collect()
    }

    /// Exclusive (write) access to relation `id`.
    pub fn wr(&self, id: RelId) -> RwLockWriteGuard<'_, Relation> {
        unpoison(self.relations[id.0].write())
    }

    /// Shared access to the symbol table.
    pub fn symbols_rd(&self) -> RwLockReadGuard<'_, SymbolTable> {
        unpoison(self.symbols.read())
    }

    /// Exclusive access to the symbol table.
    pub fn symbols_wr(&self) -> RwLockWriteGuard<'_, SymbolTable> {
        unpoison(self.symbols.write())
    }

    /// Loads external facts into the `.input` relations.
    ///
    /// # Errors
    ///
    /// Rejects unknown relation names, non-input relations, and tuples of
    /// the wrong arity.
    pub fn load_inputs(&self, ram: &RamProgram, inputs: &InputData) -> Result<(), EvalError> {
        for (name, tuples) in inputs {
            let Some(rel) = ram.relation_by_name(name) else {
                return Err(EvalError::new(format!(
                    "input data for undeclared relation `{name}`"
                )));
            };
            if !rel.is_input {
                return Err(EvalError::new(format!(
                    "relation `{name}` is not declared `.input`"
                )));
            }
            let mut target = self.wr(rel.id);
            let mut symbols = self.symbols_wr();
            let mut encoded = Vec::with_capacity(rel.arity);
            for tuple in tuples {
                if tuple.len() != rel.arity {
                    return Err(EvalError::new(format!(
                        "input tuple for `{name}` has {} values, expected {}",
                        tuple.len(),
                        rel.arity
                    )));
                }
                encoded.clear();
                for v in tuple {
                    encoded.push(v.encode(&mut symbols));
                }
                admit(&mut target, &encoded, self.provenance);
            }
        }
        Ok(())
    }

    /// Extracts a relation's tuples as typed values, sorted.
    pub fn extract(&self, ram: &RamProgram, id: RelId) -> Vec<Vec<Value>> {
        let meta = ram.relation(id);
        let rel = self.rd(id);
        let symbols = self.symbols_rd();
        rel.to_sorted_tuples()
            .into_iter()
            .map(|t| {
                t.iter()
                    .zip(&meta.attr_types)
                    .map(|(&bits, &ty)| Value::decode(bits, ty, &symbols))
                    .collect()
            })
            .collect()
    }

    /// Extracts every `.output` relation, keyed by name.
    pub fn extract_outputs(&self, ram: &RamProgram) -> HashMap<String, Vec<Vec<Value>>> {
        ram.outputs()
            .map(|r| (r.name.clone(), self.extract(ram, r.id)))
            .collect()
    }

    /// Samples the structure of every relation into a metrics registry:
    /// `relation.<name>.tuples` plus, per index `k`,
    /// `relation.<name>.index.<k>.{tuples,nodes,bytes}`, and the
    /// database-wide totals `db.relations`, `db.tuples`, `db.indexes`,
    /// and `db.bytes`. A no-op when the registry is disabled.
    pub fn sample_metrics(&self, ram: &RamProgram, metrics: &crate::telemetry::MetricsRegistry) {
        if !metrics.enabled() {
            return;
        }
        let (mut tuples, mut indexes, mut bytes) = (0u64, 0u64, 0u64);
        for meta in &ram.relations {
            let rel = self.rd(meta.id);
            let len = rel.len() as u64;
            tuples += len;
            metrics.set(&format!("relation.{}.tuples", meta.name), len);
            for (k, stats) in rel.index_stats().iter().enumerate() {
                indexes += 1;
                bytes += stats.bytes as u64;
                let prefix = format!("relation.{}.index.{k}", meta.name);
                metrics.set(&format!("{prefix}.tuples"), stats.tuples as u64);
                metrics.set(&format!("{prefix}.nodes"), stats.nodes as u64);
                metrics.set(&format!("{prefix}.bytes"), stats.bytes as u64);
            }
        }
        metrics.set("db.relations", ram.relations.len() as u64);
        metrics.set("db.tuples", tuples);
        metrics.set("db.indexes", indexes);
        metrics.set("db.bytes", bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stir_frontend::parse_and_check;
    use stir_ram::translate::translate;

    fn ram(src: &str) -> RamProgram {
        translate(&parse_and_check(src).expect("checks")).expect("translates")
    }

    #[test]
    fn builds_relations_and_loads_facts() {
        let ram = ram(
            ".decl e(x: number, y: number)\n.decl p(x: number, y: number)\n\
             e(1, 2). e(2, 3).\np(x, y) :- e(x, y).",
        );
        let db = Database::new(&ram, DataMode::Specialized);
        let e = ram.relation_by_name("e").unwrap().id;
        assert_eq!(db.rd(e).len(), 2);
        assert!(db.rd(e).contains(&[1, 2]));
    }

    #[test]
    fn database_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Database>();
    }

    #[test]
    fn legacy_mode_uses_dynamic_indexes() {
        let ram = ram(".decl e(x: number, y: number)\ne(5, 6).");
        let db = Database::new(&ram, DataMode::LegacyDynamic);
        let e = ram.relation_by_name("e").unwrap().id;
        let rel = db.rd(e);
        assert!(rel
            .index(0)
            .as_any()
            .downcast_ref::<DynBTreeIndex>()
            .is_some());
        assert!(rel.contains(&[5, 6]));
    }

    #[test]
    fn disk_storage_installs_disk_indexes_for_standard_relations_only() {
        let ram = ram(
            ".decl e(x: number, y: number)\n.decl p(x: number, y: number)\n\
             e(1, 2). e(2, 3).\np(x, y) :- e(x, y), e(y, _).\np(x, y) :- p(x, z), e(z, y).",
        );
        for mode in [DataMode::Specialized, DataMode::LegacyDynamic] {
            let db = Database::new_with_storage(&ram, mode, false, StorageBackend::Disk);
            for meta in &ram.relations {
                if meta.arity == 0 {
                    continue;
                }
                let rel = db.rd(meta.id);
                let disk = (rel.index(0).as_any())
                    .downcast_ref::<stir_der::disk::DiskIndex<2>>()
                    .is_some();
                assert_eq!(disk, db.repr(meta.id) == Some(Representation::Disk));
                // The legacy layer never meets a disk index.
                assert_eq!(
                    disk,
                    mode == DataMode::Specialized && disk_backed(meta),
                    "{mode:?}: {} ({:?}) backend mismatch",
                    meta.name,
                    meta.role
                );
            }
            // Facts loaded through the normal path land in the overlay.
            let e = ram.relation_by_name("e").unwrap().id;
            assert!(db.rd(e).contains(&[1, 2]));
            assert_eq!(db.rd(e).len(), 2);
        }
    }

    #[test]
    fn input_loading_checks_shape() {
        let ram = ram(".decl e(x: number, s: symbol)\n.input e\n.decl q(x: number)\nq(1).");
        let db = Database::new(&ram, DataMode::Specialized);

        let mut good = InputData::new();
        good.insert(
            "e".into(),
            vec![vec![Value::Number(1), Value::Symbol("a".into())]],
        );
        db.load_inputs(&ram, &good).expect("loads");
        let e = ram.relation_by_name("e").unwrap().id;
        assert_eq!(db.rd(e).len(), 1);

        let mut wrong_arity = InputData::new();
        wrong_arity.insert("e".into(), vec![vec![Value::Number(1)]]);
        assert!(db.load_inputs(&ram, &wrong_arity).is_err());

        let mut not_input = InputData::new();
        not_input.insert("q".into(), vec![vec![Value::Number(1)]]);
        assert!(db.load_inputs(&ram, &not_input).is_err());

        let mut unknown = InputData::new();
        unknown.insert("ghost".into(), vec![]);
        assert!(db.load_inputs(&ram, &unknown).is_err());
    }

    #[test]
    fn extract_decodes_types() {
        let ram = ram(".decl m(a: number, s: symbol)\n.output m\nm(-4, \"x\").");
        let db = Database::new(&ram, DataMode::Specialized);
        let out = db.extract_outputs(&ram);
        assert_eq!(
            out["m"],
            vec![vec![Value::Number(-4), Value::Symbol("x".into())]]
        );
    }
}
