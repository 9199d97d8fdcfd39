//! The RAM program container and relation metadata.

use crate::expr::RamDomain;
use crate::stmt::RamStmt;
use stir_frontend::ast::AttrType;
use stir_frontend::SymbolTable;

/// Dense id of a relation inside a [`RamProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub usize);

impl std::fmt::Display for RelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// How a relation participates in evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A source-program relation.
    Standard,
    /// The `delta_R` of a recursive relation (tuples new in the previous
    /// iteration); the payload is the base relation.
    Delta(RelId),
    /// The `new_R` of a recursive relation (tuples derived in the current
    /// iteration); the payload is the base relation.
    New(RelId),
    /// The `upd_R` of a servable relation: the tuples added to `R` during
    /// the current incremental update cycle (user inserts plus newly
    /// derived tuples), consumed by the update statements of downstream
    /// strata. The payload is the base relation.
    Upd(RelId),
    /// The `cone_R` of a rule head with an `upd_R`: where a retraction
    /// stages `R`'s over-deleted tuples for the stratum's re-derive
    /// statement. The payload is the base relation.
    Cone(RelId),
}

/// The representation chosen for a relation's indexes.
///
/// Mirrors `stir_der::Representation`; duplicated to keep this crate
/// dependency-free of the data-structure crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReprKind {
    /// B-tree indexes.
    BTree,
    /// Brie (trie) indexes.
    Brie,
    /// Union-find equivalence relation (binary only, single index).
    EqRel,
}

/// A lexicographic order, as a permutation of source columns
/// (stored-position → source-column; mirrors `stir_der::Order`).
pub type ColumnOrder = Vec<usize>;

/// Metadata for one relation of a RAM program.
#[derive(Debug, Clone, PartialEq)]
pub struct RamRelation {
    /// The relation's id (its position in [`RamProgram::relations`]).
    pub id: RelId,
    /// Its name (`delta_`/`new_` prefixes for auxiliary relations).
    pub name: String,
    /// Tuple arity.
    pub arity: usize,
    /// Declared attribute types (drives I/O formatting).
    pub attr_types: Vec<AttrType>,
    /// Index representation.
    pub repr: ReprKind,
    /// The lexicographic orders of the relation's indexes
    /// (`orders[0]` is the primary index); filled by index selection.
    pub orders: Vec<ColumnOrder>,
    /// Evaluation role.
    pub role: Role,
    /// Whether facts are supplied externally.
    pub is_input: bool,
    /// Whether the relation is reported as output.
    pub is_output: bool,
}

/// Timings and tallies collected while translating, reported by the
/// telemetry layer as sub-phases of `ram-translate`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslateStats {
    /// Wall time of minimum-chain-cover index selection, in nanoseconds.
    pub index_selection_ns: u64,
    /// Total indexes assigned across all relations.
    pub index_count: usize,
}

/// Stratum-level metadata: which relations a stratum defines and reads,
/// plus its incremental update statement. Together with the 1:1 mapping
/// between strata and the children of the main `Seq`, this gives a
/// resident engine the re-entry points it needs to re-run individual
/// strata after a fact insertion.
#[derive(Debug, Clone)]
pub struct RamStratum {
    /// Relations whose rules live in this stratum.
    pub defines: Vec<RelId>,
    /// Relations of earlier strata read through positive body atoms.
    pub pos_reads: Vec<RelId>,
    /// Relations read under negation or inside aggregate bodies. Growth
    /// of these is non-monotone for this stratum, so an incremental
    /// update must fall back to recomputing the stratum.
    pub neg_agg_reads: Vec<RelId>,
    /// Whether the stratum is a recursive SCC.
    pub recursive: bool,
    /// Insertion-only incremental update statement: assumes the new
    /// tuples of upstream relations are staged in their `upd_` siblings
    /// and re-derives this stratum's consequences without clearing it.
    /// `None` when the stratum cannot be updated incrementally (eqrel
    /// heads) and must be recomputed instead.
    pub update: Option<RamStmt>,
    /// DRed's one-step re-derive check: one variant per rule, which
    /// enumerates the over-deleted tuples staged in the head's `cone_`
    /// relation and projects those the surviving database still derives
    /// into the head's `upd_` relation. `None` when a head has no `upd_`
    /// sibling (eqrel) or a rule draws `$` values, which no check can
    /// reproduce; a retraction then recomputes the stratum.
    pub rederive: Option<RamStmt>,
}

/// A complete translated program.
#[derive(Debug, Clone)]
pub struct RamProgram {
    /// All relations (source + delta/new/upd auxiliaries + aggregate
    /// helpers).
    pub relations: Vec<RamRelation>,
    /// Ground facts from the source text, already encoded as bit patterns.
    pub facts: Vec<(RelId, Vec<RamDomain>)>,
    /// The main statement (a `Seq` with one child per rule-bearing
    /// stratum, in bottom-up order).
    pub main: RamStmt,
    /// Stratum metadata, aligned 1:1 with the children of `main`.
    pub strata: Vec<RamStratum>,
    /// Symbols interned during translation (string constants).
    pub symbols: SymbolTable,
    /// Translation-time statistics (index-selection cost, index counts).
    pub stats: TranslateStats,
    /// Provenance metadata: each source rule re-lowered over the full
    /// base relations, for proof-tree reconstruction. Built once at
    /// translation; ignored entirely unless annotated evaluation is on.
    pub prov: crate::prov::ProvInfo,
}

impl RamProgram {
    /// Metadata for `id`.
    pub fn relation(&self, id: RelId) -> &RamRelation {
        &self.relations[id.0]
    }

    /// Finds a relation by name.
    pub fn relation_by_name(&self, name: &str) -> Option<&RamRelation> {
        self.relations.iter().find(|r| r.name == name)
    }

    /// Ids of `.input` relations.
    pub fn inputs(&self) -> impl Iterator<Item = &RamRelation> {
        self.relations.iter().filter(|r| r.is_input)
    }

    /// Ids of `.output` relations.
    pub fn outputs(&self) -> impl Iterator<Item = &RamRelation> {
        self.relations.iter().filter(|r| r.is_output)
    }

    /// The `delta_R` auxiliaries of recursive relations — the semi-naive
    /// frontier sampled per fixpoint iteration by the profiler.
    pub fn deltas(&self) -> impl Iterator<Item = &RamRelation> {
        self.relations
            .iter()
            .filter(|r| matches!(r.role, Role::Delta(_)))
    }

    /// The name of a relation.
    pub fn name_of(&self, id: RelId) -> &str {
        &self.relations[id.0].name
    }

    /// The `upd_R` sibling of `id`, if one was created (servable
    /// non-eqrel relations).
    pub fn upd_of(&self, id: RelId) -> Option<RelId> {
        self.relations
            .iter()
            .find(|r| r.role == Role::Upd(id))
            .map(|r| r.id)
    }

    /// The `cone_R` staging relation of `id`, if one was created (rule
    /// heads with an `upd_` sibling).
    pub fn cone_of(&self, id: RelId) -> Option<RelId> {
        self.relations
            .iter()
            .find(|r| r.role == Role::Cone(id))
            .map(|r| r.id)
    }

    /// Every statement index selection and the optimizer see: `main`,
    /// then each stratum's update and re-derive statements.
    pub fn stmts(&self) -> impl Iterator<Item = &RamStmt> {
        let strata = self.strata.iter();
        std::iter::once(&self.main)
            .chain(strata.flat_map(|s| s.update.iter().chain(s.rederive.iter())))
    }

    /// [`Self::stmts`], mutably.
    pub fn stmts_mut(&mut self) -> impl Iterator<Item = &mut RamStmt> {
        let strata = self.strata.iter_mut();
        std::iter::once(&mut self.main)
            .chain(strata.flat_map(|s| s.update.iter_mut().chain(s.rederive.iter_mut())))
    }

    /// The main-`Seq` child implementing stratum `i` (its full
    /// recomputation statement).
    ///
    /// # Panics
    ///
    /// Panics if `main` is not a `Seq` or `i` is out of range.
    pub fn stratum_stmt(&self, i: usize) -> &RamStmt {
        let RamStmt::Seq(children) = &self.main else {
            panic!("main is always a Seq");
        };
        &children[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_id_displays_compactly() {
        assert_eq!(RelId(7).to_string(), "r7");
    }

    #[test]
    fn roles_carry_base_relation() {
        let d = Role::Delta(RelId(3));
        assert!(matches!(d, Role::Delta(RelId(3))));
    }
}
