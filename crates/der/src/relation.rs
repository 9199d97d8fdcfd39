//! A relation: a named tuple set maintained under one or more indexes.
//!
//! Index selection at the RAM level assigns each relation a set of
//! [`IndexSpec`]s — one *primary* index (position 0) plus one secondary
//! index per additional lexicographic order required by the program's
//! primitive searches. Every insert goes to all indexes; queries pick the
//! index whose order matches their search columns.
//!
//! Nullary relations (arity 0) — Datalog predicates with no arguments —
//! are represented directly by a presence flag, as in Soufflé.

use crate::adapter::{IndexAdapter, IndexStats};
use crate::dynindex::DynBTreeIndex;
use crate::factory::{new_index, IndexSpec};
use crate::iter::{DecodingIter, TupleIter, VecTupleIter};
use crate::order::Order;
use crate::tuple::RamDomain;

/// A named, indexed set of tuples.
///
/// # Example
///
/// ```
/// use stir_der::relation::Relation;
/// use stir_der::factory::IndexSpec;
///
/// let mut edge = Relation::new("edge", 2, vec![IndexSpec::btree_natural(2)]);
/// edge.insert(&[1, 2]);
/// edge.insert(&[2, 3]);
/// assert_eq!(edge.len(), 2);
/// assert!(edge.contains(&[1, 2]));
/// ```
#[derive(Debug)]
pub struct Relation {
    name: String,
    arity: usize,
    indexes: Vec<Box<dyn IndexAdapter>>,
    /// Presence flag for nullary relations (`arity == 0`).
    nullary_present: bool,
    /// Provenance annotations, when enabled: widened tuples
    /// `(t..., height, rule)` — the two de-specialized annotation columns —
    /// held in one extra natural-order index that is excluded from the
    /// queryable index set, so it never participates in logical
    /// ordering/dedup/set-semantics. The natural lexicographic order makes
    /// a prefix lookup on `t` yield the *minimum-height* row first.
    annotations: Option<Box<DynBTreeIndex>>,
}

impl Relation {
    /// Creates a relation with the given index specs; `specs[0]` is the
    /// primary index.
    ///
    /// # Panics
    ///
    /// Panics if a positive-arity relation has no index, if any spec's
    /// arity disagrees with `arity`, or if a nullary relation is given
    /// indexes.
    pub fn new(name: impl Into<String>, arity: usize, specs: Vec<IndexSpec>) -> Self {
        if arity == 0 {
            assert!(specs.is_empty(), "nullary relations take no indexes");
            return Relation {
                name: name.into(),
                arity,
                indexes: Vec::new(),
                nullary_present: false,
                annotations: None,
            };
        }
        assert!(!specs.is_empty(), "relations need at least a primary index");
        for s in &specs {
            assert_eq!(s.arity(), arity, "index spec arity mismatch");
        }
        Relation {
            name: name.into(),
            arity,
            indexes: specs.iter().map(new_index).collect(),
            nullary_present: false,
            annotations: None,
        }
    }

    /// Creates a relation from pre-built indexes (used by the legacy
    /// interpreter, whose indexes are fully dynamic
    /// [`crate::dynindex::DynBTreeIndex`]es rather than factory products).
    ///
    /// # Panics
    ///
    /// Panics if any index disagrees with `arity`, or if indexes are given
    /// for a nullary relation.
    pub fn from_adapters(
        name: impl Into<String>,
        arity: usize,
        indexes: Vec<Box<dyn IndexAdapter>>,
    ) -> Self {
        if arity == 0 {
            assert!(indexes.is_empty(), "nullary relations take no indexes");
        } else {
            assert!(
                !indexes.is_empty(),
                "relations need at least a primary index"
            );
            for idx in &indexes {
                assert_eq!(idx.arity(), arity, "index arity mismatch");
            }
        }
        Relation {
            name: name.into(),
            arity,
            indexes,
            nullary_present: false,
            annotations: None,
        }
    }

    /// Turns on annotation tracking: every tuple may carry a
    /// `(height, rule)` annotation pair recorded by the evaluator. Off by
    /// default; the store costs nothing until enabled.
    pub fn enable_annotations(&mut self) {
        if self.annotations.is_none() {
            self.annotations = Some(Box::new(DynBTreeIndex::new(Order::natural(self.arity + 2))));
        }
    }

    /// Whether annotation tracking is enabled.
    pub fn annotations_enabled(&self) -> bool {
        self.annotations.is_some()
    }

    /// Records the `(height, rule)` annotation of a source-order tuple.
    /// Callers record on *fresh* logical inserts only, which makes the
    /// first (minimum-height) derivation win; even on a duplicate record,
    /// lookups return the minimum-height row because the widened tuples
    /// sort by `(t..., height, rule)`. A no-op when annotations are off.
    pub fn record_annotation(&mut self, t: &[RamDomain], height: RamDomain, rule: RamDomain) {
        debug_assert_eq!(t.len(), self.arity, "annotation arity mismatch");
        if let Some(store) = &mut self.annotations {
            let mut widened = Vec::with_capacity(t.len() + 2);
            widened.extend_from_slice(t);
            widened.push(height);
            widened.push(rule);
            store.insert(&widened);
        }
    }

    /// Looks up the minimum-height `(height, rule)` annotation of a
    /// source-order tuple, if one was recorded.
    pub fn annotation(&self, t: &[RamDomain]) -> Option<(RamDomain, RamDomain)> {
        debug_assert_eq!(t.len(), self.arity, "annotation arity mismatch");
        let store = self.annotations.as_ref()?;
        let mut lo = Vec::with_capacity(t.len() + 2);
        lo.extend_from_slice(t);
        lo.push(0);
        lo.push(0);
        let mut hi = Vec::with_capacity(t.len() + 2);
        hi.extend_from_slice(t);
        hi.push(RamDomain::MAX);
        hi.push(RamDomain::MAX);
        let mut it = store.range(&lo, &hi);
        it.next_tuple().map(|w| (w[self.arity], w[self.arity + 1]))
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tuple arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of indexes maintained.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// The `k`-th index (0 is primary).
    ///
    /// Not `std::ops::Index`: the call sites spell `.index(k)` without
    /// importing the trait, and the return type is unsized.
    #[allow(clippy::should_implement_trait)]
    pub fn index(&self, k: usize) -> &dyn IndexAdapter {
        &*self.indexes[k]
    }

    /// Mutable access to the `k`-th index.
    #[allow(clippy::should_implement_trait)]
    pub fn index_mut(&mut self, k: usize) -> &mut dyn IndexAdapter {
        &mut *self.indexes[k]
    }

    /// Structural statistics for every index, in index order (empty for
    /// nullary relations, which keep no indexes).
    pub fn index_stats(&self) -> Vec<IndexStats> {
        self.indexes.iter().map(|i| i.stats()).collect()
    }

    /// Number of tuples (primary index size).
    pub fn len(&self) -> usize {
        if self.arity == 0 {
            return usize::from(self.nullary_present);
        }
        self.indexes[0].len()
    }

    /// Whether the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all tuples from all indexes (and their annotations).
    pub fn clear(&mut self) {
        self.nullary_present = false;
        for idx in &mut self.indexes {
            idx.clear();
        }
        if let Some(store) = &mut self.annotations {
            store.clear();
        }
    }

    /// Inserts a source-order tuple into every index; `true` if new.
    pub fn insert(&mut self, t: &[RamDomain]) -> bool {
        debug_assert_eq!(t.len(), self.arity, "tuple arity mismatch");
        if self.arity == 0 {
            let fresh = !self.nullary_present;
            self.nullary_present = true;
            return fresh;
        }
        let (primary, rest) = self.indexes.split_first_mut().expect("has primary");
        if !primary.insert(t) {
            return false;
        }
        for idx in rest {
            idx.insert(t);
        }
        true
    }

    /// Removes a source-order tuple from every index, along with all of
    /// its annotation rows; `true` if it was present.
    ///
    /// The primary index decides presence, exactly mirroring
    /// [`Relation::insert`]. An eqrel-backed relation erases only what
    /// the closure of the survivors does not re-derive (see the eqrel
    /// set's `remove`); callers needing generator-accurate eqrel deletion
    /// rebuild from surviving inputs.
    pub fn erase(&mut self, t: &[RamDomain]) -> bool {
        debug_assert_eq!(t.len(), self.arity, "tuple arity mismatch");
        if self.arity == 0 {
            let was_present = self.nullary_present;
            self.nullary_present = false;
            if was_present {
                if let Some(store) = &mut self.annotations {
                    store.clear();
                }
            }
            return was_present;
        }
        let (primary, rest) = self.indexes.split_first_mut().expect("has primary");
        if !primary.erase(t) {
            return false;
        }
        for idx in rest {
            idx.erase(t);
        }
        if let Some(store) = &mut self.annotations {
            // The annotation store is natural-order over (t..., h, r), so
            // a prefix erase on t drops every recorded derivation.
            store.erase_prefix(t);
        }
        true
    }

    /// Membership test via the primary index.
    pub fn contains(&self, t: &[RamDomain]) -> bool {
        debug_assert_eq!(t.len(), self.arity);
        if self.arity == 0 {
            return self.nullary_present;
        }
        self.indexes[0].contains(t)
    }

    /// Scans all tuples in *source* order (decoding the primary index's
    /// order if it is not natural).
    pub fn scan_source(&self) -> Box<dyn TupleIter + '_> {
        if self.arity == 0 {
            // A nullary relation contributes zero or one empty tuple; model
            // it as an empty buffer of arity 1 rows (callers special-case
            // nullaries before scanning).
            return Box::new(VecTupleIter::new(Vec::new(), 1));
        }
        let primary = &self.indexes[0];
        let scan = primary.scan();
        if primary.order().is_natural() || primary.stores_source_order() {
            scan
        } else {
            Box::new(DecodingIter::new(scan, primary.order().clone()))
        }
    }

    /// The tuples matching a partially bound pattern, in *source* order:
    /// `bound[c] = Some(v)` pins source column `c` to `v`, `None` leaves
    /// it free. The one bound-column lookup of the system: the index whose
    /// order starts with the longest run of bound columns turns those
    /// bindings into range bounds (first such index on ties, a full scan
    /// of the primary when none starts with a bound column); anything not
    /// covered is post-filtered. Tuples come back in the chosen index's
    /// order, so callers whose result must not depend on which index
    /// answered sort them. Nullary relations yield nothing (as with
    /// [`Relation::scan_source`], callers special-case them).
    pub fn select<'a>(&'a self, bound: &'a [Option<RamDomain>]) -> Select<'a> {
        debug_assert_eq!(bound.len(), self.arity, "pattern arity mismatch");
        if self.arity == 0 {
            return Select {
                it: self.scan_source(),
                decode: None,
                bound,
                src: Vec::new(),
            };
        }
        let (mut best, mut prefix) = (0, 0);
        for (k, idx) in self.indexes.iter().enumerate() {
            let cols = idx.order().columns();
            let m = cols.iter().take_while(|&&c| bound[c].is_some()).count();
            if m > prefix {
                (best, prefix) = (k, m);
            }
        }
        let idx = &self.indexes[best];
        let order = idx.order();
        // The comparator-based legacy index keeps tuples un-permuted: its
        // range bounds and yielded tuples are in source layout, so bound
        // values land at their source positions and nothing is decoded.
        let unpermuted = idx.stores_source_order();
        let it: Box<dyn TupleIter + 'a> = if prefix == 0 {
            idx.scan()
        } else {
            let mut lo = vec![RamDomain::MIN; self.arity];
            let mut hi = vec![RamDomain::MAX; self.arity];
            for (pos, &c) in order.columns().iter().enumerate().take(prefix) {
                let at = if unpermuted { c } else { pos };
                lo[at] = bound[c].expect("prefix columns are bound");
                hi[at] = lo[at];
            }
            idx.range(&lo, &hi)
        };
        Select {
            it,
            decode: (!unpermuted && !order.is_natural()).then_some(order),
            bound,
            src: vec![0; self.arity],
        }
    }

    /// Moves all tuples of `other` into `self` (the RAM `MERGE`).
    ///
    /// # Panics
    ///
    /// Panics if arities differ.
    pub fn merge_from(&mut self, other: &Relation) {
        assert_eq!(self.arity, other.arity, "merge arity mismatch");
        let copy_annotations = self.annotations.is_some() && other.annotations.is_some();
        if self.arity == 0 {
            let fresh = !self.nullary_present && other.nullary_present;
            self.nullary_present |= other.nullary_present;
            if fresh && copy_annotations {
                if let Some((h, r)) = other.annotation(&[]) {
                    self.record_annotation(&[], h, r);
                }
            }
            return;
        }
        let mut moved: Vec<Vec<RamDomain>> = Vec::new();
        let mut it = other.scan_source();
        while let Some(t) = it.next_tuple() {
            if self.insert(t) && copy_annotations {
                moved.push(t.to_vec());
            }
        }
        // Annotations follow freshly merged tuples, preserving their
        // original derivation heights (the keep-first/min-height rule).
        for t in moved {
            if let Some((h, r)) = other.annotation(&t) {
                self.record_annotation(&t, h, r);
            }
        }
    }

    /// Swaps the *contents* of two relations (the RAM `SWAP`), leaving
    /// names in place.
    ///
    /// # Panics
    ///
    /// Panics if the relations have different arities or index layouts.
    pub fn swap_data(&mut self, other: &mut Relation) {
        assert_eq!(self.arity, other.arity, "swap arity mismatch");
        assert_eq!(
            self.indexes.len(),
            other.indexes.len(),
            "swap index layout mismatch"
        );
        std::mem::swap(&mut self.indexes, &mut other.indexes);
        std::mem::swap(&mut self.nullary_present, &mut other.nullary_present);
        std::mem::swap(&mut self.annotations, &mut other.annotations);
    }

    /// Collects all tuples, in source order, as owned vectors (IO/tests).
    pub fn to_sorted_tuples(&self) -> Vec<Vec<RamDomain>> {
        if self.arity == 0 {
            return if self.nullary_present {
                vec![Vec::new()]
            } else {
                Vec::new()
            };
        }
        let mut out = self.scan_source().collect_tuples();
        out.sort();
        out
    }
}

/// The cursor [`Relation::select`] returns. As a [`TupleIter`] it yields
/// the matching source-order tuples; [`Select::advance`] exposes the
/// underlying one-stored-tuple step to callers that meter the scan itself
/// (a deadline poll must also fire across long runs of non-matches).
pub struct Select<'a> {
    it: Box<dyn TupleIter + 'a>,
    /// Permutes stored tuples back to source order; `None` when the index
    /// already yields source layout.
    decode: Option<&'a Order>,
    bound: &'a [Option<RamDomain>],
    src: Vec<RamDomain>,
}

impl std::fmt::Debug for Select<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Select")
            .field("bound", &self.bound)
            .finish()
    }
}

impl Select<'_> {
    /// Steps over one stored tuple: `None` at the end, otherwise whether
    /// it satisfies every bound column (read it with [`Select::current`]).
    #[inline]
    pub fn advance(&mut self) -> Option<bool> {
        let stored = self.it.next_tuple()?;
        match self.decode {
            Some(order) => order.decode(stored, &mut self.src),
            None => self.src.copy_from_slice(stored),
        }
        let hit = |(b, v): (&Option<RamDomain>, &RamDomain)| b.is_none_or(|bits| bits == *v);
        Some(self.bound.iter().zip(&self.src).all(hit))
    }

    /// The source-order tuple [`Select::advance`] last stepped over.
    #[inline]
    pub fn current(&self) -> &[RamDomain] {
        &self.src
    }
}

impl TupleIter for Select<'_> {
    fn arity(&self) -> usize {
        self.src.len()
    }

    fn next_tuple(&mut self) -> Option<&[RamDomain]> {
        while !self.advance()? {}
        Some(&self.src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::Representation;
    use crate::order::Order;

    fn two_index_relation() -> Relation {
        Relation::new(
            "edge",
            2,
            vec![
                IndexSpec::btree_natural(2),
                IndexSpec::new(Representation::BTree, Order::new(vec![1, 0])),
            ],
        )
    }

    #[test]
    fn insert_reaches_all_indexes() {
        let mut rel = two_index_relation();
        assert!(rel.insert(&[1, 9]));
        assert!(rel.insert(&[2, 8]));
        assert!(!rel.insert(&[1, 9]));
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.index(0).len(), 2);
        assert_eq!(rel.index(1).len(), 2);
        // The secondary is sorted by column 1 first.
        let sec = rel.index(1).scan().collect_tuples();
        assert_eq!(sec, vec![vec![8, 2], vec![9, 1]]);
    }

    #[test]
    fn scan_source_decodes_secondary_orders() {
        let mut rel = Relation::new(
            "r",
            2,
            vec![IndexSpec::new(
                Representation::BTree,
                Order::new(vec![1, 0]),
            )],
        );
        rel.insert(&[1, 9]);
        rel.insert(&[2, 8]);
        let all = rel.scan_source().collect_tuples();
        assert_eq!(all, vec![vec![2, 8], vec![1, 9]]); // sorted by col 1
    }

    #[test]
    fn scan_source_trusts_source_order_adapters() {
        use crate::dynindex::DynBTreeIndex;
        // A comparator-based (legacy) primary with a non-natural order
        // keeps tuples un-permuted, so scan_source must NOT decode them.
        let indexes: Vec<Box<dyn IndexAdapter>> =
            vec![Box::new(DynBTreeIndex::new(Order::new(vec![1, 0])))];
        let mut rel = Relation::from_adapters("r", 2, indexes);
        rel.insert(&[1, 9]);
        rel.insert(&[2, 8]);
        assert_eq!(
            rel.scan_source().collect_tuples(),
            vec![vec![2, 8], vec![1, 9]] // comparator order, source layout
        );
        assert_eq!(rel.to_sorted_tuples(), vec![vec![1, 9], vec![2, 8]]);

        let mut dst = Relation::from_adapters(
            "dst",
            2,
            vec![Box::new(DynBTreeIndex::new(Order::new(vec![1, 0]))) as Box<dyn IndexAdapter>],
        );
        dst.merge_from(&rel);
        assert!(dst.contains(&[1, 9]) && dst.contains(&[2, 8]));
    }

    #[test]
    fn select_picks_the_longest_bound_prefix_and_post_filters() {
        use crate::dynindex::DynBTreeIndex;
        let legacy: Vec<Box<dyn IndexAdapter>> = vec![
            Box::new(DynBTreeIndex::new(Order::natural(2))),
            Box::new(DynBTreeIndex::new(Order::new(vec![1, 0]))),
        ];
        let mut eq = Relation::new(
            "eq",
            2,
            vec![IndexSpec::new(Representation::EqRel, Order::natural(2))],
        );
        eq.insert(&[1, 2]);
        for mut rel in [
            two_index_relation(),
            heterogeneous_relation(),
            Relation::from_adapters("legacy", 2, legacy),
        ] {
            for t in [[1, 9], [2, 8], [2, 9], [3, 7]] {
                rel.insert(&t);
            }
            let select = |bound: &[Option<RamDomain>]| {
                let mut rows = rel.select(bound).collect_tuples();
                rows.sort();
                rows
            };
            assert_eq!(select(&[None, None]).len(), 4, "{}", rel.name());
            assert_eq!(select(&[Some(2), None]), [[2, 8], [2, 9]]);
            // Column 1 alone is a prefix of the secondary only.
            assert_eq!(select(&[None, Some(9)]), [[1, 9], [2, 9]]);
            assert_eq!(select(&[Some(2), Some(9)]), [[2, 9]]);
            assert!(select(&[Some(3), Some(9)]).is_empty());
            // `advance` meters non-matches too: a primary-only relation
            // would step over all four tuples, the secondary over two.
            let bound = [None, Some(9)];
            let mut cursor = rel.select(&bound);
            let mut steps = 0;
            while cursor.advance().is_some() {
                steps += 1;
            }
            assert_eq!(steps, 2, "{}: range over the (1, 0) index", rel.name());
        }
        let mut pairs = eq.select(&[Some(2), None]).collect_tuples();
        pairs.sort();
        assert_eq!(pairs, [[2, 1], [2, 2]], "eqrel closures are selectable");
        assert!(Relation::new("flag", 0, vec![])
            .select(&[])
            .next_tuple()
            .is_none());
    }

    #[test]
    fn merge_and_swap_model_ram_statements() {
        let mut full = two_index_relation();
        let mut delta = two_index_relation();
        delta.insert(&[1, 2]);
        delta.insert(&[3, 4]);
        full.insert(&[1, 2]);
        full.merge_from(&delta);
        assert_eq!(full.len(), 2);
        assert!(full.contains(&[3, 4]));

        let mut new = two_index_relation();
        new.insert(&[5, 6]);
        delta.swap_data(&mut new);
        assert_eq!(delta.len(), 1);
        assert!(delta.contains(&[5, 6]));
        assert_eq!(new.len(), 2);
    }

    fn heterogeneous_relation() -> Relation {
        // B-tree primary in natural order, Brie secondary on (col1, col0):
        // the mixed-representation layout index selection can produce.
        Relation::new(
            "mixed",
            2,
            vec![
                IndexSpec::btree_natural(2),
                IndexSpec::new(Representation::Brie, Order::new(vec![1, 0])),
            ],
        )
    }

    #[test]
    fn merge_from_keeps_heterogeneous_indexes_consistent() {
        let mut dst = heterogeneous_relation();
        let mut src = heterogeneous_relation();
        dst.insert(&[1, 9]);
        src.insert(&[1, 9]); // duplicate across relations
        src.insert(&[2, 8]);
        src.insert(&[3, 7]);
        dst.merge_from(&src);
        assert_eq!(dst.len(), 3);
        assert_eq!(dst.index(0).len(), dst.index(1).len(), "indexes agree");
        // The Brie secondary is sorted by source column 1 first.
        assert_eq!(
            dst.index(1).scan().collect_tuples(),
            vec![vec![7, 3], vec![8, 2], vec![9, 1]]
        );
        // Source relation is unchanged by the merge.
        assert_eq!(src.len(), 3);
    }

    #[test]
    fn merge_from_decodes_across_different_primary_orders() {
        // Source primary stores (col1, col0); destination primary is
        // natural. merge_from must decode through the source order.
        let mut src = Relation::new(
            "src",
            2,
            vec![IndexSpec::new(
                Representation::BTree,
                Order::new(vec![1, 0]),
            )],
        );
        src.insert(&[1, 9]);
        src.insert(&[2, 8]);
        let mut dst = heterogeneous_relation();
        dst.merge_from(&src);
        assert!(dst.contains(&[1, 9]) && dst.contains(&[2, 8]));
        assert_eq!(dst.index(0).scan().collect_tuples()[0], vec![1, 9]);

        // Contrast: a source-order (legacy) primary with the same order
        // must NOT be decoded — the stores_source_order distinction.
        use crate::dynindex::DynBTreeIndex;
        let mut legacy_src = Relation::from_adapters(
            "legacy",
            2,
            vec![Box::new(DynBTreeIndex::new(Order::new(vec![1, 0]))) as Box<dyn IndexAdapter>],
        );
        assert!(legacy_src.index(0).stores_source_order());
        legacy_src.insert(&[4, 6]);
        legacy_src.insert(&[5, 5]);
        let mut dst2 = heterogeneous_relation();
        dst2.merge_from(&legacy_src);
        assert!(dst2.contains(&[4, 6]) && dst2.contains(&[5, 5]));
        assert!(!dst2.contains(&[6, 4]), "no spurious decode");
    }

    #[test]
    fn swap_data_exchanges_heterogeneous_contents() {
        let mut a = heterogeneous_relation();
        let mut b = heterogeneous_relation();
        a.insert(&[1, 2]);
        a.insert(&[3, 4]);
        b.insert(&[9, 9]);
        a.swap_data(&mut b);
        assert_eq!(a.len(), 1);
        assert!(a.contains(&[9, 9]));
        assert_eq!(b.len(), 2);
        assert!(b.contains(&[1, 2]) && b.contains(&[3, 4]));
        // Both indexes of both relations moved together.
        assert_eq!(a.index(1).scan().collect_tuples(), vec![vec![9, 9]]);
        assert_eq!(
            b.index(1).scan().collect_tuples(),
            vec![vec![2, 1], vec![4, 3]]
        );
        assert_eq!(a.name(), "mixed", "names stay in place");
    }

    #[test]
    #[should_panic(expected = "index layout mismatch")]
    fn swap_data_rejects_different_index_layouts() {
        let mut a = heterogeneous_relation();
        let mut b = Relation::new("single", 2, vec![IndexSpec::btree_natural(2)]);
        a.swap_data(&mut b);
    }

    #[test]
    fn nullary_relations_are_flags() {
        let mut flag = Relation::new("flag", 0, vec![]);
        assert!(flag.is_empty());
        assert!(!flag.contains(&[]));
        assert!(flag.insert(&[]));
        assert!(!flag.insert(&[]));
        assert_eq!(flag.len(), 1);
        assert!(flag.contains(&[]));
        assert_eq!(flag.to_sorted_tuples(), vec![Vec::<RamDomain>::new()]);
        flag.clear();
        assert!(flag.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least a primary")]
    fn positive_arity_requires_an_index() {
        Relation::new("r", 2, vec![]);
    }

    #[test]
    fn annotations_follow_merge_swap_and_clear() {
        let mut new = two_index_relation();
        new.enable_annotations();
        assert!(new.annotations_enabled());
        assert!(new.insert(&[1, 2]));
        new.record_annotation(&[1, 2], 3, 7);
        assert_eq!(new.annotation(&[1, 2]), Some((3, 7)));
        assert_eq!(new.annotation(&[9, 9]), None);

        // Keep-first: a later (higher) derivation never wins the lookup.
        new.record_annotation(&[1, 2], 5, 8);
        assert_eq!(new.annotation(&[1, 2]), Some((3, 7)));

        // MERGE copies annotations of freshly inserted tuples only.
        let mut full = two_index_relation();
        full.enable_annotations();
        full.insert(&[1, 2]);
        full.record_annotation(&[1, 2], 1, 0);
        let mut delta = two_index_relation();
        delta.enable_annotations();
        full.merge_from(&new);
        assert_eq!(full.annotation(&[1, 2]), Some((1, 0)), "kept original");

        // SWAP exchanges annotation stores with the data.
        delta.swap_data(&mut new);
        assert_eq!(delta.annotation(&[1, 2]), Some((3, 7)));
        assert_eq!(new.annotation(&[1, 2]), None);

        // CLEAR drops annotations with the tuples.
        delta.clear();
        assert_eq!(delta.annotation(&[1, 2]), None);

        // Nullary relations annotate their single empty tuple.
        let mut flag = Relation::new("flag", 0, vec![]);
        flag.enable_annotations();
        flag.insert(&[]);
        flag.record_annotation(&[], 2, 4);
        assert_eq!(flag.annotation(&[]), Some((2, 4)));
        let mut flag2 = Relation::new("flag2", 0, vec![]);
        flag2.enable_annotations();
        flag2.merge_from(&flag);
        assert_eq!(flag2.annotation(&[]), Some((2, 4)));
    }

    #[test]
    fn erase_reaches_all_indexes_and_annotations() {
        let mut rel = two_index_relation();
        rel.enable_annotations();
        rel.insert(&[1, 9]);
        rel.insert(&[2, 8]);
        rel.record_annotation(&[1, 9], 0, 3);
        rel.record_annotation(&[1, 9], 4, 5); // a later, higher derivation
        rel.record_annotation(&[2, 8], 1, 1);

        assert!(rel.erase(&[1, 9]));
        assert!(!rel.erase(&[1, 9]), "double erase is a no-op");
        assert!(!rel.contains(&[1, 9]));
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.index(0).len(), 1);
        assert_eq!(rel.index(1).len(), 1, "secondary indexes shrink too");
        assert_eq!(rel.annotation(&[1, 9]), None, "all annotation rows gone");
        assert_eq!(rel.annotation(&[2, 8]), Some((1, 1)), "others untouched");
        assert_eq!(
            rel.index(1).scan().collect_tuples(),
            vec![vec![8, 2]],
            "permuted secondary stays consistent"
        );
        // Reinsertion after erase is fresh.
        assert!(rel.insert(&[1, 9]));
        rel.record_annotation(&[1, 9], 7, 7);
        assert_eq!(rel.annotation(&[1, 9]), Some((7, 7)));
    }

    #[test]
    fn erase_heterogeneous_and_legacy_relations() {
        let mut mixed = heterogeneous_relation();
        mixed.insert(&[1, 9]);
        mixed.insert(&[2, 8]);
        assert!(mixed.erase(&[2, 8]));
        assert_eq!(mixed.index(0).len(), 1);
        assert_eq!(mixed.index(1).len(), 1);
        assert_eq!(
            mixed.index(1).scan().collect_tuples(),
            vec![vec![9, 1]],
            "brie secondary erased through its permuted order"
        );

        use crate::dynindex::DynBTreeIndex;
        let mut legacy = Relation::from_adapters(
            "legacy",
            2,
            vec![Box::new(DynBTreeIndex::new(Order::new(vec![1, 0]))) as Box<dyn IndexAdapter>],
        );
        legacy.insert(&[4, 6]);
        legacy.insert(&[5, 5]);
        assert!(legacy.erase(&[4, 6]));
        assert!(!legacy.contains(&[4, 6]));
        assert!(legacy.contains(&[5, 5]));
        assert_eq!(legacy.to_sorted_tuples(), vec![vec![5, 5]]);
    }

    #[test]
    fn erase_nullary_clears_the_flag() {
        let mut flag = Relation::new("flag", 0, vec![]);
        flag.enable_annotations();
        assert!(!flag.erase(&[]));
        flag.insert(&[]);
        flag.record_annotation(&[], 0, 0);
        assert!(flag.erase(&[]));
        assert!(flag.is_empty());
        assert_eq!(flag.annotation(&[]), None);
    }

    #[test]
    fn merge_after_erase_restores_tuples_and_annotations() {
        let mut full = two_index_relation();
        full.enable_annotations();
        full.insert(&[1, 2]);
        full.record_annotation(&[1, 2], 0, 0);
        full.erase(&[1, 2]);

        let mut upd = two_index_relation();
        upd.enable_annotations();
        upd.insert(&[1, 2]);
        upd.record_annotation(&[1, 2], 2, 9);
        full.merge_from(&upd);
        assert!(full.contains(&[1, 2]));
        assert_eq!(
            full.annotation(&[1, 2]),
            Some((2, 9)),
            "re-merged tuple carries the new derivation, not the erased one"
        );
    }

    #[test]
    fn eqrel_relation_works() {
        let mut rel = Relation::new(
            "eq",
            2,
            vec![IndexSpec::new(Representation::EqRel, Order::natural(2))],
        );
        rel.insert(&[1, 2]);
        assert!(rel.contains(&[2, 1]));
        assert_eq!(rel.len(), 4);
    }
}
