//! Pre-instantiation of every de-specialized index type.
//!
//! After de-specialization, an index is identified by its representation
//! and its arity alone — a parameter space small enough to pre-compile in
//! full (paper §3). [`new_index`] is the runtime factory: the crate's
//! `with_arity!` macro, the Rust analogue of the paper's
//! `FOR_EACH`/`FOR_EACH_BTREE` C-macros (Figs. 8–9), stamps out one
//! monomorphized [`crate::adapter::SetIndex`] per representation and
//! arity `1..=16`.

use crate::adapter::{BTreeIndex, BrieIndex, EqRelIndex, IndexAdapter};
use crate::disk::DiskIndex;
use crate::order::Order;
use crate::tuple::MAX_ARITY;

/// The available index representations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Representation {
    /// The fixed-arity B-tree — the general-purpose default.
    BTree,
    /// The Brie (trie) — favours dense, prefix-shared key spaces.
    Brie,
    /// The union-find equivalence relation — binary relations closed under
    /// equivalence.
    EqRel,
    /// The disk set — a paged snapshot run plus an in-memory B-tree
    /// overlay; built overlay-only, given its run on cold start.
    Disk,
}

impl Representation {
    /// Stable lowercase name, used as a metrics/JSON key.
    pub fn name(&self) -> &'static str {
        match self {
            Representation::BTree => "btree",
            Representation::Brie => "brie",
            Representation::EqRel => "eqrel",
            Representation::Disk => "disk",
        }
    }
}

impl std::fmt::Display for Representation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete description of one index: representation + lexicographic
/// order (which fixes the arity).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IndexSpec {
    /// The data-structure implementation.
    pub repr: Representation,
    /// The realized lexicographic order.
    pub order: Order,
}

impl IndexSpec {
    /// Creates a spec.
    pub fn new(repr: Representation, order: Order) -> Self {
        IndexSpec { repr, order }
    }

    /// A B-tree in natural order — the default primary index.
    pub fn btree_natural(arity: usize) -> Self {
        IndexSpec::new(Representation::BTree, Order::natural(arity))
    }

    /// The tuple arity.
    pub fn arity(&self) -> usize {
        self.order.arity()
    }
}

impl std::fmt::Display for IndexSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.repr, self.order)
    }
}

/// Builds an index for `spec`.
///
/// This is the paper's `BTreeIndexFactory` (Fig. 7), generalized over
/// representations: a `match` over `(repr, arity)` whose arms construct the
/// statically-typed structure behind the dynamic [`IndexAdapter`] facade.
///
/// # Panics
///
/// Panics if the arity is `0` or exceeds [`MAX_ARITY`], or if an `EqRel`
/// index is requested with arity other than 2 — all of which indicate bugs
/// in the RAM-level index selection, not user errors.
pub fn new_index(spec: &IndexSpec) -> Box<dyn IndexAdapter> {
    let arity = spec.arity();
    assert!(
        (1..=MAX_ARITY).contains(&arity),
        "arity {arity} not supported (pre-instantiated range is 1..={MAX_ARITY})"
    );
    macro_rules! arm {
        ($index:ident) => {
            with_arity!(
                arity,
                Box::new($index::<N>::new(spec.order.clone())) as Box<dyn IndexAdapter>,
                _ => unreachable!()
            )
        };
    }
    match spec.repr {
        Representation::BTree => arm!(BTreeIndex),
        Representation::Brie => arm!(BrieIndex),
        Representation::Disk => arm!(DiskIndex),
        Representation::EqRel => {
            assert_eq!(arity, 2, "eqrel indexes are binary");
            Box::new(EqRelIndex::new(spec.order.clone()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_covers_all_arities() {
        for arity in 1..=MAX_ARITY {
            for repr in [
                Representation::BTree,
                Representation::Brie,
                Representation::Disk,
            ] {
                let idx = new_index(&IndexSpec::new(repr, Order::natural(arity)));
                assert_eq!(idx.arity(), arity, "{repr} arity {arity}");
                assert!(idx.is_empty());
            }
        }
        let eq = new_index(&IndexSpec::new(Representation::EqRel, Order::natural(2)));
        assert_eq!(eq.arity(), 2);
    }

    #[test]
    fn factory_produces_working_indexes() {
        let mut idx = new_index(&IndexSpec::new(
            Representation::BTree,
            Order::new(vec![1, 0, 2]),
        ));
        assert!(idx.insert(&[1, 2, 3]));
        assert!(!idx.insert(&[1, 2, 3]));
        assert!(idx.contains(&[1, 2, 3]));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn factory_rejects_oversized_arity() {
        new_index(&IndexSpec::btree_natural(17));
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn factory_rejects_nullary() {
        new_index(&IndexSpec::btree_natural(0));
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn factory_rejects_nonbinary_eqrel() {
        new_index(&IndexSpec::new(Representation::EqRel, Order::natural(3)));
    }

    #[test]
    fn spec_display_is_informative() {
        let spec = IndexSpec::new(Representation::BTree, Order::new(vec![1, 0]));
        assert_eq!(spec.to_string(), "btree[1,0]");
    }
}
