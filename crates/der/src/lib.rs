//! Datalog-Enabled Relational (DER) data structures, de-specialized.
//!
//! This crate is the substrate of the STIR engine: the in-memory set data
//! structures that store relation tuples and accelerate the *primitive
//! searches* (prefix range queries) that dominate Datalog evaluation.
//!
//! Following the PLDI'21 paper *"An Efficient Interpreter for Datalog by
//! De-specializing Relations"*, the portfolio consists of
//!
//! * a fixed-arity **B-tree** ([`btree::BTreeIndexSet`]),
//! * a fixed-arity **Brie** (trie, [`brie::Brie`]),
//! * a binary **equivalence relation** backed by a union-find
//!   ([`eqrel::EquivalenceRelation`]), and
//! * a fixed-arity **disk set** ([`disk::DiskSet`]): a paged snapshot run
//!   plus an in-memory B-tree overlay.
//!
//! All structures store tuples of [`RamDomain`] values (`u32` bit patterns)
//! in the **natural lexicographic order** only. The two de-specialization
//! steps of the paper are realized as:
//!
//! 1. *Order de-specialization*: arbitrary lexicographic orders are obtained
//!    by permuting tuples through an [`order::Order`] **before insertion**,
//!    so the data structures themselves only ever compare element 0 first,
//!    then element 1, and so on.
//! 2. *Type de-specialization*: every element is a `u32` bit pattern;
//!    signed/float semantics live in the interpreter's functors, not in the
//!    index comparator (with the documented trade-off that index order is
//!    bit order).
//!
//! The remaining parameter space — representation × arity — is small enough
//! to pre-instantiate. Every structure implements one stored-order set
//! trait, [`adapter::TupleSet`], so the adapter is written once
//! ([`adapter::SetIndex`]) and the [`factory`] module materializes every
//! combination for arities `1..=16` behind the object-safe
//! [`adapter::IndexAdapter`] trait, mirroring the paper's
//! `BTreeIndexFactory`.
//!
//! # Example
//!
//! ```
//! use stir_der::factory::{new_index, IndexSpec, Representation};
//! use stir_der::iter::TupleIter;
//! use stir_der::order::Order;
//!
//! let spec = IndexSpec::new(Representation::BTree, Order::natural(2));
//! let mut edge = new_index(&spec);
//! edge.insert(&[1, 2]);
//! edge.insert(&[1, 3]);
//! edge.insert(&[2, 3]);
//! assert!(edge.contains(&[1, 2]));
//! // primitive search: all tuples whose first element is 1
//! let hits: Vec<_> = edge.range(&[1, 0], &[1, u32::MAX]).collect_tuples();
//! assert_eq!(hits, vec![vec![1, 2], vec![1, 3]]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// Evaluates `$body` with the constant `N` bound to `$arity`, in one
/// `match` arm per pre-instantiated arity `1..=16` (the paper's
/// `FOR_EACH` C-macros, Figs. 8–9); any other arity evaluates `$other`.
macro_rules! with_arity {
    ($arity:expr, $body:expr, _ => $other:expr) => {
        with_arity!(@ $arity, $body, $other, 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
    };
    (@ $arity:expr, $body:expr, $other:expr, $($n:literal)*) => {
        match $arity {
            $($n => {
                const N: usize = $n;
                $body
            })*
            _ => $other,
        }
    };
}

pub mod adapter;
pub mod brie;
pub mod btree;
pub mod buffer;
pub mod disk;
pub mod dump;
pub mod dynindex;
pub mod eqrel;
pub mod factory;
pub mod iter;
pub mod order;
pub mod relation;
pub mod tuple;

pub use adapter::{IndexAdapter, Morsels, SetIndex, TupleSet};
pub use buffer::InsertBuffer;
pub use factory::{new_index, IndexSpec, Representation};
pub use order::Order;
pub use relation::Relation;
pub use tuple::{RamDomain, Tuple, MAX_ARITY};
