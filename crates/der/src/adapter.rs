//! The dynamic index adapter: de-specialized DER structures behind an
//! object-safe interface.
//!
//! This mirrors the paper's `IndexAdapter` base class (Fig. 7): a thin
//! virtual layer over the statically-typed structures, performing the
//! dynamic tuple reordering of de-specialization step 1 on the way in.
//! The optimized interpreter bypasses most of this interface by
//! downcasting ([`IndexAdapter::as_any`]) to the concrete monomorphized
//! type — the Rust analogue of the paper's static instruction generation
//! (§4.1) — while the legacy paths and the Fig. 18 ablation stay fully
//! virtual.

use crate::brie::Brie;
use crate::btree::BTreeIndexSet;
use crate::eqrel::EquivalenceRelation;
use crate::iter::{AdaptedIter, TupleIter};
use crate::order::Order;
use crate::tuple::{tuple_from_slice, RamDomain, Tuple};
use std::any::Any;
use std::fmt::Debug;

/// Structural statistics of one index, passively sampled for
/// observability (the engine's metrics registry and JSON profile).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Number of stored tuples (logical, after set semantics).
    pub tuples: usize,
    /// Allocated tree/trie nodes (or equivalence classes for eqrel).
    pub nodes: usize,
    /// Estimated heap footprint in bytes (capacities, not lengths).
    pub bytes: usize,
}

/// Object-safe interface to a single index of a relation.
///
/// Tuples passed to [`insert`](Self::insert) and
/// [`contains`](Self::contains) are in *source* order; the adapter encodes
/// them through its [`Order`]. Range bounds and yielded tuples are in
/// *stored* order (patterns permute component-wise, so callers encode
/// bounds with [`IndexAdapter::order`] — or build them directly in stored
/// order, as the optimized interpreter does).
pub trait IndexAdapter: Debug + Send + Sync {
    /// The lexicographic order realized by this index.
    fn order(&self) -> &Order;

    /// Tuple arity.
    fn arity(&self) -> usize;

    /// Number of stored tuples.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Structural statistics: tuple count, node count, estimated bytes.
    ///
    /// A read-only walk of the structure; safe to call at any point of a
    /// run.
    fn stats(&self) -> IndexStats;

    /// Removes all tuples.
    fn clear(&mut self);

    /// Inserts a source-order tuple; `true` if it was new.
    fn insert(&mut self, t: &[RamDomain]) -> bool;

    /// Removes a source-order tuple; `true` if it was present and the
    /// structure shrank. Best-effort on structures that do not store
    /// tuples explicitly: [`EqRelIndex`] can only drop a pair the
    /// closure of the survivors does not re-derive (see the eqrel set's
    /// `remove`), so callers needing generator-accurate eqrel deletion
    /// must rebuild from the surviving input pairs instead.
    fn erase(&mut self, t: &[RamDomain]) -> bool;

    /// Removes every tuple whose first `prefix.len()` *stored-order*
    /// columns equal `prefix` (the prefix special case of the bound
    /// convention of [`range`](Self::range)); returns how many tuples
    /// were removed.
    fn erase_prefix(&mut self, prefix: &[RamDomain]) -> usize;

    /// Membership test for a source-order tuple.
    fn contains(&self, t: &[RamDomain]) -> bool;

    /// Membership test for a stored-order tuple (no encoding).
    fn contains_stored(&self, t: &[RamDomain]) -> bool;

    /// Whether tuples are kept un-permuted, so "stored" order coincides
    /// with source order regardless of [`order`](Self::order). The
    /// comparator-based legacy index works this way; consumers that
    /// decode stored-order scans back into source order must skip the
    /// decode for such indexes.
    fn stores_source_order(&self) -> bool {
        false
    }

    /// Full scan in stored order. The iterator is `Send` so parallel
    /// workers can drive it (all implementations borrow `&self`, which is
    /// `Sync`).
    fn scan(&self) -> Box<dyn TupleIter + Send + '_>;

    /// Inclusive range scan with stored-order bounds, yielding stored-order
    /// tuples.
    fn range(&self, lo: &[RamDomain], hi: &[RamDomain]) -> Box<dyn TupleIter + Send + '_>;

    /// Splits the full scan into disjoint morsels of roughly `target`
    /// tuples each — the work-stealing parallel-evaluation primitive.
    /// Concatenating every morsel in order yields exactly
    /// [`scan`](Self::scan).
    ///
    /// The default streams the ordinary scan cursor: workers share it and
    /// drain `target`-sized batches under a lock, so representations
    /// without a structural split never materialize per-chunk copies (the
    /// comparator-based legacy index takes this path). [`SetIndex`]
    /// overrides it with its set's partitions: zero-copy windows of a
    /// tree, chunks cut from eqrel's flat pair buffer, or page-aligned
    /// slices of a disk run.
    fn morsels(&self, target: usize) -> Morsels<'_> {
        let _ = target;
        Morsels::Stream(self.scan())
    }

    /// Splits an inclusive range scan into disjoint morsels (see
    /// [`morsels`](Self::morsels)). Bounds follow the same convention as
    /// [`range`](Self::range) for this adapter.
    fn morsels_range(&self, lo: &[RamDomain], hi: &[RamDomain], target: usize) -> Morsels<'_> {
        let _ = target;
        Morsels::Stream(self.range(lo, hi))
    }

    /// Downcast support for the static instruction paths.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Disjoint work units of one index scan, sized for morsel-driven
/// parallel evaluation (see [`IndexAdapter::morsels`]).
pub enum Morsels<'a> {
    /// Structural zero-copy chunks: disjoint sub-iterators whose in-order
    /// concatenation equals the full scan. Tree-backed indexes derive
    /// them from node-level split keys, so each chunk is a window into
    /// the existing structure.
    Chunks(Vec<Box<dyn TupleIter + Send + 'a>>),
    /// Streaming fallback for representations without a structural split:
    /// one shared cursor that workers drain in size-bounded batches under
    /// a lock.
    Stream(Box<dyn TupleIter + Send + 'a>),
}

impl Debug for Morsels<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Morsels::Chunks(c) => write!(f, "Morsels::Chunks({})", c.len()),
            Morsels::Stream(_) => write!(f, "Morsels::Stream"),
        }
    }
}

/// How many structural chunks to request so each holds roughly `target`
/// tuples. Tree partitioning treats the result as an upper bound (split
/// candidates come from the top node levels), so over-asking only makes
/// chunks finer, never unbalanced.
fn chunk_count(len: usize, target: usize) -> usize {
    len.div_ceil(target.max(1)).max(1)
}

/// The stored-order face every de-specialized set shares: fixed-arity
/// tuples in the natural lexicographic order, with inclusive windows and
/// disjoint partitions for morsel-driven scans.
///
/// [`BTreeIndexSet`], [`Brie`], [`EquivalenceRelation`] and
/// [`crate::disk::DiskSet`] implement it directly, so [`SetIndex`] is
/// written once and the interpreter's statically dispatched handlers call
/// it on the downcast set with no virtual calls (paper §4.1).
pub trait TupleSet<const N: usize>: Debug + Default + Send + Sync + 'static {
    /// In-order iterator over stored tuples.
    type Iter<'a>: Iterator<Item = Tuple<N>> + Send + 'a
    where
        Self: 'a;

    /// Number of stored tuples (logical, after set semantics).
    fn len(&self) -> usize;

    /// Whether the set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocated tree/trie nodes (equivalence classes for eqrel).
    fn node_count(&self) -> usize;

    /// Estimated heap bytes, counted at allocated capacity.
    fn estimated_bytes(&self) -> usize;

    /// Removes all tuples.
    fn clear(&mut self);

    /// Inserts a tuple; `true` if the set grew.
    fn insert(&mut self, t: Tuple<N>) -> bool;

    /// Removes a tuple; `true` if the set shrank.
    fn remove(&mut self, t: &Tuple<N>) -> bool;

    /// Membership test.
    fn contains(&self, t: &Tuple<N>) -> bool;

    /// Iterates over all tuples in lexicographic order.
    fn iter(&self) -> Self::Iter<'_>;

    /// Iterates over tuples `t` with `lo <= t <= hi` in lexicographic
    /// order — the *primitive search*: a prefix query on the first `k`
    /// columns is `lo = (v1..vk, 0, ..)`, `hi = (v1..vk, MAX, ..)`.
    fn range(&self, lo: &Tuple<N>, hi: &Tuple<N>) -> Self::Iter<'_>;

    /// Splits the full scan into at most `n` disjoint sub-iterators (see
    /// [`partition_range`](Self::partition_range)).
    fn partition(&self, n: usize) -> Vec<Self::Iter<'_>> {
        self.partition_range(&[0; N], &[RamDomain::MAX; N], n)
    }

    /// Splits the inclusive window `[lo, hi]` into at most `n` disjoint
    /// sub-iterators whose in-order concatenation is `range(lo, hi)`.
    fn partition_range(&self, lo: &Tuple<N>, hi: &Tuple<N>, n: usize) -> Vec<Self::Iter<'_>>;
}

/// An index: a [`TupleSet`] plus an insertion-time reordering.
///
/// The paper's `BTreeIndex<Arity>` adapter (Fig. 7), written once for
/// every representation; [`BTreeIndex`], [`BrieIndex`], [`EqRelIndex`]
/// and [`crate::disk::DiskIndex`] name its pre-instantiated forms.
#[derive(Debug, Clone)]
pub struct SetIndex<S, const N: usize> {
    set: S,
    order: Order,
    natural: bool,
}

/// A B-tree index.
pub type BTreeIndex<const N: usize> = SetIndex<BTreeIndexSet<N>, N>;

/// A Brie (trie) index.
pub type BrieIndex<const N: usize> = SetIndex<Brie<N>, N>;

/// An equivalence-relation index (always binary, always natural order —
/// the relation is symmetric, so column order carries no information).
pub type EqRelIndex = SetIndex<EquivalenceRelation, 2>;

impl<S: TupleSet<N>, const N: usize> SetIndex<S, N> {
    /// Creates an empty index realizing `order`.
    ///
    /// # Panics
    ///
    /// Panics if `order.arity() != N`.
    pub fn new(order: Order) -> Self {
        assert_eq!(order.arity(), N, "order arity must match index arity");
        let natural = order.is_natural();
        SetIndex {
            set: S::default(),
            order,
            natural,
        }
    }

    /// Direct access to the monomorphized set (static instruction paths).
    pub fn raw(&self) -> &S {
        &self.set
    }

    /// Mutable access to the set; tuples it takes are in stored order.
    pub(crate) fn raw_mut(&mut self) -> &mut S {
        &mut self.set
    }

    /// Encodes a source-order slice into a stored-order tuple.
    #[inline]
    pub fn encode(&self, t: &[RamDomain]) -> Tuple<N> {
        if self.natural {
            tuple_from_slice(t)
        } else {
            let mut out = [0; N];
            self.order.encode(t, &mut out);
            out
        }
    }

    fn chunks<'a>(parts: Vec<S::Iter<'a>>) -> Morsels<'a> {
        let boxed = |p| Box::new(AdaptedIter::<_, N>::new(p)) as Box<dyn TupleIter + Send + 'a>;
        Morsels::Chunks(parts.into_iter().map(boxed).collect())
    }
}

impl<S: TupleSet<N>, const N: usize> IndexAdapter for SetIndex<S, N> {
    fn order(&self) -> &Order {
        &self.order
    }

    fn arity(&self) -> usize {
        N
    }

    fn len(&self) -> usize {
        self.set.len()
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            tuples: self.set.len(),
            nodes: self.set.node_count(),
            bytes: self.set.estimated_bytes(),
        }
    }

    fn clear(&mut self) {
        self.set.clear();
    }

    #[inline]
    fn insert(&mut self, t: &[RamDomain]) -> bool {
        let enc = self.encode(t);
        self.set.insert(enc)
    }

    fn erase(&mut self, t: &[RamDomain]) -> bool {
        let enc = self.encode(t);
        self.set.remove(&enc)
    }

    fn erase_prefix(&mut self, prefix: &[RamDomain]) -> usize {
        debug_assert!(prefix.len() <= N);
        let mut lo = [0; N];
        let mut hi = [RamDomain::MAX; N];
        lo[..prefix.len()].copy_from_slice(prefix);
        hi[..prefix.len()].copy_from_slice(prefix);
        let doomed: Vec<Tuple<N>> = self.set.range(&lo, &hi).collect();
        doomed.iter().filter(|t| self.set.remove(t)).count()
    }

    fn contains(&self, t: &[RamDomain]) -> bool {
        let enc = self.encode(t);
        self.set.contains(&enc)
    }

    fn contains_stored(&self, t: &[RamDomain]) -> bool {
        self.set.contains(&tuple_from_slice(t))
    }

    fn scan(&self) -> Box<dyn TupleIter + Send + '_> {
        Box::new(AdaptedIter::<_, N>::new(self.set.iter()))
    }

    fn range(&self, lo: &[RamDomain], hi: &[RamDomain]) -> Box<dyn TupleIter + Send + '_> {
        let lo: Tuple<N> = tuple_from_slice(lo);
        let hi: Tuple<N> = tuple_from_slice(hi);
        Box::new(AdaptedIter::<_, N>::new(self.set.range(&lo, &hi)))
    }

    fn morsels(&self, target: usize) -> Morsels<'_> {
        Self::chunks(self.set.partition(chunk_count(self.set.len(), target)))
    }

    fn morsels_range(&self, lo: &[RamDomain], hi: &[RamDomain], target: usize) -> Morsels<'_> {
        let lo: Tuple<N> = tuple_from_slice(lo);
        let hi: Tuple<N> = tuple_from_slice(hi);
        Self::chunks(
            self.set
                .partition_range(&lo, &hi, chunk_count(self.set.len(), target)),
        )
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{DiskIndex, DiskSet};

    /// A set holding `gens`, inserted in order.
    fn filled<S: TupleSet<2>>(gens: &[Tuple<2>]) -> S {
        let mut set = S::default();
        for &t in gens {
            set.insert(t);
        }
        set
    }

    /// Checks the stored-order face of `set` against `want`, the sorted
    /// set it must hold.
    fn exercise<S: TupleSet<2>>(set: S, want: &[Tuple<2>]) {
        assert_eq!(set.len(), want.len());
        assert_eq!(set.iter().collect::<Vec<_>>(), want);
        assert!(want.iter().all(|t| set.contains(t)));
        assert!(!set.contains(&[9, 9]));
        let (lo, hi) = ([1, 3], [2, 2]);
        let window: Vec<_> = want
            .iter()
            .copied()
            .filter(|t| (lo..=hi).contains(t))
            .collect();
        assert_eq!(set.range(&lo, &hi).collect::<Vec<_>>(), window);
        assert_eq!(set.range(&[4, 0], &[4, u32::MAX]).next(), None);
        for n in [1, 2, 3, 8] {
            let parts = set.partition(n);
            assert!(parts.len() <= n);
            assert_eq!(parts.into_iter().flatten().collect::<Vec<_>>(), want);
            let parts = set.partition_range(&lo, &hi, n);
            assert_eq!(parts.into_iter().flatten().collect::<Vec<_>>(), window);
        }
    }

    /// A disk set over a four-page base run (two tuples a page, fences
    /// (1, 0), (1, 3), (2, 0), (2, 4)) with the fence (1, 3) and the base
    /// tuple (2, 4) tombstoned, and overlay inserts below the base, on both
    /// sides of the fence (1, 3), and above the base.
    fn disk_set() -> (DiskSet<2>, Vec<Tuple<2>>) {
        let base = [
            [1, 0],
            [1, 1],
            [1, 3],
            [1, 5],
            [2, 0],
            [2, 2],
            [2, 4],
            [3, 1],
        ];
        let stored: Vec<_> = base.iter().map(|t| t.to_vec()).collect();
        let mut set = DiskSet::default();
        set.rebase(crate::disk::tests::base_run("face", 2, &stored, 2, 1 << 20));
        let (fresh, doomed) = ([[0, 7], [1, 2], [1, 4], [3, 3]], [[1, 3], [2, 4]]);
        assert!(fresh.into_iter().all(|t| set.insert(t)));
        assert!(doomed.iter().all(|t| set.remove(t)));
        let mut want: Vec<_> = base.into_iter().filter(|t| !doomed.contains(t)).collect();
        want.extend(fresh);
        want.sort_unstable();
        (set, want)
    }

    #[test]
    fn every_set_exposes_the_same_face() {
        let tuples = [[1, 2], [1, 3], [2, 2]];
        exercise(filled::<BTreeIndexSet<2>>(&tuples), &tuples);
        exercise(filled::<Brie<2>>(&tuples), &tuples);
        // eqrel closes (1, 2) and (2, 3) into {1, 2, 3}².
        let closure: Vec<_> = (1..=3).flat_map(|x| (1..=3).map(move |y| [x, y])).collect();
        exercise(filled::<EquivalenceRelation>(&[[1, 2], [2, 3]]), &closure);
        let (disk, want) = disk_set();
        exercise(disk, &want);
    }

    #[test]
    fn btree_adapter_reorders_on_insert() {
        // Order [1,0]: stored tuples are (second, first).
        let mut idx = BTreeIndex::<2>::new(Order::new(vec![1, 0]));
        idx.insert(&[1, 50]);
        idx.insert(&[2, 40]);
        idx.insert(&[3, 40]);
        assert!(idx.contains(&[1, 50]));
        assert!(!idx.contains(&[50, 1]));
        // Stored order sorts by source column 1 first.
        let stored = idx.scan().collect_tuples();
        assert_eq!(stored, vec![vec![40, 2], vec![40, 3], vec![50, 1]]);
        // Prefix search on stored order: all tuples with source column 1 == 40.
        let hits = idx.range(&[40, 0], &[40, u32::MAX]).collect_tuples();
        assert_eq!(hits, vec![vec![40, 2], vec![40, 3]]);
    }

    #[test]
    fn btree_adapter_natural_order_is_identity() {
        let mut idx = BTreeIndex::<3>::new(Order::natural(3));
        idx.insert(&[3, 2, 1]);
        assert_eq!(idx.scan().collect_tuples(), vec![vec![3, 2, 1]]);
        assert!(idx.contains_stored(&[3, 2, 1]));
    }

    #[test]
    fn brie_adapter_matches_btree_adapter() {
        let order = Order::new(vec![2, 0, 1]);
        let mut bt = BTreeIndex::<3>::new(order.clone());
        let mut br = BrieIndex::<3>::new(order);
        let mut seed = 11u32;
        for _ in 0..500 {
            seed = seed.wrapping_mul(48271) % 0x7fff_ffff;
            let t = [seed % 7, seed % 11, seed % 5];
            assert_eq!(bt.insert(&t), br.insert(&t));
        }
        assert_eq!(bt.len(), br.len());
        assert_eq!(bt.scan().collect_tuples(), br.scan().collect_tuples());
        let lo = [2, 0, 0];
        let hi = [2, u32::MAX, u32::MAX];
        assert_eq!(
            bt.range(&lo, &hi).collect_tuples(),
            br.range(&lo, &hi).collect_tuples()
        );
    }

    #[test]
    fn eqrel_adapter_closes_pairs() {
        let mut idx = EqRelIndex::new(Order::natural(2));
        assert!(idx.insert(&[1, 2]));
        assert!(idx.contains(&[2, 1]));
        assert!(idx.contains(&[1, 1]));
        assert_eq!(idx.len(), 4);
        let hits = idx.range(&[1, 0], &[1, u32::MAX]).collect_tuples();
        assert_eq!(hits, vec![vec![1, 1], vec![1, 2]]);
    }

    #[test]
    fn adapter_stats_track_structure() {
        let mut bt = BTreeIndex::<2>::new(Order::natural(2));
        let mut br = BrieIndex::<2>::new(Order::natural(2));
        let mut eq = EqRelIndex::new(Order::natural(2));
        for i in 0..100u32 {
            bt.insert(&[i, i + 1]);
            br.insert(&[i, i + 1]);
        }
        eq.insert(&[1, 2]);
        eq.insert(&[3, 4]);
        for idx in [&bt as &dyn IndexAdapter, &br as &dyn IndexAdapter] {
            let s = idx.stats();
            assert_eq!(s.tuples, 100);
            assert!(s.nodes >= 1, "{s:?}");
            assert!(
                s.bytes >= 100 * 2 * std::mem::size_of::<RamDomain>(),
                "{s:?}"
            );
        }
        let s = eq.stats();
        assert_eq!(s.tuples, 8); // two classes of 2 => 2 * 2^2 pairs
        assert_eq!(s.nodes, 2); // two equivalence classes
        assert!(s.bytes > 0);
    }

    /// Drains every morsel in order into owned tuples.
    fn drain(m: Morsels<'_>) -> Vec<Vec<RamDomain>> {
        match m {
            Morsels::Chunks(chunks) => {
                let mut out = Vec::new();
                for mut c in chunks {
                    out.extend(c.collect_tuples());
                }
                out
            }
            Morsels::Stream(mut it) => it.collect_tuples(),
        }
    }

    #[test]
    fn morsels_concatenate_to_sequential_scans() {
        let order = Order::new(vec![1, 0]);
        let mut bt = BTreeIndex::<2>::new(order.clone());
        let mut br = BrieIndex::<2>::new(order.clone());
        let mut eq = EqRelIndex::new(Order::natural(2));
        // The disk index's base run holds the first 400 tuples, 16 to a
        // page; the rest land in the overlay, and every fifth later tuple
        // is erased again (a tombstone when it is a base tuple).
        let mut gens = Vec::new();
        let mut seed = 3u32;
        for _ in 0..800 {
            seed = seed.wrapping_mul(48271) % 0x7fff_ffff;
            let t = [seed % 41, seed % 23];
            bt.insert(&t);
            br.insert(&t);
            eq.insert(&[seed % 19, seed % 13]);
            gens.push(t);
        }
        let stored: Vec<_> = gens[..400].iter().map(|t| order.encode_vec(t)).collect();
        let base = crate::disk::tests::base_run("morsels", 2, &stored, 16, 1 << 20);
        let mut disk = DiskIndex::<2>::with_base(order, base);
        for (i, t) in gens.iter().enumerate().skip(400) {
            disk.insert(t);
            if i % 5 == 0 {
                let doomed = gens[i % 400];
                assert_eq!(disk.erase(&doomed), bt.erase(&doomed));
                br.erase(&doomed);
            }
        }
        assert!(disk.raw().overlay_len().1 > 0, "some erases are tombstones");
        for idx in [
            &bt as &dyn IndexAdapter,
            &br as &dyn IndexAdapter,
            &eq as &dyn IndexAdapter,
            &disk as &dyn IndexAdapter,
        ] {
            let expected = idx.scan().collect_tuples();
            for target in [1usize, 7, 64, usize::MAX] {
                assert_eq!(
                    drain(idx.morsels(target)),
                    expected,
                    "scan, target {target}"
                );
            }
            let (lo, hi) = ([3u32, 0], [17u32, u32::MAX]);
            let expected = idx.range(&lo, &hi).collect_tuples();
            for target in [1usize, 16, usize::MAX] {
                assert_eq!(
                    drain(idx.morsels_range(&lo, &hi, target)),
                    expected,
                    "range, target {target}"
                );
            }
        }
    }

    #[test]
    fn tree_morsels_are_structural_and_size_bounded() {
        let mut bt = BTreeIndex::<2>::new(Order::natural(2));
        for i in 0..4000u32 {
            bt.insert(&[i / 10, i % 97]);
        }
        // Small targets yield many chunks; a target at least the size of
        // the index yields one.
        match bt.morsels(64) {
            Morsels::Chunks(chunks) => assert!(chunks.len() > 4, "{}", chunks.len()),
            Morsels::Stream(_) => panic!("b-tree should chunk structurally"),
        }
        match bt.morsels(usize::MAX) {
            Morsels::Chunks(chunks) => assert_eq!(chunks.len(), 1),
            Morsels::Stream(_) => panic!("b-tree should chunk structurally"),
        };
    }

    #[test]
    fn empty_and_tiny_adapters_morselize() {
        let bt = BTreeIndex::<2>::new(Order::natural(2));
        assert_eq!(drain(bt.morsels(4)), Vec::<Vec<u32>>::new());
        let mut one = BTreeIndex::<1>::new(Order::natural(1));
        one.insert(&[9]);
        assert_eq!(drain(one.morsels(1024)), vec![vec![9]]);
        assert_eq!(drain(one.morsels(1)), vec![vec![9]]);
        let eq = EqRelIndex::new(Order::natural(2));
        assert_eq!(drain(eq.morsels(8)), Vec::<Vec<u32>>::new());
    }

    #[test]
    fn erase_through_every_adapter() {
        let order = Order::new(vec![1, 0]);
        let mut bt = BTreeIndex::<2>::new(order.clone());
        let mut br = BrieIndex::<2>::new(order);
        for idx in [&mut bt as &mut dyn IndexAdapter, &mut br] {
            idx.insert(&[1, 50]);
            idx.insert(&[2, 40]);
            idx.insert(&[3, 40]);
            assert!(idx.erase(&[1, 50]), "source-order erase encodes");
            assert!(!idx.erase(&[1, 50]));
            assert!(!idx.contains(&[1, 50]));
            assert_eq!(idx.len(), 2);
            // Stored-order prefix: source column 1 == 40.
            assert_eq!(idx.erase_prefix(&[40]), 2);
            assert!(idx.is_empty());
            assert_eq!(idx.scan().collect_tuples(), Vec::<Vec<u32>>::new());
        }

        let mut eq = EqRelIndex::new(Order::natural(2));
        eq.insert(&[1, 2]);
        assert!(eq.erase(&[1, 2]), "pair class splits");
        assert!(!eq.contains(&[1, 2]));
        assert!(eq.contains(&[1, 1]), "reflexive survivors remain");
        assert!(eq.erase_prefix(&[1]) > 0, "prefix erase drops 1's row");
    }

    #[test]
    fn adapters_downcast_to_concrete_types() {
        let idx: Box<dyn IndexAdapter> = Box::new(BTreeIndex::<2>::new(Order::natural(2)));
        assert!(idx.as_any().downcast_ref::<BTreeIndex<2>>().is_some());
        assert!(idx.as_any().downcast_ref::<BTreeIndex<3>>().is_none());
        assert!(idx.as_any().downcast_ref::<BrieIndex<2>>().is_none());
    }
}
