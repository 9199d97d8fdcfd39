//! A B-tree set specialized for fixed-arity tuples.
//!
//! This is the workhorse DER structure (the paper's reference 30): a set of `[u32; N]`
//! tuples ordered by the natural lexicographic order, supporting inserts,
//! membership tests, full scans, and — crucially — *primitive searches*:
//! iteration over all tuples between an inclusive lower and upper bound,
//! which the RAM level uses to realize prefix queries such as
//! "all tuples whose first column equals `v`".
//!
//! The arity is a `const` generic, so every comparison and copy below is
//! monomorphized and unrolled by the compiler — the Rust analogue of the
//! C++ template specialization the paper de-specializes. The structure
//! deliberately supports **only** the natural order; other orders are
//! obtained by permuting tuples before insertion (see [`crate::order`]).

use crate::adapter::TupleSet;
use crate::tuple::{cmp_tuples, Tuple};
use std::cmp::Ordering;

/// Maximum number of keys per node (`2*B - 1` for minimum degree `B = 16`).
///
/// Wide nodes keep the tree shallow and make the per-node binary search
/// cache-friendly, mirroring Soufflé's wide-node B-tree design.
const MAX_KEYS: usize = 31;

/// A node: `children` is empty for leaves, otherwise
/// `children.len() == keys.len() + 1`.
#[derive(Debug, Clone)]
struct Node<const N: usize> {
    keys: Vec<Tuple<N>>,
    // One heap allocation per node (not inline in the parent's vec), as
    // in the paper's C++ B-tree; `bytes()` counts nodes on that basis.
    #[allow(clippy::vec_box)]
    children: Vec<Box<Node<N>>>,
}

impl<const N: usize> Node<N> {
    fn new_leaf() -> Self {
        Node {
            keys: Vec::with_capacity(MAX_KEYS),
            children: Vec::new(),
        }
    }

    #[inline]
    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    #[inline]
    fn is_full(&self) -> bool {
        self.keys.len() == MAX_KEYS
    }

    /// Binary search within the node.
    #[inline]
    fn find(&self, key: &Tuple<N>) -> Result<usize, usize> {
        self.keys.binary_search_by(|k| cmp_tuples(k, key))
    }

    /// Splits the full child at `idx`, promoting its median key into `self`.
    fn split_child(&mut self, idx: usize) {
        let mid = MAX_KEYS / 2;
        let child = &mut self.children[idx];
        let mut right = Box::new(Node {
            keys: child.keys.split_off(mid + 1),
            children: if child.is_leaf() {
                Vec::new()
            } else {
                child.children.split_off(mid + 1)
            },
        });
        right.keys.reserve(MAX_KEYS - right.keys.len());
        let median = child.keys.pop().expect("full child has a median");
        self.keys.insert(idx, median);
        self.children.insert(idx + 1, right);
    }

    /// Inserts into a node that is known not to be full.
    fn insert_nonfull(&mut self, key: Tuple<N>) -> bool {
        match self.find(&key) {
            Ok(_) => false,
            Err(mut pos) => {
                if self.is_leaf() {
                    self.keys.insert(pos, key);
                    return true;
                }
                if self.children[pos].is_full() {
                    self.split_child(pos);
                    match cmp_tuples(&key, &self.keys[pos]) {
                        Ordering::Equal => return false,
                        Ordering::Greater => pos += 1,
                        Ordering::Less => {}
                    }
                }
                self.children[pos].insert_nonfull(key)
            }
        }
    }

    fn contains(&self, key: &Tuple<N>) -> bool {
        match self.find(key) {
            Ok(_) => true,
            Err(pos) => !self.is_leaf() && self.children[pos].contains(key),
        }
    }
}

/// An ordered set of fixed-arity tuples backed by a B-tree.
///
/// # Example
///
/// ```
/// use stir_der::btree::BTreeIndexSet;
/// use stir_der::TupleSet;
///
/// let mut set = BTreeIndexSet::<2>::new();
/// assert!(set.insert([1, 2]));
/// assert!(!set.insert([1, 2])); // set semantics
/// assert!(set.contains(&[1, 2]));
/// let all: Vec<_> = set.iter().collect();
/// assert_eq!(all, vec![[1, 2]]);
/// ```
#[derive(Debug, Clone)]
pub struct BTreeIndexSet<const N: usize> {
    root: Box<Node<N>>,
    len: usize,
}

impl<const N: usize> BTreeIndexSet<N> {
    /// Creates an empty set.
    pub fn new() -> Self {
        BTreeIndexSet {
            root: Box::new(Node::new_leaf()),
            len: 0,
        }
    }

    /// Iterates starting from the first tuple `>= lo`.
    pub fn lower_bound(&self, lo: &Tuple<N>) -> Iter<'_, N> {
        let mut iter = Iter {
            stack: Vec::new(),
            hi: None,
            hi_exclusive: false,
        };
        if self.len > 0 {
            iter.descend_lower_bound(&self.root, lo);
        }
        iter
    }

    fn remove_rec(node: &mut Node<N>, key: &Tuple<N>) -> bool {
        match node.find(key) {
            Ok(pos) => {
                if node.is_leaf() {
                    node.keys.remove(pos);
                } else if let Some(pred) = Self::pop_max(&mut node.children[pos]) {
                    node.keys[pos] = pred;
                } else if let Some(succ) = Self::pop_min(&mut node.children[pos + 1]) {
                    node.keys[pos] = succ;
                } else {
                    // Both adjacent subtrees are drained: drop the key and
                    // one empty child to keep children.len() == keys.len()+1.
                    node.keys.remove(pos);
                    node.children.remove(pos);
                }
                true
            }
            Err(pos) => !node.is_leaf() && Self::remove_rec(&mut node.children[pos], key),
        }
    }

    /// Extracts the largest key of the subtree, or `None` if it is empty.
    fn pop_max(node: &mut Node<N>) -> Option<Tuple<N>> {
        if node.is_leaf() {
            return node.keys.pop();
        }
        let last = node.children.len() - 1;
        if let Some(k) = Self::pop_max(&mut node.children[last]) {
            return Some(k);
        }
        // Rightmost subtree is empty: yield the node's own last key and
        // drop the drained child alongside it.
        let k = node.keys.pop()?;
        node.children.pop();
        Some(k)
    }

    /// Extracts the smallest key of the subtree, or `None` if it is empty.
    fn pop_min(node: &mut Node<N>) -> Option<Tuple<N>> {
        if node.is_leaf() {
            if node.keys.is_empty() {
                return None;
            }
            return Some(node.keys.remove(0));
        }
        if let Some(k) = Self::pop_min(&mut node.children[0]) {
            return Some(k);
        }
        if node.keys.is_empty() {
            return None;
        }
        let k = node.keys.remove(0);
        node.children.remove(0);
        Some(k)
    }
}

impl<const N: usize> TupleSet<N> for BTreeIndexSet<N> {
    type Iter<'a> = Iter<'a, N>;

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        *self.root = Node::new_leaf();
        self.len = 0;
    }

    /// Number of allocated B-tree nodes, including the (possibly empty)
    /// root.
    fn node_count(&self) -> usize {
        fn walk<const N: usize>(n: &Node<N>) -> usize {
            1 + n.children.iter().map(|c| walk(c)).sum::<usize>()
        }
        walk(&self.root)
    }

    /// Estimated heap bytes held by the tree: node headers, key storage
    /// and child pointers, counted at allocated capacity.
    fn estimated_bytes(&self) -> usize {
        fn walk<const N: usize>(n: &Node<N>) -> usize {
            std::mem::size_of::<Node<N>>()
                + n.keys.capacity() * std::mem::size_of::<Tuple<N>>()
                + n.children.capacity() * std::mem::size_of::<Box<Node<N>>>()
                + n.children.iter().map(|c| walk(c)).sum::<usize>()
        }
        walk(&self.root)
    }

    fn insert(&mut self, key: Tuple<N>) -> bool {
        if self.root.is_full() {
            let old_root = std::mem::replace(&mut *self.root, Node::new_leaf());
            self.root.children.push(Box::new(old_root));
            self.root.split_child(0);
        }
        let inserted = self.root.insert_nonfull(key);
        if inserted {
            self.len += 1;
        }
        inserted
    }

    fn contains(&self, key: &Tuple<N>) -> bool {
        self.root.contains(key)
    }

    /// Removes a tuple, returning `true` if it was present.
    ///
    /// Deletion is structural but *lazy*: keys leave their node (an
    /// internal key is replaced by its in-order predecessor or
    /// successor) and no underflow rebalancing happens, so nodes may
    /// shrink below the usual B-tree minimum. Search, iteration and
    /// partitioning only rely on sorted keys and
    /// `children.len() == keys.len() + 1`, both of which are preserved;
    /// the empty root chain is collapsed so the tree height tracks the
    /// live population.
    fn remove(&mut self, key: &Tuple<N>) -> bool {
        let removed = Self::remove_rec(&mut self.root, key);
        if removed {
            self.len -= 1;
            while self.root.keys.is_empty() && self.root.children.len() == 1 {
                let child = self.root.children.pop().expect("single child");
                *self.root = *child;
            }
        }
        removed
    }

    fn iter(&self) -> Iter<'_, N> {
        let mut iter = Iter {
            stack: Vec::new(),
            hi: None,
            hi_exclusive: false,
        };
        if self.len > 0 {
            iter.descend_left(&self.root);
        }
        iter
    }

    fn range(&self, lo: &Tuple<N>, hi: &Tuple<N>) -> Iter<'_, N> {
        let mut iter = Iter {
            stack: Vec::new(),
            hi: Some(*hi),
            hi_exclusive: false,
        };
        if self.len > 0 && cmp_tuples(lo, hi) != Ordering::Greater {
            iter.descend_lower_bound(&self.root, lo);
        }
        iter
    }

    /// Splits the inclusive window `[lo, hi]` into at most `n` disjoint
    /// sub-iterators that together yield exactly `range(lo, hi)`.
    ///
    /// Split keys are drawn from the top two node levels (Soufflé's
    /// partitioning scheme for parallel scans), so each partition is
    /// balanced to within one third-level subtree. Partitions are
    /// half-open `[start, split)` except the last, which is closed at
    /// `hi`; concatenating them in order reproduces the sequential scan.
    fn partition_range(&self, lo: &Tuple<N>, hi: &Tuple<N>, n: usize) -> Vec<Iter<'_, N>> {
        if n <= 1 || self.len == 0 || cmp_tuples(lo, hi) == Ordering::Greater {
            return vec![self.range(lo, hi)];
        }
        // Candidate split keys: every key in the top two levels that lies
        // strictly inside the window (a split equal to `lo` would leave an
        // empty first partition).
        let mut cands: Vec<Tuple<N>> = Vec::new();
        {
            let mut push = |k: &Tuple<N>| {
                if cmp_tuples(k, lo) == Ordering::Greater && cmp_tuples(k, hi) != Ordering::Greater
                {
                    cands.push(*k);
                }
            };
            let root = &self.root;
            if root.is_leaf() {
                root.keys.iter().for_each(&mut push);
            } else {
                for (i, child) in root.children.iter().enumerate() {
                    child.keys.iter().for_each(&mut push);
                    if i < root.keys.len() {
                        push(&root.keys[i]);
                    }
                }
            }
        }
        if cands.is_empty() {
            return vec![self.range(lo, hi)];
        }
        let k = (n - 1).min(cands.len());
        let splits: Vec<Tuple<N>> = if cands.len() == k {
            cands
        } else {
            // Evenly spaced picks; indices are strictly increasing because
            // cands.len() >= k + 1, and keys are distinct.
            (0..k)
                .map(|j| cands[(j + 1) * cands.len() / (k + 1)])
                .collect()
        };
        let mut parts = Vec::with_capacity(splits.len() + 1);
        let mut start = *lo;
        for split in &splits {
            let mut it = Iter {
                stack: Vec::new(),
                hi: Some(*split),
                hi_exclusive: true,
            };
            it.descend_lower_bound(&self.root, &start);
            parts.push(it);
            start = *split;
        }
        let mut last = Iter {
            stack: Vec::new(),
            hi: Some(*hi),
            hi_exclusive: false,
        };
        last.descend_lower_bound(&self.root, &start);
        parts.push(last);
        parts
    }
}

impl<const N: usize> Default for BTreeIndexSet<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> Extend<Tuple<N>> for BTreeIndexSet<N> {
    fn extend<I: IntoIterator<Item = Tuple<N>>>(&mut self, iter: I) {
        for t in iter {
            self.insert(t);
        }
    }
}

impl<const N: usize> FromIterator<Tuple<N>> for BTreeIndexSet<N> {
    fn from_iter<I: IntoIterator<Item = Tuple<N>>>(iter: I) -> Self {
        let mut set = Self::new();
        set.extend(iter);
        set
    }
}

/// In-order iterator over a [`BTreeIndexSet`], optionally bounded above.
///
/// Stack frames are `(node, i)` where key `i` of `node` is the next key to
/// visit and the subtree `children[i]` has already been visited (or
/// skipped, for lower-bound starts).
#[derive(Debug)]
pub struct Iter<'a, const N: usize> {
    stack: Vec<(&'a Node<N>, usize)>,
    hi: Option<Tuple<N>>,
    /// When set, `hi` is an *exclusive* upper bound — used by
    /// [`BTreeIndexSet::partition_range`] so that a split key starts the
    /// next partition instead of ending this one.
    hi_exclusive: bool,
}

impl<'a, const N: usize> Iter<'a, N> {
    fn descend_left(&mut self, mut node: &'a Node<N>) {
        loop {
            self.stack.push((node, 0));
            if node.is_leaf() {
                return;
            }
            node = &node.children[0];
        }
    }

    /// Positions the stack at the first key `>= lo`.
    fn descend_lower_bound(&mut self, mut node: &'a Node<N>, lo: &Tuple<N>) {
        loop {
            let pos = match node.find(lo) {
                Ok(p) => {
                    // Exact hit: the subtree left of `keys[p]` holds only
                    // smaller keys, so start right at the key.
                    self.stack.push((node, p));
                    return;
                }
                Err(p) => p,
            };
            self.stack.push((node, pos));
            if node.is_leaf() {
                return;
            }
            node = &node.children[pos];
        }
    }
}

impl<const N: usize> Iterator for Iter<'_, N> {
    type Item = Tuple<N>;

    fn next(&mut self) -> Option<Tuple<N>> {
        loop {
            let (node, i) = *self.stack.last()?;
            if i >= node.keys.len() {
                self.stack.pop();
                continue;
            }
            let key = &node.keys[i];
            if let Some(hi) = &self.hi {
                let past = match cmp_tuples(key, hi) {
                    Ordering::Greater => true,
                    Ordering::Equal => self.hi_exclusive,
                    Ordering::Less => false,
                };
                if past {
                    // Keys only grow from here; fuse the iterator.
                    self.stack.clear();
                    return None;
                }
            }
            self.stack.last_mut().expect("frame exists").1 = i + 1;
            if !node.is_leaf() {
                self.descend_left(&node.children[i + 1]);
            }
            return Some(*key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect<const N: usize>(it: Iter<'_, N>) -> Vec<Tuple<N>> {
        it.collect()
    }

    #[test]
    fn empty_set_behaves() {
        let set = BTreeIndexSet::<2>::new();
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert!(!set.contains(&[0, 0]));
        assert_eq!(collect(set.iter()), Vec::<Tuple<2>>::new());
    }

    #[test]
    fn insert_dedupes_and_counts() {
        let mut set = BTreeIndexSet::<1>::new();
        assert!(set.insert([5]));
        assert!(set.insert([3]));
        assert!(!set.insert([5]));
        assert_eq!(set.len(), 2);
        assert_eq!(collect(set.iter()), vec![[3], [5]]);
    }

    #[test]
    fn many_inserts_stay_sorted_and_complete() {
        let mut set = BTreeIndexSet::<2>::new();
        // Insert in a scrambled order large enough to force many splits.
        let n = 10_000u32;
        let mut key = 1u32;
        for _ in 0..n {
            key = key.wrapping_mul(48271) % 0x7fff_ffff;
            set.insert([key % 500, key % 991]);
        }
        let all = collect(set.iter());
        let mut expected: Vec<Tuple<2>> = all.clone();
        expected.sort();
        expected.dedup();
        assert_eq!(all, expected, "iteration is sorted and duplicate-free");
        for t in &all {
            assert!(set.contains(t));
        }
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn range_returns_inclusive_window() {
        let mut set = BTreeIndexSet::<2>::new();
        for a in 0..10 {
            for b in 0..10 {
                set.insert([a, b]);
            }
        }
        let hits = collect(set.range(&[3, 0], &[3, u32::MAX]));
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|t| t[0] == 3));

        let window = collect(set.range(&[4, 7], &[5, 2]));
        assert_eq!(window, vec![[4, 7], [4, 8], [4, 9], [5, 0], [5, 1], [5, 2]]);
    }

    #[test]
    fn empty_range_yields_nothing() {
        let mut set = BTreeIndexSet::<1>::new();
        set.insert([10]);
        assert_eq!(collect(set.range(&[11], &[20])), Vec::<Tuple<1>>::new());
        assert_eq!(collect(set.range(&[5], &[3])), Vec::<Tuple<1>>::new());
    }

    #[test]
    fn lower_bound_starts_at_first_ge() {
        let mut set = BTreeIndexSet::<1>::new();
        for v in [2u32, 4, 6, 8] {
            set.insert([v]);
        }
        assert_eq!(collect(set.lower_bound(&[5])), vec![[6], [8]]);
        assert_eq!(collect(set.lower_bound(&[4])), vec![[4], [6], [8]]);
        assert_eq!(collect(set.lower_bound(&[9])), Vec::<Tuple<1>>::new());
    }

    #[test]
    fn clear_empties_the_set() {
        let mut set: BTreeIndexSet<1> = (0..100u32).map(|v| [v]).collect();
        assert_eq!(set.len(), 100);
        set.clear();
        assert!(set.is_empty());
        assert!(!set.contains(&[42]));
        set.insert([7]);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn partitions_cover_the_scan_disjointly() {
        let mut set = BTreeIndexSet::<2>::new();
        let mut key = 1u32;
        for _ in 0..5_000 {
            key = key.wrapping_mul(48271) % 0x7fff_ffff;
            set.insert([key % 700, key % 991]);
        }
        let expected = collect(set.iter());
        for n in [1usize, 2, 3, 4, 7, 16] {
            let parts = set.partition(n);
            assert!(parts.len() <= n.max(1), "at most {n} partitions");
            let mut joined: Vec<Tuple<2>> = Vec::new();
            for p in parts {
                joined.extend(p);
            }
            // Concatenation in order == sequential scan, which also
            // proves disjointness (no duplicates) and coverage.
            assert_eq!(joined, expected, "n = {n}");
        }
    }

    #[test]
    fn partition_range_matches_range() {
        let mut set = BTreeIndexSet::<2>::new();
        for a in 0..60u32 {
            for b in 0..20u32 {
                set.insert([a, b]);
            }
        }
        let lo = [7u32, 3];
        let hi = [41u32, 11];
        let expected = collect(set.range(&lo, &hi));
        for n in [1usize, 2, 4, 8] {
            let mut joined: Vec<Tuple<2>> = Vec::new();
            for p in set.partition_range(&lo, &hi, n) {
                joined.extend(p);
            }
            assert_eq!(joined, expected, "n = {n}");
        }
        // Degenerate windows still behave.
        assert!(set
            .partition_range(&[5, 5], &[5, 5], 4)
            .into_iter()
            .flatten()
            .eq([[5u32, 5]]));
        assert_eq!(
            set.partition_range(&[9, 9], &[2, 2], 4)
                .into_iter()
                .flatten()
                .count(),
            0
        );
    }

    #[test]
    fn partitioning_tiny_and_empty_sets() {
        let empty = BTreeIndexSet::<1>::new();
        assert_eq!(empty.partition(4).into_iter().flatten().count(), 0);
        let mut tiny = BTreeIndexSet::<1>::new();
        tiny.insert([3]);
        tiny.insert([8]);
        let joined: Vec<Tuple<1>> = tiny.partition(4).into_iter().flatten().collect();
        assert_eq!(joined, vec![[3], [8]]);
    }

    #[test]
    fn remove_matches_std_btreeset_oracle() {
        let mut set = BTreeIndexSet::<2>::new();
        let mut oracle = std::collections::BTreeSet::new();
        let mut key = 1u32;
        // Interleave inserts and removes over a small key space so
        // removals hit leaves, internal keys, and absent tuples alike.
        for step in 0..20_000u32 {
            key = key.wrapping_mul(48271) % 0x7fff_ffff;
            let t = [key % 89, key % 97];
            if step % 3 == 0 {
                assert_eq!(set.remove(&t), oracle.remove(&t), "step {step}");
            } else {
                assert_eq!(set.insert(t), oracle.insert(t), "step {step}");
            }
            assert_eq!(set.len(), oracle.len(), "step {step}");
        }
        let got = collect(set.iter());
        let want: Vec<Tuple<2>> = oracle.iter().copied().collect();
        assert_eq!(got, want, "iteration after mixed insert/remove");
        for t in &want {
            assert!(set.contains(t));
        }
    }

    #[test]
    fn remove_drains_to_empty_and_reuses() {
        let mut set: BTreeIndexSet<1> = (0..2_000u32).map(|v| [v]).collect();
        for v in 0..2_000u32 {
            assert!(set.remove(&[v]));
            assert!(!set.remove(&[v]), "double remove is a no-op");
        }
        assert!(set.is_empty());
        assert_eq!(collect(set.iter()), Vec::<Tuple<1>>::new());
        assert!(set.insert([7]));
        assert!(set.contains(&[7]));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn range_and_partition_survive_removals() {
        let mut set = BTreeIndexSet::<2>::new();
        for a in 0..50u32 {
            for b in 0..10u32 {
                set.insert([a, b]);
            }
        }
        for a in 0..50u32 {
            for b in 0..10u32 {
                if (a + b) % 3 == 0 {
                    assert!(set.remove(&[a, b]));
                }
            }
        }
        let expected = collect(set.iter());
        assert!(expected.iter().all(|[a, b]| (a + b) % 3 != 0));
        for n in [1usize, 2, 4, 8] {
            let mut joined: Vec<Tuple<2>> = Vec::new();
            for p in set.partition(n) {
                joined.extend(p);
            }
            assert_eq!(joined, expected, "n = {n}");
        }
        let hits = collect(set.range(&[7, 0], &[7, u32::MAX]));
        assert!(hits.iter().all(|t| t[0] == 7 && (t[0] + t[1]) % 3 != 0));
    }

    #[test]
    fn extremes_are_storable() {
        let mut set = BTreeIndexSet::<2>::new();
        set.insert([0, 0]);
        set.insert([u32::MAX, u32::MAX]);
        assert!(set.contains(&[0, 0]));
        assert!(set.contains(&[u32::MAX, u32::MAX]));
        assert_eq!(collect(set.range(&[0, 0], &[u32::MAX, u32::MAX])).len(), 2);
    }
}
