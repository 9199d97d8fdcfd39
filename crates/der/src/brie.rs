//! A Brie: a trie-based set for fixed-arity tuples.
//!
//! The Brie (the paper's reference 29) stores tuples level-by-level: one trie level per
//! tuple column, so tuples sharing prefixes share paths. Prefix queries —
//! the common primitive-search pattern — become a single descent followed
//! by an in-order traversal of a subtree, and dense key spaces compress
//! well. Like [`crate::btree::BTreeIndexSet`], it supports only the natural
//! lexicographic order and raw `u32` elements.
//!
//! Inner levels keep their edges in sorted vectors (binary-searched), and
//! the final level is a sorted vector of values; this favours the
//! insert-then-scan-heavy access pattern of semi-naive evaluation.

use crate::adapter::TupleSet;
use crate::tuple::{cmp_tuples, RamDomain, Tuple};
use std::cmp::Ordering;

/// One trie level.
#[derive(Debug, Clone)]
enum TrieNode {
    /// An inner level: sorted edges labelled by column values.
    Inner(Vec<(RamDomain, TrieNode)>),
    /// The last level: a sorted set of column values.
    Leaf(Vec<RamDomain>),
}

impl TrieNode {
    fn new(depth_remaining: usize) -> Self {
        if depth_remaining <= 1 {
            TrieNode::Leaf(Vec::new())
        } else {
            TrieNode::Inner(Vec::new())
        }
    }
}

/// A set of fixed-arity tuples stored as a trie with one level per column.
///
/// # Example
///
/// ```
/// use stir_der::brie::Brie;
/// use stir_der::TupleSet;
///
/// let mut set = Brie::<2>::new();
/// set.insert([1, 2]);
/// set.insert([1, 3]);
/// set.insert([2, 9]);
/// // prefix query: all tuples starting with 1
/// let hits: Vec<_> = set.range(&[1, 0], &[1, u32::MAX]).collect();
/// assert_eq!(hits, vec![[1, 2], [1, 3]]);
/// ```
#[derive(Debug, Clone)]
pub struct Brie<const N: usize> {
    root: TrieNode,
    len: usize,
}

impl<const N: usize> Brie<N> {
    /// Creates an empty set.
    ///
    /// # Panics
    ///
    /// Panics if `N == 0`; nullary relations are represented at the RAM
    /// level, not by indexes.
    pub fn new() -> Self {
        assert!(N > 0, "Brie requires arity >= 1");
        Brie {
            root: TrieNode::new(N),
            len: 0,
        }
    }
}

impl<const N: usize> TupleSet<N> for Brie<N> {
    type Iter<'a> = BrieIter<'a, N>;

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        self.root = TrieNode::new(N);
        self.len = 0;
    }

    /// Number of allocated trie nodes, including the root.
    fn node_count(&self) -> usize {
        fn walk(n: &TrieNode) -> usize {
            match n {
                TrieNode::Leaf(_) => 1,
                TrieNode::Inner(edges) => 1 + edges.iter().map(|(_, c)| walk(c)).sum::<usize>(),
            }
        }
        walk(&self.root)
    }

    /// Estimated heap bytes held by the trie, counted at allocated
    /// capacity.
    fn estimated_bytes(&self) -> usize {
        use std::mem::size_of;
        fn walk(n: &TrieNode) -> usize {
            match n {
                TrieNode::Leaf(vals) => vals.capacity() * size_of::<RamDomain>(),
                TrieNode::Inner(edges) => {
                    edges.capacity() * size_of::<(RamDomain, TrieNode)>()
                        + edges.iter().map(|(_, c)| walk(c)).sum::<usize>()
                }
            }
        }
        size_of::<TrieNode>() + walk(&self.root)
    }

    fn insert(&mut self, key: Tuple<N>) -> bool {
        let mut node = &mut self.root;
        for (level, &v) in key.iter().enumerate().take(N - 1) {
            let TrieNode::Inner(edges) = node else {
                unreachable!("inner level {level} of arity {N}");
            };
            let idx = match edges.binary_search_by_key(&v, |(val, _)| *val) {
                Ok(i) => i,
                Err(i) => {
                    edges.insert(i, (v, TrieNode::new(N - level - 1)));
                    i
                }
            };
            node = &mut edges[idx].1;
        }
        let TrieNode::Leaf(values) = node else {
            unreachable!("last level of arity {N}");
        };
        match values.binary_search(&key[N - 1]) {
            Ok(_) => false,
            Err(i) => {
                values.insert(i, key[N - 1]);
                self.len += 1;
                true
            }
        }
    }

    /// Removes a tuple, returning `true` if it was present. Emptied
    /// trie paths are pruned on the way back up, so the node count
    /// tracks the live population.
    fn remove(&mut self, key: &Tuple<N>) -> bool {
        fn remove_rec(node: &mut TrieNode, key: &[RamDomain]) -> bool {
            match node {
                TrieNode::Leaf(values) => match values.binary_search(&key[0]) {
                    Ok(i) => {
                        values.remove(i);
                        true
                    }
                    Err(_) => false,
                },
                TrieNode::Inner(edges) => {
                    let Ok(i) = edges.binary_search_by_key(&key[0], |(v, _)| *v) else {
                        return false;
                    };
                    let removed = remove_rec(&mut edges[i].1, &key[1..]);
                    if removed {
                        let empty = match &edges[i].1 {
                            TrieNode::Leaf(values) => values.is_empty(),
                            TrieNode::Inner(children) => children.is_empty(),
                        };
                        if empty {
                            edges.remove(i);
                        }
                    }
                    removed
                }
            }
        }
        let removed = remove_rec(&mut self.root, &key[..]);
        if removed {
            self.len -= 1;
        }
        removed
    }

    fn contains(&self, key: &Tuple<N>) -> bool {
        let mut node = &self.root;
        for &v in key.iter().take(N - 1) {
            let TrieNode::Inner(edges) = node else {
                unreachable!();
            };
            match edges.binary_search_by_key(&v, |(v, _)| *v) {
                Ok(i) => node = &edges[i].1,
                Err(_) => return false,
            }
        }
        let TrieNode::Leaf(values) = node else {
            unreachable!();
        };
        values.binary_search(&key[N - 1]).is_ok()
    }

    fn iter(&self) -> BrieIter<'_, N> {
        self.range(&[0; N], &[RamDomain::MAX; N])
    }

    fn range(&self, lo: &Tuple<N>, hi: &Tuple<N>) -> BrieIter<'_, N> {
        let mut iter = BrieIter {
            frames: Vec::new(),
            current: [0; N],
            lo: *lo,
            hi: *hi,
        };
        if self.len > 0 && cmp_tuples(lo, hi) != Ordering::Greater {
            iter.enter(&self.root, 0, true, true);
        }
        iter
    }

    /// Splits the inclusive window `[lo, hi]` into at most `n` disjoint
    /// sub-iterators that together yield exactly `range(lo, hi)`.
    ///
    /// Split points are drawn from the root level's edge values, so
    /// partitions fall on first-column boundaries: partition `j` covers
    /// `[(s_j, 0, ..), (s_{j+1}-1, MAX, ..)]`. Concatenating the parts in
    /// order reproduces the sequential range scan.
    fn partition_range(&self, lo: &Tuple<N>, hi: &Tuple<N>, n: usize) -> Vec<BrieIter<'_, N>> {
        if n <= 1 || self.len == 0 || cmp_tuples(lo, hi) == Ordering::Greater {
            return vec![self.range(lo, hi)];
        }
        // Candidate splits: first-column values strictly inside the
        // window (a split equal to `lo[0]` would empty the first part).
        let cands: Vec<RamDomain> = match &self.root {
            TrieNode::Inner(edges) => edges
                .iter()
                .map(|(v, _)| *v)
                .filter(|v| *v > lo[0] && *v <= hi[0])
                .collect(),
            TrieNode::Leaf(values) => values
                .iter()
                .copied()
                .filter(|v| *v > lo[0] && *v <= hi[0])
                .collect(),
        };
        if cands.is_empty() {
            return vec![self.range(lo, hi)];
        }
        let k = (n - 1).min(cands.len());
        let splits: Vec<RamDomain> = if cands.len() == k {
            cands
        } else {
            (0..k)
                .map(|j| cands[(j + 1) * cands.len() / (k + 1)])
                .collect()
        };
        let mut parts = Vec::with_capacity(splits.len() + 1);
        let mut start = *lo;
        for &s in &splits {
            let mut end = [RamDomain::MAX; N];
            end[0] = s - 1;
            parts.push(self.range(&start, &end));
            start = [0; N];
            start[0] = s;
        }
        parts.push(self.range(&start, hi));
        parts
    }
}

impl<const N: usize> Default for Brie<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> Extend<Tuple<N>> for Brie<N> {
    fn extend<I: IntoIterator<Item = Tuple<N>>>(&mut self, iter: I) {
        for t in iter {
            self.insert(t);
        }
    }
}

impl<const N: usize> FromIterator<Tuple<N>> for Brie<N> {
    fn from_iter<I: IntoIterator<Item = Tuple<N>>>(iter: I) -> Self {
        let mut set = Self::new();
        set.extend(iter);
        set
    }
}

/// One traversal frame: a node plus the index of the next edge/value to
/// visit, and whether this subtree lies on the lower/upper boundary path
/// (only boundary subtrees need bound comparisons).
#[derive(Debug)]
struct Frame<'a> {
    node: &'a TrieNode,
    next: usize,
    on_lo: bool,
    on_hi: bool,
}

/// Bounded in-order iterator over a [`Brie`].
#[derive(Debug)]
pub struct BrieIter<'a, const N: usize> {
    frames: Vec<Frame<'a>>,
    current: Tuple<N>,
    lo: Tuple<N>,
    hi: Tuple<N>,
}

impl<'a, const N: usize> BrieIter<'a, N> {
    /// Pushes a frame for `node` at trie `level`, positioned at the first
    /// edge/value within bounds.
    fn enter(&mut self, node: &'a TrieNode, level: usize, on_lo: bool, on_hi: bool) {
        let start = if on_lo {
            let target = self.lo[level];
            match node {
                TrieNode::Inner(edges) => edges
                    .binary_search_by_key(&target, |(v, _)| *v)
                    .unwrap_or_else(|i| i),
                TrieNode::Leaf(values) => values.binary_search(&target).unwrap_or_else(|i| i),
            }
        } else {
            0
        };
        self.frames.push(Frame {
            node,
            next: start,
            on_lo,
            on_hi,
        });
    }
}

impl<'a, const N: usize> Iterator for BrieIter<'a, N> {
    type Item = Tuple<N>;

    fn next(&mut self) -> Option<Tuple<N>> {
        loop {
            let level = self.frames.len().checked_sub(1)?;
            let frame = self.frames.last_mut().expect("non-empty");
            match frame.node {
                TrieNode::Leaf(values) => {
                    if frame.next >= values.len() {
                        self.frames.pop();
                        continue;
                    }
                    let v = values[frame.next];
                    if frame.on_hi && v > self.hi[level] {
                        self.frames.pop();
                        continue;
                    }
                    frame.next += 1;
                    self.current[level] = v;
                    return Some(self.current);
                }
                TrieNode::Inner(edges) => {
                    if frame.next >= edges.len() {
                        self.frames.pop();
                        continue;
                    }
                    let (v, child) = &edges[frame.next];
                    let v = *v;
                    if frame.on_hi && v > self.hi[level] {
                        self.frames.pop();
                        continue;
                    }
                    // The child stays on a boundary path only if its edge
                    // value equals the bound at this level.
                    let child_on_lo = frame.on_lo && v == self.lo[level];
                    let child_on_hi = frame.on_hi && v == self.hi[level];
                    frame.next += 1;
                    self.current[level] = v;
                    self.enter(child, level + 1, child_on_lo, child_on_hi);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_brie_behaves() {
        let set = Brie::<3>::new();
        assert!(set.is_empty());
        assert!(!set.contains(&[1, 2, 3]));
        assert_eq!(set.iter().count(), 0);
    }

    #[test]
    fn insert_contains_and_dedupe() {
        let mut set = Brie::<2>::new();
        assert!(set.insert([1, 2]));
        assert!(!set.insert([1, 2]));
        assert!(set.insert([1, 3]));
        assert!(set.contains(&[1, 2]));
        assert!(!set.contains(&[2, 2]));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn arity_one_works() {
        let mut set = Brie::<1>::new();
        for v in [5u32, 1, 3, 3, 9] {
            set.insert([v]);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![[1], [3], [5], [9]]);
        assert_eq!(set.range(&[2], &[5]).collect::<Vec<_>>(), vec![[3], [5]]);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut set = Brie::<3>::new();
        let mut key = 7u32;
        for _ in 0..2000 {
            key = key.wrapping_mul(48271) % 0x7fff_ffff;
            set.insert([key % 13, key % 17, key % 19]);
        }
        let all: Vec<_> = set.iter().collect();
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(all, sorted);
        assert_eq!(all.len(), set.len());
    }

    #[test]
    fn prefix_range_matches_filter() {
        let mut set = Brie::<3>::new();
        for a in 0..5 {
            for b in 0..5 {
                for c in 0..5 {
                    set.insert([a, b, c]);
                }
            }
        }
        let hits: Vec<_> = set.range(&[2, 3, 0], &[2, 3, u32::MAX]).collect();
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|t| t[0] == 2 && t[1] == 3));
    }

    #[test]
    fn general_range_matches_filter() {
        let mut set = Brie::<2>::new();
        for a in 0..8 {
            for b in 0..8 {
                set.insert([a, b]);
            }
        }
        let lo = [3, 5];
        let hi = [5, 1];
        let got: Vec<_> = set.range(&lo, &hi).collect();
        let want: Vec<_> = set.iter().filter(|t| *t >= lo && *t <= hi).collect();
        assert_eq!(got, want);
        assert_eq!(got.first(), Some(&[3, 5]));
        assert_eq!(got.last(), Some(&[5, 1]));
    }

    #[test]
    fn clear_resets() {
        let mut set = Brie::<2>::new();
        set.insert([1, 1]);
        set.clear();
        assert!(set.is_empty());
        assert!(!set.contains(&[1, 1]));
    }

    #[test]
    fn remove_matches_std_btreeset_oracle() {
        let mut set = Brie::<3>::new();
        let mut oracle = std::collections::BTreeSet::new();
        let mut key = 5u32;
        for step in 0..15_000u32 {
            key = key.wrapping_mul(48271) % 0x7fff_ffff;
            let t = [key % 11, key % 13, key % 17];
            if step % 3 == 0 {
                assert_eq!(set.remove(&t), oracle.remove(&t), "step {step}");
            } else {
                assert_eq!(set.insert(t), oracle.insert(t), "step {step}");
            }
            assert_eq!(set.len(), oracle.len(), "step {step}");
        }
        let got: Vec<_> = set.iter().collect();
        let want: Vec<Tuple<3>> = oracle.iter().copied().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn remove_prunes_empty_paths() {
        let mut set = Brie::<3>::new();
        set.insert([1, 2, 3]);
        set.insert([1, 2, 4]);
        set.insert([5, 6, 7]);
        let nodes_before = set.node_count();
        assert!(set.remove(&[5, 6, 7]));
        assert!(!set.remove(&[5, 6, 7]));
        assert!(!set.contains(&[5, 6, 7]));
        assert!(
            set.node_count() < nodes_before,
            "emptied branch should be pruned"
        );
        assert!(set.remove(&[1, 2, 3]));
        assert!(set.remove(&[1, 2, 4]));
        assert!(set.is_empty());
        assert_eq!(set.iter().count(), 0);
        // The drained trie is reusable.
        assert!(set.insert([9, 9, 9]));
        assert!(set.contains(&[9, 9, 9]));
    }

    #[test]
    fn partitions_cover_the_scan_disjointly() {
        let mut set = Brie::<2>::new();
        let mut key = 11u32;
        for _ in 0..3000 {
            key = key.wrapping_mul(48271) % 0x7fff_ffff;
            set.insert([key % 97, key % 53]);
        }
        let expected: Vec<_> = set.iter().collect();
        for n in [1usize, 2, 4, 8, 16] {
            let parts = set.partition(n);
            assert!(parts.len() <= n.max(1));
            let joined: Vec<_> = parts.into_iter().flatten().collect();
            assert_eq!(joined, expected, "n = {n}");
        }
    }

    #[test]
    fn partition_range_matches_range() {
        let mut set = Brie::<2>::new();
        for a in 0..30u32 {
            for b in 0..10u32 {
                set.insert([a, b]);
            }
        }
        let lo = [4u32, 6];
        let hi = [22u32, 3];
        let expected: Vec<_> = set.range(&lo, &hi).collect();
        for n in [2usize, 3, 4, 9] {
            let joined: Vec<_> = set
                .partition_range(&lo, &hi, n)
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(joined, expected, "n = {n}");
        }
        // A window inside one first-column value cannot split.
        assert_eq!(set.partition_range(&[5, 0], &[5, 9], 4).len(), 1);
    }
}
