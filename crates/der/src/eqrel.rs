//! An equivalence relation over `u32` values, backed by a union-find.
//!
//! Soufflé's `eqrel` representation (the paper's reference 40) stores a binary relation
//! that is closed under reflexivity, symmetry, and transitivity in
//! union-find form: inserting `(a, b)` unions the classes of `a` and `b`,
//! and the relation *logically* contains every pair `(x, y)` with `x` and
//! `y` in the same class. Space drops from quadratic to linear while
//! membership tests stay near-constant.
//!
//! Iteration materializes pairs on the fly in sorted order so that the
//! structure is observationally equivalent to a B-tree holding the closure.

use crate::adapter::TupleSet;
use crate::tuple::RamDomain;
use std::collections::HashMap;

type Pair = [RamDomain; 2];

/// A binary relation maintained as its reflexive-symmetric-transitive
/// closure.
///
/// # Example
///
/// ```
/// use stir_der::eqrel::EquivalenceRelation;
/// use stir_der::TupleSet;
///
/// let mut rel = EquivalenceRelation::new();
/// rel.insert([1, 2]);
/// rel.insert([2, 3]);
/// assert!(rel.contains(&[1, 3])); // transitivity
/// assert!(rel.contains(&[3, 1])); // symmetry
/// assert!(rel.contains(&[2, 2])); // reflexivity
/// assert_eq!(rel.len(), 9);    // {1,2,3} x {1,2,3}
/// ```
#[derive(Debug, Clone, Default)]
pub struct EquivalenceRelation {
    /// Maps a domain value to its dense node id.
    ids: HashMap<RamDomain, usize>,
    /// Union-find parent pointers over dense ids.
    parent: Vec<usize>,
    /// Members of each class, stored at the class root (empty elsewhere).
    members: Vec<Vec<RamDomain>>,
    /// Total number of logical pairs, i.e. sum of |class|^2.
    pairs: usize,
}

impl EquivalenceRelation {
    /// Creates an empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    fn node(&mut self, v: RamDomain) -> usize {
        if let Some(&id) = self.ids.get(&v) {
            return id;
        }
        let id = self.parent.len();
        self.ids.insert(v, id);
        self.parent.push(id);
        self.members.push(vec![v]);
        self.pairs += 1; // the reflexive pair (v, v)
        id
    }

    /// Root lookup without path mutation, usable from `&self`.
    fn find(&self, mut id: usize) -> usize {
        while self.parent[id] != id {
            id = self.parent[id];
        }
        id
    }

    /// Root lookup with full path compression.
    fn find_mut(&mut self, id: usize) -> usize {
        let root = self.find(id);
        let mut cur = id;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// The members of `a`'s class in sorted order (empty if `a` is
    /// unknown).
    pub fn class_of(&self, a: RamDomain) -> Vec<RamDomain> {
        let Some(&ia) = self.ids.get(&a) else {
            return Vec::new();
        };
        let mut out = self.members[self.find(ia)].clone();
        out.sort_unstable();
        out
    }

    /// Logical pairs within the inclusive bounds, in sorted order, as one
    /// flat buffer: the closure is enumerated class by class, never
    /// stored.
    fn pairs_in(&self, lo: &Pair, hi: &Pair) -> Vec<Pair> {
        if lo > hi {
            return Vec::new();
        }
        let mut firsts: Vec<RamDomain> = self
            .ids
            .keys()
            .copied()
            .filter(|&x| x >= lo[0] && x <= hi[0])
            .collect();
        firsts.sort_unstable();
        let full = *lo == [0, 0] && *hi == [RamDomain::MAX; 2];
        let mut out = Vec::with_capacity(if full { self.pairs } else { 0 });
        for x in firsts {
            for y in self.class_of(x) {
                let pair = [x, y];
                if pair >= *lo && pair <= *hi {
                    out.push(pair);
                }
            }
        }
        out
    }
}

impl TupleSet<2> for EquivalenceRelation {
    type Iter<'a> = std::vec::IntoIter<Pair>;

    /// Number of *logical* pairs in the closure.
    fn len(&self) -> usize {
        self.pairs
    }

    /// Number of distinct equivalence classes.
    fn node_count(&self) -> usize {
        self.members.iter().filter(|m| !m.is_empty()).count()
    }

    /// Estimated heap bytes held by the id map, the union-find arrays and
    /// the per-class member lists, counted at allocated capacity.
    fn estimated_bytes(&self) -> usize {
        use std::mem::size_of;
        let ids = self.ids.capacity() * (size_of::<RamDomain>() + 2 * size_of::<usize>());
        let parent = self.parent.capacity() * size_of::<usize>();
        let members: usize = self
            .members
            .iter()
            .map(|m| size_of::<Vec<RamDomain>>() + m.capacity() * size_of::<RamDomain>())
            .sum();
        ids + parent + members
    }

    fn clear(&mut self) {
        self.ids.clear();
        self.parent.clear();
        self.members.clear();
        self.pairs = 0;
    }

    /// Inserts the pair `(a, b)`, closing the relation under equivalence.
    ///
    /// Returns `true` if the closure grew (i.e. `a` and `b` were not
    /// already related).
    fn insert(&mut self, [a, b]: Pair) -> bool {
        let ia = self.node(a);
        let ib = self.node(b);
        let ra = self.find_mut(ia);
        let rb = self.find_mut(ib);
        if ra == rb {
            return false;
        }
        // Union by size: splice the smaller member list into the larger.
        let (big, small) = if self.members[ra].len() >= self.members[rb].len() {
            (ra, rb)
        } else {
            (rb, ra)
        };
        let moved = std::mem::take(&mut self.members[small]);
        self.pairs += 2 * moved.len() * self.members[big].len();
        self.members[big].extend(moved);
        self.parent[small] = big;
        true
    }

    /// Removes the pair `(a, b)` (and its symmetric twin) and rebuilds
    /// the union-find as the closure of the surviving pairs. Returns
    /// `true` if the logical pair count shrank.
    ///
    /// This is a *conservative* erase: the structure stores classes, not
    /// the generator pairs that produced them, so the survivors of a
    /// class of three or more still connect `a` and `b` transitively and
    /// the erase is a no-op on the closure. Callers that need
    /// generator-accurate deletion (the resident engine's retraction
    /// path) must instead rebuild the relation from the surviving
    /// *input* pairs.
    fn remove(&mut self, &[a, b]: &Pair) -> bool {
        if !self.contains(&[a, b]) {
            return false;
        }
        let survivors: Vec<Pair> = self
            .iter()
            .filter(|&[x, y]| !(x == a && y == b || x == b && y == a))
            .collect();
        let before = self.pairs;
        self.clear();
        for pair in survivors {
            self.insert(pair);
        }
        self.pairs < before
    }

    /// Whether `a` and `b` are in the same class.
    fn contains(&self, [a, b]: &Pair) -> bool {
        match (self.ids.get(a), self.ids.get(b)) {
            (Some(&ia), Some(&ib)) => self.find(ia) == self.find(ib),
            _ => false,
        }
    }

    /// All logical pairs `(x, y)` in sorted order.
    fn iter(&self) -> Self::Iter<'_> {
        self.range(&[0, 0], &[RamDomain::MAX, RamDomain::MAX])
    }

    /// Logical pairs within the inclusive bounds, in sorted order; the
    /// common case is `lo = [a, 0]`, `hi = [a, MAX]`, which enumerates
    /// `a`'s class.
    fn range(&self, lo: &Pair, hi: &Pair) -> Self::Iter<'_> {
        self.pairs_in(lo, hi).into_iter()
    }

    /// Cuts the window's flat pair buffer into at most `n` chunks, each
    /// sized from the whole set so that a window of one class is not
    /// shredded into tiny morsels.
    fn partition_range(&self, lo: &Pair, hi: &Pair, n: usize) -> Vec<Self::Iter<'_>> {
        let mut pairs = self.pairs_in(lo, hi);
        let size = self.pairs.div_ceil(n.max(1)).max(1);
        let mut parts = Vec::new();
        while pairs.len() > size {
            parts.push(pairs.split_off(pairs.len() - size).into_iter());
        }
        parts.push(pairs.into_iter());
        parts.reverse();
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_relation_behaves() {
        let rel = EquivalenceRelation::new();
        assert!(rel.is_empty());
        assert!(!rel.contains(&[1, 1]));
        assert!(rel.iter().next().is_none());
    }

    #[test]
    fn closure_properties_hold() {
        let mut rel = EquivalenceRelation::new();
        assert!(rel.insert([1, 2]));
        assert!(rel.contains(&[1, 1]));
        assert!(rel.contains(&[2, 1]));
        assert!(!rel.contains(&[1, 3]));
        assert!(rel.insert([3, 4]));
        assert!(rel.insert([2, 3])); // merges {1,2} and {3,4}
        assert!(rel.contains(&[1, 4]));
        assert!(!rel.insert([4, 1])); // already related
    }

    #[test]
    fn pair_count_is_sum_of_squares() {
        let mut rel = EquivalenceRelation::new();
        rel.insert([1, 2]);
        rel.insert([3, 3]);
        assert_eq!(rel.len(), 4 + 1);
        rel.insert([2, 3]);
        assert_eq!(rel.len(), 9);
        assert_eq!(rel.iter().count(), 9);
    }

    #[test]
    fn iteration_is_sorted_and_closed() {
        let mut rel = EquivalenceRelation::new();
        rel.insert([5, 1]);
        rel.insert([9, 9]);
        rel.insert([1, 7]);
        let pairs: Vec<_> = rel.iter().collect();
        let mut sorted = pairs.clone();
        sorted.sort();
        assert_eq!(pairs, sorted);
        assert!(pairs.contains(&[7, 5]));
        assert!(pairs.contains(&[9, 9]));
        assert_eq!(pairs.len(), 9 + 1);
    }

    #[test]
    fn range_enumerates_one_class() {
        let mut rel = EquivalenceRelation::new();
        rel.insert([1, 2]);
        rel.insert([2, 9]);
        rel.insert([4, 5]);
        let hits: Vec<_> = rel.range(&[2, 0], &[2, u32::MAX]).collect();
        assert_eq!(hits, vec![[2, 1], [2, 2], [2, 9]]);
        assert_eq!(rel.range(&[3, 0], &[3, u32::MAX]).next(), None);
    }

    #[test]
    fn large_unions_stay_consistent() {
        let mut rel = EquivalenceRelation::new();
        // Chain 0-1-2-...-199 => one class of 200.
        for v in 0..199u32 {
            rel.insert([v, v + 1]);
        }
        assert_eq!(rel.len(), 200 * 200);
        assert!(rel.contains(&[0, 199]));
        assert_eq!(rel.class_of(57).len(), 200);
    }

    #[test]
    fn partitions_are_sized_from_the_whole_set() {
        let mut rel = EquivalenceRelation::new();
        for v in 0..10 {
            rel.insert([v, v]);
        }
        rel.insert([20, 21]);
        // 14 pairs in 7 parts: every chunk holds 2, so the 2-pair window
        // of 20's class stays one chunk.
        let window = rel.partition_range(&[20, 0], &[20, u32::MAX], 7);
        assert_eq!(window.len(), 1);
        let parts = rel.partition(7);
        assert_eq!(parts.len(), 7);
        let joined: Vec<Pair> = parts.into_iter().flatten().collect();
        assert_eq!(joined, rel.iter().collect::<Vec<_>>());
    }

    #[test]
    fn clear_resets() {
        let mut rel = EquivalenceRelation::new();
        rel.insert([1, 2]);
        rel.clear();
        assert!(rel.is_empty());
        assert!(!rel.contains(&[1, 2]));
    }

    #[test]
    fn erase_splits_a_pair_class() {
        let mut rel = EquivalenceRelation::new();
        rel.insert([1, 2]);
        rel.insert([4, 5]);
        assert_eq!(rel.len(), 8);
        assert!(rel.remove(&[1, 2]));
        assert!(!rel.contains(&[1, 2]));
        assert!(!rel.contains(&[2, 1]));
        assert!(rel.contains(&[1, 1]), "reflexive survivors stay");
        assert!(rel.contains(&[2, 2]));
        assert!(rel.contains(&[4, 5]), "other classes untouched");
        assert_eq!(rel.len(), 6);
        assert!(!rel.remove(&[1, 2]), "already gone");
        assert!(!rel.remove(&[7, 8]), "unknown pair");
    }

    #[test]
    fn erase_is_conservative_on_larger_classes() {
        // {1,2,3}: the survivors (1,3),(3,2) re-derive (1,2) in the
        // closure, so the erase is a documented no-op.
        let mut rel = EquivalenceRelation::new();
        rel.insert([1, 2]);
        rel.insert([2, 3]);
        assert!(!rel.remove(&[1, 2]));
        assert!(rel.contains(&[1, 2]));
        assert_eq!(rel.len(), 9);
    }

    #[test]
    fn erase_reflexive_pair_drops_a_singleton() {
        let mut rel = EquivalenceRelation::new();
        rel.insert([7, 7]);
        rel.insert([1, 2]);
        assert!(rel.remove(&[7, 7]));
        assert!(!rel.contains(&[7, 7]));
        assert_eq!(rel.len(), 4);
    }
}
