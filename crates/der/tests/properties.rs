//! Randomized model tests: every DER structure must behave exactly like a
//! reference `std::collections::BTreeSet` model under random workloads.
//!
//! Deterministic seeded generation (splitmix64) stands in for proptest,
//! which is not vendored; each case runs over a fixed set of seeds so
//! failures reproduce exactly.

use std::collections::BTreeSet;
use stir_der::adapter::IndexAdapter;
use stir_der::brie::Brie;
use stir_der::btree::BTreeIndexSet;
use stir_der::dynindex::DynBTreeIndex;
use stir_der::eqrel::EquivalenceRelation;
use stir_der::factory::{new_index, IndexSpec, Representation};
use stir_der::iter::{BufferedTupleIter, TupleIter};
use stir_der::order::Order;
use stir_der::TupleSet;

struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            state: seed.wrapping_mul(2654435769).wrapping_add(1),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Small domains provoke duplicates and shared prefixes.
    fn tuple3(&mut self) -> [u32; 3] {
        [
            self.below(20) as u32,
            self.below(20) as u32,
            self.below(20) as u32,
        ]
    }

    fn tuples3(&mut self, max: u64) -> Vec<[u32; 3]> {
        let n = self.below(max);
        (0..n).map(|_| self.tuple3()).collect()
    }
}

#[test]
fn btree_matches_std_model() {
    for seed in 0..64 {
        let mut g = Gen::new(seed);
        let tuples = g.tuples3(400);
        let (lo, hi) = (g.tuple3(), g.tuple3());
        let mut ours = BTreeIndexSet::<3>::new();
        let mut model = BTreeSet::new();
        for t in &tuples {
            assert_eq!(ours.insert(*t), model.insert(*t), "seed {seed}");
        }
        assert_eq!(ours.len(), model.len());
        let ours_all: Vec<_> = ours.iter().collect();
        let model_all: Vec<_> = model.iter().copied().collect();
        assert_eq!(ours_all, model_all, "seed {seed}");
        let ours_range: Vec<_> = ours.range(&lo, &hi).collect();
        let model_range: Vec<_> = if lo <= hi {
            model.range(lo..=hi).copied().collect()
        } else {
            Vec::new() // inverted bounds: our API returns empty, std panics
        };
        assert_eq!(ours_range, model_range, "seed {seed}");
        for probe in &tuples {
            assert!(ours.contains(probe), "seed {seed}");
        }
    }
}

#[test]
fn brie_matches_std_model() {
    for seed in 0..64 {
        let mut g = Gen::new(seed ^ 0xB41E);
        let tuples = g.tuples3(400);
        let (lo, hi) = (g.tuple3(), g.tuple3());
        let mut ours = Brie::<3>::new();
        let mut model = BTreeSet::new();
        for t in &tuples {
            assert_eq!(ours.insert(*t), model.insert(*t), "seed {seed}");
        }
        assert_eq!(ours.len(), model.len());
        let ours_all: Vec<_> = ours.iter().collect();
        let model_all: Vec<_> = model.iter().copied().collect();
        assert_eq!(ours_all, model_all, "seed {seed}");
        let ours_range: Vec<_> = ours.range(&lo, &hi).collect();
        let model_range: Vec<_> = if lo <= hi {
            model.range(lo..=hi).copied().collect()
        } else {
            Vec::new()
        };
        assert_eq!(ours_range, model_range, "seed {seed}");
    }
}

#[test]
fn dyn_btree_matches_static_btree_under_any_order() {
    let perms: [&[usize]; 6] = [
        &[0, 1, 2],
        &[0, 2, 1],
        &[1, 0, 2],
        &[1, 2, 0],
        &[2, 0, 1],
        &[2, 1, 0],
    ];
    for seed in 0..64u64 {
        let mut g = Gen::new(seed ^ 0xD1A);
        let tuples = g.tuples3(300);
        let order = Order::new(perms[(seed % 6) as usize].to_vec());
        let mut dynamic = DynBTreeIndex::new(order.clone());
        let mut static_ = new_index(&IndexSpec::new(Representation::BTree, order.clone()));
        for t in &tuples {
            assert_eq!(dynamic.insert(t), static_.insert(t), "seed {seed}");
        }
        assert_eq!(dynamic.len(), static_.len());
        let dyn_all = dynamic.scan().collect_tuples();
        let static_all: Vec<Vec<u32>> = {
            let mut out = Vec::new();
            let mut it = static_.scan();
            while let Some(t) = it.next_tuple() {
                out.push(order.decode_vec(t));
            }
            out
        };
        assert_eq!(dyn_all, static_all, "seed {seed}");
    }
}

#[test]
fn buffered_iteration_is_invisible() {
    for seed in 0..32 {
        let mut g = Gen::new(seed ^ 0xBFF);
        let tuples = g.tuples3(500);
        let set: BTreeIndexSet<3> = tuples.iter().copied().collect();
        let mut idx = stir_der::adapter::BTreeIndex::<3>::new(Order::natural(3));
        for t in &tuples {
            idx.insert(t);
        }
        let plain = idx.scan().collect_tuples();
        let buffered = BufferedTupleIter::new(idx.scan()).collect_tuples();
        assert_eq!(&plain, &buffered, "seed {seed}");
        assert_eq!(plain.len(), set.len());
    }
}

#[test]
fn eqrel_matches_closure_model() {
    for seed in 0..64 {
        let mut g = Gen::new(seed ^ 0xE04E1);
        let n = g.below(40);
        let pairs: Vec<(u32, u32)> = (0..n)
            .map(|_| (g.below(12) as u32, g.below(12) as u32))
            .collect();
        let mut ours = EquivalenceRelation::new();
        for (a, b) in &pairs {
            ours.insert([*a, *b]);
        }
        // Reference: naive fixpoint closure over the inserted pairs plus
        // reflexivity and symmetry.
        let mut model: BTreeSet<(u32, u32)> = BTreeSet::new();
        for (a, b) in &pairs {
            model.insert((*a, *b));
            model.insert((*b, *a));
            model.insert((*a, *a));
            model.insert((*b, *b));
        }
        loop {
            let mut grew = false;
            let snapshot: Vec<_> = model.iter().copied().collect();
            for &(a, b) in &snapshot {
                for &(c, d) in &snapshot {
                    if b == c && model.insert((a, d)) {
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        assert_eq!(ours.len(), model.len(), "seed {seed}");
        let ours_pairs: Vec<(u32, u32)> = ours.iter().map(|p| (p[0], p[1])).collect();
        let model_pairs: Vec<(u32, u32)> = model.into_iter().collect();
        assert_eq!(ours_pairs, model_pairs, "seed {seed}");
    }
}

#[test]
fn relation_multi_index_views_agree() {
    for seed in 0..32 {
        let mut g = Gen::new(seed ^ 0x8E1);
        let tuples = g.tuples3(200);
        let mut rel = stir_der::relation::Relation::new(
            "r",
            3,
            vec![
                IndexSpec::btree_natural(3),
                IndexSpec::new(Representation::BTree, Order::new(vec![2, 1, 0])),
                IndexSpec::new(Representation::Brie, Order::new(vec![1, 0, 2])),
            ],
        );
        for t in &tuples {
            rel.insert(t);
        }
        // All indexes hold the same logical set.
        let primary: BTreeSet<Vec<u32>> = rel.scan_source().collect_tuples().into_iter().collect();
        for k in 1..rel.index_count() {
            let idx = rel.index(k);
            let ord = idx.order().clone();
            let mut it = idx.scan();
            let mut decoded = BTreeSet::new();
            while let Some(t) = it.next_tuple() {
                decoded.insert(ord.decode_vec(t));
            }
            assert_eq!(&primary, &decoded, "seed {seed} index {k}");
        }
    }
}

/// A Fisher–Yates permutation driven by generator picks.
fn permutation(n: usize, g: &mut Gen) -> Vec<usize> {
    let mut cols: Vec<usize> = (0..n).collect();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(cols.remove(g.below((n - i) as u64) as usize));
    }
    out
}

#[test]
fn order_encode_decode_are_inverse() {
    for seed in 0..64 {
        let mut g = Gen::new(seed ^ 0x0EDE);
        let order = Order::new(permutation(8, &mut g));
        let tuple: Vec<u32> = (0..8).map(|_| g.next() as u32).collect();
        let enc = order.encode_vec(&tuple);
        assert_eq!(order.decode_vec(&enc), tuple.clone(), "seed {seed}");
        for c in 0..8 {
            assert_eq!(enc[order.stored_position_of(c)], tuple[c], "seed {seed}");
        }
    }
}

#[test]
fn arity_eight_btree_matches_model() {
    for seed in 0..64 {
        let mut g = Gen::new(seed ^ 0xA817);
        let order = Order::new(permutation(8, &mut g));
        let n = g.below(300);
        let tuples: Vec<[u32; 8]> = (0..n)
            .map(|_| std::array::from_fn(|_| g.below(4) as u32))
            .collect();
        let mut idx = new_index(&IndexSpec::new(Representation::BTree, order.clone()));
        let mut model: BTreeSet<Vec<u32>> = BTreeSet::new();
        for t in &tuples {
            assert_eq!(idx.insert(t), model.insert(t.to_vec()), "seed {seed}");
        }
        assert_eq!(idx.len(), model.len());
        // Every tuple is found; prefix queries agree with filtering.
        for t in &tuples {
            assert!(idx.contains(t), "seed {seed}");
        }
        if let Some(t) = tuples.first() {
            // Prefix search: first three stored positions bound.
            let enc = order.encode_vec(t);
            let mut lo = vec![0u32; 8];
            let mut hi = vec![u32::MAX; 8];
            lo[..3].copy_from_slice(&enc[..3]);
            hi[..3].copy_from_slice(&enc[..3]);
            let got = idx.range(&lo, &hi).count_tuples();
            let want = model
                .iter()
                .filter(|m| {
                    let e = order.encode_vec(m);
                    e[..3] == enc[..3]
                })
                .count();
            assert_eq!(got, want, "seed {seed}");
        }
    }
}
