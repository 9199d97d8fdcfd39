//! **E10** — micro-benchmarks of the DER substrate backing the paper's
//! §3/§4.1 claims: monomorphized (static) index operations vs the
//! dynamic adapter interface vs the legacy runtime-comparator B-tree,
//! and buffered vs unbuffered virtual iteration.
//!
//! Plain wall-clock timing (best of `reps()` runs) — criterion is not
//! vendored, and the other figure benches already use this harness.

use std::hint::black_box;
use std::time::{Duration, Instant};
use stir_bench::{best, fmt_dur, print_table, reps};
use stir_der::adapter::{BTreeIndex, IndexAdapter};
use stir_der::brie::Brie;
use stir_der::btree::BTreeIndexSet;
use stir_der::dynindex::DynBTreeIndex;
use stir_der::iter::{BufferedTupleIter, TupleIter};
use stir_der::order::Order;
use stir_der::TupleSet;

const N: u32 = 20_000;

fn tuples() -> Vec<[u32; 2]> {
    let mut seed = 1u32;
    (0..N)
        .map(|_| {
            seed = seed.wrapping_mul(48271) % 0x7fff_ffff;
            [seed % 1000, seed % 4093]
        })
        .collect()
}

fn time<R>(mut f: impl FnMut() -> R) -> Duration {
    let runs = reps().max(5);
    best(
        (0..runs)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                start.elapsed()
            })
            .collect(),
    )
}

fn main() {
    let data = tuples();
    let mut rows = Vec::new();

    rows.push(vec![
        "insert_20k/btree_static".into(),
        fmt_dur(time(|| {
            let mut set = BTreeIndexSet::<2>::new();
            for t in &data {
                set.insert(*t);
            }
            set
        })),
    ]);
    rows.push(vec![
        "insert_20k/brie_static".into(),
        fmt_dur(time(|| {
            let mut set = Brie::<2>::new();
            for t in &data {
                set.insert(*t);
            }
            set
        })),
    ]);
    rows.push(vec![
        "insert_20k/btree_dyn_adapter".into(),
        fmt_dur(time(|| {
            let mut idx = BTreeIndex::<2>::new(Order::natural(2));
            for t in &data {
                IndexAdapter::insert(&mut idx, t);
            }
            idx
        })),
    ]);
    rows.push(vec![
        "insert_20k/legacy_runtime_comparator".into(),
        fmt_dur(time(|| {
            let mut idx = DynBTreeIndex::new(Order::natural(2));
            for t in &data {
                idx.insert(t);
            }
            idx
        })),
    ]);

    let static_set: BTreeIndexSet<2> = data.iter().copied().collect();
    let mut adapter = BTreeIndex::<2>::new(Order::natural(2));
    let mut legacy = DynBTreeIndex::new(Order::natural(2));
    for t in &data {
        IndexAdapter::insert(&mut adapter, t);
        legacy.insert(t);
    }

    rows.push(vec![
        "full_scan/monomorphic_iter".into(),
        fmt_dur(time(|| {
            let mut acc = 0u64;
            for t in static_set.iter() {
                acc += u64::from(t[1]);
            }
            acc
        })),
    ]);
    rows.push(vec![
        "full_scan/virtual_unbuffered".into(),
        fmt_dur(time(|| {
            let mut acc = 0u64;
            let mut it = adapter.scan();
            while let Some(t) = it.next_tuple() {
                acc += u64::from(t[1]);
            }
            acc
        })),
    ]);
    rows.push(vec![
        "full_scan/virtual_buffered_128".into(),
        fmt_dur(time(|| {
            let mut acc = 0u64;
            let mut it = BufferedTupleIter::new(adapter.scan());
            while let Some(t) = it.next_tuple() {
                acc += u64::from(t[1]);
            }
            acc
        })),
    ]);
    rows.push(vec![
        "full_scan/legacy_materializing".into(),
        fmt_dur(time(|| {
            let mut acc = 0u64;
            let mut it = legacy.scan();
            while let Some(t) = it.next_tuple() {
                acc += u64::from(t[1]);
            }
            acc
        })),
    ]);

    rows.push(vec![
        "primitive_search/monomorphic_range".into(),
        fmt_dur(time(|| {
            let mut acc = 0u64;
            for key in 0..1000u32 {
                for t in static_set.range(&[key, 0], &[key, u32::MAX]) {
                    acc += u64::from(t[1]);
                }
            }
            acc
        })),
    ]);
    rows.push(vec![
        "primitive_search/virtual_range".into(),
        fmt_dur(time(|| {
            let mut acc = 0u64;
            for key in 0..1000u32 {
                let mut it = adapter.range(&[key, 0], &[key, u32::MAX]);
                while let Some(t) = it.next_tuple() {
                    acc += u64::from(t[1]);
                }
            }
            acc
        })),
    ]);
    rows.push(vec![
        "primitive_search/legacy_range".into(),
        fmt_dur(time(|| {
            let mut acc = 0u64;
            for key in 0..1000u32 {
                let mut it = legacy.range(&[key, 0], &[key, u32::MAX]);
                while let Some(t) = it.next_tuple() {
                    acc += u64::from(t[1]);
                }
            }
            acc
        })),
    ]);

    rows.push(vec![
        "contains_20k/monomorphic".into(),
        fmt_dur(time(|| {
            let mut hits = 0u32;
            for t in &data {
                hits += u32::from(static_set.contains(t));
            }
            hits
        })),
    ]);
    rows.push(vec![
        "contains_20k/virtual".into(),
        fmt_dur(time(|| {
            let mut hits = 0u32;
            for t in &data {
                hits += u32::from(adapter.contains(t));
            }
            hits
        })),
    ]);
    rows.push(vec![
        "contains_20k/legacy".into(),
        fmt_dur(time(|| {
            let mut hits = 0u32;
            for t in &data {
                hits += u32::from(legacy.contains(t));
            }
            hits
        })),
    ]);

    print_table("E10 — DER micro-benchmarks", &["benchmark", "best"], &rows);
}
