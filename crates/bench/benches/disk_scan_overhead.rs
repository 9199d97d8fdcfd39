//! **Disk scan overhead** — what the paged base run costs per operation.
//!
//! One sorted relation is served three ways: from the specialized
//! in-memory B-tree, from a disk-backed index whose page cache is large
//! enough to go resident (`disk warm`), and from one whose budget only
//! fits a handful of pages (`disk cold`, every scan faults and evicts).
//! The table reports full-scan, point-probe, and range-scan times with
//! the overhead ratio against the in-memory B-tree.
//!
//! This backs the EXPERIMENTS.md E17 claim that the de-specialized
//! disk path trades a bounded per-operation overhead for instant cold
//! starts and bounded memory — it is not free, and this bench keeps the
//! price visible.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use stir_bench::{best, fmt_dur, fmt_ratio, print_table, reps, scale};
use stir_der::adapter::BTreeIndex;
use stir_der::disk::{page_tuples, write_run, BaseRun, DiskIndex, RunFile};
use stir_der::iter::VecTupleIter;
use stir_der::{IndexAdapter, Order, RamDomain};
use stir_workloads::spec::Scale;

fn tmpfile(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stir-scan-bench-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{tag}.run"))
}

/// Writes `tuples` (already sorted and deduped, stored order) as a run
/// file and serves it through a [`DiskIndex`] with the given cache
/// budget.
fn disk_index(tag: &str, order: &Order, tuples: &[Vec<RamDomain>], budget: usize) -> DiskIndex {
    let arity = order.arity();
    let per_page = page_tuples(arity);
    let mut flat = Vec::with_capacity(tuples.len() * arity);
    for t in tuples {
        flat.extend_from_slice(t);
    }
    let mut it = VecTupleIter::new(flat, arity);
    let mut buf = Vec::new();
    let fence =
        write_run(&mut buf, &mut it, tuples.len() as u64, per_page).expect("run serializes");
    let path = tmpfile(tag);
    std::fs::write(&path, &buf).expect("run file");
    let file = RunFile::open(&path, budget).expect("run opens");
    let base = BaseRun::new(file, 8, tuples.len(), arity, per_page, fence);
    DiskIndex::with_base(order.clone(), base)
}

/// Best time over [`reps`] runs of `op`, after one warm-up run.
fn time<R>(mut op: impl FnMut() -> R) -> (Duration, R) {
    let mut out = op();
    let mut times = Vec::new();
    for _ in 0..reps() {
        let started = Instant::now();
        out = op();
        times.push(started.elapsed());
    }
    (best(times), out)
}

fn main() {
    let n: u32 = match scale() {
        Scale::Tiny => 20_000,
        Scale::Small => 100_000,
        Scale::Medium => 400_000,
        Scale::Large => 1_000_000,
    };
    let order = Order::new(vec![0, 1]);

    // A dense sorted pair relation; stored order == source order.
    let tuples: Vec<Vec<RamDomain>> = (0..n).map(|i| vec![i / 8, i % 971]).collect();
    let mut sorted = tuples.clone();
    sorted.sort_unstable();
    sorted.dedup();

    let mut mem = BTreeIndex::<2>::new(order.clone());
    for t in &sorted {
        mem.insert(t);
    }
    // Warm: everything fits. Cold: ~8 pages resident at a time.
    let warm = disk_index("warm", &order, &sorted, 1 << 30);
    let cold_budget = 8 * page_tuples(2) * 2 * 4;
    let cold = disk_index("cold", &order, &sorted, cold_budget);

    let probes: Vec<[RamDomain; 2]> = (0..2048u32)
        .map(|k| {
            let i = k.wrapping_mul(48271) % n;
            [i / 8, i % 971]
        })
        .collect();
    let ranges: Vec<([RamDomain; 2], [RamDomain; 2])> = (0..64u32)
        .map(|k| {
            let lo = (k * 1543) % (n / 8);
            ([lo, 0], [lo + 40, RamDomain::MAX])
        })
        .collect();

    let scan_of = |idx: &dyn IndexAdapter| {
        let mut count = 0usize;
        let mut it = idx.scan();
        while it.next_tuple().is_some() {
            count += 1;
        }
        count
    };
    let probe_of = |idx: &dyn IndexAdapter| probes.iter().filter(|p| idx.contains(*p)).count();
    let range_of = |idx: &dyn IndexAdapter| {
        let mut count = 0usize;
        for (lo, hi) in &ranges {
            let mut it = idx.range(lo, hi);
            while it.next_tuple().is_some() {
                count += 1;
            }
        }
        count
    };

    let backends: [(&str, &dyn IndexAdapter); 3] = [
        ("mem btree", &mem),
        ("disk warm", &warm),
        ("disk cold", &cold),
    ];
    let mut rows = Vec::new();
    let mut baselines: Option<(Duration, Duration, Duration)> = None;
    let mut counts: Option<(usize, usize, usize)> = None;
    let mut warm_scan_overhead = 1.0;
    for (name, idx) in backends {
        let (t_scan, n_scan) = time(|| scan_of(idx));
        let (t_probe, n_probe) = time(|| probe_of(idx));
        let (t_range, n_range) = time(|| range_of(idx));
        match counts {
            None => counts = Some((n_scan, n_probe, n_range)),
            Some(expect) => assert_eq!(
                (n_scan, n_probe, n_range),
                expect,
                "{name}: backends must agree on every operation"
            ),
        }
        let (b_scan, b_probe, b_range) = *baselines.get_or_insert((t_scan, t_probe, t_range));
        let ratio = |t: Duration, b: Duration| t.as_secs_f64() / b.as_secs_f64();
        if name == "disk warm" {
            warm_scan_overhead = ratio(t_scan, b_scan);
        }
        rows.push(vec![
            name.to_string(),
            fmt_dur(t_scan),
            fmt_ratio(ratio(t_scan, b_scan)),
            fmt_dur(t_probe),
            fmt_ratio(ratio(t_probe, b_probe)),
            fmt_dur(t_range),
            fmt_ratio(ratio(t_range, b_range)),
        ]);
    }
    let (n_scan, _, _) = counts.expect("measured");
    print_table(
        &format!(
            "Disk scan overhead — {n_scan} tuples, full scan / 2048 \
             probes / 64 range scans (overhead vs the in-memory B-tree)"
        ),
        &["backend", "scan", "x", "probe", "x", "range", "x"],
        &rows,
    );
    println!("\nwarm disk full-scan overhead: {warm_scan_overhead:.2}x vs in-memory B-tree");
    assert!(
        warm_scan_overhead < 100.0,
        "a resident page cache must keep scans within two orders of \
         magnitude of the specialized B-tree (got {warm_scan_overhead:.2}x)"
    );
}
