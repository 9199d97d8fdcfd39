//! **Disk scan overhead** — what the paged base run costs per operation.
//!
//! One sorted relation is served three ways: from the specialized
//! in-memory B-tree, from a disk-backed index whose page cache is large
//! enough to go resident (`disk warm`), and from one whose budget only
//! fits a handful of pages (`disk cold`, every scan faults and evicts).
//! Each is driven twice: through the virtual adapter (`dyn`), and
//! through the monomorphized set behind it (`raw()`, the statically
//! dispatched path the interpreter takes). The table reports full-scan,
//! point-probe, and range-scan times with the overhead ratio against the
//! in-memory B-tree on the same path.
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
use stir_der::{IndexAdapter, Order, RamDomain, TupleSet};
use stir_workloads::spec::Scale;

fn tmpfile(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stir-scan-bench-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{tag}.run"))
}

/// Writes `tuples` (already sorted and deduped, stored order) as a run
/// file and serves it through a [`DiskIndex`] with the given cache
/// budget.
fn disk_index(tag: &str, order: &Order, tuples: &[Vec<RamDomain>], budget: usize) -> DiskIndex<2> {
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

/// Full scan, point probes and range scans of one backend, each
/// returning how many tuples it met.
type Ops<'a> = [Box<dyn Fn() -> usize + 'a>; 3];

/// The three operations through the virtual adapter interface.
fn dynamic_ops<'a>(
    idx: &'a dyn IndexAdapter,
    probes: &'a [[RamDomain; 2]],
    ranges: &'a [([RamDomain; 2], [RamDomain; 2])],
) -> Ops<'a> {
    let drain = |mut it: Box<dyn stir_der::iter::TupleIter + Send + 'a>| {
        let mut count = 0usize;
        while it.next_tuple().is_some() {
            count += 1;
        }
        count
    };
    [
        Box::new(move || drain(idx.scan())),
        Box::new(move || probes.iter().filter(|p| idx.contains(*p)).count()),
        Box::new(move || ranges.iter().map(|(lo, hi)| drain(idx.range(lo, hi))).sum()),
    ]
}

/// The three operations on the monomorphized set behind an adapter.
fn static_ops<'a, S: TupleSet<2>>(
    set: &'a S,
    probes: &'a [[RamDomain; 2]],
    ranges: &'a [([RamDomain; 2], [RamDomain; 2])],
) -> Ops<'a> {
    [
        Box::new(move || set.iter().count()),
        Box::new(move || probes.iter().filter(|p| set.contains(p)).count()),
        Box::new(move || {
            ranges
                .iter()
                .map(|(lo, hi)| set.range(lo, hi).count())
                .sum()
        }),
    ]
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

    let backends: [(&str, Ops); 6] = [
        ("mem btree dyn", dynamic_ops(&mem, &probes, &ranges)),
        ("disk warm dyn", dynamic_ops(&warm, &probes, &ranges)),
        ("disk cold dyn", dynamic_ops(&cold, &probes, &ranges)),
        ("mem btree raw", static_ops(mem.raw(), &probes, &ranges)),
        ("disk warm raw", static_ops(warm.raw(), &probes, &ranges)),
        ("disk cold raw", static_ops(cold.raw(), &probes, &ranges)),
    ];
    let mut rows = Vec::new();
    let mut baselines: Option<(Duration, Duration, Duration)> = None;
    let mut counts: Option<(usize, usize, usize)> = None;
    let mut warm_scan_overheads = Vec::new();
    for (name, [scan, probe, range]) in backends {
        let (t_scan, n_scan) = time(&*scan);
        let (t_probe, n_probe) = time(&*probe);
        let (t_range, n_range) = time(&*range);
        match counts {
            None => counts = Some((n_scan, n_probe, n_range)),
            Some(expect) => assert_eq!(
                (n_scan, n_probe, n_range),
                expect,
                "{name}: backends must agree on every operation"
            ),
        }
        if name.starts_with("mem") {
            baselines = Some((t_scan, t_probe, t_range));
        }
        let (b_scan, b_probe, b_range) = baselines.expect("the mem row leads its path");
        let ratio = |t: Duration, b: Duration| t.as_secs_f64() / b.as_secs_f64();
        if name.starts_with("disk warm") {
            warm_scan_overheads.push((name, ratio(t_scan, b_scan)));
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
    for (name, overhead) in warm_scan_overheads {
        println!("\n{name} full-scan overhead: {overhead:.2}x vs in-memory B-tree");
        assert!(
            overhead < 100.0,
            "a resident page cache must keep scans within two orders of \
             magnitude of the specialized B-tree (got {overhead:.2}x)"
        );
    }
}
