//! **Cold start** — time-to-first-query for the restart paths.
//!
//! A warm transitive-closure database (chain TC, so the derived `path`
//! relation is quadratic in the chain length) restarts four ways:
//!
//! * `fixpoint`   — no data directory: the initial evaluation runs from
//!   scratch (the price every stateless start pays);
//! * `mem load`   — a mem-backed engine reads each relation's primary
//!   run out of the snapshot back into its in-memory B-trees (no
//!   fixpoint, but O(tuples) index rebuild);
//! * `disk mmap`  — a disk-backed engine maps the same file and serves
//!   queries off the paged base runs (no fixpoint, no rebuild);
//! * `disk +wal`  — same, plus a 32-batch WAL suffix replayed through
//!   the incremental path.
//!
//! There is one snapshot format, so the first two restart off the same
//! directory. This backs EXPERIMENTS.md E17: mapping the snapshot must
//! be at least 10x faster than re-running the fixpoint (the gap grows
//! with scale — the mapped open is O(directory), not O(tuples)).

use std::path::PathBuf;
use std::time::{Duration, Instant};
use stir_bench::{best, fmt_dur, fmt_ratio, print_table, reps, scale};
use stir_core::resident::{PersistOptions, ResidentEngine};
use stir_core::wal::Durability;
use stir_core::{Engine, InputData, InterpreterConfig, StorageBackend, Value};
use stir_workloads::spec::Scale;

const TC: &str = "\
    .decl edge(x: number, y: number)\n.input edge\n\
    .decl path(x: number, y: number)\n.output path\n\
    path(x, y) :- edge(x, y).\n\
    path(x, z) :- path(x, y), edge(y, z).\n";

fn inputs(nodes: i32) -> InputData {
    let edges = (0..nodes - 1)
        .map(|i| vec![Value::Number(i), Value::Number(i + 1)])
        .collect();
    let mut inputs = InputData::new();
    inputs.insert("edge".into(), edges);
    inputs
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("stir-cold-start-bench")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench dir");
    dir
}

fn opts() -> PersistOptions {
    PersistOptions {
        durability: Durability::Batch,
        snapshot_interval: None,
    }
}

/// Builds a data directory holding a snapshot of the warm database
/// (plus `wal_batches` un-snapshotted single-edge inserts).
fn seed_dir(tag: &str, initial: &InputData, wal_batches: i32) -> PathBuf {
    let dir = fresh_dir(tag);
    let engine = Engine::from_source(TC).expect("compiles");
    let config = InterpreterConfig::optimized();
    let (mut r, _) =
        ResidentEngine::open(engine, config, initial, &dir, opts(), None).expect("opens");
    r.snapshot(None).expect("snapshots");
    for k in 0..wal_batches {
        let rows = vec![vec![Value::Number(-1 - k), Value::Number(-100 - k)]];
        r.insert_facts("edge", &rows, None).expect("wal batch");
    }
    dir
}

/// Best time over [`reps`] runs for one restart variant; engine
/// compilation (shared by every variant) stays outside the timer.
/// Returns the time and the restarted database's `path` count, so the
/// caller can check every variant recovered the same state.
fn measure(
    storage: StorageBackend,
    initial: &InputData,
    dir: Option<&PathBuf>,
    expect_replay: u64,
) -> (Duration, usize) {
    let config = InterpreterConfig::optimized().with_storage(storage);
    let mut times = Vec::new();
    let mut size = 0;
    for rep in 0..reps() + 1 {
        let engine = Engine::from_source(TC).expect("compiles");
        let started = Instant::now();
        let r = match dir {
            Some(dir) => {
                let (r, rec) = ResidentEngine::open(engine, config, initial, dir, opts(), None)
                    .expect("reopens");
                assert!(rec.snapshot_loaded, "restart must load the snapshot");
                assert_eq!(rec.replayed_batches, expect_replay, "wal suffix replays");
                r
            }
            None => ResidentEngine::new(engine, config, initial, None).expect("evaluates"),
        };
        let elapsed = started.elapsed();
        size = r.outputs()["path"].len();
        if rep > 0 {
            // First run is the untimed warm-up (page cache, allocator).
            times.push(elapsed);
        }
    }
    (best(times), size)
}

fn main() {
    let nodes: i32 = match scale() {
        Scale::Tiny => 120,
        Scale::Small => 400,
        Scale::Medium => 800,
        Scale::Large => 1600,
    };
    let wal_batches = 32;
    let initial = inputs(nodes);

    let dir_snap = seed_dir("snap", &initial, 0);
    let dir_wal = seed_dir("snap-wal", &initial, wal_batches);

    let (t_fix, n_fix) = measure(StorageBackend::Mem, &initial, None, 0);
    let (t_mem, n_mem) = measure(StorageBackend::Mem, &initial, Some(&dir_snap), 0);
    let (t_map, n_map) = measure(StorageBackend::Disk, &initial, Some(&dir_snap), 0);
    let (t_wal, n_wal) = measure(
        StorageBackend::Disk,
        &initial,
        Some(&dir_wal),
        wal_batches as u64,
    );
    assert_eq!(n_mem, n_fix, "mem load must recover the full database");
    assert_eq!(n_map, n_fix, "disk mmap must recover the full database");
    assert!(n_wal >= n_fix, "wal replay must recover at least the base");

    let speedup = |t: Duration| t_fix.as_secs_f64() / t.as_secs_f64();
    let rows: Vec<Vec<String>> = [
        ("fixpoint", t_fix),
        ("mem load", t_mem),
        ("disk mmap", t_map),
        ("disk +wal32", t_wal),
    ]
    .into_iter()
    .map(|(name, t)| vec![name.to_string(), fmt_dur(t), fmt_ratio(speedup(t))])
    .collect();
    print_table(
        &format!(
            "Cold start — time to a query-ready engine on a warm \
             {nodes}-node TC chain ({n_fix} path tuples; speedup vs \
             from-scratch fixpoint)"
        ),
        &["path", "open", "speedup"],
        &rows,
    );
    let mmap_speedup = speedup(t_map);
    println!("\ndisk mmap cold start: {mmap_speedup:.1}x faster than the fixpoint");
    assert!(
        mmap_speedup >= 10.0,
        "mapping the snapshot must be at least 10x faster than \
         re-evaluating (got {mmap_speedup:.1}x)"
    );

    for d in [dir_snap, dir_wal] {
        let _ = std::fs::remove_dir_all(d);
    }
}
