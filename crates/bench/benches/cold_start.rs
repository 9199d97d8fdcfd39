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
//! * `disk +wal32` — same, plus a 32-batch WAL suffix replayed through
//!   the incremental path;
//! * `disk +churn` — same, plus an 8192-record suffix that inserts,
//!   retracts and re-inserts the edges of a 64-edge pool: recovery folds
//!   it to each edge's last operation and applies one batch, so it must
//!   reopen to exactly the `path` the live engine served.
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

/// One logged write: insert (`true`) or retract one edge.
type Logged = (bool, [i32; 2]);

/// `n` single-edge inserts, each of a fresh edge off the chain.
fn fresh_inserts(n: i32) -> Vec<Logged> {
    (0..n).map(|k| (true, [-1 - k, -100 - k])).collect()
}

/// `n` writes churning a 64-edge pool (eight 8-edge chains off the main
/// one): every third write retracts, so each edge is inserted, retracted
/// and re-inserted over and over.
fn churn(n: i32) -> Vec<Logged> {
    (0..n)
        .map(|k| {
            let e = k * 7 % 64;
            let x = -1000 - (e / 8) * 10 - e % 8;
            (k % 3 != 1, [x, x - 1])
        })
        .collect()
}

/// Builds a data directory holding a snapshot of the warm database plus
/// the un-snapshotted `log`; returns it with the `path` the live engine
/// served at the end.
fn seed_dir(tag: &str, initial: &InputData, log: &[Logged]) -> (PathBuf, Vec<Vec<Value>>) {
    let dir = fresh_dir(tag);
    let engine = Engine::from_source(TC).expect("compiles");
    let config = InterpreterConfig::optimized();
    let (mut r, _) =
        ResidentEngine::open(engine, config, initial, &dir, opts(), None).expect("opens");
    r.snapshot(None).expect("snapshots");
    for &(insert, [x, y]) in log {
        let rows = vec![vec![Value::Number(x), Value::Number(y)]];
        if insert {
            r.insert_facts("edge", &rows, None).expect("wal batch");
        } else {
            r.retract_facts("edge", &rows, None).expect("wal batch");
        }
    }
    let path = r.outputs().remove("path").expect("path");
    (dir, path)
}

/// Best time over [`reps`] runs for one restart variant; engine
/// compilation (shared by every variant) stays outside the timer.
/// Returns the time and the restarted database's `path`, so the caller
/// can check every variant recovered the same state.
fn measure(
    storage: StorageBackend,
    initial: &InputData,
    dir: Option<&PathBuf>,
    expect_replay: usize,
) -> (Duration, Vec<Vec<Value>>) {
    let config = InterpreterConfig::optimized().with_storage(storage);
    let mut times = Vec::new();
    let mut path = Vec::new();
    for rep in 0..reps() + 1 {
        let engine = Engine::from_source(TC).expect("compiles");
        let started = Instant::now();
        let r = match dir {
            Some(dir) => {
                let (r, rec) = ResidentEngine::open(engine, config, initial, dir, opts(), None)
                    .expect("reopens");
                assert!(rec.snapshot_loaded, "restart must load the snapshot");
                assert_eq!(
                    rec.replayed_batches, expect_replay as u64,
                    "wal suffix replays"
                );
                r
            }
            None => ResidentEngine::new(engine, config, initial, None).expect("evaluates"),
        };
        let elapsed = started.elapsed();
        path = r.outputs().remove("path").expect("path");
        if rep > 0 {
            // First run is the untimed warm-up (page cache, allocator).
            times.push(elapsed);
        }
    }
    (best(times), path)
}

fn main() {
    let nodes: i32 = match scale() {
        Scale::Tiny => 120,
        Scale::Small => 400,
        Scale::Medium => 800,
        Scale::Large => 1600,
    };
    let initial = inputs(nodes);
    let (wal32, churned) = (fresh_inserts(32), churn(8192));

    let (dir_snap, _) = seed_dir("snap", &initial, &[]);
    let (dir_wal, _) = seed_dir("snap-wal", &initial, &wal32);
    let (dir_churn, live_churn) = seed_dir("snap-churn", &initial, &churned);

    let (t_fix, fix) = measure(StorageBackend::Mem, &initial, None, 0);
    let (t_mem, mem) = measure(StorageBackend::Mem, &initial, Some(&dir_snap), 0);
    let (t_map, map) = measure(StorageBackend::Disk, &initial, Some(&dir_snap), 0);
    let disk = StorageBackend::Disk;
    let (t_wal, wal) = measure(disk, &initial, Some(&dir_wal), wal32.len());
    let (t_churn, reopened) = measure(disk, &initial, Some(&dir_churn), churned.len());
    let n_fix = fix.len();
    assert_eq!(mem, fix, "mem load must recover the full database");
    assert_eq!(map, fix, "disk mmap must recover the full database");
    assert_eq!(wal.len(), n_fix + wal32.len(), "wal replay adds its edges");
    assert_eq!(
        reopened, live_churn,
        "the folded churn log reopens to the live state"
    );

    let speedup = |t: Duration| t_fix.as_secs_f64() / t.as_secs_f64();
    let rows: Vec<Vec<String>> = [
        ("fixpoint", t_fix),
        ("mem load", t_mem),
        ("disk mmap", t_map),
        ("disk +wal32", t_wal),
        ("disk +churn", t_churn),
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

    for d in [dir_snap, dir_wal, dir_churn] {
        let _ = std::fs::remove_dir_all(d);
    }
}
