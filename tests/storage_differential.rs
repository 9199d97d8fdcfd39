//! Storage-backend differential testing: the disk-backed index layer
//! must be observationally identical to the in-memory B-trees.
//!
//! Part one replays randomized insert/retract/query interleavings
//! against a mem-backed and a disk-backed resident engine in lockstep —
//! the STI and the dynamic adapter, sequential and parallel — and
//! requires the outputs to agree after every step. Proof trees (`.explain`) and
//! profile tuple counts must agree too: de-specialized storage is not
//! allowed to change what the engine derives, how it proves it, or how
//! much work it reports.
//!
//! Part two feeds hostile v2 snapshot files (truncation, bad magic,
//! checksum damage, tuple bitflips) directly to the reader and checks
//! every rejection names the byte offset of the damage.

use std::collections::BTreeSet;
use std::path::PathBuf;
use stir::core::resident::{PersistOptions, SNAPSHOT_FILE};
use stir::core::snap2;
use stir::core::wal;
use stir::{
    Engine, ExplainLimits, InputData, InterpreterConfig, ResidentEngine, StorageBackend, Value,
};

const PROGRAM: &str = "\
.decl e(x: number, y: number)\n.input e\n\
.decl f(x: number, y: number)\n.input f\n\
.decl r(x: number, y: number)\n.output r\n\
.decl s(x: number, y: number)\n.output s\n\
r(x, y) :- e(x, y).\n\
r(x, z) :- r(x, y), e(y, z).\n\
s(x, y) :- r(x, y), !f(x, y).\n";

/// The STI and the dynamic adapter, the path disk-backed relations take.
fn modes() -> [(&'static str, InterpreterConfig); 2] {
    [
        ("sti", InterpreterConfig::optimized()),
        ("dynamic", InterpreterConfig::dynamic_adapter()),
    ]
}

/// Lehmer LCG (MINSTD): deterministic, no external crates.
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(48271) % 0x7fff_ffff;
    *state
}

fn rand_pairs(state: &mut u64, n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|_| {
            vec![
                Value::Number((lcg(state) % 7) as i32),
                Value::Number((lcg(state) % 7) as i32),
            ]
        })
        .collect()
}

fn sorted(rows: &[Vec<Value>]) -> BTreeSet<String> {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect()
}

fn initial_inputs(state: &mut u64) -> InputData {
    let mut inputs = InputData::new();
    inputs.insert("e".into(), rand_pairs(state, 8));
    inputs.insert("f".into(), rand_pairs(state, 4));
    inputs
}

/// Random insert/retract interleavings applied to a mem-backed and a
/// disk-backed engine in lockstep must yield identical query results
/// after every step, in both modes, sequential and with 4 workers.
#[test]
fn randomized_interleavings_match_between_mem_and_disk() {
    for jobs in [1usize, 4] {
        for (mode, base) in modes() {
            for seed0 in 1u64..=5 {
                let mut state = seed0 * 7919 + jobs as u64;
                let inputs = initial_inputs(&mut state);
                let build = |storage| {
                    ResidentEngine::from_source(
                        PROGRAM,
                        base.with_jobs(jobs).with_storage(storage),
                        &inputs,
                        None,
                    )
                    .expect("builds")
                };
                let mut mem = build(StorageBackend::Mem);
                let mut disk = build(StorageBackend::Disk);
                for step in 0..10 {
                    let rel = if lcg(&mut state).is_multiple_of(2) {
                        "e"
                    } else {
                        "f"
                    };
                    let n = 1 + (lcg(&mut state) % 3) as usize;
                    let rows = rand_pairs(&mut state, n);
                    let ctx = || format!("seed {seed0} mode {mode} jobs {jobs} step {step}");
                    if lcg(&mut state).is_multiple_of(3) {
                        mem.retract_facts(rel, &rows, None)
                            .unwrap_or_else(|e| panic!("{}: mem retract: {e}", ctx()));
                        disk.retract_facts(rel, &rows, None)
                            .unwrap_or_else(|e| panic!("{}: disk retract: {e}", ctx()));
                    } else {
                        mem.insert_facts(rel, &rows, None)
                            .unwrap_or_else(|e| panic!("{}: mem insert: {e}", ctx()));
                        disk.insert_facts(rel, &rows, None)
                            .unwrap_or_else(|e| panic!("{}: disk insert: {e}", ctx()));
                    }
                    let (om, od) = (mem.outputs(), disk.outputs());
                    for out in ["r", "s"] {
                        assert_eq!(
                            sorted(&om[out]),
                            sorted(&od[out]),
                            "{}: output {out} diverged",
                            ctx()
                        );
                    }
                }
            }
        }
    }
}

/// Profiling must report the same tuple counts on both backends: the
/// disk layer changes where tuples live, not how many the fixpoint
/// derives or inserts. A batch run, so `unopt` joins the serving modes
/// (`legacy` never meets a disk index).
#[test]
fn profile_tuple_counts_match_between_mem_and_disk() {
    let mut state = 17u64;
    let inputs = initial_inputs(&mut state);
    let unopt = ("unopt", InterpreterConfig::unoptimized());
    for jobs in [1usize, 4] {
        for (mode, base) in modes().into_iter().chain([unopt]) {
            let run = |storage| {
                Engine::from_source(PROGRAM)
                    .expect("compiles")
                    .run(
                        base.with_profile().with_jobs(jobs).with_storage(storage),
                        &inputs,
                    )
                    .expect("evaluates")
            };
            let mem = run(StorageBackend::Mem);
            let disk = run(StorageBackend::Disk);
            assert_eq!(
                sorted(&mem.outputs["r"]),
                sorted(&disk.outputs["r"]),
                "mode {mode} jobs {jobs}: outputs diverged"
            );
            let (pm, pd) = (
                mem.profile.expect("profile"),
                disk.profile.expect("profile"),
            );
            assert_eq!(
                pm.total_inserts, pd.total_inserts,
                "mode {mode} jobs {jobs}: total inserts diverged"
            );
            let mem_inserts: Vec<u64> = pm.relations.iter().map(|r| r.inserts).collect();
            let disk_inserts: Vec<u64> = pd.relations.iter().map(|r| r.inserts).collect();
            assert_eq!(
                mem_inserts, disk_inserts,
                "mode {mode} jobs {jobs}: per-relation insert counts diverged"
            );
        }
    }
}

/// Proof trees must render identically on both backends, including
/// after retractions force re-derivation.
#[test]
fn explain_proof_shapes_match_between_mem_and_disk() {
    for jobs in [1usize, 4] {
        for (mode, base) in modes() {
            let mut state = 23 + jobs as u64;
            let inputs = initial_inputs(&mut state);
            let build = |storage| {
                ResidentEngine::from_source(
                    PROGRAM,
                    base.with_provenance().with_jobs(jobs).with_storage(storage),
                    &inputs,
                    None,
                )
                .expect("builds")
            };
            let mut mem = build(StorageBackend::Mem);
            let mut disk = build(StorageBackend::Disk);
            let extra = rand_pairs(&mut state, 3);
            mem.insert_facts("e", &extra, None).expect("mem insert");
            disk.insert_facts("e", &extra, None).expect("disk insert");
            let gone = vec![inputs["e"][0].clone()];
            mem.retract_facts("e", &gone, None).expect("mem retract");
            disk.retract_facts("e", &gone, None).expect("disk retract");

            let rows = mem.outputs()["r"].clone();
            assert_eq!(
                sorted(&rows),
                sorted(&disk.outputs()["r"]),
                "mode {mode} jobs {jobs}: outputs diverged before explain"
            );
            assert!(!rows.is_empty(), "degenerate case: no derived tuples");
            for row in &rows {
                let pm = mem
                    .explain("r", row, ExplainLimits::default(), None)
                    .expect("mem explains");
                let pd = disk
                    .explain("r", row, ExplainLimits::default(), None)
                    .expect("disk explains");
                assert_eq!(
                    mem.render_proof(&pm),
                    disk.render_proof(&pd),
                    "mode {mode} jobs {jobs}: proof for {row:?} diverged"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Hostile inputs: every rejection names the byte offset of the damage.
// ---------------------------------------------------------------------

/// Builds a real v2 snapshot on disk and returns its path, bytes, and
/// the program fingerprint the reader expects.
fn v2_fixture(name: &str) -> (PathBuf, Vec<u8>, u64) {
    let dir = std::env::temp_dir().join("stir-storage-diff").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut state = 41u64;
    let inputs = initial_inputs(&mut state);
    let engine = Engine::from_source(PROGRAM).expect("compiles");
    let fp = wal::fingerprint(&engine.ram().to_string());
    let config = InterpreterConfig::optimized().with_storage(StorageBackend::Disk);
    let opts = PersistOptions {
        durability: wal::Durability::Batch,
        snapshot_interval: None,
    };
    let (mut r, _) =
        ResidentEngine::open(engine, config, &inputs, &dir, opts, None).expect("opens");
    r.snapshot(None).expect("snapshots");
    drop(r);
    let path = dir.join(SNAPSHOT_FILE);
    let bytes = std::fs::read(&path).expect("snapshot bytes");
    assert!(
        bytes.starts_with(snap2::SNAP2_MAGIC),
        "fixture must be a v2 snapshot"
    );
    (path, bytes, fp)
}

fn open_err(path: &std::path::Path, fp: u64) -> String {
    snap2::open_snapshot_v2(path, fp, 1 << 20)
        .err()
        .expect("corrupt snapshot must be rejected")
        .to_string()
}

#[test]
fn hostile_bad_magic_names_byte_offset_zero() {
    let (path, mut bytes, fp) = v2_fixture("bad-magic");
    bytes[0] ^= 0xff;
    std::fs::write(&path, &bytes).expect("writes");
    let err = open_err(&path, fp);
    assert!(
        err.contains("byte offset 0"),
        "magic rejection must name offset 0: {err}"
    );
}

#[test]
fn hostile_truncated_file_names_the_offset() {
    let (path, bytes, fp) = v2_fixture("truncated");
    // Cut mid-body: the header's directory bounds no longer land at the
    // end of the file, which is caught before any byte is decoded.
    let cut = bytes.len() - 10;
    std::fs::write(&path, &bytes[..cut]).expect("writes");
    let err = open_err(&path, fp);
    assert!(
        err.contains("byte offset 20"),
        "truncation must be caught by the directory bounds check: {err}"
    );

    // Cut inside the header: rejected before any decode is attempted.
    std::fs::write(&path, &bytes[..12]).expect("writes");
    let err = open_err(&path, fp);
    assert!(
        err.contains("truncated snapshot") && err.contains("byte offset 12"),
        "header truncation must name the file length: {err}"
    );
}

#[test]
fn hostile_checksum_damage_names_the_trailer_offset() {
    let (path, mut bytes, fp) = v2_fixture("bad-crc");
    let trailer = bytes.len() - 4;
    bytes[trailer] ^= 0x01;
    std::fs::write(&path, &bytes).expect("writes");
    let err = open_err(&path, fp);
    assert!(
        err.contains("checksum mismatch") && err.contains(&format!("byte offset {trailer}")),
        "checksum rejection must name the trailer offset {trailer}: {err}"
    );
}

#[test]
fn hostile_tuple_bitflip_is_caught_by_the_checksum() {
    let (path, mut bytes, fp) = v2_fixture("bitflip");
    // Flip one bit in the run region (just past the 36-byte header, in
    // some tuple's stored word). The CRC covers the whole body, so the
    // damage surfaces as a checksum mismatch at the trailer.
    bytes[40] ^= 0x40;
    std::fs::write(&path, &bytes).expect("writes");
    let trailer = bytes.len() - 4;
    let err = open_err(&path, fp);
    assert!(
        err.contains("checksum mismatch") && err.contains(&format!("byte offset {trailer}")),
        "tuple bitflip must be rejected with the trailer offset: {err}"
    );
}

/// Bounded-memory soak: a page cache squeezed far below the data size
/// must never exceed its budget, no matter how hostile the probe
/// pattern, while still answering everything correctly.
#[test]
fn page_cache_stays_within_budget_under_random_load() {
    use stir::der::disk::DiskIndex;
    use stir::der::{IndexAdapter, Order};

    let dir = std::env::temp_dir().join("stir-storage-diff").join("soak");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    // A 220-node chain closes to ~24k path tuples — a run spanning
    // dozens of 16 KiB pages.
    let nodes = 220i32;
    let edges: Vec<Vec<Value>> = (0..nodes - 1)
        .map(|i| vec![Value::Number(i), Value::Number(i + 1)])
        .collect();
    let mut inputs = InputData::new();
    inputs.insert("e".into(), edges);
    let src = "\
        .decl e(x: number, y: number)\n.input e\n\
        .decl r(x: number, y: number)\n.output r\n\
        r(x, y) :- e(x, y).\n\
        r(x, z) :- r(x, y), e(y, z).\n";
    let engine = Engine::from_source(src).expect("compiles");
    let fp = wal::fingerprint(&engine.ram().to_string());
    let config = InterpreterConfig::optimized().with_storage(StorageBackend::Disk);
    let opts = PersistOptions {
        durability: wal::Durability::Batch,
        snapshot_interval: None,
    };
    let (mut r, _) =
        ResidentEngine::open(engine, config, &inputs, &dir, opts, None).expect("opens");
    let total = r.outputs()["r"].len();
    r.snapshot(None).expect("snapshots");
    drop(r);

    // Reopen the raw snapshot with a 4-page budget and hammer it.
    let budget = 4 * 16 * 1024;
    let snap =
        snap2::open_snapshot_v2(&dir.join(SNAPSHOT_FILE), fp, budget).expect("maps under budget");
    let rel = snap
        .data
        .relations
        .iter()
        .find(|rel| rel.name == "r" && !rel.runs.is_empty())
        .expect("r is run-backed");
    let cols = rel.runs[0].order.clone();
    let idx = DiskIndex::<2>::with_base(Order::new(cols.clone()), snap.base_run(rel, 0));
    assert_eq!(idx.len(), total, "base run holds the full closure");

    // Probes take source-order tuples (the adapter encodes them);
    // range bounds are in stored order, so a stored prefix `a` selects
    // every path leaving `a` (cols[0] == 0) or every path reaching
    // `a` (cols[0] == 1). On the chain closure r(x, y) ⟺ x < y.
    let mut state = 91u64;
    let mut hits = 0usize;
    for step in 0..5000 {
        let a = (lcg(&mut state) % nodes as u64) as u32;
        let b = (lcg(&mut state) % nodes as u64) as u32;
        if lcg(&mut state).is_multiple_of(2) {
            if idx.contains(&[a, b]) {
                hits += 1;
            }
            assert_eq!(idx.contains(&[a, b]), a < b, "probe ({a}, {b})");
        } else {
            let mut it = idx.range(&[a, 0], &[a, u32::MAX]);
            let mut n = 0usize;
            while it.next_tuple().is_some() {
                n += 1;
            }
            let expect = if cols[0] == 0 {
                (nodes - 1 - a as i32).max(0) as usize
            } else {
                a as usize
            };
            assert_eq!(n, expect, "row count for stored prefix {a}");
        }
        let resident = snap
            .file
            .stats()
            .resident_bytes
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(
            resident <= budget as u64,
            "step {step}: resident {resident} exceeds budget {budget}"
        );
    }
    assert!(hits > 0, "degenerate probe pattern");
    let stats = snap.file.stats();
    assert!(
        stats.evictions.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "a 4-page budget over a multi-page run must evict"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_wrong_program_fingerprint_is_rejected() {
    let (path, _, fp) = v2_fixture("wrong-fp");
    let err = open_err(&path, fp ^ 1);
    assert!(
        err.contains("fingerprint mismatch"),
        "foreign snapshot must be rejected: {err}"
    );
}
