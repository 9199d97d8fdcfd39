//! Randomized differential testing for the resident engine: applying
//! random insertion batches incrementally must leave the database in
//! exactly the state of a from-scratch evaluation over the union of all
//! facts, under the STI and the dynamic adapter. And recovery, which
//! folds a write-ahead log into one net batch per relation, must reopen
//! to exactly the state the live engine held, write by write.
//!
//! Programs come from the same restricted seeded grammar as
//! `prop_differential` (negation included, so the full-recompute
//! fallback path is exercised alongside the delta-restart path).
//! proptest is not vendored; each failing case reproduces from its seed.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use stir::core::resident::{PersistOptions, RecoveryReport};
use stir::{Engine, InputData, InterpreterConfig, ResidentEngine, StorageBackend, Value};
use stir_frontend::parse_and_check;

#[derive(Debug, Clone)]
enum BodyAtom {
    E(usize, usize),
    F(usize, usize),
    NotE(usize, usize),
    Lt(usize, usize),
    Bind(usize, usize, i64),
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn body_atom(state: &mut u64) -> BodyAtom {
    let a = (splitmix(state) % 4) as usize;
    let b = (splitmix(state) % 4) as usize;
    match splitmix(state) % 9 {
        0..=2 => BodyAtom::E(a, b),
        3..=5 => BodyAtom::F(a, b),
        6 => BodyAtom::NotE(a, b),
        7 => BodyAtom::Lt(a, b),
        _ => BodyAtom::Bind(a, b, (splitmix(state) % 7) as i64 - 3),
    }
}

fn render_rule(head: (usize, usize), body: &[BodyAtom]) -> Option<String> {
    let mut bound = [false; 4];
    let mut parts: Vec<String> = Vec::new();
    let mut positives = 0;
    for atom in body {
        match atom {
            BodyAtom::E(a, b) => {
                bound[*a] = true;
                bound[*b] = true;
                parts.push(format!("e(v{a}, v{b})"));
                positives += 1;
            }
            BodyAtom::F(a, b) => {
                bound[*a] = true;
                bound[*b] = true;
                parts.push(format!("f(v{a}, v{b})"));
                positives += 1;
            }
            BodyAtom::NotE(a, b) => {
                if !bound[*a] || !bound[*b] {
                    return None;
                }
                parts.push(format!("!e(v{a}, v{b})"));
            }
            BodyAtom::Lt(a, b) => {
                if !bound[*a] || !bound[*b] {
                    return None;
                }
                parts.push(format!("v{a} < v{b}"));
            }
            BodyAtom::Bind(k, i, c) => {
                if !bound[*i] || bound[*k] {
                    return None;
                }
                bound[*k] = true;
                parts.push(format!("v{k} = v{i} + {c}"));
            }
        }
    }
    if positives == 0 || !bound[head.0] || !bound[head.1] {
        return None;
    }
    Some(format!(
        "r(v{}, v{}) :- {}.",
        head.0,
        head.1,
        parts.join(", ")
    ))
}

/// A random program over the inputs `e`, `f` and the output `r` from the
/// seeded grammar, with `tail` (declarations and rules) appended; `None`
/// when the draw is degenerate.
fn random_program(state: &mut u64, tail: &str) -> Option<String> {
    let n_rules = 1 + (splitmix(state) % 3) as usize;
    let mut rules: Vec<String> = Vec::new();
    for _ in 0..n_rules {
        let n_atoms = 1 + (splitmix(state) % 4) as usize;
        let body: Vec<BodyAtom> = (0..n_atoms).map(|_| body_atom(state)).collect();
        let head = (
            (splitmix(state) % 4) as usize,
            (splitmix(state) % 4) as usize,
        );
        if let Some(r) = render_rule(head, &body) {
            rules.push(r);
        }
    }
    if rules.is_empty() {
        return None;
    }
    if splitmix(state).is_multiple_of(2) {
        rules.push("r(x, z) :- r(x, y), e(y, z).".to_owned());
    }
    let src = format!(
        ".decl e(x: number, y: number)\n.input e\n\
         .decl f(x: number, y: number)\n.input f\n\
         .decl r(x: number, y: number)\n.output r\n\
         {}\n{tail}",
        rules.join("\n")
    );
    parse_and_check(&src).is_ok().then_some(src)
}

fn pairs(state: &mut u64, n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|_| {
            vec![
                Value::Number((splitmix(state) % 9) as i32),
                Value::Number((splitmix(state) % 9) as i32),
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

#[test]
fn incremental_batches_match_from_scratch_union() {
    let modes: [(&str, InterpreterConfig); 2] = [
        ("sti", InterpreterConfig::optimized()),
        ("dynamic", InterpreterConfig::dynamic_adapter()),
    ];
    let mut checked_cases = 0;
    let (mut saw_incremental, mut saw_fallback) = (false, false);
    for seed in 1u64..=48 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let Some(src) = random_program(&mut state, "") else {
            continue;
        };

        let mut initial = InputData::new();
        initial.insert("e".into(), pairs(&mut state, 8));
        initial.insert("f".into(), pairs(&mut state, 6));
        let n_batches = 1 + (splitmix(&mut state) % 3) as usize;
        let batches: Vec<(String, Vec<Vec<Value>>)> = (0..n_batches)
            .map(|_| {
                let rel = if splitmix(&mut state).is_multiple_of(2) {
                    "e"
                } else {
                    "f"
                };
                let n = 1 + (splitmix(&mut state) % 4) as usize;
                (rel.to_string(), pairs(&mut state, n))
            })
            .collect();

        // The oracle: one from-scratch run over the union of all facts.
        let mut union = initial.clone();
        for (rel, rows) in &batches {
            union
                .get_mut(rel.as_str())
                .expect("e/f present")
                .extend(rows.iter().cloned());
        }

        for (mode, config) in &modes {
            let mut resident =
                ResidentEngine::from_source(&src, *config, &initial, None).expect("builds");
            for (rel, rows) in &batches {
                resident
                    .insert_facts(rel, rows, None)
                    .unwrap_or_else(|e| panic!("seed {seed} mode {mode}: {e}\n{src}"));
            }
            let incremental = resident.outputs();

            let oracle = Engine::from_source(&src)
                .expect("compiles")
                .run(*config, &union)
                .expect("evaluates");
            assert_eq!(
                sorted(&incremental["r"]),
                sorted(&oracle.outputs["r"]),
                "seed {seed} mode {mode}\nprogram:\n{src}"
            );

            let stats = resident.stats();
            saw_incremental |= stats.strata_rerun > 0;
            saw_fallback |= stats.full_fallbacks > 0;
        }
        checked_cases += 1;
    }
    assert!(
        checked_cases >= 10,
        "generator degenerated: only {checked_cases} well-formed cases"
    );
    assert!(saw_incremental, "no case exercised the delta-restart path");
    assert!(saw_fallback, "no case exercised the negation fallback path");
}

/// Symbol rows joined to the random program's `r`.
const SYMBOLS: &str = "\
    .decl s(x: number, n: symbol)\n.input s\n\
    .decl t(n: symbol, y: number)\n.output t\n\
    t(n, y) :- s(x, n), r(x, y).\n";

/// One logged write: insert (`true`) or retract, relation, rows.
type Logged = (bool, &'static str, Vec<Vec<Value>>);

fn edge(x: i32, y: i32) -> Vec<Value> {
    vec![Value::Number(x), Value::Number(y)]
}

/// A random write log over small pools, so rows repeat: it opens with a
/// row inserted, retracted and inserted again and a retraction of an
/// absent row, then draws `n` writes to `e`, `f` and the symbol relation
/// `s`, whose retractions may name a symbol no write ever interned.
fn random_log(state: &mut u64, n: usize) -> Vec<Logged> {
    let mut log: Vec<Logged> = vec![
        (true, "e", vec![edge(7, 8)]),
        (false, "e", vec![edge(7, 8)]),
        (true, "e", vec![edge(7, 8)]),
        (false, "f", vec![edge(8, 8)]),
    ];
    let names = ["ada", "bob", "cy", "never-interned"];
    for _ in 0..n {
        let insert = !splitmix(state).is_multiple_of(3);
        let rel = ["e", "f", "s"][(splitmix(state) % 3) as usize];
        let rows = (0..1 + splitmix(state) % 3)
            .map(|_| {
                let x = (splitmix(state) % 6) as i32;
                if rel == "s" {
                    let name = names[(splitmix(state) % if insert { 3 } else { 4 }) as usize];
                    vec![Value::Number(x), Value::Symbol(name.into())]
                } else {
                    edge(x, (splitmix(state) % 6) as i32)
                }
            })
            .collect();
        log.push((insert, rel, rows));
    }
    log
}

fn data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("stir-resident-diff")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(
    src: &str,
    config: InterpreterConfig,
    inputs: &InputData,
    dir: &Path,
) -> (ResidentEngine, RecoveryReport) {
    let engine = Engine::from_source(src).expect("compiles");
    ResidentEngine::open(engine, config, inputs, dir, PersistOptions::default(), None)
        .expect("opens")
}

/// Applies `log` to a durable engine and returns what it serves, taking
/// a snapshot before write `snapshot_at`; the engine is dropped with no
/// shutdown, as a crash would leave it.
fn run_live(
    src: &str,
    config: InterpreterConfig,
    inputs: &InputData,
    dir: &Path,
    log: &[Logged],
    snapshot_at: Option<usize>,
) -> std::collections::HashMap<String, Vec<Vec<Value>>> {
    let (mut live, _) = open(src, config, inputs, dir);
    for (i, (insert, rel, rows)) in log.iter().enumerate() {
        if snapshot_at == Some(i) {
            live.snapshot(None).expect("snapshots");
        }
        let applied = if *insert {
            live.insert_facts(rel, rows, None).map(drop)
        } else {
            live.retract_facts(rel, rows, None).map(drop)
        };
        applied.unwrap_or_else(|e| panic!("write {i}: {e}\n{src}"));
    }
    live.outputs()
}

#[test]
fn recovery_reopens_to_the_live_engine_state() {
    let mut setups = Vec::new();
    for storage in [StorageBackend::Mem, StorageBackend::Disk] {
        for jobs in [1, 4] {
            setups.push(
                InterpreterConfig::optimized()
                    .with_storage(storage)
                    .with_jobs(jobs),
            );
        }
    }
    let (mut checked_cases, mut snapshots) = (0, 0);
    for seed in 1u64..=40 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let Some(src) = random_program(&mut state, SYMBOLS) else {
            continue;
        };
        let mut initial = InputData::new();
        initial.insert("e".into(), pairs(&mut state, 6));
        initial.insert("f".into(), pairs(&mut state, 4));
        initial.insert(
            "s".into(),
            vec![vec![Value::Number(1), Value::Symbol("ada".into())]],
        );
        let log = random_log(&mut state, 24);
        let snapshot_at = splitmix(&mut state)
            .is_multiple_of(2)
            .then_some(log.len() / 2);
        snapshots += usize::from(snapshot_at.is_some());
        for config in &setups {
            let case = format!("seed {seed} {:?} jobs {}", config.storage, config.jobs);
            let dir = data_dir(&format!("fold-{seed}"));
            let live = run_live(&src, *config, &initial, &dir, &log, snapshot_at);
            let (recovered, report) = open(&src, *config, &initial, &dir);
            assert_eq!(report.snapshot_loaded, snapshot_at.is_some(), "{case}");
            let suffix = log.len() - snapshot_at.unwrap_or(0);
            assert_eq!(report.replayed_batches, suffix as u64, "{case}");
            assert_eq!(report.skipped_batches, 0, "{case}");
            assert_eq!(recovered.outputs(), live, "{case}\nprogram:\n{src}");
            drop(recovered);
            let _ = std::fs::remove_dir_all(&dir);
        }
        checked_cases += 1;
    }
    assert!(
        checked_cases >= 10,
        "generator degenerated: only {checked_cases} well-formed cases"
    );
    assert!(
        snapshots > 0 && snapshots < checked_cases,
        "{snapshots} of {checked_cases} cases snapshot midway"
    );
}

/// `.input` relations that are also rule heads: `a` and `r` derive from
/// `s` (one declared before it, one after, so recovery applies one
/// before and one after its source), and `c` derives from itself; `n`
/// reads `c` under negation, so some writes recompute strata.
const INPUT_HEADS: &str = "\
    .decl a(x: number)\n.input a\n.output a\n\
    .decl s(x: number)\n.input s\n.output s\n\
    .decl r(x: number)\n.input r\n.output r\n\
    .decl c(x: number)\n.input c\n.output c\n\
    .decl o(x: number)\n.output o\n\
    .decl n(x: number)\n.output n\n\
    a(x) :- s(x).\n\
    r(x) :- s(x).\n\
    c(x + 1) :- c(x), x < 4.\n\
    o(x) :- a(x), r(x), c(x).\n\
    n(x) :- s(x), !c(x).\n";

fn unary(x: i32) -> Vec<Value> {
    vec![Value::Number(x)]
}

/// Whether a row is in an `.input` relation that is also a rule head
/// must not hang on the order of the writes: an insert makes a row
/// ground even when it is already derived, so the folded log reopens
/// to the live ground facts, and the retractions that follow take the
/// same tuples from both.
#[test]
fn recovery_keeps_ground_facts_of_input_rule_heads() {
    let rels = ["a", "s", "r", "c"];
    let state_of = |e: &ResidentEngine| e.outputs();
    for seed in 1u64..=24 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // The two orders of the module-level examples, then random writes.
        let mut log: Vec<Logged> = vec![
            (true, "r", vec![unary(1)]),
            (true, "s", vec![unary(1)]),
            (true, "c", vec![unary(0)]),
            (true, "c", vec![unary(2)]),
        ];
        for _ in 0..16 {
            let insert = !splitmix(&mut state).is_multiple_of(3);
            let rel = rels[(splitmix(&mut state) % 4) as usize];
            let rows = (0..1 + splitmix(&mut state) % 2)
                .map(|_| unary((splitmix(&mut state) % 6) as i32))
                .collect();
            log.push((insert, rel, rows));
        }
        let storage = [StorageBackend::Mem, StorageBackend::Disk][seed as usize % 2];
        let jobs = [1, 4][seed as usize / 2 % 2];
        let config = InterpreterConfig::optimized()
            .with_storage(storage)
            .with_jobs(jobs);
        let engine = || Engine::from_source(INPUT_HEADS).expect("compiles");
        let mut shadow =
            ResidentEngine::new(engine(), config, &InputData::new(), None).expect("builds");
        let dir = data_dir(&format!("input-heads-{seed}"));
        let (mut live, _) = open(INPUT_HEADS, config, &InputData::new(), &dir);
        for (i, (insert, rel, rows)) in log.iter().enumerate() {
            for e in [&mut shadow, &mut live] {
                let applied = if *insert {
                    e.insert_facts(rel, rows, None).map(drop)
                } else {
                    e.retract_facts(rel, rows, None).map(drop)
                };
                applied.unwrap_or_else(|e| panic!("seed {seed} write {i}: {e}"));
            }
        }
        assert_eq!(state_of(&live), state_of(&shadow), "seed {seed}");
        drop(live);
        let (mut recovered, report) = open(INPUT_HEADS, config, &InputData::new(), &dir);
        assert_eq!(report.skipped_batches, 0, "seed {seed}");
        assert_eq!(state_of(&recovered), state_of(&shadow), "seed {seed}");
        // Retract the sources, then every row of each head in turn: what
        // survives each step is what was ground.
        let follow_ups = [("s", 0..6), ("c", 0..1), ("a", 0..6), ("c", 0..6)];
        for (rel, xs) in follow_ups {
            let rows: Vec<_> = xs.map(unary).collect();
            for e in [&mut shadow, &mut recovered] {
                e.retract_facts(rel, &rows, None).expect("retracts");
            }
            let step = format!("seed {seed} after retracting {rel}");
            assert_eq!(state_of(&recovered), state_of(&shadow), "{step}");
        }
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A thousand logged writes to one relation reopen in one stratum walk,
/// not a thousand.
#[test]
fn recovery_walks_the_strata_once_per_relation() {
    let src = "\
        .decl e(x: number, y: number)\n.input e\n\
        .decl p(x: number, y: number)\n.output p\n\
        .decl q(y: number)\n.output q\n\
        p(x, y) :- e(x, y).\n\
        p(x, z) :- p(x, y), e(y, z).\n\
        q(y) :- p(0, y).\n";
    let mut initial = InputData::new();
    initial.insert("e".into(), (0..8).map(|i| edge(i, i + 1)).collect());
    // Insert, retract and re-insert edges of a 16-edge pool beside the
    // initial chain.
    let log: Vec<Logged> = (0..1000)
        .map(|k| {
            let i = k * 7 % 16;
            (k % 3 != 1, "e", vec![edge(8 + i, 9 + i)])
        })
        .collect();
    let config = InterpreterConfig::optimized();
    let dir = data_dir("one-walk");
    let live = run_live(src, config, &initial, &dir, &log, None);
    let (recovered, report) = open(src, config, &initial, &dir);
    assert_eq!(report.replayed_batches, 1000);
    assert_eq!(recovered.outputs(), live);
    let stats = recovered.stats();
    let strata = recovered.ram().strata.len() as u64;
    assert!(
        stats.strata_rerun + stats.full_fallbacks <= strata,
        "{} strata re-run and {} recomputed over {strata} strata",
        stats.strata_rerun,
        stats.full_fallbacks
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A logged write whose evaluation divides by zero is refused live but
/// stays in the log. Recovery folds it into its relation's one batch,
/// which then fails too: every row of that batch is admitted, good and
/// bad alike, but the derivations stop where the error struck, so an
/// acknowledged good write to the same relation loses its derived
/// tuples. Every record of that relation counts as skipped, and every
/// relation still answers queries.
#[test]
fn a_logged_division_by_zero_is_skipped_at_recovery() {
    let src = "\
        .decl a(h: number, d: number)\n.input a\n\
        .decl q(h: number, x: number)\n.output q\n\
        .decl e(x: number, y: number)\n.input e\n\
        .decl p(x: number, y: number)\n.output p\n\
        q(h, h / d) :- a(h, d).\n\
        p(x, y) :- e(x, y).\n";
    let mut initial = InputData::new();
    initial.insert("a".into(), vec![edge(4, 2)]);
    let config = InterpreterConfig::optimized();
    let dir = data_dir("div-zero");
    let (mut live, _) = open(src, config, &initial, &dir);
    live.insert_facts("e", &[edge(1, 2)], None)
        .expect("inserts");
    live.insert_facts("a", &[edge(6, 3)], None)
        .expect("inserts");
    let err = live
        .insert_facts("a", &[edge(4, 0)], None)
        .expect_err("divides by zero");
    assert!(err.to_string().contains("division by zero"), "{err}");
    live.insert_facts("e", &[edge(2, 3)], None)
        .expect("inserts");
    let all = |e: &ResidentEngine, rel: &str| {
        e.query(rel, &[None, None], None)
            .unwrap_or_else(|err| panic!("?{rel}: {err}"))
    };
    let (p, a) = (live.outputs()["p"].clone(), all(&live, "a"));
    assert_eq!(live.outputs()["q"], vec![edge(4, 2), edge(6, 2)]);
    drop(live);

    let (recovered, report) = open(src, config, &initial, &dir);
    assert_eq!(report.skipped_batches, 2, "both writes to `a`: {report:?}");
    assert_eq!(report.replayed_batches, 2, "{report:?}");
    assert_eq!(recovered.outputs()["p"], p);
    // The failed batch's rows are all in `a`, as they were live...
    assert_eq!(all(&recovered, "a"), a);
    // ...but the sorted batch met `a(4, 0)` before `a(6, 3)`, so the
    // good write's `q(6, 2)` is lost.
    assert_eq!(all(&recovered, "q"), vec![edge(4, 2)]);
    for rel in ["a", "q", "e", "p"] {
        all(&recovered, rel);
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}
