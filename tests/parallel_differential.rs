//! Randomized differential testing for parallel evaluation: running a
//! program with `--jobs N` (including odd/prime worker counts that
//! never divide the data evenly) must produce exactly the relations
//! (and the same profile tuple counts) as `--jobs 1`, in every
//! interpreter mode. A tiny morsel size forces the work-stealing
//! machinery onto these small test relations — at the default target
//! every rule would decline to fan out. The last test is the opposite
//! case: default-size morsels on relations that straddle the boundary.
//!
//! Programs come from the same restricted seeded grammar as
//! `resident_differential`. proptest is not vendored; each failing case
//! reproduces from its seed.

use std::collections::BTreeSet;
use stir::{Engine, InputData, InterpreterConfig, Value};
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

/// Job counts exercised against the sequential baseline: the even split,
/// plus odd/prime counts that leave remainder morsels on every range.
const JOB_COUNTS: [usize; 3] = [3, 4, 7];

/// Morsel target small enough that the tiny test relations still split
/// into many chunks (and steals actually happen).
const TINY_MORSELS: usize = 2;

#[test]
fn many_jobs_match_one_job_in_every_mode() {
    let modes: [(&str, InterpreterConfig); 4] = [
        ("sti", InterpreterConfig::optimized()),
        ("dynamic", InterpreterConfig::dynamic_adapter()),
        ("unopt", InterpreterConfig::unoptimized()),
        ("legacy", InterpreterConfig::legacy()),
    ];
    let mut checked_cases = 0;
    for seed in 1u64..=48 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let n_rules = 1 + (splitmix(&mut state) % 3) as usize;
        let mut rules: Vec<String> = Vec::new();
        for _ in 0..n_rules {
            let n_atoms = 1 + (splitmix(&mut state) % 4) as usize;
            let body: Vec<BodyAtom> = (0..n_atoms).map(|_| body_atom(&mut state)).collect();
            let head = (
                (splitmix(&mut state) % 4) as usize,
                (splitmix(&mut state) % 4) as usize,
            );
            if let Some(r) = render_rule(head, &body) {
                rules.push(r);
            }
        }
        if rules.is_empty() {
            continue;
        }
        if splitmix(&mut state).is_multiple_of(2) {
            rules.push("r(x, z) :- r(x, y), e(y, z).".to_owned());
        }
        let src = format!(
            ".decl e(x: number, y: number)\n.input e\n\
             .decl f(x: number, y: number)\n.input f\n\
             .decl r(x: number, y: number)\n.output r\n\
             {}\n",
            rules.join("\n")
        );
        if parse_and_check(&src).is_err() {
            continue;
        }

        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&mut state, 12));
        inputs.insert("f".into(), pairs(&mut state, 9));

        let engine = Engine::from_source(&src).expect("compiles");
        for (mode, config) in &modes {
            let sequential = engine
                .run(config.with_jobs(1), &inputs)
                .unwrap_or_else(|e| panic!("seed {seed} mode {mode} jobs=1: {e}\n{src}"));
            for jobs in JOB_COUNTS {
                let parallel = engine
                    .run(
                        config.with_jobs(jobs).with_morsel_size(TINY_MORSELS),
                        &inputs,
                    )
                    .unwrap_or_else(|e| panic!("seed {seed} mode {mode} jobs={jobs}: {e}\n{src}"));
                assert_eq!(
                    sorted(&sequential.outputs["r"]),
                    sorted(&parallel.outputs["r"]),
                    "seed {seed} mode {mode} jobs={jobs}\nprogram:\n{src}"
                );
            }
        }
        checked_cases += 1;
    }
    assert!(
        checked_cases >= 10,
        "generator degenerated: only {checked_cases} well-formed cases"
    );
}

/// Provenance heights must be independent of the worker count: the
/// annotation epoch advances once per executed RAM query on the
/// coordinator, so worker interleavings inside a query cannot move a
/// tuple between heights. Compared via the proof trees' root heights
/// (and shapes) for every derived tuple.
#[test]
fn proof_heights_are_job_count_invariant() {
    use stir::{ExplainLimits, ResidentEngine};
    const TC: &str = ".decl e(x: number, y: number)\n.input e\n\
                      .decl p(x: number, y: number)\n.output p\n\
                      p(x, y) :- e(x, y).\n\
                      p(x, z) :- p(x, y), e(y, z).\n";
    let mut state = 13u64;
    let mut inputs = InputData::new();
    inputs.insert("e".into(), pairs(&mut state, 24));

    for (mode, config) in [
        ("sti", InterpreterConfig::optimized()),
        ("dynamic", InterpreterConfig::dynamic_adapter()),
    ] {
        let config = config.with_provenance();
        let seq = ResidentEngine::from_source(TC, config.with_jobs(1), &inputs, None)
            .unwrap_or_else(|e| panic!("mode {mode} jobs=1: {e}"));
        let rows = seq.outputs()["p"].clone();
        for jobs in JOB_COUNTS {
            let par = ResidentEngine::from_source(
                TC,
                config.with_jobs(jobs).with_morsel_size(TINY_MORSELS),
                &inputs,
                None,
            )
            .unwrap_or_else(|e| panic!("mode {mode} jobs={jobs}: {e}"));
            assert_eq!(
                sorted(&rows),
                sorted(&par.outputs()["p"]),
                "mode {mode} jobs={jobs}"
            );
            for row in &rows {
                let a = seq
                    .explain("p", row, ExplainLimits::default(), None)
                    .unwrap_or_else(|e| panic!("mode {mode} jobs=1 explain {row:?}: {e}"));
                let b = par
                    .explain("p", row, ExplainLimits::default(), None)
                    .unwrap_or_else(|e| panic!("mode {mode} jobs={jobs} explain {row:?}: {e}"));
                assert_eq!(
                    a.height, b.height,
                    "mode {mode} jobs={jobs}: height of p{row:?} depends on the job count"
                );
                assert_eq!(
                    a.size(),
                    b.size(),
                    "mode {mode} jobs={jobs}: proof shape of p{row:?} depends on the job count"
                );
            }
        }
    }
}

/// Tuple counts in the profile must be independent of the worker count:
/// total inserts, per-relation inserts, and per-query `(executions,
/// tuples)` are all deterministic, only wall time may differ.
#[test]
fn profile_tuple_counts_are_job_count_invariant() {
    const TC: &str = ".decl e(x: number, y: number)\n.input e\n\
                      .decl p(x: number, y: number)\n.output p\n\
                      p(x, y) :- e(x, y).\n\
                      p(x, z) :- p(x, y), e(y, z).\n";
    let mut state = 7u64;
    let mut inputs = InputData::new();
    inputs.insert("e".into(), pairs(&mut state, 40));

    let engine = Engine::from_source(TC).expect("compiles");
    for config in [
        InterpreterConfig::optimized(),
        InterpreterConfig::dynamic_adapter(),
        InterpreterConfig::unoptimized(),
        InterpreterConfig::legacy(),
    ] {
        let config = config.with_profile();
        let seq = engine
            .run(config.with_jobs(1), &inputs)
            .expect("jobs=1 runs");
        let sp = seq.profile.expect("profiled");
        for jobs in JOB_COUNTS {
            let par = engine
                .run(
                    config.with_jobs(jobs).with_morsel_size(TINY_MORSELS),
                    &inputs,
                )
                .unwrap_or_else(|e| panic!("jobs={jobs} runs: {e}"));
            let pp = par.profile.expect("profiled");
            assert_eq!(sp.total_inserts, pp.total_inserts, "jobs={jobs}");
            assert_eq!(sp.relations, pp.relations, "jobs={jobs}");
            assert_eq!(sp.dispatches, pp.dispatches, "jobs={jobs}");
            assert_eq!(sp.iterations, pp.iterations, "jobs={jobs}");
            assert_eq!(sp.queries.len(), pp.queries.len(), "jobs={jobs}");
            for (s, p) in sp.queries.iter().zip(&pp.queries) {
                assert_eq!(s.label, p.label, "jobs={jobs}");
                assert_eq!(s.executions, p.executions, "jobs={jobs} query {}", s.label);
                assert_eq!(s.tuples, p.tuples, "jobs={jobs} query {}", s.label);
            }
            assert_eq!(
                sorted(&seq.outputs["p"]),
                sorted(&par.outputs["p"]),
                "jobs={jobs}"
            );
        }
    }
}

/// Runs `work` on its own thread and fails once `budget` has passed
/// instead of waiting for it: a fan-out per outer tuple takes minutes
/// on the program below, and a test that merely times the run afterwards
/// would hang the suite for as long.
fn within<T: Send + 'static>(
    budget: std::time::Duration,
    what: &str,
    work: impl FnOnce() -> T + Send + 'static,
) -> (T, std::time::Duration) {
    let (tx, rx) = std::sync::mpsc::channel();
    let started = std::time::Instant::now();
    std::thread::spawn(move || tx.send(work()));
    match rx.recv_timeout(budget) {
        Ok(out) => (out, started.elapsed()),
        Err(e) => panic!("{what}: not done within {budget:?} ({e})"),
    }
}

/// The `--jobs` cliff: a VPC topology whose outer relations fit in one
/// default-size morsel (`instance`) while inner ones do not (`listens`).
/// Gated on `idx.len()` at every scan level, the `exposed` and `conn`
/// rules spawned a thread pair per outer tuple (`--jobs 2` 61.8 s against
/// 0.22 s). The fan-out decision is made once per rule evaluation, so
/// `jobs > 1` must stay within sight of `jobs = 1` — batch and resident —
/// with identical outputs and profile counts.
#[test]
fn inner_relations_across_the_morsel_boundary_do_not_fan_out_per_outer_tuple() {
    use std::time::Duration;
    use stir::core::config::DEFAULT_MORSEL_SIZE;
    use stir::workloads::{spec::Scale, vpc};
    use stir::ResidentEngine;

    let w = vpc::generate("cliff", Scale::Medium, 1);
    assert!(w.inputs["instance"].len() <= DEFAULT_MORSEL_SIZE);
    assert!(w.inputs["listens"].len() > DEFAULT_MORSEL_SIZE);
    let config = InterpreterConfig::optimized()
        .with_profile()
        .with_morsel_size(DEFAULT_MORSEL_SIZE);
    let batch = |jobs: usize| {
        let (program, inputs) = (w.program.clone(), w.inputs.clone());
        move || {
            Engine::from_source(&program)
                .expect("compiles")
                .run(config.with_jobs(jobs), &inputs)
                .unwrap_or_else(|e| panic!("jobs={jobs}: {e}"))
        }
    };
    let (seq, base) = within(Duration::from_secs(600), "jobs=1", batch(1));
    let budget = Duration::from_secs(5).max(base * 10);
    let sp = seq.profile.expect("profiled");
    for jobs in [2, 4] {
        let (par, _) = within(budget, &format!("jobs={jobs}"), batch(jobs));
        for (name, rows) in &seq.outputs {
            assert_eq!(
                sorted(rows),
                sorted(&par.outputs[name]),
                "jobs={jobs} {name}"
            );
        }
        let pp = par.profile.expect("profiled");
        assert_eq!(sp.dispatches, pp.dispatches, "jobs={jobs}");
        assert_eq!(sp.iterations, pp.iterations, "jobs={jobs}");
        assert_eq!(sp.total_inserts, pp.total_inserts, "jobs={jobs}");
        assert_eq!(sp.relations, pp.relations, "jobs={jobs}");
        let mut evaluations = 0;
        for (s, p) in sp.queries.iter().zip(&pp.queries) {
            assert_eq!(
                (&s.label, s.executions, s.tuples),
                (&p.label, p.executions, p.tuples),
                "jobs={jobs}"
            );
            evaluations += p.executions;
        }
        let report = par.parallel.expect("marked scans ran");
        assert!(
            report.scans + report.small_scans <= evaluations,
            "jobs={jobs}: {} fan-outs and {} declined for {evaluations} rule evaluations",
            report.scans,
            report.small_scans
        );
    }

    // The same shape resident: insert, then retract, a `route` edge into
    // the recursive stratum (the roadmap's 55 s retraction at `--jobs 2`).
    let edge = vec![vec![Value::Number(0), Value::Number(100)]];
    assert!(!w.inputs["route"].contains(&edge[0]));
    let resident = |jobs: usize| {
        let (program, inputs, edge) = (w.program.clone(), w.inputs.clone(), edge.clone());
        move || {
            let config = config.with_jobs(jobs);
            let mut engine =
                ResidentEngine::from_source(&program, config, &inputs, None).expect("comes up");
            engine.insert_facts("route", &edge, None).expect("inserts");
            let inserted = engine.outputs();
            engine
                .retract_facts("route", &edge, None)
                .expect("retracts");
            (inserted, engine.outputs())
        }
    };
    let (seq, base) = within(Duration::from_secs(600), "resident jobs=1", resident(1));
    let budget = Duration::from_secs(5).max(base * 10);
    let (par, _) = within(budget, "resident jobs=2", resident(2));
    for (name, rows) in &seq.0 {
        assert_eq!(sorted(rows), sorted(&par.0[name]), "inserted: {name}");
    }
    for (name, rows) in &seq.1 {
        assert_eq!(sorted(rows), sorted(&par.1[name]), "retracted: {name}");
    }
}
