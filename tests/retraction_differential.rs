//! Randomized differential testing for retraction: interleaving random
//! insertion and retraction batches through the resident engine must
//! leave the database in exactly the state of a from-scratch evaluation
//! over the *surviving* facts, under the STI and the dynamic adapter at
//! jobs 1 and 4.
//!
//! Programs come from the same restricted seeded grammar as
//! `resident_differential` (negation included, so retraction's
//! full-recompute fallback is exercised alongside the DRed over-delete /
//! re-derive path), with non-recursive heads that carry a constant or an
//! arithmetic column besides two plain variables. A second test retracts under annotated evaluation
//! and re-checks every surviving `.explain` tree with the independent
//! proof checker obligations (membership, height discipline, rule
//! re-instantiation). proptest is not vendored; each failing case
//! reproduces from its seed.

use std::collections::BTreeSet;
use stir::{Engine, ExplainLimits, InputData, InterpreterConfig, ProofNode, ResidentEngine, Value};
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

/// The head of a generated (non-recursive) rule: two plain variables, a
/// constant column, or an arithmetic column — each head argument the
/// re-derive variant turns into an equality with its cone.
#[derive(Debug, Clone, Copy)]
enum Head {
    Vars(usize, usize),
    Const(usize),
    Plus(usize, usize),
}

fn head(state: &mut u64) -> Head {
    let a = (splitmix(state) % 4) as usize;
    let b = (splitmix(state) % 4) as usize;
    match splitmix(state) % 4 {
        0 => Head::Const(a),
        1 => Head::Plus(a, b),
        _ => Head::Vars(a, b),
    }
}

fn render_rule(head: Head, body: &[BodyAtom]) -> Option<String> {
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
    let (vars, head) = match head {
        Head::Vars(a, b) => ([a, b], format!("r(v{a}, v{b})")),
        Head::Const(a) => ([a, a], format!("r(v{a}, 7)")),
        Head::Plus(a, b) => ([a, b], format!("r(v{a}, v{b} + 1)")),
    };
    if positives == 0 || vars.iter().any(|&v| !bound[v]) {
        return None;
    }
    Some(format!("{head} :- {}.", parts.join(", ")))
}

fn pairs(state: &mut u64, n: usize, dom: u64) -> Vec<Vec<Value>> {
    (0..n)
        .map(|_| {
            vec![
                Value::Number((splitmix(state) % dom) as i32),
                Value::Number((splitmix(state) % dom) as i32),
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

fn modes() -> [(&'static str, InterpreterConfig); 2] {
    [
        ("sti", InterpreterConfig::optimized()),
        ("dynamic", InterpreterConfig::dynamic_adapter()),
    ]
}

/// One step of a random update stream.
#[derive(Debug, Clone)]
enum Op {
    Insert(&'static str, Vec<Vec<Value>>),
    Retract(&'static str, Vec<Vec<Value>>),
}

/// A random interleaving over the live fact sets. Retractions mostly
/// pick facts that are actually present (so the deletion machinery has
/// real work) with an occasional absent row mixed in (a no-op, as in
/// real update streams).
fn interleaving(
    state: &mut u64,
    live_e: &mut Vec<Vec<Value>>,
    live_f: &mut Vec<Vec<Value>>,
    n_ops: usize,
) -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..n_ops {
        let (rel, live): (&'static str, &mut Vec<Vec<Value>>) = if splitmix(state).is_multiple_of(2)
        {
            ("e", live_e)
        } else {
            ("f", live_f)
        };
        let retract = !live.is_empty() && !splitmix(state).is_multiple_of(3);
        if retract {
            let n = 1 + (splitmix(state) % 3) as usize;
            let mut rows = Vec::new();
            for _ in 0..n {
                if splitmix(state).is_multiple_of(5) {
                    rows.extend(pairs(state, 1, 9)); // likely absent
                } else if !live.is_empty() {
                    let k = (splitmix(state) as usize) % live.len();
                    rows.push(live[k].clone());
                }
            }
            for r in &rows {
                live.retain(|x| x != r);
            }
            ops.push(Op::Retract(rel, rows));
        } else {
            let n = 1 + (splitmix(state) % 4) as usize;
            let rows = pairs(state, n, 9);
            for r in &rows {
                if !live.contains(r) {
                    live.push(r.clone());
                }
            }
            ops.push(Op::Insert(rel, rows));
        }
    }
    ops
}

#[test]
fn retraction_interleavings_match_from_scratch_survivors() {
    let mut checked_cases = 0;
    let (mut saw_incremental, mut saw_fallback, mut saw_rederive) = (false, false, false);
    // A re-derived tuple in a program with a constant or arithmetic head.
    let mut saw_shaped_rederive = false;
    for seed in 1u64..=40 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1E5;
        let n_rules = 1 + (splitmix(&mut state) % 3) as usize;
        let mut rules: Vec<String> = Vec::new();
        for _ in 0..n_rules {
            let n_atoms = 1 + (splitmix(&mut state) % 4) as usize;
            let body: Vec<BodyAtom> = (0..n_atoms).map(|_| body_atom(&mut state)).collect();
            if let Some(r) = render_rule(head(&mut state), &body) {
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

        let mut initial = InputData::new();
        initial.insert("e".into(), pairs(&mut state, 8, 9));
        initial.insert("f".into(), pairs(&mut state, 6, 9));
        // The live sets the interleaving evolves: the oracle evaluates
        // from scratch over exactly these survivors at the end.
        let mut live_e: Vec<Vec<Value>> = Vec::new();
        for r in &initial["e"] {
            if !live_e.contains(r) {
                live_e.push(r.clone());
            }
        }
        let mut live_f: Vec<Vec<Value>> = Vec::new();
        for r in &initial["f"] {
            if !live_f.contains(r) {
                live_f.push(r.clone());
            }
        }
        let n_ops = 2 + (splitmix(&mut state) % 4) as usize;
        let ops = interleaving(&mut state, &mut live_e, &mut live_f, n_ops);
        if !ops.iter().any(|o| matches!(o, Op::Retract(..))) {
            continue;
        }

        let mut survivors = InputData::new();
        survivors.insert("e".into(), live_e.clone());
        survivors.insert("f".into(), live_f.clone());

        for (mode, config) in &modes() {
            for jobs in [1usize, 4] {
                let ctx = format!("seed {seed} mode {mode} jobs {jobs}");
                let config = config.with_jobs(jobs);
                let mut resident = ResidentEngine::from_source(&src, config, &initial, None)
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                for op in &ops {
                    match op {
                        Op::Insert(rel, rows) => resident
                            .insert_facts(rel, rows, None)
                            .map(|_| ())
                            .unwrap_or_else(|e| panic!("{ctx}: insert: {e}\n{src}")),
                        Op::Retract(rel, rows) => {
                            let report = resident
                                .retract_facts(rel, rows, None)
                                .unwrap_or_else(|e| panic!("{ctx}: retract: {e}\n{src}"));
                            saw_rederive |= report.rederived > 0;
                            let shaped = src.contains(", 7) :-") || src.contains(" + 1) :-");
                            saw_shaped_rederive |= shaped && report.rederived > 0;
                        }
                    }
                }
                let incremental = resident.outputs();

                let oracle = Engine::from_source(&src)
                    .expect("compiles")
                    .run(config, &survivors)
                    .expect("evaluates");
                assert_eq!(
                    sorted(&incremental["r"]),
                    sorted(&oracle.outputs["r"]),
                    "{ctx}\nops: {ops:?}\nprogram:\n{src}"
                );

                let stats = resident.stats();
                assert!(stats.retracts > 0, "{ctx}: retraction counter never moved");
                saw_incremental |= stats.strata_rerun > 0;
                saw_fallback |= stats.full_fallbacks > 0;
            }
        }
        checked_cases += 1;
    }
    assert!(
        checked_cases >= 10,
        "generator degenerated: only {checked_cases} cases had a retraction"
    );
    assert!(
        saw_incremental,
        "no case exercised the DRed incremental path"
    );
    assert!(saw_rederive, "no case restored an over-deleted tuple");
    assert!(
        saw_shaped_rederive,
        "no case restored a tuple of a constant or arithmetic head"
    );

    // The grammar only rarely aims a retraction at a negatively-read
    // relation, so pin the recompute-fallback path deterministically:
    // retracting from `e` flips `!e(..)` bodies, which one-step
    // re-derivation cannot handle.
    if !saw_fallback {
        let src = "\
            .decl e(x: number, y: number)\n.input e\n\
            .decl f(x: number, y: number)\n.input f\n\
            .decl r(x: number, y: number)\n.output r\n\
            r(x, y) :- f(x, y), !e(x, y).\n";
        let mut initial = InputData::new();
        initial.insert("e".into(), vec![vec![Value::Number(1), Value::Number(2)]]);
        initial.insert(
            "f".into(),
            vec![
                vec![Value::Number(1), Value::Number(2)],
                vec![Value::Number(3), Value::Number(4)],
            ],
        );
        let mut resident =
            ResidentEngine::from_source(src, InterpreterConfig::optimized(), &initial, None)
                .expect("builds");
        resident
            .retract_facts("e", &[vec![Value::Number(1), Value::Number(2)]], None)
            .expect("retracts");
        assert_eq!(
            sorted(&resident.outputs()["r"]).len(),
            2,
            "!e(1,2) now holds"
        );
        saw_fallback = resident.stats().full_fallbacks > 0;
    }
    assert!(
        saw_fallback,
        "no case exercised the recompute fallback path"
    );
}

const TC: &str = "\
    .decl e(x: number, y: number)\n.input e\n\
    .decl p(x: number, y: number)\n.output p\n\
    p(x, y) :- e(x, y).\n\
    p(x, z) :- p(x, y), e(y, z).\n";

const TC_MINI_DECLS: &str = "\
    .decl e(x: number, y: number)\n\
    .decl p(x: number, y: number)\n";

fn decode(tuple: &[u32]) -> Vec<Value> {
    tuple.iter().map(|&b| Value::Number(b as i32)).collect()
}

fn fact_line(rel: &str, tuple: &[u32]) -> String {
    let vals: Vec<String> = tuple.iter().map(|&b| (b as i32).to_string()).collect();
    format!("{rel}({}).", vals.join(", "))
}

/// The independent proof checker from the provenance suite: membership
/// in the live (post-retraction) database, strict height discipline, and
/// rule re-instantiation over just the premises. Returns nodes visited.
fn check_tree(engine: &ResidentEngine, node: &ProofNode, ctx: &str) -> usize {
    let name = engine.ram().relations[node.rel.0].name.clone();
    let pattern: Vec<Option<Value>> = decode(&node.tuple).into_iter().map(Some).collect();
    let rows = engine
        .query(&name, &pattern, None)
        .unwrap_or_else(|e| panic!("{ctx}: membership query for {name} failed: {e}"));
    assert_eq!(
        rows.len(),
        1,
        "{ctx}: node {name}{:?} is not in the post-retraction database",
        node.tuple
    );
    if node.is_input() {
        assert_eq!(node.height, 0, "{ctx}: input {name}{:?}", node.tuple);
        assert!(node.premises.is_empty(), "{ctx}: input node with premises");
    } else {
        assert!(
            node.height >= 1,
            "{ctx}: derived {name}{:?} at height 0",
            node.tuple
        );
        for p in &node.premises {
            assert!(
                p.height < node.height,
                "{ctx}: premise height {} >= conclusion height {} for {name}{:?}",
                p.height,
                node.height,
                node.tuple
            );
        }
    }
    if !node.is_input() && !node.opaque && !node.truncated {
        let rule = node
            .label
            .as_deref()
            .unwrap_or_else(|| panic!("{ctx}: derived node without a rule label"));
        let mut mini = String::from(TC_MINI_DECLS);
        mini.push_str(&format!(".output {name}\n"));
        for p in &node.premises {
            let p_name = &engine.ram().relations[p.rel.0].name;
            mini.push_str(&fact_line(p_name, &p.tuple));
            mini.push('\n');
        }
        mini.push_str(rule);
        mini.push('\n');
        let out = Engine::from_source(&mini)
            .unwrap_or_else(|e| panic!("{ctx}: mini program rejected: {e}\n{mini}"))
            .run(InterpreterConfig::optimized(), &InputData::new())
            .unwrap_or_else(|e| panic!("{ctx}: mini program failed: {e}\n{mini}"));
        let want = decode(&node.tuple);
        assert!(
            out.outputs[&name].contains(&want),
            "{ctx}: rule `{rule}` does not derive {name}{want:?} from its premises\n{mini}"
        );
    }
    1 + node
        .premises
        .iter()
        .map(|p| check_tree(engine, p, ctx))
        .sum::<usize>()
}

/// Retraction under annotated evaluation: after random insert/retract
/// interleavings, every surviving output tuple must still hand out a
/// proof tree that passes the independent checker — no tree may lean on
/// an erased fact, and heights must reflect the shrunken database.
#[test]
fn explain_trees_stay_valid_across_retractions() {
    let mut nodes = 0usize;
    for seed in 1u64..=6 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xE4A5;
        let mut initial = InputData::new();
        initial.insert("e".into(), pairs(&mut state, 12, 6));
        let mut live: Vec<Vec<Value>> = Vec::new();
        for r in &initial["e"] {
            if !live.contains(r) {
                live.push(r.clone());
            }
        }
        for (mode, config) in &modes() {
            for jobs in [1usize, 4] {
                let ctx = format!("seed {seed} mode {mode} jobs {jobs}");
                let config = config.with_jobs(jobs).with_provenance();
                let mut engine = ResidentEngine::from_source(TC, config, &initial, None)
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                // Retract a third of the live edges, then insert a couple
                // back, then retract one more — a real interleaving.
                let mut doomed = Vec::new();
                let mut s2 = state;
                for _ in 0..live.len() / 3 {
                    let k = (splitmix(&mut s2) as usize) % live.len();
                    doomed.push(live[k].clone());
                }
                engine
                    .retract_facts("e", &doomed, None)
                    .unwrap_or_else(|e| panic!("{ctx}: retract: {e}"));
                let back = pairs(&mut s2, 2, 6);
                engine
                    .insert_facts("e", &back, None)
                    .unwrap_or_else(|e| panic!("{ctx}: insert: {e}"));
                if let Some(last) = back.last() {
                    engine
                        .retract_facts("e", std::slice::from_ref(last), None)
                        .unwrap_or_else(|e| panic!("{ctx}: retract: {e}"));
                }
                for row in &engine.outputs()["p"] {
                    let node = engine
                        .explain("p", row, ExplainLimits::default(), None)
                        .unwrap_or_else(|e| panic!("{ctx}: explain p{row:?}: {e}"));
                    nodes += check_tree(&engine, &node, &ctx);
                }
            }
        }
    }
    assert!(nodes > 300, "checker degenerated: only {nodes} nodes seen");
}
