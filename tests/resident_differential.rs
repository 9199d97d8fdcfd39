//! Randomized differential testing for the resident engine: applying
//! random insertion batches incrementally must leave the database in
//! exactly the state of a from-scratch evaluation over the union of all
//! facts, under the STI and the dynamic adapter.
//!
//! Programs come from the same restricted seeded grammar as
//! `prop_differential` (negation included, so the full-recompute
//! fallback path is exercised alongside the delta-restart path).
//! proptest is not vendored; each failing case reproduces from its seed.

use std::collections::BTreeSet;
use stir::{Engine, InputData, InterpreterConfig, ResidentEngine, Value};
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
