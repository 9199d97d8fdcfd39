//! Randomized differential testing: randomly generated Datalog programs
//! (from a restricted grammar) and inputs must produce identical results
//! under the naive reference evaluator and every interpreter
//! configuration.
//!
//! Programs are assembled from a seeded splitmix64 stream (proptest is
//! not vendored), so each failing case reproduces from its seed.

mod common;

use common::{eval_reference, to_tuples, Db};
use std::collections::BTreeSet;
use stir::{Engine, InputData, InterpreterConfig, Value};
use stir_frontend::parse_and_check;

/// One randomly assembled rule body atom over relations e/f (binary).
#[derive(Debug, Clone)]
enum BodyAtom {
    /// `e(v_i, v_j)`
    E(usize, usize),
    /// `f(v_i, v_j)`
    F(usize, usize),
    /// `!e(v_i, v_j)` (variables must be bound by earlier atoms)
    NotE(usize, usize),
    /// `v_i < v_j`
    Lt(usize, usize),
    /// `v_k = v_i + c`
    Bind(usize, usize, i64),
    /// One of [`GUARDS`] over `v_i`, `v_j`.
    Guard(usize, usize, usize),
}

/// Arithmetic guards within the reference evaluator's subset (signed
/// comparisons; `band`, `bxor`, `*`, `-`), `A`/`B` standing for the two
/// variables: the shapes the interpreter fuses.
const GUARDS: [&str; 5] = [
    "(A bxor B) band 1 = 0",
    "A * 2 - B > 1",
    "A - B != 3",
    "A band 6 <= B",
    "(A + 1) * (B - 4) >= 0 - A",
];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Weighted pick: the original proptest strategy's 3:3:1:1:1 across
/// E/F/NotE/Lt/Bind, plus 2 for Guard.
fn body_atom(state: &mut u64) -> BodyAtom {
    let a = (splitmix(state) % 4) as usize;
    let b = (splitmix(state) % 4) as usize;
    match splitmix(state) % 11 {
        0..=2 => BodyAtom::E(a, b),
        3..=5 => BodyAtom::F(a, b),
        6 => BodyAtom::NotE(a, b),
        7 => BodyAtom::Lt(a, b),
        8 => BodyAtom::Bind(a, b, (splitmix(state) % 7) as i64 - 3),
        _ => BodyAtom::Guard(a, b, (splitmix(state) % GUARDS.len() as u64) as usize),
    }
}

/// Renders a rule for head `r(v_a, v_b)` if it is well-formed (grounded);
/// returns `None` otherwise.
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
            BodyAtom::Guard(a, b, g) => {
                if !bound[*a] || !bound[*b] {
                    return None;
                }
                let (va, vb) = (format!("v{a}"), format!("v{b}"));
                parts.push(GUARDS[*g].replace('A', &va).replace('B', &vb));
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
    let body_txt = parts.join(", ");
    Some(format!("r(v{}, v{}) :- {}.", head.0, head.1, body_txt))
}

fn edge_set(seed: u64, n: usize) -> BTreeSet<Vec<i64>> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % 9) as i64
    };
    (0..n).map(|_| vec![next(), next()]).collect()
}

#[test]
fn random_programs_agree_with_reference() {
    let mut checked_cases = 0;
    for seed in 1u64..=96 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15);
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
        // Some assembled programs are still ill-formed (e.g. ungrounded
        // via negation-only); skip those.
        let Ok(checked) = parse_and_check(&src) else {
            continue;
        };

        let mut db = Db::new();
        db.insert("e".into(), edge_set(seed, 14));
        db.insert("f".into(), edge_set(seed.wrapping_mul(31), 10));
        let reference = eval_reference(&checked, &db);

        let engine = Engine::from_source(&src).expect("reference-checked program compiles");
        let inputs: InputData = db
            .iter()
            .map(|(name, rows)| {
                (
                    name.clone(),
                    rows.iter()
                        .map(|t| t.iter().map(|&v| Value::Number(v as i32)).collect())
                        .collect(),
                )
            })
            .collect();
        for config in [
            InterpreterConfig::optimized(),
            InterpreterConfig::unoptimized(),
            InterpreterConfig::legacy(),
        ] {
            let got = engine.run(config, &inputs).expect("evaluates");
            assert_eq!(
                to_tuples(&got.outputs["r"]),
                reference["r"].clone(),
                "seed {seed} config {config:?}\nprogram:\n{src}"
            );
        }
        checked_cases += 1;
    }
    assert!(
        checked_cases >= 20,
        "generator degenerated: only {checked_cases} well-formed cases"
    );
}

// ---- arithmetic guards: fused ≡ tree-walked, down to the error ---------

/// The configurations whose answers must coincide: the default fuses
/// arithmetic guards, `--no-super` and `legacy` walk them, `dynamic`
/// fuses them over the other access path, and `--jobs 2` with two-tuple
/// morsels evaluates them on worker frames.
fn configurations() -> [(&'static str, InterpreterConfig); 5] {
    let sti = InterpreterConfig::optimized();
    let no_super = InterpreterConfig {
        super_instructions: false,
        ..sti
    };
    [
        ("default", sti.with_jobs(1)),
        ("--no-super", no_super.with_jobs(1)),
        ("dynamic", InterpreterConfig::dynamic_adapter().with_jobs(1)),
        ("legacy", InterpreterConfig::legacy().with_jobs(1)),
        ("--jobs 2", sti.with_jobs(2).with_morsel_size(2)),
    ]
}

/// What one configuration made of a program: its rendered output rows,
/// or the error it raised.
type Outcome = Result<BTreeSet<String>, String>;

/// Evaluates `src` under every configuration and returns the outcome
/// they all agree on.
fn agreed_outcome(src: &str, inputs: &InputData, what: &str) -> Outcome {
    let engine = Engine::from_source(src).unwrap_or_else(|e| panic!("{what}: {e}\n{src}"));
    let mut agreed: Option<Outcome> = None;
    for (name, config) in configurations() {
        let got: Outcome = match engine.run(config, inputs) {
            Ok(out) => Ok(out.outputs["r"]
                .iter()
                .map(|row| row.iter().map(|v| format!("{v} ")).collect())
                .collect()),
            Err(e) => Err(e.to_string()),
        };
        match &agreed {
            None => agreed = Some(got),
            Some(first) => assert_eq!(&got, first, "{what}: {name} vs default\nprogram:\n{src}"),
        }
    }
    agreed.expect("at least one configuration")
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Domain {
    Number,
    Unsigned,
    Float,
}

impl Domain {
    fn name(self) -> &'static str {
        match self {
            Domain::Number => "number",
            Domain::Unsigned => "unsigned",
            Domain::Float => "float",
        }
    }

    /// The value a raw draw `0..9` stands for: negatives for `number`,
    /// one value above `i32::MAX` for `unsigned` (where signed and
    /// unsigned order disagree), halves for `float`.
    fn value(self, raw: i64) -> Value {
        match self {
            Domain::Number => Value::Number(raw as i32 - 4),
            Domain::Unsigned if raw == 8 => Value::Unsigned(4_000_000_000),
            Domain::Unsigned => Value::Unsigned(raw as u32),
            Domain::Float => Value::Float(raw as f32 * 0.5 - 1.0),
        }
    }

    fn literal(self, state: &mut u64) -> String {
        let raw = splitmix(state) % 5;
        match self {
            Domain::Float => format!("{raw}.5"),
            Domain::Unsigned if raw == 4 => "3000000000".to_owned(),
            _ => raw.to_string(),
        }
    }
}

/// A random expression over `v0..v2`, fully parenthesised. `hazard` is
/// the program's one operator that can raise (`/` or `%`): a program
/// with a single kind of error raises the same one whichever tuple, rule
/// or worker reaches a zero divisor first.
fn arith_expr(state: &mut u64, depth: u32, domain: Domain, hazard: &str) -> String {
    if depth == 0 || splitmix(state).is_multiple_of(3) {
        return if splitmix(state).is_multiple_of(3) {
            domain.literal(state)
        } else {
            format!("v{}", splitmix(state) % 3)
        };
    }
    let ops: &[&str] = match domain {
        Domain::Float => &["+", "-", "*", "/"],
        _ => &["+", "-", "*", "band", "bxor", hazard, hazard],
    };
    let op = ops[(splitmix(state) % ops.len() as u64) as usize];
    let lhs = arith_expr(state, depth - 1, domain, hazard);
    let rhs = arith_expr(state, depth - 1, domain, hazard);
    format!("({lhs} {op} {rhs})")
}

#[test]
fn arithmetic_guards_agree_across_configurations() {
    let (mut raised, mut answered) = (0, 0);
    for seed in 1u64..=120 {
        let mut state = seed.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let domain = [Domain::Number, Domain::Unsigned, Domain::Float][(seed % 3) as usize];
        let hazard = if splitmix(&mut state).is_multiple_of(2) {
            "/"
        } else {
            "%"
        };
        let mut body = vec!["e(v0, v1)".to_owned(), "f(v1, v2)".to_owned()];
        for g in 0..1 + splitmix(&mut state) % 4 {
            let cmp = ["<", "<=", ">", ">=", "=", "!="][(splitmix(&mut state) % 6) as usize];
            let lhs = arith_expr(&mut state, 2, domain, hazard);
            let rhs = arith_expr(&mut state, 1, domain, hazard);
            body.push(format!("{lhs} {cmp} {rhs}"));
            if g == 1 && splitmix(&mut state).is_multiple_of(2) {
                // A probe in the middle splits the arithmetic run.
                body.push("!e(v2, v0)".to_owned());
            }
        }
        let ty = domain.name();
        let src = format!(
            ".decl e(x: {ty}, y: {ty})\n.input e\n\
             .decl f(x: {ty}, y: {ty})\n.input f\n\
             .decl r(x: {ty}, y: {ty})\n.output r\n\
             r(v0, v2) :- {}.\n",
            body.join(", ")
        );
        let rows = |seed: u64, n: usize| -> Vec<Vec<Value>> {
            edge_set(seed, n)
                .iter()
                .map(|t| t.iter().map(|&raw| domain.value(raw)).collect())
                .collect()
        };
        let mut inputs = InputData::new();
        inputs.insert("e".into(), rows(seed, 14));
        inputs.insert("f".into(), rows(seed.wrapping_mul(31), 10));
        match agreed_outcome(&src, &inputs, &format!("seed {seed}")) {
            Ok(_) => answered += 1,
            Err(e) => {
                assert!(e.contains("by zero"), "seed {seed}: {e}");
                raised += 1;
            }
        }
    }
    assert!(
        raised >= 10 && answered >= 40,
        "generator degenerated: {raised} programs raised, {answered} answered"
    );
}

fn numbers(rows: &[&[i32]]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|r| r.iter().map(|&n| Value::Number(n)).collect())
        .collect()
}

#[test]
fn guards_short_circuit_in_source_order_fused_and_unfused_alike() {
    let decls = ".decl e(x: number)\n.input e\n.decl r(x: number, y: number)\n.output r\n";
    let mut inputs = InputData::new();
    inputs.insert("e".into(), numbers(&[&[0], &[2], &[5], &[20]]));
    // The zero never reaches the division...
    let guarded = format!("{decls}r(x, 10 / x) :- e(x), x != 0, 10 / x > 1.\n");
    let rows = agreed_outcome(&guarded, &inputs, "guard first").expect("never raises");
    assert_eq!(rows.len(), 2, "{rows:?}");
    // ...unless the division comes first.
    let unguarded = format!("{decls}r(x, 10 / x) :- e(x), 10 / x > 1, x != 0.\n");
    let err = agreed_outcome(&unguarded, &inputs, "division first").expect_err("raises");
    assert!(err.contains("division by zero"), "{err}");
    let rem = format!("{decls}r(x, x) :- e(x), x >= 0, 10 % x = 0.\n");
    let err = agreed_outcome(&rem, &inputs, "remainder").expect_err("raises");
    assert!(err.contains("remainder by zero"), "{err}");
}

#[test]
fn mixed_conjunctions_keep_probes_between_their_arithmetic_runs() {
    let src = ".decl p(a: number, b: number)\n.input p\n\
               .decl q(a: number, b: number)\n.input q\n\
               .decl r(a: number, b: number)\n.output r\n\
               r(a, b) :- p(a, b), a < b, !q(a, b), (a bxor b) band 1 = 0.\n";
    let mut p: Vec<Vec<i32>> = Vec::new();
    for a in -3..6 {
        for b in -3..6 {
            p.push(vec![a, b]);
        }
    }
    let p: Vec<&[i32]> = p.iter().map(|r| &r[..]).collect();
    let mut inputs = InputData::new();
    inputs.insert("p".into(), numbers(&p));
    inputs.insert("q".into(), numbers(&[&[1, 3], &[-3, 5], &[0, 1]]));
    let rows = agreed_outcome(src, &inputs, "mixed").expect("no error to raise");
    let expected: BTreeSet<String> = p
        .iter()
        .filter(|r| r[0] < r[1] && ![[1, 3], [-3, 5]].contains(&[r[0], r[1]]))
        .filter(|r| (r[0] ^ r[1]) & 1 == 0)
        .map(|r| format!("{} {} ", r[0], r[1]))
        .collect();
    assert_eq!(rows, expected);
}

#[test]
fn signed_overflow_in_division_and_remainder_wraps() {
    let src = ".decl e(x: number, y: number)\n.input e\n\
               .decl r(x: number, y: number)\n.output r\n\
               r(x / y, x % y) :- e(x, y), x / y < 0, x % y = 0, (x / y) - 1 > 0.\n";
    let mut inputs = InputData::new();
    inputs.insert("e".into(), numbers(&[&[i32::MIN, -1], &[7, -1], &[-8, 2]]));
    let rows = agreed_outcome(src, &inputs, "i32::MIN / -1").expect("wraps, never traps");
    assert_eq!(rows, BTreeSet::from([format!("{} 0 ", i32::MIN)]));
}

// ---- body order: the translator's join order, not the author's ----------

/// Variables of the body-order grammar: `number`-typed `n*` (positions of
/// `e`, `f` and the head), `unsigned`-typed `u*` (positions of `g`).
const VARS: [&str; 5] = ["n0", "n1", "n2", "u0", "u1"];

/// One literal of the body-order grammar, over indexes into [`VARS`].
#[derive(Debug, Clone, Copy)]
enum Lit {
    /// `rel(a, b)`: `e`/`f` over number variables, `g` over unsigned ones.
    Atom(&'static str, usize, usize),
    /// `!rel(a, b)`.
    Not(&'static str, usize, usize),
    /// `a < b`, unsigned if either side is.
    Lt(usize, usize),
    /// `k = i + c`: `k` is first bound here and occupies a later atom
    /// position, so both evaluators type it by that position.
    Bind(usize, usize, i64),
    /// One of [`GUARDS`] over `a`, `b`.
    Guard(usize, usize, usize),
}

impl Lit {
    fn render(self) -> String {
        match self {
            Lit::Atom(rel, a, b) => format!("{rel}({}, {})", VARS[a], VARS[b]),
            Lit::Not(rel, a, b) => format!("!{rel}({}, {})", VARS[a], VARS[b]),
            Lit::Lt(a, b) => format!("{} < {}", VARS[a], VARS[b]),
            Lit::Bind(k, i, c) => format!("{} = {} + {c}", VARS[k], VARS[i]),
            Lit::Guard(a, b, g) => GUARDS[g].replace('A', VARS[a]).replace('B', VARS[b]),
        }
    }
}

/// The variables `body[..q]` binds, read left to right.
fn bound_before(body: &[Lit], q: usize) -> [bool; 5] {
    let mut bound = [false; 5];
    for l in &body[..q] {
        match *l {
            Lit::Atom(_, a, b) => (bound[a], bound[b]) = (true, true),
            Lit::Bind(k, ..) => bound[k] = true,
            _ => {}
        }
    }
    bound
}

/// A random rule `r(n, n) :- body` whose body grounds left to right (the
/// reference evaluates it in that order): one to three atoms, then up to
/// four negations, comparisons, guards and equalities inserted at random
/// positions where their variables are bound. `None` when no `number`
/// variable is bound for the head.
fn body_order_rule(state: &mut u64) -> Option<Vec<String>> {
    let mut pick = |n: usize| (splitmix(state) % n as u64) as usize;
    let mut body: Vec<Lit> = (0..1 + pick(3))
        .map(|_| match pick(3) {
            0 => Lit::Atom("e", pick(3), pick(3)),
            1 => Lit::Atom("f", pick(3), pick(3)),
            _ => Lit::Atom("g", 3 + pick(2), 3 + pick(2)),
        })
        .collect();
    for _ in 0..1 + pick(4) {
        let q = pick(body.len() + 1);
        let bound = bound_before(&body, q);
        let vars: Vec<usize> = (0..5).filter(|&v| bound[v]).collect();
        // Unbound before `q` but in an atom after it: equality targets.
        let later: Vec<usize> = (0..5)
            .filter(|&v| !bound[v])
            .filter(|&v| {
                let in_atom = |l: &Lit| matches!(*l, Lit::Atom(_, a, b) if a == v || b == v);
                body[q..].iter().any(in_atom)
            })
            .collect();
        if vars.is_empty() {
            continue;
        }
        let (a, b) = (vars[pick(vars.len())], vars[pick(vars.len())]);
        let lit = match pick(6) {
            // A negation over the relation of `a`'s type.
            0 => {
                let same: Vec<usize> = vars
                    .iter()
                    .copied()
                    .filter(|&v| (v < 3) == (a < 3))
                    .collect();
                Lit::Not(if a < 3 { "e" } else { "g" }, a, same[pick(same.len())])
            }
            1 => Lit::Lt(a, b),
            // An equality, then a comparison reading its target: how that
            // compares is what the target's type decides.
            2 | 3 if !later.is_empty() => {
                let k = later[pick(later.len())];
                body.insert(q, Lit::Lt(k, b));
                Lit::Bind(k, a, pick(5) as i64 - 2)
            }
            _ => Lit::Guard(a, b, pick(GUARDS.len())),
        };
        body.insert(q, lit);
    }
    let numbers: Vec<usize> = (0..3)
        .filter(|&v| bound_before(&body, body.len())[v])
        .collect();
    if numbers.is_empty() {
        return None;
    }
    let head = format!(
        "r({}, {})",
        VARS[numbers[pick(numbers.len())]],
        VARS[numbers[pick(numbers.len())]]
    );
    Some(
        std::iter::once(head)
            .chain(body.iter().map(|l| l.render()))
            .collect(),
    )
}

#[test]
fn body_order_does_not_change_the_answer() {
    let (mut checked_cases, mut cross_binds) = (0, 0);
    for seed in 1u64..=160 {
        let mut state = seed.wrapping_mul(0xA076_1D64_78BD_642F);
        let mut rules: Vec<Vec<String>> = Vec::new();
        for _ in 0..1 + splitmix(&mut state) % 3 {
            rules.extend(body_order_rule(&mut state));
        }
        if rules.is_empty() {
            continue;
        }
        if splitmix(&mut state).is_multiple_of(2) {
            rules.push(
                ["r(n0, n2)", "r(n0, n1)", "e(n1, n2)"]
                    .map(String::from)
                    .to_vec(),
            );
        }
        let render = |rules: &[Vec<String>]| {
            let text: Vec<String> = rules
                .iter()
                .map(|r| format!("{} :- {}.", r[0], r[1..].join(", ")))
                .collect();
            format!(
                ".decl e(x: number, y: number)\n.input e\n\
                 .decl f(x: number, y: number)\n.input f\n\
                 .decl g(x: unsigned, y: unsigned)\n.input g\n\
                 .decl r(x: number, y: number)\n.output r\n{}\n",
                text.join("\n")
            )
        };
        let src = render(&rules);
        // A random permutation of every rule body (Fisher–Yates).
        let mut permuted = rules.clone();
        for rule in &mut permuted {
            let body = &mut rule[1..];
            for i in (1..body.len()).rev() {
                body.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
            }
        }
        let shuffled = render(&permuted);
        let checked = parse_and_check(&src).expect("generated programs check");

        // Values -2..2, dense enough for joins to meet; `g` holds the same
        // bit patterns as unsigned, so equalities across the types match
        // and signed and unsigned comparisons of them disagree.
        let raw = |seed: u64, n: usize| -> BTreeSet<Vec<i64>> {
            edge_set(seed, n)
                .iter()
                .map(|t| t.iter().map(|v| v % 5 - 2).collect())
                .collect()
        };
        let mut db = Db::new();
        db.insert("e".into(), raw(seed, 14));
        db.insert("f".into(), raw(seed.wrapping_mul(31), 10));
        db.insert("g".into(), raw(seed.wrapping_mul(17), 12));
        let mut inputs = InputData::new();
        for (name, rows) in &db {
            let value = |v: i64| match name.as_str() {
                "g" => Value::Unsigned(v as i32 as u32),
                _ => Value::Number(v as i32),
            };
            inputs.insert(
                name.clone(),
                rows.iter()
                    .map(|t| t.iter().map(|&v| value(v)).collect())
                    .collect(),
            );
        }
        let reference: BTreeSet<String> = eval_reference(&checked, &db)["r"]
            .iter()
            .map(|t| t.iter().map(|v| format!("{v} ")).collect())
            .collect();

        let what = format!("seed {seed}");
        let original = agreed_outcome(&src, &inputs, &what);
        assert_eq!(
            original,
            Ok(reference),
            "{what}: reference\nprogram:\n{src}"
        );
        let reordered = agreed_outcome(&shuffled, &inputs, &what);
        assert_eq!(
            reordered, original,
            "{what}: permuted\n{shuffled}\noriginal:\n{src}"
        );
        checked_cases += 1;
        cross_binds += usize::from(["u0 = n", "u1 = n", " = u"].iter().any(|b| src.contains(b)));
    }
    assert!(
        checked_cases >= 100 && cross_binds >= 10,
        "generator degenerated: {checked_cases} programs, {cross_binds} binding across types"
    );
}

#[test]
fn equality_bound_variables_take_their_atom_type_in_either_order() {
    let decls = ".decl a(x: number)\n.input a\n.decl b(y: unsigned)\n.input b\n\
                 .decl r(y: unsigned)\n.output r\n";
    let mut inputs = InputData::new();
    inputs.insert("a".into(), numbers(&[&[-1], &[3]]));
    inputs.insert(
        "b".into(),
        vec![vec![Value::Unsigned(u32::MAX)], vec![Value::Unsigned(3)]],
    );
    // `y` occupies `b`'s unsigned column, so `y < 5` compares unsigned and
    // 4294967295 fails it, whether `x = y` or `b(y)` binds `y`.
    for body in ["a(x), x = y, b(y), y < 5", "a(x), b(y), x = y, y < 5"] {
        let src = format!("{decls}r(y) :- {body}.\n");
        let rows = agreed_outcome(&src, &inputs, body).expect("no error to raise");
        assert_eq!(rows, BTreeSet::from(["3 ".to_owned()]), "{body}");
    }
}
