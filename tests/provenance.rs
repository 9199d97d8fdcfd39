//! Proof-tree validity for the provenance subsystem.
//!
//! Every `.explain` tree handed out by the engine is re-checked by an
//! independent verifier that shares no code with the matcher:
//!
//! 1. **Membership** — every node's tuple (and every premise) must be
//!    queryable in the live database.
//! 2. **Height discipline** — premises must have strictly smaller
//!    heights than their conclusion; only inputs sit at height 0.
//! 3. **Rule re-instantiation** — for each non-aggregate internal node,
//!    a tiny program holding just the claimed rule and the premise
//!    tuples as ground facts is evaluated from scratch; the node's fact
//!    must be derivable from exactly those premises.
//!
//! Programs × facts are seeded (proptest is not vendored); every shape
//! runs under the STI and the dynamic adapter at jobs 1 and 4. A final
//! differential, a batch run in all four interpreter modes, pins the
//! off-mode contract: with provenance off, the derived database and the
//! profile are indistinguishable from a build that never heard of
//! annotations.

use std::collections::BTreeSet;
use stir::{
    profile_json, Engine, ExplainLimits, InputData, InterpreterConfig, LogLevel, ProofNode,
    ResidentEngine, Telemetry, Value,
};

/// One test program: full source for the engine plus bare declarations
/// (no directives) for the mini re-instantiation programs.
struct Shape {
    name: &'static str,
    src: &'static str,
    mini_decls: &'static str,
    /// Relations whose proofs we walk (the program's `.output`s).
    outputs: &'static [&'static str],
}

const SHAPES: &[Shape] = &[
    Shape {
        name: "transitive-closure",
        src: "\
            .decl e(x: number, y: number)\n.input e\n\
            .decl p(x: number, y: number)\n.output p\n\
            p(x, y) :- e(x, y).\n\
            p(x, z) :- p(x, y), e(y, z).\n",
        mini_decls: "\
            .decl e(x: number, y: number)\n\
            .decl p(x: number, y: number)\n",
        outputs: &["p"],
    },
    Shape {
        name: "negation-arithmetic",
        src: "\
            .decl e(x: number, y: number)\n.input e\n\
            .decl f(x: number, y: number)\n.input f\n\
            .decl r(x: number, y: number)\n.output r\n\
            r(x, y) :- e(x, y), !f(x, y).\n\
            r(x, z) :- r(x, y), e(y, z), x < z.\n\
            r(y, k) :- e(x, y), k = x + 1, x < 5.\n",
        mini_decls: "\
            .decl e(x: number, y: number)\n\
            .decl f(x: number, y: number)\n\
            .decl r(x: number, y: number)\n",
        outputs: &["r"],
    },
    Shape {
        name: "aggregate",
        src: "\
            .decl e(x: number, y: number)\n.input e\n\
            .decl s(x: number, v: number)\n.output s\n\
            .decl big(x: number)\n.output big\n\
            s(x, v) :- e(x, _), v = sum y : { e(x, y) }.\n\
            big(x) :- s(x, v), v > 5.\n",
        mini_decls: "\
            .decl e(x: number, y: number)\n\
            .decl s(x: number, v: number)\n\
            .decl big(x: number)\n",
        outputs: &["s", "big"],
    },
    Shape {
        name: "eqrel",
        src: "\
            .decl e(x: number, y: number)\n.input e\n\
            .decl same(x: number, y: number) eqrel\n\
            .decl r(x: number, y: number)\n.output r\n\
            same(x, y) :- e(x, y).\n\
            r(x, y) :- same(x, y), x < y.\n",
        mini_decls: "\
            .decl e(x: number, y: number)\n\
            .decl same(x: number, y: number) eqrel\n\
            .decl r(x: number, y: number)\n",
        outputs: &["r"],
    },
    Shape {
        name: "mutual-recursion",
        src: "\
            .decl e(x: number, y: number)\n.input e\n\
            .decl ev(x: number, y: number)\n.output ev\n\
            .decl od(x: number, y: number)\n.output od\n\
            ev(x, y) :- e(x, y).\n\
            od(x, z) :- ev(x, y), e(y, z).\n\
            ev(x, z) :- od(x, y), e(y, z).\n",
        mini_decls: "\
            .decl e(x: number, y: number)\n\
            .decl ev(x: number, y: number)\n\
            .decl od(x: number, y: number)\n",
        outputs: &["ev", "od"],
    },
];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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

/// The modes a resident engine is tested in.
fn modes() -> [(&'static str, InterpreterConfig); 2] {
    [
        ("sti", InterpreterConfig::optimized()),
        ("dynamic", InterpreterConfig::dynamic_adapter()),
    ]
}

/// Decodes a number-typed encoded tuple back to [`Value`]s. All shapes
/// above are number-only, so no symbol table is needed.
fn decode(tuple: &[u32]) -> Vec<Value> {
    tuple.iter().map(|&b| Value::Number(b as i32)).collect()
}

fn fact_line(rel: &str, tuple: &[u32]) -> String {
    let vals: Vec<String> = tuple.iter().map(|&b| (b as i32).to_string()).collect();
    format!("{rel}({}).", vals.join(", "))
}

/// The independent proof checker (see the module docs for the three
/// obligations). Returns the number of nodes visited.
fn check_tree(engine: &ResidentEngine, shape: &Shape, node: &ProofNode, ctx: &str) -> usize {
    let meta = &engine.ram().relations[node.rel.0];
    let name = meta.name.clone();

    // (1) Membership: the fact must be in the live database.
    let pattern: Vec<Option<Value>> = decode(&node.tuple).into_iter().map(Some).collect();
    let rows = engine
        .query(&name, &pattern, None)
        .unwrap_or_else(|e| panic!("{ctx}: membership query for {name} failed: {e}"));
    assert_eq!(
        rows.len(),
        1,
        "{ctx}: node {name}{:?} is not in the database",
        node.tuple
    );

    // (2) Height discipline.
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

    // (3) Rule re-instantiation, for transparent non-aggregate nodes.
    // Aggregate rules (their label shows the `{ ... }` body) range over
    // the whole relation, which premise facts alone cannot reproduce;
    // the engine recomputes those during matching instead.
    if !node.is_input() && !node.opaque && !node.truncated {
        let rule = node
            .label
            .as_deref()
            .unwrap_or_else(|| panic!("{ctx}: derived node without a rule label"));
        if !rule.contains('{') {
            let mut mini = String::from(shape.mini_decls);
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
    }

    1 + node
        .premises
        .iter()
        .map(|p| check_tree(engine, shape, p, ctx))
        .sum::<usize>()
}

#[test]
fn every_explain_tree_passes_the_independent_checker() {
    let mut trees = 0usize;
    for shape in SHAPES {
        for seed in 1u64..=4 {
            let mut state = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(shape.name.len() as u64);
            let mut inputs = InputData::new();
            inputs.insert("e".into(), pairs(&mut state, 12, 6));
            if shape.src.contains(".input f") {
                inputs.insert("f".into(), pairs(&mut state, 6, 6));
            }
            for (mode, config) in modes() {
                for jobs in [1usize, 4] {
                    let ctx = format!("shape {} seed {seed} mode {mode} jobs {jobs}", shape.name);
                    let config = config.with_jobs(jobs).with_provenance();
                    let engine = ResidentEngine::from_source(shape.src, config, &inputs, None)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    for rel in shape.outputs {
                        for row in &engine.outputs()[*rel] {
                            let node = engine
                                .explain(rel, row, ExplainLimits::default(), None)
                                .unwrap_or_else(|e| panic!("{ctx}: explain {rel}{row:?}: {e}"));
                            trees += check_tree(&engine, shape, &node, &ctx);
                        }
                    }
                }
            }
        }
    }
    assert!(trees > 500, "checker degenerated: only {trees} nodes seen");
}

/// Proofs must not stop working at toy sizes. On a 100-node chain `p`
/// holds 4 950 tuples; a matcher that enumerates `p` and `e` whole
/// instead of looking up the columns the head pins burns the default
/// 100 000-candidate budget on non-matching tuples and answers
/// `p(70, 100) … (opaque)`. The shared re-matcher is head-driven and
/// index-backed, so the full 60-node proof (30 `p` steps, 30 `e` leaves)
/// comes back in both modes and passes the independent checker.
#[test]
fn long_chain_proofs_are_complete_within_the_default_budget() {
    let shape = &SHAPES[0];
    let mut inputs = InputData::new();
    let chain = (1..100).map(|i| vec![Value::Number(i), Value::Number(i + 1)]);
    inputs.insert("e".into(), chain.collect());
    for (mode, config) in modes() {
        for jobs in [1usize, 4] {
            let ctx = format!("chain mode {mode} jobs {jobs}");
            let config = config.with_jobs(jobs).with_provenance();
            let engine = ResidentEngine::from_source(shape.src, config, &inputs, None)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(engine.outputs()["p"].len(), 4950, "{ctx}");
            let row = [Value::Number(70), Value::Number(100)];
            let node = engine
                .explain("p", &row, ExplainLimits::default(), None)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let rendered = engine.render_proof(&node);
            assert!(
                !rendered.contains("(opaque)") && !rendered.contains("(depth limit)"),
                "{ctx}: incomplete proof\n{rendered}"
            );
            assert_eq!(node.height, 30, "{ctx}");
            assert_eq!(check_tree(&engine, shape, &node, &ctx), 60, "{ctx}");
        }
    }
}

/// With provenance off, evaluation must be indistinguishable from a
/// build without the subsystem: same derived database, same profile
/// counts, and no provenance-flavoured keys in the machine-readable
/// profile.
#[test]
fn provenance_off_is_invisible_and_on_changes_no_tuples() {
    let shape = &SHAPES[1]; // negation + arithmetic exercises most paths
    let mut state = 99u64;
    let mut inputs = InputData::new();
    inputs.insert("e".into(), pairs(&mut state, 14, 6));
    inputs.insert("f".into(), pairs(&mut state, 7, 6));

    let engine = Engine::from_source(shape.src).expect("compiles");
    let batch_only = [
        ("unopt", InterpreterConfig::unoptimized()),
        ("legacy", InterpreterConfig::legacy()),
    ];
    for (mode, config) in modes().into_iter().chain(batch_only) {
        let off = engine
            .run(config.with_profile(), &inputs)
            .unwrap_or_else(|e| panic!("mode {mode} off: {e}"));
        let on = engine
            .run(config.with_profile().with_provenance(), &inputs)
            .unwrap_or_else(|e| panic!("mode {mode} on: {e}"));
        assert_eq!(
            sorted(&off.outputs["r"]),
            sorted(&on.outputs["r"]),
            "mode {mode}: annotations changed the derived database"
        );
        let (po, pn) = (off.profile.expect("off"), on.profile.expect("on"));
        assert_eq!(po.total_inserts, pn.total_inserts, "mode {mode}");
        assert_eq!(po.relations, pn.relations, "mode {mode}");
        assert_eq!(po.dispatches, pn.dispatches, "mode {mode}");
    }

    // The machine-readable profile of a provenance-off serving session
    // must not grow any explain/provenance keys.
    let tel = Telemetry::new(true, true, LogLevel::Off);
    let resident = ResidentEngine::from_source(
        shape.src,
        InterpreterConfig::optimized().with_profile(),
        &inputs,
        Some(&tel),
    )
    .expect("builds");
    resident.sync_metrics(&tel);
    let json = profile_json(
        resident.ram(),
        resident.initial_profile(),
        &tel,
        std::time::Duration::from_millis(1),
    )
    .render();
    assert!(
        !json.contains("explain") && !json.contains("provenance"),
        "provenance-off profile JSON leaks new keys:\n{json}"
    );
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
