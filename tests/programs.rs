//! Classic Datalog programs with analytically known answers, checked
//! across the full pipeline under every interpreter configuration.

use stir::{Engine, InputData, InterpreterConfig, Value};

fn run_all_configs(src: &str, inputs: &InputData) -> Vec<stir::EvalOutcome> {
    let engine = Engine::from_source(src).expect("compiles");
    [
        InterpreterConfig::optimized(),
        InterpreterConfig::dynamic_adapter(),
        InterpreterConfig::unoptimized(),
        InterpreterConfig::legacy(),
    ]
    .into_iter()
    .map(|c| engine.run(c, inputs).expect("runs"))
    .collect()
}

fn assert_all_equal_and<'a>(
    outs: &'a [stir::EvalOutcome],
    rel: &str,
    f: impl FnOnce(&'a [Vec<Value>]),
) {
    for o in &outs[1..] {
        assert_eq!(
            o.outputs[rel], outs[0].outputs[rel],
            "configs disagree on {rel}"
        );
    }
    f(&outs[0].outputs[rel]);
}

#[test]
fn closure_of_a_cycle_is_complete() {
    // TC of a directed n-cycle is all n^2 pairs.
    let n = 20;
    let facts: String = (0..n)
        .map(|i| format!("e({}, {}).\n", i, (i + 1) % n))
        .collect();
    let src = format!(
        ".decl e(x: number, y: number)\n.decl p(x: number, y: number)\n.output p\n\
         {facts}\
         p(x, y) :- e(x, y).\n\
         p(x, z) :- p(x, y), e(y, z).\n"
    );
    let outs = run_all_configs(&src, &InputData::new());
    assert_all_equal_and(&outs, "p", |rows| {
        assert_eq!(rows.len(), (n * n) as usize);
    });
}

#[test]
fn closure_of_a_chain_is_triangular() {
    let n = 30;
    let facts: String = (0..n - 1)
        .map(|i| format!("e({}, {}).\n", i, i + 1))
        .collect();
    let src = format!(
        ".decl e(x: number, y: number)\n.decl p(x: number, y: number)\n.output p\n\
         {facts}\
         p(x, y) :- e(x, y).\n\
         p(x, z) :- p(x, y), e(y, z).\n"
    );
    let outs = run_all_configs(&src, &InputData::new());
    assert_all_equal_and(&outs, "p", |rows| {
        assert_eq!(rows.len(), (n * (n - 1) / 2) as usize);
    });
}

#[test]
fn ancestors_with_generation_counting() {
    let src = "\
        .decl parent(c: number, p: number)\n\
        .decl ancestor(c: number, a: number, gen: number)\n\
        .output ancestor\n\
        parent(1, 10). parent(10, 100). parent(100, 1000).\n\
        ancestor(c, p, 1) :- parent(c, p).\n\
        ancestor(c, a, g) :- ancestor(c, b, g0), parent(b, a), g = g0 + 1.\n";
    let outs = run_all_configs(src, &InputData::new());
    assert_all_equal_and(&outs, "ancestor", |rows| {
        assert_eq!(rows.len(), 6); // 3 + 2 + 1 chains
        assert!(rows.contains(&vec![
            Value::Number(1),
            Value::Number(1000),
            Value::Number(3)
        ]));
    });
}

#[test]
fn even_odd_partition_is_exact() {
    let n = 40;
    let facts: String = (0..=n).map(|i| format!("num({i}).\n")).collect();
    let src = format!(
        ".decl num(x: number)\n.decl even(x: number)\n.decl odd(x: number)\n\
         .output even\n.output odd\n\
         {facts}\
         even(0).\n\
         odd(y) :- even(x), num(y), y = x + 1.\n\
         even(y) :- odd(x), num(y), y = x + 1.\n"
    );
    let outs = run_all_configs(&src, &InputData::new());
    assert_all_equal_and(&outs, "even", |rows| {
        assert_eq!(rows.len(), (n / 2 + 1) as usize);
    });
    assert_all_equal_and(&outs, "odd", |rows| {
        assert_eq!(rows.len(), (n / 2) as usize);
    });
}

#[test]
fn aggregate_sums_per_group() {
    let src = "\
        .decl sale(region: number, amount: number)\n\
        .decl total(region: number, sum: number)\n\
        .decl grand(sum: number)\n\
        .decl biggest(m: number)\n\
        .output total\n.output grand\n.output biggest\n\
        sale(1, 100). sale(1, 250). sale(2, 40). sale(2, 60). sale(3, 7).\n\
        total(r, s) :- sale(r, _), s = sum a : { sale(r, a) }.\n\
        grand(s) :- s = sum a : { sale(_, a) }.\n\
        biggest(m) :- m = max a : { sale(_, a) }.\n";
    let outs = run_all_configs(src, &InputData::new());
    assert_all_equal_and(&outs, "total", |rows| {
        assert_eq!(
            rows,
            &[
                vec![Value::Number(1), Value::Number(350)],
                vec![Value::Number(2), Value::Number(100)],
                vec![Value::Number(3), Value::Number(7)],
            ]
        );
    });
    assert_all_equal_and(&outs, "grand", |rows| {
        assert_eq!(rows, &[vec![Value::Number(457)]]);
    });
    assert_all_equal_and(&outs, "biggest", |rows| {
        assert_eq!(rows, &[vec![Value::Number(250)]]);
    });
}

#[test]
fn string_pipeline() {
    let src = r#"
        .decl file(name: symbol)
        .decl backup(name: symbol, tag: symbol, len: number)
        .output backup
        file("a.txt"). file("notes.md").
        backup(n, t, l) :- file(n), t = cat(n, ".bak"), l = strlen(n).
    "#;
    let outs = run_all_configs(src, &InputData::new());
    assert_all_equal_and(&outs, "backup", |rows| {
        assert!(rows.contains(&vec![
            Value::Symbol("a.txt".into()),
            Value::Symbol("a.txt.bak".into()),
            Value::Number(5),
        ]));
        assert_eq!(rows.len(), 2);
    });
}

#[test]
fn unsigned_and_float_columns() {
    let src = "\
        .decl m(u: unsigned, f: float)\n\
        .decl big(u: unsigned)\n\
        .decl hot(f: float)\n\
        .output big\n.output hot\n\
        m(4000000000, 1.5). m(7, 2.25). m(100, -3.5).\n\
        big(u) :- m(u, _), u > 1000000.\n\
        hot(f) :- m(_, f), f > 1.0.\n";
    let outs = run_all_configs(src, &InputData::new());
    assert_all_equal_and(&outs, "big", |rows| {
        assert_eq!(rows, &[vec![Value::Unsigned(4_000_000_000)]]);
    });
    assert_all_equal_and(&outs, "hot", |rows| {
        assert_eq!(rows.len(), 2);
    });
}

#[test]
fn eqrel_components_via_union_find() {
    let src = "\
        .decl link(x: number, y: number)\n\
        .decl same(x: number, y: number) eqrel\n\
        .decl pair_count(n: number)\n\
        .output pair_count\n\
        link(1, 2). link(2, 3). link(3, 4).\n\
        link(10, 11).\n\
        same(x, y) :- link(x, y).\n\
        pair_count(n) :- n = count : { same(_, _) }.\n";
    let outs = run_all_configs(src, &InputData::new());
    // {1,2,3,4} → 16 pairs; {10,11} → 4 pairs.
    assert_all_equal_and(&outs, "pair_count", |rows| {
        assert_eq!(rows, &[vec![Value::Number(20)]]);
    });

    // Every statically dispatched eqrel path: the insert, probes under
    // negation (fully bound, and second column only, which flips to the
    // first), joins on either column, and the count's full scan.
    let src = "\
        .decl link(x: number, y: number)\n\
        .decl same(x: number, y: number) eqrel\n\
        .decl probe(x: number)\n\
        .decl apart(x: number, y: number)\n.output apart\n\
        .decl reached(y: number)\n.output reached\n\
        .decl lonely(y: number)\n.output lonely\n\
        .decl peer(x: number, y: number)\n.output peer\n\
        .decl pair_count(n: number)\n.output pair_count\n\
        link(1, 2). link(2, 3). link(5, 6).\n\
        probe(1). probe(5). probe(9).\n\
        same(x, y) :- link(x, y).\n\
        apart(x, y) :- probe(x), probe(y), x < y, !same(x, y).\n\
        reached(y) :- probe(y), same(_, y).\n\
        lonely(y) :- probe(y), !same(_, y).\n\
        peer(x, y) :- probe(x), same(x, y).\n\
        pair_count(n) :- n = count : { same(_, _) }.\n";
    let outs = run_all_configs(src, &InputData::new());
    let num = |r: &[i32]| r.iter().map(|&v| Value::Number(v)).collect::<Vec<_>>();
    // Classes {1,2,3} and {5,6}: no two probes share one.
    assert_all_equal_and(&outs, "apart", |rows| {
        assert_eq!(rows, [num(&[1, 5]), num(&[1, 9]), num(&[5, 9])]);
    });
    // 9 is in no class, so it is not even related to itself.
    assert_all_equal_and(&outs, "reached", |rows| {
        assert_eq!(rows, [num(&[1]), num(&[5])]);
    });
    assert_all_equal_and(&outs, "lonely", |rows| assert_eq!(rows, [num(&[9])]));
    assert_all_equal_and(&outs, "peer", |rows| {
        let want = [[1, 1], [1, 2], [1, 3], [5, 5], [5, 6]];
        assert_eq!(rows, want.map(|r| num(&r)));
    });
    // 3² + 2² pairs.
    assert_all_equal_and(&outs, "pair_count", |rows| {
        assert_eq!(rows, &[num(&[13])]);
    });
}

#[test]
fn the_papers_example_program() {
    // Fig. 2 on the paper's own tiny graph.
    let src = r#"
        .decl edge(x: symbol, y: symbol)
        .decl protect(b: symbol)
        .decl vulnerable(b: symbol)
        .decl unsafe_blk(b: symbol)
        .decl violation(b: symbol)
        .output violation
        edge("while", "body"). edge("body", "check"). edge("check", "use").
        protect("check").
        vulnerable("use"). vulnerable("body").
        unsafe_blk("while").
        unsafe_blk(y) :- unsafe_blk(x), edge(x, y), !protect(y).
        violation(x) :- vulnerable(x), unsafe_blk(x).
    "#;
    let outs = run_all_configs(src, &InputData::new());
    assert_all_equal_and(&outs, "violation", |rows| {
        // "check" is protected, so "use" is never reached; only "body".
        assert_eq!(rows, &[vec![Value::Symbol("body".into())]]);
    });
}

#[test]
fn empty_inputs_yield_empty_outputs() {
    let src = "\
        .decl e(x: number, y: number)\n.input e\n\
        .decl p(x: number, y: number)\n.output p\n\
        p(x, y) :- e(x, y).\n\
        p(x, z) :- p(x, y), e(y, z).\n";
    let outs = run_all_configs(src, &InputData::new());
    assert_all_equal_and(&outs, "p", |rows| assert!(rows.is_empty()));
}

#[test]
fn deep_recursion_terminates() {
    // A 2000-node chain exercises many fixpoint iterations.
    let n = 2000;
    let rows: Vec<Vec<Value>> = (0..n - 1)
        .map(|i| vec![Value::Number(i), Value::Number(i + 1)])
        .collect();
    let mut inputs = InputData::new();
    inputs.insert("e".into(), rows);
    let src = "\
        .decl e(x: number, y: number)\n.input e\n\
        .decl dist(x: number)\n.output dist\n\
        dist(0).\n\
        dist(y) :- dist(x), e(x, y).\n";
    let engine = Engine::from_source(src).expect("compiles");
    let out = engine
        .run(InterpreterConfig::optimized(), &inputs)
        .expect("runs");
    assert_eq!(out.outputs["dist"].len(), n as usize);
}
