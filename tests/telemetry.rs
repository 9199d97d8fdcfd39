//! Integration tests for the observability layer: folded-stack emitter
//! shape, profile JSON round-trips, and counter equivalence across
//! interpreter modes.

use stir::{profile_json, Engine, InputData, InterpreterConfig, Json, Telemetry};

const TC: &str = "\
    .decl edge(x: number, y: number)\n\
    .decl path(x: number, y: number)\n\
    .output path\n\
    edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5).\n\
    path(x, y) :- edge(x, y).\n\
    path(x, z) :- path(x, y), edge(y, z).\n";

#[test]
fn folded_stacks_have_flamegraph_shape() {
    let tel = Telemetry::new(true, false, stir::LogLevel::Off);
    let engine = Engine::from_source_with(TC, Some(&tel)).expect("compiles");
    engine
        .run_with(
            InterpreterConfig::optimized().with_trace(),
            &InputData::new(),
            Some(&tel),
        )
        .expect("runs");
    let folded = tel.tracer.folded();
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (path, ns) = line.rsplit_once(' ').expect("`frames value` lines");
        assert!(!path.is_empty());
        ns.parse::<u64>().expect("integer self-time");
    }
    // Statement spans nest under the evaluate phase; the fixpoint loop
    // contains the recursive rule's query.
    assert!(folded.contains("phase:evaluate;loop#0;query:"), "{folded}");
    assert!(folded.contains("phase:parse "), "{folded}");
}

#[test]
fn profile_json_round_trips_through_parser() {
    let tel = Telemetry::new(true, true, stir::LogLevel::Off);
    let engine = Engine::from_source_with(TC, Some(&tel)).expect("compiles");
    let started = std::time::Instant::now();
    let out = engine
        .run_with(
            InterpreterConfig::optimized().with_profile(),
            &InputData::new(),
            Some(&tel),
        )
        .expect("runs");
    let json = profile_json(engine.ram(), out.profile.as_ref(), &tel, started.elapsed());
    let text = json.render();
    let reparsed = Json::parse(&text).expect("render → parse round-trip");
    assert_eq!(reparsed.render(), text, "stable fixpoint");
    let program = reparsed
        .get("root")
        .and_then(|r| r.get("program"))
        .expect("root.program");
    assert!(program.get("runtime_ns").and_then(Json::as_u64).is_some());
    // delta_path peaks at 3 new tuples and shrinks to the fixpoint.
    let iterations = program
        .get("iteration")
        .and_then(Json::items)
        .expect("array");
    assert_eq!(
        iterations.len(),
        3,
        "4-chain TC closes in 3 sampled iterations"
    );
    let sizes: Vec<u64> = iterations
        .iter()
        .map(|it| {
            it.get("frontier")
                .and_then(|f| f.get("delta_path"))
                .and_then(Json::as_u64)
                .expect("delta size")
        })
        .collect();
    assert_eq!(sizes, vec![3, 2, 1]);
}

/// One program reaching every relational node kind: full scans, range
/// scans, full and partial existence probes, an aggregate, and an eqrel
/// relation scanned, ranged and probed both ways.
const EVERY_NODE: &str = "\
    .decl e(x: number, y: number)\n\
    .decl s(x: number, y: number) eqrel\n\
    .decl full(x: number, y: number)\n.decl join(x: number, z: number)\n\
    .decl lone(x: number)\n.decl deg(x: number, n: number)\n\
    .decl cls(x: number, y: number)\n.decl near(x: number, y: number)\n\
    .decl apart(x: number, y: number)\n.decl unlinked(y: number)\n\
    e(1, 2). e(2, 3). e(3, 1). e(3, 4).\n\
    s(1, 2). s(5, 5).\n\
    full(x, y) :- e(x, y), !e(y, x).\n\
    join(x, z) :- e(x, y), e(y, z).\n\
    lone(x) :- e(_, x), !e(x, _).\n\
    deg(x, n) :- e(x, _), n = count : { e(x, _) }.\n\
    cls(x, y) :- s(x, y).\n\
    near(x, y) :- e(x, _), s(x, y).\n\
    apart(x, y) :- e(x, y), !s(x, y).\n\
    unlinked(y) :- e(_, y), !s(_, y).\n";

#[test]
fn dispatch_and_iteration_counters_match_across_modes() {
    // §4.1's static dispatch changes *how* instructions execute, never
    // how often: the interpreter tree has the same shape and the same
    // per-tuple tick sites in both modes, so the counters must agree.
    let profile = |src: &str, config: InterpreterConfig| {
        let engine = Engine::from_source(src).expect("compiles");
        let out = engine.run(config.with_profile(), &InputData::new());
        let profile = out.expect("runs").profile.expect("profile");
        (engine, profile)
    };
    let seq = |config: InterpreterConfig| config.with_jobs(1);
    let (_, sti) = profile(TC, seq(InterpreterConfig::optimized()));
    let (_, dynamic) = profile(TC, seq(InterpreterConfig::dynamic_adapter()));
    assert_eq!(sti.dispatches, dynamic.dispatches);
    assert_eq!(sti.iterations, dynamic.iterations);
    assert_eq!(sti.total_inserts, dynamic.total_inserts);
    assert_eq!(sti.frontier, dynamic.frontier);
    assert_eq!(sti.relations, dynamic.relations);

    // Every node kind, in all four modes and fanned out over tiny
    // morsels. Static and dynamic pairs tick alike; each mode opens the
    // same scans, ranges and probes.
    let runs = [
        ("optimized", seq(InterpreterConfig::optimized())),
        ("dynamic", seq(InterpreterConfig::dynamic_adapter())),
        (
            "optimized --jobs 4",
            InterpreterConfig::optimized()
                .with_jobs(4)
                .with_morsel_size(2),
        ),
        ("unoptimized", seq(InterpreterConfig::unoptimized())),
        ("legacy", seq(InterpreterConfig::legacy())),
    ]
    .map(|(name, config)| (name, profile(EVERY_NODE, config)));
    for (name, (engine, p)) in &runs {
        let ops = |rel: &str| {
            let id = engine.ram().relation_by_name(rel).expect("declared").id;
            let r = &p.relations[id.0];
            (r.scans, r.range_queries, r.exists_checks)
        };
        // `e` (4 tuples): one full scan by each of the seven rules over
        // it and by the aggregate's helper `__agg0`; `join` ranges it once
        // per outer tuple; `full` probes it with the whole tuple, `lone`
        // with the first column.
        assert_eq!(ops("e"), (8, 4, 8), "{name}: e");
        // The aggregate ranges its helper once per `e` tuple.
        assert_eq!(ops("__agg0"), (0, 4, 0), "{name}: __agg0");
        // `s`: `cls` scans it; `near` ranges it and `apart`/`unlinked`
        // probe it (whole pair, second column) once per `e` tuple.
        assert_eq!(ops("s"), (1, 4, 8), "{name}: s");
        for rel in [
            "full", "join", "lone", "deg", "cls", "near", "apart", "unlinked",
        ] {
            assert_eq!(ops(rel), (0, 0, 0), "{name}: {rel}");
        }
    }
    let (_, sti) = &runs[0].1;
    let (_, dynamic) = &runs[1].1;
    let (_, fanned) = &runs[2].1;
    let (_, unopt) = &runs[3].1;
    let (_, legacy) = &runs[4].1;
    for (pair, a, b) in [
        ("optimized/dynamic", sti, dynamic),
        ("optimized/--jobs 4", sti, fanned),
        ("unoptimized/legacy", unopt, legacy),
    ] {
        assert_eq!(a.dispatches, b.dispatches, "{pair}");
        assert_eq!(a.iterations, b.iterations, "{pair}");
        assert_eq!(a.total_inserts, b.total_inserts, "{pair}");
    }
    // Iterations: 8 full scans of `e`, `join`'s 1 + 1 + 2 + 0 matches of
    // e(y, _), the aggregate's 1 + 1 + 2 + 2 counted tuples, `cls`'s 5
    // eqrel pairs and `near`'s 2 + 2 class members of 1 and 2 (3 has
    // none).
    assert_eq!(sti.iterations, 8 * 4 + 4 + 6 + 5 + 4);
}

#[test]
fn a_fused_guard_costs_one_dispatch_and_one_super_hit_per_evaluation() {
    // 6 `e` tuples reach the guard; 3 pass it. Tree-walked, the guard is
    // a Filter over a Conj of two Cmp trees of 3 and 7 nodes; fused, it
    // is one FilterFused dispatch. (The first conjunct always holds, so
    // no walk is cut short.)
    let src = "\
        .decl e(x: number)\n.decl r(x: number)\n.output r\n\
        e(1). e(2). e(3). e(4). e(5). e(6).\n\
        r(x) :- e(x), x > 0, (x * 3) band 1 = 1.\n";
    let engine = Engine::from_source(src).expect("compiles");
    let profile = |config: InterpreterConfig| {
        let out = engine.run(config.with_profile().with_jobs(1), &InputData::new());
        out.expect("runs").profile.expect("profile")
    };
    let sti = profile(InterpreterConfig::optimized());
    let dynamic = profile(InterpreterConfig::dynamic_adapter());
    assert_eq!(sti.dispatches, dynamic.dispatches);
    assert_eq!(sti.super_hits, dynamic.super_hits);
    let mut walked = InterpreterConfig::optimized();
    walked.super_instructions = false;
    let walked = profile(walked);
    assert_eq!(walked.super_hits, 0);
    // Per evaluation: one hit for the guard; per derived tuple: one for
    // the projection (facts are loaded, not projected).
    assert_eq!(sti.super_hits, 6 + 3);
    // The walk pays Conj + 3 + 7 nodes per evaluation on top of the
    // Filter dispatch both pay, and one dispatch per projected column.
    assert_eq!(walked.dispatches - sti.dispatches, 6 * (1 + 3 + 7) + 3);
    assert_eq!(sti.iterations, walked.iterations);
    assert_eq!(sti.total_inserts, walked.total_inserts);
}

#[test]
fn telemetry_off_leaves_no_trace() {
    let tel = Telemetry::off();
    let engine = Engine::from_source_with(TC, Some(&tel)).expect("compiles");
    engine
        .run_with(
            InterpreterConfig::optimized(),
            &InputData::new(),
            Some(&tel),
        )
        .expect("runs");
    assert!(tel.tracer.stats().is_empty());
    assert!(tel.metrics.snapshot().is_empty());
}
