//! **Parallel fixpoint scaling** — the worker-parallel evaluation core.
//!
//! A warm transitive closure and one generated `vpc` reachability
//! instance are evaluated at `jobs = 1 / 2 / 4` under the optimized STI
//! configuration; the table reports best-of-reps evaluation time per
//! worker count and the resulting speedup over sequential evaluation.
//!
//! The `jobs = 1` column runs the unchanged sequential path (the
//! parallel driver is bypassed entirely), so the 1-vs-N delta is exactly
//! the cost/benefit of partitioned scans + per-worker insert sinks. A
//! jobs column above the host's core count degenerates into a
//! measurement of parallel overhead — the harness prints the core count
//! it saw so the committed numbers can be read in context.

use stir_bench::{fmt_dur, fmt_ratio, interp_times_interleaved, print_table, reps, scale};
use stir_core::{Engine, InputData, InterpreterConfig, Value};
use stir_workloads::spec::{instances, Scale, Suite};

const TC: &str = "\
    .decl edge(x: number, y: number)\n.input edge\n\
    .decl path(x: number, y: number)\n.output path\n\
    path(x, y) :- edge(x, y).\n\
    path(x, z) :- path(x, y), edge(y, z).\n";

/// A chain with periodic forward shortcuts (same shape as the
/// incremental-update bench): deep fixpoint, quadratic closure.
fn chain(nodes: i32) -> Vec<Vec<Value>> {
    let mut edges = Vec::new();
    for i in 0..nodes - 1 {
        edges.push(vec![Value::Number(i), Value::Number(i + 1)]);
        if i % 7 == 0 && i + 3 < nodes {
            edges.push(vec![Value::Number(i), Value::Number(i + 3)]);
        }
    }
    edges
}

fn main() {
    let nodes: i32 = match scale() {
        Scale::Tiny => 120,
        Scale::Small => 400,
        Scale::Medium => 800,
        Scale::Large => 1600,
    };
    let mut tc_inputs = InputData::new();
    tc_inputs.insert("edge".into(), chain(nodes));
    let tc_engine = Engine::from_source(TC).expect("TC compiles");

    let vpc = instances(Suite::Vpc, scale())
        .into_iter()
        .next()
        .expect("vpc instance");
    let vpc_engine = Engine::from_source(&vpc.program).expect("vpc compiles");

    let jobs = [1usize, 2, 4];
    let configs: Vec<InterpreterConfig> = jobs
        .iter()
        .map(|&j| InterpreterConfig::optimized().with_jobs(j))
        .collect();

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (name, engine, inputs) in [
        (format!("tc/chain-{nodes}"), &tc_engine, &tc_inputs),
        (vpc.name.clone(), &vpc_engine, &vpc.inputs),
    ] {
        let times = interp_times_interleaved(engine, &configs, inputs);
        let base = times[0].as_secs_f64();
        let mut row = vec![name];
        for t in &times {
            row.push(fmt_dur(*t));
        }
        for t in &times[1..] {
            row.push(fmt_ratio(base / t.as_secs_f64()));
        }
        rows.push(row);
    }

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    print_table(
        &format!(
            "Parallel fixpoint scaling — optimized STI, best of {} reps, {cores} core(s) available",
            reps()
        ),
        &[
            "workload",
            "jobs=1",
            "jobs=2",
            "jobs=4",
            "speedup@2",
            "speedup@4",
        ],
        &rows,
    );
    if cores < 4 {
        println!(
            "\nnote: only {cores} core(s) available — a jobs column above {cores} \
             time-slices them: it measures partition/merge overhead, not parallel gain"
        );
    }
}
