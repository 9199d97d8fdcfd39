//! **Fig. 19** — impact of super-instructions: the STI with
//! `Constant`/`TupleElement` children folded into their parent
//! instructions vs the same interpreter dispatching every child node.
//!
//! Paper's reported shape: 13.75% average speedup, from eliminating
//! 22.01% of dispatches on average.

use stir_bench::{fmt_dur, print_table, scale};
use stir_core::{Engine, InterpreterConfig};
use stir_workloads::{all_suites, instances};

fn main() {
    let scale = scale();
    let without_cfg = InterpreterConfig {
        super_instructions: false,
        ..InterpreterConfig::optimized()
    };
    let mut rows = Vec::new();
    let mut rels = Vec::new();
    let mut dispatch_drops = Vec::new();
    for suite in all_suites() {
        for w in instances(suite, scale) {
            let engine = Engine::from_source(&w.program).expect("compiles");
            let times = stir_bench::interp_times_interleaved(
                &engine,
                &[without_cfg, InterpreterConfig::optimized()],
                &w.inputs,
            );
            let (without, with) = (times[0], times[1]);
            let rel = with.as_secs_f64() / without.as_secs_f64().max(1e-9);
            rels.push(rel);

            // Dispatch counts (profiled, untimed runs) — and the check that
            // folding changed nothing but the cost.
            let profiled = |config: InterpreterConfig| {
                let out = engine.run(config.with_profile(), &w.inputs).expect("runs");
                (
                    out.profile.expect("profiled").dispatches as f64,
                    out.outputs,
                )
            };
            let (d_with, out_with) = profiled(InterpreterConfig::optimized());
            let (d_without, out_without) = profiled(without_cfg);
            assert_eq!(
                out_with, out_without,
                "{}: super-instructions changed the fixpoint",
                w.name
            );
            let drop = 1.0 - d_with / d_without.max(1.0);
            dispatch_drops.push(drop);

            rows.push(vec![
                w.name.clone(),
                fmt_dur(without),
                fmt_dur(with),
                format!("{rel:.3}"),
                format!("-{:.1}%", 100.0 * drop),
            ]);
        }
    }
    print_table(
        &format!("Fig. 19 — super-instructions (scale {scale:?}; without = 1.0)"),
        &[
            "benchmark",
            "without",
            "with",
            "relative runtime",
            "dispatches",
        ],
        &rows,
    );
    let avg = rels.iter().sum::<f64>() / rels.len() as f64;
    let avg_drop = dispatch_drops.iter().sum::<f64>() / dispatch_drops.len() as f64;
    println!(
        "\naverage speedup {:.1}%, average dispatch reduction {:.1}%   (paper: 13.75% speedup from 22.01% fewer dispatches)",
        100.0 * (1.0 - avg),
        100.0 * avg_drop
    );
}
