//! **Fig. 17 / §5.2** — the `moved_label` case study: print the RAM
//! representation of the outlier rule, then measure its filter chain
//! three ways — walked node by node (`super_instructions` off), fused
//! automatically into one flat program (the default), and compiled by
//! the synthesizer from the same RAM, the floor automatic fusion is
//! measured against (the paper fused the chain by hand instead).
//!
//! Paper's reported shape: the rule's filter needs 14 dispatches per
//! inner-loop iteration; fusing it into one native call cut the rule from
//! 44 s to 4 s and the whole benchmark's slowdown from 2.7× to 1.7×.

use std::time::Duration;
use stir_bench::{fmt_dur, print_table, reps, scale, SynthCache};
use stir_core::{Engine, InterpreterConfig};
use stir_ram::stmt::{RamOp, RamStmt};
use stir_workloads::spec::Scale;

/// The two outlier rules, by the head their labels start with.
const OUTLIERS: [&str; 2] = ["moved_label(", "moved_data("];

/// `(moved_label, moved_data, all rules)` times of one profiled run.
type Times = (Duration, Duration, Duration);

fn rule_time(engine: &Engine, w: &stir_workloads::Workload, config: InterpreterConfig) -> Times {
    let out = engine.run(config.with_profile(), &w.inputs).expect("runs");
    let rules = out.profile.expect("profiled").by_rule();
    let total: Duration = rules.iter().map(|r| r.time).sum();
    let find = |head: &str| {
        rules
            .iter()
            .filter(|r| r.label.starts_with(head))
            .map(|r| r.time)
            .sum()
    };
    (find(OUTLIERS[0]), find(OUTLIERS[1]), total)
}

fn main() {
    let scale = if scale() == Scale::Tiny {
        Scale::Tiny
    } else {
        Scale::Medium
    };
    let w = stir_workloads::ddisasm::generate("gamess-like", scale, 404);
    let engine = Engine::from_source(&w.program).expect("compiles");

    // --- Fig. 17: the RAM listing of the outlier rule -----------------
    let mut listing = None;
    engine.ram().main.walk(&mut |s| {
        if let RamStmt::Query { label, op, .. } = s {
            if label.contains("moved_label(") && listing.is_none() {
                let mut dispatches = 0usize;
                op.walk(&mut |o| {
                    if let RamOp::Filter { cond, .. } = o {
                        dispatches += cond.dispatch_count();
                    }
                });
                listing = Some((
                    stir_ram::pretty::stmt_to_string(engine.ram(), s),
                    dispatches,
                ));
            }
        }
    });
    let (text, filter_dispatches) = listing.expect("moved_label rule exists");
    println!("=== Fig. 17 — RAM representation of the moved_label analogue ===");
    println!("{text}");
    println!("filter dispatch count per inner iteration: {filter_dispatches}   (paper: 14)");

    // --- §5.2: the filter chain walked, fused, and synthesized ---------
    let walked = InterpreterConfig {
        super_instructions: false,
        ..InterpreterConfig::optimized()
    };
    let columns = [walked, InterpreterConfig::optimized()];
    // Correctness first: both reach the same fixpoint.
    let fixpoints: Vec<_> = columns
        .iter()
        .map(|config| engine.run(*config, &w.inputs).expect("runs").outputs)
        .collect();
    assert_eq!(
        fixpoints[0], fixpoints[1],
        "automatic fusion changed the fixpoint"
    );

    // Best of `reps` profiled runs per column, interleaved.
    let mut times = [(Duration::MAX, Duration::MAX, Duration::MAX); 3];
    for _ in 0..reps() {
        for (best, config) in times.iter_mut().zip(&columns) {
            let (ml, md, total) = rule_time(&engine, &w, *config);
            *best = (best.0.min(ml), best.1.min(md), best.2.min(total));
        }
    }

    // The synthesized program's time for the same rules: its binary
    // profiles every query of `main`, labelled in query order; a rule's
    // time sums its variants.
    let mut cache = SynthCache::new();
    let (synth_time, outcome) = cache.synth_eval(&w, &engine);
    let labels = stir_synth::query_labels(engine.ram());
    let synth_rule = |head: &str| {
        (labels.iter().zip(&outcome.profile))
            .filter(|(label, _)| label.starts_with(head))
            .map(|(_, (time, _))| *time)
            .sum()
    };
    times[2] = (synth_rule(OUTLIERS[0]), synth_rule(OUTLIERS[1]), synth_time);

    let row = |name: &str, pick: &dyn Fn(&Times) -> String| {
        let mut cells = vec![name.to_owned()];
        cells.extend(times.iter().map(pick));
        cells
    };
    print_table(
        &format!("§5.2 — the arithmetic filter chain, three ways (scale {scale:?})"),
        &["measure", "tree walk", "automatic fusion", "synthesized"],
        &[
            row("moved_label rule time", &|t| fmt_dur(t.0)),
            row("moved_data rule time", &|t| fmt_dur(t.1)),
            row("whole benchmark", &|t| fmt_dur(t.2)),
            row("slowdown vs synth", &|t| {
                let synth = synth_time.as_secs_f64().max(1e-9);
                format!("{:.2}x", t.2.as_secs_f64() / synth)
            }),
        ],
    );
    println!(
        "\nautomatic fusion / synthesized on moved_label: {:.2}x",
        times[1].0.as_secs_f64() / times[2].0.as_secs_f64().max(1e-9)
    );
    println!(
        "paper: moved_label 44s → 4s; benchmark slowdown 2.7x → 1.7x after fusing the outliers by hand"
    );
}
