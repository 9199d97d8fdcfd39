//! **Fig. 17 / §5.2** — the `moved_label` case study: print the RAM
//! representation of the outlier rule, then measure its filter chain
//! three ways — walked node by node (`super_instructions` off), fused
//! automatically into one flat program (the default), and replaced by a
//! hand-crafted native super-instruction, the paper's own remedy and the
//! floor automatic fusion is measured against.
//!
//! Paper's reported shape: the rule's filter needs 14 dispatches per
//! inner-loop iteration; fusing it into one native call cut the rule from
//! 44 s to 4 s and the whole benchmark's slowdown from 2.7× to 1.7×.

use std::time::Duration;
use stir_bench::{fmt_dur, print_table, reps, scale, SynthCache};
use stir_core::itree::Fusion;
use stir_core::{Engine, InterpreterConfig};
use stir_ram::stmt::{RamOp, RamStmt};
use stir_workloads::spec::Scale;

/// Hand-crafted condition for the `moved_label` filter chain — exactly
/// the conjunction the translator emits, computed natively. Register
/// layout: `t0 = sym_value(a, v)` at regs[0..2], `t1 = candidate(c, k)`
/// at regs[2..4].
fn moved_label_cond(regs: &[u32]) -> bool {
    let v = regs[1] as i32;
    let c = regs[2] as i32;
    let k = regs[3] as i32;
    let d = v.wrapping_sub(c);
    v >= c.wrapping_sub(4096)
        && v <= c.wrapping_add(4096)
        && (v & 4095) != 0
        && d != 0
        && d % 8 == 0
        && ((v ^ k) & 7) != 3
        && v.wrapping_mul(2).wrapping_sub(c) > 16
}

/// Hand-crafted condition for the second outlier, `moved_data`.
fn moved_data_cond(regs: &[u32]) -> bool {
    let v = regs[1] as i32;
    let c = regs[2] as i32;
    let k = regs[3] as i32;
    c >= v.wrapping_sub(512)
        && c <= v.wrapping_add(512)
        && (c & 15) == (v & 15)
        && k.wrapping_add(v).wrapping_sub(c) % 4 != 1
}

fn rule_time(
    engine: &Engine,
    w: &stir_workloads::Workload,
    config: InterpreterConfig,
    fusions: &[Fusion],
) -> (Duration, Duration, Duration) {
    let out = engine
        .run_fused(config.with_profile(), &w.inputs, fusions)
        .expect("runs");
    let rules = out.profile.expect("profiled").by_rule();
    let total: Duration = rules.iter().map(|r| r.time).sum();
    let find = |frag: &str| {
        rules
            .iter()
            .find(|r| r.label.contains(frag))
            .map(|r| r.time)
            .unwrap_or_default()
    };
    (find("moved_label("), find("moved_data("), total)
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

    // --- §5.2: the filter chain walked, fused, and hand-written -----------
    let fusions_all = [
        Fusion {
            label_contains: "moved_label(".into(),
            cond: moved_label_cond,
        },
        Fusion {
            label_contains: "moved_data(".into(),
            cond: moved_data_cond,
        },
    ];
    let walked = InterpreterConfig {
        super_instructions: false,
        ..InterpreterConfig::optimized()
    };
    let columns: [(InterpreterConfig, &[Fusion]); 3] = [
        (walked, &[]),
        (InterpreterConfig::optimized(), &[]),
        (InterpreterConfig::optimized(), &fusions_all),
    ];
    // Correctness first: all three reach the same fixpoint.
    let fixpoints: Vec<_> = columns
        .iter()
        .map(|(config, fusions)| {
            let out = engine.run_fused(*config, &w.inputs, fusions);
            out.expect("runs").outputs
        })
        .collect();
    assert_eq!(
        fixpoints[0], fixpoints[1],
        "automatic fusion changed the fixpoint"
    );
    assert_eq!(
        fixpoints[0], fixpoints[2],
        "hand-crafted super-instruction changed the fixpoint"
    );

    // Best of `reps` profiled runs per column, interleaved.
    let mut times = [(Duration::MAX, Duration::MAX, Duration::MAX); 3];
    for _ in 0..reps() {
        for (best, (config, fusions)) in times.iter_mut().zip(&columns) {
            let (ml, md, total) = rule_time(&engine, &w, *config, fusions);
            *best = (best.0.min(ml), best.1.min(md), best.2.min(total));
        }
    }

    // Synthesized reference for the slowdown-before/after numbers.
    let mut cache = SynthCache::new();
    let (synth_time, _) = cache.synth_eval(&w, &engine);

    let row = |name: &str, pick: &dyn Fn(&(Duration, Duration, Duration)) -> String| {
        let mut cells = vec![name.to_owned()];
        cells.extend(times.iter().map(pick));
        cells
    };
    print_table(
        &format!("§5.2 — the arithmetic filter chain, three ways (scale {scale:?})"),
        &[
            "measure",
            "tree walk",
            "automatic fusion",
            "hand-written native",
        ],
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
        "\nautomatic fusion / hand-written native on moved_label: {:.2}x",
        times[1].0.as_secs_f64() / times[2].0.as_secs_f64().max(1e-9)
    );
    println!(
        "paper: moved_label 44s → 4s; benchmark slowdown 2.7x → 1.7x after fusing the outliers by hand"
    );
}
