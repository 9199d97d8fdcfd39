//! A DDisasm-style binary analysis with the §5.2 case study attached:
//! profile the rules, find the dispatch-heavy outliers, and measure what
//! the automatically fused arithmetic guards (super-instructions) save
//! against walking them node by node.
//!
//! ```text
//! cargo run --release --example disassembler
//! ```

use stir::workloads::spec::Scale;
use stir::{Engine, InterpreterConfig};

fn main() -> Result<(), stir::EngineError> {
    let workload = stir::workloads::ddisasm::generate("demo-bin", Scale::Small, 77);
    println!(
        "workload: {} ({} instructions)",
        workload.name,
        workload.inputs["instr"].len()
    );

    let engine = Engine::from_source(&workload.program)?;

    // Plain run with profiling: find the outlier rules.
    let plain = engine.run(
        InterpreterConfig::optimized().with_profile(),
        &workload.inputs,
    )?;
    println!(
        "\ncode blocks: {}, moved labels: {}",
        plain.outputs["code"].len(),
        plain.outputs["moved_label"].len()
    );
    let mut rules = plain.profile.as_ref().expect("profiled").by_rule();
    rules.sort_by_key(|r| std::cmp::Reverse(r.time));
    println!("\nhottest rules:");
    for rule in rules.iter().take(3) {
        println!(
            "  {:>9.3?}  {}",
            rule.time,
            rule.label.chars().take(64).collect::<String>()
        );
    }

    // The same program with every guard walked node by node (`--no-super`).
    let walked = engine.run(
        InterpreterConfig {
            super_instructions: false,
            ..InterpreterConfig::optimized()
        }
        .with_profile(),
        &workload.inputs,
    )?;
    assert_eq!(
        plain.outputs, walked.outputs,
        "fusion must not change the fixpoint"
    );

    let time_of = |outcome: &stir::EvalOutcome| {
        outcome
            .profile
            .as_ref()
            .expect("profiled")
            .by_rule()
            .iter()
            .find(|r| r.label.starts_with("moved_label("))
            .map(|r| r.time)
            .unwrap_or_default()
    };
    println!(
        "\nmoved_label rule: {:?} walked -> {:?} with fused guards",
        time_of(&walked),
        time_of(&plain)
    );
    Ok(())
}
