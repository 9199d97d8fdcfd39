//! Shared infrastructure for the paper-reproduction benchmark harness.
//!
//! Every table and figure of the paper's evaluation has one bench target
//! (see `benches/`); this library holds what they share: scale/repetition
//! settings, timed interpreter runs that mirror the paper's methodology
//! (interpreter-tree generation included, fact loading excluded), a
//! compile-once cache for synthesized programs, and plain-text table
//! rendering.
//!
//! Environment knobs:
//!
//! * `STIR_BENCH_SCALE` — `tiny` / `small` / `medium` / `large`
//!   (default `small`; the committed reference numbers use `medium`).
//! * `STIR_BENCH_REPS` — repetitions per measurement (default 3; the
//!   minimum is reported — robust against CPU-steal on shared machines).

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use stir_core::{
    database::{DataMode, Database},
    itree, profile_json, Engine, InputData, Interpreter, InterpreterConfig, Json, ProfileReport,
    Telemetry, Value,
};
use stir_synth::{compile, CompiledProgram};
use stir_workloads::spec::Scale;
use stir_workloads::Workload;

/// The benchmark scale from `STIR_BENCH_SCALE`.
pub fn scale() -> Scale {
    match std::env::var("STIR_BENCH_SCALE").as_deref() {
        Ok("tiny") => Scale::Tiny,
        Ok("medium") => Scale::Medium,
        Ok("large") => Scale::Large,
        _ => Scale::Small,
    }
}

/// Repetitions per measurement from `STIR_BENCH_REPS`.
pub fn reps() -> usize {
    std::env::var("STIR_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// The median of a set of durations.
pub fn median(mut times: Vec<Duration>) -> Duration {
    times.sort();
    times[times.len() / 2]
}

/// The minimum of a set of durations — the robust statistic for
/// deterministic workloads on a shared machine, where every disturbance
/// (CPU steal, page cache pressure) only ever *adds* time.
pub fn best(times: Vec<Duration>) -> Duration {
    times.into_iter().min().expect("at least one sample")
}

/// One timed interpreter evaluation: database construction and fact
/// loading excluded, interpreter-tree generation *included* (paper §5).
///
/// # Panics
///
/// Panics on evaluation errors (benchmark programs are known-good).
pub fn interp_eval(
    engine: &Engine,
    config: InterpreterConfig,
    inputs: &InputData,
) -> (Duration, Option<ProfileReport>, usize) {
    let ram = engine.ram();
    let db = Database::new(ram, DataMode::of(&config));
    db.load_inputs(ram, inputs).expect("inputs load");
    let started = Instant::now();
    let tree = itree::build(ram, &config);
    let mut interp = Interpreter::new(ram, &db, config);
    interp.run(&tree).expect("evaluation succeeds");
    let elapsed = started.elapsed();
    let size: usize = ram.outputs().map(|r| db.rd(r.id).len()).sum();
    (elapsed, interp.profile_report(), size)
}

/// One profiled evaluation rendered as the machine-readable profile
/// document — the same JSON `stir --profile-json` writes. Benchmarks
/// that consume per-rule statistics go through this instead of the
/// in-process [`ProfileReport`], so the emitters stay load-bearing.
///
/// # Panics
///
/// Panics on evaluation errors (benchmark programs are known-good).
pub fn profile_json_eval(engine: &Engine, config: InterpreterConfig, inputs: &InputData) -> Json {
    let (elapsed, profile, _) = interp_eval(engine, config.with_profile(), inputs);
    profile_json(engine.ram(), profile.as_ref(), &Telemetry::off(), elapsed)
}

/// One per-rule record parsed back out of a profile JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonRule {
    /// The rule text.
    pub label: String,
    /// Cumulative wall time.
    pub time: Duration,
    /// How many times the rule's query ran.
    pub executions: u64,
    /// Tuples the rule inserted.
    pub tuples: u64,
}

/// The `rule` table of a profile JSON document.
///
/// # Panics
///
/// Panics when the document does not have the `--profile-json` layout.
pub fn rules_from_json(doc: &Json) -> Vec<JsonRule> {
    doc.get("root")
        .and_then(|r| r.get("program"))
        .and_then(|p| p.get("rule"))
        .and_then(Json::entries)
        .expect("profile JSON has root.program.rule")
        .iter()
        .map(|(label, r)| {
            let field = |k: &str| r.get(k).and_then(Json::as_u64).expect("rule field");
            JsonRule {
                label: label.clone(),
                time: Duration::from_nanos(field("time_ns")),
                executions: field("executions"),
                tuples: field("tuples"),
            }
        })
        .collect()
}

/// Best (minimum) interpreter evaluation time over [`reps`] runs, after one
/// untimed warm-up run (first executions pay allocator/page-fault costs
/// that would otherwise bias whichever configuration is measured first).
pub fn interp_time(engine: &Engine, config: InterpreterConfig, inputs: &InputData) -> Duration {
    let _ = interp_eval(engine, config, inputs);
    let times: Vec<Duration> = (0..reps())
        .map(|_| interp_eval(engine, config, inputs).0)
        .collect();
    best(times)
}

/// Best (minimum) times for several configurations measured *interleaved*
/// (config A, B, C, A, B, C, ...), which cancels slow drift (allocator
/// state, CPU frequency) that would bias sequentially measured
/// configurations. One warm-up run per configuration precedes timing.
pub fn interp_times_interleaved(
    engine: &Engine,
    configs: &[InterpreterConfig],
    inputs: &InputData,
) -> Vec<Duration> {
    for &c in configs {
        let _ = interp_eval(engine, c, inputs);
    }
    let mut times: Vec<Vec<Duration>> = vec![Vec::new(); configs.len()];
    for _ in 0..reps() {
        for (i, &c) in configs.iter().enumerate() {
            times[i].push(interp_eval(engine, c, inputs).0);
        }
    }
    times.into_iter().map(best).collect()
}

/// A compile-once cache of synthesized programs plus per-instance fact
/// directories.
#[derive(Debug, Default)]
pub struct SynthCache {
    programs: HashMap<String, CompiledProgram>,
    facts_dirs: HashMap<String, PathBuf>,
}

impl SynthCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn root() -> PathBuf {
        std::env::temp_dir().join("stir-bench")
    }

    /// Compiles (or reuses) the synthesized binary for a program.
    ///
    /// # Panics
    ///
    /// Panics if `rustc` fails — the harness cannot proceed without the
    /// compiled baseline.
    pub fn program(&mut self, key: &str, engine: &Engine) -> CompiledProgram {
        if let Some(p) = self.programs.get(key) {
            return p.clone();
        }
        let source = stir_synth::generate(engine.ram());
        let dir = Self::root().join("build").join(key);
        let program = compile::compile(&source, &dir).expect("rustc compiles synthesized code");
        self.programs.insert(key.to_owned(), program.clone());
        program
    }

    /// Writes (or reuses) the facts directory for a workload instance.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors.
    pub fn facts_dir(&mut self, workload: &Workload) -> PathBuf {
        let key = workload.name.replace('/', "_");
        if let Some(d) = self.facts_dirs.get(&key) {
            return d.clone();
        }
        let dir = Self::root().join("facts").join(&key);
        let facts: HashMap<String, Vec<Vec<String>>> = workload
            .inputs
            .iter()
            .map(|(k, rows)| {
                (
                    k.clone(),
                    rows.iter()
                        .map(|r| r.iter().map(Value::to_string).collect())
                        .collect(),
                )
            })
            .collect();
        compile::write_facts_dir(&dir, &facts).expect("facts written");
        self.facts_dirs.insert(key.clone(), dir.clone());
        dir
    }

    /// Runs the synthesized binary on a workload; returns the best
    /// (minimum) evaluation time and the last run's full outcome.
    ///
    /// # Panics
    ///
    /// Panics if the binary fails.
    pub fn synth_eval(
        &mut self,
        workload: &Workload,
        engine: &Engine,
    ) -> (Duration, stir_synth::RunOutcome) {
        let suite_key = workload.suite.name().to_owned();
        let program = self.program(&suite_key, engine);
        let facts = self.facts_dir(workload);
        let out_dir = Self::root()
            .join("out")
            .join(workload.name.replace('/', "_"));
        // Warm-up run (binary/page-cache effects), then timed reps.
        let _ = compile::run(&program, &facts, &out_dir).expect("synth warmup");
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..reps() {
            let outcome = compile::run(&program, &facts, &out_dir).expect("synth run");
            times.push(outcome.eval_time);
            last = Some(outcome);
        }
        (best(times), last.expect("at least one rep"))
    }

    /// The cached compile time of a suite's program.
    pub fn compile_time(&mut self, key: &str, engine: &Engine) -> Duration {
        self.program(key, engine).compile_time
    }
}

/// Renders an aligned plain-text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let render = |cells: Vec<String>| {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:>width$}", width = widths[i]));
        }
        line
    };
    println!(
        "{}",
        render(headers.iter().map(|s| s.to_string()).collect())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", render(row.clone()));
    }
}

/// Formats a duration in engineering style.
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 10 {
        format!("{:.1}s", d.as_secs_f64())
    } else if d.as_millis() >= 10 {
        format!("{}ms", d.as_millis())
    } else {
        format!("{}µs", d.as_micros())
    }
}

/// Formats a ratio.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_order_insensitive() {
        let d = |ms: u64| Duration::from_millis(ms);
        assert_eq!(median(vec![d(3), d(1), d(2)]), d(2));
        assert_eq!(median(vec![d(5)]), d(5));
    }

    #[test]
    fn formatting_is_compact() {
        assert_eq!(fmt_dur(Duration::from_micros(150)), "150µs");
        assert_eq!(fmt_dur(Duration::from_millis(42)), "42ms");
        assert_eq!(fmt_dur(Duration::from_secs(12)), "12.0s");
        assert_eq!(fmt_ratio(1.5), "1.50x");
    }

    #[test]
    fn interp_eval_measures_and_counts() {
        let engine = Engine::from_source(
            ".decl e(x: number)\n.decl p(x: number)\n.output p\n\
             e(1). e(2).\np(x) :- e(x).",
        )
        .expect("compiles");
        let (time, profile, size) =
            interp_eval(&engine, InterpreterConfig::optimized(), &InputData::new());
        assert!(time.as_nanos() > 0);
        assert!(profile.is_none());
        assert_eq!(size, 2);
    }

    #[test]
    fn rules_round_trip_through_profile_json() {
        let engine = Engine::from_source(
            ".decl e(x: number)\n.decl p(x: number)\n.output p\n\
             e(1). e(2). e(3).\np(x) :- e(x).",
        )
        .expect("compiles");
        let doc = profile_json_eval(&engine, InterpreterConfig::optimized(), &InputData::new());
        let reparsed = Json::parse(&doc.render()).expect("round-trips");
        let rules = rules_from_json(&reparsed);
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].label, "p(x) :- e(x).");
        assert_eq!(rules[0].tuples, 3);
        assert!(rules[0].executions >= 1);
    }
}
