//! The end-to-end engine: source → AST → RAM → interpret.
//!
//! [`Engine`] owns the translated RAM program (frontend + translation run
//! once); [`Engine::run`] then builds the database, loads inputs,
//! generates the interpreter tree, and executes it. Interpreter-tree
//! generation is *inside* `run`, matching the paper's timing methodology
//! ("the execution time includes the extra code generation of the
//! Interpreter Tree", §5).

use crate::config::InterpreterConfig;
use crate::database::{DataMode, Database, InputData};
use crate::error::EngineError;
use crate::interp::Interpreter;
use crate::itree;
use crate::morsel::ParallelReport;
use crate::profile::ProfileReport;
use crate::prov::{self, ExplainLimits};
use crate::resident::explain_row;
use crate::telemetry::Telemetry;
use crate::value::Value;
use std::collections::HashMap;
use stir_ram::RamProgram;

/// The result of one evaluation.
#[derive(Debug)]
pub struct EvalOutcome {
    /// Each `.output` relation's tuples, sorted, keyed by name.
    pub outputs: HashMap<String, Vec<Vec<Value>>>,
    /// The profiling report, when profiling was enabled.
    pub profile: Option<ProfileReport>,
    /// Work-stealing scheduling statistics, when at least one scan was
    /// eligible to fan out (absent under sequential configurations, so
    /// profiles keep their sequential schema).
    pub parallel: Option<ParallelReport>,
}

/// A compiled-to-RAM Datalog program, ready to run any number of times.
#[derive(Debug)]
pub struct Engine {
    ram: RamProgram,
}

impl Engine {
    /// Parses, checks, and translates a Datalog program.
    ///
    /// # Errors
    ///
    /// Propagates frontend and translation errors.
    ///
    /// # Example
    ///
    /// ```
    /// use stir_core::{Engine, InterpreterConfig};
    ///
    /// let engine = Engine::from_source(
    ///     ".decl e(x: number, y: number)
    ///      .decl p(x: number, y: number)
    ///      .output p
    ///      e(1, 2). e(2, 3).
    ///      p(x, y) :- e(x, y).
    ///      p(x, z) :- p(x, y), e(y, z).",
    /// )?;
    /// let out = engine.run(InterpreterConfig::optimized(), &Default::default())?;
    /// assert_eq!(out.outputs["p"].len(), 3); // (1,2) (1,3) (2,3)
    /// # Ok::<(), stir_core::EngineError>(())
    /// ```
    pub fn from_source(source: &str) -> Result<Engine, EngineError> {
        Self::from_source_with(source, None)
    }

    /// Like [`Engine::from_source`], recording `phase:parse` and
    /// `phase:ram-translate` spans (plus the index-selection sub-span)
    /// into an attached telemetry tracer.
    ///
    /// # Errors
    ///
    /// Propagates frontend and translation errors.
    pub fn from_source_with(source: &str, tel: Option<&Telemetry>) -> Result<Engine, EngineError> {
        let tracer = tel.map(|t| &t.tracer);
        let checked = {
            let _span = tracer.map(|t| t.span("phase:parse"));
            stir_frontend::parse_and_check(source)?
        };
        let ram = {
            let _span = tracer.map(|t| t.span("phase:ram-translate"));
            let ram = stir_ram::translate::translate(&checked)?;
            if let Some(t) = tracer {
                t.record("index-selection", ram.stats.index_selection_ns);
            }
            ram
        };
        Ok(Engine { ram })
    }

    /// The translated RAM program (for listings and the synthesizer).
    pub fn ram(&self) -> &RamProgram {
        &self.ram
    }

    /// Consumes the engine, yielding the RAM program. Used by the
    /// resident engine, which owns the program alongside the database it
    /// keeps alive between requests.
    pub fn into_ram(self) -> RamProgram {
        self.ram
    }

    /// Runs the program under `config` with the given external inputs.
    ///
    /// # Errors
    ///
    /// Propagates input-loading and runtime errors.
    pub fn run(
        &self,
        config: InterpreterConfig,
        inputs: &InputData,
    ) -> Result<EvalOutcome, EngineError> {
        self.run_with(config, inputs, None)
    }

    /// Like [`Engine::run`], with an attached telemetry bundle:
    /// phase spans (`build-db`, `load-inputs`, `build-itree`,
    /// `evaluate`) go to the tracer, per-statement spans are recorded
    /// when [`InterpreterConfig::trace`] is set, and the database's
    /// relation/index structure is sampled into the metrics registry
    /// after the run.
    ///
    /// # Errors
    ///
    /// Propagates input-loading and runtime errors.
    pub fn run_with(
        &self,
        config: InterpreterConfig,
        inputs: &InputData,
        tel: Option<&Telemetry>,
    ) -> Result<EvalOutcome, EngineError> {
        let up = bring_up(&self.ram, config, tel, |db| {
            let _span = tel.map(|t| t.tracer.span("phase:load-inputs"));
            db.load_inputs(&self.ram, inputs)?;
            Ok(true)
        })?;
        if let (Some(t), Some(par)) = (tel, &up.parallel) {
            publish_parallel_metrics(&t.metrics, par);
        }
        Ok(EvalOutcome {
            outputs: up.db.extract_outputs(&self.ram),
            profile: up.profile,
            parallel: up.parallel,
        })
    }

    /// `stir explain`: runs the program under `config` with provenance
    /// on and answers `.explain rel(row)` as a resident engine would, as
    /// the rendered proof tree and its node count. A batch run, so every
    /// configuration takes it, the legacy baseline included.
    ///
    /// # Errors
    ///
    /// Propagates input-loading and runtime errors and `.explain`'s
    /// refusals.
    pub fn explain_with(
        &self,
        config: InterpreterConfig,
        inputs: &InputData,
        rel: &str,
        row: &[Value],
        tel: Option<&Telemetry>,
    ) -> Result<(String, usize), EngineError> {
        let up = bring_up(&self.ram, config.with_provenance(), tel, |db| {
            db.load_inputs(&self.ram, inputs)?;
            Ok(true)
        })?;
        let node = explain_row(&self.ram, &up.db, rel, row, &ExplainLimits::default())?;
        Ok((prov::render_proof(&self.ram, &up.db, &node), node.size()))
    }
}

/// What [`bring_up`] produced: the database, plus the fixpoint's reports
/// (both `None` when the fixpoint did not run or was not instrumented).
pub(crate) struct BroughtUp {
    pub(crate) db: Database,
    pub(crate) profile: Option<ProfileReport>,
    pub(crate) parallel: Option<ParallelReport>,
}

/// The bring-up sequence shared by batch runs and the resident engine:
/// build the database `config` selects, let `load` fill it (external
/// inputs or a snapshot), and — when `load` returns `true` — generate
/// the interpreter tree and run the fixpoint. `load` returns `false` when
/// what it loaded is already the fixpoint's result. The database
/// structure is sampled into an attached metrics registry either way.
pub(crate) fn bring_up(
    ram: &RamProgram,
    config: InterpreterConfig,
    tel: Option<&Telemetry>,
    load: impl FnOnce(&Database) -> Result<bool, EngineError>,
) -> Result<BroughtUp, EngineError> {
    let tracer = tel.map(|t| &t.tracer);
    let db = {
        let _span = tracer.map(|t| t.span("phase:build-db"));
        Database::new_with_storage(
            ram,
            DataMode::of(&config),
            config.provenance,
            config.storage,
        )
    };
    let (mut profile, mut parallel) = (None, None);
    if load(&db)? {
        let tree = {
            let _span = tracer.map(|t| t.span("phase:build-itree"));
            itree::build(ram, &config)
        };
        let mut interp = Interpreter::new(ram, &db, config);
        if let Some(t) = tel {
            interp.attach_telemetry(t);
        }
        {
            let _span = tracer.map(|t| t.span("phase:evaluate"));
            interp.run(&tree)?;
        }
        parallel = interp.parallel_report();
        profile = interp.profile_report();
    }
    if let Some(t) = tel {
        db.sample_metrics(ram, &t.metrics);
    }
    Ok(BroughtUp {
        db,
        profile,
        parallel,
    })
}

/// Publishes work-stealing statistics into the metrics registry, whence
/// they flow into `--profile-json`'s counter section and the serving
/// metrics endpoint. Only called when a parallel scan actually ran, so
/// sequential runs keep their exact counter schema.
pub(crate) fn publish_parallel_metrics(
    metrics: &crate::telemetry::MetricsRegistry,
    par: &ParallelReport,
) {
    metrics.set("parallel.scans", par.scans);
    metrics.set("parallel.small_scans", par.small_scans);
    metrics.set("parallel.morsels", par.morsels());
    metrics.set("parallel.steals", par.steals());
    metrics.set("parallel.merge_us", par.merge_us);
    for (w, stats) in par.workers.iter().enumerate() {
        metrics.set(&format!("parallel.worker.{w}.tuples"), stats.tuples);
        if stats.work > 0 {
            metrics.set(&format!("parallel.worker.{w}.work"), stats.work);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, config: InterpreterConfig) -> HashMap<String, Vec<Vec<Value>>> {
        Engine::from_source(src)
            .expect("compiles")
            .run(config, &InputData::new())
            .expect("runs")
            .outputs
    }

    fn nums(rows: &[Vec<i32>]) -> Vec<Vec<Value>> {
        rows.iter()
            .map(|r| r.iter().map(|&v| Value::Number(v)).collect())
            .collect()
    }

    const TC: &str = "\
        .decl e(x: number, y: number)\n\
        .decl p(x: number, y: number)\n\
        .output p\n\
        e(1, 2). e(2, 3). e(3, 4).\n\
        p(x, y) :- e(x, y).\n\
        p(x, z) :- p(x, y), e(y, z).\n";

    fn all_configs() -> Vec<InterpreterConfig> {
        let base = [
            InterpreterConfig::optimized(),
            InterpreterConfig::dynamic_adapter(),
            InterpreterConfig::unoptimized(),
            InterpreterConfig::legacy(),
        ];
        let mut out = Vec::new();
        for b in base {
            out.push(b);
            // And every single-flag flip of the optimized config.
            out.push(InterpreterConfig {
                super_instructions: false,
                ..InterpreterConfig::optimized()
            });
            out.push(InterpreterConfig {
                static_reordering: false,
                ..InterpreterConfig::optimized()
            });
            out.push(InterpreterConfig {
                outlined_handlers: false,
                ..InterpreterConfig::optimized()
            });
        }
        out
    }

    #[test]
    fn transitive_closure_all_configs() {
        let expected = nums(&[
            vec![1, 2],
            vec![1, 3],
            vec![1, 4],
            vec![2, 3],
            vec![2, 4],
            vec![3, 4],
        ]);
        for config in all_configs() {
            let out = run(TC, config);
            assert_eq!(out["p"], expected, "config {config:?}");
        }
    }

    #[test]
    fn negation_and_arithmetic() {
        let src = "\
            .decl e(x: number)\n.decl odd(x: number)\n.decl r(x: number, y: number)\n\
            .output r\n\
            e(1). e(2). e(3). e(4).\n\
            odd(1). odd(3).\n\
            r(x, y) :- e(x), !odd(x), y = x * 10 + 1.\n";
        for config in [InterpreterConfig::optimized(), InterpreterConfig::legacy()] {
            let out = run(src, config);
            assert_eq!(out["r"], nums(&[vec![2, 21], vec![4, 41]]));
        }
    }

    #[test]
    fn aggregates_work() {
        let src = "\
            .decl e(x: number, w: number)\n.decl total(k: number, s: number)\n\
            .decl cnt(n: number)\n\
            .output total\n.output cnt\n\
            e(1, 10). e(1, 20). e(2, 5).\n\
            total(k, s) :- e(k, _), s = sum w : { e(k, w) }.\n\
            cnt(n) :- n = count : { e(_, _) }.\n";
        for config in [
            InterpreterConfig::optimized(),
            InterpreterConfig::unoptimized(),
        ] {
            let out = run(src, config);
            assert_eq!(out["total"], nums(&[vec![1, 30], vec![2, 5]]));
            assert_eq!(out["cnt"], nums(&[vec![3]]));
        }
    }

    #[test]
    fn min_max_over_empty_fails_quietly() {
        let src = "\
            .decl e(x: number)\n.decl r(x: number)\n.output r\n\
            r(m) :- m = min x : { e(x) }.\n";
        let out = run(src, InterpreterConfig::optimized());
        assert!(out["r"].is_empty());
    }

    #[test]
    fn eqrel_and_symmetry_probe() {
        let src = "\
            .decl eq(x: number, y: number) eqrel\n\
            .decl s(x: number, y: number)\n\
            .decl member_of_one(x: number)\n\
            .output member_of_one\n\
            s(1, 2). s(2, 3). s(7, 8).\n\
            eq(x, y) :- s(x, y).\n\
            member_of_one(x) :- eq(x, 1).\n";
        for config in [InterpreterConfig::optimized(), InterpreterConfig::legacy()] {
            let out = run(src, config);
            assert_eq!(out["member_of_one"], nums(&[vec![1], vec![2], vec![3]]));
        }
    }

    #[test]
    fn strings_and_functors() {
        let src = "\
            .decl name(s: symbol)\n.decl greet(s: symbol, l: number)\n.output greet\n\
            name(\"ada\"). name(\"grace\").\n\
            greet(m, n) :- name(s), m = cat(\"hi \", s), n = strlen(s).\n";
        let out = run(src, InterpreterConfig::optimized());
        assert_eq!(
            out["greet"],
            vec![
                vec![Value::Symbol("hi ada".into()), Value::Number(3)],
                vec![Value::Symbol("hi grace".into()), Value::Number(5)],
            ]
        );
    }

    #[test]
    fn inputs_feed_evaluation() {
        let src = "\
            .decl e(x: number, y: number)\n.input e\n\
            .decl p(x: number, y: number)\n.output p\n\
            p(x, z) :- e(x, y), e(y, z).\n";
        let engine = Engine::from_source(src).expect("compiles");
        let mut inputs = InputData::new();
        inputs.insert(
            "e".into(),
            vec![
                vec![Value::Number(1), Value::Number(2)],
                vec![Value::Number(2), Value::Number(3)],
            ],
        );
        let out = engine
            .run(InterpreterConfig::optimized(), &inputs)
            .expect("runs");
        assert_eq!(out.outputs["p"], nums(&[vec![1, 3]]));
    }

    #[test]
    fn runtime_errors_propagate() {
        let src = "\
            .decl e(x: number)\n.decl r(x: number)\n.output r\n\
            e(0).\n\
            r(y) :- e(x), y = 10 / x.\n";
        let err = Engine::from_source(src)
            .expect("compiles")
            .run(InterpreterConfig::optimized(), &InputData::new())
            .unwrap_err();
        assert!(err.to_string().contains("division by zero"));
    }

    #[test]
    fn profiling_reports_rules_and_dispatches() {
        let engine = Engine::from_source(TC).expect("compiles");
        let out = engine
            .run(
                InterpreterConfig::optimized().with_profile(),
                &InputData::new(),
            )
            .expect("runs");
        let profile = out.profile.expect("profile present");
        assert!(profile.dispatches > 0);
        assert!(profile.iterations > 0);
        let rules = profile.by_rule();
        assert_eq!(rules.len(), 2);
        assert!(rules.iter().all(|r| r.executions > 0));
        // Fewer dispatches with super-instructions than without.
        let without = engine
            .run(
                InterpreterConfig {
                    super_instructions: false,
                    ..InterpreterConfig::optimized()
                }
                .with_profile(),
                &InputData::new(),
            )
            .expect("runs");
        assert!(
            without.profile.expect("profile").dispatches > profile.dispatches,
            "super-instructions reduce dispatch count"
        );
    }

    #[test]
    fn counter_produces_distinct_ids() {
        let src = "\
            .decl e(x: number)\n.decl r(x: number, id: number)\n.output r\n\
            e(10). e(20). e(30).\n\
            r(x, $) :- e(x).\n";
        let out = run(src, InterpreterConfig::optimized());
        let ids: std::collections::BTreeSet<i32> = out["r"]
            .iter()
            .map(|t| match t[1] {
                Value::Number(n) => n,
                _ => panic!(),
            })
            .collect();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn nullary_relations_evaluate() {
        let src = "\
            .decl flag()\n.decl e(x: number)\n.decl r(x: number)\n.output r\n\
            flag().\n e(5).\n\
            r(x) :- e(x), flag().\n";
        let out = run(src, InterpreterConfig::optimized());
        assert_eq!(out["r"], nums(&[vec![5]]));

        let src_no_flag = "\
            .decl flag()\n.decl e(x: number)\n.decl r(x: number)\n.output r\n\
            e(5).\n\
            r(x) :- e(x), flag().\n";
        let out = run(src_no_flag, InterpreterConfig::optimized());
        assert!(out["r"].is_empty());
    }

    #[test]
    fn mutual_recursion_converges() {
        let src = "\
            .decl n(x: number)\n.decl even(x: number)\n.decl odd(x: number)\n\
            .output even\n.output odd\n\
            n(0). n(1). n(2). n(3). n(4). n(5).\n\
            even(0).\n\
            odd(y) :- even(x), n(y), y = x + 1.\n\
            even(y) :- odd(x), n(y), y = x + 1.\n";
        for config in all_configs() {
            let out = run(src, config);
            assert_eq!(out["even"], nums(&[vec![0], vec![2], vec![4]]));
            assert_eq!(out["odd"], nums(&[vec![1], vec![3], vec![5]]));
        }
    }
}
