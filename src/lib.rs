//! STIR — a Soufflé-style Tree Interpreter in Rust.
//!
//! A from-scratch reproduction of *"An Efficient Interpreter for Datalog
//! by De-specializing Relations"* (Hu, Zhao, Jordan, Scholz; PLDI 2021):
//! a complete Datalog engine whose tree interpreter runs on de-specialized
//! relational data structures, plus the compiled (synthesizer) and legacy
//! baselines the paper evaluates against.
//!
//! This crate is the facade: it re-exports the workspace crates under one
//! name. See the individual crates for detail:
//!
//! * [`frontend`] — lexer, parser, semantic analysis, stratification;
//! * [`ram`] — the Relational Algebra Machine IR, translator, and
//!   automatic index selection;
//! * [`der`] — the Datalog-Enabled Relational data structures (B-tree,
//!   Brie, equivalence relation) and their de-specialization layer;
//! * [`core`] — the STI interpreter, its optimizations, the legacy
//!   interpreter, and the per-rule profiler;
//! * [`synth`] — the compiled baseline (RAM → Rust → `rustc -O`);
//! * [`workloads`] — synthetic analogues of the paper's three benchmark
//!   suites.
//!
//! # Quickstart
//!
//! ```
//! use stir::{Engine, InterpreterConfig};
//!
//! let engine = Engine::from_source(
//!     ".decl edge(x: number, y: number)
//!      .decl path(x: number, y: number)
//!      .output path
//!      edge(1, 2). edge(2, 3).
//!      path(x, y) :- edge(x, y).
//!      path(x, z) :- path(x, y), edge(y, z).",
//! )?;
//! let result = engine.run(InterpreterConfig::optimized(), &Default::default())?;
//! assert_eq!(result.outputs["path"].len(), 3);
//! # Ok::<(), stir::EngineError>(())
//! ```

#![warn(missing_docs)]

pub mod admin;
pub mod cli;
pub mod serve;

pub use stir_core as core;
pub use stir_der as der;
pub use stir_frontend as frontend;
pub use stir_ram as ram;
pub use stir_synth as synth;
pub use stir_workloads as workloads;

pub use stir_core::{
    profile_json, Engine, EngineError, EvalOutcome, ExplainLimits, InputData, InterpreterConfig,
    Json, LogLevel, ParallelReport, ProfileReport, ProofNode, ResidentEngine, ServerStats,
    StorageBackend, Telemetry, UpdateReport, Value,
};
