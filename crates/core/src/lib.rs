//! STIR core: the Soufflé-style Tree Interpreter (STI) and its runtime.
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"An Efficient Interpreter for Datalog by De-specializing Relations"*
//! (PLDI 2021): a tree interpreter for the RAM intermediate representation
//! whose relational operations run on de-specialized DER data structures
//! (`stir_der`) with near-compiled performance. It contains:
//!
//! * the [`itree`] generator (RAM → Interpreter Tree, §3/§4),
//! * the [`interp`] recursive executor with all four optimizations of §4
//!   as independent [`config::InterpreterConfig`] toggles; its statically
//!   dispatched handlers downcast an index to its concrete
//!   `stir_der::SetIndex` and call [`stir_der::TupleSet`] on the set,
//! * the legacy-interpreter baseline (runtime-comparator indexes, §5.1),
//! * the per-rule [`profile`]r of §5.2,
//! * the [`telemetry`] layer — phase/statement tracing, an engine
//!   metrics registry, and Soufflé-compatible machine-readable
//!   profiles — and
//! * the [`engine::Engine`] facade running the whole pipeline.
//!
//! # Quickstart
//!
//! ```
//! use stir_core::{Engine, InterpreterConfig};
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
//! # Ok::<(), stir_core::EngineError>(())
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod database;
pub mod engine;
pub mod error;
pub mod fault;
pub mod functors;
pub mod health;
pub mod interp;
pub mod io;
pub mod itree;
pub mod json;
pub mod morsel;
pub mod profile;
pub mod prov;
pub mod resident;
pub mod sink;
pub mod snap2;
pub mod telemetry;
pub mod value;
pub mod wal;

pub use config::{InterpreterConfig, StorageBackend};
pub use database::{DataMode, Database, InputData};
pub use engine::{Engine, EvalOutcome};
pub use error::{EngineError, EvalError, StorageError};
pub use health::{HealthMonitor, HealthState};
pub use interp::Interpreter;
pub use json::Json;
pub use morsel::{MorselQueue, ParallelReport, WorkerStats};
pub use profile::ProfileReport;
pub use prov::{ExplainLimits, ProofNode};
pub use resident::{
    PersistOptions, RecoveryReport, ResidentEngine, RetractReport, ServerStats, UpdateReport,
};
pub use telemetry::{
    profile_json, rfc3339, rfc3339_now, Histogram, HistogramSnapshot, LogLevel, Logger,
    MetricsRegistry, ServeMetrics, Telemetry, Tracer,
};
pub use value::Value;
pub use wal::Durability;
