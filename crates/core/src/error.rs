//! Runtime errors.

use std::fmt;

/// An evaluation-time failure (division by zero, malformed input data,
/// functor domain errors, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// Human-readable description.
    pub msg: String,
}

impl EvalError {
    /// Creates an error.
    pub fn new(msg: impl Into<String>) -> Self {
        EvalError { msg: msg.into() }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {}", self.msg)
    }
}

impl std::error::Error for EvalError {}

/// A durability-layer failure (WAL append/fsync, snapshot write, data-dir
/// recovery). Carries a rendered message instead of the underlying
/// [`std::io::Error`] so [`EngineError`] stays `Clone + PartialEq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageError {
    /// Human-readable description, including the failed operation.
    pub msg: String,
}

impl StorageError {
    /// Creates an error.
    pub fn new(msg: impl Into<String>) -> Self {
        StorageError { msg: msg.into() }
    }

    /// Wraps an I/O error with the operation that failed.
    pub fn io(op: &str, e: &std::io::Error) -> Self {
        StorageError {
            msg: format!("{op}: {e}"),
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "storage error: {}", self.msg)
    }
}

impl std::error::Error for StorageError {}

/// Any failure across the whole pipeline (parse → translate → evaluate →
/// persist).
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The frontend rejected the program.
    Frontend(stir_frontend::FrontendError),
    /// RAM translation failed.
    Translate(stir_ram::translate::TranslateError),
    /// Evaluation failed.
    Eval(EvalError),
    /// The durability layer failed (the batch is *not* acknowledged).
    Storage(StorageError),
    /// Storage is degraded or failed: the write was refused unlogged.
    /// Displays as the protocol reply `degraded retry-after N`.
    Degraded {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Frontend(e) => e.fmt(f),
            EngineError::Translate(e) => e.fmt(f),
            EngineError::Eval(e) => e.fmt(f),
            EngineError::Storage(e) => e.fmt(f),
            EngineError::Degraded { retry_after_ms } => {
                write!(f, "degraded retry-after {retry_after_ms}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<stir_frontend::FrontendError> for EngineError {
    fn from(e: stir_frontend::FrontendError) -> Self {
        EngineError::Frontend(e)
    }
}

impl From<stir_ram::translate::TranslateError> for EngineError {
    fn from(e: stir_ram::translate::TranslateError) -> Self {
        EngineError::Translate(e)
    }
}

impl From<EvalError> for EngineError {
    fn from(e: EvalError) -> Self {
        EngineError::Eval(e)
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = EvalError::new("division by zero");
        assert_eq!(e.to_string(), "evaluation error: division by zero");
        let ee: EngineError = e.into();
        assert!(ee.to_string().contains("division"));
    }
}
