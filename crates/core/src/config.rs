//! Interpreter configuration: the paper's optimizations as toggles.
//!
//! Every optimization of §4 can be switched independently so the ablation
//! experiments (Figs. 18, 19 and §5.5) can measure its contribution. The
//! default configuration enables everything — that is "the STI".

/// Configuration of the Soufflé-style tree interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterpreterConfig {
    /// §4.1 *static access & instruction generation*: relational
    /// instructions are specialized on `(representation, arity)` and run
    /// monomorphized loops over the concrete index types. When off, all
    /// index access goes through the virtual `IndexAdapter` interface with
    /// 128-tuple buffered iterators (the "dynamic adapter" baseline of
    /// Fig. 18).
    pub static_dispatch: bool,
    /// §4.4 *super-instructions*: `Constant` and `TupleElement` children
    /// of projections, index bounds, and existence checks are folded into
    /// precomputed fields of the parent instruction instead of being
    /// dispatched individually (Fig. 19 ablation).
    pub super_instructions: bool,
    /// §4.2 *static tuple reordering*: tuple-element accesses are
    /// rewritten at interpreter-tree generation time into the stored order
    /// of each scan's index, so scanned tuples are never decoded at
    /// runtime. When off, every tuple yielded by a permuted index is
    /// decoded back to source order before the loop body runs.
    pub static_reordering: bool,
    /// §4.3 analogue (*reducing register pressure*): heavy instruction
    /// handlers are outlined into `#[inline(never)]` functions so the hot
    /// recursive dispatcher keeps a minimal stack frame. (Rust offers no
    /// direct control over callee-saved register spilling; outlining is
    /// the closest equivalent, trading an extra call on heavy instructions
    /// for cheaper dispatch of light ones.)
    ///
    /// **Reproduction finding:** unlike the paper's GCC/C++ setting, this
    /// trade *loses* under Rust/LLVM (≈7–15% slower) — LLVM already
    /// shrink-wraps the dispatcher and the extra call blocks optimization
    /// — so the optimized preset leaves it **off**; the §5.5 ablation
    /// bench measures it explicitly.
    pub outlined_handlers: bool,
    /// Record per-rule timings, tuple counts, and dispatch counts
    /// (§5.2's profiler; small overhead when enabled).
    pub profile: bool,
    /// Emit per-statement spans into an attached
    /// [`crate::telemetry::Telemetry`] tracer (folded-stack output).
    /// Implies the profiling interpreter instantiation; without an
    /// attached telemetry bundle the flag is inert.
    pub trace: bool,
    /// Use the *legacy* data layer (§5.1 baseline): every index is a
    /// dynamically-typed B-tree whose lexicographic order is a runtime
    /// comparator array consulted on every comparison. Tuples are stored
    /// un-permuted, so reordering questions vanish — and so does every
    /// specialization benefit. Batch-only: the legacy layer is never
    /// disk-backed, and [`crate::ResidentEngine`] refuses it.
    pub legacy_data: bool,
    /// Amortize virtual iterator calls with the 128-tuple buffer (paper
    /// §3). Only affects the dynamic (non-static-dispatch) paths; the
    /// legacy interpreter predates the buffer and runs without it.
    pub buffered_iterators: bool,
    /// Worker threads for parallel fixpoint evaluation. Scans marked
    /// `parallel` by translation are split into morsels drained by this
    /// many workers from a shared work-stealing queue; `1` (the default)
    /// keeps evaluation on the calling thread, bit-for-bit identical to
    /// the sequential interpreter.
    pub jobs: usize,
    /// Target tuples per morsel for work-stealing parallel scans. A rule
    /// whose first scan ranges over no more than this runs sequentially
    /// (a single morsel is not worth a thread fan-out); a larger range is
    /// split into roughly `len / morsel_size` disjoint chunks that workers
    /// claim and steal until drained. Has no effect when `jobs == 1`.
    /// Results and profiles are invariant under this knob — only
    /// scheduling changes.
    pub morsel_size: usize,
    /// Storage backend for standard relations: `Mem` keeps every index
    /// fully in RAM (the classic configuration); `Disk` installs
    /// [`stir_der::disk::DiskIndex`] indexes — an immutable paged base
    /// run from the latest snapshot plus an in-memory delta overlay — so
    /// a database larger than RAM can be served within a bounded page
    /// cache and cold starts can map the snapshot instead of replaying a
    /// fixpoint. Auxiliary (delta/new) and equivalence relations always
    /// stay in memory. Results are bit-for-bit identical across backends.
    pub storage: StorageBackend,
    /// Annotated evaluation: every derived tuple additionally records a
    /// `(height, rule)` annotation pair — the fixpoint iteration that
    /// first produced it and the source rule that fired — enabling
    /// minimal-height proof-tree reconstruction (`.explain`). Annotations
    /// are carried as two extra de-specialized columns in a side index
    /// per relation and never affect the logical database. Off by
    /// default; when off, evaluation is bit-for-bit identical to an
    /// unannotated run.
    pub provenance: bool,
}

/// Where standard relations keep their tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageBackend {
    /// Fully in-memory indexes (B-tree / Brie / eqrel). The default.
    #[default]
    Mem,
    /// Disk-backed indexes: paged snapshot base runs + delta overlays.
    Disk,
}

impl StorageBackend {
    /// Parses a `--storage` / `$STIR_STORAGE` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "mem" => Some(StorageBackend::Mem),
            "disk" => Some(StorageBackend::Disk),
            _ => None,
        }
    }

    /// The flag spelling of this backend.
    pub fn as_str(&self) -> &'static str {
        match self {
            StorageBackend::Mem => "mem",
            StorageBackend::Disk => "disk",
        }
    }
}

impl std::fmt::Display for StorageBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The default storage backend: `STIR_STORAGE` when set to a valid value
/// (`mem`/`disk`), otherwise [`StorageBackend::Mem`]. The env knob is how
/// CI runs the whole workspace suite over the disk backend without
/// touching each test.
pub fn default_storage() -> StorageBackend {
    std::env::var("STIR_STORAGE")
        .ok()
        .and_then(|v| StorageBackend::parse(&v))
        .unwrap_or(StorageBackend::Mem)
}

/// The default worker count: `STIR_JOBS` when set to a positive integer,
/// otherwise `1` (sequential evaluation).
pub fn default_jobs() -> usize {
    std::env::var("STIR_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// The default morsel size: `STIR_MORSEL_SIZE` when set to a positive
/// integer, otherwise [`DEFAULT_MORSEL_SIZE`]. The env knob exists mainly
/// so tests and CI can shrink morsels far below real data sizes and force
/// the work-stealing machinery (including stolen morsels) onto small
/// inputs.
pub fn default_morsel_size() -> usize {
    std::env::var("STIR_MORSEL_SIZE")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(DEFAULT_MORSEL_SIZE)
}

/// Default target tuples per morsel. Small enough that any scan worth
/// parallelizing yields many more chunks than workers (the skew
/// insurance), large enough that per-morsel queue traffic is noise next
/// to evaluating the chunk.
pub const DEFAULT_MORSEL_SIZE: usize = 1024;

impl InterpreterConfig {
    /// The full STI: all optimizations on.
    pub fn optimized() -> Self {
        InterpreterConfig {
            static_dispatch: true,
            super_instructions: true,
            static_reordering: true,
            outlined_handlers: false,
            profile: false,
            trace: false,
            legacy_data: false,
            buffered_iterators: true,
            jobs: default_jobs(),
            morsel_size: default_morsel_size(),
            storage: default_storage(),
            provenance: false,
        }
    }

    /// The Fig. 18 baseline: dynamic adapters with buffered iterators,
    /// all other optimizations unchanged.
    pub fn dynamic_adapter() -> Self {
        InterpreterConfig {
            static_dispatch: false,
            ..Self::optimized()
        }
    }

    /// Everything off: a plain tree interpreter over de-specialized
    /// structures.
    pub fn unoptimized() -> Self {
        InterpreterConfig {
            static_dispatch: false,
            super_instructions: false,
            static_reordering: false,
            outlined_handlers: false,
            profile: false,
            trace: false,
            legacy_data: false,
            buffered_iterators: true,
            jobs: default_jobs(),
            morsel_size: default_morsel_size(),
            storage: default_storage(),
            provenance: false,
        }
    }

    /// The legacy interpreter (§5.1): runtime-comparator indexes, no
    /// specialization, no buffering, no interpreter optimizations. A
    /// batch baseline: its relations stay in memory whatever
    /// `$STIR_STORAGE` says, and a resident engine refuses it.
    pub fn legacy() -> Self {
        InterpreterConfig {
            static_dispatch: false,
            super_instructions: false,
            static_reordering: false,
            outlined_handlers: false,
            profile: false,
            trace: false,
            legacy_data: true,
            buffered_iterators: false,
            jobs: default_jobs(),
            morsel_size: default_morsel_size(),
            storage: StorageBackend::Mem,
            provenance: false,
        }
    }

    /// Enables profiling on any configuration.
    pub fn with_profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Enables statement tracing (and thereby the profiling
    /// instantiation) on any configuration.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Sets the worker count for parallel fixpoint evaluation. Values
    /// below `1` are clamped to `1`.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Sets the morsel target size for work-stealing parallel scans.
    /// Values below `1` are clamped to `1`.
    pub fn with_morsel_size(mut self, target: usize) -> Self {
        self.morsel_size = target.max(1);
        self
    }

    /// Enables annotated evaluation (provenance recording) on any
    /// configuration.
    pub fn with_provenance(mut self) -> Self {
        self.provenance = true;
        self
    }

    /// Selects the storage backend for standard relations.
    pub fn with_storage(mut self, storage: StorageBackend) -> Self {
        self.storage = storage;
        self
    }
}

impl Default for InterpreterConfig {
    fn default() -> Self {
        Self::optimized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_expected() {
        let full = InterpreterConfig::optimized();
        assert!(full.static_dispatch && full.super_instructions);
        let dynamic = InterpreterConfig::dynamic_adapter();
        assert!(!dynamic.static_dispatch);
        assert!(dynamic.super_instructions);
        let none = InterpreterConfig::unoptimized();
        assert!(!none.static_dispatch && !none.super_instructions);
        assert!(InterpreterConfig::default().static_dispatch);
        assert!(none.with_profile().profile);
        assert!(!full.provenance && !none.provenance);
        assert!(none.with_provenance().provenance);
        assert!(!none.trace);
        assert!(none.with_trace().trace);
        assert_eq!(InterpreterConfig::legacy().storage, StorageBackend::Mem);
    }

    #[test]
    fn storage_backend_parses_and_round_trips() {
        assert_eq!(StorageBackend::parse("mem"), Some(StorageBackend::Mem));
        assert_eq!(StorageBackend::parse("disk"), Some(StorageBackend::Disk));
        assert_eq!(StorageBackend::parse("tape"), None);
        assert_eq!(StorageBackend::Disk.as_str(), "disk");
        assert_eq!(StorageBackend::default(), StorageBackend::Mem);
        let cfg = InterpreterConfig::optimized().with_storage(StorageBackend::Disk);
        assert_eq!(cfg.storage, StorageBackend::Disk);
    }

    #[test]
    fn jobs_clamp_to_at_least_one() {
        assert_eq!(InterpreterConfig::optimized().with_jobs(4).jobs, 4);
        assert_eq!(InterpreterConfig::optimized().with_jobs(0).jobs, 1);
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn morsel_size_clamps_to_at_least_one() {
        assert_eq!(
            InterpreterConfig::optimized()
                .with_morsel_size(64)
                .morsel_size,
            64
        );
        assert_eq!(
            InterpreterConfig::optimized()
                .with_morsel_size(0)
                .morsel_size,
            1
        );
        assert!(default_morsel_size() >= 1);
        assert_eq!(
            InterpreterConfig::dynamic_adapter().morsel_size,
            InterpreterConfig::optimized().morsel_size
        );
    }
}
