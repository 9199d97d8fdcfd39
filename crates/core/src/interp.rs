//! The Soufflé-style Tree Interpreter (STI): recursive execution of the
//! interpreter tree.
//!
//! Dispatch is a `match` on the [`INode`] variant — the Rust rendering of
//! the paper's `switch (node->type)` (Fig. 5). Each relational operation
//! has one node and one handler: [`INode::Scan`] (full or range) and
//! `Aggregate` read tuples through one source, `Interpreter::for_each`,
//! and [`INode::Exists`] probes. A node's `static_dispatch` field picks,
//! once per execution, between downcasting the index to its concrete
//! `(representation, arity)` type and running a fully monomorphized loop
//! (§4.1) or iterating through the virtual adapter; the
//! `with_static_set!` / `with_static_adapter!` macros below play the role
//! of the paper's `FOR_EACH` C-macro family (Figs. 8–11), stamping out
//! one `match` arm per pre-instantiated index type.
//!
//! The `OUT` const-generic parameter realizes the §4.3 ablation: with
//! `OUT = true`, heavy instruction handlers are forced out of line behind
//! the `#[inline(never)]` `outline` trampoline, keeping the recursive
//! dispatcher's stack frame minimal; with `OUT = false` they are inlined
//! into the dispatcher, inflating its prologue the way the paper
//! describes.

use crate::config::InterpreterConfig;
use crate::database::Database;
use crate::error::EvalError;
use crate::functors::{eval_arith, eval_cmp, eval_intrinsic};
use crate::itree::{Bounds, CopySpec, FusedInstr, FusedOp, INode, ITree, Slot};
use crate::morsel::{MorselQueue, ParallelReport, WorkerStats};
use crate::profile::{ProfileReport, ProfileState};
use crate::sink::InsertSink;
use crate::static_set::{StaticAdapter, StaticSet};
use crate::telemetry::{LogLevel, Telemetry};
use std::cell::{Cell, RefCell};
use std::sync::RwLockReadGuard;
use std::time::Instant;
use stir_der::adapter::EqRelIndex;
use stir_der::iter::{BufferedTupleIter, TupleIter};
use stir_der::relation::Relation;
use stir_der::tuple::MAX_ARITY;
use stir_ram::program::{RamProgram, RelId, ReprKind};
use stir_ram::stmt::AggFunc;

/// Control flow of statement evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// Continue normally.
    Ok,
    /// An `Exit` fired; unwind to the innermost loop.
    Exit,
}

/// Forces its argument out of line (the §4.3 trampoline).
#[inline(never)]
fn outline<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// Runs `$body` in the `match` arm of the pre-instantiated index type for
/// `($repr, $arity)`, with `Idx` naming that adapter type and `N` its
/// arity: one arm per representation and arity, stamped from the arity
/// list below.
macro_rules! with_index_type {
    ($repr:expr, $arity:expr, $body:expr) => {
        with_index_type!(@arms $repr, $arity, $body, 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
    };
    (@arms $repr:expr, $arity:expr, $body:expr, $($n:literal)*) => {
        match ($repr, $arity) {
            $((ReprKind::BTree, $n) => {
                type Idx = stir_der::adapter::BTreeIndex<$n>;
                const N: usize = $n;
                $body
            })*
            $((ReprKind::Brie, $n) => {
                type Idx = stir_der::adapter::BrieIndex<$n>;
                const N: usize = $n;
                $body
            })*
            (repr, arity) => unreachable!("no pre-instantiated index for {repr:?}/{arity}"),
        }
    };
}

/// Evaluates `$body` with `$set` bound to the monomorphized set behind
/// an index adapter (and `N` to its arity), in the match arm of its
/// pre-instantiated type.
macro_rules! with_static_set {
    ($repr:expr, $arity:expr, $idx:expr, |$set:ident| $body:expr) => {
        with_index_type!($repr, $arity, {
            let $set = $idx
                .as_any()
                .downcast_ref::<Idx>()
                .expect("index matches its spec")
                .raw();
            $body
        })
    };
}

/// Dispatches a mutating insert to the monomorphized adapter.
macro_rules! with_static_adapter {
    ($repr:expr, $arity:expr, $idx:expr, $tuple:expr) => {
        with_index_type!(
            $repr,
            $arity,
            insert_one::<N, _>(
                $idx.as_any_mut()
                    .downcast_mut::<Idx>()
                    .expect("index matches its spec"),
                $tuple,
            )
        )
    };
}

/// Evaluates a fused arithmetic guard in one pass over its flat program:
/// no recursion, no dispatch per node, every operand one arena read. A
/// failing test ends the pass, so nothing after it is evaluated and only
/// what the tree walk would have reached can raise.
#[inline]
fn eval_fused(prog: &[FusedInstr], regs: &mut [u32]) -> Result<bool, EvalError> {
    for ins in prog {
        let (a, b) = (regs[ins.a], regs[ins.b]);
        match ins.op {
            FusedOp::Test(kind) => {
                if !eval_cmp(kind, a, b) {
                    return Ok(false);
                }
            }
            FusedOp::Set(op, dst) => regs[dst] = eval_arith(op, a, b)?,
        }
    }
    Ok(true)
}

/// Monomorphized single-index insert (the paper's `evalInsert<RelType>`,
/// Fig. 11c): the tuple is encoded and inserted with no virtual calls.
#[inline(always)]
fn insert_one<const N: usize, A: StaticAdapter<N>>(adapter: &mut A, tuple: &[u32]) -> bool {
    let enc = adapter.encode_tuple(tuple);
    adapter.insert_encoded(enc)
}

/// The immutable shared view of an evaluation: the program and
/// interpreter tree are plain data, the database is `Sync`, and the
/// configuration is `Copy` — so the view itself is `Copy` and crosses
/// thread boundaries freely.
#[derive(Debug, Clone, Copy)]
struct EvalCx<'p, 'd> {
    ram: &'p RamProgram,
    db: &'d Database,
    config: InterpreterConfig,
}

/// A relation as an evaluation frame reaches it. The coordinator locks
/// per access, because it interleaves reads with its own inserts; a
/// worker borrows from the view the coordinator froze for the fan-out
/// and synchronises on nothing.
enum RelRef<'a> {
    Locked(RwLockReadGuard<'a, Relation>),
    Frozen(&'a Relation),
}

impl std::ops::Deref for RelRef<'_> {
    type Target = Relation;

    #[inline(always)]
    fn deref(&self) -> &Relation {
        match self {
            RelRef::Locked(guard) => guard,
            RelRef::Frozen(rel) => rel,
        }
    }
}

/// What makes a frame a worker of a fan-out: the frozen database it
/// reads and the sink its projections go to (see [`InsertSink`]).
#[derive(Debug)]
struct WorkerFrame<'d> {
    /// Every relation of the database by id, borrowed from read guards
    /// the coordinator holds from the fork to the join. Nothing is
    /// written in between, so plain borrows replace per-probe locking.
    view: &'d [&'d Relation],
    sink: RefCell<InsertSink>,
}

/// The tree interpreter: the shared evaluation view plus one frame of
/// mutable per-thread state (profiling counters, the fan-out gate or the
/// worker's view and sink). The coordinator's instance drives
/// statements; a fan-out spawns worker instances over the same
/// [`EvalCx`].
#[derive(Debug)]
pub struct Interpreter<'p, 'd> {
    cx: EvalCx<'p, 'd>,
    prof: Option<ProfileState>,
    tel: Option<&'d Telemetry>,
    /// `Some` on worker instances.
    worker: Option<WorkerFrame<'d>>,
    /// Open from the start of a query until its first marked scan has
    /// decided whether the rule fans out: once per rule evaluation. Never
    /// opens at `jobs == 1` nor on a worker (statements run on the
    /// coordinator only).
    gate: Cell<bool>,
    /// Coordinator-side accumulator of fan-out scheduling statistics
    /// (morsels claimed, stolen, per-worker tuples). Worker frames never
    /// touch it — they cannot fan out.
    par: RefCell<ParallelReport>,
}

impl<'p, 'd> Interpreter<'p, 'd> {
    /// Creates an interpreter over a database.
    pub fn new(ram: &'p RamProgram, db: &'d Database, config: InterpreterConfig) -> Self {
        Interpreter {
            cx: EvalCx { ram, db, config },
            prof: None,
            tel: None,
            worker: None,
            gate: Cell::new(false),
            par: RefCell::new(ParallelReport::default()),
        }
    }

    /// Creates a worker frame over the shared view and a frozen
    /// database: a private profile state (so the `Cell`-based counters
    /// never cross threads) and a fresh insert sink. Workers only
    /// evaluate operations — statements, spans, and frontier samples
    /// stay on the coordinator — so no telemetry is attached.
    fn worker(cx: EvalCx<'p, 'd>, view: &'d [&'d Relation], with_prof: bool) -> Self {
        Interpreter {
            prof: with_prof.then(|| ProfileState::new(&[], cx.ram.relations.len())),
            worker: Some(WorkerFrame {
                view,
                sink: RefCell::new(InsertSink::new_with(cx.ram, cx.db.provenance())),
            }),
            ..Interpreter::new(cx.ram, cx.db, cx.config)
        }
    }

    /// Read access to relation `id`: through the frozen view on a worker
    /// frame, through the relation's lock on the coordinator.
    #[inline(always)]
    fn rel(&self, id: RelId) -> RelRef<'d> {
        match &self.worker {
            Some(w) => RelRef::Frozen(w.view[id.0]),
            None => RelRef::Locked(self.cx.db.rd(id)),
        }
    }

    /// Attaches a telemetry bundle: the tracer receives per-statement
    /// spans (when [`InterpreterConfig::trace`] is on), the logger the
    /// per-iteration heartbeats. Counters derived from the profiling
    /// state are published by the engine after the run.
    pub fn attach_telemetry(&mut self, tel: &'d Telemetry) {
        self.tel = Some(tel);
    }

    /// Executes a built interpreter tree to completion.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (division by zero, ...).
    pub fn run(&mut self, tree: &ITree) -> Result<(), EvalError> {
        if self.cx.config.profile {
            self.prof = Some(ProfileState::new(&tree.labels, self.cx.ram.relations.len()));
        }
        // `PROF = true` selects the instrumented instantiation; tracing
        // rides on it so the common pair stays completely counter-free.
        let prof = self.cx.config.profile || self.cx.config.trace;
        let flow = match (self.cx.config.outlined_handlers, prof) {
            (false, false) => self.eval_stmt::<false, false>(&tree.root)?,
            (false, true) => self.eval_stmt::<false, true>(&tree.root)?,
            (true, false) => self.eval_stmt::<true, false>(&tree.root)?,
            (true, true) => self.eval_stmt::<true, true>(&tree.root)?,
        };
        debug_assert_eq!(flow, Flow::Ok, "Exit escaped all loops");
        Ok(())
    }

    /// The profiling report of the last run, if profiling was enabled.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        self.prof.as_ref().map(ProfileState::report)
    }

    /// Parallel-execution statistics accumulated across every scan that
    /// was marked parallel and eligible to fan out: `None` when no such
    /// scan ran (sequential configuration, or nothing marked).
    pub fn parallel_report(&self) -> Option<ParallelReport> {
        let par = self.par.borrow();
        (par.scans > 0 || par.small_scans > 0).then(|| par.clone())
    }

    #[inline]
    fn tick<const PROF: bool>(&self) {
        if PROF {
            if let Some(p) = &self.prof {
                p.count_dispatch();
            }
        }
    }

    #[inline]
    fn tick_iter<const PROF: bool>(&self) {
        if PROF {
            if let Some(p) = &self.prof {
                p.count_iterations(1);
            }
        }
    }

    /// Runs `f` against the profiling state on the instrumented
    /// instantiation; compiles to nothing on the plain one.
    #[inline]
    fn tick_prof<const PROF: bool>(&self, f: impl FnOnce(&ProfileState)) {
        if PROF {
            if let Some(p) = &self.prof {
                f(p);
            }
        }
    }

    // ---- statements ---------------------------------------------------

    fn eval_stmt<const OUT: bool, const PROF: bool>(
        &self,
        node: &INode,
    ) -> Result<Flow, EvalError> {
        self.tick::<PROF>();
        if PROF && self.cx.config.trace {
            if let Some(tel) = self.tel {
                if tel.tracer.enabled() {
                    if let Some(name) = Self::span_name(self.cx.ram, node) {
                        let _guard = tel.tracer.span(&name);
                        return self.eval_stmt_inner::<OUT, PROF>(node);
                    }
                }
            }
        }
        self.eval_stmt_inner::<OUT, PROF>(node)
    }

    /// The span name of a statement node, or `None` for transparent
    /// sequencing nodes that would only add noise to the folded stacks.
    fn span_name(ram: &RamProgram, node: &INode) -> Option<String> {
        match node {
            INode::Loop { id, .. } => Some(format!("loop#{id}")),
            INode::Query { label, .. } => Some(format!("query:{label}")),
            INode::Clear(rel) => Some(format!("clear:{}", ram.name_of(*rel))),
            INode::Merge { into, from } => Some(format!(
                "merge:{}->{}",
                ram.name_of(*from),
                ram.name_of(*into)
            )),
            INode::Swap(a, b) => Some(format!("swap:{},{}", ram.name_of(*a), ram.name_of(*b))),
            _ => None,
        }
    }

    /// Records the semi-naive frontier — the sizes of every `delta_R`
    /// relation — after a completed fixpoint iteration, and emits the
    /// per-iteration heartbeat. Only reachable on the instrumented
    /// instantiation.
    #[cold]
    fn sample_frontier(&self, loop_id: usize, iteration: u64) {
        let deltas: Vec<(usize, u64)> = self
            .cx
            .ram
            .deltas()
            .map(|r| (r.id.0, self.cx.db.rd(r.id).len() as u64))
            .collect();
        if let Some(tel) = self.tel {
            if tel.logger.enabled(LogLevel::Info) {
                let parts: Vec<String> = deltas
                    .iter()
                    .map(|&(rel, n)| format!("{}={n}", self.cx.ram.relations[rel].name))
                    .collect();
                tel.logger.log(
                    LogLevel::Info,
                    &format!(
                        "loop#{loop_id} iteration {iteration}: frontier {}",
                        parts.join(" ")
                    ),
                );
            }
        }
        if let Some(p) = &self.prof {
            p.record_frontier(loop_id, iteration, deltas);
        }
    }

    fn eval_stmt_inner<const OUT: bool, const PROF: bool>(
        &self,
        node: &INode,
    ) -> Result<Flow, EvalError> {
        match node {
            INode::Seq(stmts) => {
                for s in stmts {
                    if self.eval_stmt::<OUT, PROF>(s)? == Flow::Exit {
                        return Ok(Flow::Exit);
                    }
                }
                Ok(Flow::Ok)
            }
            INode::Loop { id, body } => {
                let mut iteration: u64 = 0;
                loop {
                    if self.eval_stmt::<OUT, PROF>(body)? == Flow::Exit {
                        break;
                    }
                    if PROF {
                        self.sample_frontier(*id, iteration);
                    }
                    iteration += 1;
                }
                Ok(Flow::Ok)
            }
            INode::Exit(cond) => {
                if self.eval_cond::<OUT, PROF>(cond, &mut [])? {
                    Ok(Flow::Exit)
                } else {
                    Ok(Flow::Ok)
                }
            }
            INode::Query {
                label,
                arena_size,
                consts,
                body,
                ..
            } => {
                if self.cx.db.provenance() {
                    // Annotated evaluation: each executed query opens a
                    // new derivation epoch, so everything it derives is
                    // strictly higher than all of its premises (a query
                    // never scans its own projection target). Statements
                    // run on the coordinator only, so the bump is
                    // job-count-invariant.
                    self.cx
                        .db
                        .epoch
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                self.gate.set(self.cx.config.jobs > 1);
                let mut regs = vec![0u32; *arena_size];
                regs[*arena_size - consts.len()..].copy_from_slice(consts);
                if let Some(p) = &self.prof {
                    let started = p.begin_query();
                    self.eval_op::<OUT, PROF>(body, &mut regs)?;
                    p.end_query(*label, started);
                } else {
                    self.eval_op::<OUT, PROF>(body, &mut regs)?;
                }
                Ok(Flow::Ok)
            }
            INode::Clear(rel) => {
                self.cx.db.wr(*rel).clear();
                Ok(Flow::Ok)
            }
            INode::Merge { into, from } => {
                let from = self.cx.db.rd(*from);
                self.cx.db.wr(*into).merge_from(&from);
                Ok(Flow::Ok)
            }
            INode::Swap(a, b) => {
                let mut ra = self.cx.db.wr(*a);
                let mut rb = self.cx.db.wr(*b);
                ra.swap_data(&mut rb);
                Ok(Flow::Ok)
            }
            other => unreachable!("not a statement node: {other:?}"),
        }
    }

    // ---- operations ---------------------------------------------------

    fn eval_op<const OUT: bool, const PROF: bool>(
        &self,
        node: &INode,
        regs: &mut [u32],
    ) -> Result<(), EvalError> {
        self.tick::<PROF>();
        match node {
            INode::Filter { cond, body } => {
                if self.eval_cond::<OUT, PROF>(cond, regs)? {
                    self.eval_op::<OUT, PROF>(body, regs)?;
                }
                Ok(())
            }
            INode::FilterFused { prog, body } => {
                self.tick_prof::<PROF>(ProfileState::count_super);
                if eval_fused(prog, regs)? {
                    self.eval_op::<OUT, PROF>(body, regs)?;
                }
                Ok(())
            }
            INode::Scan { rel, bounds, .. } => {
                self.tick_prof::<PROF>(|p| match bounds {
                    None => p.count_scan(rel.0),
                    Some(_) => p.count_range(rel.0),
                });
                if OUT {
                    outline(|| self.scan::<OUT, PROF>(node, regs))
                } else {
                    self.scan::<OUT, PROF>(node, regs)
                }
            }
            INode::ProjectSuper {
                rel,
                static_dispatch,
                rule,
                template,
                elems,
                generic,
            } => {
                self.tick_prof::<PROF>(ProfileState::count_super);
                let mut tuple = [0u32; MAX_ARITY];
                let n = template.len();
                tuple[..n].copy_from_slice(template);
                for &(c, ofs) in elems {
                    tuple[c] = regs[ofs];
                }
                for (c, e) in generic {
                    tuple[*c] = self.eval_expr::<OUT, PROF>(e, regs)?;
                }
                self.insert::<PROF>(*rel, *static_dispatch, &tuple[..n], *rule);
                Ok(())
            }
            INode::ProjectPlain {
                rel,
                static_dispatch,
                rule,
                values,
            } => {
                let mut tuple = [0u32; MAX_ARITY];
                for (c, v) in values.iter().enumerate() {
                    tuple[c] = self.eval_expr::<OUT, PROF>(v, regs)?;
                }
                self.insert::<PROF>(*rel, *static_dispatch, &tuple[..values.len()], *rule);
                Ok(())
            }
            INode::Aggregate { rel, .. } => {
                self.tick_prof::<PROF>(|p| p.count_range(rel.0));
                if OUT {
                    outline(|| self.aggregate::<OUT, PROF>(node, regs))
                } else {
                    self.aggregate::<OUT, PROF>(node, regs)
                }
            }
            other => unreachable!("not an operation node: {other:?}"),
        }
    }

    // ---- scan handlers --------------------------------------------------

    /// The one scan handler, for full (`bounds: None`) and range scans
    /// alike: evaluates the bounds, offers the rule to [`Self::fan_out`]
    /// while the gate is open, and otherwise runs the body once per tuple
    /// through [`Self::for_each`].
    #[inline(always)]
    fn scan<const OUT: bool, const PROF: bool>(
        &self,
        node: &INode,
        regs: &mut [u32],
    ) -> Result<(), EvalError> {
        let INode::Scan {
            rel,
            index,
            dst,
            copy,
            bounds,
            parallel,
            body,
            ..
        } = node
        else {
            unreachable!("not a scan node: {node:?}")
        };
        let mut lo = [0u32; MAX_ARITY];
        let mut hi = [u32::MAX; MAX_ARITY];
        if let Some(b) = bounds {
            self.fill_bounds::<OUT, PROF>(b, regs, &mut lo, &mut hi)?;
        }
        if *parallel && self.gate.get() {
            // Copies for the out-of-line call: were `lo`/`hi` themselves to
            // escape, every index scan would keep them in memory (+4 % on
            // the sequential join path).
            let (lo, hi) = (lo, hi);
            let range = bounds.as_ref().map(|b| (&lo[..b.arity], &hi[..b.arity]));
            if self.fan_out::<OUT, PROF>(*rel, *index, dst, copy, range, body, regs)? {
                return Ok(());
            }
        }
        let range = bounds.is_some().then_some((&lo, &hi));
        self.for_each::<OUT, PROF>(node, range, regs, |regs| {
            self.eval_op::<OUT, PROF>(body, regs)
        })
    }

    /// The tuple source of a scan or an aggregate (`node`): lands every
    /// tuple of its index — those inside `range`, or all of them when
    /// `None` — in its slot and calls `visit`. Full or range, static or
    /// dynamic, buffered or not, eqrel pairs or a set: each choice is
    /// taken here, once per execution, never per tuple. A full scan walks
    /// the whole index, with no upper bound to compare against.
    #[inline(always)]
    fn for_each<const OUT: bool, const PROF: bool>(
        &self,
        node: &INode,
        range: Option<(&[u32; MAX_ARITY], &[u32; MAX_ARITY])>,
        regs: &mut [u32],
        mut visit: impl FnMut(&mut [u32]) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        let (INode::Scan {
            rel,
            index,
            dst,
            copy,
            static_dispatch,
            buffered,
            ..
        }
        | INode::Aggregate {
            rel,
            index,
            dst,
            copy,
            static_dispatch,
            buffered,
            ..
        }) = node
        else {
            unreachable!("not a scan node: {node:?}")
        };
        let meta = &self.cx.ram.relations[rel.0];
        let r = self.rel(*rel);
        let idx = r.index(*index);
        if !*static_dispatch {
            let n = meta.arity;
            let mut it: Box<dyn TupleIter + '_> = match range {
                None => idx.scan(),
                Some((lo, hi)) => {
                    // Copies, so the virtual call does not pin the caller's
                    // arrays in memory (see `scan`).
                    let (lo, hi) = (*lo, *hi);
                    idx.range(&lo[..n], &hi[..n])
                }
            };
            if *buffered {
                it = Box::new(BufferedTupleIter::new(it));
            }
            let mut scratch = [0u32; MAX_ARITY];
            while let Some(t) = it.next_tuple() {
                scratch[..n].copy_from_slice(t);
                self.tick_iter::<PROF>();
                self.copy_out(dst, copy, &scratch[..n], regs);
                visit(regs)?;
            }
            return Ok(());
        }
        if meta.repr == ReprKind::EqRel {
            let eq = idx.as_any().downcast_ref::<EqRelIndex>();
            let eq = eq.expect("eqrel index").raw();
            let pairs = match range {
                None => eq.iter_pairs(),
                Some((lo, hi)) => eq.range_pairs([lo[0], lo[1]], [hi[0], hi[1]]),
            };
            return self.drive::<PROF, 2>(pairs.into_iter(), dst, copy, regs, visit);
        }
        with_static_set!(meta.repr, meta.arity, idx, |set| match range {
            None => self.drive::<PROF, N>(set.iter_tuples(), dst, copy, regs, visit),
            Some((lo, hi)) => {
                let lo: [u32; N] = lo[..N].try_into().expect("arity");
                let hi: [u32; N] = hi[..N].try_into().expect("arity");
                self.drive::<PROF, N>(set.range_tuples(&lo, &hi), dst, copy, regs, visit)
            }
        })
    }

    /// The per-tuple loop of every statically dispatched scan,
    /// monomorphized over the tuple iterator: land each tuple in `dst`,
    /// then `visit`.
    #[inline(always)]
    fn drive<const PROF: bool, const N: usize>(
        &self,
        tuples: impl Iterator<Item = [u32; N]>,
        dst: &Slot,
        copy: &CopySpec,
        regs: &mut [u32],
        mut visit: impl FnMut(&mut [u32]) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        match copy {
            CopySpec::Direct => {
                for t in tuples {
                    self.tick_iter::<PROF>();
                    regs[dst.ofs..dst.ofs + N].copy_from_slice(&t);
                    visit(regs)?;
                }
            }
            CopySpec::Permuted(ord) => {
                for t in tuples {
                    self.tick_iter::<PROF>();
                    for i in 0..N {
                        regs[dst.ofs + ord[i]] = t[i];
                    }
                    visit(regs)?;
                }
            }
        }
        Ok(())
    }

    #[inline(always)]
    fn copy_out(&self, dst: &Slot, copy: &CopySpec, t: &[u32], regs: &mut [u32]) {
        match copy {
            CopySpec::Direct => regs[dst.ofs..dst.ofs + t.len()].copy_from_slice(t),
            CopySpec::Permuted(ord) => {
                for (i, &c) in ord.iter().enumerate() {
                    regs[dst.ofs + c] = t[i];
                }
            }
        }
    }

    /// The fan-out decision of a rule evaluation, taken by the query's
    /// first marked scan (the gate is open) over the range `range` of
    /// `rel`'s index — the whole index when `None`. Returns `false` when
    /// the rule stays on the coordinator: the caller then runs the very
    /// loop `--jobs 1` runs, and so does every level below it, because
    /// the gate is closed either way. A range of at most one morsel is
    /// not worth a fan-out; the size test is bounded by the morsel size,
    /// not by the relation.
    ///
    /// Fanning out, the coordinator *freezes* the database: it takes a
    /// read guard on every relation and hands the workers plain borrows.
    /// Between the fork and the join nothing is written — every
    /// projection goes to a per-worker [`InsertSink`] — so a worker's
    /// scans and probes synchronise on nothing, like synthesized code.
    /// The index range is split into morsels (structural B-tree / brie
    /// chunks, or a size-bounded stream for representations that cannot
    /// chunk) that the configured number of workers drain from a
    /// work-stealing [`MorselQueue`]. Each worker owns a fresh frame — a
    /// cloned register arena, a private profile state, a sink — and
    /// pulls tuple *batches*: one virtual `fill` per batch, then the rule
    /// body unchanged, ticking the same per-tuple counters as the
    /// sequential path.
    ///
    /// The guards are dropped at the join, before the merge takes write
    /// locks. The coordinator then folds worker counters and scheduling
    /// stats into the main profile and merges the sinks into the real
    /// relations in worker-id order, counting fresh inserts exactly as
    /// sequential evaluation would. Semi-naive translation guarantees a
    /// query never reads the relation it projects into, so deferring
    /// inserts is invisible to the rule itself, and deduplicating at
    /// merge time makes results and profiles independent of the job
    /// count, the morsel size, and the steal schedule. If a worker fails
    /// it poisons the queue so the others stop early; the first error in
    /// worker-id order wins and no partial results are merged.
    #[allow(clippy::too_many_arguments)]
    #[cold]
    #[inline(never)]
    fn fan_out<const OUT: bool, const PROF: bool>(
        &self,
        rel: RelId,
        index: usize,
        dst: &Slot,
        copy: &CopySpec,
        range: Option<(&[u32], &[u32])>,
        body: &INode,
        regs: &[u32],
    ) -> Result<bool, EvalError> {
        debug_assert!(dst.arity > 0, "nullary atoms translate to filters");
        self.gate.set(false);
        let cx = self.cx;
        let with_prof = self.prof.is_some();
        let jobs = cx.config.jobs;
        let target = cx.config.morsel_size.max(1);
        let big = {
            let r = cx.db.rd(rel);
            let idx = r.index(index);
            idx.len() > target
                && range.is_none_or(|(lo, hi)| {
                    let mut it = idx.range(lo, hi);
                    let mut n = 0;
                    while n <= target && it.next_tuple().is_some() {
                        n += 1;
                    }
                    n > target
                })
        };
        if !big {
            self.par.borrow_mut().small_scans += 1;
            return Ok(false);
        }
        type Outcome = (
            Option<ProfileState>,
            InsertSink,
            WorkerStats,
            Option<EvalError>,
        );
        let outcomes: Vec<Outcome> = {
            let guards = cx.db.freeze();
            let view: Vec<&Relation> = guards.iter().map(|g| &**g).collect();
            let view = &view[..];
            let idx = view[rel.0].index(index);
            let morsels = match range {
                Some((lo, hi)) => idx.morsels_range(lo, hi, target),
                None => idx.morsels(target),
            };
            let queue = MorselQueue::new(morsels, jobs, target);
            let queue = &queue;
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..jobs)
                    .map(|w| {
                        s.spawn(move || {
                            let frame = Interpreter::worker(cx, view, with_prof);
                            let mut regs = regs.to_vec();
                            let mut handle = queue.worker(w);
                            let mut batch: Vec<u32> = Vec::new();
                            let mut err = None;
                            'outer: while handle.next_batch(&mut batch) > 0 {
                                for t in batch.chunks_exact(dst.arity) {
                                    frame.tick_iter::<PROF>();
                                    frame.copy_out(dst, copy, t, &mut regs);
                                    if let Err(e) = frame.eval_op::<OUT, PROF>(body, &mut regs) {
                                        queue.poison();
                                        err = Some(e);
                                        break 'outer;
                                    }
                                }
                            }
                            let stats = handle.stats();
                            let sink = frame.worker.expect("a worker frame").sink.into_inner();
                            (frame.prof, sink, stats, err)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            })
        };
        let mut sinks = Vec::with_capacity(outcomes.len());
        let mut first_err = None;
        {
            let mut par = self.par.borrow_mut();
            par.scans += 1;
            if par.workers.len() < jobs {
                par.workers.resize(jobs, WorkerStats::default());
            }
            for (w, (wprof, sink, mut stats, err)) in outcomes.into_iter().enumerate() {
                if let Some(wp) = &wprof {
                    // Whole-frame iterations (outer tuples plus inner
                    // joins/probes): the balance metric.
                    stats.work = wp.iterations.get();
                    if let Some(p) = &self.prof {
                        p.absorb(wp);
                    }
                }
                par.workers[w].absorb(&stats);
                if first_err.is_none() {
                    first_err = err;
                }
                sinks.push(sink);
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        // The serial fraction, clocked only for an observer: a profile or
        // trace run, or live metrics. The dark path reads no clock.
        let observed = PROF || self.tel.is_some_and(|t| t.metrics.enabled());
        let merge_started = observed.then(Instant::now);
        let prov = cx.db.provenance();
        let height = if prov {
            cx.db.epoch.load(std::sync::atomic::Ordering::Relaxed)
        } else {
            0
        };
        for sink in sinks {
            for (target, buffer) in sink.into_buffers() {
                let arity = cx.ram.relations[target.0].arity;
                let mut t = cx.db.wr(target);
                for tuple in buffer.tuples() {
                    if prov {
                        // Annotated sinks widen tuples by a trailing
                        // rule-id column; only the first worker to land a
                        // tuple annotates it, so heights stay minimal and
                        // independent of the job count.
                        let (bare, rule) = tuple.split_at(arity);
                        if t.insert(bare) {
                            t.record_annotation(bare, height, rule[0]);
                            self.tick_prof::<PROF>(|p| p.count_insert(target.0));
                        }
                    } else if t.insert(tuple) {
                        self.tick_prof::<PROF>(|p| p.count_insert(target.0));
                    }
                }
            }
        }
        if let Some(started) = merge_started {
            self.par.borrow_mut().merge_us += started.elapsed().as_micros() as u64;
        }
        Ok(true)
    }

    /// Folds the aggregate's range through [`Self::for_each`], then runs
    /// the body once with the result bound.
    #[inline(always)]
    fn aggregate<const OUT: bool, const PROF: bool>(
        &self,
        node: &INode,
        regs: &mut [u32],
    ) -> Result<(), EvalError> {
        let INode::Aggregate {
            rel,
            func,
            dst,
            bounds,
            value,
            body,
            ..
        } = node
        else {
            unreachable!("not an aggregate node: {node:?}")
        };
        let mut lo = [0u32; MAX_ARITY];
        let mut hi = [u32::MAX; MAX_ARITY];
        self.fill_bounds::<OUT, PROF>(bounds, regs, &mut lo, &mut hi)?;
        let mut acc = AggAcc::new(*func);
        if self.cx.ram.relations[rel.0].arity == 0 {
            // Aggregating a nullary relation: one empty match if present.
            if !self.rel(*rel).is_empty() {
                acc.add(0);
            }
        } else {
            self.for_each::<OUT, PROF>(node, Some((&lo, &hi)), regs, |regs| {
                acc.add(match value {
                    Some(e) => self.eval_expr::<OUT, PROF>(e, regs)?,
                    None => 0,
                });
                Ok(())
            })?;
        }
        match acc.finish() {
            Some(result) => {
                regs[dst.ofs] = result;
                self.eval_op::<OUT, PROF>(body, regs)
            }
            // min/max over an empty match set: the aggregate fails and the
            // body never runs (Soufflé semantics).
            None => Ok(()),
        }
    }

    /// Inserts one source-order tuple into all indexes of a relation —
    /// or, on a worker frame, buffers it in the insert sink for the
    /// coordinator to merge after the join.
    fn insert<const PROF: bool>(
        &self,
        rel: RelId,
        static_dispatch: bool,
        tuple: &[u32],
        rule: u32,
    ) {
        if let Some(w) = &self.worker {
            let mut sink = w.sink.borrow_mut();
            if sink.prov() {
                sink.push_annotated(rel, tuple, rule);
            } else {
                sink.push(rel, tuple);
            }
            return;
        }
        let meta = &self.cx.ram.relations[rel.0];
        let mut r = self.cx.db.wr(rel);
        let inserted = if !static_dispatch || meta.arity == 0 || meta.repr == ReprKind::EqRel {
            r.insert(tuple)
        } else {
            let mut fresh = true;
            for k in 0..r.index_count() {
                let ins = with_static_adapter!(meta.repr, meta.arity, r.index_mut(k), tuple);
                if k == 0 && !ins {
                    fresh = false;
                    break;
                }
            }
            fresh
        };
        if inserted {
            if self.cx.db.provenance() {
                let height = self.cx.db.epoch.load(std::sync::atomic::Ordering::Relaxed);
                r.record_annotation(tuple, height, rule);
            }
            self.tick_prof::<PROF>(|p| p.count_insert(rel.0));
        }
    }

    // ---- conditions ---------------------------------------------------

    fn eval_cond<const OUT: bool, const PROF: bool>(
        &self,
        node: &INode,
        regs: &mut [u32],
    ) -> Result<bool, EvalError> {
        self.tick::<PROF>();
        match node {
            INode::True => Ok(true),
            INode::Conj(cs) => {
                for c in cs {
                    if !self.eval_cond::<OUT, PROF>(c, regs)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            INode::Not(inner) => Ok(!self.eval_cond::<OUT, PROF>(inner, regs)?),
            INode::Cmp { kind, lhs, rhs } => {
                let a = self.eval_expr::<OUT, PROF>(lhs, regs)?;
                let b = self.eval_expr::<OUT, PROF>(rhs, regs)?;
                Ok(eval_cmp(*kind, a, b))
            }
            INode::Fused(prog) => {
                self.tick_prof::<PROF>(ProfileState::count_super);
                eval_fused(prog, regs)
            }
            INode::Empty(rel) => Ok(self.rel(*rel).is_empty()),
            INode::Exists {
                rel,
                index,
                bounds,
                static_dispatch,
            } => {
                self.tick_prof::<PROF>(|p| p.count_exists(rel.0));
                let mut lo = [0u32; MAX_ARITY];
                let mut hi = [u32::MAX; MAX_ARITY];
                self.fill_bounds::<OUT, PROF>(bounds, regs, &mut lo, &mut hi)?;
                let meta = &self.cx.ram.relations[rel.0];
                let r = self.rel(*rel);
                if meta.arity == 0 {
                    return Ok(!r.is_empty());
                }
                let idx = r.index(*index);
                if !*static_dispatch {
                    let (lo, hi, n) = (lo, hi, bounds.arity); // copies, see `for_each`
                    return Ok(if bounds.full {
                        idx.contains_stored(&lo[..n])
                    } else {
                        idx.range(&lo[..n], &hi[..n]).next_tuple().is_some()
                    });
                }
                if meta.repr == ReprKind::EqRel {
                    let eq = idx.as_any().downcast_ref::<EqRelIndex>();
                    let eq = eq.expect("eqrel index").raw();
                    return Ok(if bounds.full {
                        eq.contains(lo[0], lo[1])
                    } else {
                        !eq.range_pairs([lo[0], lo[1]], [hi[0], hi[1]]).is_empty()
                    });
                }
                Ok(with_static_set!(meta.repr, meta.arity, idx, |set| {
                    let lo: [u32; N] = lo[..N].try_into().expect("arity");
                    let hi: [u32; N] = hi[..N].try_into().expect("arity");
                    if bounds.full {
                        set.contains_tuple(&lo)
                    } else {
                        set.range_nonempty(&lo, &hi)
                    }
                }))
            }
            other => unreachable!("not a condition node: {other:?}"),
        }
    }

    #[inline]
    fn fill_bounds<const OUT: bool, const PROF: bool>(
        &self,
        b: &Bounds,
        regs: &[u32],
        lo: &mut [u32; MAX_ARITY],
        hi: &mut [u32; MAX_ARITY],
    ) -> Result<(), EvalError> {
        lo[..b.arity].copy_from_slice(&b.lo);
        hi[..b.arity].copy_from_slice(&b.hi);
        for &(pos, ofs) in &b.elems {
            let v = regs[ofs];
            lo[pos] = v;
            hi[pos] = v;
        }
        for (pos, e) in &b.dynamic {
            let v = self.eval_expr::<OUT, PROF>(e, regs)?;
            lo[*pos] = v;
            hi[*pos] = v;
        }
        Ok(())
    }

    // ---- expressions ----------------------------------------------------

    fn eval_expr<const OUT: bool, const PROF: bool>(
        &self,
        node: &INode,
        regs: &[u32],
    ) -> Result<u32, EvalError> {
        self.tick::<PROF>();
        match node {
            INode::Constant(k) => Ok(*k),
            INode::TupleElement { ofs } => Ok(regs[*ofs]),
            INode::AutoInc => Ok(self
                .cx
                .db
                .counter
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)),
            INode::Intrinsic { op, args } => {
                let mut vals = [0u32; 3];
                for (i, a) in args.iter().enumerate() {
                    vals[i] = self.eval_expr::<OUT, PROF>(a, regs)?;
                }
                eval_intrinsic(*op, &vals[..args.len()], &self.cx.db.symbols)
            }
            other => unreachable!("not an expression node: {other:?}"),
        }
    }
}

/// Aggregate accumulator (shared with the provenance matcher).
#[derive(Debug)]
pub(crate) struct AggAcc {
    func: AggFunc,
    count: u64,
    bits: u32,
    seen: bool,
}

impl AggAcc {
    pub(crate) fn new(func: AggFunc) -> Self {
        let bits = match func {
            AggFunc::SumF => 0.0f32.to_bits(),
            _ => 0,
        };
        AggAcc {
            func,
            count: 0,
            bits,
            seen: false,
        }
    }

    #[inline]
    pub(crate) fn add(&mut self, v: u32) {
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::SumS => self.bits = (self.bits as i32).wrapping_add(v as i32) as u32,
            AggFunc::SumU => self.bits = self.bits.wrapping_add(v),
            AggFunc::SumF => self.bits = (f32::from_bits(self.bits) + f32::from_bits(v)).to_bits(),
            AggFunc::MinS => {
                if !self.seen || (v as i32) < (self.bits as i32) {
                    self.bits = v;
                }
            }
            AggFunc::MinU => {
                if !self.seen || v < self.bits {
                    self.bits = v;
                }
            }
            AggFunc::MinF => {
                if !self.seen || f32::from_bits(v) < f32::from_bits(self.bits) {
                    self.bits = v;
                }
            }
            AggFunc::MaxS => {
                if !self.seen || (v as i32) > (self.bits as i32) {
                    self.bits = v;
                }
            }
            AggFunc::MaxU => {
                if !self.seen || v > self.bits {
                    self.bits = v;
                }
            }
            AggFunc::MaxF => {
                if !self.seen || f32::from_bits(v) > f32::from_bits(self.bits) {
                    self.bits = v;
                }
            }
        }
        self.seen = true;
    }

    /// `None` means "aggregate failed" (min/max over nothing).
    pub(crate) fn finish(&self) -> Option<u32> {
        match self.func {
            AggFunc::Count => Some(self.count as u32),
            AggFunc::SumS | AggFunc::SumU | AggFunc::SumF => Some(self.bits),
            _ => self.seen.then_some(self.bits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::DataMode;
    use crate::itree;
    use stir_frontend::parse_and_check;
    use stir_ram::translate::translate;

    /// One evaluation of a chain-with-shortcuts transitive closure:
    /// `p`'s tuples with their `(height, rule)` annotations, and the
    /// fan-out report.
    #[allow(clippy::type_complexity)]
    fn closure(
        config: InterpreterConfig,
        prov: bool,
    ) -> (Vec<(Vec<u32>, Option<(u32, u32)>)>, Option<ParallelReport>) {
        let mut src = String::from(
            ".decl e(x: number, y: number)\n.decl p(x: number, y: number)\n\
             p(x, y) :- e(x, y).\np(x, z) :- p(x, y), e(y, z).\n",
        );
        for i in 0..24 {
            src.push_str(&format!("e({i}, {}).\n", i + 1));
            if i % 5 == 0 {
                src.push_str(&format!("e({i}, {}).\n", i + 3));
            }
        }
        let ram = translate(&parse_and_check(&src).expect("checks")).expect("translates");
        let db = Database::new_with(&ram, DataMode::of(&config), prov);
        let tree = itree::build(&ram, &config);
        let mut interp = Interpreter::new(&ram, &db, config);
        interp.run(&tree).expect("runs");
        let p = db.rd(ram.relation_by_name("p").expect("p").id);
        let rows = p.to_sorted_tuples();
        let rows = rows.into_iter().map(|t| {
            let note = p.annotation(&t);
            (t, note)
        });
        (rows.collect(), interp.parallel_report())
    }

    /// The recursive rule reads `delta_p` and `e`, probes `p`, and
    /// projects into `new_p` — and the frozen view holds a read guard on
    /// all four. The merge takes `wr(new_p)` on the same thread, so this
    /// test deadlocks unless the guards died at the join; with
    /// provenance on it also pins the merge's annotations (minimal
    /// heights, first rule to land a tuple) to the sequential ones.
    #[test]
    fn frozen_guards_are_released_before_the_merge_writes() {
        let config = InterpreterConfig::optimized();
        for prov in [false, true] {
            let (seq, none) = closure(config.with_jobs(1), prov);
            assert!(none.is_none(), "jobs=1 never reaches the gate");
            let (par, report) = closure(config.with_jobs(7).with_morsel_size(2), prov);
            let report = report.expect("the gate was taken");
            assert!(report.scans > 0, "prov {prov}: nothing fanned out");
            assert_eq!(
                report.merge_us, 0,
                "prov {prov}: the dark path read a clock"
            );
            assert_eq!(seq.len(), 24 * 25 / 2, "prov {prov}");
            assert_eq!(seq, par, "prov {prov}");
            assert_eq!(seq.iter().all(|(_, note)| note.is_some()), prov);
        }
    }
}
