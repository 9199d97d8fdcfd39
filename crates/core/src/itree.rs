//! The Interpreter Tree: RAM amended with runtime-specific precomputation.
//!
//! `build` turns a RAM program into lightweight interpreter nodes
//! ([`INode`], paper §3/Fig. 4). Each node carries exactly what execution
//! needs — arena offsets instead of `(level, column)` pairs, prefilled
//! bound templates, pre-split super-instruction fields. The tree owns all
//! of it and borrows nothing from the RAM program; the one piece of
//! static information execution reports, each query's rule text, travels
//! in the tree's label table. A relational operation is one node whatever
//! its storage: [`INode::Scan`] covers full scans (`bounds: None`) and
//! range scans, [`INode::Exists`] every probe, and like `Aggregate` and
//! the `Project*` inserts each carries its dispatch choice as a field.
//! All four optimizations of §4 are applied here, steered by
//! [`InterpreterConfig`]:
//!
//! * **static dispatch** sets `static_dispatch`, so the handler downcasts
//!   to the monomorphized index type (§4.1), disk-backed or not;
//! * **static reordering** rewrites tuple-element accesses into each
//!   scan's stored order so tuples are never decoded at runtime (§4.2);
//! * **super-instructions** fold `Constant`/`TupleElement` children into
//!   the parent's precomputed fields (§4.4), and every run of
//!   pure-arithmetic comparisons in a filter into one flat [`FusedInstr`]
//!   program — the automatic form of §5.2's hand-written filters;
//! * the **outlining** ablation (§4.3 analogue) is an execution-time
//!   choice and does not affect tree shape.

use crate::config::InterpreterConfig;
use stir_ram::expr::{CmpKind, RamExpr};
use stir_ram::program::{RamProgram, RelId, ReprKind};
use stir_ram::stmt::{AggFunc, RamCond, RamOp, RamStmt};
use stir_ram::IntrinsicOp;

/// An arena slot holding one bound tuple.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// First register of the slot.
    pub ofs: usize,
    /// Number of registers (the tuple arity).
    pub arity: usize,
}

/// How a scanned (stored-order) tuple lands in its arena slot.
#[derive(Debug, Clone)]
pub enum CopySpec {
    /// `regs[ofs + i] = t[i]` — a straight copy (static reordering is on,
    /// or the index order is natural).
    Direct,
    /// `regs[ofs + ord[i]] = t[i]` — the runtime decode that static
    /// reordering eliminates.
    Permuted(Vec<usize>),
}

/// Precomputed range-query bounds for one search site.
///
/// `lo`/`hi` are templates in stored order: unbound positions are prefilled
/// with `0`/`u32::MAX`, and — when super-instructions are on — constant
/// bounds are baked in. At execution time the templates are copied to the
/// stack and the `elems`/`dynamic` entries fill the remaining positions.
#[derive(Debug)]
pub struct Bounds {
    /// Tuple arity.
    pub arity: usize,
    /// Lower-bound template.
    pub lo: Vec<u32>,
    /// Upper-bound template.
    pub hi: Vec<u32>,
    /// Super-instruction field: `(stored position, arena offset)` pairs
    /// copied without dispatch.
    pub elems: Vec<(usize, usize)>,
    /// Generic expressions: `(stored position, expression)` pairs.
    pub dynamic: Vec<(usize, INode)>,
    /// Whether every position is bound (a whole-tuple existence probe).
    pub full: bool,
}

/// Scratch registers every query arena reserves for the intermediate
/// results of fused programs. Leaves need none, so an expression takes
/// `d` of them only once it nests two non-leaf operands `d` deep; a
/// comparison that would need more stays tree-walked.
pub const FUSED_SCRATCH: usize = 8;

/// What a fused instruction does with its operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedOp {
    /// `regs[dst] = op(a, b)`; unary operations ignore `b`.
    Set(IntrinsicOp, usize),
    /// One conjunct: the guard fails unless `a ⋚ b`.
    Test(CmpKind),
}

/// One instruction of a fused arithmetic guard. The program is flat and
/// in postfix order — an operation follows its arguments, exactly the
/// order in which the tree walk evaluates the nodes, so a division by
/// zero is raised exactly when the walk would have reached it — with one
/// short-circuiting [`FusedOp::Test`] closing each conjunct, in source
/// order. Every operand is an arena offset, resolved at build time: a
/// tuple element is its register, a constant sits in the query's constant
/// pool behind the bindings, an intermediate result in a scratch
/// register (§4.4's folding of leaves into their parent, applied to
/// arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedInstr {
    /// The operation.
    pub op: FusedOp,
    /// Arena offset of the left operand.
    pub a: usize,
    /// Arena offset of the right operand.
    pub b: usize,
}

/// One interpreter node. Statements, operations, conditions, and
/// expressions share the enum; the variant is the opcode (the paper's
/// `node->type` switch tag).
#[derive(Debug)]
pub enum INode {
    // ---- statements -------------------------------------------------
    /// Run children in order.
    Seq(Vec<INode>),
    /// Repeat until an inner `Exit` fires.
    Loop {
        /// Ordinal of this loop in tree order (keys frontier samples).
        id: usize,
        /// The loop body.
        body: Box<INode>,
    },
    /// Break the innermost loop when the condition holds.
    Exit(Box<INode>),
    /// One rule evaluation.
    Query {
        /// Index into the profiler's label table.
        label: usize,
        /// Total registers: the query's bindings, then [`FUSED_SCRATCH`]
        /// scratch registers, then `consts`.
        arena_size: usize,
        /// Constant operands of the query's fused programs, copied to the
        /// end of the arena when the query starts.
        consts: Vec<u32>,
        /// The operation tree.
        body: Box<INode>,
    },
    /// Remove all tuples.
    Clear(RelId),
    /// Insert all tuples of `from` into `into`.
    Merge {
        /// Destination relation.
        into: RelId,
        /// Source relation.
        from: RelId,
    },
    /// Exchange contents.
    Swap(RelId, RelId),

    // ---- operations ---------------------------------------------------
    /// Scan: every tuple of `rel`'s index `index` (`bounds: None`), or
    /// those inside a range (`Some`), runs the body once.
    Scan {
        /// Scanned relation.
        rel: RelId,
        /// Index to iterate.
        index: usize,
        /// Where the tuple lands.
        dst: Slot,
        /// How it lands.
        copy: CopySpec,
        /// The search bounds; `None` scans the whole index.
        bounds: Option<Bounds>,
        /// Whether the handler downcasts to the monomorphized index type
        /// (§4.1) instead of calling through the virtual adapter.
        static_dispatch: bool,
        /// Whether the 128-tuple buffer amortizes the virtual calls of a
        /// dynamic scan.
        buffered: bool,
        /// Whether the scan may be partitioned across workers.
        parallel: bool,
        /// Loop body.
        body: Box<INode>,
    },
    /// Conditional execution.
    Filter {
        /// The guard condition.
        cond: Box<INode>,
        /// Run when the guard holds.
        body: Box<INode>,
    },
    /// Conditional execution through an automatically fused arithmetic
    /// guard: the whole conjunction costs one dispatch.
    FilterFused {
        /// The fused condition.
        prog: Vec<FusedInstr>,
        /// Run when the guard holds.
        body: Box<INode>,
    },
    /// Insert with super-instruction fields (paper Fig. 14): the tuple
    /// template already holds the constants; `elems` are register-to-
    /// register copies; only `generic` entries dispatch.
    ProjectSuper {
        /// Destination relation.
        rel: RelId,
        /// Whether to statically dispatch the insert.
        static_dispatch: bool,
        /// Source rule id for annotated evaluation (`RULE_INPUT` for
        /// synthetic projections); folded in like the constants.
        rule: u32,
        /// Tuple template with constants baked in.
        template: Vec<u32>,
        /// `(column, arena offset)` copies.
        elems: Vec<(usize, usize)>,
        /// `(column, expression)` evaluations.
        generic: Vec<(usize, INode)>,
    },
    /// Insert evaluating every column by dispatch.
    ProjectPlain {
        /// Destination relation.
        rel: RelId,
        /// Whether to statically dispatch the insert.
        static_dispatch: bool,
        /// Source rule id for annotated evaluation (`RULE_INPUT` for
        /// synthetic projections).
        rule: u32,
        /// One expression per column.
        values: Vec<INode>,
    },
    /// Aggregate over one indexed scan; binds a 1-value result.
    Aggregate {
        /// Whether the scan is statically dispatched.
        static_dispatch: bool,
        /// Whether a dynamic scan is buffered, as in [`INode::Scan`].
        buffered: bool,
        /// Scanned relation.
        rel: RelId,
        /// Index to range over.
        index: usize,
        /// The aggregate function.
        func: AggFunc,
        /// Slot holding the scanned tuple during the fold and the result
        /// (at offset 0) afterwards.
        dst: Slot,
        /// How scanned tuples land.
        copy: CopySpec,
        /// The search bounds.
        bounds: Bounds,
        /// Folded expression (`None` for COUNT).
        value: Option<Box<INode>>,
        /// Executed once with the result bound.
        body: Box<INode>,
    },

    // ---- conditions ---------------------------------------------------
    /// Always true.
    True,
    /// All children hold.
    Conj(Vec<INode>),
    /// Child does not hold.
    Not(Box<INode>),
    /// Binary comparison.
    Cmp {
        /// Pre-typed operator.
        kind: CmpKind,
        /// Left operand.
        lhs: Box<INode>,
        /// Right operand.
        rhs: Box<INode>,
    },
    /// A run of pure-arithmetic comparisons, fused.
    Fused(Vec<FusedInstr>),
    /// `rel = ∅`.
    Empty(RelId),
    /// Existence probe: is any tuple inside the bounds?
    Exists {
        /// Probed relation.
        rel: RelId,
        /// Index to probe.
        index: usize,
        /// The probe bounds.
        bounds: Bounds,
        /// Whether the probe is statically dispatched.
        static_dispatch: bool,
    },

    // ---- expressions ----------------------------------------------------
    /// A literal bit pattern.
    Constant(u32),
    /// Read one register.
    TupleElement {
        /// Precomputed arena offset (level offset + mapped column).
        ofs: usize,
    },
    /// The `$` counter.
    AutoInc,
    /// An intrinsic operation.
    Intrinsic {
        /// The operation.
        op: IntrinsicOp,
        /// Argument expressions.
        args: Vec<INode>,
    },
}

/// A built interpreter tree plus its query label table.
#[derive(Debug)]
pub struct ITree {
    /// The root statement.
    pub root: INode,
    /// Query labels (rule texts), indexed by `INode::Query::label`.
    pub labels: Vec<String>,
}

/// Builds the interpreter tree for `ram` under `config`.
///
/// This is the "extra code generation" phase whose cost is included in
/// all interpreter timings (paper §5).
pub fn build(ram: &RamProgram, config: &InterpreterConfig) -> ITree {
    build_stmt(ram, config, &ram.main)
}

/// Builds a tree for one statement of `ram` instead of its `main` — the
/// serving subsystem uses this to interpret a stratum's recompute,
/// update, deletion or re-derive statement in isolation. The tree owns
/// its data, so a resident engine builds each of these once, at
/// bring-up, and runs them for every request.
pub fn build_stmt(ram: &RamProgram, config: &InterpreterConfig, stmt: &RamStmt) -> ITree {
    let mut b = Builder {
        ram,
        config: *config,
        labels: Vec::new(),
        offsets: Vec::new(),
        maps: Vec::new(),
        loops: 0,
        scratch: 0,
        consts: None,
    };
    let root = b.stmt(stmt);
    ITree {
        root,
        labels: b.labels,
    }
}

struct Builder<'p> {
    ram: &'p RamProgram,
    config: InterpreterConfig,
    labels: Vec<String>,
    /// Arena offset of each level of the current query.
    offsets: Vec<usize>,
    /// Per-level source-column → stored-position map (`None` = identity).
    maps: Vec<Option<Vec<usize>>>,
    /// Loops assigned so far (tree order).
    loops: usize,
    /// Arena offset of the current query's first scratch register (they
    /// follow the bindings).
    scratch: usize,
    /// The constant pool of the query under construction; `None` outside
    /// queries, where there is no arena to fuse over.
    consts: Option<Vec<u32>>,
}

impl<'p> Builder<'p> {
    fn stmt(&mut self, s: &RamStmt) -> INode {
        match s {
            RamStmt::Seq(stmts) => INode::Seq(stmts.iter().map(|st| self.stmt(st)).collect()),
            RamStmt::Loop(body) => {
                let id = self.loops;
                self.loops += 1;
                INode::Loop {
                    id,
                    body: Box::new(self.stmt(body)),
                }
            }
            RamStmt::Exit(cond) => INode::Exit(Box::new(self.cond(cond))),
            RamStmt::Query {
                label,
                level_arity,
                op,
                ..
            } => {
                let label_id = self.labels.len();
                self.labels.push(label.clone());
                // Arena layout: one slot per level, packed.
                self.offsets.clear();
                self.maps.clear();
                let mut total = 0;
                for &a in level_arity {
                    self.offsets.push(total);
                    total += a.max(1);
                    self.maps.push(None);
                }
                self.scratch = total;
                self.consts = Some(Vec::new());
                let body = self.op(op);
                let consts = self.consts.take().expect("set above");
                INode::Query {
                    label: label_id,
                    arena_size: total + FUSED_SCRATCH + consts.len(),
                    consts,
                    body: Box::new(body),
                }
            }
            RamStmt::Clear(rel) => INode::Clear(*rel),
            RamStmt::Merge { into, from } => INode::Merge {
                into: *into,
                from: *from,
            },
            RamStmt::Swap(a, b) => INode::Swap(*a, *b),
        }
    }

    /// The lexicographic order in which `(rel, index)` *stores* tuples.
    ///
    /// Search patterns map through this order into bound positions. Under
    /// the legacy data layer tuples are stored un-permuted (the comparator
    /// does the reordering), so the storage order is the identity.
    fn storage_order(&self, rel: RelId, index: usize) -> Vec<usize> {
        let arity = self.ram.relations[rel.0].arity;
        if self.config.legacy_data {
            (0..arity).collect()
        } else {
            self.ram.relations[rel.0].orders[index].clone()
        }
    }

    /// The order in which scanned tuples *emerge* relative to source
    /// columns — the storage order, flipped for eqrel symmetry probes
    /// (which yield `(key, member)` pairs for a source-order `(member,
    /// key)` pattern).
    fn emission_order(&self, rel: RelId, index: usize, eqrel_swap: bool) -> Vec<usize> {
        if eqrel_swap {
            vec![1, 0]
        } else {
            self.storage_order(rel, index)
        }
    }

    /// Installs the level's copy behaviour and column map for an order.
    fn level_plumbing(&mut self, level: usize, ord: &[usize]) -> CopySpec {
        let natural = ord.iter().enumerate().all(|(i, &c)| i == c);
        if natural {
            self.maps[level] = None;
            return CopySpec::Direct;
        }
        if self.config.static_reordering {
            // Tuples stay in stored order; accesses are rewritten.
            let mut map = vec![0usize; ord.len()];
            for (i, &c) in ord.iter().enumerate() {
                map[c] = i;
            }
            self.maps[level] = Some(map);
            CopySpec::Direct
        } else {
            // Tuples are decoded into source order on every iteration.
            self.maps[level] = None;
            CopySpec::Permuted(ord.to_vec())
        }
    }

    fn op(&mut self, o: &RamOp) -> INode {
        match o {
            RamOp::Scan {
                rel,
                level,
                parallel,
                body,
            } => self.scan(*rel, 0, *level, None, false, *parallel, body),
            RamOp::IndexScan {
                rel,
                index,
                level,
                pattern,
                eqrel_swap,
                parallel,
                body,
            } => self.scan(
                *rel,
                *index,
                *level,
                Some(pattern),
                *eqrel_swap,
                *parallel,
                body,
            ),
            RamOp::Filter { cond, body } => {
                let body = Box::new(self.op(body));
                match self.cond(cond) {
                    INode::Fused(prog) => INode::FilterFused { prog, body },
                    cond => INode::Filter {
                        cond: Box::new(cond),
                        body,
                    },
                }
            }
            RamOp::Project { rel, values, rule } => self.project(*rel, values, *rule),
            RamOp::Aggregate {
                level,
                func,
                rel,
                index,
                pattern,
                value,
                body,
            } => {
                let ord = self.storage_order(*rel, *index);
                let bounds = self.bounds(pattern, &ord);
                let copy = self.level_plumbing(*level, &ord);
                let dst = Slot {
                    ofs: self.offsets[*level],
                    arity: self.ram.relations[rel.0].arity.max(1),
                };
                // The folded expression sees the scanned tuple (stored
                // order, via the map installed above)...
                let value = value.as_ref().map(|v| Box::new(self.expr(v)));
                // ...but the body sees the 1-value result at offset 0.
                self.maps[*level] = None;
                let body = Box::new(self.op(body));
                INode::Aggregate {
                    static_dispatch: self.config.static_dispatch,
                    buffered: self.config.buffered_iterators,
                    rel: *rel,
                    index: *index,
                    func: *func,
                    dst,
                    copy,
                    bounds,
                    value,
                    body,
                }
            }
        }
    }

    /// A scan of `rel` landing at `level`: a full scan without a search
    /// `pattern`, a range scan with one.
    #[allow(clippy::too_many_arguments)]
    fn scan(
        &mut self,
        rel: RelId,
        index: usize,
        level: usize,
        pattern: Option<&[Option<RamExpr>]>,
        eqrel_swap: bool,
        parallel: bool,
        body: &RamOp,
    ) -> INode {
        let bounds = pattern.map(|p| self.bounds(p, &self.storage_order(rel, index)));
        let ord = self.emission_order(rel, index, eqrel_swap);
        let copy = self.level_plumbing(level, &ord);
        let dst = Slot {
            ofs: self.offsets[level],
            arity: self.ram.relations[rel.0].arity,
        };
        INode::Scan {
            rel,
            index,
            dst,
            copy,
            bounds,
            static_dispatch: self.config.static_dispatch,
            buffered: self.config.buffered_iterators,
            parallel,
            body: Box::new(self.op(body)),
        }
    }

    fn project(&mut self, rel: RelId, values: &[RamExpr], rule: Option<u32>) -> INode {
        let static_dispatch = self.config.static_dispatch;
        // The rule id is absorbed at tree-generation time like any other
        // super-instruction constant; RULE_INPUT marks synthetic
        // projections (aggregate helpers, update seeds without a rule).
        let rule = rule.unwrap_or(crate::database::RULE_INPUT);
        if !self.config.super_instructions {
            return INode::ProjectPlain {
                rel,
                static_dispatch,
                rule,
                values: values.iter().map(|v| self.expr(v)).collect(),
            };
        }
        // Super-instruction splitting (paper Fig. 13).
        let mut template = vec![0u32; values.len()];
        let mut elems = Vec::new();
        let mut generic = Vec::new();
        for (c, v) in values.iter().enumerate() {
            match v {
                RamExpr::Constant(k) => template[c] = *k,
                RamExpr::TupleElement { level, column } => {
                    elems.push((c, self.arena_ofs(*level, *column)));
                }
                other => generic.push((c, self.expr(other))),
            }
        }
        INode::ProjectSuper {
            rel,
            static_dispatch,
            rule,
            template,
            elems,
            generic,
        }
    }

    /// Builds the bound templates for a search pattern against an index
    /// order.
    fn bounds(&mut self, pattern: &[Option<RamExpr>], ord: &[usize]) -> Bounds {
        let arity = pattern.len();
        let mut lo = vec![0u32; arity];
        let mut hi = vec![u32::MAX; arity];
        let mut elems = Vec::new();
        let mut dynamic = Vec::new();
        let mut full = true;
        for (pos, &src_col) in ord.iter().enumerate() {
            match &pattern[src_col] {
                None => full = false,
                Some(RamExpr::Constant(k)) if self.config.super_instructions => {
                    lo[pos] = *k;
                    hi[pos] = *k;
                }
                Some(RamExpr::TupleElement { level, column }) if self.config.super_instructions => {
                    elems.push((pos, self.arena_ofs(*level, *column)));
                }
                Some(e) => dynamic.push((pos, self.expr(e))),
            }
        }
        Bounds {
            arity,
            lo,
            hi,
            elems,
            dynamic,
            full,
        }
    }

    /// Builds a condition. With super-instructions on, every maximal run
    /// of pure-arithmetic comparisons among its conjuncts becomes one
    /// [`INode::Fused`] program; every other conjunct (a relation probe,
    /// a comparison that interns strings or draws `$`) stays where it is,
    /// so the conjunction still short-circuits in source order.
    fn cond(&mut self, c: &RamCond) -> INode {
        let conjuncts = match c {
            RamCond::Conjunction(cs) => &cs[..],
            single => std::slice::from_ref(single),
        };
        let mut parts = Vec::new();
        let mut run = Vec::new();
        for c in conjuncts {
            if !(self.config.super_instructions && self.fuse(c, &mut run)) {
                if !run.is_empty() {
                    parts.push(INode::Fused(std::mem::take(&mut run)));
                }
                parts.push(self.conjunct(c));
            }
        }
        if !run.is_empty() {
            parts.push(INode::Fused(run));
        }
        match (c, &parts[..]) {
            (RamCond::Conjunction(_), [INode::Fused(_)]) => parts.remove(0),
            (RamCond::Conjunction(_), _) => INode::Conj(parts),
            _ => parts.remove(0),
        }
    }

    /// Appends the test for `c` to the fused `run` — unless `c` is not a
    /// pure-arithmetic comparison, needs more scratch registers than an
    /// arena has, or sits outside any query.
    fn fuse(&mut self, c: &RamCond, run: &mut Vec<FusedInstr>) -> bool {
        let RamCond::Comparison { kind, lhs, rhs } = c else {
            return false;
        };
        if self.consts.is_none() || !is_pure_arith(c) {
            return false;
        }
        let start = run.len();
        let test = self.operand(lhs, run, 0).and_then(|a| {
            let b = self.operand(rhs, run, usize::from(a == self.scratch))?;
            let op = FusedOp::Test(*kind);
            Some(FusedInstr { op, a, b })
        });
        match test {
            Some(test) => run.push(test),
            None => run.truncate(start),
        }
        test.is_some()
    }

    /// Lowers a pure-arithmetic expression in postfix order and returns
    /// the arena offset its value is found at: a leaf is already there,
    /// an operation is emitted after its arguments and writes scratch
    /// register `live` (the registers below hold results still awaited).
    fn operand(&mut self, e: &RamExpr, run: &mut Vec<FusedInstr>, live: usize) -> Option<usize> {
        match e {
            RamExpr::Constant(k) => {
                let pool = self.consts.as_mut().expect("fusing inside a query");
                let at = pool.iter().position(|c| c == k).unwrap_or_else(|| {
                    pool.push(*k);
                    pool.len() - 1
                });
                Some(self.scratch + FUSED_SCRATCH + at)
            }
            RamExpr::TupleElement { level, column } => Some(self.arena_ofs(*level, *column)),
            RamExpr::Intrinsic { op, args } => {
                let dst = self.scratch + live;
                let a = self.operand(&args[0], run, live)?;
                let b = match args.get(1) {
                    Some(e) => self.operand(e, run, live + usize::from(a == dst))?,
                    None => a,
                };
                let op = FusedOp::Set(*op, dst);
                run.push(FusedInstr { op, a, b });
                (live < FUSED_SCRATCH).then_some(dst)
            }
            RamExpr::AutoIncrement => unreachable!("`$` is not pure arithmetic"),
        }
    }

    /// One tree-walked conjunct.
    fn conjunct(&mut self, c: &RamCond) -> INode {
        match c {
            RamCond::True => INode::True,
            RamCond::Conjunction(_) => self.cond(c),
            RamCond::Negation(inner) => INode::Not(Box::new(self.cond(inner))),
            RamCond::Comparison { kind, lhs, rhs } => INode::Cmp {
                kind: *kind,
                lhs: Box::new(self.expr(lhs)),
                rhs: Box::new(self.expr(rhs)),
            },
            RamCond::EmptinessCheck { rel } => INode::Empty(*rel),
            RamCond::ExistenceCheck {
                rel,
                index,
                pattern,
            } => {
                let ord = self.storage_order(*rel, *index);
                // Existence checks on eqrel with only the second column
                // bound exploit symmetry like scans do; the translator
                // leaves existence patterns unswapped, so flip here.
                let bounds = match &pattern[..] {
                    [None, key @ Some(_)] if self.ram.relations[rel.0].repr == ReprKind::EqRel => {
                        self.bounds(&[key.clone(), None], &ord)
                    }
                    _ => self.bounds(pattern, &ord),
                };
                INode::Exists {
                    rel: *rel,
                    index: *index,
                    bounds,
                    static_dispatch: self.config.static_dispatch,
                }
            }
        }
    }

    fn arena_ofs(&self, level: usize, column: usize) -> usize {
        let col = match &self.maps[level] {
            Some(map) => map[column],
            None => column,
        };
        self.offsets[level] + col
    }

    fn expr(&mut self, e: &RamExpr) -> INode {
        match e {
            RamExpr::Constant(k) => INode::Constant(*k),
            RamExpr::TupleElement { level, column } => INode::TupleElement {
                ofs: self.arena_ofs(*level, *column),
            },
            RamExpr::AutoIncrement => INode::AutoInc,
            RamExpr::Intrinsic { op, args } => INode::Intrinsic {
                op: *op,
                args: args.iter().map(|a| self.expr(a)).collect(),
            },
        }
    }
}

/// Whether a condition is purely arithmetic — comparisons over constants,
/// registers and symbol-free intrinsics, with no relation probe, no `$`
/// and no string functor — i.e. a function of the register arena alone,
/// eligible for fusion.
fn is_pure_arith(c: &RamCond) -> bool {
    fn arith(e: &RamExpr) -> bool {
        match e {
            RamExpr::Constant(_) | RamExpr::TupleElement { .. } => true,
            RamExpr::Intrinsic { op, args } => !op.needs_symbols() && args.iter().all(arith),
            RamExpr::AutoIncrement => false,
        }
    }
    match c {
        RamCond::True => true,
        RamCond::Comparison { lhs, rhs, .. } => arith(lhs) && arith(rhs),
        RamCond::Conjunction(cs) => cs.iter().all(is_pure_arith),
        RamCond::Negation(inner) => is_pure_arith(inner),
        RamCond::EmptinessCheck { .. } | RamCond::ExistenceCheck { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StorageBackend;
    use stir_frontend::parse_and_check;
    use stir_ram::translate::translate;

    fn ram(src: &str) -> RamProgram {
        translate(&parse_and_check(src).expect("checks")).expect("translates")
    }

    const TC: &str = "\
        .decl e(x: number, y: number)\n\
        .decl p(x: number, y: number)\n\
        .output p\n\
        e(1, 2).\n\
        p(x, y) :- e(x, y).\n\
        p(x, z) :- p(x, y), e(y, z).\n";

    fn count_kind(node: &INode, pred: &dyn Fn(&INode) -> bool) -> usize {
        let mut n = usize::from(pred(node));
        let children: Vec<&INode> = match node {
            INode::Seq(v) | INode::Conj(v) => v.iter().collect(),
            INode::Exit(b) | INode::Not(b) => vec![&**b],
            INode::Loop { body, .. } => vec![&**body],
            INode::Query { body, .. } => vec![&**body],
            INode::Scan { bounds, body, .. } => {
                let mut v: Vec<&INode> = bounds
                    .iter()
                    .flat_map(|b| &b.dynamic)
                    .map(|(_, e)| e)
                    .collect();
                v.push(&**body);
                v
            }
            INode::Filter { cond, body } => vec![&**cond, &**body],
            INode::FilterFused { body, .. } => vec![&**body],
            INode::ProjectSuper { generic, .. } => generic.iter().map(|(_, e)| e).collect(),
            INode::ProjectPlain { values, .. } => values.iter().collect(),
            INode::Aggregate {
                bounds,
                value,
                body,
                ..
            } => {
                let mut v: Vec<&INode> = bounds.dynamic.iter().map(|(_, e)| e).collect();
                if let Some(val) = value {
                    v.push(&**val);
                }
                v.push(&**body);
                v
            }
            INode::Cmp { lhs, rhs, .. } => vec![&**lhs, &**rhs],
            INode::Exists { bounds, .. } => bounds.dynamic.iter().map(|(_, e)| e).collect(),
            INode::Intrinsic { args, .. } => args.iter().collect(),
            _ => vec![],
        };
        for c in children {
            n += count_kind(c, pred);
        }
        n
    }

    /// Whether `node` is a range scan dispatched statically or not.
    fn is_range_scan(node: &INode, statically: bool) -> bool {
        matches!(node, INode::Scan { bounds: Some(_), static_dispatch, .. } if *static_dispatch == statically)
    }

    #[test]
    fn static_config_builds_static_nodes() {
        let ram = ram(TC);
        let tree = build(&ram, &InterpreterConfig::optimized());
        assert!(count_kind(&tree.root, &|n| is_range_scan(n, true)) > 0);
        assert_eq!(count_kind(&tree.root, &|n| is_range_scan(n, false)), 0);
        assert!(count_kind(&tree.root, &|n| matches!(n, INode::ProjectSuper { .. })) > 0);
        // One exit rule + one delta version of the recursive rule.
        assert_eq!(tree.labels.len(), 2);
    }

    #[test]
    fn dynamic_config_builds_dynamic_nodes() {
        let ram = ram(TC);
        let tree = build(&ram, &InterpreterConfig::dynamic_adapter());
        assert_eq!(count_kind(&tree.root, &|n| is_range_scan(n, true)), 0);
        assert!(count_kind(&tree.root, &|n| is_range_scan(n, false)) > 0);
        let static_probes = count_kind(&tree.root, &|n| {
            matches!(
                n,
                INode::Exists {
                    static_dispatch: true,
                    ..
                }
            )
        });
        assert_eq!(static_probes, 0);
    }

    #[test]
    fn disk_storage_keeps_every_access_static() {
        let ram = ram(TC);
        let cfg = InterpreterConfig::optimized().with_storage(StorageBackend::Disk);
        let tree = build(&ram, &cfg);
        // Disk is one more representation: scans, probes and inserts over
        // the disk-backed relations (e, p) dispatch statically like those
        // over the in-memory delta/new relations.
        let accesses = |statically: bool| {
            count_kind(&tree.root, &|n| match n {
                INode::Scan {
                    rel,
                    static_dispatch,
                    ..
                }
                | INode::ProjectSuper {
                    rel,
                    static_dispatch,
                    ..
                }
                | INode::Exists {
                    rel,
                    static_dispatch,
                    ..
                } => {
                    *static_dispatch == statically
                        && crate::database::disk_backed(&ram.relations[rel.0])
                }
                _ => false,
            })
        };
        assert_eq!(
            accesses(false),
            0,
            "no dynamic access to a disk-backed relation"
        );
        assert!(accesses(true) > 0);
    }

    #[test]
    fn super_instructions_fold_constants_into_bounds() {
        let src = "\
            .decl e(x: number, y: number)\n.decl r(y: number)\n\
            e(7, 8).\n\
            r(y) :- e(7, y).\n";
        let ram = ram(src);
        let sti = InterpreterConfig::optimized();
        let with = build(&ram, &sti);
        // The constant 7 is baked into the bound template: no dynamic
        // entries, no generic Constant nodes under the scan.
        let dyn_entries = count_kind(&with.root, &|n| match n {
            INode::Scan {
                bounds: Some(bounds),
                ..
            } => !bounds.dynamic.is_empty(),
            _ => false,
        });
        assert_eq!(dyn_entries, 0);

        let without = build(
            &ram,
            &InterpreterConfig {
                super_instructions: false,
                ..sti
            },
        );
        let dyn_entries = count_kind(&without.root, &|n| match n {
            INode::Scan {
                bounds: Some(bounds),
                ..
            } => !bounds.dynamic.is_empty(),
            _ => false,
        });
        assert!(dyn_entries > 0);
    }

    #[test]
    fn projections_split_into_super_fields() {
        let src = "\
            .decl e(x: number)\n.decl r(a: number, b: number, c: number)\n\
            e(1).\n\
            r(x, 5, x + 1) :- e(x).\n";
        let ram = ram(src);
        let tree = build(&ram, &InterpreterConfig::optimized());
        let mut checked = false;
        fn find<'a>(n: &'a INode, f: &mut dyn FnMut(&'a INode)) {
            f(n);
            match n {
                INode::Seq(v) => v.iter().for_each(|c| find(c, f)),
                INode::Loop { body, .. } => find(body, f),
                INode::Exit(b) => find(b, f),
                INode::Query { body, .. } => find(body, f),
                INode::Scan { body, .. } => find(body, f),
                INode::Filter { body, .. } | INode::FilterFused { body, .. } => find(body, f),
                _ => {}
            }
        }
        find(&tree.root, &mut |n| {
            if let INode::ProjectSuper {
                template,
                elems,
                generic,
                ..
            } = n
            {
                assert_eq!(template[1], 5);
                assert_eq!(elems.len(), 1);
                assert_eq!(generic.len(), 1);
                checked = true;
            }
        });
        assert!(checked, "found the super-instruction projection");
    }

    /// Every `FilterFused` / `Fused` program of a tree, in tree order.
    fn fused_programs<'a>(node: &'a INode, out: &mut Vec<&'a [FusedInstr]>) {
        match node {
            INode::FilterFused { prog, body } => {
                out.push(prog);
                fused_programs(body, out);
            }
            INode::Fused(prog) => out.push(prog),
            INode::Seq(v) | INode::Conj(v) => v.iter().for_each(|c| fused_programs(c, out)),
            INode::Loop { body, .. } | INode::Query { body, .. } | INode::Scan { body, .. } => {
                fused_programs(body, out)
            }
            INode::Filter { cond, body } => {
                fused_programs(cond, out);
                fused_programs(body, out);
            }
            _ => {}
        }
    }

    #[test]
    fn pure_arithmetic_looks_into_the_expressions() {
        let cmp = |lhs: RamExpr| RamCond::Comparison {
            kind: CmpKind::GtS,
            lhs,
            rhs: RamExpr::Constant(3),
        };
        let reg = RamExpr::TupleElement {
            level: 0,
            column: 0,
        };
        let call = |op, args| RamExpr::intrinsic(op, args);
        assert!(is_pure_arith(&cmp(reg.clone())));
        assert!(is_pure_arith(&cmp(call(
            IntrinsicOp::ModS,
            vec![reg.clone(), RamExpr::Constant(0)]
        ))));
        assert!(is_pure_arith(&RamCond::Negation(Box::new(
            cmp(reg.clone())
        ))));
        // `strlen(s) > 3`, `cat(a, b) > 3` and anything drawing `$` need
        // the symbol table or the counter: not functions of the arena.
        assert!(!is_pure_arith(&cmp(call(
            IntrinsicOp::Strlen,
            vec![reg.clone()]
        ))));
        let cat = call(IntrinsicOp::Cat, vec![reg.clone(), reg.clone()]);
        assert!(!is_pure_arith(&cmp(call(
            IntrinsicOp::Add,
            vec![reg.clone(), cat]
        ))));
        assert!(!is_pure_arith(&cmp(RamExpr::AutoIncrement)));
        let nested = call(IntrinsicOp::Neg, vec![RamExpr::AutoIncrement]);
        assert!(!is_pure_arith(&RamCond::Conjunction(vec![
            cmp(reg),
            cmp(nested)
        ])));
        assert!(!is_pure_arith(&RamCond::EmptinessCheck { rel: RelId(0) }));
    }

    #[test]
    fn arithmetic_guards_lower_to_one_postfix_program() {
        let src = "\
            .decl e(x: number, y: number)\n.decl r(x: number)\n\
            e(1, 2).\n\
            r(x) :- e(x, y), x >= y - 4096, (x bxor y) band 7 != 3, x * 2 - y > (x + 1) * (y + 2).\n";
        let ram = ram(src);
        let tree = build(&ram, &InterpreterConfig::optimized());
        let mut progs = Vec::new();
        fused_programs(&tree.root, &mut progs);
        use FusedOp::{Set, Test};
        use IntrinsicOp::{Add, BAnd, BXor, Mul, Sub};
        // Arena: x, y | scratch 2..10 | pooled constants from 10.
        let pool = [4096, 7, 3, 2, 1];
        let k = |v: u32| 10 + pool.iter().position(|&c| c == v).expect("pooled");
        let ins = |op, a, b| FusedInstr { op, a, b };
        assert_eq!(
            progs,
            vec![
                &[
                    ins(Set(Sub, 2), 1, k(4096)),
                    ins(Test(CmpKind::GeS), 0, 2),
                    ins(Set(BXor, 2), 0, 1),
                    ins(Set(BAnd, 2), 2, k(7)),
                    ins(Test(CmpKind::Ne), 2, k(3)),
                    ins(Set(Mul, 2), 0, k(2)),
                    ins(Set(Sub, 2), 2, 1),
                    ins(Set(Add, 3), 0, k(1)),
                    ins(Set(Add, 4), 1, k(2)),
                    ins(Set(Mul, 3), 3, 4),
                    ins(Test(CmpKind::GtS), 2, 3),
                ][..]
            ]
        );
        let arenas = count_kind(&tree.root, &|n| match n {
            INode::Query {
                arena_size, consts, ..
            } => *arena_size == 2 + FUSED_SCRATCH + 5 && consts[..] == pool,
            _ => false,
        });
        assert_eq!(arenas, 1, "the rule's arena ends in the constant pool");
        assert_eq!(
            count_kind(&tree.root, &|n| matches!(n, INode::Cmp { .. })),
            0,
            "nothing is left to the tree walk"
        );
        // `--no-super` is the off switch.
        let plain = InterpreterConfig {
            super_instructions: false,
            ..InterpreterConfig::optimized()
        };
        let (tree, mut progs) = (build(&ram, &plain), Vec::new());
        fused_programs(&tree.root, &mut progs);
        assert!(progs.is_empty());
    }

    #[test]
    fn mixed_conjunctions_fuse_runs_and_keep_their_order() {
        // Every guard reads `n`, bound by the innermost atom, so all five
        // share one conjunction there.
        let src = "\
            .decl e(x: number, y: number)\n.decl s(x: symbol, n: number)\n.decl r(x: number)\n\
            e(1, 2).\ns(\"ab\", 4).\n\
            r(x) :- e(x, y), s(t, n), x < n, n != 7, !e(y, n), strlen(t) > x, n band 1 = 0.\n";
        let ram = ram(src);
        let tree = build(&ram, &InterpreterConfig::optimized());
        let mut shapes = Vec::new();
        fn conj<'a>(n: &'a INode, out: &mut Vec<&'a [INode]>) {
            match n {
                INode::Seq(v) => v.iter().for_each(|c| conj(c, out)),
                INode::Query { body, .. } | INode::Scan { body, .. } => conj(body, out),
                INode::Filter { cond, body } => {
                    if let INode::Conj(parts) = &**cond {
                        out.push(parts);
                    }
                    conj(body, out);
                }
                _ => {}
            }
        }
        conj(&tree.root, &mut shapes);
        let guard = shapes
            .iter()
            .find(|parts| parts.iter().any(|p| matches!(p, INode::Fused(_))))
            .expect("the rule's guard");
        let kinds: Vec<String> = guard
            .iter()
            .map(|p| match p {
                INode::Fused(prog) => {
                    let tests = prog.iter().filter(|i| matches!(i.op, FusedOp::Test(_)));
                    format!("{} fused", tests.count())
                }
                INode::Not(_) => "probe".to_owned(),
                INode::Cmp { .. } => "strlen".to_owned(),
                other => panic!("unexpected conjunct {other:?}"),
            })
            .collect();
        assert_eq!(kinds, ["2 fused", "probe", "strlen", "1 fused"]);
    }

    #[test]
    fn a_comparison_needing_too_many_scratch_registers_stays_tree_walked() {
        // A balanced sum of 2^d leaves needs d scratch registers.
        fn sum(depth: usize) -> String {
            if depth == 0 {
                "x".to_owned()
            } else {
                format!("({} + {})", sum(depth - 1), sum(depth - 1))
            }
        }
        for (depth, fused) in [(FUSED_SCRATCH, 2), (FUSED_SCRATCH + 1, 1)] {
            let src = format!(
                ".decl e(x: number)\n.decl r(x: number)\ne(1).\n\
                 r(x) :- e(x), x > 0, {} > x * 3.\n",
                sum(depth)
            );
            let ram = ram(&src);
            let tree = build(&ram, &InterpreterConfig::optimized());
            let mut progs = Vec::new();
            fused_programs(&tree.root, &mut progs);
            let tests: usize = progs
                .iter()
                .flat_map(|p| p.iter())
                .filter(|i| matches!(i.op, FusedOp::Test(_)))
                .count();
            assert_eq!(tests, fused, "depth {depth}");
            assert_eq!(
                count_kind(&tree.root, &|n| matches!(n, INode::Cmp { .. })),
                2 - fused,
                "depth {depth}"
            );
        }
    }
}
