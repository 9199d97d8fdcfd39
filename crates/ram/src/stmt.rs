//! RAM statements, operations, and conditions.

use crate::expr::{CmpKind, RamExpr};
use crate::program::RelId;

/// A condition evaluated against the current runtime context.
#[derive(Debug, Clone, PartialEq)]
pub enum RamCond {
    /// Always true.
    True,
    /// All conjuncts hold (kept flattened).
    Conjunction(Vec<RamCond>),
    /// The inner condition does not hold.
    Negation(Box<RamCond>),
    /// A binary comparison of two value expressions.
    Comparison {
        /// Pre-typed comparison operator.
        kind: CmpKind,
        /// Left operand.
        lhs: RamExpr,
        /// Right operand.
        rhs: RamExpr,
    },
    /// `rel = ∅`.
    EmptinessCheck {
        /// The relation to test.
        rel: RelId,
    },
    /// Some tuple matching `pattern` exists in `rel`.
    ///
    /// `pattern[c]` constrains source column `c`; `None` columns are
    /// unconstrained. The bound columns are guaranteed (by index
    /// selection) to be a prefix of index `index`'s order.
    ExistenceCheck {
        /// The relation to probe.
        rel: RelId,
        /// Which of the relation's indexes services the probe.
        index: usize,
        /// Per-source-column constraints.
        pattern: Vec<Option<RamExpr>>,
    },
}

impl RamCond {
    /// Conjoins two conditions, flattening and dropping `True`s.
    pub fn and(self, other: RamCond) -> RamCond {
        match (self, other) {
            (RamCond::True, c) | (c, RamCond::True) => c,
            (RamCond::Conjunction(mut a), RamCond::Conjunction(b)) => {
                a.extend(b);
                RamCond::Conjunction(a)
            }
            (RamCond::Conjunction(mut a), c) => {
                a.push(c);
                RamCond::Conjunction(a)
            }
            (c, RamCond::Conjunction(mut b)) => {
                b.insert(0, c);
                RamCond::Conjunction(b)
            }
            (a, b) => RamCond::Conjunction(vec![a, b]),
        }
    }

    /// Total dispatch count of the condition tree (cf.
    /// [`RamExpr::dispatch_count`]).
    pub fn dispatch_count(&self) -> usize {
        match self {
            RamCond::True | RamCond::EmptinessCheck { .. } => 1,
            RamCond::Conjunction(cs) => 1 + cs.iter().map(RamCond::dispatch_count).sum::<usize>(),
            RamCond::Negation(c) => 1 + c.dispatch_count(),
            RamCond::Comparison { lhs, rhs, .. } => 1 + lhs.dispatch_count() + rhs.dispatch_count(),
            RamCond::ExistenceCheck { pattern, .. } => {
                1 + pattern
                    .iter()
                    .flatten()
                    .map(RamExpr::dispatch_count)
                    .sum::<usize>()
            }
        }
    }

    /// Whether any expression in the condition draws from the
    /// auto-increment counter.
    pub fn uses_autoincrement(&self) -> bool {
        match self {
            RamCond::True | RamCond::EmptinessCheck { .. } => false,
            RamCond::Conjunction(cs) => cs.iter().any(RamCond::uses_autoincrement),
            RamCond::Negation(c) => c.uses_autoincrement(),
            RamCond::Comparison { lhs, rhs, .. } => {
                lhs.uses_autoincrement() || rhs.uses_autoincrement()
            }
            RamCond::ExistenceCheck { pattern, .. } => {
                pattern.iter().flatten().any(RamExpr::uses_autoincrement)
            }
        }
    }
}

/// Aggregate functions at the RAM level (pre-typed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Number of matching tuples.
    Count,
    /// Signed sum.
    SumS,
    /// Unsigned sum.
    SumU,
    /// Float sum.
    SumF,
    /// Signed minimum.
    MinS,
    /// Unsigned minimum.
    MinU,
    /// Float minimum.
    MinF,
    /// Signed maximum.
    MaxS,
    /// Unsigned maximum.
    MaxU,
    /// Float maximum.
    MaxF,
}

impl std::fmt::Display for AggFunc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::SumS => "SUM",
            AggFunc::SumU => "SUM_U",
            AggFunc::SumF => "SUM_F",
            AggFunc::MinS => "MIN",
            AggFunc::MinU => "MIN_U",
            AggFunc::MinF => "MIN_F",
            AggFunc::MaxS => "MAX",
            AggFunc::MaxU => "MAX_U",
            AggFunc::MaxF => "MAX_F",
        };
        write!(f, "{s}")
    }
}

/// One node of a query's nested operation tree.
///
/// Each `Scan`/`IndexScan`/`Aggregate` binds a tuple at its `level`; inner
/// operations refer to bound tuples through
/// [`RamExpr::TupleElement`].
#[derive(Debug, Clone, PartialEq)]
pub enum RamOp {
    /// `FOR t IN rel`.
    Scan {
        /// Scanned relation.
        rel: RelId,
        /// Binding level of the scanned tuple.
        level: usize,
        /// Whether a parallel interpreter may chunk this scan into
        /// morsels drained by a worker pool. Translation marks every
        /// scan in a rule body (unless the rule draws auto-increment
        /// values); at runtime the first one a rule evaluation reaches
        /// decides, on the size of its range, whether the rule fans out.
        parallel: bool,
        /// Inner operation.
        body: Box<RamOp>,
    },
    /// `FOR t IN rel ON INDEX pattern`.
    IndexScan {
        /// Scanned relation.
        rel: RelId,
        /// Which index services the scan.
        index: usize,
        /// Binding level of the scanned tuple.
        level: usize,
        /// Per-source-column constraints (see
        /// [`RamCond::ExistenceCheck`]).
        pattern: Vec<Option<RamExpr>>,
        /// For equivalence relations only: the pattern was flipped to
        /// exploit symmetry, so yielded tuples must be presented reversed.
        eqrel_swap: bool,
        /// Whether a parallel interpreter may partition this scan (see
        /// [`RamOp::Scan::parallel`]).
        parallel: bool,
        /// Inner operation.
        body: Box<RamOp>,
    },
    /// `IF cond`.
    Filter {
        /// The guard.
        cond: RamCond,
        /// Inner operation.
        body: Box<RamOp>,
    },
    /// `INSERT (v1, ..., vn) INTO rel` — the leaf of every query.
    Project {
        /// Destination relation.
        rel: RelId,
        /// Value expressions, one per column.
        values: Vec<RamExpr>,
        /// Index of the source rule this projection implements (into the
        /// desugared rule list), for provenance annotation writes. The
        /// rule id is a per-query constant, so annotated inserts absorb it
        /// the same way super-instructions absorb constant columns; plain
        /// evaluation ignores it entirely. `None` for synthetic
        /// projections that implement no source rule.
        rule: Option<u32>,
    },
    /// Scan `rel` on `pattern`, folding `value` over the matches; then
    /// bind the result as a 1-column tuple at `level` and run `body` once.
    ///
    /// During the internal scan, the *scanned* tuple is bound at `level`
    /// (so `value` refers to it); afterwards the same slot holds the
    /// single aggregate result — mirroring Soufflé's context reuse.
    Aggregate {
        /// Binding level of the scanned tuple / 1-column result.
        level: usize,
        /// The aggregate function.
        func: AggFunc,
        /// Aggregated relation (a desugared helper or an EDB relation).
        rel: RelId,
        /// Which index services the scan.
        index: usize,
        /// Per-source-column constraints.
        pattern: Vec<Option<RamExpr>>,
        /// The folded expression (`None` for `COUNT`).
        value: Option<RamExpr>,
        /// Inner operation, executed exactly once.
        body: Box<RamOp>,
    },
}

impl RamOp {
    /// Visits every operation node (pre-order).
    pub fn walk(&self, f: &mut dyn FnMut(&RamOp)) {
        f(self);
        match self {
            RamOp::Scan { body, .. }
            | RamOp::IndexScan { body, .. }
            | RamOp::Filter { body, .. }
            | RamOp::Aggregate { body, .. } => body.walk(f),
            RamOp::Project { .. } => {}
        }
    }

    /// Mutably visits every operation node (pre-order).
    pub fn walk_mut(&mut self, f: &mut dyn FnMut(&mut RamOp)) {
        f(self);
        match self {
            RamOp::Scan { body, .. }
            | RamOp::IndexScan { body, .. }
            | RamOp::Filter { body, .. }
            | RamOp::Aggregate { body, .. } => body.walk_mut(f),
            RamOp::Project { .. } => {}
        }
    }

    /// Whether any expression under this operation draws from the
    /// auto-increment counter. Such rules must stay sequential: the
    /// values a worker draws would depend on partition interleaving.
    pub fn uses_autoincrement(&self) -> bool {
        let autoinc_in =
            |p: &[Option<RamExpr>]| p.iter().flatten().any(RamExpr::uses_autoincrement);
        let mut found = false;
        self.walk(&mut |op| {
            found |= match op {
                RamOp::Scan { .. } => false,
                RamOp::IndexScan { pattern, .. } => autoinc_in(pattern),
                RamOp::Filter { cond, .. } => cond.uses_autoincrement(),
                RamOp::Project { values, .. } => values.iter().any(RamExpr::uses_autoincrement),
                RamOp::Aggregate { pattern, value, .. } => {
                    autoinc_in(pattern) || value.as_ref().is_some_and(RamExpr::uses_autoincrement)
                }
            };
        });
        found
    }
}

/// A RAM statement.
#[derive(Debug, Clone, PartialEq)]
pub enum RamStmt {
    /// Run statements in order.
    Seq(Vec<RamStmt>),
    /// Repeat the body until an inner [`RamStmt::Exit`] fires.
    Loop(Box<RamStmt>),
    /// Break the innermost loop when the condition holds.
    Exit(RamCond),
    /// Evaluate one rule (a nested operation tree).
    Query {
        /// Human-readable rule label (for the profiler and listings).
        label: String,
        /// Number of tuple-binding levels in `op`.
        levels: usize,
        /// Arity of the tuple bound at each level.
        level_arity: Vec<usize>,
        /// The operation tree.
        op: RamOp,
    },
    /// Remove all tuples of a relation.
    Clear(RelId),
    /// Insert all tuples of `from` into `into`.
    Merge {
        /// Destination.
        into: RelId,
        /// Source (unchanged).
        from: RelId,
    },
    /// Exchange the contents of two relations.
    Swap(RelId, RelId),
}

impl RamStmt {
    /// Visits every statement (pre-order).
    pub fn walk(&self, f: &mut dyn FnMut(&RamStmt)) {
        f(self);
        match self {
            RamStmt::Seq(stmts) => {
                for s in stmts {
                    s.walk(f);
                }
            }
            RamStmt::Loop(body) => body.walk(f),
            _ => {}
        }
    }

    /// Mutably visits every statement (pre-order).
    pub fn walk_mut(&mut self, f: &mut dyn FnMut(&mut RamStmt)) {
        f(self);
        match self {
            RamStmt::Seq(stmts) => {
                for s in stmts {
                    s.walk_mut(f);
                }
            }
            RamStmt::Loop(body) => body.walk_mut(f),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_flattens() {
        let c = RamCond::True
            .and(RamCond::EmptinessCheck { rel: RelId(0) })
            .and(RamCond::True)
            .and(RamCond::EmptinessCheck { rel: RelId(1) });
        match c {
            RamCond::Conjunction(cs) => assert_eq!(cs.len(), 2),
            other => panic!("expected conjunction, got {other:?}"),
        }
        assert!(matches!(RamCond::True.and(RamCond::True), RamCond::True));
    }

    #[test]
    fn walk_visits_all_ops() {
        let op = RamOp::Scan {
            rel: RelId(0),
            level: 0,
            parallel: false,
            body: Box::new(RamOp::Filter {
                cond: RamCond::True,
                body: Box::new(RamOp::Project {
                    rel: RelId(1),
                    values: vec![],
                    rule: None,
                }),
            }),
        };
        let mut n = 0;
        op.walk(&mut |_| n += 1);
        assert_eq!(n, 3);
    }

    #[test]
    fn condition_dispatch_counts() {
        let c = RamCond::Comparison {
            kind: CmpKind::LtS,
            lhs: RamExpr::TupleElement {
                level: 0,
                column: 0,
            },
            rhs: RamExpr::Constant(3),
        };
        assert_eq!(c.dispatch_count(), 3);
    }
}
