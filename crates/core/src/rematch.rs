//! The one re-matcher of provenance plans.
//!
//! `.explain` ([`crate::prov`]) and DRed re-derivation
//! ([`crate::rederive`]) ask the same question of a
//! [`stir_ram::prov::ProvRule`] plan — *which bindings of this rule body
//! derive this head tuple from the current database?* — and differ only
//! in which bindings they care about. [`search`] is the single
//! depth-first walk over the five [`RamOp`] shapes; a [`Visitor`] says
//! which candidate premises to descend into and when to stop. The walk
//! is head-driven: columns the head projects straight out of a body atom
//! ([`head_pins`]) join that atom's search pattern, and every candidate
//! enumeration is one [`stir_der::relation::Relation::select`], so a
//! pinned column costs an index range, not a relation scan.
//!
//! The plans keep the `usize::MAX` index placeholder (they are lowered
//! outside index selection); nothing here reads an index number.
//! [`eval_expr`] and [`eval_cond`] are the only evaluators of RAM
//! expressions and conditions outside the interpreter; the batched
//! matcher of [`crate::rederive`] shares them.

use crate::database::Database;
use crate::error::EvalError;
use crate::functors::{eval_cmp, eval_intrinsic};
use crate::interp::AggAcc;
use stir_der::iter::TupleIter;
use stir_ram::expr::{RamDomain, RamExpr};
use stir_ram::program::RelId;
use stir_ram::stmt::{RamCond, RamOp};

/// A body atom bound during matching: relation and source-order tuple.
pub(crate) type Premise = (RelId, Vec<RamDomain>);

/// `(level, column, value)`: the head forces that position of the
/// level's candidate tuples to the target's value.
pub(crate) type Pin = (usize, usize, RamDomain);

/// What a search is looking for.
pub(crate) trait Visitor {
    /// `candidate` of `rel` satisfies every bound column of the next body
    /// atom, under the premises in `bound` (outermost first): descend
    /// into it?
    fn admit(&mut self, bound: &[Premise], rel: RelId, candidate: &[RamDomain]) -> bool;

    /// The binding `premises` (plan order) projects onto the target.
    /// `true` keeps looking for further bindings, `false` ends the search.
    fn complete(&mut self, premises: &[Premise]) -> bool;
}

/// Walks the plan `op` (with `nlevels` binding levels) depth-first over
/// the current database, reporting to `visitor` every binding that
/// derives `target`. Candidates of one atom are tried in ascending tuple
/// order, so which binding is found first never depends on which index
/// enumerated them. Evaluation errors (an overflowing intrinsic, an
/// auto-increment draw) are dead ends, not failures.
pub(crate) fn search(
    db: &Database,
    nlevels: usize,
    op: &RamOp,
    target: &[RamDomain],
    visitor: &mut dyn Visitor,
) {
    let Some(pins) = head_pins(projection(op), target) else {
        return; // a constant head column contradicts the target
    };
    let mut walk = Walk {
        db,
        target,
        pins,
        levels: vec![Vec::new(); nlevels],
        premises: Vec::new(),
        visitor,
        stopped: false,
    };
    walk.search(op);
}

/// The head projection at the bottom of a plan's operation chain.
fn projection(mut op: &RamOp) -> &[RamExpr] {
    loop {
        op = match op {
            RamOp::Scan { body, .. }
            | RamOp::IndexScan { body, .. }
            | RamOp::Filter { body, .. }
            | RamOp::Aggregate { body, .. } => body,
            RamOp::Project { values, .. } => return values,
        };
    }
}

/// The binding-level constraints the head projection `project` implies
/// for `target`: a head column projected from `TupleElement { level,
/// column }` pins that position. `None` when a constant head column (or
/// two pins on one position) contradicts the target — the rule cannot
/// derive it at all. Computed columns pin nothing; they are verified
/// once the binding is complete.
pub(crate) fn head_pins(project: &[RamExpr], target: &[RamDomain]) -> Option<Vec<Pin>> {
    let mut pins: Vec<Pin> = Vec::new();
    for (v, &want) in project.iter().zip(target) {
        match v {
            RamExpr::Constant(k) if *k != want => return None,
            RamExpr::TupleElement { level, column } => {
                match pins.iter().find(|p| (p.0, p.1) == (*level, *column)) {
                    Some(&(_, _, prev)) if prev != want => return None,
                    Some(_) => {}
                    None => pins.push((*level, *column, want)),
                }
            }
            _ => {}
        }
    }
    Some(pins)
}

struct Walk<'a> {
    db: &'a Database,
    target: &'a [RamDomain],
    pins: Vec<Pin>,
    /// Bound tuple per binding level (empty = unbound).
    levels: Vec<Vec<RamDomain>>,
    /// Body atoms bound so far, outermost first.
    premises: Vec<Premise>,
    visitor: &'a mut dyn Visitor,
    stopped: bool,
}

impl Walk<'_> {
    fn search(&mut self, op: &RamOp) {
        if self.stopped {
            return;
        }
        match op {
            RamOp::Scan {
                rel, level, body, ..
            } => {
                let arity = self.db.rd(*rel).arity();
                self.bind_each(*rel, *level, vec![None; arity], body);
            }
            RamOp::IndexScan {
                rel,
                level,
                pattern,
                eqrel_swap,
                body,
                ..
            } => {
                let Some(mut bound) = self.pattern(pattern) else {
                    return;
                };
                // A symmetry probe carries its pattern flipped into the
                // probing order. An eqrel scan yields every ordered pair
                // of each class, so matching the pattern swapped back to
                // source order loses no binding.
                if *eqrel_swap {
                    bound.swap(0, 1);
                }
                self.bind_each(*rel, *level, bound, body);
            }
            RamOp::Filter { cond, body } => {
                if matches!(eval_cond(self.db, &self.levels, cond), Ok(true)) {
                    self.search(body);
                }
            }
            RamOp::Project { values, .. } => {
                let derives = values.iter().zip(self.target).all(
                    |(v, &want)| matches!(eval_expr(self.db, &self.levels, v), Ok(x) if x == want),
                );
                if derives {
                    self.stopped = !self.visitor.complete(&self.premises);
                }
            }
            RamOp::Aggregate {
                level,
                func,
                rel,
                pattern,
                value,
                body,
                ..
            } => {
                let Some(bound) = self.pattern(pattern) else {
                    return;
                };
                // Recomputed over the current database: aggregates read
                // strictly lower strata, final both when the target's
                // rule fired and by the time re-derivation visits this
                // one. The folded tuples are not premises.
                let db = self.db;
                let r = db.rd(*rel);
                let mut acc = AggAcc::new(*func);
                let mut folded = r.select(&bound);
                while let Some(t) = folded.next_tuple() {
                    acc.add(match value {
                        Some(e) => {
                            self.levels[*level] = t.to_vec();
                            let v = eval_expr(db, &self.levels, e);
                            self.levels[*level] = Vec::new();
                            match v {
                                Ok(v) => v,
                                Err(_) => return,
                            }
                        }
                        None => 0,
                    });
                }
                drop(folded);
                drop(r);
                if let Some(result) = acc.finish() {
                    self.levels[*level] = vec![result];
                    self.search(body);
                    self.levels[*level] = Vec::new();
                }
            }
        }
    }

    /// A search pattern's values under the current binding; `None` when
    /// one of them does not evaluate (a dead end).
    fn pattern(&self, pattern: &[Option<RamExpr>]) -> Option<Vec<Option<RamDomain>>> {
        let value = |p: &Option<RamExpr>| match p {
            Some(e) => eval_expr(self.db, &self.levels, e).ok().map(Some),
            None => Some(None),
        };
        pattern.iter().map(value).collect()
    }

    /// Binds `level`, one by one, to every tuple of `rel` that satisfies
    /// `bound` plus the level's head pins and that the visitor admits,
    /// recursing into `body` under each.
    fn bind_each(
        &mut self,
        rel: RelId,
        level: usize,
        mut bound: Vec<Option<RamDomain>>,
        body: &RamOp,
    ) {
        for &(l, col, v) in &self.pins {
            if l == level {
                match bound[col] {
                    Some(b) if b != v => return, // pattern contradicts the head
                    _ => bound[col] = Some(v),
                }
            }
        }
        // Collected so no relation guard is held across the recursion.
        // (Nullary atoms never scan: translation lowers them to
        // emptiness filters.)
        let mut candidates = self.db.rd(rel).select(&bound).collect_tuples();
        candidates.sort_unstable();
        for t in candidates {
            if self.stopped {
                return;
            }
            if !self.visitor.admit(&self.premises, rel, &t) {
                continue;
            }
            self.levels[level] = t.clone();
            self.premises.push((rel, t));
            self.search(body);
            self.premises.pop();
            self.levels[level] = Vec::new();
        }
    }
}

/// Evaluates `e` with `levels[l]` as the tuple bound at level `l`.
///
/// # Errors
///
/// An unbound level (an internal invariant violation, reported rather
/// than panicked on), a failing intrinsic, or an auto-increment draw.
pub(crate) fn eval_expr(
    db: &Database,
    levels: &[Vec<RamDomain>],
    e: &RamExpr,
) -> Result<RamDomain, EvalError> {
    match e {
        RamExpr::Constant(k) => Ok(*k),
        RamExpr::TupleElement { level, column } => levels[*level]
            .get(*column)
            .copied()
            .ok_or_else(|| EvalError::new("unbound tuple element")),
        RamExpr::Intrinsic { op, args } => {
            let mut vs = Vec::with_capacity(args.len());
            for a in args {
                vs.push(eval_expr(db, levels, a)?);
            }
            eval_intrinsic(*op, &vs, &db.symbols)
        }
        RamExpr::AutoIncrement => Err(EvalError::new("auto-increment rules cannot be re-matched")),
    }
}

/// Evaluates `c` under the same binding convention as [`eval_expr`],
/// against the database's current contents.
///
/// # Errors
///
/// Propagates [`eval_expr`] errors from the condition's operands.
pub(crate) fn eval_cond(
    db: &Database,
    levels: &[Vec<RamDomain>],
    c: &RamCond,
) -> Result<bool, EvalError> {
    match c {
        RamCond::True => Ok(true),
        RamCond::Conjunction(cs) => {
            for c in cs {
                if !eval_cond(db, levels, c)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        RamCond::Negation(inner) => Ok(!eval_cond(db, levels, inner)?),
        RamCond::Comparison { kind, lhs, rhs } => Ok(eval_cmp(
            *kind,
            eval_expr(db, levels, lhs)?,
            eval_expr(db, levels, rhs)?,
        )),
        RamCond::EmptinessCheck { rel } => Ok(db.rd(*rel).is_empty()),
        RamCond::ExistenceCheck { rel, pattern, .. } => {
            let mut bound = Vec::with_capacity(pattern.len());
            for p in pattern {
                bound.push(match p {
                    Some(e) => Some(eval_expr(db, levels, e)?),
                    None => None,
                });
            }
            let r = db.rd(*rel);
            Ok(match bound.iter().copied().collect::<Option<Vec<_>>>() {
                Some(total) => r.contains(&total),
                None => r.select(&bound).next_tuple().is_some(),
            })
        }
    }
}
