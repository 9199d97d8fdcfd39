//! Translation of a single Datalog rule into a RAM query.
//!
//! The translator, not the rule's author, chooses the join order (a
//! static SIPS, as Soufflé's). Outermost is an update-seed variant's
//! `upd_` atom or a re-derive variant's cone, else the first atom
//! written; then, among the atoms whose argument expressions can be
//! evaluated, the one with the most bound columns (constants, bound
//! variables, evaluable expressions). Ties go to the longest bound prefix
//! of the declared columns — authors declare relations key first
//! (`obj_type(o, t)`) — then to relations small by construction
//! (`.input`, the `delta_`/`upd_` frontiers), then to source order (a
//! re-derive variant swaps the first two). Positive atoms become scans
//! (indexed when bound values constrain columns); negations and
//! constraints are placed at the
//! earliest level where their variables are bound; equalities `X = e`
//! with unbound `X` become substitutions (every later use of `X`
//! re-evaluates `e`, exactly like Soufflé — this is what produces the
//! dispatch-heavy filters of the paper's §5.2 case study); aggregates
//! (already desugared to single-atom bodies) become `Aggregate`
//! operations once every atom is joined. A variable with an atom
//! position has that position's declared type whichever literal binds
//! it, so the order never changes how an operator is typed.

use crate::expr::{CmpKind, IntrinsicOp, RamExpr};
use crate::program::{RamRelation, RelId, ReprKind, Role};
use crate::stmt::{AggFunc, RamCond, RamOp, RamStmt};
use crate::translate::typing::{infer_var_types, join_numeric};
use crate::translate::TranslateError;
use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};
use stir_frontend::analysis::CheckedProgram;
use stir_frontend::ast::{
    AggKind, Atom, AttrType, BinOp, CmpOp, Constraint, Expr, Functor, Literal, Rule, UnOp,
};
use stir_frontend::SymbolTable;

/// Shared translation context for one rule.
pub struct RuleCx<'a> {
    /// The checked program (declarations, types).
    pub checked: &'a CheckedProgram,
    /// Relation name → id.
    pub rel_ids: &'a HashMap<String, RelId>,
    /// Relation metadata (for representations).
    pub relations: &'a [RamRelation],
    /// The engine-wide symbol table (string constants intern here).
    pub symbols: &'a mut SymbolTable,
    /// Index (into the desugared rule list) of the source rule currently
    /// being translated; stamped onto the query's `Project` so annotated
    /// evaluation can attribute derived tuples to their rule.
    pub current_rule: Option<u32>,
}

/// Which relation each positive SCC occurrence should scan.
#[derive(Debug, Clone, Default)]
pub struct RecursiveInfo {
    /// Relations of the current SCC.
    pub scc: BTreeSet<String>,
    /// `R → (delta_R, new_R)`.
    pub aux: HashMap<String, (RelId, RelId)>,
    /// Among the positive SCC body occurrences (counted left to right),
    /// which one scans `delta_R` (the others scan the full relation).
    /// `usize::MAX` makes every SCC occurrence scan the full relation
    /// (used by update-seed variants).
    pub delta_occurrence: usize,
    /// Among the positive non-SCC body occurrences of relations with
    /// `upd_` siblings (counted left to right), which one scans the
    /// `upd_` sibling instead of the full relation. Update-seed variants
    /// only; `None` leaves all non-SCC atoms on their full relations.
    pub upd_occurrence: Option<usize>,
    /// `U → upd_U` for every relation with an update sibling.
    pub upd: HashMap<String, RelId>,
    /// Permits the `$` counter. Update variants set this: any rule they
    /// re-translate already passed the main translation, which rejects
    /// `$` inside genuinely recursive rules.
    pub allow_counter: bool,
    /// Re-derive variants only: `(cone_R, upd_R)` for the rule's head `R`.
    /// The variant's outermost atom reads the cone, binding the head
    /// variables a positive body atom binds; every other head argument
    /// becomes an equality check (see `rederive_variant`), and the head
    /// projects into `upd_R`, which the body never reads.
    pub rederive: Option<(RelId, RelId)>,
}

enum Step {
    Scan {
        rel: RelId,
        level: usize,
    },
    IndexScan {
        rel: RelId,
        level: usize,
        pattern: Vec<Option<RamExpr>>,
        eqrel_swap: bool,
    },
    Filter(RamCond),
    Aggregate {
        level: usize,
        func: AggFunc,
        rel: RelId,
        pattern: Vec<Option<RamExpr>>,
        value: Option<RamExpr>,
    },
}

enum Pending {
    Neg(Atom),
    Con(Constraint),
}

struct Builder<'a, 'b> {
    cx: &'b mut RuleCx<'a>,
    /// Declared type of every variable that occupies an atom position.
    types: HashMap<String, AttrType>,
    bindings: HashMap<String, (RamExpr, AttrType)>,
    steps: Vec<Step>,
    level_arity: Vec<usize>,
    scanned: Vec<RelId>,
    recursive: bool,
    /// Ties go to small relations before long bound prefixes (re-derive
    /// variants, see [`Builder::most_bound`]).
    small_first: bool,
}

/// Translates one rule (or one delta-version of a recursive rule) into a
/// [`RamStmt::Query`].
///
/// `rec` carries semi-naive information; `None` translates the rule
/// non-recursively (head projects into the relation itself).
///
/// # Errors
///
/// Fails on type-incoherent expressions, `$` in recursive rules, and
/// internal invariant violations.
pub fn translate_rule(
    cx: &mut RuleCx<'_>,
    rule: &Rule,
    rec: Option<&RecursiveInfo>,
) -> Result<RamStmt, TranslateError> {
    let mut label = rule.to_string();
    let rederive = rec.and_then(|i| i.rederive);
    let (variant, head_checks) = match rederive {
        Some(_) => {
            let (variant, checks) = rederive_variant(rule);
            (Some(variant), checks)
        }
        None => (None, Vec::new()),
    };
    let rule = variant.as_ref().unwrap_or(rule);
    let mut b = Builder {
        types: infer_var_types(rule, cx.checked),
        cx,
        bindings: HashMap::new(),
        steps: Vec::new(),
        level_arity: Vec::new(),
        scanned: Vec::new(),
        recursive: rec.is_some_and(|i| !i.allow_counter),
        small_first: rederive.is_some(),
    };

    // Resolve every positive atom's relation in source order (the
    // delta/upd occurrence numbers count source positions); everything
    // else waits until its variables are bound.
    let mut atoms: Vec<(&Atom, RelId)> = Vec::new();
    let mut seed: Option<usize> = None;
    let mut pending: Vec<Pending> = Vec::new();
    let mut scc_occurrence = 0usize;
    let mut upd_occurrence = 0usize;
    for lit in &rule.body {
        match lit {
            Literal::Positive(atom) => {
                let rel = match (rec, rederive) {
                    (_, Some((cone, _))) if atoms.is_empty() => {
                        seed = Some(0);
                        cone
                    }
                    (Some(info), _) if info.scc.contains(&atom.name) => {
                        let (delta, _) = info.aux[&atom.name];
                        let r = if scc_occurrence == info.delta_occurrence {
                            delta
                        } else {
                            b.cx.rel_ids[&atom.name]
                        };
                        scc_occurrence += 1;
                        r
                    }
                    (Some(info), _) if info.upd.contains_key(&atom.name) => {
                        let r = if Some(upd_occurrence) == info.upd_occurrence {
                            seed = Some(atoms.len());
                            info.upd[&atom.name]
                        } else {
                            b.cx.rel_ids[&atom.name]
                        };
                        upd_occurrence += 1;
                        r
                    }
                    _ => b.cx.rel_ids[&atom.name],
                };
                atoms.push((atom, rel));
            }
            Literal::Negative(atom) => pending.push(Pending::Neg(atom.clone())),
            Literal::Constraint(c) => pending.push(Pending::Con(c.clone())),
        }
    }

    // Join order: the seed's `upd_` or cone atom, else the first placeable
    // atom in source order; then, greedily, the most-bound placeable atom.
    // The earliest remaining atom is placeable whenever source order would
    // have been, so this never fails where source order succeeds. Nothing
    // precedes a cone: its constant head columns must stay checks.
    if rederive.is_none() {
        b.flush_pending(&mut pending, false)?;
    }
    let mut next = seed
        .filter(|&i| b.placeable(atoms[i].0))
        .or_else(|| atoms.iter().position(|(a, _)| b.placeable(a)));
    while !atoms.is_empty() {
        let (atom, rel) = atoms.remove(next.take().unwrap_or(0));
        b.emit_positive(atom, rel)?;
        b.flush_pending(&mut pending, false)?;
        next = b.most_bound(&atoms);
    }
    // Final flush: aggregates are only placed here, once every variable
    // that the outer rule can bind is bound, so helper-atom variables
    // split correctly into keys (bound) and locals (unbound).
    b.flush_pending(&mut pending, true)?;
    if let Some(p) = pending.first() {
        let what = match p {
            Pending::Neg(a) => format!("negation !{a}"),
            Pending::Con(c) => format!("constraint {c}"),
        };
        return Err(TranslateError::new(format!(
            "internal error: could not place {what} (groundedness should have caught this)"
        )));
    }
    for c in &head_checks {
        b.place_constraint(c)?;
    }

    // Head values.
    let mut values = Vec::with_capacity(rule.head.args.len());
    for arg in &rule.head.args {
        let (e, _) = b.lower_expr(arg)?;
        values.push(e);
    }

    // Destination and duplicate guard.
    let (dest, guard) = match (rec, rederive) {
        (_, Some((_, upd))) => (upd, None),
        (Some(info), _) if info.scc.contains(&rule.head.name) => {
            let (_, new_rel) = info.aux[&rule.head.name];
            (new_rel, Some(b.cx.rel_ids[&rule.head.name]))
        }
        _ => (b.cx.rel_ids[&rule.head.name], None),
    };

    let mut op = RamOp::Project {
        rel: dest,
        values: values.clone(),
        rule: b.cx.current_rule,
    };
    if let Some(full) = guard {
        op = RamOp::Filter {
            cond: RamCond::Negation(Box::new(RamCond::ExistenceCheck {
                rel: full,
                index: usize::MAX,
                pattern: values.into_iter().map(Some).collect(),
            })),
            body: Box::new(op),
        };
    }

    // Fold the steps around the projection, innermost last.
    for step in b.steps.into_iter().rev() {
        op = match step {
            Step::Scan { rel, level } => RamOp::Scan {
                rel,
                level,
                parallel: false,
                body: Box::new(op),
            },
            Step::IndexScan {
                rel,
                level,
                pattern,
                eqrel_swap,
            } => RamOp::IndexScan {
                rel,
                index: usize::MAX,
                level,
                pattern,
                eqrel_swap,
                parallel: false,
                body: Box::new(op),
            },
            Step::Filter(cond) => RamOp::Filter {
                cond,
                body: Box::new(op),
            },
            Step::Aggregate {
                level,
                func,
                rel,
                pattern,
                value,
            } => RamOp::Aggregate {
                level,
                func,
                rel,
                index: usize::MAX,
                pattern,
                value,
                body: Box::new(op),
            },
        };
    }

    // Outermost short-circuit: skip the query if any scanned relation is
    // empty (paper Fig. 3, line 5).
    let mut unique: Vec<RelId> = Vec::new();
    for r in b.scanned {
        if !unique.contains(&r) {
            unique.push(r);
        }
    }
    if !unique.is_empty() {
        let cond = unique
            .into_iter()
            .map(|rel| RamCond::Negation(Box::new(RamCond::EmptinessCheck { rel })))
            .reduce(RamCond::and)
            .expect("nonempty");
        op = RamOp::Filter {
            cond,
            body: Box::new(op),
        };
    }

    // Mark every scan level for morsel-driven execution. The interpreter
    // decides once per rule evaluation, at the first marked scan it
    // reaches: a range of more than one morsel fans out there, anything
    // smaller keeps the whole rule sequential. Rules drawing fresh
    // auto-increment values stay unmarked — the values a worker draws
    // would depend on the schedule.
    if !op.uses_autoincrement() {
        mark_scans_parallel(&mut op);
    }

    if let Some(info) = rec {
        if rederive.is_some() {
            label.push_str(" [rederive]");
        } else if let Some(u) = info.upd_occurrence {
            label.push_str(&format!(" [upd #{u}]"));
        } else {
            label.push_str(&format!(" [delta #{}]", info.delta_occurrence));
        }
    }
    Ok(RamStmt::Query {
        label,
        levels: b.level_arity.len(),
        level_arity: b.level_arity,
        op,
    })
}

/// Marks every `Scan`/`IndexScan` in an operation tree for parallel
/// execution, descending through filters, scans, and aggregate
/// continuations. Whether the rule fans out is a runtime decision (see
/// the interpreter's `fan_out`).
fn mark_scans_parallel(op: &mut RamOp) {
    match op {
        RamOp::Filter { body, .. } => mark_scans_parallel(body),
        RamOp::Scan { parallel, body, .. } | RamOp::IndexScan { parallel, body, .. } => {
            *parallel = true;
            mark_scans_parallel(body);
        }
        RamOp::Aggregate { body, .. } => mark_scans_parallel(body),
        _ => {}
    }
}

/// `rule` as its re-derive variant `R(c…) :- R(c…), body, c_i = a_i…`
/// for the head `R(a…)`, plus the head checks to place after the body.
///
/// The leading atom reads the cone. A head variable that a positive body
/// atom binds keeps its name there (its first occurrence); every other
/// column gets a fresh `+i`, a name no source program can spell, and the
/// check `+i = a_i`. So the body keeps its forward meaning: a variable it
/// defines by substitution (`q = h / d`, an aggregate) stays a
/// substitution, evaluated after every guard. Checks against a constant
/// or a repeated cone variable cannot fail to evaluate and prune right
/// after the cone; the rest run after the last body level, where the
/// forward plan's projection evaluates the same expressions. The head
/// projects the cone tuple itself.
fn rederive_variant(rule: &Rule) -> (Rule, Vec<Constraint>) {
    let atom_bound: BTreeSet<&str> = (rule.body.iter())
        .filter_map(|l| match l {
            Literal::Positive(a) => Some(a.args.iter()),
            _ => None,
        })
        .flatten()
        .filter_map(|e| match e {
            Expr::Var(v, _) => Some(v.as_str()),
            _ => None,
        })
        .collect();
    let mut args: Vec<Expr> = Vec::new();
    let (mut early, mut late) = (Vec::new(), Vec::new());
    for (i, arg) in rule.head.args.iter().enumerate() {
        let in_cone = |v: &str| args.iter().any(|a| matches!(a, Expr::Var(w, _) if w == v));
        let checks = match arg {
            Expr::Var(v, _) if atom_bound.contains(v.as_str()) && !in_cone(v) => {
                args.push(arg.clone());
                continue;
            }
            Expr::Var(v, _) if in_cone(v) => &mut early,
            Expr::Number(..) | Expr::Float(..) | Expr::Str(..) => &mut early,
            _ => &mut late,
        };
        let fresh = Expr::Var(format!("+{i}"), rule.span);
        checks.push(Constraint {
            op: CmpOp::Eq,
            lhs: fresh.clone(),
            rhs: arg.clone(),
            span: rule.span,
        });
        args.push(fresh);
    }
    let cone = Atom {
        args,
        ..rule.head.clone()
    };
    let body = std::iter::once(Literal::Positive(cone.clone()))
        .chain(early.into_iter().map(Literal::Constraint))
        .chain(rule.body.iter().cloned())
        .collect();
    let variant = Rule {
        head: cone,
        body,
        span: rule.span,
    };
    (variant, late)
}

impl Builder<'_, '_> {
    /// Whether every argument of `atom` that is not a plain variable can be
    /// evaluated under the current bindings.
    fn placeable(&self, atom: &Atom) -> bool {
        atom.args.iter().all(|a| match a {
            Expr::Var(..) | Expr::Wildcard(_) => true,
            e => !contains_aggregate(e) && self.expr_ready(e),
        })
    }

    /// The next atom to join: among the placeable ones, a nullary presence
    /// test first, then the most bound columns, then the longest bound
    /// prefix of the declared columns, then the small relations (`.input`,
    /// and the `delta_`/`upd_` frontiers), then source order.
    ///
    /// A re-derive variant swaps the two middle tie-breaks. Its cone binds
    /// every head column before the body is joined, so a prefix bound by
    /// the head (`x` of `p(x, y)` in `p(x, z) :- p(x, y), e(y, z)`) names
    /// a whole derived row; the small relation is probed instead, and any
    /// index the variant adds lands on an input, not on a relation every
    /// fixpoint iteration writes.
    fn most_bound(&self, atoms: &[(&Atom, RelId)]) -> Option<usize> {
        let key = |i: usize| {
            let (atom, rel) = atoms[i];
            let bound: Vec<bool> = (atom.args)
                .iter()
                .map(|e| match e {
                    Expr::Var(v, _) => self.bindings.contains_key(v),
                    Expr::Wildcard(_) => false,
                    _ => true,
                })
                .collect();
            let r = &self.cx.relations[rel.0];
            let prefix = bound.iter().take_while(|&&b| b).count();
            let small = usize::from(r.is_input || r.role != Role::Standard);
            let ties = if self.small_first {
                (small, prefix)
            } else {
                (prefix, small)
            };
            (
                atom.args.is_empty(),
                bound.iter().filter(|&&b| b).count(),
                ties,
                Reverse(i),
            )
        };
        (0..atoms.len())
            .filter(|&i| self.placeable(atoms[i].0))
            .max_by_key(|&i| key(i))
    }

    fn emit_positive(&mut self, atom: &Atom, rel: RelId) -> Result<(), TranslateError> {
        let arity = atom.args.len();
        if arity == 0 {
            // A nullary atom is a presence test.
            self.steps.push(Step::Filter(RamCond::Negation(Box::new(
                RamCond::EmptinessCheck { rel },
            ))));
            return Ok(());
        }
        self.scanned.push(rel);
        let level = self.level_arity.len();
        self.level_arity.push(arity);

        let decl = self.cx.checked.decl(&atom.name);
        // Pass 1: bind the fresh variables of this atom, remembering which
        // columns are already constrained by earlier bindings.
        let mut bound_before: Vec<Option<RamExpr>> = vec![None; arity];
        for (c, arg) in atom.args.iter().enumerate() {
            if let Expr::Var(v, _) = arg {
                match self.bindings.get(v) {
                    None => {
                        self.bindings.insert(
                            v.clone(),
                            (RamExpr::TupleElement { level, column: c }, decl.attrs[c].ty),
                        );
                    }
                    Some((expr, _)) => bound_before[c] = Some(expr.clone()),
                }
            }
        }
        // Pass 2: build the search pattern; anything touching this very
        // level (intra-tuple equalities, expressions over freshly bound
        // variables) becomes a filter inside the scan instead.
        let mut pattern: Vec<Option<RamExpr>> = vec![None; arity];
        let mut intra: Vec<RamCond> = Vec::new();
        for (c, arg) in atom.args.iter().enumerate() {
            let expr = match arg {
                Expr::Wildcard(_) => continue,
                Expr::Var(_, _) => match bound_before[c].take() {
                    Some(e) => e,
                    None => continue, // freshly bound at this column
                },
                other => self.lower_expr(other)?.0,
            };
            if refers_to_level(&expr, level) {
                intra.push(RamCond::Comparison {
                    kind: CmpKind::Eq,
                    lhs: RamExpr::TupleElement { level, column: c },
                    rhs: expr,
                });
            } else {
                pattern[c] = Some(expr);
            }
        }

        let all_free = pattern.iter().all(Option::is_none);
        if all_free {
            self.steps.push(Step::Scan { rel, level });
        } else {
            let mut pattern = pattern;
            let mut eqrel_swap = false;
            // Equivalence relations are symmetric: a second-column-only
            // probe can flip to a first-column probe.
            if self.cx.relations[rel.0].repr == ReprKind::EqRel
                && pattern[0].is_none()
                && pattern[1].is_some()
            {
                pattern.swap(0, 1);
                eqrel_swap = true;
            }
            self.steps.push(Step::IndexScan {
                rel,
                level,
                pattern,
                eqrel_swap,
            });
        }
        for cond in intra {
            self.steps.push(Step::Filter(cond));
        }
        Ok(())
    }

    /// Repeatedly places pending negations/constraints that have become
    /// evaluable. Constraints containing aggregates are held back until the
    /// final flush (`aggregates_too`), so that aggregate keys are fully
    /// bound before key/local splitting.
    fn flush_pending(
        &mut self,
        pending: &mut Vec<Pending>,
        aggregates_too: bool,
    ) -> Result<(), TranslateError> {
        loop {
            let mut placed_any = false;
            let mut i = 0;
            while i < pending.len() {
                let ready = match &pending[i] {
                    Pending::Neg(atom) => atom
                        .args
                        .iter()
                        .all(|a| matches!(a, Expr::Wildcard(_)) || self.expr_ready(a)),
                    Pending::Con(c) => {
                        (aggregates_too
                            || (!contains_aggregate(&c.lhs) && !contains_aggregate(&c.rhs)))
                            && self.constraint_ready(c)
                    }
                };
                if ready {
                    match pending.remove(i) {
                        Pending::Neg(atom) => self.place_negation(&atom)?,
                        Pending::Con(c) => self.place_constraint(&c)?,
                    }
                    placed_any = true;
                } else {
                    i += 1;
                }
            }
            if !placed_any {
                return Ok(());
            }
        }
    }

    fn expr_ready(&self, e: &Expr) -> bool {
        match e {
            Expr::Var(v, _) => self.bindings.contains_key(v),
            Expr::Wildcard(_) => false,
            Expr::Number(..) | Expr::Float(..) | Expr::Str(..) | Expr::Counter(_) => true,
            Expr::Binary { lhs, rhs, .. } => self.expr_ready(lhs) && self.expr_ready(rhs),
            Expr::Unary { expr, .. } => self.expr_ready(expr),
            Expr::Call { args, .. } => args.iter().all(|a| self.expr_ready(a)),
            Expr::Aggregate { body, value, .. } => {
                // Ready when the key columns (outer-bound vars) are bound,
                // i.e. every body-atom var is either bound outside or local
                // (locals are always "ready" — the aggregate binds them).
                // After desugaring, the body is a single helper atom whose
                // args are all vars; aggregate readiness only needs outer
                // vars, so it is always placeable once its keys resolve.
                // Keys are exactly the vars that are bound at some point in
                // the outer rule; to keep placement simple we require that
                // every var that *can* be bound outside already is. In
                // practice: a var is a key iff it is currently bound; the
                // rest are locals.
                let _ = (body, value);
                true
            }
        }
    }

    fn constraint_ready(&self, c: &Constraint) -> bool {
        // An equality with a lone unbound variable on one side becomes a
        // binding as soon as the other side is ready.
        if c.op == CmpOp::Eq {
            match (&c.lhs, &c.rhs) {
                (Expr::Var(v, _), rhs) if !self.bindings.contains_key(v) => {
                    return self.expr_ready(rhs)
                }
                (lhs, Expr::Var(v, _)) if !self.bindings.contains_key(v) => {
                    return self.expr_ready(lhs)
                }
                _ => {}
            }
        }
        self.expr_ready(&c.lhs) && self.expr_ready(&c.rhs)
    }

    fn place_negation(&mut self, atom: &Atom) -> Result<(), TranslateError> {
        let rel = self.cx.rel_ids[&atom.name];
        if atom.args.is_empty() {
            self.steps
                .push(Step::Filter(RamCond::EmptinessCheck { rel }));
            return Ok(());
        }
        let mut pattern = Vec::with_capacity(atom.args.len());
        for arg in &atom.args {
            if matches!(arg, Expr::Wildcard(_)) {
                pattern.push(None);
            } else {
                let (e, _) = self.lower_expr(arg)?;
                pattern.push(Some(e));
            }
        }
        self.steps.push(Step::Filter(RamCond::Negation(Box::new(
            RamCond::ExistenceCheck {
                rel,
                index: usize::MAX,
                pattern,
            },
        ))));
        Ok(())
    }

    fn place_constraint(&mut self, c: &Constraint) -> Result<(), TranslateError> {
        // Binding equality? A variable with an atom position keeps that
        // position's declared type, whichever side defines it.
        if c.op == CmpOp::Eq {
            let binding = match (&c.lhs, &c.rhs) {
                (Expr::Var(v, _), def) | (def, Expr::Var(v, _))
                    if !self.bindings.contains_key(v) =>
                {
                    Some((v, def))
                }
                _ => None,
            };
            if let Some((v, def)) = binding {
                let (e, ty) = self.lower_expr(def)?;
                let ty = self.types.get(v).copied().unwrap_or(ty);
                self.bindings.insert(v.clone(), (e, ty));
                return Ok(());
            }
        }
        let (lhs, lty) = self.lower_expr(&c.lhs)?;
        let (rhs, rty) = self.lower_expr(&c.rhs)?;
        let kind = cmp_kind(c.op, lty, rty)?;
        self.steps
            .push(Step::Filter(RamCond::Comparison { kind, lhs, rhs }));
        Ok(())
    }

    /// Emits an aggregate operation and returns the expression referring
    /// to its result.
    fn place_aggregate(
        &mut self,
        kind: AggKind,
        value: &Option<Box<Expr>>,
        body: &[Literal],
    ) -> Result<(RamExpr, AttrType), TranslateError> {
        // After desugaring, the body is exactly one positive helper atom.
        let [Literal::Positive(helper)] = body else {
            return Err(TranslateError::new(
                "internal error: aggregate body was not desugared to a single atom",
            ));
        };
        let rel = self.cx.rel_ids[&helper.name];
        let arity = helper.args.len();
        let level = self.level_arity.len();
        self.level_arity.push(arity.max(1));
        self.scanned.push(rel);

        // Pattern: bound vars are keys; locals bind at the aggregate level
        // (visible only to the value expression).
        let decl = self.cx.checked.decl(&helper.name);
        let mut pattern: Vec<Option<RamExpr>> = vec![None; arity];
        let mut locals: Vec<String> = Vec::new();
        for (c, arg) in helper.args.iter().enumerate() {
            let Expr::Var(v, _) = arg else {
                return Err(TranslateError::new(
                    "internal error: helper atom argument is not a variable",
                ));
            };
            match self.bindings.get(v) {
                Some((e, _)) => pattern[c] = Some(e.clone()),
                None => {
                    self.bindings.insert(
                        v.clone(),
                        (RamExpr::TupleElement { level, column: c }, decl.attrs[c].ty),
                    );
                    locals.push(v.clone());
                }
            }
        }

        let (value_expr, vty) = match value {
            Some(v) => {
                let (e, ty) = self.lower_expr(v)?;
                (Some(e), ty)
            }
            None => (None, AttrType::Number),
        };
        // Locals go out of scope after the aggregate.
        for v in locals {
            self.bindings.remove(&v);
        }

        let (func, result_ty) = match (kind, vty) {
            (AggKind::Count, _) => (AggFunc::Count, AttrType::Number),
            (AggKind::Sum, AttrType::Float) => (AggFunc::SumF, AttrType::Float),
            (AggKind::Sum, AttrType::Unsigned) => (AggFunc::SumU, AttrType::Unsigned),
            (AggKind::Sum, _) => (AggFunc::SumS, AttrType::Number),
            (AggKind::Min, AttrType::Float) => (AggFunc::MinF, AttrType::Float),
            (AggKind::Min, AttrType::Unsigned) => (AggFunc::MinU, AttrType::Unsigned),
            (AggKind::Min, _) => (AggFunc::MinS, AttrType::Number),
            (AggKind::Max, AttrType::Float) => (AggFunc::MaxF, AttrType::Float),
            (AggKind::Max, AttrType::Unsigned) => (AggFunc::MaxU, AttrType::Unsigned),
            (AggKind::Max, _) => (AggFunc::MaxS, AttrType::Number),
        };
        self.steps.push(Step::Aggregate {
            level,
            func,
            rel,
            pattern,
            value: value_expr,
        });
        Ok((RamExpr::TupleElement { level, column: 0 }, result_ty))
    }

    fn lower_expr(&mut self, e: &Expr) -> Result<(RamExpr, AttrType), TranslateError> {
        match e {
            Expr::Var(v, _) => self
                .bindings
                .get(v)
                .cloned()
                .ok_or_else(|| TranslateError::new(format!("internal error: unbound `{v}`"))),
            Expr::Wildcard(_) => Err(TranslateError::new(
                "internal error: wildcard in value position",
            )),
            Expr::Number(n, _) => {
                if let Ok(v) = i32::try_from(*n) {
                    Ok((RamExpr::Constant(v as u32), AttrType::Number))
                } else if let Ok(v) = u32::try_from(*n) {
                    Ok((RamExpr::Constant(v), AttrType::Unsigned))
                } else {
                    Err(TranslateError::new(format!(
                        "integer literal {n} out of 32-bit range"
                    )))
                }
            }
            Expr::Float(x, _) => Ok((RamExpr::Constant(x.to_bits()), AttrType::Float)),
            Expr::Str(s, _) => Ok((
                RamExpr::Constant(self.cx.symbols.intern(s)),
                AttrType::Symbol,
            )),
            Expr::Counter(_) => {
                if self.recursive {
                    return Err(TranslateError::new(
                        "the counter `$` is not allowed in recursive rules",
                    ));
                }
                Ok((RamExpr::AutoIncrement, AttrType::Number))
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let (l, lt) = self.lower_expr(lhs)?;
                let (r, rt) = self.lower_expr(rhs)?;
                let (iop, ty) = bin_op(*op, lt, rt)?;
                Ok((RamExpr::intrinsic(iop, vec![l, r]), ty))
            }
            Expr::Unary { op, expr, .. } => {
                let (x, ty) = self.lower_expr(expr)?;
                let (iop, ty) = un_op(*op, ty)?;
                Ok((RamExpr::intrinsic(iop, vec![x]), ty))
            }
            Expr::Call { func, args, .. } => {
                let mut lowered = Vec::with_capacity(args.len());
                let mut types = Vec::with_capacity(args.len());
                for a in args {
                    let (e, t) = self.lower_expr(a)?;
                    lowered.push(e);
                    types.push(t);
                }
                let (iop, ty) = functor_op(*func, &types)?;
                Ok((RamExpr::intrinsic(iop, lowered), ty))
            }
            Expr::Aggregate {
                kind, value, body, ..
            } => self.place_aggregate(*kind, value, body),
        }
    }
}

fn contains_aggregate(e: &Expr) -> bool {
    match e {
        Expr::Aggregate { .. } => true,
        Expr::Binary { lhs, rhs, .. } => contains_aggregate(lhs) || contains_aggregate(rhs),
        Expr::Unary { expr, .. } => contains_aggregate(expr),
        Expr::Call { args, .. } => args.iter().any(contains_aggregate),
        _ => false,
    }
}

fn refers_to_level(e: &RamExpr, level: usize) -> bool {
    match e {
        RamExpr::TupleElement { level: l, .. } => *l == level,
        RamExpr::Intrinsic { args, .. } => args.iter().any(|a| refers_to_level(a, level)),
        _ => false,
    }
}

fn bin_op(
    op: BinOp,
    lt: AttrType,
    rt: AttrType,
) -> Result<(IntrinsicOp, AttrType), TranslateError> {
    use AttrType::*;
    use IntrinsicOp::*;
    // String-typed operands are only legal in string functors.
    let ty = join_numeric(lt, rt, &format!("operator `{op}`"))?;
    let iop = match (op, ty) {
        (BinOp::Add, Float) => AddF,
        (BinOp::Add, _) => Add,
        (BinOp::Sub, Float) => SubF,
        (BinOp::Sub, _) => Sub,
        (BinOp::Mul, Float) => MulF,
        (BinOp::Mul, _) => Mul,
        (BinOp::Div, Float) => DivF,
        (BinOp::Div, Unsigned) => DivU,
        (BinOp::Div, _) => DivS,
        (BinOp::Mod, Unsigned) => ModU,
        (BinOp::Mod, Number) => ModS,
        (BinOp::Mod, _) => return Err(TranslateError::new("`%` is not defined on floats")),
        (BinOp::Pow, Float) => PowF,
        (BinOp::Pow, Unsigned) => PowU,
        (BinOp::Pow, _) => PowS,
        (BinOp::Band | BinOp::Bor | BinOp::Bxor | BinOp::Bshl | BinOp::Bshr, Float) => {
            return Err(TranslateError::new(
                "bitwise operators are not defined on floats",
            ))
        }
        (BinOp::Band, _) => BAnd,
        (BinOp::Bor, _) => BOr,
        (BinOp::Bxor, _) => BXor,
        (BinOp::Bshl, _) => BShl,
        (BinOp::Bshr, Unsigned) => BShrU,
        (BinOp::Bshr, _) => BShrS,
        (BinOp::Land, Float) | (BinOp::Lor, Float) => {
            return Err(TranslateError::new(
                "logical operators are not defined on floats",
            ))
        }
        (BinOp::Land, _) => LAnd,
        (BinOp::Lor, _) => LOr,
    };
    Ok((iop, ty))
}

fn un_op(op: UnOp, ty: AttrType) -> Result<(IntrinsicOp, AttrType), TranslateError> {
    use AttrType::*;
    match (op, ty) {
        (_, Symbol) => Err(TranslateError::new(
            "symbol value used in numeric operation",
        )),
        (UnOp::Neg, Float) => Ok((IntrinsicOp::NegF, Float)),
        (UnOp::Neg, _) => Ok((IntrinsicOp::Neg, Number)),
        (UnOp::Bnot, Float) | (UnOp::Lnot, Float) => Err(TranslateError::new(
            "bitwise/logical not is not defined on floats",
        )),
        (UnOp::Bnot, t) => Ok((IntrinsicOp::BNot, t)),
        (UnOp::Lnot, t) => Ok((IntrinsicOp::LNot, t)),
    }
}

fn functor_op(
    func: Functor,
    types: &[AttrType],
) -> Result<(IntrinsicOp, AttrType), TranslateError> {
    use AttrType::*;
    use IntrinsicOp::*;
    let expect_symbol = |i: usize| -> Result<(), TranslateError> {
        if types[i] != Symbol {
            return Err(TranslateError::new(format!(
                "functor `{}` expects a symbol argument",
                func.name()
            )));
        }
        Ok(())
    };
    match func {
        Functor::Cat => {
            expect_symbol(0)?;
            expect_symbol(1)?;
            Ok((Cat, Symbol))
        }
        Functor::Ord => {
            expect_symbol(0)?;
            Ok((Ord, Number))
        }
        Functor::Strlen => {
            expect_symbol(0)?;
            Ok((Strlen, Number))
        }
        Functor::Substr => {
            expect_symbol(0)?;
            Ok((Substr, Symbol))
        }
        Functor::ToNumber => {
            expect_symbol(0)?;
            Ok((ToNumber, Number))
        }
        Functor::ToString => Ok((ToString, Symbol)),
        Functor::Min | Functor::Max => {
            let ty = join_numeric(types[0], types[1], "min/max")?;
            let iop = match (func, ty) {
                (Functor::Min, Float) => MinF,
                (Functor::Min, Unsigned) => MinU,
                (Functor::Min, _) => MinS,
                (Functor::Max, Float) => MaxF,
                (Functor::Max, Unsigned) => MaxU,
                (Functor::Max, _) => MaxS,
                _ => unreachable!(),
            };
            Ok((iop, ty))
        }
    }
}

fn cmp_kind(op: CmpOp, lt: AttrType, rt: AttrType) -> Result<CmpKind, TranslateError> {
    use AttrType::*;
    if op == CmpOp::Eq {
        return Ok(CmpKind::Eq);
    }
    if op == CmpOp::Ne {
        return Ok(CmpKind::Ne);
    }
    if lt == Symbol || rt == Symbol {
        return Err(TranslateError::new(
            "ordered comparison of symbols is not supported",
        ));
    }
    let ty = join_numeric(lt, rt, "comparison")?;
    Ok(match (op, ty) {
        (CmpOp::Lt, Float) => CmpKind::LtF,
        (CmpOp::Lt, Unsigned) => CmpKind::LtU,
        (CmpOp::Lt, _) => CmpKind::LtS,
        (CmpOp::Le, Float) => CmpKind::LeF,
        (CmpOp::Le, Unsigned) => CmpKind::LeU,
        (CmpOp::Le, _) => CmpKind::LeS,
        (CmpOp::Gt, Float) => CmpKind::GtF,
        (CmpOp::Gt, Unsigned) => CmpKind::GtU,
        (CmpOp::Gt, _) => CmpKind::GtS,
        (CmpOp::Ge, Float) => CmpKind::GeF,
        (CmpOp::Ge, Unsigned) => CmpKind::GeU,
        (CmpOp::Ge, _) => CmpKind::GeS,
        (CmpOp::Eq | CmpOp::Ne, _) => unreachable!(),
    })
}
