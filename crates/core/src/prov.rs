//! Proof-tree reconstruction over annotated databases (`.explain`).
//!
//! Annotated evaluation ([`crate::config::InterpreterConfig::provenance`])
//! records a `(height, rule)` pair for every tuple: the derivation epoch
//! that first produced it and the source rule that fired. This module
//! turns those annotations back into *minimal-height proof trees* by
//! height-constrained re-querying, following the approach of provenance
//! in Soufflé: to explain a tuple `t` of height `h` derived by rule `R`,
//! re-run `R`'s body over the full database restricted to premises of
//! height `< h`, pick the binding that minimizes the maximum premise
//! height, and recurse.
//!
//! The re-querying runs over the [`stir_ram::prov::ProvInfo`] plans — each
//! source rule re-lowered over the full base relations, outside the reach
//! of the optimizer and index selection — through a depth-first re-match
//! walk over the five [`RamOp`] shapes ([`Walk`]). The walk is
//! head-driven: columns the head projects straight out of a body atom
//! ([`head_pins`]) join that atom's search pattern, and every candidate
//! enumeration is one [`stir_der::relation::Relation::select`], so a
//! pinned column costs an index range, not a relation scan. The plans keep
//! the `usize::MAX` index placeholder (they are lowered outside index
//! selection); nothing here reads an index number. [`eval_expr`] and
//! [`eval_cond`] are the only evaluators of RAM expressions and conditions
//! outside the interpreter. (DRed's re-derive step asks a similar question
//! of a whole cone at once; it is a translated RAM statement,
//! [`stir_ram::program::RamStratum::rederive`].)
//!
//! Heights make the search sound and terminating: every internal node's
//! premises have strictly smaller heights, so recursion bottoms out at
//! height-0 input facts. Minimality makes proofs canonical: among all
//! derivations the one whose tallest premise is shortest is reported,
//! independent of rule order and worker count.

use crate::database::{Database, RULE_INPUT};
use crate::error::EvalError;
use crate::functors::{eval_cmp, eval_intrinsic};
use crate::interp::AggAcc;
use crate::value::Value;
use stir_der::iter::TupleIter;
use stir_ram::expr::{RamDomain, RamExpr};
use stir_ram::program::{RamProgram, RelId};
use stir_ram::stmt::{RamCond, RamOp, RamStmt};

/// One node of a proof tree: a fact, how it was derived, and the premise
/// sub-proofs.
#[derive(Debug, Clone, PartialEq)]
pub struct ProofNode {
    /// The fact's relation.
    pub rel: RelId,
    /// The fact, as source-order bit patterns.
    pub tuple: Vec<u32>,
    /// Annotated derivation height (`0` for input facts).
    pub height: u32,
    /// Annotated rule id (`RULE_INPUT` for input facts and facts without
    /// an annotation, e.g. equivalence-closure pairs).
    pub rule: u32,
    /// Source text of the firing rule (derived nodes only).
    pub label: Option<String>,
    /// The rule could not be re-matched (it draws auto-increment values,
    /// or the match budget ran out); premises are omitted.
    pub opaque: bool,
    /// The depth or node limit cut the tree here; premises are omitted.
    pub truncated: bool,
    /// Sub-proofs of the rule's positive body atoms, in the order its plan
    /// joins them.
    pub premises: Vec<ProofNode>,
}

impl ProofNode {
    /// Whether this node is an axiom leaf (input fact / ground fact).
    pub fn is_input(&self) -> bool {
        self.rule == RULE_INPUT
    }

    /// Total number of nodes in the tree.
    pub fn size(&self) -> usize {
        1 + self.premises.iter().map(ProofNode::size).sum::<usize>()
    }
}

/// Budget limits for proof-tree reconstruction.
#[derive(Debug, Clone, Copy)]
pub struct ExplainLimits {
    /// Maximum proof-tree depth; deeper premises are reported truncated.
    pub max_depth: usize,
    /// Maximum total proof-tree nodes.
    pub max_nodes: usize,
    /// Maximum candidate tuples examined per rule re-match; exhaustion
    /// renders the node opaque instead of looping on huge joins. Counts
    /// the tuples [`stir_der::relation::Relation::select`] yields —
    /// candidates that already satisfy the atom's bound columns (search
    /// pattern plus head pins) — not the tuples stored in the relation.
    pub max_candidates: usize,
}

impl Default for ExplainLimits {
    fn default() -> Self {
        ExplainLimits {
            max_depth: 64,
            max_nodes: 10_000,
            max_candidates: 100_000,
        }
    }
}

/// Reconstructs the minimal-height proof tree of `tuple` in `rel`.
///
/// # Errors
///
/// Fails when the database was not built with provenance enabled, when
/// `rel`'s tuple is not in the database (not derivable), or when the
/// recorded rule id is out of range (corrupt annotations).
pub fn explain(
    ram: &RamProgram,
    db: &Database,
    rel: RelId,
    tuple: &[u32],
    limits: &ExplainLimits,
) -> Result<ProofNode, EvalError> {
    if !db.provenance() {
        return Err(EvalError::new(
            "provenance is off: restart with --provenance to enable .explain",
        ));
    }
    if !db.rd(rel).contains(tuple) {
        let fact = format_fact(ram, db, rel, tuple);
        return Err(EvalError::new(format!("`{fact}` is not derivable")));
    }
    let mut nodes = limits.max_nodes;
    build(ram, db, rel, tuple, limits.max_depth, limits, &mut nodes)
}

/// Renders a tuple as `name(v1, v2, ...)` using the relation's declared
/// attribute types.
pub fn format_fact(ram: &RamProgram, db: &Database, rel: RelId, tuple: &[u32]) -> String {
    let meta = ram.relation(rel);
    let symbols = db.symbols_rd();
    let args: Vec<String> = tuple
        .iter()
        .zip(&meta.attr_types)
        .map(|(&bits, &ty)| Value::decode(bits, ty, &symbols).to_string())
        .collect();
    format!("{}({})", meta.name, args.join(", "))
}

/// Renders a proof tree as an indented listing, one fact per line: the
/// root first, each premise two spaces deeper, with the firing rule (or
/// `input`) in brackets.
pub fn render_proof(ram: &RamProgram, db: &Database, node: &ProofNode) -> String {
    let mut out = String::new();
    render_into(ram, db, node, 0, &mut out);
    out
}

fn render_into(ram: &RamProgram, db: &Database, node: &ProofNode, depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(&format_fact(ram, db, node.rel, &node.tuple));
    if node.is_input() {
        out.push_str("  [input]");
    } else {
        let rule = node.label.as_deref().unwrap_or("?");
        out.push_str(&format!("  [height {}] {}", node.height, rule));
        if node.opaque {
            out.push_str("  (opaque)");
        } else if node.truncated {
            out.push_str("  (depth limit)");
        }
    }
    out.push('\n');
    for p in &node.premises {
        render_into(ram, db, p, depth + 1, out);
    }
}

fn build(
    ram: &RamProgram,
    db: &Database,
    rel: RelId,
    tuple: &[u32],
    depth: usize,
    limits: &ExplainLimits,
    nodes: &mut usize,
) -> Result<ProofNode, EvalError> {
    *nodes = nodes.saturating_sub(1);
    // Tuples without an annotation (equivalence-closure pairs implied by
    // the union-find representation) read as height-0 axioms.
    let (height, rule) = db.rd(rel).annotation(tuple).unwrap_or((0, RULE_INPUT));
    let mut node = ProofNode {
        rel,
        tuple: tuple.to_vec(),
        height,
        rule,
        label: None,
        opaque: false,
        truncated: false,
        premises: Vec::new(),
    };
    if rule == RULE_INPUT {
        return Ok(node);
    }
    let prov_rule = ram
        .prov
        .rules
        .get(rule as usize)
        .ok_or_else(|| EvalError::new(format!("annotation names unknown rule #{rule}")))?;
    node.label = Some(prov_rule.label.clone());
    if prov_rule.opaque {
        node.opaque = true;
        return Ok(node);
    }
    if depth == 0 || *nodes == 0 {
        node.truncated = true;
        return Ok(node);
    }
    let Some(RamStmt::Query { levels, op, .. }) = &prov_rule.stmt else {
        node.opaque = true;
        return Ok(node);
    };
    match min_height_match(db, *levels, op, tuple, height, limits.max_candidates) {
        Some(premises) => {
            for (prel, pt) in premises {
                node.premises
                    .push(build(ram, db, prel, &pt, depth - 1, limits, nodes)?);
            }
        }
        // Budget exhausted before a binding was found (or, defensively,
        // no binding re-matched): report the rule without premises.
        None => node.opaque = true,
    }
    Ok(node)
}

/// A body atom bound during matching: relation and source-order tuple.
type Premise = (RelId, Vec<RamDomain>);

/// `(level, column, value)`: the head forces that position of the
/// level's candidate tuples to the target's value.
type Pin = (usize, usize, RamDomain);

/// Walks the plan `op` (with `nlevels` binding levels) depth-first over
/// the current database for the bindings that derive `target` from
/// premises strictly below `target_h`, and returns the premises (plan
/// order) of the one that minimizes the maximum premise height: the
/// first such in the walk's ascending candidate order, so which binding
/// wins never depends on which index enumerated the candidates. `None`
/// when no binding re-matched within `candidates` candidate tuples.
/// Evaluation errors (an overflowing intrinsic, an auto-increment draw)
/// are dead ends, not failures.
fn min_height_match(
    db: &Database,
    nlevels: usize,
    op: &RamOp,
    target: &[RamDomain],
    target_h: u32,
    candidates: usize,
) -> Option<Vec<Premise>> {
    // `None` pins: a constant head column contradicts the target.
    let pins = head_pins(projection(op), target)?;
    let mut walk = Walk {
        db,
        target,
        pins,
        levels: vec![Vec::new(); nlevels],
        premises: Vec::new(),
        target_h,
        heights: Vec::new(),
        best: None,
        candidates,
    };
    walk.search(op);
    walk.best.map(|(_, premises)| premises)
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
fn head_pins(project: &[RamExpr], target: &[RamDomain]) -> Option<Vec<Pin>> {
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

/// One [`min_height_match`] in progress.
struct Walk<'a> {
    db: &'a Database,
    target: &'a [RamDomain],
    pins: Vec<Pin>,
    /// Bound tuple per binding level (empty = unbound).
    levels: Vec<Vec<RamDomain>>,
    /// Body atoms bound so far, outermost first.
    premises: Vec<Premise>,
    /// Every premise must sit strictly below this height.
    target_h: u32,
    /// Height of each premise bound so far, outermost first.
    heights: Vec<u32>,
    /// Best complete binding: (max premise height, premises).
    best: Option<(u32, Vec<Premise>)>,
    /// Remaining candidate budget.
    candidates: usize,
}

impl Walk<'_> {
    fn search(&mut self, op: &RamOp) {
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
                    self.complete();
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
                // strictly lower strata, final when the target's rule
                // fired. The folded tuples are not premises.
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

    /// `candidate` of `rel` satisfies every bound column of the next body
    /// atom: descend into it? Only while budget remains, below the target's
    /// height, and — once a proof is known — when its maximum premise
    /// height can still improve on it.
    fn admit(&mut self, rel: RelId, candidate: &[RamDomain]) -> bool {
        if self.candidates == 0 {
            return false;
        }
        self.candidates -= 1;
        self.heights.truncate(self.premises.len());
        let h = self.db.rd(rel).annotation(candidate).map_or(0, |(h, _)| h);
        let max = self.heights.iter().fold(h, |m, &p| m.max(p));
        if h >= self.target_h || self.best.as_ref().is_some_and(|(b, _)| max >= *b) {
            return false;
        }
        self.heights.push(h);
        true
    }

    /// The current premises project onto the target: keep them if their
    /// maximum height beats the best binding so far.
    fn complete(&mut self) {
        self.heights.truncate(self.premises.len());
        let max = self.heights.iter().copied().max().unwrap_or(0);
        if self.best.as_ref().is_none_or(|(b, _)| max < *b) {
            self.best = Some((max, self.premises.clone()));
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
    /// `bound` plus the level's head pins and that [`Walk::admit`] admits,
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
            if !self.admit(rel, &t) {
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
fn eval_expr(
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
fn eval_cond(db: &Database, levels: &[Vec<RamDomain>], c: &RamCond) -> Result<bool, EvalError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InterpreterConfig;
    use crate::database::DataMode;
    use crate::interp::Interpreter;
    use crate::itree;
    use stir_frontend::parse_and_check;
    use stir_ram::translate::translate;

    fn annotated_db(src: &str, config: InterpreterConfig) -> (RamProgram, Database) {
        let ram = translate(&parse_and_check(src).expect("checks")).expect("translates");
        let db = Database::new_with(&ram, DataMode::Specialized, true);
        let tree = itree::build(&ram, &config);
        Interpreter::new(&ram, &db, config)
            .run(&tree)
            .expect("runs");
        (ram, db)
    }

    const TC: &str = "\
        .decl e(x: number, y: number)\n\
        .decl p(x: number, y: number)\n\
        .output p\n\
        e(1, 2). e(2, 3). e(3, 4).\n\
        p(x, y) :- e(x, y).\n\
        p(x, z) :- p(x, y), e(y, z).\n";

    fn check_heights(n: &ProofNode) {
        for p in &n.premises {
            assert!(p.height < n.height, "premise height must drop: {n:?}");
            check_heights(p);
        }
    }

    #[test]
    fn explains_transitive_closure_with_decreasing_heights() {
        let config = InterpreterConfig::optimized().with_provenance();
        let (ram, db) = annotated_db(TC, config);
        let p = ram.relation_by_name("p").unwrap().id;
        let proof = explain(&ram, &db, p, &[1, 4], &ExplainLimits::default()).expect("explains");
        assert_eq!(proof.tuple, vec![1, 4]);
        assert!(!proof.is_input());
        assert_eq!(proof.premises.len(), 2, "{proof:?}");
        check_heights(&proof);
        let rendered = render_proof(&ram, &db, &proof);
        assert!(rendered.contains("p(1, 4)"), "{rendered}");
        assert!(rendered.contains("[input]"), "{rendered}");
        assert!(rendered.contains(":-"), "{rendered}");
    }

    #[test]
    fn direct_facts_are_input_leaves() {
        let config = InterpreterConfig::optimized().with_provenance();
        let (ram, db) = annotated_db(TC, config);
        let e = ram.relation_by_name("e").unwrap().id;
        let proof = explain(&ram, &db, e, &[1, 2], &ExplainLimits::default()).expect("explains");
        assert!(proof.is_input());
        assert!(proof.premises.is_empty());
    }

    #[test]
    fn underivable_facts_and_provenance_off_error() {
        let config = InterpreterConfig::optimized().with_provenance();
        let (ram, db) = annotated_db(TC, config);
        let p = ram.relation_by_name("p").unwrap().id;
        let err = explain(&ram, &db, p, &[4, 1], &ExplainLimits::default()).unwrap_err();
        assert!(err.to_string().contains("not derivable"), "{err}");

        let plain = InterpreterConfig::optimized();
        let ram2 = translate(&parse_and_check(TC).expect("checks")).expect("translates");
        let db2 = Database::new_with(&ram2, DataMode::Specialized, false);
        let tree = itree::build(&ram2, &plain);
        Interpreter::new(&ram2, &db2, plain)
            .run(&tree)
            .expect("runs");
        let p2 = ram2.relation_by_name("p").unwrap().id;
        let err = explain(&ram2, &db2, p2, &[1, 2], &ExplainLimits::default()).unwrap_err();
        assert!(err.to_string().contains("provenance is off"), "{err}");
    }

    #[test]
    fn depth_limit_truncates() {
        let config = InterpreterConfig::optimized().with_provenance();
        let (ram, db) = annotated_db(TC, config);
        let p = ram.relation_by_name("p").unwrap().id;
        let limits = ExplainLimits {
            max_depth: 1,
            ..ExplainLimits::default()
        };
        let proof = explain(&ram, &db, p, &[1, 4], &limits).expect("explains");
        assert!(
            proof
                .premises
                .iter()
                .any(|n| n.truncated && n.premises.is_empty()),
            "{proof:?}"
        );
    }

    #[test]
    fn negation_and_arithmetic_rules_rematch() {
        let src = "\
            .decl a(x: number)\n.decl b(x: number)\n.decl r(x: number, y: number)\n\
            .output r\n\
            a(1). a(2). b(2).\n\
            r(x, y) :- a(x), !b(x), y = x * 10 + 1.\n";
        let config = InterpreterConfig::optimized().with_provenance();
        let (ram, db) = annotated_db(src, config);
        let r = ram.relation_by_name("r").unwrap().id;
        let proof = explain(&ram, &db, r, &[1, 11], &ExplainLimits::default()).expect("explains");
        assert_eq!(proof.premises.len(), 1);
        assert_eq!(proof.premises[0].tuple, vec![1]);
        check_heights(&proof);
    }

    #[test]
    fn aggregate_rules_rematch_via_recomputation() {
        let src = "\
            .decl e(x: number, y: number)\n.decl t(n: number)\n\
            .output t\n\
            e(1, 2). e(1, 3).\n\
            t(n) :- n = count : { e(1, _) }.\n";
        let config = InterpreterConfig::optimized().with_provenance();
        let (ram, db) = annotated_db(src, config);
        let t = ram.relation_by_name("t").unwrap().id;
        let proof = explain(&ram, &db, t, &[2], &ExplainLimits::default()).expect("explains");
        assert!(!proof.opaque, "{proof:?}");
        check_heights(&proof);
    }

    #[test]
    fn autoincrement_rules_are_opaque() {
        let src = "\
            .decl s(x: number)\n.decl tagged(x: number, id: number)\n\
            .output tagged\n\
            s(10).\n\
            tagged(x, $) :- s(x).\n";
        let config = InterpreterConfig::optimized().with_provenance();
        let (ram, db) = annotated_db(src, config);
        let tagged = ram.relation_by_name("tagged").unwrap().id;
        let rows = db.rd(tagged).to_sorted_tuples();
        let proof = explain(&ram, &db, tagged, &rows[0], &ExplainLimits::default()).expect("ok");
        assert!(proof.opaque);
        assert!(proof.premises.is_empty());
    }
}
