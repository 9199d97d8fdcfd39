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
//! of the optimizer and index selection — through the shared re-matcher
//! [`crate::rematch`], which pins the head's columns into the body atoms
//! and enumerates candidates by index lookup. This module only supplies
//! the question: the height bound, the minimization, the budget.
//!
//! Heights make the search sound and terminating: every internal node's
//! premises have strictly smaller heights, so recursion bottoms out at
//! height-0 input facts. Minimality makes proofs canonical: among all
//! derivations the one whose tallest premise is shortest is reported,
//! independent of rule order and worker count.

use crate::database::{Database, RULE_INPUT};
use crate::error::EvalError;
use crate::rematch::{self, Premise, Visitor};
use crate::value::Value;
use stir_ram::program::{RamProgram, RelId};
use stir_ram::stmt::RamStmt;

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
    let mut m = MinHeight {
        db,
        target_h: height,
        heights: Vec::new(),
        best: None,
        candidates: limits.max_candidates,
    };
    rematch::search(db, *levels, op, tuple, &mut m);
    match m.best {
        Some((_, premises)) => {
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

/// The `.explain` question put to [`rematch::search`]: among the bindings
/// whose premises all sit strictly below the target's height, the one
/// that minimizes the maximum premise height (the first such in the
/// walk's ascending candidate order).
struct MinHeight<'a> {
    db: &'a Database,
    target_h: u32,
    /// Height of each premise bound so far, outermost first.
    heights: Vec<u32>,
    /// Best complete binding: (max premise height, premises).
    best: Option<(u32, Vec<Premise>)>,
    /// Remaining candidate budget.
    candidates: usize,
}

impl Visitor for MinHeight<'_> {
    fn admit(&mut self, bound: &[Premise], rel: RelId, candidate: &[u32]) -> bool {
        if self.candidates == 0 {
            return false;
        }
        self.candidates -= 1;
        self.heights.truncate(bound.len());
        let h = self.db.rd(rel).annotation(candidate).map_or(0, |(h, _)| h);
        let max = self.heights.iter().fold(h, |m, &p| m.max(p));
        // Premises must sit strictly below the target; and once a proof
        // is known, only strictly lower maxima can improve it.
        if h >= self.target_h || self.best.as_ref().is_some_and(|(b, _)| max >= *b) {
            return false;
        }
        self.heights.push(h);
        true
    }

    fn complete(&mut self, premises: &[Premise]) -> bool {
        self.heights.truncate(premises.len());
        let max = self.heights.iter().copied().max().unwrap_or(0);
        if self.best.as_ref().is_none_or(|(b, _)| max < *b) {
            self.best = Some((max, premises.to_vec()));
        }
        true
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
