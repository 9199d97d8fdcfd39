//! AST → RAM translation.
//!
//! Strata are lowered in bottom-up order. A non-recursive stratum is a
//! sequence of queries; a recursive stratum becomes the semi-naive loop of
//! the paper's Fig. 3, with one `delta_R`/`new_R` pair per SCC relation
//! and one query per (rule, delta-occurrence) combination. After
//! translation, [`crate::index_selection::assign_indexes`] computes each
//! relation's index set and patches every search site.

pub mod desugar;
pub mod rule;
pub mod typing;

use crate::expr::RamDomain;
use crate::index_selection::assign_indexes;
use crate::program::{RamProgram, RamRelation, RamStratum, RelId, ReprKind, Role, TranslateStats};
use crate::stmt::{RamCond, RamStmt};
use crate::translate::rule::{translate_rule, RecursiveInfo, RuleCx};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use stir_frontend::analysis::CheckedProgram;
use stir_frontend::ast::{AttrType, Expr, Literal, ReprHint, Rule};
use stir_frontend::SymbolTable;

/// A translation failure (type-incoherent expression, unsupported
/// construct, or internal invariant violation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslateError {
    /// Human-readable description.
    pub msg: String,
}

impl TranslateError {
    /// Creates an error.
    pub fn new(msg: impl Into<String>) -> Self {
        TranslateError { msg: msg.into() }
    }
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "translation error: {}", self.msg)
    }
}

impl std::error::Error for TranslateError {}

/// Translates a checked program into RAM.
///
/// # Errors
///
/// See [`TranslateError`]; notably, `eqrel` relations may not be heads of
/// recursive strata (their union-find representation computes closures
/// eagerly and has no delta semantics).
pub fn translate(checked: &CheckedProgram) -> Result<RamProgram, TranslateError> {
    // Aggregates become helper relations; re-analyze if anything changed.
    let (desugared, changed) = desugar::desugar_aggregates(&checked.ast);
    let owned;
    let checked = if changed {
        let mut desugared = desugared;
        desugar::fix_helper_types(&mut desugared);
        owned = stir_frontend::analyze(desugared)
            .map_err(|e| TranslateError::new(format!("internal desugaring error: {e}")))?;
        &owned
    } else {
        checked
    };

    let mut relations: Vec<RamRelation> = Vec::new();
    let mut rel_ids: HashMap<String, RelId> = HashMap::new();
    for (i, d) in checked.ast.decls.iter().enumerate() {
        let info = &checked.relations[&d.name];
        debug_assert_eq!(info.decl_index, i);
        let id = RelId(relations.len());
        rel_ids.insert(d.name.clone(), id);
        relations.push(RamRelation {
            id,
            name: d.name.clone(),
            arity: d.arity(),
            attr_types: d.attrs.iter().map(|a| a.ty).collect(),
            repr: match d.repr {
                ReprHint::Default | ReprHint::BTree => ReprKind::BTree,
                ReprHint::Brie => ReprKind::Brie,
                ReprHint::EqRel => ReprKind::EqRel,
            },
            orders: Vec::new(),
            role: Role::Standard,
            is_input: info.is_input,
            is_output: info.is_output,
        });
    }

    // delta_R / new_R for recursive strata.
    let mut aux: HashMap<String, (RelId, RelId)> = HashMap::new();
    for stratum in &checked.strata {
        if !stratum.recursive {
            continue;
        }
        for name in &stratum.relations {
            let base = rel_ids[name];
            let base_rel = relations[base.0].clone();
            if base_rel.repr == ReprKind::EqRel {
                return Err(TranslateError::new(format!(
                    "eqrel relation `{name}` may not be recursive (its union-find \
                     representation computes closures eagerly; define it with \
                     non-recursive rules instead)"
                )));
            }
            let mut mk = |prefix: &str, role: Role| {
                let id = RelId(relations.len());
                rel_ids.insert(format!("{prefix}{name}"), id);
                relations.push(RamRelation {
                    id,
                    name: format!("{prefix}{name}"),
                    arity: base_rel.arity,
                    attr_types: base_rel.attr_types.clone(),
                    repr: base_rel.repr,
                    orders: Vec::new(),
                    role,
                    is_input: false,
                    is_output: false,
                });
                id
            };
            let delta = mk("delta_", Role::Delta(base));
            let new = mk("new_", Role::New(base));
            aux.insert(name.clone(), (delta, new));
        }
    }

    // upd_R for every servable relation: the staging area a resident
    // engine fills with the tuples added to R during one incremental
    // update cycle (user inserts plus newly derived tuples), consumed by
    // the update statements of downstream strata. EqRel relations are
    // excluded — their eager closure has no delta semantics, so their
    // strata recompute instead.
    let mut upd_ids: HashMap<String, RelId> = HashMap::new();
    for i in 0..relations.len() {
        let base = relations[i].clone();
        if base.role != Role::Standard || base.repr == ReprKind::EqRel {
            continue;
        }
        let id = RelId(relations.len());
        let name = format!("upd_{}", base.name);
        rel_ids.insert(name.clone(), id);
        relations.push(RamRelation {
            id,
            name,
            arity: base.arity,
            attr_types: base.attr_types.clone(),
            repr: base.repr,
            orders: Vec::new(),
            role: Role::Upd(base.id),
            is_input: false,
            is_output: false,
        });
        upd_ids.insert(base.name.clone(), id);
    }

    // cone_R for every rule head R with an upd_R: where a retraction
    // stages R's over-deleted tuples for the re-derive variants.
    let heads: BTreeSet<&str> = (checked.ast.rules.iter())
        .map(|r| r.head.name.as_str())
        .collect();
    let mut staging: HashMap<String, (RelId, RelId)> = HashMap::new();
    for i in 0..relations.len() {
        let base = relations[i].clone();
        let upd = match upd_ids.get(&base.name) {
            Some(&upd) if heads.contains(base.name.as_str()) => upd,
            _ => continue,
        };
        let id = RelId(relations.len());
        staging.insert(base.name.clone(), (id, upd));
        relations.push(RamRelation {
            id,
            name: format!("cone_{}", base.name),
            role: Role::Cone(base.id),
            is_input: false,
            is_output: false,
            ..base
        });
    }

    // Facts.
    let mut symbols = SymbolTable::new();
    let mut facts: Vec<(RelId, Vec<RamDomain>)> = Vec::new();
    for fact in &checked.ast.facts {
        let decl = checked.decl(&fact.atom.name);
        let rel = rel_ids[&fact.atom.name];
        let mut tuple = Vec::with_capacity(decl.arity());
        for (arg, attr) in fact.atom.args.iter().zip(&decl.attrs) {
            tuple.push(encode_constant(arg, attr.ty, &mut symbols)?);
        }
        facts.push((rel, tuple));
    }

    // Strata.
    let mut cx = RuleCx {
        checked,
        rel_ids: &rel_ids,
        relations: &relations,
        symbols: &mut symbols,
        current_rule: None,
    };
    let mut main: Vec<RamStmt> = Vec::new();
    let mut strata: Vec<RamStratum> = Vec::new();
    for stratum in &checked.strata {
        if stratum.rules.is_empty() {
            continue;
        }
        let defined: BTreeSet<String> = stratum.relations.iter().cloned().collect();

        // AST-level read sets, for stratum-selective incremental updates.
        let mut pos_reads: BTreeSet<RelId> = BTreeSet::new();
        let mut neg_agg_reads: BTreeSet<RelId> = BTreeSet::new();
        for &ri in &stratum.rules {
            let r = &checked.ast.rules[ri];
            for lit in &r.body {
                match lit {
                    Literal::Positive(a) => {
                        if !defined.contains(&a.name) {
                            pos_reads.insert(rel_ids[&a.name]);
                        }
                        for arg in &a.args {
                            collect_agg_reads(arg, &rel_ids, &mut neg_agg_reads);
                        }
                    }
                    Literal::Negative(a) => {
                        neg_agg_reads.insert(rel_ids[&a.name]);
                    }
                    Literal::Constraint(c) => {
                        collect_agg_reads(&c.lhs, &rel_ids, &mut neg_agg_reads);
                        collect_agg_reads(&c.rhs, &rel_ids, &mut neg_agg_reads);
                    }
                }
            }
            for arg in &r.head.args {
                collect_agg_reads(arg, &rel_ids, &mut neg_agg_reads);
            }
        }
        let meta = |update, rederive| RamStratum {
            defines: stratum.relations.iter().map(|n| rel_ids[n]).collect(),
            pos_reads: pos_reads.iter().copied().collect(),
            neg_agg_reads: neg_agg_reads.iter().copied().collect(),
            recursive: stratum.recursive,
            update,
            rederive,
        };

        if !stratum.recursive {
            let mut seq: Vec<RamStmt> = Vec::new();
            for &ri in &stratum.rules {
                cx.current_rule = Some(ri as u32);
                seq.push(translate_rule(&mut cx, &checked.ast.rules[ri], None)?);
            }

            // Update statement: re-derive with one upstream occurrence at
            // a time reading its upd_ sibling, projecting fresh tuples
            // into upd_head, then merge them in. A non-recursive SCC is a
            // single relation.
            let head_name = &stratum.relations[0];
            let update = if let Some(&upd_h) = upd_ids.get(head_name) {
                let scc1: BTreeSet<String> = std::iter::once(head_name.clone()).collect();
                let aux1: HashMap<String, (RelId, RelId)> =
                    std::iter::once((head_name.clone(), (upd_h, upd_h))).collect();
                let mut useq: Vec<RamStmt> = Vec::new();
                for &ri in &stratum.rules {
                    let r = &checked.ast.rules[ri];
                    cx.current_rule = Some(ri as u32);
                    for k in 0..count_upd_occurrences(r, &scc1, &upd_ids) {
                        useq.push(seed_variant(&mut cx, r, k, &scc1, &aux1, &upd_ids)?);
                    }
                }
                useq.push(RamStmt::Merge {
                    into: rel_ids[head_name],
                    from: upd_h,
                });
                Some(RamStmt::Seq(useq))
            } else {
                None // eqrel head: recompute instead
            };

            let rederive = rederive_stmt(&mut cx, &stratum.rules, &staging)?;
            strata.push(meta(update, rederive));
            main.push(RamStmt::Seq(seq));
            continue;
        }

        let scc: BTreeSet<String> = stratum.relations.iter().cloned().collect();
        let scc_aux: HashMap<String, (RelId, RelId)> = aux
            .iter()
            .filter(|(k, _)| scc.contains(*k))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let mut seq: Vec<RamStmt> = Vec::new();

        // Exit rules (no positive SCC body atom) run once, into R.
        let mut recursive_rules: Vec<(u32, &Rule)> = Vec::new();
        for &ri in &stratum.rules {
            let r = &checked.ast.rules[ri];
            if count_scc_occurrences(r, &scc) == 0 {
                cx.current_rule = Some(ri as u32);
                seq.push(translate_rule(&mut cx, r, None)?);
            } else {
                recursive_rules.push((ri as u32, r));
            }
        }

        // delta_R := R.
        for name in &scc {
            let (delta, _) = aux[name];
            seq.push(RamStmt::Merge {
                into: delta,
                from: rel_ids[name],
            });
        }

        // The fixpoint loop.
        let loop_body = fixpoint_loop_body(
            &mut cx,
            &recursive_rules,
            &scc,
            &scc_aux,
            &aux,
            &rel_ids,
            None,
        )?;
        seq.push(RamStmt::Loop(Box::new(RamStmt::Seq(loop_body))));

        // Hygiene: the auxiliaries are dead after the stratum.
        for name in &scc {
            let (delta, new) = aux[name];
            seq.push(RamStmt::Clear(delta));
            seq.push(RamStmt::Clear(new));
        }

        // Update statement: a seed round re-derives every rule (exit and
        // recursive) with one changed upstream occurrence reading its
        // upd_ sibling and SCC occurrences reading the full (already
        // grown) relations; the seed derivations plus the direct user
        // inserts staged in upd_R become the delta frontier of a regular
        // semi-naive loop. Every rule already passed the main
        // translation, so re-translating cannot fail semantically.
        let update = {
            let mut useq: Vec<RamStmt> = Vec::new();
            for &ri in &stratum.rules {
                let r = &checked.ast.rules[ri];
                cx.current_rule = Some(ri as u32);
                for k in 0..count_upd_occurrences(r, &scc, &upd_ids) {
                    useq.push(seed_variant(&mut cx, r, k, &scc, &scc_aux, &upd_ids)?);
                }
            }
            // Direct user inserts (already merged into R) seed the
            // frontier alongside the seed-round derivations.
            for name in &scc {
                useq.push(RamStmt::Merge {
                    into: aux[name].0,
                    from: upd_ids[name],
                });
            }
            for name in &scc {
                let (delta, new) = aux[name];
                useq.push(RamStmt::Merge {
                    into: rel_ids[name],
                    from: new,
                });
                useq.push(RamStmt::Merge {
                    into: delta,
                    from: new,
                });
                useq.push(RamStmt::Merge {
                    into: upd_ids[name],
                    from: new,
                });
                useq.push(RamStmt::Clear(new));
            }
            let loop_body = fixpoint_loop_body(
                &mut cx,
                &recursive_rules,
                &scc,
                &scc_aux,
                &aux,
                &rel_ids,
                Some(&upd_ids),
            )?;
            useq.push(RamStmt::Loop(Box::new(RamStmt::Seq(loop_body))));
            for name in &scc {
                let (delta, new) = aux[name];
                useq.push(RamStmt::Clear(delta));
                useq.push(RamStmt::Clear(new));
            }
            Some(RamStmt::Seq(useq))
        };

        let rederive = rederive_stmt(&mut cx, &stratum.rules, &staging)?;
        strata.push(meta(update, rederive));
        main.push(RamStmt::Seq(seq));
    }

    // Provenance plans: each desugared rule lowered once more over the
    // full base relations (no recursion info), for proof-tree matching.
    // Constants were interned by the main translation above, so this adds
    // no symbols; the plans live outside `main`, so the optimizer and
    // index selection never see them and plain evaluation is unaffected.
    let mut prov = crate::prov::ProvInfo::default();
    for (ri, rule) in checked.ast.rules.iter().enumerate() {
        cx.current_rule = Some(ri as u32);
        let stmt = translate_rule(&mut cx, rule, None).ok();
        let opaque = match &stmt {
            Some(RamStmt::Query { op, .. }) => op.uses_autoincrement(),
            _ => true,
        };
        prov.rules.push(crate::prov::ProvRule {
            head: rel_ids[&rule.head.name],
            label: rule.to_string(),
            stmt,
            opaque,
        });
    }

    let mut program = RamProgram {
        relations,
        facts,
        main: RamStmt::Seq(main),
        strata,
        symbols,
        stats: TranslateStats::default(),
        prov,
    };
    crate::transform::optimize(&mut program);
    let started = std::time::Instant::now();
    assign_indexes(&mut program);
    program.stats = TranslateStats {
        index_selection_ns: started.elapsed().as_nanos() as u64,
        index_count: program.relations.iter().map(|r| r.orders.len()).sum(),
    };
    Ok(program)
}

/// Counts positive body occurrences of SCC relations.
fn count_scc_occurrences(rule: &Rule, scc: &BTreeSet<String>) -> usize {
    rule.body
        .iter()
        .filter(|l| matches!(l, Literal::Positive(a) if scc.contains(&a.name)))
        .count()
}

/// Counts positive non-SCC body occurrences of relations with `upd_`
/// siblings — the occurrences an update-seed variant can substitute.
/// Mirrors the occurrence counting of [`translate_rule`] exactly.
fn count_upd_occurrences(
    rule: &Rule,
    scc: &BTreeSet<String>,
    upd_ids: &HashMap<String, RelId>,
) -> usize {
    rule.body
        .iter()
        .filter(
            |l| matches!(l, Literal::Positive(a) if !scc.contains(&a.name) && upd_ids.contains_key(&a.name)),
        )
        .count()
}

/// Translates the `k`-th update-seed variant of `rule`: the variant
/// whose `k`-th substitutable upstream occurrence reads its staged
/// `upd_` sibling. [`translate_rule`] puts that atom outermost whenever
/// its arguments can be evaluated there, so the (typically tiny) staging
/// relation drives the join — this is what keeps a single-fact update
/// sublinear in the database.
fn seed_variant(
    cx: &mut RuleCx<'_>,
    rule: &Rule,
    k: usize,
    scc: &BTreeSet<String>,
    aux: &HashMap<String, (RelId, RelId)>,
    upd_ids: &HashMap<String, RelId>,
) -> Result<RamStmt, TranslateError> {
    let info = RecursiveInfo {
        scc: scc.clone(),
        aux: aux.clone(),
        delta_occurrence: usize::MAX,
        upd_occurrence: Some(k),
        upd: upd_ids.clone(),
        allow_counter: true,
        rederive: None,
    };
    translate_rule(cx, rule, Some(&info))
}

/// Translates a stratum's re-derive statement: the re-derive variant of
/// each of its `rules` ([`RecursiveInfo::rederive`]), which reads every
/// body atom's full relation. `None` when a head has no `cone_`/`upd_`
/// pair (eqrel) or a variant draws `$` values, which no check reproduces.
fn rederive_stmt(
    cx: &mut RuleCx<'_>,
    rules: &[usize],
    staging: &HashMap<String, (RelId, RelId)>,
) -> Result<Option<RamStmt>, TranslateError> {
    let checked = cx.checked;
    let mut seq = Vec::with_capacity(rules.len());
    for &ri in rules {
        let rule = &checked.ast.rules[ri];
        let Some(&pair) = staging.get(&rule.head.name) else {
            return Ok(None);
        };
        let info = RecursiveInfo {
            rederive: Some(pair),
            allow_counter: true,
            ..RecursiveInfo::default()
        };
        cx.current_rule = Some(ri as u32);
        let variant = translate_rule(cx, rule, Some(&info))?;
        if matches!(&variant, RamStmt::Query { op, .. } if op.uses_autoincrement()) {
            return Ok(None);
        }
        seq.push(variant);
    }
    Ok(Some(RamStmt::Seq(seq)))
}

/// Collects the helper relations read inside aggregate expressions
/// (post-desugaring, each aggregate body is one positive helper atom).
fn collect_agg_reads(e: &Expr, rel_ids: &HashMap<String, RelId>, out: &mut BTreeSet<RelId>) {
    match e {
        Expr::Binary { lhs, rhs, .. } => {
            collect_agg_reads(lhs, rel_ids, out);
            collect_agg_reads(rhs, rel_ids, out);
        }
        Expr::Unary { expr, .. } => collect_agg_reads(expr, rel_ids, out),
        Expr::Call { args, .. } => {
            for a in args {
                collect_agg_reads(a, rel_ids, out);
            }
        }
        Expr::Aggregate { body, value, .. } => {
            for lit in body {
                if let Literal::Positive(a) = lit {
                    out.insert(rel_ids[&a.name]);
                }
            }
            if let Some(v) = value {
                collect_agg_reads(v, rel_ids, out);
            }
        }
        _ => {}
    }
}

/// Builds the body of a semi-naive fixpoint loop: one query per
/// (recursive rule, delta occurrence), the exit test, and the per-relation
/// merge/swap epilogue. When `upd_ids` is given (incremental update
/// loops), each iteration's new tuples are additionally merged into the
/// `upd_` staging relations so downstream strata see them.
#[allow(clippy::too_many_arguments)]
fn fixpoint_loop_body(
    cx: &mut RuleCx<'_>,
    recursive_rules: &[(u32, &Rule)],
    scc: &BTreeSet<String>,
    scc_aux: &HashMap<String, (RelId, RelId)>,
    aux: &HashMap<String, (RelId, RelId)>,
    rel_ids: &HashMap<String, RelId>,
    upd_ids: Option<&HashMap<String, RelId>>,
) -> Result<Vec<RamStmt>, TranslateError> {
    let mut loop_body: Vec<RamStmt> = Vec::new();
    for (ri, r) in recursive_rules {
        cx.current_rule = Some(*ri);
        let n = count_scc_occurrences(r, scc);
        for occurrence in 0..n {
            let info = RecursiveInfo {
                scc: scc.clone(),
                aux: scc_aux.clone(),
                delta_occurrence: occurrence,
                ..RecursiveInfo::default()
            };
            loop_body.push(translate_rule(cx, r, Some(&info))?);
        }
    }
    let exit_cond = scc
        .iter()
        .map(|name| RamCond::EmptinessCheck { rel: aux[name].1 })
        .reduce(RamCond::and)
        .expect("SCC is nonempty");
    loop_body.push(RamStmt::Exit(exit_cond));
    for name in scc {
        let (delta, new) = aux[name];
        loop_body.push(RamStmt::Merge {
            into: rel_ids[name],
            from: new,
        });
        if let Some(upd) = upd_ids {
            loop_body.push(RamStmt::Merge {
                into: upd[name],
                from: new,
            });
        }
        loop_body.push(RamStmt::Swap(delta, new));
        loop_body.push(RamStmt::Clear(new));
    }
    Ok(loop_body)
}

/// Encodes a constant fact argument as its bit pattern.
fn encode_constant(
    arg: &Expr,
    ty: AttrType,
    symbols: &mut SymbolTable,
) -> Result<RamDomain, TranslateError> {
    match (arg, ty) {
        (Expr::Number(n, _), AttrType::Number) => i32::try_from(*n)
            .map(|v| v as u32)
            .map_err(|_| TranslateError::new(format!("{n} out of number range"))),
        (Expr::Number(n, _), AttrType::Unsigned) => {
            u32::try_from(*n).map_err(|_| TranslateError::new(format!("{n} out of unsigned range")))
        }
        (Expr::Number(n, _), AttrType::Float) => Ok((*n as f32).to_bits()),
        (Expr::Float(x, _), AttrType::Float) => Ok(x.to_bits()),
        (Expr::Str(s, _), AttrType::Symbol) => Ok(symbols.intern(s)),
        (e, t) => Err(TranslateError::new(format!(
            "fact constant `{e}` does not fit type `{t}`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretty::{program_to_string, stmt_to_string};
    use crate::stmt::RamOp;
    use stir_frontend::parse_and_check;

    fn ram_of(src: &str) -> RamProgram {
        translate(&parse_and_check(src).expect("checks")).expect("translates")
    }

    const TC: &str = "\
        .decl e(x: number, y: number)\n\
        .decl p(x: number, y: number)\n\
        .output p\n\
        e(1, 2). e(2, 3).\n\
        p(x, y) :- e(x, y).\n\
        p(x, z) :- p(x, y), e(y, z).\n";

    #[test]
    fn transitive_closure_shape() {
        let ram = ram_of(TC);
        // Relations: e, p, delta_p, new_p, plus the upd_ and cone_ staging.
        let names: Vec<&str> = ram.relations.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["e", "p", "delta_p", "new_p", "upd_e", "upd_p", "cone_p"]
        );
        assert_eq!(ram.facts.len(), 2);
        let listing = program_to_string(&ram);
        assert!(listing.contains("LOOP"), "{listing}");
        assert!(listing.contains("MERGE new_p INTO p"), "{listing}");
        assert!(listing.contains("SWAP (delta_p, new_p)"), "{listing}");
        assert!(listing.contains("EXIT"), "{listing}");
    }

    #[test]
    fn join_uses_an_index_scan_on_the_join_column() {
        let ram = ram_of(TC);
        // The recursive query scans delta_p then e with column 0 bound.
        let mut found = false;
        ram.main.walk(&mut |s| {
            if let RamStmt::Query { op, label, .. } = s {
                if label.contains("delta") {
                    op.walk(&mut |o| {
                        if let RamOp::IndexScan {
                            rel,
                            pattern,
                            index,
                            ..
                        } = o
                        {
                            assert_eq!(ram.relation(*rel).name, "e");
                            assert!(pattern[0].is_some());
                            assert!(pattern[1].is_none());
                            assert_ne!(*index, usize::MAX, "index was assigned");
                            found = true;
                        }
                    });
                }
            }
        });
        assert!(found, "expected an IndexScan in the delta rule");
    }

    #[test]
    fn every_scan_level_is_marked_parallel() {
        let ram = ram_of(TC);
        // Every scan of every query — outer loops and inner join loops —
        // is marked; the interpreter decides at runtime, once per rule
        // evaluation, whether the first one it reaches fans out.
        ram.main.walk(&mut |s| {
            if let RamStmt::Query { op, label, .. } = s {
                let mut scans = 0usize;
                let mut marked = 0usize;
                op.walk(&mut |o| {
                    if let RamOp::Scan { parallel, .. } | RamOp::IndexScan { parallel, .. } = o {
                        scans += 1;
                        marked += usize::from(*parallel);
                    }
                });
                assert!(scans > 0, "query without scans: {label:?}");
                assert_eq!(scans, marked, "unmarked scan in {label:?}");
            }
        });
        let listing = program_to_string(&ram);
        assert!(listing.contains("PARALLEL FOR"), "{listing}");
    }

    #[test]
    fn autoincrement_rules_stay_sequential() {
        let ram = ram_of(
            ".decl src(x: number)\n\
             .decl tagged(x: number, id: number)\n\
             .output tagged\n\
             src(10). src(20).\n\
             tagged(x, $) :- src(x).\n",
        );
        ram.main.walk(&mut |s| {
            if let RamStmt::Query { op, label, .. } = s {
                if label.contains("tagged") {
                    op.walk(&mut |o| {
                        if let RamOp::Scan { parallel, .. } | RamOp::IndexScan { parallel, .. } = o
                        {
                            assert!(!parallel, "auto-increment rule marked parallel: {label:?}");
                        }
                    });
                }
            }
        });
    }

    #[test]
    fn recursive_head_projects_into_new_with_guard() {
        let ram = ram_of(TC);
        let listing = program_to_string(&ram);
        assert!(listing.contains("INTO new_p"), "{listing}");
        assert!(listing.contains("∈ p"), "{listing}");
    }

    #[test]
    fn index_orders_are_assigned_and_cover_searches() {
        let ram = ram_of(TC);
        let e = ram.relation_by_name("e").unwrap();
        // e is searched on column 0 → natural order works, one index.
        assert_eq!(e.orders.len(), 1);
        assert_eq!(e.orders[0], vec![0, 1]);
    }

    #[test]
    fn two_incompatible_searches_get_two_indexes() {
        let ram = ram_of(
            ".decl e(x: number, y: number)\n.decl a(x: number)\n.decl r1(x: number, y: number)\n.decl r2(x: number, y: number)\n\
             r1(x, y) :- a(x), e(x, y).\n\
             r2(x, y) :- a(y), e(x, y).\n",
        );
        let e = ram.relation_by_name("e").unwrap();
        assert_eq!(
            e.orders.len(),
            2,
            "searches {{0}} and {{1}} are incomparable"
        );
    }

    #[test]
    fn negation_becomes_existence_filter() {
        let ram = ram_of(
            ".decl a(x: number)\n.decl b(x: number)\n.decl r(x: number)\n\
             r(x) :- a(x), !b(x).",
        );
        let listing = program_to_string(&ram);
        assert!(listing.contains("NOT ((t0.0) ∈ b)"), "{listing}");
    }

    #[test]
    fn equality_bindings_substitute() {
        let ram = ram_of(
            ".decl a(x: number)\n.decl r(x: number, y: number)\n\
             r(x, y) :- a(x), y = x * 2 + 1.",
        );
        let listing = program_to_string(&ram);
        // y's definition is inlined into the projection.
        assert!(
            listing.contains("INSERT (t0.0, ((t0.0 * 2) + 1)) INTO r"),
            "{listing}"
        );
    }

    #[test]
    fn facts_encode_types() {
        let ram = ram_of(
            ".decl m(a: number, b: unsigned, c: float, d: symbol)\n\
             m(-1, 7, 1.5, \"hi\").",
        );
        let (_, tuple) = &ram.facts[0];
        assert_eq!(tuple[0], (-1i32) as u32);
        assert_eq!(tuple[1], 7);
        assert_eq!(tuple[2], 1.5f32.to_bits());
        assert_eq!(ram.symbols.resolve(tuple[3]), "hi");
    }

    #[test]
    fn aggregates_translate_via_helpers() {
        let ram = ram_of(
            ".decl e(x: number, y: number)\n.decl t(n: number)\n\
             e(1, 2). e(1, 3).\n\
             t(n) :- n = count : { e(1, _) }.",
        );
        assert!(ram.relation_by_name("__agg0").is_some());
        let listing = program_to_string(&ram);
        assert!(listing.contains("COUNT"), "{listing}");
    }

    #[test]
    fn eqrel_recursion_is_rejected() {
        let checked = parse_and_check(
            ".decl eq(x: number, y: number) eqrel\n.decl s(x: number, y: number)\n\
             eq(x, y) :- s(x, y).\n\
             eq(x, y) :- eq(x, z), s(z, y).\n",
        )
        .expect("checks");
        let err = translate(&checked).unwrap_err();
        assert!(err.msg.contains("eqrel"));
    }

    #[test]
    fn eqrel_second_column_probe_swaps() {
        let ram = ram_of(
            ".decl eq(x: number, y: number) eqrel\n.decl s(x: number)\n.decl r(x: number, y: number)\n\
             r(x, y) :- s(y), eq(x, y).",
        );
        let listing = program_to_string(&ram);
        assert!(listing.contains("(swapped)"), "{listing}");
    }

    #[test]
    fn counter_in_recursive_rule_is_rejected() {
        let checked = parse_and_check(
            ".decl s(x: number)\n.decl p(x: number, y: number)\n\
             p(x, $) :- s(x).\n\
             p(x, $) :- p(x, _), s(x).\n",
        )
        .expect("checks");
        let err = translate(&checked).unwrap_err();
        assert!(err.msg.contains("counter"));
    }

    #[test]
    fn mutual_recursion_produces_joint_loop() {
        let ram = ram_of(
            ".decl s(x: number)\n.decl a(x: number)\n.decl b(x: number)\n\
             s(1). s(2).\n\
             a(x) :- s(x).\n\
             b(x) :- a(x).\n\
             a(x) :- b(x), s(x).\n",
        );
        let listing = program_to_string(&ram);
        assert!(listing.contains("delta_a"));
        assert!(listing.contains("delta_b"));
        // Single loop merges both.
        assert_eq!(listing.matches("LOOP").count(), 2); // "LOOP" + "END LOOP"
    }

    #[test]
    fn delta_new_and_base_share_index_layout() {
        // The delta version is probed on column 1 inside the recursive
        // rule; base and new must still end up with identical layouts so
        // MERGE/SWAP are well-defined.
        let ram = ram_of(
            ".decl e(x: number, y: number)\n.decl p(x: number, y: number)\n\
             e(1, 2).\n\
             p(x, y) :- e(x, y).\n\
             p(x, z) :- e(x, y), p(y, z).\n",
        );
        let base = ram.relation_by_name("p").unwrap();
        let delta = ram.relation_by_name("delta_p").unwrap();
        let new = ram.relation_by_name("new_p").unwrap();
        let upd = ram.relation_by_name("upd_p").unwrap();
        assert_eq!(base.orders, delta.orders);
        assert_eq!(base.orders, new.orders);
        assert_eq!(base.orders, upd.orders);
    }

    #[test]
    fn strata_align_with_main_and_carry_update_statements() {
        let ram = ram_of(TC);
        // One rule-bearing stratum (p); e has no rules.
        assert_eq!(ram.strata.len(), 1);
        let s = &ram.strata[0];
        assert!(s.recursive);
        assert_eq!(s.defines, vec![ram.relation_by_name("p").unwrap().id]);
        assert_eq!(s.pos_reads, vec![ram.relation_by_name("e").unwrap().id]);
        assert!(s.neg_agg_reads.is_empty());
        // `main` holds exactly one child per stratum, so stratum `i`'s
        // recomputation statement is child `i`.
        let RamStmt::Seq(children) = &ram.main else {
            panic!("main is a Seq");
        };
        assert_eq!(children.len(), ram.strata.len());
        assert!(matches!(ram.stratum_stmt(0), RamStmt::Seq(_)));
        // The update statement seeds from upd_e / upd_p and re-enters the
        // fixpoint loop.
        let update = s.update.as_ref().expect("recursive non-eqrel stratum");
        let mut saw_loop = false;
        let mut saw_upd_label = false;
        update.walk(&mut |st| {
            if matches!(st, RamStmt::Loop(_)) {
                saw_loop = true;
            }
            if let RamStmt::Query { label, .. } = st {
                if label.contains("[upd #") {
                    saw_upd_label = true;
                }
            }
        });
        assert!(saw_loop);
        assert!(saw_upd_label);
    }

    #[test]
    fn negation_reads_are_recorded_per_stratum() {
        let ram = ram_of(
            ".decl a(x: number)\n.decl b(x: number)\n.decl r(x: number)\n\
             a(1). b(2).\n\
             r(x) :- a(x), !b(x).",
        );
        let s = ram
            .strata
            .iter()
            .find(|s| s.defines == vec![ram.relation_by_name("r").unwrap().id])
            .expect("stratum for r");
        assert_eq!(s.pos_reads, vec![ram.relation_by_name("a").unwrap().id]);
        assert_eq!(s.neg_agg_reads, vec![ram.relation_by_name("b").unwrap().id]);
    }

    #[test]
    fn eqrel_strata_have_no_update_statement() {
        let ram = ram_of(
            ".decl s(x: number, y: number)\n.decl eq(x: number, y: number) eqrel\n\
             s(1, 2).\n\
             eq(x, y) :- s(x, y).",
        );
        assert!(ram.relation_by_name("upd_eq").is_none());
        assert!(ram.relation_by_name("upd_s").is_some());
        let s = ram
            .strata
            .iter()
            .find(|s| s.defines == vec![ram.relation_by_name("eq").unwrap().id])
            .expect("stratum for eq");
        assert!(s.update.is_none());
    }

    /// The loop nest of the first query in `stmt` whose label contains
    /// `label`, outermost first: each scanned relation with the columns an
    /// index scan binds, and each negated probe as `!rel`.
    fn nest(ram: &RamProgram, stmt: &RamStmt, label: &str) -> Vec<String> {
        let name = |rel: &RelId| ram.relation(*rel).name.clone();
        let mut out = Vec::new();
        stmt.walk(&mut |s| match s {
            RamStmt::Query { label: l, op, .. } if out.is_empty() && l.contains(label) => {
                op.walk(&mut |o| match o {
                    RamOp::Scan { rel, .. } => out.push(name(rel)),
                    RamOp::IndexScan { rel, pattern, .. } => {
                        let on: Vec<String> = (0..pattern.len())
                            .filter(|&c| pattern[c].is_some())
                            .map(|c| format!(".{c}"))
                            .collect();
                        out.push(format!("{} ON {}", name(rel), on.join(",")));
                    }
                    RamOp::Filter { cond, .. } => {
                        let conjuncts = match cond {
                            RamCond::Conjunction(cs) => cs.as_slice(),
                            c => std::slice::from_ref(c),
                        };
                        for c in conjuncts {
                            if let RamCond::Negation(inner) = c {
                                if let RamCond::ExistenceCheck { rel, .. } = &**inner {
                                    out.push(format!("!{}", name(rel)));
                                }
                            }
                        }
                    }
                    _ => {}
                });
            }
            _ => {}
        });
        assert!(!out.is_empty(), "no query labelled {label:?}");
        out
    }

    /// The VPC workload's reachability and connectivity rules, in their
    /// author's literal order.
    const VPC: &str = "\
        .decl subnet(s: number, v: number)\n.input subnet\n\
        .decl instance(i: number, s: number)\n.input instance\n\
        .decl route(a: number, b: number)\n.input route\n\
        .decl peering(va: number, vb: number)\n.input peering\n\
        .decl acl_allow(sa: number, sb: number, port: number)\n.input acl_allow\n\
        .decl listens(i: number, port: number)\n.input listens\n\
        .decl peer(va: number, vb: number)\n\
        peer(a, b) :- peering(a, b).\n\
        peer(a, b) :- peering(b, a).\n\
        .decl subnet_reach(a: number, b: number)\n\
        subnet_reach(s, s) :- subnet(s, _).\n\
        subnet_reach(a, c) :- subnet_reach(a, b), route(b, c).\n\
        subnet_reach(a, c) :- subnet_reach(a, b), subnet(b, vb), peer(vb, vc), subnet(c, vc), route(b, c).\n\
        .decl conn(i: number, j: number, port: number)\n.output conn\n\
        conn(i, j, p) :- instance(i, si), instance(j, sj), subnet_reach(si, sj),\n\
                         acl_allow(si, sj, p), listens(j, p), i != j.\n";

    #[test]
    fn joins_go_most_bound_first_with_inputs_winning_ties() {
        let ram = ram_of(VPC);
        // After `instance(i, si)`, `acl_allow` and `subnet_reach` each have
        // one bound column; the input relation wins, and then the derived
        // closure is probed on both columns instead of enumerated.
        assert_eq!(
            nest(&ram, &ram.main, "conn("),
            [
                "instance",
                "acl_allow ON .0",
                "subnet_reach ON .0,.1",
                "instance ON .1",
                "listens ON .0,.1"
            ]
        );
        // The cross-VPC hop consults `route(b, c)` before enumerating the
        // far side's subnets.
        assert_eq!(
            nest(
                &ram,
                &ram.main,
                "subnet_reach(a, c) :- subnet_reach(a, b), subnet("
            ),
            [
                "delta_subnet_reach",
                "subnet ON .0",
                "route ON .0",
                "subnet ON .0",
                "peer ON .0,.1",
                "!subnet_reach"
            ]
        );
    }

    #[test]
    fn bound_prefixes_then_small_relations_break_ties() {
        // The DOOP workload's virtual-call rule.
        let ram = ram_of(
            ".decl vcall(base: number, sig: number, invo: number, inmeth: number)\n.input vcall\n\
             .decl method_impl(t: number, sig: number, m: number)\n.input method_impl\n\
             .decl obj_type(o: number, t: number)\n.input obj_type\n\
             .decl alloc(v: number, o: number, m: number)\n.input alloc\n\
             .decl entry_method(m: number)\n.input entry_method\n\
             .decl reachable(m: number)\n.decl var_points_to(v: number, o: number)\n\
             .decl call_graph(invo: number, m: number)\n\
             reachable(m) :- entry_method(m).\n\
             reachable(m) :- call_graph(_, m).\n\
             var_points_to(v, o) :- reachable(m), alloc(v, o, m).\n\
             call_graph(i, m) :- vcall(b, sig, i, inm), reachable(inm),\n\
                                 var_points_to(b, o), obj_type(o, t), method_impl(t, sig, m).\n",
        );
        // `var_points_to(b, o)` and `method_impl(t, sig, m)` each have one
        // bound column, but only `b` leads its relation: the points-to set
        // of `b` is walked, not every object of every type implementing
        // `sig` (up to 4× slower on the E1 DOOP instances).
        assert_eq!(
            nest(&ram, &ram.main, "method_impl(t, sig, m). [delta #0]"),
            [
                "vcall",
                "delta_reachable ON .0",
                "var_points_to ON .0",
                "obj_type ON .0",
                "method_impl ON .0,.1",
                "!call_graph"
            ]
        );
        // The frontier outranks the full relation on an equal key.
        assert_eq!(
            nest(&ram, &ram.main, "method_impl(t, sig, m). [delta #1]"),
            [
                "vcall",
                "delta_var_points_to ON .0",
                "obj_type ON .0",
                "method_impl ON .0,.1",
                "reachable ON .0",
                "!call_graph"
            ]
        );
    }

    #[test]
    fn an_update_seed_variant_keeps_its_staging_atom_outermost() {
        let ram = ram_of(VPC);
        let conn = ram.relation_by_name("conn").unwrap().id;
        let stratum = ram.strata.iter().find(|s| s.defines == [conn]).unwrap();
        let update = stratum.update.as_ref().expect("update statement");
        // `listens(j, p)` is the fifth substitutable occurrence; the rest of
        // the join is ordered from the bindings it provides.
        assert_eq!(
            nest(&ram, update, "[upd #4]"),
            [
                "upd_listens",
                "instance ON .0",
                "acl_allow ON .1,.2",
                "subnet_reach ON .0,.1",
                "instance ON .1",
                "!conn"
            ]
        );
    }

    #[test]
    fn an_expression_argument_waits_for_its_variables() {
        let decls = ".decl a(x: number)\n.decl b(x: number, y: number)\n.decl c(z: number)\n\
                     .decl r(x: number, z: number)\n";
        // `b` has two evaluable-looking columns but `y + 1` needs `a` first,
        // whether `b` is the first atom written or a later one.
        let ram = ram_of(&format!("{decls}r(y, z) :- c(z), b(y + 1, 3), a(y).\n"));
        assert_eq!(nest(&ram, &ram.main, "r("), ["c", "a", "b ON .0,.1"]);
        let ram = ram_of(&format!("{decls}r(y, y) :- b(y + 1, 3), a(y).\n"));
        assert_eq!(nest(&ram, &ram.main, "r("), ["a", "b ON .0,.1"]);
    }

    #[test]
    fn a_negation_sits_at_the_first_level_that_binds_it() {
        let ram = ram_of(
            ".decl next(a: number, b: number) brie\n.input next\n\
             .decl ret(a: number)\n.input ret\n.decl entry(a: number)\n.input entry\n\
             .decl code(a: number)\n\
             code(a) :- entry(a).\n\
             code(b) :- code(a), next(a, b), !ret(a).\n",
        );
        assert_eq!(
            nest(
                &ram,
                &ram.main,
                "code(b) :- code(a), next(a, b), !ret(a). [delta"
            ),
            ["delta_code", "!ret", "next ON .0", "!code"]
        );
    }

    #[test]
    fn re_derive_variants_scan_their_cone_outermost() {
        let agg = ".decl a(x: number, y: number)\n.decl e(x: number, y: number)\n\
                   .decl t(x: number, n: number)\n\
                   t(x, n) :- a(x, _), n = count : { e(x, _) }.\n";
        let constant = ".decl a(x: number)\n.decl b(x: number)\n.decl r(x: number, y: number)\n\
                        r(x, 7) :- a(x), !b(x).\n";
        for src in [TC, VPC, agg, constant] {
            let ram = ram_of(src);
            for s in &ram.strata {
                let rederive = s.rederive.as_ref().expect("every head has a cone");
                rederive.walk(&mut |st| {
                    let RamStmt::Query { label, op, .. } = st else {
                        return;
                    };
                    assert!(label.ends_with(" [rederive]"), "{label}");
                    let mut outer = None;
                    op.walk(&mut |o| {
                        if let RamOp::Scan { rel, .. } | RamOp::IndexScan { rel, .. } = o {
                            outer = outer.or(Some(*rel));
                        }
                    });
                    let cone = ram.relation(outer.expect("a scan"));
                    assert!(
                        matches!(cone.role, Role::Cone(h) if s.defines.contains(&h)),
                        "{label} scans {} first",
                        cone.name
                    );
                });
            }
        }
        // The rest of the body is ordered bound-first from the cone's
        // columns, ties to the input, and each head argument is an
        // equality check.
        let ram = ram_of(&format!(".input e\n{TC}"));
        let rederive = ram.strata[0].rederive.as_ref().unwrap();
        assert_eq!(
            nest(&ram, rederive, "p(x, z) :- p(x, y), e(y, z). [rederive]"),
            ["cone_p", "e ON .1", "p ON .0,.1"]
        );
        let ram = ram_of(constant);
        let listing = stmt_to_string(&ram, ram.strata[0].rederive.as_ref().unwrap());
        assert!(listing.contains("FOR t0 IN cone_r"), "{listing}");
        assert!(listing.contains("(t0.1 = 7)"), "{listing}");
        assert!(listing.contains("INTO upd_r"), "{listing}");
        // A head column the body defines by substitution is not bound by
        // the cone: the division runs after the guard, as in the forward
        // plan.
        let ram = ram_of(
            ".decl a(h: number, d: number)\n.decl r(h: number, q: number)\n\
             r(h, q) :- a(h, d), q = h / d, d != 0.\n",
        );
        let listing = stmt_to_string(&ram, ram.strata[0].rederive.as_ref().unwrap());
        let (_, plan) = listing.split_once('\n').expect("a labelled query");
        let guard = plan.find("!= 0").expect(plan);
        assert!(plan.find('/').is_some_and(|div| div > guard), "{listing}");
        // An eqrel head has no upd_ sibling, hence no cone and no variant.
        let ram = ram_of(
            ".decl s(x: number, y: number)\n.decl eq(x: number, y: number) eqrel\n\
             s(1, 2).\n\
             eq(x, y) :- s(x, y).",
        );
        assert!(ram.relation_by_name("cone_eq").is_none());
        assert!(ram.strata[0].rederive.is_none());
    }

    #[test]
    fn emptiness_guard_wraps_queries() {
        let ram = ram_of(TC);
        let listing = program_to_string(&ram);
        assert!(listing.contains("NOT (e = ∅)"), "{listing}");
    }
}
