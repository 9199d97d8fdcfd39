//! RAM-to-RAM optimization passes.
//!
//! Soufflé performs "efficient pre-runtime optimizations" on the RAM
//! representation (paper §2); the two that matter for a faithful
//! reproduction are implemented here:
//!
//! * **filter merging** — consecutive `IF` operations fuse into one
//!   filter with a conjunction, the shape visible in the paper's Figs. 3
//!   and 17 (`IF (c1 AND c2 AND ...)`). One filter dispatch guards the
//!   whole chain; the conjuncts still dispatch individually, which is
//!   exactly what the §5.2 hand-crafted super-instructions then remove.
//! * **constant folding** — pure numeric intrinsics over constant
//!   operands are evaluated at translation time (the synthesizer gets
//!   this for free from `rustc`; the interpreter must do it itself).

use crate::expr::{RamDomain, RamExpr};
use crate::program::RamProgram;
use crate::stmt::{RamCond, RamOp, RamStmt};
use crate::IntrinsicOp;

/// Runs all passes in place, over the main statement and every stratum's
/// update and re-derive statements.
pub fn optimize(program: &mut RamProgram) {
    let mut pass = |stmt: &mut RamStmt| {
        if let RamStmt::Query { op, .. } = stmt {
            merge_filters(op);
            fold_op(op);
        }
        if let RamStmt::Exit(cond) = stmt {
            fold_cond(cond);
        }
    };
    for stmt in program.stmts_mut() {
        stmt.walk_mut(&mut pass);
    }
}

/// Fuses `Filter(c1, Filter(c2, body))` into `Filter(c1 ∧ c2, body)`,
/// recursively.
pub fn merge_filters(op: &mut RamOp) {
    // Bottom-up: merge inside children first.
    match op {
        RamOp::Scan { body, .. }
        | RamOp::IndexScan { body, .. }
        | RamOp::Aggregate { body, .. } => merge_filters(body),
        RamOp::Filter { body, .. } => merge_filters(body),
        RamOp::Project { .. } => {}
    }
    if let RamOp::Filter { cond, body } = op {
        if let RamOp::Filter {
            cond: inner_cond,
            body: inner_body,
        } = body.as_mut()
        {
            let merged = std::mem::replace(cond, RamCond::True)
                .and(std::mem::replace(inner_cond, RamCond::True));
            let new_body = std::mem::replace(
                inner_body,
                Box::new(RamOp::Project {
                    rel: crate::program::RelId(0),
                    values: vec![],
                    rule: None,
                }),
            );
            *cond = merged;
            *body = new_body;
            // The merge may expose another mergeable pair.
            merge_filters(op);
        }
    }
}

fn fold_op(op: &mut RamOp) {
    match op {
        RamOp::Scan { body, .. } => fold_op(body),
        RamOp::IndexScan { pattern, body, .. } => {
            for p in pattern.iter_mut().flatten() {
                fold_expr(p);
            }
            fold_op(body);
        }
        RamOp::Filter { cond, body } => {
            fold_cond(cond);
            fold_op(body);
        }
        RamOp::Project { values, .. } => {
            for v in values {
                fold_expr(v);
            }
        }
        RamOp::Aggregate {
            pattern,
            value,
            body,
            ..
        } => {
            for p in pattern.iter_mut().flatten() {
                fold_expr(p);
            }
            if let Some(v) = value {
                fold_expr(v);
            }
            fold_op(body);
        }
    }
}

fn fold_cond(cond: &mut RamCond) {
    match cond {
        RamCond::Conjunction(cs) => cs.iter_mut().for_each(fold_cond),
        RamCond::Negation(c) => fold_cond(c),
        RamCond::Comparison { lhs, rhs, .. } => {
            fold_expr(lhs);
            fold_expr(rhs);
        }
        RamCond::ExistenceCheck { pattern, .. } => {
            for p in pattern.iter_mut().flatten() {
                fold_expr(p);
            }
        }
        RamCond::True | RamCond::EmptinessCheck { .. } => {}
    }
}

/// Folds pure numeric intrinsics over constant operands.
pub fn fold_expr(e: &mut RamExpr) {
    if let RamExpr::Intrinsic { args, op } = e {
        for a in args.iter_mut() {
            fold_expr(a);
        }
        let consts: Option<Vec<RamDomain>> = args
            .iter()
            .map(|a| match a {
                RamExpr::Constant(k) => Some(*k),
                _ => None,
            })
            .collect();
        if let Some(vals) = consts {
            if let Some(folded) = eval_pure(*op, &vals) {
                *e = RamExpr::Constant(folded);
            }
        }
    }
}

/// Compile-time evaluation of side-effect-free, always-total intrinsics.
/// Division/remainder by a constant zero is *not* folded: it must raise
/// at runtime, matching the interpreter's semantics.
fn eval_pure(op: IntrinsicOp, a: &[RamDomain]) -> Option<RamDomain> {
    use IntrinsicOp::*;
    let s = |i: usize| a[i] as i32;
    let f = |i: usize| f32::from_bits(a[i]);
    Some(match op {
        Add => a[0].wrapping_add(a[1]),
        Sub => a[0].wrapping_sub(a[1]),
        Mul => a[0].wrapping_mul(a[1]),
        DivS if s(1) != 0 => s(0).wrapping_div(s(1)) as u32,
        DivU if a[1] != 0 => a[0] / a[1],
        ModS if s(1) != 0 => s(0).wrapping_rem(s(1)) as u32,
        ModU if a[1] != 0 => a[0] % a[1],
        PowS => s(0).wrapping_pow(a[1]) as u32,
        PowU => a[0].wrapping_pow(a[1]),
        Neg => s(0).wrapping_neg() as u32,
        AddF => (f(0) + f(1)).to_bits(),
        SubF => (f(0) - f(1)).to_bits(),
        MulF => (f(0) * f(1)).to_bits(),
        DivF => (f(0) / f(1)).to_bits(),
        PowF => f(0).powf(f(1)).to_bits(),
        NegF => (-f(0)).to_bits(),
        BAnd => a[0] & a[1],
        BOr => a[0] | a[1],
        BXor => a[0] ^ a[1],
        BNot => !a[0],
        BShl => a[0].wrapping_shl(a[1]),
        BShrU => a[0].wrapping_shr(a[1]),
        BShrS => s(0).wrapping_shr(a[1]) as u32,
        LAnd => u32::from(a[0] != 0 && a[1] != 0),
        LOr => u32::from(a[0] != 0 || a[1] != 0),
        LNot => u32::from(a[0] == 0),
        MinS => s(0).min(s(1)) as u32,
        MinU => a[0].min(a[1]),
        MinF => f(0).min(f(1)).to_bits(),
        MaxS => s(0).max(s(1)) as u32,
        MaxU => a[0].max(a[1]),
        MaxF => f(0).max(f(1)).to_bits(),
        Ord => a[0],
        // Symbol-table-dependent or fallible ops stay dynamic.
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::translate;
    use stir_frontend::parse_and_check;

    fn ram(src: &str) -> RamProgram {
        translate(&parse_and_check(src).expect("checks")).expect("translates")
    }

    #[test]
    fn consecutive_filters_merge_into_conjunctions() {
        let ram = ram(".decl e(a: number, b: number)\n.decl r(a: number)\n\
             e(1, 2).\n\
             r(a) :- e(a, b), a < b, a != 0, b != 9.\n");
        let listing = crate::pretty::program_to_string(&ram);
        // One IF with a conjunction instead of three nested IFs.
        assert!(listing.contains("AND"), "{listing}");
        let if_count = listing.matches("IF (").count();
        // The emptiness guard + the merged condition filter.
        assert_eq!(if_count, 2, "{listing}");
    }

    #[test]
    fn constants_fold_in_projections() {
        let ram = ram(".decl e(a: number)\n.decl r(a: number)\n\
             e(1).\n\
             r(2 * 3 + 4) :- e(_).\n");
        let listing = crate::pretty::program_to_string(&ram);
        assert!(listing.contains("INSERT (10) INTO r"), "{listing}");
    }

    #[test]
    fn division_by_constant_zero_is_not_folded() {
        let mut e = RamExpr::intrinsic(
            IntrinsicOp::DivS,
            vec![RamExpr::Constant(1), RamExpr::Constant(0)],
        );
        fold_expr(&mut e);
        assert!(matches!(e, RamExpr::Intrinsic { .. }));
    }

    #[test]
    fn folding_is_recursive() {
        // (1 + 2) * (3 + t0.0): inner constant folds, outer stays.
        let mut e = RamExpr::intrinsic(
            IntrinsicOp::Mul,
            vec![
                RamExpr::intrinsic(
                    IntrinsicOp::Add,
                    vec![RamExpr::Constant(1), RamExpr::Constant(2)],
                ),
                RamExpr::intrinsic(
                    IntrinsicOp::Add,
                    vec![
                        RamExpr::Constant(3),
                        RamExpr::TupleElement {
                            level: 0,
                            column: 0,
                        },
                    ],
                ),
            ],
        );
        fold_expr(&mut e);
        let RamExpr::Intrinsic { op, args } = &e else {
            panic!("outer op remains");
        };
        assert_eq!(*op, IntrinsicOp::Mul);
        assert_eq!(args[0], RamExpr::Constant(3));
        assert!(matches!(&args[1], RamExpr::Intrinsic { .. }));
    }

    #[test]
    fn signed_folding_uses_wrapping_semantics() {
        let mut e = RamExpr::intrinsic(
            IntrinsicOp::Sub,
            vec![RamExpr::Constant(0), RamExpr::Constant(5)],
        );
        fold_expr(&mut e);
        assert_eq!(e, RamExpr::Constant((-5i32) as u32));
    }
}
