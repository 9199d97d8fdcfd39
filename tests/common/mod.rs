//! Shared test infrastructure: an independent, naive reference evaluator.
//!
//! The reference implementation shares *no* code with the engine's
//! evaluation path: it interprets the checked AST directly with naive
//! (non-semi-naive) fixpoint iteration and backtracking joins. It covers
//! the integer core of the language (positive/negative literals,
//! comparison constraints, arithmetic with binding equalities) — enough
//! to differentially test every structural feature of the engine.
//!
//! Values are the 32-bit patterns, held as the `i64` of their `i32`
//! reading. A variable occupying an `unsigned` atom position is
//! `unsigned`, and a comparison with an `unsigned` variable on either side
//! compares unsigned; everything else is `number`.

use std::collections::{BTreeSet, HashMap, HashSet};
use stir_core::Value;
use stir_frontend::analysis::CheckedProgram;
use stir_frontend::ast::{AttrType, BinOp, CmpOp, Expr, Literal, UnOp};

pub type Tuple = Vec<i64>;
pub type Db = HashMap<String, BTreeSet<Tuple>>;

/// Naively evaluates a checked program over `number`/`unsigned` relations.
///
/// # Panics
///
/// Panics on constructs outside the supported subset (floats, strings,
/// aggregates, `$`).
pub fn eval_reference(checked: &CheckedProgram, inputs: &Db) -> Db {
    let mut db: Db = Db::new();
    for d in &checked.ast.decls {
        db.insert(d.name.clone(), BTreeSet::new());
    }
    for (name, rows) in inputs {
        db.get_mut(name)
            .expect("declared input")
            .extend(rows.iter().cloned());
    }
    for fact in &checked.ast.facts {
        let tuple: Tuple = fact
            .atom
            .args
            .iter()
            .map(|a| match a {
                Expr::Number(n, _) => *n,
                other => panic!("reference evaluator: non-number fact arg {other}"),
            })
            .collect();
        db.get_mut(&fact.atom.name).expect("declared").insert(tuple);
    }

    for stratum in &checked.strata {
        loop {
            let mut grew = false;
            for &ri in &stratum.rules {
                let rule = &checked.ast.rules[ri];
                let mut unsigned = HashSet::new();
                for lit in &rule.body {
                    if let Literal::Positive(a) | Literal::Negative(a) = lit {
                        for (arg, attr) in a.args.iter().zip(&checked.decl(&a.name).attrs) {
                            if let (Expr::Var(v, _), AttrType::Unsigned) = (arg, attr.ty) {
                                unsigned.insert(v.clone());
                            }
                        }
                    }
                }
                let mut derived: Vec<Tuple> = Vec::new();
                join(
                    &db,
                    &rule.body,
                    &unsigned,
                    0,
                    &mut HashMap::new(),
                    &mut |env| {
                        let tuple: Tuple = rule
                            .head
                            .args
                            .iter()
                            .map(|a| eval_expr(a, env).expect("head is grounded"))
                            .collect();
                        derived.push(tuple);
                    },
                );
                let target = db.get_mut(&rule.head.name).expect("declared");
                for t in derived {
                    grew |= target.insert(t);
                }
            }
            if !grew {
                break;
            }
        }
    }
    db
}

fn join(
    db: &Db,
    body: &[Literal],
    unsigned: &HashSet<String>,
    idx: usize,
    env: &mut HashMap<String, i64>,
    emit: &mut dyn FnMut(&HashMap<String, i64>),
) {
    let Some(lit) = body.get(idx) else {
        emit(env);
        return;
    };
    match lit {
        Literal::Positive(atom) => {
            let tuples: Vec<Tuple> = db[&atom.name].iter().cloned().collect();
            'tuples: for t in tuples {
                let mut bound: Vec<String> = Vec::new();
                for (arg, &v) in atom.args.iter().zip(&t) {
                    match arg {
                        Expr::Wildcard(_) => {}
                        Expr::Var(name, _) => match env.get(name) {
                            Some(&have) if have != v => {
                                unbind(env, &bound);
                                continue 'tuples;
                            }
                            Some(_) => {}
                            None => {
                                env.insert(name.clone(), v);
                                bound.push(name.clone());
                            }
                        },
                        e => match eval_expr(e, env) {
                            Some(want) if want == v => {}
                            _ => {
                                unbind(env, &bound);
                                continue 'tuples;
                            }
                        },
                    }
                }
                join(db, body, unsigned, idx + 1, env, emit);
                unbind(env, &bound);
            }
        }
        Literal::Negative(atom) => {
            let matched = db[&atom.name].iter().any(|t| {
                atom.args.iter().zip(t).all(|(arg, &v)| match arg {
                    Expr::Wildcard(_) => true,
                    e => eval_expr(e, env) == Some(v),
                })
            });
            if !matched {
                join(db, body, unsigned, idx + 1, env, emit);
            }
        }
        Literal::Constraint(c) => {
            // Binding equality?
            if c.op == CmpOp::Eq {
                for (var_side, other) in [(&c.lhs, &c.rhs), (&c.rhs, &c.lhs)] {
                    if let Expr::Var(name, _) = var_side {
                        if !env.contains_key(name) {
                            if let Some(v) = eval_expr(other, env) {
                                env.insert(name.clone(), v);
                                join(db, body, unsigned, idx + 1, env, emit);
                                env.remove(name);
                            }
                            return;
                        }
                    }
                }
            }
            let (Some(mut a), Some(mut b)) = (eval_expr(&c.lhs, env), eval_expr(&c.rhs, env))
            else {
                panic!("reference evaluator: ungrounded constraint {c}");
            };
            let mut vars = Vec::new();
            c.lhs.collect_vars(&mut vars);
            c.rhs.collect_vars(&mut vars);
            if vars.iter().any(|v| unsigned.contains(*v)) {
                (a, b) = (i64::from(a as u32), i64::from(b as u32));
            }
            let holds = match c.op {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
            };
            if holds {
                join(db, body, unsigned, idx + 1, env, emit);
            }
        }
    }
}

fn unbind(env: &mut HashMap<String, i64>, names: &[String]) {
    for n in names {
        env.remove(n);
    }
}

/// Evaluates with i32 wrapping semantics (matching the engine's `number`
/// arithmetic); returns `None` when a variable is unbound.
fn eval_expr(e: &Expr, env: &HashMap<String, i64>) -> Option<i64> {
    let w = |v: i64| i64::from(v as i32); // wrap to i32 like the engine
    Some(match e {
        Expr::Number(n, _) => w(*n),
        Expr::Var(v, _) => *env.get(v)?,
        Expr::Binary { op, lhs, rhs, .. } => {
            let a = eval_expr(lhs, env)? as i32;
            let b = eval_expr(rhs, env)? as i32;
            let r = match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => a.wrapping_div(b),
                BinOp::Mod => a.wrapping_rem(b),
                BinOp::Pow => a.wrapping_pow(b as u32),
                BinOp::Band => a & b,
                BinOp::Bor => a | b,
                BinOp::Bxor => a ^ b,
                BinOp::Bshl => a.wrapping_shl(b as u32),
                BinOp::Bshr => a.wrapping_shr(b as u32),
                BinOp::Land => i32::from(a != 0 && b != 0),
                BinOp::Lor => i32::from(a != 0 || b != 0),
            };
            i64::from(r)
        }
        Expr::Unary { op, expr, .. } => {
            let a = eval_expr(expr, env)? as i32;
            let r = match op {
                UnOp::Neg => a.wrapping_neg(),
                UnOp::Bnot => !a,
                UnOp::Lnot => i32::from(a == 0),
            };
            i64::from(r)
        }
        other => panic!("reference evaluator: unsupported expression {other}"),
    })
}

/// Converts engine output rows (all `number`-typed) to reference tuples.
pub fn to_tuples(rows: &[Vec<Value>]) -> BTreeSet<Tuple> {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Number(n) => i64::from(*n),
                    other => panic!("expected number, got {other}"),
                })
                .collect()
        })
        .collect()
}
