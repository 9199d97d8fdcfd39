//! Evaluation of intrinsic operations and comparisons.
//!
//! Shared by the STI and the legacy interpreter (and mirrored by the
//! synthesizer's generated code). All operations work on `u32` bit
//! patterns; the [`IntrinsicOp`] variant encodes the interpretation.

use crate::error::EvalError;
use std::sync::RwLock;
use stir_frontend::SymbolTable;
use stir_ram::expr::CmpKind;
use stir_ram::IntrinsicOp;

/// Evaluates a unary or binary (or ternary, for `substr`) intrinsic.
///
/// # Errors
///
/// Division/remainder by zero and `to_number` on a non-numeric string are
/// runtime errors, as in Soufflé.
#[inline]
pub fn eval_intrinsic(
    op: IntrinsicOp,
    args: &[u32],
    symbols: &RwLock<SymbolTable>,
) -> Result<u32, EvalError> {
    use IntrinsicOp::*;
    let s = |i: usize| args[i] as i32;
    let u = |i: usize| args[i];
    Ok(match op {
        Cat => {
            let mut table = symbols
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let joined = format!("{}{}", table.resolve(u(0)), table.resolve(u(1)));
            table.intern(&joined)
        }
        Strlen => {
            let table = symbols
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            table.resolve(u(0)).chars().count() as u32
        }
        Substr => {
            let mut table = symbols
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let text: String = table.resolve(u(0)).to_owned();
            let from = s(1).max(0) as usize;
            let len = s(2).max(0) as usize;
            let sub: String = text.chars().skip(from).take(len).collect();
            table.intern(&sub)
        }
        ToNumber => {
            let table = symbols
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let text = table.resolve(u(0));
            text.trim()
                .parse::<i32>()
                .map(|v| v as u32)
                .map_err(|_| EvalError::new(format!("to_number: `{text}` is not a number")))?
        }
        ToString => {
            let mut table = symbols
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let rendered = (u(0) as i32).to_string();
            table.intern(&rendered)
        }
        _ => return eval_arith(op, u(0), args.get(1).copied().unwrap_or(0)),
    })
}

/// Evaluates an intrinsic that does not need the symbol table
/// ([`IntrinsicOp::needs_symbols`]) — all of them unary or binary; unary
/// operations ignore `b`. Small enough to inline into the fused filter
/// loop, where [`eval_intrinsic`] with its string arms is not.
///
/// # Errors
///
/// Division/remainder by zero.
///
/// # Panics
///
/// On an operation that needs the symbol table.
#[inline(always)]
pub fn eval_arith(op: IntrinsicOp, a: u32, b: u32) -> Result<u32, EvalError> {
    use IntrinsicOp::*;
    #[cold]
    fn by_zero(what: &str) -> EvalError {
        EvalError::new(format!("{what} by zero"))
    }
    let (sa, sb) = (a as i32, b as i32);
    let (fa, fb) = (f32::from_bits(a), f32::from_bits(b));
    Ok(match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        DivS | DivU if b == 0 => return Err(by_zero("division")),
        ModS | ModU if b == 0 => return Err(by_zero("remainder")),
        DivS => sa.wrapping_div(sb) as u32,
        DivU => a / b,
        ModS => sa.wrapping_rem(sb) as u32,
        ModU => a % b,
        PowS => sa.wrapping_pow(b) as u32,
        PowU => a.wrapping_pow(b),
        Neg => sa.wrapping_neg() as u32,
        AddF => (fa + fb).to_bits(),
        SubF => (fa - fb).to_bits(),
        MulF => (fa * fb).to_bits(),
        DivF => (fa / fb).to_bits(),
        PowF => fa.powf(fb).to_bits(),
        NegF => (-fa).to_bits(),
        BAnd => a & b,
        BOr => a | b,
        BXor => a ^ b,
        BNot => !a,
        BShl => a.wrapping_shl(b),
        BShrU => a.wrapping_shr(b),
        BShrS => sa.wrapping_shr(b) as u32,
        LAnd => u32::from(a != 0 && b != 0),
        LOr => u32::from(a != 0 || b != 0),
        LNot => u32::from(a == 0),
        MinS => sa.min(sb) as u32,
        MinU => a.min(b),
        MinF => fa.min(fb).to_bits(),
        MaxS => sa.max(sb) as u32,
        MaxU => a.max(b),
        MaxF => fa.max(fb).to_bits(),
        Ord => a,
        Cat | Strlen | Substr | ToNumber | ToString => {
            unreachable!("`{op}` needs the symbol table")
        }
    })
}

/// Evaluates a pre-typed comparison on two bit patterns.
#[inline]
pub fn eval_cmp(kind: CmpKind, a: u32, b: u32) -> bool {
    use CmpKind::*;
    match kind {
        Eq => a == b,
        Ne => a != b,
        LtS => (a as i32) < (b as i32),
        LeS => (a as i32) <= (b as i32),
        GtS => (a as i32) > (b as i32),
        GeS => (a as i32) >= (b as i32),
        LtU => a < b,
        LeU => a <= b,
        GtU => a > b,
        GeU => a >= b,
        LtF => f32::from_bits(a) < f32::from_bits(b),
        LeF => f32::from_bits(a) <= f32::from_bits(b),
        GtF => f32::from_bits(a) > f32::from_bits(b),
        GeF => f32::from_bits(a) >= f32::from_bits(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms() -> RwLock<SymbolTable> {
        RwLock::new(SymbolTable::new())
    }

    fn ev(op: IntrinsicOp, args: &[u32]) -> u32 {
        eval_intrinsic(op, args, &syms()).expect("evaluates")
    }

    #[test]
    fn integer_arithmetic_wraps_and_signs() {
        assert_eq!(ev(IntrinsicOp::Add, &[3, 4]), 7);
        assert_eq!(ev(IntrinsicOp::Sub, &[3, 4]) as i32, -1);
        assert_eq!(ev(IntrinsicOp::DivS, &[(-6i32) as u32, 3]) as i32, -2);
        assert_eq!(ev(IntrinsicOp::DivU, &[6, 3]), 2);
        assert_eq!(ev(IntrinsicOp::ModS, &[(-7i32) as u32, 3]) as i32, -1);
        assert_eq!(ev(IntrinsicOp::PowS, &[2, 10]), 1024);
        assert_eq!(ev(IntrinsicOp::Neg, &[5]) as i32, -5);
    }

    #[test]
    fn division_by_zero_errors() {
        let err = |op| {
            eval_intrinsic(op, &[1, 0], &syms())
                .expect_err("raises")
                .msg
        };
        assert_eq!(err(IntrinsicOp::DivS), "division by zero");
        assert_eq!(err(IntrinsicOp::DivU), "division by zero");
        assert_eq!(err(IntrinsicOp::ModS), "remainder by zero");
        assert_eq!(err(IntrinsicOp::ModU), "remainder by zero");
        // The one signed overflow wraps instead of trapping.
        let (min, minus_one) = (i32::MIN as u32, (-1i32) as u32);
        assert_eq!(eval_arith(IntrinsicOp::DivS, min, minus_one), Ok(min));
        assert_eq!(eval_arith(IntrinsicOp::ModS, min, minus_one), Ok(0));
    }

    #[test]
    fn float_arithmetic_via_bits() {
        let a = 1.5f32.to_bits();
        let b = 2.0f32.to_bits();
        assert_eq!(f32::from_bits(ev(IntrinsicOp::AddF, &[a, b])), 3.5);
        assert_eq!(f32::from_bits(ev(IntrinsicOp::MulF, &[a, b])), 3.0);
        assert_eq!(f32::from_bits(ev(IntrinsicOp::NegF, &[a])), -1.5);
    }

    #[test]
    fn bitwise_and_logical() {
        assert_eq!(ev(IntrinsicOp::BAnd, &[0b1100, 0b1010]), 0b1000);
        assert_eq!(ev(IntrinsicOp::BShl, &[1, 4]), 16);
        assert_eq!(ev(IntrinsicOp::BShrS, &[(-8i32) as u32, 1]) as i32, -4);
        assert_eq!(ev(IntrinsicOp::BShrU, &[(-8i32) as u32, 1]), 0x7FFF_FFFC);
        assert_eq!(ev(IntrinsicOp::LAnd, &[2, 0]), 0);
        assert_eq!(ev(IntrinsicOp::LOr, &[2, 0]), 1);
        assert_eq!(ev(IntrinsicOp::LNot, &[0]), 1);
    }

    #[test]
    fn string_functors() {
        let table = syms();
        let a = table.write().unwrap().intern("foo");
        let b = table.write().unwrap().intern("bar");
        let cat = eval_intrinsic(IntrinsicOp::Cat, &[a, b], &table).unwrap();
        assert_eq!(table.read().unwrap().resolve(cat), "foobar");
        let len = eval_intrinsic(IntrinsicOp::Strlen, &[cat], &table).unwrap();
        assert_eq!(len, 6);
        let sub = eval_intrinsic(IntrinsicOp::Substr, &[cat, 1, 3], &table).unwrap();
        assert_eq!(table.read().unwrap().resolve(sub), "oob");
        let n = table.write().unwrap().intern("42");
        assert_eq!(
            eval_intrinsic(IntrinsicOp::ToNumber, &[n], &table).unwrap(),
            42
        );
        assert!(eval_intrinsic(IntrinsicOp::ToNumber, &[a], &table).is_err());
        let rendered = eval_intrinsic(IntrinsicOp::ToString, &[(-3i32) as u32], &table).unwrap();
        assert_eq!(table.read().unwrap().resolve(rendered), "-3");
    }

    #[test]
    fn comparisons_respect_types() {
        use CmpKind::*;
        let minus_one = (-1i32) as u32;
        assert!(eval_cmp(LtS, minus_one, 0));
        assert!(!eval_cmp(LtU, minus_one, 0)); // -1 is u32::MAX unsigned
        assert!(eval_cmp(GtU, minus_one, 0));
        assert!(eval_cmp(LtF, 1.0f32.to_bits(), 2.0f32.to_bits()));
        assert!(eval_cmp(Eq, 7, 7));
        assert!(eval_cmp(Ne, 7, 8));
        assert!(eval_cmp(GeS, 5, 5));
    }
}
