//! The value domain and fixed-arity tuples.
//!
//! Everything stored in a DER index is a [`RamDomain`] — a 32-bit bit
//! pattern. Numbers are stored as two's-complement `i32` bits, unsigned
//! numbers directly, floats as IEEE-754 `f32` bits, and symbols as indices
//! into the engine's symbol table. This is the paper's second
//! de-specialization step: indexes compare raw bits only.

use std::cmp::Ordering;

/// The single runtime value type of the engine: a 32-bit bit pattern.
///
/// Interpretation (signed, unsigned, float, symbol id) is applied by
/// functors and by I/O, never by the data structures.
pub type RamDomain = u32;

/// The largest relation arity for which indexes are pre-instantiated.
///
/// Matches the paper's observation that real-world programs use arities up
/// to 16. The [`crate::factory`] rejects larger arities.
pub const MAX_ARITY: usize = 16;

/// A fixed-arity tuple of [`RamDomain`] values.
///
/// The `const N` parameter is the Rust analogue of the paper's C++ template
/// arity parameter: operations on `Tuple<N>` are fully monomorphized, so
/// comparisons unroll and tuples live on the stack.
pub type Tuple<const N: usize> = [RamDomain; N];

/// Converts a dynamically sized slice into a fixed-arity tuple.
///
/// This is the boundary between the interpreter's dynamic world (slices)
/// and the data structures' static world (arrays).
///
/// # Panics
///
/// Panics if `slice.len() != N`; the caller (the factory-produced adapter)
/// guarantees matching arity.
#[inline]
pub fn tuple_from_slice<const N: usize>(slice: &[RamDomain]) -> Tuple<N> {
    debug_assert_eq!(slice.len(), N, "arity mismatch");
    let mut t = [0; N];
    t.copy_from_slice(slice);
    t
}

/// Compares two tuples in the natural lexicographic order on raw bits.
///
/// Provided as a named function (rather than relying on `Ord` for arrays)
/// so call sites in performance-critical loops are explicit about the
/// comparison semantics.
#[inline]
pub fn cmp_tuples<const N: usize>(a: &Tuple<N>, b: &Tuple<N>) -> Ordering {
    for i in 0..N {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

/// Compares two equal-length slices in the natural lexicographic order.
///
/// Dynamic-arity counterpart of [`cmp_tuples`], used by the legacy
/// (non-de-specialized) code paths.
#[inline]
pub fn cmp_slices(a: &[RamDomain], b: &[RamDomain]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_slice_round_trips() {
        let t: Tuple<3> = tuple_from_slice(&[7, 8, 9]);
        assert_eq!(t, [7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn from_slice_rejects_wrong_arity() {
        // Only checked in debug builds; tests run in debug.
        let _: Tuple<2> = tuple_from_slice(&[1, 2, 3]);
    }

    #[test]
    fn lexicographic_comparison_is_natural() {
        assert_eq!(cmp_tuples(&[1, 9], &[2, 0]), Ordering::Less);
        assert_eq!(cmp_tuples(&[2, 0], &[2, 1]), Ordering::Less);
        assert_eq!(cmp_tuples(&[2, 1], &[2, 1]), Ordering::Equal);
        assert_eq!(cmp_tuples(&[3, 0], &[2, 9]), Ordering::Greater);
    }

    #[test]
    fn slice_comparison_matches_tuple_comparison() {
        let pairs = [([1u32, 2], [1u32, 3]), ([5, 5], [5, 5]), ([9, 0], [1, 1])];
        for (a, b) in pairs {
            assert_eq!(cmp_tuples(&a, &b), cmp_slices(&a, &b));
        }
    }
}
