//! Object-safe tuple iteration, with the paper's buffering mechanism.
//!
//! The dynamic adapter layer (see [`crate::adapter`]) must expose iteration
//! through a virtual interface. A naive virtual call per `next` is the
//! dominant cost of a dynamic interpreter — a Datalog run performs billions
//! of iterator operations — so the paper amortizes it by buffering
//! [`BUFFER_SIZE`] tuples per virtual call (§3): the concrete iterator
//! implements a *monomorphic* bulk [`TupleIter::fill`], and the
//! [`BufferedTupleIter`] wrapper serves single tuples out of the buffer.

use crate::order::Order;
use crate::tuple::RamDomain;

/// Number of tuples fetched per virtual call by [`BufferedTupleIter`].
///
/// The paper picks 128 (arbitrarily); we keep the same constant so the
/// amortization factor matches.
pub const BUFFER_SIZE: usize = 128;

/// An object-safe, lending iterator over tuples of one fixed arity.
///
/// Tuples are yielded in the *stored* (index) order of the producing
/// index; callers that need source order apply [`DecodingIter`] or — in the
/// optimized interpreter — rewrite accesses statically instead
/// (paper §4.2).
pub trait TupleIter {
    /// The arity of yielded tuples.
    fn arity(&self) -> usize;

    /// Yields the next tuple, or `None` when exhausted.
    fn next_tuple(&mut self) -> Option<&[RamDomain]>;

    /// Appends up to `max` tuples, flattened, onto `out`; returns how many
    /// tuples were appended.
    ///
    /// Implementations run a monomorphic loop so that a single virtual
    /// `fill` call replaces `max` virtual `next_tuple` calls.
    fn fill(&mut self, out: &mut Vec<RamDomain>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.next_tuple() {
                Some(t) => {
                    out.extend_from_slice(t);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Drains the iterator into owned tuples (testing/IO convenience).
    fn collect_tuples(&mut self) -> Vec<Vec<RamDomain>>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        while let Some(t) = self.next_tuple() {
            out.push(t.to_vec());
        }
        out
    }

    /// Counts the remaining tuples.
    fn count_tuples(&mut self) -> usize {
        let mut n = 0;
        while self.next_tuple().is_some() {
            n += 1;
        }
        n
    }
}

impl TupleIter for Box<dyn TupleIter + '_> {
    fn arity(&self) -> usize {
        (**self).arity()
    }
    fn next_tuple(&mut self) -> Option<&[RamDomain]> {
        (**self).next_tuple()
    }
    fn fill(&mut self, out: &mut Vec<RamDomain>, max: usize) -> usize {
        (**self).fill(out, max)
    }
}

impl TupleIter for Box<dyn TupleIter + Send + '_> {
    fn arity(&self) -> usize {
        (**self).arity()
    }
    fn next_tuple(&mut self) -> Option<&[RamDomain]> {
        (**self).next_tuple()
    }
    fn fill(&mut self, out: &mut Vec<RamDomain>, max: usize) -> usize {
        (**self).fill(out, max)
    }
}

/// Adapts any `Iterator` over fixed-arity tuples into a [`TupleIter`].
///
/// The generic parameter keeps `fill` monomorphic: the inner loop compiles
/// down to direct calls into the concrete iterator.
#[derive(Debug)]
pub struct AdaptedIter<I, const N: usize> {
    inner: I,
    current: [RamDomain; N],
}

impl<I, const N: usize> AdaptedIter<I, N> {
    /// Wraps a concrete tuple iterator.
    pub fn new(inner: I) -> Self {
        AdaptedIter {
            inner,
            current: [0; N],
        }
    }
}

impl<I, const N: usize> TupleIter for AdaptedIter<I, N>
where
    I: Iterator<Item = [RamDomain; N]>,
{
    fn arity(&self) -> usize {
        N
    }

    fn next_tuple(&mut self) -> Option<&[RamDomain]> {
        self.current = self.inner.next()?;
        Some(&self.current)
    }

    fn fill(&mut self, out: &mut Vec<RamDomain>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.inner.next() {
                Some(t) => {
                    out.extend_from_slice(&t);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

/// A [`TupleIter`] over an owned, flattened tuple buffer.
#[derive(Debug)]
pub struct VecTupleIter {
    data: Vec<RamDomain>,
    arity: usize,
    pos: usize,
}

impl VecTupleIter {
    /// Creates an iterator over `data`, which must hold whole tuples.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `arity`.
    pub fn new(data: Vec<RamDomain>, arity: usize) -> Self {
        assert!(
            arity > 0 && data.len().is_multiple_of(arity),
            "ragged tuple buffer"
        );
        VecTupleIter {
            data,
            arity,
            pos: 0,
        }
    }
}

impl TupleIter for VecTupleIter {
    fn arity(&self) -> usize {
        self.arity
    }

    fn next_tuple(&mut self) -> Option<&[RamDomain]> {
        if self.pos >= self.data.len() {
            return None;
        }
        let t = &self.data[self.pos..self.pos + self.arity];
        self.pos += self.arity;
        Some(t)
    }

    fn fill(&mut self, out: &mut Vec<RamDomain>, max: usize) -> usize {
        let avail = (self.data.len() - self.pos) / self.arity;
        let n = avail.min(max);
        out.extend_from_slice(&self.data[self.pos..self.pos + n * self.arity]);
        self.pos += n * self.arity;
        n
    }
}

/// The paper's buffering adapter: turns one virtual call per tuple into one
/// virtual call per [`BUFFER_SIZE`] tuples.
pub struct BufferedTupleIter<'a> {
    inner: Box<dyn TupleIter + 'a>,
    buf: Vec<RamDomain>,
    arity: usize,
    pos: usize,
    exhausted: bool,
}

impl std::fmt::Debug for BufferedTupleIter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferedTupleIter")
            .field("arity", &self.arity)
            .field("buffered", &(self.buf.len() / self.arity.max(1)))
            .field("pos", &self.pos)
            .finish()
    }
}

impl<'a> BufferedTupleIter<'a> {
    /// Wraps a virtualized iterator with a [`BUFFER_SIZE`]-tuple buffer.
    pub fn new(inner: Box<dyn TupleIter + 'a>) -> Self {
        let arity = inner.arity();
        BufferedTupleIter {
            inner,
            buf: Vec::with_capacity(BUFFER_SIZE * arity),
            arity,
            pos: 0,
            exhausted: false,
        }
    }
}

impl TupleIter for BufferedTupleIter<'_> {
    fn arity(&self) -> usize {
        self.arity
    }

    fn next_tuple(&mut self) -> Option<&[RamDomain]> {
        if self.pos >= self.buf.len() {
            if self.exhausted {
                return None;
            }
            self.buf.clear();
            self.pos = 0;
            let got = self.inner.fill(&mut self.buf, BUFFER_SIZE);
            if got < BUFFER_SIZE {
                self.exhausted = true;
            }
            if got == 0 {
                return None;
            }
        }
        let t = &self.buf[self.pos..self.pos + self.arity];
        self.pos += self.arity;
        Some(t)
    }
}

/// Decodes stored-order tuples back to source order on the fly.
///
/// This is the runtime-reordering cost that the optimized interpreter
/// removes via static tuple reordering (paper §4.2); the legacy paths keep
/// it.
pub struct DecodingIter<'a> {
    inner: Box<dyn TupleIter + 'a>,
    order: Order,
    out: Vec<RamDomain>,
}

impl std::fmt::Debug for DecodingIter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodingIter")
            .field("order", &self.order)
            .finish()
    }
}

impl<'a> DecodingIter<'a> {
    /// Wraps `inner`, decoding each tuple through `order`.
    pub fn new(inner: Box<dyn TupleIter + 'a>, order: Order) -> Self {
        let arity = order.arity();
        DecodingIter {
            inner,
            order,
            out: vec![0; arity],
        }
    }
}

impl TupleIter for DecodingIter<'_> {
    fn arity(&self) -> usize {
        self.order.arity()
    }

    fn next_tuple(&mut self) -> Option<&[RamDomain]> {
        let stored = self.inner.next_tuple()?;
        self.order.decode(stored, &mut self.out);
        Some(&self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u32) -> VecTupleIter {
        let mut data = Vec::new();
        for i in 0..n {
            data.extend_from_slice(&[i, i * 10]);
        }
        VecTupleIter::new(data, 2)
    }

    #[test]
    fn vec_iter_yields_in_order() {
        let mut it = sample(3);
        assert_eq!(it.next_tuple(), Some(&[0, 0][..]));
        assert_eq!(it.next_tuple(), Some(&[1, 10][..]));
        assert_eq!(it.next_tuple(), Some(&[2, 20][..]));
        assert_eq!(it.next_tuple(), None);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_buffer_rejected() {
        VecTupleIter::new(vec![1, 2, 3], 2);
    }

    #[test]
    fn fill_respects_max() {
        let mut it = sample(10);
        let mut out = Vec::new();
        assert_eq!(it.fill(&mut out, 4), 4);
        assert_eq!(out.len(), 8);
        assert_eq!(it.fill(&mut out, 100), 6);
    }

    #[test]
    fn buffered_iter_is_transparent() {
        for n in [0u32, 1, 127, 128, 129, 300] {
            let plain: Vec<_> = sample(n).collect_tuples();
            let buffered: Vec<_> = BufferedTupleIter::new(Box::new(sample(n))).collect_tuples();
            assert_eq!(plain, buffered, "n = {n}");
        }
    }

    #[test]
    fn decoding_iter_restores_source_order() {
        let order = Order::new(vec![1, 0]);
        // stored tuples are (b, a); decoding gives (a, b)
        let stored = VecTupleIter::new(vec![10, 1, 20, 2], 2);
        let mut it = DecodingIter::new(Box::new(stored), order);
        assert_eq!(it.next_tuple(), Some(&[1, 10][..]));
        assert_eq!(it.next_tuple(), Some(&[2, 20][..]));
        assert_eq!(it.next_tuple(), None);
    }

    #[test]
    fn adapted_iter_wraps_concrete_iterators() {
        let tuples = vec![[1u32, 2], [3, 4]];
        let mut it = AdaptedIter::<_, 2>::new(tuples.into_iter());
        assert_eq!(it.arity(), 2);
        assert_eq!(it.collect_tuples(), vec![vec![1, 2], vec![3, 4]]);
    }

    #[test]
    fn count_tuples_counts() {
        assert_eq!(sample(17).count_tuples(), 17);
    }
}
