//! The benchmark's own deterministic random source.
//!
//! Inputs and op schedules must be a function of `--seed` alone, on any
//! commit, so nothing here depends on the product's `stir_workloads::rng`
//! (a later PR may change that crate; it must not move the yardstick).

/// splitmix64: stable across platforms, good enough for workload synthesis.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`tag`) under one seed, so
    /// adding a draw to one generator never shifts another's sequence.
    pub fn stream(seed: u64, tag: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Rng(seed ^ h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range");
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// How query keys are drawn from `0..n`.
#[derive(Debug, Clone)]
pub enum KeyDist {
    Uniform(usize),
    /// Zipf with the given exponent: rank `k` (0-based) has weight
    /// `1/(k+1)^s`. Held as a cumulative table; `n` is a few thousand.
    Zipf(Vec<f64>),
}

impl KeyDist {
    pub fn zipf(n: usize, s: f64) -> KeyDist {
        assert!(n > 0, "empty key space");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        KeyDist::Zipf(cdf)
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        match self {
            KeyDist::Uniform(n) => rng.below(*n),
            KeyDist::Zipf(cdf) => {
                let u = rng.unit();
                cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_and_streams_differ() {
        let mut a = Rng::stream(7, "facts");
        let mut b = Rng::stream(7, "facts");
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut x = Rng::stream(7, "facts");
        let mut y = Rng::stream(7, "ops");
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::stream(1, "t");
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            assert!((-3..4).contains(&r.range(-3, 4)));
            assert!((0.0..1.0).contains(&r.unit()));
        }
    }

    #[test]
    fn zipf_has_a_heavy_head_and_uniform_does_not() {
        let mut r = Rng::stream(3, "t");
        let z = KeyDist::zipf(1000, 0.99);
        let u = KeyDist::Uniform(1000);
        let head = |d: &KeyDist, r: &mut Rng| (0..10_000).filter(|_| d.sample(r) < 10).count();
        let (zh, uh) = (head(&z, &mut r), head(&u, &mut r));
        assert!(
            zh > 3000,
            "zipf(0.99) puts ~39% on the top 10 of 1000: {zh}"
        );
        assert!(uh < 300, "uniform puts ~1% there: {uh}");
    }
}
