//! Percentile and median-of-rounds arithmetic.

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
/// `None` on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The median, averaging the two middle values of an even count.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// One reported number with what it was computed from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value: the median over rounds, or the mean over
    /// repetitions.
    pub value: f64,
    pub min: f64,
    pub max: f64,
    /// Samples over all rounds.
    pub samples: usize,
}

/// Latency samples of one class, bucketed by the round they finished in.
#[derive(Debug, Clone, Default)]
pub struct Rounds(Vec<Vec<f64>>);

impl Rounds {
    pub fn new(rounds: usize) -> Rounds {
        Rounds(vec![Vec::new(); rounds.max(1)])
    }

    pub fn push(&mut self, round: usize, sample: f64) {
        let last = self.0.len() - 1;
        self.0[round.min(last)].push(sample);
    }

    pub fn merge(&mut self, other: &Rounds) {
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            mine.extend_from_slice(theirs);
        }
    }

    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }

    /// The `p`-th percentile of each non-empty round, then the median over
    /// rounds: one slow round (a neighbour's burst on the shared cores)
    /// moves the result far less than it moves a pooled percentile.
    pub fn percentile(&self, p: f64) -> Option<Summary> {
        let per_round: Vec<f64> = self.0.iter().filter_map(|r| percentile(r, p)).collect();
        Some(Summary {
            value: median(&per_round)?,
            min: per_round.iter().copied().fold(f64::INFINITY, f64::min),
            max: per_round.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            samples: self.len(),
        })
    }
}

/// The mean over repetitions of a CPU-bound step (batch runs, set-ups,
/// starts, restarts).
///
/// Not the median: this host's cores run in a fast state or one about
/// 25 % slower, for a second or a few at a time, so a handful of
/// repetitions is a draw from two tight modes. Their median (like their
/// minimum or any other order statistic) sits in one mode or the other
/// and flips between runs of the same commit as the share of the fast
/// state drifts; the mean moves by the drift only. Replaying 700
/// back-to-back `stir` runs, ten-run spreads of a five-repetition
/// statistic were 0.05-0.07 for the mean against 0.05-0.19 for the median
/// and 0.02-0.16 for the minimum, depending on the hour.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    Some(Summary {
        value: samples.iter().sum::<f64>() / samples.len() as f64,
        min: samples.iter().copied().fold(f64::INFINITY, f64::min),
        max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        samples: samples.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_of_rounds_shrugs_off_one_bad_round() {
        let mut r = Rounds::new(5);
        for round in 0..5 {
            for k in 0..20 {
                // Round 3 is ten times slower throughout.
                let base = if round == 3 { 1000.0 } else { 100.0 };
                r.push(round, base + f64::from(k));
            }
        }
        let s = r.percentile(95.0).expect("samples");
        assert_eq!(s.value, 118.0, "p95 of a good round");
        assert_eq!((s.min, s.max), (118.0, 1018.0));
        assert_eq!(s.samples, 100);
    }

    #[test]
    fn repetitions_report_their_mean() {
        let s = summarize(&[1.25, 1.0, 1.5, 1.25]).expect("samples");
        assert_eq!((s.value, s.min, s.max, s.samples), (1.25, 1.0, 1.5, 4));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn rounds_skip_empty_buckets_and_clamp_late_samples() {
        let mut r = Rounds::new(5);
        assert!(r.percentile(50.0).is_none());
        r.push(0, 10.0);
        r.push(99, 30.0); // after the last round's end: counts for the last round
        let s = r.percentile(50.0).expect("two rounds");
        assert_eq!(s.value, 20.0);
        assert_eq!(s.samples, 2);
    }
}
