//! Sample statistics and the seeded generator the workloads draw from.

use std::time::Duration;

/// Latency samples in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ms: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ms.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_ms(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ms.extend_from_slice(&other.ms);
    }

    /// Nearest-rank percentile `p` (in percent).
    ///
    /// A percentile is only reported when at least ten samples lie beyond
    /// its rank; the median needs ten samples on either side. Too few
    /// samples is an error, not a quietly noisy number.
    pub fn pct(&self, p: usize) -> Result<f64, String> {
        let n = self.ms.len();
        let rank = (n * p).div_ceil(100).max(1);
        let above = n.saturating_sub(rank);
        let beyond = if p <= 50 { above.min(rank) } else { above };
        if beyond < 10 {
            return Err(format!("p{p} needs 10 samples beyond it; have {n} samples"));
        }
        let mut v = self.ms.clone();
        v.sort_by(f64::total_cmp);
        Ok(v[rank - 1])
    }

    pub fn p50(&self) -> Result<f64, String> {
        self.pct(50)
    }

    pub fn p90(&self) -> Result<f64, String> {
        self.pct(90)
    }

    /// Median of samples that come in whole steps of `step` (the
    /// server's integer `micros`): the grouped-data median, interpolated
    /// inside the step that holds it, so a shift of the distribution shows
    /// even when the plain median stays on the same step.
    pub fn grouped_median(&self, step: f64) -> f64 {
        let m = self.median();
        let below = self.ms.iter().filter(|&&v| v < m - step / 2.0).count() as f64;
        let at = self.ms.iter().filter(|&&v| (v - m).abs() <= step / 2.0).count() as f64;
        m - step / 2.0 + (self.ms.len() as f64 / 2.0 - below) / at.max(1.0) * step
    }

    /// Median of however many samples there are, for in-process layer
    /// timings repeated a few times rather than sampled by the thousand.
    pub fn median(&self) -> f64 {
        median(&self.ms)
    }
}

/// Median of a few values (set-up repetitions); averages the middle pair.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 1..=99 {
            s.push_ms(i as f64);
        }
        assert!(s.p90().is_err(), "99 samples leave 9 beyond p90");
        assert!(s.p50().is_ok());
        s.push_ms(100.0);
        assert_eq!(s.p90().unwrap(), 90.0);
        assert_eq!(s.p50().unwrap(), 50.0);
        let few = Samples { ms: (1..=19).map(f64::from).collect() };
        assert!(few.p50().is_err(), "19 samples leave 9 below the median");
    }

    #[test]
    fn grouped_median_moves_within_a_step() {
        let mostly_one = Samples { ms: vec![1.0, 1.0, 1.0, 2.0] };
        let mostly_two = Samples { ms: vec![1.0, 2.0, 2.0, 2.0] };
        assert_eq!(mostly_one.median(), 1.0);
        assert!(mostly_one.grouped_median(1.0) < 1.5);
        assert!(mostly_two.grouped_median(1.0) > 1.5);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
