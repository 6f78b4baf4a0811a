//! Order statistics and a small deterministic random source.

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (any order). `None` when
/// `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The best of per-cycle medians (lowest when `lower_is_better`, else highest),
/// over the cycles that have values; `None` when none has.
///
/// A run interleaves its phases in cycles. A slow spell of a shared machine
/// inflates the cycles it hits, and which and how many it hits differs from run
/// to run; the best cycle's median is the estimate of the system's own speed
/// that varies least between runs. A change that slows the system slows every
/// cycle, the best one included.
pub fn best_cycle_median(per_cycle: &[Vec<f64>], lower_is_better: bool) -> Option<f64> {
    let medians = per_cycle.iter().filter_map(|c| median(c));
    if lower_is_better {
        medians.reduce(f64::min)
    } else {
        medians.reduce(f64::max)
    }
}

/// Geometric mean of positive ratios; `None` when empty.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((sum / values.len() as f64).exp())
}

/// SplitMix64: a tiny seeded generator, so the benchmark's inputs depend on
/// `--seed` alone and on nothing the program under test provides.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quantile(&[0.0, 10.0], 0.99), Some(9.9));
        assert_eq!(median(&[]), None);
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        let cycles = [vec![3.0, 1.0, 2.0], vec![], vec![5.0, 4.0]];
        assert_eq!(best_cycle_median(&cycles, true), Some(2.0));
        assert_eq!(best_cycle_median(&cycles, false), Some(4.5));
    }

    #[test]
    fn rng_is_seeded() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert!((0..4).all(|_| a.next_u64() == b.next_u64()));
        let mut r = Rng::new(8);
        assert!((0..1000).all(|_| r.below(10) < 10));
    }
}
