//! Order statistics over timing samples, and the tail-percentile rule
//! every reported `.p95` follows.

/// Samples beyond a reported tail percentile: a `.p95` needs at least
/// this many samples above it, or the highest percentile that has them
/// is reported instead.
pub const TAIL_SAMPLES: usize = 10;

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (any order).
/// `None` on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The quantile actually reported for a requested tail `q` over `n`
/// samples: `q` itself when at least [`TAIL_SAMPLES`] samples lie beyond
/// it, otherwise the highest quantile that has them, never below the
/// median.
pub fn tail_q(q: f64, n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    let highest = 1.0 - TAIL_SAMPLES as f64 / n as f64;
    q.min(highest).max(0.5)
}

/// A named series of timing samples, in the unit it was recorded in.
#[derive(Debug, Default, Clone)]
pub struct Series {
    pub values: Vec<f64>,
}

impl Series {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn median(&self) -> f64 {
        median(&self.values).unwrap_or(f64::NAN)
    }

    /// The tail percentile under the [`tail_q`] rule, with the quantile
    /// it actually is.
    pub fn tail(&self, q: f64) -> (f64, f64) {
        let eff = tail_q(q, self.len());
        (quantile(&self.values, eff).unwrap_or(f64::NAN), eff)
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(f64::NAN, f64::max)
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_q(0.95, 200), 0.95);
        assert!((tail_q(0.95, 100) - 0.9).abs() < 1e-12);
        assert_eq!(tail_q(0.95, 12), 0.5, "never below the median");
        assert_eq!(tail_q(0.95, 0), 0.5);
    }
}
