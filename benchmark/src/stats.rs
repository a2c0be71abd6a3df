//! The benchmark's own arithmetic: medians, the tail-percentile rule and
//! ratios that carry their base.

use std::fmt;

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q * n` samples at or below it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly after the nearest-rank position of `q` in `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// Candidate tail percentiles, highest first.
pub const TAIL_QUANTILES: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// Samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile in [`TAIL_QUANTILES`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// lacks them.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_QUANTILES
        .iter()
        .copied()
        .find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

/// A latency summary: the median, the tail value and how it was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Tail value: the percentile named by `tail_q`, or the maximum when
    /// `tail_q` is `None`.
    pub tail: f64,
    /// The percentile behind `tail`.
    pub tail_q: Option<f64>,
}

impl Latency {
    /// Summarizes `samples` (need not be sorted; must be non-empty).
    pub fn of(samples: &[f64]) -> Latency {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_q = tail_quantile(n);
        let tail = match tail_q {
            Some(q) => nearest_rank(&sorted, q),
            None => sorted[n - 1],
        };
        Latency {
            n,
            p50: median(&sorted),
            tail,
            tail_q,
        }
    }

    /// The tail's label, e.g. `p99` or `max`.
    pub fn tail_label(&self) -> String {
        match self.tail_q {
            Some(q) => format!("p{}", q * 100.0),
            None => "max".to_string(),
        }
    }
}

/// A ratio printed with its base: `num/den = value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator (the base).
    pub den: f64,
}

impl Ratio {
    /// `num / den`, or 0 when the base is 0 (nothing attempted).
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} = {:.4}",
            fmt_num(self.num),
            fmt_num(self.den),
            self.value()
        )
    }
}

/// Integers without a fractional part, everything else to 4 decimals.
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 999 samples leave only 9 beyond p99; 1000 leave exactly 10.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(9_999), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
    }

    #[test]
    fn small_samples_fall_back_to_the_maximum() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        let lat = Latency::of(&[5.0, 1.0, 3.0]);
        assert_eq!(lat.n, 3);
        assert_eq!(lat.p50, 3.0);
        assert_eq!(lat.tail, 5.0);
        assert_eq!(lat.tail_label(), "max");
    }

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let samples: Vec<f64> = (0..1234).map(|i| f64::from(i % 617)).collect();
        let lat = Latency::of(&samples);
        assert_eq!(lat.tail_label(), "p99");
        let beyond = samples.iter().filter(|&&v| v > lat.tail).count();
        assert!(beyond >= MIN_BEYOND, "{beyond} samples beyond");
    }

    #[test]
    fn ratios_print_their_base() {
        let r = Ratio {
            num: 938.0,
            den: 2083.0,
        };
        assert_eq!(r.to_string(), "938/2083 = 0.4503");
        assert_eq!(Ratio { num: 0.0, den: 0.0 }.value(), 0.0);
        let t = Ratio { num: 1.5, den: 4.0 };
        assert_eq!(t.to_string(), "1.5000/4 = 0.3750");
    }
}
