//! The benchmark's statistics: nearest-rank percentiles that refuse to
//! report a tail with fewer than ten samples beyond it, medians, ratios
//! that keep their base, and the metric-name rules of `BENCHMARK.json`.

use std::fmt;

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// `q`-quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// The nearest-rank `q`-quantile of `sorted`; `None` when empty.
fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples sorted");
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), q)])
}

/// The nearest-rank `q`-quantile of `sorted`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it: such a tail is one or two
/// unlucky samples, not a percentile.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if beyond(sorted.len(), q) < MIN_BEYOND {
        return None;
    }
    quantile(sorted, q)
}

/// Sorts samples in place for [`percentile`].
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// The median (mean of the middle pair for an even count); `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A ratio that keeps its numerator and denominator, so a reported
/// figure can always be traced back to its base.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator: the base the ratio is taken over.
    pub den: f64,
}

impl Ratio {
    /// `num / den`.
    pub fn new(num: f64, den: f64) -> Self {
        Ratio { num, den }
    }

    /// The ratio's value; 0 over an empty base.
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
        write!(f, "{:.6} ({}/{})", self.value(), self.num, self.den)
    }
}

/// A metric name `BENCHMARK.json` accepts: starts with a letter or a
/// digit, at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit `BENCHMARK.json` accepts: 1 to 16 of letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples = ramp(100);
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        let samples = ramp(1000);
        assert_eq!(percentile(&samples, 0.95), Some(950.0));
        assert_eq!(percentile(&samples, 0.999), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 100 samples leave exactly ten beyond p90, nine beyond p91.
        assert_eq!(beyond(100, 0.9), 10);
        assert!(percentile(&ramp(100), 0.9).is_some());
        assert!(percentile(&ramp(99), 0.9).is_none());
        assert!(percentile(&ramp(100), 0.91).is_none());
        // p95 needs 200 samples.
        assert!(percentile(&ramp(199), 0.95).is_none());
        assert!(percentile(&ramp(200), 0.95).is_some());
        assert_eq!(beyond(0, 0.5), 0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn quantile_has_no_tail_rule() {
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.25), Some(1.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.75), Some(3.0));
        assert_eq!(quantile(&[5.0], 0.75), Some(5.0));
        assert_eq!(quantile(&[], 0.25), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ratio_keeps_its_base() {
        let ratio = Ratio::new(930.0, 1000.0);
        assert_eq!(ratio.value(), 0.93);
        assert_eq!(ratio.to_string(), "0.930000 (930/1000)");
        let empty = Ratio::new(0.0, 0.0);
        assert_eq!(empty.value(), 0.0);
        assert_eq!(empty.to_string(), "0.000000 (0/0)");
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for good in ["req_per_s", "vm.bcache.hit_ratio", "criu.dump_us", "0x-1"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "é",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "1/s", "%", "B/us", "count"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "µs", "with space", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
