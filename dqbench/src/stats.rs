//! Order statistics and the regression rule the benchmark reports by.
//!
//! * Latencies are reported as a median plus the highest percentile of
//!   [`TAIL_LADDER`] that has at least [`MIN_BEYOND`] samples beyond it,
//!   always with the sample count.
//! * Run-to-run spread is the inter-quartile range as a share of the
//!   median, with quartiles computed exactly as Python's
//!   `statistics.quantiles(values, n=4)` computes them.
//! * A metric regresses when the change's median is worse than the
//!   parent's by more than its bound: a share of the parent's median,
//!   but never less than an absolute floor (a 2 ms set-up that moves by
//!   0.5 ms is noise, not a 25% regression).

/// Percentiles a tail may be reported at, in tenths of a percent,
/// highest first.
pub const TAIL_LADDER: [u32; 4] = [999, 990, 900, 500];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice, interpolating
/// linearly between the two closest ranks.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Throughput of concurrent operations as the median, over equal bins
/// of the window `[0, window_s)`, of the work done in each bin per
/// second. Each operation, given as its `(start, end)` in seconds, is
/// one unit of work spread evenly over its lifetime, so a bin counts
/// the fractions of the operations it overlaps: the rate is not
/// quantised to whole operations, and a stall in one bin does not move
/// the median. Bins are about `bin_s` long; a window shorter than that
/// is one bin.
pub fn binned_rate_median(ops: &[(f64, f64)], window_s: f64, bin_s: f64) -> f64 {
    let bins = ((window_s / bin_s).floor() as usize).max(1);
    let width = window_s / bins as f64;
    let mut work = vec![0.0; bins];
    for &(start, end) in ops {
        for (k, slot) in work.iter_mut().enumerate() {
            let (lo, hi) = (k as f64 * width, (k + 1) as f64 * width);
            if end > start {
                *slot += (end.min(hi) - start.max(lo)).max(0.0) / (end - start);
            } else if (lo..hi).contains(&start) {
                *slot += 1.0;
            }
        }
    }
    median(&work) / width
}

/// The highest percentile of [`TAIL_LADDER`] (in tenths of a percent)
/// with at least [`MIN_BEYOND`] of `n` samples ranked beyond it.
pub fn tail_permille(n: usize) -> Option<u32> {
    TAIL_LADDER.into_iter().find(|&pm| {
        let at = (n * pm as usize).div_ceil(1000);
        n - at >= MIN_BEYOND
    })
}

/// A latency distribution reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(percentile in tenths of a percent, value)` of the reported
    /// tail, when enough samples exist for one.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let s = sorted(values);
        Some(Summary {
            n: s.len(),
            p50: quantile(&s, 0.5),
            tail: tail_permille(s.len()).map(|pm| (pm, quantile(&s, f64::from(pm) / 1000.0))),
        })
    }
}

/// Metric name suffix for a percentile in tenths of a percent:
/// `999 → "p99.9"`, `990 → "p99"`.
pub fn percentile_label(permille: u32) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

/// First, second and third quartile by Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method);
/// `None` below two samples, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative for tiny samples, as in Python: extrapolation.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile range as a share of the median (the spread the
/// bounds are set against); `None` below two samples or at a zero
/// median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// Parses `BENCHMARK.json`'s `"better"` field.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// How far a metric may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Share of the parent's median.
    pub relative: f64,
    /// Absolute floor in the metric's unit.
    pub floor: f64,
}

impl Bound {
    /// The worsening allowed against a parent median.
    pub fn allowance(&self, parent: f64) -> f64 {
        (self.relative * parent.abs()).max(self.floor)
    }

    /// Whether moving from `parent` to `change` (medians) is a
    /// regression under this bound.
    pub fn regressed(&self, parent: f64, change: f64, better: Better) -> bool {
        let worse_by = match better {
            Better::Lower => change - parent,
            Better::Higher => parent - change,
        };
        worse_by > self.allowance(parent)
    }
}

/// The absolute floor for a metric's unit: below these a change is
/// within timer and allocator noise whatever its relative size.
pub fn floor_for_unit(unit: &str) -> f64 {
    match unit {
        "s" => 0.010,
        "ms" => 0.05,
        "us" => 5.0,
        "MB" => 1.0,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn binned_rate_spreads_each_operation_over_its_lifetime() {
        // Bins [0,1), [1,2), [2,3). The first operation is split evenly
        // between the first two bins; the last one ends past the window,
        // which keeps only its first quarter.
        let ops = [(0.5, 1.5), (0.0, 1.0), (1.0, 2.0), (2.0, 2.5), (2.5, 4.5)];
        // Work per bin: 1.5, 1.5, 1.25.
        assert_eq!(binned_rate_median(&ops, 3.0, 1.0), 1.5);
        // A stalled bin does not move the median.
        let stalled = [(0.0, 0.5), (0.5, 1.0), (2.0, 3.0), (3.0, 4.0)];
        assert_eq!(binned_rate_median(&stalled, 4.0, 1.0), 1.0);
        // A window shorter than a bin is one bin over the whole window;
        // an instantaneous operation counts whole in its bin.
        assert_eq!(binned_rate_median(&[(0.1, 0.1), (0.2, 0.3)], 0.5, 1.0), 4.0);
        assert_eq!(binned_rate_median(&[], 2.0, 1.0), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // Below 20 samples not even the median has ten beyond it.
        assert_eq!(tail_permille(0), None);
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(99), Some(500));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(999), Some(900));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(9_999), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
    }

    #[test]
    fn summary_always_carries_n_and_only_a_backed_tail() {
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        let s = Summary::of(&few).unwrap();
        assert_eq!(s.n, 12);
        assert_eq!(s.p50, 6.5);
        assert_eq!(s.tail, None);

        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&many).unwrap();
        assert_eq!(s.n, 100);
        let (pm, v) = s.tail.unwrap();
        assert_eq!(pm, 900);
        assert!((v - 90.1).abs() < 1e-9, "{v}");
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(percentile_label(990), "p99");
        assert_eq!(percentile_label(999), "p99.9");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let share = iqr_share(&ten).unwrap();
        assert!((share - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn bound_is_relative_with_an_absolute_floor() {
        let b = Bound {
            relative: 0.10,
            floor: 0.010,
        };
        // Relative part dominates for large values.
        assert!(!b.regressed(1.0, 1.09, Better::Lower));
        assert!(b.regressed(1.0, 1.11, Better::Lower));
        // Improvements never regress.
        assert!(!b.regressed(1.0, 0.5, Better::Lower));
        assert!(!b.regressed(100.0, 150.0, Better::Higher));
        // Throughput drops count the other way round.
        assert!(!b.regressed(100.0, 91.0, Better::Higher));
        assert!(b.regressed(100.0, 89.0, Better::Higher));
        // The floor dominates for tiny values: +50% of 2 ms is noise.
        assert!(!b.regressed(0.002, 0.003, Better::Lower));
        assert!(b.regressed(0.002, 0.013, Better::Lower));
        assert_eq!(b.allowance(0.002), 0.010);
        assert_eq!(Better::parse("higher"), Some(Better::Higher));
        assert_eq!(Better::parse("up"), None);
    }
}
