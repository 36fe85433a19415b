//! The benchmark's own statistics: percentiles that carry their sample
//! count and refuse thin tails, per-op ratios that name their base, and
//! the last-quarter window behind `late_ops_per_s`.

use std::fmt;

/// A tail percentile needs at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Why a percentile was not reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Refused {
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

impl fmt::Display for Refused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "refused: {} of {} samples beyond it, {} needed",
            self.beyond, self.samples, MIN_BEYOND
        )
    }
}

/// The nearest-rank `q`-percentile of `samples` (any order). Refused
/// when fewer than [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(samples: &[f64], q: f64) -> Result<Percentile, Refused> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(Refused { samples: n, beyond });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// The count a per-op ratio is divided by.
pub const ANSWERED_OPS: &str = "answered ops";

/// A count per answered operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PerOp {
    pub count: f64,
    pub answered: u64,
}

impl PerOp {
    pub fn new(count: f64, answered: u64) -> Self {
        PerOp { count, answered }
    }

    pub fn value(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            self.count / self.answered as f64
        }
    }

    pub fn base(&self) -> &'static str {
        ANSWERED_OPS
    }
}

/// The last quarter of one deployment's history: the `q = n/4` (at
/// least 1) operations answered last, and the time they took — from the
/// answer just before them to the final answer. `None` when the history
/// is too short to have a quarter with a preceding answer.
pub fn late_window(done_secs: &[f64]) -> Option<(usize, f64)> {
    let n = done_secs.len();
    if n < 4 {
        return None;
    }
    let mut t = done_secs.to_vec();
    t.sort_by(f64::total_cmp);
    let q = n / 4;
    let span = t[n - 1] - t[n - 1 - q];
    (span > 0.0).then_some((q, span))
}

/// The better quartile of `values`: the upper quartile when higher is
/// better, else the lower one, interpolated between order statistics at
/// rank `(n + 1) q` as Python's `statistics.quantiles` does.
pub fn better_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return v.first().copied().unwrap_or(0.0);
    }
    let q = if higher_is_better { 0.75 } else { 0.25 };
    let pos = ((n + 1) as f64 * q).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let hi = (lo + 1).min(n);
    v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_sample_count() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&s, 0.5).expect("50 beyond");
        assert_eq!((p50.value, p50.samples), (50.0, 100));
        let p90 = percentile(&s, 0.9).expect("exactly 10 beyond");
        assert_eq!((p90.value, p90.samples), (90.0, 100));
    }

    #[test]
    fn percentile_refused_below_ten_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            percentile(&s, 0.99),
            Err(Refused {
                samples: 100,
                beyond: 1
            })
        );
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99).map(|p| p.value), Ok(990.0));
        assert_eq!(
            percentile(&[], 0.5).map(|p| p.value),
            Err(Refused {
                samples: 0,
                beyond: 0
            })
        );
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut s: Vec<f64> = (1..=40).map(f64::from).collect();
        s.reverse();
        assert_eq!(percentile(&s, 0.5).map(|p| p.value), Ok(20.0));
    }

    #[test]
    fn per_op_ratio_names_answered_ops() {
        let r = PerOp::new(30.0, 10);
        assert_eq!(r.value(), 3.0);
        assert_eq!(r.base(), "answered ops");
        assert_eq!(PerOp::new(5.0, 0).value(), 0.0);
    }

    #[test]
    fn late_window_is_the_last_quarter() {
        // Answers at 1..=8 s: the last quarter is the answers at 7 and 8,
        // timed from the answer at 6 — 2 ops over 2 s.
        let t: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(late_window(&t), Some((2, 2.0)));
        // Order-independent, and a slow tail shows as a lower rate.
        let t = [0.5, 0.1, 0.3, 0.2, 3.0, 0.4, 0.6, 1.6];
        assert_eq!(late_window(&t), Some((2, 3.0 - 0.6)));
        assert_eq!(late_window(&[1.0, 2.0, 3.0]), None);
        // A quarter of 1001 answers is 250.
        let t: Vec<f64> = (0..1001).map(f64::from).collect();
        assert_eq!(late_window(&t), Some((250, 250.0)));
    }

    #[test]
    fn better_quartile_matches_python_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8], n=4) == [2.25, 4.5, 6.75]
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(better_quartile(&v, false), 2.25);
        assert_eq!(better_quartile(&v, true), 6.75);
        // Three blocks: the quartiles are the extremes.
        assert_eq!(better_quartile(&[5.0, 1.0, 3.0], true), 5.0);
        assert_eq!(better_quartile(&[5.0, 1.0, 3.0], false), 1.0);
        assert_eq!(better_quartile(&[4.0], true), 4.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
