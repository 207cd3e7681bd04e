//! The harness's own arithmetic: medians and quartiles, which tail
//! percentile a sample count supports, and the improved / unchanged /
//! regressed / unresolved rule applied to a metric against its bound.

use serde::{Deserialize, Serialize};

/// Median of `values` (mean of the two middle values for an even
/// count). `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method) — the driver's spread rule uses exactly these. Falls back to
/// min and max below 2 samples' worth of information.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, clamped into the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The `p`-th percentile (nearest rank) of an already sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentiles the harness ever reports, ascending.
pub const TAILS: [f64; 4] = [90.0, 99.0, 99.9, 99.99];

/// The highest of [`TAILS`] with at least ten samples beyond it among
/// `samples` observations — a p99.9 read off 2 000 samples is the
/// second-worst observation, not a percentile. `None` when even p90 has
/// fewer than ten beyond it.
pub fn highest_supported_tail(samples: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .rev()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput).
    Higher,
    /// Smaller is better (time, memory).
    Lower,
}

/// One metric of one workload as a result file stores it: the reported
/// value (a median) and the spread of the samples behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// The reported value: the median of the samples.
    pub value: f64,
    /// The metric's unit.
    pub unit: String,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub samples: usize,
    /// The highest tail percentile the sample count supports (see
    /// [`highest_supported_tail`]), on the metric's *worse* side, and
    /// the value there; `None` below 100 samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples` (at least one) of a metric that improves
    /// the `better` way.
    pub fn of(samples: &[f64], unit: &str, better: Better) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&sorted);
        let tail = highest_supported_tail(sorted.len()).map(|p| {
            let worse_side = match better {
                Better::Lower => p,
                Better::Higher => 100.0 - p,
            };
            (p, percentile_sorted(&sorted, worse_side))
        });
        Summary {
            value: median(&sorted),
            unit: unit.to_owned(),
            q1,
            q3,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            samples: sorted.len(),
            tail,
        }
    }

    /// Interquartile range as a share of the median — the spread the
    /// driver holds against the metric's bound.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.value
    }
}

/// How a metric moved between a baseline and a new result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound, and the spread allows saying so.
    Improved,
    /// Within the bound either way, and the spread allows saying so.
    Unchanged,
    /// Worse by more than the bound, and the spread allows saying so.
    Regressed,
    /// Either side's spread is wider than the bound and the samples of
    /// the two sides overlap: the numbers cannot tell.
    Unresolved,
}

impl Verdict {
    /// The word printed in the comparison table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Signed change of `new` against `old` as a share of `old`, positive
/// when the metric got *better*.
pub fn gain(old: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Higher => (new - old) / old,
        Better::Lower => (old - new) / old,
    }
}

/// Applies the bound: a change beyond `bound` is an improvement or a
/// regression, anything else is unchanged — unless a side's spread is
/// wider than the bound, in which case only samples that do not overlap
/// at all (every new sample better, or worse, than every old one) still
/// resolve.
pub fn classify(old: &Summary, new: &Summary, bound: f64, better: Better) -> Verdict {
    let g = gain(old.value, new.value, better);
    let resolved = if g > bound {
        Verdict::Improved
    } else if g < -bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    if old.spread() <= bound && new.spread() <= bound {
        return resolved;
    }
    let (new_all_better, new_all_worse) = match better {
        Better::Higher => (new.min > old.max, new.max < old.min),
        Better::Lower => (new.max < old.min, new.min > old.max),
    };
    match resolved {
        Verdict::Improved if new_all_better => Verdict::Improved,
        Verdict::Regressed if new_all_worse => Verdict::Regressed,
        _ => Verdict::Unresolved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(90.0));
        assert_eq!(highest_supported_tail(999), Some(90.0));
        assert_eq!(highest_supported_tail(1_000), Some(99.0));
        assert_eq!(highest_supported_tail(10_000), Some(99.9));
        assert_eq!(highest_supported_tail(15_000), Some(99.9));
        assert_eq!(highest_supported_tail(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v[..1], 99.9), 1.0);
    }

    fn tight(value: f64) -> Summary {
        Summary::of(&[value * 0.99, value, value * 1.01], "1/s", Better::Higher)
    }

    #[test]
    fn tail_is_taken_on_the_worse_side() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            Summary::of(&v, "us", Better::Lower).tail,
            Some((99.0, 990.0))
        );
        assert_eq!(
            Summary::of(&v, "1/s", Better::Higher).tail,
            Some((99.0, 10.0))
        );
        assert_eq!(Summary::of(&v[..50], "us", Better::Lower).tail, None);
    }

    #[test]
    fn bound_comparison_respects_direction() {
        let old = tight(100.0);
        assert_eq!(
            classify(&old, &tight(105.0), 0.10, Better::Higher),
            Verdict::Unchanged
        );
        assert_eq!(
            classify(&old, &tight(120.0), 0.10, Better::Higher),
            Verdict::Improved
        );
        assert_eq!(
            classify(&old, &tight(85.0), 0.10, Better::Higher),
            Verdict::Regressed
        );
        assert_eq!(
            classify(&old, &tight(85.0), 0.10, Better::Lower),
            Verdict::Improved
        );
        assert_eq!(
            classify(&old, &tight(120.0), 0.10, Better::Lower),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_samples_do_not_overlap() {
        let noisy_old = Summary::of(&[70.0, 100.0, 130.0], "1/s", Better::Higher);
        assert!(noisy_old.spread() > 0.10);
        assert_eq!(
            classify(&noisy_old, &tight(105.0), 0.10, Better::Higher),
            Verdict::Unresolved,
            "not 'unchanged': the spread cannot tell"
        );
        assert_eq!(
            classify(&noisy_old, &tight(120.0), 0.10, Better::Higher),
            Verdict::Unresolved,
            "median gained 20% but old samples reach 130"
        );
        assert_eq!(
            classify(&noisy_old, &tight(200.0), 0.10, Better::Higher),
            Verdict::Improved,
            "every new sample beats every old one"
        );
        assert_eq!(
            classify(&noisy_old, &tight(50.0), 0.10, Better::Higher),
            Verdict::Regressed
        );
    }
}
