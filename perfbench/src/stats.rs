//! Order statistics shared by the run and the cross-run summary.
//!
//! Within a run, latency percentiles are nearest-rank over the raw
//! samples (the same rank rule as `fedfl_obs`'s histograms, without their
//! bucket rounding). Across runs, quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the default "exclusive" method)
//! and the median is `statistics.median`, so a record's spread reads the
//! same as a check written in Python over the same values.

/// Nearest-rank `p`-quantile of `samples`: `rank = ceil(p·n)` clamped to
/// `[1, n]`. `None` for an empty slice.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, p))
}

/// [`percentile`] over an already ascending, non-empty slice.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median as `statistics.median`: the mean of the two middle values for
/// an even count. `None` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// First and third quartile as `statistics.quantiles(values, n=4)` with
/// the default exclusive method. `None` for fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Summary of one metric across runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Runs summarised.
    pub runs: usize,
    /// Median over runs.
    pub median: f64,
    /// First quartile (equal to the median for a single run).
    pub q1: f64,
    /// Third quartile (equal to the median for a single run).
    pub q3: f64,
}

impl Spread {
    /// Summarise `values`; `None` when empty.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Self> {
        let median = median(values)?;
        let (q1, q3) = quartiles(values).unwrap_or((median, median));
        Some(Self {
            runs: values.len(),
            median,
            q1,
            q3,
        })
    }

    /// Interquartile distance as a share of the median (0 when the
    /// median is 0).
    #[must_use]
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}
