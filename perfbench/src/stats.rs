//! Order statistics for latency samples.

use std::time::Duration;

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by linear interpolation at
/// rank `(n + 1) q`, clamped to the smallest and largest sample. At the
/// quartiles this is the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)` whenever no extrapolation is needed
/// (n ≥ 3). Returns `None` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    let rank = (n as f64 + 1.0) * q.clamp(0.0, 1.0);
    if rank <= 1.0 {
        return Some(sorted[0]);
    }
    if rank >= n as f64 {
        return Some(sorted[n - 1]);
    }
    let lo = rank.floor() as usize; // 1-based rank of the lower neighbour
    let frac = rank - lo as f64;
    Some(sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1]))
}

/// Count, quartiles and 90th percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p90: f64,
}

impl Summary {
    /// Summarize `values` (any order). `None` when there are no samples.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            n: v.len(),
            p25: quantile(&v, 0.25)?,
            p50: quantile(&v, 0.5)?,
            p75: quantile(&v, 0.75)?,
            p90: quantile(&v, 0.9)?,
        })
    }

    /// Summarize durations in milliseconds.
    pub fn of_ms(values: &[Duration]) -> Option<Summary> {
        Summary::of(&values.iter().map(|d| ms(*d)).collect::<Vec<_>>())
    }
}

/// A duration in (fractional) milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
