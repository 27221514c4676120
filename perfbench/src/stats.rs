//! Small order statistics and the timing loop the per-layer
//! microbenchmarks share.

use std::time::{Duration, Instant};

/// Nearest-rank quantile (`q` in `[0, 1]`) of an unsorted sample; 0 for
/// an empty one.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * (v.len() - 1) as f64).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// Median of an unsorted sample (the mean of the middle two for an even
/// count); 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let n = values.len();
    if n % 2 == 1 || n == 0 {
        return quantile(values, 0.5);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (v[n / 2 - 1] + v[n / 2]) / 2.0
}

/// Largest value of a sample; 0 for an empty one.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// The highest of the usual tail percentiles (99.9, 99, 90) that still
/// has at least ten samples beyond it in a sample of `n`; `None` when
/// even the 90th has fewer.
pub fn supported_tail(n: u64) -> Option<f64> {
    // Per-mille integers, so 0.9 × 100 cannot round below ten.
    [999u64, 990, 900]
        .into_iter()
        .find(|q| n * (1000 - q) / 1000 >= 10)
        .map(|q| q as f64 / 1000.0)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean wall time of one `op` call in nanoseconds. Runs `op` in batches
/// of `batch` until `budget` has passed, after one untimed warm-up batch,
/// and reports the median of the batch means so a scheduler hiccup
/// during one batch does not move the figure.
pub fn time_ns_per_op(budget: Duration, batch: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut i = 0u64;
    for _ in 0..batch {
        op(i);
        i += 1;
    }
    let mut means = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || means.len() < 5 {
        let t = Instant::now();
        for _ in 0..batch {
            op(i);
            i += 1;
        }
        means.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&means)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(max(&v), 5.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(1_000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }
}
