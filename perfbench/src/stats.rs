//! Order statistics and the calibration arithmetic.
//!
//! Percentiles are nearest-rank: the `q`-th percentile of `n` sorted
//! samples is the sample at 1-based rank `⌈q·n⌉`. A percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it, so a tail
//! figure is never one or two unlucky requests.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the highest down by [`tail_quantile`].
pub const TAIL_QUANTILES: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// 1-based nearest rank of quantile `q` among `n` samples (`n ≥ 1`).
pub fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q)
}

/// Nearest-rank `q` percentile of `samples` (any order). `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), q) - 1])
}

/// The median (nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The highest of [`TAIL_QUANTILES`] that has at least [`MIN_BEYOND`]
/// samples beyond it among `n`, or `None` when even the lowest has not.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_QUANTILES
        .into_iter()
        .find(|&q| n > 0 && beyond(n, q) >= MIN_BEYOND)
}

/// A latency measured while the reference kernel took `measured_ref`
/// converted to the machine speed at which it takes `nominal_ref`:
/// `raw × nominal ÷ measured`. A machine running slow (long reference)
/// makes latencies long by the same factor, which this divides out.
pub fn calibrate_latency(raw: f64, measured_ref: f64, nominal_ref: f64) -> f64 {
    raw * nominal_ref / measured_ref
}

/// A throughput converted the same way: `raw × measured ÷ nominal`.
pub fn calibrate_throughput(raw: f64, measured_ref: f64, nominal_ref: f64) -> f64 {
    raw * measured_ref / nominal_ref
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_pick_existing_samples() {
        let samples: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(percentile(&samples, 0.5), Some(5.0));
        assert_eq!(percentile(&samples, 0.9), Some(9.0));
        assert_eq!(percentile(&samples, 0.91), Some(10.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&samples, 1.0), Some(10.0));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail_quantile(1000), Some(0.99));
        // 999 samples leave only 9 beyond p99, so p95 is the tail.
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(39), Some(0.50));
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(0), None);
    }

    #[test]
    fn calibration_divides_out_machine_speed() {
        // The machine ran 25% slow: the reference took 12.5 ms, not 10.
        assert_eq!(calibrate_latency(5.0, 12.5, 10.0), 4.0);
        assert_eq!(calibrate_throughput(80.0, 12.5, 10.0), 100.0);
        // At nominal speed both are the identity.
        assert_eq!(calibrate_latency(3.0, 10.0, 10.0), 3.0);
        assert_eq!(calibrate_throughput(3.0, 10.0, 10.0), 3.0);
        // A latency and a throughput of the same work stay reciprocal.
        let (latency, throughput) = (2.0, 0.5);
        let product =
            calibrate_latency(latency, 9.0, 10.0) * calibrate_throughput(throughput, 9.0, 10.0);
        assert!((product - 1.0).abs() < 1e-12);
    }
}
