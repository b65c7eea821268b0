//! Shared latency statistics: nearest-rank percentiles and summary
//! aggregates used by the serving reports (`facil-serve`, `facil-bench`)
//! and by [`crate::metrics`] histograms.
//!
//! Moved here from `facil_sim::stats` (which re-exports this module) so
//! the lower layers can depend on it without a cycle. The estimator is the
//! standard nearest-rank definition `idx = ceil(p * n) - 1`; the previous
//! per-module helper computed `((n - 1) * p).round()`, which over-/
//! under-shoots for small samples (for ten samples it returns the 6th
//! value as the median instead of the 5th).

use crate::json::JsonWriter;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest value
/// such that at least `p * 100`% of the samples are `<=` it
/// (`idx = ceil(p * n) - 1`). Returns 0.0 for an empty slice; `p` is
/// clamped to `[0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let p = p.clamp(0.0, 1.0);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1).min(sorted.len()) - 1]
}

/// Percentile summary of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Minimum (0 for an empty sample).
    pub min: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Maximum (0 for an empty sample).
    pub max: f64,
}

impl Summary {
    /// The all-zero summary of an empty sample.
    pub fn empty() -> Summary {
        Summary::from_sorted(&[])
    }

    /// Summarize a sample (need not be sorted; NaNs are not allowed).
    ///
    /// # Panics
    ///
    /// Panics if a value is NaN.
    pub fn from_unsorted(mut values: Vec<f64>) -> Summary {
        values.sort_by(|a, b| a.total_cmp(b));
        Summary::from_sorted(&values)
    }

    /// Summarize an already ascending-sorted sample.
    pub fn from_sorted(sorted: &[f64]) -> Summary {
        if sorted.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                min: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        Summary {
            count: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            min: sorted[0],
            p50: percentile(sorted, 0.50),
            p95: percentile(sorted, 0.95),
            p99: percentile(sorted, 0.99),
            max: sorted[sorted.len() - 1],
        }
    }

    /// Write the summary as a JSON object value on `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field_uint("count", self.count as u64)
            .field_num("mean", self.mean)
            .field_num("min", self.min)
            .field_num("p50", self.p50)
            .field_num("p95", self.p95)
            .field_num("p99", self.p99)
            .field_num("max", self.max);
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_known_fixtures() {
        // Wikipedia's nearest-rank worked example.
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.05), 15.0);
        assert_eq!(percentile(&v, 0.30), 20.0);
        assert_eq!(percentile(&v, 0.40), 20.0);
        assert_eq!(percentile(&v, 0.50), 35.0);
        assert_eq!(percentile(&v, 0.95), 50.0);
        assert_eq!(percentile(&v, 1.00), 50.0);
        assert_eq!(percentile(&v, 0.00), 15.0);
    }

    #[test]
    fn even_sample_median_is_lower_neighbor() {
        // The old `.round()` formula returned 6.0 here (index 5): for ten
        // samples the nearest-rank median is the 5th value.
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.95), 10.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let v = [7.5];
        for p in [0.0, 0.01, 0.5, 0.95, 1.0] {
            assert_eq!(percentile(&v, p), 7.5);
        }
    }

    #[test]
    fn empty_sample_yields_zeros() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let s = Summary::from_unsorted(Vec::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.p95, 0.0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s, Summary::empty());
    }

    #[test]
    fn summary_orders_and_aggregates() {
        let s = Summary::from_unsorted(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p95, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        // Percentiles are monotone in p.
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn summary_serializes_all_fields() {
        let s = Summary::from_unsorted(vec![1.0, 2.0]);
        let mut w = JsonWriter::new();
        s.write_json(&mut w);
        let j = w.finish();
        assert_eq!(j, r#"{"count":2,"mean":1.5,"min":1,"p50":1,"p95":2,"p99":2,"max":2}"#);
    }
}
