//! Workload profiles: what the mapping search optimizes *for*.
//!
//! A [`WorkloadProfile`] reduces a serving workload to the facts the cost
//! model consumes: which weight tensors exist (shape, instance count), how
//! the work splits between GEMV (decode) and GEMM (prefill) passes, and —
//! when available — measured [`DramStats`] from a previous run of the same
//! platform, whose row-buffer hit rate calibrates the analytic row-service
//! cost.

use facil_core::MatrixConfig;
use facil_dram::DramStats;

/// One weight tensor of the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorSpec {
    /// Human-readable tensor name (`"q_proj"`, `"moe-expert"`, …).
    pub name: String,
    /// Shape and dtype.
    pub matrix: MatrixConfig,
    /// How many identical instances exist (e.g. one per decoder layer).
    pub instances: u64,
}

impl TensorSpec {
    /// A single-instance tensor.
    pub fn new(name: impl Into<String>, matrix: MatrixConfig) -> Self {
        TensorSpec { name: name.into(), matrix, instances: 1 }
    }

    /// Set the instance count.
    #[must_use]
    pub fn with_instances(mut self, instances: u64) -> Self {
        self.instances = instances.max(1);
        self
    }
}

/// The workload summary the search scores candidates against.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Profile label (dataset or scenario name).
    pub name: String,
    /// Weight tensors to place.
    pub tensors: Vec<TensorSpec>,
    /// Fraction of weight-streaming passes that are GEMV (decode) passes.
    /// Normalized so `gemv_weight + gemm_weight == 1`.
    pub gemv_weight: f64,
    /// Fraction of weight-streaming passes that are GEMM (prefill) passes.
    pub gemm_weight: f64,
    /// Mean tokens per query that re-stream every weight (decode steps plus
    /// prefill positions) — the access-reuse summary: weights have no
    /// intra-pass reuse, so this is how often each weight byte is touched.
    pub weight_passes_per_query: f64,
    /// Measured DRAM counters from a previous run, if any; the row-buffer
    /// hit rate calibrates the analytic cost model.
    pub measured: Option<DramStats>,
}

impl WorkloadProfile {
    /// A decode-only profile (pure GEMV, the paper's PIM sweet spot).
    pub fn decode_only(name: impl Into<String>, tensors: Vec<TensorSpec>) -> Self {
        WorkloadProfile {
            name: name.into(),
            tensors,
            gemv_weight: 1.0,
            gemm_weight: 0.0,
            weight_passes_per_query: 1.0,
            measured: None,
        }
    }

    /// Override the GEMV/GEMM mix (normalized; both must be non-negative
    /// and not both zero).
    ///
    /// # Panics
    ///
    /// Panics on negative weights or a zero sum.
    #[must_use]
    pub fn with_mix(mut self, gemv: f64, gemm: f64) -> Self {
        assert!(gemv >= 0.0 && gemm >= 0.0, "weights must be non-negative");
        let sum = gemv + gemm;
        assert!(sum > 0.0, "at least one weight must be positive");
        self.gemv_weight = gemv / sum;
        self.gemm_weight = gemm / sum;
        self
    }

    /// Attach measured DRAM counters for cost-model calibration.
    #[must_use]
    pub fn with_measured(mut self, stats: DramStats) -> Self {
        self.measured = Some(stats);
        self
    }

    /// Row-buffer hit rate of the measured counters, if any column access
    /// was recorded. Relies on [`DramStats::hit_rate`] returning `0.0` (not
    /// NaN) for empty profiling runs; `None` here means "no calibration
    /// data", which the cost model treats as the closed-page worst case.
    pub fn measured_hit_rate(&self) -> Option<f64> {
        let m = self.measured.as_ref()?;
        if m.column_accesses() == 0 {
            return None;
        }
        Some(m.hit_rate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facil_core::DType;

    fn tensors() -> Vec<TensorSpec> {
        vec![
            TensorSpec::new("qkv", MatrixConfig::new(2048, 2048, DType::F16)).with_instances(24),
            TensorSpec::new("ffn", MatrixConfig::new(8192, 2048, DType::F16)),
        ]
    }

    #[test]
    fn mix_override_normalizes() {
        let p = WorkloadProfile::decode_only("d", tensors()).with_mix(3.0, 1.0);
        assert!((p.gemv_weight - 0.75).abs() < 1e-12);
        assert!((p.gemm_weight - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mix_rejected() {
        let _ = WorkloadProfile::decode_only("d", vec![]).with_mix(0.0, 0.0);
    }

    #[test]
    fn hit_rate_calibration_requires_accesses() {
        let p = WorkloadProfile::decode_only("d", tensors());
        assert_eq!(p.measured_hit_rate(), None, "no measurement attached");
        // An empty profiling run (all counters zero) must not calibrate
        // with a bogus 0.0-as-signal: it reads as "no data".
        let empty = p.clone().with_measured(DramStats::default());
        assert_eq!(empty.measured_hit_rate(), None);
        let real = p.with_measured(DramStats { row_hits: 3, row_misses: 1, ..Default::default() });
        assert_eq!(real.measured_hit_rate(), Some(0.75));
    }
}
