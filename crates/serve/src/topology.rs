//! Cluster shape: hierarchical cells of identical devices, per-tenant QoS
//! classes, and the SLO-driven autoscaling policy.
//!
//! A cluster is `cells` failure domains, each starting with
//! `devices_per_cell` devices and allowed to grow to
//! `max_devices_per_cell` under autoscaling. Devices are addressed by a
//! *global* index `cell * max_devices_per_cell + slot`, so one
//! [`crate::FaultPlan`] covers the whole cluster. A fleet is the one-cell
//! case: no headroom, no autoscaling, the default tenant.

use facil_core::{FacilError, Result};

use crate::device::ServeConfig;
use crate::fleet::Routing;

/// One tenant class sharing the cluster under a QoS contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// Tenant name (report key).
    pub name: String,
    /// Scheduling priority: 0 is the most important class; higher values
    /// park behind lower ones and are evicted first under overload.
    pub priority: u8,
    /// KV-cache quota in bytes across the whole cluster; 0 means
    /// unlimited. A dispatch that would push the tenant's outstanding KV
    /// reservations past the quota is shed as
    /// [`crate::ShedReason::QuotaExceeded`].
    pub kv_quota_bytes: u64,
    /// Fraction of the offered stream assigned to this tenant; shares are
    /// normalized over all tenants.
    pub share: f64,
}

impl Tenant {
    /// A best-effort tenant taking the whole stream: priority 0, no
    /// quota.
    pub fn default_tenant() -> Tenant {
        Tenant { name: "default".into(), priority: 0, kv_quota_bytes: 0, share: 1.0 }
    }
}

/// SLO-burn-driven autoscaling policy.
///
/// The router ticks every `interval_s` of simulated time. Each tick
/// computes the p99 TTFT over completions inside the trailing `window_s`;
/// `burn_streak` consecutive ticks above `slo_ttft_ms` scale the
/// most-loaded cell *out* by one device (which starts accepting after
/// `warmup_s`), and `cool_streak` consecutive ticks at or below the SLO
/// scale one idle device *in*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalePolicy {
    /// p99 time-to-first-token target, milliseconds.
    pub slo_ttft_ms: f64,
    /// Sliding window the percentile is computed over, seconds.
    pub window_s: f64,
    /// Tick interval, seconds.
    pub interval_s: f64,
    /// Consecutive burning ticks before scaling out.
    pub burn_streak: usize,
    /// Consecutive cool ticks before scaling in.
    pub cool_streak: usize,
    /// Delay before a scaled-out device accepts traffic, seconds.
    pub warmup_s: f64,
}

impl Default for AutoscalePolicy {
    fn default() -> Self {
        AutoscalePolicy {
            slo_ttft_ms: 500.0,
            window_s: 60.0,
            interval_s: 10.0,
            burn_streak: 2,
            cool_streak: 6,
            warmup_s: 5.0,
        }
    }
}

impl AutoscalePolicy {
    /// Check the policy's knobs.
    ///
    /// # Errors
    ///
    /// [`FacilError::InvalidRequest`] on non-positive SLO, window,
    /// interval or streaks, or a negative/non-finite warmup.
    pub fn validate(&self) -> Result<()> {
        if !self.slo_ttft_ms.is_finite() || self.slo_ttft_ms <= 0.0 {
            return Err(FacilError::InvalidRequest(format!(
                "autoscale SLO {} must be positive and finite",
                self.slo_ttft_ms
            )));
        }
        if !self.window_s.is_finite()
            || self.window_s <= 0.0
            || !self.interval_s.is_finite()
            || self.interval_s <= 0.0
        {
            return Err(FacilError::InvalidRequest(
                "autoscale window and interval must be positive".into(),
            ));
        }
        if self.burn_streak == 0 || self.cool_streak == 0 {
            return Err(FacilError::InvalidRequest("autoscale streaks must be positive".into()));
        }
        if !self.warmup_s.is_finite() || self.warmup_s < 0.0 {
            return Err(FacilError::InvalidRequest(format!(
                "autoscale warmup {} must be non-negative and finite",
                self.warmup_s
            )));
        }
        Ok(())
    }
}

/// Cluster shape and policies.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of cells (failure domains).
    pub cells: usize,
    /// Devices each cell starts with.
    pub devices_per_cell: usize,
    /// Upper bound on devices per cell under autoscaling (`>=
    /// devices_per_cell`; equal disables growth).
    pub max_devices_per_cell: usize,
    /// Per-device scheduler knobs (every device is identical).
    pub serve: ServeConfig,
    /// Device-level routing policy inside the chosen cell.
    pub routing: Routing,
    /// Bound on requests parked cluster-wide while no cell admits; an
    /// overflowing park evicts the lowest-priority parked request.
    pub park_cap: usize,
    /// Hedge threshold: a dispatch whose target cell carries a link delay
    /// of at least this many seconds reroutes to the next-best cell
    /// instead of waiting (0 disables hedging).
    pub hedge_after_s: f64,
    /// Autoscaling policy; `None` keeps every cell at its initial size.
    pub autoscale: Option<AutoscalePolicy>,
    /// Tenant QoS classes sharing the cluster (at least one).
    pub tenants: Vec<Tenant>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            cells: 2,
            devices_per_cell: 2,
            max_devices_per_cell: 2,
            serve: ServeConfig::default(),
            routing: Routing::LeastLoaded,
            park_cap: 1024,
            hedge_after_s: 0.25,
            autoscale: None,
            tenants: vec![Tenant::default_tenant()],
        }
    }
}

impl ClusterConfig {
    /// Total device slots (active or not) the cluster addresses.
    pub fn total_slots(&self) -> usize {
        self.cells * self.max_devices_per_cell
    }

    /// Global device index of `(cell, slot)`.
    pub fn global_index(&self, cell: usize, slot: usize) -> usize {
        cell * self.max_devices_per_cell + slot
    }

    /// Cell owning global device index `device`.
    pub fn cell_of(&self, device: usize) -> usize {
        device / self.max_devices_per_cell
    }

    /// Sum of tenant shares (the normalization denominator).
    pub fn total_share(&self) -> f64 {
        self.tenants.iter().map(|t| t.share).sum()
    }

    /// Check the cluster shape.
    ///
    /// # Errors
    ///
    /// [`FacilError::InvalidRequest`] on an empty cluster, a
    /// `max_devices_per_cell` below the initial size, no tenants,
    /// non-positive tenant shares, a negative/non-finite hedge threshold,
    /// or an invalid autoscale policy.
    pub fn validate(&self) -> Result<()> {
        if self.cells == 0 || self.devices_per_cell == 0 {
            return Err(FacilError::InvalidRequest(
                "cluster needs at least one cell with at least one device".into(),
            ));
        }
        if self.max_devices_per_cell < self.devices_per_cell {
            return Err(FacilError::InvalidRequest(format!(
                "max_devices_per_cell {} below initial devices_per_cell {}",
                self.max_devices_per_cell, self.devices_per_cell
            )));
        }
        if self.tenants.is_empty() {
            return Err(FacilError::InvalidRequest("cluster needs at least one tenant".into()));
        }
        for t in &self.tenants {
            if !t.share.is_finite() || t.share <= 0.0 {
                return Err(FacilError::InvalidRequest(format!(
                    "tenant {} share {} must be positive and finite",
                    t.name, t.share
                )));
            }
        }
        if !self.hedge_after_s.is_finite() || self.hedge_after_s < 0.0 {
            return Err(FacilError::InvalidRequest(format!(
                "hedge threshold {} must be non-negative and finite",
                self.hedge_after_s
            )));
        }
        if let Some(a) = &self.autoscale {
            a.validate()?;
        }
        Ok(())
    }

    /// Deterministically assign query `id` to a tenant index,
    /// proportionally to the tenants' shares. A multiplicative hash of the
    /// id picks a point on the normalized share line, so assignment is
    /// stable under reordering and independent of worker count.
    pub fn tenant_of(&self, id: u64) -> usize {
        debug_assert!(!self.tenants.is_empty());
        let point = (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64
            * self.total_share();
        let mut acc = 0.0;
        for (i, t) in self.tenants.iter().enumerate() {
            acc += t.share;
            if point < acc {
                return i;
            }
        }
        self.tenants.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        ClusterConfig::default().validate().unwrap();
    }

    #[test]
    fn index_round_trips() {
        let cfg = ClusterConfig {
            cells: 3,
            devices_per_cell: 2,
            max_devices_per_cell: 4,
            ..ClusterConfig::default()
        };
        assert_eq!(cfg.total_slots(), 12);
        for cell in 0..3 {
            for slot in 0..4 {
                assert_eq!(cfg.cell_of(cfg.global_index(cell, slot)), cell);
            }
        }
    }

    #[test]
    fn bad_shapes_are_rejected() {
        let mut cfg = ClusterConfig { cells: 0, ..ClusterConfig::default() };
        assert!(cfg.validate().is_err(), "no cells");
        cfg = ClusterConfig { max_devices_per_cell: 1, ..ClusterConfig::default() };
        assert!(cfg.validate().is_err(), "cap below initial size");
        cfg = ClusterConfig { tenants: vec![], ..ClusterConfig::default() };
        assert!(cfg.validate().is_err(), "no tenants");
        cfg = ClusterConfig {
            tenants: vec![Tenant { share: 0.0, ..Tenant::default_tenant() }],
            ..ClusterConfig::default()
        };
        assert!(cfg.validate().is_err(), "zero share");
        cfg = ClusterConfig { hedge_after_s: f64::NAN, ..ClusterConfig::default() };
        assert!(cfg.validate().is_err(), "NaN hedge");
        cfg = ClusterConfig {
            autoscale: Some(AutoscalePolicy { interval_s: 0.0, ..AutoscalePolicy::default() }),
            ..ClusterConfig::default()
        };
        assert!(cfg.validate().is_err(), "zero autoscale interval");
    }

    #[test]
    fn tenant_assignment_is_deterministic_and_share_proportional() {
        let cfg = ClusterConfig {
            tenants: vec![
                Tenant { name: "premium".into(), priority: 0, kv_quota_bytes: 0, share: 1.0 },
                Tenant { name: "batch".into(), priority: 2, kv_quota_bytes: 0, share: 3.0 },
            ],
            ..ClusterConfig::default()
        };
        let n = 10_000u64;
        let batch = (0..n).filter(|&i| cfg.tenant_of(i) == 1).count();
        assert_eq!(batch, (0..n).filter(|&i| cfg.tenant_of(i) == 1).count(), "deterministic");
        let frac = batch as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.03, "3:1 share split, got {frac}");
    }
}
