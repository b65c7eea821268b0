//! Cluster-scope outcome: SLO attainment, shed taxonomy, per-tenant QoS
//! rollups, per-cell [`ServeReport`]s, and the conservation invariant.
//!
//! Follows the [`ServeReport`] conventions: a dependency-free
//! [`ClusterReport::to_json`] writer (byte-identical for identical runs —
//! the determinism tests compare these strings), a
//! [`ClusterReport::register_into`] hook for the shared
//! [`MetricsRegistry`], and zero-span rate metrics reported as 0.0 — never
//! `NaN` — matching `DramStats::hit_rate`.

use facil_telemetry::{JsonWriter, MetricsRegistry, Summary};

use crate::metrics::ServeReport;
use crate::request::ShedReason;

/// One request the *router* (not a device) gave up on, with its QoS
/// attribution. Device-level sheds stay inside the per-cell reports; the
/// two never overlap for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterShedRecord {
    /// Request id.
    pub id: u64,
    /// Tenant index the request belonged to.
    pub tenant: usize,
    /// Global index of the device that last evicted the request (0 if it
    /// never reached one).
    pub device: usize,
    /// Original arrival time, seconds.
    pub arrival_s: f64,
    /// When the router gave up, seconds.
    pub t_s: f64,
    /// Why: [`ShedReason::Overload`], [`ShedReason::QuotaExceeded`],
    /// [`ShedReason::Failed`] or [`ShedReason::DeadlineExpired`].
    pub reason: ShedReason,
}

/// Per-tenant QoS outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Scheduling priority (0 = most important).
    pub priority: u8,
    /// Requests assigned to this tenant.
    pub offered: usize,
    /// Requests served to the last token.
    pub completed: usize,
    /// Requests shed anywhere (device- or cluster-level).
    pub shed: usize,
    /// TTFT summary over the tenant's completions, ms.
    pub ttft_ms: Summary,
    /// TTLT summary over the tenant's completions, ms.
    pub ttlt_ms: Summary,
}

/// One cell's outcome: the full fleet report plus router-side counters.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Cell index.
    pub cell: usize,
    /// Dispatches the router sent into this cell (re-dispatches of a
    /// failed-over request count again, so cells sum to >= cluster
    /// offered).
    pub dispatched: usize,
    /// Devices active (initial + scaled-out - scaled-in) at the end of
    /// the run.
    pub active_devices: usize,
    /// Fleet-level report over the cell's device slots, with identical
    /// metric definitions to a standalone fleet run.
    pub serve: ServeReport,
}

/// Full outcome of a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Number of cells.
    pub cells_configured: usize,
    /// Devices active at the start (`cells * devices_per_cell`).
    pub devices_initial: usize,
    /// Devices active at the end (after autoscaling).
    pub devices_final: usize,
    /// Requests offered to the cluster.
    pub offered: usize,
    /// Requests served to the last token.
    pub completed: usize,
    /// Requests shed anywhere (`offered == completed + shed`).
    pub shed: usize,
    /// Router sheds with reason [`ShedReason::Overload`].
    pub shed_overload: usize,
    /// Router sheds with reason [`ShedReason::QuotaExceeded`].
    pub shed_quota: usize,
    /// Router sheds with reason [`ShedReason::Failed`].
    pub shed_failed: usize,
    /// Router sheds with reason [`ShedReason::DeadlineExpired`].
    pub shed_deadline: usize,
    /// Sheds decided by devices (queue-full, oversized, no-memory,
    /// device-side deadline), detailed inside the per-cell reports.
    pub shed_device: usize,
    /// Wall-clock span of the run, seconds.
    pub span_s: f64,
    /// Offered load over the span, queries/s. 0.0 for a zero-duration run
    /// (never `NaN`), matching `DramStats::hit_rate`.
    pub offered_qps: f64,
    /// Completed load over the span, queries/s (same zero-span guard).
    pub goodput_qps: f64,
    /// Fraction of slot-seconds outside crash/freeze windows (counts every
    /// addressable slot, active or headroom; same zero-span guard).
    pub availability: f64,
    /// Crash evictions harvested for cross-cell failover.
    pub failovers: usize,
    /// Failover retries scheduled (each charged saturating backoff).
    pub retries: usize,
    /// Dispatches deferred past a link-delay spike.
    pub deferrals: usize,
    /// Dispatches hedged to a clean cell instead of waiting out a spike.
    pub hedges: usize,
    /// Peak park-queue depth.
    pub parked_peak: usize,
    /// Autoscaler scale-out actions.
    pub scale_outs: usize,
    /// Autoscaler scale-in actions.
    pub scale_ins: usize,
    /// Cluster-wide TTFT summary over completions, ms.
    pub ttft_ms: Summary,
    /// Cluster-wide TTLT summary over completions, ms.
    pub ttlt_ms: Summary,
    /// Per-tenant QoS rollups, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Per-cell reports, in cell order.
    pub cells: Vec<CellReport>,
    /// Every router-level shed, ordered by request id.
    pub sheds: Vec<ClusterShedRecord>,
}

impl ClusterReport {
    /// The cluster conservation invariant: every offered request reached
    /// exactly one terminal state.
    pub fn conserved(&self) -> bool {
        self.offered == self.completed + self.shed
            && self.shed
                == self.shed_device
                    + self.shed_overload
                    + self.shed_quota
                    + self.shed_failed
                    + self.shed_deadline
    }

    /// Fraction of offered requests that completed with TTFT at or below
    /// `slo_ttft_ms`. 0.0 when nothing was offered (never `NaN`), matching
    /// `DramStats::hit_rate`.
    pub fn slo_attainment(&self, slo_ttft_ms: f64) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        let within: usize = self
            .cells
            .iter()
            .flat_map(|c| c.serve.requests.iter())
            .filter(|r| r.ttft_ms <= slo_ttft_ms)
            .count();
        within as f64 / self.offered as f64
    }

    /// Serialize the report as a self-contained JSON object (one line).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(8192);
        w.begin_object()
            .field_uint("cells", self.cells_configured as u64)
            .field_uint("devices_initial", self.devices_initial as u64)
            .field_uint("devices_final", self.devices_final as u64)
            .field_uint("offered", self.offered as u64)
            .field_uint("completed", self.completed as u64)
            .field_uint("shed", self.shed as u64)
            .field_uint("shed_overload", self.shed_overload as u64)
            .field_uint("shed_quota", self.shed_quota as u64)
            .field_uint("shed_failed", self.shed_failed as u64)
            .field_uint("shed_deadline", self.shed_deadline as u64)
            .field_uint("shed_device", self.shed_device as u64)
            .field_num("span_s", self.span_s)
            .field_num("offered_qps", self.offered_qps)
            .field_num("goodput_qps", self.goodput_qps)
            .field_num("availability", self.availability)
            .field_uint("failovers", self.failovers as u64)
            .field_uint("retries", self.retries as u64)
            .field_uint("deferrals", self.deferrals as u64)
            .field_uint("hedges", self.hedges as u64)
            .field_uint("parked_peak", self.parked_peak as u64)
            .field_uint("scale_outs", self.scale_outs as u64)
            .field_uint("scale_ins", self.scale_ins as u64);
        w.key("ttft_ms");
        self.ttft_ms.write_json(&mut w);
        w.key("ttlt_ms");
        self.ttlt_ms.write_json(&mut w);
        w.key("tenants").begin_array();
        for t in &self.tenants {
            w.begin_object()
                .field_str("name", &t.name)
                .field_uint("priority", u64::from(t.priority))
                .field_uint("offered", t.offered as u64)
                .field_uint("completed", t.completed as u64)
                .field_uint("shed", t.shed as u64);
            w.key("ttft_ms");
            t.ttft_ms.write_json(&mut w);
            w.key("ttlt_ms");
            t.ttlt_ms.write_json(&mut w);
            w.end_object();
        }
        w.end_array().key("cells").begin_array();
        for c in &self.cells {
            w.begin_object()
                .field_uint("cell", c.cell as u64)
                .field_uint("dispatched", c.dispatched as u64)
                .field_uint("active_devices", c.active_devices as u64)
                .field_raw("serve", &c.serve.to_json())
                .end_object();
        }
        w.end_array().key("sheds").begin_array();
        for s in &self.sheds {
            w.begin_object()
                .field_uint("id", s.id)
                .field_uint("tenant", s.tenant as u64)
                .field_num("arrival_s", s.arrival_s)
                .field_num("t_s", s.t_s)
                .field_str("reason", s.reason.as_str())
                .end_object();
        }
        w.end_array().end_object();
        w.finish()
    }

    /// Publish the run into a shared [`MetricsRegistry`] under the
    /// `cluster.` namespace (request counters, router shed taxonomy,
    /// resilience counters, autoscaler actions, and latency histograms).
    pub fn register_into(&self, reg: &mut MetricsRegistry) {
        reg.inc("cluster.offered", self.offered as u64);
        reg.inc("cluster.completed", self.completed as u64);
        reg.inc("cluster.shed", self.shed as u64);
        reg.inc("cluster.shed.overload", self.shed_overload as u64);
        reg.inc("cluster.shed.quota", self.shed_quota as u64);
        reg.inc("cluster.shed.failed", self.shed_failed as u64);
        reg.inc("cluster.shed.deadline", self.shed_deadline as u64);
        reg.inc("cluster.shed.device", self.shed_device as u64);
        reg.inc("cluster.failovers", self.failovers as u64);
        reg.inc("cluster.retries", self.retries as u64);
        reg.inc("cluster.deferrals", self.deferrals as u64);
        reg.inc("cluster.hedges", self.hedges as u64);
        reg.inc("cluster.scale_outs", self.scale_outs as u64);
        reg.inc("cluster.scale_ins", self.scale_ins as u64);
        reg.set_gauge("cluster.goodput_qps", self.goodput_qps);
        reg.set_gauge("cluster.availability", self.availability);
        reg.set_gauge("cluster.devices_final", self.devices_final as f64);
        for cell in &self.cells {
            for r in &cell.serve.requests {
                reg.observe("cluster.ttft_ms", r.ttft_ms);
                reg.observe("cluster.ttlt_ms", r.ttlt_ms);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClusterReport {
        ClusterReport {
            cells_configured: 1,
            devices_initial: 1,
            devices_final: 1,
            offered: 3,
            completed: 1,
            shed: 2,
            shed_overload: 1,
            shed_quota: 0,
            shed_failed: 0,
            shed_deadline: 0,
            shed_device: 1,
            span_s: 2.0,
            offered_qps: 1.5,
            goodput_qps: 0.5,
            availability: 0.75,
            failovers: 1,
            retries: 1,
            deferrals: 2,
            hedges: 1,
            parked_peak: 1,
            scale_outs: 1,
            scale_ins: 0,
            ttft_ms: Summary::from_unsorted(vec![12.0]),
            ttlt_ms: Summary::from_unsorted(vec![80.0]),
            tenants: vec![TenantReport {
                name: "default".into(),
                priority: 0,
                offered: 3,
                completed: 1,
                shed: 2,
                ttft_ms: Summary::from_unsorted(vec![12.0]),
                ttlt_ms: Summary::from_unsorted(vec![80.0]),
            }],
            cells: Vec::new(),
            sheds: vec![ClusterShedRecord {
                id: 2,
                tenant: 0,
                device: 0,
                arrival_s: 0.5,
                t_s: 1.0,
                reason: ShedReason::Overload,
            }],
        }
    }

    #[test]
    fn conservation_checks_both_totals_and_taxonomy() {
        let mut r = sample();
        assert!(r.conserved());
        r.completed += 1;
        assert!(!r.conserved(), "offered != completed + shed");
        let mut r = sample();
        r.shed_overload = 0;
        assert!(!r.conserved(), "taxonomy must sum to the shed total");
    }

    #[test]
    fn json_is_balanced_deterministic_and_carries_keys() {
        let j = sample().to_json();
        assert_eq!(j, sample().to_json());
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert_eq!(j.matches('"').count() % 2, 0);
        for key in [
            "\"cells\":1",
            "\"shed_overload\"",
            "\"hedges\"",
            "\"parked_peak\"",
            "\"scale_outs\"",
            "\"tenants\"",
            "\"reason\":\"overload\"",
            "\"p99\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn zero_offered_slo_attainment_is_zero_not_nan() {
        let mut r = sample();
        r.offered = 0;
        let v = r.slo_attainment(100.0);
        assert!(!v.is_nan());
        assert_eq!(v, 0.0);
    }

    #[test]
    fn registry_mirrors_the_report() {
        let r = sample();
        let mut reg = MetricsRegistry::new();
        r.register_into(&mut reg);
        assert_eq!(reg.counter("cluster.offered"), 3);
        assert_eq!(reg.counter("cluster.shed.overload"), 1);
        assert_eq!(reg.counter("cluster.hedges"), 1);
        assert_eq!(reg.gauge("cluster.availability"), Some(0.75));
    }
}
