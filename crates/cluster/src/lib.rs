//! # facil-cluster — fault-tolerant cluster serving for FACIL fleets
//!
//! Scales the [`facil_serve`] continuous-batching simulator to *cluster*
//! shape: thousands of devices organized into hierarchical **cells**
//! (failure domains), driven by a two-tier router under a cluster-scale
//! chaos schedule — the serving regime a million-user on-device LLM
//! deployment actually runs in.
//!
//! The serving driver itself lives in [`facil_serve::router`]: one loop
//! serves fleets (a single cell) and clusters alike, and this crate adds
//! the chaos model on top of it.
//!
//! - [`ClusterConfig`] — topology (cells × devices, autoscaling headroom),
//!   per-tenant QoS classes ([`Tenant`]: priority, KV quota, traffic
//!   share), hedging threshold, and the SLO-burn [`AutoscalePolicy`].
//! - [`ChaosPlan`] — the cluster-scale fault model layered on
//!   [`facil_serve::FaultPlan`]: correlated **cell outages**, network
//!   **partitions** (a cell keeps serving but admits nothing new),
//!   **link-delay spikes** (dispatches defer or hedge to a clean cell),
//!   and device-scope faults, slow-node **gray failures**
//!   ([`facil_serve::FaultKind::Slow`]) among them. [`ChaosPlan::seeded`]
//!   derives a whole schedule deterministically from a seed, and
//!   [`ChaosPlan::compile`] lowers it to a [`CompiledChaos`].
//! - [`run_cluster`] / [`run_cluster_traced`] — compile the plan and run
//!   the shared driver: cell-level admission control (partition-aware,
//!   least mean backlog) then device-level dispatch
//!   ([`facil_serve::Routing`]), with bounded cross-cell failover, a
//!   QoS-ordered park queue with explicit overflow shedding, per-tenant KV
//!   quota enforcement, and p99-TTFT SLO-burn autoscaling.
//! - [`ClusterReport`] — SLO attainment, goodput, availability, the full
//!   shed taxonomy ([`facil_serve::ShedReason`], router- and device-side),
//!   per-tenant and per-cell rollups, and the conservation invariant
//!   [`ClusterReport::conserved`] (`offered == completed + shed`,
//!   property-tested under seeded chaos).
//!
//! Everything is deterministic for a fixed seed and plan: repeated runs —
//! at any `FACIL_THREADS` worker count — serialize to byte-identical
//! [`ClusterReport::to_json`] output, and [`ChaosPlan::none`] reproduces
//! the chaos-free schedule exactly.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod chaos;

pub use chaos::{ChaosEvent, ChaosPlan, ChaosRates};
pub use facil_serve::{
    AutoscalePolicy, CellReport, ClusterConfig, ClusterReport, ClusterShedRecord, CompiledChaos,
    Tenant, TenantReport,
};

use facil_core::Result;
use facil_serve::{run_cells, run_cells_traced};
use facil_sim::InferenceSim;
use facil_telemetry::TraceSink;
use facil_workloads::{ArrivalProcess, Dataset};

/// Run `dataset` with arrivals from `arrival` on the cluster described by
/// `cfg`, injecting the chaos scheduled in `plan`.
///
/// Deterministic for a fixed seed and plan: repeated runs serialize to
/// byte-identical [`ClusterReport::to_json`] output regardless of the
/// `FACIL_THREADS` worker count, and [`ChaosPlan::none`] reproduces the
/// chaos-free schedule exactly. Every offered request reaches exactly one
/// terminal state: `offered == completed + shed`
/// ([`ClusterReport::conserved`]).
///
/// # Errors
///
/// * [`ChaosPlan::validate`] errors for a malformed chaos plan;
/// * [`ClusterConfig::validate`] errors for a malformed cluster shape.
pub fn run_cluster(
    sim: &InferenceSim,
    dataset: &Dataset,
    arrival: &ArrivalProcess,
    cfg: &ClusterConfig,
    plan: &ChaosPlan,
) -> Result<ClusterReport> {
    run_cells(sim, dataset, arrival, cfg, &plan.compile(cfg)?)
}

/// [`run_cluster`] with every router and scheduler decision recorded into
/// `sink`: per-device `serve` tracks plus `cluster` tracks for the router
/// and each cell (dispatches, parks, sheds, hedges, deferrals, failovers,
/// retries, autoscaling). Tracing is observational — the report is
/// byte-identical to the untraced run — and traced devices run serially
/// so the sink handle never crosses a thread.
///
/// # Errors
///
/// See [`run_cluster`].
pub fn run_cluster_traced<S: TraceSink + Clone>(
    sim: &InferenceSim,
    dataset: &Dataset,
    arrival: &ArrivalProcess,
    cfg: &ClusterConfig,
    plan: &ChaosPlan,
    sink: S,
) -> Result<ClusterReport> {
    run_cells_traced(sim, dataset, arrival, cfg, &plan.compile(cfg)?, sink)
}
