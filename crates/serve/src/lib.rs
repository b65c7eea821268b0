//! # facil-serve — discrete-event serving simulator for FACIL
//!
//! Drives the [`facil_sim::InferenceSim`] timing oracle as a *serving
//! system*: requests arrive over time (any [`facil_workloads::ArrivalProcess`]),
//! pass admission control, and are executed with **continuous batching**
//! (iteration-level scheduling: one chunked-prefill slice of the
//! head-of-line request plus one decode step for every in-flight request
//! per iteration, Orca/Sarathi style).
//!
//! The simulator is built from these layers:
//!
//! - [`DeviceSim`] — one device: bounded admission queue, up-front KV
//!   reservation against a [`facil_core::FacilSystem`] physical allocator
//!   (so FMFI fragmentation shows up as real compaction time on the
//!   serving clock), chunked prefill + batched decode stepping, and
//!   explicit load shedding ([`ShedReason`]).
//! - [`FaultPlan`] — deterministic fault injection: device crashes and
//!   freezes, PIM-unit faults (FACIL degrades to SoC GEMV on its
//!   SoC-readable layout while hybrid baselines stall for a weight
//!   re-layout), transient KV-reservation failures and slow-node gray
//!   failures, plus the [`RetryPolicy`]: per-request deadlines and a
//!   bounded exponential-backoff retry budget.
//! - [`router`] — the one serving driver: arrivals, failover retries and
//!   quiescence over cells of devices ([`ClusterConfig`]), with a
//!   two-tier router (cell admission, then device dispatch under a
//!   [`Routing`] policy), tenant QoS, a park queue for requests no device
//!   can take yet, router-only partition and link-delay windows and
//!   SLO-burn autoscaling.
//! - [`ChaosPlan`] — the cluster-scale fault model layered on
//!   [`FaultPlan`]: correlated cell outages, network partitions (a cell
//!   keeps serving but admits nothing new), link-delay spikes (dispatches
//!   defer or hedge to a clean cell) and device-scope faults;
//!   [`ChaosPlan::seeded`] derives a whole schedule from a seed.
//!   [`run_cluster`] compiles the plan to the driver's input and rolls the
//!   run up as a [`ClusterReport`]: SLO attainment, goodput,
//!   availability, the shed taxonomy, per-tenant and per-cell rollups and
//!   the conservation invariant [`ClusterReport::conserved`].
//! - [`run_fleet`] / [`run_fleet_with_faults`] — a fleet of N identical
//!   devices sharing an arrival stream: the one-cell case of the same
//!   driver, failing crashed devices' work over to survivors. A device
//!   with `max_batch: 1` and whole-prefill chunks is FCFS
//!   run-to-completion, the baseline continuous batching is measured
//!   against.
//! - [`ServeReport`] — SLO and availability metrics: per-request
//!   TTFT/TBT/TTLT with p50/p95/p99 [`facil_sim::Summary`] rollups,
//!   goodput vs offered load, shed accounting, per-device utilization,
//!   uptime and degraded-mode time, failover/retry counts,
//!   deadline-violation rate, and queue/KV time series; serialized by a
//!   dependency-free JSON writer.
//!
//! Everything is deterministic for a fixed seed and fault plan: two runs
//! with identical inputs produce byte-identical [`ServeReport::to_json`]
//! output, and [`FaultPlan::none`] reproduces the fault-free schedule
//! exactly.
//!
//! # Observability
//!
//! The scheduler is instrumented through [`facil_telemetry`]:
//! [`run_fleet_with_faults_traced`] and [`run_cluster_traced`] record
//! admissions, sheds, batch formation, degraded-mode transitions,
//! crashes/freezes, dispatches, parks, failovers and retries as trace
//! events on per-device, router and per-cell tracks (simulated
//! nanoseconds, exportable as a Chrome/Perfetto trace), and
//! [`ServeReport::register_into`] publishes the run's counters and latency
//! histograms into a shared [`facil_telemetry::MetricsRegistry`]. Tracing
//! is observational: a traced run's report is byte-identical to the
//! untraced run's.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod device;
pub mod faults;
pub mod fleet;
pub mod metrics;
pub mod report;
pub mod request;
pub mod router;
pub mod topology;

pub use chaos::{ChaosEvent, ChaosPlan, ChaosRates};
pub use device::{DeviceSim, EvictedReq, ServeConfig};
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultRates, RetryPolicy};
pub use fleet::{
    run_fleet, run_fleet_with_faults, run_fleet_with_faults_traced, FleetConfig, Routing,
};
pub use metrics::{DeviceReport, QueueSample, ServeReport};
pub use report::{CellReport, ClusterReport, ClusterShedRecord, TenantReport};
pub use request::{RequestRecord, ShedReason, ShedRecord};
pub use router::{run_cluster, run_cluster_traced};
pub use topology::{AutoscalePolicy, ClusterConfig, Tenant};
