//! Fleet entry points: N identical devices sharing one arrival stream
//! under a routing policy — the one-cell case of the serving driver
//! ([`crate::router`]).
//!
//! A fleet is a cluster of one cell with no autoscaling headroom, the
//! default tenant, no router windows and an unbounded park queue, so it
//! never sheds `overload`. The driver advances every device clock to each
//! arrival instant before routing, so the least-loaded policy reads
//! consistent load signals and the whole run is deterministic for a fixed
//! seed.
//!
//! With a [`FaultPlan`] ([`run_fleet_with_faults`]) requests lost to
//! device crashes fail over to surviving devices with exponential backoff,
//! bounded by the plan's [`RetryPolicy`](crate::RetryPolicy)
//! ([`ShedReason::Failed`](crate::ShedReason::Failed) once exhausted). A
//! request that finds every device down parks until one recovers;
//! per-request deadlines expire stale work instead of serving it late
//! ([`ShedReason::DeadlineExpired`](crate::ShedReason::DeadlineExpired)).
//! With [`FaultPlan::none`] the schedule — and the serialized report — is
//! bit-for-bit identical to the fault-free run.

use facil_sim::InferenceSim;
use facil_telemetry::{NullSink, TraceSink};
use facil_workloads::{ArrivalProcess, Dataset};

use crate::device::ServeConfig;
use crate::faults::FaultPlan;
use crate::metrics::ServeReport;
use crate::router::{drive, CompiledChaos, Exec, ParallelExec, SerialExec};
use crate::topology::{ClusterConfig, Tenant};

/// How arrivals are assigned to devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Routing {
    /// Cycle through devices in index order.
    RoundRobin,
    /// Route to the device with the least outstanding work (backlog
    /// tokens); ties break to the lowest index.
    LeastLoaded,
}

impl std::fmt::Display for Routing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Routing::RoundRobin => "round-robin",
            Routing::LeastLoaded => "least-loaded",
        };
        write!(f, "{s}")
    }
}

/// Fleet shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of devices sharing the arrival stream.
    pub devices: usize,
    /// Routing policy.
    pub routing: Routing,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig { devices: 1, routing: Routing::RoundRobin }
    }
}

impl FleetConfig {
    /// Check the fleet shape before running.
    ///
    /// # Errors
    ///
    /// [`facil_core::FacilError::InvalidRequest`] if the fleet has no
    /// devices.
    pub fn validate(&self) -> facil_core::Result<()> {
        if self.devices == 0 {
            return Err(facil_core::FacilError::InvalidRequest(
                "fleet needs at least one device".into(),
            ));
        }
        Ok(())
    }
}

/// Serve `dataset` with arrivals from `arrival` on a fleet of
/// `fleet.devices` identical devices (each a [`crate::DeviceSim`] over
/// `sim`), injecting the failures scheduled in `plan`.
///
/// Deterministic for a fixed `cfg.seed` and plan: the arrival sample,
/// fault schedule, routing and retry decisions and every device schedule
/// depend only on the inputs — repeated runs serialize to byte-identical
/// JSON regardless of the worker count. With [`FaultPlan::none`] the
/// result is exactly the fault-free [`run_fleet`] schedule.
///
/// Sheds the driver decides ([`crate::ShedReason::Failed`] and
/// [`crate::ShedReason::DeadlineExpired`]) name the device that last
/// evicted the request, or 0 if it never reached one.
///
/// # Errors
///
/// * [`FleetConfig::validate`] errors for an empty fleet;
/// * [`FaultPlan::validate`] errors for a malformed plan.
pub fn run_fleet_with_faults(
    sim: &InferenceSim,
    dataset: &Dataset,
    arrival: &ArrivalProcess,
    cfg: ServeConfig,
    fleet: FleetConfig,
    plan: &FaultPlan,
) -> facil_core::Result<ServeReport> {
    run::<NullSink, ParallelExec>(sim, dataset, arrival, cfg, fleet, plan, NullSink)
}

/// [`run_fleet_with_faults`] with every scheduler decision recorded into
/// `sink` (cloned per device; pass an `Rc<RefCell<RingSink>>` to collect
/// the whole fleet into one trace): per-device `serve` tracks plus the
/// driver's `cluster` router and `cell0` tracks. Tracing is
/// observational: the report is identical to the untraced run, byte for
/// byte. Traced devices run their phases serially so the sink handle
/// never crosses a thread.
///
/// # Errors
///
/// See [`run_fleet_with_faults`].
pub fn run_fleet_with_faults_traced<S: TraceSink + Clone>(
    sim: &InferenceSim,
    dataset: &Dataset,
    arrival: &ArrivalProcess,
    cfg: ServeConfig,
    fleet: FleetConfig,
    plan: &FaultPlan,
    sink: S,
) -> facil_core::Result<ServeReport> {
    run::<S, SerialExec>(sim, dataset, arrival, cfg, fleet, plan, sink)
}

/// Serve `dataset` with arrivals from `arrival` on a fault-free fleet
/// ([`run_fleet_with_faults`] with [`FaultPlan::none`]).
///
/// # Errors
///
/// [`FleetConfig::validate`] errors for an empty fleet.
pub fn run_fleet(
    sim: &InferenceSim,
    dataset: &Dataset,
    arrival: &ArrivalProcess,
    cfg: ServeConfig,
    fleet: FleetConfig,
) -> facil_core::Result<ServeReport> {
    run_fleet_with_faults(sim, dataset, arrival, cfg, fleet, &FaultPlan::none())
}

/// Run the fleet as a one-cell cluster and roll it up as one report.
fn run<S: TraceSink + Clone, E: Exec<S>>(
    sim: &InferenceSim,
    dataset: &Dataset,
    arrival: &ArrivalProcess,
    cfg: ServeConfig,
    fleet: FleetConfig,
    plan: &FaultPlan,
    sink: S,
) -> facil_core::Result<ServeReport> {
    fleet.validate()?;
    let cell = ClusterConfig {
        cells: 1,
        devices_per_cell: fleet.devices,
        max_devices_per_cell: fleet.devices,
        serve: cfg,
        routing: fleet.routing,
        park_cap: usize::MAX,
        hedge_after_s: 0.0,
        autoscale: None,
        tenants: vec![Tenant::default_tenant()],
    };
    let chaos = CompiledChaos {
        plan: plan.clone(),
        partitions: vec![Vec::new()],
        link_delays: vec![Vec::new()],
    };
    Ok(drive::<S, E>(sim, dataset, arrival, &cell, &chaos, sink)?.fleet_report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultEvent, FaultKind, RetryPolicy};
    use facil_core::FacilError;
    use facil_soc::{Platform, PlatformId};
    use facil_workloads::Query;
    use std::collections::BTreeSet;
    use std::sync::OnceLock;

    fn sim() -> &'static InferenceSim {
        static SIM: OnceLock<InferenceSim> = OnceLock::new();
        SIM.get_or_init(|| InferenceSim::new(Platform::get(PlatformId::Iphone)).unwrap())
    }

    fn cfg() -> ServeConfig {
        ServeConfig { seed: 9, fmfi: 0.0, ..ServeConfig::default() }
    }

    /// A crash at t = 0 on device 0 of a one-device fleet, recovering
    /// after `recover_s` (never with `None`).
    fn sole_device_crash(recover_s: Option<f64>, policy: RetryPolicy) -> FaultPlan {
        FaultPlan {
            events: vec![FaultEvent { device: 0, at_s: 0.0, kind: FaultKind::Crash { recover_s } }],
            policy,
        }
    }

    #[test]
    fn single_device_run_is_a_fleet_of_one() {
        let d = Dataset::code_autocompletion_like(3, 24);
        let arrival = ArrivalProcess::Poisson { qps: 1.0 };
        let a = run_fleet(sim(), &d, &arrival, cfg(), FleetConfig::default()).unwrap();
        assert_eq!(a.num_devices, 1);
        assert_eq!(a.offered, 24);
        assert_eq!(a.completed + a.shed, a.offered);
    }

    #[test]
    fn empty_fleet_is_rejected_not_a_panic() {
        let d = Dataset::code_autocompletion_like(3, 4);
        let err = run_fleet(
            sim(),
            &d,
            &ArrivalProcess::Poisson { qps: 1.0 },
            cfg(),
            FleetConfig { devices: 0, routing: Routing::RoundRobin },
        )
        .unwrap_err();
        assert!(matches!(err, FacilError::InvalidRequest(_)));
    }

    #[test]
    fn plan_targeting_a_missing_device_is_rejected() {
        let d = Dataset::code_autocompletion_like(3, 4);
        let plan = FaultPlan {
            events: vec![FaultEvent {
                device: 7,
                at_s: 0.5,
                kind: FaultKind::Freeze { duration_s: 1.0 },
            }],
            ..FaultPlan::none()
        };
        let err = run_fleet_with_faults(
            sim(),
            &d,
            &ArrivalProcess::Poisson { qps: 1.0 },
            cfg(),
            FleetConfig { devices: 2, routing: Routing::RoundRobin },
            &plan,
        )
        .unwrap_err();
        assert_eq!(err, FacilError::DeviceUnavailable { device: 7 });
    }

    #[test]
    fn round_robin_cycles_devices() {
        let d = Dataset { name: "four".into(), queries: vec![Query { prefill: 16, decode: 4 }; 4] };
        // Arrivals far apart: every request finishes before the next one.
        let arrival = ArrivalProcess::Trace { times_s: vec![0.0, 100.0, 200.0, 300.0] };
        let r = run_fleet(
            sim(),
            &d,
            &arrival,
            cfg(),
            FleetConfig { devices: 2, routing: Routing::RoundRobin },
        )
        .unwrap();
        assert_eq!(r.completed, 4);
        assert_eq!(r.devices[0].completed, 2);
        assert_eq!(r.devices[1].completed, 2);
    }

    #[test]
    fn least_loaded_spreads_a_burst_across_idle_devices() {
        let d =
            Dataset { name: "burst".into(), queries: vec![Query { prefill: 64, decode: 64 }; 4] };
        let arrival = ArrivalProcess::Trace { times_s: vec![0.0; 4] };
        let r = run_fleet(
            sim(),
            &d,
            &arrival,
            cfg(),
            FleetConfig { devices: 4, routing: Routing::LeastLoaded },
        )
        .unwrap();
        // Each simultaneous arrival lands on a different (still idle)
        // device: queued work counts toward the backlog signal.
        for dev in &r.devices {
            assert_eq!(dev.completed, 1, "device {} got {}", dev.device, dev.completed);
        }
    }

    #[test]
    fn fleet_run_is_deterministic_for_a_fixed_seed() {
        let d = Dataset::alpaca_like(11, 48);
        let arrival = ArrivalProcess::Bursty { qps: 4.0, burst: 4 };
        let fc = FleetConfig { devices: 4, routing: Routing::LeastLoaded };
        let a = run_fleet(sim(), &d, &arrival, cfg(), fc).unwrap();
        let b = run_fleet(sim(), &d, &arrival, cfg(), fc).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.utilization > 0.0 && a.utilization <= 1.0 + 1e-9);
        for dev in &a.devices {
            assert!(dev.utilization <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn fleet_relieves_a_single_device_overload() {
        let d = Dataset::code_autocompletion_like(42, 96);
        let arrival = ArrivalProcess::Poisson { qps: 32.0 };
        let one = run_fleet(
            sim(),
            &d,
            &arrival,
            cfg(),
            FleetConfig { devices: 1, routing: Routing::LeastLoaded },
        )
        .unwrap();
        let four = run_fleet(
            sim(),
            &d,
            &arrival,
            cfg(),
            FleetConfig { devices: 4, routing: Routing::LeastLoaded },
        )
        .unwrap();
        assert!(one.shed > 0, "a 32 qps burst must overload one device");
        assert!(four.shed < one.shed);
        assert!(four.completed > one.completed);
        assert!(four.ttft_ms.p95 < one.ttft_ms.p95);
        assert_eq!(four.completed + four.shed, four.offered);
    }

    #[test]
    fn empty_dataset_yields_an_empty_report() {
        let d = Dataset { name: "empty".into(), queries: Vec::new() };
        let arrival = ArrivalProcess::Poisson { qps: 1.0 };
        let r = run_fleet(sim(), &d, &arrival, cfg(), FleetConfig::default()).unwrap();
        assert_eq!(r.offered, 0);
        assert_eq!(r.completed, 0);
        assert_eq!(r.shed, 0);
        assert_eq!(r.ttft_ms.count, 0);
        assert_eq!(r.span_s, 0.0);
        // Zero-span / zero-offered rate metrics are 0.0, never NaN
        // (DramStats::hit_rate discipline).
        for (name, v) in [
            ("offered_qps", r.offered_qps),
            ("goodput_qps", r.goodput_qps),
            ("utilization", r.utilization),
            ("availability", r.availability),
            ("deadline_violation_rate", r.deadline_violation_rate),
            ("uptime", r.devices[0].uptime),
            ("device utilization", r.devices[0].utilization),
        ] {
            assert!(!v.is_nan(), "{name} must not be NaN");
            assert_eq!(v, 0.0, "{name} of an empty run");
        }
    }

    #[test]
    fn crash_fails_work_over_to_survivors_without_losing_requests() {
        let d = Dataset::code_autocompletion_like(5, 48);
        let arrival = ArrivalProcess::Poisson { qps: 8.0 };
        let plan = FaultPlan {
            events: vec![FaultEvent {
                device: 0,
                at_s: 0.5,
                kind: FaultKind::Crash { recover_s: None },
            }],
            policy: RetryPolicy { max_retries: 4, retry_backoff_s: 0.05, ..RetryPolicy::none() },
        };
        let fc = FleetConfig { devices: 3, routing: Routing::LeastLoaded };
        let r = run_fleet_with_faults(sim(), &d, &arrival, cfg(), fc, &plan).unwrap();
        assert_eq!(r.completed + r.shed, r.offered, "conservation under crash");
        let ids: BTreeSet<u64> =
            r.requests.iter().map(|q| q.id).chain(r.sheds.iter().map(|s| s.id)).collect();
        assert_eq!(ids.len(), r.offered, "no id lost or double-counted");
        assert!(r.failovers > 0, "the crash must evict in-flight work");
        assert!(r.retries > 0);
        assert!(r.requests.iter().any(|q| q.retries > 0), "some survivor reran a failed request");
        assert!(r.downtime_s > 0.0);
        assert!(r.availability < 1.0);
        assert!(r.devices[0].crashes >= 1);
        // Survivors picked up the dead device's share.
        assert!(r.devices[1].completed + r.devices[2].completed > r.devices[0].completed);
    }

    #[test]
    fn all_devices_dead_fails_parked_requests_at_quiesce() {
        let d = Dataset { name: "two".into(), queries: vec![Query { prefill: 16, decode: 4 }; 2] };
        let arrival = ArrivalProcess::Trace { times_s: vec![1.0, 2.0] };
        let policy = RetryPolicy { max_retries: 2, retry_backoff_s: 0.1, ..RetryPolicy::none() };
        let plan = sole_device_crash(None, policy);
        let fc = FleetConfig { devices: 1, routing: Routing::RoundRobin };
        let r = run_fleet_with_faults(sim(), &d, &arrival, cfg(), fc, &plan).unwrap();
        assert_eq!(r.completed, 0);
        assert_eq!(r.shed, 2);
        assert_eq!(r.shed_failed, 2);
        // Finding no device spends no retry: both requests park, and the
        // quiesce loop fails them once no recovery can ever come.
        assert_eq!(r.retries, 0);
        assert_eq!(r.availability, 0.0);
    }

    #[test]
    fn parked_request_is_served_when_its_device_recovers() {
        let d = Dataset { name: "one".into(), queries: vec![Query { prefill: 16, decode: 4 }] };
        let arrival = ArrivalProcess::Trace { times_s: vec![1.0] };
        // The sole device is down from t = 0 to t = 2 s; the request
        // arriving at 1 s waits for the recovery instead of burning its
        // retry budget against a dead fleet.
        let policy = RetryPolicy { max_retries: 2, retry_backoff_s: 0.1, ..RetryPolicy::none() };
        let plan = sole_device_crash(Some(2.0), policy);
        let fc = FleetConfig { devices: 1, routing: Routing::RoundRobin };
        let r = run_fleet_with_faults(sim(), &d, &arrival, cfg(), fc, &plan).unwrap();
        assert_eq!(r.completed, 1);
        assert_eq!(r.shed, 0);
        assert_eq!(r.retries, 0);
        let q = &r.requests[0];
        assert_eq!(q.retries, 0);
        assert_eq!(q.admitted_s, 2.0, "dispatched at the recovery instant");
        assert!(q.ttft_ms > 1000.0 && q.ttft_ms < 1100.0, "TTFT {} ms", q.ttft_ms);
    }

    #[test]
    fn tracing_is_observational_and_byte_identical() {
        use facil_telemetry::RingSink;
        use std::cell::RefCell;
        use std::rc::Rc;
        let d = Dataset::code_autocompletion_like(5, 48);
        let arrival = ArrivalProcess::Poisson { qps: 8.0 };
        let plan = FaultPlan {
            events: vec![FaultEvent {
                device: 0,
                at_s: 0.5,
                kind: FaultKind::Crash { recover_s: None },
            }],
            policy: RetryPolicy { max_retries: 4, retry_backoff_s: 0.05, ..RetryPolicy::none() },
        };
        let fc = FleetConfig { devices: 3, routing: Routing::LeastLoaded };
        let plain = run_fleet_with_faults(sim(), &d, &arrival, cfg(), fc, &plan).unwrap();
        let traced = || {
            let sink = Rc::new(RefCell::new(RingSink::new(1 << 16)));
            let r = run_fleet_with_faults_traced(
                sim(),
                &d,
                &arrival,
                cfg(),
                fc,
                &plan,
                Rc::clone(&sink),
            )
            .unwrap();
            let json = sink.borrow().to_chrome_json();
            (r, json)
        };
        let (a, ja) = traced();
        let (b, jb) = traced();
        assert_eq!(plain, a, "tracing must not change the schedule");
        assert_eq!(plain.to_json(), a.to_json());
        assert_eq!(a, b);
        assert_eq!(ja, jb, "trace export must be byte-identical across repeats");
        // The crash run exercises every scheduler track and event family.
        for track in ["device0", "device1", "device2", "router", "cell0"] {
            assert!(ja.contains(&format!("\"name\":\"{track}\"")), "missing track {track}");
        }
        assert!(plain.failovers > 0, "the crash must evict in-flight work");
        for event in ["admit", "batch", "crash", "failover", "retry"] {
            assert!(ja.contains(&format!("\"name\":\"{event}\"")), "missing event {event}");
        }
    }

    #[test]
    fn deadline_expires_work_waiting_for_recovery() {
        let d = Dataset { name: "one".into(), queries: vec![Query { prefill: 16, decode: 4 }] };
        let arrival = ArrivalProcess::Trace { times_s: vec![1.0] };
        // The sole device is down from before the arrival and recovers at
        // 1.5 s, past the request's 0.2 s deadline.
        let policy = RetryPolicy { max_retries: 10, retry_backoff_s: 0.3, deadline_s: 0.2 };
        let plan = sole_device_crash(Some(1.5), policy);
        let fc = FleetConfig { devices: 1, routing: Routing::RoundRobin };
        let r = run_fleet_with_faults(sim(), &d, &arrival, cfg(), fc, &plan).unwrap();
        assert_eq!(r.completed, 0);
        assert_eq!(r.shed_deadline, 1);
        assert_eq!(r.deadline_violations, 1);
        assert!(r.deadline_violation_rate > 0.99);
    }
}
