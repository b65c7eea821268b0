//! End-to-end scenario tests of the cluster router: each test drives one
//! resilience mechanism (failover, partitions, hedging, gray failures,
//! tenant QoS, autoscaling) through a hand-built chaos plan and checks
//! the report tells the right story.

use facil_serve::{
    run_cluster, run_cluster_traced, AutoscalePolicy, ChaosEvent, ChaosPlan, ClusterConfig,
    FaultKind, ServeConfig, ShedReason, Tenant,
};
use facil_sim::InferenceSim;
use facil_soc::{Platform, PlatformId};
use facil_telemetry::RingSink;
use facil_workloads::{ArrivalProcess, Dataset, Query};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;

/// One shared simulator (construction runs a DRAM simulation; reuse it).
fn sim() -> &'static InferenceSim {
    static SIM: OnceLock<InferenceSim> = OnceLock::new();
    SIM.get_or_init(|| {
        InferenceSim::new(Platform::get(PlatformId::Iphone)).expect("default model fits")
    })
}

/// A dataset of `n` identical queries — no sampling noise, so every
/// scenario is exactly reproducible.
fn fixed_queries(n: usize, prefill: u64, decode: u64) -> Dataset {
    Dataset { name: "fixed".into(), queries: vec![Query { prefill, decode }; n] }
}

fn base_cfg(cells: usize, devices_per_cell: usize) -> ClusterConfig {
    ClusterConfig {
        cells,
        devices_per_cell,
        max_devices_per_cell: devices_per_cell,
        serve: ServeConfig { fmfi: 0.0, ..ServeConfig::default() },
        ..ClusterConfig::default()
    }
}

/// Evenly spaced arrival trace: `n` arrivals `gap_s` apart from `start_s`.
fn spaced(n: usize, start_s: f64, gap_s: f64) -> ArrivalProcess {
    ArrivalProcess::Trace { times_s: (0..n).map(|i| start_s + gap_s * i as f64).collect() }
}

#[test]
fn cell_outage_fails_over_to_the_surviving_cell() {
    let d = fixed_queries(12, 64, 256);
    let cfg = base_cfg(2, 2);
    let plan = ChaosPlan {
        events: vec![ChaosEvent::CellOutage { cell: 0, at_s: 0.5, duration_s: 30.0 }],
        ..ChaosPlan::none()
    };
    let r = run_cluster(sim(), &d, &spaced(12, 0.0, 0.02), &cfg, &plan).unwrap();
    assert!(r.conserved());
    assert!(r.failovers > 0, "in-flight work on cell 0 must be evicted: {r:?}");
    assert!(r.retries > 0, "evictions must be rescheduled");
    assert!(r.availability < 1.0, "a 30 s outage must show up as downtime");
    assert_eq!(r.completed, r.offered, "the surviving cell absorbs everything");
    assert!(r.cells[1].serve.completed > 0, "failovers must land on the surviving cell");
}

#[test]
fn partition_parks_new_work_until_it_heals() {
    let d = fixed_queries(3, 32, 16);
    let cfg = base_cfg(1, 1);
    let plan = ChaosPlan {
        events: vec![ChaosEvent::Partition { cell: 0, at_s: 0.0, duration_s: 2.0 }],
        ..ChaosPlan::none()
    };
    let r = run_cluster(sim(), &d, &spaced(3, 0.1, 0.1), &cfg, &plan).unwrap();
    assert!(r.conserved());
    assert_eq!(r.completed, 3, "everything serves once the partition heals");
    assert_eq!(r.parked_peak, 3, "all three arrivals wait out the partition");
    for req in &r.cells[0].serve.requests {
        assert!(
            req.admitted_s >= 2.0,
            "request {} admitted at {} inside the partition window",
            req.id,
            req.admitted_s
        );
    }
}

#[test]
fn link_delay_defers_when_no_clean_cell_exists() {
    let d = fixed_queries(1, 32, 16);
    let cfg = base_cfg(1, 1);
    let plan = ChaosPlan {
        events: vec![ChaosEvent::LinkDelay { cell: 0, at_s: 0.0, duration_s: 0.4, extra_s: 0.2 }],
        ..ChaosPlan::none()
    };
    let r = run_cluster(sim(), &d, &spaced(1, 0.1, 1.0), &cfg, &plan).unwrap();
    assert!(r.conserved());
    assert_eq!(r.completed, 1);
    // 0.1 -> defer to 0.3 (still inside the spike) -> defer to 0.5 -> go.
    assert_eq!(r.deferrals, 2);
    assert_eq!(r.hedges, 0, "a one-cell cluster has nowhere to hedge");
    assert!(r.cells[0].serve.requests[0].admitted_s >= 0.4);
}

#[test]
fn link_delay_hedges_to_a_clean_cell() {
    let d = fixed_queries(1, 32, 16);
    let cfg = ClusterConfig { hedge_after_s: 0.1, ..base_cfg(2, 1) };
    let plan = ChaosPlan {
        events: vec![ChaosEvent::LinkDelay { cell: 0, at_s: 0.0, duration_s: 10.0, extra_s: 0.5 }],
        ..ChaosPlan::none()
    };
    let r = run_cluster(sim(), &d, &spaced(1, 1.0, 1.0), &cfg, &plan).unwrap();
    assert!(r.conserved());
    assert_eq!(r.hedges, 1, "the spike exceeds the hedge threshold");
    assert_eq!(r.deferrals, 0);
    assert_eq!(r.cells[0].dispatched, 0, "the delayed cell is bypassed");
    assert_eq!(r.cells[1].dispatched, 1);
    assert_eq!(r.completed, 1);
}

#[test]
fn gray_failure_slows_the_node_but_loses_nothing() {
    let d = fixed_queries(6, 64, 64);
    let cfg = base_cfg(1, 2);
    let plan = ChaosPlan {
        events: vec![ChaosEvent::Device {
            device: 0,
            at_s: 0.0,
            kind: FaultKind::Slow { duration_s: 120.0, factor: 8.0 },
        }],
        ..ChaosPlan::none()
    };
    let r = run_cluster(sim(), &d, &spaced(6, 0.0, 0.05), &cfg, &plan).unwrap();
    assert!(r.conserved());
    assert_eq!(r.completed, r.offered, "gray failures degrade, they don't kill");
    assert_eq!(r.failovers, 0, "the slow node still passes health checks");
    assert!(r.cells[0].serve.slow_s > 0.0, "slow-window time must be accounted");
}

#[test]
fn tenant_quota_sheds_only_the_offending_class() {
    let d = fixed_queries(32, 32, 16);
    let cfg = ClusterConfig {
        tenants: vec![
            Tenant { name: "premium".into(), priority: 0, kv_quota_bytes: 0, share: 1.0 },
            Tenant { name: "batch".into(), priority: 2, kv_quota_bytes: 1, share: 1.0 },
        ],
        ..base_cfg(2, 2)
    };
    let r = run_cluster(sim(), &d, &ArrivalProcess::Poisson { qps: 4.0 }, &cfg, &ChaosPlan::none())
        .unwrap();
    assert!(r.conserved());
    assert!(r.tenants[0].offered > 0 && r.tenants[1].offered > 0, "both classes drew traffic");
    assert_eq!(r.shed_quota, r.tenants[1].offered, "a 1-byte quota admits nothing");
    for s in &r.sheds {
        if s.reason == ShedReason::QuotaExceeded {
            assert_eq!(s.tenant, 1, "quota sheds must attribute to the quota'd tenant");
        }
    }
    assert_eq!(r.tenants[0].completed, r.tenants[0].offered, "the unquota'd class is untouched");
    assert_eq!(r.tenants[1].completed, 0);
}

#[test]
fn park_overflow_evicts_the_newest_parked_request() {
    let d = fixed_queries(4, 32, 16);
    let cfg = ClusterConfig { park_cap: 2, ..base_cfg(1, 1) };
    let plan = ChaosPlan {
        events: vec![ChaosEvent::Partition { cell: 0, at_s: 0.0, duration_s: 100.0 }],
        ..ChaosPlan::none()
    };
    let r = run_cluster(sim(), &d, &spaced(4, 0.1, 0.1), &cfg, &plan).unwrap();
    assert!(r.conserved());
    assert_eq!(r.shed_overload, 2, "two arrivals overflow a 2-deep park");
    assert_eq!(r.completed, 2, "the two oldest ride out the partition");
    let overloaded: Vec<u64> =
        r.sheds.iter().filter(|s| s.reason == ShedReason::Overload).map(|s| s.id).collect();
    assert_eq!(overloaded, vec![2, 3], "eviction takes the newest same-priority entries");
}

#[test]
fn slo_burn_scales_out_and_idle_cooldown_scales_in() {
    // Dense burst to light the SLO on fire, then a sparse tail whose empty
    // windows cool the autoscaler back down.
    let mut times: Vec<f64> = (0..48).map(|i| 0.1 * i as f64).collect();
    times.extend((0..6).map(|i| 20.0 + i as f64));
    let n = times.len();
    let d = fixed_queries(n, 64, 32);
    let cfg = ClusterConfig {
        max_devices_per_cell: 3,
        autoscale: Some(AutoscalePolicy {
            // Between the queued dense-phase TTFT (seconds) and the
            // unqueued tail TTFT (~90 ms): burns early, cools late.
            slo_ttft_ms: 300.0,
            window_s: 2.0,
            interval_s: 0.5,
            burn_streak: 1,
            cool_streak: 3,
            warmup_s: 0.1,
        }),
        ..base_cfg(1, 1)
    };
    let r =
        run_cluster(sim(), &d, &ArrivalProcess::Trace { times_s: times }, &cfg, &ChaosPlan::none())
            .unwrap();
    assert!(r.conserved());
    assert_eq!(r.completed, r.offered);
    assert!(r.scale_outs >= 1, "the queued dense phase must burn the SLO: {r:?}");
    assert!(r.scale_ins >= 1, "the idle tail must cool the cluster back down");
    assert!(r.devices_final <= cfg.max_devices_per_cell);
}

#[test]
fn tracing_is_observational_and_records_router_decisions() {
    let d = fixed_queries(8, 64, 128);
    let cfg = base_cfg(2, 2);
    let plan = ChaosPlan {
        events: vec![
            ChaosEvent::CellOutage { cell: 0, at_s: 0.3, duration_s: 10.0 },
            ChaosEvent::LinkDelay { cell: 1, at_s: 0.0, duration_s: 0.2, extra_s: 0.05 },
        ],
        ..ChaosPlan::none()
    };
    let arrival = spaced(8, 0.0, 0.05);
    let plain = run_cluster(sim(), &d, &arrival, &cfg, &plan).unwrap();
    let sink = Rc::new(RefCell::new(RingSink::new(1 << 15)));
    let traced = run_cluster_traced(sim(), &d, &arrival, &cfg, &plan, Rc::clone(&sink)).unwrap();
    assert_eq!(plain, traced, "tracing changed the schedule");
    assert_eq!(plain.to_json(), traced.to_json());
    let json = sink.borrow().to_chrome_json();
    for name in ["dispatch", "failover", "retry", "cell0", "router"] {
        assert!(json.contains(name), "trace export missing {name}");
    }
}

#[test]
fn empty_dataset_reports_zeros_not_nan() {
    let d = Dataset { name: "empty".into(), queries: Vec::new() };
    let cfg = base_cfg(2, 2);
    let r = run_cluster(sim(), &d, &ArrivalProcess::Poisson { qps: 1.0 }, &cfg, &ChaosPlan::none())
        .unwrap();
    assert!(r.conserved());
    assert_eq!(r.offered, 0);
    assert_eq!(r.offered_qps, 0.0);
    assert_eq!(r.goodput_qps, 0.0);
    assert_eq!(r.slo_attainment(100.0), 0.0);
    for v in [r.offered_qps, r.goodput_qps, r.availability, r.span_s] {
        assert!(!v.is_nan());
    }
}
