//! Property-based tests of the serving simulator's accounting and
//! determinism invariants.

use facil_check::cases;
use facil_serve::{
    run_fleet, run_fleet_with_faults, run_fleet_with_faults_traced, FaultPlan, FaultRates,
    FleetConfig, Routing, ServeConfig,
};
use facil_sim::InferenceSim;
use facil_soc::{Platform, PlatformId};
use facil_telemetry::RingSink;
use facil_workloads::{ArrivalProcess, Dataset};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::OnceLock;

/// One shared simulator (construction runs a DRAM simulation; reuse it).
fn sim() -> &'static InferenceSim {
    static SIM: OnceLock<InferenceSim> = OnceLock::new();
    SIM.get_or_init(|| {
        InferenceSim::new(Platform::get(PlatformId::Iphone)).expect("default model fits")
    })
}

/// No request is ever silently dropped: every offered id shows up
/// exactly once, as completed or shed, on any fleet shape.
#[test]
fn every_request_completes_or_is_explicitly_shed() {
    cases(12, |g| {
        let (seed, n, qps, devices, queue_cap, max_batch, chunk, least_loaded) = (
            g.u64(0..1_000),
            g.usize(1..24),
            g.f64(0.5..16.0),
            g.usize(1..4),
            g.usize(1..12),
            g.usize(1..6),
            g.u64(8..128),
            g.bool(),
        );
        let d = Dataset::code_autocompletion_like(seed, n);
        let cfg = ServeConfig {
            seed,
            queue_cap,
            max_batch,
            chunk_tokens: chunk,
            fmfi: 0.0,
            ..ServeConfig::default()
        };
        let routing = if least_loaded { Routing::LeastLoaded } else { Routing::RoundRobin };
        let r = run_fleet(
            sim(),
            &d,
            &ArrivalProcess::Poisson { qps },
            cfg,
            FleetConfig { devices, routing },
        )
        .unwrap();
        assert_eq!(r.offered, n);
        assert_eq!(r.completed + r.shed, r.offered);
        assert_eq!(
            r.shed_queue_full
                + r.shed_oversized
                + r.shed_no_memory
                + r.shed_failed
                + r.shed_deadline,
            r.shed
        );
        let ids: BTreeSet<u64> =
            r.requests.iter().map(|q| q.id).chain(r.sheds.iter().map(|s| s.id)).collect();
        assert_eq!(ids.len(), n, "an id was double-counted");
        assert_eq!(ids, (0..n as u64).collect::<BTreeSet<u64>>());
        // Per-device counts agree with the flat lists.
        let dev_completed: usize = r.devices.iter().map(|d| d.completed).sum();
        let dev_shed: usize = r.devices.iter().map(|d| d.shed).sum();
        assert_eq!(dev_completed, r.completed);
        assert_eq!(dev_shed, r.shed);
    });
}

/// Utilization is a fraction of the span, fleet-wide and per device,
/// and latency records are internally consistent.
#[test]
fn utilization_and_latency_records_are_well_formed() {
    cases(12, |g| {
        let (seed, n, qps, devices) =
            (g.u64(0..1_000), g.usize(1..24), g.f64(0.5..16.0), g.usize(1..4));
        let d = Dataset::code_autocompletion_like(seed, n);
        let cfg = ServeConfig { seed, fmfi: 0.0, ..ServeConfig::default() };
        let r = run_fleet(
            sim(),
            &d,
            &ArrivalProcess::Poisson { qps },
            cfg,
            FleetConfig { devices, routing: Routing::LeastLoaded },
        )
        .unwrap();
        assert!(r.utilization >= 0.0 && r.utilization <= 1.0 + 1e-9);
        for dev in &r.devices {
            assert!(dev.utilization >= 0.0 && dev.utilization <= 1.0 + 1e-9);
        }
        assert!(r.goodput_qps <= r.offered_qps + 1e-12);
        for q in &r.requests {
            assert!(q.admitted_s >= q.arrival_s - 1e-12);
            assert!(q.ttft_ms > 0.0);
            assert!(q.ttlt_ms >= q.ttft_ms - 1e-12);
        }
        // One inter-token sample per generated token past the first.
        let decode_total: u64 = r.requests.iter().map(|q| q.decode).sum();
        assert_eq!(r.tbt_ms.count as u64, decode_total);
    });
}

/// Byte-identical determinism: the same inputs give the same JSON.
#[test]
fn serving_runs_are_byte_identical_across_repeats() {
    cases(12, |g| {
        let (seed, n, qps, fmfi) =
            (g.u64(0..1_000), g.usize(1..16), g.f64(0.5..8.0), g.f64(0.0..0.9));
        let d = Dataset::alpaca_like(seed, n);
        let cfg = ServeConfig { seed, fmfi, ..ServeConfig::default() };
        let arrival = ArrivalProcess::Bursty { qps, burst: 3 };
        let a = run_fleet(sim(), &d, &arrival, cfg, FleetConfig::default()).unwrap();
        let b = run_fleet(sim(), &d, &arrival, cfg, FleetConfig::default()).unwrap();
        assert_eq!(&a, &b);
        assert_eq!(a.to_json(), b.to_json());
    });
}

/// For a fixed seed, Poisson arrival times scale as 1/qps, so raising
/// the offered rate only compresses the schedule: mean TTFT is monotone
/// non-decreasing in the arrival rate when nothing is shed.
#[test]
fn ttft_is_monotone_in_offered_load() {
    cases(12, |g| {
        let (seed, n, qps) = (g.u64(0..1_000), g.usize(2..16), g.f64(2.0..32.0));
        let d = Dataset::code_autocompletion_like(seed, n);
        // queue_cap >= n: nothing is shed, both runs serve every request.
        let cfg = ServeConfig { seed, queue_cap: 1 << 20, fmfi: 0.0, ..ServeConfig::default() };
        let light = run_fleet(
            sim(),
            &d,
            &ArrivalProcess::Poisson { qps: 0.2 },
            cfg,
            FleetConfig::default(),
        )
        .unwrap();
        let heavy =
            run_fleet(sim(), &d, &ArrivalProcess::Poisson { qps }, cfg, FleetConfig::default())
                .unwrap();
        assert_eq!(light.shed, 0);
        assert_eq!(heavy.shed, 0);
        assert!(
            heavy.ttft_ms.mean >= light.ttft_ms.mean * 0.999,
            "mean TTFT fell from {} to {} when load rose to {} qps",
            light.ttft_ms.mean,
            heavy.ttft_ms.mean,
            qps
        );
    });
}

/// Conservation survives arbitrary fault injection: crashes, freezes,
/// PIM faults, KV faults, deadlines, and bounded retries never lose or
/// double-count a request — every offered id is completed or shed with
/// an explicit reason, exactly once.
#[test]
fn conservation_holds_under_random_faults() {
    cases(12, |g| {
        let (
            seed,
            fault_seed,
            n,
            qps,
            devices,
            crash_per_s,
            pim_per_s,
            kv_per_s,
            max_retries,
            deadline_on,
        ) = (
            g.u64(0..1_000),
            g.u64(0..1_000),
            g.usize(1..24),
            g.f64(0.5..16.0),
            g.usize(1..4),
            g.f64(0.0..0.8),
            g.f64(0.0..0.8),
            g.f64(0.0..0.8),
            g.u32(0..4),
            g.bool(),
        );
        let d = Dataset::code_autocompletion_like(seed, n);
        let cfg = ServeConfig { seed, fmfi: 0.0, ..ServeConfig::default() };
        let rates = FaultRates { crash_per_s, pim_per_s, kv_per_s, mean_outage_s: 0.4 };
        let mut plan = FaultPlan::random(fault_seed, devices, 20.0, rates);
        plan.policy.max_retries = max_retries;
        plan.policy.retry_backoff_s = 0.05;
        plan.policy.deadline_s = if deadline_on { 5.0 } else { 0.0 };
        let r = run_fleet_with_faults(
            sim(),
            &d,
            &ArrivalProcess::Poisson { qps },
            cfg,
            FleetConfig { devices, routing: Routing::LeastLoaded },
            &plan,
        )
        .unwrap();
        assert_eq!(r.offered, n);
        assert_eq!(r.completed + r.shed, r.offered);
        assert_eq!(
            r.shed_queue_full
                + r.shed_oversized
                + r.shed_no_memory
                + r.shed_failed
                + r.shed_deadline,
            r.shed
        );
        let ids: BTreeSet<u64> =
            r.requests.iter().map(|q| q.id).chain(r.sheds.iter().map(|s| s.id)).collect();
        assert_eq!(ids.len(), n, "an id was lost or double-counted");
        assert_eq!(ids, (0..n as u64).collect::<BTreeSet<u64>>());
        assert!(r.availability >= 0.0 && r.availability <= 1.0 + 1e-9);
        assert!(r.deadline_violation_rate >= 0.0 && r.deadline_violation_rate <= 1.0 + 1e-9);
        if plan.policy.deadline_s == 0.0 {
            assert_eq!(r.deadline_violations, 0);
        }
    });
}

/// Byte-identical determinism under faults: the same seed and the same
/// fault plan give the same JSON report, byte for byte.
#[test]
fn faulty_runs_are_byte_identical_across_repeats() {
    cases(12, |g| {
        let (seed, fault_seed, n, qps, devices) =
            (g.u64(0..1_000), g.u64(0..1_000), g.usize(1..16), g.f64(0.5..8.0), g.usize(1..4));
        let d = Dataset::alpaca_like(seed, n);
        let cfg = ServeConfig { seed, fmfi: 0.0, ..ServeConfig::default() };
        let rates =
            FaultRates { crash_per_s: 0.3, pim_per_s: 0.3, kv_per_s: 0.3, mean_outage_s: 0.5 };
        let mut plan = FaultPlan::random(fault_seed, devices, 15.0, rates);
        plan.policy.max_retries = 3;
        plan.policy.retry_backoff_s = 0.05;
        let arrival = ArrivalProcess::Bursty { qps, burst: 3 };
        let fleet = FleetConfig { devices, routing: Routing::RoundRobin };
        let a = run_fleet_with_faults(sim(), &d, &arrival, cfg, fleet, &plan).unwrap();
        let b = run_fleet_with_faults(sim(), &d, &arrival, cfg, fleet, &plan).unwrap();
        assert_eq!(&a, &b);
        assert_eq!(a.to_json(), b.to_json());
    });
}

/// Tracing is observational: for any seed and fault plan the traced
/// run's report equals the untraced run's, and the exported
/// Chrome-trace JSON is byte-identical across repeats.
#[test]
fn tracing_never_changes_the_schedule() {
    cases(12, |g| {
        let (seed, fault_seed, n, qps, devices) =
            (g.u64(0..1_000), g.u64(0..1_000), g.usize(1..16), g.f64(0.5..8.0), g.usize(1..4));
        let d = Dataset::code_autocompletion_like(seed, n);
        let cfg = ServeConfig { seed, fmfi: 0.0, ..ServeConfig::default() };
        let rates =
            FaultRates { crash_per_s: 0.2, pim_per_s: 0.2, kv_per_s: 0.2, mean_outage_s: 0.4 };
        let mut plan = FaultPlan::random(fault_seed, devices, 10.0, rates);
        plan.policy.max_retries = 2;
        plan.policy.retry_backoff_s = 0.05;
        let arrival = ArrivalProcess::Poisson { qps };
        let fleet = FleetConfig { devices, routing: Routing::LeastLoaded };
        let plain = run_fleet_with_faults(sim(), &d, &arrival, cfg, fleet, &plan).unwrap();
        let traced = || {
            let sink = Rc::new(RefCell::new(RingSink::new(1 << 15)));
            let r = run_fleet_with_faults_traced(
                sim(),
                &d,
                &arrival,
                cfg,
                fleet,
                &plan,
                Rc::clone(&sink),
            )
            .unwrap();
            let json = sink.borrow().to_chrome_json();
            (r, json)
        };
        let (a, ja) = traced();
        let (b, jb) = traced();
        assert_eq!(&plain, &a, "tracing changed the schedule");
        assert_eq!(plain.to_json(), a.to_json());
        assert_eq!(&a, &b);
        assert_eq!(ja, jb, "trace export must be deterministic");
    });
}

/// Worker count is invisible in the results: a fleet run on one pool
/// worker serializes to exactly the JSON of the same run on eight
/// (the `FACIL_THREADS=1` vs `FACIL_THREADS=8` guarantee), with and
/// without fault injection.
#[test]
fn worker_count_never_changes_the_report() {
    cases(12, |g| {
        let (seed, fault_seed, n, qps, devices, faulty) = (
            g.u64(0..1_000),
            g.u64(0..1_000),
            g.usize(1..16),
            g.f64(0.5..8.0),
            g.usize(2..5),
            g.bool(),
        );
        let d = Dataset::alpaca_like(seed, n);
        let cfg = ServeConfig { seed, fmfi: 0.0, ..ServeConfig::default() };
        let arrival = ArrivalProcess::Bursty { qps, burst: 3 };
        let fleet = FleetConfig { devices, routing: Routing::LeastLoaded };
        let mut plan = if faulty {
            FaultPlan::random(
                fault_seed,
                devices,
                15.0,
                FaultRates { crash_per_s: 0.3, pim_per_s: 0.3, kv_per_s: 0.3, mean_outage_s: 0.5 },
            )
        } else {
            FaultPlan::none()
        };
        plan.policy.max_retries = 3;
        plan.policy.retry_backoff_s = 0.05;
        let run = || run_fleet_with_faults(sim(), &d, &arrival, cfg, fleet, &plan).unwrap();
        facil_telemetry::pool::set_parallelism(1);
        let serial = run();
        facil_telemetry::pool::set_parallelism(8);
        let parallel = run();
        facil_telemetry::pool::set_parallelism(0); // back to the default
        assert_eq!(&serial, &parallel);
        assert_eq!(serial.to_json(), parallel.to_json());
    });
}

/// Zero-fault regression: injecting an empty fault plan reproduces the
/// fault-free scheduler exactly — same report, same JSON bytes.
#[test]
fn empty_fault_plan_reproduces_faultless_run_exactly() {
    cases(12, |g| {
        let (seed, n, qps, devices, least_loaded) =
            (g.u64(0..1_000), g.usize(1..16), g.f64(0.5..12.0), g.usize(1..4), g.bool());
        let d = Dataset::code_autocompletion_like(seed, n);
        let cfg = ServeConfig { seed, ..ServeConfig::default() };
        let routing = if least_loaded { Routing::LeastLoaded } else { Routing::RoundRobin };
        let fleet = FleetConfig { devices, routing };
        let arrival = ArrivalProcess::Poisson { qps };
        let plain = run_fleet(sim(), &d, &arrival, cfg, fleet).unwrap();
        let faulted =
            run_fleet_with_faults(sim(), &d, &arrival, cfg, fleet, &FaultPlan::none()).unwrap();
        assert_eq!(&plain, &faulted);
        assert_eq!(plain.to_json(), faulted.to_json());
        assert_eq!(faulted.failovers, 0);
        assert_eq!(faulted.retries, 0);
        assert_eq!(faulted.shed_failed, 0);
        assert_eq!(faulted.shed_deadline, 0);
    });
}
