//! Acceptance tests for the serving subsystem: its claims (continuous
//! batching sustains more load than FCFS at equal tail latency; a batch
//! of one is FCFS run-to-completion; admission control bounds the tail
//! past saturation) hold as executable checks, not just bench-output
//! prose.

use facil_serve::{
    run_fleet, run_fleet_with_faults, FaultEvent, FaultKind, FaultPlan, FleetConfig, Routing,
    ServeConfig,
};
use facil_sim::{InferenceSim, Strategy};
use facil_soc::{Platform, PlatformId};
use facil_workloads::{ArrivalProcess, Dataset};
use std::sync::OnceLock;

fn sim() -> &'static InferenceSim {
    static SIM: OnceLock<InferenceSim> = OnceLock::new();
    SIM.get_or_init(|| {
        InferenceSim::new(Platform::get(PlatformId::Iphone)).expect("default model fits")
    })
}

/// Continuous batching sustains a strictly higher offered rate than FCFS
/// run-to-completion (the same scheduler with a batch of one and
/// whole-prefill chunks) at the same p95-TTFT budget, on the same arrival
/// stream.
#[test]
fn continuous_batching_sustains_higher_qps_than_fcfs() {
    let d = Dataset::code_autocompletion_like(42, 96);
    let strategy = Strategy::FacilDynamic;
    // Unbounded queue: the comparison is pure scheduling, not shedding.
    let cb =
        ServeConfig { strategy, seed: 9, queue_cap: 1 << 20, fmfi: 0.0, ..ServeConfig::default() };
    let fcfs = ServeConfig { max_batch: 1, chunk_tokens: u64::MAX, ..cb };
    let p95 = |cfg: ServeConfig, qps: f64| {
        let r = run_fleet(sim(), &d, &ArrivalProcess::Poisson { qps }, cfg, FleetConfig::default())
            .unwrap();
        assert_eq!(r.shed, 0, "unbounded queue must not shed");
        r.ttft_ms.p95
    };
    // SLO budget: 4x the essentially-unloaded FCFS tail.
    let target_p95_ms = 4.0 * p95(fcfs, 0.2);

    let rates = [0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8, 25.6];
    let max_sustained = |cfg: ServeConfig| {
        rates.iter().copied().filter(|&qps| p95(cfg, qps) <= target_p95_ms).fold(0.0f64, f64::max)
    };
    let fcfs_max = max_sustained(fcfs);
    let cb_max = max_sustained(cb);

    assert!(fcfs_max > 0.0, "FCFS must sustain at least the lightest rate");
    assert!(
        cb_max > fcfs_max,
        "continuous batching sustained {cb_max} qps, FCFS {fcfs_max} qps, \
         at p95 TTFT <= {target_p95_ms:.0} ms"
    );
}

/// A device with a batch of one and whole-prefill chunks is FCFS
/// run-to-completion: each request starts at `max(arrival, previous
/// finish)` and then takes exactly its isolated `run_query` time. Checked
/// request by request for three strategies, from an idle device to a
/// saturated one.
#[test]
fn batch_of_one_is_fcfs_run_to_completion() {
    let d = Dataset::code_autocompletion_like(5, 48);
    let n = d.queries.len();
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
    for strategy in [Strategy::HybridStatic, Strategy::HybridDynamic, Strategy::FacilDynamic] {
        let isolated: Vec<_> = d.queries.iter().map(|&q| sim().run_query(strategy, q)).collect();
        let cfg = ServeConfig {
            strategy,
            seed: 3,
            max_batch: 1,
            chunk_tokens: u64::MAX,
            queue_cap: 1 << 20,
            fmfi: 0.0,
            ..ServeConfig::default()
        };
        for qps in [1e-4, 0.1, 0.5, 2.0, 16.0] {
            let times_s = ArrivalProcess::Poisson { qps }.sample_times(3, n);
            let arrival = ArrivalProcess::Trace { times_s: times_s.clone() };
            let r = run_fleet(sim(), &d, &arrival, cfg, FleetConfig::default()).unwrap();
            assert_eq!(r.completed, n, "{strategy} at {qps} qps");
            assert!(r.devices[0].mean_batch <= 1.0, "{strategy} at {qps} qps");
            let mut free_s = 0.0f64;
            let mut waited = 0;
            for (id, (&arrival_s, iso)) in times_s.iter().zip(&isolated).enumerate() {
                let start_s = arrival_s.max(free_s);
                waited += usize::from(start_s > arrival_s);
                free_s = start_s + iso.ttlt_ns / 1e9;
                let ttft_ms = (start_s - arrival_s) * 1e3 + iso.ttft_ns / 1e6;
                let ttlt_ms = (free_s - arrival_s) * 1e3;
                let got = r.requests.iter().find(|q| q.id == id as u64).unwrap();
                assert!(
                    rel(got.ttft_ms, ttft_ms) < 1e-9,
                    "{strategy} at {qps} qps, request {id}: TTFT {} ms, FCFS {ttft_ms} ms",
                    got.ttft_ms
                );
                assert!(
                    rel(got.ttlt_ms, ttlt_ms) < 1e-9,
                    "{strategy} at {qps} qps, request {id}: TTLT {} ms, FCFS {ttlt_ms} ms",
                    got.ttlt_ms
                );
            }
            // The sweep spans both ends: nobody queues on the idle device,
            // most requests queue on the saturated one.
            if qps == 1e-4 {
                assert_eq!(waited, 0, "{strategy}: an idle device must not queue");
            }
            if qps == 16.0 {
                assert!(waited > n / 2, "{strategy}: only {waited} of {n} queued at {qps} qps");
            }
        }
    }
}

/// With a bounded admission queue, pushing the offered rate far past
/// saturation barely moves the p95 TTFT of served requests (the excess is
/// shed instead of queued), while an unbounded queue lets the tail grow
/// with the backlog.
#[test]
fn admission_control_bounds_tail_latency_past_saturation() {
    let d = Dataset::code_autocompletion_like(42, 96);
    let bounded = |qps: f64| {
        let cfg = ServeConfig { seed: 9, queue_cap: 16, fmfi: 0.0, ..ServeConfig::default() };
        run_fleet(sim(), &d, &ArrivalProcess::Poisson { qps }, cfg, FleetConfig::default()).unwrap()
    };
    let saturated = bounded(16.0);
    let overloaded = bounded(64.0);
    assert!(saturated.shed > 0, "16 qps must already saturate one device");
    assert!(overloaded.shed > saturated.shed);
    assert_eq!(overloaded.completed + overloaded.shed, overloaded.offered);
    // The served tail stays within a small factor even at 4x the load: the
    // queue bound caps how long any admitted request can have waited.
    assert!(
        overloaded.ttft_ms.p95 <= 2.5 * saturated.ttft_ms.p95,
        "bounded queue: p95 {} ms at 64 qps vs {} ms at 16 qps",
        overloaded.ttft_ms.p95,
        saturated.ttft_ms.p95
    );

    // Same overload with an unbounded queue: everything is served, but the
    // tail absorbs the whole backlog.
    let unbounded_cfg =
        ServeConfig { seed: 9, queue_cap: 1 << 20, fmfi: 0.0, ..ServeConfig::default() };
    let unbounded = run_fleet(
        sim(),
        &d,
        &ArrivalProcess::Poisson { qps: 64.0 },
        unbounded_cfg,
        FleetConfig::default(),
    )
    .unwrap();
    assert_eq!(unbounded.shed, 0);
    assert!(
        unbounded.ttft_ms.p95 > overloaded.ttft_ms.p95,
        "unbounded p95 {} ms must exceed bounded p95 {} ms",
        unbounded.ttft_ms.p95,
        overloaded.ttft_ms.p95
    );
    // Goodput is what admission control trades the tail against.
    assert!(unbounded.completed > overloaded.completed);
}

/// The paper's degraded-mode claim as an executable check: a PIM-unit
/// fault leaves FACIL's weights SoC-readable, so it keeps serving
/// immediately at SoC GEMV speed with bounded TTFT inflation, while the
/// hybrid baseline must stall for a full weight re-layout before it can
/// serve again (and pay it once more to come back).
#[test]
fn facil_serves_through_pim_fault_while_hybrid_stalls_for_relayout() {
    // Light load: the degraded (SoC-speed) device must still keep up, so
    // the TTFT comparison measures service speed, not queue blow-up.
    let d = Dataset::code_autocompletion_like(7, 32);
    let arrival = ArrivalProcess::Poisson { qps: 0.05 };
    let fleet = FleetConfig { devices: 1, routing: Routing::RoundRobin };
    // The PIM unit is down for essentially the whole run.
    let plan = FaultPlan {
        events: vec![FaultEvent {
            device: 0,
            at_s: 2.0,
            kind: FaultKind::PimFault { duration_s: 600.0 },
        }],
        ..FaultPlan::none()
    };
    let run = |strategy: Strategy, plan: &FaultPlan| {
        let cfg = ServeConfig {
            strategy,
            seed: 9,
            queue_cap: 1 << 20,
            fmfi: 0.0,
            ..ServeConfig::default()
        };
        run_fleet_with_faults(sim(), &d, &arrival, cfg, fleet, plan).unwrap()
    };
    let facil_clean = run(Strategy::FacilDynamic, &FaultPlan::none());
    let facil_fault = run(Strategy::FacilDynamic, &plan);
    let hybrid_fault = run(Strategy::HybridStatic, &plan);

    // FACIL keeps serving: nothing shed, positive goodput, zero relayout
    // stall, and real time spent in degraded mode.
    assert_eq!(facil_fault.shed, 0);
    assert_eq!(facil_fault.completed, facil_fault.offered);
    assert!(facil_fault.goodput_qps > 0.0);
    assert_eq!(facil_fault.relayout_stall_s, 0.0);
    assert!(facil_fault.degraded_s > 0.0, "the fault window must be exercised");
    // Bounded TTFT inflation: FACIL prefill already runs on the SoC over
    // the PIM-optimized layout, so the fault moves the tail by at most a
    // small factor (decode slows to SoC GEMV, prefill barely changes).
    assert!(
        facil_fault.ttft_ms.p95 <= 4.0 * facil_clean.ttft_ms.p95,
        "degraded p95 TTFT {} ms vs clean {} ms: inflation must stay bounded",
        facil_fault.ttft_ms.p95,
        facil_clean.ttft_ms.p95
    );
    // The hybrid baseline pays the full weight re-layout on the serving
    // clock before it can serve through the same window.
    assert!(hybrid_fault.relayout_stall_s > 0.0, "hybrid must stall for re-layout on a PIM fault");
    assert!(facil_fault.relayout_stall_s < hybrid_fault.relayout_stall_s);
}
