//! Fault-injection showcase: graceful degradation and failover in the
//! `facil-serve` simulator, as reproducible experiments.
//!
//! 1. **Degraded mode** — a PIM-unit fault mid-run. FACIL's mapping keeps
//!    the weights SoC-readable, so it serves straight through at SoC GEMV
//!    speed; the hybrid baseline stalls for a full weight re-layout (and
//!    pays it again to come back when the PIM recovers).
//! 2. **Crash failover** — one device of a fleet crashes with work in
//!    flight. Pending and in-flight requests fail over to survivors under
//!    a bounded-retry policy; nothing is silently lost.
//! 3. **Fault-rate sweep** — seeded random fault plans at increasing
//!    crash rates: availability, goodput, and deadline-violation rate as
//!    the fleet gets less reliable.
//!
//! Pass `--json` to emit one tagged JSON object per run (JSONL) instead
//! of the tables; `--smoke` shrinks every experiment for CI;
//! `--trace <path>` writes a Chrome/Perfetto trace of the crash-failover
//! run (crash spans on serve tracks; failover and retry events on the
//! driver's cluster tracks).

use std::cell::RefCell;
use std::rc::Rc;

use facil_bench::{emit_run, print_table, BenchCli};
use facil_serve::{
    run_fleet_with_faults, run_fleet_with_faults_traced, FaultEvent, FaultKind, FaultPlan,
    FaultRates, FleetConfig, RetryPolicy, Routing, ServeConfig,
};
use facil_sim::{InferenceSim, Strategy};
use facil_soc::{Platform, PlatformId};
use facil_telemetry::json::{escaped, number};
use facil_telemetry::{RingSink, RunManifest};
use facil_workloads::{ArrivalProcess, Dataset};

fn main() {
    let (cli, _) = BenchCli::parse();
    let seed = cli.seed_or(9);
    let platform = Platform::get(PlatformId::Iphone);
    let sim = InferenceSim::new(platform).expect("default model fits");
    let n = if cli.smoke { 16 } else { 48 };
    if !cli.json {
        println!(
            "platform: {} | {} queries per run{}",
            PlatformId::Iphone,
            n,
            if cli.smoke { " (smoke)" } else { "" }
        );
    }

    // -- 1. Degraded mode: PIM fault, FACIL vs hybrid ----------------------
    // Light load so the SoC-speed degraded device keeps up: the comparison
    // is service speed, not queue blow-up.
    let dataset = Dataset::code_autocompletion_like(42, n);
    let arrival = ArrivalProcess::Poisson { qps: 0.05 };
    let fleet1 = FleetConfig { devices: 1, routing: Routing::RoundRobin };
    let pim_fault = FaultPlan {
        events: vec![FaultEvent {
            device: 0,
            at_s: 2.0,
            kind: FaultKind::PimFault { duration_s: 1e6 },
        }],
        ..FaultPlan::none()
    };
    let mut rows = Vec::new();
    for strategy in [Strategy::FacilDynamic, Strategy::HybridStatic, Strategy::SocOnly] {
        let cfg =
            ServeConfig { strategy, seed, queue_cap: 1 << 20, fmfi: 0.0, ..ServeConfig::default() };
        let r = run_fleet_with_faults(&sim, &dataset, &arrival, cfg, fleet1, &pim_fault)
            .expect("valid plan");
        emit_run(
            &cli,
            "degraded_mode",
            &[("strategy", &escaped(&strategy.to_string())), ("qps", "0.05")],
            &r.to_json(),
        );
        rows.push(vec![
            strategy.to_string(),
            r.completed.to_string(),
            r.shed.to_string(),
            format!("{:.3}", r.goodput_qps),
            format!("{:.0}", r.ttft_ms.p95),
            format!("{:.1}", r.degraded_s),
            format!("{:.3}", r.relayout_stall_s),
        ]);
    }
    if !cli.json {
        print_table(
            "1. PIM-unit fault at t=2s, one device (goodput under fault)",
            &[
                "strategy",
                "completed",
                "shed",
                "goodput/s",
                "TTFT p95 (ms)",
                "degraded (s)",
                "relayout stall (s)",
            ],
            &rows,
        );
    }

    // -- 2. Crash failover: fleet loses a device mid-run -------------------
    let dataset = Dataset::code_autocompletion_like(7, n);
    let arrival = ArrivalProcess::Poisson { qps: 8.0 };
    let crash = FaultPlan {
        events: vec![FaultEvent {
            device: 0,
            at_s: 0.5,
            kind: FaultKind::Crash { recover_s: None },
        }],
        policy: RetryPolicy { max_retries: 4, retry_backoff_s: 0.05, ..RetryPolicy::none() },
    };
    let mut crash_availability = 1.0;
    let mut rows = Vec::new();
    for (label, plan) in [("fault-free", FaultPlan::none()), ("crash dev 0 @ 0.5s", crash.clone())]
    {
        let cfg = ServeConfig { seed, fmfi: 0.0, ..ServeConfig::default() };
        let fc = FleetConfig { devices: 3, routing: Routing::LeastLoaded };
        let r =
            run_fleet_with_faults(&sim, &dataset, &arrival, cfg, fc, &plan).expect("valid plan");
        assert_eq!(r.completed + r.shed, r.offered, "conservation must hold");
        emit_run(
            &cli,
            "crash_failover",
            &[("plan", &escaped(label)), ("devices", "3")],
            &r.to_json(),
        );
        crash_availability = r.availability;
        rows.push(vec![
            label.to_string(),
            r.completed.to_string(),
            r.shed.to_string(),
            r.failovers.to_string(),
            r.retries.to_string(),
            format!("{:.3}", r.availability),
            format!("{:.1}", r.downtime_s),
        ]);
    }
    if !cli.json {
        print_table(
            "2. Crash failover, 3 devices at 8 arrivals/s (zero requests lost)",
            &["plan", "completed", "shed", "failovers", "retries", "availability", "down (s)"],
            &rows,
        );
    }

    // The same crash scenario again, traced: crash/freeze spans land on
    // per-device tracks, failover and retry instants on the driver's cell
    // track.
    if cli.wants_trace() {
        let sink = Rc::new(RefCell::new(RingSink::new(1 << 20)));
        let cfg = ServeConfig { seed, fmfi: 0.0, ..ServeConfig::default() };
        let fc = FleetConfig { devices: 3, routing: Routing::LeastLoaded };
        run_fleet_with_faults_traced(&sim, &dataset, &arrival, cfg, fc, &crash, sink.clone())
            .expect("valid plan");
        cli.write_trace(&sink.borrow());
    }

    // -- 3. Seeded fault-rate sweep ----------------------------------------
    let dataset = Dataset::alpaca_like(3, n);
    let arrival = ArrivalProcess::Poisson { qps: 4.0 };
    let crash_rates: &[f64] = if cli.smoke { &[0.0, 0.2] } else { &[0.0, 0.05, 0.1, 0.2, 0.4] };
    let mut rows = Vec::new();
    for &crash_per_s in crash_rates {
        let rates = FaultRates {
            crash_per_s,
            pim_per_s: crash_per_s / 2.0,
            kv_per_s: crash_per_s / 2.0,
            mean_outage_s: 0.5,
        };
        let mut plan = FaultPlan::random(1234, 4, 30.0, rates);
        plan.policy = RetryPolicy { max_retries: 3, retry_backoff_s: 0.05, deadline_s: 20.0 };
        let cfg = ServeConfig { seed, fmfi: 0.0, ..ServeConfig::default() };
        let fc = FleetConfig { devices: 4, routing: Routing::LeastLoaded };
        let r =
            run_fleet_with_faults(&sim, &dataset, &arrival, cfg, fc, &plan).expect("valid plan");
        emit_run(
            &cli,
            "fault_rate_sweep",
            &[("crash_per_s", &number(crash_per_s)), ("devices", "4")],
            &r.to_json(),
        );
        rows.push(vec![
            format!("{crash_per_s:.2}"),
            (plan.events.len()).to_string(),
            format!("{:.3}", r.availability),
            format!("{:.2}", r.goodput_qps),
            format!("{:.3}", r.deadline_violation_rate),
            r.failovers.to_string(),
            (r.shed_failed + r.shed_deadline).to_string(),
        ]);
    }
    if !cli.json {
        print_table(
            "3. Seeded fault-rate sweep, 4 devices at 4 arrivals/s (20 s deadline)",
            &[
                "crashes/s/dev",
                "fault events",
                "availability",
                "goodput/s",
                "violation rate",
                "failovers",
                "failed+expired",
            ],
            &rows,
        );
        println!(
            "\nFACIL rides out PIM faults at SoC speed on its SoC-readable layout while the \
             hybrid baseline stalls for a re-layout; crashed devices' work fails over to \
             survivors with nothing silently lost; availability and goodput degrade smoothly \
             with the fault rate."
        );
    }

    let mut manifest = RunManifest::new("chaos", seed);
    manifest
        .config_str("platform", "iphone")
        .config_uint("queries", n as u64)
        .config_bool("smoke", cli.smoke);
    manifest.result_num("crash_availability", crash_availability);
    cli.emit_manifest(&manifest);
}
