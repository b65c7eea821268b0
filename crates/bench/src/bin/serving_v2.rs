//! Serving subsystem showcase: the three claims of the `facil-serve`
//! continuous-batching simulator, as reproducible sweeps.
//!
//! 1. **Continuous batching vs FCFS** — TTFT percentiles across offered
//!    rates for hybrid-static, hybrid-dynamic and FACIL+dynamic, each
//!    served by the FCFS run-to-completion reference
//!    (`facil_sim::serving::serve`) and by continuous batching on the same
//!    arrival sample.
//! 2. **Admission control** — bounding the admission queue keeps the
//!    served tail flat past saturation, trading goodput for latency.
//! 3. **Fleet mode** — sharding one stream across N devices under
//!    round-robin vs least-loaded routing.
//!
//! Pass `--json` to emit one tagged JSON object per run (JSONL) instead of
//! the tables; `--smoke` shrinks every sweep for CI; `--trace <path>`
//! writes a Chrome/Perfetto trace with DRAM-command, PIM-kernel and serve
//! scheduler tracks (open it in `ui.perfetto.dev`).

use std::cell::RefCell;
use std::rc::Rc;

use facil_bench::{emit_run, print_table, BenchCli};
use facil_core::{select_mapping_2mb, DType, MappingScheme, MatrixConfig};
use facil_dram::{replay_on, sequential_trace, DramSystem, Op};
use facil_llm::ModelConfig;
use facil_pim::PimEngine;
use facil_serve::{
    run_fleet, run_fleet_with_faults_traced, FaultEvent, FaultKind, FaultPlan, FleetConfig,
    RetryPolicy, Routing, ServeConfig,
};
use facil_sim::{serve, InferenceSim, ServingConfig, Strategy};
use facil_soc::{Platform, PlatformId};
use facil_telemetry::json::{escaped, number};
use facil_telemetry::{JsonWriter, RingSink, RunManifest};
use facil_workloads::{ArrivalProcess, Dataset};

/// Record one Chrome trace covering all three instrumented layers: a short
/// logged DRAM replay (per-bank command tracks), one PIM GEMV kernel span,
/// and a traced two-device fleet run with a mid-run crash (admissions and
/// batches on the serve tracks; dispatches, failovers and retries on the
/// driver's cluster tracks).
fn record_trace(cli: &BenchCli, sim: &InferenceSim, dataset: &Dataset, cfg: ServeConfig) {
    let sink = Rc::new(RefCell::new(RingSink::new(1 << 20)));
    let mut handle = sink.clone();

    let p = Platform::get(PlatformId::Iphone);
    let scheme = MappingScheme::conventional(p.dram.topology);
    let mut sys = DramSystem::new(&p.dram);
    sys.enable_logging();
    replay_on(&mut sys, &scheme, sequential_trace(0, 256, 32, Op::Read))
        .expect("sequential demo trace maps");
    sys.export_trace(&mut handle);

    let model = ModelConfig::by_name(p.model_name);
    let m = MatrixConfig::new(model.hidden, model.hidden, DType::F16);
    let decision = select_mapping_2mb(&m, p.dram.topology, &p.pim_arch).expect("mappable");
    let engine = PimEngine::new(p.dram.clone(), p.pim_arch);
    engine.gemv_traced(&m, &decision, &mut handle, 0.0);

    let plan = FaultPlan {
        events: vec![FaultEvent {
            device: 0,
            at_s: 0.5,
            kind: FaultKind::Crash { recover_s: None },
        }],
        policy: RetryPolicy { max_retries: 4, retry_backoff_s: 0.05, ..RetryPolicy::none() },
    };
    let fleet = FleetConfig { devices: 2, routing: Routing::LeastLoaded };
    run_fleet_with_faults_traced(
        sim,
        dataset,
        &ArrivalProcess::Poisson { qps: 8.0 },
        cfg,
        fleet,
        &plan,
        sink.clone(),
    )
    .expect("valid plan");

    cli.write_trace(&sink.borrow());
}

fn main() {
    let (cli, _) = BenchCli::parse();
    let seed = cli.seed_or(9);
    let platform = Platform::get(PlatformId::Iphone);
    let sim = InferenceSim::new(platform).expect("default model fits");
    let n = if cli.smoke { 24 } else { 96 };
    let dataset = Dataset::code_autocompletion_like(42, n);
    let strategy = Strategy::FacilDynamic;
    if !cli.json {
        println!(
            "platform: {} | dataset: {} ({} queries) | sweeps 2-3: {strategy}",
            PlatformId::Iphone,
            dataset.name,
            dataset.queries.len(),
        );
    }
    let mut runs = 0u64;
    let mut peak_goodput = 0.0f64;

    // -- 1. Continuous batching vs FCFS across strategies and rates --------
    let rates: &[f64] = if cli.smoke { &[0.5, 8.0] } else { &[0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0] };
    let mut rows = Vec::new();
    for s in [Strategy::HybridStatic, Strategy::HybridDynamic, strategy] {
        for &qps in rates {
            let fcfs = serve(&sim, s, &dataset, ServingConfig { arrival_qps: qps, seed });
            let cfg = ServeConfig {
                strategy: s,
                seed,
                queue_cap: 1 << 20,
                fmfi: 0.0,
                ..ServeConfig::default()
            };
            let arrival = ArrivalProcess::Poisson { qps };
            let cb = run_fleet(&sim, &dataset, &arrival, cfg, FleetConfig::default())
                .expect("serving run with a valid config");
            let mut w = JsonWriter::with_capacity(256);
            w.begin_object()
                .field_num("ttft_p50_ms", fcfs.ttft_p50_ms)
                .field_num("ttft_p95_ms", fcfs.ttft_p95_ms)
                .field_num("ttlt_p50_ms", fcfs.ttlt_p50_ms)
                .field_num("utilization", fcfs.utilization)
                .field_uint("queue_peak", fcfs.queue_peak as u64)
                .end_object();
            let (name, fcfs_json) = (escaped(&s.to_string()), w.finish());
            let params = [("strategy", name.as_str()), ("qps", &number(qps)), ("fcfs", &fcfs_json)];
            emit_run(&cli, "cb_vs_fcfs", &params, &cb.to_json());
            runs += 1;
            peak_goodput = peak_goodput.max(cb.goodput_qps);
            rows.push(vec![
                s.to_string(),
                format!("{qps:.1}"),
                format!("{:.0}", fcfs.ttft_p50_ms),
                format!("{:.0}", fcfs.ttft_p95_ms),
                format!("{:.0}", cb.ttft_ms.p50),
                format!("{:.0}", cb.ttft_ms.p95),
                format!("{:.2}", cb.goodput_qps),
                format!("{:.1}", cb.tbt_ms.p95),
                format!("{:.0}%", cb.utilization * 100.0),
                format!("{:.1}", cb.devices[0].mean_batch),
                cb.devices[0].queue_peak.to_string(),
            ]);
        }
    }
    if !cli.json {
        print_table(
            "1. Continuous batching vs FCFS (unbounded queue, one device)",
            &[
                "strategy",
                "arrivals/s",
                "FCFS TTFT p50 (ms)",
                "FCFS TTFT p95 (ms)",
                "CB TTFT p50 (ms)",
                "CB TTFT p95 (ms)",
                "CB goodput/s",
                "CB TBT p95 (ms)",
                "util",
                "mean batch",
                "queue peak",
            ],
            &rows,
        );
    }

    // -- 2. Admission control past saturation ------------------------------
    let caps: &[(&str, usize)] = if cli.smoke {
        &[("8", 8), ("unbounded", 1 << 20)]
    } else {
        &[("8", 8), ("16", 16), ("64", 64), ("unbounded", 1 << 20)]
    };
    let mut rows = Vec::new();
    for &(label, queue_cap) in caps {
        let cfg = ServeConfig { strategy, seed, queue_cap, fmfi: 0.0, ..ServeConfig::default() };
        let arrival = ArrivalProcess::Poisson { qps: 64.0 };
        let r = run_fleet(&sim, &dataset, &arrival, cfg, FleetConfig::default())
            .expect("serving run with a valid config");
        emit_run(
            &cli,
            "admission_control",
            &[("queue_cap", &escaped(label)), ("qps", "64.0")],
            &r.to_json(),
        );
        runs += 1;
        peak_goodput = peak_goodput.max(r.goodput_qps);
        rows.push(vec![
            label.to_string(),
            r.completed.to_string(),
            r.shed.to_string(),
            format!("{:.0}", r.ttft_ms.p95),
            format!("{:.2}", r.goodput_qps),
            format!("{:.0}%", r.utilization * 100.0),
        ]);
    }
    if !cli.json {
        print_table(
            "2. Admission control at 64 arrivals/s (past saturation)",
            &["queue cap", "completed", "shed", "TTFT p95 (ms)", "goodput/s", "util"],
            &rows,
        );
    }

    // -- 3. Fleet mode ------------------------------------------------------
    let fleet_sizes: &[usize] = if cli.smoke { &[1, 2] } else { &[1, 2, 4] };
    let mut rows = Vec::new();
    for &devices in fleet_sizes {
        for routing in [Routing::RoundRobin, Routing::LeastLoaded] {
            let cfg = ServeConfig { strategy, seed, fmfi: 0.0, ..ServeConfig::default() };
            let r = run_fleet(
                &sim,
                &dataset,
                &ArrivalProcess::Poisson { qps: 8.0 },
                cfg,
                FleetConfig { devices, routing },
            )
            .expect("fleet run with a valid config");
            emit_run(
                &cli,
                "fleet",
                &[
                    ("devices", &devices.to_string()),
                    ("routing", &escaped(&routing.to_string())),
                    ("qps", "8.0"),
                ],
                &r.to_json(),
            );
            runs += 1;
            peak_goodput = peak_goodput.max(r.goodput_qps);
            let utils: Vec<f64> = r.devices.iter().map(|d| d.utilization).collect();
            let min_u = utils.iter().copied().fold(f64::INFINITY, f64::min);
            let max_u = utils.iter().copied().fold(0.0f64, f64::max);
            rows.push(vec![
                devices.to_string(),
                routing.to_string(),
                r.completed.to_string(),
                r.shed.to_string(),
                format!("{:.0}", r.ttft_ms.p95),
                format!("{:.2}", r.goodput_qps),
                format!("{:.0}%-{:.0}%", min_u * 100.0, max_u * 100.0),
            ]);
        }
    }
    if !cli.json {
        print_table(
            "3. Fleet scaling at 8 arrivals/s",
            &[
                "devices",
                "routing",
                "completed",
                "shed",
                "TTFT p95 (ms)",
                "goodput/s",
                "device util",
            ],
            &rows,
        );
        println!(
            "\nFACIL's shorter prefills keep tail TTFT bounded at rates that saturate the \
             baselines, and iteration-level scheduling lifts the sustainable rate over FCFS; \
             bounding the queue keeps the served tail flat past saturation; least-loaded \
             routing evens device utilization where round-robin leaves stragglers."
        );
    }

    if cli.wants_trace() {
        let cfg = ServeConfig { strategy, seed, fmfi: 0.0, ..ServeConfig::default() };
        record_trace(&cli, &sim, &dataset, cfg);
    }

    let mut manifest = RunManifest::new("serving_v2", seed);
    manifest
        .config_str("platform", "iphone")
        .config_str("strategy", &strategy.to_string())
        .config_uint("queries", n as u64)
        .config_bool("smoke", cli.smoke);
    manifest.result_uint("runs", runs).result_num("peak_goodput_qps", peak_goodput);
    cli.emit_manifest(&manifest);
}
