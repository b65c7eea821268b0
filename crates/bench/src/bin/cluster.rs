//! Cluster-scale serving showcase: hierarchical cells, two-tier routing,
//! tenant QoS, and chaos testing in the `facil-cluster` simulator, as
//! reproducible experiments.
//!
//! 1. **Chaos matrix** — the same diurnal multi-day workload on the same
//!    cluster under escalating fault models: chaos-free baseline, a
//!    hand-scripted correlated scenario (cell outage + partition +
//!    link-delay spike), and a fully seeded chaos schedule. Availability
//!    degrades; the conservation invariant never does.
//! 2. **Tenant QoS** — an interactive class and a KV-quota'd batch class
//!    sharing the cluster: the router sheds the batch overflow explicitly
//!    and keeps the interactive class whole.
//! 3. **SLO-burn autoscaling** — a peak day followed by a quiet day: the
//!    p99-TTFT burn grows the hot cell, the idle cool-down shrinks it
//!    back.
//!
//! Pass `--json` to emit one tagged JSON object per run (JSONL) instead
//! of the tables; `--smoke` shrinks every experiment for CI;
//! `--trace <path>` writes a Chrome/Perfetto trace of the correlated
//! chaos scenario (router dispatch/park/shed instants and per-cell
//! failover/hedge events alongside the device serve tracks).
//!
//! Everything here is deterministic end to end — queries come from the
//! workspace's own `XorShift64Star` and arrivals from closed-form diurnal
//! traces, so repeated runs (at any `FACIL_THREADS`) emit byte-identical
//! JSONL. Each JSON report keeps the cluster summary, tenant rollups,
//! router sheds and per-cell summaries; the per-cell `devices`,
//! `requests` and `sheds` arrays give way to `report_fnv1a`, an FNV-1a
//! digest of the full `ClusterReport::to_json()`, so byte-identity is
//! still checked. The committed `BENCH_cluster.json` at the repo root is
//! exactly `cargo run --release -p facil-bench --bin cluster -- --json`.

use std::cell::RefCell;
use std::rc::Rc;

use facil_bench::{emit_run, print_table, BenchCli};
use facil_cluster::{
    run_cluster, run_cluster_traced, AutoscalePolicy, ChaosEvent, ChaosPlan, ChaosRates,
    ClusterConfig, ClusterReport, Tenant,
};
use facil_serve::{DeviceSim, FaultKind, ServeConfig};
use facil_sim::InferenceSim;
use facil_soc::{Platform, PlatformId};
use facil_telemetry::json::{escaped, fnv1a};
use facil_telemetry::{RingSink, RunManifest};
use facil_workloads::{ArrivalProcess, Dataset, Query, XorShift64Star};

/// `r` as this binary emits it: the full report minus the per-cell
/// `devices`, `requests` and `sheds` arrays, led by `report_fnv1a`, the
/// digest of the full `to_json()`.
fn report_json(r: &ClusterReport) -> String {
    let digest = fnv1a(r.to_json().as_bytes());
    let mut slim = r.clone();
    for c in &mut slim.cells {
        c.serve.devices.clear();
        c.serve.requests.clear();
        c.serve.sheds.clear();
    }
    let body = slim.to_json().replace(r#","devices":[],"requests":[],"sheds":[]"#, "");
    format!(r#"{{"report_fnv1a":"{digest:016x}",{}"#, &body[1..])
}

/// Deterministic query mix from the workspace RNG (no `rand` dependency,
/// so the committed artifact is stable across toolchains).
fn mixed_queries(seed: u64, n: usize) -> Dataset {
    let mut rng = XorShift64Star::new(seed ^ 0xC1A5_7E12_BE4C_51A9);
    let queries = (0..n)
        .map(|_| Query { prefill: 32 + rng.next_u64() % 224, decode: 16 + rng.next_u64() % 112 })
        .collect();
    Dataset { name: "cluster-mix".into(), queries }
}

/// One day of arrivals whose instantaneous rate follows a raised cosine
/// between `base_qps` and `peak_qps` — built by closed-form accumulation
/// (`dt = 1/rate(t)`), no sampling.
fn diurnal_day(n: usize, base_qps: f64, peak_qps: f64, day_s: f64) -> ArrivalProcess {
    let mut times = Vec::with_capacity(n);
    let mut t = 0.0;
    while times.len() < n {
        let phase = (t / day_s) * std::f64::consts::TAU;
        let rate = base_qps + (peak_qps - base_qps) * 0.5 * (1.0 - phase.cos());
        t += 1.0 / rate.max(1e-6);
        times.push(t);
    }
    ArrivalProcess::Trace { times_s: times }
}

fn conserved_or_die(label: &str, r: &ClusterReport) {
    assert!(
        r.conserved(),
        "{label}: conservation violated (offered {} != completed {} + shed {})",
        r.offered,
        r.completed,
        r.shed
    );
}

fn main() {
    let (cli, _) = BenchCli::parse();
    let seed = cli.seed_or(11);
    let platform = Platform::get(PlatformId::Iphone);
    let sim = InferenceSim::new(platform).expect("default model fits");

    // Cluster shape and workload scale.
    let (cells, devices, max_devices) = if cli.smoke { (2, 2, 3) } else { (4, 3, 4) };
    let (days, per_day, day_s) = if cli.smoke { (2, 24, 30.0) } else { (3, 120, 120.0) };
    let n = days * per_day;
    let dataset = mixed_queries(seed, n);
    // Diurnal multi-day schedule: each day is one closed-form segment,
    // composed into a single replayable trace.
    let day_shapes: Vec<(ArrivalProcess, usize)> = (0..days)
        .map(|d| {
            let peak = 2.0 + d as f64; // every day peaks a little higher
            (diurnal_day(per_day, 0.4, peak, day_s), per_day)
        })
        .collect();
    let arrival = ArrivalProcess::compose(&day_shapes, day_s, seed);
    let span_s = days as f64 * day_s;
    if !cli.json {
        println!(
            "platform: {} | {cells} cells x {devices} devices (cap {max_devices}) | {n} queries \
             over {days} diurnal days{}",
            PlatformId::Iphone,
            if cli.smoke { " (smoke)" } else { "" }
        );
    }

    let base_cfg = ClusterConfig {
        cells,
        devices_per_cell: devices,
        max_devices_per_cell: devices,
        serve: ServeConfig { seed, fmfi: 0.0, ..ServeConfig::default() },
        ..ClusterConfig::default()
    };

    // -- 1. Chaos matrix: escalating fault models ---------------------------
    let outage_at = 0.3 * day_s;
    let correlated = ChaosPlan {
        events: vec![
            ChaosEvent::CellOutage { cell: 0, at_s: outage_at, duration_s: 0.25 * day_s },
            ChaosEvent::Partition { cell: 1, at_s: 0.5 * day_s, duration_s: 0.15 * day_s },
            ChaosEvent::LinkDelay {
                cell: cells - 1,
                at_s: 0.1 * day_s,
                duration_s: 0.2 * day_s,
                extra_s: 0.3,
            },
            ChaosEvent::Device {
                device: base_cfg.global_index(cells - 1, 0),
                at_s: day_s,
                kind: FaultKind::Slow { duration_s: 0.5 * day_s, factor: 4.0 },
            },
        ],
        ..ChaosPlan::none()
    };
    let storm_rates = ChaosRates {
        cell_outages_per_h: 30.0,
        partitions_per_h: 60.0,
        link_delays_per_h: 120.0,
        gray_failures_per_h: 60.0,
        crashes_per_h: 120.0,
    };
    let seeded = ChaosPlan::seeded(seed, &base_cfg, span_s, &storm_rates);
    let mut rows = Vec::new();
    let mut matrix_availability = Vec::new();
    for (label, plan) in [
        ("chaos-free", ChaosPlan::none()),
        ("correlated", correlated.clone()),
        ("seeded-storm", seeded),
    ] {
        let r = run_cluster(&sim, &dataset, &arrival, &base_cfg, &plan).expect("valid plan");
        conserved_or_die(label, &r);
        emit_run(
            &cli,
            "chaos_matrix",
            &[("scenario", &escaped(label)), ("events", &plan.events.len().to_string())],
            &report_json(&r),
        );
        matrix_availability.push((label, r.availability));
        rows.push(vec![
            label.to_string(),
            plan.events.len().to_string(),
            r.completed.to_string(),
            r.shed.to_string(),
            r.failovers.to_string(),
            r.hedges.to_string(),
            r.deferrals.to_string(),
            format!("{:.4}", r.availability),
            format!("{:.0}", r.ttft_ms.p99),
        ]);
    }
    if !cli.json {
        print_table(
            "1. Chaos matrix: one workload, escalating fault models (nothing silently lost)",
            &[
                "scenario",
                "events",
                "completed",
                "shed",
                "failovers",
                "hedges",
                "deferrals",
                "availability",
                "TTFT p99 (ms)",
            ],
            &rows,
        );
    }

    // The correlated scenario again, traced: router and per-cell tracks
    // alongside the per-device serve tracks.
    if cli.wants_trace() {
        let sink = Rc::new(RefCell::new(RingSink::new(1 << 20)));
        run_cluster_traced(&sim, &dataset, &arrival, &base_cfg, &correlated, sink.clone())
            .expect("valid plan");
        cli.write_trace(&sink.borrow());
    }

    // -- 2. Tenant QoS: interactive vs KV-quota'd batch ---------------------
    // The quota is sized to two typical outstanding batch requests, so
    // bursts overflow it visibly without starving the class completely.
    let probe = DeviceSim::new(&sim, 0, base_cfg.serve);
    let quota = 2 * probe.kv_bytes_needed(&Query { prefill: 144, decode: 72 });
    let quota_cfg = ClusterConfig {
        tenants: vec![
            Tenant { name: "interactive".into(), priority: 0, kv_quota_bytes: 0, share: 1.0 },
            Tenant { name: "batch".into(), priority: 2, kv_quota_bytes: quota, share: 1.0 },
        ],
        ..base_cfg.clone()
    };
    let r =
        run_cluster(&sim, &dataset, &arrival, &quota_cfg, &ChaosPlan::none()).expect("valid plan");
    conserved_or_die("tenant_qos", &r);
    let quota_sheds = r.shed_quota;
    emit_run(
        &cli,
        "tenant_qos",
        &[("tenants", "2"), ("quota_mib", &(quota >> 20).to_string())],
        &report_json(&r),
    );
    if !cli.json {
        let rows: Vec<Vec<String>> = r
            .tenants
            .iter()
            .map(|t| {
                vec![
                    t.name.clone(),
                    t.priority.to_string(),
                    t.offered.to_string(),
                    t.completed.to_string(),
                    t.shed.to_string(),
                    format!("{:.0}", t.ttft_ms.p95),
                ]
            })
            .collect();
        print_table(
            &format!(
                "2. Tenant QoS: {} MiB batch KV quota (interactive class untouched)",
                quota >> 20
            ),
            &["tenant", "priority", "offered", "completed", "shed", "TTFT p95 (ms)"],
            &rows,
        );
    }

    // -- 3. SLO-burn autoscaling: peak day then quiet day -------------------
    // One initial device per cell with headroom: the peak day burns the
    // p99-TTFT SLO and grows the hot cells, the quiet day cools them back.
    let scale_cfg = ClusterConfig {
        devices_per_cell: 1,
        max_devices_per_cell: max_devices,
        autoscale: Some(AutoscalePolicy {
            slo_ttft_ms: 800.0,
            window_s: 0.2 * day_s,
            interval_s: 0.05 * day_s,
            burn_streak: 2,
            cool_streak: 4,
            warmup_s: 0.02 * day_s,
        }),
        ..base_cfg.clone()
    };
    // Peak well above the one-device-per-cell capacity (~2 qps/device), so
    // queueing drives window p99 past the SLO while arrivals still tick.
    let surge_peak_qps = 5.0 * cells as f64;
    let surge: Vec<(ArrivalProcess, usize)> = vec![
        (diurnal_day(per_day * 2, 1.0, surge_peak_qps, day_s), per_day * 2),
        (diurnal_day(per_day / 2, 0.2, 0.5, day_s), per_day / 2),
    ];
    let surge_n = per_day * 2 + per_day / 2;
    let surge_dataset = mixed_queries(seed ^ 0xA5, surge_n);
    let surge_arrival = ArrivalProcess::compose(&surge, day_s, seed);
    let r = run_cluster(&sim, &surge_dataset, &surge_arrival, &scale_cfg, &ChaosPlan::none())
        .expect("valid plan");
    conserved_or_die("autoscale", &r);
    let (scale_outs, scale_ins, devices_final) = (r.scale_outs, r.scale_ins, r.devices_final);
    emit_run(
        &cli,
        "autoscale",
        &[("slo_ttft_ms", "800"), ("max_devices", &max_devices.to_string())],
        &report_json(&r),
    );
    if !cli.json {
        print_table(
            "3. SLO-burn autoscaling: surge day then quiet day",
            &["initial", "final", "scale-outs", "scale-ins", "completed", "shed", "TTFT p99 (ms)"],
            &[vec![
                r.devices_initial.to_string(),
                r.devices_final.to_string(),
                r.scale_outs.to_string(),
                r.scale_ins.to_string(),
                r.completed.to_string(),
                r.shed.to_string(),
                format!("{:.0}", r.ttft_ms.p99),
            ]],
        );
        println!(
            "\nCorrelated cell outages fail work over to surviving cells and seeded chaos storms \
             degrade availability smoothly — with every offered request accounted for; the KV \
             quota sheds only the batch overflow; the autoscaler tracks the diurnal surge out \
             and back in."
        );
    }

    let mut manifest = RunManifest::new("cluster", seed);
    manifest
        .config_str("platform", "iphone")
        .config_uint("cells", cells as u64)
        .config_uint("devices_per_cell", devices as u64)
        .config_uint("max_devices_per_cell", max_devices as u64)
        .config_uint("queries", n as u64)
        .config_uint("days", days as u64)
        .config_bool("smoke", cli.smoke);
    for (label, a) in matrix_availability {
        manifest.result_num(&format!("availability_{label}"), a);
    }
    manifest.result_uint("quota_sheds", quota_sheds as u64);
    manifest.result_uint("scale_outs", scale_outs as u64);
    manifest.result_uint("scale_ins", scale_ins as u64);
    manifest.result_uint("devices_final", devices_final as u64);
    cli.emit_manifest(&manifest);
}
