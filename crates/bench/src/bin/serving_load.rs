//! Serving-load extension experiment: TTFT percentiles under a Poisson
//! query stream, per strategy and arrival rate — how much interactive load
//! each strategy sustains before responsiveness collapses.
//!
//! Each (strategy, rate) point is served twice: by the original FCFS
//! run-to-completion scheduler (`facil_sim::serving::serve`, kept as the
//! comparison baseline) and by the continuous-batching simulator (a
//! one-device `facil_serve::run_fleet`, unbounded queue so the comparison
//! is pure scheduling). Pass `--json` to emit one JSON object per point
//! instead of the table.

use facil_bench::{print_table, BenchCli};
use facil_serve::{run_fleet, FleetConfig, ServeConfig};
use facil_sim::{serve, InferenceSim, ServingConfig, Strategy};
use facil_soc::{Platform, PlatformId};
use facil_telemetry::{JsonWriter, RunManifest};
use facil_workloads::{ArrivalProcess, Dataset};

fn main() {
    let (cli, _) = BenchCli::parse();
    let seed = cli.seed_or(9);
    let platform = Platform::get(PlatformId::Iphone);
    let sim = InferenceSim::new(platform).expect("default model fits");
    let n = if cli.smoke { 24 } else { 96 };
    let dataset = Dataset::code_autocompletion_like(42, n);
    if !cli.json {
        println!(
            "platform: {} | dataset: {} ({} queries, geomean prefill {:.0})",
            PlatformId::Iphone,
            dataset.name,
            dataset.queries.len(),
            dataset.geomean_prefill()
        );
    }

    let rates: &[f64] = if cli.smoke { &[0.5, 2.0] } else { &[0.2, 0.5, 1.0, 2.0] };
    let mut points = 0u64;
    let mut rows = Vec::new();
    for strategy in [Strategy::HybridStatic, Strategy::HybridDynamic, Strategy::FacilDynamic] {
        for &qps in rates {
            let fcfs = serve(&sim, strategy, &dataset, ServingConfig { arrival_qps: qps, seed });
            let cfg = ServeConfig {
                strategy,
                seed,
                queue_cap: 1 << 20,
                fmfi: 0.0,
                ..ServeConfig::default()
            };
            let arrival = ArrivalProcess::Poisson { qps };
            let cb = run_fleet(&sim, &dataset, &arrival, cfg, FleetConfig::default())
                .expect("serving run with a valid config");
            points += 1;
            if cli.json {
                let mut w = JsonWriter::with_capacity(1024);
                w.begin_object()
                    .field_str("strategy", &strategy.to_string())
                    .field_num("qps", qps)
                    .key("fcfs")
                    .begin_object()
                    .field_num("ttft_p50_ms", fcfs.ttft_p50_ms)
                    .field_num("ttft_p95_ms", fcfs.ttft_p95_ms)
                    .field_num("ttlt_p50_ms", fcfs.ttlt_p50_ms)
                    .field_num("utilization", fcfs.utilization)
                    .field_uint("queue_peak", fcfs.queue_peak as u64)
                    .end_object()
                    .field_raw("serve", &cb.to_json())
                    .end_object();
                println!("{}", w.finish());
            } else {
                rows.push(vec![
                    strategy.to_string(),
                    format!("{qps:.1}"),
                    format!("{:.0}", fcfs.ttft_p50_ms),
                    format!("{:.0}", fcfs.ttft_p95_ms),
                    format!("{:.0}", cb.ttft_ms.p50),
                    format!("{:.0}", cb.ttft_ms.p95),
                    format!("{:.0}%", cb.utilization * 100.0),
                    cb.devices[0].queue_peak.to_string(),
                ]);
            }
        }
    }
    if !cli.json {
        print_table(
            "Serving load: TTFT under Poisson arrivals (queueing included)",
            &[
                "strategy",
                "arrivals/s",
                "FCFS p50 (ms)",
                "FCFS p95 (ms)",
                "CB p50 (ms)",
                "CB p95 (ms)",
                "CB util",
                "CB queue peak",
            ],
            &rows,
        );
        println!(
            "\nFACIL's shorter prefills keep tail TTFT bounded at rates that saturate the \
             baseline; continuous batching pushes the sustainable rate further still."
        );
    }

    let mut manifest = RunManifest::new("serving_load", seed);
    manifest
        .config_str("platform", "iphone")
        .config_uint("queries", n as u64)
        .config_bool("smoke", cli.smoke);
    manifest.result_uint("points", points);
    cli.emit_manifest(&manifest);
}
