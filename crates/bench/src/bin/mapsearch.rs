//! Mapping-search ablation: searched vs paper-selected DRAM mappings.
//!
//! For every paper platform (Table II), builds a decode-heavy
//! [`WorkloadProfile`] from the platform model's distinct linear-layer
//! shapes plus two shapes *outside* the Fig. 13 configurations (a
//! MoE-style skinny expert slice and a long-context FFN block), runs
//! [`search_workload`] over the MapID x PU-order candidate space, and
//! reports searched-vs-paper measured cycles per tensor.
//!
//! Two properties CI checks on the emitted JSON:
//!
//! * every *baseline* tensor (a shape of the platform's Fig. 13 model)
//!   retains the paper's closed-form pick — the epsilon incumbent rule at
//!   work;
//! * at least one platform/extra-shape combination displaces the paper's
//!   pick with a measured improvement above the search threshold.
//!
//! Usage: `cargo run --release -p facil-bench --bin mapsearch`
//!
//! * `--json` — one tagged JSONL line per platform (the full
//!   [`SearchReport`]) plus the run manifest, no tables;
//! * `--smoke` — iPhone + IdeaPad only, largest shapes only;
//! * `--seed <n>` — recorded in the manifest only (default 0): the search
//!   scores every candidate and draws no random numbers.
//!
//! The full (non-smoke) `--json` output is committed as
//! `BENCH_mapsearch.json`: the search is deterministic end to end (stride
//! sampling, fixed enumeration order, no RNG in scoring), so regenerating
//! it must be byte-identical.

use facil_bench::{emit_run, print_table, BenchCli};
use facil_core::{DType, MatrixConfig, HUGE_PAGE_BITS};
use facil_llm::ModelConfig;
use facil_mapsearch::{
    search_workload, SearchConfig, SearchReport, TensorSpec, WorkloadProfile, IMPROVEMENT_THRESHOLD,
};
use facil_soc::{Platform, PlatformId};
use facil_telemetry::{json, RunManifest};

/// Model shapes *not* in any Fig. 13 configuration, exercised on every
/// platform: a MoE-style expert slice too small to fill the paper-MapID
/// window, and a long-context FFN block much larger than any window.
const EXTRA_SHAPES: [(&str, u64, u64); 2] =
    [("moe-expert", 64, 4096), ("longctx-ffn", 1024, 16384)];

/// Distinct weight shapes of `model`, largest first, with per-model
/// instance counts merged (q/k/v projections of equal shape collapse into
/// one searched tensor — the mapping only depends on the shape).
fn model_tensors(model: &ModelConfig, largest_only: usize) -> Vec<TensorSpec> {
    let mut by_shape: Vec<(u64, u64, &'static str, u64)> = Vec::new();
    for (op, instances) in model.all_linears() {
        match by_shape.iter_mut().find(|(r, c, ..)| *r == op.out_features && *c == op.in_features) {
            Some(entry) => entry.3 += instances,
            None => by_shape.push((op.out_features, op.in_features, op.name, instances)),
        }
    }
    by_shape.sort_by_key(|&(r, c, ..)| std::cmp::Reverse(r * c));
    by_shape.truncate(largest_only);
    by_shape
        .into_iter()
        .map(|(rows, cols, name, instances)| {
            TensorSpec::new(name, MatrixConfig::new(rows, cols, DType::F16))
                .with_instances(instances)
        })
        .collect()
}

fn platform_profile(platform: &Platform, smoke: bool) -> WorkloadProfile {
    let model = ModelConfig::by_name(platform.model_name);
    let mut tensors = model_tensors(&model, if smoke { 2 } else { usize::MAX });
    for (name, rows, cols) in EXTRA_SHAPES {
        tensors.push(TensorSpec::new(name, MatrixConfig::new(rows, cols, DType::F16)));
    }
    // Decode-heavy autoregressive mix: mostly GEMV weight streaming with a
    // prefill GEMM share (deterministic — no dataset sampling).
    WorkloadProfile::decode_only(format!("{}-decode", model.name), tensors).with_mix(0.9, 0.1)
}

/// Short machine-readable platform label for JSON fields and manifest
/// keys (the `Display` names carry spaces and parens).
fn slug(id: PlatformId) -> &'static str {
    match id {
        PlatformId::Jetson => "jetson",
        PlatformId::Macbook => "macbook",
        PlatformId::Ideapad => "ideapad",
        PlatformId::Iphone => "iphone",
    }
}

fn run_platform(
    platform: &Platform,
    config: &SearchConfig,
    smoke: bool,
) -> facil_core::Result<SearchReport> {
    let profile = platform_profile(platform, smoke);
    let results = search_workload(&platform.dram, &platform.pim_arch, &profile, config)?;
    SearchReport::new(
        slug(platform.id),
        &profile.name,
        platform.dram.topology,
        platform.pim_arch,
        results,
    )
}

fn main() {
    let (cli, rest) = BenchCli::parse();
    if let Some(unknown) = rest.first() {
        eprintln!("unknown argument: {unknown}");
        std::process::exit(2);
    }
    let seed = cli.seed_or(0);
    let config = SearchConfig::default();
    let platforms: Vec<PlatformId> = if cli.smoke {
        vec![PlatformId::Iphone, PlatformId::Ideapad]
    } else {
        PlatformId::all().to_vec()
    };

    let extra: Vec<&str> = EXTRA_SHAPES.iter().map(|(n, ..)| *n).collect();
    let mut reports = Vec::new();
    for id in &platforms {
        let platform = Platform::get(*id);
        match run_platform(&platform, &config, cli.smoke) {
            Ok(report) => reports.push(report),
            Err(e) => {
                eprintln!("mapsearch failed on {id}: {e}");
                std::process::exit(1);
            }
        }
    }

    for report in &reports {
        emit_run(
            &cli,
            "mapsearch",
            &[("platform", &json::escaped(&report.platform))],
            &report.to_json(),
        );
        if !cli.json {
            let rows: Vec<Vec<String>> = report
                .results
                .iter()
                .map(|r| {
                    vec![
                        r.tensor.clone(),
                        r.matrix.to_string(),
                        r.paper.describe(&report.arch),
                        r.best.describe(&report.arch),
                        if r.displaced {
                            format!("{:.1}%", r.improvement * 100.0)
                        } else {
                            "-".into()
                        },
                        format!("{:.0}", r.paper_measured.score),
                        format!("{:.0}", r.best_measured.score),
                        format!("{}/{}", r.evaluated, r.space_size),
                    ]
                })
                .collect();
            print_table(
                &format!("mapsearch — {} ({})", report.platform, report.profile),
                &[
                    "tensor",
                    "matrix",
                    "paper pick",
                    "searched pick",
                    "gain",
                    "paper cyc",
                    "best cyc",
                    "evaluated",
                ],
                &rows,
            );
        }
    }

    // Fail loudly (independent of CI's JSON checks) if either headline
    // property broke: baseline retention or at least one searched win.
    let baseline_displaced: Vec<String> = reports
        .iter()
        .flat_map(|rep| rep.results.iter().map(move |r| (rep, r)))
        .filter(|(_, r)| r.displaced && !extra.contains(&r.tensor.as_str()))
        .map(|(rep, r)| format!("{}/{}", rep.platform, r.tensor))
        .collect();
    if !baseline_displaced.is_empty() {
        eprintln!("paper baselines displaced: {baseline_displaced:?}");
        std::process::exit(1);
    }
    let wins = reports.iter().map(SearchReport::displaced_count).sum::<usize>();
    if wins == 0 {
        eprintln!("no platform/shape combination improved on the paper's pick");
        std::process::exit(1);
    }

    let mut manifest = RunManifest::new("mapsearch", seed);
    manifest
        .config_uint("platforms", platforms.len() as u64)
        .config_uint("page_bits", u64::from(HUGE_PAGE_BITS))
        .config_num("improvement_threshold", IMPROVEMENT_THRESHOLD)
        .config_bool("smoke", cli.smoke);
    for report in &reports {
        manifest.result_uint(
            &format!("displaced_{}", report.platform),
            report.displaced_count() as u64,
        );
        manifest.result_uint(&format!("evaluated_{}", report.platform), report.evaluated_total());
    }
    manifest.result_uint("displaced_total", wins as u64);
    manifest.result_uint("baselines_reproduced", 1);
    cli.emit_manifest(&manifest);
}
