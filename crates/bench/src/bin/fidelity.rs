//! Functional-fidelity regenerator: bit-exact replay of the all-bank PIM
//! command stream, plus end-to-end FACIL-vs-conventional token equivalence.
//!
//! For every paper platform (Table III) the binary places a set of linear
//! shapes at every matrix-legal MapID, executes the traced command sequence
//! with the functional interpreter ([`facil_fidelity::replay_gemv`]) over a
//! bank-sliced cell store, and cross-checks the output bit for bit against
//! the `pim_gemv` reference — the JSON carries the mismatch counts, which CI
//! requires to be zero. It then decodes the seeded `tiny-fidelity` model
//! by the PIM replay over its FACIL-mapped cells and by the SoC's
//! fixed-order GEMV over the same row-major fp16 weights, and asserts
//! identical logits per token.
//!
//! Usage: `cargo run --release -p facil-bench --bin fidelity`
//!
//! * `--json` — one tagged JSONL line per platform plus one token-equivalence
//!   line and the run manifest, no tables;
//! * `--smoke` — iPhone only, MapIDs 0-1, two decode steps;
//! * `--seed <n>` — weight/input seed (default `9`, chosen so the greedy
//!   token stream is not a fixed point).
//!
//! The full `--json` output is committed as `BENCH_fidelity.json`. Every
//! JSON field is deterministic (counts, mismatches, tokens); measured
//! replay throughput depends on the host and is reported on stderr only.

use std::time::Instant;

use facil_bench::{emit_run, print_table, BenchCli};
use facil_core::{decision_with_map_id, DType, FacilSystem, MatrixConfig, HUGE_PAGE_BITS};
use facil_fidelity::{cross_check, token_equivalence, BankedMemory, FidelityReport};
use facil_llm::ModelConfig;
use facil_pim::store_matrix;
use facil_soc::{Platform, PlatformId};
use facil_telemetry::{json, JsonWriter, RunManifest};

/// Linear shapes replayed on every platform: an attention projection, an
/// FFN block (wide enough to partition on narrow buses), and a skinny head.
const SHAPES: [(&str, u64, u64); 3] =
    [("attn-proj", 64, 2048), ("ffn-block", 32, 4096), ("vocab-head", 128, 1024)];

fn grid(i: u64) -> f32 {
    ((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % 15) as f32 * 0.0625 - 0.4375
}

fn slug(id: PlatformId) -> &'static str {
    match id {
        PlatformId::Jetson => "jetson",
        PlatformId::Macbook => "macbook",
        PlatformId::Ideapad => "ideapad",
        PlatformId::Iphone => "iphone",
    }
}

struct ShapeRun {
    shape: &'static str,
    rows: u64,
    cols: u64,
    map_id: u8,
    report: FidelityReport,
    mac_ops: u64,
    elapsed_s: f64,
}

/// Replay every shape at every matrix-legal MapID on one platform.
fn run_platform(
    platform: &Platform,
    max_map_id: u8,
    seed: u64,
) -> facil_core::Result<Vec<ShapeRun>> {
    let spec = &platform.dram;
    let arch = platform.pim_arch;
    let topo = spec.topology;
    let chunk_elems = arch.chunk_row_bytes / 2;
    let mut runs = Vec::new();
    for (shape, rows, cols) in SHAPES {
        let m = MatrixConfig::new(rows, cols, DType::F16);
        let chunks = cols / chunk_elems;
        for map_id in 0..=max_map_id {
            // Over-wide MapIDs (more segments than the row has chunks) are
            // matrix-illegal; MapIDs beyond the page's row bits are
            // topology-illegal. Both are skipped, not failures.
            if (1u64 << map_id) > chunks {
                continue;
            }
            let Ok(d) = decision_with_map_id(&m, topo, &arch, map_id, HUGE_PAGE_BITS) else {
                continue;
            };
            let mut sys = FacilSystem::new(spec.clone(), arch);
            let alloc = sys.pimalloc_with(m, d)?;
            let mut mem = BankedMemory::new(topo);
            let w: Vec<f32> = (0..rows * cols).map(|i| grid(i ^ seed)).collect();
            store_matrix(&mut mem, &sys, &alloc, &w)?;
            let x: Vec<f32> = (0..cols).map(|i| grid(i ^ seed ^ 0xC0FFEE)).collect();
            let start = Instant::now();
            let report = cross_check(&mem, &sys, &alloc, &x)?;
            let elapsed_s = start.elapsed().as_secs_f64();
            runs.push(ShapeRun {
                shape,
                rows,
                cols,
                map_id,
                report,
                mac_ops: rows * cols,
                elapsed_s,
            });
        }
    }
    Ok(runs)
}

fn platform_json(platform: &str, runs: &[ShapeRun]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object().field_str("platform", platform);
    w.field_uint(
        "mismatches",
        runs.iter().map(|r| r.report.f32_mismatches + r.report.f16_mismatches).sum(),
    );
    w.key("shapes").begin_array();
    for r in runs {
        w.begin_object()
            .field_str("shape", r.shape)
            .field_uint("rows", r.rows)
            .field_uint("cols", r.cols)
            .field_uint("map_id", u64::from(r.map_id))
            .field_uint("partitions", r.report.partitions)
            .field_uint("waves", r.report.waves)
            .field_uint("commands", r.report.commands)
            .field_uint("mac_ops", r.mac_ops)
            .field_uint("f32_mismatches", r.report.f32_mismatches)
            .field_uint("f16_mismatches", r.report.f16_mismatches)
            .end_object();
    }
    w.end_array().end_object();
    w.finish()
}

fn tokens_json(report: &facil_fidelity::TokenEquivalenceReport) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("model", &report.model)
        .field_uint("steps", report.steps)
        .field_uint("logit_mismatches", report.logit_mismatches)
        .field_bool("equivalent", report.equivalent);
    for (key, tokens) in [
        ("facil_tokens", &report.facil_tokens),
        ("conventional_tokens", &report.conventional_tokens),
    ] {
        w.key(key).begin_array();
        for t in tokens {
            w.uint(*t);
        }
        w.end_array();
    }
    w.end_object();
    w.finish()
}

fn main() {
    let (cli, rest) = BenchCli::parse();
    if let Some(unknown) = rest.first() {
        eprintln!("unknown argument: {unknown}");
        std::process::exit(2);
    }
    let seed = cli.seed_or(9);
    let (platforms, max_map_id, steps) = if cli.smoke {
        (vec![PlatformId::Iphone], 1u8, 2u64)
    } else {
        (PlatformId::all().to_vec(), 3u8, 4u64)
    };

    let mut mismatch_total = 0u64;
    let mut commands_total = 0u64;
    let mut replays_total = 0u64;
    for id in &platforms {
        let platform = Platform::get(*id);
        let runs = match run_platform(&platform, max_map_id, seed) {
            Ok(runs) => runs,
            Err(e) => {
                eprintln!("fidelity failed on {id}: {e}");
                std::process::exit(1);
            }
        };
        let name = slug(*id);
        mismatch_total +=
            runs.iter().map(|r| r.report.f32_mismatches + r.report.f16_mismatches).sum::<u64>();
        commands_total += runs.iter().map(|r| r.report.commands).sum::<u64>();
        replays_total += runs.len() as u64;
        let macs: u64 = runs.iter().map(|r| r.mac_ops).sum();
        let secs: f64 = runs.iter().map(|r| r.elapsed_s).sum();
        eprintln!(
            "{name}: {} replays, {macs} MACs in {secs:.3}s ({:.1} MMAC/s functional)",
            runs.len(),
            macs as f64 / secs.max(1e-9) / 1e6
        );
        emit_run(
            &cli,
            "fidelity",
            &[("platform", &json::escaped(name))],
            &platform_json(name, &runs),
        );
        if !cli.json {
            let rows: Vec<Vec<String>> = runs
                .iter()
                .map(|r| {
                    vec![
                        r.shape.to_string(),
                        format!("{}x{}", r.rows, r.cols),
                        r.map_id.to_string(),
                        r.report.partitions.to_string(),
                        r.report.waves.to_string(),
                        r.report.commands.to_string(),
                        format!("{}/{}", r.report.f32_mismatches, r.report.f16_mismatches),
                        format!("{:.1}", r.mac_ops as f64 / r.elapsed_s.max(1e-9) / 1e6),
                    ]
                })
                .collect();
            print_table(
                &format!("fidelity — {name}"),
                &["shape", "matrix", "MapID", "parts", "waves", "cmds", "mism f32/f16", "MMAC/s"],
                &rows,
            );
        }
    }

    // End-to-end token equivalence on the iPhone-class spec (present in both
    // smoke and full runs).
    let spec = Platform::get(PlatformId::Iphone).dram.clone();
    let model = ModelConfig::tiny_fidelity();
    let tokens = match token_equivalence(&spec, &model, steps, seed) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("token equivalence failed: {e}");
            std::process::exit(1);
        }
    };
    emit_run(&cli, "fidelity_tokens", &[], &tokens_json(&tokens));
    if !cli.json {
        print_table(
            "token equivalence — FACIL PIM replay vs conventional SoC",
            &["model", "steps", "tokens", "logit mism", "equivalent"],
            &[vec![
                tokens.model.clone(),
                tokens.steps.to_string(),
                tokens.facil_tokens.iter().map(u64::to_string).collect::<Vec<_>>().join(" "),
                tokens.logit_mismatches.to_string(),
                tokens.equivalent.to_string(),
            ]],
        );
    }

    if mismatch_total > 0 || !tokens.equivalent {
        eprintln!(
            "fidelity violated: {mismatch_total} replay mismatches, equivalent={}",
            tokens.equivalent
        );
        std::process::exit(1);
    }

    let mut manifest = RunManifest::new("fidelity", seed);
    manifest
        .config_uint("platforms", platforms.len() as u64)
        .config_uint("max_map_id", u64::from(max_map_id))
        .config_uint("steps", steps)
        .config_bool("smoke", cli.smoke);
    manifest
        .result_uint("replays", replays_total)
        .result_uint("commands", commands_total)
        .result_uint("mismatches", mismatch_total)
        .result_uint("token_steps", tokens.steps)
        .result_uint("token_equivalent", u64::from(tokens.equivalent));
    cli.emit_manifest(&manifest);
}
