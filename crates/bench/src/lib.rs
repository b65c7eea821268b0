//! # facil-bench
//!
//! Experiment regenerators for every table and figure of the FACIL
//! (HPCA 2025) evaluation. Each `fig*`/`table*` function returns structured
//! results; the `report` binary prints them all in the paper's row/series
//! format, and the `benchmark/` crate times them end to end.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Fig. 2(a)/(b) | [`fig02_profile`] |
//! | Fig. 3 | [`fig03_pim_speedup`] |
//! | Fig. 6 | [`fig06_relayout`] |
//! | Table I | [`table1_hugepage`] |
//! | Table III | [`table3_gemm_slowdown`] |
//! | Fig. 13 | [`fig13_ttft`] |
//! | Fig. 14 | [`fig14_ttlt`] |
//! | Fig. 15 | [`fig15_datasets`] |
//! | Fig. 16 | [`fig16_datasets`] |
//!
//! The other binaries under `src/bin/` run the experiments beyond the
//! paper: `ablations`, `chaos`, `cluster`, `fidelity`, `mapsearch`,
//! `serving_v2` and `trace_replay`. Every binary shares the observability
//! flags of [`cli::BenchCli`] (`--json`, `--out`, `--seed`, `--trace`,
//! `--smoke`) and emits one schema-versioned
//! [`facil_telemetry::RunManifest`] record per run.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod ablations;
pub mod cli;

pub use cli::{emit_run, BenchCli};

use facil_core::paging::{LoadCostModel, PhysicalMemory};
use facil_core::{DType, MatrixConfig};
use facil_llm::ModelConfig;
use facil_sim::{geomean_speedup, run_dataset, InferenceSim, Strategy};
use facil_soc::{gemm_layout_slowdown, Platform, PlatformId};
use facil_telemetry::pool;
use facil_workloads::{geomean, Dataset};

/// Pretty-print a table with a header row.
pub fn print_table(title: &str, headers: &[impl AsRef<str>], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.as_ref().len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&headers.iter().map(|s| s.as_ref().to_string()).collect::<Vec<_>>()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

// ---------------------------------------------------------------------------
// Fig. 2 — decode-phase profiling on the SoC (Jetson, Llama3-8B)
// ---------------------------------------------------------------------------

/// One GEMV dimension's utilization figures (Fig. 2(b)).
#[derive(Debug, Clone)]
pub struct GemvUtilRow {
    /// Projection name.
    pub name: &'static str,
    /// Weight shape (out, in).
    pub shape: (u64, u64),
    /// Compute utilization (fraction of peak FLOPS).
    pub compute_util: f64,
    /// Memory-bandwidth utilization (fraction of peak bytes/s).
    pub memory_util: f64,
}

/// Fig. 2 result: decode-time breakdown and GEMV utilizations.
#[derive(Debug, Clone)]
pub struct Fig02Result {
    /// Fraction of decode time in linear (GEMV) operations.
    pub linear_fraction: f64,
    /// Fraction in attention (KV) traffic.
    pub attention_fraction: f64,
    /// Fraction in everything else.
    pub other_fraction: f64,
    /// Per-dimension utilizations.
    pub utils: Vec<GemvUtilRow>,
}

/// Regenerate Fig. 2: decode breakdown + GEMV utilization on the Jetson GPU
/// generating `decode` tokens after a `decode`-token prompt.
pub fn fig02_profile(decode: u64) -> Fig02Result {
    let platform = Platform::get(PlatformId::Jetson);
    let model = ModelConfig::llama3_8b();
    let soc = &platform.soc;

    let mut linear = 0.0;
    let mut attention = 0.0;
    let mut other = 0.0;
    for i in 0..decode {
        let ctx = decode + i;
        for (op, instances) in model.all_linears() {
            linear += soc.gemv_ns(op.out_features, op.in_features, 2) * instances as f64;
        }
        // Attention and element-wise work launch separate kernels per layer
        // on a real device.
        attention += soc.stream_ns(
            (model.kv_read_bytes(ctx) + model.kv_write_bytes_per_token()) / model.layers,
        ) * model.layers as f64;
        // ~4 element-wise kernels (norms, residual, activation) per layer.
        other += soc.stream_ns(model.elementwise_bytes_per_token() / model.layers / 4)
            * (model.layers * 4) as f64;
    }
    let total = linear + attention + other;

    let dims: [(&'static str, (u64, u64)); 4] = [
        ("Q/O proj (4096x4096)", (4096, 4096)),
        ("K/V proj (1024x4096)", (1024, 4096)),
        ("FC1 (14336x4096)", (14336, 4096)),
        ("FC2 (4096x14336)", (4096, 14336)),
    ];
    let utils = dims
        .into_iter()
        .map(|(name, (n, k))| GemvUtilRow {
            name,
            shape: (n, k),
            compute_util: soc.compute_utilization(1, n, k, 2),
            memory_util: soc.bandwidth_utilization(1, n, k, 2),
        })
        .collect();

    Fig02Result {
        linear_fraction: linear / total,
        attention_fraction: attention / total,
        other_fraction: other / total,
        utils,
    }
}

// ---------------------------------------------------------------------------
// Fig. 3 — potential PIM speedup on decode (Jetson, Llama3-8B)
// ---------------------------------------------------------------------------

/// Fig. 3 result: per-executor decode time and speedups.
#[derive(Debug, Clone)]
pub struct Fig03Result {
    /// SoC (GPU) decode time for the scenario, ms.
    pub soc_ms: f64,
    /// Ideal-NPU decode time, ms.
    pub ideal_npu_ms: f64,
    /// PIM-offloaded decode time, ms.
    pub pim_ms: f64,
    /// PIM speedup over the SoC.
    pub speedup_vs_soc: f64,
    /// PIM speedup over the ideal NPU (the paper's 3.32x headline).
    pub speedup_vs_ideal_npu: f64,
}

/// Regenerate Fig. 3: decode of `tokens` tokens after a `tokens`-token
/// prompt on the Jetson, with GEMVs offloaded to PIM vs the GPU vs an ideal
/// NPU.
pub fn fig03_pim_speedup(tokens: u64) -> Fig03Result {
    // Stock platforms are sized for the default model by construction; a
    // failure is a bug in the platform tables, so the regenerator panics.
    #[allow(clippy::expect_used)]
    let sim = InferenceSim::new(Platform::get(PlatformId::Jetson))
        .expect("default model fits the Jetson DRAM");
    let mut soc = 0.0;
    let mut npu = 0.0;
    let mut pim = 0.0;
    for i in 0..tokens {
        let ctx = tokens + i;
        soc += sim.decode_batch_ns(Strategy::SocOnly, false, &[ctx]);
        npu += sim.decode_step_ideal_npu_ns(ctx);
        pim += sim.decode_batch_ns(Strategy::FacilStatic, false, &[ctx]);
    }
    Fig03Result {
        soc_ms: soc / 1e6,
        ideal_npu_ms: npu / 1e6,
        pim_ms: pim / 1e6,
        speedup_vs_soc: soc / pim,
        speedup_vs_ideal_npu: npu / pim,
    }
}

// ---------------------------------------------------------------------------
// Fig. 6 — TTFT inflation from re-layout (Jetson, Llama3-8B)
// ---------------------------------------------------------------------------

/// One Fig. 6 point.
#[derive(Debug, Clone, Copy)]
pub struct Fig06Point {
    /// Input (prefill) length.
    pub prefill: u64,
    /// TTFT without re-layout (FACIL-style), ms.
    pub ttft_ms: f64,
    /// TTFT with the baseline's re-layout, ms.
    pub ttft_with_relayout_ms: f64,
}

/// Regenerate Fig. 6 on the Jetson for the given prefill lengths.
pub fn fig06_relayout(prefills: &[u64]) -> Vec<Fig06Point> {
    // Stock platforms are sized for the default model by construction.
    #[allow(clippy::expect_used)]
    let sim = InferenceSim::new(Platform::get(PlatformId::Jetson))
        .expect("default model fits the Jetson DRAM");
    prefills
        .iter()
        .map(|&p| Fig06Point {
            prefill: p,
            ttft_ms: sim.prefill_ns(Strategy::FacilStatic, p).0 / 1e6,
            ttft_with_relayout_ms: sim.prefill_ns(Strategy::HybridStatic, p).0 / 1e6,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table I — huge-page model load time vs utilization x FMFI
// ---------------------------------------------------------------------------

/// One Table I cell.
#[derive(Debug, Clone, Copy)]
pub struct Table1Cell {
    /// Free memory relative to the model size.
    pub free_ratio: f64,
    /// Free-memory fragmentation index of the prepared state.
    pub fmfi: f64,
    /// Huge-page model load time, seconds.
    pub load_s: f64,
    /// Normalized to the 4 KB-page baseline load.
    pub normalized: f64,
}

/// Regenerate Table I: load a Llama3-8B-sized model (16.2 GB) into huge
/// pages on a 64 GB system prepared at each (free-ratio, FMFI) point.
pub fn table1_hugepage(free_ratios: &[f64], fmfis: &[f64]) -> Vec<Table1Cell> {
    let total: u64 = 64 << 30;
    let model_bytes: u64 = (16.2 * 1e9) as u64;
    let cost = LoadCostModel::default();
    let baseline = cost.base_page_load_time(model_bytes);
    let pages = model_bytes.div_ceil(2 << 20);
    let mut cells = Vec::new();
    for &fmfi in fmfis {
        for &ratio in free_ratios {
            let free = ((model_bytes as f64 * ratio) as u64).min(total);
            let mut pm = PhysicalMemory::new(total);
            pm.fragment_to(total - free, fmfi);
            let achieved_fmfi = pm.fmfi();
            for _ in 0..pages {
                // Every Table I point prepares >= 1.1x the model size free,
                // so huge-page allocation cannot run out.
                #[allow(clippy::expect_used)]
                pm.alloc_huge().expect("free >= 1.1x model size");
            }
            let load = cost.huge_page_load_time(model_bytes, &pm.stats());
            cells.push(Table1Cell {
                free_ratio: ratio,
                fmfi: achieved_fmfi,
                load_s: load,
                normalized: load / baseline,
            });
        }
    }
    cells
}

// ---------------------------------------------------------------------------
// Table III — GEMM slowdown on the PIM-optimized layout
// ---------------------------------------------------------------------------

/// One Table III row: a weight group on a platform across prefill lengths.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Platform.
    pub platform: PlatformId,
    /// Weight-group label ("Q/O Proj.", "FC1", ...).
    pub group: &'static str,
    /// Slowdown per prefill length (same order as the input slice).
    pub slowdowns: Vec<f64>,
}

/// The weight groups of a platform's model, Table III style.
fn weight_groups(model: &ModelConfig) -> Vec<(&'static str, MatrixConfig)> {
    let kv = model.kv_heads * model.head_dim();
    if model.gated_ffn {
        vec![
            ("Q/O Proj.", MatrixConfig::new(model.hidden, model.hidden, DType::F16)),
            ("K/V Proj.", MatrixConfig::new(kv, model.hidden, DType::F16)),
            ("FC1", MatrixConfig::new(model.intermediate, model.hidden, DType::F16)),
            ("FC2", MatrixConfig::new(model.hidden, model.intermediate, DType::F16)),
        ]
    } else {
        vec![
            ("Q/K/V/O Proj.", MatrixConfig::new(model.hidden, model.hidden, DType::F16)),
            ("FC1", MatrixConfig::new(model.intermediate, model.hidden, DType::F16)),
            ("FC2", MatrixConfig::new(model.hidden, model.intermediate, DType::F16)),
        ]
    }
}

/// Regenerate Table III for the given platforms and prefill lengths.
pub fn table3_gemm_slowdown(platforms: &[PlatformId], prefills: &[u64]) -> Vec<Table3Row> {
    let mut rows = Vec::new();
    for &id in platforms {
        let platform = Platform::get(id);
        let model = ModelConfig::by_name(platform.model_name);
        for (group, matrix) in weight_groups(&model) {
            // Table III sweeps the paper's own weight shapes, which are
            // mappable on every stock platform by construction.
            #[allow(clippy::expect_used)]
            let slowdowns = prefills
                .iter()
                .map(|&p| {
                    gemm_layout_slowdown(&platform.dram, &platform.pim_arch, &matrix, p)
                        .expect("paper weights are mappable")
                        .slowdown
                })
                .collect();
            rows.push(Table3Row { platform: id, group, slowdowns });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Fig. 13 — TTFT speedup vs prefill length
// ---------------------------------------------------------------------------

/// Fig. 13 series for one platform.
#[derive(Debug, Clone)]
pub struct Fig13Series {
    /// Platform.
    pub platform: PlatformId,
    /// (prefill, speedup) pairs.
    pub points: Vec<(u64, f64)>,
    /// Geometric mean over the prefill sweep.
    pub geomean: f64,
}

/// Regenerate Fig. 13: FACIL TTFT speedup over the hybrid-static baseline.
/// Platforms sweep concurrently on the [`pool`] workers; the series order
/// (and every number) is identical to a serial sweep.
pub fn fig13_ttft(prefills: &[u64]) -> Vec<Fig13Series> {
    let ids = PlatformId::all();
    pool::par_map(&ids, |&id| {
        // Stock platforms are sized for the default model by construction.
        #[allow(clippy::expect_used)]
        let sim =
            InferenceSim::new(Platform::get(id)).expect("default model fits every stock platform");
        let points: Vec<(u64, f64)> = prefills
            .iter()
            .map(|&p| {
                let base = sim.prefill_ns(Strategy::HybridStatic, p).0;
                let facil = sim.prefill_ns(Strategy::FacilStatic, p).0;
                (p, base / facil)
            })
            .collect();
        let geomean = geomean(points.iter().map(|(_, s)| *s));
        Fig13Series { platform: id, points, geomean }
    })
}

// ---------------------------------------------------------------------------
// Fig. 14 — TTLT speedup vs prefill:decode ratio
// ---------------------------------------------------------------------------

/// Fig. 14 grid for one platform.
#[derive(Debug, Clone)]
pub struct Fig14Series {
    /// Platform.
    pub platform: PlatformId,
    /// ((prefill, decode), speedup) entries.
    pub points: Vec<((u64, u64), f64)>,
}

/// Regenerate Fig. 14: FACIL TTLT speedup over hybrid-static across
/// prefill/decode combinations. Platforms sweep concurrently on the
/// [`pool`] workers with serial-identical results.
pub fn fig14_ttlt(combos: &[(u64, u64)]) -> Vec<Fig14Series> {
    let ids = PlatformId::all();
    pool::par_map(&ids, |&id| {
        // Stock platforms are sized for the default model by construction.
        #[allow(clippy::expect_used)]
        let sim =
            InferenceSim::new(Platform::get(id)).expect("default model fits every stock platform");
        let points = combos
            .iter()
            .map(|&(p, d)| {
                let q = facil_workloads::Query { prefill: p, decode: d };
                let base = sim.run_query(Strategy::HybridStatic, q).ttlt_ns;
                let facil = sim.run_query(Strategy::FacilStatic, q).ttlt_ns;
                ((p, d), base / facil)
            })
            .collect();
        Fig14Series { platform: id, points }
    })
}

// ---------------------------------------------------------------------------
// Figs. 15/16 — real-world-dataset evaluation
// ---------------------------------------------------------------------------

/// One dataset x platform result: speedups of each strategy over
/// hybrid-static.
#[derive(Debug, Clone)]
pub struct DatasetFigRow {
    /// Platform.
    pub platform: PlatformId,
    /// Dataset name.
    pub dataset: String,
    /// SoC-only speedup over hybrid-static.
    pub soc_only: f64,
    /// Hybrid-dynamic speedup over hybrid-static.
    pub hybrid_dynamic: f64,
    /// FACIL (+dynamic) speedup over hybrid-static.
    pub facil: f64,
}

/// Shared implementation of Figs. 15 (TTFT) and 16 (TTLT). Platform x
/// dataset cells sweep concurrently on the [`pool`] workers; the row order
/// matches the serial nesting (platforms outer, datasets inner).
fn dataset_fig(ttft: bool, seed: u64, queries: usize) -> Vec<DatasetFigRow> {
    let per_platform = pool::par_map(&PlatformId::all(), |&id| {
        // Stock platforms are sized for the default model by construction.
        #[allow(clippy::expect_used)]
        let sim =
            InferenceSim::new(Platform::get(id)).expect("default model fits every stock platform");
        [Dataset::alpaca_like(seed, queries), Dataset::code_autocompletion_like(seed, queries)]
            .into_iter()
            .map(|dataset| {
                let base = run_dataset(&sim, Strategy::HybridStatic, &dataset);
                let soc = run_dataset(&sim, Strategy::SocOnly, &dataset);
                let dynamic = run_dataset(&sim, Strategy::HybridDynamic, &dataset);
                let facil = run_dataset(&sim, Strategy::FacilDynamic, &dataset);
                DatasetFigRow {
                    platform: id,
                    dataset: dataset.name.clone(),
                    soc_only: geomean_speedup(&base, &soc, ttft),
                    hybrid_dynamic: geomean_speedup(&base, &dynamic, ttft),
                    facil: geomean_speedup(&base, &facil, ttft),
                }
            })
            .collect::<Vec<_>>()
    });
    per_platform.into_iter().flatten().collect()
}

/// Regenerate Fig. 15 (TTFT on the two datasets).
pub fn fig15_datasets(seed: u64, queries: usize) -> Vec<DatasetFigRow> {
    dataset_fig(true, seed, queries)
}

/// Regenerate Fig. 16 (TTLT on the two datasets).
pub fn fig16_datasets(seed: u64, queries: usize) -> Vec<DatasetFigRow> {
    dataset_fig(false, seed, queries)
}

/// Geometric mean of the FACIL column over platforms, per dataset — the
/// paper's 2.37x / 2.63x (Fig. 15) and 1.20x (Fig. 16) headline numbers.
pub fn headline_geomeans(rows: &[DatasetFigRow]) -> Vec<(String, f64)> {
    let mut names: Vec<String> = rows.iter().map(|r| r.dataset.clone()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let g = geomean(rows.iter().filter(|r| r.dataset == name).map(|r| r.facil));
            (name, g)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig02_is_linear_dominated() {
        let r = fig02_profile(8);
        assert!(r.linear_fraction > 0.9, "paper: >90% linear, got {}", r.linear_fraction);
        let sum = r.linear_fraction + r.attention_fraction + r.other_fraction;
        assert!((sum - 1.0).abs() < 1e-9);
        for u in &r.utils {
            assert!(u.compute_util < 0.01, "{}: {}", u.name, u.compute_util);
            assert!(u.memory_util > 0.7, "{}: {}", u.name, u.memory_util);
        }
    }

    #[test]
    fn fig03_orders_executors() {
        let r = fig03_pim_speedup(16);
        assert!(r.pim_ms < r.ideal_npu_ms);
        assert!(r.ideal_npu_ms < r.soc_ms);
        assert!(r.speedup_vs_ideal_npu > 1.5, "got {}", r.speedup_vs_ideal_npu);
    }

    #[test]
    fn fig06_relayout_inflates_ttft_about_3x() {
        let pts = fig06_relayout(&[64]);
        let ratio = pts[0].ttft_with_relayout_ms / pts[0].ttft_ms;
        assert!((2.0..4.0).contains(&ratio), "paper: ~3x, got {ratio}");
    }

    #[test]
    fn fig13_shapes() {
        let series = fig13_ttft(&[8, 128]);
        for s in &series {
            assert!(
                s.points[0].1 >= s.points[1].1,
                "{}: speedup must not grow with prefill",
                s.platform
            );
            assert!(s.geomean > 1.2, "{}: geomean {}", s.platform, s.geomean);
        }
        // Paper: IdeaPad is the weakest platform.
        let ideapad = series.iter().find(|s| s.platform == PlatformId::Ideapad).unwrap();
        for s in &series {
            assert!(s.geomean >= ideapad.geomean - 1e-9, "IdeaPad must be lowest");
        }
    }

    #[test]
    fn table1_monotone_in_fmfi_and_pressure() {
        let cells = table1_hugepage(&[2.5, 1.1], &[0.05, 0.75]);
        let get = |ratio: f64, fmfi_lo: bool| {
            cells
                .iter()
                .find(|c| (c.free_ratio - ratio).abs() < 1e-9 && ((c.fmfi < 0.4) == fmfi_lo))
                .unwrap()
                .load_s
        };
        assert!(get(1.1, false) >= get(1.1, true));
        assert!(get(2.5, false) >= get(2.5, true));
        for c in &cells {
            assert!(c.normalized >= 1.0);
            assert!(c.normalized < 2.5, "paper worst case 1.90x, got {}", c.normalized);
        }
    }

    /// The 12 cells the `report` binary prints, pinned bit for bit: an
    /// FNV-1a digest over the little-endian bits of each cell's
    /// `(fmfi, load_s, normalized)`. Any change to the allocator's
    /// placement, compaction victims or frame counts moves it.
    #[test]
    fn table1_cells_are_pinned() {
        let cells = table1_hugepage(&[2.5, 2.0, 1.5, 1.1], &[0.05, 0.45, 0.75]);
        let bytes: Vec<u8> = cells
            .iter()
            .flat_map(|c| [c.fmfi, c.load_s, c.normalized])
            .flat_map(|x| x.to_bits().to_le_bytes())
            .collect();
        let got = facil_telemetry::json::fnv1a(&bytes);
        assert_eq!(got, 0x3f15_e715_2e03_1e59, "Table I digest moved: {got:#018x}");
    }
}
