//! Every table and figure of the paper's evaluation in one run: Figs. 2, 3,
//! 6, 13, 14, 15 and 16 and Tables I and III, each at its full sweep and
//! next to the paper's numbers. EXPERIMENTS.md analyses each deviation.
//!
//! Usage: `cargo run --release -p facil-bench --bin report`
//!
//! * `--json` — only the run manifest, no tables. Its results carry each
//!   artifact's numbers under the artifact's prefix: `fig02_`, `fig03_`,
//!   `fig06_`, `table1_`, `table3_`, `fig13_`, `fig14_`, `fig15_` and
//!   `fig16_`;
//! * `--smoke` — shrink every sweep for CI smoke runs;
//! * `--seed <n>` — dataset sampling seed of Figs. 15 and 16 (default 42).

use facil_bench::*;
use facil_soc::PlatformId;
use facil_telemetry::{pool, JsonWriter, RunManifest};

fn main() {
    let (cli, _) = BenchCli::parse();
    let seed = cli.seed_or(42);
    let (show, smoke) = (!cli.json, cli.smoke);
    let queries = if smoke { 32 } else { 128 };
    let mut m = RunManifest::new("report", seed);
    m.config_uint("queries", queries as u64).config_bool("smoke", smoke);

    fig02(&mut m, show, smoke);
    fig03(&mut m, show, smoke);
    fig06(&mut m, show, smoke);
    table1(&mut m, show, smoke);
    table3(&mut m, show, smoke);
    fig13(&mut m, show, smoke);
    fig14(&mut m, show, smoke);
    // The two dataset sweeps are independent whole-figure jobs.
    let figs = pool::par_map(&[fig15_datasets, fig16_datasets], |fig| fig(seed, queries));
    for (fig, metric, rows, paper) in [
        ("15", "TTFT", &figs[0], "2.37x (Alpaca), 2.63x (code autocompletion)"),
        ("16", "TTLT", &figs[1], "~1.20x on both datasets; ~3.55x over SoC-only"),
    ] {
        let title = format!(
            "Fig. {fig}: {metric} speedup over hybrid-static ({queries} sampled queries, \
             seed {seed})"
        );
        datasets(&mut m, show, &format!("fig{fig}"), &title, metric, rows);
        if show {
            println!("paper: {paper}");
        }
    }
    cli.emit_manifest(&m);
}

fn fig02(m: &mut RunManifest, show: bool, smoke: bool) {
    let decode = if smoke { 16 } else { 64 };
    let r = fig02_profile(decode);
    if show {
        print_table(
            &format!("Fig. 2(a): decode time breakdown (Jetson, Llama3-8B, {decode} tokens)"),
            &["component", "share"],
            &[
                vec!["linear (GEMV)".into(), format!("{:.1}%", r.linear_fraction * 100.0)],
                vec!["attention".into(), format!("{:.1}%", r.attention_fraction * 100.0)],
                vec!["other".into(), format!("{:.1}%", r.other_fraction * 100.0)],
            ],
        );
        let rows: Vec<Vec<String>> = r
            .utils
            .iter()
            .map(|u| {
                vec![
                    u.name.into(),
                    format!("{:.2}%", u.compute_util * 100.0),
                    format!("{:.1}%", u.memory_util * 100.0),
                ]
            })
            .collect();
        print_table(
            "Fig. 2(b): GEMV compute / memory utilization",
            &["dimension", "compute util", "memory BW util"],
            &rows,
        );
        println!("\npaper: linear (GEMV) > 90% of decode time; GEMV compute util < 1%");
    }
    m.result_num("fig02_linear_fraction", r.linear_fraction)
        .result_num("fig02_attention_fraction", r.attention_fraction)
        .result_num("fig02_other_fraction", r.other_fraction);
    if let Some(u) = r.utils.first() {
        m.result_num("fig02_gemv_compute_util", u.compute_util);
        m.result_num("fig02_gemv_memory_util", u.memory_util);
    }
}

fn fig03(m: &mut RunManifest, show: bool, smoke: bool) {
    let tokens = if smoke { 16 } else { 64 };
    let r = fig03_pim_speedup(tokens);
    if show {
        print_table(
            &format!("Fig. 3: decode of {tokens} tokens (in=out={tokens}) on Jetson, Llama3-8B"),
            &["executor", "time (ms)", "speedup vs GPU"],
            &[
                vec!["GPU (SoC)".into(), format!("{:.1}", r.soc_ms), "1.00x".into()],
                vec![
                    "ideal NPU".into(),
                    format!("{:.1}", r.ideal_npu_ms),
                    format!("{:.2}x", r.soc_ms / r.ideal_npu_ms),
                ],
                vec!["PIM".into(), format!("{:.1}", r.pim_ms), format!("{:.2}x", r.speedup_vs_soc)],
            ],
        );
        println!("\nPIM speedup over ideal NPU: {:.2}x  (paper: 3.32x)", r.speedup_vs_ideal_npu);
    }
    m.result_num("fig03_soc_ms", r.soc_ms)
        .result_num("fig03_ideal_npu_ms", r.ideal_npu_ms)
        .result_num("fig03_pim_ms", r.pim_ms)
        .result_num("fig03_speedup_vs_soc", r.speedup_vs_soc)
        .result_num("fig03_speedup_vs_ideal_npu", r.speedup_vs_ideal_npu);
}

fn fig06(m: &mut RunManifest, show: bool, smoke: bool) {
    let prefills: &[u64] = if smoke { &[4, 64, 512] } else { &[4, 8, 16, 32, 64, 128, 256, 512] };
    let points = fig06_relayout(prefills);
    if show {
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.prefill.to_string(),
                    format!("{:.0}", p.ttft_ms),
                    format!("{:.0}", p.ttft_with_relayout_ms),
                    format!("{:.2}x", p.ttft_with_relayout_ms / p.ttft_ms),
                ]
            })
            .collect();
        print_table(
            "Fig. 6: TTFT with/without re-layout (Jetson, Llama3-8B)",
            &["prefill", "TTFT (ms)", "TTFT + re-layout (ms)", "inflation"],
            &rows,
        );
        println!("\npaper: ~100 ms -> ~300 ms (about 3x) around P=64");
    }
    let mut w = JsonWriter::with_capacity(512);
    w.begin_array();
    for p in &points {
        w.begin_object()
            .field_uint("prefill", p.prefill)
            .field_num("ttft_ms", p.ttft_ms)
            .field_num("ttft_with_relayout_ms", p.ttft_with_relayout_ms)
            .end_object();
    }
    w.end_array();
    let max_inflation =
        points.iter().map(|p| p.ttft_with_relayout_ms / p.ttft_ms).fold(0.0f64, f64::max);
    m.result_raw("fig06_points", &w.finish()).result_num("fig06_max_inflation", max_inflation);
}

fn table1(m: &mut RunManifest, show: bool, smoke: bool) {
    let ratios: &[f64] = if smoke { &[2.5, 1.1] } else { &[2.5, 2.0, 1.5, 1.1] };
    let fmfis: &[f64] = if smoke { &[0.05, 0.75] } else { &[0.05, 0.45, 0.75] };
    let cells = table1_hugepage(ratios, fmfis);
    if show {
        let rows: Vec<Vec<String>> = fmfis
            .iter()
            .zip(cells.chunks(ratios.len()))
            .map(|(fmfi, row)| {
                let mut v = vec![format!("FMFI ~{fmfi:.2}")];
                v.extend(row.iter().map(|c| format!("{:.2}s ({:.2}x)", c.load_s, c.normalized)));
                v
            })
            .collect();
        let mut headers = vec![String::new()];
        headers.extend(ratios.iter().map(|r| format!("free={r}x")));
        print_table(
            "Table I: Llama3-8B (16.2 GB) load time into 2 MB huge pages, 64 GB system",
            &headers,
            &rows,
        );
        println!("\npaper: 10.24s (1.16x) best case .. 16.72s (1.90x) worst case");
    }
    let mut w = JsonWriter::with_capacity(512);
    w.begin_array();
    for c in &cells {
        w.begin_object()
            .field_num("free_ratio", c.free_ratio)
            .field_num("fmfi", c.fmfi)
            .field_num("load_s", c.load_s)
            .field_num("normalized", c.normalized)
            .end_object();
    }
    w.end_array();
    let best = cells.iter().map(|c| c.load_s).fold(f64::INFINITY, f64::min);
    let worst = cells.iter().map(|c| c.load_s).fold(0.0f64, f64::max);
    m.result_raw("table1_cells", &w.finish())
        .result_num("table1_best_load_s", best)
        .result_num("table1_worst_load_s", worst);
}

fn table3(m: &mut RunManifest, show: bool, smoke: bool) {
    let prefills: &[u64] = if smoke { &[4, 64] } else { &[4, 16, 64] };
    let rows = table3_gemm_slowdown(&PlatformId::all(), prefills);
    if show {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                let mut v = vec![r.platform.to_string(), r.group.to_string()];
                v.extend(r.slowdowns.iter().map(|s| format!("{:.2}%", s * 100.0)));
                v
            })
            .collect();
        let mut headers = vec!["platform".to_string(), "weights".to_string()];
        headers.extend(prefills.iter().map(|p| format!("P={p}")));
        print_table("Table III: GEMM slowdown on PIM-optimized layout", &headers, &table);
        println!("\npaper worst cases: Jetson 2.1%, MacBook 0.1%, IdeaPad 1.1%, iPhone 1.6%");
    }
    for id in PlatformId::all() {
        let worst = rows
            .iter()
            .filter(|r| r.platform == id)
            .flat_map(|r| r.slowdowns.iter().copied())
            .fold(0.0f64, f64::max);
        m.result_num(&format!("table3_worst_slowdown_{id}"), worst);
    }
}

fn fig13(m: &mut RunManifest, show: bool, smoke: bool) {
    let prefills: &[u64] = if smoke { &[8, 64] } else { &[8, 16, 32, 64, 128] };
    let series = fig13_ttft(prefills);
    if show {
        let rows: Vec<Vec<String>> = series
            .iter()
            .map(|s| {
                let mut v = vec![s.platform.to_string()];
                v.extend(s.points.iter().map(|(_, sp)| format!("{sp:.2}x")));
                v.push(format!("{:.2}x", s.geomean));
                v
            })
            .collect();
        let mut headers = vec!["platform".to_string()];
        headers.extend(prefills.iter().map(|p| format!("P{p}")));
        headers.push("geomean".to_string());
        print_table("Fig. 13: FACIL TTFT speedup vs hybrid-static", &headers, &rows);
        println!("\npaper geomeans: Jetson 2.89x, MacBook 2.19x, IdeaPad 1.55x, iPhone 2.36x");
    }
    for s in &series {
        m.result_num(&format!("fig13_geomean_{}", s.platform), s.geomean);
    }
}

fn fig14(m: &mut RunManifest, show: bool, smoke: bool) {
    let combos: &[(u64, u64)] = if smoke {
        &[(16, 16), (256, 256)]
    } else {
        &[(16, 16), (64, 16), (16, 64), (64, 64), (256, 64), (64, 256), (256, 256)]
    };
    let series = fig14_ttlt(combos);
    if show {
        let mut headers = vec!["platform".to_string()];
        headers.extend(combos.iter().map(|(p, d)| format!("P{p}/D{d}")));
        let rows: Vec<Vec<String>> = series
            .iter()
            .map(|s| {
                let mut v = vec![s.platform.to_string()];
                v.extend(s.points.iter().map(|(_, sp)| format!("{sp:.3}x")));
                v
            })
            .collect();
        print_table("Fig. 14: FACIL TTLT speedup vs hybrid-static", &headers, &rows);
        println!("\npaper: ~10% improvement up to decode length 64, amortized for long decodes");
    }
    for s in &series {
        let mut w = JsonWriter::with_capacity(256);
        w.begin_array();
        for ((p, d), sp) in &s.points {
            w.begin_object()
                .field_uint("prefill", *p)
                .field_uint("decode", *d)
                .field_num("speedup", *sp)
                .end_object();
        }
        w.end_array();
        m.result_raw(&format!("fig14_{}", s.platform), &w.finish());
    }
}

/// Figs. 15 and 16: one row per platform and dataset, then the FACIL
/// geomean per dataset, recorded under `<fig>_geomean_<dataset>`.
fn datasets(
    m: &mut RunManifest,
    show: bool,
    fig: &str,
    title: &str,
    metric: &str,
    rows: &[DatasetFigRow],
) {
    if show {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.platform.to_string(),
                    r.dataset.clone(),
                    format!("{:.2}x", r.soc_only),
                    "1.00x".into(),
                    format!("{:.2}x", r.hybrid_dynamic),
                    format!("{:.2}x", r.facil),
                ]
            })
            .collect();
        print_table(
            title,
            &["platform", "dataset", "SoC-only", "hybrid-static", "hybrid-dynamic", "FACIL"],
            &table,
        );
    }
    for (name, g) in headline_geomeans(rows) {
        if show {
            println!("FACIL {metric} geomean on {name}: {g:.2}x");
        }
        m.result_num(&format!("{fig}_geomean_{name}"), g);
    }
}
