//! Golden regression tests: the headline reproduction numbers recorded in
//! EXPERIMENTS.md, with tolerance bands. If a refactor or recalibration
//! moves any of these, the change is deliberate — update EXPERIMENTS.md and
//! these constants together.

use facil_bench::{
    fig02_profile, fig03_pim_speedup, fig06_relayout, fig13_ttft, fig14_ttlt, fig15_datasets,
    fig16_datasets, headline_geomeans, table3_gemm_slowdown,
};
use facil_sim::InferenceSim;
use facil_soc::{Platform, PlatformId};

fn within(actual: f64, golden: f64, tol: f64, what: &str) {
    assert!(
        (actual / golden - 1.0).abs() < tol,
        "{what}: measured {actual:.3}, golden {golden:.3} (±{:.0}%)",
        tol * 100.0
    );
}

/// Fig. 13 geomean TTFT speedups per platform (EXPERIMENTS.md).
#[test]
fn golden_fig13_geomeans() {
    let golden = [2.57, 2.50, 1.76, 2.44];
    let series = fig13_ttft(&[8, 16, 32, 64, 128]);
    for (s, g) in series.iter().zip(golden) {
        within(s.geomean, g, 0.05, &format!("fig13 {}", s.platform));
    }
}

/// Fig. 2 headline: linear (GEMV) share of Jetson decode (paper > 90%).
#[test]
fn golden_fig02_linear_share() {
    within(fig02_profile(64).linear_fraction, 0.986, 0.05, "fig2 linear share");
}

/// Fig. 6 TTFT inflation from re-layout at the shortest and longest
/// prefills (paper ~3x, amortizing with length).
#[test]
fn golden_fig06_inflation() {
    let points = fig06_relayout(&[4, 512]);
    for (p, g) in points.iter().zip([2.63, 1.39]) {
        let inflation = p.ttft_with_relayout_ms / p.ttft_ms;
        within(inflation, g, 0.05, &format!("fig6 inflation at P={}", p.prefill));
    }
}

/// Fig. 14 TTLT speedup at P64/D64 per platform (paper ~10%).
#[test]
fn golden_fig14_p64_d64() {
    let golden = [1.094, 1.073, 1.220, 1.159];
    for (s, g) in fig14_ttlt(&[(64, 64)]).iter().zip(golden) {
        within(s.points[0].1, g, 0.05, &format!("fig14 P64/D64 {}", s.platform));
    }
}

/// Table III worst GEMM slowdown per platform over P = 4, 16 and 64.
#[test]
fn golden_table3_worst_slowdowns() {
    let rows = table3_gemm_slowdown(&PlatformId::all(), &[4, 16, 64]);
    for (id, g) in PlatformId::all().into_iter().zip([0.0325, 0.0325, 0.0039, 0.0047]) {
        let worst = rows
            .iter()
            .filter(|r| r.platform == id)
            .flat_map(|r| r.slowdowns.iter().copied())
            .fold(0.0f64, f64::max);
        within(worst, g, 0.05, &format!("table3 worst slowdown {id}"));
    }
}

/// Fig. 3 headline: PIM over ideal NPU ~2.9x (paper 3.32x).
#[test]
fn golden_fig03_ratio() {
    let r = fig03_pim_speedup(64);
    within(r.speedup_vs_ideal_npu, 2.88, 0.05, "fig3 PIM vs ideal NPU");
    within(r.speedup_vs_soc, 3.85, 0.05, "fig3 PIM vs GPU");
}

/// Jetson re-layout cost ~163 ms for the Llama3-8B linear weights.
#[test]
fn golden_jetson_relayout() {
    let sim = InferenceSim::new(Platform::get(PlatformId::Jetson)).unwrap();
    within(sim.relayout_ns() / 1e6, 163.0, 0.08, "Jetson re-layout ms");
}

/// Figs. 15/16 dataset headlines (seed 42, 128 queries).
#[test]
fn golden_dataset_headlines() {
    let ttft = headline_geomeans(&fig15_datasets(42, 128));
    within(ttft[0].1, 2.75, 0.05, "fig15 alpaca-like");
    within(ttft[1].1, 3.50, 0.05, "fig15 code-autocompletion-like");
    let ttlt = headline_geomeans(&fig16_datasets(42, 128));
    within(ttlt[0].1, 1.10, 0.05, "fig16 alpaca-like");
    within(ttlt[1].1, 1.25, 0.05, "fig16 code-autocompletion-like");
}
