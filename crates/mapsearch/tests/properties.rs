//! Property-based tests for the mapping search: the searched pick is
//! never worse than the paper's under the search's own cost model, and the
//! report is byte-identical regardless of worker count.

use facil_check::{cases, Gen};
use facil_core::{DType, MatrixConfig, PimArch};
use facil_dram::DramSpec;
use facil_mapsearch::{
    search_matrix, search_workload, SearchConfig, SearchReport, TensorSpec, WorkloadProfile,
    IMPROVEMENT_THRESHOLD,
};

fn spec() -> DramSpec {
    DramSpec::lpddr5_6400(64, 8 << 30) // 4 channels, iPhone-class
}

/// Random placeable matrix: power-of-two-ish shapes spanning skinny
/// slices through square blocks to tall classifier heads. Constrained by
/// row *bytes* (>= one 2 KiB chunk row) so every shape places under both
/// dtypes.
fn matrix(g: &mut Gen) -> MatrixConfig {
    let (row_exp, row_bytes_exp, row_fudge, f16) =
        (g.u32(4..=12), g.u32(11..=15), g.u64(0..3), g.bool());
    let rows = (1u64 << row_exp) + row_fudge * (1 << row_exp.saturating_sub(2));
    let (dtype, elem_log2) = if f16 { (DType::F16, 1) } else { (DType::I8, 0) };
    let cols = 1u64 << (row_bytes_exp - elem_log2);
    MatrixConfig::new(rows, cols, dtype)
}

/// The epsilon incumbent rule guarantees the searched pick is never
/// worse than the paper's under the search's own measured cost model:
/// displacement requires a measured win, retention keeps the paper's
/// candidate (and therefore its exact score).
#[test]
fn searched_never_worse_than_paper() {
    cases(12, |g| {
        let matrix = matrix(g);
        // A random GEMV/GEMM mix (both weights positive so neither term
        // vanishes).
        let (gemv, gemm) = (g.f64(0.05..1.0), g.f64(0.05..1.0));
        let spec = spec();
        let arch = PimArch::aim(&spec.topology);
        let tensor = TensorSpec::new("t", matrix);
        let profile =
            WorkloadProfile::decode_only("prop", vec![tensor.clone()]).with_mix(gemv, gemm);
        let config = SearchConfig::default();
        let r = search_matrix(&spec, &arch, &tensor, &profile, &config).unwrap();

        assert!(
            r.best_measured.score <= r.paper_measured.score,
            "searched {} must not lose to paper {}",
            r.best_measured.score,
            r.paper_measured.score
        );
        if r.displaced {
            assert!(r.improvement > IMPROVEMENT_THRESHOLD);
            assert!(r.best != r.paper);
        } else {
            assert!(r.best == r.paper, "retention must keep the paper's candidate");
            assert!(r.improvement == 0.0);
        }
        // The analytic phase also never ranks the paper's pick strictly
        // below every alternative it examined: the minimum analytic score
        // over all outcomes bounds the paper candidate's analytic score.
        let paper_analytic =
            r.outcomes.iter().find(|o| o.candidate == r.paper).map(|o| o.analytic.score).unwrap();
        let min_analytic =
            r.outcomes.iter().map(|o| o.analytic.score).fold(f64::INFINITY, f64::min);
        assert!(min_analytic <= paper_analytic);
    });
}

/// The exhaustive search's report is byte-identical regardless of the
/// worker count (the `FACIL_THREADS` analogue inside the search), and it
/// scores every candidate of the space.
#[test]
fn report_is_byte_identical_across_workers() {
    cases(12, |g| {
        let matrix = matrix(g);
        let spec = spec();
        let arch = PimArch::aim(&spec.topology);
        let profile = WorkloadProfile::decode_only("prop", vec![TensorSpec::new("t", matrix)]);
        let serial = SearchConfig { workers: Some(1) };
        let wide = SearchConfig { workers: Some(8) };

        let report = |config: &SearchConfig| -> SearchReport {
            let results = search_workload(&spec, &arch, &profile, config).unwrap();
            SearchReport::new("prop", &profile.name, spec.topology, arch, results).unwrap()
        };
        let a = report(&serial);
        let b = report(&wide);
        assert_eq!(a.to_json(), b.to_json());
        assert!(a
            .results
            .iter()
            .all(|r| r.evaluated == r.space_size && r.outcomes.len() == r.space_size));
    });
}
