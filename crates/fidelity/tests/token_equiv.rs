//! End-to-end token equivalence: a seeded decoder produces identical logits
//! (bit for bit) and identical greedy tokens whether its weights live under
//! FACIL mappings executed by the PIM command replay or under the
//! conventional mapping executed by the SoC.

use facil_dram::DramSpec;
use facil_fidelity::token_equivalence;
use facil_llm::ModelConfig;
use facil_soc::Platform;

#[test]
fn facil_and_conventional_agree_on_every_token() {
    // The iPhone 15 Pro and the full two-layer preset: the model the
    // benchmark and `BENCH_fidelity.json` run.
    let spec = DramSpec::lpddr5_6400(64, 8 << 30);
    let report = token_equivalence(&spec, &ModelConfig::tiny_fidelity(), 3, 0xFAC1).unwrap();
    assert_eq!(report.steps, 3);
    assert_eq!(report.facil_tokens.len(), 3);
    assert_eq!(report.logit_mismatches, 0, "{report:?}");
    assert_eq!(report.facil_tokens, report.conventional_tokens, "{report:?}");
    assert!(report.equivalent);
}

#[test]
fn token_stream_is_seed_deterministic() {
    let spec = DramSpec::lpddr5_6400(64, 8 << 30);
    let model = ModelConfig { layers: 1, ..ModelConfig::tiny_fidelity() };
    let a = token_equivalence(&spec, &model, 2, 7).unwrap();
    let b = token_equivalence(&spec, &model, 2, 7).unwrap();
    assert_eq!(a, b, "same seed must reproduce the same report bit for bit");
    assert!(a.equivalent);
}

#[test]
#[ignore = "four platforms, slow in debug; scripts/ci.sh runs it with --release --ignored"]
fn token_equivalence_holds_on_every_platform_geometry() {
    // One layer with TinyLlama's 5,632-wide FFN, which no chunk row of
    // 1,024 elements divides, on each stock platform's memory geometry.
    let model = ModelConfig { intermediate: 5_632, layers: 1, ..ModelConfig::tiny_fidelity() };
    for platform in Platform::all() {
        let report = token_equivalence(&platform.dram, &model, 2, 0xFAC1).unwrap();
        assert_eq!(report.logit_mismatches, 0, "{}: {report:?}", platform.id);
        assert!(report.equivalent, "{}: {report:?}", platform.id);
    }
}
