//! Integration tests of the mapping-search subsystem against the paper's
//! platforms: the searched optimizer must *reproduce* the closed-form
//! Fig. 13 picks on every baseline model shape, *beat* them on a shape the
//! paper never tuned for, and plug back into the end-to-end inference
//! simulator through the selector adapter.

use facil::core::{DType, MatrixConfig};
use facil::llm::ModelConfig;
use facil::mapsearch::{
    search_workload, PuOrder, SearchConfig, SearchReport, TensorSpec, WorkloadProfile,
    IMPROVEMENT_THRESHOLD,
};
use facil::sim::{InferenceSim, Strategy};
use facil::soc::{Platform, PlatformId};

/// Distinct weight shapes of the platform's paper model (instance counts
/// merged), plus a MoE-style expert slice no Fig. 13 configuration uses.
fn profile_for(platform: &Platform) -> WorkloadProfile {
    let model = ModelConfig::by_name(platform.model_name);
    let mut tensors: Vec<TensorSpec> = Vec::new();
    for (op, instances) in model.all_linears() {
        let matrix = MatrixConfig::new(op.out_features, op.in_features, DType::F16);
        match tensors.iter_mut().find(|t| t.matrix == matrix) {
            Some(t) => t.instances += instances,
            None => tensors.push(TensorSpec::new(op.name, matrix).with_instances(instances)),
        }
    }
    tensors.push(TensorSpec::new("moe-expert", MatrixConfig::new(64, 4096, DType::F16)));
    WorkloadProfile::decode_only(format!("{}-decode", model.name), tensors)
}

/// On all four paper platforms, every baseline tensor retains the paper's
/// closed-form pick (the epsilon incumbent rule reproduces Fig. 13) while
/// the skinny MoE slice is displaced with a measured win above threshold.
#[test]
fn baselines_reproduced_and_moe_displaced_on_all_platforms() {
    let config = SearchConfig::default();
    for id in PlatformId::all() {
        let platform = Platform::get(id);
        let profile = profile_for(&platform);
        let results =
            search_workload(&platform.dram, &platform.pim_arch, &profile, &config).unwrap();
        for r in &results {
            if r.tensor == "moe-expert" {
                assert!(r.displaced, "{id}: searched mapping must beat the paper on MoE");
                assert!(
                    r.improvement > IMPROVEMENT_THRESHOLD,
                    "{id}: improvement {} below threshold",
                    r.improvement
                );
                assert!(
                    r.best_measured.score < r.paper_measured.score,
                    "{id}: displacement must be backed by measured cycles"
                );
            } else {
                assert!(!r.displaced, "{id}: baseline {} displaced", r.tensor);
                assert_eq!(r.best, r.paper, "{id}: baseline {} pick differs", r.tensor);
            }
        }
    }
}

/// The iPhone MoE win comes from the PU traversal order, not from picking
/// a different MapID: the paper's window size is right, but its fixed
/// bank→rank→channel order strands half the channels on a half-filled
/// window. Roughly half the measured cycles come back.
#[test]
fn iphone_moe_win_is_pu_order_at_same_map_id() {
    let platform = Platform::get(PlatformId::Iphone);
    let profile = WorkloadProfile::decode_only(
        "moe-only",
        vec![TensorSpec::new("moe-expert", MatrixConfig::new(64, 4096, DType::F16))],
    );
    let config = SearchConfig::default();
    let results = search_workload(&platform.dram, &platform.pim_arch, &profile, &config).unwrap();
    let r = &results[0];
    assert!(r.displaced);
    assert_eq!(r.best.map_id, r.paper.map_id, "the window size is not the problem");
    assert_ne!(r.best.pu_order, PuOrder::paper(), "the traversal order is");
    assert!(r.improvement > 0.3, "expected a large win, got {}", r.improvement);
}

/// The `SearchReport -> MappingDecision` adapter drives the end-to-end
/// simulator: with every baseline shape retained, the searched-selector
/// sim must agree exactly with the paper-rule sim.
#[test]
fn selector_adapter_drives_inference_sim() {
    let platform = Platform::get(PlatformId::Iphone);
    let profile = profile_for(&platform);
    let config = SearchConfig::default();
    let results = search_workload(&platform.dram, &platform.pim_arch, &profile, &config).unwrap();
    let report = SearchReport::new(
        "iphone",
        &profile.name,
        platform.dram.topology,
        platform.pim_arch,
        results,
    )
    .unwrap();

    let model = ModelConfig::by_name(platform.model_name);
    let searched =
        InferenceSim::with_selector(platform.clone(), model, DType::F16, report.selector())
            .unwrap();
    let paper = InferenceSim::new(platform).unwrap();
    for ctx in [128, 2048, 32768] {
        assert_eq!(
            searched.decode_batch_ns(Strategy::FacilStatic, false, &[ctx]),
            paper.decode_batch_ns(Strategy::FacilStatic, false, &[ctx]),
            "paper-shaped weights must simulate identically under the searched selector"
        );
    }
}
