//! End-to-end integration tests spanning every crate: pimalloc → page
//! table → frontend mux → DRAM cells → PIM compute, and the full
//! strategy-level evaluation on all four paper platforms.

use facil::core::{DType, FacilSystem, MatrixConfig, PimArch};
use facil::dram::{BankedMemory, DramSpec};
use facil::llm::ModelConfig;
use facil::pim::{load_matrix, pim_gemv, store_matrix, CommandSequence, PimEngine};
use facil::sim::{InferenceSim, Strategy};
use facil::soc::{Platform, PlatformId};
use facil::workloads::{Dataset, Query};

/// The full data path, with values: SoC writes row-major through VA, PIM
/// computes on device addresses, SoC reads back row-major — on an
/// iPhone-sized system.
#[test]
fn soc_writes_pim_computes_soc_reads() {
    let spec = DramSpec::lpddr5_6400(64, 8 << 30);
    let arch = PimArch::aim(&spec.topology);
    let mut sys = FacilSystem::new(spec, arch);

    let matrix = MatrixConfig::new(128, 2048, DType::F16);
    let alloc = sys.pimalloc(matrix).unwrap();
    let mut mem = BankedMemory::new(sys.spec().topology);

    let w: Vec<f32> =
        (0..matrix.rows * matrix.cols).map(|i| ((i % 9) as f32 - 4.0) * 0.5).collect();
    let x: Vec<f32> = (0..matrix.cols).map(|i| ((i % 3) as f32 - 1.0) * 0.25).collect();
    store_matrix(&mut mem, &sys, &alloc, &w).unwrap();

    // PIM side.
    let y = pim_gemv(&mem, &sys, &alloc, &x);
    for r in 0..matrix.rows as usize {
        let want: f32 =
            (0..matrix.cols as usize).map(|c| w[r * matrix.cols as usize + c] * x[c]).sum();
        assert!((y[r] - want).abs() <= want.abs() * 1e-3 + 1e-3, "row {r}: {} vs {want}", y[r]);
    }
    // SoC side, re-layout-free.
    assert_eq!(load_matrix(&mem, &sys, &alloc).unwrap(), w);
}

/// Every weight of every paper model is placeable on its paper platform,
/// its placement passes the tracer's checks, and the whole model fits in
/// the 4-slot frontend mux.
#[test]
fn all_paper_models_place_on_their_platforms() {
    for id in PlatformId::all() {
        let platform = Platform::get(id);
        let model = ModelConfig::by_name(platform.model_name);
        let mut sys = FacilSystem::new(platform.dram.clone(), platform.pim_arch);
        let mut distinct = std::collections::BTreeSet::new();
        for (op, _) in model.all_linears() {
            // The decision depends on the column count only, so a copy
            // capped at 1024 rows exercises mapping and placement without
            // allocating and tracing 16 GB of simulated frames per weight.
            let matrix = MatrixConfig::new(op.out_features.min(1024), op.in_features, DType::F16);
            let alloc = sys.pimalloc(matrix).unwrap_or_else(|e| panic!("{id}/{}: {e}", op.name));
            distinct.insert(alloc.map_id());
            let seq = CommandSequence::trace(&sys, &alloc)
                .unwrap_or_else(|e| panic!("{id}/{}: {e}", op.name));
            assert_eq!(seq.placement().partitions, alloc.decision.partitions, "{id}/{}", op.name);
            sys.free(&alloc).unwrap();
        }
        assert!(
            distinct.len() <= 3,
            "{id}: {} distinct MapIDs exceed the paper's mux",
            distinct.len()
        );
    }
}

/// Strategy-level invariants hold on every platform: FACIL strictly beats
/// the hybrid-static baseline on TTFT, dynamic never loses to static, and
/// TTLT ordering matches the paper.
#[test]
fn strategy_invariants_on_all_platforms() {
    for id in PlatformId::all() {
        let sim = InferenceSim::new(Platform::get(id)).unwrap();
        for q in [Query { prefill: 8, decode: 16 }, Query { prefill: 128, decode: 16 }] {
            let soc = sim.run_query(Strategy::SocOnly, q);
            let stat = sim.run_query(Strategy::HybridStatic, q);
            let dynamic = sim.run_query(Strategy::HybridDynamic, q);
            let facil = sim.run_query(Strategy::FacilStatic, q);
            let facil_dyn = sim.run_query(Strategy::FacilDynamic, q);

            assert!(facil.ttft_ns < stat.ttft_ns, "{id} {q:?}: FACIL must beat the baseline TTFT");
            assert!(dynamic.ttft_ns <= stat.ttft_ns + 1.0, "{id} {q:?}: dynamic never loses");
            assert!(facil_dyn.ttft_ns <= facil.ttft_ns + 1.0, "{id} {q:?}");
            // Decode on PIM: every PIM-decoding strategy shares TTLT-TTFT.
            let decode_stat = stat.ttlt_ns - stat.ttft_ns;
            let decode_facil = facil.ttlt_ns - facil.ttft_ns;
            assert!((decode_stat - decode_facil).abs() < 1.0, "{id} {q:?}");
            // SoC-only decode is slower than PIM decode.
            assert!(soc.ttlt_ns - soc.ttft_ns > decode_facil, "{id} {q:?}");
        }
    }
}

/// The TTFT advantage of FACIL equals the re-layout cost the baseline pays
/// (plus the small Table III slowdown), on every platform.
#[test]
fn facil_gap_is_the_relayout_cost() {
    for id in PlatformId::all() {
        let sim = InferenceSim::new(Platform::get(id)).unwrap();
        let p = 32;
        let (base, relayout, _) = sim.prefill_ns(Strategy::HybridStatic, p);
        let (facil, zero, _) = sim.prefill_ns(Strategy::FacilStatic, p);
        assert_eq!(zero, 0.0);
        assert!(relayout > 0.0, "{id}");
        let gap = base - facil;
        // The gap is the re-layout minus the layout-slowdown penalty FACIL
        // pays on its GEMMs; it must be within 5% of the re-layout cost.
        assert!((gap / relayout - 1.0).abs() < 0.05, "{id}: gap {gap} vs relayout {relayout}");
    }
}

/// Dataset sampling and evaluation are deterministic end to end.
#[test]
fn experiments_are_deterministic() {
    let sim = InferenceSim::new(Platform::get(PlatformId::Iphone)).unwrap();
    let d1 = Dataset::code_autocompletion_like(99, 16);
    let d2 = Dataset::code_autocompletion_like(99, 16);
    assert_eq!(d1, d2);
    let a = facil::sim::run_dataset(&sim, Strategy::FacilDynamic, &d1);
    let b = facil::sim::run_dataset(&sim, Strategy::FacilDynamic, &d2);
    assert_eq!(a.results, b.results);
}

/// The PIM engine's internal bandwidth exceeds the external peak on every
/// platform (the premise of Figs. 3/13-16).
#[test]
fn pim_internal_bandwidth_exceeds_external_everywhere() {
    for id in PlatformId::all() {
        let platform = Platform::get(id);
        let engine = PimEngine::new(platform.dram.clone(), platform.pim_arch);
        let model = ModelConfig::by_name(platform.model_name);
        let matrix = MatrixConfig::new(model.hidden, model.hidden, DType::F16);
        let d =
            facil::core::select_mapping_2mb(&matrix, platform.dram.topology, &platform.pim_arch)
                .unwrap();
        let t = engine.gemv(&matrix, &d);
        let external = platform.dram.peak_bandwidth_bytes_per_sec();
        assert!(t.internal_bw > 4.0 * external, "{id}: {:.2e} vs {:.2e}", t.internal_bw, external);
    }
}
