//! Integration tests of the beyond-paper extensions: paged KV cache +
//! attention-on-PIM, the structural paging stack, serving under load, and
//! cross-model placement.

use facil::core::paging::{AddressSpace, MmapFlags};
use facil::core::{DType, FacilSystem, KvHalf, MapId, MatrixConfig, PagedKvCache, PimArch};
use facil::dram::DramSpec;
use facil::llm::ModelConfig;
use facil::sim::{serve, InferenceSim, ServingConfig, Strategy};
use facil::soc::{Platform, PlatformId};
use facil::workloads::Dataset;

/// The KV cache grows with decode and every slab remains PIM-placed, which
/// is what makes the attention-on-PIM decode path legal.
#[test]
fn kv_cache_supports_attention_on_pim() {
    let spec = DramSpec::lpddr5_6400(64, 8 << 30);
    let arch = PimArch::aim(&spec.topology);
    let mut sys = FacilSystem::new(spec, arch);
    let model = ModelConfig::phi_1_5();
    let kv_dim = model.kv_heads * model.head_dim();
    let mut kv = PagedKvCache::new(model.layers, kv_dim, DType::F16);

    // Simulate a prefill of 100 tokens and a decode of 50.
    kv.append(&mut sys, 100).unwrap();
    for _ in 0..50 {
        kv.append(&mut sys, 1).unwrap();
    }
    assert_eq!(kv.len(), 150);
    // Every cached token row translates through a PIM mapping.
    for token in [0u64, 99, 149] {
        let va = kv.token_va(0, KvHalf::K, token);
        let t = sys.page_table().translate(va).unwrap();
        assert!(t.map_id.is_some(), "KV slab pages must carry a MapID");
    }
    // And the engine-side model agrees attention-on-PIM exists and crosses
    // over at long contexts.
    let sim = InferenceSim::new(Platform::get(PlatformId::Iphone)).unwrap();
    assert!(sim.decode_step_pim_attention_ns(32768) < sim.decode_step_pim_ns(32768));
}

/// The structural mmap/radix stack and the fast FacilSystem agree on what a
/// PIM mapping looks like to software.
#[test]
fn structural_and_fast_paths_agree() {
    let spec = DramSpec::lpddr5_6400(64, 8 << 30);
    let arch = PimArch::aim(&spec.topology);
    let mut fast = FacilSystem::new(spec, arch);
    let alloc = fast.pimalloc(MatrixConfig::new(64, 2048, DType::F16)).unwrap();

    let mut os = AddressSpace::new(64 << 20);
    let va = os.mmap(2 << 20, MmapFlags { huge: true, map_id: Some(alloc.map_id()) }).unwrap();
    let t = os.translate(va + 0x1234).unwrap();
    assert_eq!(t.map_id, Some(alloc.map_id()));
    assert!(t.huge);
    // Both stacks report the same MapID for the same matrix shape, so the
    // memory controller mux would behave identically.
    let t2 = fast.page_table().translate(alloc.va + 0x1234).unwrap();
    assert_eq!(t2.map_id, t.map_id);
}

/// Serving under load preserves the paper-level ordering: FACIL >=
/// hybrid-dynamic >= hybrid-static on p95 TTFT at every tested rate.
#[test]
fn serving_ordering_holds_under_load() {
    let sim = InferenceSim::new(Platform::get(PlatformId::Iphone)).unwrap();
    let dataset = Dataset::alpaca_like(3, 48);
    for qps in [0.1, 0.5, 1.0] {
        let cfg = ServingConfig { arrival_qps: qps, seed: 13 };
        let stat = serve(&sim, Strategy::HybridStatic, &dataset, cfg);
        let dynamic = serve(&sim, Strategy::HybridDynamic, &dataset, cfg);
        let facil = serve(&sim, Strategy::FacilDynamic, &dataset, cfg);
        assert!(facil.ttft_p95_ms <= dynamic.ttft_p95_ms + 1e-9, "qps {qps}");
        assert!(dynamic.ttft_p95_ms <= stat.ttft_p95_ms + 1e-9, "qps {qps}");
    }
}

/// Every built-in model (including the non-paper presets) places on an
/// iPhone-class memory system with at most 3 distinct MapIDs.
#[test]
fn all_models_place_on_iphone_memory() {
    let spec = DramSpec::lpddr5_6400(64, 8 << 30);
    let arch = PimArch::aim(&spec.topology);
    for model in ModelConfig::all() {
        let mut distinct = std::collections::BTreeSet::new();
        for (op, _) in model.all_linears() {
            let m = MatrixConfig::new(op.out_features, op.in_features, DType::F16);
            let d = facil::core::select_mapping_2mb(&m, spec.topology, &arch)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", model.name, op.name));
            distinct.insert(d.map_id);
        }
        assert!(distinct.len() <= 3, "{}: {} MapIDs", model.name, distinct.len());
        assert!(distinct.iter().all(|id| *id < MapId(16)));
    }
}

/// Bank hashing composes with the FACIL stack end to end: a hashed
/// conventional mapping still round-trips data.
#[test]
fn bank_hashed_mapping_roundtrips_data() {
    use facil::core::MappingScheme;
    use facil::dram::BankedMemory;
    let spec = DramSpec::lpddr5_6400(64, 8 << 30);
    let scheme = MappingScheme::conventional(spec.topology).with_bank_hash();
    let mut mem = BankedMemory::new(spec.topology);
    let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
    mem.write_bytes(&scheme, 0x10_0000, &data).unwrap();
    assert_eq!(mem.read_bytes(&scheme, 0x10_0000, data.len()).unwrap(), data);
}
