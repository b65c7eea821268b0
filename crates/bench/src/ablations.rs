//! Ablations of the design choices behind FACIL, beyond the paper's own
//! tables/figures:
//!
//! * **mapping flexibility** — FACIL's per-page MapID selection vs one
//!   fixed global PIM mapping (IANUS-style): forced partitioning costs
//!   partial-sum reductions and extra output traffic;
//! * **re-layout policy** — the paper's footnote 2: on-demand vs
//!   all-at-once re-layout;
//! * **co-scheduling policy** — paper Section V-C: shared ranks vs a
//!   reserved rank under concurrent SoC traffic;
//! * **PIM microarchitecture** — global-buffer double buffering and MAC
//!   issue rate;
//! * **decode energy** — SoC vs PIM DRAM-side energy per token;
//! * **quantization** — fp16 vs int8 weights under the same machinery.

use facil_core::{
    decision_with_map_id, select_mapping_2mb, DType, MatrixConfig, PimArch, HUGE_PAGE_BITS,
};
use facil_dram::EnergyModel;
use facil_llm::ModelConfig;
use facil_pim::{PimEngine, PimTimingConfig};
use facil_sim::{
    decode_energy_per_token, run_cosched, CoschedConfig, CoschedPolicy, InferenceSim, Strategy,
};
use facil_soc::{Platform, PlatformId};
use facil_workloads::Query;

/// One row of the mapping-flexibility ablation.
#[derive(Debug, Clone)]
pub struct FlexRow {
    /// Weight name.
    pub name: &'static str,
    /// Partitions under the flexible selector.
    pub flexible_partitions: u64,
    /// Partitions under a fixed global MapID 0.
    pub fixed_partitions: u64,
    /// PIM GEMV time under the flexible mapping, µs.
    pub flexible_us: f64,
    /// PIM GEMV time under the fixed mapping, µs.
    pub fixed_us: f64,
    /// fixed / flexible.
    pub slowdown: f64,
}

/// Flexible per-matrix MapIDs vs one global PIM mapping (MapID 0), on the
/// iPhone platform's model.
pub fn ablation_mapping_flexibility(id: PlatformId) -> Vec<FlexRow> {
    let platform = Platform::get(id);
    let model = ModelConfig::by_name(platform.model_name);
    let topo = platform.dram.topology;
    let engine = PimEngine::new(platform.dram.clone(), platform.pim_arch);
    let mut rows = Vec::new();
    for (op, _) in model.all_linears() {
        let m = MatrixConfig::new(op.out_features, op.in_features, DType::F16);
        // Stock-platform weights are mappable by construction; a failure
        // here is a bug in the platform tables, so the regenerator panics.
        #[allow(clippy::expect_used)]
        let flexible = select_mapping_2mb(&m, topo, &platform.pim_arch).expect("mappable");
        #[allow(clippy::expect_used)]
        let fixed = decision_with_map_id(&m, topo, &platform.pim_arch, 0, HUGE_PAGE_BITS)
            .expect("mappable");
        let tf = engine.gemv(&m, &flexible).time_ns;
        let tx = engine.gemv(&m, &fixed).time_ns;
        rows.push(FlexRow {
            name: op.name,
            flexible_partitions: flexible.partitions,
            fixed_partitions: fixed.partitions,
            flexible_us: tf / 1e3,
            fixed_us: tx / 1e3,
            slowdown: tx / tf,
        });
    }
    rows
}

/// Re-layout policy (paper footnote 2): TTLT of on-demand vs all-at-once,
/// per platform, for one P/D point. Platforms run concurrently on the
/// [`facil_telemetry::pool`] workers with serial-identical results.
pub fn ablation_relayout_policy(q: Query) -> Vec<(PlatformId, f64, f64)> {
    facil_telemetry::pool::par_map(&PlatformId::all(), |&id| {
        // Stock platforms are sized for the default model by construction.
        #[allow(clippy::expect_used)]
        let sim =
            InferenceSim::new(Platform::get(id)).expect("default model fits every stock platform");
        let on_demand = sim.run_query(Strategy::HybridStatic, q).ttlt_ns / 1e6;
        let all_at_once = sim.run_query_all_at_once(q).ttlt_ns / 1e6;
        (id, on_demand, all_at_once)
    })
}

/// Co-scheduling policy sweep: (policy, soc_rate, pim_throughput,
/// soc_latency_cycles, row_reopens).
pub fn ablation_cosched(id: PlatformId) -> Vec<(CoschedPolicy, f64, f64, f64, u64)> {
    let platform = Platform::get(id);
    let mut out = Vec::new();
    for policy in [CoschedPolicy::Shared, CoschedPolicy::ReservedRank] {
        for rate in [0.0, 0.003, 0.01, 0.05, 0.2] {
            let r = run_cosched(
                &platform.dram,
                CoschedConfig { policy, soc_rate: rate, ..Default::default() },
            );
            out.push((policy, rate, r.pim_throughput, r.soc_avg_latency, r.pim_row_reopens));
        }
    }
    out
}

/// PIM microarchitecture sensitivity: GEMV time (µs) for a Llama3 FC1
/// weight under (double-buffered?, MAC interval) combinations on the
/// Jetson.
pub fn ablation_pim_microarch() -> Vec<(bool, u64, f64)> {
    let platform = Platform::get(PlatformId::Jetson);
    let m = MatrixConfig::new(14336, 4096, DType::F16);
    // A fixed paper shape on a stock platform is mappable by construction.
    #[allow(clippy::expect_used)]
    let d = select_mapping_2mb(&m, platform.dram.topology, &platform.pim_arch).expect("mappable");
    let mut out = Vec::new();
    for double_buffer in [true, false] {
        for mac_interval in [2u64, 4, 8] {
            let engine = PimEngine::with_config(
                platform.dram.clone(),
                platform.pim_arch,
                PimTimingConfig { mac_interval, gb_double_buffer: double_buffer },
            );
            out.push((double_buffer, mac_interval, engine.gemv(&m, &d).time_ns / 1e3));
        }
    }
    out
}

/// DRAM-side decode energy per token: (platform, soc_uj, pim_uj, ratio).
/// Platforms run concurrently on the [`facil_telemetry::pool`] workers.
pub fn ablation_energy(ctx: u64) -> Vec<(PlatformId, f64, f64, f64)> {
    let e = EnergyModel::default();
    facil_telemetry::pool::par_map(&PlatformId::all(), |&id| {
        let p = Platform::get(id);
        let m = ModelConfig::by_name(p.model_name);
        let t = decode_energy_per_token(&p, &m, ctx, &e);
        (id, t.soc_uj, t.pim_uj, t.ratio)
    })
}

/// AiM-style vs HBM-PIM-style mapping of the same matrix on a
/// single-channel LPDDR5 system: (style name, MapID, scheme layout,
/// GEMV time µs).
pub fn ablation_pim_style() -> Vec<(String, u8, String, f64)> {
    let spec = facil_dram::DramSpec::lpddr5_6400(16, 2 << 30);
    let topo = spec.topology;
    let m = MatrixConfig::new(1024, 1024, DType::F16);
    [PimArch::aim(&topo), PimArch::hbm_pim(&topo)]
        .into_iter()
        .map(|arch| {
            // A fixed square shape maps under every built-in PIM style.
            #[allow(clippy::expect_used)]
            let d = select_mapping_2mb(&m, topo, &arch).expect("mappable");
            let engine = PimEngine::new(spec.clone(), arch);
            let t = engine.gemv(&m, &d).time_ns / 1e3;
            (arch.style.to_string(), d.map_id.0, d.scheme.to_string(), t)
        })
        .collect()
}

/// End-to-end weight-only quantization: fp16 vs int8 storage on one
/// platform — (dtype, relayout ms, FACIL TTFT ms @P32, TTFT speedup vs
/// hybrid-static, PIM ms/token).
pub fn ablation_quantized_e2e(id: PlatformId) -> Vec<(DType, f64, f64, f64, f64)> {
    let platform = Platform::get(id);
    let model = ModelConfig::by_name(platform.model_name);
    [DType::F16, DType::I8]
        .into_iter()
        .map(|dtype| {
            // Both dtype variants of the stock model fit the platform DRAM.
            #[allow(clippy::expect_used)]
            let sim = InferenceSim::with_model_and_dtype(platform.clone(), model.clone(), dtype)
                .expect("ablation models fit the platform DRAM");
            let base = sim.prefill_ns(Strategy::HybridStatic, 32).0;
            let facil = sim.prefill_ns(Strategy::FacilStatic, 32).0;
            (
                dtype,
                sim.relayout_ns() / 1e6,
                facil / 1e6,
                base / facil,
                sim.decode_batch_ns(Strategy::FacilStatic, false, &[64]) / 1e6,
            )
        })
        .collect()
}

/// Weight quantization: MapID, partitions and PIM GEMV time for fp16 vs
/// int8 versions of the same weight on one platform.
pub fn ablation_dtype(id: PlatformId) -> Vec<(DType, u8, u64, f64)> {
    let platform = Platform::get(id);
    let model = ModelConfig::by_name(platform.model_name);
    let engine = PimEngine::new(platform.dram.clone(), platform.pim_arch);
    [DType::F16, DType::I8]
        .into_iter()
        .map(|dtype| {
            let m = MatrixConfig::new(model.hidden, model.hidden, dtype);
            // Stock-model shapes are mappable on their own platform.
            #[allow(clippy::expect_used)]
            let d = select_mapping_2mb(&m, platform.dram.topology, &platform.pim_arch)
                .expect("mappable");
            let t = engine.gemv(&m, &d).time_ns / 1e3;
            (dtype, d.map_id.0, d.partitions, t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_global_mapping_is_never_faster() {
        for row in ablation_mapping_flexibility(PlatformId::Iphone) {
            assert!(row.slowdown >= 0.999, "{}: {}", row.name, row.slowdown);
            assert!(row.fixed_partitions >= row.flexible_partitions, "{}", row.name);
        }
        // At least one weight must actually suffer from the fixed mapping.
        let any_worse =
            ablation_mapping_flexibility(PlatformId::Iphone).iter().any(|r| r.slowdown > 1.005);
        assert!(any_worse, "flexibility must matter for some weight");
    }

    #[test]
    fn all_at_once_is_never_cheaper() {
        for (id, on_demand, all_at_once) in
            ablation_relayout_policy(Query { prefill: 16, decode: 16 })
        {
            assert!(all_at_once > on_demand, "{id}");
        }
    }

    #[test]
    fn energy_favors_pim_everywhere() {
        for (id, soc, pim, ratio) in ablation_energy(64) {
            assert!(soc > pim, "{id}");
            assert!(ratio > 1.0, "{id}");
        }
    }

    #[test]
    fn int8_halves_the_row_and_speeds_gemv() {
        let rows = ablation_dtype(PlatformId::Iphone);
        let (f16, i8) = (&rows[0], &rows[1]);
        assert!(i8.3 < f16.3, "int8 GEMV must be faster: {} vs {}", i8.3, f16.3);
        assert!(i8.1 <= f16.1, "int8 MapID must not grow");
    }

    #[test]
    fn quantization_shrinks_relayout_but_facil_still_wins() {
        let rows = ablation_quantized_e2e(PlatformId::Iphone);
        let (f16, i8) = (&rows[0], &rows[1]);
        assert!(i8.1 < f16.1, "int8 relayout smaller");
        assert!(i8.4 < f16.4, "int8 PIM decode faster");
        assert!(i8.3 > 1.2, "FACIL still wins TTFT at int8: {}", i8.3);
    }

    #[test]
    fn pim_styles_both_map_and_run() {
        let rows = ablation_pim_style();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].2.contains("AiM"));
        assert!(rows[1].2.contains("HBM-PIM"));
        assert!(rows.iter().all(|r| r.3 > 0.0));
    }

    #[test]
    fn microarch_table_is_monotone() {
        let t = ablation_pim_microarch();
        // Slower MAC interval is never faster.
        let get = |db: bool, mi: u64| t.iter().find(|x| x.0 == db && x.1 == mi).unwrap().2;
        assert!(get(true, 2) <= get(true, 4));
        assert!(get(true, 4) <= get(true, 8));
        assert!(get(true, 2) <= get(false, 2));
    }
}
