//! Re-layout cost: what the SoC-PIM baseline pays to convert a weight
//! matrix from the PIM-optimized layout to the conventional one before a
//! GEMM (paper Section VI-A, "Baseline").
//!
//! Following the paper, the cost models only the memory traffic: read every
//! transfer through the PIM-optimized mapping and write it back through the
//! conventional mapping into a scratch region. The interleaved read/write
//! stream is scheduled on the cycle-level DRAM simulator; since the copy is
//! steady-state, the measured cost-per-byte of a representative slice
//! scales linearly to any matrix size (validated by tests).

use std::sync::{LazyLock, OnceLock};

use facil_core::{select_mapping_2mb, DType, MappingScheme, MatrixConfig, PimArch};
use facil_dram::{DramSpec, DramSystem, Op, Request};
use facil_telemetry::memo::Memo;

/// Every profile simulated in this process, keyed on everything
/// `simulate_slice` reads: the whole spec, the PIM architecture and the
/// slice size.
static PROFILES: LazyLock<Memo<(DramSpec, PimArch, u64), RelayoutProfile>> =
    LazyLock::new(Memo::default);

/// Measured re-layout characteristics of one memory system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelayoutProfile {
    /// Cost per byte re-laid-out, nanoseconds.
    pub ns_per_byte: f64,
    /// Effective copy bandwidth (read+write bytes per second).
    pub copy_bandwidth: f64,
    /// Fraction of the theoretical peak the copy achieves.
    pub efficiency: f64,
}

/// Re-layout cost model for one platform's memory system.
///
/// The representative slice is simulated once per process per (spec,
/// architecture, slice size), not once per model: every model built for the
/// same memory system shares the first one's profile, bit for bit.
///
/// ```no_run
/// use facil_core::PimArch;
/// use facil_dram::DramSpec;
/// use facil_sim::RelayoutModel;
///
/// let spec = DramSpec::lpddr5_6400(256, 64 << 30); // Jetson
/// let arch = PimArch::aim(&spec.topology);
/// let model = RelayoutModel::new(spec, arch);
/// // Re-laying out ~15 GB of Llama3-8B weights costs ~160 ms.
/// let ms = model.cost_ns(15_000_000_000) / 1e6;
/// assert!(ms > 50.0 && ms < 500.0);
/// ```
#[derive(Debug)]
pub struct RelayoutModel {
    spec: DramSpec,
    arch: PimArch,
    profile: OnceLock<RelayoutProfile>,
    /// Bytes of the simulated representative slice.
    sample_bytes: u64,
}

impl RelayoutModel {
    /// Create a model (the slice is simulated lazily, on first use, unless
    /// this process already holds its profile).
    pub fn new(spec: DramSpec, arch: PimArch) -> Self {
        RelayoutModel { spec, arch, profile: OnceLock::new(), sample_bytes: 2 << 20 }
    }

    /// Use a custom sample size (tests).
    pub fn with_sample_bytes(mut self, bytes: u64) -> Self {
        self.sample_bytes = bytes;
        self
    }

    /// The measured profile. The representative slice is simulated only if
    /// no model in this process has simulated it for the same spec,
    /// architecture and slice size.
    pub fn profile(&self) -> RelayoutProfile {
        *self.profile.get_or_init(|| {
            let key = (self.spec.clone(), self.arch, self.sample_bytes);
            PROFILES.get_or_insert_with(key, || self.simulate_slice())
        })
    }

    /// Re-layout cost for `bytes` of weights, nanoseconds.
    pub fn cost_ns(&self, bytes: u64) -> f64 {
        self.profile().ns_per_byte * bytes as f64
    }

    /// Simulate re-laying-out a representative slice: read a
    /// hidden-square-matrix slice through its PIM-optimized mapping, write
    /// it through the conventional mapping into a disjoint scratch region.
    fn simulate_slice(&self) -> RelayoutProfile {
        let topo = self.spec.topology;
        // Representative matrix: 4096-wide fp16 (every paper model has
        // 4096- or 2048-wide projections; the steady-state cost is
        // shape-insensitive, which `tests::cost_is_shape_insensitive`
        // checks).
        let cols = 4096.min(topo.row_bytes * 4);
        let rows = (self.sample_bytes / (cols * 2)).max(1);
        let matrix = MatrixConfig::new(rows, cols, DType::F16);
        // The representative matrix is constructed from the topology itself,
        // so selection cannot fail for any spec this model accepts.
        #[allow(clippy::expect_used)]
        let decision = select_mapping_2mb(&matrix, topo, &self.arch)
            .expect("representative matrix is mappable");
        let conventional = MappingScheme::conventional(topo);

        let mut sys = DramSystem::new(&self.spec);
        let tx = topo.transfer_bytes;
        let n = self.sample_bytes / tx;
        // Scratch region in the upper half of the address space.
        let scratch_base = topo.capacity_bytes() / 2;
        for i in 0..n {
            let pa = i * tx;
            sys.push(Request { addr: decision.scheme.map_pa(pa), op: Op::Read, arrival: 0 });
            sys.push(Request {
                addr: conventional.map_pa(scratch_base + pa),
                op: Op::Write,
                arrival: 0,
            });
        }
        let res = sys.run();
        let bytes_moved = 2 * self.sample_bytes; // read + write
        let ns_per_byte = res.elapsed_ns / self.sample_bytes as f64;
        RelayoutProfile {
            ns_per_byte,
            copy_bandwidth: bytes_moved as f64 / (res.elapsed_ns * 1e-9),
            efficiency: bytes_moved as f64
                / (res.elapsed_ns * 1e-9)
                / self.spec.peak_bandwidth_bytes_per_sec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facil_telemetry::pool;

    fn iphone_model() -> RelayoutModel {
        let spec = DramSpec::lpddr5_6400(64, 8 << 30);
        let arch = PimArch::aim(&spec.topology);
        RelayoutModel::new(spec, arch).with_sample_bytes(1 << 20)
    }

    #[test]
    fn copy_efficiency_is_realistic() {
        let m = iphone_model();
        let p = m.profile();
        // A read+write copy with mixed directions should land between 50%
        // and 100% of peak.
        assert!(p.efficiency > 0.5, "efficiency {}", p.efficiency);
        assert!(p.efficiency <= 1.0, "efficiency {}", p.efficiency);
    }

    #[test]
    fn cost_scales_linearly() {
        let m = iphone_model();
        let c1 = m.cost_ns(1 << 30);
        let c2 = m.cost_ns(2 << 30);
        assert!((c2 / c1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cost_is_shape_insensitive() {
        // Two different sample sizes give near-identical per-byte cost
        // (steady state), justifying linear scaling.
        let spec = DramSpec::lpddr5_6400(64, 8 << 30);
        let arch = PimArch::aim(&spec.topology);
        let a = RelayoutModel::new(spec.clone(), arch).with_sample_bytes(1 << 20).profile();
        let b = RelayoutModel::new(spec, arch).with_sample_bytes(2 << 20).profile();
        let ratio = a.ns_per_byte / b.ns_per_byte;
        assert!((0.9..1.1).contains(&ratio), "per-byte cost not steady: {ratio}");
    }

    /// Slice size of the memo tests: no other test in this binary asks for
    /// it, so their first lookups miss the process-wide memo.
    const MEMO_SAMPLE: u64 = 96 << 10;

    fn bits(p: RelayoutProfile) -> [u64; 3] {
        [p.ns_per_byte.to_bits(), p.copy_bandwidth.to_bits(), p.efficiency.to_bits()]
    }

    #[test]
    fn profile_memo_key_covers_timing_and_sample_bytes() {
        let spec = DramSpec::lpddr5_6400(64, 8 << 30);
        let arch = PimArch::aim(&spec.topology);
        let profile = |spec: &DramSpec, bytes: u64| {
            RelayoutModel::new(spec.clone(), arch).with_sample_bytes(bytes).profile()
        };
        let first = profile(&spec, MEMO_SAMPLE);
        let mut retimed = spec.clone();
        retimed.timing.rcd += 8;
        assert_ne!(bits(profile(&retimed, MEMO_SAMPLE)), bits(first), "tRCD left out of the key");
        assert_ne!(bits(profile(&spec, 2 * MEMO_SAMPLE)), bits(first), "slice size left out");
        assert_eq!(bits(profile(&spec, MEMO_SAMPLE)), bits(first));
    }

    #[test]
    fn concurrent_profiles_equal_serial_simulations() {
        let models: Vec<RelayoutModel> = facil_soc::Platform::all()
            .into_iter()
            .map(|p| RelayoutModel::new(p.dram, p.pim_arch).with_sample_bytes(MEMO_SAMPLE / 2))
            .collect();
        let concurrent = pool::par_map_with(4, &models, |m| bits(m.profile()));
        let serial: Vec<_> = models.iter().map(|m| bits(m.simulate_slice())).collect();
        assert_eq!(concurrent, serial);
    }

    #[test]
    fn jetson_full_model_relayout_is_hundreds_of_ms() {
        // Paper Fig. 6: re-layout adds ~200 ms on Jetson for Llama3-8B.
        let spec = DramSpec::lpddr5_6400(256, 64 << 30);
        let arch = PimArch::aim(&spec.topology);
        let m = RelayoutModel::new(spec, arch).with_sample_bytes(1 << 20);
        let weights = 14_000_000_000u64; // ~14 GB of linear weights
        let ms = m.cost_ns(weights) / 1e6;
        assert!((100.0..350.0).contains(&ms), "relayout {ms} ms");
    }
}
