//! Command-level timing of AiM-style GEMV/GEMM execution over DRAM timing.
//!
//! The model follows the near-bank all-bank execution of the paper
//! (Section II-C, VI-A): per rank, the global input buffer (one DRAM row,
//! shared by the 16 banks) is loaded with an input segment, then each
//! weight DRAM row is processed as `ACT-AB → one MAC-AB per column burst →
//! PRE-AB`, every bank MAC-ing its own chunk in lock-step. Both ranks of a
//! channel interleave commands on the shared command/data bus; the channel
//! time is the maximum of the bus occupancy and the per-rank timing path.
//!
//! Its test `analytic_model_matches_cycle_simulation` holds it within 15%
//! of [`facil_dram::run_allbank`] on the streams
//! [`crate::CommandSequence::to_streams`] lowers from a traced placement,
//! for three unpartitioned shapes on a one-channel spec only. On the
//! partitioned rows of the stock platforms' paper models the two differ by
//! −34% to −86%, the model below the stream (ROADMAP.md, item 4, "One PIM
//! GEMV cost").

use facil_core::{MappingDecision, MatrixConfig, PimArch};
use facil_dram::DramSpec;
use facil_telemetry::{ArgValue, TraceSink};

use crate::layout::PimPlacement;

/// Cycles to drain the per-bank output registers of one rank per tile.
const DRAIN_CYCLES_PER_TILE: u64 = 8;

/// Timing knobs of the PIM processing unit (defaults follow the AiM-style
/// configuration of paper Section VI-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PimTimingConfig {
    /// Issue interval of MAC-AB commands in controller cycles. tCCD (=2) is
    /// the DRAM limit; a larger value models a MAC unit slower than the
    /// column pipeline.
    pub mac_interval: u64,
    /// Whether the global-buffer load of segment *s+1* overlaps the MAC
    /// stream of segment *s* (double buffering).
    pub gb_double_buffer: bool,
}

impl Default for PimTimingConfig {
    fn default() -> Self {
        PimTimingConfig { mac_interval: 2, gb_double_buffer: true }
    }
}

/// Timing breakdown of one PIM operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PimOpTiming {
    /// Total channel cycles (max over bus- and rank-limited paths).
    pub cycles: u64,
    /// Total time in nanoseconds, including output drain to the SoC and the
    /// partition reduction.
    pub time_ns: f64,
    /// Weight bytes streamed.
    pub weight_bytes: u64,
    /// Input bytes broadcast into global buffers (counting per-tile reloads).
    pub input_bytes: u64,
    /// Output bytes returned to the SoC (partials included).
    pub output_bytes: u64,
    /// Achieved internal weight-streaming bandwidth, bytes/second.
    pub internal_bw: f64,
    /// Nanoseconds spent on the SoC-side partial-sum reduction.
    pub reduction_ns: f64,
    /// DRAM-side energy of the operation in microjoules (weights stay
    /// on-die: no interface energy for them; inputs/outputs cross the pins).
    pub energy_uj: f64,
}

/// AiM-style PIM execution engine bound to a DRAM spec.
#[derive(Debug, Clone)]
pub struct PimEngine {
    spec: DramSpec,
    arch: PimArch,
    cfg: PimTimingConfig,
}

impl PimEngine {
    /// Create an engine with default PU timing.
    pub fn new(spec: DramSpec, arch: PimArch) -> Self {
        Self::with_config(spec, arch, PimTimingConfig::default())
    }

    /// Create an engine with explicit PU timing.
    pub fn with_config(spec: DramSpec, arch: PimArch, cfg: PimTimingConfig) -> Self {
        PimEngine { spec, arch, cfg }
    }

    /// The DRAM spec.
    pub fn spec(&self) -> &DramSpec {
        &self.spec
    }

    /// The PIM architecture.
    pub fn arch(&self) -> &PimArch {
        &self.arch
    }

    /// Theoretical peak internal bandwidth: every bank of every rank of
    /// every channel streaming one transfer per MAC interval.
    pub fn peak_internal_bandwidth(&self) -> f64 {
        let topo = &self.spec.topology;
        let per_bank =
            topo.transfer_bytes as f64 / self.spec.cycles_to_ns(self.cfg.mac_interval) * 1e9;
        per_bank * topo.total_banks() as f64
    }

    /// Time a GEMV (`y = W x`) over a matrix placed by `decision`.
    pub fn gemv(&self, matrix: &MatrixConfig, decision: &MappingDecision) -> PimOpTiming {
        self.gemm(matrix, decision, 1)
    }

    /// [`PimEngine::gemv`] plus a kernel span on `sink` (see
    /// [`PimEngine::gemm_traced`]).
    pub fn gemv_traced<S: TraceSink>(
        &self,
        matrix: &MatrixConfig,
        decision: &MappingDecision,
        sink: &mut S,
        start_ns: f64,
    ) -> PimOpTiming {
        self.gemm_traced(matrix, decision, 1, sink, start_ns)
    }

    /// [`PimEngine::gemm`] plus one `pim` kernel span on `sink`, starting
    /// at simulated time `start_ns` (the engine itself has no clock; the
    /// caller supplies where on its timeline the kernel runs). The timing
    /// result is identical to the untraced call.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn gemm_traced<S: TraceSink>(
        &self,
        matrix: &MatrixConfig,
        decision: &MappingDecision,
        m: u64,
        sink: &mut S,
        start_ns: f64,
    ) -> PimOpTiming {
        let timing = self.gemm(matrix, decision, m);
        if sink.enabled() {
            let track = sink.track("pim", "kernels");
            let name = if m == 1 { "GEMV" } else { "GEMM" };
            sink.complete(
                track,
                name,
                start_ns,
                timing.time_ns,
                &[
                    ("rows", ArgValue::U64(matrix.rows)),
                    ("cols", ArgValue::U64(matrix.cols)),
                    ("m", ArgValue::U64(m)),
                    ("reduction_ns", ArgValue::F64(timing.reduction_ns)),
                ],
            );
        }
        timing
    }

    /// Time a GEMM (`Y = W X` with `m` input vectors) executed on PIM as
    /// `m` successive MAC passes (how a GEMV engine performs GEMM; used by
    /// the hybrid-dynamic baseline for short prefills).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn gemm(&self, matrix: &MatrixConfig, decision: &MappingDecision, m: u64) -> PimOpTiming {
        assert!(m > 0, "GEMM needs at least one input vector");
        let topo = &self.spec.topology;
        let tm = &self.spec.timing;
        let placement = PimPlacement::new(matrix, decision, topo, &self.arch);

        let gb_cmds = self.arch.chunk_row_bytes / topo.transfer_bytes;
        let mac_cmds = topo.columns();
        let gb_cycles = gb_cmds * tm.ccd_l;
        let row_cycles = tm.rcd + mac_cmds * self.cfg.mac_interval + tm.rtp + tm.rp;
        let seg_cycles = if self.cfg.gb_double_buffer {
            gb_cycles.max(row_cycles)
        } else {
            gb_cycles + row_cycles
        };

        // Per-rank timing path (ranks run concurrently).
        let segs_total = placement.tiles * placement.segments * m;
        let rank_cycles = segs_total * seg_cycles + placement.tiles * m * DRAIN_CYCLES_PER_TILE;
        // Command/data bus path: both ranks share one bus per channel.
        let bus_per_seg = gb_cmds + mac_cmds + 2;
        let bus_cycles =
            topo.ranks * (segs_total * bus_per_seg + placement.tiles * m * DRAIN_CYCLES_PER_TILE);
        let cycles = rank_cycles.max(bus_cycles);

        let weight_bytes = placement.weight_bytes * m;
        let input_bytes = placement.tiles
            * placement.segments
            * self.arch.chunk_row_bytes
            * topo.ranks
            * topo.channels
            * m;
        let output_bytes = matrix.rows * placement.partitions * matrix.dtype.bytes() * m;

        let stream_ns = self.spec.cycles_to_ns(cycles);
        // Output drain to the SoC over the external interface.
        let out_ns = output_bytes as f64 / self.spec.peak_bandwidth_bytes_per_sec() * 1e9;
        // SoC-side partition reduction: read+add+write partials, memory-bound.
        let red_elems = placement.reduction_elems(matrix) * m;
        let reduction_ns = if red_elems > 0 {
            let bytes = red_elems * matrix.dtype.bytes() * 2; // read partials, write results
            bytes as f64 / self.spec.peak_bandwidth_bytes_per_sec() * 1e9
        } else {
            0.0
        };
        let time_ns = stream_ns + out_ns + reduction_ns;
        // DRAM-side energy: weight reads are internal (no interface
        // energy); input broadcast and output drain cross the pins.
        let energy_model = facil_dram::EnergyModel::default();
        let weight_stats = facil_dram::DramStats {
            reads: weight_bytes / topo.transfer_bytes,
            activates: placement.dram_rows_per_bank * topo.total_banks() * m,
            ..Default::default()
        };
        let io_stats = facil_dram::DramStats {
            reads: (input_bytes + output_bytes) / topo.transfer_bytes + 1,
            ..Default::default()
        };
        let energy_uj = energy_model.energy_internal(&self.spec, &weight_stats, time_ns).total_uj()
            + energy_model.energy(&self.spec, &io_stats, 0.0).total_uj();
        PimOpTiming {
            cycles,
            time_ns,
            weight_bytes,
            input_bytes,
            output_bytes,
            internal_bw: weight_bytes as f64 / (time_ns * 1e-9),
            reduction_ns,
            energy_uj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::CommandSequence;
    use facil_core::{select_mapping_2mb, DType, FacilSystem};
    use facil_dram::DramSpec;

    fn jetson() -> (DramSpec, PimArch) {
        let spec = DramSpec::lpddr5_6400(256, 64 << 30);
        let arch = PimArch::aim(&spec.topology);
        (spec, arch)
    }

    #[test]
    fn gemv_beats_external_bandwidth() {
        let (spec, arch) = jetson();
        let engine = PimEngine::new(spec.clone(), arch);
        let m = MatrixConfig::new(4096, 4096, DType::F16);
        let d = select_mapping_2mb(&m, spec.topology, &arch).unwrap();
        let t = engine.gemv(&m, &d);
        // Internal bandwidth must far exceed the external peak (the whole
        // point of near-bank PIM): >= 8x here.
        let external = spec.peak_bandwidth_bytes_per_sec();
        assert!(
            t.internal_bw > 8.0 * external,
            "internal {:.2e} vs external {:.2e}",
            t.internal_bw,
            external
        );
        // And it cannot exceed the theoretical internal peak.
        assert!(t.internal_bw <= engine.peak_internal_bandwidth() * 1.001);
    }

    #[test]
    fn gemv_time_scales_with_matrix_size() {
        let (spec, arch) = jetson();
        let engine = PimEngine::new(spec.clone(), arch);
        let small = MatrixConfig::new(1024, 4096, DType::F16);
        let large = MatrixConfig::new(4096, 4096, DType::F16);
        let ds = select_mapping_2mb(&small, spec.topology, &arch).unwrap();
        let dl = select_mapping_2mb(&large, spec.topology, &arch).unwrap();
        let ts = engine.gemv(&small, &ds).time_ns;
        let tl = engine.gemv(&large, &dl).time_ns;
        assert!(tl > 3.0 * ts && tl < 5.0 * ts, "4x weights ~ 4x time ({ts} vs {tl})");
    }

    #[test]
    fn gemm_scales_linearly_in_m() {
        let (spec, arch) = jetson();
        let engine = PimEngine::new(spec.clone(), arch);
        let m = MatrixConfig::new(4096, 4096, DType::F16);
        let d = select_mapping_2mb(&m, spec.topology, &arch).unwrap();
        let t1 = engine.gemm(&m, &d, 1).time_ns;
        let t8 = engine.gemm(&m, &d, 8).time_ns;
        assert!((t8 / t1 - 8.0).abs() < 0.5, "t8/t1 = {}", t8 / t1);
    }

    #[test]
    fn partition_reduction_costs_extra() {
        let (spec, arch) = jetson();
        let engine = PimEngine::new(spec.clone(), arch);
        // Jetson: 4096-col rows partition by 2.
        let m = MatrixConfig::new(4096, 4096, DType::F16);
        let d = select_mapping_2mb(&m, spec.topology, &arch).unwrap();
        assert_eq!(d.partitions, 2);
        let t = engine.gemv(&m, &d);
        assert!(t.reduction_ns > 0.0);
        assert_eq!(t.output_bytes, 4096 * 2 * 2);
    }

    #[test]
    fn no_double_buffer_is_slower() {
        let (spec, arch) = jetson();
        let fast = PimEngine::new(spec.clone(), arch);
        let slow = PimEngine::with_config(
            spec.clone(),
            arch,
            PimTimingConfig { gb_double_buffer: false, ..Default::default() },
        );
        let m = MatrixConfig::new(4096, 4096, DType::F16);
        let d = select_mapping_2mb(&m, spec.topology, &arch).unwrap();
        assert!(slow.gemv(&m, &d).time_ns > fast.gemv(&m, &d).time_ns);
    }

    #[test]
    fn slower_mac_unit_reduces_bandwidth() {
        let (spec, arch) = jetson();
        let m = MatrixConfig::new(4096, 4096, DType::F16);
        let d = select_mapping_2mb(&m, spec.topology, &arch).unwrap();
        let t2 = PimEngine::new(spec.clone(), arch).gemv(&m, &d);
        let t8 = PimEngine::with_config(
            spec.clone(),
            arch,
            PimTimingConfig { mac_interval: 8, ..Default::default() },
        )
        .gemv(&m, &d);
        assert!(t8.time_ns > 2.0 * t2.time_ns);
    }

    #[test]
    fn gemv_reports_positive_energy() {
        let (spec, arch) = jetson();
        let engine = PimEngine::new(spec.clone(), arch);
        let m = MatrixConfig::new(4096, 4096, DType::F16);
        let d = select_mapping_2mb(&m, spec.topology, &arch).unwrap();
        let t = engine.gemv(&m, &d);
        assert!(t.energy_uj > 0.0);
        // Energy scales with m.
        let t4 = engine.gemm(&m, &d, 4);
        assert!(t4.energy_uj > 3.0 * t.energy_uj);
    }

    #[test]
    fn analytic_model_matches_cycle_simulation() {
        // The analytic GEMV timing must track the command-level all-bank
        // simulation of the traced stream within 15% across shapes and
        // configurations.
        let spec = DramSpec::lpddr5_6400(16, 1 << 30); // one channel
        let arch = PimArch::aim(&spec.topology);
        for (rows, cols) in [(512u64, 2048u64), (2048, 2048), (1024, 8192)] {
            let m = MatrixConfig::new(rows, cols, DType::F16);
            let mut sys = FacilSystem::new(spec.clone(), arch);
            let alloc = sys.pimalloc(m).unwrap();
            let seq = CommandSequence::trace(&sys, &alloc).unwrap();
            for cfg in [
                PimTimingConfig::default(),
                PimTimingConfig { gb_double_buffer: false, ..Default::default() },
                PimTimingConfig { mac_interval: 4, ..Default::default() },
            ] {
                let engine = PimEngine::with_config(spec.clone(), arch, cfg);
                let analytic = engine.gemv(&m, &alloc.decision).cycles as f64;
                let streams = seq.to_streams(0, cfg.mac_interval, cfg.gb_double_buffer);
                let simulated = facil_dram::run_allbank(&spec, &streams).cycles as f64;
                let err = (analytic - simulated).abs() / simulated;
                assert!(
                    err < 0.15,
                    "{rows}x{cols} {cfg:?}: analytic {analytic} vs simulated {simulated} ({err:.1}%)"
                );
            }
        }
    }

    #[test]
    fn traced_gemv_matches_untraced_and_records_kernel() {
        use facil_telemetry::{NullSink, RingSink};

        let (spec, arch) = jetson();
        let engine = PimEngine::new(spec.clone(), arch);
        let m = MatrixConfig::new(4096, 4096, DType::F16);
        let d = select_mapping_2mb(&m, spec.topology, &arch).unwrap();
        let plain = engine.gemv(&m, &d);
        let mut null = NullSink;
        assert_eq!(engine.gemv_traced(&m, &d, &mut null, 0.0), plain);
        let mut sink = RingSink::new(8);
        assert_eq!(engine.gemm_traced(&m, &d, 4, &mut sink, 100.0), engine.gemm(&m, &d, 4));
        assert_eq!(sink.len(), 1);
        let e = sink.events().next().unwrap();
        assert_eq!(e.name, "GEMM");
        assert_eq!(e.ts_ns, 100.0);
        assert!(e.dur_ns > 0.0);
        assert!(sink.to_chrome_json().contains(r#""name":"kernels""#));
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn zero_m_panics() {
        let (spec, arch) = jetson();
        let engine = PimEngine::new(spec.clone(), arch);
        let m = MatrixConfig::new(1024, 4096, DType::F16);
        let d = select_mapping_2mb(&m, spec.topology, &arch).unwrap();
        engine.gemm(&m, &d, 0);
    }
}
