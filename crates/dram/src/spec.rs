//! DRAM device specifications: topology, clocking and timing parameters.
//!
//! The FACIL paper evaluates LPDDR5-6400 (Jetson AGX Orin, MacBook Pro,
//! iPhone 15 Pro) and LPDDR5X-7467 (IdeaPad Slim 5) memory systems, with
//! timing parameters taken from the JEDEC JESD209-5 standard. This module
//! provides *JEDEC-shaped* presets: the parameter set and their relative
//! magnitudes follow the standard, with nanosecond values rounded to widely
//! published datasheet figures.

use crate::addr::Topology;

/// DRAM device generation modelled by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramKind {
    /// LPDDR5 (e.g. 6400 MT/s as used by Jetson/MacBook/iPhone in the paper).
    Lpddr5,
    /// LPDDR5X (e.g. 7467 MT/s as used by the IdeaPad in the paper).
    Lpddr5x,
}

impl std::fmt::Display for DramKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DramKind::Lpddr5 => write!(f, "LPDDR5"),
            DramKind::Lpddr5x => write!(f, "LPDDR5X"),
        }
    }
}

/// Timing parameters in *controller clock cycles*.
///
/// The controller clock is defined as `data_rate / 8`: one cycle moves
/// 8 beats on the DQ bus, so a BL16 burst (one 32-byte transfer on a 16-bit
/// LPDDR5 channel) occupies exactly [`Timing::burst_cycles`] = 2 cycles, and
/// back-to-back column commands at `tCCD = 2` sustain the full pin bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Timing {
    /// Controller clock period in picoseconds.
    pub tck_ps: u64,
    /// ACT to internal read/write delay (tRCD).
    pub rcd: u64,
    /// Per-bank precharge latency (tRPpb).
    pub rp: u64,
    /// Minimum row open time, ACT to PRE (tRAS).
    pub ras: u64,
    /// ACT to ACT same bank (tRC = tRAS + tRP).
    pub rc: u64,
    /// Read latency, RD command to first data beat (RL/CL).
    pub cl: u64,
    /// Write latency, WR command to first data beat (WL/CWL).
    pub cwl: u64,
    /// Data burst duration on the DQ bus (BL16 on a x16 channel = 32 B).
    pub burst_cycles: u64,
    /// Column-to-column, same bank group (tCCD_L).
    pub ccd_l: u64,
    /// Column-to-column, different bank group (tCCD_S).
    pub ccd_s: u64,
    /// ACT-to-ACT, same bank group (tRRD_L).
    pub rrd_l: u64,
    /// ACT-to-ACT, different bank group (tRRD_S).
    pub rrd_s: u64,
    /// Four-activate window (tFAW).
    pub faw: u64,
    /// Write recovery time, end of write data to PRE (tWR).
    pub wr: u64,
    /// Read-to-precharge (tRTP).
    pub rtp: u64,
    /// Write-to-read turnaround, end of write data to RD (tWTR).
    pub wtr: u64,
    /// Read-to-write turnaround bubble on the data bus.
    pub rtw: u64,
    /// Average refresh interval (tREFI); 0 disables refresh.
    pub refi: u64,
    /// All-bank refresh cycle time (tRFCab).
    pub rfc_ab: u64,
}

impl Timing {
    /// Construct a timing set from nanosecond values at the given controller
    /// clock frequency. Cycle counts are rounded up (conservative, as real
    /// controllers do).
    #[allow(clippy::too_many_arguments)]
    fn from_ns(clock_mhz: u64, ns: TimingNs) -> Self {
        let tck_ps = 1_000_000 / clock_mhz; // ps per cycle
        let cyc = |t_ns: f64| -> u64 { ((t_ns * 1000.0) / tck_ps as f64).ceil() as u64 };
        Timing {
            tck_ps,
            rcd: cyc(ns.rcd),
            rp: cyc(ns.rp),
            ras: cyc(ns.ras),
            rc: cyc(ns.ras) + cyc(ns.rp),
            cl: cyc(ns.cl),
            cwl: cyc(ns.cwl),
            burst_cycles: 2,
            ccd_l: 2,
            ccd_s: 2,
            rrd_l: cyc(ns.rrd),
            rrd_s: cyc(ns.rrd),
            faw: cyc(ns.faw),
            wr: cyc(ns.wr),
            rtp: cyc(ns.rtp),
            wtr: cyc(ns.wtr),
            rtw: 2,
            refi: cyc(ns.refi),
            rfc_ab: cyc(ns.rfc),
        }
    }
}

/// Helper bundle of nanosecond timing inputs.
struct TimingNs {
    rcd: f64,
    rp: f64,
    ras: f64,
    cl: f64,
    cwl: f64,
    rrd: f64,
    faw: f64,
    wr: f64,
    rtp: f64,
    wtr: f64,
    refi: f64,
    rfc: f64,
}

impl TimingNs {
    /// JEDEC JESD209-5-shaped LPDDR5/5X core timing in nanoseconds.
    /// LPDDR5 and LPDDR5X share analog core timings; the speed grade changes
    /// the clock, not the nanosecond values.
    fn lpddr5_core() -> Self {
        TimingNs {
            rcd: 18.0,
            rp: 18.0,
            ras: 42.0,
            cl: 17.0,
            cwl: 9.0,
            rrd: 7.5,
            faw: 20.0,
            wr: 18.0,
            rtp: 7.5,
            wtr: 10.0,
            refi: 3906.0,
            rfc: 210.0,
        }
    }
}

/// A complete DRAM memory-system specification: device kind, clocking,
/// topology and timing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DramSpec {
    /// Device generation.
    pub kind: DramKind,
    /// Data rate per pin in MT/s (e.g. 6400).
    pub data_rate_mbps: u64,
    /// Total DQ bus width in bits across all channels (e.g. 256 for Jetson).
    pub bus_width_bits: u64,
    /// Geometry of the memory system.
    pub topology: Topology,
    /// Timing parameters in controller clock cycles.
    pub timing: Timing,
}

impl DramSpec {
    /// Build a spec from data rate, total bus width and capacity, assuming
    /// x16 LPDDR5 channels, 2 ranks per channel and 16 banks per rank
    /// (4 bank groups x 4 banks), which is the configuration assumed by the
    /// FACIL paper (Section VI-A).
    ///
    /// # Panics
    ///
    /// Panics if `bus_width_bits` is not a multiple of 16 or the resulting
    /// per-bank capacity is not a power-of-two multiple of the row size.
    pub fn build(
        kind: DramKind,
        data_rate_mbps: u64,
        bus_width_bits: u64,
        capacity_bytes: u64,
    ) -> Self {
        assert!(bus_width_bits.is_multiple_of(16), "LPDDR5 channels are 16 bits wide");
        let channels = bus_width_bits / 16;
        let ranks = 2;
        let bank_groups = 4;
        let banks_per_group = 4;
        let row_bytes = 2048; // 2 KB row buffer per bank (paper Section II-C)
        let transfer_bytes = 32; // BL16 x 16 bits
        let per_bank = capacity_bytes / (channels * ranks * bank_groups * banks_per_group);
        assert!(
            per_bank.is_multiple_of(row_bytes),
            "bank capacity must be a multiple of the row size"
        );
        let rows = per_bank / row_bytes;
        assert!(rows.is_power_of_two(), "rows per bank must be a power of two (got {rows})");
        let topology = Topology::new(
            channels,
            ranks,
            bank_groups,
            banks_per_group,
            rows,
            row_bytes,
            transfer_bytes,
        );
        let clock_mhz = data_rate_mbps / 8;
        let timing = Timing::from_ns(clock_mhz, TimingNs::lpddr5_core());
        DramSpec { kind, data_rate_mbps, bus_width_bits, topology, timing }
    }

    /// LPDDR5-6400 with the given total bus width and capacity
    /// (Jetson: 256-bit/64 GB, MacBook: 512-bit/64 GB, iPhone: 64-bit/8 GB).
    pub fn lpddr5_6400(bus_width_bits: u64, capacity_bytes: u64) -> Self {
        Self::build(DramKind::Lpddr5, 6400, bus_width_bits, capacity_bytes)
    }

    /// LPDDR5X-7467 with the given total bus width and capacity
    /// (IdeaPad: 64-bit/32 GB).
    pub fn lpddr5x_7467(bus_width_bits: u64, capacity_bytes: u64) -> Self {
        Self::build(DramKind::Lpddr5x, 7467, bus_width_bits, capacity_bytes)
    }

    /// Controller clock frequency in MHz.
    pub fn clock_mhz(&self) -> u64 {
        self.data_rate_mbps / 8
    }

    /// Theoretical peak bandwidth of the whole memory system in bytes/second.
    pub fn peak_bandwidth_bytes_per_sec(&self) -> f64 {
        self.data_rate_mbps as f64 * 1.0e6 * (self.bus_width_bits as f64 / 8.0)
    }

    /// Peak bandwidth of a single channel in bytes/second.
    pub fn channel_bandwidth_bytes_per_sec(&self) -> f64 {
        self.peak_bandwidth_bytes_per_sec() / self.topology.channels as f64
    }

    /// Convert a cycle count at the controller clock into nanoseconds.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * self.timing.tck_ps as f64 / 1000.0
    }

    /// Convert nanoseconds into controller clock cycles (rounded up).
    pub fn ns_to_cycles(&self, ns: f64) -> u64 {
        (ns * 1000.0 / self.timing.tck_ps as f64).ceil() as u64
    }

    /// Total capacity of the memory system in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.topology.capacity_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jetson_spec_matches_table2() {
        let spec = DramSpec::lpddr5_6400(256, 64 << 30);
        assert_eq!(spec.topology.channels, 16);
        assert_eq!(spec.topology.ranks, 2);
        assert_eq!(spec.topology.banks(), 16);
        // Peak BW: 6400 MT/s * 256 bits / 8 = 204.8 GB/s.
        let gbs = spec.peak_bandwidth_bytes_per_sec() / 1e9;
        assert!((gbs - 204.8).abs() < 1e-6, "got {gbs}");
    }

    #[test]
    fn ideapad_spec_matches_table2() {
        let spec = DramSpec::lpddr5x_7467(64, 32 << 30);
        assert_eq!(spec.topology.channels, 4);
        let gbs = spec.peak_bandwidth_bytes_per_sec() / 1e9;
        assert!((gbs - 59.736).abs() < 0.1, "got {gbs}");
    }

    #[test]
    fn burst_sustains_pin_bandwidth() {
        let spec = DramSpec::lpddr5_6400(64, 8 << 30);
        // One 32-byte transfer every tCCD(=burst) cycles must equal the
        // channel pin bandwidth.
        let per_cycle_ns = spec.timing.tck_ps as f64 / 1000.0;
        let bw = 32.0 / (spec.timing.ccd_l as f64 * per_cycle_ns) * 1e9;
        assert!((bw - spec.channel_bandwidth_bytes_per_sec()).abs() / bw < 1e-9);
    }

    #[test]
    fn timing_cycles_are_sane() {
        let spec = DramSpec::lpddr5_6400(256, 64 << 30);
        let t = &spec.timing;
        assert!(t.rcd > 0 && t.rp > 0 && t.ras > t.rcd);
        assert_eq!(t.rc, t.ras + t.rp);
        assert!(t.faw >= t.rrd_s, "FAW must cover at least one tRRD");
        // 800 MHz controller clock for LPDDR5-6400.
        assert_eq!(spec.clock_mhz(), 800);
        assert_eq!(t.tck_ps, 1250);
    }

    #[test]
    fn rows_per_bank_power_of_two() {
        for (bus, cap) in [(256u64, 64u64 << 30), (512, 64 << 30), (64, 32 << 30), (64, 8 << 30)] {
            let spec = DramSpec::lpddr5_6400(bus, cap);
            assert!(spec.topology.rows.is_power_of_two());
            assert_eq!(spec.capacity_bytes(), cap);
        }
    }

    #[test]
    fn cycles_ns_roundtrip() {
        let spec = DramSpec::lpddr5_6400(64, 8 << 30);
        let ns = spec.cycles_to_ns(1000);
        assert_eq!(spec.ns_to_cycles(ns), 1000);
    }

    #[test]
    fn display_kind() {
        assert_eq!(DramKind::Lpddr5.to_string(), "LPDDR5");
        assert_eq!(DramKind::Lpddr5x.to_string(), "LPDDR5X");
    }
}
