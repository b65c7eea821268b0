//! DRAM energy model (DRAMPower-style, IDD-derived approximations).
//!
//! Energy per operation for LPDDR5-class devices, used by the
//! energy-per-token experiment: one of the qualitative claims around
//! near-bank PIM is that it saves the interface (I/O) energy of moving
//! weights across the bus, since MAC operands never leave the die.

use crate::spec::DramSpec;
use crate::stats::DramStats;

/// Per-operation energy parameters, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy of one ACT+PRE pair (row cycle), pJ.
    pub act_pre_pj: f64,
    /// Core (array) energy per column access, pJ per transfer.
    pub core_access_pj: f64,
    /// Interface (I/O + bus) energy per *bit* moved across the pins, pJ.
    pub io_pj_per_bit: f64,
    /// Refresh energy per all-bank refresh, pJ.
    pub refresh_pj: f64,
    /// Background power per rank, milliwatts.
    pub background_mw_per_rank: f64,
}

impl Default for EnergyModel {
    /// LPDDR5-class figures: ~2 nJ per row cycle, ~0.3 nJ core per 32 B
    /// column access, ~2 pJ/bit interface energy, ~28 nJ per tRFCab.
    fn default() -> Self {
        EnergyModel {
            act_pre_pj: 2000.0,
            core_access_pj: 300.0,
            io_pj_per_bit: 2.0,
            refresh_pj: 28_000.0,
            background_mw_per_rank: 40.0,
        }
    }
}

/// Energy breakdown of a simulated interval, in microjoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Row activate/precharge energy.
    pub act_pre_uj: f64,
    /// Core column-access energy.
    pub core_uj: f64,
    /// Interface (pin) energy — zero for PIM-internal accesses.
    pub io_uj: f64,
    /// Refresh energy.
    pub refresh_uj: f64,
    /// Background energy over the elapsed time.
    pub background_uj: f64,
}

impl EnergyBreakdown {
    /// Total energy in microjoules.
    pub fn total_uj(&self) -> f64 {
        self.act_pre_uj + self.core_uj + self.io_uj + self.refresh_uj + self.background_uj
    }
}

impl EnergyModel {
    /// Energy of a scheduled interval described by `stats` over
    /// `elapsed_ns`, with data crossing the pins (normal SoC access).
    pub fn energy(&self, spec: &DramSpec, stats: &DramStats, elapsed_ns: f64) -> EnergyBreakdown {
        self.energy_inner(spec, stats, elapsed_ns, true)
    }

    /// Energy of a PIM-internal interval: column data is consumed by the
    /// near-bank PUs and never crosses the interface (no I/O energy).
    pub fn energy_internal(
        &self,
        spec: &DramSpec,
        stats: &DramStats,
        elapsed_ns: f64,
    ) -> EnergyBreakdown {
        self.energy_inner(spec, stats, elapsed_ns, false)
    }

    fn energy_inner(
        &self,
        spec: &DramSpec,
        stats: &DramStats,
        elapsed_ns: f64,
        io: bool,
    ) -> EnergyBreakdown {
        let accesses = (stats.reads + stats.writes) as f64;
        let bits = stats.bytes(spec.topology.transfer_bytes) as f64 * 8.0;
        let ranks = (spec.topology.channels * spec.topology.ranks) as f64;
        EnergyBreakdown {
            act_pre_uj: stats.activates as f64 * self.act_pre_pj / 1e6,
            core_uj: accesses * self.core_access_pj / 1e6,
            io_uj: if io { bits * self.io_pj_per_bit / 1e6 } else { 0.0 },
            refresh_uj: stats.refreshes as f64 * self.refresh_pj / 1e6,
            background_uj: self.background_mw_per_rank * ranks * elapsed_ns / 1e9 / 1e3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DramStats;

    fn spec() -> DramSpec {
        DramSpec::lpddr5_6400(64, 8 << 30)
    }

    /// Stats of reading `bytes` once with the given row-buffer hit rate,
    /// and the time that takes at peak bandwidth.
    fn streaming(spec: &DramSpec, bytes: u64, hit_rate: f64) -> (DramStats, f64) {
        let accesses = bytes.div_ceil(spec.topology.transfer_bytes);
        let rows = (accesses as f64 * (1.0 - hit_rate)).ceil();
        let stats = DramStats { reads: accesses, activates: rows as u64, ..Default::default() };
        (stats, bytes as f64 / spec.peak_bandwidth_bytes_per_sec() * 1e9)
    }

    #[test]
    fn internal_access_saves_io_energy() {
        let m = EnergyModel::default();
        let stats = DramStats { reads: 1000, activates: 20, ..Default::default() };
        let ext = m.energy(&spec(), &stats, 10_000.0);
        let int = m.energy_internal(&spec(), &stats, 10_000.0);
        assert!(ext.total_uj() > int.total_uj());
        assert_eq!(int.io_uj, 0.0);
        assert!(ext.io_uj > 0.0);
        // Everything else identical.
        assert_eq!(ext.core_uj, int.core_uj);
        assert_eq!(ext.act_pre_uj, int.act_pre_uj);
    }

    #[test]
    fn energy_scales_with_traffic() {
        let m = EnergyModel::default();
        let s1 = DramStats { reads: 1000, activates: 10, ..Default::default() };
        let s2 = DramStats { reads: 2000, activates: 20, ..Default::default() };
        let e1 = m.energy(&spec(), &s1, 1000.0);
        let e2 = m.energy(&spec(), &s2, 1000.0);
        assert!((e2.core_uj / e1.core_uj - 2.0).abs() < 1e-9);
        assert!((e2.io_uj / e1.io_uj - 2.0).abs() < 1e-9);
        assert_eq!(e1.background_uj, e2.background_uj, "background depends only on time");
    }

    #[test]
    fn lower_hit_rate_costs_more() {
        let m = EnergyModel::default();
        let s = spec();
        let (hot, ns) = streaming(&s, 1 << 20, 0.95);
        let (cold, _) = streaming(&s, 1 << 20, 0.1);
        assert!(m.energy(&s, &cold, ns).total_uj() > m.energy(&s, &hot, ns).total_uj());
    }

    #[test]
    fn io_energy_magnitude_is_plausible() {
        // Streaming 1 GB at 2 pJ/bit ~ 17 mJ of interface energy.
        let m = EnergyModel::default();
        let s = spec();
        let (stats, ns) = streaming(&s, 1 << 30, 0.9);
        let uj = m.energy(&s, &stats, ns).total_uj();
        assert!((10_000.0..60_000.0).contains(&uj), "got {uj} uJ");
    }
}
