//! Cost models for ranking mapping candidates.
//!
//! Two evaluators share one scoring convention (lower is better, units are
//! DRAM command-clock cycles per weight-streaming pass):
//!
//! * **Analytic** — walks the candidate scheme over *address windows* (one
//!   full PU rotation: `total_banks x (row_bytes << MapID)` bytes, never
//!   crossing a huge page because `MapID <= in_page_row_bits`), bins each
//!   chunk-row block into its (bank, channel) via the real `map_pa`, and
//!   takes the makespan as the max of per-bank row-service time and
//!   per-channel bus occupancy. Cheap enough to score every candidate.
//! * **Measured** — replays a sampled window through the cycle-accurate
//!   [`DramSystem`](facil_dram::DramSystem) scheduler via its `run_trace` entry point and scores on real
//!   `finish_cycle` plus the same reduction term. Expensive; the search
//!   only runs it for the analytically top-ranked few, and replays each
//!   distinct (scheme, window) once per search, however many tensors
//!   share it.
//!
//! GEMV passes place a barrier after every window (the SoC must reduce the
//! window's partial sums before accumulating the next); GEMM passes
//! pipeline freely, so they pool all windows before taking the makespan.
//! A MapID below the matrix-row size splits each output row over
//! `partitions` PUs and the model charges the SoC-side reduction
//! explicitly — this is the term that penalizes over-aggressive
//! distribution and keeps the search honest.
//!
//! The analytic model can be calibrated with a measured row-buffer hit
//! rate from [`WorkloadProfile::measured_hit_rate`]; with no measurement
//! it assumes the closed-page worst case (`h = 0`), which matches the
//! FR-FCFS scheduler's behavior on streaming weight reads.

use crate::candidates::Candidate;
use crate::profile::WorkloadProfile;
use facil_core::{FacilError, MappingScheme, MatrixConfig, PimArch, Result};
use facil_dram::{run_trace, sequential_trace, DramSpec, DramStats, Op};
use facil_telemetry::memo::Memo;

/// Window replays already run in one search, keyed on (scheme, window
/// base, window length). The spec is fixed for the search, so the key
/// fixes the request stream and the replay's counters.
pub(crate) type ReplayMemo = Memo<(MappingScheme, u64, u64), Result<DramStats>>;

/// Windows the analytic model bins per candidate (stride-sampled, no RNG).
const ANALYTIC_WINDOWS: u64 = 4;

/// Windows the measured model replays through the cycle-accurate scheduler.
const MEASURED_WINDOWS: u64 = 1;

/// Analytic score breakdown for one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticCost {
    /// Weighted total (lower is better).
    pub score: f64,
    /// Estimated cycles for one GEMV pass (windows barriered).
    pub gemv_cycles: f64,
    /// Estimated cycles for one GEMM pass (windows pooled).
    pub gemm_cycles: f64,
    /// SoC-side partial-sum reduction cycles per GEMV pass.
    pub reduction_cycles: f64,
    /// PUs each output row is split across.
    pub partitions: u64,
    /// Windows the estimate was extrapolated from.
    pub windows_sampled: usize,
}

/// Cycle-accurate score for one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredCost {
    /// Weighted total on the same scale as [`AnalyticCost::score`].
    pub score: f64,
    /// Scheduler `finish_cycle` sum, extrapolated to the full matrix.
    pub stream_cycles: f64,
    /// Merged DRAM counters from the sampled windows (unscaled).
    pub stats: DramStats,
    /// Windows actually replayed.
    pub windows_sampled: usize,
}

/// Scores candidates for one matrix under one workload profile.
#[derive(Debug, Clone)]
pub struct CostModel<'a> {
    spec: &'a DramSpec,
    arch: &'a PimArch,
    matrix: MatrixConfig,
    gemv_weight: f64,
    gemm_weight: f64,
    hit_rate: f64,
}

impl<'a> CostModel<'a> {
    /// Build a model for `matrix` using `profile`'s pass mix and (if
    /// present) measured hit-rate calibration.
    pub fn new(
        spec: &'a DramSpec,
        arch: &'a PimArch,
        matrix: MatrixConfig,
        profile: &WorkloadProfile,
    ) -> Self {
        CostModel {
            spec,
            arch,
            matrix,
            gemv_weight: profile.gemv_weight,
            gemm_weight: profile.gemm_weight,
            hit_rate: profile.measured_hit_rate().unwrap_or(0.0).clamp(0.0, 1.0),
        }
    }

    /// Matrix the model scores placements of.
    pub fn matrix(&self) -> &MatrixConfig {
        &self.matrix
    }

    /// Bytes of one full PU rotation under `map_id`.
    fn window_bytes(&self, map_id: u8) -> u64 {
        let topo = self.spec.topology;
        topo.total_banks() * (topo.row_bytes << map_id)
    }

    /// Cycles a bank is busy serving one chunk-row block: the larger of
    /// the activate-cadence bound (`tRC` between activates to one bank)
    /// and the column-plus-turnaround bound, with the activate share
    /// discounted by the calibrated open-row probability.
    fn block_service_cycles(&self) -> f64 {
        let t = &self.spec.timing;
        let cols = (self.arch.chunk_row_bytes / self.spec.topology.transfer_bytes) as f64;
        let miss = 1.0 - self.hit_rate;
        let act_bound = t.rc as f64 * miss;
        let col_bound = cols * t.ccd_l as f64 + (t.rcd + t.rtp + t.rp) as f64 * miss;
        act_bound.max(col_bound)
    }

    /// Pipeline fill for the first access of a burst of work.
    fn startup_cycles(&self) -> f64 {
        let t = &self.spec.timing;
        (t.rcd + t.cl + t.burst_cycles) as f64
    }

    /// SoC-side reduction cycles per GEMV pass when each output row is
    /// split over `partitions` PUs: the partial sums (one f32 per PU per
    /// row) cross the bus once, plus a drain latency per partition.
    fn reduction_cycles(&self, partitions: u64) -> f64 {
        if partitions <= 1 {
            return 0.0;
        }
        let topo = self.spec.topology;
        let t = &self.spec.timing;
        let bytes = self.matrix.rows * partitions * 4;
        let transfers = bytes.div_ceil(topo.transfer_bytes);
        let bus = transfers as f64 * t.burst_cycles as f64 / topo.channels as f64;
        bus + partitions as f64 * self.startup_cycles()
    }

    /// Score a candidate with the analytic window model.
    ///
    /// # Errors
    ///
    /// Propagates scheme construction / partitioning errors.
    pub fn analytic(&self, candidate: &Candidate) -> Result<AnalyticCost> {
        let topo = self.spec.topology;
        let decision = candidate.decision(&self.matrix, topo, self.arch)?;
        let scheme = decision.scheme;
        let bytes = self.matrix.padded_bytes();
        let window = self.window_bytes(candidate.map_id);
        let n_windows = bytes.div_ceil(window).max(1);
        let sampled = ANALYTIC_WINDOWS.min(n_windows);

        let chunk = self.arch.chunk_row_bytes;
        let block_service = self.block_service_cycles();
        let cols_per_block = (chunk / topo.transfer_bytes) as f64;
        let burst = self.spec.timing.burst_cycles as f64;
        let n_banks = topo.total_banks() as usize;
        let n_chans = topo.channels as usize;

        let mut bank_busy = vec![0.0f64; n_banks];
        let mut chan_busy = vec![0.0f64; n_chans];
        let mut pooled_bank = vec![0.0f64; n_banks];
        let mut pooled_chan = vec![0.0f64; n_chans];
        let mut gemv = 0.0f64;
        let scale = n_windows as f64 / sampled as f64;

        for s in 0..sampled {
            // Stride sampling: deterministic, covers the range evenly and
            // (for s-th sample of the last stride) the tail partial window.
            let w = s * n_windows / sampled;
            let base = w * window;
            let len = window.min(bytes - base);
            bank_busy.iter_mut().for_each(|b| *b = 0.0);
            chan_busy.iter_mut().for_each(|c| *c = 0.0);
            for blk in 0..(len / chunk) {
                let da = scheme.map_pa(base + blk * chunk);
                bank_busy[da.flat_bank(&topo) as usize] += block_service;
                chan_busy[da.channel as usize] += cols_per_block * burst;
            }
            let bank_max = bank_busy.iter().copied().fold(0.0, f64::max);
            let chan_max = chan_busy.iter().copied().fold(0.0, f64::max);
            gemv += bank_max.max(chan_max) + self.startup_cycles();
            for (p, b) in pooled_bank.iter_mut().zip(&bank_busy) {
                *p += *b;
            }
            for (p, c) in pooled_chan.iter_mut().zip(&chan_busy) {
                *p += *c;
            }
        }
        let gemv_cycles = gemv * scale;
        let pooled_bank_max = pooled_bank.iter().copied().fold(0.0, f64::max);
        let pooled_chan_max = pooled_chan.iter().copied().fold(0.0, f64::max);
        let gemm_cycles = pooled_bank_max.max(pooled_chan_max) * scale + self.startup_cycles();
        let reduction = self.reduction_cycles(decision.partitions);
        Ok(AnalyticCost {
            score: self.gemv_weight * (gemv_cycles + reduction) + self.gemm_weight * gemm_cycles,
            gemv_cycles,
            gemm_cycles,
            reduction_cycles: reduction,
            partitions: decision.partitions,
            windows_sampled: sampled as usize,
        })
    }

    /// Score a candidate by replaying sampled windows through the real
    /// FR-FCFS scheduler.
    ///
    /// # Errors
    ///
    /// Propagates scheme construction errors; a mapping fault from the
    /// scheduler (impossible for a validated scheme) is surfaced as
    /// [`FacilError::InvalidMapping`] rather than panicking.
    pub fn measured(&self, candidate: &Candidate) -> Result<MeasuredCost> {
        self.measured_in(candidate, &ReplayMemo::default())
    }

    /// [`CostModel::measured`], replaying only the windows `replays` does
    /// not hold yet.
    pub(crate) fn measured_in(
        &self,
        candidate: &Candidate,
        replays: &ReplayMemo,
    ) -> Result<MeasuredCost> {
        let topo = self.spec.topology;
        let decision = candidate.decision(&self.matrix, topo, self.arch)?;
        let bytes = self.matrix.padded_bytes();
        let window = self.window_bytes(candidate.map_id);
        let n_windows = bytes.div_ceil(window).max(1);
        let sampled = MEASURED_WINDOWS.min(n_windows);

        let mut cycles = 0.0f64;
        let mut stats = DramStats::default();
        for s in 0..sampled {
            let w = s * n_windows / sampled;
            let base = w * window;
            let len = window.min(bytes - base);
            let key = (decision.scheme.clone(), base, len);
            let window_stats =
                replays.get_or_insert_with(key, || self.replay(&decision.scheme, base, len))?;
            cycles += window_stats.finish_cycle as f64;
            stats.merge(&window_stats);
        }
        let stream_cycles = cycles * n_windows as f64 / sampled as f64;
        let reduction = self.reduction_cycles(decision.partitions);
        Ok(MeasuredCost {
            score: stream_cycles + self.gemv_weight * reduction,
            stream_cycles,
            stats,
            windows_sampled: sampled as usize,
        })
    }

    /// Replay the `len` bytes from `base` under `scheme` through the
    /// cycle-accurate scheduler.
    fn replay(&self, scheme: &MappingScheme, base: u64, len: u64) -> Result<DramStats> {
        let tx = self.spec.topology.transfer_bytes;
        let trace = sequential_trace(base, len / tx, tx, Op::Read);
        let result = run_trace(self.spec, scheme, trace).map_err(|fault| {
            FacilError::InvalidMapping(format!(
                "validated scheme '{}' faulted during replay: {fault:?}",
                scheme.label()
            ))
        })?;
        Ok(result.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facil_core::DType;

    fn setup() -> (DramSpec, PimArch) {
        // iPhone-class: 4ch x 2rk x 16 banks, 2 KB rows.
        let spec = DramSpec::lpddr5_6400(64, 8 << 30);
        let topo = spec.topology;
        assert_eq!(
            (topo.channels, topo.ranks, topo.total_banks(), topo.row_bytes),
            (4, 2, 128, 2048)
        );
        let arch = PimArch::aim(&topo);
        (spec, arch)
    }

    fn model<'a>(spec: &'a DramSpec, arch: &'a PimArch, matrix: MatrixConfig) -> CostModel<'a> {
        let profile = WorkloadProfile::decode_only("t", vec![]);
        CostModel::new(spec, arch, matrix, &profile)
    }

    #[test]
    fn skinny_matrix_prefers_wider_distribution() {
        let (spec, arch) = setup();
        // 64x4096 f16 = 512 KB: at MapID=2 the 1 MB window only half-fills,
        // so 64 of 128 banks sit idle; MapID=1 engages all of them.
        let m = model(&spec, &arch, MatrixConfig::new(64, 4096, DType::F16));
        let paper = m.analytic(&Candidate::paper(2)).unwrap();
        let wider = m.analytic(&Candidate::paper(1)).unwrap();
        assert!(
            wider.score < paper.score,
            "MapID=1 {} should beat MapID=2 {}",
            wider.score,
            paper.score
        );
        assert_eq!(wider.partitions, 2);
        assert!(wider.reduction_cycles > 0.0);
        assert_eq!(paper.partitions, 1);
        assert_eq!(paper.reduction_cycles, 0.0);
    }

    #[test]
    fn measured_agrees_with_analytic_on_ranking_direction() {
        let (spec, arch) = setup();
        let m = model(&spec, &arch, MatrixConfig::new(64, 4096, DType::F16));
        let paper = m.measured(&Candidate::paper(2)).unwrap();
        let wider = m.measured(&Candidate::paper(1)).unwrap();
        assert!(
            wider.score < paper.score,
            "cycle-accurate replay must confirm the window-coverage win: \
             MapID=1 {} vs MapID=2 {}",
            wider.score,
            paper.score
        );
        assert!(wider.stats.column_accesses() > 0);
    }

    #[test]
    fn calibrated_hit_rate_lowers_service_estimate() {
        let (spec, arch) = setup();
        let matrix = MatrixConfig::new(2048, 2048, DType::F16);
        let cold = model(&spec, &arch, matrix);
        let profile = WorkloadProfile::decode_only("t", vec![]).with_measured(DramStats {
            row_hits: 9,
            row_misses: 1,
            ..Default::default()
        });
        let warm = CostModel::new(&spec, &arch, matrix, &profile);
        let c = Candidate::paper(0);
        assert!(
            warm.block_service_cycles() < cold.block_service_cycles(),
            "a measured open-row probability must discount the activate share"
        );
        // The end-to-end score can be channel-bound (the bus term ignores
        // row state), so calibration never *raises* it but may not lower it.
        assert!(warm.analytic(&c).unwrap().score <= cold.analytic(&c).unwrap().score);
    }

    #[test]
    fn gemm_weight_discounts_the_window_barrier() {
        let (spec, arch) = setup();
        let matrix = MatrixConfig::new(8192, 2048, DType::F16);
        let profile = WorkloadProfile::decode_only("t", vec![]);
        let gemv_model = CostModel::new(&spec, &arch, matrix, &profile);
        let gemm_profile = profile.clone().with_mix(0.0, 1.0);
        let gemm_model = CostModel::new(&spec, &arch, matrix, &gemm_profile);
        let c = Candidate::paper(1);
        let gemv = gemv_model.analytic(&c).unwrap();
        let gemm = gemm_model.analytic(&c).unwrap();
        // Pooling windows (no barrier) can only help.
        assert!(gemm.score <= gemv.score);
        assert_eq!(gemm.gemv_cycles, gemv.gemv_cycles, "breakdown is mix-independent");
    }
}
