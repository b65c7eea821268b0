//! Replayable all-bank command sequence of one PIM GEMV.
//!
//! [`gemv::PimEngine`](crate::gemv::PimEngine) *times* the all-bank stream;
//! this module makes the same stream *replayable*: [`CommandSequence::trace`]
//! walks a placed matrix chunk by chunk through the page table and mapping
//! scheme, validates every placement invariant the all-bank hardware relies
//! on, and records the stream as one [`RankPass`] per rank per wave: the
//! global-buffer slices that rank stages, and which bank MACs which matrix
//! row in which register slot. A functional interpreter (`facil-fidelity`)
//! executes it pass by pass over a byte-accurate
//! [`facil_dram::BankedMemory`]; [`CommandSequence::to_streams`] lowers it to
//! the exact [`facil_dram::PimStream`]s the timing model simulates, so one
//! JEDEC-legality checker ([`facil_dram::verify_allbank_log`]) covers both.
//! Neither regroups the stream: the passes are each rank's one statement of
//! its staging.
//!
//! The tracer is the one placement check. On every chunk it enforces the
//! §II-C properties — chunk contiguity, each row on exactly `partitions` PUs,
//! rows `r` and `r + chunk_rows` of a tile in lock-step on different PUs —
//! and the all-bank ones: one broadcast row per wave, bank-stable registers.
//! Its state is dense and spans one tile: the walk is tile-major, so a tile's
//! chunk rows are grouped into waves, passes and banks as the tile completes.
//!
//! One *wave* is one all-bank step: `GB-load* → ACT-AB → MAC-AB* → PRE-AB`
//! on every rank that owns weights for it, all banks in lock-step on one
//! broadcast row address. Waves are ordered tile-major, segment-ascending —
//! the same order [`functional::pim_gemv`](crate::functional::pim_gemv)
//! accumulates in, which is what makes the replay bit-exact.

use std::iter::once;

use facil_core::{FacilError, FacilSystem, MatrixConfig, PimAllocation};
use facil_dram::{AddressMapper, PimStream, Topology};

use crate::layout::PimPlacement;

/// One global-buffer slice a rank stages for a wave: the input-vector span
/// the PUs of partition `partition` consume during that wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GbSlice {
    /// Partition index (0 when the row is unpartitioned).
    pub partition: u64,
    /// First input-vector element of the slice.
    pub input_elem0: u64,
    /// Live elements in the slice (< chunk elements only for a ragged tail).
    pub elems: u64,
}

/// One chunk row a bank MACs during a wave. It reads its pass's
/// [`GbSlice`] of `partition` and starts at DRAM column
/// `slot × chunk transfers`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRowTask {
    /// Matrix row this chunk row belongs to.
    pub matrix_row: u64,
    /// Partition index of the chunk (which partial sum it feeds).
    pub partition: u64,
    /// Chunk-row slot within the DRAM row (always 0 for AiM; 0..8 for
    /// HBM-PIM, selecting the PU output register).
    pub slot: u64,
}

/// All chunk rows one bank processes during a wave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankTask {
    /// Bank index within the rank.
    pub bank: u64,
    /// Chunk rows, slot-ascending.
    pub rows: Vec<ChunkRowTask>,
}

/// One rank's part of a wave: the global-buffer slices it stages, then the
/// banks that MAC against them in lock-step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankPass {
    /// Channel of the rank.
    pub channel: u64,
    /// Rank index within the channel.
    pub rank: u64,
    /// Slices staged, one per partition the rank's banks read,
    /// partition-ascending.
    pub gb: Vec<GbSlice>,
    /// Per-bank work, bank-ascending.
    pub banks: Vec<BankTask>,
}

/// One all-bank step: every rank that owns weights for it makes one pass,
/// all on the same broadcast row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wave {
    /// Tile index (PU output registers accumulate across the waves of one
    /// tile and drain between tiles).
    pub tile: u64,
    /// Input segment index within the tile.
    pub segment: u64,
    /// The DRAM row every bank activates (all-bank ACT broadcasts one row
    /// address).
    pub dram_row: u64,
    /// One pass per rank with work, (channel, rank)-ascending.
    pub ranks: Vec<RankPass>,
}

/// One command of the functional replay stream. The kinds mirror
/// [`facil_dram::AllBankCommandKind`]; here they carry the operands a
/// functional interpreter needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PimCommand {
    /// Load one transfer of the input vector into a rank's global buffer.
    GbLoad {
        /// Target channel.
        channel: u64,
        /// Target rank.
        rank: u64,
        /// Partition whose slice this transfer fills.
        partition: u64,
        /// First input-vector element of the transfer.
        input_elem0: u64,
        /// Live elements in the transfer (0 for the zero-padded tail).
        elems: u64,
    },
    /// Activate one DRAM row in every bank of the rank.
    ActAb {
        /// Target channel.
        channel: u64,
        /// Target rank.
        rank: u64,
        /// Broadcast row address.
        dram_row: u64,
    },
    /// One MAC beat: every bank multiplies the transfer at `column` of its
    /// open row against the matching global-buffer elements.
    MacAb {
        /// Target channel.
        channel: u64,
        /// Target rank.
        rank: u64,
        /// DRAM column of the beat.
        column: u64,
    },
    /// Precharge the open row in every bank of the rank.
    PreAb {
        /// Target channel.
        channel: u64,
        /// Target rank.
        rank: u64,
    },
}

/// The fully validated, replayable all-bank command sequence of one GEMV.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandSequence {
    topo: Topology,
    matrix: MatrixConfig,
    placement: PimPlacement,
    /// Transfers per chunk row.
    chunk_tx: u64,
    /// fp16 elements per chunk row.
    chunk_elems: u64,
    waves: Vec<Wave>,
}

impl CommandSequence {
    /// Walk `alloc`'s matrix chunk by chunk through the page table and the
    /// allocation's mapping scheme, validating the all-bank invariants, and
    /// build the wave-ordered command sequence.
    ///
    /// # Errors
    ///
    /// * [`FacilError::InvalidMapping`] if the placement violates an
    ///   all-bank invariant: a chunk straddling banks or DRAM rows or
    ///   misaligned within a row, a wave needing more than one broadcast row
    ///   address, a chunk outside the partition range, a (padded) row not on
    ///   exactly `partitions` PUs, rows `r` and `r + chunk_rows` of a tile
    ///   not at one DRAM row and column on two PUs, or a PU output register
    ///   that would have to migrate between banks mid-tile (the bank-hash +
    ///   MapID > 0 case — accumulation would be lost);
    /// * [`FacilError::NotMapped`] if the allocation's VA range is no longer
    ///   mapped.
    pub fn trace(sys: &FacilSystem, alloc: &PimAllocation) -> facil_core::Result<Self> {
        let topo = sys.spec().topology;
        let arch = *sys.arch();
        let m = alloc.matrix;
        let d = &alloc.decision;
        if m.dtype.bytes() != 2 {
            return Err(FacilError::InvalidMapping(
                "functional replay models 16-bit weights".into(),
            ));
        }
        let max_partitions = if arch.chunk_rows > 1 { 1 } else { topo.total_banks() };
        if !(1..=max_partitions).contains(&d.partitions) {
            return Err(FacilError::InvalidMapping(format!(
                "{} partitions; a row spreads over 1 to {max_partitions} PUs here (multi-row \
                 chunks cannot be column-partitioned)",
                d.partitions
            )));
        }
        let placement = PimPlacement::new(&m, d, &topo, &arch);
        let chunk_elems = arch.chunk_row_bytes / 2;
        let chunk_tx = arch.chunk_row_bytes / topo.transfer_bytes;
        let tx = topo.transfer_bytes;
        let map_id = d.map_id.0;
        let seg_mask = (1u64 << map_id) - 1;
        let page_table = sys.page_table();
        let scheme = &d.scheme;
        let chunks = m.cols.div_ceil(chunk_elems);
        let slots = topo.columns() / chunk_tx;
        let rows_per_tile = placement.rows_per_tile;
        // Lane `r % chunk_rows` holds the (DRAM row, column, PU) of every
        // chunk of the last row traced in it: the lock-step peer of row `r`.
        let mut lanes = vec![vec![(0, 0, 0); chunks as usize]; arch.chunk_rows as usize];
        // `row_of_pu[flat] == r` once row `r` has touched PU `flat`.
        let mut row_of_pu = vec![u64::MAX; topo.total_banks() as usize];

        // Per-tile state, cleared as each tile completes. The register
        // binding must be a *bijection* within a tile: each PU output
        // register (flat bank, slot), at `flat * slots + slot`, accumulates
        // exactly one (matrix row, partition), and each (matrix row,
        // partition), at `(r % rows_per_tile) * partitions + partition`,
        // accumulates in exactly one register. Both directions are checked.
        // `dram_rows[segment]` is the broadcast row of the tile's wave.
        let mut registers = vec![None; (topo.total_banks() * slots) as usize];
        let mut reg_of = vec![None; (rows_per_tile * d.partitions) as usize];
        let mut dram_rows = vec![None; 1 << map_id];
        let mut waves = Vec::new();

        for r in 0..m.rows {
            let tile = r / rows_per_tile;
            let has_peer = r % rows_per_tile >= arch.chunk_rows;
            let lane = &mut lanes[(r % arch.chunk_rows) as usize];
            let mut row_pus = 0;
            // The padding of a row belongs to its partitions too.
            for j in 0..m.padded_row_bytes() / arch.chunk_row_bytes {
                let va = alloc.va + r * m.padded_row_bytes() + j * arch.chunk_row_bytes;
                let pa = page_table.translate(va)?.pa;
                let (first, run) = scheme.map_run(pa)?;
                let flat = first.flat_bank(&topo);
                if std::mem::replace(&mut row_of_pu[flat as usize], r) != r {
                    row_pus += 1;
                }
                if j >= chunks {
                    continue;
                }
                let segment = j & seg_mask;
                let partition = j >> map_id;
                if partition >= d.partitions {
                    return Err(FacilError::InvalidMapping(format!(
                        "chunk {j} of row {r} falls outside the {} partitions",
                        d.partitions
                    )));
                }
                if !first.column.is_multiple_of(chunk_tx) {
                    return Err(FacilError::InvalidMapping(format!(
                        "chunk {j} of row {r} is not chunk-row aligned (column {})",
                        first.column
                    )));
                }
                // The scheme places `run` transfers at consecutive columns
                // of one bank row; only a chunk past its run is walked.
                let elems = chunk_elems.min(m.cols - j * chunk_elems);
                for t in run..(elems * 2).div_ceil(tx) {
                    let da = scheme.map_pa(pa + t * tx);
                    if (da.channel, da.rank, da.bank, da.row)
                        != (first.channel, first.rank, first.bank, first.row)
                        || da.column != first.column + t
                    {
                        return Err(FacilError::InvalidMapping(format!(
                            "chunk {j} of row {r} is not contiguous in one DRAM row of one bank"
                        )));
                    }
                }
                let slot = first.column >> arch.chunk_col_bits(&topo);
                match registers[(flat * slots + slot) as usize].replace((r, partition)) {
                    Some(prev) if prev != (r, partition) => {
                        return Err(FacilError::InvalidMapping(format!(
                            "PU register (bank {flat}, slot {slot}) of tile {tile} is not \
                             bank-stable: rows {}/{r} both accumulate there (a bank hash with \
                             MapID > 0 moves chunks between banks mid-tile)",
                            prev.0
                        )));
                    }
                    _ => {}
                }
                let bound = &mut reg_of[((r % rows_per_tile) * d.partitions + partition) as usize];
                match bound.replace((flat, slot)) {
                    Some(prev) if prev != (flat, slot) => {
                        return Err(FacilError::InvalidMapping(format!(
                            "row {r} partition {partition} of tile {tile} is not bank-stable: \
                             its chunks land in registers (bank {}, slot {}) and (bank {flat}, \
                             slot {slot}) — the PU accumulator cannot migrate between banks \
                             mid-tile",
                            prev.0, prev.1
                        )));
                    }
                    _ => {}
                }
                let here = (first.row, first.column, flat);
                let peer = std::mem::replace(&mut lane[j as usize], here);
                if has_peer && ((peer.0, peer.1) != (here.0, here.1) || peer.2 == flat) {
                    return Err(FacilError::InvalidMapping(format!(
                        "rows {} and {r} of tile {tile} are not in lock-step: chunk {j} at \
                         (DRAM row, column, PU) {peer:?} and {here:?}",
                        r - arch.chunk_rows
                    )));
                }
                match dram_rows[segment as usize] {
                    None => dram_rows[segment as usize] = Some(first.row),
                    Some(row) if row != first.row => {
                        return Err(FacilError::InvalidMapping(format!(
                            "wave (tile {tile}, segment {segment}) needs rows {row} and {} — \
                             all-bank ACT broadcasts one row address",
                            first.row
                        )));
                    }
                    Some(_) => {}
                }
            }
            if row_pus != d.partitions {
                return Err(FacilError::InvalidMapping(format!(
                    "matrix row {r} touches {row_pus} PUs, expected {} partitions",
                    d.partitions
                )));
            }
            if (r + 1) % rows_per_tile != 0 && r + 1 != m.rows {
                continue;
            }
            // The tile is complete: group it into waves, segment-ascending,
            // and each wave into passes and banks in flat-bank order. The
            // (row, partition) of a register has a chunk in segment `s`
            // unless chunk `(partition << map_id) | s` is past the row's end.
            for (segment, dram_row) in (0..).zip(&mut dram_rows) {
                let Some(dram_row) = dram_row.take() else { continue };
                let mut ranks = Vec::new();
                for (pass, regs) in
                    (0..).zip(registers.chunks_exact((topo.banks() * slots) as usize))
                {
                    let (channel, rank) = (pass / topo.ranks, pass % topo.ranks);
                    let mut p = RankPass { channel, rank, gb: Vec::new(), banks: Vec::new() };
                    for (bank, regs) in (0..).zip(regs.chunks_exact(slots as usize)) {
                        let mut rows = Vec::new();
                        for (slot, reg) in (0..).zip(regs) {
                            let Some((matrix_row, partition)) = *reg else { continue };
                            let j = (partition << map_id) | segment;
                            if j >= chunks {
                                continue;
                            }
                            if let Err(i) = p.gb.binary_search_by_key(&partition, |s| s.partition) {
                                let elems = chunk_elems.min(m.cols - j * chunk_elems);
                                let input_elem0 = j * chunk_elems;
                                p.gb.insert(i, GbSlice { partition, input_elem0, elems });
                            }
                            rows.push(ChunkRowTask { matrix_row, partition, slot });
                        }
                        if !rows.is_empty() {
                            p.banks.push(BankTask { bank, rows });
                        }
                    }
                    if !p.banks.is_empty() {
                        ranks.push(p);
                    }
                }
                waves.push(Wave { tile, segment, dram_row, ranks });
            }
            registers.fill(None);
            reg_of.fill(None);
        }
        Ok(CommandSequence { topo, matrix: m, placement, chunk_tx, chunk_elems, waves })
    }

    /// The DRAM topology the sequence was traced against.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The matrix the sequence computes over.
    pub fn matrix(&self) -> &MatrixConfig {
        &self.matrix
    }

    /// The placement geometry.
    pub fn placement(&self) -> &PimPlacement {
        &self.placement
    }

    /// fp16 elements per chunk row.
    pub fn chunk_elems(&self) -> u64 {
        self.chunk_elems
    }

    /// The waves, tile-major and segment-ascending — replay order.
    pub fn waves(&self) -> &[Wave] {
        &self.waves
    }

    /// The commands of one rank's pass of `wave`: `GB-load* → ACT-AB →
    /// MAC-AB* → PRE-AB`, one GB load per transfer of each staged slice.
    pub fn pass_commands<'a>(
        &'a self,
        wave: &'a Wave,
        pass: &'a RankPass,
    ) -> impl Iterator<Item = PimCommand> + 'a {
        let (channel, rank) = (pass.channel, pass.rank);
        let elems_per_tx = self.topo.transfer_bytes / 2;
        let loads = pass.gb.iter().flat_map(move |s| {
            (0..self.chunk_tx).map(move |t| {
                let off = t * elems_per_tx;
                PimCommand::GbLoad {
                    channel,
                    rank,
                    partition: s.partition,
                    input_elem0: s.input_elem0 + off,
                    elems: elems_per_tx.min(s.elems.saturating_sub(off)),
                }
            })
        });
        let macs =
            (0..self.topo.columns()).map(move |column| PimCommand::MacAb { channel, rank, column });
        loads
            .chain(once(PimCommand::ActAb { channel, rank, dram_row: wave.dram_row }))
            .chain(macs)
            .chain(once(PimCommand::PreAb { channel, rank }))
    }

    /// The full replayable command stream, wave by wave and pass by pass.
    pub fn commands(&self) -> impl Iterator<Item = PimCommand> + '_ {
        self.waves
            .iter()
            .flat_map(move |w| w.ranks.iter().flat_map(move |p| self.pass_commands(w, p)))
    }

    /// Lower the sequence to the per-rank [`PimStream`]s of one channel,
    /// which [`facil_dram::run_allbank`] simulates to check the analytic
    /// [`crate::PimEngine::gemv`], so the timing simulation and the
    /// JEDEC-legality checker run off this one traced stream.
    ///
    /// Ranks with no work on `channel` are omitted.
    pub fn to_streams(
        &self,
        channel: u64,
        mac_interval: u64,
        double_buffer: bool,
    ) -> Vec<PimStream> {
        // Per rank: passes (one DRAM row each), and the most GB loads one
        // pass stages.
        let mut per_rank = vec![(0, 0); self.topo.ranks as usize];
        for pass in self.waves.iter().flat_map(|w| &w.ranks).filter(|p| p.channel == channel) {
            let (rows, gb_cmds) = &mut per_rank[pass.rank as usize];
            *rows += 1;
            *gb_cmds = (*gb_cmds).max(pass.gb.len() as u64 * self.chunk_tx);
        }
        (0..)
            .zip(per_rank)
            .filter(|(_, (rows, _))| *rows > 0)
            .map(|(rank, (rows, gb_cmds_per_row))| PimStream {
                rank,
                rows,
                gb_cmds_per_row,
                macs_per_row: self.topo.columns(),
                mac_interval,
                double_buffer,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facil_core::{
        decision_with_map_id, select_mapping_2mb, DType, Field, MapId, MappingDecision,
        MappingScheme, MatrixConfig, PimArch, Segment, HUGE_PAGE_BITS,
    };
    use facil_dram::DramSpec;

    fn iphone() -> FacilSystem {
        let spec = DramSpec::lpddr5_6400(64, 8 << 30);
        let arch = PimArch::aim(&spec.topology);
        FacilSystem::new(spec, arch)
    }

    #[test]
    fn trace_matches_placement_geometry() {
        let mut sys = iphone();
        let topo = sys.spec().topology;
        let m = MatrixConfig::new(2 * topo.total_banks(), 2048, DType::F16);
        let alloc = sys.pimalloc(m).unwrap();
        let seq = CommandSequence::trace(&sys, &alloc).unwrap();
        let p = seq.placement();
        assert_eq!(p.partitions, 1);
        assert_eq!(seq.waves().len() as u64, p.tiles * p.segments);
        for w in seq.waves() {
            // Unpartitioned AiM: every rank stages one full slice, the
            // wave's segment, and every bank MACs exactly one chunk row.
            assert_eq!(w.ranks.len() as u64, topo.channels * topo.ranks);
            for p in &w.ranks {
                assert_eq!(p.gb.len(), 1);
                assert_eq!(p.gb[0].elems, seq.chunk_elems());
                assert_eq!(p.gb[0].input_elem0, w.segment * seq.chunk_elems());
                assert_eq!(p.banks.len() as u64, topo.banks());
                for t in &p.banks {
                    assert_eq!(t.rows.len(), 1);
                    assert_eq!((t.rows[0].slot, t.rows[0].partition), (0, 0));
                }
            }
        }
        // Register bindings never repeat: rows * partitions distinct tasks.
        let tasks: u64 = seq
            .waves()
            .iter()
            .flat_map(|w| &w.ranks)
            .flat_map(|p| &p.banks)
            .map(|t| t.rows.len() as u64)
            .sum();
        assert_eq!(tasks, m.rows * m.cols.div_ceil(seq.chunk_elems()));
    }

    #[test]
    fn streams_match_timing_model_shape() {
        // Full tiles, unpartitioned: the lowered streams must be exactly
        // the one-per-rank streams the placement geometry implies.
        let spec = DramSpec::lpddr5_6400(16, 1 << 30); // one channel
        let arch = PimArch::aim(&spec.topology);
        let topo = spec.topology;
        let mut sys = FacilSystem::new(spec.clone(), arch);
        let m = MatrixConfig::new(2 * topo.total_banks(), 2048, DType::F16);
        let alloc = sys.pimalloc(m).unwrap();
        let seq = CommandSequence::trace(&sys, &alloc).unwrap();
        let placement = PimPlacement::new(&m, &alloc.decision, &topo, &arch);
        let want: Vec<PimStream> = (0..topo.ranks)
            .map(|rank| PimStream {
                rank,
                rows: placement.dram_rows_per_bank,
                gb_cmds_per_row: arch.chunk_row_bytes / topo.transfer_bytes,
                macs_per_row: topo.columns(),
                mac_interval: 2,
                double_buffer: true,
            })
            .collect();
        assert_eq!(seq.to_streams(0, 2, true), want);
        // And the traced streams are JEDEC-legal under the shared checker.
        let streams = seq.to_streams(0, 2, true);
        let (_, log) = facil_dram::run_allbank_logged(&spec, &streams);
        let violations = facil_dram::verify_allbank_log(&log, &spec.timing, &streams);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn command_counts_match_stream_shape() {
        let mut sys = iphone();
        let topo = sys.spec().topology;
        let m = MatrixConfig::new(topo.total_banks(), 2048, DType::F16);
        let alloc = sys.pimalloc(m).unwrap();
        let seq = CommandSequence::trace(&sys, &alloc).unwrap();
        let ranks_per_wave = topo.channels * topo.ranks;
        let waves = seq.waves().len() as u64;
        let gb = seq.commands().filter(|c| matches!(c, PimCommand::GbLoad { .. })).count() as u64;
        let macs = seq.commands().filter(|c| matches!(c, PimCommand::MacAb { .. })).count() as u64;
        let acts = seq.commands().filter(|c| matches!(c, PimCommand::ActAb { .. })).count() as u64;
        assert_eq!(gb, waves * ranks_per_wave * (sys.arch().chunk_row_bytes / topo.transfer_bytes));
        assert_eq!(macs, waves * ranks_per_wave * topo.columns());
        assert_eq!(acts, waves * ranks_per_wave);
    }

    #[test]
    fn hbm_pim_fills_slots() {
        let spec = DramSpec::lpddr5_6400(16, 2 << 30);
        let arch = PimArch::hbm_pim(&spec.topology);
        let mut sys = FacilSystem::new(spec, arch);
        let alloc = sys.pimalloc(MatrixConfig::new(64, 1024, DType::F16)).unwrap();
        let seq = CommandSequence::trace(&sys, &alloc).unwrap();
        for w in seq.waves() {
            for t in w.ranks.iter().flat_map(|p| &p.banks) {
                // 8 matrix rows share the DRAM row at distinct slots.
                let slots: Vec<u64> = t.rows.iter().map(|r| r.slot).collect();
                assert_eq!(slots, (0..8).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn bank_hash_with_mapid_zero_traces() {
        let mut sys = iphone();
        let topo = sys.spec().topology;
        let arch = *sys.arch();
        // 1024 cols = one chunk per row: MapID 0, hash-safe.
        let m = MatrixConfig::new(16, 1024, DType::F16);
        let d = decision_with_map_id(&m, topo, &arch, 0, HUGE_PAGE_BITS).unwrap();
        let hashed = MappingDecision { scheme: d.scheme.clone().with_bank_hash(), ..d };
        let alloc = sys.pimalloc_with(m, hashed).unwrap();
        assert!(CommandSequence::trace(&sys, &alloc).is_ok());
    }

    #[test]
    fn bank_hash_with_mapid_above_zero_is_rejected() {
        let mut sys = iphone();
        let topo = sys.spec().topology;
        let arch = *sys.arch();
        // 2048 cols = two chunks per row at MapID 1: the hash XORs the bank
        // with row bits that differ between the two segments, so the PU
        // accumulator would migrate between banks mid-tile.
        let m = MatrixConfig::new(16, 2048, DType::F16);
        let d = decision_with_map_id(&m, topo, &arch, 1, HUGE_PAGE_BITS).unwrap();
        assert_eq!(d.partitions, 1);
        let hashed = MappingDecision { scheme: d.scheme.clone().with_bank_hash(), ..d };
        let alloc = sys.pimalloc_with(m, hashed).unwrap();
        let err = CommandSequence::trace(&sys, &alloc).unwrap_err();
        assert!(matches!(err, FacilError::InvalidMapping(_)), "{err}");
        assert!(err.to_string().contains("bank-stable"), "{err}");
    }

    #[test]
    fn conventional_mapping_fails_chunk_contiguity() {
        // The conventional scheme scatters a chunk across channels.
        let mut sys = iphone();
        let m = MatrixConfig::new(2048, 2048, DType::F16);
        let d = select_mapping_2mb(&m, sys.spec().topology, sys.arch()).unwrap();
        let scheme = MappingScheme::conventional(sys.spec().topology);
        let alloc = sys.pimalloc_with(m, MappingDecision { scheme, ..d }).unwrap();
        let err = CommandSequence::trace(&sys, &alloc).unwrap_err();
        assert!(matches!(err, FacilError::InvalidMapping(_)), "{err}");
        assert!(err.to_string().contains("not contiguous"), "{err}");
    }

    #[test]
    fn chunk_past_its_mapped_run_is_walked() {
        // The stock scheme's column bits split over two adjacent segments:
        // every address maps alike, but `map_run` promises 8 transfers of a
        // 64-transfer chunk, so the tracer must walk the rest of the chunk.
        let m = MatrixConfig::new(64, 2048, DType::F16);
        let mut sys = iphone();
        let topo = sys.spec().topology;
        let stock = sys.pimalloc(m).unwrap();
        let scheme = &stock.decision.scheme;
        let mut segments = scheme.segments().to_vec();
        let Segment { field: Field::Column, width } = segments[1] else {
            panic!("{scheme}: no column segment above the transfer bits")
        };
        segments[1].width = width / 2;
        segments.insert(2, Segment { field: Field::Column, width: width - width / 2 });
        let split = MappingScheme::from_segments(topo, segments, "split column").unwrap();
        let pa = stock.pages[0];
        assert!((pa..pa + (2 << 20)).step_by(32).all(|pa| split.map_pa(pa) == scheme.map_pa(pa)));
        assert_eq!((scheme.map_run(pa).unwrap().1, split.map_run(pa).unwrap().1), (64, 8));
        let mut other = iphone();
        let decision = MappingDecision { scheme: split, ..stock.decision.clone() };
        let alloc = other.pimalloc_with(m, decision).unwrap();
        let want = CommandSequence::trace(&sys, &stock).unwrap();
        let got = CommandSequence::trace(&other, &alloc).unwrap();
        assert!(got.commands().eq(want.commands()));
        assert_eq!(got, want);
    }

    #[test]
    fn row_on_other_than_partitions_pus_is_rejected() {
        let mut sys = iphone();
        let m = MatrixConfig::new(64, 2048, DType::F16);
        let d = select_mapping_2mb(&m, sys.spec().topology, sys.arch()).unwrap();
        assert_eq!((d.map_id, d.partitions), (MapId(1), 1));
        // Both chunks of a row sit on one PU, which pim_gemv would reduce
        // as one partial sum of two.
        let two = sys.pimalloc_with(m, MappingDecision { partitions: 2, ..d.clone() }).unwrap();
        let err = CommandSequence::trace(&sys, &two).unwrap_err();
        assert!(matches!(err, FacilError::InvalidMapping(_)), "{err}");
        assert!(err.to_string().contains("touches 1 PUs, expected 2 partitions"), "{err}");
        // More partitions than PUs is an error, not a panic.
        let many = sys.pimalloc_with(m, MappingDecision { partitions: 256, ..d }).unwrap();
        let err = CommandSequence::trace(&sys, &many).unwrap_err();
        assert!(matches!(err, FacilError::InvalidMapping(_)), "{err}");
    }

    #[test]
    fn rows_out_of_lock_step_are_rejected() {
        let spec = DramSpec::lpddr5_6400(64, 8 << 30);
        let topo = spec.topology;
        let arch = PimArch::hbm_pim(&topo);
        let m = MatrixConfig::new(1024, 1024, DType::F16);
        // The stock MapID 3 scheme traces, here from a base past PA 0.
        let mut sys = FacilSystem::new(spec.clone(), arch);
        sys.alloc_conventional(2 << 20).unwrap();
        let stock = sys.pimalloc(m).unwrap();
        assert_eq!(stock.map_id(), MapId(3));
        assert_ne!(stock.pages[0], 0);
        CommandSequence::trace(&sys, &stock).unwrap();
        // Bank bit 0 moved below the chunk-row bits: rows 0 and 8 share a
        // bank, at different register slots and so at different columns.
        let seg = |field, width| Segment { field, width };
        let segments = vec![
            seg(Field::Tx, topo.tx_bits()),
            seg(Field::Column, arch.chunk_col_bits(&topo)),
            seg(Field::Row, 3),
            seg(Field::Bank, 1),
            seg(Field::Column, arch.chunk_row_bits()),
            seg(Field::Bank, topo.bank_bits() - 1),
            seg(Field::Rank, topo.rank_bits()),
            seg(Field::Channel, topo.channel_bits()),
            seg(Field::Row, topo.row_bits() - 3),
        ];
        let scheme = MappingScheme::from_segments(topo, segments, "bank bit low").unwrap();
        let mut sys = FacilSystem::new(spec, arch);
        let alloc = sys.pimalloc_with(m, MappingDecision { scheme, ..stock.decision }).unwrap();
        let err = CommandSequence::trace(&sys, &alloc).unwrap_err();
        assert!(matches!(err, FacilError::InvalidMapping(_)), "{err}");
        assert!(err.to_string().contains("rows 0 and 8 of tile 0 are not in lock-step"), "{err}");
    }

    #[test]
    fn partitioned_rows_stage_multiple_slices() {
        // Wide system: 4096-col rows partition by 2.
        let spec = DramSpec::lpddr5_6400(256, 64 << 30);
        let arch = PimArch::aim(&spec.topology);
        let mut sys = FacilSystem::new(spec, arch);
        let alloc = sys.pimalloc(MatrixConfig::new(8, 4096, DType::F16)).unwrap();
        assert_eq!(alloc.decision.partitions, 2);
        let seq = CommandSequence::trace(&sys, &alloc).unwrap();
        let mut most = 0;
        for p in seq.waves().iter().flat_map(|w| &w.ranks) {
            // A pass stages exactly the partitions its banks read, each a
            // full chunk here.
            let mut parts: Vec<u64> =
                p.banks.iter().flat_map(|t| t.rows.iter().map(|r| r.partition)).collect();
            parts.sort_unstable();
            parts.dedup();
            assert_eq!(p.gb.iter().map(|s| s.partition).collect::<Vec<_>>(), parts);
            assert!(p.gb.iter().all(|s| s.elems == seq.chunk_elems()));
            most = most.max(p.gb.len());
        }
        assert_eq!(most, 2);
    }
}
