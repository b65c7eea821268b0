//! Functional interpreter for the all-bank PIM command stream.
//!
//! [`replay_gemv`] executes a [`CommandSequence`] command by command over a
//! [`BankedMemory`]: `GB-load` stages input-vector transfers into the per-rank
//! global buffer, `ACT-AB` opens the broadcast row, each `MAC-AB` beat makes
//! every bank of the rank read one transfer of its open row and accumulate
//! into its per-slot output register, `PRE-AB` closes the row. Registers
//! accumulate across the waves of one tile and drain into per-partition
//! partial sums at tile boundaries; the SoC-side reduction sums partials in
//! partition-ascending order.
//!
//! The interpreter keeps dense state: registers and their bindings in
//! `Vec`s indexed by (flat bank, slot), partial sums in one indexed by (row,
//! partition) with a present flag. It runs one
//! [`RankPass`](facil_pim::RankPass) at a time, so the rest is the current
//! pass's: its staged global-buffer slices, its open row and its banks' row
//! images. `ACT-AB` borrows each bank's row image once
//! ([`BankedMemory::row`]); every `MAC-AB` beat decodes its transfer from
//! that image in place and takes its live elements from the staged slice.
//!
//! **Bit-exactness contract.** The accumulation order is fixed: within a
//! partition, chunks are visited segment-ascending and elements ascending
//! into a single `f32` accumulator that starts at `0.0`; partials are
//! reduced partition-ascending, starting at `0.0`. That is exactly the order
//! of the [`facil_pim::pim_gemv`] reference, so on the same cells the replay
//! reproduces its output *bit for bit* — which [`cross_check`] asserts by
//! comparing both `f32` and fp16 bit patterns.

use std::ops::Range;

use facil_core::{FacilSystem, PimAllocation};
use facil_dram::{BankedMemory, DramAddress};
use facil_pim::commands::{CommandSequence, PimCommand};
use facil_pim::f16::{f16_bits_to_f32, f32_to_f16_bits};

/// One partition's slice staged in the current pass's global buffer: the
/// input element it starts at and its span of the staged elements.
struct GbBuf {
    partition: u64,
    base: u64,
    span: Range<usize>,
}

/// Execute `y = W x` by interpreting the all-bank command stream of `seq`
/// over the DRAM cells in `mem`.
///
/// # Panics
///
/// Panics if `x.len()` does not match the traced matrix's columns, or if the
/// command stream is internally inconsistent (a MAC beat with no open row, a
/// bank reading an unstaged global-buffer element) — [`CommandSequence`]
/// construction guarantees neither happens.
pub fn replay_gemv(mem: &BankedMemory, seq: &CommandSequence, x: &[f32]) -> Vec<f32> {
    let m = seq.matrix();
    assert_eq!(x.len() as u64, m.cols, "input length must match matrix columns");
    let topo = *seq.topology();
    let tx = topo.transfer_bytes as usize;
    let elems_per_tx = tx / 2;
    let chunk_tx = seq.chunk_elems() * 2 / topo.transfer_bytes;
    // Chunk rows per DRAM row: the output registers (slots) of one PU.
    let slots = (topo.columns() / chunk_tx) as usize;
    let partitions = seq.placement().partitions as usize;

    // PU output registers, (flat bank, slot) at `flat * slots + slot`, and
    // the (row, partition) partial, at `row * partitions + partition`, each
    // one accumulates for in the current tile. They persist across the
    // waves of one tile and drain into `partials` between tiles.
    let mut registers = vec![0f32; topo.total_banks() as usize * slots];
    let mut binding: Vec<Option<usize>> = vec![None; registers.len()];
    let mut partials: Vec<Option<f32>> = vec![None; m.rows as usize * partitions];

    // The current pass's state: its staged global-buffer slices (their
    // elements in `staged`), its open row, and the row image (unwritten
    // rows read as zero) and flat bank of each of its banks.
    let mut gb: Vec<GbBuf> = Vec::new();
    let mut staged: Vec<f32> = Vec::new();
    let zero_row = vec![0u8; topo.row_bytes as usize];
    let mut banks: Vec<(&[u8], usize)> = Vec::new();

    for tile in seq.waves().chunk_by(|a, b| a.tile == b.tile) {
        for (wave, pass) in tile.iter().flat_map(|w| w.ranks.iter().map(move |p| (w, p))) {
            gb.clear();
            staged.clear();
            banks.clear();
            let mut open = None;
            for cmd in seq.pass_commands(wave, pass) {
                match cmd {
                    PimCommand::GbLoad { partition, input_elem0, elems, .. } => {
                        if gb.last().is_none_or(|b| b.partition != partition) {
                            let at = staged.len();
                            gb.push(GbBuf { partition, base: input_elem0, span: at..at });
                        }
                        // The padded tail of a ragged chunk stages nothing: its
                        // GB-LOADs carry no elements and start past the input.
                        if elems > 0 {
                            let e0 = input_elem0 as usize;
                            staged.extend_from_slice(&x[e0..e0 + elems as usize]);
                            if let Some(b) = gb.last_mut() {
                                b.span.end = staged.len();
                            }
                        }
                    }
                    PimCommand::ActAb { channel, rank, dram_row } => {
                        assert_eq!(dram_row, wave.dram_row, "ACT-AB row must match the wave");
                        open = Some(dram_row);
                        let row0 = DramAddress { channel, rank, bank: 0, row: dram_row, column: 0 };
                        for t in &pass.banks {
                            let da = DramAddress { bank: t.bank, ..row0 };
                            let flat = da.flat_bank(&topo) as usize;
                            for row in &t.rows {
                                binding[flat * slots + row.slot as usize] = Some(
                                    row.matrix_row as usize * partitions + row.partition as usize,
                                );
                            }
                            banks.push((mem.row(da).unwrap_or(&zero_row), flat));
                        }
                    }
                    PimCommand::MacAb { column, .. } => {
                        // The tracer emits GB-LOAD and ACT-AB for every pass
                        // before its first MAC-AB, so neither check can fail on
                        // a traced sequence.
                        assert!(open.is_some(), "MAC-AB on a closed row");
                        assert!(!gb.is_empty(), "MAC-AB before GB staging");
                        let off = column as usize * tx;
                        for (t, &(image, flat)) in pass.banks.iter().zip(&banks) {
                            let transfer = &image[off..off + tx];
                            for task in &t.rows {
                                let column0 = task.slot * chunk_tx;
                                if column < column0 || column >= column0 + chunk_tx {
                                    continue;
                                }
                                #[allow(clippy::expect_used)]
                                let i = gb
                                    .iter()
                                    .position(|b| b.partition == task.partition)
                                    .expect("MAC-AB on an unstaged partition");
                                let e0 =
                                    gb[i].span.start + (column - column0) as usize * elems_per_tx;
                                let live = gb[i].span.end.saturating_sub(e0).min(elems_per_tx);
                                // A transfer wholly in a ragged chunk's padding
                                // adds nothing.
                                if live == 0 {
                                    continue;
                                }
                                debug_assert_eq!(gb[i].base, pass.gb[i].input_elem0);
                                let reg = &mut registers[flat * slots + task.slot as usize];
                                let mut acc = *reg;
                                for (w, xv) in transfer.chunks_exact(2).zip(&staged[e0..e0 + live])
                                {
                                    acc += f16_bits_to_f32(u16::from_le_bytes([w[0], w[1]])) * xv;
                                }
                                *reg = acc;
                            }
                        }
                    }
                    PimCommand::PreAb { .. } => open = None,
                }
            }
        }
        // Tile boundary: every bound register drains into its partial and
        // starts the next tile at 0.0.
        for (acc, bound) in registers.iter_mut().zip(&mut binding) {
            if let Some(p) = bound.take() {
                partials[p] = Some(std::mem::take(acc));
            }
        }
    }

    // SoC-side reduction: partials summed partition-ascending per row,
    // starting from 0.0 — the fixed-order contract.
    partials
        .chunks_exact(partitions)
        .map(|row| row.iter().flatten().fold(0.0, |y, v| y + v))
        .collect()
}

/// SoC GEMV with the *PIM-identical* accumulation order over the weights'
/// little-endian fp16 bytes `w` (row-major, as the SoC reads them under the
/// conventional mapping): each row walks as slices of `chunk_elems <<
/// map_id` elements, one partition each, into one `f32` accumulator per
/// partition, and the partials are reduced partition-ascending. Running
/// this over a matrix's bytes gives logits bit-identical to the functional
/// PIM replay over the cells they were written to — the token-equivalence
/// contract. A partition that holds only `pimalloc`'s padding has no slice
/// here and no partial in the replay.
///
/// # Panics
///
/// Panics if `w.len() != 2 * rows * cols` or `x.len() != cols`.
pub fn gemv_fixed_order(
    w: &[u8],
    rows: u64,
    cols: u64,
    x: &[f32],
    chunk_elems: u64,
    map_id: u8,
) -> Vec<f32> {
    assert_eq!(w.len() as u64, 2 * rows * cols);
    assert_eq!(x.len() as u64, cols);
    let span = (chunk_elems << map_id) as usize;
    w.chunks_exact(2 * cols as usize)
        .map(|row| {
            row.chunks(2 * span)
                .zip(x.chunks(span))
                .map(|(ws, xs)| {
                    let mut acc = 0f32;
                    for (wv, xv) in ws.chunks_exact(2).zip(xs) {
                        acc += f16_bits_to_f32(u16::from_le_bytes([wv[0], wv[1]])) * xv;
                    }
                    acc
                })
                .sum()
        })
        .collect()
}

/// Outcome of one replay-vs-reference cross-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FidelityReport {
    /// Output rows compared.
    pub rows: u64,
    /// Partitions per row.
    pub partitions: u64,
    /// Waves replayed.
    pub waves: u64,
    /// Commands interpreted.
    pub commands: u64,
    /// Output elements whose `f32` bit patterns differ from the reference.
    pub f32_mismatches: u64,
    /// Output elements whose fp16 bit patterns differ from the reference.
    pub f16_mismatches: u64,
}

impl FidelityReport {
    /// True when the replay reproduced the reference bit for bit.
    pub fn bit_exact(&self) -> bool {
        self.f32_mismatches == 0 && self.f16_mismatches == 0
    }
}

/// Trace `alloc`, replay the command stream over `mem`, run the
/// [`facil_pim::pim_gemv`] reference over the same cells, and compare the
/// outputs bit for bit (both as `f32` and narrowed to fp16).
///
/// # Errors
///
/// Propagates [`CommandSequence::trace`] errors (invalid placements, freed
/// allocations).
pub fn cross_check(
    mem: &BankedMemory,
    sys: &FacilSystem,
    alloc: &PimAllocation,
    x: &[f32],
) -> facil_core::Result<FidelityReport> {
    let seq = CommandSequence::trace(sys, alloc)?;
    let got = replay_gemv(mem, &seq, x);
    let want = facil_pim::pim_gemv(mem, sys, alloc, x);
    let f32_mismatches =
        got.iter().zip(&want).filter(|(a, b)| a.to_bits() != b.to_bits()).count() as u64;
    let f16_mismatches =
        got.iter().zip(&want).filter(|(a, b)| f32_to_f16_bits(**a) != f32_to_f16_bits(**b)).count()
            as u64;
    Ok(FidelityReport {
        rows: alloc.matrix.rows,
        partitions: alloc.decision.partitions,
        waves: seq.waves().len() as u64,
        commands: seq.commands().count() as u64,
        f32_mismatches,
        f16_mismatches,
    })
}
