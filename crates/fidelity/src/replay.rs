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
//! **Bit-exactness contract.** The accumulation order is fixed: within a
//! partition, chunks are visited segment-ascending and elements ascending
//! into a single `f32` accumulator that starts at `0.0`; partials are
//! reduced partition-ascending, starting at `0.0`. That is exactly the order
//! of the [`facil_pim::pim_gemv`] reference, so on the same cells the replay
//! reproduces its output *bit for bit* — which [`cross_check`] asserts by
//! comparing both `f32` and fp16 bit patterns.

use std::collections::{BTreeMap, HashMap};

use facil_core::{FacilSystem, PimAllocation};
use facil_dram::{BankedMemory, DramAddress};
use facil_pim::commands::{CommandSequence, PimCommand};
use facil_pim::f16::{decode_f16_le, f32_to_f16_bits};

/// One partition's staged global-buffer content during a wave.
struct GbBuf {
    base: u64,
    vals: Vec<f32>,
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
    let elems_per_tx = (topo.transfer_bytes / 2) as usize;
    let chunk_tx = seq.chunk_elems() * 2 / topo.transfer_bytes;

    // PU output registers: (flat bank, slot) -> accumulator. Persist across
    // the waves of one tile, drain between tiles.
    let mut registers: HashMap<(u64, u64), f32> = HashMap::new();
    // Register binding for the current tile: (flat bank, slot) -> (row, partition).
    let mut binding: HashMap<(u64, u64), (u64, u64)> = HashMap::new();
    // Drained partial sums: (row, partition) -> value.
    let mut partials: BTreeMap<(u64, u64), f32> = BTreeMap::new();
    let mut cur_tile: Option<u64> = None;

    let drain = |registers: &mut HashMap<(u64, u64), f32>,
                 binding: &mut HashMap<(u64, u64), (u64, u64)>,
                 partials: &mut BTreeMap<(u64, u64), f32>| {
        for (key, rk) in binding.drain() {
            if let Some(acc) = registers.remove(&key) {
                partials.insert(rk, acc);
            }
        }
        registers.clear();
    };

    for wave in seq.waves() {
        if cur_tile.is_some() && cur_tile != Some(wave.tile) {
            drain(&mut registers, &mut binding, &mut partials);
        }
        cur_tile = Some(wave.tile);
        // Bank tasks of this wave, grouped per (channel, rank) for the
        // rank-broadcast commands.
        let mut rank_tasks: HashMap<(u64, u64), Vec<&facil_pim::commands::BankTask>> =
            HashMap::new();
        for t in &wave.tasks {
            rank_tasks.entry((t.channel, t.rank)).or_default().push(t);
            let flat = (t.channel * topo.ranks + t.rank) * topo.banks() + t.bank;
            for row in &t.rows {
                binding.insert((flat, row.slot), (row.matrix_row, row.partition));
            }
        }
        // Per-rank interpreter state for this wave.
        let mut gb: HashMap<(u64, u64), BTreeMap<u64, GbBuf>> = HashMap::new();
        let mut open: HashMap<(u64, u64), u64> = HashMap::new();

        for cmd in seq.wave_commands(wave) {
            match cmd {
                PimCommand::GbLoad { channel, rank, partition, input_elem0, elems } => {
                    let buf = gb
                        .entry((channel, rank))
                        .or_default()
                        .entry(partition)
                        .or_insert_with(|| GbBuf { base: input_elem0, vals: Vec::new() });
                    for e in input_elem0..input_elem0 + elems {
                        buf.vals.push(x[e as usize]);
                    }
                }
                PimCommand::ActAb { channel, rank, dram_row } => {
                    assert_eq!(dram_row, wave.dram_row, "ACT-AB row must match the wave");
                    open.insert((channel, rank), dram_row);
                }
                PimCommand::MacAb { channel, rank, column } => {
                    // The tracer emits GB-LOAD and ACT-AB for every rank of a
                    // wave before its first MAC-AB, so neither lookup can miss
                    // on a traced sequence.
                    #[allow(clippy::expect_used)]
                    let row = *open.get(&(channel, rank)).expect("MAC-AB on a closed row");
                    #[allow(clippy::expect_used)]
                    let slices = gb.get(&(channel, rank)).expect("MAC-AB before GB staging");
                    for t in rank_tasks.get(&(channel, rank)).map_or(&[][..], Vec::as_slice) {
                        let flat = (channel * topo.ranks + rank) * topo.banks() + t.bank;
                        for task in &t.rows {
                            if column < task.column0 || column >= task.column0 + chunk_tx {
                                continue;
                            }
                            let da = DramAddress { channel, rank, bank: t.bank, row, column };
                            let w = decode_f16_le(&mem.load_transfer(da));
                            let buf = &slices[&task.partition];
                            let e0 = ((column - task.column0) as usize) * elems_per_tx;
                            let acc = registers.entry((flat, task.slot)).or_insert(0.0);
                            for (i, wv) in w.iter().enumerate() {
                                let e = e0 + i;
                                if (e as u64) < task.elems {
                                    debug_assert_eq!(buf.base + e as u64, task.col0 + e as u64);
                                    *acc += wv * buf.vals[e];
                                }
                            }
                        }
                    }
                }
                PimCommand::PreAb { channel, rank } => {
                    open.remove(&(channel, rank));
                }
            }
        }
    }
    drain(&mut registers, &mut binding, &mut partials);

    // SoC-side reduction: partials summed partition-ascending per row,
    // starting from 0.0 — the fixed-order contract.
    let mut y = vec![0f32; m.rows as usize];
    for ((r, _k), v) in &partials {
        y[*r as usize] += v;
    }
    y
}

/// SoC GEMV with the *PIM-identical* accumulation order: chunk by chunk,
/// partition boundaries every `1 << map_id` chunks, one `f32` accumulator
/// per partition, partials reduced partition-ascending. Running this over
/// weights read back through any mapping gives logits bit-identical to the
/// functional PIM replay — the token-equivalence contract.
///
/// # Panics
///
/// Panics if `w.len() != rows * cols`, `x.len() != cols`, or a row does not
/// touch exactly `partitions` partitions.
pub fn gemv_fixed_order(
    w: &[f32],
    rows: u64,
    cols: u64,
    x: &[f32],
    chunk_elems: u64,
    map_id: u8,
    partitions: u64,
) -> Vec<f32> {
    assert_eq!(w.len() as u64, rows * cols);
    assert_eq!(x.len() as u64, cols);
    let mut y = vec![0f32; rows as usize];
    for r in 0..rows {
        let mut parts: Vec<f32> = Vec::new();
        let mut last_k = None;
        let mut acc = 0f32;
        for j in 0..cols.div_ceil(chunk_elems) {
            let k = j >> map_id;
            if last_k.is_some() && last_k != Some(k) {
                parts.push(acc);
                acc = 0.0;
            }
            last_k = Some(k);
            let col0 = j * chunk_elems;
            let n = chunk_elems.min(cols - col0);
            for i in 0..n {
                acc += w[(r * cols + col0 + i) as usize] * x[(col0 + i) as usize];
            }
        }
        parts.push(acc);
        assert_eq!(parts.len() as u64, partitions, "row must span exactly `partitions` partitions");
        y[r as usize] = parts.iter().sum();
    }
    y
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
