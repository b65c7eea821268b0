//! End-to-end token equivalence: FACIL-mapped PIM vs conventional SoC.
//!
//! The paper's correctness claim is that flexible DRAM mapping is *invisible*
//! to the model: the same weights, placed under a FACIL `MapID` scheme and
//! executed by the all-bank PIM command stream, must produce exactly the
//! tokens a conventional layout produces on the SoC. [`token_equivalence`]
//! checks this end to end on a small seeded decoder:
//!
//! * **FACIL path** — every linear is `pimalloc`ed, its fp16 weights written
//!   through the mapped page table into a [`BankedMemory`], its
//!   all-bank command stream traced once, and every GEMV executed by
//!   [`crate::replay_gemv`] — the functional command interpreter.
//! * **Conventional path** — the (modelled) SoC multiplies the generated
//!   row-major fp16 bytes themselves with [`crate::gemv_fixed_order`], which
//!   uses the PIM-identical accumulation order. Under the conventional
//!   mapping the SoC reads a matrix back exactly as it wrote it (the
//!   mapping's own tests check the round trip), so the reference never
//!   reads the cells the PIM reads.
//!
//! Each linear's weights are generated once, as row-major fp16 bytes; the
//! FACIL copy is written from them a matrix row at a time, and no `f32`
//! copy of a matrix is ever held.
//!
//! Activations are re-quantized to fp16 between layers on both paths, so
//! every intermediate value is exactly representable and the two paths must
//! agree *bit for bit* on every logit of every step — no epsilon.

use facil_core::{DType, FacilSystem, MatrixConfig, PimArch};
use facil_dram::{BankedMemory, DramSpec};
use facil_llm::ModelConfig;
use facil_pim::commands::CommandSequence;
use facil_pim::f16::{f16_bits_to_f32, f32_to_f16_bits};

use crate::replay::{gemv_fixed_order, replay_gemv};

/// Outcome of one FACIL-vs-conventional token-equivalence run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenEquivalenceReport {
    /// Model preset name.
    pub model: String,
    /// Decode steps compared.
    pub steps: u64,
    /// Greedy tokens emitted by the FACIL PIM replay path.
    pub facil_tokens: Vec<u64>,
    /// Greedy tokens emitted by the conventional SoC path.
    pub conventional_tokens: Vec<u64>,
    /// Logit values (across all steps) whose `f32` bit patterns differ.
    pub logit_mismatches: u64,
    /// True when every logit matched bit for bit and the token streams are
    /// identical.
    pub equivalent: bool,
}

/// One linear layer: its FACIL placement and the SoC path's weights.
struct PlacedLinear {
    rows: u64,
    cols: u64,
    /// The all-bank command stream for the FACIL-mapped copy.
    seq: CommandSequence,
    /// The generated row-major fp16 weight bytes the SoC path multiplies.
    w: Vec<u8>,
    chunk_elems: u64,
    map_id: u8,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic value on an exact-fp16 grid: one of `{-7..=7} / 16`.
fn grid(h: u64) -> f32 {
    ((h % 15) as i64 - 7) as f32 * 0.0625
}

fn embed(seed: u64, token: u64, hidden: u64) -> Vec<f32> {
    (0..hidden).map(|i| grid(splitmix64(seed ^ 0xE0BED ^ (token << 24) ^ i))).collect()
}

/// fp16-quantized ReLU with a fixed power-of-two downscale — the
/// inter-layer activation on both paths. The 1/16 scale stands in for
/// normalization: it keeps activations inside the fp16 range across layers
/// (a dot product over 1024 elements grows roughly 16x per linear), and
/// being a power of two it is exact in binary floating point, so it cannot
/// perturb the bit-equivalence contract.
fn quant_relu(y: &[f32]) -> Vec<f32> {
    y.iter().map(|v| f16_bits_to_f32(f32_to_f16_bits(v.max(0.0) * 0.0625))).collect()
}

/// Greedy decode: highest logit, lowest index on ties.
fn argmax(logits: &[f32]) -> u64 {
    let mut best = 0usize;
    for (i, v) in logits.iter().enumerate() {
        if *v > logits[best] {
            best = i;
        }
    }
    best as u64
}

/// Drive `steps` greedy decode steps of `model` through both the FACIL PIM
/// replay and the conventional SoC path, and compare every logit bit for bit.
///
/// # Errors
///
/// Propagates `pimalloc`, page-table and command-trace errors from the
/// FACIL path.
pub fn token_equivalence(
    spec: &DramSpec,
    model: &ModelConfig,
    steps: u64,
    seed: u64,
) -> facil_core::Result<TokenEquivalenceReport> {
    let topo = spec.topology;
    let arch = PimArch::aim(&topo);
    let mut sys = FacilSystem::new(spec.clone(), arch);
    let mut facil_mem = BankedMemory::new(topo);

    // Linear execution order: `layers x block_linears`, then the LM head.
    // The chain is dimension-compatible, so each output feeds the next input.
    let mut ops = Vec::new();
    for _ in 0..model.layers {
        ops.extend(model.block_linears());
    }
    ops.push(model.lm_head());

    // fp16 bits of the 15 values `grid` takes, by `h % 15`.
    let grid_f16: [u16; 15] = std::array::from_fn(|k| f32_to_f16_bits(grid(k as u64)));
    let mut linears = Vec::with_capacity(ops.len());
    for (idx, op) in ops.iter().enumerate() {
        let rows = op.out_features;
        let cols = op.in_features;
        let key = seed ^ ((idx as u64) << 48);
        let alloc = sys.pimalloc(MatrixConfig::new(rows, cols, DType::F16))?;

        // Row-major fp16 bytes, element `i` hashed from `key ^ i`; each
        // matrix row goes into the FACIL copy through the mapped page table.
        let mut w = vec![0u8; (rows * cols * 2) as usize];
        for (i, b) in w.chunks_exact_mut(2).enumerate() {
            let h = splitmix64(key ^ i as u64);
            b.copy_from_slice(&grid_f16[(h % 15) as usize].to_le_bytes());
        }
        let va_mapper = sys.va_mapper();
        for (r, row) in (0..rows).zip(w.chunks_exact((cols * 2) as usize)) {
            facil_mem.write_bytes(&va_mapper, alloc.element_va(r, 0), row)?;
        }
        let seq = CommandSequence::trace(&sys, &alloc)?;

        linears.push(PlacedLinear {
            rows,
            cols,
            chunk_elems: seq.chunk_elems(),
            map_id: alloc.decision.map_id.0,
            seq,
            w,
        });
    }

    let vocab = model.vocab;
    let mut facil_tokens = Vec::with_capacity(steps as usize);
    let mut conventional_tokens = Vec::with_capacity(steps as usize);
    let mut logit_mismatches = 0u64;
    let mut facil_tok = seed % vocab;
    let mut conv_tok = facil_tok;

    for _ in 0..steps {
        let mut fx = embed(seed, facil_tok, model.hidden);
        let mut cx = embed(seed, conv_tok, model.hidden);
        let last = linears.len() - 1;
        for (i, lin) in linears.iter().enumerate() {
            let fy = replay_gemv(&facil_mem, &lin.seq, &fx);
            let cy = gemv_fixed_order(&lin.w, lin.rows, lin.cols, &cx, lin.chunk_elems, lin.map_id);
            if i == last {
                logit_mismatches +=
                    fy.iter().zip(&cy).filter(|(a, b)| a.to_bits() != b.to_bits()).count() as u64;
                facil_tok = argmax(&fy);
                conv_tok = argmax(&cy);
            } else {
                fx = quant_relu(&fy);
                cx = quant_relu(&cy);
            }
        }
        facil_tokens.push(facil_tok);
        conventional_tokens.push(conv_tok);
    }

    let equivalent = logit_mismatches == 0 && facil_tokens == conventional_tokens;
    Ok(TokenEquivalenceReport {
        model: model.name.to_string(),
        steps,
        facil_tokens,
        conventional_tokens,
        logit_mismatches,
        equivalent,
    })
}
