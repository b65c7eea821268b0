//! Property tests: the functional command replay is bit-exact against the
//! `pim_gemv` reference for *every* legal mapping candidate — MapIDs and PU
//! orders, each with and without a bank hash, across all four paper
//! platforms — and every illegal (bank-unstable) candidate is rejected at
//! trace time.

use facil_check::cases;
use facil_core::{DType, FacilSystem, MappingDecision, MatrixConfig, PimArch};
use facil_dram::DramSpec;
use facil_fidelity::{cross_check, gemv_fixed_order, replay_gemv, BankedMemory};
use facil_mapsearch::{Candidate, PuOrder};
use facil_pim::commands::CommandSequence;
use facil_pim::f16::{encode_f16_le, f32_to_f16_bits};
use facil_pim::{pim_gemv, store_matrix};

/// The paper's four platforms (Table III), all with AiM-style PIM.
fn platform(idx: usize) -> DramSpec {
    match idx {
        0 => DramSpec::lpddr5_6400(256, 64 << 30), // Jetson AGX Orin
        1 => DramSpec::lpddr5_6400(512, 64 << 30), // Macbook Pro M3 Max
        2 => DramSpec::lpddr5x_7467(64, 32 << 30), // Ideapad 5 Pro
        _ => DramSpec::lpddr5_6400(64, 8 << 30),   // iPhone 15 Pro
    }
}

/// Deterministic value on an exact-fp16 grid.
fn grid(i: u64) -> f32 {
    ((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % 15) as f32 * 0.0625 - 0.4375
}

/// The bit patterns of a GEMV output.
fn bits(y: &[f32]) -> Vec<u32> {
    y.iter().map(|v| v.to_bits()).collect()
}

/// fp16 elements per chunk row.
fn seq_chunk_elems(arch: &PimArch) -> u64 {
    arch.chunk_row_bytes / 2
}

#[test]
fn replay_is_bit_exact_for_every_legal_candidate() {
    cases(128, |g| {
        let (plat, rows_pow, cols_sel, map_id, pu_idx, hash_sel) =
            (g.usize(0..4), g.u32(2..5), g.usize(0..6), g.u8(0..4), g.usize(0..6), g.u8(0..2));
        let spec = platform(plat);
        let topo = spec.topology;
        let arch = PimArch::aim(&topo);
        let rows = 1u64 << rows_pow;
        // Power-of-two widths, and ragged ones whose last chunk is short:
        // Qwen2-1.5B's hidden width, TinyLlama's `down_proj` input width,
        // and a width whose last transfer is part padding.
        let cols = [1024u64, 2048, 4096, 1536, 5632, 1000][cols_sel];
        let hash = hash_sel == 1;
        let m = MatrixConfig::new(rows, cols, DType::F16);
        let cand = Candidate { map_id, pu_order: PuOrder::all()[pu_idx] };
        // Candidates the geometry rejects outright (MapID beyond the page)
        // are out of scope here — `CandidateSpace` never enumerates them.
        let Ok(mut d) = cand.decision(&m, topo, &arch) else {
            return;
        };
        if hash {
            d = MappingDecision { scheme: d.scheme.clone().with_bank_hash(), ..d };
        }
        let mut sys = FacilSystem::new(spec, arch);
        let alloc = sys.pimalloc_with(m, d).expect("allocation must fit");

        let mut mem = BankedMemory::new(topo);
        let w: Vec<f32> = (0..rows * cols).map(grid).collect();
        store_matrix(&mut mem, &sys, &alloc, &w).expect("store through the mapped pages");
        let x: Vec<f32> = (0..cols).map(|i| grid(i ^ 0xC0FFEE)).collect();

        // Two ways a candidate can be placement-illegal for *this matrix*:
        // an over-wide MapID (more segments than the row has chunks, so
        // matrix-row bits leak into the segment field and waves lose their
        // single broadcast row), and the DRAMA-style hash with MapID > 0 on
        // multi-chunk rows (the PU accumulator migrates between banks
        // mid-tile). Everything else must trace and replay bit-exactly.
        let chunks = m.padded_row_bytes() / arch.chunk_row_bytes;
        let overwide = (1u64 << map_id) > chunks;
        let unstable = hash && map_id > 0 && chunks > 1;
        match CommandSequence::trace(&sys, &alloc) {
            Err(e) => {
                assert!(overwide || unstable, "legal {cand:?} (hash {hash}) rejected: {e}");
                if unstable && !overwide {
                    assert!(e.to_string().contains("bank-stable"), "{e}");
                }
            }
            Ok(seq) => {
                assert!(!overwide && !unstable, "illegal {cand:?} (hash {hash}) traced");
                let got = replay_gemv(&mem, &seq, &x);
                let want = pim_gemv(&mem, &sys, &alloc, &x);
                assert_eq!(got.len(), want.len());
                for (r, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "row {} differs under {:?}: {} vs {}",
                        r,
                        &cand,
                        a,
                        b
                    );
                    assert_eq!(f32_to_f16_bits(*a), f32_to_f16_bits(*b));
                }
                let soc = gemv_fixed_order(
                    &encode_f16_le(&w),
                    rows,
                    cols,
                    &x,
                    seq.chunk_elems(),
                    alloc.decision.map_id.0,
                );
                assert_eq!(bits(&soc), bits(&got), "fixed-order GEMV differs under {cand:?}");
            }
        }
    });
}

/// HBM-PIM places 8 chunk rows per DRAM row at distinct PU slots; the
/// replay must keep the per-slot registers separate. The 1000-column
/// matrix ends in a short chunk whose last transfers are part or all
/// padding.
#[test]
fn hbm_pim_replay_matches_reference() {
    let spec = DramSpec::lpddr5_6400(16, 2 << 30);
    let arch = PimArch::hbm_pim(&spec.topology);
    for cols in [1024, 1000] {
        let mut sys = FacilSystem::new(spec.clone(), arch);
        let m = MatrixConfig::new(64, cols, DType::F16);
        let alloc = sys.pimalloc(m).unwrap();
        let mut mem = BankedMemory::new(spec.topology);
        let w: Vec<f32> = (0..m.rows * m.cols).map(grid).collect();
        store_matrix(&mut mem, &sys, &alloc, &w).unwrap();
        let x: Vec<f32> = (0..m.cols).map(|i| grid(i ^ 0xBEEF)).collect();

        let seq = CommandSequence::trace(&sys, &alloc).unwrap();
        let got = replay_gemv(&mem, &seq, &x);
        let want = pim_gemv(&mem, &sys, &alloc, &x);
        assert_eq!(bits(&got), bits(&want), "64x{cols}");
        let soc = gemv_fixed_order(
            &encode_f16_le(&w),
            m.rows,
            m.cols,
            &x,
            seq.chunk_elems(),
            alloc.decision.map_id.0,
        );
        assert_eq!(bits(&soc), bits(&got), "64x{cols}: fixed-order GEMV differs");
    }
}

/// Llama3-8B's `down_proj` width (14,336 columns, padded to 16,384) on the
/// Jetson gets MapID 1 and 8 partitions, and its live chunks reach only 7
/// of them: the eighth holds only padding. The reference counts partitions
/// over the padded row, as the tracer does, and the padding-only partition
/// adds no partial on any path.
#[test]
fn padding_only_partition_replays_bit_exact() {
    let spec = platform(0);
    let arch = PimArch::aim(&spec.topology);
    let mut sys = FacilSystem::new(spec.clone(), arch);
    let m = MatrixConfig::new(4, 14336, DType::F16);
    let alloc = sys.pimalloc(m).unwrap();
    assert_eq!((alloc.decision.map_id.0, alloc.decision.partitions), (1, 8));
    let chunk_elems = seq_chunk_elems(&arch);
    assert_eq!(m.cols.div_ceil(chunk_elems << 1), 7, "the live chunks reach 7 partitions");

    let mut mem = BankedMemory::new(spec.topology);
    let w: Vec<f32> = (0..m.rows * m.cols).map(grid).collect();
    store_matrix(&mut mem, &sys, &alloc, &w).unwrap();
    let x: Vec<f32> = (0..m.cols).map(|i| grid(i ^ 0xD0E5)).collect();
    let report = cross_check(&mem, &sys, &alloc, &x).unwrap();
    assert!(report.bit_exact(), "{report:?}");
    assert_eq!(report.partitions, 8);

    let seq = CommandSequence::trace(&sys, &alloc).unwrap();
    let replayed = replay_gemv(&mem, &seq, &x);
    let soc = gemv_fixed_order(&encode_f16_le(&w), m.rows, m.cols, &x, chunk_elems, 1);
    assert_eq!(bits(&soc), bits(&replayed));
}

/// The traced sequence lowers to timing streams that pass the shared JEDEC
/// legality checker on every channel — the same command stream is both
/// functionally correct and protocol-legal.
#[test]
fn traced_stream_is_jedec_legal_on_every_channel() {
    let spec = DramSpec::lpddr5_6400(64, 8 << 30);
    let arch = PimArch::aim(&spec.topology);
    let mut sys = FacilSystem::new(spec.clone(), arch);
    let alloc =
        sys.pimalloc(MatrixConfig::new(2 * spec.topology.total_banks(), 2048, DType::F16)).unwrap();
    let seq = CommandSequence::trace(&sys, &alloc).unwrap();
    for ch in 0..spec.topology.channels {
        let streams = seq.to_streams(ch, 2, true);
        let (_, log) = facil_dram::run_allbank_logged(&spec, &streams);
        let violations = facil_dram::verify_allbank_log(&log, &spec.timing, &streams);
        assert!(violations.is_empty(), "channel {ch}: {violations:?}");
    }
}
