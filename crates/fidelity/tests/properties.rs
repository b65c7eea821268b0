//! Property tests: the functional command replay is bit-exact against the
//! `pim_gemv` reference for *every* legal mapping candidate — MapIDs and PU
//! orders, each with and without a bank hash, across all four paper
//! platforms — and every illegal (bank-unstable) candidate is rejected at
//! trace time.

use facil_check::cases;
use facil_core::{DType, FacilSystem, MappingDecision, MatrixConfig, PimArch, HUGE_PAGE_BITS};
use facil_dram::DramSpec;
use facil_fidelity::{replay_gemv, BankedMemory};
use facil_mapsearch::{Candidate, PuOrder};
use facil_pim::commands::CommandSequence;
use facil_pim::f16::f32_to_f16_bits;
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

/// fp16 elements per chunk row.
fn seq_chunk_elems(arch: &PimArch) -> u64 {
    arch.chunk_row_bytes / 2
}

#[test]
fn replay_is_bit_exact_for_every_legal_candidate() {
    cases(48, |g| {
        let (plat, rows_pow, cols_sel, map_id, pu_idx, hash_sel) =
            (g.usize(0..4), g.u32(2..5), g.usize(0..3), g.u8(0..4), g.usize(0..6), g.u8(0..2));
        let spec = platform(plat);
        let topo = spec.topology;
        let arch = PimArch::aim(&topo);
        let rows = 1u64 << rows_pow;
        let cols = [1024u64, 2048, 4096][cols_sel];
        let hash = hash_sel == 1;
        let m = MatrixConfig::new(rows, cols, DType::F16);
        let cand = Candidate { map_id, pu_order: PuOrder::all()[pu_idx] };
        // Candidates the geometry rejects outright (MapID beyond the page)
        // are out of scope here — `CandidateSpace` never enumerates them.
        let Ok(mut d) = cand.decision(&m, topo, &arch, HUGE_PAGE_BITS) else {
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
        let chunks = cols / seq_chunk_elems(&arch);
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
            }
        }
    });
}

/// HBM-PIM places 8 chunk rows per DRAM row at distinct PU slots; the
/// replay must keep the per-slot registers separate.
#[test]
fn hbm_pim_replay_matches_reference() {
    let spec = DramSpec::lpddr5_6400(16, 2 << 30);
    let arch = PimArch::hbm_pim(&spec.topology);
    let mut sys = FacilSystem::new(spec.clone(), arch);
    let m = MatrixConfig::new(64, 1024, DType::F16);
    let alloc = sys.pimalloc(m).unwrap();
    let mut mem = BankedMemory::new(spec.topology);
    let w: Vec<f32> = (0..m.rows * m.cols).map(grid).collect();
    store_matrix(&mut mem, &sys, &alloc, &w).unwrap();
    let x: Vec<f32> = (0..m.cols).map(|i| grid(i ^ 0xBEEF)).collect();

    let seq = CommandSequence::trace(&sys, &alloc).unwrap();
    let got = replay_gemv(&mem, &seq, &x);
    let want = pim_gemv(&mem, &sys, &alloc, &x);
    assert_eq!(
        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
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
