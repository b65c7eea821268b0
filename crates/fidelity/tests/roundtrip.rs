//! `store_matrix` / `load_matrix` round-trips — and bit-exact replays —
//! under *every* mapping scheme the `CandidateSpace` enumerates, with and
//! without a DRAMA-style bank hash; bit-exact, order-sensitive and
//! JEDEC-legal replays of every stock platform's paper-model linear shapes;
//! and the bulk byte paths, which map once per run, against per-transfer
//! mapping.

use facil_check::cases;
use facil_core::{
    decision_with_map_id, select_mapping, DType, FacilSystem, MappingDecision, MatrixConfig,
    PimArch, HUGE_PAGE_BITS,
};
use facil_dram::{AddressMapper, DramSpec, Topology};
use facil_fidelity::{cross_check, gemv_fixed_order, replay_gemv, BankedMemory};
use facil_llm::ModelConfig;
use facil_mapsearch::{Candidate, CandidateSpace};
use facil_pim::f16::{f16_bits_to_f32, f32_to_f16_bits};
use facil_pim::{load_matrix, store_matrix, CommandSequence, PimPlacement};
use facil_soc::{Platform, PlatformId};

fn grid(i: u64) -> f32 {
    ((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % 15) as f32 * 0.0625 - 0.4375
}

/// A full-mantissa fp16 value in [-1, 1], hashed from `i` by splitmix64.
/// Unlike [`grid`] values, their products' `f32` sums round, so an output
/// depends on the order it was accumulated in.
fn full_f16(i: u64) -> u16 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    f32_to_f16_bits((z >> 40) as f32 / (1 << 23) as f32 - 1.0)
}

/// Every enumerated candidate's decision for `m`, plain and bank-hashed.
fn decisions(
    topo: Topology,
    arch: &PimArch,
    m: &MatrixConfig,
) -> Vec<(Candidate, bool, MappingDecision)> {
    let space = CandidateSpace::enumerate(topo, arch).unwrap();
    assert!(space.len() > 20, "candidate space unexpectedly small: {}", space.len());
    let mut out = Vec::new();
    for cand in space.candidates() {
        let d = cand.decision(m, topo, arch).unwrap();
        let hashed = MappingDecision { scheme: d.scheme.clone().with_bank_hash(), ..d.clone() };
        out.push((*cand, false, d));
        out.push((*cand, true, hashed));
    }
    out
}

/// Every enumerated candidate must round-trip a matrix byte-perfectly: the
/// SoC writes row-major fp16 through the mapped page table, reads it back
/// through the same path, and gets exactly the values it wrote.
#[test]
fn every_candidate_scheme_roundtrips_store_load() {
    let spec = DramSpec::lpddr5_6400(64, 8 << 30); // iPhone 15 Pro
    let topo = spec.topology;
    let arch = PimArch::aim(&topo);
    let m = MatrixConfig::new(16, 2048, DType::F16);
    let w: Vec<f32> = (0..m.rows * m.cols).map(grid).collect();
    for (cand, hash, d) in decisions(topo, &arch, &m) {
        let mut sys = FacilSystem::new(spec.clone(), arch);
        let alloc = sys.pimalloc_with(m, d).unwrap();
        let mut mem = BankedMemory::new(topo);
        store_matrix(&mut mem, &sys, &alloc, &w).unwrap();
        let back = load_matrix(&mem, &sys, &alloc).unwrap();
        assert_eq!(back, w, "round-trip mismatch under {cand:?} (hash {hash})");
    }
}

/// Every *bank-stable* candidate must also replay bit-exactly; the unstable
/// ones (hash with MapID > 0 on multi-chunk rows) must be rejected at trace
/// time rather than silently mis-accumulate.
#[test]
fn every_candidate_scheme_replays_or_rejects() {
    let spec = DramSpec::lpddr5_6400(64, 8 << 30);
    let topo = spec.topology;
    let arch = PimArch::aim(&topo);
    let m = MatrixConfig::new(8, 2048, DType::F16);
    let w: Vec<f32> = (0..m.rows * m.cols).map(grid).collect();
    let x: Vec<f32> = (0..m.cols).map(|i| grid(i ^ 0x5EED)).collect();
    let (mut replayed, mut rejected) = (0u32, 0u32);
    for (cand, hash, d) in decisions(topo, &arch, &m) {
        let mut sys = FacilSystem::new(spec.clone(), arch);
        let alloc = sys.pimalloc_with(m, d).unwrap();
        let mut mem = BankedMemory::new(topo);
        store_matrix(&mut mem, &sys, &alloc, &w).unwrap();
        // The 8 x 2048 matrix has two chunks per row, so MapIDs above 1 are
        // over-wide for it (matrix-row bits would leak into the segment
        // field) and the hash is only bank-stable at MapID 0.
        let chunks = m.cols * 2 / arch.chunk_row_bytes;
        let overwide = (1u64 << cand.map_id) > chunks;
        let unstable = hash && cand.map_id > 0;
        match cross_check(&mem, &sys, &alloc, &x) {
            Ok(report) => {
                assert!(!overwide && !unstable, "illegal candidate {cand:?} (hash {hash}) traced");
                assert!(report.bit_exact(), "{cand:?} (hash {hash}): {report:?}");
                replayed += 1;
            }
            Err(e) => {
                assert!(
                    overwide || unstable,
                    "legal candidate {cand:?} (hash {hash}) rejected: {e}"
                );
                if unstable && !overwide {
                    assert!(e.to_string().contains("bank-stable"), "{e}");
                }
                rejected += 1;
            }
        }
    }
    assert!(replayed > 10, "too few replayed candidates: {replayed}");
    assert!(rejected > 0, "expected some hash-unstable rejections");
}

/// Every stock platform's paper-model linear shapes (18 distinct shapes)
/// replay bit-exactly as a two-tile row slice at full width, which keeps
/// the full matrix's mapping decision. Weights and inputs are full-mantissa
/// fp16, so the replay must keep `pim_gemv`'s accumulation order, and the
/// SoC's `gemv_fixed_order` over the slice's row-major fp16 bytes must
/// match the replay bit for bit too. Two partials commute, so only the
/// shapes with three or more partitions (Jetson's `down_proj` and every
/// MacBook shape) pin the partition reduction's order. Every channel's
/// lowered all-bank stream must be JEDEC-legal. Each shape pins the most
/// global-buffer slices one rank stages in one pass: one per partition
/// its banks hold. Jetson's `down_proj` has a padding-only partition.
#[test]
fn paper_shapes_replay_as_two_tile_slices() {
    let mut shapes = 0;
    for id in PlatformId::all() {
        let platform = Platform::get(id);
        let (spec, arch) = (&platform.dram, platform.pim_arch);
        let topo = spec.topology;
        let mut seen: Vec<MatrixConfig> = Vec::new();
        for (op, _) in ModelConfig::by_name(platform.model_name).all_linears() {
            let full = MatrixConfig::new(op.out_features, op.in_features, DType::F16);
            if seen.contains(&full) {
                continue;
            }
            seen.push(full);
            let want = select_mapping(&full, topo, &arch, HUGE_PAGE_BITS).unwrap();
            let tile = PimPlacement::new(&full, &want, &topo, &arch).rows_per_tile;
            let m = MatrixConfig::new((2 * tile).min(full.rows), full.cols, DType::F16);
            let mut sys = FacilSystem::new(spec.clone(), arch);
            let alloc = sys.pimalloc(m).unwrap();
            assert_eq!(alloc.decision, want, "{id} {}: the slice must map as the matrix", op.name);

            let bits: Vec<u16> = (0..m.rows * m.cols).map(full_f16).collect();
            let w: Vec<f32> = bits.iter().map(|&b| f16_bits_to_f32(b)).collect();
            // Inputs hash from `!i`, apart from every weight's index.
            let x: Vec<f32> = (0..m.cols).map(|i| f16_bits_to_f32(full_f16(!i))).collect();
            let mut mem = BankedMemory::new(topo);
            store_matrix(&mut mem, &sys, &alloc, &w).unwrap();
            let report = cross_check(&mem, &sys, &alloc, &x).unwrap();
            assert!(report.bit_exact(), "{id} {}: {report:?}", op.name);

            let seq = CommandSequence::trace(&sys, &alloc).unwrap();
            let bytes: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
            let soc = gemv_fixed_order(
                &bytes,
                m.rows,
                m.cols,
                &x,
                seq.chunk_elems(),
                alloc.decision.map_id.0,
            );
            let pim = replay_gemv(&mem, &seq, &x);
            assert!(
                soc.iter().zip(&pim).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{id} {}: the SoC's fixed-order GEMV differs from the replay",
                op.name
            );
            // The data shows order: a plain row-major dot product, one
            // accumulator per row, misses the replay on a partitioned row.
            let plain = w
                .chunks_exact(m.cols as usize)
                .map(|row| row.iter().zip(&x).fold(0f32, |acc, (wv, xv)| acc + wv * xv).to_bits());
            assert_eq!(
                plain.ne(pim.iter().map(|v| v.to_bits())),
                alloc.decision.partitions > 1,
                "{id} {}: only a partitioned matrix reorders the row sum",
                op.name
            );
            for ch in 0..topo.channels {
                let streams = seq.to_streams(ch, 2, true);
                let (_, log) = facil_dram::run_allbank_logged(spec, &streams);
                let violations = facil_dram::verify_allbank_log(&log, &spec.timing, &streams);
                assert!(violations.is_empty(), "{id} {} channel {ch}: {violations:?}", op.name);
            }
            let most = seq.waves().iter().flat_map(|w| &w.ranks).map(|p| p.gb.len()).max();
            let pinned = match (id, op.name) {
                (PlatformId::Jetson, "down_proj") => 7,
                (PlatformId::Jetson, _) => 2,
                (PlatformId::Macbook, "down_proj") => 14,
                (PlatformId::Macbook, _) => 4,
                (PlatformId::Ideapad, "fc2") => 2,
                (PlatformId::Ideapad | PlatformId::Iphone, _) => 1,
            };
            assert_eq!(most, Some(pinned), "{id} {}: GB slices per pass", op.name);
            shapes += 1;
        }
    }
    assert_eq!(shapes, 18);
}

/// `write_bytes` and `read_bytes` map once per run the mapper guarantees
/// (`AddressMapper::map_run`: a chunk row under a PIM-optimized scheme, one
/// transfer under the conventional one). Every byte must still sit in the
/// cell that mapping its own transfer names: `load_transfer` at
/// `mapper.map(va)`. Copies start unaligned near chunk-row and huge-page
/// boundaries (or anywhere) and cross them, through `va_mapper` over an AiM
/// and an HBM-PIM placement, a bank-hashed MapID 0 placement and a
/// conventional region, each 4 MiB (two huge pages).
#[test]
fn bulk_copies_land_where_per_transfer_mapping_puts_each_byte() {
    cases(48, |g| {
        let spec = DramSpec::lpddr5_6400(64, 8 << 30); // iPhone 15 Pro
        let topo = spec.topology;
        let setup = g.usize(0..4);
        let arch = if setup == 1 { PimArch::hbm_pim(&topo) } else { PimArch::aim(&topo) };
        let mut sys = FacilSystem::new(spec, arch);
        let (base, len) = match setup {
            0 | 1 => {
                let m = MatrixConfig::new(4 << 20 >> 11, 1024, DType::F16);
                let alloc = sys.pimalloc(m).expect("fits");
                (alloc.va, m.padded_bytes())
            }
            2 => {
                let m = MatrixConfig::new(4 << 20 >> 11, 1024, DType::F16);
                let d = decision_with_map_id(&m, topo, &arch, 0, HUGE_PAGE_BITS).expect("MapID 0");
                let hashed = MappingDecision { scheme: d.scheme.clone().with_bank_hash(), ..d };
                let alloc = sys.pimalloc_with(m, hashed).expect("fits");
                (alloc.va, m.padded_bytes())
            }
            _ => (sys.alloc_conventional(4 << 20).expect("fits"), 4 << 20),
        };
        let boundary = match g.usize(0..3) {
            0 => arch.chunk_row_bytes * g.u64(1..64),
            1 => 1 << HUGE_PAGE_BITS,
            _ => g.u64(0..len),
        };
        let start = base + boundary.saturating_sub(g.u64(0..3 * arch.chunk_row_bytes));
        let bytes =
            g.usize(1..6 * arch.chunk_row_bytes as usize).min((base + len - start) as usize);
        let salt = g.u8(..);
        let data: Vec<u8> = (0..bytes).map(|i| (i as u8).wrapping_mul(31) ^ salt).collect();

        let mapper = sys.va_mapper();
        let mut mem = BankedMemory::new(topo);
        mem.write_bytes(&mapper, start, &data).expect("mapped");
        let tx = topo.transfer_bytes;
        for (i, b) in data.iter().enumerate() {
            let va = start + i as u64;
            let cell = mem.load_transfer(mapper.map(va).expect("mapped"))[(va % tx) as usize];
            assert_eq!(cell, *b, "byte {i} of a copy at {start:#x} (setup {setup})");
        }
        assert_eq!(mem.read_bytes(&mapper, start, bytes).expect("mapped"), data);
    });
}
