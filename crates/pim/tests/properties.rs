//! Property-based tests for PIM placement geometry and timing, and for the
//! selector's placements under the tracer.

use facil_check::{cases, Gen};
use facil_core::{
    select_mapping_2mb, DType, FacilError, FacilSystem, MappingScheme, MatrixConfig, PimArch,
    PimStyle, HUGE_PAGE_BITS,
};
use facil_dram::{DramSpec, Topology};
use facil_pim::{CommandSequence, PimEngine, PimPlacement};

fn topology(g: &mut Gen) -> Topology {
    let (ch, rk, rowb) = (g.u32(0..=4), g.u32(0..=1), g.u32(12..=15));
    Topology::new(1 << ch, 1 << rk, 4, 4, 1 << rowb, 2048, 32)
}

fn matrix(g: &mut Gen) -> MatrixConfig {
    let (r, c) = (g.u32(4..=12), g.u32(10..=14));
    MatrixConfig::new(1 << r, 1 << c, DType::F16)
}

/// Placement geometry conserves weight bytes exactly: the per-bank DRAM
/// rows, summed over all banks, hold the whole padded matrix (when rows
/// divide evenly into tiles).
#[test]
fn placement_conserves_bytes() {
    cases(128, |g| {
        let (topo, m) = (topology(g), matrix(g));
        let arch = PimArch::aim(&topo);
        let d = match select_mapping_2mb(&m, topo, &arch) {
            Ok(d) => d,
            Err(_) => return,
        };
        let p = PimPlacement::new(&m, &d, &topo, &arch);
        // rows_per_tile * tiles covers all matrix rows (with padding).
        assert!(p.rows_per_tile * p.tiles >= m.rows);
        assert!(p.rows_per_tile * (p.tiles - 1) < m.rows || p.tiles == 1);
        // Total bank storage covers the padded matrix.
        let stored = p.dram_rows_per_bank * topo.row_bytes * topo.total_banks();
        let padded_tiles = p.tiles * p.rows_per_tile * m.padded_row_bytes();
        assert_eq!(stored, padded_tiles, "per-bank rows x banks == padded tile bytes");
        // Partition accounting.
        assert_eq!(p.partitions, d.partitions);
        assert!(p.segments * arch.chunk_row_bytes * p.partitions >= m.padded_row_bytes());
    });
}

/// GEMV timing is monotone: more rows never takes less time, and the
/// internal bandwidth never exceeds the configured peak.
#[test]
fn gemv_timing_is_monotone_and_bounded() {
    cases(128, |g| {
        let (topo, m) = (topology(g), matrix(g));
        let arch = PimArch::aim(&topo);
        let spec = DramSpec::build(
            facil_dram::DramKind::Lpddr5,
            6400,
            16 * topo.channels,
            topo.capacity_bytes(),
        );
        let d = match select_mapping_2mb(&m, topo, &arch) {
            Ok(d) => d,
            Err(_) => return,
        };
        let engine = PimEngine::new(spec, arch);
        let t1 = engine.gemv(&m, &d);
        assert!(t1.time_ns > 0.0);
        assert!(
            t1.internal_bw <= engine.peak_internal_bandwidth() * 1.001,
            "bw {} > peak {}",
            t1.internal_bw,
            engine.peak_internal_bandwidth()
        );
        // Doubling the rows at the same shape class never gets cheaper.
        let m2 = MatrixConfig::new(m.rows * 2, m.cols, m.dtype);
        if let Ok(d2) = select_mapping_2mb(&m2, topo, &arch) {
            let t2 = engine.gemv(&m2, &d2);
            assert!(t2.time_ns >= t1.time_ns * 0.99);
        }
        // GEMM with m vectors costs at least m-1 times the GEMV stream.
        let g = engine.gemm(&m, &d, 4);
        assert!(g.time_ns > 3.0 * t1.cycles as f64 * 0.5);
        assert_eq!(g.weight_bytes, 4 * t1.weight_bytes);
    });
}

/// Realistic edge-device topologies (powers of two, 2 KB rows, 32 B
/// transfers, interleaving bits that fit a 2 MB page offset).
fn edge_topology(g: &mut Gen) -> Topology {
    let (ch, rk, bg, bpg, rowb) =
        (g.u32(0..=4), g.u32(0..=1), g.u32(1..=2), g.u32(1..=2), g.u32(8..=14));
    Topology::new(1 << ch, 1 << rk, 1 << bg, 1 << bpg, 1 << rowb, 2048, 32)
}

/// The selector's output for one topology and matrix shape is placeable:
/// MapID within range, partition count a power of two, and an allocation
/// the tracer accepts with the decision's partition count.
fn check_selector(topo: Topology, arch: PimArch, rows_log: u32, cols_log: u32) {
    let m = MatrixConfig::new(1 << rows_log, 1 << cols_log, DType::F16);
    if (1u64 << cols_log) * 2 < arch.chunk_row_bytes {
        return; // narrower than a chunk: selector rejects, fine
    }
    let d = match select_mapping_2mb(&m, topo, &arch) {
        Ok(d) => d,
        // HBM-PIM-style architectures reject the partitioned case
        // (paper defines Fig. 10 partitioning for AiM only).
        Err(FacilError::InvalidRequest(_)) => return,
        Err(e) => panic!("selector failed: {e}"),
    };
    assert!(d.partitions.is_power_of_two());
    let max = MappingScheme::in_page_row_bits(&topo, HUGE_PAGE_BITS).unwrap();
    assert!(u32::from(d.map_id.0) <= max);
    // The decision depends on the column count only, so a matrix larger
    // than the topology's memory is traced over the rows that fit.
    let rows = m.rows.min(topo.capacity_bytes() / m.padded_row_bytes());
    let m = MatrixConfig::new(rows, m.cols, m.dtype);
    let spec = DramSpec { topology: topo, ..DramSpec::lpddr5_6400(16, 1 << 30) };
    let mut sys = FacilSystem::new(spec, arch);
    let alloc = sys.pimalloc(m).unwrap();
    assert_eq!(alloc.decision, d);
    let seq = CommandSequence::trace(&sys, &alloc).unwrap();
    assert_eq!(seq.placement().partitions, d.partitions);
}

/// The selector always returns a placement the tracer accepts.
#[test]
fn selector_output_is_always_placeable() {
    // A failure random search once found: HBM-PIM on 4 channels with a
    // 16 x 8192 matrix.
    let topo = Topology::new(4, 1, 4, 2, 256, 2048, 32);
    let hbm = PimArch {
        style: PimStyle::HbmPim,
        chunk_rows: 8,
        chunk_row_bytes: 256,
        macs_per_cycle: 16,
    };
    assert_eq!(hbm, PimArch::hbm_pim(&topo));
    check_selector(topo, hbm, 4, 13);
    cases(128, |g| {
        let topo = edge_topology(g);
        let arch = g.pick(&[PimArch::aim(&topo), PimArch::hbm_pim(&topo)]);
        check_selector(topo, arch, g.u32(4..=10), g.u32(10..=14));
    });
}

/// fp16 codec: decode(encode(x)) is within half-precision tolerance for
/// in-range values.
#[test]
fn f16_codec_tolerance() {
    cases(128, |g| {
        let values: Vec<f32> = g.vec(1..64, |g| g.f64(-1000.0..1000.0) as f32);
        let bytes = facil_pim::f16::encode_f16_le(&values);
        let back = facil_pim::f16::decode_f16_le(&bytes);
        for (a, b) in values.iter().zip(&back) {
            let tol = a.abs() * 1e-3 + 1e-3;
            assert!((a - b).abs() <= tol, "{a} vs {b}");
        }
    });
}
