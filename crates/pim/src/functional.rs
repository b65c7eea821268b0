//! Functional (data-value) PIM execution over the byte-accurate DRAM model,
//! [`BankedMemory`].
//!
//! This is the end-to-end demonstration of FACIL's core claim: the SoC
//! writes weights through plain row-major *virtual* addresses, and the PIM
//! engine — addressing DRAM *cells* directly, bank by bank, row by row —
//! computes the correct GEMV over the very same cells, with no re-layout in
//! between.

use facil_core::{FacilSystem, PimAllocation};
use facil_dram::BankedMemory;

use crate::f16::{decode_f16_le, encode_f16_le};

/// Store a row-major `f32` matrix as fp16 through the SoC's virtual-address
/// view (padded row stride, as `pimalloc` lays it out).
///
/// # Panics
///
/// Panics if `values.len() != rows * cols` or the allocation's dtype is not
/// 16-bit.
///
/// # Errors
///
/// [`facil_core::FacilError::NotMapped`] if the allocation's VA range is no
/// longer mapped (e.g. it was freed).
pub fn store_matrix(
    mem: &mut BankedMemory,
    sys: &FacilSystem,
    alloc: &PimAllocation,
    values: &[f32],
) -> facil_core::Result<()> {
    let m = &alloc.matrix;
    assert_eq!(values.len() as u64, m.rows * m.cols, "value count must match the matrix shape");
    assert_eq!(m.dtype.bytes(), 2, "functional path models 16-bit weights");
    let mapper = sys.va_mapper();
    for r in 0..m.rows {
        let row = &values[(r * m.cols) as usize..((r + 1) * m.cols) as usize];
        let bytes = encode_f16_le(row);
        mem.write_bytes(&mapper, alloc.element_va(r, 0), &bytes)?;
    }
    Ok(())
}

/// Read the matrix back through the SoC view (for re-layout-free GEMM).
///
/// # Errors
///
/// [`facil_core::FacilError::NotMapped`] if the allocation's VA range is no
/// longer mapped.
pub fn load_matrix(
    mem: &BankedMemory,
    sys: &FacilSystem,
    alloc: &PimAllocation,
) -> facil_core::Result<Vec<f32>> {
    let m = &alloc.matrix;
    let mapper = sys.va_mapper();
    let mut out = Vec::with_capacity((m.rows * m.cols) as usize);
    for r in 0..m.rows {
        let bytes = mem.read_bytes(&mapper, alloc.element_va(r, 0), (m.cols * 2) as usize)?;
        out.extend(decode_f16_le(&bytes));
    }
    Ok(out)
}

/// Execute `y = W x` the PIM way: walk the matrix chunk by chunk, resolve
/// each chunk to its DRAM cells, check the placement invariants on the fly
/// (one bank, one row, contiguous columns per chunk), read the weights by
/// *device* address and accumulate.
///
/// Partition partial sums are reduced at the end, exactly as the SoC does
/// after a partitioned PIM GEMV (paper Fig. 10).
///
/// # Panics
///
/// Panics if `x.len() != cols`, or if the placement violates the PIM
/// invariants (which would mean the mapping is broken).
pub fn pim_gemv(
    mem: &BankedMemory,
    sys: &FacilSystem,
    alloc: &PimAllocation,
    x: &[f32],
) -> Vec<f32> {
    let m = &alloc.matrix;
    assert_eq!(x.len() as u64, m.cols, "input length must match matrix columns");
    let topo = sys.spec().topology;
    let arch = sys.arch();
    let scheme = &alloc.decision.scheme;
    let tx = topo.transfer_bytes;
    let chunk_bytes = arch.chunk_row_bytes;
    let chunk_elems = (chunk_bytes / 2) as usize;
    let page_table = sys.page_table();

    let mut y = vec![0f32; m.rows as usize];
    for r in 0..m.rows {
        let mut acc_parts: Vec<f32> = Vec::new(); // one partial per PU touched
        let mut last_pu = None;
        let mut acc = 0f32;
        let mut col = 0u64;
        while col < m.cols {
            let n = chunk_elems.min((m.cols - col) as usize);
            let va = alloc.element_va(r, col);
            // VA -> PA through the page table (the PTE supplies the MapID,
            // but here we use the allocation's scheme directly, as the
            // frontend mux would).
            // The allocator mapped every VA of this placement before handing
            // it out, so translation cannot miss.
            #[allow(clippy::expect_used)]
            let pa = page_table.translate(va).expect("allocation is mapped").pa;
            let first = scheme.map_pa(pa);
            // Gather the chunk transfer by transfer via device addresses,
            // asserting PIM placement invariants.
            let mut bytes = Vec::with_capacity(chunk_bytes as usize);
            for t in 0..(n as u64 * 2).div_ceil(tx) {
                let da = scheme.map_pa(pa + t * tx);
                assert_eq!(
                    (da.channel, da.rank, da.bank, da.row),
                    (first.channel, first.rank, first.bank, first.row),
                    "chunk must stay in one DRAM row of one bank"
                );
                assert_eq!(da.column, first.column + t, "chunk must be at contiguous columns");
                bytes.extend(mem.load_transfer(da));
            }
            let w = decode_f16_le(&bytes[..n * 2]);
            let pu = (first.channel, first.rank, first.bank);
            if last_pu.is_some() && last_pu != Some(pu) {
                // Crossed into another PU: a new partial sum begins
                // (column-partitioned row).
                acc_parts.push(acc);
                acc = 0.0;
            }
            last_pu = Some(pu);
            for (i, wv) in w.iter().enumerate() {
                acc += wv * x[col as usize + i];
            }
            col += n as u64;
        }
        acc_parts.push(acc);
        // The padding of a row belongs to its partitions too, as the tracer
        // counts them: a PU that holds only padding adds no partial.
        let mut pus = acc_parts.len() as u64;
        let padded_cols = m.padded_row_bytes() / m.dtype.bytes();
        let mut col = m.cols.next_multiple_of(chunk_elems as u64);
        while col < padded_cols {
            let va = alloc.va + r * m.padded_row_bytes() + col * m.dtype.bytes();
            #[allow(clippy::expect_used)]
            let pa = page_table.translate(va).expect("allocation is mapped").pa;
            let first = scheme.map_pa(pa);
            let pu = (first.channel, first.rank, first.bank);
            if last_pu != Some(pu) {
                pus += 1;
                last_pu = Some(pu);
            }
            col += chunk_elems as u64;
        }
        assert_eq!(pus, alloc.decision.partitions, "row must span exactly `partitions` PUs");
        // SoC-side reduction of the partials.
        y[r as usize] = acc_parts.iter().sum();
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use facil_core::{DType, MatrixConfig, PimArch};
    use facil_dram::DramSpec;

    fn make_system() -> FacilSystem {
        let spec = DramSpec::lpddr5_6400(64, 8 << 30);
        let arch = PimArch::aim(&spec.topology);
        FacilSystem::new(spec, arch)
    }

    fn reference_gemv(rows: usize, cols: usize, w: &[f32], x: &[f32]) -> Vec<f32> {
        (0..rows).map(|r| (0..cols).map(|c| w[r * cols + c] * x[c]).sum()).collect()
    }

    #[test]
    fn pim_gemv_matches_reference() {
        let mut sys = make_system();
        let (rows, cols) = (64u64, 2048u64);
        let alloc = sys.pimalloc(MatrixConfig::new(rows, cols, DType::F16)).unwrap();
        let mut mem = BankedMemory::new(sys.spec().topology);

        // Deterministic small-magnitude weights (exact in fp16).
        let w: Vec<f32> = (0..rows * cols).map(|i| ((i % 7) as f32 - 3.0) * 0.25).collect();
        let x: Vec<f32> = (0..cols).map(|i| ((i % 5) as f32 - 2.0) * 0.5).collect();
        store_matrix(&mut mem, &sys, &alloc, &w).unwrap();

        let y = pim_gemv(&mem, &sys, &alloc, &x);
        let reference = reference_gemv(rows as usize, cols as usize, &w, &x);
        for (a, b) in y.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-3 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn soc_view_reads_back_what_it_wrote() {
        let mut sys = make_system();
        let alloc = sys.pimalloc(MatrixConfig::new(16, 2048, DType::F16)).unwrap();
        let mut mem = BankedMemory::new(sys.spec().topology);
        let w: Vec<f32> = (0..16 * 2048).map(|i| (i % 11) as f32 * 0.125).collect();
        store_matrix(&mut mem, &sys, &alloc, &w).unwrap();
        assert_eq!(
            load_matrix(&mem, &sys, &alloc).unwrap(),
            w,
            "row-major SoC view is intact: no re-layout needed"
        );
    }

    #[test]
    fn partitioned_rows_reduce_correctly() {
        // Jetson-like wide system forces 2-way partitioning.
        let spec = DramSpec::lpddr5_6400(256, 64 << 30);
        let arch = PimArch::aim(&spec.topology);
        let mut sys = FacilSystem::new(spec, arch);
        let alloc = sys.pimalloc(MatrixConfig::new(8, 4096, DType::F16)).unwrap();
        assert_eq!(alloc.decision.partitions, 2);
        let mut mem = BankedMemory::new(sys.spec().topology);
        let w: Vec<f32> = (0..8 * 4096).map(|i| ((i % 3) as f32 - 1.0) * 0.5).collect();
        let x: Vec<f32> = (0..4096).map(|i| ((i % 4) as f32 - 1.5) * 0.25).collect();
        store_matrix(&mut mem, &sys, &alloc, &w).unwrap();
        let y = pim_gemv(&mem, &sys, &alloc, &x);
        let reference = reference_gemv(8, 4096, &w, &x);
        for (a, b) in y.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-2 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn hbm_pim_style_gemv_matches_reference() {
        // Single-channel system so HBM-PIM chunks need no partitioning.
        let spec = DramSpec::lpddr5_6400(16, 2 << 30);
        let arch = PimArch::hbm_pim(&spec.topology);
        let mut sys = FacilSystem::new(spec, arch);
        let alloc = sys.pimalloc(MatrixConfig::new(64, 1024, DType::F16)).unwrap();
        let mut mem = BankedMemory::new(sys.spec().topology);
        let w: Vec<f32> = (0..64 * 1024).map(|i| ((i % 5) as f32 - 2.0) * 0.5).collect();
        let x: Vec<f32> = (0..1024).map(|i| ((i % 6) as f32 - 2.5) * 0.25).collect();
        store_matrix(&mut mem, &sys, &alloc, &w).unwrap();
        let y = pim_gemv(&mem, &sys, &alloc, &x);
        for (r, got) in y.iter().enumerate() {
            let want: f32 = (0..1024).map(|c| w[r * 1024 + c] * x[c]).sum();
            assert!((got - want).abs() < 1e-2 * want.abs().max(1.0), "row {r}: {got} vs {want}");
        }
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn wrong_input_length_panics() {
        let mut sys = make_system();
        let alloc = sys.pimalloc(MatrixConfig::new(4, 2048, DType::F16)).unwrap();
        let mem = BankedMemory::new(sys.spec().topology);
        pim_gemv(&mem, &sys, &alloc, &[0.0; 16]);
    }
}
