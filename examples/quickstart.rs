//! Quickstart: place one weight matrix with `pimalloc`, inspect the chosen
//! mapping, and demonstrate the paper's core claim end to end — the PIM
//! computes a GEMV over exactly the cells the SoC wrote through plain
//! row-major virtual addresses, with no re-layout in either direction.
//!
//! Run with: `cargo run --release --example quickstart`

use facil::core::{DType, FacilSystem, MatrixConfig, PimArch};
use facil::dram::{BankedMemory, DramSpec};
use facil::pim::{load_matrix, pim_gemv, store_matrix, PimEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An iPhone 15 Pro-like memory system: LPDDR5-6400, 64-bit bus, 8 GB,
    // augmented with AiM-style near-bank PIM.
    let spec = DramSpec::lpddr5_6400(64, 8 << 30);
    let arch = PimArch::aim(&spec.topology);
    let mut sys = FacilSystem::new(spec.clone(), arch);

    // 1. pimalloc: one call places the matrix PIM-optimally and returns a
    //    contiguous virtual address (paper Fig. 7).
    let matrix = MatrixConfig::new(2048, 2048, DType::F16);
    let w = sys.pimalloc(matrix)?;
    println!("pimalloc'd {matrix}:");
    println!("  VA base        : {:#x}", w.va);
    println!("  huge pages     : {}", w.pages.len());
    println!("  selected       : {}", w.decision.scheme);
    println!("  MapID          : {}", w.map_id());
    println!("  partitions     : {}", w.decision.partitions);
    println!("  frontend muxes : {} inputs each", sys.frontend().mux_inputs());

    // 2. The SoC stores the weights through ordinary row-major virtual
    //    addresses — no knowledge of the DRAM layout required.
    let mut mem = BankedMemory::new(sys.spec().topology);
    let weights: Vec<f32> =
        (0..matrix.rows * matrix.cols).map(|i| ((i % 13) as f32 - 6.0) * 0.125).collect();
    store_matrix(&mut mem, &sys, &w, &weights).expect("allocation is mapped");

    // 3. The PIM walks the same cells bank by bank and computes y = W x.
    let x: Vec<f32> = (0..matrix.cols).map(|i| ((i % 7) as f32 - 3.0) * 0.25).collect();
    let y = pim_gemv(&mem, &sys, &w, &x);

    // Check against a plain reference GEMV.
    let reference: Vec<f32> = (0..matrix.rows as usize)
        .map(|r| {
            (0..matrix.cols as usize).map(|c| weights[r * matrix.cols as usize + c] * x[c]).sum()
        })
        .collect();
    let max_err = y.iter().zip(&reference).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
    println!("\nPIM GEMV max error vs reference: {max_err:.2e} (fp16 rounding only)");

    // 4. And the SoC reads the matrix back row-major, intact — this is what
    //    lets it run GEMM without any re-layout.
    assert_eq!(load_matrix(&mem, &sys, &w).expect("allocation is mapped"), weights);
    println!("SoC row-major readback intact: re-layout-free sharing works");

    // 5. How long would that GEMV take on the PIM?
    let engine = PimEngine::new(spec, arch);
    let t = engine.gemv(&w.matrix, &w.decision);
    println!(
        "\nPIM GEMV timing: {:.1} us, internal bandwidth {:.1} GB/s ({}x the external peak)",
        t.time_ns / 1e3,
        t.internal_bw / 1e9,
        (t.internal_bw / engine.spec().peak_bandwidth_bytes_per_sec()).round()
    );
    Ok(())
}
