//! Integration tests of the OS/hardware path through `FacilSystem`: TLB
//! transparency with MapIDs, frontend mux limits and agreement with every
//! live allocation, out-of-memory rollback, faults on unmapped addresses,
//! and mixing PIM and conventional allocations in one address space.

use facil::core::paging::Tlb;
use facil::core::{
    DType, FacilError, FacilSystem, Field, MappingScheme, MatrixConfig, PimAllocation, PimArch,
    PuOrder, HUGE_PAGE_BITS,
};
use facil::dram::DramSpec;
use facil::mapsearch::Candidate;
use facil::soc::{Platform, PlatformId};
use facil::workloads::XorShift64Star;

fn iphone_system() -> FacilSystem {
    let spec = DramSpec::lpddr5_6400(64, 8 << 30);
    let arch = PimArch::aim(&spec.topology);
    FacilSystem::new(spec, arch)
}

/// A TLB in front of the page table returns identical translations for
/// pimalloc'd regions — FACIL needs no TLB changes (paper Section V-A).
#[test]
fn tlb_serves_mapid_translations_unchanged() {
    let mut sys = iphone_system();
    let w = sys.pimalloc(MatrixConfig::new(64, 4096, DType::F16)).unwrap();
    let scratch = sys.alloc_conventional(2 << 20).unwrap();
    let pt = sys.page_table();
    let mut tlb = Tlb::new(16, 4);
    for offset in [0u64, 0x1234, 0x1F_FFFF] {
        for base in [w.va, scratch] {
            let direct = pt.translate(base + offset).unwrap();
            let cached = tlb.translate(base + offset, pt).unwrap();
            assert_eq!(direct, cached);
        }
    }
    assert_eq!(pt.translate(w.va).unwrap().map_id, Some(w.map_id()));
    assert!(tlb.stats().hits >= 4, "huge-page entries must be reused");
}

/// Virtual addresses from pimalloc and alloc_conventional translate through
/// different mappings but the same physical memory pool, and freeing
/// returns the exact number of pages.
#[test]
fn mixed_address_space_accounting() {
    let mut sys = iphone_system();
    let total = sys.free_bytes();
    let w = sys.pimalloc(MatrixConfig::new(1024, 4096, DType::F16)).unwrap();
    let scratch = sys.alloc_conventional(6 << 20).unwrap();
    let used = w.reserved_bytes() + (6 << 20);
    assert_eq!(sys.free_bytes(), total - used);
    // Both regions translate.
    sys.translate_va(w.va + 4096).unwrap();
    sys.translate_va(scratch + 4096).unwrap();
    sys.free(&w).unwrap();
    assert_eq!(sys.free_bytes(), total - (6 << 20));
}

/// The frontend refuses a fifth distinct mapping like real hardware would,
/// and pimalloc surfaces that as an error instead of mis-mapping.
#[test]
fn frontend_slot_exhaustion_surfaces_cleanly() {
    let spec = DramSpec::lpddr5_6400(64, 8 << 30);
    let arch = PimArch::aim(&spec.topology);
    // Only 1 hardware slot.
    let mut sys = FacilSystem::with_slots(spec, arch, 1);
    // cols 2048 -> MapID 1.
    sys.pimalloc(MatrixConfig::new(64, 2048, DType::F16)).unwrap();
    // cols 4096 -> MapID 2: needs a second slot.
    let err = sys.pimalloc(MatrixConfig::new(64, 4096, DType::F16)).unwrap_err();
    assert_eq!(err, FacilError::FrontendFull { slots: 1 });
    // Same MapID still works.
    sys.pimalloc(MatrixConfig::new(32, 2048, DType::F16)).unwrap();
}

/// Exhausting physical memory mid-allocation rolls back cleanly.
#[test]
fn oom_rolls_back_partial_allocations() {
    let mut sys = iphone_system();
    let free_before = sys.free_bytes();
    // Ask for more than the 8 GB the system has.
    let huge = MatrixConfig::new(3 << 20, 2048, DType::F16); // ~12 GB padded
    let err = sys.pimalloc(huge).unwrap_err();
    assert!(matches!(err, FacilError::OutOfMemory { .. }));
    assert_eq!(sys.free_bytes(), free_before, "partial pages must be returned");
    // And the system still works afterwards.
    sys.pimalloc(MatrixConfig::new(64, 2048, DType::F16)).unwrap();
}

/// Unmapped VAs fault through the whole path.
#[test]
fn unmapped_va_faults() {
    let sys = iphone_system();
    assert!(matches!(sys.translate_va(0xdead_0000), Err(FacilError::NotMapped { .. })));
}

/// One step of an allocation sequence on a `FacilSystem`.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `pimalloc` of a `rows x cols` fp16 matrix.
    Pimalloc(u64, u64),
    /// `pimalloc_with` a candidate's decision for a `rows x cols` matrix.
    PimallocWith(u64, u64, Candidate),
    /// `free` of the live allocation at this index, modulo the live count.
    Free(usize),
}

/// Run `steps` on a fresh system of platform `id`. After every step, sampled
/// VAs of every live allocation must reach the same device address through
/// the page table and frontend as through the scheme its decision names.
fn check_frontend_agreement(id: PlatformId, steps: &[Step]) {
    let platform = Platform::get(id);
    let (topo, arch) = (platform.dram.topology, platform.pim_arch);
    let mut sys = FacilSystem::new(platform.dram.clone(), arch);
    let mut live: Vec<PimAllocation> = Vec::new();
    for (i, &step) in steps.iter().enumerate() {
        let placed = match step {
            Step::Pimalloc(rows, cols) => {
                Some(sys.pimalloc(MatrixConfig::new(rows, cols, DType::F16)))
            }
            Step::PimallocWith(rows, cols, cand) => {
                let m = MatrixConfig::new(rows, cols, DType::F16);
                let d = cand.decision(&m, topo, &arch).unwrap();
                Some(sys.pimalloc_with(m, d))
            }
            Step::Free(k) => {
                if !live.is_empty() {
                    sys.free(&live.remove(k % live.len())).unwrap();
                }
                None
            }
        };
        match placed {
            Some(Ok(a)) => live.push(a),
            // A slot holding another scheme, or a full mux, refuses it.
            Some(Err(FacilError::InvalidMapping(_) | FacilError::FrontendFull { .. })) | None => {}
            Some(Err(e)) => panic!("{id}, step {i} {step:?}: {e}"),
        }
        for a in &live {
            let (rows, cols) = (a.matrix.rows, a.matrix.cols);
            for (r, c) in [(0, 0), (rows / 2, cols - 1), (rows - 1, cols / 2)] {
                let va = a.element_va(r, c);
                let pa = sys.page_table().translate(va).unwrap().pa;
                assert_eq!(
                    sys.translate_va(va).unwrap(),
                    a.decision.scheme.map_pa(pa),
                    "{id}, after step {i} {step:?}: element ({r}, {c}) of a {} allocation",
                    a.decision.scheme.label()
                );
            }
        }
    }
}

/// The frontend translates every live allocation through the scheme its
/// decision names, whatever mix of `pimalloc`, `pimalloc_with` (paper and
/// non-paper candidates) and `free` built the system.
#[test]
fn frontend_agrees_with_every_live_allocation() {
    // pimalloc_with installs PU=ch-ba-rk for MapID 1 on the iPhone; the
    // selector's pick for the same matrix is MapID 1 too, so pimalloc must
    // refuse the slot rather than map through the other scheme.
    let ch_first =
        Candidate { map_id: 1, pu_order: PuOrder([Field::Channel, Field::Bank, Field::Rank]) };
    check_frontend_agreement(
        PlatformId::Iphone,
        &[Step::PimallocWith(64, 2048, ch_first), Step::Pimalloc(64, 2048)],
    );
    for seed in 1..=8 {
        for id in PlatformId::all() {
            let topo = Platform::get(id).dram.topology;
            let max_map_id = MappingScheme::in_page_row_bits(&topo, HUGE_PAGE_BITS).unwrap() as u64;
            let mut rng = XorShift64Star::new(seed);
            let mut draw = |n: u64| rng.next_u64() % n;
            let steps: Vec<Step> = (0..12)
                .map(|_| {
                    let rows = [16, 64, 256][draw(3) as usize];
                    let cols = [1024, 2048, 3000, 4096, 8192][draw(5) as usize];
                    match draw(3) {
                        0 => Step::Pimalloc(rows, cols),
                        1 => Step::PimallocWith(
                            rows,
                            cols,
                            Candidate {
                                map_id: draw(max_map_id + 1) as u8,
                                pu_order: PuOrder::all()[draw(6) as usize],
                            },
                        ),
                        _ => Step::Free(draw(4) as usize),
                    }
                })
                .collect();
            check_frontend_agreement(id, &steps);
        }
    }
}
