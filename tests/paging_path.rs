//! Integration tests of the OS/hardware path through `FacilSystem`: TLB
//! transparency with MapIDs, frontend mux limits, out-of-memory rollback,
//! faults on unmapped addresses, and mixing PIM and conventional
//! allocations in one address space.

use facil::core::paging::Tlb;
use facil::core::{DType, FacilError, FacilSystem, MatrixConfig, PimArch};
use facil::dram::DramSpec;

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
