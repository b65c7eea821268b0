//! Property-based tests for the FACIL mapping formulation, paging and
//! allocator. (The selector's placements are checked under the tracer in
//! facil-pim's property tests.)

use std::collections::HashSet;

use facil_check::{cases, Gen};
use facil_core::paging::{PhysicalMemory, RadixPageTable, Tlb};
use facil_core::{MapId, MappingScheme, PimArch, HUGE_PAGE_BITS};
use facil_dram::Topology;

/// Realistic edge-device topologies (powers of two, 2 KB rows, 32 B
/// transfers, interleaving bits that fit a 2 MB page offset).
fn topology(g: &mut Gen) -> Topology {
    let (ch, rk, bg, bpg, rowb) =
        (g.u32(0..=4), g.u32(0..=1), g.u32(1..=2), g.u32(1..=2), g.u32(8..=14));
    Topology::new(1 << ch, 1 << rk, 1 << bg, 1 << bpg, 1 << rowb, 2048, 32)
}

fn arch(g: &mut Gen, topo: &Topology) -> PimArch {
    g.pick(&[PimArch::aim(topo), PimArch::hbm_pim(topo)])
}

/// Every PIM-optimized scheme is a bijection: map then unmap is the
/// identity on transfer-aligned PAs, for every legal MapID.
#[test]
fn pim_schemes_are_bijective() {
    cases(128, |g| {
        let topo = topology(g);
        let arch = arch(g, &topo);
        let pa_seed = g.u64(..);
        let max = MappingScheme::in_page_row_bits(&topo, HUGE_PAGE_BITS).unwrap();
        for map_id in 0..=max as u8 {
            let s = MappingScheme::pim_optimized(topo, &arch, map_id, HUGE_PAGE_BITS).unwrap();
            for i in 0..64u64 {
                let pa = (pa_seed.wrapping_mul(i * 2 + 1) % topo.capacity_bytes()) & !31;
                let da = s.map_pa(pa);
                assert!(da.is_valid(&topo));
                assert_eq!(s.unmap(da), pa);
            }
        }
    });
}

/// Distinct transfer-aligned PAs inside one huge page map to distinct
/// device addresses (injectivity over the whole permuted domain).
#[test]
fn page_offset_permutation_is_injective() {
    cases(128, |g| {
        let topo = topology(g);
        let arch = arch(g, &topo);
        let map_id_frac = g.f64(0.0..=1.0);
        let max = MappingScheme::in_page_row_bits(&topo, HUGE_PAGE_BITS).unwrap();
        let map_id = (map_id_frac * max as f64).round() as u8;
        let s = MappingScheme::pim_optimized(topo, &arch, map_id, HUGE_PAGE_BITS).unwrap();
        let mut seen = std::collections::HashSet::new();
        // Sample a stride pattern through one page (checking all 65536
        // transfers is too slow per case; stride hits all bit positions).
        for i in 0..2048u64 {
            let pa = (i * 37 % (1 << (HUGE_PAGE_BITS - 5))) << 5;
            let da = s.map_pa(pa);
            let key = da.flat_index(&topo);
            if !seen.insert(key) {
                // Allowed only if the PA was itself repeated.
                assert!((0..i).any(|j| (j * 37 % (1 << (HUGE_PAGE_BITS - 5))) << 5 == pa));
            }
        }
    });
}

/// The physical allocator conserves frames exactly: free bytes decrease
/// by exactly 2 MB per successful huge-page allocation, regardless of
/// fragmentation, and it never double-allocates: every page it hands out
/// is 2 MB-aligned and distinct from every page still held.
#[test]
fn allocator_conserves_frames() {
    cases(128, |g| {
        let (fmfi, used_frac) = (g.f64(0.0..=1.0), g.f64(0.0..=0.9));
        let total = 64u64 << 20;
        let mut pm = PhysicalMemory::new(total);
        let used = ((total as f64 * used_frac) as u64 >> 12) << 12;
        pm.fragment_to(used, fmfi);
        let mut free = pm.free_bytes();
        let mut held = HashSet::new();
        while let Ok(a) = pm.alloc_huge() {
            assert_eq!(pm.free_bytes(), free - (2 << 20));
            assert_eq!(a.pa % (2 << 20), 0, "{:#x} is not 2 MB-aligned", a.pa);
            assert!(held.insert(a.pa), "{:#x} handed out twice", a.pa);
            free = pm.free_bytes();
        }
        assert!(pm.free_bytes() < 2 << 20);
    });
}

/// TLB translations always agree with the page table, hit or miss.
#[test]
fn tlb_is_transparent() {
    cases(128, |g| {
        let pages = g.vec(1..16, |g| g.u64(0..64));
        let lookups = g.vec(1..64, |g| (g.u64(0..16), g.u64(0..(1 << 21))));
        let mut pt = RadixPageTable::new();
        let installed: Vec<u64> = pages.iter().take(16).copied().collect();
        for (i, p) in installed.iter().enumerate() {
            // A page drawn twice is remapped: the last mapping wins.
            pt.unmap(*p << 21);
            pt.map_huge(*p << 21, (i as u64) << 21, Some(MapId((i % 16) as u8)));
        }
        let mut tlb = Tlb::new(8, 2);
        for (pi, offset) in lookups {
            let p = installed[pi as usize % installed.len()];
            let va = (p << 21) + offset;
            let direct = pt.translate(va).unwrap();
            let via_tlb = tlb.translate(va, &pt).unwrap();
            assert_eq!(direct, via_tlb);
        }
    });
}
