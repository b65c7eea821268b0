//! Property-based tests for the structural paging stack: random
//! mmap/munmap sequences against a reference model, and radix/flat table
//! agreement under random mapping programs.

use std::collections::BTreeMap;

use facil_check::{cases, Gen};
use facil_core::paging::{AddressSpace, MmapFlags, PageTable, RadixPageTable};
use facil_core::MapId;

#[derive(Debug, Clone)]
enum MmapOp {
    Map { len: u64, huge: bool, map_id: Option<u8> },
    UnmapNth(usize),
}

fn op(g: &mut Gen) -> MmapOp {
    if g.bool() {
        let (len, huge) = (g.u64(1..6_000_000), g.bool());
        let id = g.bool().then(|| g.u8(0..16));
        MmapOp::Map { len, huge, map_id: id.filter(|_| huge) }
    } else {
        MmapOp::UnmapNth(g.usize(0..8))
    }
}

/// Random mmap/munmap programs: regions never overlap, translations
/// agree with a flat model of what was mapped, frames are conserved.
#[test]
fn address_space_matches_model() {
    cases(64, |g| {
        let ops = g.vec(1..24, op);
        let total = 128u64 << 20;
        let mut space = AddressSpace::new(total);
        // Model: region base -> (len, map_id).
        let mut model: Vec<(u64, u64, Option<MapId>)> = Vec::new();
        for op in ops {
            match op {
                MmapOp::Map { len, huge, map_id } => {
                    let flags = MmapFlags { huge, map_id: map_id.map(MapId) };
                    // A mmap Err (OOM) is legal under memory pressure.
                    if let Ok(va) = space.mmap(len, flags) {
                        let page = if huge { 2u64 << 20 } else { 4096 };
                        let rounded = len.div_ceil(page) * page;
                        // No overlap with model regions.
                        for (b, l, _) in &model {
                            assert!(va + rounded <= *b || b + l <= va);
                        }
                        model.push((va, rounded, flags.map_id));
                    }
                }
                MmapOp::UnmapNth(n) => {
                    if !model.is_empty() {
                        let (va, _, _) = model.remove(n % model.len());
                        space.munmap(va).expect("region exists");
                    }
                }
            }
            // Every modelled byte translates with the right MapID; a probe
            // beyond every region faults.
            for (va, len, map_id) in &model {
                let t = space.translate(va + len / 2).expect("mapped");
                assert_eq!(t.map_id, *map_id);
            }
            // Frames are conserved: exactly the mapped bytes are in use,
            // through failed mmaps (rolled back) and munmaps of either size.
            let mapped: u64 = model.iter().map(|(_, len, _)| len).sum();
            assert_eq!(space.free_bytes(), total - mapped);
        }
        assert_eq!(space.region_count(), model.len());
    });
}

/// The radix table agrees with the flat table on random huge-page
/// mapping programs.
#[test]
fn radix_agrees_with_flat() {
    cases(64, |g| {
        let map: BTreeMap<u64, (u64, Option<u8>)> = g
            .vec(1..32, |g| (g.u64(0..512), (g.u64(0..1024), g.bool().then(|| g.u8(0..16)))))
            .into_iter()
            .collect();
        let probes = g.vec(1..64, |g| (g.u64(0..512), g.u64(0..(2 << 20))));
        let mut flat = PageTable::new();
        let mut radix = RadixPageTable::new();
        for (vpn, (pfn, id)) in &map {
            let va = vpn << 21;
            let pa = pfn << 21;
            match id {
                Some(id) => {
                    flat.map_huge_pim(va, pa, MapId(*id));
                    radix.map_huge(va, pa, Some(MapId(*id)));
                }
                None => {
                    flat.map_huge(va, pa);
                    radix.map_huge(va, pa, None);
                }
            }
        }
        for (vpn, offset) in probes {
            let va = (vpn << 21) + offset;
            match (flat.translate(va), radix.translate(va)) {
                (Ok(a), Ok((b, w))) => {
                    assert_eq!(a, b);
                    assert_eq!(w.levels, 3);
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!("disagree at {va:#x}: {a:?} vs {b:?}"),
            }
        }
    });
}
