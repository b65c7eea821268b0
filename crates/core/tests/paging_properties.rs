//! Property-based tests for the paging stack every `FacilSystem` runs on:
//! random mmap/munmap sequences against a reference model.

use facil_check::{cases, Gen};
use facil_core::paging::{AddressSpace, MmapFlags};
use facil_core::MapId;

#[derive(Debug, Clone)]
enum MmapOp {
    Map { len: u64, huge: bool, map_id: Option<u8> },
    UnmapNth(usize),
}

/// One mmap or munmap of up to `max_len` bytes.
fn op(g: &mut Gen, max_len: u64) -> MmapOp {
    if g.bool() {
        let (len, huge) = (g.u64(1..max_len), g.bool());
        let id = g.bool().then(|| g.u8(0..16));
        MmapOp::Map { len, huge, map_id: id.filter(|_| huge) }
    } else {
        MmapOp::UnmapNth(g.usize(0..8))
    }
}

/// A random program and the physical memory it runs in. Half the programs
/// run in 8 MB and start by fragmenting it: 4 KB-page regions fill most of
/// it, then every other one is unmapped, so huge mappings that follow find
/// free frames in every block but no free block, and compact.
fn program(g: &mut Gen) -> (u64, Vec<MmapOp>) {
    if g.bool() {
        return (128 << 20, g.vec(1..24, |g| op(g, 6_000_000)));
    }
    let mut ops =
        g.vec(8..16, |g| MmapOp::Map { len: g.u64(1..1_000_000), huge: false, map_id: None });
    // Removing index i after i earlier removals unmaps every other region.
    ops.extend((0..ops.len() / 2).map(MmapOp::UnmapNth));
    ops.extend(g.vec(1..24, |g| op(g, 2_000_000)));
    (8 << 20, ops)
}

/// The physical frame behind every mapped 4 KB page: no two pages may
/// share one, so a page left pointing at a frame that compaction moved
/// (into what is now a huge page) shows up here.
fn assert_frames_disjoint(space: &AddressSpace, model: &[(u64, u64, Option<MapId>)]) {
    let mut frames = Vec::new();
    for &(va, len, _) in model {
        for page_va in (va..va + len).step_by(4096) {
            frames.push(space.translate(page_va).expect("mapped").pa >> 12);
        }
    }
    let n = frames.len();
    frames.sort_unstable();
    frames.dedup();
    assert_eq!(frames.len(), n, "two mapped pages share a physical frame");
}

/// Random mmap/munmap programs: regions never overlap, translations
/// agree with a flat model of what was mapped, no two pages share a frame,
/// and frames are conserved. Some programs must compact.
#[test]
fn address_space_matches_model() {
    let mut compacted = 0;
    cases(64, |g| {
        let (total, ops) = program(g);
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
            if total < 128 << 20 {
                assert_frames_disjoint(&space, &model);
            }
            // Frames are conserved: exactly the mapped bytes are in use,
            // through failed mmaps (rolled back) and munmaps of either size.
            let mapped: u64 = model.iter().map(|(_, len, _)| len).sum();
            assert_eq!(space.free_bytes(), total - mapped);
        }
        assert_frames_disjoint(&space, &model);
        assert_eq!(space.region_count(), model.len());
        compacted += usize::from(space.alloc_stats().pages_compacted > 0);
    });
    assert!(compacted >= 8, "only {compacted} of 64 programs compacted");
}
