//! The extended `mmap()` interface (paper Section V-A): an address space
//! that hands out virtual regions backed by 4 KB or 2 MB pages, where huge
//! mappings may carry a MapID — exactly the one-argument extension the
//! paper adds to `mmap`.
//!
//! This is the simulator's one OS model: each
//! [`crate::pimalloc::FacilSystem`] holds an [`AddressSpace`], so every page
//! that `pimalloc`, serving, PIM tracing and fidelity map is installed here,
//! in the structural [`RadixPageTable`], and every access walks it.

use std::collections::{BTreeMap, HashMap};

use crate::error::{FacilError, Result};
use crate::paging::phys::{AllocStats, PhysicalMemory};
use crate::paging::pte::{Translation, BASE_PAGE_BITS, HUGE_PAGE_BITS};
use crate::paging::radix::RadixPageTable;
use crate::select::MapId;

/// Flags of one `mmap` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MmapFlags {
    /// Use 2 MB huge pages (`MAP_HUGETLB`).
    pub huge: bool,
    /// FACIL extension: the PA-to-DA mapping the region's pages must use.
    /// Requires `huge` (the MapID remaps page-offset bits that only a huge
    /// page has).
    pub map_id: Option<MapId>,
}

#[derive(Debug, Clone, Copy)]
struct Region {
    len: u64,
    flags: MmapFlags,
}

/// A process address space with FACIL-extended `mmap`.
#[derive(Debug)]
pub struct AddressSpace {
    table: RadixPageTable,
    phys: PhysicalMemory,
    regions: BTreeMap<u64, Region>,
    /// Live regions of 4 KB pages. While there are none, no page sits on a
    /// frame compaction can move, so huge-page `mmap`s collect no moves.
    base_regions: usize,
    next_va: u64,
}

/// Base of the mmap area (page aligned, away from 0 to catch null-ish bugs).
const VA_BASE: u64 = 0x10_0000_0000;

impl AddressSpace {
    /// Create an address space over `phys_bytes` of physical memory.
    ///
    /// # Panics
    ///
    /// Panics if `phys_bytes` is not a multiple of 2 MB.
    pub fn new(phys_bytes: u64) -> Self {
        AddressSpace {
            table: RadixPageTable::new(),
            phys: PhysicalMemory::new(phys_bytes),
            regions: BTreeMap::new(),
            base_regions: 0,
            next_va: VA_BASE,
        }
    }

    /// Map `len` bytes (rounded up to the page granularity of `flags`).
    ///
    /// # Errors
    ///
    /// * [`FacilError::InvalidRequest`] for zero length or `map_id` without
    ///   `huge`;
    /// * [`FacilError::OutOfMemory`] when physical frames run out (already
    ///   installed pages are rolled back).
    pub fn mmap(&mut self, len: u64, flags: MmapFlags) -> Result<u64> {
        if len == 0 {
            return Err(FacilError::InvalidRequest("zero-length mmap".into()));
        }
        if flags.map_id.is_some() && !flags.huge {
            return Err(FacilError::InvalidRequest(
                "MapID requires MAP_HUGETLB: the PIM mapping permutes huge-page offset bits".into(),
            ));
        }
        let page_bits = if flags.huge { HUGE_PAGE_BITS } else { BASE_PAGE_BITS };
        let page = 1u64 << page_bits;
        let pages = len.div_ceil(page);
        // Align the base to the page size.
        let va = (self.next_va + page - 1) & !(page - 1);
        for i in 0..pages {
            let page_va = va + i * page;
            let res = if flags.huge {
                let h = if self.base_regions == 0 {
                    self.phys.alloc_huge()
                } else {
                    let mut moves = Vec::new();
                    let h = self.phys.alloc_huge_with_moves(&mut moves);
                    self.follow(&moves);
                    h
                };
                h.map(|h| self.table.map_huge(page_va, h.pa, flags.map_id))
            } else {
                self.phys.alloc_base().map(|pa| self.table.map_base(page_va, pa))
            };
            if let Err(e) = res {
                // Roll back the pages installed so far.
                self.unmap_pages(va, i * page, flags.huge);
                return Err(e);
            }
        }
        self.next_va = va + pages * page;
        self.regions.insert(va, Region { len: pages * page, flags });
        self.base_regions += usize::from(!flags.huge);
        Ok(va)
    }

    /// Unmap the region starting exactly at `va`.
    ///
    /// # Errors
    ///
    /// [`FacilError::NotMapped`] if `va` is not the base of a live region
    /// (say, one unmapped already); nothing is unmapped then.
    pub fn munmap(&mut self, va: u64) -> Result<()> {
        let region = self.regions.remove(&va).ok_or(FacilError::NotMapped { va })?;
        self.unmap_pages(va, region.len, region.flags.huge);
        self.base_regions -= usize::from(!region.flags.huge);
        Ok(())
    }

    /// Unmap the `len` bytes of pages from `va` and give their frames back
    /// to the physical allocator.
    fn unmap_pages(&mut self, va: u64, len: u64, huge: bool) {
        let page = 1u64 << if huge { HUGE_PAGE_BITS } else { BASE_PAGE_BITS };
        for page_va in (va..va + len).step_by(page as usize) {
            if let Some(pte) = self.table.unmap(page_va) {
                if huge {
                    self.phys.free_huge(pte.pa());
                } else {
                    self.phys.free_base(pte.pa());
                }
            }
        }
    }

    /// Point every 4 KB page whose frame compaction moved at the frame's new
    /// place. A moved frame no page maps is filler of a prepared
    /// fragmentation state ([`Self::fragment_physical`]) and needs nothing.
    fn follow(&mut self, moves: &[(u64, u64)]) {
        if moves.is_empty() {
            return;
        }
        let moved: HashMap<u64, u64> = moves.iter().copied().collect();
        for (&va, region) in self.regions.iter().filter(|(_, r)| !r.flags.huge) {
            for page_va in (va..va + region.len).step_by(1 << BASE_PAGE_BITS) {
                if let Ok(t) = self.table.translate(page_va) {
                    if let Some(&to) = moved.get(&t.pa) {
                        self.table.map_base(page_va, to);
                    }
                }
            }
        }
    }

    /// Prepare physical memory at a (utilization, FMFI) state, as
    /// [`PhysicalMemory::fragment_to`] does, and reset the allocator
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if any region is live: the prepared state marks frames used
    /// or free whoever holds them, so a later `mmap` could be handed a live
    /// region's frames. Panics also as [`PhysicalMemory::fragment_to`] does.
    pub fn fragment_physical(&mut self, used_bytes: u64, fmfi: f64) {
        assert!(self.regions.is_empty(), "cannot fragment physical memory under live regions");
        self.phys.fragment_to(used_bytes, fmfi);
    }

    /// Translate a virtual address (page walk).
    ///
    /// # Errors
    ///
    /// [`FacilError::NotMapped`] for unmapped addresses.
    pub fn translate(&self, va: u64) -> Result<Translation> {
        self.table.translate(va)
    }

    /// The underlying structural page table.
    pub fn page_table(&self) -> &RadixPageTable {
        &self.table
    }

    /// Free physical bytes.
    pub fn free_bytes(&self) -> u64 {
        self.phys.free_bytes()
    }

    /// The physical allocator's statistics, compaction included.
    pub fn alloc_stats(&self) -> AllocStats {
        self.phys.stats()
    }

    /// Number of live regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_mmap_roundtrip() {
        let mut a = AddressSpace::new(16 << 20);
        let va = a.mmap(10_000, MmapFlags::default()).unwrap();
        assert_eq!(va % 4096, 0);
        // 3 pages of 4 KB.
        let t0 = a.translate(va).unwrap();
        let t2 = a.translate(va + 8192 + 5).unwrap();
        assert!(!t0.huge);
        assert_ne!(t0.pa, t2.pa);
        assert_eq!(t2.pa % 4096, 5);
    }

    #[test]
    fn pim_mmap_carries_mapid() {
        let mut a = AddressSpace::new(16 << 20);
        let va = a.mmap(3 << 20, MmapFlags { huge: true, map_id: Some(MapId(2)) }).unwrap();
        assert_eq!(va % (2 << 20), 0);
        for off in [0u64, 1 << 20, (2 << 20) + 7] {
            let t = a.translate(va + off).unwrap();
            assert!(t.huge);
            assert_eq!(t.map_id, Some(MapId(2)));
        }
    }

    #[test]
    fn mapid_without_huge_is_rejected() {
        let mut a = AddressSpace::new(4 << 20);
        let err = a.mmap(4096, MmapFlags { huge: false, map_id: Some(MapId(1)) }).unwrap_err();
        assert!(matches!(err, FacilError::InvalidRequest(_)));
    }

    #[test]
    fn munmap_frees_frames() {
        for (len, huge, used) in [(4 << 20, true, 4 << 20), (10_000, false, 3 * 4096)] {
            let mut a = AddressSpace::new(16 << 20);
            let va = a.mmap(len, MmapFlags { huge, map_id: None }).unwrap();
            assert_eq!(a.free_bytes(), (16 << 20) - used);
            a.munmap(va).unwrap();
            assert_eq!(a.free_bytes(), 16 << 20);
            assert!(a.translate(va).is_err());
            assert_eq!(a.region_count(), 0);
        }
    }

    #[test]
    fn oom_rolls_back_mmap() {
        for (len, huge) in [(8 << 20, true), (5 << 20, false)] {
            let mut a = AddressSpace::new(4 << 20);
            let err = a.mmap(len, MmapFlags { huge, map_id: None }).unwrap_err();
            assert!(matches!(err, FacilError::OutOfMemory { .. }));
            assert_eq!(a.free_bytes(), 4 << 20, "rolled back");
            assert_eq!(a.region_count(), 0);
        }
    }

    #[test]
    fn zero_length_rejected_and_unknown_munmap_faults() {
        let mut a = AddressSpace::new(4 << 20);
        assert!(a.mmap(0, MmapFlags::default()).is_err());
        assert!(matches!(a.munmap(0x123), Err(FacilError::NotMapped { .. })));
    }

    /// Compaction moves live 4 KB frames out of the block it turns into a
    /// huge page; their pages must follow them, or `munmap` frees frames of
    /// the huge page and leaks the moved ones.
    #[test]
    fn compaction_moves_base_pages_with_their_frames() {
        let mut a = AddressSpace::new(6 << 20);
        let (base, huge) = (MmapFlags::default(), MmapFlags { huge: true, map_id: None });
        let first = a.mmap(300 << 12, base).unwrap();
        let h1 = a.mmap(2 << 20, huge).unwrap();
        let second = a.mmap(300 << 12, base).unwrap();
        a.munmap(first).unwrap();
        // No block is fully free: this compacts 88 frames of `second`.
        let h2 = a.mmap(2 << 20, huge).unwrap();
        let blocks = [h1, h2].map(|h| a.translate(h).unwrap().pa);
        for va in (second..second + (300 << 12)).step_by(4096) {
            let pa = a.translate(va).unwrap().pa;
            assert!(
                blocks.iter().all(|&b| pa < b || pa >= b + (2 << 20)),
                "{pa:#x} is in a huge page"
            );
        }
        for va in [second, h1, h2] {
            a.munmap(va).unwrap();
        }
        assert_eq!(a.free_bytes(), 6 << 20, "every frame is free again");
    }

    #[test]
    fn regions_do_not_overlap() {
        let mut a = AddressSpace::new(32 << 20);
        let v1 = a.mmap(3 << 20, MmapFlags { huge: true, map_id: Some(MapId(1)) }).unwrap();
        let v2 = a.mmap(5000, MmapFlags::default()).unwrap();
        let v3 = a.mmap(2 << 20, MmapFlags { huge: true, map_id: None }).unwrap();
        assert!(v1 + (4 << 20) <= v2 || v2 + 8192 <= v1);
        assert!(v2 + 8192 <= v3);
        assert_eq!(a.region_count(), 3);
    }
}
