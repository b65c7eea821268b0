//! Four-level radix page table (x86-64-style) with FACIL's MapID-carrying
//! huge-page entries: the simulator's one page table. Every
//! [`super::AddressSpace`], and so every [`crate::FacilSystem`], installs
//! into one and translates through it.
//!
//! Table pages are real 512-entry frames, a translation walks PML4 → PDPT →
//! PD (→ PT), huge pages terminate at the PD level with the PS bit set, and
//! — the FACIL point — the MapID rides in the huge-page PDE's unused bits,
//! so the table layout, size and walk depth are *identical* to an
//! unmodified OS (asserted by tests).

use crate::error::{FacilError, Result};
use crate::paging::pte::{Pte, Translation, BASE_PAGE_BITS, HUGE_PAGE_BITS};
use crate::select::MapId;

const LEVEL_BITS: u32 = 9;
const ENTRIES: usize = 1 << LEVEL_BITS;
/// Virtual-address bits the four levels index (48); a VA with any bit above
/// them set has no entry, so it cannot alias a lower one.
const VA_BITS: u32 = BASE_PAGE_BITS + 4 * LEVEL_BITS;
/// Marks a slot as a leaf PTE (bit 62: above the 48-bit PA, below NX-style
/// bits — mirrors how real tables distinguish PS/leaf entries per level).
const LEAF: u64 = 1 << 62;

/// Index of the page-table level an entry lives at (4 = PML4 … 1 = PT).
fn level_index(va: u64, level: u32) -> usize {
    let shift = BASE_PAGE_BITS + LEVEL_BITS * (level - 1);
    ((va >> shift) & ((1 << LEVEL_BITS) - 1)) as usize
}

/// One 4 KB table page: 512 raw entries, and what unlinking it needs.
#[derive(Debug)]
struct Frame {
    /// Either leaf [`Pte`] bits with `LEAF` set or `(frame_id << 12) | 1`
    /// pointers.
    entries: [u64; ENTRIES],
    /// Non-zero entries.
    live: u16,
    /// The frame and entry index pointing at this one (the root has none).
    parent: (usize, usize),
}

/// A structural 4-level page table. Table pages are tracked as simulated
/// frames so the model-table memory overhead is measurable.
#[derive(Debug)]
pub struct RadixPageTable {
    /// Table frames indexed by frame id, the root first. A frame other than
    /// the root that an unmap leaves empty is unlinked, as an OS frees page
    /// tables on `munmap`, so the table holds only what live mappings need
    /// however many addresses were mapped before.
    frames: Vec<Frame>,
    /// Ids of unlinked (all-zero) frames, reused before the table grows.
    free: Vec<usize>,
}

impl Default for RadixPageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl RadixPageTable {
    /// An empty table (one root frame).
    pub fn new() -> Self {
        let root = Frame { entries: [0; ENTRIES], live: 0, parent: (0, 0) };
        RadixPageTable { frames: vec![root], free: Vec::new() }
    }

    /// Number of table frames (4 KB pages of table memory) in use.
    pub fn table_frames(&self) -> usize {
        self.frames.len() - self.free.len()
    }

    /// Write one entry, keeping its frame's count of non-zero entries.
    fn set(&mut self, frame: usize, idx: usize, entry: u64) {
        let f = &mut self.frames[frame];
        f.live = f.live + u16::from(entry != 0) - u16::from(f.entries[idx] != 0);
        f.entries[idx] = entry;
    }

    /// Walk down to `target_level`, allocating interior frames as needed,
    /// and return the id of the frame holding the entry for `va` there.
    fn descend_mut(&mut self, va: u64, target_level: u32) -> usize {
        assert_eq!(va >> VA_BITS, 0, "{va:#x} is beyond the {VA_BITS}-bit address space");
        let mut frame = 0;
        for level in (target_level + 1..=4).rev() {
            let idx = level_index(va, level);
            let slot = self.frames[frame].entries[idx];
            frame = if slot & 1 == 1 && slot & LEAF == 0 {
                (slot >> BASE_PAGE_BITS) as usize
            } else {
                assert_eq!(slot, 0, "remapping over an existing leaf at level {level}");
                let id = self.free.pop().unwrap_or_else(|| {
                    self.frames.push(Frame { entries: [0; ENTRIES], live: 0, parent: (0, 0) });
                    self.frames.len() - 1
                });
                self.frames[id].parent = (frame, idx);
                self.set(frame, idx, ((id as u64) << BASE_PAGE_BITS) | 1);
                id
            };
        }
        frame
    }

    /// Install a 4 KB leaf. A 4 KB leaf already at `va` is replaced: this
    /// is how a page follows its frame when compaction moves it.
    ///
    /// # Panics
    ///
    /// Panics if `va`/`pa` are unaligned, `va` is beyond 48 bits, or a huge
    /// page covers `va`.
    pub fn map_base(&mut self, va: u64, pa: u64) {
        assert_eq!(va & ((1 << BASE_PAGE_BITS) - 1), 0);
        let frame = self.descend_mut(va, 1);
        self.set(frame, level_index(va, 1), Pte::base_page(pa).bits() | LEAF);
    }

    /// Install a 2 MB huge-page leaf at the PD level, optionally carrying a
    /// MapID (the FACIL extension; paper Fig. 11).
    ///
    /// # Panics
    ///
    /// Panics on misalignment, if `va` is beyond 48 bits, or if the PD
    /// entry for `va` is not empty (a huge page or a 4 KB page table is
    /// there already).
    pub fn map_huge(&mut self, va: u64, pa: u64, map_id: Option<MapId>) {
        assert_eq!(va & ((1 << HUGE_PAGE_BITS) - 1), 0);
        let frame = self.descend_mut(va, 2);
        let pte = match map_id {
            Some(id) => Pte::pim_huge_page(pa, id),
            None => Pte::huge_page(pa),
        };
        let idx = level_index(va, 2);
        let entry = self.frames[frame].entries[idx];
        assert_eq!(entry, 0, "mapping a huge page at {va:#x} over a live PD entry");
        self.set(frame, idx, pte.bits() | LEAF);
    }

    /// The frame id and index of the leaf entry covering `va`, and the
    /// levels walked to reach it.
    fn leaf(&self, va: u64) -> Option<(usize, usize, u32)> {
        if va >> VA_BITS != 0 {
            return None;
        }
        let mut frame = 0;
        for level in (1..=4).rev() {
            let idx = level_index(va, level);
            let slot = self.frames[frame].entries[idx];
            if slot & LEAF != 0 {
                return Some((frame, idx, 5 - level));
            }
            if slot & 1 == 0 {
                return None;
            }
            frame = (slot >> BASE_PAGE_BITS) as usize;
        }
        None
    }

    /// Remove the mapping covering `va` and return its leaf entry, if any.
    /// Each table frame the removal leaves empty is unlinked from its parent
    /// and freed; the root stays.
    pub fn unmap(&mut self, va: u64) -> Option<Pte> {
        let (mut frame, idx, _) = self.leaf(va)?;
        let pte = Pte::from_raw(self.frames[frame].entries[idx] & !LEAF);
        self.set(frame, idx, 0);
        while frame != 0 && self.frames[frame].live == 0 {
            let (parent, idx) = self.frames[frame].parent;
            self.set(parent, idx, 0);
            self.free.push(frame);
            frame = parent;
        }
        Some(pte)
    }

    /// Walk the table for `va`, returning the leaf entry and the number of
    /// table levels touched (the memory accesses a hardware walker makes).
    ///
    /// # Errors
    ///
    /// [`FacilError::NotMapped`] when no leaf covers `va`.
    pub fn walk(&self, va: u64) -> Result<(Pte, u32)> {
        let (frame, idx, levels) = self.leaf(va).ok_or(FacilError::NotMapped { va })?;
        Ok((Pte::from_raw(self.frames[frame].entries[idx] & !LEAF), levels))
    }

    /// Translate `va` (a [`Self::walk`] through to the physical address).
    ///
    /// # Errors
    ///
    /// [`FacilError::NotMapped`] when no leaf covers `va`.
    pub fn translate(&self, va: u64) -> Result<Translation> {
        Ok(self.walk(va)?.0.translate(va))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_page_walks_four_levels() {
        let mut t = RadixPageTable::new();
        t.map_base(0x7f12_3456_7000, 0x8_8000_1000);
        let tr = t.translate(0x7f12_3456_7abc).unwrap();
        assert_eq!(tr.pa, 0x8_8000_1abc);
        assert_eq!(tr.map_id, None);
        let (pte, levels) = t.walk(0x7f12_3456_7abc).unwrap();
        assert_eq!(levels, 4);
        assert!(!pte.is_huge());
        // PML4 + PDPT + PD + PT = 4 frames.
        assert_eq!(t.table_frames(), 4);
    }

    #[test]
    fn huge_page_walks_three_levels_and_keeps_mapid() {
        let mut t = RadixPageTable::new();
        let va = 0x40_0000_0000u64;
        t.map_huge(va, 0x2_0000_0000, Some(MapId(5)));
        let tr = t.translate(va + 0x12_3456).unwrap();
        assert_eq!(tr.pa, 0x2_0012_3456);
        assert_eq!(tr.map_id, Some(MapId(5)));
        assert!(tr.huge);
        let (_, levels) = t.walk(va + 0x12_3456).unwrap();
        assert_eq!(levels, 3, "huge pages shorten the walk by one level");
        // PML4 + PDPT + PD only.
        assert_eq!(t.table_frames(), 3);
    }

    #[test]
    fn mapid_adds_zero_table_memory() {
        // The FACIL claim: a table full of MapID-carrying entries is the
        // same size as one without.
        let mut plain = RadixPageTable::new();
        let mut facil = RadixPageTable::new();
        for i in 0..512u64 {
            plain.map_huge(i << HUGE_PAGE_BITS, i << HUGE_PAGE_BITS, None);
            facil.map_huge(i << HUGE_PAGE_BITS, i << HUGE_PAGE_BITS, Some(MapId((i % 16) as u8)));
        }
        assert_eq!(plain.table_frames(), facil.table_frames());
    }

    #[test]
    fn unmap_then_fault() {
        let mut t = RadixPageTable::new();
        t.map_huge(0, 0, Some(MapId(1)));
        assert!(t.translate(0x100).is_ok());
        t.unmap(0x100);
        assert!(matches!(t.translate(0x100), Err(FacilError::NotMapped { .. })));
        // Remap works after unmap.
        t.map_huge(0, 1 << HUGE_PAGE_BITS, None);
        assert_eq!(t.translate(0).unwrap().pa, 1 << HUGE_PAGE_BITS);
    }

    #[test]
    fn dense_and_sparse_regions_coexist() {
        let mut t = RadixPageTable::new();
        // A dense 4 KB run and a far-away huge page.
        for i in 0..64u64 {
            t.map_base(0x1000_0000 + (i << 12), 0x2000_0000 + (i << 12));
        }
        t.map_huge(0x7fff_ffe0_0000, 0x3_0000_0000, Some(MapId(2)));
        for i in 0..64u64 {
            let tr = t.translate(0x1000_0000 + (i << 12) + 5).unwrap();
            assert_eq!(tr.pa, 0x2000_0000 + (i << 12) + 5);
        }
        let tr = t.translate(0x7fff_ffe0_1234).unwrap();
        assert_eq!(tr.map_id, Some(MapId(2)));
    }

    /// Unmapping the last page under a table frame frees the frame, so the
    /// table holds only what live mappings need, and freed frames are
    /// reused before the table grows.
    #[test]
    fn unmap_frees_emptied_table_frames() {
        let mut t = RadixPageTable::new();
        t.map_base(0x1000, 0x5000);
        t.map_base(0x2000, 0x6000);
        t.map_huge(1 << HUGE_PAGE_BITS, 0, Some(MapId(1)));
        assert_eq!(t.table_frames(), 4);
        assert_eq!(t.unmap(0x1000).map(Pte::pa), Some(0x5000));
        assert_eq!(t.table_frames(), 4, "the PT still maps 0x2000");
        t.unmap(0x2000);
        assert_eq!(t.table_frames(), 3, "the emptied PT is freed");
        // With its 4 KB page table gone, the PD entry takes a huge page.
        t.map_huge(0, 4 << 20, None);
        t.unmap(0);
        assert_eq!(t.unmap(1 << HUGE_PAGE_BITS).map(|p| p.map_id()), Some(Some(MapId(1))));
        assert_eq!(t.table_frames(), 1, "only the root is left");
        assert_eq!(t.translate(1 << HUGE_PAGE_BITS), Err(FacilError::NotMapped { va: 1 << 21 }));
        // Far-apart mappings reuse the freed frames.
        for i in 0..64u64 {
            t.map_huge(i << 39, 0, None);
            t.unmap(i << 39);
        }
        assert_eq!((t.table_frames(), t.frames.len()), (1, 4));
    }

    /// The four levels index VA bits 12..48 only; a VA above them must
    /// fault rather than wrap onto the entry of its low 48 bits.
    #[test]
    fn vas_beyond_48_bits_do_not_alias() {
        let mut t = RadixPageTable::new();
        t.map_huge(0, 4 << 20, Some(MapId(1)));
        for va in [1u64 << 48, (1 << 48) + 0x1234, u64::MAX] {
            assert_eq!(t.translate(va), Err(FacilError::NotMapped { va }));
        }
        let map = |f: fn(&mut RadixPageTable)| {
            let mut t = RadixPageTable::new();
            std::panic::catch_unwind(move || f(&mut t)).is_err()
        };
        assert!(map(|t| t.map_huge(1 << 48, 0, None)), "map_huge beyond 48 bits");
        assert!(map(|t| t.map_base(1 << 48, 0)), "map_base beyond 48 bits");
    }

    /// A huge page over a live 4 KB page table would shadow its pages and
    /// orphan the table frame.
    #[test]
    #[should_panic(expected = "over a live PD entry")]
    fn huge_page_over_base_pages_panics() {
        let mut t = RadixPageTable::new();
        t.map_base(0x1000, 0x5000);
        t.map_huge(0, 8 << 20, None);
    }
}
