//! Page-table-entry encoding with MapID in the unused bits (paper Fig. 11).
//!
//! With 4 KB base pages and 2 MB huge pages, a huge-page PTE needs 9 fewer
//! PFN bits (21 − 12); FACIL repurposes four of those otherwise-unused bits
//! to store the MapID, so no PTE (or TLB entry) grows.

use crate::select::MapId;

/// Physical-address width modelled (x86-64-style 48-bit).
pub const PA_BITS: u32 = 48;
/// Base page size: 4 KB.
pub const BASE_PAGE_BITS: u32 = 12;
/// Huge page size: 2 MB, the default assumed throughout the paper.
pub const HUGE_PAGE_BITS: u32 = 21;

const VALID_BIT: u64 = 1 << 0;
const HUGE_BIT: u64 = 1 << 1;
const WRITABLE_BIT: u64 = 1 << 2;
const PIM_BIT: u64 = 1 << 3; // MapID field is meaningful
/// MapID lives in bits [12..16) — unused by a huge-page PFN, which only
/// needs bits [21..48).
const MAPID_SHIFT: u32 = BASE_PAGE_BITS;
const MAPID_MASK: u64 = 0xF << MAPID_SHIFT;
const PFN_MASK: u64 = ((1 << PA_BITS) - 1) & !((1 << BASE_PAGE_BITS) - 1);

/// A 64-bit page table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pte(u64);

/// Result of a translation: physical address plus the MapID the memory
/// controller must apply (None = conventional mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Translated physical address.
    pub pa: u64,
    /// Mapping the frontend must apply for this access.
    pub map_id: Option<MapId>,
    /// Whether a huge-page entry served the translation.
    pub huge: bool,
}

impl Pte {
    /// An invalid (not-present) entry.
    pub fn invalid() -> Self {
        Pte(0)
    }

    /// A conventional 4 KB mapping to physical address `pa` (must be
    /// base-page aligned).
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not 4 KB-aligned or exceeds the PA width.
    pub fn base_page(pa: u64) -> Self {
        assert_eq!(pa & ((1 << BASE_PAGE_BITS) - 1), 0, "pa must be 4 KB aligned");
        assert!(pa < (1 << PA_BITS));
        Pte(pa | VALID_BIT | WRITABLE_BIT)
    }

    /// A conventional 2 MB huge-page mapping.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not 2 MB-aligned.
    pub fn huge_page(pa: u64) -> Self {
        assert_eq!(pa & ((1 << HUGE_PAGE_BITS) - 1), 0, "pa must be 2 MB aligned");
        assert!(pa < (1 << PA_BITS));
        Pte(pa | VALID_BIT | HUGE_BIT | WRITABLE_BIT)
    }

    /// A FACIL huge-page mapping carrying a MapID (paper Fig. 11, "PIM PTE").
    ///
    /// # Panics
    ///
    /// Panics if `pa` is unaligned or the MapID does not fit in 4 bits.
    pub fn pim_huge_page(pa: u64, map_id: MapId) -> Self {
        assert!(map_id.0 < 16, "MapID must fit in 4 PTE bits (paper Section V-A)");
        let base = Self::huge_page(pa).0;
        Pte(base | PIM_BIT | (u64::from(map_id.0) << MAPID_SHIFT))
    }

    /// Entry present?
    pub fn is_valid(self) -> bool {
        self.0 & VALID_BIT != 0
    }

    /// 2 MB page?
    pub fn is_huge(self) -> bool {
        self.0 & HUGE_BIT != 0
    }

    /// Physical frame base address.
    pub fn pa(self) -> u64 {
        if self.is_huge() {
            self.0 & PFN_MASK & !((1 << HUGE_PAGE_BITS) - 1)
        } else {
            self.0 & PFN_MASK
        }
    }

    /// MapID, if this is a PIM mapping.
    pub fn map_id(self) -> Option<MapId> {
        if self.0 & PIM_BIT != 0 {
            Some(MapId(((self.0 & MAPID_MASK) >> MAPID_SHIFT) as u8))
        } else {
            None
        }
    }

    /// Raw 64-bit representation.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// The translation of `va` through this leaf entry: the frame base plus
    /// `va`'s offset within the page, and the entry's MapID.
    pub fn translate(self, va: u64) -> Translation {
        let offset_bits = if self.is_huge() { HUGE_PAGE_BITS } else { BASE_PAGE_BITS };
        let offset = va & ((1u64 << offset_bits) - 1);
        Translation { pa: self.pa() + offset, map_id: self.map_id(), huge: self.is_huge() }
    }

    /// Reconstruct from raw bits (structural page-table storage).
    pub(crate) fn from_raw(bits: u64) -> Pte {
        Pte(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_unused_bits_fit_mapid() {
        // Paper Section V-A: 21 - 12 = 9 unused bits; 4 suffice for 14 maps.
        assert_eq!(HUGE_PAGE_BITS - BASE_PAGE_BITS, 9);
        const { assert!(MAPID_MASK.count_ones() == 4) };
        // MapID bits sit strictly below the huge PFN and above base-page flags.
        assert_eq!(MAPID_MASK & !((1 << HUGE_PAGE_BITS) - 1), 0);
        const { assert!(MAPID_SHIFT >= BASE_PAGE_BITS) };
    }

    #[test]
    fn pim_pte_roundtrip() {
        let pa = 0x1234 << HUGE_PAGE_BITS;
        for id in 0..16u8 {
            let pte = Pte::pim_huge_page(pa, MapId(id));
            assert!(pte.is_valid() && pte.is_huge());
            assert_eq!(pte.pa(), pa);
            assert_eq!(pte.map_id(), Some(MapId(id)));
        }
    }

    #[test]
    fn conventional_ptes_have_no_mapid() {
        let huge = Pte::huge_page(0x40 << HUGE_PAGE_BITS);
        assert_eq!(huge.map_id(), None);
        let base = Pte::base_page(0x1000);
        assert_eq!(base.map_id(), None);
        assert!(!base.is_huge());
        assert_eq!(base.pa(), 0x1000);
    }

    #[test]
    fn invalid_pte() {
        assert!(!Pte::invalid().is_valid());
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_huge_pa_panics() {
        Pte::huge_page(0x1000);
    }

    #[test]
    #[should_panic(expected = "4 PTE bits")]
    fn oversized_mapid_panics() {
        Pte::pim_huge_page(0, MapId(16));
    }

    #[test]
    fn mapid_does_not_corrupt_pfn() {
        let pa = 0xABCD << HUGE_PAGE_BITS;
        let pte = Pte::pim_huge_page(pa, MapId(15));
        assert_eq!(pte.pa(), pa);
        assert_eq!(pte.bits() & PFN_MASK & !((1 << HUGE_PAGE_BITS) - 1), pa);
    }
}
