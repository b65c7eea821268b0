//! A set-associative TLB model in front of the [`RadixPageTable`].
//!
//! The paper's point (Section V-A) is that FACIL needs **no TLB changes**:
//! the MapID rides in PTE bits that a huge-page TLB entry already has spare,
//! so a TLB entry caches (PFN, flags, MapID) exactly as it caches an
//! ordinary PTE. This model demonstrates that: entries store the whole
//! [`Pte`] a walk found, and hit/miss behaviour is independent of whether a
//! MapID is present. It is a model only: `FacilSystem::translate_va` walks
//! the table directly.

use crate::error::Result;
use crate::paging::pte::{Pte, Translation, BASE_PAGE_BITS, HUGE_PAGE_BITS};
use crate::paging::radix::RadixPageTable;

/// TLB access statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed and walked the page table.
    pub misses: u64,
}

impl TlbStats {
    /// Hit rate over all lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    vpn: u64,
    pte: Pte,
    lru: u64,
}

/// Set-associative, LRU TLB supporting mixed 4 KB / 2 MB entries
/// (indexed by the 4 KB VPN; huge entries occupy one way like ARM/Intel
/// unified L2 TLBs).
#[derive(Debug)]
pub struct Tlb {
    sets: Vec<Vec<TlbEntry>>,
    ways: usize,
    tick: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Create a TLB with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or either dimension is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && sets.is_power_of_two() && ways > 0);
        Tlb { sets: vec![Vec::new(); sets], ways, tick: 0, stats: TlbStats::default() }
    }

    fn index(&self, vpn: u64) -> usize {
        (vpn as usize) & (self.sets.len() - 1)
    }

    /// Translate `va`, filling from `table`'s walk on a miss. A fill caches
    /// the leaf PTE as the walk found it, MapID bits included.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::error::FacilError::NotMapped`] from the table walk.
    pub fn translate(&mut self, va: u64, table: &RadixPageTable) -> Result<Translation> {
        self.tick += 1;
        let base_vpn = va >> BASE_PAGE_BITS;
        let huge_vpn = va >> HUGE_PAGE_BITS;
        // Look in the set indexed by the base VPN and the set indexed by
        // the huge VPN (entries self-identify their size).
        for idx in [self.index(base_vpn), self.index(huge_vpn)] {
            let tick = self.tick;
            if let Some(e) = self.sets[idx].iter_mut().find(|e| {
                if e.pte.is_huge() {
                    e.vpn == huge_vpn
                } else {
                    e.vpn == base_vpn
                }
            }) {
                e.lru = tick;
                self.stats.hits += 1;
                return Ok(e.pte.translate(va));
            }
        }
        // Miss: walk, then fill.
        self.stats.misses += 1;
        let (pte, _) = table.walk(va)?;
        let vpn = if pte.is_huge() { huge_vpn } else { base_vpn };
        let idx = self.index(vpn);
        let tick = self.tick;
        let set = &mut self.sets[idx];
        if set.len() >= self.ways {
            // Evict LRU. `ways >= 1`, so a full set is nonempty.
            #[allow(clippy::expect_used)]
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
                .expect("nonempty set");
            set.swap_remove(victim);
        }
        set.push(TlbEntry { vpn, pte, lru: tick });
        Ok(pte.translate(va))
    }

    /// Flush all entries.
    pub fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }

    /// Access statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::MapId;

    #[test]
    fn hit_after_fill() {
        let mut pt = RadixPageTable::new();
        pt.map_huge(0, 0, Some(MapId(2)));
        let mut tlb = Tlb::new(16, 4);
        let a = tlb.translate(0x1234, &pt).unwrap();
        let b = tlb.translate(0x5678, &pt).unwrap();
        assert_eq!(a.map_id, Some(MapId(2)));
        assert_eq!(b.map_id, Some(MapId(2)), "TLB-served translation keeps the MapID");
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn one_huge_entry_covers_whole_page() {
        let mut pt = RadixPageTable::new();
        pt.map_huge(0, 0, None);
        let mut tlb = Tlb::new(16, 4);
        for i in 0..512u64 {
            tlb.translate(i << BASE_PAGE_BITS, &pt).unwrap();
        }
        assert_eq!(tlb.stats().misses, 1, "a single 2MB entry serves all 512 4KB offsets");
        assert!((tlb.stats().hit_rate() - 511.0 / 512.0).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction() {
        let mut pt = RadixPageTable::new();
        for i in 0..3u64 {
            pt.map_base(i << BASE_PAGE_BITS, i << BASE_PAGE_BITS);
        }
        // 1 set, 2 ways: third page evicts the least-recent.
        let mut tlb = Tlb::new(1, 2);
        tlb.translate(0, &pt).unwrap(); // miss, fill 0
        tlb.translate(1 << 12, &pt).unwrap(); // miss, fill 1
        tlb.translate(0, &pt).unwrap(); // hit 0
        tlb.translate(2 << 12, &pt).unwrap(); // miss, evict 1
        tlb.translate(1 << 12, &pt).unwrap(); // miss again
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 4);
    }

    #[test]
    fn flush_clears() {
        let mut pt = RadixPageTable::new();
        pt.map_base(0, 0);
        let mut tlb = Tlb::new(2, 2);
        tlb.translate(0, &pt).unwrap();
        tlb.flush();
        tlb.translate(0, &pt).unwrap();
        assert_eq!(tlb.stats().misses, 2);
    }

    #[test]
    fn miss_on_unmapped_propagates() {
        let pt = RadixPageTable::new();
        let mut tlb = Tlb::new(2, 2);
        assert!(tlb.translate(0x9999, &pt).is_err());
    }
}
