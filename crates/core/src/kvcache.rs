//! Paged KV-cache allocation with FACIL placement.
//!
//! The paper places static weight matrices; the KV cache is different — it
//! grows one row (token) per decode step. This module extends `pimalloc` to
//! that case, PagedAttention-style: capacity is reserved in huge-page
//! *slabs*, one `(slab_tokens x kv_dim)` matrix per layer and K or V, and
//! tokens are appended row by row. Each growth step maps its slabs as one
//! `pimalloc` region, in the order one `pimalloc` per slab would allocate
//! them: by *set* (slab index), then layer, then K before V. Because each
//! slab keeps `pimalloc`'s padded row-major layout, appending a row never
//! disturbs placed rows, and each full slab already satisfies the PIM
//! placement invariants — so attention score/value GEMVs can be offloaded
//! to the PIM (the AttAcc/NeuPIMs-style extension modelled by `facil-sim`).

use crate::error::Result;
use crate::matrix::{DType, MatrixConfig};
use crate::pimalloc::FacilSystem;
use crate::scheme::{HUGE_PAGE_BITS, HUGE_PAGE_BYTES};
use crate::select::{select_mapping, MappingDecision};

/// Which half of the cache a token row belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KvHalf {
    /// Keys.
    K,
    /// Values.
    V,
}

/// A growing, PIM-placed KV cache for one model.
#[derive(Debug)]
pub struct PagedKvCache {
    layers: u64,
    /// One slab's shape: `slab_tokens` rows of `kv_dim` features.
    slab: MatrixConfig,
    len: u64,
    /// One region per growth step: its base VA and the sets it maps.
    regions: Vec<(u64, u64)>,
    /// Every slab's mapping: all slabs share one shape, so the first
    /// extension selects it once.
    decision: Option<MappingDecision>,
}

impl PagedKvCache {
    /// Create an empty cache for a model with `layers` layers and
    /// `kv_dim = kv_heads x head_dim` features per token.
    ///
    /// # Panics
    ///
    /// Panics if `kv_dim` rows would exceed one huge page (not the case for
    /// any real model).
    pub fn new(layers: u64, kv_dim: u64, dtype: DType) -> Self {
        let row = MatrixConfig::new(1, kv_dim, dtype).padded_row_bytes();
        assert!(row <= HUGE_PAGE_BYTES, "one KV row must fit a huge page");
        let slab = MatrixConfig::new(HUGE_PAGE_BYTES / row, kv_dim, dtype);
        PagedKvCache { layers, slab, len: 0, regions: Vec::new(), decision: None }
    }

    /// Tokens currently cached.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if no tokens are cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tokens the current slabs can hold before the next extension.
    pub fn capacity(&self) -> u64 {
        self.sets() * self.slab.rows
    }

    /// Tokens per slab (rows of one huge-page matrix).
    pub fn slab_tokens(&self) -> u64 {
        self.slab.rows
    }

    /// Physical huge pages currently reserved across all layers and halves.
    pub fn reserved_pages(&self) -> u64 {
        self.sets() * self.layers * 2
    }

    /// Slab sets reserved so far.
    fn sets(&self) -> u64 {
        self.regions.iter().map(|&(_, sets)| sets).sum()
    }

    /// Append `n` tokens, mapping the slab sets they need as one region.
    ///
    /// # Errors
    ///
    /// Propagates `pimalloc` errors (selector, frontend slots, out of
    /// memory). On error nothing is mapped: the cache keeps its previous
    /// length and slabs.
    pub fn append(&mut self, sys: &mut FacilSystem, n: u64) -> Result<()> {
        let needed = self.len + n;
        let sets = needed.div_ceil(self.slab.rows).saturating_sub(self.sets());
        if sets > 0 {
            let (topology, arch) = (sys.spec().topology, *sys.arch());
            let decision = match &mut self.decision {
                Some(d) => d,
                slot => slot.insert(select_mapping(&self.slab, topology, &arch, HUGE_PAGE_BITS)?),
            };
            let va = sys.map_pim(decision, sets * self.layers * 2 * HUGE_PAGE_BYTES)?;
            self.regions.push((va, sets));
        }
        self.len = needed;
        Ok(())
    }

    /// Virtual address of the first byte of `token`'s row in `layer`'s
    /// K or V cache.
    ///
    /// # Panics
    ///
    /// Panics if the token or layer is out of range.
    pub fn token_va(&self, layer: u64, half: KvHalf, token: u64) -> u64 {
        assert!(token < self.len, "token {token} beyond cache length {}", self.len);
        assert!(layer < self.layers, "layer {layer} beyond {} layers", self.layers);
        let mut set = token / self.slab.rows;
        for &(va, sets) in &self.regions {
            if set < sets {
                let slab = (set * self.layers + layer) * 2 + u64::from(half == KvHalf::V);
                let row = token % self.slab.rows * self.slab.padded_row_bytes();
                return va + slab * HUGE_PAGE_BYTES + row;
            }
            set -= sets;
        }
        unreachable!("token {token} lies within the mapped sets")
    }

    /// Release every slab back to the system.
    ///
    /// # Panics
    ///
    /// Panics if a region is not live in `sys`, i.e. `sys` is not the
    /// system the cache was appended into.
    pub fn free(&mut self, sys: &mut FacilSystem) {
        for (va, _) in self.regions.drain(..) {
            sys.unmap(va).unwrap_or_else(|e| panic!("KV region not live in this system: {e}"));
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::arch::PimArch;
    use crate::error::FacilError;
    use facil_dram::DramSpec;

    fn system() -> FacilSystem {
        let spec = DramSpec::lpddr5_6400(64, 8 << 30);
        let arch = PimArch::aim(&spec.topology);
        FacilSystem::new(spec, arch)
    }

    #[test]
    fn grows_in_slab_granularity() {
        let mut sys = system();
        // Llama-like: kv_dim 1024 fp16 -> 2 KB rows -> 1024 tokens/slab.
        let mut kv = PagedKvCache::new(2, 1024, DType::F16);
        assert_eq!(kv.slab_tokens(), 1024);
        assert_eq!(kv.capacity(), 0);
        kv.append(&mut sys, 1).unwrap();
        assert_eq!(kv.len(), 1);
        assert_eq!(kv.capacity(), 1024);
        // 2 layers x (K+V) x 1 slab of one page each.
        assert_eq!(kv.reserved_pages(), 4);
        // No new slabs until the first is full.
        kv.append(&mut sys, 1023).unwrap();
        assert_eq!(kv.reserved_pages(), 4);
        kv.append(&mut sys, 1).unwrap();
        assert_eq!(kv.reserved_pages(), 8);
        assert_eq!(kv.len(), 1025);
    }

    #[test]
    fn token_rows_are_pim_placed_and_stable() {
        let mut sys = system();
        let mut kv = PagedKvCache::new(1, 1024, DType::F16);
        kv.append(&mut sys, 10).unwrap();
        let va3 = kv.token_va(0, KvHalf::K, 3);
        // The row translates through a PIM mapping (single bank per chunk).
        let a = sys.translate_va(va3).unwrap();
        let b = sys.translate_va(va3 + 32).unwrap();
        assert_eq!((a.channel, a.rank, a.bank, a.row), (b.channel, b.rank, b.bank, b.row));
        // Growing the cache never moves existing tokens.
        kv.append(&mut sys, 5000).unwrap();
        assert_eq!(kv.token_va(0, KvHalf::K, 3), va3);
        // K and V are distinct allocations.
        assert_ne!(kv.token_va(0, KvHalf::K, 3), kv.token_va(0, KvHalf::V, 3));
    }

    #[test]
    fn free_returns_all_pages() {
        let mut sys = system();
        let before = sys.free_bytes();
        let mut kv = PagedKvCache::new(4, 1024, DType::F16);
        kv.append(&mut sys, 3000).unwrap();
        assert!(sys.free_bytes() < before);
        kv.free(&mut sys);
        assert_eq!(sys.free_bytes(), before);
        assert!(kv.is_empty());
        assert_eq!(sys.page_table().table_frames(), 1, "the slabs' page tables are freed too");
    }

    #[test]
    #[should_panic(expected = "beyond cache length")]
    fn out_of_range_token_panics() {
        let mut sys = system();
        let mut kv = PagedKvCache::new(1, 1024, DType::F16);
        kv.append(&mut sys, 2).unwrap();
        kv.token_va(0, KvHalf::K, 2);
    }

    /// A 16 MB system with `used_bytes` of it occupied.
    fn tiny(used_bytes: u64) -> FacilSystem {
        let spec = DramSpec::lpddr5_6400(16, 16 << 20);
        let arch = PimArch::aim(&spec.topology);
        let mut sys = FacilSystem::new(spec, arch);
        sys.fragment_physical(used_bytes, 0.0);
        sys
    }

    #[test]
    fn oom_preserves_length() {
        // 8 MB free.
        let mut sys = tiny(8 << 20);
        let free = sys.free_bytes();
        let mut kv = PagedKvCache::new(4, 1024, DType::F16);
        // 4 layers x 2 halves x 2 MB = 16 MB for the first slab set, but
        // only 8 MB are free: allocation must fail and leave nothing mapped,
        // so a retry fails too instead of leaving layers unbacked.
        for _ in 0..2 {
            let err = kv.append(&mut sys, 1);
            assert!(matches!(err, Err(FacilError::OutOfMemory { .. })), "{err:?}");
            assert_eq!((kv.len(), kv.capacity(), kv.reserved_pages()), (0, 0, 0));
            assert_eq!(sys.free_bytes(), free);
        }
        // A retry on a system with room backs every layer.
        let mut roomy = tiny(0);
        kv.append(&mut roomy, 1).unwrap();
        assert_eq!(kv.reserved_pages(), 8);
        let mut pages = BTreeSet::new();
        for layer in 0..4 {
            for half in [KvHalf::K, KvHalf::V] {
                let t = roomy.page_table().translate(kv.token_va(layer, half, 0)).unwrap();
                assert!(t.map_id.is_some(), "layer {layer} {half:?} is not PIM-mapped");
                pages.insert(t.pa);
            }
        }
        assert_eq!(pages.len(), 8, "every slab has its own page");
    }

    /// One growth step maps its slabs as one region, in the order the
    /// per-slab path allocated them (set, then layer, then K before V), so a
    /// twin system that `pimalloc`s each slab on its own in that order gets
    /// the same pages, compaction and statistics.
    #[test]
    fn a_region_makes_the_per_slab_calls() {
        let fragmented = || {
            let spec = DramSpec::lpddr5_6400(16, 64 << 20);
            let arch = PimArch::aim(&spec.topology);
            let mut sys = FacilSystem::new(spec, arch);
            sys.fragment_physical(32 << 20, 0.75);
            sys
        };
        let (mut sys, mut twin) = (fragmented(), fragmented());
        let layers = 2;
        let mut kv = PagedKvCache::new(layers, 1024, DType::F16);
        let st = kv.slab_tokens();
        // Twin slabs in allocation order: index ((set x layers) + layer) x 2
        // + half.
        let mut slabs = Vec::new();
        for n in [1, 2 * st + 5] {
            kv.append(&mut sys, n).unwrap();
            let decision = kv.decision.clone().unwrap();
            while (slabs.len() as u64) < kv.reserved_pages() {
                slabs.push(twin.pimalloc_with(kv.slab, decision.clone()).unwrap());
            }
            assert_eq!(sys.alloc_stats(), twin.alloc_stats());
            assert_eq!(sys.free_bytes(), twin.free_bytes());
            for (i, slab) in (0..).zip(&slabs) {
                let (set, layer) = (i / 2 / layers, i / 2 % layers);
                let half = if i % 2 == 0 { KvHalf::K } else { KvHalf::V };
                let last = ((set + 1) * st).min(kv.len()) - 1;
                for token in [set * st, last] {
                    let pa =
                        sys.page_table().translate(kv.token_va(layer, half, token)).unwrap().pa;
                    let want = slab.pages[0] + token % st * kv.slab.padded_row_bytes();
                    assert_eq!(pa, want, "slab {i}, token {token}");
                }
            }
        }
        assert_eq!(kv.capacity(), 3 * st);
        let stats = sys.alloc_stats();
        assert!(stats.pages_compacted > 0 && stats.frames_moved > 0, "{stats:?}");
        kv.free(&mut sys);
        for slab in &slabs {
            twin.free(slab).unwrap();
        }
        assert_eq!(sys.alloc_stats(), twin.alloc_stats());
        assert_eq!(sys.free_bytes(), twin.free_bytes());
        assert_eq!(sys.fmfi().to_bits(), twin.fmfi().to_bits());
    }
}
