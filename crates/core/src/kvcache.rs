//! Paged KV-cache allocation with FACIL placement.
//!
//! The paper places static weight matrices; the KV cache is different — it
//! grows one row (token) per decode step. This module extends `pimalloc` to
//! that case, PagedAttention-style: capacity is reserved in huge-page
//! *slabs*, each slab `pimalloc`'d as a `(slab_tokens x kv_dim)` matrix, and
//! tokens are appended row by row. Because `pimalloc`'s layout is padded
//! row-major, appending a row never disturbs placed rows, and each full
//! slab already satisfies the PIM placement invariants — so attention
//! score/value GEMVs can be offloaded to the PIM (the AttAcc/NeuPIMs-style
//! extension modelled by `facil-sim`).

use crate::error::Result;
use crate::matrix::{DType, MatrixConfig};
use crate::pimalloc::{FacilSystem, PimAllocation};
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

/// One transformer layer's K and V slab lists.
#[derive(Debug, Clone)]
struct LayerSlabs {
    k: Vec<PimAllocation>,
    v: Vec<PimAllocation>,
}

/// A growing, PIM-placed KV cache for one model.
#[derive(Debug)]
pub struct PagedKvCache {
    layers: u64,
    kv_dim: u64,
    dtype: DType,
    slab_tokens: u64,
    len: u64,
    slabs: Vec<LayerSlabs>,
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
        let slab_tokens = HUGE_PAGE_BYTES / row;
        PagedKvCache {
            layers,
            kv_dim,
            dtype,
            slab_tokens,
            len: 0,
            slabs: (0..layers).map(|_| LayerSlabs { k: Vec::new(), v: Vec::new() }).collect(),
            decision: None,
        }
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
        self.slabs.first().map(|l| l.k.len() as u64 * self.slab_tokens).unwrap_or(0)
    }

    /// Tokens per slab (rows of one huge-page matrix).
    pub fn slab_tokens(&self) -> u64 {
        self.slab_tokens
    }

    /// Physical huge pages currently reserved across all layers and halves.
    pub fn reserved_pages(&self) -> u64 {
        self.slabs
            .iter()
            .map(|l| l.k.iter().chain(&l.v).map(|a| a.pages.len() as u64).sum::<u64>())
            .sum()
    }

    /// Append `n` tokens, extending every layer's K and V slabs as needed.
    ///
    /// # Errors
    ///
    /// Propagates `pimalloc` errors (selector, frontend slots, out of
    /// memory). On error the cache keeps its previous length; slabs already
    /// added stay reserved for the retry.
    pub fn append(&mut self, sys: &mut FacilSystem, n: u64) -> Result<()> {
        let needed = self.len + n;
        let slab = MatrixConfig::new(self.slab_tokens, self.kv_dim, self.dtype);
        while self.capacity() < needed {
            let decision = match &self.decision {
                Some(d) => d.clone(),
                None => {
                    let d = select_mapping(&slab, sys.spec().topology, sys.arch(), HUGE_PAGE_BITS)?;
                    self.decision.insert(d).clone()
                }
            };
            for layer in 0..self.layers as usize {
                if (self.slabs[layer].k.len() as u64) * self.slab_tokens < needed {
                    let k = sys.pimalloc_with(slab, decision.clone())?;
                    self.slabs[layer].k.push(k);
                    let v = sys.pimalloc_with(slab, decision.clone())?;
                    self.slabs[layer].v.push(v);
                }
            }
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
        let slabs = &self.slabs[layer as usize];
        let list = match half {
            KvHalf::K => &slabs.k,
            KvHalf::V => &slabs.v,
        };
        let slab = &list[(token / self.slab_tokens) as usize];
        slab.element_va(token % self.slab_tokens, 0)
    }

    /// Release every slab back to the system.
    ///
    /// # Panics
    ///
    /// Panics if a slab is not live in `sys`, i.e. `sys` is not the system
    /// the cache was appended into.
    pub fn free(&mut self, sys: &mut FacilSystem) {
        for layer in &mut self.slabs {
            for a in layer.k.drain(..).chain(layer.v.drain(..)) {
                sys.free(&a).unwrap_or_else(|e| panic!("KV slab not live in this system: {e}"));
            }
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::PimArch;
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

    #[test]
    fn oom_preserves_length() {
        // Tiny memory: 8 MB.
        let spec = DramSpec::lpddr5_6400(16, 8 << 20);
        let arch = PimArch::aim(&spec.topology);
        let mut sys = FacilSystem::new(spec, arch);
        let mut kv = PagedKvCache::new(4, 1024, DType::F16);
        // 4 layers x 2 halves x 2 MB = 16 MB for the first slab set, but
        // only 8 MB exist: allocation must fail.
        let err = kv.append(&mut sys, 1);
        assert!(err.is_err());
        assert_eq!(kv.len(), 0);
    }
}
