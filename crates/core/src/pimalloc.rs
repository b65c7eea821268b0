//! `pimalloc` — the FACIL memory-allocation path (paper Fig. 7).
//!
//! [`FacilSystem`] ties the whole stack together:
//!
//! 1. the user supplies a [`MatrixConfig`] (dimensions + dtype);
//! 2. the user-level *mapping selector* picks the MapID
//!    ([`crate::select::select_mapping`]);
//! 3. the OS maps the matrix with the FACIL-extended `mmap`
//!    ([`AddressSpace::mmap`]): huge pages from the physical allocator, each
//!    recorded as (PFN, MapID) in a huge-page PDE of the radix page table;
//! 4. the memory-controller [`Frontend`] gains the selected scheme in one of
//!    its mux slots ([`Frontend::install_scheme`], which refuses a slot that
//!    already holds a different scheme);
//! 5. the user gets back a contiguous *virtual* address — SoC processors
//!    access the matrix through plain row-major virtual addresses while the
//!    controller applies the PIM-optimized device mapping underneath.

use facil_dram::{AddressMapper, DramAddress, DramSpec, MapFault};

use crate::arch::PimArch;
#[cfg(doc)]
use crate::error::FacilError;
use crate::error::Result;
use crate::frontend::Frontend;
use crate::matrix::MatrixConfig;
use crate::paging::{AddressSpace, AllocStats, MmapFlags, RadixPageTable, BASE_PAGE_BITS};
use crate::scheme::{HUGE_PAGE_BITS, HUGE_PAGE_BYTES};
use crate::select::{select_mapping, MapId, MappingDecision};

/// Handle to a matrix placed by [`FacilSystem::pimalloc`].
#[derive(Debug, Clone, PartialEq)]
pub struct PimAllocation {
    /// Virtual base address (huge-page aligned).
    pub va: u64,
    /// Matrix this allocation holds.
    pub matrix: MatrixConfig,
    /// Selected mapping.
    pub decision: MappingDecision,
    /// Physical base address of each huge page, in VA order.
    pub pages: Vec<u64>,
}

impl PimAllocation {
    /// Virtual address of element (`row`, `col`), honoring the padded
    /// row-major layout `pimalloc` uses.
    ///
    /// # Panics
    ///
    /// Panics if the element is out of bounds.
    pub fn element_va(&self, row: u64, col: u64) -> u64 {
        assert!(row < self.matrix.rows && col < self.matrix.cols, "element out of bounds");
        self.va + row * self.matrix.padded_row_bytes() + col * self.matrix.dtype.bytes()
    }

    /// Total virtual bytes reserved (padded rows, whole huge pages).
    pub fn reserved_bytes(&self) -> u64 {
        self.pages.len() as u64 * (1 << HUGE_PAGE_BITS)
    }

    /// MapID this allocation's pages carry.
    pub fn map_id(&self) -> MapId {
        self.decision.map_id
    }
}

/// The full FACIL memory system: selector + OS paging + controller frontend.
#[derive(Debug)]
pub struct FacilSystem {
    spec: DramSpec,
    arch: PimArch,
    frontend: Frontend,
    space: AddressSpace,
}

impl FacilSystem {
    /// Create a system over the given memory spec and PIM architecture with
    /// the default 4 hardware mapping slots.
    pub fn new(spec: DramSpec, arch: PimArch) -> Self {
        Self::with_slots(spec, arch, 4)
    }

    /// Create a system with a specific number of frontend mapping slots.
    pub fn with_slots(spec: DramSpec, arch: PimArch, slots: usize) -> Self {
        let topo = spec.topology;
        FacilSystem {
            frontend: Frontend::new(topo, slots),
            space: AddressSpace::new(topo.capacity_bytes()),
            spec,
            arch,
        }
    }

    /// The DRAM spec this system runs on.
    pub fn spec(&self) -> &DramSpec {
        &self.spec
    }

    /// The PIM architecture.
    pub fn arch(&self) -> &PimArch {
        &self.arch
    }

    /// The controller frontend (read-only).
    pub fn frontend(&self) -> &Frontend {
        &self.frontend
    }

    /// The page table (read-only).
    pub fn page_table(&self) -> &RadixPageTable {
        self.space.page_table()
    }

    /// Free physical bytes.
    pub fn free_bytes(&self) -> u64 {
        self.space.free_bytes()
    }

    /// Pre-fragment physical memory (for Table I style experiments).
    ///
    /// # Panics
    ///
    /// Panics while any allocation is live, and as
    /// [`AddressSpace::fragment_physical`] does otherwise.
    pub fn fragment_physical(&mut self, used_bytes: u64, fmfi: f64) {
        self.space.fragment_physical(used_bytes, fmfi);
    }

    /// Physical-allocator statistics since construction (or the last
    /// [`FacilSystem::fragment_physical`], which resets them): huge pages
    /// minted directly vs via compaction, and 4 KB frames moved. This is
    /// the fragmentation cost signal consumers like `facil-serve` report
    /// for allocations made under a prepared FMFI state.
    pub fn alloc_stats(&self) -> AllocStats {
        self.space.alloc_stats()
    }

    /// Allocate and map a weight matrix with a PIM-optimized mapping
    /// (the paper's `pimalloc`): [`FacilSystem::pimalloc_with`] the
    /// selector's decision.
    ///
    /// # Errors
    ///
    /// Propagates selector errors and those of
    /// [`FacilSystem::pimalloc_with`].
    pub fn pimalloc(&mut self, matrix: MatrixConfig) -> Result<PimAllocation> {
        let decision = select_mapping(&matrix, self.spec.topology, &self.arch, HUGE_PAGE_BITS)?;
        self.pimalloc_with(matrix, decision)
    }

    /// Allocate and map a weight matrix under `decision` (the selector's, or
    /// e.g. a mapsearch candidate's): install its scheme in the frontend
    /// slot for its MapID, then map one huge-page region whose PDEs carry
    /// that MapID.
    ///
    /// # Errors
    ///
    /// * [`FacilError::InvalidMapping`] if the slot already holds a
    ///   different scheme (one an earlier allocation translates through),
    ///   and the other [`Frontend::install_scheme`] errors, such as
    ///   [`FacilError::FrontendFull`] when the hardware mux cannot host
    ///   another distinct MapID;
    /// * [`FacilError::OutOfMemory`] from the physical allocator.
    pub fn pimalloc_with(
        &mut self,
        matrix: MatrixConfig,
        decision: MappingDecision,
    ) -> Result<PimAllocation> {
        self.frontend.install_scheme(decision.map_id, &decision.scheme)?;
        let bytes = matrix.padded_bytes();
        let va = self.space.mmap(bytes, MmapFlags { huge: true, map_id: Some(decision.map_id) })?;
        let pages = (0..bytes.div_ceil(HUGE_PAGE_BYTES))
            .map(|i| self.space.translate(va + i * HUGE_PAGE_BYTES).map(|t| t.pa))
            .collect::<Result<_>>()?;
        Ok(PimAllocation { va, matrix, decision, pages })
    }

    /// Allocate `bytes` of conventionally-mapped huge pages (e.g. the
    /// re-layout scratch buffer of the baseline, or activations).
    ///
    /// # Errors
    ///
    /// [`FacilError::InvalidRequest`] for zero bytes, and
    /// [`FacilError::OutOfMemory`] if physical memory is exhausted (pages
    /// already taken are rolled back).
    pub fn alloc_conventional(&mut self, bytes: u64) -> Result<u64> {
        self.space.mmap(bytes, MmapFlags { huge: true, map_id: None })
    }

    /// Release a pimalloc'd matrix: unmap its region and return its huge
    /// pages.
    ///
    /// # Errors
    ///
    /// [`FacilError::NotMapped`] if `alloc` is not live in this system (it
    /// was freed already). Nothing is freed then, so a stale handle cannot
    /// release pages a later allocation owns.
    pub fn free(&mut self, alloc: &PimAllocation) -> Result<()> {
        self.space.munmap(alloc.va)
    }

    /// Full VA → DA translation: page table walk, then the frontend mux with
    /// the PTE's MapID. This is the path every SoC memory access takes
    /// (paper Fig. 7(b)/(c)).
    ///
    /// # Errors
    ///
    /// [`FacilError::NotMapped`] for unmapped VAs.
    pub fn translate_va(&self, va: u64) -> Result<DramAddress> {
        let t = self.space.translate(va)?;
        self.frontend.translate(t.pa, t.map_id)
    }

    /// A VA-space [`AddressMapper`] for DRAM trace replay.
    pub fn va_mapper(&self) -> VaMapper<'_> {
        VaMapper { system: self }
    }
}

/// Maps *virtual* addresses through the whole FACIL stack (page table +
/// frontend). Useful with [`facil_dram::run_trace`].
#[derive(Debug)]
pub struct VaMapper<'a> {
    system: &'a FacilSystem,
}

impl AddressMapper for VaMapper<'_> {
    /// # Errors
    ///
    /// [`MapFault`] on unmapped virtual addresses (a real access would
    /// fault); callers decide whether that is fatal.
    fn map(&self, va: u64) -> std::result::Result<DramAddress, MapFault> {
        self.system.translate_va(va).map_err(|_| MapFault { addr: va })
    }

    /// The selected scheme's run at the translated PA, cut at the end of
    /// the page: the next page's frame can be anywhere.
    fn map_run(&self, va: u64) -> std::result::Result<(DramAddress, u64), MapFault> {
        let fault = |_| MapFault { addr: va };
        let t = self.system.space.translate(va).map_err(fault)?;
        let scheme = self.system.frontend.selected(t.map_id).map_err(fault)?;
        let (addr, run) = scheme.map_run(t.pa)?;
        let page = 1u64 << if t.huge { HUGE_PAGE_BITS } else { BASE_PAGE_BITS };
        let tx = scheme.topology().transfer_bytes;
        let in_page = (page - (va & (page - 1) & !(tx - 1))) / tx;
        Ok((addr, run.min(in_page)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FacilError;
    use crate::matrix::DType;

    fn system() -> FacilSystem {
        let spec = DramSpec::lpddr5_6400(64, 8 << 30); // iPhone-like
        let arch = PimArch::aim(&spec.topology);
        FacilSystem::new(spec, arch)
    }

    #[test]
    fn pimalloc_returns_mapped_region() {
        let mut sys = system();
        let m = MatrixConfig::new(2048, 2048, DType::F16);
        let a = sys.pimalloc(m).unwrap();
        assert_eq!(a.va % (1 << HUGE_PAGE_BITS), 0);
        assert_eq!(a.pages.len() as u64, m.padded_bytes().div_ceil(1 << HUGE_PAGE_BITS));
        // Every VA in the region translates and carries the PIM mapping.
        let t = sys.page_table().translate(a.va).unwrap();
        assert_eq!(t.map_id, Some(a.map_id()));
        sys.translate_va(a.element_va(100, 200)).unwrap();
    }

    #[test]
    fn pim_and_conventional_allocations_coexist() {
        let mut sys = system();
        let a = sys.pimalloc(MatrixConfig::new(1024, 2048, DType::F16)).unwrap();
        let scratch = sys.alloc_conventional(4 << 20).unwrap();
        // Conventional VA maps through the conventional scheme: consecutive
        // transfers interleave channels.
        let c0 = sys.translate_va(scratch).unwrap();
        let c1 = sys.translate_va(scratch + 32).unwrap();
        assert_ne!(c0.channel, c1.channel);
        // PIM VA keeps consecutive transfers in one bank.
        let p0 = sys.translate_va(a.va).unwrap();
        let p1 = sys.translate_va(a.va + 32).unwrap();
        assert_eq!((p0.channel, p0.rank, p0.bank), (p1.channel, p1.rank, p1.bank));
    }

    #[test]
    fn same_mapid_shares_frontend_slot() {
        let mut sys = system();
        sys.pimalloc(MatrixConfig::new(512, 2048, DType::F16)).unwrap();
        sys.pimalloc(MatrixConfig::new(256, 2048, DType::F16)).unwrap();
        assert_eq!(sys.frontend().installed(), 1, "identical MapIDs share one mux slot");
        sys.pimalloc(MatrixConfig::new(256, 4096, DType::F16)).unwrap();
        assert_eq!(sys.frontend().installed(), 2);
    }

    #[test]
    fn pimalloc_with_installs_custom_decision() {
        use crate::select::decision_with_map_id;
        let mut sys = system();
        let m = MatrixConfig::new(64, 2048, DType::F16);
        // A non-default MapID with the bank hash enabled: the selector would
        // never produce this, so it must come in through pimalloc_with.
        let mut decision =
            decision_with_map_id(&m, sys.spec().topology, sys.arch(), 2, HUGE_PAGE_BITS).unwrap();
        decision.scheme = decision.scheme.clone().with_bank_hash();
        let a = sys.pimalloc_with(m, decision.clone()).unwrap();
        assert_eq!(a.decision, decision);
        assert_eq!(sys.frontend().scheme(a.map_id()), Some(&decision.scheme));
        // Every VA translates through the installed custom scheme.
        let want = decision.scheme.map_pa(sys.page_table().translate(a.va).unwrap().pa);
        assert_eq!(sys.translate_va(a.va).unwrap(), want);
        // The same slot now rejects the selector's default scheme for this
        // MapID (different scheme, same slot).
        let plain =
            decision_with_map_id(&m, sys.spec().topology, sys.arch(), 2, HUGE_PAGE_BITS).unwrap();
        assert!(matches!(sys.pimalloc_with(m, plain), Err(FacilError::InvalidMapping(_))));
        // So does pimalloc, whose pick for 4096 columns is MapID 2 too.
        let pick = sys.pimalloc(MatrixConfig::new(64, 4096, DType::F16));
        assert!(matches!(pick, Err(FacilError::InvalidMapping(_))), "{pick:?}");
    }

    #[test]
    fn free_releases_physical_pages() {
        let mut sys = system();
        let before = sys.free_bytes();
        let a = sys.pimalloc(MatrixConfig::new(2048, 2048, DType::F16)).unwrap();
        assert!(sys.free_bytes() < before);
        sys.free(&a).unwrap();
        assert_eq!(sys.free_bytes(), before);
        assert!(sys.translate_va(a.va).is_err());
    }

    /// A second `free` of a handle must not release the huge pages that a
    /// later allocation of the same shape was given.
    #[test]
    fn stale_free_frees_nothing() {
        let mut sys = system();
        let total = sys.free_bytes();
        let m = MatrixConfig::new(2048, 2048, DType::F16);
        let a = sys.pimalloc(m).unwrap();
        sys.free(&a).unwrap();
        let b = sys.pimalloc(m).unwrap();
        assert_eq!(sys.free(&a), Err(FacilError::NotMapped { va: a.va }));
        assert_eq!(sys.free_bytes(), total - b.reserved_bytes());
        sys.translate_va(b.va).unwrap();
    }

    /// Preparing a fragmentation state rewrites every frame's state, so
    /// under a live allocation the next `pimalloc` could get its pages.
    #[test]
    #[should_panic(expected = "live regions")]
    fn fragmenting_under_a_live_allocation_panics() {
        let mut sys = system();
        sys.pimalloc(MatrixConfig::new(2048, 2048, DType::F16)).unwrap();
        sys.fragment_physical(4 << 30, 0.5);
    }

    #[test]
    fn element_va_matches_padded_layout() {
        let mut sys = system();
        let m = MatrixConfig::new(16, 3000, DType::F16); // pads to 4096 cols
        let a = sys.pimalloc(m).unwrap();
        assert_eq!(a.element_va(0, 0), a.va);
        assert_eq!(a.element_va(1, 0), a.va + 8192);
        assert_eq!(a.element_va(1, 2), a.va + 8192 + 4);
    }

    #[test]
    fn va_mapper_is_usable_for_traces() {
        let mut sys = system();
        let a = sys.pimalloc(MatrixConfig::new(64, 2048, DType::F16)).unwrap();
        let mapper = sys.va_mapper();
        let d = mapper.map(a.va).unwrap();
        assert!(d.is_valid(&sys.spec().topology));
        assert!(mapper.map(!31u64).is_err(), "unmapped VA faults instead of panicking");
    }

    #[test]
    fn zero_byte_conventional_rejected() {
        let mut sys = system();
        assert!(matches!(sys.alloc_conventional(0), Err(FacilError::InvalidRequest(_))));
    }
}
