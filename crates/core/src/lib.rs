//! # facil-core
//!
//! The primary contribution of *FACIL: Flexible DRAM Address Mapping for
//! SoC-PIM Cooperative On-device LLM Inference* (HPCA 2025), as a library:
//!
//! * [`scheme`] — the PA-to-DA mapping formulation (paper §IV-B, Fig. 8):
//!   conventional and PIM-optimized bit-permutation schemes parameterized by
//!   **MapID**, for both AiM-style and HBM-PIM-style chunk geometries;
//! * [`select`] — the user-level mapping selector (Fig. 9), including the
//!   column-partitioned large-row case (Fig. 10);
//! * [`paging`] — OS support: MapID stored in unused huge-page PDE bits
//!   (Fig. 11) of a 4-level radix page table, under the FACIL-extended
//!   `mmap` address space that every [`FacilSystem`] runs on; an
//!   unmodified TLB that caches the MapID for free; and a
//!   fragmentation-aware physical allocator (the Table I mechanism);
//! * [`frontend`] — the memory-controller frontend with the N-to-1 mapping
//!   mux (Fig. 12);
//! * [`pimalloc`] — [`pimalloc::FacilSystem`], gluing selector, paging and
//!   frontend into the `pimalloc()` allocation path of Fig. 7.
//!
//! The PIM-optimality properties of §II-C (chunk contiguity, row-to-PU
//! ownership, lock-step alignment) are checked where the placement is
//! executed: `facil_pim::CommandSequence::trace` walks every chunk of an
//! allocation and rejects a placement that violates one.
//!
//! ## Quick example
//!
//! ```
//! use facil_core::{DType, FacilSystem, MatrixConfig, PimArch};
//! use facil_dram::DramSpec;
//!
//! # fn main() -> Result<(), facil_core::FacilError> {
//! let spec = DramSpec::lpddr5_6400(64, 8 << 30); // iPhone 15 Pro memory
//! let arch = PimArch::aim(&spec.topology);
//! let mut sys = FacilSystem::new(spec, arch);
//!
//! // One call places a weight matrix PIM-optimally *and* keeps it
//! // row-major in virtual memory for the SoC.
//! let w = sys.pimalloc(MatrixConfig::new(2048, 2048, DType::F16))?;
//! assert_eq!(w.map_id().0, 1);
//!
//! // SoC view: plain virtual addresses. PIM view: one bank per matrix row.
//! let da = sys.translate_va(w.element_va(3, 0))?;
//! # let _ = da;
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod arch;
pub mod error;
pub mod frontend;
pub mod kvcache;
pub mod matrix;
pub mod paging;
pub mod pimalloc;
pub mod scheme;
pub mod select;

pub use arch::{PimArch, PimStyle};
pub use error::{FacilError, Result};
pub use frontend::{Frontend, PinnedMapper};
pub use kvcache::{KvHalf, PagedKvCache};
pub use matrix::{DType, MatrixConfig};
pub use pimalloc::{FacilSystem, PimAllocation, VaMapper};
pub use scheme::{
    max_map_id_bound, Field, MappingScheme, PuOrder, Segment, HUGE_PAGE_BITS, HUGE_PAGE_BYTES,
};
pub use select::{
    decision_with_map_id, select_mapping, select_mapping_2mb, MapId, MappingDecision,
};
