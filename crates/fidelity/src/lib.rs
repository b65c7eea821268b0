//! # facil-fidelity
//!
//! HW/SW-integrated *functional* PIM simulation for the FACIL (HPCA 2025)
//! reproduction. Where `facil-pim` answers "how long does the all-bank
//! stream take?", this crate answers "does it compute the right bits?" —
//! by actually executing the command stream over simulated DRAM cells:
//!
//! * [`BankedMemory`] — `facil-dram`'s bank-sliced DRAM content model (one
//!   row image per touched row, per bank), re-exported here; the
//!   `store_matrix` path populates it through any legal
//!   [`facil_core::MappingScheme`];
//! * [`replay_gemv`] — a functional interpreter for the
//!   [`facil_pim::CommandSequence`] the timing model emits: global-buffer
//!   broadcast, per-bank MAC accumulation and the partition reduction tree,
//!   in a *fixed* accumulation order;
//! * [`cross_check`] — bit-exact comparison (f32 and fp16 bit patterns)
//!   of the replay against the [`facil_pim::pim_gemv`] reference;
//! * [`token_equivalence`] — end-to-end decode of a small seeded model
//!   by the PIM replay over its FACIL-mapped cells and by the SoC's
//!   fixed-order GEMV over the same row-major fp16 weights, asserting
//!   identical logits for every token.
//!
//! ```
//! use facil_core::{DType, FacilSystem, MatrixConfig, PimArch};
//! use facil_dram::DramSpec;
//! use facil_fidelity::{cross_check, BankedMemory};
//! use facil_pim::store_matrix;
//!
//! # fn main() -> Result<(), facil_core::FacilError> {
//! let spec = DramSpec::lpddr5_6400(64, 8 << 30); // iPhone-class
//! let arch = PimArch::aim(&spec.topology);
//! let mut sys = FacilSystem::new(spec.clone(), arch);
//! let mut mem = BankedMemory::new(spec.topology);
//!
//! let a = sys.pimalloc(MatrixConfig::new(16, 2048, DType::F16))?;
//! let w: Vec<f32> = (0..16 * 2048).map(|i| ((i % 13) as f32 - 6.0) * 0.25).collect();
//! store_matrix(&mut mem, &sys, &a, &w)?;
//!
//! let x: Vec<f32> = (0..2048).map(|i| ((i % 7) as f32 - 3.0) * 0.5).collect();
//! let report = cross_check(&mem, &sys, &a, &x)?;
//! assert!(report.bit_exact());
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod equiv;
pub mod replay;

pub use equiv::{token_equivalence, TokenEquivalenceReport};
pub use facil_dram::BankedMemory;
pub use replay::{cross_check, gemv_fixed_order, replay_gemv, FidelityReport};
