//! # facil-pim
//!
//! AiM-style near-bank PIM execution engine for the FACIL (HPCA 2025)
//! reproduction — the substrate the paper takes from the NeuPIMs/DRAMsim
//! simulator stack, rebuilt in Rust:
//!
//! * [`layout::PimPlacement`] — chunk/tile geometry of a placed matrix
//!   (paper Section II-C);
//! * [`gemv::PimEngine`] — command-level timing of all-bank
//!   `ACT-AB / MAC-AB / PRE-AB` GEMV and GEMM streams over LPDDR5 timing,
//!   including global-buffer loads, output drains and partition reductions;
//! * [`functional`] — data-value PIM execution over the byte-accurate
//!   [`facil_dram::BankedMemory`], proving that SoC-written row-major
//!   weights compute correctly without re-layout;
//! * [`commands::CommandSequence`] — the same all-bank stream as a validated,
//!   *replayable* structure (waves of per-rank passes, each stating the
//!   global-buffer slices its rank stages and its banks' chunk rows) that
//!   `facil-fidelity` executes functionally and the verifylog checker
//!   validates for JEDEC legality;
//! * [`mod@f16`] — minimal fp16 codec used by the functional path.
//!
//! ```
//! use facil_core::{DType, FacilSystem, MatrixConfig, PimArch};
//! use facil_dram::DramSpec;
//! use facil_pim::PimEngine;
//!
//! # fn main() -> Result<(), facil_core::FacilError> {
//! let spec = DramSpec::lpddr5_6400(256, 64 << 30); // Jetson AGX Orin
//! let arch = PimArch::aim(&spec.topology);
//! let mut sys = FacilSystem::new(spec.clone(), arch);
//! let w = sys.pimalloc(MatrixConfig::new(4096, 4096, DType::F16))?;
//!
//! let engine = PimEngine::new(spec, arch);
//! let t = engine.gemv(&w.matrix, &w.decision);
//! assert!(t.internal_bw > 1e12); // multi-TB/s internal bandwidth
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod commands;
pub mod f16;
pub mod functional;
pub mod gemv;
pub mod layout;

pub use commands::{BankTask, ChunkRowTask, CommandSequence, GbSlice, PimCommand, RankPass, Wave};
pub use functional::{load_matrix, pim_gemv, store_matrix};
pub use gemv::{PimEngine, PimOpTiming, PimTimingConfig};
pub use layout::PimPlacement;
