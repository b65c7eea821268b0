//! # facil-sim
//!
//! End-to-end SoC-PIM cooperative inference simulation for the FACIL
//! (HPCA 2025) reproduction:
//!
//! * [`relayout::RelayoutModel`] — DRAM-simulated cost of converting
//!   weights between the PIM-optimized and conventional layouts (the
//!   baseline's per-prefill penalty, paper Fig. 6), simulated once per
//!   process per memory system;
//! * [`engine::InferenceSim`] — the five execution strategies (SoC-only,
//!   hybrid-static, hybrid-dynamic, FACIL, FACIL+dynamic) with TTFT/TTLT
//!   accounting over any (platform, model, query). The strategies differ in
//!   four [`Strategy`] predicates (decodes on the PIM, re-lays weights out
//!   for the SoC, SoC reads in place, may offload short prefills), and two
//!   functions price every phase from them:
//!   [`InferenceSim::prefill_chunk_ns`] and [`InferenceSim::decode_batch_ns`];
//! * [`metrics`] — dataset-level geometric-mean speedups (Figs. 13-16).
//!
//! ```no_run
//! use facil_sim::{InferenceSim, Strategy};
//! use facil_soc::{Platform, PlatformId};
//! use facil_workloads::Query;
//!
//! let sim = InferenceSim::new(Platform::get(PlatformId::Jetson))?;
//! let q = Query { prefill: 64, decode: 64 };
//! let base = sim.run_query(Strategy::HybridStatic, q);
//! let facil = sim.run_query(Strategy::FacilStatic, q);
//! println!("TTFT speedup: {:.2}x", base.ttft_ns / facil.ttft_ns);
//! # Ok::<(), facil_core::FacilError>(())
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cosched;
pub mod energy;
pub mod engine;
pub mod metrics;
pub mod relayout;

pub use cosched::{run_cosched, run_cosched_traced, CoschedConfig, CoschedPolicy, CoschedResult};
pub use energy::{decode_energy_per_token, TokenEnergy};
pub use engine::{InferenceSim, QueryResult, Strategy};
pub use metrics::{geomean_speedup, run_dataset, DatasetRun};
pub use relayout::{RelayoutModel, RelayoutProfile};
