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
//!   accounting over any (platform, model, query);
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
/// Deterministic fork-join parallelism ([`pool::par_map`], the
/// `FACIL_THREADS` knob) — lives in [`facil_telemetry`] so the DRAM layer
/// below this crate can use the same pool; re-exported here as the
/// documented `facil_sim::pool` entry point.
pub use facil_telemetry::pool;
/// Latency statistics — moved to [`facil_telemetry::stats`] so the whole
/// workspace shares one percentile definition; re-exported here for the
/// existing `facil_sim::stats` paths.
pub use facil_telemetry::stats;

pub use cosched::{run_cosched, run_cosched_traced, CoschedConfig, CoschedPolicy, CoschedResult};
pub use energy::{decode_energy_per_token, TokenEnergy};
pub use engine::{InferenceSim, QueryResult, Strategy};
pub use metrics::{geomean_speedup, run_dataset, DatasetRun};
pub use relayout::{RelayoutModel, RelayoutProfile};
pub use stats::{percentile, Summary};
