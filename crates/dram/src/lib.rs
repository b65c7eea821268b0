//! # facil-dram
//!
//! Cycle-level LPDDR5/LPDDR5X DRAM simulator — the memory substrate of the
//! FACIL (HPCA 2025) reproduction.
//!
//! The FACIL paper evaluates its flexible PA-to-DA address mapping on a
//! DRAMsim-derived simulator extended with LPDDR5/X timing (paper Section
//! VI-A). This crate provides that substrate from scratch:
//!
//! * [`spec::DramSpec`] — JEDEC-shaped LPDDR5/5X presets (timing, topology),
//! * [`controller::DramSystem`] — the multi-channel backend: one FR-FCFS,
//!   open-page scheduler per channel with bank/rank state machines
//!   (tRCD/tRP/tRAS/tCCD/tRRD/tFAW/tWR/tRTP/tWTR, refresh), driven by one
//!   of two simulation engines — a cycle-stepped reference and the default
//!   next-event engine that jumps idle cycles (bit-identical results;
//!   select with [`SchedConfig::engine`] or `FACIL_DRAM_ENGINE`),
//! * [`trace`] — PA-trace replay through an arbitrary [`mapper::AddressMapper`],
//! * [`functional::BankedMemory`] — a data-value model keyed by *device*
//!   address, so two different mappings demonstrably view the same cells.
//!
//! ```
//! use facil_dram::{DramSpec, DramAddress, Request, DramSystem};
//!
//! let spec = DramSpec::lpddr5_6400(64, 8 << 30); // iPhone 15 Pro memory
//! let mut sys = DramSystem::new(&spec);
//! sys.push(Request::read(DramAddress { channel: 0, rank: 0, bank: 0, row: 0, column: 0 }));
//! let result = sys.run();
//! assert_eq!(result.stats.reads, 1);
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod allbank;
pub(crate) mod bank;
mod channel;
pub mod command;
pub mod controller;
pub mod energy;
mod engine;
pub mod functional;
pub mod mapper;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod verifylog;

pub use addr::{DramAddress, Topology};
pub use allbank::{
    run_allbank, run_allbank_logged, AllBankCommand, AllBankCommandKind, AllBankResult, PimStream,
};
pub use channel::SchedConfig;
pub use command::{CommandKind, Op, Request};
pub use controller::DramSystem;
pub use energy::{EnergyBreakdown, EnergyModel};
pub use engine::EngineKind;
pub use functional::BankedMemory;
pub use mapper::{AddressMapper, FnMapper, MapFault};
pub use spec::{DramKind, DramSpec, Timing};
pub use stats::{DramStats, SimResult};
pub use trace::{
    parse_trace, parse_trace_line, replay_on, run_trace, sequential_trace, TraceEntry,
};
pub use verifylog::{verify_allbank_log, verify_log, LoggedCommand, Violation};
