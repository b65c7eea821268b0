//! # facil-mapsearch
//!
//! Automated DRAM mapping search: instead of trusting the paper's
//! closed-form `select_mapping` (Fig. 9), search the bit-segment
//! permutation space of [`MappingScheme`](facil_core::MappingScheme)
//! against a *workload profile* and keep the paper's pick only when
//! nothing measurably beats it.
//!
//! The RACAM line of work argues that address mappings should be derived
//! from observed reuse patterns rather than analytic rules; FACIL's MapID
//! family makes that search tractable on-device because the candidate
//! space is tiny (MapID x PU-bit order) and every candidate is
//! geometry-validated at construction. The pipeline:
//!
//! 1. [`WorkloadProfile`] — the tensor shapes to place and the GEMV/GEMM
//!    pass mix they are scored under, optionally calibrated with measured
//!    [`DramStats`](facil_dram::DramStats) from earlier runs;
//! 2. [`CandidateSpace`] — enumerates every legal (MapID, PU order) point
//!    of the PIM-optimized family for a topology (bounded by the in-page
//!    row bits, which the paper's `max_map_id_bound` upper-bounds loosely);
//!    facil-core builds each point's scheme and decision
//!    (`MappingScheme::pim_optimized_ordered`, `decision_with_map_id`), so
//!    the paper's candidate is exactly what `select_mapping` returns;
//! 3. [`CostModel`] — a fast analytic makespan model (per-bank row service
//!    vs per-channel bus occupancy over address windows) used to rank all
//!    candidates, cross-checked by real [`DramSystem`](facil_dram::DramSystem)
//!    runs on sampled traces for the top few;
//! 4. [`search_workload`] — scores every candidate (6 to 24 per tensor on
//!    the paper's platforms, small enough to enumerate); the paper's pick
//!    is the incumbent and is only displaced by a candidate that beats it
//!    by more than an epsilon on *measured* cycles, so the four baseline
//!    platform configurations reproduce the paper's selection exactly;
//! 5. [`SearchReport`] — best MapID per matrix, score trace and
//!    evaluated-candidate counts, emitted through the existing
//!    [`RunManifest`](facil_telemetry::RunManifest) JSONL plumbing, and
//!    convertible into a mapping *selector* for
//!    `facil_sim::InferenceSim::with_selector` (the
//!    `SearchReport -> MappingDecision` adapter).
//!
//! Everything is deterministic: candidate enumeration order is fixed, the
//! analytic model is pure arithmetic, window sampling is stride-based (no
//! RNG), and parallel candidate evaluation goes through
//! `facil_telemetry::pool`, which reassembles results in input order
//! regardless of the worker count.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod candidates;
pub mod cost;
pub mod profile;
pub mod report;
pub mod search;

pub use candidates::{Candidate, CandidateSpace, PuOrder};
pub use cost::{AnalyticCost, CostModel, MeasuredCost};
pub use profile::{TensorSpec, WorkloadProfile};
pub use report::SearchReport;
pub use search::{
    search_matrix, search_workload, CandidateOutcome, MatrixSearchResult, SearchConfig, TracePoint,
    IMPROVEMENT_THRESHOLD,
};
