//! # facil
//!
//! Facade crate for the FACIL (HPCA 2025) reproduction: *Flexible DRAM
//! Address Mapping for SoC-PIM Cooperative On-device LLM Inference*.
//!
//! Re-exports the whole workspace under stable module names:
//!
//! * [`dram`] — cycle-level LPDDR5/5X DRAM simulator,
//! * [`core`] — the FACIL contribution: mapping schemes, MapID selector,
//!   `pimalloc`, OS paging, memory-controller frontend,
//! * [`pim`] — AiM-style near-bank PIM execution engine,
//! * [`soc`] — SoC processor roofline models and the paper's four platforms,
//! * [`llm`] — LLM workload model (Llama3-8B, OPT-6.7B, Phi-1.5),
//! * [`workloads`] — synthetic dataset samplers (conversation and code
//!   autocompletion),
//! * [`sim`] — end-to-end SoC-PIM inference strategies and TTFT/TTLT
//!   metrics,
//! * [`serve`] — discrete-event serving simulator: continuous batching
//!   (FCFS run-to-completion is its batch-of-one configuration), admission
//!   control, SLO metrics, multi-device fleets, and fault-tolerant cluster
//!   serving with hierarchical cells, two-tier routing, tenant QoS,
//!   cluster-scale chaos testing and SLO-burn autoscaling,
//! * [`mapsearch`] — workload-profile-driven mapping search over the
//!   MapID / PU-order candidate space, with an analytic cost model
//!   cross-checked by cycle-accurate replays,
//! * [`fidelity`] — HW/SW-integrated functional PIM simulation: bit-exact
//!   replay of the all-bank command stream over a bank-sliced DRAM content
//!   model, plus end-to-end FACIL-vs-conventional token equivalence,
//! * [`telemetry`] — unified observability: trace spans on simulated time
//!   with a Chrome/Perfetto exporter, a metrics registry, run manifests,
//!   and the workspace's shared JSON writer.
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `crates/bench` for the experiment regenerators.

pub use facil_core as core;
pub use facil_dram as dram;
pub use facil_fidelity as fidelity;
pub use facil_llm as llm;
pub use facil_mapsearch as mapsearch;
pub use facil_pim as pim;
pub use facil_serve as serve;
pub use facil_sim as sim;
pub use facil_soc as soc;
pub use facil_telemetry as telemetry;
pub use facil_workloads as workloads;
