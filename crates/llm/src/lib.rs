//! # facil-llm
//!
//! LLM workload model for the FACIL (HPCA 2025) reproduction:
//!
//! * [`model::ModelConfig`] — the three Table II models (Llama3-8B,
//!   OPT-6.7B, Phi-1.5), their linear-layer graphs, and the KV-cache and
//!   element-wise traffic per token that `facil_sim::InferenceSim` costs
//!   prefill and decode from.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod model;

pub use model::{LinearOp, ModelConfig};
