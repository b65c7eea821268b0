//! # facil-cluster — compatibility re-export of cluster serving
//!
//! Cluster serving (cells of devices, the two-tier router, tenant QoS,
//! the [`ChaosPlan`] fault model and SLO-burn autoscaling) lives in
//! [`facil_serve`], next to the one serving driver it runs on. This crate
//! only re-exports the names the end-to-end benchmark (`benchmark/`)
//! imports under their old paths. It goes when the benchmark names
//! `facil_serve` directly; new code should too.

pub use facil_serve::{
    run_cluster, run_cluster_traced, AutoscalePolicy, ChaosPlan, ChaosRates, ClusterConfig,
    ClusterReport, Tenant,
};
