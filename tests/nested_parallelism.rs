//! Acceptance test for nested parallelism across the whole stack.
//!
//! The deepest parallel chain in the workspace: a cluster tick advances
//! every device on the pool workers (`par_map_mut` over cells × devices
//! flattened), a device advance charges a hybrid baseline's weight
//! re-layout, the relayout model's lazily-initialized profile fires
//! `DramSystem::run()` — which is itself a `pool::par_map_mut` over DRAM
//! channels. Under the persistent executor the inner call must run inline
//! on the worker that reached it (no deadlock, no oversubscription), and
//! the report must stay byte-identical to the fully serial run.
//!
//! This file is its own test binary on purpose: it uses the process-global
//! `pool::set_parallelism` knob and counts pool workers via
//! `pool::shutdown`, both of which would race with unrelated tests.

use facil::serve::{run_cluster, ChaosEvent, ChaosPlan, ClusterConfig, FaultKind, ServeConfig};
use facil::sim::{InferenceSim, Strategy};
use facil::soc::{Platform, PlatformId};
use facil::telemetry::pool;
use facil::workloads::{ArrivalProcess, Dataset};

#[test]
fn cluster_tick_nests_dram_runs_without_deadlock_or_oversubscription() {
    let dataset = Dataset::code_autocompletion_like(42, 24);
    let arrival = ArrivalProcess::Poisson { qps: 8.0 };
    // A PIM fault covering the whole run makes the hybrid baseline charge
    // a weight re-layout, whose lazily-profiled cost model runs a real
    // DramSystem inside whichever device phase touches it first.
    let plan = ChaosPlan {
        events: vec![ChaosEvent::Device {
            device: 0,
            at_s: 0.0,
            kind: FaultKind::PimFault { duration_s: 1e9 },
        }],
        ..ChaosPlan::none()
    };
    let cfg = ClusterConfig {
        serve: ServeConfig {
            strategy: Strategy::HybridDynamic,
            seed: 9,
            fmfi: 0.0,
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    };

    let run = |workers: usize| {
        pool::set_parallelism(workers);
        // A fresh sim per run re-arms the relayout profile's OnceLock, so
        // the nested DramSystem::run fires *during* this cluster run — at
        // this worker count — not as a leftover from a previous run.
        let sim = InferenceSim::new(Platform::get(PlatformId::Iphone)).expect("default model fits");
        let report = run_cluster(&sim, &dataset, &arrival, &cfg, &plan).expect("valid cluster");
        let stall_s: f64 = report.cells.iter().map(|c| c.serve.relayout_stall_s).sum();
        (report.to_json(), stall_s)
    };

    // Start from a clean pool so the shutdown count below is this test's.
    pool::shutdown();

    let (serial_json, serial_stall) = run(1);
    assert!(
        serial_stall > 0.0,
        "the PIM fault must stall the hybrid baseline for a relayout — \
         otherwise the nested DramSystem path never ran"
    );
    let (parallel_json, parallel_stall) = run(8);
    pool::set_parallelism(0);

    // No deadlock (we got here), and the schedule is invisible: the nested
    // runs changed nothing observable.
    assert_eq!(parallel_stall, serial_stall);
    assert_eq!(serial_json, parallel_json, "cluster report must not depend on worker count");

    // The serial run is inline end to end (spawns nothing) and the
    // parallel run may use at most `workers - 1` pool helpers beside the
    // submitting thread — nested batches reuse those same workers instead
    // of growing the pool.
    let joined = pool::shutdown();
    assert!(joined >= 1, "the 8-worker run must have spawned persistent workers");
    assert!(joined <= 7, "pool grew past parallelism() - 1 live workers: {joined}");
}
