//! Property-based tests of the cluster driver's conservation and
//! determinism invariants under seeded chaos.

use facil_check::cases;
use facil_serve::{
    run_cluster, run_fleet_with_faults, ChaosEvent, ChaosPlan, ChaosRates, ClusterConfig,
    ClusterReport, FaultPlan, FleetConfig, Routing, ServeConfig,
};
use facil_sim::InferenceSim;
use facil_soc::{Platform, PlatformId};
use facil_workloads::{ArrivalProcess, Dataset};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// One shared simulator (construction runs a DRAM simulation; reuse it).
fn sim() -> &'static InferenceSim {
    static SIM: OnceLock<InferenceSim> = OnceLock::new();
    SIM.get_or_init(|| {
        InferenceSim::new(Platform::get(PlatformId::Iphone)).expect("default model fits")
    })
}

/// Chaos rates high enough that short serving spans still see events of
/// every class.
fn hot_rates() -> ChaosRates {
    ChaosRates {
        cell_outages_per_h: 120.0,
        partitions_per_h: 120.0,
        link_delays_per_h: 240.0,
        gray_failures_per_h: 120.0,
        crashes_per_h: 240.0,
    }
}

/// Collect the terminal state of every request id: completions and
/// device-level sheds from the per-cell reports, router sheds from the
/// cluster record. Returns `(completed, shed)` id sets.
fn terminal_ids(r: &ClusterReport) -> (BTreeSet<u64>, BTreeSet<u64>) {
    let completed: BTreeSet<u64> =
        r.cells.iter().flat_map(|c| c.serve.requests.iter().map(|q| q.id)).collect();
    let shed: BTreeSet<u64> = r
        .cells
        .iter()
        .flat_map(|c| c.serve.sheds.iter().map(|s| s.id))
        .chain(r.sheds.iter().map(|s| s.id))
        .collect();
    (completed, shed)
}

/// The conservation invariant holds under every seeded chaos plan,
/// with correlated cell outages and network partitions explicitly
/// forced in: every offered id reaches exactly one terminal state.
#[test]
fn conservation_holds_under_seeded_chaos() {
    cases(8, |g| {
        let (seed, chaos_seed, n, qps, cells, devices_per_cell, outage_at, least_loaded) = (
            g.u64(0..1_000),
            g.u64(0..1_000),
            g.usize(1..20),
            g.f64(0.5..6.0),
            g.usize(1..4),
            g.usize(1..3),
            g.f64(0.0..3.0),
            g.bool(),
        );
        let d = Dataset::code_autocompletion_like(seed, n);
        let cfg = ClusterConfig {
            cells,
            devices_per_cell,
            max_devices_per_cell: devices_per_cell,
            serve: ServeConfig { seed, fmfi: 0.0, ..ServeConfig::default() },
            routing: if least_loaded { Routing::LeastLoaded } else { Routing::RoundRobin },
            ..ClusterConfig::default()
        };
        let mut plan = ChaosPlan::seeded(chaos_seed, &cfg, 60.0, &hot_rates());
        plan.events.push(ChaosEvent::CellOutage {
            cell: cells - 1,
            at_s: outage_at,
            duration_s: 2.0 + outage_at,
        });
        plan.events.push(ChaosEvent::Partition { cell: 0, at_s: outage_at * 0.5, duration_s: 1.5 });
        let r = run_cluster(sim(), &d, &ArrivalProcess::Poisson { qps }, &cfg, &plan).unwrap();
        assert_eq!(r.offered, n);
        assert!(
            r.conserved(),
            "offered {} != completed {} + shed {}",
            r.offered,
            r.completed,
            r.shed
        );
        let (completed, shed) = terminal_ids(&r);
        assert_eq!(completed.len() + shed.len(), n, "an id reached two terminal states");
        assert!(completed.is_disjoint(&shed));
        let all: BTreeSet<u64> = completed.union(&shed).copied().collect();
        assert_eq!(all, (0..n as u64).collect::<BTreeSet<u64>>());
    });
}

/// Worker count is invisible in the results: the same chaotic cluster
/// run on one pool worker serializes to exactly the JSON it produces
/// on eight (the `FACIL_THREADS=1` vs `FACIL_THREADS=8` guarantee).
#[test]
fn worker_count_never_changes_the_report() {
    cases(8, |g| {
        let (seed, chaos_seed, n, qps) =
            (g.u64(0..1_000), g.u64(0..1_000), g.usize(1..16), g.f64(0.5..6.0));
        let d = Dataset::code_autocompletion_like(seed, n);
        let cfg = ClusterConfig {
            cells: 2,
            devices_per_cell: 2,
            max_devices_per_cell: 2,
            serve: ServeConfig { seed, fmfi: 0.0, ..ServeConfig::default() },
            ..ClusterConfig::default()
        };
        let plan = ChaosPlan::seeded(chaos_seed, &cfg, 60.0, &hot_rates());
        let arrival = ArrivalProcess::Poisson { qps };
        facil_sim::pool::set_parallelism(1);
        let serial = run_cluster(sim(), &d, &arrival, &cfg, &plan).unwrap();
        facil_sim::pool::set_parallelism(8);
        let wide = run_cluster(sim(), &d, &arrival, &cfg, &plan).unwrap();
        facil_sim::pool::set_parallelism(0);
        assert!(serial.conserved());
        assert_eq!(&serial, &wide);
        assert_eq!(serial.to_json(), wide.to_json());
    });
}

/// An empty chaos plan reproduces the chaos-free schedule exactly:
/// [`ChaosPlan::none`] and a zero-rate seeded plan are byte-identical,
/// and neither triggers any resilience machinery.
#[test]
fn empty_plans_reproduce_the_chaos_free_schedule() {
    cases(8, |g| {
        let (seed, n, qps, cells, devices_per_cell) =
            (g.u64(0..1_000), g.usize(1..16), g.f64(0.5..8.0), g.usize(1..3), g.usize(1..3));
        let d = Dataset::code_autocompletion_like(seed, n);
        let cfg = ClusterConfig {
            cells,
            devices_per_cell,
            max_devices_per_cell: devices_per_cell,
            serve: ServeConfig { seed, fmfi: 0.0, ..ServeConfig::default() },
            ..ClusterConfig::default()
        };
        let arrival = ArrivalProcess::Poisson { qps };
        let zero = ChaosRates {
            cell_outages_per_h: 0.0,
            partitions_per_h: 0.0,
            link_delays_per_h: 0.0,
            gray_failures_per_h: 0.0,
            crashes_per_h: 0.0,
        };
        let none = run_cluster(sim(), &d, &arrival, &cfg, &ChaosPlan::none()).unwrap();
        let seeded_empty = ChaosPlan::seeded(seed, &cfg, 600.0, &zero);
        assert!(seeded_empty.events.is_empty());
        let quiet = run_cluster(sim(), &d, &arrival, &cfg, &seeded_empty).unwrap();
        assert_eq!(&none, &quiet);
        assert_eq!(none.to_json(), quiet.to_json());
        assert_eq!(none.failovers, 0);
        assert_eq!(none.retries, 0);
        assert_eq!(none.deferrals, 0);
        assert_eq!(none.hedges, 0);
        assert_eq!(none.availability, 1.0);
        assert!(none.sheds.is_empty(), "no router sheds without chaos");
        assert!(none.conserved());
    });
}

/// A fleet is a one-cell cluster on the same driver: without chaos, a
/// one-cell cluster's cell report is byte-identical to a standalone
/// [`run_fleet_with_faults`] run over the same devices.
#[test]
fn single_cell_cluster_matches_the_fleet_driver() {
    cases(8, |g| {
        let (seed, n, qps, devices, least_loaded) =
            (g.u64(0..1_000), g.usize(1..16), g.f64(0.5..8.0), g.usize(1..4), g.bool());
        let d = Dataset::code_autocompletion_like(seed, n);
        let serve = ServeConfig { seed, fmfi: 0.0, ..ServeConfig::default() };
        let routing = if least_loaded { Routing::LeastLoaded } else { Routing::RoundRobin };
        let cfg = ClusterConfig {
            cells: 1,
            devices_per_cell: devices,
            max_devices_per_cell: devices,
            serve,
            routing,
            ..ClusterConfig::default()
        };
        let arrival = ArrivalProcess::Poisson { qps };
        let cluster = run_cluster(sim(), &d, &arrival, &cfg, &ChaosPlan::none()).unwrap();
        let fleet = run_fleet_with_faults(
            sim(),
            &d,
            &arrival,
            serve,
            FleetConfig { devices, routing },
            &FaultPlan::none(),
        )
        .unwrap();
        assert_eq!(&cluster.cells[0].serve, &fleet);
        assert_eq!(cluster.cells[0].serve.to_json(), fleet.to_json());
    });
}
