//! Byte-identity pins for the serving driver: FNV-1a digests of
//! `ServeReport::to_json()` for fault-free fleets under both routings, for
//! the `chaos` binary's crash-failover and fault-rate-sweep fleets, and for
//! fleets on fragmented memory whose KV reservations compact. Any change
//! to the schedule, the pages the allocator picks, the report or its JSON
//! moves them. They hold in debug and release builds alike: a report's
//! zero downtime prints as `0` in both.

use facil_serve::{
    run_fleet, run_fleet_with_faults, FaultEvent, FaultKind, FaultPlan, FaultRates, FleetConfig,
    RetryPolicy, Routing, ServeConfig, ServeReport,
};
use facil_sim::InferenceSim;
use facil_soc::{Platform, PlatformId};
use facil_telemetry::json::fnv1a;
use facil_workloads::{ArrivalProcess, Dataset};
use std::sync::OnceLock;

fn sim() -> &'static InferenceSim {
    static SIM: OnceLock<InferenceSim> = OnceLock::new();
    SIM.get_or_init(|| {
        InferenceSim::new(Platform::get(PlatformId::Iphone)).expect("default model fits")
    })
}

fn digest(r: &ServeReport) -> u64 {
    fnv1a(r.to_json().as_bytes())
}

fn check(label: &str, got: &[u64], want: &[u64]) {
    assert_eq!(got, want, "{label} digests moved: {got:#018x?}");
}

#[test]
fn fault_free_fleets_are_pinned() {
    let d = Dataset::alpaca_like(11, 96);
    let arrival = ArrivalProcess::Poisson { qps: 16.0 };
    let cfg = ServeConfig { seed: 9, fmfi: 0.0, ..ServeConfig::default() };
    let mut got = Vec::new();
    for devices in [1, 4, 64] {
        for routing in [Routing::RoundRobin, Routing::LeastLoaded] {
            let r = run_fleet(sim(), &d, &arrival, cfg, FleetConfig { devices, routing }).unwrap();
            got.push(digest(&r));
        }
    }
    check(
        "fault-free fleet",
        &got,
        &[
            0x49e5_3a1b_addc_3aba,
            0x76c2_7e82_2aef_0c42,
            0x8723_554d_2296_10d0,
            0xc636_b7c9_71a5_759d,
            0x080f_2c9c_ed8f_2e92,
            0x5add_eaff_94d8_c7cf,
        ],
    );
}

/// The `chaos` binary's experiments 2 and 3 at its smoke (16) and full
/// (48) sizes, seed 9.
#[test]
fn chaos_binary_fleets_are_pinned() {
    let cfg = ServeConfig { seed: 9, fmfi: 0.0, ..ServeConfig::default() };
    let mut got = Vec::new();
    for n in [16, 48] {
        let d = Dataset::code_autocompletion_like(7, n);
        let arrival = ArrivalProcess::Poisson { qps: 8.0 };
        let crash = FaultPlan {
            events: vec![FaultEvent {
                device: 0,
                at_s: 0.5,
                kind: FaultKind::Crash { recover_s: None },
            }],
            policy: RetryPolicy { max_retries: 4, retry_backoff_s: 0.05, ..RetryPolicy::none() },
        };
        let fc = FleetConfig { devices: 3, routing: Routing::LeastLoaded };
        for plan in [FaultPlan::none(), crash] {
            got.push(digest(&run_fleet_with_faults(sim(), &d, &arrival, cfg, fc, &plan).unwrap()));
        }

        let d = Dataset::alpaca_like(3, n);
        let arrival = ArrivalProcess::Poisson { qps: 4.0 };
        for crash_per_s in [0.0, 0.05, 0.1, 0.2, 0.4] {
            let rates = FaultRates {
                crash_per_s,
                pim_per_s: crash_per_s / 2.0,
                kv_per_s: crash_per_s / 2.0,
                mean_outage_s: 0.5,
            };
            let mut plan = FaultPlan::random(1234, 4, 30.0, rates);
            plan.policy.max_retries = 3;
            plan.policy.retry_backoff_s = 0.05;
            plan.policy.deadline_s = 20.0;
            let fc = FleetConfig { devices: 4, routing: Routing::LeastLoaded };
            got.push(digest(&run_fleet_with_faults(sim(), &d, &arrival, cfg, fc, &plan).unwrap()));
        }
    }
    check(
        "chaos fleet",
        &got,
        &[
            0xa055_b8f3_008c_ca0e,
            0xb006_cf6e_ef8f_496f,
            0x0c9a_799d_11de_850a,
            0x5ebe_b698_9896_1f6d,
            0xfb13_5b32_641c_9f85,
            0x4adb_c5f0_403a_1101,
            0xf8a5_14bd_f66e_2741,
            0x46bc_736a_c4e9_5359,
            0x9173_618e_e583_20e7,
            0x3ccd_32b8_ad79_b367,
            0x6b9c_2507_b903_0d6f,
            0xa573_1eb3_c6b2_1f90,
            0x4b62_a2bd_6f04_69a2,
            0x475a_84c5_8e77_76f2,
        ],
    );
}

/// Fleets whose devices are prepared at a non-zero FMFI, so KV slab
/// reservations go through the huge-page allocator's fragmented state: the
/// default FMFI 0.25, and FMFI 0.75 under a KV budget small enough that
/// slab allocations run out of fully-free 2 MB blocks and compact. At FMFI
/// 0.25 nothing compacts, so that report equals the unfragmented 4-device
/// least-loaded one pinned above.
#[test]
fn fragmented_fleets_are_pinned() {
    let d = Dataset::alpaca_like(11, 96);
    let arrival = ArrivalProcess::Poisson { qps: 16.0 };
    let fc = FleetConfig { devices: 4, routing: Routing::LeastLoaded };
    let default = ServeConfig { seed: 9, ..ServeConfig::default() };
    let tight = ServeConfig { fmfi: 0.75, kv_budget_bytes: 1 << 30, ..default };
    let r = run_fleet(sim(), &d, &arrival, default, fc).unwrap();
    let got_default = digest(&r);
    let r = run_fleet(sim(), &d, &arrival, tight, fc).unwrap();
    let moved: u64 = r.devices.iter().map(|d| d.kv_frames_moved).sum();
    assert!(moved > 0, "FMFI 0.75 under a 1 GB KV budget must compact");
    check(
        "fragmented fleet",
        &[got_default, digest(&r)],
        &[0xc636_b7c9_71a5_759d, 0xe4cf_47a0_27a3_78b6],
    );
}
