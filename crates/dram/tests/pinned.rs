//! Byte-identity pin for the DRAM scheduler: the FNV-1a digest of one
//! fixed, seeded request stream's `SimResult` and per-channel command logs.
//!
//! The property tests hold the next-event engine to the cycle-stepped one,
//! but a change to the FR-FCFS decision itself would move both engines
//! together and pass them. This pin catches that: any change to which
//! command issues when, to a stat, or to refresh placement moves it. The
//! stream covers two channels, both ranks, row hits, misses and conflicts,
//! read/write turnaround, refresh under a shortened tREFI, and idle gaps
//! long enough for the event engine to jump several refresh deadlines.
//! The digest holds for both engines in debug and release builds alike.

use facil_dram::{DramAddress, DramSpec, DramSystem, EngineKind, Request, SchedConfig};
use facil_telemetry::json::fnv1a;

/// Digest of `format!("{result:?}{logs:?}")` for [`stream`] on [`spec`].
const PINNED: u64 = 0x327d_8869_e155_999a;

/// Commands the stream issues across both channels.
const COMMANDS: usize = 32_405;

/// Two LPDDR5-6400 channels with refresh due every 200 cycles.
fn spec() -> DramSpec {
    let mut spec = DramSpec::lpddr5_6400(32, 512 << 20);
    spec.timing.refi = 200;
    spec
}

/// 3,000 reads and writes over 48 rows, arriving in non-decreasing order:
/// mostly back to back, with a 5,000-cycle gap about once every 64
/// requests. The generator is a self-contained xorshift64* so that no
/// other crate's RNG can move the pin.
fn stream(spec: &DramSpec) -> Vec<Request> {
    let t = spec.topology;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |bound: u64| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound
    };
    let mut arrival = 0;
    (0..3_000)
        .map(|_| {
            arrival += if next(64) == 0 { 5_000 } else { next(4) };
            let addr = DramAddress {
                channel: next(t.channels),
                rank: next(t.ranks),
                bank: next(t.banks()),
                row: next(48),
                column: next(t.columns()),
            };
            let req = if next(3) == 0 { Request::write(addr) } else { Request::read(addr) };
            req.at(arrival)
        })
        .collect()
}

fn digest(engine: EngineKind) -> (u64, usize) {
    let spec = spec();
    let mut sys = DramSystem::with_config(&spec, SchedConfig { engine });
    sys.enable_logging();
    for req in stream(&spec) {
        sys.push(req);
    }
    let result = sys.run_with_threads(1);
    let commands = sys.logs().iter().map(|log| log.len()).sum();
    (fnv1a(format!("{result:?}{:?}", sys.logs()).as_bytes()), commands)
}

#[test]
fn schedule_is_pinned_on_both_engines() {
    for engine in [EngineKind::Stepped, EngineKind::Event] {
        let (got, commands) = digest(engine);
        assert_eq!(commands, COMMANDS, "{engine} engine: command count moved");
        assert_eq!(got, PINNED, "{engine} engine: schedule digest moved to {got:#018x}");
    }
}
