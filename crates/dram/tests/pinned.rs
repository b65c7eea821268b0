//! Byte-identity pin for the DRAM scheduler: the FNV-1a digest of one
//! fixed, seeded request stream's `SimResult` and per-channel command logs.
//!
//! The property tests hold the next-event engine to the cycle-stepped one,
//! but a change to the FR-FCFS decision itself would move both engines
//! together and pass them. This pin catches that: any change to which
//! command issues when, to a stat, or to refresh placement moves it. The
//! stream covers two channels, both ranks, row hits, misses and conflicts,
//! read/write turnaround and refresh under a shortened tREFI of 200 cycles.
//! There each rank spends 183 of every 200 cycles refreshing (tRP plus
//! tRFCab), so the refresh backlog swallows the stream's 5,000-cycle gaps.
//! A second pin runs the same stream at the stock tREFI (3,125 cycles),
//! where the gaps really are idle: both channels drain before each gap ends
//! and every rank refreshes inside every gap, so the event engine crosses
//! each gap in jumps from one refresh deadline to the next. A third pin
//! covers twin channels: four channels of which two queue the same
//! requests, one queues them with one request changed and one queues none.
//! The digests hold for both engines in debug and release builds alike.

use facil_dram::{
    CommandKind, DramAddress, DramSpec, DramSystem, EngineKind, LoggedCommand, Request,
    SchedConfig, SimResult,
};
use facil_telemetry::json::fnv1a;

/// Digest of `format!("{result:?}{logs:?}")` for [`stream`] on [`spec`].
const PINNED: u64 = 0x327d_8869_e155_999a;

/// Commands the stream issues across both channels.
const COMMANDS: usize = 32_405;

/// Digest of `format!("{result:?}{logs:?}")` for [`twin_stream`] on
/// [`twin_spec`].
const TWIN_PINNED: u64 = 0x84af_de28_ced5_33e4;

/// Digest of `format!("{result:?}{logs:?}")` for [`stream`] on two
/// LPDDR5-6400 channels with the stock tREFI.
const IDLE_PINNED: u64 = 0xc1f5_e332_95be_7315;

/// 5,000-cycle gaps in that stream.
const IDLE_GAPS: usize = 51;

/// All-bank refreshes issued inside those gaps, across both channels.
const GAP_REFRESHES: usize = 328;

/// Two LPDDR5-6400 channels with refresh due every 200 cycles.
fn spec() -> DramSpec {
    let mut spec = DramSpec::lpddr5_6400(32, 512 << 20);
    spec.timing.refi = 200;
    spec
}

/// Four LPDDR5-6400 channels with refresh due every 200 cycles.
fn twin_spec() -> DramSpec {
    let mut spec = DramSpec::lpddr5_6400(64, 1 << 30);
    spec.timing.refi = 200;
    spec
}

/// `len` reads and writes over 48 rows, arriving in non-decreasing order:
/// mostly back to back, with a 5,000-cycle gap about once every 64
/// requests. The generator is a self-contained xorshift64* so that no
/// other crate's RNG can move the pin.
fn stream(spec: &DramSpec, len: usize) -> Vec<Request> {
    let t = spec.topology;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |bound: u64| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound
    };
    let mut arrival = 0;
    (0..len)
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

/// 1,000 requests of [`stream`] queued alike on channels 0 and 2, and on
/// channel 1 with one request a cycle later: the first that arrives before
/// its successor, while the channel has no backlog yet. Channel 3 queues
/// nothing.
fn twin_stream(spec: &DramSpec) -> Vec<Request> {
    let base = stream(spec, 1_000);
    let on = |channel| {
        base.iter().map(move |&r| Request { addr: DramAddress { channel, ..r.addr }, ..r })
    };
    let mut changed: Vec<Request> = on(1).collect();
    let i = changed.windows(2).position(|w| w[0].arrival < w[1].arrival).expect("arrivals advance");
    changed[i].arrival += 1;
    on(0).chain(changed).chain(on(2)).collect()
}

/// Run `reqs` on `spec` with logging on; return the result and each
/// channel's command log.
fn run_logged(
    spec: &DramSpec,
    reqs: Vec<Request>,
    engine: EngineKind,
) -> (SimResult, Vec<Vec<LoggedCommand>>) {
    let mut sys = DramSystem::with_config(spec, SchedConfig { engine });
    sys.enable_logging();
    for req in reqs {
        sys.push(req);
    }
    let result = sys.run_with_threads(1);
    (result, sys.logs().iter().map(|log| log.to_vec()).collect())
}

/// Run `reqs` on `spec` with logging on; return the digest of the result
/// and logs, and each channel's command count.
fn digest(spec: &DramSpec, reqs: Vec<Request>, engine: EngineKind) -> (u64, Vec<usize>) {
    let (result, logs) = run_logged(spec, reqs, engine);
    let commands = logs.iter().map(Vec::len).collect();
    (fnv1a(format!("{result:?}{logs:?}").as_bytes()), commands)
}

#[test]
fn schedule_is_pinned_on_both_engines() {
    let spec = spec();
    for engine in [EngineKind::Stepped, EngineKind::Event] {
        let (got, commands) = digest(&spec, stream(&spec, 3_000), engine);
        assert_eq!(
            commands.iter().sum::<usize>(),
            COMMANDS,
            "{engine} engine: command count moved"
        );
        assert_eq!(got, PINNED, "{engine} engine: schedule digest moved to {got:#018x}");
    }
}

#[test]
fn twin_channels_are_pinned() {
    let spec = twin_spec();
    for engine in [EngineKind::Stepped, EngineKind::Event] {
        let (got, commands) = digest(&spec, twin_stream(&spec), engine);
        assert_eq!(commands[3], 0, "{engine} engine: channel 3 queues nothing");
        assert_eq!(got, TWIN_PINNED, "{engine} engine: twin digest moved to {got:#018x}");
    }
}

#[test]
fn idle_gaps_are_pinned() {
    let spec = DramSpec::lpddr5_6400(32, 512 << 20);
    let (refi, ranks) = (spec.timing.refi, spec.topology.ranks);
    assert_eq!(refi, 3_125, "stock tREFI");
    let reqs = stream(&spec, 3_000);
    // Each gap spans two consecutive arrivals 5,000 cycles apart.
    let gaps: Vec<(u64, u64)> = reqs
        .windows(2)
        .filter(|w| w[1].arrival - w[0].arrival == 5_000)
        .map(|w| (w[0].arrival, w[1].arrival))
        .collect();
    assert_eq!(gaps.len(), IDLE_GAPS);
    for engine in [EngineKind::Stepped, EngineKind::Event] {
        let (result, logs) = run_logged(&spec, reqs.clone(), engine);
        let mut in_gaps = 0;
        for (ch, log) in logs.iter().enumerate() {
            for &(start, end) in &gaps {
                let arrived = reqs
                    .iter()
                    .filter(|r| r.addr.channel == ch as u64 && r.arrival <= start)
                    .count();
                let served = log
                    .iter()
                    .filter(|c| matches!(c.kind, CommandKind::Rd | CommandKind::Wr))
                    .filter(|c| c.cycle < end)
                    .count();
                assert_eq!(
                    served, arrived,
                    "{engine} engine: channel {ch} still serving at the end of the gap at {start}"
                );
                // A gap outlasts tREFI, so every rank's deadline falls in it.
                for rank in 0..ranks {
                    let refreshes = log
                        .iter()
                        .filter(|c| c.kind == CommandKind::RefAb && c.rank == rank)
                        .filter(|c| c.cycle > start && c.cycle < end)
                        .count();
                    assert!(
                        refreshes > 0,
                        "{engine} engine: channel {ch} rank {rank} skips refresh in the gap at {start}"
                    );
                    in_gaps += refreshes;
                }
            }
        }
        assert_eq!(in_gaps, GAP_REFRESHES, "{engine} engine: refreshes inside gaps moved");
        let got = fnv1a(format!("{result:?}{logs:?}").as_bytes());
        assert_eq!(got, IDLE_PINNED, "{engine} engine: idle-gap digest moved to {got:#018x}");
    }
}
