//! Property-based tests for the DRAM scheduler and functional memory.

use facil_check::{cases, Gen};
use facil_dram::{
    BankedMemory, DramAddress, DramSpec, DramStats, DramSystem, EngineKind, FnMapper,
    LoggedCommand, Op, Request, SchedConfig, Topology,
};

fn small_spec() -> DramSpec {
    DramSpec::lpddr5_6400(16, 256 << 20) // 1 channel
}

fn multi_spec() -> DramSpec {
    DramSpec::lpddr5_6400(64, 1 << 30) // 4 channels
}

/// A random request to any channel of `t`.
fn request(g: &mut Gen, t: &Topology) -> Request {
    let addr = DramAddress {
        channel: g.u64(0..t.channels),
        rank: g.u64(0..t.ranks),
        bank: g.u64(0..t.banks()),
        row: g.u64(0..t.rows.min(64)), // keep the row space small so hits/conflicts occur
        column: g.u64(0..t.columns()),
    };
    if g.bool() {
        Request::read(addr)
    } else {
        Request::write(addr)
    }
}

/// A random request to any channel of `multi_spec`, plus an inter-arrival
/// gap (accumulated by the caller so arrivals are globally non-decreasing,
/// as `DramSystem::push` requires).
fn timed_request(g: &mut Gen) -> (Request, u64) {
    (request(g, &multi_spec().topology), g.u64(0..6))
}

/// `len` random requests to the single channel of `small_spec`.
fn channel_stream(g: &mut Gen, len: std::ops::Range<usize>) -> Vec<Request> {
    let t = small_spec().topology;
    g.vec(len, |g| request(g, &t))
}

/// Schedule `reqs` on the single channel of `small_spec` with logging on;
/// return its stats and command log.
fn run_logged(reqs: Vec<Request>) -> (DramStats, Vec<LoggedCommand>) {
    let mut sys = DramSystem::new(&small_spec());
    sys.enable_logging();
    for r in reqs {
        sys.push(r);
    }
    let stats = sys.run().stats;
    (stats, sys.logs()[0].to_vec())
}

/// Every request stream completes, and the hit/miss/conflict counters
/// partition the column accesses exactly.
#[test]
fn scheduler_completes_and_classifies() {
    cases(64, |g| {
        let reqs = channel_stream(g, 1..200);
        let n = reqs.len() as u64;
        let reads = reqs.iter().filter(|r| r.op == Op::Read).count() as u64;
        let (stats, _) = run_logged(reqs);
        assert_eq!(stats.reads, reads);
        assert_eq!(stats.reads + stats.writes, n);
        assert_eq!(stats.row_hits + stats.row_misses + stats.row_conflicts, n);
        // Every miss and conflict requires an activate.
        assert!(stats.activates >= stats.row_misses.max(1).min(n));
        assert_eq!(stats.activates, stats.row_misses + stats.row_conflicts);
        assert_eq!(stats.precharges, stats.row_conflicts);
    });
}

/// Elapsed time is bounded below by the pure data-bus occupancy and is
/// finite (progress is always made).
#[test]
fn elapsed_time_lower_bound() {
    cases(64, |g| {
        let reqs = channel_stream(g, 1..200);
        let spec = small_spec();
        let n = reqs.len() as u64;
        let (stats, _) = run_logged(reqs);
        let data_cycles = n * spec.timing.burst_cycles;
        assert!(stats.finish_cycle >= data_cycles);
        // Generous upper bound: every access a conflict with full tRC.
        let bound = n
            * (spec.timing.rc + spec.timing.cl + spec.timing.burst_cycles + spec.timing.wr)
            + spec.timing.rfc_ab * (stats.refreshes + 1);
        assert!(stats.finish_cycle <= bound, "finish {} > bound {}", stats.finish_cycle, bound);
    });
}

/// Functional memory: arbitrary (possibly unaligned, overlapping) writes
/// followed by reads behave like a flat byte array.
#[test]
fn functional_memory_matches_flat_array() {
    cases(64, |g| {
        let writes = g.vec(1..20, |g| (g.u64(0..8000), g.vec(1..100, |g| g.u8(..))));
        let t = Topology::new(2, 1, 2, 2, 4, 256, 32); // 8 KiB
        let mapper = FnMapper(move |pa: u64| {
            let mut x = pa >> t.tx_bits();
            let mut take = |bits: u32| {
                let v = x & ((1 << bits) - 1);
                x >>= bits;
                v
            };
            DramAddress {
                column: take(t.column_bits()),
                bank: take(t.bank_bits()),
                channel: take(t.channel_bits()),
                rank: take(t.rank_bits()),
                row: take(t.row_bits()),
            }
        });
        let cap = t.capacity_bytes() as usize;
        let mut mem = BankedMemory::new(t);
        let mut model = vec![0u8; cap];
        for (pa, data) in &writes {
            let pa = *pa as usize % (cap - data.len());
            mem.write_bytes(&mapper, pa as u64, data).unwrap();
            model[pa..pa + data.len()].copy_from_slice(data);
        }
        assert_eq!(mem.read_bytes(&mapper, 0, cap).unwrap(), model);
    });
}

/// Parallel multi-channel scheduling is invisible in the results: for
/// any request stream, `run_with_threads(8)` produces exactly the
/// `SimResult` (and the same per-channel command logs) as a serial
/// `run_with_threads(1)`.
#[test]
fn parallel_run_is_bit_identical_to_serial() {
    cases(32, |g| {
        let entries = g.vec(1..200, timed_request);
        let spec = multi_spec();
        let mut serial = DramSystem::new(&spec);
        let mut parallel = DramSystem::new(&spec);
        serial.enable_logging();
        parallel.enable_logging();
        let mut arrival = 0u64;
        for (req, gap) in entries {
            arrival += gap;
            let req = req.at(arrival);
            serial.push(req);
            parallel.push(req);
        }
        let a = serial.run_with_threads(1);
        let b = parallel.run_with_threads(8);
        assert_eq!(a, b);
        assert_eq!(format!("{:?}", serial.logs()), format!("{:?}", parallel.logs()));
    });
}

/// Run `entries` through two [`DramSystem`]s that differ only in engine and
/// assert the [`facil_dram::SimResult`]s and per-channel command logs are
/// bit-identical. `workers` exercises the engine × thread-pool interaction.
fn assert_engines_identical(spec: &DramSpec, entries: &[(Request, u64)], workers: usize) {
    let mk = |engine| {
        let mut sys = DramSystem::with_config(spec, SchedConfig { engine });
        sys.enable_logging();
        let mut arrival = 0u64;
        for (req, gap) in entries {
            arrival += gap;
            let mut req = req.at(arrival);
            req.addr.channel %= spec.topology.channels;
            sys.push(req);
        }
        sys
    };
    let mut stepped = mk(EngineKind::Stepped);
    let mut event = mk(EngineKind::Event);
    let a = stepped.run_with_threads(workers);
    let b = event.run_with_threads(workers);
    assert_eq!(a, b);
    assert_eq!(format!("{:?}", stepped.logs()), format!("{:?}", event.logs()));
}

/// The engine-split invariant: for any request stream, channel count, and
/// `FACIL_THREADS`-style worker count, the next-event engine produces
/// exactly the `SimResult` and per-channel command logs of the
/// cycle-stepped reference.
#[test]
fn event_engine_is_bit_identical_to_stepped() {
    cases(24, |g| {
        let entries = g.vec(1..200, timed_request);
        let (bus_idx, eight_workers) = (g.usize(0..3), g.bool());
        // 16/32/64-bit bus = 1/2/4 channels; requests are generated against
        // the 4-channel topology and folded onto the smaller ones.
        let spec = DramSpec::lpddr5_6400([16u64, 32, 64][bus_idx], 1 << 30);
        let workers = if eight_workers { 8 } else { 1 };
        assert_engines_identical(&spec, &entries, workers);
    });
}

/// Same invariant under refresh pressure: tREFI shrunk to a few row
/// cycles so streams cross many refresh deadlines (including deadlines
/// inside long arrival gaps, the case a jumping engine is most likely
/// to get wrong).
#[test]
fn refresh_heavy_streams_are_engine_invariant() {
    cases(16, |g| {
        let entries = g.vec(1..120, timed_request);
        let gap_scale = [1u64, 64, 512][g.usize(0..3)];
        let mut spec = DramSpec::lpddr5_6400(32, 512 << 20); // 2 channels
        spec.timing.refi = 200; // ~30x the normal refresh pressure
        let entries: Vec<_> = entries.iter().map(|&(req, gap)| (req, gap * gap_scale)).collect();
        assert_engines_identical(&spec, &entries, 1);
    });
}

/// `reqs` moved onto `channel`.
fn on_channel(reqs: &[Request], channel: u64) -> Vec<Request> {
    reqs.iter().map(|&r| Request { addr: DramAddress { channel, ..r.addr }, ..r }).collect()
}

/// 1 to 48 random requests to `channel` of `multi_spec`, arriving mostly
/// back to back with an occasional idle gap.
fn channel_requests(g: &mut Gen, channel: u64) -> Vec<Request> {
    let t = multi_spec().topology;
    let mut arrival = 0;
    g.vec(1..48, |g| {
        arrival += if g.u64(0..16) == 0 { g.u64(0..600) } else { g.u64(0..6) };
        let req = request(g, &t).at(arrival);
        Request { addr: DramAddress { channel, ..req.addr }, ..req }
    })
}

/// Change one field of one of `reqs`, keeping arrivals non-decreasing (an
/// arrival change delays the last request).
fn change_one(g: &mut Gen, reqs: &mut [Request]) {
    let t = multi_spec().topology;
    let last = reqs.len() - 1;
    let r = &mut reqs[g.usize(0..=last)];
    match g.usize(0..5) {
        0 => r.op = if r.op == Op::Read { Op::Write } else { Op::Read },
        1 => r.addr.bank = (r.addr.bank + 1) % t.banks(),
        2 => r.addr.row = (r.addr.row + 1) % 64,
        3 => r.addr.column = (r.addr.column + 1) % t.columns(),
        _ => reqs[last].arrival += g.u64(1..600),
    }
}

/// Stats and per-channel command logs after each phase, when a logging
/// system pushes each phase's requests and then runs.
fn run_phases(
    spec: &DramSpec,
    engine: EngineKind,
    workers: usize,
    phases: &[Vec<Request>],
) -> Vec<(DramStats, Vec<Vec<LoggedCommand>>)> {
    let mut sys = DramSystem::with_config(spec, SchedConfig { engine });
    sys.enable_logging();
    phases
        .iter()
        .map(|reqs| {
            reqs.iter().for_each(|&r| sys.push(r));
            let stats = sys.run_with_threads(workers).stats;
            (stats, sys.logs().iter().map(|log| log.to_vec()).collect())
        })
        .collect()
}

/// Twin channels, simulated once and copied, are invisible in the results:
/// whether a channel copies an earlier channel's requests, copies them with
/// one request changed, queues none or draws its own, the merged stats and
/// every channel's log equal those of systems that queue one channel's
/// requests each. A second phase then queues one stream on every channel,
/// so channels whose first runs differed queue the same requests and must
/// still schedule them from their own histories.
#[test]
fn twin_channels_run_as_channels_run_alone() {
    let mut spec = multi_spec();
    spec.timing.refi = 200;
    let channels = spec.topology.channels;
    cases(16, |g| {
        let mut first: Vec<Vec<Request>> = Vec::new();
        for c in 0..channels {
            let reqs = match g.usize(0..4) {
                kind @ (0 | 1) if c > 0 => {
                    let mut reqs = on_channel(&first[g.usize(0..c as usize)], c);
                    if kind == 1 && !reqs.is_empty() {
                        change_one(g, &mut reqs);
                    }
                    reqs
                }
                2 => Vec::new(),
                _ => channel_requests(g, c),
            };
            first.push(reqs);
        }
        let again = channel_requests(g, 0);
        let then: Vec<Vec<Request>> = (0..channels).map(|c| on_channel(&again, c)).collect();
        for engine in [EngineKind::Stepped, EngineKind::Event] {
            let alone: Vec<_> = (0..channels as usize)
                .map(|c| run_phases(&spec, engine, 1, &[first[c].clone(), then[c].clone()]))
                .collect();
            for workers in [1, 4] {
                let together = run_phases(&spec, engine, workers, &[first.concat(), then.concat()]);
                for (phase, (stats, logs)) in together.iter().enumerate() {
                    let mut merged = DramStats::default();
                    for (c, runs) in alone.iter().enumerate() {
                        merged.merge(&runs[phase].0);
                        assert_eq!(
                            logs[c], runs[phase].1[c],
                            "{engine}, {workers} workers, phase {phase}, channel {c}"
                        );
                    }
                    assert_eq!(*stats, merged, "{engine}, {workers} workers, phase {phase}");
                }
            }
        }
    });
}

/// Cross-check: every command stream the scheduler emits passes the
/// independent JEDEC-legality verifier (a second implementation of the
/// timing rules).
#[test]
fn scheduler_output_is_jedec_legal() {
    cases(48, |g| {
        let reqs = channel_stream(g, 1..150);
        let spec = small_spec();
        let (_, log) = run_logged(reqs);
        let t = spec.topology;
        let violations =
            facil_dram::verify_log(&log, &spec.timing, t.ranks, t.banks(), t.banks_per_group);
        assert!(violations.is_empty(), "violations: {violations:?}");
    });
}

/// Negative testing of the verifier itself: pulling any ACT/RD/WR/PRE of
/// a legal log earlier by a large margin must produce a violation —
/// i.e. the verifier actually checks something on realistic streams.
#[test]
fn verifier_catches_injected_violations() {
    cases(32, |g| {
        let reqs = channel_stream(g, 8..64);
        let victim_frac = g.f64(0.0..1.0);
        let spec = small_spec();
        let (_, mut log) = run_logged(reqs);
        let t = spec.topology;
        // Pick a victim command that is not the first and yank it to cycle 0.
        let idx = 1 + ((log.len() - 1) as f64 * victim_frac) as usize % (log.len() - 1);
        if log[idx].cycle == 0 {
            return;
        }
        log[idx].cycle = 0;
        let sorted = {
            let mut l = log.clone();
            l.sort_by_key(|c| c.cycle);
            l
        };
        let violations =
            facil_dram::verify_log(&sorted, &spec.timing, t.ranks, t.banks(), t.banks_per_group);
        assert!(!violations.is_empty(), "moving command {idx} to cycle 0 must violate something");
    });
}
