//! Multi-channel DRAM backend: distributes decoded requests to per-channel
//! FR-FCFS schedulers and aggregates statistics.

use std::collections::BTreeMap;
use std::sync::Arc;

use facil_telemetry::{pool, ArgValue, TraceSink, TrackId};

use crate::channel::{ChannelCore, SchedConfig};
use crate::command::{CommandKind, Request};
use crate::spec::DramSpec;
use crate::stats::{DramStats, SimResult};

/// Multi-channel DRAM memory system.
///
/// Channels are independent in LPDDR5; each channel's request sub-stream is
/// scheduled in isolation and the elapsed time of the whole stream is the
/// maximum over channels. [`DramSystem::run`] schedules the channels on the
/// [`pool`] worker threads (`FACIL_THREADS`), merging per-channel stats in
/// channel index order so the result is bit-identical to a serial run.
#[derive(Debug)]
pub struct DramSystem {
    spec: Arc<DramSpec>,
    channels: Vec<ChannelCore>,
    cfg: SchedConfig,
}

impl DramSystem {
    /// Create a backend for `spec` with default scheduler parameters (the
    /// engine honors `FACIL_DRAM_ENGINE`, see
    /// [`crate::EngineKind::default_kind`]). The spec is stored once
    /// behind an [`Arc`] and shared by every channel scheduler.
    pub fn new(spec: &DramSpec) -> Self {
        Self::with_config(spec, SchedConfig::default())
    }

    /// Create a backend for `spec` with explicit scheduler parameters —
    /// in particular an explicit [`crate::EngineKind`], which is how the
    /// perf gates pit the engines against each other on identical streams.
    pub fn with_config(spec: &DramSpec, cfg: SchedConfig) -> Self {
        let spec = Arc::new(spec.clone());
        let channels =
            (0..spec.topology.channels).map(|_| ChannelCore::new(Arc::clone(&spec))).collect();
        DramSystem { spec, channels, cfg }
    }

    /// Specification this system was built from.
    pub fn spec(&self) -> &DramSpec {
        &self.spec
    }

    /// Scheduler parameters every channel runs with.
    pub fn config(&self) -> SchedConfig {
        self.cfg
    }

    /// Enable command logging on every channel (see
    /// [`crate::verifylog`]).
    pub fn enable_logging(&mut self) {
        for ch in &mut self.channels {
            ch.enable_logging();
        }
    }

    /// Per-channel command logs, if logging was enabled.
    pub fn logs(&self) -> Vec<&[crate::verifylog::LoggedCommand]> {
        self.channels.iter().filter_map(|c| c.log()).collect()
    }

    /// Enqueue a decoded request on its target channel.
    ///
    /// # Panics
    ///
    /// Panics if any field of the address is out of range for the
    /// topology, or if the request arrives before a request still queued
    /// on its channel (each channel's arrivals must be non-decreasing).
    pub fn push(&mut self, req: Request) {
        let (addr, topology) = (req.addr, &self.spec.topology);
        assert!(addr.is_valid(topology), "DRAM address {addr} out of range for {topology:?}");
        let ch = &mut self.channels[addr.channel as usize];
        let last = ch.last_arrival().unwrap_or(0);
        assert!(
            req.arrival >= last,
            "request to {addr} arrives at cycle {}, before a request queued at cycle {last}",
            req.arrival
        );
        ch.push(req);
    }

    /// Total requests still queued across channels.
    pub fn pending(&self) -> usize {
        self.channels.iter().map(|c| c.pending()).sum()
    }

    /// Convert the captured command logs into trace spans on `sink`, one
    /// track per bank (`ch{c}/r{r}/b{b}`) plus one refresh track per rank,
    /// all under the `dram` process group.
    ///
    /// Requires [`DramSystem::enable_logging`] before [`DramSystem::run`];
    /// without logs (or with a disabled sink) this is a no-op. Spans are
    /// placed at the *data/occupancy* phase each command implies: ACT
    /// covers tRCD, RD/WR cover their burst after CL/CWL, PRE covers tRP,
    /// and REFab covers tRFCab.
    pub fn export_trace<S: TraceSink>(&self, sink: &mut S) {
        if !sink.enabled() {
            return;
        }
        let t = &self.spec.timing;
        for (c, ch) in self.channels.iter().enumerate() {
            let Some(log) = ch.log() else { continue };
            let mut bank_tracks: BTreeMap<(u64, u64), TrackId> = BTreeMap::new();
            let mut refresh_tracks: BTreeMap<u64, TrackId> = BTreeMap::new();
            for cmd in log {
                let ns = |cycles: u64| self.spec.cycles_to_ns(cycles);
                match cmd.kind {
                    CommandKind::RefAb => {
                        let track = *refresh_tracks.entry(cmd.rank).or_insert_with(|| {
                            sink.track("dram", &format!("ch{c}/r{}/refresh", cmd.rank))
                        });
                        sink.complete(track, "REFab", ns(cmd.cycle), ns(t.rfc_ab), &[]);
                    }
                    kind => {
                        let track = *bank_tracks.entry((cmd.rank, cmd.bank)).or_insert_with(|| {
                            sink.track("dram", &format!("ch{c}/r{}/b{}", cmd.rank, cmd.bank))
                        });
                        let (name, start, dur, arg_key) = match kind {
                            CommandKind::Act => ("ACT", cmd.cycle, t.rcd, "row"),
                            CommandKind::Rd => ("RD", cmd.cycle + t.cl, t.burst_cycles, "col"),
                            CommandKind::Wr => ("WR", cmd.cycle + t.cwl, t.burst_cycles, "col"),
                            CommandKind::Pre => ("PRE", cmd.cycle, t.rp, "bank"),
                            CommandKind::RefAb => unreachable!("handled above"),
                        };
                        let arg_val = if kind == CommandKind::Pre { cmd.bank } else { cmd.arg };
                        sink.complete(
                            track,
                            name,
                            ns(start),
                            ns(dur),
                            &[(arg_key, ArgValue::U64(arg_val))],
                        );
                    }
                }
            }
        }
    }

    /// Schedule every queued request to completion, running channels on the
    /// configured [`pool::parallelism`] worker count.
    pub fn run(&mut self) -> SimResult {
        self.run_with_threads(pool::parallelism())
    }

    /// [`DramSystem::run`] with an explicit worker count (`1` = serial).
    ///
    /// Channels are independent, so any worker count produces the same
    /// [`SimResult`]: per-channel stats are merged in channel index order
    /// after all channels finish.
    ///
    /// Twin channels are simulated once. A channel that has not run yet
    /// and queues an earlier such channel's requests in every field but
    /// the channel, with logging alike, does not run: it takes a copy of
    /// that channel's finished scheduler. No scheduling decision reads the
    /// channel, so the copy is the schedule the twin would have produced,
    /// and its stats and command log are bit for bit its own. A sequential
    /// window under a FACIL mapping reaches every channel as one stream.
    ///
    /// Nesting-safe: when reached from inside an already-parallel region
    /// (e.g. a fleet/cluster tick advancing devices on the pool workers,
    /// one of which lazily profiles a relayout through `DramSystem`), the
    /// calling worker runs the channels inline rather than oversubscribing
    /// or deadlocking the executor — with, again, the same `SimResult`.
    pub fn run_with_threads(&mut self, workers: usize) -> SimResult {
        let engine = self.cfg.engine;
        let twin_of = self.twin_of();
        let mut runs: Vec<&mut ChannelCore> = self
            .channels
            .iter_mut()
            .zip(&twin_of)
            .filter_map(|(ch, twin)| twin.is_none().then_some(ch))
            .collect();
        pool::par_map_mut_with(workers, &mut runs, |ch| ch.run(engine));
        for (c, twin) in twin_of.into_iter().enumerate() {
            if let Some(leader) = twin {
                self.channels[c] = self.channels[leader].clone();
            }
        }
        let mut stats = DramStats::default();
        for ch in &self.channels {
            stats.merge(ch.stats());
        }
        let elapsed_ns = self.spec.cycles_to_ns(stats.finish_cycle);
        let bytes = stats.bytes(self.spec.topology.transfer_bytes);
        let bandwidth = if elapsed_ns > 0.0 { bytes as f64 / (elapsed_ns * 1e-9) } else { 0.0 };
        SimResult { stats, elapsed_ns, bandwidth_bytes_per_sec: bandwidth }
    }

    /// For each channel, the first earlier channel it twins (see
    /// [`ChannelCore::twins`]); a twin is never itself a leader.
    fn twin_of(&self) -> Vec<Option<usize>> {
        let mut leaders = Vec::new();
        (0..self.channels.len())
            .map(|c| {
                let twin =
                    leaders.iter().copied().find(|&l| self.channels[c].twins(&self.channels[l]));
                if twin.is_none() {
                    leaders.push(c);
                }
                twin
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::DramAddress;

    #[test]
    fn channels_run_concurrently() {
        let spec = DramSpec::lpddr5_6400(32, 512 << 20); // 2 channels
        let mut sys = DramSystem::new(&spec);
        let n = 256;
        for c in 0..2u64 {
            for i in 0..n {
                let addr = DramAddress {
                    channel: c,
                    rank: 0,
                    bank: 0,
                    row: i / spec.topology.columns(),
                    column: i % spec.topology.columns(),
                };
                sys.push(Request::read(addr));
            }
        }
        let two_ch = sys.run();

        let mut sys1 = DramSystem::new(&spec);
        for i in 0..n {
            let addr = DramAddress {
                channel: 0,
                rank: 0,
                bank: 0,
                row: i / spec.topology.columns(),
                column: i % spec.topology.columns(),
            };
            sys1.push(Request::read(addr));
        }
        let one_ch = sys1.run();

        // Twice the data over two channels should take (almost) the same
        // time as half the data over one.
        assert!((two_ch.elapsed_ns - one_ch.elapsed_ns).abs() / one_ch.elapsed_ns < 0.05);
        assert!(two_ch.bandwidth_bytes_per_sec > 1.9 * one_ch.bandwidth_bytes_per_sec);
    }

    const ORIGIN: DramAddress = DramAddress { channel: 0, rank: 0, bank: 0, row: 0, column: 0 };

    /// Push `reqs` onto the 1-channel test system: 2 ranks of 16 banks,
    /// 4,096 rows of 64 columns.
    fn push_all(reqs: impl IntoIterator<Item = Request>) {
        let mut sys = DramSystem::new(&DramSpec::lpddr5_6400(16, 256 << 20));
        reqs.into_iter().for_each(|r| sys.push(r));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_channel() {
        push_all([Request::read(DramAddress { channel: 5, ..ORIGIN })]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_rank() {
        push_all([Request::read(DramAddress { rank: 2, ..ORIGIN })]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_bank() {
        push_all([Request::read(DramAddress { bank: 16, ..ORIGIN })]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_row() {
        push_all([Request::read(DramAddress { row: 4_096, ..ORIGIN })]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_column() {
        push_all([Request::read(DramAddress { column: 64, ..ORIGIN })]);
    }

    #[test]
    #[should_panic(expected = "arrives at cycle 0, before")]
    fn rejects_out_of_order_arrival() {
        push_all([Request::read(ORIGIN).at(1_000), Request::read(ORIGIN).at(0)]);
    }

    #[test]
    fn system_logging_covers_all_channels() {
        let spec = DramSpec::lpddr5_6400(32, 512 << 20); // 2 channels
        let mut sys = DramSystem::new(&spec);
        sys.enable_logging();
        for c in 0..2u64 {
            sys.push(Request::read(DramAddress {
                channel: c,
                rank: 0,
                bank: 0,
                row: 0,
                column: 0,
            }));
        }
        sys.run();
        let logs = sys.logs();
        assert_eq!(logs.len(), 2);
        for log in logs {
            // ACT + RD per channel.
            assert_eq!(log.len(), 2);
        }
    }

    #[test]
    fn export_trace_lays_out_banks_as_tracks() {
        use facil_telemetry::RingSink;

        let spec = DramSpec::lpddr5_6400(32, 512 << 20); // 2 channels
        let mut sys = DramSystem::new(&spec);
        sys.enable_logging();
        for c in 0..2u64 {
            for col in 0..2u64 {
                sys.push(Request::read(DramAddress {
                    channel: c,
                    rank: 0,
                    bank: c, // distinct banks so each channel owns a track
                    row: 0,
                    column: col,
                }));
            }
        }
        sys.run();
        let mut sink = RingSink::new(64);
        sys.export_trace(&mut sink);
        // Per channel: 1 ACT + 2 RD.
        assert_eq!(sink.len(), 6);
        let json = sink.to_chrome_json();
        assert!(json.contains(r#""name":"ch0/r0/b0""#));
        assert!(json.contains(r#""name":"ch1/r0/b1""#));
        assert!(json.contains(r#""name":"ACT""#));
        assert!(json.contains(r#""name":"RD""#));
        // RD data phase starts CL after the issue cycle, after the ACT span.
        let act_ns = spec.cycles_to_ns(spec.timing.rcd);
        assert!(sink.events().any(|e| e.name == "RD" && e.ts_ns >= act_ns));
    }

    #[test]
    fn export_trace_without_logging_is_empty() {
        use facil_telemetry::{NullSink, RingSink};

        let spec = DramSpec::lpddr5_6400(16, 256 << 20);
        let mut sys = DramSystem::new(&spec);
        sys.push(Request::read(DramAddress { channel: 0, rank: 0, bank: 0, row: 0, column: 0 }));
        sys.run();
        let mut sink = RingSink::new(16);
        sys.export_trace(&mut sink); // logging never enabled
        assert!(sink.is_empty());
        sys.export_trace(&mut NullSink); // disabled sink: no-op either way
    }

    // The telemetry contract of the engine split: per-bank and refresh
    // trace tracks are byte-identical whether the engine stepped through or
    // jumped over a long arrival gap (the gap spans several tREFI periods,
    // so refresh spans must land on their deadlines, not on visit times).
    #[test]
    fn trace_tracks_survive_time_jumps() {
        use crate::EngineKind;
        use facil_telemetry::RingSink;

        let spec = DramSpec::lpddr5_6400(16, 256 << 20); // 1 channel
        let gap = 4 * spec.timing.refi + 17;
        let json = |engine: EngineKind| {
            let mut sys = DramSystem::with_config(&spec, SchedConfig { engine });
            sys.enable_logging();
            for (i, at) in [0, 0, gap, gap + 3].into_iter().enumerate() {
                sys.push(
                    Request::read(DramAddress {
                        channel: 0,
                        rank: 0,
                        bank: i as u64 % 2,
                        row: i as u64,
                        column: 0,
                    })
                    .at(at),
                );
            }
            sys.run_with_threads(1);
            let mut sink = RingSink::new(256);
            sys.export_trace(&mut sink);
            sink.to_chrome_json()
        };
        let stepped = json(EngineKind::Stepped);
        let event = json(EngineKind::Event);
        assert!(stepped.contains(r#""name":"REFab""#), "gap must cross refresh deadlines");
        assert_eq!(stepped, event);
    }

    #[test]
    fn with_config_selects_engine_and_reports_it() {
        use crate::EngineKind;

        let spec = DramSpec::lpddr5_6400(16, 256 << 20);
        let sys = DramSystem::with_config(&spec, SchedConfig { engine: EngineKind::Stepped });
        assert_eq!(sys.config().engine, EngineKind::Stepped);
        assert_eq!(DramSystem::new(&spec).config(), SchedConfig::default());
    }

    #[test]
    fn empty_run_is_zero() {
        let spec = DramSpec::lpddr5_6400(16, 256 << 20);
        let mut sys = DramSystem::new(&spec);
        let r = sys.run();
        assert_eq!(r.stats.reads, 0);
        assert_eq!(r.elapsed_ns, 0.0);
        assert_eq!(sys.pending(), 0);
    }
}
