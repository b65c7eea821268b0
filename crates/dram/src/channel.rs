//! FR-FCFS scheduler for a single DRAM channel.
//!
//! Channels in an LPDDR5 system are fully independent (separate command and
//! data pins), so the multi-channel controller simulates each channel's
//! request stream in isolation and merges the statistics — serially or on
//! the [`facil_telemetry::pool`] workers, with identical results.
//!
//! The *scheduling decision* and the *advance of simulated time* are
//! separated: [`ChannelCore`] owns the bank/rank state machines, the
//! request queue and the one-step decision procedure
//! ([`ChannelCore::decide`]), while the drive loop of the configured
//! [`EngineKind`] decides which cycles to visit. The cycle-stepped
//! reference visits every DRAM clock; the default event engine jumps
//! straight to the next actionable cycle (see [`crate::engine`]). Both
//! produce bit-identical command streams and [`DramStats`] —
//! property-tested in `tests/properties.rs`
//! (`event_engine_is_bit_identical_to_stepped`) and pinned in
//! `tests/pinned.rs`.
//!
//! A decision reads the lookahead window and nothing else. The window holds
//! the oldest [`WINDOW`] queued requests in arrival order and is refilled
//! from the queue as column commands complete, so no decision walks
//! completed requests or rebuilds the window. A decision is two passes over
//! the window's arrived requests: row hits, then one ACT or PRE candidate
//! per bank, marked in a per-bank stamp array instead of a per-step hash
//! set. It allocates nothing.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::addr::DramAddress;
use crate::bank::{BankState, RankState};
use crate::command::{CommandKind, Op, Request};
use crate::engine::EngineKind;
use crate::spec::DramSpec;
use crate::stats::DramStats;
use crate::verifylog::LoggedCommand;

/// How many queued requests the scheduler may look ahead when reordering
/// (models a finite command queue and bounds FR-FCFS starvation).
const WINDOW: usize = 32;

/// Scheduler parameters of a [`crate::DramSystem`].
///
/// The scheduler itself is fixed: FR-FCFS over a 32-request lookahead
/// window with an open-page row policy, the controller the paper's
/// DRAMsim-derived simulator models. Only the simulation engine is
/// selectable, and it never changes a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Simulation engine driving the scheduler (cycle-stepped reference or
    /// next-event). The default honors the `FACIL_DRAM_ENGINE` environment
    /// variable (see [`EngineKind::default_kind`]); results are
    /// bit-identical either way, only wall-clock differs.
    pub engine: EngineKind,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig { engine: EngineKind::default_kind() }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Touch {
    Miss,
    Conflict,
}

/// A request in the lookahead window.
#[derive(Debug, Clone, Copy)]
struct Pending {
    req: Request,
    /// `None` (a row hit) until an ACT (a miss) or a PRE (a conflict)
    /// issues on this request's behalf.
    touch: Option<Touch>,
}

/// Outcome of one scheduling decision at the current cycle (see
/// [`ChannelCore::decide`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decision {
    /// A command was issued; the clock has advanced one cycle past the
    /// issue slot (commands occupy the command bus for a cycle).
    Issued,
    /// No command is legal at the current cycle. The fields bound when the
    /// decision could change; until the earliest of them (or the next
    /// refresh deadline, [`ChannelCore::next_refresh_deadline`]) the
    /// decision at every intervening cycle is provably this same
    /// `Blocked` — which is what lets the event engine skip those cycles.
    Blocked {
        /// Earliest ready cycle among the current command candidates.
        next_ready: Option<u64>,
        /// Arrival cycle of the first not-yet-arrived request in the
        /// lookahead window (arrivals are globally non-decreasing, so no
        /// earlier request can appear).
        next_arrival: Option<u64>,
    },
}

/// Scheduling state of one DRAM channel: bank/rank timing state machines,
/// the request queue and its lookahead window, statistics and the command
/// log.
///
/// Both drive loops of [`crate::engine`] run the core to completion
/// through this visiting contract, which is what makes them agree:
///
/// 1. per visited cycle, call [`ChannelCore::reclaim`], then
///    [`ChannelCore::service_refresh`], then [`ChannelCore::decide`];
/// 2. advance the clock only forward ([`ChannelCore::advance_to`] /
///    [`ChannelCore::tick`]), and never skip a cycle at which the decision
///    could differ: the next refresh deadline and the bounds returned by
///    [`Decision::Blocked`] must all cap the jump;
/// 3. stop once [`ChannelCore::pending`] reaches zero.
///
/// No decision, refresh or log entry reads a request's channel: decisions
/// read its rank, bank, row, column, op and arrival, and a
/// [`LoggedCommand`] has no channel field. Two cores that start alike and
/// queue the same requests but for the channel therefore finish in the same
/// state, which is what lets [`crate::DramSystem`] run one of them and hand
/// the other a clone (see [`ChannelCore::twins`]).
///
/// Neighbouring channels of a [`crate::DramSystem`] run at the same time
/// on pool workers, so each `ChannelCore` is aligned to 128 bytes (the
/// line pair adjacent-line prefetchers fetch together): one channel's
/// clock and counters never share a cache line with the next channel's.
#[derive(Debug, Clone)]
#[repr(align(128))]
pub(crate) struct ChannelCore {
    spec: Arc<DramSpec>,
    banks: Vec<Vec<BankState>>,
    ranks: Vec<RankState>,
    bus_busy_until: u64,
    last_data_end: u64,
    last_was_write: bool,
    now: u64,
    /// Queued requests that have not entered the window yet, in arrival
    /// order. Requests complete only from the window, so all are live.
    queue: VecDeque<Request>,
    /// The lookahead window: the oldest live requests, at most [`WINDOW`],
    /// in arrival order.
    window: Vec<Pending>,
    stats: DramStats,
    log: Option<Vec<LoggedCommand>>,
    /// Per-(rank, bank) stamps: a bank is marked in the current decision
    /// iff its stamp equals `stamp`.
    bank_stamp: Vec<u64>,
    /// Current decision's stamp (incremented every decision; never reset).
    stamp: u64,
}

impl ChannelCore {
    /// A core for one channel of `spec`. The multi-channel
    /// [`crate::DramSystem`] hands every channel the same [`Arc`] instead
    /// of deep-cloning the spec per channel.
    pub(crate) fn new(spec: Arc<DramSpec>) -> Self {
        let topo = spec.topology;
        let banks: Vec<Vec<BankState>> = (0..topo.ranks)
            .map(|_| (0..topo.banks()).map(|_| BankState::new()).collect())
            .collect();
        let ranks = (0..topo.ranks)
            .map(|_| RankState::new(topo.bank_groups as usize, spec.timing.refi))
            .collect();
        let total_banks = (topo.ranks * topo.banks()) as usize;
        ChannelCore {
            spec,
            banks,
            ranks,
            bus_busy_until: 0,
            last_data_end: 0,
            last_was_write: false,
            now: 0,
            queue: VecDeque::new(),
            window: Vec::with_capacity(WINDOW),
            stats: DramStats::default(),
            log: None,
            bank_stamp: vec![0; total_banks],
            stamp: 0,
        }
    }

    fn record(&mut self, kind: CommandKind, rank: u64, bank: u64, arg: u64) {
        if let Some(log) = &mut self.log {
            log.push(LoggedCommand { cycle: self.now, kind, rank, bank, arg });
        }
    }

    /// Enqueue a request. [`crate::DramSystem::push`] has checked its
    /// address and that it arrives no earlier than [`Self::last_arrival`].
    pub(crate) fn push(&mut self, req: Request) {
        self.queue.push_back(req);
    }

    /// Arrival cycle of the youngest queued request, if any.
    pub(crate) fn last_arrival(&self) -> Option<u64> {
        self.queue.back().or(self.window.last().map(|p| &p.req)).map(|r| r.arrival)
    }

    /// Whether this core, run now, would finish in exactly the state
    /// `leader` finishes in. Neither has run yet (a core still at cycle 0
    /// has issued no command, so it holds its initial state), both log or
    /// neither does, and both queue the same non-empty requests in every
    /// field but the channel. Queue lengths are compared first, then the
    /// requests up to the first difference.
    pub(crate) fn twins(&self, leader: &ChannelCore) -> bool {
        let same = |a: &Request, b: &Request| {
            Request { addr: DramAddress { channel: b.addr.channel, ..a.addr }, ..*a } == *b
        };
        self.now == 0
            && leader.now == 0
            && self.log.is_some() == leader.log.is_some()
            && !self.queue.is_empty()
            && self.queue.len() == leader.queue.len()
            && self.queue.iter().zip(&leader.queue).all(|(a, b)| same(a, b))
    }

    /// Number of requests still queued. A drive loop runs until this
    /// reaches zero.
    pub(crate) fn pending(&self) -> usize {
        self.window.len() + self.queue.len()
    }

    /// Current simulated cycle.
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// Arrival cycle of the oldest live request.
    ///
    /// While `now` is before this cycle the channel holds no arrived work
    /// at all, so no command can issue and refresh deadlines passed in the
    /// gap may be caught up lazily (their effect is deadline-derived, see
    /// [`ChannelCore::service_refresh`]) — the event engine uses this to
    /// jump over idle spans in one assignment.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty; callers check
    /// [`ChannelCore::pending`] and call [`ChannelCore::reclaim`] first.
    pub(crate) fn first_live_arrival(&self) -> u64 {
        self.window[0].req.arrival
    }

    /// Advance the clock by one cycle.
    pub(crate) fn tick(&mut self) {
        self.now += 1;
    }

    /// Jump the clock forward to `target`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `target` is in the past — engines must
    /// always make forward progress.
    pub(crate) fn advance_to(&mut self, target: u64) {
        debug_assert!(target >= self.now, "clock must advance monotonically");
        self.now = target;
    }

    /// Earliest tREFI deadline over all ranks, if refresh is enabled.
    ///
    /// An engine may never jump past this cycle: an all-bank refresh
    /// closes open rows, which can turn a far-future row-hit candidate
    /// into a much earlier activate (so skipping the deadline would skip
    /// an actionable cycle).
    pub(crate) fn next_refresh_deadline(&self) -> Option<u64> {
        let min = self.ranks.iter().map(|r| r.next_ref).min().unwrap_or(u64::MAX);
        (min != u64::MAX).then_some(min)
    }

    /// Earliest cycle a column command for `op` may issue to `(rank, bank)`,
    /// including data-bus occupancy and read/write turnaround.
    fn column_ready(&self, rank: usize, bank: usize, op: Op) -> u64 {
        let tm = &self.spec.timing;
        let b = &self.banks[rank][bank];
        let (cmd_ready, lat) = match op {
            Op::Read => (b.next_rd, tm.cl),
            Op::Write => (b.next_wr, tm.cwl),
        };
        let mut data_ok = self.bus_busy_until;
        let turnaround = match (self.last_was_write, op) {
            (true, Op::Read) => tm.wtr,
            (false, Op::Write) => tm.rtw,
            _ => 0,
        };
        if self.stats.reads + self.stats.writes > 0 {
            data_ok = data_ok.max(self.last_data_end + turnaround);
        }
        cmd_ready.max(data_ok.saturating_sub(lat))
    }

    /// Service every rank whose tREFI deadline has passed.
    ///
    /// The refresh schedule is *deadline-exact*: the implicit all-bank
    /// precharge starts at `max(deadline, open banks' next_pre)` — derived
    /// from the tREFI deadline and the bank state machines, never from the
    /// cycle at which the engine happened to call this. A cycle-stepping
    /// engine (which observes the deadline on the cycle it falls) and an
    /// event engine (which may observe it late, after a jump) therefore
    /// produce the same `RefAb` log cycle and the same post-refresh bank
    /// state. No command can have issued between the deadline and the
    /// observation: engines service refresh before every decision, so the
    /// bank state still is the state at the deadline.
    pub(crate) fn service_refresh(&mut self) {
        let tm = self.spec.timing;
        // Service overdue deadlines in global (deadline, rank) order — NOT
        // rank-by-rank. A cycle-stepped driver visits every cycle and so
        // naturally interleaves ranks by deadline; an event driver may
        // observe several elapsed tREFI periods at once, and a per-rank
        // catch-up loop would then log all of rank 0's refreshes before
        // rank 1's, breaking log equality between the engines.
        loop {
            let mut best: Option<(u64, usize)> = None;
            for (r, rank) in self.ranks.iter().enumerate() {
                if rank.next_ref <= self.now && best.is_none_or(|(due, _)| rank.next_ref < due) {
                    best = Some((rank.next_ref, r));
                }
            }
            let Some((due, r)) = best else { break };
            // Close all open banks (implicit PREab once legal), then hold
            // the rank for tRFCab.
            let mut close_at = due;
            for b in &self.banks[r] {
                if b.open_row.is_some() {
                    close_at = close_at.max(b.next_pre);
                }
            }
            let ref_done = close_at + tm.rp + tm.rfc_ab;
            for b in &mut self.banks[r] {
                if b.open_row.is_some() {
                    b.open_row = None;
                }
                b.next_act = b.next_act.max(ref_done);
            }
            self.stats.refreshes += 1;
            if let Some(log) = &mut self.log {
                log.push(LoggedCommand {
                    cycle: close_at + tm.rp,
                    kind: CommandKind::RefAb,
                    rank: r as u64,
                    bank: 0,
                    arg: 0,
                });
            }
            self.ranks[r].next_ref += tm.refi;
        }
    }

    /// Refill the window: move queued requests, oldest first, into the
    /// slots that completed requests freed (on the first visit, into the
    /// empty window).
    pub(crate) fn reclaim(&mut self) {
        while self.window.len() < WINDOW {
            let Some(req) = self.queue.pop_front() else { break };
            self.window.push(Pending { req, touch: None });
        }
    }

    /// One scheduling decision at the current cycle: issue the best legal
    /// command (FR-FCFS: row-hit columns, then activates, then precharges;
    /// oldest wins ties) or report why nothing can issue.
    ///
    /// Pure in simulated time: the only clock movement is the one-cycle
    /// command-bus slot consumed by an issued command. How the clock moves
    /// between decisions is entirely the drive loop's business.
    pub(crate) fn decide(&mut self) -> Decision {
        debug_assert!(!self.window.is_empty());
        let now = self.now;
        let per_rank = self.spec.topology.banks() as usize;
        self.stamp += 1;
        let mut next_ready = u64::MAX;

        // Pass 1, row hits, up to the first request that has not arrived
        // (arrivals are in order, so no later one has either). The first
        // ready hit is the oldest ready hit and issues at once. Every other
        // arrived hit marks its bank: FR-FCFS serves hits before closing.
        let mut arrived = self.window.len();
        for i in 0..self.window.len() {
            let Request { addr, op, arrival } = self.window[i].req;
            if arrival > now {
                arrived = i;
                break;
            }
            let (rank, bank) = (addr.rank as usize, addr.bank as usize);
            if self.banks[rank][bank].open_row == Some(addr.row) {
                let ready = self.column_ready(rank, bank, op);
                if ready <= now {
                    return self.issue_column(i);
                }
                next_ready = next_ready.min(ready);
                self.bank_stamp[rank * per_rank + bank] = self.stamp;
            }
        }

        // Pass 2, bank commands: the oldest arrived request of every bank
        // not marked yet (by a hit, or by the bank's own candidate) is that
        // bank's candidate, an ACT if the bank is closed and otherwise a
        // PRE. The first ready ACT issues at once; the first ready PRE
        // issues if no ACT is ready.
        let mut precharge = None;
        for i in 0..arrived {
            let addr = self.window[i].req.addr;
            let (rank, bank) = (addr.rank as usize, addr.bank as usize);
            let stamp = &mut self.bank_stamp[rank * per_rank + bank];
            if *stamp == self.stamp {
                continue;
            }
            *stamp = self.stamp;
            let b = &self.banks[rank][bank];
            let closed = b.open_row.is_none();
            let ready = if closed {
                let group = bank / self.spec.topology.banks_per_group as usize;
                b.next_act.max(self.ranks[rank].act_ready(group, &self.spec.timing))
            } else {
                b.next_pre
            };
            if ready > now {
                next_ready = next_ready.min(ready);
            } else if closed {
                return self.issue_activate(i);
            } else {
                precharge.get_or_insert(i);
            }
        }
        match precharge {
            Some(i) => self.issue_precharge(i),
            None => Decision::Blocked {
                next_ready: (next_ready != u64::MAX).then_some(next_ready),
                next_arrival: self.window.get(arrived).map(|p| p.req.arrival),
            },
        }
    }

    /// Issue window slot `i`'s read or write and retire the request.
    fn issue_column(&mut self, i: usize) -> Decision {
        let tm = self.spec.timing;
        let Pending { req, touch } = self.window.remove(i);
        let (rank, bank) = (req.addr.rank as usize, req.addr.bank as usize);
        let (lat, kind) = match req.op {
            Op::Read => {
                self.banks[rank][bank].read(self.now, &tm);
                self.stats.reads += 1;
                (tm.cl, CommandKind::Rd)
            }
            Op::Write => {
                self.banks[rank][bank].write(self.now, &tm);
                self.stats.writes += 1;
                (tm.cwl, CommandKind::Wr)
            }
        };
        self.record(kind, req.addr.rank, req.addr.bank, req.addr.column);
        let data_start = self.now + lat;
        debug_assert!(data_start >= self.bus_busy_until);
        let data_end = data_start + tm.burst_cycles;
        self.bus_busy_until = data_end;
        self.last_data_end = data_end;
        self.last_was_write = req.op == Op::Write;
        match touch {
            None => self.stats.row_hits += 1,
            Some(Touch::Miss) => self.stats.row_misses += 1,
            Some(Touch::Conflict) => self.stats.row_conflicts += 1,
        }
        // Busy time is derived from the command's own data phase — bursts
        // never overlap (`bus_busy_until` forbids it), so the sum over
        // commands is exact whether the engine stepped through the burst
        // or jumped over it.
        self.stats.busy_cycles += tm.burst_cycles;
        self.stats.finish_cycle = self.stats.finish_cycle.max(data_end);
        self.now += 1;
        Decision::Issued
    }

    /// Issue an ACT to the row of window slot `i`'s request.
    fn issue_activate(&mut self, i: usize) -> Decision {
        let addr = self.window[i].req.addr;
        let (rank, bank) = (addr.rank as usize, addr.bank as usize);
        let group = bank / self.spec.topology.banks_per_group as usize;
        self.banks[rank][bank].activate(self.now, addr.row, &self.spec.timing);
        self.ranks[rank].record_act(self.now, group);
        self.stats.activates += 1;
        self.record(CommandKind::Act, addr.rank, addr.bank, addr.row);
        self.window[i].touch.get_or_insert(Touch::Miss);
        self.now += 1;
        Decision::Issued
    }

    /// Issue a PRE to the bank of window slot `i`'s request.
    fn issue_precharge(&mut self, i: usize) -> Decision {
        let addr = self.window[i].req.addr;
        self.banks[addr.rank as usize][addr.bank as usize].precharge(self.now, &self.spec.timing);
        self.stats.precharges += 1;
        self.record(CommandKind::Pre, addr.rank, addr.bank, 0);
        self.window[i].touch = Some(Touch::Conflict);
        self.now += 1;
        Decision::Issued
    }

    /// Record every issued device command for later inspection and
    /// independent legality verification (see [`crate::verifylog`]).
    pub(crate) fn enable_logging(&mut self) {
        self.log = Some(Vec::new());
    }

    /// The command log, if logging was enabled.
    pub(crate) fn log(&self) -> Option<&[LoggedCommand]> {
        self.log.as_deref()
    }

    /// Statistics of every run so far.
    pub(crate) fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Drain the queue, scheduling every request to completion on
    /// `engine`; [`Self::stats`] then covers this run too.
    pub(crate) fn run(&mut self, engine: EngineKind) {
        let pending = self.pending();
        if let Some(log) = &mut self.log {
            // ~1 ACT per miss/conflict + 1 column per request is the common
            // shape; reserving twice the queue depth avoids log regrowth.
            log.reserve(2 * pending + 8);
        }
        engine.drive(self);
        // Everything up to the finish cycle that was not data-bus
        // occupancy is idle. Computed from command timestamps only, so it
        // is identical whether the engine stepped through or jumped over
        // the idle spans.
        self.stats.idle_cycles = self.stats.finish_cycle.saturating_sub(self.stats.busy_cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramSystem;

    fn small_spec() -> DramSpec {
        // 1-channel LPDDR5-6400, 256 MB: keeps row counts small in tests.
        DramSpec::lpddr5_6400(16, 256 << 20)
    }

    fn addr(rank: u64, bank: u64, row: u64, column: u64) -> DramAddress {
        DramAddress { channel: 0, rank, bank, row, column }
    }

    /// Schedule `reqs` on the one channel of `spec` and return its stats.
    fn run(spec: &DramSpec, reqs: impl IntoIterator<Item = Request>) -> DramStats {
        let mut sys = DramSystem::new(spec);
        for r in reqs {
            sys.push(r);
        }
        sys.run().stats
    }

    #[test]
    fn single_read_latency_is_act_plus_rcd_cl_burst() {
        let spec = small_spec();
        let stats = run(&spec, [Request::read(addr(0, 0, 0, 0))]);
        let tm = &spec.timing;
        // ACT at 0, RD at tRCD, data ends at tRCD+CL+burst.
        assert_eq!(stats.finish_cycle, tm.rcd + tm.cl + tm.burst_cycles);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.activates, 1);
        assert_eq!(stats.row_misses, 1);
        assert_eq!(stats.row_hits, 0);
    }

    #[test]
    fn same_row_reads_are_hits() {
        let stats = run(&small_spec(), (0..8).map(|c| Request::read(addr(0, 0, 0, c))));
        assert_eq!(stats.row_misses, 1);
        assert_eq!(stats.row_hits, 7);
        assert_eq!(stats.activates, 1);
    }

    #[test]
    fn row_conflict_forces_precharge() {
        let reqs = [Request::read(addr(0, 0, 0, 0)), Request::read(addr(0, 0, 1, 0))];
        let stats = run(&small_spec(), reqs);
        assert_eq!(stats.row_misses, 1);
        assert_eq!(stats.row_conflicts, 1);
        assert_eq!(stats.precharges, 1);
        assert_eq!(stats.activates, 2);
    }

    #[test]
    fn streaming_one_row_hits_peak_bandwidth() {
        let spec = small_spec();
        let stats =
            run(&spec, (0..spec.topology.columns()).map(|c| Request::read(addr(0, 0, 0, c))));
        // Steady state: one burst per tCCD; overhead only from the initial
        // ACT+CL. Bandwidth must exceed 80% of the channel peak.
        let ns = spec.cycles_to_ns(stats.finish_cycle);
        let bw = stats.bytes(spec.topology.transfer_bytes) as f64 / (ns * 1e-9);
        assert!(bw > 0.8 * spec.channel_bandwidth_bytes_per_sec(), "bw {bw:.3e}");
    }

    #[test]
    fn bank_interleaving_hides_row_activation() {
        let spec = small_spec();
        let t = spec.topology;
        // Stream across all 16 banks, 4 rows each, column-major like a
        // conventional interleaved layout.
        let reqs = (0..4).flat_map(|row| {
            (0..t.columns()).flat_map(move |col| {
                (0..t.banks()).map(move |bank| Request::read(addr(0, bank, row, col)))
            })
        });
        let stats = run(&spec, reqs);
        let ns = spec.cycles_to_ns(stats.finish_cycle);
        let bw = stats.bytes(spec.topology.transfer_bytes) as f64 / (ns * 1e-9);
        assert!(
            bw > 0.9 * spec.channel_bandwidth_bytes_per_sec(),
            "interleaved stream should be near peak, got {:.1}%",
            100.0 * bw / spec.channel_bandwidth_bytes_per_sec()
        );
    }

    #[test]
    fn fr_fcfs_serves_row_hits_before_conflicting_precharge() {
        // Older request to a different row of bank 0, then a younger hit.
        let reqs = [
            Request::read(addr(0, 0, 0, 0)),
            Request::read(addr(0, 0, 5, 0)),
            Request::read(addr(0, 0, 0, 1)),
        ];
        let stats = run(&small_spec(), reqs);
        // The younger same-row read must be served as a hit (no extra
        // conflict for it).
        assert_eq!(stats.row_hits, 1);
        assert_eq!(stats.row_conflicts, 1);
        assert_eq!(stats.row_misses, 1);
    }

    #[test]
    fn writes_then_reads_respect_turnaround() {
        let spec = small_spec();
        let reqs = [Request::write(addr(0, 0, 0, 0)), Request::read(addr(0, 0, 0, 1))];
        let stats = run(&spec, reqs);
        let tm = &spec.timing;
        // The read data cannot start before the write data ended plus tWTR.
        let wr_cmd = tm.rcd;
        let wr_data_end = wr_cmd + tm.cwl + tm.burst_cycles;
        assert!(stats.finish_cycle >= wr_data_end + tm.wtr + tm.burst_cycles);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.writes, 1);
    }

    #[test]
    fn refresh_is_issued_on_long_streams() {
        let spec = small_spec();
        // Enough work to cross at least one tREFI boundary.
        let per_refi = spec.timing.refi / spec.timing.ccd_l + 10;
        let cols = spec.topology.columns();
        let reqs = (0..=per_refi).map(|n| Request::read(addr(0, 0, n / cols, n % cols)));
        let stats = run(&spec, reqs);
        assert!(stats.refreshes > 0, "expected refreshes on a long stream");
    }

    #[test]
    fn arrival_gaps_are_respected() {
        let stats = run(&small_spec(), [Request::read(addr(0, 0, 0, 0)).at(10_000)]);
        assert!(stats.finish_cycle >= 10_000);
    }

    /// The window is exactly [`WINDOW`] requests: a row-0 read holds row 0
    /// open for a younger row-0 read only while that read is among the
    /// first `WINDOW` queued requests.
    #[test]
    fn lookahead_window_is_exactly_window_requests() {
        let spec = small_spec();
        let stats = |n: u64| {
            let reqs = std::iter::once(Request::read(addr(0, 0, 0, 0)))
                .chain((0..n).map(|c| Request::read(addr(0, 0, 1, c))))
                .chain([Request::read(addr(0, 0, 0, 1))]);
            run(&spec, reqs)
        };
        let inside = stats(WINDOW as u64 - 1);
        assert_eq!((inside.row_hits, inside.row_conflicts), (31, 1));
        let outside = stats(WINDOW as u64);
        assert_eq!((outside.row_hits, outside.row_conflicts), (31, 2));
        assert_eq!(outside.precharges, 2);
    }

    /// Only an arrived row hit keeps its row open: a row-0 read that has
    /// not arrived yet does not stop row 1's request from closing row 0.
    #[test]
    fn only_arrived_hits_hold_a_row_open() {
        let spec = small_spec();
        let stats = |late: u64| {
            let reqs = [
                Request::read(addr(0, 0, 0, 0)),
                Request::read(addr(0, 0, 1, 0)),
                Request::read(addr(0, 0, 0, 1)).at(late),
            ];
            run(&spec, reqs)
        };
        let arrived = stats(0);
        assert_eq!((arrived.row_hits, arrived.row_misses, arrived.row_conflicts), (1, 1, 1));
        let late = stats(10_000);
        assert_eq!((late.row_hits, late.row_misses, late.row_conflicts), (0, 2, 1));
    }

    #[test]
    fn idle_accounting_partitions_the_finish_cycle() {
        let spec = small_spec();
        // Two requests separated by a long idle gap.
        let reqs = [Request::read(addr(0, 0, 0, 0)), Request::read(addr(0, 0, 0, 1)).at(50_000)];
        let stats = run(&spec, reqs);
        assert_eq!(stats.busy_cycles, 2 * spec.timing.burst_cycles);
        assert_eq!(stats.idle_cycles + stats.busy_cycles, stats.finish_cycle);
        assert!(stats.idle_cycles > 40_000, "gap must be counted as idle");
    }
}
