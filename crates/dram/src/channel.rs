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
//! The decision procedure is allocation-free in steady state: the request
//! queue is a flat buffer with tombstones (out-of-order FR-FCFS completions
//! mark entries dead instead of shifting the queue), the per-step candidate
//! set and lookahead window live in reused scratch buffers, and bank-level
//! ACT/PRE dedup uses a stamp array instead of a per-step hash set.

use std::sync::Arc;

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

#[derive(Debug, Clone, Copy)]
struct Pending {
    req: Request,
    touch: Option<Touch>,
    /// Tombstone: the request completed but its slot has not been
    /// reclaimed yet (reclaim happens when the queue head passes it).
    dead: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Column,
    Activate,
    Precharge,
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
/// the tombstone request queue, statistics and the command log.
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
#[derive(Debug)]
pub(crate) struct ChannelCore {
    spec: Arc<DramSpec>,
    banks: Vec<Vec<BankState>>,
    ranks: Vec<RankState>,
    bus_busy_until: u64,
    last_data_end: u64,
    last_was_write: bool,
    now: u64,
    /// Flat request queue with tombstones: requests arrive at the tail,
    /// `head` skips reclaimed slots, and FR-FCFS completions in the middle
    /// of the window are marked [`Pending::dead`] instead of being shifted
    /// out (the old `VecDeque::remove` hot spot).
    buf: Vec<Pending>,
    /// First slot that may still be live; everything before it is dead.
    head: usize,
    /// Number of live (not yet completed) requests in `buf`.
    live: usize,
    stats: DramStats,
    log: Option<Vec<LoggedCommand>>,
    /// Scratch: buffer indices of the current lookahead window.
    win: Vec<usize>,
    /// Scratch: per-step candidate set (buffer index, action, ready).
    cand: Vec<(usize, Action, u64)>,
    /// Scratch: per-(rank, bank) claim stamps replacing a per-step hash
    /// set — a bank is claimed this step iff its stamp equals `stamp`.
    bank_stamp: Vec<u64>,
    /// Current claim stamp (incremented every step; never reset).
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
            buf: Vec::new(),
            head: 0,
            live: 0,
            stats: DramStats::default(),
            log: None,
            win: Vec::with_capacity(WINDOW),
            cand: Vec::with_capacity(WINDOW),
            bank_stamp: vec![0; total_banks],
            stamp: 0,
        }
    }

    fn record(&mut self, kind: CommandKind, rank: u64, bank: u64, arg: u64) {
        if let Some(log) = &mut self.log {
            log.push(LoggedCommand { cycle: self.now, kind, rank, bank, arg });
        }
    }

    /// Enqueue a request. Requests must be pushed in non-decreasing
    /// arrival order (checked in debug builds, as are the address fields).
    pub(crate) fn push(&mut self, req: Request) {
        debug_assert!(req.addr.rank < self.spec.topology.ranks);
        debug_assert!(req.addr.bank < self.spec.topology.banks());
        debug_assert!(req.addr.row < self.spec.topology.rows);
        debug_assert!(req.addr.column < self.spec.topology.columns());
        debug_assert!(
            self.buf.last().map(|p| p.req.arrival <= req.arrival).unwrap_or(true),
            "requests must arrive in order"
        );
        self.buf.push(Pending { req, touch: None, dead: false });
        self.live += 1;
    }

    /// Number of requests still queued. A drive loop runs until this
    /// reaches zero.
    pub(crate) fn pending(&self) -> usize {
        self.live
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
    /// Panics if the queue is empty (debug builds only); callers check
    /// [`ChannelCore::pending`] first.
    pub(crate) fn first_live_arrival(&self) -> u64 {
        debug_assert!(self.live > 0);
        self.buf[self.head].req.arrival
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

    /// Reclaim the dead prefix: advance `head` past tombstones and compact
    /// the buffer once the reclaimed prefix dominates, keeping memory
    /// proportional to the live queue (amortized O(1) per completion).
    pub(crate) fn reclaim(&mut self) {
        while self.head < self.buf.len() && self.buf[self.head].dead {
            self.head += 1;
        }
        if self.head > 64 && self.head * 2 > self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }

    /// Claim `(rank, bank)` for a bank-level command this step; the first
    /// (oldest) claimant wins. Stamp comparison makes clearing free.
    fn claim_bank(&mut self, rank: usize, bank: usize) -> bool {
        let idx = rank * self.spec.topology.banks() as usize + bank;
        if self.bank_stamp[idx] == self.stamp {
            false
        } else {
            self.bank_stamp[idx] = self.stamp;
            true
        }
    }

    /// True if any arrived request among the first [`WINDOW`] live queue
    /// entries targets `row` of `(rank, bank)`.
    fn window_wants_row(&self, rank: usize, bank: usize, row: u64) -> bool {
        let mut seen = 0;
        let mut idx = self.head;
        while seen < WINDOW && idx < self.buf.len() {
            let p = &self.buf[idx];
            idx += 1;
            if p.dead {
                continue;
            }
            seen += 1;
            if p.req.arrival <= self.now
                && p.req.addr.rank as usize == rank
                && p.req.addr.bank as usize == bank
                && p.req.addr.row == row
            {
                return true;
            }
        }
        false
    }

    /// One scheduling decision at the current cycle: issue the best legal
    /// command (FR-FCFS: row-hit columns, then activates, then precharges;
    /// oldest wins ties) or report why nothing can issue.
    ///
    /// Pure in simulated time: the only clock movement is the one-cycle
    /// command-bus slot consumed by an issued command. How the clock moves
    /// between decisions is entirely the drive loop's business.
    pub(crate) fn decide(&mut self) -> Decision {
        debug_assert!(self.live > 0);
        let tm = self.spec.timing;
        let bpg = self.spec.topology.banks_per_group as usize;

        // Collect the lookahead window: buffer indices of the first
        // `WINDOW` live requests, in arrival order.
        let mut win = std::mem::take(&mut self.win);
        win.clear();
        {
            let mut idx = self.head;
            while win.len() < WINDOW && idx < self.buf.len() {
                if !self.buf[idx].dead {
                    win.push(idx);
                }
                idx += 1;
            }
        }

        // Build the candidate set: (buffer index, action, ready cycle).
        // Bank-level actions are deduplicated as they are generated: only
        // the oldest request per bank may drive an ACT/PRE (younger ones
        // would duplicate the same command).
        let mut cand = std::mem::take(&mut self.cand);
        cand.clear();
        self.stamp += 1;
        let mut next_arrival_beyond: Option<u64> = None;
        for &i in &win {
            let p = self.buf[i];
            if p.req.arrival > self.now {
                next_arrival_beyond = Some(p.req.arrival);
                break;
            }
            let rank = p.req.addr.rank as usize;
            let bank = p.req.addr.bank as usize;
            match self.banks[rank][bank].open_row {
                Some(row) if row == p.req.addr.row => {
                    cand.push((i, Action::Column, self.column_ready(rank, bank, p.req.op)));
                }
                Some(open) => {
                    // Only precharge if no earlier/other window request still
                    // hits the open row of this bank (FR-FCFS serves hits
                    // before closing).
                    let hit_waiting = self.window_wants_row(rank, bank, open);
                    if !hit_waiting && self.claim_bank(rank, bank) {
                        cand.push((i, Action::Precharge, self.banks[rank][bank].next_pre));
                    }
                }
                None => {
                    let ready = self.banks[rank][bank]
                        .next_act
                        .max(self.ranks[rank].act_ready(bank / bpg, &tm));
                    if self.claim_bank(rank, bank) {
                        cand.push((i, Action::Activate, ready));
                    }
                }
            }
        }

        // Pick the best issuable candidate: column (row hit) first, then
        // activates, then precharges; oldest wins ties.
        let now = self.now;
        let issuable = |a: Action| {
            cand.iter()
                .filter(|(_, act, ready)| *act == a && *ready <= now)
                .min_by_key(|(i, _, _)| *i)
                .copied()
        };
        let chosen = issuable(Action::Column)
            .or_else(|| issuable(Action::Activate))
            .or_else(|| issuable(Action::Precharge));

        let decision = match chosen {
            Some((i, Action::Column, _)) => {
                let p = self.buf[i];
                let rank = p.req.addr.rank as usize;
                let bank = p.req.addr.bank as usize;
                let (lat, op) = match p.req.op {
                    Op::Read => (tm.cl, Op::Read),
                    Op::Write => (tm.cwl, Op::Write),
                };
                let data_start = self.now + lat;
                debug_assert!(data_start >= self.bus_busy_until);
                let data_end = data_start + tm.burst_cycles;
                match op {
                    Op::Read => {
                        self.banks[rank][bank].read(self.now, &tm);
                        self.stats.reads += 1;
                        self.record(CommandKind::Rd, rank as u64, bank as u64, p.req.addr.column);
                    }
                    Op::Write => {
                        self.banks[rank][bank].write(self.now, &tm);
                        self.stats.writes += 1;
                        self.record(CommandKind::Wr, rank as u64, bank as u64, p.req.addr.column);
                    }
                }
                self.bus_busy_until = data_end;
                self.last_data_end = data_end;
                self.last_was_write = op == Op::Write;
                match p.touch {
                    None => self.stats.row_hits += 1,
                    Some(Touch::Miss) => self.stats.row_misses += 1,
                    Some(Touch::Conflict) => self.stats.row_conflicts += 1,
                }
                // Busy time is derived from the command's own data phase —
                // bursts never overlap (`bus_busy_until` forbids it), so
                // the sum over commands is exact whether the engine stepped
                // through the burst or jumped over it.
                self.stats.busy_cycles += tm.burst_cycles;
                self.stats.finish_cycle = self.stats.finish_cycle.max(data_end);
                self.buf[i].dead = true;
                self.live -= 1;
                self.now += 1;
                Decision::Issued
            }
            Some((i, Action::Activate, _)) => {
                let addr = self.buf[i].req.addr;
                let rank = addr.rank as usize;
                let bank = addr.bank as usize;
                self.banks[rank][bank].activate(self.now, addr.row, &tm);
                self.ranks[rank].record_act(self.now, bank / bpg);
                self.stats.activates += 1;
                self.record(CommandKind::Act, addr.rank, addr.bank, addr.row);
                if self.buf[i].touch.is_none() {
                    self.buf[i].touch = Some(Touch::Miss);
                }
                self.now += 1;
                Decision::Issued
            }
            Some((i, Action::Precharge, _)) => {
                let addr = self.buf[i].req.addr;
                let rank = addr.rank as usize;
                let bank = addr.bank as usize;
                self.banks[rank][bank].precharge(self.now, &tm);
                self.stats.precharges += 1;
                self.record(CommandKind::Pre, addr.rank, addr.bank, 0);
                self.buf[i].touch = Some(Touch::Conflict);
                self.now += 1;
                Decision::Issued
            }
            None => Decision::Blocked {
                next_ready: cand.iter().map(|(_, _, r)| *r).min(),
                next_arrival: next_arrival_beyond,
            },
        };

        // Hand the scratch buffers back for the next decision.
        self.win = win;
        self.cand = cand;
        decision
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

    /// Drain the queue, scheduling every request to completion on
    /// `engine`, and return the statistics for this channel.
    pub(crate) fn run(&mut self, engine: EngineKind) -> DramStats {
        if let Some(log) = &mut self.log {
            // ~1 ACT per miss/conflict + 1 column per request is the common
            // shape; reserving twice the queue depth avoids log regrowth.
            log.reserve(2 * self.live + 8);
        }
        engine.drive(self);
        // Everything up to the finish cycle that was not data-bus
        // occupancy is idle. Computed from command timestamps only, so it
        // is identical whether the engine stepped through or jumped over
        // the idle spans.
        self.stats.idle_cycles = self.stats.finish_cycle.saturating_sub(self.stats.busy_cycles);
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::DramAddress;
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
