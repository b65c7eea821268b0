//! The serving driver: the one arrival → retry → quiesce loop behind every
//! fleet and every cluster run, routing each request through two tiers.
//!
//! Tier 1 (cell admission): score every cell that is alive — not
//! partitioned, with at least one active accepting device — by mean
//! backlog per active device and admit the request to the best one.
//! A link-delay spike on the chosen cell either *defers* the dispatch past
//! the spike or, beyond [`ClusterConfig::hedge_after_s`], *hedges* it to
//! the best clean cell instead.
//!
//! Tier 2 (device dispatch): inside the chosen cell, dispatch under the
//! configured [`Routing`] policy (least-loaded by backlog
//! tokens, or round-robin) to an active accepting device.
//!
//! Cross-cutting concerns the router owns:
//!
//! - **QoS**: every request belongs to a tenant
//!   ([`ClusterConfig::tenant_of`]); a dispatch that would push the
//!   tenant's outstanding KV reservations past its quota is shed
//!   ([`ShedReason::QuotaExceeded`]), and requests that find no admitting
//!   cell park in a bounded priority queue (lowest priority value first;
//!   overflow evicts the worst-QoS newest entry as
//!   [`ShedReason::Overload`]).
//! - **Failover**: crash-evicted requests are harvested and re-dispatched
//!   across cells with saturating exponential backoff, bounded by the
//!   plan's [`RetryPolicy`] ([`ShedReason::Failed`] once exhausted);
//!   per-request deadlines expire stale work
//!   ([`ShedReason::DeadlineExpired`]). A request that finds no accepting
//!   device spends no retry: it parks until the next availability
//!   boundary (a window edge, a crash recovery, the end of a freeze, a
//!   warmup completing), and is shed `Failed` if the run quiesces with no
//!   such boundary left.
//! - **Autoscaling**: with an [`AutoscalePolicy`], the router ticks on the
//!   simulated clock, computes the sliding-window p99 TTFT, and scales the
//!   most-loaded cell out (after a warmup) on sustained SLO burn or an
//!   idle autoscaled device in on sustained cool-down.
//!
//! Router decisions are serial. The per-device phases run over cells ×
//! devices **flattened into one global device list**: each tick of an
//! untraced run issues a single [`pool::par_map_mut`] batch across every
//! slot of every cell, so the work-stealing executor balances uneven cells
//! against each other. Reports serialize byte-identically for any
//! `FACIL_THREADS` worker count.
//!
//! A fleet ([`crate::run_fleet_with_faults`]) is the one-cell case: no
//! headroom, no autoscaling, the default tenant, no router windows and an
//! unbounded park queue.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};

use facil_core::Result;
use facil_sim::{InferenceSim, Summary};
use facil_telemetry::{pool, ArgValue, NullSink, TraceSink, TrackId};
use facil_workloads::{ArrivalProcess, Dataset, Query};

use crate::chaos::ChaosPlan;
use crate::device::{DeviceSim, EvictedReq};
use crate::faults::{FaultKind, FaultPlan, RetryPolicy};
use crate::fleet::Routing;
use crate::metrics::{ReportMeta, ServeReport};
use crate::report::{CellReport, ClusterReport, ClusterShedRecord, TenantReport};
use crate::request::{ShedReason, ShedRecord};
use crate::topology::{AutoscalePolicy, ClusterConfig};

/// A fault schedule lowered to what the driver consumes: one device-level
/// fault plan (with its retry/deadline policy) on global device indices,
/// and per-cell partition / link-delay windows only the router sees.
/// [`ChaosPlan::compile`] builds one for a cluster, `fleet::run` one for a
/// fleet.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompiledChaos {
    /// Device-level faults on global indices (each [`DeviceSim`] filters
    /// its own events).
    pub plan: FaultPlan,
    /// Per-cell partition windows `(start, end)`, sorted by start.
    pub partitions: Vec<Vec<(f64, f64)>>,
    /// Per-cell link-delay windows `(start, end, extra_s)`, sorted by
    /// start.
    pub link_delays: Vec<Vec<(f64, f64, f64)>>,
}

impl CompiledChaos {
    /// True if the router cannot dispatch into `cell` at `t`.
    pub fn partitioned(&self, cell: usize, t: f64) -> bool {
        self.partitions[cell].iter().any(|&(s, e)| s <= t && t < e)
    }

    /// Extra dispatch latency into `cell` at `t` (0.0 outside spikes;
    /// overlapping spikes take the maximum).
    pub fn link_delay(&self, cell: usize, t: f64) -> f64 {
        self.link_delays[cell]
            .iter()
            .filter(|&&(s, e, _)| s <= t && t < e)
            .map(|&(_, _, x)| x)
            .fold(0.0, f64::max)
    }

    /// Earliest availability boundary strictly after `t`: a partition or
    /// link-delay window edge, a crash recovery or the end of a freeze.
    /// The quiesce loop jumps parked work to the next instant the world
    /// can have changed.
    pub fn next_boundary_after(&self, t: f64) -> Option<f64> {
        let mut best: Option<f64> = None;
        let mut consider = |x: f64| {
            if x > t && best.is_none_or(|b| x < b) {
                best = Some(x);
            }
        };
        for cell in &self.partitions {
            for &(s, e) in cell {
                consider(s);
                consider(e);
            }
        }
        for cell in &self.link_delays {
            for &(s, e, _) in cell {
                consider(s);
                consider(e);
            }
        }
        for ev in &self.plan.events {
            match ev.kind {
                FaultKind::Crash { recover_s: Some(r) } => consider(ev.at_s + r),
                FaultKind::Freeze { duration_s } => consider(ev.at_s + duration_s),
                _ => {}
            }
        }
        best
    }
}

/// How the independent per-device phases of the loop execute.
///
/// The driver alternates *global* decisions (routing, failover, retries —
/// inherently serial) with *per-device* phases (advancing every device
/// clock, draining every device) that touch disjoint state. The result is
/// identical either way because no device reads another's state.
pub(crate) trait Exec<S: TraceSink> {
    /// Advance every device clock to `t_s`.
    fn advance_all(devices: &mut [DeviceSim<'_, S>], t_s: f64);
    /// Drain every device's outstanding work.
    fn drain_all(devices: &mut [DeviceSim<'_, S>]);
}

/// Serial device phases: required for traced runs, whose devices share a
/// single-threaded sink handle (e.g. `Rc<RefCell<RingSink>>`).
pub(crate) enum SerialExec {}

impl<S: TraceSink> Exec<S> for SerialExec {
    fn advance_all(devices: &mut [DeviceSim<'_, S>], t_s: f64) {
        for d in devices.iter_mut() {
            d.advance_until(t_s);
        }
    }
    fn drain_all(devices: &mut [DeviceSim<'_, S>]) {
        for d in devices.iter_mut() {
            d.drain();
        }
    }
}

/// Parallel device phases on the persistent [`pool`] workers
/// (`FACIL_THREADS`), for the untraced [`NullSink`] path where devices are
/// `Send`; [`pool::par_map_mut`] falls back to the serial loop for
/// single-device runs, one configured worker, or when the caller is itself
/// a pool worker (nested parallelism).
pub(crate) enum ParallelExec {}

impl Exec<NullSink> for ParallelExec {
    fn advance_all(devices: &mut [DeviceSim<'_, NullSink>], t_s: f64) {
        pool::par_map_mut(devices, |d| d.advance_until(t_s));
    }
    fn drain_all(devices: &mut [DeviceSim<'_, NullSink>]) {
        pool::par_map_mut(devices, DeviceSim::drain);
    }
}

/// A request waiting for the router: fresh, parked, or fired from the
/// retry queue.
#[derive(Debug, Clone, Copy)]
struct Pending {
    id: u64,
    arrival_s: f64,
    query: Query,
    attempt: u32,
    /// Global index of the device that last evicted the request (0 if
    /// none) — the device a shed names.
    from: usize,
}

/// A request waiting out a retry backoff or a link-delay deferral.
#[derive(Debug, Clone, Copy)]
struct Retry {
    t_s: f64,
    seq: u64,
    req: Pending,
}

impl PartialEq for Retry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Retry {}
impl PartialOrd for Retry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Retry {
    /// Fire time first, then insertion order — total and deterministic
    /// even for coincident retries.
    fn cmp(&self, other: &Self) -> Ordering {
        self.t_s.total_cmp(&other.t_s).then(self.seq.cmp(&other.seq))
    }
}

/// Outcome of a routing attempt. Terminal outcomes (dispatched, deferred,
/// shed) are folded into `Done`; `NoCell` hands the request back so the
/// caller can park it (or stop unparking).
enum Routed {
    Done,
    NoCell(Pending),
}

/// Serial router state: every routing decision goes through here, in
/// event order, regardless of how many workers advance the devices.
struct RouterState<'c, S: TraceSink> {
    cfg: &'c ClusterConfig,
    chaos: &'c CompiledChaos,
    policy: RetryPolicy,
    /// Tenant index per request id.
    tenant: Vec<usize>,
    /// Worst-case KV bytes per request id (identical devices, so one probe
    /// serves the whole cluster).
    need: Vec<u64>,
    /// Outstanding dispatched-but-unresolved KV bytes per tenant.
    outstanding: Vec<u64>,
    /// Per-slot activation time: 0 for initial devices, `INFINITY` while
    /// the slot is autoscaling headroom.
    active_from: Vec<f64>,
    /// Slots added by the autoscaler (the only ones it may remove again).
    autoscaled: Vec<bool>,
    park: BTreeMap<(u8, u64), Pending>,
    park_seq: u64,
    retryq: BinaryHeap<Reverse<Retry>>,
    seq: u64,
    rr: usize,
    sheds: Vec<ClusterShedRecord>,
    seen_completed: Vec<usize>,
    seen_shed: Vec<usize>,
    dispatched_per_cell: Vec<usize>,
    failovers_per_cell: Vec<usize>,
    retries_per_cell: Vec<usize>,
    failovers: usize,
    retries: usize,
    deferrals: usize,
    hedges: usize,
    parked_peak: usize,
    /// `(completion time, TTFT ms)` of every completion, for SLO-burn
    /// evaluation.
    samples: Vec<(f64, f64)>,
    next_tick_s: f64,
    burn: usize,
    cool: usize,
    scale_outs: usize,
    scale_ins: usize,
    /// Router clock: the latest event instant processed.
    now: f64,
    sink: S,
    track: TrackId,
    cell_tracks: Vec<TrackId>,
}

impl<S: TraceSink> RouterState<'_, S> {
    /// True if global device `d` is activated and accepting at `t`.
    fn device_live(&self, devices: &[DeviceSim<'_, S>], d: usize, t: f64) -> bool {
        self.active_from[d] <= t && devices[d].accepts(t)
    }

    /// Trace track of `cell` (the default track when tracing is off).
    fn cell_track(&self, cell: usize) -> TrackId {
        self.cell_tracks.get(cell).copied().unwrap_or_default()
    }

    fn shed(&mut self, t: f64, req: Pending, reason: ShedReason) {
        self.sink.instant(
            self.track,
            "shed",
            t * 1e9,
            &[("id", ArgValue::U64(req.id)), ("reason", ArgValue::Str(reason.as_str()))],
        );
        self.sheds.push(ClusterShedRecord {
            id: req.id,
            tenant: self.tenant[req.id as usize],
            device: req.from,
            arrival_s: req.arrival_s,
            t_s: t,
            reason,
        });
    }

    fn push_retry(&mut self, t_s: f64, req: Pending) {
        self.retryq.push(Reverse(Retry { t_s, seq: self.seq, req }));
        self.seq += 1;
    }

    /// Park a request that found no admitting cell; an overflowing park
    /// evicts the worst-QoS newest entry instead of growing unboundedly.
    fn park(&mut self, t: f64, req: Pending) {
        let prio = self.cfg.tenants[self.tenant[req.id as usize]].priority;
        self.sink.instant(self.track, "park", t * 1e9, &[("id", ArgValue::U64(req.id))]);
        self.park.insert((prio, self.park_seq), req);
        self.park_seq += 1;
        self.parked_peak = self.parked_peak.max(self.park.len());
        if self.park.len() > self.cfg.park_cap {
            if let Some((_, victim)) = self.park.pop_last() {
                self.shed(t, victim, ShedReason::Overload);
            }
        }
    }

    /// Re-dispatch parked requests in QoS order until one finds no cell.
    /// `NoCell` does not depend on the request, so stopping at the first
    /// refusal is exact, not a heuristic.
    fn unpark(&mut self, devices: &mut [DeviceSim<'_, S>], t: f64) {
        while let Some((&key, &req)) = self.park.iter().next() {
            self.park.remove(&key);
            match self.route(devices, t, req) {
                Routed::Done => {}
                Routed::NoCell(req) => {
                    self.park.insert(key, req);
                    return;
                }
            }
        }
    }

    /// Schedule a failover retry with saturating backoff, or shed the
    /// request once its retry budget or deadline is exhausted. `from` is
    /// the global index of the evicting device.
    fn requeue_or_fail(&mut self, from: usize, ev: EvictedReq) {
        let cell = self.cfg.cell_of(from);
        let req = Pending {
            id: ev.id,
            arrival_s: ev.arrival_s,
            query: ev.query,
            attempt: ev.attempt,
            from,
        };
        if ev.attempt >= self.policy.max_retries {
            self.shed(ev.evicted_s, req, ShedReason::Failed);
            return;
        }
        let t_s = ev.evicted_s + self.policy.backoff_s(ev.attempt);
        if self.policy.deadline_s > 0.0 && t_s - ev.arrival_s > self.policy.deadline_s {
            self.shed(ev.evicted_s, req, ShedReason::DeadlineExpired);
            return;
        }
        let attempt = ev.attempt + 1;
        self.sink.instant(
            self.cell_track(cell),
            "retry",
            t_s * 1e9,
            &[("id", ArgValue::U64(ev.id)), ("attempt", ArgValue::U64(u64::from(attempt)))],
        );
        self.push_retry(t_s, Pending { attempt, ..req });
        self.retries += 1;
        self.retries_per_cell[cell] += 1;
    }

    /// Settle every request that left a device since the last call:
    /// release tenant KV reservations for completions and device-level
    /// sheds (collecting TTFT samples for the autoscaler), then harvest
    /// crash evictions for cross-cell failover.
    fn harvest(&mut self, devices: &mut [DeviceSim<'_, S>]) {
        for (d, dev) in devices.iter().enumerate() {
            let completed = dev.completed();
            for r in &completed[self.seen_completed[d]..] {
                let tenant = self.tenant[r.id as usize];
                self.outstanding[tenant] =
                    self.outstanding[tenant].saturating_sub(self.need[r.id as usize]);
                self.samples.push((r.arrival_s + r.ttlt_ms / 1e3, r.ttft_ms));
            }
            self.seen_completed[d] = completed.len();
            let shed = dev.shed();
            for s in &shed[self.seen_shed[d]..] {
                let tenant = self.tenant[s.id as usize];
                self.outstanding[tenant] =
                    self.outstanding[tenant].saturating_sub(self.need[s.id as usize]);
            }
            self.seen_shed[d] = shed.len();
        }
        for (d, dev) in devices.iter_mut().enumerate() {
            let cell = self.cfg.cell_of(d);
            for ev in dev.take_evicted() {
                self.failovers += 1;
                self.failovers_per_cell[cell] += 1;
                let tenant = self.tenant[ev.id as usize];
                self.outstanding[tenant] =
                    self.outstanding[tenant].saturating_sub(self.need[ev.id as usize]);
                self.sink.instant(
                    self.cell_track(cell),
                    "failover",
                    ev.evicted_s * 1e9,
                    &[("id", ArgValue::U64(ev.id)), ("from", ArgValue::U64(d as u64))],
                );
                self.requeue_or_fail(d, ev);
            }
        }
    }

    /// Tier-1 candidates at `t`: `(cell, backlog, live devices)` for every
    /// cell that can admit, ordered best-first (least mean backlog per
    /// live device, ties to the lowest cell index).
    fn cell_candidates(&self, devices: &[DeviceSim<'_, S>], t: f64) -> Vec<(usize, u64, u64)> {
        let mut cands: Vec<(usize, u64, u64)> = Vec::with_capacity(self.cfg.cells);
        for cell in 0..self.cfg.cells {
            if self.chaos.partitioned(cell, t) {
                continue;
            }
            let mut backlog = 0u64;
            let mut live = 0u64;
            for slot in 0..self.cfg.max_devices_per_cell {
                let d = self.cfg.global_index(cell, slot);
                if self.device_live(devices, d, t) {
                    live += 1;
                    backlog += devices[d].backlog_tokens();
                }
            }
            if live > 0 {
                cands.push((cell, backlog, live));
            }
        }
        // Integer cross-multiplication compares mean backlogs exactly.
        cands.sort_by(|a, b| {
            (u128::from(a.1) * u128::from(b.2))
                .cmp(&(u128::from(b.1) * u128::from(a.2)))
                .then(a.0.cmp(&b.0))
        });
        cands
    }

    /// Tier-2 dispatch inside `cell` under the configured routing policy.
    fn pick_device(&mut self, devices: &[DeviceSim<'_, S>], cell: usize, t: f64) -> Option<usize> {
        let live: Vec<usize> = (0..self.cfg.max_devices_per_cell)
            .map(|slot| self.cfg.global_index(cell, slot))
            .filter(|&d| self.device_live(devices, d, t))
            .collect();
        match self.cfg.routing {
            Routing::RoundRobin => {
                let &d = live.get(self.rr % live.len().max(1))?;
                self.rr += 1;
                Some(d)
            }
            // min_by_key keeps the first minimum: ties go to the lowest
            // global index, keeping the schedule deterministic.
            Routing::LeastLoaded => {
                live.iter().copied().min_by_key(|&d| devices[d].backlog_tokens())
            }
        }
    }

    /// Route one request (fresh, retried, or unparked) through both tiers.
    fn route(&mut self, devices: &mut [DeviceSim<'_, S>], t: f64, req: Pending) -> Routed {
        let idx = req.id as usize;
        if self.policy.deadline_s > 0.0 && t - req.arrival_s > self.policy.deadline_s {
            self.shed(t, req, ShedReason::DeadlineExpired);
            return Routed::Done;
        }
        let tenant = self.tenant[idx];
        let quota = self.cfg.tenants[tenant].kv_quota_bytes;
        if quota > 0 && self.outstanding[tenant] + self.need[idx] > quota {
            self.shed(t, req, ShedReason::QuotaExceeded);
            return Routed::Done;
        }
        let cands = self.cell_candidates(devices, t);
        let Some(&(best, _, _)) = cands.first() else {
            return Routed::NoCell(req);
        };
        let mut cell = best;
        let delay = self.chaos.link_delay(best, t);
        if delay > 0.0 {
            let clean = if self.cfg.hedge_after_s > 0.0 && delay >= self.cfg.hedge_after_s {
                cands[1..].iter().map(|c| c.0).find(|&c| self.chaos.link_delay(c, t) == 0.0)
            } else {
                None
            };
            match clean {
                Some(alt) => {
                    // Hedge: the spike exceeds the threshold and a clean
                    // cell exists — reroute instead of waiting.
                    self.hedges += 1;
                    self.sink.instant(
                        self.cell_track(best),
                        "hedge",
                        t * 1e9,
                        &[("id", ArgValue::U64(req.id)), ("to", ArgValue::U64(alt as u64))],
                    );
                    cell = alt;
                }
                None => {
                    // Defer past the spike; `extra_s > 0` is validated, so
                    // deferral always makes progress.
                    self.deferrals += 1;
                    self.sink.instant(
                        self.cell_track(best),
                        "defer",
                        t * 1e9,
                        &[("id", ArgValue::U64(req.id))],
                    );
                    self.push_retry(t + delay, req);
                    return Routed::Done;
                }
            }
        }
        let Some(target) = self.pick_device(devices, cell, t) else {
            return Routed::NoCell(req);
        };
        self.outstanding[tenant] += self.need[idx];
        self.dispatched_per_cell[cell] += 1;
        self.sink.instant(
            self.cell_track(cell),
            "dispatch",
            t * 1e9,
            &[
                ("id", ArgValue::U64(req.id)),
                ("device", ArgValue::U64(target as u64)),
                ("attempt", ArgValue::U64(u64::from(req.attempt))),
            ],
        );
        devices[target].enqueue_attempt(t, req.arrival_s, req.id, req.query, req.attempt);
        Routed::Done
    }

    /// Route, parking on `NoCell`.
    fn route_or_park(&mut self, devices: &mut [DeviceSim<'_, S>], t: f64, req: Pending) {
        if let Routed::NoCell(req) = self.route(devices, t, req) {
            self.park(t, req);
        }
    }

    /// Bring every device and the router's books up to `t` — advance,
    /// harvest, run due autoscaler ticks (while arrivals last) — then
    /// retry parked work.
    fn settle<E: Exec<S>>(&mut self, devices: &mut [DeviceSim<'_, S>], t: f64, autoscale: bool) {
        E::advance_all(devices, t);
        self.harvest(devices);
        if autoscale {
            self.autoscale_ticks(devices, t);
        }
        self.now = self.now.max(t);
        self.unpark(devices, t);
    }

    /// Process every autoscaler tick due at or before `t`.
    fn autoscale_ticks(&mut self, devices: &[DeviceSim<'_, S>], t: f64) {
        let Some(pol) = self.cfg.autoscale else { return };
        while self.next_tick_s <= t {
            let tick = self.next_tick_s;
            self.next_tick_s += pol.interval_s;
            let window: Vec<f64> = self
                .samples
                .iter()
                .filter(|&&(done, _)| done > tick - pol.window_s && done <= tick)
                .map(|&(_, ttft)| ttft)
                .collect();
            let burning =
                !window.is_empty() && Summary::from_unsorted(window).p99 > pol.slo_ttft_ms;
            if burning {
                self.burn += 1;
                self.cool = 0;
            } else {
                self.cool += 1;
                self.burn = 0;
            }
            if self.burn >= pol.burn_streak {
                self.burn = 0;
                self.scale_out(devices, tick, &pol);
            }
            if self.cool >= pol.cool_streak {
                self.cool = 0;
                self.scale_in(devices, tick);
            }
        }
    }

    /// Activate one headroom slot in the most-loaded cell; it starts
    /// accepting after the policy's warmup.
    fn scale_out(&mut self, devices: &[DeviceSim<'_, S>], tick: f64, pol: &AutoscalePolicy) {
        let mut best: Option<(u128, u128, usize, usize)> = None; // (backlog, live, cell, spare)
        for cell in 0..self.cfg.cells {
            let mut backlog = 0u128;
            let mut live = 0u128;
            let mut spare = None;
            for slot in 0..self.cfg.max_devices_per_cell {
                let d = self.cfg.global_index(cell, slot);
                if self.device_live(devices, d, tick) {
                    live += 1;
                    backlog += u128::from(devices[d].backlog_tokens());
                } else if spare.is_none()
                    && self.active_from[d] == f64::INFINITY
                    && !devices[d].is_dead()
                {
                    spare = Some(d);
                }
            }
            let Some(spare) = spare else { continue };
            // Max mean backlog wins; a cell with zero live devices (all
            // down) counts as infinitely loaded — growing it restores
            // capacity where none is left.
            let more_loaded = match best {
                None => true,
                Some((b_backlog, b_live, _, _)) => {
                    backlog * b_live > b_backlog * live || (live == 0 && b_live > 0)
                }
            };
            if more_loaded {
                best = Some((backlog, live, cell, spare));
            }
        }
        if let Some((_, _, cell, spare)) = best {
            self.active_from[spare] = tick + pol.warmup_s;
            self.autoscaled[spare] = true;
            self.scale_outs += 1;
            self.sink.instant(
                self.cell_track(cell),
                "scale-out",
                tick * 1e9,
                &[("device", ArgValue::U64(spare as u64))],
            );
        }
    }

    /// Deactivate the lowest-indexed idle autoscaled device, if any.
    fn scale_in(&mut self, devices: &[DeviceSim<'_, S>], tick: f64) {
        let victim = (0..devices.len()).find(|&d| {
            self.autoscaled[d] && self.active_from[d] <= tick && devices[d].backlog_tokens() == 0
        });
        if let Some(d) = victim {
            self.active_from[d] = f64::INFINITY;
            self.autoscaled[d] = false;
            self.scale_ins += 1;
            self.sink.instant(
                self.cell_track(self.cfg.cell_of(d)),
                "scale-in",
                tick * 1e9,
                &[("device", ArgValue::U64(d as u64))],
            );
        }
    }

    /// Earliest instant after `now` at which the routable world can
    /// change: a window edge, an outage recovery, or a pending warmup
    /// completing.
    fn next_boundary(&self) -> Option<f64> {
        let mut best = self.chaos.next_boundary_after(self.now);
        for &a in &self.active_from {
            if a.is_finite() && a > self.now && best.is_none_or(|b| a < b) {
                best = Some(a);
            }
        }
        best
    }
}

/// Run `dataset` with arrivals from `arrival` on the cluster described by
/// `cfg`, injecting the chaos scheduled in `plan`.
///
/// Deterministic for a fixed seed and plan: repeated runs serialize to
/// byte-identical [`ClusterReport::to_json`] output regardless of the
/// `FACIL_THREADS` worker count, and [`ChaosPlan::none`] reproduces the
/// chaos-free schedule exactly. Every offered request reaches exactly one
/// terminal state: `offered == completed + shed`
/// ([`ClusterReport::conserved`]).
///
/// # Errors
///
/// * [`ChaosPlan::validate`] errors for a malformed chaos plan;
/// * [`ClusterConfig::validate`] errors for a malformed cluster shape.
pub fn run_cluster(
    sim: &InferenceSim,
    dataset: &Dataset,
    arrival: &ArrivalProcess,
    cfg: &ClusterConfig,
    plan: &ChaosPlan,
) -> Result<ClusterReport> {
    let chaos = plan.compile(cfg)?;
    Ok(drive::<NullSink, ParallelExec>(sim, dataset, arrival, cfg, &chaos, NullSink)?
        .cluster_report())
}

/// [`run_cluster`] with every router and scheduler decision recorded into
/// `sink`: per-device `serve` tracks plus `cluster` tracks for the router
/// and each cell (dispatches, parks, sheds, hedges, deferrals, failovers,
/// retries, autoscaling). Tracing is observational — the report is
/// byte-identical to the untraced run — and traced devices run serially
/// so the sink handle never crosses a thread.
///
/// # Errors
///
/// See [`run_cluster`].
pub fn run_cluster_traced<S: TraceSink + Clone>(
    sim: &InferenceSim,
    dataset: &Dataset,
    arrival: &ArrivalProcess,
    cfg: &ClusterConfig,
    plan: &ChaosPlan,
    sink: S,
) -> Result<ClusterReport> {
    let chaos = plan.compile(cfg)?;
    Ok(drive::<S, SerialExec>(sim, dataset, arrival, cfg, &chaos, sink)?.cluster_report())
}

/// A finished run: final device state plus the router's books, ready to
/// roll up as a cluster report or as a fleet report.
pub(crate) struct Finished<'a, 'c, S: TraceSink> {
    devices: Vec<DeviceSim<'a, S>>,
    router: RouterState<'c, S>,
    arrival: String,
    span_s: f64,
}

/// The driver, generic over the per-device execution strategy `E`.
pub(crate) fn drive<'a, 'c, S: TraceSink + Clone, E: Exec<S>>(
    sim: &'a InferenceSim,
    dataset: &Dataset,
    arrival: &ArrivalProcess,
    cfg: &'c ClusterConfig,
    chaos: &'c CompiledChaos,
    mut sink: S,
) -> Result<Finished<'a, 'c, S>> {
    cfg.validate()?;
    chaos.plan.validate(cfg.total_slots())?;
    let n = dataset.queries.len();
    let times = arrival.sample_times(cfg.serve.seed, n);
    let slots = cfg.total_slots();
    let (track, cell_tracks) = if sink.enabled() {
        let t = sink.track("cluster", "router");
        let cells = (0..cfg.cells).map(|c| sink.track("cluster", &format!("cell{c}"))).collect();
        (t, cells)
    } else {
        (TrackId::default(), Vec::new())
    };
    let mut devices: Vec<DeviceSim<S>> = (0..slots)
        .map(|d| DeviceSim::with_faults_traced(sim, d, cfg.serve, &chaos.plan, sink.clone()))
        .collect();
    let need: Vec<u64> = dataset.queries.iter().map(|q| devices[0].kv_bytes_needed(q)).collect();
    let tenant: Vec<usize> = (0..n as u64).map(|id| cfg.tenant_of(id)).collect();
    let active_from: Vec<f64> =
        (0..slots)
            .map(|d| {
                if d % cfg.max_devices_per_cell < cfg.devices_per_cell {
                    0.0
                } else {
                    f64::INFINITY
                }
            })
            .collect();
    let mut r = RouterState {
        cfg,
        chaos,
        policy: chaos.plan.policy,
        tenant,
        need,
        outstanding: vec![0; cfg.tenants.len()],
        active_from,
        autoscaled: vec![false; slots],
        park: BTreeMap::new(),
        park_seq: 0,
        retryq: BinaryHeap::new(),
        seq: n as u64,
        rr: 0,
        sheds: Vec::new(),
        seen_completed: vec![0; slots],
        seen_shed: vec![0; slots],
        dispatched_per_cell: vec![0; cfg.cells],
        failovers_per_cell: vec![0; cfg.cells],
        retries_per_cell: vec![0; cfg.cells],
        failovers: 0,
        retries: 0,
        deferrals: 0,
        hedges: 0,
        parked_peak: 0,
        samples: Vec::new(),
        next_tick_s: cfg.autoscale.map_or(f64::INFINITY, |p| p.interval_s),
        burn: 0,
        cool: 0,
        scale_outs: 0,
        scale_ins: 0,
        now: 0.0,
        sink,
        track,
        cell_tracks,
    };

    for (i, (q, &t)) in dataset.queries.iter().zip(&times).enumerate() {
        // Fire deferrals and failover retries that come due first.
        while let Some(&Reverse(rt)) = r.retryq.peek() {
            if rt.t_s > t {
                break;
            }
            r.retryq.pop();
            r.settle::<E>(&mut devices, rt.t_s, true);
            r.route_or_park(&mut devices, rt.t_s, rt.req);
        }
        // Advance every device to the arrival instant so both routing
        // tiers and the autoscaler read consistent backlogs, and so due
        // ticks see every completion harvested up to `t` — drain-phase
        // completions land in their tick windows by `done` timestamp.
        r.settle::<E>(&mut devices, t, true);
        let req = Pending { id: i as u64, arrival_s: t, query: *q, attempt: 0, from: 0 };
        r.route_or_park(&mut devices, t, req);
    }
    // Quiesce: drain everything, fail work over as it is lost, and jump
    // parked requests to the next availability boundary until no request
    // is outstanding anywhere. Autoscaling stops with the arrival stream.
    loop {
        E::drain_all(&mut devices);
        r.harvest(&mut devices);
        if let Some(Reverse(rt)) = r.retryq.pop() {
            r.settle::<E>(&mut devices, rt.t_s, false);
            r.route_or_park(&mut devices, rt.t_s, rt.req);
            continue;
        }
        if r.park.is_empty() {
            break;
        }
        match r.next_boundary() {
            Some(b) => r.settle::<E>(&mut devices, b, false),
            None => {
                // No future instant can change admission: everything still
                // parked has permanently lost its capacity.
                let stuck: Vec<Pending> = std::mem::take(&mut r.park).into_values().collect();
                for req in stuck {
                    r.shed(r.now, req, ShedReason::Failed);
                }
            }
        }
    }

    let span_s =
        devices.iter().map(DeviceSim::now_s).fold(times.last().copied().unwrap_or(0.0), f64::max);
    Ok(Finished { devices, router: r, arrival: arrival.to_string(), span_s })
}

impl<S: TraceSink> Finished<'_, '_, S> {
    /// Report identity shared by every roll-up of this run.
    fn meta(&self, offered: usize, failovers: usize, retries: usize) -> ReportMeta {
        let cfg = self.router.cfg;
        ReportMeta {
            strategy: cfg.serve.strategy,
            arrival: self.arrival.clone(),
            routing: cfg.routing,
            offered,
            span_s: self.span_s,
            failovers,
            retries,
            deadline_s: self.router.policy.deadline_s,
        }
    }

    /// One [`ServeReport`] over every device, with the router's sheds
    /// folded in beside the devices' own (each naming the device that
    /// last evicted the request); `offered` is the dataset size.
    pub(crate) fn fleet_report(&self) -> ServeReport {
        let r = &self.router;
        let sheds: Vec<ShedRecord> = r
            .sheds
            .iter()
            .map(|s| ShedRecord {
                id: s.id,
                device: s.device,
                arrival_s: s.arrival_s,
                reason: s.reason,
            })
            .collect();
        ServeReport::assemble(
            &self.devices,
            &sheds,
            &self.meta(r.tenant.len(), r.failovers, r.retries),
        )
    }

    /// Per-cell fleet reports, per-tenant rollups and the cluster totals.
    pub(crate) fn cluster_report(mut self) -> ClusterReport {
        let cfg = self.router.cfg;
        let cap = cfg.max_devices_per_cell;
        let mut cells = Vec::with_capacity(cfg.cells);
        for c in 0..cfg.cells {
            let r = &self.router;
            let meta =
                self.meta(r.dispatched_per_cell[c], r.failovers_per_cell[c], r.retries_per_cell[c]);
            let active =
                (0..cap).filter(|&s| r.active_from[cfg.global_index(c, s)].is_finite()).count();
            cells.push(CellReport {
                cell: c,
                dispatched: r.dispatched_per_cell[c],
                active_devices: active,
                serve: ServeReport::assemble(&self.devices[c * cap..(c + 1) * cap], &[], &meta),
            });
        }
        let r = &mut self.router;

        // Per-tenant rollups: assignment is id-keyed, so completions and
        // sheds attribute exactly regardless of which device finished them.
        let mut t_offered = vec![0usize; cfg.tenants.len()];
        for &tn in &r.tenant {
            t_offered[tn] += 1;
        }
        let mut t_completed = vec![0usize; cfg.tenants.len()];
        let mut t_shed = vec![0usize; cfg.tenants.len()];
        let mut t_ttft: Vec<Vec<f64>> = vec![Vec::new(); cfg.tenants.len()];
        let mut t_ttlt: Vec<Vec<f64>> = vec![Vec::new(); cfg.tenants.len()];
        for cell in &cells {
            for req in &cell.serve.requests {
                let tn = r.tenant[req.id as usize];
                t_completed[tn] += 1;
                t_ttft[tn].push(req.ttft_ms);
                t_ttlt[tn].push(req.ttlt_ms);
            }
            for s in &cell.serve.sheds {
                t_shed[r.tenant[s.id as usize]] += 1;
            }
        }
        for s in &r.sheds {
            t_shed[s.tenant] += 1;
        }
        let tenants: Vec<TenantReport> = cfg
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| TenantReport {
                name: t.name.clone(),
                priority: t.priority,
                offered: t_offered[i],
                completed: t_completed[i],
                shed: t_shed[i],
                ttft_ms: Summary::from_unsorted(std::mem::take(&mut t_ttft[i])),
                ttlt_ms: Summary::from_unsorted(std::mem::take(&mut t_ttlt[i])),
            })
            .collect();

        let n = r.tenant.len();
        let span_s = self.span_s;
        let slots = cfg.total_slots();
        let completed: usize = cells.iter().map(|c| c.serve.completed).sum();
        let device_shed: usize = cells.iter().map(|c| c.serve.shed).sum();
        let mut sheds = std::mem::take(&mut r.sheds);
        sheds.sort_by_key(|s| s.id);
        let by_reason = |reason: ShedReason| sheds.iter().filter(|s| s.reason == reason).count();
        let mut all_ttft = Vec::with_capacity(completed);
        let mut all_ttlt = Vec::with_capacity(completed);
        for cell in &cells {
            for req in &cell.serve.requests {
                all_ttft.push(req.ttft_ms);
                all_ttlt.push(req.ttlt_ms);
            }
        }
        let downtime_s: f64 = cells.iter().map(|c| c.serve.downtime_s).sum();
        let availability = if span_s > 0.0 && slots > 0 {
            (1.0 - downtime_s / (span_s * slots as f64)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let per_qps = |count: usize| if span_s > 0.0 { count as f64 / span_s } else { 0.0 };
        ClusterReport {
            cells_configured: cfg.cells,
            devices_initial: cfg.cells * cfg.devices_per_cell,
            devices_final: r.active_from.iter().filter(|a| a.is_finite()).count(),
            offered: n,
            completed,
            shed: device_shed + sheds.len(),
            shed_overload: by_reason(ShedReason::Overload),
            shed_quota: by_reason(ShedReason::QuotaExceeded),
            shed_failed: by_reason(ShedReason::Failed),
            shed_deadline: by_reason(ShedReason::DeadlineExpired),
            shed_device: device_shed,
            span_s,
            offered_qps: per_qps(n),
            goodput_qps: per_qps(completed),
            availability,
            failovers: r.failovers,
            retries: r.retries,
            deferrals: r.deferrals,
            hedges: r.hedges,
            parked_peak: r.parked_peak,
            scale_outs: r.scale_outs,
            scale_ins: r.scale_ins,
            ttft_ms: Summary::from_unsorted(all_ttft),
            ttlt_ms: Summary::from_unsorted(all_ttlt),
            tenants,
            cells,
            sheds,
        }
    }
}
