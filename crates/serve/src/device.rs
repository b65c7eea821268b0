//! One device running the continuous-batching scheduler.
//!
//! The device advances in *iterations* (Sarathi/Orca-style iteration-level
//! scheduling): each iteration executes one prefill chunk of the oldest
//! admitted-but-unprefetched request plus one batched decode step for every
//! in-flight decoding request, costed by the [`InferenceSim`] timing oracle
//! with one call per phase ([`InferenceSim::prefill_chunk_ns`] and
//! [`InferenceSim::decode_batch_ns`], both told whether the PIM is down).
//! New requests therefore reach their first token without waiting for the
//! whole backlog to finish decoding. With `max_batch: 1` and
//! `chunk_tokens: u64::MAX` the same scheduler *is* FCFS
//! run-to-completion: each request runs its whole prefill, then every
//! decode step, before the next one is admitted. The `facil-serve`
//! acceptance test `batch_of_one_is_fcfs_run_to_completion` pins every
//! request of such a run to the closed-form recurrence
//! `start = max(arrival, previous finish)` over
//! [`InferenceSim::run_query`].
//!
//! Admission control reserves the request's *entire* worst-case KV
//! footprint (prefill + decode tokens) from a [`FacilSystem`] whose
//! physical memory is prepared at a configurable FMFI, so slab allocations
//! pay realistic huge-page compaction (the paper's Table I mechanism).
//! Reserving up-front makes the scheduler deadlock-free: an admitted
//! request can always run to completion, so `completed + shed == offered`.
//!
//! # Fault behaviour
//!
//! A device built with [`DeviceSim::with_faults`] honours its slice of a
//! [`FaultPlan`]:
//!
//! - **Crash** windows evict every pending and in-flight request (KV
//!   released, progress lost) into the eviction buffer the serving driver
//!   harvests with [`DeviceSim::take_evicted`]; a permanent crash leaves
//!   the device dead.
//! - **Freeze** windows stall the clock without losing state.
//! - **PIM-fault** windows switch iteration costing to *degraded mode*:
//!   FACIL strategies keep serving immediately at SoC GEMV speed (their
//!   layout is SoC-readable, paying only the small Table III penalty),
//!   while hybrid baselines are charged a full weight re-layout on entry
//!   *and* on exit of the window
//!   ([`InferenceSim::degraded_relayout_ns`]).
//! - **KV-fault** windows block admission; in-flight requests keep their
//!   reservations and keep running.
//!
//! Faults take effect at iteration boundaries (iterations are atomic), so
//! every run remains deterministic for a fixed plan.

use std::collections::VecDeque;

use facil_core::paging::LoadCostModel;
use facil_core::{
    DType, FacilError, FacilSystem, MatrixConfig, PagedKvCache, Result, HUGE_PAGE_BYTES,
};
use facil_sim::{InferenceSim, Strategy};
use facil_telemetry::{ArgValue, NullSink, TraceSink, TrackId};
use facil_workloads::Query;

use crate::faults::{FaultKind, FaultPlan};
use crate::metrics::{DeviceReport, QueueSample};
use crate::request::{RequestRecord, ShedReason, ShedRecord};

/// Knobs of the continuous-batching scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Execution strategy the timing oracle runs.
    pub strategy: Strategy,
    /// Seed for the arrival process (consumed by the serving driver).
    pub seed: u64,
    /// Admission-queue bound; arrivals beyond it are shed (`QueueFull`).
    pub queue_cap: usize,
    /// Maximum concurrently admitted (prefilling + decoding) requests.
    pub max_batch: usize,
    /// Prefill tokens processed per iteration for the request being
    /// prefilled (the chunked-prefill knob).
    pub chunk_tokens: u64,
    /// KV-cache budget in bytes; 0 means "whatever the device's memory has
    /// left after the model weights".
    pub kv_budget_bytes: u64,
    /// Free-memory fragmentation index the physical allocator is prepared
    /// at — KV slab allocations above 0 pay huge-page compaction.
    pub fmfi: f64,
}

impl ServeConfig {
    /// Check the scheduler knobs. `queue_cap: 0` is legal: such a device
    /// sheds every arrival (`QueueFull`).
    ///
    /// # Errors
    ///
    /// [`FacilError::InvalidRequest`] on a zero `max_batch` or
    /// `chunk_tokens`, or an `fmfi` that is not a finite value in
    /// `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if self.max_batch == 0 || self.chunk_tokens == 0 {
            return Err(FacilError::InvalidRequest(format!(
                "max_batch {} and chunk_tokens {} must be at least 1",
                self.max_batch, self.chunk_tokens
            )));
        }
        if !(0.0..=1.0).contains(&self.fmfi) {
            return Err(FacilError::InvalidRequest(format!(
                "fmfi {} must be finite and in [0, 1]",
                self.fmfi
            )));
        }
        Ok(())
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            strategy: Strategy::FacilDynamic,
            seed: 1,
            queue_cap: 64,
            max_batch: 8,
            chunk_tokens: 64,
            kv_budget_bytes: 0,
            fmfi: 0.25,
        }
    }
}

/// A request waiting for admission.
#[derive(Debug, Clone, Copy)]
struct PendingReq {
    id: u64,
    arrival_s: f64,
    query: Query,
    attempt: u32,
}

/// An admitted request (KV fully reserved) in prefill or decode phase.
#[derive(Debug)]
struct ActiveReq {
    id: u64,
    arrival_s: f64,
    admitted_s: f64,
    query: Query,
    kv: PagedKvCache,
    prefill_done: u64,
    decoded: u64,
    first_token_s: f64,
    last_token_s: f64,
    attempt: u32,
}

/// A request this device lost to a crash; the serving driver re-queues it on
/// a survivor (or sheds it as [`ShedReason::Failed`] once the retry budget
/// is exhausted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvictedReq {
    /// Request id.
    pub id: u64,
    /// Original arrival time, seconds (latencies keep counting from here).
    pub arrival_s: f64,
    /// When the device lost it, seconds.
    pub evicted_s: f64,
    /// Failover attempts already consumed (before this eviction).
    pub attempt: u32,
    /// The query itself, so it can be replayed elsewhere.
    pub query: Query,
}

/// A device outage interval (`end == f64::INFINITY` for a permanent
/// crash).
#[derive(Debug, Clone, Copy)]
struct OutageWindow {
    start: f64,
    end: f64,
    crash: bool,
}

/// One simulated device: queues, KV memory, the iteration clock, and its
/// slice of the fault schedule.
///
/// The sink type parameter records scheduler decisions (admission, sheds,
/// batch formation, degraded-mode transitions, outages) as trace events on
/// a per-device `serve` track; the default [`NullSink`] compiles the
/// instrumentation away, and tracing never changes simulated timing.
#[derive(Debug)]
pub struct DeviceSim<'a, S: TraceSink = NullSink> {
    sim: &'a InferenceSim,
    cfg: ServeConfig,
    device: usize,
    sys: FacilSystem,
    kv_budget: u64,
    kv_layers: u64,
    kv_dim: u64,
    kv_dtype: DType,
    slab_tokens: u64,
    slab_set_bytes: u64,
    compact_cost: LoadCostModel,
    now_s: f64,
    busy_s: f64,
    kv_compact_s: f64,
    pending: VecDeque<PendingReq>,
    prefilling: VecDeque<ActiveReq>,
    decoding: Vec<ActiveReq>,
    completed: Vec<RequestRecord>,
    shed: Vec<ShedRecord>,
    tbt_ms: Vec<f64>,
    queue_peak: usize,
    kv_peak_bytes: u64,
    iterations: u64,
    decode_tokens: u64,
    prefill_chunks: u64,
    series: Vec<QueueSample>,
    // Fault state.
    deadline_s: f64,
    outages: Vec<OutageWindow>,
    pim_windows: Vec<(f64, f64)>,
    kv_windows: Vec<(f64, f64)>,
    slow_windows: Vec<(f64, f64, f64)>,
    next_outage: usize,
    dead: bool,
    in_degraded: bool,
    degraded_s: f64,
    relayout_stall_s: f64,
    slow_s: f64,
    crashes: usize,
    evicted: Vec<EvictedReq>,
    evicted_total: usize,
    // Tracing.
    sink: S,
    track: TrackId,
}

impl<'a> DeviceSim<'a> {
    /// Build a fault-free device around the timing oracle `sim`, preparing
    /// its physical memory at the configured occupancy and FMFI.
    pub fn new(sim: &'a InferenceSim, device: usize, cfg: ServeConfig) -> Self {
        DeviceSim::with_faults(sim, device, cfg, &FaultPlan::none())
    }

    /// Build a device that honours its slice of `plan` (events whose
    /// `device` field matches). The plan is assumed validated
    /// ([`FaultPlan::validate`]).
    pub fn with_faults(
        sim: &'a InferenceSim,
        device: usize,
        cfg: ServeConfig,
        plan: &FaultPlan,
    ) -> Self {
        DeviceSim::with_faults_traced(sim, device, cfg, plan, NullSink)
    }
}

impl<'a, S: TraceSink> DeviceSim<'a, S> {
    /// Build a device that records its scheduler decisions into `sink` on a
    /// `serve`-process track named `device<N>`. Tracing is observational:
    /// the schedule and every latency are identical to the untraced device.
    ///
    /// # Panics
    ///
    /// If `cfg` fails [`ServeConfig::validate`]; the serving driver
    /// returns that error instead of building a device.
    pub fn with_faults_traced(
        sim: &'a InferenceSim,
        device: usize,
        cfg: ServeConfig,
        plan: &FaultPlan,
        mut sink: S,
    ) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let track = if sink.enabled() {
            sink.track("serve", &format!("device{device}"))
        } else {
            TrackId::default()
        };
        let platform = sim.platform();
        let model = sim.model();
        let mut sys = FacilSystem::new(platform.dram.clone(), platform.pim_arch);
        let capacity = sys.free_bytes();
        let kv_dim = model.kv_heads * model.head_dim();
        let kv_dtype = match model.elem_bytes {
            1 => DType::I8,
            4 => DType::F32,
            _ => DType::F16,
        };
        let slab_tokens = PagedKvCache::new(model.layers, kv_dim, kv_dtype).slab_tokens();
        let slab_bytes = MatrixConfig::new(slab_tokens, kv_dim, kv_dtype)
            .padded_bytes()
            .div_ceil(HUGE_PAGE_BYTES)
            * HUGE_PAGE_BYTES;
        let slab_set_bytes = slab_bytes * model.layers * 2;
        // Everything that is not KV budget counts as occupied (weights, OS,
        // other apps); fragmenting it at the target FMFI makes KV slab
        // allocations pay the compaction the paper measures in Table I.
        let occupied = if cfg.kv_budget_bytes == 0 {
            sim.weight_bytes().min(capacity)
        } else {
            capacity.saturating_sub(cfg.kv_budget_bytes)
        };
        sys.fragment_physical(occupied, cfg.fmfi);
        let kv_budget = sys.free_bytes();
        let mut outages = Vec::new();
        let mut pim_windows = Vec::new();
        let mut kv_windows = Vec::new();
        let mut slow_windows = Vec::new();
        for e in plan.events.iter().filter(|e| e.device == device) {
            match e.kind {
                FaultKind::Crash { recover_s } => outages.push(OutageWindow {
                    start: e.at_s,
                    end: recover_s.map_or(f64::INFINITY, |r| e.at_s + r),
                    crash: true,
                }),
                FaultKind::Freeze { duration_s } => outages.push(OutageWindow {
                    start: e.at_s,
                    end: e.at_s + duration_s,
                    crash: false,
                }),
                FaultKind::PimFault { duration_s } => {
                    pim_windows.push((e.at_s, e.at_s + duration_s))
                }
                FaultKind::KvFault { duration_s } => kv_windows.push((e.at_s, e.at_s + duration_s)),
                FaultKind::Slow { duration_s, factor } => {
                    slow_windows.push((e.at_s, e.at_s + duration_s, factor))
                }
            }
        }
        // Stable sorts keep the plan's order for coincident faults, so the
        // schedule stays deterministic.
        outages.sort_by(|a, b| a.start.total_cmp(&b.start));
        pim_windows.sort_by(|a, b| a.0.total_cmp(&b.0));
        kv_windows.sort_by(|a, b| a.0.total_cmp(&b.0));
        slow_windows.sort_by(|a, b| a.0.total_cmp(&b.0));
        DeviceSim {
            sim,
            cfg,
            device,
            sys,
            kv_budget,
            kv_layers: model.layers,
            kv_dim,
            kv_dtype,
            slab_tokens,
            slab_set_bytes,
            compact_cost: LoadCostModel::default(),
            now_s: 0.0,
            busy_s: 0.0,
            kv_compact_s: 0.0,
            pending: VecDeque::new(),
            prefilling: VecDeque::new(),
            decoding: Vec::new(),
            completed: Vec::new(),
            shed: Vec::new(),
            tbt_ms: Vec::new(),
            queue_peak: 0,
            kv_peak_bytes: 0,
            iterations: 0,
            decode_tokens: 0,
            prefill_chunks: 0,
            series: Vec::new(),
            deadline_s: plan.policy.deadline_s,
            outages,
            pim_windows,
            kv_windows,
            slow_windows,
            next_outage: 0,
            dead: false,
            in_degraded: false,
            degraded_s: 0.0,
            relayout_stall_s: 0.0,
            slow_s: 0.0,
            crashes: 0,
            evicted: Vec::new(),
            evicted_total: 0,
            sink,
            track,
        }
    }

    /// Simulated time, seconds.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Time spent executing iterations (vs idle), seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_s
    }

    /// KV bytes currently reserved.
    pub fn kv_in_use(&self) -> u64 {
        self.kv_budget - self.sys.free_bytes()
    }

    /// Total KV budget of this device, bytes.
    pub fn kv_budget(&self) -> u64 {
        self.kv_budget
    }

    /// Completed requests so far.
    pub fn completed(&self) -> &[RequestRecord] {
        &self.completed
    }

    /// Shed requests so far.
    pub fn shed(&self) -> &[ShedRecord] {
        &self.shed
    }

    /// Inter-token latencies collected so far, ms.
    pub fn tbt_ms(&self) -> &[f64] {
        &self.tbt_ms
    }

    /// True if the device can accept a request arriving at `t_s` (alive
    /// and not inside an outage window).
    pub fn accepts(&self, t_s: f64) -> bool {
        !self.dead && !self.outages.iter().any(|w| w.start <= t_s && t_s < w.end)
    }

    /// True once a permanent crash has taken the device down for good.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Drain the requests lost to crashes since the last harvest.
    pub fn take_evicted(&mut self) -> Vec<EvictedReq> {
        std::mem::take(&mut self.evicted)
    }

    /// Seconds served in degraded (PIM-down) mode so far.
    pub fn degraded_s(&self) -> f64 {
        self.degraded_s
    }

    /// Seconds served inside gray-failure (slow-node) windows so far.
    pub fn slow_s(&self) -> f64 {
        self.slow_s
    }

    /// Worst-case KV footprint of `q` in bytes: whole slab sets covering
    /// `prefill + decode` tokens across every layer's K and V halves.
    pub fn kv_bytes_needed(&self, q: &Query) -> u64 {
        let tokens = q.prefill.max(1) + q.decode;
        tokens.div_ceil(self.slab_tokens) * self.slab_set_bytes
    }

    /// Outstanding work in tokens (queued + admitted, prefill + decode) —
    /// the load signal the least-loaded router reads.
    pub fn backlog_tokens(&self) -> u64 {
        let pending: u64 =
            self.pending.iter().map(|p| p.query.prefill.max(1) + p.query.decode).sum();
        let prefilling: u64 = self
            .prefilling
            .iter()
            .map(|r| (r.query.prefill.max(1) - r.prefill_done) + r.query.decode)
            .sum();
        let decoding: u64 = self.decoding.iter().map(|r| r.query.decode - r.decoded).sum();
        pending + prefilling + decoding
    }

    fn active_count(&self) -> usize {
        self.prefilling.len() + self.decoding.len()
    }

    fn has_active(&self) -> bool {
        self.active_count() > 0
    }

    /// First PIM-fault window containing `t`, if any.
    fn pim_down_at(&self, t: f64) -> bool {
        self.pim_windows.iter().any(|&(s, e)| s <= t && t < e)
    }

    /// End of the KV-fault window containing `t`, if admission is blocked.
    fn kv_block_end(&self, t: f64) -> Option<f64> {
        self.kv_windows.iter().find(|&&(s, e)| s <= t && t < e).map(|&(_, e)| e)
    }

    /// Iteration-time multiplier at `t` (1.0 when healthy). Overlapping
    /// gray-failure windows compound multiplicatively.
    fn slow_factor_at(&self, t: f64) -> f64 {
        self.slow_windows.iter().filter(|&&(s, e, _)| s <= t && t < e).map(|&(_, _, f)| f).product()
    }

    /// Trace a shed decision as an instant event on the device track.
    fn record_shed(&mut self, t_s: f64, id: u64, reason: ShedReason) {
        self.sink.instant(
            self.track,
            "shed",
            t_s * 1e9,
            &[("id", ArgValue::U64(id)), ("reason", ArgValue::Str(reason.as_str()))],
        );
    }

    /// Offer a request arriving at `t_s`. It is queued, or shed with a
    /// recorded reason — never silently dropped.
    pub fn enqueue(&mut self, t_s: f64, id: u64, query: Query) {
        self.enqueue_attempt(t_s, t_s, id, query, 0);
    }

    /// Offer a (possibly re-queued) request landing on this device at
    /// `t_s`; `arrival_s` is the original fleet arrival time latencies are
    /// measured from, and `attempt` counts earlier failovers.
    pub fn enqueue_attempt(
        &mut self,
        t_s: f64,
        arrival_s: f64,
        id: u64,
        query: Query,
        attempt: u32,
    ) {
        if self.dead {
            // Defensive: the driver routes around dead devices, but a direct
            // caller must not lose the request either.
            self.evicted.push(EvictedReq { id, arrival_s, evicted_s: t_s, attempt, query });
            self.evicted_total += 1;
            return;
        }
        if !self.has_active() && self.pending.is_empty() {
            self.jump_idle_to(t_s);
            if self.dead {
                self.evicted.push(EvictedReq { id, arrival_s, evicted_s: t_s, attempt, query });
                self.evicted_total += 1;
                return;
            }
        }
        if self.kv_bytes_needed(&query) > self.kv_budget {
            self.record_shed(t_s, id, ShedReason::Oversized);
            self.shed.push(ShedRecord {
                id,
                device: self.device,
                arrival_s,
                reason: ShedReason::Oversized,
            });
            return;
        }
        if self.pending.len() >= self.cfg.queue_cap {
            self.record_shed(t_s, id, ShedReason::QueueFull);
            self.shed.push(ShedRecord {
                id,
                device: self.device,
                arrival_s,
                reason: ShedReason::QueueFull,
            });
            return;
        }
        self.pending.push_back(PendingReq { id, arrival_s, query, attempt });
        self.queue_peak = self.queue_peak.max(self.pending.len());
    }

    /// Admit head-of-line requests while batch slots and KV memory allow.
    ///
    /// Admission is strict FCFS (no bypass): when the head does not fit the
    /// free KV budget it *waits* for in-flight requests to release theirs —
    /// except on an idle device, where waiting could never help, so the
    /// head is shed (`NoMemory`) and the queue keeps making progress.
    /// Requests whose deadline already passed are shed (`DeadlineExpired`)
    /// instead of admitted, and a KV-fault window pauses admission
    /// entirely.
    fn try_admit(&mut self) {
        while self.active_count() < self.cfg.max_batch {
            let Some(&front) = self.pending.front() else { return };
            if self.deadline_s > 0.0 && self.now_s > front.arrival_s + self.deadline_s {
                self.pending.pop_front();
                self.record_shed(self.now_s, front.id, ShedReason::DeadlineExpired);
                self.shed.push(ShedRecord {
                    id: front.id,
                    device: self.device,
                    arrival_s: front.arrival_s,
                    reason: ShedReason::DeadlineExpired,
                });
                continue;
            }
            if self.kv_block_end(self.now_s).is_some() {
                return;
            }
            let tokens = front.query.prefill.max(1) + front.query.decode;
            let stats_before = self.sys.alloc_stats();
            let mut kv = PagedKvCache::new(self.kv_layers, self.kv_dim, self.kv_dtype);
            match kv.append(&mut self.sys, tokens) {
                Ok(()) => {
                    // Huge-page compaction performed for this reservation is
                    // real work: charge it to the clock (the FMFI knob's
                    // visible cost).
                    let moved = self.sys.alloc_stats().frames_moved - stats_before.frames_moved;
                    let compact_s = moved as f64 * self.compact_cost.per_frame_moved;
                    self.now_s += compact_s;
                    self.busy_s += compact_s;
                    self.kv_compact_s += compact_s;
                    self.pending.pop_front();
                    self.kv_peak_bytes = self.kv_peak_bytes.max(self.kv_in_use());
                    self.sink.instant(
                        self.track,
                        "admit",
                        self.now_s * 1e9,
                        &[
                            ("id", ArgValue::U64(front.id)),
                            ("prefill", ArgValue::U64(front.query.prefill)),
                            ("decode", ArgValue::U64(front.query.decode)),
                        ],
                    );
                    self.prefilling.push_back(ActiveReq {
                        id: front.id,
                        arrival_s: front.arrival_s,
                        admitted_s: self.now_s.max(front.arrival_s),
                        query: front.query,
                        kv,
                        prefill_done: 0,
                        decoded: 0,
                        first_token_s: 0.0,
                        last_token_s: 0.0,
                        attempt: front.attempt,
                    });
                }
                Err(_) => {
                    if self.active_count() == 0 {
                        self.pending.pop_front();
                        self.record_shed(self.now_s, front.id, ShedReason::NoMemory);
                        self.shed.push(ShedRecord {
                            id: front.id,
                            device: self.device,
                            arrival_s: front.arrival_s,
                            reason: ShedReason::NoMemory,
                        });
                    } else {
                        return;
                    }
                }
            }
        }
    }

    /// Execute one iteration: a prefill chunk for the oldest prefilling
    /// request plus one batched decode step for every decoding request.
    /// Inside a PIM-fault window the iteration is costed in degraded mode,
    /// and entering/leaving the window charges the strategy's re-layout
    /// stall (zero for FACIL, a full weight re-layout for hybrid).
    fn step(&mut self) {
        debug_assert!(self.has_active(), "step requires admitted work");
        let degraded = self.pim_down_at(self.now_s);
        if degraded != self.in_degraded {
            let stall = self.sim.degraded_relayout_ns(self.cfg.strategy) / 1e9;
            self.sink.instant(
                self.track,
                if degraded { "degraded-enter" } else { "degraded-exit" },
                self.now_s * 1e9,
                &[],
            );
            if stall > 0.0 {
                self.sink.complete(
                    self.track,
                    "relayout-stall",
                    self.now_s * 1e9,
                    stall * 1e9,
                    &[],
                );
            }
            self.now_s += stall;
            self.busy_s += stall;
            self.relayout_stall_s += stall;
            self.in_degraded = degraded;
        }
        let ctxs: Vec<u64> =
            self.decoding.iter().map(|r| r.query.prefill.max(1) + r.decoded).collect();
        let decode_ns = self.sim.decode_batch_ns(self.cfg.strategy, degraded, &ctxs);
        let chunk = self.prefilling.front().map(|r| {
            let total = r.query.prefill.max(1);
            let len = self.cfg.chunk_tokens.min(total - r.prefill_done);
            (r.prefill_done, len, total)
        });
        let prefill_ns = chunk.map_or(0.0, |(start, len, total)| {
            self.sim.prefill_chunk_ns(self.cfg.strategy, degraded, start, len, total)
        });
        // Gray failure: a slow node keeps serving, but every iteration takes
        // `factor`× its healthy time while the window is open.
        let slow = self.slow_factor_at(self.now_s);
        let dt = (decode_ns + prefill_ns) / 1e9 * slow;
        self.sink.complete(
            self.track,
            "batch",
            self.now_s * 1e9,
            dt * 1e9,
            &[
                ("decode", ArgValue::U64(ctxs.len() as u64)),
                ("prefill", ArgValue::U64(chunk.map_or(0, |(_, len, _)| len))),
                ("degraded", ArgValue::U64(u64::from(degraded))),
                ("slow", ArgValue::U64(u64::from(slow > 1.0))),
            ],
        );
        self.now_s += dt;
        self.busy_s += dt;
        if degraded {
            self.degraded_s += dt;
        }
        if slow > 1.0 {
            self.slow_s += dt;
        }
        self.iterations += 1;
        self.decode_tokens += ctxs.len() as u64;
        self.prefill_chunks += u64::from(chunk.is_some());
        let now = self.now_s;

        // Every decoding request emits one token this iteration.
        let mut i = 0;
        while i < self.decoding.len() {
            let r = &mut self.decoding[i];
            r.decoded += 1;
            let tbt = (now - r.last_token_s) * 1e3;
            r.last_token_s = now;
            let done = r.decoded >= r.query.decode;
            self.tbt_ms.push(tbt);
            if done {
                let mut r = self.decoding.swap_remove(i);
                r.kv.free(&mut self.sys);
                self.finish(r, now);
            } else {
                i += 1;
            }
        }

        // The prefill chunk completes; a finished prefill emits the first
        // token and moves to the decode set.
        if let Some((_, len, total)) = chunk {
            let finished = match self.prefilling.front_mut() {
                Some(head) => {
                    head.prefill_done += len;
                    head.prefill_done >= total
                }
                None => false,
            };
            if finished {
                if let Some(mut r) = self.prefilling.pop_front() {
                    r.first_token_s = now;
                    r.last_token_s = now;
                    if r.query.decode == 0 {
                        r.kv.free(&mut self.sys);
                        self.finish(r, now);
                    } else {
                        self.decoding.push(r);
                    }
                }
            }
        }

        self.series.push(QueueSample {
            t_s: now,
            queued: self.pending.len(),
            active: self.active_count(),
            kv_bytes: self.kv_in_use(),
        });
    }

    fn finish(&mut self, r: ActiveReq, now: f64) {
        self.completed.push(RequestRecord {
            id: r.id,
            device: self.device,
            arrival_s: r.arrival_s,
            admitted_s: r.admitted_s,
            ttft_ms: (r.first_token_s - r.arrival_s) * 1e3,
            ttlt_ms: (now - r.arrival_s) * 1e3,
            prefill: r.query.prefill,
            decode: r.query.decode,
            retries: r.attempt,
        });
    }

    /// Move every queued and in-flight request to the eviction buffer (KV
    /// released, progress lost).
    fn evict_all(&mut self, t_s: f64) {
        for p in self.pending.drain(..) {
            self.evicted.push(EvictedReq {
                id: p.id,
                arrival_s: p.arrival_s,
                evicted_s: t_s,
                attempt: p.attempt,
                query: p.query,
            });
        }
        for mut r in self.prefilling.drain(..).chain(self.decoding.drain(..)) {
            r.kv.free(&mut self.sys);
            self.evicted.push(EvictedReq {
                id: r.id,
                arrival_s: r.arrival_s,
                evicted_s: t_s,
                attempt: r.attempt,
                query: r.query,
            });
        }
    }

    /// Apply the next outage window once the clock has crossed its start.
    /// Returns true if any state changed (caller re-evaluates its loop).
    fn process_outage(&mut self) -> bool {
        let Some(&w) = self.outages.get(self.next_outage) else { return false };
        if self.now_s < w.start {
            return false;
        }
        self.next_outage += 1;
        if w.crash {
            self.crashes += 1;
            let before = self.evicted.len();
            self.evict_all(self.now_s);
            let lost = self.evicted.len() - before;
            self.evicted_total += lost;
            self.sink.instant(
                self.track,
                "crash",
                self.now_s * 1e9,
                &[
                    ("evicted", ArgValue::U64(lost as u64)),
                    ("permanent", ArgValue::U64(u64::from(!w.end.is_finite()))),
                ],
            );
            if w.end.is_finite() {
                self.now_s = self.now_s.max(w.end);
            } else {
                self.dead = true;
            }
        } else if self.now_s < w.end {
            // Freeze: the clock stalls (no busy time), nothing is lost.
            self.sink.complete(
                self.track,
                "freeze",
                self.now_s * 1e9,
                (w.end - self.now_s) * 1e9,
                &[],
            );
            self.now_s = w.end;
        }
        true
    }

    /// Jump an *empty* device's clock forward to `t_s`, stepping over any
    /// outage windows on the way (nothing is present to evict; a permanent
    /// crash on the way still kills the device).
    fn jump_idle_to(&mut self, t_s: f64) {
        debug_assert!(!self.has_active() && self.pending.is_empty());
        while let Some(&w) = self.outages.get(self.next_outage) {
            if w.start > t_s.max(self.now_s) {
                break;
            }
            self.next_outage += 1;
            if w.crash {
                self.crashes += 1;
            }
            if w.end.is_infinite() {
                self.dead = true;
                self.now_s = self.now_s.max(w.start);
                return;
            }
            self.now_s = self.now_s.max(w.end);
        }
        self.now_s = self.now_s.max(t_s);
    }

    /// Run the scheduler until the clock reaches `limit` or there is
    /// nothing left to do (`limit` may be infinite for a drain).
    fn run_until(&mut self, limit: f64) {
        loop {
            if self.dead {
                return;
            }
            if self.process_outage() {
                continue;
            }
            self.try_admit();
            if self.has_active() {
                if self.now_s >= limit {
                    return;
                }
                self.step();
                continue;
            }
            if !self.pending.is_empty() {
                // Head blocked by a KV-fault window on an idle device: jump
                // to the unblock point (bounded by the limit).
                if let Some(end) = self.kv_block_end(self.now_s) {
                    let target = end.min(limit);
                    if target > self.now_s {
                        self.now_s = target;
                        continue;
                    }
                }
                return;
            }
            if self.now_s < limit && limit.is_finite() {
                self.jump_idle_to(limit);
            }
            return;
        }
    }

    /// Run iterations until the clock reaches `t_s` or the device runs out
    /// of admitted work (an idle device jumps its clock forward to `t_s`).
    pub fn advance_until(&mut self, t_s: f64) {
        self.run_until(t_s);
    }

    /// Run every queued and admitted request to completion (or eviction).
    pub fn drain(&mut self) {
        self.run_until(f64::INFINITY);
    }

    /// Per-device report; `span_s` is the fleet-wide wall-clock span the
    /// utilization is normalized against.
    pub fn report(&self, span_s: f64) -> DeviceReport {
        let stats = self.sys.alloc_stats();
        // Downsample the per-iteration series to a bounded time series.
        let stride = self.series.len().div_ceil(240).max(1);
        let queue_depth: Vec<QueueSample> = self.series.iter().step_by(stride).copied().collect();
        // `+ 0.0` turns the empty sum's -0.0 identity into 0.0; `max(0.0)`
        // may return either zero, and debug and release builds differ.
        let down_s: f64 = self
            .outages
            .iter()
            .map(|w| (w.end.min(span_s) - w.start.min(span_s)).max(0.0))
            .sum::<f64>()
            + 0.0;
        // Zero-span runs have no observed device-time: report 0.0 rather
        // than a vacuous 1.0 (same discipline as `DramStats::hit_rate`).
        let uptime = if span_s > 0.0 { (1.0 - down_s / span_s).clamp(0.0, 1.0) } else { 0.0 };
        DeviceReport {
            device: self.device,
            completed: self.completed.len(),
            shed: self.shed.len(),
            utilization: if span_s > 0.0 { self.busy_s / span_s } else { 0.0 },
            queue_peak: self.queue_peak,
            kv_budget_bytes: self.kv_budget,
            kv_peak_bytes: self.kv_peak_bytes,
            kv_compact_s: self.kv_compact_s,
            kv_pages_direct: stats.pages_direct,
            kv_pages_compacted: stats.pages_compacted,
            kv_frames_moved: stats.frames_moved,
            iterations: self.iterations,
            mean_batch: if self.iterations == 0 {
                0.0
            } else {
                (self.decode_tokens + self.prefill_chunks) as f64 / self.iterations as f64
            },
            uptime,
            down_s,
            degraded_s: self.degraded_s,
            relayout_stall_s: self.relayout_stall_s,
            slow_s: self.slow_s,
            crashes: self.crashes,
            evicted: self.evicted_total,
            queue_depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultEvent;
    use facil_soc::{Platform, PlatformId};
    use std::sync::OnceLock;

    fn sim() -> &'static InferenceSim {
        static SIM: OnceLock<InferenceSim> = OnceLock::new();
        SIM.get_or_init(|| InferenceSim::new(Platform::get(PlatformId::Iphone)).unwrap())
    }

    fn unfragmented() -> ServeConfig {
        ServeConfig { fmfi: 0.0, ..ServeConfig::default() }
    }

    fn plan_with(events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan { events, ..FaultPlan::none() }
    }

    #[test]
    fn lone_request_matches_engine_timings() {
        // With the chunk larger than the prompt and nothing else in flight,
        // the iteration scheduler degenerates to the engine's run_query.
        let cfg = ServeConfig { chunk_tokens: 4096, ..unfragmented() };
        let q = Query { prefill: 64, decode: 8 };
        for strategy in [Strategy::FacilStatic, Strategy::HybridStatic, Strategy::SocOnly] {
            let mut dev = DeviceSim::new(sim(), 0, ServeConfig { strategy, ..cfg });
            dev.enqueue(0.0, 0, q);
            dev.drain();
            let r = dev.completed()[0];
            let iso = sim().run_query(strategy, q);
            let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
            assert!(rel(r.ttft_ms, iso.ttft_ns / 1e6) < 1e-9, "{strategy}: ttft");
            assert!(rel(r.ttlt_ms, iso.ttlt_ns / 1e6) < 1e-9, "{strategy}: ttlt");
        }
    }

    #[test]
    fn chunking_never_beats_whole_prefill_for_a_lone_request() {
        let q = Query { prefill: 100, decode: 4 };
        let mut whole =
            DeviceSim::new(sim(), 0, ServeConfig { chunk_tokens: 4096, ..unfragmented() });
        whole.enqueue(0.0, 0, q);
        whole.drain();
        let mut chunked =
            DeviceSim::new(sim(), 0, ServeConfig { chunk_tokens: 16, ..unfragmented() });
        chunked.enqueue(0.0, 0, q);
        chunked.drain();
        assert_eq!(chunked.completed().len(), 1);
        assert!(chunked.completed()[0].ttft_ms >= whole.completed()[0].ttft_ms - 1e-9);
    }

    #[test]
    fn queue_cap_sheds_excess_arrivals() {
        let cfg = ServeConfig { queue_cap: 4, ..unfragmented() };
        let mut dev = DeviceSim::new(sim(), 0, cfg);
        let q = Query { prefill: 16, decode: 4 };
        for id in 0..10 {
            dev.enqueue(0.0, id, q);
        }
        // No admission ran between the back-to-back arrivals, so exactly
        // queue_cap requests survive.
        assert_eq!(dev.shed().len(), 6);
        assert!(dev.shed().iter().all(|s| s.reason == ShedReason::QueueFull));
        dev.drain();
        assert_eq!(dev.completed().len() + dev.shed().len(), 10);
        assert_eq!(dev.completed().len(), 4);
    }

    #[test]
    fn oversized_request_is_shed_up_front() {
        // A budget smaller than one slab set can never host any request.
        let cfg = ServeConfig { kv_budget_bytes: 4 << 20, ..unfragmented() };
        let mut dev = DeviceSim::new(sim(), 0, cfg);
        dev.enqueue(0.0, 0, Query { prefill: 8, decode: 8 });
        dev.drain();
        assert_eq!(dev.completed().len(), 0);
        assert_eq!(dev.shed().len(), 1);
        assert_eq!(dev.shed()[0].reason, ShedReason::Oversized);
    }

    #[test]
    fn kv_backpressure_serializes_requests_without_shedding() {
        let probe = DeviceSim::new(sim(), 0, unfragmented());
        let q = Query { prefill: 16, decode: 16 };
        let need = probe.kv_bytes_needed(&q);
        // Budget for exactly one in-flight request.
        let cfg = ServeConfig { kv_budget_bytes: need, ..unfragmented() };
        let mut dev = DeviceSim::new(sim(), 0, cfg);
        assert_eq!(dev.kv_budget(), need);
        for id in 0..3 {
            dev.enqueue(0.0, id, q);
        }
        dev.drain();
        assert_eq!(dev.shed().len(), 0, "admission must wait, not shed");
        assert_eq!(dev.completed().len(), 3);
        // Never more than one reservation at a time, and all memory back.
        assert!(dev.report(dev.now_s()).kv_peak_bytes <= need);
        assert_eq!(dev.kv_in_use(), 0);
        // FCFS order preserved.
        let ids: Vec<u64> = dev.completed().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn kv_memory_is_fully_released_after_drain() {
        let mut dev = DeviceSim::new(sim(), 0, unfragmented());
        for id in 0..12 {
            dev.enqueue(id as f64 * 0.01, id, Query { prefill: 32, decode: 8 });
        }
        dev.drain();
        assert_eq!(dev.completed().len(), 12);
        assert_eq!(dev.kv_in_use(), 0);
    }

    #[test]
    fn fragmentation_charges_compaction_time() {
        let q = Query { prefill: 64, decode: 32 };
        let run = |fmfi: f64| {
            let mut dev = DeviceSim::new(sim(), 0, ServeConfig { fmfi, ..ServeConfig::default() });
            for id in 0..8 {
                dev.enqueue(0.0, id, q);
            }
            dev.drain();
            dev.report(dev.now_s())
        };
        let clean = run(0.0);
        let fragged = run(0.9);
        assert_eq!(clean.kv_frames_moved, 0);
        assert_eq!(clean.kv_compact_s, 0.0);
        assert!(fragged.kv_frames_moved > 0, "high FMFI must force compaction");
        assert!(fragged.kv_compact_s > 0.0);
    }

    #[test]
    fn zero_decode_request_finishes_at_prefill() {
        let mut dev = DeviceSim::new(sim(), 0, unfragmented());
        dev.enqueue(0.0, 0, Query { prefill: 32, decode: 0 });
        dev.drain();
        let r = dev.completed()[0];
        assert!((r.ttft_ms - r.ttlt_ms).abs() < 1e-12);
        assert_eq!(dev.tbt_ms().len(), 0);
        assert_eq!(dev.kv_in_use(), 0);
    }

    #[test]
    fn continuous_batching_interleaves_late_arrival_before_backlog_finishes() {
        // A request arriving while a long decode is in flight must get its
        // first token before the in-flight request finishes — the defining
        // difference from FCFS run-to-completion.
        let mut dev = DeviceSim::new(sim(), 0, unfragmented());
        dev.enqueue(0.0, 0, Query { prefill: 64, decode: 512 });
        let long = sim().run_query(Strategy::FacilDynamic, Query { prefill: 64, decode: 512 });
        let mid_s = long.ttlt_ns / 1e9 * 0.25;
        dev.advance_until(mid_s);
        dev.enqueue(mid_s, 1, Query { prefill: 16, decode: 4 });
        dev.drain();
        let late = dev.completed().iter().find(|r| r.id == 1).expect("late request served");
        let first = dev.completed().iter().find(|r| r.id == 0).expect("first request served");
        let late_first_token_s = late.arrival_s + late.ttft_ms / 1e3;
        let first_done_s = first.arrival_s + first.ttlt_ms / 1e3;
        assert!(
            late_first_token_s < first_done_s,
            "late TTFT at {late_first_token_s:.3}s must precede backlog completion at {first_done_s:.3}s"
        );
    }

    #[test]
    fn crash_evicts_everything_and_loses_nothing() {
        let plan = plan_with(vec![FaultEvent {
            device: 0,
            at_s: 0.001,
            kind: FaultKind::Crash { recover_s: None },
        }]);
        let mut dev = DeviceSim::with_faults(sim(), 0, unfragmented(), &plan);
        for id in 0..5 {
            dev.enqueue(0.0, id, Query { prefill: 64, decode: 64 });
        }
        dev.drain();
        assert!(dev.is_dead());
        let lost = dev.take_evicted();
        assert_eq!(dev.completed().len() + dev.shed().len() + lost.len(), 5);
        assert!(!lost.is_empty(), "the crash must interrupt in-flight work");
        assert_eq!(dev.kv_in_use(), 0, "evicted KV reservations are released");
        for e in &lost {
            assert!(e.evicted_s >= 0.001);
            assert_eq!(e.attempt, 0);
        }
        // A dead device refuses new arrivals but still never loses them.
        assert!(!dev.accepts(10.0));
        dev.enqueue(10.0, 99, Query { prefill: 8, decode: 8 });
        let again = dev.take_evicted();
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].id, 99);
    }

    #[test]
    fn recovered_crash_comes_back_and_serves_again() {
        let plan = plan_with(vec![FaultEvent {
            device: 0,
            at_s: 0.001,
            kind: FaultKind::Crash { recover_s: Some(1.0) },
        }]);
        let mut dev = DeviceSim::with_faults(sim(), 0, unfragmented(), &plan);
        dev.enqueue(0.0, 0, Query { prefill: 64, decode: 64 });
        dev.drain();
        assert!(!dev.is_dead());
        assert_eq!(dev.take_evicted().len(), 1);
        assert!(!dev.accepts(0.5), "down during the outage window");
        assert!(dev.accepts(2.0), "recovered after the window");
        dev.enqueue(2.0, 1, Query { prefill: 16, decode: 4 });
        dev.drain();
        assert_eq!(dev.completed().len(), 1);
        assert_eq!(dev.completed()[0].id, 1);
    }

    #[test]
    fn freeze_delays_but_loses_nothing() {
        let freeze_s = 3.0;
        let plan = plan_with(vec![FaultEvent {
            device: 0,
            at_s: 0.0005,
            kind: FaultKind::Freeze { duration_s: freeze_s },
        }]);
        let q = Query { prefill: 64, decode: 32 };
        let mut frozen = DeviceSim::with_faults(sim(), 0, unfragmented(), &plan);
        frozen.enqueue(0.0, 0, q);
        frozen.drain();
        let mut clean = DeviceSim::new(sim(), 0, unfragmented());
        clean.enqueue(0.0, 0, q);
        clean.drain();
        assert_eq!(frozen.completed().len(), 1);
        assert!(frozen.take_evicted().is_empty());
        let delay_ms = frozen.completed()[0].ttlt_ms - clean.completed()[0].ttlt_ms;
        assert!(
            delay_ms > 0.9 * freeze_s * 1e3,
            "freeze must delay completion by about the window ({delay_ms} ms)"
        );
    }

    #[test]
    fn pim_fault_degrades_facil_but_stalls_hybrid_for_relayout() {
        let window =
            FaultEvent { device: 0, at_s: 0.0, kind: FaultKind::PimFault { duration_s: 1e9 } };
        let q = Query { prefill: 64, decode: 64 };
        let run = |strategy, plan: &FaultPlan| {
            let mut dev =
                DeviceSim::with_faults(sim(), 0, ServeConfig { strategy, ..unfragmented() }, plan);
            dev.enqueue(0.0, 0, q);
            dev.drain();
            (dev.completed()[0], dev.report(dev.now_s()))
        };
        let plan = plan_with(vec![window]);
        let (facil, facil_rep) = run(Strategy::FacilDynamic, &plan);
        let (hybrid, hybrid_rep) = run(Strategy::HybridDynamic, &plan);
        let (facil_ok, _) = run(Strategy::FacilDynamic, &FaultPlan::none());
        // FACIL: no relayout stall, serves right away at SoC speed.
        assert_eq!(facil_rep.relayout_stall_s, 0.0);
        assert!(facil_rep.degraded_s > 0.0);
        assert!(facil.ttlt_ms > facil_ok.ttlt_ms, "degraded decode is slower than PIM decode");
        // Hybrid: pays a full weight re-layout before serving again.
        assert!(hybrid_rep.relayout_stall_s > 0.0);
        assert!(
            hybrid.ttft_ms > facil.ttft_ms,
            "hybrid TTFT {} must exceed FACIL degraded TTFT {} (relayout stall)",
            hybrid.ttft_ms,
            facil.ttft_ms
        );
    }

    #[test]
    fn slow_node_keeps_serving_but_stretches_latency() {
        let factor = 8.0;
        let plan = plan_with(vec![FaultEvent {
            device: 0,
            at_s: 0.0,
            kind: FaultKind::Slow { duration_s: 1e9, factor },
        }]);
        let q = Query { prefill: 64, decode: 32 };
        let mut slow = DeviceSim::with_faults(sim(), 0, unfragmented(), &plan);
        slow.enqueue(0.0, 0, q);
        slow.drain();
        let mut clean = DeviceSim::new(sim(), 0, unfragmented());
        clean.enqueue(0.0, 0, q);
        clean.drain();
        // Gray failure: nothing is lost or shed — the request completes,
        // just `factor`× slower (modulo the unscaled KV-compaction charge).
        assert_eq!(slow.completed().len(), 1);
        assert!(slow.take_evicted().is_empty());
        assert_eq!(slow.shed().len(), 0);
        let ratio = slow.completed()[0].ttlt_ms / clean.completed()[0].ttlt_ms;
        assert!(
            (ratio - factor).abs() < 0.05 * factor,
            "slow TTLT must be ~{factor}x the healthy one, got {ratio:.2}x"
        );
        assert!(slow.slow_s() > 0.0);
        assert_eq!(clean.slow_s(), 0.0);
        let rep = slow.report(slow.now_s());
        assert_eq!(rep.slow_s, slow.slow_s());
        // The node still passes "health checks": it accepts arrivals.
        assert!(slow.accepts(0.5));
    }

    #[test]
    fn kv_fault_blocks_admission_then_resumes() {
        let block_s = 2.0;
        let plan = plan_with(vec![FaultEvent {
            device: 0,
            at_s: 0.0,
            kind: FaultKind::KvFault { duration_s: block_s },
        }]);
        let mut dev = DeviceSim::with_faults(sim(), 0, unfragmented(), &plan);
        dev.enqueue(0.0, 0, Query { prefill: 16, decode: 4 });
        dev.drain();
        assert_eq!(dev.completed().len(), 1);
        let r = dev.completed()[0];
        assert!(
            r.admitted_s >= block_s,
            "admission at {} must wait out the {block_s}s KV fault",
            r.admitted_s
        );
    }

    #[test]
    fn expired_deadline_sheds_at_admission() {
        let mut plan = FaultPlan::none();
        plan.policy.deadline_s = 0.5;
        // Freeze the device past every deadline while requests queue up.
        plan.events.push(FaultEvent {
            device: 0,
            at_s: 0.0001,
            kind: FaultKind::Freeze { duration_s: 10.0 },
        });
        // max_batch 1: only the head is admitted before the freeze, the
        // rest queue up and expire behind it.
        let cfg = ServeConfig { max_batch: 1, ..unfragmented() };
        let mut dev = DeviceSim::with_faults(sim(), 0, cfg, &plan);
        for id in 0..3 {
            dev.enqueue(0.0, id, Query { prefill: 16, decode: 4 });
        }
        dev.drain();
        assert!(dev.completed().len() <= 1, "late arrivals must expire");
        assert!(dev.shed().iter().any(|s| s.reason == ShedReason::DeadlineExpired));
        assert_eq!(dev.completed().len() + dev.shed().len(), 3);
    }
}
