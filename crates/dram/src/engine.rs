//! Simulation engines: *how* the channel clock advances between
//! scheduling decisions.
//!
//! [`ChannelCore`] defines *what* happens at a visited cycle (the FR-FCFS
//! decision procedure, refresh bookkeeping, stats); the drive loop of an
//! [`EngineKind`] decides *which* cycles get visited:
//!
//! * [`EngineKind::Stepped`] — the cycle-stepped reference: visit every
//!   DRAM clock, attempt a decision, advance by one. Trivially correct, and
//!   kept as the oracle the event engine is tested against. Cost is
//!   proportional to *elapsed DRAM time*, which is the scale ceiling on
//!   low-utilization serving traces (~10⁶ requests/day are mostly idle
//!   cycles).
//! * [`EngineKind::Event`] — next-event simulation: keep the per-request
//!   next-actionable times reported by the decision procedure plus the
//!   per-rank tREFI deadlines in a binary-heap [`EventQueue`], and jump
//!   the clock directly to the earliest cycle at which the decision could
//!   possibly change. Cost is proportional to the *number of commands*,
//!   independent of idle time (the Ramulator 2.x design point).
//!
//! Both loops keep the visiting contract documented on [`ChannelCore`],
//! and the two engines are bit-identical — same command log, same
//! [`crate::DramStats`] — because a jump from `t` to `target` only skips
//! cycles where the decision is provably the same `Blocked` it was at `t`:
//!
//! * candidate ready times (bank timing, tFAW expiry, bus occupancy and
//!   turnaround) only change when a command issues, and none can issue
//!   while blocked;
//! * no queued request arrives before `target` (arrivals are sorted, and
//!   the first not-yet-arrived window entry caps the jump);
//! * no tREFI deadline falls before `target` (refresh closes rows, which
//!   can create an *earlier* actionable activate, so deadlines cap the
//!   jump too — and refresh effects are deadline-derived, never
//!   visit-time-derived, see [`ChannelCore::service_refresh`]).
//!
//! Selection: [`crate::SchedConfig::engine`], defaulting to the
//! `FACIL_DRAM_ENGINE` environment variable (`stepped` or `event`), else
//! [`EngineKind::Event`]. The property test
//! `event_engine_is_bit_identical_to_stepped` holds the two together under
//! random traffic, multi-channel parallel runs and refresh-heavy timing,
//! and `tests/pinned.rs` pins the schedule both of them produce.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::channel::{ChannelCore, Decision};

/// The environment variable that selects the default engine.
const ENGINE_VAR: &str = "FACIL_DRAM_ENGINE";

/// Which simulation engine drives the DRAM scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Cycle-stepped reference engine: visits every DRAM clock.
    Stepped,
    /// Next-event engine (the default): jumps to the next cycle at which
    /// the scheduling decision can change.
    Event,
}

impl EngineKind {
    /// The engine a `FACIL_DRAM_ENGINE` value selects (`None` when the
    /// variable is unset): `stepped` or `event`, surrounding whitespace
    /// ignored, in any case. Any other value is an error naming the
    /// variable and the accepted values.
    fn from_env_value(value: Option<&str>) -> Result<EngineKind, String> {
        let Some(v) = value else { return Ok(EngineKind::Event) };
        match v.trim().to_ascii_lowercase().as_str() {
            "stepped" => Ok(EngineKind::Stepped),
            "event" => Ok(EngineKind::Event),
            _ => Err(format!(
                "{ENGINE_VAR}={v:?} names no DRAM engine: expected `stepped` or `event`"
            )),
        }
    }

    /// Default engine: the one `FACIL_DRAM_ENGINE` names, else
    /// [`EngineKind::Event`].
    ///
    /// # Panics
    ///
    /// Panics if `FACIL_DRAM_ENGINE` is set to anything but `stepped` or
    /// `event`, so that a misspelt engine never silently runs the other.
    pub fn default_kind() -> EngineKind {
        let value = std::env::var_os(ENGINE_VAR).map(|v| v.to_string_lossy().into_owned());
        EngineKind::from_env_value(value.as_deref()).unwrap_or_else(|msg| panic!("{msg}"))
    }

    /// Engine name (`"stepped"` or `"event"`).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Stepped => "stepped",
            EngineKind::Event => "event",
        }
    }

    /// Schedule every queued request of `core` to completion.
    pub(crate) fn drive(self, core: &mut ChannelCore) {
        match self {
            EngineKind::Stepped => drive_stepped(core),
            EngineKind::Event => drive_event(core),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The cycle-stepped reference: visit every DRAM clock cycle.
fn drive_stepped(core: &mut ChannelCore) {
    while core.pending() > 0 {
        core.reclaim();
        core.service_refresh();
        if let Decision::Blocked { .. } = core.decide() {
            core.tick();
        }
    }
}

/// Min-heap of future wake-up cycles for the event engine.
///
/// Entries are *hints*, not obligations: waking earlier than necessary is
/// harmless (the decision procedure simply reports `Blocked` again), so
/// stale entries — a candidate-ready time superseded by an issued command,
/// a refresh deadline already serviced — are discarded lazily when popped.
/// What matters for correctness is the converse invariant, upheld by the
/// drive loop: every cycle at which the pending decision could change has
/// an entry at or before it.
#[derive(Debug, Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<u64>>,
    /// Last refresh deadline pushed, so the per-decision re-arm of the
    /// persistent refresh event does not flood the heap with duplicates.
    armed_refresh: Option<u64>,
}

impl EventQueue {
    /// Queue a wake-up at `cycle`.
    fn push(&mut self, cycle: u64) {
        self.heap.push(Reverse(cycle));
    }

    /// Arm (or re-arm) the refresh deadline event. Idempotent per
    /// deadline: re-arming the same cycle is a no-op.
    fn arm_refresh(&mut self, deadline: u64) {
        if self.armed_refresh != Some(deadline) {
            self.push(deadline);
            self.armed_refresh = Some(deadline);
        }
    }

    /// Pop the earliest wake-up strictly after `now`, discarding stale
    /// entries at or before `now`.
    fn pop_after(&mut self, now: u64) -> Option<u64> {
        while let Some(Reverse(cycle)) = self.heap.pop() {
            if cycle > now {
                return Some(cycle);
            }
        }
        None
    }
}

/// The next-event engine: jump the clock straight to the next cycle at
/// which the scheduling decision can change.
///
/// Per decision the loop (a) jumps over fully idle spans to the first
/// queued arrival (refresh deadlines inside a dead span cannot enable any
/// command, and their effects are deadline-derived, so catching them up at
/// the arrival is exact), (b) services due refreshes, (c) asks the core
/// for a decision, and (d) on `Blocked` pushes the reported
/// next-actionable times plus the tREFI deadline into the [`EventQueue`]
/// and advances to the earliest queued event.
fn drive_event(core: &mut ChannelCore) {
    let mut queue = EventQueue::default();
    while core.pending() > 0 {
        core.reclaim();
        // Dead span: nothing queued has arrived yet, so no command can
        // issue before the first arrival — jump it in one assignment.
        let first = core.first_live_arrival();
        if core.now() < first {
            core.advance_to(first);
        }
        core.service_refresh();
        if let Decision::Blocked { next_ready, next_arrival } = core.decide() {
            if let Some(t) = next_ready {
                queue.push(t);
            }
            if let Some(t) = next_arrival {
                queue.push(t);
            }
            if let Some(due) = core.next_refresh_deadline() {
                queue.arm_refresh(due);
            }
            match queue.pop_after(core.now()) {
                Some(cycle) => core.advance_to(cycle),
                // Blocked guarantees at least one bound: a nonempty
                // candidate set reports `next_ready`, and an empty one
                // implies the window head has not arrived, which reports
                // `next_arrival`.
                None => unreachable!("blocked with no future event"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::DramAddress;
    use crate::command::Request;
    use crate::spec::DramSpec;
    use crate::{DramSystem, SchedConfig};

    /// The variable accepts exactly the two engine names, trimmed and in
    /// any case; unset means the event engine, and every other value (the
    /// old aliases included) is an error naming the variable and both
    /// names. Tested on values, so no test touches the process environment.
    #[test]
    fn engine_variable_accepts_exactly_two_names() {
        let kind = EngineKind::from_env_value;
        assert_eq!(kind(None), Ok(EngineKind::Event));
        assert_eq!(kind(Some("stepped")), Ok(EngineKind::Stepped));
        assert_eq!(kind(Some("STEPPED")), Ok(EngineKind::Stepped));
        assert_eq!(kind(Some("event")), Ok(EngineKind::Event));
        assert_eq!(kind(Some(" Event\n")), Ok(EngineKind::Event));
        for rejected in ["steped", "step", "cycle", "cycle-stepped", "next-event", "next_event", ""]
        {
            let err = kind(Some(rejected)).unwrap_err();
            assert!(err.contains(&format!("FACIL_DRAM_ENGINE={rejected:?}")), "{err}");
            assert!(err.contains("`stepped`") && err.contains("`event`"), "{err}");
        }
        assert_eq!(EngineKind::Stepped.name(), "stepped");
        assert_eq!(EngineKind::Event.to_string(), "event");
    }

    #[test]
    fn event_queue_orders_and_discards_stale() {
        let mut q = EventQueue::default();
        q.push(50);
        q.push(10);
        q.arm_refresh(30);
        q.arm_refresh(30); // duplicate arm is a no-op
        assert_eq!(q.heap.len(), 3);
        // Everything at or before `now` is stale and skipped.
        assert_eq!(q.pop_after(10), Some(30));
        assert_eq!(q.pop_after(30), Some(50));
        assert_eq!(q.pop_after(50), None);
    }

    fn run_engine(spec: &DramSpec, engine: EngineKind) -> (crate::SimResult, String) {
        let mut sys = DramSystem::with_config(spec, SchedConfig { engine });
        sys.enable_logging();
        for i in 0..64u64 {
            let addr = DramAddress {
                channel: 0,
                rank: i % 2,
                bank: (i * 7) % 16,
                row: (i * 3) % 32,
                column: i % 64,
            };
            let req = if i % 4 == 0 { Request::write(addr) } else { Request::read(addr) };
            sys.push(req.at(i * 37)); // sparse arrivals: exercises jumps
        }
        let result = sys.run();
        (result, format!("{:?}", sys.logs()))
    }

    /// The engines must agree command-for-command on a simple stream; the
    /// exhaustive comparison lives in `tests/properties.rs`.
    #[test]
    fn engines_agree_on_a_mixed_stream() {
        let spec = DramSpec::lpddr5_6400(16, 256 << 20);
        let (stepped_result, stepped_log) = run_engine(&spec, EngineKind::Stepped);
        let (event_result, event_log) = run_engine(&spec, EngineKind::Event);
        assert_eq!(stepped_result, event_result);
        assert_eq!(stepped_log, event_log);
    }
}
