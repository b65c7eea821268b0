//! Deterministic fault injection for the serving simulator.
//!
//! A [`FaultPlan`] is a seeded, fully-explicit schedule of failures — no
//! randomness at execution time, so two runs with the same plan produce
//! byte-identical reports. Four fault kinds are modelled:
//!
//! - **Crash** ([`FaultKind::Crash`]): the device goes down at `at_s`,
//!   losing every pending and in-flight request (their KV reservations are
//!   released and the serving driver fails them over to survivors). With
//!   `recover_s` the device comes back empty at `at_s + recover_s`;
//!   without it the crash is permanent.
//! - **Freeze** ([`FaultKind::Freeze`]): the device stops executing for a
//!   window but keeps its state — requests are delayed, not lost.
//! - **PIM-unit fault** ([`FaultKind::PimFault`]): the in-DRAM compute
//!   units are unavailable for a window. FACIL strategies degrade to SoC
//!   GEMV immediately (the PIM-optimized layout stays SoC-readable);
//!   hybrid baselines must re-layout their weights to the conventional
//!   mapping before serving again, and re-layout back when the fault
//!   clears.
//! - **KV fault** ([`FaultKind::KvFault`]): transient KV-reservation
//!   failure — admission is blocked for the window, in-flight requests
//!   keep their memory and keep running.
//!
//! The plan also carries the serving driver's robustness policy
//! ([`RetryPolicy`]): per-request deadlines, the retry budget, and the
//! exponential-backoff base used when a crash evicts a request. The
//! cluster's chaos plan carries the same struct, and both plans check
//! their device faults with the same [`FaultKind::validate`].

use facil_core::{FacilError, Result};
use facil_workloads::XorShift64Star;

/// What goes wrong in a [`FaultEvent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Device outage losing all queued and in-flight work; recovers after
    /// `recover_s` seconds, or never (`None`).
    Crash {
        /// Seconds until the device rejoins the fleet (empty), if ever.
        recover_s: Option<f64>,
    },
    /// Device stops executing for `duration_s` seconds but loses nothing.
    Freeze {
        /// Length of the stall window, seconds.
        duration_s: f64,
    },
    /// PIM compute units unavailable for `duration_s` seconds; the device
    /// serves in degraded (SoC-only) mode.
    PimFault {
        /// Length of the degraded window, seconds.
        duration_s: f64,
    },
    /// KV-cache reservations fail for `duration_s` seconds; admission is
    /// paused.
    KvFault {
        /// Length of the admission-blocked window, seconds.
        duration_s: f64,
    },
    /// Gray failure: the device keeps serving but every iteration takes
    /// `factor`× its healthy time for `duration_s` seconds — the slow node
    /// that passes health checks while dragging down tail latency.
    Slow {
        /// Length of the slow window, seconds.
        duration_s: f64,
        /// Iteration-time multiplier (must be finite and >= 1.0).
        factor: f64,
    },
}

/// Check a fault window: its start must be finite and non-negative, its
/// length finite and positive.
///
/// # Errors
///
/// [`FacilError::InvalidRequest`] naming the offending value.
pub(crate) fn check_window(at_s: f64, duration_s: f64) -> Result<()> {
    if !at_s.is_finite() || at_s < 0.0 {
        return Err(FacilError::InvalidRequest(format!(
            "fault time {at_s} must be finite and non-negative"
        )));
    }
    if !duration_s.is_finite() || duration_s <= 0.0 {
        return Err(FacilError::InvalidRequest(format!(
            "fault duration {duration_s} must be finite and positive"
        )));
    }
    Ok(())
}

impl FaultKind {
    /// Check a fault of this kind striking at `at_s`: its window (a
    /// permanent crash has none), and a slowdown factor that is finite
    /// and at least 1.0. The one check every fault schedule runs on its
    /// device faults.
    ///
    /// # Errors
    ///
    /// [`FacilError::InvalidRequest`] naming the offending value.
    pub fn validate(&self, at_s: f64) -> Result<()> {
        let duration_s = match *self {
            // A permanent crash has no window: only its start is checked.
            FaultKind::Crash { recover_s } => recover_s.unwrap_or(1.0),
            FaultKind::Freeze { duration_s }
            | FaultKind::PimFault { duration_s }
            | FaultKind::KvFault { duration_s }
            | FaultKind::Slow { duration_s, .. } => duration_s,
        };
        check_window(at_s, duration_s)?;
        if let FaultKind::Slow { factor, .. } = *self {
            if !factor.is_finite() || factor < 1.0 {
                return Err(FacilError::InvalidRequest(format!(
                    "slowdown factor {factor} must be finite and >= 1.0"
                )));
            }
        }
        Ok(())
    }
}

/// One scheduled failure on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Fleet index of the affected device.
    pub device: usize,
    /// When the fault strikes, seconds from the start of the run.
    pub at_s: f64,
    /// What fails.
    pub kind: FaultKind,
}

/// How the serving driver treats a request a crash evicted, and how long
/// any request may wait: the one retry/deadline policy every fault
/// schedule carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// How many times a request may be re-dispatched after a crash evicts
    /// it before it is shed as [`crate::ShedReason::Failed`].
    pub max_retries: u32,
    /// Base of the exponential backoff charged to the serving clock before
    /// a retry: attempt `k` waits `retry_backoff_s * 2^(k-1)` seconds.
    pub retry_backoff_s: f64,
    /// Per-request deadline, seconds from arrival; `0.0` disables
    /// deadlines.
    pub deadline_s: f64,
}

impl RetryPolicy {
    /// No retries, no backoff, no deadlines.
    pub fn none() -> Self {
        RetryPolicy { max_retries: 0, retry_backoff_s: 0.0, deadline_s: 0.0 }
    }

    /// Backoff charged to the serving clock before retry attempt
    /// `attempt` (0-based count of failovers already consumed):
    /// `retry_backoff_s * 2^attempt`, **saturating** — the exponent is
    /// capped at 2^60 and a non-finite product clamps to [`f64::MAX`], so
    /// high attempt counts return a huge *finite* wait instead of
    /// overflowing to infinity (which would poison every downstream time
    /// comparison with NaN).
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        if self.retry_backoff_s <= 0.0 {
            return 0.0;
        }
        let b = self.retry_backoff_s * 2f64.powi(attempt.min(BACKOFF_EXP_CAP) as i32);
        if b.is_finite() {
            b
        } else {
            f64::MAX
        }
    }

    /// Check the policy's knobs.
    ///
    /// # Errors
    ///
    /// [`FacilError::InvalidRequest`] for a negative or non-finite backoff
    /// or deadline.
    pub fn validate(&self) -> Result<()> {
        if !self.retry_backoff_s.is_finite() || self.retry_backoff_s < 0.0 {
            return Err(FacilError::InvalidRequest(format!(
                "retry backoff {} must be finite and non-negative",
                self.retry_backoff_s
            )));
        }
        if !self.deadline_s.is_finite() || self.deadline_s < 0.0 {
            return Err(FacilError::InvalidRequest(format!(
                "deadline {} must be finite and non-negative",
                self.deadline_s
            )));
        }
        Ok(())
    }
}

/// A complete, deterministic fault schedule plus the driver's retry and
/// deadline policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Scheduled faults (any order; devices filter their own).
    pub events: Vec<FaultEvent>,
    /// Retry budget, backoff and per-request deadline.
    pub policy: RetryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Average fault arrival rates used by [`FaultPlan::random`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Device crashes per device-second (all recoverable).
    pub crash_per_s: f64,
    /// PIM-unit faults per device-second.
    pub pim_per_s: f64,
    /// KV-reservation faults per device-second.
    pub kv_per_s: f64,
    /// Mean outage / degraded-window length, seconds.
    pub mean_outage_s: f64,
}

/// Largest exponent fed to the exponential backoff: `2^60` seconds is
/// ~36,000× the age of the universe, so capping here changes no plausible
/// schedule while keeping the arithmetic finite.
const BACKOFF_EXP_CAP: u32 = 60;

impl FaultPlan {
    /// The empty plan: no faults, no deadlines, no retries. Serving with
    /// this plan is bit-for-bit identical to serving without fault
    /// injection at all.
    pub fn none() -> Self {
        FaultPlan { events: Vec::new(), policy: RetryPolicy::none() }
    }

    /// Generate a seeded random plan over `span_s` seconds on a fleet of
    /// `devices`: each fault class arrives per-device as a Poisson process
    /// at the configured rate, with exponentially-distributed outage
    /// lengths around `rates.mean_outage_s`. Deterministic for a fixed
    /// seed.
    pub fn random(seed: u64, devices: usize, span_s: f64, rates: FaultRates) -> Self {
        let mut rng = XorShift64Star::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xc4a0);
        let mut events = Vec::new();
        for device in 0..devices {
            let classes = [(rates.crash_per_s, 0u8), (rates.pim_per_s, 1u8), (rates.kv_per_s, 2u8)];
            for (rate, class) in classes {
                if rate <= 0.0 {
                    continue;
                }
                let mut t = 0.0;
                loop {
                    t += rng.next_exp(rate);
                    if t >= span_s {
                        break;
                    }
                    let outage = rng.next_exp(1.0 / rates.mean_outage_s.max(1e-3)).max(1e-3);
                    let kind = match class {
                        0 => FaultKind::Crash { recover_s: Some(outage) },
                        1 => FaultKind::PimFault { duration_s: outage },
                        _ => FaultKind::KvFault { duration_s: outage },
                    };
                    events.push(FaultEvent { device, at_s: t, kind });
                }
            }
        }
        FaultPlan { events, ..FaultPlan::none() }
    }

    /// Check the plan against a fleet of `devices` devices.
    ///
    /// # Errors
    ///
    /// * [`FacilError::DeviceUnavailable`] if an event targets a device
    ///   index outside the fleet;
    /// * [`FacilError::InvalidRequest`] for a malformed fault
    ///   ([`FaultKind::validate`]) or policy ([`RetryPolicy::validate`]).
    pub fn validate(&self, devices: usize) -> Result<()> {
        for e in &self.events {
            if e.device >= devices {
                return Err(FacilError::DeviceUnavailable { device: e.device });
            }
            e.kind.validate(e.at_s)?;
        }
        self.policy.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_empty_and_valid() {
        let p = FaultPlan::none();
        assert!(p.events.is_empty());
        assert_eq!(p.policy, RetryPolicy::none());
        p.validate(1).unwrap();
        p.validate(0).unwrap();
    }

    #[test]
    fn out_of_range_device_is_rejected() {
        let p = FaultPlan {
            events: vec![FaultEvent {
                device: 3,
                at_s: 1.0,
                kind: FaultKind::Freeze { duration_s: 1.0 },
            }],
            ..FaultPlan::none()
        };
        assert_eq!(p.validate(3).unwrap_err(), FacilError::DeviceUnavailable { device: 3 });
        p.validate(4).unwrap();
    }

    #[test]
    fn bad_times_and_durations_are_rejected() {
        let mk = |at_s: f64, kind: FaultKind| FaultPlan {
            events: vec![FaultEvent { device: 0, at_s, kind }],
            ..FaultPlan::none()
        };
        assert!(mk(-1.0, FaultKind::Freeze { duration_s: 1.0 }).validate(1).is_err());
        assert!(mk(f64::NAN, FaultKind::Freeze { duration_s: 1.0 }).validate(1).is_err());
        assert!(mk(0.0, FaultKind::Freeze { duration_s: 0.0 }).validate(1).is_err());
        assert!(mk(0.0, FaultKind::PimFault { duration_s: -2.0 }).validate(1).is_err());
        assert!(mk(0.0, FaultKind::Crash { recover_s: Some(f64::INFINITY) }).validate(1).is_err());
        assert!(mk(0.0, FaultKind::Crash { recover_s: None }).validate(1).is_ok());
    }

    #[test]
    fn bad_policy_is_rejected() {
        let mut p = FaultPlan::none();
        p.policy.deadline_s = -0.5;
        assert!(p.validate(1).is_err());
        p.policy.deadline_s = 0.0;
        p.policy.retry_backoff_s = f64::NAN;
        assert!(p.validate(1).is_err());
    }

    #[test]
    fn random_plan_is_deterministic_and_valid() {
        let rates =
            FaultRates { crash_per_s: 0.05, pim_per_s: 0.05, kv_per_s: 0.05, mean_outage_s: 2.0 };
        let a = FaultPlan::random(7, 4, 100.0, rates);
        let b = FaultPlan::random(7, 4, 100.0, rates);
        assert_eq!(a, b);
        assert!(!a.events.is_empty(), "expected some faults over 400 device-seconds");
        a.validate(4).unwrap();
        let c = FaultPlan::random(8, 4, 100.0, rates);
        assert_ne!(a, c, "different seeds give different plans");
    }

    #[test]
    fn slow_faults_are_validated() {
        let mk = |duration_s: f64, factor: f64| FaultPlan {
            events: vec![FaultEvent {
                device: 0,
                at_s: 0.0,
                kind: FaultKind::Slow { duration_s, factor },
            }],
            ..FaultPlan::none()
        };
        assert!(mk(1.0, 4.0).validate(1).is_ok());
        assert!(mk(0.0, 4.0).validate(1).is_err(), "zero duration");
        assert!(mk(1.0, 0.5).validate(1).is_err(), "speed-up is not a fault");
        assert!(mk(1.0, f64::NAN).validate(1).is_err());
        assert!(mk(1.0, f64::INFINITY).validate(1).is_err());
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let plan = RetryPolicy { retry_backoff_s: 0.05, ..RetryPolicy::none() };
        // Low attempts: the textbook doubling schedule.
        assert_eq!(plan.backoff_s(0), 0.05);
        assert_eq!(plan.backoff_s(1), 0.1);
        assert_eq!(plan.backoff_s(4), 0.8);
        // High attempts: finite, capped, monotone non-decreasing — never
        // infinity (2^1100 would overflow f64) and never a wrapped
        // negative exponent (u32::MAX as i32 is -1).
        let huge = [60, 61, 1_000, 1_100, u32::MAX - 1, u32::MAX];
        let mut prev = 0.0;
        for a in huge {
            let b = plan.backoff_s(a);
            assert!(b.is_finite(), "attempt {a} overflowed to {b}");
            assert!(b >= prev, "attempt {a}: backoff {b} fell below {prev}");
            prev = b;
        }
        assert_eq!(plan.backoff_s(u32::MAX), plan.backoff_s(60), "saturated plateau");
        assert!(plan.backoff_s(u32::MAX) > plan.backoff_s(59));
        // A base large enough to overflow even at the capped exponent
        // clamps to f64::MAX instead of going infinite.
        let huge_base = RetryPolicy { retry_backoff_s: 1e300, ..RetryPolicy::none() };
        assert_eq!(huge_base.backoff_s(u32::MAX), f64::MAX);
        // Disabled backoff stays free at any attempt count.
        assert_eq!(RetryPolicy::none().backoff_s(u32::MAX), 0.0);
    }

    #[test]
    fn zero_rates_give_an_empty_schedule() {
        let rates =
            FaultRates { crash_per_s: 0.0, pim_per_s: 0.0, kv_per_s: 0.0, mean_outage_s: 2.0 };
        let p = FaultPlan::random(1, 8, 1000.0, rates);
        assert!(p.events.is_empty());
    }
}
