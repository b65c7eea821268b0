//! Request lifecycle records: what happened to every query offered to a
//! device — completed with its latency breakdown, or shed with an explicit
//! reason. The accounting invariant (property-tested in
//! `tests/properties.rs`) is `completed + shed == offered`: no request is
//! ever silently dropped.

/// Why an offered request was rejected instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The admission queue was at `queue_cap` when the request arrived.
    QueueFull,
    /// The request's worst-case KV footprint exceeds the device's entire
    /// KV budget — it could never be admitted, even on an idle device.
    Oversized,
    /// The head-of-line request did not fit the free KV budget on an
    /// otherwise idle device (fragmentation ate the budget); shedding it
    /// keeps the queue making progress.
    NoMemory,
    /// The request was lost to device failures and its retry budget is
    /// exhausted, or it was still waiting for a device when no future
    /// instant could make one available.
    Failed,
    /// The request's deadline elapsed before it could be admitted or
    /// (re-)dispatched.
    DeadlineExpired,
    /// Evicted from an overflowing park queue (worst QoS class first).
    Overload,
    /// Dispatch would exceed the tenant's outstanding-KV quota.
    QuotaExceeded,
}

impl ShedReason {
    /// Stable kebab-case name of the reason (JSON reports and trace-event
    /// arguments share this spelling).
    pub fn as_str(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::Oversized => "oversized",
            ShedReason::NoMemory => "no-memory",
            ShedReason::Failed => "failed",
            ShedReason::DeadlineExpired => "deadline-expired",
            ShedReason::Overload => "overload",
            ShedReason::QuotaExceeded => "quota-exceeded",
        }
    }
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One served request with its SLO-relevant timings (all latencies include
/// queueing delay, measured from arrival).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// Request id (arrival order across the fleet).
    pub id: u64,
    /// Device that served it.
    pub device: usize,
    /// Arrival time, seconds from the start of the run.
    pub arrival_s: f64,
    /// Admission time (KV reserved, prefill eligible), seconds.
    pub admitted_s: f64,
    /// Time to first token, ms (arrival to end of prefill).
    pub ttft_ms: f64,
    /// Time to last token, ms (arrival to final decode step).
    pub ttlt_ms: f64,
    /// Prompt length, tokens.
    pub prefill: u64,
    /// Generation length, tokens.
    pub decode: u64,
    /// Times this request was re-queued after a device failure before it
    /// completed (0 on the failure-free path).
    pub retries: u32,
}

/// One rejected request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedRecord {
    /// Request id (arrival order across the fleet).
    pub id: u64,
    /// Device that rejected it.
    pub device: usize,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// Why it was rejected.
    pub reason: ShedReason,
}
