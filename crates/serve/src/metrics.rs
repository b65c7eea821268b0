//! SLO metrics of a serving run: per-request latency summaries
//! (TTFT / TBT / TTLT), goodput vs offered load, shed accounting, and
//! per-device utilization, queue-depth and KV time series.
//!
//! Reports carry a dependency-free [`ServeReport::to_json`] writer (built on
//! [`facil_telemetry::JsonWriter`]) so the bench binaries can emit
//! machine-readable output without a JSON crate in the workspace, and a
//! [`ServeReport::register_into`] hook that publishes the run's counters,
//! gauges and latency histograms into a shared
//! [`facil_telemetry::MetricsRegistry`].

use facil_sim::Strategy;
use facil_telemetry::{JsonWriter, MetricsRegistry, Summary, TraceSink};

use crate::device::DeviceSim;
use crate::fleet::Routing;
use crate::request::{RequestRecord, ShedReason, ShedRecord};

/// One point of a device's load time series (sampled per iteration,
/// downsampled for the report).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueSample {
    /// Simulated time, seconds.
    pub t_s: f64,
    /// Requests waiting for admission.
    pub queued: usize,
    /// Admitted requests (prefilling + decoding).
    pub active: usize,
    /// KV bytes reserved.
    pub kv_bytes: u64,
}

/// Per-device outcome of a serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// Device index.
    pub device: usize,
    /// Requests completed on this device.
    pub completed: usize,
    /// Requests shed by this device.
    pub shed: usize,
    /// Busy time over the fleet-wide span.
    pub utilization: f64,
    /// Longest admission queue observed.
    pub queue_peak: usize,
    /// Total KV budget, bytes.
    pub kv_budget_bytes: u64,
    /// Peak KV reservation, bytes.
    pub kv_peak_bytes: u64,
    /// Time spent compacting huge pages for KV slabs (FMFI cost), seconds.
    pub kv_compact_s: f64,
    /// KV huge pages allocated from fully-free blocks.
    pub kv_pages_direct: u64,
    /// KV huge pages minted via compaction.
    pub kv_pages_compacted: u64,
    /// 4 KB frames moved to mint KV pages.
    pub kv_frames_moved: u64,
    /// Scheduler iterations executed.
    pub iterations: u64,
    /// Mean work items (decode tokens + prefill chunks) per iteration.
    pub mean_batch: f64,
    /// Fraction of the span the device was up (outside crash/freeze
    /// windows). 0.0 for a zero-duration span (never `NaN`), matching
    /// `DramStats::hit_rate`.
    pub uptime: f64,
    /// Seconds of the span spent down.
    pub down_s: f64,
    /// Seconds served in degraded (PIM-down) mode.
    pub degraded_s: f64,
    /// Seconds stalled re-laying-out weights on degraded-mode transitions
    /// (zero for FACIL strategies).
    pub relayout_stall_s: f64,
    /// Seconds served inside gray-failure (slow-node) windows.
    pub slow_s: f64,
    /// Crash events this device lived through.
    pub crashes: usize,
    /// Requests this device lost to crashes (harvested for failover).
    pub evicted: usize,
    /// Downsampled queue-depth / KV time series.
    pub queue_depth: Vec<QueueSample>,
}

/// Full outcome of a serving run (single device or fleet).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Execution strategy of the timing oracle.
    pub strategy: Strategy,
    /// Arrival process description.
    pub arrival: String,
    /// Routing policy used across devices.
    pub routing: Routing,
    /// Number of devices.
    pub num_devices: usize,
    /// Requests offered to the fleet.
    pub offered: usize,
    /// Requests served to the last token.
    pub completed: usize,
    /// Requests shed (`offered == completed + shed`).
    pub shed: usize,
    /// Sheds with reason [`crate::ShedReason::QueueFull`].
    pub shed_queue_full: usize,
    /// Sheds with reason [`crate::ShedReason::Oversized`].
    pub shed_oversized: usize,
    /// Sheds with reason [`crate::ShedReason::NoMemory`].
    pub shed_no_memory: usize,
    /// Sheds with reason [`crate::ShedReason::Failed`] (retry budget
    /// exhausted, or no device left that could ever take the request).
    pub shed_failed: usize,
    /// Sheds with reason [`crate::ShedReason::DeadlineExpired`].
    pub shed_deadline: usize,
    /// Wall-clock span of the run, seconds.
    pub span_s: f64,
    /// Offered load over the span, queries/s.
    pub offered_qps: f64,
    /// Completed load over the span, queries/s (goodput-under-fault when a
    /// plan injects failures).
    pub goodput_qps: f64,
    /// Mean device utilization over the span.
    pub utilization: f64,
    /// Mean fraction of device-seconds the fleet was up
    /// (`1 - downtime / (span * devices)`). 0.0 for a zero-duration or
    /// zero-device run (never `NaN`), matching `DramStats::hit_rate`.
    pub availability: f64,
    /// Total device-seconds lost to crash/freeze windows.
    pub downtime_s: f64,
    /// Total device-seconds served in degraded (PIM-down) mode.
    pub degraded_s: f64,
    /// Total seconds stalled on degraded-mode weight re-layouts.
    pub relayout_stall_s: f64,
    /// Total device-seconds served inside gray-failure (slow-node)
    /// windows.
    pub slow_s: f64,
    /// Requests evicted by crashes and handed back to the serving driver.
    pub failovers: usize,
    /// Retry attempts scheduled (each charged exponential backoff on the
    /// serving clock).
    pub retries: usize,
    /// Requests that missed their deadline (expired before service, or
    /// completed past it). 0 when deadlines are disabled.
    pub deadline_violations: usize,
    /// `deadline_violations / offered`. 0.0 when deadlines are disabled
    /// or nothing was offered (never `NaN`), matching
    /// `DramStats::hit_rate`.
    pub deadline_violation_rate: f64,
    /// Time-to-first-token summary over completed requests, ms.
    pub ttft_ms: Summary,
    /// Inter-token latency summary over completed requests, ms.
    pub tbt_ms: Summary,
    /// Time-to-last-token summary over completed requests, ms.
    pub ttlt_ms: Summary,
    /// Per-device breakdown.
    pub devices: Vec<DeviceReport>,
    /// Every completed request, ordered by id.
    pub requests: Vec<RequestRecord>,
    /// Every shed request, ordered by id.
    pub sheds: Vec<ShedRecord>,
}

fn write_summary(w: &mut JsonWriter, s: &Summary) {
    s.write_json(w);
}

fn write_device(w: &mut JsonWriter, d: &DeviceReport) {
    w.begin_object()
        .field_uint("device", d.device as u64)
        .field_uint("completed", d.completed as u64)
        .field_uint("shed", d.shed as u64)
        .field_num("utilization", d.utilization)
        .field_uint("queue_peak", d.queue_peak as u64)
        .field_uint("kv_budget_bytes", d.kv_budget_bytes)
        .field_uint("kv_peak_bytes", d.kv_peak_bytes)
        .field_num("kv_compact_s", d.kv_compact_s)
        .field_uint("kv_pages_direct", d.kv_pages_direct)
        .field_uint("kv_pages_compacted", d.kv_pages_compacted)
        .field_uint("kv_frames_moved", d.kv_frames_moved)
        .field_uint("iterations", d.iterations)
        .field_num("mean_batch", d.mean_batch)
        .field_num("uptime", d.uptime)
        .field_num("down_s", d.down_s)
        .field_num("degraded_s", d.degraded_s)
        .field_num("relayout_stall_s", d.relayout_stall_s)
        .field_num("slow_s", d.slow_s)
        .field_uint("crashes", d.crashes as u64)
        .field_uint("evicted", d.evicted as u64)
        .key("queue_depth")
        .begin_array();
    for p in &d.queue_depth {
        w.begin_object()
            .field_num("t_s", p.t_s)
            .field_uint("queued", p.queued as u64)
            .field_uint("active", p.active as u64)
            .field_uint("kv_bytes", p.kv_bytes)
            .end_object();
    }
    w.end_array().end_object();
}

fn write_request(w: &mut JsonWriter, r: &RequestRecord) {
    w.begin_object()
        .field_uint("id", r.id)
        .field_uint("device", r.device as u64)
        .field_num("arrival_s", r.arrival_s)
        .field_num("admitted_s", r.admitted_s)
        .field_num("ttft_ms", r.ttft_ms)
        .field_num("ttlt_ms", r.ttlt_ms)
        .field_uint("prefill", r.prefill)
        .field_uint("decode", r.decode)
        .field_uint("retries", u64::from(r.retries))
        .end_object();
}

fn write_shed(w: &mut JsonWriter, s: &ShedRecord) {
    w.begin_object()
        .field_uint("id", s.id)
        .field_uint("device", s.device as u64)
        .field_num("arrival_s", s.arrival_s)
        .field_str("reason", s.reason.as_str())
        .end_object();
}

/// Run identity and driver-level counters the report assembler cannot read
/// off the devices themselves.
#[derive(Debug, Clone)]
pub(crate) struct ReportMeta {
    /// Execution strategy of the timing oracle.
    pub strategy: Strategy,
    /// Arrival process description.
    pub arrival: String,
    /// Routing policy used across devices.
    pub routing: Routing,
    /// Requests offered to the devices.
    pub offered: usize,
    /// Wall-clock span utilization and availability are normalized
    /// against, seconds.
    pub span_s: f64,
    /// Crash evictions the driver harvested for failover.
    pub failovers: usize,
    /// Retry attempts the driver scheduled.
    pub retries: usize,
    /// Per-request deadline (0 disables deadline accounting), seconds.
    pub deadline_s: f64,
}

impl ServeReport {
    /// Assemble a report from final device state plus the driver's own
    /// sheds — the one roll-up behind a fleet report and every cell of a
    /// cluster report. Rate metrics (availability, utilization, uptime,
    /// rates per second, deadline-violation rate) are 0.0 — never `NaN` —
    /// for zero-span or zero-offered runs, matching `DramStats::hit_rate`.
    pub(crate) fn assemble<S: TraceSink>(
        devices: &[DeviceSim<'_, S>],
        driver_sheds: &[ShedRecord],
        meta: &ReportMeta,
    ) -> ServeReport {
        let span_s = meta.span_s;
        let mut requests: Vec<RequestRecord> =
            devices.iter().flat_map(|d| d.completed().iter().copied()).collect();
        requests.sort_by_key(|r| r.id);
        let mut sheds: Vec<ShedRecord> = devices
            .iter()
            .flat_map(|d| d.shed().iter().copied())
            .chain(driver_sheds.iter().copied())
            .collect();
        sheds.sort_by_key(|s| s.id);

        // One percentile definition for the whole workspace: the shared
        // `Summary`, over the samples in request-id and device order.
        let ttft_ms = Summary::from_unsorted(requests.iter().map(|r| r.ttft_ms).collect());
        let ttlt_ms = Summary::from_unsorted(requests.iter().map(|r| r.ttlt_ms).collect());
        let tbt_ms =
            Summary::from_unsorted(devices.iter().flat_map(|d| d.tbt_ms()).copied().collect());
        let by_reason = |reason: ShedReason| sheds.iter().filter(|s| s.reason == reason).count();
        let utilization = if span_s > 0.0 {
            devices.iter().map(|d| d.busy_s()).sum::<f64>() / (span_s * devices.len() as f64)
        } else {
            0.0
        };
        let per_qps = |n: usize| if span_s > 0.0 { n as f64 / span_s } else { 0.0 };
        let device_reports: Vec<_> = devices.iter().map(|d| d.report(span_s)).collect();
        let downtime_s: f64 = device_reports.iter().map(|d| d.down_s).sum();
        let degraded_s: f64 = device_reports.iter().map(|d| d.degraded_s).sum();
        let relayout_stall_s: f64 = device_reports.iter().map(|d| d.relayout_stall_s).sum();
        let slow_s: f64 = device_reports.iter().map(|d| d.slow_s).sum();
        let availability = if span_s > 0.0 && !devices.is_empty() {
            (1.0 - downtime_s / (span_s * devices.len() as f64)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let shed_deadline = by_reason(ShedReason::DeadlineExpired);
        let deadline_violations = if meta.deadline_s > 0.0 {
            let deadline_ms = meta.deadline_s * 1e3;
            shed_deadline + requests.iter().filter(|r| r.ttlt_ms > deadline_ms).count()
        } else {
            0
        };
        let offered = meta.offered;
        let deadline_violation_rate =
            if offered > 0 { deadline_violations as f64 / offered as f64 } else { 0.0 };

        ServeReport {
            strategy: meta.strategy,
            arrival: meta.arrival.clone(),
            routing: meta.routing,
            num_devices: devices.len(),
            offered,
            completed: requests.len(),
            shed: sheds.len(),
            shed_queue_full: by_reason(ShedReason::QueueFull),
            shed_oversized: by_reason(ShedReason::Oversized),
            shed_no_memory: by_reason(ShedReason::NoMemory),
            shed_failed: by_reason(ShedReason::Failed),
            shed_deadline,
            span_s,
            offered_qps: per_qps(offered),
            goodput_qps: per_qps(requests.len()),
            utilization,
            availability,
            downtime_s,
            degraded_s,
            relayout_stall_s,
            slow_s,
            failovers: meta.failovers,
            retries: meta.retries,
            deadline_violations,
            deadline_violation_rate,
            ttft_ms,
            tbt_ms,
            ttlt_ms,
            devices: device_reports,
            requests,
            sheds,
        }
    }

    /// Serialize the report as a self-contained JSON object (one line).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(4096);
        w.begin_object()
            .field_str("strategy", &self.strategy.to_string())
            .field_str("arrival", &self.arrival)
            .field_str("routing", &self.routing.to_string())
            .field_uint("num_devices", self.num_devices as u64)
            .field_uint("offered", self.offered as u64)
            .field_uint("completed", self.completed as u64)
            .field_uint("shed", self.shed as u64)
            .field_uint("shed_queue_full", self.shed_queue_full as u64)
            .field_uint("shed_oversized", self.shed_oversized as u64)
            .field_uint("shed_no_memory", self.shed_no_memory as u64)
            .field_uint("shed_failed", self.shed_failed as u64)
            .field_uint("shed_deadline", self.shed_deadline as u64)
            .field_num("span_s", self.span_s)
            .field_num("offered_qps", self.offered_qps)
            .field_num("goodput_qps", self.goodput_qps)
            .field_num("utilization", self.utilization)
            .field_num("availability", self.availability)
            .field_num("downtime_s", self.downtime_s)
            .field_num("degraded_s", self.degraded_s)
            .field_num("relayout_stall_s", self.relayout_stall_s)
            .field_num("slow_s", self.slow_s)
            .field_uint("failovers", self.failovers as u64)
            .field_uint("retries", self.retries as u64)
            .field_uint("deadline_violations", self.deadline_violations as u64)
            .field_num("deadline_violation_rate", self.deadline_violation_rate);
        w.key("ttft_ms");
        write_summary(&mut w, &self.ttft_ms);
        w.key("tbt_ms");
        write_summary(&mut w, &self.tbt_ms);
        w.key("ttlt_ms");
        write_summary(&mut w, &self.ttlt_ms);
        w.key("devices").begin_array();
        for d in &self.devices {
            write_device(&mut w, d);
        }
        w.end_array().key("requests").begin_array();
        for r in &self.requests {
            write_request(&mut w, r);
        }
        w.end_array().key("sheds").begin_array();
        for s in &self.sheds {
            write_shed(&mut w, s);
        }
        w.end_array().end_object();
        w.finish()
    }

    /// Publish the run into a shared [`MetricsRegistry`]: request counters
    /// (offered/completed/shed, per-reason sheds, failovers, retries),
    /// availability and utilization gauges, and per-request TTFT/TTLT
    /// latency histograms under `serve.ttft_ms` / `serve.ttlt_ms`.
    pub fn register_into(&self, reg: &mut MetricsRegistry) {
        reg.inc("serve.offered", self.offered as u64);
        reg.inc("serve.completed", self.completed as u64);
        reg.inc("serve.shed", self.shed as u64);
        reg.inc("serve.shed.queue_full", self.shed_queue_full as u64);
        reg.inc("serve.shed.oversized", self.shed_oversized as u64);
        reg.inc("serve.shed.no_memory", self.shed_no_memory as u64);
        reg.inc("serve.shed.failed", self.shed_failed as u64);
        reg.inc("serve.shed.deadline", self.shed_deadline as u64);
        reg.inc("serve.failovers", self.failovers as u64);
        reg.inc("serve.retries", self.retries as u64);
        reg.inc("serve.deadline_violations", self.deadline_violations as u64);
        reg.set_gauge("serve.goodput_qps", self.goodput_qps);
        reg.set_gauge("serve.utilization", self.utilization);
        reg.set_gauge("serve.availability", self.availability);
        reg.set_gauge("serve.degraded_s", self.degraded_s);
        reg.set_gauge("serve.slow_s", self.slow_s);
        for r in &self.requests {
            reg.observe("serve.ttft_ms", r.ttft_ms);
            reg.observe("serve.ttlt_ms", r.ttlt_ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ServeReport {
        ServeReport {
            strategy: Strategy::FacilDynamic,
            arrival: "poisson(1.00/s)".into(),
            routing: Routing::RoundRobin,
            num_devices: 1,
            offered: 2,
            completed: 1,
            shed: 1,
            shed_queue_full: 1,
            shed_oversized: 0,
            shed_no_memory: 0,
            shed_failed: 0,
            shed_deadline: 0,
            span_s: 2.5,
            offered_qps: 0.8,
            goodput_qps: 0.4,
            utilization: 0.5,
            availability: 0.9,
            downtime_s: 0.25,
            degraded_s: 0.1,
            relayout_stall_s: 0.0,
            slow_s: 0.05,
            failovers: 1,
            retries: 1,
            deadline_violations: 0,
            deadline_violation_rate: 0.0,
            ttft_ms: Summary::from_unsorted(vec![10.0]),
            tbt_ms: Summary::from_unsorted(vec![1.0, 2.0]),
            ttlt_ms: Summary::from_unsorted(vec![40.0]),
            devices: vec![DeviceReport {
                device: 0,
                completed: 1,
                shed: 1,
                utilization: 0.5,
                queue_peak: 1,
                kv_budget_bytes: 1 << 30,
                kv_peak_bytes: 1 << 20,
                kv_compact_s: 0.0,
                kv_pages_direct: 2,
                kv_pages_compacted: 0,
                kv_frames_moved: 0,
                iterations: 5,
                mean_batch: 1.2,
                uptime: 0.9,
                down_s: 0.25,
                degraded_s: 0.1,
                relayout_stall_s: 0.0,
                slow_s: 0.05,
                crashes: 1,
                evicted: 1,
                queue_depth: vec![QueueSample { t_s: 0.1, queued: 1, active: 1, kv_bytes: 42 }],
            }],
            requests: vec![RequestRecord {
                id: 0,
                device: 0,
                arrival_s: 0.0,
                admitted_s: 0.0,
                ttft_ms: 10.0,
                ttlt_ms: 40.0,
                prefill: 8,
                decode: 4,
                retries: 1,
            }],
            sheds: vec![ShedRecord {
                id: 1,
                device: 0,
                arrival_s: 0.2,
                reason: ShedReason::QueueFull,
            }],
        }
    }

    #[test]
    fn json_is_balanced_and_carries_keys() {
        let j = sample_report().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        let opens = j.matches('{').count();
        let closes = j.matches('}').count();
        assert_eq!(opens, closes, "unbalanced braces in {j}");
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert_eq!(j.matches('"').count() % 2, 0, "unbalanced quotes");
        for key in [
            "\"strategy\"",
            "\"goodput_qps\"",
            "\"ttft_ms\"",
            "\"p95\"",
            "\"queue_depth\"",
            "\"reason\":\"queue-full\"",
            "\"availability\"",
            "\"failovers\"",
            "\"deadline_violation_rate\"",
            "\"uptime\"",
            "\"slow_s\"",
            "\"retries\":1",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn json_is_deterministic() {
        assert_eq!(sample_report().to_json(), sample_report().to_json());
    }

    #[test]
    fn registry_mirrors_the_report() {
        let r = sample_report();
        let mut reg = MetricsRegistry::new();
        r.register_into(&mut reg);
        assert_eq!(reg.counter("serve.offered"), 2);
        assert_eq!(reg.counter("serve.completed"), 1);
        assert_eq!(reg.counter("serve.shed.queue_full"), 1);
        assert_eq!(reg.counter("serve.failovers"), 1);
        assert_eq!(reg.gauge("serve.availability"), Some(0.9));
        let ttft = reg.summary("serve.ttft_ms");
        assert_eq!(ttft.count, 1);
        assert_eq!(ttft.mean, 10.0);
        // Registering a second run accumulates instead of overwriting.
        r.register_into(&mut reg);
        assert_eq!(reg.counter("serve.offered"), 4);
        assert_eq!(reg.summary("serve.ttlt_ms").count, 2);
    }
}
