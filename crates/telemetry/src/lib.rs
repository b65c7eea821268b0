//! # facil-telemetry
//!
//! Unified observability substrate for the FACIL (HPCA 2025) reproduction.
//! Every other crate in the workspace reports through this one:
//!
//! * [`trace`] — structured spans and instant events carrying **simulated**
//!   nanoseconds (never wall-clock), recorded into a preallocated ring
//!   buffer behind the [`TraceSink`] trait. The no-op [`NullSink`]
//!   monomorphizes to nothing, so instrumented hot paths cost zero when
//!   tracing is off, and [`RingSink::to_chrome_json`] exports a
//!   Chrome/Perfetto `trace_event` file openable in `ui.perfetto.dev`;
//! * [`metrics`] — a [`MetricsRegistry`] of counters, gauges and
//!   histograms (histograms summarize through [`stats::Summary`]) that the
//!   DRAM, sim and serve layers register their counters into;
//! * [`json`] — the workspace's single hand-rolled streaming
//!   [`JsonWriter`] (no JSON crate in the dependency tree), shared by the
//!   trace exporter, the metrics registry, `facil_serve` reports and the
//!   bench binaries;
//! * [`manifest`] — a [`RunManifest`] emitter so every bench binary writes
//!   one schema-versioned JSONL record (config, seed, results);
//! * [`memo`] — a thread-safe [`memo::Memo`] that computes each key once,
//!   without holding its lock while a value is computed (the re-layout
//!   profile and mapping-search replay memos);
//! * [`pool`] — deterministic parallel helpers ([`pool::par_map`],
//!   [`pool::par_map_mut`]) on a persistent executor whose workers claim
//!   runs of items from one shared cursor, with the `FACIL_THREADS`
//!   worker-count knob, used to run independent DRAM channels, fleet
//!   devices and bench sweep points concurrently while keeping results
//!   bit-identical to serial execution for any worker count — nested
//!   calls run inline on the invoking worker, so parallel layers compose
//!   without oversubscribing;
//! * [`stats`] — nearest-rank percentiles and [`stats::Summary`]
//!   aggregates, shared by every crate that reports latencies.
//!
//! ```
//! use facil_telemetry::{ArgValue, RingSink, TraceSink};
//!
//! let mut sink = RingSink::new(1024);
//! let track = sink.track("dram", "ch0/r0/b0");
//! sink.complete(track, "ACT", 0.0, 18.0, &[("row", ArgValue::U64(7))]);
//! let json = sink.to_chrome_json();
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod executor;
pub mod json;
pub mod manifest;
pub mod memo;
pub mod metrics;
pub mod pool;
pub mod stats;
pub mod trace;

pub use json::JsonWriter;
pub use manifest::{RunManifest, MANIFEST_SCHEMA_VERSION};
pub use metrics::MetricsRegistry;
pub use stats::{percentile, Summary};
pub use trace::{Arg, ArgValue, EventKind, NullSink, RingSink, TraceEvent, TraceSink, TrackId};
