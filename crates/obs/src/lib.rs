#![warn(missing_docs)]

//! `prophet-obs` — the observability layer for Parallel Prophet.
//!
//! The simulator stack's end-of-run aggregates (`machsim::RunStats`) say
//! *how much* speedup was lost; this crate records *where it went over
//! virtual time* so burden factors, lock serialisation, imbalance and
//! bandwidth saturation (the paper's Figs. 2, 5 and 7) can be inspected
//! event by event:
//!
//! * [`Recorder`] — a preallocated ring-buffer recorder for typed
//!   [`EventKind`]s, timestamped with the simulator's **virtual** clock.
//!   Everything is deterministic: two same-seed runs produce
//!   byte-identical exports, so traces double as golden test files.
//! * [`metrics`] — a registry of counters, gauges and histograms plus
//!   derived time series (per-core utilisation, lock-wait distribution,
//!   DRAM-bandwidth occupancy) computed from the event stream.
//! * [`export`] — Chrome Trace Event / Perfetto JSON (one track per
//!   simulated core and per runtime worker), a compact JSONL dump, and a
//!   plain-text timeline summary for terminals.
//! * [`wallspan`] — **wall-clock** request tracing for the serve fleet:
//!   trace/span ids that propagate across processes, a log-linear
//!   latency histogram with p50/p95/p99 readout, and Chrome-trace/JSONL
//!   span exporters.
//!
//! Producers (machsim, omp-rt, cilk-rt, ffemu, synthemu, tracer) record
//! only while a recorder is attached; an unattached run pays one
//! `Option` check per call site.

pub mod export;
pub mod metrics;
pub mod record;
pub mod wallspan;

pub use export::{chrome_trace_json, jsonl_dump, prometheus_text, timeline_summary};
pub use metrics::{Histogram, MetricsRegistry, TraceMetrics};
pub use record::{Event, EventKind, ObsHandle, ObsLevel, Recorder, SpanKind};
pub use wallspan::{
    HistSnapshot, IdGen, SpanId, SpanSink, TraceContext, TraceId, WallHistogram, WallSpan,
};
