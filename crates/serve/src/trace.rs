//! Wall-clock request tracing glue for the daemon and router.
//!
//! This module adapts [`prophet_obs::wallspan`] to the serve crate's
//! request lifecycle.
//!
//! The moving parts:
//!
//! * [`Tracing`] — one per process: the splitmix64 id generator (seeded
//!   deterministically under `PROPHET_TRACE_SEED`), the process label
//!   (`shard@addr` / `router@addr`), a bounded **flight recorder** of
//!   recently finished traces, and the optional JSONL access log.
//! * [`ReqTrace`] — one per request: the trace id (fresh, or adopted
//!   from an inbound `x-prophet-trace` header), the root span, and a
//!   [`SpanSink`] that the connection thread and the batch worker both
//!   append finished stage spans into.
//! * Trace stitching — each process only ever stores its own spans;
//!   `GET /v1/debug/trace/<id>` fans out to its peers with
//!   `?scope=local` and merges the JSONL span dumps into one
//!   Chrome-trace timeline. Stitching happens at read time, so the
//!   request path never blocks on trace shipping.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use prophet_obs::wallspan::{self, IdGen, SpanId, SpanSink, TraceContext, TraceId, WallSpan};

use crate::http::{client_request, Response};

/// Process-wide tracing state; see the module docs.
pub struct Tracing {
    ids: Arc<IdGen>,
    process: Arc<str>,
    epoch: Instant,
    epoch_unix_nanos: u64,
    flight: Mutex<VecDeque<(TraceId, Vec<WallSpan>)>>,
    flight_cap: usize,
    access: Option<Mutex<std::fs::File>>,
}

impl Tracing {
    /// Build the per-process tracing state. `process` labels every
    /// span (e.g. `shard@127.0.0.1:7177`); `flight_cap` bounds the
    /// flight recorder; `access_log` appends one JSON line per
    /// finished request to the given path.
    pub fn create(
        process: String,
        flight_cap: usize,
        access_log: Option<&str>,
    ) -> std::io::Result<Tracing> {
        let access = match access_log {
            None => None,
            Some(path) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )),
        };
        let epoch_unix_nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        Ok(Tracing {
            ids: Arc::new(IdGen::from_env(&process)),
            process: process.into(),
            epoch: Instant::now(),
            epoch_unix_nanos,
            flight: Mutex::new(VecDeque::new()),
            flight_cap: flight_cap.max(1),
            access,
        })
    }

    /// Start a request trace, adopting the trace id and remote
    /// parent from an inbound `x-prophet-trace` header when present
    /// (malformed headers start a fresh trace instead of failing).
    pub fn begin(&self, inbound: Option<&str>) -> ReqTrace {
        let ctx = inbound.and_then(TraceContext::parse);
        ReqTrace(Arc::new(ReqInner {
            trace: ctx.map_or_else(|| self.ids.next_trace(), |c| c.trace),
            root: self.ids.next_span(),
            root_parent: ctx.map(|c| c.parent),
            root_start: Instant::now(),
            sink: SpanSink::new(),
            ids: Arc::clone(&self.ids),
            process: Arc::clone(&self.process),
            epoch: self.epoch,
            epoch_unix_nanos: self.epoch_unix_nanos,
        }))
    }

    fn flight_record(&self, trace: TraceId, mut spans: Vec<WallSpan>) {
        let mut flight = self.flight.lock().expect("flight recorder poisoned");
        match flight.iter_mut().find(|(t, _)| *t == trace) {
            // Same trace id seen again in this process (a client
            // reusing a header): keep one stitched entry.
            Some((_, existing)) => existing.append(&mut spans),
            None => {
                flight.push_back((trace, spans));
                while flight.len() > self.flight_cap {
                    flight.pop_front();
                }
            }
        }
    }

    fn flight_get(&self, trace: TraceId) -> Vec<WallSpan> {
        self.flight
            .lock()
            .expect("flight recorder poisoned")
            .iter()
            .find(|(t, _)| *t == trace)
            .map(|(_, spans)| spans.clone())
            .unwrap_or_default()
    }

    fn access_log_write(&self, root: &WallSpan, stages: &[(String, u64)]) {
        let Some(file) = &self.access else { return };
        let mut fields = vec![
            (
                "ts_unix_nanos".to_string(),
                serde::Value::U64(root.start_unix_nanos),
            ),
            ("trace".to_string(), serde::Value::Str(root.trace.hex())),
            (
                "process".to_string(),
                serde::Value::Str(root.process.clone()),
            ),
            ("total_nanos".to_string(), serde::Value::U64(root.dur_nanos)),
        ];
        for (k, v) in &root.tags {
            fields.push((k.clone(), serde::Value::Str(v.clone())));
        }
        fields.push((
            "stages".to_string(),
            serde::Value::Object(
                stages
                    .iter()
                    .map(|(name, nanos)| (name.clone(), serde::Value::U64(*nanos)))
                    .collect(),
            ),
        ));
        let line = serde_json::to_string(&serde::Value::Object(fields))
            .expect("serialise access-log line");
        let mut f = file.lock().expect("access log poisoned");
        let _ = writeln!(f, "{line}");
    }
}

struct ReqInner {
    trace: TraceId,
    root: SpanId,
    root_parent: Option<SpanId>,
    root_start: Instant,
    sink: SpanSink,
    ids: Arc<IdGen>,
    process: Arc<str>,
    epoch: Instant,
    epoch_unix_nanos: u64,
}

impl ReqInner {
    fn unix_nanos_of(&self, at: Instant) -> u64 {
        let offset = at
            .checked_duration_since(self.epoch)
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        self.epoch_unix_nanos.saturating_add(offset)
    }
}

/// One request's trace handle; cheap to clone, shared between the
/// connection thread and the batch worker.
#[derive(Clone)]
pub struct ReqTrace(Arc<ReqInner>);

/// An open span: finish it with [`ReqTrace::end_span`], or use its
/// id as the parent of synthesised sub-spans.
pub struct SpanHandle {
    id: SpanId,
    start: Instant,
    name: &'static str,
}

impl ReqTrace {
    /// The trace id in wire hex, for response headers.
    pub fn trace_hex(&self) -> String {
        self.0.trace.hex()
    }

    /// Open a child span of the request root.
    pub fn begin_span(&self, name: &'static str) -> SpanHandle {
        SpanHandle {
            id: self.0.ids.next_span(),
            start: Instant::now(),
            name,
        }
    }

    /// Close an open span, attaching `tags`.
    pub fn end_span(&self, h: &SpanHandle, tags: &[(&str, String)]) {
        let dur = u64::try_from(h.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.push(h.name, Some(h.id), Some(self.0.root), h.start, dur, tags);
    }

    /// Record an already-measured interval as a child of the root.
    pub fn add_timed(&self, name: &str, start: Instant, dur_nanos: u64, tags: &[(&str, String)]) {
        self.push(name, None, Some(self.0.root), start, dur_nanos, tags);
    }

    /// Record an already-measured interval as a child of the root
    /// and return its handle, so synthesised sub-spans can parent
    /// under it (the batch `predict` span works this way: its
    /// duration is known before its children are attached).
    pub fn add_timed_span(
        &self,
        name: &'static str,
        start: Instant,
        dur_nanos: u64,
        tags: &[(&str, String)],
    ) -> SpanHandle {
        let id = self.0.ids.next_span();
        self.push(name, Some(id), Some(self.0.root), start, dur_nanos, tags);
        SpanHandle { id, start, name }
    }

    /// Record an already-measured interval under an open span (the
    /// profile/predict/store sub-spans of a batch's `predict`).
    pub fn add_timed_under(
        &self,
        parent: &SpanHandle,
        name: &str,
        start: Instant,
        dur_nanos: u64,
        tags: &[(&str, String)],
    ) {
        self.push(name, None, Some(parent.id), start, dur_nanos, tags);
    }

    /// The `x-prophet-trace` value to send with a forward performed
    /// under span `h`: the receiving hop's root becomes `h`'s child.
    pub fn propagation_header(&self, h: &SpanHandle) -> String {
        TraceContext {
            trace: self.0.trace,
            parent: h.id,
        }
        .header_value()
    }

    fn push(
        &self,
        name: &str,
        id: Option<SpanId>,
        parent: Option<SpanId>,
        start: Instant,
        dur_nanos: u64,
        tags: &[(&str, String)],
    ) {
        let inner = &self.0;
        inner.sink.push(WallSpan {
            trace: inner.trace,
            id: id.unwrap_or_else(|| inner.ids.next_span()),
            parent,
            name: name.to_string(),
            process: inner.process.to_string(),
            start_unix_nanos: inner.unix_nanos_of(start),
            dur_nanos,
            tags: tags
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        });
    }

    /// Close the root span and publish the whole trace to the
    /// flight recorder (and access log, when configured). Returns
    /// the request's total wall nanoseconds.
    pub fn finish(&self, tracing: &Tracing, status: u16, tags: &[(&str, String)]) -> u64 {
        let inner = &self.0;
        let total = u64::try_from(inner.root_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut root_tags: Vec<(String, String)> = vec![("status".to_string(), status.to_string())];
        root_tags.extend(tags.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
        let root = WallSpan {
            trace: inner.trace,
            id: inner.root,
            parent: inner.root_parent,
            name: "request".to_string(),
            process: inner.process.to_string(),
            start_unix_nanos: inner.unix_nanos_of(inner.root_start),
            dur_nanos: total,
            tags: root_tags,
        };
        let mut spans = inner.sink.drain();
        let mut stages: Vec<(String, u64)> = Vec::new();
        for sp in &spans {
            match stages.iter_mut().find(|(n, _)| *n == sp.name) {
                Some((_, nanos)) => *nanos += sp.dur_nanos,
                None => stages.push((sp.name.clone(), sp.dur_nanos)),
            }
        }
        tracing.access_log_write(&root, &stages);
        spans.push(root);
        spans.sort_by_key(|a| (a.start_unix_nanos, a.id));
        tracing.flight_record(inner.trace, spans);
        total
    }
}

/// Render `GET /v1/debug/trace/<id>`: this process's spans for the
/// trace, stitched (unless `local_only`) with every peer's via
/// `?scope=local&format=jsonl` sub-requests. `jsonl` selects the
/// span-dump wire format over the default Chrome-trace JSON.
pub fn debug_trace_response(
    tracing: &Tracing,
    id_hex: &str,
    local_only: bool,
    jsonl: bool,
    peers: &[String],
) -> Response {
    let Some(id) = TraceId::parse_hex(id_hex) else {
        return Response::error(
            400,
            "bad trace id (expected hex, e.g. from x-prophet-trace)",
        );
    };
    let mut spans = tracing.flight_get(id);
    if !local_only {
        for peer in peers {
            let path = format!("/v1/debug/trace/{id_hex}?scope=local&format=jsonl");
            if let Ok((200, _, body)) = client_request(peer, "GET", &path, None) {
                spans.extend(wallspan::spans_from_jsonl(&body));
            }
        }
        // A peer list may loop back to us; keep each span once.
        spans.sort_by(|a, b| {
            (a.start_unix_nanos, &a.process, a.id).cmp(&(b.start_unix_nanos, &b.process, b.id))
        });
        spans.dedup_by(|a, b| a.process == b.process && a.id == b.id);
    }
    if spans.is_empty() {
        return Response::error(
            404,
            "trace not found (it may have rotated out of the flight recorder)",
        );
    }
    if jsonl {
        return Response {
            status: 200,
            content_type: "application/x-ndjson",
            body: wallspan::spans_jsonl(&spans).into(),
            extra_headers: Vec::new(),
        };
    }
    Response::json(200, wallspan::spans_chrome_trace(&spans))
}

/// Render `GET /v1/debug/traces`: a summary of every trace still in
/// this process's flight recorder, oldest first.
pub fn debug_traces_response(tracing: &Tracing) -> Response {
    let flight = tracing.flight.lock().expect("flight recorder poisoned");
    let entries: Vec<serde::Value> = flight
        .iter()
        .map(|(trace, spans)| {
            let root = spans
                .iter()
                .find(|sp| sp.name == "request" && *sp.process == *tracing.process);
            let status = root
                .and_then(|sp| sp.tags.iter().find(|(k, _)| k == "status"))
                .map(|(_, v)| v.clone())
                .unwrap_or_default();
            serde::Value::Object(vec![
                ("trace".to_string(), serde::Value::Str(trace.hex())),
                ("spans".to_string(), serde::Value::U64(spans.len() as u64)),
                (
                    "start_unix_nanos".to_string(),
                    serde::Value::U64(
                        spans
                            .iter()
                            .map(|sp| sp.start_unix_nanos)
                            .min()
                            .unwrap_or(0),
                    ),
                ),
                (
                    "total_nanos".to_string(),
                    serde::Value::U64(root.map_or(0, |sp| sp.dur_nanos)),
                ),
                ("status".to_string(), serde::Value::Str(status)),
            ])
        })
        .collect();
    let obj = serde::Value::Object(vec![
        ("count".to_string(), serde::Value::U64(entries.len() as u64)),
        ("traces".to_string(), serde::Value::Array(entries)),
    ]);
    Response::json(
        200,
        serde_json::to_string_pretty(&obj).expect("serialise trace list"),
    )
}
