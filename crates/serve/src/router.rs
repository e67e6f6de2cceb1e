//! `prophet route` — a stateless proxy fronting a shard ring.
//!
//! The router owns no engine, no caches, and no store; it parses just
//! enough of each `POST /v1/predict` body to compute the request's
//! route key (the first resolved workload's cache key), forwards the
//! request verbatim to the shard that owns that key on the
//! [`ShardRing`], and relays the response. Because the body is
//! forwarded untouched and ownership is deterministic, a routed
//! response is byte-identical to asking the owning daemon directly —
//! the property the shard integration test pins.
//!
//! Transport-wise the router rides the same readiness-driven event
//! loop as the daemons ([`crate::eloop`]): keep-alive client
//! connections multiplex on one loop thread, and forwards reuse
//! persistent upstream connections from an [`http::UpstreamPool`]
//! instead of dialing the owning shard per request — the common case
//! costs no TCP handshake on either side of the router.
//!
//! `GET /v1/healthz` aggregates every shard's health; `GET /v1/metrics`
//! fetches every shard's JSON metrics and merges them (counters and
//! gauges summed, histograms added bucket-wise), adding the router's
//! own forwarding counters under `router.*`. With tracing on, every
//! forward carries `x-prophet-trace`, so the router hop and the shard
//! hops stitch into one trace, retrievable through the router's own
//! `GET /v1/debug/trace/<id>`.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use prophet_core::ProphetError;

use crate::api::{self, error_response};
use crate::eloop::{self, EventLoop, LoopConfig, ReqMeta, Responder};
use crate::http::{self, client_request, Request, Response};
use crate::ring::ShardRing;
use crate::{trace, NormalizedRequest, Resolver};

/// Router configuration.
#[derive(Clone)]
pub struct RouterConfig {
    /// Listen address (port 0 = ephemeral).
    pub addr: String,
    /// Shard daemon addresses forming the ring.
    pub shards: Vec<String>,
    /// Replication factor the shards were started with. The router
    /// fails a predict over to the key's ring successors when the
    /// owner is unreachable, so this must match the daemons'
    /// `--replicas` for failover reads to find a live copy.
    pub replicas: usize,
}

/// Forwarding counters, exposed under `router.*` in merged metrics.
#[derive(Default)]
pub struct RouterMetrics {
    /// Requests the router accepted (any endpoint).
    pub requests_total: AtomicU64,
    /// Predict requests forwarded to a shard.
    pub forwarded_total: AtomicU64,
    /// Forwards that failed at the transport level (shard unreachable).
    pub upstream_errors: AtomicU64,
    /// Predicts answered by a replica because the owner was down.
    pub replica_failovers: AtomicU64,
}

struct RouterShared {
    ring: ShardRing,
    replicas: usize,
    resolver: Resolver,
    metrics: RouterMetrics,
    conns: Arc<eloop::ConnStats>,
    /// Persistent keep-alive connections to the shards.
    upstreams: http::UpstreamPool,
    /// Per-process tracing state.
    tracing: trace::Tracing,
    /// The router's own end-to-end predict latency, merged into
    /// `/v1/metrics` as `router.request_nanos`.
    request_nanos: Mutex<prophet_obs::WallHistogram>,
}

impl RouterShared {
    fn observe_request(&self, nanos: u64) {
        self.request_nanos
            .lock()
            .expect("router histogram poisoned")
            .observe(nanos);
    }
}

/// A running router: its bound address plus the event loop to join on
/// shutdown.
pub struct RouterHandle {
    shared: Arc<RouterShared>,
    local_addr: SocketAddr,
    eloop: EventLoop,
}

/// The router service; see the module docs.
pub struct Router;

impl Router {
    /// Bind `cfg.addr` and start proxying on background threads. The
    /// resolver must be the same one the shards use, or router and
    /// shard would disagree on workload keys.
    pub fn start(cfg: RouterConfig, resolver: Resolver) -> std::io::Result<RouterHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let tracing = trace::Tracing::create(format!("router@{local_addr}"), 256, None)?;
        let shared = Arc::new(RouterShared {
            ring: ShardRing::new(cfg.shards),
            replicas: cfg.replicas.max(1),
            resolver,
            metrics: RouterMetrics::default(),
            conns: Arc::new(eloop::ConnStats::default()),
            upstreams: http::UpstreamPool::new(4),
            tracing,
            request_nanos: Mutex::new(prophet_obs::WallHistogram::new()),
        });
        let handler: eloop::Handler = {
            let shared = Arc::clone(&shared);
            Arc::new(move |req, meta, responder| handle_request(&shared, req, meta, responder))
        };
        let eloop = EventLoop::start(
            listener,
            handler,
            LoopConfig {
                max_connections: 1024,
                idle_timeout: Duration::from_secs(30),
                header_timeout: Duration::from_secs(10),
            },
            Arc::clone(&shared.conns),
        )?;
        Ok(RouterHandle {
            shared,
            local_addr,
            eloop,
        })
    }
}

impl RouterHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The router's forwarding counters.
    pub fn metrics(&self) -> &RouterMetrics {
        &self.shared.metrics
    }

    /// The ring this router forwards over.
    pub fn ring(&self) -> &ShardRing {
        &self.shared.ring
    }

    /// Stop accepting and join the loop. In-flight forwards finish;
    /// idle keep-alive connections close.
    pub fn shutdown(mut self) {
        self.eloop.drain();
        self.eloop.stop();
        self.eloop.join();
    }
}

/// The event-loop handler: per-request accounting plus dispatch. Runs
/// on the loop thread; every endpoint that blocks on upstream I/O is
/// handed to a short-lived thread.
fn handle_request(shared: &Arc<RouterShared>, req: Request, meta: ReqMeta, responder: Responder) {
    shared
        .metrics
        .requests_total
        .fetch_add(1, Ordering::Relaxed);
    let req_start = Instant::now()
        .checked_sub(Duration::from_nanos(meta.parse_nanos))
        .unwrap_or_else(Instant::now);
    let trace = shared.tracing.begin(req.header("x-prophet-trace"));
    trace.add_timed("parse", req_start, meta.parse_nanos, &[]);
    let is_predict = req.method == "POST" && req.path == "/v1/predict";
    // Every response carries a request id: the client's, or one
    // synthesised from the trace id.
    let rid = req
        .header("x-request-id")
        .map_or_else(|| trace.trace_hex(), str::to_string);
    {
        let shared = Arc::clone(shared);
        let trace = trace.clone();
        let path = req.path.clone();
        let rid = rid.clone();
        responder.set_on_written(move |status, flush_start, flush_nanos, _deadline_fired| {
            trace.add_timed("flush", flush_start, flush_nanos, &[]);
            let tags = [("path", path.clone()), ("request_id", rid.clone())];
            let total = trace.finish(&shared.tracing, status, &tags);
            if is_predict {
                shared.observe_request(total);
            }
        });
    }
    let trace_hex = trace.trace_hex();
    let send = move |mut resp: Response| {
        resp.extra_headers.push(("x-request-id", rid.clone()));
        resp.extra_headers
            .push(("x-prophet-trace", trace_hex.clone()));
        responder.send(resp);
    };

    // Only `/v1/...` is served, like on the daemons themselves: an
    // unversioned path maps to "", which no arm matches (404).
    let path = req.path.strip_prefix("/v1").unwrap_or("").to_string();
    match (req.method.as_str(), path.as_str()) {
        ("POST", "/predict") => {
            let shared = Arc::clone(shared);
            spawn_upstream("route-forward", move || {
                send(forward_predict(&req, &shared, &trace));
            });
        }
        ("GET", "/healthz") => {
            let shared = Arc::clone(shared);
            spawn_upstream("route-healthz", move || {
                send(aggregate_healthz(&shared));
            });
        }
        ("GET", "/metrics") => {
            let shared = Arc::clone(shared);
            spawn_upstream("route-metrics", move || {
                send(merge_metrics(&req, &shared));
            });
        }
        ("GET", "/cluster") => {
            let shared = Arc::clone(shared);
            spawn_upstream("route-cluster", move || {
                send(aggregate_cluster_status(&shared));
            });
        }
        ("GET", "/cluster/keys") => {
            let shared = Arc::clone(shared);
            spawn_upstream("route-keys", move || {
                send(aggregate_cluster_keys(&shared));
            });
        }
        ("POST", "/cluster/compact") => {
            let shared = Arc::clone(shared);
            spawn_upstream("route-compact", move || {
                send(fan_out_cluster(
                    &shared,
                    "/v1/cluster/compact",
                    &req.body,
                    |resp: api::ClusterCompactResponse, out: &mut api::ClusterCompactResponse| {
                        out.shards.extend(resp.shards)
                    },
                ));
            });
        }
        ("POST", "/cluster/migrate") => {
            let shared = Arc::clone(shared);
            spawn_upstream("route-migrate", move || {
                send(fan_out_cluster(
                    &shared,
                    "/v1/cluster/migrate",
                    &req.body,
                    |resp: api::ClusterMigrateResponse, out: &mut api::ClusterMigrateResponse| {
                        out.shards.extend(resp.shards)
                    },
                ));
            });
        }
        ("GET", "/predict") => send(Response::error(405, "use POST /v1/predict")),
        ("GET", p) if p.starts_with("/debug/trace/") => {
            let id_hex = p["/debug/trace/".len()..].to_string();
            let local_only = req.query_param("scope") == Some("local");
            let jsonl = req.query_param("format") == Some("jsonl");
            let shared = Arc::clone(shared);
            spawn_upstream("route-stitch", move || {
                // The router is not in the ring, so every shard is a peer.
                send(trace::debug_trace_response(
                    &shared.tracing,
                    &id_hex,
                    local_only,
                    jsonl,
                    shared.ring.addrs(),
                ));
            });
        }
        ("GET", "/debug/traces") => send(trace::debug_traces_response(&shared.tracing)),
        _ => send(Response::error(
            404,
            "unknown endpoint (try /v1/predict, /v1/healthz, /v1/metrics)",
        )),
    }
}

fn spawn_upstream(name: &str, f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .expect("spawn upstream thread");
}

/// The route key of a request body: the first resolved workload's cache
/// key. Any workload of the request would do — what matters is that
/// router, ring-aware daemons, and `loadgen --shards` derive the *same*
/// key from the same body — and the first is the cheapest stable pick.
pub fn route_key(body: &str, resolver: &Resolver) -> Result<String, ProphetError> {
    let (norm, _deadline) = NormalizedRequest::parse(body, resolver)?;
    Ok(norm.route_key().to_string())
}

fn forward_predict(req: &Request, shared: &Arc<RouterShared>, trace: &trace::ReqTrace) -> Response {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => {
            return error_response(&ProphetError::InvalidRequest(
                "body is not UTF-8".to_string(),
            ))
        }
    };
    let key = match route_key(body, &shared.resolver) {
        Ok(k) => k,
        Err(e) => return error_response(&e),
    };
    let owners = shared.ring.owners(&key, shared.replicas);
    shared
        .metrics
        .forwarded_total
        .fetch_add(1, Ordering::Relaxed);
    // The shard's request becomes a child of this forward span, carried
    // over the wire in `x-prophet-trace`.
    let fwd = trace.begin_span("forward");
    let header = trace.propagation_header(&fwd);
    let mut extra: Vec<(&str, &str)> = vec![("x-prophet-trace", &header)];
    if let Some(rid) = req.header("x-request-id") {
        extra.push(("x-request-id", rid));
    }
    // Owner first; on transport failure walk the key's replica set.
    // `x-replica-read` tells a replica to answer from its own store
    // instead of forwarding back to the (dead) owner.
    let mut result = None;
    let mut served_by: Option<&str> = None;
    let mut failed_over = false;
    for (i, addr) in owners.iter().enumerate() {
        let mut hop = extra.clone();
        if i > 0 {
            hop.push(("x-replica-read", "1"));
        }
        match shared
            .upstreams
            .request(addr, "POST", "/v1/predict", Some(body), &hop)
        {
            Ok(resp) => {
                result = Some(resp);
                served_by = Some(addr);
                failed_over = i > 0;
                break;
            }
            Err(_) => {
                shared
                    .metrics
                    .upstream_errors
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let owner = owners.first().copied().unwrap_or_default();
    trace.end_span(&fwd, &[("owner", served_by.unwrap_or(owner).to_string())]);
    match result {
        Some((status, _headers, resp_body)) => {
            if failed_over {
                shared
                    .metrics
                    .replica_failovers
                    .fetch_add(1, Ordering::Relaxed);
            }
            let shard = served_by.unwrap_or(owner).to_string();
            let mut resp = Response::json(status, resp_body).with_header("x-shard", shard);
            if failed_over {
                resp = resp.with_header("x-replica-read", "1".to_string());
            }
            resp
        }
        None if owners.len() > 1 => error_response(&ProphetError::ReplicaUnavailable(format!(
            "owner {owner} and {} replica(s) unreachable",
            owners.len() - 1
        ))),
        None => error_response(&ProphetError::Unavailable(format!(
            "shard {owner} unreachable"
        ))),
    }
}

/// `GET /v1/cluster`: ask every shard for its own status (each answers
/// with a one-element `shards` vector) and concatenate, stamping the
/// router's ring view and replication factor on the envelope. Shards
/// that don't answer appear as `alive: false` stubs, so the fleet view
/// always lists the full membership.
fn aggregate_cluster_status(shared: &Arc<RouterShared>) -> Response {
    let mut out = api::ClusterStatusResponse {
        ring: shared.ring.addrs().to_vec(),
        replicas: shared.replicas as u64,
        shards: Vec::new(),
    };
    for addr in shared.ring.addrs() {
        let shard = match client_request(addr, "GET", "/v1/cluster", None) {
            Ok((200, _, body)) => serde_json::from_str::<api::ClusterStatusResponse>(&body).ok(),
            _ => None,
        };
        match shard {
            Some(one) => out.shards.extend(one.shards),
            None => out.shards.push(api::ShardStatus {
                addr: addr.clone(),
                alive: false,
                ..Default::default()
            }),
        }
    }
    Response::json(
        200,
        serde_json::to_string_pretty(&out).expect("serialise cluster status"),
    )
}

/// `GET /v1/cluster/keys`: concatenate every reachable shard's local
/// key listing. Unreachable shards contribute no element.
fn aggregate_cluster_keys(shared: &Arc<RouterShared>) -> Response {
    let mut out = api::ClusterKeysResponse::default();
    for addr in shared.ring.addrs() {
        if let Ok((200, _, body)) =
            client_request(addr, "GET", "/v1/cluster/keys?scope=local", None)
        {
            if let Ok(one) = serde_json::from_str::<api::ClusterKeysResponse>(&body) {
                out.shards.extend(one.shards);
            }
        }
    }
    Response::json(
        200,
        serde_json::to_string_pretty(&out).expect("serialise cluster keys"),
    )
}

/// Fan a cluster POST out to every shard and concatenate the typed
/// per-shard responses. A non-200 from any shard is relayed verbatim
/// (409 `migration_in_progress`, 422, ...); an unreachable shard turns
/// the whole call into 503, since a partial compaction or migration
/// must not read as a complete one.
fn fan_out_cluster<R: Default + serde::Deserialize + serde::Serialize>(
    shared: &Arc<RouterShared>,
    path: &str,
    body: &[u8],
    merge: impl Fn(R, &mut R),
) -> Response {
    let body_str = match std::str::from_utf8(body) {
        Ok(s) => s,
        Err(_) => {
            return error_response(&ProphetError::InvalidRequest(
                "body is not UTF-8".to_string(),
            ))
        }
    };
    let body_opt = (!body_str.trim().is_empty()).then_some(body_str);
    let mut out = R::default();
    for addr in shared.ring.addrs() {
        match client_request(addr, "POST", path, body_opt) {
            Ok((200, _, resp)) => match serde_json::from_str::<R>(&resp) {
                Ok(one) => merge(one, &mut out),
                Err(e) => {
                    return error_response(&ProphetError::Unavailable(format!(
                        "shard {addr} returned an unparseable {path} response: {e:?}"
                    )))
                }
            },
            Ok((status, _, resp)) => {
                return Response::json(status, resp).with_header("x-shard", addr.clone())
            }
            Err(e) => {
                return error_response(&ProphetError::Unavailable(format!(
                    "shard {addr} unreachable during {path}: {e}"
                )))
            }
        }
    }
    Response::json(
        200,
        serde_json::to_string_pretty(&out).expect("serialise cluster fan-out"),
    )
}

fn aggregate_healthz(shared: &Arc<RouterShared>) -> Response {
    let mut shards = Vec::new();
    let mut all_ok = true;
    for addr in shared.ring.addrs() {
        let ok = matches!(
            client_request(addr, "GET", "/v1/healthz", None),
            Ok((200, _, _))
        );
        all_ok &= ok;
        shards.push(serde::Value::Object(vec![
            ("addr".to_string(), serde::Value::Str(addr.clone())),
            (
                "status".to_string(),
                serde::Value::Str(if ok { "ok" } else { "unreachable" }.to_string()),
            ),
        ]));
    }
    let obj = serde::Value::Object(vec![
        (
            "status".to_string(),
            serde::Value::Str(if all_ok { "ok" } else { "degraded" }.to_string()),
        ),
        ("shards".to_string(), serde::Value::Array(shards)),
    ]);
    Response::json(
        if all_ok { 200 } else { 503 },
        serde_json::to_string(&obj).expect("serialise healthz"),
    )
}

/// Fetch every shard's JSON metrics and merge: counters and gauges are
/// summed across shards (a gauge sum is the fleet total — queue depth,
/// inflight — which is the useful aggregate). Histograms are merged
/// too — the rendered JSON carries each bucket's lower
/// bound and count, and equal bucket layouts add bucket-wise, so the
/// merged percentiles are exactly those of the pooled observations.
fn merge_metrics(req: &Request, shared: &Arc<RouterShared>) -> Response {
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut gauges: Vec<(String, f64)> = Vec::new();
    let mut hists: Vec<(String, prophet_obs::HistSnapshot)> = Vec::new();
    let mut shard_list = Vec::new();
    let mut reached = 0usize;
    for addr in shared.ring.addrs() {
        let ok = match client_request(addr, "GET", "/v1/metrics", None) {
            Ok((200, _, body)) => match serde_json::from_str::<serde::Value>(&body) {
                Ok(value) => {
                    merge_section(&value, "counters", &mut counters, |v| {
                        v.as_f64().map(|f| f as u64)
                    });
                    merge_section(&value, "gauges", &mut gauges, serde::Value::as_f64);
                    merge_histograms(&value, &mut hists);
                    reached += 1;
                    true
                }
                Err(_) => false,
            },
            _ => false,
        };
        shard_list.push(serde::Value::Object(vec![
            ("addr".to_string(), serde::Value::Str(addr.clone())),
            ("reached".to_string(), serde::Value::Bool(ok)),
        ]));
    }
    let m = &shared.metrics;
    counters.push((
        "router.requests_total".to_string(),
        m.requests_total.load(Ordering::Relaxed),
    ));
    counters.push((
        "router.forwarded_total".to_string(),
        m.forwarded_total.load(Ordering::Relaxed),
    ));
    counters.push((
        "router.upstream_errors".to_string(),
        m.upstream_errors.load(Ordering::Relaxed),
    ));
    counters.push((
        "router.replica_failovers".to_string(),
        m.replica_failovers.load(Ordering::Relaxed),
    ));
    counters.push((
        "router.keepalive_reuses_total".to_string(),
        shared.conns.keepalive_reuses_total.load(Ordering::Relaxed),
    ));
    counters.push(("router.shards_reachable".to_string(), reached as u64));

    let mut fields = vec![
        (
            "counters".to_string(),
            serde::Value::Object(
                counters
                    .into_iter()
                    .map(|(k, v)| (k, serde::Value::U64(v)))
                    .collect(),
            ),
        ),
        (
            "gauges".to_string(),
            serde::Value::Object(
                gauges
                    .into_iter()
                    .map(|(k, v)| (k, serde::Value::F64(v)))
                    .collect(),
            ),
        ),
    ];
    let own = shared
        .request_nanos
        .lock()
        .expect("router histogram poisoned")
        .to_value();
    if let Some(snap) = prophet_obs::HistSnapshot::from_value(&own) {
        if snap.count > 0 {
            hists.push(("router.request_nanos".to_string(), snap));
        }
    }
    hists.sort_by(|a, b| a.0.cmp(&b.0));
    fields.push((
        "histograms".to_string(),
        serde::Value::Object(hists.into_iter().map(|(k, h)| (k, h.to_value())).collect()),
    ));
    fields.push(("shards".to_string(), serde::Value::Array(shard_list)));
    let obj = serde::Value::Object(fields);
    let _ = req; // format=prom is not offered on the merged endpoint
    Response::json(
        200,
        serde_json::to_string_pretty(&obj).expect("serialise metrics"),
    )
}

/// Add every histogram of `value["histograms"]` into `acc` bucket-wise.
fn merge_histograms(value: &serde::Value, acc: &mut Vec<(String, prophet_obs::HistSnapshot)>) {
    let Some(serde::Value::Object(fields)) = value.get("histograms") else {
        return;
    };
    for (name, v) in fields {
        let Some(snap) = prophet_obs::HistSnapshot::from_value(v) else {
            continue;
        };
        match acc.iter_mut().find(|(k, _)| k == name) {
            Some((_, total)) => total.merge(&snap),
            None => acc.push((name.clone(), snap)),
        }
    }
}

/// Add every numeric entry of `value[section]` into `acc` by name.
fn merge_section<T: Copy + std::ops::Add<Output = T>>(
    value: &serde::Value,
    section: &str,
    acc: &mut Vec<(String, T)>,
    convert: impl Fn(&serde::Value) -> Option<T>,
) {
    let Some(serde::Value::Object(fields)) = value.get(section) else {
        return;
    };
    for (name, v) in fields {
        let Some(n) = convert(v) else { continue };
        match acc.iter_mut().find(|(k, _)| k == name) {
            Some((_, total)) => *total = *total + n,
            None => acc.push((name.clone(), n)),
        }
    }
}
