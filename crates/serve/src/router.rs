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
//! connections multiplex on one loop thread, and a forward is an
//! [`Outbound`] exchange on that same thread, over a persistent
//! upstream connection from the loop's per-shard idle pool. The common
//! case costs no TCP handshake on either side of the router, no thread
//! spawn and no cross-thread handoff: the shard's answer is read and
//! relayed by the loop thread that parsed the request.
//!
//! `GET /v1/healthz` aggregates every shard's health; `GET /v1/metrics`
//! fetches every shard's JSON metrics and merges them (counters and
//! gauges summed, histograms added bucket-wise), adding the router's
//! own forwarding counters under `router.*`. These read-only fan-outs
//! (and `GET /v1/cluster`, `/v1/cluster/keys`) are one outbound request
//! per shard joined on the loop. Compaction, migration and trace
//! stitching block for longer and run on the bounded
//! [`BlockingPool`]. With tracing on, every forward carries
//! `x-prophet-trace`, so the router hop and the shard hops stitch into
//! one trace, retrievable through the router's own
//! `GET /v1/debug/trace/<id>`.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use prophet_core::ProphetError;

use crate::api::{self, error_response};
use crate::eloop::{self, EventLoop, LoopConfig, Outbound, ReqMeta, Responder};
use crate::http::{client_request, ClientResponse, Request, Response};
use crate::pool::{self, BlockingPool};
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
    /// Runs compaction, migration and trace stitching off the loop.
    blocking: BlockingPool,
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
            blocking: BlockingPool::new(
                "route-blocking",
                pool::BLOCKING_THREADS,
                pool::BLOCKING_QUEUE,
            ),
            tracing,
            request_nanos: Mutex::new(prophet_obs::WallHistogram::new()),
        });
        let handler: eloop::Handler = {
            let shared = Arc::clone(&shared);
            Arc::new(move |req, meta, responder, out: &mut Outbound| {
                handle_request(&shared, req, meta, responder, out)
            })
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
/// on the loop thread: predicts and the read-only fan-outs are
/// outbound exchanges on `out`, whose callbacks answer on this thread
/// too; compaction, migration and stitching go to the blocking pool.
fn handle_request(
    shared: &Arc<RouterShared>,
    req: Request,
    meta: ReqMeta,
    responder: Responder,
    out: &mut Outbound,
) {
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
    let addrs = shared.ring.addrs();
    let shared = Arc::clone(shared);

    // Only `/v1/...` is served, like on the daemons themselves: an
    // unversioned path maps to "", which no arm matches (404).
    let path = req.path.strip_prefix("/v1").unwrap_or("").to_string();
    match (req.method.as_str(), path.as_str()) {
        ("POST", "/predict") => forward_predict(&req, &shared, &trace, out, send),
        ("GET", "/healthz") => fan_out(out, addrs, "/v1/healthz", move |results| {
            send(aggregate_healthz(&shared, results))
        }),
        ("GET", "/metrics") => fan_out(out, addrs, "/v1/metrics", move |results| {
            send(merge_metrics(&shared, results))
        }),
        ("GET", "/cluster") => fan_out(out, addrs, "/v1/cluster", move |results| {
            send(aggregate_cluster_status(&shared, results))
        }),
        ("GET", "/cluster/keys") => {
            fan_out(out, addrs, "/v1/cluster/keys?scope=local", move |results| {
                send(aggregate_cluster_keys(results))
            })
        }
        ("POST", "/cluster/compact") => run_blocking(
            &shared,
            move |shared| {
                fan_out_cluster(
                    shared,
                    "/v1/cluster/compact",
                    &req.body,
                    |resp: api::ClusterCompactResponse, out: &mut api::ClusterCompactResponse| {
                        out.shards.extend(resp.shards)
                    },
                )
            },
            send,
        ),
        ("POST", "/cluster/migrate") => run_blocking(
            &shared,
            move |shared| {
                fan_out_cluster(
                    shared,
                    "/v1/cluster/migrate",
                    &req.body,
                    |resp: api::ClusterMigrateResponse, out: &mut api::ClusterMigrateResponse| {
                        out.shards.extend(resp.shards)
                    },
                )
            },
            send,
        ),
        ("GET", "/predict") => send(Response::error(405, "use POST /v1/predict")),
        ("GET", p) if p.starts_with("/debug/trace/") => {
            let id_hex = p["/debug/trace/".len()..].to_string();
            let local_only = req.query_param("scope") == Some("local");
            let jsonl = req.query_param("format") == Some("jsonl");
            run_blocking(
                &shared,
                move |shared| {
                    // The router is not in the ring, so every shard is a
                    // peer.
                    trace::debug_trace_response(
                        &shared.tracing,
                        &id_hex,
                        local_only,
                        jsonl,
                        shared.ring.addrs(),
                    )
                },
                send,
            )
        }
        ("GET", "/debug/traces") => send(trace::debug_traces_response(&shared.tracing)),
        _ => send(Response::error(
            404,
            "unknown endpoint (try /v1/predict, /v1/healthz, /v1/metrics)",
        )),
    }
}

/// Hand `work`'s response to `send`, computed on the blocking pool (or
/// the pool's 503 when it is full).
fn run_blocking(
    shared: &Arc<RouterShared>,
    work: impl FnOnce(&RouterShared) -> Response + Send + 'static,
    send: impl FnOnce(Response) + Send + 'static,
) {
    let worker = Arc::clone(shared);
    shared.blocking.run(move || work(&worker), send);
}

/// The route key of a request body: the first resolved workload's cache
/// key. Any workload of the request would do — what matters is that
/// router, ring-aware daemons, and `loadgen --shards` derive the *same*
/// key from the same body — and the first is the cheapest stable pick.
pub fn route_key(body: &str, resolver: &Resolver) -> Result<String, ProphetError> {
    let (norm, _deadline) = NormalizedRequest::parse(body, resolver)?;
    Ok(norm.route_key().to_string())
}

fn forward_predict(
    req: &Request,
    shared: &Arc<RouterShared>,
    trace: &trace::ReqTrace,
    out: &mut Outbound,
    send: impl FnOnce(Response) + Send + 'static,
) {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return send(error_response(&ProphetError::InvalidRequest(
            "body is not UTF-8".to_string(),
        )));
    };
    let span = trace.begin_span("route_key");
    let key = route_key(body, &shared.resolver);
    trace.end_span(&span, &[]);
    let key = match key {
        Ok(k) => k,
        Err(e) => return send(error_response(&e)),
    };
    shared
        .metrics
        .forwarded_total
        .fetch_add(1, Ordering::Relaxed);
    // The shard's request becomes a child of this forward span, carried
    // over the wire in `x-prophet-trace`.
    let fwd = trace.begin_span("forward");
    let mut headers = vec![("x-prophet-trace", trace.propagation_header(&fwd))];
    if let Some(rid) = req.header("x-request-id") {
        headers.push(("x-request-id", rid.to_string()));
    }
    let owners = shared.ring.owners(&key, shared.replicas);
    let errors = Arc::clone(shared);
    let (shared, trace) = (Arc::clone(shared), trace.clone());
    forward(
        out,
        Forward {
            owners: owners.into_iter().map(str::to_string).collect(),
            path: req.path.clone(),
            body: body.to_string(),
            headers,
        },
        move || {
            errors
                .metrics
                .upstream_errors
                .fetch_add(1, Ordering::Relaxed);
        },
        move |done| {
            trace.end_span(&fwd, &[("owner", done.shard)]);
            if done.failed_over {
                shared
                    .metrics
                    .replica_failovers
                    .fetch_add(1, Ordering::Relaxed);
            }
            send(done.resp);
        },
    );
}

/// A request to forward along a key's owner list.
pub(crate) struct Forward {
    /// The key's owner first, then the replicas to fail over to, in
    /// ring-successor order.
    pub owners: Vec<String>,
    pub path: String,
    pub body: String,
    /// Headers every attempt carries (trace propagation, request id).
    pub headers: Vec<(&'static str, String)>,
}

/// How a [`forward`] ended.
pub(crate) struct Forwarded {
    /// The answering shard's status and body verbatim, plus `x-shard`
    /// (and `x-replica-read: 1` from a replica); or the typed 503 when
    /// no owner was reachable.
    pub resp: Response,
    /// The shard that answered, or the owner when none did.
    pub shard: String,
    /// A replica answered because the owner was unreachable.
    pub failed_over: bool,
}

/// POST `fwd` to its owner on the event loop. On a transport error the
/// request is re-issued to the next owner with `x-replica-read: 1`,
/// which tells a replica to answer from its own store instead of
/// forwarding back to the (dead) owner. `on_error` counts each failed
/// attempt; `done` runs once, on the loop thread.
pub(crate) fn forward(
    out: &mut Outbound,
    fwd: Forward,
    on_error: impl Fn() + Send + 'static,
    done: impl FnOnce(Forwarded) + Send + 'static,
) {
    attempt(out, Arc::new(fwd), 0, Box::new(on_error), Box::new(done));
}

fn attempt(
    out: &mut Outbound,
    fwd: Arc<Forward>,
    i: usize,
    on_error: Box<dyn Fn() + Send>,
    done: Box<dyn FnOnce(Forwarded) + Send>,
) {
    let Some(addr) = fwd.owners.get(i) else {
        return done(Forwarded {
            resp: error_response(&ProphetError::Unavailable(
                "no shard owns the key".to_string(),
            )),
            shard: String::new(),
            failed_over: false,
        });
    };
    let mut headers: Vec<(&str, &str)> =
        fwd.headers.iter().map(|(k, v)| (*k, v.as_str())).collect();
    if i > 0 {
        headers.push(("x-replica-read", "1"));
    }
    let next = Arc::clone(&fwd);
    out.request(
        addr,
        "POST",
        &fwd.path,
        &headers,
        Some(&fwd.body),
        move |result, out| {
            let fwd = next;
            match result {
                Ok((status, _, body)) => {
                    let shard = fwd.owners[i].clone();
                    let mut resp =
                        Response::json(status, body).with_header("x-shard", shard.clone());
                    if i > 0 {
                        resp = resp.with_header("x-replica-read", "1");
                    }
                    done(Forwarded {
                        resp,
                        shard,
                        failed_over: i > 0,
                    });
                }
                Err(_) if i + 1 < fwd.owners.len() => {
                    on_error();
                    attempt(out, fwd, i + 1, on_error, done);
                }
                Err(e) => {
                    on_error();
                    let owner = &fwd.owners[0];
                    let err = if fwd.owners.len() > 1 {
                        ProphetError::ReplicaUnavailable(format!(
                            "owner {owner} and {} replica(s) unreachable",
                            fwd.owners.len() - 1
                        ))
                    } else {
                        ProphetError::Unavailable(format!("shard {owner} unreachable: {e}"))
                    };
                    done(Forwarded {
                        resp: error_response(&err),
                        shard: owner.clone(),
                        failed_over: false,
                    });
                }
            }
        },
    );
}

/// Every shard's answer to a fan-out, in ring order.
type Answers = Vec<std::io::Result<ClientResponse>>;

/// GET `path` from every address on the event loop; `done` runs once on
/// the loop thread with every answer, in address order.
fn fan_out(
    out: &mut Outbound,
    addrs: &[String],
    path: &str,
    done: impl FnOnce(Answers) + Send + 'static,
) {
    struct Join {
        slots: Vec<Option<std::io::Result<ClientResponse>>>,
        done: Option<Box<dyn FnOnce(Answers) + Send>>,
    }
    if addrs.is_empty() {
        return done(Vec::new());
    }
    let join = Arc::new(Mutex::new(Join {
        slots: addrs.iter().map(|_| None).collect(),
        done: Some(Box::new(done)),
    }));
    for (i, addr) in addrs.iter().enumerate() {
        let join = Arc::clone(&join);
        out.request(addr, "GET", path, &[], None, move |result, _| {
            let mut j = join.lock().expect("fan-out poisoned");
            j.slots[i] = Some(result);
            if j.slots.iter().all(Option::is_some) {
                let answers = j.slots.drain(..).flatten().collect();
                let done = j.done.take().expect("fan-out completes once");
                drop(j);
                done(answers);
            }
        });
    }
}

/// `GET /v1/cluster`: ask every shard for its own status (each answers
/// with a one-element `shards` vector) and concatenate, stamping the
/// router's ring view and replication factor on the envelope. Shards
/// that don't answer appear as `alive: false` stubs, so the fleet view
/// always lists the full membership. `results` are the shards'
/// answers in ring order.
fn aggregate_cluster_status(shared: &RouterShared, results: Answers) -> Response {
    let mut out = api::ClusterStatusResponse {
        ring: shared.ring.addrs().to_vec(),
        replicas: shared.replicas as u64,
        shards: Vec::new(),
    };
    for (addr, result) in shared.ring.addrs().iter().zip(results) {
        let shard = match result {
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
fn aggregate_cluster_keys(results: Answers) -> Response {
    let mut out = api::ClusterKeysResponse::default();
    for result in results {
        if let Ok((200, _, body)) = result {
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
    shared: &RouterShared,
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

fn aggregate_healthz(shared: &RouterShared, results: Answers) -> Response {
    let mut shards = Vec::new();
    let mut all_ok = true;
    for (addr, result) in shared.ring.addrs().iter().zip(results) {
        let ok = matches!(result, Ok((200, _, _)));
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
/// (`format=prom` is not offered on the merged endpoint.)
fn merge_metrics(shared: &RouterShared, results: Answers) -> Response {
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut gauges: Vec<(String, f64)> = Vec::new();
    let mut hists: Vec<(String, prophet_obs::HistSnapshot)> = Vec::new();
    let mut shard_list = Vec::new();
    let mut reached = 0usize;
    for (addr, result) in shared.ring.addrs().iter().zip(results) {
        let ok = match result {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{client_request, parse_request};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::thread::JoinHandle;

    const CANNED: &str = r#"{"canned":"shard answer"}"#;
    const BODY: &str = r#"{"workload":"t1-3","threads":[2],"predictors":["syn+mm"]}"#;

    fn resolver() -> Resolver {
        Arc::new(|list: &str| {
            list.split(',')
                .map(|tok| {
                    tok.trim()
                        .strip_prefix("t1-")
                        .and_then(|s| s.parse::<u64>().ok())
                        .map(sweep::WorkloadSpec::test1)
                        .ok_or_else(|| format!("unknown workload '{tok}'"))
                })
                .collect()
        })
    }

    /// What a fake shard does on one accepted connection.
    #[derive(Clone, Copy)]
    enum Script {
        /// Answer `n` requests with [`CANNED`], then hang up as soon as
        /// the next request arrives (a pooled connection the peer
        /// reaped while the request was in flight) or the peer closes.
        Answer(usize),
        /// Answer one request, then close the idle connection.
        AnswerThenClose,
        /// Send the head and part of the body, then close mid-body.
        ResetMidBody,
    }

    fn read_request(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Option<Request> {
        loop {
            if let Ok(Some((req, n))) = parse_request(buf) {
                buf.drain(..n);
                return Some(req);
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return None,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        }
    }

    /// Serve `scripts` on `listener`, one accepted connection each, and
    /// return every request that arrived.
    fn fake_shard(listener: TcpListener, scripts: Vec<Script>) -> JoinHandle<Vec<Request>> {
        std::thread::spawn(move || {
            let canned = format!(
                "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\
                 connection: keep-alive\r\n\r\n{CANNED}",
                CANNED.len()
            );
            let mut seen = Vec::new();
            for script in scripts {
                let (mut stream, _) = listener.accept().expect("fake shard accepts");
                let mut buf = Vec::new();
                let answers = match script {
                    Script::Answer(n) => n,
                    Script::AnswerThenClose | Script::ResetMidBody => 1,
                };
                for _ in 0..answers {
                    let Some(req) = read_request(&mut stream, &mut buf) else {
                        break;
                    };
                    seen.push(req);
                    let reply = match script {
                        Script::ResetMidBody => {
                            "HTTP/1.1 200 OK\r\ncontent-length: 100\r\n\r\n{\"partial\"".to_string()
                        }
                        _ => canned.clone(),
                    };
                    stream
                        .write_all(reply.as_bytes())
                        .expect("fake shard writes");
                }
                if let Script::Answer(_) = script {
                    seen.extend(read_request(&mut stream, &mut buf));
                }
            }
            seen
        })
    }

    fn start_router(shards: &[String], replicas: usize) -> RouterHandle {
        Router::start(
            RouterConfig {
                addr: "127.0.0.1:0".to_string(),
                shards: shards.to_vec(),
                replicas,
            },
            resolver(),
        )
        .expect("router starts")
    }

    fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    #[test]
    fn stale_pooled_upstream_redials_once_and_answers_identically() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let shard = listener.local_addr().unwrap().to_string();
        // Connection 1 answers, then hangs up on the next request; the
        // retry dials connection 2, which answers and closes while idle;
        // the third forward must dial connection 3.
        let fake = fake_shard(
            listener,
            vec![
                Script::Answer(1),
                Script::AnswerThenClose,
                Script::Answer(1),
            ],
        );
        let router = start_router(std::slice::from_ref(&shard), 1);
        let addr = router.local_addr().to_string();
        for i in 0..3 {
            if i == 2 {
                // Let the loop see the idle close.
                std::thread::sleep(Duration::from_millis(100));
            }
            let (status, headers, body) =
                client_request(&addr, "POST", "/v1/predict", Some(BODY)).expect("routed predict");
            assert_eq!(status, 200, "forward {i}");
            assert_eq!(body, CANNED, "forward {i} must relay the shard's bytes");
            assert_eq!(header(&headers, "x-shard"), Some(shard.as_str()));
        }
        assert_eq!(router.metrics().upstream_errors.load(Ordering::Relaxed), 0);
        router.shutdown();
        let seen = fake.join().unwrap();
        // Forward 2 arrived twice: on the stale connection, then redialed.
        assert_eq!(seen.len(), 4);
        assert!(seen.iter().all(|r| r.body == BODY.as_bytes()));
    }

    #[test]
    fn reset_mid_body_fails_over_to_a_replica_or_answers_503() {
        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().unwrap().to_string())
            .collect();
        let key = route_key(BODY, &resolver()).unwrap();
        let ring = ShardRing::new(addrs.clone());
        let owners = ring.owners(&key, 2);
        let (owner, replica) = (owners[0].to_string(), owners[1].to_string());
        let mut fakes = Vec::new();
        for (l, addr) in listeners.into_iter().zip(&addrs) {
            let scripts = if *addr == owner {
                // Once for the replicated router, once for the lone one.
                vec![Script::ResetMidBody, Script::ResetMidBody]
            } else {
                vec![Script::Answer(1)]
            };
            fakes.push((addr.clone(), fake_shard(l, scripts)));
        }

        let router = start_router(&addrs, 2);
        let (status, headers, body) = client_request(
            &router.local_addr().to_string(),
            "POST",
            "/v1/predict",
            Some(BODY),
        )
        .expect("routed predict");
        assert_eq!(status, 200);
        assert_eq!(body, CANNED);
        assert_eq!(header(&headers, "x-shard"), Some(replica.as_str()));
        assert_eq!(header(&headers, "x-replica-read"), Some("1"));
        assert_eq!(router.metrics().upstream_errors.load(Ordering::Relaxed), 1);
        assert_eq!(
            router.metrics().replica_failovers.load(Ordering::Relaxed),
            1
        );
        router.shutdown();

        // No replica to fail over to: a typed 503.
        let lone = start_router(std::slice::from_ref(&owner), 1);
        let (status, headers, body) = client_request(
            &lone.local_addr().to_string(),
            "POST",
            "/v1/predict",
            Some(BODY),
        )
        .expect("routed predict");
        assert_eq!(status, 503);
        assert!(body.contains(r#""code":"unavailable""#), "{body}");
        assert_eq!(header(&headers, "retry-after"), Some("1"));
        lone.shutdown();

        for (addr, fake) in fakes {
            let seen = fake.join().unwrap();
            if addr == owner {
                assert_eq!(seen.len(), 2);
                assert!(seen.iter().all(|r| r.header("x-replica-read").is_none()));
            } else {
                assert_eq!(seen.len(), 1);
                assert_eq!(seen[0].header("x-replica-read"), Some("1"));
            }
        }
    }
}
