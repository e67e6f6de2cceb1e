#![warn(missing_docs)]

//! `prophet-serve` — a batching, backpressured prediction service over
//! the sweep engine.
//!
//! Every CLI entry point profiles, calibrates, and throws the warm state
//! away. This crate gives the reproduction the shape the ROADMAP's north
//! star demands: a long-lived daemon where one process-wide
//! [`Prophet`]/[`SweepEngine`] serves every request, so profiling and
//! calibration amortise across traffic. The moving parts:
//!
//! * **Transport.** A readiness-driven event loop ([`eloop`]): raw
//!   `epoll` FFI, non-blocking sockets, HTTP/1.1 keep-alive and
//!   pipelining, per-connection idle/header timeouts and a
//!   max-connection cap. One loop thread multiplexes every connection;
//!   hot cached responses are written zero-copy from shared buffers.
//! * **Admission control.** A bounded request queue; when it is full new
//!   work is *shed* with a 429 instead of queued into unbounded latency.
//!   Per-request deadlines turn into 504s rather than hung sockets, and
//!   a drain flag turns admissions into 503s during shutdown.
//! * **Batching.** Workers drain up to `batch_max` queued requests at
//!   once, deduplicate identical specs, splice every request's grid into
//!   one job list, and fan it out through [`SweepEngine::run_jobs`] — so
//!   concurrent requests share one rayon fan-out *and* one profile
//!   cache, then get their slices of the result back.
//! * **Result cache.** A bounded LRU keyed on the canonical request,
//!   lock-sharded by key hash, layered above the engine's profile cache:
//!   repeat requests cost a map lookup, not an emulation, and
//!   concurrent hits on different keys don't contend on one mutex.
//! * **Determinism.** A response body is byte-identical whether it was
//!   computed cold, coalesced into a batch, or served from the cache —
//!   and identical to `prophet sweep` run with the same spec, because
//!   the per-request [`SweepResult`] (including its as-if-run-alone
//!   cache counters) depends only on the spec, never on traffic shape.
//! * **Persistence.** With [`ServeConfig::store_dir`] set, every profile
//!   the engine computes is written behind to an append-only
//!   [`store::ProfileStore`], and restarts read profiles back instead of
//!   re-running the profiler — same bytes, none of the profiling cost.
//! * **Sharding.** With [`ServeConfig::shard_ring`] set, the daemon only
//!   evaluates keys it owns on the [`ring::ShardRing`] and transparently
//!   forwards the rest to their owner over pooled persistent upstream
//!   connections driven by the event loop itself, so a fleet partitions
//!   the key space instead of replicating it.
//!
//! * **Batch jobs.** What-if analyses ([`whatif`]) are heavier than a
//!   predict and are served asynchronously: `POST /v1/jobs` enqueues and
//!   answers with a deterministic job id, a dedicated worker runs the
//!   analysis through the shared engine's profile cache, and the result
//!   lands in the same sharded result cache for `GET
//!   /v1/jobs/<id>/result` — byte-identical to `prophet whatif --json`
//!   ([`jobs`]).
//!
//! HTTP endpoints, all under `/v1` (an unversioned path is a 404):
//! `POST /v1/predict`, `POST /v1/jobs`, `GET /v1/jobs/<id>`
//! (+`/result`), `GET /v1/healthz`, `GET /v1/metrics` (JSON, or
//! Prometheus text with `?format=prom`). Wire types live in [`api`] and
//! [`jobs`]; error bodies carry the stable codes of
//! [`ProphetError::code`].

#[cfg(not(target_os = "linux"))]
compile_error!("prophet-serve supports Linux only: its event loop and signal handling call epoll(7) and signal(2) directly");

pub mod api;
pub mod cluster;
pub mod eloop;
pub mod http;
pub mod jobs;
pub mod loadgen;
pub mod metrics;
mod pool;
pub mod ring;
pub mod router;
pub mod signal;
pub mod trace;

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use prophet_core::machsim::{Paradigm, Schedule};
use prophet_core::{fingerprint64, Prophet, ProphetError};
use store::{KeyedStore, ProfileStore, StoreOptions};
use sweep::{
    CacheStats, GridSpec, Overrides, PredictorSpec, SweepEngine, SweepJob, SweepResult,
    WorkloadSpec,
};

use api::{error_response, PredictRequest};
use http::{Request, Response};
use metrics::ServerMetrics;
use ring::ShardRing;

/// Maps a workload-list string (the `prophet sweep` syntax, e.g.
/// `"test1:0..4,lu"`) to workload specs, or a client-facing error.
/// Injected so the crate stays decoupled from the CLI's benchmark table.
pub type Resolver = Arc<dyn Fn(&str) -> Result<Vec<WorkloadSpec>, String> + Send + Sync>;

/// Daemon configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `"127.0.0.1:7177"` (port 0 = ephemeral).
    pub addr: String,
    /// Batch-worker threads. 0 is test-only: requests queue but nothing
    /// drains them until shutdown fails them with 503.
    pub workers: usize,
    /// Admission-queue capacity; beyond it requests shed with 429.
    pub queue_cap: usize,
    /// Job-registry capacity (`/v1/jobs`). When it is full of pending or
    /// running jobs, new submissions shed with 429; finished jobs are
    /// evicted oldest-first to make room.
    pub job_cap: usize,
    /// Result-cache capacity in entries (0 disables the cache).
    pub result_cache_cap: usize,
    /// Max requests coalesced into one engine batch.
    pub batch_max: usize,
    /// How long a worker lingers after picking up work, letting
    /// near-simultaneous requests join its batch. 0 = no linger.
    pub batch_linger_ms: u64,
    /// Deadline for requests that do not send `deadline_ms`.
    pub default_deadline_ms: u64,
    /// LRU capacity of the engine's profile cache (`None` = unbounded —
    /// do not run an internet-facing daemon that way).
    pub profile_cache_cap: Option<usize>,
    /// Rayon worker threads per batch evaluation (0 = all cores).
    pub engine_jobs: usize,
    /// Directory of the persistent profile store (`None` = in-memory
    /// only). With a store, a restarted daemon reads profiles back from
    /// disk instead of re-profiling — byte-identical responses, none of
    /// the profiling cost.
    pub store_dir: Option<String>,
    /// Capacity (entries) of the store's decoded-profile LRU. Each
    /// entry is one fully decoded profile; raise it when the daemon's
    /// hot key set outgrows the default. Ignored without `store_dir`.
    pub store_decode_cache_cap: usize,
    /// Active-log rotation threshold in bytes: once the live
    /// `profiles.v2.log` reaches this size it is sealed into an
    /// immutable numbered segment. Ignored without `store_dir`.
    pub store_segment_bytes: u64,
    /// Dead-byte ratio above which `POST /v1/cluster/compact` rewrites
    /// a sealed segment. Ignored without `store_dir`.
    pub store_compact_ratio: f64,
    /// Replication factor: every stored profile is also written to the
    /// `replicas - 1` next distinct ring successors, and reads fail
    /// over to those replicas when the owner is down. 1 = no
    /// replication. Ignored without a shard ring.
    pub replicas: usize,
    /// Addresses of every daemon in the shard ring (empty = unsharded).
    /// All daemons, the router, and `loadgen --shards` must be given the
    /// same list — ownership is derived from it with no coordination.
    pub shard_ring: Vec<String>,
    /// This daemon's own address as it appears in
    /// [`shard_ring`](Self::shard_ring). Required when the ring is
    /// non-empty; keys owned by other shards are forwarded to them.
    pub shard_self: Option<String>,
    /// SLO latency target for `/v1/predict`, in milliseconds. A request
    /// is *good* when it returns 200 within the target; `/v1/metrics`
    /// reports good/bad counters and error-budget burn. 0 disables the
    /// latency target (only non-200s burn budget).
    pub slo_ms: u64,
    /// Path of the structured JSONL access log (`None` = no log). One
    /// line per finished request: trace id, shard, per-stage
    /// nanoseconds, status, cache disposition.
    pub access_log: Option<String>,
    /// How many finished traces the in-memory flight recorder keeps for
    /// `GET /v1/debug/trace/<id>`.
    pub trace_flight_cap: usize,
    /// Open-connection cap; accepts beyond it are shed with 503 +
    /// `Retry-After` instead of leaking sockets (slow-loris hardening).
    pub max_connections: usize,
    /// Idle keep-alive connections are closed after this long.
    pub idle_timeout_ms: u64,
    /// A request head must arrive in full within this long, or the
    /// connection gets a 408 and is closed (slow-loris hardening).
    pub header_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7177".to_string(),
            workers: 2,
            queue_cap: 256,
            job_cap: 256,
            result_cache_cap: 512,
            batch_max: 16,
            batch_linger_ms: 1,
            default_deadline_ms: 30_000,
            profile_cache_cap: Some(256),
            engine_jobs: 0,
            store_dir: None,
            store_decode_cache_cap: StoreOptions::default().decode_cache_cap,
            store_segment_bytes: StoreOptions::default().segment_bytes,
            store_compact_ratio: StoreOptions::default().compact_ratio,
            replicas: 1,
            shard_ring: Vec::new(),
            shard_self: None,
            slo_ms: 5_000,
            access_log: None,
            trace_flight_cap: 256,
            max_connections: 1024,
            idle_timeout_ms: 30_000,
            header_timeout_ms: 10_000,
        }
    }
}

impl ServeConfig {
    fn loop_config(&self) -> eloop::LoopConfig {
        eloop::LoopConfig {
            max_connections: self.max_connections.max(1),
            idle_timeout: Duration::from_millis(self.idle_timeout_ms.max(1)),
            header_timeout: Duration::from_millis(self.header_timeout_ms.max(1)),
        }
    }
}

/// Hard cap on jobs one request may expand to (workloads × threads ×
/// schedules × predictors); larger grids are rejected with 422.
const MAX_JOBS_PER_REQUEST: usize = 4096;

/// A validated prediction request: the resolved grid axes. Two requests
/// with the same [`canonical_key`](Self::canonical_key) are guaranteed
/// the same response bytes.
#[derive(Clone)]
pub struct NormalizedRequest {
    workloads: Vec<WorkloadSpec>,
    threads: Vec<u32>,
    schedules: Vec<Schedule>,
    paradigm: Paradigm,
    predictors: Vec<PredictorSpec>,
}

impl NormalizedRequest {
    /// Parse and validate a request body. Returns the normalized
    /// request plus the client's deadline override, if any.
    ///
    /// Error split: a body that is not well-formed JSON is
    /// [`ProphetError::InvalidRequest`] (HTTP 400); a body that parses
    /// but names things that don't exist or violate limits is
    /// [`ProphetError::Unprocessable`] (HTTP 422).
    pub fn parse(body: &str, resolver: &Resolver) -> Result<(Self, Option<u64>), ProphetError> {
        let raw: PredictRequest = serde_json::from_str(body)
            .map_err(|e| ProphetError::InvalidRequest(format!("invalid JSON: {e}")))?;
        let semantic = ProphetError::Unprocessable;
        let list = match (&raw.workload, &raw.workloads) {
            (Some(_), Some(_)) => {
                return Err(semantic(
                    "give either \"workload\" or \"workloads\", not both".to_string(),
                ))
            }
            (Some(w), None) | (None, Some(w)) => w.clone(),
            (None, None) => return Err(semantic("missing \"workload\"".to_string())),
        };
        let workloads = resolver(&list).map_err(semantic)?;
        if workloads.is_empty() {
            return Err(semantic("workload list resolved to nothing".to_string()));
        }
        let threads = raw.threads.unwrap_or_else(|| vec![2, 4, 6, 8, 10, 12]);
        if threads.is_empty() || threads.iter().any(|&t| t == 0 || t > 256) {
            return Err(semantic(
                "threads must be a non-empty list of 1..=256".to_string(),
            ));
        }
        let schedule_names = match (&raw.schedule, &raw.schedules) {
            (Some(_), Some(_)) => {
                return Err(semantic(
                    "give either \"schedule\" or \"schedules\", not both".to_string(),
                ))
            }
            (Some(s), None) => vec![s.clone()],
            (None, Some(v)) => v.clone(),
            (None, None) => vec!["static".to_string()],
        };
        if schedule_names.is_empty() {
            return Err(semantic("schedules must be non-empty".to_string()));
        }
        let schedules = schedule_names
            .iter()
            .map(|s| {
                Schedule::parse(s).ok_or_else(|| {
                    semantic(format!(
                        "bad schedule '{s}' (static | static-N | dynamic-N | guided-N)"
                    ))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let paradigm = match &raw.paradigm {
            None => Paradigm::OpenMp,
            Some(p) => Paradigm::parse(p)
                .ok_or_else(|| semantic(format!("bad paradigm '{p}' (openmp | cilk | omptask)")))?,
        };
        let predictors = match &raw.predictors {
            None => vec![PredictorSpec::real(), PredictorSpec::syn(true)],
            Some(v) if v.is_empty() => {
                return Err(semantic("predictors must be non-empty".to_string()))
            }
            Some(v) => v
                .iter()
                .map(|p| {
                    PredictorSpec::parse(p).ok_or_else(|| {
                        semantic(format!(
                            "bad predictor '{p}' (real | ff[±mm] | syn[±mm] | suit)"
                        ))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let jobs = workloads.len() * threads.len() * schedules.len() * predictors.len();
        if jobs > MAX_JOBS_PER_REQUEST {
            return Err(semantic(format!(
                "grid expands to {jobs} jobs, above the {MAX_JOBS_PER_REQUEST} cap"
            )));
        }
        Ok((
            NormalizedRequest {
                workloads,
                threads,
                schedules,
                paradigm,
                predictors,
            },
            raw.deadline_ms,
        ))
    }

    /// The key sharding routes on: the first workload's cache key. The
    /// router, ring-aware daemons, and `loadgen --shards` all derive it
    /// from the body the same way, so they agree on the owning shard.
    pub fn route_key(&self) -> &str {
        &self.workloads[0].key
    }

    /// Canonical identity of this request: equal keys ⇒ byte-identical
    /// responses. The result cache and batch deduplication key on it.
    /// The deadline is deliberately not part of the identity.
    pub fn canonical_key(&self) -> String {
        let workloads: Vec<&str> = self.workloads.iter().map(|w| w.key.as_str()).collect();
        let schedules: Vec<String> = self.schedules.iter().map(|s| s.name()).collect();
        let predictors: Vec<String> = self.predictors.iter().map(|p| p.label()).collect();
        format!(
            "w=[{}];t={:?};s=[{}];par={};pred=[{}]",
            workloads.join(","),
            self.threads,
            schedules.join(","),
            self.paradigm.name(),
            predictors.join(",")
        )
    }

    /// The request as a declarative grid.
    fn grid(&self) -> GridSpec {
        GridSpec {
            workloads: self.workloads.clone(),
            threads: self.threads.clone(),
            schedules: self.schedules.clone(),
            paradigms: vec![self.paradigm],
            predictors: self.predictors.clone(),
            overrides: Overrides::default(),
        }
    }
}

/// Evaluate a batch of deduplicated requests as **one** engine fan-out
/// and return each request's response body.
///
/// All grids are spliced into a single job list (workload indices
/// rebased onto a shared workload table) so one `run_jobs` call
/// evaluates everything — one rayon pool, one profile cache, profiles
/// shared across requests that touch the same workload. The combined
/// result is then sliced back apart in job order.
///
/// Each body serialises a [`SweepResult`] whose cache counters are
/// *as-if-run-alone* (replaying the request's own job order against an
/// empty cache), so the bytes match a fresh `prophet sweep` of the same
/// spec exactly — regardless of what else shared the batch or how warm
/// the daemon's caches were.
pub fn evaluate_requests(engine: &SweepEngine, reqs: &[NormalizedRequest]) -> Vec<String> {
    evaluate_requests_timed(engine, reqs).0
}

/// [`evaluate_requests`] plus the nanoseconds spent serialising the
/// response bodies, so the batch worker can report a `serialize` stage
/// without re-measuring. The bodies are byte-identical to
/// [`evaluate_requests`]'s — timing wraps the serialisation, it never
/// changes it.
pub(crate) fn evaluate_requests_timed(
    engine: &SweepEngine,
    reqs: &[NormalizedRequest],
) -> (Vec<String>, u64) {
    let mut all_workloads: Vec<WorkloadSpec> = Vec::new();
    let mut all_jobs: Vec<SweepJob> = Vec::new();
    let mut ranges: Vec<std::ops::Range<usize>> = Vec::new();
    for req in reqs {
        let grid = req.grid();
        let base = all_workloads.len();
        let start = all_jobs.len();
        for mut job in grid.expand() {
            job.workload += base;
            all_jobs.push(job);
        }
        all_workloads.extend(grid.workloads);
        ranges.push(start..all_jobs.len());
    }
    let combined = engine.run_jobs(&all_workloads, &all_jobs);

    let mut bodies = Vec::with_capacity(reqs.len());
    let mut serialize_nanos = 0u64;
    let mut next_point = 0usize;
    for range in ranges {
        let jobs = &all_jobs[range];
        let mut points = Vec::new();
        let mut skipped = 0usize;
        let mut seen: Vec<&str> = Vec::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        for job in jobs {
            if engine.would_skip(job) {
                skipped += 1;
                continue;
            }
            let key = all_workloads[job.workload].key.as_str();
            if seen.contains(&key) {
                hits += 1;
            } else {
                seen.push(key);
                misses += 1;
            }
            points.push(combined.points[next_point].clone());
            next_point += 1;
        }
        let result = SweepResult {
            jobs_total: jobs.len(),
            jobs_skipped: skipped,
            points,
            cache: CacheStats {
                hits,
                misses,
                entries: misses,
                evictions: 0,
                // As-if-run-alone bytes must not depend on whether the
                // daemon has a store (its counters never serialise, but
                // the struct is also compared in tests).
                store_hits: 0,
                store_writes: 0,
            },
        };
        let t_ser = Instant::now();
        let body = serde_json::to_string_pretty(&result).expect("serialise response");
        serialize_nanos = serialize_nanos
            .saturating_add(u64::try_from(t_ser.elapsed().as_nanos()).unwrap_or(u64::MAX));
        bodies.push(body);
    }
    debug_assert_eq!(next_point, combined.points.len(), "points fully consumed");
    (bodies, serialize_nanos)
}

/// Bounded LRU of canonical-request → preserialized response body.
/// Bodies are `Arc<str>` so a hit shares the cached bytes with the
/// write path instead of copying them per response.
struct ResultCache {
    map: HashMap<String, (Arc<str>, u64)>,
    cap: usize,
    tick: u64,
}

impl ResultCache {
    fn new(cap: usize) -> Self {
        ResultCache {
            map: HashMap::new(),
            cap,
            tick: 0,
        }
    }

    fn get(&mut self, key: &str) -> Option<Arc<str>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(body, used)| {
            *used = tick;
            Arc::clone(body)
        })
    }

    /// Insert, returning how many entries were evicted.
    fn insert(&mut self, key: &str, body: Arc<str>) -> u64 {
        if self.cap == 0 {
            return 0;
        }
        self.tick += 1;
        self.map.insert(key.to_string(), (body, self.tick));
        let mut evicted = 0;
        while self.map.len() > self.cap {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
                .expect("non-empty over-capacity map");
            self.map.remove(&victim);
            evicted += 1;
        }
        evicted
    }
}

/// How many independent locks the result cache is split across.
const RESULT_CACHE_SHARDS: usize = 8;

/// The result cache with its single lock sharded by canonical-key hash:
/// a hot hit path on one key never contends with inserts on another.
/// Each shard is an independent LRU holding `cap / SHARDS` entries
/// (rounded up), so total capacity stays within one shard's worth of
/// the configured cap.
struct ShardedResultCache {
    shards: Vec<Mutex<ResultCache>>,
}

impl ShardedResultCache {
    fn new(cap: usize) -> Self {
        let per_shard = if cap == 0 {
            0
        } else {
            cap.div_ceil(RESULT_CACHE_SHARDS)
        };
        ShardedResultCache {
            shards: (0..RESULT_CACHE_SHARDS)
                .map(|_| Mutex::new(ResultCache::new(per_shard)))
                .collect(),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<ResultCache> {
        // Same avalanche the shard ring uses: FNV clusters similar
        // canonical keys, spread() un-clusters them.
        let h = ring::spread(fingerprint64(key.as_bytes()));
        &self.shards[(h as usize) % self.shards.len()]
    }

    fn get(&self, key: &str) -> Option<Arc<str>> {
        self.shard(key).lock().expect("results poisoned").get(key)
    }

    fn insert(&self, key: &str, body: Arc<str>) -> u64 {
        self.shard(key)
            .lock()
            .expect("results poisoned")
            .insert(key, body)
    }
}

/// The per-request reply channel: the event loop's one-shot
/// [`eloop::Responder`] plus the response decoration every path must
/// agree on (request-id/trace echo headers, the x-cache disposition
/// recorded for the access log).
#[derive(Clone)]
struct Reply {
    responder: eloop::Responder,
    rid: String,
    trace_hex: String,
    /// Cache disposition of the response that was actually sent, read
    /// back by the post-flush accounting for trace tags.
    cache_tag: Arc<Mutex<String>>,
}

impl Reply {
    fn decorate(&self, mut resp: Response) -> Response {
        resp.extra_headers.push(("x-request-id", self.rid.clone()));
        resp.extra_headers
            .push(("x-prophet-trace", self.trace_hex.clone()));
        if let Some((_, v)) = resp.extra_headers.iter().find(|(k, _)| *k == "x-cache") {
            *self.cache_tag.lock().expect("cache tag poisoned") = v.clone();
        }
        resp
    }

    /// Decorate and deliver; returns whether this reply won the
    /// one-shot (for exactly-once status counting).
    fn send(&self, resp: Response) -> bool {
        self.responder.send(self.decorate(resp))
    }

    /// Arm the loop-side deadline with a pre-decorated timeout response.
    fn arm_deadline(&self, at: Instant, resp: Response) {
        self.responder.set_deadline(at, self.decorate(resp));
    }
}

/// One admitted, not-yet-answered prediction request.
struct Pending {
    req: NormalizedRequest,
    key: String,
    enqueued: Instant,
    deadline: Instant,
    reply: Reply,
    /// The request's trace handle, so the batch worker can attach
    /// queue-wait and predict-stage spans to the right trace.
    trace: trace::ReqTrace,
}

struct Shared {
    cfg: ServeConfig,
    engine: Arc<SweepEngine>,
    resolver: Resolver,
    queue: Mutex<VecDeque<Pending>>,
    queue_cv: Condvar,
    /// Stop admitting prediction work; workers exit once the queue is dry.
    draining: AtomicBool,
    /// The bounded what-if job registry behind `/v1/jobs`.
    jobs: jobs::JobRegistry,
    results: ShardedResultCache,
    metrics: ServerMetrics,
    /// The persistent profile store, when `store_dir` is configured.
    /// The engine holds its own handle; this one serves `/v1/metrics`,
    /// flush-on-shutdown, and tests.
    store: Option<Arc<ProfileStore>>,
    /// `(ring, own address)` when `shard_ring` is configured.
    shard: Option<(ShardRing, String)>,
    /// Replication/migration state and counters; always present (a
    /// standalone daemon still serves `/v1/cluster` for its own store).
    cluster: Arc<cluster::ClusterState>,
    /// The fingerprint suffix of the daemon's [`KeyedStore`], passed to
    /// compaction as the retain predicate so stale calibration
    /// generations are garbage-collected.
    store_suffix: Option<String>,
    /// Runs compaction, migration, trace stitching and job lookups off
    /// the loop.
    blocking: pool::BlockingPool,
    /// Per-process tracing state.
    tracing: trace::Tracing,
}

/// The daemon. [`Server::start`] binds, spawns the event loop and
/// worker pool, and returns a handle; the process keeps serving until
/// [`ServerHandle::shutdown`].
pub struct Server;

/// A running daemon: its address plus the handles needed to drain and
/// join it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    eloop: eloop::EventLoop,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `cfg.addr` and start serving on background threads.
    ///
    /// With `cfg.store_dir` set, the persistent store is opened (and its
    /// log recovered) before the socket binds, so a daemon that reports
    /// healthy can already serve from disk. With `cfg.shard_ring` set,
    /// `cfg.shard_self` must name this daemon's own entry in the ring.
    pub fn start(cfg: ServeConfig, resolver: Resolver) -> std::io::Result<ServerHandle> {
        let shard = match (&cfg.shard_ring[..], &cfg.shard_self) {
            ([], _) => None,
            (_, None) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "shard_ring set but shard_self missing",
                ));
            }
            (ring_addrs, Some(own)) => {
                if !ring_addrs.contains(own) {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!("shard_self '{own}' is not in shard_ring"),
                    ));
                }
                Some((ShardRing::new(ring_addrs.iter().cloned()), own.clone()))
            }
        };
        let store = match &cfg.store_dir {
            None => None,
            Some(dir) => Some(Arc::new(
                ProfileStore::builder(dir)
                    .decode_cache_cap(cfg.store_decode_cache_cap)
                    .segment_bytes(cfg.store_segment_bytes)
                    .compaction_ratio(cfg.store_compact_ratio)
                    .replication_factor(cfg.replicas)
                    .open()
                    .map_err(|e| std::io::Error::other(e.to_string()))?,
            )),
        };
        // Ring-change detection reads the store's key set, so the
        // cluster state is created after the store opens and before the
        // socket binds (a daemon that reports healthy already knows its
        // placement history).
        let cluster_state = Arc::new(cluster::ClusterState::create(
            shard.clone(),
            cfg.replicas,
            store.as_ref(),
        ));
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let mut engine = SweepEngine::new(Prophet::new())
            .with_jobs(cfg.engine_jobs)
            .with_profile_cache_capacity(cfg.profile_cache_cap);
        let mut store_suffix = None;
        if let Some(store) = &store {
            let keyed = KeyedStore::new(Arc::clone(store), engine.prophet());
            store_suffix = Some(keyed.suffix().to_string());
            // Sharded daemons layer replication and ring-movement
            // accounting over the keyed store; standalone daemons use
            // it directly.
            engine = if shard.is_some() {
                engine.with_profile_store(Arc::new(cluster::ReplicatedStore::new(
                    keyed,
                    Arc::clone(&cluster_state),
                )))
            } else {
                engine.with_profile_store(Arc::new(keyed))
            };
        }
        let engine = Arc::new(engine);
        // The process label distinguishes hops in a stitched trace:
        // `shard@addr` in a ring, `serve@addr` standalone.
        let process = if shard.is_some() {
            format!("shard@{local_addr}")
        } else {
            format!("serve@{local_addr}")
        };
        let tracing =
            trace::Tracing::create(process, cfg.trace_flight_cap, cfg.access_log.as_deref())?;
        let loop_cfg = cfg.loop_config();
        let shared = Arc::new(Shared {
            engine,
            resolver,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            jobs: jobs::JobRegistry::new(cfg.job_cap),
            results: ShardedResultCache::new(cfg.result_cache_cap),
            metrics: ServerMetrics::new(cfg.slo_ms),
            store,
            shard,
            cluster: cluster_state,
            store_suffix,
            blocking: pool::BlockingPool::new(
                "serve-blocking",
                pool::BLOCKING_THREADS,
                pool::BLOCKING_QUEUE,
            ),
            tracing,
            cfg,
        });

        let mut workers: Vec<JoinHandle<()>> = (0..shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        // One dedicated what-if job worker: job analyses fan out over
        // rayon internally, so a second job thread would only fight the
        // first for cores without improving latency.
        {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name("serve-jobs".to_string())
                    .spawn(move || job_worker_loop(&shared))
                    .expect("spawn job worker"),
            );
        }

        let handler: eloop::Handler = {
            let shared = Arc::clone(&shared);
            Arc::new(move |req, meta, responder, out: &mut eloop::Outbound| {
                handle_request(&shared, req, meta, responder, out)
            })
        };
        let eloop = eloop::EventLoop::start(
            listener,
            handler,
            loop_cfg,
            Arc::clone(&shared.metrics.conns),
        )?;

        Ok(ServerHandle {
            shared,
            local_addr,
            eloop,
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The daemon's metric counters (tests and embedders; HTTP clients
    /// use `/v1/metrics`).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// A live snapshot of the engine's profile-cache counters,
    /// including the store read-through/write-behind counters.
    pub fn profile_cache_stats(&self) -> CacheStats {
        self.shared.engine.cache().stats()
    }

    /// The persistent profile store, when one is configured.
    pub fn store(&self) -> Option<&Arc<ProfileStore>> {
        self.shared.store.as_ref()
    }

    /// The daemon's cluster state: replication counters, migration
    /// flag, ring placement (tests and embedders; HTTP clients use
    /// `GET /v1/cluster`).
    pub fn cluster(&self) -> &Arc<cluster::ClusterState> {
        &self.shared.cluster
    }

    /// Gracefully shut down: stop admitting, close idle keep-alive
    /// connections, let workers drain every already-admitted request,
    /// fail anything left 503, then stop accepting and join everything.
    /// In-flight pipelines finish before their connections close.
    pub fn shutdown(mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.eloop.drain();
        self.shared.queue_cv.notify_all();
        self.shared.jobs.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Anything still queued (workers == 0, or admitted in the
        // narrow window after the workers exited) fails closed.
        let leftovers: Vec<Pending> = {
            let mut q = self.shared.queue.lock().expect("queue poisoned");
            q.drain(..).collect()
        };
        for p in leftovers {
            let resp = error_response(&ProphetError::Unavailable("shutting down".to_string()));
            if p.reply.send(resp) {
                self.shared
                    .metrics
                    .rejected_draining
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(store) = &self.shared.store {
            if let Err(e) = store.flush() {
                eprintln!("warning: profile store flush on shutdown failed: {e}");
            }
        }
        self.eloop.stop();
        self.eloop.join();
    }
}

/// The event-loop handler: set up per-request accounting and dispatch.
/// Runs on the loop thread: forwards are outbound exchanges on `out`,
/// prediction goes to the batch workers, and other blocking work
/// (compaction, migration, trace stitching, job lookups) to the
/// blocking pool, each answering through the [`Reply`].
fn handle_request(
    shared: &Arc<Shared>,
    req: Request,
    meta: eloop::ReqMeta,
    responder: eloop::Responder,
    out: &mut eloop::Outbound,
) {
    let m = &shared.metrics;
    m.inflight.fetch_add(1, Ordering::Relaxed);
    // Reconstruct when the request's first byte arrived, for the parse
    // span.
    let req_start = Instant::now()
        .checked_sub(Duration::from_nanos(meta.parse_nanos))
        .unwrap_or_else(Instant::now);
    let trace = shared.tracing.begin(req.header("x-prophet-trace"));
    trace.add_timed("parse", req_start, meta.parse_nanos, &[]);
    m.observe_stage("parse", meta.parse_nanos);
    let is_predict = req.method == "POST" && req.path == "/v1/predict";
    // Echo the client's request id on every response, or synthesise one
    // from the trace id.
    let rid = req
        .header("x-request-id")
        .map_or_else(|| trace.trace_hex(), str::to_string);
    let reply = Reply {
        responder: responder.clone(),
        rid: rid.clone(),
        trace_hex: trace.trace_hex(),
        cache_tag: Arc::new(Mutex::new("none".to_string())),
    };
    {
        let shared = Arc::clone(shared);
        let trace = trace.clone();
        let path = req.path.clone();
        let cache_tag = Arc::clone(&reply.cache_tag);
        responder.set_on_written(move |status, flush_start, flush_nanos, deadline_fired| {
            let m = &shared.metrics;
            trace.add_timed("flush", flush_start, flush_nanos, &[]);
            m.observe_stage("flush", flush_nanos);
            let cache = cache_tag.lock().expect("cache tag poisoned").clone();
            let mut tags: Vec<(&str, String)> = vec![
                ("path", path.clone()),
                ("cache", cache),
                ("request_id", rid.clone()),
            ];
            if let Some((_, own)) = &shared.shard {
                tags.push(("shard", own.clone()));
            }
            let total = trace.finish(&shared.tracing, status, &tags);
            if is_predict {
                if deadline_fired {
                    m.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
                }
                m.record_slo(status, total);
                m.observe_request_nanos(total);
            }
            m.inflight.fetch_sub(1, Ordering::Relaxed);
        });
    }
    route(shared, &req, &trace, &reply, out);
}

fn route(
    shared: &Arc<Shared>,
    req: &Request,
    trace: &trace::ReqTrace,
    reply: &Reply,
    out: &mut eloop::Outbound,
) {
    // Only `/v1/...` is served: an unversioned path maps to "", which
    // no arm matches, so it gets the 404.
    let path = req.path.strip_prefix("/v1").unwrap_or("");
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            let obj = serde::Value::Object(vec![
                ("status".to_string(), serde::Value::Str("ok".to_string())),
                (
                    "draining".to_string(),
                    serde::Value::Bool(shared.draining.load(Ordering::SeqCst)),
                ),
            ]);
            reply.send(Response::json(
                200,
                serde_json::to_string(&obj).expect("serialise healthz"),
            ));
        }
        ("GET", "/metrics") => {
            let stats = shared.engine.cache().stats();
            let store_stats = shared.store.as_deref().map(ProfileStore::stats);
            let extra = shared.cluster.counters.snapshot();
            let resp = match req.query_param("format") {
                Some("prom") | Some("prometheus") => Response::text(
                    200,
                    shared.metrics.render_prometheus(stats, store_stats, &extra),
                ),
                _ => Response::json(200, shared.metrics.render_json(stats, store_stats, &extra)),
            };
            reply.send(resp);
        }
        ("GET", "/cluster") => {
            reply.send(cluster::status_response(
                own_addr(shared),
                shared.store.as_ref(),
                &shared.cluster,
            ));
        }
        ("GET", "/cluster/keys") => {
            reply.send(cluster::keys_response(
                own_addr(shared),
                shared.store.as_ref(),
            ));
        }
        ("POST", "/cluster/compact") => {
            // Compaction rewrites segments synchronously — off the loop
            // thread.
            let body = req.body.clone();
            run_blocking(shared, reply, move |shared| {
                cluster::compact_response(
                    own_addr(shared),
                    shared.store.as_ref(),
                    shared.store_suffix.clone(),
                    &body,
                )
            });
        }
        ("POST", "/cluster/migrate") => {
            // Both modes touch store I/O; initiate additionally blocks
            // on peer upstreams — off the loop thread.
            let body = req.body.clone();
            run_blocking(shared, reply, move |shared| {
                cluster::migrate_response(
                    own_addr(shared),
                    shared.store.as_ref(),
                    &shared.cluster,
                    &body,
                )
            });
        }
        ("POST", "/predict") => predict(shared, req, trace, reply, out),
        ("GET", "/predict") => {
            reply.send(Response::error(405, "use POST /v1/predict"));
        }
        ("POST", "/jobs") => submit_job(shared, req, trace, reply, out),
        ("GET", "/jobs") => {
            reply.send(Response::error(405, "use POST /v1/jobs"));
        }
        ("GET", p) if p.starts_with("/jobs/") => {
            let rest = &p["/jobs/".len()..];
            let (id, want_result) = match rest.strip_suffix("/result") {
                Some(id) => (id, true),
                None => (rest, false),
            };
            job_get(shared, req, id, want_result, reply);
        }
        ("GET", p) if p.starts_with("/debug/trace/") => {
            let id_hex = p["/debug/trace/".len()..].to_string();
            // `scope=local` stops the stitching fan-out (it is what the
            // fan-out sub-requests themselves use, so peers never
            // recurse); `format=jsonl` selects the span-dump format.
            let local_only = req.query_param("scope") == Some("local");
            let jsonl = req.query_param("format") == Some("jsonl");
            let peers: Vec<String> = match &shared.shard {
                Some((ring, own)) => ring.addrs().iter().filter(|a| *a != own).cloned().collect(),
                None => Vec::new(),
            };
            if local_only || peers.is_empty() {
                reply.send(trace::debug_trace_response(
                    &shared.tracing,
                    &id_hex,
                    local_only,
                    jsonl,
                    &peers,
                ));
            } else {
                // Stitching fans out blocking sub-requests to peers —
                // off the loop thread.
                run_blocking(shared, reply, move |shared| {
                    trace::debug_trace_response(&shared.tracing, &id_hex, false, jsonl, &peers)
                });
            }
        }
        ("GET", "/debug/traces") => {
            reply.send(trace::debug_traces_response(&shared.tracing));
        }
        _ => {
            reply.send(Response::error(
                404,
                "unknown endpoint (try /v1/predict, /v1/jobs, /v1/healthz, /v1/metrics)",
            ));
        }
    }
}

/// Answer `reply` with `work`'s response, computed on the blocking pool
/// (or the pool's 503 when it is full).
fn run_blocking(
    shared: &Arc<Shared>,
    reply: &Reply,
    work: impl FnOnce(&Shared) -> Response + Send + 'static,
) {
    let reply = reply.clone();
    let worker = Arc::clone(shared);
    shared.blocking.run(
        move || work(&worker),
        move |resp| {
            reply.send(resp);
        },
    );
}

/// The address this daemon is known by: its ring entry when sharded,
/// its configured listen address otherwise.
fn own_addr(shared: &Shared) -> &str {
    match &shared.shard {
        Some((_, own)) => own,
        None => &shared.cfg.addr,
    }
}

fn predict(
    shared: &Arc<Shared>,
    req: &Request,
    trace: &trace::ReqTrace,
    reply: &Reply,
    out: &mut eloop::Outbound,
) {
    let m = &shared.metrics;
    m.requests_total.fetch_add(1, Ordering::Relaxed);
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => {
            m.client_errors.fetch_add(1, Ordering::Relaxed);
            reply.send(error_response(&ProphetError::InvalidRequest(
                "body is not UTF-8".to_string(),
            )));
            return;
        }
    };
    let span = trace.begin_span("normalize");
    let parsed = NormalizedRequest::parse(body, &shared.resolver);
    trace.end_span(&span, &[]);
    let (norm, deadline_ms) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            m.client_errors.fetch_add(1, Ordering::Relaxed);
            reply.send(error_response(&e));
            return;
        }
    };

    // Sharded: keys another daemon owns are forwarded to it, so every
    // profile lives on exactly one shard no matter which daemon the
    // client happened to hit. Exception: `x-replica-read` marks a
    // failover read — the sender already found the owner down, and this
    // daemon is (one of) the key's replicas, so it answers from its own
    // store instead of forwarding back to the dead owner.
    if let Some((ring, own)) = &shared.shard {
        let owner = ring.owner(norm.route_key());
        if owner != own {
            if req.header("x-replica-read").is_some() {
                shared
                    .cluster
                    .counters
                    .replica_reads
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                // When the owner is down, retry its ring successors
                // (the key's replicas) with `x-replica-read`.
                let mut owners = vec![owner.to_string()];
                owners.extend(
                    shared
                        .cluster
                        .owners(norm.route_key())
                        .into_iter()
                        .filter(|a| a != owner),
                );
                forward_to_owner(shared, req, body, trace, reply, out, owners);
                return;
            }
        }
    }
    let key = norm.canonical_key();

    // Layer 1: the result cache. A hit shares the preserialized body
    // with the write path (zero-copy), no engine involvement.
    if let Some(body) = shared.results.get(&key) {
        m.result_cache_hits.fetch_add(1, Ordering::Relaxed);
        m.responses_ok.fetch_add(1, Ordering::Relaxed);
        reply.send(Response::json(200, body).with_header("x-cache", "hit"));
        return;
    }
    m.result_cache_misses.fetch_add(1, Ordering::Relaxed);

    if shared.draining.load(Ordering::SeqCst) {
        m.rejected_draining.fetch_add(1, Ordering::Relaxed);
        reply.send(error_response(&ProphetError::Unavailable(
            "shutting down".to_string(),
        )));
        return;
    }

    // Layer 2: bounded admission.
    let deadline_ms = deadline_ms
        .unwrap_or(shared.cfg.default_deadline_ms)
        .clamp(1, 600_000);
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    {
        let mut q = shared.queue.lock().expect("queue poisoned");
        if q.len() >= shared.cfg.queue_cap {
            m.shed_total.fetch_add(1, Ordering::Relaxed);
            drop(q);
            reply.send(error_response(&ProphetError::Overloaded));
            return;
        }
        q.push_back(Pending {
            req: norm,
            key,
            enqueued: Instant::now(),
            deadline,
            reply: reply.clone(),
            trace: trace.clone(),
        });
        m.queue_depth.store(q.len() as u64, Ordering::Relaxed);
    }
    shared.queue_cv.notify_one();

    // Small grace beyond the deadline so a worker that just started the
    // batch gets to deliver instead of racing the timeout: if nothing
    // answered by then, the loop writes this 504 and any later worker
    // delivery becomes a no-op.
    reply.arm_deadline(
        deadline + Duration::from_millis(250),
        error_response(&ProphetError::DeadlineExceeded),
    );
}

/// Forward `req` (whose body is `body`) to the shard owning its route
/// key, `owners[0]`, and relay the owner's response verbatim (plus an
/// `x-shard` header naming it). The forward is an outbound exchange on
/// the event loop over a pooled upstream connection; when the owner is
/// unreachable at the transport level, the request is re-issued to
/// `owners[1..]` (the key's other replicas, in ring-successor order)
/// with `x-replica-read: 1`, and the receiving replica answers from its
/// own store instead of forwarding back to the dead owner. The owner's
/// request becomes a child of this hop's `forward` span, carried in
/// `x-prophet-trace`.
fn forward_to_owner(
    shared: &Arc<Shared>,
    req: &Request,
    body: &str,
    trace: &trace::ReqTrace,
    reply: &Reply,
    out: &mut eloop::Outbound,
    owners: Vec<String>,
) {
    shared.metrics.proxied_total.fetch_add(1, Ordering::Relaxed);
    let fwd = trace.begin_span("forward");
    let mut headers = vec![("x-prophet-trace", trace.propagation_header(&fwd))];
    if let Some(rid) = req.header("x-request-id") {
        headers.push(("x-request-id", rid.to_string()));
    }
    let t_fwd = Instant::now();
    let errors = Arc::clone(shared);
    let (shared, trace, reply) = (Arc::clone(shared), trace.clone(), reply.clone());
    router::forward(
        out,
        router::Forward {
            owners,
            path: req.path.clone(),
            body: body.to_string(),
            headers,
        },
        move || {
            errors.metrics.proxy_errors.fetch_add(1, Ordering::Relaxed);
        },
        move |done| {
            shared.metrics.observe_stage(
                "forward",
                u64::try_from(t_fwd.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
            trace.end_span(&fwd, &[("owner", done.shard)]);
            reply.send(done.resp);
        },
    );
}

/// `POST /v1/jobs`: validate, route to the owning shard, then register
/// and enqueue — answering immediately with the job's id and phase
/// (202 for a fresh job, 200 when the same canonical query is already
/// registered). The deadline bounds queue residence, not the poll loop.
fn submit_job(
    shared: &Arc<Shared>,
    req: &Request,
    trace: &trace::ReqTrace,
    reply: &Reply,
    out: &mut eloop::Outbound,
) {
    let m = &shared.metrics;
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => {
            m.client_errors.fetch_add(1, Ordering::Relaxed);
            reply.send(error_response(&ProphetError::InvalidRequest(
                "body is not UTF-8".to_string(),
            )));
            return;
        }
    };
    let (job, deadline_ms) = match jobs::NormalizedJob::parse(body, &shared.resolver) {
        Ok(parsed) => parsed,
        Err(e) => {
            m.client_errors.fetch_add(1, Ordering::Relaxed);
            reply.send(error_response(&e));
            return;
        }
    };

    // Same routing rule as predicts: the workload's owner runs the job,
    // so the analysis reuses the profile that shard already holds.
    if let Some((ring, own)) = &shared.shard {
        let owner = ring.owner(job.route_key());
        if owner != own {
            forward_to_owner(
                shared,
                req,
                body,
                trace,
                reply,
                out,
                vec![owner.to_string()],
            );
            return;
        }
    }
    m.jobs_submitted.fetch_add(1, Ordering::Relaxed);

    if shared.draining.load(Ordering::SeqCst) {
        m.rejected_draining.fetch_add(1, Ordering::Relaxed);
        reply.send(error_response(&ProphetError::Unavailable(
            "shutting down".to_string(),
        )));
        return;
    }
    let deadline_ms = deadline_ms
        .unwrap_or(shared.cfg.default_deadline_ms)
        .clamp(1, 600_000);
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    match shared.jobs.submit(job, deadline) {
        jobs::SubmitOutcome::Queued(status) => {
            reply.send(Response::json(202, status.to_json()));
        }
        jobs::SubmitOutcome::Existing(status) => {
            reply.send(Response::json(200, status.to_json()));
        }
        jobs::SubmitOutcome::Shed => {
            m.jobs_shed.fetch_add(1, Ordering::Relaxed);
            reply.send(error_response(&ProphetError::Overloaded));
        }
    }
}

/// The local answer for `GET /v1/jobs/<id>[/result]`, when this daemon
/// knows the job.
fn local_job_response(shared: &Arc<Shared>, id: &str, want_result: bool) -> Option<Response> {
    let status = shared.jobs.status(id)?;
    if !want_result {
        return Some(Response::json(200, status.to_json()));
    }
    match status.status.as_str() {
        "done" => match shared.results.get(&format!("job:{id}")) {
            Some(body) => Some(Response::json(200, body).with_header("x-cache", "hit")),
            // The result outlived its LRU slot; the job must be
            // resubmitted (retryable by contract).
            None => Some(error_response(&ProphetError::Unavailable(
                "job result evicted; resubmit the job".to_string(),
            ))),
        },
        "failed" => {
            let msg = status.error.unwrap_or_else(|| "job failed".to_string());
            if msg.contains("deadline") {
                Some(error_response(&ProphetError::DeadlineExceeded))
            } else {
                Some(error_response(&ProphetError::Unavailable(msg)))
            }
        }
        // Queued/running: 202 + the status body; clients keep polling.
        _ => Some(Response::json(202, status.to_json())),
    }
}

/// `GET /v1/jobs/<id>` and `GET /v1/jobs/<id>/result`. A job id alone
/// does not say which shard owns it, so a local miss fans out to every
/// peer with `scope=local` (which answers from local state only, so
/// peers never recurse) and relays the first hit.
fn job_get(shared: &Arc<Shared>, req: &Request, id: &str, want_result: bool, reply: &Reply) {
    if !jobs::valid_id(id) {
        reply.send(Response::error(404, "unknown job id"));
        return;
    }
    if let Some(resp) = local_job_response(shared, id, want_result) {
        reply.send(resp);
        return;
    }
    let local_only = req.query_param("scope") == Some("local");
    let peers: Vec<String> = match &shared.shard {
        Some((ring, own)) => ring.addrs().iter().filter(|a| *a != own).cloned().collect(),
        None => Vec::new(),
    };
    if local_only || peers.is_empty() {
        reply.send(Response::error(404, "unknown job id"));
        return;
    }
    // The fan-out blocks on upstream I/O — off the loop thread.
    let tail = if want_result { "/result" } else { "" };
    let path = format!("/v1/jobs/{id}{tail}?scope=local");
    run_blocking(shared, reply, move |_| {
        for peer in peers {
            match http::client_request(&peer, "GET", &path, None) {
                Ok((404, _, _)) | Err(_) => continue,
                Ok((status, _, body)) => {
                    return Response::json(status, body).with_header("x-shard", peer);
                }
            }
        }
        Response::error(404, "unknown job id")
    });
}

/// The dedicated what-if worker: drain the job queue, run each analysis
/// through the shared engine's profile cache, park the report bytes in
/// the result cache under `job:<id>`, and account the `whatif.*`
/// counters.
fn job_worker_loop(shared: &Arc<Shared>) {
    let m = &shared.metrics;
    while let Some((id, job, deadline)) = shared.jobs.pop_wait(&shared.draining) {
        if Instant::now() >= deadline {
            shared
                .jobs
                .fail(&id, "deadline exceeded before the job ran");
            m.jobs_failed.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let t0 = Instant::now();
        let profiled = shared.engine.profiled(&job.workload);
        let env = whatif::EmuEnv {
            paradigm: job.paradigm,
            ..whatif::EmuEnv::for_machine(shared.engine.prophet().machine())
        };
        let (report, counters) = whatif::analyze(
            &job.workload.key,
            &profiled.tree,
            &job.spec,
            &env,
            shared.cfg.engine_jobs,
        );
        m.whatif_regions_analyzed
            .fetch_add(counters.regions_analyzed, Ordering::Relaxed);
        m.whatif_emulations_run
            .fetch_add(counters.emulations_run, Ordering::Relaxed);
        m.whatif_pareto_pruned
            .fetch_add(counters.pareto_pruned, Ordering::Relaxed);
        let body = serde_json::to_string_pretty(&report).expect("serialise whatif report");
        let evicted = shared.results.insert(&format!("job:{id}"), Arc::from(body));
        m.result_cache_evictions
            .fetch_add(evicted, Ordering::Relaxed);
        if let Some(store) = &shared.store {
            sync_store(store);
        }
        shared.jobs.complete(&id);
        m.jobs_completed.fetch_add(1, Ordering::Relaxed);
        m.observe_stage(
            "whatif_job",
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
    }
}

/// Make every profile appended so far durable before a reply that
/// follows the writes. A failed sync warns like a failed save and the
/// reply still goes out: stored profiles are a cache.
pub(crate) fn sync_store(store: &ProfileStore) {
    if let Err(e) = store.sync() {
        eprintln!("prophet-store: warning: sync failed ({e}); profiles not persisted");
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        // Block for the first request (or drain-exit).
        let first = {
            let mut q = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(p) = q.pop_front() {
                    shared
                        .metrics
                        .queue_depth
                        .store(q.len() as u64, Ordering::Relaxed);
                    break p;
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .expect("queue poisoned");
                q = guard;
            }
        };
        let t_pick = Instant::now();
        // Linger briefly so a burst of near-simultaneous requests lands
        // in this batch instead of the next.
        if shared.cfg.batch_linger_ms > 0 {
            std::thread::sleep(Duration::from_millis(shared.cfg.batch_linger_ms));
        }
        let mut batch = vec![first];
        {
            let mut q = shared.queue.lock().expect("queue poisoned");
            while batch.len() < shared.cfg.batch_max {
                match q.pop_front() {
                    Some(p) => batch.push(p),
                    None => break,
                }
            }
            shared
                .metrics
                .queue_depth
                .store(q.len() as u64, Ordering::Relaxed);
        }
        process_batch(shared, batch, t_pick);
    }
}

fn process_batch(shared: &Arc<Shared>, batch: Vec<Pending>, t_pick: Instant) {
    let m = &shared.metrics;
    let now = Instant::now();
    let assembly_nanos = u64::try_from((now - t_pick).as_nanos()).unwrap_or(u64::MAX);
    let mut queue_waits: Vec<u64> = Vec::with_capacity(batch.len());
    // Every live request in the batch gets the same worker-side stage
    // spans attached to its own trace.
    let mut traces: Vec<trace::ReqTrace> = Vec::new();
    // Deduplicate by canonical key: one evaluation answers every reply.
    let mut groups: Vec<(String, NormalizedRequest, Vec<Reply>)> = Vec::new();
    let mut live = 0usize;
    let t_dedup = Instant::now();
    for p in batch {
        let wait = u64::try_from((now - p.enqueued).as_nanos()).unwrap_or(u64::MAX);
        queue_waits.push(wait);
        if now >= p.deadline {
            if p.reply
                .send(error_response(&ProphetError::DeadlineExceeded))
            {
                m.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
            }
            continue;
        }
        live += 1;
        p.trace.add_timed("queue_wait", p.enqueued, wait, &[]);
        m.observe_stage("queue_wait", wait);
        traces.push(p.trace);
        match groups.iter_mut().find(|(k, _, _)| *k == p.key) {
            Some((_, _, replies)) => replies.push(p.reply),
            None => groups.push((p.key, p.req, vec![p.reply])),
        }
    }
    let dedup_nanos = u64::try_from(t_dedup.elapsed().as_nanos()).unwrap_or(u64::MAX);
    if groups.is_empty() {
        return;
    }

    let reqs: Vec<NormalizedRequest> = groups.iter().map(|(_, r, _)| r.clone()).collect();
    // Engine stage counters and store I/O counters are process-wide
    // accumulators; deltas around the evaluation attribute this batch's
    // share to profile/emulate/store sub-spans.
    let stages_before = shared.engine.stage_timings();
    let io_before = shared.store.as_ref().map_or((0, 0), |s| s.io_nanos());
    let t0 = Instant::now();
    let (bodies, serialize_nanos) = evaluate_requests_timed(&shared.engine, &reqs);
    // One durability barrier for every profile this batch stored, before
    // any reply; its time lands in the `store_write` sub-stage.
    if let Some(store) = &shared.store {
        sync_store(store);
    }
    let predict_nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let stage_delta = shared.engine.stage_timings().since(&stages_before);
    let io_after = shared.store.as_ref().map_or((0, 0), |s| s.io_nanos());
    let store_read_nanos = io_after.0.saturating_sub(io_before.0);
    let store_write_nanos = io_after.1.saturating_sub(io_before.1);
    m.record_batch(live, &queue_waits, predict_nanos);
    m.observe_stage("batch_assembly", assembly_nanos);
    m.observe_stage("dedup", dedup_nanos);
    m.observe_stage("predict", predict_nanos);
    let sub_stages = [
        ("profile", stage_delta.profile_nanos),
        ("emulate", stage_delta.predict_nanos),
        ("store_read", store_read_nanos),
        ("store_write", store_write_nanos),
        ("serialize", serialize_nanos),
    ];
    for (name, nanos) in sub_stages {
        if nanos > 0 {
            m.observe_stage(name, nanos);
        }
    }
    let batch_tag = [("batch", live.to_string())];
    // Sub-stage durations are summed across rayon workers, so they can
    // exceed the predict span's wall time; they are laid out
    // back-to-back under it as a breakdown, not a timeline.
    let agg_tag = [("agg", "summed-across-workers".to_string())];
    for trace in &traces {
        trace.add_timed("batch_assembly", t_pick, assembly_nanos, &[]);
        trace.add_timed("dedup", t_dedup, dedup_nanos, &[]);
        let predict_span = trace.add_timed_span("predict", t0, predict_nanos, &batch_tag);
        let mut cursor = t0;
        for (name, nanos) in sub_stages {
            if nanos == 0 {
                continue;
            }
            trace.add_timed_under(&predict_span, name, cursor, nanos, &agg_tag);
            cursor += Duration::from_nanos(nanos);
        }
    }

    for ((key, _, replies), body) in groups.into_iter().zip(bodies) {
        // One shared buffer: the cache entry and every response written
        // for this batch all point at the same bytes.
        let body: Arc<str> = Arc::from(body);
        let evicted = shared.results.insert(&key, Arc::clone(&body));
        m.result_cache_evictions
            .fetch_add(evicted, Ordering::Relaxed);
        for reply in replies {
            let won =
                reply.send(Response::json(200, Arc::clone(&body)).with_header("x-cache", "miss"));
            if won {
                m.responses_ok.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Compile-time guarantee the shared state can cross threads.
#[allow(dead_code)]
fn assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Shared>();
    check::<ServerMetrics>();
}
