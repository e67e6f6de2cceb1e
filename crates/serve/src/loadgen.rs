//! A deterministic closed-loop load generator for the daemon.
//!
//! `prophet loadgen` and the CI smoke step drive a running `prophet
//! serve` over loopback: N requests across C worker threads, request
//! bodies assigned round-robin (request *i* gets body *i mod B*), so a
//! run is reproducible and every response has a known reference class.
//! The generator cross-checks the service's central invariant — all
//! responses for the same body must be **byte-identical**, whether they
//! were computed cold, coalesced into a batch, or served from the
//! result cache — and can additionally require that the daemon's caches
//! actually produced hits. A request mix can also include *what-if*
//! classes, each of which drives the `/v1/jobs` batch-job path end to
//! end (submit → poll → result) and byte-checks the result body.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::http::{client_request, ClientConn, ClientResponse};
use crate::ring::ShardRing;

/// Load-generation parameters.
#[derive(Clone)]
pub struct LoadgenOptions {
    /// Daemon address, e.g. `"127.0.0.1:7177"`.
    pub addr: String,
    /// Total requests to send.
    pub requests: usize,
    /// Concurrent client threads.
    pub concurrency: usize,
    /// Request bodies, cycled round-robin over the request index.
    pub bodies: Vec<String>,
    /// After the run, fetch `/v1/metrics` and require at least one result-
    /// cache hit and one profile-cache hit (the smoke-test assertion).
    pub expect_cache_hits: bool,
    /// Shard-ring addresses. When non-empty, each body class is sent
    /// straight to the shard owning its route key (client-side routing,
    /// same ring the daemons use) and `addr` is ignored for predicts;
    /// post-run metrics are summed across every shard.
    pub shards: Vec<String>,
    /// Route key per body class, parallel to `bodies` (the first
    /// workload's cache key). Required when `shards` is non-empty.
    pub route_keys: Vec<String>,
    /// Reuse connections: each worker thread keeps one persistent
    /// keep-alive connection per target and pipelines its requests over
    /// it, instead of dialing per request (`Connection: close`). The
    /// report's `connections_opened` / `connection_reuses` show how
    /// much reuse the run actually got.
    pub keep_alive: bool,
    /// What-if job bodies (`POST /v1/jobs` JSON), appended after
    /// [`bodies`](Self::bodies) as extra request classes. A request in
    /// one of these classes runs the full batch-job round-trip — submit,
    /// poll until the job leaves the queue, fetch the result — and the
    /// *result* body is what the byte-identity check compares. One
    /// round-trip counts as one request; its latency is the whole trip.
    pub whatif_bodies: Vec<String>,
    /// Route key per what-if class, parallel to
    /// [`whatif_bodies`](Self::whatif_bodies). Required when `shards`
    /// is non-empty (jobs are submitted straight to the owning shard).
    pub whatif_keys: Vec<String>,
}

impl Default for LoadgenOptions {
    /// Defaults mirror `prophet loadgen`'s: local daemon, 50 requests
    /// over 8 threads, no bodies (callers must supply at least one
    /// predict or what-if body).
    fn default() -> Self {
        LoadgenOptions {
            addr: "127.0.0.1:7177".to_string(),
            requests: 50,
            concurrency: 8,
            bodies: Vec::new(),
            expect_cache_hits: false,
            shards: Vec::new(),
            route_keys: Vec::new(),
            keep_alive: false,
            whatif_bodies: Vec::new(),
            whatif_keys: Vec::new(),
        }
    }
}

/// A latency distribution summary, nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct LatencySummary {
    /// Fastest observation.
    pub min_nanos: u64,
    /// Arithmetic mean.
    pub mean_nanos: u64,
    /// Median (nearest-rank).
    pub p50_nanos: u64,
    /// 95th percentile (nearest-rank).
    pub p95_nanos: u64,
    /// 99th percentile (nearest-rank).
    pub p99_nanos: u64,
    /// Slowest observation.
    pub max_nanos: u64,
}

impl LatencySummary {
    /// Summarise a sample set (sorts in place). Nearest-rank
    /// percentiles come straight from the sorted samples, so
    /// p50 ≤ p95 ≤ p99 ≤ max holds by construction.
    pub fn from_samples(samples: &mut [u64]) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let sum: u128 = samples.iter().map(|&n| u128::from(n)).sum();
        let pct = |p: f64| {
            let rank = (p * samples.len() as f64).ceil() as usize;
            samples[rank.clamp(1, samples.len()) - 1]
        };
        LatencySummary {
            min_nanos: samples[0],
            mean_nanos: u64::try_from(sum / samples.len() as u128).unwrap_or(u64::MAX),
            p50_nanos: pct(0.50),
            p95_nanos: pct(0.95),
            p99_nanos: pct(0.99),
            max_nanos: samples[samples.len() - 1],
        }
    }
}

/// Per-request-class results (class = body index, requests assigned
/// round-robin).
#[derive(Debug, Clone)]
pub struct ClassReport {
    /// Body-class index: predict classes first (indexing
    /// [`LoadgenOptions::bodies`]), then what-if classes.
    pub class: usize,
    /// `"predict"` or `"whatif"`.
    pub kind: String,
    /// Requests sent for this class.
    pub requests: usize,
    /// 200 responses for this class.
    pub ok: usize,
    /// Requests per second over the whole run's wall time.
    pub rps: f64,
    /// This class's latency distribution.
    pub latency: LatencySummary,
}

/// The outcome of a load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests attempted.
    pub requests: usize,
    /// 200 responses.
    pub ok: usize,
    /// 429 responses (shed by admission control).
    pub shed: usize,
    /// Everything else: transport errors and non-200/429 statuses.
    pub failed: usize,
    /// 200 responses whose body differed from the first response seen
    /// for the same request body — a determinism violation.
    pub mismatches: usize,
    /// Overall latency distribution across every request.
    pub latency: LatencySummary,
    /// Wall time of the whole run, nanoseconds.
    pub elapsed_nanos: u64,
    /// Requests per second over the run's wall time.
    pub rps: f64,
    /// Per-request-class latency and throughput.
    pub classes: Vec<ClassReport>,
    /// `serve.result_cache_hits` read from `/v1/metrics` after the run.
    pub result_cache_hits: Option<u64>,
    /// `sweep.profile_cache_hits` read from `/v1/metrics` after the run.
    pub profile_cache_hits: Option<u64>,
    /// Whether this run reused connections (`--keep-alive`).
    pub keep_alive: bool,
    /// TCP connections the generator dialed.
    pub connections_opened: u64,
    /// Requests that rode an already-open connection. With keep-alive
    /// off this is 0 by construction; on, it should approach
    /// `requests - concurrency × targets`.
    pub connection_reuses: u64,
}

impl LoadgenReport {
    /// True when every request succeeded, every response class was
    /// byte-identical, and (when requested) the caches produced hits.
    pub fn success(&self, opts: &LoadgenOptions) -> bool {
        let cache_ok = !opts.expect_cache_hits
            || (self.result_cache_hits.unwrap_or(0) > 0
                && self.profile_cache_hits.unwrap_or(0) > 0);
        self.ok == self.requests && self.mismatches == 0 && cache_ok
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "mode={} requests={} ok={} shed={} failed={} mismatches={} rps={:.1} \
             conns={} reuses={} \
             latency_ms min={:.2} mean={:.2} p50={:.2} p95={:.2} p99={:.2} max={:.2} \
             result_cache_hits={} profile_cache_hits={}",
            if self.keep_alive {
                "keep-alive"
            } else {
                "close"
            },
            self.requests,
            self.ok,
            self.shed,
            self.failed,
            self.mismatches,
            self.rps,
            self.connections_opened,
            self.connection_reuses,
            self.latency.min_nanos as f64 / 1e6,
            self.latency.mean_nanos as f64 / 1e6,
            self.latency.p50_nanos as f64 / 1e6,
            self.latency.p95_nanos as f64 / 1e6,
            self.latency.p99_nanos as f64 / 1e6,
            self.latency.max_nanos as f64 / 1e6,
            self.result_cache_hits
                .map_or("?".to_string(), |v| v.to_string()),
            self.profile_cache_hits
                .map_or("?".to_string(), |v| v.to_string()),
        )
    }
}

/// Run the load: `opts.requests` POSTs to `/v1/predict` (and, for
/// what-if classes, `/v1/jobs` round-trips) across `opts.concurrency`
/// threads, then read `/v1/metrics` once.
pub fn run(opts: &LoadgenOptions) -> LoadgenReport {
    assert!(
        !opts.bodies.is_empty() || !opts.whatif_bodies.is_empty(),
        "loadgen needs at least one body"
    );
    // Request classes: predict bodies first, then what-if job bodies.
    let nclasses = opts.bodies.len() + opts.whatif_bodies.len();
    // Per-class target address: the shard owning the class's route key
    // in sharded mode, the single daemon otherwise.
    let targets: Vec<String> = if opts.shards.is_empty() {
        vec![opts.addr.clone(); nclasses]
    } else {
        assert_eq!(
            opts.route_keys.len(),
            opts.bodies.len(),
            "sharded loadgen needs one route key per body"
        );
        assert_eq!(
            opts.whatif_keys.len(),
            opts.whatif_bodies.len(),
            "sharded loadgen needs one route key per what-if body"
        );
        let ring = ShardRing::new(opts.shards.iter().cloned());
        opts.route_keys
            .iter()
            .chain(opts.whatif_keys.iter())
            .map(|k| ring.owner(k).to_string())
            .collect()
    };
    let targets = &targets;
    let concurrency = opts.concurrency.max(1);
    let ok = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let mismatches = Arc::new(AtomicU64::new(0));
    let conns_opened = Arc::new(AtomicU64::new(0));
    let conn_reuses = Arc::new(AtomicU64::new(0));
    // Latency samples and 200-counts, one slot per request class.
    let latencies: Arc<Mutex<Vec<Vec<u64>>>> = Arc::new(Mutex::new(vec![Vec::new(); nclasses]));
    let ok_by_class: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(vec![0; nclasses]));
    // First 200 body seen per request class; later responses must match
    // it. For what-if classes the compared body is the job *result*.
    let reference: Arc<Mutex<Vec<Option<String>>>> = Arc::new(Mutex::new(vec![None; nclasses]));

    let t_run = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..concurrency {
            let opts = opts.clone();
            let ok = Arc::clone(&ok);
            let shed = Arc::clone(&shed);
            let failed = Arc::clone(&failed);
            let mismatches = Arc::clone(&mismatches);
            let latencies = Arc::clone(&latencies);
            let ok_by_class = Arc::clone(&ok_by_class);
            let reference = Arc::clone(&reference);
            let conns_opened = Arc::clone(&conns_opened);
            let conn_reuses = Arc::clone(&conn_reuses);
            scope.spawn(move || {
                // Keep-alive mode: one persistent connection per target
                // this thread talks to, reused across its requests.
                let mut pool: HashMap<String, ClientConn> = HashMap::new();
                let mut i = t;
                while i < opts.requests {
                    let class = i % nclasses;
                    let start = Instant::now();
                    let outcome = if class < opts.bodies.len() {
                        one_request(
                            &mut pool,
                            opts.keep_alive,
                            &targets[class],
                            "POST",
                            "/v1/predict",
                            Some(&opts.bodies[class]),
                            &conns_opened,
                            &conn_reuses,
                        )
                    } else {
                        whatif_round_trip(
                            &mut pool,
                            opts.keep_alive,
                            &targets[class],
                            &opts.whatif_bodies[class - opts.bodies.len()],
                            &conns_opened,
                            &conn_reuses,
                        )
                    };
                    let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    latencies.lock().expect("latencies poisoned")[class].push(nanos);
                    match outcome {
                        Ok((200, _, resp_body)) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                            ok_by_class.lock().expect("ok counts poisoned")[class] += 1;
                            let mut refs = reference.lock().expect("reference poisoned");
                            match &refs[class] {
                                None => refs[class] = Some(resp_body),
                                Some(expected) if *expected == resp_body => {}
                                Some(_) => {
                                    mismatches.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Ok((429, _, _)) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) | Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    i += concurrency;
                }
            });
        }
    });

    let elapsed_nanos = u64::try_from(t_run.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let elapsed_secs = (elapsed_nanos as f64 / 1e9).max(1e-9);
    let per_class = latencies.lock().expect("latencies poisoned");
    let ok_counts = ok_by_class.lock().expect("ok counts poisoned");
    let mut all: Vec<u64> = per_class.iter().flatten().copied().collect();
    let latency = LatencySummary::from_samples(&mut all);
    let classes: Vec<ClassReport> = per_class
        .iter()
        .zip(ok_counts.iter())
        .enumerate()
        .map(|(class, (samples, &ok))| {
            let mut samples = samples.clone();
            ClassReport {
                class,
                kind: if class < opts.bodies.len() {
                    "predict".to_string()
                } else {
                    "whatif".to_string()
                },
                requests: samples.len(),
                ok,
                rps: samples.len() as f64 / elapsed_secs,
                latency: LatencySummary::from_samples(&mut samples),
            }
        })
        .collect();

    let (result_cache_hits, profile_cache_hits) = if opts.shards.is_empty() {
        read_cache_hit_counters(&opts.addr)
    } else {
        // Fleet totals: sum each counter over every shard we can reach.
        let mut totals = (None, None);
        for shard in &opts.shards {
            let (r, p) = read_cache_hit_counters(shard);
            totals.0 = merge_counter(totals.0, r);
            totals.1 = merge_counter(totals.1, p);
        }
        // Round-trip each shard's typed `/v1/cluster` view: one line of
        // fleet store state per run, and a hard failure surface for any
        // schema drift between the daemons and this client.
        let mut records = 0u64;
        let mut replica_reads = 0u64;
        let mut reached = 0usize;
        for shard in &opts.shards {
            if let Some(status) = cluster_status(shard) {
                reached += 1;
                for s in &status.shards {
                    records += s.records;
                    replica_reads += s.replica_reads;
                }
            }
        }
        if reached > 0 {
            eprintln!(
                "loadgen cluster: {records} stored profile(s) across {reached} shard(s), \
                 {replica_reads} replica read(s)"
            );
        }
        totals
    };

    LoadgenReport {
        requests: opts.requests,
        ok: usize::try_from(ok.load(Ordering::Relaxed)).unwrap_or(usize::MAX),
        shed: usize::try_from(shed.load(Ordering::Relaxed)).unwrap_or(usize::MAX),
        failed: usize::try_from(failed.load(Ordering::Relaxed)).unwrap_or(usize::MAX),
        mismatches: usize::try_from(mismatches.load(Ordering::Relaxed)).unwrap_or(usize::MAX),
        latency,
        elapsed_nanos,
        rps: opts.requests as f64 / elapsed_secs,
        classes,
        result_cache_hits,
        profile_cache_hits,
        keep_alive: opts.keep_alive,
        connections_opened: conns_opened.load(Ordering::Relaxed),
        connection_reuses: conn_reuses.load(Ordering::Relaxed),
    }
}

/// One request, over this thread's persistent connection to `target`
/// when `keep_alive` is set (dialing, or re-dialing, when there is
/// none), else a fresh `Connection: close` exchange. A request that
/// fails on a *reused* connection is retried once on a fresh dial — the
/// server may have legitimately closed the idle connection between
/// requests (its idle timeout, or a drain), which is not a request
/// failure.
#[allow(clippy::too_many_arguments)]
fn one_request(
    pool: &mut HashMap<String, ClientConn>,
    keep_alive: bool,
    target: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    conns_opened: &AtomicU64,
    conn_reuses: &AtomicU64,
) -> std::io::Result<ClientResponse> {
    if !keep_alive {
        return client_request(target, method, path, body);
    }
    if let Some(mut conn) = pool.remove(target) {
        if let Ok(resp) = conn.request(method, path, body, &[]) {
            conn_reuses.fetch_add(1, Ordering::Relaxed);
            if conn.is_reusable() {
                pool.insert(target.to_string(), conn);
            }
            return Ok(resp);
        }
        // Stale pooled connection; fall through to a fresh dial.
    }
    let mut conn = ClientConn::connect(target)?;
    conns_opened.fetch_add(1, Ordering::Relaxed);
    let resp = conn.request(method, path, body, &[])?;
    if conn.is_reusable() {
        pool.insert(target.to_string(), conn);
    }
    Ok(resp)
}

/// Poll cap for one what-if round-trip: 5000 polls at ≥2 ms apart bounds
/// the wait at ten-plus seconds, far beyond any loadgen-sized job.
const JOB_POLL_LIMIT: usize = 5000;

/// One full batch-job round-trip: submit the job, poll `/result` until
/// the daemon stops answering 202, and return that final response (the
/// result on success; the job's error status otherwise). A 429 on
/// submit is returned as-is so admission sheds count as `shed`.
fn whatif_round_trip(
    pool: &mut HashMap<String, ClientConn>,
    keep_alive: bool,
    target: &str,
    body: &str,
    conns_opened: &AtomicU64,
    conn_reuses: &AtomicU64,
) -> std::io::Result<ClientResponse> {
    let submit = one_request(
        pool,
        keep_alive,
        target,
        "POST",
        "/v1/jobs",
        Some(body),
        conns_opened,
        conn_reuses,
    )?;
    // 202 = freshly queued, 200 = idempotent resubmit of a known job.
    if submit.0 != 200 && submit.0 != 202 {
        return Ok(submit);
    }
    let Some(id) = job_id(&submit.2) else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "job submit response carried no id",
        ));
    };
    let path = format!("/v1/jobs/{id}/result");
    for _ in 0..JOB_POLL_LIMIT {
        let resp = one_request(
            pool,
            keep_alive,
            target,
            "GET",
            &path,
            None,
            conns_opened,
            conn_reuses,
        )?;
        if resp.0 != 202 {
            return Ok(resp);
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::TimedOut,
        "job did not finish within the poll budget",
    ))
}

/// Pull the `"id"` field out of a job submit/status body.
fn job_id(body: &str) -> Option<String> {
    match serde_json::from_str::<serde::Value>(body).ok()?.get("id")? {
        serde::Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

/// Fetch one address's typed `GET /v1/cluster` view. `None` when the
/// shard is unreachable or answers something the typed schema rejects.
pub fn cluster_status(addr: &str) -> Option<crate::api::ClusterStatusResponse> {
    match client_request(addr, "GET", "/v1/cluster", None) {
        Ok((200, _, body)) => serde_json::from_str(&body).ok(),
        _ => None,
    }
}

fn merge_counter(acc: Option<u64>, next: Option<u64>) -> Option<u64> {
    match (acc, next) {
        (Some(a), Some(b)) => Some(a + b),
        (one, None) | (None, one) => one,
    }
}

/// Fetch `/v1/metrics` and pull the two cache-hit counters out of the
/// JSON body's top-level `"counters"` object.
fn read_cache_hit_counters(addr: &str) -> (Option<u64>, Option<u64>) {
    let Ok((200, _, body)) = client_request(addr, "GET", "/v1/metrics", None) else {
        return (None, None);
    };
    let Ok(value) = serde_json::from_str::<serde::Value>(&body) else {
        return (None, None);
    };
    let counter = |name: &str| {
        value
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(serde::Value::as_f64)
            .map(|v| v as u64)
    };
    (
        counter("serve.result_cache_hits"),
        counter("sweep.profile_cache_hits"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_uses_nearest_rank_and_is_monotone() {
        let mut samples: Vec<u64> = (1..=100).rev().collect();
        let s = LatencySummary::from_samples(&mut samples);
        assert_eq!(
            (
                s.min_nanos,
                s.mean_nanos,
                s.p50_nanos,
                s.p95_nanos,
                s.p99_nanos,
                s.max_nanos
            ),
            (1, 50, 50, 95, 99, 100)
        );
        let s = LatencySummary::from_samples(&mut [30, 10, 20]);
        assert_eq!(
            (s.p50_nanos, s.p95_nanos, s.p99_nanos, s.max_nanos),
            (20, 30, 30, 30)
        );
        assert!(
            s.p50_nanos <= s.p95_nanos && s.p95_nanos <= s.p99_nanos && s.p99_nanos <= s.max_nanos
        );
        assert_eq!(LatencySummary::from_samples(&mut []).max_nanos, 0);
    }
}
