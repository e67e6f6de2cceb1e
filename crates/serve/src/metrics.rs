//! Daemon metrics: lock-free counters on the hot path, rendered on
//! demand by `/v1/metrics` as JSON or Prometheus text.
//!
//! Counters and gauges are plain atomics so admission and batching never
//! contend on a metrics lock. Latency/batch-size histograms are
//! `prophet-obs` log₂ [`prophet_obs::Histogram`]s behind a short mutex
//! hold per batch, off the admission path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

use store::StoreStats;
use sweep::CacheStats;

use crate::eloop::ConnStats;

/// Per-batch histograms.
#[derive(Default)]
struct Histos {
    /// Requests coalesced per engine batch.
    batch_size: prophet_obs::Histogram,
    /// Nanoseconds a request waited in the admission queue.
    queue_wait_nanos: prophet_obs::Histogram,
    /// Nanoseconds one batch spent inside the sweep engine.
    batch_predict_nanos: prophet_obs::Histogram,
}

/// Wall-clock log-linear histograms (p50/p95/p99-grade resolution):
/// end-to-end predict latency plus one histogram per lifecycle stage,
/// fed by the same instrumentation points that emit trace spans.
#[derive(Default)]
struct WallStats {
    request_nanos: prophet_obs::WallHistogram,
    stages: std::collections::BTreeMap<&'static str, prophet_obs::WallHistogram>,
}

/// The fleet's availability objective for SLO math: 99.9%, i.e. an
/// error budget of 0.1% of requests allowed to miss the `--slo-ms`
/// target. Burn = (bad/total) / (1 - objective); burn 1.0 means the
/// budget is being consumed exactly as provisioned, >1 means faster.
pub const SLO_OBJECTIVE: f64 = 0.999;

/// Process-wide serving counters.
#[derive(Default)]
pub struct ServerMetrics {
    /// Prediction requests admitted, shed, or cache-served (every POST
    /// /predict that parsed).
    pub requests_total: AtomicU64,
    /// 200 responses produced (cache hits and computed).
    pub responses_ok: AtomicU64,
    /// Requests rejected with 429 because the queue was full.
    pub shed_total: AtomicU64,
    /// Requests rejected with 503 during drain.
    pub rejected_draining: AtomicU64,
    /// Requests that exceeded their deadline (504).
    pub deadline_timeouts: AtomicU64,
    /// 4xx parse/validation failures.
    pub client_errors: AtomicU64,
    /// Responses served straight from the result cache.
    pub result_cache_hits: AtomicU64,
    /// Admitted requests that missed the result cache.
    pub result_cache_misses: AtomicU64,
    /// Result-cache entries displaced by LRU pressure.
    pub result_cache_evictions: AtomicU64,
    /// Requests forwarded to their owning shard (sharded daemons only).
    pub proxied_total: AtomicU64,
    /// Forwards that failed because the owning shard was unreachable.
    pub proxy_errors: AtomicU64,
    /// Engine batches evaluated.
    pub batches_total: AtomicU64,
    /// Requests evaluated inside those batches.
    pub batched_requests: AtomicU64,
    /// What-if jobs accepted by `POST /v1/jobs` (fresh and deduped).
    pub jobs_submitted: AtomicU64,
    /// What-if jobs that ran to completion.
    pub jobs_completed: AtomicU64,
    /// What-if jobs that failed (deadline elapsed in queue, analysis
    /// error).
    pub jobs_failed: AtomicU64,
    /// Job submissions shed with 429 because the registry was full of
    /// live work.
    pub jobs_shed: AtomicU64,
    /// Distinct parallel regions attributed work/span by what-if jobs.
    pub whatif_regions_analyzed: AtomicU64,
    /// Emulator invocations spent by what-if jobs (causal rows plus
    /// inverse probes).
    pub whatif_emulations_run: AtomicU64,
    /// Inverse-query candidates discarded by the work/span bound without
    /// spending an emulation.
    pub whatif_pareto_pruned: AtomicU64,
    /// Current admission-queue depth (gauge).
    pub queue_depth: AtomicU64,
    /// Connections currently being handled (gauge).
    pub inflight: AtomicU64,
    /// Predict requests answered 200 within the `--slo-ms` target.
    pub slo_good_total: AtomicU64,
    /// Predict requests that missed the target (slow or non-200).
    pub slo_bad_total: AtomicU64,
    /// The configured SLO latency target, milliseconds (0 = unset;
    /// plain data, set once at construction).
    slo_ms: u64,
    /// Connection-level counters, shared with the event loop (which
    /// increments them; `/v1/metrics` only reads).
    pub conns: Arc<ConnStats>,
    histos: Mutex<Histos>,
    wall: Mutex<WallStats>,
}

impl ServerMetrics {
    /// Metrics with an SLO latency target (milliseconds) configured.
    pub fn new(slo_ms: u64) -> Self {
        ServerMetrics {
            slo_ms,
            ..Default::default()
        }
    }

    /// Count one finished predict request against the SLO: good when it
    /// answered 200 within the target, bad otherwise.
    pub fn record_slo(&self, status: u16, total_nanos: u64) {
        // slo_ms == 0 disables the latency target; only errors burn.
        let within = self.slo_ms == 0 || total_nanos / 1_000_000 <= self.slo_ms;
        if status == 200 && within {
            self.slo_good_total.fetch_add(1, Ordering::Relaxed);
        } else {
            self.slo_bad_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one request's end-to-end wall latency.
    pub fn observe_request_nanos(&self, nanos: u64) {
        self.wall
            .lock()
            .expect("wall stats poisoned")
            .request_nanos
            .observe(nanos);
    }

    /// Record one lifecycle-stage duration. Stage names must be static
    /// so the histogram set stays bounded.
    pub fn observe_stage(&self, name: &'static str, nanos: u64) {
        self.wall
            .lock()
            .expect("wall stats poisoned")
            .stages
            .entry(name)
            .or_default()
            .observe(nanos);
    }

    /// Record one batch: size plus queue-wait and predict latencies.
    pub fn record_batch(&self, size: usize, queue_waits: &[u64], predict_nanos: u64) {
        self.batches_total.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(size as u64, Ordering::Relaxed);
        let mut h = self.histos.lock().expect("metrics histos poisoned");
        h.batch_size.observe(size as u64);
        for &w in queue_waits {
            h.queue_wait_nanos.observe(w);
        }
        h.batch_predict_nanos.observe(predict_nanos);
    }

    fn counter_snapshot(&self) -> Vec<(&'static str, u64)> {
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        vec![
            ("serve.requests_total", c(&self.requests_total)),
            ("serve.responses_ok", c(&self.responses_ok)),
            ("serve.shed_total", c(&self.shed_total)),
            ("serve.rejected_draining", c(&self.rejected_draining)),
            ("serve.deadline_timeouts", c(&self.deadline_timeouts)),
            ("serve.client_errors", c(&self.client_errors)),
            ("serve.result_cache_hits", c(&self.result_cache_hits)),
            ("serve.result_cache_misses", c(&self.result_cache_misses)),
            (
                "serve.result_cache_evictions",
                c(&self.result_cache_evictions),
            ),
            ("serve.proxied_total", c(&self.proxied_total)),
            ("serve.proxy_errors", c(&self.proxy_errors)),
            ("serve.batches_total", c(&self.batches_total)),
            ("serve.batched_requests", c(&self.batched_requests)),
            ("serve.jobs_submitted_total", c(&self.jobs_submitted)),
            ("serve.jobs_completed_total", c(&self.jobs_completed)),
            ("serve.jobs_failed_total", c(&self.jobs_failed)),
            ("serve.jobs_shed_total", c(&self.jobs_shed)),
            ("whatif.regions_analyzed", c(&self.whatif_regions_analyzed)),
            ("whatif.emulations_run", c(&self.whatif_emulations_run)),
            ("whatif.pareto_pruned", c(&self.whatif_pareto_pruned)),
            ("serve.slo_good_total", c(&self.slo_good_total)),
            ("serve.slo_bad_total", c(&self.slo_bad_total)),
            ("serve.conns_accepted_total", c(&self.conns.accepted_total)),
            ("serve.conns_closed_total", c(&self.conns.closed_total)),
            (
                "serve.conns_overload_rejected_total",
                c(&self.conns.overload_rejections_total),
            ),
            (
                "serve.keepalive_reuses_total",
                c(&self.conns.keepalive_reuses_total),
            ),
            (
                "serve.conn_idle_timeouts_total",
                c(&self.conns.idle_timeouts_total),
            ),
            (
                "serve.conn_header_timeouts_total",
                c(&self.conns.header_timeouts_total),
            ),
            (
                "serve.wake_notifies_total",
                c(&self.conns.wake_notifies_total),
            ),
        ]
    }

    fn gauge_snapshot(&self) -> Vec<(&'static str, f64)> {
        let good = self.slo_good_total.load(Ordering::Relaxed);
        let bad = self.slo_bad_total.load(Ordering::Relaxed);
        let total = good + bad;
        // See SLO_OBJECTIVE: 1.0 = burning the error budget exactly as
        // provisioned; 0 until any request has been counted.
        let burn = if total == 0 {
            0.0
        } else {
            (bad as f64 / total as f64) / (1.0 - SLO_OBJECTIVE)
        };
        vec![
            (
                "serve.queue_depth",
                self.queue_depth.load(Ordering::Relaxed) as f64,
            ),
            (
                "serve.inflight",
                self.inflight.load(Ordering::Relaxed) as f64,
            ),
            ("serve.slo_target_ms", self.slo_ms as f64),
            ("serve.slo_error_budget_burn", burn),
            (
                "serve.open_connections",
                self.conns.open_connections.load(Ordering::Relaxed) as f64,
            ),
        ]
    }

    /// Fold serving + profile-cache + store + cluster counters into a
    /// fresh obs registry.
    pub fn registry(
        &self,
        profile_cache: CacheStats,
        store: Option<StoreStats>,
        cluster: &[(&'static str, u64)],
    ) -> prophet_obs::MetricsRegistry {
        let mut reg = prophet_obs::MetricsRegistry::new();
        for (name, v) in self.counter_snapshot() {
            reg.inc(name, v);
        }
        for (name, v) in profile_cache_counters(profile_cache) {
            reg.inc(name, v);
        }
        for (name, v) in store_counters(store) {
            reg.inc(name, v);
        }
        for &(name, v) in cluster {
            reg.inc(name, v);
        }
        for (name, v) in self.gauge_snapshot() {
            reg.set_gauge(name, v);
        }
        for (name, v) in store_gauges(store) {
            reg.set_gauge(name, v);
        }
        let h = self.histos.lock().expect("metrics histos poisoned");
        reg.insert_histogram("serve.batch_size", h.batch_size.clone());
        reg.insert_histogram("serve.queue_wait_nanos", h.queue_wait_nanos.clone());
        reg.insert_histogram("serve.batch_predict_nanos", h.batch_predict_nanos.clone());
        reg
    }

    /// The wall-clock histograms as `(name, json)` pairs, ordered and
    /// shape-compatible with the registry's log₂ histograms (so the
    /// router's bucket-wise merge treats them uniformly).
    fn wall_histogram_values(&self) -> Vec<(String, serde::Value)> {
        let w = self.wall.lock().expect("wall stats poisoned");
        let mut out = vec![(
            "serve.request_nanos".to_string(),
            w.request_nanos.to_value(),
        )];
        for (name, h) in &w.stages {
            out.push((format!("serve.stage.{name}_nanos"), h.to_value()));
        }
        out
    }

    /// JSON body for `/v1/metrics`. `cluster` carries the replication and
    /// migration counters of the cluster layer (empty when unsharded).
    pub fn render_json(
        &self,
        profile_cache: CacheStats,
        store: Option<StoreStats>,
        cluster: &[(&'static str, u64)],
    ) -> String {
        let mut value = self.registry(profile_cache, store, cluster).to_value();
        if let serde::Value::Object(sections) = &mut value {
            if let Some((_, serde::Value::Object(histos))) =
                sections.iter_mut().find(|(k, _)| k == "histograms")
            {
                histos.extend(self.wall_histogram_values());
                histos.sort_by(|(a, _), (b, _)| a.cmp(b));
            }
        }
        serde_json::to_string_pretty(&value).expect("serialise metrics")
    }

    /// Prometheus text body for `/metrics?format=prom`.
    pub fn render_prometheus(
        &self,
        profile_cache: CacheStats,
        store: Option<StoreStats>,
        cluster: &[(&'static str, u64)],
    ) -> String {
        let mut out = prophet_obs::prometheus_text(&self.registry(profile_cache, store, cluster));
        let w = self.wall.lock().expect("wall stats poisoned");
        out.push_str(&w.request_nanos.prometheus_text("serve_request_nanos"));
        for (name, h) in &w.stages {
            out.push_str(&h.prometheus_text(&format!("serve_stage_{name}_nanos")));
        }
        out
    }
}

/// The engine profile cache's counters under stable metric names. The
/// store pair splits the misses: `profiles = misses - store_hits` is
/// how many times the daemon actually ran the profiler.
fn profile_cache_counters(stats: CacheStats) -> Vec<(&'static str, u64)> {
    vec![
        ("sweep.profile_cache_hits", stats.hits),
        ("sweep.profile_cache_misses", stats.misses),
        ("sweep.profile_cache_entries", stats.entries),
        ("sweep.profile_cache_evictions", stats.evictions),
        ("sweep.profile_store_hits", stats.store_hits),
        ("sweep.profile_store_writes", stats.store_writes),
        ("sweep.profiles_run", stats.profiles()),
    ]
}

/// The persistent store's cumulative counters under stable metric
/// names; empty when the daemon runs without a store.
fn store_counters(stats: Option<StoreStats>) -> Vec<(&'static str, u64)> {
    let Some(s) = stats else {
        return Vec::new();
    };
    vec![
        ("store.hits", s.hits),
        ("store.misses", s.misses),
        ("store.writes", s.writes),
        ("store.corrupt_skipped", s.corrupt_skipped),
        ("store.decode_hits", s.decode_hits),
        ("store.decode_misses", s.decode_misses),
        ("store.compactions", s.compactions),
        ("store.reclaimed_bytes", s.reclaimed_bytes),
        ("store.syncs", s.syncs),
    ]
}

/// Point-in-time store gauges: how many records the log holds and how
/// many bytes of valid frames back them on disk.
fn store_gauges(stats: Option<StoreStats>) -> Vec<(&'static str, f64)> {
    let Some(s) = stats else {
        return Vec::new();
    };
    vec![
        ("store.records", s.records as f64),
        ("store.disk_bytes", s.disk_bytes as f64),
        ("store.live_bytes", s.live_bytes as f64),
        ("store.dead_bytes", s.dead_bytes as f64),
        ("store.segments", s.segments as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every name each snapshot function yields reaches both `/v1/metrics`
    /// renderings, as do the wall-clock request and stage histograms.
    #[test]
    fn every_metric_name_reaches_json_and_prometheus() {
        let m = ServerMetrics::new(5);
        m.observe_request_nanos(1_000);
        m.observe_stage("parse", 200);
        m.record_batch(2, &[10, 20], 300);
        let cache = CacheStats {
            hits: 1,
            misses: 2,
            entries: 1,
            evictions: 0,
            store_hits: 1,
            store_writes: 1,
        };
        let store = Some(StoreStats::default());
        let cluster = [("cluster.migrated_keys_in", 3)];
        let json = m.render_json(cache, store, &cluster);
        let prom = m.render_prometheus(cache, store, &cluster);
        let v: serde::Value = serde_json::from_str(&json).unwrap();

        let counters: Vec<&str> = m
            .counter_snapshot()
            .into_iter()
            .chain(profile_cache_counters(cache))
            .chain(store_counters(store))
            .chain(cluster)
            .map(|(name, _)| name)
            .collect();
        let gauges: Vec<&str> = m
            .gauge_snapshot()
            .into_iter()
            .chain(store_gauges(store))
            .map(|(name, _)| name)
            .collect();
        assert!(!store_counters(store).is_empty() && !store_gauges(store).is_empty());
        for (section, names, kind) in [
            ("counters", &counters, "counter"),
            ("gauges", &gauges, "gauge"),
        ] {
            for name in names {
                assert!(
                    v.get(section).and_then(|s| s.get(name)).is_some(),
                    "JSON {section} missing {name}"
                );
                let line = format!("# TYPE {} {kind}\n", name.replace('.', "_"));
                assert!(prom.contains(&line), "Prometheus text missing {line:?}");
            }
        }
        for (name, prom_name) in [
            ("serve.request_nanos", "serve_request_nanos"),
            ("serve.stage.parse_nanos", "serve_stage_parse_nanos"),
            ("serve.batch_size", "serve_batch_size"),
        ] {
            assert!(
                v.get("histograms").and_then(|h| h.get(name)).is_some(),
                "JSON histograms missing {name}"
            );
            let line = format!("# TYPE {prom_name} histogram\n");
            assert!(prom.contains(&line), "Prometheus text missing {line:?}");
        }
    }
}
