//! Store lifecycle across the shard fleet: replication, migration, and
//! the `/v1/cluster` admin surface.
//!
//! The persistent store makes profiles durable on *one* shard; this
//! module makes them durable across the *fleet*:
//!
//! * **Replication** (`--replicas N`): every profile a shard computes
//!   is also pushed to its `N-1` distinct ring successors
//!   ([`ShardRing::owners`]), as raw records over the migrate-ingest
//!   endpoint. When the owner is down, forwarders retry those
//!   successors with `x-replica-read: 1` — the header tells the
//!   replica to answer from its own store instead of forwarding back
//!   to the dead owner (which would loop).
//! * **Migration** (`POST /v1/cluster/migrate` with `to_ring`): on a
//!   membership change the old owner streams every record the new ring
//!   assigns elsewhere to its new owners, so moved keys replay from
//!   disk instead of re-profiling. One migration runs at a time per
//!   shard; a second initiate gets 409 `migration_in_progress`.
//! * **Ring-change observability**: the previous membership is pinned
//!   in `RING.json` inside the store directory. A store miss for a key
//!   the *old* ring placed on a different shard is a re-profile caused
//!   by ring movement, not a new workload — counted under
//!   `store.reprofile_on_ring_change` and WARNed, so un-migrated
//!   membership changes are visible instead of silently burning CPU.
//!
//! All request/response bodies are the typed structs of [`crate::api`],
//! shared verbatim with the router's aggregating endpoints, the
//! `prophet cluster` CLI verb, and the integration tests.

use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use prophet_core::Profiled;
use prophet_core::ProphetError;
use store::{CompactOptions, KeyedStore, ProfileStore};
use sweep::ProfileStorage;

use crate::api::{
    self, error_response, ClusterCompactRequest, ClusterCompactResponse, ClusterKeysResponse,
    ClusterMigrateRequest, ClusterMigrateResponse, ClusterStatusResponse, MigrateRecord,
    MigrateTarget, ShardCompact, ShardKeys, ShardMigrate, ShardStatus,
};
use crate::http::{Response, UpstreamPool};
use crate::ring::ShardRing;

/// Name of the ring-membership pin inside the store directory.
const RING_FILE: &str = "RING.json";

/// Records per ingest batch when streaming a migration. Bounds request
/// bodies (a profile payload is typically a few KiB) without costing a
/// round-trip per record.
const MIGRATE_BATCH: usize = 64;

/// Cluster counters, surfaced through `/v1/metrics` and
/// `GET /v1/cluster`.
#[derive(Default)]
pub struct ClusterCounters {
    /// Reads this shard served as a replica (`x-replica-read` set for a
    /// key another shard owns).
    pub replica_reads: AtomicU64,
    /// Records pushed to ring successors as replicas.
    pub replica_writes: AtomicU64,
    /// Replica pushes that failed (the profile stays durable on the
    /// owner; the replica converges on the next write or migration).
    pub replica_write_errors: AtomicU64,
    /// Store misses attributed to ring movement (the old ring placed
    /// the key on a different shard).
    pub reprofile_on_ring_change: AtomicU64,
    /// Records streamed out by migrations this shard initiated.
    pub migrated_keys_out: AtomicU64,
    /// Records ingested from migrating or replicating peers.
    pub migrated_keys_in: AtomicU64,
}

impl ClusterCounters {
    /// `(name, value)` pairs under stable metric names, merged into
    /// `/v1/metrics` next to the `store.*` family.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        vec![
            ("store.replica_reads", c(&self.replica_reads)),
            ("store.replica_writes", c(&self.replica_writes)),
            ("store.replica_write_errors", c(&self.replica_write_errors)),
            (
                "store.reprofile_on_ring_change",
                c(&self.reprofile_on_ring_change),
            ),
            ("cluster.migrated_keys_out", c(&self.migrated_keys_out)),
            ("cluster.migrated_keys_in", c(&self.migrated_keys_in)),
        ]
    }
}

/// Per-daemon cluster state: ring placement, replication fan-out,
/// migration serialization, and the counters above.
pub struct ClusterState {
    /// `(ring, own address)` when sharded; `None` for a standalone
    /// daemon (whose cluster surface still serves compaction/keys).
    pub placement: Option<(ShardRing, String)>,
    /// Configured replication factor (1 = no replication).
    pub replicas: usize,
    /// Replication / migration / ring-change counters for `/v1/metrics`.
    pub counters: ClusterCounters,
    /// Serializes migrations: one streaming pass at a time per shard.
    migrating: AtomicBool,
    /// The previous membership, when `RING.json` recorded a different
    /// ring than the current one at startup. Used to attribute store
    /// misses to ring movement.
    old_ring: Option<ShardRing>,
    /// Keep-alive connections for replication pushes and migration
    /// streams (separate from the request-forwarding pool so bulk
    /// streams don't contend with predict forwards).
    upstreams: UpstreamPool,
}

impl ClusterState {
    /// Build the daemon's cluster state, reconciling `RING.json` in the
    /// store directory against the current membership: a recorded ring
    /// that differs becomes [`old_ring`](Self::old_ring) (with a WARN
    /// counting the keys the change moved), and the current membership
    /// is pinned for the next restart.
    pub fn create(
        placement: Option<(ShardRing, String)>,
        replicas: usize,
        store: Option<&Arc<ProfileStore>>,
    ) -> Self {
        let old_ring = match (&placement, store) {
            (Some((ring, own)), Some(store)) => {
                detect_ring_change(store.dir(), ring, own, &store.keys())
            }
            _ => None,
        };
        ClusterState {
            placement,
            replicas: replicas.max(1),
            counters: ClusterCounters::default(),
            migrating: AtomicBool::new(false),
            old_ring,
            upstreams: UpstreamPool::new(2),
        }
    }

    /// The distinct replica set for a route key: owner first, then ring
    /// successors. Empty when unsharded.
    pub fn owners(&self, route_key: &str) -> Vec<String> {
        match &self.placement {
            Some((ring, _)) => ring
                .owners(route_key, self.replicas)
                .into_iter()
                .map(str::to_string)
                .collect(),
            None => Vec::new(),
        }
    }
}

/// The workload part of a full store key (everything before the
/// `@cal=…;opt=…` fingerprint suffix) — the string ring ownership is
/// computed from.
fn workload_part(full_key: &str) -> &str {
    match full_key.rfind("@cal=") {
        Some(at) => &full_key[..at],
        None => full_key,
    }
}

/// Compare the pinned membership against the current one; on a change,
/// WARN with how many local keys moved and return the old ring.
/// Always (re)pins the current membership.
fn detect_ring_change(
    dir: &Path,
    ring: &ShardRing,
    own: &str,
    keys: &[store::KeyInfo],
) -> Option<ShardRing> {
    let path = dir.join(RING_FILE);
    let previous: Option<Vec<String>> = fs::read_to_string(&path)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok());
    let current: Vec<String> = ring.addrs().to_vec();
    let changed = previous
        .as_ref()
        .is_some_and(|prev| sorted(prev) != sorted(&current));
    if let Err(e) = fs::write(
        &path,
        serde_json::to_string(&current).expect("serialise ring"),
    ) {
        eprintln!("prophet-serve: warning: cannot pin ring membership in {RING_FILE}: {e}");
    }
    if !changed {
        return None;
    }
    let prev = previous.expect("changed implies previous");
    let old_ring = ShardRing::new(prev.iter().cloned());
    let moved_away = keys
        .iter()
        .filter(|k| ring.owner(workload_part(&k.key)) != own)
        .count();
    eprintln!(
        "prophet-serve: WARN ring membership changed ({} -> {} shards); \
         {moved_away} of {} local profile(s) now owned elsewhere — run \
         `prophet cluster migrate` to stream them (misses will re-profile \
         and count under store.reprofile_on_ring_change until then)",
        old_ring.len(),
        ring.len(),
        keys.len(),
    );
    Some(old_ring)
}

fn sorted(v: &[String]) -> Vec<&String> {
    let mut out: Vec<&String> = v.iter().collect();
    out.sort();
    out
}

/// [`ProfileStorage`] adapter layering cluster behavior over a
/// [`KeyedStore`]: saves fan out to the key's ring successors
/// (replication), and misses caused by ring movement are counted and
/// WARNed instead of silently re-profiling.
pub struct ReplicatedStore {
    keyed: KeyedStore,
    cluster: Arc<ClusterState>,
}

impl ReplicatedStore {
    /// Wrap a [`KeyedStore`] with the daemon's cluster state.
    pub fn new(keyed: KeyedStore, cluster: Arc<ClusterState>) -> Self {
        ReplicatedStore { keyed, cluster }
    }
}

impl ProfileStorage for ReplicatedStore {
    fn load(&self, key: &str) -> Option<Profiled> {
        let found = self.keyed.load(key);
        if found.is_none() {
            if let (Some(old), Some((_, own))) = (&self.cluster.old_ring, &self.cluster.placement) {
                if old.owner(key) != own {
                    self.cluster
                        .counters
                        .reprofile_on_ring_change
                        .fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "prophet-serve: WARN re-profiling {key:?}: the previous ring \
                         owned it on {} — a migration would have replayed it from disk",
                        old.owner(key)
                    );
                }
            }
        }
        found
    }

    fn save(&self, key: &str, profiled: &Profiled) {
        self.keyed.save(key, profiled);
        let Some((_, own)) = &self.cluster.placement else {
            return;
        };
        if self.cluster.replicas < 2 {
            return;
        }
        // Push the just-written record (byte-identical to what a future
        // failover read must replay) to every other member of the
        // key's replica set. Synchronous and best-effort: a dead
        // replica costs a warning, never the response.
        let full_key = self.keyed.full_key(key);
        let payload = match self.keyed.store().export_record(&full_key) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return,
        };
        let body = serde_json::to_string(&ClusterMigrateRequest {
            records: Some(vec![MigrateRecord {
                key: full_key,
                payload_hex: api::hex_encode(&payload),
            }]),
            ..ClusterMigrateRequest::default()
        })
        .expect("serialise replication push");
        for target in self.cluster.owners(key) {
            if target == *own {
                continue;
            }
            match self.cluster.upstreams.request(
                &target,
                "POST",
                "/v1/cluster/migrate",
                Some(&body),
                &[],
            ) {
                Ok((200, _, _)) => {
                    self.cluster
                        .counters
                        .replica_writes
                        .fetch_add(1, Ordering::Relaxed);
                }
                Ok((status, _, _)) => {
                    self.cluster
                        .counters
                        .replica_write_errors
                        .fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "prophet-serve: warning: replica {target} rejected {key:?} ({status})"
                    );
                }
                Err(e) => {
                    self.cluster
                        .counters
                        .replica_write_errors
                        .fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "prophet-serve: warning: replica {target} unreachable pushing {key:?}: {e}"
                    );
                }
            }
        }
    }
}

/// The daemon's own [`ShardStatus`] entry.
pub fn shard_status(
    addr: &str,
    store: Option<&Arc<ProfileStore>>,
    cluster: &ClusterState,
) -> ShardStatus {
    let c = &cluster.counters;
    let mut out = ShardStatus {
        addr: addr.to_string(),
        alive: true,
        store: store.is_some(),
        replica_reads: c.replica_reads.load(Ordering::Relaxed),
        replica_writes: c.replica_writes.load(Ordering::Relaxed),
        reprofile_on_ring_change: c.reprofile_on_ring_change.load(Ordering::Relaxed),
        migrating: cluster.migrating.load(Ordering::SeqCst),
        ..ShardStatus::default()
    };
    if let Some(store) = store {
        let s = store.stats();
        out.records = s.records;
        out.segments = s.segments;
        out.disk_bytes = s.disk_bytes;
        out.live_bytes = s.live_bytes;
        out.dead_bytes = s.dead_bytes;
        out.compactions = s.compactions;
    }
    out
}

/// `GET /v1/cluster` on a daemon: membership plus this shard's entry.
pub fn status_response(
    own_addr: &str,
    store: Option<&Arc<ProfileStore>>,
    cluster: &ClusterState,
) -> Response {
    let ring = match &cluster.placement {
        Some((ring, _)) => ring.addrs().to_vec(),
        None => Vec::new(),
    };
    let body = ClusterStatusResponse {
        ring,
        replicas: cluster.replicas as u64,
        shards: vec![shard_status(own_addr, store, cluster)],
    };
    Response::json(
        200,
        serde_json::to_string_pretty(&body).expect("serialise cluster status"),
    )
}

/// `GET /v1/cluster/keys` on a daemon: this shard's live keys.
pub fn keys_response(own_addr: &str, store: Option<&Arc<ProfileStore>>) -> Response {
    let keys = store.map(|s| s.keys()).unwrap_or_default();
    let body = ClusterKeysResponse {
        shards: vec![ShardKeys {
            addr: own_addr.to_string(),
            keys,
        }],
    };
    Response::json(
        200,
        serde_json::to_string_pretty(&body).expect("serialise cluster keys"),
    )
}

/// `POST /v1/cluster/compact` on a daemon: one synchronous pass with
/// the requested knobs, retaining only the daemon's live fingerprint
/// generation (stale calibration generations are the dead bytes this
/// endpoint exists to reclaim).
pub fn compact_response(
    own_addr: &str,
    store: Option<&Arc<ProfileStore>>,
    retain_suffix: Option<String>,
    body: &[u8],
) -> Response {
    let Some(store) = store else {
        return error_response(&ProphetError::Unprocessable(
            "this daemon has no persistent store (--store-dir)".to_string(),
        ));
    };
    let parsed: ClusterCompactRequest = if body.is_empty() {
        ClusterCompactRequest::default()
    } else {
        match std::str::from_utf8(body)
            .ok()
            .and_then(|s| serde_json::from_str(s).ok())
        {
            Some(p) => p,
            None => {
                return error_response(&ProphetError::InvalidRequest(
                    "body is not a compact request".to_string(),
                ))
            }
        }
    };
    let opts = CompactOptions {
        min_dead_ratio: parsed.min_dead_ratio,
        include_active: parsed.include_active.unwrap_or(true),
        retain_suffix,
        ..CompactOptions::default()
    };
    match store.compact(&opts) {
        Ok(report) => {
            let body = ClusterCompactResponse {
                shards: vec![ShardCompact {
                    addr: own_addr.to_string(),
                    report,
                }],
            };
            Response::json(
                200,
                serde_json::to_string_pretty(&body).expect("serialise compact response"),
            )
        }
        Err(e) => error_response(&e),
    }
}

/// `POST /v1/cluster/migrate` on a daemon — both sides of the stream:
/// ingest mode appends carried records, initiate mode walks the local
/// store and streams every record the new ring owns elsewhere.
pub fn migrate_response(
    own_addr: &str,
    store: Option<&Arc<ProfileStore>>,
    cluster: &ClusterState,
    body: &[u8],
) -> Response {
    let parsed: ClusterMigrateRequest = match std::str::from_utf8(body)
        .ok()
        .and_then(|s| serde_json::from_str(s).ok())
    {
        Some(p) => p,
        None => {
            return error_response(&ProphetError::InvalidRequest(
                "body is not a migrate request".to_string(),
            ))
        }
    };
    let Some(store) = store else {
        return error_response(&ProphetError::Unprocessable(
            "this daemon has no persistent store (--store-dir)".to_string(),
        ));
    };
    match (parsed.records, parsed.to_ring) {
        (Some(records), None) => ingest(own_addr, store, cluster, records),
        (None, Some(to_ring)) => {
            let replicas = parsed
                .replicas
                .map(|r| r as usize)
                .unwrap_or(cluster.replicas);
            initiate(own_addr, store, cluster, to_ring, replicas)
        }
        _ => error_response(&ProphetError::Unprocessable(
            "give exactly one of `records` (ingest) or `to_ring` (initiate)".to_string(),
        )),
    }
}

/// Ingest mode: append each carried record (skipping keys already
/// held — replication retries and overlapping migrations are
/// idempotent), then sync once before answering. A record that fails to
/// decode poisons nothing: it is skipped and the batch keeps going.
fn ingest(
    own_addr: &str,
    store: &Arc<ProfileStore>,
    cluster: &ClusterState,
    records: Vec<MigrateRecord>,
) -> Response {
    let mut ingested = 0u64;
    for r in &records {
        let Some(payload) = api::hex_decode(&r.payload_hex) else {
            eprintln!(
                "prophet-serve: warning: migrate ingest of {:?}: payload is not hex; skipped",
                r.key
            );
            continue;
        };
        match store.put_raw(&r.key, &payload) {
            Ok(true) => ingested += 1,
            Ok(false) => {}
            Err(e) => {
                eprintln!(
                    "prophet-serve: warning: migrate ingest of {:?} failed: {e}",
                    r.key
                );
            }
        }
    }
    crate::sync_store(store);
    cluster
        .counters
        .migrated_keys_in
        .fetch_add(ingested, Ordering::Relaxed);
    let body = ClusterMigrateResponse {
        shards: vec![ShardMigrate {
            addr: own_addr.to_string(),
            ingested,
            ..ShardMigrate::default()
        }],
    };
    Response::json(
        200,
        serde_json::to_string_pretty(&body).expect("serialise migrate response"),
    )
}

/// Initiate mode: for every local record whose replica set under the
/// new ring excludes this shard's copy holder status, stream it to the
/// new owners in batches. Serialized per shard: a concurrent initiate
/// answers 409.
fn initiate(
    own_addr: &str,
    store: &Arc<ProfileStore>,
    cluster: &ClusterState,
    to_ring: Vec<String>,
    replicas: usize,
) -> Response {
    if to_ring.is_empty() {
        return error_response(&ProphetError::Unprocessable(
            "to_ring must name at least one shard".to_string(),
        ));
    }
    if cluster.migrating.swap(true, Ordering::SeqCst) {
        return error_response(&ProphetError::MigrationInProgress);
    }
    // Reset the flag on every exit path.
    struct Unflag<'a>(&'a AtomicBool);
    impl Drop for Unflag<'_> {
        fn drop(&mut self) {
            self.0.store(false, Ordering::SeqCst);
        }
    }
    let _unflag = Unflag(&cluster.migrating);

    let new_ring = ShardRing::new(to_ring.iter().cloned());
    // Batch per target: key -> records headed there.
    let mut outbound: Vec<(String, Vec<MigrateRecord>)> = Vec::new();
    let mut moved_keys = 0u64;
    let mut moved_bytes = 0u64;
    for info in store.keys() {
        let route = workload_part(&info.key);
        for target in new_ring.owners(route, replicas) {
            if target == own_addr {
                continue;
            }
            let payload = match store.export_record(&info.key) {
                Ok(Some(p)) => p,
                Ok(None) => continue,
                Err(e) => {
                    eprintln!(
                        "prophet-serve: warning: migrate export of {:?} failed: {e}",
                        info.key
                    );
                    continue;
                }
            };
            moved_keys += 1;
            moved_bytes += payload.len() as u64;
            let record = MigrateRecord {
                key: info.key.clone(),
                payload_hex: api::hex_encode(&payload),
            };
            match outbound.iter_mut().find(|(a, _)| a.as_str() == target) {
                Some((_, batch)) => batch.push(record),
                None => outbound.push((target.to_string(), vec![record])),
            }
        }
    }

    let mut targets = Vec::new();
    for (target, records) in outbound {
        let mut acked = 0u64;
        for chunk in records.chunks(MIGRATE_BATCH) {
            let body = serde_json::to_string(&ClusterMigrateRequest {
                records: Some(chunk.to_vec()),
                ..ClusterMigrateRequest::default()
            })
            .expect("serialise migrate batch");
            match cluster.upstreams.request(
                &target,
                "POST",
                "/v1/cluster/migrate",
                Some(&body),
                &[],
            ) {
                Ok((200, _, _)) => acked += chunk.len() as u64,
                Ok((status, _, _)) => {
                    eprintln!(
                        "prophet-serve: warning: migrate target {target} answered {status}; \
                         {n} record(s) not delivered",
                        n = chunk.len()
                    );
                }
                Err(e) => {
                    eprintln!(
                        "prophet-serve: warning: migrate target {target} unreachable ({e}); \
                         {n} record(s) not delivered",
                        n = chunk.len()
                    );
                }
            }
        }
        targets.push(MigrateTarget {
            addr: target,
            keys: acked,
        });
    }
    cluster
        .counters
        .migrated_keys_out
        .fetch_add(moved_keys, Ordering::Relaxed);
    let body = ClusterMigrateResponse {
        shards: vec![ShardMigrate {
            addr: own_addr.to_string(),
            moved_keys,
            moved_bytes,
            ingested: 0,
            targets,
        }],
    };
    Response::json(
        200,
        serde_json::to_string_pretty(&body).expect("serialise migrate response"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A second initiate while one is streaming answers 409
    /// `migration_in_progress`; a body naming both or neither mode is
    /// 422. Neither touches the store.
    #[test]
    fn migrate_guards_serialize_initiates_and_reject_ambiguous_bodies() {
        let dir =
            std::env::temp_dir().join(format!("prophet-cluster-guard-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = Arc::new(ProfileStore::builder(&dir).open().expect("store opens"));
        let ring = ShardRing::new(vec!["a:1".to_string(), "b:1".to_string()]);
        let cluster = ClusterState::create(Some((ring, "a:1".to_string())), 1, Some(&store));

        let initiate = serde_json::to_string(&ClusterMigrateRequest {
            to_ring: Some(vec!["a:1".to_string()]),
            ..ClusterMigrateRequest::default()
        })
        .unwrap();
        cluster.migrating.store(true, Ordering::SeqCst);
        let resp = migrate_response("a:1", Some(&store), &cluster, initiate.as_bytes());
        assert_eq!(resp.status, 409, "concurrent initiate must conflict");
        cluster.migrating.store(false, Ordering::SeqCst);

        let ambiguous = serde_json::to_string(&ClusterMigrateRequest {
            to_ring: Some(vec!["a:1".to_string()]),
            records: Some(Vec::new()),
            ..ClusterMigrateRequest::default()
        })
        .unwrap();
        let resp = migrate_response("a:1", Some(&store), &cluster, ambiguous.as_bytes());
        assert_eq!(resp.status, 422);
        let resp = migrate_response("a:1", Some(&store), &cluster, b"{}");
        assert_eq!(resp.status, 422, "neither mode is as ambiguous as both");

        // An empty-ring initiate is a 422, and the guard was released.
        let empty = serde_json::to_string(&ClusterMigrateRequest {
            to_ring: Some(Vec::new()),
            ..ClusterMigrateRequest::default()
        })
        .unwrap();
        let resp = migrate_response("a:1", Some(&store), &cluster, empty.as_bytes());
        assert_eq!(resp.status, 422);
        assert!(!cluster.migrating.load(Ordering::SeqCst));
        let _ = fs::remove_dir_all(&dir);
    }

    /// An ingest of k records appends all of them and fsyncs once,
    /// before its 200.
    #[test]
    fn ingest_syncs_once_per_request() {
        struct Tiny;
        impl prophet_core::tracer::AnnotatedProgram for Tiny {
            fn name(&self) -> &str {
                "tiny"
            }
            fn run(&self, t: &mut prophet_core::tracer::Tracer) {
                t.par_sec_begin("s");
                t.par_task_begin("t");
                t.work(5_000);
                t.par_task_end();
                t.par_sec_end(false);
            }
        }
        let prophet = prophet_core::Prophet::builder()
            .calibration(prophet_core::memmodel::calibrate(
                prophet_core::machsim::MachineConfig::westmere_scaled(),
                &prophet_core::memmodel::CalibrationOptions {
                    thread_counts: vec![2],
                    intensity_steps: 3,
                    packet_cycles: 100_000,
                },
            ))
            .build();
        let mut payload = Vec::new();
        prophet_core::codec::encode_profiled(&prophet.profile(&Tiny), &mut payload);
        let records: Vec<MigrateRecord> = (0..3)
            .map(|i| MigrateRecord {
                key: format!("tiny:{i}"),
                payload_hex: api::hex_encode(&payload),
            })
            .collect();
        let body = serde_json::to_string(&ClusterMigrateRequest {
            records: Some(records),
            ..ClusterMigrateRequest::default()
        })
        .unwrap();

        let dir =
            std::env::temp_dir().join(format!("prophet-cluster-ingest-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = Arc::new(ProfileStore::builder(&dir).open().expect("store opens"));
        let cluster = ClusterState::create(None, 1, Some(&store));
        let resp = migrate_response("a:1", Some(&store), &cluster, body.as_bytes());
        assert_eq!(resp.status, 200);
        let s = store.stats();
        assert_eq!(
            (s.writes, s.syncs),
            (3, 1),
            "one fsync for the whole ingest"
        );
        // A retry appends nothing, so it costs no fsync either.
        let resp = migrate_response("a:1", Some(&store), &cluster, body.as_bytes());
        assert_eq!(resp.status, 200);
        assert_eq!(store.stats().syncs, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn workload_part_strips_the_fingerprint_suffix() {
        assert_eq!(
            workload_part("test1:0@cal=0123456789abcdef;opt=fedcba9876543210"),
            "test1:0"
        );
        assert_eq!(workload_part("bare-key"), "bare-key");
        // Only the *last* @cal= starts the suffix.
        assert_eq!(workload_part("odd@cal=x@cal=1;opt=2"), "odd@cal=x");
    }
}
