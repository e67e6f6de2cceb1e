//! The typed v1 wire contract, shared by the server, the load
//! generator, the CLI, and the integration tests.
//!
//! Before this module the request shape lived as a private struct inside
//! the server and every client hand-rolled JSON with `format!`. Now both
//! ends speak the same serde structs, so a field rename is a compile
//! error everywhere at once instead of a silent 400 at runtime.
//!
//! Versioning: every endpoint lives under `/v1/` (`POST /v1/predict`,
//! `GET /v1/healthz`, `GET /v1/metrics`); an unversioned path is a 404.
//! The body shapes here, the error codes of
//! [`ProphetError::code`](prophet_core::ProphetError::code), and their
//! status mapping are the compatibility surface of v1.

use prophet_core::ProphetError;
use serde::{Deserialize, Serialize};

use crate::http::Response;

/// Body of `POST /v1/predict`. Every field is optional; singular and
/// plural spellings are both accepted where that reads naturally
/// (`workload`/`workloads`, `schedule`/`schedules`), though one of the
/// workload spellings is required.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PredictRequest {
    /// Workload list in `prophet sweep` syntax (e.g. `"test1:0..4"`).
    pub workload: Option<String>,
    /// Alias of `workload`; give one or the other, never both.
    pub workloads: Option<String>,
    /// Thread counts; defaults to `[2, 4, 6, 8, 10, 12]`.
    pub threads: Option<Vec<u32>>,
    /// One schedule (`static`, `static-N`, `dynamic-N`, `guided-N`).
    pub schedule: Option<String>,
    /// Several schedules; give `schedule` or `schedules`, never both.
    pub schedules: Option<Vec<String>>,
    /// Threading paradigm (`openmp`, `cilk`, `omptask`); default openmp.
    pub paradigm: Option<String>,
    /// Predictor series (`real`, `ff[±mm]`, `syn[±mm]`, `suit`);
    /// defaults to `["real", "syn"]`.
    pub predictors: Option<Vec<String>>,
    /// Per-request deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
}

impl PredictRequest {
    /// Serialize to the JSON body the daemon accepts.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("serialise predict request")
    }
}

/// Body of a 200 `POST /v1/predict` response: exactly a
/// [`SweepResult`](sweep::SweepResult), pretty-printed. An alias rather
/// than a wrapper so the serve path cannot drift from `prophet sweep`
/// output — the byte-identity between the two is a tested contract.
pub type PredictResponse = sweep::SweepResult;

/// Body of every non-2xx response: a human-readable message plus the
/// stable machine-readable code of
/// [`ProphetError::code`](prophet_core::ProphetError::code). Clients
/// branch on `code`, never on `error`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Human-readable description; wording may change between releases.
    pub error: String,
    /// Stable machine-readable code (`"overloaded"`,
    /// `"deadline_exceeded"`, ...); the v1 contract.
    pub code: String,
}

impl ErrorBody {
    /// The wire body for an error.
    pub fn of(err: &ProphetError) -> Self {
        ErrorBody {
            error: err.to_string(),
            code: err.code().to_string(),
        }
    }
}

/// Body of `GET /v1/cluster`: ring membership plus one
/// [`ShardStatus`] per reachable shard. A daemon answers with exactly
/// its own entry; the router concatenates every shard's entry (and
/// synthesises `alive: false` stubs for unreachable ones), so the same
/// struct round-trips through the CLI verb and loadgen unchanged.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClusterStatusResponse {
    /// Shard addresses forming the ring (empty = unsharded daemon).
    pub ring: Vec<String>,
    /// Configured replication factor (1 = no replication).
    pub replicas: u64,
    /// Per-shard store lifecycle stats; see [`ShardStatus`].
    pub shards: Vec<ShardStatus>,
}

/// One shard's store-lifecycle snapshot inside a
/// [`ClusterStatusResponse`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ShardStatus {
    /// The shard's ring address.
    pub addr: String,
    /// False when the router could not reach the shard (daemon entries
    /// are always true — a daemon that answers is alive).
    pub alive: bool,
    /// Whether the daemon has a persistent store configured.
    pub store: bool,
    /// Live records in the shard's store.
    pub records: u64,
    /// Sealed (immutable) segments in the store.
    pub segments: u64,
    /// Bytes of framed records on disk, live and dead alike.
    pub disk_bytes: u64,
    /// Bytes belonging to live frames.
    pub live_bytes: u64,
    /// `disk_bytes - live_bytes`: reclaimable by compaction.
    pub dead_bytes: u64,
    /// Compaction passes since the daemon started.
    pub compactions: u64,
    /// Reads served from this shard as a replica (owner was down).
    pub replica_reads: u64,
    /// Records this shard pushed to ring successors as replicas.
    pub replica_writes: u64,
    /// Store misses attributed to ring movement, not new workloads.
    pub reprofile_on_ring_change: u64,
    /// True while a migration initiated on this shard is streaming.
    pub migrating: bool,
}

/// Body of `POST /v1/cluster/compact`. All fields optional: an empty
/// body compacts with the store's configured thresholds.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClusterCompactRequest {
    /// Dead-byte ratio above which a sealed segment is rewritten;
    /// `0.0` rewrites any segment with at least one dead byte. Default:
    /// the store's `--store-compact-ratio`.
    pub min_dead_ratio: Option<f64>,
    /// Seal the active log first so its records are eligible too
    /// (default true).
    pub include_active: Option<bool>,
}

/// Body of a 200 `POST /v1/cluster/compact`: one [`ShardCompact`] per
/// shard that ran a pass (a daemon answers with its own, the router
/// concatenates).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClusterCompactResponse {
    /// Per-shard compaction outcomes.
    pub shards: Vec<ShardCompact>,
}

/// One shard's compaction outcome: the store-layer
/// [`CompactReport`](store::CompactReport) tagged with its address.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ShardCompact {
    /// The shard's ring address.
    pub addr: String,
    /// What the pass did; see the store crate for field meanings.
    pub report: store::CompactReport,
}

/// Body of `POST /v1/cluster/migrate`. Two modes share the struct,
/// distinguished by which field is set:
///
/// * **initiate** (`to_ring`): the receiving daemon streams every local
///   record whose owner set under the *new* ring excludes it to the new
///   owners, in [`MigrateRecord`] batches over this same endpoint.
/// * **ingest** (`records`): the receiving daemon appends the carried
///   records to its own store (skipping keys it already holds).
///
/// Setting both (or neither) is a 422.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClusterMigrateRequest {
    /// Initiate mode: the post-change ring membership.
    pub to_ring: Option<Vec<String>>,
    /// Initiate mode: replication factor under the new ring (defaults
    /// to the daemon's own `--replicas`).
    pub replicas: Option<u64>,
    /// Ingest mode: records streamed by a migrating peer.
    pub records: Option<Vec<MigrateRecord>>,
}

/// One profile record in flight between stores: the full store key and
/// the raw payload, hex-encoded (the JSON layer is UTF-8; profiles are
/// compressed binary). Payload bytes are appended verbatim by the
/// receiver, so a migrated record replays byte-identically.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MigrateRecord {
    /// Full store-level key (workload key plus fingerprint suffix).
    pub key: String,
    /// Hex-encoded payload bytes.
    pub payload_hex: String,
}

/// Body of a 200 `POST /v1/cluster/migrate`: one [`ShardMigrate`] per
/// shard that took part (a daemon answers with its own, the router
/// concatenates the initiate responses of every shard).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClusterMigrateResponse {
    /// Per-shard migration outcomes.
    pub shards: Vec<ShardMigrate>,
}

/// One shard's side of a migration.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ShardMigrate {
    /// The answering shard's address.
    pub addr: String,
    /// Initiate mode: records streamed out to new owners.
    pub moved_keys: u64,
    /// Initiate mode: payload bytes streamed out.
    pub moved_bytes: u64,
    /// Ingest mode: records appended (keys already held don't count).
    pub ingested: u64,
    /// Initiate mode: per-target delivery counts.
    pub targets: Vec<MigrateTarget>,
}

/// Records delivered to one target shard during a migration.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MigrateTarget {
    /// The receiving shard's address.
    pub addr: String,
    /// Records it acknowledged.
    pub keys: u64,
}

/// Body of `GET /v1/cluster/keys?scope=local`: the live keys of each
/// answering shard's store ([`KeyInfo`](store::KeyInfo) per record).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClusterKeysResponse {
    /// Per-shard key listings.
    pub shards: Vec<ShardKeys>,
}

/// One shard's live-key listing.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ShardKeys {
    /// The shard's ring address.
    pub addr: String,
    /// Every live key, sorted.
    pub keys: Vec<store::KeyInfo>,
}

/// Lowercase hex of `bytes`, for [`MigrateRecord::payload_hex`].
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decode [`hex_encode`] output; `None` on odd length or a non-hex
/// digit.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

/// The HTTP response for a [`ProphetError`]: its mapped status with an
/// [`ErrorBody`] JSON payload. Retryable errors carry `Retry-After: 1`.
pub fn error_response(err: &ProphetError) -> Response {
    let body = serde_json::to_string(&ErrorBody::of(err)).expect("serialise error body");
    let resp = Response::json(err.http_status(), body);
    if err.is_retryable() {
        resp.with_header("retry-after", "1")
    } else {
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_request_round_trips() {
        let req = PredictRequest {
            workload: Some("test1:0..2".to_string()),
            threads: Some(vec![2, 4]),
            schedules: Some(vec!["static".to_string(), "dynamic-1".to_string()]),
            predictors: Some(vec!["ff".to_string()]),
            deadline_ms: Some(1_500),
            ..PredictRequest::default()
        };
        let back: PredictRequest = serde_json::from_str(&req.to_json()).unwrap();
        assert_eq!(back.workload.as_deref(), Some("test1:0..2"));
        assert_eq!(back.workloads, None);
        assert_eq!(back.threads, Some(vec![2, 4]));
        assert_eq!(back.schedules.as_ref().map(Vec::len), Some(2));
        assert_eq!(back.deadline_ms, Some(1_500));
    }

    #[test]
    fn hex_round_trips_and_rejects_damage() {
        let bytes: Vec<u8> = (0u8..=255).collect();
        let hex = hex_encode(&bytes);
        assert_eq!(hex.len(), 512);
        assert_eq!(hex_decode(&hex).unwrap(), bytes);
        assert_eq!(hex_decode("abc"), None, "odd length rejected");
        assert_eq!(hex_decode("zz"), None, "non-hex digit rejected");
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn cluster_bodies_round_trip_through_their_typed_structs() {
        let status = ClusterStatusResponse {
            ring: vec!["a:1".to_string(), "b:2".to_string()],
            replicas: 2,
            shards: vec![ShardStatus {
                addr: "a:1".to_string(),
                alive: true,
                store: true,
                records: 7,
                segments: 2,
                disk_bytes: 4096,
                live_bytes: 4000,
                dead_bytes: 96,
                compactions: 1,
                replica_reads: 3,
                replica_writes: 5,
                reprofile_on_ring_change: 0,
                migrating: false,
            }],
        };
        let back: ClusterStatusResponse =
            serde_json::from_str(&serde_json::to_string(&status).unwrap()).unwrap();
        assert_eq!(back.ring, status.ring);
        assert_eq!(back.shards.len(), 1);
        assert_eq!(back.shards[0].dead_bytes, 96);
        assert!(back.shards[0].alive);

        let migrate = ClusterMigrateRequest {
            to_ring: Some(vec!["a:1".to_string(), "c:3".to_string()]),
            replicas: Some(2),
            records: None,
        };
        let back: ClusterMigrateRequest =
            serde_json::from_str(&serde_json::to_string(&migrate).unwrap()).unwrap();
        assert_eq!(back.to_ring.as_ref().map(Vec::len), Some(2));
        assert!(back.records.is_none());

        let resp = ClusterMigrateResponse {
            shards: vec![ShardMigrate {
                addr: "a:1".to_string(),
                moved_keys: 4,
                moved_bytes: 1024,
                ingested: 0,
                targets: vec![MigrateTarget {
                    addr: "c:3".to_string(),
                    keys: 4,
                }],
            }],
        };
        let back: ClusterMigrateResponse =
            serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert_eq!(back.shards[0].moved_keys, 4);
        assert_eq!(back.shards[0].targets[0].addr, "c:3");

        let compact = ClusterCompactRequest {
            min_dead_ratio: Some(0.0),
            include_active: Some(false),
        };
        let back: ClusterCompactRequest =
            serde_json::from_str(&serde_json::to_string(&compact).unwrap()).unwrap();
        assert_eq!(back.min_dead_ratio, Some(0.0));
        assert_eq!(back.include_active, Some(false));
    }

    #[test]
    fn error_response_maps_status_code_and_body() {
        let resp = error_response(&ProphetError::Overloaded);
        assert_eq!(resp.status, 429);
        let body: ErrorBody = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(body.code, "overloaded");
        assert!(resp
            .extra_headers
            .iter()
            .any(|(k, v)| *k == "retry-after" && v == "1"));

        let resp = error_response(&ProphetError::Unprocessable("bad schedule".to_string()));
        assert_eq!(resp.status, 422);
        let body: ErrorBody = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(body.code, "unprocessable");
        assert!(resp.extra_headers.is_empty());
    }
}
