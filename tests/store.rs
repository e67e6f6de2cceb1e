//! Integration tests for the persistent profile store: read-through /
//! write-behind via the sweep engine, WAL corruption tolerance,
//! calibration fencing, and a full daemon warm-restart over loopback.
//!
//! The contract under test: a store-warm restart produces **byte
//! identical** output to the cold run while executing **zero** profiles
//! — persistence changes cost, never bytes.

use std::sync::Arc;

use prophet_core::Prophet;
use store::{KeyedStore, ProfileStore};
use sweep::{GridSpec, Overrides, PredictorSpec, SweepEngine, WorkloadSpec};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("prophet-store-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_cal() -> prophet_core::memmodel::MemCalibration {
    prophet_core::memmodel::calibrate(
        prophet_core::machsim::MachineConfig::westmere_scaled(),
        &prophet_core::memmodel::CalibrationOptions {
            thread_counts: vec![2, 8],
            intensity_steps: 4,
            packet_cycles: 100_000,
        },
    )
}

fn other_cal() -> prophet_core::memmodel::MemCalibration {
    prophet_core::memmodel::calibrate(
        prophet_core::machsim::MachineConfig::westmere_scaled(),
        &prophet_core::memmodel::CalibrationOptions {
            thread_counts: vec![2],
            intensity_steps: 3,
            packet_cycles: 80_000,
        },
    )
}

fn grid() -> GridSpec {
    GridSpec {
        workloads: vec![WorkloadSpec::test1(11), WorkloadSpec::test1(12)],
        threads: vec![2, 4],
        schedules: vec![prophet_core::machsim::Schedule::static_block()],
        paradigms: vec![prophet_core::machsim::Paradigm::OpenMp],
        predictors: vec![PredictorSpec::syn(true)],
        overrides: Overrides::default(),
    }
}

/// An engine whose profile cache reads through / writes behind `dir`.
fn engine_on(dir: &std::path::Path, cal: prophet_core::memmodel::MemCalibration) -> SweepEngine {
    let store = Arc::new(ProfileStore::builder(dir).open().expect("store opens"));
    let prophet = Prophet::builder().calibration(cal).build();
    let keyed = KeyedStore::new(store, &prophet);
    SweepEngine::new(prophet)
        .with_jobs(1)
        .with_profile_store(Arc::new(keyed))
}

/// Cold run writes every profile; a fresh process (fresh engine, fresh
/// store handle, same directory) replays them all from disk — zero
/// profiles run, byte-identical sweep JSON.
#[test]
fn store_warm_restart_is_byte_identical_with_zero_profiles() {
    let dir = tmpdir("restart");

    let cold_engine = engine_on(&dir, quick_cal());
    let cold = serde_json::to_string_pretty(&cold_engine.run(&grid())).unwrap();
    let cold_stats = cold_engine.cache().stats();
    assert_eq!(cold_stats.store_hits, 0, "cold run cannot hit the store");
    assert_eq!(cold_stats.store_writes, 2, "both profiles written behind");
    assert_eq!(cold_stats.profiles(), 2, "cold run profiles every workload");
    drop(cold_engine);

    let warm_engine = engine_on(&dir, quick_cal());
    let warm = serde_json::to_string_pretty(&warm_engine.run(&grid())).unwrap();
    let warm_stats = warm_engine.cache().stats();
    assert_eq!(warm, cold, "store-warm restart changed the sweep bytes");
    assert_eq!(warm_stats.store_hits, 2, "restart must read from the store");
    assert_eq!(warm_stats.profiles(), 0, "restart must not re-profile");
    assert_eq!(warm_stats.store_writes, 0, "nothing new to write");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A `profiles.v1.log` (the retired JSON-payload `PSR1` format) left in
/// a store directory is ignored: the store opens, the file stays
/// byte-identical, and a sweep re-profiles the keys it holds — with the
/// same output bytes as the cold run that produced them.
#[test]
fn legacy_psr1_log_is_left_untouched_and_reprofiles() {
    let src_dir = tmpdir("psr1-src");
    let cold_engine = engine_on(&src_dir, quick_cal());
    let cold = serde_json::to_string_pretty(&cold_engine.run(&grid())).unwrap();
    drop(cold_engine);

    // Rebuild the cold run's records as a v1-era log in a fresh directory.
    let src = ProfileStore::builder(&src_dir)
        .open()
        .expect("source reopens");
    let report = store::inspect(&src_dir).expect("source inspects");
    assert_eq!(report.records.len(), 2);
    let mut v1_log = Vec::new();
    for rec in &report.records {
        let profiled = src.get(&rec.key).unwrap().expect("record present");
        let payload = serde_json::to_string(&profiled).unwrap().into_bytes();
        v1_log.extend_from_slice(b"PSR1");
        v1_log.extend_from_slice(&(rec.key.len() as u32).to_le_bytes());
        v1_log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v1_log.extend_from_slice(&store::crc32(&payload).to_le_bytes());
        v1_log.extend_from_slice(rec.key.as_bytes());
        v1_log.extend_from_slice(&payload);
    }
    let v1_dir = tmpdir("psr1-dst");
    std::fs::create_dir_all(&v1_dir).unwrap();
    let v1_path = v1_dir.join("profiles.v1.log");
    std::fs::write(&v1_path, &v1_log).unwrap();

    let engine = engine_on(&v1_dir, quick_cal());
    let out = serde_json::to_string_pretty(&engine.run(&grid())).unwrap();
    let stats = engine.cache().stats();
    assert_eq!(out, cold, "re-profiled sweep bytes drifted");
    assert_eq!(stats.store_hits, 0, "the v1 log must not be read");
    assert_eq!(stats.profiles(), 2, "its keys re-profile");
    drop(engine);
    assert_eq!(
        std::fs::read(&v1_path).unwrap(),
        v1_log,
        "the v1 log is left byte-identical"
    );

    let _ = std::fs::remove_dir_all(&src_dir);
    let _ = std::fs::remove_dir_all(&v1_dir);
}

/// A store written under one calibration is invisible to a prophet with
/// a different one: the fingerprint suffix fences it off, forcing a
/// re-profile instead of replaying stale assumptions.
#[test]
fn calibration_fingerprint_mismatch_forces_reprofile() {
    let dir = tmpdir("calfence");

    let writer = engine_on(&dir, quick_cal());
    writer.run(&grid());
    assert_eq!(writer.cache().stats().store_writes, 2);
    drop(writer);

    let reader = engine_on(&dir, other_cal());
    reader.run(&grid());
    let stats = reader.cache().stats();
    assert_eq!(
        stats.store_hits, 0,
        "a different calibration must never replay stored profiles"
    );
    assert_eq!(stats.profiles(), 2, "mismatched reader re-profiles");
    // Both generations now coexist in the log under different keys.
    let store = ProfileStore::builder(&dir).open().expect("store reopens");
    assert_eq!(store.len(), 4, "two profiles under each fingerprint");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Flipping a byte in the last record's payload is detected by CRC on
/// reopen: the record is dropped with a warning (not a panic), the next
/// run re-profiles the lost workload, and the output bytes match.
#[test]
fn corrupt_tail_record_is_skipped_and_recomputed() {
    let dir = tmpdir("corrupt");

    let cold_engine = engine_on(&dir, quick_cal());
    let cold = serde_json::to_string_pretty(&cold_engine.run(&grid())).unwrap();
    drop(cold_engine);

    // Flip one byte near the end of the log — inside the final record's
    // binary payload.
    let log = dir.join("profiles.v2.log");
    let mut bytes = std::fs::read(&log).expect("log readable");
    let at = bytes.len() - 8;
    bytes[at] ^= 0xff;
    std::fs::write(&log, &bytes).expect("log writable");

    let store = ProfileStore::builder(&dir)
        .open()
        .expect("corrupt store still opens");
    assert_eq!(store.len(), 1, "the corrupt tail record must be dropped");
    assert_eq!(store.stats().corrupt_skipped, 1);
    drop(store);

    let healed_engine = engine_on(&dir, quick_cal());
    let healed = serde_json::to_string_pretty(&healed_engine.run(&grid())).unwrap();
    let stats = healed_engine.cache().stats();
    assert_eq!(healed, cold, "corruption recovery changed the bytes");
    assert_eq!(stats.store_hits, 1, "the surviving record replays");
    assert_eq!(stats.profiles(), 1, "the lost record is recomputed");
    assert_eq!(stats.store_writes, 1, "and written back");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Daemon resolver: `t1-<seed>` → `WorkloadSpec::test1(seed)`,
/// comma-lists allowed.
fn t1_resolver() -> serve::Resolver {
    Arc::new(|list: &str| {
        list.split(',')
            .map(|tok| {
                tok.trim()
                    .strip_prefix("t1-")
                    .and_then(|s| s.parse::<u64>().ok())
                    .map(WorkloadSpec::test1)
                    .ok_or_else(|| format!("unknown workload '{tok}'"))
            })
            .collect()
    })
}

/// A one-worker daemon whose profile cache reads through / writes
/// behind the store in `dir`.
fn store_daemon(dir: &std::path::Path) -> serve::ServerHandle {
    let cfg = serve::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        engine_jobs: 1,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..serve::ServeConfig::default()
    };
    serve::Server::start(cfg, t1_resolver()).expect("daemon starts")
}

/// The acceptance path end to end: a daemon with `--store-dir`, warmed
/// over HTTP, is restarted on the same directory and serves the same
/// spec byte-identically with zero profiles run.
#[test]
fn daemon_store_warm_restart_serves_identical_bytes() {
    let dir = tmpdir("daemon");
    const BODY: &str = r#"{"workload":"t1-21,t1-22","threads":[2,4],"predictors":["syn+mm"]}"#;

    let cold_daemon = store_daemon(&dir);
    let addr = cold_daemon.local_addr().to_string();
    let (status, _, cold) =
        serve::http::client_request(&addr, "POST", "/v1/predict", Some(BODY)).unwrap();
    assert_eq!(status, 200, "cold predict failed: {cold}");
    let cold_stats = cold_daemon.profile_cache_stats();
    assert_eq!(cold_stats.profiles(), 2);
    assert_eq!(cold_stats.store_writes, 2);
    cold_daemon.shutdown();

    let warm_daemon = store_daemon(&dir);
    let addr = warm_daemon.local_addr().to_string();
    let (status, _, warm) =
        serve::http::client_request(&addr, "POST", "/v1/predict", Some(BODY)).unwrap();
    assert_eq!(status, 200, "warm predict failed: {warm}");
    assert_eq!(warm, cold, "daemon restart changed the response bytes");
    let warm_stats = warm_daemon.profile_cache_stats();
    assert_eq!(
        warm_stats.store_hits, 2,
        "restarted daemon must read the store"
    );
    assert_eq!(
        warm_stats.profiles(),
        0,
        "restarted daemon must not profile"
    );
    assert_eq!(
        warm_daemon.store().expect("store configured").stats().hits,
        2,
        "the store itself counts the replays"
    );
    warm_daemon.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

/// A cold request over eight workloads (the `test1:1..9` set) appends
/// eight profiles and fsyncs once, before the 200 goes out: the counters
/// read right after the reply already show the sync.
#[test]
fn daemon_syncs_once_per_answered_batch() {
    let dir = tmpdir("daemon-sync");
    let daemon = store_daemon(&dir);
    let addr = daemon.local_addr().to_string();
    let seeds: Vec<String> = (1..9).map(|s| format!("t1-{s}")).collect();
    let body = format!(
        r#"{{"workload":"{}","threads":[2],"predictors":["ff"]}}"#,
        seeds.join(",")
    );
    let (status, _, resp) =
        serve::http::client_request(&addr, "POST", "/v1/predict", Some(&body)).unwrap();
    assert_eq!(status, 200, "cold predict failed: {resp}");
    let s = daemon.store().expect("store configured").stats();
    assert_eq!((s.writes, s.syncs), (8, 1), "eight appends, one fsync");

    let (status, _, metrics) =
        serve::http::client_request(&addr, "GET", "/v1/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(metrics.contains(r#""store.writes": 8"#), "{metrics}");
    assert!(metrics.contains(r#""store.syncs": 1"#), "{metrics}");
    let (status, _, prom) =
        serve::http::client_request(&addr, "GET", "/v1/metrics?format=prom", None).unwrap();
    assert_eq!(status, 200);
    assert!(prom.contains("store_syncs"), "{prom}");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The what-if job worker syncs the profile it stored before the job
/// reads as done.
#[test]
fn daemon_job_syncs_its_profile_before_completing() {
    let dir = tmpdir("daemon-job-sync");
    let daemon = store_daemon(&dir);
    let addr = daemon.local_addr().to_string();
    let (status, _, submit) = serve::http::client_request(
        &addr,
        "POST",
        "/v1/jobs",
        Some(r#"{"workload":"t1-31","threads":[2,4]}"#),
    )
    .unwrap();
    assert!(status == 202 || status == 200, "submit failed: {submit}");
    let id = match serde_json::from_str::<serde::Value>(&submit)
        .expect("JSON body")
        .get("id")
    {
        Some(serde::Value::Str(id)) => id.clone(),
        other => panic!("no job id ({other:?}) in {submit}"),
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let (_, _, st) =
            serve::http::client_request(&addr, "GET", &format!("/v1/jobs/{id}"), None).unwrap();
        if st.contains(r#""done""#) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job never finished: {st}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let s = daemon.store().expect("store configured").stats();
    assert_eq!((s.writes, s.syncs), (1, 1), "the job's profile was synced");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
