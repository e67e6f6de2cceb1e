//! Integration tests for `prophet-serve`: the batching invariants are
//! exercised in-process, the daemon end-to-end over loopback.
//!
//! The invariant everything hangs on: a response body is a pure function
//! of the request spec — identical cold, batched with strangers, or
//! served from the result cache, and identical to `prophet sweep` run
//! with the same grid.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use prophet_core::machsim::{Paradigm, Schedule};
use prophet_core::Prophet;
use serve::http::client_request;
use serve::router::{Router, RouterConfig};
use serve::{evaluate_requests, NormalizedRequest, Resolver, ServeConfig, Server, ServerHandle};
use sweep::{GridSpec, Overrides, PredictorSpec, SweepEngine, WorkloadSpec};

/// Test resolver: `t1-<seed>` → `WorkloadSpec::test1(seed)`, comma-lists
/// allowed, anything else is an error.
fn test_resolver() -> Resolver {
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

fn fresh_engine() -> SweepEngine {
    SweepEngine::new(Prophet::new()).with_jobs(1)
}

fn parse(body: &str) -> NormalizedRequest {
    NormalizedRequest::parse(body, &test_resolver())
        .expect("request parses")
        .0
}

fn start_server(cfg: ServeConfig) -> ServerHandle {
    Server::start(cfg, test_resolver()).expect("server binds")
}

fn loopback_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        engine_jobs: 1,
        ..ServeConfig::default()
    }
}

const BODY_A: &str = r#"{"workload":"t1-1","threads":[2,4],"predictors":["syn+mm"]}"#;
const BODY_B: &str = r#"{"workload":"t1-2,t1-1","threads":[2],"predictors":["real","syn+mm"]}"#;

/// (a) in-process: a request evaluated inside a mixed batch produces the
/// same bytes as the same request evaluated alone on a fresh engine, and
/// the same bytes as a direct `SweepEngine::run` of the equivalent grid
/// (what `prophet sweep` serialises).
#[test]
fn batched_response_matches_solo_and_cli_sweep() {
    let req_a = parse(BODY_A);
    let req_b = parse(BODY_B);

    // One engine, both requests in one batch (shared profile cache).
    let batched = evaluate_requests(&fresh_engine(), &[req_a.clone(), req_b.clone()]);
    assert_eq!(batched.len(), 2);

    // Each request alone on a cold engine.
    let solo_a = evaluate_requests(&fresh_engine(), &[req_a]);
    let solo_b = evaluate_requests(&fresh_engine(), &[req_b]);
    assert_eq!(batched[0], solo_a[0], "batching changed request A's bytes");
    assert_eq!(batched[1], solo_b[0], "batching changed request B's bytes");

    // And against the CLI path: prophet sweep pretty-prints the
    // SweepResult of the equivalent grid on a fresh engine.
    let grid = GridSpec {
        workloads: vec![WorkloadSpec::test1(1)],
        threads: vec![2, 4],
        schedules: vec![Schedule::static_block()],
        paradigms: vec![Paradigm::OpenMp],
        predictors: vec![PredictorSpec::syn(true)],
        overrides: Overrides::default(),
    };
    let cli = serde_json::to_string_pretty(&fresh_engine().run(&grid)).unwrap();
    assert_eq!(batched[0], cli, "served bytes differ from `prophet sweep`");
}

/// (b) loopback: cold, batched, and cached responses are byte-identical;
/// the cache advertises itself; /v1/healthz and /v1/metrics work.
#[test]
fn loopback_cold_then_cached_is_byte_identical() {
    let handle = start_server(loopback_config());
    let addr = handle.local_addr().to_string();

    let (s1, h1, cold) = client_request(&addr, "POST", "/v1/predict", Some(BODY_A)).unwrap();
    assert_eq!(s1, 200, "cold request failed: {cold}");
    assert_eq!(header(&h1, "x-cache"), Some("miss"));

    let (s2, h2, cached) = client_request(&addr, "POST", "/v1/predict", Some(BODY_A)).unwrap();
    assert_eq!(s2, 200);
    assert_eq!(header(&h2, "x-cache"), Some("hit"));
    assert_eq!(cold, cached, "cache changed the response bytes");

    // The daemon's bytes equal an in-process cold evaluation.
    let solo = evaluate_requests(&fresh_engine(), &[parse(BODY_A)]);
    assert_eq!(cold, solo[0], "daemon bytes differ from direct evaluation");

    // Health and metrics endpoints.
    let (hs, _, health) = client_request(&addr, "GET", "/v1/healthz", None).unwrap();
    assert_eq!(hs, 200);
    assert!(health.contains("ok"), "unexpected healthz body: {health}");

    let (ms, _, metrics) = client_request(&addr, "GET", "/v1/metrics", None).unwrap();
    assert_eq!(ms, 200);
    let v: serde::Value = serde_json::from_str(&metrics).expect("metrics JSON parses");
    let hits = v
        .get("counters")
        .and_then(|c| c.get("serve.result_cache_hits"))
        .and_then(serde::Value::as_f64)
        .expect("result_cache_hits counter present");
    assert!(hits >= 1.0, "expected a recorded cache hit, got {hits}");

    let (ps, _, prom) = client_request(&addr, "GET", "/v1/metrics?format=prom", None).unwrap();
    assert_eq!(ps, 200);
    assert!(prom.contains("# TYPE"), "not Prometheus text: {prom}");

    let (nf, _, _) = client_request(&addr, "GET", "/nope", None).unwrap();
    assert_eq!(nf, 404);
    let (mna, _, _) = client_request(&addr, "GET", "/v1/predict", None).unwrap();
    assert_eq!(mna, 405);
    let (bad, _, _) =
        client_request(&addr, "POST", "/v1/predict", Some("{\"workload\":42")).unwrap();
    assert_eq!(bad, 400);

    handle.shutdown();
}

/// (b2) only `/v1/...` is served: unversioned paths answer 404 with no
/// `Deprecation` header, on the daemon and through the router; and the
/// 400-vs-422 error split matches the stable `ProphetError` codes.
#[test]
fn unversioned_paths_are_404_on_daemon_and_router() {
    let handle = start_server(loopback_config());
    let addr = handle.local_addr().to_string();
    let router = Router::start(
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: vec![addr.clone()],
            replicas: 1,
        },
        test_resolver(),
    )
    .expect("router starts");
    let router_addr = router.local_addr().to_string();

    for target in [&addr, &router_addr] {
        for (method, path, body) in [
            ("POST", "/predict", Some(BODY_A)),
            ("GET", "/healthz", None),
            ("GET", "/metrics", None),
        ] {
            let (status, headers, _) = client_request(target, method, path, body).unwrap();
            assert_eq!(status, 404, "{method} {path} via {target}");
            assert!(header(&headers, "deprecation").is_none());
            let (status, _, _) =
                client_request(target, method, &format!("/v1{path}"), body).unwrap();
            assert_eq!(status, 200, "{method} /v1{path} via {target}");
        }
    }
    router.shutdown();

    // Malformed JSON is the client's 400 (invalid_request)...
    let (status, _, body) =
        client_request(&addr, "POST", "/v1/predict", Some("{\"workload\":42")).unwrap();
    assert_eq!(status, 400);
    let err: serve::api::ErrorBody = serde_json::from_str(&body).unwrap();
    assert_eq!(err.code, "invalid_request");

    // ...while well-formed JSON naming an unknown workload is a 422.
    let (status, _, body) =
        client_request(&addr, "POST", "/v1/predict", Some(r#"{"workload":"nope"}"#)).unwrap();
    assert_eq!(status, 422);
    let err: serve::api::ErrorBody = serde_json::from_str(&body).unwrap();
    assert_eq!(err.code, "unprocessable");

    handle.shutdown();
}

/// (c) queue overflow sheds with 429 instead of hanging, and drain fails
/// queued-but-unserved work with 503.
#[test]
fn queue_overflow_sheds_and_drain_fails_closed() {
    let cfg = ServeConfig {
        workers: 0, // nothing drains the queue: requests park until shutdown
        queue_cap: 2,
        result_cache_cap: 0,
        ..loopback_config()
    };
    let handle = start_server(cfg);
    let addr = handle.local_addr().to_string();

    // Two distinct requests fill the queue...
    let parked: Vec<_> = [BODY_A, BODY_B]
        .into_iter()
        .map(|body| {
            let addr = addr.clone();
            std::thread::spawn(move || client_request(&addr, "POST", "/v1/predict", Some(body)))
        })
        .collect();
    wait_for(
        || handle.metrics().queue_depth.load(Ordering::Relaxed) == 2,
        "queue to fill",
    );

    // ...so the third is shed immediately rather than hung.
    let third = r#"{"workload":"t1-3","threads":[2],"predictors":["syn+mm"]}"#;
    let (status, _, body) = client_request(&addr, "POST", "/v1/predict", Some(third)).unwrap();
    assert_eq!(status, 429, "expected shed, got {status}: {body}");
    assert_eq!(handle.metrics().shed_total.load(Ordering::Relaxed), 1);

    // Drain: with no workers the queued pair fails closed with 503.
    handle.shutdown();
    for t in parked {
        let (status, _, _) = t.join().unwrap().unwrap();
        assert_eq!(status, 503, "parked request should fail closed on drain");
    }
}

/// (d) graceful shutdown completes admitted in-flight work with 200.
#[test]
fn graceful_shutdown_completes_inflight_requests() {
    let handle = start_server(loopback_config());
    let addr = handle.local_addr().to_string();

    // Warm-up proves the pipeline works end to end.
    let (s, _, _) = client_request(&addr, "POST", "/v1/predict", Some(BODY_A)).unwrap();
    assert_eq!(s, 200);

    // Admit a fresh (uncached) request, then shut down while it is in
    // flight: drain must answer it 200, not drop it.
    let inflight = {
        let addr = addr.clone();
        std::thread::spawn(move || client_request(&addr, "POST", "/v1/predict", Some(BODY_B)))
    };
    wait_for(
        || handle.metrics().requests_total.load(Ordering::Relaxed) >= 2,
        "in-flight request admission",
    );
    std::thread::sleep(Duration::from_millis(50));
    handle.shutdown();

    let (status, _, body) = inflight.join().unwrap().unwrap();
    assert_eq!(status, 200, "in-flight request dropped on shutdown: {body}");
    let solo = evaluate_requests(&fresh_engine(), &[parse(BODY_B)]);
    assert_eq!(body, solo[0], "drained response bytes drifted");
}

/// (e) observability: `/v1/metrics` carries the latency histograms and
/// SLO accounting in both formats, every response carries trace and
/// request-id headers, the flight recorder serves Chrome-trace JSON,
/// and the JSONL access log records one line per request.
#[test]
fn slo_metrics_debug_traces_and_access_log() {
    let log_path =
        std::env::temp_dir().join(format!("prophet-access-test-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let cfg = ServeConfig {
        slo_ms: 5_000,
        access_log: Some(log_path.to_string_lossy().to_string()),
        ..loopback_config()
    };
    let handle = start_server(cfg);
    let addr = handle.local_addr().to_string();

    let (s1, h1, _) = client_request(&addr, "POST", "/v1/predict", Some(BODY_A)).unwrap();
    assert_eq!(s1, 200);
    let trace_hex = header(&h1, "x-prophet-trace")
        .expect("responses carry the trace id")
        .to_string();
    assert_eq!(
        header(&h1, "x-request-id"),
        Some(trace_hex.as_str()),
        "request id defaults to the trace id"
    );
    let (s2, _, _) = client_request(&addr, "POST", "/v1/predict", Some(BODY_A)).unwrap();
    assert_eq!(s2, 200);

    // JSON metrics: SLO counters/gauges and the wall histograms.
    let (ms, _, metrics) = client_request(&addr, "GET", "/v1/metrics", None).unwrap();
    assert_eq!(ms, 200);
    let v: serde::Value = serde_json::from_str(&metrics).expect("metrics JSON parses");
    let counter = |name: &str| {
        v.get("counters")
            .and_then(|c| c.get(name))
            .and_then(serde::Value::as_f64)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    assert!(counter("serve.slo_good_total") >= 2.0);
    assert_eq!(counter("serve.slo_bad_total"), 0.0);
    let gauge = |name: &str| {
        v.get("gauges")
            .and_then(|g| g.get(name))
            .and_then(serde::Value::as_f64)
            .unwrap_or_else(|| panic!("missing gauge {name}"))
    };
    assert_eq!(gauge("serve.slo_target_ms"), 5_000.0);
    assert_eq!(gauge("serve.slo_error_budget_burn"), 0.0);
    let hist_count = |name: &str| {
        v.get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("count"))
            .and_then(serde::Value::as_f64)
            .unwrap_or_else(|| panic!("missing histogram {name}"))
    };
    assert!(hist_count("serve.request_nanos") >= 2.0);
    assert!(hist_count("serve.stage.parse_nanos") >= 2.0);
    assert!(hist_count("serve.stage.predict_nanos") >= 1.0);

    // Prometheus text: same series, exposition names.
    let (ps, _, prom) = client_request(&addr, "GET", "/v1/metrics?format=prom", None).unwrap();
    assert_eq!(ps, 200);
    for series in [
        "serve_request_nanos_bucket",
        "serve_request_nanos_count",
        "serve_stage_predict_nanos_bucket",
        "serve_slo_good_total",
    ] {
        assert!(prom.contains(series), "prometheus text missing {series}");
    }

    // Flight recorder: the list endpoint knows the trace, and the trace
    // endpoint replays it as Chrome-trace JSON. The trace is recorded
    // just after the response is written, so poll briefly.
    wait_for(
        || {
            matches!(
                client_request(&addr, "GET", &format!("/v1/debug/trace/{trace_hex}"), None),
                Ok((200, _, _))
            )
        },
        "trace to land in the flight recorder",
    );
    let (ls, _, list) = client_request(&addr, "GET", "/v1/debug/traces", None).unwrap();
    assert_eq!(ls, 200);
    let lv: serde::Value = serde_json::from_str(&list).expect("trace list parses");
    assert!(
        lv.get("count")
            .and_then(serde::Value::as_f64)
            .unwrap_or(0.0)
            >= 2.0,
        "flight recorder should hold both requests: {list}"
    );
    let (ts, _, chrome) =
        client_request(&addr, "GET", &format!("/v1/debug/trace/{trace_hex}"), None).unwrap();
    assert_eq!(ts, 200);
    let tv: serde::Value = serde_json::from_str(&chrome).expect("chrome trace parses");
    assert_eq!(
        tv.get("otherData").and_then(|o| o.get("trace")),
        Some(&serde::Value::Str(trace_hex.clone())),
        "debug endpoint must return the requested trace"
    );
    let (bad, _, _) = client_request(&addr, "GET", "/v1/debug/trace/zzz", None).unwrap();
    assert_eq!(bad, 400, "malformed trace ids are a client error");

    // Access log: one JSON line per finished request, trace id and
    // stage breakdown included.
    wait_for(
        || {
            std::fs::read_to_string(&log_path)
                .map(|s| s.lines().count() >= 2)
                .unwrap_or(false)
        },
        "access log lines",
    );
    let log = std::fs::read_to_string(&log_path).expect("access log readable");
    let mut saw_trace = false;
    for line in log.lines() {
        let lv: serde::Value = serde_json::from_str(line).expect("access-log line parses");
        for field in ["ts_unix_nanos", "trace", "total_nanos", "status", "stages"] {
            assert!(lv.get(field).is_some(), "access-log line missing {field}");
        }
        if lv.get("trace") == Some(&serde::Value::Str(trace_hex.clone())) {
            saw_trace = true;
        }
    }
    assert!(saw_trace, "access log must contain the traced request");

    handle.shutdown();
    let _ = std::fs::remove_file(&log_path);
}

/// (f) keep-alive + pipelining: two requests written back-to-back on one
/// socket are both answered in order, byte-identical to a fresh
/// `Connection: close` fetch, and the connection survives for a third
/// request that then closes it explicitly.
#[test]
fn pipelined_keepalive_responses_are_byte_identical() {
    let handle = start_server(loopback_config());
    let addr = handle.local_addr().to_string();

    // Reference bytes over the one-shot close-mode client.
    let (s, _, reference) = client_request(&addr, "POST", "/v1/predict", Some(BODY_A)).unwrap();
    assert_eq!(s, 200);

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let req = format!(
        "POST /v1/predict HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
        BODY_A.len(),
        BODY_A
    );
    // Two pipelined requests in a single write.
    stream.write_all(format!("{req}{req}").as_bytes()).unwrap();
    let mut buf = Vec::new();
    for i in 0..2 {
        let (status, headers, body) = read_raw_response(&mut stream, &mut buf);
        assert_eq!(status, 200, "pipelined request {i} failed");
        assert_eq!(
            header(&headers, "connection"),
            Some("keep-alive"),
            "pipelined responses must keep the connection open"
        );
        assert_eq!(body, reference, "pipelined response {i} bytes drifted");
    }

    // Third request on the same socket asks to close; the server obeys.
    stream
        .write_all(
            format!(
                "POST /v1/predict HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{}",
                BODY_A.len(),
                BODY_A
            )
            .as_bytes(),
        )
        .unwrap();
    let (status, headers, body) = read_raw_response(&mut stream, &mut buf);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "connection"), Some("close"));
    assert_eq!(body, reference);
    let mut probe = [0u8; 16];
    assert_eq!(
        stream.read(&mut probe).unwrap(),
        0,
        "server must close after connection: close"
    );

    assert!(
        handle
            .metrics()
            .conns
            .keepalive_reuses_total
            .load(Ordering::Relaxed)
            >= 2,
        "three requests on one socket are two keep-alive reuses"
    );
    handle.shutdown();
}

/// (g) a request trickling in over many tiny writes parses exactly like
/// one arriving whole: the non-blocking reader accumulates fragments
/// across readiness events without corrupting the framing.
#[test]
fn fragmented_request_reads_assemble_correctly() {
    let handle = start_server(loopback_config());
    let addr = handle.local_addr().to_string();
    let (s, _, reference) = client_request(&addr, "POST", "/v1/predict", Some(BODY_A)).unwrap();
    assert_eq!(s, 200);

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    let req = format!(
        "POST /v1/predict HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
        BODY_A.len(),
        BODY_A
    );
    for chunk in req.as_bytes().chunks(7) {
        stream.write_all(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut buf = Vec::new();
    let (status, _, body) = read_raw_response(&mut stream, &mut buf);
    assert_eq!(status, 200);
    assert_eq!(body, reference, "fragmented request changed the bytes");
    handle.shutdown();
}

/// (h) slow-loris hardening: an oversized request head is rejected with
/// 413 and the connection closed; a header that never completes gets a
/// 408 from the header timer; an idle keep-alive connection is reaped by
/// the idle timer.
#[test]
fn oversized_slow_and_idle_connections_are_hardened() {
    let cfg = ServeConfig {
        idle_timeout_ms: 200,
        header_timeout_ms: 200,
        ..loopback_config()
    };
    let handle = start_server(cfg);
    let addr = handle.local_addr().to_string();

    // Oversized head: one giant header line blows MAX_HEAD_BYTES.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let huge = format!(
        "GET / HTTP/1.1\r\nx-junk: {}\r\n\r\n",
        "j".repeat(serve::http::MAX_HEAD_BYTES + 1)
    );
    // The server may reset mid-write once it responds; that still
    // proves rejection, so ignore write errors.
    let _ = stream.write_all(huge.as_bytes());
    let mut buf = Vec::new();
    let (status, _, _) = read_raw_response(&mut stream, &mut buf);
    assert_eq!(status, 413, "oversized head must be rejected");

    // Header timeout: a head that stalls forever earns a 408.
    let mut slow = TcpStream::connect(&addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    slow.write_all(b"GET /v1/healthz HT").unwrap();
    let mut buf = Vec::new();
    let (status, _, _) = read_raw_response(&mut slow, &mut buf);
    assert_eq!(status, 408, "stalled header must time out");

    // Idle timeout: a keep-alive connection left idle is closed.
    let mut idle = TcpStream::connect(&addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    idle.write_all(b"GET /v1/healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    let (status, _, _) = read_raw_response(&mut idle, &mut buf);
    assert_eq!(status, 200);
    let mut probe = [0u8; 16];
    assert_eq!(
        idle.read(&mut probe).unwrap(),
        0,
        "idle keep-alive connection must be reaped"
    );
    assert!(
        handle
            .metrics()
            .conns
            .idle_timeouts_total
            .load(Ordering::Relaxed)
            >= 1
    );
    assert!(
        handle
            .metrics()
            .conns
            .header_timeouts_total
            .load(Ordering::Relaxed)
            >= 1
    );
    handle.shutdown();
}

/// (h2) the connection cap sheds surplus accepts with 503 + Retry-After
/// while the connection already in place keeps working.
#[test]
fn connection_cap_sheds_with_503() {
    let cfg = ServeConfig {
        max_connections: 1,
        ..loopback_config()
    };
    let handle = start_server(cfg);
    let addr = handle.local_addr().to_string();

    // Occupy the single slot with a keep-alive connection.
    let mut held = TcpStream::connect(&addr).unwrap();
    held.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    held.write_all(b"GET /v1/healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut held_buf = Vec::new();
    let (status, _, _) = read_raw_response(&mut held, &mut held_buf);
    assert_eq!(status, 200);

    // The next accept is over the cap: 503 + Retry-After, then close.
    let mut surplus = TcpStream::connect(&addr).unwrap();
    surplus
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = Vec::new();
    let (status, headers, _) = read_raw_response(&mut surplus, &mut buf);
    assert_eq!(status, 503, "over-cap accept must shed");
    assert_eq!(header(&headers, "retry-after"), Some("1"));

    // The held connection still serves.
    held.write_all(b"GET /v1/healthz HTTP/1.1\r\n\r\n").unwrap();
    let (status, _, _) = read_raw_response(&mut held, &mut held_buf);
    assert_eq!(status, 200, "held connection must survive the shed");
    handle.shutdown();
}

/// (i) SIGTERM-style drain: an idle keep-alive connection is closed
/// cleanly (EOF, no stray bytes), while a request in flight on another
/// connection still completes with 200.
#[test]
fn drain_closes_idle_keepalive_and_finishes_inflight() {
    let handle = start_server(loopback_config());
    let addr = handle.local_addr().to_string();

    // An idle keep-alive connection (one request served, then parked).
    let mut idle = TcpStream::connect(&addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    idle.write_all(b"GET /v1/healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    let (status, headers, _) = read_raw_response(&mut idle, &mut buf);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "connection"), Some("keep-alive"));

    // A fresh prediction in flight during the drain.
    let inflight = {
        let addr = addr.clone();
        std::thread::spawn(move || client_request(&addr, "POST", "/v1/predict", Some(BODY_B)))
    };
    wait_for(
        || handle.metrics().requests_total.load(Ordering::Relaxed) >= 1,
        "in-flight request admission",
    );

    // What the CLI does on SIGTERM.
    handle.shutdown();

    let (status, _, body) = inflight.join().unwrap().unwrap();
    assert_eq!(status, 200, "in-flight request dropped by drain: {body}");
    assert!(buf.is_empty(), "no pipelined leftovers expected");
    let mut probe = [0u8; 16];
    assert_eq!(
        idle.read(&mut probe).unwrap(),
        0,
        "drain must close the idle keep-alive connection cleanly"
    );
}

/// (j) the load generator's keep-alive mode reuses connections and sees
/// the same bytes as close mode.
#[test]
fn loadgen_keepalive_reuses_connections() {
    let handle = start_server(loopback_config());
    let addr = handle.local_addr().to_string();
    let opts = serve::loadgen::LoadgenOptions {
        addr,
        requests: 12,
        concurrency: 2,
        bodies: vec![BODY_A.to_string(), BODY_B.to_string()],
        expect_cache_hits: true,
        keep_alive: true,
        ..serve::loadgen::LoadgenOptions::default()
    };
    let report = serve::loadgen::run(&opts);
    assert!(
        report.success(&opts),
        "loadgen failed: {}",
        report.summary()
    );
    assert!(
        report.connection_reuses >= 8,
        "12 requests over 2 threads should mostly reuse: {}",
        report.summary()
    );
    assert!(
        report.connections_opened <= 4,
        "keep-alive mode dialed too much: {}",
        report.summary()
    );
    handle.shutdown();
}

/// (j2) an answer the loop thread sends itself writes no wake-pipe
/// byte: 100 keep-alive result-cache hits record no wake-up. The cold
/// request before them, answered by a batch worker, records one.
#[test]
fn inline_cache_hits_skip_the_wake_pipe() {
    let handle = start_server(loopback_config());
    let addr = handle.local_addr().to_string();
    let mut conn = serve::http::ClientConn::connect(&addr).unwrap();
    let wakes = || {
        handle
            .metrics()
            .conns
            .wake_notifies_total
            .load(Ordering::Relaxed)
    };
    let (status, _, reference) = conn
        .request("POST", "/v1/predict", Some(BODY_A), &[])
        .unwrap();
    assert_eq!(status, 200);
    let after_cold = wakes();
    assert!(after_cold >= 1, "the worker's answer wakes the loop");
    for i in 0..100 {
        let (status, headers, body) = conn
            .request("POST", "/v1/predict", Some(BODY_A), &[])
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "x-cache"), Some("hit"), "request {i}");
        assert_eq!(body, reference);
    }
    assert_eq!(
        wakes(),
        after_cold,
        "inline answers must not write the wake pipe"
    );
    handle.shutdown();
}

/// (k) the `/v1/jobs` batch path: submit → poll → result round-trips a
/// what-if job; resubmission is idempotent; and the result bytes equal
/// the library's own analysis — the same pin `prophet whatif --json`
/// rides, so daemon and CLI answers are interchangeable.
#[test]
fn job_round_trip_is_idempotent_and_byte_stable() {
    let handle = start_server(loopback_config());
    let addr = handle.local_addr().to_string();
    let body = r#"{"workload":"t1-5","threads":[2,4],"target_speedup":2.0}"#;

    let (s, _, submit) = client_request(&addr, "POST", "/v1/jobs", Some(body)).unwrap();
    assert!(s == 202 || s == 200, "submit failed: {s} {submit}");
    let id = json_str(&submit, "id");
    assert!(!id.is_empty() && id.len() <= 32, "odd job id: {id}");

    // Idempotent resubmit: recognised (200), same id.
    let (s2, _, re) = client_request(&addr, "POST", "/v1/jobs", Some(body)).unwrap();
    assert_eq!(s2, 200, "resubmit should be recognised: {re}");
    assert_eq!(json_str(&re, "id"), id);

    // Poll the status endpoint until the worker finishes.
    let status_path = format!("/v1/jobs/{id}");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (ps, _, st) = client_request(&addr, "GET", &status_path, None).unwrap();
        assert_eq!(ps, 200, "status poll failed: {st}");
        let status = json_str(&st, "status");
        if status == "done" {
            break;
        }
        assert!(
            status == "queued" || status == "running",
            "job did not succeed: {st}"
        );
        assert!(Instant::now() < deadline, "job never finished");
        std::thread::sleep(Duration::from_millis(5));
    }

    let (rs, rh, result) =
        client_request(&addr, "GET", &format!("/v1/jobs/{id}/result"), None).unwrap();
    assert_eq!(rs, 200, "result fetch failed: {result}");
    assert_eq!(header(&rh, "x-cache"), Some("hit"));

    // Byte-stability against the library path: same profiling engine,
    // same emulation environment, same grid defaults as the job worker.
    let wl = WorkloadSpec::test1(5);
    let engine = fresh_engine();
    let profiled = engine.profiled(&wl);
    let env = whatif::EmuEnv::for_machine(engine.prophet().machine());
    let spec = whatif::WhatifSpec {
        threads: vec![2, 4],
        target_speedup: Some(2.0),
        ..whatif::WhatifSpec::default()
    };
    let (report, _) = whatif::analyze(&wl.key, &profiled.tree, &spec, &env, 1);
    assert_eq!(
        result,
        serde_json::to_string_pretty(&report).unwrap(),
        "daemon job result differs from the library analysis"
    );

    // Counters reached the server metrics and the /v1/metrics export.
    let m = handle.metrics();
    assert_eq!(m.jobs_submitted.load(Ordering::Relaxed), 2);
    assert_eq!(m.jobs_completed.load(Ordering::Relaxed), 1);
    assert!(m.whatif_emulations_run.load(Ordering::Relaxed) > 0);
    let (ms, _, metrics) = client_request(&addr, "GET", "/v1/metrics", None).unwrap();
    assert_eq!(ms, 200);
    assert!(
        metrics.contains("whatif.emulations_run"),
        "whatif counters missing from /v1/metrics: {metrics}"
    );

    // Unknown ids 404; a workload the resolver rejects is semantic (422).
    let (nf, _, _) = client_request(&addr, "GET", "/v1/jobs/00000000deadbeef", None).unwrap();
    assert_eq!(nf, 404);
    let (bs, _, berr) =
        client_request(&addr, "POST", "/v1/jobs", Some(r#"{"workload":"nope"}"#)).unwrap();
    assert_eq!(bs, 422, "unknown workload should be semantic: {berr}");
    handle.shutdown();
}

/// (l) the load generator's what-if request class drives the batch-job
/// path end to end (submit → poll → result) and byte-checks the result
/// bodies like any other class.
#[test]
fn loadgen_whatif_mix_round_trips() {
    let handle = start_server(loopback_config());
    let addr = handle.local_addr().to_string();
    let opts = serve::loadgen::LoadgenOptions {
        addr,
        requests: 8,
        concurrency: 2,
        bodies: vec![BODY_A.to_string()],
        whatif_bodies: vec![r#"{"workload":"t1-7","threads":[2,4]}"#.to_string()],
        ..serve::loadgen::LoadgenOptions::default()
    };
    let report = serve::loadgen::run(&opts);
    assert!(
        report.success(&opts),
        "loadgen whatif mix failed: {}",
        report.summary()
    );
    assert_eq!(report.classes.len(), 2);
    assert_eq!(report.classes[0].kind, "predict");
    assert_eq!(report.classes[1].kind, "whatif");
    assert!(report.classes[1].ok >= 1, "{}", report.summary());
    assert!(handle.metrics().jobs_completed.load(Ordering::Relaxed) >= 1);
    handle.shutdown();
}

/// Pull a string field out of a JSON body.
fn json_str(body: &str, key: &str) -> String {
    let v = serde_json::from_str::<serde::Value>(body).expect("JSON body");
    match v.get(key) {
        Some(serde::Value::Str(s)) => s.clone(),
        other => panic!("missing string field {key:?} ({other:?}) in {body}"),
    }
}

/// Read one HTTP/1.1 response from a raw socket, leaving any pipelined
/// successor bytes in `buf`. Framing is by `content-length`, which every
/// server response carries.
fn read_raw_response(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
) -> (u16, Vec<(String, String)>, String) {
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "connection closed before a full response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end - 4].to_vec()).expect("response head is UTF-8");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {status_line}"));
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(": "))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.to_string()))
        .collect();
    let len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .expect("response carries content-length");
    while buf.len() < head_end + len {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(buf[head_end..head_end + len].to_vec()).expect("body is UTF-8");
    buf.drain(..head_end + len);
    (status, headers, body)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}
