//! `perfbench` — the repository's benchmark: four workloads driven from
//! one closed-loop load process against real `prophet serve` and
//! `prophet route` processes, reported end to end and layer by layer.
//!
//! ```text
//! perfbench --prophet <bin> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-digests
//! ```
//!
//! The last line of stdout is the result object. The line before it is
//! a diagnostics object: machine fingerprint, server flags, p99, the
//! individual set-up times, and the host noise seen during the window.
//! See `perfbench/README.md`.

mod client;
mod daemon;
mod mix;
mod replay;
mod scrape;
mod stats;

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use serde::Value;

use client::{drive, Conn, ConnReport, LoopPlan};
use daemon::{Server, CLK_TCK};
use mix::{Body, Mix, Workload};
use scrape::{Snapshot, Window};
use stats::{digest32, mean, median, percentile, percentile_of};

const DIGESTS: &str = "perfbench/digests.txt";
const RUN_ROOT: &str = ".bench_run";
const WARMUP: Duration = Duration::from_millis(500);
/// Set-ups per untraced run; each is measured for its share of the window.
const ROUNDS: usize = 5;
const READY_TIMEOUT: Duration = Duration::from_secs(30);
const STOP_GRACE: Duration = Duration::from_secs(30);

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("server_cpu_ms_per_op", "ms"),
    ("server_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`. A leg a workload does
/// not exercise reads 0 (see the README's layer map).
pub const PER_LAYER: &[(&str, &str)] = &[
    // From the daemon's and router's /v1/metrics over the window.
    ("serve.request_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.batch_assembly_us", "us"),
    ("serve.predict_us", "us"),
    ("serve.serialize_us", "us"),
    ("serve.flush_us", "us"),
    ("serve.result_cache_hit_ratio", "ratio"),
    ("serve.result_cache_lookups", "count"),
    ("client.rtt_p50_us", "us"),
    ("client.io_us", "us"),
    ("router.request_us", "us"),
    ("router.hop_us", "us"),
    ("sweep.profiles_run", "count"),
    ("store.decode_hit_ratio", "ratio"),
    ("store.decode_lookups", "count"),
    ("store.read_us_per_get", "us"),
    ("store.write_us_per_put", "us"),
    ("store.segments", "count"),
    // From the daemon's stitched traces.
    ("trace.unattributed_us", "us"),
    ("trace.unattributed_share", "ratio"),
    // From the traced in-process replay.
    ("serve.normalize_us", "us"),
    ("serve.evaluate_us", "us"),
    ("sweep.run_jobs_us", "us"),
    ("proftree.flatten_us", "us"),
    ("ffemu.walk_us", "us"),
    ("ffemu.walk_p90_us", "us"),
    ("ffemu.iters_skipped_share", "ratio"),
    ("ffemu.logical_iters", "count"),
    ("synthemu.predict_ms", "ms"),
    ("tracer.profile_ms", "ms"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("codec.record_bytes", "bytes"),
    ("store.put_us", "us"),
    ("store.get_us", "us"),
    ("replay.untraced_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// Every ratio and the metric that is its base.
pub const RATIO_BASES: &[(&str, &str)] = &[
    ("serve.result_cache_hit_ratio", "serve.result_cache_lookups"),
    ("store.decode_hit_ratio", "store.decode_lookups"),
    ("ffemu.iters_skipped_share", "ffemu.logical_iters"),
    ("trace.unattributed_share", "client.rtt_p50_us"),
    ("trace.overhead_share", "replay.untraced_ms"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    prophet: PathBuf,
    write_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: Workload::RoutedHit,
        seed: 1,
        seconds: 10,
        trace: false,
        prophet: PathBuf::from(".bench_build/release/prophet"),
        write_digests: false,
    };
    let mut it = std::env::args().skip(1);
    let mut saw_workload = false;
    while let Some(flag) = it.next() {
        if flag == "--write-digests" {
            a.write_digests = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                a.workload = Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?;
                saw_workload = true;
            }
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad seed {v}"))?,
            "--seconds" => a.seconds = v.parse().map_err(|_| format!("bad seconds {v}"))?,
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--prophet" => a.prophet = PathBuf::from(v),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !saw_workload && !a.write_digests {
        return Err("--workload is required".to_string());
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = if args.write_digests {
        write_digests().map(|()| None)
    } else {
        run(&args).map(Some)
    };
    match result {
        Ok(Some((diag, line))) => {
            println!("{diag}");
            println!("{line}");
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The run's scratch directory; removed on every exit path.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The processes of one set-up.
struct Fleet {
    daemon: Server,
    router: Option<Server>,
}

impl Fleet {
    /// Where the load process connects.
    fn front(&self) -> &str {
        self.router.as_ref().map_or(&self.daemon.addr, |r| &r.addr)
    }

    fn pids(&self) -> Vec<u32> {
        let mut v = vec![self.daemon.pid()];
        v.extend(self.router.as_ref().map(Server::pid));
        v
    }

    fn stop(self) -> Result<(), String> {
        if let Some(r) = self.router {
            r.stop(STOP_GRACE)?;
        }
        self.daemon.stop(STOP_GRACE)
    }
}

fn spawn_daemon(
    bin: &Path,
    w: Workload,
    store: Option<&Path>,
    log: &Path,
) -> Result<Server, String> {
    let addr = daemon::free_addr()?;
    let mut args = vec!["serve".to_string(), "--addr".to_string(), addr.clone()];
    args.extend(w.daemon_flags());
    if let Some(dir) = store {
        args.push("--store-dir".to_string());
        args.push(dir.display().to_string());
    }
    let mut s = Server::spawn(bin, args, addr, log)?;
    s.wait_ready(READY_TIMEOUT)?;
    Ok(s)
}

/// POST set-up bodies one by one; each must answer 200 (and match its
/// digest when it is also a measured body).
fn post_all(addr: &str, bodies: &[Body], mix: &Mix) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    for b in bodies {
        let json = b.json();
        let r = conn
            .post("/v1/predict", &json)
            .map_err(|e| format!("set-up request {json}: {e}"))?;
        if r.status != 200 {
            return Err(format!("set-up request {json}: status {}", r.status));
        }
        let slot = mix.bodies.iter().position(|(x, _)| x.json() == json);
        if let Some(slot) = slot {
            if mix.digest(slot) != Some(digest32(&r.body)) {
                return Err(format!(
                    "set-up response for {json} differs from its digest"
                ));
            }
        }
    }
    Ok(())
}

/// Start the workload's processes and prepare their profiles and store.
fn setup(bin: &Path, mix: &Mix, dir: &Path, i: usize) -> Result<Fleet, String> {
    let w = mix.workload;
    let log = dir.join(format!("server-{i}.log"));
    let store_dir = w.uses_store().then(|| dir.join(format!("store-{i}")));
    let fleet = match w {
        Workload::RoutedHit => {
            let daemon = spawn_daemon(bin, w, None, &log)?;
            let addr = daemon::free_addr()?;
            let args = vec![
                "route".to_string(),
                "--addr".to_string(),
                addr.clone(),
                "--shards".to_string(),
                daemon.addr.clone(),
            ];
            let mut router = Server::spawn(bin, args, addr, &log)?;
            router.wait_ready(READY_TIMEOUT)?;
            Fleet {
                daemon,
                router: Some(router),
            }
        }
        Workload::RestartReplay => {
            // Fill the store, stop that daemon, and restart over it.
            let first = spawn_daemon(bin, w, store_dir.as_deref(), &log)?;
            post_all(&first.addr, &mix.setup_bodies(), mix)?;
            first.stop(STOP_GRACE)?;
            Fleet {
                daemon: spawn_daemon(bin, w, store_dir.as_deref(), &log)?,
                router: None,
            }
        }
        Workload::EmulateMiss | Workload::ColdStart => Fleet {
            daemon: spawn_daemon(bin, w, store_dir.as_deref(), &log)?,
            router: None,
        },
    };
    if w != Workload::RestartReplay {
        post_all(fleet.front(), &mix.setup_bodies(), mix)?;
    }
    Ok(fleet)
}

/// Machine-wide and per-process CPU readings at one instant.
struct CpuMark {
    host_busy: u64,
    host_steal: u64,
    ours: u64,
    servers: u64,
}

impl CpuMark {
    fn take(servers: &[u32]) -> CpuMark {
        let (host_busy, host_steal) = daemon::host_ticks();
        let server_ticks: u64 = servers.iter().map(|&p| daemon::cpu_ticks(p)).sum();
        CpuMark {
            host_busy,
            host_steal,
            ours: server_ticks + daemon::cpu_ticks(std::process::id()),
            servers: server_ticks,
        }
    }
}

/// The JSON result line and the metrics in it.
struct Out {
    table: &'static [(&'static str, &'static str)],
    metrics: Vec<(&'static str, f64)>,
}

impl Out {
    fn new(table: &'static [(&'static str, &'static str)]) -> Out {
        Out {
            table,
            metrics: Vec::new(),
        }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            self.table.iter().any(|(n, _)| *n == name),
            "{name} is not a declared metric"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// `part / base` together with its base, so a ratio is never
    /// reported alone.
    fn put_ratio(&mut self, name: &'static str, part: f64, base: f64) {
        let base_name = RATIO_BASES
            .iter()
            .find(|(r, _)| *r == name)
            .map(|(_, b)| *b)
            .expect("every ratio has a declared base");
        self.put(name, if base == 0.0 { 0.0 } else { part / base });
        self.put(base_name, base);
    }

    fn line(&self, correct: bool, attempted: u64, failed: u64) -> Result<String, String> {
        let mut fields = Vec::new();
        for (name, unit) in self.table {
            let v = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            fields.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            fields.join(",")
        ))
    }
}

/// The window metrics of one round.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct RoundStats {
    ops_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
    cpu_ms_per_op: f64,
}

impl RoundStats {
    /// Summarise one window: `samples` completed in `elapsed`, while the
    /// server processes used `server_ticks` of CPU.
    fn of(samples: &[client::Sample], elapsed: Duration, server_ticks: u64) -> RoundStats {
        let lat: Vec<f64> = samples.iter().map(|s| s.rtt_ns as f64 / 1e6).collect();
        let ops = samples.len() as f64;
        RoundStats {
            ops_per_s: ops / elapsed.as_secs_f64(),
            p50_ms: percentile_of(&lat, 50),
            p90_ms: percentile_of(&lat, 90),
            cpu_ms_per_op: server_ticks as f64 * 1e3 / CLK_TCK / ops,
        }
    }
}

/// What one set-up's measured window produced.
struct Round {
    samples: Vec<client::Sample>,
    stats: RoundStats,
    steal_ticks: u64,
    failed: u64,
    warmup_failed: u64,
    first_error: Option<String>,
    traces: Vec<(String, u64)>,
    before: Snapshot,
    after: Snapshot,
    router: Option<(Snapshot, Snapshot)>,
    rss_mb: f64,
    other_ticks: u64,
}

impl Round {
    fn window(&self) -> Window<'_> {
        Window {
            before: &self.before,
            after: &self.after,
        }
    }
}

/// Warm up, snapshot the counters and CPU times, measure `window`,
/// snapshot again.
fn measure(fleet: &Fleet, mix: &Mix, window: Duration, keep_traces: bool) -> Result<Round, String> {
    let pids = fleet.pids();
    let conns = mix.workload.connections();
    let barrier = Barrier::new(conns + 1);
    let plan = LoopPlan {
        addr: fleet.front(),
        warmup: WARMUP,
        window,
        keep_traces,
        barrier: &barrier,
    };
    let daemon_addr = fleet.daemon.addr.as_str();
    let router_addr = fleet.router.as_ref().map(|r| r.addr.as_str());
    let (reports, before, router_before, first) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let plan = &plan;
                s.spawn(move || drive(mix, c, plan))
            })
            .collect();
        barrier.wait();
        let before = Snapshot::fetch(daemon_addr);
        let router_before = router_addr.map(Snapshot::fetch);
        let first = CpuMark::take(&pids);
        barrier.wait();
        let reports: Vec<ConnReport> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect();
        (reports, before, router_before, first)
    });
    let last = CpuMark::take(&pids);
    let after = Snapshot::fetch(daemon_addr)?;
    let router = match (router_before, router_addr) {
        (Some(b), Some(addr)) => Some((b?, Snapshot::fetch(addr)?)),
        _ => None,
    };
    let mut round = Round {
        samples: Vec::new(),
        stats: RoundStats::default(),
        steal_ticks: last.host_steal - first.host_steal,
        failed: 0,
        warmup_failed: 0,
        first_error: None,
        traces: Vec::new(),
        before: before?,
        after,
        router,
        rss_mb: pids
            .iter()
            .map(|&p| daemon::peak_rss_kb(p) as f64)
            .sum::<f64>()
            / 1024.0,
        other_ticks: (last.host_busy - first.host_busy).saturating_sub(last.ours - first.ours),
    };
    let mut elapsed = Duration::ZERO;
    for r in reports {
        round.samples.extend(r.samples);
        round.failed += r.failed;
        round.warmup_failed += r.warmup_failed;
        elapsed = elapsed.max(r.elapsed);
        round.first_error = round.first_error.or(r.first_error);
        round.traces.extend(r.traces);
    }
    round.stats = RoundStats::of(&round.samples, elapsed, last.servers - first.servers);
    Ok(round)
}

/// Check a workload's invariants over one window against the daemon's
/// own counters.
fn check_invariants(w: Workload, round: &Round, violations: &mut Vec<String>) {
    let win = round.window();
    let ops = round.samples.len() as f64;
    let hits = win.counter("serve.result_cache_hits");
    let misses = win.counter("serve.result_cache_misses");
    let profiles_run = win.counter("sweep.profiles_run");
    let checks = [
        (
            w != Workload::RoutedHit || misses == 0.0,
            "routed_hit: result-cache misses",
        ),
        (
            w != Workload::RoutedHit || hits == ops,
            "routed_hit: result-cache hits != ops",
        ),
        (
            w != Workload::EmulateMiss || hits == 0.0,
            "emulate_miss: result-cache hits",
        ),
        (
            w != Workload::ColdStart || win.counter("store.writes") == ops,
            "cold_start: store.writes != ops",
        ),
        (
            w != Workload::ColdStart || profiles_run == ops,
            "cold_start: sweep.profiles_run != ops",
        ),
        (
            w == Workload::ColdStart || profiles_run == 0.0,
            "the profiler ran in the window",
        ),
    ];
    for (ok, what) in checks {
        if !ok && !violations.iter().any(|v| v == what) {
            violations.push(what.to_string());
        }
    }
}

fn run(args: &Args) -> Result<(String, String), String> {
    let w = args.workload;
    let bin = args.prophet.as_path();
    if !bin.is_file() {
        return Err(format!("no prophet binary at {}", bin.display()));
    }
    let stale = daemon::stale_prophets();
    if !stale.is_empty() {
        return Err(format!(
            "refusing to start: prophet serve/route already running (pids {stale:?})"
        ));
    }
    let mut mix = Mix::new(w, args.seed);
    let text = std::fs::read_to_string(DIGESTS).map_err(|e| format!("read {DIGESTS}: {e}"))?;
    mix.load_digests(&text)?;
    let dir = RunDir(PathBuf::from(RUN_ROOT).join(format!("{}-{}", w.name(), std::process::id())));
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("create {}: {e}", dir.0.display()))?;

    // Several rounds, each a fresh set-up measured for its share of the
    // window: set-up time gets a median, and the window is spread over
    // the whole run instead of one stretch of host weather. A traced run
    // measures one round.
    let rounds = if args.trace { 1 } else { ROUNDS };
    let window = Duration::from_secs(args.seconds) / rounds as u32;
    let mut setup_times = Vec::new();
    let mut measured: Vec<Round> = Vec::new();
    let mut violations = Vec::new();
    let mut traced_fleet = None;
    for i in 0..rounds {
        let t0 = Instant::now();
        let fleet = setup(bin, &mix, &dir.0, i)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        let round = measure(&fleet, &mix, window, args.trace)?;
        check_invariants(w, &round, &mut violations);
        measured.push(round);
        if args.trace {
            traced_fleet = Some(fleet);
        } else {
            fleet.stop()?;
        }
    }
    let samples: Vec<client::Sample> = measured
        .iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect();
    let failed: u64 = measured.iter().map(|r| r.failed).sum();
    let warmup_failed: u64 = measured.iter().map(|r| r.warmup_failed).sum();
    let first_error = measured.iter().find_map(|r| r.first_error.clone());
    let attempted = samples.len() as u64;
    if attempted == 0 {
        return Err(format!(
            "no requests completed: {}",
            first_error.unwrap_or_default()
        ));
    }
    let mut lat_ms: Vec<f64> = samples.iter().map(|s| s.rtt_ns as f64 / 1e6).collect();
    lat_ms.sort_by(f64::total_cmp);
    let (p50, p90, p99) = (
        percentile(&lat_ms, 50),
        percentile(&lat_ms, 90),
        percentile(&lat_ms, 99),
    );

    // Where the gated percentiles sit in this run's measured class order.
    let named_medians: Vec<(&str, f64, u32)> = mix
        .classes
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let v: Vec<f64> = samples
                .iter()
                .filter(|s| s.class as usize == i)
                .map(|s| s.rtt_ns as f64 / 1e6)
                .collect();
            (
                c.name,
                if v.is_empty() { 0.0 } else { median(&v) },
                c.weight,
            )
        })
        .collect();
    let mut by_cost: Vec<(f64, u32)> = named_medians.iter().map(|&(_, m, w)| (m, w)).collect();
    by_cost.sort_by(|a, b| a.0.total_cmp(&b.0));
    let ranked: Vec<mix::Class> = by_cost
        .iter()
        .enumerate()
        .map(|(rank, &(_, weight))| mix::Class {
            name: "measured",
            weight,
            rank: rank as u32,
        })
        .collect();
    let margins = [50, 90].map(|p| Mix::boundary_margin(&ranked, p));

    let mut out;
    let mut replay_mismatches = 0;
    if let Some(fleet) = traced_fleet {
        let round = &measured[0];
        out = Out::new(PER_LAYER);
        layer_metrics(&mut out, &round.window(), round.router.as_ref(), p50, w);
        let gap_us = unattributed(fleet.front(), &round.traces, p50 * 1e6)?;
        out.put("trace.unattributed_us", gap_us);
        out.put_ratio("trace.unattributed_share", gap_us, p50 * 1e3);
        fleet.stop()?;
        // One deck of the fixed mixes; 40 requests of the store mixes.
        let bodies: Vec<(Body, Option<u32>)> = mix.sample_bodies(match w {
            Workload::RoutedHit | Workload::EmulateMiss => mix.deck_len(),
            Workload::RestartReplay | Workload::ColdStart => 40,
        });
        let rep = replay::run(&bodies, &dir.0)?;
        replay_mismatches = rep.mismatches;
        replay_metrics(&mut out, &rep);
        let spans = PathBuf::from(RUN_ROOT).join(format!("{}-spans.jsonl", w.name()));
        rep.rec
            .write_jsonl(&spans)
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
    } else {
        out = Out::new(END_TO_END);
        // Each metric is the median of the five rounds' values, so a
        // stretch of host noise that hits one or two rounds cannot move
        // it.
        let over_rounds =
            |f: fn(&Round) -> f64| median(&measured.iter().map(f).collect::<Vec<_>>());
        out.put("setup_s", median(&setup_times));
        out.put("throughput_ops", over_rounds(|r| r.stats.ops_per_s));
        out.put("latency_p50_ms", over_rounds(|r| r.stats.p50_ms));
        out.put("latency_p90_ms", over_rounds(|r| r.stats.p90_ms));
        out.put(
            "server_cpu_ms_per_op",
            over_rounds(|r| r.stats.cpu_ms_per_op),
        );
        out.put("server_rss_mb", over_rounds(|r| r.rss_mb));
    }

    let correct =
        failed == 0 && warmup_failed == 0 && violations.is_empty() && replay_mismatches == 0;
    let line = out.line(correct, attempted, failed)?;
    let nums = |v: &[f64]| Value::Array(v.iter().map(|&x| num(x)).collect());
    let per_round = |f: fn(&Round) -> f64| nums(&measured.iter().map(f).collect::<Vec<_>>());
    let other_ticks: u64 = measured.iter().map(|r| r.other_ticks).sum();
    let mut fields = vec![
        ("workload", Value::Str(w.name().to_string())),
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::U64(args.seconds)),
        ("trace", Value::Bool(args.trace)),
    ];
    fields.extend(fingerprint());
    fields.extend([
        ("server_flags", Value::Str(fleet_flags(&mix, &dir.0))),
        ("setup_s", nums(&setup_times)),
        (
            "latency_ms",
            obj(vec![
                ("p50", num(p50)),
                ("p90", num(p90)),
                ("p99", num(p99)),
            ]),
        ),
        (
            "class_p50_ms",
            obj(named_medians.iter().map(|&(n, m, _)| (n, num(m))).collect()),
        ),
        ("p50_class_margin", num(margins[0])),
        ("p90_class_margin", num(margins[1])),
        ("round_ops_per_s", per_round(|r| r.stats.ops_per_s)),
        ("round_p50_ms", per_round(|r| r.stats.p50_ms)),
        ("round_p90_ms", per_round(|r| r.stats.p90_ms)),
        ("round_cpu_ms_per_op", per_round(|r| r.stats.cpu_ms_per_op)),
        ("round_steal_ticks", per_round(|r| r.steal_ticks as f64)),
        ("other_cpu_ms", num(other_ticks as f64 * 1e3 / CLK_TCK)),
        ("warmup_failed", Value::U64(warmup_failed)),
        ("replay_mismatches", Value::U64(replay_mismatches)),
        (
            "invariant_violations",
            Value::Array(violations.iter().cloned().map(Value::Str).collect()),
        ),
        ("first_error", first_error.map_or(Value::Null, Value::Str)),
    ]);
    let diag = serde_json::to_string(&obj(vec![("perfbench", obj(fields))]))
        .map_err(|e| format!("diagnostics: {e:?}"))?;
    let _ = std::fs::write(
        PathBuf::from(RUN_ROOT).join(format!("{}-trace{}.json", w.name(), u8::from(args.trace))),
        format!("{diag}\n{line}\n"),
    );
    Ok((diag, line))
}

/// Per-layer metrics taken from the daemon's and router's counters.
fn layer_metrics(
    out: &mut Out,
    win: &Window,
    router: Option<&(Snapshot, Snapshot)>,
    client_p50_ms: f64,
    w: Workload,
) {
    let request_us = win.hist("serve.request_nanos").percentile(50) as f64 / 1e3;
    out.put("serve.request_us", request_us);
    for (metric, stage) in [
        ("serve.parse_us", "parse"),
        ("serve.queue_wait_us", "queue_wait"),
        ("serve.batch_assembly_us", "batch_assembly"),
        ("serve.predict_us", "predict"),
        ("serve.serialize_us", "serialize"),
        ("serve.flush_us", "flush"),
    ] {
        out.put(metric, win.stage_mean_us(stage));
    }
    let hits = win.counter("serve.result_cache_hits");
    let lookups = hits + win.counter("serve.result_cache_misses");
    out.put_ratio("serve.result_cache_hit_ratio", hits, lookups);
    let client_us = client_p50_ms * 1e3;
    out.put("client.rtt_p50_us", client_us);
    let (router_us, front_us) = match router {
        Some((b, a)) => {
            let rw = Window {
                before: b,
                after: a,
            };
            let r = rw.hist("router.request_nanos").percentile(50) as f64 / 1e3;
            (r, r)
        }
        None => (0.0, request_us),
    };
    out.put("client.io_us", client_us - front_us);
    out.put("router.request_us", router_us);
    out.put(
        "router.hop_us",
        if w.routed() {
            router_us - request_us
        } else {
            0.0
        },
    );
    out.put("sweep.profiles_run", win.counter("sweep.profiles_run"));
    let dh = win.counter("store.decode_hits");
    let dl = dh + win.counter("store.decode_misses");
    out.put_ratio("store.decode_hit_ratio", dh, dl);
    let gets = win.counter("store.hits") + win.counter("store.misses");
    let puts = win.counter("store.writes");
    let per = |ns: f64, n: f64| if n == 0.0 { 0.0 } else { ns / n / 1e3 };
    out.put(
        "store.read_us_per_get",
        per(win.stage_sum_ns("store_read"), gets),
    );
    out.put(
        "store.write_us_per_put",
        per(win.stage_sum_ns("store_write"), puts),
    );
    out.put("store.segments", win.after.gauge("store.segments"));
}

/// Per-layer metrics from the in-process replay's spans.
fn replay_metrics(out: &mut Out, rep: &replay::ReplayReport) {
    let us = |name: &str| mean(&rep.rec.durations(name)) / 1e3;
    out.put("serve.normalize_us", us("serve.normalize"));
    out.put("serve.evaluate_us", us("serve.evaluate"));
    out.put(
        "sweep.run_jobs_us",
        mean(&rep.rec.self_times("serve.evaluate")) / 1e3,
    );
    out.put("proftree.flatten_us", us("proftree.flatten"));
    let walks = rep.rec.durations("ffemu.walk");
    out.put("ffemu.walk_us", percentile_of(&walks, 50) / 1e3);
    out.put("ffemu.walk_p90_us", percentile_of(&walks, 90) / 1e3);
    out.put_ratio(
        "ffemu.iters_skipped_share",
        rep.iters_skipped as f64,
        rep.logical_iters as f64,
    );
    out.put("synthemu.predict_ms", us("synthemu.predict") / 1e3);
    out.put("tracer.profile_ms", us("tracer.profile") / 1e3);
    out.put("codec.encode_us", us("codec.encode"));
    out.put("codec.decode_us", us("codec.decode"));
    out.put("codec.record_bytes", mean(&rep.record_bytes));
    out.put("store.put_us", us("store.put"));
    out.put("store.get_us", us("store.get"));
    let untraced_ms = rep.untraced_ns as f64 / 1e6;
    out.put_ratio(
        "trace.overhead_share",
        rep.traced_ns as f64 / 1e6 - untraced_ms,
        untraced_ms,
    );
}

/// The part of client latency no recorded leg accounts for, from the
/// daemon's stitched traces of requests near the client p50: in every
/// process of the trace, a request span's duration minus its direct
/// children. Returns the median gap in microseconds.
fn unattributed(front: &str, traces: &[(String, u64)], p50_ns: f64) -> Result<f64, String> {
    // The flight recorders keep the last 256 traces per process.
    let recent = &traces[traces.len().saturating_sub(200)..];
    let mut near: Vec<&(String, u64)> = recent.iter().collect();
    near.sort_by(|a, b| {
        (a.1 as f64 - p50_ns)
            .abs()
            .total_cmp(&(b.1 as f64 - p50_ns).abs())
    });
    near.truncate(24);
    let mut conn = Conn::connect(front).map_err(|e| format!("trace fetch: {e}"))?;
    let mut gaps = Vec::new();
    for (id, _) in near {
        let resp = conn
            .get(&format!("/v1/debug/trace/{id}?format=jsonl"))
            .map_err(|e| format!("trace fetch: {e}"))?;
        if resp.status != 200 {
            continue;
        }
        let text = String::from_utf8_lossy(&resp.body);
        let spans: Vec<serde::Value> = text
            .lines()
            .filter_map(|l| serde_json::from_str(l).ok())
            .collect();
        let field = |v: &serde::Value, k: &str| match v.get(k) {
            Some(serde::Value::Str(s)) => s.clone(),
            _ => String::new(),
        };
        let num =
            |v: &serde::Value, k: &str| v.get(k).and_then(serde::Value::as_f64).unwrap_or(0.0);
        let interval = |v: &serde::Value| {
            let start = num(v, "start_unix_nanos");
            (start, start + num(v, "dur_nanos"))
        };
        let mut gap = 0.0;
        for root in spans.iter().filter(|s| field(s, "name") == "request") {
            let id = field(root, "span");
            let children: Vec<(f64, f64)> = spans
                .iter()
                .filter(|s| field(s, "parent") == id)
                .map(interval)
                .collect();
            // Stages may overlap (queue_wait includes the batch linger
            // that batch_assembly also times), so subtract their union.
            let (lo, hi) = interval(root);
            gap += (hi - lo - covered(&children, lo, hi)).max(0.0);
        }
        gaps.push(gap / 1e3);
    }
    if gaps.is_empty() {
        return Err("no stitched traces could be fetched".to_string());
    }
    Ok(median(&gaps))
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let (mut total, mut end) = (0.0, f64::NEG_INFINITY);
    for (a, b) in v {
        if b <= end {
            continue;
        }
        total += b - a.max(end);
        end = b;
    }
    total
}

fn fleet_flags(mix: &Mix, dir: &Path) -> String {
    let w = mix.workload;
    let mut s = format!("serve {}", w.daemon_flags().join(" "));
    if w.uses_store() {
        s.push_str(&format!(" --store-dir {}/store-N", dir.display()));
    }
    if w.routed() {
        s.push_str("; route --shards <daemon>");
    }
    s
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(x: f64) -> Value {
    Value::F64(if x.is_finite() { x } else { 0.0 })
}

/// The machine and code a result was measured on.
fn fingerprint() -> Vec<(&'static str, Value)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_default();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let run_root = PathBuf::from(RUN_ROOT);
    let store = format!("{} ({})", run_root.display(), daemon::fs_type(&run_root));
    vec![
        ("nproc", Value::U64(nproc as u64)),
        ("cpu", Value::Str(cpu)),
        ("kernel", Value::Str(kernel.trim().to_string())),
        ("commit", Value::Str(commit)),
        ("source_fnv", Value::Str(format!("{:016x}", source_fnv()))),
        ("store_fs", Value::Str(store)),
    ]
}

/// FNV-1a over every source file under `crates/`, in path order: the
/// identity of the code measured when the checkout has no git metadata.
fn source_fnv() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in files {
        all.extend(f.display().to_string().into_bytes());
        all.extend(std::fs::read(&f).unwrap_or_default());
    }
    stats::fnv64(&all)
}

/// Compute every workload's expected response bodies in process and
/// write their digests to `perfbench/digests.txt`.
fn write_digests() -> Result<(), String> {
    use prophet_core::Prophet;
    use sweep::SweepEngine;
    let resolver = replay::resolver();
    let mut text = String::from(
        "# Expected response digests: FNV-1a 64 of each /v1/predict response body,\n\
         # folded to 32 bits, one line per distinct request body. cold_start lines\n\
         # are in pool-slot order. Regenerate: bash perfbench/run.sh --write-digests\n",
    );
    for w in Workload::ALL {
        let mix = Mix::new(w, 0);
        let engine = SweepEngine::new(Prophet::new())
            .with_jobs(0)
            .with_profile_cache_capacity(Some(64));
        text.push_str(&format!("[{}]\n", w.name()));
        let bodies = mix.all_bodies();
        eprintln!("{}: {} bodies", w.name(), bodies.len());
        for (_, body) in bodies {
            let json = body.json();
            let (norm, _) = serve::NormalizedRequest::parse(&json, &resolver)
                .map_err(|e| format!("{json}: {e}"))?;
            let out = serve::evaluate_requests(&engine, &[norm]);
            let d = digest32(out[0].as_bytes());
            if w == Workload::ColdStart {
                text.push_str(&format!("{d:08x}\n"));
            } else {
                text.push_str(&format!("{d:08x} {json}\n"));
            }
        }
    }
    std::fs::write(DIGESTS, text).map_err(|e| format!("write {DIGESTS}: {e}"))?;
    eprintln!("wrote {DIGESTS}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in BENCHMARK.json must agree.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(serde::Value::Array(items)) = v.get(key) else {
                panic!("{key} missing");
            };
            let declared: Vec<(String, String)> = items
                .iter()
                .map(|m| {
                    let s = |k: &str| match m.get(k) {
                        Some(serde::Value::Str(s)) => s.clone(),
                        _ => panic!("{key} entry without {k}"),
                    };
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
        let Some(serde::Value::Array(wls)) = v.get("workloads") else {
            panic!("workloads missing");
        };
        let names: Vec<String> = wls
            .iter()
            .map(|x| match x.get("name") {
                Some(serde::Value::Str(s)) => s.clone(),
                _ => panic!("workload without a name"),
            })
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn every_ratio_carries_its_base() {
        for (name, _) in PER_LAYER {
            if name.ends_with("_ratio") || name.ends_with("_share") {
                let base = RATIO_BASES
                    .iter()
                    .find(|(r, _)| r == name)
                    .unwrap_or_else(|| panic!("{name} has no declared base"))
                    .1;
                assert!(
                    PER_LAYER.iter().any(|(n, _)| *n == base),
                    "{name}'s base {base} is not reported"
                );
            }
        }
        let mut out = Out::new(PER_LAYER);
        out.put_ratio("store.decode_hit_ratio", 1.0, 4.0);
        assert_eq!(
            out.metrics,
            vec![
                ("store.decode_hit_ratio", 0.25),
                ("store.decode_lookups", 4.0)
            ]
        );
        out.put_ratio("store.decode_hit_ratio", 0.0, 0.0);
        assert!(out.metrics.contains(&("store.decode_hit_ratio", 0.0)));
        assert!(out.metrics.contains(&("store.decode_lookups", 0.0)));
    }

    #[test]
    fn result_line_names_every_metric_with_its_unit() {
        let mut out = Out::new(END_TO_END);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            out.put(name, i as f64 + 0.5);
        }
        let line = out.line(true, 10, 0).expect("complete");
        let v: serde::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(
            v.get("attempted").and_then(serde::Value::as_f64),
            Some(10.0)
        );
        let m = v.get("metrics").expect("metrics");
        assert_eq!(
            m.get("latency_p90_ms").and_then(|x| x.get("unit")),
            Some(&serde::Value::Str("ms".to_string()))
        );
        let mut partial = Out::new(END_TO_END);
        partial.put("setup_s", 1.0);
        assert!(partial.line(true, 1, 0).is_err());
    }

    #[test]
    fn round_stats_summarise_one_window() {
        let samples: Vec<client::Sample> = (1..=10)
            .map(|ms| client::Sample {
                class: 0,
                rtt_ns: ms * 1_000_000,
            })
            .collect();
        let s = RoundStats::of(&samples, Duration::from_secs(2), 50);
        assert_eq!(s.ops_per_s, 5.0);
        assert_eq!((s.p50_ms, s.p90_ms), (5.0, 9.0));
        // 50 ticks of 10 ms over 10 requests.
        assert_eq!(s.cpu_ms_per_op, 50.0);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let kids = [(0.0, 10.0), (5.0, 12.0), (20.0, 30.0), (25.0, 26.0)];
        assert_eq!(covered(&kids, 0.0, 100.0), 22.0);
        assert_eq!(covered(&kids, 8.0, 22.0), 6.0);
        assert_eq!(covered(&[], 0.0, 5.0), 0.0);
    }
}
