//! `prophet` — the Parallel Prophet command line.
//!
//! ```text
//! prophet list
//! prophet predict <workload> [--threads 2,4,8,12] [--schedule static|static-1|dynamic-1]
//!                            [--paradigm openmp|cilk|omptask] [--emulator ff|syn]
//!                            [--no-memory-model] [--real] [--json]
//! prophet trace <workload> [--cores N] [--out trace.json] [--format chrome|jsonl|summary]
//!                          [--emulator ff|syn] [--paradigm ..] [--schedule ..]
//! prophet diagnose <workload> [--threads N]
//! prophet whatif <workload> [--threads 2,4,8] [--schedules static,dynamic-1]
//!                           [--target S] [--emulator ff|syn] [--paradigm ..]
//!                           [--no-memory-model] [--jobs N] [--json]
//! prophet recommend <workload>
//! prophet calibrate
//! prophet sweep <workloads> [--jobs N] [--threads 2,4,8] [--schedules static,dynamic-1]
//!                           [--predictors real,syn] [--paradigm ..] [--timings]
//!                           [--out sweep.json]
//! prophet serve [--addr 127.0.0.1:7177] [--workers N] [--queue-cap N] [--cache-cap N]
//!               [--jobs N] [--store-dir DIR] [--store-segment-bytes N]
//!               [--store-compact-ratio R] [--shards a:p,b:p --self-addr a:p]
//!               [--replicas N] [--slo-ms N] [--access-log PATH] [--max-conns N]
//!               [--idle-timeout-ms N] [--header-timeout-ms N]
//! prophet route [--addr 127.0.0.1:7178] --shards a:p,b:p [--replicas N]
//! prophet loadgen [workloads] [--addr ..] [--shards a:p,b:p] [--requests N]
//!                 [--concurrency N] [--mix predict,whatif] [--expect-cache-hits]
//!                 [--keep-alive]
//! prophet cluster <status | keys | compact | migrate> [--addr ..] [--json]
//! ```
//!
//! `whatif` runs the causal what-if analysis on one workload: per-region
//! work/span attribution, the causal table ("what does parallelizing
//! only region R buy at k cores?") and, with `--target S`, the inverse
//! query (minimum cores and schedule reaching speedup S). `--json`
//! prints the exact report the daemon's `/v1/jobs` batch path serves —
//! byte-identical for the same workload, grid and machine.
//!
//! `sweep` evaluates the full grid `{workload × threads × schedule ×
//! predictor}` on the parallel sweep engine: workloads are profiled once
//! each (shared-profile cache) and grid points fan out over `--jobs`
//! worker threads. `<workloads>` is a comma list of workload names;
//! `test1:<a>..<b>`/`test2:<a>..<b>` expand to one workload per seed.
//! Output is deterministic: the JSON is byte-identical for any `--jobs`
//! value (timings go to stderr, never into the JSON). `--timings` opts
//! into appending a per-stage wall-clock `"timings"` object (profile /
//! predict / elapsed nanoseconds) to the JSON — useful for measuring the
//! run-aware fast paths, but inherently not byte-stable across runs.
//!
//! `serve` runs the batching prediction daemon (`prophet-serve`): one
//! process-wide engine, bounded admission queue, request batching, and a
//! result cache, with `/v1/predict`, `/v1/healthz` and `/v1/metrics`
//! endpoints (every path under `/v1`). `--store-dir` persists
//! every computed profile to an append-only store so restarts serve from
//! disk instead of re-profiling; `--shards`/`--self-addr` makes the
//! daemon a member of a consistent-hash ring that partitions the key
//! space, and `--replicas N` makes each daemon push every stored profile
//! to its N-1 ring successors so reads survive a shard loss. `route`
//! runs the stateless ring-fronting proxy (it fails predicts over to
//! replicas when the owner is down), and `loadgen` drives a daemon (or,
//! with `--shards`, a whole ring) with a deterministic request mix and
//! verifies every response class is byte-identical.
//!
//! `cluster` is the operator verb over the typed `/v1/cluster` admin
//! API: `status` (per-shard store lifecycle stats), `keys` (live keys
//! per shard), `compact` (rewrite segments whose dead-byte ratio
//! exceeds the threshold), and `migrate --shards <new ring>` (stream
//! every record whose owner changes under the new membership to its new
//! owner, so a resize never re-profiles). Point `--addr` at a daemon
//! for one shard's view, or at the router for the whole fleet.
//!
//! `trace` runs the parallelised program on the simulated machine (or,
//! with `--emulator ff|syn`, drives an emulator) with a `prophet-obs`
//! recorder attached and exports the virtual-time event trace — Chrome
//! Trace Event JSON (open in Perfetto / `chrome://tracing`), JSONL, or a
//! terminal timeline. Traces are deterministic: the same workload and
//! seed produce byte-identical output.
//!
//! Workloads are the built-in benchmark suite (OmpSCR, NPB, Test1/Test2,
//! pipeline). Annotating your own program means implementing
//! `tracer::AnnotatedProgram` against `prophet-core` — see the
//! `quickstart` example.

use machsim::{Paradigm, Schedule};
use prophet_core::tracer::AnnotatedProgram;
use prophet_core::{diagnose, Emulator, PredictOptions, Prophet, SpeedupReport};
use sweep::{GridSpec, PredictorSpec, SweepEngine, WorkloadSpec};
use workloads::npb::{Cg, Ep, Ft, Is, Mg};
use workloads::ompscr::{Fft, Jacobi, Lu, Mandelbrot, Md, Pi, QSort};
use workloads::spec::{BenchSpec, Benchmark};
use workloads::{
    run_real, NumaSkew, PipelineParams, PipelineWl, RealOptions, TaskDag, Test1, Test1Params,
    Test2, Test2Params,
};

fn workload(name: &str) -> Option<Box<dyn Benchmark>> {
    Some(match name {
        "md" => Box::new(Md::paper()),
        "lu" => Box::new(Lu::paper()),
        "fft" => Box::new(Fft::paper()),
        "qsort" => Box::new(QSort::paper()),
        "pi" => Box::new(Pi::paper()),
        "mandelbrot" => Box::new(Mandelbrot::paper()),
        "jacobi" => Box::new(Jacobi::paper()),
        "ep" => Box::new(Ep::paper()),
        "ft" => Box::new(Ft::paper()),
        "mg" => Box::new(Mg::paper()),
        "cg" => Box::new(Cg::paper()),
        "is" => Box::new(Is::paper()),
        "pipeline" => Box::new(PipelineWl::new(PipelineParams::transcoder(120))),
        "dag" => Box::new(TaskDag::paper()),
        "numaskew" => Box::new(NumaSkew::paper()),
        s if s.starts_with("test1:") => {
            let seed = s[6..].parse().ok()?;
            Box::new(Test1::new(Test1Params::random(seed)))
        }
        s if s.starts_with("test2:") => {
            let seed = s[6..].parse().ok()?;
            Box::new(Test2::new(Test2Params::random(seed)))
        }
        _ => return None,
    })
}

const WORKLOADS: &[(&str, &str)] = &[
    ("md", "OmpSCR molecular dynamics (compute-bound O(n²))"),
    (
        "lu",
        "OmpSCR LU reduction (inner-loop parallelism, triangular)",
    ),
    ("fft", "OmpSCR recursive FFT (Cilk, bandwidth-hungry)"),
    ("qsort", "OmpSCR quicksort (Cilk, partition-bound)"),
    ("pi", "OmpSCR Pi integration (reduction lock)"),
    ("mandelbrot", "OmpSCR Mandelbrot (fractal imbalance)"),
    ("jacobi", "OmpSCR Jacobi stencil (bandwidth-bound)"),
    ("ep", "NPB EP (embarrassingly parallel)"),
    ("ft", "NPB FT 3-D FFT (bandwidth saturation)"),
    ("mg", "NPB MG multigrid (bandwidth-bound)"),
    ("cg", "NPB CG conjugate gradient (irregular gather)"),
    ("is", "NPB IS integer sort (serial prefix phases)"),
    ("pipeline", "4-stage transcoder pipeline (§VII-E extension)"),
    (
        "dag",
        "fork-join reduction DAG with stragglers + pipelined tail",
    ),
    (
        "numaskew",
        "NUMA-skewed scan (remote-socket penalty, lock reduce)",
    ),
    ("test1:<seed>", "random Fig. 9 validation program"),
    ("test2:<seed>", "random Fig. 10 validation program (nested)"),
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Chrome,
    Jsonl,
    Summary,
}

struct Args {
    command: String,
    workload: Option<String>,
    threads: Vec<u32>,
    schedule: Schedule,
    paradigm: Option<Paradigm>,
    /// `None` means per-command default: synthesizer for `predict`, the
    /// ground-truth machine run for `trace`.
    emulator: Option<Emulator>,
    memory_model: bool,
    with_real: bool,
    json: bool,
    cores: Option<u32>,
    out: Option<String>,
    format: TraceFormat,
    /// Sweep worker threads (0 = all available cores).
    jobs: usize,
    /// Sweep schedule axis; empty = just `schedule`.
    schedules: Vec<Schedule>,
    /// Sweep predictor axis; empty = `real,syn`.
    predictors: Vec<PredictorSpec>,
    /// Append per-stage wall-clock timings to the sweep JSON (opt-in:
    /// timed output is not byte-stable across runs).
    timings: bool,
    /// whatif: inverse-query speedup target.
    target: Option<f64>,
    /// loadgen: request classes to mix (`predict`, `whatif`).
    mix: Vec<String>,
    /// serve/loadgen: daemon address.
    addr: String,
    /// serve: batch-worker threads.
    workers: usize,
    /// serve: admission-queue capacity.
    queue_cap: usize,
    /// serve: result-cache capacity in entries.
    cache_cap: usize,
    /// loadgen: total requests.
    requests: usize,
    /// loadgen: concurrent client threads.
    concurrency: usize,
    /// loadgen: require result- and profile-cache hits after the run.
    expect_cache_hits: bool,
    /// serve: persistent profile-store directory.
    store_dir: Option<String>,
    /// serve: store decoded-profile LRU capacity, entries.
    store_decode_cache: usize,
    /// serve/route/cluster: replication factor across the shard ring.
    replicas: Option<usize>,
    /// serve: rotate the active store log into a sealed segment once it
    /// reaches this many bytes.
    store_segment_bytes: Option<u64>,
    /// serve: dead-byte ratio above which background compaction rewrites
    /// a segment; cluster compact: the requested minimum ratio.
    store_compact_ratio: Option<f64>,
    /// serve/route/loadgen: shard-ring addresses.
    shards: Vec<String>,
    /// serve: this daemon's own address in the ring.
    self_addr: Option<String>,
    /// serve: SLO latency target for predicts, ms (0 = errors only).
    slo_ms: u64,
    /// serve: JSONL access-log path.
    access_log: Option<String>,
    /// loadgen: reuse keep-alive connections instead of dialing per
    /// request.
    keep_alive: bool,
    /// serve: open-connection cap (excess accepts shed with 503).
    max_conns: usize,
    /// serve: idle keep-alive connection timeout, ms.
    idle_timeout_ms: u64,
    /// serve: request-header completion timeout, ms (408 on expiry).
    header_timeout_ms: u64,
    /// Second positional argument (after the workload slot), e.g. the
    /// directory of `prophet store inspect <dir>`.
    extra: Option<String>,
}

/// One-line usage shown on every argument error: the full verb list, so
/// a typo'd command never fails silently or with a partial hint.
const USAGE: &str = "usage: prophet <list | predict | trace | diagnose | whatif | recommend \
                     | calibrate | sweep | serve | route | loadgen | cluster | store> [args] — \
                     `prophet help` for details";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn parse_schedule(s: Option<&str>) -> Schedule {
    s.and_then(Schedule::parse)
        .unwrap_or_else(|| die("bad schedule (static | static-N | dynamic-N | guided-N)"))
}

fn parse_predictor(s: &str) -> PredictorSpec {
    // `-mm` disables the memory model for that series; bare `ff`/`syn`
    // (and `+mm`) keep it on.
    PredictorSpec::parse(s)
        .unwrap_or_else(|| die("bad predictor (real | ff[±mm] | syn[±mm] | suit)"))
}

fn parse_args() -> Args {
    let mut args = Args {
        command: String::new(),
        workload: None,
        threads: vec![2, 4, 6, 8, 10, 12],
        schedule: Schedule::static_block(),
        paradigm: None,
        emulator: None,
        memory_model: true,
        with_real: false,
        json: false,
        cores: None,
        out: None,
        format: TraceFormat::Chrome,
        jobs: 0,
        schedules: Vec::new(),
        predictors: Vec::new(),
        timings: false,
        target: None,
        mix: vec!["predict".to_string()],
        addr: "127.0.0.1:7177".to_string(),
        workers: 2,
        queue_cap: 256,
        cache_cap: 512,
        requests: 50,
        concurrency: 8,
        expect_cache_hits: false,
        store_dir: None,
        store_decode_cache: 32,
        replicas: None,
        store_segment_bytes: None,
        store_compact_ratio: None,
        shards: Vec::new(),
        self_addr: None,
        slo_ms: 5_000,
        access_log: None,
        keep_alive: false,
        max_conns: 1024,
        idle_timeout_ms: 30_000,
        header_timeout_ms: 10_000,
        extra: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                let v = it.next().unwrap_or_else(|| die("--threads needs a list"));
                args.threads = v
                    .split(',')
                    .map(|x| x.trim().parse().unwrap_or_else(|_| die("bad thread count")))
                    .collect();
            }
            "--schedule" => {
                args.schedule = parse_schedule(it.next().as_deref());
            }
            "--schedules" => {
                let v = it.next().unwrap_or_else(|| die("--schedules needs a list"));
                args.schedules = v
                    .split(',')
                    .map(|s| parse_schedule(Some(s.trim())))
                    .collect();
            }
            "--predictors" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--predictors needs a list"));
                args.predictors = v.split(',').map(|s| parse_predictor(s.trim())).collect();
            }
            "--jobs" => {
                let v = it.next().unwrap_or_else(|| die("--jobs needs a count"));
                args.jobs = v.parse().unwrap_or_else(|_| die("bad job count"));
            }
            "--target" => {
                let v = it.next().unwrap_or_else(|| die("--target needs a speedup"));
                let t: f64 = v.parse().unwrap_or_else(|_| die("bad target speedup"));
                if !t.is_finite() || t <= 1.0 {
                    die("--target must be a finite speedup > 1.0");
                }
                args.target = Some(t);
            }
            "--mix" => {
                let v = it.next().unwrap_or_else(|| die("--mix needs a class list"));
                args.mix = v
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if args.mix.is_empty() || args.mix.iter().any(|c| c != "predict" && c != "whatif") {
                    die("bad --mix (comma list of predict | whatif)");
                }
            }
            "--paradigm" => {
                args.paradigm = Some(
                    it.next()
                        .as_deref()
                        .and_then(Paradigm::parse)
                        .unwrap_or_else(|| die("bad --paradigm (openmp | cilk | omptask)")),
                );
            }
            "--emulator" => {
                args.emulator = Some(match it.next().as_deref() {
                    Some("ff") => Emulator::FastForward,
                    Some("syn") => Emulator::Synthesizer,
                    _ => die("bad --emulator (ff | syn)"),
                });
            }
            "--cores" => {
                let v = it.next().unwrap_or_else(|| die("--cores needs a count"));
                args.cores = Some(v.parse().unwrap_or_else(|_| die("bad core count")));
            }
            "--out" => {
                args.out = Some(it.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--format" => {
                args.format = match it.next().as_deref() {
                    Some("chrome") => TraceFormat::Chrome,
                    Some("jsonl") => TraceFormat::Jsonl,
                    Some("summary") => TraceFormat::Summary,
                    _ => die("bad --format (chrome | jsonl | summary)"),
                };
            }
            "--addr" => {
                args.addr = it.next().unwrap_or_else(|| die("--addr needs host:port"));
            }
            "--workers" => {
                let v = it.next().unwrap_or_else(|| die("--workers needs a count"));
                args.workers = v.parse().unwrap_or_else(|_| die("bad worker count"));
            }
            "--queue-cap" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--queue-cap needs a count"));
                args.queue_cap = v.parse().unwrap_or_else(|_| die("bad queue capacity"));
            }
            "--cache-cap" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--cache-cap needs a count"));
                args.cache_cap = v.parse().unwrap_or_else(|_| die("bad cache capacity"));
            }
            "--requests" => {
                let v = it.next().unwrap_or_else(|| die("--requests needs a count"));
                args.requests = v.parse().unwrap_or_else(|_| die("bad request count"));
            }
            "--concurrency" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--concurrency needs a count"));
                args.concurrency = v.parse().unwrap_or_else(|_| die("bad concurrency"));
            }
            "--store-dir" => {
                args.store_dir = Some(it.next().unwrap_or_else(|| die("--store-dir needs a path")));
            }
            "--replicas" => {
                let v = it.next().unwrap_or_else(|| die("--replicas needs a count"));
                let n: usize = v.parse().unwrap_or_else(|_| die("bad replica count"));
                if n == 0 {
                    die("--replicas must be at least 1");
                }
                args.replicas = Some(n);
            }
            "--store-segment-bytes" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--store-segment-bytes needs a byte count"));
                args.store_segment_bytes =
                    Some(v.parse().unwrap_or_else(|_| die("bad segment size")));
            }
            "--store-compact-ratio" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--store-compact-ratio needs a ratio"));
                let r: f64 = v.parse().unwrap_or_else(|_| die("bad compaction ratio"));
                if !(0.0..=1.0).contains(&r) {
                    die("--store-compact-ratio must be within 0.0..=1.0");
                }
                args.store_compact_ratio = Some(r);
            }
            "--store-decode-cache" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--store-decode-cache needs an entry count"));
                args.store_decode_cache =
                    v.parse().unwrap_or_else(|_| die("bad decode-cache size"));
            }
            "--shards" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--shards needs host:port,host:port,.."));
                args.shards = v
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if args.shards.is_empty() {
                    die("--shards needs at least one address");
                }
            }
            "--self-addr" => {
                args.self_addr = Some(
                    it.next()
                        .unwrap_or_else(|| die("--self-addr needs host:port")),
                );
            }
            "--slo-ms" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--slo-ms needs a millisecond count"));
                args.slo_ms = v.parse().unwrap_or_else(|_| die("bad SLO target"));
            }
            "--access-log" => {
                args.access_log = Some(
                    it.next()
                        .unwrap_or_else(|| die("--access-log needs a path")),
                );
            }
            "--max-conns" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--max-conns needs a count"));
                args.max_conns = v.parse().unwrap_or_else(|_| die("bad connection cap"));
            }
            "--idle-timeout-ms" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--idle-timeout-ms needs a millisecond count"));
                args.idle_timeout_ms = v.parse().unwrap_or_else(|_| die("bad idle timeout"));
            }
            "--header-timeout-ms" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--header-timeout-ms needs a millisecond count"));
                args.header_timeout_ms = v.parse().unwrap_or_else(|_| die("bad header timeout"));
            }
            "--keep-alive" => args.keep_alive = true,
            "--expect-cache-hits" => args.expect_cache_hits = true,
            "--no-memory-model" => args.memory_model = false,
            "--real" => args.with_real = true,
            "--json" => args.json = true,
            "--timings" => args.timings = true,
            flag if flag.starts_with('-') => die(&format!("unknown flag {flag}")),
            cmd if args.command.is_empty() => args.command = cmd.to_string(),
            w if args.workload.is_none() => args.workload = Some(w.to_string()),
            x if args.extra.is_none() => args.extra = Some(x.to_string()),
            other => die(&format!("unexpected argument {other}")),
        }
    }
    if args.command.is_empty() {
        args.command = "help".into();
    }
    args
}

/// Expand a workload list: comma-separated workload names, with
/// `test1:<a>..<b>` / `test2:<a>..<b>` producing one workload per seed
/// in `a..b`. Fallible so `prophet serve` can reuse it as the request
/// resolver — there a bad list is the *client's* 400, not our exit 2.
fn try_parse_sweep_workloads(list: &str) -> Result<Vec<WorkloadSpec>, String> {
    let mut out = Vec::new();
    for tok in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        if let Some((fam, range)) = tok.split_once(':') {
            if let Some((a, b)) = range.split_once("..") {
                let a: u64 = a
                    .parse()
                    .map_err(|_| format!("bad seed range start in '{tok}'"))?;
                let b: u64 = b
                    .parse()
                    .map_err(|_| format!("bad seed range end in '{tok}'"))?;
                if b <= a {
                    return Err(format!("empty seed range {tok}"));
                }
                for seed in a..b {
                    out.push(match fam {
                        "test1" => WorkloadSpec::test1(seed),
                        "test2" => WorkloadSpec::test2(seed),
                        _ => return Err("seed ranges only apply to test1/test2".to_string()),
                    });
                }
                continue;
            }
        }
        if workload(tok).is_none() {
            return Err(format!("unknown workload '{tok}'"));
        }
        let name = tok.to_string();
        out.push(WorkloadSpec::program(
            name.clone(),
            move || -> Box<dyn AnnotatedProgram> { workload(&name).expect("validated workload") },
        ));
    }
    if out.is_empty() {
        return Err("need at least one workload".to_string());
    }
    Ok(out)
}

fn parse_sweep_workloads(list: &str) -> Vec<WorkloadSpec> {
    try_parse_sweep_workloads(list).unwrap_or_else(|e| die(&e))
}

fn get_workload(args: &Args) -> (Box<dyn Benchmark>, BenchSpec) {
    let name = args
        .workload
        .as_deref()
        .unwrap_or_else(|| die("this command needs a workload; see `prophet list`"));
    let w = workload(name).unwrap_or_else(|| die(&format!("unknown workload '{name}'")));
    let spec = w.spec();
    (w, spec)
}

fn main() {
    let args = parse_args();
    match args.command.as_str() {
        "help" | "--help" | "-h" => {
            println!(
                "prophet — predict parallel speedup from annotated serial code\n\n\
                 commands:\n  list\n  predict <workload> [--threads ..] [--schedule ..] \
                 [--paradigm ..] [--emulator ff|syn] [--no-memory-model] [--real] [--json]\n  \
                 trace <workload> [--cores N] [--out trace.json] \
                 [--format chrome|jsonl|summary] [--emulator ff|syn]\n  \
                 diagnose <workload> [--threads N] [--json]\n  \
                 whatif <workload> [--threads ..] [--schedules s1,s2] [--target S] \
                 [--emulator ff|syn] [--paradigm ..] [--no-memory-model] [--jobs N] [--json]\n  \
                 recommend <workload>\n  calibrate\n  \
                 sweep <w1,w2,..|test1:<a>..<b>> [--jobs N] [--threads ..] \
                 [--schedules s1,s2] [--predictors real,ff,syn,suit] [--paradigm ..] \
                 [--timings] [--out f.json]\n  \
                 serve [--addr 127.0.0.1:7177] [--workers N] [--queue-cap N] \
                 [--cache-cap N] [--jobs N] [--store-dir DIR] [--store-decode-cache N] \
                 [--store-segment-bytes N] [--store-compact-ratio R] \
                 [--shards a:p,b:p --self-addr a:p] [--replicas N] [--slo-ms N] \
                 [--access-log PATH] \
                 [--max-conns N] [--idle-timeout-ms N] [--header-timeout-ms N]\n  \
                 route [--addr 127.0.0.1:7178] --shards a:p,b:p [--replicas N]\n  \
                 loadgen [workloads] [--addr ..] [--shards a:p,b:p] [--requests N] \
                 [--concurrency N] [--mix predict,whatif] [--expect-cache-hits] [--keep-alive]\n  \
                 cluster <status | keys | compact | migrate> [--addr ..] [--json] \
                 (migrate needs --shards = the NEW ring; compact takes \
                 [--store-compact-ratio R])\n  \
                 store inspect <dir> [--json] (dump + CRC-verify a profile log; \
                 exit 1 on corruption)"
            );
        }
        "list" => {
            for (name, desc) in WORKLOADS {
                println!("{name:<14} {desc}");
            }
        }
        "calibrate" => {
            let prophet = Prophet::new();
            let cal = prophet.calibration();
            println!("traffic floor: {:.0} MB/s", cal.traffic_floor_mbps);
            for p in &cal.psi {
                println!(
                    "psi[{:>2}]: total = {:.2}·{} {:+.0}  (R²={:.4})",
                    p.threads,
                    p.fit.a,
                    if p.linear { "δ" } else { "ln δ" },
                    p.fit.b,
                    p.fit.r2
                );
            }
            println!(
                "phi: ω = {:.0} · δ^{:.3}  (R²={:.3})",
                cal.phi.fit.a, cal.phi.fit.b, cal.phi.fit.r2
            );
        }
        "predict" => {
            let (w, spec) = get_workload(&args);
            let paradigm = args.paradigm.unwrap_or(spec.paradigm);
            let emulator = args.emulator.unwrap_or(Emulator::Synthesizer);
            let prophet = Prophet::new();
            eprintln!("profiling {} ({})…", spec.name, spec.input_desc);
            let profiled = prophet.profile(w.as_ref());
            let mut series = vec![format!(
                "{}/{}",
                match emulator {
                    Emulator::FastForward => "FF",
                    Emulator::Synthesizer => "SYN",
                },
                paradigm.name()
            )];
            if args.with_real {
                series.insert(0, "Real".into());
            }
            let mut report =
                SpeedupReport::new(format!("{} {}", spec.name, spec.input_desc), series);
            // Machine statistics of each --real run, keyed by thread count,
            // surfaced as derived rates in the --json output.
            let mut real_stats: Vec<(u32, machsim::RunStats)> = Vec::new();
            for &t in &args.threads {
                let mut row = Vec::new();
                if args.with_real {
                    let mut o = RealOptions::new(t, paradigm, args.schedule);
                    o.machine = *prophet.machine();
                    let r = run_real(&profiled.tree, &o).ok();
                    if let Some(r) = &r {
                        real_stats.push((t, r.stats.clone()));
                    }
                    row.push(r.map(|r| r.speedup).flatten_none());
                }
                let pred = prophet.predict(
                    &profiled,
                    &PredictOptions {
                        threads: t,
                        paradigm,
                        schedule: args.schedule,
                        emulator,
                        memory_model: args.memory_model,
                    },
                );
                row.push(pred.ok().map(|p| p.speedup).flatten_none());
                report.push_row(t, row);
            }
            if args.json {
                if real_stats.is_empty() {
                    println!("{}", report.to_json());
                } else {
                    let machine_rows: Vec<serde_json::Value> = real_stats
                        .iter()
                        .map(|(t, s)| {
                            serde_json::Value::Object(vec![
                                ("threads".to_string(), serde_json::Value::U64(u64::from(*t))),
                                (
                                    "utilization_percent".to_string(),
                                    serde_json::Value::F64(s.utilization_percent(*t)),
                                ),
                                (
                                    "lock_contention_ratio".to_string(),
                                    serde_json::Value::F64(s.lock_contention_ratio()),
                                ),
                                (
                                    "context_switches_per_mcycle".to_string(),
                                    serde_json::Value::F64(s.context_switch_rate()),
                                ),
                            ])
                        })
                        .collect();
                    let combined = serde_json::Value::Object(vec![
                        ("report".to_string(), serde::Serialize::to_value(&report)),
                        (
                            "machine".to_string(),
                            serde_json::Value::Array(machine_rows),
                        ),
                    ]);
                    println!(
                        "{}",
                        serde_json::to_string_pretty(&combined).expect("serialise")
                    );
                }
            } else {
                println!("{}", report.render());
            }
        }
        "trace" => {
            let (w, spec) = get_workload(&args);
            let paradigm = args.paradigm.unwrap_or(spec.paradigm);
            let prophet = Prophet::new();
            eprintln!("profiling {} ({})…", spec.name, spec.input_desc);
            let profiled = prophet.profile(w.as_ref());
            let cores = args
                .cores
                .or_else(|| args.threads.first().copied())
                .unwrap_or(4);
            let obs = prophet_obs::ObsHandle::new(prophet_obs::Recorder::new());
            // Which engine generates events: the ground-truth machine run
            // by default, or an emulator when --emulator is given.
            let flat = || proftree::FlatTree::from_tree(&profiled.tree);
            let track_cores = match args.emulator {
                Some(Emulator::FastForward) => {
                    let p = ffemu::predict_with_obs(
                        &flat(),
                        ffemu::FfOptions {
                            cpus: cores,
                            schedule: args.schedule,
                            overheads: prophet_core::omp_rt::OmpOverheads::westmere_scaled(),
                            use_burden: args.memory_model,
                            contended_lock_penalty: prophet.machine().context_switch_cycles,
                            model_pipelines: true,
                            expand_runs: false,
                        },
                        obs.clone(),
                    );
                    eprintln!("ff emulation: {:.2}x predicted at {cores} cpus", p.speedup);
                    cores
                }
                Some(Emulator::Synthesizer) => {
                    let mut so = synthemu::SynthOptions::new(cores, paradigm);
                    so.machine = *prophet.machine();
                    so.schedule = args.schedule;
                    so.use_burden = args.memory_model;
                    let p = synthemu::predict_with_obs(&flat(), &so, obs.clone())
                        .unwrap_or_else(|e| die(&e.to_string()));
                    eprintln!(
                        "synthesizer: {:.2}x predicted at {cores} threads",
                        p.speedup
                    );
                    prophet.machine().cores
                }
                None => {
                    let mut o = RealOptions::new(cores, paradigm, args.schedule);
                    o.machine = *prophet.machine();
                    let r = workloads::run_real_with_obs(&profiled.tree, &o, obs.clone())
                        .unwrap_or_else(|e| die(&e.to_string()));
                    eprintln!("machine run: {:.2}x at {cores} threads", r.speedup);
                    prophet.machine().cores
                }
            };
            let text = obs.with(|rec| match args.format {
                TraceFormat::Chrome => prophet_obs::chrome_trace_json(rec, track_cores),
                TraceFormat::Jsonl => prophet_obs::jsonl_dump(rec),
                TraceFormat::Summary => prophet_obs::timeline_summary(rec, track_cores),
            });
            match &args.out {
                Some(path) => {
                    std::fs::write(path, text.as_bytes())
                        .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
                    let events = obs.with(|rec| rec.len());
                    eprintln!("wrote {path} ({events} events)");
                }
                None => println!("{text}"),
            }
        }
        "diagnose" => {
            let (w, spec) = get_workload(&args);
            let paradigm = args.paradigm.unwrap_or(spec.paradigm);
            let prophet = Prophet::new();
            eprintln!("profiling {} ({})…", spec.name, spec.input_desc);
            let profiled = prophet.profile(w.as_ref());
            let threads = args.threads.last().copied().unwrap_or(12);
            let d = diagnose(&profiled.tree, threads, args.schedule);
            // Evidence: one ground-truth run with the recorder attached,
            // so the analytical verdicts come with observed utilisation,
            // lock contention and bandwidth occupancy.
            let obs = prophet_obs::ObsHandle::new(prophet_obs::Recorder::new());
            let mut o = RealOptions::new(threads, paradigm, args.schedule);
            o.machine = *prophet.machine();
            let mut machine = machsim::Machine::new(o.machine);
            machine.attach_obs(obs.clone());
            let metrics = workloads::run_real_on(&profiled.tree, &o, &mut machine)
                .ok()
                .map(|_| {
                    let mut m = obs.with(|rec| {
                        prophet_obs::TraceMetrics::from_recorder(rec, prophet.machine().cores)
                    });
                    // Simulator-side counters (ω-solver memoization, stale
                    // event sweeps) live on the machine, not in the event
                    // stream; fold them into the same registry.
                    machine.publish_metrics(&mut m.registry);
                    // FF fast-path counters from a run-aware prediction at
                    // the same operating point.
                    let (_, ffc) = ffemu::predict_counting_flat(
                        &proftree::FlatTree::from_tree(&profiled.tree),
                        ffemu::FfOptions {
                            cpus: threads,
                            schedule: args.schedule,
                            overheads: o.omp_overheads,
                            use_burden: args.memory_model,
                            contended_lock_penalty: o.machine.context_switch_cycles,
                            model_pipelines: true,
                            expand_runs: false,
                        },
                    );
                    ffemu::publish_counters(&ffc, &mut m.registry);
                    // What-if counters from a single-point causal
                    // analysis at the same operating point — the same
                    // `whatif.*` names the daemon exports.
                    let wspec = whatif::WhatifSpec {
                        threads: vec![threads],
                        schedules: vec![args.schedule],
                        memory_model: args.memory_model,
                        ..whatif::WhatifSpec::default()
                    };
                    let wenv = whatif::EmuEnv {
                        paradigm,
                        ..whatif::EmuEnv::for_machine(prophet.machine())
                    };
                    let (_, wc) = whatif::analyze(&spec.name, &profiled.tree, &wspec, &wenv, 1);
                    let reg = &mut m.registry;
                    reg.inc("whatif.regions_analyzed", wc.regions_analyzed);
                    reg.inc("whatif.emulations_run", wc.emulations_run);
                    reg.inc("whatif.pareto_pruned", wc.pareto_pruned);
                    m
                });
            if args.json {
                let mut obj = vec![("diagnosis".to_string(), serde::Serialize::to_value(&d))];
                if let Some(m) = &metrics {
                    obj.push(("evidence".to_string(), m.to_value()));
                }
                let combined = serde_json::Value::Object(obj);
                println!(
                    "{}",
                    serde_json::to_string_pretty(&combined).expect("serialise")
                );
            } else {
                println!("{}", d.render());
                if let Some(m) = &metrics {
                    println!("evidence from one machine run at {threads} threads:");
                    println!("  core utilization: {:>5.1}%", m.utilization() * 100.0);
                    if let Some(f) = m.registry.gauge("lock_wait_fraction") {
                        println!("  lock-wait cycles: {:>5.1}% of elapsed", f * 100.0);
                    }
                    for (lock, st) in m.hottest_locks().into_iter().take(3) {
                        println!(
                            "  lock {lock}: {} acquires, {} waited, {} cycles blocked",
                            st.acquires, st.waits, st.total_wait
                        );
                    }
                    if m.peak_dram_active() > 0 {
                        println!(
                            "  peak concurrent DRAM-active packets: {}",
                            m.peak_dram_active()
                        );
                    }
                    println!(
                        "  ω-solver cache hits: {}, stale events swept: {}",
                        m.registry.counter("machsim.omega_cache_hits"),
                        m.registry.counter("machsim.stale_events_skipped"),
                    );
                    println!(
                        "  FF fast path: {} runs closed-form, {} iterations skipped",
                        m.registry.counter("ff.runs_fastpathed"),
                        m.registry.counter("ff.iters_skipped"),
                    );
                    println!(
                        "  what-if: {} region(s) attributed, {} causal emulation(s)",
                        m.registry.counter("whatif.regions_analyzed"),
                        m.registry.counter("whatif.emulations_run"),
                    );
                }
            }
        }
        "whatif" => {
            let list = args
                .workload
                .as_deref()
                .unwrap_or_else(|| die("whatif needs a workload; see `prophet list`"));
            let specs = parse_sweep_workloads(list);
            if specs.len() != 1 {
                die("whatif analyzes exactly one workload at a time");
            }
            let wl = &specs[0];
            let model = match args.emulator {
                Some(Emulator::Synthesizer) => whatif::Model::Syn,
                _ => whatif::Model::Ff,
            };
            let wspec = whatif::WhatifSpec {
                threads: args.threads.clone(),
                schedules: if args.schedules.is_empty() {
                    vec![args.schedule]
                } else {
                    args.schedules.clone()
                },
                model,
                memory_model: args.memory_model,
                target_speedup: args.target,
            };
            // Same profiling path and emulation environment as the
            // daemon's job worker, so `--json` output and a `/v1/jobs`
            // result for the same grid are byte-identical. That also
            // means the paradigm default is the daemon's (OpenMP), not
            // the workload's own.
            let engine = SweepEngine::new(Prophet::new()).with_jobs(args.jobs);
            eprintln!("profiling {}…", wl.key);
            let profiled = engine.profiled(wl);
            let env = whatif::EmuEnv {
                paradigm: args.paradigm.unwrap_or(Paradigm::OpenMp),
                ..whatif::EmuEnv::for_machine(engine.prophet().machine())
            };
            let (report, counters) =
                whatif::analyze(&wl.key, &profiled.tree, &wspec, &env, args.jobs);
            eprintln!(
                "whatif: {} region(s), {} emulation(s), {} bound-pruned",
                counters.regions_analyzed, counters.emulations_run, counters.pareto_pruned,
            );
            if args.json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&report).expect("serialise whatif report")
                );
            } else {
                print_whatif(&report);
            }
        }
        "sweep" => {
            let list = args
                .workload
                .as_deref()
                .unwrap_or_else(|| die("sweep needs workloads, e.g. test1:0..8,lu,ft"));
            let mut grid = GridSpec::new(parse_sweep_workloads(list));
            grid.threads = args.threads.clone();
            grid.schedules = if args.schedules.is_empty() {
                vec![args.schedule]
            } else {
                args.schedules.clone()
            };
            grid.paradigms = vec![args.paradigm.unwrap_or(Paradigm::OpenMp)];
            grid.predictors = if args.predictors.is_empty() {
                vec![PredictorSpec::real(), PredictorSpec::syn(args.memory_model)]
            } else {
                args.predictors.clone()
            };
            let engine = SweepEngine::new(Prophet::new()).with_jobs(args.jobs);
            let t0 = std::time::Instant::now();
            let result = engine.run(&grid);
            let elapsed = t0.elapsed().as_secs_f64();
            // Timing is stderr-only: stdout/--out JSON stays byte-identical
            // across --jobs values.
            let workers = if args.jobs == 0 {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            } else {
                args.jobs
            };
            eprintln!(
                "sweep: {} jobs ({} skipped), {} profiles traced + {} cache hits, \
                 {elapsed:.2}s on {workers} worker thread(s)",
                result.jobs_total, result.jobs_skipped, result.cache.misses, result.cache.hits,
            );
            // Without --timings the JSON is exactly the serialised
            // SweepResult: byte-identical across --jobs values and runs.
            // With --timings a diagnostic "timings" object is appended to
            // the top-level object (wall-clock, so not byte-stable).
            let body = if args.timings {
                let stages = engine.stage_timings();
                eprintln!(
                    "sweep timings: profile {:.3}s, predict {:.3}s (summed across workers)",
                    stages.profile_nanos as f64 / 1e9,
                    stages.predict_nanos as f64 / 1e9,
                );
                let mut v = serde::Serialize::to_value(&result);
                if let serde_json::Value::Object(fields) = &mut v {
                    let mut t = serde::Serialize::to_value(&stages);
                    if let serde_json::Value::Object(tf) = &mut t {
                        tf.push((
                            "elapsed_nanos".to_string(),
                            serde_json::Value::U64(
                                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                            ),
                        ));
                    }
                    fields.push(("timings".to_string(), t));
                }
                serde_json::to_string_pretty(&v).expect("serialise sweep")
            } else {
                serde_json::to_string_pretty(&result).expect("serialise sweep")
            };
            match &args.out {
                Some(path) => {
                    std::fs::write(path, body.as_bytes())
                        .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
                    eprintln!("wrote {path}");
                }
                None => println!("{body}"),
            }
        }
        "serve" => {
            let mut cfg = serve::ServeConfig {
                addr: args.addr.clone(),
                workers: args.workers.max(1),
                queue_cap: args.queue_cap.max(1),
                result_cache_cap: args.cache_cap,
                engine_jobs: args.jobs,
                store_dir: args.store_dir.clone(),
                store_decode_cache_cap: args.store_decode_cache,
                shard_ring: args.shards.clone(),
                shard_self: args.self_addr.clone(),
                slo_ms: args.slo_ms,
                access_log: args.access_log.clone(),
                max_connections: args.max_conns,
                idle_timeout_ms: args.idle_timeout_ms,
                header_timeout_ms: args.header_timeout_ms,
                ..serve::ServeConfig::default()
            };
            // Store lifecycle knobs keep their library defaults unless
            // given explicitly.
            if let Some(r) = args.replicas {
                cfg.replicas = r;
            }
            if let Some(b) = args.store_segment_bytes {
                cfg.store_segment_bytes = b;
            }
            if let Some(r) = args.store_compact_ratio {
                cfg.store_compact_ratio = r;
            }
            let resolver: serve::Resolver = std::sync::Arc::new(try_parse_sweep_workloads);
            let workers = cfg.workers;
            let handle = serve::Server::start(cfg, resolver)
                .unwrap_or_else(|e| die(&format!("cannot start on {}: {e}", args.addr)));
            serve::signal::install_handlers();
            let store_note = match (&args.store_dir, handle.store()) {
                (Some(dir), Some(s)) => format!(", store {dir} ({} profiles)", s.len()),
                _ => String::new(),
            };
            let shard_note = match &args.self_addr {
                Some(own) if !args.shards.is_empty() => {
                    format!(", shard {own} of {}", args.shards.len())
                }
                _ => String::new(),
            };
            eprintln!(
                "prophet-serve listening on {} ({workers} worker(s), queue {}, cache {}\
                 {store_note}{shard_note}); SIGTERM/ctrl-c drains",
                handle.local_addr(),
                args.queue_cap.max(1),
                args.cache_cap,
            );
            serve::signal::wait_for_shutdown();
            eprintln!("signal received, draining in-flight requests…");
            handle.shutdown();
            eprintln!("prophet-serve: shutdown complete");
        }
        "store" => {
            if args.workload.as_deref() != Some("inspect") {
                die("usage: prophet store inspect <dir> [--json]");
            }
            let dir = args
                .extra
                .clone()
                .or_else(|| args.store_dir.clone())
                .unwrap_or_else(|| {
                    die("store inspect needs a directory (positional or --store-dir)")
                });
            let report =
                store::inspect(&dir).unwrap_or_else(|e| die(&format!("inspect {dir}: {e}")));
            if args.json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&report).expect("serialise inspect report")
                );
            } else {
                for r in &report.records {
                    println!(
                        "PSR{} {:>10} B  {}  {:<18} {}",
                        r.version,
                        r.payload_len,
                        if r.crc_ok { "ok " } else { "BAD" },
                        r.file,
                        r.key
                    );
                }
                println!(
                    "{} record(s), {} byte(s) on disk, {} CRC failure(s){}",
                    report.records.len(),
                    report.disk_bytes,
                    report.corrupt_records(),
                    match &report.corrupt_tail {
                        Some(t) => format!(", damaged tail: {t}"),
                        None => String::new(),
                    }
                );
            }
            if !report.is_clean() {
                std::process::exit(1);
            }
        }
        "route" => {
            if args.shards.is_empty() {
                die("route needs --shards host:port,host:port,..");
            }
            let cfg = serve::router::RouterConfig {
                addr: if args.addr == "127.0.0.1:7177" {
                    // Default to one port above the daemon default so
                    // `prophet serve` + `prophet route` coexist out of the box.
                    "127.0.0.1:7178".to_string()
                } else {
                    args.addr.clone()
                },
                shards: args.shards.clone(),
                replicas: args.replicas.unwrap_or(1),
            };
            let resolver: serve::Resolver = std::sync::Arc::new(try_parse_sweep_workloads);
            let handle = serve::router::Router::start(cfg, resolver)
                .unwrap_or_else(|e| die(&format!("cannot start router: {e}")));
            serve::signal::install_handlers();
            eprintln!(
                "prophet-route listening on {} fronting {} shard(s); SIGTERM/ctrl-c stops",
                handle.local_addr(),
                args.shards.len(),
            );
            serve::signal::wait_for_shutdown();
            eprintln!("signal received, stopping router…");
            handle.shutdown();
            eprintln!("prophet-route: shutdown complete");
        }
        "cluster" => {
            let sub = args.workload.as_deref().unwrap_or("status");
            let addr = args.addr.clone();
            let body = match sub {
                "status" | "keys" => None,
                "compact" => {
                    let req = serve::api::ClusterCompactRequest {
                        min_dead_ratio: args.store_compact_ratio,
                        include_active: None,
                    };
                    Some(serde_json::to_string(&req).expect("serialise compact request"))
                }
                "migrate" => {
                    if args.shards.is_empty() {
                        die("cluster migrate needs --shards (the new ring membership)");
                    }
                    let req = serve::api::ClusterMigrateRequest {
                        to_ring: Some(args.shards.clone()),
                        replicas: args.replicas.map(|r| r as u64),
                        records: None,
                    };
                    Some(serde_json::to_string(&req).expect("serialise migrate request"))
                }
                other => die(&format!(
                    "unknown cluster subcommand {other} (status | keys | compact | migrate)"
                )),
            };
            let (method, path) = match sub {
                "status" => ("GET", "/v1/cluster"),
                "keys" => ("GET", "/v1/cluster/keys?scope=local"),
                "compact" => ("POST", "/v1/cluster/compact"),
                _ => ("POST", "/v1/cluster/migrate"),
            };
            let (status, _headers, resp) =
                serve::http::client_request(&addr, method, path, body.as_deref())
                    .unwrap_or_else(|e| die(&format!("cannot reach {addr}: {e}")));
            if status != 200 {
                eprintln!("cluster {sub}: HTTP {status}: {resp}");
                std::process::exit(1);
            }
            if args.json {
                println!("{resp}");
            } else {
                print_cluster(sub, &resp);
            }
        }
        "loadgen" => {
            let list = args
                .workload
                .as_deref()
                .unwrap_or("test1:0,test1:1,test1:2,test1:3");
            // Validate locally with the same resolver the daemon uses, so
            // a typo fails here and not as 50 identical 400s. The per-token
            // resolution also yields each body's route key for --shards.
            let mix_predict = args.mix.iter().any(|c| c == "predict");
            let mix_whatif = args.mix.iter().any(|c| c == "whatif");
            let mut bodies = Vec::new();
            let mut route_keys = Vec::new();
            let mut whatif_bodies = Vec::new();
            let mut whatif_keys = Vec::new();
            for tok in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let specs = try_parse_sweep_workloads(tok).unwrap_or_else(|e| die(&e));
                if mix_predict {
                    route_keys.push(specs[0].key.clone());
                    let req = serve::api::PredictRequest {
                        workload: Some(tok.to_string()),
                        threads: Some(vec![2, 4]),
                        predictors: Some(vec!["syn+mm".to_string()]),
                        ..serve::api::PredictRequest::default()
                    };
                    bodies.push(req.to_json());
                }
                if mix_whatif {
                    // Job round-trips: submit → poll → result against the
                    // batch path, small grid so the job worker keeps up.
                    let mut job = serve::jobs::JobRequest::for_workload(tok);
                    job.threads = Some(vec![2, 4]);
                    job.target_speedup = Some(1.5);
                    whatif_keys.push(specs[0].key.clone());
                    whatif_bodies.push(job.to_json());
                }
            }
            let opts = serve::loadgen::LoadgenOptions {
                addr: args.addr.clone(),
                requests: args.requests,
                concurrency: args.concurrency,
                bodies,
                expect_cache_hits: args.expect_cache_hits,
                shards: args.shards.clone(),
                route_keys,
                keep_alive: args.keep_alive,
                whatif_bodies,
                whatif_keys,
            };
            let report = serve::loadgen::run(&opts);
            println!("{}", report.summary());
            if !report.success(&opts) {
                eprintln!("loadgen: FAILED");
                std::process::exit(1);
            }
        }
        "recommend" => {
            let (w, spec) = get_workload(&args);
            let prophet = Prophet::new();
            eprintln!("profiling {} ({})…", spec.name, spec.input_desc);
            let profiled = prophet.profile(w.as_ref());
            let rec = prophet
                .recommend(&profiled)
                .unwrap_or_else(|e| die(&e.to_string()));
            println!(
                "best: {} / {} at {} threads -> {:.2}x",
                rec.best.paradigm, rec.best.schedule, rec.best.threads, rec.best.speedup
            );
            for p in &rec.all {
                println!("  {:<8} {:<10} {:>6.2}x", p.paradigm, p.schedule, p.speedup);
            }
        }
        other => die(&format!("unknown command {other}")),
    }
}

/// Human rendering of the typed `/v1/cluster` bodies. Parsing back into
/// the same structs the daemon serialised is the round-trip the cluster
/// API is designed around — a schema drift fails here, not silently.
fn print_cluster(sub: &str, resp: &str) {
    match sub {
        "status" => {
            let s: serve::api::ClusterStatusResponse = serde_json::from_str(resp)
                .unwrap_or_else(|e| die(&format!("unparseable cluster status: {e:?}")));
            if s.ring.is_empty() {
                println!("unsharded daemon, replicas {}", s.replicas.max(1));
            } else {
                println!("ring: {} shard(s), replicas {}", s.ring.len(), s.replicas);
            }
            for sh in &s.shards {
                if !sh.alive {
                    println!("  {:<22} DOWN", sh.addr);
                    continue;
                }
                if !sh.store {
                    println!("  {:<22} up (no store)", sh.addr);
                    continue;
                }
                println!(
                    "  {:<22} up  {} records, {} segment(s), {} B disk ({} live / {} dead), \
                     {} compaction(s), replica r/w {}/{}, ring-change misses {}{}",
                    sh.addr,
                    sh.records,
                    sh.segments,
                    sh.disk_bytes,
                    sh.live_bytes,
                    sh.dead_bytes,
                    sh.compactions,
                    sh.replica_reads,
                    sh.replica_writes,
                    sh.reprofile_on_ring_change,
                    if sh.migrating { ", MIGRATING" } else { "" },
                );
            }
        }
        "keys" => {
            let s: serve::api::ClusterKeysResponse = serde_json::from_str(resp)
                .unwrap_or_else(|e| die(&format!("unparseable cluster keys: {e:?}")));
            for sh in &s.shards {
                println!("{} ({} key(s)):", sh.addr, sh.keys.len());
                for k in &sh.keys {
                    println!("  {:>10} B  {:<18} {}", k.payload_len, k.segment, k.key);
                }
            }
        }
        "compact" => {
            let s: serve::api::ClusterCompactResponse = serde_json::from_str(resp)
                .unwrap_or_else(|e| die(&format!("unparseable compact response: {e:?}")));
            for sh in &s.shards {
                let r = &sh.report;
                println!(
                    "{}: {} -> {} segment(s), {} rewritten, {} live record(s), \
                     {} dropped, {} B reclaimed, {} B on disk",
                    sh.addr,
                    r.segments_before,
                    r.segments_after,
                    r.rewritten,
                    r.live_records,
                    r.dropped_records,
                    r.reclaimed_bytes,
                    r.disk_bytes,
                );
            }
        }
        _ => {
            let s: serve::api::ClusterMigrateResponse = serde_json::from_str(resp)
                .unwrap_or_else(|e| die(&format!("unparseable migrate response: {e:?}")));
            for sh in &s.shards {
                println!(
                    "{}: {} key(s) ({} B) streamed out",
                    sh.addr, sh.moved_keys, sh.moved_bytes
                );
                for t in &sh.targets {
                    println!("  -> {} acknowledged {} key(s)", t.addr, t.keys);
                }
            }
        }
    }
}

/// Human rendering of a what-if report: program-level summary, the
/// per-region work/span table, the causal table, and — when a target
/// was given — the inverse answer.
fn print_whatif(r: &whatif::WhatifReport) {
    println!(
        "{} ({}): serial {} cycles, critical path {} cycles, max parallelism {:.2}x",
        r.workload, r.predictor, r.serial_cycles, r.critical_path_cycles, r.max_parallelism
    );
    println!("\nregions (work/span attribution):");
    println!(
        "  {:<3} {:<5} {:<16} {:>6} {:>12} {:>12} {:>6} {:>8} {:>10}",
        "#", "kind", "name", "inst", "work", "span", "frac", "par", "bound@inf"
    );
    for reg in &r.regions {
        println!(
            "  {:<3} {:<5} {:<16} {:>6} {:>12} {:>12} {:>5.1}% {:>7.2}x {:>9.2}x",
            reg.index,
            reg.kind,
            reg.name,
            reg.instances,
            reg.work,
            reg.span,
            reg.work_fraction * 100.0,
            reg.parallelism,
            reg.bound_at_inf,
        );
    }
    println!("\ncausal speedup (whole program, only that region parallelized):");
    println!(
        "  {:<3} {:<16} {:>7} {:<10} {:>8} {:>8}",
        "#", "name", "threads", "schedule", "speedup", "bound"
    );
    for row in &r.causal {
        println!(
            "  {:<3} {:<16} {:>7} {:<10} {:>7.2}x {:>7.2}x",
            row.region, row.name, row.threads, row.schedule, row.speedup, row.bound,
        );
    }
    if let Some(inv) = &r.inverse {
        match (inv.threads, &inv.schedule, inv.speedup) {
            (Some(k), Some(s), Some(sp)) => println!(
                "\ninverse: target {:.2}x reachable at {k} threads ({s}) -> {sp:.2}x \
                 [{} emulated, {} pruned]",
                inv.target_speedup, inv.emulated, inv.pruned,
            ),
            _ => {
                let best = match inv.frontier.last() {
                    Some(b) => format!(
                        "; best explored {:.2}x at {} threads ({})",
                        b.speedup, b.threads, b.schedule
                    ),
                    None => String::new(),
                };
                println!(
                    "\ninverse: target {:.2}x not reachable on the explored grid{best} \
                     [{} emulated, {} pruned]",
                    inv.target_speedup, inv.emulated, inv.pruned,
                );
            }
        }
    }
}

/// Tiny helper: `Option<f64>` from a fallible speedup without flattening
/// `Option<Option<_>>` noise at the call sites.
trait FlattenNone {
    fn flatten_none(self) -> Option<f64>;
}

impl FlattenNone for Option<f64> {
    fn flatten_none(self) -> Option<f64> {
        self
    }
}
