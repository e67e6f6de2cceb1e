//! Trace determinism (ISSUE obs satellite): two same-seed runs must
//! export byte-identical Chrome-trace JSON, and the JSONL schema is
//! pinned by a golden file so exporter drift is caught in review.

use prophet_core::Prophet;
use prophet_obs::{chrome_trace_json, jsonl_dump, EventKind, ObsHandle, Recorder, SpanKind};
use workloads::ompscr::{Lu, Md, QSort};
use workloads::spec::Benchmark;
use workloads::{run_real_with_obs, RealOptions};

/// Profile `w`, run the ground-truth machine at 4 cores with a fresh
/// recorder attached, and export both trace formats.
fn trace_once(w: &dyn Benchmark) -> (String, String) {
    let prophet = Prophet::new();
    let profiled = prophet.profile(w);
    let spec = w.spec();
    let mut opts = RealOptions::new(4, spec.paradigm, machsim::Schedule::static_block());
    opts.machine = *prophet.machine();
    let obs = ObsHandle::new(Recorder::new());
    run_real_with_obs(&profiled.tree, &opts, obs.clone()).expect("real run succeeds");
    obs.with(|rec| (chrome_trace_json(rec, opts.machine.cores), jsonl_dump(rec)))
}

#[test]
fn md_trace_is_byte_identical_across_runs() {
    let (chrome_a, jsonl_a) = trace_once(&Md::paper());
    let (chrome_b, jsonl_b) = trace_once(&Md::paper());
    assert!(!chrome_a.is_empty() && chrome_a.contains("\"traceEvents\""));
    assert_eq!(
        chrome_a, chrome_b,
        "MD Chrome trace differs between same-seed runs"
    );
    assert_eq!(
        jsonl_a, jsonl_b,
        "MD JSONL dump differs between same-seed runs"
    );
}

#[test]
fn qsort_trace_is_byte_identical_across_runs() {
    let (chrome_a, jsonl_a) = trace_once(&QSort::paper());
    let (chrome_b, jsonl_b) = trace_once(&QSort::paper());
    assert!(!chrome_a.is_empty() && chrome_a.contains("\"traceEvents\""));
    assert_eq!(
        chrome_a, chrome_b,
        "QSort Chrome trace differs between same-seed runs"
    );
    assert_eq!(
        jsonl_a, jsonl_b,
        "QSort JSONL dump differs between same-seed runs"
    );
}

/// One event of every kind, hand-recorded so the golden file is tiny and
/// the JSONL schema (field names, ordering, label interning) is pinned.
fn schema_sample() -> Recorder {
    let mut rec = Recorder::new();
    let region = rec.intern("region0");
    rec.record(0, EventKind::ThreadSpawn { thread: 1 });
    rec.record(5, EventKind::ThreadDispatch { core: 0, thread: 1 });
    rec.record(
        10,
        EventKind::SpanBegin {
            kind: SpanKind::Region,
            label: region,
            thread: 1,
        },
    );
    rec.record(
        12,
        EventKind::ChunkDispatch {
            worker: 0,
            lo: 0,
            hi: 64,
        },
    );
    rec.record(15, EventKind::LockWait { lock: 0, thread: 1 });
    rec.record(20, EventKind::LockAcquire { lock: 0, thread: 1 });
    rec.record(25, EventKind::LockRelease { lock: 0, thread: 1 });
    rec.record(
        30,
        EventKind::BarrierEnter {
            barrier: 0,
            thread: 1,
        },
    );
    rec.record(
        31,
        EventKind::BarrierRelease {
            barrier: 0,
            woken: 3,
        },
    );
    rec.record(
        40,
        EventKind::DramRate {
            active: 2,
            omega_milli: 1500,
        },
    );
    rec.record(
        45,
        EventKind::StealAttempt {
            thief: 1,
            victim: 0,
            success: true,
        },
    );
    rec.record(46, EventKind::TaskSpawn { worker: 0 });
    rec.record(47, EventKind::TaskSync { worker: 1 });
    rec.record(50, EventKind::ThreadPreempt { core: 0, thread: 1 });
    rec.record(51, EventKind::ThreadYield { core: 0, thread: 1 });
    rec.record(52, EventKind::ThreadBlock { core: 0, thread: 1 });
    rec.record(53, EventKind::ThreadUnpark { thread: 1 });
    rec.record(60, EventKind::EmuHeapPop { cpu: 2 });
    rec.record(65, EventKind::OverheadSubtract { cycles: 17 });
    rec.record(
        70,
        EventKind::SpanEnd {
            kind: SpanKind::Region,
            label: region,
            thread: 1,
        },
    );
    rec.record(75, EventKind::ThreadExit { core: 0, thread: 1 });
    rec
}

#[test]
fn jsonl_schema_matches_golden_file() {
    let rec = schema_sample();
    let got = jsonl_dump(&rec);
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/obs_events.jsonl"
    );
    if std::env::var_os("OBS_GOLDEN_REGEN").is_some() {
        std::fs::write(golden_path, &got).expect("write golden file");
    }
    let want = std::fs::read_to_string(golden_path).expect("golden file present");
    assert_eq!(
        got, want,
        "JSONL exporter output drifted from tests/golden/obs_events.jsonl; \
         if the schema change is intentional, regenerate the golden file"
    );
}

/// The traced FF emulation walks every op through the heap (full
/// `EmuHeapPop`/`ChunkDispatch` events), while the untraced one takes the
/// closed forms: one step per `U`-only chunk and batched hand-out over
/// uniform stretches. Both must predict the same cycles and sections.
#[test]
fn traced_ff_matches_untraced_on_dynamic_and_guided() {
    let prophet = Prophet::new();
    for w in [&Lu::paper() as &dyn Benchmark, &Md::paper()] {
        let profiled = prophet.profile(w);
        let flat = prophet_core::proftree::FlatTree::from_tree(&profiled.tree);
        for schedule in [
            machsim::Schedule::dynamic1(),
            machsim::Schedule::Guided { min_chunk: 4 },
        ] {
            for cpus in [3u32, 6, 12] {
                let mut opts = ffemu::FfOptions::new(cpus);
                opts.schedule = schedule;
                opts.contended_lock_penalty = prophet.machine().context_switch_cycles;
                let ctx = format!("{} {schedule:?} cpus={cpus}", w.spec().name);
                let (fast, counters) = ffemu::predict_counting_flat(&flat, opts);
                assert!(counters.runs_fastpathed > 0, "{ctx}: no closed form taken");
                let obs = ObsHandle::new(Recorder::with_capacity(1 << 14));
                let traced = ffemu::predict_with_obs(&flat, opts, obs.clone());
                assert_eq!(traced.predicted_cycles, fast.predicted_cycles, "{ctx}");
                assert_eq!(traced.sections, fast.sections, "{ctx}");
                assert_eq!(traced.speedup.to_bits(), fast.speedup.to_bits(), "{ctx}");
                let dispatches = obs.with(|rec| {
                    rec.events()
                        .filter(|e| matches!(e.kind, EventKind::ChunkDispatch { .. }))
                        .count()
                });
                assert!(dispatches > 0, "{ctx}: traced path recorded no dispatches");
            }
        }
    }
}
