//! The traced in-process replay: a workload's request bodies pushed
//! through the same public functions the daemon calls, in the same
//! order, with a span around each call.
//!
//! Spans live in memory and are written out once, at the end. Each has
//! a name, start, end, parent and request id; a layer's self time is its
//! span minus the part its child spans cover. The replay runs untraced
//! and traced passes over the same bodies, so the cost of recording the
//! spans is measured rather than assumed.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use proftree::{ChildList, FlatTree, NodeId, NodeKind, ProgramTree};
use prophet_core::machsim::{Paradigm, Schedule};
use prophet_core::tracer::AnnotatedProgram;
use prophet_core::{codec, Profiled, Prophet};
use serve::{evaluate_requests, NormalizedRequest, Resolver};
use store::ProfileStore;
use sweep::{ProfileStorage, SweepEngine, SweepResult, WorkloadSpec};
use workloads::npb::{Cg, Ep};
use workloads::ompscr::{Lu, Mandelbrot, Md, Pi};
use workloads::{Test1, Test1Params, Test2, Test2Params};

use crate::mix::Body;
use crate::stats::digest32;

/// A registry program by its `prophet` name (the subset the workloads
/// use), built exactly as the `prophet` binary builds it.
pub fn program(name: &str) -> Option<Box<dyn AnnotatedProgram>> {
    let seed = |p: &str| name.strip_prefix(p).and_then(|s| s.parse::<u64>().ok());
    Some(match name {
        "md" => Box::new(Md::paper()),
        "lu" => Box::new(Lu::paper()),
        "cg" => Box::new(Cg::paper()),
        "ep" => Box::new(Ep::paper()),
        "pi" => Box::new(Pi::paper()),
        "mandelbrot" => Box::new(Mandelbrot::paper()),
        _ => {
            if let Some(s) = seed("test1:") {
                Box::new(Test1::new(Test1Params::random(s)))
            } else {
                Box::new(Test2::new(Test2Params::random(seed("test2:")?)))
            }
        }
    })
}

/// The workload-list resolver the daemon is started with, restricted to
/// the programs above.
pub fn resolver() -> Resolver {
    Arc::new(|list: &str| {
        let mut out = Vec::new();
        for tok in list.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if let Some((fam, range)) = tok.split_once(':') {
                if let Some((a, b)) = range.split_once("..") {
                    let a: u64 = a.parse().map_err(|_| format!("bad range {tok}"))?;
                    let b: u64 = b.parse().map_err(|_| format!("bad range {tok}"))?;
                    for s in a..b {
                        out.push(match fam {
                            "test1" => WorkloadSpec::test1(s),
                            _ => WorkloadSpec::test2(s),
                        });
                    }
                    continue;
                }
            }
            program(tok).ok_or_else(|| format!("unknown workload '{tok}'"))?;
            let name = tok.to_string();
            out.push(WorkloadSpec::program(name.clone(), move || {
                program(&name).expect("validated workload")
            }));
        }
        Ok(out)
    })
}

/// One recorded call.
pub struct Span {
    pub name: &'static str,
    pub rid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder; a no-op when off.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    fn new(epoch: Instant) -> Recorder {
        Recorder {
            on: true,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its index
    /// (`None` when off).
    fn begin(&mut self, name: &'static str, rid: u32) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            rid,
            start_ns: start,
            end_ns: start,
            parent: self.stack.last().copied(),
        });
        self.stack.push(self.spans.len() - 1);
        self.stack.last().copied()
    }

    fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now();
        let i = self.stack.pop().expect("end without begin");
        self.spans[i].end_ns = now;
    }

    /// A child of span `parent` whose duration was measured by the layer
    /// itself (engine stage counters), laid out after the parent's
    /// previous child so siblings never overlap. No-op without a parent.
    fn derived(&mut self, parent: Option<usize>, name: &'static str, rid: u32, dur_ns: u64) {
        let Some(parent) = parent else {
            return;
        };
        let start = self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent].start_ns);
        self.spans.push(Span {
            name,
            rid,
            start_ns: start,
            end_ns: start + dur_ns,
            parent: Some(parent),
        });
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64)
            .collect()
    }

    /// Self time of every span called `name`: its duration minus the
    /// time its direct children cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.dur().saturating_sub(child_ns[i]) as f64)
            .collect()
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"rid\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
                s.name, s.rid, s.start_ns, s.end_ns
            ));
        }
        std::fs::write(path, out)
    }
}

/// Hands the engine the profiles the replay already built, so
/// `evaluate_requests` runs against a warm profile cache as the daemon's
/// does.
struct Preloaded(HashMap<String, Profiled>);

impl ProfileStorage for Preloaded {
    fn load(&self, key: &str) -> Option<Profiled> {
        self.0.get(key).cloned()
    }

    fn save(&self, _key: &str, _profiled: &Profiled) {}
}

/// What the replay measured.
pub struct ReplayReport {
    pub rec: Recorder,
    pub iters_skipped: u64,
    pub logical_iters: u64,
    pub record_bytes: Vec<f64>,
    /// Wall nanoseconds of the untraced and traced request passes.
    pub untraced_ns: u64,
    pub traced_ns: u64,
    /// Bodies whose in-process response differed from the digest.
    pub mismatches: u64,
}

/// Logical parallel iterations an emulator would step through with no
/// run-aware shortcut: every child of every section activation.
pub fn logical_iters(tree: &ProgramTree) -> u64 {
    fn visit(tree: &ProgramTree, id: NodeId, memo: &mut HashMap<NodeId, u64>) -> u64 {
        if let Some(&v) = memo.get(&id) {
            return v;
        }
        let node = tree.node(id);
        let own = u64::from(matches!(node.kind, NodeKind::Sec { .. }));
        let v = match &node.children {
            ChildList::Plain(ids) => ids.iter().map(|&c| own + visit(tree, c, memo)).sum(),
            ChildList::Rle(runs) => runs
                .iter()
                .map(|r| u64::from(r.count) * (own + visit(tree, r.node, memo)))
                .sum(),
        };
        memo.insert(id, v);
        v
    }
    visit(tree, ProgramTree::ROOT, &mut HashMap::new())
}

/// Replay `bodies` (each naming one program) through the daemon's call
/// sequence. `expected` gives each body's response digest when known.
pub fn run(bodies: &[(Body, Option<u32>)], scratch: &Path) -> Result<ReplayReport, String> {
    let prophet = Arc::new(Prophet::new());
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);
    let resolver = resolver();

    // Programs first: profile, encode, append, decode, flatten — the
    // path a never-seen program takes through a daemon with a store.
    let mut keys: Vec<String> = bodies.iter().map(|(b, _)| b.workloads.clone()).collect();
    keys.sort();
    keys.dedup();
    let store_dir = scratch.join("replay-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let open = || {
        ProfileStore::builder(&store_dir)
            .open()
            .map_err(|e| format!("replay store: {e}"))
    };
    let store = open()?;
    let mut profiles: HashMap<String, Profiled> = HashMap::new();
    let mut flats: HashMap<String, FlatTree> = HashMap::new();
    let mut record_bytes = Vec::new();
    let mut logical = HashMap::new();
    for (rid, key) in keys.iter().enumerate() {
        let rid = rid as u32;
        let prog = program(key).ok_or_else(|| format!("unknown program {key}"))?;
        rec.begin("program", rid);
        rec.begin("tracer.profile", rid);
        let profiled = prophet.profile(&*prog);
        rec.end();
        rec.begin("codec.encode", rid);
        let mut payload = Vec::new();
        codec::encode_profiled(&profiled, &mut payload);
        rec.end();
        record_bytes.push(payload.len() as f64);
        rec.begin("store.put", rid);
        store.put(key, &profiled).map_err(|e| format!("put: {e}"))?;
        rec.end();
        rec.begin("codec.decode", rid);
        let decoded = codec::decode_profiled(&payload).map_err(|e| format!("decode: {e}"))?;
        rec.end();
        rec.begin("proftree.flatten", rid);
        let flat = FlatTree::from_tree(&decoded.tree);
        rec.end();
        rec.end();
        logical.insert(key.clone(), logical_iters(&decoded.tree));
        flats.insert(key.clone(), flat);
        profiles.insert(key.clone(), profiled);
    }
    // A reopened store maps its log and starts with a cold decode cache,
    // as a restarted daemon does.
    drop(store);
    let store = open()?;
    for (rid, key) in keys.iter().enumerate() {
        rec.begin("store.get", rid as u32);
        let got = store.get(key).map_err(|e| format!("get: {e}"))?;
        rec.end();
        if got.is_none() {
            return Err(format!("replay store lost {key}"));
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);

    let engine = SweepEngine::from_arc(Arc::clone(&prophet))
        .with_jobs(1)
        .with_profile_store(Arc::new(Preloaded(profiles)));
    let specs = (resolver)(&keys.join(",")).map_err(|e| format!("resolve: {e}"))?;
    for spec in &specs {
        engine.profiled(spec);
    }
    let machine = *prophet.machine();

    let mut report = ReplayReport {
        rec: Recorder::new(epoch),
        iters_skipped: 0,
        logical_iters: 0,
        record_bytes,
        untraced_ns: 0,
        traced_ns: 0,
        mismatches: 0,
    };
    // Then requests: parse, emulate each grid point, evaluate the whole
    // request as the batch worker does. Untraced and traced passes
    // alternate so drift hits both alike.
    for (pass, traced) in [false, true, false, true].into_iter().enumerate() {
        rec.on = traced;
        let t0 = Instant::now();
        for (rid, (body, expected)) in bodies.iter().enumerate() {
            let rid = (pass * bodies.len() + rid) as u32;
            let json = body.json();
            rec.begin("request", rid);
            rec.begin("serve.normalize", rid);
            let (norm, _) = NormalizedRequest::parse(&json, &resolver)
                .map_err(|e| format!("parse {json}: {e}"))?;
            rec.end();
            let flat = &flats[&body.workloads];
            let schedule = Schedule::parse(body.schedule.unwrap_or("static"))
                .ok_or_else(|| "bad schedule".to_string())?;
            for &threads in &body.threads {
                for &pred in &body.predictors {
                    if pred == "ff" {
                        let mut o = ffemu::FfOptions::new(threads);
                        o.schedule = schedule;
                        o.contended_lock_penalty = machine.context_switch_cycles;
                        rec.begin("ffemu.walk", rid);
                        let (_, c) = ffemu::predict_counting_flat(flat, o);
                        rec.end();
                        if traced {
                            report.iters_skipped += c.iters_skipped;
                            report.logical_iters += logical[&body.workloads];
                        }
                    } else {
                        let mut so = synthemu::SynthOptions::new(threads, Paradigm::OpenMp);
                        so.machine = machine;
                        so.schedule = schedule;
                        rec.begin("synthemu.predict", rid);
                        synthemu::predict_flat(flat, &so).map_err(|e| format!("syn: {e:?}"))?;
                        rec.end();
                    }
                }
            }
            let before = engine.stage_timings();
            let eval = rec.begin("serve.evaluate", rid);
            let out = evaluate_requests(&engine, std::slice::from_ref(&norm));
            rec.end();
            let stages = engine.stage_timings().since(&before);
            // Serialisation happens inside evaluate_requests; time the
            // same call on the same result to split it out.
            let result: SweepResult =
                serde_json::from_str(&out[0]).map_err(|e| format!("result json: {e:?}"))?;
            let t_ser = Instant::now();
            let again = serde_json::to_string_pretty(&result).map_err(|e| format!("{e:?}"))?;
            let ser_ns = t_ser.elapsed().as_nanos() as u64;
            rec.derived(eval, "sweep.profile_lookup", rid, stages.profile_nanos);
            rec.derived(eval, "sweep.emulate", rid, stages.predict_nanos);
            rec.derived(eval, "serve.serialize", rid, ser_ns);
            rec.end();
            if again != out[0] || expected.is_some_and(|d| d != digest32(out[0].as_bytes())) {
                report.mismatches += 1;
            }
        }
        let ns = t0.elapsed().as_nanos() as u64;
        if traced {
            report.traced_ns += ns;
        } else {
            report.untraced_ns += ns;
        }
    }
    rec.on = true;
    report.rec = rec;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut rec = Recorder::new(Instant::now());
        rec.spans = vec![
            Span {
                name: "root",
                rid: 0,
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "a",
                rid: 0,
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
            Span {
                name: "b",
                rid: 0,
                start_ns: 50,
                end_ns: 90,
                parent: Some(0),
            },
            Span {
                name: "c",
                rid: 0,
                start_ns: 55,
                end_ns: 60,
                parent: Some(2),
            },
        ];
        assert_eq!(rec.self_times("root"), vec![30.0]);
        assert_eq!(rec.self_times("b"), vec![35.0]);
        assert_eq!(rec.durations("c"), vec![5.0]);
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut rec = Recorder::new(Instant::now());
        rec.on = false;
        rec.begin("x", 0);
        rec.end();
        assert!(rec.spans.is_empty());
    }

    #[test]
    fn resolver_keys_match_the_daemon_convention() {
        let specs = (resolver())("md,test1:4,test2:1..3").expect("resolves");
        let keys: Vec<&str> = specs.iter().map(|s| s.key.as_str()).collect();
        assert_eq!(keys, ["md", "test1:4", "test2:1", "test2:2"]);
        assert!((resolver())("nosuch").is_err());
    }
}
