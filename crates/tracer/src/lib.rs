#![warn(missing_docs)]

//! The tracer: annotation API plus lightweight interval profiling.
//!
//! This crate plays the role of the paper's Pin-probe-mode tracer (§VI):
//! an annotated serial program runs once, and the tracer
//!
//! 1. collects the *length* (virtual cycles) of every annotation pair via
//!    a stack, building the program tree (§IV-B);
//! 2. collects memory counters per top-level parallel section through the
//!    `cachesim` hierarchy (the PAPI substitute);
//! 3. accounts its own profiling overhead separately so interval lengths
//!    stay *net* — the paper's §VI-A concern — while still reporting the
//!    gross slowdown for the §VII-D overhead experiments.
//!
//! An annotated program is anything implementing [`AnnotatedProgram`]; its
//! `run` drives computation through the [`Tracer`] (`work`/`read`/`write`)
//! and marks parallel structure with the Table II annotations
//! (`par_sec_begin`, `par_task_begin`, `lock_begin`, …).
//!
//! # Example
//!
//! ```
//! use tracer::{ProfileOptions, Tracer};
//!
//! let mut t = Tracer::new(ProfileOptions::default());
//! t.par_sec_begin("loop");
//! for i in 0..4u64 {
//!     t.par_task_begin("iter");
//!     t.work(1_000 + 100 * i); // unequal iterations
//!     t.par_task_end();
//! }
//! t.par_sec_end(false);
//! let result = t.finish().unwrap();
//! assert_eq!(result.tree.top_level_sections().len(), 1);
//! ```

use cachesim::{Counters, HierarchyConfig, MemSim};
use machsim::MachineConfig;
use proftree::{
    compress_tree, BuildError, CompressOptions, CompressStats, MemProfile, NodeId, ProgramTree,
    TreeBuilder,
};
use serde::{Deserialize, Serialize};

/// Options controlling one profiling run.
#[derive(Debug, Clone, Copy)]
pub struct ProfileOptions {
    /// Cache hierarchy the program's references run against.
    pub hierarchy: HierarchyConfig,
    /// Machine parameters (for cycle↔MB/s conversion; frequency only).
    pub machine: MachineConfig,
    /// Cycles of tracer overhead per annotation event (the Pin stub +
    /// `rdtsc` cost the paper excludes from lengths).
    pub annotation_overhead: u64,
    /// Cycles per hardware-counter read (top-level section begin/end).
    pub counter_read_overhead: u64,
    /// Compress the tree after the run.
    pub compress: bool,
    /// Compression options.
    pub compress_options: CompressOptions,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            hierarchy: HierarchyConfig::westmere_scaled(),
            machine: MachineConfig::westmere_scaled(),
            annotation_overhead: 180,
            counter_read_overhead: 900,
            compress: true,
            compress_options: CompressOptions::default(),
        }
    }
}

/// Result of profiling one annotated program.
///
/// Serializable so a profile can be persisted (the `prophet-store`
/// on-disk profile store) and re-loaded byte-identically: every field is
/// either an integer or built from exactly-roundtripping parts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileResult {
    /// The program tree (compressed when requested).
    pub tree: ProgramTree,
    /// Net program length in cycles (profiling overhead excluded) — the
    /// serial time `T` all speedups are computed against.
    pub net_cycles: u64,
    /// Gross wall cycles including tracer overhead: what the profiled run
    /// actually costs.
    pub gross_cycles: u64,
    /// Number of annotation events observed.
    pub annotation_events: u64,
    /// Compression accounting (`None` when compression was off).
    pub compress_stats: Option<CompressStats>,
    /// Peak (uncompressed) tree bytes during the run.
    pub peak_tree_bytes: usize,
    /// Whole-run counters.
    pub counters: Counters,
}

impl ProfileResult {
    /// Profiling slowdown factor (§VII-D: "1.1×-3.5× per estimate").
    pub fn slowdown(&self) -> f64 {
        if self.net_cycles == 0 {
            1.0
        } else {
            self.gross_cycles as f64 / self.net_cycles as f64
        }
    }
}

/// An annotated serial program: the input artifact of Parallel Prophet.
pub trait AnnotatedProgram {
    /// Program name (for reports).
    fn name(&self) -> &str;
    /// Execute the serial program against the tracer.
    fn run(&self, t: &mut Tracer);
}

/// The interval profiler. See the crate docs for the model.
pub struct Tracer {
    opts: ProfileOptions,
    mem: MemSim,
    builder: TreeBuilder,
    /// Virtual cycle stamp at the last annotation event.
    last_mark: u64,
    /// Accumulated tracer overhead (kept out of interval lengths).
    overhead_cycles: u64,
    annotation_events: u64,
    /// Open *top-level* section: node id and counters at entry.
    open_top_section: Option<(usize, Counters)>,
    /// Depth of currently open sections (to detect top level).
    section_depth: usize,
    /// Pending top-level section nodes awaiting counter attachment.
    pending_mem: Vec<(NodeId, MemProfile)>,
    /// Structured event recorder (virtual-time annotation spans).
    obs: Option<prophet_obs::ObsHandle>,
    /// Open annotation span labels, innermost last (obs span matching).
    span_labels: Vec<u32>,
}

impl Tracer {
    /// A fresh tracer.
    pub fn new(opts: ProfileOptions) -> Self {
        Tracer {
            mem: MemSim::new(opts.hierarchy),
            builder: TreeBuilder::new(),
            last_mark: 0,
            overhead_cycles: 0,
            annotation_events: 0,
            open_top_section: None,
            section_depth: 0,
            pending_mem: Vec::new(),
            obs: None,
            span_labels: Vec::new(),
            opts,
        }
    }

    /// Attach a `prophet-obs` recorder: every annotation pair becomes a
    /// span at the tracer's net virtual time, and `finish` records the
    /// total profiling overhead as an `overhead_subtract` event.
    pub fn attach_obs(&mut self, obs: prophet_obs::ObsHandle) {
        self.obs = Some(obs);
    }

    /// Record an annotation span boundary. On `begin`, `label` is
    /// interned and pushed; on end the innermost label is popped so the
    /// span end matches its begin even without the original name.
    fn obs_span(&mut self, begin: bool, kind: prophet_obs::SpanKind, label: Option<&str>) {
        let Some(h) = self.obs.as_ref() else { return };
        let label = if begin {
            let l = h.intern(label.unwrap_or("?"));
            self.span_labels.push(l);
            l
        } else {
            self.span_labels.pop().unwrap_or(0)
        };
        let t = self.mem.cycles();
        let kind = if begin {
            prophet_obs::EventKind::SpanBegin {
                kind,
                label,
                thread: 0,
            }
        } else {
            prophet_obs::EventKind::SpanEnd {
                kind,
                label,
                thread: 0,
            }
        };
        h.record(t, kind);
    }

    // ----- computation interface (the program's virtual data path) -----

    /// Account `n` pure-compute instructions.
    #[inline]
    pub fn work(&mut self, n: u64) {
        self.mem.work(n);
    }

    /// Simulate a load from `addr`.
    #[inline]
    pub fn read(&mut self, addr: u64) {
        self.mem.read(addr);
    }

    /// Simulate a store to `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64) {
        self.mem.write(addr);
    }

    /// Current net virtual time.
    pub fn now(&self) -> u64 {
        self.mem.cycles()
    }

    // ----- annotations (Table II) -----

    fn mark(&mut self) -> u64 {
        let now = self.mem.cycles();
        let delta = now - self.last_mark;
        self.last_mark = now;
        self.annotation_events += 1;
        self.overhead_cycles += self.opts.annotation_overhead;
        delta
    }

    /// `PAR_SEC_BEGIN(name)`.
    pub fn par_sec_begin(&mut self, name: &str) {
        self.try_par_sec_begin(name).expect("annotation error");
    }

    /// Fallible `PAR_SEC_BEGIN`.
    pub fn try_par_sec_begin(&mut self, name: &str) -> Result<(), BuildError> {
        let delta = self.mark();
        self.builder.add_compute(delta)?;
        self.builder.begin_sec(name)?;
        self.obs_span(true, prophet_obs::SpanKind::AnnotationSec, Some(name));
        if self.section_depth == 0 {
            // Start hardware counters for the top-level section.
            self.overhead_cycles += self.opts.counter_read_overhead;
            self.open_top_section = Some((0, self.mem.snapshot()));
        }
        self.section_depth += 1;
        Ok(())
    }

    /// `PAR_SEC_END(nowait)`.
    pub fn par_sec_end(&mut self, nowait: bool) {
        self.try_par_sec_end(nowait).expect("annotation error");
    }

    /// Fallible `PAR_SEC_END`.
    pub fn try_par_sec_end(&mut self, nowait: bool) -> Result<(), BuildError> {
        let delta = self.mark();
        self.builder.add_compute(delta)?;
        let sec_node = self.builder.end_sec(nowait)?;
        self.obs_span(false, prophet_obs::SpanKind::AnnotationSec, None);
        self.section_depth -= 1;
        if self.section_depth == 0 {
            if let Some((_, at_begin)) = self.open_top_section.take() {
                self.overhead_cycles += self.opts.counter_read_overhead;
                let d = self.mem.snapshot() - at_begin;
                let traffic_bpc = d.traffic_bytes_per_cycle();
                let profile = MemProfile {
                    instructions: d.instructions,
                    cycles: d.cycles,
                    llc_misses: d.llc_misses,
                    dram_bytes: d.dram_bytes,
                    traffic_mbps: self.opts.machine.bytes_per_cycle_to_mbps(traffic_bpc),
                };
                self.builder.set_section_mem(sec_node, profile);
                self.pending_mem.push((sec_node, profile));
            }
        }
        Ok(())
    }

    /// `PAR_TASK_BEGIN(name)`.
    pub fn par_task_begin(&mut self, name: &str) {
        self.try_par_task_begin(name).expect("annotation error");
    }

    /// Fallible `PAR_TASK_BEGIN`.
    pub fn try_par_task_begin(&mut self, name: &str) -> Result<(), BuildError> {
        let delta = self.mark();
        self.builder.add_compute(delta)?;
        self.builder.begin_task(name)?;
        self.obs_span(true, prophet_obs::SpanKind::AnnotationTask, Some(name));
        Ok(())
    }

    /// `PAR_TASK_END()`.
    pub fn par_task_end(&mut self) {
        self.try_par_task_end().expect("annotation error");
    }

    /// Fallible `PAR_TASK_END`.
    pub fn try_par_task_end(&mut self) -> Result<(), BuildError> {
        let delta = self.mark();
        self.builder.add_compute(delta)?;
        self.builder.end_task()?;
        self.obs_span(false, prophet_obs::SpanKind::AnnotationTask, None);
        Ok(())
    }

    /// `PIPE_BEGIN(name)`: open a pipeline region (the §VII-E pipeline
    /// extension; items are marked with `par_task_begin`, stages with
    /// `stage_begin`/`stage_end`).
    pub fn pipe_begin(&mut self, name: &str) {
        self.try_pipe_begin(name).expect("annotation error");
    }

    /// Fallible `PIPE_BEGIN`.
    pub fn try_pipe_begin(&mut self, name: &str) -> Result<(), BuildError> {
        let delta = self.mark();
        self.builder.add_compute(delta)?;
        self.builder.begin_pipe(name)?;
        self.obs_span(true, prophet_obs::SpanKind::AnnotationSec, Some(name));
        if self.section_depth == 0 {
            self.overhead_cycles += self.opts.counter_read_overhead;
            self.open_top_section = Some((0, self.mem.snapshot()));
        }
        self.section_depth += 1;
        Ok(())
    }

    /// `PIPE_END()`.
    pub fn pipe_end(&mut self) {
        self.try_pipe_end().expect("annotation error");
    }

    /// Fallible `PIPE_END`.
    pub fn try_pipe_end(&mut self) -> Result<(), BuildError> {
        let delta = self.mark();
        self.builder.add_compute(delta)?;
        let node = self.builder.end_pipe()?;
        self.obs_span(false, prophet_obs::SpanKind::AnnotationSec, None);
        self.section_depth -= 1;
        if self.section_depth == 0 {
            if let Some((_, at_begin)) = self.open_top_section.take() {
                self.overhead_cycles += self.opts.counter_read_overhead;
                let d = self.mem.snapshot() - at_begin;
                let traffic_bpc = d.traffic_bytes_per_cycle();
                let profile = MemProfile {
                    instructions: d.instructions,
                    cycles: d.cycles,
                    llc_misses: d.llc_misses,
                    dram_bytes: d.dram_bytes,
                    traffic_mbps: self.opts.machine.bytes_per_cycle_to_mbps(traffic_bpc),
                };
                self.builder.set_section_mem(node, profile);
                self.pending_mem.push((node, profile));
            }
        }
        Ok(())
    }

    /// `PIPE_STAGE_BEGIN(stage)`.
    pub fn stage_begin(&mut self, stage: u32) {
        self.try_stage_begin(stage).expect("annotation error");
    }

    /// Fallible `PIPE_STAGE_BEGIN`.
    pub fn try_stage_begin(&mut self, stage: u32) -> Result<(), BuildError> {
        let delta = self.mark();
        self.builder.add_compute(delta)?;
        self.builder.begin_stage(stage)
    }

    /// `PIPE_STAGE_END(stage)`.
    pub fn stage_end(&mut self, stage: u32) {
        self.try_stage_end(stage).expect("annotation error");
    }

    /// Fallible `PIPE_STAGE_END`.
    pub fn try_stage_end(&mut self, stage: u32) -> Result<(), BuildError> {
        let delta = self.mark();
        self.builder.add_compute(delta)?;
        self.builder.end_stage(stage)
    }

    /// `LOCK_BEGIN(id)`.
    pub fn lock_begin(&mut self, lock: u32) {
        self.try_lock_begin(lock).expect("annotation error");
    }

    /// Fallible `LOCK_BEGIN`.
    pub fn try_lock_begin(&mut self, lock: u32) -> Result<(), BuildError> {
        let delta = self.mark();
        self.builder.add_compute(delta)?;
        self.builder.begin_lock(lock)?;
        self.obs_span(
            true,
            prophet_obs::SpanKind::AnnotationLock,
            Some(&format!("lock{lock}")),
        );
        Ok(())
    }

    /// `LOCK_END(id)`.
    pub fn lock_end(&mut self, lock: u32) {
        self.try_lock_end(lock).expect("annotation error");
    }

    /// Fallible `LOCK_END`.
    pub fn try_lock_end(&mut self, lock: u32) -> Result<(), BuildError> {
        let delta = self.mark();
        self.builder.add_compute(delta)?;
        self.builder.end_lock(lock)?;
        self.obs_span(false, prophet_obs::SpanKind::AnnotationLock, None);
        Ok(())
    }

    /// Finish profiling: close the tree, optionally compress, and report.
    pub fn finish(mut self) -> Result<ProfileResult, BuildError> {
        let now = self.mem.cycles();
        let tail = now - self.last_mark;
        self.builder.add_compute(tail)?;
        if let Some(h) = self.obs.as_ref() {
            h.record(
                now,
                prophet_obs::EventKind::OverheadSubtract {
                    cycles: self.overhead_cycles,
                },
            );
        }
        let tree = self.builder.finish()?;
        let peak_tree_bytes = tree.approx_bytes();
        let counters = self.mem.snapshot();
        let net_cycles = tree.total_length();
        let gross_cycles = net_cycles + self.overhead_cycles;
        let (tree, compress_stats) = if self.opts.compress {
            let (t, s) = compress_tree(&tree, self.opts.compress_options);
            (t, Some(s))
        } else {
            (tree, None)
        };
        Ok(ProfileResult {
            tree,
            net_cycles,
            gross_cycles,
            annotation_events: self.annotation_events,
            compress_stats,
            peak_tree_bytes,
            counters,
        })
    }
}

/// Profile an annotated program end to end.
pub fn profile(program: &dyn AnnotatedProgram, opts: ProfileOptions) -> ProfileResult {
    let mut t = Tracer::new(opts);
    program.run(&mut t);
    t.finish()
        .unwrap_or_else(|e| panic!("annotation error in {}: {e}", program.name()))
}

/// Serializable summary of a profile (for experiment dumps).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileSummary {
    /// Program name.
    pub name: String,
    /// Net serial cycles.
    pub net_cycles: u64,
    /// Profiling slowdown.
    pub slowdown: f64,
    /// Stored tree nodes.
    pub tree_nodes: usize,
    /// LLC misses per instruction over the whole run.
    pub mpi: f64,
}

impl ProfileSummary {
    /// Build from a result.
    pub fn of(name: &str, r: &ProfileResult) -> Self {
        ProfileSummary {
            name: name.to_string(),
            net_cycles: r.net_cycles,
            slowdown: r.slowdown(),
            tree_nodes: r.tree.len(),
            mpi: r.counters.mpi(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proftree::NodeKind;

    #[test]
    fn intervals_match_work() {
        let mut t = Tracer::new(ProfileOptions::default());
        t.work(100); // 75 cycles at CPI 0.75
        t.par_sec_begin("s");
        t.par_task_begin("a");
        t.work(1000);
        t.par_task_end();
        t.par_task_begin("b");
        t.work(2000);
        t.par_task_end();
        t.par_sec_end(false);
        t.work(200);
        let r = t.finish().unwrap();
        assert_eq!(r.net_cycles, 75 + 750 + 1500 + 150);
        let secs = r.tree.top_level_sections();
        assert_eq!(r.tree.node(secs[0]).length, 2250);
        assert_eq!(r.tree.top_level_serial_length(), 225);
    }

    #[test]
    fn lock_intervals_recorded_as_l_nodes() {
        let mut t = Tracer::new(ProfileOptions::default());
        t.par_sec_begin("s");
        t.par_task_begin("a");
        t.work(100);
        t.lock_begin(3);
        t.work(400);
        t.lock_end(3);
        t.par_task_end();
        t.par_sec_end(false);
        let r = t.finish().unwrap();
        let l = r
            .tree
            .ids()
            .find(|&i| matches!(r.tree.node(i).kind, NodeKind::L { lock: 3 }))
            .expect("L node");
        assert_eq!(r.tree.node(l).length, 300); // 400 instr × 0.75
    }

    #[test]
    fn counters_attached_to_top_level_sections_only() {
        let mut t = Tracer::new(ProfileOptions::default());
        t.par_sec_begin("outer");
        t.par_task_begin("t");
        // Touch memory: a cold streaming pass.
        for addr in (0..(1u64 << 16)).step_by(64) {
            t.read(addr);
        }
        t.par_sec_begin("inner");
        t.par_task_begin("i");
        t.work(10);
        t.par_task_end();
        t.par_sec_end(false);
        t.par_task_end();
        t.par_sec_end(false);
        let r = t.finish().unwrap();
        let mut with_mem = 0;
        for id in r.tree.ids() {
            if let NodeKind::Sec { mem, name, .. } = &r.tree.node(id).kind {
                if mem.is_some() {
                    with_mem += 1;
                    assert_eq!(name, "outer");
                    let m = mem.as_ref().unwrap();
                    assert!(m.llc_misses > 0);
                    assert!(m.traffic_mbps > 0.0);
                }
            }
        }
        assert_eq!(with_mem, 1);
    }

    #[test]
    fn overhead_excluded_from_lengths_but_reported() {
        let run = |ovh: u64| {
            let opts = ProfileOptions {
                annotation_overhead: ovh,
                counter_read_overhead: 0,
                ..ProfileOptions::default()
            };
            let mut t = Tracer::new(opts);
            t.par_sec_begin("s");
            for _ in 0..10 {
                t.par_task_begin("x");
                t.work(1000);
                t.par_task_end();
            }
            t.par_sec_end(false);
            t.finish().unwrap()
        };
        let cheap = run(0);
        let dear = run(500);
        assert_eq!(
            cheap.net_cycles, dear.net_cycles,
            "net lengths must not see overhead"
        );
        assert!(dear.gross_cycles > dear.net_cycles);
        assert!(dear.slowdown() > 1.5);
        assert!((cheap.slowdown() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn annotation_misuse_is_reported() {
        let mut t = Tracer::new(ProfileOptions::default());
        assert!(t.try_par_task_begin("t").is_err());
        let mut t = Tracer::new(ProfileOptions::default());
        t.par_sec_begin("s");
        assert!(t.try_lock_begin(0).is_err());
        let mut t = Tracer::new(ProfileOptions::default());
        t.par_sec_begin("s");
        let err = t.finish().unwrap_err();
        assert!(matches!(err, BuildError::UnclosedAnnotations { .. }));
    }

    #[test]
    fn repeated_iterations_compress() {
        let mut t = Tracer::new(ProfileOptions::default());
        t.par_sec_begin("loop");
        for _ in 0..5000 {
            t.par_task_begin("i");
            t.work(777);
            t.par_task_end();
        }
        t.par_sec_end(false);
        let r = t.finish().unwrap();
        let stats = r.compress_stats.unwrap();
        assert!(stats.reduction() > 0.9, "reduction {}", stats.reduction());
        assert!(r.tree.len() < 10);
        assert_eq!(stats.logical_nodes, 2 + 2 * 5000);
    }

    #[test]
    fn profile_fn_runs_annotated_program() {
        struct P;
        impl AnnotatedProgram for P {
            fn name(&self) -> &str {
                "p"
            }
            fn run(&self, t: &mut Tracer) {
                t.par_sec_begin("s");
                t.par_task_begin("t");
                t.work(10);
                t.par_task_end();
                t.par_sec_end(true);
            }
        }
        let r = profile(&P, ProfileOptions::default());
        assert_eq!(r.tree.top_level_sections().len(), 1);
        let sec = r.tree.top_level_sections()[0];
        assert!(matches!(
            r.tree.node(sec).kind,
            NodeKind::Sec { nowait: true, .. }
        ));
    }

    #[test]
    fn summary_serializes() {
        let mut t = Tracer::new(ProfileOptions::default());
        t.work(100);
        let r = t.finish().unwrap();
        let s = ProfileSummary::of("x", &r);
        let js = serde_json::to_string(&s).unwrap();
        assert!(js.contains("\"name\":\"x\""));
    }
}
