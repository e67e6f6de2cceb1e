#![warn(missing_docs)]

//! The program-synthesis-based emulator (the synthesizer, paper §IV-E).
//!
//! Instead of analytically fast-forwarding clocks, the synthesizer
//! *generates a parallel program* from the program tree — every U/L node
//! becomes a `FakeDelay` busy-spin of the profiled length (scaled by the
//! section's burden factor), every lock a real mutex, every nested section
//! a real nested parallel construct — and measures its actual speedup on a
//! real machine. Here "real machine" is the simulated multicore of
//! `machsim` running the OpenMP-like or Cilk-like runtime, so all the
//! scheduling, oversubscription, preemption, and synchronisation details
//! the FF cannot model are captured automatically (Fig. 8's pseudo-code;
//! the Fig. 7 case is predicted correctly).
//!
//! The paper's one difficulty — the tree-traversing overhead of the
//! generated code — is modelled too: every emitted operation carries
//! `OVERHEAD_ACCESS_NODE` extra cycles and every nested section
//! `OVERHEAD_RECURSIVE_CALL`; after the measurement the synthesizer
//! subtracts its *estimate* of the per-worker overhead (total overhead
//! divided evenly among workers, the balanced assumption). Under workload
//! imbalance the estimate is imperfect — the same residual error the paper
//! reports for recursive benchmarks.
//!
//! Overall speedup follows §IV-E: top-level sections are measured one at a
//! time on a fresh machine, top-level serial computation is added
//! analytically, and `S = T_serial / (Σ emulated + Σ serial)`.
//!
//! Unlike the FF, predictions exist only for thread counts the machine can
//! actually host (Table III: "can only predict performance for a given
//! real machine").

use std::collections::HashMap;
use std::rc::Rc;

use cilk_rt::{run_program_cilk_on, CilkOverheads};
use machsim::prog::{POp, ParSection, Paradigm, ParallelProgram, Schedule, TaskBody, TaskList};
use machsim::{MachineConfig, RunError, WorkPacket};
use omp_rt::{run_program_on, OmpOverheads};
use proftree::{burden_factor, FlatTree, NodeId, ViewKind};
use serde::{Deserialize, Serialize};

/// Options for one synthesizer prediction.
#[derive(Debug, Clone, Copy)]
pub struct SynthOptions {
    /// The (simulated) real machine to measure on.
    pub machine: MachineConfig,
    /// Worker/team count to emulate (`nworkers` / `num_threads`).
    pub threads: u32,
    /// Threading paradigm of the generated code.
    pub paradigm: Paradigm,
    /// OpenMP schedule (ignored for Cilk).
    pub schedule: Schedule,
    /// OpenMP construct overheads.
    pub omp_overheads: OmpOverheads,
    /// Cilk runtime overheads.
    pub cilk_overheads: CilkOverheads,
    /// OpenMP 3.0 task-pool overheads.
    pub task_overheads: omp_rt::TaskOverheads,
    /// Apply burden factors from the tree.
    pub use_burden: bool,
    /// Synthesizer interpreter cost per visited node (≈ 50 cycles on the
    /// paper's machine).
    pub access_node_overhead: u64,
    /// Synthesizer cost per nested-section recursion.
    pub recursive_call_overhead: u64,
    /// Test-only escape hatch: emit one IR entry per *logical* iteration
    /// instead of run-batched `(body, count)` blocks. The generated
    /// program is identical either way (see `tests/ff_runaware.rs`);
    /// expansion merely restores the O(trip count) emission cost.
    pub expand_runs: bool,
}

impl SynthOptions {
    /// Defaults on the scaled Westmere machine.
    pub fn new(threads: u32, paradigm: Paradigm) -> Self {
        SynthOptions {
            machine: MachineConfig::westmere_scaled(),
            threads,
            paradigm,
            schedule: Schedule::static_block(),
            omp_overheads: OmpOverheads::westmere_scaled(),
            cilk_overheads: CilkOverheads::westmere_scaled(),
            task_overheads: omp_rt::TaskOverheads::westmere_scaled(),
            use_burden: true,
            access_node_overhead: 50,
            recursive_call_overhead: 50,
            expand_runs: false,
        }
    }
}

/// Per-section emulation record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SectionEmul {
    /// Serial length of the section.
    pub serial_cycles: u64,
    /// Gross measured cycles (incl. tree-traversing overhead).
    pub gross_cycles: u64,
    /// Net cycles after overhead subtraction.
    pub net_cycles: u64,
    /// Burden factor applied.
    pub burden: f64,
}

/// The synthesizer's prediction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SynthPrediction {
    /// Total predicted parallel time.
    pub predicted_cycles: u64,
    /// Serial time from the tree.
    pub serial_cycles: u64,
    /// Predicted speedup.
    pub speedup: f64,
    /// Per top-level section details.
    pub sections: Vec<SectionEmul>,
}

/// IR generation state for one section.
struct Gen<'t> {
    tree: &'t FlatTree,
    factor: f64,
    opts: SynthOptions,
    memo: HashMap<NodeId, Rc<TaskBody>>,
    /// Per-task cached [`body_overhead`] so run-batched emission charges
    /// `count × overhead` without re-walking the body per iteration.
    ovh_memo: HashMap<NodeId, u64>,
    /// Total synthesizer-overhead cycles emitted (logical).
    overhead_emitted: u64,
}

impl Gen<'_> {
    fn scale(&self, len: u64) -> u64 {
        if (self.factor - 1.0).abs() < 1e-12 {
            len
        } else {
            (len as f64 * self.factor).round() as u64
        }
    }

    /// Logical overhead embedded in `task`'s already-generated body,
    /// cached per task node.
    fn cached_overhead(&mut self, task: NodeId, body: &Rc<TaskBody>) -> u64 {
        if let Some(&h) = self.ovh_memo.get(&task) {
            return h;
        }
        let h = body_overhead(body, &self.opts);
        self.ovh_memo.insert(task, h);
        h
    }

    fn task_body(&mut self, task: NodeId) -> Rc<TaskBody> {
        if let Some(b) = self.memo.get(&task).cloned() {
            // Shared (compressed) subtree: overhead still accrues per
            // logical execution.
            self.overhead_emitted += self.cached_overhead(task, &b);
            return b;
        }
        let mut ops = Vec::new();
        let tree = self.tree;
        for child in tree.expanded(task) {
            match tree.kind(child) {
                ViewKind::U => {
                    self.overhead_emitted += self.opts.access_node_overhead;
                    ops.push(POp::Work(WorkPacket::cpu(
                        self.scale(tree.length(child)) + self.opts.access_node_overhead,
                    )));
                }
                ViewKind::L { lock } => {
                    self.overhead_emitted += self.opts.access_node_overhead;
                    if self.opts.access_node_overhead > 0 {
                        ops.push(POp::Work(WorkPacket::cpu(self.opts.access_node_overhead)));
                    }
                    ops.push(POp::Locked {
                        lock,
                        work: WorkPacket::cpu(self.scale(tree.length(child))),
                    });
                }
                ViewKind::Sec { .. } => {
                    self.overhead_emitted += self.opts.recursive_call_overhead;
                    if self.opts.recursive_call_overhead > 0 {
                        ops.push(POp::Work(WorkPacket::cpu(
                            self.opts.recursive_call_overhead,
                        )));
                    }
                    ops.push(POp::Par(self.section_ir(child)));
                }
                other => unreachable!("invalid node under task: {}", other.tag()),
            }
        }
        let body = Rc::new(TaskBody { ops });
        self.memo.insert(task, body.clone());
        body
    }

    /// Convert the U/L children of a Stage node into stage ops.
    fn stage_ops(&mut self, stage: NodeId) -> Vec<POp> {
        let mut ops = Vec::new();
        let tree = self.tree;
        for child in tree.expanded(stage) {
            match tree.kind(child) {
                ViewKind::U => {
                    self.overhead_emitted += self.opts.access_node_overhead;
                    ops.push(POp::Work(WorkPacket::cpu(
                        self.scale(tree.length(child)) + self.opts.access_node_overhead,
                    )));
                }
                ViewKind::L { lock } => {
                    self.overhead_emitted += self.opts.access_node_overhead;
                    if self.opts.access_node_overhead > 0 {
                        ops.push(POp::Work(WorkPacket::cpu(self.opts.access_node_overhead)));
                    }
                    ops.push(POp::Locked {
                        lock,
                        work: WorkPacket::cpu(self.scale(tree.length(child))),
                    });
                }
                other => unreachable!("invalid node under stage: {}", other.tag()),
            }
        }
        ops
    }

    /// Convert a Pipe node into a pipeline IR section.
    fn pipe_ir(&mut self, pipe: NodeId) -> machsim::prog::PipeSection {
        let mut items = Vec::new();
        let mut stages = 0u32;
        let tree = self.tree;
        for item in tree.expanded(pipe) {
            let mut stage_ops = Vec::new();
            for st in tree.expanded(item) {
                match tree.kind(st) {
                    ViewKind::Stage { .. } => stage_ops.push(self.stage_ops(st)),
                    other => unreachable!("invalid node under pipe item: {}", other.tag()),
                }
            }
            stages = stages.max(stage_ops.len() as u32);
            items.push(std::rc::Rc::new(machsim::prog::PipeItem {
                stages: stage_ops,
            }));
        }
        machsim::prog::PipeSection { items, stages }
    }

    fn section_ir(&mut self, sec: NodeId) -> ParSection {
        let tree = self.tree;
        let nowait = match tree.kind(sec) {
            ViewKind::Sec { nowait, .. } => nowait,
            other => unreachable!("expected Sec, got {}", other.tag()),
        };
        let tasks: TaskList = if self.opts.expand_runs {
            tree.expanded(sec)
                .map(|t| self.task_body(t))
                .collect::<Vec<_>>()
                .into()
        } else {
            // Run-batched emission: one `(body, count)` entry per RLE run.
            // The first iteration's overhead accrues inside `task_body`
            // (build or memo hit); the remaining `count - 1` iterations
            // charge the cached per-body overhead in one multiply —
            // exactly the sum the expanded path accumulates one memo hit
            // at a time.
            let runs: Vec<(Rc<TaskBody>, u32)> = tree
                .runs_of(sec)
                .iter()
                .map(|run| {
                    let body = self.task_body(run.node);
                    if run.count > 1 {
                        let h = self.cached_overhead(run.node, &body);
                        self.overhead_emitted += (run.count as u64 - 1) * h;
                    }
                    (body, run.count)
                })
                .collect();
            TaskList::from_runs(runs)
        };
        ParSection {
            tasks,
            schedule: self.opts.schedule,
            nowait,
            team: Some(self.opts.threads),
        }
    }
}

/// Logical overhead embedded in an already-generated body (for memo hits).
fn body_overhead(body: &TaskBody, opts: &SynthOptions) -> u64 {
    body.ops
        .iter()
        .map(|op| match op {
            POp::Work(_) | POp::Locked { .. } => opts.access_node_overhead,
            POp::Par(sec) => {
                // Per-run multiply instead of per-logical-task walk: the
                // u64 product equals the repeated sum exactly.
                opts.recursive_call_overhead
                    + sec
                        .tasks
                        .runs()
                        .iter()
                        .map(|(t, c)| *c as u64 * body_overhead(t, opts))
                        .sum::<u64>()
            }
            POp::Pipe(pipe) => {
                opts.recursive_call_overhead
                    + pipe
                        .items
                        .iter()
                        .flat_map(|it| it.stages.iter())
                        .flat_map(|ops| ops.iter())
                        .map(|op| match op {
                            POp::Work(_) | POp::Locked { .. } => opts.access_node_overhead,
                            _ => 0,
                        })
                        .sum::<u64>()
            }
        })
        .sum()
}

/// Burden factor of a top-level region under `opts`.
fn region_burden(tree: &FlatTree, sec: NodeId, opts: &SynthOptions) -> f64 {
    match tree.kind(sec) {
        ViewKind::Sec { burden, .. } | ViewKind::Pipe { burden, .. } if opts.use_burden => {
            burden_factor(burden, opts.threads)
        }
        _ => 1.0,
    }
}

/// Generate the program the synthesizer would measure for top-level
/// section (or pipeline) `sec`, a *flat* node id (map source-tree ids
/// with [`FlatTree::flat_id`]), plus the logical traversal-overhead
/// cycles it embeds. Public so the run-batched and force-expanded
/// emission paths can be compared structurally (`tests/ff_runaware.rs`).
pub fn section_program(
    tree: &FlatTree,
    sec: NodeId,
    opts: &SynthOptions,
) -> (ParallelProgram, u64) {
    let burden = region_burden(tree, sec, opts);
    let mut gen = Gen {
        tree,
        factor: burden,
        opts: *opts,
        memo: HashMap::new(),
        ovh_memo: HashMap::new(),
        overhead_emitted: 0,
    };
    let top_op = match tree.kind(sec) {
        ViewKind::Pipe { .. } => POp::Pipe(gen.pipe_ir(sec)),
        _ => POp::Par(gen.section_ir(sec)),
    };
    (ParallelProgram { ops: vec![top_op] }, gen.overhead_emitted)
}

/// Generate the section's IR and measure it on `machine` (fresh or
/// freshly [`machsim::Machine::reset`]).
fn run_section(
    tree: &FlatTree,
    sec: NodeId,
    opts: &SynthOptions,
    machine: &mut machsim::Machine,
) -> Result<SectionEmul, RunError> {
    let (program, overhead_emitted) = section_program(tree, sec, opts);
    let burden = region_burden(tree, sec, opts);

    let is_pipe = matches!(program.ops.first(), Some(POp::Pipe(_)));
    let stats = match opts.paradigm {
        // Pipelines are hosted by the OpenMP-like runtime's stage threads.
        Paradigm::OpenMp => run_program_on(machine, &program, opts.omp_overheads, opts.threads)?,
        Paradigm::CilkPlus | Paradigm::OmpTask if is_pipe => {
            run_program_on(machine, &program, opts.omp_overheads, opts.threads)?
        }
        Paradigm::CilkPlus => {
            run_program_cilk_on(machine, &program, opts.cilk_overheads, opts.threads)?
        }
        Paradigm::OmpTask => {
            omp_rt::run_program_tasks_on(machine, &program, opts.task_overheads, opts.threads)?
        }
    };
    let gross = stats.elapsed_cycles;
    // Subtract the balanced estimate of per-worker traversal overhead
    // (Fig. 8 line 26 takes the longest per-worker count; we estimate it
    // as total/threads — imperfect under imbalance, as the paper notes).
    let est = overhead_emitted / opts.threads.max(1) as u64;
    let net = gross.saturating_sub(est).max(1);
    if let Some(h) = machine.obs_handle() {
        h.record(
            gross,
            prophet_obs::EventKind::OverheadSubtract { cycles: est },
        );
    }
    Ok(SectionEmul {
        serial_cycles: tree.length(sec),
        gross_cycles: gross,
        net_cycles: net,
        burden,
    })
}

/// Predict the speedup of the flattened program tree `flat` with the
/// synthesizer. Build the arena once per tree and reuse it for every
/// prediction over it.
///
/// One measurement machine is allocated for the whole prediction and
/// [`machsim::Machine::reset`] between top-level sections, so the
/// event-heap/ready-queue allocations are paid once, not per section.
/// Each section still observes a logically fresh machine (clock at 0).
pub fn predict_flat(flat: &FlatTree, opts: &SynthOptions) -> Result<SynthPrediction, RunError> {
    predict_on(flat, opts, machsim::Machine::new(opts.machine))
}

/// [`predict_flat`], recording every measurement machine's scheduler
/// events plus the synthesizer's overhead-subtraction corrections on
/// `obs`. The measurement machine's virtual clock restarts at 0 for
/// every top-level section, so timestamps are section-local.
pub fn predict_with_obs(
    flat: &FlatTree,
    opts: &SynthOptions,
    obs: prophet_obs::ObsHandle,
) -> Result<SynthPrediction, RunError> {
    let mut machine = machsim::Machine::new(opts.machine);
    machine.attach_obs(obs);
    predict_on(flat, opts, machine)
}

fn predict_on(
    tree: &FlatTree,
    opts: &SynthOptions,
    mut machine: machsim::Machine,
) -> Result<SynthPrediction, RunError> {
    assert!(opts.threads >= 1, "synthesizer needs at least one thread");
    let serial_cycles = tree.total_length();
    let serial_top = tree.top_level_serial_length();
    let mut sections = Vec::new();
    let mut emulated_total = serial_top;
    for (i, sec) in tree.top_level_regions().into_iter().enumerate() {
        if i > 0 {
            machine.reset();
        }
        let e = run_section(tree, sec, opts, &mut machine)?;
        emulated_total += e.net_cycles;
        sections.push(e);
    }
    let predicted_cycles = emulated_total.max(1);
    Ok(SynthPrediction {
        predicted_cycles,
        serial_cycles,
        speedup: serial_cycles as f64 / predicted_cycles as f64,
        sections,
    })
}

/// Sweep thread counts (capped at the machine's cores, which is all the
/// synthesizer can measure) and return `(threads, speedup)`.
pub fn speedup_curve(
    flat: &FlatTree,
    base: &SynthOptions,
    thread_counts: &[u32],
) -> Result<Vec<(u32, f64)>, RunError> {
    let mut out = Vec::new();
    for &t in thread_counts {
        if t > base.machine.cores {
            continue;
        }
        let mut o = *base;
        o.threads = t;
        out.push((t, predict_flat(flat, &o)?.speedup));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proftree::{ProgramTree, TreeBuilder};

    fn predict(tree: &ProgramTree, opts: &SynthOptions) -> Result<SynthPrediction, RunError> {
        predict_flat(&FlatTree::from_tree(tree), opts)
    }

    fn zero_opts(threads: u32, paradigm: Paradigm, cores: u32) -> SynthOptions {
        let mut o = SynthOptions::new(threads, paradigm);
        o.machine = MachineConfig::small(cores);
        o.omp_overheads = OmpOverheads::zero();
        o.cilk_overheads = CilkOverheads::zero();
        o.access_node_overhead = 0;
        o.recursive_call_overhead = 0;
        o
    }

    fn balanced_loop(n: usize, len: u64) -> ProgramTree {
        let mut b = TreeBuilder::new();
        b.begin_sec("s").unwrap();
        for _ in 0..n {
            b.begin_task("t").unwrap();
            b.add_compute(len).unwrap();
            b.end_task().unwrap();
        }
        b.end_sec(false).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn balanced_loop_near_perfect_speedup_openmp() {
        let tree = balanced_loop(16, 10_000);
        let mut o = zero_opts(4, Paradigm::OpenMp, 4);
        o.schedule = Schedule::static1();
        let p = predict(&tree, &o).unwrap();
        assert!((p.speedup - 4.0).abs() < 0.05, "speedup {}", p.speedup);
    }

    #[test]
    fn balanced_loop_near_perfect_speedup_cilk() {
        let tree = balanced_loop(64, 10_000);
        let o = zero_opts(4, Paradigm::CilkPlus, 4);
        let p = predict(&tree, &o).unwrap();
        assert!(p.speedup > 3.5, "speedup {}", p.speedup);
    }

    #[test]
    fn fig7_nested_correctly_predicted() {
        // The case the FF gets wrong (1.5): the synthesizer, running on
        // the preemptive machine, should find ~2.0. Scale lengths up so
        // quantum slicing operates.
        let unit = 10_000u64;
        let mut b = TreeBuilder::new();
        b.begin_sec("outer").unwrap();
        for lens in [[10 * unit, 5 * unit], [5 * unit, 10 * unit]] {
            b.begin_task("ot").unwrap();
            b.begin_sec("inner").unwrap();
            for l in lens {
                b.begin_task("it").unwrap();
                b.add_compute(l).unwrap();
                b.end_task().unwrap();
            }
            b.end_sec(false).unwrap();
            b.end_task().unwrap();
        }
        b.end_sec(false).unwrap();
        let tree = b.finish().unwrap();

        let mut o = zero_opts(2, Paradigm::OpenMp, 2);
        o.schedule = Schedule::static1();
        o.machine.quantum_cycles = 5_000;
        let p = predict(&tree, &o).unwrap();
        assert!(
            p.speedup > 1.85,
            "synthesizer should see ~2.0, got {}",
            p.speedup
        );
    }

    #[test]
    fn burden_scales_delays() {
        let mut tree = balanced_loop(8, 10_000);
        let sec = tree.top_level_sections()[0];
        if let proftree::NodeKind::Sec { burden, .. } = &mut tree.node_mut(sec).kind {
            *burden = proftree::BurdenTable::from_entries(vec![(4, 1.5)]);
        }
        let mut o = zero_opts(4, Paradigm::OpenMp, 4);
        o.schedule = Schedule::static1();
        let with = predict(&tree, &o).unwrap();
        o.use_burden = false;
        let without = predict(&tree, &o).unwrap();
        let ratio = with.predicted_cycles as f64 / without.predicted_cycles as f64;
        assert!((ratio - 1.5).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn serial_parts_added_analytically() {
        let mut b = TreeBuilder::new();
        b.add_compute(50_000).unwrap();
        b.begin_sec("s").unwrap();
        for _ in 0..4 {
            b.begin_task("t").unwrap();
            b.add_compute(10_000).unwrap();
            b.end_task().unwrap();
        }
        b.end_sec(false).unwrap();
        let tree = b.finish().unwrap();
        let mut o = zero_opts(4, Paradigm::OpenMp, 4);
        o.schedule = Schedule::static1();
        let p = predict(&tree, &o).unwrap();
        // 50_000 serial + ~10_000 parallel.
        assert!(
            (p.predicted_cycles as i64 - 60_000).unsigned_abs() < 500,
            "predicted {}",
            p.predicted_cycles
        );
    }

    #[test]
    fn locks_serialize_in_emulation() {
        let mut b = TreeBuilder::new();
        b.begin_sec("s").unwrap();
        for _ in 0..4 {
            b.begin_task("t").unwrap();
            b.begin_lock(1).unwrap();
            b.add_compute(5_000).unwrap();
            b.end_lock(1).unwrap();
            b.end_task().unwrap();
        }
        b.end_sec(false).unwrap();
        let tree = b.finish().unwrap();
        let mut o = zero_opts(4, Paradigm::OpenMp, 4);
        o.schedule = Schedule::static1();
        let p = predict(&tree, &o).unwrap();
        assert!(
            (p.speedup - 1.0).abs() < 0.05,
            "lock-bound speedup {}",
            p.speedup
        );
    }

    #[test]
    fn traversal_overhead_subtraction_close_to_gross_minus_real() {
        // With overhead on, net should be near the zero-overhead gross.
        let tree = balanced_loop(64, 5_000);
        let mut o = zero_opts(4, Paradigm::OpenMp, 4);
        o.schedule = Schedule::static1();
        let clean = predict(&tree, &o).unwrap();
        o.access_node_overhead = 50;
        let noisy = predict(&tree, &o).unwrap();
        let rel = (noisy.predicted_cycles as f64 - clean.predicted_cycles as f64).abs()
            / clean.predicted_cycles as f64;
        assert!(rel < 0.05, "net-of-overhead deviates {rel}");
    }

    #[test]
    fn curve_skips_thread_counts_beyond_machine() {
        let tree = balanced_loop(8, 1_000);
        let o = zero_opts(1, Paradigm::OpenMp, 4);
        let curve = speedup_curve(&FlatTree::from_tree(&tree), &o, &[1, 2, 4, 8, 12]).unwrap();
        let counts: Vec<u32> = curve.iter().map(|&(t, _)| t).collect();
        assert_eq!(counts, vec![1, 2, 4]);
    }

    #[test]
    fn compressed_tree_same_prediction() {
        let tree = balanced_loop(500, 2_000);
        let (ctree, _) = proftree::compress_tree(&tree, proftree::CompressOptions::default());
        let mut o = zero_opts(4, Paradigm::OpenMp, 4);
        o.schedule = Schedule::static1();
        let a = predict(&tree, &o).unwrap();
        let b = predict(&ctree, &o).unwrap();
        let rel = (a.predicted_cycles as f64 - b.predicted_cycles as f64).abs()
            / a.predicted_cycles as f64;
        assert!(rel < 0.01, "compressed prediction deviates {rel}");
    }

    #[test]
    fn nowait_section_respected() {
        let mut b = TreeBuilder::new();
        b.begin_sec("s").unwrap();
        b.begin_task("t").unwrap();
        b.add_compute(1_000).unwrap();
        b.end_task().unwrap();
        b.end_sec(true).unwrap();
        let tree = b.finish().unwrap();
        let mut o = zero_opts(2, Paradigm::OpenMp, 2);
        o.schedule = Schedule::static1();
        let p = predict(&tree, &o).unwrap();
        assert!(p.predicted_cycles >= 1_000);
    }
}
