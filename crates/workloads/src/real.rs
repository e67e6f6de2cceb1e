//! The ground-truth runner: execute the *actually parallelised* program
//! on the simulated machine.
//!
//! The paper validates its predictions against real parallelised code on
//! real hardware ("Real" in Fig. 2/11/12). Our stand-in converts a
//! profiled program tree into a [`ParallelProgram`] where every terminal
//! node carries its *measured* compute cycles and its share of the
//! section's *measured* LLC misses (apportioned by length), then runs it
//! under the OpenMP-like or Cilk-like runtime on `machsim`. Memory-bound
//! sections thus genuinely contend for DRAM bandwidth, and the resulting
//! speedups saturate exactly where the machine's memory system says they
//! must — independently of the memory model being evaluated.

use std::collections::HashMap;
use std::rc::Rc;

use cilk_rt::{run_program_cilk_on, CilkOverheads};
use machsim::prog::{POp, ParSection, Paradigm, ParallelProgram, Schedule, TaskBody};
use machsim::{MachineConfig, RunError, RunStats, WorkPacket};
use omp_rt::{run_program_on, OmpOverheads};
use proftree::{visit::expanded_children, NodeId, NodeKind, ProgramTree};
use serde::{Deserialize, Serialize};

/// Options for a ground-truth run.
#[derive(Debug, Clone, Copy)]
pub struct RealOptions {
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Thread/team count of the parallelised program.
    pub threads: u32,
    /// Threading paradigm.
    pub paradigm: Paradigm,
    /// OpenMP schedule.
    pub schedule: Schedule,
    /// OpenMP runtime overheads.
    pub omp_overheads: OmpOverheads,
    /// Cilk runtime overheads.
    pub cilk_overheads: CilkOverheads,
    /// OpenMP 3.0 task-pool overheads.
    pub task_overheads: omp_rt::TaskOverheads,
    /// Scale applied to every task's LLC misses in the parallel run,
    /// modelling serial→parallel cache-trend effects (Table IV rows 1/3).
    /// `1.0` keeps Assumption 4 (misses unchanged); < 1 models the
    /// aggregate-cache-growth (super-linear) case, > 1 the sharing/
    /// conflict-growth case.
    pub miss_scale: f64,
}

impl RealOptions {
    /// Defaults on the scaled Westmere machine.
    pub fn new(threads: u32, paradigm: Paradigm, schedule: Schedule) -> Self {
        RealOptions {
            machine: MachineConfig::westmere_scaled(),
            threads,
            paradigm,
            schedule,
            omp_overheads: OmpOverheads::westmere_scaled(),
            cilk_overheads: CilkOverheads::westmere_scaled(),
            task_overheads: omp_rt::TaskOverheads::westmere_scaled(),
            miss_scale: 1.0,
        }
    }
}

/// Result of a ground-truth run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RealResult {
    /// Parallel makespan, cycles.
    pub elapsed_cycles: u64,
    /// Serial time of the profiled tree.
    pub serial_cycles: u64,
    /// The real speedup.
    pub speedup: f64,
    /// Machine statistics of the run.
    pub stats: RunStats,
}

/// Per-section memory intensity: misses per cycle, derived from the
/// section's counters.
fn section_miss_rate(tree: &ProgramTree, sec: NodeId) -> f64 {
    match &tree.node(sec).kind {
        NodeKind::Sec { mem: Some(m), .. } | NodeKind::Pipe { mem: Some(m), .. }
            if m.cycles > 0 =>
        {
            m.llc_misses as f64 / m.cycles as f64
        }
        _ => 0.0,
    }
}

struct Conv<'t> {
    tree: &'t ProgramTree,
    omega0: f64,
    memo: HashMap<NodeId, Rc<TaskBody>>,
    threads: u32,
    schedule: Schedule,
    miss_scale: f64,
}

impl<'t> Conv<'t> {
    /// A terminal node of `len` cycles at `miss_rate` misses/cycle becomes
    /// a packet whose baseline duration equals `len`: the memory-stall
    /// share is `m·ω₀` and the compute share the rest.
    fn packet(&self, len: u64, miss_rate: f64) -> WorkPacket {
        if miss_rate <= 0.0 || len == 0 {
            return WorkPacket::cpu(len);
        }
        // Split the measured length into compute and DRAM-stall shares
        // first…
        let misses = (len as f64 * miss_rate).round();
        let stall = (misses * self.omega0).min(len as f64);
        let misses = (stall / self.omega0).floor() as u64;
        let compute = len - (misses as f64 * self.omega0).round() as u64;
        // …then apply the cache-trend scale to the *misses only*: removed
        // misses take their stall with them (the packet's baseline drops
        // below the serial length — the super-linear case), added misses
        // lengthen it.
        let misses = (misses as f64 * self.miss_scale).round() as u64;
        WorkPacket::new(compute, misses)
    }

    fn task_body(&mut self, task: NodeId, miss_rate: f64) -> Rc<TaskBody> {
        if let Some(b) = self.memo.get(&task) {
            return b.clone();
        }
        let mut ops = Vec::new();
        for child in expanded_children(self.tree, task) {
            let node = self.tree.node(child);
            match &node.kind {
                NodeKind::U => ops.push(POp::Work(self.packet(node.length, miss_rate))),
                NodeKind::L { lock } => ops.push(POp::Locked {
                    lock: *lock,
                    work: self.packet(node.length, miss_rate),
                }),
                NodeKind::Sec { .. } => ops.push(POp::Par(self.section(child, miss_rate))),
                other => unreachable!("invalid node under task: {}", other.tag()),
            }
        }
        let body = Rc::new(TaskBody { ops });
        self.memo.insert(task, body.clone());
        body
    }

    /// Convert a Pipe node into pipeline IR with per-node traffic.
    fn pipe(&mut self, pipe: NodeId) -> machsim::prog::PipeSection {
        let rate = section_miss_rate(self.tree, pipe);
        let mut items = Vec::new();
        let mut stages = 0u32;
        for item in expanded_children(self.tree, pipe) {
            let mut stage_ops: Vec<Vec<POp>> = Vec::new();
            for st in expanded_children(self.tree, item) {
                debug_assert!(matches!(self.tree.node(st).kind, NodeKind::Stage { .. }));
                let mut ops = Vec::new();
                for child in expanded_children(self.tree, st) {
                    let node = self.tree.node(child);
                    match &node.kind {
                        NodeKind::U => ops.push(POp::Work(self.packet(node.length, rate))),
                        NodeKind::L { lock } => ops.push(POp::Locked {
                            lock: *lock,
                            work: self.packet(node.length, rate),
                        }),
                        other => unreachable!("invalid node under stage: {}", other.tag()),
                    }
                }
                stage_ops.push(ops);
            }
            stages = stages.max(stage_ops.len() as u32);
            items.push(Rc::new(machsim::prog::PipeItem { stages: stage_ops }));
        }
        machsim::prog::PipeSection { items, stages }
    }

    fn section(&mut self, sec: NodeId, inherited_rate: f64) -> ParSection {
        let own_rate = section_miss_rate(self.tree, sec);
        let rate = if own_rate > 0.0 {
            own_rate
        } else {
            inherited_rate
        };
        let nowait = matches!(
            &self.tree.node(sec).kind,
            NodeKind::Sec { nowait: true, .. }
        );
        let tasks: Vec<Rc<TaskBody>> = expanded_children(self.tree, sec)
            .map(|t| self.task_body(t, rate))
            .collect();
        ParSection {
            tasks: tasks.into(),
            schedule: self.schedule,
            nowait,
            team: Some(self.threads),
        }
    }
}

/// Convert a profiled tree into the parallelised program it annotates.
pub fn real_program(tree: &ProgramTree, opts: &RealOptions) -> ParallelProgram {
    let mut conv = Conv {
        tree,
        omega0: opts.machine.dram_base_stall,
        memo: HashMap::new(),
        threads: opts.threads,
        schedule: opts.schedule,
        miss_scale: opts.miss_scale,
    };
    let mut ops = Vec::new();
    for child in expanded_children(tree, ProgramTree::ROOT) {
        match &tree.node(child).kind {
            NodeKind::U => ops.push(POp::Work(WorkPacket::cpu(tree.node(child).length))),
            NodeKind::Sec { .. } => {
                let sec = conv.section(child, 0.0);
                ops.push(POp::Par(sec));
            }
            NodeKind::Pipe { .. } => {
                let pipe = conv.pipe(child);
                ops.push(POp::Pipe(pipe));
            }
            other => unreachable!("invalid top-level node {}", other.tag()),
        }
    }
    ParallelProgram { ops }
}

/// Run the parallelised program and report its real speedup.
pub fn run_real(tree: &ProgramTree, opts: &RealOptions) -> Result<RealResult, RunError> {
    let mut machine = machsim::Machine::new(opts.machine);
    run_real_on(tree, opts, &mut machine)
}

/// [`run_real`] with a `prophet-obs` recorder attached to the machine:
/// every scheduler, lock, barrier, chunk and steal event of the run is
/// recorded on the machine's virtual clock.
pub fn run_real_with_obs(
    tree: &ProgramTree,
    opts: &RealOptions,
    obs: prophet_obs::ObsHandle,
) -> Result<RealResult, RunError> {
    let mut machine = machsim::Machine::new(opts.machine);
    machine.attach_obs(obs);
    run_real_on(tree, opts, &mut machine)
}

/// Run the parallelised program on an existing (fresh) machine.
pub fn run_real_on(
    tree: &ProgramTree,
    opts: &RealOptions,
    machine: &mut machsim::Machine,
) -> Result<RealResult, RunError> {
    let program = real_program(tree, opts);
    let has_pipe = program.ops.iter().any(|op| matches!(op, POp::Pipe(_)));
    let stats = match opts.paradigm {
        // Pipelines are hosted by the OpenMP-like runtime's stage threads.
        Paradigm::OpenMp => run_program_on(machine, &program, opts.omp_overheads, opts.threads)?,
        Paradigm::CilkPlus | Paradigm::OmpTask if has_pipe => {
            run_program_on(machine, &program, opts.omp_overheads, opts.threads)?
        }
        Paradigm::CilkPlus => {
            run_program_cilk_on(machine, &program, opts.cilk_overheads, opts.threads)?
        }
        Paradigm::OmpTask => {
            omp_rt::run_program_tasks_on(machine, &program, opts.task_overheads, opts.threads)?
        }
    };
    let serial_cycles = tree.total_length();
    Ok(RealResult {
        elapsed_cycles: stats.elapsed_cycles,
        serial_cycles,
        speedup: serial_cycles as f64 / stats.elapsed_cycles.max(1) as f64,
        stats,
    })
}

/// Sweep thread counts; returns `(threads, speedup)` pairs.
pub fn real_curve(
    tree: &ProgramTree,
    base: &RealOptions,
    thread_counts: &[u32],
) -> Result<Vec<(u32, f64)>, RunError> {
    let mut out = Vec::new();
    for &t in thread_counts {
        let mut o = *base;
        o.threads = t;
        out.push((t, run_real(tree, &o)?.speedup));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proftree::{MemProfile, TreeBuilder};

    fn balanced_tree(n: usize, len: u64) -> ProgramTree {
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

    fn zero_opts(threads: u32) -> RealOptions {
        let mut o = RealOptions::new(threads, Paradigm::OpenMp, Schedule::static1());
        o.machine = MachineConfig::small(threads.max(1));
        o.omp_overheads = OmpOverheads::zero();
        o.cilk_overheads = CilkOverheads::zero();
        o
    }

    #[test]
    fn single_thread_run_matches_serial_time() {
        let tree = balanced_tree(10, 5_000);
        let r = run_real(&tree, &zero_opts(1)).unwrap();
        assert_eq!(r.elapsed_cycles, 50_000);
        assert!((r.speedup - 1.0).abs() < 1e-9);
    }

    #[test]
    fn compute_bound_tree_scales_linearly() {
        let tree = balanced_tree(16, 10_000);
        let r = run_real(&tree, &zero_opts(4)).unwrap();
        assert!((r.speedup - 4.0).abs() < 0.05, "speedup {}", r.speedup);
    }

    #[test]
    fn memory_bound_tree_saturates() {
        // Build a section whose counters say it's extremely memory-bound.
        let mut b = TreeBuilder::new();
        b.begin_sec("mem").unwrap();
        for _ in 0..12 {
            b.begin_task("t").unwrap();
            b.add_compute(600_000).unwrap();
            b.end_task().unwrap();
        }
        let sec = b.end_sec(false).unwrap();
        // All time is DRAM stall: misses = cycles/ω0.
        b.set_section_mem(
            sec,
            MemProfile {
                instructions: 1_000_000,
                cycles: 12 * 600_000,
                llc_misses: 120_000,
                dram_bytes: 120_000 * 64,
                traffic_mbps: 0.0,
            },
        );
        let tree = b.finish().unwrap();

        // A machine whose DRAM supports only ~2 hungry threads.
        let mut opts = zero_opts(12);
        opts.machine = MachineConfig::small(12);
        opts.machine.dram_bytes_per_cycle = 64.0 / 60.0 * 2.0;
        opts.machine.queue_kappa = 0.0;

        let r1 = run_real(&tree, &{
            let mut o = opts;
            o.threads = 1;
            o
        })
        .unwrap();
        let r12 = run_real(&tree, &opts).unwrap();
        let s1 = r1.speedup;
        let s12 = r12.speedup;
        assert!((s1 - 1.0).abs() < 0.05, "s1 {s1}");
        assert!(
            s12 < 3.0,
            "12-thread speedup should saturate near 2, got {s12}"
        );
        assert!(s12 > 1.5, "but it should still beat serial, got {s12}");
    }

    #[test]
    fn packet_conversion_preserves_baseline_length() {
        let conv = Conv {
            tree: &balanced_tree(1, 1),
            omega0: 60.0,
            memo: HashMap::new(),
            threads: 2,
            schedule: Schedule::static1(),
            miss_scale: 1.0,
        };
        for (len, rate) in [(100_000u64, 0.001f64), (5_000, 0.01), (777, 0.0)] {
            let p = conv.packet(len, rate);
            let baseline = p.compute_cycles as f64 + p.llc_misses as f64 * 60.0;
            assert!(
                (baseline - len as f64).abs() <= 60.0,
                "len={len} rate={rate} baseline={baseline}"
            );
        }
    }

    #[test]
    fn cilk_paradigm_runs() {
        let tree = balanced_tree(32, 10_000);
        let mut o = zero_opts(4);
        o.paradigm = Paradigm::CilkPlus;
        let r = run_real(&tree, &o).unwrap();
        assert!(r.speedup > 3.0, "speedup {}", r.speedup);
    }

    #[test]
    fn curve_is_reasonable() {
        let tree = balanced_tree(24, 20_000);
        let mut o = zero_opts(1);
        o.machine = MachineConfig::small(8);
        let curve = real_curve(&tree, &o, &[1, 2, 4, 8]).unwrap();
        assert_eq!(curve.len(), 4);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.95, "curve {curve:?}");
        }
    }
}
