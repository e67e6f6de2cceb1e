#![warn(missing_docs)]

//! Causal what-if analysis over profiled program trees.
//!
//! The paper's pipeline predicts the speedup of one *grid point*; this
//! crate answers the questions users actually bring to it:
//!
//! * **Where is the parallelism?** — per-region *work/span* attribution
//!   in the TASKPROF style: the work of a region is its total serial
//!   length, its span the irreducible critical path under infinite
//!   cores (`Sec` tasks in parallel, serial chains summed, pipelines
//!   via the stage-DAG recurrence). Both walks are run-aware: an RLE
//!   run is processed in closed form off [`proftree::visit::child_entries`],
//!   never expanded.
//! * **What does parallelizing region R buy at k cores?** — a *causal*
//!   query: re-emulate the whole program with every *other* top-level
//!   parallel region demoted to serial computation of equal length
//!   ([`scoped_tree`]), through the exact same ffemu/synthemu option
//!   construction the sweep engine uses. For a tree whose only parallel
//!   region is R this is bit-identical to the corresponding sweep grid
//!   point — pinned by `tests/whatif.rs`.
//! * **What does it take to reach speedup S?** — an *inverse* query:
//!   ascend the candidate core counts, prune every count whose
//!   work/span (Amdahl-with-critical-path) bound cannot reach `S`
//!   without spending an emulation, and emulate the survivors into a
//!   Pareto front of `(cores, best schedule, speedup)`; the first point
//!   at or above `S` is the minimum-cores answer.
//!
//! Everything is deterministic: reports serialize to byte-identical
//! JSON regardless of the `jobs` fan-out, so the serving layer can
//! cache and shard results by content.

use std::collections::HashMap;

use machsim::{MachineConfig, Paradigm, Schedule};
use omp_rt::OmpOverheads;
use proftree::visit::child_entries;
use proftree::{ChildList, FlatTree, Node, NodeId, NodeKind, ProgramTree};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Which emulator backs the causal re-emulations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Model {
    /// Fast-forwarding emulator: analytical, any core count. The default,
    /// and the only backend inverse queries use (they roam beyond the
    /// machine's cores).
    Ff,
    /// Program-synthesis emulator: most accurate, limited to the
    /// machine's real core count — candidate counts beyond it are
    /// skipped exactly like the sweep engine skips them.
    Syn,
}

impl Model {
    /// Parse a CLI/request spelling (`ff` | `syn`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ff" => Some(Model::Ff),
            "syn" => Some(Model::Syn),
            _ => None,
        }
    }

    /// Sweep-style predictor label with the memory-model suffix,
    /// e.g. `"ff+mm"`.
    pub fn label(&self, memory_model: bool) -> String {
        let base = match self {
            Model::Ff => "ff",
            Model::Syn => "syn",
        };
        format!("{base}{}", if memory_model { "+mm" } else { "-mm" })
    }
}

/// Emulation environment: the machine and overhead tables causal and
/// inverse queries run against. Mirrors the sweep engine's per-point
/// option construction so what-if answers and sweep points agree
/// bit-exactly.
#[derive(Debug, Clone, Copy)]
pub struct EmuEnv {
    /// Target machine (burden calibration, core count, lock handoff).
    pub machine: MachineConfig,
    /// OpenMP construct overheads.
    pub overheads: OmpOverheads,
    /// Contended-lock penalty for the fast-forward emulator.
    pub lock_penalty: u64,
    /// Threading paradigm for the synthesizer backend.
    pub paradigm: Paradigm,
}

impl EmuEnv {
    /// The environment the sweep engine would use for `machine` with no
    /// overrides.
    pub fn for_machine(machine: &MachineConfig) -> Self {
        EmuEnv {
            machine: *machine,
            overheads: OmpOverheads::westmere_scaled(),
            lock_penalty: machine.context_switch_cycles,
            paradigm: Paradigm::OpenMp,
        }
    }
}

/// One what-if query: which grid to explore and, optionally, which
/// speedup target to invert for.
#[derive(Debug, Clone)]
pub struct WhatifSpec {
    /// Candidate core counts (causal table columns, inverse search space).
    pub threads: Vec<u32>,
    /// Schedules to explore at each core count.
    pub schedules: Vec<Schedule>,
    /// Emulator backend.
    pub model: Model,
    /// Apply the memory performance model's burden factors.
    pub memory_model: bool,
    /// Inverse-query target; `None` runs only the region/causal analysis.
    pub target_speedup: Option<f64>,
}

impl Default for WhatifSpec {
    fn default() -> Self {
        WhatifSpec {
            threads: vec![2, 4, 6, 8, 10, 12],
            schedules: vec![Schedule::static_block()],
            model: Model::Ff,
            memory_model: true,
            target_speedup: None,
        }
    }
}

/// Counters from one analysis, published as `whatif.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WhatifCounters {
    /// Distinct top-level parallel regions attributed work/span.
    pub regions_analyzed: u64,
    /// Emulator invocations (causal rows + inverse probes).
    pub emulations_run: u64,
    /// Inverse-query candidate points discarded by the work/span bound
    /// without spending an emulation.
    pub pareto_pruned: u64,
}

impl WhatifCounters {
    /// Fold another analysis's counters into this one.
    pub fn merge(&mut self, other: &WhatifCounters) {
        self.regions_analyzed += other.regions_analyzed;
        self.emulations_run += other.emulations_run;
        self.pareto_pruned += other.pareto_pruned;
    }
}

/// A distinct top-level parallel region (static identity: one entry per
/// representative node, aggregating all its dynamic instances).
#[derive(Debug, Clone)]
struct Region {
    node: NodeId,
    name: String,
    kind: &'static str,
    instances: u64,
    work: u64,
    span: u64,
}

/// Work/span attribution of one region, as reported.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegionReport {
    /// Region index (program order of first appearance).
    pub index: usize,
    /// Annotation name.
    pub name: String,
    /// `"sec"` or `"pipe"`.
    pub kind: String,
    /// Dynamic top-level instances of the region.
    pub instances: u64,
    /// Total serial cycles across all instances.
    pub work: u64,
    /// Critical path across all instances (instances run serially; each
    /// contributes its own span).
    pub span: u64,
    /// `work / serial_total`.
    pub work_fraction: f64,
    /// `work / span`: the region's inherent parallelism.
    pub parallelism: f64,
    /// Whole-program speedup bound if only this region is parallelized
    /// on infinitely many cores: `T / (T - work + span)`.
    pub bound_at_inf: f64,
}

/// One causal grid point: whole-program speedup when *only* this region
/// is parallelized.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CausalRow {
    /// Region index into [`WhatifReport::regions`].
    pub region: usize,
    /// Region name (for readability; not unique).
    pub name: String,
    /// Core count emulated.
    pub threads: u32,
    /// Schedule emulated.
    pub schedule: String,
    /// Whole-program causal speedup.
    pub speedup: f64,
    /// Predicted cycles of the region-scoped program.
    pub predicted_cycles: u64,
    /// Work/span upper bound on the causal speedup at this core count.
    pub bound: f64,
}

/// One point on the inverse query's Pareto front.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// Core count.
    pub threads: u32,
    /// Best schedule at this core count.
    pub schedule: String,
    /// Best whole-program speedup at this core count.
    pub speedup: f64,
}

/// Result of an inverse query: the minimum configuration reaching the
/// target, or proof of the explored frontier when unreachable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InverseReport {
    /// Requested speedup.
    pub target_speedup: f64,
    /// Whether any explored configuration reached the target.
    pub reachable: bool,
    /// Minimum core count reaching the target.
    pub threads: Option<u32>,
    /// Schedule achieving it at that core count.
    pub schedule: Option<String>,
    /// Speedup achieved there.
    pub speedup: Option<f64>,
    /// Pareto front of explored `(cores, schedule, speedup)` points,
    /// strictly improving in speedup. The search stops at the first
    /// point reaching the target (minimum cores found), so the front
    /// covers the explored prefix of the candidate list.
    pub frontier: Vec<ParetoPoint>,
    /// Candidate points discarded by the work/span bound.
    pub pruned: u64,
    /// Emulations actually spent.
    pub emulated: u64,
}

/// The full what-if answer for one workload. Contains no timestamps,
/// host names, or job identifiers: serializing it is byte-stable across
/// processes, shards, and `jobs` fan-outs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WhatifReport {
    /// Workload key the analysis ran on.
    pub workload: String,
    /// Sweep-style predictor label, e.g. `"ff+mm"`.
    pub predictor: String,
    /// Serial execution time of the whole program.
    pub serial_cycles: u64,
    /// Whole-program critical path (every region parallel, infinite
    /// cores).
    pub critical_path_cycles: u64,
    /// `serial_cycles / critical_path_cycles`.
    pub max_parallelism: f64,
    /// Per-region work/span attribution, program order.
    pub regions: Vec<RegionReport>,
    /// Causal table: regions × threads × schedules.
    pub causal: Vec<CausalRow>,
    /// Inverse-query answer when a target was requested.
    pub inverse: Option<InverseReport>,
}

/// Compute the span (critical path under infinite cores) of `id`,
/// memoised per physical node. Serial chains sum, section tasks take the
/// max, pipelines run the stage-DAG recurrence — all in closed form over
/// runs.
fn span_of(tree: &ProgramTree, id: NodeId, memo: &mut Vec<Option<u64>>) -> u64 {
    if let Some(v) = memo[id as usize] {
        return v;
    }
    let node = tree.node(id);
    let span = match &node.kind {
        NodeKind::U | NodeKind::L { .. } => node.length,
        NodeKind::Sec { .. } => {
            // Tasks run concurrently: the section's span is the longest
            // task span (run multiplicity is irrelevant to a max).
            let mut best = 0u64;
            for (child, _, _) in child_entries(tree, id) {
                best = best.max(span_of(tree, child, memo));
            }
            best
        }
        NodeKind::Pipe { .. } => pipe_span(tree, id, memo),
        NodeKind::Root | NodeKind::Task { .. } | NodeKind::Stage { .. } => {
            // Serial composition: sum child spans. Terminal runs carry
            // their exact total; non-terminal runs repeat the
            // representative's span.
            let mut sum = 0u64;
            for (child, count, total) in child_entries(tree, id) {
                if tree.node(child).kind.is_terminal() {
                    sum += total;
                } else {
                    sum += count as u64 * span_of(tree, child, memo);
                }
            }
            sum
        }
    };
    memo[id as usize] = Some(span);
    span
}

/// Span of a pipeline region: the classic stage-DAG recurrence
/// `finish[i][s] = max(finish[i][s-1], finish[i-1][s]) + cost[i][s]`,
/// advanced run-aware: each run of identical items is iterated only
/// until the per-stage increments stabilise at the *prefix-max* stage
/// cost (a stage is paced by the slowest stage at or before it), then
/// the remaining items are applied in closed form.
fn pipe_span(tree: &ProgramTree, pipe: NodeId, memo: &mut Vec<Option<u64>>) -> u64 {
    let mut finish: Vec<u64> = Vec::new();
    for (item, count, _) in child_entries(tree, pipe) {
        let mut costs: Vec<u64> = Vec::new();
        for (stage, scount, _) in child_entries(tree, item) {
            let c = span_of(tree, stage, memo);
            for _ in 0..scount {
                costs.push(c);
            }
        }
        if costs.is_empty() {
            continue;
        }
        let mut prefix_max = Vec::with_capacity(costs.len());
        let mut m = 0u64;
        for &c in &costs {
            m = m.max(c);
            prefix_max.push(m);
        }
        // Stabilisation takes at most one warm-up item per stage; a 2x
        // margin keeps the closed form exact without measurable cost.
        let warmup = (costs.len() as u32).saturating_mul(2).saturating_add(2);
        let apply = count.min(warmup);
        for _ in 0..apply {
            let mut prev = 0u64;
            for (s, &c) in costs.iter().enumerate() {
                if finish.len() <= s {
                    finish.push(0);
                }
                finish[s] = prev.max(finish[s]) + c;
                prev = finish[s];
            }
        }
        if count > apply {
            let rem = (count - apply) as u64;
            for (s, f) in finish.iter_mut().enumerate() {
                let pace = prefix_max.get(s).copied().unwrap_or(m);
                *f += rem * pace;
            }
        }
    }
    finish.into_iter().max().unwrap_or(0)
}

fn is_region(tree: &ProgramTree, id: NodeId) -> bool {
    matches!(
        tree.node(id).kind,
        NodeKind::Sec { .. } | NodeKind::Pipe { .. }
    )
}

/// Collect the distinct top-level parallel regions with aggregated
/// work/span over all their dynamic instances.
fn collect_regions(tree: &ProgramTree, memo: &mut Vec<Option<u64>>) -> Vec<Region> {
    let mut out: Vec<Region> = Vec::new();
    let mut index_of: HashMap<NodeId, usize> = HashMap::new();
    for (id, count, total) in child_entries(tree, ProgramTree::ROOT) {
        let (name, kind) = match &tree.node(id).kind {
            NodeKind::Sec { name, .. } => (name.clone(), "sec"),
            NodeKind::Pipe { name, .. } => (name.clone(), "pipe"),
            _ => continue,
        };
        let span = span_of(tree, id, memo);
        let idx = *index_of.entry(id).or_insert_with(|| {
            out.push(Region {
                node: id,
                name,
                kind,
                instances: 0,
                work: 0,
                span: 0,
            });
            out.len() - 1
        });
        let r = &mut out[idx];
        r.instances += count as u64;
        r.work += total;
        r.span += count as u64 * span;
    }
    out
}

/// Build the region-scoped tree for a causal query: every top-level
/// parallel region other than `keep` is replaced by a serial `U`
/// computation of identical length (run totals preserved exactly), so
/// emulating the result answers "what if only `keep` were parallelized".
/// `keep` identifies a *static* region: with run compression, all
/// dynamic instances sharing the representative stay parallel.
pub fn scoped_tree(tree: &ProgramTree, keep: NodeId) -> ProgramTree {
    let mut nodes: Vec<Node> = tree.ids().map(|i| tree.node(i).clone()).collect();
    let root_children = nodes[0].children.clone();
    let new_children = match root_children {
        ChildList::Plain(ids) => ChildList::Plain(
            ids.into_iter()
                .map(|c| {
                    if c != keep && is_region(tree, c) {
                        nodes.push(Node::u(tree.node(c).length));
                        (nodes.len() - 1) as NodeId
                    } else {
                        c
                    }
                })
                .collect(),
        ),
        ChildList::Rle(runs) => ChildList::Rle(
            runs.into_iter()
                .map(|mut r| {
                    if r.node != keep && is_region(tree, r.node) {
                        nodes.push(Node::u(tree.node(r.node).length));
                        r.node = (nodes.len() - 1) as NodeId;
                    }
                    r
                })
                .collect(),
        ),
    };
    nodes[0].children = new_children;
    ProgramTree::from_nodes(nodes)
}

/// Run one emulation with the sweep engine's exact option construction.
fn emulate(
    tree: &FlatTree,
    threads: u32,
    schedule: Schedule,
    spec_model: Model,
    memory_model: bool,
    env: &EmuEnv,
) -> (f64, u64, u64) {
    match spec_model {
        Model::Ff => {
            let p = ffemu::predict_flat(
                tree,
                ffemu::FfOptions {
                    cpus: threads,
                    schedule,
                    overheads: env.overheads,
                    use_burden: memory_model,
                    contended_lock_penalty: env.lock_penalty,
                    model_pipelines: true,
                    expand_runs: false,
                },
            );
            (p.speedup, p.predicted_cycles, p.serial_cycles)
        }
        Model::Syn => {
            let mut so = synthemu::SynthOptions::new(threads, env.paradigm);
            so.machine = env.machine;
            so.schedule = schedule;
            so.use_burden = memory_model;
            so.omp_overheads = env.overheads;
            let p = synthemu::predict_flat(tree, &so).expect("synthesizer run");
            (p.speedup, p.predicted_cycles, p.serial_cycles)
        }
    }
}

/// Work/span upper bound on whole-program speedup when regions totalling
/// `work` cycles (of `total`) run on `k` cores with critical path `span`.
fn bound_speedup(total: u64, work: u64, span: u64, k: u32) -> f64 {
    let t = total as f64;
    let w = work as f64;
    let par = (w / k as f64).max(span as f64);
    t / ((t - w) + par).max(1.0)
}

/// Run the full what-if analysis for one profiled tree.
///
/// `jobs != 1` fans the causal grid out over a private rayon pool (0 =
/// default pool size); the report is byte-identical to the sequential
/// run (rows are collected in grid order and every emulation is pure).
pub fn analyze(
    workload: &str,
    tree: &ProgramTree,
    spec: &WhatifSpec,
    env: &EmuEnv,
    jobs: usize,
) -> (WhatifReport, WhatifCounters) {
    let mut counters = WhatifCounters::default();
    let mut memo = vec![None; tree.len()];
    let total = tree.total_length();
    let regions = collect_regions(tree, &mut memo);
    counters.regions_analyzed = regions.len() as u64;
    let program_span = span_of(tree, ProgramTree::ROOT, &mut memo);

    let region_reports: Vec<RegionReport> = regions
        .iter()
        .enumerate()
        .map(|(i, r)| RegionReport {
            index: i,
            name: r.name.clone(),
            kind: r.kind.to_string(),
            instances: r.instances,
            work: r.work,
            span: r.span,
            work_fraction: r.work as f64 / (total as f64).max(1.0),
            parallelism: r.work as f64 / (r.span as f64).max(1.0),
            bound_at_inf: bound_speedup(total, r.work, r.span, u32::MAX),
        })
        .collect();

    // Causal grid: one scoped tree per region, emulated at every
    // (threads, schedule) point. Synthesizer points beyond the machine's
    // cores are skipped, exactly like the sweep engine. Each scoped tree
    // is flattened once for all of its grid points.
    let scoped: Vec<FlatTree> = regions
        .iter()
        .map(|r| FlatTree::from_tree(&scoped_tree(tree, r.node)))
        .collect();
    let mut grid: Vec<(usize, u32, Schedule)> = Vec::new();
    for (i, _) in regions.iter().enumerate() {
        for &k in &spec.threads {
            if spec.model == Model::Syn && k > env.machine.cores {
                continue;
            }
            for &s in &spec.schedules {
                grid.push((i, k, s));
            }
        }
    }
    let eval_row = |&(i, k, s): &(usize, u32, Schedule)| -> CausalRow {
        let (speedup, predicted, _) = emulate(&scoped[i], k, s, spec.model, spec.memory_model, env);
        let r = &regions[i];
        CausalRow {
            region: i,
            name: r.name.clone(),
            threads: k,
            schedule: s.name(),
            speedup,
            predicted_cycles: predicted,
            bound: bound_speedup(total, r.work, r.span, k),
        }
    };
    // `jobs` follows the sweep engine's convention: 0 = a default-sized
    // pool (all cores), 1 = in-place serial, N = a pool of N.
    let causal: Vec<CausalRow> = if jobs != 1 {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(jobs)
            .build()
            .expect("whatif thread pool");
        pool.install(|| grid.par_iter().map(eval_row).collect())
    } else {
        grid.iter().map(eval_row).collect()
    };
    counters.emulations_run += causal.len() as u64;

    // Inverse query: ascend the candidate core counts, prune via the
    // all-regions work/span bound, emulate survivors, stop at the first
    // configuration reaching the target (minimum cores).
    let inverse = spec.target_speedup.map(|target| {
        let flat = FlatTree::from_tree(tree);
        let par_work: u64 = regions.iter().map(|r| r.work).sum();
        let par_span: u64 = regions.iter().map(|r| r.span).sum();
        let mut candidates: Vec<u32> = spec.threads.clone();
        candidates.sort_unstable();
        candidates.dedup();
        let mut frontier: Vec<ParetoPoint> = Vec::new();
        let mut pruned = 0u64;
        let mut emulated = 0u64;
        let mut pick: Option<ParetoPoint> = None;
        for k in candidates {
            if spec.model == Model::Syn && k > env.machine.cores {
                continue;
            }
            if bound_speedup(total, par_work, par_span, k) < target {
                pruned += spec.schedules.len() as u64;
                continue;
            }
            let mut best: Option<ParetoPoint> = None;
            for &s in &spec.schedules {
                let (speedup, _, _) = emulate(&flat, k, s, spec.model, spec.memory_model, env);
                emulated += 1;
                if best.as_ref().is_none_or(|b| speedup > b.speedup) {
                    best = Some(ParetoPoint {
                        threads: k,
                        schedule: s.name(),
                        speedup,
                    });
                }
            }
            if let Some(b) = best {
                let improves = frontier.last().is_none_or(|f| b.speedup > f.speedup);
                if improves {
                    frontier.push(b.clone());
                }
                if b.speedup >= target {
                    pick = Some(b);
                    break;
                }
            }
        }
        counters.pareto_pruned += pruned;
        counters.emulations_run += emulated;
        InverseReport {
            target_speedup: target,
            reachable: pick.is_some(),
            threads: pick.as_ref().map(|p| p.threads),
            schedule: pick.as_ref().map(|p| p.schedule.clone()),
            speedup: pick.as_ref().map(|p| p.speedup),
            frontier,
            pruned,
            emulated,
        }
    });

    let report = WhatifReport {
        workload: workload.to_string(),
        predictor: spec.model.label(spec.memory_model),
        serial_cycles: total,
        critical_path_cycles: program_span,
        max_parallelism: total as f64 / (program_span as f64).max(1.0),
        regions: region_reports,
        causal,
        inverse,
    };
    (report, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proftree::{BurdenTable, Run};

    /// Root → [Sec(a): 4×U(100)] ─ U(50) ─ [Sec(b): 2×U(200)]
    fn two_region_tree() -> ProgramTree {
        let sec = |name: &str, len, children| Node {
            kind: NodeKind::Sec {
                name: name.into(),
                nowait: false,
                mem: None,
                burden: BurdenTable::unit(),
            },
            length: len,
            children,
        };
        let task = |name: &str, len, children| Node {
            kind: NodeKind::Task { name: name.into() },
            length: len,
            children,
        };
        // Cycle counts large enough that construct overheads do not
        // drown the work (hand-built stand-in for a profiled tree).
        let nodes = vec![
            Node {
                kind: NodeKind::Root,
                length: 850_000,
                children: ChildList::Plain(vec![1, 4, 5]),
            },
            sec(
                "a",
                400_000,
                ChildList::Rle(vec![Run {
                    node: 2,
                    count: 4,
                    total_length: 400_000,
                }]),
            ),
            task("it", 100_000, ChildList::Plain(vec![3])),
            Node::u(100_000),
            Node::u(50_000),
            sec(
                "b",
                400_000,
                ChildList::Rle(vec![Run {
                    node: 6,
                    count: 2,
                    total_length: 400_000,
                }]),
            ),
            task("it", 200_000, ChildList::Plain(vec![7])),
            Node::u(200_000),
        ];
        ProgramTree::from_nodes(nodes)
    }

    #[test]
    fn work_span_attribution() {
        let tree = two_region_tree();
        let mut memo = vec![None; tree.len()];
        let regions = collect_regions(&tree, &mut memo);
        assert_eq!(regions.len(), 2);
        assert_eq!((regions[0].work, regions[0].span), (400_000, 100_000));
        assert_eq!((regions[1].work, regions[1].span), (400_000, 200_000));
        // Program span: spans of both sections plus the serial U.
        assert_eq!(span_of(&tree, ProgramTree::ROOT, &mut memo), 350_000);
    }

    #[test]
    fn span_never_exceeds_work() {
        let tree = two_region_tree();
        let mut memo = vec![None; tree.len()];
        for r in collect_regions(&tree, &mut memo) {
            assert!(
                r.span <= r.work,
                "{}: span {} work {}",
                r.name,
                r.span,
                r.work
            );
        }
    }

    #[test]
    fn scoped_tree_serialises_other_regions() {
        let tree = two_region_tree();
        let scoped = scoped_tree(&tree, 1);
        scoped.validate().unwrap();
        // Length is preserved exactly…
        assert_eq!(scoped.total_length(), tree.total_length());
        // …but only region `a` stays parallel.
        assert_eq!(scoped.top_level_sections(), vec![1]);
        assert_eq!(scoped.top_level_serial_length(), 450_000);
    }

    #[test]
    fn causal_speedup_respects_bound() {
        let tree = two_region_tree();
        let env = EmuEnv::for_machine(&MachineConfig::westmere_scaled());
        let spec = WhatifSpec {
            threads: vec![2, 4, 8],
            ..WhatifSpec::default()
        };
        let (report, counters) = analyze("t", &tree, &spec, &env, 1);
        assert_eq!(counters.regions_analyzed, 2);
        assert_eq!(report.causal.len(), 6);
        for row in &report.causal {
            assert!(row.speedup >= 1.0, "causal speedup {} < 1", row.speedup);
            assert!(
                row.speedup <= row.bound * (1.0 + 1e-9),
                "region {} at {} cores: speedup {} exceeds bound {}",
                row.name,
                row.threads,
                row.speedup,
                row.bound
            );
        }
    }

    #[test]
    fn jobs_fanout_is_byte_identical() {
        let tree = two_region_tree();
        let env = EmuEnv::for_machine(&MachineConfig::westmere_scaled());
        let spec = WhatifSpec {
            threads: vec![2, 4, 8, 16],
            schedules: vec![Schedule::static_block(), Schedule::dynamic1()],
            target_speedup: Some(1.5),
            ..WhatifSpec::default()
        };
        let (a, ca) = analyze("t", &tree, &spec, &env, 1);
        let (b, cb) = analyze("t", &tree, &spec, &env, 8);
        assert_eq!(ca, cb);
        assert_eq!(
            serde_json::to_string_pretty(&a).unwrap(),
            serde_json::to_string_pretty(&b).unwrap()
        );
    }

    #[test]
    fn inverse_prunes_unreachable_counts_and_finds_min_cores() {
        let tree = two_region_tree();
        let env = EmuEnv::for_machine(&MachineConfig::westmere_scaled());
        let spec = WhatifSpec {
            threads: vec![2, 4, 8, 16, 32],
            target_speedup: Some(1.8),
            ..WhatifSpec::default()
        };
        let (report, _) = analyze("t", &tree, &spec, &env, 1);
        let inv = report.inverse.expect("inverse requested");
        assert!(inv.reachable, "{inv:?}");
        let k = inv.threads.unwrap();
        // The frontier is strictly improving and the pick is its last point.
        assert!(inv.frontier.windows(2).all(|w| w[1].speedup > w[0].speedup));
        assert_eq!(inv.frontier.last().unwrap().threads, k);
        // An impossible target prunes everything the bound can decide.
        let spec = WhatifSpec {
            threads: vec![2, 4, 8],
            target_speedup: Some(1000.0),
            ..WhatifSpec::default()
        };
        let (report, counters) = analyze("t", &tree, &spec, &env, 1);
        let inv = report.inverse.unwrap();
        assert!(!inv.reachable);
        assert_eq!(inv.pruned, 3);
        assert_eq!(inv.emulated, 0);
        assert_eq!(counters.pareto_pruned, 3);
    }

    #[test]
    fn pipeline_span_matches_stage_dag() {
        // Pipe with 3 identical items, stages [10, 30, 20]:
        // span = warmup (10+30+20) + 2 more items at the 30-cycle
        // bottleneck = 120.
        let nodes = vec![
            Node {
                kind: NodeKind::Root,
                length: 180,
                children: ChildList::Plain(vec![1]),
            },
            Node {
                kind: NodeKind::Pipe {
                    name: "p".into(),
                    mem: None,
                    burden: BurdenTable::unit(),
                },
                length: 180,
                children: ChildList::Rle(vec![Run {
                    node: 2,
                    count: 3,
                    total_length: 180,
                }]),
            },
            Node {
                kind: NodeKind::Task {
                    name: "item".into(),
                },
                length: 60,
                children: ChildList::Plain(vec![3, 5, 7]),
            },
            Node {
                kind: NodeKind::Stage { stage: 0 },
                length: 10,
                children: ChildList::Plain(vec![4]),
            },
            Node::u(10),
            Node {
                kind: NodeKind::Stage { stage: 1 },
                length: 30,
                children: ChildList::Plain(vec![6]),
            },
            Node::u(30),
            Node {
                kind: NodeKind::Stage { stage: 2 },
                length: 20,
                children: ChildList::Plain(vec![8]),
            },
            Node::u(20),
        ];
        let tree = ProgramTree::from_nodes(nodes);
        let mut memo = vec![None; tree.len()];
        assert_eq!(span_of(&tree, 1, &mut memo), 120);
        // The closed form agrees with long runs: 100 items =
        // 60 + 99*30 = 3030.
        let mut nodes: Vec<Node> = tree.ids().map(|i| tree.node(i).clone()).collect();
        nodes[1].children = ChildList::Rle(vec![Run {
            node: 2,
            count: 100,
            total_length: 6000,
        }]);
        nodes[1].length = 6000;
        nodes[0].length = 6000;
        let big = ProgramTree::from_nodes(nodes);
        let mut memo = vec![None; big.len()];
        assert_eq!(span_of(&big, 1, &mut memo), 60 + 99 * 30);
    }

    #[test]
    fn single_region_causal_equals_full_prediction() {
        // With one parallel region the scoped tree IS the tree, so the
        // causal row must bit-match a direct emulator call.
        let nodes = vec![
            Node {
                kind: NodeKind::Root,
                length: 420_000,
                children: ChildList::Plain(vec![1, 4]),
            },
            Node {
                kind: NodeKind::Sec {
                    name: "s".into(),
                    nowait: false,
                    mem: None,
                    burden: BurdenTable::unit(),
                },
                length: 400_000,
                children: ChildList::Rle(vec![Run {
                    node: 2,
                    count: 8,
                    total_length: 400_000,
                }]),
            },
            Node {
                kind: NodeKind::Task { name: "it".into() },
                length: 50_000,
                children: ChildList::Plain(vec![3]),
            },
            Node::u(50_000),
            Node::u(20_000),
        ];
        let tree = ProgramTree::from_nodes(nodes);
        let env = EmuEnv::for_machine(&MachineConfig::westmere_scaled());
        let spec = WhatifSpec {
            threads: vec![4],
            ..WhatifSpec::default()
        };
        let (report, _) = analyze("t", &tree, &spec, &env, 1);
        let (speedup, predicted, _) = emulate(
            &FlatTree::from_tree(&tree),
            4,
            Schedule::static_block(),
            Model::Ff,
            true,
            &env,
        );
        assert_eq!(report.causal[0].speedup.to_bits(), speedup.to_bits());
        assert_eq!(report.causal[0].predicted_cycles, predicted);
    }
}
