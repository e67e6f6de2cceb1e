#![warn(missing_docs)]

//! The fast-forwarding emulator (the FF, paper §IV-C/D).
//!
//! The FF predicts parallel execution time *analytically*: it traverses
//! the program tree and advances per-logical-processor clocks with a
//! priority heap that serialises competing tasks in emulated-time order.
//! It models
//!
//! * OpenMP scheduling policies (reusing the exact chunk dispensers of the
//!   runtime, so `static`, `static,c`, `dynamic,c`, `guided` mean the same
//!   thing here and on the machine),
//! * critical sections (a per-lock "free at" clock, granted in emulated
//!   arrival order),
//! * parallel construct overheads (fork/join, per-chunk dispatch,
//!   per-iteration start, lock enter/leave),
//! * burden factors from the memory model, multiplied into every terminal
//!   node of a burdened section (§V).
//!
//! **Deliberate limitation** (paper §IV-D, Fig. 7): nested sections assign
//! their tasks round-robin across logical CPUs starting at the host CPU,
//! and a whole U/L node is assigned non-preemptively. The FF therefore
//! cannot model OS-level preemption or oversubscription — for the paper's
//! two-level nested example it predicts 1.5× where the true (and
//! synthesizer-predicted) speedup is 2×. Reproducing that failure mode is
//! part of reproducing the paper; use `synthemu` for nested/recursive
//! programs.
//!
//! The FF targets an abstract machine, so unlike the synthesizer it can
//! predict for arbitrary CPU counts (Table III).
//!
//! The emulator walks a [`FlatTree`] arena, the only tree it accepts:
//! the caller flattens a profiled tree once and reuses the arena for
//! every grid point ([`predict_flat`], [`speedup_curve`]).
//!
//! **Closed forms.** The heap only has to order *side effects*: chunk
//! requests to a shared dispenser, lock acquisitions, nested sections and
//! a rank's finish. A `U`-only task has none, so three exact shortcuts
//! replace per-op heap steps (DESIGN.md §12):
//!
//! * a `static`/`static,c` section of `U`-only tasks is computed per rank
//!   in closed form, since its chunk sequences are fixed;
//! * a `U`-only chunk of any schedule advances its rank by the chunk's
//!   whole cost in the pop that dispatches it, using per-task costs
//!   memoized per (node, burden);
//! * when every rank of a `dynamic`/`guided` section waits to request a
//!   chunk and the next chunks are equal-length and `U`-only with one
//!   cost `Δ > 0`, the heap's pop order is the sorted union of per-rank
//!   progressions `t_i + jΔ`, so a whole stretch is handed out at once.
//!
//! Chunks with a lock or a nested section, a forced
//! [`FfOptions::expand_runs`] and an attached obs recorder keep the
//! per-op heap path.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use machsim::Schedule;
use omp_rt::{Dispenser, OmpOverheads};
use proftree::{burden_factor, Cycles, FlatTree, LockId, NodeId, ViewKind};
use serde::{Deserialize, Serialize};

/// Record an event on the emulation's recorder at emulated time `$t`.
/// The event is built only when a recorder is attached.
macro_rules! obs_at {
    ($st:expr, $t:expr, $($kind:tt)+) => {
        if let Some(h) = $st.obs.as_ref() {
            h.record($t, prophet_obs::EventKind::$($kind)+);
        }
    };
}

/// Options for one FF prediction.
#[derive(Debug, Clone, Copy)]
pub struct FfOptions {
    /// Logical CPU count to predict for.
    pub cpus: u32,
    /// OpenMP schedule to emulate.
    pub schedule: Schedule,
    /// Construct overheads (same table the runtime uses).
    pub overheads: OmpOverheads,
    /// Apply the burden factors stored in the tree's sections.
    pub use_burden: bool,
    /// Extra cycles a *contended* lock acquisition costs: the blocked
    /// thread is descheduled and context-switched back in by the OS when
    /// the lock is handed off. Matches the machine's context-switch cost.
    pub contended_lock_penalty: u64,
    /// Model pipeline regions (§VII-E extension). Tools without pipeline
    /// support (the Suitability-like baseline) set this to `false` and
    /// emulate pipeline regions serially.
    pub model_pipelines: bool,
    /// Test-only escape hatch: disable every closed form (static runs,
    /// one-step `U`-only chunks, batched `dynamic`/`guided` hand-out) and
    /// emulate each op of each logical iteration through the heap. The
    /// prediction is bit-identical either way (see `tests/ff_runaware.rs`);
    /// expansion merely restores the O(ops) emulation cost.
    pub expand_runs: bool,
}

impl FfOptions {
    /// Defaults: `static` schedule, calibrated overheads, burden on.
    pub fn new(cpus: u32) -> Self {
        FfOptions {
            cpus,
            schedule: Schedule::static_block(),
            overheads: OmpOverheads::westmere_scaled(),
            use_burden: true,
            contended_lock_penalty: 2_000,
            model_pipelines: true,
            expand_runs: false,
        }
    }
}

/// Fast-path effectiveness counters from one FF prediction. Exposed via
/// [`predict_counting_flat`]; publish into a metrics registry with
/// [`publish_counters`]. Both stay zero on the per-op path
/// (`expand_runs`, an attached recorder).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FfCounters {
    /// Closed-form advances: one per `(task, count)` run of a static
    /// closed-form section, plus one per batched `dynamic`/`guided`
    /// hand-out.
    pub runs_fastpathed: u64,
    /// Logical iterations advanced without a heap step of their own:
    /// `Σ count − Σ runs` over static closed-form sections, all but one
    /// iteration of each one-step chunk, and all but one iteration of
    /// each batched hand-out.
    pub iters_skipped: u64,
}

/// Prediction output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FfPrediction {
    /// Predicted parallel execution time, cycles.
    pub predicted_cycles: u64,
    /// Serial time from the tree.
    pub serial_cycles: u64,
    /// Predicted speedup.
    pub speedup: f64,
    /// Per top-level section `(serial, predicted)` cycles, program order.
    pub sections: Vec<(u64, u64)>,
}

/// One child run of a section: logical iterations `[lo, hi)` all run
/// `task`. `cost` is one iteration (`iter_start` plus the task's scaled
/// `U` ops) when the body is `U`-only, `None` when it holds a lock or a
/// nested section.
struct RunCost {
    lo: u64,
    hi: u64,
    task: NodeId,
    cost: Option<u64>,
}

/// Emulator state shared across a whole program emulation.
struct FfState<'t> {
    tree: &'t FlatTree,
    opts: FfOptions,
    /// Global per-CPU busy-until clock (nested sections book time on other
    /// CPUs through this — the paper's round-robin nested model).
    cpu_time: Vec<u64>,
    /// Per-user-lock free-at clock.
    lock_free: HashMap<LockId, u64>,
    /// Recycled run-cost tables: `emulate_section` borrows one per
    /// activation and returns it on exit, so deep grids re-use the same
    /// handful of allocations instead of collecting a fresh `Vec` per
    /// section (the per-node scratch arena).
    run_cost_pool: Vec<Vec<RunCost>>,
    /// Dense per-node iteration-cost memo for `cost_runs`, invalidated
    /// wholesale by bumping `stamp` (when the burden in `memo_burden`
    /// changes) instead of reallocating a hash map per call.
    /// `cost_val[id]` is meaningful only when `cost_stamp[id] == stamp`.
    cost_stamp: Vec<u64>,
    cost_val: Vec<Option<u64>>,
    stamp: u64,
    memo_burden: Option<u64>,
    /// Fast-path effectiveness counters for this prediction.
    counters: FfCounters,
    /// Structured event recorder (emulated-time timestamps).
    obs: Option<prophet_obs::ObsHandle>,
}

impl<'t> FfState<'t> {
    fn new(tree: &'t FlatTree, opts: FfOptions) -> Self {
        FfState {
            tree,
            opts,
            cpu_time: vec![0; opts.cpus.max(1) as usize],
            lock_free: HashMap::new(),
            run_cost_pool: Vec::new(),
            cost_stamp: Vec::new(),
            cost_val: Vec::new(),
            stamp: 0,
            memo_burden: None,
            counters: FfCounters::default(),
            obs: None,
        }
    }

    /// Whether closed forms may replace per-iteration heap steps: not
    /// when expansion is forced, nor when a recorder must see every
    /// `EmuHeapPop`/`ChunkDispatch` event.
    fn closed_forms(&self) -> bool {
        self.obs.is_none() && !self.opts.expand_runs
    }
}

/// Record the begin/end of a top-level emulated section span.
fn obs_section_span(st: &FfState<'_>, begin: bool, idx: usize, t: u64) {
    if let Some(h) = st.obs.as_ref() {
        let label = h.intern(&format!("sec{idx}"));
        let kind = if begin {
            prophet_obs::EventKind::SpanBegin {
                kind: prophet_obs::SpanKind::EmuSection,
                label,
                thread: u32::MAX,
            }
        } else {
            prophet_obs::EventKind::SpanEnd {
                kind: prophet_obs::SpanKind::EmuSection,
                label,
                thread: u32::MAX,
            }
        };
        h.record(t, kind);
    }
}

/// A CPU's cursor through its assigned tasks inside one section.
struct CpuRun {
    cpu: usize,
    rank: u32,
    time: u64,
    /// Remaining tasks of the current chunk.
    pending: VecDeque<NodeId>,
    /// Ops of the in-flight task.
    ops: VecDeque<NodeId>,
    done: bool,
    executed_any: bool,
}

/// Predict the speedup of the flattened program tree `flat` under
/// `opts`. Build the arena once per tree and reuse it for every
/// prediction over it.
pub fn predict_flat(flat: &FlatTree, opts: FfOptions) -> FfPrediction {
    predict_counting_flat(flat, opts).0
}

/// [`predict_flat`], additionally returning the run-aware fast-path
/// counters (`ff.runs_fastpathed` / `ff.iters_skipped`).
pub fn predict_counting_flat(flat: &FlatTree, opts: FfOptions) -> (FfPrediction, FfCounters) {
    let mut st = FfState::new(flat, opts);
    let p = predict_run(&mut st);
    (p, st.counters)
}

/// Publish FF fast-path counters into a metrics registry under the
/// `ff.*` names.
pub fn publish_counters(c: &FfCounters, reg: &mut prophet_obs::MetricsRegistry) {
    reg.inc("ff.runs_fastpathed", c.runs_fastpathed);
    reg.inc("ff.iters_skipped", c.iters_skipped);
}

/// [`predict_flat`], recording heap pops, chunk dispatches, emulated
/// lock events and section spans on `obs` with emulated-time timestamps.
pub fn predict_with_obs(
    flat: &FlatTree,
    opts: FfOptions,
    obs: prophet_obs::ObsHandle,
) -> FfPrediction {
    let mut st = FfState::new(flat, opts);
    st.obs = Some(obs);
    predict_run(&mut st)
}

fn predict_run(st: &mut FfState<'_>) -> FfPrediction {
    let tree = st.tree;
    let opts = st.opts;
    let serial_cycles = tree.total_length();
    let mut now = 0u64;
    let mut sections = Vec::new();
    for child in tree.expanded(FlatTree::ROOT) {
        match tree.kind(child) {
            ViewKind::U => {
                now += tree.length(child);
            }
            ViewKind::Sec { burden, .. } => {
                let factor = if opts.use_burden {
                    burden_factor(burden, opts.cpus)
                } else {
                    1.0
                };
                // Top-level sections start with every CPU synchronised.
                for t in st.cpu_time.iter_mut() {
                    *t = now;
                }
                obs_section_span(st, true, sections.len(), now);
                let end = emulate_section(st, child, 0, now, factor);
                obs_section_span(st, false, sections.len(), end);
                sections.push((tree.length(child), end - now));
                now = end;
            }
            ViewKind::Pipe { burden, .. } => {
                let factor = if opts.use_burden {
                    burden_factor(burden, opts.cpus)
                } else {
                    1.0
                };
                for t in st.cpu_time.iter_mut() {
                    *t = now;
                }
                obs_section_span(st, true, sections.len(), now);
                let end = if opts.model_pipelines {
                    emulate_pipe(st, child, now, factor)
                } else {
                    // Tool without pipeline support: serial execution.
                    now + scale(tree.length(child), factor)
                };
                obs_section_span(st, false, sections.len(), end);
                sections.push((tree.length(child), end - now));
                now = end;
            }
            other => unreachable!("invalid top-level node {}", other.tag()),
        }
    }
    let predicted_cycles = now.max(1);
    FfPrediction {
        predicted_cycles,
        serial_cycles,
        speedup: serial_cycles as f64 / predicted_cycles as f64,
        sections,
    }
}

/// Fill `out` with `sec`'s child runs and their per-iteration costs under
/// `burden`, returning the logical task count. A task's cost is memoized
/// per node in the stamped `cost_stamp`/`cost_val` arena; the stamp moves
/// only when the burden does, because the cost depends on nothing else.
fn cost_runs(st: &mut FfState<'_>, sec: NodeId, burden: f64, out: &mut Vec<RunCost>) -> u64 {
    let tree = st.tree;
    let nc = tree.len();
    if st.cost_stamp.len() < nc {
        st.cost_stamp.resize(nc, 0);
        st.cost_val.resize(nc, None);
    }
    if st.memo_burden != Some(burden.to_bits()) {
        st.memo_burden = Some(burden.to_bits());
        st.stamp += 1;
    }
    let stamp = st.stamp;
    out.clear();
    let mut n_total = 0u64;
    for run in tree.runs_of(sec) {
        let (task, count) = (run.node, run.count);
        let ti = task as usize;
        if st.cost_stamp[ti] != stamp {
            let mut c = Some(st.opts.overheads.iter_start);
            for op in tree.runs_of(task) {
                match (tree.kind(op.node), c.as_mut()) {
                    (ViewKind::U, Some(c)) => {
                        *c += op.count as u64 * scale(tree.length(op.node), burden)
                    }
                    _ => {
                        c = None;
                        break;
                    }
                }
            }
            st.cost_stamp[ti] = stamp;
            st.cost_val[ti] = c;
        }
        out.push(RunCost {
            lo: n_total,
            hi: n_total + count as u64,
            task,
            cost: st.cost_val[ti],
        });
        n_total += count as u64;
    }
    n_total
}

/// Emulate one section hosted by `host`, starting at `start`. Returns the
/// section end time (after the implicit barrier and join overhead).
fn emulate_section(st: &mut FfState<'_>, sec: NodeId, host: usize, start: u64, burden: f64) -> u64 {
    let mut runs = st.run_cost_pool.pop().unwrap_or_default();
    let n_tasks = cost_runs(st, sec, burden, &mut runs);
    let end = if n_tasks == 0 {
        start + st.opts.overheads.parallel_start + st.opts.overheads.parallel_end
    } else if let Some(end) = static_closed_form(st, &runs, n_tasks, host, start) {
        end
    } else {
        heap_section(st, &runs, n_tasks, host, start, burden)
    };
    st.run_cost_pool.push(runs);
    end
}

/// Closed-form emulation of a `static`/`static,c` section whose task
/// bodies are all `U`-only, or `None` when a precondition fails
/// (DESIGN.md §12).
///
/// The per-rank chunk sequences of a static schedule are fixed,
/// independent of arrival order, and a `U`-only body has no side effect,
/// so every rank's final clock is `start + dispatches·dispatch_ovh +
/// Σ_assigned (iter_start + body)`: a sum of the identical u64 terms the
/// heap path accumulates one pop at a time, computed in O(ranks × runs).
fn static_closed_form(
    st: &mut FfState<'_>,
    runs: &[RunCost],
    n_total: u64,
    host: usize,
    start: u64,
) -> Option<u64> {
    let chunk = match st.opts.schedule {
        Schedule::Static { chunk } if st.closed_forms() => chunk,
        _ => return None,
    };
    if runs.iter().any(|rc| rc.cost.is_none()) {
        return None;
    }
    let opts = st.opts;
    let nranks = st.cpu_time.len();
    let team = nranks as u64;
    let body_start = start + opts.overheads.parallel_start;
    let dispatch_ovh = opts.overheads.dispatch_for(&opts.schedule);
    // Per-run iteration cost; every run was checked `U`-only above.
    let cost = |rc: &RunCost| rc.cost.unwrap_or(0);
    let mut section_end = body_start;
    for r in 0..nranks {
        let cpu = (host + r) % nranks;
        let r64 = r as u64;
        // (assigned iters, chunk dispatches, Σ per-iteration costs) for
        // rank r, mirroring the Dispenser's exact chunk arithmetic.
        let (assigned, dispatches, body_cost) = match chunk {
            None => {
                // static: one contiguous block, first n%team ranks one
                // extra; empty blocks pay no dispatch.
                let base = n_total / team;
                let rem = n_total % team;
                let lo = r64 * base + r64.min(rem);
                let size = base + u64::from(r64 < rem);
                let mut body = 0u64;
                for rc in runs {
                    let a = rc.lo.max(lo);
                    let b = rc.hi.min(lo + size);
                    if b > a {
                        body += (b - a) * cost(rc);
                    }
                }
                (size, u64::from(size > 0), body)
            }
            Some(c) => {
                // static,c: chunks [r·c + j·team·c, +c) ∩ [0, n). The
                // assignment is periodic with period team·c, so the count
                // of rank-r iterations below x is closed-form.
                let c = (c as u64).max(1);
                let period = c * team;
                if r64 * c >= n_total {
                    (0, 0, 0)
                } else {
                    let dispatches = (n_total - r64 * c).div_ceil(period);
                    let f = |x: u64| (x / period) * c + (x % period).saturating_sub(r64 * c).min(c);
                    let mut assigned = 0u64;
                    let mut body = 0u64;
                    for rc in runs {
                        let k = f(rc.hi) - f(rc.lo);
                        assigned += k;
                        body += k * cost(rc);
                    }
                    (assigned, dispatches, body)
                }
            }
        };
        if assigned > 0 {
            let end = body_start.max(st.cpu_time[cpu]) + dispatches * dispatch_ovh + body_cost;
            section_end = section_end.max(end);
            st.cpu_time[cpu] = st.cpu_time[cpu].max(end);
        }
    }
    st.counters.runs_fastpathed += runs.len() as u64;
    st.counters.iters_skipped += n_total - runs.len() as u64;
    Some(section_end + opts.overheads.parallel_end)
}

/// Total cost of the chunk `[s, e)` when every task in it is `U`-only:
/// the sum over the runs it overlaps of `overlap × iteration cost`.
/// `runs` starts at the run holding `s`.
fn chunk_cost(runs: &[RunCost], s: u64, e: u64) -> Option<u64> {
    let mut total = 0u64;
    for rc in runs.iter().take_while(|rc| rc.lo < e) {
        total += (rc.hi.min(e) - rc.lo.max(s)) * rc.cost?;
    }
    Some(total)
}

/// Batched hand-out over a uniform stretch of a `dynamic`/`guided`
/// section. Applies when every live rank waits to request its next chunk
/// and the dispenser's next `m ≥ 2` chunks have equal length and lie in
/// consecutive `U`-only runs of one iteration cost, so each chunk costs
/// the same `Δ > 0`. The heap then pops the `m` smallest keys of the
/// union of per-rank progressions `{(t_i + jΔ, i) : j ≥ 0}`, so rank `i`
/// takes `k_i` of the chunks and advances by `k_i·Δ`. The threshold is
/// found by binary search on the number of keys below it; keys tied at
/// the threshold go to the lowest ranks, as the heap's `(time, rank)`
/// order does. Returns `false`, changing nothing, when the stretch does
/// not qualify. `split` is scratch space, reused across calls.
fn hand_out_batch(
    ranks: &mut [CpuRun],
    runs: &[RunCost],
    dispenser: &mut Dispenser,
    dispatch: u64,
    counters: &mut FfCounters,
    split: &mut Vec<(u64, u64, usize)>,
) -> bool {
    let Some(next) = dispenser.peek_run() else {
        return false;
    };
    if next.count < 2 {
        return false;
    }
    let (s, len) = (next.start as u64, next.len as u64);
    let first = runs.partition_point(|rc| rc.hi <= s);
    let Some(cost) = runs[first].cost else {
        return false;
    };
    let want = s + next.count as u64 * len;
    let mut hi = runs[first].hi;
    for rc in &runs[first + 1..] {
        if hi >= want || rc.cost != Some(cost) {
            break;
        }
        hi = rc.hi;
    }
    let m = (next.count as u64).min((hi - s) / len);
    let delta = dispatch + len * cost;
    if m < 2 || delta == 0 {
        return false;
    }
    if !ranks
        .iter()
        .all(|r| r.done || (r.ops.is_empty() && r.pending.is_empty()))
    {
        return false;
    }
    // Split each clock as t_i = t_min + a_i·Δ + b_i (0 ≤ b_i < Δ): in
    // round J, the keys in [t_min + JΔ, t_min + (J+1)Δ), every rank with
    // a_i ≤ J holds exactly one key, ordered by (b_i, i). Find the round
    // holding the m-th key, then take that round's keys in order.
    let t_min = ranks
        .iter()
        .filter(|r| !r.done)
        .map(|r| r.time)
        .min()
        .expect("a rank requested a chunk");
    split.clear();
    split.extend(
        ranks
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.done)
            .map(|(i, r)| ((r.time - t_min) / delta, (r.time - t_min) % delta, i)),
    );
    // Keys in rounds 0..=j.
    let through = |j: u64| -> u64 {
        split
            .iter()
            .map(|&(a, _, _)| (j + 1).saturating_sub(a))
            .sum()
    };
    // The earliest rank alone has m keys by round m-1.
    let (mut lo, mut up) = (0u64, m - 1);
    while lo < up {
        let mid = lo + (up - lo) / 2;
        if through(mid) >= m {
            up = mid;
        } else {
            lo = mid + 1;
        }
    }
    let round = lo;
    let before = if round == 0 { 0 } else { through(round - 1) };
    for &(a, _, i) in split.iter() {
        let k = round.saturating_sub(a);
        ranks[i].time += k * delta;
        ranks[i].executed_any |= k > 0;
    }
    split.retain(|&(a, _, _)| a <= round);
    split.sort_unstable_by_key(|&(_, b, i)| (b, i));
    for &(_, _, i) in &split[..(m - before) as usize] {
        ranks[i].time += delta;
        ranks[i].executed_any = true;
    }
    let handed = dispenser.advance_chunks(0, m as usize);
    debug_assert_eq!(handed as u64, m);
    counters.runs_fastpathed += 1;
    counters.iters_skipped += m * len - 1;
    true
}

/// Emulate a section through the priority heap (paper §IV-C). Each pop
/// serves one rank at its clock: a chunk request, the start of a task, or
/// one op. Unless per-iteration expansion is forced, a `U`-only chunk is
/// advanced in the same pop that dispatches it, and uniform stretches of
/// a `dynamic`/`guided` section go out in batches ([`hand_out_batch`]).
fn heap_section(
    st: &mut FfState<'_>,
    runs: &[RunCost],
    n_tasks: u64,
    host: usize,
    start: u64,
    burden: f64,
) -> u64 {
    let tree = st.tree;
    let n = st.cpu_time.len();
    let whole_chunks = st.closed_forms();
    let body_start = start + st.opts.overheads.parallel_start;
    let dispatch = st.opts.overheads.dispatch_for(&st.opts.schedule);
    let mut dispenser = Dispenser::new(st.opts.schedule, n_tasks as usize, n as u32);

    // Rank r runs on CPU (host + r) mod n: nested sections start their
    // round-robin at the host CPU (the Fig. 7 behaviour).
    let mut ranks: Vec<CpuRun> = (0..n)
        .map(|r| {
            let cpu = (host + r) % n;
            CpuRun {
                cpu,
                rank: r as u32,
                time: body_start.max(st.cpu_time[cpu]),
                pending: VecDeque::new(),
                ops: VecDeque::new(),
                done: false,
                executed_any: false,
            }
        })
        .collect();

    // Priority heap serialising the competing CPUs; every live rank has
    // exactly one entry, keyed by its clock.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..n).map(|i| Reverse((ranks[i].time, i))).collect();

    let mut section_end = body_start;
    let mut split = Vec::new();
    while let Some(Reverse((t, i))) = heap.pop() {
        debug_assert_eq!(t, ranks[i].time);
        obs_at!(
            st,
            t,
            EmuHeapPop {
                cpu: ranks[i].cpu as u32
            }
        );
        // Need a task op to execute?
        if ranks[i].ops.is_empty() {
            if ranks[i].pending.is_empty() {
                // After a batch every rank still waits at a chunk
                // boundary, so the next stretch may go out at once too.
                let mut batched = false;
                while whole_chunks
                    && hand_out_batch(
                        &mut ranks,
                        runs,
                        &mut dispenser,
                        dispatch,
                        &mut st.counters,
                        &mut split,
                    )
                {
                    batched = true;
                }
                if batched {
                    heap.clear();
                    heap.extend(
                        ranks
                            .iter()
                            .enumerate()
                            .filter(|(_, r)| !r.done)
                            .map(|(j, r)| Reverse((r.time, j))),
                    );
                    continue;
                }
                match dispenser.next_chunk(ranks[i].rank) {
                    Some((s, e)) => {
                        ranks[i].time += dispatch;
                        obs_at!(
                            st,
                            ranks[i].time,
                            ChunkDispatch {
                                worker: ranks[i].rank,
                                lo: s as u32,
                                hi: e as u32
                            }
                        );
                        let (s, e) = (s as u64, e as u64);
                        let first = runs.partition_point(|rc| rc.hi <= s);
                        let cost = chunk_cost(&runs[first..], s, e).filter(|_| whole_chunks);
                        if let Some(cost) = cost {
                            // No side effect until the next request:
                            // the whole chunk is one step.
                            ranks[i].time += cost;
                            ranks[i].executed_any = true;
                            st.counters.iters_skipped += e - s - 1;
                            heap.push(Reverse((ranks[i].time, i)));
                            continue;
                        }
                        for rc in runs[first..].iter().take_while(|rc| rc.lo < e) {
                            let k = rc.hi.min(e) - rc.lo.max(s);
                            ranks[i]
                                .pending
                                .extend(std::iter::repeat_n(rc.task, k as usize));
                        }
                    }
                    None => {
                        ranks[i].done = true;
                        if ranks[i].executed_any {
                            section_end = section_end.max(ranks[i].time);
                            st.cpu_time[ranks[i].cpu] =
                                st.cpu_time[ranks[i].cpu].max(ranks[i].time);
                        }
                        continue;
                    }
                }
            }
            if let Some(task) = ranks[i].pending.pop_front() {
                ranks[i].time += st.opts.overheads.iter_start;
                ranks[i].executed_any = true;
                // Refill the run's op queue in place: the buffer persists
                // across the section's tasks, so steady state allocates
                // nothing per task.
                ranks[i].ops.clear();
                ranks[i].ops.extend(tree.expanded(task));
            }
            heap.push(Reverse((ranks[i].time, i)));
            continue;
        }

        // Execute exactly one op, then requeue.
        let op = ranks[i].ops.pop_front().expect("checked non-empty");
        match tree.kind(op) {
            ViewKind::U => {
                ranks[i].time += scale(tree.length(op), burden);
            }
            ViewKind::L { lock } => {
                let free = st.lock_free.get(&lock).copied().unwrap_or(0);
                let contended = free > ranks[i].time;
                let mut acquired = ranks[i].time.max(free) + st.opts.overheads.lock_acquire;
                if contended {
                    acquired += st.opts.contended_lock_penalty;
                    obs_at!(
                        st,
                        ranks[i].time,
                        LockWait {
                            lock,
                            thread: ranks[i].cpu as u32
                        }
                    );
                }
                let released =
                    acquired + scale(tree.length(op), burden) + st.opts.overheads.lock_release;
                obs_at!(
                    st,
                    acquired,
                    LockAcquire {
                        lock,
                        thread: ranks[i].cpu as u32
                    }
                );
                obs_at!(
                    st,
                    released,
                    LockRelease {
                        lock,
                        thread: ranks[i].cpu as u32
                    }
                );
                st.lock_free.insert(lock, released);
                ranks[i].time = released;
            }
            ViewKind::Sec { .. } => {
                // Nested: recurse with this CPU as host. Nested sections
                // inherit the top-level burden factor.
                let cpu = ranks[i].cpu;
                st.cpu_time[cpu] = ranks[i].time;
                let end = emulate_section(st, op, cpu, ranks[i].time, burden);
                ranks[i].time = end;
            }
            other => unreachable!("invalid op node {}", other.tag()),
        }
        heap.push(Reverse((ranks[i].time, i)));
    }

    section_end + st.opts.overheads.parallel_end
}

/// Emulate a pipeline region (§VII-E extension): items stream through
/// stage threads; stage `s` of item `i` starts after stage `s-1` of item
/// `i` (the hand-off) and after stage `s` of item `i-1` (stages are
/// stateful, one item at a time). The recurrence yields the
/// dependency-limited makespan with one thread per stage; when the
/// machine has fewer CPUs than stages the OS time-slices the stage
/// threads, so the emulated end is additionally lower-bounded by
/// `work / cpus` (the resource limit).
fn emulate_pipe(st: &mut FfState<'_>, pipe: NodeId, start: u64, burden: f64) -> u64 {
    use std::collections::HashMap as Map;
    let tree = st.tree;
    let n = st.cpu_time.len() as u64;
    let body_start = start + st.opts.overheads.parallel_start;
    let mut stage_clock: Map<u32, u64> = Map::new();
    let mut end = body_start;
    let mut total_work: u64 = 0;
    for item in tree.expanded(pipe) {
        let mut prev_stage_end = body_start;
        for stage in tree.expanded(item) {
            let s = match tree.kind(stage) {
                ViewKind::Stage { stage } => stage,
                other => unreachable!("invalid node under pipe item: {}", other.tag()),
            };
            let clock = stage_clock.entry(s).or_insert(body_start);
            let mut t = prev_stage_end.max(*clock) + st.opts.overheads.iter_start;
            for op in tree.expanded(stage) {
                match tree.kind(op) {
                    ViewKind::U => {
                        let len = scale(tree.length(op), burden);
                        total_work += len;
                        t += len;
                    }
                    ViewKind::L { lock } => {
                        let free = st.lock_free.get(&lock).copied().unwrap_or(0);
                        let contended = free > t;
                        let mut acquired = t.max(free) + st.opts.overheads.lock_acquire;
                        if contended {
                            acquired += st.opts.contended_lock_penalty;
                        }
                        let len = scale(tree.length(op), burden);
                        total_work += len;
                        let released = acquired + len + st.opts.overheads.lock_release;
                        st.lock_free.insert(lock, released);
                        t = released;
                    }
                    other => unreachable!("invalid node under stage: {}", other.tag()),
                }
            }
            *stage_clock.get_mut(&s).expect("inserted above") = t;
            prev_stage_end = t;
        }
        end = end.max(prev_stage_end);
    }
    // Resource limit: with fewer CPUs than busy stages the makespan
    // cannot beat work/cpus.
    let end = end.max(body_start + total_work.div_ceil(n.max(1)));
    for t in st.cpu_time.iter_mut() {
        *t = (*t).max(end);
    }
    end + st.opts.overheads.parallel_end
}

fn scale(len: Cycles, burden: f64) -> u64 {
    if (burden - 1.0).abs() < 1e-12 {
        len
    } else {
        (len as f64 * burden).round() as u64
    }
}

/// Sweep CPU counts and return `(cpus, speedup)` pairs — the FF's
/// signature ability to predict for arbitrary processor counts.
pub fn speedup_curve(flat: &FlatTree, base: FfOptions, cpu_counts: &[u32]) -> Vec<(u32, f64)> {
    cpu_counts
        .iter()
        .map(|&c| {
            let mut o = base;
            o.cpus = c;
            (c, predict_flat(flat, o).speedup)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proftree::{ProgramTree, TreeBuilder};

    fn predict(tree: &ProgramTree, opts: FfOptions) -> FfPrediction {
        predict_flat(&FlatTree::from_tree(tree), opts)
    }

    fn predict_counting(tree: &ProgramTree, opts: FfOptions) -> (FfPrediction, FfCounters) {
        predict_counting_flat(&FlatTree::from_tree(tree), opts)
    }

    fn zero_opts(cpus: u32, schedule: Schedule) -> FfOptions {
        FfOptions {
            cpus,
            schedule,
            overheads: OmpOverheads::zero(),
            use_burden: true,
            contended_lock_penalty: 0,
            model_pipelines: true,
            expand_runs: false,
        }
    }

    /// Build a single-section loop with the given per-iteration
    /// (pre, lock, post) cycle triples.
    fn lock_loop(iters: &[(u64, u64, u64)]) -> ProgramTree {
        let mut b = TreeBuilder::new();
        b.begin_sec("s").unwrap();
        for &(pre, lock, post) in iters {
            b.begin_task("t").unwrap();
            if pre > 0 {
                b.add_compute(pre).unwrap();
            }
            if lock > 0 {
                b.begin_lock(1).unwrap();
                b.add_compute(lock).unwrap();
                b.end_lock(1).unwrap();
            }
            if post > 0 {
                b.add_compute(post).unwrap();
            }
            b.end_task().unwrap();
        }
        b.end_sec(false).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn fig5_all_three_schedules() {
        // Paper Fig. 5: I0 = 150/(L)450/50, I1 = 100/(L)300/200,
        // I2 = 150/(L)50/50; dual core; serial total 1500.
        let tree = lock_loop(&[(150, 450, 50), (100, 300, 200), (150, 50, 50)]);
        assert_eq!(tree.total_length(), 1500);

        // Case 1 (static,1): 1150 → speedup 1.30.
        let p = predict(&tree, zero_opts(2, Schedule::static1()));
        assert_eq!(p.predicted_cycles, 1150, "static-1");
        assert!((p.speedup - 1.304).abs() < 0.01);

        // Case 2 (static): 1250 → speedup 1.20.
        let p = predict(&tree, zero_opts(2, Schedule::static_block()));
        assert_eq!(p.predicted_cycles, 1250, "static");
        assert!((p.speedup - 1.20).abs() < 0.01);

        // Case 3 (dynamic,1): 950 → speedup 1.58.
        let p = predict(&tree, zero_opts(2, Schedule::dynamic1()));
        assert_eq!(p.predicted_cycles, 950, "dynamic-1");
        assert!((p.speedup - 1.579).abs() < 0.01);
    }

    #[test]
    fn fig7_nested_underprediction() {
        // Two-level nested loop of Fig. 7: outer (static,1) with two
        // tasks, each an inner section with tasks (10,5) and (5,10).
        // The FF's round-robin nested model books 10+10 on CPU0 → 20,
        // predicting 1.5 where the true speedup is 2.0.
        let mut b = TreeBuilder::new();
        b.begin_sec("outer").unwrap();
        for lens in [[10u64, 5], [5, 10]] {
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
        assert_eq!(tree.total_length(), 30);
        let p = predict(&tree, zero_opts(2, Schedule::static1()));
        assert_eq!(p.predicted_cycles, 20);
        assert!((p.speedup - 1.5).abs() < 1e-9);
    }

    #[test]
    fn balanced_loop_perfect_speedup() {
        let tree = lock_loop(&[(1000, 0, 0); 8]);
        for cpus in [1u32, 2, 4, 8] {
            let p = predict(&tree, zero_opts(cpus, Schedule::static1()));
            assert_eq!(p.predicted_cycles, 8000 / cpus as u64, "cpus={cpus}");
        }
    }

    #[test]
    fn serial_sections_stay_serial() {
        let mut b = TreeBuilder::new();
        b.add_compute(500).unwrap();
        b.begin_sec("s").unwrap();
        for _ in 0..4 {
            b.begin_task("t").unwrap();
            b.add_compute(1000).unwrap();
            b.end_task().unwrap();
        }
        b.end_sec(false).unwrap();
        b.add_compute(300).unwrap();
        let tree = b.finish().unwrap();
        let p = predict(&tree, zero_opts(4, Schedule::static1()));
        assert_eq!(p.predicted_cycles, 500 + 1000 + 300);
        assert_eq!(p.sections, vec![(4000, 1000)]);
    }

    #[test]
    fn fully_serialized_lock_bound_loop() {
        // Entirely locked iterations: no speedup regardless of CPUs.
        let tree = lock_loop(&[(0, 1000, 0); 6]);
        let p = predict(&tree, zero_opts(6, Schedule::static1()));
        assert_eq!(p.predicted_cycles, 6000);
        assert!((p.speedup - 1.0).abs() < 1e-9);
    }

    #[test]
    fn burden_factor_slows_section() {
        let mut b = TreeBuilder::new();
        b.begin_sec("mem").unwrap();
        for _ in 0..4 {
            b.begin_task("t").unwrap();
            b.add_compute(1000).unwrap();
            b.end_task().unwrap();
        }
        let sec = b.end_sec(false).unwrap();
        let mut tree = b.finish().unwrap();
        if let proftree::NodeKind::Sec { burden, .. } = &mut tree.node_mut(sec).kind {
            *burden = proftree::BurdenTable::from_entries(vec![(4, 1.5)]);
        }
        let with = predict(&tree, zero_opts(4, Schedule::static1()));
        let mut opts = zero_opts(4, Schedule::static1());
        opts.use_burden = false;
        let without = predict(&tree, opts);
        assert_eq!(without.predicted_cycles, 1000);
        assert_eq!(with.predicted_cycles, 1500);
        // Speedup ratio = 1/β.
        assert!((with.speedup - 4.0 / 1.5).abs() < 1e-6);
    }

    #[test]
    fn overheads_lower_speedup_for_fine_grained_loops() {
        let tree = lock_loop(&[(100, 0, 0); 64]);
        let cheap = predict(&tree, zero_opts(4, Schedule::dynamic1()));
        let mut opts = zero_opts(4, Schedule::dynamic1());
        opts.overheads.dynamic_dispatch = 50;
        opts.overheads.iter_start = 25;
        let dear = predict(&tree, opts);
        assert!(dear.predicted_cycles > cheap.predicted_cycles);
        assert!(dear.speedup < cheap.speedup);
    }

    #[test]
    fn dynamic_beats_static_on_triangular_workload() {
        let iters: Vec<(u64, u64, u64)> = (1..=32).map(|i| (i * 100, 0, 0)).collect();
        let tree = lock_loop(&iters);
        let st = predict(&tree, zero_opts(4, Schedule::static_block()));
        let dy = predict(&tree, zero_opts(4, Schedule::dynamic1()));
        assert!(dy.predicted_cycles < st.predicted_cycles);
    }

    #[test]
    fn speedup_curve_monotone_for_balanced_work() {
        let tree = lock_loop(&[(5000, 0, 0); 48]);
        let curve = speedup_curve(
            &FlatTree::from_tree(&tree),
            zero_opts(1, Schedule::static1()),
            &[1, 2, 4, 6, 8, 12],
        );
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9, "curve not monotone: {curve:?}");
        }
        assert!((curve.last().unwrap().1 - 12.0).abs() < 0.01);
    }

    #[test]
    fn speedup_never_exceeds_cpus_without_superlinearity() {
        let iters: Vec<(u64, u64, u64)> = (0..40)
            .map(|i| (100 + (i * 97) % 900, (i % 3) * 50, 50))
            .collect();
        let tree = lock_loop(&iters);
        for cpus in [2u32, 4, 8] {
            for sched in [
                Schedule::static1(),
                Schedule::static_block(),
                Schedule::dynamic1(),
            ] {
                let p = predict(&tree, zero_opts(cpus, sched));
                assert!(p.speedup <= cpus as f64 + 1e-9);
                assert!(p.speedup >= 1.0 - 1e-9);
            }
        }
    }

    #[test]
    fn empty_tree_prediction() {
        let tree = TreeBuilder::new().finish().unwrap();
        let p = predict(&tree, zero_opts(4, Schedule::static1()));
        assert_eq!(p.serial_cycles, 0);
        assert!(p.sections.is_empty());
    }

    #[test]
    fn compressed_tree_predicts_like_uncompressed() {
        let iters: Vec<(u64, u64, u64)> = (0..200).map(|_| (750, 0, 0)).collect();
        let tree = lock_loop(&iters);
        let (ctree, _) = proftree::compress_tree(&tree, proftree::CompressOptions::default());
        let a = predict(&tree, zero_opts(6, Schedule::static1()));
        let b = predict(&ctree, zero_opts(6, Schedule::static1()));
        assert_eq!(a.predicted_cycles, b.predicted_cycles);
    }

    #[test]
    fn fastpath_matches_expanded_on_static_schedules() {
        // Imbalanced iterations + a remainder that doesn't divide the
        // team, to exercise remainder chunks in the closed forms.
        let iters: Vec<(u64, u64, u64)> = (0..37).map(|i| (100 + (i % 5) * 333, 0, 0)).collect();
        let tree = lock_loop(&iters);
        let (ctree, _) = proftree::compress_tree(&tree, proftree::CompressOptions::default());
        for t in [&tree, &ctree] {
            for cpus in [1u32, 2, 3, 4, 8, 12] {
                for sched in [
                    Schedule::static_block(),
                    Schedule::static1(),
                    Schedule::Static { chunk: Some(3) },
                    Schedule::Static { chunk: Some(64) },
                ] {
                    let mut fast = zero_opts(cpus, sched);
                    fast.overheads.iter_start = 7;
                    fast.overheads.static_dispatch = 13;
                    let mut slow = fast;
                    slow.expand_runs = true;
                    let a = predict(t, fast);
                    let b = predict(t, slow);
                    assert_eq!(
                        a.predicted_cycles, b.predicted_cycles,
                        "cpus={cpus} sched={sched:?}"
                    );
                    assert_eq!(a.sections, b.sections);
                }
            }
        }
    }

    #[test]
    fn fastpath_counters_track_compressed_runs() {
        let iters: Vec<(u64, u64, u64)> = (0..500).map(|_| (750, 0, 0)).collect();
        let tree = lock_loop(&iters);
        let (ctree, _) = proftree::compress_tree(&tree, proftree::CompressOptions::default());
        let (_, c) = predict_counting(&ctree, zero_opts(4, Schedule::static1()));
        assert!(c.runs_fastpathed >= 1);
        // 500 logical iterations compress into few runs; nearly all are
        // skipped by the closed form.
        assert!(c.iters_skipped > 450, "iters_skipped {}", c.iters_skipped);
        // The forced-expansion path reports zero fast-path activity.
        let mut o = zero_opts(4, Schedule::static1());
        o.expand_runs = true;
        let (_, c) = predict_counting(&ctree, o);
        assert_eq!(c, FfCounters::default());
        // Dynamic and guided hand the uniform run out in one-step chunks
        // and batches, so nearly no iteration takes a heap step of its own.
        for sched in [Schedule::dynamic1(), Schedule::Guided { min_chunk: 4 }] {
            let (_, c) = predict_counting(&ctree, zero_opts(4, sched));
            assert!(c.runs_fastpathed >= 1, "{sched:?}: {c:?}");
            assert!(c.iters_skipped > 450, "{sched:?}: {c:?}");
        }
    }

    #[test]
    fn locked_sections_fall_back_to_exact_path() {
        let tree = lock_loop(&[(150, 450, 50), (100, 300, 200), (150, 50, 50)]);
        let (p, c) = predict_counting(&tree, zero_opts(2, Schedule::static1()));
        assert_eq!(p.predicted_cycles, 1150);
        assert_eq!(c, FfCounters::default());
    }
}
