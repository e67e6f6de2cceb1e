#![warn(missing_docs)]

//! A Cilk Plus-like work-stealing runtime on the simulated machine.
//!
//! This plays the role of Intel Cilk Plus in the paper: the efficient way
//! to run *recursive and deeply nested* parallelism (Fig. 1(b): FFT,
//! QSort). Unlike the OpenMP-like runtime — where every nested region
//! spawns a fresh team of OS threads — the Cilk runtime keeps a fixed pool
//! of `nworkers` workers with per-worker deques:
//!
//! * a `POp::Par` section becomes a *task range* that is recursively split
//!   in half until a grain size (`max(1, n / (8·W))`, as `cilk_for` does),
//!   with the upper halves pushed to the local deque;
//! * idle workers steal the oldest task from a deterministic-random
//!   victim (child stealing with help-first joins: a worker whose sync is
//!   not ready goes back to stealing, and the last strand to arrive at a
//!   join resumes the continuation);
//! * spawn, steal, and sync costs are charged per [`CilkOverheads`].
//!
//! Nested `Par` sections inside task bodies create nested joins on the
//! same worker pool — no oversubscription, which is exactly why the paper
//! recommends Cilk-style runtimes for recursive parallelism.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use machsim::prog::{POp, ParSection, ParallelProgram, TaskBody, TaskList};
use machsim::{
    Action, Env, Machine, MachineConfig, RunError, RunStats, SimLockId, ThreadBody, WorkPacket,
};
use serde::{Deserialize, Serialize};

/// Runtime overheads in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CilkOverheads {
    /// Pushing a spawned task to the local deque.
    pub spawn: u64,
    /// A successful steal (cache-cold task migration).
    pub steal: u64,
    /// A failed steal round (busy-wait backoff quantum).
    pub steal_backoff: u64,
    /// Resuming a continuation at a sync point.
    pub sync: u64,
    /// Starting one leaf iteration.
    pub leaf_iter: u64,
}

impl CilkOverheads {
    /// All zero, for exact-arithmetic tests.
    pub fn zero() -> Self {
        CilkOverheads {
            spawn: 0,
            steal: 0,
            steal_backoff: 50,
            sync: 0,
            leaf_iter: 0,
        }
    }

    /// Calibrated defaults for the scaled Westmere machine (Cilk spawns
    /// are a few tens of cycles; steals cost hundreds).
    pub fn westmere_scaled() -> Self {
        CilkOverheads {
            spawn: 35,
            steal: 400,
            steal_backoff: 150,
            sync: 40,
            leaf_iter: 8,
        }
    }
}

impl Default for CilkOverheads {
    fn default() -> Self {
        Self::westmere_scaled()
    }
}

/// Join counter for one `Par` section instance: when `pending` reaches
/// zero the suspended continuation resumes on the worker that arrived
/// last.
struct JoinCtl {
    pending: Cell<usize>,
    resume: RefCell<Option<ExecState>>,
}

/// Immutable description of a section being executed as a task range.
struct SecCtl {
    tasks: TaskList,
    grain: usize,
}

/// A schedulable unit sitting in a deque.
enum Strand {
    /// A half-open range of section tasks, to be split or executed.
    Range {
        sec: Rc<SecCtl>,
        lo: usize,
        hi: usize,
        join: Rc<JoinCtl>,
    },
    /// A resumable interpreter state (continuation). Currently
    /// continuations resume in place on the worker that satisfies the
    /// join ("the last one to arrive continues"), so this variant exists
    /// for protocol completeness and future continuation-stealing.
    #[allow(dead_code)]
    Exec(ExecState),
}

/// Stage of an in-flight `Locked` op.
#[derive(Debug, Clone, Copy)]
enum LockStage {
    Acquire,
    Body,
    Release,
}

enum CFrame {
    /// Executing a task body's ops.
    Seq {
        body: Rc<TaskBody>,
        idx: usize,
        lock_stage: Option<(LockStage, SimLockId, WorkPacket)>,
    },
    /// Executing leaf iterations `pos..end` of a section.
    Leaf {
        sec: Rc<SecCtl>,
        pos: usize,
        end: usize,
    },
}

/// A resumable execution: interpreter frames plus the join to notify on
/// completion (`None` for the program's main strand).
struct ExecState {
    frames: Vec<CFrame>,
    join: Option<Rc<JoinCtl>>,
}

/// State shared by the whole worker pool.
struct Pool {
    deques: Vec<RefCell<VecDeque<Strand>>>,
    done: Cell<bool>,
    locks: RefCell<HashMap<u32, SimLockId>>,
    overheads: CilkOverheads,
    nworkers: u32,
    /// Workers asleep after exhausting their steal attempts (spin-then-
    /// park, like the real runtime's `THE` protocol sleepers).
    parked: RefCell<Vec<machsim::ThreadId>>,
}

impl Pool {
    /// Wake one sleeper (called after pushing work).
    fn wake_one(&self, env: &mut dyn Env) {
        if let Some(tid) = self.parked.borrow_mut().pop() {
            env.unpark(tid);
        }
    }

    /// Wake everyone (program completion).
    fn wake_all(&self, env: &mut dyn Env) {
        for tid in self.parked.borrow_mut().drain(..) {
            env.unpark(tid);
        }
    }
}

impl Pool {
    fn lock_for(&self, env: &mut dyn Env, user_lock: u32) -> SimLockId {
        if let Some(&id) = self.locks.borrow().get(&user_lock) {
            return id;
        }
        let id = env.create_lock();
        self.locks.borrow_mut().insert(user_lock, id);
        id
    }
}

/// One work-stealing worker.
struct CilkWorker {
    pool: Rc<Pool>,
    rank: u32,
    current: Option<ExecState>,
    /// Deterministic xorshift state for victim selection.
    rng: u64,
    /// Overhead cycles accumulated and not yet charged.
    pending_ovh: u64,
    /// Consecutive failed steal rounds (drives exponential backoff).
    steal_fails: u32,
}

impl CilkWorker {
    fn new(pool: Rc<Pool>, rank: u32, initial: Option<ExecState>) -> Self {
        CilkWorker {
            pool,
            rank,
            current: initial,
            rng: 0x9E3779B97F4A7C15 ^ (rank as u64 + 1),
            pending_ovh: 0,
            steal_fails: 0,
        }
    }

    fn next_victim(&mut self) -> u32 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        (self.rng % self.pool.nworkers as u64) as u32
    }

    /// Convert a strand into the current execution, splitting ranges and
    /// charging spawn overhead for every push (waking a sleeper per push).
    fn activate(&mut self, env: &mut dyn Env, strand: Strand) {
        match strand {
            Strand::Exec(state) => {
                self.pending_ovh += self.pool.overheads.sync;
                self.current = Some(state);
            }
            Strand::Range {
                sec,
                lo,
                mut hi,
                join,
            } => {
                // Recursive halving: push upper halves, keep the lower.
                while hi - lo > sec.grain {
                    let mid = lo + (hi - lo) / 2;
                    join.pending.set(join.pending.get() + 1);
                    self.pool.deques[self.rank as usize]
                        .borrow_mut()
                        .push_back(Strand::Range {
                            sec: sec.clone(),
                            lo: mid,
                            hi,
                            join: join.clone(),
                        });
                    self.pending_ovh += self.pool.overheads.spawn;
                    env.record_event(prophet_obs::EventKind::TaskSpawn { worker: self.rank });
                    self.pool.wake_one(env);
                    hi = mid;
                }
                self.current = Some(ExecState {
                    frames: vec![CFrame::Leaf {
                        sec,
                        pos: lo,
                        end: hi,
                    }],
                    join: Some(join),
                });
            }
        }
    }

    /// Handle completion of the current execution: notify its join; the
    /// last arrival resumes the continuation in place.
    fn complete(&mut self, env: &mut dyn Env) {
        let state = self.current.take().expect("completing without execution");
        match state.join {
            None => {
                self.pool.done.set(true);
                self.pool.wake_all(env);
            }
            Some(join) => {
                let left = join.pending.get() - 1;
                join.pending.set(left);
                if left == 0 {
                    let resume = join
                        .resume
                        .borrow_mut()
                        .take()
                        .expect("join completed twice or never suspended");
                    self.pending_ovh += self.pool.overheads.sync;
                    env.record_event(prophet_obs::EventKind::TaskSync { worker: self.rank });
                    self.current = Some(resume);
                }
            }
        }
    }
}

impl ThreadBody for CilkWorker {
    fn step(&mut self, env: &mut dyn Env) -> Action {
        loop {
            // Charge any accumulated bookkeeping overhead first.
            if self.pending_ovh > 0 {
                let c = std::mem::take(&mut self.pending_ovh);
                return Action::Compute(WorkPacket::cpu(c));
            }

            let Some(exec) = self.current.as_mut() else {
                // Scheduler loop: local pop (LIFO) → steal (FIFO) → idle.
                let local = self.pool.deques[self.rank as usize].borrow_mut().pop_back();
                if let Some(strand) = local {
                    self.steal_fails = 0;
                    self.activate(env, strand);
                    continue;
                }
                let mut stolen = None;
                for _ in 0..(2 * self.pool.nworkers).max(4) {
                    let v = self.next_victim();
                    if v == self.rank {
                        continue;
                    }
                    if let Some(s) = self.pool.deques[v as usize].borrow_mut().pop_front() {
                        env.record_event(prophet_obs::EventKind::StealAttempt {
                            thief: self.rank,
                            victim: v,
                            success: true,
                        });
                        stolen = Some(s);
                        break;
                    }
                    env.record_event(prophet_obs::EventKind::StealAttempt {
                        thief: self.rank,
                        victim: v,
                        success: false,
                    });
                }
                if let Some(strand) = stolen {
                    self.pending_ovh += self.pool.overheads.steal;
                    self.steal_fails = 0;
                    self.activate(env, strand);
                    continue;
                }
                if self.pool.done.get() {
                    return Action::Exit;
                }
                // Spin-then-sleep, like the real runtime: a couple of
                // backoff spins, then park until a push wakes us. The
                // park registration and the final deque re-check happen
                // atomically within this step, so a concurrent push
                // cannot be missed.
                if self.steal_fails < 3 {
                    self.steal_fails += 1;
                    return Action::Compute(WorkPacket::cpu(
                        self.pool.overheads.steal_backoff.max(1),
                    ));
                }
                self.steal_fails = 0;
                let me = env.me();
                self.pool.parked.borrow_mut().push(me);
                let any_work = self.pool.deques.iter().any(|d| !d.borrow().is_empty());
                if any_work || self.pool.done.get() {
                    self.pool.parked.borrow_mut().retain(|&t| t != me);
                    continue;
                }
                return Action::Park;
            };

            // Interpret the current execution.
            let Some(frame) = exec.frames.last_mut() else {
                self.complete(env);
                continue;
            };
            match frame {
                CFrame::Leaf { sec, pos, end } => {
                    if *pos < *end {
                        let task = sec.tasks[*pos].clone();
                        *pos += 1;
                        let iter_ovh = self.pool.overheads.leaf_iter;
                        exec.frames.push(CFrame::Seq {
                            body: task,
                            idx: 0,
                            lock_stage: None,
                        });
                        if iter_ovh > 0 {
                            return Action::Compute(WorkPacket::cpu(iter_ovh));
                        }
                        continue;
                    }
                    exec.frames.pop();
                    continue;
                }
                CFrame::Seq {
                    body,
                    idx,
                    lock_stage,
                } => {
                    if let Some((stage, lock, work)) = *lock_stage {
                        match stage {
                            LockStage::Acquire => {
                                *lock_stage = Some((LockStage::Body, lock, work));
                                return Action::Acquire(lock);
                            }
                            LockStage::Body => {
                                *lock_stage = Some((LockStage::Release, lock, work));
                                return Action::Compute(work);
                            }
                            LockStage::Release => {
                                *lock_stage = None;
                                *idx += 1;
                                return Action::Release(lock);
                            }
                        }
                    }
                    let Some(op) = body.ops.get(*idx) else {
                        exec.frames.pop();
                        continue;
                    };
                    match op {
                        POp::Work(p) => {
                            let p = *p;
                            *idx += 1;
                            return Action::Compute(p);
                        }
                        POp::Locked { lock, work } => {
                            let (lock, work) = (*lock, *work);
                            let sim = self.pool.lock_for(env, lock);
                            if let Some(CFrame::Seq { lock_stage, .. }) = exec.frames.last_mut() {
                                *lock_stage = Some((LockStage::Acquire, sim, work));
                            }
                            continue;
                        }
                        POp::Par(sec) => {
                            let sec = sec.clone();
                            *idx += 1;
                            self.suspend_for_section(env, sec);
                            continue;
                        }
                        POp::Pipe(_) => {
                            // Pipelines are hosted by the OpenMP-like
                            // runtime's stage threads; a Cilk worker pool
                            // has no stage affinity to offer.
                            unimplemented!("pipeline regions run under the OpenMP-like runtime")
                        }
                    }
                }
            }
        }
    }
}

impl CilkWorker {
    /// Suspend the current execution behind a join and enqueue the section
    /// as a range strand.
    fn suspend_for_section(&mut self, env: &mut dyn Env, sec: ParSection) {
        let n = sec.tasks.len();
        let grain = cilk_for_grain(n, self.pool.nworkers);
        let join = Rc::new(JoinCtl {
            pending: Cell::new(1),
            resume: RefCell::new(None),
        });
        let sec_ctl = Rc::new(SecCtl {
            tasks: sec.tasks,
            grain,
        });
        let suspended = self.current.take().expect("suspending without execution");
        *join.resume.borrow_mut() = Some(suspended);
        self.pool.deques[self.rank as usize]
            .borrow_mut()
            .push_back(Strand::Range {
                sec: sec_ctl,
                lo: 0,
                hi: n,
                join,
            });
        self.pending_ovh += self.pool.overheads.spawn;
        self.pool.wake_one(env);
    }
}

/// The `cilk_for` grain size: `min(2048, max(1, ⌈n / 8W⌉))`, as in the
/// Cilk Plus runtime.
pub fn cilk_for_grain(n: usize, workers: u32) -> usize {
    let denom = 8 * workers as usize;
    n.div_ceil(denom).clamp(1, 2048)
}

/// Run `program` on a fresh machine with `nworkers` Cilk workers.
pub fn run_program_cilk(
    cfg: MachineConfig,
    program: &ParallelProgram,
    overheads: CilkOverheads,
    nworkers: u32,
) -> Result<RunStats, RunError> {
    let mut machine = Machine::new(cfg);
    run_program_cilk_on(&mut machine, program, overheads, nworkers)
}

/// Run `program` on an existing (fresh) machine — use this to configure
/// the machine first, e.g. attach a `prophet-obs` recorder.
pub fn run_program_cilk_on(
    machine: &mut Machine,
    program: &ParallelProgram,
    overheads: CilkOverheads,
    nworkers: u32,
) -> Result<RunStats, RunError> {
    let nworkers = nworkers.max(1);
    let pool = Rc::new(Pool {
        deques: (0..nworkers)
            .map(|_| RefCell::new(VecDeque::new()))
            .collect(),
        done: Cell::new(false),
        locks: RefCell::new(HashMap::new()),
        overheads,
        nworkers,
        parked: RefCell::new(Vec::new()),
    });
    let main = ExecState {
        frames: vec![CFrame::Seq {
            body: Rc::new(TaskBody {
                ops: program.ops.clone(),
            }),
            idx: 0,
            lock_stage: None,
        }],
        join: None,
    };
    machine.spawn(CilkWorker::new(pool.clone(), 0, Some(main)));
    for rank in 1..nworkers {
        machine.spawn(CilkWorker::new(pool.clone(), rank, None));
    }
    machine.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loop_prog(lens: &[u64]) -> ParallelProgram {
        let tasks = lens
            .iter()
            .map(|&l| {
                Rc::new(TaskBody {
                    ops: vec![POp::Work(WorkPacket::cpu(l))],
                })
            })
            .collect();
        ParallelProgram {
            ops: vec![POp::Par(ParSection::new(tasks))],
        }
    }

    #[test]
    fn grain_matches_cilk_for() {
        assert_eq!(cilk_for_grain(100, 4), 4); // ceil(100/32)
        assert_eq!(cilk_for_grain(8, 4), 1);
        assert_eq!(cilk_for_grain(1_000_000, 4), 2048);
        assert_eq!(cilk_for_grain(0, 4), 1);
    }

    #[test]
    fn single_worker_executes_serially() {
        let prog = loop_prog(&[100; 10]);
        let s = run_program_cilk(MachineConfig::small(1), &prog, CilkOverheads::zero(), 1).unwrap();
        // 1000 cycles of work plus bounded scheduling noise.
        assert!(s.elapsed_cycles >= 1000);
        assert!(s.elapsed_cycles < 1400, "elapsed {}", s.elapsed_cycles);
    }

    #[test]
    fn balanced_loop_scales() {
        let prog = loop_prog(&[10_000; 64]);
        let t1 = run_program_cilk(MachineConfig::small(1), &prog, CilkOverheads::zero(), 1)
            .unwrap()
            .elapsed_cycles;
        let t4 = run_program_cilk(MachineConfig::small(4), &prog, CilkOverheads::zero(), 4)
            .unwrap()
            .elapsed_cycles;
        let speedup = t1 as f64 / t4 as f64;
        assert!(speedup > 3.5, "speedup {speedup} (t1={t1}, t4={t4})");
    }

    #[test]
    fn recursive_nested_sections_scale_without_oversubscription() {
        // A binary recursion 4 levels deep, leaves of 10_000 cycles —
        // the FFT/QSort shape.
        fn rec(depth: u32) -> Rc<TaskBody> {
            if depth == 0 {
                return Rc::new(TaskBody {
                    ops: vec![POp::Work(WorkPacket::cpu(10_000))],
                });
            }
            Rc::new(TaskBody {
                ops: vec![POp::Par(ParSection::new(vec![
                    rec(depth - 1),
                    rec(depth - 1),
                ]))],
            })
        }
        let prog = ParallelProgram {
            ops: vec![POp::Par(ParSection::new(vec![rec(4)]))],
        };
        let t1 =
            run_program_cilk(MachineConfig::small(1), &prog, CilkOverheads::zero(), 1).unwrap();
        let t4 =
            run_program_cilk(MachineConfig::small(4), &prog, CilkOverheads::zero(), 4).unwrap();
        // Only the fixed worker pool runs — no thread explosion.
        assert_eq!(t4.threads_spawned, 4);
        let speedup = t1.elapsed_cycles as f64 / t4.elapsed_cycles as f64;
        assert!(speedup > 3.0, "speedup {speedup}");
    }

    #[test]
    fn imbalanced_loop_balances_by_stealing() {
        // Triangular lengths: stealing should do clearly better than a
        // static block split (worst rank would own the heavy tail).
        let lens: Vec<u64> = (1..=64).map(|i| i * 500).collect();
        let total: u64 = lens.iter().sum();
        let prog = loop_prog(&lens);
        let s = run_program_cilk(MachineConfig::small(4), &prog, CilkOverheads::zero(), 4).unwrap();
        let ideal = total / 4;
        assert!(
            (s.elapsed_cycles as f64) < 1.35 * ideal as f64,
            "elapsed {} vs ideal {ideal}",
            s.elapsed_cycles
        );
    }

    #[test]
    fn locks_serialize_across_stolen_tasks() {
        let task = Rc::new(TaskBody {
            ops: vec![POp::Locked {
                lock: 9,
                work: WorkPacket::cpu(1_000),
            }],
        });
        let prog = ParallelProgram {
            ops: vec![POp::Par(ParSection::new(vec![
                task.clone(),
                task.clone(),
                task,
            ]))],
        };
        let s = run_program_cilk(MachineConfig::small(4), &prog, CilkOverheads::zero(), 4).unwrap();
        assert!(s.elapsed_cycles >= 3_000, "elapsed {}", s.elapsed_cycles);
        assert_eq!(s.lock_acquisitions, 3);
    }

    #[test]
    fn serial_pre_and_post_work_on_main_strand() {
        let mut prog = loop_prog(&[1_000; 8]);
        prog.ops.insert(0, POp::Work(WorkPacket::cpu(500)));
        prog.ops.push(POp::Work(WorkPacket::cpu(700)));
        let s = run_program_cilk(MachineConfig::small(4), &prog, CilkOverheads::zero(), 4).unwrap();
        assert!(s.elapsed_cycles >= 500 + 2_000 + 700);
        assert!(
            s.elapsed_cycles < 500 + 2_000 + 700 + 1_500,
            "elapsed {}",
            s.elapsed_cycles
        );
    }

    #[test]
    fn determinism() {
        let lens: Vec<u64> = (1..=40).map(|i| (i * 37) % 900 + 100).collect();
        let prog = loop_prog(&lens);
        let a =
            run_program_cilk(MachineConfig::small(3), &prog, CilkOverheads::default(), 3).unwrap();
        let b =
            run_program_cilk(MachineConfig::small(3), &prog, CilkOverheads::default(), 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_section_completes() {
        let prog = ParallelProgram {
            ops: vec![POp::Par(ParSection::new(vec![]))],
        };
        let s = run_program_cilk(MachineConfig::small(2), &prog, CilkOverheads::zero(), 2).unwrap();
        assert!(s.elapsed_cycles < 2_000);
    }

    #[test]
    fn overheads_make_fine_grain_expensive() {
        // 4096 tiny tasks: with heavy spawn/steal costs the run takes
        // measurably longer than with zero costs.
        let prog = loop_prog(&[10; 4096]);
        let cheap = run_program_cilk(MachineConfig::small(4), &prog, CilkOverheads::zero(), 4)
            .unwrap()
            .elapsed_cycles;
        let mut heavy = CilkOverheads::zero();
        heavy.spawn = 200;
        heavy.leaf_iter = 50;
        let dear = run_program_cilk(MachineConfig::small(4), &prog, heavy, 4)
            .unwrap()
            .elapsed_cycles;
        assert!(
            dear as f64 > 1.5 * cheap as f64,
            "cheap={cheap} dear={dear}"
        );
    }
}
