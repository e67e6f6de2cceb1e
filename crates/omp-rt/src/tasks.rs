//! OpenMP 3.0 `task` execution: a fixed worker pool sharing one central
//! task queue.
//!
//! The paper names OpenMP 3.0 tasks (with TBB and Cilk Plus) as the
//! effective way to run recursive parallelism (§III). Unlike the
//! work-stealing Cilk runtime, the classic libgomp-style implementation
//! keeps a *central* queue protected by a lock: every push and pop takes
//! the queue lock, so fine-grained task storms serialise on the queue —
//! the characteristic scalability difference between the two paradigms
//! that the synthesizer can expose by simply re-running the same tree
//! under each runtime.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use machsim::prog::{POp, ParSection, ParallelProgram, TaskBody};
use machsim::{
    Action, Env, Machine, MachineConfig, RunError, RunStats, SimLockId, ThreadBody, ThreadId,
    WorkPacket,
};

/// Overheads of the task runtime, in cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskOverheads {
    /// Creating + enqueuing one task (inside the queue lock).
    pub push: u64,
    /// Dequeuing one task (inside the queue lock).
    pub pop: u64,
    /// Resuming a continuation at a taskwait.
    pub sync: u64,
    /// Idle re-check period while the queue is empty.
    pub idle_backoff: u64,
}

impl TaskOverheads {
    /// All zero (exact-arithmetic tests); idle backoff stays minimal.
    pub fn zero() -> Self {
        TaskOverheads {
            push: 0,
            pop: 0,
            sync: 0,
            idle_backoff: 50,
        }
    }

    /// Calibrated defaults: central-queue operations are heavier than
    /// Cilk deque pushes (they take a shared lock).
    pub fn westmere_scaled() -> Self {
        TaskOverheads {
            push: 90,
            pop: 90,
            sync: 60,
            idle_backoff: 150,
        }
    }
}

impl Default for TaskOverheads {
    fn default() -> Self {
        Self::westmere_scaled()
    }
}

/// Join counter: the last finishing child resumes the suspended parent.
struct JoinCtl {
    pending: Cell<usize>,
    resume: RefCell<Option<ExecState>>,
}

enum TFrame {
    Seq {
        body: Rc<TaskBody>,
        idx: usize,
        lock_stage: Option<(u8, SimLockId, WorkPacket)>,
    },
}

/// A resumable task execution.
struct ExecState {
    frames: Vec<TFrame>,
    join: Option<Rc<JoinCtl>>,
}

/// Pool state: the central queue and its lock.
struct TaskPool {
    queue: RefCell<VecDeque<ExecState>>,
    queue_lock: Cell<Option<SimLockId>>,
    done: Cell<bool>,
    locks: RefCell<HashMap<u32, SimLockId>>,
    overheads: TaskOverheads,
    parked: RefCell<Vec<ThreadId>>,
}

impl TaskPool {
    fn lock_for(&self, env: &mut dyn Env, user_lock: u32) -> SimLockId {
        if let Some(&id) = self.locks.borrow().get(&user_lock) {
            return id;
        }
        let id = env.create_lock();
        self.locks.borrow_mut().insert(user_lock, id);
        id
    }

    fn queue_lock(&self, env: &mut dyn Env) -> SimLockId {
        match self.queue_lock.get() {
            Some(l) => l,
            None => {
                let l = env.create_lock();
                self.queue_lock.set(Some(l));
                l
            }
        }
    }

    fn wake_one(&self, env: &mut dyn Env) {
        if let Some(tid) = self.parked.borrow_mut().pop() {
            env.unpark(tid);
        }
    }

    fn wake_all(&self, env: &mut dyn Env) {
        for tid in self.parked.borrow_mut().drain(..) {
            env.unpark(tid);
        }
    }
}

/// Micro-state of a worker's transaction on the central queue. Every
/// transaction is `Acquire(queue lock) → Compute(cost) → mutate queue →
/// Release`, so concurrent workers genuinely serialise on the lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueueOp {
    /// Not touching the queue.
    None,
    /// Lock acquired; pay the pop cost next.
    PopPay,
    /// Cost paid; pop and release.
    PopDo,
    /// Lock acquired; pay the push costs next.
    PushPay,
    /// Costs paid; enqueue all pending tasks, wake sleepers, release.
    PushDo,
}

/// A task-pool worker.
struct TaskWorker {
    pool: Rc<TaskPool>,
    current: Option<ExecState>,
    queue_op: QueueOp,
    /// Tasks awaiting enqueue while we take the queue lock.
    pending_push: Vec<ExecState>,
    idle_spins: u32,
}

impl ThreadBody for TaskWorker {
    fn step(&mut self, env: &mut dyn Env) -> Action {
        loop {
            // Advance an in-flight queue transaction.
            match self.queue_op {
                QueueOp::PopPay => {
                    self.queue_op = QueueOp::PopDo;
                    let cost = self.pool.overheads.pop;
                    if cost > 0 {
                        return Action::Compute(WorkPacket::cpu(cost));
                    }
                    continue;
                }
                QueueOp::PopDo => {
                    self.queue_op = QueueOp::None;
                    if let Some(task) = self.pool.queue.borrow_mut().pop_front() {
                        self.current = Some(task);
                    }
                    let lock = self.pool.queue_lock(env);
                    return Action::Release(lock);
                }
                QueueOp::PushPay => {
                    self.queue_op = QueueOp::PushDo;
                    let cost = self.pool.overheads.push * self.pending_push.len() as u64;
                    if cost > 0 {
                        return Action::Compute(WorkPacket::cpu(cost));
                    }
                    continue;
                }
                QueueOp::PushDo => {
                    self.queue_op = QueueOp::None;
                    let n = self.pending_push.len();
                    for t in self.pending_push.drain(..) {
                        env.record_event(prophet_obs::EventKind::TaskSpawn { worker: env.me().0 });
                        self.pool.queue.borrow_mut().push_back(t);
                    }
                    for _ in 0..n {
                        self.pool.wake_one(env);
                    }
                    let lock = self.pool.queue_lock(env);
                    return Action::Release(lock);
                }
                QueueOp::None => {}
            }

            let Some(exec) = self.current.as_mut() else {
                // Need work: take the queue lock and pop.
                if self.pool.done.get() {
                    return Action::Exit;
                }
                if self.pool.queue.borrow().is_empty() {
                    // Spin briefly, then park until a push wakes us.
                    if self.idle_spins < 3 {
                        self.idle_spins += 1;
                        return Action::Compute(WorkPacket::cpu(
                            self.pool.overheads.idle_backoff.max(1),
                        ));
                    }
                    self.idle_spins = 0;
                    let me = env.me();
                    self.pool.parked.borrow_mut().push(me);
                    if !self.pool.queue.borrow().is_empty() || self.pool.done.get() {
                        self.pool.parked.borrow_mut().retain(|&t| t != me);
                        continue;
                    }
                    return Action::Park;
                }
                self.idle_spins = 0;
                // Central-queue pop transaction.
                let lock = self.pool.queue_lock(env);
                self.queue_op = QueueOp::PopPay;
                return Action::Acquire(lock);
            };

            // Interpret the current task.
            let Some(TFrame::Seq {
                body,
                idx,
                lock_stage,
            }) = exec.frames.last_mut()
            else {
                // Task finished: notify the join.
                let state = self.current.take().expect("finishing without task");
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
                                .expect("taskwait resumed twice");
                            env.record_event(prophet_obs::EventKind::TaskSync {
                                worker: env.me().0,
                            });
                            self.current = Some(resume);
                            let sync = self.pool.overheads.sync;
                            if sync > 0 {
                                return Action::Compute(WorkPacket::cpu(sync));
                            }
                        }
                    }
                }
                continue;
            };

            if let Some((stage, lock, work)) = *lock_stage {
                match stage {
                    0 => {
                        *lock_stage = Some((1, lock, work));
                        return Action::Acquire(lock);
                    }
                    1 => {
                        *lock_stage = Some((2, lock, work));
                        return Action::Compute(work);
                    }
                    _ => {
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
                    if let Some(TFrame::Seq { lock_stage, .. }) = exec.frames.last_mut() {
                        *lock_stage = Some((0, sim, work));
                    }
                    continue;
                }
                POp::Par(sec) => {
                    // `#pragma omp task` per child + taskwait: suspend the
                    // parent behind a join and enqueue every child task.
                    let sec: ParSection = sec.clone();
                    *idx += 1;
                    let join = Rc::new(JoinCtl {
                        pending: Cell::new(sec.tasks.len()),
                        resume: RefCell::new(None),
                    });
                    let n = sec.tasks.len();
                    if n == 0 {
                        continue;
                    }
                    let suspended = self.current.take().expect("suspending without task");
                    *join.resume.borrow_mut() = Some(suspended);
                    for task in sec.tasks {
                        self.pending_push.push(ExecState {
                            frames: vec![TFrame::Seq {
                                body: task,
                                idx: 0,
                                lock_stage: None,
                            }],
                            join: Some(join.clone()),
                        });
                    }
                    // Central-queue push transaction.
                    let lock = self.pool.queue_lock(env);
                    self.queue_op = QueueOp::PushPay;
                    return Action::Acquire(lock);
                }
                POp::Pipe(_) => {
                    unimplemented!("pipeline regions run under the OpenMP-like runtime")
                }
            }
        }
    }
}

/// Run `program` under the task runtime with `nworkers` pool threads.
pub fn run_program_tasks(
    cfg: MachineConfig,
    program: &ParallelProgram,
    overheads: TaskOverheads,
    nworkers: u32,
) -> Result<RunStats, RunError> {
    let mut machine = Machine::new(cfg);
    run_program_tasks_on(&mut machine, program, overheads, nworkers)
}

/// Run `program` under the task runtime on an existing (fresh) machine —
/// use this to configure the machine first, e.g. attach a `prophet-obs`
/// recorder.
pub fn run_program_tasks_on(
    machine: &mut Machine,
    program: &ParallelProgram,
    overheads: TaskOverheads,
    nworkers: u32,
) -> Result<RunStats, RunError> {
    let nworkers = nworkers.max(1);
    let pool = Rc::new(TaskPool {
        queue: RefCell::new(VecDeque::new()),
        queue_lock: Cell::new(None),
        done: Cell::new(false),
        locks: RefCell::new(HashMap::new()),
        overheads,
        parked: RefCell::new(Vec::new()),
    });
    let main = ExecState {
        frames: vec![TFrame::Seq {
            body: Rc::new(TaskBody {
                ops: program.ops.clone(),
            }),
            idx: 0,
            lock_stage: None,
        }],
        join: None,
    };
    machine.spawn(TaskWorker {
        pool: pool.clone(),
        current: Some(main),
        queue_op: QueueOp::None,
        pending_push: Vec::new(),
        idle_spins: 0,
    });
    for _ in 1..nworkers {
        machine.spawn(TaskWorker {
            pool: pool.clone(),
            current: None,
            queue_op: QueueOp::None,
            pending_push: Vec::new(),
            idle_spins: 0,
        });
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
    fn balanced_loop_scales() {
        let prog = loop_prog(&[20_000; 32]);
        let t1 = run_program_tasks(MachineConfig::small(1), &prog, TaskOverheads::zero(), 1)
            .unwrap()
            .elapsed_cycles;
        let t4 = run_program_tasks(MachineConfig::small(4), &prog, TaskOverheads::zero(), 4)
            .unwrap()
            .elapsed_cycles;
        let speedup = t1 as f64 / t4 as f64;
        assert!(speedup > 3.5, "speedup {speedup}");
    }

    #[test]
    fn recursive_tasks_complete_without_thread_explosion() {
        fn rec(depth: u32) -> Rc<TaskBody> {
            if depth == 0 {
                return Rc::new(TaskBody {
                    ops: vec![POp::Work(WorkPacket::cpu(5_000))],
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
            ops: vec![POp::Par(ParSection::new(vec![rec(5)]))],
        };
        let s =
            run_program_tasks(MachineConfig::small(4), &prog, TaskOverheads::zero(), 4).unwrap();
        assert_eq!(s.threads_spawned, 4);
        assert!(s.busy_cycles >= 32 * 5_000);
    }

    #[test]
    fn central_queue_contention_hurts_fine_grain() {
        // 4096 tiny tasks: the central queue (locked push/pop) caps the
        // task throughput; Cilk's distributed deques do much better.
        let prog = loop_prog(&[300; 4096]);
        let tasks = run_program_tasks(
            MachineConfig::small(8),
            &prog,
            TaskOverheads::westmere_scaled(),
            8,
        )
        .unwrap()
        .elapsed_cycles;
        let cilk = cilk_rt::run_program_cilk(
            MachineConfig::small(8),
            &prog,
            cilk_rt::CilkOverheads::westmere_scaled(),
            8,
        )
        .unwrap()
        .elapsed_cycles;
        assert!(
            tasks as f64 > 1.5 * cilk as f64,
            "central queue ({tasks}) should lose to work stealing ({cilk}) on fine grain"
        );
    }

    #[test]
    fn coarse_grain_parity_with_cilk() {
        let prog = loop_prog(&[500_000; 32]);
        let tasks = run_program_tasks(
            MachineConfig::small(8),
            &prog,
            TaskOverheads::westmere_scaled(),
            8,
        )
        .unwrap()
        .elapsed_cycles;
        let cilk = cilk_rt::run_program_cilk(
            MachineConfig::small(8),
            &prog,
            cilk_rt::CilkOverheads::westmere_scaled(),
            8,
        )
        .unwrap()
        .elapsed_cycles;
        let ratio = tasks as f64 / cilk as f64;
        assert!(
            (0.9..1.15).contains(&ratio),
            "coarse grain parity broke: {ratio}"
        );
    }

    #[test]
    fn locks_respected() {
        let task = Rc::new(TaskBody {
            ops: vec![POp::Locked {
                lock: 3,
                work: WorkPacket::cpu(10_000),
            }],
        });
        let prog = ParallelProgram {
            ops: vec![POp::Par(ParSection::new(vec![
                task.clone(),
                task.clone(),
                task,
            ]))],
        };
        let s =
            run_program_tasks(MachineConfig::small(4), &prog, TaskOverheads::zero(), 4).unwrap();
        assert!(s.elapsed_cycles >= 30_000);
        // Machine-wide lock stats also count the central queue lock.
        assert!(s.lock_acquisitions >= 3);
    }

    #[test]
    fn deterministic() {
        let lens: Vec<u64> = (1..=30).map(|i| (i * 531) % 7_000 + 500).collect();
        let prog = loop_prog(&lens);
        let run = || {
            run_program_tasks(
                MachineConfig::small(3),
                &prog,
                TaskOverheads::westmere_scaled(),
                3,
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }
}
