//! The OpenMP-like worker: a resumable interpreter over the program IR.
//!
//! Each simulated thread runs a [`Worker`] body holding a stack of frames:
//! `Seq` frames execute an operation sequence (the main program or a task
//! body), `Region` frames drive participation in one parallel region
//! (chunk dispatch, per-iteration overhead, end barrier). Encountering a
//! nested `POp::Par` pushes a new region and spawns a fresh team — nested
//! parallelism therefore oversubscribes the machine exactly like a naive
//! nested OpenMP program.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use machsim::prog::{POp, ParSection, ParallelProgram, TaskBody, TaskList};
use machsim::{
    Action, BarrierId, Env, Machine, MachineConfig, RunError, RunStats, SimLockId, ThreadBody,
    WorkPacket,
};

use crate::dispenser::Dispenser;
use crate::overhead::OmpOverheads;

/// Shared, runtime-global state: overheads, the default team size, and the
/// user-lock registry (annotation lock ids → machine mutexes).
pub struct OmpRuntime {
    /// Construct overheads in cycles.
    pub overheads: OmpOverheads,
    /// Team size for sections that don't override it.
    pub default_team: u32,
    locks: RefCell<HashMap<u32, SimLockId>>,
}

impl OmpRuntime {
    /// New runtime state.
    pub fn new(overheads: OmpOverheads, default_team: u32) -> Rc<Self> {
        Rc::new(OmpRuntime {
            overheads,
            default_team: default_team.max(1),
            locks: RefCell::new(HashMap::new()),
        })
    }

    pub(crate) fn lock_for(&self, env: &mut dyn Env, user_lock: u32) -> SimLockId {
        if let Some(&id) = self.locks.borrow().get(&user_lock) {
            return id;
        }
        let id = env.create_lock();
        self.locks.borrow_mut().insert(user_lock, id);
        id
    }
}

/// Control block of one parallel-region *instance*.
struct RegionCtl {
    tasks: TaskList,
    dispenser: RefCell<Dispenser>,
    /// End barrier; `None` when the section is `nowait`.
    barrier: Option<BarrierId>,
    /// Dispatch overhead per chunk grab for this region's schedule.
    dispatch_ovh: u64,
}

/// Stage of a `Locked` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockStage {
    AcquireOvh,
    Acquire,
    Body,
    Release,
    ReleaseOvh,
}

/// A frame executing an op sequence.
struct SeqFrame {
    body: Rc<TaskBody>,
    idx: usize,
    /// In-progress `Locked` op stage.
    lock_stage: Option<(LockStage, SimLockId, WorkPacket)>,
}

impl SeqFrame {
    fn new(body: Rc<TaskBody>) -> Self {
        SeqFrame {
            body,
            idx: 0,
            lock_stage: None,
        }
    }
}

/// Phase of a region frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RPhase {
    /// Charge the worker-start overhead (non-master first entry).
    StartOvh,
    /// Charge the dispatch overhead, then grab.
    PayDispatch,
    /// Ask the dispenser for a chunk.
    Grab,
    /// Charge per-iteration overhead, then push the task.
    IterOvh,
    /// Push the next task of the current chunk.
    PushTask,
    /// Arrive at the end barrier.
    EndBarrier,
    /// After the barrier: master pays join overhead and pops; workers exit.
    Epilogue,
}

/// A frame driving participation in one region.
struct RegionFrame {
    ctl: Rc<RegionCtl>,
    rank: u32,
    is_master: bool,
    chunk: Option<(usize, usize)>,
    pos: usize,
    phase: RPhase,
}

enum Frame {
    Seq(SeqFrame),
    Region(RegionFrame),
    /// Master waiting for a pipeline region to drain.
    PipeWait(Rc<crate::pipeline::PipeCtl>),
}

/// The interpreter thread body.
pub struct Worker {
    rt: Rc<OmpRuntime>,
    stack: Vec<Frame>,
}

impl Worker {
    /// Master worker executing the whole program.
    pub fn master(rt: Rc<OmpRuntime>, program: &ParallelProgram) -> Self {
        let body = Rc::new(TaskBody {
            ops: program.ops.clone(),
        });
        Worker {
            rt,
            stack: vec![Frame::Seq(SeqFrame::new(body))],
        }
    }

    fn team_member(rt: Rc<OmpRuntime>, ctl: Rc<RegionCtl>, rank: u32) -> Self {
        Worker {
            rt,
            stack: vec![Frame::Region(RegionFrame {
                ctl,
                rank,
                is_master: false,
                chunk: None,
                pos: 0,
                phase: RPhase::StartOvh,
            })],
        }
    }

    /// Enter a parallel section: build the region control block, spawn the
    /// team, and return the master's region frame.
    fn enter_region(&self, env: &mut dyn Env, sec: &ParSection) -> RegionFrame {
        let team = sec.team.unwrap_or(self.rt.default_team).max(1);
        let barrier = if sec.nowait {
            None
        } else {
            Some(env.create_barrier(team))
        };
        let ctl = Rc::new(RegionCtl {
            tasks: sec.tasks.clone(),
            dispenser: RefCell::new(Dispenser::new(sec.schedule, sec.tasks.len(), team)),
            barrier,
            dispatch_ovh: self.rt.overheads.dispatch_for(&sec.schedule),
        });
        for rank in 1..team {
            env.spawn(Box::new(Worker::team_member(
                self.rt.clone(),
                ctl.clone(),
                rank,
            )));
        }
        RegionFrame {
            ctl,
            rank: 0,
            is_master: true,
            chunk: None,
            pos: 0,
            phase: RPhase::PayDispatch,
        }
    }
}

impl ThreadBody for Worker {
    fn step(&mut self, env: &mut dyn Env) -> Action {
        loop {
            // Split off the region-entry case to satisfy the borrow
            // checker: popping/pushing frames needs &mut self.stack.
            let Some(top) = self.stack.last_mut() else {
                return Action::Exit;
            };
            match top {
                Frame::Seq(f) => {
                    // Mid-`Locked` stage machine.
                    if let Some((stage, lock, work)) = f.lock_stage {
                        match stage {
                            LockStage::AcquireOvh => {
                                f.lock_stage = Some((LockStage::Acquire, lock, work));
                                return Action::Compute(WorkPacket::cpu(
                                    self.rt.overheads.lock_acquire,
                                ));
                            }
                            LockStage::Acquire => {
                                f.lock_stage = Some((LockStage::Body, lock, work));
                                return Action::Acquire(lock);
                            }
                            LockStage::Body => {
                                f.lock_stage = Some((LockStage::Release, lock, work));
                                return Action::Compute(work);
                            }
                            LockStage::Release => {
                                f.lock_stage = Some((LockStage::ReleaseOvh, lock, work));
                                return Action::Release(lock);
                            }
                            LockStage::ReleaseOvh => {
                                f.lock_stage = None;
                                f.idx += 1;
                                return Action::Compute(WorkPacket::cpu(
                                    self.rt.overheads.lock_release,
                                ));
                            }
                        }
                    }
                    let Some(op) = f.body.ops.get(f.idx) else {
                        self.stack.pop();
                        continue;
                    };
                    match op {
                        POp::Work(p) => {
                            let p = *p;
                            f.idx += 1;
                            return Action::Compute(p);
                        }
                        POp::Locked { lock, work } => {
                            let (lock, work) = (*lock, *work);
                            let sim = self.rt.lock_for(env, lock);
                            // Start the stage machine (idx advances at the
                            // final stage).
                            if let Some(Frame::Seq(f)) = self.stack.last_mut() {
                                f.lock_stage = Some((LockStage::AcquireOvh, sim, work));
                            }
                            continue;
                        }
                        POp::Par(sec) => {
                            let sec = sec.clone();
                            f.idx += 1;
                            let fork = self.rt.overheads.parallel_start;
                            crate::obs_span(env, true, "omp_parallel");
                            let frame = self.enter_region(env, &sec);
                            self.stack.push(Frame::Region(frame));
                            // Fork overhead charged to the master before it
                            // starts dispatching.
                            if fork > 0 {
                                return Action::Compute(WorkPacket::cpu(fork));
                            }
                            continue;
                        }
                        POp::Pipe(pipe) => {
                            let pipe = pipe.clone();
                            f.idx += 1;
                            let fork = self.rt.overheads.parallel_start;
                            let ctl = crate::pipeline::PipeCtl::new(pipe);
                            ctl.set_master(env.me());
                            crate::pipeline::spawn_stages(env, &self.rt, &ctl);
                            self.stack.push(Frame::PipeWait(ctl));
                            if fork > 0 {
                                return Action::Compute(WorkPacket::cpu(fork));
                            }
                            continue;
                        }
                    }
                }
                Frame::PipeWait(ctl) => {
                    if ctl.finished() {
                        let join = self.rt.overheads.parallel_end;
                        self.stack.pop();
                        if join > 0 {
                            return Action::Compute(WorkPacket::cpu(join));
                        }
                        continue;
                    }
                    return Action::Park;
                }
                Frame::Region(f) => match f.phase {
                    RPhase::StartOvh => {
                        f.phase = RPhase::PayDispatch;
                        let ovh = self.rt.overheads.worker_start;
                        if ovh > 0 {
                            return Action::Compute(WorkPacket::cpu(ovh));
                        }
                        continue;
                    }
                    RPhase::PayDispatch => {
                        f.phase = RPhase::Grab;
                        let ovh = f.ctl.dispatch_ovh;
                        if ovh > 0 {
                            return Action::Compute(WorkPacket::cpu(ovh));
                        }
                        continue;
                    }
                    RPhase::Grab => {
                        let chunk = f.ctl.dispenser.borrow_mut().next_chunk(f.rank);
                        match chunk {
                            Some((s, e)) => {
                                env.record_event(prophet_obs::EventKind::ChunkDispatch {
                                    worker: f.rank,
                                    lo: s as u32,
                                    hi: e as u32,
                                });
                                f.chunk = Some((s, e));
                                f.pos = s;
                                f.phase = RPhase::IterOvh;
                            }
                            None => {
                                f.phase = RPhase::EndBarrier;
                            }
                        }
                        continue;
                    }
                    RPhase::IterOvh => {
                        f.phase = RPhase::PushTask;
                        let ovh = self.rt.overheads.iter_start;
                        if ovh > 0 {
                            return Action::Compute(WorkPacket::cpu(ovh));
                        }
                        continue;
                    }
                    RPhase::PushTask => {
                        let (_, e) = f.chunk.expect("chunk set in Grab");
                        let task = f.ctl.tasks[f.pos].clone();
                        f.pos += 1;
                        f.phase = if f.pos < e {
                            RPhase::IterOvh
                        } else {
                            RPhase::PayDispatch
                        };
                        self.stack.push(Frame::Seq(SeqFrame::new(task)));
                        continue;
                    }
                    RPhase::EndBarrier => {
                        f.phase = RPhase::Epilogue;
                        if let Some(b) = f.ctl.barrier {
                            return Action::Barrier(b);
                        }
                        continue;
                    }
                    RPhase::Epilogue => {
                        let is_master = f.is_master;
                        let join = self.rt.overheads.parallel_end;
                        if !is_master {
                            return Action::Exit;
                        }
                        crate::obs_span(env, false, "omp_parallel");
                        self.stack.pop();
                        if join > 0 {
                            return Action::Compute(WorkPacket::cpu(join));
                        }
                        continue;
                    }
                },
            }
        }
    }
}

/// Run `program` on a fresh machine with the given configuration, runtime
/// overheads, and default team size. Returns the machine's statistics.
pub fn run_program(
    cfg: MachineConfig,
    program: &ParallelProgram,
    overheads: OmpOverheads,
    team: u32,
) -> Result<RunStats, RunError> {
    let mut machine = Machine::new(cfg);
    run_program_on(&mut machine, program, overheads, team)
}

/// Run `program` on an existing (fresh) machine — use this to configure
/// the machine first, e.g. [`Machine::enable_tracing`] for Gantt charts.
pub fn run_program_on(
    machine: &mut Machine,
    program: &ParallelProgram,
    overheads: OmpOverheads,
    team: u32,
) -> Result<RunStats, RunError> {
    let rt = OmpRuntime::new(overheads, team);
    machine.spawn(Worker::master(rt, program));
    machine.run()
}
