//! The discrete-event engine: cores, OS scheduler, and time.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use crate::config::MachineConfig;
use crate::mem::MemSolver;
use crate::stats::{RunStats, ThreadStats};
use crate::sync::{BarrierId, BarrierState, LockState, ParkState, SimLockId};
use crate::thread::{Action, Env, ThreadBody, ThreadId};

/// Record an event on the machine's attached recorder, timestamped with
/// the current virtual time. The event is built only when a recorder is
/// attached.
macro_rules! obs {
    ($m:expr, $($kind:tt)+) => {
        if let Some(h) = $m.obs.as_ref() {
            let t = $m.now;
            h.record(t, prophet_obs::EventKind::$($kind)+);
        }
    };
}

/// Errors terminating a run abnormally.
///
/// Serializable so the serve daemon's unified error type can carry a
/// run failure across the wire inside an error body.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RunError {
    /// No runnable thread and no pending event, but threads remain alive.
    Deadlock {
        /// Simulated time of detection.
        at: u64,
        /// Threads still blocked.
        blocked: Vec<ThreadId>,
    },
    /// A thread body performed too many instantaneous actions in a row
    /// (runaway zero-time loop — a bug in the thread body).
    RunawayThread {
        /// The offending thread.
        thread: ThreadId,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadlock { at, blocked } => {
                write!(
                    f,
                    "deadlock at cycle {at}: {} thread(s) blocked forever",
                    blocked.len()
                )
            }
            RunError::RunawayThread { thread } => {
                write!(
                    f,
                    "thread {:?} performed too many zero-time actions",
                    thread
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Ready,
    Running(usize),
    Blocked,
    Done,
}

/// Progress of a preemptible compute packet.
#[derive(Debug, Clone, Copy)]
struct PacketProgress {
    /// Pure CPU cycles of the whole packet (composition for the solver).
    c: f64,
    /// LLC misses of the whole packet.
    m: f64,
    /// Baseline-equivalent cycles remaining (scale: duration at ω₀).
    remaining: f64,
    /// Baseline-equivalent total (for DRAM byte apportioning).
    baseline_total: f64,
    /// Current stretch factor (≥ 1).
    stretch: f64,
}

struct ThreadSlot {
    body: Option<Box<dyn ThreadBody>>,
    state: TState,
    packet: Option<PacketProgress>,
    park: ParkState,
    stats: ThreadStats,
    /// Fractional DRAM bytes not yet credited (keeps totals exact across
    /// many settle boundaries).
    dram_carry: f64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Core {
    running: Option<ThreadId>,
    last_thread: Option<ThreadId>,
    /// When the current thread was dispatched (for trace spans).
    running_since: u64,
    /// Invalidates Quantum events when the running thread changes.
    run_gen: u64,
    /// Invalidates PacketDone events when rates are recomputed.
    rate_gen: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    PacketDone { core: usize, gen: u64 },
    Quantum { core: usize, gen: u64 },
}

/// Safety valve: max instantaneous actions a body may take consecutively.
const MAX_ZERO_TIME_STEPS: u32 = 1_000_000;

/// ω-cache entry cap: one entry per distinct running-segment composition;
/// real programs cycle through a handful, so the cap only guards against
/// adversarial churn. On overflow the cache is dropped wholesale (it is
/// pure memoization — correctness never depends on its contents).
const OMEGA_CACHE_CAP: usize = 1024;

/// The simulated machine. Spawn initial threads with [`Machine::spawn`],
/// then call [`Machine::run`] to completion.
pub struct Machine {
    cfg: MachineConfig,
    solver: MemSolver,
    now: u64,
    seq: u64,
    events: BinaryHeap<Reverse<(u64, u64, Event)>>,
    threads: Vec<ThreadSlot>,
    ready: VecDeque<ThreadId>,
    cores: Vec<Core>,
    locks: Vec<LockState>,
    barriers: Vec<BarrierState>,
    live_threads: u32,
    peak_live: u32,
    stats: RunStats,
    /// Set when the running-packet membership changed and rates must be
    /// recomputed before the next event is consumed.
    rates_dirty: bool,
    /// Pending context-switch cycles to fold into the next packet per core.
    pending_cs: Vec<u64>,
    /// Memoized ω fixed points, keyed by the *ordered* bit-exact `(C, M)`
    /// running-segment sequence. The key must be ordered, not a sorted
    /// multiset: the solver sums per-segment f64 traffic in core order,
    /// so a permuted composition may solve to a different low bit and
    /// multiset keying would leak it across orderings (DESIGN.md §12).
    omega_cache: HashMap<Vec<(u64, u64)>, f64>,
    /// Scratch for building ω-cache keys without per-event allocation.
    omega_key: Vec<(u64, u64)>,
    /// Scratch for the running `(C, M)` segment list.
    seg_scratch: Vec<(f64, f64)>,
    /// ω solves avoided via the cache (observability; survives `reset`).
    omega_cache_hits: u64,
    /// Invalidated events dropped — popped-and-skipped or swept in bulk
    /// (observability; survives `reset`).
    stale_events_skipped: u64,
    /// Execution timeline, recorded when tracing is enabled.
    trace: Option<crate::trace::Timeline>,
    /// Structured event recorder, when attached.
    obs: Option<prophet_obs::ObsHandle>,
}

impl Machine {
    /// A fresh machine with no threads.
    pub fn new(cfg: MachineConfig) -> Self {
        let solver = MemSolver::new(&cfg);
        Machine {
            solver,
            now: 0,
            seq: 0,
            events: BinaryHeap::new(),
            threads: Vec::new(),
            ready: VecDeque::new(),
            cores: vec![Core::default(); cfg.cores as usize],
            locks: Vec::new(),
            barriers: Vec::new(),
            live_threads: 0,
            peak_live: 0,
            stats: RunStats::default(),
            rates_dirty: false,
            pending_cs: vec![0; cfg.cores as usize],
            omega_cache: HashMap::new(),
            omega_key: Vec::new(),
            seg_scratch: Vec::new(),
            omega_cache_hits: 0,
            stale_events_skipped: 0,
            trace: None,
            obs: None,
            cfg,
        }
    }

    /// Attach a structured-event recorder; every scheduler, lock,
    /// barrier and DRAM-rate transition is recorded against it from now
    /// on. Clone the handle to share the same recorder with runtimes.
    pub fn attach_obs(&mut self, obs: prophet_obs::ObsHandle) {
        self.obs = Some(obs);
    }

    /// The attached recorder, if any.
    pub fn obs_handle(&self) -> Option<prophet_obs::ObsHandle> {
        self.obs.clone()
    }

    /// Record per-core execution spans for this run (see
    /// [`crate::trace::Timeline`]); retrieve them from
    /// [`crate::RunStats::timeline`].
    pub fn enable_tracing(&mut self) {
        self.trace = Some(crate::trace::Timeline::default());
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Spawn a thread before or during the run; it becomes ready.
    pub fn spawn(&mut self, body: impl ThreadBody + 'static) -> ThreadId {
        self.spawn_boxed(Box::new(body))
    }

    /// Spawn from an already-boxed body.
    pub fn spawn_boxed(&mut self, body: Box<dyn ThreadBody>) -> ThreadId {
        let id = ThreadId(self.threads.len() as u32);
        self.threads.push(ThreadSlot {
            body: Some(body),
            state: TState::Ready,
            packet: None,
            park: ParkState::default(),
            stats: ThreadStats {
                spawned_at: self.now,
                ..Default::default()
            },
            dram_carry: 0.0,
        });
        self.ready.push_back(id);
        self.live_threads += 1;
        self.peak_live = self.peak_live.max(self.live_threads);
        self.stats.threads_spawned += 1;
        obs!(self, ThreadSpawn { thread: id.0 });
        id
    }

    /// Create a mutex (pre-run convenience; bodies use [`Env::create_lock`]).
    pub fn create_lock(&mut self) -> SimLockId {
        let id = SimLockId(self.locks.len() as u32);
        self.locks.push(LockState::default());
        id
    }

    /// Create a barrier for `parties` participants.
    pub fn create_barrier(&mut self, parties: u32) -> BarrierId {
        let id = BarrierId(self.barriers.len() as u32);
        self.barriers.push(BarrierState::new(parties));
        id
    }

    fn push_event(&mut self, at: u64, ev: Event) {
        self.seq += 1;
        self.events.push(Reverse((at, self.seq, ev)));
    }

    /// Advance simulated time to `t`, progressing all running packets.
    fn settle(&mut self, t: u64) {
        debug_assert!(t >= self.now);
        let elapsed = (t - self.now) as f64;
        if elapsed > 0.0 {
            for core in 0..self.cores.len() {
                let Some(tid) = self.cores[core].running else {
                    continue;
                };
                let slot = &mut self.threads[tid.0 as usize];
                slot.stats.busy_cycles += t - self.now;
                if let Some(p) = slot.packet.as_mut() {
                    let progress = elapsed / p.stretch;
                    let before = p.remaining;
                    p.remaining = (p.remaining - progress).max(0.0);
                    // Apportion DRAM bytes by baseline progress, carrying
                    // the fractional remainder so totals stay exact.
                    if p.m > 0.0 && p.baseline_total > 0.0 {
                        let frac = (before - p.remaining) / p.baseline_total;
                        let exact = frac * p.m * self.cfg.line_bytes as f64 + slot.dram_carry;
                        let bytes = exact.floor() as u64;
                        slot.dram_carry = exact - bytes as f64;
                        slot.stats.dram_bytes += bytes;
                        self.stats.dram_bytes += bytes;
                    }
                }
            }
            self.stats.busy_cycles +=
                (t - self.now) * self.cores.iter().filter(|c| c.running.is_some()).count() as u64;
        }
        self.now = t;
    }

    /// Recompute the shared stall, each packet's stretch, and reschedule
    /// every completion event. Called whenever membership changes.
    ///
    /// The ω fixed point depends only on the running `(C, M)` segment
    /// composition, which repeats heavily across membership changes (the
    /// same team phases in and out of the same packets), so the solve is
    /// memoized on the exact ordered composition. A cache hit returns the
    /// bit-identical ω the solver would have produced — `MemSolver::solve`
    /// is a pure function of its input.
    fn recompute_rates(&mut self) {
        let mut segs = std::mem::take(&mut self.seg_scratch);
        segs.clear();
        segs.extend(
            self.cores
                .iter()
                .filter_map(|c| c.running)
                .filter_map(|tid| self.threads[tid.0 as usize].packet.map(|p| (p.c, p.m))),
        );
        self.omega_key.clear();
        self.omega_key
            .extend(segs.iter().map(|&(c, m)| (c.to_bits(), m.to_bits())));
        let omega = match self.omega_cache.get(self.omega_key.as_slice()) {
            Some(&w) => {
                self.omega_cache_hits += 1;
                w
            }
            None => {
                let w = self.solver.solve(&segs);
                if self.omega_cache.len() >= OMEGA_CACHE_CAP {
                    self.omega_cache.clear();
                }
                self.omega_cache.insert(self.omega_key.clone(), w);
                w
            }
        };
        obs!(
            self,
            DramRate {
                active: segs.iter().filter(|&&(_, m)| m > 0.0).count() as u32,
                omega_milli: (omega * 1000.0).round() as u64,
            }
        );
        for core in 0..self.cores.len() {
            let Some(tid) = self.cores[core].running else {
                continue;
            };
            let Some(p) = self.threads[tid.0 as usize].packet.as_mut() else {
                continue;
            };
            p.stretch = self.solver.stretch(p.c, p.m, omega);
            let eta = (p.remaining * p.stretch).ceil().max(0.0) as u64;
            self.cores[core].rate_gen += 1;
            let gen = self.cores[core].rate_gen;
            let at = self.now + eta;
            self.push_event(at, Event::PacketDone { core, gen });
        }
        self.rates_dirty = false;
        self.seg_scratch = segs;
        // Each reschedule invalidates the cores' previous completion
        // events, so the heap accretes stale entries; rebuild it once the
        // dead weight dominates (live events are bounded by 2 per core).
        if self.events.len() > 64.max(8 * self.cores.len()) {
            self.sweep_stale_events();
        }
    }

    /// Drop every invalidated event from the heap in one pass. Generation
    /// counters only ever increase, so an event that is stale now can
    /// never become valid again — dropping it is equivalent to the
    /// pop-and-skip it would otherwise get. Rebuilding the heap preserves
    /// pop order exactly: `(time, seq, event)` keys are unique (`seq` is
    /// a strictly increasing tie-break), so the surviving set pops in the
    /// same total order from any heap shape.
    fn sweep_stale_events(&mut self) {
        let before = self.events.len();
        let mut vec = std::mem::take(&mut self.events).into_vec();
        vec.retain(|&Reverse((_, _, ev))| match ev {
            Event::PacketDone { core, gen } => self.cores[core].rate_gen == gen,
            Event::Quantum { core, gen } => self.cores[core].run_gen == gen,
        });
        self.stale_events_skipped += (before - vec.len()) as u64;
        self.events = BinaryHeap::from(vec);
    }

    /// Fill idle cores from the ready queue, driving each dispatched thread.
    fn dispatch_all(&mut self) -> Result<(), RunError> {
        while let Some(core) = self.cores.iter().position(|c| c.running.is_none()) {
            let Some(tid) = self.ready.pop_front() else {
                break;
            };
            debug_assert_eq!(self.threads[tid.0 as usize].state, TState::Ready);
            // Charge a context switch when the core last ran someone else.
            if self.cores[core].last_thread != Some(tid) && self.cores[core].last_thread.is_some() {
                self.stats.context_switches += 1;
                self.pending_cs[core] = self.cfg.context_switch_cycles;
            }
            self.cores[core].running = Some(tid);
            self.cores[core].last_thread = Some(tid);
            self.cores[core].running_since = self.now;
            self.cores[core].run_gen += 1;
            self.threads[tid.0 as usize].state = TState::Running(core);
            obs!(
                self,
                ThreadDispatch {
                    core: core as u32,
                    thread: tid.0
                }
            );
            // Resuming a preempted packet?
            if self.threads[tid.0 as usize].packet.is_some() {
                // Fold the context-switch cost into the resumed packet.
                let cs = std::mem::take(&mut self.pending_cs[core]) as f64;
                if cs > 0.0 {
                    let p = self.threads[tid.0 as usize]
                        .packet
                        .as_mut()
                        .expect("checked");
                    p.c += cs;
                    p.remaining += cs;
                    p.baseline_total += cs;
                }
                self.arm_quantum(core);
                self.rates_dirty = true;
            } else {
                self.drive(tid, core)?;
            }
        }
        Ok(())
    }

    fn arm_quantum(&mut self, core: usize) {
        let gen = self.cores[core].run_gen;
        let at = self.now + self.cfg.quantum_cycles;
        self.push_event(at, Event::Quantum { core, gen });
    }

    /// Step the body of a running thread until it performs a time-consuming
    /// action or leaves the core.
    fn drive(&mut self, tid: ThreadId, core: usize) -> Result<(), RunError> {
        debug_assert_eq!(self.cores[core].running, Some(tid));
        let mut zero_steps = 0u32;
        loop {
            zero_steps += 1;
            if zero_steps > MAX_ZERO_TIME_STEPS {
                return Err(RunError::RunawayThread { thread: tid });
            }
            let mut body = self.threads[tid.0 as usize]
                .body
                .take()
                .expect("running thread must have a body");
            let action = {
                let mut env = MachineEnv { m: self, me: tid };
                body.step(&mut env)
            };
            self.threads[tid.0 as usize].body = Some(body);
            match action {
                Action::Compute(p) if p.is_empty() && self.pending_cs[core] == 0 => continue,
                Action::Compute(p) => {
                    let cs = std::mem::take(&mut self.pending_cs[core]);
                    let c = p.compute_cycles as f64 + cs as f64;
                    let m = p.llc_misses as f64;
                    let baseline = c + m * self.solver.omega0();
                    self.threads[tid.0 as usize].packet = Some(PacketProgress {
                        c,
                        m,
                        remaining: baseline,
                        baseline_total: baseline,
                        stretch: 1.0,
                    });
                    self.arm_quantum(core);
                    self.rates_dirty = true;
                    return Ok(());
                }
                Action::Acquire(l) => {
                    if self.locks[l.0 as usize].acquire(tid) {
                        obs!(
                            self,
                            LockAcquire {
                                lock: l.0,
                                thread: tid.0
                            }
                        );
                        continue;
                    }
                    obs!(
                        self,
                        LockWait {
                            lock: l.0,
                            thread: tid.0
                        }
                    );
                    self.block(tid, core);
                    return Ok(());
                }
                Action::Release(l) => {
                    obs!(
                        self,
                        LockRelease {
                            lock: l.0,
                            thread: tid.0
                        }
                    );
                    if let Some(next) = self.locks[l.0 as usize].release(tid) {
                        // FIFO hand-off: ownership transfers at release.
                        obs!(
                            self,
                            LockAcquire {
                                lock: l.0,
                                thread: next.0
                            }
                        );
                        self.make_ready(next);
                    }
                    continue;
                }
                Action::Barrier(b) => {
                    obs!(
                        self,
                        BarrierEnter {
                            barrier: b.0,
                            thread: tid.0
                        }
                    );
                    match self.barriers[b.0 as usize].arrive(tid) {
                        Some(woken) => {
                            obs!(
                                self,
                                BarrierRelease {
                                    barrier: b.0,
                                    woken: woken.len() as u32,
                                }
                            );
                            for w in woken {
                                self.make_ready(w);
                            }
                            continue;
                        }
                        None => {
                            self.block(tid, core);
                            return Ok(());
                        }
                    }
                }
                Action::Park => {
                    let park = &mut self.threads[tid.0 as usize].park;
                    if park.permit {
                        park.permit = false;
                        continue;
                    }
                    park.parked = true;
                    self.block(tid, core);
                    return Ok(());
                }
                Action::Yield => {
                    obs!(
                        self,
                        ThreadYield {
                            core: core as u32,
                            thread: tid.0
                        }
                    );
                    self.threads[tid.0 as usize].state = TState::Ready;
                    self.ready.push_back(tid);
                    self.free_core(core);
                    return Ok(());
                }
                Action::Exit => {
                    obs!(
                        self,
                        ThreadExit {
                            core: core as u32,
                            thread: tid.0
                        }
                    );
                    let slot = &mut self.threads[tid.0 as usize];
                    slot.state = TState::Done;
                    slot.body = None;
                    slot.stats.finished_at = self.now;
                    self.live_threads -= 1;
                    self.free_core(core);
                    return Ok(());
                }
            }
        }
    }

    fn block(&mut self, tid: ThreadId, core: usize) {
        obs!(
            self,
            ThreadBlock {
                core: core as u32,
                thread: tid.0
            }
        );
        self.threads[tid.0 as usize].state = TState::Blocked;
        self.free_core(core);
    }

    fn free_core(&mut self, core: usize) {
        if let (Some(trace), Some(tid)) = (self.trace.as_mut(), self.cores[core].running) {
            trace.push(core as u32, tid, self.cores[core].running_since, self.now);
        }
        self.cores[core].running = None;
        self.cores[core].run_gen += 1;
        // Invalidate any in-flight completion for the departed packet; a
        // resumed packet gets a fresh completion from recompute_rates.
        self.cores[core].rate_gen += 1;
        self.rates_dirty = true;
    }

    fn make_ready(&mut self, tid: ThreadId) {
        let slot = &mut self.threads[tid.0 as usize];
        debug_assert_eq!(
            slot.state,
            TState::Blocked,
            "make_ready on non-blocked thread"
        );
        slot.state = TState::Ready;
        self.ready.push_back(tid);
    }

    /// Run until every thread has exited. Returns run statistics.
    pub fn run(&mut self) -> Result<RunStats, RunError> {
        self.dispatch_all()?;
        if self.rates_dirty {
            self.recompute_rates();
        }
        while let Some(Reverse((t, _, ev))) = self.events.pop() {
            // Drop stale events.
            let valid = match ev {
                Event::PacketDone { core, gen } => self.cores[core].rate_gen == gen,
                Event::Quantum { core, gen } => self.cores[core].run_gen == gen,
            };
            if !valid {
                self.stale_events_skipped += 1;
                continue;
            }
            self.settle(t);
            match ev {
                Event::PacketDone { core, .. } => {
                    let tid = self.cores[core].running.expect("completion on idle core");
                    let slot = &mut self.threads[tid.0 as usize];
                    debug_assert!(
                        slot.packet.is_some_and(|p| p.remaining <= 1.0),
                        "completion fired with work remaining"
                    );
                    slot.packet = None;
                    self.rates_dirty = true;
                    self.drive(tid, core)?;
                }
                Event::Quantum { core, .. } => {
                    let tid = self.cores[core].running.expect("quantum on idle core");
                    if self.ready.is_empty() {
                        // Nobody to switch to: extend the quantum.
                        self.arm_quantum(core);
                    } else {
                        self.stats.preemptions += 1;
                        obs!(
                            self,
                            ThreadPreempt {
                                core: core as u32,
                                thread: tid.0
                            }
                        );
                        self.threads[tid.0 as usize].state = TState::Ready;
                        self.ready.push_back(tid);
                        self.free_core(core);
                    }
                }
            }
            self.dispatch_all()?;
            if self.rates_dirty {
                self.recompute_rates();
            }
        }

        if self.live_threads > 0 {
            let blocked: Vec<ThreadId> = self
                .threads
                .iter()
                .enumerate()
                .filter(|(_, s)| !matches!(s.state, TState::Done))
                .map(|(i, _)| ThreadId(i as u32))
                .collect();
            return Err(RunError::Deadlock {
                at: self.now,
                blocked,
            });
        }

        self.stats.elapsed_cycles = self.now;
        self.stats.peak_live_threads = self.peak_live;
        self.stats.lock_acquisitions = self.locks.iter().map(|s| s.acquisitions).sum();
        self.stats.lock_contended = self.locks.iter().map(|s| s.contended).sum();
        self.stats.threads = self.threads.iter().map(|s| s.stats).collect();
        // Hand the run's accounting out by move: the timeline (only
        // captured when tracing was requested) and the stats vector
        // transfer ownership instead of being cloned per run — this is
        // the sweep engine's hot finish path.
        let mut stats = std::mem::take(&mut self.stats);
        stats.timeline = self.trace.take();
        Ok(stats)
    }

    /// Return the machine to its just-constructed state while keeping
    /// every internal allocation (event heap, ready queue, thread/lock
    /// tables) for reuse. Emulators that measure many short programs on
    /// "a fresh machine" call this between measurements instead of
    /// constructing — and re-heap-allocating — a new [`Machine`].
    ///
    /// The attached obs recorder is kept; tracing, if it was enabled,
    /// stays enabled with an empty timeline.
    pub fn reset(&mut self) {
        let tracing = self.trace.is_some();
        self.now = 0;
        self.seq = 0;
        self.events.clear();
        self.threads.clear();
        self.ready.clear();
        for core in self.cores.iter_mut() {
            *core = Core::default();
        }
        self.locks.clear();
        self.barriers.clear();
        self.live_threads = 0;
        self.peak_live = 0;
        self.stats = RunStats::default();
        self.rates_dirty = false;
        for cs in self.pending_cs.iter_mut() {
            *cs = 0;
        }
        self.trace = if tracing {
            Some(crate::trace::Timeline::default())
        } else {
            None
        };
        // Reuse audit: everything that could leak one run's scheduling
        // into the next must be gone. (The ω cache and the observability
        // counters deliberately survive — the cache is pure memoization
        // keyed on solver inputs, and the counters are cumulative.)
        debug_assert!(self.events.is_empty(), "event heap not cleared");
        debug_assert!(self.ready.is_empty(), "ready queue not cleared");
        debug_assert!(self.threads.is_empty(), "thread table not cleared");
        debug_assert_eq!(self.seq, 0, "event sequence not reset");
        debug_assert!(!self.rates_dirty, "solver state not settled");
        debug_assert!(
            self.cores
                .iter()
                .all(|c| c.running.is_none() && c.rate_gen == 0 && c.run_gen == 0),
            "packet generation counters not cleared"
        );
        debug_assert!(
            self.pending_cs.iter().all(|&cs| cs == 0),
            "pending context switches not cleared"
        );
    }

    /// ω-solver fixed-point solves avoided via the composition cache.
    /// Cumulative across [`Machine::reset`].
    pub fn omega_cache_hits(&self) -> u64 {
        self.omega_cache_hits
    }

    /// Invalidated heap events dropped (popped-and-skipped or bulk-swept).
    /// Cumulative across [`Machine::reset`].
    pub fn stale_events_skipped(&self) -> u64 {
        self.stale_events_skipped
    }

    /// Publish the machine's observability counters into a metrics
    /// registry under the `machsim.*` names.
    pub fn publish_metrics(&self, reg: &mut prophet_obs::MetricsRegistry) {
        reg.inc("machsim.omega_cache_hits", self.omega_cache_hits);
        reg.inc("machsim.stale_events_skipped", self.stale_events_skipped);
    }
}

/// The [`Env`] implementation handed to thread bodies.
struct MachineEnv<'a> {
    m: &'a mut Machine,
    me: ThreadId,
}

impl Env for MachineEnv<'_> {
    fn now(&self) -> u64 {
        self.m.now
    }

    fn me(&self) -> ThreadId {
        self.me
    }

    fn spawn(&mut self, body: Box<dyn ThreadBody>) -> ThreadId {
        self.m.spawn_boxed(body)
    }

    fn unpark(&mut self, thread: ThreadId) {
        let slot = &mut self.m.threads[thread.0 as usize];
        if slot.park.parked {
            slot.park.parked = false;
            obs!(self.m, ThreadUnpark { thread: thread.0 });
            self.m.make_ready(thread);
        } else {
            slot.park.permit = true;
        }
    }

    fn create_lock(&mut self) -> SimLockId {
        self.m.create_lock()
    }

    fn create_barrier(&mut self, parties: u32) -> BarrierId {
        self.m.create_barrier(parties)
    }

    fn cores(&self) -> u32 {
        self.m.cfg.cores
    }

    fn obs(&self) -> Option<prophet_obs::ObsHandle> {
        self.m.obs.clone()
    }
}
