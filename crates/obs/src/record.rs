//! The event recorder: typed events in a preallocated ring buffer,
//! timestamped with the simulator's virtual clock.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Paired begin/end span categories recorded by producers that track
//  intervals rather than instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A `PAR_SEC` annotation interval (tracer).
    AnnotationSec,
    /// A `PAR_TASK` annotation interval (tracer).
    AnnotationTask,
    /// A `LOCK` annotation interval (tracer).
    AnnotationLock,
    /// One parallel-region instance (runtime layer).
    Region,
    /// One emulated program-tree section (ffemu / synthemu).
    EmuSection,
}

impl SpanKind {
    /// Stable lowercase name used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::AnnotationSec => "annotation_sec",
            SpanKind::AnnotationTask => "annotation_task",
            SpanKind::AnnotationLock => "annotation_lock",
            SpanKind::Region => "region",
            SpanKind::EmuSection => "emu_section",
        }
    }
}

/// One structured event. Identifier-style fields (`thread`, `core`,
/// `lock`, …) are raw u32 ids; `label` fields are indexes into the
/// recorder's interned-string table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A thread was created.
    ThreadSpawn {
        /// The new thread.
        thread: u32,
    },
    /// The OS scheduler placed a thread on a core.
    ThreadDispatch {
        /// Core index.
        core: u32,
        /// Dispatched thread.
        thread: u32,
    },
    /// A thread lost its core at quantum expiry.
    ThreadPreempt {
        /// Core index.
        core: u32,
        /// Preempted thread.
        thread: u32,
    },
    /// A thread yielded its core voluntarily.
    ThreadYield {
        /// Core index.
        core: u32,
        /// Yielding thread.
        thread: u32,
    },
    /// A thread blocked (lock wait, barrier wait, or park).
    ThreadBlock {
        /// Core index it vacated.
        core: u32,
        /// Blocking thread.
        thread: u32,
    },
    /// A parked thread was unparked (made ready) by another thread.
    ThreadUnpark {
        /// The woken thread.
        thread: u32,
    },
    /// A thread exited.
    ThreadExit {
        /// Core index it vacated.
        core: u32,
        /// Exiting thread.
        thread: u32,
    },
    /// A mutex was acquired (uncontended, or after a wait).
    LockAcquire {
        /// Lock id.
        lock: u32,
        /// Acquiring thread.
        thread: u32,
    },
    /// A mutex acquisition had to wait.
    LockWait {
        /// Lock id.
        lock: u32,
        /// Waiting thread.
        thread: u32,
    },
    /// A mutex was released.
    LockRelease {
        /// Lock id.
        lock: u32,
        /// Releasing thread.
        thread: u32,
    },
    /// A thread arrived at a barrier.
    BarrierEnter {
        /// Barrier id.
        barrier: u32,
        /// Arriving thread.
        thread: u32,
    },
    /// The last party arrived; the barrier released its waiters.
    BarrierRelease {
        /// Barrier id.
        barrier: u32,
        /// Number of threads woken (excludes the releasing arrival).
        woken: u32,
    },
    /// The DRAM rate solver recomputed shared-bandwidth stretch factors.
    DramRate {
        /// Memory-active packets participating.
        active: u32,
        /// Effective per-miss stall in milli-cycles (ω × 1000).
        omega_milli: u64,
    },
    /// A worksharing chunk was handed to a worker (OpenMP runtime).
    ChunkDispatch {
        /// Worker rank within the team.
        worker: u32,
        /// First task index of the chunk.
        lo: u32,
        /// One past the last task index.
        hi: u32,
    },
    /// A work-stealing attempt (Cilk runtime).
    StealAttempt {
        /// The stealing worker.
        thief: u32,
        /// The victim worker.
        victim: u32,
        /// Whether a strand was actually taken.
        success: bool,
    },
    /// A task was pushed to a worker's deque (Cilk spawn).
    TaskSpawn {
        /// The spawning worker.
        worker: u32,
    },
    /// A join completed and its continuation resumed (Cilk sync).
    TaskSync {
        /// The resuming worker.
        worker: u32,
    },
    /// The fast-forward emulator popped its priority heap.
    EmuHeapPop {
        /// The emulated CPU whose clock was popped.
        cpu: u32,
    },
    /// Profiling overhead subtracted from an emulated interval.
    OverheadSubtract {
        /// Cycles removed.
        cycles: u64,
    },
    /// Begin of a paired interval.
    SpanBegin {
        /// Interval category.
        kind: SpanKind,
        /// Interned label (see [`Recorder::intern`]).
        label: u32,
        /// Owning thread/worker id (`u32::MAX` when not applicable).
        thread: u32,
    },
    /// End of a paired interval.
    SpanEnd {
        /// Interval category.
        kind: SpanKind,
        /// Interned label.
        label: u32,
        /// Owning thread/worker id (`u32::MAX` when not applicable).
        thread: u32,
    },
}

impl EventKind {
    /// Stable snake_case name used by exporters and metrics.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ThreadSpawn { .. } => "thread_spawn",
            EventKind::ThreadDispatch { .. } => "thread_dispatch",
            EventKind::ThreadPreempt { .. } => "thread_preempt",
            EventKind::ThreadYield { .. } => "thread_yield",
            EventKind::ThreadBlock { .. } => "thread_block",
            EventKind::ThreadUnpark { .. } => "thread_unpark",
            EventKind::ThreadExit { .. } => "thread_exit",
            EventKind::LockAcquire { .. } => "lock_acquire",
            EventKind::LockWait { .. } => "lock_wait",
            EventKind::LockRelease { .. } => "lock_release",
            EventKind::BarrierEnter { .. } => "barrier_enter",
            EventKind::BarrierRelease { .. } => "barrier_release",
            EventKind::DramRate { .. } => "dram_rate",
            EventKind::ChunkDispatch { .. } => "chunk_dispatch",
            EventKind::StealAttempt { .. } => "steal_attempt",
            EventKind::TaskSpawn { .. } => "task_spawn",
            EventKind::TaskSync { .. } => "task_sync",
            EventKind::EmuHeapPop { .. } => "emu_heap_pop",
            EventKind::OverheadSubtract { .. } => "overhead_subtract",
            EventKind::SpanBegin { .. } => "span_begin",
            EventKind::SpanEnd { .. } => "span_end",
        }
    }

    /// The minimum recording level at which this kind is kept.
    pub fn level(&self) -> ObsLevel {
        match self {
            // High-frequency detail: only at Full.
            EventKind::ChunkDispatch { .. }
            | EventKind::StealAttempt { .. }
            | EventKind::TaskSpawn { .. }
            | EventKind::EmuHeapPop { .. }
            | EventKind::DramRate { .. }
            | EventKind::OverheadSubtract { .. } => ObsLevel::Full,
            // Everything else is scheduler/sync level.
            _ => ObsLevel::Sync,
        }
    }
}

/// Runtime recording verbosity of an attached recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ObsLevel {
    /// Record nothing (an attached recorder can be muted).
    Off,
    /// Scheduler and synchronisation events only.
    Sync,
    /// Everything, including per-chunk / per-steal / per-heap-pop detail.
    #[default]
    Full,
}

/// A timestamped event. `t` is virtual cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Virtual time in cycles.
    pub t: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Ring-buffer event recorder.
///
/// The buffer is preallocated at construction; when it fills, the oldest
/// events are overwritten and `dropped()` counts the loss. Everything is
/// deterministic — insertion order is the simulator's event order, and
/// labels are interned in first-seen order.
#[derive(Debug)]
pub struct Recorder {
    buf: Vec<Event>,
    /// Index of the logically-first event once the buffer has wrapped.
    head: usize,
    wrapped: bool,
    dropped: u64,
    level: ObsLevel,
    labels: Vec<String>,
    label_index: HashMap<String, u32>,
}

/// Default ring capacity: roomy enough for full traces of the built-in
/// workloads while staying allocation-free during a run.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

impl Recorder {
    /// A recorder with the given ring capacity (min 16).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(16);
        Recorder {
            buf: Vec::with_capacity(capacity),
            head: 0,
            wrapped: false,
            dropped: 0,
            level: ObsLevel::Full,
            labels: Vec::new(),
            label_index: HashMap::new(),
        }
    }

    /// A recorder with [`DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Set the runtime recording level.
    pub fn set_level(&mut self, level: ObsLevel) {
        self.level = level;
    }

    /// The runtime recording level.
    pub fn level(&self) -> ObsLevel {
        self.level
    }

    /// Record an event at virtual time `t` (dropped when below level).
    pub fn record(&mut self, t: u64, kind: EventKind) {
        if kind.level() > self.level {
            return;
        }
        let ev = Event { t, kind };
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(ev);
        } else {
            // Overwrite the oldest slot.
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.buf.len();
            self.wrapped = true;
            self.dropped += 1;
        }
    }

    /// Intern a label, returning its stable index.
    pub fn intern(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.label_index.get(label) {
            return id;
        }
        let id = self.labels.len() as u32;
        self.labels.push(label.to_string());
        self.label_index.insert(label.to_string(), id);
        id
    }

    /// Resolve an interned label.
    pub fn label(&self, id: u32) -> &str {
        self.labels
            .get(id as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }

    /// Events in chronological (insertion) order.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        let (tail, head) = if self.wrapped {
            let (a, b) = self.buf.split_at(self.head);
            (b, a)
        } else {
            (&self.buf[..], &self.buf[..0])
        };
        tail.iter().chain(head.iter())
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or everything was filtered).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events lost to ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Remove all events (capacity and labels are kept).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.wrapped = false;
        self.dropped = 0;
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Shared handle to a recorder. The simulator stack is single-threaded,
/// so `Rc<RefCell<…>>` is sufficient and cheap to clone into every
/// producer (machine, runtimes, emulators, tracer).
#[derive(Debug, Clone)]
pub struct ObsHandle(Rc<RefCell<Recorder>>);

impl ObsHandle {
    /// Wrap a recorder for sharing.
    pub fn new(rec: Recorder) -> Self {
        ObsHandle(Rc::new(RefCell::new(rec)))
    }

    /// Record an event at virtual time `t`.
    #[inline]
    pub fn record(&self, t: u64, kind: EventKind) {
        self.0.borrow_mut().record(t, kind);
    }

    /// Intern a label through the handle.
    pub fn intern(&self, label: &str) -> u32 {
        self.0.borrow_mut().intern(label)
    }

    /// Run `f` with shared access to the recorder.
    pub fn with<R>(&self, f: impl FnOnce(&Recorder) -> R) -> R {
        f(&self.0.borrow())
    }
}

impl Default for ObsHandle {
    fn default() -> Self {
        ObsHandle::new(Recorder::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut r = Recorder::with_capacity(64);
        for i in 0..10 {
            r.record(i, EventKind::ThreadSpawn { thread: i as u32 });
        }
        let ts: Vec<u64> = r.events().map(|e| e.t).collect();
        assert_eq!(ts, (0..10).collect::<Vec<_>>());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut r = Recorder::with_capacity(16);
        for i in 0..40u64 {
            r.record(i, EventKind::ThreadSpawn { thread: i as u32 });
        }
        assert_eq!(r.len(), 16);
        assert_eq!(r.dropped(), 24);
        let ts: Vec<u64> = r.events().map(|e| e.t).collect();
        assert_eq!(ts, (24..40).collect::<Vec<_>>());
    }

    #[test]
    fn level_filters_detail_events() {
        let mut r = Recorder::with_capacity(64);
        r.set_level(ObsLevel::Sync);
        r.record(
            1,
            EventKind::StealAttempt {
                thief: 0,
                victim: 1,
                success: true,
            },
        );
        r.record(2, EventKind::LockWait { lock: 0, thread: 1 });
        assert_eq!(r.len(), 1);
        assert_eq!(r.events().next().unwrap().t, 2);
        r.set_level(ObsLevel::Off);
        r.record(3, EventKind::LockWait { lock: 0, thread: 1 });
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn labels_intern_stably() {
        let mut r = Recorder::new();
        let a = r.intern("compute");
        let b = r.intern("reduce");
        let a2 = r.intern("compute");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(r.label(b), "reduce");
        assert_eq!(r.label(999), "?");
    }
}
