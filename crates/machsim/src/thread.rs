//! Thread bodies, actions, and the environment handle they run against.

use serde::{Deserialize, Serialize};

use crate::sync::{BarrierId, SimLockId};

/// Identifier of a simulated thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ThreadId(pub u32);

/// One preemptible unit of computation: a pure-CPU part plus an LLC-miss
/// part issued uniformly across it. The machine stretches the memory part
/// under DRAM contention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkPacket {
    /// Pure CPU cycles (never stretched).
    pub compute_cycles: u64,
    /// Number of LLC misses (DRAM line transfers) issued by the packet.
    pub llc_misses: u64,
}

impl WorkPacket {
    /// A packet with no memory traffic.
    pub fn cpu(cycles: u64) -> Self {
        WorkPacket {
            compute_cycles: cycles,
            llc_misses: 0,
        }
    }

    /// A packet with both compute cycles and LLC misses.
    pub fn new(compute_cycles: u64, llc_misses: u64) -> Self {
        WorkPacket {
            compute_cycles,
            llc_misses,
        }
    }

    /// True when the packet performs no work at all.
    pub fn is_empty(&self) -> bool {
        self.compute_cycles == 0 && self.llc_misses == 0
    }

    /// Duration in cycles when run alone with base per-miss stall `omega0`.
    pub fn baseline_cycles(&self, omega0: f64) -> f64 {
        self.compute_cycles as f64 + self.llc_misses as f64 * omega0
    }
}

/// What a thread asks the machine to do next.
///
/// Returned from [`ThreadBody::step`]; instantaneous effects (spawning,
/// unparking, lock release) go through [`Env`] methods instead so that a
/// single step can perform several of them before yielding an action.
#[derive(Debug)]
pub enum Action {
    /// Execute a compute packet (preemptible, memory-aware).
    Compute(WorkPacket),
    /// Acquire a FIFO mutex; blocks when held by another thread.
    Acquire(SimLockId),
    /// Release a held mutex (instantaneous, then the body is stepped again).
    Release(SimLockId),
    /// Arrive at a barrier; blocks until all participants arrive.
    Barrier(BarrierId),
    /// Block until another thread calls [`Env::unpark`] (or consume a
    /// pending permit immediately).
    Park,
    /// Go to the back of the ready queue (voluntary preemption).
    Yield,
    /// Terminate this thread.
    Exit,
}

/// Environment handle passed to [`ThreadBody::step`].
///
/// Grants instantaneous kernel services; time only passes through returned
/// [`Action`]s.
pub trait Env {
    /// Current simulated time in cycles.
    fn now(&self) -> u64;
    /// Id of the stepping thread.
    fn me(&self) -> ThreadId;
    /// Create a new thread; it becomes ready immediately.
    fn spawn(&mut self, body: Box<dyn ThreadBody>) -> ThreadId;
    /// Wake a parked thread (or grant a permit if it isn't parked yet).
    fn unpark(&mut self, thread: ThreadId);
    /// Create a mutex.
    fn create_lock(&mut self) -> SimLockId;
    /// Create a barrier for `parties` participants.
    fn create_barrier(&mut self, parties: u32) -> BarrierId;
    /// Number of cores on the machine (runtimes size their worker pools
    /// from this).
    fn cores(&self) -> u32;
    /// The machine's structured-event recorder, when one is attached.
    /// Runtimes use it to record their own events (chunk dispatches,
    /// steals, region spans) on the shared virtual clock.
    fn obs(&self) -> Option<prophet_obs::ObsHandle> {
        None
    }
    /// Record `kind` on the attached recorder at the current virtual
    /// time; a no-op when none is attached.
    fn record_event(&self, kind: prophet_obs::EventKind) {
        if let Some(h) = self.obs() {
            h.record(self.now(), kind);
        }
    }
}

/// A simulated thread's program, written as a resumable state machine.
///
/// The machine calls [`step`](ThreadBody::step) whenever the thread is
/// runnable and its previous action has completed; the body returns the
/// next action. Bodies never observe preemption: a [`Action::Compute`]
/// packet may be time-sliced across many quanta but completes as one unit.
pub trait ThreadBody {
    /// Produce the next action.
    fn step(&mut self, env: &mut dyn Env) -> Action;
}

impl<F> ThreadBody for F
where
    F: FnMut(&mut dyn Env) -> Action,
{
    fn step(&mut self, env: &mut dyn Env) -> Action {
        self(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_packet_helpers() {
        let p = WorkPacket::cpu(100);
        assert_eq!(p.llc_misses, 0);
        assert!(!p.is_empty());
        assert!(WorkPacket::new(0, 0).is_empty());
        let q = WorkPacket::new(100, 10);
        assert!((q.baseline_cycles(60.0) - 700.0).abs() < 1e-12);
    }
}
