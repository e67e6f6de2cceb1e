//! The one bounded pool for blocking upstream work.
//!
//! The event loop must never block, so work that does — compaction,
//! migration, trace stitching, job lookups fanned out over blocking
//! client calls — runs here. Threads are spawned on demand up to a fixed
//! cap and exit as soon as the queue is empty, so an idle process holds
//! none. Work that finds every thread busy waits in a queue of fixed
//! depth; beyond that, or when a thread cannot be spawned, the request
//! is answered at once with a typed 503 `unavailable` + `Retry-After: 1`
//! instead of queueing without bound or panicking.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use prophet_core::ProphetError;

use crate::api::error_response;
use crate::http::Response;

/// Threads a serving process runs blocking work on, at most.
pub const BLOCKING_THREADS: usize = 4;
/// Blocking jobs that may wait for a thread before new ones are shed.
pub const BLOCKING_QUEUE: usize = 16;

struct Job {
    work: Box<dyn FnOnce() -> Response + Send>,
    send: Box<dyn FnOnce(Response) + Send>,
}

#[derive(Default)]
struct State {
    queue: VecDeque<Job>,
    /// Threads alive (each is running a job or about to take one).
    threads: usize,
}

struct Inner {
    name: &'static str,
    max_threads: usize,
    max_queue: usize,
    state: Mutex<State>,
}

/// A bounded on-demand thread pool; see the module docs.
#[derive(Clone)]
pub struct BlockingPool {
    inner: Arc<Inner>,
}

impl BlockingPool {
    /// A pool of at most `max_threads` threads named `name`, with at
    /// most `max_queue` jobs waiting for one.
    pub fn new(name: &'static str, max_threads: usize, max_queue: usize) -> BlockingPool {
        BlockingPool {
            inner: Arc::new(Inner {
                name,
                max_threads: max_threads.max(1),
                max_queue,
                state: Mutex::new(State::default()),
            }),
        }
    }

    /// Run `work` on a pool thread and hand its response to `send`. When
    /// the pool is full, or no thread can be spawned, `send` gets the
    /// 503 right away (on the caller's thread).
    pub fn run(
        &self,
        work: impl FnOnce() -> Response + Send + 'static,
        send: impl FnOnce(Response) + Send + 'static,
    ) {
        let mut st = self.inner.state.lock().expect("blocking pool poisoned");
        let spawn = st.threads < self.inner.max_threads;
        if !spawn && st.queue.len() >= self.inner.max_queue {
            drop(st);
            send(busy("blocking pool full"));
            return;
        }
        st.queue.push_back(Job {
            work: Box::new(work),
            send: Box::new(send),
        });
        if !spawn {
            return;
        }
        st.threads += 1;
        drop(st);
        let inner = Arc::clone(&self.inner);
        let spawned = std::thread::Builder::new()
            .name(self.inner.name.to_string())
            .spawn(move || worker(&inner));
        if spawned.is_err() {
            let mut st = self.inner.state.lock().expect("blocking pool poisoned");
            st.threads -= 1;
            // With no thread left to drain the queue, nothing queued
            // would ever run: answer all of it now.
            let orphans: Vec<Job> = if st.threads == 0 {
                st.queue.drain(..).collect()
            } else {
                Vec::new()
            };
            drop(st);
            for job in orphans {
                (job.send)(busy("cannot spawn a blocking-pool thread"));
            }
        }
    }
}

fn worker(inner: &Inner) {
    loop {
        let job = {
            let mut st = inner.state.lock().expect("blocking pool poisoned");
            match st.queue.pop_front() {
                Some(job) => job,
                None => {
                    st.threads -= 1;
                    return;
                }
            }
        };
        // A panicking job still gets an answer, and its thread lives on
        // to drain the queue.
        let resp = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job.work))
            .unwrap_or_else(|_| Response::error(500, "blocking work panicked"));
        (job.send)(resp);
    }
}

fn busy(why: &str) -> Response {
    error_response(&ProphetError::Unavailable(why.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn full_pool_answers_503_with_retry_after() {
        let pool = BlockingPool::new("test-blocking", 1, 1);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        // The only thread blocks until released.
        let tx = done_tx.clone();
        pool.run(
            move || {
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                Response::text(200, "first".to_string())
            },
            move |r| tx.send(r).unwrap(),
        );
        started_rx.recv().unwrap();
        // The one queue slot takes the second job.
        let tx = done_tx.clone();
        pool.run(
            || Response::text(200, "second".to_string()),
            move |r| tx.send(r).unwrap(),
        );
        // The third is shed at once, on this thread.
        let tx = done_tx.clone();
        pool.run(
            || Response::text(200, "third".to_string()),
            move |r| tx.send(r).unwrap(),
        );
        let shed = done_rx.try_recv().expect("a full pool answers at once");
        assert_eq!(shed.status, 503);
        assert!(
            shed.body.contains("\"unavailable\""),
            "{}",
            shed.body.as_str()
        );
        assert!(shed
            .extra_headers
            .iter()
            .any(|(k, v)| *k == "retry-after" && v == "1"));
        release_tx.send(()).unwrap();
        let wait = Duration::from_secs(10);
        assert_eq!(done_rx.recv_timeout(wait).unwrap().body.as_str(), "first");
        assert_eq!(done_rx.recv_timeout(wait).unwrap().body.as_str(), "second");
        // Drained: the thread exits, so an idle pool holds none.
        for _ in 0..1000 {
            if pool.inner.state.lock().unwrap().threads == 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("pool thread did not exit once the queue was empty");
    }
}
