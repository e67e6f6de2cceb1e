//! Readiness-driven event loop: the serve fleet's transport.
//!
//! One thread owns a poller (raw `epoll(7)` FFI — consistent with the
//! repo's no-async-stack constraint and the raw `signal(2)` FFI in
//! [`crate::signal`]), a table of non-blocking connections, and a
//! hashed timer wheel. Everything
//! blocking stays off this thread: prediction batching runs on the
//! worker pool, slow admin work on the bounded [`crate::pool`]; they
//! hand their [`Response`] back through a one-shot [`Responder`] that
//! pushes onto a completion queue and wakes the loop via a self-pipe.
//! An answer sent from the loop thread itself (inline, or from an
//! outbound completion) skips the self-pipe: the loop drains the
//! completion queue before it polls again.
//!
//! Outbound HTTP runs on the same poller ([`Outbound`]): the handler
//! queues an exchange, the loop dials nonblocking (or takes an idle
//! pooled connection to the target), writes, reads until
//! [`http::parse_response`] frames the answer, and runs the exchange's
//! callback on the loop thread. Shard forwards therefore cost no
//! thread and no cross-thread handoff.
//!
//! Per-connection state machine (`Reading → Awaiting → Writing → back`):
//!
//! * **Reading** — bytes accumulate in `rbuf` until
//!   [`http::parse_request`] yields a full request, which is dispatched
//!   to the handler. Read interest is then dropped so a pipelining peer
//!   cannot make the buffer grow without bound (backpressure): queued
//!   pipelined requests are parsed from the leftover buffer only after
//!   the previous response flushed.
//! * **Awaiting** — the handler owns the request; the loop only watches
//!   for hangup and the response deadline (timer wheel fires a
//!   pre-registered timeout response, typically a 504, and any late
//!   [`Responder::send`] becomes a no-op — fulfil-once).
//! * **Writing** — the response is a segment list: a small freshly
//!   formatted head plus the body, which may be a shared `Arc<str>`
//!   straight out of the result cache, written zero-copy.
//!
//! Slow-loris hardening: a `max_connections` cap (over-cap accepts get
//! a prebuilt `503` + `Retry-After` and an immediate close), an idle
//! timeout for quiet keep-alive connections, and a header timeout for
//! peers that trickle a request head byte-by-byte (`408`).
//!
//! Drain ([`EventLoop::drain`], driven by SIGTERM): idle keep-alive
//! connections close immediately, in-flight pipelines finish — every
//! response serialised while draining says `Connection: close` — and
//! [`EventLoop::stop`] then stops accepting and exits once the table is
//! empty (with a hard grace period as backstop).

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::http::{self, Body, ClientResponse, Request, Response};

/// Poller token for the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Poller token for the wake pipe's read end.
const TOKEN_WAKE: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// How long [`EventLoop::stop`] waits for in-flight connections before
/// force-closing them.
const STOP_GRACE: Duration = Duration::from_secs(5);

/// Timer wheel geometry: 256 slots of 25ms cover one rotation of 6.4s;
/// longer deadlines simply survive extra slot visits until due.
const WHEEL_SLOTS: usize = 256;
const WHEEL_GRANULARITY: Duration = Duration::from_millis(25);

/// An outbound exchange fails after this long without progress (the
/// blocking client's read/write timeouts).
const UPSTREAM_TIMEOUT: Duration = Duration::from_secs(60);
/// Idle outbound connections kept per target.
const MAX_IDLE_PER_TARGET: usize = 4;

thread_local! {
    /// Address of the [`LoopShared`] whose loop runs on this thread (0
    /// on every other thread): a [`Responder::send`] made here needs no
    /// wake-up.
    static LOOP_ON_THIS_THREAD: Cell<usize> = const { Cell::new(0) };
}

/// Event-loop tunables (the slow-loris knobs).
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Accepts beyond this many open connections are shed with a
    /// prebuilt `503` + `Retry-After: 1`.
    pub max_connections: usize,
    /// Idle keep-alive connections are closed after this long.
    pub idle_timeout: Duration,
    /// A request head must arrive in full within this long (`408`).
    pub header_timeout: Duration,
}

/// Connection-level counters, shared with the metrics endpoint. All
/// relaxed atomics; `open_connections` is a gauge.
#[derive(Debug, Default)]
pub struct ConnStats {
    /// Connections accepted (excludes over-cap rejections).
    pub accepted_total: AtomicU64,
    /// Connections closed, for any reason.
    pub closed_total: AtomicU64,
    /// Connections currently open (gauge).
    pub open_connections: AtomicU64,
    /// Accepts shed with 503 because the connection cap was reached.
    pub overload_rejections_total: AtomicU64,
    /// Requests served on a connection that had already served one —
    /// the keep-alive payoff counter.
    pub keepalive_reuses_total: AtomicU64,
    /// Connections closed by the idle timeout.
    pub idle_timeouts_total: AtomicU64,
    /// Connections closed with 408 by the header timeout.
    pub header_timeouts_total: AtomicU64,
    /// Bytes written to the wake pipe: answers (and drain/stop calls)
    /// from threads other than the loop's own.
    pub wake_notifies_total: AtomicU64,
}

/// Per-request metadata handed to the handler alongside the request.
#[derive(Debug, Clone, Copy)]
pub struct ReqMeta {
    /// Nanoseconds from the request's first byte to parse completion.
    pub parse_nanos: u64,
    /// True when this connection already served an earlier request
    /// (i.e. this request is a keep-alive reuse).
    pub reused: bool,
}

/// The handler the loop dispatches complete requests to. Runs **on the
/// loop thread** and must not block. It answers inline, queues
/// upstream requests on the [`Outbound`] context (their callbacks also
/// run on the loop thread), or hands blocking work to another thread
/// that later calls [`Responder::send`].
pub type Handler = Arc<dyn Fn(Request, ReqMeta, Responder, &mut Outbound) + Send + Sync>;

/// Completion callback of one outbound exchange: runs on the loop
/// thread with the upstream's response or the transport error, and may
/// queue further exchanges (a failover) on the context it is given.
pub type OnDone = Box<dyn FnOnce(std::io::Result<ClientResponse>, &mut Outbound) + Send>;

struct Exchange {
    addr: String,
    /// The serialised request, kept whole so a stale pooled connection
    /// can resend it on a fresh dial.
    bytes: Vec<u8>,
    on_done: OnDone,
}

/// The loop-owned outbound HTTP context. Exchanges queued here start
/// as soon as the handler (or callback) that queued them returns.
///
/// Semantics match [`http::ClientConn`] behind a per-target pool:
/// responses are framed by `content-length`; a connection goes back to
/// the target's idle pool until the upstream answers `connection:
/// close`; an error on a *reused* idle connection is retried once on a
/// fresh dial; a 60 s timeout without progress fails the exchange.
#[derive(Default)]
pub struct Outbound {
    queue: VecDeque<Exchange>,
}

impl Outbound {
    /// Queue one keep-alive request to `addr`; `on_done` runs on the
    /// loop thread with the response or the transport error.
    pub fn request(
        &mut self,
        addr: &str,
        method: &str,
        path_and_query: &str,
        headers: &[(&str, &str)],
        body: Option<&str>,
        on_done: impl FnOnce(std::io::Result<ClientResponse>, &mut Outbound) + Send + 'static,
    ) {
        self.queue.push_back(Exchange {
            addr: addr.to_string(),
            bytes: http::encode_request(method, path_and_query, body, headers, true),
            on_done: Box::new(on_done),
        });
    }
}

/// Callback invoked after the response flushed (or failed to): gets the
/// status, the flush start instant, the flush duration in nanos (0 when
/// the connection was already gone), and whether the response was the
/// armed deadline timeout rather than a [`Responder::send`].
pub type OnWritten = Box<dyn FnOnce(u16, Instant, u64, bool) + Send>;

struct RespState {
    fulfilled: bool,
    response: Option<Response>,
    on_written: Option<OnWritten>,
    deadline: Option<(Instant, Response)>,
}

struct RespInner {
    token: u64,
    seq: u64,
    shared: Arc<LoopShared>,
    state: Mutex<RespState>,
}

/// A cloneable one-shot reply channel for exactly one request. The
/// first [`send`](Responder::send) (or a fired deadline) wins; later
/// calls are dropped, which is what makes the worker-vs-timeout race
/// safe.
#[derive(Clone)]
pub struct Responder {
    inner: Arc<RespInner>,
}

impl Responder {
    /// Deliver the response. Thread-safe; wakes the loop unless called
    /// on the loop thread. Returns whether this call won the one-shot
    /// (false when the request was already answered, e.g. its deadline
    /// fired) so callers can count a status exactly once.
    pub fn send(&self, resp: Response) -> bool {
        {
            let mut st = self.inner.state.lock().unwrap();
            if st.fulfilled {
                return false;
            }
            st.fulfilled = true;
            st.response = Some(resp);
        }
        self.inner
            .shared
            .completions
            .lock()
            .unwrap()
            .push(self.inner.clone());
        let shared = &self.inner.shared;
        if LOOP_ON_THIS_THREAD.get() != Arc::as_ptr(shared) as usize {
            shared.notify();
        }
        true
    }

    /// Register the post-flush callback (trace finish, SLO accounting).
    /// Call before the handler returns.
    pub fn set_on_written(&self, f: impl FnOnce(u16, Instant, u64, bool) + Send + 'static) {
        self.inner.state.lock().unwrap().on_written = Some(Box::new(f));
    }

    /// Arm a deadline: if no [`send`](Responder::send) happened by `at`,
    /// the loop answers with `resp` instead. Call before the handler
    /// returns (the loop reads it right after dispatch).
    pub fn set_deadline(&self, at: Instant, resp: Response) {
        self.inner.state.lock().unwrap().deadline = Some((at, resp));
    }
}

/// State shared between the loop thread and responders on other threads.
struct LoopShared {
    completions: Mutex<Vec<Arc<RespInner>>>,
    wake: sys::WakePipe,
    stats: Arc<ConnStats>,
    draining: AtomicBool,
    drain_requested: AtomicBool,
    stop_requested: AtomicBool,
}

impl LoopShared {
    fn notify(&self) {
        self.stats
            .wake_notifies_total
            .fetch_add(1, Ordering::Relaxed);
        self.wake.notify();
    }
}

/// Handle to a running event loop.
pub struct EventLoop {
    shared: Arc<LoopShared>,
    thread: Option<std::thread::JoinHandle<()>>,
    /// Address the listener actually bound (after port 0 resolution).
    pub local_addr: std::net::SocketAddr,
}

impl EventLoop {
    /// Take ownership of `listener` and start the loop thread.
    pub fn start(
        listener: TcpListener,
        handler: Handler,
        cfg: LoopConfig,
        stats: Arc<ConnStats>,
    ) -> std::io::Result<EventLoop> {
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(LoopShared {
            completions: Mutex::new(Vec::new()),
            wake: sys::WakePipe::new()?,
            stats: Arc::clone(&stats),
            draining: AtomicBool::new(false),
            drain_requested: AtomicBool::new(false),
            stop_requested: AtomicBool::new(false),
        });
        let mut state = LoopState::new(listener, handler, cfg, stats, shared.clone())?;
        let thread = std::thread::Builder::new()
            .name("eloop".to_string())
            .spawn(move || state.run())?;
        Ok(EventLoop {
            shared,
            thread: Some(thread),
            local_addr,
        })
    }

    /// Begin draining: close idle keep-alive connections now, serialise
    /// every further response with `Connection: close`, keep accepting
    /// (new requests will see the server's draining policy). In-flight
    /// pipelines finish.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.drain_requested.store(true, Ordering::SeqCst);
        self.shared.notify();
    }

    /// Stop accepting and shut the loop down once remaining connections
    /// finish (bounded by [`STOP_GRACE`]). Implies [`drain`](Self::drain).
    pub fn stop(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.drain_requested.store(true, Ordering::SeqCst);
        self.shared.stop_requested.store(true, Ordering::SeqCst);
        self.shared.notify();
    }

    /// Wait for the loop thread to exit (call [`stop`](Self::stop) first).
    pub fn join(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

enum ConnState {
    /// Accumulating request bytes.
    Reading,
    /// A request was dispatched; waiting on its responder.
    Awaiting,
    /// Flushing the response segments.
    Writing,
}

enum OutSeg {
    Bytes(Vec<u8>, usize),
    Shared(Arc<str>, usize),
}

struct Conn {
    stream: TcpStream,
    fd: sys::RawFd,
    rbuf: Vec<u8>,
    out: Vec<OutSeg>,
    out_status: u16,
    /// Whether the in-flight response came from a fired deadline.
    out_deadline_fired: bool,
    flush_start: Option<Instant>,
    on_written: Option<OnWritten>,
    state: ConnState,
    responder: Option<Arc<RespInner>>,
    /// Requests dispatched on this connection (the live one's seq).
    served: u64,
    /// Keep-alive decision for the response currently being written.
    keep_after_write: bool,
    /// Keep-alive preference of the request currently in flight.
    req_keep_alive: bool,
    /// Peer closed its write half; finish the response, then close.
    peer_closed: bool,
    /// When the current request's first byte arrived (head timeout +
    /// parse-stage timing).
    head_started: Option<Instant>,
    /// Whether a [`TimerKind::Header`] entry is on the wheel.
    header_timer_armed: bool,
    last_activity: Instant,
    /// Interest currently registered with the poller.
    interest: (bool, bool),
}

#[derive(Clone, Copy)]
enum TimerKind {
    Idle,
    /// The request head in progress must complete in time; at most one
    /// entry per connection, re-armed for whichever head is current.
    Header,
    Deadline {
        seq: u64,
    },
    /// An outbound connection's progress timeout.
    Upstream,
}

enum OutState {
    /// Nonblocking `connect` in progress (`EINPROGRESS`).
    Connecting,
    /// Sending the exchange's request bytes.
    Writing,
    /// Accumulating the response until it is framed.
    Reading,
    /// Parked in its target's idle pool.
    Idle,
}

/// One outbound connection; it shares the token space, the poller and
/// the timer wheel with the inbound connections.
struct OutConn {
    stream: TcpStream,
    fd: sys::RawFd,
    addr: String,
    state: OutState,
    /// The exchange in flight (none while idle).
    exchange: Option<Exchange>,
    /// How much of the exchange's request bytes is written.
    wpos: usize,
    rbuf: Vec<u8>,
    /// The exchange in flight came out of the idle pool, so a failure
    /// is retried once on a fresh dial.
    reused: bool,
    last_activity: Instant,
    /// Whether an [`TimerKind::Upstream`] entry is on the wheel (at
    /// most one per connection).
    timer_armed: bool,
    interest: (bool, bool),
}

struct TimerEntry {
    at: Instant,
    token: u64,
    kind: TimerKind,
}

/// Hashed timer wheel: slots × granularity, lazily revalidated entries.
/// Entries further out than one rotation stay in their slot and are
/// re-examined each visit.
struct TimerWheel {
    slots: Vec<Vec<TimerEntry>>,
    cursor: usize,
    last_tick: Instant,
    origin: Instant,
    len: usize,
}

impl TimerWheel {
    fn new(now: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            last_tick: now,
            origin: now,
            len: 0,
        }
    }

    fn insert(&mut self, at: Instant, token: u64, kind: TimerKind) {
        // Entries already due (or due before the next tick) go into the
        // next slot the cursor will visit, so they fire promptly instead
        // of waiting a full rotation. Otherwise the slot is the first
        // tick at or after `at` (rounded up: the cursor visits a slot at
        // its tick, and an entry not yet due then would wait a whole
        // rotation for the next visit).
        let effective = at.max(self.last_tick + WHEEL_GRANULARITY);
        let ticks = effective
            .saturating_duration_since(self.origin)
            .as_nanos()
            .div_ceil(WHEEL_GRANULARITY.as_nanos());
        let slot = (ticks % WHEEL_SLOTS as u128) as usize;
        self.slots[slot].push(TimerEntry { at, token, kind });
        self.len += 1;
    }

    /// Advance the cursor up to `now`, returning fired entries.
    fn collect_due(&mut self, now: Instant) -> Vec<TimerEntry> {
        let mut due = Vec::new();
        if self.len == 0 {
            self.catch_up(now);
            return due;
        }
        // If we fell behind by more than a rotation (suspend, debugger),
        // sweep everything once instead of spinning the cursor.
        if now.saturating_duration_since(self.last_tick) > WHEEL_GRANULARITY * WHEEL_SLOTS as u32 {
            for slot in &mut self.slots {
                let mut i = 0;
                while i < slot.len() {
                    if slot[i].at <= now {
                        due.push(slot.swap_remove(i));
                        self.len -= 1;
                    } else {
                        i += 1;
                    }
                }
            }
            self.catch_up(now);
            return due;
        }
        while self.last_tick + WHEEL_GRANULARITY <= now {
            self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
            self.last_tick += WHEEL_GRANULARITY;
            let slot = &mut self.slots[self.cursor];
            let mut i = 0;
            while i < slot.len() {
                if slot[i].at <= now {
                    due.push(slot.swap_remove(i));
                    self.len -= 1;
                } else {
                    i += 1;
                }
            }
        }
        due
    }

    fn catch_up(&mut self, now: Instant) {
        let behind = now.saturating_duration_since(self.last_tick);
        let ticks = behind.as_millis() as u64 / WHEEL_GRANULARITY.as_millis() as u64;
        self.cursor = (self.cursor + ticks as usize) % WHEEL_SLOTS;
        self.last_tick += WHEEL_GRANULARITY * ticks as u32;
    }

    fn next_timeout(&self, now: Instant) -> Option<Duration> {
        if self.len == 0 {
            return None;
        }
        let next_tick = self.last_tick + WHEEL_GRANULARITY;
        Some(
            next_tick
                .saturating_duration_since(now)
                .max(Duration::from_millis(1)),
        )
    }
}

struct LoopState {
    poller: sys::Poller,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    outs: HashMap<u64, OutConn>,
    /// Idle outbound connections per target address, most recent last.
    idle_outs: HashMap<String, Vec<u64>>,
    outbound: Outbound,
    wheel: TimerWheel,
    shared: Arc<LoopShared>,
    handler: Handler,
    cfg: LoopConfig,
    stats: Arc<ConnStats>,
    next_token: u64,
    overload_response: Vec<u8>,
    accepting: bool,
    stop_at: Option<Instant>,
}

impl LoopState {
    fn new(
        listener: TcpListener,
        handler: Handler,
        cfg: LoopConfig,
        stats: Arc<ConnStats>,
        shared: Arc<LoopShared>,
    ) -> std::io::Result<LoopState> {
        let mut poller = sys::Poller::new()?;
        poller.add(sys::raw_fd(&listener), TOKEN_LISTENER, true, false)?;
        poller.add(shared.wake.read_fd(), TOKEN_WAKE, true, false)?;
        let overload =
            Response::error(503, "server over connection capacity").with_header("retry-after", "1");
        let mut overload_bytes = overload.head_bytes(false);
        overload_bytes.extend_from_slice(overload.body.as_str().as_bytes());
        Ok(LoopState {
            poller,
            listener,
            conns: HashMap::new(),
            outs: HashMap::new(),
            idle_outs: HashMap::new(),
            outbound: Outbound::default(),
            wheel: TimerWheel::new(Instant::now()),
            shared,
            handler,
            cfg,
            stats,
            next_token: TOKEN_FIRST_CONN,
            overload_response: overload_bytes,
            accepting: true,
            stop_at: None,
        })
    }

    fn run(&mut self) {
        LOOP_ON_THIS_THREAD.set(Arc::as_ptr(&self.shared) as usize);
        let mut events = Vec::new();
        loop {
            if self.shared.drain_requested.swap(false, Ordering::SeqCst) {
                self.close_idle_conns();
            }
            if self.stop_at.is_none() && self.shared.stop_requested.load(Ordering::SeqCst) {
                self.stop_at = Some(Instant::now());
                if self.accepting {
                    self.accepting = false;
                    let _ = self.poller.remove(sys::raw_fd(&self.listener));
                }
                self.close_idle_conns();
            }
            if self.stop_at.is_some() && self.conns.is_empty() {
                return;
            }
            if let Some(at) = self.stop_at {
                if at.elapsed() > STOP_GRACE {
                    let tokens: Vec<u64> = self.conns.keys().copied().collect();
                    for t in tokens {
                        self.close_conn(t);
                    }
                    return;
                }
            }

            let now = Instant::now();
            let timeout = if self.stop_at.is_some() {
                Duration::from_millis(100)
            } else {
                self.wheel
                    .next_timeout(now)
                    .unwrap_or(Duration::from_millis(500))
            };
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                continue;
            }

            // Answers sent on this thread (inline, outbound completions,
            // upstream timeouts) wrote no wake byte: drain the completion
            // queue after every event, so an answer is written before
            // the next event's work.
            for ev in std::mem::take(&mut events) {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.shared.wake.drain(),
                    token if self.outs.contains_key(&token) => self.out_event(token, &ev),
                    token => self.conn_event(token, &ev),
                }
                self.drain_completions();
            }
            let now = Instant::now();
            for entry in self.wheel.collect_due(now) {
                self.on_timer(entry, now);
            }
            self.drain_completions();
        }
    }

    fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    fn accept_ready(&mut self) {
        if !self.accepting {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.cfg.max_connections {
                        self.stats
                            .overload_rejections_total
                            .fetch_add(1, Ordering::Relaxed);
                        // Fresh socket, empty send buffer: a short
                        // blocking write cannot stall the loop.
                        let mut stream = stream;
                        let _ = stream.write_all(&self.overload_response);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let fd = sys::raw_fd(&stream);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.poller.add(fd, token, true, false).is_err() {
                        continue;
                    }
                    let now = Instant::now();
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            fd,
                            rbuf: Vec::new(),
                            out: Vec::new(),
                            out_status: 0,
                            out_deadline_fired: false,
                            flush_start: None,
                            on_written: None,
                            state: ConnState::Reading,
                            responder: None,
                            served: 0,
                            keep_after_write: false,
                            req_keep_alive: false,
                            peer_closed: false,
                            head_started: None,
                            header_timer_armed: false,
                            last_activity: now,
                            interest: (true, false),
                        },
                    );
                    self.stats.accepted_total.fetch_add(1, Ordering::Relaxed);
                    self.stats.open_connections.fetch_add(1, Ordering::Relaxed);
                    self.wheel
                        .insert(now + self.cfg.idle_timeout, token, TimerKind::Idle);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn conn_event(&mut self, token: u64, ev: &sys::Event) {
        if !self.conns.contains_key(&token) {
            return;
        }
        if ev.error {
            self.close_conn(token);
            return;
        }
        if ev.writable {
            self.continue_write(token);
        }
        if !self.conns.contains_key(&token) {
            return;
        }
        let reading = matches!(
            self.conns.get(&token).map(|c| &c.state),
            Some(ConnState::Reading)
        );
        if ev.readable || (ev.rdhup && reading) {
            self.read_ready(token);
        } else if ev.rdhup {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.peer_closed = true;
            }
        }
    }

    fn read_ready(&mut self, token: u64) {
        let mut chunk = [0u8; 8192];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !matches!(conn.state, ConnState::Reading) {
                return;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    // Peer finished sending. With no request in flight
                    // (or a forever-incomplete one) the connection is
                    // done.
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    let now = Instant::now();
                    conn.last_activity = now;
                    conn.head_started.get_or_insert(now);
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    self.arm_header_timer(token);
                    self.try_advance(token);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        self.update_interest(token);
    }

    /// Try to parse and dispatch the next request from `rbuf`. At most
    /// one request is in flight per connection: pipelined successors
    /// wait in the buffer until the current response flushes.
    fn try_advance(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !matches!(conn.state, ConnState::Reading) {
            return;
        }
        match http::parse_request(&conn.rbuf) {
            Ok(None) => {}
            Ok(Some((req, consumed))) => {
                conn.rbuf.drain(..consumed);
                let parse_nanos = conn
                    .head_started
                    .map(|t| t.elapsed().as_nanos() as u64)
                    .unwrap_or(0);
                conn.head_started = None;
                let reused = conn.served > 0;
                if reused {
                    self.stats
                        .keepalive_reuses_total
                        .fetch_add(1, Ordering::Relaxed);
                }
                conn.served += 1;
                let seq = conn.served;
                conn.req_keep_alive = req.wants_keep_alive();
                conn.state = ConnState::Awaiting;
                let inner = Arc::new(RespInner {
                    token,
                    seq,
                    shared: self.shared.clone(),
                    state: Mutex::new(RespState {
                        fulfilled: false,
                        response: None,
                        on_written: None,
                        deadline: None,
                    }),
                });
                conn.responder = Some(inner.clone());
                self.update_interest(token);
                let handler = self.handler.clone();
                handler(
                    req,
                    ReqMeta {
                        parse_nanos,
                        reused,
                    },
                    Responder {
                        inner: inner.clone(),
                    },
                    &mut self.outbound,
                );
                self.start_outbound();
                // The handler registers its deadline synchronously; arm
                // the wheel now (inline sends are picked up by the
                // completion drain this same iteration).
                let deadline_at = inner
                    .state
                    .lock()
                    .unwrap()
                    .deadline
                    .as_ref()
                    .map(|(at, _)| *at);
                if let Some(at) = deadline_at {
                    self.wheel.insert(at, token, TimerKind::Deadline { seq });
                }
            }
            Err(e) => {
                let resp = match e {
                    http::ParseError::TooLarge => {
                        Response::error(413, "request exceeds size limits")
                    }
                    _ => Response::error(400, &format!("{e}")),
                };
                self.queue_response(token, resp, false, None, false);
            }
        }
    }

    /// Serialise `resp` onto the connection and start flushing. The body
    /// is kept as its own segment so shared cache bodies are written
    /// without copying.
    fn queue_response(
        &mut self,
        token: u64,
        resp: Response,
        keep_alive: bool,
        on_written: Option<OnWritten>,
        deadline_fired: bool,
    ) {
        let Some(conn) = self.conns.get_mut(&token) else {
            if let Some(f) = on_written {
                f(resp.status, Instant::now(), 0, deadline_fired);
            }
            return;
        };
        let head = resp.head_bytes(keep_alive);
        conn.out_status = resp.status;
        conn.out_deadline_fired = deadline_fired;
        conn.out = vec![OutSeg::Bytes(head, 0)];
        match resp.body {
            Body::Text(s) => conn.out.push(OutSeg::Bytes(s.into_bytes(), 0)),
            Body::Shared(a) => conn.out.push(OutSeg::Shared(a, 0)),
        }
        conn.flush_start = Some(Instant::now());
        conn.on_written = on_written;
        conn.state = ConnState::Writing;
        conn.keep_after_write = keep_alive;
        conn.responder = None;
        self.continue_write(token);
    }

    fn continue_write(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !matches!(conn.state, ConnState::Writing) {
            return;
        }
        while let Some(seg) = conn.out.first_mut() {
            let (bytes, pos) = match seg {
                OutSeg::Bytes(b, pos) => (&b[..], pos),
                OutSeg::Shared(a, pos) => (a.as_bytes(), pos),
            };
            if *pos >= bytes.len() {
                conn.out.remove(0);
                continue;
            }
            match conn.stream.write(&bytes[*pos..]) {
                Ok(n) => {
                    *pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.update_interest(token);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        self.finish_write(token);
    }

    fn finish_write(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let _ = conn.stream.flush();
        let status = conn.out_status;
        let deadline_fired = conn.out_deadline_fired;
        let flush_start = conn.flush_start.take().unwrap_or_else(Instant::now);
        let flush_nanos = flush_start.elapsed().as_nanos() as u64;
        if let Some(f) = conn.on_written.take() {
            f(status, flush_start, flush_nanos, deadline_fired);
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.keep_after_write {
            self.close_conn(token);
            return;
        }
        conn.state = ConnState::Reading;
        conn.out = Vec::new();
        conn.last_activity = Instant::now();
        if !conn.rbuf.is_empty() {
            // Pipelined successor already buffered: parse it now.
            conn.head_started = Some(Instant::now());
            self.arm_header_timer(token);
            self.try_advance(token);
        } else if self.draining() {
            // Keep-alive granted before drain began; nothing buffered,
            // so the pipeline is finished — close.
            self.close_conn(token);
            return;
        }
        self.update_interest(token);
    }

    fn drain_completions(&mut self) {
        loop {
            let batch: Vec<Arc<RespInner>> =
                std::mem::take(&mut *self.shared.completions.lock().unwrap());
            if batch.is_empty() {
                return;
            }
            for inner in batch {
                let (resp, on_written) = {
                    let mut st = inner.state.lock().unwrap();
                    (st.response.take(), st.on_written.take())
                };
                let Some(resp) = resp else { continue };
                let live = self
                    .conns
                    .get(&inner.token)
                    .map(|c| {
                        matches!(c.state, ConnState::Awaiting)
                            && c.served == inner.seq
                            && c.responder.as_ref().is_some_and(|r| Arc::ptr_eq(r, &inner))
                    })
                    .unwrap_or(false);
                if live {
                    let keep = {
                        let conn = &self.conns[&inner.token];
                        conn.req_keep_alive && !conn.peer_closed && !self.draining()
                    };
                    self.queue_response(inner.token, resp, keep, on_written, false);
                } else if let Some(f) = on_written {
                    // Connection is gone; still run the accounting
                    // (trace finish, SLO) with a zero-length flush.
                    f(resp.status, Instant::now(), 0, false);
                }
            }
        }
    }

    fn on_timer(&mut self, entry: TimerEntry, now: Instant) {
        if let TimerKind::Upstream = entry.kind {
            self.out_timer(entry.token, now);
            return;
        }
        let Some(conn) = self.conns.get_mut(&entry.token) else {
            return;
        };
        match entry.kind {
            TimerKind::Idle => {
                let idle_for = now.saturating_duration_since(conn.last_activity);
                let is_idle = matches!(conn.state, ConnState::Reading) && conn.rbuf.is_empty();
                if is_idle && idle_for >= self.cfg.idle_timeout {
                    self.stats
                        .idle_timeouts_total
                        .fetch_add(1, Ordering::Relaxed);
                    self.close_conn(entry.token);
                } else {
                    self.wheel.insert(
                        conn.last_activity + self.cfg.idle_timeout,
                        entry.token,
                        TimerKind::Idle,
                    );
                }
            }
            TimerKind::Header => {
                conn.header_timer_armed = false;
                let head = match conn.state {
                    ConnState::Reading => conn.head_started,
                    _ => None,
                };
                let Some(started) = head else {
                    return;
                };
                if now.saturating_duration_since(started) >= self.cfg.header_timeout {
                    self.stats
                        .header_timeouts_total
                        .fetch_add(1, Ordering::Relaxed);
                    self.queue_response(
                        entry.token,
                        Response::error(408, "request head timed out"),
                        false,
                        None,
                        false,
                    );
                } else {
                    self.arm_header_timer(entry.token);
                }
            }
            TimerKind::Deadline { seq } => {
                if !matches!(conn.state, ConnState::Awaiting) || conn.served != seq {
                    return;
                }
                let Some(inner) = conn.responder.clone() else {
                    return;
                };
                let took = {
                    let mut st = inner.state.lock().unwrap();
                    if st.fulfilled {
                        None
                    } else {
                        match st.deadline.take() {
                            Some((at, resp)) if at <= now => {
                                st.fulfilled = true;
                                Some((resp, st.on_written.take()))
                            }
                            Some(d) => {
                                // Not actually due (wheel slop): re-arm.
                                let at = d.0;
                                st.deadline = Some(d);
                                drop(st);
                                self.wheel
                                    .insert(at, entry.token, TimerKind::Deadline { seq });
                                return;
                            }
                            None => None,
                        }
                    }
                };
                if let Some((resp, on_written)) = took {
                    let keep = {
                        let conn = &self.conns[&entry.token];
                        conn.req_keep_alive && !conn.peer_closed && !self.draining()
                    };
                    self.queue_response(entry.token, resp, keep, on_written, true);
                }
            }
            TimerKind::Upstream => {} // handled above
        }
    }

    /// Put the connection's header timer on the wheel for the head in
    /// progress, unless it is already there: one entry per connection,
    /// not one per request.
    fn arm_header_timer(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if let (false, Some(started)) = (conn.header_timer_armed, conn.head_started) {
            conn.header_timer_armed = true;
            self.wheel
                .insert(started + self.cfg.header_timeout, token, TimerKind::Header);
        }
    }

    /// Drain-time sweep: close connections with nothing in flight and
    /// nothing buffered. In-flight pipelines run to completion.
    fn close_idle_conns(&mut self) {
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                matches!(c.state, ConnState::Reading)
                    && c.rbuf.is_empty()
                    && c.head_started.is_none()
            })
            .map(|(t, _)| *t)
            .collect();
        for token in idle {
            self.close_conn(token);
        }
    }

    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = match conn.state {
            ConnState::Reading => (true, false),
            ConnState::Awaiting => (false, false),
            ConnState::Writing => (false, true),
        };
        if want != conn.interest {
            conn.interest = want;
            let _ = self.poller.modify(conn.fd, token, want.0, want.1);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.remove(conn.fd);
            if let Some(f) = conn.on_written {
                // A response was mid-flush when the connection died.
                let start = conn.flush_start.unwrap_or_else(Instant::now);
                f(
                    conn.out_status,
                    start,
                    start.elapsed().as_nanos() as u64,
                    conn.out_deadline_fired,
                );
            }
            self.stats.closed_total.fetch_add(1, Ordering::Relaxed);
            self.stats.open_connections.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Start every queued outbound exchange.
    fn start_outbound(&mut self) {
        while let Some(ex) = self.outbound.queue.pop_front() {
            self.start_exchange(ex);
        }
    }

    /// Send `ex` on an idle pooled connection to its target, or dial.
    fn start_exchange(&mut self, ex: Exchange) {
        let Some(token) = self.idle_outs.get_mut(&ex.addr).and_then(Vec::pop) else {
            return self.dial(ex);
        };
        let conn = self
            .outs
            .get_mut(&token)
            .expect("closing a connection takes it out of the idle pool");
        conn.state = OutState::Writing;
        conn.exchange = Some(ex);
        conn.wpos = 0;
        conn.reused = true;
        conn.last_activity = Instant::now();
        self.arm_out_timer(token);
        self.out_write(token);
    }

    fn dial(&mut self, ex: Exchange) {
        let stream = match sys::connect_nonblocking(&ex.addr) {
            Ok(stream) => stream,
            Err(e) => return self.complete(ex.on_done, Err(e)),
        };
        let _ = stream.set_nodelay(true);
        let fd = sys::raw_fd(&stream);
        let token = self.next_token;
        self.next_token += 1;
        if let Err(e) = self.poller.add(fd, token, false, true) {
            return self.complete(ex.on_done, Err(e));
        }
        self.outs.insert(
            token,
            OutConn {
                stream,
                fd,
                addr: ex.addr.clone(),
                state: OutState::Connecting,
                exchange: Some(ex),
                wpos: 0,
                rbuf: Vec::new(),
                reused: false,
                last_activity: Instant::now(),
                timer_armed: false,
                interest: (false, true),
            },
        );
        self.arm_out_timer(token);
    }

    fn out_event(&mut self, token: u64, ev: &sys::Event) {
        let Some(conn) = self.outs.get_mut(&token) else {
            return;
        };
        match conn.state {
            OutState::Connecting if ev.writable || ev.error => match conn.stream.take_error() {
                Ok(None) => {
                    conn.state = OutState::Writing;
                    self.out_write(token);
                }
                Ok(Some(e)) | Err(e) => self.out_failed(token, e),
            },
            OutState::Writing if ev.writable || ev.error => self.out_write(token),
            OutState::Reading if ev.readable || ev.rdhup || ev.error => self.out_read(token),
            // A parked connection hears only a close (or bytes nobody
            // asked for): it is no longer reusable.
            OutState::Idle => {
                self.close_out(token);
            }
            _ => {}
        }
    }

    fn out_write(&mut self, token: u64) {
        loop {
            let Some(conn) = self.outs.get_mut(&token) else {
                return;
            };
            let bytes = &conn.exchange.as_ref().expect("writing an exchange").bytes;
            if conn.wpos >= bytes.len() {
                conn.state = OutState::Reading;
                self.set_out_interest(token, (true, false));
                return;
            }
            match conn.stream.write(&bytes[conn.wpos..]) {
                Ok(n) => {
                    conn.wpos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.set_out_interest(token, (false, true));
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return self.out_failed(token, e),
            }
        }
    }

    fn out_read(&mut self, token: u64) {
        let mut chunk = [0u8; 8192];
        loop {
            let Some(conn) = self.outs.get_mut(&token) else {
                return;
            };
            let eof = match conn.stream.read(&mut chunk) {
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    n == 0
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return self.out_failed(token, e),
            };
            match http::parse_response(&conn.rbuf, eof) {
                Ok(None) => {}
                Ok(Some((resp, consumed))) => {
                    conn.rbuf.drain(..consumed);
                    return self.out_done(token, resp);
                }
                Err(e) => return self.out_failed(token, e),
            }
        }
    }

    /// The exchange on `token` got its response: park the connection
    /// (or close it) and run the callback.
    fn out_done(&mut self, token: u64, resp: ClientResponse) {
        let Some(conn) = self.outs.get_mut(&token) else {
            return;
        };
        let ex = conn.exchange.take().expect("finished an exchange");
        let idle = self.idle_outs.entry(conn.addr.clone()).or_default();
        if http::keeps_alive(&resp.1) && idle.len() < MAX_IDLE_PER_TARGET {
            idle.push(token);
            conn.state = OutState::Idle;
        } else {
            self.close_out(token);
        }
        self.complete(ex.on_done, Ok(resp));
    }

    /// A transport error on `token`: a reused connection retries its
    /// exchange once on a fresh dial, anything else fails it.
    fn out_failed(&mut self, token: u64, err: std::io::Error) {
        let Some(mut conn) = self.close_out(token) else {
            return;
        };
        match conn.exchange.take() {
            Some(ex) if conn.reused => self.dial(ex),
            Some(ex) => self.complete(ex.on_done, Err(err)),
            None => {}
        }
    }

    fn complete(&mut self, on_done: OnDone, result: std::io::Result<ClientResponse>) {
        on_done(result, &mut self.outbound);
        self.start_outbound();
    }

    fn close_out(&mut self, token: u64) -> Option<OutConn> {
        let conn = self.outs.remove(&token)?;
        let _ = self.poller.remove(conn.fd);
        if let Some(idle) = self.idle_outs.get_mut(&conn.addr) {
            idle.retain(|t| *t != token);
        }
        Some(conn)
    }

    fn set_out_interest(&mut self, token: u64, want: (bool, bool)) {
        let Some(conn) = self.outs.get_mut(&token) else {
            return;
        };
        if want != conn.interest {
            conn.interest = want;
            let _ = self.poller.modify(conn.fd, token, want.0, want.1);
        }
    }

    fn arm_out_timer(&mut self, token: u64) {
        let Some(conn) = self.outs.get_mut(&token) else {
            return;
        };
        if !conn.timer_armed {
            conn.timer_armed = true;
            self.wheel.insert(
                conn.last_activity + UPSTREAM_TIMEOUT,
                token,
                TimerKind::Upstream,
            );
        }
    }

    fn out_timer(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.outs.get_mut(&token) else {
            return;
        };
        if let OutState::Idle = conn.state {
            conn.timer_armed = false;
            return;
        }
        let due = conn.last_activity + UPSTREAM_TIMEOUT;
        if now >= due {
            let err = std::io::Error::new(std::io::ErrorKind::TimedOut, "upstream timed out");
            self.out_failed(token, err);
        } else {
            self.wheel.insert(due, token, TimerKind::Upstream);
        }
    }
}

/// The Linux poller (raw `epoll(7)`), nonblocking connect and the
/// wake pipe.
mod sys {
    use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
    use std::os::raw::c_int;
    use std::os::unix::io::AsRawFd;
    pub use std::os::unix::io::RawFd;

    pub fn raw_fd<T: AsRawFd>(t: &T) -> RawFd {
        t.as_raw_fd()
    }

    /// `ip:port` parses in place; a host name costs a (blocking) lookup
    /// per dial, which pooled connections make rare.
    fn resolve(addr: &str) -> std::io::Result<SocketAddr> {
        if let Ok(sa) = addr.parse() {
            return Ok(sa);
        }
        addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolves to nothing",
            )
        })
    }

    /// Start a nonblocking TCP connect to `addr`. The connect usually
    /// completes later (`EINPROGRESS`): the socket turns writable and
    /// `take_error` reports the outcome.
    pub fn connect_nonblocking(addr: &str) -> std::io::Result<TcpStream> {
        use std::os::unix::io::FromRawFd;
        extern "C" {
            fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
            fn connect(fd: c_int, addr: *const u8, len: u32) -> c_int;
        }
        const AF_INET: u16 = 2;
        const AF_INET6: u16 = 10;
        const SOCK_STREAM: c_int = 1;
        const SOCK_NONBLOCK: c_int = 0o4000;
        const SOCK_CLOEXEC: c_int = 0o2000000;
        const EINPROGRESS: i32 = 115;
        // `struct sockaddr_in` / `sockaddr_in6`, byte by byte.
        let mut raw = Vec::with_capacity(28);
        let family = match resolve(addr)? {
            SocketAddr::V4(a) => {
                raw.extend_from_slice(&AF_INET.to_ne_bytes());
                raw.extend_from_slice(&a.port().to_be_bytes());
                raw.extend_from_slice(&a.ip().octets());
                raw.extend_from_slice(&[0; 8]);
                AF_INET
            }
            SocketAddr::V6(a) => {
                raw.extend_from_slice(&AF_INET6.to_ne_bytes());
                raw.extend_from_slice(&a.port().to_be_bytes());
                raw.extend_from_slice(&a.flowinfo().to_be_bytes());
                raw.extend_from_slice(&a.ip().octets());
                raw.extend_from_slice(&a.scope_id().to_ne_bytes());
                AF_INET6
            }
        };
        // SAFETY: socket(2) takes only integer arguments.
        let fd = unsafe {
            socket(
                c_int::from(family),
                SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                0,
            )
        };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: `fd` is a freshly created TCP socket that nothing else
        // owns; the stream takes it over and closes it on drop, also on
        // the error return below.
        let stream = unsafe { TcpStream::from_raw_fd(fd) };
        // SAFETY: `raw` is a complete `sockaddr_in`/`sockaddr_in6` of
        // `raw.len()` bytes for the socket's family, alive for the call;
        // the kernel copies it.
        if unsafe { connect(fd, raw.as_ptr(), raw.len() as u32) } != 0 {
            let err = std::io::Error::last_os_error();
            if err.raw_os_error() != Some(EINPROGRESS) {
                return Err(err);
            }
        }
        Ok(stream)
    }

    /// One readiness event, normalised across backends.
    pub struct Event {
        pub token: u64,
        pub readable: bool,
        pub writable: bool,
        /// Hard error / full hangup — close the connection.
        pub error: bool,
        /// Peer closed its write half (half-close).
        pub rdhup: bool,
    }

    extern "C" {
        fn close(fd: c_int) -> c_int;
        fn pipe(fds: *mut c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    }

    const F_SETFD: c_int = 2;
    const F_SETFL: c_int = 4;
    const FD_CLOEXEC: c_int = 1;
    const O_NONBLOCK: c_int = 0o4000;

    /// Self-pipe used to wake the loop from other threads. Both fds are
    /// non-blocking; a full pipe on `notify` is fine (a wakeup is
    /// already pending).
    pub struct WakePipe {
        rfd: RawFd,
        wfd: RawFd,
    }

    impl WakePipe {
        pub fn new() -> std::io::Result<WakePipe> {
            let mut fds = [0 as c_int; 2];
            if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
                return Err(std::io::Error::last_os_error());
            }
            for fd in fds {
                unsafe {
                    fcntl(fd, F_SETFL, O_NONBLOCK);
                    fcntl(fd, F_SETFD, FD_CLOEXEC);
                }
            }
            Ok(WakePipe {
                rfd: fds[0],
                wfd: fds[1],
            })
        }

        pub fn read_fd(&self) -> RawFd {
            self.rfd
        }

        pub fn notify(&self) {
            let byte = 1u8;
            unsafe {
                let _ = write(self.wfd, &byte as *const u8, 1);
            }
        }

        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            loop {
                let n = unsafe { read(self.rfd, buf.as_mut_ptr(), buf.len()) };
                if n <= 0 {
                    break;
                }
            }
        }
    }

    impl Drop for WakePipe {
        fn drop(&mut self) {
            unsafe {
                close(self.rfd);
                close(self.wfd);
            }
        }
    }

    pub use linux::Poller;

    mod linux {
        use super::{close, Event, RawFd};
        use std::os::raw::c_int;
        use std::time::Duration;

        const EPOLLIN: u32 = 0x001;
        const EPOLLOUT: u32 = 0x004;
        const EPOLLERR: u32 = 0x008;
        const EPOLLHUP: u32 = 0x010;
        const EPOLLRDHUP: u32 = 0x2000;
        const EPOLL_CTL_ADD: c_int = 1;
        const EPOLL_CTL_DEL: c_int = 2;
        const EPOLL_CTL_MOD: c_int = 3;
        const EPOLL_CLOEXEC: c_int = 0o2000000;
        const MAX_EVENTS: usize = 256;

        // Matches the kernel ABI: packed on x86-64, natural elsewhere.
        #[repr(C)]
        #[cfg_attr(target_arch = "x86_64", repr(packed))]
        #[derive(Clone, Copy)]
        struct EpollEvent {
            events: u32,
            data: u64,
        }

        extern "C" {
            fn epoll_create1(flags: c_int) -> c_int;
            fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
        }

        /// Level-triggered `epoll` poller.
        pub struct Poller {
            epfd: RawFd,
        }

        impl Poller {
            pub fn new() -> std::io::Result<Poller> {
                let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
                if epfd < 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(Poller { epfd })
            }

            fn ctl(
                &self,
                op: c_int,
                fd: RawFd,
                token: u64,
                r: bool,
                w: bool,
            ) -> std::io::Result<()> {
                let mut ev = EpollEvent {
                    events: (if r { EPOLLIN } else { 0 })
                        | (if w { EPOLLOUT } else { 0 })
                        | EPOLLRDHUP,
                    data: token,
                };
                if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            }

            pub fn add(&mut self, fd: RawFd, token: u64, r: bool, w: bool) -> std::io::Result<()> {
                self.ctl(EPOLL_CTL_ADD, fd, token, r, w)
            }

            pub fn modify(
                &mut self,
                fd: RawFd,
                token: u64,
                r: bool,
                w: bool,
            ) -> std::io::Result<()> {
                self.ctl(EPOLL_CTL_MOD, fd, token, r, w)
            }

            pub fn remove(&mut self, fd: RawFd) -> std::io::Result<()> {
                let mut ev = EpollEvent { events: 0, data: 0 };
                if unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) } != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            }

            pub fn wait(
                &mut self,
                out: &mut Vec<Event>,
                timeout: Option<Duration>,
            ) -> std::io::Result<()> {
                out.clear();
                let mut buf = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
                let timeout_ms: c_int = match timeout {
                    Some(d) => d.as_millis().min(i32::MAX as u128) as c_int,
                    None => -1,
                };
                let n = unsafe {
                    epoll_wait(self.epfd, buf.as_mut_ptr(), MAX_EVENTS as c_int, timeout_ms)
                };
                if n < 0 {
                    let err = std::io::Error::last_os_error();
                    if err.kind() == std::io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(err);
                }
                for ev in buf.iter().take(n as usize) {
                    let events = { ev.events };
                    let data = { ev.data };
                    out.push(Event {
                        token: data,
                        readable: events & EPOLLIN != 0,
                        writable: events & EPOLLOUT != 0,
                        error: events & (EPOLLERR | EPOLLHUP) != 0,
                        rdhup: events & EPOLLRDHUP != 0,
                    });
                }
                Ok(())
            }
        }

        impl Drop for Poller {
            fn drop(&mut self) {
                unsafe {
                    close(self.epfd);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_loop(max_conns: usize) -> (EventLoop, String, Arc<ConnStats>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stats = Arc::new(ConnStats::default());
        let handler: Handler = Arc::new(
            |req: Request, _meta, responder: Responder, _: &mut Outbound| {
                let body = format!("echo:{}", req.path);
                responder.send(Response::text(200, body));
            },
        );
        let eloop = EventLoop::start(
            listener,
            handler,
            LoopConfig {
                max_connections: max_conns,
                idle_timeout: Duration::from_secs(30),
                header_timeout: Duration::from_secs(10),
            },
            stats.clone(),
        )
        .unwrap();
        let addr = eloop.local_addr.to_string();
        (eloop, addr, stats)
    }

    #[test]
    fn serves_pipelined_requests_on_one_socket() {
        let (mut eloop, addr, stats) = echo_loop(16);
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap();
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.contains("echo:/a"), "first pipelined response: {text}");
        assert!(
            text.contains("echo:/b"),
            "second pipelined response: {text}"
        );
        assert_eq!(stats.keepalive_reuses_total.load(Ordering::Relaxed), 1);
        eloop.stop();
        eloop.join();
    }

    #[test]
    fn sheds_over_cap_accepts_with_503() {
        let (mut eloop, addr, stats) = echo_loop(1);
        // First connection occupies the only slot.
        let mut held = TcpStream::connect(&addr).unwrap();
        held.write_all(b"GET /hold HTTP/1.1\r\n\r\n").unwrap();
        let mut first = [0u8; 256];
        let n = held.read(&mut first).unwrap();
        assert!(String::from_utf8_lossy(&first[..n]).contains("200"));
        // Second connection is over cap.
        let mut shed = TcpStream::connect(&addr).unwrap();
        let mut buf = Vec::new();
        shed.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.contains("503"), "over-cap response: {text}");
        assert!(text.contains("retry-after: 1"), "retry-after: {text}");
        assert_eq!(stats.overload_rejections_total.load(Ordering::Relaxed), 1);
        eloop.stop();
        eloop.join();
    }

    #[test]
    fn wheel_fires_due_entries_and_keeps_future_ones() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        wheel.insert(t0 + Duration::from_millis(30), 7, TimerKind::Idle);
        wheel.insert(t0 + Duration::from_secs(60), 8, TimerKind::Idle);
        let fired = wheel.collect_due(t0 + Duration::from_millis(120));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].token, 7);
        assert_eq!(wheel.len, 1);
        // Far-future entry fires after its due time, even many
        // rotations later.
        let fired = wheel.collect_due(t0 + Duration::from_secs(61));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].token, 8);
    }

    #[test]
    fn wheel_fires_an_entry_on_the_first_tick_at_or_after_it() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        wheel.insert(t0 + Duration::from_millis(30), 7, TimerKind::Idle);
        assert!(wheel.collect_due(t0 + Duration::from_millis(25)).is_empty());
        let fired = wheel.collect_due(t0 + Duration::from_millis(50));
        assert_eq!(fired.len(), 1, "due at 30 ms, fired at the 50 ms tick");
    }
}
