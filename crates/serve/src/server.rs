//! The TCP server: one event-loop thread over one shared engine.
//!
//! Earlier revisions spent a reader/writer **thread pair per connection**
//! plus a waiter thread per job, which caps a daemon at hundreds of
//! clients. This server is a readiness reactor built on `marqsim-net`:
//!
//! * **one event-loop thread** owns the listener, every connection socket,
//!   and a [`Poller`]; connections are per-slot state machines (bounded
//!   line reassembly in, a bounded outbound queue out);
//! * engine progress/completion hooks run on the job's coordinator thread
//!   and only push a note onto a shared queue + wake the loop through the
//!   reactor's [`Wakeup`] channel — no per-job waiter thread, and no id
//!   handshake: hooks carry the engine-assigned job id;
//! * **backpressure** is explicit: each connection's outbound queue is
//!   bounded in events and bytes. Above a soft threshold, consecutive
//!   progress events of one job coalesce (newest wins); at the hard cap
//!   the client is a slow consumer and gets a structured `error` event,
//!   its jobs are cancelled, and the connection drains and closes — the
//!   queue never grows without bound;
//! * **timeouts** ride the reactor's deadline wheel: an optional idle
//!   timeout ([`Server::with_idle_timeout`],
//!   `MARQSIM_SERVE_IDLE_TIMEOUT_MS` on the daemon) reaps connections that
//!   send nothing, cancelling whatever they left running, and a grace
//!   timer force-closes a disconnecting connection whose peer never drains
//!   the final error event.
//!
//! All connections share one [`Engine`] — and therefore one worker pool
//! and one transition cache. Two clients sweeping the same Hamiltonian
//! share the min-cost-flow solve exactly as two jobs of one in-process
//! batch would; the `cache_delta` field of each `done` event makes that
//! visible per job (a warm-cache job reports `flow_solves=0`).
//!
//! # Admission control
//!
//! Two layers, both rejected with the structured `busy` event before any
//! decoding work. First the **engine-wide** bound
//! ([`Server::with_max_active_jobs`], `MARQSIM_MAX_ACTIVE_JOBS` on the
//! daemon; `0` = unlimited): a `submit` arriving while the shared engine
//! already has that many unfinished jobs — across *all* connections — is
//! rejected, so a swarm of polite clients cannot overload the daemon
//! collectively. Then the **per-connection** in-flight gauge (jobs
//! submitted but not yet finished): a `submit` at or above the effective
//! bound — the smaller of the request's `options.max_in_flight` and the
//! server's default ([`Server::with_max_in_flight`],
//! `MARQSIM_SERVE_MAX_IN_FLIGHT` on the daemon); a client can tighten its
//! bound but never raise it — is rejected, so one greedy client cannot
//! queue unbounded coordinator threads either. The `stats` event reports
//! the connection's gauge alongside the engine-wide active-job count, the
//! global bound, and the pool queue depth.
//!
//! Job ids are engine-assigned and engine-unique, but the `status` and
//! `cancel` verbs only resolve ids submitted on the **same connection** —
//! one client cannot cancel another's jobs.
//!
//! Disconnect policy: when a client hangs up (or is reaped by a timeout),
//! its unfinished jobs are cancelled (cooperatively), so an interrupted
//! sweep stops consuming the pool.
//!
//! See `docs/net.md` for the reactor architecture and the connection
//! state-machine lifecycle.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use marqsim_engine::{Engine, JobControl, SubmitOptions};
use marqsim_net::{
    DeadlineWheel, Interest, IoStatus, LineAssembler, Listener, PollEvent, Poller, Stream,
    TimerKey, Token, WakeHandle, Wakeup,
};
use marqsim_obs::{lockcheck, metrics, trace, warn};

use crate::protocol::{failure_kind, Event, Request, Role, ServerStats, PROTOCOL_VERSION};
use crate::registry::WorkloadRegistry;

/// Maximum accepted request-line length (bytes, terminator included).
/// Bounds per-connection memory against hostile input; a sweep submit is a
/// few hundred bytes, and even thousand-term Hamiltonians stay far below
/// this.
const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// Once a connection tracks this many jobs, finished entries are evicted
/// from its registry before the next submit, so a long-lived connection
/// submitting in a loop stays bounded. Consequence: `status` of a job that
/// finished more than ~this many submissions ago may answer `known=false`.
const MAX_TRACKED_JOBS: usize = 1024;

/// Default per-connection in-flight job bound when neither the submit's
/// `options.max_in_flight` nor [`Server::with_max_in_flight`] overrides it.
pub const DEFAULT_MAX_IN_FLIGHT: usize = 32;

/// Soft outbound-queue threshold (events): above it, consecutive progress
/// events of one job coalesce (newest wins) instead of queueing — a slow
/// reader still learns the latest progress, just not every step.
const OUTBOUND_COALESCE_EVENTS: usize = 64;

/// Hard outbound-queue cap in events; exceeding it is a slow-consumer
/// disconnect.
const OUTBOUND_MAX_EVENTS: usize = 8192;

/// Hard outbound-queue cap in bytes; exceeding it is a slow-consumer
/// disconnect. Generous enough for any single result payload (a 500-string
/// perturb matrix is ~6 MB) — the cap is about *accumulation*, not one
/// large event.
const OUTBOUND_MAX_BYTES: usize = 64 * 1024 * 1024;

/// How long a disconnecting connection may take to drain its final error
/// event before the socket is closed regardless.
const CLOSE_GRACE: Duration = Duration::from_secs(5);

/// Listener registration token.
const TOKEN_LISTENER: u64 = 0;
/// Wakeup-channel registration token.
const TOKEN_WAKEUP: u64 = 1;
/// Connection tokens start here: token = slot + TOKEN_CONN_BASE.
const TOKEN_CONN_BASE: u64 = 2;

/// Process-wide serve instruments in the global [`metrics`] registry,
/// resolved once. Request counters are labelled by verb so the exposition
/// separates cheap `status` polls from `submit` work.
struct ServeInstruments {
    connections: Arc<metrics::Counter>,
    bytes_read: Arc<metrics::Counter>,
    bytes_written: Arc<metrics::Counter>,
    /// Per-verb request counters, indexed like [`VERBS`].
    requests: [Arc<metrics::Counter>; VERBS.len()],
    bad_requests: Arc<metrics::Counter>,
    /// Events queued but not yet written, summed over all connections.
    outbound_queue_depth: Arc<metrics::Gauge>,
    progress_coalesced: Arc<metrics::Counter>,
    slow_disconnects: Arc<metrics::Counter>,
    idle_timeouts: Arc<metrics::Counter>,
    auth_failures: Arc<metrics::Counter>,
}

/// Verb labels for `marqsim_serve_requests_total`: submit, status, cancel,
/// stats, metrics, auth, drain.
const VERBS: [&str; 7] = [
    "submit", "status", "cancel", "stats", "metrics", "auth", "drain",
];

fn serve_instruments() -> &'static ServeInstruments {
    static INSTRUMENTS: OnceLock<ServeInstruments> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| {
        let registry = metrics::global();
        ServeInstruments {
            connections: registry.counter("marqsim_serve_connections_total"),
            bytes_read: registry.counter("marqsim_serve_bytes_read_total"),
            bytes_written: registry.counter("marqsim_serve_bytes_written_total"),
            requests: VERBS.map(|verb| {
                registry.counter_with("marqsim_serve_requests_total", &[("verb", verb)])
            }),
            bad_requests: registry.counter("marqsim_serve_bad_requests_total"),
            outbound_queue_depth: registry.gauge("marqsim_serve_outbound_queue_depth"),
            progress_coalesced: registry.counter("marqsim_serve_progress_coalesced_total"),
            slow_disconnects: registry.counter("marqsim_serve_slow_disconnects_total"),
            idle_timeouts: registry.counter("marqsim_serve_idle_timeouts_total"),
            auth_failures: registry.counter("marqsim_serve_auth_failures_total"),
        }
    })
}

/// A bound listener plus the engine it serves.
///
/// Construct with [`Server::bind`] (optionally [`with_registry`](Server::with_registry)
/// / [`with_max_in_flight`](Server::with_max_in_flight) /
/// [`with_idle_timeout`](Server::with_idle_timeout)), then either
/// [`run`](Server::run) on the current thread or [`spawn`](Server::spawn) a
/// background event loop and keep the returned [`ServerHandle`] for the
/// address and shutdown.
pub struct Server {
    engine: Arc<Engine>,
    listener: TcpListener,
    registry: Arc<WorkloadRegistry>,
    max_in_flight: usize,
    max_active_jobs: usize,
    idle_timeout: Option<Duration>,
    token: Option<String>,
    /// Jobs holding an engine-wide admission slot (reserved at submit,
    /// released when the job reaches its terminal event). A shared atomic
    /// rather than a read of the engine's gauge, so concurrent submits on
    /// different connections cannot all pass the check at once.
    global_active: Arc<AtomicUsize>,
    shutdown: Arc<AtomicBool>,
    /// The event loop's cross-thread doorbell, created at bind time so a
    /// [`ServerHandle`] can interrupt a parked loop.
    wakeup: Wakeup,
}

impl Server {
    /// Binds to `addr` (e.g. `"127.0.0.1:7878"`, or port `0` to let the OS
    /// pick) and prepares to serve `engine` with the built-in workload
    /// registry and the default admission bound.
    ///
    /// # Errors
    ///
    /// Propagates the bind (or wakeup-channel) failure.
    pub fn bind(addr: &str, engine: Arc<Engine>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            engine,
            listener,
            registry: Arc::new(WorkloadRegistry::builtin()),
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
            max_active_jobs: 0,
            idle_timeout: None,
            token: None,
            global_active: Arc::new(AtomicUsize::new(0)),
            shutdown: Arc::new(AtomicBool::new(false)),
            wakeup: Wakeup::new()?,
        })
    }

    /// Replaces the workload registry (e.g. the built-ins plus custom
    /// kinds).
    pub fn with_registry(mut self, registry: WorkloadRegistry) -> Self {
        self.registry = Arc::new(registry);
        self
    }

    /// Sets the per-connection in-flight job bound (a submit's
    /// `options.max_in_flight` can tighten it per request, never raise it).
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight.max(1);
        self
    }

    /// Sets the engine-wide active-job bound across **all** connections
    /// (`MARQSIM_MAX_ACTIVE_JOBS` on the daemon; `0` = unlimited). A submit
    /// arriving while the engine already has this many unfinished jobs is
    /// rejected with the structured `busy` event before any decoding work;
    /// the per-connection bound can only tighten admission further, never
    /// bypass this one.
    pub fn with_max_active_jobs(mut self, max_active_jobs: usize) -> Self {
        self.max_active_jobs = max_active_jobs;
        self
    }

    /// Requires every connection to present this shared secret via the
    /// `auth` verb before any other verb is accepted
    /// (`MARQSIM_SERVE_TOKEN` on the daemon; the daemon *refuses*
    /// non-loopback binds without one). The `hello` event advertises
    /// `auth:true`; a wrong or missing token gets a structured `error`
    /// and a close.
    pub fn with_token(mut self, token: impl Into<String>) -> Self {
        self.token = Some(token.into());
        self
    }

    /// Reaps connections that send no request bytes for `timeout`
    /// (`MARQSIM_SERVE_IDLE_TIMEOUT_MS` on the daemon; unset = never).
    /// Inbound bytes are the only activity that counts — a half-open
    /// client with jobs still running *is* reaped, and its jobs are
    /// cancelled, exactly like a hang-up. The blocking [`Client`]
    /// (`crate::Client`) sends keepalive `status` polls while waiting on a
    /// long job, so well-behaved waiters survive any reasonable timeout.
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = Some(timeout.max(Duration::from_millis(1)));
        self
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The served engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The workload kinds this server accepts.
    pub fn workload_kinds(&self) -> Vec<String> {
        self.registry.kinds()
    }

    /// Runs the event loop on the calling thread until shut down (via a
    /// [`ServerHandle`] from [`spawn`](Server::spawn); a plain `run` server
    /// loops until the process exits).
    ///
    /// # Errors
    ///
    /// Propagates reactor-level failures (individual connection errors are
    /// contained).
    pub fn run(self) -> std::io::Result<()> {
        let poller = Poller::new()?;
        let listener = Listener::from_std(self.listener)?;
        poller.register(&listener, Token(TOKEN_LISTENER), Interest::READABLE)?;
        poller.register(
            self.wakeup.reader(),
            Token(TOKEN_WAKEUP),
            Interest::READABLE,
        )?;
        let wake = self.wakeup.handle();
        let mut event_loop = EventLoop {
            engine: self.engine,
            registry: self.registry,
            max_in_flight: self.max_in_flight,
            max_active_jobs: self.max_active_jobs,
            idle_timeout: self.idle_timeout,
            token: self.token,
            global_active: self.global_active,
            shutdown: self.shutdown,
            poller,
            listener,
            wakeup: self.wakeup,
            wake,
            notes: Arc::new(Mutex::new(VecDeque::new())),
            conns: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            wheel: DeadlineWheel::new(),
            dirty: Vec::new(),
            read_buf: vec![0u8; 64 * 1024],
        };
        event_loop.run()
    }

    /// Moves the event loop to a background thread and returns a handle
    /// with the bound address and a shutdown switch — the shape the tests
    /// and the in-process smoke binary use.
    ///
    /// # Errors
    ///
    /// Propagates socket introspection failures.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shutdown = Arc::clone(&self.shutdown);
        let engine = Arc::clone(&self.engine);
        let wake = self.wakeup.handle();
        let thread = std::thread::Builder::new()
            .name("marqsim-serve-loop".to_string())
            .spawn(move || {
                if let Err(error) = self.run() {
                    warn!("serve", "event loop failed: {error}");
                }
            })?;
        Ok(ServerHandle {
            addr,
            shutdown,
            engine,
            wake,
            thread: Some(thread),
        })
    }
}

/// Handle to a background server from [`Server::spawn`].
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    engine: Arc<Engine>,
    wake: WakeHandle,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served engine (e.g. for asserting cache stats in tests).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Stops the event loop and joins it. Open connections are closed and
    /// their unfinished jobs cancelled.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.wake.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Identity of one connection across slot reuse: a note addressed to a
/// `(slot, generation)` that no longer matches is stale and dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ConnKey {
    slot: usize,
    gen: u64,
}

/// What engine-side hook threads push for the event loop to deliver.
enum Note {
    Progress {
        conn: ConnKey,
        job: u64,
        completed: usize,
        total: usize,
    },
    /// The job's terminal event, already encoded (the encoding and the
    /// cache-delta attribution happen on the coordinator thread, keeping
    /// the event loop lean).
    Terminal { conn: ConnKey, line: String },
}

/// A held engine-wide admission slot (`None` when no global bound is
/// configured). Dropping it releases the slot, so every path out of
/// `handle_submit` — per-connection rejection, decode failure, or the
/// completion hook's terminal note — frees it exactly once.
struct GlobalSlot(Option<Arc<AtomicUsize>>);

impl Drop for GlobalSlot {
    fn drop(&mut self) {
        if let Some(counter) = self.0.take() {
            counter.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// One queued outbound line (terminator included in `line`).
struct OutLine {
    line: String,
    /// `Some(job)` for progress events — the coalescing key.
    progress_job: Option<u64>,
}

/// Why a connection is being torn down (for the trace span).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CloseReason {
    /// Peer hung up or the socket died.
    Eof,
    /// Unframeable input (oversized line, invalid UTF-8).
    BadInput,
    /// The outbound queue hit its hard cap.
    SlowConsumer,
    /// No inbound bytes within the idle timeout.
    IdleTimeout,
    /// Wrong or missing shared secret on a token-protected server.
    AuthFailed,
    /// Server shutdown.
    Shutdown,
}

impl CloseReason {
    fn as_str(self) -> &'static str {
        match self {
            CloseReason::Eof => "eof",
            CloseReason::BadInput => "bad_input",
            CloseReason::SlowConsumer => "slow_consumer",
            CloseReason::IdleTimeout => "idle_timeout",
            CloseReason::AuthFailed => "auth_failed",
            CloseReason::Shutdown => "shutdown",
        }
    }
}

/// Deadline-wheel payloads: which connection, which kind of timer.
#[derive(Debug, Clone, Copy)]
enum Timer {
    /// Idle-timeout check for a slot.
    Idle(usize),
    /// Force-close for a disconnecting slot that never drained.
    ForceClose(usize),
}

/// Per-connection state machine.
struct Conn {
    stream: Stream,
    gen: u64,
    assembler: LineAssembler,
    /// Encoded events waiting for socket writability; bounded (see
    /// [`OUTBOUND_MAX_EVENTS`] / [`OUTBOUND_MAX_BYTES`]).
    outbound: VecDeque<OutLine>,
    outbound_bytes: usize,
    /// Bytes of the queue head already written (short writes happen under
    /// backpressure).
    write_offset: usize,
    interest: Interest,
    /// Jobs submitted on this connection, for status/cancel resolution.
    jobs: HashMap<u64, JobControl>,
    /// In-flight gauge: incremented at submit, decremented when the job's
    /// terminal note is processed. Event-loop-local, so no atomics.
    in_flight: usize,
    /// Per-connection request/byte counters, reported by the `metrics`
    /// verb. `bytes_in` counts request-line bytes including the line
    /// terminator.
    requests: u64,
    bytes_in: u64,
    bytes_out: u64,
    /// Last instant inbound bytes arrived (what the idle timeout watches).
    last_activity: Instant,
    idle_timer: Option<TimerKey>,
    close_timer: Option<TimerKey>,
    /// Whether the connection may use non-`auth` verbs: true from the
    /// start on an open server, true after a matching `auth` on a
    /// token-protected one.
    authed: bool,
    /// `Some(why)` while a structured disconnect is in progress: input is
    /// ignored, queued events drain, then the socket closes with `why`.
    closing: Option<CloseReason>,
    /// Marks membership in the loop's dirty list (pending flush attempt).
    dirty: bool,
    opened: Instant,
}

/// The reactor state owned by [`Server::run`]'s thread.
struct EventLoop {
    engine: Arc<Engine>,
    registry: Arc<WorkloadRegistry>,
    max_in_flight: usize,
    max_active_jobs: usize,
    idle_timeout: Option<Duration>,
    token: Option<String>,
    global_active: Arc<AtomicUsize>,
    shutdown: Arc<AtomicBool>,
    poller: Poller,
    listener: Listener,
    wakeup: Wakeup,
    wake: WakeHandle,
    /// The engine→loop note queue; hook threads push, the loop drains.
    notes: Arc<Mutex<VecDeque<Note>>>,
    /// Connection slab; token = slot + [`TOKEN_CONN_BASE`].
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
    wheel: DeadlineWheel<Timer>,
    /// Slots with queued outbound data to flush this iteration.
    dirty: Vec<usize>,
    read_buf: Vec<u8>,
}

impl EventLoop {
    fn run(&mut self) -> std::io::Result<()> {
        let mut events: Vec<PollEvent> = Vec::new();
        let mut expired: Vec<(TimerKey, Timer)> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let timeout = self
                .wheel
                .next_deadline()
                .map(|at| at.saturating_duration_since(Instant::now()));
            events.clear();
            self.poller.wait(&mut events, timeout)?;
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            for event in &events {
                match event.token.0 {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKEUP => self.wakeup.drain(),
                    token => {
                        let slot = (token - TOKEN_CONN_BASE) as usize;
                        if event.readable {
                            self.conn_readable(slot);
                        }
                        if event.writable {
                            self.mark_dirty(slot);
                        }
                        if event.closed && !event.readable {
                            // Pure error condition with nothing to read.
                            self.close_conn(slot, CloseReason::Eof);
                        }
                    }
                }
            }
            self.drain_notes();
            expired.clear();
            let now = Instant::now();
            self.wheel.expire(now, &mut expired);
            for (key, timer) in expired.drain(..) {
                self.timer_fired(key, timer, now);
            }
            self.flush_dirty();
        }
        // Shutdown: close every connection (cancelling its jobs).
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.close_conn(slot, CloseReason::Shutdown);
            }
        }
        Ok(())
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok(Some((stream, _peer))) => self.open_conn(stream),
                Ok(None) => break,
                Err(error) => {
                    warn!("serve", "accept failed: {error}");
                    break;
                }
            }
        }
    }

    fn open_conn(&mut self, stream: std::net::TcpStream) {
        let stream = match Stream::from_std(stream) {
            Ok(stream) => stream,
            Err(error) => {
                warn!("serve", "could not prepare connection: {error}");
                return;
            }
        };
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.next_gen += 1;
        let now = Instant::now();
        let mut conn = Conn {
            stream,
            gen: self.next_gen,
            assembler: LineAssembler::new(MAX_LINE_BYTES),
            outbound: VecDeque::new(),
            outbound_bytes: 0,
            write_offset: 0,
            interest: Interest::READABLE,
            jobs: HashMap::new(),
            in_flight: 0,
            requests: 0,
            bytes_in: 0,
            bytes_out: 0,
            last_activity: now,
            idle_timer: None,
            close_timer: None,
            authed: self.token.is_none(),
            closing: None,
            dirty: false,
            opened: now,
        };
        let token = Token(slot as u64 + TOKEN_CONN_BASE);
        if let Err(error) = self.poller.register(&conn.stream, token, conn.interest) {
            // A refused registration drops the stream (the client sees a
            // clean close) but must not take the loop down.
            warn!("serve", "connection registration failed: {error}");
            self.free.push(slot);
            return;
        }
        if let Some(timeout) = self.idle_timeout {
            conn.idle_timer = Some(self.wheel.arm(now + timeout, Timer::Idle(slot)));
        }
        serve_instruments().connections.inc();
        self.conns[slot] = Some(conn);
        let hello = Event::Hello {
            protocol: PROTOCOL_VERSION,
            role: Role::Node,
            nodes: Vec::new(),
            auth: self.token.is_some(),
            threads: self.engine.threads(),
            workloads: self.registry.kinds(),
        };
        self.push_event(slot, &hello, None);
    }

    fn mark_dirty(&mut self, slot: usize) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
            if !conn.dirty {
                conn.dirty = true;
                self.dirty.push(slot);
            }
        }
    }

    /// Drains readable bytes and processes every completed request line.
    fn conn_readable(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if conn.closing.is_some() {
                // Input after a structured disconnect is ignored; the
                // socket only stays registered to drain and close.
                return;
            }
            let status = match conn.stream.read(&mut self.read_buf) {
                Ok(status) => status,
                Err(_) => {
                    // An I/O error is treated like EOF: drop the connection.
                    self.close_conn(slot, CloseReason::Eof);
                    return;
                }
            };
            match status {
                IoStatus::Ready(n) => {
                    conn.last_activity = Instant::now();
                    conn.assembler.push(&self.read_buf[..n]);
                    if !self.process_lines(slot) {
                        return;
                    }
                }
                IoStatus::WouldBlock => return,
                IoStatus::Closed => {
                    self.close_conn(slot, CloseReason::Eof);
                    return;
                }
            }
        }
    }

    /// Pops and handles every complete line; returns `false` when the
    /// connection was closed (framing error).
    fn process_lines(&mut self, slot: usize) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return false;
            };
            if conn.closing.is_some() {
                return true;
            }
            match conn.assembler.next_line() {
                Ok(Some(line)) => self.process_line(slot, &line),
                Ok(None) => return true,
                Err(_) => {
                    // Unframeable input (oversized line / invalid UTF-8):
                    // the stream can no longer be trusted, drop it.
                    self.close_conn(slot, CloseReason::BadInput);
                    return false;
                }
            }
        }
    }

    fn process_line(&mut self, slot: usize, line: &str) {
        let instruments = serve_instruments();
        {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let line_bytes = line.len() as u64 + 1;
            conn.bytes_in += line_bytes;
            instruments.bytes_read.add(line_bytes);
            if line.trim().is_empty() {
                return;
            }
            conn.requests += 1;
        }
        match Request::decode(line) {
            Ok(Request::Auth { token }) => {
                instruments.requests[5].inc();
                self.handle_auth(slot, &token);
            }
            Ok(_) if !self.conn_authed(slot) => {
                // A token-protected server accepts nothing before a
                // matching `auth` — not even `stats`.
                self.auth_reject(slot, "authentication required: send the auth verb first");
            }
            Ok(Request::Submit {
                label,
                kind,
                params,
                options,
            }) => {
                instruments.requests[0].inc();
                self.handle_submit(slot, label, kind, params, options);
            }
            Ok(Request::Status { job }) => {
                instruments.requests[1].inc();
                let event = self.status_event(slot, job);
                self.push_event(slot, &event, None);
            }
            Ok(Request::Cancel { job }) => {
                instruments.requests[2].inc();
                if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                    if let Some(control) = conn.jobs.get(&job) {
                        control.cancel();
                    }
                }
                let event = self.status_event(slot, job);
                self.push_event(slot, &event, None);
            }
            Ok(Request::Stats) => {
                instruments.requests[3].inc();
                let in_flight = self
                    .conns
                    .get(slot)
                    .and_then(Option::as_ref)
                    .map_or(0, |conn| conn.in_flight);
                let event = Event::Stats(ServerStats {
                    threads: self.engine.threads(),
                    cache: self.engine.cache().stats(),
                    active_jobs: self.engine.active_jobs(),
                    queue_depth: self.engine.queue_depth(),
                    in_flight,
                    max_active_jobs: self.max_active_jobs,
                    per_node: Vec::new(),
                });
                self.push_event(slot, &event, None);
            }
            Ok(Request::Metrics) => {
                instruments.requests[4].inc();
                let (requests, bytes_in, bytes_out) = self
                    .conns
                    .get(slot)
                    .and_then(Option::as_ref)
                    .map_or((0, 0, 0), |conn| {
                        (conn.requests, conn.bytes_in, conn.bytes_out)
                    });
                let event = Event::Metrics {
                    exposition: metrics::global().expose(),
                    requests,
                    bytes_in,
                    bytes_out,
                };
                self.push_event(slot, &event, None);
            }
            Ok(Request::Drain { node }) => {
                instruments.requests[6].inc();
                let event = Event::Error {
                    message: format!("cannot drain '{node}': this server is a node, not a router"),
                };
                self.push_event(slot, &event, None);
            }
            Err(error) => {
                instruments.bad_requests.inc();
                let event = Event::Error {
                    message: format!("bad request: {}", error.message),
                };
                self.push_event(slot, &event, None);
            }
        }
    }

    fn status_event(&self, slot: usize, job: u64) -> Event {
        let control = self
            .conns
            .get(slot)
            .and_then(Option::as_ref)
            .and_then(|conn| conn.jobs.get(&job));
        match control {
            Some(control) => {
                let progress = control.progress();
                Event::Status {
                    job,
                    known: true,
                    finished: control.is_finished(),
                    cancelled: control.is_cancelled(),
                    completed: progress.completed,
                    total: progress.total,
                }
            }
            None => Event::Status {
                job,
                known: false,
                finished: false,
                cancelled: false,
                completed: 0,
                total: 0,
            },
        }
    }

    fn conn_authed(&self, slot: usize) -> bool {
        self.conns
            .get(slot)
            .and_then(Option::as_ref)
            .is_some_and(|conn| conn.authed)
    }

    fn handle_auth(&mut self, slot: usize, token: &str) {
        let accepted = match &self.token {
            // An open server accepts (and ignores) any token, so a client
            // configured with one works against both kinds of server.
            None => true,
            Some(expected) => constant_time_eq(expected.as_bytes(), token.as_bytes()),
        };
        if accepted {
            if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                conn.authed = true;
            }
            self.push_event(slot, &Event::AuthOk, None);
        } else {
            self.auth_reject(slot, "authentication failed: bad token");
        }
    }

    /// Sends a structured `error` and starts a graceful close — the
    /// auth-failure twin of the slow-consumer disconnect.
    fn auth_reject(&mut self, slot: usize, message: &str) {
        serve_instruments().auth_failures.inc();
        let event = Event::Error {
            message: message.to_string(),
        };
        self.push_event(slot, &event, None);
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.closing.is_some() {
            return;
        }
        conn.closing = Some(CloseReason::AuthFailed);
        if let Some(key) = conn.idle_timer.take() {
            self.wheel.cancel(key);
        }
        let grace = Instant::now() + CLOSE_GRACE;
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
            conn.close_timer = Some(self.wheel.arm(grace, Timer::ForceClose(slot)));
        }
        self.mark_dirty(slot);
    }

    fn handle_submit(
        &mut self,
        slot: usize,
        label: String,
        kind: String,
        params: crate::wire::Json,
        options: SubmitOptions,
    ) {
        // Admission control, checked before any decoding work. Two bounds,
        // both rejected with the structured `busy` event: the engine-wide
        // active-job cap shared by every connection, then the
        // per-connection in-flight bound (which the request can only
        // *tighten*, never raise — a greedy client must not be able to
        // raise the limit it is being held to).
        //
        // The global slot is *reserved* with a compare-and-swap, not
        // checked against a gauge: N connections submitting at the same
        // instant get at most `max_active_jobs` slots between them. The
        // reservation is held by a drop guard until the job's terminal
        // event.
        let global_slot = if self.max_active_jobs > 0 {
            match self
                .global_active
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |active| {
                    (active < self.max_active_jobs).then_some(active + 1)
                }) {
                Ok(_) => GlobalSlot(Some(Arc::clone(&self.global_active))),
                Err(active) => {
                    let event = Event::Busy {
                        label,
                        in_flight: active,
                        limit: self.max_active_jobs,
                    };
                    self.push_event(slot, &event, None);
                    return;
                }
            }
        } else {
            GlobalSlot(None)
        };
        let limit = options
            .max_in_flight
            .map_or(self.max_in_flight, |requested| {
                requested.min(self.max_in_flight)
            })
            .max(1);
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let currently = conn.in_flight;
        if currently >= limit {
            let event = Event::Busy {
                label,
                in_flight: currently,
                limit,
            };
            self.push_event(slot, &event, None);
            return;
        }

        let workload = match self.registry.decode(&kind, &label, &params) {
            Ok(workload) => workload,
            Err(message) => {
                let event = Event::Error { message };
                self.push_event(slot, &event, None);
                return;
            }
        };

        let key = ConnKey {
            slot,
            gen: conn.gen,
        };
        let stats_before = self.engine.cache().stats();

        // Hooks run on the job's coordinator thread and carry the
        // engine-assigned id, so there is no submit/progress id race to
        // gate: they push a note and ring the loop's doorbell. The loop
        // only drains notes *after* the current request batch, so the wire
        // order is always submitted → progress → done.
        let progress_notes = Arc::clone(&self.notes);
        let progress_wake = self.wake.clone();
        let terminal_notes = Arc::clone(&self.notes);
        let terminal_wake = self.wake.clone();
        let engine = Arc::clone(&self.engine);
        let registry = Arc::clone(&self.registry);
        let control = self.engine.submit_with_hooks(
            workload,
            options,
            move |job, progress| {
                let note = Note::Progress {
                    conn: key,
                    job: job.0,
                    completed: progress.completed,
                    total: progress.total,
                };
                {
                    let _witness = lockcheck::acquire("serve.server.notes");
                    let mut queue = progress_notes
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    queue.push_back(note);
                }
                progress_wake.wake();
            },
            move |job, outcome| {
                // Terminal path, still on the coordinator thread: attribute
                // the cache-counter delta to this job, free the engine-wide
                // admission slot (so a client that saw `done` can
                // immediately resubmit), and encode the terminal event.
                let cache_delta = engine.cache().stats().delta_since(&stats_before);
                drop(global_slot);
                let event = match outcome {
                    Ok(output) => match registry.encode(&kind, &output) {
                        Ok(value) => Event::Done {
                            job: job.0,
                            outcome: crate::protocol::Outcome::Other { kind, value },
                            cache_delta,
                            node: None,
                        },
                        Err(message) => Event::Failed {
                            job: job.0,
                            kind: "encode".to_string(),
                            message,
                            node: None,
                        },
                    },
                    Err(error) => Event::Failed {
                        job: job.0,
                        kind: failure_kind(&error).to_string(),
                        message: error.to_string(),
                        node: None,
                    },
                };
                let note = Note::Terminal {
                    conn: key,
                    line: encode_line(&event),
                };
                {
                    let _witness = lockcheck::acquire("serve.server.notes");
                    let mut queue = terminal_notes
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    queue.push_back(note);
                }
                terminal_wake.wake();
            },
        );

        let job_id = control.id().0;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        conn.in_flight += 1;
        if conn.jobs.len() >= MAX_TRACKED_JOBS {
            conn.jobs.retain(|_, control| !control.is_finished());
        }
        conn.jobs.insert(job_id, control);
        let event = Event::Submitted {
            job: job_id,
            label,
            node: None,
        };
        self.push_event(slot, &event, None);
    }

    /// Delivers queued engine notes to their connections.
    fn drain_notes(&mut self) {
        let drained: Vec<Note> = {
            let _witness = lockcheck::acquire("serve.server.notes");
            let mut queue = self.notes.lock().unwrap_or_else(PoisonError::into_inner);
            queue.drain(..).collect()
        };
        for note in drained {
            match note {
                Note::Progress {
                    conn: key,
                    job,
                    completed,
                    total,
                } => {
                    if !self.conn_matches(key) {
                        continue;
                    }
                    let event = Event::Progress {
                        job,
                        completed,
                        total,
                        node: None,
                    };
                    self.push_event(key.slot, &event, Some(job));
                }
                Note::Terminal { conn: key, line } => {
                    if !self.conn_matches(key) {
                        continue;
                    }
                    if let Some(conn) = self.conns.get_mut(key.slot).and_then(Option::as_mut) {
                        conn.in_flight = conn.in_flight.saturating_sub(1);
                    }
                    self.push_line(key.slot, line, None);
                }
            }
        }
    }

    fn conn_matches(&self, key: ConnKey) -> bool {
        self.conns
            .get(key.slot)
            .and_then(Option::as_ref)
            .is_some_and(|conn| conn.gen == key.gen)
    }

    fn push_event(&mut self, slot: usize, event: &Event, progress_job: Option<u64>) {
        self.push_line(slot, encode_line(event), progress_job);
    }

    /// Queues one encoded line (terminator included) for write, enforcing
    /// the backpressure policy.
    fn push_line(&mut self, slot: usize, line: String, progress_job: Option<u64>) {
        let instruments = serve_instruments();
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.closing.is_some() {
            return;
        }
        // Progress coalescing above the soft threshold: replace the
        // youngest queued progress event of the same job instead of
        // growing the queue — a slow reader still learns the latest
        // progress, just not every step.
        if let Some(job) = progress_job {
            if conn.outbound.len() >= OUTBOUND_COALESCE_EVENTS {
                if let Some(back) = conn
                    .outbound
                    .back_mut()
                    .filter(|back| back.progress_job == Some(job))
                {
                    conn.outbound_bytes -= back.line.len();
                    conn.outbound_bytes += line.len();
                    back.line = line;
                    instruments.progress_coalesced.inc();
                    self.mark_dirty(slot);
                    return;
                }
            }
        }
        if conn.outbound.len() >= OUTBOUND_MAX_EVENTS
            || conn.outbound_bytes + line.len() > OUTBOUND_MAX_BYTES
        {
            self.slow_consumer_disconnect(slot);
            return;
        }
        conn.outbound_bytes += line.len();
        conn.outbound.push_back(OutLine { line, progress_job });
        instruments.outbound_queue_depth.add(1);
        self.mark_dirty(slot);
    }

    /// Structured disconnect for a consumer that cannot keep up: queued
    /// events are dropped (keeping a partially written head, which must
    /// finish to preserve framing), a terminal `error` event is queued,
    /// jobs are cancelled, input is ignored, and the socket closes once
    /// the error drains — or when the grace timer fires.
    fn slow_consumer_disconnect(&mut self, slot: usize) {
        let instruments = serve_instruments();
        instruments.slow_disconnects.inc();
        let error_line = encode_line(&Event::Error {
            message: format!(
                "disconnected: outbound queue overflow (slow consumer, limit {OUTBOUND_MAX_EVENTS} \
                 events / {OUTBOUND_MAX_BYTES} bytes)"
            ),
        });
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        for control in conn.jobs.values() {
            if !control.is_finished() {
                control.cancel();
            }
        }
        let keep_head = usize::from(conn.write_offset > 0);
        let dropped = conn.outbound.len().saturating_sub(keep_head);
        conn.outbound.truncate(keep_head);
        conn.outbound_bytes = conn.outbound.iter().map(|l| l.line.len()).sum();
        conn.outbound_bytes += error_line.len();
        conn.outbound.push_back(OutLine {
            line: error_line,
            progress_job: None,
        });
        instruments.outbound_queue_depth.sub(dropped as i64 - 1);
        conn.closing = Some(CloseReason::SlowConsumer);
        if let Some(key) = conn.idle_timer.take() {
            self.wheel.cancel(key);
        }
        let grace = Instant::now() + CLOSE_GRACE;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        conn.close_timer = Some(self.wheel.arm(grace, Timer::ForceClose(slot)));
        self.mark_dirty(slot);
    }

    fn timer_fired(&mut self, key: TimerKey, timer: Timer, now: Instant) {
        match timer {
            Timer::Idle(slot) => {
                let Some(timeout) = self.idle_timeout else {
                    return;
                };
                let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                    return;
                };
                if conn.idle_timer != Some(key) || conn.closing.is_some() {
                    return;
                }
                let deadline = conn.last_activity + timeout;
                if now < deadline {
                    // Activity since arming: push the deadline out.
                    conn.idle_timer = Some(self.wheel.arm(deadline, Timer::Idle(slot)));
                    return;
                }
                serve_instruments().idle_timeouts.inc();
                conn.idle_timer = None;
                // Reap: cancel whatever the silent client left running,
                // tell it why (best effort), drain, close.
                for control in conn.jobs.values() {
                    if !control.is_finished() {
                        control.cancel();
                    }
                }
                let message = format!(
                    "disconnected: no request for {} ms (idle timeout)",
                    timeout.as_millis()
                );
                self.push_event(slot, &Event::Error { message }, None);
                let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                    return;
                };
                conn.closing = Some(CloseReason::IdleTimeout);
                conn.close_timer = Some(self.wheel.arm(now + CLOSE_GRACE, Timer::ForceClose(slot)));
                self.mark_dirty(slot);
            }
            Timer::ForceClose(slot) => {
                let matches = self
                    .conns
                    .get(slot)
                    .and_then(Option::as_ref)
                    .is_some_and(|conn| conn.close_timer == Some(key));
                if matches {
                    let reason = self.conns[slot]
                        .as_ref()
                        .and_then(|c| c.closing)
                        .unwrap_or(CloseReason::Eof);
                    self.close_conn(slot, reason);
                }
            }
        }
    }

    /// Attempts to flush every dirty connection's outbound queue, then
    /// fixes up poller interest (writable only while data is queued).
    fn flush_dirty(&mut self) {
        let slots: Vec<usize> = self.dirty.drain(..).collect();
        for slot in slots {
            if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                conn.dirty = false;
            } else {
                continue;
            }
            self.flush_conn(slot);
        }
    }

    fn flush_conn(&mut self, slot: usize) {
        let instruments = serve_instruments();
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let Some(front) = conn.outbound.front() else {
                // Drained. A closing connection is done for good.
                if let Some(reason) = conn.closing {
                    self.close_conn(slot, reason);
                    return;
                }
                self.update_interest(slot, false);
                return;
            };
            let bytes = front.line.as_bytes();
            let offset = conn.write_offset;
            match conn.stream.write(&bytes[offset..]) {
                Ok(IoStatus::Ready(n)) => {
                    conn.write_offset += n;
                    if conn.write_offset == bytes.len() {
                        conn.write_offset = 0;
                        if let Some(line) = conn.outbound.pop_front() {
                            conn.outbound_bytes -= line.line.len();
                            conn.bytes_out += line.line.len() as u64;
                            instruments.bytes_written.add(line.line.len() as u64);
                            instruments.outbound_queue_depth.sub(1);
                        }
                    }
                }
                Ok(IoStatus::WouldBlock) => {
                    self.update_interest(slot, true);
                    return;
                }
                Ok(IoStatus::Closed) | Err(_) => {
                    self.close_conn(slot, CloseReason::Eof);
                    return;
                }
            }
        }
    }

    /// Reconciles the poller registration with what the connection needs
    /// now: readable unless closing, writable only while data is queued.
    fn update_interest(&mut self, slot: usize, writable: bool) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let desired = Interest {
            readable: conn.closing.is_none(),
            writable,
        };
        if desired == conn.interest {
            return;
        }
        let token = Token(slot as u64 + TOKEN_CONN_BASE);
        if self.poller.reregister(&conn.stream, token, desired).is_ok() {
            conn.interest = desired;
        }
    }

    /// Tears one connection down: cancels its unfinished jobs, releases
    /// its timers and registration, emits the connection-lifetime trace
    /// span, and frees the slot.
    fn close_conn(&mut self, slot: usize, reason: CloseReason) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        // Client is gone (or being evicted): cancel whatever it left
        // running so an interrupted sweep stops consuming the pool.
        for control in conn.jobs.values() {
            if !control.is_finished() {
                control.cancel();
            }
        }
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        if let Some(key) = conn.idle_timer {
            self.wheel.cancel(key);
        }
        if let Some(key) = conn.close_timer {
            self.wheel.cancel(key);
        }
        self.poller.deregister(&conn.stream);
        serve_instruments()
            .outbound_queue_depth
            .sub(conn.outbound.len() as i64);
        let dur_us = conn.opened.elapsed().as_micros() as u64;
        trace::emit_interval(
            "conn",
            None,
            conn.opened,
            dur_us,
            &[
                ("reason", reason.as_str().to_string()),
                ("requests", conn.requests.to_string()),
                ("bytes_in", conn.bytes_in.to_string()),
                ("bytes_out", conn.bytes_out.to_string()),
            ],
        );
        self.free.push(slot);
    }
}

/// Compares two byte strings without early exit, so a token mismatch
/// leaks no position information through response timing.
pub(crate) fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().min(b.len()) {
        diff |= usize::from(a[i] ^ b[i]);
    }
    diff == 0
}

/// Encodes one event as its wire line, terminator included.
pub(crate) fn encode_line(event: &Event) -> String {
    let mut line = event.encode();
    line.push('\n');
    line
}
