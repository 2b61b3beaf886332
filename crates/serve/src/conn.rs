//! The connection core both serve roles run on.
//!
//! A node [`Server`](crate::Server) and a [`Router`](crate::Router) speak
//! the same line-delimited protocol to their clients, so everything about
//! a client connection except its verbs lives here, once:
//!
//! * [`LineIo`] — one nonblocking socket: bounded line reassembly in, a
//!   byte-counted outbound queue out (short writes resume at an offset,
//!   progress lines of one job coalesce past a soft threshold, hard caps
//!   in lines and bytes), and lazy poller interest. The router's upstream
//!   node connections use it too.
//! * [`Conns`] — the set of accepted connections: a slab with generation
//!   keys, the dirty list, the idle and close-grace timers, the auth gate,
//!   the `metrics` verb, the `conn` trace span, and every
//!   `marqsim_serve_*` instrument. Each connection moves through one
//!   [`Phase`]: `AwaitAuth → Ready → Closing(reason)`.
//! * [`run`] — the event loop. A role plugs in through [`Handler`]: its
//!   verbs, per-connection state, and whatever else it multiplexes (the
//!   node's engine notes, the router's upstream sockets and probes).
//!
//! See `docs/net.md` for the lifecycle and the backpressure policy.

use std::collections::VecDeque;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use marqsim_net::{
    DeadlineWheel, FramingError, Interest, IoStatus, LineAssembler, Listener, PollEvent, Poller,
    Stream, TimerKey, Token, WakeHandle, Wakeup,
};
use marqsim_obs::{metrics, trace, warn};

use crate::protocol::{Event, Request};

/// Maximum accepted request-line length (bytes, terminator included).
/// Bounds per-connection memory against hostile input; a sweep submit is a
/// few hundred bytes, and even thousand-term Hamiltonians stay far below
/// this.
const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// Soft outbound threshold (lines): from here on, a progress line for the
/// same job as the trailing queued one replaces it instead of queueing — a
/// slow reader still learns the latest progress, just not every step.
const OUTBOUND_COALESCE_LINES: usize = 64;

/// Hard outbound cap in lines; exceeding it is a slow-consumer disconnect.
pub(crate) const OUTBOUND_MAX_LINES: usize = 8192;

/// Hard outbound cap in bytes; exceeding it is a slow-consumer disconnect.
/// Generous enough for any single result payload (a 500-string perturb
/// matrix is ~6 MB) — the cap is about *accumulation*, not one large line.
const OUTBOUND_MAX_BYTES: usize = 64 * 1024 * 1024;

/// How long a closing connection may take to drain its final event before
/// the socket is closed regardless.
const CLOSE_GRACE: Duration = Duration::from_secs(5);

/// Bytes taken from a socket per read.
const READ_CHUNK: usize = 64 * 1024;

/// Reads taken from one connection per readiness event. A flooding peer
/// is read a few chunks at a time, so the loop gets back to its other
/// sockets (a router's node links above all) instead of draining the
/// flood first; the poller is level-triggered, so the unread rest is
/// reported again on the next wait.
const READS_PER_EVENT: usize = 4;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKEUP: u64 = 1;
/// Socket tokens interleave: accepted slot `s` → `BASE + 2s`, upstream
/// connection `n` → `BASE + 2n + 1`.
const TOKEN_CONN_BASE: u64 = 2;

fn conn_token(slot: usize) -> Token {
    Token(slot as u64 * 2 + TOKEN_CONN_BASE)
}

/// The poller token of a role's upstream connection `index`.
pub(crate) fn upstream_token(index: usize) -> Token {
    Token(index as u64 * 2 + 1 + TOKEN_CONN_BASE)
}

/// Process-wide serve instruments in the global [`metrics`] registry,
/// resolved once and counted by both roles. Request counters are labelled
/// by verb so the exposition separates cheap `status` polls from `submit`
/// work.
struct ServeInstruments {
    connections: Arc<metrics::Counter>,
    bytes_read: Arc<metrics::Counter>,
    bytes_written: Arc<metrics::Counter>,
    /// Per-verb request counters, indexed like [`VERBS`].
    requests: [Arc<metrics::Counter>; VERBS.len()],
    bad_requests: Arc<metrics::Counter>,
    /// Lines queued but not yet written, summed over all connections.
    outbound_queue_depth: Arc<metrics::Gauge>,
    progress_coalesced: Arc<metrics::Counter>,
    slow_disconnects: Arc<metrics::Counter>,
    idle_timeouts: Arc<metrics::Counter>,
    auth_failures: Arc<metrics::Counter>,
}

/// Verb labels for `marqsim_serve_requests_total`, in `verb_index` order.
const VERBS: [&str; 7] = [
    "submit", "status", "cancel", "stats", "metrics", "auth", "drain",
];

fn verb_index(request: &Request) -> usize {
    match request {
        Request::Submit { .. } => 0,
        Request::Status { .. } => 1,
        Request::Cancel { .. } => 2,
        Request::Stats => 3,
        Request::Metrics => 4,
        Request::Auth { .. } => 5,
        Request::Drain { .. } => 6,
    }
}

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

/// Compares two byte strings without early exit, so a token mismatch
/// leaks no position information through response timing.
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().min(b.len()) {
        diff |= usize::from(a[i] ^ b[i]);
    }
    diff == 0
}

/// A `status` answer with no progress to report (`known=false` for a job
/// the connection does not own).
pub(crate) fn bare_status(job: u64, known: bool, cancelled: bool) -> Event {
    Event::Status {
        job,
        known,
        finished: false,
        cancelled,
        completed: 0,
        total: 0,
    }
}

/// Encodes one event as its wire line, terminator included.
pub(crate) fn encode_line(event: &Event) -> String {
    let mut line = event.encode();
    line.push('\n');
    line
}

// -- one socket ---------------------------------------------------------------

/// One queued outbound line (terminator included in `line`).
struct OutLine {
    line: String,
    /// The coalescing key (a job id) of a progress line.
    coalesce: Option<u64>,
}

/// What [`LineIo::push`] did with a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Push {
    Queued,
    /// Replaced the trailing progress line of the same job.
    Coalesced,
    /// Over a hard cap; the line was not queued.
    Overflow,
}

/// One nonblocking line-delimited socket: inbound reassembly plus a
/// bounded outbound queue.
pub(crate) struct LineIo {
    stream: Stream,
    assembler: LineAssembler,
    outbound: VecDeque<OutLine>,
    outbound_bytes: usize,
    /// Bytes of the queue head already written (short writes happen under
    /// backpressure).
    write_offset: usize,
    interest: Interest,
}

impl LineIo {
    /// Registers `stream` with `poller` under `token` and wraps it; an
    /// inbound line longer than `max_line` bytes is a framing error.
    pub(crate) fn register(
        stream: Stream,
        max_line: usize,
        poller: &Poller,
        token: Token,
        interest: Interest,
    ) -> io::Result<LineIo> {
        poller.register(&stream, token, interest)?;
        Ok(LineIo {
            stream,
            assembler: LineAssembler::new(max_line),
            outbound: VecDeque::new(),
            outbound_bytes: 0,
            write_offset: 0,
            interest,
        })
    }

    pub(crate) fn stream(&self) -> &Stream {
        &self.stream
    }

    /// Reads once; the bytes feed the line assembler when `keep` is set
    /// and are dropped otherwise.
    pub(crate) fn fill(&mut self, keep: bool) -> io::Result<IoStatus> {
        let mut chunk = [0u8; READ_CHUNK];
        let status = self.stream.read(&mut chunk)?;
        if let (IoStatus::Ready(n), true) = (status, keep) {
            self.assembler.push(&chunk[..n]);
        }
        Ok(status)
    }

    /// The next complete inbound line, terminator stripped.
    pub(crate) fn next_line(&mut self) -> Result<Option<String>, FramingError> {
        self.assembler.next_line()
    }

    /// Queues one line (terminator included) under the backpressure
    /// policy. `coalesce` marks a progress line with its job id.
    pub(crate) fn push(&mut self, line: String, coalesce: Option<u64>) -> Push {
        if coalesce.is_some() && self.outbound.len() >= OUTBOUND_COALESCE_LINES {
            // Past the soft threshold the tail is never the (possibly
            // partially written) head, so replacing it keeps framing.
            if let Some(back) = self
                .outbound
                .back_mut()
                .filter(|back| back.coalesce == coalesce)
            {
                self.outbound_bytes = self.outbound_bytes - back.line.len() + line.len();
                back.line = line;
                return Push::Coalesced;
            }
        }
        if self.outbound.len() >= OUTBOUND_MAX_LINES
            || self.outbound_bytes + line.len() > OUTBOUND_MAX_BYTES
        {
            return Push::Overflow;
        }
        self.push_uncapped(line, coalesce);
        Push::Queued
    }

    /// Queues one line past the hard caps, for a sender that bounds its
    /// own traffic.
    pub(crate) fn push_uncapped(&mut self, line: String, coalesce: Option<u64>) {
        self.outbound_bytes += line.len();
        self.outbound.push_back(OutLine { line, coalesce });
    }

    /// Drops every queued line but a partially written head (which must
    /// finish to keep framing) and queues `last`; returns how many lines
    /// were dropped.
    fn replace_queue(&mut self, last: String) -> usize {
        let keep = usize::from(self.write_offset > 0);
        let dropped = self.outbound.len().saturating_sub(keep);
        self.outbound.truncate(keep);
        self.outbound_bytes = self
            .outbound
            .iter()
            .map(|out| out.line.len())
            .sum::<usize>();
        self.outbound_bytes += last.len();
        self.outbound.push_back(OutLine {
            line: last,
            coalesce: None,
        });
        dropped
    }

    /// Writes queued lines in order, one `write` per line, until the queue
    /// drains or the socket would block; `false` once the socket failed or
    /// the peer is gone.
    pub(crate) fn flush(&mut self) -> bool {
        while let Some(front) = self.outbound.front() {
            let len = front.line.len();
            match self
                .stream
                .write(&front.line.as_bytes()[self.write_offset..])
            {
                Ok(IoStatus::Ready(n)) => {
                    self.write_offset += n;
                    if self.write_offset == len {
                        self.write_offset = 0;
                        self.outbound_bytes -= len;
                        self.outbound.pop_front();
                    }
                }
                Ok(IoStatus::WouldBlock) => break,
                Ok(IoStatus::Closed) | Err(_) => return false,
            }
        }
        true
    }

    /// Subscribes to what the socket needs now — `readable` as asked,
    /// writable exactly while lines are queued — with one `reregister` per
    /// change.
    pub(crate) fn sync_interest(&mut self, poller: &Poller, token: Token, readable: bool) {
        let writable = !self.outbound.is_empty();
        let desired = Interest { readable, writable };
        if desired != self.interest && poller.reregister(&self.stream, token, desired).is_ok() {
            self.interest = desired;
        }
    }
}

// -- the accepted-connection set ----------------------------------------------

/// Identity of one accepted connection across slot reuse: anything
/// addressed to a `(slot, generation)` that no longer matches is stale and
/// dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConnKey {
    slot: usize,
    gen: u64,
}

/// Why a connection was torn down (the `conn` span's `reason`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CloseReason {
    /// Peer hung up or the socket died.
    Eof,
    /// Unframeable input (oversized line, invalid UTF-8).
    BadInput,
    /// The outbound queue hit a hard cap.
    SlowConsumer,
    /// No inbound bytes within the idle timeout.
    IdleTimeout,
    /// Wrong or missing shared secret on a token-protected endpoint.
    AuthFailed,
    /// The event loop stopped.
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

/// Where a connection is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Token-protected endpoint, no matching `auth` yet: any other verb is
    /// rejected and closes the connection.
    AwaitAuth,
    /// Every verb is served.
    Ready,
    /// A structured disconnect: the role has already cancelled the
    /// connection's jobs, input is read and dropped, and the queue drains.
    /// Drained, the write side shuts (the peer reads the final event, then
    /// EOF) and the socket closes once the peer hangs up — closing with
    /// unread input would reset the connection and lose that event — or at
    /// the grace timer. A connection that closes keeps the reason it
    /// started closing with.
    Closing(CloseReason),
}

/// Deadline-wheel payloads of an event loop.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Timer {
    /// Idle-timeout check for an accepted slot.
    Idle(usize),
    /// Force-close for a closing slot whose peer never finished (the
    /// close-grace timer).
    ForceClose(usize),
    /// A role's own deadline for its upstream connection `n`.
    Upstream(usize),
}

/// One accepted connection.
struct Conn<T> {
    io: LineIo,
    gen: u64,
    phase: Phase,
    /// Request lines decoded and request/response bytes (terminators
    /// included), reported by the `metrics` verb and the `conn` span.
    requests: u64,
    bytes_in: u64,
    bytes_out: u64,
    /// Last instant inbound bytes arrived (what the idle timeout watches).
    last_activity: Instant,
    idle_timer: Option<TimerKey>,
    close_timer: Option<TimerKey>,
    /// The peer hung up its side while this connection was closing.
    read_eof: bool,
    /// Marks membership in the dirty list (pending flush attempt).
    dirty: bool,
    opened: Instant,
    /// The role's per-connection state.
    state: T,
}

impl<T> Conn<T> {
    fn key(&self, slot: usize) -> ConnKey {
        ConnKey {
            slot,
            gen: self.gen,
        }
    }

    fn closing(&self) -> bool {
        matches!(self.phase, Phase::Closing(_))
    }
}

fn at<T>(slots: &mut [Option<Conn<T>>], slot: usize) -> Option<&mut Conn<T>> {
    slots.get_mut(slot).and_then(Option::as_mut)
}

/// A bound listener plus the settings its connections share, before the
/// event loop starts.
pub(crate) struct Endpoint {
    listener: TcpListener,
    /// The shared secret every connection must present (`auth` verb).
    pub(crate) secret: Option<String>,
    idle_timeout: Option<Duration>,
    shutdown: Arc<AtomicBool>,
    /// The event loop's cross-thread doorbell, created at bind time so a
    /// handle can interrupt a parked loop.
    wakeup: Wakeup,
}

impl Endpoint {
    pub(crate) fn bind(addr: &str) -> io::Result<Endpoint> {
        Ok(Endpoint {
            listener: TcpListener::bind(addr)?,
            secret: None,
            idle_timeout: None,
            shutdown: Arc::new(AtomicBool::new(false)),
            wakeup: Wakeup::new()?,
        })
    }

    pub(crate) fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub(crate) fn set_idle_timeout(&mut self, timeout: Duration) {
        self.idle_timeout = Some(timeout.max(Duration::from_millis(1)));
    }

    /// A handle to this endpoint's future loop; attach the loop with
    /// [`LoopHandle::start`].
    pub(crate) fn handle(&self) -> io::Result<LoopHandle> {
        Ok(LoopHandle {
            addr: self.local_addr()?,
            shutdown: Arc::clone(&self.shutdown),
            wake: self.wakeup.handle(),
            thread: None,
        })
    }

    /// Starts the connection set of the loop that serves this endpoint;
    /// `target` is the role's log target.
    pub(crate) fn into_conns<T>(self, target: &'static str) -> io::Result<Conns<T>> {
        let poller = Poller::new()?;
        let listener = Listener::from_std(self.listener)?;
        poller.register(&listener, Token(TOKEN_LISTENER), Interest::READABLE)?;
        poller.register(
            self.wakeup.reader(),
            Token(TOKEN_WAKEUP),
            Interest::READABLE,
        )?;
        Ok(Conns {
            poller,
            wheel: DeadlineWheel::new(),
            listener,
            wakeup: self.wakeup,
            shutdown: self.shutdown,
            secret: self.secret,
            idle_timeout: self.idle_timeout,
            target,
            slots: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            dirty: Vec::new(),
            closed: Vec::new(),
        })
    }
}

/// The address and shutdown switch of an event loop on its own thread.
pub(crate) struct LoopHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    wake: WakeHandle,
    thread: Option<JoinHandle<()>>,
}

impl LoopHandle {
    /// Runs `event_loop` on a thread called `name`.
    pub(crate) fn start(
        mut self,
        name: &str,
        target: &'static str,
        event_loop: impl FnOnce() -> io::Result<()> + Send + 'static,
    ) -> io::Result<LoopHandle> {
        self.thread = Some(std::thread::Builder::new().name(name.to_string()).spawn(
            move || {
                if let Err(error) = event_loop() {
                    warn!(target, "event loop failed: {error}");
                }
            },
        )?);
        Ok(self)
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the loop and joins its thread.
    pub(crate) fn stop(mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.wake.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The accepted connections of one event loop, plus the reactor they share
/// with the role (poller, deadline wheel, listener, doorbell).
pub(crate) struct Conns<T> {
    pub(crate) poller: Poller,
    pub(crate) wheel: DeadlineWheel<Timer>,
    listener: Listener,
    wakeup: Wakeup,
    shutdown: Arc<AtomicBool>,
    secret: Option<String>,
    idle_timeout: Option<Duration>,
    target: &'static str,
    slots: Vec<Option<Conn<T>>>,
    free: Vec<usize>,
    next_gen: u64,
    /// Slots with queued outbound data to flush this iteration.
    dirty: Vec<usize>,
    /// Connections that started closing since the loop last told the role,
    /// with their role state.
    closed: Vec<(ConnKey, T)>,
}

impl<T: Default> Conns<T> {
    /// Whether clients must present the shared secret first (the `hello`
    /// event's `auth` flag).
    pub(crate) fn requires_auth(&self) -> bool {
        self.secret.is_some()
    }

    pub(crate) fn wake_handle(&self) -> WakeHandle {
        self.wakeup.handle()
    }

    /// The role state of a live connection.
    pub(crate) fn state(&self, key: ConnKey) -> Option<&T> {
        let conn = self.slots.get(key.slot)?.as_ref()?;
        (conn.gen == key.gen).then_some(&conn.state)
    }

    pub(crate) fn state_mut(&mut self, key: ConnKey) -> Option<&mut T> {
        at(&mut self.slots, key.slot)
            .filter(|conn| conn.gen == key.gen)
            .map(|conn| &mut conn.state)
    }

    /// Queues one event for a connection; stale keys and closing
    /// connections drop it.
    pub(crate) fn push(&mut self, key: ConnKey, event: &Event) {
        self.push_line(key, encode_line(event), None);
    }

    /// Queues one encoded line (terminator included); `coalesce` marks a
    /// progress line with its job id. A line over the hard caps turns the
    /// connection into a slow consumer.
    pub(crate) fn push_line(&mut self, key: ConnKey, line: String, coalesce: Option<u64>) {
        let Some(conn) =
            at(&mut self.slots, key.slot).filter(|conn| conn.gen == key.gen && !conn.closing())
        else {
            return;
        };
        let instruments = serve_instruments();
        match conn.io.push(line, coalesce) {
            Push::Queued => instruments.outbound_queue_depth.add(1),
            Push::Coalesced => instruments.progress_coalesced.inc(),
            Push::Overflow => return self.slow_consumer(key),
        }
        self.mark_dirty(key.slot);
    }

    /// Disconnects a connection whose traffic outran its reader (its own
    /// outbound queue, or a router's node link it was filling): everything
    /// queued is dropped for one terminal error naming the limits.
    pub(crate) fn slow_consumer(&mut self, key: ConnKey) {
        let Some(conn) =
            at(&mut self.slots, key.slot).filter(|conn| conn.gen == key.gen && !conn.closing())
        else {
            return;
        };
        let instruments = serve_instruments();
        instruments.slow_disconnects.inc();
        let dropped = conn.io.replace_queue(encode_line(&Event::Error {
            message: format!(
                "disconnected: outbound queue overflow (slow consumer, limit \
                 {OUTBOUND_MAX_LINES} events / {OUTBOUND_MAX_BYTES} bytes)"
            ),
        }));
        instruments.outbound_queue_depth.sub(dropped as i64 - 1);
        self.begin_close(key.slot, CloseReason::SlowConsumer);
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn mark_dirty(&mut self, slot: usize) {
        if let Some(conn) = at(&mut self.slots, slot) {
            if !conn.dirty {
                conn.dirty = true;
                self.dirty.push(slot);
            }
        }
    }

    /// Takes in one accepted socket and greets it with `hello`.
    fn open(&mut self, stream: TcpStream, hello: String) {
        let stream = match Stream::from_std(stream) {
            Ok(stream) => stream,
            Err(error) => {
                warn!(self.target, "could not prepare connection: {error}");
                return;
            }
        };
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        let io = match LineIo::register(
            stream,
            MAX_LINE_BYTES,
            &self.poller,
            conn_token(slot),
            Interest::READABLE,
        ) {
            Ok(io) => io,
            Err(error) => {
                // A refused registration drops the stream (the client sees
                // a clean close) but must not take the loop down.
                warn!(self.target, "connection registration failed: {error}");
                self.free.push(slot);
                return;
            }
        };
        self.next_gen += 1;
        let now = Instant::now();
        let idle_timer = self
            .idle_timeout
            .map(|timeout| self.wheel.arm(now + timeout, Timer::Idle(slot)));
        let conn = Conn {
            io,
            gen: self.next_gen,
            phase: if self.secret.is_some() {
                Phase::AwaitAuth
            } else {
                Phase::Ready
            },
            requests: 0,
            bytes_in: 0,
            bytes_out: 0,
            last_activity: now,
            idle_timer,
            close_timer: None,
            read_eof: false,
            dirty: false,
            opened: now,
            state: T::default(),
        };
        let key = conn.key(slot);
        self.slots[slot] = Some(conn);
        serve_instruments().connections.inc();
        self.push_line(key, hello, None);
    }

    /// Reads once from a readable connection; `true` means bytes arrived
    /// and there may be more.
    fn fill(&mut self, slot: usize) -> bool {
        let Some(conn) = at(&mut self.slots, slot).filter(|conn| !conn.read_eof) else {
            return false;
        };
        let closing = conn.closing();
        match conn.io.fill(!closing) {
            Ok(IoStatus::Ready(_)) => {
                conn.last_activity = Instant::now();
                true
            }
            Ok(IoStatus::WouldBlock) => false,
            Ok(IoStatus::Closed) if closing => {
                conn.read_eof = true;
                self.mark_dirty(slot);
                false
            }
            Ok(IoStatus::Closed) | Err(_) => {
                self.close(slot, CloseReason::Eof);
                false
            }
        }
    }

    /// Pops request lines until one is for the role: the core counts bytes
    /// and verbs, skips blank lines, and answers `auth`, `metrics`, the
    /// auth gate and undecodable lines itself.
    fn next_request(&mut self, slot: usize) -> Option<(ConnKey, Request)> {
        let instruments = serve_instruments();
        loop {
            let conn = at(&mut self.slots, slot).filter(|conn| !conn.closing())?;
            let line = match conn.io.next_line() {
                Ok(line) => line?,
                Err(_) => {
                    // Unframeable input (oversized line / invalid UTF-8):
                    // the stream can no longer be trusted.
                    self.close(slot, CloseReason::BadInput);
                    return None;
                }
            };
            let line_bytes = line.len() as u64 + 1;
            conn.bytes_in += line_bytes;
            instruments.bytes_read.add(line_bytes);
            if line.trim().is_empty() {
                continue;
            }
            conn.requests += 1;
            let key = conn.key(slot);
            let (requests, bytes_in, bytes_out) = (conn.requests, conn.bytes_in, conn.bytes_out);
            let request = match Request::decode(&line) {
                Ok(request) => request,
                Err(error) => {
                    instruments.bad_requests.inc();
                    let message = format!("bad request: {}", error.message);
                    self.push(key, &Event::Error { message });
                    continue;
                }
            };
            // A token-protected endpoint accepts nothing before a matching
            // `auth` — not even `stats`.
            if conn.phase == Phase::AwaitAuth && !matches!(request, Request::Auth { .. }) {
                self.reject_auth(key, "authentication required: send the auth verb first");
                continue;
            }
            instruments.requests[verb_index(&request)].inc();
            match request {
                Request::Auth { token } => self.auth(key, &token),
                Request::Metrics => {
                    let event = Event::Metrics {
                        exposition: metrics::global().expose(),
                        requests,
                        bytes_in,
                        bytes_out,
                    };
                    self.push(key, &event);
                }
                request => return Some((key, request)),
            }
        }
    }

    fn auth(&mut self, key: ConnKey, token: &str) {
        // An open endpoint accepts (and ignores) any token, so a client
        // configured with one works against both kinds of endpoint.
        let accepted = self
            .secret
            .as_ref()
            .is_none_or(|expected| constant_time_eq(expected.as_bytes(), token.as_bytes()));
        if !accepted {
            self.reject_auth(key, "authentication failed: bad token");
            return;
        }
        if let Some(conn) = at(&mut self.slots, key.slot) {
            conn.phase = Phase::Ready;
        }
        self.push(key, &Event::AuthOk);
    }

    fn reject_auth(&mut self, key: ConnKey, message: &str) {
        serve_instruments().auth_failures.inc();
        let message = message.to_string();
        self.push(key, &Event::Error { message });
        self.begin_close(key.slot, CloseReason::AuthFailed);
    }

    /// Starts a structured disconnect: hands the role state over for
    /// cancellation, swaps the idle timer for the grace timer, and lets the
    /// queue drain.
    fn begin_close(&mut self, slot: usize, reason: CloseReason) {
        let Some(conn) = at(&mut self.slots, slot).filter(|conn| !conn.closing()) else {
            return;
        };
        conn.phase = Phase::Closing(reason);
        if let Some(timer) = conn.idle_timer.take() {
            self.wheel.cancel(timer);
        }
        let grace = Instant::now() + CLOSE_GRACE;
        conn.close_timer = Some(self.wheel.arm(grace, Timer::ForceClose(slot)));
        self.closed
            .push((conn.key(slot), std::mem::take(&mut conn.state)));
        self.mark_dirty(slot);
    }

    fn timer_fired(&mut self, key: TimerKey, timer: Timer, now: Instant) {
        match timer {
            Timer::Idle(slot) => {
                let Some(timeout) = self.idle_timeout else {
                    return;
                };
                let Some(conn) = at(&mut self.slots, slot).filter(|c| c.idle_timer == Some(key))
                else {
                    return;
                };
                let deadline = conn.last_activity + timeout;
                if now < deadline {
                    // Activity since arming: push the deadline out.
                    conn.idle_timer = Some(self.wheel.arm(deadline, Timer::Idle(slot)));
                    return;
                }
                conn.idle_timer = None;
                let conn_key = conn.key(slot);
                serve_instruments().idle_timeouts.inc();
                // Tell the silent client why (best effort), then close.
                let message = format!(
                    "disconnected: no request for {} ms (idle timeout)",
                    timeout.as_millis()
                );
                self.push(conn_key, &Event::Error { message });
                self.begin_close(slot, CloseReason::IdleTimeout);
            }
            Timer::ForceClose(slot) => {
                if at(&mut self.slots, slot).is_some_and(|conn| conn.close_timer == Some(key)) {
                    self.close(slot, CloseReason::Eof);
                }
            }
            Timer::Upstream(_) => {}
        }
    }

    /// Flushes every dirty connection, closing those that failed or that
    /// finished a disconnect.
    fn flush_dirty(&mut self) {
        let instruments = serve_instruments();
        for slot in std::mem::take(&mut self.dirty) {
            let Some(conn) = at(&mut self.slots, slot) else {
                continue;
            };
            conn.dirty = false;
            let (lines, bytes) = (conn.io.outbound.len(), conn.io.outbound_bytes);
            let open = conn.io.flush();
            let written = (bytes - conn.io.outbound_bytes) as u64;
            conn.bytes_out += written;
            instruments.bytes_written.add(written);
            instruments
                .outbound_queue_depth
                .sub((lines - conn.io.outbound.len()) as i64);
            match conn.phase {
                _ if !open => self.close(slot, CloseReason::Eof),
                Phase::Closing(reason) if conn.io.outbound.is_empty() && conn.read_eof => {
                    self.close(slot, reason);
                }
                Phase::Closing(_) if conn.io.outbound.is_empty() => {
                    let _ = conn.io.stream.std().shutdown(Shutdown::Write);
                    conn.io.sync_interest(&self.poller, conn_token(slot), true);
                }
                _ => {
                    let readable = !conn.read_eof;
                    conn.io
                        .sync_interest(&self.poller, conn_token(slot), readable);
                }
            }
        }
    }

    /// Tears one connection down: hands its role state over (unless it was
    /// already closing), releases its timers and registration, emits the
    /// connection-lifetime `conn` span, and frees the slot.
    fn close(&mut self, slot: usize, reason: CloseReason) {
        let Some(conn) = self.slots.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let key = conn.key(slot);
        let reason = match conn.phase {
            Phase::Closing(why) => why,
            _ => {
                self.closed.push((key, conn.state));
                reason
            }
        };
        for timer in [conn.idle_timer, conn.close_timer].into_iter().flatten() {
            self.wheel.cancel(timer);
        }
        self.poller.deregister(conn.io.stream());
        serve_instruments()
            .outbound_queue_depth
            .sub(conn.io.outbound.len() as i64);
        trace::emit_interval(
            "conn",
            None,
            conn.opened,
            conn.opened.elapsed().as_micros() as u64,
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

// -- the event loop -----------------------------------------------------------

/// A serve role's half of the event loop: its verbs, its per-connection
/// state, and whatever it multiplexes besides accepted connections.
pub(crate) trait Handler {
    /// Per-connection role state, handed back when the connection starts
    /// closing.
    type State: Default;

    fn conns(&mut self) -> &mut Conns<Self::State>;

    /// The `hello` event every new connection receives first.
    fn hello(&self) -> Event;

    /// One request past the auth gate: `submit`, `status`, `cancel`,
    /// `stats` or `drain` (the core answers `auth` and `metrics`).
    fn request(&mut self, conn: ConnKey, request: Request);

    /// `conn` started closing, for any reason: cancel what it left running.
    fn closed(&mut self, conn: ConnKey, state: Self::State);

    /// Runs after each readiness batch, before timers expire.
    fn after_poll(&mut self) {}

    /// A wake-up deadline beyond the wheel's.
    fn next_deadline(&self) -> Option<Instant> {
        None
    }

    /// Readiness on upstream connection `index`.
    fn upstream_ready(&mut self, _index: usize, _event: &PollEvent) {}

    /// A [`Timer::Upstream`] fired.
    fn upstream_timer(&mut self, _index: usize, _key: TimerKey) {}

    /// Writes pending upstream lines; runs before accepted connections
    /// flush.
    fn flush_upstream(&mut self) {}

    /// The loop is stopping; every accepted connection is already closed.
    fn stop(&mut self) {}
}

/// Runs `handler`'s event loop until its endpoint's shutdown switch flips.
///
/// Each iteration: wait (bounded by the earliest deadline), dispatch
/// readiness, [`Handler::after_poll`], expire timers, then settle — hand
/// newly closing connections to the role and flush upstream and accepted
/// sockets until nothing new closes.
///
/// # Errors
///
/// Propagates reactor-level failures (connection errors are contained).
pub(crate) fn run<H: Handler>(handler: &mut H) -> io::Result<()> {
    let mut events: Vec<PollEvent> = Vec::new();
    let mut expired: Vec<(TimerKey, Timer)> = Vec::new();
    while !handler.conns().stopping() {
        let deadline = match (
            handler.conns().wheel.next_deadline(),
            handler.next_deadline(),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let timeout = deadline.map(|at| at.saturating_duration_since(Instant::now()));
        events.clear();
        handler.conns().poller.wait(&mut events, timeout)?;
        if handler.conns().stopping() {
            break;
        }
        for event in &events {
            match event.token.0 {
                TOKEN_LISTENER => accept_ready(handler),
                TOKEN_WAKEUP => handler.conns().wakeup.drain(),
                token => {
                    let index = ((token - TOKEN_CONN_BASE) / 2) as usize;
                    if (token - TOKEN_CONN_BASE).is_multiple_of(2) {
                        conn_ready(handler, index, event);
                    } else {
                        handler.upstream_ready(index, event);
                    }
                }
            }
        }
        handler.after_poll();
        let now = Instant::now();
        expired.clear();
        handler.conns().wheel.expire(now, &mut expired);
        for (key, timer) in expired.drain(..) {
            match timer {
                Timer::Upstream(index) => handler.upstream_timer(index, key),
                timer => handler.conns().timer_fired(key, timer, now),
            }
        }
        settle(handler);
    }
    let conns = handler.conns();
    for slot in 0..conns.slots.len() {
        conns.close(slot, CloseReason::Shutdown);
    }
    for (conn, state) in std::mem::take(&mut handler.conns().closed) {
        handler.closed(conn, state);
    }
    handler.stop();
    Ok(())
}

fn accept_ready<H: Handler>(handler: &mut H) {
    loop {
        match handler.conns().listener.accept() {
            Ok(Some((stream, _peer))) => {
                let hello = encode_line(&handler.hello());
                handler.conns().open(stream, hello);
            }
            Ok(None) => break,
            Err(error) => {
                warn!(handler.conns().target, "accept failed: {error}");
                break;
            }
        }
    }
}

fn conn_ready<H: Handler>(handler: &mut H, slot: usize, event: &PollEvent) {
    if event.readable {
        for _ in 0..READS_PER_EVENT {
            if !handler.conns().fill(slot) {
                break;
            }
            while let Some((conn, request)) = handler.conns().next_request(slot) {
                handler.request(conn, request);
            }
        }
    }
    if event.writable {
        handler.conns().mark_dirty(slot);
    }
    if event.closed && !event.readable {
        // Pure error condition with nothing to read.
        handler.conns().close(slot, CloseReason::Eof);
    }
}

/// Hands newly closing connections to the role and flushes, until a pass
/// closes nothing new (a failed write can close a connection, and the
/// role's cancellations can queue upstream lines).
fn settle<H: Handler>(handler: &mut H) {
    loop {
        for (conn, state) in std::mem::take(&mut handler.conns().closed) {
            handler.closed(conn, state);
        }
        handler.flush_upstream();
        handler.conns().flush_dirty();
        if handler.conns().closed.is_empty() {
            return;
        }
    }
}
