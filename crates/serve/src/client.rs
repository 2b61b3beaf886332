//! A blocking client for the serve protocol.
//!
//! [`Client`] owns one connection and exposes the verbs as methods. Events
//! for different jobs interleave on the wire (progress of job 1 can arrive
//! while waiting for job 2), so the client keeps an internal buffer of
//! not-yet-consumed events: [`Client::wait`] returns the terminal event of
//! *its* job and leaves everything else buffered for later calls.
//!
//! Submission is open-ended: [`Client::submit`] takes a workload kind plus
//! a raw params object (see [`protocol::sweep_params`](crate::protocol::sweep_params)
//! and friends for the built-in shapes), so a client can drive any kind the
//! server's registry knows — including custom ones — without client-side
//! code changes. An admission rejection surfaces as [`ClientError::Busy`].
//!
//! This is the client the integration tests, the `serve_smoke` benchmark
//! binary, and the `serve_roundtrip` example use; it is deliberately
//! synchronous (one thread), but built on a nonblocking socket with
//! poll-based readiness waits rather than blocking reads: every read and
//! write parks in `poll(2)` until the socket is ready or a deadline
//! expires, so a stalled server surfaces as a timeout instead of a
//! busy-retry loop or an indefinite hang. While waiting on a long job,
//! [`Client::wait_with_progress`] additionally sends a keepalive `status`
//! poll for the awaited job whenever the socket has been silent for
//! [`KEEPALIVE_INTERVAL`] — inbound requests are what the server's idle
//! timeout counts, so a patient waiter is never mistaken for a half-open
//! peer. The acks of those polls are consumed internally and never
//! surface to callers.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use marqsim_core::experiment::SweepConfig;
use marqsim_core::TransitionStrategy;
use marqsim_engine::{CacheStats, SubmitOptions};
use marqsim_net::{wait_readable, wait_writable, LineAssembler};
use marqsim_pauli::Hamiltonian;

use crate::protocol::{sweep_params, Event, Outcome, Request, Role, ServerStats};
use crate::wire::{Json, WireError};

/// Per-event read deadline. Long enough for any reduced-scale sweep;
/// prevents a wedged server from hanging a test suite forever.
const READ_TIMEOUT: Duration = Duration::from_secs(300);

/// Socket-silence span after which [`Client::wait_with_progress`] sends a
/// keepalive `status` poll for the awaited job (see the module docs).
/// Comfortably inside any reasonable server idle timeout.
pub const KEEPALIVE_INTERVAL: Duration = Duration::from_secs(30);

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server sent something the protocol layer cannot decode.
    Wire(WireError),
    /// The server answered with an `error` event, or violated the protocol
    /// (e.g. no `hello` on connect).
    Protocol(String),
    /// A submit was rejected by admission control; resubmit after one of
    /// the connection's jobs finishes.
    Busy {
        /// In-flight jobs on this connection at rejection time.
        in_flight: usize,
        /// The effective admission bound.
        limit: usize,
    },
    /// The awaited job terminated with a `failed` event.
    JobFailed {
        /// The failure kind (`"compile"`, `"panic"`, `"cancelled"`, …).
        kind: String,
        /// The server's message.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "malformed server message: {e}"),
            ClientError::Protocol(message) => write!(f, "protocol violation: {message}"),
            ClientError::Busy { in_flight, limit } => {
                write!(
                    f,
                    "rejected by admission control ({in_flight} jobs in flight, limit {limit})"
                )
            }
            ClientError::JobFailed { kind, message } => {
                write!(f, "job failed ({kind}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A finished job as reported by the server.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The result payload.
    pub outcome: Outcome,
    /// Cache-counter delta the server attributed to this job.
    pub cache_delta: CacheStats,
}

/// The telemetry snapshot returned by [`Client::metrics`]: the server's
/// process-wide Prometheus-style exposition plus this connection's own
/// request/byte counters (as the server's event loop counts them).
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Prometheus-style text exposition of the server's metrics registry.
    pub exposition: String,
    /// Requests the server has decoded on this connection (including this
    /// `metrics` request itself).
    pub requests: u64,
    /// Request-line bytes the server has read on this connection.
    pub bytes_in: u64,
    /// Event bytes the server has written on this connection.
    pub bytes_out: u64,
}

/// One connection to a `marqsim-served` instance.
pub struct Client {
    /// The nonblocking socket; all waits go through `poll(2)`.
    stream: TcpStream,
    /// Reassembles wire lines from whatever chunks the socket delivers.
    assembler: LineAssembler,
    /// Events read off the wire but not yet consumed by a waiter.
    pending: VecDeque<Event>,
    /// Keepalive `status` polls sent but not yet acknowledged; matching
    /// status events are swallowed instead of surfacing to callers.
    keepalives_outstanding: usize,
    /// Server worker-thread count from the `hello` event.
    threads: usize,
    /// Workload kinds the server advertised in `hello`.
    workloads: Vec<String>,
    /// Whether the peer is a single node or a fleet router (from `hello`).
    role: Role,
    /// Fleet node names a router advertised in `hello` (empty for nodes).
    nodes: Vec<String>,
}

impl Client {
    /// Connects and performs the `hello` handshake.
    ///
    /// # Errors
    ///
    /// Fails on connection errors, a missing/invalid `hello`, or a protocol
    /// version mismatch.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with_token(addr, None)
    }

    /// [`connect`](Self::connect) with a shared secret: if the server's
    /// `hello` advertises `auth: true` (it was started with
    /// `MARQSIM_SERVE_TOKEN`), the handshake sends the `auth` verb and
    /// waits for `auth_ok` before the client is handed back.
    ///
    /// # Errors
    ///
    /// In addition to [`connect`](Self::connect)'s failures: the server
    /// requires a token and none was supplied, or the server rejected the
    /// token (a structured `error` surfacing as [`ClientError::Protocol`]).
    pub fn connect_with_token(
        addr: impl ToSocketAddrs,
        token: Option<&str>,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let mut client = Client {
            stream,
            // Events are as large as their result payloads (a perturb
            // matrix is megabytes); the client trusts its server and keeps
            // line reassembly unbounded, exactly like the old buffered
            // reader.
            assembler: LineAssembler::new(usize::MAX),
            pending: VecDeque::new(),
            keepalives_outstanding: 0,
            threads: 0,
            workloads: Vec::new(),
            role: Role::default(),
            nodes: Vec::new(),
        };
        let auth_required = match client.read_event()? {
            Event::Hello {
                protocol,
                threads,
                workloads,
                role,
                nodes,
                auth,
            } => {
                if protocol != crate::protocol::PROTOCOL_VERSION {
                    return Err(ClientError::Protocol(format!(
                        "server speaks protocol {protocol}, client speaks {}",
                        crate::protocol::PROTOCOL_VERSION
                    )));
                }
                client.threads = threads;
                client.workloads = workloads;
                client.role = role;
                client.nodes = nodes;
                auth
            }
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected hello, got {other:?}"
                )))
            }
        };
        match (auth_required, token) {
            (true, None) => {
                return Err(ClientError::Protocol(
                    "server requires authentication and no token was supplied".to_string(),
                ))
            }
            // An open server accepts (and acks) any auth verb, so a
            // token-configured client works against both.
            (_, Some(token)) => {
                client.send(&Request::Auth {
                    token: token.to_string(),
                })?;
                match client.read_event()? {
                    Event::AuthOk => {}
                    other => {
                        return Err(ClientError::Protocol(format!(
                            "expected auth_ok, got {other:?}"
                        )))
                    }
                }
            }
            (false, None) => {}
        }
        Ok(client)
    }

    /// The server's engine worker-thread count (from `hello`).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The workload kinds the server advertised (from `hello`).
    pub fn workloads(&self) -> &[String] {
        &self.workloads
    }

    /// Whether the peer is a single node or a fleet router (from `hello`).
    pub fn role(&self) -> Role {
        self.role
    }

    /// Fleet node names a router advertised in `hello` (empty when the
    /// peer is a plain node).
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Asks a router to drain `node`: stop routing new work to it, let its
    /// in-flight jobs finish, then drop it from the fleet. Returns the
    /// in-flight count at drain start.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, or with [`ClientError::Protocol`] when
    /// the peer is a plain node or does not know `node`.
    pub fn drain(&mut self, node: &str) -> Result<usize, ClientError> {
        self.send(&Request::Drain {
            node: node.to_string(),
        })?;
        match self.wait_for(|event| matches!(event, Event::Draining { .. }))? {
            Event::Draining { in_flight, .. } => Ok(in_flight),
            _ => unreachable!("matcher admits only draining events"),
        }
    }

    /// Writes one request line, parking in `poll(2)` whenever the socket's
    /// send buffer is full (never a busy-retry on `WouldBlock`).
    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        let mut line = request.encode();
        line.push('\n');
        let bytes = line.as_bytes();
        let deadline = Instant::now() + READ_TIMEOUT;
        let mut written = 0;
        while written < bytes.len() {
            match (&self.stream).write(&bytes[written..]) {
                Ok(0) => {
                    return Err(ClientError::Protocol(
                        "server closed the connection".to_string(),
                    ))
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero()
                        || !wait_writable(self.stream.as_raw_fd(), Some(remaining))?
                    {
                        return Err(ClientError::Io(ErrorKind::TimedOut.into()));
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    fn read_event(&mut self) -> Result<Event, ClientError> {
        self.read_event_by(Instant::now() + READ_TIMEOUT)
    }

    /// Returns the next event, parking in `poll(2)` until bytes arrive or
    /// `deadline` passes (a timeout surfaces as [`ClientError::Io`] with
    /// [`ErrorKind::TimedOut`], like the old blocking read timeout).
    fn read_event_by(&mut self, deadline: Instant) -> Result<Event, ClientError> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            while let Some(line) = self
                .assembler
                .next_line()
                .map_err(|e| ClientError::Protocol(e.to_string()))?
            {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                // A protocol-level error event aborts whatever we were
                // doing.
                return match Event::decode(trimmed)? {
                    Event::Error { message } => Err(ClientError::Protocol(message)),
                    event => Ok(event),
                };
            }
            match (&self.stream).read(&mut buf) {
                Ok(0) => {
                    return Err(ClientError::Protocol(
                        "server closed the connection".to_string(),
                    ))
                }
                Ok(n) => self.assembler.push(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero()
                        || !wait_readable(self.stream.as_raw_fd(), Some(remaining))?
                    {
                        return Err(ClientError::Io(ErrorKind::TimedOut.into()));
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// [`read_event`](Self::read_event) with the keepalive policy for a
    /// long wait on `job`: after [`KEEPALIVE_INTERVAL`] of socket silence,
    /// send a `status` poll for the job (counting it outstanding) and keep
    /// waiting; swallow the matching status acks so they never surface.
    fn read_event_keepalive(&mut self, job: u64) -> Result<Event, ClientError> {
        let mut deadline = Instant::now() + READ_TIMEOUT;
        loop {
            let poll_at = Instant::now() + KEEPALIVE_INTERVAL;
            let event = match self.read_event_by(deadline.min(poll_at)) {
                Err(ClientError::Io(e))
                    if e.kind() == ErrorKind::TimedOut && poll_at < deadline =>
                {
                    self.send(&Request::Status { job })?;
                    self.keepalives_outstanding += 1;
                    continue;
                }
                other => other?,
            };
            match event {
                Event::Status { job: j, .. } if j == job && self.keepalives_outstanding > 0 => {
                    self.keepalives_outstanding -= 1;
                    // The ack proves the server is alive; refresh the
                    // per-event deadline like any other received event.
                    deadline = Instant::now() + READ_TIMEOUT;
                }
                event => return Ok(event),
            }
        }
    }

    /// Returns the first event satisfying `matcher`: scans the buffer of
    /// already-received events once, then reads fresh events off the
    /// socket, buffering non-matching ones. (The buffer is never re-read
    /// inside the socket loop — re-queuing a just-popped event would spin
    /// without ever touching the socket.)
    fn wait_for(&mut self, mut matcher: impl FnMut(&Event) -> bool) -> Result<Event, ClientError> {
        if let Some(index) = self.pending.iter().position(&mut matcher) {
            return Ok(self.pending.remove(index).expect("index in range"));
        }
        loop {
            let event = self.read_event()?;
            if matcher(&event) {
                return Ok(event);
            }
            self.pending.push_back(event);
        }
    }

    /// Submits a workload of `kind` with default options and returns its
    /// server-assigned id.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, an admission rejection
    /// ([`ClientError::Busy`]), or a server-side rejection of the kind or
    /// params.
    pub fn submit(&mut self, label: &str, kind: &str, params: Json) -> Result<u64, ClientError> {
        self.submit_with_options(label, kind, params, SubmitOptions::default())
    }

    /// Submits a workload with explicit [`SubmitOptions`] (priority,
    /// admission bound, progress cadence).
    ///
    /// # Errors
    ///
    /// See [`submit`](Self::submit).
    pub fn submit_with_options(
        &mut self,
        label: &str,
        kind: &str,
        params: Json,
        options: SubmitOptions,
    ) -> Result<u64, ClientError> {
        self.send(&Request::Submit {
            label: label.to_string(),
            kind: kind.to_string(),
            params,
            options,
        })?;
        // Submit acks (and busy rejections) are emitted in request order,
        // so the first such event to arrive after this request is ours
        // (events of earlier jobs may interleave and are buffered).
        match self
            .wait_for(|event| matches!(event, Event::Submitted { .. } | Event::Busy { .. }))?
        {
            Event::Submitted { job, .. } => Ok(job),
            Event::Busy {
                in_flight, limit, ..
            } => Err(ClientError::Busy { in_flight, limit }),
            _ => unreachable!("matcher admits only submitted/busy events"),
        }
    }

    /// Convenience: submits a sweep job for `ham` (serialized in the
    /// `Hamiltonian::parse` textual format).
    ///
    /// # Errors
    ///
    /// See [`submit`](Self::submit).
    pub fn submit_sweep(
        &mut self,
        label: &str,
        ham: &Hamiltonian,
        strategy: &TransitionStrategy,
        config: &SweepConfig,
    ) -> Result<u64, ClientError> {
        self.submit(
            label,
            "sweep",
            sweep_params(&ham.to_string(), strategy, config),
        )
    }

    /// Blocks until `job` reaches a terminal event. Progress events of the
    /// job are passed to `on_progress`; events of other jobs are buffered.
    ///
    /// # Errors
    ///
    /// Fails on transport errors; a `failed` terminal event becomes
    /// [`ClientError::JobFailed`].
    pub fn wait_with_progress(
        &mut self,
        job: u64,
        on_progress: impl FnMut(usize, usize),
    ) -> Result<JobResult, ClientError> {
        let result = self.wait_with_progress_inner(job, on_progress);
        // Keepalive acks that raced the terminal event are stale; drop any
        // already buffered and forget the rest (an ack still in flight will
        // be buffered as an ordinary status event, which later waiters
        // ignore — `status` is advisory and inherently racy).
        if self.keepalives_outstanding > 0 {
            let mut stale = self.keepalives_outstanding;
            self.pending.retain(|event| {
                let is_ack =
                    stale > 0 && matches!(event, Event::Status { job: j, .. } if *j == job);
                if is_ack {
                    stale -= 1;
                }
                !is_ack
            });
            self.keepalives_outstanding = 0;
        }
        result
    }

    fn wait_with_progress_inner(
        &mut self,
        job: u64,
        mut on_progress: impl FnMut(usize, usize),
    ) -> Result<JobResult, ClientError> {
        // Drain buffered progress of this job (a progress event can be
        // enqueued by the engine's coordinator before the reader thread's
        // submitted ack, so it may already sit in the buffer), then scan
        // for an already-buffered terminal event.
        self.pending.retain(|event| match *event {
            Event::Progress {
                job: j,
                completed,
                total,
                ..
            } if j == job => {
                on_progress(completed, total);
                false
            }
            _ => true,
        });
        if let Some(index) = self.pending.iter().position(|event| {
            matches!(event, Event::Done { job: j, .. } | Event::Failed { job: j, .. } if *j == job)
        }) {
            let event = self.pending.remove(index).expect("index in range");
            return Self::terminal(event);
        }
        loop {
            match self.read_event_keepalive(job)? {
                Event::Progress {
                    job: j,
                    completed,
                    total,
                    ..
                } if j == job => on_progress(completed, total),
                event @ (Event::Done { .. } | Event::Failed { .. })
                    if Self::event_job(&event) == Some(job) =>
                {
                    return Self::terminal(event);
                }
                other => self.pending.push_back(other),
            }
        }
    }

    /// Blocks until `job` finishes, discarding its progress events.
    ///
    /// # Errors
    ///
    /// See [`wait_with_progress`](Self::wait_with_progress).
    pub fn wait(&mut self, job: u64) -> Result<JobResult, ClientError> {
        self.wait_with_progress(job, |_, _| {})
    }

    fn event_job(event: &Event) -> Option<u64> {
        match event {
            Event::Done { job, .. } | Event::Failed { job, .. } => Some(*job),
            _ => None,
        }
    }

    fn terminal(event: Event) -> Result<JobResult, ClientError> {
        match event {
            Event::Done {
                outcome,
                cache_delta,
                ..
            } => Ok(JobResult {
                outcome,
                cache_delta,
            }),
            Event::Failed { kind, message, .. } => Err(ClientError::JobFailed { kind, message }),
            other => Err(ClientError::Protocol(format!(
                "not a terminal event: {other:?}"
            ))),
        }
    }

    /// Requests cooperative cancellation of `job` and returns the server's
    /// status snapshot.
    ///
    /// # Errors
    ///
    /// Fails on transport errors.
    pub fn cancel(&mut self, job: u64) -> Result<Event, ClientError> {
        self.send(&Request::Cancel { job })?;
        self.await_status(job)
    }

    /// Queries one job's status.
    ///
    /// # Errors
    ///
    /// Fails on transport errors.
    pub fn status(&mut self, job: u64) -> Result<Event, ClientError> {
        self.send(&Request::Status { job })?;
        self.await_status(job)
    }

    fn await_status(&mut self, job: u64) -> Result<Event, ClientError> {
        self.wait_for(|event| matches!(event, Event::Status { job: j, .. } if *j == job))
    }

    /// Fetches engine-wide statistics plus this connection's in-flight
    /// gauge.
    ///
    /// # Errors
    ///
    /// Fails on transport errors.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        self.send(&Request::Stats)?;
        match self.wait_for(|event| matches!(event, Event::Stats { .. }))? {
            Event::Stats(stats) => Ok(stats),
            _ => unreachable!("matcher admits only stats events"),
        }
    }

    /// Fetches the server's metrics exposition plus this connection's
    /// request/byte counters (protocol v4).
    ///
    /// # Errors
    ///
    /// Fails on transport errors.
    pub fn metrics(&mut self) -> Result<MetricsReport, ClientError> {
        self.send(&Request::Metrics)?;
        match self.wait_for(|event| matches!(event, Event::Metrics { .. }))? {
            Event::Metrics {
                exposition,
                requests,
                bytes_in,
                bytes_out,
            } => Ok(MetricsReport {
                exposition,
                requests,
                bytes_in,
                bytes_out,
            }),
            _ => unreachable!("matcher admits only metrics events"),
        }
    }
}
