//! Router mode: one front-end event loop over a fleet of node daemons.
//!
//! A [`Router`] binds the same line-delimited JSON protocol as a
//! [`Server`](crate::Server), but runs no engine of its own. It holds one
//! upstream client connection per fleet node plus every downstream client
//! connection in a single-threaded reactor (the same `marqsim-net`
//! poller/wheel machinery as the node server), and:
//!
//! * **routes** every `submit` to the node owning the workload's
//!   Hamiltonian fingerprint on a consistent-hash ring
//!   ([`marqsim_cluster::HashRing`]) — the same Hamiltonian always lands
//!   on the same node, so each node's transition cache (and its
//!   `MARQSIM_CACHE_DIR` shard) stays hot for its share of the keyspace;
//! * **relays** `submitted` / `progress` / `done` / `failed` back to the
//!   submitting connection with job ids translated from the node's id
//!   space into the router's own, each event tagged with the `node` that
//!   ran it;
//! * **fans out** `stats` to every node and aggregates the answers into
//!   one fleet view with a per-node breakdown (`per_node`), zeroed
//!   entries marking unreachable nodes;
//! * **probes** node health on the [`Membership`] schedule (timeout,
//!   exponential backoff, deterministic jitter) and, when a node dies,
//!   fails its in-flight jobs with the structured `failed` kind
//!   `node_lost` while the rest of the fleet keeps serving;
//! * **drains** gracefully: the `drain` verb stops routing new work to a
//!   node, lets its in-flight jobs finish, then drops it from the fleet.
//!
//! Two deliberate semantic differences from a plain node, documented in
//! `docs/cluster.md`: the router acks `submit` with `submitted`
//! *immediately* (before the node's own ack, so acks stay in request
//! order even when jobs fan out to different nodes), and a node-side
//! admission rejection therefore surfaces as `failed` with kind `busy`
//! rather than as a `busy` event.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use marqsim_cluster::{instruments as cluster_instruments, HashRing, Health, Membership};
use marqsim_net::{
    ConnectStatus, DeadlineWheel, Interest, IoStatus, LineAssembler, Listener, PollEvent, Poller,
    Stream, TimerKey, Token, WakeHandle, Wakeup,
};
use marqsim_obs::{metrics, trace, warn};
use marqsim_pauli::Hamiltonian;

use crate::protocol::{Event, NodeStats, Request, Role, ServerStats, PROTOCOL_VERSION};
use crate::server::{constant_time_eq, encode_line};
use crate::wire::Json;

/// Maximum accepted request-line length on downstream connections (same
/// bound as the node server).
const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// Hard outbound-queue caps per downstream connection; exceeding either is
/// a slow-consumer disconnect (same policy as the node server).
const OUTBOUND_MAX_EVENTS: usize = 8192;
const OUTBOUND_MAX_BYTES: usize = 64 * 1024 * 1024;

/// How long a disconnecting downstream connection may take to drain its
/// final error event.
const CLOSE_GRACE: Duration = Duration::from_secs(5);

/// Upstream handshake deadline: connect + hello (+ auth) must complete
/// within this or the attempt counts as a probe failure.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a health probe (a `stats` request on a live connection) may
/// stay unanswered before the node counts as failed.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKEUP: u64 = 1;
/// Connection tokens interleave: downstream slot `s` → `BASE + 2s`,
/// upstream node index `n` → `BASE + 2n + 1`.
const TOKEN_CONN_BASE: u64 = 2;

/// A bound router front-end over a fixed fleet of node addresses.
///
/// Construct with [`Router::bind`], optionally
/// [`with_token`](Router::with_token), then [`run`](Router::run) or
/// [`spawn`](Router::spawn).
pub struct Router {
    listener: TcpListener,
    nodes: Vec<String>,
    token: Option<String>,
    shutdown: Arc<AtomicBool>,
    wakeup: Wakeup,
}

impl Router {
    /// Binds `addr` and prepares to route across `nodes` (each a
    /// `host:port` of a `marqsim-served` node daemon).
    ///
    /// # Errors
    ///
    /// Propagates the bind (or wakeup-channel) failure; rejects an empty
    /// node list.
    pub fn bind(addr: &str, nodes: &[String]) -> std::io::Result<Router> {
        if nodes.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a router needs at least one fleet node",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        Ok(Router {
            listener,
            nodes: nodes.to_vec(),
            token: None,
            shutdown: Arc::new(AtomicBool::new(false)),
            wakeup: Wakeup::new()?,
        })
    }

    /// Requires downstream clients to present this shared secret, and
    /// presents it to the fleet nodes in the upstream handshake — one
    /// `MARQSIM_SERVE_TOKEN` secures the whole fleet.
    pub fn with_token(mut self, token: impl Into<String>) -> Self {
        self.token = Some(token.into());
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

    /// The configured fleet node names.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Runs the router event loop on the calling thread until shut down.
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
        let now = Instant::now();
        let mut membership = Membership::default();
        let nodes = self
            .nodes
            .iter()
            .map(|name| {
                membership.insert(name, now);
                NodeConn::new(name.clone())
            })
            .collect();
        let mut event_loop = RouterLoop {
            token: self.token,
            shutdown: self.shutdown,
            poller,
            listener,
            wakeup: self.wakeup,
            nodes,
            ring: HashRing::default(),
            membership,
            conns: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            jobs: HashMap::new(),
            next_job: 1,
            pending_stats: HashMap::new(),
            next_stats: 1,
            wheel: DeadlineWheel::new(),
            dirty_down: Vec::new(),
            dirty_nodes: Vec::new(),
            read_buf: vec![0u8; 64 * 1024],
            workloads: crate::registry::WorkloadRegistry::builtin().kinds(),
        };
        event_loop.run()
    }

    /// Moves the event loop to a background thread and returns a handle
    /// with the bound address and a shutdown switch.
    ///
    /// # Errors
    ///
    /// Propagates socket introspection failures.
    pub fn spawn(self) -> std::io::Result<RouterHandle> {
        let addr = self.local_addr()?;
        let shutdown = Arc::clone(&self.shutdown);
        let wake = self.wakeup.handle();
        let thread = std::thread::Builder::new()
            .name("marqsim-route-loop".to_string())
            .spawn(move || {
                if let Err(error) = self.run() {
                    warn!("route", "router event loop failed: {error}");
                }
            })?;
        Ok(RouterHandle {
            addr,
            shutdown,
            wake,
            thread: Some(thread),
        })
    }
}

/// Handle to a background router from [`Router::spawn`].
pub struct RouterHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    wake: WakeHandle,
    thread: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The address downstream clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the event loop and joins it.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.wake.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Identity of one downstream connection across slot reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ConnKey {
    slot: usize,
    gen: u64,
}

/// One routed job, keyed by the router-assigned id downstream sees.
struct RouteEntry {
    down: ConnKey,
    node: usize,
    /// The node's own id for this job, learned from its `submitted` ack.
    node_job: Option<u64>,
    /// A cancel arrived before the node's ack; forward it once the node
    /// id is known.
    cancel_requested: bool,
    started: Instant,
}

/// Who is waiting for the next `status` event from a node (status and
/// cancel requests are answered in request order, so a FIFO correlates).
enum StatusWaiter {
    /// A downstream status/cancel: relay with the router's job id.
    Client { down: ConnKey, job: u64 },
    /// A cancel the router sent on its own behalf (downstream gone);
    /// swallow the answer.
    Discard,
}

/// Who is waiting for the next `stats` event from a node.
enum StatsWaiter {
    /// Part of a fan-out aggregation (key into `pending_stats`).
    Client(u64),
    /// A health probe; the answer is recorded, not relayed.
    Probe,
}

/// One in-progress `stats` fan-out.
struct PendingStats {
    down: ConnKey,
    remaining: usize,
    parts: Vec<NodeStats>,
}

/// Upstream connection lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No socket; reconnect when the membership schedule says so.
    Idle,
    /// Nonblocking connect in flight (waiting for writability).
    Connecting,
    /// Connected; waiting for the node's `hello`.
    AwaitHello,
    /// Sent `auth`; waiting for `auth_ok`.
    AwaitAuthOk,
    /// Handshake done; jobs route here.
    Ready,
}

/// Per-fleet-node upstream state.
struct NodeConn {
    name: String,
    stream: Option<Stream>,
    phase: Phase,
    assembler: LineAssembler,
    outbound: VecDeque<String>,
    write_offset: usize,
    interest: Interest,
    /// Router job ids whose `submitted`/`busy`/`error` ack is pending, in
    /// send order.
    awaiting_submit: VecDeque<u64>,
    awaiting_status: VecDeque<StatusWaiter>,
    awaiting_stats: VecDeque<StatsWaiter>,
    /// node job id → router job id, for relaying progress/terminals.
    jobs: HashMap<u64, u64>,
    /// Handshake or probe deadline.
    op_timer: Option<TimerKey>,
    /// Drained and dropped; never reconnected.
    retired: bool,
    dirty: bool,
    routed: Arc<metrics::Counter>,
    up_gauge: Arc<metrics::Gauge>,
}

impl NodeConn {
    fn new(name: String) -> NodeConn {
        let routed = cluster_instruments::routed(&name);
        let up_gauge = cluster_instruments::node_up(&name);
        up_gauge.set(0);
        NodeConn {
            name,
            stream: None,
            phase: Phase::Idle,
            assembler: LineAssembler::new(usize::MAX),
            outbound: VecDeque::new(),
            write_offset: 0,
            interest: Interest::READABLE,
            awaiting_submit: VecDeque::new(),
            awaiting_status: VecDeque::new(),
            awaiting_stats: VecDeque::new(),
            jobs: HashMap::new(),
            op_timer: None,
            retired: false,
            dirty: false,
            routed,
            up_gauge,
        }
    }
}

/// Why a downstream connection is being torn down (for the trace span).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CloseReason {
    Eof,
    BadInput,
    SlowConsumer,
    AuthFailed,
    Shutdown,
}

impl CloseReason {
    fn as_str(self) -> &'static str {
        match self {
            CloseReason::Eof => "eof",
            CloseReason::BadInput => "bad_input",
            CloseReason::SlowConsumer => "slow_consumer",
            CloseReason::AuthFailed => "auth_failed",
            CloseReason::Shutdown => "shutdown",
        }
    }
}

/// Deadline-wheel payloads.
#[derive(Debug, Clone, Copy)]
enum Timer {
    /// Force-close for a disconnecting downstream slot.
    ForceClose(usize),
    /// Handshake/probe deadline for an upstream node.
    NodeDeadline(usize),
}

/// Per-downstream-connection state.
struct DownConn {
    stream: Stream,
    gen: u64,
    assembler: LineAssembler,
    outbound: VecDeque<String>,
    outbound_bytes: usize,
    write_offset: usize,
    interest: Interest,
    authed: bool,
    closing: Option<CloseReason>,
    close_timer: Option<TimerKey>,
    requests: u64,
    bytes_in: u64,
    bytes_out: u64,
    dirty: bool,
    opened: Instant,
}

fn probe_failures_counter() -> &'static Arc<metrics::Counter> {
    static COUNTER: OnceLock<Arc<metrics::Counter>> = OnceLock::new();
    COUNTER.get_or_init(cluster_instruments::probe_failures)
}

fn drains_counter() -> &'static Arc<metrics::Counter> {
    static COUNTER: OnceLock<Arc<metrics::Counter>> = OnceLock::new();
    COUNTER.get_or_init(cluster_instruments::drains)
}

/// The reactor state owned by [`Router::run`]'s thread.
struct RouterLoop {
    token: Option<String>,
    shutdown: Arc<AtomicBool>,
    poller: Poller,
    listener: Listener,
    wakeup: Wakeup,
    nodes: Vec<NodeConn>,
    /// Connected, routable nodes only — a dead node leaves the ring (and
    /// its keys spill to neighbours) until its connection is back.
    ring: HashRing,
    membership: Membership,
    conns: Vec<Option<DownConn>>,
    free: Vec<usize>,
    next_gen: u64,
    /// router job id → route, for status/cancel and relay bookkeeping.
    jobs: HashMap<u64, RouteEntry>,
    next_job: u64,
    pending_stats: HashMap<u64, PendingStats>,
    next_stats: u64,
    wheel: DeadlineWheel<Timer>,
    dirty_down: Vec<usize>,
    dirty_nodes: Vec<usize>,
    read_buf: Vec<u8>,
    /// Workload kinds advertised in the router's `hello` (the builtin
    /// registry — the nodes decode; the router forwards params untouched).
    workloads: Vec<String>,
}

impl RouterLoop {
    fn run(&mut self) -> std::io::Result<()> {
        let mut events: Vec<PollEvent> = Vec::new();
        let mut expired: Vec<(TimerKey, Timer)> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let deadline = match (self.wheel.next_deadline(), self.membership.next_deadline()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let timeout = deadline.map(|at| at.saturating_duration_since(Instant::now()));
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
                        let index = ((token - TOKEN_CONN_BASE) / 2) as usize;
                        if (token - TOKEN_CONN_BASE).is_multiple_of(2) {
                            self.down_event(index, event);
                        } else {
                            self.node_event(index, event);
                        }
                    }
                }
            }
            let now = Instant::now();
            for name in self.membership.due_probes(now) {
                self.probe_due(&name, now);
            }
            expired.clear();
            self.wheel.expire(Instant::now(), &mut expired);
            for (key, timer) in expired.drain(..) {
                self.timer_fired(key, timer);
            }
            self.flush_dirty();
        }
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.close_down(slot, CloseReason::Shutdown);
            }
        }
        for index in 0..self.nodes.len() {
            self.disconnect_node(index);
        }
        Ok(())
    }

    // -- downstream ---------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok(Some((stream, _peer))) => self.open_down(stream),
                Ok(None) => break,
                Err(error) => {
                    warn!("route", "accept failed: {error}");
                    break;
                }
            }
        }
    }

    fn open_down(&mut self, stream: std::net::TcpStream) {
        let stream = match Stream::from_std(stream) {
            Ok(stream) => stream,
            Err(error) => {
                warn!("route", "could not prepare connection: {error}");
                return;
            }
        };
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.next_gen += 1;
        let conn = DownConn {
            stream,
            gen: self.next_gen,
            assembler: LineAssembler::new(MAX_LINE_BYTES),
            outbound: VecDeque::new(),
            outbound_bytes: 0,
            write_offset: 0,
            interest: Interest::READABLE,
            authed: self.token.is_none(),
            closing: None,
            close_timer: None,
            requests: 0,
            bytes_in: 0,
            bytes_out: 0,
            dirty: false,
            opened: Instant::now(),
        };
        let token = Token(slot as u64 * 2 + TOKEN_CONN_BASE);
        if let Err(error) = self.poller.register(&conn.stream, token, conn.interest) {
            warn!("route", "connection registration failed: {error}");
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(conn);
        let hello = Event::Hello {
            protocol: PROTOCOL_VERSION,
            role: Role::Router,
            nodes: self
                .nodes
                .iter()
                .filter(|node| !node.retired)
                .map(|node| node.name.clone())
                .collect(),
            auth: self.token.is_some(),
            // The router runs no engine; per-node capacities are in the
            // `stats` fan-out.
            threads: 0,
            workloads: self.workloads.clone(),
        };
        self.push_down(slot, &hello);
    }

    fn down_event(&mut self, slot: usize, event: &PollEvent) {
        if event.readable {
            self.down_readable(slot);
        }
        if event.writable {
            self.mark_down_dirty(slot);
        }
        if event.closed && !event.readable {
            self.close_down(slot, CloseReason::Eof);
        }
    }

    fn down_readable(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if conn.closing.is_some() {
                return;
            }
            let status = match conn.stream.read(&mut self.read_buf) {
                Ok(status) => status,
                Err(_) => {
                    self.close_down(slot, CloseReason::Eof);
                    return;
                }
            };
            match status {
                IoStatus::Ready(n) => {
                    conn.assembler.push(&self.read_buf[..n]);
                    if !self.process_down_lines(slot) {
                        return;
                    }
                }
                IoStatus::WouldBlock => return,
                IoStatus::Closed => {
                    self.close_down(slot, CloseReason::Eof);
                    return;
                }
            }
        }
    }

    /// Returns `false` when the connection was closed (framing error).
    fn process_down_lines(&mut self, slot: usize) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return false;
            };
            if conn.closing.is_some() {
                return true;
            }
            match conn.assembler.next_line() {
                Ok(Some(line)) => self.process_down_line(slot, &line),
                Ok(None) => return true,
                Err(_) => {
                    self.close_down(slot, CloseReason::BadInput);
                    return false;
                }
            }
        }
    }

    fn process_down_line(&mut self, slot: usize, line: &str) {
        {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            conn.bytes_in += line.len() as u64 + 1;
            if line.trim().is_empty() {
                return;
            }
            conn.requests += 1;
        }
        match Request::decode(line) {
            Ok(Request::Auth { token }) => self.handle_auth(slot, &token),
            Ok(_) if !self.down_authed(slot) => {
                self.auth_reject(slot, "authentication required: send the auth verb first");
            }
            Ok(Request::Submit {
                label,
                kind,
                params,
                options,
            }) => self.handle_submit(slot, label, kind, params, options),
            Ok(Request::Status { job }) => self.handle_status(slot, job),
            Ok(Request::Cancel { job }) => self.handle_cancel(slot, job),
            Ok(Request::Stats) => self.handle_stats(slot),
            Ok(Request::Metrics) => {
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
                self.push_down(slot, &event);
            }
            Ok(Request::Drain { node }) => self.handle_drain(slot, &node),
            Err(error) => {
                let event = Event::Error {
                    message: format!("bad request: {}", error.message),
                };
                self.push_down(slot, &event);
            }
        }
    }

    fn down_authed(&self, slot: usize) -> bool {
        self.conns
            .get(slot)
            .and_then(Option::as_ref)
            .is_some_and(|conn| conn.authed)
    }

    fn handle_auth(&mut self, slot: usize, token: &str) {
        let accepted = match &self.token {
            None => true,
            Some(expected) => constant_time_eq(expected.as_bytes(), token.as_bytes()),
        };
        if accepted {
            if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                conn.authed = true;
            }
            self.push_down(slot, &Event::AuthOk);
        } else {
            self.auth_reject(slot, "authentication failed: bad token");
        }
    }

    fn auth_reject(&mut self, slot: usize, message: &str) {
        let event = Event::Error {
            message: message.to_string(),
        };
        self.push_down(slot, &event);
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.closing.is_some() {
            return;
        }
        conn.closing = Some(CloseReason::AuthFailed);
        conn.close_timer = Some(
            self.wheel
                .arm(Instant::now() + CLOSE_GRACE, Timer::ForceClose(slot)),
        );
        self.mark_down_dirty(slot);
    }

    fn handle_submit(
        &mut self,
        slot: usize,
        label: String,
        kind: String,
        params: Json,
        options: marqsim_engine::SubmitOptions,
    ) {
        let fingerprint = routing_fingerprint(&params);
        let Some(owner) = self.ring.owner(fingerprint).map(str::to_string) else {
            let connected = self
                .nodes
                .iter()
                .filter(|n| n.phase == Phase::Ready)
                .count();
            let event = Event::Error {
                message: format!(
                    "no routable fleet nodes ({} configured, {connected} connected)",
                    self.nodes.len()
                ),
            };
            self.push_down(slot, &event);
            return;
        };
        let Some(index) = self.node_index(&owner) else {
            return;
        };
        let Some(key) = self.conn_key(slot) else {
            return;
        };
        let router_job = self.next_job;
        self.next_job += 1;
        self.jobs.insert(
            router_job,
            RouteEntry {
                down: key,
                node: index,
                node_job: None,
                cancel_requested: false,
                started: Instant::now(),
            },
        );
        let request = Request::Submit {
            label: label.clone(),
            kind,
            params,
            options,
        };
        self.nodes[index].awaiting_submit.push_back(router_job);
        self.nodes[index].routed.inc();
        self.node_send(index, &request);
        // Ack immediately with the router-assigned id: acks stay in
        // request order even when consecutive submits route to different
        // nodes. A node-side rejection arrives later as `failed`.
        let event = Event::Submitted {
            job: router_job,
            label,
            node: Some(owner),
        };
        self.push_down(slot, &event);
    }

    fn handle_status(&mut self, slot: usize, job: u64) {
        let Some(key) = self.conn_key(slot) else {
            return;
        };
        match self.jobs.get(&job) {
            Some(entry) if entry.down == key => match entry.node_job {
                Some(node_job) => {
                    let index = entry.node;
                    self.nodes[index]
                        .awaiting_status
                        .push_back(StatusWaiter::Client { down: key, job });
                    self.node_send(index, &Request::Status { job: node_job });
                }
                // The node's ack is still in flight: the job exists but
                // has made no observable progress.
                None => {
                    let cancelled = self
                        .jobs
                        .get(&job)
                        .is_some_and(|entry| entry.cancel_requested);
                    let event = Event::Status {
                        job,
                        known: true,
                        finished: false,
                        cancelled,
                        completed: 0,
                        total: 0,
                    };
                    self.push_down(slot, &event);
                }
            },
            _ => {
                let event = Event::Status {
                    job,
                    known: false,
                    finished: false,
                    cancelled: false,
                    completed: 0,
                    total: 0,
                };
                self.push_down(slot, &event);
            }
        }
    }

    fn handle_cancel(&mut self, slot: usize, job: u64) {
        let Some(key) = self.conn_key(slot) else {
            return;
        };
        match self.jobs.get_mut(&job) {
            Some(entry) if entry.down == key => match entry.node_job {
                Some(node_job) => {
                    let index = entry.node;
                    self.nodes[index]
                        .awaiting_status
                        .push_back(StatusWaiter::Client { down: key, job });
                    self.node_send(index, &Request::Cancel { job: node_job });
                }
                None => {
                    entry.cancel_requested = true;
                    let event = Event::Status {
                        job,
                        known: true,
                        finished: false,
                        cancelled: true,
                        completed: 0,
                        total: 0,
                    };
                    self.push_down(slot, &event);
                }
            },
            _ => {
                let event = Event::Status {
                    job,
                    known: false,
                    finished: false,
                    cancelled: false,
                    completed: 0,
                    total: 0,
                };
                self.push_down(slot, &event);
            }
        }
    }

    fn handle_stats(&mut self, slot: usize) {
        let Some(key) = self.conn_key(slot) else {
            return;
        };
        let id = self.next_stats;
        self.next_stats += 1;
        let mut pending = PendingStats {
            down: key,
            remaining: 0,
            parts: Vec::new(),
        };
        let mut queries: Vec<usize> = Vec::new();
        for (index, node) in self.nodes.iter_mut().enumerate() {
            if node.retired {
                continue;
            }
            if node.phase == Phase::Ready {
                node.awaiting_stats.push_back(StatsWaiter::Client(id));
                pending.remaining += 1;
                queries.push(index);
            } else {
                pending.parts.push(NodeStats {
                    node: node.name.clone(),
                    health: health_name(self.membership.health(&node.name)),
                    stats: ServerStats::default(),
                });
            }
        }
        if pending.remaining == 0 {
            self.finish_stats(pending);
            return;
        }
        self.pending_stats.insert(id, pending);
        for index in queries {
            self.node_send(index, &Request::Stats);
        }
    }

    /// Aggregates a completed fan-out and answers the waiting client.
    fn finish_stats(&mut self, mut pending: PendingStats) {
        pending.parts.sort_by(|a, b| a.node.cmp(&b.node));
        let down = pending.down;
        let in_flight = self
            .jobs
            .values()
            .filter(|entry| entry.down == down)
            .count();
        let mut total = ServerStats {
            in_flight,
            ..ServerStats::default()
        };
        for part in &pending.parts {
            total.threads += part.stats.threads;
            total.active_jobs += part.stats.active_jobs;
            total.queue_depth += part.stats.queue_depth;
            total.max_active_jobs += part.stats.max_active_jobs;
            total.cache += part.stats.cache;
        }
        total.per_node = pending.parts;
        if self.conn_matches(down) {
            self.push_down(down.slot, &Event::Stats(total));
        }
    }

    fn handle_drain(&mut self, slot: usize, name: &str) {
        let Some(index) = self.node_index(name) else {
            let event = Event::Error {
                message: format!("cannot drain '{name}': not a fleet node"),
            };
            self.push_down(slot, &event);
            return;
        };
        if self.nodes[index].retired {
            let event = Event::Error {
                message: format!("cannot drain '{name}': already drained"),
            };
            self.push_down(slot, &event);
            return;
        }
        if self.membership.health(name) != Some(Health::Draining) {
            drains_counter().inc();
            self.membership.begin_drain(name);
            self.ring.remove(name);
            self.nodes[index].up_gauge.set(0);
        }
        let in_flight = self.nodes[index].jobs.len() + self.nodes[index].awaiting_submit.len();
        let event = Event::Draining {
            node: name.to_string(),
            in_flight,
        };
        self.push_down(slot, &event);
        if in_flight == 0 {
            self.retire_node(index);
        }
    }

    /// Final step of a drain: the last in-flight job finished, drop the
    /// node from the fleet for good.
    fn retire_node(&mut self, index: usize) {
        self.disconnect_node(index);
        let name = self.nodes[index].name.clone();
        self.membership.remove(&name);
        self.nodes[index].retired = true;
    }

    fn maybe_finish_drain(&mut self, index: usize) {
        let name = self.nodes[index].name.clone();
        if self.membership.health(&name) == Some(Health::Draining)
            && self.nodes[index].jobs.is_empty()
            && self.nodes[index].awaiting_submit.is_empty()
        {
            self.retire_node(index);
        }
    }

    fn conn_key(&self, slot: usize) -> Option<ConnKey> {
        self.conns
            .get(slot)
            .and_then(Option::as_ref)
            .map(|conn| ConnKey {
                slot,
                gen: conn.gen,
            })
    }

    fn conn_matches(&self, key: ConnKey) -> bool {
        self.conns
            .get(key.slot)
            .and_then(Option::as_ref)
            .is_some_and(|conn| conn.gen == key.gen)
    }

    fn push_down(&mut self, slot: usize, event: &Event) {
        self.push_down_line(slot, encode_line(event));
    }

    fn push_down_line(&mut self, slot: usize, line: String) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.closing.is_some() {
            return;
        }
        if conn.outbound.len() >= OUTBOUND_MAX_EVENTS
            || conn.outbound_bytes + line.len() > OUTBOUND_MAX_BYTES
        {
            // Slow consumer: queue a final error and close after drain.
            let error_line = encode_line(&Event::Error {
                message: "disconnected: outbound queue overflow (slow consumer)".to_string(),
            });
            let keep_head = usize::from(conn.write_offset > 0);
            conn.outbound.truncate(keep_head);
            conn.outbound_bytes = conn.outbound.iter().map(String::len).sum::<usize>();
            conn.outbound_bytes += error_line.len();
            conn.outbound.push_back(error_line);
            conn.closing = Some(CloseReason::SlowConsumer);
            conn.close_timer = Some(
                self.wheel
                    .arm(Instant::now() + CLOSE_GRACE, Timer::ForceClose(slot)),
            );
            self.mark_down_dirty(slot);
            return;
        }
        conn.outbound_bytes += line.len();
        conn.outbound.push_back(line);
        self.mark_down_dirty(slot);
    }

    fn mark_down_dirty(&mut self, slot: usize) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
            if !conn.dirty {
                conn.dirty = true;
                self.dirty_down.push(slot);
            }
        }
    }

    /// Tears one downstream connection down, cancelling its routed jobs on
    /// their nodes.
    fn close_down(&mut self, slot: usize, reason: CloseReason) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        let key = ConnKey {
            slot,
            gen: conn.gen,
        };
        let owned: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, entry)| entry.down == key)
            .map(|(job, _)| *job)
            .collect();
        for job in owned {
            if let Some(entry) = self.jobs.remove(&job) {
                if let Some(node_job) = entry.node_job {
                    let index = entry.node;
                    self.nodes[index].jobs.remove(&node_job);
                    self.nodes[index]
                        .awaiting_status
                        .push_back(StatusWaiter::Discard);
                    self.node_send(index, &Request::Cancel { job: node_job });
                    self.maybe_finish_drain(index);
                }
                // An entry whose ack is pending stays implicit: the ack
                // handler sees the dead connection and cancels then.
            }
        }
        if let Some(timer) = conn.close_timer {
            self.wheel.cancel(timer);
        }
        self.poller.deregister(&conn.stream);
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

    // -- upstream -----------------------------------------------------------

    fn node_index(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|node| node.name == name)
    }

    fn node_token(index: usize) -> Token {
        Token(index as u64 * 2 + 1 + TOKEN_CONN_BASE)
    }

    /// Queues one request line to a node and marks it for flushing.
    fn node_send(&mut self, index: usize, request: &Request) {
        let node = &mut self.nodes[index];
        if node.stream.is_none() {
            return;
        }
        let mut line = request.encode();
        line.push('\n');
        node.outbound.push_back(line);
        if !node.dirty {
            node.dirty = true;
            self.dirty_nodes.push(index);
        }
    }

    fn mark_node_dirty(&mut self, index: usize) {
        let node = &mut self.nodes[index];
        if !node.dirty {
            node.dirty = true;
            self.dirty_nodes.push(index);
        }
    }

    /// The membership schedule says `name` is due: reconnect a dead node,
    /// probe a live one.
    fn probe_due(&mut self, name: &str, now: Instant) {
        let Some(index) = self.node_index(name) else {
            return;
        };
        if self.nodes[index].retired {
            return;
        }
        match self.nodes[index].phase {
            Phase::Idle => self.start_connect(index, now),
            Phase::Ready => {
                self.membership.begin_probe(name, now);
                if self.nodes[index].op_timer.is_none() {
                    self.nodes[index].op_timer = Some(
                        self.wheel
                            .arm(now + PROBE_TIMEOUT, Timer::NodeDeadline(index)),
                    );
                    self.nodes[index]
                        .awaiting_stats
                        .push_back(StatsWaiter::Probe);
                    self.node_send(index, &Request::Stats);
                }
            }
            // A handshake is in flight; its own deadline will resolve it.
            _ => {
                self.membership.begin_probe(name, now);
            }
        }
    }

    fn start_connect(&mut self, index: usize, now: Instant) {
        let name = self.nodes[index].name.clone();
        self.membership.begin_probe(&name, now);
        let addr = match name.to_socket_addrs().ok().and_then(|mut it| it.next()) {
            Some(addr) => addr,
            None => {
                self.node_failed(index, "address does not resolve");
                return;
            }
        };
        match Stream::connect(&addr) {
            Ok((stream, status)) => {
                let (phase, interest) = match status {
                    ConnectStatus::Ready => (Phase::AwaitHello, Interest::READABLE),
                    ConnectStatus::InProgress => (
                        Phase::Connecting,
                        Interest {
                            readable: false,
                            writable: true,
                        },
                    ),
                };
                if let Err(error) = self
                    .poller
                    .register(&stream, Self::node_token(index), interest)
                {
                    warn!("route", "node {name}: registration failed: {error}");
                    self.node_failed(index, "poller registration failed");
                    return;
                }
                let node = &mut self.nodes[index];
                node.stream = Some(stream);
                node.phase = phase;
                node.interest = interest;
                node.assembler = LineAssembler::new(usize::MAX);
                node.op_timer = Some(
                    self.wheel
                        .arm(now + CONNECT_TIMEOUT, Timer::NodeDeadline(index)),
                );
            }
            Err(error) => {
                warn!("route", "node {name}: connect failed: {error}");
                self.node_failed(index, "connect failed");
            }
        }
    }

    fn node_event(&mut self, index: usize, event: &PollEvent) {
        if index >= self.nodes.len() || self.nodes[index].stream.is_none() {
            return;
        }
        if self.nodes[index].phase == Phase::Connecting && (event.writable || event.closed) {
            let outcome = match self.nodes[index].stream.as_ref() {
                Some(stream) => stream.connect_result(),
                None => return,
            };
            match outcome {
                Ok(()) => {
                    let interest = Interest::READABLE;
                    let node = &mut self.nodes[index];
                    node.phase = Phase::AwaitHello;
                    node.interest = interest;
                    if let Some(stream) = node.stream.as_ref() {
                        let _ = self
                            .poller
                            .reregister(stream, Self::node_token(index), interest);
                    }
                }
                Err(error) => {
                    let name = self.nodes[index].name.clone();
                    warn!("route", "node {name}: connect failed: {error}");
                    self.node_failed(index, "connect failed");
                }
            }
            return;
        }
        if event.readable {
            self.node_readable(index);
        }
        if event.writable {
            self.mark_node_dirty(index);
        }
        if event.closed && !event.readable {
            self.node_failed(index, "connection closed");
        }
    }

    fn node_readable(&mut self, index: usize) {
        loop {
            let Some(stream) = self.nodes[index].stream.as_mut() else {
                return;
            };
            let status = match stream.read(&mut self.read_buf) {
                Ok(status) => status,
                Err(_) => {
                    self.node_failed(index, "read error");
                    return;
                }
            };
            match status {
                IoStatus::Ready(n) => {
                    let chunk = &self.read_buf[..n];
                    self.nodes[index].assembler.push(chunk);
                    loop {
                        match self.nodes[index].assembler.next_line() {
                            Ok(Some(line)) => {
                                if !self.process_node_line(index, &line) {
                                    return;
                                }
                            }
                            Ok(None) => break,
                            Err(_) => {
                                self.node_failed(index, "unframeable node output");
                                return;
                            }
                        }
                    }
                }
                IoStatus::WouldBlock => return,
                IoStatus::Closed => {
                    self.node_failed(index, "connection closed");
                    return;
                }
            }
        }
    }

    /// Handles one event line from a node; returns `false` when the node
    /// connection was torn down.
    fn process_node_line(&mut self, index: usize, line: &str) -> bool {
        let event = match Event::decode(line.trim()) {
            Ok(event) => event,
            Err(error) => {
                warn!(
                    "route",
                    "node {}: undecodable event: {error}", self.nodes[index].name
                );
                self.node_failed(index, "undecodable node event");
                return false;
            }
        };
        match self.nodes[index].phase {
            Phase::AwaitHello => self.handshake_hello(index, event),
            Phase::AwaitAuthOk => self.handshake_auth_ok(index, event),
            Phase::Ready => {
                self.relay_node_event(index, event);
                true
            }
            _ => true,
        }
    }

    fn handshake_hello(&mut self, index: usize, event: Event) -> bool {
        let name = self.nodes[index].name.clone();
        match event {
            Event::Hello {
                protocol,
                role,
                auth,
                ..
            } => {
                if protocol != PROTOCOL_VERSION {
                    warn!(
                        "route",
                        "node {name} speaks protocol {protocol}, router speaks {PROTOCOL_VERSION}"
                    );
                    self.node_failed(index, "protocol version mismatch");
                    return false;
                }
                if role != Role::Node {
                    warn!("route", "node {name} is a {}, not a node", role.as_str());
                    self.node_failed(index, "peer is not a node");
                    return false;
                }
                match (&self.token, auth) {
                    (Some(token), _) => {
                        let request = Request::Auth {
                            token: token.clone(),
                        };
                        self.nodes[index].phase = Phase::AwaitAuthOk;
                        self.node_send(index, &request);
                        true
                    }
                    (None, true) => {
                        warn!(
                            "route",
                            "node {name} requires a token and none is configured"
                        );
                        self.node_failed(index, "node requires authentication");
                        false
                    }
                    (None, false) => {
                        self.node_ready(index);
                        true
                    }
                }
            }
            other => {
                warn!("route", "node {name}: expected hello, got {other:?}");
                self.node_failed(index, "protocol violation");
                false
            }
        }
    }

    fn handshake_auth_ok(&mut self, index: usize, event: Event) -> bool {
        match event {
            Event::AuthOk => {
                self.node_ready(index);
                true
            }
            other => {
                warn!(
                    "route",
                    "node {}: expected auth_ok, got {other:?}", self.nodes[index].name
                );
                self.node_failed(index, "authentication rejected");
                false
            }
        }
    }

    /// The handshake finished: the node (re)joins the ring.
    fn node_ready(&mut self, index: usize) {
        let name = self.nodes[index].name.clone();
        if let Some(timer) = self.nodes[index].op_timer.take() {
            self.wheel.cancel(timer);
        }
        self.nodes[index].phase = Phase::Ready;
        let now = Instant::now();
        let health = self.membership.record_success(&name, now);
        if matches!(health, Some(Health::Up | Health::Suspect)) {
            self.ring.add(&name);
            self.nodes[index].up_gauge.set(1);
        }
    }

    /// Relays (or consumes) one event from a ready node.
    fn relay_node_event(&mut self, index: usize, event: Event) {
        match event {
            Event::Submitted { job: node_job, .. } => {
                let Some(router_job) = self.nodes[index].awaiting_submit.pop_front() else {
                    return;
                };
                let wants_cancel = self.jobs.get_mut(&router_job).map(|entry| {
                    entry.node_job = Some(node_job);
                    entry.cancel_requested
                });
                match wants_cancel {
                    // The submitter hung up between forward and ack
                    // (close_down dropped the route): cancel on its
                    // behalf and never learn this node job's id.
                    None => {
                        self.nodes[index]
                            .awaiting_status
                            .push_back(StatusWaiter::Discard);
                        self.node_send(index, &Request::Cancel { job: node_job });
                        self.maybe_finish_drain(index);
                    }
                    Some(wants_cancel) => {
                        self.nodes[index].jobs.insert(node_job, router_job);
                        if wants_cancel {
                            // A cancel arrived before the ack; forward it
                            // now that the node's id is known.
                            self.nodes[index]
                                .awaiting_status
                                .push_back(StatusWaiter::Discard);
                            self.node_send(index, &Request::Cancel { job: node_job });
                        }
                    }
                }
            }
            Event::Busy {
                in_flight, limit, ..
            } => {
                // The router already acked `submitted`, so a node-side
                // admission rejection becomes a terminal failure.
                let Some(router_job) = self.nodes[index].awaiting_submit.pop_front() else {
                    return;
                };
                let name = self.nodes[index].name.clone();
                if let Some(entry) = self.jobs.remove(&router_job) {
                    let event = Event::Failed {
                        job: router_job,
                        kind: "busy".to_string(),
                        message: format!(
                            "node {name} rejected the job ({in_flight} in flight, limit {limit})"
                        ),
                        node: Some(name),
                    };
                    if self.conn_matches(entry.down) {
                        self.push_down(entry.down.slot, &event);
                    }
                }
                self.maybe_finish_drain(index);
            }
            Event::Error { message } => {
                // The only errors a node sends in answer to well-formed
                // router traffic are submit rejections (unknown kind, bad
                // params) — attribute to the oldest pending submit.
                let Some(router_job) = self.nodes[index].awaiting_submit.pop_front() else {
                    warn!(
                        "route",
                        "node {}: unattributed error: {message}", self.nodes[index].name
                    );
                    return;
                };
                let name = self.nodes[index].name.clone();
                if let Some(entry) = self.jobs.remove(&router_job) {
                    let event = Event::Failed {
                        job: router_job,
                        kind: "rejected".to_string(),
                        message,
                        node: Some(name),
                    };
                    if self.conn_matches(entry.down) {
                        self.push_down(entry.down.slot, &event);
                    }
                }
                self.maybe_finish_drain(index);
            }
            Event::Progress {
                job: node_job,
                completed,
                total,
                ..
            } => {
                let Some(&router_job) = self.nodes[index].jobs.get(&node_job) else {
                    return;
                };
                let Some(entry) = self.jobs.get(&router_job) else {
                    return;
                };
                if self.conn_matches(entry.down) {
                    let slot = entry.down.slot;
                    let event = Event::Progress {
                        job: router_job,
                        completed,
                        total,
                        node: Some(self.nodes[index].name.clone()),
                    };
                    self.push_down(slot, &event);
                }
            }
            Event::Done {
                job: node_job,
                outcome,
                cache_delta,
                ..
            } => {
                let name = self.nodes[index].name.clone();
                if let Some((router_job, entry)) = self.take_route(index, node_job) {
                    self.emit_route_span(&name, &entry, "done");
                    if self.conn_matches(entry.down) {
                        let event = Event::Done {
                            job: router_job,
                            outcome,
                            cache_delta,
                            node: Some(name),
                        };
                        self.push_down(entry.down.slot, &event);
                    }
                }
                self.maybe_finish_drain(index);
            }
            Event::Failed {
                job: node_job,
                kind,
                message,
                ..
            } => {
                let name = self.nodes[index].name.clone();
                if let Some((router_job, entry)) = self.take_route(index, node_job) {
                    self.emit_route_span(&name, &entry, "failed");
                    if self.conn_matches(entry.down) {
                        let event = Event::Failed {
                            job: router_job,
                            kind,
                            message,
                            node: Some(name),
                        };
                        self.push_down(entry.down.slot, &event);
                    }
                }
                self.maybe_finish_drain(index);
            }
            Event::Status {
                completed,
                total,
                known,
                finished,
                cancelled,
                ..
            } => match self.nodes[index].awaiting_status.pop_front() {
                Some(StatusWaiter::Client { down, job }) => {
                    if self.conn_matches(down) {
                        let event = Event::Status {
                            job,
                            known,
                            finished,
                            cancelled,
                            completed,
                            total,
                        };
                        self.push_down(down.slot, &event);
                    }
                }
                Some(StatusWaiter::Discard) | None => {}
            },
            Event::Stats(stats) => match self.nodes[index].awaiting_stats.pop_front() {
                Some(StatsWaiter::Client(id)) => {
                    let name = self.nodes[index].name.clone();
                    let health = health_name(self.membership.health(&name));
                    if let Some(pending) = self.pending_stats.get_mut(&id) {
                        pending.parts.push(NodeStats {
                            node: name,
                            health,
                            stats,
                        });
                        pending.remaining -= 1;
                        if pending.remaining == 0 {
                            if let Some(pending) = self.pending_stats.remove(&id) {
                                self.finish_stats(pending);
                            }
                        }
                    }
                }
                Some(StatsWaiter::Probe) => {
                    let name = self.nodes[index].name.clone();
                    if let Some(timer) = self.nodes[index].op_timer.take() {
                        self.wheel.cancel(timer);
                    }
                    self.membership.record_success(&name, Instant::now());
                }
                None => {}
            },
            // hello/auth_ok/draining/metrics from a ready node are
            // protocol noise; ignore.
            _ => {}
        }
    }

    /// Removes one finished job's route entry from both id spaces.
    fn take_route(&mut self, index: usize, node_job: u64) -> Option<(u64, RouteEntry)> {
        let router_job = self.nodes[index].jobs.remove(&node_job)?;
        let entry = self.jobs.remove(&router_job)?;
        Some((router_job, entry))
    }

    fn emit_route_span(&self, node: &str, entry: &RouteEntry, outcome: &str) {
        let dur_us = entry.started.elapsed().as_micros() as u64;
        trace::emit_interval(
            "route",
            None,
            entry.started,
            dur_us,
            &[("node", node.to_string()), ("outcome", outcome.to_string())],
        );
    }

    /// The node is gone (connect refused, handshake timeout, probe
    /// timeout, EOF, protocol violation): fail everything in flight on it
    /// with the structured `node_lost` kind, drop it from the ring, and
    /// let the membership backoff schedule the reconnect.
    fn node_failed(&mut self, index: usize, why: &str) {
        let name = self.nodes[index].name.clone();
        probe_failures_counter().inc();
        self.disconnect_node(index);
        // In-flight jobs: both acked ones and those whose ack is pending.
        let mut lost: Vec<u64> = self.nodes[index].jobs.drain().map(|(_, job)| job).collect();
        lost.extend(self.nodes[index].awaiting_submit.drain(..));
        for router_job in lost {
            if let Some(entry) = self.jobs.remove(&router_job) {
                self.emit_route_span(&name, &entry, "node_lost");
                if self.conn_matches(entry.down) {
                    let event = Event::Failed {
                        job: router_job,
                        kind: "node_lost".to_string(),
                        message: format!("node {name} was lost ({why})"),
                        node: Some(name.clone()),
                    };
                    self.push_down(entry.down.slot, &event);
                }
            }
        }
        let waiters: Vec<StatusWaiter> = self.nodes[index].awaiting_status.drain(..).collect();
        for waiter in waiters {
            if let StatusWaiter::Client { down, job } = waiter {
                if self.conn_matches(down) {
                    let event = Event::Status {
                        job,
                        known: false,
                        finished: false,
                        cancelled: false,
                        completed: 0,
                        total: 0,
                    };
                    self.push_down(down.slot, &event);
                }
            }
        }
        let now = Instant::now();
        let health = self.membership.record_failure(&name, now);
        let stats_waiters: Vec<StatsWaiter> = self.nodes[index].awaiting_stats.drain(..).collect();
        for waiter in stats_waiters {
            if let StatsWaiter::Client(id) = waiter {
                if let Some(pending) = self.pending_stats.get_mut(&id) {
                    pending.parts.push(NodeStats {
                        node: name.clone(),
                        health: health_name(health),
                        stats: ServerStats::default(),
                    });
                    pending.remaining -= 1;
                    if pending.remaining == 0 {
                        if let Some(pending) = self.pending_stats.remove(&id) {
                            self.finish_stats(pending);
                        }
                    }
                }
            }
        }
        self.ring.remove(&name);
        self.nodes[index].up_gauge.set(0);
        if self.membership.health(&name) == Some(Health::Draining) {
            // A draining node that died finishes its drain the hard way.
            self.retire_node(index);
        }
    }

    /// Drops the socket and clears I/O state; bookkeeping (jobs, waiters)
    /// is the caller's concern.
    fn disconnect_node(&mut self, index: usize) {
        let node = &mut self.nodes[index];
        if let Some(timer) = node.op_timer.take() {
            self.wheel.cancel(timer);
        }
        if let Some(stream) = node.stream.take() {
            self.poller.deregister(&stream);
        }
        node.phase = Phase::Idle;
        node.outbound.clear();
        node.write_offset = 0;
        node.interest = Interest::READABLE;
    }

    // -- timers and flushing ------------------------------------------------

    fn timer_fired(&mut self, key: TimerKey, timer: Timer) {
        match timer {
            Timer::ForceClose(slot) => {
                let matches = self
                    .conns
                    .get(slot)
                    .and_then(Option::as_ref)
                    .is_some_and(|conn| conn.close_timer == Some(key));
                if matches {
                    let reason = self.conns[slot]
                        .as_ref()
                        .and_then(|conn| conn.closing)
                        .unwrap_or(CloseReason::Eof);
                    self.close_down(slot, reason);
                }
            }
            Timer::NodeDeadline(index) => {
                if self.nodes[index].op_timer != Some(key) {
                    return;
                }
                self.nodes[index].op_timer = None;
                match self.nodes[index].phase {
                    Phase::Connecting | Phase::AwaitHello | Phase::AwaitAuthOk => {
                        self.node_failed(index, "handshake timeout");
                    }
                    Phase::Ready => self.node_failed(index, "probe timeout"),
                    Phase::Idle => {}
                }
            }
        }
    }

    fn flush_dirty(&mut self) {
        let slots: Vec<usize> = self.dirty_down.drain(..).collect();
        for slot in slots {
            if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                conn.dirty = false;
                self.flush_down(slot);
            }
        }
        let indices: Vec<usize> = self.dirty_nodes.drain(..).collect();
        for index in indices {
            self.nodes[index].dirty = false;
            self.flush_node(index);
        }
    }

    fn flush_down(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let Some(front) = conn.outbound.front() else {
                if let Some(reason) = conn.closing {
                    self.close_down(slot, reason);
                    return;
                }
                self.update_down_interest(slot, false);
                return;
            };
            let bytes = front.as_bytes();
            let offset = conn.write_offset;
            match conn.stream.write(&bytes[offset..]) {
                Ok(IoStatus::Ready(n)) => {
                    conn.write_offset += n;
                    if conn.write_offset == bytes.len() {
                        conn.write_offset = 0;
                        if let Some(line) = conn.outbound.pop_front() {
                            conn.outbound_bytes -= line.len();
                            conn.bytes_out += line.len() as u64;
                        }
                    }
                }
                Ok(IoStatus::WouldBlock) => {
                    self.update_down_interest(slot, true);
                    return;
                }
                Ok(IoStatus::Closed) | Err(_) => {
                    self.close_down(slot, CloseReason::Eof);
                    return;
                }
            }
        }
    }

    fn update_down_interest(&mut self, slot: usize, writable: bool) {
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
        let token = Token(slot as u64 * 2 + TOKEN_CONN_BASE);
        if self.poller.reregister(&conn.stream, token, desired).is_ok() {
            conn.interest = desired;
        }
    }

    fn flush_node(&mut self, index: usize) {
        loop {
            let node = &mut self.nodes[index];
            let Some(stream) = node.stream.as_mut() else {
                return;
            };
            if node.phase == Phase::Connecting {
                return;
            }
            let Some(front) = node.outbound.front() else {
                self.update_node_interest(index, false);
                return;
            };
            let bytes = front.as_bytes();
            let offset = node.write_offset;
            match stream.write(&bytes[offset..]) {
                Ok(IoStatus::Ready(n)) => {
                    node.write_offset += n;
                    if node.write_offset == bytes.len() {
                        node.write_offset = 0;
                        node.outbound.pop_front();
                    }
                }
                Ok(IoStatus::WouldBlock) => {
                    self.update_node_interest(index, true);
                    return;
                }
                Ok(IoStatus::Closed) | Err(_) => {
                    self.node_failed(index, "write error");
                    return;
                }
            }
        }
    }

    fn update_node_interest(&mut self, index: usize, writable: bool) {
        let node = &mut self.nodes[index];
        let Some(stream) = node.stream.as_ref() else {
            return;
        };
        let desired = Interest {
            readable: true,
            writable,
        };
        if desired == node.interest {
            return;
        }
        if self
            .poller
            .reregister(stream, Self::node_token(index), desired)
            .is_ok()
        {
            node.interest = desired;
        }
    }
}

/// Wire name of a node's health for the `stats` breakdown.
fn health_name(health: Option<Health>) -> String {
    match health {
        Some(Health::Up) => "up",
        Some(Health::Suspect) => "suspect",
        Some(Health::Down) => "down",
        Some(Health::Draining) => "draining",
        None => "unknown",
    }
    .to_string()
}

/// The ring key for one submit: the Hamiltonian fingerprint when the
/// params carry one (the engine's own cache key, so all routers agree),
/// else an FNV-1a hash of the canonical params encoding.
fn routing_fingerprint(params: &Json) -> u64 {
    if let Some(text) = params.get("hamiltonian").and_then(Json::as_str) {
        if let Ok(ham) = Hamiltonian::parse(text) {
            return marqsim_engine::cache::hamiltonian_fingerprint(&ham);
        }
    }
    let encoded = params.encode();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in encoded.as_bytes() {
        hash = (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_agree_across_equivalent_submissions() {
        let params_a = Json::obj([
            ("hamiltonian", "0.9 ZZ + 0.5 XX".into()),
            ("label", "a".into()),
        ]);
        let params_b = Json::obj([
            ("hamiltonian", "0.9 ZZ + 0.5 XX".into()),
            ("label", "b".into()),
        ]);
        // Only the Hamiltonian matters: the same physics routes to the
        // same node regardless of labels or sweep settings.
        assert_eq!(
            routing_fingerprint(&params_a),
            routing_fingerprint(&params_b)
        );
        let different = Json::obj([("hamiltonian", "0.9 ZZ + 0.4 XX".into())]);
        assert_ne!(
            routing_fingerprint(&params_a),
            routing_fingerprint(&different)
        );
    }

    #[test]
    fn non_hamiltonian_params_fall_back_to_a_content_hash() {
        let a = Json::obj([("n", 30u64.into())]);
        let b = Json::obj([("n", 31u64.into())]);
        assert_ne!(routing_fingerprint(&a), routing_fingerprint(&b));
        assert_eq!(routing_fingerprint(&a), routing_fingerprint(&a));
    }

    #[test]
    fn bind_rejects_an_empty_fleet() {
        assert!(Router::bind("127.0.0.1:0", &[]).is_err());
    }

    #[test]
    fn health_names_cover_every_state() {
        assert_eq!(health_name(Some(Health::Up)), "up");
        assert_eq!(health_name(Some(Health::Suspect)), "suspect");
        assert_eq!(health_name(Some(Health::Down)), "down");
        assert_eq!(health_name(Some(Health::Draining)), "draining");
        assert_eq!(health_name(None), "unknown");
    }
}
