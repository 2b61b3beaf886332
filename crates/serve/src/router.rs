//! Router mode: one front-end event loop over a fleet of node daemons.
//!
//! A [`Router`] binds the same line-delimited JSON protocol as a
//! [`Server`](crate::Server), but runs no engine of its own. Its client
//! connections run on the same connection core as a node's (`crate::conn`:
//! framing, backpressure, progress coalescing, idle timeout, auth, serve
//! instruments); next to them, the same single-threaded reactor holds one
//! upstream client connection per fleet node, and the router:
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
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use marqsim_cluster::{instruments as cluster_instruments, HashRing, Health, Membership};
use marqsim_net::{ConnectStatus, Interest, IoStatus, PollEvent, Stream, TimerKey};
use marqsim_obs::{metrics, trace, warn};
use marqsim_pauli::Hamiltonian;

use crate::conn::{
    self, encode_line, ConnKey, Conns, Endpoint, Handler, LineIo, LoopHandle, Push, Timer,
};
use crate::protocol::{Event, NodeStats, Request, Role, ServerStats, PROTOCOL_VERSION};
use crate::wire::Json;

/// Upstream handshake deadline: connect + hello (+ auth) must complete
/// within this or the attempt counts as a probe failure.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a health probe (a `stats` request on a live connection) may
/// stay unanswered before the node counts as failed.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// Client requests a node link may have unanswered at once. Each becomes
/// an answer the node queues for the router, so holding them below the
/// node's outbound cap means a client pipelining through the router is
/// disconnected here, as a slow consumer, before the node could drop the
/// router's link (and every job on it) as one.
const NODE_MAX_UNANSWERED: usize = conn::OUTBOUND_MAX_LINES / 2;

/// A bound router front-end over a fixed fleet of node addresses.
///
/// Construct with [`Router::bind`], optionally
/// [`with_token`](Router::with_token) /
/// [`with_idle_timeout`](Router::with_idle_timeout), then
/// [`run`](Router::run) or [`spawn`](Router::spawn).
pub struct Router {
    endpoint: Endpoint,
    nodes: Vec<String>,
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
        Ok(Router {
            endpoint: Endpoint::bind(addr)?,
            nodes: nodes.to_vec(),
        })
    }

    /// Requires downstream clients to present this shared secret, and
    /// presents it to the fleet nodes in the upstream handshake — one
    /// `MARQSIM_SERVE_TOKEN` secures the whole fleet.
    pub fn with_token(mut self, token: impl Into<String>) -> Self {
        self.endpoint.secret = Some(token.into());
        self
    }

    /// Reaps downstream connections that send no request bytes for
    /// `timeout` (`MARQSIM_SERVE_IDLE_TIMEOUT_MS` on the daemon; unset =
    /// never), cancelling their routed jobs on the nodes — the same
    /// setting as [`Server::with_idle_timeout`](crate::Server::with_idle_timeout).
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.endpoint.set_idle_timeout(timeout);
        self
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.endpoint.local_addr()
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
        let token = self.endpoint.secret.clone();
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
        conn::run(&mut RouterLoop {
            conns: self.endpoint.into_conns("route")?,
            token,
            nodes,
            ring: HashRing::default(),
            membership,
            jobs: HashMap::new(),
            next_job: 1,
            pending_stats: HashMap::new(),
            next_stats: 1,
            probe_failures: cluster_instruments::probe_failures(),
            drains: cluster_instruments::drains(),
            workloads: crate::registry::WorkloadRegistry::builtin().kinds(),
        })
    }

    /// Moves the event loop to a background thread and returns a handle
    /// with the bound address and a shutdown switch.
    ///
    /// # Errors
    ///
    /// Propagates socket introspection failures.
    pub fn spawn(self) -> std::io::Result<RouterHandle> {
        let inner = self
            .endpoint
            .handle()?
            .start("marqsim-route-loop", "route", move || self.run())?;
        Ok(RouterHandle { inner })
    }
}

/// Handle to a background router from [`Router::spawn`].
pub struct RouterHandle {
    inner: LoopHandle,
}

impl RouterHandle {
    /// The address downstream clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// Stops the event loop and joins it.
    pub fn shutdown(self) {
        self.inner.stop();
    }
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
    /// The socket, with unbounded inbound lines (a node's result payloads
    /// are trusted); its outbound caps bound client traffic only (see
    /// [`RouterLoop::node_send`]).
    io: Option<LineIo>,
    phase: Phase,
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
            io: None,
            phase: Phase::Idle,
            awaiting_submit: VecDeque::new(),
            awaiting_status: VecDeque::new(),
            awaiting_stats: VecDeque::new(),
            jobs: HashMap::new(),
            op_timer: None,
            retired: false,
            routed,
            up_gauge,
        }
    }
}

/// The router's half of the event loop owned by [`Router::run`]'s thread.
struct RouterLoop {
    conns: Conns<()>,
    /// The fleet secret, presented upstream in the handshake.
    token: Option<String>,
    nodes: Vec<NodeConn>,
    /// Connected, routable nodes only — a dead node leaves the ring (and
    /// its keys spill to neighbours) until its connection is back.
    ring: HashRing,
    membership: Membership,
    /// router job id → route, for status/cancel and relay bookkeeping.
    jobs: HashMap<u64, RouteEntry>,
    next_job: u64,
    pending_stats: HashMap<u64, PendingStats>,
    next_stats: u64,
    probe_failures: Arc<metrics::Counter>,
    drains: Arc<metrics::Counter>,
    /// Workload kinds advertised in the router's `hello` (the builtin
    /// registry — the nodes decode; the router forwards params untouched).
    workloads: Vec<String>,
}

impl Handler for RouterLoop {
    type State = ();

    fn conns(&mut self) -> &mut Conns<()> {
        &mut self.conns
    }

    fn hello(&self) -> Event {
        Event::Hello {
            protocol: PROTOCOL_VERSION,
            role: Role::Router,
            nodes: self
                .nodes
                .iter()
                .filter(|node| !node.retired)
                .map(|node| node.name.clone())
                .collect(),
            auth: self.conns.requires_auth(),
            // The router runs no engine; per-node capacities are in the
            // `stats` fan-out.
            threads: 0,
            workloads: self.workloads.clone(),
        }
    }

    fn request(&mut self, conn: ConnKey, request: Request) {
        match request {
            Request::Submit {
                label,
                kind,
                params,
                options,
            } => self.handle_submit(conn, label, kind, params, options),
            Request::Status { job } => self.handle_status(conn, job, false),
            Request::Cancel { job } => self.handle_status(conn, job, true),
            Request::Stats => self.handle_stats(conn),
            Request::Drain { node } => self.handle_drain(conn, &node),
            // Answered by the connection core.
            Request::Auth { .. } | Request::Metrics => {}
        }
    }

    /// A downstream connection started closing: cancel its routed jobs on
    /// their nodes.
    fn closed(&mut self, conn: ConnKey, _state: ()) {
        let owned: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, entry)| entry.down == conn)
            .map(|(job, _)| *job)
            .collect();
        for job in owned {
            // A route whose ack is still pending is only dropped: the ack
            // handler finds it gone and cancels then.
            if let Some(RouteEntry {
                node,
                node_job: Some(node_job),
                ..
            }) = self.jobs.remove(&job)
            {
                self.nodes[node].jobs.remove(&node_job);
                self.cancel_upstream(node, node_job);
                self.maybe_finish_drain(node);
            }
        }
    }

    fn after_poll(&mut self) {
        let now = Instant::now();
        for name in self.membership.due_probes(now) {
            self.probe_due(&name, now);
        }
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.membership.next_deadline()
    }

    fn upstream_ready(&mut self, index: usize, event: &PollEvent) {
        let Some(io) = self.nodes.get(index).and_then(|node| node.io.as_ref()) else {
            return;
        };
        if self.nodes[index].phase == Phase::Connecting && (event.writable || event.closed) {
            match io.stream().connect_result() {
                // The next flush subscribes the socket to reads.
                Ok(()) => self.nodes[index].phase = Phase::AwaitHello,
                Err(error) => {
                    let name = &self.nodes[index].name;
                    warn!("route", "node {name}: connect failed: {error}");
                    self.node_failed(index, "connect failed");
                }
            }
            return;
        }
        // Writability needs no bookkeeping: every iteration flushes each
        // node with queued lines.
        if event.readable {
            self.node_readable(index);
        }
        if event.closed && !event.readable {
            self.node_failed(index, "connection closed");
        }
    }

    fn upstream_timer(&mut self, index: usize, key: TimerKey) {
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

    fn flush_upstream(&mut self) {
        for index in 0..self.nodes.len() {
            let node = &mut self.nodes[index];
            let Some(io) = node.io.as_mut().filter(|_| node.phase != Phase::Connecting) else {
                continue;
            };
            if io.flush() {
                io.sync_interest(&self.conns.poller, conn::upstream_token(index), true);
            } else {
                self.node_failed(index, "write error");
            }
        }
    }

    fn stop(&mut self) {
        for index in 0..self.nodes.len() {
            self.disconnect_node(index);
        }
    }
}

impl RouterLoop {
    // -- downstream verbs ---------------------------------------------------

    fn handle_submit(
        &mut self,
        conn: ConnKey,
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
            let message = format!(
                "no routable fleet nodes ({} configured, {connected} connected)",
                self.nodes.len()
            );
            self.conns.push(conn, &Event::Error { message });
            return;
        };
        let Some(index) = self.node_index(&owner) else {
            return;
        };
        let request = Request::Submit {
            label: label.clone(),
            kind,
            params,
            options,
        };
        if !self.node_send(index, &request, Some(conn)) {
            return;
        }
        let router_job = self.next_job;
        self.next_job += 1;
        self.jobs.insert(
            router_job,
            RouteEntry {
                down: conn,
                node: index,
                node_job: None,
                cancel_requested: false,
                started: Instant::now(),
            },
        );
        // Ack immediately with the router-assigned id: acks stay in
        // request order even when consecutive submits route to different
        // nodes. A node-side rejection arrives later as `failed`.
        let event = Event::Submitted {
            job: router_job,
            label,
            node: Some(owner),
        };
        self.conns.push(conn, &event);
        self.nodes[index].awaiting_submit.push_back(router_job);
        self.nodes[index].routed.inc();
    }

    /// Answers `status` (or, with `cancel`, forwards a cancellation) for
    /// one of the connection's routed jobs.
    fn handle_status(&mut self, conn: ConnKey, job: u64, cancel: bool) {
        let Some(entry) = self.jobs.get_mut(&job).filter(|entry| entry.down == conn) else {
            self.conns.push(conn, &conn::bare_status(job, false, false));
            return;
        };
        match entry.node_job {
            Some(node_job) => {
                let index = entry.node;
                let request = if cancel {
                    Request::Cancel { job: node_job }
                } else {
                    Request::Status { job: node_job }
                };
                if self.node_send(index, &request, Some(conn)) {
                    self.nodes[index]
                        .awaiting_status
                        .push_back(StatusWaiter::Client { down: conn, job });
                }
            }
            // The node's ack is still in flight: the job exists but has
            // made no observable progress; a cancel is forwarded with the
            // ack.
            None => {
                entry.cancel_requested |= cancel;
                let event = conn::bare_status(job, true, entry.cancel_requested);
                self.conns.push(conn, &event);
            }
        }
    }

    fn handle_stats(&mut self, conn: ConnKey) {
        let id = self.next_stats;
        self.next_stats += 1;
        let mut pending = PendingStats {
            down: conn,
            remaining: 0,
            parts: Vec::new(),
        };
        let mut queries: Vec<usize> = Vec::new();
        for (index, node) in self.nodes.iter().enumerate() {
            if node.retired {
                continue;
            }
            if node.phase == Phase::Ready {
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
            // A refused client is gone: answers already asked for find no
            // fan-out and are dropped.
            if !self.node_send(index, &Request::Stats, Some(conn)) {
                self.pending_stats.remove(&id);
                return;
            }
            self.nodes[index]
                .awaiting_stats
                .push_back(StatsWaiter::Client(id));
        }
    }

    /// Adds one node's answer to fan-out `id`, answering the client once
    /// every node is in.
    fn stats_part(&mut self, id: u64, part: NodeStats) {
        let Some(pending) = self.pending_stats.get_mut(&id) else {
            return;
        };
        pending.parts.push(part);
        pending.remaining -= 1;
        if pending.remaining == 0 {
            if let Some(pending) = self.pending_stats.remove(&id) {
                self.finish_stats(pending);
            }
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
        self.conns.push(down, &Event::Stats(total));
    }

    fn handle_drain(&mut self, conn: ConnKey, name: &str) {
        let Some(index) = self.node_index(name) else {
            let message = format!("cannot drain '{name}': not a fleet node");
            self.conns.push(conn, &Event::Error { message });
            return;
        };
        if self.nodes[index].retired {
            let message = format!("cannot drain '{name}': already drained");
            self.conns.push(conn, &Event::Error { message });
            return;
        }
        if self.membership.health(name) != Some(Health::Draining) {
            self.drains.inc();
            self.membership.begin_drain(name);
            self.ring.remove(name);
            self.nodes[index].up_gauge.set(0);
        }
        let in_flight = self.nodes[index].jobs.len() + self.nodes[index].awaiting_submit.len();
        let event = Event::Draining {
            node: name.to_string(),
            in_flight,
        };
        self.conns.push(conn, &event);
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

    // -- upstream -----------------------------------------------------------

    fn node_index(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|node| node.name == name)
    }

    /// Queues one request line to a node (flushed when the loop settles);
    /// `false` if it was refused. A client's request (`from`) over the
    /// link's caps or [`NODE_MAX_UNANSWERED`] disconnects that client as a
    /// slow consumer, not the node and everyone's jobs on it. The router's
    /// own requests are bounded by the node's jobs in flight and skip the
    /// caps, so none is ever lost.
    fn node_send(&mut self, index: usize, request: &Request, from: Option<ConnKey>) -> bool {
        let node = &mut self.nodes[index];
        let unanswered =
            node.awaiting_submit.len() + node.awaiting_status.len() + node.awaiting_stats.len();
        let Some(io) = node.io.as_mut() else {
            return true;
        };
        let mut line = request.encode();
        line.push('\n');
        match from {
            None => io.push_uncapped(line, None),
            Some(conn)
                if unanswered >= NODE_MAX_UNANSWERED || io.push(line, None) == Push::Overflow =>
            {
                self.conns.slow_consumer(conn);
                return false;
            }
            Some(_) => {}
        }
        true
    }

    /// Cancels a node job on the router's own behalf (its submitter is
    /// gone), swallowing the node's answer.
    fn cancel_upstream(&mut self, index: usize, node_job: u64) {
        self.nodes[index]
            .awaiting_status
            .push_back(StatusWaiter::Discard);
        self.node_send(index, &Request::Cancel { job: node_job }, None);
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
        if self.nodes[index].phase == Phase::Idle {
            self.start_connect(index, now);
            return;
        }
        // A handshake in flight resolves on its own deadline.
        self.membership.begin_probe(name, now);
        if self.nodes[index].phase == Phase::Ready && self.nodes[index].op_timer.is_none() {
            let deadline = now + PROBE_TIMEOUT;
            self.nodes[index].op_timer =
                Some(self.conns.wheel.arm(deadline, Timer::Upstream(index)));
            self.nodes[index]
                .awaiting_stats
                .push_back(StatsWaiter::Probe);
            self.node_send(index, &Request::Stats, None);
        }
    }

    fn start_connect(&mut self, index: usize, now: Instant) {
        let name = self.nodes[index].name.clone();
        self.membership.begin_probe(&name, now);
        let Some(addr) = name.to_socket_addrs().ok().and_then(|mut it| it.next()) else {
            self.node_failed(index, "address does not resolve");
            return;
        };
        let (stream, status) = match Stream::connect(&addr) {
            Ok(connected) => connected,
            Err(error) => {
                warn!("route", "node {name}: connect failed: {error}");
                self.node_failed(index, "connect failed");
                return;
            }
        };
        let (phase, interest) = match status {
            ConnectStatus::Ready => (Phase::AwaitHello, Interest::READABLE),
            ConnectStatus::InProgress => (Phase::Connecting, Interest::WRITABLE),
        };
        let token = conn::upstream_token(index);
        match LineIo::register(stream, usize::MAX, &self.conns.poller, token, interest) {
            Ok(io) => {
                let deadline = now + CONNECT_TIMEOUT;
                let node = &mut self.nodes[index];
                node.io = Some(io);
                node.phase = phase;
                node.op_timer = Some(self.conns.wheel.arm(deadline, Timer::Upstream(index)));
            }
            Err(error) => {
                warn!("route", "node {name}: registration failed: {error}");
                self.node_failed(index, "poller registration failed");
            }
        }
    }

    fn node_readable(&mut self, index: usize) {
        loop {
            let Some(io) = self.nodes[index].io.as_mut() else {
                return;
            };
            match io.fill(true) {
                Ok(IoStatus::Ready(_)) => {}
                Ok(IoStatus::WouldBlock) => return,
                Ok(IoStatus::Closed) => return self.node_failed(index, "connection closed"),
                Err(_) => return self.node_failed(index, "read error"),
            }
            loop {
                let Some(io) = self.nodes[index].io.as_mut() else {
                    return;
                };
                match io.next_line() {
                    Ok(Some(line)) => {
                        if !self.process_node_line(index, &line) {
                            return;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => return self.node_failed(index, "unframeable node output"),
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
                let name = &self.nodes[index].name;
                warn!("route", "node {name}: undecodable event: {error}");
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
        let Event::Hello {
            protocol,
            role,
            auth,
            ..
        } = event
        else {
            warn!("route", "node {name}: expected hello, got {event:?}");
            self.node_failed(index, "protocol violation");
            return false;
        };
        let refusal = if protocol != PROTOCOL_VERSION {
            warn!(
                "route",
                "node {name} speaks protocol {protocol}, router speaks {PROTOCOL_VERSION}"
            );
            "protocol version mismatch"
        } else if role != Role::Node {
            warn!("route", "node {name} is a {}, not a node", role.as_str());
            "peer is not a node"
        } else if let Some(token) = self.token.clone() {
            self.nodes[index].phase = Phase::AwaitAuthOk;
            self.node_send(index, &Request::Auth { token }, None);
            return true;
        } else if auth {
            warn!(
                "route",
                "node {name} requires a token and none is configured"
            );
            "node requires authentication"
        } else {
            self.node_ready(index);
            return true;
        };
        self.node_failed(index, refusal);
        false
    }

    fn handshake_auth_ok(&mut self, index: usize, event: Event) -> bool {
        if event == Event::AuthOk {
            self.node_ready(index);
            return true;
        }
        let name = &self.nodes[index].name;
        warn!("route", "node {name}: expected auth_ok, got {event:?}");
        self.node_failed(index, "authentication rejected");
        false
    }

    /// The handshake finished: the node (re)joins the ring.
    fn node_ready(&mut self, index: usize) {
        let name = self.nodes[index].name.clone();
        if let Some(timer) = self.nodes[index].op_timer.take() {
            self.conns.wheel.cancel(timer);
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
    fn relay_node_event(&mut self, index: usize, mut event: Event) {
        let name = self.nodes[index].name.clone();
        match event {
            Event::Submitted { job: node_job, .. } => {
                let Some(router_job) = self.nodes[index].awaiting_submit.pop_front() else {
                    return;
                };
                let Some(entry) = self.jobs.get_mut(&router_job) else {
                    // The submitter hung up between forward and ack (its
                    // close dropped the route): cancel on its behalf and
                    // never learn this node job's id.
                    self.cancel_upstream(index, node_job);
                    self.maybe_finish_drain(index);
                    return;
                };
                entry.node_job = Some(node_job);
                let wants_cancel = entry.cancel_requested;
                self.nodes[index].jobs.insert(node_job, router_job);
                if wants_cancel {
                    // A cancel arrived before the ack; forward it now that
                    // the node's id is known.
                    self.cancel_upstream(index, node_job);
                }
            }
            Event::Busy {
                in_flight, limit, ..
            } => {
                // The router already acked `submitted`, so a node-side
                // admission rejection becomes a terminal failure.
                let message =
                    format!("node {name} rejected the job ({in_flight} in flight, limit {limit})");
                self.fail_pending_submit(index, "busy", message);
            }
            Event::Error { message } => {
                // The only errors a node sends in answer to well-formed
                // router traffic are submit rejections (unknown kind, bad
                // params) — attribute to the oldest pending submit.
                if self.nodes[index].awaiting_submit.is_empty() {
                    warn!("route", "node {name}: unattributed error: {message}");
                    return;
                }
                self.fail_pending_submit(index, "rejected", message);
            }
            // Relayed in place: the router's job id, tagged with the node.
            Event::Progress {
                job: ref mut job_id,
                ref mut node,
                ..
            } => {
                let Some(&router_job) = self.nodes[index].jobs.get(job_id) else {
                    return;
                };
                let Some(down) = self.jobs.get(&router_job).map(|entry| entry.down) else {
                    return;
                };
                (*job_id, *node) = (router_job, Some(name));
                self.conns
                    .push_line(down, encode_line(&event), Some(router_job));
            }
            Event::Done {
                job: ref mut job_id,
                ref mut node,
                ..
            }
            | Event::Failed {
                job: ref mut job_id,
                ref mut node,
                ..
            } => {
                if let Some((router_job, entry)) = self.take_route(index, *job_id) {
                    (*job_id, *node) = (router_job, Some(name.clone()));
                    let outcome = if matches!(event, Event::Done { .. }) {
                        "done"
                    } else {
                        "failed"
                    };
                    emit_route_span(&name, &entry, outcome);
                    self.conns.push(entry.down, &event);
                }
                self.maybe_finish_drain(index);
            }
            Event::Status {
                job: ref mut job_id,
                ..
            } => {
                if let Some(StatusWaiter::Client { down, job }) =
                    self.nodes[index].awaiting_status.pop_front()
                {
                    *job_id = job;
                    self.conns.push(down, &event);
                }
            }
            Event::Stats(stats) => match self.nodes[index].awaiting_stats.pop_front() {
                Some(StatsWaiter::Client(id)) => {
                    let health = health_name(self.membership.health(&name));
                    let part = NodeStats {
                        node: name,
                        health,
                        stats,
                    };
                    self.stats_part(id, part);
                }
                Some(StatsWaiter::Probe) => {
                    if let Some(timer) = self.nodes[index].op_timer.take() {
                        self.conns.wheel.cancel(timer);
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

    /// The node refused the oldest pending submit: fail it downstream
    /// with `kind`.
    fn fail_pending_submit(&mut self, index: usize, kind: &str, message: String) {
        let Some(router_job) = self.nodes[index].awaiting_submit.pop_front() else {
            return;
        };
        if let Some(entry) = self.jobs.remove(&router_job) {
            let event = Event::Failed {
                job: router_job,
                kind: kind.to_string(),
                message,
                node: Some(self.nodes[index].name.clone()),
            };
            self.conns.push(entry.down, &event);
        }
        self.maybe_finish_drain(index);
    }

    /// Removes one finished job's route entry from both id spaces.
    fn take_route(&mut self, index: usize, node_job: u64) -> Option<(u64, RouteEntry)> {
        let router_job = self.nodes[index].jobs.remove(&node_job)?;
        let entry = self.jobs.remove(&router_job)?;
        Some((router_job, entry))
    }

    /// The node is gone (connect refused, handshake timeout, probe
    /// timeout, EOF, protocol violation): fail
    /// everything in flight on it with the structured `node_lost` kind,
    /// drop it from the ring, and let the membership backoff schedule the
    /// reconnect.
    fn node_failed(&mut self, index: usize, why: &str) {
        let name = self.nodes[index].name.clone();
        self.probe_failures.inc();
        self.disconnect_node(index);
        // In-flight jobs: both acked ones and those whose ack is pending.
        let mut lost: Vec<u64> = self.nodes[index].jobs.drain().map(|(_, job)| job).collect();
        lost.extend(self.nodes[index].awaiting_submit.drain(..));
        for router_job in lost {
            if let Some(entry) = self.jobs.remove(&router_job) {
                emit_route_span(&name, &entry, "node_lost");
                let event = Event::Failed {
                    job: router_job,
                    kind: "node_lost".to_string(),
                    message: format!("node {name} was lost ({why})"),
                    node: Some(name.clone()),
                };
                self.conns.push(entry.down, &event);
            }
        }
        let waiters: Vec<StatusWaiter> = self.nodes[index].awaiting_status.drain(..).collect();
        for waiter in waiters {
            if let StatusWaiter::Client { down, job } = waiter {
                self.conns.push(down, &conn::bare_status(job, false, false));
            }
        }
        let health = health_name(self.membership.record_failure(&name, Instant::now()));
        let stats_waiters: Vec<StatsWaiter> = self.nodes[index].awaiting_stats.drain(..).collect();
        for waiter in stats_waiters {
            if let StatsWaiter::Client(id) = waiter {
                let part = NodeStats {
                    node: name.clone(),
                    health: health.clone(),
                    stats: ServerStats::default(),
                };
                self.stats_part(id, part);
            }
        }
        self.ring.remove(&name);
        self.nodes[index].up_gauge.set(0);
        if self.membership.health(&name) == Some(Health::Draining) {
            // A draining node that died finishes its drain the hard way.
            self.retire_node(index);
        }
    }

    /// Drops the socket (and its queue); bookkeeping (jobs, waiters) is
    /// the caller's concern.
    fn disconnect_node(&mut self, index: usize) {
        let node = &mut self.nodes[index];
        if let Some(timer) = node.op_timer.take() {
            self.conns.wheel.cancel(timer);
        }
        if let Some(io) = node.io.take() {
            self.conns.poller.deregister(io.stream());
        }
        node.phase = Phase::Idle;
    }
}

fn emit_route_span(node: &str, entry: &RouteEntry, outcome: &str) {
    let dur_us = entry.started.elapsed().as_micros() as u64;
    trace::emit_interval(
        "route",
        None,
        entry.started,
        dur_us,
        &[("node", node.to_string()), ("outcome", outcome.to_string())],
    );
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
