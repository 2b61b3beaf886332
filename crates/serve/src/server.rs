//! The node role: one event-loop thread over one shared engine.
//!
//! The connection lifecycle — framing, bounded outbound queues, the idle
//! timeout ([`Server::with_idle_timeout`]), the auth gate, the serve
//! instruments — is the core shared with the router (`crate::conn`); this
//! module is the node's verbs. Engine progress/completion hooks run on the
//! job's coordinator thread and only post a note and ring the loop's
//! doorbell — no per-job waiter thread. All connections share one
//! [`Engine`], so two clients sweeping the same Hamiltonian share the
//! min-cost-flow solve exactly as two jobs of one in-process batch would;
//! each `done` event's `cache_delta` makes that visible per job.
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
//! Disconnect policy: when a connection starts closing — the client hung
//! up, was reaped by a timeout, or fell behind — its unfinished jobs are
//! cancelled (cooperatively), so an interrupted sweep stops consuming the
//! pool.
//!
//! See `docs/net.md` for the reactor architecture and the connection
//! state-machine lifecycle.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use marqsim_engine::{Engine, JobControl, SubmitOptions};
use marqsim_net::WakeHandle;
use marqsim_obs::lockcheck;

use crate::conn::{self, encode_line, ConnKey, Conns, Endpoint, Handler, LoopHandle};
use crate::protocol::{failure_kind, Event, Request, Role, ServerStats, PROTOCOL_VERSION};
use crate::registry::WorkloadRegistry;

/// Once a connection tracks this many jobs, finished entries are evicted
/// from its registry before the next submit, so a long-lived connection
/// submitting in a loop stays bounded. Consequence: `status` of a job that
/// finished more than ~this many submissions ago may answer `known=false`.
const MAX_TRACKED_JOBS: usize = 1024;

/// Default per-connection in-flight job bound when neither the submit's
/// `options.max_in_flight` nor [`Server::with_max_in_flight`] overrides it.
pub const DEFAULT_MAX_IN_FLIGHT: usize = 32;

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
    endpoint: Endpoint,
    registry: Arc<WorkloadRegistry>,
    max_in_flight: usize,
    max_active_jobs: usize,
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
        Ok(Server {
            engine,
            endpoint: Endpoint::bind(addr)?,
            registry: Arc::new(WorkloadRegistry::builtin()),
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
            max_active_jobs: 0,
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
        self.endpoint.secret = Some(token.into());
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
        let conns = self.endpoint.into_conns("serve")?;
        let mailbox = Mailbox {
            queue: Arc::default(),
            wake: conns.wake_handle(),
        };
        conn::run(&mut EventLoop {
            conns,
            engine: self.engine,
            registry: self.registry,
            max_in_flight: self.max_in_flight,
            max_active_jobs: self.max_active_jobs,
            global_active: Arc::new(AtomicUsize::new(0)),
            mailbox,
        })
    }

    /// Moves the event loop to a background thread and returns a handle
    /// with the bound address and a shutdown switch — the shape the tests
    /// and the in-process smoke binary use.
    ///
    /// # Errors
    ///
    /// Propagates socket introspection failures.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let engine = Arc::clone(&self.engine);
        let inner = self
            .endpoint
            .handle()?
            .start("marqsim-serve-loop", "serve", move || self.run())?;
        Ok(ServerHandle { engine, inner })
    }
}

/// Handle to a background server from [`Server::spawn`].
pub struct ServerHandle {
    engine: Arc<Engine>,
    inner: LoopHandle,
}

impl ServerHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// The served engine (e.g. for asserting cache stats in tests).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Stops the event loop and joins it. Open connections are closed and
    /// their unfinished jobs cancelled.
    pub fn shutdown(self) {
        self.inner.stop();
    }
}

/// A connection's jobs: the scope of its `status`/`cancel` verbs and its
/// in-flight gauge.
#[derive(Default)]
struct Jobs {
    table: HashMap<u64, JobControl>,
    /// Incremented at submit, decremented when the job's terminal note is
    /// processed. Event-loop-local, so no atomics.
    in_flight: usize,
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

/// The engine→loop note queue: hook threads post, the loop takes.
#[derive(Clone)]
struct Mailbox {
    queue: Arc<Mutex<VecDeque<Note>>>,
    wake: WakeHandle,
}

impl Mailbox {
    /// Queues one note and rings the loop's doorbell (outside the lock).
    fn post(&self, note: Note) {
        {
            let _witness = lockcheck::acquire("serve.server.notes");
            let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.push_back(note);
        }
        self.wake.wake();
    }

    fn take(&self) -> VecDeque<Note> {
        let _witness = lockcheck::acquire("serve.server.notes");
        std::mem::take(&mut *self.queue.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// A held engine-wide admission slot (`None` when no global bound is
/// configured). Dropping it releases the slot, so every path out of
/// `submit` — per-connection rejection, decode failure, or the completion
/// hook's terminal note — frees it exactly once.
struct GlobalSlot(Option<Arc<AtomicUsize>>);

impl Drop for GlobalSlot {
    fn drop(&mut self) {
        if let Some(counter) = self.0.take() {
            counter.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// The node's half of the event loop owned by [`Server::run`]'s thread.
struct EventLoop {
    conns: Conns<Jobs>,
    engine: Arc<Engine>,
    registry: Arc<WorkloadRegistry>,
    max_in_flight: usize,
    max_active_jobs: usize,
    /// Jobs holding an engine-wide admission slot (reserved at submit,
    /// released when the job reaches its terminal event). A shared atomic
    /// rather than a read of the engine's gauge, so concurrent submits on
    /// different connections cannot all pass the check at once.
    global_active: Arc<AtomicUsize>,
    mailbox: Mailbox,
}

impl Handler for EventLoop {
    type State = Jobs;

    fn conns(&mut self) -> &mut Conns<Jobs> {
        &mut self.conns
    }

    fn hello(&self) -> Event {
        Event::Hello {
            protocol: PROTOCOL_VERSION,
            role: Role::Node,
            nodes: Vec::new(),
            auth: self.conns.requires_auth(),
            threads: self.engine.threads(),
            workloads: self.registry.kinds(),
        }
    }

    fn request(&mut self, conn: ConnKey, request: Request) {
        match request {
            Request::Submit {
                label,
                kind,
                params,
                options,
            } => self.submit(conn, label, kind, params, options),
            Request::Status { job } => {
                let event = self.status(conn, job);
                self.conns.push(conn, &event);
            }
            Request::Cancel { job } => {
                if let Some(control) = self.conns.state(conn).and_then(|jobs| jobs.table.get(&job))
                {
                    control.cancel();
                }
                let event = self.status(conn, job);
                self.conns.push(conn, &event);
            }
            Request::Stats => {
                let event = Event::Stats(ServerStats {
                    threads: self.engine.threads(),
                    cache: self.engine.cache().stats(),
                    active_jobs: self.engine.active_jobs(),
                    queue_depth: self.engine.queue_depth(),
                    in_flight: self.conns.state(conn).map_or(0, |jobs| jobs.in_flight),
                    max_active_jobs: self.max_active_jobs,
                    per_node: Vec::new(),
                });
                self.conns.push(conn, &event);
            }
            Request::Drain { node } => {
                let message = format!("cannot drain '{node}': this server is a node, not a router");
                self.conns.push(conn, &Event::Error { message });
            }
            // Answered by the connection core.
            Request::Auth { .. } | Request::Metrics => {}
        }
    }

    fn closed(&mut self, _conn: ConnKey, jobs: Jobs) {
        // Cancel whatever the client left running so an interrupted sweep
        // stops consuming the pool.
        for control in jobs.table.values().filter(|control| !control.is_finished()) {
            control.cancel();
        }
    }

    fn after_poll(&mut self) {
        // Notes drain after the request batch, so the wire order is always
        // submitted → progress → done.
        for note in self.mailbox.take() {
            match note {
                Note::Progress {
                    conn,
                    job,
                    completed,
                    total,
                } => {
                    let event = Event::Progress {
                        job,
                        completed,
                        total,
                        node: None,
                    };
                    self.conns.push_line(conn, encode_line(&event), Some(job));
                }
                Note::Terminal { conn, line } => {
                    if let Some(jobs) = self.conns.state_mut(conn) {
                        jobs.in_flight = jobs.in_flight.saturating_sub(1);
                    }
                    self.conns.push_line(conn, line, None);
                }
            }
        }
    }
}

impl EventLoop {
    fn status(&self, conn: ConnKey, job: u64) -> Event {
        let Some(control) = self.conns.state(conn).and_then(|jobs| jobs.table.get(&job)) else {
            return conn::bare_status(job, false, false);
        };
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

    fn submit(
        &mut self,
        conn: ConnKey,
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
                    self.conns.push(conn, &event);
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
        let Some(currently) = self.conns.state(conn).map(|jobs| jobs.in_flight) else {
            return;
        };
        if currently >= limit {
            let event = Event::Busy {
                label,
                in_flight: currently,
                limit,
            };
            self.conns.push(conn, &event);
            return;
        }

        let workload = match self.registry.decode(&kind, &label, &params) {
            Ok(workload) => workload,
            Err(message) => {
                self.conns.push(conn, &Event::Error { message });
                return;
            }
        };

        let stats_before = self.engine.cache().stats();
        // Hooks run on the job's coordinator thread and carry the
        // engine-assigned id, so there is no submit/progress id race to
        // gate: they post a note and ring the loop's doorbell.
        let progress_mailbox = self.mailbox.clone();
        let terminal_mailbox = self.mailbox.clone();
        let engine = Arc::clone(&self.engine);
        let registry = Arc::clone(&self.registry);
        let control = self.engine.submit_with_hooks(
            workload,
            options,
            move |job, progress| {
                progress_mailbox.post(Note::Progress {
                    conn,
                    job: job.0,
                    completed: progress.completed,
                    total: progress.total,
                });
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
                terminal_mailbox.post(Note::Terminal {
                    conn,
                    line: encode_line(&event),
                });
            },
        );

        let job = control.id().0;
        let Some(jobs) = self.conns.state_mut(conn) else {
            return;
        };
        jobs.in_flight += 1;
        if jobs.table.len() >= MAX_TRACKED_JOBS {
            jobs.table.retain(|_, control| !control.is_finished());
        }
        jobs.table.insert(job, control);
        let event = Event::Submitted {
            job,
            label,
            node: None,
        };
        self.conns.push(conn, &event);
    }
}
