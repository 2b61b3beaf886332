//! Typed protocol messages and their JSON encodings.
//!
//! One [`Request`] per client line, one [`Event`] per server line. The
//! protocol is versioned by the `hello` event the server sends on connect;
//! a client should check [`PROTOCOL_VERSION`] before submitting.
//!
//! # The open submit verb
//!
//! Protocol 2 generalizes `submit` from a closed job enum to a **workload
//! kind** plus an opaque `params` object. The server resolves the kind
//! through its [`WorkloadRegistry`](crate::WorkloadRegistry); the `hello`
//! event advertises the kinds a server accepts. New workloads therefore
//! change *no* protocol code — only a registry entry.
//!
//! # Verbs (client → server)
//!
//! ```json
//! {"verb":"auth","token":"s3cret"}
//! {"verb":"submit","label":"sweep/h2","kind":"sweep","params":{"hamiltonian":"0.9 ZZ + 0.5 XX","strategy":{"kind":"gate-cancellation","qdrift_weight":0.4},"config":{"time":0.5,"epsilons":[0.1,0.05],"repeats":3,"base_seed":1,"evaluate_fidelity":false}},"options":{"priority":"high","max_in_flight":4,"progress_units":100,"progress_ms":100}}
//! {"verb":"status","job":1}
//! {"verb":"cancel","job":1}
//! {"verb":"stats"}
//! {"verb":"drain","node":"127.0.0.1:7432"}
//! ```
//!
//! The `options` object is optional, as is each of its fields:
//! `priority` (`"low"`/`"normal"`/`"high"`), `max_in_flight` (admission
//! bound for this connection — tightens the server default, never raises
//! it), `progress_units` / `progress_ms` (progress coalescing — at most
//! one event per that many units / milliseconds; a lone `progress_ms`
//! disables the unit axis entirely).
//!
//! # Events (server → client)
//!
//! ```json
//! {"event":"hello","protocol":8,"role":"node","nodes":[],"auth":false,"threads":4,"workloads":["benchmark_suite","compile","perturb_average","sweep"]}
//! {"event":"auth_ok"}
//! {"event":"submitted","job":1,"label":"sweep/h2"}
//! {"event":"busy","label":"sweep/h2","in_flight":4,"limit":4}
//! {"event":"progress","job":1,"completed":3,"total":6}
//! {"event":"done","job":1,"outcome":{"kind":"sweep",...},"cache_delta":{...}}
//! {"event":"failed","job":1,"kind":"cancelled","message":"..."}
//! {"event":"status","job":1,"known":true,"finished":false,"cancelled":false,"completed":3,"total":6}
//! {"event":"stats","threads":4,"cache":{...},"active_jobs":2,"queue_depth":17,"in_flight":1,"max_active_jobs":0}
//! {"event":"draining","node":"127.0.0.1:7432","in_flight":2}
//! {"event":"error","message":"..."}
//! ```
//!
//! A router's `hello` carries `role:"router"` plus its `nodes` list; events
//! it relays for routed jobs add a `node` field naming the owning daemon,
//! and its `stats` answer aggregates the fleet with a per-node breakdown
//! under `nodes`. A node that lost its daemon mid-job surfaces as
//! `failed` with `kind:"node_lost"`.
//!
//! Numbers follow the [`wire`](crate::wire) conventions: `u64` ids/seeds
//! are exact integers, floats use shortest-round-trip encoding, so a sweep
//! result decoded from the wire is bit-identical to the in-process result.

use std::time::Duration;

use marqsim_core::experiment::{ExperimentPoint, SweepConfig, SweepResult};
use marqsim_core::metrics::SequenceStats;
use marqsim_core::perturb::PerturbationConfig;
use marqsim_core::TransitionStrategy;
use marqsim_engine::{
    BenchmarkSuiteResult, CacheStats, EngineError, PerturbAverageResult, Priority, ProgressCadence,
    SubmitOptions, SuiteCaseResult,
};
use marqsim_markov::TransitionMatrix;

use crate::wire::{Json, WireError};

/// Version of the wire protocol; bumped on breaking changes. Version 2
/// introduced the open (kind + params) submit verb, submit options,
/// admission control (`busy`), and the extended `stats` event. Version 3
/// added min-cost-flow backend selection (`options.flow_solver`, advertised
/// in `hello`, echoed in `done`/`stats` with per-backend solve counters)
/// and the engine-wide `max_active_jobs` admission bound. Version 4 added
/// the telemetry surface: the `metrics` verb returning the process-wide
/// Prometheus-style text exposition plus this connection's request/byte
/// counters (see `docs/observability.md`). Version 5 added the
/// `warm_starts` counter to every cache-stats payload (`done` deltas and
/// the `stats` event): warm basis re-pivots are attributed separately
/// from cold `flow_solves`. Version 6 rebuilt the server as a
/// single-threaded event loop (same wire surface) and registered the
/// `auto` flow-solver policy: `hello.flow_solvers` now lists `auto`
/// alongside the concrete backends, `options.flow_solver` accepts it, and
/// a `done` event for an auto job echoes `"auto"` while its cache delta
/// attributes the solves to the backend the policy resolved to. Version 7
/// is the fleet protocol: `hello` advertises `role` (`node`/`router`),
/// the router's `nodes` list, and whether `auth` is required; the `auth`
/// verb carries the shared secret (`MARQSIM_SERVE_TOKEN`) and is answered
/// by `auth_ok`; routed-job events (`submitted`/`progress`/`done`/
/// `failed`) carry the owning `node`; a daemon that dies mid-job fails
/// its routed jobs with `kind:"node_lost"`; the `drain` verb starts a
/// planned removal (answered by `draining`); and a router's `stats`
/// answer aggregates the fleet with a per-node breakdown under `nodes`.
/// Version 8 removed min-cost-flow backend selection with the second
/// backend: `options.flow_solver`, `hello.flow_solver`/`flow_solvers`, the
/// `flow_solver` echo in `done` and `stats`, and the per-backend split of
/// the cache's flow-solve counter are gone. Every solve runs the network
/// simplex.
///
/// Clients enforce an exact version match at the handshake.
pub const PROTOCOL_VERSION: u64 = 8;

/// What a server *is*, advertised in `hello`: a plain daemon running jobs
/// itself, or a router forwarding them across a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Role {
    /// A daemon executing jobs on its own engine.
    #[default]
    Node,
    /// A front-end forwarding jobs to fleet nodes by fingerprint.
    Router,
}

impl Role {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Node => "node",
            Role::Router => "router",
        }
    }
}

fn parse_role(name: &str) -> Result<Role, WireError> {
    match name {
        "node" => Ok(Role::Node),
        "router" => Ok(Role::Router),
        other => Err(WireError::shape(format!("unknown role '{other}'"))),
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Present the shared secret. Must be the first verb when the `hello`
    /// event set `auth:true`; answered by `auth_ok` or a fatal `error`.
    Auth {
        /// The shared secret (`MARQSIM_SERVE_TOKEN` on the server).
        token: String,
    },
    /// Submit one workload; the server answers with `submitted` carrying
    /// the job id (or `busy` when the connection's admission bound is hit),
    /// then streams `progress` and finally `done` / `failed`.
    Submit {
        /// Client-chosen label echoed in every event about this job.
        label: String,
        /// Workload kind, resolved through the server's registry.
        kind: String,
        /// Kind-specific parameters, passed to the registry decoder as-is.
        params: Json,
        /// Typed submission options (priority, admission, progress cadence).
        options: SubmitOptions,
    },
    /// Query one job's state.
    Status {
        /// Job id from `submitted`.
        job: u64,
    },
    /// Request cooperative cancellation of one job.
    Cancel {
        /// Job id from `submitted`.
        job: u64,
    },
    /// Query engine-wide statistics.
    Stats,
    /// Query the process-wide telemetry registry (Prometheus-style text
    /// exposition) plus this connection's request/byte counters.
    Metrics,
    /// Ask a router to gracefully remove a fleet node: stop routing new
    /// work to it, let its in-flight jobs finish, then drop it. Answered
    /// by `draining` (or `error` for an unknown node / non-router).
    Drain {
        /// The node's advertised name (`host:port` from `hello.nodes`).
        node: String,
    },
}

/// One fleet node's slice of a router's `stats` answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStats {
    /// The node's advertised name (`host:port`).
    pub node: String,
    /// The node's health as the router sees it (`"up"`, `"suspect"`,
    /// `"down"`, `"draining"`).
    pub health: String,
    /// The node's own stats answer; zeroed for an unreachable node.
    pub stats: ServerStats,
}

/// The payload of the `stats` event.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Engine worker-thread count.
    pub threads: usize,
    /// Engine-wide cache counters.
    pub cache: CacheStats,
    /// Jobs submitted (engine-wide) that have not yet produced an outcome.
    pub active_jobs: usize,
    /// Point-level tasks waiting in the pool's injector.
    pub queue_depth: usize,
    /// In-flight jobs on *this* connection (what the per-connection
    /// admission bound compares against).
    pub in_flight: usize,
    /// Engine-wide active-job admission bound across all connections
    /// (`MARQSIM_MAX_ACTIVE_JOBS`); `0` means unlimited.
    pub max_active_jobs: usize,
    /// A router's per-node breakdown (the aggregate is in the top-level
    /// fields); empty for a plain node.
    pub per_node: Vec<NodeStats>,
}

/// A server event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// First line of every connection.
    Hello {
        /// [`PROTOCOL_VERSION`] of the server.
        protocol: u64,
        /// Whether this server runs jobs itself or routes them.
        role: Role,
        /// A router's fleet node names; empty for a plain node.
        nodes: Vec<String>,
        /// Whether the `auth` verb must precede every other verb.
        auth: bool,
        /// Engine worker-thread count.
        threads: usize,
        /// Workload kinds this server accepts, sorted.
        workloads: Vec<String>,
    },
    /// The shared secret in `auth` matched; every verb is now accepted.
    AuthOk,
    /// Acknowledges a `submit`; all later events about this job carry `job`.
    Submitted {
        /// Engine-unique job id.
        job: u64,
        /// The label from the request.
        label: String,
        /// The fleet node the job routed to (router connections only).
        node: Option<String>,
    },
    /// A `submit` was rejected by admission control: the connection already
    /// has `in_flight` unfinished jobs against a bound of `limit`. Nothing
    /// was queued; resubmit after a `done`/`failed` event frees a slot.
    Busy {
        /// The label of the rejected request (no job id was assigned).
        label: String,
        /// In-flight jobs on this connection at rejection time.
        in_flight: usize,
        /// The effective admission bound.
        limit: usize,
    },
    /// One unit of the job finished (subject to the submit's progress
    /// cadence).
    Progress {
        /// Job id.
        job: u64,
        /// Units finished so far.
        completed: usize,
        /// Total units of the job.
        total: usize,
        /// The fleet node running the job (router connections only).
        node: Option<String>,
    },
    /// The job finished successfully.
    Done {
        /// Job id.
        job: u64,
        /// The result.
        outcome: Outcome,
        /// Cache-counter delta attributed to this job (snapshot difference
        /// between submission and completion; concurrent jobs' activity can
        /// bleed into each other's windows).
        cache_delta: CacheStats,
        /// The fleet node that ran the job (router connections only).
        node: Option<String>,
    },
    /// The job failed or was cancelled.
    Failed {
        /// Job id.
        job: u64,
        /// `"compile"`, `"panic"`, `"cancelled"`, `"workload"`,
        /// `"invalid-config"`, `"encode"` (registry encoder rejected the
        /// output), or `"node_lost"` (the fleet node running the job died).
        kind: String,
        /// Human-readable description.
        message: String,
        /// The fleet node the job was on (router connections only).
        node: Option<String>,
    },
    /// Answer to `status`.
    Status {
        /// Job id queried.
        job: u64,
        /// Whether the server knows this job (ids are per connection).
        known: bool,
        /// Whether the outcome has been produced.
        finished: bool,
        /// Whether cancellation has been requested.
        cancelled: bool,
        /// Units finished so far.
        completed: usize,
        /// Total units (0 until expansion).
        total: usize,
    },
    /// Answer to `stats`.
    Stats(ServerStats),
    /// Answer to `metrics`.
    Metrics {
        /// The process-wide metrics registry rendered as Prometheus-style
        /// text exposition (counters, gauges, cumulative histograms).
        exposition: String,
        /// Requests this connection has sent, including the `metrics`
        /// request being answered.
        requests: u64,
        /// Bytes read from this connection so far.
        bytes_in: u64,
        /// Bytes written to this connection before this event.
        bytes_out: u64,
    },
    /// Acknowledges a `drain`: the router stopped routing new work to the
    /// node and will drop it once its in-flight jobs finish.
    Draining {
        /// The node being drained.
        node: String,
        /// Routed jobs still running on the node at drain time.
        in_flight: usize,
    },
    /// A request could not be understood or carried invalid data. The
    /// connection stays open.
    Error {
        /// Human-readable description.
        message: String,
    },
}

/// A finished job's payload. Built-in kinds decode to typed variants; any
/// other kind (a custom registry entry) decodes to [`Outcome::Other`] with
/// the raw JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Result of a `sweep` job.
    Sweep(SweepResult),
    /// Summary of a `compile` job.
    Compile(CompileSummary),
    /// Result of a `perturb_average` job (bit-exact matrix round trip).
    PerturbAverage(PerturbAverageResult),
    /// Result of a `benchmark_suite` job.
    Suite(BenchmarkSuiteResult),
    /// A custom workload kind's outcome, as raw JSON.
    Other {
        /// The `kind` field of the outcome object.
        kind: String,
        /// The full outcome object.
        value: Json,
    },
}

/// The wire summary of a compile job (the full `CompileResult` holds the
/// sampled sequence and circuit, which are orders of magnitude larger than
/// what remote evaluation consumers need).
#[derive(Debug, Clone, PartialEq)]
pub struct CompileSummary {
    /// Number of sampling steps `N`.
    pub num_samples: usize,
    /// `λ = Σ_j |h_j|`.
    pub lambda: f64,
    /// Sequence-level gate statistics.
    pub stats: SequenceStats,
    /// Unitary fidelity, when requested.
    pub fidelity: Option<f64>,
}

// ---------------------------------------------------------------------------
// Field-access helpers (shared with the registry codecs)
// ---------------------------------------------------------------------------

pub(crate) fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, WireError> {
    obj.get(key)
        .ok_or_else(|| WireError::shape(format!("missing field '{key}'")))
}

pub(crate) fn str_field(obj: &Json, key: &str) -> Result<String, WireError> {
    field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| WireError::shape(format!("field '{key}' must be a string")))
}

pub(crate) fn u64_field(obj: &Json, key: &str) -> Result<u64, WireError> {
    field(obj, key)?
        .as_u64()
        .ok_or_else(|| WireError::shape(format!("field '{key}' must be an unsigned integer")))
}

pub(crate) fn usize_field(obj: &Json, key: &str) -> Result<usize, WireError> {
    field(obj, key)?
        .as_usize()
        .ok_or_else(|| WireError::shape(format!("field '{key}' must be an unsigned integer")))
}

pub(crate) fn f64_field(obj: &Json, key: &str) -> Result<f64, WireError> {
    field(obj, key)?
        .as_f64()
        .ok_or_else(|| WireError::shape(format!("field '{key}' must be a number")))
}

pub(crate) fn bool_field(obj: &Json, key: &str) -> Result<bool, WireError> {
    field(obj, key)?
        .as_bool()
        .ok_or_else(|| WireError::shape(format!("field '{key}' must be a boolean")))
}

fn opt_str_field(obj: &Json, key: &str) -> Result<Option<String>, WireError> {
    match obj.get(key) {
        None => Ok(None),
        Some(value) if value.is_null() => Ok(None),
        Some(value) => value
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| WireError::shape(format!("field '{key}' must be a string or null"))),
    }
}

fn opt_f64_field(obj: &Json, key: &str) -> Result<Option<f64>, WireError> {
    match obj.get(key) {
        None => Ok(None),
        Some(value) if value.is_null() => Ok(None),
        Some(value) => value
            .as_f64()
            .map(Some)
            .ok_or_else(|| WireError::shape(format!("field '{key}' must be a number or null"))),
    }
}

fn opt_usize_field(obj: &Json, key: &str) -> Result<Option<usize>, WireError> {
    match obj.get(key) {
        None => Ok(None),
        Some(value) if value.is_null() => Ok(None),
        Some(value) => value.as_usize().map(Some).ok_or_else(|| {
            WireError::shape(format!("field '{key}' must be an unsigned integer or null"))
        }),
    }
}

// ---------------------------------------------------------------------------
// Strategy / config codecs
// ---------------------------------------------------------------------------

fn perturbation_to_json(p: &PerturbationConfig) -> Json {
    Json::obj([
        ("samples", p.samples.into()),
        ("magnitude", p.magnitude.into()),
        ("probability", p.probability.into()),
        ("seed", p.seed.into()),
    ])
}

/// Decodes a perturbation configuration (shared with the registry
/// codecs). `magnitude` and `probability` must be finite: JSON has no
/// infinity, but `1e400` parses to one, and an infinite magnitude would
/// reach the flow model as an infinite cost.
pub(crate) fn perturbation_from_json(json: &Json) -> Result<PerturbationConfig, WireError> {
    let finite = |key: &str| {
        let value = f64_field(json, key)?;
        if value.is_finite() {
            Ok(value)
        } else {
            Err(WireError::shape(format!(
                "field '{key}' must be a finite number"
            )))
        }
    };
    Ok(PerturbationConfig {
        samples: usize_field(json, "samples")?,
        magnitude: finite("magnitude")?,
        probability: finite("probability")?,
        seed: u64_field(json, "seed")?,
    })
}

/// Encodes a strategy (public: clients build submit params from it).
pub fn strategy_to_json(strategy: &TransitionStrategy) -> Json {
    match strategy {
        TransitionStrategy::QDrift => Json::obj([("kind", "qdrift".into())]),
        TransitionStrategy::GateCancellation { qdrift_weight } => Json::obj([
            ("kind", "gate-cancellation".into()),
            ("qdrift_weight", (*qdrift_weight).into()),
        ]),
        TransitionStrategy::GateCancellationRandomPerturbation {
            qdrift_weight,
            gc_weight,
            perturbation,
        } => Json::obj([
            ("kind", "gc-rp".into()),
            ("qdrift_weight", (*qdrift_weight).into()),
            ("gc_weight", (*gc_weight).into()),
            ("perturbation", perturbation_to_json(perturbation)),
        ]),
        TransitionStrategy::Combined {
            qdrift_weight,
            gc_weight,
            rp_weight,
            perturbation,
        } => Json::obj([
            ("kind", "combined".into()),
            ("qdrift_weight", (*qdrift_weight).into()),
            ("gc_weight", (*gc_weight).into()),
            ("rp_weight", (*rp_weight).into()),
            ("perturbation", perturbation_to_json(perturbation)),
        ]),
    }
}

/// Decodes a strategy.
///
/// # Errors
///
/// Returns a shape [`WireError`] for unknown kinds or missing fields.
pub fn strategy_from_json(json: &Json) -> Result<TransitionStrategy, WireError> {
    let kind = str_field(json, "kind")?;
    match kind.as_str() {
        "qdrift" => Ok(TransitionStrategy::QDrift),
        "gate-cancellation" => Ok(TransitionStrategy::GateCancellation {
            qdrift_weight: f64_field(json, "qdrift_weight")?,
        }),
        "gc-rp" => Ok(TransitionStrategy::GateCancellationRandomPerturbation {
            qdrift_weight: f64_field(json, "qdrift_weight")?,
            gc_weight: f64_field(json, "gc_weight")?,
            perturbation: perturbation_from_json(field(json, "perturbation")?)?,
        }),
        "combined" => Ok(TransitionStrategy::Combined {
            qdrift_weight: f64_field(json, "qdrift_weight")?,
            gc_weight: f64_field(json, "gc_weight")?,
            rp_weight: f64_field(json, "rp_weight")?,
            perturbation: perturbation_from_json(field(json, "perturbation")?)?,
        }),
        other => Err(WireError::shape(format!("unknown strategy kind '{other}'"))),
    }
}

fn sweep_config_to_json(config: &SweepConfig) -> Json {
    Json::obj([
        ("time", config.time.into()),
        (
            "epsilons",
            Json::Arr(config.epsilons.iter().map(|&e| e.into()).collect()),
        ),
        ("repeats", config.repeats.into()),
        ("base_seed", config.base_seed.into()),
        ("evaluate_fidelity", config.evaluate_fidelity.into()),
    ])
}

/// Decodes a sweep configuration (shared with the registry codecs).
///
/// # Errors
///
/// Returns a shape [`WireError`] on malformed input.
pub fn sweep_config_from_json(json: &Json) -> Result<SweepConfig, WireError> {
    let epsilons = field(json, "epsilons")?
        .as_arr()
        .ok_or_else(|| WireError::shape("field 'epsilons' must be an array"))?
        .iter()
        .map(|e| {
            e.as_f64()
                .ok_or_else(|| WireError::shape("epsilons must be numbers"))
        })
        .collect::<Result<Vec<f64>, WireError>>()?;
    Ok(SweepConfig {
        time: f64_field(json, "time")?,
        epsilons,
        repeats: usize_field(json, "repeats")?,
        base_seed: u64_field(json, "base_seed")?,
        evaluate_fidelity: bool_field(json, "evaluate_fidelity")?,
    })
}

// ---------------------------------------------------------------------------
// Submit-params builders (client side)
// ---------------------------------------------------------------------------

/// Builds the `params` object of a `sweep` submit. The Hamiltonian travels
/// in the `marqsim_pauli::Hamiltonian::parse` textual format (coefficients
/// use shortest-round-trip float formatting, so the parse is exact).
pub fn sweep_params(
    hamiltonian: &str,
    strategy: &TransitionStrategy,
    config: &SweepConfig,
) -> Json {
    Json::obj([
        ("hamiltonian", hamiltonian.into()),
        ("strategy", strategy_to_json(strategy)),
        ("config", sweep_config_to_json(config)),
    ])
}

/// Builds the `params` object of a `compile` submit.
pub fn compile_params(
    hamiltonian: &str,
    strategy: &TransitionStrategy,
    time: f64,
    epsilon: f64,
    seed: u64,
    evaluate_fidelity: bool,
) -> Json {
    Json::obj([
        ("hamiltonian", hamiltonian.into()),
        ("strategy", strategy_to_json(strategy)),
        ("time", time.into()),
        ("epsilon", epsilon.into()),
        ("seed", seed.into()),
        ("evaluate_fidelity", evaluate_fidelity.into()),
    ])
}

/// Builds the `params` object of a `perturb_average` submit.
pub fn perturb_params(hamiltonian: &str, config: &PerturbationConfig) -> Json {
    Json::obj([
        ("hamiltonian", hamiltonian.into()),
        ("samples", config.samples.into()),
        ("magnitude", config.magnitude.into()),
        ("probability", config.probability.into()),
        ("seed", config.seed.into()),
    ])
}

/// Builds the `params` object of a `benchmark_suite` submit from
/// `(benchmark, hamiltonian, strategy, config)` cases.
pub fn suite_params(cases: &[(String, String, TransitionStrategy, SweepConfig)]) -> Json {
    Json::obj([(
        "cases",
        Json::Arr(
            cases
                .iter()
                .map(|(benchmark, hamiltonian, strategy, config)| {
                    Json::obj([
                        ("benchmark", benchmark.as_str().into()),
                        ("hamiltonian", hamiltonian.as_str().into()),
                        ("strategy", strategy_to_json(strategy)),
                        ("config", sweep_config_to_json(config)),
                    ])
                })
                .collect(),
        ),
    )])
}

// ---------------------------------------------------------------------------
// Submit-options codec
// ---------------------------------------------------------------------------

fn options_to_json(options: &SubmitOptions) -> Json {
    let mut fields: Vec<(&str, Json)> = Vec::new();
    if options.priority != Priority::Normal {
        fields.push(("priority", options.priority.as_str().into()));
    }
    if let Some(max_in_flight) = options.max_in_flight {
        fields.push(("max_in_flight", max_in_flight.into()));
    }
    // `progress_units` is omitted only when the decoder reconstructs the
    // identical cadence without it: the every-unit default (units=1, no
    // interval) and the interval-only marker (units=usize::MAX, which a
    // lone `progress_ms` implies). In particular units=1 *with* an
    // interval must be written explicitly, or the decode would flip it to
    // interval-only and change progress behavior over the wire.
    let cadence = options.progress_every;
    let implied = (cadence.units == 1 && cadence.interval.is_none())
        || (cadence.units == usize::MAX && cadence.interval.is_some());
    if !implied {
        fields.push(("progress_units", cadence.units.into()));
    }
    if let Some(interval) = options.progress_every.interval {
        fields.push(("progress_ms", (interval.as_millis() as u64).into()));
    }
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn options_from_json(json: Option<&Json>) -> Result<SubmitOptions, WireError> {
    let mut options = SubmitOptions::default();
    let Some(json) = json else {
        return Ok(options);
    };
    if let Some(priority) = json.get("priority") {
        let spelling = priority
            .as_str()
            .ok_or_else(|| WireError::shape("field 'priority' must be a string"))?;
        options.priority = Priority::parse(spelling).ok_or_else(|| {
            WireError::shape(format!(
                "unknown priority '{spelling}' (use low/normal/high)"
            ))
        })?;
    }
    options.max_in_flight = opt_usize_field(json, "max_in_flight")?;
    let units = opt_usize_field(json, "progress_units")?;
    let interval = match json.get("progress_ms") {
        Some(_) => Some(Duration::from_millis(u64_field(json, "progress_ms")?)),
        None => None,
    };
    options.progress_every = match (units, interval) {
        (None, None) => ProgressCadence::default(),
        (Some(units), None) => ProgressCadence::every(units),
        (Some(units), Some(interval)) => ProgressCadence::every(units).with_interval(interval),
        // Interval-only: the unit axis must be disabled, or the default
        // units=1 would emit on every report and the interval would never
        // coalesce anything.
        (None, Some(interval)) => ProgressCadence::every_interval(interval),
    };
    Ok(options)
}

// ---------------------------------------------------------------------------
// Result codecs
// ---------------------------------------------------------------------------

fn stats_to_json(stats: &SequenceStats) -> Json {
    Json::obj([
        ("cnot", stats.cnot.into()),
        ("single_qubit", stats.single_qubit.into()),
        ("rz", stats.rz.into()),
        ("total", stats.total.into()),
        ("segments", stats.segments.into()),
    ])
}

fn stats_from_json(json: &Json) -> Result<SequenceStats, WireError> {
    Ok(SequenceStats {
        cnot: usize_field(json, "cnot")?,
        single_qubit: usize_field(json, "single_qubit")?,
        rz: usize_field(json, "rz")?,
        total: usize_field(json, "total")?,
        segments: usize_field(json, "segments")?,
    })
}

fn point_to_json(point: &ExperimentPoint) -> Json {
    Json::obj([
        ("epsilon", point.epsilon.into()),
        ("seed", point.seed.into()),
        ("num_samples", point.num_samples.into()),
        ("stats", stats_to_json(&point.stats)),
        ("fidelity", point.fidelity.into()),
    ])
}

fn point_from_json(json: &Json) -> Result<ExperimentPoint, WireError> {
    Ok(ExperimentPoint {
        epsilon: f64_field(json, "epsilon")?,
        seed: u64_field(json, "seed")?,
        num_samples: usize_field(json, "num_samples")?,
        stats: stats_from_json(field(json, "stats")?)?,
        fidelity: opt_f64_field(json, "fidelity")?,
    })
}

/// Encodes a sweep result.
pub fn sweep_result_to_json(result: &SweepResult) -> Json {
    Json::obj([
        ("kind", "sweep".into()),
        ("label", result.label.as_str().into()),
        (
            "points",
            Json::Arr(result.points.iter().map(point_to_json).collect()),
        ),
    ])
}

/// Decodes a sweep result.
///
/// # Errors
///
/// Returns a shape [`WireError`] on malformed input.
pub fn sweep_result_from_json(json: &Json) -> Result<SweepResult, WireError> {
    let points = field(json, "points")?
        .as_arr()
        .ok_or_else(|| WireError::shape("field 'points' must be an array"))?
        .iter()
        .map(point_from_json)
        .collect::<Result<Vec<_>, WireError>>()?;
    Ok(SweepResult {
        label: str_field(json, "label")?,
        points,
    })
}

/// Encodes a compile summary as a `compile` outcome object.
pub fn compile_summary_to_json(summary: &CompileSummary) -> Json {
    Json::obj([
        ("kind", "compile".into()),
        ("num_samples", summary.num_samples.into()),
        ("lambda", summary.lambda.into()),
        ("stats", stats_to_json(&summary.stats)),
        ("fidelity", summary.fidelity.into()),
    ])
}

fn compile_summary_from_json(json: &Json) -> Result<CompileSummary, WireError> {
    Ok(CompileSummary {
        num_samples: usize_field(json, "num_samples")?,
        lambda: f64_field(json, "lambda")?,
        stats: stats_from_json(field(json, "stats")?)?,
        fidelity: opt_f64_field(json, "fidelity")?,
    })
}

/// Encodes a perturbation-average result as a `perturb_average` outcome
/// object (the full matrix, bit-exact floats).
pub fn perturb_result_to_json(result: &PerturbAverageResult) -> Json {
    Json::obj([
        ("kind", "perturb_average".into()),
        ("label", result.label.as_str().into()),
        ("samples", result.samples.into()),
        (
            "matrix",
            Json::Arr(
                result
                    .matrix
                    .rows()
                    .iter()
                    .map(|row| Json::Arr(row.iter().map(|&p| p.into()).collect()))
                    .collect(),
            ),
        ),
    ])
}

fn perturb_result_from_json(json: &Json) -> Result<PerturbAverageResult, WireError> {
    let rows = field(json, "matrix")?
        .as_arr()
        .ok_or_else(|| WireError::shape("field 'matrix' must be an array"))?
        .iter()
        .map(|row| {
            row.as_arr()
                .ok_or_else(|| WireError::shape("matrix rows must be arrays"))?
                .iter()
                .map(|p| {
                    p.as_f64()
                        .ok_or_else(|| WireError::shape("matrix entries must be numbers"))
                })
                .collect::<Result<Vec<f64>, WireError>>()
        })
        .collect::<Result<Vec<Vec<f64>>, WireError>>()?;
    let matrix = TransitionMatrix::new(rows)
        .map_err(|e| WireError::shape(format!("matrix is not row-stochastic: {e}")))?;
    Ok(PerturbAverageResult {
        label: str_field(json, "label")?,
        samples: usize_field(json, "samples")?,
        matrix,
    })
}

/// Encodes a benchmark-suite result as a `benchmark_suite` outcome object.
pub fn suite_result_to_json(result: &BenchmarkSuiteResult) -> Json {
    Json::obj([
        ("kind", "benchmark_suite".into()),
        (
            "cases",
            Json::Arr(
                result
                    .cases
                    .iter()
                    .map(|case| {
                        Json::obj([
                            ("benchmark", case.benchmark.as_str().into()),
                            ("strategy", case.strategy.as_str().into()),
                            ("sweep", sweep_result_to_json(&case.sweep)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn suite_result_from_json(json: &Json) -> Result<BenchmarkSuiteResult, WireError> {
    let cases = field(json, "cases")?
        .as_arr()
        .ok_or_else(|| WireError::shape("field 'cases' must be an array"))?
        .iter()
        .map(|case| {
            Ok(SuiteCaseResult {
                benchmark: str_field(case, "benchmark")?,
                strategy: str_field(case, "strategy")?,
                sweep: sweep_result_from_json(field(case, "sweep")?)?,
            })
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    Ok(BenchmarkSuiteResult { cases })
}

fn cache_stats_to_json(stats: &CacheStats) -> Json {
    Json::obj([
        ("hits", stats.hits.into()),
        ("misses", stats.misses.into()),
        ("component_hits", stats.component_hits.into()),
        ("flow_solves", stats.flow_solves.into()),
        ("warm_starts", stats.warm_starts.into()),
        ("disk_hits", stats.disk_hits.into()),
        ("disk_writes", stats.disk_writes.into()),
        ("disk_errors", stats.disk_errors.into()),
        ("evictions", stats.evictions.into()),
        ("graphs", stats.graphs.into()),
        ("components", stats.components.into()),
    ])
}

fn cache_stats_from_json(json: &Json) -> Result<CacheStats, WireError> {
    Ok(CacheStats {
        hits: u64_field(json, "hits")?,
        misses: u64_field(json, "misses")?,
        component_hits: u64_field(json, "component_hits")?,
        flow_solves: u64_field(json, "flow_solves")?,
        warm_starts: u64_field(json, "warm_starts")?,
        disk_hits: u64_field(json, "disk_hits")?,
        disk_writes: u64_field(json, "disk_writes")?,
        disk_errors: u64_field(json, "disk_errors")?,
        evictions: u64_field(json, "evictions")?,
        graphs: usize_field(json, "graphs")?,
        components: usize_field(json, "components")?,
    })
}

fn outcome_to_json(outcome: &Outcome) -> Json {
    match outcome {
        Outcome::Sweep(result) => sweep_result_to_json(result),
        Outcome::Compile(summary) => compile_summary_to_json(summary),
        Outcome::PerturbAverage(result) => perturb_result_to_json(result),
        Outcome::Suite(result) => suite_result_to_json(result),
        Outcome::Other { value, .. } => value.clone(),
    }
}

fn outcome_from_json(json: &Json) -> Result<Outcome, WireError> {
    let kind = str_field(json, "kind")?;
    match kind.as_str() {
        "sweep" => Ok(Outcome::Sweep(sweep_result_from_json(json)?)),
        "compile" => Ok(Outcome::Compile(compile_summary_from_json(json)?)),
        "perturb_average" => Ok(Outcome::PerturbAverage(perturb_result_from_json(json)?)),
        "benchmark_suite" => Ok(Outcome::Suite(suite_result_from_json(json)?)),
        _ => Ok(Outcome::Other {
            kind,
            value: json.clone(),
        }),
    }
}

/// The failure-kind string for an [`EngineError`] (the `kind` field of
/// `failed` events).
pub fn failure_kind(error: &EngineError) -> &'static str {
    match error {
        EngineError::Compile { .. } => "compile",
        EngineError::WorkerPanic { .. } => "panic",
        EngineError::InvalidConfig { .. } => "invalid-config",
        EngineError::Cancelled { .. } => "cancelled",
        EngineError::Workload { .. } => "workload",
    }
}

// ---------------------------------------------------------------------------
// Top-level message codecs
// ---------------------------------------------------------------------------

impl Request {
    /// Encodes the request as one wire line (without the trailing newline).
    pub fn encode(&self) -> String {
        self.to_json().encode()
    }

    fn to_json(&self) -> Json {
        match self {
            Request::Auth { token } => {
                Json::obj([("verb", "auth".into()), ("token", token.as_str().into())])
            }
            Request::Submit {
                label,
                kind,
                params,
                options,
            } => {
                if *options == SubmitOptions::default() {
                    Json::obj([
                        ("verb", "submit".into()),
                        ("label", label.as_str().into()),
                        ("kind", kind.as_str().into()),
                        ("params", params.clone()),
                    ])
                } else {
                    Json::obj([
                        ("verb", "submit".into()),
                        ("label", label.as_str().into()),
                        ("kind", kind.as_str().into()),
                        ("params", params.clone()),
                        ("options", options_to_json(options)),
                    ])
                }
            }
            Request::Status { job } => {
                Json::obj([("verb", "status".into()), ("job", (*job).into())])
            }
            Request::Cancel { job } => {
                Json::obj([("verb", "cancel".into()), ("job", (*job).into())])
            }
            Request::Stats => Json::obj([("verb", "stats".into())]),
            Request::Metrics => Json::obj([("verb", "metrics".into())]),
            Request::Drain { node } => {
                Json::obj([("verb", "drain".into()), ("node", node.as_str().into())])
            }
        }
    }

    /// Decodes one wire line.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed JSON or an unknown shape.
    pub fn decode(line: &str) -> Result<Request, WireError> {
        let json = Json::parse(line)?;
        match str_field(&json, "verb")?.as_str() {
            "auth" => Ok(Request::Auth {
                token: str_field(&json, "token")?,
            }),
            "submit" => Ok(Request::Submit {
                label: str_field(&json, "label")?,
                kind: str_field(&json, "kind")?,
                params: field(&json, "params")?.clone(),
                options: options_from_json(json.get("options"))?,
            }),
            "status" => Ok(Request::Status {
                job: u64_field(&json, "job")?,
            }),
            "cancel" => Ok(Request::Cancel {
                job: u64_field(&json, "job")?,
            }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "drain" => Ok(Request::Drain {
                node: str_field(&json, "node")?,
            }),
            other => Err(WireError::shape(format!("unknown verb '{other}'"))),
        }
    }
}

/// Appends `("node", name)` to an object for events relayed by a router;
/// plain-node events omit the field entirely.
fn with_node(mut json: Json, node: &Option<String>) -> Json {
    if let (Json::Obj(fields), Some(node)) = (&mut json, node) {
        fields.push(("node".to_string(), node.as_str().into()));
    }
    json
}

/// Decodes an array-of-strings field.
fn string_list(obj: &Json, key: &str) -> Result<Vec<String>, WireError> {
    field(obj, key)?
        .as_arr()
        .ok_or_else(|| WireError::shape(format!("field '{key}' must be an array")))?
        .iter()
        .map(|item| {
            item.as_str()
                .map(str::to_string)
                .ok_or_else(|| WireError::shape(format!("'{key}' entries must be strings")))
        })
        .collect()
}

/// The stats fields as a bare object — the shape nested under a router's
/// per-node breakdown (the top-level `stats` event inlines the same
/// fields next to its `event` key).
fn server_stats_body(stats: &ServerStats) -> Json {
    Json::obj([
        ("threads", stats.threads.into()),
        ("cache", cache_stats_to_json(&stats.cache)),
        ("active_jobs", stats.active_jobs.into()),
        ("queue_depth", stats.queue_depth.into()),
        ("in_flight", stats.in_flight.into()),
        ("max_active_jobs", stats.max_active_jobs.into()),
    ])
}

/// Decodes the stats fields of `json` (an event object or a nested body),
/// leaving `per_node` empty for the caller to fill.
fn server_stats_core(json: &Json) -> Result<ServerStats, WireError> {
    Ok(ServerStats {
        threads: usize_field(json, "threads")?,
        cache: cache_stats_from_json(field(json, "cache")?)?,
        active_jobs: usize_field(json, "active_jobs")?,
        queue_depth: usize_field(json, "queue_depth")?,
        in_flight: usize_field(json, "in_flight")?,
        max_active_jobs: usize_field(json, "max_active_jobs")?,
        per_node: Vec::new(),
    })
}

impl Event {
    /// Encodes the event as one wire line (without the trailing newline).
    pub fn encode(&self) -> String {
        self.to_json().encode()
    }

    fn to_json(&self) -> Json {
        match self {
            Event::Hello {
                protocol,
                role,
                nodes,
                auth,
                threads,
                workloads,
            } => Json::obj([
                ("event", "hello".into()),
                ("protocol", (*protocol).into()),
                ("role", role.as_str().into()),
                (
                    "nodes",
                    Json::Arr(nodes.iter().map(|n| n.as_str().into()).collect()),
                ),
                ("auth", (*auth).into()),
                ("threads", (*threads).into()),
                (
                    "workloads",
                    Json::Arr(workloads.iter().map(|k| k.as_str().into()).collect()),
                ),
            ]),
            Event::AuthOk => Json::obj([("event", "auth_ok".into())]),
            Event::Submitted { job, label, node } => with_node(
                Json::obj([
                    ("event", "submitted".into()),
                    ("job", (*job).into()),
                    ("label", label.as_str().into()),
                ]),
                node,
            ),
            Event::Busy {
                label,
                in_flight,
                limit,
            } => Json::obj([
                ("event", "busy".into()),
                ("label", label.as_str().into()),
                ("in_flight", (*in_flight).into()),
                ("limit", (*limit).into()),
            ]),
            Event::Progress {
                job,
                completed,
                total,
                node,
            } => with_node(
                Json::obj([
                    ("event", "progress".into()),
                    ("job", (*job).into()),
                    ("completed", (*completed).into()),
                    ("total", (*total).into()),
                ]),
                node,
            ),
            Event::Done {
                job,
                outcome,
                cache_delta,
                node,
            } => with_node(
                Json::obj([
                    ("event", "done".into()),
                    ("job", (*job).into()),
                    ("outcome", outcome_to_json(outcome)),
                    ("cache_delta", cache_stats_to_json(cache_delta)),
                ]),
                node,
            ),
            Event::Failed {
                job,
                kind,
                message,
                node,
            } => with_node(
                Json::obj([
                    ("event", "failed".into()),
                    ("job", (*job).into()),
                    ("kind", kind.as_str().into()),
                    ("message", message.as_str().into()),
                ]),
                node,
            ),
            Event::Status {
                job,
                known,
                finished,
                cancelled,
                completed,
                total,
            } => Json::obj([
                ("event", "status".into()),
                ("job", (*job).into()),
                ("known", (*known).into()),
                ("finished", (*finished).into()),
                ("cancelled", (*cancelled).into()),
                ("completed", (*completed).into()),
                ("total", (*total).into()),
            ]),
            Event::Stats(stats) => {
                let mut json = Json::obj([
                    ("event", "stats".into()),
                    ("threads", stats.threads.into()),
                    ("cache", cache_stats_to_json(&stats.cache)),
                    ("active_jobs", stats.active_jobs.into()),
                    ("queue_depth", stats.queue_depth.into()),
                    ("in_flight", stats.in_flight.into()),
                    ("max_active_jobs", stats.max_active_jobs.into()),
                ]);
                if !stats.per_node.is_empty() {
                    if let Json::Obj(fields) = &mut json {
                        let entries = stats
                            .per_node
                            .iter()
                            .map(|entry| {
                                Json::obj([
                                    ("node", entry.node.as_str().into()),
                                    ("health", entry.health.as_str().into()),
                                    ("stats", server_stats_body(&entry.stats)),
                                ])
                            })
                            .collect();
                        fields.push(("nodes".to_string(), Json::Arr(entries)));
                    }
                }
                json
            }
            Event::Metrics {
                exposition,
                requests,
                bytes_in,
                bytes_out,
            } => Json::obj([
                ("event", "metrics".into()),
                ("exposition", exposition.as_str().into()),
                ("requests", (*requests).into()),
                ("bytes_in", (*bytes_in).into()),
                ("bytes_out", (*bytes_out).into()),
            ]),
            Event::Draining { node, in_flight } => Json::obj([
                ("event", "draining".into()),
                ("node", node.as_str().into()),
                ("in_flight", (*in_flight).into()),
            ]),
            Event::Error { message } => Json::obj([
                ("event", "error".into()),
                ("message", message.as_str().into()),
            ]),
        }
    }

    /// Decodes one wire line.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed JSON or an unknown shape.
    pub fn decode(line: &str) -> Result<Event, WireError> {
        let json = Json::parse(line)?;
        match str_field(&json, "event")?.as_str() {
            "hello" => Ok(Event::Hello {
                protocol: u64_field(&json, "protocol")?,
                role: parse_role(&str_field(&json, "role")?)?,
                nodes: string_list(&json, "nodes")?,
                auth: bool_field(&json, "auth")?,
                threads: usize_field(&json, "threads")?,
                workloads: string_list(&json, "workloads")?,
            }),
            "auth_ok" => Ok(Event::AuthOk),
            "submitted" => Ok(Event::Submitted {
                job: u64_field(&json, "job")?,
                label: str_field(&json, "label")?,
                node: opt_str_field(&json, "node")?,
            }),
            "busy" => Ok(Event::Busy {
                label: str_field(&json, "label")?,
                in_flight: usize_field(&json, "in_flight")?,
                limit: usize_field(&json, "limit")?,
            }),
            "progress" => Ok(Event::Progress {
                job: u64_field(&json, "job")?,
                completed: usize_field(&json, "completed")?,
                total: usize_field(&json, "total")?,
                node: opt_str_field(&json, "node")?,
            }),
            "done" => Ok(Event::Done {
                job: u64_field(&json, "job")?,
                outcome: outcome_from_json(field(&json, "outcome")?)?,
                cache_delta: cache_stats_from_json(field(&json, "cache_delta")?)?,
                node: opt_str_field(&json, "node")?,
            }),
            "failed" => Ok(Event::Failed {
                job: u64_field(&json, "job")?,
                kind: str_field(&json, "kind")?,
                message: str_field(&json, "message")?,
                node: opt_str_field(&json, "node")?,
            }),
            "status" => Ok(Event::Status {
                job: u64_field(&json, "job")?,
                known: bool_field(&json, "known")?,
                finished: bool_field(&json, "finished")?,
                cancelled: bool_field(&json, "cancelled")?,
                completed: usize_field(&json, "completed")?,
                total: usize_field(&json, "total")?,
            }),
            "stats" => {
                let mut stats = server_stats_core(&json)?;
                if let Some(entries) = json.get("nodes") {
                    let entries = entries
                        .as_arr()
                        .ok_or_else(|| WireError::shape("field 'nodes' must be an array"))?;
                    stats.per_node = entries
                        .iter()
                        .map(|entry| {
                            Ok(NodeStats {
                                node: str_field(entry, "node")?,
                                health: str_field(entry, "health")?,
                                stats: server_stats_core(field(entry, "stats")?)?,
                            })
                        })
                        .collect::<Result<Vec<_>, WireError>>()?;
                }
                Ok(Event::Stats(stats))
            }
            "metrics" => Ok(Event::Metrics {
                exposition: str_field(&json, "exposition")?,
                requests: u64_field(&json, "requests")?,
                bytes_in: u64_field(&json, "bytes_in")?,
                bytes_out: u64_field(&json, "bytes_out")?,
            }),
            "draining" => Ok(Event::Draining {
                node: str_field(&json, "node")?,
                in_flight: usize_field(&json, "in_flight")?,
            }),
            "error" => Ok(Event::Error {
                message: str_field(&json, "message")?,
            }),
            other => Err(WireError::shape(format!("unknown event '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_round_trip(request: Request) {
        let line = request.encode();
        assert!(!line.contains('\n'));
        assert_eq!(Request::decode(&line).unwrap(), request);
    }

    fn event_round_trip(event: Event) {
        let line = event.encode();
        assert!(!line.contains('\n'));
        assert_eq!(Event::decode(&line).unwrap(), event);
    }

    #[test]
    fn submit_sweep_round_trips() {
        request_round_trip(Request::Submit {
            label: "sweep/beh2 \"quoted\"".to_string(),
            kind: "sweep".to_string(),
            params: sweep_params(
                "0.9 ZZZZ + 0.7 XXII",
                &TransitionStrategy::marqsim_gc_rp(),
                &SweepConfig {
                    time: 0.5,
                    epsilons: vec![0.1, 0.05, 1.0 / 30.0],
                    repeats: 3,
                    base_seed: (1 << 53) + 1,
                    evaluate_fidelity: true,
                },
            ),
            options: SubmitOptions::default(),
        });
    }

    #[test]
    fn submit_options_round_trip() {
        request_round_trip(Request::Submit {
            label: "opts".to_string(),
            kind: "compile".to_string(),
            params: compile_params(
                "0.6 XZ + 0.4 ZY",
                &TransitionStrategy::QDrift,
                0.4,
                0.05,
                7,
                true,
            ),
            options: SubmitOptions::new()
                .with_priority(Priority::High)
                .with_max_in_flight(4)
                .with_progress_every(
                    ProgressCadence::every(100).with_interval(Duration::from_millis(100)),
                ),
        });
        // Missing options object → defaults.
        let line = r#"{"verb":"submit","label":"x","kind":"sweep","params":{}}"#;
        match Request::decode(line).unwrap() {
            Request::Submit { options, .. } => assert_eq!(options, SubmitOptions::default()),
            other => panic!("unexpected {other:?}"),
        }
        // Unknown priority is rejected with context.
        let line = r#"{"verb":"submit","label":"x","kind":"sweep","params":{},"options":{"priority":"urgent"}}"#;
        let err = Request::decode(line).unwrap_err();
        assert!(err.message.contains("urgent"));
    }

    #[test]
    fn interval_only_options_disable_the_unit_axis() {
        // A lone progress_ms must coalesce on time alone — with the unit
        // threshold left at the default 1, every report would emit and the
        // interval would be dead code.
        let line = r#"{"verb":"submit","label":"x","kind":"sweep","params":{},"options":{"progress_ms":100}}"#;
        match Request::decode(line).unwrap() {
            Request::Submit { options, .. } => {
                assert_eq!(
                    options.progress_every,
                    ProgressCadence::every_interval(Duration::from_millis(100))
                );
                assert_eq!(options.progress_every.units, usize::MAX);
            }
            other => panic!("unexpected {other:?}"),
        }
        // And the interval-only cadence round-trips through encode.
        request_round_trip(Request::Submit {
            label: "x".to_string(),
            kind: "sweep".to_string(),
            params: Json::obj([]),
            options: SubmitOptions::new()
                .with_progress_every(ProgressCadence::every_interval(Duration::from_millis(250))),
        });
        // units=1 WITH an interval is not interval-only — it must encode
        // progress_units explicitly so the wire round trip preserves the
        // every-unit-plus-time-floor semantics.
        request_round_trip(Request::Submit {
            label: "x".to_string(),
            kind: "sweep".to_string(),
            params: Json::obj([]),
            options: SubmitOptions::new().with_progress_every(
                ProgressCadence::default().with_interval(Duration::from_millis(100)),
            ),
        });
        // As does a hand-built units=usize::MAX cadence without interval.
        request_round_trip(Request::Submit {
            label: "x".to_string(),
            kind: "sweep".to_string(),
            params: Json::obj([]),
            options: SubmitOptions::new().with_progress_every(ProgressCadence::every(usize::MAX)),
        });
    }

    #[test]
    fn submit_params_pass_through_untyped() {
        // The protocol layer must not constrain params: an arbitrary object
        // for a custom kind round-trips unchanged.
        request_round_trip(Request::Submit {
            label: "fib/e2e".to_string(),
            kind: "fib".to_string(),
            params: Json::obj([("n", 30u64.into()), ("note", "custom".into())]),
            options: SubmitOptions::default(),
        });
    }

    #[test]
    fn control_verbs_round_trip() {
        request_round_trip(Request::Status { job: 3 });
        request_round_trip(Request::Cancel { job: u64::MAX });
        request_round_trip(Request::Stats);
        request_round_trip(Request::Metrics);
    }

    #[test]
    fn all_strategies_round_trip() {
        for strategy in [
            TransitionStrategy::QDrift,
            TransitionStrategy::marqsim_gc(),
            TransitionStrategy::marqsim_gc_rp(),
            TransitionStrategy::Combined {
                qdrift_weight: 0.25,
                gc_weight: 0.35,
                rp_weight: 0.4,
                perturbation: PerturbationConfig {
                    samples: 9,
                    magnitude: 1.25,
                    probability: 0.75,
                    seed: 11,
                },
            },
        ] {
            let json = strategy_to_json(&strategy);
            assert_eq!(
                strategy_from_json(&Json::parse(&json.encode()).unwrap()).unwrap(),
                strategy
            );
        }
    }

    #[test]
    fn non_finite_perturbation_parameters_are_shape_errors() {
        for (key, value) in [
            ("magnitude", "1e400"),
            ("magnitude", "-1e400"),
            ("probability", "1e400"),
        ] {
            let mut fields = vec![
                ("samples", "2"),
                ("magnitude", "1.0"),
                ("probability", "0.5"),
                ("seed", "3"),
            ];
            for field in &mut fields {
                if field.0 == key {
                    field.1 = value;
                }
            }
            let body = fields
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect::<Vec<_>>()
                .join(",");
            let json = Json::parse(&format!("{{{body}}}")).unwrap();
            let err = perturbation_from_json(&json).unwrap_err();
            assert_eq!(
                err.message,
                format!("field '{key}' must be a finite number")
            );
        }
    }

    #[test]
    fn sweep_results_round_trip_bit_exactly() {
        use marqsim_core::metrics::SequenceStats;
        let result = SweepResult {
            label: "MarQSim-GC (0.4 Pqd + 0.6 Pgc)".to_string(),
            points: vec![
                ExperimentPoint {
                    epsilon: 0.1,
                    seed: 9,
                    num_samples: 123,
                    stats: SequenceStats {
                        cnot: 10,
                        single_qubit: 20,
                        rz: 5,
                        total: 30,
                        segments: 5,
                    },
                    fidelity: Some(0.9931726618235891),
                },
                ExperimentPoint {
                    epsilon: 1.0 / 30.0,
                    seed: 7928,
                    num_samples: 4567,
                    stats: SequenceStats {
                        cnot: 0,
                        single_qubit: 0,
                        rz: 0,
                        total: 0,
                        segments: 0,
                    },
                    fidelity: None,
                },
            ],
        };
        let event = Event::Done {
            job: 42,
            outcome: Outcome::Sweep(result.clone()),
            cache_delta: CacheStats {
                flow_solves: 1,
                ..CacheStats::default()
            },
            node: None,
        };
        let decoded = Event::decode(&event.encode()).unwrap();
        match decoded {
            Event::Done {
                outcome: Outcome::Sweep(back),
                ..
            } => {
                for (a, b) in back.points.iter().zip(&result.points) {
                    assert_eq!(a.epsilon.to_bits(), b.epsilon.to_bits());
                    assert_eq!(a.seed, b.seed);
                    assert_eq!(a.stats, b.stats);
                    assert_eq!(a.fidelity.map(f64::to_bits), b.fidelity.map(f64::to_bits));
                }
            }
            other => panic!("unexpected decode {other:?}"),
        }
    }

    #[test]
    fn perturb_average_outcomes_round_trip_bit_exactly() {
        let matrix = TransitionMatrix::new(vec![
            vec![0.5, 0.25, 0.25],
            vec![0.1, 0.6, 0.3],
            vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        ])
        .unwrap();
        let result = PerturbAverageResult {
            label: "prp/na+".to_string(),
            samples: 20,
            matrix,
        };
        let event = Event::Done {
            job: 7,
            outcome: Outcome::PerturbAverage(result.clone()),
            cache_delta: CacheStats::default(),
            node: None,
        };
        match Event::decode(&event.encode()).unwrap() {
            Event::Done {
                outcome: Outcome::PerturbAverage(back),
                ..
            } => {
                assert_eq!(back.label, result.label);
                assert_eq!(back.samples, result.samples);
                for (a, b) in back.matrix.rows().iter().zip(result.matrix.rows()) {
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.to_bits(), y.to_bits(), "matrix must cross bit-exactly");
                    }
                }
            }
            other => panic!("unexpected decode {other:?}"),
        }
    }

    #[test]
    fn suite_outcomes_round_trip() {
        let sweep = SweepResult {
            label: "Baseline".to_string(),
            points: vec![],
        };
        let result = BenchmarkSuiteResult {
            cases: vec![SuiteCaseResult {
                benchmark: "Na+".to_string(),
                strategy: "Baseline".to_string(),
                sweep,
            }],
        };
        event_round_trip(Event::Done {
            job: 9,
            outcome: Outcome::Suite(result),
            cache_delta: CacheStats::default(),
            node: None,
        });
    }

    #[test]
    fn custom_outcomes_decode_as_other() {
        let event = Event::Done {
            job: 11,
            node: None,
            outcome: Outcome::Other {
                kind: "fib".to_string(),
                value: Json::obj([
                    ("kind", "fib".into()),
                    (
                        "values",
                        Json::Arr(vec![1u64.into(), 1u64.into(), 2u64.into()]),
                    ),
                ]),
            },
            cache_delta: CacheStats::default(),
        };
        match Event::decode(&event.encode()).unwrap() {
            Event::Done {
                outcome: Outcome::Other { kind, value },
                ..
            } => {
                assert_eq!(kind, "fib");
                assert_eq!(
                    value
                        .get("values")
                        .and_then(Json::as_arr)
                        .map(<[Json]>::len),
                    Some(3)
                );
            }
            other => panic!("unexpected decode {other:?}"),
        }
    }

    #[test]
    fn events_round_trip() {
        event_round_trip(Event::Hello {
            protocol: PROTOCOL_VERSION,
            threads: 8,
            workloads: vec!["fib".to_string(), "sweep".to_string()],
            role: Role::Node,
            nodes: Vec::new(),
            auth: false,
        });
        event_round_trip(Event::Submitted {
            job: 1,
            label: "x".to_string(),
            node: None,
        });
        event_round_trip(Event::Busy {
            label: "x".to_string(),
            in_flight: 4,
            limit: 4,
        });
        event_round_trip(Event::Progress {
            job: 1,
            completed: 3,
            total: 6,
            node: None,
        });
        event_round_trip(Event::Failed {
            job: 2,
            kind: "cancelled".to_string(),
            message: "job 'x' was cancelled".to_string(),
            node: None,
        });
        event_round_trip(Event::Status {
            job: 9,
            known: false,
            finished: false,
            cancelled: false,
            completed: 0,
            total: 0,
        });
        event_round_trip(Event::Stats(ServerStats {
            threads: 4,
            cache: CacheStats::default(),
            active_jobs: 2,
            queue_depth: 17,
            in_flight: 1,
            max_active_jobs: 64,
            per_node: Vec::new(),
        }));
        event_round_trip(Event::Metrics {
            // A representative slice of the exposition format: newlines,
            // quotes in label values, and histogram bucket lines must all
            // survive the JSON string codec.
            exposition: "# TYPE marqsim_flow_solves_total counter\n\
                         marqsim_flow_solves_total 3\n\
                         marqsim_flow_phase_seconds_bucket{phase=\"init\",le=\"+Inf\"} 3\n"
                .to_string(),
            requests: 7,
            bytes_in: 812,
            bytes_out: 40960,
        });
        event_round_trip(Event::Error {
            message: "unknown verb 'frobnicate'".to_string(),
        });
        event_round_trip(Event::Done {
            job: 5,
            node: None,
            outcome: Outcome::Compile(CompileSummary {
                num_samples: 100,
                lambda: 2.5,
                stats: SequenceStats {
                    cnot: 1,
                    single_qubit: 2,
                    rz: 3,
                    total: 3,
                    segments: 4,
                },
                fidelity: Some(0.99),
            }),
            cache_delta: CacheStats::default(),
        });
    }

    #[test]
    fn auth_and_drain_verbs_round_trip() {
        request_round_trip(Request::Auth {
            token: "s3cr3t with spaces \"and quotes\"".to_string(),
        });
        request_round_trip(Request::Drain {
            node: "127.0.0.1:7401".to_string(),
        });
    }

    #[test]
    fn auth_ok_and_draining_events_round_trip() {
        event_round_trip(Event::AuthOk);
        event_round_trip(Event::Draining {
            node: "127.0.0.1:7402".to_string(),
            in_flight: 3,
        });
    }

    #[test]
    fn router_hello_advertises_role_nodes_and_auth() {
        let event = Event::Hello {
            protocol: PROTOCOL_VERSION,
            threads: 0,
            workloads: vec!["sweep".to_string()],
            role: Role::Router,
            nodes: vec!["127.0.0.1:7401".to_string(), "127.0.0.1:7402".to_string()],
            auth: true,
        };
        event_round_trip(event.clone());
        // The encoded form carries the wire names clients key on.
        let line = event.encode();
        assert!(line.contains(r#""role":"router""#), "{line}");
        assert!(line.contains(r#""auth":true"#), "{line}");
    }

    #[test]
    fn routed_events_carry_the_node_and_node_lost_kind() {
        event_round_trip(Event::Submitted {
            job: 4,
            label: "x".to_string(),
            node: Some("127.0.0.1:7401".to_string()),
        });
        event_round_trip(Event::Progress {
            job: 4,
            completed: 1,
            total: 2,
            node: Some("127.0.0.1:7401".to_string()),
        });
        // A node crash mid-job surfaces as a structured failure naming the
        // node, with the dedicated `node_lost` kind.
        event_round_trip(Event::Failed {
            job: 4,
            kind: "node_lost".to_string(),
            message: "node 127.0.0.1:7401 died with 1 job in flight".to_string(),
            node: Some("127.0.0.1:7401".to_string()),
        });
    }

    #[test]
    fn router_stats_nest_per_node_breakdowns() {
        let node_stats = ServerStats {
            threads: 2,
            cache: CacheStats {
                flow_solves: 5,
                ..CacheStats::default()
            },
            active_jobs: 1,
            queue_depth: 0,
            in_flight: 1,
            max_active_jobs: 64,
            per_node: Vec::new(),
        };
        event_round_trip(Event::Stats(ServerStats {
            threads: 0,
            cache: CacheStats::default(),
            active_jobs: 1,
            queue_depth: 0,
            in_flight: 1,
            max_active_jobs: 64,
            per_node: vec![
                NodeStats {
                    node: "127.0.0.1:7401".to_string(),
                    health: "up".to_string(),
                    stats: node_stats,
                },
                NodeStats {
                    node: "127.0.0.1:7402".to_string(),
                    health: "down".to_string(),
                    stats: ServerStats::default(),
                },
            ],
        }));
    }

    #[test]
    fn roles_parse_their_wire_names() {
        for role in [Role::Node, Role::Router] {
            assert_eq!(parse_role(role.as_str()).unwrap(), role);
        }
        assert!(parse_role("proxy").is_err());
    }

    #[test]
    fn malformed_requests_are_rejected_with_context() {
        for (line, needle) in [
            ("{}", "verb"),
            (r#"{"verb":"frobnicate"}"#, "frobnicate"),
            (r#"{"verb":"status"}"#, "job"),
            (r#"{"verb":"submit","label":"x","kind":"sweep"}"#, "params"),
            (r#"{"verb":"submit","label":"x","params":{}}"#, "kind"),
            ("not json", "expected"),
        ] {
            let err = Request::decode(line).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{line}: {err} should mention {needle}"
            );
        }
    }

    #[test]
    fn failure_kinds_name_every_engine_error() {
        assert_eq!(
            failure_kind(&EngineError::Cancelled { label: "x".into() }),
            "cancelled"
        );
        assert_eq!(
            failure_kind(&EngineError::WorkerPanic {
                label: "x".into(),
                message: "boom".into()
            }),
            "panic"
        );
        assert_eq!(
            failure_kind(&EngineError::InvalidConfig {
                reason: "bad".into()
            }),
            "invalid-config"
        );
        assert_eq!(
            failure_kind(&EngineError::Workload {
                label: "x".into(),
                message: "domain".into()
            }),
            "workload"
        );
    }
}
