//! The engine: workload execution over the pool + cache.
//!
//! The public job surface is the open [`Workload`] trait (see
//! [`crate::workload`]); this module owns the machinery underneath it — the
//! engine itself, the one job runner every submitted and synchronous job
//! goes through, and the batch machinery of the built-in compile and sweep
//! jobs with its deduplicated graph resolution and flattened point-task
//! queue.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, SendError};
use std::sync::Arc;

use marqsim_core::experiment::{point_seed, ExperimentPoint, SweepConfig, SweepResult};
use marqsim_core::gate_cancel::{cnot_cost_matrix, gate_cancellation_matrix_with_basis};
use marqsim_core::metrics::evaluate_fidelity_against;
use marqsim_core::perturb::{average_samples, sample_streams, solve_sample, PerturbationConfig};
use marqsim_core::transition::strategy_uses_gate_cancellation;
use marqsim_core::{
    CompileError, CompileResult, Compiler, CompilerConfig, HttGraph, SpanningBasis,
    TransitionStrategy,
};
use marqsim_linalg::Matrix;
use marqsim_markov::TransitionMatrix;
use marqsim_obs::{metrics, trace};
use marqsim_pauli::Hamiltonian;
use marqsim_sim::exact::{self, exact_unitary};

use crate::cache::{
    build_graph, hamiltonian_fingerprint, CacheConfig, CacheKey, GcComponent, StrategyKey,
    TransitionCache,
};
use crate::error::EngineError;
use crate::job::{JobControl, JobHandle, JobId, JobState};
use crate::pool::{Priority, ThreadPool};
use crate::workload::{
    CompileWorkload, SubmitOptions, SweepWorkload, Workload, WorkloadCtx, WorkloadOutput,
};

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker-thread count; `0` means "auto" (all available cores).
    pub threads: usize,
    /// Cache configuration: sharding, the per-shard LRU cap, and the
    /// optional persistence directory.
    pub cache: CacheConfig,
    /// Whether transition matrices are cached and shared across jobs. With
    /// the cache disabled each job still builds its HTT graph exactly once,
    /// but nothing is reused between jobs and nothing touches the
    /// persistence directory.
    pub cache_enabled: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            cache: CacheConfig::default(),
            cache_enabled: true,
        }
    }
}

impl EngineConfig {
    /// Reads the configuration from the environment:
    ///
    /// * `MARQSIM_THREADS=N` — worker count (positive integer);
    /// * `MARQSIM_CACHE=on|off` (also `1/0`, `true/false`, `yes/no`) —
    ///   enable/disable the transition cache;
    /// * `MARQSIM_CACHE_CAP=N` — LRU entry cap per cache shard
    ///   (`0` = unbounded, default [`DEFAULT_CACHE_CAP`](crate::cache::DEFAULT_CACHE_CAP));
    /// * `MARQSIM_CACHE_DIR=PATH` — enable `P_gc` disk persistence.
    ///
    /// Unset or empty variables keep their defaults.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] naming the offending variable
    /// and value for anything unparsable — `MARQSIM_THREADS=0` or garbage
    /// never silently falls back to a default.
    pub fn from_env() -> Result<Self, EngineError> {
        fn var(name: &str) -> Option<String> {
            std::env::var(name)
                .ok()
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty())
        }
        EngineConfig::from_values(
            var("MARQSIM_THREADS").as_deref(),
            var("MARQSIM_CACHE").as_deref(),
            var("MARQSIM_CACHE_CAP").as_deref(),
            var("MARQSIM_CACHE_DIR").as_deref(),
        )
    }

    /// Builds a configuration from raw override strings — the pure core of
    /// [`from_env`](Self::from_env) (environment variables are process-global,
    /// so tests validate parsing through this entry point). `None` means
    /// "keep the default" for each setting.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] for an unparsable value; see
    /// [`from_env`](Self::from_env).
    pub fn from_values(
        threads: Option<&str>,
        cache: Option<&str>,
        cache_cap: Option<&str>,
        cache_dir: Option<&str>,
    ) -> Result<Self, EngineError> {
        let mut config = EngineConfig::default();
        if let Some(raw) = threads {
            config.threads = EngineConfig::parse_threads("MARQSIM_THREADS", raw)?;
        }
        if let Some(raw) = cache {
            config.cache_enabled = match raw.to_ascii_lowercase().as_str() {
                "1" | "on" | "true" | "yes" => true,
                "0" | "off" | "false" | "no" => false,
                _ => {
                    return Err(EngineError::invalid_config(format!(
                        "MARQSIM_CACHE={raw:?} is not a recognized switch (use on/off, 1/0, true/false, yes/no)"
                    )))
                }
            };
        }
        if let Some(raw) = cache_cap {
            config.cache.cap_per_shard = raw.parse::<usize>().map_err(|_| {
                EngineError::invalid_config(format!(
                    "MARQSIM_CACHE_CAP={raw:?} is not an entry count (use a non-negative integer; 0 = unbounded)"
                ))
            })?;
        }
        if let Some(raw) = cache_dir {
            config.cache.persist_dir = Some(raw.into());
        }
        Ok(config)
    }

    /// Strictly parses a worker-count override, naming `var` in the error
    /// so every thread-count variable (`MARQSIM_THREADS`, the serve
    /// daemon's `MARQSIM_SERVE_THREADS`) shares one parsing rule and one
    /// diagnostic shape.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] for `0` or anything that is
    /// not a positive integer.
    pub fn parse_threads(var: &str, raw: &str) -> Result<usize, EngineError> {
        match raw.parse::<usize>() {
            Ok(0) => Err(EngineError::invalid_config(format!(
                "{var}=0 would run no workers; unset it to use all available cores"
            ))),
            Ok(n) => Ok(n),
            Err(_) => Err(EngineError::invalid_config(format!(
                "{var}={raw:?} is not a positive integer"
            ))),
        }
    }

    /// Sets the worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables the transition cache.
    pub fn with_cache(mut self, enabled: bool) -> Self {
        self.cache_enabled = enabled;
        self
    }

    /// Replaces the cache configuration (sharding, cap, persistence).
    pub fn with_cache_config(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// One compile job: a Hamiltonian and a full compiler configuration.
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// Identifies the job in outcomes, errors, and progress reports.
    pub label: String,
    /// The Hamiltonian to compile.
    pub hamiltonian: Hamiltonian,
    /// Compiler parameters (strategy, time, ε, seed, synthesis flags).
    pub config: CompilerConfig,
    /// Whether to also evaluate the unitary fidelity of the sampled
    /// sequence (exponential in qubit count — keep to small systems).
    pub evaluate_fidelity: bool,
}

impl CompileRequest {
    /// A compile-only request.
    pub fn new(label: impl Into<String>, hamiltonian: Hamiltonian, config: CompilerConfig) -> Self {
        CompileRequest {
            label: label.into(),
            hamiltonian,
            config,
            evaluate_fidelity: false,
        }
    }

    /// Requests fidelity evaluation alongside the compile.
    pub fn with_fidelity(mut self) -> Self {
        self.evaluate_fidelity = true;
        self
    }
}

/// The output of one [`CompileRequest`].
#[derive(Debug, Clone)]
pub struct CompileOutcome {
    /// Label of the request that produced this outcome.
    pub label: String,
    /// The compiler output.
    pub result: CompileResult,
    /// Unitary fidelity, when requested.
    pub fidelity: Option<f64>,
}

/// One full-sweep job: a (benchmark, strategy) pair swept over precisions
/// and repetitions, exactly like `marqsim_core::experiment::run_sweep`.
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// Identifies the job in outcomes, errors, and progress reports.
    pub label: String,
    /// The Hamiltonian to sweep.
    pub hamiltonian: Hamiltonian,
    /// Transition strategy for every point of this sweep.
    pub strategy: TransitionStrategy,
    /// Precisions, repetitions, base seed, fidelity switch.
    pub config: SweepConfig,
}

impl SweepRequest {
    /// Creates a sweep request.
    pub fn new(
        label: impl Into<String>,
        hamiltonian: Hamiltonian,
        strategy: TransitionStrategy,
        config: SweepConfig,
    ) -> Self {
        SweepRequest {
            label: label.into(),
            hamiltonian,
            strategy,
            config,
        }
    }
}

/// A progress snapshot, reported once per completed unit of work (subject
/// to the submission's [`ProgressCadence`](crate::ProgressCadence)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Units finished so far.
    pub completed: usize,
    /// Total units of the running job.
    pub total: usize,
}

pub(crate) type ProgressFn = dyn Fn(Progress) + Send + Sync;

/// The parallel compilation engine.
///
/// Owns a [`ThreadPool`] and a [`TransitionCache`]; see the crate docs for
/// the job model and the determinism guarantee.
pub struct Engine {
    pool: ThreadPool,
    cache: Arc<TransitionCache>,
    cache_enabled: bool,
    next_job_id: AtomicU64,
    active_jobs: AtomicUsize,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.pool.threads())
            .field("cache_enabled", &self.cache_enabled)
            .field("cache", &self.cache.stats())
            .field("active_jobs", &self.active_jobs())
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            pool: ThreadPool::new(config.resolved_threads()),
            cache: Arc::new(TransitionCache::with_config(config.cache.clone())),
            cache_enabled: config.cache_enabled,
            next_job_id: AtomicU64::new(1),
            active_jobs: AtomicUsize::new(0),
        }
    }

    /// Creates an engine configured from the environment
    /// (`MARQSIM_THREADS`, `MARQSIM_CACHE`, `MARQSIM_CACHE_CAP`,
    /// `MARQSIM_CACHE_DIR`). This is what every `marqsim-bench` binary
    /// uses.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] for an unparsable override —
    /// see [`EngineConfig::from_env`].
    pub fn from_env() -> Result<Self, EngineError> {
        Ok(Engine::new(EngineConfig::from_env()?))
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The transition cache (for statistics and explicit clearing).
    pub fn cache(&self) -> &TransitionCache {
        &self.cache
    }

    /// Whether transition-matrix caching is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// Number of jobs, submitted or synchronous, that have not yet produced
    /// an outcome.
    pub fn active_jobs(&self) -> usize {
        self.active_jobs.load(Ordering::Relaxed)
    }

    /// Number of point-level tasks waiting in the pool's injector — the
    /// queue-depth signal the serve layer reports in its `stats` verb.
    pub fn queue_depth(&self) -> usize {
        self.pool.queued()
    }

    pub(crate) fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Runs one workload synchronously as one job on the calling thread
    /// (its pool fan-out still parallelizes) and returns its output. The
    /// job gets an id and a `job` trace span like a submitted one.
    ///
    /// # Errors
    ///
    /// Returns the workload's [`EngineError`], or
    /// [`EngineError::WorkerPanic`] if its body panicked.
    pub fn run_workload(&self, workload: &dyn Workload) -> Result<WorkloadOutput, EngineError> {
        self.run_inline(workload.label(), workload.total_units(), |ctx| {
            workload.run(ctx)
        })
    }

    /// Submits one workload for asynchronous execution and returns
    /// immediately with a [`JobHandle`] carrying the job's engine-unique
    /// [`JobId`].
    ///
    /// The workload runs on a dedicated coordinator thread (its pool
    /// fan-out interleaves with every other job's on the shared work
    /// queue), so the caller never blocks. Collect the outcome with
    /// [`JobHandle::collect`] (blocking) or [`JobHandle::try_collect`]
    /// (non-blocking); request cooperative cancellation with
    /// [`JobHandle::cancel`] (observed by built-in workloads before graph
    /// resolution and before every point-level task, so a cancelled job
    /// resolves to [`EngineError::Cancelled`] after its in-flight units
    /// drain).
    pub fn submit<W: Workload + 'static>(self: &Arc<Self>, workload: W) -> JobHandle {
        self.submit_with_options(workload, SubmitOptions::default(), |_| {})
    }

    /// Like [`submit`](Self::submit), with a per-job progress callback
    /// invoked on the coordinator thread (subject to the default
    /// [`ProgressCadence`](crate::ProgressCadence): one event per completed
    /// unit). The handle's [`progress`](JobHandle::progress) snapshot is
    /// updated either way.
    pub fn submit_with_progress<W: Workload + 'static>(
        self: &Arc<Self>,
        workload: W,
        callback: impl Fn(Progress) + Send + Sync + 'static,
    ) -> JobHandle {
        self.submit_with_options(workload, SubmitOptions::default(), callback)
    }

    /// The full submission entry point: explicit [`SubmitOptions`]
    /// (priority, admission bound, progress cadence) plus a per-job
    /// progress callback.
    pub fn submit_with_options<W: Workload + 'static>(
        self: &Arc<Self>,
        workload: W,
        options: SubmitOptions,
        callback: impl Fn(Progress) + Send + Sync + 'static,
    ) -> JobHandle {
        let (tx, rx) = channel();
        let control = self.submit_with_hooks(
            workload,
            options,
            move |_, progress| callback(progress),
            move |_, outcome| {
                // The handle may have been dropped; the outcome is then
                // discarded, which is the fire-and-forget contract.
                let _ = tx.send(outcome);
            },
        );
        JobHandle::new(control, rx)
    }

    /// The hook-based submission entry point under
    /// [`submit_with_options`](Self::submit_with_options): instead of a
    /// [`JobHandle`] to block on, the caller passes a completion hook and
    /// gets the job's [`JobControl`] back immediately. Both hooks run on
    /// the job's coordinator thread and carry the engine-assigned
    /// [`JobId`], so a caller multiplexing many jobs into one queue (the
    /// serve event loop) needs neither a per-job waiter thread nor an id
    /// handshake with the progress stream.
    ///
    /// `on_complete` fires exactly once, after the job is marked finished
    /// ([`JobControl::is_finished`] already answers `true` inside the
    /// hook) and the engine's active-job gauge has been decremented. If
    /// the coordinator thread cannot be spawned, it fires on the calling
    /// thread, before this returns, with an [`EngineError::Workload`].
    pub fn submit_with_hooks<W: Workload + 'static>(
        self: &Arc<Self>,
        workload: W,
        options: SubmitOptions,
        on_progress: impl Fn(JobId, Progress) + Send + Sync + 'static,
        on_complete: impl FnOnce(JobId, Result<WorkloadOutput, EngineError>) + Send + 'static,
    ) -> JobControl {
        let state = self.admit(workload.label());
        let id = state.id;
        let engine = Arc::clone(self);
        let coordinator_state = Arc::clone(&state);
        let spawned = spawn_coordinator(
            id,
            (workload, on_progress, on_complete),
            move |(workload, on_progress, on_complete)| {
                let on_progress: Arc<ProgressFn> =
                    Arc::new(move |progress| on_progress(id, progress));
                let outcome = engine.run_job(
                    &coordinator_state,
                    &options,
                    Some(on_progress),
                    workload.total_units(),
                    |ctx| workload.run(ctx),
                );
                on_complete(id, outcome);
            },
        );
        // A job whose coordinator cannot start fails in place: the caller
        // (the serve event loop) keeps running and its admission slots are
        // released through `on_complete` like any other terminal.
        if let Err(((_, _, on_complete), error)) = spawned {
            self.retire(&state);
            let message = format!("could not start the job coordinator: {error}");
            on_complete(id, Err(EngineError::workload(&state.label, message)));
        }
        JobControl::new(state)
    }

    /// Admits one job: assigns its id and counts it as active until
    /// [`retire`](Self::retire).
    fn admit(&self, label: &str) -> Arc<JobState> {
        let id = JobId(self.next_job_id.fetch_add(1, Ordering::Relaxed));
        self.active_jobs.fetch_add(1, Ordering::Relaxed);
        metrics::global().gauge("marqsim_engine_active_jobs").add(1);
        Arc::new(JobState::new(id, label.to_string()))
    }

    /// Marks an admitted job finished and stops counting it as active.
    fn retire(&self, state: &JobState) {
        state.mark_finished();
        self.active_jobs.fetch_sub(1, Ordering::Relaxed);
        metrics::global().gauge("marqsim_engine_active_jobs").sub(1);
    }

    /// The body of every admitted job, run on its coordinator thread when
    /// submitted and inline on the caller's thread when synchronous. It
    /// opens the `job` span, runs `body` unless the job was cancelled
    /// before it started, and retires the job before the span closes.
    fn run_job<R>(
        &self,
        state: &Arc<JobState>,
        options: &SubmitOptions,
        on_progress: Option<Arc<ProgressFn>>,
        total_units: usize,
        body: impl FnOnce(&WorkloadCtx<'_>) -> Result<R, EngineError>,
    ) -> Result<R, EngineError> {
        metrics::global().counter("marqsim_engine_jobs_total").inc();
        // Everything the job does — graph resolution, pool submissions
        // (whose tasks re-parent here), persist I/O — nests under its span.
        let job_span = trace::Span::enter("job")
            // Named `job`, not `id`: the record already carries the span's
            // own `id` key.
            .field("job", state.id.0)
            .field("label", state.label.as_str());
        // A job cancelled before it starts never touches the pool.
        let outcome = if state.cancel.is_cancelled() {
            Err(EngineError::cancelled(&state.label))
        } else {
            let ctx = WorkloadCtx::new(self, state, on_progress, options, total_units);
            // A panic in a workload body costs that job, not the engine's
            // accounting (the job still retires with an outcome).
            catch_unwind(AssertUnwindSafe(|| body(&ctx))).unwrap_or_else(|payload| {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "workload panicked".to_string());
                Err(EngineError::panic(&state.label, message))
            })
        };
        self.retire(state);
        // Record the job span before the outcome is handed over, so a
        // caller that has collected the outcome also finds the span in the
        // trace.
        drop(job_span);
        outcome
    }

    /// Runs `body` as one synchronous job on the calling thread, with
    /// default options and no progress callback.
    fn run_inline<R>(
        &self,
        label: &str,
        total_units: usize,
        body: impl FnOnce(&WorkloadCtx<'_>) -> Result<R, EngineError>,
    ) -> Result<R, EngineError> {
        let state = self.admit(label);
        self.run_job(&state, &SubmitOptions::default(), None, total_units, body)
    }

    /// Compiles one request as one synchronous job.
    ///
    /// # Errors
    ///
    /// Returns the job's [`EngineError`].
    pub fn compile(&self, request: CompileRequest) -> Result<CompileOutcome, EngineError> {
        self.run_workload(&CompileWorkload::new(request))
            .map(WorkloadOutput::into_compiled)
    }

    /// Compiles many requests concurrently as one synchronous job;
    /// outcomes keep request order.
    pub fn compile_many(
        &self,
        requests: Vec<CompileRequest>,
    ) -> Vec<Result<CompileOutcome, EngineError>> {
        let labels: Vec<String> = requests.iter().map(|r| r.label.clone()).collect();
        self.run_inline("compile_many", labels.len(), |ctx| {
            Ok(ctx.compile_batch(requests))
        })
        .unwrap_or_else(|e| fail_each(&labels, &e))
    }

    /// Runs one sweep across the pool. Byte-identical to
    /// `marqsim_core::experiment::run_sweep` with the same arguments.
    ///
    /// # Errors
    ///
    /// Returns the first failing point's [`EngineError`].
    pub fn run_sweep(
        &self,
        ham: &Hamiltonian,
        strategy: &TransitionStrategy,
        config: &SweepConfig,
    ) -> Result<SweepResult, EngineError> {
        self.run_workload(&SweepWorkload::new(SweepRequest::new(
            strategy.label(),
            ham.clone(),
            strategy.clone(),
            config.clone(),
        )))
        .map(WorkloadOutput::into_swept)
    }

    /// Runs many sweeps concurrently as one synchronous job on one
    /// flattened work queue; outcomes keep request order.
    pub fn run_sweeps(&self, requests: Vec<SweepRequest>) -> Vec<Result<SweepResult, EngineError>> {
        let labels: Vec<String> = requests.iter().map(|r| r.label.clone()).collect();
        let units = requests
            .iter()
            .map(|r| r.config.epsilons.len() * r.config.repeats)
            .sum();
        self.run_inline("run_sweeps", units, |ctx| Ok(ctx.sweep_batch(requests)))
            .unwrap_or_else(|e| fail_each(&labels, &e))
    }

    /// Generic parallel map over the engine's pool: applies `f` to every
    /// item concurrently and returns outputs in input order. Worker panics
    /// become [`EngineError::WorkerPanic`] tagged with `label`, so workload
    /// errors carry the job label.
    pub fn map<I, O, F>(&self, label: &str, items: Vec<I>, f: F) -> Vec<Result<O, EngineError>>
    where
        I: Send + 'static,
        O: Send + 'static,
        F: Fn(usize, I) -> O + Send + Sync + 'static,
    {
        self.pool
            .map(items, Arc::new(f), |_| {})
            .into_iter()
            .map(|result| result.map_err(|message| EngineError::panic(label, message)))
            .collect()
    }
}

/// The outcomes of a synchronous batch whose job failed as a whole (its
/// batch machinery panicked): that failure, once per request.
fn fail_each<T>(labels: &[String], error: &EngineError) -> Vec<Result<T, EngineError>> {
    labels
        .iter()
        .map(|label| Err(EngineError::panic(label, error.to_string())))
        .collect()
}

/// One job of the batch machinery: compile points that share one HTT graph
/// and, with fidelity on, one exact unitary. A compile is a one-point job;
/// a sweep is its `(ε, repetition)` grid of circuit-free points.
struct BatchJob {
    label: String,
    hamiltonian: Hamiltonian,
    strategy: TransitionStrategy,
    /// The evolution time fidelities are scored at, when the job evaluates
    /// fidelity.
    fidelity_time: Option<f64>,
    points: Vec<CompilerConfig>,
}

impl From<CompileRequest> for BatchJob {
    fn from(request: CompileRequest) -> Self {
        BatchJob {
            label: request.label,
            hamiltonian: request.hamiltonian,
            strategy: request.config.strategy.clone(),
            fidelity_time: request.evaluate_fidelity.then_some(request.config.time),
            points: vec![request.config],
        }
    }
}

impl From<SweepRequest> for BatchJob {
    /// The points of `marqsim_core::experiment::run_sweep`: the seeds come
    /// from `point_seed`, the serial seed stream.
    fn from(request: SweepRequest) -> Self {
        let config = &request.config;
        let mut points = Vec::with_capacity(config.epsilons.len() * config.repeats);
        for (eps_idx, &epsilon) in config.epsilons.iter().enumerate() {
            for rep in 0..config.repeats {
                points.push(
                    CompilerConfig::new(config.time, epsilon)
                        .with_strategy(request.strategy.clone())
                        .with_seed(point_seed(config, eps_idx, rep))
                        .without_circuit(),
                );
            }
        }
        BatchJob {
            fidelity_time: config.evaluate_fidelity.then_some(config.time),
            label: request.label,
            hamiltonian: request.hamiltonian,
            strategy: request.strategy,
            points,
        }
    }
}

/// Turns one compiled point (job label, point configuration, compiler
/// output, fidelity) into the job's per-point output. It runs inside the
/// point task, so a sweep point's sampled sequence is dropped there.
type Projection<T> = fn(&str, &CompilerConfig, CompileResult, Option<f64>) -> T;

/// A job's phase-1 products, shared by all of its points.
struct Resolved {
    graph: Arc<HttGraph>,
    /// `exp(i·H·t)` of the graph's working Hamiltonian, for jobs that
    /// evaluate fidelity.
    exact: Option<Arc<Matrix>>,
}

/// One point-level unit of work: the one compile + fidelity path every
/// built-in job runs.
struct PointTask {
    label: Arc<str>,
    config: CompilerConfig,
    graph: Arc<HttGraph>,
    exact: Option<Arc<Matrix>>,
}

impl PointTask {
    fn run<T>(self, project: Projection<T>) -> Result<T, EngineError> {
        let compiler = Compiler::new(self.config);
        let result = compiler
            .compile_with_htt(&self.graph)
            .map_err(|e| EngineError::compile(&self.label, e))?;
        let time = compiler.config().time;
        let fidelity = self.exact.map(|exact| {
            evaluate_fidelity_against(&result.hamiltonian, time, &result.sequence, &exact)
        });
        Ok(project(&self.label, compiler.config(), result, fidelity))
    }
}

impl WorkloadCtx<'_> {
    /// Compiles every request as a one-point job of one batch; outcomes keep
    /// request order.
    pub(crate) fn compile_batch(
        &self,
        requests: Vec<CompileRequest>,
    ) -> Vec<Result<CompileOutcome, EngineError>> {
        let jobs = requests.into_iter().map(BatchJob::from).collect();
        self.run_batch(jobs, |label, _, result, fidelity| CompileOutcome {
            label: label.to_string(),
            result,
            fidelity,
        })
        .into_iter()
        // A one-point job yields exactly one outcome either way.
        .flat_map(|outcome| match outcome {
            Ok(points) => points.into_iter().map(Ok).collect(),
            Err(e) => vec![Err(e)],
        })
        .collect()
    }

    /// Runs every request's sweep as one job of one batch; outcomes keep
    /// request order and are bit-identical to
    /// `marqsim_core::experiment::run_sweep`.
    pub(crate) fn sweep_batch(
        &self,
        requests: Vec<SweepRequest>,
    ) -> Vec<Result<SweepResult, EngineError>> {
        let labels: Vec<String> = requests.iter().map(|r| r.strategy.label()).collect();
        let jobs = requests.into_iter().map(BatchJob::from).collect();
        self.run_batch(jobs, |_, config, result, fidelity| ExperimentPoint {
            epsilon: config.epsilon,
            seed: config.seed,
            num_samples: result.num_samples,
            stats: result.stats,
            fidelity,
        })
        .into_iter()
        .zip(labels)
        .map(|(outcome, label)| outcome.map(|points| SweepResult { label, points }))
        .collect()
    }

    /// Runs a batch of jobs in two phases, with deduplicated graph
    /// resolution and one flattened point-task queue.
    ///
    /// First every job's HTT graph is resolved (through the cache when
    /// enabled) with the builds themselves running on the pool — distinct
    /// Hamiltonians' min-cost-flow solves proceed concurrently — followed
    /// by the exact reference unitary of every job with fidelity on, once
    /// per distinct (working Hamiltonian, t). Then all jobs' points become
    /// tasks on a single work queue, each holding its job's shared graph
    /// and exact unitary, and each point's output is projected inside its
    /// task. A job's outcome is its points in order, or its first error.
    ///
    /// Determinism: each task's output is a pure function of its point, so
    /// outcomes are bit-identical for any thread count or priority.
    fn run_batch<T: Send + 'static>(
        &self,
        jobs: Vec<BatchJob>,
        project: Projection<T>,
    ) -> Vec<Result<Vec<T>, EngineError>> {
        // A job cancelled before graph resolution never touches the pool.
        if self.is_cancelled() {
            return jobs
                .iter()
                .map(|_| Err(EngineError::cancelled(self.label())))
                .collect();
        }
        let graphs = {
            let _span = trace::Span::enter("resolve_graph").field("jobs", jobs.len());
            let requests: Vec<_> = jobs
                .iter()
                .map(|job| (job.label.as_str(), &job.hamiltonian, &job.strategy))
                .collect();
            self.engine.resolve_graphs(&requests, self.priority())
        };
        let resolved = self.engine.resolve_exacts(&jobs, graphs, self.priority());

        let mut tasks = Vec::new();
        let mut owners = Vec::new();
        let mut outcomes: Vec<Result<Vec<T>, EngineError>> = Vec::with_capacity(jobs.len());
        for (index, (job, resolved)) in jobs.into_iter().zip(resolved).enumerate() {
            let Resolved { graph, exact } = match resolved {
                Ok(resolved) => resolved,
                Err(e) => {
                    outcomes.push(Err(e));
                    continue;
                }
            };
            let label: Arc<str> = job.label.into();
            outcomes.push(Ok(Vec::with_capacity(job.points.len())));
            for config in job.points {
                owners.push(index);
                tasks.push(PointTask {
                    label: Arc::clone(&label),
                    config,
                    graph: Arc::clone(&graph),
                    exact: exact.clone(),
                });
            }
        }

        // `map` keeps input order, so the i-th output belongs to the i-th
        // task even when the task panicked.
        let outputs = self.map(tasks, move |_, task: PointTask| task.run(project));
        for (index, output) in owners.into_iter().zip(outputs) {
            if let Ok(points) = &mut outcomes[index] {
                match output {
                    Ok(point) => points.push(point),
                    Err(e) => outcomes[index] = Err(e),
                }
            }
        }
        outcomes
    }
}

impl Engine {
    /// Resolves the exact reference unitary `exp(i·H·t)` of every job that
    /// evaluates fidelity and whose graph resolved, computing each distinct
    /// (working Hamiltonian, t) of the batch once on the pool. Nothing is
    /// kept across batches. A panicking computation fails the jobs that
    /// needed it.
    fn resolve_exacts(
        &self,
        jobs: &[BatchJob],
        graphs: Vec<Result<Arc<HttGraph>, EngineError>>,
        priority: Priority,
    ) -> Vec<Result<Resolved, EngineError>> {
        let mut distinct: Vec<(Arc<HttGraph>, f64)> = Vec::new();
        let job_to_distinct: Vec<Option<usize>> = jobs
            .iter()
            .zip(&graphs)
            .map(|(job, graph)| {
                let (Some(t), Ok(graph)) = (job.fidelity_time, graph) else {
                    return None;
                };
                let shared = distinct.iter().position(|(other, other_t)| {
                    other_t.to_bits() == t.to_bits() && other.hamiltonian() == graph.hamiltonian()
                });
                Some(shared.unwrap_or_else(|| {
                    distinct.push((Arc::clone(graph), t));
                    distinct.len() - 1
                }))
            })
            .collect();

        let span = (!distinct.is_empty())
            .then(|| trace::Span::enter("resolve_exact").field("exacts", distinct.len()));
        let exacts = self.pool.map_at(
            priority,
            distinct,
            Arc::new(|_idx, (graph, t): (Arc<HttGraph>, f64)| {
                let ham = graph.hamiltonian();
                (Arc::new(exact_unitary(ham, t)), exact::cost(ham, t))
            }),
            |_| {},
        );
        // The cost model's inputs over the batch (one unitary's own when
        // `exacts` is 1).
        let _span = span.map(|span| {
            let costs = || exacts.iter().flatten().map(|(_, cost)| cost);
            span.field("qubits", costs().map(|c| c.qubits).max().unwrap_or(0))
                .field("x_groups", costs().map(|c| c.x_groups).sum::<usize>())
                .field("squarings", costs().map(|c| c.squarings).sum::<u32>())
        });

        jobs.iter()
            .zip(graphs)
            .zip(job_to_distinct)
            .map(|((job, graph), index)| {
                let exact = match index.map(|index| &exacts[index]) {
                    None => None,
                    Some(Ok((exact, _))) => Some(Arc::clone(exact)),
                    Some(Err(message)) => {
                        return Err(EngineError::panic(&job.label, message.clone()))
                    }
                };
                Ok(Resolved {
                    graph: graph?,
                    exact,
                })
            })
            .collect()
    }

    /// Resolves the graph of every `(label, Hamiltonian, strategy)`, each
    /// distinct key once, in phases run on the calling (coordinator) thread:
    /// (1) cache lookups, (2) one pool task per distinct `P_gc` the misses
    /// need, (3) the `P_rp` samples of each missed GC-RP or Combined key as
    /// pool tasks, (4) mix, build and insert. No pool task maps on the
    /// pool, so one worker cannot deadlock; graphs and cache counters equal
    /// [`TransitionCache::get_or_build`]'s. Without a cache the phases skip
    /// the lookups, the inserts and the counters.
    pub(crate) fn resolve_graphs(
        &self,
        requests: &[(&str, &Hamiltonian, &TransitionStrategy)],
        priority: Priority,
    ) -> Vec<Result<Arc<HttGraph>, EngineError>> {
        // Deduplicate: the key narrows candidates, full Hamiltonian
        // equality confirms them, as in the cache's own lookup.
        let mut distinct: Vec<(CacheKey, &Hamiltonian, &TransitionStrategy)> = Vec::new();
        let request_to_distinct: Vec<usize> = requests
            .iter()
            .map(|&(_, ham, strategy)| {
                let key = CacheKey {
                    fingerprint: hamiltonian_fingerprint(ham),
                    strategy: StrategyKey::of(strategy),
                };
                let index = distinct.iter().position(|&(k, h, _)| k == key && h == ham);
                index.unwrap_or_else(|| {
                    distinct.push((key, ham, strategy));
                    distinct.len() - 1
                })
            })
            .collect();

        // Phase 1: lookups; a hit needs no pool task. A miss notes the slot
        // of the P_gc it fetches.
        let mut gc_fetches: Vec<(Arc<Hamiltonian>, usize)> = Vec::new();
        let entries: Vec<Result<Arc<HttGraph>, Miss>> = distinct
            .iter()
            .map(|&(key, ham, strategy)| {
                let hit = self.cache_enabled.then(|| self.cache.lookup(&key, ham));
                if let Some(graph) = hit.flatten() {
                    return Ok(graph);
                }
                let working = Arc::new(ham.split_if_dominant());
                let gc = strategy_uses_gate_cancellation(strategy).then(|| {
                    let slot = gc_fetches.iter().position(|(h, _)| *h == working);
                    let slot = slot.unwrap_or_else(|| {
                        gc_fetches.push((Arc::clone(&working), 0));
                        gc_fetches.len() - 1
                    });
                    gc_fetches[slot].1 += 1;
                    slot
                });
                Err(Miss {
                    key,
                    ham,
                    strategy,
                    working,
                    gc,
                })
            })
            .collect();

        // Phase 2: every miss fetches its P_gc through the cache (memory,
        // disk, then a solve), as in a serial build. One Hamiltonian's
        // fetches share a task, so only the first can solve. Without a
        // cache, P_gc is solved once.
        let cache = self.cache_enabled.then(|| Arc::clone(&self.cache));
        let fetch_gc = move |_, (working, fetches): (Arc<Hamiltonian>, usize)| match &cache {
            Some(cache) => {
                let mut component = cache.gc_component(&working);
                for _ in 1..fetches {
                    component = cache.gc_component(&working);
                }
                component
            }
            None => {
                gate_cancellation_matrix_with_basis(&working).map(|(matrix, basis)| GcComponent {
                    matrix: Arc::new(matrix),
                    basis: Arc::new(basis),
                })
            }
        };
        let components: Vec<Result<GcComponent, Failure>> = self
            .pool
            .map_at(priority, gc_fetches, Arc::new(fetch_gc), |_| {})
            .into_iter()
            .map(Failure::flatten)
            .collect();

        // Phases 3 and 4, key by key in index order.
        let cache = self.cache_enabled.then_some(&*self.cache);
        let build = |miss: Miss| {
            let gc = miss.gc.map(|slot| components[slot].as_ref());
            let gc = gc.transpose().map_err(Failure::clone)?;
            let solve_rp = |config: &_, gc_basis: &_| {
                self.perturbation_average(&miss.working, gc_basis, config, priority, |_| {})
            };
            let key = (miss.key, miss.ham);
            build_graph(cache, key, &miss.working, miss.strategy, gc, solve_rp)
        };
        let built: Vec<Result<Arc<HttGraph>, Failure>> = entries
            .into_iter()
            .map(|entry| entry.or_else(build))
            .collect();
        requests
            .iter()
            .zip(request_to_distinct)
            .map(|(&(label, _, _), index)| match &built[index] {
                Ok(graph) => Ok(Arc::clone(graph)),
                Err(failure) => Err(failure.clone().for_job(label)),
            })
            .collect()
    }

    /// The one `P_rp` construction — the pieces of the serial
    /// [`random_perturbation_matrix`](marqsim_core::perturb::random_perturbation_matrix)
    /// — with every sample a pool task warm from `gc_basis` and the samples
    /// averaged in index order, so the matrix is bit-identical at any
    /// thread count. Returns it with the number of samples that re-pivoted
    /// the basis; `on_done` sees the number of samples solved so far.
    pub(crate) fn perturbation_average(
        &self,
        working: &Arc<Hamiltonian>,
        gc_basis: &SpanningBasis,
        config: &PerturbationConfig,
        priority: Priority,
        on_done: impl FnMut(usize),
    ) -> Result<(TransitionMatrix, u64), Failure> {
        let streams = sample_streams(working.num_terms(), config);
        let costs = cnot_cost_matrix(working);
        let shared = Arc::new((Arc::clone(working), costs, gc_basis.clone(), *config));
        let solve = move |_, stream| {
            let (working, costs, basis, config) = &*shared;
            solve_sample(working, costs, stream, config, basis)
        };
        let solved = self
            .pool
            .map_at(priority, streams, Arc::new(solve), on_done);
        let samples = solved.into_iter().map(Failure::flatten);
        let samples = samples.collect::<Result<Vec<_>, _>>()?;
        let warm_starts = samples.iter().filter(|(_, warm)| *warm).count() as u64;
        let p_rp = average_samples(samples.iter().map(|(matrix, _)| matrix))?;
        Ok((p_rp, warm_starts))
    }
}

/// A key the cache did not hold, between the phases of
/// [`Engine::resolve_graphs`].
struct Miss<'a> {
    key: CacheKey,
    ham: &'a Hamiltonian,
    strategy: &'a TransitionStrategy,
    /// `ham` with dominant terms split: what the graph is over.
    working: Arc<Hamiltonian>,
    /// The slot of its `P_gc` component, for the GC strategies.
    gc: Option<usize>,
}

/// Why a graph or a `P_rp` was not built: its build failed, or a pool
/// task it needed panicked.
#[derive(Clone)]
pub(crate) enum Failure {
    Compile(CompileError),
    Panic(String),
}

impl Failure {
    /// The failure as the error of the job labelled `label`.
    pub(crate) fn for_job(self, label: &str) -> EngineError {
        match self {
            Failure::Compile(e) => EngineError::compile(label, e),
            Failure::Panic(message) => EngineError::panic(label, message),
        }
    }

    /// A pool task's outcome, its panic message turned into a failure.
    fn flatten<T>(outcome: Result<Result<T, CompileError>, String>) -> Result<T, Failure> {
        outcome.map_err(Failure::Panic)?.map_err(Failure::Compile)
    }
}

impl From<CompileError> for Failure {
    fn from(e: CompileError) -> Self {
        Failure::Compile(e)
    }
}

/// Starts `run(job)` on a new coordinator thread named after the job. The
/// job crosses to the thread only once the thread exists, so a spawn that
/// fails hands it back with the error.
fn spawn_coordinator<J: Send + 'static>(
    id: JobId,
    job: J,
    run: impl FnOnce(J) + Send + 'static,
) -> Result<(), (J, std::io::Error)> {
    if refuse_spawn() {
        return Err((
            job,
            std::io::Error::other("coordinator spawn refused (test seam)"),
        ));
    }
    let (handoff, pickup) = channel::<J>();
    let spawned = std::thread::Builder::new()
        .name(format!("marqsim-job-{}", id.0))
        .spawn(move || {
            if let Ok(job) = pickup.recv() {
                run(job);
            }
        });
    match spawned {
        Ok(_) => handoff.send(job).map_err(|SendError(job)| {
            let error = std::io::Error::other("the coordinator exited before its job arrived");
            (job, error)
        }),
        Err(error) => Err((job, error)),
    }
}

/// Whether coordinator spawns fail: a test seam, never set outside tests.
#[cfg(not(test))]
fn refuse_spawn() -> bool {
    false
}

#[cfg(test)]
use tests::refuse_spawn;

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;
    use std::sync::Arc;
    use std::time::Duration;

    use marqsim_core::perturb::PerturbationConfig;
    use marqsim_core::TransitionStrategy;
    use marqsim_pauli::Hamiltonian;

    use super::{
        Engine, EngineConfig, EngineError, Priority, SubmitOptions, Workload, WorkloadCtx,
        WorkloadOutput,
    };

    thread_local! {
        /// Set by a test to make every coordinator spawn on its thread fail.
        static REFUSE_SPAWN: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn refuse_spawn() -> bool {
        REFUSE_SPAWN.get()
    }

    struct Noop;

    impl Workload for Noop {
        fn label(&self) -> &str {
            "noop"
        }
        fn total_units(&self) -> usize {
            1
        }
        fn run(&self, _ctx: &WorkloadCtx<'_>) -> Result<WorkloadOutput, EngineError> {
            Ok(WorkloadOutput::new(()))
        }
    }

    #[test]
    fn a_coordinator_that_cannot_spawn_fails_its_job_once() {
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(1)));
        REFUSE_SPAWN.set(true);

        let completions = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&completions);
        let control = engine.submit_with_hooks(
            Noop,
            SubmitOptions::default(),
            |_, _| {},
            move |_, outcome| {
                seen.fetch_add(1, Ordering::Relaxed);
                match outcome {
                    Err(EngineError::Workload { label, message }) => {
                        assert_eq!(label, "noop");
                        assert!(message.contains("refused"), "{message}");
                    }
                    other => panic!("expected a structured spawn error, got {other:?}"),
                }
            },
        );
        assert_eq!(
            completions.load(Ordering::Relaxed),
            1,
            "on_complete fired once"
        );
        assert!(control.is_finished());
        assert_eq!(
            engine.active_jobs(),
            0,
            "the failed submit left no active job"
        );

        let handle = engine.submit(Noop);
        assert!(matches!(
            handle.collect(),
            Err(EngineError::Workload { .. })
        ));
        assert_eq!(engine.active_jobs(), 0);

        REFUSE_SPAWN.set(false);
        engine.submit(Noop).collect().unwrap();
        assert_eq!(engine.active_jobs(), 0);
    }

    fn ham() -> Hamiltonian {
        Hamiltonian::parse("0.9 ZZZZ + 0.8 ZZIZ + 0.7 XXII + 0.6 IYYI + 0.5 IIZZ + 0.4 XYXY")
            .unwrap()
    }

    fn rp_strategies() -> [TransitionStrategy; 2] {
        let perturbation = PerturbationConfig {
            samples: 4,
            ..Default::default()
        };
        [
            TransitionStrategy::GateCancellationRandomPerturbation {
                qdrift_weight: 0.4,
                gc_weight: 0.3,
                perturbation,
            },
            TransitionStrategy::Combined {
                qdrift_weight: 0.2,
                gc_weight: 0.4,
                rp_weight: 0.4,
                perturbation,
            },
        ]
    }

    /// Resolves both P_rp strategies of `ham()` through a workload's
    /// `ctx.resolve_graph`.
    struct ResolveRp;

    impl Workload for ResolveRp {
        fn label(&self) -> &str {
            "resolve-rp"
        }
        fn total_units(&self) -> usize {
            2
        }
        fn run(&self, ctx: &WorkloadCtx<'_>) -> Result<WorkloadOutput, EngineError> {
            let graphs = rp_strategies()
                .iter()
                .map(|strategy| ctx.resolve_graph(&ham(), strategy))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(WorkloadOutput::new(graphs))
        }
    }

    #[test]
    fn a_one_worker_engine_resolves_gc_rp_and_combined_keys() {
        let engine = Engine::new(EngineConfig::default().with_threads(1));
        let (ham, strategies) = (ham(), rp_strategies());
        let requests: Vec<_> = strategies.iter().map(|s| ("batch", &ham, s)).collect();
        for graph in engine.resolve_graphs(&requests, Priority::Normal) {
            graph.unwrap();
        }
        let stats = engine.cache().stats();
        assert_eq!(
            (stats.misses, stats.flow_solves, stats.warm_starts),
            (2, 1, 8)
        );
        // The workload path resolves through the same phases.
        let fresh = Engine::new(EngineConfig::default().with_threads(1).with_cache(false));
        fresh.run_workload(&ResolveRp).unwrap();
    }

    #[test]
    fn a_batch_of_cache_hits_submits_no_resolution_task() {
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(1)));
        let resolve = |engine: &Engine| {
            let (ham, strategies) = (ham(), rp_strategies());
            let requests: Vec<_> = strategies.iter().map(|s| ("hits", &ham, s)).collect();
            let graphs = engine.resolve_graphs(&requests, Priority::Normal);
            graphs.iter().all(Result::is_ok)
        };
        assert!(resolve(&engine));

        // Park the only worker: a resolution that submitted any pool task
        // could not finish until the worker is released.
        let (release, parked) = channel::<()>();
        engine.pool().execute(Box::new(move || {
            let _ = parked.recv();
        }));
        let (done, resolved) = channel();
        let shared = Arc::clone(&engine);
        let resolver = std::thread::spawn(move || {
            let _ = done.send(resolve(&shared));
        });
        let outcome = resolved.recv_timeout(Duration::from_secs(30));
        release.send(()).unwrap();
        resolver.join().unwrap();
        assert_eq!(
            outcome,
            Ok(true),
            "cache hits must resolve without the pool"
        );
        assert_eq!(engine.cache().stats().hits, 2);
    }
}
