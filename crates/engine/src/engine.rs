//! The engine: workload execution over the pool + cache.
//!
//! The public job surface is the open [`Workload`] trait (see
//! [`crate::workload`]); this module owns the machinery underneath it — the
//! engine itself and the built-in compile/sweep job plumbing with its
//! deduplicated graph resolution and flattened point-task queue.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;

use marqsim_core::experiment::{
    compile_point_with, point_seed, ExperimentPoint, SweepConfig, SweepResult,
};
use marqsim_core::metrics::evaluate_fidelity_against;
use marqsim_core::{
    CompileError, CompileResult, Compiler, CompilerConfig, HttGraph, TransitionStrategy,
};
use marqsim_linalg::Matrix;
use marqsim_obs::{metrics, trace};
use marqsim_pauli::Hamiltonian;
use marqsim_sim::exact::{self, exact_unitary};

use crate::cache::{hamiltonian_fingerprint, CacheConfig, CacheKey, StrategyKey, TransitionCache};
use crate::error::EngineError;
use crate::job::{CancelToken, JobControl, JobHandle, JobId, JobState};
use crate::pool::{Priority, ThreadPool};
use crate::workload::{
    CompileWorkload, ProgressCadence, ProgressSink, SubmitOptions, SweepWorkload, Workload,
    WorkloadCtx, WorkloadOutput,
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

/// A built-in (compile or sweep) job — the unit the batched machinery
/// schedules. Public API routes through the [`Workload`] trait; this enum
/// stays internal so new workload kinds never require engine surgery.
#[derive(Debug, Clone)]
pub(crate) enum BuiltinJob {
    Compile(CompileRequest),
    Sweep(SweepRequest),
}

impl BuiltinJob {
    fn label(&self) -> &str {
        match self {
            BuiltinJob::Compile(req) => &req.label,
            BuiltinJob::Sweep(req) => &req.label,
        }
    }

    fn hamiltonian(&self) -> &Hamiltonian {
        match self {
            BuiltinJob::Compile(req) => &req.hamiltonian,
            BuiltinJob::Sweep(req) => &req.hamiltonian,
        }
    }

    fn strategy(&self) -> &TransitionStrategy {
        match self {
            BuiltinJob::Compile(req) => &req.config.strategy,
            BuiltinJob::Sweep(req) => &req.strategy,
        }
    }

    /// The evolution time fidelities are scored at, when the job
    /// evaluates fidelity.
    fn fidelity_time(&self) -> Option<f64> {
        match self {
            BuiltinJob::Compile(req) => req.evaluate_fidelity.then_some(req.config.time),
            BuiltinJob::Sweep(req) => req.config.evaluate_fidelity.then_some(req.config.time),
        }
    }
}

/// The result of one built-in job.
#[derive(Debug, Clone)]
pub(crate) enum BuiltinOutcome {
    /// Output of a compile job (boxed: a [`CompileResult`] is an order of
    /// magnitude larger than a sweep handle).
    Compiled(Box<CompileOutcome>),
    /// Output of a sweep job.
    Swept(SweepResult),
}

/// A progress snapshot, reported once per completed unit of work (subject
/// to the submission's [`ProgressCadence`]).
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
    progress: Option<Arc<ProgressFn>>,
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
            progress: None,
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

    /// Installs a default progress callback for *synchronous* runs
    /// ([`run_workload`](Self::run_workload), [`compile_many`](Self::compile_many),
    /// [`run_sweeps`](Self::run_sweeps)), invoked on the calling thread once
    /// per completed unit. Asynchronous submissions attach their own
    /// callback via [`submit_with_progress`](Self::submit_with_progress).
    pub fn with_progress(mut self, callback: impl Fn(Progress) + Send + Sync + 'static) -> Self {
        self.progress = Some(Arc::new(callback));
        self
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

    /// Number of asynchronously submitted jobs that have not yet produced
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

    fn default_sink(&self) -> ProgressSink {
        ProgressSink::new(self.progress.clone(), None, ProgressCadence::default())
    }

    /// The shared plumbing of every *synchronous* built-in run
    /// ([`compile_many`](Self::compile_many), [`run_sweeps`](Self::run_sweeps)):
    /// fresh cancel token, engine-level progress sink, normal priority.
    fn run_builtin_default(
        &self,
        jobs: Vec<BuiltinJob>,
    ) -> Vec<Result<BuiltinOutcome, EngineError>> {
        let sink = self.default_sink();
        self.run_builtin(
            jobs,
            &CancelToken::new(),
            &|completed, total| sink.emit(Progress { completed, total }),
            Priority::Normal,
        )
    }

    /// Runs one workload synchronously on the calling thread (its pool
    /// fan-out still parallelizes) and returns its output. Progress goes to
    /// the engine-level [`with_progress`](Self::with_progress) callback.
    ///
    /// # Errors
    ///
    /// Returns the workload's [`EngineError`].
    pub fn run_workload(&self, workload: &dyn Workload) -> Result<WorkloadOutput, EngineError> {
        let ctx = WorkloadCtx::new(
            self,
            workload.label().to_string(),
            CancelToken::new(),
            self.default_sink(),
            Priority::Normal,
            workload.total_units(),
        );
        workload.run(&ctx)
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
    /// [`ProgressCadence`]: one event per completed unit). The handle's
    /// [`progress`](JobHandle::progress) snapshot is updated either way.
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
    /// hook) and the engine's active-job gauge has been decremented.
    pub fn submit_with_hooks<W: Workload + 'static>(
        self: &Arc<Self>,
        workload: W,
        options: SubmitOptions,
        on_progress: impl Fn(JobId, Progress) + Send + Sync + 'static,
        on_complete: impl FnOnce(JobId, Result<WorkloadOutput, EngineError>) + Send + 'static,
    ) -> JobControl {
        let id = JobId(self.next_job_id.fetch_add(1, Ordering::Relaxed));
        let state = Arc::new(JobState::new(id, workload.label().to_string()));
        let control = JobControl::new(Arc::clone(&state));

        self.active_jobs.fetch_add(1, Ordering::Relaxed);
        let registry = metrics::global();
        registry.counter("marqsim_engine_jobs_total").inc();
        registry.gauge("marqsim_engine_active_jobs").add(1);
        let engine = Arc::clone(self);
        let coordinator_state = Arc::clone(&state);
        let job_id = id.0;
        std::thread::Builder::new()
            .name(format!("marqsim-job-{}", id.0))
            .spawn(move || {
                // The job span is opened on the coordinator thread, so
                // everything the workload does — graph resolution, pool
                // submissions (whose tasks re-parent here), persist I/O —
                // nests under it in the trace.
                let job_span = trace::Span::enter("job")
                    // Named `job`, not `id`: the record already carries
                    // the span's own `id` key.
                    .field("job", job_id)
                    .field("label", coordinator_state.label.as_str());
                let sink = ProgressSink::new(
                    Some(Arc::new(move |progress| on_progress(id, progress))),
                    Some(Arc::clone(&coordinator_state)),
                    options.progress_every,
                );
                let cancel = coordinator_state.cancel.clone();
                // A job cancelled before it starts never touches the pool.
                let outcome = if cancel.is_cancelled() {
                    Err(EngineError::cancelled(&coordinator_state.label))
                } else {
                    let ctx = WorkloadCtx::new(
                        &engine,
                        coordinator_state.label.clone(),
                        cancel,
                        sink,
                        options.priority,
                        workload.total_units(),
                    );
                    // A panic in a custom workload body costs that job, not
                    // the coordinator accounting (the handle still resolves,
                    // active_jobs still decrements).
                    catch_unwind(AssertUnwindSafe(|| workload.run(&ctx))).unwrap_or_else(
                        |payload| {
                            let message = payload
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "workload panicked".to_string());
                            Err(EngineError::panic(&coordinator_state.label, message))
                        },
                    )
                };
                coordinator_state.mark_finished();
                engine.active_jobs.fetch_sub(1, Ordering::Relaxed);
                metrics::global().gauge("marqsim_engine_active_jobs").sub(1);
                // Record the job span before the outcome is handed over, so
                // a caller that has collected the outcome also finds the
                // span in the trace.
                drop(job_span);
                on_complete(id, outcome);
            })
            .expect("spawn job coordinator");

        control
    }

    /// Compiles one request on the calling thread's batch machinery.
    ///
    /// # Errors
    ///
    /// Returns the job's [`EngineError`].
    pub fn compile(&self, request: CompileRequest) -> Result<CompileOutcome, EngineError> {
        self.run_workload(&CompileWorkload::new(request))
            .map(WorkloadOutput::into_compiled)
    }

    /// Compiles many requests concurrently; outcomes keep request order.
    pub fn compile_many(
        &self,
        requests: Vec<CompileRequest>,
    ) -> Vec<Result<CompileOutcome, EngineError>> {
        let jobs = requests.into_iter().map(BuiltinJob::Compile).collect();
        self.run_builtin_default(jobs)
            .into_iter()
            .map(|outcome| {
                outcome.map(|outcome| match outcome {
                    BuiltinOutcome::Compiled(compiled) => *compiled,
                    BuiltinOutcome::Swept(_) => {
                        unreachable!("compile jobs produce compile outcomes")
                    }
                })
            })
            .collect()
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

    /// Runs many sweeps concurrently on one flattened work queue; outcomes
    /// keep request order.
    pub fn run_sweeps(&self, requests: Vec<SweepRequest>) -> Vec<Result<SweepResult, EngineError>> {
        let jobs = requests.into_iter().map(BuiltinJob::Sweep).collect();
        self.run_builtin_default(jobs)
            .into_iter()
            .map(|outcome| {
                outcome.map(|outcome| match outcome {
                    BuiltinOutcome::Swept(sweep) => sweep,
                    BuiltinOutcome::Compiled(_) => {
                        unreachable!("sweep jobs produce sweep outcomes")
                    }
                })
            })
            .collect()
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

    /// Runs a list of built-in jobs: two-phase execution with deduplicated
    /// graph resolution and one flattened point-task queue.
    ///
    /// Execution has two phases. First every job's HTT graph is resolved
    /// (through the cache when enabled) with the graph builds themselves
    /// running on the pool — distinct Hamiltonians' min-cost-flow solves
    /// proceed concurrently — followed by the exact reference unitary of
    /// every job with fidelity on, once per distinct (working Hamiltonian,
    /// t). Then all jobs are expanded into point-level tasks (one per
    /// compile, one per sweep point) on a single work queue, each holding
    /// its job's shared graph and exact unitary.
    ///
    /// Determinism: each task's output is a pure function of its request
    /// (sweep points use `experiment::point_seed`, the serial seed stream),
    /// so outcomes are bit-identical for any thread count or priority.
    pub(crate) fn run_builtin(
        &self,
        jobs: Vec<BuiltinJob>,
        cancel: &CancelToken,
        on_progress: &(dyn Fn(usize, usize) + Sync),
        priority: Priority,
    ) -> Vec<Result<BuiltinOutcome, EngineError>> {
        // A job cancelled before graph resolution never touches the pool.
        if cancel.is_cancelled() {
            return jobs
                .iter()
                .map(|job| Err(EngineError::cancelled(job.label())))
                .collect();
        }
        // Phase 1: resolve one HTT graph per job, building on the pool.
        let graphs = {
            let _span = trace::Span::enter("resolve_graph").field("jobs", jobs.len());
            self.resolve_graphs(&jobs, priority)
        };
        let resolved = self.resolve_exacts(&jobs, graphs, priority);

        // Phase 2: expand into point-level tasks.
        let mut tasks: Vec<Task> = Vec::new();
        for (job_idx, (job, resolved)) in jobs.iter().zip(&resolved).enumerate() {
            let Ok(Resolved { graph, exact }) = resolved else {
                continue;
            };
            match job {
                BuiltinJob::Compile(req) => tasks.push(Task {
                    job: job_idx,
                    slot: 0,
                    kind: TaskKind::Compile {
                        request: req.clone(),
                        graph: Arc::clone(graph),
                        exact: exact.clone(),
                    },
                }),
                BuiltinJob::Sweep(req) => {
                    for (eps_idx, &epsilon) in req.config.epsilons.iter().enumerate() {
                        for rep in 0..req.config.repeats {
                            tasks.push(Task {
                                job: job_idx,
                                slot: eps_idx * req.config.repeats + rep,
                                kind: TaskKind::SweepPoint {
                                    graph: Arc::clone(graph),
                                    exact: exact.clone(),
                                    config: req.config.clone(),
                                    epsilon,
                                    seed: point_seed(&req.config, eps_idx, rep),
                                },
                            });
                        }
                    }
                }
            }
        }

        let total = tasks.len();
        let task_meta: Vec<(usize, usize)> = tasks.iter().map(|t| (t.job, t.slot)).collect();
        let task_cancel = cancel.clone();
        let outputs = self.pool.map_at(
            priority,
            tasks,
            Arc::new(move |_index: usize, task: Task| task.run(&task_cancel)),
            |done| on_progress(done, total),
        );

        // Phase 3: reassemble per job.
        self.assemble(jobs, resolved, task_meta, outputs)
    }

    /// Resolves the exact reference unitary `exp(i·H·t)` of every job that
    /// evaluates fidelity and whose graph resolved, computing each distinct
    /// (working Hamiltonian, t) of the batch once on the pool. Nothing is
    /// kept across batches. A panicking computation fails the jobs that
    /// needed it.
    fn resolve_exacts(
        &self,
        jobs: &[BuiltinJob],
        graphs: Vec<Result<Arc<HttGraph>, EngineError>>,
        priority: Priority,
    ) -> Vec<Result<Resolved, EngineError>> {
        let mut distinct: Vec<(Arc<HttGraph>, f64)> = Vec::new();
        let job_to_distinct: Vec<Option<usize>> = jobs
            .iter()
            .zip(&graphs)
            .map(|(job, graph)| {
                let (Some(t), Ok(graph)) = (job.fidelity_time(), graph) else {
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
                        return Err(EngineError::panic(job.label(), message.clone()))
                    }
                };
                Ok(Resolved {
                    graph: graph?,
                    exact,
                })
            })
            .collect()
    }

    /// Resolves each job's HTT graph through the cache, building each
    /// *distinct* key exactly once.
    ///
    /// Same-batch duplicates are deduplicated up front (not left to racing
    /// cache misses), and distinct keys that share a Hamiltonian fingerprint
    /// — e.g. the GC and GC-RP strategies of one benchmark — are built
    /// sequentially within one pool task so the second build sees the
    /// first's cached `P_gc` component. Unrelated Hamiltonians' builds
    /// still run concurrently across pool workers.
    ///
    /// With the cache disabled every job builds independently (no sharing),
    /// which is that mode's documented contract.
    fn resolve_graphs(
        &self,
        jobs: &[BuiltinJob],
        priority: Priority,
    ) -> Vec<Result<Arc<HttGraph>, EngineError>> {
        if !self.cache_enabled {
            let inputs: Vec<(Hamiltonian, TransitionStrategy)> = jobs
                .iter()
                .map(|job| (job.hamiltonian().clone(), job.strategy().clone()))
                .collect();
            return self
                .pool
                .map_at(
                    priority,
                    inputs,
                    Arc::new(
                        move |_idx, (ham, strategy): (Hamiltonian, TransitionStrategy)| {
                            HttGraph::build(&ham, &strategy).map(Arc::new)
                        },
                    ),
                    |_| {},
                )
                .into_iter()
                .zip(jobs)
                .map(|(result, job)| match result {
                    Ok(built) => built.map_err(|e| EngineError::compile(job.label(), e)),
                    Err(message) => Err(EngineError::panic(job.label(), message)),
                })
                .collect();
        }

        // Deduplicate: one entry per distinct (Hamiltonian, strategy). The
        // cache key narrows candidates, but duplicates are confirmed by
        // full Hamiltonian equality, mirroring the cache's own
        // collision-proof lookup.
        let mut distinct: Vec<(Hamiltonian, TransitionStrategy, CacheKey)> = Vec::new();
        let mut job_to_distinct: Vec<usize> = Vec::with_capacity(jobs.len());
        for job in jobs {
            let key = CacheKey {
                fingerprint: hamiltonian_fingerprint(job.hamiltonian()),
                strategy: StrategyKey::of(job.strategy()),
            };
            let index = distinct
                .iter()
                .position(|(ham, _, k)| *k == key && ham == job.hamiltonian());
            job_to_distinct.push(index.unwrap_or_else(|| {
                distinct.push((job.hamiltonian().clone(), job.strategy().clone(), key));
                distinct.len() - 1
            }));
        }

        // Group distinct entries by fingerprint so same-Hamiltonian builds
        // run sequentially in one task (sharing the P_gc component solve).
        let mut groups_by_fp: HashMap<u64, Vec<usize>> = HashMap::new();
        for (index, (_, _, key)) in distinct.iter().enumerate() {
            groups_by_fp.entry(key.fingerprint).or_default().push(index);
        }
        let groups: Vec<Vec<usize>> = groups_by_fp.into_values().collect();
        let group_members = groups.clone();

        let cache = Arc::clone(&self.cache);
        let distinct_count = distinct.len();
        let shared_distinct = Arc::new(distinct);
        let group_results = self.pool.map_at(
            priority,
            groups,
            Arc::new(move |_idx, members: Vec<usize>| {
                members
                    .into_iter()
                    .map(|index| {
                        let (ham, strategy, _) = &shared_distinct[index];
                        (index, cache.get_or_build(ham, strategy))
                    })
                    .collect::<Vec<_>>()
            }),
            |_| {},
        );

        enum Built {
            Graph(Arc<HttGraph>),
            Failed(CompileError),
            Panicked(String),
        }
        let mut built: Vec<Option<Built>> = (0..distinct_count).map(|_| None).collect();
        for (members, result) in group_members.iter().zip(group_results) {
            match result {
                Ok(entries) => {
                    for (index, outcome) in entries {
                        built[index] = Some(match outcome {
                            Ok(graph) => Built::Graph(graph),
                            Err(e) => Built::Failed(e),
                        });
                    }
                }
                // The panic message is attributed only to this group's
                // members — other groups keep their own outcomes.
                Err(message) => {
                    for &index in members {
                        built[index] = Some(Built::Panicked(message.clone()));
                    }
                }
            }
        }

        jobs.iter()
            .zip(&job_to_distinct)
            .map(|(job, &index)| {
                match built[index]
                    .as_ref()
                    .expect("every distinct entry was built or attributed")
                {
                    Built::Graph(graph) => Ok(Arc::clone(graph)),
                    Built::Failed(e) => Err(EngineError::compile(job.label(), e.clone())),
                    Built::Panicked(message) => {
                        Err(EngineError::panic(job.label(), message.clone()))
                    }
                }
            })
            .collect()
    }

    fn assemble(
        &self,
        jobs: Vec<BuiltinJob>,
        resolved: Vec<Result<Resolved, EngineError>>,
        task_meta: Vec<(usize, usize)>,
        outputs: Vec<Result<TaskOutput, String>>,
    ) -> Vec<Result<BuiltinOutcome, EngineError>> {
        // Group task outputs per job; `pool.map` keeps input order, so the
        // i-th output belongs to the i-th submitted task even when the task
        // panicked and its output carries no indices of its own.
        let mut per_job: Vec<Vec<(usize, Result<TaskOutput, String>)>> =
            jobs.iter().map(|_| Vec::new()).collect();
        for (&(job, slot), output) in task_meta.iter().zip(outputs) {
            per_job[job].push((slot, output));
        }

        jobs.into_iter()
            .zip(resolved)
            .zip(per_job)
            .map(|((job, resolved), mut outputs)| {
                resolved?;
                outputs.sort_by_key(|(slot, _)| *slot);
                match job {
                    BuiltinJob::Compile(req) => {
                        let (_, output) = outputs.pop().expect("one task per compile job");
                        match output {
                            Ok(TaskOutput::Compiled(outcome)) => outcome
                                .map(|outcome| BuiltinOutcome::Compiled(Box::new(outcome)))
                                .map_err(|e| EngineError::compile(&req.label, e)),
                            Ok(TaskOutput::Point(_)) => {
                                unreachable!("compile jobs produce compile outputs")
                            }
                            Ok(TaskOutput::Cancelled) => Err(EngineError::cancelled(&req.label)),
                            Err(message) => Err(EngineError::panic(&req.label, message)),
                        }
                    }
                    BuiltinJob::Sweep(req) => {
                        let mut points: Vec<ExperimentPoint> = Vec::with_capacity(outputs.len());
                        for (_, output) in outputs {
                            match output {
                                Ok(TaskOutput::Point(point)) => points
                                    .push(point.map_err(|e| EngineError::compile(&req.label, e))?),
                                Ok(TaskOutput::Compiled(_)) => {
                                    unreachable!("sweep jobs produce point outputs")
                                }
                                Ok(TaskOutput::Cancelled) => {
                                    return Err(EngineError::cancelled(&req.label))
                                }
                                Err(message) => {
                                    return Err(EngineError::panic(&req.label, message))
                                }
                            }
                        }
                        Ok(BuiltinOutcome::Swept(SweepResult {
                            label: req.strategy.label(),
                            points,
                        }))
                    }
                }
            })
            .collect()
    }
}

/// A job's phase-1 products, shared by all of its tasks.
struct Resolved {
    graph: Arc<HttGraph>,
    /// `exp(i·H·t)` of the graph's working Hamiltonian, for jobs that
    /// evaluate fidelity.
    exact: Option<Arc<Matrix>>,
}

/// One point-level unit of work.
struct Task {
    job: usize,
    slot: usize,
    kind: TaskKind,
}

enum TaskKind {
    Compile {
        request: CompileRequest,
        graph: Arc<HttGraph>,
        exact: Option<Arc<Matrix>>,
    },
    SweepPoint {
        graph: Arc<HttGraph>,
        exact: Option<Arc<Matrix>>,
        config: SweepConfig,
        epsilon: f64,
        seed: u64,
    },
}

enum TaskOutput {
    Compiled(Result<CompileOutcome, marqsim_core::CompileError>),
    Point(Result<ExperimentPoint, marqsim_core::CompileError>),
    /// The job was cancelled before this task started.
    Cancelled,
}

impl Task {
    fn run(self, cancel: &CancelToken) -> TaskOutput {
        if cancel.is_cancelled() {
            return TaskOutput::Cancelled;
        }
        match self.kind {
            TaskKind::Compile {
                request,
                graph,
                exact,
            } => {
                let outcome = Compiler::new(request.config.clone())
                    .compile_with_htt(&graph)
                    .map(|result| {
                        let fidelity = exact.map(|exact| {
                            evaluate_fidelity_against(
                                &result.hamiltonian,
                                request.config.time,
                                &result.sequence,
                                &exact,
                            )
                        });
                        CompileOutcome {
                            label: request.label,
                            result,
                            fidelity,
                        }
                    });
                TaskOutput::Compiled(outcome)
            }
            TaskKind::SweepPoint {
                graph,
                exact,
                config,
                epsilon,
                seed,
            } => TaskOutput::Point(compile_point_with(
                &graph,
                &config,
                epsilon,
                seed,
                exact.as_deref(),
            )),
        }
    }
}
