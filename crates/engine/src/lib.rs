//! # marqsim-engine — the parallel compilation engine
//!
//! MarQSim's evaluation loop recompiles the same Hamiltonian dozens of
//! times — once per `(strategy, ε, seed)` point — and every compile with a
//! gate-cancellation strategy re-solves the same min-cost-flow problem from
//! scratch. This crate turns that loop into a subsystem:
//!
//! * **[`ThreadPool`]** (`pool`) — a priority-aware thread-pool executor
//!   over `std::thread` with a shared injector queue (dynamic load
//!   balancing), three scheduling lanes ([`Priority`]), and per-task panic
//!   isolation.
//! * **[`TransitionCache`]** (`cache`) — validated HTT graphs keyed by a
//!   structural Hamiltonian fingerprint plus a strategy key, so the
//!   MCFP-derived `P_gc` — the dominant compile cost — is solved once and
//!   shared across all shots and sweep points of a benchmark (and, at the
//!   component level, across the GC and GC-RP strategies). The cache is
//!   sharded by fingerprint over per-mutex shards (`shard`), bounded by a
//!   per-shard LRU entry cap, and can persist solved `P_gc` matrices to
//!   disk in a versioned binary format with full-Hamiltonian
//!   re-verification on load. [`CacheStats`] exposes
//!   hit/miss/eviction/flow-solve/disk counters.
//! * **The open job API** (`workload`) — the [`Workload`] trait: anything
//!   with a label, a unit count, and a `run` body is submittable. A running
//!   workload is handed a [`WorkloadCtx`] (shared cache, pool fan-out,
//!   cancellation token, throttled progress sink); submission is
//!   parameterized by a typed [`SubmitOptions`] builder (priority,
//!   admission bound, progress cadence). Built-ins: [`CompileWorkload`],
//!   [`SweepWorkload`], [`PerturbAverageWorkload`] (parallel `P_rp`
//!   averaging), and [`BenchmarkSuiteWorkload`] (multi-Hamiltonian ×
//!   multi-strategy sweep grids).
//! * **Asynchronous submission** (`job`) — [`Engine::submit`] returns a
//!   [`JobHandle`] carrying an engine-unique [`JobId`], cooperative
//!   cancellation ([`CancelToken`]), a live progress snapshot, and blocking
//!   ([`JobHandle::collect`]) or non-blocking ([`JobHandle::try_collect`])
//!   outcome collection. This is the layer the `marqsim-serve` TCP
//!   front-end multiplexes client connections onto.
//!
//! # Job model
//!
//! Every job runs through one runner: a submitted job on its own
//! coordinator thread, a synchronous one ([`Engine::run_workload`],
//! [`Engine::compile_many`], [`Engine::run_sweeps`]) inline on the caller's
//! thread. Either way it gets a [`JobId`], a `job` trace span that its pool
//! tasks nest under, and a place in the engine's job instruments.
//!
//! Built-in compile/sweep workloads run on a two-phase batch machine. A job
//! is a list of compile points sharing one Hamiltonian and strategy: a
//! compile is one point, a sweep its `(ε, repetition)` grid. The engine
//! first resolves one HTT graph per job (through the cache, builds running
//! concurrently on the pool), then runs every point as one *point-level
//! task* on a single work queue. Tasks from different jobs interleave, so
//! many small sweeps load-balance exactly as well as one large one. Custom
//! workloads get the same pool through [`WorkloadCtx::map`].
//!
//! # Determinism
//!
//! Parallel execution is bit-identical to serial execution. Two mechanisms
//! guarantee this:
//!
//! 1. **Deterministic per-job seed streams.** A task's RNG seed comes from
//!    its position in the request (`experiment::point_seed` — the same
//!    formula the serial driver uses), never from scheduling order.
//! 2. **Pure tasks, indexed reassembly.** Each task's output is a pure
//!    function of its request, and outputs are reassembled by index, not by
//!    completion order.
//!
//! Consequently `Engine::run_sweep` with any thread count (including via
//! the `MARQSIM_THREADS` override) returns byte-identical `SweepResult`
//! data to `marqsim_core::experiment::run_sweep`, and neither caching nor
//! scheduling priority can change results — only latency.
//!
//! # Environment
//!
//! [`Engine::from_env`] reads four variables; unset or empty means "use
//! the default", and any unparsable value is a hard
//! [`EngineError::InvalidConfig`] naming the offending setting — never a
//! silent fallback.
//!
//! * `MARQSIM_THREADS=N` — worker count (positive integer); unset means
//!   all available cores.
//! * `MARQSIM_CACHE=on|off` (also `1/0`, `true/false`, `yes/no`) —
//!   enable/disable transition-matrix caching.
//! * `MARQSIM_CACHE_CAP=N` — LRU entry cap per cache shard
//!   (`0` = unbounded; default [`cache::DEFAULT_CACHE_CAP`]).
//! * `MARQSIM_CACHE_DIR=PATH` — persist solved `P_gc` matrices under
//!   `PATH` and reload them in later processes.
//!
//! # Example
//!
//! ```
//! use marqsim_engine::{Engine, EngineConfig, SweepRequest, SweepWorkload};
//! use marqsim_core::experiment::{run_sweep, SweepConfig};
//! use marqsim_core::TransitionStrategy;
//! use marqsim_pauli::Hamiltonian;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ham = Hamiltonian::parse("0.9 ZZZZ + 0.7 XXII + 0.5 IYYI + 0.3 IIZZ")?;
//! let config = SweepConfig::quick(0.5);
//! let strategy = TransitionStrategy::marqsim_gc();
//!
//! let engine = Engine::new(EngineConfig::default().with_threads(4));
//! let workload = SweepWorkload::new(SweepRequest::new(
//!     "example",
//!     ham.clone(),
//!     strategy.clone(),
//!     config.clone(),
//! ));
//! let parallel = engine.run_workload(&workload)?.into_swept();
//! let serial = run_sweep(&ham, &strategy, &config)?;
//! for (p, s) in parallel.points.iter().zip(&serial.points) {
//!     assert_eq!(p.seed, s.seed);
//!     assert_eq!(p.stats, s.stats);
//! }
//! # Ok(())
//! # }
//! ```

mod engine;
mod error;
mod persist;

pub mod cache;
pub mod job;
pub mod pool;
pub mod shard;
pub mod workload;

pub use cache::{
    hamiltonian_fingerprint, CacheConfig, CacheKey, CacheStats, StrategyKey, TransitionCache,
};
pub use engine::{CompileOutcome, CompileRequest, Engine, EngineConfig, Progress, SweepRequest};
pub use error::EngineError;
pub use job::{CancelToken, JobControl, JobHandle, JobId};
pub use pool::{Priority, ThreadPool};
pub use shard::ShardedLru;
pub use workload::{
    BenchmarkSuiteResult, BenchmarkSuiteWorkload, CompileWorkload, PerturbAverageResult,
    PerturbAverageWorkload, ProgressCadence, SubmitOptions, SuiteCase, SuiteCaseResult,
    SweepWorkload, Workload, WorkloadCtx, WorkloadOutput,
};

#[cfg(test)]
mod tests {
    use super::*;
    use marqsim_core::experiment::{run_sweep, SweepConfig};
    use marqsim_core::gate_cancel::{
        gate_cancellation_matrix, gate_cancellation_matrix_with_basis,
    };
    use marqsim_core::perturb::{random_perturbation_matrix, PerturbationConfig};
    use marqsim_core::qdrift::qdrift_matrix;
    use marqsim_core::{Compiler, CompilerConfig, TransitionStrategy};
    use marqsim_markov::combine::combine;
    use marqsim_markov::TransitionMatrix;
    use marqsim_pauli::Hamiltonian;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    fn ham() -> Hamiltonian {
        Hamiltonian::parse(
            "0.9 ZZZZ + 0.8 ZZIZ + 0.7 XXII + 0.6 IYYI + 0.5 IIZZ + 0.4 XYXY + 0.3 IZIZ + 0.2 YYII",
        )
        .unwrap()
    }

    fn sweep_workload(
        label: &str,
        strategy: TransitionStrategy,
        config: SweepConfig,
    ) -> SweepWorkload {
        SweepWorkload::new(SweepRequest::new(label, ham(), strategy, config))
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial() {
        let config = SweepConfig {
            time: 0.5,
            epsilons: vec![0.1, 0.05],
            repeats: 4,
            base_seed: 9,
            evaluate_fidelity: false,
        };
        for strategy in [
            TransitionStrategy::QDrift,
            TransitionStrategy::marqsim_gc(),
            TransitionStrategy::marqsim_gc_rp(),
        ] {
            let serial = run_sweep(&ham(), &strategy, &config).unwrap();
            for threads in [1, 4] {
                let engine = Engine::new(EngineConfig::default().with_threads(threads));
                let parallel = engine.run_sweep(&ham(), &strategy, &config).unwrap();
                assert_eq!(parallel.label, serial.label);
                assert_eq!(parallel.points.len(), serial.points.len());
                for (p, s) in parallel.points.iter().zip(&serial.points) {
                    assert_eq!(p.seed, s.seed, "{strategy:?} @ {threads} threads");
                    assert_eq!(p.epsilon.to_bits(), s.epsilon.to_bits());
                    assert_eq!(p.num_samples, s.num_samples);
                    assert_eq!(p.stats, s.stats);
                    assert_eq!(
                        p.fidelity.map(f64::to_bits),
                        s.fidelity.map(f64::to_bits),
                        "fidelity must be bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_points_hit_the_transition_cache() {
        let engine = Engine::new(EngineConfig::default().with_threads(2));
        let config = SweepConfig::quick(0.5);
        let strategy = TransitionStrategy::marqsim_gc();
        engine.run_sweep(&ham(), &strategy, &config).unwrap();
        let first = engine.cache().stats();
        assert_eq!(first.misses, 1, "one graph build for the whole sweep");

        // A second identical sweep is answered entirely from the cache and
        // returns the identical transition matrix.
        let graph_a = engine.cache().get_or_build(&ham(), &strategy).unwrap();
        engine.run_sweep(&ham(), &strategy, &config).unwrap();
        let graph_b = engine.cache().get_or_build(&ham(), &strategy).unwrap();
        assert!(Arc::ptr_eq(&graph_a, &graph_b));
        let second = engine.cache().stats();
        assert_eq!(second.misses, 1, "no further builds");
        assert!(second.hits >= 3);
    }

    #[test]
    fn benchmark_suite_workload_matches_run_sweeps_and_shares_pgc() {
        let sweep_config = SweepConfig {
            time: 0.5,
            epsilons: vec![0.1],
            repeats: 2,
            base_seed: 4,
            evaluate_fidelity: false,
        };
        let strategies = [
            TransitionStrategy::QDrift,
            TransitionStrategy::marqsim_gc(),
            TransitionStrategy::marqsim_gc_rp(),
        ];
        let reference = Engine::new(EngineConfig::default().with_threads(3));
        let expected = reference.run_sweeps(
            strategies
                .iter()
                .map(|s| SweepRequest::new(s.label(), ham(), s.clone(), sweep_config.clone()))
                .collect(),
        );

        let engine = Engine::new(EngineConfig::default().with_threads(3));
        let suite = BenchmarkSuiteWorkload::new("suite").grid(
            vec![("bench".to_string(), ham())],
            &strategies,
            |_| sweep_config.clone(),
        );
        assert_eq!(suite.len(), 3);
        assert_eq!(suite.total_units(), 3 * 2);
        let result: BenchmarkSuiteResult = engine
            .run_workload(&suite)
            .unwrap()
            .downcast()
            .expect("suite output");
        assert_eq!(result.cases.len(), 3);
        for (case, expected) in result.cases.iter().zip(&expected) {
            let expected = expected.as_ref().unwrap();
            assert_eq!(case.benchmark, "bench");
            assert_eq!(case.sweep.label, expected.label);
            for (a, b) in case.sweep.points.iter().zip(&expected.points) {
                assert_eq!(a.seed, b.seed);
                assert_eq!(a.stats, b.stats);
            }
        }
        assert!(result.sweep("bench", "Baseline").is_some());
        assert!(result.sweep("bench", "nope").is_none());

        // The GC and GC-RP cases shared one P_gc component, exactly like
        // the old closed-enum batch did.
        assert_eq!(engine.cache().stats().component_hits, 1);
    }

    #[test]
    fn duplicate_jobs_in_one_batch_build_exactly_once() {
        // Same (Hamiltonian, strategy) four times plus GC-RP once: dedup
        // happens before dispatch, so the counts are exact on any machine —
        // no racing same-key misses (and GC-RP reuses GC's P_gc because
        // same-fingerprint keys build sequentially in one pool task).
        let engine = Engine::new(EngineConfig::default().with_threads(4));
        let config = SweepConfig {
            time: 0.5,
            epsilons: vec![0.1],
            repeats: 1,
            base_seed: 2,
            evaluate_fidelity: false,
        };
        let mut requests: Vec<SweepRequest> = (0..4)
            .map(|i| {
                SweepRequest::new(
                    format!("dup/{i}"),
                    ham(),
                    TransitionStrategy::marqsim_gc(),
                    config.clone(),
                )
            })
            .collect();
        requests.push(SweepRequest::new(
            "dup/gc-rp",
            ham(),
            TransitionStrategy::marqsim_gc_rp(),
            config,
        ));
        let outcomes = engine.run_sweeps(requests);
        assert!(outcomes.iter().all(|o| o.is_ok()));
        let stats = engine.cache().stats();
        assert_eq!(stats.misses, 2, "one build per distinct key");
        assert_eq!(stats.graphs, 2);
        assert_eq!(stats.components, 1);
        assert_eq!(stats.component_hits, 1, "GC-RP reused GC's P_gc");
    }

    #[test]
    fn compile_errors_carry_the_job_label() {
        let engine = Engine::new(EngineConfig::default().with_threads(2));
        let outcomes = engine.compile_many(vec![
            CompileRequest::new(
                "jobs/good",
                ham(),
                CompilerConfig::new(0.5, 0.1).with_seed(1),
            ),
            CompileRequest::new(
                "jobs/bad-epsilon",
                ham(),
                CompilerConfig::new(0.5, -1.0).with_seed(1),
            ),
        ]);
        assert!(outcomes[0].is_ok());
        let err = outcomes[1].as_ref().unwrap_err();
        assert_eq!(err.label(), "jobs/bad-epsilon");
        assert!(err.to_string().contains("precision"));
    }

    #[test]
    fn cache_disabled_engine_still_produces_identical_sweeps() {
        let config = SweepConfig::quick(0.5);
        let strategy = TransitionStrategy::marqsim_gc();
        let serial = run_sweep(&ham(), &strategy, &config).unwrap();
        let engine = Engine::new(EngineConfig::default().with_threads(4).with_cache(false));
        assert!(!engine.cache_enabled());
        let parallel = engine.run_sweep(&ham(), &strategy, &config).unwrap();
        for (p, s) in parallel.points.iter().zip(&serial.points) {
            assert_eq!(p.stats, s.stats);
        }
        assert_eq!(engine.cache().stats().misses, 0, "cache bypassed");
    }

    #[test]
    fn engine_map_runs_arbitrary_work() {
        let engine = Engine::new(EngineConfig::default().with_threads(3));
        let squares = engine.map("squares", (0..20u64).collect(), |_, x| x * x);
        for (i, result) in squares.iter().enumerate() {
            assert_eq!(*result.as_ref().unwrap(), (i * i) as u64);
        }
    }

    #[test]
    fn engine_map_panics_carry_the_label() {
        let engine = Engine::new(EngineConfig::default().with_threads(2));
        let out = engine.map("labelled", vec![1u32, 2, 3], |_, x| {
            if x == 2 {
                panic!("boom {x}");
            }
            x
        });
        let err = out[1].as_ref().unwrap_err();
        assert_eq!(err.label(), "labelled");
        assert!(matches!(err, EngineError::WorkerPanic { .. }));
        assert!(err.to_string().contains("boom 2"));
    }

    #[test]
    fn env_config_parses_thread_override() {
        // Not a full env-var round trip (the suite runs multi-threaded and
        // env vars are process-global); parsing goes through
        // `EngineConfig::from_values`, the pure core of `from_env`.
        let config = EngineConfig::default();
        assert_eq!(config.threads, 0, "0 means auto");
        assert!(config.cache_enabled);
        assert_eq!(config.with_threads(3).threads, 3);

        let parsed = EngineConfig::from_values(Some("6"), None, None, None).unwrap();
        assert_eq!(parsed.threads, 6);
        assert!(parsed.cache_enabled);
    }

    #[test]
    fn invalid_thread_overrides_are_hard_errors() {
        // MARQSIM_THREADS=0 and garbage used to silently fall back to
        // "auto"; both must now produce a clear InvalidConfig.
        for bad in ["0", "garbage", "-2", "1.5"] {
            let err = EngineConfig::from_values(Some(bad), None, None, None).unwrap_err();
            assert!(
                matches!(err, EngineError::InvalidConfig { .. }),
                "MARQSIM_THREADS={bad}"
            );
            assert!(err.to_string().contains("MARQSIM_THREADS"), "{err}");
        }
    }

    #[test]
    fn invalid_cache_switches_and_caps_are_hard_errors() {
        let err = EngineConfig::from_values(None, Some("maybe"), None, None).unwrap_err();
        assert!(err.to_string().contains("MARQSIM_CACHE"));
        let err = EngineConfig::from_values(None, None, Some("lots"), None).unwrap_err();
        assert!(err.to_string().contains("MARQSIM_CACHE_CAP"));

        // Every documented spelling of the switch parses.
        for (value, enabled) in [
            ("1", true),
            ("on", true),
            ("TRUE", true),
            ("yes", true),
            ("0", false),
            ("Off", false),
            ("false", false),
            ("no", false),
        ] {
            let config = EngineConfig::from_values(None, Some(value), None, None).unwrap();
            assert_eq!(config.cache_enabled, enabled, "MARQSIM_CACHE={value}");
        }
    }

    #[test]
    fn cache_cap_and_dir_reach_the_cache_config() {
        let config =
            EngineConfig::from_values(None, None, Some("17"), Some("/tmp/marqsim-cc")).unwrap();
        assert_eq!(config.cache.cap_per_shard, 17);
        assert_eq!(
            config.cache.persist_dir.as_deref(),
            Some(std::path::Path::new("/tmp/marqsim-cc"))
        );
        let engine = Engine::new(config.with_threads(1));
        assert_eq!(engine.cache().cap_per_shard(), 17);
        assert!(engine.cache().persist_dir().is_some());
    }

    #[test]
    fn bounded_cache_sweeps_stay_bit_identical_to_serial() {
        // A one-entry-per-shard cache evicts constantly across the three
        // strategies; results must still match the uncached serial driver
        // bit for bit, and the cap must hold throughout.
        let config = SweepConfig {
            time: 0.5,
            epsilons: vec![0.1, 0.05],
            repeats: 3,
            base_seed: 11,
            evaluate_fidelity: false,
        };
        let cache_config = CacheConfig::default().with_shards(1).with_cap(1);
        let engine = Engine::new(
            EngineConfig::default()
                .with_threads(4)
                .with_cache_config(cache_config),
        );
        for strategy in [
            TransitionStrategy::QDrift,
            TransitionStrategy::marqsim_gc(),
            TransitionStrategy::marqsim_gc_rp(),
        ] {
            let serial = run_sweep(&ham(), &strategy, &config).unwrap();
            let bounded = engine.run_sweep(&ham(), &strategy, &config).unwrap();
            for (p, s) in bounded.points.iter().zip(&serial.points) {
                assert_eq!(p.seed, s.seed, "{strategy:?}");
                assert_eq!(p.stats, s.stats, "{strategy:?}");
            }
            assert!(
                engine
                    .cache()
                    .graph_shard_lens()
                    .iter()
                    .all(|&len| len <= 1),
                "cap exceeded"
            );
        }
        assert!(engine.cache().stats().evictions >= 2);
    }

    #[test]
    fn submitted_jobs_carry_unique_ids_and_match_synchronous_results() {
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(2)));
        let config = SweepConfig::quick(0.5);
        let strategy = TransitionStrategy::marqsim_gc();
        let serial = run_sweep(&ham(), &strategy, &config).unwrap();

        let handles: Vec<_> = (0..3)
            .map(|i| {
                engine.submit(sweep_workload(
                    &format!("async/{i}"),
                    strategy.clone(),
                    config.clone(),
                ))
            })
            .collect();
        let mut ids: Vec<u64> = handles.iter().map(|h| h.id().0).collect();
        ids.dedup();
        assert_eq!(ids.len(), 3, "ids are unique");
        assert_eq!(ids, vec![1, 2, 3], "ids increase in submission order");

        for handle in handles {
            assert_eq!(handle.label().len(), "async/0".len());
            let swept = handle.collect().unwrap().into_swept();
            for (p, s) in swept.points.iter().zip(&serial.points) {
                assert_eq!(p.seed, s.seed);
                assert_eq!(p.stats, s.stats);
            }
        }
        assert_eq!(engine.active_jobs(), 0, "all coordinators retired");
    }

    #[test]
    fn try_collect_is_none_while_running_and_some_exactly_once() {
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(2)));
        let mut handle = engine.submit(sweep_workload(
            "async/poll",
            TransitionStrategy::QDrift,
            SweepConfig::quick(0.5),
        ));
        // Poll until the outcome arrives; every pre-completion poll is None.
        let outcome = loop {
            match handle.try_collect() {
                Some(outcome) => break outcome,
                None => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        };
        assert_eq!(outcome.unwrap().into_swept().points.len(), 6);
        assert!(
            handle.try_collect().is_none(),
            "the outcome is delivered exactly once"
        );
        assert!(handle.progress().completed == handle.progress().total);
    }

    #[test]
    fn cancelled_jobs_resolve_to_the_cancelled_error() {
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(1)));
        // Cancel before submission is observable: the job is cancelled on
        // the handle immediately, so at the latest the first task boundary
        // (and at best the pre-run check) stops it.
        let handle = engine.submit(sweep_workload(
            "async/cancelled",
            TransitionStrategy::QDrift,
            SweepConfig {
                time: 0.5,
                epsilons: vec![0.1; 8],
                repeats: 8,
                base_seed: 1,
                evaluate_fidelity: false,
            },
        ));
        handle.cancel();
        let control = handle.control();
        match handle.collect() {
            Err(EngineError::Cancelled { label }) => assert_eq!(label, "async/cancelled"),
            // The race where the sweep finished before the flag was seen is
            // legal but essentially impossible for a 64-point sweep on one
            // worker; treat it as a failure so a broken cancellation path
            // cannot hide behind it.
            other => panic!("expected cancellation, got {other:?}"),
        }
        assert!(control.is_cancelled());
        assert!(control.is_finished());
    }

    #[test]
    fn submitted_job_progress_reaches_the_callback() {
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(2)));
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let handle = engine.submit_with_progress(
            sweep_workload(
                "async/progress",
                TransitionStrategy::QDrift,
                SweepConfig::quick(0.5),
            ),
            move |progress| {
                seen.fetch_add(1, Ordering::Relaxed);
                assert!(progress.completed <= progress.total);
            },
        );
        handle.collect().unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 6, "one call per point");
    }

    #[test]
    fn progress_cadence_coalesces_events_but_keeps_the_final_one() {
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(2)));
        let events = Arc::new(Mutex::new(Vec::<Progress>::new()));
        let sink = Arc::clone(&events);
        let handle = engine.submit_with_options(
            sweep_workload(
                "async/throttled",
                TransitionStrategy::QDrift,
                SweepConfig {
                    time: 0.5,
                    epsilons: vec![0.1, 0.05],
                    repeats: 6,
                    base_seed: 1,
                    evaluate_fidelity: false,
                },
            ),
            SubmitOptions::new().with_progress_every(ProgressCadence::every(5)),
            move |progress| sink.lock().unwrap().push(progress),
        );
        handle.collect().unwrap();
        let events = events.lock().unwrap();
        assert!(
            events.len() <= 4,
            "12 points at cadence 5 must coalesce, got {} events",
            events.len()
        );
        let last = events.last().expect("final event always delivered");
        assert_eq!((last.completed, last.total), (12, 12));
        for pair in events.windows(2) {
            assert!(pair[0].completed < pair[1].completed, "monotone events");
        }
    }

    /// The `P_rp` a GC-RP compile of `ham()` mixes in: the serial core
    /// construction from the `P_gc` basis of the split Hamiltonian.
    fn serial_p_rp(config: &PerturbationConfig) -> TransitionMatrix {
        let working = ham().split_if_dominant();
        let (_, gc_basis) = gate_cancellation_matrix_with_basis(&working).unwrap();
        random_perturbation_matrix(&working, config, &gc_basis)
            .unwrap()
            .0
    }

    #[test]
    fn perturb_average_workload_is_deterministic_across_thread_counts() {
        let config = PerturbationConfig {
            samples: 6,
            seed: 13,
            ..Default::default()
        };
        let expected = serial_p_rp(&config);
        for threads in [1, 2, 4] {
            for cache in [true, false] {
                let engine = Engine::new(
                    EngineConfig::default()
                        .with_threads(threads)
                        .with_cache(cache),
                );
                let result: PerturbAverageResult = engine
                    .run_workload(&PerturbAverageWorkload::new("prp", ham(), config))
                    .unwrap()
                    .downcast()
                    .expect("perturb output");
                assert_eq!(result.samples, config.samples);
                assert_eq!(result.matrix, expected, "{threads} threads, cache {cache}");
            }
        }
    }

    #[test]
    fn perturb_average_is_the_p_rp_a_gc_rp_compile_mixes_in() {
        let perturbation = PerturbationConfig {
            samples: 4,
            seed: 7,
            ..Default::default()
        };
        let (qdrift_weight, gc_weight) = (0.4, 0.3);
        let engine = Engine::new(EngineConfig::default().with_threads(2));
        let p_rp: PerturbAverageResult = engine
            .run_workload(&PerturbAverageWorkload::new("prp", ham(), perturbation))
            .unwrap()
            .downcast()
            .expect("perturb output");
        // Mixing the verb's matrix with P_qd and P_gc by the GC-RP weights
        // reproduces the compile's transition matrix bit for bit.
        let strategy = TransitionStrategy::GateCancellationRandomPerturbation {
            qdrift_weight,
            gc_weight,
            perturbation,
        };
        let compiled = engine
            .compile(CompileRequest::new(
                "gc-rp",
                ham(),
                CompilerConfig::new(0.5, 0.1).with_strategy(strategy),
            ))
            .unwrap();
        let working = ham().split_if_dominant();
        let p_gc = gate_cancellation_matrix(&working).unwrap();
        let mixed = combine(
            &[qdrift_matrix(&working), p_gc, p_rp.matrix],
            &[qdrift_weight, gc_weight, 1.0 - qdrift_weight - gc_weight],
        )
        .unwrap();
        assert_eq!(*compiled.result.transition, mixed);
    }

    #[test]
    fn perturb_average_workload_warm_starts_from_one_cold_solve() {
        let config = PerturbationConfig {
            samples: 6,
            seed: 13,
            ..Default::default()
        };
        // The one cold solve is P_gc's; every sample re-pivots its basis.
        // A rerun finds P_gc in the component cache.
        for threads in [1, 4] {
            let engine = Engine::new(EngineConfig::default().with_threads(threads));
            for (run, (flow_solves, component_hits)) in [(1, 0), (0, 1)].into_iter().enumerate() {
                let before = engine.cache().stats();
                engine
                    .run_workload(&PerturbAverageWorkload::new("prp-warm", ham(), config))
                    .unwrap();
                let delta = engine.cache().stats().delta_since(&before);
                let context = format!("{threads} threads, run {run}");
                assert_eq!(delta.flow_solves, flow_solves, "{context}");
                assert_eq!(delta.component_hits, component_hits, "{context}");
                assert_eq!(delta.warm_starts, config.samples as u64, "{context}");
                assert_eq!((delta.hits, delta.misses), (0, 0), "{context}");
            }
        }
    }

    #[test]
    fn gc_rp_and_combined_batches_match_serial_compiles_and_count_alike() {
        let gc_rp = TransitionStrategy::GateCancellationRandomPerturbation {
            qdrift_weight: 0.4,
            gc_weight: 0.3,
            perturbation: PerturbationConfig {
                samples: 5,
                seed: 3,
                ..Default::default()
            },
        };
        let combined = TransitionStrategy::Combined {
            qdrift_weight: 0.2,
            gc_weight: 0.4,
            rp_weight: 0.4,
            perturbation: PerturbationConfig {
                samples: 3,
                seed: 8,
                ..Default::default()
            },
        };
        // A duplicate key, and a dominant-term Hamiltonian that is split
        // before its P_gc solve.
        let dominant = Hamiltonian::parse("3.0 XXII + 0.5 ZZII + 0.5 XYZI + 0.4 YYZZ").unwrap();
        let cases = [
            (ham(), gc_rp.clone()),
            (ham(), combined.clone()),
            (ham(), gc_rp),
            (dominant, combined),
        ];
        let configs: Vec<CompilerConfig> = cases
            .iter()
            .enumerate()
            .map(|(i, (_, strategy))| {
                CompilerConfig::new(0.5, 0.05)
                    .with_strategy(strategy.clone())
                    .with_seed(i as u64)
            })
            .collect();
        let serial: Vec<_> = cases
            .iter()
            .zip(&configs)
            .map(|((ham, _), config)| Compiler::new(config.clone()).compile(ham).unwrap())
            .collect();
        let requests = || -> Vec<CompileRequest> {
            cases
                .iter()
                .zip(&configs)
                .map(|((ham, _), config)| CompileRequest::new("rp", ham.clone(), config.clone()))
                .collect()
        };
        // Three distinct keys over two Hamiltonians: two P_gc solves, the
        // second key of `ham()` reuses its component, and every sample of
        // every key re-pivots.
        let cold = CacheStats {
            misses: 3,
            component_hits: 1,
            flow_solves: 2,
            warm_starts: 5 + 3 + 3,
            ..CacheStats::default()
        };
        let warm = CacheStats {
            hits: 3,
            ..CacheStats::default()
        };
        for threads in [1, 2, 4] {
            for cache in [true, false] {
                let engine = Engine::new(
                    EngineConfig::default()
                        .with_threads(threads)
                        .with_cache(cache),
                );
                for expected in [cold, warm] {
                    let before = engine.cache().stats();
                    let outcomes = engine.compile_many(requests());
                    let after = engine.cache().stats();
                    let delta = CacheStats {
                        graphs: 0,
                        components: 0,
                        ..after.delta_since(&before)
                    };
                    let context = format!("{threads} threads, cache {cache}");
                    let expected = if cache {
                        expected
                    } else {
                        CacheStats::default()
                    };
                    assert_eq!(delta, expected, "{context}");
                    for (outcome, reference) in outcomes.into_iter().zip(&serial) {
                        let result = outcome.unwrap().result;
                        assert_eq!(result.transition, reference.transition, "{context}");
                        assert_eq!(result.sequence, reference.sequence, "{context}");
                        assert_eq!(result.circuit_stats, reference.circuit_stats, "{context}");
                    }
                }
            }
        }
    }

    #[test]
    fn high_priority_submissions_produce_identical_results() {
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(2)));
        let config = SweepConfig::quick(0.5);
        let strategy = TransitionStrategy::marqsim_gc();
        let normal = engine.run_sweep(&ham(), &strategy, &config).unwrap();
        let handle = engine.submit_with_options(
            sweep_workload("async/high", strategy, config),
            SubmitOptions::new().with_priority(Priority::High),
            |_| {},
        );
        let high = handle.collect().unwrap().into_swept();
        for (a, b) in high.points.iter().zip(&normal.points) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn panicking_custom_workloads_resolve_as_worker_panics() {
        struct Bomb;
        impl Workload for Bomb {
            fn label(&self) -> &str {
                "bomb"
            }
            fn total_units(&self) -> usize {
                1
            }
            fn run(&self, _ctx: &WorkloadCtx<'_>) -> Result<WorkloadOutput, EngineError> {
                panic!("workload body exploded");
            }
        }
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(1)));
        let handle = engine.submit(Bomb);
        match handle.collect() {
            Err(EngineError::WorkerPanic { label, message }) => {
                assert_eq!(label, "bomb");
                assert!(message.contains("exploded"));
            }
            other => panic!("expected a worker panic, got {other:?}"),
        }
        assert_eq!(engine.active_jobs(), 0, "accounting survives the panic");
        // The engine still runs jobs afterwards.
        engine
            .run_sweep(
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
    }

    #[test]
    fn network_simplex_engine_sweeps_are_deterministic_across_thread_counts() {
        // The sweep outcome is a pure function of the request: the simplex
        // solves and warm re-pivots do not depend on scheduling.
        let config = SweepConfig::quick(0.5);
        let strategy = TransitionStrategy::marqsim_gc_rp();
        let reference = Engine::new(EngineConfig::default().with_threads(1));
        let expected = reference.run_sweep(&ham(), &strategy, &config).unwrap();
        for threads in [2, 4] {
            let engine = Engine::new(EngineConfig::default().with_threads(threads));
            let swept = engine.run_sweep(&ham(), &strategy, &config).unwrap();
            for (a, b) in swept.points.iter().zip(&expected.points) {
                assert_eq!(a.seed, b.seed, "{threads} threads");
                assert_eq!(a.stats, b.stats, "{threads} threads");
            }
            assert_eq!(engine.cache().stats().flow_solves, 1);
        }
    }

    #[test]
    fn cache_stats_delta_isolates_one_window() {
        let engine = Engine::new(EngineConfig::default().with_threads(2));
        let config = SweepConfig::quick(0.5);
        let strategy = TransitionStrategy::marqsim_gc();
        engine.run_sweep(&ham(), &strategy, &config).unwrap();
        let warm = engine.cache().stats();
        assert_eq!(warm.flow_solves, 1);

        engine.run_sweep(&ham(), &strategy, &config).unwrap();
        let delta = engine.cache().stats().delta_since(&warm);
        assert_eq!(delta.flow_solves, 0, "second sweep solved nothing");
        assert_eq!(delta.misses, 0);
        assert!(delta.hits >= 1);
        assert_eq!(delta.graphs, 1, "gauges keep the later snapshot");
    }

    #[test]
    fn persistent_engines_share_flow_solves_across_processes() {
        // Two engines with the same persistence directory model two
        // processes: the second performs zero min-cost-flow solves.
        let dir =
            std::env::temp_dir().join(format!("marqsim-engine-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || {
            EngineConfig::default()
                .with_threads(2)
                .with_cache_config(CacheConfig::default().with_persist_dir(&dir))
        };
        let sweep = SweepConfig::quick(0.5);
        let strategy = TransitionStrategy::marqsim_gc();

        let first = Engine::new(config());
        let warm = first.run_sweep(&ham(), &strategy, &sweep).unwrap();
        assert_eq!(first.cache().stats().flow_solves, 1);
        assert_eq!(first.cache().stats().disk_writes, 1);

        let second = Engine::new(config());
        let reloaded = second.run_sweep(&ham(), &strategy, &sweep).unwrap();
        let stats = second.cache().stats();
        assert_eq!(stats.flow_solves, 0, "P_gc loaded from disk");
        assert_eq!(stats.disk_hits, 1);
        for (a, b) in warm.points.iter().zip(&reloaded.points) {
            assert_eq!(a.stats, b.stats, "disk-loaded sweep is identical");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
