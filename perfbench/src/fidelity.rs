//! `fidelity_sweep`: the paper's accuracy study (Figs. 12–14). Reduced
//! Table 1 Hamiltonians, molecular and SYK, each swept as one
//! `BenchmarkSuiteWorkload` grid (Baseline, MarQSim-GC, MarQSim-GC-RP × ε ×
//! repeats) through `Engine::run_workload` with fidelity on. One op is one
//! sweep point; one request is one Hamiltonian's grid.
//!
//! The molecular points spend most of their time accumulating the sampled
//! unitary and the SYK points computing the exact one, so a faster kernel
//! and reuse of the exact unitary each show on their own. The three tiny
//! golden Hamiltonians ride along: their points are cheap enough to score
//! against a dense `expm` reference.

use std::sync::Arc;

use marqsim_core::experiment::{point_seed, ExperimentPoint, SweepConfig};
use marqsim_core::{Compiler, CompilerConfig};
use marqsim_engine::{BenchmarkSuiteResult, BenchmarkSuiteWorkload, Engine};
use marqsim_hamlib::suite::{benchmark_by_name, golden_tiny_benchmarks, SuiteScale};
use marqsim_pauli::Hamiltonian;

use crate::batch::{compare_traced, run_rounds, BatchRequest};
use crate::checks::reference_fidelity;
use crate::layers::{print_layer_table, Layers, SpanSink};
use crate::replay::{replay_request, strategies, Op, OpOutput};
use crate::report::{engine_config, mix, nproc, print_engine_config, timed, timed_setup, Report};

/// Reduced (8-qubit) Table 1 Hamiltonians: two molecular, two SYK.
const BENCHMARKS: [&str; 4] = ["Na+", "OH-", "SYK model 1", "SYK model 2"];
const EPSILONS: [f64; 2] = [0.1, 0.05];
const REPEATS: usize = 1;
/// Tiny-Hamiltonian points scored against the dense reference per run.
const REFERENCE_POINTS: u64 = 3;
/// Allowed disagreement between a reported fidelity and the reference.
const REFERENCE_TOLERANCE: f64 = 1e-9;

struct Request {
    name: String,
    ham: Hamiltonian,
    config: SweepConfig,
    /// A tiny golden Hamiltonian, cheap enough for the dense reference.
    tiny: bool,
}

impl BatchRequest for Request {
    fn name(&self) -> &str {
        &self.name
    }

    fn ops(&self) -> usize {
        strategies().len() * self.config.epsilons.len() * self.config.repeats
    }
}

impl Request {
    fn suite(&self) -> BenchmarkSuiteWorkload {
        BenchmarkSuiteWorkload::new("fidelity_sweep").grid(
            [(self.name.clone(), self.ham.clone())],
            &strategies(),
            |_| self.config.clone(),
        )
    }

    /// The request's points in suite order (strategy, then ε, then repeat).
    fn sweep_ops(&self) -> Vec<Op> {
        let config = &self.config;
        let mut ops = Vec::with_capacity(BatchRequest::ops(self));
        for strategy in 0..strategies().len() {
            for (eps_idx, &epsilon) in config.epsilons.iter().enumerate() {
                for rep in 0..config.repeats {
                    ops.push(Op {
                        strategy,
                        time: config.time,
                        epsilon,
                        seed: point_seed(config, eps_idx, rep),
                        circuit: false,
                        fidelity: true,
                    });
                }
            }
        }
        ops
    }
}

fn requests(seed: u64) -> Vec<Request> {
    let mut named: Vec<(String, Hamiltonian, f64, bool)> = BENCHMARKS
        .iter()
        .map(|name| {
            let benchmark = benchmark_by_name(name, SuiteScale::Reduced)
                .expect("the benchmark names are Table 1 names");
            (
                name.to_string(),
                benchmark.hamiltonian,
                benchmark.time,
                false,
            )
        })
        .collect();
    named.extend(
        golden_tiny_benchmarks()
            .into_iter()
            .map(|(name, ham, time)| (name.to_string(), ham, time, true)),
    );
    named
        .into_iter()
        .enumerate()
        .map(|(index, (name, ham, time, tiny))| Request {
            name,
            ham,
            config: SweepConfig {
                time,
                epsilons: EPSILONS.to_vec(),
                repeats: REPEATS,
                // Only the sampling seeds depend on the benchmark seed, so
                // every seed does the same amount of work.
                base_seed: mix(seed, index as u64) >> 16,
                evaluate_fidelity: true,
            },
            tiny,
        })
        .collect()
}

fn points(result: &BenchmarkSuiteResult) -> Vec<&ExperimentPoint> {
    result
        .cases
        .iter()
        .flat_map(|case| case.sweep.points.iter())
        .collect()
}

fn outputs(result: &BenchmarkSuiteResult) -> Vec<OpOutput> {
    points(result)
        .into_iter()
        .map(|point| OpOutput {
            num_samples: point.num_samples,
            stats: point.stats,
            circuit_stats: Default::default(),
            fidelity_bits: point.fidelity.map(f64::to_bits),
        })
        .collect()
}

fn run_request(engine: &Engine, request: &Request) -> Result<BenchmarkSuiteResult, String> {
    engine
        .run_workload(&request.suite())
        .map_err(|e| e.to_string())?
        .downcast::<BenchmarkSuiteResult>()
        .map_err(|_| "suite workload returned another output type".to_string())
}

/// The untraced run: fresh engine, rounds over every request until
/// `seconds` have passed. Every round repeats round 0's inputs, so later
/// rounds must reproduce round 0 bit for bit.
pub fn run(seed: u64, seconds: f64) -> Report {
    measure(seed, seconds, || requests(seed))
}

fn measure(seed: u64, seconds: f64, make_requests: impl Fn() -> Vec<Request>) -> Report {
    let mut report = Report::default();
    let config = engine_config();
    print_engine_config(&config);
    let ((engine, requests), setup_s) =
        timed_setup(|| (Engine::new(config.clone()), make_requests()));

    let (first, rounds) = run_rounds(
        &mut report,
        &requests,
        seconds,
        || {},
        |request| run_request(&engine, request).map(|result| (outputs(&result), result)),
    );

    check_round(&mut report, &engine, &requests, &first, seed);
    let all_points: Vec<&ExperimentPoint> = first.iter().flatten().flat_map(points).collect();
    let fidelities: Vec<f64> = all_points.iter().filter_map(|p| p.fidelity).collect();
    eprintln!(
        "[perfbench] fidelity_sweep: fidelity mean {:.6} over {} points",
        fidelities.iter().sum::<f64>() / fidelities.len().max(1) as f64,
        fidelities.len()
    );
    report.set("setup_s", setup_s);
    rounds.set_metrics(&mut report);
    report.set(
        "cnot_total",
        all_points.iter().map(|p| p.stats.cnot as f64).sum(),
    );
    report
}

/// Checks round 0: every fidelity lies in (0, 1 + 1e-9], and a seeded
/// sample of tiny-Hamiltonian points agrees with the dense reference.
fn check_round(
    report: &mut Report,
    engine: &Engine,
    requests: &[Request],
    first: &[Option<BenchmarkSuiteResult>],
    seed: u64,
) {
    for (request, result) in requests.iter().zip(first) {
        for point in result.iter().flat_map(points) {
            match point.fidelity {
                Some(f) if f > 0.0 && f <= 1.0 + 1e-9 => {}
                other => report.fail_ops(
                    1,
                    format!(
                        "{} ε={} seed={}: fidelity {other:?} outside (0, 1]",
                        request.name, point.epsilon, point.seed
                    ),
                ),
            }
        }
    }
    let tiny: Vec<(&Request, &BenchmarkSuiteResult)> = requests
        .iter()
        .zip(first)
        .filter(|(request, _)| request.tiny)
        .filter_map(|(request, result)| Some((request, result.as_ref()?)))
        .collect();
    for k in 0..REFERENCE_POINTS.min(tiny.len() as u64) {
        let pick = mix(seed ^ 0x5EED, k);
        let (request, result) = tiny[(pick % tiny.len() as u64) as usize];
        let case_index = (pick >> 8) as usize % result.cases.len();
        let case = &result.cases[case_index];
        let strategy = &strategies()[case_index];
        let point = &case.sweep.points[(pick >> 16) as usize % case.sweep.points.len()];
        let recompiled = engine
            .cache()
            .get_or_build(&request.ham, strategy)
            .map_err(|e| e.to_string())
            .and_then(|graph| {
                Compiler::new(
                    CompilerConfig::new(request.config.time, point.epsilon)
                        .with_seed(point.seed)
                        .without_circuit(),
                )
                .compile_with_htt(&graph)
                .map_err(|e| e.to_string())
            });
        let label = format!(
            "{} {} ε={} seed={}",
            request.name, case.strategy, point.epsilon, point.seed
        );
        match recompiled {
            Err(error) => report.fail_ops(1, format!("{label}: recompile failed: {error}")),
            Ok(result)
                if result.num_samples != point.num_samples || result.stats != point.stats =>
            {
                report.fail_ops(
                    1,
                    format!("{label}: recompile differs from the sweep point"),
                )
            }
            Ok(result) => {
                let reference = reference_fidelity(
                    &result.hamiltonian,
                    request.config.time,
                    &result.rotation_sequence(),
                );
                let reported = point.fidelity.unwrap_or(f64::NAN);
                // Written so that a NaN on either side fails the check.
                let agrees = (reported - reference).abs() <= REFERENCE_TOLERANCE;
                if !agrees {
                    report.fail_ops(
                        1,
                        format!("{label}: fidelity {reported} vs dense reference {reference}"),
                    );
                }
            }
        }
    }
}

/// The traced run: one untraced round on a fresh engine, then the same
/// requests replayed through the layer functions on another fresh engine.
pub fn trace(seed: u64) -> Report {
    trace_requests(&requests(seed))
}

fn trace_requests(requests: &[Request]) -> Report {
    let mut report = Report::default();
    let config = engine_config();
    print_engine_config(&config);

    let engine = Engine::new(config.clone());
    let (untraced, untraced_wall) = timed(|| {
        requests
            .iter()
            .map(|request| run_request(&engine, request).map(|result| outputs(&result)))
            .collect::<Vec<_>>()
    });
    drop(engine);

    let sink = SpanSink::install();
    let engine = Arc::new(Engine::new(config));
    let layers = Arc::new(Layers::default());
    let (traced, traced_wall) = timed(|| {
        requests
            .iter()
            .map(|request| replay_request(&engine, &layers, &request.ham, &request.sweep_ops()))
            .collect::<Vec<_>>()
    });

    let fidelities: Vec<f64> = compare_traced(&mut report, requests, untraced, traced)
        .iter()
        .filter_map(|out| out.fidelity_bits.map(f64::from_bits))
        .collect();
    report.set(
        "sim.fidelity_mean",
        fidelities.iter().sum::<f64>() / fidelities.len().max(1) as f64,
    );
    layers.finish(
        &mut report,
        &sink.totals(),
        &engine.cache().stats(),
        traced_wall,
        untraced_wall,
        nproc(),
    );
    print_layer_table(&report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::END_TO_END;

    fn tiny(seed: u64) -> Vec<Request> {
        requests(seed).into_iter().filter(|r| r.tiny).collect()
    }

    #[test]
    fn small_scale_run_passes_its_checks() {
        let report = measure(3, 0.0, || tiny(3));
        assert!(report.correct(), "{:?}", report.failures);
        assert_eq!(report.attempted, 3 * 3 * 2);
        for (name, _) in END_TO_END {
            assert!(report.metrics[name] > 0.0, "{name}");
        }
    }

    #[test]
    fn small_scale_trace_matches_the_untraced_run() {
        let report = trace_requests(&tiny(4));
        assert!(report.correct(), "{:?}", report.failures);
        assert_eq!(report.metrics["sim.exact_calls"], 18.0);
        assert_eq!(report.metrics["sim.exact_distinct"], 3.0);
        assert!(report.metrics["sim.fidelity_mean"] > 0.9);
        assert!(report.metrics["trace.coverage"] > 0.5);
    }
}
