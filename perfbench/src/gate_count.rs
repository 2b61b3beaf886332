//! `gate_count_full`: the paper's gate-count and compile-time study
//! (Fig. 13 at full scale, Table 2). Full-scale Table 1 Hamiltonians on both
//! sides of the `auto` flow backend's 100-string crossover, plus a Table 2
//! random Hamiltonian, compiled with circuit synthesis and gate
//! cancellation on and fidelity off through `Engine::compile_many`. One op
//! is one compile; one request is one (Hamiltonian, strategy) batch of every
//! ε and seed.
//!
//! Every round starts by clearing the engine's cache, so every round pays the
//! same cold `P_gc` solves and GC-RP re-pivots, and later compiles of a batch
//! read them from the cache: the min-cost-flow solve dominates.

use std::collections::BTreeMap;
use std::sync::Arc;

use marqsim_core::CompilerConfig;
use marqsim_engine::{CompileRequest, Engine};
use marqsim_hamlib::random::{random_hamiltonian, RandomHamiltonianParams};
use marqsim_hamlib::suite::{benchmark_by_name, SuiteScale};
use marqsim_pauli::Hamiltonian;

use crate::batch::{compare_traced, run_rounds, BatchRequest};
use crate::checks::recount;
use crate::layers::{print_layer_table, Layers, SpanSink};
use crate::replay::{replay_request, strategies, Op, OpOutput};
use crate::report::{engine_config, mix, nproc, print_engine_config, timed, timed_setup, Report};

/// Full-scale Table 1 Hamiltonians: 275 and 210 strings (solved by network
/// simplex under `auto`) and 60 strings (SSP). H2O (550 strings) is left
/// out: its 5 s solve would fill most of a round and leave too few rounds
/// per run for steady medians.
const BENCHMARKS: [&str; 3] = ["OH-", "SYK model 2", "Na+"];
/// Evolution time for the Table 2 random Hamiltonian (10 qubits, 100
/// strings); short enough that sampling and synthesis stay a minority.
const RANDOM_TIME: f64 = 0.25;
const EPSILONS: [f64; 2] = [0.1, 0.05];
const SEEDS_PER_POINT: u64 = 2;

struct Request {
    name: String,
    ham: Hamiltonian,
    ops: Vec<Op>,
}

impl BatchRequest for Request {
    fn name(&self) -> &str {
        &self.name
    }

    fn ops(&self) -> usize {
        self.ops.len()
    }
}

impl Request {
    fn batch(&self) -> Vec<CompileRequest> {
        let strategies = strategies();
        self.ops
            .iter()
            .map(|op| {
                CompileRequest::new(
                    self.name.clone(),
                    self.ham.clone(),
                    CompilerConfig::new(op.time, op.epsilon)
                        .with_strategy(strategies[op.strategy].clone())
                        .with_seed(op.seed),
                )
            })
            .collect()
    }
}

fn requests(seed: u64) -> Vec<Request> {
    let mut named: Vec<(String, Hamiltonian, f64)> = BENCHMARKS
        .iter()
        .map(|name| {
            let benchmark = benchmark_by_name(name, SuiteScale::Full)
                .expect("the benchmark names are Table 1 names");
            (name.to_string(), benchmark.hamiltonian, benchmark.time)
        })
        .collect();
    // The `table2` binary's 10-qubit × 100-string instance. Its generator
    // seed is fixed, as are the Table 1 Hamiltonians', so every benchmark
    // seed compiles the same Hamiltonians and only the sampling varies.
    named.push((
        "random-10q-100".to_string(),
        random_hamiltonian(&RandomHamiltonianParams {
            qubits: 10,
            terms: 100,
            identity_bias: 0.6,
            seed: 1234 + 100,
        }),
        RANDOM_TIME,
    ));
    requests_for(seed, named)
}

/// One batch per Hamiltonian: every strategy × ε × seed.
fn requests_for(seed: u64, named: Vec<(String, Hamiltonian, f64)>) -> Vec<Request> {
    let mut requests = Vec::new();
    for (index, (name, ham, time)) in named.into_iter().enumerate() {
        for (strategy, label) in strategies().iter().map(|s| s.label()).enumerate() {
            let mut ops = Vec::new();
            for &epsilon in &EPSILONS {
                for k in 0..SEEDS_PER_POINT {
                    ops.push(Op {
                        strategy,
                        time,
                        epsilon,
                        // Every strategy samples with the same seeds, so the
                        // CNOT comparison between strategies is paired.
                        seed: mix(seed, (index as u64) << 8 | k) >> 16,
                        circuit: true,
                        fidelity: false,
                    });
                }
            }
            requests.push(Request {
                name: format!("{name}/{label}"),
                ham: ham.clone(),
                ops,
            });
        }
    }
    requests
}

/// Compiles one request's batch and reduces it to its outputs, checking
/// every circuit's reported gate stats against a recount of its gate list.
/// The circuits are dropped as soon as the batch returns.
fn run_request(engine: &Engine, request: &Request) -> Result<Vec<OpOutput>, String> {
    let outcomes = engine
        .compile_many(request.batch())
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    outcomes
        .iter()
        .map(|outcome| {
            let reported = outcome.result.circuit_stats;
            let recounted = recount(&outcome.result.circuit);
            if recounted != reported {
                return Err(format!(
                    "reported {reported:?} but the gate list recounts to {recounted:?}"
                ));
            }
            Ok(OpOutput {
                num_samples: outcome.result.num_samples,
                stats: outcome.result.stats,
                circuit_stats: reported,
                fidelity_bits: None,
            })
        })
        .collect()
}

/// The untraced run: rounds until `seconds` have passed. Every round
/// repeats round 0's inputs on a cleared cache, so later rounds must
/// reproduce round 0 exactly.
pub fn run(seed: u64, seconds: f64) -> Report {
    measure(seconds, || requests(seed))
}

fn measure(seconds: f64, make_requests: impl Fn() -> Vec<Request>) -> Report {
    let mut report = Report::default();
    print_engine_config(&engine_config());
    let ((engine, requests), setup_s) =
        timed_setup(|| (Engine::new(engine_config()), make_requests()));

    // Clearing the cache each round makes every round pay the cold solves
    // while keeping the engine's worker threads.
    let (first, rounds) = run_rounds(
        &mut report,
        &requests,
        seconds,
        || engine.cache().clear(),
        |request| run_request(&engine, request).map(|outputs| (outputs.clone(), outputs)),
    );

    check_gc_beats_baseline(&mut report, &requests, &first);
    let cnot_total: usize = first
        .iter()
        .flatten()
        .flatten()
        .map(|out| out.circuit_stats.cnot)
        .sum();
    report.set("setup_s", setup_s);
    rounds.set_metrics(&mut report);
    report.set("cnot_total", cnot_total as f64);
    report
}

/// The paper's claim: at every ε, MarQSim-GC's mean CNOT count over all
/// Hamiltonians and seeds is below the Baseline's.
fn check_gc_beats_baseline(
    report: &mut Report,
    requests: &[Request],
    first: &[Option<Vec<OpOutput>>],
) {
    // (ε bits, strategy) → (CNOT sum, compiles)
    let mut sums: BTreeMap<(u64, usize), (f64, f64)> = BTreeMap::new();
    for (request, outputs) in requests.iter().zip(first) {
        for (op, out) in request.ops.iter().zip(outputs.iter().flatten()) {
            let entry = sums.entry((op.epsilon.to_bits(), op.strategy)).or_default();
            entry.0 += out.circuit_stats.cnot as f64;
            entry.1 += 1.0;
        }
    }
    let mean =
        |eps: f64, strategy: usize| sums.get(&(eps.to_bits(), strategy)).map(|(sum, n)| sum / n);
    for eps in EPSILONS {
        match (mean(eps, 0), mean(eps, 1)) {
            (Some(baseline), Some(gc)) => {
                eprintln!("[perfbench]   ε={eps}: mean CNOT baseline={baseline:.1} gc={gc:.1}");
                if gc >= baseline {
                    report.fail_ops(
                        1,
                        format!(
                            "ε={eps}: MarQSim-GC mean CNOT {gc} is not below Baseline {baseline}"
                        ),
                    );
                }
            }
            _ => report.fail(format!("ε={eps}: no compiles to compare")),
        }
    }
}

/// The traced run: one untraced round, then the same requests replayed
/// through the layer functions on a fresh engine.
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
            .map(|request| run_request(&engine, request))
            .collect::<Vec<_>>()
    });
    drop(engine);

    let sink = SpanSink::install();
    let engine = Arc::new(Engine::new(config));
    let layers = Arc::new(Layers::default());
    let (traced, traced_wall) = timed(|| {
        requests
            .iter()
            .map(|request| replay_request(&engine, &layers, &request.ham, &request.ops))
            .collect::<Vec<_>>()
    });

    compare_traced(&mut report, requests, untraced, traced);
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

    /// The smallest full-scale Hamiltonian: quick in a debug build, and
    /// large enough for MarQSim-GC to beat the Baseline.
    fn tiny(seed: u64) -> Vec<Request> {
        let b = benchmark_by_name("Na+", SuiteScale::Full).unwrap();
        requests_for(seed, vec![("Na+".to_string(), b.hamiltonian, b.time)])
    }

    #[test]
    fn small_scale_run_passes_its_checks() {
        let report = measure(0.0, || tiny(5));
        assert!(report.correct(), "{:?}", report.failures);
        assert_eq!(report.attempted, 3 * 2 * 2);
        for (name, _) in END_TO_END {
            assert!(report.metrics[name] > 0.0, "{name}");
        }
    }

    #[test]
    fn small_scale_trace_matches_the_untraced_run() {
        let report = trace_requests(&tiny(6));
        assert!(report.correct(), "{:?}", report.failures);
        assert_eq!(report.metrics["flow.cold_solves"], 1.0);
        assert!(report.metrics["circuit.gates_in"] > report.metrics["circuit.gates_removed"]);
        assert!(report.metrics["trace.coverage"] > 0.5);
    }
}
