//! Smoke-tests the serve front-end with a localhost round trip: submits a
//! sweep over TCP, checks the result bit-for-bit against the same sweep run
//! through an in-process engine, repeats it on a second connection and
//! requires the warm-cache job to report zero min-cost-flow solves, then
//! submits a `benchmark_suite` workload kind covering the golden `table2`
//! benchmark grid and requires the returned gate counts to match the
//! in-process compiles exactly (the same numbers `tests/golden/table2.txt`
//! pins).
//!
//! Two modes:
//!
//! * `cargo run -p marqsim-bench --bin serve_smoke` — spawns an in-process
//!   server on an OS-assigned port and drives it.
//! * `... --bin serve_smoke -- --connect HOST:PORT` — drives an already
//!   running `marqsim-served` (what the CI serve-smoke job does).
//!
//! Exits non-zero on any mismatch; prints the standard `[cache]` stats line
//! (server-side counters) for the CI grep.

use std::sync::Arc;

use marqsim_bench::report_cache_stats;
use marqsim_core::experiment::SweepConfig;
use marqsim_core::{CompilerConfig, TransitionStrategy};
use marqsim_engine::{CompileRequest, Engine, EngineConfig};
use marqsim_pauli::Hamiltonian;
use marqsim_serve::{suite_params, Client, Outcome, Server};

fn ham() -> Hamiltonian {
    Hamiltonian::parse("0.9 ZZZZ + 0.8 ZZIZ + 0.7 XXII + 0.6 IYYI + 0.5 IIZZ + 0.4 XYXY + 0.3 IZIZ")
        .expect("valid smoke Hamiltonian")
}

/// The tiny fixed benchmark set the `table2` golden file is rendered on —
/// the same `golden_tiny_benchmarks` definition `tests/golden.rs` uses, so
/// the two consumers cannot diverge.
fn table2_benchmarks() -> Vec<(&'static str, Hamiltonian, f64)> {
    marqsim_hamlib::suite::golden_tiny_benchmarks()
}

fn fail(message: impl std::fmt::Display) -> ! {
    marqsim_obs::error!("serve-smoke", "FAILED: {message}");
    std::process::exit(1);
}

/// Sample count of the `flow_solve` latency histogram in a
/// Prometheus-style exposition.
fn flow_solve_histogram_count(exposition: &str) -> u64 {
    exposition
        .lines()
        .filter(|line| line.starts_with("marqsim_flow_solve_seconds_count"))
        .filter_map(|line| line.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let connect = args.iter().position(|a| a == "--connect").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            fail("--connect requires HOST:PORT");
        })
    });

    // Spawn an in-process server unless pointed at an external one.
    let (addr, local_server) = match connect {
        Some(addr) => {
            println!("[serve-smoke] connecting to external server at {addr}");
            (addr, None)
        }
        None => {
            let engine = match Engine::from_env() {
                Ok(engine) => Arc::new(engine),
                Err(error) => fail(error),
            };
            let server = Server::bind("127.0.0.1:0", engine)
                .unwrap_or_else(|e| fail(format!("bind: {e}")))
                .spawn()
                .unwrap_or_else(|e| fail(format!("spawn: {e}")));
            let addr = server.addr().to_string();
            println!("[serve-smoke] spawned in-process server at {addr}");
            (addr, Some(server))
        }
    };

    let strategy = TransitionStrategy::marqsim_gc();
    let config = SweepConfig {
        time: 0.5,
        epsilons: vec![0.1, 0.05],
        repeats: 3,
        base_seed: 9,
        evaluate_fidelity: false,
    };

    // Reference: the identical sweep through a local in-process engine.
    let reference_engine = Engine::new(EngineConfig::default().with_threads(2));
    let reference = reference_engine
        .run_sweep(&ham(), &strategy, &config)
        .unwrap_or_else(|e| fail(format!("in-process sweep: {e}")));

    // Round trip 1: cold cache on the server side.
    let mut client = Client::connect(&*addr).unwrap_or_else(|e| fail(format!("connect: {e}")));
    println!(
        "[serve-smoke] connected; server runs {} worker threads, serves: {}",
        client.threads(),
        client.workloads().join(", ")
    );
    let job = client
        .submit_sweep("smoke/cold", &ham(), &strategy, &config)
        .unwrap_or_else(|e| fail(format!("submit: {e}")));
    let mut progress_events = 0usize;
    let cold = client
        .wait_with_progress(job, |_, _| progress_events += 1)
        .unwrap_or_else(|e| fail(format!("wait: {e}")));
    let cold_sweep = match cold.outcome {
        Outcome::Sweep(sweep) => sweep,
        other => fail(format!("unexpected outcome {other:?}")),
    };
    println!(
        "[serve-smoke] job {job}: {} points, {} progress events, cache delta flow_solves={}",
        cold_sweep.points.len(),
        progress_events,
        cold.cache_delta.flow_solves
    );

    if cold_sweep.points.len() != reference.points.len() {
        fail("point count mismatch");
    }
    for (index, (remote, local)) in cold_sweep.points.iter().zip(&reference.points).enumerate() {
        if remote.seed != local.seed
            || remote.epsilon.to_bits() != local.epsilon.to_bits()
            || remote.num_samples != local.num_samples
            || remote.stats != local.stats
            || remote.fidelity.map(f64::to_bits) != local.fidelity.map(f64::to_bits)
        {
            fail(format!(
                "point {index} differs between TCP and in-process results"
            ));
        }
    }
    println!("[serve-smoke] TCP sweep is bit-identical to the in-process engine");

    // Telemetry: the cold job's min-cost-flow solves must be visible in the
    // server's flow-solve latency histogram through the metrics verb.
    let cold_metrics = client
        .metrics()
        .unwrap_or_else(|e| fail(format!("metrics: {e}")));
    let cold_solves = flow_solve_histogram_count(&cold_metrics.exposition);
    if cold_solves == 0 {
        fail("metrics exposition reports an empty flow-solve histogram after a cold GC sweep");
    }
    if cold_metrics.requests == 0 || cold_metrics.bytes_in == 0 || cold_metrics.bytes_out == 0 {
        fail("metrics verb reports zero per-connection request/byte counters");
    }

    // Round trip 2: a second connection must be served from the warm cache.
    let mut second =
        Client::connect(&*addr).unwrap_or_else(|e| fail(format!("second connect: {e}")));
    let warm_job = second
        .submit_sweep("smoke/warm", &ham(), &strategy, &config)
        .unwrap_or_else(|e| fail(format!("second submit: {e}")));
    let warm = second
        .wait(warm_job)
        .unwrap_or_else(|e| fail(format!("second wait: {e}")));
    if warm.cache_delta.flow_solves != 0 {
        fail(format!(
            "warm-cache job performed {} flow solves (expected 0)",
            warm.cache_delta.flow_solves
        ));
    }
    match warm.outcome {
        Outcome::Sweep(sweep) => {
            for (a, b) in sweep.points.iter().zip(&cold_sweep.points) {
                if a.stats != b.stats {
                    fail("warm result differs from cold result");
                }
            }
        }
        other => fail(format!("unexpected outcome {other:?}")),
    }
    println!("[serve-smoke] second client shared the warm cache (flow_solves=0)");

    // The warm rerun must leave the flow-solve histogram count unchanged —
    // the registry-level proof that the cache, not a re-solve, served it.
    let warm_metrics = second
        .metrics()
        .unwrap_or_else(|e| fail(format!("warm metrics: {e}")));
    let warm_solves = flow_solve_histogram_count(&warm_metrics.exposition);
    println!(
        "[telemetry] flow_solve_hist_cold={cold_solves} flow_solve_hist_warm={warm_solves} equal={}",
        warm_solves == cold_solves
    );
    if warm_solves != cold_solves {
        fail("warm-cache rerun changed the flow-solve histogram count");
    }

    // Round trip 3: the open submit verb — a benchmark_suite workload kind
    // replaying the golden table2 grid (3 tiny benchmarks × 3 strategies at
    // ε = 0.05, seed 7: with repeats=1 and base_seed=7 the single sweep
    // point compiles exactly like the golden `engine.compile` calls).
    let suite_strategies = [
        ("baseline", TransitionStrategy::QDrift),
        ("gc", TransitionStrategy::marqsim_gc()),
        ("gc-rp", TransitionStrategy::marqsim_gc_rp()),
    ];
    let mut cases = Vec::new();
    for (name, ham, time) in table2_benchmarks() {
        for (tag, strategy) in &suite_strategies {
            cases.push((
                format!("{name}/{tag}"),
                ham.to_string(),
                strategy.clone(),
                SweepConfig {
                    time,
                    epsilons: vec![0.05],
                    repeats: 1,
                    base_seed: 7,
                    evaluate_fidelity: false,
                },
            ));
        }
    }
    let suite_job = second
        .submit(
            "smoke/table2-suite",
            "benchmark_suite",
            suite_params(&cases),
        )
        .unwrap_or_else(|e| fail(format!("suite submit: {e}")));
    let suite = second
        .wait(suite_job)
        .unwrap_or_else(|e| fail(format!("suite wait: {e}")));
    let suite_result = match suite.outcome {
        Outcome::Suite(result) => result,
        other => fail(format!("unexpected outcome {other:?}")),
    };
    if suite_result.cases.len() != cases.len() {
        fail("suite case count mismatch");
    }
    let mut remote_cases = suite_result.cases.iter();
    for (name, ham, time) in table2_benchmarks() {
        for (tag, strategy) in &suite_strategies {
            let expected = reference_engine
                .compile(CompileRequest::new(
                    format!("golden/{name}/{tag}"),
                    ham.clone(),
                    CompilerConfig::new(time, 0.05)
                        .with_strategy(strategy.clone())
                        .with_seed(7)
                        .without_circuit(),
                ))
                .unwrap_or_else(|e| fail(format!("in-process compile: {e}")));
            let case = remote_cases.next().expect("case count checked");
            let point = match case.sweep.points.as_slice() {
                [point] => point,
                _ => fail(format!("{name}/{tag}: expected exactly one sweep point")),
            };
            if point.num_samples != expected.result.num_samples
                || point.stats != expected.result.stats
            {
                fail(format!(
                    "{name}/{tag}: TCP benchmark_suite differs from the golden table2 compile"
                ));
            }
        }
    }
    println!(
        "[serve-smoke] benchmark_suite over TCP reproduced the golden table2 numbers ({} cases)",
        cases.len()
    );

    let stats = second
        .stats()
        .unwrap_or_else(|e| fail(format!("stats: {e}")));
    report_cache_stats(stats.cache);

    if let Some(server) = local_server {
        server.shutdown();
    }
    println!("[serve-smoke] OK");
}
