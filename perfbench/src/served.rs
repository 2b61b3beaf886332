//! `served_mix`: the only workload through `serve`/`net`/wire. An
//! in-process `Server` on loopback, driven by `nproc` `Client` connections
//! in a closed loop (each sends its next `compile` only after the previous
//! reply). One op is one served compile job.
//!
//! Most ops repeat the reduced Table 1 Hamiltonians, so they read the
//! engine cache; about one in ten compiles a fresh random Hamiltonian, which
//! misses it and needs a flow solve; the tiny golden jobs recur every
//! [`GOLDEN_BLOCK`] ops and are checked against the committed gate counts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use marqsim_core::CompilerConfig;
use marqsim_engine::{CompileRequest, CompileWorkload, Engine};
use marqsim_hamlib::random::{random_hamiltonian, RandomHamiltonianParams};
use marqsim_hamlib::suite::{golden_tiny_benchmarks, table1_suite, SuiteScale};
use marqsim_pauli::Hamiltonian;
use marqsim_serve::{compile_params, Client, CompileSummary, Outcome, Server, ServerHandle};

use crate::checks::golden_table2;
use crate::layers::{p50_with_count, ratio, Layers, SpanSink};
use crate::replay::strategies;
use crate::report::{
    engine_config, mix, nproc, print_engine_config, timed, timed_setup, Report, Rounds,
};

/// Every run completes at least this many ops, whatever `--seconds` says.
const MIN_OPS: usize = 1000;
/// The loop is reported as this many consecutive rounds, so a disturbed
/// stretch of the run moves one round's throughput, not the median.
const ROUNDS: usize = 4;
/// The nine golden jobs open every block of this many ops.
const GOLDEN_BLOCK: usize = 100;
/// Every op whose index ends in 9 uses a fresh Hamiltonian.
const FRESH_EVERY: usize = 10;
/// Fresh random Hamiltonians are small: their flow solves take a few
/// milliseconds, below the served round trip. With 8-qubit, 40-string ones,
/// the GC-RP ops' latency straddled the 40 ms TCP delayed-ACK step and the
/// p99 moved by up to 40% between runs.
const FRESH_QUBITS: usize = 6;
const FRESH_TERMS: usize = 24;
const EPSILONS: [f64; 2] = [0.1, 0.05];
const GOLDEN_EPSILON: f64 = 0.05;
const GOLDEN_SEED: u64 = 7;
const STRATEGY_TAGS: [&str; 3] = ["baseline", "gc", "gc-rp"];

/// A Hamiltonian with its wire text, built once.
struct Shared {
    name: String,
    ham: Hamiltonian,
    text: Arc<str>,
    time: f64,
}

impl Shared {
    fn new(name: &str, ham: Hamiltonian, time: f64) -> Shared {
        Shared {
            name: name.to_string(),
            text: ham.to_string().into(),
            ham,
            time,
        }
    }
}

/// Derives op `i` from the seed; the same `(seed, i)` is always the same op.
struct OpSource {
    seed: u64,
    suite: Vec<Shared>,
    golden: Vec<Shared>,
}

struct ServedOp {
    label: String,
    ham: Hamiltonian,
    text: Arc<str>,
    strategy: usize,
    time: f64,
    epsilon: f64,
    seed: u64,
    /// `(benchmark, strategy tag)` for golden jobs.
    golden: Option<(String, &'static str)>,
}

impl ServedOp {
    fn request(&self) -> CompileRequest {
        CompileRequest::new(
            self.label.clone(),
            self.ham.clone(),
            CompilerConfig::new(self.time, self.epsilon)
                .with_strategy(strategies()[self.strategy].clone())
                .with_seed(self.seed)
                .without_circuit(),
        )
    }
}

impl OpSource {
    fn new(seed: u64) -> OpSource {
        OpSource {
            seed,
            suite: table1_suite(SuiteScale::Reduced)
                .into_iter()
                .map(|b| Shared::new(b.name, b.hamiltonian, b.time))
                .collect(),
            golden: golden_tiny_benchmarks()
                .into_iter()
                .map(|(name, ham, time)| Shared::new(name, ham, time))
                .collect(),
        }
    }

    /// One compile per (Hamiltonian, strategy) the op mix repeats, so the
    /// measured ops find their graphs cached.
    fn warm_up_ops(&self) -> Vec<ServedOp> {
        let mut ops = Vec::new();
        for shared in self.suite.iter().chain(&self.golden) {
            for (strategy, tag) in STRATEGY_TAGS.iter().enumerate() {
                ops.push(ServedOp {
                    label: format!("warm/{}/{tag}", shared.name),
                    ham: shared.ham.clone(),
                    text: Arc::clone(&shared.text),
                    strategy,
                    time: shared.time,
                    epsilon: EPSILONS[0],
                    seed: 0,
                    golden: None,
                });
            }
        }
        ops
    }

    fn op(&self, index: usize) -> ServedOp {
        let in_block = index % GOLDEN_BLOCK;
        let golden_jobs = self.golden.len() * STRATEGY_TAGS.len();
        if in_block < golden_jobs {
            let shared = &self.golden[in_block / STRATEGY_TAGS.len()];
            let strategy = in_block % STRATEGY_TAGS.len();
            return ServedOp {
                label: format!("golden/{}/{}", shared.name, STRATEGY_TAGS[strategy]),
                ham: shared.ham.clone(),
                text: Arc::clone(&shared.text),
                strategy,
                time: shared.time,
                epsilon: GOLDEN_EPSILON,
                seed: GOLDEN_SEED,
                golden: Some((shared.name.clone(), STRATEGY_TAGS[strategy])),
            };
        }
        // The op mix depends on the index alone, so every seed serves the
        // same mix; the seed picks sampling seeds and fresh Hamiltonians.
        let r = mix(self.seed, index as u64);
        if index % FRESH_EVERY == FRESH_EVERY - 1 {
            let ham = random_hamiltonian(&RandomHamiltonianParams {
                qubits: FRESH_QUBITS,
                terms: FRESH_TERMS,
                seed: r >> 8,
                ..RandomHamiltonianParams::default()
            });
            return ServedOp {
                label: format!("fresh/{index}"),
                text: ham.to_string().into(),
                ham,
                // GC or GC-RP: both need a flow solve on a fresh Hamiltonian.
                strategy: 1 + (index / FRESH_EVERY) % 2,
                time: 0.5,
                epsilon: 0.1,
                seed: r >> 20,
                golden: None,
            };
        }
        let combo = index % (self.suite.len() * STRATEGY_TAGS.len() * EPSILONS.len());
        let shared = &self.suite[combo % self.suite.len()];
        let strategy = combo / self.suite.len() % STRATEGY_TAGS.len();
        ServedOp {
            label: format!("suite/{}/{}", shared.name, STRATEGY_TAGS[strategy]),
            ham: shared.ham.clone(),
            text: Arc::clone(&shared.text),
            strategy,
            time: shared.time,
            epsilon: EPSILONS[combo / (self.suite.len() * STRATEGY_TAGS.len())],
            seed: r >> 16,
            golden: None,
        }
    }
}

/// A running in-process server and its connected clients; shut down on
/// drop.
struct Served {
    server: Option<ServerHandle>,
    clients: Vec<Client>,
}

impl Served {
    fn start() -> Result<Served, String> {
        let engine = Arc::new(Engine::new(engine_config()));
        let server = Server::bind("127.0.0.1:0", engine)
            .and_then(Server::spawn)
            .map_err(|e| format!("server start: {e}"))?;
        let addr = server.addr();
        let mut served = Served {
            server: Some(server),
            clients: Vec::new(),
        };
        for _ in 0..nproc() {
            let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            served.clients.push(client);
        }
        Ok(served)
    }
}

impl Served {
    /// Compiles every repeated (Hamiltonian, strategy) once, untimed, so the
    /// run measures the cache read-mostly; only fresh ops miss.
    fn warm_up(&mut self, source: &OpSource) -> Result<(), String> {
        let client = self.clients.first_mut().ok_or("no client connected")?;
        for op in source.warm_up_ops() {
            serve_one(client, &op)
                .0
                .map_err(|e| format!("{}: {e}", op.label))?;
        }
        Ok(())
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// One served op as a client saw it.
struct Record {
    index: usize,
    result: Result<CompileSummary, String>,
    latency_s: f64,
    submit_s: f64,
    wait_s: f64,
    /// When the op completed, in seconds since the loop started.
    done_s: f64,
}

fn serve_one(client: &mut Client, op: &ServedOp) -> (Result<CompileSummary, String>, f64, f64) {
    let start = Instant::now();
    let params = compile_params(
        &op.text,
        &strategies()[op.strategy],
        op.time,
        op.epsilon,
        op.seed,
        false,
    );
    let job = match client.submit(&op.label, "compile", params) {
        Ok(job) => job,
        Err(error) => {
            return (
                Err(format!("submit: {error}")),
                start.elapsed().as_secs_f64(),
                0.0,
            )
        }
    };
    let submit_s = start.elapsed().as_secs_f64();
    let result = match client.wait(job) {
        Ok(done) => match done.outcome {
            Outcome::Compile(summary) => Ok(summary),
            other => Err(format!("unexpected outcome {other:?}")),
        },
        Err(error) => Err(format!("wait: {error}")),
    };
    (result, submit_s, start.elapsed().as_secs_f64() - submit_s)
}

/// Drives the clients in a closed loop over ops `0, 1, 2, …` until
/// `stop(next index)` says so. Returns the records in op order and the wall
/// time.
fn drive(
    clients: &mut [Client],
    source: &OpSource,
    stop: impl Fn(usize) -> bool + Sync,
) -> (Vec<Record>, f64) {
    let next = AtomicUsize::new(0);
    let records = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if stop(index) {
                    break;
                }
                let op = source.op(index);
                let (result, submit_s, wait_s) = serve_one(client, &op);
                records.lock().expect("record lock poisoned").push(Record {
                    index,
                    result,
                    latency_s: submit_s + wait_s,
                    submit_s,
                    wait_s,
                    done_s: start.elapsed().as_secs_f64(),
                });
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut records = records.into_inner().expect("record lock poisoned");
    records.sort_by_key(|record| record.index);
    (records, wall)
}

fn summary_bits(
    summary: &CompileSummary,
) -> (
    usize,
    u64,
    marqsim_core::metrics::SequenceStats,
    Option<u64>,
) {
    (
        summary.num_samples,
        summary.lambda.to_bits(),
        summary.stats,
        summary.fidelity.map(f64::to_bits),
    )
}

/// Runs every recorded op, one at a time, through a twin in-process engine
/// with the same configuration, and checks each served result is
/// bit-identical to it, and each golden job matches the committed counts.
/// Returns the twin's per-op latencies.
fn check_records(report: &mut Report, source: &OpSource, records: &[Record]) -> Vec<f64> {
    let golden = match golden_table2() {
        Ok(rows) => rows,
        Err(error) => {
            report.fail(error);
            BTreeMap::new()
        }
    };
    let twin = Engine::new(engine_config());
    let ops: Vec<ServedOp> = records.iter().map(|r| source.op(r.index)).collect();
    let expected: Vec<_> = ops
        .iter()
        .map(|op| {
            timed(|| {
                twin.run_workload(&CompileWorkload::new(op.request()))
                    .map(|out| out.into_compiled())
                    .map_err(|e| e.to_string())
            })
        })
        .collect();
    let mut engine_latencies = Vec::with_capacity(records.len());
    for ((record, op), (expected, latency)) in records.iter().zip(&ops).zip(expected) {
        engine_latencies.push(latency);
        let Ok(served) = &record.result else {
            continue;
        };
        let matches = match &expected {
            Ok(outcome) => {
                summary_bits(served)
                    == summary_bits(&CompileSummary {
                        num_samples: outcome.result.num_samples,
                        lambda: outcome.result.lambda,
                        stats: outcome.result.stats,
                        fidelity: outcome.fidelity,
                    })
            }
            Err(_) => false,
        };
        let golden_ok = op.golden.as_ref().is_none_or(|(name, tag)| {
            golden.get(&(name.clone(), tag.to_string()))
                == Some(&(served.num_samples, served.stats))
        });
        if !matches || !golden_ok {
            report.fail_ops(
                1,
                format!(
                    "op {} ({}): served result differs from the {}",
                    record.index,
                    op.label,
                    if matches {
                        "golden counts"
                    } else {
                        "in-process engine"
                    }
                ),
            );
        }
    }
    engine_latencies
}

/// Splits the loop, by completion time, into [`ROUNDS`] consecutive rounds
/// of equal op counts.
fn split_rounds(records: &[Record]) -> Rounds {
    let mut by_completion: Vec<&Record> = records.iter().collect();
    by_completion.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    let mut rounds = Rounds::default();
    let mut previous_end = 0.0;
    for block in by_completion.chunks(records.len().div_ceil(ROUNDS).max(1)) {
        let end = block.last().map_or(previous_end, |r| r.done_s);
        let latencies: Vec<f64> = block.iter().map(|r| r.latency_s).collect();
        rounds.add(block.len(), end - previous_end, &latencies);
        previous_end = end;
    }
    rounds
}

fn account(report: &mut Report, records: &[Record]) {
    report.attempted += records.len() as u64;
    for record in records {
        if let Err(error) = &record.result {
            report.fail_ops(1, format!("op {}: {error}", record.index));
        }
    }
}

/// The untraced run: one server, at least [`MIN_OPS`] ops and at least
/// `seconds` of load.
pub fn run(seed: u64, seconds: f64) -> Report {
    measure(seed, seconds, MIN_OPS)
}

fn measure(seed: u64, seconds: f64, min_ops: usize) -> Report {
    let mut report = Report::default();
    print_engine_config(&engine_config());
    let (setup, setup_s) =
        timed_setup(|| Served::start().map(|served| (served, OpSource::new(seed))));
    let warmed = setup.and_then(|(mut served, source)| {
        served.warm_up(&source)?;
        Ok((served, source))
    });
    let (mut served, source) = match warmed {
        Ok(setup) => setup,
        Err(error) => {
            report.attempted = 1;
            report.fail_ops(1, error);
            return report;
        }
    };
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let (records, _) = drive(&mut served.clients, &source, |index| {
        index >= min_ops && start.elapsed() >= deadline
    });
    drop(served);
    let rounds = split_rounds(&records);

    account(&mut report, &records);
    check_records(&mut report, &source, &records);
    let cnot_total: usize = records
        .iter()
        .take(min_ops)
        .filter_map(|r| r.result.as_ref().ok())
        .map(|summary| summary.stats.cnot)
        .sum();
    report.set("setup_s", setup_s);
    rounds.set_metrics(&mut report);
    report.set("cnot_total", cnot_total as f64);
    report
}

/// The traced run: an untraced pass for half of `seconds`, then the same
/// ops on a fresh server with client-side timers and the engine's spans on,
/// then the same ops on a twin in-process engine.
pub fn trace(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    print_engine_config(&engine_config());
    let source = OpSource::new(seed);
    let start_warm = || {
        let mut served = Served::start()?;
        served.warm_up(&source)?;
        Ok::<_, String>(served)
    };
    let mut untraced = match start_warm() {
        Ok(served) => served,
        Err(error) => {
            report.attempted = 1;
            report.fail_ops(1, error);
            return report;
        }
    };
    let start = Instant::now();
    let half = Duration::from_secs_f64(seconds / 2.0);
    let (first, untraced_wall) = drive(&mut untraced.clients, &source, |index| {
        index > 0 && start.elapsed() >= half
    });
    drop(untraced);
    let ops = first.len();

    let mut traced = match start_warm() {
        Ok(served) => served,
        Err(error) => {
            report.attempted = 1;
            report.fail_ops(1, error);
            return report;
        }
    };
    let sink = SpanSink::install();
    let (records, traced_wall) = drive(&mut traced.clients, &source, |index| index >= ops);
    let mut totals = (0u64, 0u64, 0u64);
    let mut cache = Default::default();
    for client in &mut traced.clients {
        match client.metrics() {
            Ok(m) => {
                totals.0 += m.requests;
                totals.1 += m.bytes_in;
                totals.2 += m.bytes_out;
            }
            Err(error) => report.fail(format!("metrics: {error}")),
        }
    }
    match traced.clients[0].stats() {
        Ok(stats) => cache = stats.cache,
        Err(error) => report.fail(format!("stats: {error}")),
    }
    drop(traced);
    let spans = sink.totals();

    account(&mut report, &records);
    for (a, b) in first.iter().zip(&records) {
        let same = match (&a.result, &b.result) {
            (Ok(a), Ok(b)) => summary_bits(a) == summary_bits(b),
            _ => false,
        };
        if !same {
            report.fail_ops(
                1,
                format!("op {}: traced result differs from untraced", a.index),
            );
        }
    }
    let engine_latencies = check_records(&mut report, &source, &records);

    let layers = Layers::default();
    let submit: Vec<f64> = records.iter().map(|r| r.submit_s).collect();
    let wait: Vec<f64> = records.iter().map(|r| r.wait_s).collect();
    let untraced_latencies: Vec<f64> = first.iter().map(|r| r.latency_s).collect();
    layers.finish(
        &mut report,
        &spans,
        &cache,
        traced_wall,
        untraced_wall,
        nproc(),
    );
    // Client-side layer time: every op is one submit and one wait.
    let self_time: f64 = submit.iter().chain(&wait).sum();
    let client_time: f64 = records.iter().map(|r| r.latency_s).sum();
    report.set("trace.coverage", ratio(self_time, client_time));
    report.set("serve.submit_p50_s", p50_with_count("submit", &submit));
    report.set("serve.wait_p50_s", p50_with_count("wait", &wait));
    let engine_p50 = p50_with_count("twin engine", &engine_latencies);
    let op_p50 = p50_with_count("served op (untraced)", &untraced_latencies);
    report.set("serve.engine_p50_s", engine_p50);
    report.set("serve.overhead_p50_s", op_p50 - engine_p50);
    report.set("serve.requests", totals.0 as f64);
    report.set("serve.bytes_in", totals.1 as f64);
    report.set("serve.bytes_out", totals.2 as f64);
    report.set(
        "markov.samples",
        records
            .iter()
            .filter_map(|r| r.result.as_ref().ok())
            .map(|s| s.num_samples as f64)
            .sum(),
    );
    eprintln!(
        "[perfbench] served_mix trace: {ops} ops; serve overhead p50 {:.6} s next to engine p50 {engine_p50:.6} s",
        op_p50 - engine_p50
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::END_TO_END;

    #[test]
    fn small_scale_run_passes_its_checks() {
        let report = measure(7, 0.0, 30);
        assert!(report.correct(), "{:?}", report.failures);
        assert_eq!(report.attempted, 30);
        for (name, _) in END_TO_END {
            assert!(report.metrics[name] > 0.0, "{name}");
        }
    }

    #[test]
    fn small_scale_trace_matches_the_untraced_run() {
        let report = trace(8, 0.2);
        assert!(report.correct(), "{:?}", report.failures);
        assert!(report.attempted > 0);
        assert!(report.metrics["serve.requests"] > report.attempted as f64);
        assert!(report.metrics["serve.engine_p50_s"] > 0.0);
    }

    #[test]
    fn ops_are_a_function_of_seed_and_index() {
        let (a, b) = (OpSource::new(9), OpSource::new(9));
        let golden = (0..GOLDEN_BLOCK)
            .filter(|&i| a.op(i).golden.is_some())
            .count();
        assert_eq!(golden, 9);
        let fresh = (0..2000)
            .filter(|&i| a.op(i).label.starts_with("fresh/"))
            .count();
        assert!((120..250).contains(&fresh), "{fresh} fresh ops in 2000");
        for i in [0, 9, 57, 1234] {
            assert_eq!(a.op(i).label, b.op(i).label);
            assert_eq!(a.op(i).seed, b.op(i).seed);
            assert_eq!(a.op(i).text, b.op(i).text);
        }
    }
}
