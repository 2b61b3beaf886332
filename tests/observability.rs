//! Property-based tests of the telemetry layer: histogram bucket
//! placement, merge semantics, and quantile bounds over random inputs,
//! plus the span invariants the tracing docs promise — child spans nest
//! arithmetically inside their parent's interval, a job's queue-wait
//! plus run time never exceeds its wall time, every synchronous run is
//! one `job` root, and a fidelity batch runs one exact-unitary task per
//! distinct (Hamiltonian, t).
//!
//! The histogram properties run on isolated `Histogram` values, so they
//! parallelize freely. The span properties share the process-global trace
//! sink, so they serialize on one mutex (the same discipline the obs
//! crate's own unit tests use).

use std::sync::{Mutex, PoisonError};

use quickprop::{check, Config, Gen};

use std::sync::Arc;

use marqsim::core::experiment::{point_seed, SweepConfig};
use marqsim::core::{CompilerConfig, TransitionStrategy};
use marqsim::engine::{CompileRequest, Engine, EngineConfig, SweepRequest, SweepWorkload};
use marqsim::obs::metrics::Histogram;
use marqsim::obs::trace;
use marqsim::pauli::Hamiltonian;

/// Random strictly increasing finite edges (1 to 8 of them) spanning a
/// few orders of magnitude, plus values chosen to land below, between,
/// and beyond them.
fn edges_and_values(g: &mut Gen) -> (Vec<f64>, Vec<f64>) {
    let mut edges = Vec::new();
    let mut edge = g.f64_in(1e-6, 1e-3);
    for _ in 0..g.usize_in(1..9) {
        edges.push(edge);
        edge *= g.f64_in(1.5, 20.0);
    }
    let top = *edges.last().expect("at least one edge");
    let values = g.vec_of(0..40, |g| {
        if g.bool(0.15) {
            // Past the last edge: must land in the overflow bucket.
            top * g.f64_in(1.0 + 1e-9, 100.0)
        } else {
            g.f64_in(0.0, top)
        }
    });
    (edges, values)
}

/// The bucket `v` belongs in per the documented rule: the first edge
/// `>= v`, else the overflow bucket.
fn expected_bucket(edges: &[f64], v: f64) -> usize {
    edges
        .iter()
        .position(|&edge| v <= edge)
        .unwrap_or(edges.len())
}

#[test]
fn recorded_values_land_in_the_documented_bucket() {
    check(
        "histogram bucket placement",
        Config::default().with_seed(0x0B51),
        edges_and_values,
        |(edges, values)| {
            let h = Histogram::new(edges);
            let mut expected = vec![0u64; edges.len() + 1];
            for &v in values {
                h.record(v);
                expected[expected_bucket(edges, v)] += 1;
            }
            let snapshot = h.snapshot();
            if snapshot.counts != expected {
                return Err(format!(
                    "bucket counts {:?} differ from the documented placement {:?}",
                    snapshot.counts, expected
                ));
            }
            if snapshot.count != values.len() as u64 {
                return Err(format!(
                    "total count {} != {} recorded values",
                    snapshot.count,
                    values.len()
                ));
            }
            let sum: f64 = values.iter().sum();
            if (snapshot.sum - sum).abs() > 1e-9 * sum.abs().max(1.0) {
                return Err(format!("sum {} != recorded sum {sum}", snapshot.sum));
            }
            Ok(())
        },
    );
}

#[test]
fn merging_two_histograms_equals_recording_the_union() {
    check(
        "histogram merge == union",
        Config::default().with_seed(0x0B52),
        |g| {
            let (edges, values) = edges_and_values(g);
            let split = g.usize_in(0..values.len() + 1);
            (edges, values, split)
        },
        |(edges, values, split)| {
            let (left_values, right_values) = values.split_at(*split);
            let left = Histogram::new(edges);
            let right = Histogram::new(edges);
            let union = Histogram::new(edges);
            for &v in left_values {
                left.record(v);
                union.record(v);
            }
            for &v in right_values {
                right.record(v);
                union.record(v);
            }
            left.merge(&right);
            let merged = left.snapshot();
            let expected = union.snapshot();
            if merged.counts != expected.counts || merged.count != expected.count {
                return Err(format!("merged {merged:?} != union {expected:?}"));
            }
            if (merged.sum - expected.sum).abs() > 1e-9 * expected.sum.abs().max(1.0) {
                return Err(format!(
                    "merged sum {} != union sum {}",
                    merged.sum, expected.sum
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn quantile_estimates_are_bucket_edges_bounding_the_true_quantile() {
    check(
        "histogram quantile bounds",
        Config::default().with_seed(0x0B53),
        |g| {
            let (edges, mut values) = edges_and_values(g);
            if values.is_empty() {
                values.push(g.f64_in(0.0, edges[edges.len() - 1]));
            }
            let q = g.f64_in(0.01, 1.0);
            (edges, values, q)
        },
        |(edges, values, q)| {
            let h = Histogram::new(edges);
            for &v in values {
                h.record(v);
            }
            let estimate = h.quantile(*q).expect("non-empty histogram");
            // The estimate is always one of the bucket upper edges (or
            // +Inf for the overflow bucket) — never an interpolation.
            if estimate.is_finite() && !edges.contains(&estimate) {
                return Err(format!("estimate {estimate} is not a bucket edge"));
            }
            // And it upper-bounds the true q-quantile: the rank-th
            // smallest recorded value sits in the estimate's bucket, so
            // it cannot exceed the bucket's upper edge.
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let rank = ((q * sorted.len() as f64).ceil().max(1.0) as usize).min(sorted.len());
            let true_quantile = sorted[rank - 1];
            if estimate < true_quantile {
                return Err(format!(
                    "estimate {estimate} below the true {q}-quantile {true_quantile}"
                ));
            }
            // Quantiles are monotone in q.
            let p50 = h.quantile(0.5).expect("non-empty");
            let p99 = h.quantile(0.99).expect("non-empty");
            if p50 > p99 {
                return Err(format!("p50 {p50} > p99 {p99}"));
            }
            Ok(())
        },
    );
}

/// All span tests share the process-global trace sink; serialize them.
static SINK_GUARD: Mutex<()> = Mutex::new(());

/// Extracts a top-level field value from a JSONL span record.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tagged = format!("\"{key}\":");
    let rest = &line[line.find(&tagged)? + tagged.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

fn num(line: &str, key: &str) -> u64 {
    field(line, key)
        .unwrap_or_else(|| panic!("record without {key}: {line}"))
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key}: {line}"))
}

/// Whether the parent chain of the record `line` reaches the span
/// `ancestor`.
fn descends_from(lines: &[String], line: &str, ancestor: u64) -> bool {
    let parent = |record: &str| field(record, "parent").and_then(|p| p.parse::<u64>().ok());
    let mut cursor = parent(line);
    while let Some(id) = cursor {
        if id == ancestor {
            return true;
        }
        cursor = lines
            .iter()
            .find(|l| num(l, "id") == id)
            .and_then(|l| parent(l));
    }
    false
}

#[test]
fn child_spans_nest_within_their_parent_interval() {
    let _guard = SINK_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    check(
        "span nesting",
        Config::default().with_cases(12).with_seed(0x0B54),
        |g| g.vec_of(1..5, |g| g.usize_in(0..3)),
        |tree| {
            let buffer = trace::install_memory_sink();
            {
                let _root = trace::Span::enter("root");
                for &grandchildren in tree {
                    let _child = trace::Span::enter("child");
                    for _ in 0..grandchildren {
                        let _leaf = trace::Span::enter("leaf").field("kind", "work");
                        std::hint::black_box(());
                    }
                }
            }
            let lines = buffer.lock().unwrap_or_else(PoisonError::into_inner);
            // Index records by id, then check every parent link's
            // arithmetic containment: child ⊆ parent in [start, start+dur].
            let by_id: Vec<&String> = lines.iter().collect();
            let find = |id: u64| {
                by_id
                    .iter()
                    .find(|l| num(l, "id") == id)
                    .unwrap_or_else(|| panic!("no record with id {id}"))
            };
            // `start_us` and `dur_us` are truncated to whole microseconds
            // independently, so a child's truncated end may exceed its
            // parent's truncated end by up to 2µs even though the real
            // intervals nest exactly.
            const ROUNDING_US: u64 = 2;
            for line in lines.iter() {
                let Some(parent) = field(line, "parent") else {
                    continue;
                };
                let parent = find(parent.parse().expect("numeric parent"));
                let (cs, cd) = (num(line, "start_us"), num(line, "dur_us"));
                let (ps, pd) = (num(parent, "start_us"), num(parent, "dur_us"));
                if cs + ROUNDING_US < ps || cs + cd > ps + pd + ROUNDING_US {
                    return Err(format!(
                        "child [{cs}, {}] outside parent [{ps}, {}]:\n{line}\n{parent}",
                        cs + cd,
                        ps + pd
                    ));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn queue_wait_plus_run_stays_within_the_job_wall_time() {
    let _guard = SINK_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    let buffer = trace::install_memory_sink();

    // One real engine job, through the submitting path (the coordinator
    // thread opens the job span; every pool task records its queue wait
    // from enqueue to dequeue plus its run span).
    let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(2)));
    let ham = Hamiltonian::parse("0.9 ZZZZ + 0.7 XXII + 0.5 IYYI + 0.3 IIZZ").unwrap();
    let handle = engine.submit(SweepWorkload::new(SweepRequest::new(
        "obs/queue-wait",
        ham,
        TransitionStrategy::marqsim_gc(),
        SweepConfig::quick(0.5),
    )));
    handle.collect().unwrap();
    drop(engine);

    let lines = buffer.lock().unwrap_or_else(PoisonError::into_inner);
    let jobs: Vec<&String> = lines
        .iter()
        .filter(|l| field(l, "span") == Some("job"))
        .collect();
    assert_eq!(jobs.len(), 1, "exactly one job span: {lines:?}");
    let job = jobs[0];
    let job_id = num(job, "id");
    let job_end = num(job, "start_us") + num(job, "dur_us");

    // Allowance for worker-thread bookkeeping that trails the
    // coordinator's result collection (microseconds in practice; generous
    // here so a loaded CI machine cannot flake the causal invariant).
    const SLACK_US: u64 = 50_000;

    // Every queue_wait and pool_task whose parent chain reaches the job
    // closes inside (or within slack of) the job's interval, and the
    // wait + run totals cannot exceed workers × the job's wall time.
    let mut waits = 0u64;
    let mut runs = 0u64;
    let mut wait_total = 0u64;
    let mut run_total = 0u64;
    for line in lines.iter() {
        if !descends_from(&lines, line, job_id) {
            continue;
        }
        match field(line, "span") {
            Some("queue_wait") => {
                waits += 1;
                wait_total += num(line, "dur_us");
                assert!(
                    num(line, "start_us") + num(line, "dur_us") <= job_end,
                    "queue wait ends after the job: {line}\njob: {job}"
                );
            }
            Some("pool_task") => {
                runs += 1;
                run_total += num(line, "dur_us");
                // A task must start inside the job interval (it cannot be
                // dequeued before the job opened). Its close can trail the
                // job close by worker-thread bookkeeping — the coordinator
                // collects the result before the worker drops the span —
                // so the end is only bounded up to scheduling slack.
                assert!(
                    num(line, "start_us") >= num(job, "start_us"),
                    "pool task starts before the job: {line}\njob: {job}"
                );
                assert!(
                    num(line, "start_us") + num(line, "dur_us") <= job_end + SLACK_US,
                    "pool task ends far after the job: {line}\njob: {job}"
                );
            }
            _ => {}
        }
    }
    assert!(waits > 0, "the job's tasks recorded queue waits: {lines:?}");
    assert!(runs > 0, "the job's tasks recorded run spans: {lines:?}");
    // With 2 workers, per-lane wait+run of any single task is bounded by
    // the job wall; the aggregate across tasks is bounded by workers ×
    // wall. The single-task bound is the invariant the ISSUE names.
    let workers = 2;
    assert!(
        wait_total + run_total <= workers * (num(job, "dur_us") + SLACK_US),
        "waits {wait_total}µs + runs {run_total}µs exceed {workers}× the job wall {}µs",
        num(job, "dur_us")
    );
}

#[test]
fn every_synchronous_run_is_one_job_root() {
    let _guard = SINK_GUARD.lock().unwrap_or_else(PoisonError::into_inner);

    // One sweep, run synchronously three ways: as a workload, as a sweep
    // batch, and as its points compiled one request each.
    let ham = Hamiltonian::parse("0.9 ZZZZ + 0.7 XXII + 0.5 IYYI + 0.3 IIZZ").unwrap();
    let strategy = TransitionStrategy::marqsim_gc();
    let config = SweepConfig::quick(0.5);
    let sweep = SweepRequest::new("obs/sync", ham.clone(), strategy.clone(), config.clone());
    let mut points = Vec::new();
    for (eps_idx, &epsilon) in config.epsilons.iter().enumerate() {
        for rep in 0..config.repeats {
            let point = CompilerConfig::new(config.time, epsilon)
                .with_strategy(strategy.clone())
                .with_seed(point_seed(&config, eps_idx, rep))
                .without_circuit();
            points.push(CompileRequest::new("obs/sync", ham.clone(), point));
        }
    }
    for name in ["run_workload", "run_sweeps", "compile_many"] {
        let buffer = trace::install_memory_sink();
        let engine = Engine::new(EngineConfig::default().with_threads(2));
        match name {
            "run_workload" => {
                engine
                    .run_workload(&SweepWorkload::new(sweep.clone()))
                    .unwrap();
            }
            "run_sweeps" => {
                for outcome in engine.run_sweeps(vec![sweep.clone()]) {
                    outcome.unwrap();
                }
            }
            _ => {
                for outcome in engine.compile_many(points.clone()) {
                    outcome.unwrap();
                }
            }
        }
        // Dropping the engine joins its workers, so every task span is in.
        drop(engine);

        let lines = buffer.lock().unwrap_or_else(PoisonError::into_inner);
        let jobs: Vec<&String> = lines
            .iter()
            .filter(|l| field(l, "span") == Some("job"))
            .collect();
        assert_eq!(jobs.len(), 1, "{name}: exactly one job span: {lines:?}");
        let job_id = num(jobs[0], "id");
        let tasks: Vec<&String> = lines
            .iter()
            .filter(|l| matches!(field(l, "span"), Some("pool_task" | "queue_wait")))
            .collect();
        assert!(!tasks.is_empty(), "{name}: no pool spans: {lines:?}");
        for task in tasks {
            assert!(
                descends_from(&lines, task, job_id),
                "{name}: pool span outside the job: {task}\njob: {}",
                jobs[0]
            );
        }
    }
}

#[test]
fn a_fidelity_batch_computes_each_exact_unitary_once() {
    let _guard = SINK_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    let buffer = trace::install_memory_sink();

    // 3 strategies × 2 ε at one (H, t), plus one sweep at another t: two
    // distinct (H, t) pairs, so two exact unitaries for eight points.
    let ham = Hamiltonian::parse("0.9 ZZZZ + 0.7 XXII + 0.5 IYYI + 0.3 IIZZ").unwrap();
    let config = SweepConfig {
        time: 0.5,
        epsilons: vec![0.1, 0.05],
        repeats: 1,
        base_seed: 9,
        evaluate_fidelity: true,
    };
    let mut requests: Vec<SweepRequest> = [
        TransitionStrategy::QDrift,
        TransitionStrategy::marqsim_gc(),
        TransitionStrategy::marqsim_gc_rp(),
    ]
    .into_iter()
    .map(|s| SweepRequest::new(s.label(), ham.clone(), s, config.clone()))
    .collect();
    requests.push(SweepRequest::new(
        "later",
        ham,
        TransitionStrategy::marqsim_gc(),
        SweepConfig {
            time: 0.25,
            ..config
        },
    ));
    let engine = Engine::new(EngineConfig::default().with_threads(2));
    for outcome in engine.run_sweeps(requests) {
        outcome.unwrap();
    }
    // Dropping the engine joins its workers, so every task span is in.
    drop(engine);

    let lines = buffer.lock().unwrap_or_else(PoisonError::into_inner);
    let resolves: Vec<&String> = lines
        .iter()
        .filter(|l| field(l, "span") == Some("resolve_exact"))
        .collect();
    assert_eq!(resolves.len(), 1, "one exact phase per batch: {lines:?}");
    assert_eq!(num(resolves[0], "exacts"), 2);
    // The cost-model fields, summed over both: three x-masks each (ZZZZ
    // and IIZZ share the diagonal one), and λ·t = 1.2 then 0.6 needs one
    // squaring then none.
    assert_eq!(num(resolves[0], "qubits"), 4);
    assert_eq!(num(resolves[0], "x_groups"), 6);
    assert_eq!(num(resolves[0], "squarings"), 1);
    let resolve_id = num(resolves[0], "id").to_string();
    let computations = lines
        .iter()
        .filter(|l| field(l, "span") == Some("pool_task"))
        .filter(|l| field(l, "parent") == Some(resolve_id.as_str()))
        .count();
    assert_eq!(computations, 2, "one pool task per distinct (H, t)");
}

#[test]
fn connection_spans_record_why_each_connection_closed() {
    use marqsim::serve::{Client, Router, Server};
    use std::io::{BufRead, BufReader, Write};
    use std::time::{Duration, Instant};

    const TOKEN: &str = "span-secret";
    let _guard = SINK_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    let buffer = trace::install_memory_sink();
    let idle = Duration::from_millis(150);

    // Both roles share one connection core, so both must account for a
    // closed connection the same way. Behind a router, the router is the
    // endpoint under test: its node has no idle timeout, and the node's
    // span for the router's upstream connection only comes at shutdown.
    for routed in [false, true] {
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(1)));
        let node = Server::bind("127.0.0.1:0", engine)
            .unwrap()
            .with_token(TOKEN);
        let node = if routed {
            node
        } else {
            node.with_idle_timeout(idle)
        }
        .spawn()
        .unwrap();
        let router = routed.then(|| {
            Router::bind("127.0.0.1:0", &[node.addr().to_string()])
                .unwrap()
                .with_token(TOKEN)
                .with_idle_timeout(idle)
                .spawn()
                .unwrap()
        });
        let addr = router.as_ref().map_or(node.addr(), |router| router.addr());
        buffer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();

        // Authenticated, then silent until the idle reaper closes it.
        let mut silent = std::net::TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(silent.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        silent
            .write_all(format!("{{\"verb\":\"auth\",\"token\":\"{TOKEN}\"}}\n").as_bytes())
            .unwrap();
        for expected in ["auth_ok", "idle timeout"] {
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(expected), "{line}");
        }
        drop((silent, reader));
        // Rejected at the auth gate.
        assert!(Client::connect_with_token(addr, Some("wrong")).is_err());
        // Served, then hung up cleanly.
        Client::connect_with_token(addr, Some(TOKEN))
            .unwrap()
            .metrics()
            .unwrap();

        let deadline = Instant::now() + Duration::from_secs(10);
        let mut reasons = loop {
            let reasons: Vec<String> = buffer
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .filter(|l| field(l, "span") == Some("conn"))
                .map(|l| field(l, "reason").unwrap_or("").to_string())
                .collect();
            if reasons.len() >= 3 || Instant::now() > deadline {
                break reasons;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        reasons.sort();
        assert_eq!(
            reasons,
            ["auth_failed", "eof", "idle_timeout"],
            "routed={routed}"
        );
        if let Some(router) = router {
            router.shutdown();
        }
        node.shutdown();
    }
}
