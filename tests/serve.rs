//! Integration tests of the serve front-end against the in-process engine:
//! the acceptance criteria of the serve PR.
//!
//! * A sweep submitted over TCP returns results **bit-identical** to the
//!   same sweep run through `Engine::run_sweep` in-process (every seed,
//!   every float bit).
//! * Two concurrent clients share one warm cache: the second client's job
//!   reports `flow_solves = 0` in its `cache_delta`.

use std::sync::Arc;

use marqsim::core::experiment::{run_sweep, SweepConfig};
use marqsim::core::TransitionStrategy;
use marqsim::engine::{Engine, EngineConfig};
use marqsim::pauli::Hamiltonian;
use marqsim::serve::{Client, Outcome, Server, ServerHandle};

fn ham() -> Hamiltonian {
    Hamiltonian::parse("0.9 ZZZZ + 0.8 ZZIZ + 0.7 XXII + 0.6 IYYI + 0.5 IIZZ + 0.4 XYXY + 0.3 IZIZ")
        .unwrap()
}

fn sweep_config() -> SweepConfig {
    SweepConfig {
        time: 0.5,
        epsilons: vec![0.1, 0.05],
        repeats: 4,
        base_seed: 9,
        evaluate_fidelity: false,
    }
}

fn spawn_server(threads: usize) -> ServerHandle {
    let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(threads)));
    Server::bind("127.0.0.1:0", engine)
        .expect("bind localhost")
        .spawn()
        .expect("spawn accept loop")
}

#[test]
fn tcp_sweep_is_bit_identical_to_in_process_engine() {
    let strategy = TransitionStrategy::marqsim_gc();
    let config = sweep_config();

    // In-process references: the serial driver and a local engine.
    let serial = run_sweep(&ham(), &strategy, &config).unwrap();
    let local_engine = Engine::new(EngineConfig::default().with_threads(2));
    let local = local_engine.run_sweep(&ham(), &strategy, &config).unwrap();

    // The same sweep through the TCP front-end.
    let server = spawn_server(2);
    let mut client = Client::connect(server.addr()).unwrap();
    let job = client
        .submit_sweep("acceptance/gc", &ham(), &strategy, &config)
        .unwrap();
    let result = client.wait(job).unwrap();
    let remote = match result.outcome {
        Outcome::Sweep(sweep) => sweep,
        other => panic!("unexpected outcome {other:?}"),
    };

    assert_eq!(remote.label, serial.label);
    assert_eq!(remote.points.len(), serial.points.len());
    for ((r, s), l) in remote.points.iter().zip(&serial.points).zip(&local.points) {
        assert_eq!(r.seed, s.seed);
        assert_eq!(r.epsilon.to_bits(), s.epsilon.to_bits(), "epsilon bits");
        assert_eq!(r.num_samples, s.num_samples);
        assert_eq!(r.stats, s.stats, "gate stats must survive the wire");
        assert_eq!(
            r.fidelity.map(f64::to_bits),
            s.fidelity.map(f64::to_bits),
            "fidelity bits"
        );
        assert_eq!(r.stats, l.stats, "engine and serve agree");
    }
    server.shutdown();
}

#[test]
fn tcp_sweep_with_fidelity_is_bit_identical_too() {
    // Fidelity floats are the hardest values to keep bit-stable across a
    // textual wire format; assert them explicitly on a small system.
    let small = Hamiltonian::parse("0.6 XZ + 0.4 ZY + 0.3 XX").unwrap();
    let strategy = TransitionStrategy::QDrift;
    let config = SweepConfig {
        time: 0.4,
        epsilons: vec![0.05],
        repeats: 3,
        base_seed: 5,
        evaluate_fidelity: true,
    };
    let serial = run_sweep(&small, &strategy, &config).unwrap();

    let server = spawn_server(2);
    let mut client = Client::connect(server.addr()).unwrap();
    let job = client
        .submit_sweep("acceptance/fidelity", &small, &strategy, &config)
        .unwrap();
    let remote = match client.wait(job).unwrap().outcome {
        Outcome::Sweep(sweep) => sweep,
        other => panic!("unexpected outcome {other:?}"),
    };
    for (r, s) in remote.points.iter().zip(&serial.points) {
        let (rf, sf) = (r.fidelity.unwrap(), s.fidelity.unwrap());
        assert_eq!(rf.to_bits(), sf.to_bits(), "{rf} vs {sf}");
    }
    server.shutdown();
}

#[test]
fn two_concurrent_clients_share_one_warm_cache() {
    let strategy = TransitionStrategy::marqsim_gc();
    let config = sweep_config();
    let server = spawn_server(2);

    // Both clients connect up front (concurrently live connections).
    let mut first = Client::connect(server.addr()).unwrap();
    let mut second = Client::connect(server.addr()).unwrap();

    // Client 1 runs the sweep cold: exactly one min-cost-flow solve.
    let job1 = first
        .submit_sweep("client1/gc", &ham(), &strategy, &config)
        .unwrap();
    let result1 = first.wait(job1).unwrap();
    assert_eq!(
        result1.cache_delta.flow_solves, 1,
        "cold sweep solves the flow problem once"
    );
    assert_eq!(result1.cache_delta.misses, 1);

    // Client 2 submits the identical sweep on its own connection: the
    // shared engine cache answers it without any flow solve.
    let job2 = second
        .submit_sweep("client2/gc", &ham(), &strategy, &config)
        .unwrap();
    assert_ne!(job1, job2, "engine-unique job ids across connections");
    let result2 = second.wait(job2).unwrap();
    assert_eq!(
        result2.cache_delta.flow_solves, 0,
        "second client's job must be served from the warm cache"
    );
    assert_eq!(result2.cache_delta.misses, 0);
    assert!(result2.cache_delta.hits >= 1);

    // And the warm result is bit-identical to the cold one.
    let (sweep1, sweep2) = match (result1.outcome, result2.outcome) {
        (Outcome::Sweep(a), Outcome::Sweep(b)) => (a, b),
        other => panic!("unexpected outcomes {other:?}"),
    };
    for (a, b) in sweep1.points.iter().zip(&sweep2.points) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.stats, b.stats);
    }

    // The engine-wide stats verb agrees with the deltas.
    let stats = second.stats().unwrap();
    assert_eq!(
        stats.cache.flow_solves, 1,
        "one solve total across both clients"
    );
    assert_eq!(stats.in_flight, 0, "both jobs finished");
    server.shutdown();
}

#[test]
fn interleaved_jobs_from_one_client_resolve_independently() {
    let server = spawn_server(2);
    let mut client = Client::connect(server.addr()).unwrap();
    let config = SweepConfig {
        time: 0.5,
        epsilons: vec![0.1],
        repeats: 2,
        base_seed: 3,
        evaluate_fidelity: false,
    };

    // Submit three jobs before waiting on any; wait out of order.
    let job_a = client
        .submit_sweep("multi/a", &ham(), &TransitionStrategy::QDrift, &config)
        .unwrap();
    let job_b = client
        .submit_sweep(
            "multi/b",
            &ham(),
            &TransitionStrategy::marqsim_gc(),
            &config,
        )
        .unwrap();
    let job_c = client
        .submit_sweep(
            "multi/c",
            &ham(),
            &TransitionStrategy::marqsim_gc_rp(),
            &config,
        )
        .unwrap();

    for (job, label_prefix) in [
        (job_c, "MarQSim-GC-RP"),
        (job_a, "Baseline"),
        (job_b, "MarQSim-GC"),
    ] {
        let result = client.wait(job).unwrap();
        match result.outcome {
            Outcome::Sweep(sweep) => {
                assert!(
                    sweep.label.starts_with(label_prefix),
                    "{} vs {label_prefix}",
                    sweep.label
                );
                assert_eq!(sweep.points.len(), 2);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    server.shutdown();
}

/// A random protocol request: a sweep submit or one of the bare verbs.
fn arbitrary_request(g: &mut quickprop::Gen) -> marqsim::serve::Request {
    use marqsim::engine::SubmitOptions;
    use marqsim::serve::{sweep_params, Request};
    match g.usize_in(0..5) {
        0 => Request::Submit {
            label: format!("prop/chunk-{}", g.u64_in(0..=9999)),
            kind: "sweep".to_string(),
            params: sweep_params(
                &ham().to_string(),
                &TransitionStrategy::marqsim_gc(),
                &sweep_config(),
            ),
            options: SubmitOptions::default(),
        },
        1 => Request::Status { job: g.u64() },
        2 => Request::Cancel { job: g.u64() },
        3 => Request::Stats,
        _ => Request::Metrics,
    }
}

/// Satellite property for the event-loop server's framing layer: a valid
/// request stream decodes to the same request sequence no matter how the
/// transport slices it into reads. The server only ever sees bytes through
/// `marqsim::net::LineAssembler`, so chunk boundaries falling inside a
/// line, on a terminator, or coalescing many lines into one read must all
/// be invisible to the protocol layer.
#[test]
fn request_streams_decode_identically_under_any_byte_chunking() {
    use marqsim::net::LineAssembler;
    use marqsim::serve::Request;
    use quickprop::{check, Config};

    check(
        "byte-chunked request streams decode identically",
        Config::default()
            .with_cases(64)
            .with_seed(0x0066_7261_6d69_6e67),
        |g| {
            let requests = g.vec_of(1..8, arbitrary_request);
            let mut stream: Vec<u8> = Vec::new();
            for request in &requests {
                stream.extend_from_slice(request.encode().as_bytes());
                // The assembler accepts both terminators; mix them.
                if g.bool(0.25) {
                    stream.push(b'\r');
                }
                stream.push(b'\n');
            }
            // Random cut points; 0 cuts = one coalesced read, many cuts
            // shatter lines mid-escape-sequence.
            let cuts = g.vec_of(0..24, |g| g.usize_in(0..stream.len()));
            (requests, stream, cuts)
        },
        |(requests, stream, cuts)| {
            let mut boundaries = cuts.clone();
            boundaries.push(0);
            boundaries.push(stream.len());
            boundaries.sort_unstable();
            boundaries.dedup();
            let mut assembler = LineAssembler::new(8 * 1024 * 1024);
            let mut decoded = Vec::new();
            for window in boundaries.windows(2) {
                assembler.push(&stream[window[0]..window[1]]);
                loop {
                    match assembler.next_line() {
                        Ok(Some(line)) => decoded
                            .push(Request::decode(&line).map_err(|e| format!("decode: {e}"))?),
                        Ok(None) => break,
                        Err(e) => return Err(format!("framing: {e}")),
                    }
                }
            }
            if assembler.buffered() != 0 {
                return Err(format!("{} bytes left unframed", assembler.buffered()));
            }
            if decoded == *requests {
                Ok(())
            } else {
                Err(format!(
                    "decoded {} requests from {} chunks, expected {}",
                    decoded.len(),
                    boundaries.len() - 1,
                    requests.len()
                ))
            }
        },
    );
}

/// The decoders are total: any text a socket can deliver — random ASCII
/// and non-ASCII, and truncated or byte-mutated request lines — yields a
/// value or a `WireError`, never a panic.
#[test]
fn decoders_return_on_arbitrary_input() {
    use marqsim::serve::{Event, Json, Request};
    use quickprop::{check, Config, Gen};

    const ASCII: &[u8] = b"{}[]\":,.-+eE0123456789 \t\r\nabcnulltruefalse\\u\x00\x1f\x7f";

    fn arbitrary_text(g: &mut Gen) -> String {
        match g.usize_in(0..4) {
            0 => g
                .vec_of(0..64, |g| char::from(*g.choose(ASCII)))
                .into_iter()
                .collect(),
            1 => g
                .vec_of(0..32, |g| {
                    let code = g.u64_in(0..=0x10_FFFF) as u32;
                    char::from_u32(code).unwrap_or('\u{FFFD}')
                })
                .into_iter()
                .collect(),
            2 => {
                let line = arbitrary_request(g).encode();
                let cut = g.usize_in(0..line.len() + 1);
                String::from_utf8_lossy(&line.as_bytes()[..cut]).into_owned()
            }
            _ => {
                let mut bytes = arbitrary_request(g).encode().into_bytes();
                for _ in 0..g.usize_in(1..6) {
                    let at = g.usize_in(0..bytes.len());
                    match g.usize_in(0..3) {
                        0 => bytes[at] = g.u64_in(0..=255) as u8,
                        1 => {
                            bytes.remove(at);
                        }
                        _ => bytes.insert(at, *g.choose(ASCII)),
                    }
                    if bytes.is_empty() {
                        break;
                    }
                }
                String::from_utf8_lossy(&bytes).into_owned()
            }
        }
    }

    check(
        "Json::parse, Request::decode and Event::decode are total",
        Config::default().with_cases(256).with_seed(0x7074_616c),
        arbitrary_text,
        |text| {
            std::panic::catch_unwind(|| {
                let _ = Json::parse(text);
                let _ = Request::decode(text);
                let _ = Event::decode(text);
            })
            .map_err(|_| "a decoder panicked".to_string())
        },
    );
}
