//! # marqsim-serve — the job-submission front-end over the engine
//!
//! The `marqsim-engine` crate runs workloads inside one process. This
//! crate puts a network protocol on top, the next step toward the
//! ROADMAP's "serve heavy traffic to remote clients" north star: a
//! `marqsim-served` daemon accepts concurrent TCP connections, multiplexes
//! every client's jobs onto **one shared engine** (one worker pool, one
//! transition cache — two clients sweeping the same Hamiltonian share the
//! min-cost-flow solve), streams per-job progress, bounds each
//! connection's in-flight jobs (admission control), and supports
//! cooperative cancellation.
//!
//! The module layering mirrors the protocol stack:
//!
//! * [`wire`] — a hand-rolled, dependency-free JSON codec (the build
//!   environment has no registry access, so no `serde`). Line-delimited:
//!   one JSON object per `\n`-terminated line in each direction. `u64`
//!   ids/seeds are exact; finite floats use shortest-round-trip encoding,
//!   so results cross the wire **bit-identically**.
//! * [`protocol`] — typed [`Request`] verbs (`auth`, `submit`, `status`,
//!   `cancel`, `stats`, `metrics`, `drain`) and [`Event`] streams
//!   (`hello`, `auth_ok`, `submitted`, `busy`, `progress`, `done`,
//!   `failed`, `status`, `stats`, `draining`, `metrics`, `error`). The
//!   `metrics` verb answers with the process-wide Prometheus-style
//!   exposition from `marqsim-obs` plus the connection's own request/byte
//!   counters — see `docs/observability.md`.
//! * [`registry`] — the open end of the protocol: `submit` names a
//!   workload *kind* plus a params object, and the
//!   [`WorkloadRegistry`] maps kinds to decoders/encoders. The four
//!   built-in kinds (`sweep`, `compile`, `perturb_average`,
//!   `benchmark_suite`) cover the evaluation; custom
//!   [`Workload`](marqsim_engine::Workload)s register new kinds with **no
//!   protocol surgery**.
//! * `conn` (internal) — the connection core both roles run on: one
//!   event-loop thread per endpoint, a phase state machine per client
//!   connection (`AwaitAuth → Ready → Closing`), bounded outbound queues
//!   with progress coalescing and slow-consumer disconnects, the idle
//!   timeout, the auth gate, and the `marqsim_serve_*` instruments.
//! * [`server`] — the node role: the verbs over the shared
//!   [`Engine`](marqsim_engine::Engine), with engine-wide and
//!   per-connection admission control.
//! * [`router`] — the router role: the same verbs routed across a fleet
//!   of nodes by Hamiltonian fingerprint (see `docs/cluster.md`).
//! * [`client`] — a blocking client used by the tests, the `serve_smoke`
//!   binary, and the `serve_roundtrip` example.
//!
//! # Determinism over the wire
//!
//! A sweep submitted through `marqsim-served` returns results
//! bit-identical to the same sweep run through `Engine::run_sweep`
//! in-process: the engine side is the deterministic job machinery (seeded
//! per-point RNG streams, index-ordered reassembly), and the wire side
//! encodes every number losslessly. The `tests/serve.rs` integration test
//! in the workspace root asserts exactly this, point by point, bit by bit.
//!
//! # Environment (the `marqsim-served` binary)
//!
//! * `MARQSIM_SERVE_ADDR=HOST:PORT` — listen address (default
//!   `127.0.0.1:7878`; port `0` lets the OS pick and prints the result).
//! * `MARQSIM_SERVE_THREADS=N` — engine worker count for the served
//!   engine; unset falls back to `MARQSIM_THREADS`, then to all cores.
//! * `MARQSIM_SERVE_MAX_IN_FLIGHT=N` — per-connection in-flight job bound
//!   (a submit's `options.max_in_flight` can tighten it per request, never
//!   raise it; default [`server::DEFAULT_MAX_IN_FLIGHT`]).
//! * `MARQSIM_MAX_ACTIVE_JOBS=N` — engine-wide active-job bound across
//!   **all** connections (unset = unlimited); submits over it bounce with
//!   the structured `busy` event, and the bound is surfaced in `stats`.
//! * `MARQSIM_SERVE_IDLE_TIMEOUT_MS=N` — in either role, reap client
//!   connections that send no request bytes for `N` milliseconds: their
//!   unfinished jobs are cancelled and a structured `error` event precedes
//!   the close (unset = never reap; in-process:
//!   [`Server::with_idle_timeout`] / [`Router::with_idle_timeout`]).
//! * The engine cache variables (`MARQSIM_CACHE`, `MARQSIM_CACHE_CAP`,
//!   `MARQSIM_CACHE_DIR`) apply unchanged.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use marqsim_engine::{Engine, EngineConfig};
//! use marqsim_serve::{Client, Outcome, Server};
//! use marqsim_core::experiment::SweepConfig;
//! use marqsim_core::TransitionStrategy;
//! use marqsim_pauli::Hamiltonian;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(2)));
//! let server = Server::bind("127.0.0.1:0", engine)?.spawn()?;
//!
//! let mut client = Client::connect(server.addr())?;
//! let ham = Hamiltonian::parse("0.9 ZZ + 0.5 XX + 0.3 YY")?;
//! let job = client.submit_sweep(
//!     "example",
//!     &ham,
//!     &TransitionStrategy::QDrift,
//!     &SweepConfig::quick(0.5),
//! )?;
//! let result = client.wait(job)?;
//! match result.outcome {
//!     Outcome::Sweep(sweep) => assert_eq!(sweep.points.len(), 6),
//!     _ => unreachable!(),
//! }
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod client;
mod conn;
pub mod protocol;
pub mod registry;
pub mod router;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, JobResult, MetricsReport};
pub use protocol::{
    compile_params, perturb_params, suite_params, sweep_params, CompileSummary, Event, NodeStats,
    Outcome, Request, Role, ServerStats, PROTOCOL_VERSION,
};
pub use registry::WorkloadRegistry;
pub use router::{Router, RouterHandle};
pub use server::{Server, ServerHandle};
pub use wire::{Json, WireError};

#[cfg(test)]
mod tests {
    use super::*;
    use marqsim_core::experiment::SweepConfig;
    use marqsim_core::TransitionStrategy;
    use marqsim_engine::{Engine, EngineConfig, SubmitOptions};
    use marqsim_pauli::Hamiltonian;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn ham() -> Hamiltonian {
        Hamiltonian::parse("0.9 ZZZZ + 0.7 XXII + 0.5 IYYI + 0.3 IIZZ").unwrap()
    }

    fn spawn_server(threads: usize) -> ServerHandle {
        spawn_server_with(threads, |server| server)
    }

    /// A workload that runs until cancelled — the deterministic
    /// "occupy an admission slot" blocker. A real sweep can finish before
    /// the next submit's round trip on a loaded machine, which made the
    /// admission tests flaky; this cannot.
    struct BlockUntilCancelled(String);

    impl marqsim_engine::Workload for BlockUntilCancelled {
        fn label(&self) -> &str {
            &self.0
        }

        fn total_units(&self) -> usize {
            1
        }

        fn run(
            &self,
            ctx: &marqsim_engine::WorkloadCtx<'_>,
        ) -> Result<marqsim_engine::WorkloadOutput, marqsim_engine::EngineError> {
            loop {
                ctx.ensure_active()?;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    }

    /// A workload that reports each of its units as a progress step, in
    /// bursts of 32 a millisecond apart: a node relays each burst before
    /// the next, so progress reaches a router step by step instead of
    /// pre-coalesced by the node.
    struct Steps(String, usize);

    impl marqsim_engine::Workload for Steps {
        fn label(&self) -> &str {
            &self.0
        }

        fn total_units(&self) -> usize {
            self.1
        }

        fn run(
            &self,
            ctx: &marqsim_engine::WorkloadCtx<'_>,
        ) -> Result<marqsim_engine::WorkloadOutput, marqsim_engine::EngineError> {
            for step in 1..=self.1 {
                ctx.report(step, self.1);
                if step % 32 == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Ok(marqsim_engine::WorkloadOutput::new(()))
        }
    }

    /// The built-ins plus the `block` kind.
    fn test_registry() -> WorkloadRegistry {
        let mut registry = WorkloadRegistry::builtin();
        registry.register(
            "block",
            |label, _params| {
                Ok(Box::new(BlockUntilCancelled(label.to_string()))
                    as Box<dyn marqsim_engine::Workload>)
            },
            |_output| Ok(Json::obj([("kind", "block".into())])),
        );
        registry
    }

    /// Spawns a server whose registry carries the built-ins plus the
    /// `block` kind, with `configure` applied to the server before spawn.
    fn spawn_server_with(threads: usize, configure: impl FnOnce(Server) -> Server) -> ServerHandle {
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(threads)));
        configure(
            Server::bind("127.0.0.1:0", engine)
                .expect("bind")
                .with_registry(test_registry()),
        )
        .spawn()
        .expect("spawn")
    }

    /// The endpoint a lifecycle test talks to: a node, or a one-node fleet
    /// behind a router.
    struct Front {
        node: ServerHandle,
        router: Option<RouterHandle>,
    }

    impl Front {
        fn addr(&self) -> std::net::SocketAddr {
            self.router
                .as_ref()
                .map_or(self.node.addr(), RouterHandle::addr)
        }

        fn connect(&self, token: Option<&str>) -> Client {
            Client::connect_with_token(self.addr(), token).unwrap()
        }

        /// Polls the node's engine until it runs exactly `n` jobs.
        fn wait_active_jobs(&self, n: usize) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.node.engine().active_jobs() != n {
                assert!(Instant::now() < deadline, "the node never ran {n} jobs");
                std::thread::sleep(Duration::from_millis(10));
            }
        }

        fn shutdown(self) {
            if let Some(router) = self.router {
                router.shutdown();
            }
            self.node.shutdown();
        }
    }

    /// Spawns a `role` endpoint whose node also knows the `steps` kind.
    /// `token` guards every hop; `idle` applies to the endpoint clients
    /// talk to (a router's node keeps its upstream connection).
    fn spawn_front(role: Role, token: Option<&'static str>, idle: Option<Duration>) -> Front {
        let node = |idle: Option<Duration>| {
            spawn_server_with(2, |server| {
                let mut registry = test_registry();
                registry.register(
                    "steps",
                    |label, params| {
                        let steps = params.get("steps").and_then(Json::as_u64).unwrap_or(1);
                        Ok(Box::new(Steps(label.to_string(), steps as usize))
                            as Box<dyn marqsim_engine::Workload>)
                    },
                    |_output| Ok(Json::obj([("kind", "steps".into())])),
                );
                let mut server = server.with_registry(registry);
                if let Some(token) = token {
                    server = server.with_token(token);
                }
                match idle {
                    Some(idle) => server.with_idle_timeout(idle),
                    None => server,
                }
            })
        };
        if role == Role::Node {
            return Front {
                node: node(idle),
                router: None,
            };
        }
        let node = node(None);
        let mut router = Router::bind("127.0.0.1:0", &[node.addr().to_string()]).unwrap();
        if let Some(token) = token {
            router = router.with_token(token);
        }
        if let Some(idle) = idle {
            router = router.with_idle_timeout(idle);
        }
        let front = Front {
            node,
            router: Some(router.spawn().unwrap()),
        };
        wait_for_fleet(&mut front.connect(token), 1);
        front
    }

    /// A raw protocol connection to `front`, past its `hello`. Reads time
    /// out, so a missing event fails the test instead of hanging it.
    fn raw_connect(front: &Front) -> (TcpStream, BufReader<TcpStream>) {
        let raw = TcpStream::connect(front.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let hello = read_until(&mut reader, |_| true);
        assert!(hello.contains("hello"), "{hello}");
        (raw, reader)
    }

    /// Reads lines until one satisfies `done`, and returns it.
    fn read_until(reader: &mut BufReader<TcpStream>, done: impl Fn(&str) -> bool) -> String {
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "unexpected EOF");
            if done(&line) {
                return line;
            }
        }
    }

    /// Cancels the blocking job and consumes its `cancelled` terminal
    /// event, releasing the admission slot it occupied.
    fn release_blocker(client: &mut Client, job: u64) {
        client.cancel(job).unwrap();
        match client.wait(job) {
            Err(ClientError::JobFailed { kind, .. }) => assert_eq!(kind, "cancelled"),
            other => panic!("expected the blocker to cancel, got {other:?}"),
        }
    }

    #[test]
    fn round_trip_sweep_with_progress() {
        let server = spawn_server(2);
        let mut client = Client::connect(server.addr()).unwrap();
        assert_eq!(client.threads(), 2);
        assert_eq!(
            client.workloads(),
            &[
                "benchmark_suite",
                "block",
                "compile",
                "perturb_average",
                "sweep"
            ],
            "hello advertises the registered kinds, sorted"
        );

        let config = SweepConfig::quick(0.5);
        let job = client
            .submit_sweep("t/sweep", &ham(), &TransitionStrategy::QDrift, &config)
            .unwrap();
        let mut progress_calls = 0usize;
        let result = client
            .wait_with_progress(job, |completed, total| {
                progress_calls += 1;
                assert!(completed <= total);
                assert_eq!(total, 6);
            })
            .unwrap();
        match result.outcome {
            Outcome::Sweep(sweep) => {
                assert_eq!(sweep.points.len(), 6);
                assert_eq!(sweep.label, "Baseline");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(progress_calls, 6, "every point reports progress");
        server.shutdown();
    }

    #[test]
    fn compile_jobs_report_summaries() {
        let server = spawn_server(2);
        let mut client = Client::connect(server.addr()).unwrap();
        let job = client
            .submit(
                "t/compile",
                "compile",
                compile_params(
                    "0.6 XZ + 0.4 ZY + 0.3 XX",
                    &TransitionStrategy::QDrift,
                    0.4,
                    0.05,
                    2,
                    true,
                ),
            )
            .unwrap();
        let result = client.wait(job).unwrap();
        match result.outcome {
            Outcome::Compile(summary) => {
                assert!(summary.num_samples > 0);
                assert!(summary.lambda > 0.0);
                let fidelity = summary.fidelity.expect("fidelity requested");
                assert!(fidelity > 0.9 && fidelity <= 1.0 + 1e-9);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn perturb_average_jobs_round_trip_the_matrix() {
        use marqsim_core::gate_cancel::gate_cancellation_matrix_with_basis;
        use marqsim_core::perturb::{random_perturbation_matrix, PerturbationConfig};

        let server = spawn_server(2);
        let mut client = Client::connect(server.addr()).unwrap();
        let small = Hamiltonian::parse("0.6 XZ + 0.4 ZY + 0.3 XX").unwrap();
        let config = PerturbationConfig {
            samples: 4,
            seed: 5,
            ..Default::default()
        };
        let job = client
            .submit(
                "t/prp",
                "perturb_average",
                perturb_params(&small.to_string(), &config),
            )
            .unwrap();
        let result = client.wait(job).unwrap();
        // The P_rp a GC-RP compile mixes in: the serial core construction
        // from the P_gc basis of the split Hamiltonian.
        let working = small.split_if_dominant();
        let (_, gc_basis) = gate_cancellation_matrix_with_basis(&working).unwrap();
        let (expected, _) = random_perturbation_matrix(&working, &config, &gc_basis).unwrap();
        match result.outcome {
            Outcome::PerturbAverage(back) => {
                assert_eq!(back.samples, 4);
                assert_eq!(back.matrix, expected, "matrix crosses the wire bit-exactly");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn status_and_stats_verbs_answer() {
        let server = spawn_server(1);
        let mut client = Client::connect(server.addr()).unwrap();

        // Unknown job: known=false.
        match client.status(999).unwrap() {
            Event::Status { known, .. } => assert!(!known),
            other => panic!("unexpected {other:?}"),
        }

        let job = client
            .submit_sweep(
                "t/status",
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        client.wait(job).unwrap();
        match client.status(job).unwrap() {
            Event::Status {
                known,
                finished,
                completed,
                total,
                ..
            } => {
                assert!(known);
                assert!(finished);
                assert_eq!(completed, total);
            }
            other => panic!("unexpected {other:?}"),
        }

        let stats = client.stats().unwrap();
        assert_eq!(stats.threads, 1);
        assert!(stats.cache.misses >= 1, "the sweep populated the cache");
        assert_eq!(stats.in_flight, 0, "the finished job freed its slot");
        server.shutdown();
    }

    #[test]
    fn admission_control_rejects_submits_over_the_bound() {
        let server = spawn_server(1);
        let mut client = Client::connect(server.addr()).unwrap();
        // A job that runs until cancelled occupies the single admission
        // slot...
        let options = SubmitOptions::new().with_max_in_flight(1);
        let blocker = client
            .submit_with_options("t/occupy", "block", Json::obj([]), options.clone())
            .unwrap();
        // ...so a second submit under the same bound is rejected, with the
        // structured busy payload.
        match client.submit_with_options(
            "t/rejected",
            "sweep",
            sweep_params(
                &ham().to_string(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            ),
            options,
        ) {
            Err(ClientError::Busy { in_flight, limit }) => {
                assert_eq!(in_flight, 1);
                assert_eq!(limit, 1);
            }
            other => panic!("expected busy, got {other:?}"),
        }
        // The stats verb reports the gauge.
        let stats = client.stats().unwrap();
        assert_eq!(stats.in_flight, 1);
        // Once the blocker is released, the slot frees and submits flow
        // again.
        release_blocker(&mut client, blocker);
        let job = client
            .submit_sweep(
                "t/after-busy",
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        assert!(client.wait(job).is_ok());
        server.shutdown();
    }

    #[test]
    fn engine_wide_admission_bounds_jobs_across_connections() {
        // A global MARQSIM_MAX_ACTIVE_JOBS-style bound of one: a blocker on
        // connection A makes a submit on connection B bounce with the
        // structured busy event, even though B has zero in-flight jobs of
        // its own.
        let server = spawn_server_with(1, |server| server.with_max_active_jobs(1));
        let mut client_a = Client::connect(server.addr()).unwrap();
        let mut client_b = Client::connect(server.addr()).unwrap();

        let blocker = client_a
            .submit("t/global-occupy", "block", Json::obj([]))
            .unwrap();
        match client_b.submit_sweep(
            "t/global-rejected",
            &ham(),
            &TransitionStrategy::QDrift,
            &SweepConfig::quick(0.5),
        ) {
            Err(ClientError::Busy { in_flight, limit }) => {
                assert_eq!(in_flight, 1, "engine-wide active jobs, not B's own");
                assert_eq!(limit, 1);
            }
            other => panic!("expected busy from the global bound, got {other:?}"),
        }
        // The bound and the engine-wide gauge are surfaced in stats on
        // every connection.
        let stats = client_b.stats().unwrap();
        assert_eq!(stats.max_active_jobs, 1);
        assert_eq!(stats.active_jobs, 1);
        assert_eq!(stats.in_flight, 0, "B itself has nothing in flight");

        // Releasing A's blocker frees the engine-wide slot for B.
        release_blocker(&mut client_a, blocker);
        let job = client_b
            .submit_sweep(
                "t/global-after",
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        assert!(client_b.wait(job).is_ok());
        server.shutdown();
    }

    #[test]
    fn clients_cannot_raise_the_server_admission_bound() {
        // The server's bound is 1; a request asking for a million in-flight
        // jobs must still be held to 1 (the per-request value only
        // tightens).
        let server = spawn_server_with(1, |server| server.with_max_in_flight(1));
        let mut client = Client::connect(server.addr()).unwrap();
        let greedy = SubmitOptions::new().with_max_in_flight(1_000_000);
        let blocker = client
            .submit_with_options("t/greedy-1", "block", Json::obj([]), greedy.clone())
            .unwrap();
        match client.submit_with_options(
            "t/greedy-2",
            "sweep",
            sweep_params(
                &ham().to_string(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            ),
            greedy,
        ) {
            Err(ClientError::Busy { limit, .. }) => {
                assert_eq!(limit, 1, "server bound wins over the client's ask")
            }
            other => panic!("expected busy at the server bound, got {other:?}"),
        }
        release_blocker(&mut client, blocker);
        server.shutdown();
    }

    #[test]
    fn protocol_8_carries_no_backend_selection() {
        // One min-cost-flow backend: hello, done, and stats name none.
        let server = spawn_server(2);
        let raw = std::net::TcpStream::connect(server.addr()).unwrap();
        let mut hello = String::new();
        {
            use std::io::{BufRead, BufReader};
            BufReader::new(raw.try_clone().unwrap())
                .read_line(&mut hello)
                .unwrap();
        }
        assert!(hello.contains("\"protocol\":8"), "{hello}");
        assert!(!hello.contains("flow_solver"), "{hello}");
        drop(raw);

        let mut client = Client::connect(server.addr()).unwrap();
        let job = client
            .submit_sweep(
                "t/gc-sweep",
                &ham(),
                &TransitionStrategy::marqsim_gc(),
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        let result = client.wait(job).unwrap();
        assert_eq!(result.cache_delta.flow_solves, 1);
        match result.outcome {
            Outcome::Sweep(sweep) => assert_eq!(sweep.points.len(), 6),
            other => panic!("unexpected outcome {other:?}"),
        }
        let stats = client.stats().unwrap();
        assert_eq!(stats.max_active_jobs, 0, "no global bound configured");
        server.shutdown();
    }

    /// The value of one exposed series (`name{labels}`), 0 when absent.
    fn exposed(exposition: &str, series: &str) -> f64 {
        exposition
            .lines()
            .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
            .map_or(0.0, |value| value.trim().parse().unwrap())
    }

    fn metrics_verb(role: Role) {
        let front = spawn_front(role, None, None);
        let mut client = front.connect(None);

        // A min-cost-flow workload so the flow histograms have samples.
        let job = client
            .submit_sweep(
                "t/metrics",
                &ham(),
                &TransitionStrategy::marqsim_gc(),
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        client.wait(job).unwrap();

        let report = client.metrics().unwrap();
        assert!(
            report.requests >= 2,
            "submit + metrics decoded on this connection, got {}",
            report.requests
        );
        assert!(report.bytes_in > 0, "request bytes counted");
        assert!(
            report.bytes_out > 0,
            "hello/submitted/progress/done bytes counted"
        );

        // The exposition carries every subsystem's instruments: cache,
        // flow solver, pool, engine, and the serve layer itself.
        for needle in [
            "# TYPE marqsim_cache_hits_total counter",
            "marqsim_cache_misses_total",
            "marqsim_flow_solve_seconds_bucket",
            "\nmarqsim_flow_solves_total ",
            "marqsim_pool_queue_depth",
            "marqsim_pool_queue_wait_seconds_count",
            "marqsim_engine_jobs_total",
            "marqsim_serve_connections_total",
            "marqsim_serve_requests_total{verb=\"submit\"}",
            "marqsim_serve_bytes_read_total",
        ] {
            assert!(
                report.exposition.contains(needle),
                "exposition is missing {needle:?}:\n{}",
                report.exposition
            );
        }

        // The endpoint the client talks to counts its own requests and
        // bytes, whichever role it plays (counters only grow, so parallel
        // tests cannot make these fail).
        let series = "marqsim_serve_requests_total{verb=\"metrics\"}";
        let again = client.metrics().unwrap();
        assert!(
            exposed(&again.exposition, series) >= exposed(&report.exposition, series) + 1.0,
            "the {role:?} did not count its metrics request"
        );
        let written = "marqsim_serve_bytes_written_total";
        assert!(
            exposed(&again.exposition, written)
                >= exposed(&report.exposition, written) + report.bytes_out as f64 / 2.0,
            "the {role:?} did not count the bytes it wrote"
        );
        front.shutdown();
    }

    #[test]
    fn unknown_kinds_are_rejected_naming_the_known_ones() {
        let server = spawn_server(1);
        let mut client = Client::connect(server.addr()).unwrap();
        match client.submit("t/unknown", "teleport", Json::obj([])) {
            Err(ClientError::Protocol(message)) => {
                assert!(message.contains("teleport"), "{message}");
                assert!(message.contains("sweep"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The connection survives the rejection.
        let job = client
            .submit_sweep(
                "t/after-unknown",
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        assert!(client.wait(job).is_ok());
        server.shutdown();
    }

    #[test]
    fn cancelled_jobs_fail_with_the_cancelled_kind() {
        let server = spawn_server(1);
        let mut client = Client::connect(server.addr()).unwrap();
        // The victim only resolves on cancellation, so the cancel round
        // trip can never race a natural completion. A sweep runs alongside
        // it to show cancellation is per job, not per connection.
        let job = client.submit("t/cancel", "block", Json::obj([])).unwrap();
        let survivor = client
            .submit_sweep(
                "t/survivor",
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        match client.cancel(job).unwrap() {
            Event::Status {
                known, cancelled, ..
            } => {
                assert!(known);
                assert!(cancelled);
            }
            other => panic!("unexpected {other:?}"),
        }
        match client.wait(job) {
            Err(ClientError::JobFailed { kind, .. }) => assert_eq!(kind, "cancelled"),
            other => panic!("expected cancellation, got {other:?}"),
        }
        assert!(client.wait(survivor).is_ok(), "survivor runs to completion");
        server.shutdown();
    }

    fn malformed_requests(role: Role) {
        let front = spawn_front(role, None, None);
        let mut client = front.connect(None);
        // Reach into the protocol: an invalid verb and invalid JSON.
        let (mut raw, mut reader) = raw_connect(&front);
        raw.write_all(b"this is not json\n").unwrap();
        let mut error_line = String::new();
        reader.read_line(&mut error_line).unwrap();
        assert!(error_line.contains("\"error\""), "{error_line}");
        raw.write_all(br#"{"verb":"submit","label":"x","kind":"sweep","params":{"hamiltonian":"not a ham","strategy":{"kind":"qdrift"},"config":{"time":0.5,"epsilons":[0.1],"repeats":1,"base_seed":1,"evaluate_fidelity":false}}}"#).unwrap();
        raw.write_all(b"\n").unwrap();
        // A node rejects the submit with `error`; a router has already
        // acked it, so the node's rejection arrives as `failed`.
        let rejection = read_until(&mut reader, |line| {
            line.contains("\"error\"") || line.contains("\"failed\"")
        });
        assert!(rejection.contains("invalid hamiltonian"), "{rejection}");
        // The well-behaved client still works against the same endpoint.
        let job = client
            .submit_sweep(
                "t/after-errors",
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        assert!(client.wait(job).is_ok());
        front.shutdown();
    }

    fn non_finite_perturbations(role: Role) {
        let front = spawn_front(role, None, None);
        let (mut raw, mut reader) = raw_connect(&front);
        // `1e400` parses to infinity. It used to reach the flow model as
        // an infinite edge cost, and the job failed with a panic message.
        let perturbation = r#""samples":2,"magnitude":1e400,"probability":0.5,"seed":1"#;
        let submits = [
            format!(
                r#"{{"verb":"submit","label":"t/inf-prp","kind":"perturb_average","params":{{"hamiltonian":"0.6 XZ + 0.4 ZY + 0.3 XX",{perturbation}}}}}"#
            ),
            format!(
                r#"{{"verb":"submit","label":"t/inf-gcrp","kind":"compile","params":{{"hamiltonian":"0.6 XZ + 0.4 ZY + 0.3 XX","strategy":{{"kind":"gc-rp","qdrift_weight":0.2,"gc_weight":0.4,"perturbation":{{{perturbation}}}}},"time":0.4,"epsilon":0.05,"seed":2,"evaluate_fidelity":false}}}}"#
            ),
        ];
        for submit in submits {
            raw.write_all(submit.as_bytes()).unwrap();
            raw.write_all(b"\n").unwrap();
            // A node rejects the submit with `error`; a router has already
            // acked it, so the node's rejection arrives as `failed` (the
            // router re-encodes the infinity, which is not a JSON number).
            let rejection = read_until(&mut reader, |line| {
                line.contains("\"error\"") || line.contains("\"failed\"")
            });
            let expected = match role {
                Role::Node => "field 'magnitude' must be a finite number",
                Role::Router => "field 'magnitude' must be a number",
            };
            assert!(rejection.contains(expected), "{rejection}");
            assert!(!rejection.contains("panic"), "{rejection}");
        }
        front.shutdown();
    }

    fn idle_reaping(role: Role) {
        let front = spawn_front(role, None, Some(Duration::from_millis(200)));

        // A half-open client: submits a blocker, then goes silent (never
        // writes again). Inbound bytes are the only activity that counts,
        // so running jobs do not keep the connection alive.
        let (mut raw, mut reader) = raw_connect(&front);
        raw.write_all(b"{\"verb\":\"submit\",\"label\":\"t/idle-blocker\",\"kind\":\"block\",\"params\":{}}\n")
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("submitted"), "{line}");
        front.wait_active_jobs(1);

        // The reaper tells us why before closing, then the stream ends.
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("idle timeout"),
            "expected the idle-timeout error event, got {line:?}"
        );
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "expected EOF");

        // The blocker was cancelled by the reap, not abandoned.
        front.wait_active_jobs(0);

        // A connection that keeps talking is not reaped: the idle deadline
        // is pushed out by every request.
        let mut client = front.connect(None);
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(120));
            let stats = client.stats().unwrap();
            assert_eq!(stats.active_jobs, 0);
        }
        front.shutdown();
    }

    fn auth_gate(role: Role) {
        let front = spawn_front(role, Some("fleet-secret"), None);

        // No token: the hello advertises auth and the client refuses to
        // proceed rather than trip the server's rejection.
        match Client::connect(front.addr()) {
            Err(ClientError::Protocol(message)) => {
                assert!(message.contains("requires authentication"), "{message}");
            }
            Err(other) => panic!("expected an auth refusal, got {other:?}"),
            Ok(_) => panic!("expected an auth refusal, got a connection"),
        }

        // A wrong token is rejected server-side with a structured error.
        match Client::connect_with_token(front.addr(), Some("wrong")) {
            Err(ClientError::Protocol(message)) => {
                assert!(message.contains("authentication failed"), "{message}");
            }
            Err(other) => panic!("expected a bad-token rejection, got {other:?}"),
            Ok(_) => panic!("expected a bad-token rejection, got a connection"),
        }

        // The right token unlocks normal service end to end.
        let mut client = front.connect(Some("fleet-secret"));
        let job = client
            .submit_sweep(
                "t/authed",
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        assert!(client.wait(job).is_ok());
        front.shutdown();
    }

    fn slow_consumer(role: Role) {
        let front = spawn_front(role, None, None);
        let (mut raw, mut reader) = raw_connect(&front);
        raw.write_all(
            b"{\"verb\":\"submit\",\"label\":\"t/slow\",\"kind\":\"block\",\"params\":{}}\n",
        )
        .unwrap();
        read_until(&mut reader, |line| line.contains("submitted"));
        front.wait_active_jobs(1);

        // Pipeline far more answers than the socket buffers and the
        // outbound caps hold, reading nothing. Status of an unknown job is
        // answered locally by either role. The endpoint keeps reading (and
        // dropping) input while it disconnects, so this write completes.
        let burst = b"{\"verb\":\"status\",\"job\":999999999}\n".repeat(200_000);
        raw.write_all(&burst).unwrap();

        // Whatever made it into the socket buffers, then the structured
        // slow-consumer error naming the limits, then EOF.
        let error = read_until(&mut reader, |line| !line.contains("\"status\""));
        assert!(
            error.contains("slow consumer, limit 8192 events"),
            "expected the slow-consumer error, got {error:?}"
        );
        let mut line = String::new();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "expected EOF");
        // Its running job was cancelled, not abandoned.
        front.wait_active_jobs(0);
        front.shutdown();
    }

    fn progress_coalescing(role: Role) {
        // More progress bytes than the socket buffers hold, and more lines
        // than the outbound cap: without coalescing this reader would be
        // disconnected as a slow consumer.
        const STEPS: u64 = 100_000;
        let front = spawn_front(role, None, None);
        let (mut raw, mut reader) = raw_connect(&front);
        let submit = format!(
            "{{\"verb\":\"submit\",\"label\":\"t/steps\",\"kind\":\"steps\",\"params\":{{\"steps\":{STEPS}}}}}\n"
        );
        raw.write_all(submit.as_bytes()).unwrap();
        read_until(&mut reader, |line| line.contains("submitted"));
        // Read nothing until the job has emitted every step.
        front.wait_active_jobs(0);

        let mut progress_events = 0u64;
        let mut last = (0, 0);
        let terminal = loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "EOF before done");
            match Event::decode(line.trim()).unwrap() {
                Event::Progress {
                    completed, total, ..
                } => {
                    progress_events += 1;
                    last = (completed, total);
                }
                other => break other,
            }
        };
        assert!(
            progress_events < STEPS,
            "a reader that fell behind got all {progress_events} steps"
        );
        assert_eq!(
            last,
            (STEPS as usize, STEPS as usize),
            "newest progress wins"
        );
        assert!(matches!(terminal, Event::Done { .. }), "{terminal:?}");
        front.shutdown();
    }

    // Each lifecycle test runs once per role: against a node directly, and
    // against a one-node fleet behind a router.
    macro_rules! per_role {
        ($($body:ident: $node:ident, $router:ident;)*) => {$(
            #[test]
            fn $node() {
                $body(Role::Node)
            }

            #[test]
            fn $router() {
                $body(Role::Router)
            }
        )*};
    }

    per_role! {
        malformed_requests:
            malformed_requests_keep_the_connection_alive,
            router_malformed_requests_keep_the_connection_alive;
        non_finite_perturbations:
            non_finite_perturbation_magnitudes_get_an_error_reply,
            router_non_finite_perturbation_magnitudes_get_an_error_reply;
        auth_gate:
            auth_token_gates_non_loopback_grade_servers,
            router_auth_token_gates_non_loopback_grade_servers;
        metrics_verb:
            metrics_verb_reports_exposition_and_connection_counters,
            router_metrics_verb_reports_exposition_and_connection_counters;
        idle_reaping:
            idle_connections_are_reaped_and_their_jobs_cancelled,
            router_idle_connections_are_reaped_and_their_jobs_cancelled;
        slow_consumer:
            slow_consumers_get_an_error_then_eof_and_their_jobs_cancelled,
            router_slow_consumers_get_an_error_then_eof_and_their_jobs_cancelled;
        progress_coalescing:
            progress_coalesces_for_a_reader_that_falls_behind,
            router_progress_coalesces_for_a_reader_that_falls_behind;
    }

    #[test]
    fn router_request_floods_cost_their_sender_not_the_node() {
        let front = spawn_front(Role::Router, None, None);
        let mut other = front.connect(None);
        let survivor = other.submit("t/survivor", "block", Json::obj([])).unwrap();
        front.wait_active_jobs(1);

        let (mut raw, mut reader) = raw_connect(&front);
        raw.write_all(
            b"{\"verb\":\"submit\",\"label\":\"t/flood\",\"kind\":\"block\",\"params\":{}}\n",
        )
        .unwrap();
        let submitted = read_until(&mut reader, |line| line.contains("submitted"));
        let Event::Submitted { job, .. } = Event::decode(submitted.trim()).unwrap() else {
            panic!("expected submitted, got {submitted:?}");
        };
        // Once the node runs the job, its ack is on the link ahead of the
        // answer to any later request: after one `stats` fan-out the router
        // knows the node's id for the job and forwards every `status`.
        front.wait_active_jobs(2);
        other.stats().unwrap();
        let status = format!("{{\"verb\":\"status\",\"job\":{job}}}\n");

        // Pipeline far more forwarded requests than a node link queues,
        // reading nothing: the flooding client is the slow consumer.
        raw.write_all(&status.as_bytes().repeat(200_000)).unwrap();
        let error = read_until(&mut reader, |line| !line.contains("\"status\""));
        assert!(
            error.contains("slow consumer, limit 8192 events"),
            "expected the slow-consumer error, got {error:?}"
        );
        let mut line = String::new();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "expected EOF");

        // Its job was cancelled; the node stayed up with the other
        // client's job on it, and keeps serving.
        front.wait_active_jobs(1);
        match other.status(survivor).unwrap() {
            Event::Status {
                known, finished, ..
            } => assert!(known && !finished),
            other => panic!("unexpected {other:?}"),
        }
        let job = other
            .submit_sweep(
                "t/after-flood",
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        assert!(other.wait(job).is_ok());
        release_blocker(&mut other, survivor);
        front.shutdown();
    }

    /// Spawns `n` node servers (each with the `block` kind registered)
    /// and returns their handles plus their `host:port` fleet names.
    fn spawn_fleet(n: usize, token: Option<&'static str>) -> (Vec<ServerHandle>, Vec<String>) {
        let mut handles = Vec::new();
        let mut names = Vec::new();
        for _ in 0..n {
            let handle = spawn_server_with(2, |server| match token {
                Some(token) => server.with_token(token),
                None => server,
            });
            names.push(handle.addr().to_string());
            handles.push(handle);
        }
        (handles, names)
    }

    /// Polls the router's stats until `n` nodes report real stats (a
    /// connected node has threads > 0; a placeholder is all zeros).
    fn wait_for_fleet(client: &mut Client, n: usize) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let stats = client.stats().unwrap();
            let ready = stats
                .per_node
                .iter()
                .filter(|part| part.stats.threads > 0)
                .count();
            if ready == n {
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "fleet never became ready: {:?}",
                stats.per_node
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    #[test]
    fn router_routes_jobs_and_aggregates_the_fleet() {
        let (handles, names) = spawn_fleet(2, Some("fleet-secret"));
        let router = Router::bind("127.0.0.1:0", &names)
            .unwrap()
            .with_token("fleet-secret")
            .spawn()
            .unwrap();

        // The router's own front door is gated by the same token.
        assert!(Client::connect(router.addr()).is_err());
        let mut client = Client::connect_with_token(router.addr(), Some("fleet-secret")).unwrap();
        assert_eq!(client.role(), Role::Router);
        assert_eq!(client.nodes().len(), 2);
        wait_for_fleet(&mut client, 2);

        // Distinct Hamiltonians spread over the ring; every job comes back
        // correct regardless of which node ran it, with progress relayed.
        for (i, text) in [
            "0.9 ZZ + 0.5 XX",
            "0.8 XZ + 0.3 ZY + 0.2 YY",
            "0.7 ZI + 0.4 IX",
            "1.1 YZ + 0.6 ZX",
        ]
        .iter()
        .enumerate()
        {
            let ham = Hamiltonian::parse(text).unwrap();
            let job = client
                .submit_sweep(
                    &format!("t/fleet-{i}"),
                    &ham,
                    &TransitionStrategy::QDrift,
                    &SweepConfig::quick(0.5),
                )
                .unwrap();
            let mut progress = 0usize;
            let result = client
                .wait_with_progress(job, |_, total| {
                    progress += 1;
                    assert_eq!(total, 6);
                })
                .unwrap();
            match result.outcome {
                Outcome::Sweep(sweep) => assert_eq!(sweep.points.len(), 6),
                other => panic!("unexpected outcome {other:?}"),
            }
            assert_eq!(progress, 6, "progress events relay through the router");
        }

        // The aggregate view sums the fleet; the breakdown names both
        // nodes as up.
        let stats = client.stats().unwrap();
        assert_eq!(stats.threads, 4, "2 nodes x 2 threads");
        assert_eq!(stats.per_node.len(), 2);
        assert!(stats.per_node.iter().all(|part| part.health == "up"));
        assert!(
            stats.cache.flow_solves
                <= stats
                    .per_node
                    .iter()
                    .map(|p| p.stats.cache.flow_solves)
                    .sum()
        );

        // Status and cancel round-trip through the job-id translation.
        let blocker = client
            .submit("t/fleet-block", "block", Json::obj([]))
            .unwrap();
        match client.status(blocker).unwrap() {
            Event::Status { known, .. } => assert!(known),
            other => panic!("unexpected {other:?}"),
        }
        release_blocker(&mut client, blocker);

        // Draining a node removes it from the fleet; the survivor keeps
        // serving every key.
        let drained = names[0].clone();
        assert_eq!(client.drain(&drained).unwrap(), 0, "nothing in flight");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let stats = client.stats().unwrap();
            if stats.per_node.len() == 1 {
                assert_ne!(stats.per_node[0].node, drained);
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "drained node never left the fleet: {:?}",
                stats.per_node
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let job = client
            .submit_sweep(
                "t/post-drain",
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        assert!(client.wait(job).is_ok());

        router.shutdown();
        for handle in handles {
            handle.shutdown();
        }
    }

    #[test]
    fn router_reports_lost_nodes_and_keeps_serving() {
        let (mut handles, names) = spawn_fleet(2, None);
        let router = Router::bind("127.0.0.1:0", &names)
            .unwrap()
            .spawn()
            .unwrap();
        let mut client = Client::connect(router.addr()).unwrap();
        wait_for_fleet(&mut client, 2);

        // A job that only ends on cancellation pins down its node; the
        // per-node breakdown tells us which one got it.
        let blocker = client.submit("t/doomed", "block", Json::obj([])).unwrap();
        let victim = {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            loop {
                let stats = client.stats().unwrap();
                if let Some(part) = stats
                    .per_node
                    .iter()
                    .find(|part| part.stats.active_jobs == 1)
                {
                    break part.node.clone();
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "blocker never showed up in the breakdown"
                );
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        };

        // Kill that node out from under the router.
        let index = names.iter().position(|name| *name == victim).unwrap();
        handles.remove(index).shutdown();

        // The router notices, fails the orphaned job with the structured
        // node_lost kind, and stays up.
        match client.wait(blocker) {
            Err(ClientError::JobFailed { kind, message, .. }) => {
                assert_eq!(kind, "node_lost");
                assert!(message.contains(&victim), "{message}");
            }
            other => panic!("expected node_lost, got {other:?}"),
        }

        // The survivor absorbs the dead node's keyspace: new work (any
        // Hamiltonian) still completes.
        let job = client
            .submit_sweep(
                "t/survivor-takes-over",
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        assert!(client.wait(job).is_ok());

        // The breakdown reports the loss instead of hiding it.
        let stats = client.stats().unwrap();
        let lost = stats
            .per_node
            .iter()
            .find(|part| part.node == victim)
            .expect("dead node stays visible");
        assert!(
            lost.health == "suspect" || lost.health == "down",
            "unexpected health {:?}",
            lost.health
        );

        router.shutdown();
        for handle in handles {
            handle.shutdown();
        }
    }
}
