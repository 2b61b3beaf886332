//! Smoke-tests router mode end to end: a three-node fleet behind one
//! router, driven through the ordinary [`Client`].
//!
//! Three phases, each printing a grep-able marker for CI:
//!
//! 1. **Bit-identity** — distinct-Hamiltonian sweeps submitted through the
//!    router must match the same sweeps run on an in-process single-node
//!    engine bit for bit (routing must never change results, only where
//!    they are computed).
//! 2. **Warm shards** — rerunning the identical sweeps must report
//!    `flow_solves=0` on every job *and* leave every fleet node's
//!    min-cost-flow latency histogram untouched (the fleet-wide proof that
//!    the fingerprint-sharded caches, not re-solves, served the rerun).
//! 3. **Node loss** — with a flood of jobs in flight, the busiest node is
//!    killed; its jobs must fail fast with the structured `node_lost` kind
//!    naming it, the rest of the flood must complete on the survivors, and
//!    a fresh post-kill submit must still be served.
//!
//! Two modes:
//!
//! * `cargo run -p marqsim-bench --bin cluster_smoke` — spawns three
//!   in-process node servers plus a router on OS-assigned ports (phase 3
//!   stops the victim via its server handle).
//! * `... -- --connect ROUTER --pids NODE=PID,...` — drives an external
//!   fleet of `marqsim-served` daemons (what the CI cluster-smoke job
//!   does); phase 3 SIGKILLs the victim's PID. `MARQSIM_SERVE_TOKEN` is
//!   honored in both modes.

use std::collections::HashMap;
use std::sync::Arc;

use marqsim_core::experiment::SweepConfig;
use marqsim_core::TransitionStrategy;
use marqsim_engine::{Engine, EngineConfig};
use marqsim_pauli::Hamiltonian;
use marqsim_serve::{
    Client, ClientError, Outcome, Role, Router, RouterHandle, Server, ServerHandle,
};

const FLEET: usize = 3;
const COLD_SWEEPS: usize = 6;
const FLOOD_JOBS: usize = 24;

fn fail(message: impl std::fmt::Display) -> ! {
    marqsim_obs::error!("cluster-smoke", "FAILED: {message}");
    std::process::exit(1);
}

/// A small Hamiltonian whose coefficients vary with `index`, so every
/// sweep carries a distinct fingerprint and the ring spreads the set
/// across the fleet.
fn smoke_ham(index: usize) -> Hamiltonian {
    let shift = 0.01 * index as f64;
    Hamiltonian::parse(&format!(
        "{:.3} ZZIZ + {:.3} XXII + {:.3} IYYI + {:.3} IIZZ + {:.3} XYXY",
        0.9 - shift,
        0.8 + shift,
        0.7 - shift,
        0.6 + shift,
        0.5 + shift,
    ))
    .unwrap_or_else(|e| fail(format!("smoke Hamiltonian {index}: {e}")))
}

/// A bigger Hamiltonian for the node-loss flood: with fidelity evaluation
/// on, each sweep simulates 2^8 amplitudes per sample and runs for most of
/// a second — long enough that killing the busiest node reliably catches
/// jobs in flight.
fn flood_ham(index: usize) -> Hamiltonian {
    let shift = 0.001 * index as f64;
    Hamiltonian::parse(&format!(
        "{:.3} ZZIZIIZZ + {:.3} XXIIXXII + {:.3} IYYIIYYI + {:.3} IIZZIIZZ + \
         {:.3} XYXYIIII + {:.3} IIIIZZXX + {:.3} ZIIZIXXI + {:.3} IZZIYIIY",
        0.9 - shift,
        0.8 + shift,
        0.7 - shift,
        0.6 + shift,
        0.5 + shift,
        0.4 - shift,
        0.3 + shift,
        0.2 + shift,
    ))
    .unwrap_or_else(|e| fail(format!("flood Hamiltonian {index}: {e}")))
}

fn sweep_config() -> SweepConfig {
    SweepConfig {
        time: 0.4,
        epsilons: vec![0.1, 0.05],
        repeats: 2,
        base_seed: 11,
        evaluate_fidelity: false,
    }
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

/// The fleet under test: either external daemons (addressed by `--connect`
/// / `--pids`) or an in-process trio plus router.
struct Fleet {
    router_addr: String,
    token: Option<String>,
    /// External mode: node address -> PID to SIGKILL.
    pids: HashMap<String, u32>,
    /// In-process mode: the node handles (by address) and the router.
    local_nodes: Vec<(String, ServerHandle)>,
    local_router: Option<RouterHandle>,
}

impl Fleet {
    fn connect(&self) -> Client {
        Client::connect_with_token(&*self.router_addr, self.token.as_deref())
            .unwrap_or_else(|e| fail(format!("connect to router {}: {e}", self.router_addr)))
    }

    fn connect_node(&self, node: &str) -> Client {
        Client::connect_with_token(node, self.token.as_deref())
            .unwrap_or_else(|e| fail(format!("connect to node {node}: {e}")))
    }

    /// Abruptly stops `node` — SIGKILL in external mode, a handle shutdown
    /// in-process. Either way the router sees the connection drop.
    fn kill_node(&mut self, node: &str) {
        if let Some(index) = self.local_nodes.iter().position(|(addr, _)| addr == node) {
            let (_, handle) = self.local_nodes.remove(index);
            handle.shutdown();
            return;
        }
        let pid = self
            .pids
            .get(node)
            .copied()
            .unwrap_or_else(|| fail(format!("no PID known for node {node} (pass --pids)")));
        let status = std::process::Command::new("kill")
            .args(["-9", &pid.to_string()])
            .status()
            .unwrap_or_else(|e| fail(format!("spawn kill: {e}")));
        if !status.success() {
            fail(format!("kill -9 {pid} exited with {status}"));
        }
    }

    fn shutdown(self) {
        for (_, handle) in self.local_nodes {
            handle.shutdown();
        }
        if let Some(router) = self.local_router {
            router.shutdown();
        }
    }
}

fn parse_pids(spec: &str) -> HashMap<String, u32> {
    spec.split(',')
        .filter(|part| !part.trim().is_empty())
        .map(|part| {
            let (addr, pid) = part
                .split_once('=')
                .unwrap_or_else(|| fail(format!("--pids entry '{part}' is not NODE=PID")));
            let pid = pid
                .trim()
                .parse::<u32>()
                .unwrap_or_else(|e| fail(format!("--pids entry '{part}': {e}")));
            (addr.trim().to_string(), pid)
        })
        .collect()
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| fail(format!("{flag} requires a value")))
    })
}

fn spawn_local_fleet(token: Option<&str>) -> Fleet {
    let mut local_nodes = Vec::new();
    let mut names = Vec::new();
    for _ in 0..FLEET {
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(2)));
        let mut server = Server::bind("127.0.0.1:0", engine)
            .unwrap_or_else(|e| fail(format!("bind node: {e}")))
            .with_max_in_flight(256);
        if let Some(token) = token {
            server = server.with_token(token);
        }
        let handle = server
            .spawn()
            .unwrap_or_else(|e| fail(format!("spawn node: {e}")));
        names.push(handle.addr().to_string());
        local_nodes.push((handle.addr().to_string(), handle));
    }
    let mut router =
        Router::bind("127.0.0.1:0", &names).unwrap_or_else(|e| fail(format!("bind router: {e}")));
    if let Some(token) = token {
        router = router.with_token(token);
    }
    let router = router
        .spawn()
        .unwrap_or_else(|e| fail(format!("spawn router: {e}")));
    Fleet {
        router_addr: router.addr().to_string(),
        token: token.map(str::to_string),
        pids: HashMap::new(),
        local_nodes,
        local_router: Some(router),
    }
}

/// Polls the router's aggregated stats until every fleet node reports real
/// numbers (a connected node has threads > 0; a placeholder is zeroed).
fn wait_for_fleet(client: &mut Client, n: usize) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(15);
    loop {
        let stats = client
            .stats()
            .unwrap_or_else(|e| fail(format!("stats: {e}")));
        if stats
            .per_node
            .iter()
            .filter(|p| p.stats.threads > 0)
            .count()
            >= n
        {
            return;
        }
        if std::time::Instant::now() >= deadline {
            fail(format!("fleet never became ready: {:?}", stats.per_node));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let token = marqsim_bench::serve_token();

    let mut fleet = match arg_value(&args, "--connect") {
        Some(router_addr) => {
            println!("[cluster-smoke] connecting to external router at {router_addr}");
            Fleet {
                router_addr,
                token,
                pids: arg_value(&args, "--pids")
                    .as_deref()
                    .map(parse_pids)
                    .unwrap_or_default(),
                local_nodes: Vec::new(),
                local_router: None,
            }
        }
        None => {
            let fleet = spawn_local_fleet(token.as_deref().or(Some("cluster-smoke-secret")));
            println!(
                "[cluster-smoke] spawned {FLEET} in-process nodes and a router at {}",
                fleet.router_addr
            );
            fleet
        }
    };

    let mut client = fleet.connect();
    if client.role() != Role::Router {
        fail(format!(
            "{} is not a router (role {:?})",
            fleet.router_addr,
            client.role()
        ));
    }
    let nodes: Vec<String> = client.nodes().to_vec();
    if nodes.len() != FLEET {
        fail(format!(
            "router fronts {} nodes, expected {FLEET}",
            nodes.len()
        ));
    }
    wait_for_fleet(&mut client, FLEET);
    println!(
        "[cluster-smoke] fleet ready: router fronts {}",
        nodes.join(", ")
    );

    // Phase 1 — routed sweeps are bit-identical to a single-node engine.
    let strategy = TransitionStrategy::marqsim_gc();
    let config = sweep_config();
    let reference_engine = Engine::new(EngineConfig::default().with_threads(2));
    let mut jobs = Vec::new();
    for index in 0..COLD_SWEEPS {
        let job = client
            .submit_sweep(
                &format!("cluster/cold/{index}"),
                &smoke_ham(index),
                &strategy,
                &config,
            )
            .unwrap_or_else(|e| fail(format!("cold submit {index}: {e}")));
        jobs.push(job);
    }
    let mut cold_points = Vec::new();
    for (index, job) in jobs.iter().enumerate() {
        let result = client
            .wait(*job)
            .unwrap_or_else(|e| fail(format!("cold wait {index}: {e}")));
        let sweep = match result.outcome {
            Outcome::Sweep(sweep) => sweep,
            other => fail(format!("cold job {index}: unexpected outcome {other:?}")),
        };
        let reference = reference_engine
            .run_sweep(&smoke_ham(index), &strategy, &config)
            .unwrap_or_else(|e| fail(format!("in-process sweep {index}: {e}")));
        if sweep.points.len() != reference.points.len() {
            fail(format!("cold job {index}: point count mismatch"));
        }
        for (point, (remote, local)) in sweep.points.iter().zip(&reference.points).enumerate() {
            if remote.seed != local.seed
                || remote.epsilon.to_bits() != local.epsilon.to_bits()
                || remote.num_samples != local.num_samples
                || remote.stats != local.stats
                || remote.fidelity.map(f64::to_bits) != local.fidelity.map(f64::to_bits)
            {
                fail(format!(
                    "cold job {index} point {point} differs between routed and single-node runs"
                ));
            }
        }
        cold_points.push(sweep.points);
    }
    println!("[cluster-smoke] {COLD_SWEEPS} routed sweeps bit-identical to the single-node engine");

    // Phase 2 — the identical rerun is served warm, fleet-wide: zero flow
    // solves reported per job, and every node's solve histogram unchanged.
    let before: Vec<u64> = nodes
        .iter()
        .map(|node| {
            let report = fleet
                .connect_node(node)
                .metrics()
                .unwrap_or_else(|e| fail(format!("metrics from {node}: {e}")));
            flow_solve_histogram_count(&report.exposition)
        })
        .collect();
    for index in 0..COLD_SWEEPS {
        let job = client
            .submit_sweep(
                &format!("cluster/warm/{index}"),
                &smoke_ham(index),
                &strategy,
                &config,
            )
            .unwrap_or_else(|e| fail(format!("warm submit {index}: {e}")));
        let result = client
            .wait(job)
            .unwrap_or_else(|e| fail(format!("warm wait {index}: {e}")));
        if result.cache_delta.flow_solves != 0 {
            fail(format!(
                "warm job {index} performed {} flow solves (expected 0)",
                result.cache_delta.flow_solves
            ));
        }
        match result.outcome {
            Outcome::Sweep(sweep) => {
                if sweep.points != cold_points[index] {
                    fail(format!("warm job {index} differs from its cold run"));
                }
            }
            other => fail(format!("warm job {index}: unexpected outcome {other:?}")),
        }
    }
    for (node, before) in nodes.iter().zip(&before) {
        let report = fleet
            .connect_node(node)
            .metrics()
            .unwrap_or_else(|e| fail(format!("warm metrics from {node}: {e}")));
        let after = flow_solve_histogram_count(&report.exposition);
        if after != *before {
            fail(format!(
                "node {node} solved {} flows during the warm rerun",
                after - before
            ));
        }
        println!(
            "[cluster-smoke] node {node} warm rerun flow_solves=0 (histogram count {after} unchanged)"
        );
    }
    println!("[cluster-smoke] warm fleet rerun solved zero flows fleet-wide");

    // The router counts its own serve instruments: against an external
    // router this exposition is the router process's alone.
    let router_metrics = client
        .metrics()
        .unwrap_or_else(|e| fail(format!("metrics from the router: {e}")));
    for series in [
        "marqsim_serve_requests_total{verb=\"submit\"}",
        "marqsim_serve_bytes_written_total",
    ] {
        let value = router_metrics
            .exposition
            .lines()
            .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
            .and_then(|value| value.trim().parse::<f64>().ok())
            .unwrap_or(0.0);
        if value <= 0.0 {
            fail(format!("router exposition reports {series} = {value}"));
        }
    }
    println!("[cluster-smoke] router serve instruments live");

    // Phase 3 — kill the busiest node under a flood of distinct jobs.
    let flood_config = SweepConfig {
        time: 0.5,
        epsilons: vec![0.05],
        repeats: 8,
        base_seed: 23,
        evaluate_fidelity: true,
    };
    let mut flood = fleet.connect();
    let mut flood_jobs = Vec::new();
    for index in 0..FLOOD_JOBS {
        let job = flood
            .submit_sweep(
                &format!("cluster/flood/{index}"),
                &flood_ham(index),
                &strategy,
                &flood_config,
            )
            .unwrap_or_else(|e| fail(format!("flood submit {index}: {e}")));
        flood_jobs.push(job);
    }

    // Pick the node with the deepest backlog and kill it mid-flood.
    let victim = {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let stats = client
                .stats()
                .unwrap_or_else(|e| fail(format!("stats: {e}")));
            let busiest = stats
                .per_node
                .iter()
                .max_by_key(|p| p.stats.active_jobs + p.stats.queue_depth);
            if let Some(part) = busiest {
                if part.stats.active_jobs + part.stats.queue_depth >= 1 {
                    break part.node.clone();
                }
            }
            if std::time::Instant::now() >= deadline {
                fail("no node ever reported flood backlog");
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    };
    println!("[cluster-smoke] killing busiest node {victim} mid-flood");
    fleet.kill_node(&victim);

    let mut completed = 0usize;
    let mut lost = 0usize;
    for (index, job) in flood_jobs.iter().enumerate() {
        match flood.wait(*job) {
            Ok(_) => completed += 1,
            Err(ClientError::JobFailed { kind, message }) if kind == "node_lost" => {
                if !message.contains(&victim) {
                    fail(format!(
                        "node_lost message does not name {victim}: {message}"
                    ));
                }
                lost += 1;
            }
            Err(error) => fail(format!("flood job {index}: {error}")),
        }
    }
    if lost == 0 {
        fail("no flood job failed with node_lost — the kill raced the flood; raise FLOOD_JOBS");
    }
    if completed == 0 {
        fail("no flood job survived on the remaining nodes");
    }
    println!(
        "[cluster-smoke] node loss surfaced: {lost} jobs failed with node_lost, {completed} completed on survivors"
    );

    // The remaining shards must keep serving: a fresh connection, a fresh
    // job, and fleet stats that show the victim as unhealthy.
    let mut after = fleet.connect();
    let post_job = after
        .submit_sweep("cluster/post-kill", &smoke_ham(500), &strategy, &config)
        .unwrap_or_else(|e| fail(format!("post-kill submit: {e}")));
    match after.wait(post_job) {
        Ok(result) => match result.outcome {
            Outcome::Sweep(_) => {}
            other => fail(format!("post-kill job: unexpected outcome {other:?}")),
        },
        Err(error) => fail(format!("post-kill job failed: {error}")),
    }
    let stats = after
        .stats()
        .unwrap_or_else(|e| fail(format!("post-kill stats: {e}")));
    let victim_part = stats
        .per_node
        .iter()
        .find(|p| p.node == victim)
        .unwrap_or_else(|| fail(format!("post-kill stats no longer list {victim}")));
    if victim_part.health == "up" {
        fail(format!("killed node {victim} still reports healthy"));
    }
    println!(
        "[cluster-smoke] router kept serving after the kill ({} now {})",
        victim, victim_part.health
    );

    fleet.shutdown();
    println!("[cluster-smoke] PASS");
}
