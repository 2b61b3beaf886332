//! `marqsim-served` — the compilation-service daemon.
//!
//! Binds `MARQSIM_SERVE_ADDR` (default `127.0.0.1:7878`) and serves the
//! line-delimited JSON protocol until killed, in one of two roles:
//!
//! * **node** (the default): builds one shared engine (worker count from
//!   `MARQSIM_SERVE_THREADS`, falling back to `MARQSIM_THREADS`, then all
//!   cores; cache settings from the usual `MARQSIM_CACHE*` variables) and
//!   runs jobs itself. Admission
//!   bounds: `MARQSIM_SERVE_MAX_IN_FLIGHT` per connection,
//!   `MARQSIM_MAX_ACTIVE_JOBS` engine-wide across all connections.
//! * **router**: `--route node1:port,node2:port,...` (or `MARQSIM_ROUTE`)
//!   runs no engine at all — it forwards every `submit` to the fleet node
//!   owning the workload's Hamiltonian fingerprint on a consistent-hash
//!   ring, relays events back with job ids translated, aggregates `stats`
//!   across the fleet, and fails jobs on dead nodes with the structured
//!   `node_lost` kind. See `docs/cluster.md`.
//!
//! In both roles, `MARQSIM_SERVE_IDLE_TIMEOUT_MS` (unset = never) reaps
//! client connections that send no request bytes for that long,
//! cancelling whatever they left running.
//!
//! `MARQSIM_SERVE_TOKEN` sets a shared secret: clients (and a router's
//! upstream connections) must present it via the `auth` verb before any
//! other request. Binding a non-loopback address *without* a token is
//! refused (exit 2) — an open listener on a real interface is a
//! misconfiguration, not a default.
//!
//! See the `marqsim-serve` crate docs for the protocol.

use std::sync::Arc;

use marqsim_engine::{Engine, EngineConfig};
use marqsim_obs::error;
use marqsim_serve::{Router, Server};

/// Logs `message` and exits with `code`: 2 for a configuration error, 1
/// for a runtime failure.
fn fail(code: i32, message: impl std::fmt::Display) -> ! {
    error!("served", "{message}");
    std::process::exit(code);
}

/// A non-empty environment override, trimmed.
fn env_value(name: &str) -> Option<String> {
    std::env::var(name)
        .ok()
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
}

/// Strictly parses a positive-count override: `0` or garbage is a hard
/// exit-2 diagnostic naming the variable (`what` describes the unit), never
/// a silent fallback — the shared rule of every `MARQSIM_*` count.
fn positive_env(name: &str, what: &str) -> Option<usize> {
    let raw = env_value(name)?;
    match raw.parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => fail(
            2,
            format_args!(
                "invalid engine configuration: \
                 {name}={raw:?} is not a positive {what} (unset it for the default)"
            ),
        ),
    }
}

/// The fleet node list from `--route`/`--route=` (first) or
/// `MARQSIM_ROUTE`: comma-separated `host:port` entries. `None` means node
/// mode; an explicitly empty list is a hard exit-2 diagnostic.
fn route_nodes() -> Option<Vec<String>> {
    let mut args = std::env::args().skip(1);
    let raw = loop {
        match args.next() {
            Some(arg) if arg == "--route" => match args.next() {
                Some(value) => break Some(value),
                None => fail(2, "--route needs a comma-separated node list"),
            },
            Some(arg) => {
                if let Some(value) = arg.strip_prefix("--route=") {
                    break Some(value.to_string());
                }
            }
            None => break None,
        }
    };
    let raw = raw.or_else(|| env_value("MARQSIM_ROUTE"))?;
    let nodes: Vec<String> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if nodes.is_empty() {
        fail(
            2,
            format_args!(
                "router mode needs at least one node ('host:port,host:port,...'), got {raw:?}"
            ),
        );
    }
    Some(nodes)
}

/// Whether `addr` binds only the loopback interface. Anything that is not
/// provably loopback (including `0.0.0.0` and hostnames) counts as
/// exposed and requires a token.
fn is_loopback(addr: &str) -> bool {
    let host = match addr.rsplit_once(':') {
        Some((host, _port)) => host.trim_start_matches('[').trim_end_matches(']'),
        None => addr,
    };
    if host.eq_ignore_ascii_case("localhost") {
        return true;
    }
    host.parse::<std::net::IpAddr>()
        .is_ok_and(|ip| ip.is_loopback())
}

fn main() {
    let addr = env_value("MARQSIM_SERVE_ADDR").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let token = env_value("MARQSIM_SERVE_TOKEN");
    if token.is_none() && !is_loopback(&addr) {
        fail(
            2,
            format_args!(
                "refusing to bind non-loopback address {addr} without a token: \
                 set MARQSIM_SERVE_TOKEN (or bind 127.0.0.1)"
            ),
        );
    }

    let idle_timeout = positive_env("MARQSIM_SERVE_IDLE_TIMEOUT_MS", "millisecond timeout")
        .map(|ms| std::time::Duration::from_millis(ms as u64));

    if let Some(nodes) = route_nodes() {
        let mut router = Router::bind(&addr, &nodes)
            .unwrap_or_else(|cause| fail(1, format_args!("failed to bind {addr}: {cause}")));
        if let Some(token) = token {
            router = router.with_token(token);
        }
        if let Some(timeout) = idle_timeout {
            router = router.with_idle_timeout(timeout);
        }
        match router.local_addr() {
            Ok(bound) => println!(
                "[marqsim-served] routing on {bound} across {} nodes ({})",
                nodes.len(),
                nodes.join(", ")
            ),
            Err(_) => println!("[marqsim-served] routing on {addr}"),
        }
        if let Err(cause) = router.run() {
            fail(1, format_args!("router event loop failed: {cause}"));
        }
        return;
    }

    let mut config = EngineConfig::from_env().unwrap_or_else(|cause| fail(2, cause));
    if let Some(threads) = env_value("MARQSIM_SERVE_THREADS") {
        // Same strict rule (and diagnostic shape) as MARQSIM_THREADS.
        config.threads = EngineConfig::parse_threads("MARQSIM_SERVE_THREADS", &threads)
            .unwrap_or_else(|cause| fail(2, cause));
    }

    let max_in_flight = positive_env("MARQSIM_SERVE_MAX_IN_FLIGHT", "in-flight job bound");
    let max_active_jobs = positive_env("MARQSIM_MAX_ACTIVE_JOBS", "engine-wide job bound");

    let engine = Arc::new(Engine::new(config));
    let mut server = Server::bind(&addr, engine)
        .unwrap_or_else(|cause| fail(1, format_args!("failed to bind {addr}: {cause}")));
    if let Some(token) = token {
        server = server.with_token(token);
    }
    if let Some(limit) = max_in_flight {
        server = server.with_max_in_flight(limit);
    }
    if let Some(limit) = max_active_jobs {
        server = server.with_max_active_jobs(limit);
    }
    if let Some(timeout) = idle_timeout {
        server = server.with_idle_timeout(timeout);
    }
    match server.local_addr() {
        Ok(bound) => println!(
            "[marqsim-served] listening on {bound} with {} worker threads (workloads: {})",
            server.engine().threads(),
            server.workload_kinds().join(", ")
        ),
        Err(_) => println!("[marqsim-served] listening on {addr}"),
    }
    if let Err(cause) = server.run() {
        fail(1, format_args!("event loop failed: {cause}"));
    }
}
