//! Shared helpers for the table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation (see `DESIGN.md` for the experiment index). All of them accept
//! a `--full` flag (or `MARQSIM_SCALE=full`) to run at the paper's benchmark
//! sizes; the default is a reduced scale that finishes in minutes on a
//! laptop while preserving the qualitative shape of every result.

use std::time::Instant;

use marqsim_engine::{CacheStats, Engine};
use marqsim_hamlib::suite::SuiteScale;

/// Runtime scale selection shared by the binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScale {
    /// Suite scale (benchmark sizes).
    pub suite: SuiteScale,
    /// Repetitions per configuration.
    pub repeats: usize,
    /// Whether fidelity evaluation is enabled by default.
    pub fidelity: bool,
}

/// Parses the scale from the command line / environment: `--full` or
/// `MARQSIM_SCALE=full` selects the paper-sized run.
pub fn run_scale() -> RunScale {
    let full = std::env::args().any(|a| a == "--full")
        || std::env::var("MARQSIM_SCALE")
            .map(|v| v == "full")
            .unwrap_or(false);
    if full {
        RunScale {
            suite: SuiteScale::Full,
            repeats: 10,
            fidelity: false,
        }
    } else {
        RunScale {
            suite: SuiteScale::Reduced,
            repeats: 5,
            fidelity: true,
        }
    }
}

/// Idle-connection crowd size for the `c10k_smoke` binary:
/// `MARQSIM_C10K_IDLE=<n>` overrides the default of 2000 (e.g. to run
/// under a tight `ulimit -n` locally).
pub fn c10k_idle_conns() -> usize {
    std::env::var("MARQSIM_C10K_IDLE")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(2000)
}

/// The fleet shared secret for the `cluster_smoke` binary:
/// `MARQSIM_SERVE_TOKEN` (the same variable `marqsim-served` honors),
/// `None` when unset or empty.
pub fn serve_token() -> Option<String> {
    std::env::var("MARQSIM_SERVE_TOKEN")
        .ok()
        .filter(|token| !token.is_empty())
}

/// Builds the engine every binary routes its compilations through
/// (`MARQSIM_THREADS` / `MARQSIM_CACHE` / `MARQSIM_CACHE_CAP` /
/// `MARQSIM_CACHE_DIR` overrides apply) and prints a one-line banner so
/// runs record their parallelism. An invalid override is a clear exit-2
/// diagnostic, never a silent fallback.
pub fn engine() -> Engine {
    match Engine::from_env() {
        Ok(engine) => {
            println!("[marqsim-engine: {} worker threads]", engine.threads());
            engine
        }
        Err(error) => {
            marqsim_obs::error!("bench", "{error}");
            std::process::exit(2);
        }
    }
}

/// Emits the cache counters in the stable, grep-able one-line format
/// through the `marqsim-obs` structured logger (info level, stderr). Every
/// binary emits this before exiting; the CI smoke jobs redirect stderr into
/// their logs and assert e.g. `flow_solves=0` when `table2` reruns against
/// a warm `MARQSIM_CACHE_DIR`. The line format predates the logger and is
/// frozen: `[cache] key=value …` — new counters append at the end so the
/// existing `key=value ` greps keep matching.
pub fn report_cache_stats(stats: CacheStats) {
    marqsim_obs::info!(
        "cache",
        "hits={} misses={} component_hits={} flow_solves={} disk_hits={} disk_writes={} disk_errors={} evictions={} graphs={} components={} warm_starts={}",
        stats.hits,
        stats.misses,
        stats.component_hits,
        stats.flow_solves,
        stats.disk_hits,
        stats.disk_writes,
        stats.disk_errors,
        stats.evictions,
        stats.graphs,
        stats.components,
        stats.warm_starts,
    );
}

/// Prints a section header in a consistent format.
pub fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Times a closure and returns `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_reduced() {
        // The test binary is not passed --full.
        if std::env::var("MARQSIM_SCALE").is_err() {
            assert_eq!(run_scale().suite, SuiteScale::Reduced);
        }
    }

    #[test]
    fn timed_returns_result_and_duration() {
        let (value, secs) = timed(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.251), "25.1%");
    }
}
