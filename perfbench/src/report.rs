//! Run reports, the metric catalog, and the statistics helpers every
//! workload shares.

use std::collections::BTreeMap;
use std::time::Instant;

use marqsim_engine::{CacheConfig, EngineConfig};

/// End-to-end metrics, measured with tracing off: `(name, unit)`. Every
/// workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_s", "s"),
    ("op_p99_s", "s"),
    ("cnot_total", "count"),
];

/// Per-layer metrics, measured by the traced run: `(name, unit)`. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.accumulate_s", "s"),
    ("sim.rotations", "count"),
    ("sim.amp_updates", "count"),
    ("sim.exact_s", "s"),
    ("sim.exact_calls", "count"),
    ("sim.exact_distinct", "count"),
    ("sim.trace_s", "s"),
    ("sim.fidelity_mean", "ratio"),
    ("flow.gc_solve_s", "s"),
    ("flow.rp_build_s", "s"),
    ("flow.cold_solves", "count"),
    ("flow.warm_starts", "count"),
    ("core.htt_build_s", "s"),
    ("core.compile_s", "s"),
    ("markov.samples", "count"),
    ("circuit.synth_s", "s"),
    ("circuit.cancel_s", "s"),
    ("circuit.gates_in", "count"),
    ("circuit.gates_removed", "count"),
    ("circuit.cancel_ratio", "ratio"),
    ("engine.cache.hits", "count"),
    ("engine.cache.misses", "count"),
    ("engine.cache.hit_ratio", "ratio"),
    ("engine.pool.task_s", "s"),
    ("engine.pool.queue_wait_s", "s"),
    ("engine.pool.busy_ratio", "ratio"),
    ("serve.submit_p50_s", "s"),
    ("serve.wait_p50_s", "s"),
    ("serve.engine_p50_s", "s"),
    ("serve.overhead_p50_s", "s"),
    ("serve.requests", "count"),
    ("serve.bytes_in", "count"),
    ("serve.bytes_out", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Set-up is repeated this many times per run and its median reported, so
/// one slow set-up does not decide `setup_s`.
pub const SETUP_REPEATS: usize = 5;

/// The outcome of one benchmark invocation: op accounting, output-check
/// failures, and the metrics to print.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check; any entry makes the run incorrect.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records one failed output check.
    pub fn fail(&mut self, message: impl Into<String>) {
        let message = message.into();
        eprintln!("[perfbench] CHECK FAILED: {message}");
        self.failures.push(message);
    }

    /// Records `ops` failed ops and the check or error that failed them.
    pub fn fail_ops(&mut self, ops: u64, message: impl Into<String>) {
        self.failed += ops;
        self.fail(message);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// The single-line JSON result for the catalog `names`; metrics a
    /// workload did not set are 0. A non-finite value fails the run.
    pub fn json_line(&mut self, names: &[(&'static str, &'static str)]) -> String {
        let mut fields = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                self.fail(format!("metric {name} is not finite ({value})"));
            }
            let value = if value.is_finite() { value } else { 0.0 };
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }

    /// A human-readable metric table on stderr.
    pub fn print_table(&self, names: &[(&'static str, &'static str)]) {
        for &(name, unit) in names {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            eprintln!("[perfbench]   {name:<26} {value:>16.6} {unit}");
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        eprintln!(
            "[perfbench]   attempted={} failed={} fail_ratio={ratio}",
            self.attempted, self.failed
        );
    }
}

/// Shortest round-trip formatting, always with a decimal point or exponent
/// so every value parses as a JSON number.
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `q ∈ [0, 1]` of `values` (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `served_mix`'s loop as consecutive rounds. Throughput is the median over
/// rounds, so one disturbed round does not move it. The latency percentiles
/// are over every op of the run, so the p99 has at least ten samples beyond
/// it.
#[derive(Debug, Default)]
pub struct Rounds {
    throughput: Vec<f64>,
    latencies: Vec<f64>,
}

impl Rounds {
    /// Records a round that completed `ops` ops in `wall_s` seconds, with
    /// one latency sample per op.
    pub fn add(&mut self, ops: usize, wall_s: f64, latencies: &[f64]) {
        self.throughput.push(ops as f64 / wall_s);
        self.latencies.extend_from_slice(latencies);
        eprintln!(
            "[perfbench]   round {}: {ops} ops in {wall_s:.3} s, peak rss {:.1} MiB",
            self.throughput.len(),
            peak_rss_mib(),
        );
    }

    /// Sets `ops_per_s`, `op_p50_s` and `op_p99_s`.
    pub fn set_metrics(&self, report: &mut Report) {
        report.set("ops_per_s", median(&self.throughput));
        report.set("op_p50_s", median(&self.latencies));
        report.set("op_p99_s", percentile(&self.latencies, 0.99));
        eprintln!(
            "[perfbench]   {} op latencies, {} beyond the p99",
            self.latencies.len(),
            self.latencies.len() - (self.latencies.len() as f64 * 0.99).ceil() as usize,
        );
    }
}

/// Worker threads for every engine and the number of client connections:
/// the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The one engine configuration every run uses: `nproc` workers, the
/// transition cache on with its defaults, nothing persisted to disk. Built
/// explicitly (never from the environment) so no operator variable can
/// change what is measured.
pub fn engine_config() -> EngineConfig {
    EngineConfig::default()
        .with_threads(nproc())
        .with_cache(true)
        .with_cache_config(CacheConfig::default())
}

/// Prints the engine configuration once per run.
pub fn print_engine_config(config: &EngineConfig) {
    eprintln!(
        "[perfbench] engine: threads={} cache={} shards={} cap_per_shard={} persist_dir={} flow_solver={}",
        config.threads,
        if config.cache_enabled { "on" } else { "off" },
        config.cache.shards,
        config.cache.cap_per_shard,
        config
            .cache
            .persist_dir
            .as_ref()
            .map_or("none".to_string(), |dir| dir.display().to_string()),
        config.cache.flow_solver.as_str(),
    );
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`). Printed
/// per round on stderr, not reported as a metric: it varied by up to ±15%
/// between identical `gate_count_full` runs (allocator slack).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the last result with
/// the median set-up time in seconds. Earlier results are dropped before
/// the next set-up starts, so each set-up starts from the same state.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Runs `f` and returns its output with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A small deterministic mixer for deriving per-op inputs from the seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&values), 50.0);
        assert_eq!(percentile(&values, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.set("setup_s", 1.0);
        let line = report.json_line(&[("setup_s", "s"), ("ops_per_s", "ops/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.0, \"unit\": \"s\"}, \"ops_per_s\": {\"value\": 0.0, \"unit\": \"ops/s\"}}}"
        );
    }
}
