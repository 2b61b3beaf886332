//! Per-layer accounting for the traced run.
//!
//! The benchmark times each call it makes into a layer's public function
//! from its own code; the calls never nest, so each timer is that layer's
//! self time. Pool busy and queue-wait time come from the engine's own
//! `pool_task` / `queue_wait` spans, collected in memory.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use marqsim_engine::CacheStats;

use crate::report::{median, Report};

/// Thread-safe layer timers and counters for one traced run.
#[derive(Default)]
pub struct Layers {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    /// Layer self time in seconds, by metric name.
    times: BTreeMap<&'static str, f64>,
    /// Work counts, by metric name.
    counts: BTreeMap<&'static str, f64>,
    /// Wall time of every traced task the layer timers ran inside.
    task_wall_s: f64,
    /// Distinct `(Hamiltonian fingerprint, t)` pairs passed to the exact
    /// reference unitary.
    exact_keys: HashSet<(u64, u64)>,
}

impl Layers {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("layer accounting lock poisoned")
    }

    /// Runs `f` and charges its wall time to layer metric `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed().as_secs_f64();
        *self.lock().times.entry(name).or_default() += elapsed;
        out
    }

    /// Runs one traced task and records its wall time (the denominator of
    /// `trace.coverage`).
    pub fn task<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed().as_secs_f64();
        self.lock().task_wall_s += elapsed;
        out
    }

    pub fn count(&self, name: &'static str, amount: f64) {
        *self.lock().counts.entry(name).or_default() += amount;
    }

    pub fn exact_key(&self, fingerprint: u64, time: f64) {
        self.lock().exact_keys.insert((fingerprint, time.to_bits()));
    }

    /// Copies every timer and counter, plus the derived ratios, into
    /// `report`. `traced_wall_s`/`untraced_wall_s` are the wall times of the
    /// same inputs with and without tracing.
    pub fn finish(
        &self,
        report: &mut Report,
        spans: &SpanTotals,
        cache: &CacheStats,
        traced_wall_s: f64,
        untraced_wall_s: f64,
        threads: usize,
    ) {
        let inner = self.lock();
        for (&name, &value) in inner.times.iter().chain(&inner.counts) {
            report.set(name, value);
        }
        let self_time: f64 = inner.times.values().sum();
        report.set("sim.exact_distinct", inner.exact_keys.len() as f64);
        report.set(
            "trace.coverage",
            ratio(self_time, inner.task_wall_s.max(f64::MIN_POSITIVE)),
        );
        report.set(
            "trace.overhead_ratio",
            ratio(traced_wall_s, untraced_wall_s) - 1.0,
        );
        let gates_in = inner.counts.get("circuit.gates_in").copied().unwrap_or(0.0);
        let removed = inner
            .counts
            .get("circuit.gates_removed")
            .copied()
            .unwrap_or(0.0);
        report.set("circuit.cancel_ratio", ratio(removed, gates_in));
        report.set("engine.cache.hits", cache.hits as f64);
        report.set("engine.cache.misses", cache.misses as f64);
        report.set(
            "engine.cache.hit_ratio",
            ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
        );
        report.set("flow.cold_solves", cache.flow_solves as f64);
        report.set("flow.warm_starts", cache.warm_starts as f64);
        report.set("engine.pool.task_s", spans.pool_task_s);
        report.set("engine.pool.queue_wait_s", spans.queue_wait_s);
        report.set(
            "engine.pool.busy_ratio",
            ratio(spans.pool_task_s, threads as f64 * traced_wall_s),
        );
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sums of the engine's pool spans over a traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub pool_task_s: f64,
    pub queue_wait_s: f64,
}

/// The engine's span records, collected in memory from the moment the
/// traced phase starts (tracing stays off before that, so the untraced
/// phase of the same run pays nothing for it).
pub struct SpanSink {
    buffer: Arc<Mutex<Vec<String>>>,
}

impl SpanSink {
    pub fn install() -> SpanSink {
        SpanSink {
            buffer: marqsim_obs::trace::install_memory_sink(),
        }
    }

    /// Sums `pool_task` and `queue_wait` durations recorded so far.
    pub fn totals(&self) -> SpanTotals {
        let lines = self.buffer.lock().expect("trace buffer lock poisoned");
        let mut totals = SpanTotals::default();
        for line in lines.iter() {
            let Some(dur_us) = field_u64(line, "\"dur_us\":") else {
                continue;
            };
            let seconds = dur_us as f64 * 1e-6;
            if line.starts_with("{\"span\":\"pool_task\"") {
                totals.pool_task_s += seconds;
            } else if line.starts_with("{\"span\":\"queue_wait\"") {
                totals.queue_wait_s += seconds;
            }
        }
        totals
    }
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let start = line.find(key)? + key.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Prints the per-layer self-time table for a traced run.
pub fn print_layer_table(report: &Report) {
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (&name, &value) in &report.metrics {
        let is_self_time = name.ends_with("_s")
            && !name.starts_with("engine.pool")
            && !name.starts_with("serve.")
            && !name.starts_with("trace.");
        if is_self_time {
            let layer = name.split('.').next().unwrap_or(name);
            *by_layer.entry(layer).or_default() += value;
        }
    }
    let total: f64 = by_layer.values().sum();
    eprintln!("[perfbench] layer self time (traced run):");
    for (layer, seconds) in &by_layer {
        eprintln!(
            "[perfbench]   {layer:<10} {seconds:>12.4} s {:>7.1}%",
            100.0 * ratio(*seconds, total)
        );
    }
}

/// Median of the per-op samples, reported with their count.
pub fn p50_with_count(label: &str, samples: &[f64]) -> f64 {
    let p50 = median(samples);
    eprintln!(
        "[perfbench]   {label}: p50={p50:.6} s over {} samples",
        samples.len()
    );
    p50
}
