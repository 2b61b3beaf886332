//! The loops `fidelity_sweep` and `gate_count_full` share: repeat a fixed
//! request list in rounds, and compare a traced replay with its untraced
//! run.

use std::time::{Duration, Instant};

use crate::replay::OpOutput;
use crate::report::{median, peak_rss_mib, percentile, timed, Report};

/// One request of a batch workload.
pub trait BatchRequest {
    fn name(&self) -> &str;
    /// Ops the request carries (sweep points or compiles).
    fn ops(&self) -> usize;
}

/// Issues `requests` one at a time, round after round, until `seconds` have
/// passed (at least one round). `round_start` runs before each round.
/// `run` returns a request's outputs and a payload; every later round must
/// reproduce round 0's outputs, or that request's ops count as failed.
/// Returns round 0's payloads (`None` for failed requests) and every
/// request's latencies.
pub fn run_rounds<R: BatchRequest, T>(
    report: &mut Report,
    requests: &[R],
    seconds: f64,
    mut round_start: impl FnMut(),
    run: impl Fn(&R) -> Result<(Vec<OpOutput>, T), String>,
) -> (Vec<Option<T>>, RequestTimes) {
    let mut first_outputs: Vec<Option<Vec<OpOutput>>> = Vec::new();
    let mut first: Vec<Option<T>> = Vec::new();
    let mut times = RequestTimes {
        ops: requests.iter().map(BatchRequest::ops).collect(),
        latencies: vec![Vec::new(); requests.len()],
    };
    let start = Instant::now();
    while times.rounds() == 0 || start.elapsed() < Duration::from_secs_f64(seconds) {
        let (results, wall) = timed(|| {
            round_start();
            requests
                .iter()
                .map(|request| timed(|| run(request)))
                .collect::<Vec<_>>()
        });
        let round = times.rounds();
        let mut ops_done = 0;
        for (index, (request, (result, latency))) in requests.iter().zip(results).enumerate() {
            report.attempted += request.ops() as u64;
            times.latencies[index].push(latency);
            let (outputs, payload) = match result {
                Ok(done) => done,
                Err(error) => {
                    report.fail_ops(request.ops() as u64, format!("{}: {error}", request.name()));
                    if round == 0 {
                        first_outputs.push(None);
                        first.push(None);
                    }
                    continue;
                }
            };
            ops_done += request.ops();
            if round == 0 {
                first_outputs.push(Some(outputs));
                first.push(Some(payload));
            } else if first_outputs[index].as_ref() != Some(&outputs) {
                report.fail_ops(
                    request.ops() as u64,
                    format!("{}: round differs from round 0", request.name()),
                );
            }
        }
        eprintln!(
            "[perfbench]   round {}: {ops_done} ops in {wall:.3} s, peak rss {:.1} MiB",
            round + 1,
            peak_rss_mib(),
        );
    }
    (first, times)
}

/// Every request's latency in every round. The requests are deterministic
/// and every round repeats them, so on a shared host interference only
/// ever adds time: a request's fastest round is its latency with the least
/// interference. The metrics are computed from those per-request floors,
/// which moved by a few percent between runs where medians over rounds
/// moved by over ten.
#[derive(Debug)]
pub struct RequestTimes {
    ops: Vec<usize>,
    latencies: Vec<Vec<f64>>,
}

impl RequestTimes {
    pub fn rounds(&self) -> usize {
        self.latencies.first().map_or(0, Vec::len)
    }

    /// Sets `ops_per_s` (all requests' ops over the sum of their floors),
    /// and `op_p50_s` and `op_p99_s` (percentiles of the floors).
    pub fn set_metrics(&self, report: &mut Report) {
        let floors: Vec<f64> = self
            .latencies
            .iter()
            .map(|latencies| latencies.iter().copied().fold(f64::INFINITY, f64::min))
            .collect();
        let ops: usize = self.ops.iter().sum();
        report.set("ops_per_s", ops as f64 / floors.iter().sum::<f64>());
        report.set("op_p50_s", median(&floors));
        report.set("op_p99_s", percentile(&floors, 0.99));
    }
}

/// Counts every request's ops as attempted, and as failed where the traced
/// replay's outputs differ from the untraced run's. Returns the outputs of
/// the requests that match.
pub fn compare_traced<R: BatchRequest>(
    report: &mut Report,
    requests: &[R],
    untraced: Vec<Result<Vec<OpOutput>, String>>,
    traced: Vec<Result<Vec<OpOutput>, String>>,
) -> Vec<OpOutput> {
    let mut matching = Vec::new();
    for ((request, untraced), traced) in requests.iter().zip(untraced).zip(traced) {
        report.attempted += request.ops() as u64;
        match (untraced, traced) {
            (Ok(untraced), Ok(traced)) if untraced == traced => matching.extend(traced),
            (untraced, traced) => report.fail_ops(
                request.ops() as u64,
                format!(
                    "{}: traced replay differs from the untraced run ({:?} vs {:?})",
                    request.name(),
                    untraced.err(),
                    traced.err()
                ),
            ),
        }
    }
    matching
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_use_each_requests_fastest_round() {
        let times = RequestTimes {
            ops: vec![2, 4],
            latencies: vec![vec![0.3, 0.1, 0.2], vec![0.5, 0.9, 0.4]],
        };
        let mut report = Report::default();
        times.set_metrics(&mut report);
        assert_eq!(times.rounds(), 3);
        assert_eq!(report.metrics["ops_per_s"], 6.0 / (0.1 + 0.4));
        assert_eq!(report.metrics["op_p50_s"], 0.1);
        assert_eq!(report.metrics["op_p99_s"], 0.4);
    }
}
