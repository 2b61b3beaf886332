//! `flow_bench` — min-cost-flow timing on the gate-cancellation
//! transportation model.
//!
//! For each problem size (Pauli-string count) it builds the same random
//! Hamiltonian `table2` uses, derives the CNOT-cost bipartite instance, and
//! solves it cold with the network simplex, printing one grep-able line per
//! size:
//!
//! ```text
//! [flow] backend=network_simplex strings=500 states=500 pivots=14824 solve_s=0.517 init_s=0.021 cost=5.586158
//! ```
//!
//! Run with `cargo run --release -p marqsim-bench --bin flow_bench
//! [--quick]`. The default covers 100/500/1000 strings; `--quick` drops the
//! 1000-string instance.
//!
//! `--warm` switches to the warm-start benchmark instead: per size, solve
//! the base instance cold, export its spanning basis, then re-solve
//! perturbed-cost variants both cold and as warm re-pivots from that basis,
//! printing one line per size:
//!
//! ```text
//! [flow] warm=network_simplex strings=500 samples=8 pivots=16717 repivot_s=0.828 init_s=0.160 cold_s=4.796 speedup=5.8 equal=true
//! ```
//!
//! `equal` asserts the re-pivoted optimum matches the cold optimum to 1e-9
//! on every sample (exit 1 otherwise) — the warm-start correctness
//! contract the CI smoke leg greps for.
//!
//! `pivots` is read from the flow layer's own `marqsim_flow_pivots_total`
//! counter: the cold solve's basis exchanges, or the warm re-pivots summed
//! over the samples. The pivot path is deterministic, so CI pins the
//! 500-string counts — a change to the pricing or leaving-arc rule fails
//! there instead of only moving timings.
//!
//! `init_s` is read from the `marqsim_flow_phase_seconds{phase="init"}`
//! histogram's sum: the fixed per-solve cost before the first pivot
//! (building the arcs, the topology fingerprint, the artificial start or
//! basis restore, the spanning tree), for the cold solve or summed over
//! the warm re-pivots.

use marqsim_bench::{header, timed};
use marqsim_core::gate_cancel::cnot_cost_matrix;
use marqsim_flow::{bipartite, NetworkSimplex};
use marqsim_hamlib::random::{random_hamiltonian, RandomHamiltonianParams};
use marqsim_obs::{error, info, metrics};

/// Deterministic xorshift cost perturbation: `+1.0` on roughly half of the
/// off-diagonal entries, mirroring the §5.5 perturbation shape.
fn perturbed(costs: &[Vec<f64>], seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    costs
        .iter()
        .enumerate()
        .map(|(i, row)| {
            row.iter()
                .enumerate()
                .map(|(j, &cost)| {
                    if i != j && next() % 2 == 0 {
                        cost + 1.0
                    } else {
                        cost
                    }
                })
                .collect()
        })
        .collect()
}

/// Basis exchanges so far in this process, from the flow layer's counter.
fn pivots_so_far() -> u64 {
    metrics::global().counter("marqsim_flow_pivots_total").get()
}

/// Init-phase seconds so far in this process, from the flow layer's
/// phase histogram.
fn init_seconds_so_far() -> f64 {
    metrics::global()
        .histogram_with("marqsim_flow_phase_seconds", &[("phase", "init")])
        .sum()
}

/// The `table2` random Hamiltonian with `strings` terms, split, with its
/// stationary distribution and CNOT cost matrix.
fn instance(strings: usize) -> (usize, Vec<f64>, Vec<Vec<f64>>) {
    let ham = random_hamiltonian(&RandomHamiltonianParams {
        qubits: 20,
        terms: strings,
        identity_bias: 0.6,
        seed: 1234 + strings as u64,
    })
    .split_if_dominant();
    (
        ham.num_terms(),
        ham.stationary_distribution(),
        cnot_cost_matrix(&ham),
    )
}

fn run_warm(sizes: &[usize]) {
    const SAMPLES: u64 = 8;
    header("flow_bench: warm-start re-pivots vs cold solves (network simplex)");
    for &strings in sizes {
        let (_, pi, costs) = instance(strings);
        let seed_solve = bipartite::solve(&pi, &costs, None);
        let basis = match seed_solve {
            Ok((_, basis)) => basis,
            Err(cause) => {
                error!("flow", "seed solve failed at {strings} strings: {cause}");
                std::process::exit(1);
            }
        };

        let mut repivot_s = 0.0;
        let mut repivots = 0u64;
        let mut init_s = 0.0;
        let mut cold_s = 0.0;
        let mut equal = true;
        for sample in 0..SAMPLES {
            let sample_costs = perturbed(&costs, strings as u64 * 1000 + sample);
            let (cold, seconds) = timed(|| bipartite::solve(&pi, &sample_costs, None));
            cold_s += seconds;
            let (cold, _) = cold.unwrap_or_else(|cause| {
                error!("flow", "cold re-solve failed at {strings} strings: {cause}");
                std::process::exit(1);
            });
            let (before, init_before) = (pivots_so_far(), init_seconds_so_far());
            let (warm, seconds) = timed(|| bipartite::solve(&pi, &sample_costs, Some(&basis)));
            repivot_s += seconds;
            repivots += pivots_so_far() - before;
            init_s += init_seconds_so_far() - init_before;
            let (warm, _) = warm.unwrap_or_else(|cause| {
                error!("flow", "warm re-solve failed at {strings} strings: {cause}");
                std::process::exit(1);
            });
            if !warm.warm_start {
                error!("flow", "warm solve fell back to cold at {strings} strings");
                std::process::exit(1);
            }
            let scale = cold.cost.abs().max(1.0);
            if (warm.cost - cold.cost).abs() > 1e-9 * scale {
                equal = false;
            }
        }
        info!(
            "flow",
            "warm={} strings={strings} samples={SAMPLES} pivots={repivots} repivot_s={repivot_s:.3} init_s={init_s:.3} cold_s={cold_s:.3} speedup={:.1} equal={equal}",
            NetworkSimplex.as_str(),
            cold_s / repivot_s.max(1e-12),
        );
        if !equal {
            error!(
                "flow",
                "warm re-pivot diverged from the cold optimum at {strings} strings"
            );
            std::process::exit(1);
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let warm = std::env::args().any(|a| a == "--warm");
    let sizes: &[usize] = if quick {
        &[100, 500]
    } else {
        &[100, 500, 1000]
    };
    if warm {
        run_warm(sizes);
        return;
    }

    header("flow_bench: min-cost-flow timing (gate-cancellation model)");
    for &strings in sizes {
        let (states, pi, costs) = instance(strings);
        let (before, init_before) = (pivots_so_far(), init_seconds_so_far());
        let (solution, seconds) = timed(|| bipartite::solve(&pi, &costs, None));
        let pivots = pivots_so_far() - before;
        let init_s = init_seconds_so_far() - init_before;
        match solution {
            Ok((flow, _)) => info!(
                "flow",
                "backend={} strings={strings} states={states} pivots={pivots} solve_s={seconds:.3} init_s={init_s:.3} cost={:.6}",
                NetworkSimplex.as_str(),
                flow.cost,
            ),
            Err(cause) => {
                error!("flow", "solve failed at {strings} strings: {cause}");
                std::process::exit(1);
            }
        }
    }
}
