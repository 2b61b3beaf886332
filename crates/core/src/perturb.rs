//! The random-perturbation transition matrix `P_rp` (§5.5).
//!
//! Adding a small random perturbation to the min-cost-flow edge costs and
//! averaging the resulting transition matrices spreads the eigenvectors of
//! the combined matrix, pushing its sub-dominant eigenvalues down (Fig. 15)
//! and therefore reducing the sampling variance — without touching the
//! capacity constraints that guarantee correctness.
//!
//! Following §6.1, each perturbation adds `+1` to the CNOT cost of an edge
//! independently with probability `1/2`, and `P_rp` is the average over a
//! configurable number of perturbed solutions (100 in the paper).
//!
//! There is one definition of `P_rp`. Sample `k`'s costs take the `k`-th
//! block of `N(N−1)` draws from one `StdRng(config.seed)` stream, one draw
//! per off-diagonal entry in row-major order. Each sample is solved as a
//! warm re-pivot from the `P_gc` basis of the same (split) Hamiltonian —
//! the perturbation changes only costs, so that basis always matches — and
//! the sample matrices are averaged in index order. The pieces are public
//! so a scheduler can solve the samples in any order:
//! [`sample_streams`] gives each sample its start state, [`solve_sample`]
//! solves one, and [`average_samples`] combines them.
//! [`random_perturbation_matrix`] runs the same pieces in order; the
//! engine runs them as pool tasks and gets a bit-identical matrix.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use marqsim_markov::combine::combine_refs;
use marqsim_markov::TransitionMatrix;
use marqsim_pauli::Hamiltonian;

use marqsim_flow::SpanningBasis;

use crate::gate_cancel::{cnot_cost_matrix, matrix_from_costs};
use crate::CompileError;

/// Configuration of the random-perturbation matrix construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbationConfig {
    /// Number of independently perturbed min-cost-flow problems to average.
    pub samples: usize,
    /// Magnitude added to an edge cost when it is perturbed.
    pub magnitude: f64,
    /// Probability that any given edge cost is perturbed.
    pub probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PerturbationConfig {
    fn default() -> Self {
        PerturbationConfig {
            samples: 20,
            magnitude: 1.0,
            probability: 0.5,
            seed: 0,
        }
    }
}

/// The start state of every sample's block of draws, for a Hamiltonian of
/// `num_terms` terms: sample `k` starts where samples `0..k` left the
/// `StdRng(config.seed)` stream, `k · N(N−1)` draws in.
pub fn sample_streams(num_terms: usize, config: &PerturbationConfig) -> Vec<StdRng> {
    let draws = num_terms * num_terms.saturating_sub(1);
    let mut rng = StdRng::seed_from_u64(config.seed);
    (0..config.samples)
        .map(|_| {
            let start = rng.clone();
            for _ in 0..draws {
                let _: f64 = rng.gen();
            }
            start
        })
        .collect()
}

/// Solves one perturbation sample: perturbs `base_costs` (the
/// [`cnot_cost_matrix`] of `ham`) with draws from the sample's `stream` —
/// each off-diagonal entry, in row-major order, gains `config.magnitude`
/// with probability `config.probability` — and re-pivots the flow model
/// from `gc_basis`. Returns the sample matrix and whether the basis was
/// actually re-pivoted (`false` on the cold fallback for a mismatched
/// basis).
///
/// # Errors
///
/// Propagates the flow-solve failure.
pub fn solve_sample(
    ham: &Hamiltonian,
    base_costs: &[Vec<f64>],
    mut stream: StdRng,
    config: &PerturbationConfig,
    gc_basis: &SpanningBasis,
) -> Result<(TransitionMatrix, bool), CompileError> {
    let mut costs = base_costs.to_vec();
    for (i, row) in costs.iter_mut().enumerate() {
        for (j, value) in row.iter_mut().enumerate() {
            if i != j && stream.gen::<f64>() < config.probability {
                *value += config.magnitude;
            }
        }
    }
    let solved = matrix_from_costs(ham, &costs, Some(gc_basis))?;
    Ok((solved.matrix, solved.warm_start))
}

/// Averages the sample matrices with equal weights, in index order.
///
/// # Errors
///
/// Fails on an empty sample list or mismatched dimensions.
pub fn average_samples<'a>(
    matrices: impl IntoIterator<Item = &'a TransitionMatrix>,
) -> Result<TransitionMatrix, CompileError> {
    let matrices: Vec<&TransitionMatrix> = matrices.into_iter().collect();
    let weights = vec![1.0 / matrices.len() as f64; matrices.len()];
    combine_refs(&matrices, &weights).map_err(CompileError::Combine)
}

/// Builds `P_rp` for `ham` (already split, see
/// [`Hamiltonian::split_if_dominant`]) from the basis of its `P_gc` solve,
/// running the per-sample pieces in order. Also returns how many solves
/// re-pivoted the basis.
///
/// # Errors
///
/// Propagates failures of the flow solves or of the averaging step (which
/// rejects `config.samples == 0`).
pub fn random_perturbation_matrix(
    ham: &Hamiltonian,
    config: &PerturbationConfig,
    gc_basis: &SpanningBasis,
) -> Result<(TransitionMatrix, u64), CompileError> {
    let base_costs = cnot_cost_matrix(ham);
    let mut warm_starts = 0u64;
    let matrices = sample_streams(ham.num_terms(), config)
        .into_iter()
        .map(|stream| {
            let (matrix, warm) = solve_sample(ham, &base_costs, stream, config, gc_basis)?;
            warm_starts += u64::from(warm);
            Ok(matrix)
        })
        .collect::<Result<Vec<_>, CompileError>>()?;
    Ok((average_samples(&matrices)?, warm_starts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate_cancel::{gate_cancellation_matrix, gate_cancellation_matrix_with_basis};
    use crate::qdrift::qdrift_matrix;
    use marqsim_flow::bipartite::BipartiteError;
    use marqsim_markov::combine::combine;
    use marqsim_markov::spectra::spectrum;

    fn example() -> Hamiltonian {
        // Example 5.3 of the paper.
        Hamiltonian::parse("1.0 IIIZY + 1.0 XXIII + 0.7 ZXZYI + 0.5 IIZZX + 0.3 XXYYZ").unwrap()
    }

    /// `P_rp` of `ham` from the basis of its own `P_gc` solve.
    fn p_rp(ham: &Hamiltonian, config: &PerturbationConfig) -> TransitionMatrix {
        let (_, gc_basis) = gate_cancellation_matrix_with_basis(ham).unwrap();
        random_perturbation_matrix(ham, config, &gc_basis)
            .unwrap()
            .0
    }

    #[test]
    fn preserves_the_stationary_distribution() {
        let ham = example();
        let p_rp = p_rp(&ham, &PerturbationConfig::default());
        assert!(p_rp.preserves_distribution(&ham.stationary_distribution(), 1e-8));
    }

    #[test]
    fn is_deterministic_given_a_seed() {
        let ham = example();
        let config = PerturbationConfig {
            samples: 5,
            seed: 9,
            ..Default::default()
        };
        assert_eq!(p_rp(&ham, &config), p_rp(&ham, &config));
    }

    #[test]
    fn differs_from_the_unperturbed_gate_cancellation_matrix() {
        let ham = example();
        let p_gc = gate_cancellation_matrix(&ham).unwrap();
        let p_rp = p_rp(
            &ham,
            &PerturbationConfig {
                samples: 10,
                seed: 3,
                ..Default::default()
            },
        );
        let max_diff = (0..ham.num_terms())
            .flat_map(|i| (0..ham.num_terms()).map(move |j| (i, j)))
            .map(|(i, j)| (p_gc.prob(i, j) - p_rp.prob(i, j)).abs())
            .fold(0.0, f64::max);
        assert!(max_diff > 1e-3, "perturbation should change the matrix");
    }

    #[test]
    fn parallel_samples_are_independent_and_deterministic() {
        let ham = example();
        let config = PerturbationConfig {
            samples: 4,
            seed: 21,
            ..Default::default()
        };
        let (_, gc_basis) = gate_cancellation_matrix_with_basis(&ham).unwrap();
        let base_costs = cnot_cost_matrix(&ham);
        // Each sample is a pure function of its stream: solving them in
        // reverse order (as a scheduler might) and averaging in index order
        // reproduces the serial construction bit for bit, and every sample
        // re-pivots the P_gc basis.
        let streams = sample_streams(ham.num_terms(), &config);
        assert_ne!(streams[0], streams[1], "each sample has its own block");
        let mut matrices: Vec<_> = streams
            .into_iter()
            .rev()
            .map(|stream| {
                let (matrix, warm) =
                    solve_sample(&ham, &base_costs, stream, &config, &gc_basis).unwrap();
                assert!(warm, "every sample re-pivots the P_gc basis");
                matrix
            })
            .collect();
        matrices.reverse();
        let averaged = average_samples(&matrices).unwrap();
        let (serial, warm_starts) = random_perturbation_matrix(&ham, &config, &gc_basis).unwrap();
        assert_eq!(averaged, serial);
        assert_eq!(warm_starts, config.samples as u64);
        assert!(averaged.preserves_distribution(&ham.stationary_distribution(), 1e-8));
    }

    #[test]
    fn zero_samples_is_an_error_not_a_panic() {
        let ham = example();
        let (_, gc_basis) = gate_cancellation_matrix_with_basis(&ham).unwrap();
        let config = PerturbationConfig {
            samples: 0,
            ..Default::default()
        };
        assert!(random_perturbation_matrix(&ham, &config, &gc_basis).is_err());
    }

    #[test]
    fn non_finite_or_overflowing_magnitudes_are_errors_not_panics() {
        // An infinite magnitude used to panic in the flow layer; 1e308
        // overflowed its big-M and read as an infeasible instance.
        let ham = example();
        let (_, gc_basis) = gate_cancellation_matrix_with_basis(&ham).unwrap();
        for magnitude in [f64::INFINITY, f64::NAN, 1e308] {
            let config = PerturbationConfig {
                samples: 2,
                magnitude,
                probability: 1.0,
                ..Default::default()
            };
            assert!(
                matches!(
                    random_perturbation_matrix(&ham, &config, &gc_basis),
                    Err(CompileError::Flow(BipartiteError::InvalidCosts))
                ),
                "{magnitude}"
            );
        }
    }

    #[test]
    fn perturbed_combination_has_smaller_subdominant_mass() {
        // The §6.4 observation: replacing part of the P_gc weight with P_rp
        // lowers the sub-dominant spectrum (faster convergence).
        let ham = example();
        let pi = ham.stationary_distribution();
        let p_qd = qdrift_matrix(&ham);
        let p_gc = gate_cancellation_matrix(&ham).unwrap();
        let p_rp = p_rp(
            &ham,
            &PerturbationConfig {
                samples: 30,
                seed: 1,
                ..Default::default()
            },
        );
        let without = combine(&[p_qd.clone(), p_gc.clone()], &[0.4, 0.6]).unwrap();
        let with = combine(&[p_qd, p_gc, p_rp], &[0.4, 0.3, 0.3]).unwrap();
        assert!(without.preserves_distribution(&pi, 1e-8));
        assert!(with.preserves_distribution(&pi, 1e-8));
        let mass_without = spectrum(&without).subdominant_mass();
        let mass_with = spectrum(&with).subdominant_mass();
        assert!(
            mass_with <= mass_without + 1e-9,
            "perturbation should not increase the sub-dominant mass ({mass_with} vs {mass_without})"
        );
    }
}
