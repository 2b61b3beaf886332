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

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use marqsim_markov::combine::combine;
use marqsim_markov::TransitionMatrix;
use marqsim_pauli::Hamiltonian;

use marqsim_flow::SpanningBasis;

use crate::gate_cancel::{cnot_cost_matrix, matrix_from_costs_warm, matrix_from_costs_with_basis};
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

/// Perturbs every off-diagonal cost in place: each entry gains
/// `config.magnitude` independently with probability `config.probability`,
/// drawing from `rng` in row-major order.
fn perturb_costs(costs: &mut [Vec<f64>], rng: &mut StdRng, config: &PerturbationConfig) {
    for (i, row) in costs.iter_mut().enumerate() {
        for (j, value) in row.iter_mut().enumerate() {
            if i != j && rng.gen::<f64>() < config.probability {
                *value += config.magnitude;
            }
        }
    }
}

/// Builds `P_rp`: the average of transition matrices obtained from randomly
/// perturbed min-cost-flow problems. The first sample solves cold and the
/// rest re-pivot from its basis (see [`random_perturbation_matrix_warm`]).
///
/// One RNG stream threads through all samples (sample `i`'s perturbation
/// depends on the draws of samples `0..i`), so this construction is
/// inherently serial. The parallel path — used by the engine's
/// `PerturbAverageWorkload` — seeds each sample independently via
/// [`perturbation_sample_seed`] / [`perturbed_matrix_sample_with_basis`]
/// instead; the two constructions are both deterministic but produce
/// *different* (equally valid) matrices.
///
/// # Errors
///
/// Propagates failures of the underlying flow solves or of the final
/// averaging step.
pub fn random_perturbation_matrix(
    ham: &Hamiltonian,
    config: &PerturbationConfig,
) -> Result<TransitionMatrix, CompileError> {
    random_perturbation_matrix_warm(ham, config, None).map(|(matrix, _)| matrix)
}

/// Like [`random_perturbation_matrix`], solving the perturbed problems as
/// warm re-pivots from a [`SpanningBasis`]. The perturbation only changes
/// edge costs — the network topology is fixed by the Hamiltonian — so
/// every sample can reuse one basis:
///
/// * with `gc_basis = Some(..)` (the engine path: the basis saved by the
///   `P_gc` solve) every sample warm-starts from it;
/// * with `gc_basis = None` the first sample solves cold and exports its
///   basis, and the remaining `samples - 1` warm-start from that.
///
/// Also returns how many solves actually re-pivoted a basis. Determinism
/// is preserved: the result is a pure function of `(ham, config,
/// gc_basis)`, and `gc_basis` itself is a pure function of `ham` when
/// derived from the `P_gc` solve — so cached and cache-disabled runs build
/// identical matrices.
///
/// # Errors
///
/// Same contract as [`random_perturbation_matrix`].
pub fn random_perturbation_matrix_warm(
    ham: &Hamiltonian,
    config: &PerturbationConfig,
    gc_basis: Option<&SpanningBasis>,
) -> Result<(TransitionMatrix, u64), CompileError> {
    assert!(config.samples > 0, "need at least one perturbation sample");
    let base_costs = cnot_cost_matrix(ham);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut matrices = Vec::with_capacity(config.samples);
    let mut warm_starts = 0u64;
    let mut first_basis: Option<SpanningBasis> = None;
    for _ in 0..config.samples {
        let mut costs = base_costs.clone();
        perturb_costs(&mut costs, &mut rng, config);
        let matrix = match gc_basis.or(first_basis.as_ref()) {
            Some(basis) => {
                let (matrix, flow) = matrix_from_costs_warm(ham, &costs, basis)?;
                if flow.warm_start {
                    warm_starts += 1;
                }
                matrix
            }
            None => {
                let (matrix, _, exported) = matrix_from_costs_with_basis(ham, &costs)?;
                first_basis = Some(exported);
                matrix
            }
        };
        matrices.push(matrix);
    }
    let weights = vec![1.0 / config.samples as f64; config.samples];
    let averaged = combine(&matrices, &weights).map_err(CompileError::Combine)?;
    Ok((averaged, warm_starts))
}

/// The RNG seed of the `index`-th sample in the *parallel* `P_rp`
/// construction: a SplitMix64-style spread of `config.seed`, so each sample
/// owns an independent stream and any scheduler that solves sample `index`
/// with this seed produces the identical matrix.
pub fn perturbation_sample_seed(config: &PerturbationConfig, index: usize) -> u64 {
    config
        .seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1))
}

/// The perturbed cost matrix of the `index`-th parallel sample.
fn sample_costs(ham: &Hamiltonian, config: &PerturbationConfig, index: usize) -> Vec<Vec<f64>> {
    let mut costs = cnot_cost_matrix(ham);
    let mut rng = StdRng::seed_from_u64(perturbation_sample_seed(config, index));
    perturb_costs(&mut costs, &mut rng, config);
    costs
}

/// Solves one independently seeded perturbed min-cost-flow problem cold —
/// a unit of work of the parallel `P_rp` average — and exports the
/// solve's optimal [`SpanningBasis`]. The output depends only on
/// `(ham, config, index)`, never on scheduling order. The basis lets the
/// caller warm-start the *other* samples of the same average: the
/// engine's parallel `P_rp` workload solves sample `0` through this and
/// re-pivots samples `1..` from the returned basis
/// ([`perturbed_matrix_sample_warm`]).
///
/// # Errors
///
/// Propagates the flow-solve failure.
pub fn perturbed_matrix_sample_with_basis(
    ham: &Hamiltonian,
    config: &PerturbationConfig,
    index: usize,
) -> Result<(TransitionMatrix, SpanningBasis), CompileError> {
    let (matrix, _, basis) = matrix_from_costs_with_basis(ham, &sample_costs(ham, config, index))?;
    Ok((matrix, basis))
}

/// Like [`perturbed_matrix_sample_with_basis`], warm-starting the flow
/// solve from a [`SpanningBasis`] saved by an earlier solve for the same
/// Hamiltonian (the perturbation only changes costs, never the topology, so
/// any basis for `ham` matches). Returns the sample matrix and whether the
/// basis was actually re-pivoted (`false` on the cold fallback for a
/// mismatched basis).
///
/// The matrix depends only on `(ham, config, index, basis)` — warm
/// sampling stays exactly as deterministic as cold sampling as long as the
/// caller derives `basis` deterministically (the engine takes it from the
/// cold solve of sample `0`).
///
/// # Errors
///
/// Propagates the flow-solve failure — warm and cold solves classify
/// errors identically.
pub fn perturbed_matrix_sample_warm(
    ham: &Hamiltonian,
    config: &PerturbationConfig,
    index: usize,
    basis: &SpanningBasis,
) -> Result<(TransitionMatrix, bool), CompileError> {
    let (matrix, flow) = matrix_from_costs_warm(ham, &sample_costs(ham, config, index), basis)?;
    Ok((matrix, flow.warm_start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate_cancel::gate_cancellation_matrix;
    use crate::qdrift::qdrift_matrix;
    use marqsim_markov::combine::combine;
    use marqsim_markov::spectra::spectrum;

    fn example() -> Hamiltonian {
        // Example 5.3 of the paper.
        Hamiltonian::parse("1.0 IIIZY + 1.0 XXIII + 0.7 ZXZYI + 0.5 IIZZX + 0.3 XXYYZ").unwrap()
    }

    #[test]
    fn preserves_the_stationary_distribution() {
        let ham = example();
        let p_rp = random_perturbation_matrix(&ham, &PerturbationConfig::default()).unwrap();
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
        let a = random_perturbation_matrix(&ham, &config).unwrap();
        let b = random_perturbation_matrix(&ham, &config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn differs_from_the_unperturbed_gate_cancellation_matrix() {
        let ham = example();
        let p_gc = gate_cancellation_matrix(&ham).unwrap();
        let p_rp = random_perturbation_matrix(
            &ham,
            &PerturbationConfig {
                samples: 10,
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
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
        // Distinct samples get distinct seeds; the same sample twice is
        // bit-identical (the property the engine's parallel average rests
        // on), and averaging preserves the stationary distribution exactly
        // like the serial construction.
        assert_ne!(
            perturbation_sample_seed(&config, 0),
            perturbation_sample_seed(&config, 1)
        );
        let sample = |i| {
            perturbed_matrix_sample_with_basis(&ham, &config, i)
                .unwrap()
                .0
        };
        assert_eq!(sample(2), sample(2));
        let matrices: Vec<_> = (0..config.samples).map(sample).collect();
        let weights = vec![1.0 / config.samples as f64; config.samples];
        let averaged = combine(&matrices, &weights).unwrap();
        assert!(averaged.preserves_distribution(&ham.stationary_distribution(), 1e-8));
    }

    #[test]
    fn perturbed_combination_has_smaller_subdominant_mass() {
        // The §6.4 observation: replacing part of the P_gc weight with P_rp
        // lowers the sub-dominant spectrum (faster convergence).
        let ham = example();
        let pi = ham.stationary_distribution();
        let p_qd = qdrift_matrix(&ham);
        let p_gc = gate_cancellation_matrix(&ham).unwrap();
        let p_rp = random_perturbation_matrix(
            &ham,
            &PerturbationConfig {
                samples: 30,
                seed: 1,
                ..Default::default()
            },
        )
        .unwrap();
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
