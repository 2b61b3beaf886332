//! Building the compiler's transition matrix from a strategy.

use marqsim_flow::SpanningBasis;
use marqsim_markov::combine::combine_refs;
use marqsim_markov::TransitionMatrix;
use marqsim_pauli::Hamiltonian;

use crate::gate_cancel::gate_cancellation_matrix_with_basis;
use crate::perturb::{random_perturbation_matrix, PerturbationConfig};
use crate::qdrift::qdrift_matrix;
use crate::{CompileError, TransitionStrategy};

/// Builds the transition matrix prescribed by `strategy` for `ham`.
///
/// The returned matrix always satisfies both Theorem 4.1 conditions for the
/// distribution `π = |h| / λ` of `ham` (this is re-verified before
/// returning). Hamiltonians with a dominant term (`π_i > 1/2`) must be split
/// with [`Hamiltonian::split_dominant_terms`] before calling this function;
/// the [`crate::Compiler`] handles that automatically.
///
/// # Errors
///
/// Returns a [`CompileError`] if any component matrix cannot be built, the
/// weights are invalid, or the final matrix fails a Theorem 4.1 check.
pub fn build_transition_matrix(
    ham: &Hamiltonian,
    strategy: &TransitionStrategy,
) -> Result<TransitionMatrix, CompileError> {
    let solve_rp = |config: &_, gc_basis: &_| random_perturbation_matrix(ham, config, gc_basis);
    build_transition_matrix_with_components(ham, strategy, None, solve_rp).map(|(matrix, _)| matrix)
}

/// Returns `true` if `strategy` needs the gate-cancellation component `P_gc`
/// (every variant except pure qDRIFT).
pub fn strategy_uses_gate_cancellation(strategy: &TransitionStrategy) -> bool {
    !matches!(strategy, TransitionStrategy::QDrift)
}

/// Like [`build_transition_matrix`], but reuses a previously solved `P_gc`
/// when one is supplied instead of re-solving the min-cost-flow model — the
/// dominant cost of transition-matrix construction. `P_gc` depends only on
/// the Hamiltonian (not on the strategy weights), so a caller compiling the
/// same Hamiltonian under several strategies — or at many sweep points — can
/// solve it once; the `marqsim-engine` transition cache is that caller.
///
/// `cached_gc` supplies the `P_gc` matrix *and* the basis its solve
/// exported, as produced by
/// [`gate_cancellation_matrix_with_basis`](crate::gate_cancel::gate_cancellation_matrix_with_basis)
/// for this exact `ham` (the engine's transition cache persists both).
/// When absent, `P_gc` is solved here. `solve_rp` builds `P_rp` from the
/// perturbation and the `P_gc` basis and counts its warm starts: the serial
/// [`random_perturbation_matrix`], or the engine's pool-task run of the
/// same pieces. The basis is a pure function of `ham`, so cached and
/// uncached builds produce identical matrices. The error type is the
/// caller's, so `solve_rp` can report its own failures.
///
/// Returns the matrix and `solve_rp`'s warm-start count.
///
/// # Errors
///
/// Same contract as [`build_transition_matrix`], plus `solve_rp`'s errors.
pub fn build_transition_matrix_with_components<E: From<CompileError>>(
    ham: &Hamiltonian,
    strategy: &TransitionStrategy,
    cached_gc: Option<(&TransitionMatrix, &SpanningBasis)>,
    solve_rp: impl FnOnce(&PerturbationConfig, &SpanningBasis) -> Result<(TransitionMatrix, u64), E>,
) -> Result<(TransitionMatrix, u64), E> {
    if !strategy.weights_are_valid() {
        return Err(CompileError::InvalidConfig {
            reason: format!("invalid combination weights in {strategy:?}"),
        }
        .into());
    }
    let p_qd = qdrift_matrix(ham);
    // P = qdrift·P_qd + gc·P_gc (+ rp·P_rp).
    let (qdrift, gc, rp) = match *strategy {
        TransitionStrategy::QDrift => return Ok((checked(ham, p_qd)?, 0)),
        TransitionStrategy::GateCancellation { qdrift_weight } => {
            (qdrift_weight, 1.0 - qdrift_weight, None)
        }
        TransitionStrategy::GateCancellationRandomPerturbation {
            qdrift_weight,
            gc_weight,
            ref perturbation,
        } => (
            qdrift_weight,
            gc_weight,
            Some((1.0 - qdrift_weight - gc_weight, perturbation)),
        ),
        TransitionStrategy::Combined {
            qdrift_weight,
            gc_weight,
            rp_weight,
            ref perturbation,
        } => (qdrift_weight, gc_weight, Some((rp_weight, perturbation))),
    };
    let solved;
    let (p_gc, gc_basis) = match cached_gc {
        Some(component) => component,
        None => {
            solved = gate_cancellation_matrix_with_basis(ham)?;
            (&solved.0, &solved.1)
        }
    };
    let (matrix, warm_starts) = match rp {
        None => (combine_refs(&[&p_qd, p_gc], &[qdrift, gc]), 0),
        Some((rp, perturbation)) => {
            let (p_rp, warm_starts) = solve_rp(perturbation, gc_basis)?;
            let mixed = combine_refs(&[&p_qd, p_gc, &p_rp], &[qdrift, gc, rp]);
            (mixed, warm_starts)
        }
    };
    let matrix = matrix.map_err(CompileError::Combine)?;
    Ok((checked(ham, matrix)?, warm_starts))
}

/// The Theorem 4.1 exit checks.
fn checked(ham: &Hamiltonian, matrix: TransitionMatrix) -> Result<TransitionMatrix, CompileError> {
    let pi = ham.stationary_distribution();
    if !matrix.preserves_distribution(&pi, 1e-7) {
        return Err(CompileError::TheoremViolation {
            condition: "stationary distribution preservation",
        });
    }
    if !matrix.is_strongly_connected() {
        return Err(CompileError::TheoremViolation {
            condition: "strong connectivity",
        });
    }
    Ok(matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marqsim_markov::spectra::spectrum;

    fn example() -> Hamiltonian {
        Hamiltonian::parse("1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.1 ZXZY").unwrap()
    }

    #[test]
    fn qdrift_strategy_reproduces_corollary_4_1() {
        let p = build_transition_matrix(&example(), &TransitionStrategy::QDrift).unwrap();
        assert!((p.prob(3, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn marqsim_gc_reproduces_example_5_2() {
        let p = build_transition_matrix(&example(), &TransitionStrategy::marqsim_gc()).unwrap();
        // Equation (15).
        let expected = [
            [0.2, 0.4, 0.32, 0.08],
            [0.8, 0.1, 0.08, 0.02],
            [0.8, 0.1, 0.08, 0.02],
            [0.8, 0.1, 0.08, 0.02],
        ];
        for i in 0..4 {
            for j in 0..4 {
                assert!((p.prob(i, j) - expected[i][j]).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn all_strategies_satisfy_theorem_4_1() {
        let ham = example();
        let pi = ham.stationary_distribution();
        let strategies = [
            TransitionStrategy::QDrift,
            TransitionStrategy::marqsim_gc(),
            TransitionStrategy::marqsim_gc_rp(),
            TransitionStrategy::Combined {
                qdrift_weight: 0.2,
                gc_weight: 0.4,
                rp_weight: 0.4,
                perturbation: PerturbationConfig::default(),
            },
        ];
        for s in strategies {
            let p = build_transition_matrix(&ham, &s).unwrap();
            assert!(p.is_strongly_connected(), "{s:?}");
            assert!(p.preserves_distribution(&pi, 1e-7), "{s:?}");
        }
    }

    #[test]
    fn cached_gc_component_gives_the_same_matrix() {
        let ham = example();
        let (p_gc, basis) = crate::gate_cancel::gate_cancellation_matrix_with_basis(&ham).unwrap();
        for strategy in [
            TransitionStrategy::marqsim_gc(),
            TransitionStrategy::marqsim_gc_rp(),
        ] {
            let fresh = build_transition_matrix(&ham, &strategy).unwrap();
            let solve_rp =
                |config: &_, gc_basis: &_| random_perturbation_matrix(&ham, config, gc_basis);
            let (reused, _) = build_transition_matrix_with_components(
                &ham,
                &strategy,
                Some((&p_gc, &basis)),
                solve_rp,
            )
            .unwrap();
            assert_eq!(fresh.rows(), reused.rows(), "{strategy:?}");
        }
        assert!(!strategy_uses_gate_cancellation(
            &TransitionStrategy::QDrift
        ));
        assert!(strategy_uses_gate_cancellation(
            &TransitionStrategy::marqsim_gc()
        ));
    }

    #[test]
    fn invalid_weights_are_rejected() {
        let err = build_transition_matrix(
            &example(),
            &TransitionStrategy::GateCancellation {
                qdrift_weight: -0.1,
            },
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::InvalidConfig { .. }));
    }

    #[test]
    fn higher_gc_weight_increases_subdominant_spectrum() {
        // §6.3: more P_gc means slower mixing (larger sub-dominant
        // eigenvalues) in exchange for more cancellation.
        let ham = Hamiltonian::parse("1.0 IIIZY + 1.0 XXIII + 0.7 ZXZYI + 0.5 IIZZX + 0.3 XXYYZ")
            .unwrap();
        let low = build_transition_matrix(
            &ham,
            &TransitionStrategy::GateCancellation { qdrift_weight: 0.8 },
        )
        .unwrap();
        let high = build_transition_matrix(
            &ham,
            &TransitionStrategy::GateCancellation { qdrift_weight: 0.2 },
        )
        .unwrap();
        assert!(
            spectrum(&high).subdominant_mass() > spectrum(&low).subdominant_mass(),
            "more Pgc should slow mixing"
        );
    }
}
