//! Building the compiler's transition matrix from a strategy.

use marqsim_flow::SpanningBasis;
use marqsim_markov::combine::combine_refs;
use marqsim_markov::TransitionMatrix;
use marqsim_pauli::Hamiltonian;

use crate::gate_cancel::gate_cancellation_matrix_with_basis;
use crate::perturb::random_perturbation_matrix_warm;
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
    build_transition_matrix_with_components(ham, strategy, None).map(|(matrix, _)| matrix)
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
/// When absent, `P_gc` is solved here. Either way every `P_rp`
/// perturbation sample is solved as a **warm re-pivot** from the `P_gc`
/// basis instead of a cold solve — the perturbation changes only edge
/// costs, so the basis always matches the samples' networks. The basis is
/// a pure function of `ham`, so cached and uncached builds produce
/// identical matrices. The Theorem 4.1 validation of the final matrix is
/// performed either way.
///
/// Returns the matrix and the number of flow solves that actually
/// re-pivoted a saved basis.
///
/// # Errors
///
/// Same contract as [`build_transition_matrix`].
pub fn build_transition_matrix_with_components(
    ham: &Hamiltonian,
    strategy: &TransitionStrategy,
    cached_gc: Option<(&TransitionMatrix, &SpanningBasis)>,
) -> Result<(TransitionMatrix, u64), CompileError> {
    if !strategy.weights_are_valid() {
        return Err(CompileError::InvalidConfig {
            reason: format!("invalid combination weights in {strategy:?}"),
        });
    }
    let mut solved: Option<(TransitionMatrix, SpanningBasis)> = None;
    let (p_gc, gc_basis): (Option<&TransitionMatrix>, Option<&SpanningBasis>) =
        if strategy_uses_gate_cancellation(strategy) {
            match cached_gc {
                Some((matrix, basis)) => (Some(matrix), Some(basis)),
                None => {
                    let pair = solved.insert(gate_cancellation_matrix_with_basis(ham)?);
                    (Some(&pair.0), Some(&pair.1))
                }
            }
        } else {
            (None, None)
        };
    let p_qd = qdrift_matrix(ham);
    let mut warm_starts = 0u64;
    let matrix = match strategy {
        TransitionStrategy::QDrift => p_qd,
        TransitionStrategy::GateCancellation { qdrift_weight } => {
            let p_gc = p_gc.expect("GC strategies carry a P_gc component");
            combine_refs(&[&p_qd, p_gc], &[*qdrift_weight, 1.0 - *qdrift_weight])?
        }
        TransitionStrategy::GateCancellationRandomPerturbation {
            qdrift_weight,
            gc_weight,
            perturbation,
        } => {
            let p_gc = p_gc.expect("GC strategies carry a P_gc component");
            let (p_rp, warm) = random_perturbation_matrix_warm(ham, perturbation, gc_basis)?;
            warm_starts += warm;
            let rp_weight = 1.0 - qdrift_weight - gc_weight;
            combine_refs(
                &[&p_qd, p_gc, &p_rp],
                &[*qdrift_weight, *gc_weight, rp_weight],
            )?
        }
        TransitionStrategy::Combined {
            qdrift_weight,
            gc_weight,
            rp_weight,
            perturbation,
        } => {
            let p_gc = p_gc.expect("GC strategies carry a P_gc component");
            let (p_rp, warm) = random_perturbation_matrix_warm(ham, perturbation, gc_basis)?;
            warm_starts += warm;
            combine_refs(
                &[&p_qd, p_gc, &p_rp],
                &[*qdrift_weight, *gc_weight, *rp_weight],
            )?
        }
    };

    // The Theorem 4.1 exit checks.
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
    Ok((matrix, warm_starts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perturb::PerturbationConfig;
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
            let (reused, _) =
                build_transition_matrix_with_components(&ham, &strategy, Some((&p_gc, &basis)))
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
