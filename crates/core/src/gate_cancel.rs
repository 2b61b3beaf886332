//! The gate-cancellation transition matrix `P_gc` (§5.1–5.2, Algorithm 2).
//!
//! The min-cost-flow model routes one unit of probability mass through a
//! bipartite network whose outer-edge capacities are the stationary
//! distribution `π = |h| / λ` and whose inner-edge costs are the number of
//! CNOT gates left between consecutive Pauli-rotation circuits. Normalizing
//! each row of the optimal flow by `π_i` yields a transition matrix that (by
//! Theorem 5.1) preserves `π`, and whose sampled sequences minimize the
//! expected CNOT count (Proposition 5.1).
//!
//! Self-edges are excluded to rule out the trivial identity solution; any
//! term carrying more than half of the total weight is split in two first
//! (Appendix A.3), mirroring `Hamiltonian::split_dominant_terms`.

use marqsim_flow::bipartite::{self, BipartiteFlow};
use marqsim_flow::SpanningBasis;
use marqsim_markov::TransitionMatrix;
use marqsim_pauli::algebra::cnot_count_between;
use marqsim_pauli::Hamiltonian;

use crate::CompileError;

/// The CNOT-count cost matrix used by the min-cost-flow model: entry
/// `(i, j)` is the number of CNOTs between the circuits of terms `i` and `j`
/// after pairwise cancellation.
pub fn cnot_cost_matrix(ham: &Hamiltonian) -> Vec<Vec<f64>> {
    let n = ham.num_terms();
    let mut costs = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                costs[i][j] = cnot_count_between(&ham.term(i).string, &ham.term(j).string) as f64;
            }
        }
    }
    costs
}

/// A solved flow model: the transition matrix, the optimal flow cost (by
/// Proposition 5.1 the expected CNOT count per transition), whether the
/// solve re-pivoted the offered basis, and the optimal basis.
#[derive(Debug, Clone)]
pub struct FlowMatrix {
    /// The transition matrix `p_ij = f_ij / π_i`.
    pub matrix: TransitionMatrix,
    /// The optimal flow cost.
    pub cost: f64,
    /// Whether the solve re-pivoted the offered basis.
    pub warm_start: bool,
    /// The optimal basis.
    pub basis: SpanningBasis,
}

/// Solves the min-cost-flow model for a Hamiltonian with an arbitrary cost
/// matrix, warm from `warm` when given. The returned basis can warm-start
/// a later solve for the same Hamiltonian under a different cost matrix —
/// the flow network's topology depends only on `π` and the excluded
/// diagonal, both fixed by the Hamiltonian, which is exactly the `P_rp`
/// perturbed-cost shape. A mismatched basis degrades to a cold solve
/// ([`FlowMatrix::warm_start`] reports what happened); errors are
/// classified identically either way.
///
/// # Errors
///
/// Returns [`CompileError::Flow`] if the costs are invalid or the
/// transportation problem is infeasible, or [`CompileError::Transition`] if
/// the extracted matrix fails validation.
pub fn matrix_from_costs(
    ham: &Hamiltonian,
    costs: &[Vec<f64>],
    warm: Option<&SpanningBasis>,
) -> Result<FlowMatrix, CompileError> {
    let pi = ham.stationary_distribution();
    let (flow, basis) = bipartite::solve(&pi, costs, warm)?;
    let BipartiteFlow {
        flows: mut rows,
        cost,
        warm_start,
        ..
    } = flow;
    // p_ij = f_ij / π_i (§5.1.2), in place on the flow rows, then each row
    // renormalized exactly against round-off.
    for (i, row) in rows.iter_mut().enumerate() {
        let denom = pi[i];
        for v in row.iter_mut() {
            *v = if denom > 0.0 { *v / denom } else { 0.0 };
        }
        let sum: f64 = row.iter().sum();
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        } else {
            row[i] = 1.0;
        }
    }
    Ok(FlowMatrix {
        matrix: TransitionMatrix::new(rows)?,
        cost,
        warm_start,
        basis,
    })
}

/// Builds `P_gc` for a Hamiltonian (Algorithm 2).
///
/// The Hamiltonian must not have a term with more than half the total weight;
/// call [`Hamiltonian::split_dominant_terms`] first if it does (the
/// [`crate::Compiler`] does this automatically).
///
/// # Errors
///
/// See [`matrix_from_costs`].
pub fn gate_cancellation_matrix(ham: &Hamiltonian) -> Result<TransitionMatrix, CompileError> {
    gate_cancellation_matrix_with_basis(ham).map(|(m, _)| m)
}

/// Like [`gate_cancellation_matrix`], additionally returning the solve's
/// optimal [`SpanningBasis`]. The engine's transition cache persists this
/// basis next to `P_gc` so the `P_rp` perturbation samples — same network
/// topology, perturbed costs — can be solved as warm re-pivots instead of
/// cold solves.
///
/// # Errors
///
/// See [`matrix_from_costs`].
pub fn gate_cancellation_matrix_with_basis(
    ham: &Hamiltonian,
) -> Result<(TransitionMatrix, SpanningBasis), CompileError> {
    let costs = cnot_cost_matrix(ham);
    matrix_from_costs(ham, &costs, None).map(|solved| (solved.matrix, solved.basis))
}

/// Builds `P_gc` and also returns the optimal objective value — by
/// Proposition 5.1 this is the expected CNOT count per transition under
/// `(π, P_gc)`.
///
/// # Errors
///
/// See [`matrix_from_costs`].
pub fn gate_cancellation_matrix_with_cost(
    ham: &Hamiltonian,
) -> Result<(TransitionMatrix, f64), CompileError> {
    let costs = cnot_cost_matrix(ham);
    matrix_from_costs(ham, &costs, None).map(|solved| (solved.matrix, solved.cost))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Hamiltonian {
        Hamiltonian::parse("1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.1 ZXZY").unwrap()
    }

    #[test]
    fn paper_example_5_1_transition_matrix() {
        // Equation (14): the dominant term spreads over the rest proportional
        // to π, every other term returns to the dominant term.
        let p = gate_cancellation_matrix(&example()).unwrap();
        let expected = [
            [0.0, 0.5, 0.4, 0.1],
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ];
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (p.prob(i, j) - expected[i][j]).abs() < 1e-9,
                    "({i},{j}): {} vs {}",
                    p.prob(i, j),
                    expected[i][j]
                );
            }
        }
    }

    #[test]
    fn preserves_the_stationary_distribution() {
        let ham = example();
        let p = gate_cancellation_matrix(&ham).unwrap();
        assert!(p.preserves_distribution(&ham.stationary_distribution(), 1e-9));
    }

    #[test]
    fn diagonal_is_zero() {
        let ham = example();
        let p = gate_cancellation_matrix(&ham).unwrap();
        for i in 0..ham.num_terms() {
            assert!(p.prob(i, i).abs() < 1e-12);
        }
    }

    #[test]
    fn objective_equals_expected_cnot_count() {
        // Proposition 5.1: the MCFP objective equals E[CNOT] under (π, P_gc).
        let ham = example();
        let (p, cost) = gate_cancellation_matrix_with_cost(&ham).unwrap();
        let pi = ham.stationary_distribution();
        let costs = cnot_cost_matrix(&ham);
        let mut expectation = 0.0;
        for i in 0..ham.num_terms() {
            for j in 0..ham.num_terms() {
                expectation += pi[i] * p.prob(i, j) * costs[i][j];
            }
        }
        assert!((expectation - cost).abs() < 1e-9, "{expectation} vs {cost}");
    }

    #[test]
    fn gc_matrix_expected_cost_beats_qdrift_expected_cost() {
        // The whole point of P_gc: its expected transition cost is at most
        // qDRIFT's.
        let ham = Hamiltonian::parse(
            "0.9 ZZII + 0.8 ZIZI + 0.7 XXII + 0.6 IYYI + 0.5 IIZZ + 0.4 XYXY + 0.3 IZIZ + 0.2 YYII",
        )
        .unwrap();
        let costs = cnot_cost_matrix(&ham);
        let pi = ham.stationary_distribution();
        let (p_gc, gc_cost) = gate_cancellation_matrix_with_cost(&ham).unwrap();
        assert!(p_gc.preserves_distribution(&pi, 1e-9));
        let mut qd_cost = 0.0;
        for i in 0..ham.num_terms() {
            for j in 0..ham.num_terms() {
                qd_cost += pi[i] * pi[j] * costs[i][j];
            }
        }
        assert!(
            gc_cost <= qd_cost + 1e-9,
            "gc expected cost {gc_cost} should not exceed qdrift expected cost {qd_cost}"
        );
    }

    #[test]
    fn dominant_term_requires_splitting() {
        // π_0 > 0.5 makes the flow infeasible unless the term is split.
        let ham = Hamiltonian::parse("3.0 XX + 0.5 ZZ + 0.5 XY").unwrap();
        assert!(gate_cancellation_matrix(&ham).is_err());
        let split = ham.split_dominant_terms();
        let p = gate_cancellation_matrix(&split).unwrap();
        assert!(p.preserves_distribution(&split.stationary_distribution(), 1e-9));
    }

    #[test]
    fn cost_matrix_is_symmetric_with_zero_diagonal() {
        let ham = example();
        let costs = cnot_cost_matrix(&ham);
        for i in 0..4 {
            assert_eq!(costs[i][i], 0.0);
            for j in 0..4 {
                assert_eq!(costs[i][j], costs[j][i]);
            }
        }
    }
}
