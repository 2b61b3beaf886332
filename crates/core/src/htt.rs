//! The Hamiltonian Term Transition Graph IR (§4.1).

use marqsim_markov::TransitionMatrix;
use marqsim_pauli::Hamiltonian;

use crate::{CompileError, TransitionStrategy};

/// The Hamiltonian Term Transition Graph: the MarQSim intermediate
/// representation pairing a Hamiltonian with a transition matrix over its
/// terms (Definition 4.1).
///
/// A constructed `HttGraph` always satisfies the two conditions of
/// Theorem 4.1 for the Hamiltonian's distribution `π = |h| / λ`:
/// construction re-validates them and fails otherwise.
///
/// # Example
///
/// ```
/// use marqsim_core::{HttGraph, TransitionStrategy};
/// use marqsim_pauli::Hamiltonian;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ham = Hamiltonian::parse("1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.1 ZXZY")?;
/// let htt = HttGraph::build(&ham, &TransitionStrategy::marqsim_gc())?;
/// assert_eq!(htt.num_states(), 4);
/// assert!(htt.transition_matrix().is_strongly_connected());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HttGraph {
    hamiltonian: Hamiltonian,
    // Arc so compilations can carry the matrix in their results without
    // copying the O(n²) rows per compile (sweeps share one graph across
    // thousands of points).
    transition: std::sync::Arc<TransitionMatrix>,
    stationary: Vec<f64>,
}

impl HttGraph {
    /// Builds the HTT graph for `ham` using the transition matrix prescribed
    /// by `strategy`. The Hamiltonian is split first if it has a dominant
    /// term (Appendix A.3).
    ///
    /// # Errors
    ///
    /// Propagates any failure of the transition-matrix construction.
    pub fn build(ham: &Hamiltonian, strategy: &TransitionStrategy) -> Result<Self, CompileError> {
        let ham = ham.split_if_dominant();
        let transition = crate::transition::build_transition_matrix(&ham, strategy)?;
        let stationary = ham.stationary_distribution();
        Ok(HttGraph {
            hamiltonian: ham,
            transition: std::sync::Arc::new(transition),
            stationary,
        })
    }

    /// Wraps an existing transition matrix, verifying the Theorem 4.1
    /// conditions.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::TheoremViolation`] if a condition fails, or
    /// [`CompileError::InvalidConfig`] on a size mismatch.
    pub fn from_matrix(ham: &Hamiltonian, matrix: TransitionMatrix) -> Result<Self, CompileError> {
        if matrix.num_states() != ham.num_terms() {
            return Err(CompileError::InvalidConfig {
                reason: format!(
                    "transition matrix has {} states but the hamiltonian has {} terms",
                    matrix.num_states(),
                    ham.num_terms()
                ),
            });
        }
        let stationary = ham.stationary_distribution();
        if !matrix.preserves_distribution(&stationary, 1e-7) {
            return Err(CompileError::TheoremViolation {
                condition: "stationary distribution preservation",
            });
        }
        if !matrix.is_strongly_connected() {
            return Err(CompileError::TheoremViolation {
                condition: "strong connectivity",
            });
        }
        Ok(HttGraph {
            hamiltonian: ham.clone(),
            transition: std::sync::Arc::new(matrix),
            stationary,
        })
    }

    /// The (possibly dominant-term-split) Hamiltonian this graph represents.
    pub fn hamiltonian(&self) -> &Hamiltonian {
        &self.hamiltonian
    }

    /// The transition matrix (edge weights of the graph).
    pub fn transition_matrix(&self) -> &TransitionMatrix {
        &self.transition
    }

    /// A shared handle to the transition matrix (no row copy).
    pub fn transition_matrix_arc(&self) -> std::sync::Arc<TransitionMatrix> {
        std::sync::Arc::clone(&self.transition)
    }

    /// The stationary distribution `π = |h| / λ`.
    pub fn stationary_distribution(&self) -> &[f64] {
        &self.stationary
    }

    /// Number of states (Hamiltonian terms).
    pub fn num_states(&self) -> usize {
        self.hamiltonian.num_terms()
    }

    /// Number of directed edges with non-zero probability.
    pub fn num_edges(&self) -> usize {
        let n = self.num_states();
        (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| self.transition.prob(i, j) > 0.0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marqsim_markov::TransitionMatrix;

    fn example() -> Hamiltonian {
        Hamiltonian::parse("1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.1 ZXZY").unwrap()
    }

    #[test]
    fn build_with_qdrift_gives_complete_graph() {
        let htt = HttGraph::build(&example(), &TransitionStrategy::QDrift).unwrap();
        assert_eq!(htt.num_states(), 4);
        assert_eq!(htt.num_edges(), 16);
    }

    #[test]
    fn gc_strategy_has_fewer_edges_than_qdrift_alone() {
        let ham = example();
        let gc_only = HttGraph::build(
            &ham,
            &TransitionStrategy::GateCancellation { qdrift_weight: 0.0 },
        );
        // With zero qDRIFT weight the P_gc graph is not strongly connected in
        // general, so building may fail — both outcomes are acceptable, but if
        // it succeeds it must still satisfy the theorem.
        if let Ok(htt) = gc_only {
            assert!(htt.transition_matrix().is_strongly_connected());
        }
        let blended = HttGraph::build(&ham, &TransitionStrategy::marqsim_gc()).unwrap();
        assert_eq!(blended.num_edges(), 16);
    }

    #[test]
    fn dominant_terms_are_split_automatically() {
        let ham = Hamiltonian::parse("3.0 XX + 0.5 ZZ + 0.5 XY").unwrap();
        let htt = HttGraph::build(&ham, &TransitionStrategy::marqsim_gc()).unwrap();
        assert_eq!(htt.num_states(), 4);
        assert!((htt.hamiltonian().lambda() - ham.lambda()).abs() < 1e-12);
    }

    #[test]
    fn from_matrix_rejects_non_preserving_matrices() {
        let ham = example();
        let uniform = TransitionMatrix::from_stationary(&[0.25; 4]);
        let err = HttGraph::from_matrix(&ham, uniform).unwrap_err();
        assert!(matches!(err, CompileError::TheoremViolation { .. }));
    }

    #[test]
    fn from_matrix_rejects_size_mismatch() {
        let ham = example();
        let small = TransitionMatrix::from_stationary(&[0.5, 0.5]);
        let err = HttGraph::from_matrix(&ham, small).unwrap_err();
        assert!(matches!(err, CompileError::InvalidConfig { .. }));
    }

    #[test]
    fn from_matrix_accepts_the_qdrift_matrix() {
        let ham = example();
        let p = crate::qdrift::qdrift_matrix(&ham);
        let htt = HttGraph::from_matrix(&ham, p).unwrap();
        assert_eq!(htt.stationary_distribution().len(), 4);
    }
}
