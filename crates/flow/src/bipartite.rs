//! The MarQSim-shaped bipartite transportation network (§5.1).
//!
//! Given a marginal distribution `π` over `n` states and an `n × n` cost
//! matrix, this module builds the flow network
//!
//! ```text
//! S → Prev_i   (capacity π_i, cost 0)
//! Prev_i → Next_j  (capacity ∞, cost w_ij)   for allowed (i, j)
//! Next_j → T   (capacity π_j, cost 0)
//! ```
//!
//! routes one unit of flow, and reports the optimal flow `f_ij` between the
//! two layers. Dividing row `i` of the flow by `π_i` yields the transition
//! matrix (§5.1.2); that conversion lives in `marqsim-core`.

use crate::{FlowError, FlowNetwork, FlowResult, SpanningBasis};

/// Result of solving the bipartite transportation problem.
#[derive(Debug, Clone)]
pub struct BipartiteFlow {
    /// Optimal flow `f_ij` from `Prev_i` to `Next_j`.
    pub flows: Vec<Vec<f64>>,
    /// Total cost `Σ f_ij · w_ij` — by Proposition 5.1 this equals the
    /// expected CNOT count per transition when the flow is turned into a
    /// transition matrix.
    pub cost: f64,
    /// Whether the solve re-pivoted from a caller-supplied
    /// [`SpanningBasis`] instead of building its basis from scratch.
    pub warm_start: bool,
}

/// Errors produced by [`solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum BipartiteError {
    /// The marginal distribution is empty, has negative entries, or does not
    /// sum to one.
    InvalidMarginal {
        /// The sum of the provided marginal.
        sum: f64,
    },
    /// The cost matrix is not `n × n`.
    CostShapeMismatch {
        /// Number of states implied by the marginal.
        expected: usize,
    },
    /// The underlying min-cost-flow problem is infeasible (for example, every
    /// inner edge of some row excluded).
    Infeasible(FlowError),
}

impl std::fmt::Display for BipartiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BipartiteError::InvalidMarginal { sum } => {
                write!(
                    f,
                    "marginal distribution must be a probability vector (sum = {sum})"
                )
            }
            BipartiteError::CostShapeMismatch { expected } => {
                write!(f, "cost matrix must be {expected} x {expected}")
            }
            BipartiteError::Infeasible(e) => write!(f, "transportation problem infeasible: {e}"),
        }
    }
}

impl std::error::Error for BipartiteError {}

/// A very large capacity standing in for the paper's `∞` on inner edges.
const INF_CAPACITY: f64 = 1e18;

/// Solves the bipartite transportation problem.
///
/// `allow(i, j)` controls which inner edges exist; MarQSim's gate-cancellation
/// model excludes the diagonal (`i == j`) to rule out the trivial identity
/// transition matrix.
///
/// # Errors
///
/// Returns a [`BipartiteError`] if the inputs are malformed or the problem is
/// infeasible (e.g. a single state with its self-edge excluded).
pub fn solve<F>(
    marginal: &[f64],
    costs: &[Vec<f64>],
    allow: F,
) -> Result<BipartiteFlow, BipartiteError>
where
    F: FnMut(usize, usize) -> bool,
{
    solve_with_basis(marginal, costs, allow).map(|(flow, _)| flow)
}

/// Like [`solve`], additionally returning the optimal [`SpanningBasis`].
/// The basis can warm-start a later [`solve_warm`] over the *same*
/// marginal and `allow` relation — the network topology, and hence the
/// basis fingerprint, depends only on those two inputs, so solves that
/// differ only in their cost matrix (the `P_rp` perturbation-sampling
/// shape) reuse each other's bases.
///
/// # Errors
///
/// Same contract as [`solve`].
pub fn solve_with_basis<F>(
    marginal: &[f64],
    costs: &[Vec<f64>],
    allow: F,
) -> Result<(BipartiteFlow, SpanningBasis), BipartiteError>
where
    F: FnMut(usize, usize) -> bool,
{
    Transport::build(marginal, costs, allow)?.solve(None)
}

/// Warm-start re-solve of the transportation problem from a basis saved
/// by an earlier [`solve_with_basis`] / [`solve_warm`] call. A basis whose
/// fingerprint does not match this network (different marginal or `allow`
/// relation) silently degrades to a cold solve — check
/// [`BipartiteFlow::warm_start`] for what actually happened.
///
/// # Errors
///
/// Same classification as [`solve`] — warm and cold solves report
/// identical errors.
pub fn solve_warm<F>(
    marginal: &[f64],
    costs: &[Vec<f64>],
    allow: F,
    basis: &SpanningBasis,
) -> Result<(BipartiteFlow, SpanningBasis), BipartiteError>
where
    F: FnMut(usize, usize) -> bool,
{
    Transport::build(marginal, costs, allow)?.solve(Some(basis))
}

/// The validated flow network of one transportation instance.
struct Transport {
    net: FlowNetwork,
    source: usize,
    sink: usize,
    /// Edge id of inner edge `(i, j)`, `usize::MAX` where `allow` excluded it.
    inner_ids: Vec<Vec<usize>>,
}

impl Transport {
    fn build<F>(marginal: &[f64], costs: &[Vec<f64>], mut allow: F) -> Result<Self, BipartiteError>
    where
        F: FnMut(usize, usize) -> bool,
    {
        let n = marginal.len();
        let sum: f64 = marginal.iter().sum();
        if n == 0 || marginal.iter().any(|&p| p < 0.0) || (sum - 1.0).abs() > 1e-9 {
            return Err(BipartiteError::InvalidMarginal { sum });
        }
        if costs.len() != n || costs.iter().any(|row| row.len() != n) {
            return Err(BipartiteError::CostShapeMismatch { expected: n });
        }

        // Node layout: 0 = S, 1..=n = Prev, n+1..=2n = Next, 2n+1 = T.
        let source = 0usize;
        let sink = 2 * n + 1;
        let prev = |i: usize| 1 + i;
        let next = |j: usize| 1 + n + j;

        let mut net = FlowNetwork::new(2 * n + 2);
        for (i, &pi) in marginal.iter().enumerate() {
            net.add_edge(source, prev(i), pi, 0.0);
            net.add_edge(next(i), sink, pi, 0.0);
        }
        let mut inner_ids = vec![vec![usize::MAX; n]; n];
        for i in 0..n {
            for j in 0..n {
                if allow(i, j) {
                    inner_ids[i][j] = net.add_edge(prev(i), next(j), INF_CAPACITY, costs[i][j]);
                }
            }
        }
        Ok(Transport {
            net,
            source,
            sink,
            inner_ids,
        })
    }

    /// Routes the unit of flow, warm from `basis` when one is given.
    fn solve(
        &self,
        basis: Option<&SpanningBasis>,
    ) -> Result<(BipartiteFlow, SpanningBasis), BipartiteError> {
        let (result, basis) = match basis {
            Some(basis) => self
                .net
                .min_cost_flow_warm(self.source, self.sink, 1.0, basis),
            None => self
                .net
                .min_cost_flow_with_basis(self.source, self.sink, 1.0),
        }
        .map_err(BipartiteError::Infeasible)?;
        Ok((self.flow(&result), basis))
    }

    /// Reads the inner-edge flows `f_ij` out of a solve of this network.
    fn flow(&self, result: &FlowResult) -> BipartiteFlow {
        let flows = self
            .inner_ids
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&id| match id {
                        usize::MAX => 0.0,
                        id => result.edge_flows[id].max(0.0),
                    })
                    .collect()
            })
            .collect();
        BipartiteFlow {
            flows,
            cost: result.cost,
            warm_start: result.warm_start,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Solver =
        fn(&[f64], &[Vec<f64>], fn(usize, usize) -> bool) -> Result<BipartiteFlow, BipartiteError>;

    /// The transportation problem solved by the successive-shortest-path
    /// oracle instead of the simplex.
    fn solve_by_oracle(
        marginal: &[f64],
        costs: &[Vec<f64>],
        allow: fn(usize, usize) -> bool,
    ) -> Result<BipartiteFlow, BipartiteError> {
        let transport = Transport::build(marginal, costs, allow)?;
        let result = crate::ssp::solve(&transport.net, transport.source, transport.sink, 1.0)
            .map_err(BipartiteError::Infeasible)?;
        Ok(transport.flow(&result))
    }

    /// The production solve and the oracle.
    fn backends() -> [(&'static str, Solver); 2] {
        [
            ("network_simplex", |m, c, a| solve(m, c, a)),
            ("ssp oracle", solve_by_oracle),
        ]
    }

    fn off_diagonal(i: usize, j: usize) -> bool {
        i != j
    }

    /// The Example 4.1 / Example 5.1 setup from the paper: π from the
    /// Hamiltonian `1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.1 ZXZY`, with the CNOT
    /// costs between the Pauli strings as the cost matrix and the diagonal
    /// excluded.
    fn example_5_1() -> (Vec<f64>, Vec<Vec<f64>>) {
        let pi = vec![0.5, 0.25, 0.2, 0.05];
        // A CNOT-cost-style matrix for the strings IIIZ, IIZZ, XXYY, ZXZY.
        let costs = vec![
            vec![0.0, 1.0, 3.0, 3.0],
            vec![1.0, 0.0, 4.0, 3.0],
            vec![3.0, 4.0, 0.0, 4.0],
            vec![3.0, 3.0, 4.0, 0.0],
        ];
        (pi, costs)
    }

    #[test]
    fn marginals_are_matched_on_both_sides() {
        let _solving = crate::solving();
        let (pi, costs) = example_5_1();
        let sol = solve(&pi, &costs, |i, j| i != j).unwrap();
        for i in 0..4 {
            let row_sum: f64 = sol.flows[i].iter().sum();
            let col_sum: f64 = (0..4).map(|k| sol.flows[k][i]).sum();
            assert!(
                (row_sum - pi[i]).abs() < 1e-9,
                "row {i}: {row_sum} vs {}",
                pi[i]
            );
            assert!(
                (col_sum - pi[i]).abs() < 1e-9,
                "col {i}: {col_sum} vs {}",
                pi[i]
            );
        }
    }

    #[test]
    fn diagonal_exclusion_is_respected() {
        let _solving = crate::solving();
        let (pi, costs) = example_5_1();
        let sol = solve(&pi, &costs, |i, j| i != j).unwrap();
        for i in 0..4 {
            assert!(sol.flows[i][i].abs() < 1e-12);
        }
    }

    #[test]
    fn paper_example_5_1_flow_structure() {
        let _solving = crate::solving();
        // Equation (13): the dominant term exchanges flow with the three
        // small terms; small terms route all their mass to the dominant term.
        let (pi, costs) = example_5_1();
        let sol = solve(&pi, &costs, |i, j| i != j).unwrap();
        for j in 1..4 {
            assert!(
                (sol.flows[j][0] - pi[j]).abs() < 1e-9,
                "term {j} should send all its mass to term 0, got {}",
                sol.flows[j][0]
            );
            assert!((sol.flows[0][j] - pi[j]).abs() < 1e-9);
        }
        // Expected optimal cost: every transition crosses the cheap edges
        // (cost 1, 3, 3) twice: 2*(0.25*1 + 0.2*3 + 0.05*3) = 2*1.0.
        assert!((sol.cost - 2.0 * (0.25 + 0.6 + 0.15)).abs() < 1e-9);
    }

    #[test]
    fn allowing_the_diagonal_yields_the_trivial_zero_cost_solution() {
        let _solving = crate::solving();
        let (pi, costs) = example_5_1();
        let sol = solve(&pi, &costs, |_, _| true).unwrap();
        assert!(sol.cost.abs() < 1e-9);
        for i in 0..4 {
            assert!((sol.flows[i][i] - pi[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn invalid_marginal_rejected() {
        let _solving = crate::solving();
        let costs = vec![vec![0.0; 2]; 2];
        assert!(matches!(
            solve(&[0.5, 0.6], &costs, |_, _| true).unwrap_err(),
            BipartiteError::InvalidMarginal { .. }
        ));
        assert!(matches!(
            solve(&[], &[], |_, _| true).unwrap_err(),
            BipartiteError::InvalidMarginal { .. }
        ));
    }

    #[test]
    fn cost_shape_mismatch_rejected() {
        let _solving = crate::solving();
        let costs = vec![vec![0.0; 3]; 2];
        assert!(matches!(
            solve(&[0.5, 0.5], &costs, |_, _| true).unwrap_err(),
            BipartiteError::CostShapeMismatch { .. }
        ));
    }

    #[test]
    fn single_state_without_self_edge_is_infeasible() {
        let _solving = crate::solving();
        let costs = vec![vec![0.0]];
        assert!(matches!(
            solve(&[1.0], &costs, |i, j| i != j).unwrap_err(),
            BipartiteError::Infeasible(_)
        ));
    }

    #[test]
    fn error_classification_is_backend_agnostic() {
        let _solving = crate::solving();
        // Malformed inputs and infeasible networks map to the same
        // BipartiteError variant under the simplex and the oracle.
        for (kind, solve) in backends() {
            let costs = vec![vec![0.0; 2]; 2];
            assert!(
                matches!(
                    solve(&[0.5, 0.6], &costs, |_, _| true).unwrap_err(),
                    BipartiteError::InvalidMarginal { .. }
                ),
                "{kind}"
            );
            let ragged = vec![vec![0.0; 3]; 2];
            assert!(
                matches!(
                    solve(&[0.5, 0.5], &ragged, |_, _| true).unwrap_err(),
                    BipartiteError::CostShapeMismatch { .. }
                ),
                "{kind}"
            );
            let single = vec![vec![0.0]];
            assert!(
                matches!(
                    solve(&[1.0], &single, off_diagonal).unwrap_err(),
                    BipartiteError::Infeasible(_)
                ),
                "{kind}"
            );
        }
    }

    #[test]
    fn both_backends_find_the_paper_example_optimum() {
        let _solving = crate::solving();
        let (pi, costs) = example_5_1();
        let oracle = solve_by_oracle(&pi, &costs, off_diagonal).unwrap();
        let simplex = solve(&pi, &costs, off_diagonal).unwrap();
        assert!(
            (oracle.cost - simplex.cost).abs() < 1e-9,
            "ssp {} vs simplex {}",
            oracle.cost,
            simplex.cost
        );
        // Marginals are matched by both solutions.
        for sol in [&oracle, &simplex] {
            for i in 0..pi.len() {
                let row: f64 = sol.flows[i].iter().sum();
                assert!((row - pi[i]).abs() < 1e-9, "row {i}");
            }
        }
    }

    /// A random transportation instance with skewed marginals: `n ≥ 3` raw
    /// weights `0.05 + U[0, 1)`, normalized and redrawn until every `π_i`
    /// is below one half — Hall's condition for the diagonal-excluded
    /// problem — so instances reach right up to the feasibility bound
    /// (e.g. 0.49/0.49/0.02). Costs are integers in `0..10`.
    fn skewed_instance(g: &mut quickprop::Gen) -> (Vec<f64>, Vec<Vec<f64>>) {
        let n = g.usize_in(3..8);
        let pi = loop {
            let raw: Vec<f64> = (0..n).map(|_| 0.05 + g.unit_f64()).collect();
            let total: f64 = raw.iter().sum();
            let normalized: Vec<f64> = raw.into_iter().map(|x| x / total).collect();
            if normalized.iter().all(|&p| p < 0.5) {
                break normalized;
            }
        };
        let costs = (0..n)
            .map(|_| (0..n).map(|_| g.usize_in(0..10) as f64).collect())
            .collect();
        (pi, costs)
    }

    fn check_marginals(kind: &str, sol: &BipartiteFlow, pi: &[f64]) -> Result<(), String> {
        let n = pi.len();
        for i in 0..n {
            let row: f64 = sol.flows[i].iter().sum();
            let col: f64 = (0..n).map(|k| sol.flows[k][i]).sum();
            if (row - pi[i]).abs() > 1e-7 || (col - pi[i]).abs() > 1e-7 {
                return Err(format!(
                    "{kind}: marginal {i}: row {row} col {col} vs pi {}",
                    pi[i]
                ));
            }
        }
        Ok(())
    }

    #[test]
    fn every_backend_solves_the_transportation_problem_to_the_same_optimum() {
        let _solving = crate::solving();
        // The cross-check guarantee: on random bipartite instances the
        // simplex and the oracle report the same optimal cost (to 1e-9) and
        // flows that conserve the marginals. Optimal *flows* may differ
        // when the optimum is degenerate; the objective may not.
        quickprop::check(
            "cross-backend cost equality + marginal conservation",
            quickprop::Config::default().with_seed(0xB4),
            skewed_instance,
            |(pi, costs)| {
                let mut optima = Vec::new();
                for (kind, solve) in backends() {
                    let sol = solve(pi, costs, off_diagonal).map_err(|e| format!("{kind}: {e}"))?;
                    check_marginals(kind, &sol, pi)?;
                    optima.push((kind, sol.cost));
                }
                let (simplex, oracle) = (optima[0], optima[1]);
                if (simplex.1 - oracle.1).abs() > 1e-9 {
                    return Err(format!(
                        "{} found {} but {} found {}",
                        simplex.0, simplex.1, oracle.0, oracle.1
                    ));
                }
                Ok(())
            },
        );
    }

    #[test]
    fn uniform_marginal_with_uniform_costs_is_feasible() {
        let _solving = crate::solving();
        let n = 6;
        let pi = vec![1.0 / n as f64; n];
        let costs = vec![vec![1.0; n]; n];
        let sol = solve(&pi, &costs, |i, j| i != j).unwrap();
        assert!((sol.cost - 1.0).abs() < 1e-9);
        let total: f64 = sol.flows.iter().flatten().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn warm_restarts_match_cold_solves_under_recosted_instances() {
        let _solving = crate::solving();
        // Property: solving a re-costed instance warm from the original
        // instance's basis reaches the same optimal cost as a cold solve of
        // the re-costed instance (≤ 1e-9 relative), with the marginals
        // still conserved.
        quickprop::check(
            "bipartite warm == cold",
            quickprop::Config::default().with_cases(30),
            |g| {
                // n ≥ 3 with raw weights in [0.5, 1.0] keeps every π_i below
                // half the total mass, so the diagonal-excluded problem is
                // always feasible (Hall's condition).
                let n = g.usize_in(3..8);
                let raw: Vec<f64> = (0..n).map(|_| g.f64_in(0.5, 1.0)).collect();
                let total: f64 = raw.iter().sum();
                let pi: Vec<f64> = raw.iter().map(|x| x / total).collect();
                let mut costs = || -> Vec<Vec<f64>> {
                    (0..n)
                        .map(|_| (0..n).map(|_| g.f64_in(0.0, 20.0).round()).collect())
                        .collect()
                };
                let costs_a = costs();
                let costs_b = costs();
                (pi, costs_a, costs_b)
            },
            |(pi, costs_a, costs_b)| {
                let (_, basis) = solve_with_basis(pi, costs_a, off_diagonal)
                    .map_err(|e| format!("seed solve failed: {e}"))?;
                let cold = solve(pi, costs_b, off_diagonal)
                    .map_err(|e| format!("cold solve failed: {e}"))?;
                let (warm, _) = solve_warm(pi, costs_b, off_diagonal, &basis)
                    .map_err(|e| format!("warm solve failed: {e}"))?;
                if !warm.warm_start {
                    return Err("matching basis was not reused for the warm solve".into());
                }
                let scale = cold.cost.abs().max(1.0);
                if (warm.cost - cold.cost).abs() > 1e-9 * scale {
                    return Err(format!(
                        "warm cost {} != cold cost {}",
                        warm.cost, cold.cost
                    ));
                }
                check_marginals("warm", &warm, pi)
            },
        );
    }

    #[test]
    fn larger_random_instance_satisfies_marginals() {
        let _solving = crate::solving();
        // Deterministic pseudo-random instance with 25 states.
        let n = 25;
        let mut state = 12345u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0 + 0.01
        };
        let raw: Vec<f64> = (0..n).map(|_| next()).collect();
        let total: f64 = raw.iter().sum();
        let pi: Vec<f64> = raw.iter().map(|x| x / total).collect();
        let costs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..n).map(|_| (next() * 10.0).round()).collect())
            .collect();
        let sol = solve(&pi, &costs, |i, j| i != j).unwrap();
        for i in 0..n {
            let row_sum: f64 = sol.flows[i].iter().sum();
            assert!((row_sum - pi[i]).abs() < 1e-7);
        }
        assert!(sol.cost >= 0.0);
    }
}
