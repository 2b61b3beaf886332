//! The MarQSim-shaped bipartite transportation network (§5.1) — the one
//! instance the simplex solves in production.
//!
//! Given a marginal distribution `π` over `n` states and an `n × n` cost
//! matrix, [`solve`] routes one unit of flow through
//!
//! ```text
//! S → Prev_i   (capacity π_i, cost 0)
//! Prev_i → Next_j  (capacity ∞, cost w_ij)   for i ≠ j
//! Next_j → T   (capacity π_j, cost 0)
//! ```
//!
//! and reports the optimal flow `f_ij` between the two layers. The
//! diagonal is always excluded: a self-transition would make the identity
//! the trivial zero-cost optimum. Dividing row `i` of the flow by `π_i`
//! yields the transition matrix (§5.1.2); that conversion lives in
//! `marqsim-core`, in place on the rows returned here.
//!
//! The instance builds the simplex's arc array directly, numbered as the
//! persisted bases expect: `S → Prev_i` and `Next_i → T` interleaved per
//! `i`, then the inner arcs row by row. Node `0` is `S`, `1..=n` are
//! `Prev`, `n+1..=2n` are `Next` and `2n+1` is `T`. The unit of demand is
//! a supply at `S` and a deficit at `T`, carried by their artificial root
//! arcs in the starting basis, as in LEMON's network simplex.

use std::time::Instant;

use crate::simplex::{self, Arc};
use crate::{FlowError, SpanningBasis};

/// Result of solving the bipartite transportation problem.
#[derive(Debug, Clone)]
pub struct BipartiteFlow {
    /// Optimal flow `f_ij` from `Prev_i` to `Next_j` (zero on the
    /// diagonal).
    pub flows: Vec<Vec<f64>>,
    /// Total cost `Σ f_ij · w_ij` — by Proposition 5.1 this equals the
    /// expected CNOT count per transition when the flow is turned into a
    /// transition matrix.
    pub cost: f64,
    /// Whether the solve re-pivoted from a caller-supplied
    /// [`SpanningBasis`] instead of building its basis from scratch.
    pub warm_start: bool,
    /// Basis exchanges the solve made.
    pub pivots: u64,
}

/// Errors produced by [`solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum BipartiteError {
    /// The marginal distribution is empty, has negative or non-finite
    /// entries, or does not sum to one.
    InvalidMarginal {
        /// The sum of the provided marginal.
        sum: f64,
    },
    /// The cost matrix is not `n × n`.
    CostShapeMismatch {
        /// Number of states implied by the marginal.
        expected: usize,
    },
    /// A cost is not finite, or the costs are so large that the simplex's
    /// big-M arithmetic would overflow.
    InvalidCosts,
    /// The underlying min-cost-flow problem is infeasible (for example, a
    /// state carrying more than half of the mass).
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
            BipartiteError::InvalidCosts => {
                write!(f, "costs must be finite and small enough for big-M pricing")
            }
            BipartiteError::Infeasible(e) => write!(f, "transportation problem infeasible: {e}"),
        }
    }
}

impl std::error::Error for BipartiteError {}

/// A very large capacity standing in for the paper's `∞` on inner edges.
const INF_CAPACITY: f64 = 1e18;

/// Solves the bipartite transportation problem, warm from `warm` when it
/// is given, and returns the optimal flow with the optimal
/// [`SpanningBasis`].
///
/// The network's topology, and hence the basis fingerprint, depends only
/// on `marginal`, so solves that differ only in their cost matrix (the
/// `P_rp` perturbation-sampling shape) reuse each other's bases. A basis
/// that does not match (a different marginal) silently degrades to a cold
/// solve — check [`BipartiteFlow::warm_start`] for what actually happened.
///
/// # Errors
///
/// Returns a [`BipartiteError`] if the inputs are malformed or the problem
/// is infeasible (e.g. a single state, whose self-edge is excluded). Warm
/// and cold solves report identical errors.
pub fn solve(
    marginal: &[f64],
    costs: &[Vec<f64>],
    warm: Option<&SpanningBasis>,
) -> Result<(BipartiteFlow, SpanningBasis), BipartiteError> {
    let started = Instant::now();
    validate(marginal, costs)?;
    let n = marginal.len();
    let (source, sink) = (0, 2 * n + 1);
    let nodes = 2 * n + 2;
    let mut arcs = Vec::with_capacity(2 * n + n * (n - 1) + nodes);
    for (i, &pi) in marginal.iter().enumerate() {
        arcs.push(Arc::real(source, 1 + i, pi, 0.0));
        arcs.push(Arc::real(1 + n + i, sink, pi, 0.0));
    }
    for (i, row) in costs.iter().enumerate() {
        for (j, &cost) in row.iter().enumerate() {
            if i != j {
                arcs.push(Arc::real(1 + i, 1 + n + j, INF_CAPACITY, cost));
            }
        }
    }
    let solved = simplex::solve(nodes, arcs, source, sink, 1.0, warm, started)
        .map_err(BipartiteError::Infeasible)?;
    let mut inner = solved.arcs[2 * n..].iter();
    let flows = (0..n)
        .map(|i| {
            let mut row = vec![0.0; n];
            for (j, arc) in (0..n).filter(|&j| j != i).zip(&mut inner) {
                row[j] = arc.flow.max(0.0);
            }
            row
        })
        .collect();
    let flow = BipartiteFlow {
        flows,
        cost: solved.cost,
        warm_start: solved.warm_start,
        pivots: solved.profile.pivots,
    };
    Ok((flow, solved.basis))
}

/// Checks that `marginal` is a probability vector and `costs` a finite
/// `n × n` matrix whose magnitudes keep the simplex's big-M finite.
fn validate(marginal: &[f64], costs: &[Vec<f64>]) -> Result<(), BipartiteError> {
    let n = marginal.len();
    let sum: f64 = marginal.iter().sum();
    if n == 0 || marginal.iter().any(|&p| !p.is_finite() || p < 0.0) || (sum - 1.0).abs() > 1e-9 {
        return Err(BipartiteError::InvalidMarginal { sum });
    }
    if costs.len() != n || costs.iter().any(|row| row.len() != n) {
        return Err(BipartiteError::CostShapeMismatch { expected: n });
    }
    let max_abs_cost = costs
        .iter()
        .flatten()
        .try_fold(0.0f64, |max, &c| c.is_finite().then(|| max.max(c.abs())));
    match max_abs_cost {
        Some(max) if simplex::costs_fit(2 * n + 2, max) => Ok(()),
        _ => Err(BipartiteError::InvalidCosts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{FlowNetwork, FlowResult};

    type Solver = fn(&[f64], &[Vec<f64>]) -> Result<BipartiteFlow, BipartiteError>;

    /// The production solve, cold.
    fn cold(marginal: &[f64], costs: &[Vec<f64>]) -> Result<BipartiteFlow, BipartiteError> {
        solve(marginal, costs, None).map(|(flow, _)| flow)
    }

    /// The transportation instance as an edge-list network, with inner
    /// edge `(i, j)` where `allow(i, j)`, in the production arc order.
    /// Returns the network and the edge id of every inner edge.
    fn network(
        marginal: &[f64],
        costs: &[Vec<f64>],
        allow: fn(usize, usize) -> bool,
    ) -> (FlowNetwork, Vec<Vec<Option<usize>>>) {
        let n = marginal.len();
        let mut net = FlowNetwork::new(2 * n + 2);
        for (i, &pi) in marginal.iter().enumerate() {
            net.add_edge(0, 1 + i, pi, 0.0);
            net.add_edge(1 + n + i, 2 * n + 1, pi, 0.0);
        }
        let ids = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| allow(i, j).then(|| net.add_edge(1 + i, 1 + n + j, 1e18, costs[i][j])))
                    .collect()
            })
            .collect();
        (net, ids)
    }

    /// The inner-edge flows `f_ij` of a solve of [`network`].
    fn flows_of(ids: &[Vec<Option<usize>>], result: &FlowResult) -> Vec<Vec<f64>> {
        ids.iter()
            .map(|row| {
                row.iter()
                    .map(|id| id.map_or(0.0, |id| result.edge_flows[id].max(0.0)))
                    .collect()
            })
            .collect()
    }

    /// The transportation problem solved by the successive-shortest-path
    /// oracle over the edge-list network instead of the simplex.
    fn solve_by_oracle(
        marginal: &[f64],
        costs: &[Vec<f64>],
    ) -> Result<BipartiteFlow, BipartiteError> {
        validate(marginal, costs)?;
        let (net, ids) = network(marginal, costs, off_diagonal);
        let result = crate::ssp::solve(&net, 0, net.num_nodes() - 1, 1.0)
            .map_err(BipartiteError::Infeasible)?;
        Ok(BipartiteFlow {
            flows: flows_of(&ids, &result),
            cost: result.cost,
            warm_start: false,
            pivots: result.profile.pivots,
        })
    }

    /// The production solve and the oracle.
    fn backends() -> [(&'static str, Solver); 2] {
        [("network_simplex", cold), ("ssp oracle", solve_by_oracle)]
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
        let sol = cold(&pi, &costs).unwrap();
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
        let sol = cold(&pi, &costs).unwrap();
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
        let sol = cold(&pi, &costs).unwrap();
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
        // Why the production instance excludes the diagonal: with the
        // self-edges in (built here as an edge-list network), the identity
        // transition is a zero-cost optimum.
        let _solving = crate::solving();
        let (pi, costs) = example_5_1();
        let (net, ids) = network(&pi, &costs, |_, _| true);
        let result = net.min_cost_flow(0, net.num_nodes() - 1, 1.0).unwrap();
        let flows = flows_of(&ids, &result);
        assert!(result.cost.abs() < 1e-9);
        for i in 0..4 {
            assert!((flows[i][i] - pi[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn invalid_marginal_rejected() {
        let _solving = crate::solving();
        for marginal in [
            &[0.5, 0.6][..],
            &[],
            &[0.5, -0.5, 1.0],
            &[f64::NAN, 1.0],
            &[0.5, f64::NAN],
            &[f64::INFINITY, 0.0],
        ] {
            let costs = vec![vec![0.0; marginal.len()]; marginal.len()];
            assert!(
                matches!(
                    solve(marginal, &costs, None).unwrap_err(),
                    BipartiteError::InvalidMarginal { .. }
                ),
                "{marginal:?}"
            );
        }
    }

    #[test]
    fn cost_shape_mismatch_rejected() {
        let _solving = crate::solving();
        let costs = vec![vec![0.0; 3]; 2];
        assert!(matches!(
            cold(&[0.5, 0.5], &costs).unwrap_err(),
            BipartiteError::CostShapeMismatch { .. }
        ));
    }

    #[test]
    fn non_finite_costs_are_rejected() {
        let _solving = crate::solving();
        let (pi, costs) = example_5_1();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (i, j) in [(0, 1), (3, 2), (2, 2)] {
                let mut costs = costs.clone();
                costs[i][j] = bad;
                assert_eq!(
                    cold(&pi, &costs).unwrap_err(),
                    BipartiteError::InvalidCosts,
                    "{bad} at ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn costs_that_overflow_big_m_are_rejected() {
        // Costs of 1e308 are finite, but the big-M above them is not: the
        // solve used to misreport them as `Infeasible { routed: 0 }`.
        let _solving = crate::solving();
        let (pi, costs) = example_5_1();
        for huge in [1e307, -1e308, f64::MAX] {
            let mut costs = costs.clone();
            costs[1][0] = huge;
            assert_eq!(
                cold(&pi, &costs).unwrap_err(),
                BipartiteError::InvalidCosts,
                "{huge}"
            );
        }
        // Large costs whose big-M and pivots stay finite still solve.
        let scaled: Vec<Vec<f64>> = costs
            .iter()
            .map(|row| row.iter().map(|&c| c * 1e290).collect())
            .collect();
        let sol = cold(&pi, &scaled).unwrap();
        assert!((sol.cost / 1e290 - 2.0).abs() < 1e-9, "{}", sol.cost);
    }

    #[test]
    fn single_state_without_self_edge_is_infeasible() {
        let _solving = crate::solving();
        let costs = vec![vec![0.0]];
        assert!(matches!(
            cold(&[1.0], &costs).unwrap_err(),
            BipartiteError::Infeasible(_)
        ));
    }

    #[test]
    fn example_5_1_topology_fingerprint_is_pinned() {
        // Persisted bases (format v5) carry this fingerprint, so the words
        // it hashes and their order must not change: node count, arc
        // count, per-arc endpoints and capacity bits in arc order, source,
        // sink and amount.
        let _solving = crate::solving();
        let (pi, costs) = example_5_1();
        let (_, basis) = solve(&pi, &costs, None).unwrap();
        assert_eq!(basis.topology(), 0xcf4a_fe10_fedd_8313);
        assert_eq!((basis.num_nodes(), basis.num_real_arcs()), (10, 20));
        let (net, _) = network(&pi, &costs, off_diagonal);
        assert_eq!(net.fingerprint(0, 9, 1.0), basis.topology());
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
                    solve(&[0.5, 0.6], &costs).unwrap_err(),
                    BipartiteError::InvalidMarginal { .. }
                ),
                "{kind}"
            );
            let ragged = vec![vec![0.0; 3]; 2];
            assert!(
                matches!(
                    solve(&[0.5, 0.5], &ragged).unwrap_err(),
                    BipartiteError::CostShapeMismatch { .. }
                ),
                "{kind}"
            );
            let single = vec![vec![0.0]];
            assert!(
                matches!(
                    solve(&[1.0], &single).unwrap_err(),
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
        let oracle = solve_by_oracle(&pi, &costs).unwrap();
        let simplex = cold(&pi, &costs).unwrap();
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
                    let sol = solve(pi, costs).map_err(|e| format!("{kind}: {e}"))?;
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
        let sol = cold(&pi, &costs).unwrap();
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
            recosted_instance,
            |(pi, costs_a, costs_b)| {
                let (_, basis) =
                    solve(pi, costs_a, None).map_err(|e| format!("seed solve failed: {e}"))?;
                let cold = cold(pi, costs_b).map_err(|e| format!("cold solve failed: {e}"))?;
                let (warm, _) = solve(pi, costs_b, Some(&basis))
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

    /// A feasible instance under two cost matrices: `n ≥ 3` raw weights
    /// in [0.5, 1.0] keep every π_i below half the total mass (Hall's
    /// condition for the diagonal-excluded problem), and costs are
    /// integers in `0..=20`.
    fn recosted_instance(g: &mut quickprop::Gen) -> (Vec<f64>, Vec<Vec<f64>>, Vec<Vec<f64>>) {
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
    }

    /// Bit-level equality of a transportation-native solve and the
    /// edge-list solve of the same instance: fingerprint, pivot count,
    /// cost, flows and the exported basis.
    fn same_solve(
        (native, native_basis): &(BipartiteFlow, SpanningBasis),
        (edges, edge_basis): &(FlowResult, SpanningBasis),
        ids: &[Vec<Option<usize>>],
        topology: u64,
    ) -> Result<(), String> {
        let bits = |flows: &[f64]| flows.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let checks = [
            ("fingerprint", native_basis.topology() == topology),
            ("basis fingerprint", edge_basis.topology() == topology),
            ("pivots", native.pivots == edges.profile.pivots),
            ("warm start", native.warm_start == edges.warm_start),
            ("cost", native.cost.to_bits() == edges.cost.to_bits()),
            (
                "flows",
                bits(&native.flows.concat()) == bits(&flows_of(ids, edges).concat()),
            ),
            ("basis states", native_basis.states == edge_basis.states),
            (
                "basis flows",
                bits(&native_basis.flows) == bits(&edge_basis.flows),
            ),
        ];
        match checks.iter().find(|(_, same)| !same) {
            Some((what, _)) => Err(format!("{what} differ between the two paths")),
            None => Ok(()),
        }
    }

    #[test]
    fn the_native_instance_solves_like_its_edge_list_network() {
        let _solving = crate::solving();
        // The arc array `solve` builds is the edge list the instance used
        // to be: same fingerprint, same pivot path, bit-equal flows and
        // basis, cold and warm from a basis solved under other costs.
        quickprop::check(
            "transportation-native solve == edge-list solve",
            quickprop::Config::default().with_seed(0xB6),
            recosted_instance,
            |(pi, costs_a, costs_b)| {
                let sink = 2 * pi.len() + 1;
                let (net_a, ids) = network(pi, costs_a, off_diagonal);
                let topology = net_a.fingerprint(0, sink, 1.0);
                let native = solve(pi, costs_a, None).map_err(|e| e.to_string())?;
                let edges = net_a
                    .min_cost_flow_with_basis(0, sink, 1.0)
                    .map_err(|e| e.to_string())?;
                same_solve(&native, &edges, &ids, topology).map_err(|e| format!("cold: {e}"))?;

                let (net_b, _) = network(pi, costs_b, off_diagonal);
                let native = solve(pi, costs_b, Some(&native.1)).map_err(|e| e.to_string())?;
                let edges = net_b
                    .min_cost_flow_warm(0, sink, 1.0, &edges.1)
                    .map_err(|e| e.to_string())?;
                if !native.0.warm_start {
                    return Err("the basis was not reused".into());
                }
                same_solve(&native, &edges, &ids, topology).map_err(|e| format!("warm: {e}"))
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
        let sol = cold(&pi, &costs).unwrap();
        for i in 0..n {
            let row_sum: f64 = sol.flows[i].iter().sum();
            assert!((row_sum - pi[i]).abs() < 1e-7);
        }
        assert!(sol.cost >= 0.0);
    }
}
