//! A general directed flow network — the test-only input of the
//! successive-shortest-path oracle (`ssp`) and of the generic-network
//! simplex tests (negative costs, parallel arcs, residual rerouting). The
//! one production instance, the transportation network, builds the
//! simplex's arcs itself (`bipartite`); this module builds them from an
//! edge list and reads the flows back per edge.

use std::time::Instant;

use crate::basis::{topology_fingerprint, BasisArcState, SpanningBasis};
use crate::simplex::{self, Arc, FlowError, SolveProfile, CAP_EPS};

/// The result of a min-cost flow computation.
#[derive(Debug, Clone)]
pub(crate) struct FlowResult {
    /// Total flow routed (equals the requested amount on success).
    pub(crate) amount: f64,
    /// Total cost `Σ f(e) · w(e)`.
    pub(crate) cost: f64,
    /// Flow on each edge, indexed by the [`FlowNetwork::add_edge`] return
    /// value.
    pub(crate) edge_flows: Vec<f64>,
    /// Whether this solve actually reused a saved [`SpanningBasis`].
    pub(crate) warm_start: bool,
    /// Pivot count and phase timings.
    pub(crate) profile: SolveProfile,
}

/// One directed edge of a [`FlowNetwork`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FlowEdge {
    pub(crate) from: usize,
    pub(crate) to: usize,
    pub(crate) capacity: f64,
    pub(crate) cost: f64,
}

/// A directed flow network with real-valued capacities and costs
/// (Definition 2.7 of the paper), stored as an edge list.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlowNetwork {
    num_nodes: usize,
    edges: Vec<FlowEdge>,
}

impl FlowNetwork {
    /// Creates a network with `num_nodes` nodes and no edges.
    pub(crate) fn new(num_nodes: usize) -> Self {
        FlowNetwork {
            num_nodes,
            edges: Vec::new(),
        }
    }

    pub(crate) fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    pub(crate) fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edges in insertion order (an edge's index is its id).
    pub(crate) fn edges(&self) -> &[FlowEdge] {
        &self.edges
    }

    /// Adds a directed edge and returns its id.
    pub(crate) fn add_edge(&mut self, from: usize, to: usize, capacity: f64, cost: f64) -> usize {
        assert!(from < self.num_nodes && to < self.num_nodes);
        self.edges.push(FlowEdge {
            from,
            to,
            capacity,
            cost,
        });
        self.edges.len() - 1
    }

    /// The topology fingerprint of a solve of this network.
    pub(crate) fn fingerprint(&self, source: usize, sink: usize, amount: f64) -> u64 {
        let arcs = self.edges.iter().map(|e| (e.from, e.to, e.capacity));
        topology_fingerprint(self.num_nodes, arcs, source, sink, amount)
    }

    /// A cold minimum-cost flow of `amount` units from `source` to `sink`.
    pub(crate) fn min_cost_flow(
        &self,
        source: usize,
        sink: usize,
        amount: f64,
    ) -> Result<FlowResult, FlowError> {
        self.solve(source, sink, amount, None)
            .map(|(result, _)| result)
    }

    /// Like [`Self::min_cost_flow`], also returning the optimal basis.
    pub(crate) fn min_cost_flow_with_basis(
        &self,
        source: usize,
        sink: usize,
        amount: f64,
    ) -> Result<(FlowResult, SpanningBasis), FlowError> {
        self.solve(source, sink, amount, None)
    }

    /// A re-solve warm from `basis` (cold when it does not match).
    pub(crate) fn min_cost_flow_warm(
        &self,
        source: usize,
        sink: usize,
        amount: f64,
        basis: &SpanningBasis,
    ) -> Result<(FlowResult, SpanningBasis), FlowError> {
        self.solve(source, sink, amount, Some(basis))
    }

    /// The simplex over this network's edges in id order. A trivial solve
    /// (zero amount or `source == sink`) skips the simplex and exports the
    /// all-zero artificial star: every real arc at its lower bound, every
    /// artificial arc basic. Only an identical (hence equally trivial)
    /// instance matches it, so it is never restored.
    fn solve(
        &self,
        source: usize,
        sink: usize,
        amount: f64,
        warm: Option<&SpanningBasis>,
    ) -> Result<(FlowResult, SpanningBasis), FlowError> {
        self.validate_endpoints(source, sink)?;
        let (n, m) = (self.num_nodes, self.edges.len());
        if amount <= CAP_EPS || source == sink {
            let mut states = vec![BasisArcState::Lower; m];
            states.resize(m + n, BasisArcState::Tree);
            let basis = SpanningBasis {
                topology: self.fingerprint(source, sink, amount),
                num_nodes: n,
                num_real_arcs: m,
                states,
                flows: vec![0.0; m + n],
            };
            let result = FlowResult {
                amount,
                cost: 0.0,
                edge_flows: vec![0.0; m],
                warm_start: false,
                profile: SolveProfile::default(),
            };
            return Ok((result, basis));
        }
        let started = Instant::now();
        let arcs = self
            .edges
            .iter()
            .map(|e| Arc::real(e.from, e.to, e.capacity, e.cost))
            .collect();
        let solved = simplex::solve(n, arcs, source, sink, amount, warm, started)?;
        let result = FlowResult {
            amount,
            cost: solved.cost,
            edge_flows: solved.arcs[..m].iter().map(|arc| arc.flow).collect(),
            warm_start: solved.warm_start,
            profile: solved.profile,
        };
        Ok((result, solved.basis))
    }

    /// Shared endpoint validation (this network's solve and the oracle).
    pub(crate) fn validate_endpoints(&self, source: usize, sink: usize) -> Result<(), FlowError> {
        let n = self.num_nodes;
        if source >= n || sink >= n {
            return Err(FlowError::InvalidNode {
                node: source.max(sink),
                num_nodes: n,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use marqsim_obs::metrics;

    use super::*;

    type Solve = fn(&FlowNetwork, usize, usize, f64) -> Result<FlowResult, FlowError>;

    /// The production solve and the successive-shortest-path oracle: every
    /// contract below must hold for both.
    fn backends() -> [(&'static str, Solve); 2] {
        [
            ("network_simplex", |net, s, t, amount| {
                net.min_cost_flow(s, t, amount)
            }),
            ("ssp oracle", crate::ssp::solve),
        ]
    }

    #[test]
    fn single_edge_network() {
        let _solving = crate::solving();
        for (kind, solve) in backends() {
            let mut net = FlowNetwork::new(2);
            let e = net.add_edge(0, 1, 2.0, 3.0);
            let r = solve(&net, 0, 1, 1.5).unwrap();
            assert!((r.cost - 4.5).abs() < 1e-9, "{kind}");
            assert!((r.edge_flows[e] - 1.5).abs() < 1e-9, "{kind}");
        }
    }

    #[test]
    fn prefers_the_cheaper_route() {
        let _solving = crate::solving();
        for (kind, solve) in backends() {
            let mut net = FlowNetwork::new(4);
            let cheap_a = net.add_edge(0, 1, 1.0, 1.0);
            let cheap_b = net.add_edge(1, 3, 1.0, 1.0);
            let pricey_a = net.add_edge(0, 2, 1.0, 5.0);
            let pricey_b = net.add_edge(2, 3, 1.0, 5.0);
            let r = solve(&net, 0, 3, 1.0).unwrap();
            assert!((r.cost - 2.0).abs() < 1e-9, "{kind}");
            assert!((r.edge_flows[cheap_a] - 1.0).abs() < 1e-9, "{kind}");
            assert!((r.edge_flows[cheap_b] - 1.0).abs() < 1e-9, "{kind}");
            assert!(r.edge_flows[pricey_a].abs() < 1e-9, "{kind}");
            assert!(r.edge_flows[pricey_b].abs() < 1e-9, "{kind}");
        }
    }

    #[test]
    fn spills_over_to_the_expensive_route_when_needed() {
        let _solving = crate::solving();
        for (kind, solve) in backends() {
            let mut net = FlowNetwork::new(4);
            net.add_edge(0, 1, 1.0, 1.0);
            net.add_edge(1, 3, 1.0, 1.0);
            net.add_edge(0, 2, 1.0, 5.0);
            net.add_edge(2, 3, 1.0, 5.0);
            let r = solve(&net, 0, 3, 2.0).unwrap();
            assert!((r.cost - 12.0).abs() < 1e-9, "{kind}");
        }
    }

    #[test]
    fn infeasible_demand_is_reported_identically_by_every_backend() {
        let _solving = crate::solving();
        for (kind, solve) in backends() {
            let mut net = FlowNetwork::new(2);
            net.add_edge(0, 1, 1.0, 1.0);
            let err = solve(&net, 0, 1, 2.0).unwrap_err();
            match err {
                FlowError::Infeasible { routed, requested } => {
                    assert!((routed - 1.0).abs() < 1e-9, "{kind}: routed {routed}");
                    assert!((requested - 2.0).abs() < 1e-9, "{kind}");
                }
                other => panic!("{kind}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn invalid_node_is_reported_identically_by_every_backend() {
        let _solving = crate::solving();
        for (kind, solve) in backends() {
            let net = FlowNetwork::new(2);
            assert_eq!(
                solve(&net, 0, 5, 1.0).unwrap_err(),
                FlowError::InvalidNode {
                    node: 5,
                    num_nodes: 2
                },
                "{kind}"
            );
        }
    }

    #[test]
    fn flow_conservation_holds_at_interior_nodes() {
        let _solving = crate::solving();
        for (kind, solve) in backends() {
            // Diamond with an extra middle edge; route 1.5 units.
            let mut net = FlowNetwork::new(5);
            let edges = [
                (0, 1, 1.0, 2.0),
                (0, 2, 1.0, 1.0),
                (1, 2, 0.5, 0.1),
                (1, 3, 1.0, 3.0),
                (2, 3, 1.2, 2.0),
                (3, 4, 2.0, 0.0),
            ];
            let ids: Vec<usize> = edges
                .iter()
                .map(|&(u, v, c, w)| net.add_edge(u, v, c, w))
                .collect();
            let r = solve(&net, 0, 4, 1.5).unwrap();
            // Net flow into each interior node equals net flow out.
            for node in 1..=3 {
                let mut balance = 0.0;
                for (&(u, v, _, _), &id) in edges.iter().zip(ids.iter()) {
                    if v == node {
                        balance += r.edge_flows[id];
                    }
                    if u == node {
                        balance -= r.edge_flows[id];
                    }
                }
                assert!(
                    balance.abs() < 1e-9,
                    "{kind}: node {node} imbalance {balance}"
                );
            }
            // Capacities respected.
            for (&(_, _, cap, _), &id) in edges.iter().zip(ids.iter()) {
                assert!(r.edge_flows[id] <= cap + 1e-9, "{kind}");
                assert!(r.edge_flows[id] >= -1e-9, "{kind}");
            }
        }
    }

    #[test]
    fn residual_rerouting_finds_the_global_optimum() {
        let _solving = crate::solving();
        for (kind, solve) in backends() {
            // Classic example where the greedy path must later be partially
            // undone through residual arcs to reach the optimum.
            let mut net = FlowNetwork::new(4);
            net.add_edge(0, 1, 1.0, 1.0);
            net.add_edge(0, 2, 1.0, 10.0);
            net.add_edge(1, 2, 1.0, -8.0);
            net.add_edge(1, 3, 1.0, 10.0);
            net.add_edge(2, 3, 1.0, 1.0);
            let r = solve(&net, 0, 3, 2.0).unwrap();
            assert!((r.cost - 22.0).abs() < 1e-9, "{kind}: cost {}", r.cost);
            assert!((r.amount - 2.0).abs() < 1e-12, "{kind}");
        }
    }

    #[test]
    fn fractional_capacities_route_exactly() {
        let _solving = crate::solving();
        for (kind, solve) in backends() {
            let mut net = FlowNetwork::new(3);
            let a = net.add_edge(0, 1, 0.3, 1.0);
            let b = net.add_edge(0, 1, 0.7, 2.0);
            let c = net.add_edge(1, 2, 1.0, 0.0);
            let r = solve(&net, 0, 2, 1.0).unwrap();
            assert!((r.edge_flows[a] - 0.3).abs() < 1e-9, "{kind}");
            assert!((r.edge_flows[b] - 0.7).abs() < 1e-9, "{kind}");
            assert!((r.edge_flows[c] - 1.0).abs() < 1e-9, "{kind}");
            assert!((r.cost - (0.3 + 1.4)).abs() < 1e-9, "{kind}");
        }
    }

    #[test]
    fn zero_amount_flow_costs_nothing() {
        let _solving = crate::solving();
        for (kind, solve) in backends() {
            let mut net = FlowNetwork::new(2);
            net.add_edge(0, 1, 1.0, 7.0);
            let r = solve(&net, 0, 1, 0.0).unwrap();
            assert_eq!(r.cost, 0.0, "{kind}");
            assert!(r.edge_flows.iter().all(|&f| f == 0.0), "{kind}");
        }
    }

    #[test]
    fn solves_fill_profiles_and_registry_instruments() {
        // Exclusive: no other unit test solves while the deltas are read.
        let _measuring = crate::measuring();
        let registry = metrics::global();
        let solves = registry.counter("marqsim_flow_solves_total");
        let pivots = registry.counter("marqsim_flow_pivots_total");
        let seconds = registry.histogram("marqsim_flow_solve_seconds");
        let errors = registry.counter("marqsim_flow_solve_errors_total");
        let (solves_before, pivots_before, count_before, errors_before) =
            (solves.get(), pivots.get(), seconds.count(), errors.get());

        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 2.0, 1.0);
        net.add_edge(1, 2, 2.0, 1.0);
        let r = net.min_cost_flow(0, 2, 1.0).unwrap();
        assert!(r.profile.pivots >= 1, "at least one pivot");
        assert!(r.profile.init_seconds >= 0.0);
        assert!(r.profile.optimize_seconds >= 0.0);
        assert_eq!(solves.get(), solves_before + 1);
        assert_eq!(pivots.get(), pivots_before + r.profile.pivots);
        assert_eq!(seconds.count(), count_before + 1);
        assert_eq!(errors.get(), errors_before);

        // Errors land in the error counter, not the solve counter.
        let _ = net.min_cost_flow(0, 2, 5.0).unwrap_err();
        assert_eq!(errors.get(), errors_before + 1);
        assert_eq!(solves.get(), solves_before + 1);
        assert_eq!(seconds.count(), count_before + 2);
    }

    #[test]
    fn backends_agree_on_cost_for_a_dense_network() {
        let _solving = crate::solving();
        // A denser network with parallel routes: the simplex must land on
        // the oracle's optimal cost.
        let mut net = FlowNetwork::new(6);
        let arcs = [
            (0usize, 1usize, 2.0, 4.0),
            (0, 2, 2.0, 1.0),
            (1, 2, 1.0, 1.0),
            (1, 3, 1.5, 3.0),
            (2, 3, 1.0, 6.0),
            (2, 4, 2.0, 2.0),
            (3, 5, 2.0, 1.0),
            (4, 3, 1.0, 0.5),
            (4, 5, 1.0, 7.0),
        ];
        for &(u, v, c, w) in &arcs {
            net.add_edge(u, v, c, w);
        }
        let a = crate::ssp::solve(&net, 0, 5, 2.5).unwrap();
        let b = net.min_cost_flow(0, 5, 2.5).unwrap();
        assert!(
            (a.cost - b.cost).abs() < 1e-9,
            "ssp {} vs simplex {}",
            a.cost,
            b.cost
        );
    }
}
