//! Flow network representation and the telemetered solve entry points.
//!
//! The network itself is a plain edge list ([`FlowNetwork`]); every solve
//! runs the network simplex (`simplex`), which builds its own working state
//! per solve, so the network stays immutable and cheap to share.

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use marqsim_obs::{metrics, trace};

use crate::basis::{topology_fingerprint, SpanningBasis};

/// Numerical tolerance for treating residual capacities as zero.
pub(crate) const CAP_EPS: f64 = 1e-12;

/// Errors produced by the min-cost flow solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// The requested amount of flow cannot be routed from source to sink.
    Infeasible {
        /// Flow that could be routed before the network saturated.
        routed: f64,
        /// Flow that was requested.
        requested: f64,
    },
    /// Source or sink index is out of range.
    InvalidNode {
        /// The offending node index.
        node: usize,
        /// Number of nodes in the network.
        num_nodes: usize,
    },
    /// The network-simplex anti-cycling watchdog hit its hard pivot cap
    /// without reaching optimality. Never returned by a correct solve on
    /// well-formed inputs; it exists so the backstop can *never* be a
    /// silent break returning a suboptimal flow.
    PivotLimit {
        /// Pivots performed when the cap was hit.
        pivots: u64,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Infeasible { routed, requested } => {
                write!(
                    f,
                    "only {routed} of {requested} units of flow can be routed"
                )
            }
            FlowError::InvalidNode { node, num_nodes } => {
                write!(
                    f,
                    "node {node} out of range for a network with {num_nodes} nodes"
                )
            }
            FlowError::PivotLimit { pivots } => {
                write!(
                    f,
                    "network simplex hit the anti-cycling pivot cap after {pivots} pivots"
                )
            }
        }
    }
}

impl std::error::Error for FlowError {}

/// The result of a min-cost flow computation.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Total flow routed (equals the requested amount on success).
    pub amount: f64,
    /// Total cost `Σ f(e) · w(e)`.
    pub cost: f64,
    /// Flow on each edge, indexed by the [`FlowNetwork::add_edge`] return
    /// value.
    pub edge_flows: Vec<f64>,
    /// Whether this solve actually reused a saved [`SpanningBasis`]
    /// (`false` on cold solves and whenever a warm request fell back —
    /// fingerprint mismatch, corrupt basis).
    pub warm_start: bool,
    /// Per-solve profiling (pivot count and phase timings); published to
    /// the metrics registry by every [`FlowNetwork`] solve.
    pub profile: SolveProfile,
}

/// Profiling for one solve: `init` is arc-list and initial-basis
/// construction (or the restore of a saved basis), `optimize` the pivot
/// loop, and `pivots` counts basis exchanges.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveProfile {
    /// Basis exchanges.
    pub pivots: u64,
    /// Seconds spent building per-solve working state.
    pub init_seconds: f64,
    /// Seconds spent in the optimization loop.
    pub optimize_seconds: f64,
}

/// One directed edge of a [`FlowNetwork`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowEdge {
    /// Tail node.
    pub from: usize,
    /// Head node.
    pub to: usize,
    /// Capacity (non-negative).
    pub capacity: f64,
    /// Cost per unit of flow (finite; may be negative).
    pub cost: f64,
}

/// A directed flow network with real-valued capacities and costs
/// (Definition 2.7 of the paper).
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    num_nodes: usize,
    edges: Vec<FlowEdge>,
}

impl FlowNetwork {
    /// Creates a network with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: usize) -> Self {
        FlowNetwork {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges added via [`Self::add_edge`].
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edges, in insertion order (the index of an edge in this slice is
    /// its edge id).
    pub fn edges(&self) -> &[FlowEdge] {
        &self.edges
    }

    /// Adds a directed edge with the given capacity and cost and returns its
    /// edge id (used to look up the flow in [`FlowResult::edge_flows`]).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, the capacity is negative or the
    /// cost is not finite.
    pub fn add_edge(&mut self, from: usize, to: usize, capacity: f64, cost: f64) -> usize {
        let n = self.num_nodes;
        assert!(from < n && to < n, "edge endpoints must be existing nodes");
        assert!(capacity >= 0.0, "capacity must be non-negative");
        assert!(cost.is_finite(), "cost must be finite");
        let edge_id = self.edges.len();
        self.edges.push(FlowEdge {
            from,
            to,
            capacity,
            cost,
        });
        edge_id
    }

    /// Computes a minimum-cost flow of `amount` units from `source` to
    /// `sink` with the network simplex.
    ///
    /// Every solve is telemetered: one `flow_solve` trace span, plus the
    /// registry's solve counters and latency/phase histograms (see
    /// `docs/observability.md`).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Infeasible`] (carrying how much flow *could* be
    /// routed) if the network cannot carry the requested amount, or
    /// [`FlowError::InvalidNode`] for bad endpoints.
    pub fn min_cost_flow(
        &self,
        source: usize,
        sink: usize,
        amount: f64,
    ) -> Result<FlowResult, FlowError> {
        self.solve_telemetered(source, sink, amount, None)
            .map(|(result, _)| result)
    }

    /// Like [`min_cost_flow`](Self::min_cost_flow), additionally returning
    /// the optimal [`SpanningBasis`]. A trivial solve (zero amount or
    /// `source == sink`) exports an inert basis that only an identical
    /// trivial instance matches.
    /// The basis can seed [`min_cost_flow_warm`](Self::min_cost_flow_warm)
    /// on later same-topology instances.
    ///
    /// # Errors
    ///
    /// Same contract as [`min_cost_flow`](Self::min_cost_flow).
    pub fn min_cost_flow_with_basis(
        &self,
        source: usize,
        sink: usize,
        amount: f64,
    ) -> Result<(FlowResult, SpanningBasis), FlowError> {
        self.solve_telemetered(source, sink, amount, None)
    }

    /// Warm-start re-solve from a saved basis: a matching basis is
    /// re-priced under this network's costs and re-pivoted to optimality;
    /// a basis whose topology fingerprint does not match is never applied
    /// and the solve runs cold. On an actual warm start the solve
    /// additionally bumps `marqsim_flow_warm_starts_total` and records the
    /// re-pivot time in `marqsim_flow_repivot_seconds`.
    ///
    /// # Errors
    ///
    /// Same classification as [`min_cost_flow`](Self::min_cost_flow) —
    /// infeasibility reports identically warm or cold.
    pub fn min_cost_flow_warm(
        &self,
        source: usize,
        sink: usize,
        amount: f64,
        basis: &SpanningBasis,
    ) -> Result<(FlowResult, SpanningBasis), FlowError> {
        self.solve_telemetered(source, sink, amount, Some(basis))
    }

    fn solve_telemetered(
        &self,
        source: usize,
        sink: usize,
        amount: f64,
        warm: Option<&SpanningBasis>,
    ) -> Result<(FlowResult, SpanningBasis), FlowError> {
        // One fingerprint per solve: the basis match below, the simplex's
        // own match and the exported basis all reuse it.
        let topology = topology_fingerprint(self, source, sink, amount);
        // The span's `warm` field reports whether a usable (matching)
        // basis was offered; `FlowResult::warm_start` is the ground truth
        // for whether it was reused.
        let warm_requested = warm.is_some_and(|b| b.matches(self, topology));
        let span = trace::Span::enter("flow_solve")
            .field("nodes", self.num_nodes)
            .field("edges", self.edges.len())
            .field("warm", warm_requested);
        let started = Instant::now();
        let result = crate::simplex::solve(self, source, sink, amount, topology, warm);
        let instruments = flow_metrics();
        instruments
            .solve_seconds
            .record(started.elapsed().as_secs_f64());
        match &result {
            Ok((flow, _)) => {
                instruments.solves.inc();
                instruments.pivots.add(flow.profile.pivots);
                if flow.warm_start {
                    instruments.warm_starts.inc();
                    instruments
                        .repivot_seconds
                        .record(flow.profile.optimize_seconds);
                }
                instruments.init_seconds.record(flow.profile.init_seconds);
                instruments
                    .optimize_seconds
                    .record(flow.profile.optimize_seconds);
            }
            Err(_) => instruments.solve_errors.inc(),
        }
        drop(span);
        result
    }

    /// Shared endpoint validation (the simplex and the test oracle).
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

/// Cached global-registry handles for the flow instruments — registered
/// once, so the per-solve record path is atomics only.
struct FlowMetrics {
    solves: Arc<metrics::Counter>,
    solve_errors: Arc<metrics::Counter>,
    solve_seconds: Arc<metrics::Histogram>,
    pivots: Arc<metrics::Counter>,
    warm_starts: Arc<metrics::Counter>,
    repivot_seconds: Arc<metrics::Histogram>,
    init_seconds: Arc<metrics::Histogram>,
    optimize_seconds: Arc<metrics::Histogram>,
}

fn flow_metrics() -> &'static FlowMetrics {
    static METRICS: OnceLock<FlowMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = metrics::global();
        FlowMetrics {
            solves: registry.counter("marqsim_flow_solves_total"),
            solve_errors: registry.counter("marqsim_flow_solve_errors_total"),
            solve_seconds: registry.histogram("marqsim_flow_solve_seconds"),
            pivots: registry.counter("marqsim_flow_pivots_total"),
            warm_starts: registry.counter("marqsim_flow_warm_starts_total"),
            repivot_seconds: registry.histogram("marqsim_flow_repivot_seconds"),
            init_seconds: registry
                .histogram_with("marqsim_flow_phase_seconds", &[("phase", "init")]),
            optimize_seconds: registry
                .histogram_with("marqsim_flow_phase_seconds", &[("phase", "optimize")]),
        }
    })
}

#[cfg(test)]
mod tests {
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
