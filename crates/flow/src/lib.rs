//! Minimum-cost flow for the MarQSim transition-matrix optimization.
//!
//! §5 of the paper tunes the Markov transition matrix by solving a Min-Cost
//! Flow Problem on a bipartite network: source → `Prev` terms → `Next` terms
//! → sink, with the stationary distribution as the capacities of the outer
//! edges and the pairwise CNOT count as the cost of the inner edges. The
//! paper uses Python's `networkx` solver; this crate is the from-scratch
//! replacement:
//!
//! * [`FlowNetwork`] — a directed flow network with real-valued capacities
//!   and costs (Definition 2.7), stored as an immutable edge list. Every
//!   solve ([`FlowNetwork::min_cost_flow`]) runs the one backend,
//!   [`NetworkSimplex`]: primal network simplex on a spanning-tree basis
//!   with a block-search pivot rule.
//! * [`bipartite`] — the MarQSim-shaped bipartite transportation network:
//!   given a marginal distribution `π` and a cost matrix, it returns the
//!   optimal flow between `Prev` and `Next` copies of the states.
//! * [`SpanningBasis`] — warm-start re-solves: every solve exports its
//!   optimal spanning-tree basis, and a later solve over the same topology
//!   with different costs re-prices and re-pivots from it
//!   ([`FlowNetwork::min_cost_flow_warm`]) instead of rebuilding from the
//!   artificial root — the cost-perturbation shape of `P_rp` sampling and
//!   sweep grids.
//!
//! The unit tests cross-check the simplex against a successive-shortest-path
//! oracle (Johnson potentials, Dijkstra inner loop) that is compiled only
//! for tests: on networks without negative-cost cycles — which includes
//! every MarQSim model (CNOT counts are non-negative) — both must report
//! the same optimal cost to 1e-9 and the same [`FlowError`] classification.
//! See `docs/flow.md` for the architecture.
//!
//! # Example
//!
//! ```
//! use marqsim_flow::FlowNetwork;
//!
//! // Send one unit from 0 to 3 over two parallel routes with different costs.
//! let mut net = FlowNetwork::new(4);
//! net.add_edge(0, 1, 1.0, 1.0);
//! net.add_edge(1, 3, 1.0, 1.0);
//! net.add_edge(0, 2, 1.0, 5.0);
//! net.add_edge(2, 3, 1.0, 5.0);
//! let result = net.min_cost_flow(0, 3, 1.0).unwrap();
//! assert!((result.cost - 2.0).abs() < 1e-9);
//!
//! // Re-solve with new costs, warm from the first solve's basis.
//! let (_, basis) = net.min_cost_flow_with_basis(0, 3, 1.0).unwrap();
//! let mut recosted = FlowNetwork::new(4);
//! recosted.add_edge(0, 1, 1.0, 5.0);
//! recosted.add_edge(1, 3, 1.0, 5.0);
//! recosted.add_edge(0, 2, 1.0, 1.0);
//! recosted.add_edge(2, 3, 1.0, 1.0);
//! let (warm, _) = recosted
//!     .min_cost_flow_warm(0, 3, 1.0, &basis)
//!     .unwrap();
//! assert!(warm.warm_start);
//! assert!((warm.cost - 2.0).abs() < 1e-9);
//! ```

mod basis;
#[cfg(test)]
mod csr;
mod graph;
mod simplex;
#[cfg(test)]
mod ssp;

pub mod bipartite;

pub use basis::{topology_fingerprint, SpanningBasis};
pub use graph::{FlowEdge, FlowError, FlowNetwork, FlowResult, SolveProfile};
pub use simplex::NetworkSimplex;

/// Test-only guard over the process-global flow instruments: every unit
/// test that solves holds it shared ([`solving`]), and the registry test
/// holds it exclusively ([`measuring`]), so that test's exact counter
/// deltas never pick up a concurrent test's solve.
#[cfg(test)]
static INSTRUMENTS: std::sync::RwLock<()> = std::sync::RwLock::new(());

#[cfg(test)]
fn solving() -> std::sync::RwLockReadGuard<'static, ()> {
    INSTRUMENTS
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
fn measuring() -> std::sync::RwLockWriteGuard<'static, ()> {
    INSTRUMENTS
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
