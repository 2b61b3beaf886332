//! Minimum-cost flow for the MarQSim transition-matrix optimization.
//!
//! §5 of the paper tunes the Markov transition matrix by solving a Min-Cost
//! Flow Problem on a bipartite network: source → `Prev` terms → `Next` terms
//! → sink, with the stationary distribution as the capacities of the outer
//! edges and the pairwise CNOT count as the cost of the inner edges. The
//! paper uses Python's `networkx` solver; this crate is the from-scratch
//! replacement:
//!
//! * [`bipartite::solve`] — the one entry point: given a marginal
//!   distribution `π` and a cost matrix, it returns the optimal flow
//!   between `Prev` and `Next` copies of the states (the diagonal
//!   excluded), plus the optimal [`SpanningBasis`].
//! * [`NetworkSimplex`] — the backend every solve runs: primal network
//!   simplex on a spanning-tree basis with a block-search pivot rule,
//!   over the arc array the transportation instance builds directly.
//! * [`SpanningBasis`] — warm-start re-solves: a later solve over the same
//!   marginal with different costs re-prices and re-pivots from a saved
//!   basis instead of rebuilding from the artificial root — the
//!   cost-perturbation shape of `P_rp` sampling and sweep grids.
//!
//! The unit tests cross-check the simplex against a successive-shortest-path
//! oracle (Johnson potentials, Dijkstra inner loop) over a general
//! edge-list network, both compiled only for tests: on networks without
//! negative-cost cycles — which includes every MarQSim model (CNOT counts
//! are non-negative) — both must report the same optimal cost to 1e-9 and
//! the same [`FlowError`] classification. See `docs/flow.md` for the
//! architecture.
//!
//! # Example
//!
//! ```
//! use marqsim_flow::bipartite;
//!
//! // Three states; moving between states 0 and 1 is cheap. State 2
//! // must send and receive its 0.2 at cost 4, and states 0 and 1 trade
//! // the remaining 0.6 at cost 1.
//! let pi = [0.4, 0.4, 0.2];
//! let costs = vec![
//!     vec![0.0, 1.0, 4.0],
//!     vec![1.0, 0.0, 4.0],
//!     vec![4.0, 4.0, 0.0],
//! ];
//! let (flow, basis) = bipartite::solve(&pi, &costs, None).unwrap();
//! assert!((flow.cost - 2.2).abs() < 1e-9);
//! assert_eq!(flow.flows[2][2], 0.0);
//!
//! // Re-solve with new costs, warm from the first solve's basis: the
//! // same optimum as a cold solve.
//! let recosted = vec![
//!     vec![0.0, 2.0, 1.0],
//!     vec![3.0, 0.0, 1.0],
//!     vec![1.0, 5.0, 0.0],
//! ];
//! let (warm, _) = bipartite::solve(&pi, &recosted, Some(&basis)).unwrap();
//! let (cold, _) = bipartite::solve(&pi, &recosted, None).unwrap();
//! assert!(warm.warm_start && !cold.warm_start);
//! assert!((warm.cost - cold.cost).abs() < 1e-9);
//! ```

mod basis;
#[cfg(test)]
mod csr;
#[cfg(test)]
mod graph;
mod simplex;
#[cfg(test)]
mod ssp;

pub mod bipartite;

pub use basis::SpanningBasis;
pub use simplex::{FlowError, NetworkSimplex};

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
