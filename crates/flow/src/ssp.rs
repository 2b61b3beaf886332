//! Successive shortest paths (Johnson potentials, Dijkstra inner loop): the
//! test-only cross-check oracle for the network simplex.
//!
//! It shares no code with the simplex beyond the network type, so agreement
//! between the two on optimal cost and error classification is evidence for
//! both. Potentials start from a Bellman–Ford pass, so negative edge costs
//! are supported; capacitated negative-cost cycles are not (this solves the
//! pure s→t problem and never circulates flow that does not serve the
//! demand, while the simplex also cancels such cycles).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::csr::{Csr, NO_EDGE};
use crate::graph::{FlowNetwork, FlowResult};
use crate::simplex::{FlowError, SolveProfile, CAP_EPS};

/// Binary-heap entry for Dijkstra (min-heap via reversed ordering).
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Computes a minimum-cost flow of `amount` units from `source` to `sink`,
/// reporting errors with the same classification as
/// [`FlowNetwork::min_cost_flow`]. `profile.pivots` counts augmenting paths.
pub(crate) fn solve(
    network: &FlowNetwork,
    source: usize,
    sink: usize,
    amount: f64,
) -> Result<FlowResult, FlowError> {
    network.validate_endpoints(source, sink)?;
    let n = network.num_nodes();
    let mut csr = Csr::build(network);
    let mut potentials = bellman_ford_potentials(&csr, source);
    let mut remaining = amount;
    let mut cost = 0.0;
    let mut edge_flows = vec![0.0f64; network.num_edges()];
    let mut iterations = 0u64;

    while remaining > CAP_EPS {
        iterations += 1;
        let (dist, prev) = dijkstra(&csr, source, &potentials);
        if dist[sink].is_infinite() {
            return Err(FlowError::Infeasible {
                routed: amount - remaining,
                requested: amount,
            });
        }
        for v in 0..n {
            if dist[v].is_finite() {
                potentials[v] += dist[v];
            }
        }
        // Walk the path sink → source twice: bottleneck, then augment.
        let path: Vec<usize> =
            std::iter::successors(prev[sink], |&arc| prev[csr.to[csr.rev[arc]]]).collect();
        let bottleneck = path.iter().fold(remaining, |b, &arc| b.min(csr.cap[arc]));
        for &arc in &path {
            let rev = csr.rev[arc];
            csr.cap[arc] -= bottleneck;
            csr.cap[rev] += bottleneck;
            cost += bottleneck * csr.cost[arc];
            match csr.edge_id[arc] {
                NO_EDGE => edge_flows[csr.edge_id[rev]] -= bottleneck,
                id => edge_flows[id] += bottleneck,
            }
        }
        remaining -= bottleneck;
    }

    Ok(FlowResult {
        amount,
        cost,
        edge_flows,
        warm_start: false,
        profile: SolveProfile {
            pivots: iterations,
            ..SolveProfile::default()
        },
    })
}

/// Shortest-path distances from `source` over arcs with residual capacity;
/// unreachable nodes get potential 0 so reduced costs stay finite.
fn bellman_ford_potentials(csr: &Csr, source: usize) -> Vec<f64> {
    let n = csr.num_nodes();
    let mut potentials = vec![f64::INFINITY; n];
    potentials[source] = 0.0;
    for _ in 0..n {
        let mut changed = false;
        for u in 0..n {
            if potentials[u].is_infinite() {
                continue;
            }
            for arc in csr.arcs(u) {
                let candidate = potentials[u] + csr.cost[arc];
                if csr.cap[arc] > CAP_EPS && candidate < potentials[csr.to[arc]] - 1e-15 {
                    potentials[csr.to[arc]] = candidate;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for p in &mut potentials {
        if p.is_infinite() {
            *p = 0.0;
        }
    }
    potentials
}

/// Dijkstra over residual arcs with reduced costs; returns distances and
/// the arc each node was reached by.
fn dijkstra(csr: &Csr, source: usize, potentials: &[f64]) -> (Vec<f64>, Vec<Option<usize>>) {
    let n = csr.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[source] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d > dist[u] + 1e-15 {
            continue;
        }
        for arc in csr.arcs(u) {
            if csr.cap[arc] <= CAP_EPS {
                continue;
            }
            let to = csr.to[arc];
            // Clamp tiny negative reduced costs caused by round-off.
            let reduced = (csr.cost[arc] + potentials[u] - potentials[to]).max(0.0);
            let nd = d + reduced;
            if nd + 1e-15 < dist[to] {
                dist[to] = nd;
                prev[to] = Some(arc);
                heap.push(HeapEntry { dist: nd, node: to });
            }
        }
    }
    (dist, prev)
}
