//! The compressed-sparse-row residual network of the test-only
//! successive-shortest-path oracle (`ssp`).
//!
//! Built directly from the immutable [`FlowNetwork`] edge list: for every
//! edge a forward arc and its zero-capacity residual twin, grouped by tail
//! node in insertion order.

use crate::graph::FlowNetwork;

/// Marker for residual arcs in [`Csr::edge_id`].
pub(crate) const NO_EDGE: usize = usize::MAX;

/// A mutable CSR residual network: for every original edge a forward arc
/// (capacity, cost, edge id) and a residual arc (zero capacity, negated
/// cost, no edge id), grouped by tail node.
#[derive(Debug)]
pub(crate) struct Csr {
    /// Arc range of node `u` is `start[u]..start[u + 1]`.
    pub start: Vec<usize>,
    /// Head node per arc.
    pub to: Vec<usize>,
    /// Residual capacity per arc (mutated during the solve).
    pub cap: Vec<f64>,
    /// Cost per arc (negated on residual arcs).
    pub cost: Vec<f64>,
    /// Flat index of the paired reverse arc.
    pub rev: Vec<usize>,
    /// Original edge id for forward arcs, [`NO_EDGE`] for residual arcs.
    pub edge_id: Vec<usize>,
}

impl Csr {
    /// Builds the residual network for one solve.
    pub fn build(network: &FlowNetwork) -> Csr {
        let n = network.num_nodes();
        let num_arcs = 2 * network.num_edges();
        let mut degree = vec![0usize; n];
        for edge in network.edges() {
            degree[edge.from] += 1;
            degree[edge.to] += 1;
        }
        let mut start = Vec::with_capacity(n + 1);
        start.push(0usize);
        for u in 0..n {
            start.push(start[u] + degree[u]);
        }

        let mut to = vec![0usize; num_arcs];
        let mut cap = vec![0.0f64; num_arcs];
        let mut cost = vec![0.0f64; num_arcs];
        let mut rev = vec![0usize; num_arcs];
        let mut edge_id = vec![NO_EDGE; num_arcs];
        // Fill in add_edge order, forward and residual arcs interleaved.
        let mut cursor = start[..n].to_vec();
        for (id, edge) in network.edges().iter().enumerate() {
            let fwd = cursor[edge.from];
            cursor[edge.from] += 1;
            let bwd = cursor[edge.to];
            cursor[edge.to] += 1;
            to[fwd] = edge.to;
            cap[fwd] = edge.capacity;
            cost[fwd] = edge.cost;
            rev[fwd] = bwd;
            edge_id[fwd] = id;
            to[bwd] = edge.from;
            cap[bwd] = 0.0;
            cost[bwd] = -edge.cost;
            rev[bwd] = fwd;
        }

        Csr {
            start,
            to,
            cap,
            cost,
            rev,
            edge_id,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.start.len() - 1
    }

    /// The arc index range of node `u`.
    pub fn arcs(&self, u: usize) -> std::ops::Range<usize> {
        self.start[u]..self.start[u + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_preserves_per_node_insertion_order() {
        // 0→1, 1→2, 0→2: node 1 sees the residual arc of 0→1 before the
        // forward arc of 1→2.
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 1.0, 1.0);
        net.add_edge(1, 2, 2.0, 3.0);
        net.add_edge(0, 2, 4.0, 5.0);
        let csr = Csr::build(&net);
        assert_eq!(csr.num_nodes(), 3);
        assert_eq!(csr.start, vec![0, 2, 4, 6]);
        // Node 0: forward 0→1, forward 0→2.
        assert_eq!(&csr.to[csr.arcs(0)], &[1, 2]);
        assert_eq!(&csr.edge_id[csr.arcs(0)], &[0, 2]);
        // Node 1: residual of 0→1, then forward 1→2.
        assert_eq!(&csr.to[csr.arcs(1)], &[0, 2]);
        assert_eq!(&csr.edge_id[csr.arcs(1)], &[NO_EDGE, 1]);
        assert_eq!(&csr.cost[csr.arcs(1)], &[-1.0, 3.0]);
        // Node 2: residual of 1→2, residual of 0→2.
        assert_eq!(&csr.to[csr.arcs(2)], &[1, 0]);
        assert_eq!(&csr.cap[csr.arcs(2)], &[0.0, 0.0]);
        // rev links pair up.
        for arc in 0..csr.to.len() {
            assert_eq!(csr.rev[csr.rev[arc]], arc);
        }
    }
}
