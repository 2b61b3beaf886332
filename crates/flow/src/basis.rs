//! The reusable spanning-tree basis for warm-start re-solves.
//!
//! A successful network-simplex solve ends on an optimal spanning-tree
//! basis: every arc is either basic (in the tree) or parked at one of its
//! bounds, and the arc flows are determined by that classification plus the
//! node balances. None of this depends on the arc *costs* — only on the
//! topology (nodes, arc endpoints, capacities) and the routed amount. A
//! [`SpanningBasis`] snapshots exactly the cost-independent part, so a
//! later solve over the same topology with different costs can restore the
//! basis, recompute the node potentials under the new costs (the
//! "re-pricing"), and re-pivot from a primal-feasible — typically
//! near-optimal — starting point instead of rebuilding from the artificial
//! big-M root.
//!
//! Reuse is only valid when the topology is unchanged; [`SpanningBasis`]
//! therefore carries a fingerprint over the structural inputs
//! ([`topology_fingerprint`]) and `SpanningBasis::matches` gates every
//! warm start. A mismatch (different node count, endpoints, capacities,
//! source/sink, or amount) silently degrades to a cold solve — never to a
//! wrong answer.

/// Basis classification of one arc. `Tree` arcs form the spanning tree
/// (including the artificial root arcs), non-basic arcs are parked at a
/// bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BasisArcState {
    /// In the spanning-tree basis.
    Tree,
    /// Non-basic at its lower bound (zero flow).
    Lower,
    /// Non-basic at its upper bound (flow == capacity).
    Upper,
}

impl BasisArcState {
    fn to_byte(self) -> u8 {
        match self {
            BasisArcState::Tree => 0,
            BasisArcState::Lower => 1,
            BasisArcState::Upper => 2,
        }
    }

    fn from_byte(byte: u8) -> Option<BasisArcState> {
        match byte {
            0 => Some(BasisArcState::Tree),
            1 => Some(BasisArcState::Lower),
            2 => Some(BasisArcState::Upper),
            _ => None,
        }
    }
}

/// FNV-1a over the structural (cost-independent) solve inputs: node count,
/// arc count, per-arc endpoints and capacity bits (`arcs` yields `(from,
/// to, capacity)` in arc-id order), source, sink, and the routed amount's
/// bits. Two solves with equal fingerprints present identical feasible
/// regions, so a basis from one is primal-feasible for the other. The
/// words and their order are part of the persisted basis format.
pub(crate) fn topology_fingerprint(
    num_nodes: usize,
    arcs: impl ExactSizeIterator<Item = (usize, usize, f64)>,
    source: usize,
    sink: usize,
    amount: f64,
) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(PRIME);
        }
    };
    eat(num_nodes as u64);
    eat(arcs.len() as u64);
    for (from, to, capacity) in arcs {
        eat(from as u64);
        eat(to as u64);
        eat(capacity.to_bits());
    }
    eat(source as u64);
    eat(sink as u64);
    eat(amount.to_bits());
    hash
}

/// A saved optimal spanning-tree basis from a network-simplex solve: the
/// per-arc basis states and flows for every real arc plus the artificial
/// root arcs, guarded by a topology fingerprint (see the
/// [module docs](self)). Node potentials are deliberately *not* stored —
/// they depend on the costs and are recomputed at warm start.
#[derive(Debug, Clone)]
pub struct SpanningBasis {
    pub(crate) topology: u64,
    /// Real node count of the network the basis was extracted from (the
    /// artificial root is node `num_nodes`).
    pub(crate) num_nodes: usize,
    /// Real arc count; artificial arcs follow at ids
    /// `num_real_arcs..num_real_arcs + num_nodes`.
    pub(crate) num_real_arcs: usize,
    /// Basis state per arc, real arcs first then artificial.
    pub(crate) states: Vec<BasisArcState>,
    /// Flow per arc, same indexing as `states`.
    pub(crate) flows: Vec<f64>,
}

impl SpanningBasis {
    /// The topology fingerprint the basis was extracted under.
    pub fn topology(&self) -> u64 {
        self.topology
    }

    /// Real node count of the originating network.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Real arc count of the originating network.
    pub fn num_real_arcs(&self) -> usize {
        self.num_real_arcs
    }

    /// Whether this basis may warm-start a solve over `num_nodes` nodes and
    /// `num_real_arcs` real arcs whose [`topology_fingerprint`] is
    /// `topology` (computed once per solve): the fingerprint and dimensions
    /// must be identical. Cost changes are exactly what warm starts are
    /// for; anything else invalidates the basis.
    pub(crate) fn matches(&self, num_nodes: usize, num_real_arcs: usize, topology: u64) -> bool {
        self.num_nodes == num_nodes
            && self.num_real_arcs == num_real_arcs
            && self.states.len() == self.num_real_arcs + self.num_nodes
            && self.flows.len() == self.states.len()
            && self.topology == topology
    }

    /// Serialized per-arc states (one byte each) for the persistence layer.
    pub fn state_bytes(&self) -> Vec<u8> {
        self.states.iter().map(|s| s.to_byte()).collect()
    }

    /// Per-arc flows, same indexing as [`Self::state_bytes`].
    pub fn flows(&self) -> &[f64] {
        &self.flows
    }

    /// Rebuilds a basis from its serialized parts, validating lengths and
    /// state encodings. Returns `None` for any inconsistency — a corrupt
    /// persisted basis must degrade to a cold solve, never panic.
    pub fn from_raw(
        topology: u64,
        num_nodes: usize,
        num_real_arcs: usize,
        state_bytes: &[u8],
        flows: Vec<f64>,
    ) -> Option<SpanningBasis> {
        let total = num_real_arcs.checked_add(num_nodes)?;
        if state_bytes.len() != total || flows.len() != total {
            return None;
        }
        if flows.iter().any(|f| !f.is_finite()) {
            return None;
        }
        let states = state_bytes
            .iter()
            .map(|&b| BasisArcState::from_byte(b))
            .collect::<Option<Vec<_>>>()?;
        Some(SpanningBasis {
            topology,
            num_nodes,
            num_real_arcs,
            states,
            flows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FlowNetwork;

    fn net() -> FlowNetwork {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 2.0, 1.0);
        net.add_edge(1, 2, 2.0, 4.0);
        net
    }

    #[test]
    fn fingerprint_ignores_costs_but_sees_structure() {
        let base = net().fingerprint(0, 2, 1.0);

        // Costs do not participate.
        let mut recosted = FlowNetwork::new(3);
        recosted.add_edge(0, 1, 2.0, 9.0);
        recosted.add_edge(1, 2, 2.0, -3.0);
        assert_eq!(recosted.fingerprint(0, 2, 1.0), base);

        // Capacities, endpoints, amount, and endpoints of the solve all do.
        let mut recap = net();
        recap.add_edge(0, 2, 1.0, 0.0);
        assert_ne!(recap.fingerprint(0, 2, 1.0), base);
        assert_ne!(net().fingerprint(0, 1, 1.0), base);
        assert_ne!(net().fingerprint(0, 2, 2.0), base);
    }

    #[test]
    fn solves_export_the_fingerprint_of_their_instance() {
        let _solving = crate::solving();
        let mut recosted = FlowNetwork::new(3);
        recosted.add_edge(0, 1, 2.0, 9.0);
        recosted.add_edge(1, 2, 2.0, -3.0);
        let (_, cold) = net().min_cost_flow_with_basis(0, 2, 1.0).unwrap();
        let (warm_flow, warm) = recosted.min_cost_flow_warm(0, 2, 1.0, &cold).unwrap();
        let (_, trivial) = net().min_cost_flow_with_basis(0, 2, 0.0).unwrap();
        assert!(warm_flow.warm_start);
        assert_eq!(cold.topology(), net().fingerprint(0, 2, 1.0));
        assert_eq!(warm.topology(), recosted.fingerprint(0, 2, 1.0));
        assert_eq!(trivial.topology(), net().fingerprint(0, 2, 0.0));
    }

    #[test]
    fn raw_round_trip_validates() {
        let basis = SpanningBasis {
            topology: 7,
            num_nodes: 3,
            num_real_arcs: 2,
            states: vec![BasisArcState::Tree; 5],
            flows: vec![0.5; 5],
        };
        let back = SpanningBasis::from_raw(
            basis.topology,
            basis.num_nodes,
            basis.num_real_arcs,
            &basis.state_bytes(),
            basis.flows().to_vec(),
        )
        .unwrap();
        assert_eq!(back.states, basis.states);
        assert_eq!(back.flows, basis.flows);

        // Bad state byte, bad lengths, and non-finite flows are rejected.
        assert!(SpanningBasis::from_raw(7, 3, 2, &[0, 1, 2, 3, 0], vec![0.0; 5]).is_none());
        assert!(SpanningBasis::from_raw(7, 3, 2, &[0; 4], vec![0.0; 5]).is_none());
        assert!(SpanningBasis::from_raw(7, 3, 2, &[0; 5], vec![f64::NAN; 5]).is_none());
    }

    #[test]
    fn from_raw_is_total() {
        use quickprop::{check, Config, Gen};

        // Small, huge, and overflow-adjacent dimensions.
        fn dim(g: &mut Gen) -> usize {
            match g.usize_in(0..4) {
                0 => g.usize_in(0..6),
                1 => usize::MAX - g.usize_in(0..3),
                2 => g.u64() as usize,
                _ => g.usize_in(0..1 << 20),
            }
        }
        check(
            "SpanningBasis::from_raw is total",
            Config::default().with_cases(512).with_seed(0xBA515),
            |g| {
                let consistent = g.bool(0.5);
                let (num_nodes, num_real) = if consistent {
                    (g.usize_in(0..6), g.usize_in(0..6))
                } else {
                    (dim(g), dim(g))
                };
                let len = |g: &mut Gen| {
                    if consistent {
                        num_nodes + num_real
                    } else {
                        g.usize_in(0..12)
                    }
                };
                let states_len = len(g);
                let flows_len = len(g);
                let states = (0..states_len)
                    .map(|_| g.usize_in(0..5) as u8)
                    .collect::<Vec<u8>>();
                let flows = (0..flows_len)
                    .map(|_| match g.usize_in(0..8) {
                        0 => f64::NAN,
                        1 => f64::NEG_INFINITY,
                        _ => g.f64_in(-4.0, 4.0),
                    })
                    .collect::<Vec<f64>>();
                (g.u64(), num_nodes, num_real, states, flows)
            },
            |(topology, num_nodes, num_real, states, flows)| {
                let Some(basis) = SpanningBasis::from_raw(
                    *topology,
                    *num_nodes,
                    *num_real,
                    states,
                    flows.clone(),
                ) else {
                    return Ok(());
                };
                // Accepted parts round-trip exactly.
                let intact = basis.topology() == *topology
                    && basis.num_nodes() == *num_nodes
                    && basis.num_real_arcs() == *num_real
                    && basis.state_bytes() == *states
                    && basis.flows() == flows.as_slice()
                    && flows.iter().all(|flow| flow.is_finite());
                if intact {
                    Ok(())
                } else {
                    Err("accepted parts do not round-trip".to_string())
                }
            },
        );
    }
}
