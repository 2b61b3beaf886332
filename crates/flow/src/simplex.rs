//! The primal network-simplex backend.
//!
//! Modeled on the classic spanning-tree formulation: the s→t demand is
//! turned into node excesses, an artificial root with big-M arcs provides
//! the initial (strongly feasible) spanning-tree basis, and pivots exchange
//! one entering non-basic arc for one leaving tree arc until no arc has a
//! priced-out violation. The entering arc is chosen by a **block-search
//! pivot rule**: candidate arcs are scanned in fixed-size blocks from a
//! rotating cursor and the most-violating arc of the first non-empty block
//! enters — a middle ground between Dantzig's full scan (best pivots, slow
//! scans) and first-eligible (fast scans, many pivots).
//!
//! The leaving arc is the first blocking arc on the entering arc's tail
//! side and the last blocking arc on its head side (traversal order along
//! the pivot cycle), which keeps the basis strongly feasible and thereby
//! avoids cycling on degenerate pivots. Because strong feasibility is a
//! heuristic-strength argument under floating-point pricing rather than a
//! proof, a two-stage watchdog backs it up: after `4·m` consecutive
//! degenerate pivots the pricing rule falls back to Bland's rule
//! (first-eligible by arc id, provably acyclic under exact arithmetic),
//! and a hard pivot cap turns any remaining non-termination into
//! [`FlowError::PivotLimit`] instead of a silent loop.
//!
//! **Warm starts.** A successful solve can export its optimal basis as a
//! [`SpanningBasis`]; a later solve over the identical topology with
//! different costs restores the saved arc states and flows, re-prices the
//! potentials under the new costs, and re-pivots — typically a handful of
//! pivots instead of rebuilding from the artificial root. The restored
//! basis is validated (spanning-tree shape, flow conservation, bounds)
//! and any mismatch falls back to a cold solve; the infeasibility
//! classification is shared between the two paths, so a cost change that
//! makes the instance unroutable reports the identical
//! [`FlowError::Infeasible`] either way.
//!
//! **Numeric scale.** The big-M cost on artificial arcs is rounded up to
//! a power of two so it carries no representation error of its own, and
//! the pricing threshold is scale-aware: an arc's violation must clear
//! `PRICE_EPS` *or* the cancellation noise floor of its reduced-cost
//! computation (`O(ε_mach · (|c| + |π_u| + |π_v|))`), whichever is larger.
//! With the absolute-only threshold, instances mixing O(big-M) potentials
//! and O(1) costs (1000+ strings, adversarial cost spreads) could
//! misclassify arcs whose true reduced cost sits inside the rounding noise
//! and pivot endlessly on them.
//!
//! **Pivot cost.** A pivot costs time in proportion to what it changes.
//! Removing the leaving arc cuts the tree in two, and the side of the
//! pivot cycle the leaving arc was found on says which endpoint of the
//! entering arc lies in the cut-off subtree. The pivot hangs that endpoint
//! below the other one through the entering arc and walks only that
//! subtree over the tree adjacency (intrusive lists of arc ends, so
//! linking and unlinking never allocate), resetting parent, depth and
//! potential through the same `π(parent) ± c` step the whole-tree
//! recompute uses. Every other node keeps its root path, so every
//! potential is the float sum a full recompute would give, bit for bit,
//! whatever the costs; the full recompute runs only on the initial basis.
//! Pricing streams a compact per-arc array (`u32` endpoints, cost, and a
//! sign in {−1, 0, +1} derived from the arc's state and residual) instead
//! of the full arcs, and computes the scale-aware tolerance only for an
//! arc that already beats the block's best violation and `PRICE_EPS`. The
//! pivot sequence, flows and exported basis are those of the whole-tree
//! recompute with full-arc pricing; test builds assert that after every
//! pivot and block scan. On `flow_bench`'s cold 500-string instance
//! (14 824 pivots, ~250k arcs) pricing fell from 1.56–1.70 s to
//! 0.37–0.55 s and tree updates from 0.36–0.49 s to 0.04–0.05 s, and the
//! solve from 1.30–1.81 s to 0.58–0.67 s (`BENCH.md`).

use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

use marqsim_obs::{metrics, trace};

use crate::basis::{topology_fingerprint, BasisArcState as ArcState, SpanningBasis};

/// Numerical tolerance for treating residual capacities as zero.
pub(crate) const CAP_EPS: f64 = 1e-12;

/// Reduced-cost violation threshold for pricing: an arc enters only if its
/// violation exceeds this, so float noise cannot drive endless pivots.
const PRICE_EPS: f64 = 1e-9;

/// Relative component of the pricing threshold: the reduced cost
/// `c + π(u) − π(v)` carries rounding error proportional to the magnitudes
/// of its terms, so the eligibility cut scales with them. ~450 ε_mach —
/// comfortably above the cancellation noise, relatively negligible.
const PRICE_REL_EPS: f64 = 1e-13;

/// Residual flow left on an artificial arc above this is classified as
/// infeasibility (the routed amount fell short of the request).
const INFEASIBLE_EPS: f64 = 1e-9;

/// Consecutive degenerate (zero-delta) pivots tolerated per arc before the
/// pricing rule falls back to Bland's rule.
const STALL_FACTOR: usize = 4;

/// The min-cost-flow backend every solve runs: primal network simplex (see
/// the [module docs](self)). A one-value type, so a configuration banner
/// can name the backend without anything selecting or branching on it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetworkSimplex;

impl NetworkSimplex {
    /// The backend's stable name.
    pub const fn as_str(self) -> &'static str {
        "network_simplex"
    }
}

/// Errors produced by a min-cost-flow solve.
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

/// Profiling for one solve: `init` runs from the start of the caller's arc
/// construction to the first pivot (arcs, fingerprint, basis restore or
/// artificial start, tree), `optimize` is the pivot loop, and `pivots`
/// counts basis exchanges.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct SolveProfile {
    /// Basis exchanges.
    pub(crate) pivots: u64,
    /// Seconds spent building per-solve working state.
    pub(crate) init_seconds: f64,
    /// Seconds spent in the optimization loop.
    pub(crate) optimize_seconds: f64,
}

/// One arc of the simplex's working array. Callers build the real arcs
/// ([`Arc::real`]), in the order that numbers them; the solve appends one
/// artificial arc per node.
#[derive(Debug, Clone)]
pub(crate) struct Arc {
    from: usize,
    to: usize,
    upper: f64,
    cost: f64,
    pub(crate) flow: f64,
    state: ArcState,
}

impl Arc {
    /// A real arc from `from` to `to` with capacity `upper` and unit cost
    /// `cost`, empty and at its lower bound.
    pub(crate) fn real(from: usize, to: usize, upper: f64, cost: f64) -> Self {
        Self {
            from,
            to,
            upper,
            cost,
            flow: 0.0,
            state: ArcState::Lower,
        }
    }

    fn residual(&self) -> f64 {
        self.upper - self.flow
    }
}

/// The outcome of a successful [`solve`].
pub(crate) struct Solved {
    /// The arcs at the optimum: the caller's real arcs in its order, then
    /// the artificial arcs.
    pub(crate) arcs: Vec<Arc>,
    /// Total cost `Σ f(a) · c(a)` over the real arcs.
    pub(crate) cost: f64,
    /// Whether the solve re-pivoted the offered basis.
    pub(crate) warm_start: bool,
    pub(crate) profile: SolveProfile,
    /// The optimal basis, for later warm starts.
    pub(crate) basis: SpanningBasis,
}

/// Big-M cost for the artificial arcs of a `nodes`-node network whose arc
/// costs are at most `max_abs_cost` in magnitude: any simple path of real
/// arcs is cheaper, so the optimum drives artificial flow to its minimum
/// (zero when the demand is routable, the unroutable remainder otherwise).
/// Rounded up to a power of two so M itself is exactly representable and
/// adds no rounding error of its own to the potentials it dominates.
fn big_m(nodes: usize, max_abs_cost: f64) -> f64 {
    f64::powi(
        2.0,
        (1.0 + (nodes as f64) * max_abs_cost).log2().ceil() as i32,
    )
}

/// Whether the pivots of a `nodes`-node network with arc costs at most
/// `max_abs_cost` in magnitude stay finite. Every node's root path
/// crosses one artificial arc, so potentials stay below `2M` and reduced
/// costs below `5M`; `8M` must therefore be finite.
pub(crate) fn costs_fit(nodes: usize, max_abs_cost: f64) -> bool {
    (8.0 * big_m(nodes, max_abs_cost)).is_finite()
}

/// The pricing view of one arc, kept beside the full [`Arc`] so a block
/// scan streams 24 bytes per arc instead of 48. `sign` turns the reduced
/// cost into the pricing violation: `−1` at a lower bound with headroom,
/// `+1` at an upper bound, `0` for tree arcs and saturated lower-bound
/// arcs. It is derived from the arc's state and residual, and the pivot
/// refreshes it for the two arcs whose state changes.
#[derive(Debug, Clone, Copy)]
struct PriceArc {
    from: u32,
    to: u32,
    cost: f64,
    sign: f64,
}

impl PriceArc {
    /// Node ids are stored as `u32`. The cast cannot truncate: a solve
    /// allocates its per-node arrays (one artificial arc per node among
    /// them) before this runs, and those of a 2³²-node network do not fit
    /// in memory.
    fn of(arc: &Arc) -> Self {
        Self {
            from: arc.from as u32,
            to: arc.to as u32,
            cost: arc.cost,
            sign: violation_sign(arc),
        }
    }

    /// The pricing violation `sign · (c + π(from) − π(to))`: positive iff
    /// pivoting the arc in improves the objective. Multiplying by ±1 is
    /// exact, so this equals the full-arc definition the tests check it
    /// against (a zero sign may give `-0.0`, which compares equal to `0.0`).
    fn violation(&self, potential: &[f64]) -> f64 {
        self.sign * (self.cost + potential[self.from as usize] - potential[self.to as usize])
    }

    /// Scale-aware eligibility threshold: the fixed `PRICE_EPS` floor or
    /// the rounding-noise scale of the reduced-cost cancellation,
    /// whichever is larger. Potentials on instances still carrying big-M
    /// artificial arcs in the basis are O(M); comparing their O(M·ε_mach)
    /// cancellation noise against an absolute 1e-9 misclassifies arcs once
    /// `M` crosses ~1e7 (1000+ strings with wide cost spreads).
    fn tolerance(&self, potential: &[f64]) -> f64 {
        let scale = self.cost.abs()
            + potential[self.from as usize].abs()
            + potential[self.to as usize].abs();
        PRICE_EPS.max(PRICE_REL_EPS * scale)
    }

    /// Whether the arc may enter the basis.
    fn eligible(&self, potential: &[f64]) -> bool {
        self.violation(potential) > self.tolerance(potential)
    }
}

/// End-of-list marker in the tree adjacency lists.
const NO_END: usize = usize::MAX;

#[cfg_attr(test, derive(Clone))]
struct Tree {
    /// Parent node (`usize::MAX` at the root).
    parent: Vec<usize>,
    /// Arc id connecting a node to its parent.
    parent_arc: Vec<usize>,
    depth: Vec<usize>,
    potential: Vec<f64>,
    /// Tree adjacency as intrusive doubly linked lists of arc ends: end
    /// `2a` is arc `a` in its `from` node's list, end `2a + 1` in its `to`
    /// node's list. Linking and unlinking a basic arc is O(1) and never
    /// allocates. An end's links are written when it is linked and read
    /// only while it is, so the per-end arrays need no fill: they start
    /// zeroed, which the allocator can provide without writing them.
    first_end: Vec<usize>,
    next_end: Vec<usize>,
    prev_end: Vec<usize>,
    /// Depth-first stack shared by the whole-tree recompute and the
    /// subtree re-hang. It holds each node at most once, so its
    /// node-count capacity never grows.
    stack: Vec<usize>,
}

impl Tree {
    fn new(nodes: usize, arcs: usize) -> Self {
        Self {
            parent: vec![usize::MAX; nodes],
            parent_arc: vec![usize::MAX; nodes],
            depth: vec![0; nodes],
            potential: vec![0.0; nodes],
            first_end: vec![NO_END; nodes],
            next_end: vec![0; 2 * arcs],
            prev_end: vec![0; 2 * arcs],
            stack: Vec::with_capacity(nodes),
        }
    }

    /// Adds basic arc `arc_id` to the adjacency lists of both endpoints.
    fn link(&mut self, arc_id: usize, arc: &Arc) {
        self.push_end(2 * arc_id, arc.from);
        self.push_end(2 * arc_id + 1, arc.to);
    }

    /// Removes arc `arc_id` from the adjacency lists of both endpoints.
    fn unlink(&mut self, arc_id: usize, arc: &Arc) {
        self.remove_end(2 * arc_id, arc.from);
        self.remove_end(2 * arc_id + 1, arc.to);
    }

    fn push_end(&mut self, end: usize, node: usize) {
        let head = self.first_end[node];
        self.next_end[end] = head;
        self.prev_end[end] = NO_END;
        if head != NO_END {
            self.prev_end[head] = end;
        }
        self.first_end[node] = end;
    }

    fn remove_end(&mut self, end: usize, node: usize) {
        let (prev, next) = (self.prev_end[end], self.next_end[end]);
        if prev == NO_END {
            self.first_end[node] = next;
        } else {
            self.next_end[prev] = next;
        }
        if next != NO_END {
            self.prev_end[next] = prev;
        }
    }

    /// Hangs `child` below `parent` through basic arc `arc_id`. Tree arcs
    /// have zero reduced cost, which fixes `π(child)` from `π(parent)`;
    /// the whole-tree recompute and the subtree re-hang both come through
    /// here, so every potential is the same float sum over its root path.
    fn attach(&mut self, child: usize, parent: usize, arc_id: usize, arc: &Arc) {
        self.parent[child] = parent;
        self.parent_arc[child] = arc_id;
        self.depth[child] = self.depth[parent] + 1;
        self.potential[child] = if arc.from == parent {
            // parent → child basic: c + π(parent) − π(child) = 0.
            self.potential[parent] + arc.cost
        } else {
            self.potential[parent] - arc.cost
        };
    }
}

/// The node across arc end `end` (see [`Tree::first_end`]).
fn far_node(arcs: &[Arc], end: usize) -> usize {
    let arc = &arcs[end / 2];
    if end.is_multiple_of(2) {
        arc.to
    } else {
        arc.from
    }
}

/// Solves a min-cost flow of `amount > 0` units from `source` to `sink`
/// (distinct nodes below `nodes`) over the real `arcs`, warm from `warm`
/// when it matches. `started` is when the caller began building `arcs`;
/// the init phase runs from there to the first pivot.
///
/// The instance's [`topology_fingerprint`] is computed once here; a basis
/// whose fingerprint or dimensions differ is never offered to the
/// simplex, and one that fails validation falls back to a cold solve, so
/// a stale or corrupt basis can cost time but never correctness.
///
/// Every solve is telemetered: one `flow_solve` trace span, plus the
/// registry's solve counters and latency/phase histograms (see
/// `docs/observability.md`). On an actual warm start the solve also bumps
/// `marqsim_flow_warm_starts_total` and records the re-pivot time in
/// `marqsim_flow_repivot_seconds`.
pub(crate) fn solve(
    nodes: usize,
    arcs: Vec<Arc>,
    source: usize,
    sink: usize,
    amount: f64,
    warm: Option<&SpanningBasis>,
    started: Instant,
) -> Result<Solved, FlowError> {
    let topology = topology_fingerprint(
        nodes,
        arcs.iter().map(|arc| (arc.from, arc.to, arc.upper)),
        source,
        sink,
        amount,
    );
    // The span's `warm` field reports whether a matching basis was
    // offered; `Solved::warm_start` whether it was reused.
    let warm = warm.filter(|basis| basis.matches(nodes, arcs.len(), topology));
    let span = trace::Span::enter("flow_solve")
        .field("nodes", nodes)
        .field("edges", arcs.len())
        .field("warm", warm.is_some());
    let num_real = arcs.len();
    let result = optimize(nodes, arcs, source, sink, amount, warm, started).map(
        |(arcs, warm_start, profile)| Solved {
            cost: arcs[..num_real]
                .iter()
                .fold(0.0, |cost, arc| cost + arc.flow * arc.cost),
            basis: SpanningBasis {
                topology,
                num_nodes: nodes,
                num_real_arcs: num_real,
                states: arcs.iter().map(|a| a.state).collect(),
                flows: arcs.iter().map(|a| a.flow).collect(),
            },
            arcs,
            warm_start,
            profile,
        },
    );
    let instruments = flow_metrics();
    instruments
        .solve_seconds
        .record(started.elapsed().as_secs_f64());
    match &result {
        Ok(solved) => {
            let profile = &solved.profile;
            instruments.solves.inc();
            instruments.pivots.add(profile.pivots);
            if solved.warm_start {
                instruments.warm_starts.inc();
                instruments.repivot_seconds.record(profile.optimize_seconds);
            }
            instruments.init_seconds.record(profile.init_seconds);
            instruments
                .optimize_seconds
                .record(profile.optimize_seconds);
        }
        Err(_) => instruments.solve_errors.inc(),
    }
    drop(span);
    result
}

/// Cached global-registry handles for the flow instruments — registered
/// once, so the per-solve record path is atomics only.
struct FlowMetrics {
    solves: std::sync::Arc<metrics::Counter>,
    solve_errors: std::sync::Arc<metrics::Counter>,
    solve_seconds: std::sync::Arc<metrics::Histogram>,
    pivots: std::sync::Arc<metrics::Counter>,
    warm_starts: std::sync::Arc<metrics::Counter>,
    repivot_seconds: std::sync::Arc<metrics::Histogram>,
    init_seconds: std::sync::Arc<metrics::Histogram>,
    optimize_seconds: std::sync::Arc<metrics::Histogram>,
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

/// The simplex proper: artificial start or restored basis, then the pivot
/// loop, then the infeasibility classification shared by both starts.
/// Returns the optimal arcs, whether `warm` was re-pivoted, and the
/// profile.
fn optimize(
    n: usize,
    mut arcs: Vec<Arc>,
    source: usize,
    sink: usize,
    amount: f64,
    warm: Option<&SpanningBasis>,
    started: Instant,
) -> Result<(Vec<Arc>, bool, SolveProfile), FlowError> {
    let num_real = arcs.len();
    let root = n;

    let max_abs_cost = arcs.iter().map(|a| a.cost.abs()).fold(0.0f64, f64::max);
    let big_m = big_m(n, max_abs_cost);

    // One artificial arc per node after the real arcs. The source's
    // excess flows source→root, the sink's root→sink; every other node
    // is balanced and its artificial arc just completes the initial
    // basis with zero flow.
    arcs.reserve_exact(n);
    for v in 0..n {
        let excess = if v == source { amount } else { 0.0 };
        let deficit = if v == sink { amount } else { 0.0 };
        let (from, to, flow) = if excess >= deficit {
            (v, root, excess)
        } else {
            (root, v, deficit)
        };
        arcs.push(Arc {
            from,
            to,
            upper: f64::INFINITY,
            cost: big_m,
            flow,
            state: ArcState::Tree,
        });
    }
    let total_arcs = arcs.len();

    // Restore the offered (matching) basis. Flows and states are
    // cost-independent, so a valid basis is primal-feasible as-is; only
    // the potentials (recomputed below) change under new costs.
    let mut warm_used = warm.is_some_and(|basis| restore(&mut arcs, basis, source, sink, amount));

    let mut tree = Tree::new(n + 1, total_arcs);
    for (arc_id, arc) in arcs.iter().enumerate() {
        if arc.state == ArcState::Tree {
            tree.link(arc_id, arc);
        }
    }
    if recompute_tree(&mut tree, &arcs, root) != n + 1 {
        // The restored basis did not span every node (only possible
        // with a corrupt basis — the cold basis always spans): rebuild
        // the artificial starting basis and solve cold.
        debug_assert!(warm_used, "the cold initial basis always spans");
        warm_used = false;
        for (offset, arc) in arcs[num_real..].iter_mut().enumerate() {
            let v = offset;
            arc.flow = if v == source || v == sink {
                amount
            } else {
                0.0
            };
            arc.state = ArcState::Tree;
        }
        for arc in &mut arcs[..num_real] {
            arc.flow = 0.0;
            arc.state = ArcState::Lower;
        }
        tree.first_end.fill(NO_END);
        for (arc_id, arc) in arcs.iter().enumerate().skip(num_real) {
            tree.link(arc_id, arc);
        }
        let spanned = recompute_tree(&mut tree, &arcs, root);
        debug_assert_eq!(spanned, n + 1);
    }
    let mut priced: Vec<PriceArc> = arcs.iter().map(PriceArc::of).collect();

    // Block-search pricing with the Bland's-rule watchdog.
    let block = ((total_arcs as f64).sqrt().ceil() as usize)
        .max(16)
        .min(total_arcs);
    let num_blocks = total_arcs.div_ceil(block);
    let mut cursor = 0usize;
    let mut clean_blocks = 0usize;
    // Hard termination backstop far above any plausible pivot count;
    // exceeding it is reported as `PivotLimit`, never a silent break.
    let pivot_cap = 1000 + 64 * total_arcs;
    let stall_cap = STALL_FACTOR * total_arcs;
    let mut stalled = 0usize;
    let mut bland = false;
    let mut pivots = 0usize;
    let optimize_started = Instant::now();
    let init_seconds = optimize_started
        .saturating_duration_since(started)
        .as_secs_f64();

    loop {
        let entering = if bland {
            // Bland's rule: the first eligible arc by id. Slower per
            // scan, provably cycle-free ordering.
            (0..total_arcs).find(|&arc_id| priced[arc_id].eligible(&tree.potential))
        } else {
            let best = price_block(&priced, &tree.potential, cursor, block);
            #[cfg(test)]
            let best = reference::price_block(&arcs, &priced, &tree, cursor, block, best);
            cursor = (cursor + block) % total_arcs;
            best
        };
        match entering {
            None => {
                if bland {
                    // A full Bland scan found nothing eligible: optimal.
                    break;
                }
                clean_blocks += 1;
                if clean_blocks >= num_blocks {
                    break;
                }
            }
            Some(entering) => {
                clean_blocks = 0;
                let delta = pivot(&mut tree, &mut arcs, &mut priced, entering);
                pivots += 1;
                if pivots > pivot_cap {
                    return Err(FlowError::PivotLimit {
                        pivots: pivots as u64,
                    });
                }
                if delta > 0.0 {
                    stalled = 0;
                } else {
                    stalled += 1;
                    if stalled > stall_cap {
                        bland = true;
                    }
                }
            }
        }
    }

    // Any flow left on an artificial arc is demand the real network
    // could not carry — the identical classification on the cold and
    // warm paths.
    let leftover = arcs[num_real..]
        .iter()
        .map(|a| a.flow)
        .fold(0.0f64, f64::max);
    if leftover > INFEASIBLE_EPS {
        return Err(FlowError::Infeasible {
            routed: amount - leftover,
            requested: amount,
        });
    }

    let profile = SolveProfile {
        pivots: pivots as u64,
        init_seconds,
        optimize_seconds: optimize_started.elapsed().as_secs_f64(),
    };
    Ok((arcs, warm_used, profile))
}

/// Restores the saved per-arc states and flows onto a freshly built arc
/// list, validating bounds and flow conservation so a corrupt basis (e.g.
/// a tampered persisted file) degrades to a cold solve. Returns whether
/// the restore was applied.
fn restore(
    arcs: &mut [Arc],
    basis: &SpanningBasis,
    source: usize,
    sink: usize,
    amount: f64,
) -> bool {
    if basis.states.len() != arcs.len() {
        return false;
    }
    // Validate before mutating: bounds per arc, conservation per node.
    let amount_scale = basis
        .flows
        .iter()
        .fold(amount.abs().max(1.0), |acc, &flow| acc.max(flow.abs()));
    let bound_eps = 1e-9 * amount_scale;
    for (arc, &flow) in arcs.iter().zip(&basis.flows) {
        if !(-bound_eps..=arc.upper + bound_eps).contains(&flow) {
            return false;
        }
    }
    let mut balance = vec![0.0f64; basis.num_nodes + 1];
    for (arc, &flow) in arcs.iter().zip(&basis.flows) {
        balance[arc.from] -= flow;
        balance[arc.to] += flow;
    }
    // s–t conservation over real plus artificial arcs: the source emits
    // `amount`, the sink absorbs it, every other node (root included)
    // balances.
    balance[source] += amount;
    balance[sink] -= amount;
    let conservation_eps = 1e-7 * amount_scale;
    if balance.iter().any(|b| b.abs() > conservation_eps) {
        return false;
    }
    let tree_arcs = basis
        .states
        .iter()
        .filter(|&&s| s == ArcState::Tree)
        .count();
    if tree_arcs != basis.num_nodes {
        return false;
    }
    for ((arc, &state), &flow) in arcs.iter_mut().zip(&basis.states).zip(&basis.flows) {
        arc.state = state;
        arc.flow = flow;
    }
    true
}

/// One block of the block-search rule: the most-violating eligible arc
/// among `block` arcs from `cursor`, wrapping past the last arc. The
/// tolerance is only computed for an arc that already beats the best
/// violation and `PRICE_EPS`; it is never below `PRICE_EPS`, so the pick
/// is the one the full `violation > tolerance && violation > best` test
/// makes.
fn price_block(
    priced: &[PriceArc],
    potential: &[f64],
    cursor: usize,
    block: usize,
) -> Option<usize> {
    let total_arcs = priced.len();
    let mut best = None;
    let mut best_violation = 0.0f64;
    for index in cursor..cursor + block {
        let arc_id = if index >= total_arcs {
            index - total_arcs
        } else {
            index
        };
        let arc = &priced[arc_id];
        let violation = arc.violation(potential);
        if violation > best_violation
            && violation > PRICE_EPS
            && violation > arc.tolerance(potential)
        {
            best_violation = violation;
            best = Some(arc_id);
        }
    }
    best
}

/// The sign that turns an arc's reduced cost into its pricing violation:
/// lower-bound arcs want a negative reduced cost, upper-bound arcs a
/// positive one.
fn violation_sign(arc: &Arc) -> f64 {
    match arc.state {
        ArcState::Tree => 0.0,
        ArcState::Lower => {
            if arc.residual() > CAP_EPS {
                -1.0
            } else {
                0.0
            }
        }
        ArcState::Upper => 1.0,
    }
}

/// Recomputes parent/depth/potential for the whole tree from `root` using
/// the current tree adjacency, returning how many nodes were reached (a
/// valid spanning tree reaches all of them). Tree arcs have zero reduced
/// cost, which fixes every potential relative to `π(root) = 0`. Runs once
/// per solve on the initial basis, cold or restored; a restored basis may
/// be corrupt, hence the `visited` guard against cycles.
fn recompute_tree(tree: &mut Tree, arcs: &[Arc], root: usize) -> usize {
    tree.parent[root] = usize::MAX;
    tree.parent_arc[root] = usize::MAX;
    tree.depth[root] = 0;
    tree.potential[root] = 0.0;
    let mut visited = vec![false; tree.parent.len()];
    visited[root] = true;
    let mut reached = 1usize;
    tree.stack.clear();
    tree.stack.push(root);
    while let Some(u) = tree.stack.pop() {
        let mut end = tree.first_end[u];
        while end != NO_END {
            let v = far_node(arcs, end);
            if !visited[v] {
                visited[v] = true;
                reached += 1;
                tree.attach(v, u, end / 2, &arcs[end / 2]);
                tree.stack.push(v);
            }
            end = tree.next_end[end];
        }
    }
    reached
}

/// Re-hangs the subtree the leaving arc cut off: `child` (its node on the
/// entering arc) now hangs below `parent` through `entering`. Only the
/// subtree's parent, depth and potential change; every other node keeps
/// its root path and hence its values. In a tree the only neighbor of a
/// node that is not its child is across its parent arc, so the walk needs
/// no `visited` array.
fn rehang(tree: &mut Tree, arcs: &[Arc], child: usize, parent: usize, entering: usize) {
    tree.attach(child, parent, entering, &arcs[entering]);
    tree.stack.push(child);
    while let Some(u) = tree.stack.pop() {
        let mut end = tree.first_end[u];
        while end != NO_END {
            if end / 2 != tree.parent_arc[u] {
                let v = far_node(arcs, end);
                tree.attach(v, u, end / 2, &arcs[end / 2]);
                tree.stack.push(v);
            }
            end = tree.next_end[end];
        }
    }
}

/// One basis exchange around the entering arc's pivot cycle. Returns the
/// flow change `delta` pushed around the cycle (zero for a degenerate
/// pivot — the stall signal for the Bland's-rule watchdog).
fn pivot(tree: &mut Tree, arcs: &mut [Arc], priced: &mut [PriceArc], entering: usize) -> f64 {
    // Push direction: lower-bound arcs push from→to, upper-bound arcs
    // reverse flow to→from.
    let at_lower = arcs[entering].state == ArcState::Lower;
    let (tail, head) = if at_lower {
        (arcs[entering].from, arcs[entering].to)
    } else {
        (arcs[entering].to, arcs[entering].from)
    };

    // Walk both endpoints to the cycle apex, tracking the blocking arc with
    // the smallest residual in push direction. Tie rule (strong
    // feasibility): first blocking arc on the tail side (strict <), last on
    // the head side (<=).
    let mut delta = if at_lower {
        arcs[entering].residual()
    } else {
        arcs[entering].flow
    };
    let mut leaving = entering;
    // When the leaving arc blocks at its upper bound the basis exchange
    // parks it there; when it blocks at zero flow it parks at the lower
    // bound. The entering arc's own bound flips state instead.
    let mut leaving_at_upper = !at_lower;
    // A leaving arc on the tail side cuts off the subtree holding the
    // tail; one on the head side, the subtree holding the head.
    let mut leaving_on_tail = false;

    let (mut u, mut v) = (tail, head);
    while u != v {
        if tree.depth[u] >= tree.depth[v] {
            // Tail side: cycle direction runs parent→u, so an arc oriented
            // parent→u has residual headroom and an arc u→parent is drained.
            let arc_id = tree.parent_arc[u];
            let arc = &arcs[arc_id];
            let (room, hits_upper) = if arc.to == u {
                (arc.residual(), true)
            } else {
                (arc.flow, false)
            };
            if room < delta {
                delta = room;
                leaving = arc_id;
                leaving_at_upper = hits_upper;
                leaving_on_tail = true;
            }
            u = tree.parent[u];
        } else {
            // Head side: cycle direction runs v→parent.
            let arc_id = tree.parent_arc[v];
            let arc = &arcs[arc_id];
            let (room, hits_upper) = if arc.from == v {
                (arc.residual(), true)
            } else {
                (arc.flow, false)
            };
            if room <= delta {
                delta = room;
                leaving = arc_id;
                leaving_at_upper = hits_upper;
                leaving_on_tail = false;
            }
            v = tree.parent[v];
        }
    }

    // Apply the flow change around the cycle.
    if delta > 0.0 {
        if at_lower {
            arcs[entering].flow += delta;
        } else {
            arcs[entering].flow -= delta;
        }
        let (mut u, mut v) = (tail, head);
        while u != v {
            if tree.depth[u] >= tree.depth[v] {
                let arc_id = tree.parent_arc[u];
                if arcs[arc_id].to == u {
                    arcs[arc_id].flow += delta;
                } else {
                    arcs[arc_id].flow -= delta;
                }
                u = tree.parent[u];
            } else {
                let arc_id = tree.parent_arc[v];
                if arcs[arc_id].from == v {
                    arcs[arc_id].flow += delta;
                } else {
                    arcs[arc_id].flow -= delta;
                }
                v = tree.parent[v];
            }
        }
    }

    if leaving == entering {
        // The entering arc saturated before any tree arc blocked: it just
        // jumps to its other bound, the basis is unchanged.
        let arc = &mut arcs[entering];
        if at_lower {
            arc.flow = arc.upper;
            arc.state = ArcState::Upper;
        } else {
            arc.flow = 0.0;
            arc.state = ArcState::Lower;
        }
        priced[entering].sign = violation_sign(arc);
        return delta;
    }

    // Basis exchange: the leaving arc parks exactly at the bound it
    // blocked on, the entering arc joins the tree.
    {
        let arc = &mut arcs[leaving];
        if leaving_at_upper {
            arc.flow = arc.upper;
            arc.state = ArcState::Upper;
        } else {
            arc.flow = 0.0;
            arc.state = ArcState::Lower;
        }
        priced[leaving].sign = violation_sign(arc);
    }
    arcs[entering].state = ArcState::Tree;
    priced[entering].sign = 0.0;
    tree.unlink(leaving, &arcs[leaving]);
    tree.link(entering, &arcs[entering]);
    let (child, parent) = if leaving_on_tail {
        (tail, head)
    } else {
        (head, tail)
    };
    #[cfg(test)]
    if reference::active() {
        let root = tree.parent.len() - 1;
        recompute_tree(tree, arcs, root);
        return delta;
    }
    rehang(tree, arcs, child, parent, entering);
    #[cfg(test)]
    reference::check_tree(tree, arcs);
    delta
}

/// Test-only oracles for the incremental pivot. Every block scan checks
/// the compact pricing against the full-arc definitions below, and every
/// pivot checks the re-hung tree against a whole-tree recompute. In
/// reference mode ([`reference::run`]) the solve instead enters the full
/// scan's pick and recomputes the whole tree after every pivot — the
/// algorithm as it was before the incremental update.
#[cfg(test)]
mod reference {
    use std::cell::Cell;

    use super::*;

    thread_local! {
        static ACTIVE: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn active() -> bool {
        ACTIVE.with(Cell::get)
    }

    /// Runs `f` with reference mode on for this thread.
    pub(super) fn run<T>(f: impl FnOnce() -> T) -> T {
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                ACTIVE.with(|active| active.set(false));
            }
        }
        ACTIVE.with(|active| active.set(true));
        let _reset = Reset;
        f()
    }

    /// Reduced cost `c + π(from) − π(to)` of an arc under the tree
    /// potentials.
    fn reduced_cost(arc: &Arc, tree: &Tree) -> f64 {
        arc.cost + tree.potential[arc.from] - tree.potential[arc.to]
    }

    fn price_tolerance(arc: &Arc, tree: &Tree) -> f64 {
        let scale = arc.cost.abs() + tree.potential[arc.from].abs() + tree.potential[arc.to].abs();
        PRICE_EPS.max(PRICE_REL_EPS * scale)
    }

    /// Pricing violation: positive iff pivoting the arc in improves the
    /// objective (lower-bound arcs want negative reduced cost, upper-bound
    /// arcs positive).
    fn violation(arc: &Arc, tree: &Tree) -> f64 {
        match arc.state {
            ArcState::Tree => 0.0,
            ArcState::Lower => {
                if arc.residual() > CAP_EPS {
                    -reduced_cost(arc, tree)
                } else {
                    0.0
                }
            }
            ArcState::Upper => reduced_cost(arc, tree),
        }
    }

    /// The block scan over the full arcs, asserting per arc that the
    /// compact violation equals `violation`. Outside reference mode it
    /// also asserts that `lean` (the [`price_block`] pick) is this scan's
    /// pick; in reference mode this scan's pick enters.
    pub(super) fn price_block(
        arcs: &[Arc],
        priced: &[PriceArc],
        tree: &Tree,
        cursor: usize,
        block: usize,
        lean: Option<usize>,
    ) -> Option<usize> {
        let total_arcs = arcs.len();
        let mut best = None;
        let mut best_violation = 0.0f64;
        for offset in 0..block {
            let arc_id = (cursor + offset) % total_arcs;
            let arc = &arcs[arc_id];
            let violation = violation(arc, tree);
            assert_eq!(
                priced[arc_id].violation(&tree.potential),
                violation,
                "compact pricing of arc {arc_id}"
            );
            if violation > price_tolerance(arc, tree) && violation > best_violation {
                best_violation = violation;
                best = Some(arc_id);
            }
        }
        if !active() {
            assert_eq!(lean, best, "lean block pick");
        }
        best
    }

    /// Asserts that the re-hung tree is the one a whole-tree recompute
    /// builds, potentials bit for bit.
    pub(super) fn check_tree(tree: &Tree, arcs: &[Arc]) {
        let mut fresh = tree.clone();
        let nodes = tree.parent.len();
        assert_eq!(recompute_tree(&mut fresh, arcs, nodes - 1), nodes);
        assert_eq!(fresh.parent, tree.parent, "parents");
        assert_eq!(fresh.parent_arc, tree.parent_arc, "parent arcs");
        assert_eq!(fresh.depth, tree.depth, "depths");
        let bits = |potential: &[f64]| potential.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fresh.potential), bits(&tree.potential), "potentials");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::{self, BipartiteError, BipartiteFlow};
    use crate::graph::FlowNetwork;
    use crate::ssp;

    #[test]
    fn simplex_matches_ssp_on_a_grid_of_random_instances() {
        let _solving = crate::solving();
        // Deterministic xorshift-generated networks; optimal cost must agree
        // with the successive-shortest-path oracle to 1e-9.
        let mut state = 0x9e37_79b9u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..40 {
            let n = 3 + (next() % 6) as usize;
            let mut net = FlowNetwork::new(n);
            // A guaranteed backbone path plus random extras.
            for v in 0..n - 1 {
                net.add_edge(v, v + 1, 1.0 + (next() % 4) as f64, (next() % 9) as f64);
            }
            for _ in 0..2 * n {
                let u = (next() % n as u64) as usize;
                let v = (next() % n as u64) as usize;
                if u != v {
                    net.add_edge(u, v, (next() % 5) as f64 * 0.5, (next() % 11) as f64);
                }
            }
            let amount = 0.5 + (next() % 3) as f64 * 0.5;
            let oracle = ssp::solve(&net, 0, n - 1, amount);
            let ns = net.min_cost_flow(0, n - 1, amount);
            match (oracle, ns) {
                (Ok(a), Ok(b)) => {
                    assert!(
                        (a.cost - b.cost).abs() < 1e-9,
                        "case {case}: ssp {} vs simplex {}",
                        a.cost,
                        b.cost
                    );
                }
                (
                    Err(FlowError::Infeasible {
                        routed: ra,
                        requested: qa,
                    }),
                    Err(FlowError::Infeasible {
                        routed: rb,
                        requested: qb,
                    }),
                ) => {
                    assert!((ra - rb).abs() < 1e-9, "case {case}: routed {ra} vs {rb}");
                    assert_eq!(qa.to_bits(), qb.to_bits(), "case {case}");
                }
                (a, b) => panic!("case {case}: diverging classification {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn simplex_handles_saturating_parallel_arcs() {
        let _solving = crate::solving();
        let mut net = FlowNetwork::new(2);
        let a = net.add_edge(0, 1, 1.0, 3.0);
        let b = net.add_edge(0, 1, 2.0, 1.0);
        let r = net.min_cost_flow(0, 1, 2.5).unwrap();
        assert!((r.edge_flows[b] - 2.0).abs() < 1e-9, "cheap arc saturates");
        assert!((r.edge_flows[a] - 0.5).abs() < 1e-9);
        assert!((r.cost - (2.0 + 1.5)).abs() < 1e-9);
    }

    #[test]
    fn simplex_totally_disconnected_sink_is_infeasible_with_zero_routed() {
        let _solving = crate::solving();
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5.0, 1.0);
        let err = net.min_cost_flow(0, 2, 1.0).unwrap_err();
        match err {
            FlowError::Infeasible { routed, requested } => {
                assert!(routed.abs() < 1e-9);
                assert!((requested - 1.0).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn simplex_matches_ssp_under_adversarial_cost_spreads() {
        let _solving = crate::solving();
        // Regression for the big-M precision bug: costs spanning nine
        // orders of magnitude put the artificial arcs' M (and thus the
        // transient potentials) far beyond the old absolute 1e-9 pricing
        // tolerance's useful range. The relative (scale-aware) tolerance
        // must still land on the oracle's cost to relative 1e-9.
        let mut state = 0x51ed_270bu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..20 {
            let n = 6 + (next() % 5) as usize;
            let mut net = FlowNetwork::new(n);
            // Backbone path so the instance stays feasible, with costs
            // alternating between O(1e9) and O(1e-3).
            for v in 0..n - 1 {
                let cost = if v % 2 == 0 {
                    1e9 + (next() % 1000) as f64
                } else {
                    1e-3 * (next() % 1000) as f64
                };
                net.add_edge(v, v + 1, 1.0 + (next() % 3) as f64, cost);
            }
            for _ in 0..3 * n {
                let u = (next() % n as u64) as usize;
                let v = (next() % n as u64) as usize;
                if u != v {
                    // Non-negative spreads only: a capacitated negative
                    // cycle would put the instance outside the oracle's
                    // contract (ssp does not cancel cycles).
                    let cost = match next() % 3 {
                        0 => (next() % 2_000_000_000) as f64,
                        1 => 1e-6 * (next() % 1000) as f64,
                        _ => (next() % 100) as f64,
                    };
                    net.add_edge(u, v, 0.5 + (next() % 4) as f64 * 0.5, cost);
                }
            }
            let amount = 0.5 + (next() % 4) as f64 * 0.5;
            let oracle = ssp::solve(&net, 0, n - 1, amount)
                .unwrap_or_else(|e| panic!("case {case}: ssp failed: {e}"));
            let ns = net
                .min_cost_flow(0, n - 1, amount)
                .unwrap_or_else(|e| panic!("case {case}: simplex failed: {e}"));
            let scale = oracle.cost.abs().max(1.0);
            assert!(
                (oracle.cost - ns.cost).abs() <= 1e-9 * scale,
                "case {case}: ssp {} vs simplex {} (relative {})",
                oracle.cost,
                ns.cost,
                (oracle.cost - ns.cost).abs() / scale
            );
        }
    }

    #[test]
    fn warm_start_from_a_matching_basis_reaches_the_same_optimum() {
        let _solving = crate::solving();
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 2.0, 1.0);
        net.add_edge(0, 2, 2.0, 2.0);
        net.add_edge(1, 3, 2.0, 3.0);
        net.add_edge(2, 3, 2.0, 1.0);
        net.add_edge(1, 2, 1.0, 0.5);
        let (cold, basis) = net.min_cost_flow_with_basis(0, 3, 2.0).unwrap();
        assert!(!cold.warm_start);

        // Same topology, shifted costs: the warm solve must agree with a
        // fresh cold solve on the re-costed instance.
        let mut recosted = FlowNetwork::new(4);
        recosted.add_edge(0, 1, 2.0, 4.0);
        recosted.add_edge(0, 2, 2.0, 0.5);
        recosted.add_edge(1, 3, 2.0, 1.0);
        recosted.add_edge(2, 3, 2.0, 5.0);
        recosted.add_edge(1, 2, 1.0, 2.0);
        let (warm, _) = net.min_cost_flow_warm(0, 3, 2.0, &basis).unwrap();
        assert!(warm.warm_start, "matching basis must be reused");
        let (rewarm, _) = recosted.min_cost_flow_warm(0, 3, 2.0, &basis).unwrap();
        assert!(rewarm.warm_start);
        let (recold, _) = recosted.min_cost_flow_with_basis(0, 3, 2.0).unwrap();
        assert!(
            (rewarm.cost - recold.cost).abs() < 1e-9,
            "warm {} vs cold {}",
            rewarm.cost,
            recold.cost
        );
    }

    #[test]
    fn mismatched_or_corrupt_bases_fall_back_to_cold_solves() {
        let _solving = crate::solving();
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 2.0, 1.0);
        net.add_edge(1, 2, 2.0, 1.0);
        let (_, basis) = net.min_cost_flow_with_basis(0, 2, 1.0).unwrap();

        // Topology change: an extra edge invalidates the fingerprint.
        let mut grown = net.clone();
        grown.add_edge(0, 2, 1.0, 10.0);
        let (r, _) = grown.min_cost_flow_warm(0, 2, 1.0, &basis).unwrap();
        assert!(!r.warm_start, "fingerprint mismatch must solve cold");

        // Amount change invalidates too.
        let (r, _) = net.min_cost_flow_warm(0, 2, 1.5, &basis).unwrap();
        assert!(!r.warm_start);

        // A corrupt basis (conservation violated) is rejected by restore.
        let mut corrupt = basis.clone();
        corrupt.flows[0] += 0.5;
        let (r, _) = net.min_cost_flow_warm(0, 2, 1.0, &corrupt).unwrap();
        assert!(!r.warm_start, "corrupt flows must solve cold");
        assert!((r.cost - 2.0).abs() < 1e-9);

        // A corrupt basis with no spanning tree is rejected after the
        // adjacency rebuild.
        let mut no_tree = basis.clone();
        for state in &mut no_tree.states {
            *state = ArcState::Lower;
        }
        // Keep the tree-arc count plausible so the restore-time count
        // check alone does not catch it.
        for state in no_tree.states.iter_mut().take(no_tree.num_nodes) {
            *state = ArcState::Tree;
        }
        let (r, _) = net.min_cost_flow_warm(0, 2, 1.0, &no_tree).unwrap();
        assert!((r.cost - 2.0).abs() < 1e-9, "still the right answer");
    }

    #[test]
    fn trivial_solves_export_an_inert_basis() {
        let _solving = crate::solving();
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 2.0, 1.0);
        net.add_edge(1, 2, 2.0, 1.0);
        let (r, basis) = net.min_cost_flow_with_basis(0, 2, 0.0).unwrap();
        assert_eq!(r.cost, 0.0);
        let (nodes, edges) = (net.num_nodes(), net.num_edges());
        assert!(basis.matches(nodes, edges, net.fingerprint(0, 2, 0.0)));
        assert!(!basis.matches(nodes, edges, net.fingerprint(0, 2, 1.0)));
        let (r, _) = net.min_cost_flow_warm(0, 2, 1.0, &basis).unwrap();
        assert!(!r.warm_start, "a trivial basis never seeds a real solve");
        assert!((r.cost - 2.0).abs() < 1e-9);
    }

    #[test]
    fn warm_infeasible_classification_matches_cold() {
        let _solving = crate::solving();
        // A saturating instance: capacity 1.0 but 2.0 requested.
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 1.0, 1.0);
        net.add_edge(1, 2, 1.0, 1.0);
        let cold_err = net.min_cost_flow(0, 2, 2.0).unwrap_err();

        // Build a matching basis from the *feasible* 2.0-capacity variant?
        // No — the fingerprint covers capacities, so the only way to get a
        // matching basis for the infeasible instance is a feasible solve of
        // the same topology. Route the feasible 1.0 first, then warm-start
        // the 2.0 request: the fingerprint (amount differs) rejects reuse
        // and the cold path classifies. Either way the error must be
        // identical to the cold solve.
        let (_, basis) = net.min_cost_flow_with_basis(0, 2, 1.0).unwrap();
        let warm_err = net.min_cost_flow_warm(0, 2, 2.0, &basis).unwrap_err();
        assert_eq!(cold_err, warm_err);
        match warm_err {
            FlowError::Infeasible { routed, requested } => {
                assert!((routed - 1.0).abs() < 1e-9);
                assert!((requested - 2.0).abs() < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn degenerate_symmetric_instances_terminate_and_match_ssp() {
        let _solving = crate::solving();
        // Anti-cycling property: fully symmetric bipartite-like instances
        // (every cost equal, every capacity equal — the tiny-ising shape)
        // maximize degenerate ties. The solve must terminate without
        // tripping the pivot cap and agree with the ssp oracle.
        quickprop::check(
            "degenerate symmetric instances terminate",
            quickprop::Config::default().with_cases(40),
            |g| {
                let side = g.usize_in(2..6);
                let cost = (g.u64_in(0..=4)) as f64;
                let cap = 0.25 * (1 + g.u64_in(0..=3)) as f64;
                (side, cost, cap, g.u64())
            },
            |&(side, cost, cap, _seed)| {
                // S -> side left nodes -> side right nodes -> T, all arcs
                // identical: maximal symmetry, maximal degeneracy.
                let n = 2 * side + 2;
                let mut net = FlowNetwork::new(n);
                let (s, t) = (0, n - 1);
                for i in 0..side {
                    net.add_edge(s, 1 + i, cap, cost);
                    for j in 0..side {
                        net.add_edge(1 + i, 1 + side + j, cap, cost);
                    }
                    net.add_edge(1 + side + i, t, cap, cost);
                }
                let amount = cap * side as f64;
                let ns = net.min_cost_flow(s, t, amount);
                let oracle = ssp::solve(&net, s, t, amount);
                match (ns, oracle) {
                    (Ok(a), Ok(b)) => {
                        let scale = b.cost.abs().max(1.0);
                        if (a.cost - b.cost).abs() <= 1e-9 * scale {
                            Ok(())
                        } else {
                            Err(format!("cost mismatch: simplex {} ssp {}", a.cost, b.cost))
                        }
                    }
                    (Err(a), Err(b)) if a == b => Ok(()),
                    (a, b) => Err(format!("classification diverged: {a:?} vs {b:?}")),
                }
            },
        );
    }

    /// Bit-level equality of two solves: pivot count, flows and the
    /// exported basis.
    fn same_solve(
        got: &Result<(BipartiteFlow, SpanningBasis), BipartiteError>,
        want: &Result<(BipartiteFlow, SpanningBasis), BipartiteError>,
    ) -> Result<(), String> {
        let bits = |flows: &[f64]| flows.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        match (got, want) {
            (Ok((a, basis_a)), Ok((b, basis_b))) => {
                if a.pivots != b.pivots {
                    return Err(format!("pivots {} vs reference {}", a.pivots, b.pivots));
                }
                if bits(&a.flows.concat()) != bits(&b.flows.concat())
                    || a.warm_start != b.warm_start
                {
                    return Err("flows differ from the reference".into());
                }
                if basis_a.states != basis_b.states || bits(&basis_a.flows) != bits(&basis_b.flows)
                {
                    return Err("basis differs from the reference".into());
                }
                Ok(())
            }
            (Err(a), Err(b)) if a == b => Ok(()),
            (a, b) => Err(format!(
                "classification diverged: {:?} vs reference {:?}",
                a.as_ref().err(),
                b.as_ref().err()
            )),
        }
    }

    #[test]
    fn incremental_pivots_match_the_recompute_reference_cold_and_warm() {
        let _solving = crate::solving();
        // The re-hang and compact pricing must walk the same pivot path as
        // full-arc pricing with a whole-tree recompute after every pivot:
        // the same pivot count and bit-equal flows, cold and warm from a
        // basis solved under perturbed costs. The instances are
        // gate-cancellation shaped (diagonal excluded, small integer
        // costs), so ties and degenerate pivots abound.
        quickprop::check(
            "incremental pivots match the recompute reference",
            quickprop::Config::default(),
            |g| {
                let side = g.usize_in(2..12);
                let marginal: Vec<f64> = g.vec_of(side..side + 1, |g| g.f64_in(0.05, 1.0));
                let total: f64 = marginal.iter().sum();
                let marginal: Vec<f64> = marginal.iter().map(|p| p / total).collect();
                let costs: Vec<Vec<f64>> = (0..side)
                    .map(|_| (0..side).map(|_| g.u64_in(0..=6) as f64).collect())
                    .collect();
                let perturbed: Vec<Vec<f64>> = costs
                    .iter()
                    .map(|row| row.iter().map(|&c| c + g.u64_in(0..=1) as f64).collect())
                    .collect();
                (marginal, costs, perturbed)
            },
            |(marginal, costs, perturbed)| {
                let cold = bipartite::solve(marginal, costs, None);
                same_solve(
                    &cold,
                    &reference::run(|| bipartite::solve(marginal, costs, None)),
                )?;
                let Ok((_, basis)) = &cold else {
                    return Ok(());
                };
                let warm = bipartite::solve(marginal, perturbed, Some(basis));
                if let Ok((flow, _)) = &warm {
                    if !flow.warm_start {
                        return Err("the perturbed-cost basis was not reused".into());
                    }
                }
                let reference =
                    reference::run(|| bipartite::solve(marginal, perturbed, Some(basis)));
                same_solve(&warm, &reference)
            },
        );
    }

    #[test]
    fn pivot_limit_is_an_error_not_a_silent_break() {
        // There is no known input that trips the cap (that is the point of
        // the watchdog); assert the error type's contract instead.
        let err = FlowError::PivotLimit { pivots: 123 };
        assert!(err.to_string().contains("123"));
        assert_ne!(
            err,
            FlowError::Infeasible {
                routed: 0.0,
                requested: 1.0
            }
        );
    }
}
