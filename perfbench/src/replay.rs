//! The traced replay of compile-style ops: the same two phases the engine's
//! batch machinery runs (resolve one HTT graph per distinct
//! `(Hamiltonian, strategy)`, grouped by Hamiltonian; then one task per
//! op), each on `Engine::map`, with every layer call timed from here.

use std::sync::Arc;

use marqsim_circuit::{cancellation::cancel_gates, synthesis::sequence_circuit, GateStats};
use marqsim_core::metrics::SequenceStats;
use marqsim_core::transition::strategy_uses_gate_cancellation;
use marqsim_core::{Compiler, CompilerConfig, HttGraph, TransitionStrategy};
use marqsim_engine::{hamiltonian_fingerprint, Engine};
use marqsim_pauli::Hamiltonian;
use marqsim_sim::{exact::exact_unitary, fidelity::fidelity_with_matrix, UnitaryAccumulator};

use crate::layers::Layers;

/// The paper's three strategies: Baseline, MarQSim-GC, MarQSim-GC-RP.
/// [`Op::strategy`] indexes this list.
pub fn strategies() -> [TransitionStrategy; 3] {
    [
        TransitionStrategy::QDrift,
        TransitionStrategy::marqsim_gc(),
        TransitionStrategy::marqsim_gc_rp(),
    ]
}

/// One compile (or sweep point) as the benchmark replays it.
#[derive(Debug, Clone)]
pub struct Op {
    /// Index into [`strategies`].
    pub strategy: usize,
    pub time: f64,
    pub epsilon: f64,
    pub seed: u64,
    /// Synthesize the gate-level circuit and run gate cancellation.
    pub circuit: bool,
    /// Score the sampled sequence against the exact unitary.
    pub fidelity: bool,
}

/// The parts of a compile's output every workload checks for equality
/// between its untraced and traced runs.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOutput {
    pub num_samples: usize,
    pub stats: SequenceStats,
    pub circuit_stats: GateStats,
    /// Fidelity as raw bits, so equality is bit-exact.
    pub fidelity_bits: Option<u64>,
}

/// Replays one request — `ops` on `ham` — through the layer functions on
/// `engine`'s pool. Returns outputs in `ops` order.
///
/// # Errors
///
/// Returns a description of the first failed layer call or pool task.
pub fn replay_request(
    engine: &Arc<Engine>,
    layers: &Arc<Layers>,
    ham: &Hamiltonian,
    ops: &[Op],
) -> Result<Vec<OpOutput>, String> {
    // Phase 1: one task resolves the graph of every strategy the ops use,
    // in turn, so later builds reuse the cached `P_gc`.
    let mut used: Vec<usize> = ops.iter().map(|op| op.strategy).collect();
    used.sort_unstable();
    used.dedup();
    let all = strategies();
    let group = (
        ham.clone(),
        used.iter().map(|&i| all[i].clone()).collect::<Vec<_>>(),
    );
    let task_engine = Arc::clone(engine);
    let task_layers = Arc::clone(layers);
    let resolved = engine
        .map("trace/resolve", vec![group], move |_, (ham, group)| {
            task_layers.task(|| resolve_graphs(&task_engine, &task_layers, &ham, &group))
        })
        .pop()
        .ok_or("resolve task produced no output")?
        .map_err(|e| e.to_string())??;
    let graph_of = |strategy: usize| {
        let position = used
            .binary_search(&strategy)
            .expect("every op's strategy was resolved");
        Arc::clone(&resolved[position])
    };

    // Phase 2: one task per op.
    let items: Vec<(Arc<HttGraph>, Op)> = ops
        .iter()
        .map(|op| (graph_of(op.strategy), op.clone()))
        .collect();
    let task_layers = Arc::clone(layers);
    engine
        .map("trace/ops", items, move |_, (graph, op)| {
            task_layers.task(|| replay_op(&task_layers, &graph, &op))
        })
        .into_iter()
        .map(|result| result.map_err(|e| e.to_string())?)
        .collect()
}

fn resolve_graphs(
    engine: &Engine,
    layers: &Layers,
    ham: &Hamiltonian,
    strategies: &[TransitionStrategy],
) -> Result<Vec<Arc<HttGraph>>, String> {
    let cache = engine.cache();
    if strategies.iter().any(strategy_uses_gate_cancellation) {
        layers
            .time("flow.gc_solve_s", || cache.get_or_solve_gc(ham))
            .map_err(|e| e.to_string())?;
    }
    strategies
        .iter()
        .map(|strategy| {
            let layer = match strategy {
                TransitionStrategy::GateCancellationRandomPerturbation { .. } => "flow.rp_build_s",
                _ => "core.htt_build_s",
            };
            layers
                .time(layer, || cache.get_or_build(ham, strategy))
                .map_err(|e| e.to_string())
        })
        .collect()
}

fn replay_op(layers: &Layers, graph: &HttGraph, op: &Op) -> Result<OpOutput, String> {
    let config = CompilerConfig::new(op.time, op.epsilon)
        .with_seed(op.seed)
        .without_circuit();
    let result = layers
        .time("core.compile_s", || {
            Compiler::new(config).compile_with_htt(graph)
        })
        .map_err(|e| e.to_string())?;
    layers.count("markov.samples", result.num_samples as f64);
    let num_qubits = result.hamiltonian.num_qubits();

    let circuit_stats = if op.circuit {
        let circuit = layers.time("circuit.synth_s", || {
            sequence_circuit(num_qubits, &result.rotation_sequence())
        });
        layers.count("circuit.gates_in", circuit.len() as f64);
        let (optimized, report) = layers.time("circuit.cancel_s", || cancel_gates(&circuit));
        layers.count("circuit.gates_removed", report.removed as f64);
        optimized.stats()
    } else {
        GateStats::default()
    };

    let fidelity_bits = if op.fidelity {
        let ham = &result.hamiltonian;
        let (accumulated, rotations) = layers.time("sim.accumulate_s", || {
            let rotations = result.rotation_sequence();
            let mut accumulated = UnitaryAccumulator::new(num_qubits);
            accumulated.apply_sequence(&rotations);
            (accumulated, rotations.len())
        });
        layers.count("sim.rotations", rotations as f64);
        layers.count(
            "sim.amp_updates",
            rotations as f64 * 4f64.powi(num_qubits as i32),
        );
        let exact = layers.time("sim.exact_s", || exact_unitary(ham, op.time));
        layers.count("sim.exact_calls", 1.0);
        layers.exact_key(hamiltonian_fingerprint(ham), op.time);
        let fidelity = layers.time("sim.trace_s", || fidelity_with_matrix(&accumulated, &exact));
        Some(fidelity.to_bits())
    } else {
        None
    };

    Ok(OpOutput {
        num_samples: result.num_samples,
        stats: result.stats,
        circuit_stats,
        fidelity_bits,
    })
}
