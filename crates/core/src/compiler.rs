//! Algorithm 1: compilation as sampling from the Markov chain.

use marqsim_circuit::{cancellation, synthesis, Circuit, GateStats};
use marqsim_markov::sample::ChainSampler;
use marqsim_markov::TransitionMatrix;
use marqsim_pauli::{Hamiltonian, PauliString};

use crate::metrics::{merge_consecutive, merged_sequence_stats, SequenceStats};
use crate::{CompileError, HttGraph, TransitionStrategy};

/// Configuration of a [`Compiler`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompilerConfig {
    /// Evolution time `t` of the simulation `exp(iHt)`.
    pub time: f64,
    /// Target algorithmic precision `ε`; the sample count is
    /// `N = ⌈2 λ² t² / ε⌉` (Algorithm 1, line 2).
    pub epsilon: f64,
    /// How to build the transition matrix.
    pub strategy: TransitionStrategy,
    /// RNG seed for the sampling step.
    pub seed: u64,
    /// Optional override of the sample count (used by ablation experiments);
    /// when `None` the qDRIFT formula is used.
    pub sample_count_override: Option<usize>,
    /// Whether to synthesize the gate-level circuit (set to `false` for
    /// large sweeps that only need sequence statistics / fidelity).
    pub synthesize_circuit: bool,
    /// Whether to run the peephole cancellation pass on the synthesized
    /// circuit (the paper's baseline always applies gate cancellation).
    pub optimize_circuit: bool,
}

impl CompilerConfig {
    /// Creates a configuration with the default strategy
    /// ([`TransitionStrategy::marqsim_gc_rp`]) and seed 0.
    pub fn new(time: f64, epsilon: f64) -> Self {
        CompilerConfig {
            time,
            epsilon,
            strategy: TransitionStrategy::default(),
            seed: 0,
            sample_count_override: None,
            synthesize_circuit: true,
            optimize_circuit: true,
        }
    }

    /// Sets the transition-matrix strategy.
    pub fn with_strategy(mut self, strategy: TransitionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the number of sampling steps.
    pub fn with_sample_count(mut self, n: usize) -> Self {
        self.sample_count_override = Some(n);
        self
    }

    /// Disables gate-level circuit synthesis (sequence statistics only).
    pub fn without_circuit(mut self) -> Self {
        self.synthesize_circuit = false;
        self
    }
}

/// The output of a compilation.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// The sampled term indices, one per sampling step (length
    /// [`Self::num_samples`]). Indices refer to [`Self::hamiltonian`].
    pub sequence: Vec<usize>,
    /// The sequence with consecutive repeats merged into
    /// `(index, multiplicity)` segments.
    pub merged_sequence: Vec<(usize, usize)>,
    /// The rotation angle applied per sample, `λ t / N`.
    pub angle_per_sample: f64,
    /// Number of sampling steps `N`.
    pub num_samples: usize,
    /// `λ = Σ_j |h_j|`.
    pub lambda: f64,
    /// The Hamiltonian the indices refer to (dominant terms split if needed).
    pub hamiltonian: Hamiltonian,
    /// The transition matrix that was sampled (shared with the `HttGraph`
    /// it came from — no per-compile row copy).
    pub transition: std::sync::Arc<TransitionMatrix>,
    /// The synthesized circuit (empty when
    /// [`CompilerConfig::synthesize_circuit`] is `false`).
    pub circuit: Circuit,
    /// Gate statistics of the synthesized circuit (all zeros when synthesis
    /// is disabled).
    pub circuit_stats: GateStats,
    /// Sequence-level gate statistics (the paper's accounting model).
    pub stats: SequenceStats,
}

impl CompileResult {
    /// The term sequence as `(PauliString, angle)` pairs, with merged
    /// multiplicities folded into the angles and coefficient signs applied.
    pub fn rotation_sequence(&self) -> Vec<(PauliString, f64)> {
        self.merged_sequence
            .iter()
            .map(|&(idx, mult)| {
                let term = self.hamiltonian.term(idx);
                (
                    term.string.clone(),
                    term.coefficient.signum() * self.angle_per_sample * mult as f64,
                )
            })
            .collect()
    }
}

/// The MarQSim compiler (Algorithm 1).
#[derive(Debug, Clone)]
pub struct Compiler {
    config: CompilerConfig,
}

impl Compiler {
    /// Creates a compiler with the given configuration.
    pub fn new(config: CompilerConfig) -> Self {
        Compiler { config }
    }

    /// Borrow of the configuration.
    pub fn config(&self) -> &CompilerConfig {
        &self.config
    }

    fn validate_config(&self) -> Result<(), CompileError> {
        let cfg = &self.config;
        if !(cfg.time.is_finite() && cfg.time > 0.0) {
            return Err(CompileError::InvalidConfig {
                reason: format!("evolution time must be positive, got {}", cfg.time),
            });
        }
        if !(cfg.epsilon.is_finite() && cfg.epsilon > 0.0) {
            return Err(CompileError::InvalidConfig {
                reason: format!("target precision must be positive, got {}", cfg.epsilon),
            });
        }
        Ok(())
    }

    /// Compiles `exp(iHt)` for the given Hamiltonian.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if the configuration is invalid or the
    /// transition matrix cannot be constructed.
    pub fn compile(&self, ham: &Hamiltonian) -> Result<CompileResult, CompileError> {
        self.validate_config()?;
        // Step 1: build the HTT graph (splits dominant terms if needed).
        let htt = HttGraph::build(ham, &self.config.strategy)?;
        self.compile_with_htt(&htt)
    }

    /// Compiles against a pre-built [`HttGraph`], skipping transition-matrix
    /// construction (steps 2–4 of Algorithm 1).
    ///
    /// The graph already embodies a transition strategy, so
    /// [`CompilerConfig::strategy`] is ignored on this path. This is the
    /// entry point the `marqsim-engine` transition cache uses: the HTT graph
    /// — whose min-cost-flow solve dominates the compile time — is built
    /// once per (Hamiltonian, strategy) and shared across every shot and
    /// sweep point, while sampling stays governed by the per-compile seed.
    /// For any fixed graph and configuration the output is identical to
    /// [`Compiler::compile`] on the Hamiltonian and strategy the graph was
    /// built from.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if the configuration is invalid.
    pub fn compile_with_htt(&self, htt: &HttGraph) -> Result<CompileResult, CompileError> {
        self.validate_config()?;
        let cfg = &self.config;
        let working = htt.hamiltonian().clone();
        let lambda = working.lambda();

        // Step 2: N = ceil(2 λ² t² / ε).
        let num_samples = cfg.sample_count_override.unwrap_or_else(|| {
            ((2.0 * lambda * lambda * cfg.time * cfg.time) / cfg.epsilon).ceil() as usize
        });
        let num_samples = num_samples.max(1);
        let angle_per_sample = lambda * cfg.time / num_samples as f64;

        // Step 3: sample the Markov chain.
        let sampler = ChainSampler::new(htt.transition_matrix(), htt.stationary_distribution());
        let sequence = sampler.sample_trajectory_seeded(num_samples, cfg.seed);
        let merged_sequence = merge_consecutive(&sequence);
        let stats = merged_sequence_stats(&working, &merged_sequence);

        // Step 4: synthesize the circuit (optional).
        let (circuit, circuit_stats) = if cfg.synthesize_circuit {
            let mut circuit = Circuit::new(working.num_qubits());
            for &(idx, mult) in &merged_sequence {
                let term = working.term(idx);
                let angle = term.coefficient.signum() * angle_per_sample * mult as f64;
                synthesis::append_pauli_rotation(&mut circuit, &term.string, angle);
            }
            let circuit = if cfg.optimize_circuit {
                cancellation::cancel_gates(&circuit).0
            } else {
                circuit
            };
            let stats = circuit.stats();
            (circuit, stats)
        } else {
            (Circuit::new(working.num_qubits()), GateStats::default())
        };

        Ok(CompileResult {
            sequence,
            merged_sequence,
            angle_per_sample,
            num_samples,
            lambda,
            hamiltonian: working,
            transition: htt.transition_matrix_arc(),
            circuit,
            circuit_stats,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate_fidelity;
    use marqsim_sim::{exact, fidelity, UnitaryAccumulator};

    fn example() -> Hamiltonian {
        Hamiltonian::parse("1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.1 ZXZY").unwrap()
    }

    fn config(strategy: TransitionStrategy) -> CompilerConfig {
        CompilerConfig::new(std::f64::consts::FRAC_PI_4, 0.05)
            .with_strategy(strategy)
            .with_seed(11)
    }

    #[test]
    fn sample_count_follows_the_qdrift_formula() {
        let ham = example();
        let cfg = config(TransitionStrategy::QDrift);
        let result = Compiler::new(cfg.clone()).compile(&ham).unwrap();
        let lambda = ham.lambda();
        let expected =
            ((2.0 * lambda * lambda * cfg.time * cfg.time) / cfg.epsilon).ceil() as usize;
        assert_eq!(result.num_samples, expected);
        assert_eq!(result.sequence.len(), expected);
        assert!((result.angle_per_sample - lambda * cfg.time / expected as f64).abs() < 1e-12);
    }

    #[test]
    fn compilation_is_deterministic_for_a_seed() {
        let ham = example();
        let a = Compiler::new(config(TransitionStrategy::marqsim_gc()))
            .compile(&ham)
            .unwrap();
        let b = Compiler::new(config(TransitionStrategy::marqsim_gc()))
            .compile(&ham)
            .unwrap();
        assert_eq!(a.sequence, b.sequence);
        let c = Compiler::new(config(TransitionStrategy::marqsim_gc()).with_seed(12))
            .compile(&ham)
            .unwrap();
        assert_ne!(a.sequence, c.sequence);
    }

    #[test]
    fn qdrift_empirical_distribution_matches_pi() {
        let ham = example();
        let cfg = config(TransitionStrategy::QDrift).with_sample_count(50_000);
        let result = Compiler::new(cfg).compile(&ham).unwrap();
        let pi = ham.stationary_distribution();
        let mut counts = [0usize; 4];
        for &s in &result.sequence {
            counts[s] += 1;
        }
        for (c, p) in counts.iter().zip(pi.iter()) {
            let freq = *c as f64 / result.sequence.len() as f64;
            assert!((freq - p).abs() < 0.01, "{freq} vs {p}");
        }
    }

    #[test]
    fn markov_sampling_also_matches_pi_marginally() {
        // Even with the GC-tuned chain, the long-run marginal distribution of
        // sampled terms must stay π (that is what Theorem 4.1 guarantees).
        let ham = example();
        let cfg = config(TransitionStrategy::marqsim_gc()).with_sample_count(50_000);
        let result = Compiler::new(cfg).compile(&ham).unwrap();
        let pi = ham.stationary_distribution();
        let mut counts = [0usize; 4];
        for &s in &result.sequence {
            counts[s] += 1;
        }
        for (c, p) in counts.iter().zip(pi.iter()) {
            let freq = *c as f64 / result.sequence.len() as f64;
            assert!((freq - p).abs() < 0.015, "{freq} vs {p}");
        }
    }

    #[test]
    fn gc_strategy_reduces_cnot_count_vs_baseline() {
        let ham = Hamiltonian::parse(
            "0.9 ZZZZI + 0.8 ZZIZI + 0.7 XXIII + 0.6 IYYII + 0.5 IIZZZ + 0.4 XYXYI + 0.3 IZIZZ + 0.2 YYIII",
        )
        .unwrap();
        let n = 4000;
        let baseline = Compiler::new(
            config(TransitionStrategy::QDrift)
                .with_sample_count(n)
                .without_circuit(),
        )
        .compile(&ham)
        .unwrap();
        let gc = Compiler::new(
            config(TransitionStrategy::marqsim_gc())
                .with_sample_count(n)
                .without_circuit(),
        )
        .compile(&ham)
        .unwrap();
        assert!(
            gc.stats.cnot < baseline.stats.cnot,
            "GC ({}) should beat baseline ({})",
            gc.stats.cnot,
            baseline.stats.cnot
        );
    }

    #[test]
    fn synthesized_circuit_unitary_matches_rotation_sequence() {
        let ham = example();
        let cfg = config(TransitionStrategy::marqsim_gc()).with_sample_count(40);
        let result = Compiler::new(cfg).compile(&ham).unwrap();
        // Unitary from the gate-level circuit.
        let mut via_gates = UnitaryAccumulator::new(ham.num_qubits());
        via_gates.apply_circuit(&result.circuit);
        // Unitary from the rotation sequence.
        let mut via_rotations = UnitaryAccumulator::new(ham.num_qubits());
        via_rotations.apply_sequence(&result.rotation_sequence());
        let f = fidelity::fidelity(&via_gates.to_matrix(), &via_rotations.to_matrix());
        assert!(f > 1.0 - 1e-9, "fidelity {f}");
    }

    #[test]
    fn compiled_circuit_approximates_the_exact_evolution() {
        let ham = Hamiltonian::parse("0.6 XZ + 0.4 ZY + 0.3 XX").unwrap();
        let cfg = CompilerConfig::new(0.5, 0.01)
            .with_strategy(TransitionStrategy::marqsim_gc())
            .with_seed(3)
            .without_circuit();
        let result = Compiler::new(cfg).compile(&ham).unwrap();
        let f = evaluate_fidelity(&result.hamiltonian, 0.5, &result.sequence);
        assert!(f > 0.98, "fidelity {f}");
        // And the exact unitary of the original Hamiltonian is the same
        // operator as the split one.
        let u_orig = exact::exact_unitary(&ham, 0.5);
        let u_split = exact::exact_unitary(&result.hamiltonian, 0.5);
        assert!(fidelity::fidelity(&u_orig, &u_split) > 1.0 - 1e-10);
    }

    #[test]
    fn compile_with_htt_matches_compile_from_scratch() {
        let ham = example();
        let cfg = config(TransitionStrategy::marqsim_gc());
        let htt = HttGraph::build(&ham, &TransitionStrategy::marqsim_gc()).unwrap();
        let via_htt = Compiler::new(cfg.clone()).compile_with_htt(&htt).unwrap();
        let direct = Compiler::new(cfg).compile(&ham).unwrap();
        assert_eq!(via_htt.sequence, direct.sequence);
        assert_eq!(via_htt.num_samples, direct.num_samples);
        assert_eq!(via_htt.stats, direct.stats);
        assert_eq!(via_htt.transition.rows(), direct.transition.rows());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let ham = example();
        assert!(matches!(
            Compiler::new(CompilerConfig::new(-1.0, 0.05)).compile(&ham),
            Err(CompileError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Compiler::new(CompilerConfig::new(1.0, 0.0)).compile(&ham),
            Err(CompileError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn without_circuit_skips_synthesis() {
        let ham = example();
        let result = Compiler::new(config(TransitionStrategy::QDrift).without_circuit())
            .compile(&ham)
            .unwrap();
        assert!(result.circuit.is_empty());
        assert_eq!(result.circuit_stats, GateStats::default());
        assert!(result.stats.cnot > 0);
    }

    #[test]
    fn dominant_term_hamiltonian_compiles_after_automatic_splitting() {
        let ham = Hamiltonian::parse("3.0 XXII + 0.5 ZZII + 0.5 XYZI").unwrap();
        let result = Compiler::new(config(TransitionStrategy::marqsim_gc()).with_sample_count(100))
            .compile(&ham)
            .unwrap();
        assert_eq!(result.hamiltonian.num_terms(), 4);
        assert!((result.lambda - ham.lambda()).abs() < 1e-12);
    }
}
