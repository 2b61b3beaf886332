//! Experiment drivers for the evaluation section.
//!
//! Every figure of the paper boils down to the same loop: compile a benchmark
//! with one of the three configurations at a sweep of target precisions,
//! repeat a few times with different seeds, record gate counts and (when the
//! system is small enough) the unitary fidelity, then average per-precision
//! clusters and compare at matched accuracy. This module packages that loop
//! so the `marqsim-bench` binaries stay thin.

use marqsim_linalg::Matrix;
use marqsim_pauli::Hamiltonian;
use marqsim_sim::exact::exact_unitary;

use crate::fitting::{cluster_mean_std, interpolate_at, mean_std};
use crate::metrics::{evaluate_fidelity_against, SequenceStats};
use crate::{CompileError, Compiler, CompilerConfig, HttGraph, TransitionStrategy};

/// The default precision sweep used throughout the evaluation (§6.1).
pub const DEFAULT_EPSILONS: [f64; 7] = [0.1, 0.067, 0.05, 0.04, 0.033, 0.0286, 0.025];

/// One compiled data point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentPoint {
    /// Target precision `ε`.
    pub epsilon: f64,
    /// Seed used for this repetition.
    pub seed: u64,
    /// Number of sampling steps.
    pub num_samples: usize,
    /// Sequence-level gate statistics.
    pub stats: SequenceStats,
    /// Unitary fidelity against the exact evolution, when evaluated.
    pub fidelity: Option<f64>,
}

/// A full sweep for one (benchmark, strategy) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Label of the strategy that produced this sweep.
    pub label: String,
    /// All the raw points.
    pub points: Vec<ExperimentPoint>,
}

/// Configuration of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Evolution time `t`.
    pub time: f64,
    /// The precisions to sweep.
    pub epsilons: Vec<f64>,
    /// Number of random repetitions per precision.
    pub repeats: usize,
    /// Base RNG seed (each repetition offsets it).
    pub base_seed: u64,
    /// Whether to evaluate the unitary fidelity (exponential in qubit count).
    pub evaluate_fidelity: bool,
}

impl SweepConfig {
    /// A cheap sweep for tests and smoke runs.
    pub fn quick(time: f64) -> Self {
        SweepConfig {
            time,
            epsilons: vec![0.1, 0.05],
            repeats: 3,
            base_seed: 1,
            evaluate_fidelity: false,
        }
    }
}

/// The seed used for repetition `rep` of the `eps_idx`-th precision of a
/// sweep. Exposed so parallel sweep executors (the `marqsim-engine` crate)
/// can reproduce the serial seed stream exactly: any scheduler that computes
/// each point with this seed yields byte-identical results to [`run_sweep`].
pub fn point_seed(config: &SweepConfig, eps_idx: usize, rep: usize) -> u64 {
    config
        .base_seed
        .wrapping_add((eps_idx * config.repeats + rep) as u64 * 7919)
}

/// Compiles one sweep point against a pre-built HTT graph.
///
/// This is the unit of work both the serial [`run_sweep`] loop and the
/// engine's parallel executor share: the output depends only on
/// `(htt, config, epsilon, seed)`, never on scheduling order. With fidelity
/// on, each call computes the exact unitary; [`compile_point_with`] takes
/// it precomputed instead.
///
/// # Errors
///
/// Propagates the compilation failure.
pub fn compile_point(
    htt: &HttGraph,
    config: &SweepConfig,
    epsilon: f64,
    seed: u64,
) -> Result<ExperimentPoint, CompileError> {
    let exact = config
        .evaluate_fidelity
        .then(|| exact_unitary(htt.hamiltonian(), config.time));
    compile_point_with(htt, config, epsilon, seed, exact.as_ref())
}

/// [`compile_point`] scoring the fidelity against a precomputed
/// `exact = exp(i·H·t)` of the graph's working Hamiltonian at
/// `config.time`, so the points of one `(H, t)` share one matrix
/// exponential. The point's fidelity is evaluated exactly when `exact` is
/// given; callers pass it iff `config.evaluate_fidelity`.
///
/// # Errors
///
/// Propagates the compilation failure.
pub fn compile_point_with(
    htt: &HttGraph,
    config: &SweepConfig,
    epsilon: f64,
    seed: u64,
    exact: Option<&Matrix>,
) -> Result<ExperimentPoint, CompileError> {
    let compiler_config = CompilerConfig::new(config.time, epsilon)
        .with_seed(seed)
        .without_circuit();
    let result = Compiler::new(compiler_config).compile_with_htt(htt)?;
    let fidelity = exact.map(|exact| {
        evaluate_fidelity_against(&result.hamiltonian, config.time, &result.sequence, exact)
    });
    Ok(ExperimentPoint {
        epsilon,
        seed,
        num_samples: result.num_samples,
        stats: result.stats,
        fidelity,
    })
}

/// Runs a sweep of one strategy over one Hamiltonian, serially.
///
/// The HTT graph (and therefore the min-cost-flow solve behind `P_gc`) is
/// built once and reused for every point, and so is the exact unitary when
/// fidelity is on; the per-point RNG streams come from [`point_seed`].
///
/// # Errors
///
/// Propagates the first compilation failure.
pub fn run_sweep(
    ham: &Hamiltonian,
    strategy: &TransitionStrategy,
    config: &SweepConfig,
) -> Result<SweepResult, CompileError> {
    let htt = HttGraph::build(ham, strategy)?;
    let exact = config
        .evaluate_fidelity
        .then(|| exact_unitary(htt.hamiltonian(), config.time));
    let mut points = Vec::new();
    for (eps_idx, &epsilon) in config.epsilons.iter().enumerate() {
        for rep in 0..config.repeats {
            let seed = point_seed(config, eps_idx, rep);
            points.push(compile_point_with(
                &htt,
                config,
                epsilon,
                seed,
                exact.as_ref(),
            )?);
        }
    }
    Ok(SweepResult {
        label: strategy.label(),
        points,
    })
}

/// Per-precision aggregate of a sweep: mean CNOT count, mean total gates,
/// mean fidelity (if evaluated), and the standard deviation of the fidelity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSummary {
    /// Target precision of the cluster.
    pub epsilon: f64,
    /// Mean CNOT count.
    pub mean_cnot: f64,
    /// Mean single-qubit gate count.
    pub mean_single_qubit: f64,
    /// Mean total gate count.
    pub mean_total: f64,
    /// Mean fidelity (0 when not evaluated).
    pub mean_fidelity: f64,
    /// Standard deviation of the fidelity across repetitions.
    pub std_fidelity: f64,
    /// Standard deviation of the CNOT count across repetitions.
    pub std_cnot: f64,
}

impl SweepResult {
    /// Aggregates the raw points per precision.
    pub fn cluster_summaries(&self) -> Vec<ClusterSummary> {
        let mut epsilons: Vec<f64> = self.points.iter().map(|p| p.epsilon).collect();
        epsilons.sort_by(|a, b| a.partial_cmp(b).expect("finite epsilon"));
        epsilons.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        epsilons
            .into_iter()
            .map(|eps| {
                let cluster: Vec<&ExperimentPoint> = self
                    .points
                    .iter()
                    .filter(|p| (p.epsilon - eps).abs() < 1e-12)
                    .collect();
                let cnots: Vec<f64> = cluster.iter().map(|p| p.stats.cnot as f64).collect();
                let singles: Vec<f64> = cluster
                    .iter()
                    .map(|p| p.stats.single_qubit as f64)
                    .collect();
                let totals: Vec<f64> = cluster.iter().map(|p| p.stats.total as f64).collect();
                let fidelities: Vec<f64> = cluster.iter().filter_map(|p| p.fidelity).collect();
                let (mean_cnot, std_cnot) = mean_std(&cnots);
                let (mean_single_qubit, _) = mean_std(&singles);
                let (mean_total, _) = mean_std(&totals);
                let (mean_fidelity, std_fidelity) = mean_std(&fidelities);
                ClusterSummary {
                    epsilon: eps,
                    mean_cnot,
                    mean_single_qubit,
                    mean_total,
                    mean_fidelity,
                    std_fidelity,
                    std_cnot,
                }
            })
            .collect()
    }

    /// The `(fidelity, CNOT)` curve (cluster means), usable with
    /// [`interpolate_at`] to compare configurations at matched accuracy.
    pub fn accuracy_cnot_curve(&self) -> Vec<(f64, f64)> {
        let raw: Vec<(f64, f64)> = self
            .points
            .iter()
            .filter_map(|p| p.fidelity.map(|f| (f, p.stats.cnot as f64)))
            .collect();
        cluster_mean_std(&raw, 5e-4)
            .into_iter()
            .map(|(f, mean, _)| (f, mean))
            .collect()
    }
}

/// Comparison of a strategy against the baseline at matched sample counts
/// (same `ε` clusters): the relative reduction in CNOT and total gates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReductionSummary {
    /// Mean CNOT-count reduction over the ε sweep (fraction).
    pub cnot_reduction: f64,
    /// Mean single-qubit-gate reduction over the ε sweep (fraction).
    pub single_qubit_reduction: f64,
    /// Mean total-gate reduction over the ε sweep (fraction).
    pub total_reduction: f64,
}

/// Computes gate reductions of `optimized` relative to `baseline`, pairing
/// clusters with the same target precision.
pub fn reduction_summary(baseline: &SweepResult, optimized: &SweepResult) -> ReductionSummary {
    let base = baseline.cluster_summaries();
    let opt = optimized.cluster_summaries();
    let mut cnot_reductions = Vec::new();
    let mut single_reductions = Vec::new();
    let mut total_reductions = Vec::new();
    for b in &base {
        if let Some(o) = opt.iter().find(|o| (o.epsilon - b.epsilon).abs() < 1e-12) {
            if b.mean_cnot > 0.0 {
                cnot_reductions.push(1.0 - o.mean_cnot / b.mean_cnot);
            }
            if b.mean_single_qubit > 0.0 {
                single_reductions.push(1.0 - o.mean_single_qubit / b.mean_single_qubit);
            }
            if b.mean_total > 0.0 {
                total_reductions.push(1.0 - o.mean_total / b.mean_total);
            }
        }
    }
    ReductionSummary {
        cnot_reduction: mean_std(&cnot_reductions).0,
        single_qubit_reduction: mean_std(&single_reductions).0,
        total_reduction: mean_std(&total_reductions).0,
    }
}

/// CNOT reduction at matched *accuracy* rather than matched ε: interpolates
/// both accuracy→CNOT curves at `target_fidelity`. Returns `None` when either
/// sweep lacks fidelity data.
pub fn cnot_reduction_at_accuracy(
    baseline: &SweepResult,
    optimized: &SweepResult,
    target_fidelity: f64,
) -> Option<f64> {
    let base_curve = baseline.accuracy_cnot_curve();
    let opt_curve = optimized.accuracy_cnot_curve();
    let base_cnot = interpolate_at(&base_curve, target_fidelity)?;
    let opt_cnot = interpolate_at(&opt_curve, target_fidelity)?;
    if base_cnot <= 0.0 {
        return None;
    }
    Some(1.0 - opt_cnot / base_cnot)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ham() -> Hamiltonian {
        Hamiltonian::parse(
            "0.9 ZZZZ + 0.8 ZZIZ + 0.7 XXII + 0.6 IYYI + 0.5 IIZZ + 0.4 XYXY + 0.3 IZIZ + 0.2 YYII",
        )
        .unwrap()
    }

    #[test]
    fn quick_sweep_produces_expected_point_count() {
        let sweep = run_sweep(
            &ham(),
            &TransitionStrategy::QDrift,
            &SweepConfig::quick(0.5),
        )
        .unwrap();
        assert_eq!(sweep.points.len(), 2 * 3);
        assert_eq!(sweep.label, "Baseline");
        for p in &sweep.points {
            assert!(p.num_samples > 0);
            assert!(p.fidelity.is_none());
            assert!(p.stats.cnot > 0);
        }
    }

    #[test]
    fn cluster_summaries_group_by_epsilon() {
        let sweep = run_sweep(
            &ham(),
            &TransitionStrategy::QDrift,
            &SweepConfig::quick(0.5),
        )
        .unwrap();
        let clusters = sweep.cluster_summaries();
        assert_eq!(clusters.len(), 2);
        // Smaller epsilon means more samples and therefore more gates.
        assert!(clusters[0].epsilon < clusters[1].epsilon);
        assert!(clusters[0].mean_cnot > clusters[1].mean_cnot);
    }

    #[test]
    fn gc_sweep_reduces_cnots_at_matched_epsilon() {
        let config = SweepConfig {
            time: 0.5,
            epsilons: vec![0.05],
            repeats: 5,
            base_seed: 3,
            evaluate_fidelity: false,
        };
        let baseline = run_sweep(&ham(), &TransitionStrategy::QDrift, &config).unwrap();
        let gc = run_sweep(&ham(), &TransitionStrategy::marqsim_gc(), &config).unwrap();
        let summary = reduction_summary(&baseline, &gc);
        assert!(
            summary.cnot_reduction > 0.05,
            "expected a CNOT reduction, got {}",
            summary.cnot_reduction
        );
    }

    #[test]
    fn fidelity_evaluation_can_be_enabled() {
        let small = Hamiltonian::parse("0.6 XZ + 0.4 ZY + 0.3 XX").unwrap();
        let config = SweepConfig {
            time: 0.4,
            epsilons: vec![0.05],
            repeats: 2,
            base_seed: 1,
            evaluate_fidelity: true,
        };
        let sweep = run_sweep(&small, &TransitionStrategy::QDrift, &config).unwrap();
        for p in &sweep.points {
            let f = p.fidelity.unwrap();
            assert!(f > 0.9 && f <= 1.0 + 1e-9);
        }
        assert!(!sweep.accuracy_cnot_curve().is_empty());
    }

    #[test]
    fn reduction_at_matched_accuracy_is_computable() {
        let small = Hamiltonian::parse("0.7 ZZZ + 0.6 ZIZ + 0.5 XXI + 0.4 IYY + 0.3 XYX + 0.2 IZZ")
            .unwrap();
        let config = SweepConfig {
            time: 0.4,
            epsilons: vec![0.1, 0.05, 0.033],
            repeats: 3,
            base_seed: 5,
            evaluate_fidelity: true,
        };
        let baseline = run_sweep(&small, &TransitionStrategy::QDrift, &config).unwrap();
        let gc = run_sweep(&small, &TransitionStrategy::marqsim_gc(), &config).unwrap();
        let target = 0.995;
        let reduction = cnot_reduction_at_accuracy(&baseline, &gc, target);
        assert!(reduction.is_some());
    }
}
