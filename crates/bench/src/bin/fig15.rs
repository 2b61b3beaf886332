//! Regenerates **Fig. 11 and Fig. 15**: transition-matrix spectra with and
//! without the random-perturbation component, and the resulting change in
//! the standard deviation of the sampled-circuit accuracy.
//!
//! Fig. 11 uses the 5-term Hamiltonian of Example 5.3; Fig. 15 uses the Na+
//! benchmark. The paper reports σ reductions of 26% (0.4 Pqd) and 33%
//! (0.2 Pqd) when part of the P_gc weight is replaced by P_rp.
//!
//! Run with `cargo run -p marqsim-bench --release --bin fig15 [--full]`.

use marqsim_bench::{engine, header, pct, report_cache_stats, run_scale};
use marqsim_core::experiment::SweepConfig;
use marqsim_core::perturb::PerturbationConfig;
use marqsim_core::transition::build_transition_matrix;
use marqsim_core::TransitionStrategy;
use marqsim_engine::{
    BenchmarkSuiteResult, BenchmarkSuiteWorkload, PerturbAverageResult, PerturbAverageWorkload,
};
use marqsim_hamlib::suite::{benchmark_by_name, SuiteScale};
use marqsim_markov::spectra::spectrum;
use marqsim_pauli::Hamiltonian;

fn print_spectrum(label: &str, ham: &Hamiltonian, strategy: &TransitionStrategy) {
    let p = build_transition_matrix(ham, strategy).expect("transition matrix");
    let s = spectrum(&p);
    let shown: Vec<String> = s.values.iter().take(8).map(|v| format!("{v:.3}")).collect();
    println!(
        "{:<34} spectra: [{}]  subdominant mass: {:.3}",
        label,
        shown.join(", "),
        s.subdominant_mass()
    );
}

fn main() {
    let scale = run_scale();
    let engine = engine();

    header("Fig. 11: spectra for the Example 5.3 Hamiltonian");
    let example =
        Hamiltonian::parse("1.0 IIIZY + 1.0 XXIII + 0.7 ZXZYI + 0.5 IIZZX + 0.3 XXYYZ").unwrap();
    print_spectrum("Pqd", &example, &TransitionStrategy::QDrift);
    print_spectrum(
        "0.4 Pqd + 0.6 Pgc",
        &example,
        &TransitionStrategy::GateCancellation { qdrift_weight: 0.4 },
    );

    header("Fig. 15: spectra for the Na+ benchmark, with and without Prp");
    let bench = benchmark_by_name(
        "Na+",
        if scale.fidelity {
            SuiteScale::Reduced
        } else {
            scale.suite
        },
    )
    .expect("benchmark exists");
    let perturbation = PerturbationConfig {
        samples: 20,
        seed: 11,
        ..Default::default()
    };
    let configs: Vec<(&str, TransitionStrategy)> = vec![
        (
            "P1  = 0.4 Pqd + 0.6 Pgc",
            TransitionStrategy::GateCancellation { qdrift_weight: 0.4 },
        ),
        (
            "P1' = 0.4 Pqd + 0.3 Pgc + 0.3 Prp",
            TransitionStrategy::Combined {
                qdrift_weight: 0.4,
                gc_weight: 0.3,
                rp_weight: 0.3,
                perturbation,
            },
        ),
        (
            "P2  = 0.2 Pqd + 0.8 Pgc",
            TransitionStrategy::GateCancellation { qdrift_weight: 0.2 },
        ),
        (
            "P2' = 0.2 Pqd + 0.4 Pgc + 0.4 Prp",
            TransitionStrategy::Combined {
                qdrift_weight: 0.2,
                gc_weight: 0.4,
                rp_weight: 0.4,
                perturbation,
            },
        ),
    ];
    for (label, strategy) in &configs {
        print_spectrum(label, &bench.hamiltonian, strategy);
    }

    // The standalone P_rp: the component the P1' and P2' strategies mix
    // in, with its per-sample re-pivots fanned out over the engine pool.
    let prp: PerturbAverageResult = engine
        .run_workload(&PerturbAverageWorkload::new(
            "fig15/prp",
            bench.hamiltonian.clone(),
            perturbation,
        ))
        .expect("Prp average")
        .downcast()
        .expect("perturb output");
    let prp_spectrum = spectrum(&prp.matrix);
    println!(
        "{:<34} spectra head: {:.3}  subdominant mass: {:.3}  ({} samples solved in parallel)",
        "Prp (the P1'/P2' component)",
        prp_spectrum.values.first().copied().unwrap_or(f64::NAN),
        prp_spectrum.subdominant_mass(),
        prp.samples
    );

    header("Fig. 15: accuracy standard deviation with and without Prp");
    let sweep_config = SweepConfig {
        time: bench.time,
        epsilons: vec![0.1, 0.05],
        repeats: scale.repeats.max(5),
        base_seed: 19,
        evaluate_fidelity: true,
    };
    let mut workload = BenchmarkSuiteWorkload::new("fig15");
    for (label, strategy) in &configs {
        workload = workload.case(
            *label,
            bench.hamiltonian.clone(),
            strategy.clone(),
            sweep_config.clone(),
        );
    }
    let result: BenchmarkSuiteResult = engine
        .run_workload(&workload)
        .expect("fig15 suite")
        .downcast()
        .expect("suite output");

    let mut sigmas = Vec::new();
    for ((label, _), case) in configs.iter().zip(result.cases) {
        let sweep = case.sweep;
        let clusters = sweep.cluster_summaries();
        let sigma: f64 =
            clusters.iter().map(|c| c.std_fidelity).sum::<f64>() / clusters.len() as f64;
        println!("{label:<34} sigma(accuracy) = {sigma:.5}");
        sigmas.push(sigma);
    }
    if sigmas.len() == 4 && sigmas[0] > 0.0 && sigmas[2] > 0.0 {
        println!();
        println!(
            "sigma reduction from Prp: {} (0.4 Pqd case, paper: 26%), {} (0.2 Pqd case, paper: 33%)",
            pct(1.0 - sigmas[1] / sigmas[0]),
            pct(1.0 - sigmas[3] / sigmas[2])
        );
    }
    report_cache_stats(engine.cache().stats());
}
