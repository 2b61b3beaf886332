//! Golden regression tests: table1/table2/fig12-shaped outputs rendered on
//! tiny fixed Hamiltonians and compared against committed golden files, so
//! refactors of the compiler, the flow solver, or the engine cannot
//! silently drift numeric results.
//!
//! The comparison is token-wise: non-numeric tokens must match exactly,
//! integer tokens must match exactly, and float tokens use a tolerant
//! compare (relative 1e-9) so benign formatting or summation-order changes
//! do not fail the suite while real numeric drift does. Everything rendered
//! here is deterministic by construction — seeded RNG streams and the
//! engine's bit-identical parallel execution — so in practice the files
//! match byte for byte.
//!
//! To bless new goldens after an *intentional* change:
//!
//! ```text
//! MARQSIM_GOLDEN_REGEN=1 cargo test --test golden
//! git diff tests/golden/   # review the numeric drift before committing
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use marqsim::core::experiment::SweepConfig;
use marqsim::core::fitting::fit_exponential;
use marqsim::core::{CompilerConfig, TransitionStrategy};
use marqsim::engine::{CompileRequest, Engine, EngineConfig};
use marqsim::pauli::Hamiltonian;

/// Relative tolerance of the float compare.
const FLOAT_TOL: f64 = 1e-9;

/// The tiny, fast, fixed benchmark set the goldens are rendered on —
/// defined once in `marqsim_hamlib::suite` and shared with the serve
/// smoke's over-TCP replay.
fn tiny_benchmarks() -> Vec<(&'static str, Hamiltonian, f64)> {
    marqsim::hamlib::suite::golden_tiny_benchmarks()
}

/// Engines honor the environment with the thread count pinned per render.
fn engine(threads: usize) -> Engine {
    let config = EngineConfig::from_env().expect("engine environment");
    Engine::new(config.with_threads(threads))
}

/// Table 1 shape: the benchmark inventory columns (name, qubits, string
/// count, time, λ) plus the stationary-distribution extremes that drive
/// the qDRIFT sampling.
fn render_table1() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<16} {:>7} {:>14} {:>10} {:>12} {:>12} {:>12}",
        "benchmark", "qubits", "strings", "time", "lambda", "pi_max", "pi_min"
    )
    .unwrap();
    for (name, ham, time) in tiny_benchmarks() {
        let pi = ham.stationary_distribution();
        let pi_max = pi.iter().cloned().fold(f64::MIN, f64::max);
        let pi_min = pi.iter().cloned().fold(f64::MAX, f64::min);
        writeln!(
            out,
            "{:<16} {:>7} {:>14} {:>10.6} {:>12.8} {:>12.8} {:>12.8}",
            name,
            ham.num_qubits(),
            ham.num_terms(),
            time,
            ham.lambda(),
            pi_max,
            pi_min
        )
        .unwrap();
    }
    out
}

/// Table 2 shape: per-strategy compile metrics at a fixed (ε, seed) — the
/// numeric columns the paper's gate-count comparison is built from.
fn render_table2(threads: usize) -> String {
    let engine = engine(threads);
    let mut out = String::new();
    writeln!(
        out,
        "{:<16} {:<12} {:>12} {:>8} {:>14} {:>8} {:>8} {:>10}",
        "benchmark", "strategy", "samples", "cnot", "single_qubit", "rz", "total", "segments"
    )
    .unwrap();
    for (name, ham, time) in tiny_benchmarks() {
        for (tag, strategy) in [
            ("baseline", TransitionStrategy::QDrift),
            ("gc", TransitionStrategy::marqsim_gc()),
            ("gc-rp", TransitionStrategy::marqsim_gc_rp()),
        ] {
            let outcome = engine
                .compile(CompileRequest::new(
                    format!("golden/{name}/{tag}"),
                    ham.clone(),
                    CompilerConfig::new(time, 0.05)
                        .with_strategy(strategy)
                        .with_seed(7)
                        .without_circuit(),
                ))
                .expect("golden compile");
            let stats = outcome.result.stats;
            writeln!(
                out,
                "{:<16} {:<12} {:>12} {:>8} {:>14} {:>8} {:>8} {:>10}",
                name,
                tag,
                outcome.result.num_samples,
                stats.cnot,
                stats.single_qubit,
                stats.rz,
                stats.total,
                stats.segments
            )
            .unwrap();
        }
    }
    out
}

/// Fig. 12 shape: the cluster-average pipeline on one small benchmark —
/// per-ε means/deviations of CNOT count and fidelity, plus the exponential
/// fit parameters used to compare configurations at matched accuracy.
fn render_fig12(threads: usize) -> String {
    let engine = engine(threads);
    let (_, ham, time) = tiny_benchmarks().remove(0);
    let config = SweepConfig {
        time,
        epsilons: vec![0.1, 0.067, 0.05],
        repeats: 3,
        base_seed: 12,
        evaluate_fidelity: true,
    };
    let sweep = engine
        .run_sweep(&ham, &TransitionStrategy::marqsim_gc(), &config)
        .expect("golden sweep");

    let mut out = String::new();
    writeln!(
        out,
        "{:>10} {:>12} {:>12} {:>14} {:>14}",
        "epsilon", "mean_cnot", "std_cnot", "mean_fidelity", "std_fidelity"
    )
    .unwrap();
    let clusters = sweep.cluster_summaries();
    for c in &clusters {
        writeln!(
            out,
            "{:>10.6} {:>12.6} {:>12.6} {:>14.10} {:>14.10}",
            c.epsilon, c.mean_cnot, c.std_cnot, c.mean_fidelity, c.std_fidelity
        )
        .unwrap();
    }
    let curve: Vec<(f64, f64)> = clusters
        .iter()
        .filter(|c| c.mean_fidelity > 0.0)
        .map(|c| (c.mean_fidelity, c.mean_cnot))
        .collect();
    match fit_exponential(&curve) {
        Some(fit) => writeln!(out, "fit a {:.8} b {:.8} c {:.8}", fit.a, fit.b, fit.c).unwrap(),
        None => writeln!(out, "fit none").unwrap(),
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `rendered` against the committed golden file, or rewrites the
/// file when `MARQSIM_GOLDEN_REGEN=1`.
fn assert_matches_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var("MARQSIM_GOLDEN_REGEN").map(|v| v == "1") == Ok(true) {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, rendered).expect("write golden");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run MARQSIM_GOLDEN_REGEN=1 cargo test --test golden",
            path.display()
        )
    });

    // Fast path: byte-stable output matches exactly.
    if golden == rendered {
        return;
    }

    // Tolerant path: line/token-wise with float tolerance.
    let golden_lines: Vec<&str> = golden.lines().collect();
    let rendered_lines: Vec<&str> = rendered.lines().collect();
    assert_eq!(
        golden_lines.len(),
        rendered_lines.len(),
        "{name}: line count changed"
    );
    for (line_no, (golden_line, rendered_line)) in
        golden_lines.iter().zip(&rendered_lines).enumerate()
    {
        let golden_tokens: Vec<&str> = golden_line.split_whitespace().collect();
        let rendered_tokens: Vec<&str> = rendered_line.split_whitespace().collect();
        assert_eq!(
            golden_tokens.len(),
            rendered_tokens.len(),
            "{name}:{}: column count changed\n  golden:   {golden_line}\n  rendered: {rendered_line}",
            line_no + 1
        );
        for (golden_token, rendered_token) in golden_tokens.iter().zip(&rendered_tokens) {
            if golden_token == rendered_token {
                continue;
            }
            // Integer tokens must match exactly; floats get the tolerance.
            let ints = (
                golden_token.parse::<i64>().ok(),
                rendered_token.parse::<i64>().ok(),
            );
            if let (Some(a), Some(b)) = ints {
                assert_eq!(
                    a, b,
                    "{name}:{}: integer column drifted\n  golden:   {golden_line}\n  rendered: {rendered_line}",
                    line_no + 1
                );
                continue;
            }
            let floats = (
                golden_token.parse::<f64>().ok(),
                rendered_token.parse::<f64>().ok(),
            );
            match floats {
                (Some(a), Some(b)) => {
                    let scale = 1.0f64.max(a.abs()).max(b.abs());
                    assert!(
                        (a - b).abs() <= FLOAT_TOL * scale,
                        "{name}:{}: float column drifted beyond {FLOAT_TOL:e}\n  golden:   {golden_line}\n  rendered: {rendered_line}",
                        line_no + 1
                    );
                }
                _ => panic!(
                    "{name}:{}: token changed ('{golden_token}' vs '{rendered_token}')\n  golden:   {golden_line}\n  rendered: {rendered_line}",
                    line_no + 1
                ),
            }
        }
    }
}

#[test]
fn table1_numeric_columns_are_stable() {
    assert_matches_golden("table1.txt", &render_table1());
}

#[test]
fn table2_numeric_columns_are_stable() {
    assert_matches_golden("table2.txt", &render_table2(2));
}

#[test]
fn fig12_numeric_columns_are_stable() {
    assert_matches_golden("fig12.txt", &render_fig12(2));
}

#[test]
fn golden_rendering_is_deterministic_across_thread_counts() {
    // The same render on fresh engines with *different* worker counts must
    // be byte-identical — the premise that makes the goldens meaningful
    // (and the exact class of nondeterminism they exist to catch).
    let serial = render_table2(1);
    let parallel = render_table2(4);
    assert_eq!(serial, parallel);
    let fig_serial = render_fig12(1);
    let fig_parallel = render_fig12(4);
    assert_eq!(fig_serial, fig_parallel);
}
