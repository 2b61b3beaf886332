//! The MarQSim benchmark: one command, three workloads, output checks, and
//! a traced per-layer run.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fidelity_sweep|gate_count_full|served_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the last stdout line is a
//! JSON object with the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics of the traced run. Human-readable tables go to stderr.
//! The exit code is non-zero when any op fails or any output check does.
//! `perfbench/README.md` describes the workloads, metrics and predictions.

mod batch;
mod checks;
mod fidelity;
mod gate_count;
mod layers;
mod replay;
mod report;
mod served;

use report::{Report, END_TO_END, PER_LAYER};

const WORKLOADS: [&str; 3] = ["fidelity_sweep", "gate_count_full", "served_mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (use 0 or 1)")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (use {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Report {
    match (args.workload.as_str(), args.trace) {
        ("fidelity_sweep", false) => fidelity::run(args.seed, args.seconds),
        ("fidelity_sweep", true) => fidelity::trace(args.seed),
        ("gate_count_full", false) => gate_count::run(args.seed, args.seconds),
        ("gate_count_full", true) => gate_count::trace(args.seed),
        ("served_mix", false) => served::run(args.seed, args.seconds),
        ("served_mix", true) => served::trace(args.seed, args.seconds),
        _ => unreachable!("workload names are validated"),
    }
}

fn main() {
    // The program under test reads MARQSIM_* variables (threads, cache
    // directory, trace sink, solver); clear them before any thread starts
    // so no operator setting can change what is measured.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MARQSIM_") {
            std::env::remove_var(key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("[perfbench] {error}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "[perfbench] workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::nproc()
    );
    let mut report = run(&args);
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    report.print_table(names);
    let line = report.json_line(names);
    println!("{line}");
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let parsed = args(&[
            "--workload",
            "served_mix",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(parsed.workload, "served_mix");
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.seconds, 10.0);
        assert!(parsed.trace);
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "served_mix", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "served_mix", "--seed", "1"]).is_err());
    }
}
