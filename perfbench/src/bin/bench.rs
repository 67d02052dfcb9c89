//! The benchmark runner.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bench --workload all --seed 1            # every workload, timed then traced
//! bench --workload all --seed 1 --aa       # every workload timed twice, side by side
//! ```
//!
//! A single workload prints its figures by name with units and sample
//! counts, then the result object as the last line of standard output, and
//! exits non-zero when an output was wrong or an operation failed. `all`
//! re-executes this binary once per workload and pass, so peak memory and
//! CPU are per workload.

use perfbench::suite::{run_timed, run_traced, END_TO_END, GATED, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    trace_dir: PathBuf,
}

const USAGE: &str = "usage: bench --workload <paper_sim|pipeline_sim|cycle_sim|pool_sweep|\
serve_hit|serve_miss|all> [--seed N] [--seconds S] [--trace 0|1] [--aa] [--trace-dir DIR]";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        aa: false,
        trace_dir: PathBuf::from("target/bench"),
    };
    while let Some(flag) = argv.next() {
        if flag == "--aa" {
            args.aa = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad("between 0 and 60 seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--trace-dir" => args.trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" || args.aa {
        return all(&args);
    }
    println!(
        "# cgsim bench: workload {} seed {} window {} s, {} pass",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "timed" }
    );
    let report = if args.trace {
        run_traced(&args.workload, args.seed, args.seconds, &args.trace_dir)
    } else {
        run_timed(&args.workload, args.seed, args.seconds)
    };
    match report {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.json_line());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run one workload and pass in a process of its own; its output passes
/// through, and the metrics of its result line come back.
fn child(args: &Args, workload: &str, trace: bool) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--trace-dir")
        .arg(&args.trace_dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!("{workload}: exited with {}", out.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let doc = serde_json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or_else(|| format!("{workload}: result has no metrics"))?;
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// `--workload all`: every workload timed, then traced (or, with `--aa`,
/// timed twice with each end-to-end metric's relative difference beside its
/// bound). Non-zero when any run failed.
fn all(args: &Args) -> ExitCode {
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    let mut failures = Vec::new();
    let mut summary = Vec::new();
    for workload in workloads {
        let first = child(args, workload, false);
        let second = child(args, workload, !args.aa);
        match (first, second) {
            (Ok(a), Ok(b)) if args.aa => {
                for ((name, a), (_, b)) in a.iter().zip(&b) {
                    let bound = END_TO_END
                        .iter()
                        .find(|(n, ..)| n == name)
                        .map_or(f64::NAN, |(.., bound)| *bound);
                    let diff = (b - a).abs() / a.abs().max(f64::MIN_POSITIVE);
                    let verdict = match (diff > bound, GATED.contains(&workload)) {
                        (false, _) => "",
                        (true, true) => "  OVER",
                        (true, false) => "  over (not gated)",
                    };
                    summary.push(format!(
                        "{workload:<13} {name:<14} {a:>14.3} {b:>14.3}  diff {:>6.2} %  bound {:>3.0} %{verdict}",
                        diff * 100.0,
                        bound * 100.0,
                    ));
                }
            }
            (Ok(a), Ok(_)) => {
                for (name, value) in a {
                    summary.push(format!("{workload:<13} {name:<14} {value:>14.3}"));
                }
            }
            (a, b) => failures.extend([a.err(), b.err()].into_iter().flatten()),
        }
    }
    println!("# summary{}", if args.aa { " (A/A)" } else { "" });
    for line in summary {
        println!("{line}");
    }
    for failure in &failures {
        eprintln!("bench: {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
