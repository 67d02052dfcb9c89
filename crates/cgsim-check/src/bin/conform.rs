//! Cross-backend conformance driver.
//!
//! ```text
//! cargo run --release -p cgsim-check --bin conform -- --seed 42 --cases 200
//! ```
//!
//! Generates `--cases` random graphs starting at `--seed` and runs each
//! through the differential oracle (cooperative executor under several
//! seeded schedule permutations and fault injections, threaded runtime,
//! aie-sim). Exits non-zero if any leg disagrees; every failure is printed
//! with the one-line command that replays just that case.

use cgsim_check::{run_suite_with, SuiteConfig};

fn usage() -> ! {
    eprintln!("usage: conform [--seed S] [--cases N] [--schedules K] [--quiet]");
    std::process::exit(2)
}

fn main() {
    let mut cfg = SuiteConfig::new(42, 100);
    let mut quiet = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let num = |a: &mut dyn Iterator<Item = String>| -> u64 {
            a.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--seed" => cfg.seed = num(&mut argv),
            "--cases" => cfg.cases = num(&mut argv),
            "--schedules" => cfg.schedules = num(&mut argv) as u32,
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }

    println!(
        "conform: seed {} / {} cases / {} schedule permutations per case",
        cfg.seed, cfg.cases, cfg.schedules
    );

    let mut done = 0u64;
    let report = run_suite_with(&cfg, |verdict| {
        done += 1;
        if !verdict.ok() {
            println!("FAIL seed {} ({})", verdict.seed, verdict.signature);
            for f in &verdict.failures {
                println!("  - {f}");
            }
            println!("  reproduce: {}", cgsim_check::repro_command(verdict.seed));
        } else if !quiet && done.is_multiple_of(25) {
            println!("  … {done}/{} cases conform", cfg.cases);
        }
    });

    println!(
        "conform: {} cases, {} legs, {} compiled-backend rejects, {} failures \
         (case-list digest {:016x})",
        cfg.cases,
        report.legs,
        report.compiled_rejects,
        report.failures.len(),
        report.case_list_digest()
    );
    if !report.ok() {
        std::process::exit(1);
    }
}
