//! Reproduce the paper's Table 2: wall-clock simulation time comparison
//! between cgsim (cooperative), x86sim (thread-per-kernel) and aiesim
//! (cycle-approximate), printed with the paper's published values.
//!
//! Absolute seconds depend on the host and the chosen scale, so each row
//! also prints its measured aiesim/cgsim and aiesim/x86sim ratios.
//!
//! Run with: `cargo run --release --example repro_table2 [-- --scale N] [-- --profile]`

use cgsim::paper_tables::{table2, PAPER_TABLE2};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(2u64);
    let profile = args.iter().any(|a| a == "--profile");

    println!("Table 2 — wall-clock simulation time (scale {scale})\n");
    println!(
        "{:<10} | {:>8} | {:>11} | {:>11} | {:>11} | {:>8} | {:>8} || {:>9} | {:>9} | {:>10}",
        "Graph",
        "blocks",
        "cgsim (s)",
        "x86sim (s)",
        "aiesim (s)",
        "aie/cg",
        "aie/x86",
        "paper cg",
        "paper x86",
        "paper aie"
    );
    println!("{}", "-".repeat(123));

    for row in table2::compute(scale) {
        let paper = PAPER_TABLE2
            .iter()
            .find(|(n, ..)| *n == row.graph)
            .expect("paper row");
        let (cgsim, x86sim, aiesim) = (
            row.cgsim.as_secs_f64(),
            row.x86sim.as_secs_f64(),
            row.aiesim.as_secs_f64(),
        );
        println!(
            "{:<10} | {:>8} | {:>11.4} | {:>11.4} | {:>11.4} | {:>7.1}x | {:>7.1}x || {:>9.2} | {:>9.2} | {:>10.2}",
            row.graph,
            row.blocks,
            cgsim,
            x86sim,
            aiesim,
            aiesim / cgsim,
            aiesim / x86sim,
            paper.2,
            paper.3,
            paper.4,
        );
        if profile {
            println!(
                "{:<10} |   kernel-time fraction (cgsim run): {:.2}% (paper §5.2: 99.94% on bitonic)",
                "", row.kernel_fraction * 100.0
            );
        }
    }
    println!();
    println!(
        "aie/cg and aie/x86: this host's aiesim wall time over cgsim's and x86sim's, per row."
    );
}
