//! Reproduce the paper's Table 1: processing time per input block for
//! hand-optimized vs cgsim-extracted implementations on the simulated AIE
//! hardware, printed side by side with the paper's published values.
//!
//! Run with: `cargo run --release --example repro_table1 [-- --blocks N]`
//!
//! Pass `--trace out.json` to additionally re-run each graph's
//! hand-optimized simulation with the trace collector attached and dump
//! one machine-readable metrics snapshot per graph.

use cgsim::paper_tables::{table1, PAPER_TABLE1};

fn main() {
    let blocks = std::env::args()
        .skip_while(|a| a != "--blocks")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(256u64);
    let trace_out: Option<std::path::PathBuf> = std::env::args()
        .skip_while(|a| a != "--trace")
        .nth(1)
        .map(Into::into);

    println!("Table 1 — processing time per input block (simulated AIE @ 1250 MHz)");
    println!("    {blocks} blocks per run; see EXPERIMENTS.md for calibration notes\n");
    println!(
        "{:<10} | {:>10} | {:>12} | {:>12} | {:>9} || {:>12} | {:>12} | {:>9}",
        "", "", "— this reproduction —", "", "", "— paper —", "", ""
    );
    println!(
        "{:<10} | {:>10} | {:>12} | {:>12} | {:>9} || {:>12} | {:>12} | {:>9}",
        "Graph", "Block (B)", "AMD (ns)", "cgsim (ns)", "rel %", "AMD (ns)", "cgsim (ns)", "rel %"
    );
    println!("{}", "-".repeat(116));

    for row in table1::compute(blocks) {
        let paper = PAPER_TABLE1
            .iter()
            .find(|(n, ..)| *n == row.graph)
            .expect("paper row");
        println!(
            "{:<10} | {:>10} | {:>12.1} | {:>12.1} | {:>8.2}% || {:>12.1} | {:>12.1} | {:>8.2}%",
            row.graph,
            row.block_bytes,
            row.hand_ns,
            row.extracted_ns,
            row.rel_throughput_pct(),
            paper.2,
            paper.3,
            paper.2 / paper.3 * 100.0,
        );
    }
    println!();
    println!("Shape checks: every row ≥ 85 % relative throughput; IIR at parity.");

    if let Some(path) = trace_out {
        use cgsim::graphs::all_apps;
        use cgsim::sim::{simulate_graph_traced, SimConfig};
        use cgsim::trace::{export::json::snapshot_value, Tracer};
        let mut per_graph = Vec::new();
        for app in all_apps() {
            let tracer = Tracer::enabled();
            simulate_graph_traced(
                &app.graph(),
                &app.profiles(),
                &SimConfig::hand_optimized(),
                &app.workload(blocks),
                &tracer,
            )
            .expect("traced simulation");
            per_graph.push((app.name().to_owned(), snapshot_value(&tracer.snapshot())));
        }
        let doc = serde_json::Value::Object(per_graph);
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&doc).expect("serialize"),
        )
        .expect("write trace snapshot");
        println!("trace snapshots written to {}", path.display());
    }
}
