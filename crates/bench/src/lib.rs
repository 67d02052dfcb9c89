//! # bench — harness reproducing the paper's evaluation (§5.2)
//!
//! * [`table1`] — processing time per input block on the simulated AIE
//!   hardware, hand-optimized vs cgsim-extracted, with relative throughput
//!   (paper Table 1);
//! * [`table2`] — wall-clock simulation time of the three simulators:
//!   cgsim (cooperative), x86sim substitute (thread-per-kernel) and the
//!   aiesim substitute (cycle-approximate, cycle-stepped) (paper Table 2),
//!   plus the §5.2 kernel-time-fraction profile;
//! * [`hotloop`] — before/after workloads for the hot-loop optimisation
//!   (fast-path channels, sampled profiling, batched window I/O), shared by
//!   the `hotloop` Criterion suite and the `bench-report` binary that
//!   emits `BENCH_PR4.json`;
//! * [`pool`] — paper-graph batch workloads for the `cgsim-pool` engine,
//!   shared by the `pool` Criterion suite and the `pool-report` binary
//!   that emits `BENCH_PR5.json` (batch throughput at 1/2/4/8 workers);
//! * [`kernels`] — kernel-compute suite comparing the scalar, SSE2 and
//!   AVX2 intrinsics tiers (per-op microbenches + whole ported kernels),
//!   shared by the `kernels` Criterion suite and the `kernels-report`
//!   binary that emits `BENCH_PR9.json`;
//! * [`serve`] — end-to-end request throughput of the `cgsim-serve` HTTP
//!   daemon, cold vs compiled-graph-cache hits, shared with the
//!   `serve-report` binary that emits `BENCH_PR10.json`;
//! * the `repro-table1` / `repro-table2` binaries print the same rows the
//!   paper reports, side by side with the paper's published numbers;
//! * `benches/` carries Criterion micro-benchmarks and the ablation studies
//!   DESIGN.md commits to (queue capacity, batching, thread-vs-coop
//!   crossover, I/O penalty sweep).

#![warn(missing_docs)]

pub mod hotloop;
pub mod kernels;
pub mod pool;
pub mod serve;
pub mod table1;
pub mod table2;

/// Paper-published Table 1 values (ns per block) for side-by-side output.
pub const PAPER_TABLE1: [(&str, u64, f64, f64); 4] = [
    ("bitonic", 64, 3556.8, 4168.8),
    ("farrow", 4096, 912.8, 1019.0),
    ("IIR", 8192, 5410.0, 5385.0),
    ("bilinear", 2048, 484.0, 567.2),
];

/// Paper-published Table 2 values (repetitions, cgsim s, x86sim s,
/// aiesim s).
pub const PAPER_TABLE2: [(&str, u64, f64, f64, f64); 4] = [
    ("bitonic", 1024, 14.32, 22.90, 5825.96),
    ("farrow", 512, 22.26, 20.70, 4287.03),
    ("IIR", 256, 18.20, 21.37, 4346.19),
    ("bilinear", 1, 14.95, 15.57, 3534.90),
];

/// Markdown-ish fixed-width row printer shared by the table binaries.
pub fn print_rule(widths: &[usize]) {
    let total: usize = widths.iter().sum::<usize>() + widths.len() * 3 - 1;
    println!("{}", "-".repeat(total));
}
