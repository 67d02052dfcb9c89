//! # perfbench — the cgsim benchmark
//!
//! One runner (`src/bin/bench.rs`), six workloads, six gated end-to-end
//! metrics and a per-layer budget, as declared in `BENCHMARK.json` at the
//! repository root. Every layer is measured from outside, through its
//! public API; nothing outside this directory changes. See `README.md`.

#![warn(missing_docs)]

pub mod suite;
