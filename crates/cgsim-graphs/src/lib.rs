//! # cgsim-graphs — the four ported evaluation applications (§5)
//!
//! Ports of the AMD *Vitis-Tutorials* examples the paper evaluates on:
//!
//! | App | Kernels | Block (Table 1) | What it stresses |
//! |---|---|---|---|
//! | [`bitonic`] | 1 | 64 B | AIE API coverage, sync-heavy small blocks |
//! | [`farrow`] | 2 | 4096 B | hand-optimized fixed-point SIMD, ping-pong I/O, RTP |
//! | [`iir`] | 1 | 8192 B | window-bound throughput kernel (parity case) |
//! | [`bilinear`] | 1 | 2048 B | f32 vector MACs, custom struct streams |
//!
//! Every app ships a scalar golden reference with *identical operation
//! ordering*, so functional runs under every backend are verified bit-exactly,
//! plus measured cost profiles for the cycle-approximate simulator. The
//! [`apps::EvalApp`] trait is the interface the Table 1/Table 2 harnesses
//! consume.

#![warn(missing_docs)]

pub mod apps;
pub mod bilinear;
pub mod bitonic;
pub mod farrow;
pub mod iir;
pub mod support;

pub use apps::{all_apps, AppRun, EvalApp};
pub use cgsim_runtime::{Backend, Launch, Profiling, RunSpec, Schedule};
