//! # cgsim — umbrella crate
//!
//! Re-exports the whole framework. See the README for a tour; the individual
//! crates carry the detailed documentation:
//!
//! * [`core`] — graph IR, builder DSL, flattening, partitioning
//! * [`runtime`] — the simulator (`compute_kernel!`): cooperative,
//!   compiled-plan or thread-per-kernel scheduling of one runtime context,
//!   and the static-schedule compiler whose plans it follows
//! * [`intrinsics`] — AIE vector API emulation
//! * [`sim`] — cycle-approximate AIE array simulator
//! * [`extract`] — source-to-source graph extractor
//! * [`graphs`] — the four ported evaluation applications
//! * [`lint`] — ahead-of-run static graph verifier
//! * [`pool`] — parallel multi-instance batch engine
//! * [`serve`] — simulation-as-a-service HTTP daemon
//! * [`paper_tables`] — the paper's Table 1 and Table 2, reproduced

#![warn(missing_docs)]

pub mod paper_tables;

pub use aie_intrinsics as intrinsics;
pub use aie_sim as sim;
pub use cgsim_core as core;
pub use cgsim_extract as extract;
pub use cgsim_graphs as graphs;
pub use cgsim_lint as lint;
pub use cgsim_pool as pool;
pub use cgsim_runtime as runtime;
pub use cgsim_serve as serve;
pub use cgsim_trace as trace;

pub use cgsim_core::{Connector, FlatGraph, GraphBuilder, GraphError, PortSettings, Realm};
pub use cgsim_runtime::{compute_kernel, KernelLibrary, RuntimeConfig, RuntimeContext, SinkHandle};
