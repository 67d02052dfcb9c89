//! # aie-sim — cycle-approximate AIE array simulator
//!
//! Substitute for AMD's `aiesim` (cycle-approximate) in the paper's
//! evaluation (§5.2): it produces the "time between iterations" trace that
//! Table 1 is measured from, at the paper's clock configuration (AIE
//! 1250 MHz, PL 625 MHz).
//!
//! Architecture:
//!
//! * [`engine`] — a discrete-event simulator of nodes (PLIO sources, tile
//!   kernels, PLIO sinks) connected by bounded FIFOs, reproducing pipeline
//!   fill, backpressure and rate matching;
//! * [`vliw`] — the AIE1 issue-slot model that converts instrumented
//!   intrinsic op counts into compute cycle bounds;
//! * [`cost`] — per-kernel cost profiles *measured* from the functional
//!   kernels via `aie_intrinsics::counter`;
//! * [`config`] — clocks, stream bandwidth, and the [`config::Variant`]
//!   distinguishing hand-optimized from extractor-generated stream-access
//!   code (the cause of the paper's ≤15 % gap);
//! * [`graphsim`] — binds a `FlatGraph` to the engine;
//! * [`mod@array`] — tile-grid placement with window-adjacency checking;
//! * [`deploy`] — the JSON deployment manifest the graph extractor emits
//!   in place of a Vitis project.

#![warn(missing_docs)]

pub mod array;
pub mod config;
pub mod cost;
pub mod deploy;
pub mod engine;
pub mod graphsim;
pub mod report;
pub mod vliw;

pub use array::{ArrayGeometry, Placement, TileCoord};
pub use cgsim_lint::VerifyPolicy;
pub use cgsim_trace;
pub use config::{IoInterface, SimConfig, Variant};
pub use cost::{KernelCostProfile, PortTraffic};
pub use deploy::{deploy as deploy_manifest, DeployManifest, DeployOptions};
pub use engine::{NodeKind, Sim, SimTrace, TraceEntry};
pub use graphsim::{simulate_graph, simulate_graph_traced, GraphTrace, WorkloadSpec};
pub use report::{KernelReport, SimReport};
pub use vliw::SlotModel;
