//! # cgsim-core — compute graph intermediate representation
//!
//! This crate implements the graph-construction half of the cgsim framework
//! described in *"A Compute Graph Simulation and Implementation Framework
//! Targeting AMD Versal AI Engines"* (H2RC @ SC'25):
//!
//! * a typed [`builder::GraphBuilder`] DSL mirroring the paper's
//!   `make_compute_graph_v` lambda (§3.4) — kernels are *invoked* on
//!   [`builder::Connector`]s, implicit broadcast/merge arise when a connector
//!   has several consumers/producers,
//! * the flattened, array-based serialization [`flat::FlatGraph`] (§3.5) that
//!   both the runtime deserializer and the graph extractor consume,
//! * port settings with compatibility merging (§3.4): connecting two
//!   parameterized ports unifies their configuration or fails,
//! * realm annotations and graph partitioning (§4.3) used by the extractor,
//! * a [`static_graph`] module demonstrating genuinely *compile-time* graph
//!   construction in `const` context, the Rust analogue of the paper's
//!   `constexpr new` construction, including const-evaluation errors for
//!   incompatible settings.
//!
//! The runtime (coroutine-equivalent execution) lives in `cgsim-runtime`; the
//! source-to-source extractor in `cgsim-extract`.

#![warn(missing_docs)]

pub mod analysis;
pub mod attrs;
pub mod builder;
pub mod dot;
pub mod dtype;
pub mod error;
pub mod flat;
pub mod id;
pub mod kernel;
pub mod partition;
pub mod realm;
pub mod schedule;
pub mod settings;
pub mod static_graph;

pub use analysis::{CheckedGraph, Topology};
pub use attrs::{AttrList, AttrValue, Attribute};
pub use builder::{Connector, GraphBuilder};
pub use dot::{to_dot, to_dot_styled, DotStyle};
pub use dtype::{DTypeDesc, StreamData};
pub use error::GraphError;
pub use flat::{
    Endpoint, FlatConnector, FlatGraph, FlatKernel, FlatPort, GraphStats, StructuralFindings,
};
pub use id::{ConnectorId, KernelId, PortId};
pub use kernel::{KernelDecl, KernelMeta, PortDir, PortKind, PortSig};
pub use partition::{BoundaryPort, ConnectorClass, RealmPartition, RealmSubgraph};
pub use realm::Realm;
pub use schedule::{
    ConnectorBounds, CostEstimate, FiringVector, GraphBounds, Rational, StaticSchedule,
};
pub use settings::{PortSettings, SettingsConflict};
