//! # cgsim-compiled — re-exports for the frozen benchmark
//!
//! The schedule compiler ([`compile`], [`compile_for`], [`CompiledPlan`])
//! lives in `cgsim-runtime`, whose `RuntimeContext::launch` is the one place
//! that decides what `Backend::Compiled` runs. This crate keeps the paths
//! the benchmark runner (`perfbench/`) names — these re-exports and the
//! [`CompiledContext`] delegation shim — and goes once the runner uses
//! `cgsim_runtime` directly. No crate of the workspace depends on it.

#![warn(missing_docs)]

mod context;

pub use cgsim_lint::LintConfig;
pub use cgsim_runtime::{compile, compile_for, CompileError, CompiledPlan, RejectReason};
pub use context::CompiledContext;
