//! Shared plumbing for the evaluation applications: the one run helper
//! every app launches through, and profile bookkeeping.

use crate::apps::AppRun;
use aie_sim::KernelCostProfile;
use cgsim_core::{FlatGraph, GraphError, StreamData};
use cgsim_runtime::{Interrupt, KernelLibrary, Launch, RunSpec, RuntimeContext};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Profile bookkeeping helpers.
pub mod measure {
    use super::*;

    /// Build a profile map from an iterator of profiles.
    pub fn profile_map(
        profiles: impl IntoIterator<Item = KernelCostProfile>,
    ) -> HashMap<String, KernelCostProfile> {
        profiles
            .into_iter()
            .map(|p| (p.kernel.clone(), p))
            .collect()
    }
}

/// Launch `graph` under `spec` with `launch`'s resources, attach its inputs
/// with `feed`, collect output 0 and run to completion; a deadline,
/// cancellation or stall is an error. Returns the output and the run's
/// metrics (checksum and `out_elems` left for the caller to fill).
pub fn run<TOut: StreamData>(
    graph: &FlatGraph,
    lib: &KernelLibrary,
    spec: &RunSpec,
    launch: Launch,
    feed: impl FnOnce(&mut RuntimeContext<'_>) -> Result<(), GraphError>,
) -> Result<(Vec<TOut>, AppRun), String> {
    let text = |e: GraphError| e.to_string();
    let mut ctx = RuntimeContext::launch(graph, lib, spec, launch).map_err(text)?;
    feed(&mut ctx).map_err(text)?;
    let out = ctx.collect::<TOut>(0).map_err(text)?;
    let start = Instant::now();
    let report = ctx.run().map_err(text)?;
    let wall_time = start.elapsed();
    match report.interrupted() {
        Some(Interrupt::Deadline) => {
            return Err(format!(
                "deadline exceeded after {:?} ({} polls)",
                spec.deadline_budget().unwrap_or_default(),
                report.exec.polls
            ))
        }
        Some(Interrupt::Cancelled) => return Err("run cancelled".into()),
        None => {}
    }
    if !report.drained() {
        return Err(format!("graph stalled: {:?}", report.stalled));
    }
    Ok((
        out.take(),
        AppRun {
            wall_time,
            out_elems: 0,
            checksum: 0,
            kernel_fraction: Some(report.exec.kernel_fraction()),
            report: Some(Arc::new(report)),
        },
    ))
}
