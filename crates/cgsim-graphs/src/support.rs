//! Shared plumbing for the evaluation applications: generic run helpers
//! over every backend, and profile bookkeeping.

use crate::apps::{AppRun, Launch};
use aie_sim::KernelCostProfile;
use cgsim_compiled::{compile_for, CompiledPlan};
use cgsim_core::{FlatGraph, GraphError, StreamData};
use cgsim_runtime::{Backend, Interrupt, KernelLibrary, RunSpec, RuntimeContext};
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

/// Run a one-input/one-output graph under `spec`; returns outputs and raw
/// metrics (checksum/out_elems left for the caller to fill).
pub fn run_simple<TIn: StreamData, TOut: StreamData>(
    graph: &FlatGraph,
    lib: &KernelLibrary,
    spec: &RunSpec,
    input: Vec<TIn>,
) -> Result<(Vec<TOut>, AppRun), String> {
    run_simple_launched(graph, lib, spec, input, Launch::default())
}

/// [`run_simple`] with per-launch resources (cached plan, tracer).
pub fn run_simple_launched<TIn: StreamData, TOut: StreamData>(
    graph: &FlatGraph,
    lib: &KernelLibrary,
    spec: &RunSpec,
    input: Vec<TIn>,
    launch: Launch,
) -> Result<(Vec<TOut>, AppRun), String> {
    run_with_inputs(graph, lib, spec, launch, |ctx| ctx.feed(0, input))
}

/// Run a graph whose input 0 is a data stream and input 1 a runtime
/// parameter.
pub fn run_with_param<TIn: StreamData, P: StreamData, TOut: StreamData>(
    graph: &FlatGraph,
    lib: &KernelLibrary,
    spec: &RunSpec,
    input: Vec<TIn>,
    param: P,
) -> Result<(Vec<TOut>, AppRun), String> {
    run_with_param_launched(graph, lib, spec, input, param, Launch::default())
}

/// [`run_with_param`] with per-launch resources (cached plan, tracer).
pub fn run_with_param_launched<TIn: StreamData, P: StreamData, TOut: StreamData>(
    graph: &FlatGraph,
    lib: &KernelLibrary,
    spec: &RunSpec,
    input: Vec<TIn>,
    param: P,
    launch: Launch,
) -> Result<(Vec<TOut>, AppRun), String> {
    run_with_inputs(graph, lib, spec, launch, |ctx| {
        ctx.feed(0, input)?;
        ctx.feed(1, vec![param])
    })
}

fn run_with_inputs<TOut: StreamData>(
    graph: &FlatGraph,
    lib: &KernelLibrary,
    spec: &RunSpec,
    launch: Launch,
    feed: impl FnOnce(&mut RuntimeContext<'_>) -> Result<(), GraphError>,
) -> Result<(Vec<TOut>, AppRun), String> {
    let text = |e: GraphError| e.to_string();
    // `Compiled` means "follow a plan if the graph has one": the launch's
    // cached plan, else one compiled here. Graphs outside the statically
    // schedulable class (merges, rate imbalance, cycles) and fault-carrying
    // specs have none and run plan-less.
    let plan = match spec.target() {
        Backend::Compiled if spec.config().faults.is_none() => launch
            .plan
            .or_else(|| compile_for(graph, spec.config()).ok()),
        _ => None,
    };
    let schedule = plan.as_ref().map(CompiledPlan::schedule);
    let mut ctx = RuntimeContext::from_spec_with_tracer(graph, lib, spec, launch.tracer, schedule)
        .map_err(text)?;
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

/// Convenience wrapper used by f32-stream apps.
pub fn run_one_in_one_out_f32(
    graph: &FlatGraph,
    lib: &KernelLibrary,
    spec: &RunSpec,
    input: Vec<f32>,
) -> Result<(Vec<f32>, AppRun), String> {
    run_simple::<f32, f32>(graph, lib, spec, input)
}
