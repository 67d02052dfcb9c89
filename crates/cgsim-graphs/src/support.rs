//! Shared plumbing for the evaluation applications: generic run helpers
//! over both functional runtimes, and profile bookkeeping.

use crate::apps::{AppRun, Launch};
use aie_sim::KernelCostProfile;
use cgsim_compiled::{compile_for, CompiledPlan};
use cgsim_core::{FlatGraph, GraphError, StreamData};
use cgsim_runtime::{
    Backend, Interrupt, KernelLibrary, RunReport, RunSpec, RuntimeContext, SinkHandle,
};
use cgsim_threads::{ThreadedConfig, ThreadedContext};
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

/// The context a spec's backend selects: the cooperative executor (with a
/// plan for `Backend::Compiled`) or one thread per kernel. The two share
/// their methods but no trait; this is the one place that papers over it.
// One value per run, on the stack: boxing would add an allocation to every
// launch to shrink a type nothing stores.
#[allow(clippy::large_enum_variant)]
enum Context<'g> {
    Executor(RuntimeContext<'g>),
    Threads(ThreadedContext<'g>),
}

impl Context<'_> {
    fn feed<T: StreamData>(&mut self, index: usize, data: Vec<T>) -> Result<(), GraphError> {
        match self {
            Context::Executor(ctx) => ctx.feed(index, data),
            Context::Threads(ctx) => ctx.feed(index, data),
        }
    }

    fn collect<T: StreamData>(&mut self, index: usize) -> Result<SinkHandle<T>, GraphError> {
        match self {
            Context::Executor(ctx) => ctx.collect(index),
            Context::Threads(ctx) => ctx.collect(index),
        }
    }

    /// Run to completion; the threaded engine has no scheduler to report on.
    fn run(self) -> Result<Option<RunReport>, GraphError> {
        match self {
            Context::Executor(ctx) => ctx.run().map(Some),
            Context::Threads(ctx) => ctx.run().map(|_| None),
        }
    }
}

fn run_with_inputs<TOut: StreamData>(
    graph: &FlatGraph,
    lib: &KernelLibrary,
    spec: &RunSpec,
    launch: Launch,
    feed: impl FnOnce(&mut Context<'_>) -> Result<(), GraphError>,
) -> Result<(Vec<TOut>, AppRun), String> {
    let text = |e: GraphError| e.to_string();
    let mut ctx = match spec.target() {
        // Only `default_depth` carries over: schedule, faults, profiling
        // and deadline are cooperative-engine concepts (see
        // `Backend::Threaded` docs).
        Backend::Threaded => {
            let config = ThreadedConfig {
                default_depth: spec.config().default_depth,
            };
            Context::Threads(ThreadedContext::new(graph, lib, config).map_err(text)?)
        }
        backend => {
            // `Compiled` means "follow a plan if the graph has one": the
            // launch's cached plan, else one compiled here. Graphs outside
            // the statically schedulable class (merges, rate imbalance,
            // cycles) and fault-carrying specs have none and run plan-less.
            let plan = match backend {
                Backend::Compiled if spec.config().faults.is_none() => launch
                    .plan
                    .or_else(|| compile_for(graph, spec.config()).ok()),
                _ => None,
            };
            let schedule = plan.as_ref().map(CompiledPlan::schedule);
            Context::Executor(
                RuntimeContext::from_spec_with_tracer(graph, lib, spec, launch.tracer, schedule)
                    .map_err(text)?,
            )
        }
    };
    feed(&mut ctx).map_err(text)?;
    let out = ctx.collect::<TOut>(0).map_err(text)?;
    let start = Instant::now();
    let report = ctx.run().map_err(text)?;
    let wall_time = start.elapsed();
    if let Some(report) = &report {
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
    }
    Ok((
        out.take(),
        AppRun {
            wall_time,
            out_elems: 0,
            checksum: 0,
            kernel_fraction: report.as_ref().map(|r| r.exec.kernel_fraction()),
            report: report.map(Arc::new),
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
