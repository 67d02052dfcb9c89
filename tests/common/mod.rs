//! Helpers shared by the integration tests: the build-feed-collect-run
//! boilerplate around the runtime's backends, deduplicated from the
//! individual test files. Each test binary compiles its own copy and uses a
//! subset, hence the `dead_code` allowance.

#![allow(dead_code)]

use cgsim::compiled::{compile_for, CompiledPlan};
use cgsim::core::{FlatGraph, StreamData};
use cgsim::runtime::{Backend, KernelLibrary, RunSpec, RuntimeConfig, RuntimeContext, Schedule};
use cgsim::trace::Tracer;

/// Run `graph` on the cooperative runtime under the default FIFO schedule:
/// feed `inputs` positionally, require the run to drain, return output 0.
pub fn run_coop<TIn: StreamData, TOut: StreamData>(
    graph: &FlatGraph,
    lib: &KernelLibrary,
    inputs: Vec<Vec<TIn>>,
) -> Vec<TOut> {
    run_coop_scheduled(graph, lib, inputs, Schedule::Fifo)
}

/// [`run_coop`] under an explicit ready-list schedule (e.g.
/// `Schedule::Seeded(seed)` for a replayable permutation).
pub fn run_coop_scheduled<TIn: StreamData, TOut: StreamData>(
    graph: &FlatGraph,
    lib: &KernelLibrary,
    inputs: Vec<Vec<TIn>>,
    schedule: Schedule,
) -> Vec<TOut> {
    run_executor(graph, lib, inputs, RuntimeConfig::scheduled(schedule), None)
}

fn run_executor<TIn: StreamData, TOut: StreamData>(
    graph: &FlatGraph,
    lib: &KernelLibrary,
    inputs: Vec<Vec<TIn>>,
    config: RuntimeConfig,
    plan: Option<&CompiledPlan>,
) -> Vec<TOut> {
    let schedule = plan.map(CompiledPlan::schedule);
    let mut ctx =
        RuntimeContext::with_plan(graph, lib, config, Tracer::default(), schedule).unwrap();
    for (i, input) in inputs.into_iter().enumerate() {
        ctx.feed(i, input).unwrap();
    }
    let out = ctx.collect::<TOut>(0).unwrap();
    let report = ctx.run().unwrap();
    assert!(report.drained(), "graph stalled: {:?}", report.stalled);
    out.take()
}

/// Run `graph` on the thread-per-kernel runtime; same contract as
/// [`run_coop`].
pub fn run_threaded<TIn: StreamData, TOut: StreamData>(
    graph: &FlatGraph,
    lib: &KernelLibrary,
    inputs: Vec<Vec<TIn>>,
) -> Vec<TOut> {
    let spec = RunSpec::for_graph(&graph.name).backend(Backend::Threaded);
    let mut ctx = RuntimeContext::from_spec(graph, lib, &spec).unwrap();
    for (i, input) in inputs.into_iter().enumerate() {
        ctx.feed(i, input).unwrap();
    }
    let out = ctx.collect::<TOut>(0).unwrap();
    ctx.run().unwrap();
    out.take()
}

/// Run `graph` following its compiled static schedule; same contract as
/// [`run_coop`].
pub fn run_compiled<TIn: StreamData, TOut: StreamData>(
    graph: &FlatGraph,
    lib: &KernelLibrary,
    inputs: Vec<Vec<TIn>>,
) -> Vec<TOut> {
    let config = RuntimeConfig::default();
    let plan = compile_for(graph, &config).unwrap();
    run_executor(graph, lib, inputs, config, Some(&plan))
}
