//! Helpers shared by the integration tests: the build-feed-collect-run
//! boilerplate around the runtime's backends, deduplicated from the
//! individual test files. Each test binary compiles its own copy and uses a
//! subset, hence the `dead_code` allowance.

#![allow(dead_code)]

use cgsim::core::{FlatGraph, StreamData};
use cgsim::runtime::{compile_for, Backend, KernelLibrary, RunSpec, RuntimeContext, Schedule};

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
    run_spec(
        graph,
        lib,
        inputs,
        &RunSpec::for_graph(&graph.name).schedule(schedule),
    )
}

fn run_spec<TIn: StreamData, TOut: StreamData>(
    graph: &FlatGraph,
    lib: &KernelLibrary,
    inputs: Vec<Vec<TIn>>,
    spec: &RunSpec,
) -> Vec<TOut> {
    let mut ctx = RuntimeContext::from_spec(graph, lib, spec).unwrap();
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
    run_spec(graph, lib, inputs, &spec)
}

/// Run `graph` following its compiled static schedule (asserted to
/// exist); same contract as [`run_coop`].
pub fn run_compiled<TIn: StreamData, TOut: StreamData>(
    graph: &FlatGraph,
    lib: &KernelLibrary,
    inputs: Vec<Vec<TIn>>,
) -> Vec<TOut> {
    let spec = RunSpec::for_graph(&graph.name).backend(Backend::Compiled);
    compile_for(graph, spec.config()).unwrap();
    run_spec(graph, lib, inputs, &spec)
}
