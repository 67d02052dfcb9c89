//! A run that follows a compiled plan keeps every channel to a fixed byte
//! budget, so a stream longer than the budget runs in rounds: producers
//! suspend on a full channel and the FIFO executor hands off downstream,
//! instead of every channel growing to the whole stream.
//!
//! The 1 M-element variant is `#[ignore]`d (it is slow in debug builds);
//! run it with
//! `cargo test --release --test compiled_rounds -- --ignored`.

use cgsim::core::{FlatGraph, GraphBuilder};
use cgsim::runtime::{
    compute_kernel, Backend, KernelLibrary, Launch, RunReport, RunSpec, RuntimeContext,
};
use cgsim::trace::Tracer;

/// Bytes a planned channel may hold: the runtime's budget, pinned here.
const PLAN_CHANNEL_BYTES: usize = 64 << 10;
/// Elements a planned `i64` channel holds (the default depth is smaller).
const PLANNED_CAPACITY: u64 = (PLAN_CHANNEL_BYTES / std::mem::size_of::<i64>()) as u64;
/// Forwarding kernels in the pipeline.
const STAGES: usize = 16;

compute_kernel! {
    /// Forwards elements unchanged.
    #[realm(aie)]
    pub fn forward_kernel(input: ReadPort<i64>, out: WritePort<i64>) {
        while let Some(v) = input.get().await {
            out.put(v).await;
        }
    }
}

/// [`STAGES`] forwarding kernels in a row, every connector at the default
/// depth.
fn pipeline() -> FlatGraph {
    GraphBuilder::build("rounds", |g| {
        let mut prev = g.input::<i64>("in");
        for _ in 0..STAGES {
            let next = g.wire::<i64>();
            forward_kernel::invoke(g, &prev, &next)?;
            prev = next;
        }
        g.output(&prev);
        Ok(())
    })
    .unwrap()
}

/// Stream `0..elements` through `graph` on `backend`; returns the output
/// and the report of a drained run.
fn run(
    graph: &FlatGraph,
    backend: Backend,
    elements: i64,
    launch: Launch,
) -> (Vec<i64>, RunReport) {
    let lib = KernelLibrary::with(|l| {
        l.register::<forward_kernel>();
    });
    let spec = RunSpec::default().backend(backend);
    let mut ctx = RuntimeContext::launch(graph, &lib, &spec, launch).unwrap();
    ctx.feed(0, 0..elements).unwrap();
    let out = ctx.collect::<i64>(0).unwrap();
    let report = ctx.run().unwrap();
    assert!(
        report.drained(),
        "{backend:?} stalled: {:?}",
        report.stalled
    );
    (out.take(), report)
}

/// Run the pipeline cooperatively and planned on `elements` elements, and
/// check the planned run against the rounds contract.
fn check_rounds(elements: i64) {
    let graph = pipeline();
    let (reference, cooperative) = run(&graph, Backend::Cooperative, elements, Launch::default());
    assert!(reference.iter().copied().eq(0..elements));
    let traced = Launch::default().with_tracer(Tracer::enabled());
    let (out, planned) = run(&graph, Backend::Compiled, elements, traced);
    assert!(out == reference, "planned output differs from cooperative");

    // The plan was followed, and every channel stayed inside its budget.
    assert_eq!(planned.trace.channels.len(), STAGES + 1);
    for info in &planned.trace.channels {
        assert_eq!(info.capacity, PLANNED_CAPACITY, "channel {}", info.name);
    }
    for (name, stats) in &planned.channels {
        assert_eq!(stats.pushes, elements as u64, "channel {name}");
        assert!(
            stats.max_occupancy <= PLANNED_CAPACITY,
            "channel {name} held {} elements",
            stats.max_occupancy
        );
    }

    // More than one round, yet far fewer polls than discovering the order.
    let tasks = planned.exec.tasks as u64;
    assert_eq!(tasks, STAGES as u64 + 2);
    assert!(planned.exec.polls > tasks, "{} polls", planned.exec.polls);
    assert!(
        planned.exec.polls * 20 < cooperative.exec.polls,
        "planned {} polls, cooperative {}",
        planned.exec.polls,
        cooperative.exec.polls
    );
}

#[test]
fn a_stream_three_times_the_budget_runs_in_rounds() {
    check_rounds(3 * PLANNED_CAPACITY as i64);
}

#[test]
fn a_stream_that_fits_the_budget_drains_in_one_poll_per_task() {
    let graph = pipeline();
    let (out, report) = run(
        &graph,
        Backend::Compiled,
        PLANNED_CAPACITY as i64,
        Launch::default(),
    );
    assert!(out.iter().copied().eq(0..PLANNED_CAPACITY as i64));
    assert_eq!(report.exec.polls, report.exec.tasks as u64);
    for (name, stats) in &report.channels {
        assert_eq!(stats.blocked_writes, 0, "channel {name}");
    }
}

#[test]
#[ignore = "1 M elements through 17 channels; run in release"]
fn a_million_elements_run_in_rounds() {
    check_rounds(1_000_000);
}
