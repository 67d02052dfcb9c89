//! Observability integration tests: the unified tracing layer produces
//! structurally valid Chrome-trace JSON from the cooperative runtime, and
//! the simulator's live trace agrees with the legacy [`SimReport`] view on
//! every paper evaluation graph.

use std::collections::HashMap;

use cgsim::graphs::all_apps;
use cgsim::runtime::{
    compute_graph, compute_kernel, KernelLibrary, Launch, Profiling, RunSpec, RuntimeContext,
};
use cgsim::sim::{simulate_graph_traced, SimConfig, SimReport};
use cgsim::trace::export::prometheus;
use cgsim::trace::Tracer;

compute_kernel! {
    #[realm(aie)]
    pub fn adder_kernel(
        in1: ReadPort<f32>,
        in2: ReadPort<f32>,
        out: WritePort<f32>,
    ) {
        loop {
            let (Some(a), Some(b)) = (in1.get().await, in2.get().await) else { break };
            out.put(a + b).await;
        }
    }
}

compute_kernel! {
    #[realm(aie)]
    pub fn doubler_kernel(input: ReadPort<f32>, out: WritePort<f32>) {
        while let Some(v) = input.get().await {
            out.put(v * 2.0).await;
        }
    }
}

fn traced_quickstart_run() -> cgsim::runtime::RunReport {
    let graph = compute_graph! {
        name: traced_quickstart,
        inputs: (a: f32, b: f32),
        body: {
            let sum = wire::<f32>();
            let result = wire::<f32>();
            adder_kernel(a, b, sum);
            doubler_kernel(sum, result);
        },
        outputs: (result),
    }
    .unwrap();
    let library = KernelLibrary::with(|l| {
        l.register::<adder_kernel>();
        l.register::<doubler_kernel>();
    });
    let launch = Launch::default().with_tracer(Tracer::enabled());
    let mut ctx = RuntimeContext::launch(&graph, &library, &RunSpec::default(), launch).unwrap();
    ctx.feed(0, vec![1.0f32, 2.0, 3.0, 4.0]).unwrap();
    ctx.feed(1, vec![10.0f32, 20.0, 30.0, 40.0]).unwrap();
    let out = ctx.collect::<f32>(0).unwrap();
    let report = ctx.run().unwrap();
    assert_eq!(out.take(), vec![22.0, 44.0, 66.0, 88.0]);
    report
}

/// Golden structural facts about the runtime's Chrome-trace export. Exact
/// timestamps are wall-clock and vary run to run, so the test pins the
/// shape: document layout, phase set, one track per kernel, monotone and
/// bounded slices.
#[test]
fn runtime_chrome_trace_is_perfetto_loadable() {
    let report = traced_quickstart_run();
    let doc: serde_json::Value = serde_json::from_str(&report.chrome_trace()).unwrap();
    assert_eq!(doc["displayTimeUnit"], "ns");
    let events = doc["traceEvents"].as_array().unwrap();
    assert!(!events.is_empty());

    let mut tracks = Vec::new();
    for e in events {
        // Every event carries the mandatory Trace Event Format fields.
        let ph = e["ph"].as_str().unwrap();
        assert!(
            ["X", "C", "b", "e", "i"].contains(&ph),
            "unexpected phase {ph}"
        );
        assert!(e["ts"].as_f64().unwrap() >= 0.0);
        assert_eq!(e["pid"].as_i64(), Some(1));
        if ph == "X" {
            assert!(e["dur"].as_f64().unwrap() >= 0.0);
        }
        if let Some(tid) = e["tid"].as_str() {
            if !tracks.contains(&tid.to_owned()) {
                tracks.push(tid.to_owned());
            }
        }
    }
    // One track per kernel task: the two compute kernels plus the runtime's
    // source/sink driver tasks.
    for expected in [
        "adder_kernel_0",
        "doubler_kernel_0",
        "source_0",
        "source_1",
        "sink_0",
    ] {
        assert!(
            tracks.iter().any(|t| t == expected),
            "missing track {expected}"
        );
    }
    // Poll slices exist for the compute kernels.
    assert!(events
        .iter()
        .any(|e| e["name"] == "poll" && e["tid"] == "adder_kernel_0"));
    // Channel occupancy counters exist.
    assert!(events.iter().any(|e| e["ph"] == "C"));
}

/// The trace snapshot and the plain-text summary agree with each other and
/// with the executor's task list.
#[test]
fn runtime_summary_names_every_task() {
    let report = traced_quickstart_run();
    let summary = report.summary();
    for task in &report.tasks {
        assert!(
            summary.contains(&task.label),
            "summary missing task {}",
            task.label
        );
    }
    assert!(report
        .trace
        .records
        .iter()
        .any(|r| r.event.kind() == "run_end"));
    // Channel counters flowed into the metrics registry.
    assert!(report
        .trace
        .metrics
        .counters
        .iter()
        .any(|(k, v)| k.name == "channel_pushes" && *v > 0));
}

/// §5.2 cross-check on all four paper graphs: per-kernel iteration counts
/// seen live by the tracer must equal the counts the legacy SimReport
/// derives from the engine's own trace, and the summary-table rendering of
/// both views must list every kernel instance.
#[test]
fn simulator_trace_matches_simreport_on_paper_graphs() {
    for app in all_apps() {
        let graph = app.graph();
        let profiles = app.profiles();
        let workload = app.workload(32);
        let config = SimConfig::hand_optimized();
        let tracer = Tracer::enabled();
        let trace = simulate_graph_traced(&graph, &profiles, &config, &workload, &tracer).unwrap();
        let kinds: HashMap<String, String> = graph
            .kernels
            .iter()
            .map(|k| (k.instance.clone(), k.kind.clone()))
            .collect();
        let report = SimReport::build(&trace, &profiles, &kinds, &config);

        let snapshot = tracer.snapshot();
        let live_counts = snapshot.iteration_counts();
        for kernel in &report.kernels {
            let i = snapshot
                .kernels
                .iter()
                .position(|n| n == &kernel.instance)
                .unwrap_or_else(|| panic!("{}: {} not traced", app.name(), kernel.instance));
            assert_eq!(
                live_counts[i],
                kernel.iterations,
                "{}: iteration count mismatch for {}",
                app.name(),
                kernel.instance
            );
        }
        let rendered = report.render();
        for kernel in &report.kernels {
            assert!(rendered.contains(&kernel.instance), "{}", app.name());
        }
        assert!(rendered.contains("busy cycles"));
    }
}

/// A paper-graph run's metrics render to Prometheus text exposition that
/// round-trips the committed golden file byte for byte.
///
/// Determinism: the cooperative scheduler is single-threaded FIFO, and
/// `Profiling::Off` suppresses the only wall-clock-derived metric (the
/// `poll_ns` histogram), leaving pure counting metrics — channel
/// pushes/pops, blocked reads/writes, occupancy gauges — that are a pure
/// function of the graph and workload. Regenerate with
/// `BLESS=1 cargo test prometheus_export`.
#[test]
fn prometheus_export_of_paper_graph_matches_golden_file() {
    use cgsim::graphs::bitonic;
    let graph = bitonic::build_graph();
    let library = KernelLibrary::with(|l| {
        l.register::<bitonic::bitonic_kernel>();
    });
    let spec = RunSpec::default().profiling(Profiling::Off);
    let launch = Launch::default().with_tracer(Tracer::enabled());
    let mut ctx = RuntimeContext::launch(&graph, &library, &spec, launch).unwrap();
    ctx.feed(0, bitonic::make_input(8)).unwrap();
    let out = ctx.collect::<f32>(0).unwrap();
    let report = ctx.run().unwrap();
    assert!(report.drained());
    assert_eq!(out.len(), 8 * 16);

    // Sources and sinks move batches, but the counters stay element-exact:
    // every push/pop series equals the run report's element count.
    for (name, stats) in &report.channels {
        let series = |metric: &str| {
            let key = format!("{metric}{{channel={name}}}");
            report.trace.metrics.counter_value(&key)
        };
        assert_eq!(stats.pushes, 8 * 16, "channel {name}");
        assert_eq!(series("channel_pushes"), Some(stats.pushes), "{name}");
        assert_eq!(series("channel_pops"), Some(stats.pops), "{name}");
    }
    let push_pop_series = (report.trace.metrics.counters.iter())
        .filter(|(k, _)| {
            let key = k.render();
            key.starts_with("channel_pushes{") || key.starts_with("channel_pops{")
        })
        .count();
    assert_eq!(push_pop_series, 2 * report.channels.len());

    let text = prometheus::render(&report.trace.metrics);
    // Structural validity first: the in-repo exposition checker accepts it.
    prometheus::check_exposition(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}"));

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/prometheus_bitonic.txt"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &text).unwrap();
    }
    let golden = std::fs::read_to_string(path).unwrap();
    assert_eq!(
        text, golden,
        "Prometheus export drifted from tests/golden/prometheus_bitonic.txt \
         (BLESS=1 to regenerate after an intentional change)"
    );
}

/// The simulator's Chrome export built from the frozen engine trace equals
/// (event for event) the export built from the live tracer's IterationEnd
/// records: two paths into one exporter, one result.
#[test]
fn simulator_chrome_export_paths_agree() {
    let app = &all_apps()[0]; // bitonic
    let graph = app.graph();
    let profiles = app.profiles();
    let workload = app.workload(16);
    let config = SimConfig::hand_optimized();
    let tracer = Tracer::enabled();
    let trace = simulate_graph_traced(&graph, &profiles, &config, &workload, &tracer).unwrap();

    let services: HashMap<String, u64> = graph
        .kernels
        .iter()
        .map(|k| {
            (
                k.instance.clone(),
                profiles[&k.kind].iteration_cycles(&config),
            )
        })
        .collect();
    let from_engine: serde_json::Value =
        serde_json::from_str(&trace.chrome_trace(&services)).unwrap();
    let engine_iters = from_engine["traceEvents"].as_array().unwrap();

    let snapshot = tracer.snapshot();
    let live = cgsim::trace::export::chrome::chrome_trace_events(&snapshot);
    let live_iters: Vec<&serde_json::Value> =
        live.iter().filter(|e| e["cat"] == "kernel").collect();

    assert_eq!(engine_iters.len(), live_iters.len());
    for (a, b) in engine_iters.iter().zip(&live_iters) {
        assert_eq!(a["name"], b["name"]);
        assert_eq!(a["tid"], b["tid"]);
        assert_eq!(a["ts"].as_f64(), b["ts"].as_f64());
        assert_eq!(a["dur"].as_f64(), b["dur"].as_f64());
    }
}
