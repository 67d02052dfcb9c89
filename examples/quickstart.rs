//! Quickstart: define a kernel (paper Figure 3), build a graph (Figure 4),
//! and simulate it — all inside one ordinary Rust program, which is the
//! paper's core promise: graph prototypes embed directly in the host
//! application.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Pass `--trace out.json` to record a Chrome-trace of the run (open in
//! `chrome://tracing` or `ui.perfetto.dev`): one track per kernel, channel
//! occupancy counters, blocked intervals.

use cgsim::runtime::{
    compute_graph, compute_kernel, KernelLibrary, Launch, RunSpec, RuntimeContext,
};
use cgsim::trace::Tracer;

compute_kernel! {
    /// The paper's Figure 3 kernel: reads pairs of values from two input
    /// streams, computes their sum, writes the result to an output stream.
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
    /// Doubles each sample — used to form a small pipeline.
    #[realm(aie)]
    pub fn doubler_kernel(input: ReadPort<f32>, out: WritePort<f32>) {
        while let Some(v) = input.get().await {
            out.put(v * 2.0).await;
        }
    }
}

/// Parse `--trace <path>` from the command line, if present.
fn trace_path() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            return args.next().map(Into::into);
        }
    }
    None
}

fn main() {
    // Figure 4 style: inputs become global inputs, wires are internal
    // connectors, kernels are invoked positionally, outputs are returned.
    let graph = compute_graph! {
        name: quickstart,
        inputs: (a: f32, b: f32),
        body: {
            let sum = wire::<f32>();
            let result = wire::<f32>();
            adder_kernel(a, b, sum);
            doubler_kernel(sum, result);
            attr(result, "plio_name", "result_out");
        },
        outputs: (result),
    }
    .expect("graph construction");

    println!("graph `{}`:", graph.name);
    println!("  kernels:    {}", graph.kernels.len());
    println!("  connectors: {}", graph.connectors.len());
    for k in &graph.kernels {
        println!(
            "  - {} ({} in / {} out)",
            k.instance,
            k.ports
                .iter()
                .filter(|p| p.dir == cgsim::core::PortDir::In)
                .count(),
            k.ports
                .iter()
                .filter(|p| p.dir == cgsim::core::PortDir::Out)
                .count(),
        );
    }

    // Instantiate and run (§3.6–3.8): sources first, then sinks,
    // positionally — exactly like invoking the graph in the paper.
    let library = KernelLibrary::with(|l| {
        l.register::<adder_kernel>();
        l.register::<doubler_kernel>();
    });
    let trace_out = trace_path();
    let tracer = if trace_out.is_some() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let launch = Launch::default().with_tracer(tracer);
    let mut ctx = RuntimeContext::launch(&graph, &library, &RunSpec::default(), launch)
        .expect("instantiate graph");
    ctx.feed(0, vec![1.0f32, 2.0, 3.0, 4.0]).unwrap();
    ctx.feed(1, vec![10.0f32, 20.0, 30.0, 40.0]).unwrap();
    let out = ctx.collect::<f32>(0).unwrap();
    let report = ctx.run().expect("graph runs");

    println!("\nexecuted to quiescence:");
    println!("  drained cleanly: {}", report.drained());
    println!("  elements moved:  {}", report.elements_moved);
    println!(
        "  kernel-time fraction: {:.2}%",
        report.exec.kernel_fraction() * 100.0
    );
    let results = out.take();
    println!("  (a+b)*2 = {results:?}");
    assert_eq!(results, vec![22.0, 44.0, 66.0, 88.0]);

    if let Some(path) = trace_out {
        std::fs::write(&path, report.chrome_trace()).expect("write trace");
        println!("\nper-kernel summary:\n{}", report.summary());
        println!("chrome trace written to {}", path.display());
    }
    println!("\nOK");
}
