//! Live pool telemetry demo — and the CI `obs` job's validation harness.
//!
//! Runs a small batch of graph jobs on a worker pool with the observer
//! thread sampling at a short interval, then:
//!
//! 1. renders the pool metrics as Prometheus text exposition and validates
//!    the output shape with the in-repo checker
//!    ([`prometheus::check_exposition`]);
//! 2. dumps the observer timeline as JSON and checks it recorded samples,
//!    no stalls, and no dropped entries.
//!
//! Exits non-zero on any violation, so CI can run it as a black-box check:
//! `cargo run --example pool_observer`.

use cgsim::pool::{Job, JobOutcome, JobOutput, ObserverConfig, Pool, PoolConfig};
use cgsim::runtime::RunSpec;
use cgsim::trace::export::prometheus;
use cgsim::{compute_kernel, GraphBuilder, KernelLibrary};
use std::time::Duration;

compute_kernel! {
    /// Scale-and-offset stage, chained twice per job.
    #[realm(aie)]
    pub fn scale_kernel(input: ReadPort<f32>, out: WritePort<f32>) {
        while let Some(v) = input.get().await {
            out.put(v * 2.0 + 1.0).await;
        }
    }
}

fn graph_job(ordinal: u64) -> Job {
    Job::new(RunSpec::for_graph(format!("obs#{ordinal}")), move |ctx| {
        let graph = GraphBuilder::build("obs-pipe", |g| {
            let a = g.input::<f32>("a");
            let mid = g.wire::<f32>();
            let out = g.wire::<f32>();
            scale_kernel::invoke(g, &a, &mid)?;
            scale_kernel::invoke(g, &mid, &out)?;
            g.output(&out);
            Ok(())
        })
        .map_err(|e| e.to_string())?;
        let lib = KernelLibrary::with(|l| {
            l.register::<scale_kernel>();
        });
        let mut rc = ctx
            .instantiate(&graph, &lib, None)
            .map_err(|e| e.to_string())?;
        let input: Vec<f32> = (0..4096).map(|i| i as f32 + ordinal as f32).collect();
        rc.feed(0, input).map_err(|e| e.to_string())?;
        let sink = rc.collect::<f32>(0).map_err(|e| e.to_string())?;
        let report = rc.run().map_err(|e| e.to_string())?;
        if !report.drained() {
            return Err(format!("stalled: {:?}", report.stalled));
        }
        Ok(JobOutput::new(ordinal).elements(sink.len() as u64))
    })
}

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1)
}

fn main() {
    let (outcomes, report) = Pool::run_batch(
        PoolConfig::default().with_workers(2).with_observer(
            ObserverConfig::default()
                .with_interval(Duration::from_millis(2))
                .with_capacity(256)
                // Dense sampling needs a proportionally higher stall
                // threshold: a healthy job can sit in one 64-poll window
                // (no new checkpoint) across a couple of 2 ms ticks.
                .with_stall_intervals(50),
        ),
        (0..8).map(graph_job).collect(),
    );
    if !outcomes.iter().all(JobOutcome::is_completed) {
        fail("not every job completed");
    }

    // Prometheus exposition of the pool metrics, shape-checked.
    let text = report.prometheus();
    println!("{text}");
    if let Err(e) = prometheus::check_exposition(&text) {
        fail(&format!("invalid Prometheus exposition: {e}"));
    }
    for required in ["pool_jobs_submitted", "pool_jobs_completed"] {
        if !text.contains(required) {
            fail(&format!("exposition is missing the {required} family"));
        }
    }

    // Observer timeline: sampled, bounded, stall-free.
    let timeline = match &report.observer {
        Some(t) => t,
        None => fail("observer was configured but the report carries no timeline"),
    };
    eprintln!(
        "observer: {} samples, {} dropped, {} stalls",
        timeline.len(),
        timeline.dropped(),
        timeline.stalls().len()
    );
    println!("{}", timeline.to_json());
    if timeline.is_empty() {
        fail("observer recorded no samples");
    }
    if !timeline.stalls().is_empty() {
        fail("watchdog flagged a healthy batch as stalled");
    }
    eprintln!("OK: exposition valid, timeline recorded, no stalls");
}
