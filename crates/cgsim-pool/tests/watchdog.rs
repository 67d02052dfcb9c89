//! Stall-watchdog integration: a pool observer must detect an
//! intentionally wedged job (an unprimed capacity-1 kernel cycle, run with
//! verification off) and emit a diagnostic naming the waits-for cycle and
//! channel occupancies — the runtime counterpart of cgsim-lint's CG020.

use cgsim_pool::{Job, JobOutcome, ObserverConfig, Pool, PoolConfig};
use cgsim_runtime::cgsim_core::{FlatGraph, GraphBuilder, PortSettings};
use cgsim_runtime::{compute_kernel, KernelLibrary, RunSpec, VerifyPolicy};
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Duration;

compute_kernel! {
    /// One hop of the ring: forwards its input stream. In an unprimed
    /// cycle the first read blocks forever.
    #[realm(aie)]
    pub fn fwd_kernel(input: ReadPort<f32>, out: WritePort<f32>) {
        while let Some(v) = input.get().await {
            out.put(v).await;
        }
    }
}

compute_kernel! {
    /// Keeps the wedged executor *alive*: a self-waking future that is
    /// never ready, so scheduler checkpoints keep firing (and the probe
    /// keeps answering snapshot requests) while progress stays flat.
    #[realm(aie)]
    pub fn spin_kernel(input: ReadPort<f32>, out: WritePort<f32>) {
        struct Spin;
        impl Future for Spin {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
        let _ = (&input, &out);
        Spin.await
    }
}

fn library() -> KernelLibrary {
    KernelLibrary::with(|l| {
        l.register::<fwd_kernel>();
        l.register::<spin_kernel>();
    })
}

/// Two forwarders in an unprimed capacity-1 cycle (both block reading an
/// empty wire: a waits-for cycle), plus the spinner keeping the run alive.
fn wedged_graph() -> FlatGraph {
    GraphBuilder::build("wedged-ring", |g| {
        let inp = g.input::<f32>("in");
        let w1 = g.wire::<f32>();
        let w2 = g.wire::<f32>();
        g.connector_settings(&w1, PortSettings::new().depth(1));
        g.connector_settings(&w2, PortSettings::new().depth(1));
        let spin_out = g.wire::<f32>();
        fwd_kernel::invoke(g, &w1, &w2)?;
        fwd_kernel::invoke(g, &w2, &w1)?;
        spin_kernel::invoke(g, &inp, &spin_out)?;
        g.output(&spin_out);
        Ok(())
    })
    .unwrap()
}

#[test]
fn watchdog_diagnoses_wedged_job_with_waits_for_cycle() {
    let interval = Duration::from_millis(5);
    let pool = Pool::new(
        PoolConfig::default().with_workers(1).with_observer(
            ObserverConfig::default()
                .with_interval(interval)
                .with_stall_intervals(2),
        ),
    );
    // Verify-off is the escape hatch: lint's CG020 would deny this graph.
    // The deadline is a safety net so the test always terminates.
    let spec = RunSpec::for_graph("wedged")
        .verify(VerifyPolicy::Off)
        .deadline(Duration::from_secs(5));
    let job = Job::new(spec, |ctx| {
        let graph = wedged_graph();
        let lib = library();
        let mut rc = ctx
            .instantiate(&graph, &lib, None)
            .map_err(|e| e.to_string())?;
        rc.feed(0, vec![0.0f32]).map_err(|e| e.to_string())?;
        let _sink = rc.collect::<f32>(0).map_err(|e| e.to_string())?;
        let _ = rc.run().map_err(|e| e.to_string())?;
        Err("run returned despite the spinner".into())
    });
    let handle = pool.submit(job).unwrap();
    // The spinner never finishes: only the deadline interrupt ends the job.
    assert!(matches!(handle.wait(), JobOutcome::TimedOut));

    let report = pool.shutdown();
    let timeline = report.observer.as_ref().expect("observer ran");
    assert!(!timeline.is_empty(), "observer sampled the run");
    assert!(
        timeline
            .samples()
            .any(|s| s.jobs.iter().any(|j| j.label == "wedged")),
        "timeline recorded the active job"
    );

    let stalls = timeline.stalls();
    assert_eq!(stalls.len(), 1, "exactly one diagnostic per wedged job");
    let diag = &stalls[0];
    assert_eq!(diag.label, "wedged");
    // Detected as soon as the threshold crossed: 2 flat intervals.
    assert_eq!(diag.intervals_stalled, 2, "diagnosis within 2 intervals");

    // The snapshot names the blocked ring kernels, their empty channels,
    // and the waits-for cycle between them; the spinner is live (ready),
    // not blocked.
    // (The sink is also blocked — reading the spinner's never-written
    // output — but only the ring kernels form the cycle.)
    let snap = &diag.snapshot;
    let blocked_fwd = snap
        .blocked
        .iter()
        .filter(|t| t.contains("fwd_kernel"))
        .count();
    assert_eq!(
        blocked_fwd, 2,
        "both ring kernels blocked: {:?}",
        snap.blocked
    );
    assert!(snap.ready.iter().any(|t| t.contains("spin_kernel")));
    let ring: Vec<_> = snap.channels.iter().filter(|c| c.capacity == 1).collect();
    assert_eq!(ring.len(), 2, "both ring wires reported");
    assert!(ring.iter().all(|c| c.occupancy == 0), "cycle is unprimed");
    let cycle = snap.waits_for_cycle().expect("waits-for cycle found");
    assert_eq!(cycle.len(), 2);
    assert!(cycle.iter().all(|t| t.contains("fwd_kernel")));

    // The rendered diagnostic carries everything a human needs: the stall,
    // the cycle, and the lint codes that predict it statically.
    let text = diag.render();
    assert!(text.contains("STALL: job 'wedged'"), "{text}");
    assert!(text.contains("waits-for CYCLE"), "{text}");
    assert!(text.contains("CG020"), "{text}");

    // The timeline JSON dump carries the stall with its cycle.
    let json = timeline.to_json();
    assert!(json.contains("\"label\":\"wedged\""), "{json}");
    assert!(json.contains("\"cycle\":["), "{json}");
}

#[test]
fn observer_timeline_covers_healthy_batches_without_stalls() {
    let (outcomes, report) = Pool::run_batch(
        PoolConfig::default()
            .with_workers(2)
            .with_observer(ObserverConfig::default().with_interval(Duration::from_millis(1))),
        (0..4)
            .map(|i| {
                Job::new(RunSpec::for_graph(format!("ok{i}")), move |_ctx| {
                    // Enough wall time that the observer ticks while jobs run.
                    std::thread::sleep(Duration::from_millis(10));
                    Ok(cgsim_pool::JobOutput::new(i))
                })
            })
            .collect(),
    );
    assert!(outcomes.iter().all(JobOutcome::is_completed));
    let timeline = report.observer.expect("observer ran");
    assert!(!timeline.is_empty());
    assert!(
        timeline.stalls().is_empty(),
        "healthy jobs must not trip the watchdog: {:?}",
        timeline.stalls()
    );
    // Report-level exports work end to end.
    assert!(report
        .metrics
        .counter_value("pool_jobs_submitted")
        .is_some());
    serde_json::from_str::<serde_json::Value>(&timeline.to_json()).expect("valid JSON");
}
