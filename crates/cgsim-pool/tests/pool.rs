//! Pool conformance: determinism across worker counts, backpressure,
//! deadline/cancellation outcomes, and worker survival after bad jobs.

use cgsim_pool::{
    Admission, Job, JobOutcome, JobOutput, ObserverConfig, Pool, PoolConfig, SubmitError,
};
use cgsim_runtime::cgsim_core::{FlatGraph, GraphBuilder};
use cgsim_runtime::{compute_kernel, Backend, KernelLibrary, RunSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

compute_kernel! {
    /// Multiply-accumulate against a runtime-fixed coefficient stream.
    #[realm(aie)]
    pub fn scaler_kernel(input: ReadPort<f32>, out: WritePort<f32>) {
        while let Some(v) = input.get().await {
            out.put(v * 3.0 + 1.0).await;
        }
    }
}

/// The OS thread [`thread_probe_kernel`] last ran on.
static KERNEL_THREAD: Mutex<Option<ThreadId>> = Mutex::new(None);

compute_kernel! {
    /// Forwards its stream and records which OS thread runs it.
    #[realm(aie)]
    pub fn thread_probe_kernel(input: ReadPort<f32>, out: WritePort<f32>) {
        *KERNEL_THREAD.lock().unwrap() = Some(std::thread::current().id());
        while let Some(v) = input.get().await {
            out.put(v).await;
        }
    }
}

fn library() -> KernelLibrary {
    KernelLibrary::with(|l| {
        l.register::<scaler_kernel>();
    })
}

fn pipeline_graph() -> FlatGraph {
    GraphBuilder::build("pool-pipe", |g| {
        let a = g.input::<f32>("a");
        let mid = g.wire::<f32>();
        let out = g.wire::<f32>();
        scaler_kernel::invoke(g, &a, &mid)?;
        scaler_kernel::invoke(g, &mid, &out)?;
        g.output(&out);
        Ok(())
    })
    .unwrap()
}

/// FNV-1a over the output bit patterns, matching `cgsim-graphs`' digest
/// idiom.
fn fnv1a(data: &[f32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in data {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// A job running one pipeline instance over an input stream derived from
/// the job's ordinal; reports the output checksum plus push/pop totals.
fn graph_job(ordinal: u64) -> Job {
    Job::new(RunSpec::for_graph(format!("pipe#{ordinal}")), move |ctx| {
        let graph = pipeline_graph();
        let lib = library();
        let mut rc = ctx
            .instantiate(&graph, &lib, None)
            .map_err(|e| e.to_string())?;
        let input: Vec<f32> = (0..256)
            .map(|i| (i as f32) + (ordinal as f32) * 0.5)
            .collect();
        rc.feed(0, input).map_err(|e| e.to_string())?;
        let sink = rc.collect::<f32>(0).map_err(|e| e.to_string())?;
        let mut report = rc.run().map_err(|e| e.to_string())?;
        if !report.drained() {
            return Err(format!("stalled: {:?}", report.stalled));
        }
        ctx.keep_trace(std::mem::take(&mut report.trace));
        let out = sink.take();
        let mut output = JobOutput::new(fnv1a(&out)).elements(out.len() as u64);
        for (name, stats) in &report.channels {
            output = output
                .counter(format!("{name}.pushes"), stats.pushes)
                .counter(format!("{name}.pops"), stats.pops);
        }
        Ok(output)
    })
}

fn batch_digests(workers: usize, jobs: u64) -> Vec<JobOutput> {
    let (outcomes, report) = Pool::run_batch(
        PoolConfig::default().with_workers(workers),
        (0..jobs).map(graph_job).collect(),
    );
    assert_eq!(report.workers, workers.max(1));
    assert_eq!(report.jobs, jobs);
    assert_eq!(report.counter("pool_jobs_completed"), jobs);
    outcomes
        .into_iter()
        .map(|o| match o {
            JobOutcome::Completed(r) => r.output,
            other => panic!("job did not complete: {other:?}"),
        })
        .collect()
}

#[test]
fn per_job_results_are_identical_across_worker_counts() {
    // The ISSUE's determinism guarantee: bit-identical per-job checksums
    // (and conserved channel counters) at 1, 2 and 8 workers.
    let reference = batch_digests(1, 8);
    // Jobs differ from one another (no accidental constant digest).
    assert!(reference.windows(2).any(|w| w[0].checksum != w[1].checksum));
    for workers in [2, 8] {
        assert_eq!(
            batch_digests(workers, 8),
            reference,
            "{workers}-worker batch diverged from the single-worker run"
        );
    }
}

#[test]
fn compiled_plan_is_reused_across_a_parameter_sweep() {
    // Compile the static schedule once, then let every sweep job follow
    // the shared plan — the plan-reuse path. Each job's checksum
    // must match the plan-less reference job.
    let plan = cgsim_runtime::compile(&pipeline_graph(), &Default::default())
        .expect("pool pipeline is statically schedulable");
    let sweep: Vec<Job> = (0..6u64)
        .map(|ordinal| {
            let plan = plan.clone();
            Job::new(
                RunSpec::for_graph(format!("compiled-pipe#{ordinal}")).backend(Backend::Compiled),
                move |ctx| {
                    let graph = pipeline_graph();
                    let lib = library();
                    let mut rc = ctx
                        .instantiate(&graph, &lib, Some(&plan))
                        .map_err(|e| e.to_string())?;
                    let input: Vec<f32> = (0..256)
                        .map(|i| (i as f32) + (ordinal as f32) * 0.5)
                        .collect();
                    rc.feed(0, input).map_err(|e| e.to_string())?;
                    let sink = rc.collect::<f32>(0).map_err(|e| e.to_string())?;
                    let report = rc.run().map_err(|e| e.to_string())?;
                    if !report.drained() {
                        return Err(format!("stalled: {:?}", report.stalled));
                    }
                    let out = sink.take();
                    Ok(JobOutput::new(fnv1a(&out)).elements(out.len() as u64))
                },
            )
        })
        .collect();
    let (outcomes, report) = Pool::run_batch(PoolConfig::default().with_workers(4), sweep);
    assert_eq!(report.counter("pool_jobs_completed"), 6);
    let reference = batch_digests(1, 6);
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let r = match outcome {
            JobOutcome::Completed(r) => r,
            other => panic!("compiled sweep job {i} did not complete: {other:?}"),
        };
        assert_eq!(
            r.output.checksum, reference[i].checksum,
            "compiled job {i} diverged from the cooperative reference"
        );
        assert_eq!(r.output.elements, 256);
    }
}

#[test]
fn compiled_job_without_a_plan_compiles_one() {
    // No plan handed over: the launch compiles one for the `Compiled`
    // spec, so the job drains in one poll per coroutine all the same.
    let spec = RunSpec::for_graph("compiled-unplanned").backend(Backend::Compiled);
    let job = Job::new(spec, |ctx| {
        let graph = pipeline_graph();
        let lib = library();
        let mut rc = ctx
            .instantiate(&graph, &lib, None)
            .map_err(|e| e.to_string())?;
        rc.feed(0, vec![1.0f32; 256]).map_err(|e| e.to_string())?;
        let sink = rc.collect::<f32>(0).map_err(|e| e.to_string())?;
        let report = rc.run().map_err(|e| e.to_string())?;
        if report.exec.polls != report.exec.tasks as u64 {
            return Err(format!("{} polls: no plan was followed", report.exec.polls));
        }
        Ok(JobOutput::new(0).elements(sink.take().len() as u64))
    });
    let (outcomes, _) = Pool::run_batch(PoolConfig::default().with_workers(1), vec![job]);
    match &outcomes[0] {
        JobOutcome::Completed(r) => assert_eq!(r.output.elements, 256),
        other => panic!("unplanned compiled job did not complete: {other:?}"),
    }
}

#[test]
fn compiled_job_is_sampled_by_the_observer() {
    // A planned run goes through the same executor as any other, so the
    // job's probe carries its progress to the pool observer. The job holds
    // its worker after the run until the test has seen that sample, so the
    // check does not depend on how long the run takes.
    let pool = Pool::new(
        PoolConfig::default()
            .with_workers(1)
            .with_observer(ObserverConfig::default().with_interval(Duration::from_millis(1))),
    );
    let plan = cgsim_runtime::compile(&pipeline_graph(), &Default::default())
        .expect("pool pipeline is statically schedulable");
    let seen = Arc::new(AtomicBool::new(false));
    let release = Arc::clone(&seen);
    let spec = RunSpec::for_graph("compiled-observed").backend(Backend::Compiled);
    let handle = pool
        .submit(Job::new(spec, move |ctx| {
            let graph = pipeline_graph();
            let lib = library();
            let mut rc = ctx
                .instantiate(&graph, &lib, Some(&plan))
                .map_err(|e| e.to_string())?;
            rc.feed(0, vec![1.0f32; 256]).map_err(|e| e.to_string())?;
            let sink = rc.collect::<f32>(0).map_err(|e| e.to_string())?;
            let report = rc.run().map_err(|e| e.to_string())?;
            if report.exec.polls != report.exec.tasks as u64 {
                return Err(format!("{} polls: the plan was ignored", report.exec.polls));
            }
            while !release.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(JobOutput::new(0).elements(sink.take().len() as u64))
        }))
        .unwrap();
    // 4 tasks completed + 3 connectors x 256 pushes, published by the
    // executor's final probe checkpoint.
    let expected = 4 + 3 * 256;
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let sampled = loop {
        let timeline = pool.observer_timeline().expect("observer configured");
        let hit = timeline.samples().any(|s| {
            s.jobs
                .iter()
                .any(|j| j.label == "compiled-observed" && j.progress == expected)
        });
        if hit || std::time::Instant::now() > deadline {
            break hit;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    seen.store(true, Ordering::Release);
    assert!(matches!(handle.wait(), JobOutcome::Completed(_)));
    pool.shutdown();
    assert!(
        sampled,
        "observer never saw the compiled job's final progress"
    );
}

#[test]
fn threaded_job_runs_its_kernels_on_their_own_threads() {
    // `JobCtx::instantiate` honours the spec's backend: a `Threaded` job's
    // kernel runs on a thread of its own, not on the pool worker.
    let graph_fn = || {
        GraphBuilder::build("probe", |g| {
            let a = g.input::<f32>("a");
            let b = g.wire::<f32>();
            thread_probe_kernel::invoke(g, &a, &b)?;
            g.output(&b);
            Ok(())
        })
        .unwrap()
    };
    let spec = RunSpec::for_graph("threaded").backend(Backend::Threaded);
    let job = Job::new(spec, move |ctx| {
        let graph = graph_fn();
        let lib = KernelLibrary::with(|l| {
            l.register::<thread_probe_kernel>();
        });
        let mut rc = ctx
            .instantiate(&graph, &lib, None)
            .map_err(|e| e.to_string())?;
        rc.feed(0, vec![1.0f32; 64]).map_err(|e| e.to_string())?;
        let sink = rc.collect::<f32>(0).map_err(|e| e.to_string())?;
        rc.run().map_err(|e| e.to_string())?;
        let worker = std::thread::current().id();
        match KERNEL_THREAD.lock().unwrap().take() {
            Some(kernel) if kernel != worker => {}
            kernel => {
                return Err(format!(
                    "kernel ran on {kernel:?}, the worker is {worker:?}"
                ))
            }
        }
        Ok(JobOutput::new(0).elements(sink.len() as u64))
    });
    let (outcomes, _report) = Pool::run_batch(PoolConfig::default().with_workers(1), vec![job]);
    match &outcomes[0] {
        JobOutcome::Completed(r) => assert_eq!(r.output.elements, 64),
        other => panic!("threaded job did not complete: {other:?}"),
    }
}

#[test]
fn channel_push_pop_counts_are_conserved() {
    for output in batch_digests(8, 8) {
        assert_eq!(output.elements, 256);
        let value = |suffix: &str| -> Vec<u64> {
            output
                .counters
                .iter()
                .filter(|(n, _)| n.ends_with(suffix))
                .map(|(_, v)| *v)
                .collect()
        };
        let pushes = value(".pushes");
        let pops = value(".pops");
        assert_eq!(pushes.len(), 3, "input, mid and output channels");
        assert_eq!(pushes, pops, "pushes and pops must balance per channel");
        assert!(pushes.iter().all(|&p| p == 256));
    }
}

#[test]
fn reject_admission_reports_queue_full_and_recovers() {
    let pool = Pool::new(
        PoolConfig::default()
            .with_workers(1)
            .with_queue_capacity(1)
            .with_admission(Admission::Reject),
    );
    // Occupy the single worker with a job that holds until we release it.
    let release = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicBool::new(false));
    let blocker = {
        let release = Arc::clone(&release);
        let started = Arc::clone(&started);
        Job::new(RunSpec::for_graph("blocker"), move |_ctx| {
            started.store(true, Ordering::Release);
            while !release.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            Ok(JobOutput::new(1))
        })
    };
    let blocker_handle = pool.submit(blocker).unwrap();
    while !started.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    // Worker busy; the one queue slot takes a second job …
    let queued_handle = pool
        .submit(Job::new(RunSpec::for_graph("queued"), |_| {
            Ok(JobOutput::new(2))
        }))
        .unwrap();
    // … and the third submission must bounce instead of blocking.
    let overflow = pool.submit(Job::new(RunSpec::for_graph("overflow"), |_| {
        Ok(JobOutput::new(3))
    }));
    assert!(matches!(overflow, Err(SubmitError::QueueFull)));

    // Backpressure is transient: releasing the blocker frees the slot and
    // the pool accepts (and completes) new work.
    release.store(true, Ordering::Release);
    assert_eq!(blocker_handle.wait().checksum(), Some(1));
    assert_eq!(queued_handle.wait().checksum(), Some(2));
    let retry = pool
        .submit(Job::new(RunSpec::for_graph("retry"), |_| {
            Ok(JobOutput::new(4))
        }))
        .unwrap();
    assert_eq!(retry.wait().checksum(), Some(4));
    let report = pool.shutdown();
    // blocker + queued + retry; the rejected job was never admitted.
    assert_eq!(report.counter("pool_jobs_completed"), 3);
}

#[test]
fn one_free_worker_starts_jobs_in_submission_order() {
    let pool = Pool::new(PoolConfig::default().with_workers(2));
    // Two blockers meet the test thread on a barrier, so once it opens
    // both workers are busy and every later job waits in the queue.
    let barrier = Arc::new(Barrier::new(3));
    let releases: Vec<mpsc::Sender<()>> = (0..2)
        .map(|_| {
            let (release, held) = mpsc::channel();
            let barrier = Arc::clone(&barrier);
            pool.submit(Job::new(RunSpec::for_graph("blocker"), move |_| {
                barrier.wait();
                held.recv().map_err(|e| e.to_string())?;
                Ok(JobOutput::new(0))
            }))
            .unwrap();
            release
        })
        .collect();
    barrier.wait();

    let entered = Arc::new(Mutex::new(Vec::new()));
    let handles: Vec<_> = (0..8u64)
        .map(|i| {
            let entered = Arc::clone(&entered);
            pool.submit(Job::new(
                RunSpec::for_graph(format!("job#{i}")),
                move |_| {
                    entered.lock().unwrap().push(i);
                    Ok(JobOutput::new(i))
                },
            ))
            .unwrap()
        })
        .collect();
    // One worker comes free and must take the queue oldest first.
    releases[0].send(()).unwrap();
    for handle in &handles {
        assert!(handle.wait().is_completed());
    }
    releases[1].send(()).unwrap();
    assert_eq!(*entered.lock().unwrap(), (0..8).collect::<Vec<u64>>());
    assert_eq!(pool.shutdown().counter("pool_jobs_completed"), 10);
}

#[test]
fn over_deadline_job_times_out_without_poisoning_the_worker() {
    let pool = Pool::new(PoolConfig::default().with_workers(1));
    // An effectively-zero budget: expired by the time the worker dequeues,
    // so the job must resolve TimedOut without its closure ever running.
    let ran = Arc::new(AtomicBool::new(false));
    let doomed = {
        let ran = Arc::clone(&ran);
        Job::new(
            RunSpec::for_graph("doomed").deadline(Duration::from_nanos(1)),
            move |_ctx| {
                ran.store(true, Ordering::Release);
                Ok(JobOutput::new(0))
            },
        )
    };
    let doomed_handle = pool.submit(doomed).unwrap();
    assert!(matches!(doomed_handle.wait(), JobOutcome::TimedOut));
    assert!(!ran.load(Ordering::Acquire), "expired job must not run");

    // A deadline tripping *mid-run*: the cooperative scheduler interrupts,
    // the entry point reports an error, and the pool re-attributes it.
    let slow = Job::new(
        RunSpec::for_graph("slow").deadline(Duration::from_millis(5)),
        |ctx| {
            let graph = pipeline_graph();
            let lib = library();
            let mut rc = ctx
                .instantiate(&graph, &lib, None)
                .map_err(|e| e.to_string())?;
            // Feed an endless-ish stream; the deadline fires first.
            rc.feed(0, (0..u32::MAX).map(|i| i as f32))
                .map_err(|e| e.to_string())?;
            let sink = rc.collect::<f32>(0).map_err(|e| e.to_string())?;
            let report = rc.run().map_err(|e| e.to_string())?;
            if report.interrupted().is_some() {
                return Err("interrupted".into());
            }
            Ok(JobOutput::new(sink.len() as u64))
        },
    );
    let slow_handle = pool.submit(slow).unwrap();
    assert!(matches!(slow_handle.wait(), JobOutcome::TimedOut));

    // The same worker then completes a normal graph job: not poisoned.
    let after = pool.submit(graph_job(42)).unwrap();
    assert!(after.wait().is_completed());
    let report = pool.shutdown();
    assert_eq!(report.counter("pool_jobs_timed_out"), 2);
    assert_eq!(report.counter("pool_jobs_completed"), 1);
}

#[test]
fn cancelled_and_panicking_jobs_leave_the_pool_healthy() {
    let pool = Pool::new(PoolConfig::default().with_workers(1));
    // Hold the worker so the cancellation target is still queued.
    let release = Arc::new(AtomicBool::new(false));
    let blocker = {
        let release = Arc::clone(&release);
        Job::new(RunSpec::for_graph("blocker"), move |_ctx| {
            while !release.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            Ok(JobOutput::new(0))
        })
    };
    let blocker_handle = pool.submit(blocker).unwrap();
    let victim = pool
        .submit(Job::new(RunSpec::for_graph("victim"), |_| {
            Ok(JobOutput::new(9))
        }))
        .unwrap();
    victim.cancel();
    release.store(true, Ordering::Release);
    assert!(blocker_handle.wait().is_completed());
    assert!(matches!(victim.wait(), JobOutcome::Cancelled));

    // A panicking job becomes Failed with the panic message; the worker
    // survives and keeps serving.
    let bomb = pool
        .submit(Job::new(RunSpec::for_graph("bomb"), |_| {
            panic!("boom in kernel")
        }))
        .unwrap();
    match bomb.wait() {
        JobOutcome::Failed(msg) => assert!(msg.contains("boom in kernel"), "{msg}"),
        other => panic!("expected Failed, got {other:?}"),
    }
    let after = pool.submit(graph_job(3)).unwrap();
    assert!(after.wait().is_completed());
    let report = pool.shutdown();
    assert_eq!(report.counter("pool_jobs_cancelled"), 1);
    assert_eq!(report.counter("pool_jobs_failed"), 1);
    assert_eq!(report.counter("pool_jobs_completed"), 2);
}

#[test]
fn chrome_trace_gives_each_worker_a_process_lane() {
    let (outcomes, report) = Pool::run_batch(
        PoolConfig::default().with_workers(2),
        (0..4).map(graph_job).collect(),
    );
    assert!(outcomes.iter().all(JobOutcome::is_completed));
    let json = report.chrome_trace();
    // Worker lanes appear as named processes; jobs prefix their tracks.
    // (Which worker ran a given job is load-dependent, so take the lane
    // names from the report itself.)
    assert!(json.contains("process_name"), "missing lane metadata");
    for t in &report.traces {
        assert!(
            json.contains(&format!("worker{}", t.worker)),
            "missing lane for worker {}",
            t.worker
        );
    }
    assert!(json.contains("pipe#0/"), "missing job-labelled track");
    // Every completed job contributed a trace snapshot.
    assert_eq!(report.traces.len(), 4);
    serde_json::from_str::<serde_json::Value>(&json).expect("valid JSON");
}

#[test]
fn untraced_pool_keeps_no_job_traces() {
    let (outcomes, report) = Pool::run_batch(
        PoolConfig::default().with_workers(2).with_trace(false),
        (0..8).map(graph_job).collect(),
    );
    assert!(outcomes.iter().all(JobOutcome::is_completed));
    assert_eq!(report.counter("pool_jobs_completed"), 8);
    assert!(
        report.traces.is_empty(),
        "{} job traces kept",
        report.traces.len()
    );
    // The job tracer was disabled, so each result's snapshot is empty too.
    for outcome in &outcomes {
        assert!(outcome.result().unwrap().trace.records.is_empty());
    }
}

#[test]
fn paper_apps_run_under_effective_spec_and_match_direct_runs() {
    use cgsim_graphs::all_apps;
    // The four evaluation graphs as one pool batch, each job launching
    // through the public `run_spec` entry point with the job's
    // deadline-adjusted spec.
    let direct: Vec<u64> = all_apps()
        .iter()
        .map(|app| {
            app.run_spec(&RunSpec::for_graph(app.name()), 2)
                .unwrap()
                .checksum
        })
        .collect();
    let jobs: Vec<Job> = all_apps()
        .iter()
        .enumerate()
        .map(|(i, app)| {
            Job::new(
                RunSpec::for_graph(app.name()).deadline(Duration::from_secs(30)),
                move |ctx| {
                    let app = &all_apps()[i];
                    let run = app
                        .run_spec(&ctx.effective_spec(), 2)
                        .map_err(|e| e.to_string())?;
                    Ok(JobOutput::new(run.checksum).elements(run.out_elems as u64))
                },
            )
        })
        .collect();
    let (outcomes, _report) = Pool::run_batch(PoolConfig::default().with_workers(4), jobs);
    let pooled: Vec<u64> = outcomes
        .iter()
        .map(|o| o.checksum().expect("app job completed"))
        .collect();
    assert_eq!(pooled, direct, "pool execution changed app results");
}
