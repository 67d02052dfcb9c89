//! The worker pool: bounded admission into one FIFO queue, and the
//! job-execution protocol (deadline / cancellation / panic
//! containment) every worker follows.

use crate::job::{
    Admission, HandleState, Job, JobCtx, JobHandle, JobOutcome, JobResult, PoolConfig, SubmitError,
};
use crate::observer::{ActiveJob, PoolObserver};
use crate::report::{JobTrace, PoolReport};
use cgsim_runtime::{CancelToken, ExecProbe};
use cgsim_trace::{MetricsRegistry, Tracer};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A job that has passed admission and waits in the pool's queue.
struct QueuedJob {
    job: Job,
    index: u64,
    submitted: Instant,
    deadline: Option<Instant>,
    cancel: CancelToken,
    handle: Arc<HandleState>,
}

/// The queue and its admission bookkeeping, under the central lock.
struct State {
    /// Admitted jobs not yet claimed by a worker, oldest first.
    queue: VecDeque<QueuedJob>,
    /// Jobs admitted so far; the next admitted job's index.
    submitted: u64,
    /// No new submissions; workers drain and exit.
    shutdown: bool,
}

pub(crate) struct Shared {
    state: Mutex<State>,
    /// Signalled when a job is queued or shutdown begins.
    work_cv: Condvar,
    /// Signalled when a worker claims a job (or on shutdown), waking
    /// blocked submitters.
    slot_cv: Condvar,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) traces: Mutex<Vec<JobTrace>>,
    pub(crate) epoch: Instant,
    capacity: usize,
    admission: Admission,
    trace_jobs: bool,
    /// Whether workers arm an [`ExecProbe`] on each job and register it in
    /// `active` for the observer thread to sample.
    observe_jobs: bool,
    /// Currently executing jobs, keyed by submission index. Empty (and
    /// never locked on the job path) when no observer is configured.
    pub(crate) active: Mutex<HashMap<u64, ActiveJob>>,
}

impl Shared {
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Jobs admitted but not yet claimed by a worker (observer-side read).
    pub(crate) fn queued_count(&self) -> usize {
        self.lock_state().queue.len()
    }
}

/// FIFO pool of graph-simulation workers. See the crate docs for
/// the execution model; construct with [`Pool::new`], submit [`Job`]s, and
/// finish with [`Pool::shutdown`] (or use the one-shot
/// [`Pool::run_batch`]).
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    observer: Option<PoolObserver>,
}

impl Pool {
    /// Spawn the pool's worker threads.
    pub fn new(config: PoolConfig) -> Self {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                submitted: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            slot_cv: Condvar::new(),
            metrics: MetricsRegistry::new(),
            traces: Mutex::new(Vec::new()),
            epoch: Instant::now(),
            capacity: config.queue_capacity.max(1),
            admission: config.admission,
            trace_jobs: config.trace,
            observe_jobs: config.observer.is_some(),
            active: Mutex::new(HashMap::new()),
        });
        let observer = config
            .observer
            .map(|obs| PoolObserver::spawn(Arc::clone(&shared), obs));
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cgsim-pool-{me}"))
                    .spawn(move || worker_loop(&shared, me))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            workers: handles,
            observer,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Live snapshot of the pool's metrics registry (counters, gauges,
    /// histograms) — what [`Pool::shutdown`] would embed in its report,
    /// taken without stopping the pool. Feeds the serving layer's
    /// `/metrics` endpoint.
    pub fn metrics(&self) -> cgsim_trace::MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Jobs admitted but not yet claimed by a worker, right now.
    pub fn queued_jobs(&self) -> usize {
        self.shared.queued_count()
    }

    /// Live snapshot of the observer timeline (occupancy samples, stall
    /// diagnostics) when an observer is configured; `None` otherwise.
    pub fn observer_timeline(&self) -> Option<crate::observer::ObsTimeline> {
        self.observer.as_ref().map(PoolObserver::snapshot)
    }

    /// Submit one job. Blocks or rejects on a full queue according to the
    /// pool's [`Admission`] policy; the job's deadline budget (if any)
    /// starts counting *now*, so time blocked here and queued is spent
    /// from it.
    pub fn submit(&self, job: Job) -> Result<JobHandle, SubmitError> {
        let submitted = Instant::now();
        let deadline = job.spec.deadline_budget().map(|budget| submitted + budget);
        let label = job.spec.label().to_string();
        let cancel = CancelToken::new();
        let state = HandleState::new();
        let index = {
            let mut st = self.shared.lock_state();
            loop {
                if st.shutdown {
                    return Err(SubmitError::ShuttingDown);
                }
                if st.queue.len() < self.shared.capacity {
                    break;
                }
                match self.shared.admission {
                    Admission::Reject => return Err(SubmitError::QueueFull),
                    Admission::Block => {
                        st = self
                            .shared
                            .slot_cv
                            .wait(st)
                            .unwrap_or_else(|e| e.into_inner());
                    }
                }
            }
            // Indices are taken after admission and under the lock, so a
            // rejected submission uses none and index order is queue order.
            let index = st.submitted;
            st.submitted += 1;
            st.queue.push_back(QueuedJob {
                job,
                index,
                submitted,
                deadline,
                cancel: cancel.clone(),
                handle: Arc::clone(&state),
            });
            index
        };
        self.shared.work_cv.notify_one();
        self.shared
            .metrics
            .counter("pool_jobs_submitted", &[])
            .inc();
        Ok(JobHandle {
            index,
            label,
            cancel,
            state,
        })
    }

    /// Signal shutdown, drain every queued job, join the workers (and the
    /// observer thread, when one is configured) and return the pool-level
    /// report.
    pub fn shutdown(mut self) -> PoolReport {
        let workers = self.workers();
        let observer = self.finish();
        let jobs = self.shared.lock_state().submitted;
        let shared = &self.shared;
        PoolReport {
            workers,
            jobs,
            metrics: shared.metrics.snapshot(),
            traces: std::mem::take(&mut shared.traces.lock().unwrap_or_else(|e| e.into_inner())),
            observer,
        }
    }

    /// Run `jobs` to completion on a fresh pool and return `(outcomes,
    /// report)`, outcomes in submission order. Admission is forced to
    /// [`Admission::Block`] so every job is accepted.
    pub fn run_batch(config: PoolConfig, jobs: Vec<Job>) -> (Vec<JobOutcome>, PoolReport) {
        let pool = Pool::new(config.with_admission(Admission::Block));
        let handles: Vec<JobHandle> = jobs
            .into_iter()
            .map(|job| pool.submit(job).expect("fresh pool accepts submissions"))
            .collect();
        let outcomes = handles.iter().map(JobHandle::wait).collect();
        (outcomes, pool.shutdown())
    }

    fn finish(&mut self) -> Option<crate::observer::ObsTimeline> {
        self.shared.lock_state().shutdown = true;
        self.shared.work_cv.notify_all();
        self.shared.slot_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Stop the observer only after the workers are done so the timeline
        // covers the drain.
        self.observer.take().map(PoolObserver::finish)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

/// How long a worker that finds the queue empty keeps looking, yielding its
/// CPU between looks, before it parks on `work_cv`.
///
/// A worker that parks in the gap between two batches is woken while the
/// submitter and its peers hold every CPU, and the kernel then often queues
/// it behind a running peer: the batch runs on one worker beside an idle
/// CPU, and rounds of sub-millisecond jobs take one or two job lengths at
/// the scheduler's whim (DESIGN §7). Staying awake across the gap removes
/// the wake-up; a pool that is really idle parks half a millisecond later.
const IDLE_SPIN: Duration = Duration::from_micros(500);

fn worker_loop(shared: &Shared, me: usize) {
    loop {
        // Claim the oldest queued job (or exit once drained + shutdown).
        let job = {
            let mut st = shared.lock_state();
            let mut idle_since = None;
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                if idle_since.get_or_insert_with(Instant::now).elapsed() < IDLE_SPIN {
                    drop(st);
                    std::thread::yield_now();
                    st = shared.lock_state();
                } else {
                    st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            }
        };
        // The claim freed a queue place: wake one blocked submitter.
        shared.slot_cv.notify_one();
        run_job(shared, me, job);
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_job(shared: &Shared, me: usize, queued: QueuedJob) {
    let QueuedJob {
        job,
        index,
        submitted,
        deadline,
        cancel,
        handle,
    } = queued;
    let label = job.spec.label().to_string();
    let queue_wait = submitted.elapsed();
    shared
        .metrics
        .histogram("pool_queue_wait_ns", &[])
        .observe(queue_wait.as_nanos() as u64);

    let outcome = if cancel.is_cancelled() {
        JobOutcome::Cancelled
    } else if deadline.is_some_and(|at| Instant::now() >= at) {
        // Expired while queued: don't waste the worker on it.
        JobOutcome::TimedOut
    } else {
        let tracer = if shared.trace_jobs {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        // With an observer configured, arm a probe and register the job so
        // the sampling thread sees its executor progress; otherwise skip
        // both (no probe → the executor hot loop keeps its fast path).
        let probe = shared.observe_jobs.then(ExecProbe::new);
        if let Some(probe) = &probe {
            shared
                .active
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(
                    index,
                    ActiveJob {
                        label: label.clone(),
                        worker: me,
                        probe: Arc::clone(probe),
                    },
                );
        }
        let ctx = JobCtx {
            worker: me,
            index,
            spec: job.spec,
            tracer: tracer.clone(),
            cancel: cancel.clone(),
            deadline,
            probe,
            trace_slot: Mutex::new(None),
        };
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| (job.run)(&ctx)));
        let wall = started.elapsed();
        if shared.observe_jobs {
            shared
                .active
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&index);
        }
        // Prefer the snapshot the closure explicitly kept (a finished
        // run's drained trace); fall back to whatever is still in the
        // job tracer's ring.
        let kept = ctx
            .trace_slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        match result {
            Err(payload) => JobOutcome::Failed(format!(
                "job '{label}' panicked: {}",
                panic_message(payload)
            )),
            // An Err from the closure is re-attributed to the stronger
            // signal when one fired: a cancelled or over-deadline
            // cooperative run surfaces as an error string from the entry
            // point, but the *outcome* is the interrupt, not the message.
            Ok(Err(message)) => {
                if cancel.is_cancelled() {
                    JobOutcome::Cancelled
                } else if deadline.is_some_and(|at| Instant::now() >= at) {
                    JobOutcome::TimedOut
                } else {
                    JobOutcome::Failed(message)
                }
            }
            Ok(Ok(output)) => {
                shared
                    .metrics
                    .histogram("pool_job_wall_ns", &[])
                    .observe(wall.as_nanos() as u64);
                let trace = Arc::new(kept.unwrap_or_else(|| tracer.snapshot()));
                // An untraced pool keeps nothing per job, so a long-lived
                // pool's memory does not grow with the jobs it has run.
                if shared.trace_jobs {
                    shared
                        .traces
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(JobTrace {
                            label: label.clone(),
                            worker: me,
                            start_offset_ns: started.duration_since(shared.epoch).as_nanos() as u64,
                            snapshot: Arc::clone(&trace),
                        });
                }
                JobOutcome::Completed(JobResult {
                    label,
                    worker: me,
                    output,
                    wall,
                    queue_wait,
                    trace,
                })
            }
        }
    };

    let bucket = match &outcome {
        JobOutcome::Completed(_) => "pool_jobs_completed",
        JobOutcome::TimedOut => "pool_jobs_timed_out",
        JobOutcome::Cancelled => "pool_jobs_cancelled",
        JobOutcome::Failed(_) => "pool_jobs_failed",
    };
    shared.metrics.counter(bucket, &[]).inc();
    handle.publish(outcome);
}
