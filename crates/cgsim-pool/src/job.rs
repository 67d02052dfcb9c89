//! Job-side types: what a batch submits ([`Job`]), what a worker hands the
//! job while it runs ([`JobCtx`]), and what comes back ([`JobOutcome`],
//! awaited through a [`JobHandle`]).

use crate::observer::ObserverConfig;
use cgsim_core::{FlatGraph, GraphError};
use cgsim_runtime::{
    CancelToken, CompiledPlan, ExecProbe, KernelLibrary, Launch, RunSpec, RuntimeContext,
};
use cgsim_trace::{TraceSnapshot, Tracer};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What `submit` does when the admission queue is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Admission {
    /// Block the submitting thread until a queue slot frees up (the
    /// default): classic backpressure, no job is ever lost.
    #[default]
    Block,
    /// Fail fast with [`SubmitError::QueueFull`], leaving the caller to
    /// retry, shed load, or redirect the job.
    Reject,
}

/// Pool construction parameters.
///
/// Every setting is about queueing and execution. The pool does not judge
/// what a job will cost: a submitter that has a budget refuses work before
/// submitting it (the serve daemon computes each run's static cost from
/// the graph it admits).
///
/// Marked `#[non_exhaustive]` like
/// [`RuntimeConfig`](cgsim_runtime::RuntimeConfig): build it with
/// [`PoolConfig::default`] and adjust through the `with_*` setters.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct PoolConfig {
    /// Number of worker threads. Clamped to at least 1.
    pub workers: usize,
    /// Maximum jobs admitted but not yet started (the waiting queue).
    /// Clamped to at least 1. A slot frees when a worker *dequeues* the
    /// job, so `queue_capacity` bounds memory held by pending work, not
    /// concurrency.
    pub queue_capacity: usize,
    /// Behaviour when the queue is full; see [`Admission`].
    pub admission: Admission,
    /// Give every job its own active [`Tracer`] and keep each completed
    /// job's snapshot in [`PoolReport::traces`](crate::PoolReport::traces)
    /// for the pool-level Chrome trace. With `false` the job tracer records
    /// nothing and the pool keeps no per-job trace, so a long-lived pool
    /// (the serve daemon's) does not grow with the jobs it runs; a job that
    /// wants a trace brings its own tracer.
    pub trace: bool,
    /// Run a background observer thread sampling queue depth and per-job
    /// executor progress (see [`ObserverConfig`]). `None` (the default)
    /// spawns no thread and arms no probes — jobs run exactly as before.
    pub observer: Option<ObserverConfig>,
}

impl Default for PoolConfig {
    /// One worker per available CPU, a 64-slot queue, blocking admission,
    /// per-job tracing on.
    fn default() -> Self {
        PoolConfig {
            workers: std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1),
            queue_capacity: 64,
            admission: Admission::Block,
            trace: true,
            observer: None,
        }
    }
}

impl PoolConfig {
    /// Set the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the admission-queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Set the full-queue behaviour.
    pub fn with_admission(mut self, admission: Admission) -> Self {
        self.admission = admission;
        self
    }

    /// Enable or disable per-job tracing.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Enable the pool observer thread with the given sampling config.
    pub fn with_observer(mut self, observer: ObserverConfig) -> Self {
        self.observer = Some(observer);
        self
    }
}

/// Why a submission was not accepted: the queue had no room or the pool
/// was closing. Nothing about the job itself is judged here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity and the pool uses
    /// [`Admission::Reject`].
    QueueFull,
    /// The pool is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "pool admission queue is full"),
            SubmitError::ShuttingDown => write!(f, "pool is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What a job's closure returns on success: a digest of the run, carried
/// into [`JobResult`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobOutput {
    /// Order-independent digest of the run's outputs; the batch
    /// determinism guarantee is stated over this value.
    pub checksum: u64,
    /// Output elements produced (0 when not meaningful for the job).
    pub elements: u64,
    /// Free-form named counters (e.g. per-channel push/pop totals) for
    /// conservation checks and reports.
    pub counters: Vec<(String, u64)>,
}

impl JobOutput {
    /// An output carrying just a checksum.
    pub fn new(checksum: u64) -> Self {
        JobOutput {
            checksum,
            ..JobOutput::default()
        }
    }

    /// Set the produced-element count.
    pub fn elements(mut self, elements: u64) -> Self {
        self.elements = elements;
        self
    }

    /// Append a named counter.
    pub fn counter(mut self, name: impl Into<String>, value: u64) -> Self {
        self.counters.push((name.into(), value));
        self
    }
}

type JobFn = Box<dyn FnOnce(&JobCtx) -> Result<JobOutput, String> + Send + 'static>;

/// One unit of pool work: a [`RunSpec`] naming and configuring the run,
/// plus the closure that executes it.
///
/// The closure receives a [`JobCtx`] and typically either calls
/// [`JobCtx::instantiate`] on its own graph + library (full deadline and
/// cancellation integration) or launches through an existing entry point
/// with [`JobCtx::effective_spec`] (deadline only).
pub struct Job {
    pub(crate) spec: RunSpec,
    pub(crate) run: JobFn,
}

impl Job {
    /// Package `run` as a job launched under `spec`.
    pub fn new(
        spec: RunSpec,
        run: impl FnOnce(&JobCtx) -> Result<JobOutput, String> + Send + 'static,
    ) -> Self {
        Job {
            spec,
            run: Box::new(run),
        }
    }
}

/// Per-job execution context a worker passes to the job's closure.
pub struct JobCtx {
    pub(crate) worker: usize,
    pub(crate) index: u64,
    pub(crate) spec: RunSpec,
    pub(crate) tracer: Tracer,
    pub(crate) cancel: CancelToken,
    pub(crate) deadline: Option<Instant>,
    /// Armed on the embedded scheduler by [`JobCtx::instantiate`] when the
    /// pool runs an observer; the observer thread samples it.
    pub(crate) probe: Option<Arc<ExecProbe>>,
    pub(crate) trace_slot: Mutex<Option<TraceSnapshot>>,
}

impl JobCtx {
    /// Index of the worker executing this job (a Chrome-trace lane).
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Pool-wide submission index of this job (0, 1, 2 … in submit order).
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The spec this job was submitted under.
    pub fn spec(&self) -> &RunSpec {
        &self.spec
    }

    /// The job's private tracer; its snapshot lands in the pool report.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The job's cancellation token (shared with the [`JobHandle`]).
    pub fn cancel(&self) -> &CancelToken {
        &self.cancel
    }

    /// Absolute deadline, armed at submission; `None` when the spec
    /// carries no budget.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The executor probe the pool observer samples; `None` when the pool
    /// runs without an observer. [`JobCtx::instantiate`] arms it on the
    /// embedded scheduler automatically, with or without a plan — closures
    /// that drive a raw [`Executor`](cgsim_runtime::Executor) can arm it
    /// themselves.
    pub fn probe(&self) -> Option<&Arc<ExecProbe>> {
        self.probe.as_ref()
    }

    /// The submitted spec with its deadline rewritten to the budget
    /// *remaining* right now — for closures that launch through entry
    /// points taking a `&RunSpec` (e.g. `EvalApp::run_spec`), so queue
    /// wait still counts against the job's wall-clock budget.
    pub fn effective_spec(&self) -> RunSpec {
        match self.deadline {
            Some(at) => self
                .spec
                .clone()
                .deadline(at.saturating_duration_since(Instant::now())),
            None => self.spec.clone(),
        }
    }

    /// Hand the pool a run's drained [`TraceSnapshot`] (usually
    /// `report.trace` from a [`RuntimeContext::run`]) so it becomes the
    /// job's [`JobResult::trace`] and, on a traced pool, appears in the
    /// pool-level Chrome trace. `RuntimeContext::run` drains the tracer's
    /// ring into its report, so without this call the pool only sees
    /// whatever was emitted *after* the run. An untraced pool keeps no
    /// per-job trace, so there the snapshot reaches only the job's result.
    pub fn keep_trace(&self, snapshot: TraceSnapshot) {
        *self.trace_slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(snapshot);
    }

    /// Instantiate a [`RuntimeContext`] for `graph` under this job's spec,
    /// with the job's tracer attached and the job's absolute deadline,
    /// cancellation token and (under an observer) executor probe armed on
    /// the embedded scheduler. This is [`RuntimeContext::launch`], so the
    /// spec's backend picks the scheduler: a `Backend::Threaded` job runs
    /// one OS thread per task, where deadline, cancellation and probe do not
    /// apply, and a `Backend::Compiled` job follows `plan` as
    /// [`Launch::plan`] — the sweep pattern: [`cgsim_runtime::compile`] the
    /// graph *once*, then submit many jobs that each pass the shared plan
    /// here — or, without one, a plan compiled at launch. Other backends
    /// ignore `plan`. Feed inputs, bind outputs, then `run()` as usual — and
    /// pass `report.trace` to [`JobCtx::keep_trace`] if the pool report
    /// should include the run's trace.
    pub fn instantiate<'g>(
        &self,
        graph: &'g FlatGraph,
        library: &'g KernelLibrary,
        plan: Option<&CompiledPlan>,
    ) -> Result<RuntimeContext<'g>, GraphError> {
        let launch = Launch {
            plan: plan.cloned(),
            tracer: self.tracer.clone(),
        };
        let mut ctx = RuntimeContext::launch(graph, library, &self.spec, launch)?;
        if let Some(at) = self.deadline {
            ctx.set_deadline(at);
        }
        ctx.set_cancel(self.cancel.clone());
        if let Some(probe) = &self.probe {
            ctx.set_probe(Arc::clone(probe));
        }
        Ok(ctx)
    }
}

/// Everything a completed job reports back.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The spec's label.
    pub label: String,
    /// Worker that executed the job.
    pub worker: usize,
    /// The closure's digest of the run.
    pub output: JobOutput,
    /// Wall-clock execution time (dequeue to completion).
    pub wall: Duration,
    /// Time spent waiting in the admission queue.
    pub queue_wait: Duration,
    /// The job's trace snapshot (empty when pool tracing is off).
    pub trace: Arc<TraceSnapshot>,
}

/// Terminal state of one job.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The job ran to completion.
    Completed(JobResult),
    /// The job's submission-armed deadline expired — in the queue, or
    /// mid-run (the cooperative scheduler stopped with
    /// [`Interrupt::Deadline`](cgsim_runtime::Interrupt)).
    TimedOut,
    /// The job's [`CancelToken`] fired before or during the run.
    Cancelled,
    /// The closure returned an error or panicked; the worker survives.
    Failed(String),
}

impl JobOutcome {
    /// Whether the job completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed(_))
    }

    /// The completion result, when there is one.
    pub fn result(&self) -> Option<&JobResult> {
        match self {
            JobOutcome::Completed(r) => Some(r),
            _ => None,
        }
    }

    /// The completed run's checksum, when there is one.
    pub fn checksum(&self) -> Option<u64> {
        self.result().map(|r| r.output.checksum)
    }
}

/// Shared slot the worker publishes the outcome into; `wait` blocks on it.
pub(crate) struct HandleState {
    pub(crate) outcome: Mutex<Option<JobOutcome>>,
    pub(crate) done: Condvar,
}

impl HandleState {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(HandleState {
            outcome: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    pub(crate) fn publish(&self, outcome: JobOutcome) {
        let mut slot = self.outcome.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(outcome);
        self.done.notify_all();
    }
}

/// Caller-side handle to a submitted job: await, poll, or cancel it.
pub struct JobHandle {
    pub(crate) index: u64,
    pub(crate) label: String,
    pub(crate) cancel: CancelToken,
    pub(crate) state: Arc<HandleState>,
}

impl JobHandle {
    /// Pool-wide submission index of the job.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The job spec's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Request cancellation. A queued job resolves to
    /// [`JobOutcome::Cancelled`] without running; a running cooperative
    /// job (launched via [`JobCtx::instantiate`]) stops at the next
    /// scheduler checkpoint.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Block until the job finishes and return its outcome.
    pub fn wait(&self) -> JobOutcome {
        let mut slot = self.state.outcome.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = self
                .state
                .done
                .wait(slot)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}
