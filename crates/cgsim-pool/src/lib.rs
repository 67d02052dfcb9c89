//! # cgsim-pool — parallel multi-instance batch engine
//!
//! The cooperative runtime (`cgsim-runtime`) simulates *one* graph instance
//! on one thread, deterministically. Parameter sweeps, conformance legs and
//! benchmark batches want *many* independent instances; this crate runs
//! them on a worker pool fed from one FIFO queue without giving up the
//! single-instance determinism:
//!
//! * **Jobs** are self-contained: a [`RunSpec`](cgsim_runtime::RunSpec)
//!   plus a closure that builds, feeds and runs its own graph instance.
//!   Nothing is shared between jobs, so a job's result is a pure function
//!   of its spec — per-job checksums are bit-identical whether the pool
//!   runs one worker or eight.
//! * **Admission** is bounded: [`PoolConfig::with_queue_capacity`] limits
//!   the jobs waiting to start; [`Admission::Block`] applies backpressure
//!   to the submitter, [`Admission::Reject`] fails fast with
//!   [`SubmitError::QueueFull`]. Queue room is the pool's only admission
//!   test; a cost budget is the submitter's to apply before submitting
//!   (`cgsim-serve` applies one from the graph it admits).
//! * **Deadlines & cancellation**: every job carries a
//!   [`CancelToken`](cgsim_runtime::CancelToken) and an absolute deadline
//!   armed at *submission* (queue wait counts against the budget). A job
//!   past its deadline reports [`JobOutcome::TimedOut`]; a worker that ran
//!   it stays healthy and takes the next job — panics inside a job are
//!   caught and reported as [`JobOutcome::Failed`].
//! * **Observability**: each job gets its own
//!   [`Tracer`](cgsim_trace::Tracer); snapshots aggregate into one
//!   pool-level [`MetricsRegistry`](cgsim_trace::MetricsRegistry) and one
//!   Chrome trace where every worker is a process lane and every job a
//!   named track ([`PoolReport::chrome_trace`]). Pool metrics render as
//!   Prometheus text exposition ([`PoolReport::prometheus`]), and an
//!   opt-in observer thread ([`PoolConfig::with_observer`]) samples live
//!   queue depth and per-job executor progress into a bounded timeline
//!   with a stall watchdog that captures waits-for deadlock diagnostics
//!   ([`StallDiagnostic`]) from wedged jobs.
//!
//! ```
//! use cgsim_pool::{Job, JobOutput, Pool, PoolConfig};
//! use cgsim_runtime::RunSpec;
//!
//! let jobs: Vec<Job> = (0..4)
//!     .map(|i| {
//!         Job::new(RunSpec::for_graph(format!("job{i}")), move |_ctx| {
//!             // Build + run a graph instance here; return its digest.
//!             Ok(JobOutput::new(i as u64 * 17))
//!         })
//!     })
//!     .collect();
//! let (outcomes, report) = Pool::run_batch(PoolConfig::default().with_workers(2), jobs);
//! assert!(outcomes.iter().all(|o| o.is_completed()));
//! assert_eq!(report.jobs, 4);
//! ```

#![warn(missing_docs)]

mod job;
mod observer;
mod pool;
mod report;

pub use job::{
    Admission, Job, JobCtx, JobHandle, JobOutcome, JobOutput, JobResult, PoolConfig, SubmitError,
};
pub use observer::{JobProgress, ObsSample, ObsTimeline, ObserverConfig, StallDiagnostic};
pub use pool::Pool;
pub use report::{JobTrace, PoolReport};
