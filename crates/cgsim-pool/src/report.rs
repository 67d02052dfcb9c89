//! Pool-level aggregation: the metrics registry snapshot plus every job's
//! trace, merged into one Chrome-trace document with a process lane per
//! worker.

use crate::observer::ObsTimeline;
use cgsim_trace::export::chrome::{chrome_trace_json_multi, TrackPlacement};
use cgsim_trace::export::prometheus;
use cgsim_trace::{MetricsSnapshot, TraceSnapshot};
use std::sync::Arc;

/// One completed job's trace and where it ran.
#[derive(Clone, Debug)]
pub struct JobTrace {
    /// The job spec's label.
    pub label: String,
    /// Worker that executed the job.
    pub worker: usize,
    /// Job start relative to pool creation (nanoseconds) — maps the job's
    /// private trace clock onto the pool-wide timeline.
    pub start_offset_ns: u64,
    /// The job's drained trace.
    pub snapshot: Arc<TraceSnapshot>,
}

/// Everything the pool observed, returned by
/// [`Pool::shutdown`](crate::Pool::shutdown).
#[derive(Clone, Debug)]
pub struct PoolReport {
    /// Worker-thread count.
    pub workers: usize,
    /// Total jobs submitted.
    pub jobs: u64,
    /// Pool-level counters and histograms (`pool_jobs_*`,
    /// `pool_job_wall_ns`, `pool_queue_wait_ns`).
    pub metrics: MetricsSnapshot,
    /// Per-job traces of every *completed* job, in completion order.
    /// Empty when the pool was built with
    /// [`PoolConfig::trace`](crate::PoolConfig::trace) off.
    pub traces: Vec<JobTrace>,
    /// The observer thread's timeline and stall diagnostics; `None` when
    /// the pool ran without an observer.
    pub observer: Option<ObsTimeline>,
}

impl PoolReport {
    /// Convenience accessor for an unlabelled pool counter; 0 when the
    /// counter never fired.
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter_value(name).unwrap_or(0)
    }

    /// The pool-level metrics in Prometheus text exposition format —
    /// what a `/metrics` endpoint would serve for this pool.
    pub fn prometheus(&self) -> String {
        prometheus::render(&self.metrics)
    }

    /// Merge every job trace into one Chrome-trace JSON document: each
    /// worker is a process (`worker0`, `worker1`, …), each job a group of
    /// tracks prefixed with its label, timestamps aligned to the pool
    /// clock. Load in `chrome://tracing` or `ui.perfetto.dev`.
    pub fn chrome_trace(&self) -> String {
        let parts: Vec<(String, TrackPlacement, &TraceSnapshot)> = self
            .traces
            .iter()
            .map(|t| {
                (
                    format!("worker{}", t.worker),
                    TrackPlacement {
                        pid: t.worker as u64 + 1,
                        lane: Some(t.label.clone()),
                        ts_offset_ns: t.start_offset_ns,
                    },
                    &*t.snapshot,
                )
            })
            .collect();
        chrome_trace_json_multi(&parts)
    }
}
