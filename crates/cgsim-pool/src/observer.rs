//! Live pool telemetry: a background observer thread sampling queue depth
//! and per-job executor progress into a bounded timeline, plus a stall
//! watchdog that captures waits-for diagnostics from wedged jobs.
//!
//! Enable with [`PoolConfig::with_observer`](crate::PoolConfig::with_observer).
//! Every `interval` the observer records an [`ObsSample`] — queued jobs,
//! active jobs, and each active job's `(polls, progress)` as published by
//! its [`ExecProbe`] — into an [`ObsTimeline`] that holds the most recent
//! `capacity` samples (drop-oldest). A job whose progress counter is
//! unchanged for `stall_intervals` consecutive samples is flagged: the
//! observer requests a [`DebugSnapshot`] from the job's executor and, once
//! the executor services it at a checkpoint, records a [`StallDiagnostic`]
//! naming the blocked kernels, channel occupancies and the waits-for cycle.
//!
//! The watchdog is the *runtime* counterpart of `cgsim-lint`'s static
//! deadlock codes: a waits-for cycle at run time is the condition CG020
//! (unprimed kernel cycle) and CG021 (capacity-starved cycle) predict from
//! topology alone.

use crate::pool::Shared;
use cgsim_runtime::{DebugSnapshot, ExecProbe};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Observer-thread configuration.
///
/// Marked `#[non_exhaustive]` like [`PoolConfig`](crate::PoolConfig): build
/// with [`ObserverConfig::default`] and adjust through the `with_*` setters.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ObserverConfig {
    /// Sampling period. Clamped to at least 1 ms.
    pub interval: Duration,
    /// Maximum samples retained in the timeline (drop-oldest beyond this).
    /// Clamped to at least 1.
    pub capacity: usize,
    /// Consecutive no-progress samples before a job is declared stalled
    /// and a debug snapshot is requested. Clamped to at least 1.
    pub stall_intervals: u32,
}

impl Default for ObserverConfig {
    /// 100 ms sampling, 600 samples (one minute of history), stall after
    /// 2 flat intervals.
    fn default() -> Self {
        ObserverConfig {
            interval: Duration::from_millis(100),
            capacity: 600,
            stall_intervals: 2,
        }
    }
}

impl ObserverConfig {
    /// Set the sampling period.
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// Set the timeline capacity (samples retained).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Set the flat-interval count that triggers the stall watchdog.
    pub fn with_stall_intervals(mut self, intervals: u32) -> Self {
        self.stall_intervals = intervals;
        self
    }
}

/// One active job's executor progress inside an [`ObsSample`].
#[derive(Clone, Debug, serde::Serialize)]
pub struct JobProgress {
    /// Pool-wide submission index of the job.
    pub index: u64,
    /// The job spec's label.
    pub label: String,
    /// Worker executing the job.
    pub worker: usize,
    /// Scheduler polls at the job's last executor checkpoint.
    pub polls: u64,
    /// Monotonic progress counter (completed tasks + elements pushed).
    pub progress: u64,
}

/// One observer tick: pool queue state plus every active job's progress.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ObsSample {
    /// Sample time relative to pool creation (nanoseconds).
    pub offset_ns: u64,
    /// Jobs admitted but not yet claimed by a worker.
    pub queued: usize,
    /// Jobs currently executing on a worker.
    pub active: usize,
    /// Per-job progress of every active job, in submission-index order.
    pub jobs: Vec<JobProgress>,
}

/// A stall the watchdog confirmed: a job whose progress counter stayed
/// flat for the configured interval count, with the executor's debug
/// snapshot captured at the moment of diagnosis.
#[derive(Clone, Debug)]
pub struct StallDiagnostic {
    /// The job spec's label.
    pub label: String,
    /// Pool-wide submission index of the job.
    pub index: u64,
    /// Worker the job is wedged on.
    pub worker: usize,
    /// Consecutive flat intervals observed when the snapshot landed.
    pub intervals_stalled: u32,
    /// Scheduler polls at the last checkpoint (still advancing for a
    /// spinning-but-not-progressing job; flat for a fully quiesced one).
    pub polls: u64,
    /// The flat progress value.
    pub progress: u64,
    /// The executor's view: ready/blocked tasks, channel occupancies,
    /// waits-for edges.
    pub snapshot: DebugSnapshot,
}

impl StallDiagnostic {
    /// Human-readable diagnostic: the stalled job, the executor snapshot,
    /// and — when the waits-for graph is cyclic — the deadlock cycle with a
    /// cross-reference to the lint codes that predict it statically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "STALL: job '{}' (#{}) on worker {}: progress {} unchanged for {} intervals",
            self.label, self.index, self.worker, self.progress, self.intervals_stalled
        );
        for line in self.snapshot.render().lines() {
            let _ = writeln!(out, "  {line}");
        }
        if self.snapshot.waits_for_cycle().is_some() {
            let _ = writeln!(
                out,
                "  hint: runtime waits-for cycle; cgsim-lint CG020 (unprimed cycle) / \
                 CG021 (capacity-starved cycle) flag this shape ahead of run"
            );
        }
        out
    }
}

/// Bounded time-series the observer thread fills: the most recent samples
/// plus every stall diagnostic raised during the pool's lifetime.
#[derive(Clone, Debug, Default)]
pub struct ObsTimeline {
    samples: VecDeque<ObsSample>,
    capacity: usize,
    dropped: u64,
    stalls: Vec<StallDiagnostic>,
}

impl ObsTimeline {
    fn new(capacity: usize) -> Self {
        ObsTimeline {
            samples: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
            stalls: Vec::new(),
        }
    }

    fn push(&mut self, sample: ObsSample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(sample);
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &ObsSample> {
        self.samples.iter()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples evicted because the timeline was at capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Every stall diagnostic the watchdog raised (at most one per job).
    pub fn stalls(&self) -> &[StallDiagnostic] {
        &self.stalls
    }

    /// The timeline as a JSON document: `{"dropped": n, "samples": [...],
    /// "stalls": [...]}` with each sample carrying its offset, queue depth
    /// and per-job progress, and each stall its waits-for cycle (or
    /// `null`).
    pub fn to_json(&self) -> String {
        use serde_json::{json, Value};
        let samples: Vec<Value> = self
            .samples
            .iter()
            .map(|s| serde_json::to_value(s).expect("sample serializes"))
            .collect();
        let stalls: Vec<Value> = self
            .stalls
            .iter()
            .map(|d| {
                let cycle = d.snapshot.waits_for_cycle().map_or(Value::Null, |tasks| {
                    Value::Array(tasks.into_iter().map(Value::from).collect())
                });
                json!({
                    "index": d.index,
                    "label": &d.label,
                    "worker": d.worker,
                    "intervals_stalled": d.intervals_stalled,
                    "progress": d.progress,
                    "cycle": cycle,
                })
            })
            .collect();
        let timeline = json!({ "dropped": self.dropped, "samples": samples, "stalls": stalls });
        serde_json::to_string(&timeline).expect("timeline serializes")
    }
}

/// A running job as the observer sees it: registered by the worker in
/// [`Shared::active`] just before the job closure runs, removed after.
pub(crate) struct ActiveJob {
    pub(crate) label: String,
    pub(crate) worker: usize,
    pub(crate) probe: Arc<ExecProbe>,
}

/// Watchdog bookkeeping for one active job between ticks.
struct Watch {
    last_progress: u64,
    flat_intervals: u32,
    snapshot_requested: bool,
    diagnosed: bool,
}

/// The observer thread and its stop signal. Owned by the pool; joined (and
/// its timeline harvested) at shutdown.
pub(crate) struct PoolObserver {
    stop: Arc<(Mutex<bool>, Condvar)>,
    timeline: Arc<Mutex<ObsTimeline>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl PoolObserver {
    /// Spawn the sampling thread against the pool's shared state.
    pub(crate) fn spawn(shared: Arc<Shared>, config: ObserverConfig) -> Self {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let timeline = Arc::new(Mutex::new(ObsTimeline::new(config.capacity)));
        let thread = {
            let stop = Arc::clone(&stop);
            let timeline = Arc::clone(&timeline);
            std::thread::Builder::new()
                .name("cgsim-pool-observer".to_string())
                .spawn(move || observer_loop(&shared, &config, &stop, &timeline))
                .expect("spawn pool observer")
        };
        PoolObserver {
            stop,
            timeline,
            thread: Some(thread),
        }
    }

    /// Clone the timeline as it stands right now, without stopping the
    /// sampling thread (live `/metrics` reads).
    pub(crate) fn snapshot(&self) -> ObsTimeline {
        self.timeline
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Signal the thread to stop, join it, and return the finished
    /// timeline.
    pub(crate) fn finish(mut self) -> ObsTimeline {
        {
            let (lock, cv) = &*self.stop;
            *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
            cv.notify_all();
        }
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
        std::mem::take(&mut self.timeline.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

fn observer_loop(
    shared: &Shared,
    config: &ObserverConfig,
    stop: &(Mutex<bool>, Condvar),
    timeline: &Mutex<ObsTimeline>,
) {
    let interval = config.interval.max(Duration::from_millis(1));
    let stall_after = config.stall_intervals.max(1);
    let mut watches: HashMap<u64, Watch> = HashMap::new();
    loop {
        {
            let (lock, cv) = stop;
            let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
            while !*stopped {
                let (guard, timeout) = cv
                    .wait_timeout(stopped, interval)
                    .unwrap_or_else(|e| e.into_inner());
                stopped = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            if *stopped {
                return;
            }
        }
        let sample = take_sample(shared, &mut watches, stall_after, timeline);
        timeline
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(sample);
    }
}

/// One observer tick: read pool + per-job state, advance the watchdog.
fn take_sample(
    shared: &Shared,
    watches: &mut HashMap<u64, Watch>,
    stall_after: u32,
    timeline: &Mutex<ObsTimeline>,
) -> ObsSample {
    let offset_ns = shared.epoch.elapsed().as_nanos() as u64;
    let queued = shared.queued_count();
    let mut jobs: Vec<JobProgress> = Vec::new();
    let mut diagnostics: Vec<StallDiagnostic> = Vec::new();
    {
        let active = shared.active.lock().unwrap_or_else(|e| e.into_inner());
        watches.retain(|index, _| active.contains_key(index));
        for (&index, job) in active.iter() {
            let polls = job.probe.polls();
            let progress = job.probe.progress();
            jobs.push(JobProgress {
                index,
                label: job.label.clone(),
                worker: job.worker,
                polls,
                progress,
            });
            // A probe at (0, 0) hasn't reached its first executor
            // checkpoint: the job is still in setup (building its graph,
            // feeding inputs). Stall accounting starts once the executor
            // shows life — a wedged-but-alive executor keeps publishing
            // polls, so real stalls are still caught.
            if polls == 0 && progress == 0 {
                watches.remove(&index);
                continue;
            }
            let watch = watches.entry(index).or_insert(Watch {
                last_progress: progress,
                flat_intervals: 0,
                snapshot_requested: false,
                diagnosed: false,
            });
            if progress != watch.last_progress {
                watch.last_progress = progress;
                watch.flat_intervals = 0;
                watch.snapshot_requested = false;
                continue;
            }
            watch.flat_intervals += 1;
            if watch.diagnosed || watch.flat_intervals < stall_after {
                continue;
            }
            if !watch.snapshot_requested {
                job.probe.request_snapshot();
                watch.snapshot_requested = true;
            }
            // A live (spinning or interruptible) executor services the
            // request at its next checkpoint — typically microseconds away —
            // so a short bounded wait lets the diagnostic land in the same
            // tick that crossed the stall threshold. A fully quiesced
            // executor never answers; give up and retry next tick.
            let mut snapshot = job.probe.take_snapshot();
            for _ in 0..20 {
                if snapshot.is_some() {
                    break;
                }
                std::thread::sleep(Duration::from_micros(50));
                snapshot = job.probe.take_snapshot();
            }
            if let Some(snapshot) = snapshot {
                watch.diagnosed = true;
                diagnostics.push(StallDiagnostic {
                    label: job.label.clone(),
                    index,
                    worker: job.worker,
                    intervals_stalled: watch.flat_intervals,
                    polls,
                    progress,
                    snapshot,
                });
            }
        }
    }
    jobs.sort_by_key(|j| j.index);
    let active = jobs.len();
    if !diagnostics.is_empty() {
        timeline
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stalls
            .extend(diagnostics);
    }
    ObsSample {
        offset_ns,
        queued,
        active,
        jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(offset_ns: u64) -> ObsSample {
        ObsSample {
            offset_ns,
            queued: 0,
            active: 1,
            jobs: vec![JobProgress {
                index: 0,
                label: "j".into(),
                worker: 0,
                polls: offset_ns,
                progress: offset_ns,
            }],
        }
    }

    #[test]
    fn timeline_bounds_samples_and_counts_drops() {
        let mut tl = ObsTimeline::new(3);
        for i in 0..5 {
            tl.push(sample(i));
        }
        assert_eq!(tl.len(), 3);
        assert_eq!(tl.dropped(), 2);
        let offsets: Vec<u64> = tl.samples().map(|s| s.offset_ns).collect();
        assert_eq!(offsets, vec![2, 3, 4], "drop-oldest keeps the tail");
    }

    /// A timeline holding one sample of one active job labelled `label`.
    fn one_job(label: &str) -> ObsTimeline {
        let mut tl = ObsTimeline::new(4);
        tl.push(ObsSample {
            offset_ns: 7,
            queued: 2,
            active: 1,
            jobs: vec![JobProgress {
                index: 3,
                label: label.into(),
                worker: 1,
                polls: 64,
                progress: 9,
            }],
        });
        tl
    }

    #[test]
    fn timeline_json_escapes_labels_and_lists_stalls() {
        let mut tl = one_job("job \"x\"");
        tl.stalls.push(StallDiagnostic {
            label: "wedged".into(),
            index: 3,
            worker: 1,
            intervals_stalled: 2,
            polls: 64,
            progress: 9,
            snapshot: DebugSnapshot::default(),
        });
        let json = tl.to_json();
        assert!(json.contains("\"label\":\"job \\\"x\\\"\""));
        assert!(json.contains("\"queued\":2"));
        assert!(json.contains("\"stalls\":[{\"index\":3"));
        assert!(json.contains("\"cycle\":null"));
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(parsed["samples"][0]["jobs"][0]["progress"], 9);
    }

    /// RFC 8259 §7: a control character inside a string must be escaped.
    #[test]
    fn timeline_json_escapes_control_characters_in_labels() {
        let json = one_job("a\nb\t").to_json();
        assert!(
            json.bytes().all(|b| b >= 0x20),
            "raw control byte: {json:?}"
        );
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(parsed["samples"][0]["jobs"][0]["label"], "a\nb\t");
    }

    #[test]
    fn stall_render_names_the_cycle_and_lint_codes() {
        use cgsim_runtime::{WaitKind, WaitsForEdge};
        let diag = StallDiagnostic {
            label: "ring".into(),
            index: 0,
            worker: 0,
            intervals_stalled: 2,
            polls: 128,
            progress: 1,
            snapshot: DebugSnapshot {
                waits_for: vec![
                    WaitsForEdge {
                        task: "a".into(),
                        channel: "w1".into(),
                        kind: WaitKind::Empty,
                        peers: vec!["b".into()],
                    },
                    WaitsForEdge {
                        task: "b".into(),
                        channel: "w2".into(),
                        kind: WaitKind::Empty,
                        peers: vec!["a".into()],
                    },
                ],
                ..Default::default()
            },
        };
        let text = diag.render();
        assert!(text.contains("STALL: job 'ring'"));
        assert!(text.contains("waits-for CYCLE"));
        assert!(text.contains("CG020"));
        assert!(text.contains("CG021"));
    }
}
