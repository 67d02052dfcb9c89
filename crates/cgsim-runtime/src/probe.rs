//! Live introspection of a running cooperative executor.
//!
//! The executor's hot loop is deliberately opaque — one thread, no shared
//! state — which makes a wedged run (a kernel cycle that starved itself, a
//! spinner that never progresses) invisible from the outside. This module
//! is the observation side-channel: an [`ExecProbe`] is a cheap `Arc` the
//! run loop publishes a monotonic progress counter into at its existing
//! interrupt checkpoint (every [`crate::executor::INTERRUPT_CHECK_EVERY`]
//! polls — no new hot-loop atomics when no probe is armed), and through
//! which an external watcher can request a [`DebugSnapshot`]: ready-queue
//! contents, per-channel occupancy and blocked-kernel waits-for edges,
//! built *on the executor's own thread* so thread-affine channel state is
//! safe to read.
//!
//! `cgsim-pool`'s observer thread uses this to implement its stall
//! watchdog; `Executor::debug_snapshot` exposes the same view synchronously
//! for tests and post-mortem inspection.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::channel::ChannelAdmin;

/// Shared handle between a running executor and an external watcher.
///
/// The executor publishes `(polls, progress)` at each interrupt checkpoint;
/// `progress` is completed-task count plus total elements pushed across all
/// introspected channels, so it is monotone and only stalls when the graph
/// truly stops moving data. A watcher that sees `progress` unchanged across
/// several samples can [`ExecProbe::request_snapshot`] and collect the
/// diagnostic with [`ExecProbe::take_snapshot`] once the executor services
/// the request at its next checkpoint.
#[derive(Debug, Default)]
pub struct ExecProbe {
    polls: AtomicU64,
    progress: AtomicU64,
    snapshot_requested: AtomicBool,
    snapshot: Mutex<Option<DebugSnapshot>>,
}

impl ExecProbe {
    /// A fresh probe, ready to hand to [`crate::Executor::set_probe`] (or
    /// [`crate::RuntimeContext::set_probe`]) and clone to a watcher.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Total scheduler polls at the last checkpoint.
    pub fn polls(&self) -> u64 {
        self.polls.load(Ordering::Acquire)
    }

    /// Monotonic progress counter at the last checkpoint: completed tasks
    /// plus elements pushed through introspected channels.
    pub fn progress(&self) -> u64 {
        self.progress.load(Ordering::Acquire)
    }

    /// Ask the executor to build a [`DebugSnapshot`] at its next interrupt
    /// checkpoint. Idempotent; safe from any thread.
    pub fn request_snapshot(&self) {
        self.snapshot_requested.store(true, Ordering::Release);
    }

    /// Collect a snapshot published since the last take, if any.
    pub fn take_snapshot(&self) -> Option<DebugSnapshot> {
        self.snapshot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }

    pub(crate) fn publish(&self, polls: u64, progress: u64) {
        self.polls.store(polls, Ordering::Release);
        self.progress.store(progress, Ordering::Release);
    }

    /// Consume a pending snapshot request (executor side).
    pub(crate) fn clear_request(&self) -> bool {
        self.snapshot_requested.swap(false, Ordering::AcqRel)
    }

    pub(crate) fn publish_snapshot(&self, snap: DebugSnapshot) {
        *self.snapshot.lock().unwrap_or_else(|e| e.into_inner()) = Some(snap);
    }
}

/// One channel's fill level inside a [`DebugSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelOccupancy {
    /// Channel display name (graph connector name or `c{index}`).
    pub name: String,
    /// Elements currently buffered.
    pub occupancy: usize,
    /// Buffer capacity in elements.
    pub capacity: usize,
}

/// Which channel condition a blocked task is waiting out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitKind {
    /// Task reads the channel and it is empty: waiting for a writer.
    Empty,
    /// Task writes the channel and it is full: waiting for a reader.
    Full,
}

/// One waits-for edge: a blocked task, the channel condition blocking it,
/// and the live peer tasks that could clear the condition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitsForEdge {
    /// Label of the blocked task.
    pub task: String,
    /// Channel the task is waiting on.
    pub channel: String,
    /// Whether the channel is empty (read wait) or full (write wait).
    pub kind: WaitKind,
    /// Labels of live tasks whose progress would unblock `task`.
    pub peers: Vec<String>,
}

/// Point-in-time view of a (possibly wedged) executor: ready queue, blocked
/// tasks, channel occupancies, and the waits-for graph inferred from graph
/// topology plus current channel fill levels.
#[derive(Clone, Debug, Default)]
pub struct DebugSnapshot {
    /// Total scheduler polls when the snapshot was built.
    pub polls: u64,
    /// Progress counter when the snapshot was built.
    pub progress: u64,
    /// Labels of tasks in the ready queue (schedulable right now).
    pub ready: Vec<String>,
    /// Labels of live tasks that are suspended (awaiting a wake).
    pub blocked: Vec<String>,
    /// Fill level of every introspected channel.
    pub channels: Vec<ChannelOccupancy>,
    /// Waits-for edges of every blocked task.
    pub waits_for: Vec<WaitsForEdge>,
}

impl DebugSnapshot {
    /// Find a cycle in the waits-for graph: a set of tasks each waiting on
    /// the next — the runtime signature of a deadlock (what `cgsim-lint`'s
    /// CG020/CG021 predict statically). Returns the task labels along the
    /// cycle, or `None` when the waits-for graph is acyclic.
    pub fn waits_for_cycle(&self) -> Option<Vec<String>> {
        let mut adj: HashMap<&str, Vec<&str>> = HashMap::new();
        for e in &self.waits_for {
            adj.entry(e.task.as_str())
                .or_default()
                .extend(e.peers.iter().map(String::as_str));
        }
        fn dfs<'a>(
            node: &'a str,
            adj: &HashMap<&'a str, Vec<&'a str>>,
            state: &mut HashMap<&'a str, u8>,
            path: &mut Vec<&'a str>,
        ) -> Option<Vec<String>> {
            state.insert(node, 1);
            path.push(node);
            for &next in adj.get(node).into_iter().flatten() {
                match state.get(next).copied().unwrap_or(0) {
                    0 => {
                        if let Some(cycle) = dfs(next, adj, state, path) {
                            return Some(cycle);
                        }
                    }
                    1 => {
                        let start = path.iter().position(|&p| p == next).expect("on path");
                        return Some(path[start..].iter().map(|s| s.to_string()).collect());
                    }
                    _ => {}
                }
            }
            path.pop();
            state.insert(node, 2);
            None
        }
        let mut state = HashMap::new();
        let mut path = Vec::new();
        let roots: Vec<&str> = adj.keys().copied().collect();
        for root in roots {
            if state.get(root).copied().unwrap_or(0) == 0 {
                if let Some(cycle) = dfs(root, &adj, &mut state, &mut path) {
                    return Some(cycle);
                }
            }
        }
        None
    }

    /// Human-readable rendering: ready/blocked task lists, channel fill
    /// levels, waits-for edges and the detected cycle (if any).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "executor snapshot: {} polls, progress {}",
            self.polls, self.progress
        );
        let _ = writeln!(out, "  ready:   [{}]", self.ready.join(", "));
        let _ = writeln!(out, "  blocked: [{}]", self.blocked.join(", "));
        for c in &self.channels {
            let _ = writeln!(out, "  channel {}: {}/{}", c.name, c.occupancy, c.capacity);
        }
        for e in &self.waits_for {
            let cond = match e.kind {
                WaitKind::Empty => "empty",
                WaitKind::Full => "full",
            };
            let _ = writeln!(
                out,
                "  {} waits on {} ({}) -> [{}]",
                e.task,
                e.channel,
                cond,
                e.peers.join(", ")
            );
        }
        if let Some(cycle) = self.waits_for_cycle() {
            let _ = writeln!(out, "  waits-for CYCLE: {}", cycle.join(" -> "));
        }
        out
    }
}

struct ChannelMeta {
    name: String,
    capacity: usize,
    admin: Arc<dyn ChannelAdmin>,
}

/// Topology handed to the executor so it can turn "task X is suspended"
/// into "task X waits on channel C for task Y": per-channel reader/writer
/// task ids plus the type-erased admin handles for occupancy queries.
///
/// Built by [`crate::RuntimeContext::run`] when a probe is armed; raw
/// executor users can assemble one by hand via the `add_*` methods.
#[derive(Default)]
pub struct Introspector {
    channels: Vec<ChannelMeta>,
    task_reads: HashMap<usize, Vec<usize>>,
    task_writes: HashMap<usize, Vec<usize>>,
    readers: Vec<Vec<usize>>,
    writers: Vec<Vec<usize>>,
}

impl Introspector {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a channel; returns its introspection index.
    pub fn add_channel(
        &mut self,
        name: impl Into<String>,
        capacity: usize,
        admin: Arc<dyn ChannelAdmin>,
    ) -> usize {
        self.channels.push(ChannelMeta {
            name: name.into(),
            capacity,
            admin,
        });
        self.readers.push(Vec::new());
        self.writers.push(Vec::new());
        self.channels.len() - 1
    }

    /// Declare that executor task `task` reads channel `channel`.
    pub fn add_reader(&mut self, task: usize, channel: usize) {
        self.task_reads.entry(task).or_default().push(channel);
        self.readers[channel].push(task);
    }

    /// Declare that executor task `task` writes channel `channel`.
    pub fn add_writer(&mut self, task: usize, channel: usize) {
        self.task_writes.entry(task).or_default().push(channel);
        self.writers[channel].push(task);
    }

    /// Sum of elements ever pushed across all channels — the data-motion
    /// half of the progress counter. Must run on the executor's thread,
    /// like [`Introspector::occupancies`].
    pub(crate) fn pushes(&self) -> u64 {
        self.channels.iter().map(|c| c.admin.stats().pushes).sum()
    }

    /// Current fill level of every channel. Must run on the executor's
    /// thread: occupancy goes through thread-affine channel state in
    /// [`crate::ChannelMode::SingleThread`] mode.
    pub(crate) fn occupancies(&self) -> Vec<ChannelOccupancy> {
        self.channels
            .iter()
            .map(|c| ChannelOccupancy {
                name: c.name.clone(),
                occupancy: c.admin.occupancy(),
                capacity: c.capacity,
            })
            .collect()
    }

    pub(crate) fn reads_of(&self, task: usize) -> &[usize] {
        self.task_reads.get(&task).map_or(&[], Vec::as_slice)
    }

    pub(crate) fn writes_of(&self, task: usize) -> &[usize] {
        self.task_writes.get(&task).map_or(&[], Vec::as_slice)
    }

    pub(crate) fn readers_of(&self, channel: usize) -> &[usize] {
        &self.readers[channel]
    }

    pub(crate) fn writers_of(&self, channel: usize) -> &[usize] {
        &self.writers[channel]
    }

    pub(crate) fn channel_name(&self, channel: usize) -> &str {
        &self.channels[channel].name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(task: &str, channel: &str, kind: WaitKind, peers: &[&str]) -> WaitsForEdge {
        WaitsForEdge {
            task: task.into(),
            channel: channel.into(),
            kind,
            peers: peers.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn cycle_detection_finds_two_task_loop() {
        let snap = DebugSnapshot {
            waits_for: vec![
                edge("a", "w1", WaitKind::Empty, &["b"]),
                edge("b", "w2", WaitKind::Empty, &["a"]),
            ],
            ..Default::default()
        };
        let cycle = snap.waits_for_cycle().unwrap();
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&"a".to_string()));
        assert!(cycle.contains(&"b".to_string()));
        assert!(snap.render().contains("CYCLE"));
    }

    #[test]
    fn acyclic_waits_for_reports_no_cycle() {
        let snap = DebugSnapshot {
            waits_for: vec![
                edge("sink_0", "out", WaitKind::Empty, &["mid"]),
                edge("mid", "in", WaitKind::Empty, &["source_0"]),
            ],
            ..Default::default()
        };
        assert!(snap.waits_for_cycle().is_none());
        assert!(!snap.render().contains("CYCLE"));
    }

    #[test]
    fn probe_round_trips_snapshot_requests() {
        let probe = ExecProbe::new();
        assert_eq!(probe.polls(), 0);
        assert!(probe.take_snapshot().is_none());
        probe.request_snapshot();
        assert!(probe.clear_request());
        assert!(!probe.clear_request(), "request is consumed");
        probe.publish(128, 42);
        probe.publish_snapshot(DebugSnapshot {
            polls: 128,
            progress: 42,
            ..Default::default()
        });
        assert_eq!(probe.polls(), 128);
        assert_eq!(probe.progress(), 42);
        let snap = probe.take_snapshot().unwrap();
        assert_eq!(snap.progress, 42);
        assert!(probe.take_snapshot().is_none(), "snapshot is consumed");
    }
}
