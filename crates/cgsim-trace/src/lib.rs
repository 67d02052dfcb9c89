//! Unified tracing and metrics for the compute-graph runtime and the AIE
//! simulator.
//!
//! Both execution engines — the cooperative coroutine runtime
//! (`cgsim-runtime`) and the discrete-event simulator (`aie-sim`) — report
//! progress through one [`Tracer`] facade using one [`TraceEvent`]
//! vocabulary, so a single set of exporters serves both:
//!
//! * [`export::chrome`] — Chrome-trace JSON for `chrome://tracing` /
//!   Perfetto, one track per kernel;
//! * [`export::summary`] — the fixed-width per-kernel table both engines
//!   print;
//! * [`export::json`] — a machine-readable metrics snapshot.
//!
//! # Off by default, off at run time
//!
//! There is one build. Whether a run is traced is decided only by the
//! [`Tracer`] it is given: [`Tracer::disabled()`] (the default) carries no
//! collector, so every `emit` is one `Option` check on an `Arc` that is
//! `None`.
//!
//! Records land in a bounded drop-oldest ring buffer ([`RingBufferSink`]),
//! so tracing a long run cannot exhaust memory; overflow is counted and
//! reported in the snapshot.

mod event;
pub mod export;
pub mod invariants;
mod metrics;
mod sink;
mod snapshot;

pub use event::{BlockSide, ChannelRef, KernelRef, TraceEvent, TraceRecord};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricKey, MetricsRegistry, MetricsSnapshot,
};
pub use sink::RingBufferSink;
pub use snapshot::{ChannelInfo, TraceSnapshot};

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default ring-buffer capacity for [`Tracer::ring`]-style defaults:
/// large enough for the paper graphs, bounded for long runs.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

struct TracerCore {
    epoch: Instant,
    sink: RingBufferSink,
    metrics: MetricsRegistry,
    kernels: Mutex<Vec<String>>,
    channels: Mutex<Vec<ChannelInfo>>,
}

/// Handle to a trace collector. Cheap to clone; all clones feed the
/// same ring buffer and registries. The default value is disabled.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerCore>>,
}

impl Tracer {
    /// A tracer that records nothing (same as `Tracer::default()`).
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An active tracer collecting into a drop-oldest ring buffer of
    /// `capacity` records.
    pub fn ring(capacity: usize) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerCore {
                epoch: Instant::now(),
                sink: RingBufferSink::new(capacity),
                metrics: MetricsRegistry::new(),
                kernels: Mutex::new(Vec::new()),
                channels: Mutex::new(Vec::new()),
            })),
        }
    }

    /// An active tracer with the default ring capacity.
    pub fn enabled() -> Self {
        Self::ring(DEFAULT_RING_CAPACITY)
    }

    /// Whether events will actually be recorded. Callers may use this
    /// to skip building expensive event payloads.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Register (or look up) a kernel by instance name. Idempotent:
    /// the same name always maps to the same handle, so re-running a
    /// graph keeps ids stable.
    pub fn register_kernel(&self, name: &str) -> KernelRef {
        let Some(core) = &self.inner else {
            return KernelRef(0);
        };
        let mut kernels = core.kernels.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(i) = kernels.iter().position(|k| k == name) {
            return KernelRef(i as u32);
        }
        kernels.push(name.to_string());
        KernelRef((kernels.len() - 1) as u32)
    }

    /// Register (or look up) a channel by name. Idempotent like
    /// [`Tracer::register_kernel`]; a later registration with a
    /// non-zero capacity refines an earlier zero one.
    pub fn register_channel(&self, name: &str, capacity: u64) -> ChannelRef {
        let Some(core) = &self.inner else {
            return ChannelRef(0);
        };
        let mut channels = core.channels.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(i) = channels.iter().position(|c| c.name == name) {
            if channels[i].capacity == 0 {
                channels[i].capacity = capacity;
            }
            return ChannelRef(i as u32);
        }
        channels.push(ChannelInfo {
            name: name.to_string(),
            capacity,
        });
        ChannelRef((channels.len() - 1) as u32)
    }

    /// Nanoseconds since this tracer was created (0 when disabled).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(core) => core.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Record an event stamped with the current wall-clock offset.
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        if let Some(core) = &self.inner {
            let ts_ns = core.epoch.elapsed().as_nanos() as u64;
            core.sink.record(TraceRecord { ts_ns, event });
        }
    }

    /// Record an event with an explicit timestamp — used by the
    /// simulator, whose time axis is simulated cycles converted to ns.
    #[inline]
    pub fn emit_at(&self, ts_ns: u64, event: TraceEvent) {
        if let Some(core) = &self.inner {
            core.sink.record(TraceRecord { ts_ns, event });
        }
    }

    /// Counter handle (no-op handle when disabled).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match &self.inner {
            Some(core) => core.metrics.counter(name, labels),
            None => Counter::default(),
        }
    }

    /// Gauge handle (no-op handle when disabled).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match &self.inner {
            Some(core) => core.metrics.gauge(name, labels),
            None => Gauge::default(),
        }
    }

    /// Histogram handle (no-op handle when disabled).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match &self.inner {
            Some(core) => core.metrics.histogram(name, labels),
            None => Histogram::default(),
        }
    }

    /// Drain buffered records and freeze everything into a snapshot.
    /// Registries are preserved; draining twice yields the records
    /// emitted in between.
    pub fn snapshot(&self) -> TraceSnapshot {
        let Some(core) = &self.inner else {
            return TraceSnapshot::default();
        };
        TraceSnapshot {
            kernels: core
                .kernels
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
            channels: core
                .channels
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
            records: core.sink.drain(),
            dropped: core.sink.dropped(),
            metrics: core.metrics.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        tracer.emit(TraceEvent::RunBegin);
        let counter = tracer.counter("x", &[]);
        counter.inc();
        assert_eq!(counter.get(), 0);
        let snap = tracer.snapshot();
        assert!(snap.records.is_empty());
        assert!(snap.kernels.is_empty());
    }

    #[test]
    fn kernel_registration_is_idempotent_and_ordered() {
        let tracer = Tracer::ring(64);
        let a = tracer.register_kernel("alpha");
        let b = tracer.register_kernel("beta");
        let a2 = tracer.register_kernel("alpha");
        assert_eq!(a, KernelRef(0));
        assert_eq!(b, KernelRef(1));
        assert_eq!(a, a2);
        assert_eq!(tracer.snapshot().kernels, vec!["alpha", "beta"]);
    }

    #[test]
    fn channel_capacity_is_refined_not_duplicated() {
        let tracer = Tracer::ring(64);
        let c = tracer.register_channel("c0", 0);
        let c2 = tracer.register_channel("c0", 16);
        assert_eq!(c, c2);
        let snap = tracer.snapshot();
        assert_eq!(snap.channels.len(), 1);
        assert_eq!(snap.channels[0].capacity, 16);
    }

    #[test]
    fn emit_at_preserves_explicit_timestamps() {
        let tracer = Tracer::ring(64);
        let k = tracer.register_kernel("k");
        tracer.emit_at(
            500,
            TraceEvent::IterationEnd {
                kernel: k,
                iteration: 0,
                start_ns: 100,
            },
        );
        let snap = tracer.snapshot();
        assert_eq!(snap.records.len(), 1);
        assert_eq!(snap.records[0].ts_ns, 500);
    }

    #[test]
    fn emit_timestamps_are_monotonic() {
        let tracer = Tracer::ring(64);
        tracer.emit(TraceEvent::RunBegin);
        tracer.emit(TraceEvent::RunEnd);
        let snap = tracer.snapshot();
        assert!(snap.records[0].ts_ns <= snap.records[1].ts_ns);
    }

    #[test]
    fn snapshot_drains_but_keeps_registries() {
        let tracer = Tracer::ring(64);
        tracer.register_kernel("k");
        tracer.emit(TraceEvent::RunBegin);
        let first = tracer.snapshot();
        assert_eq!(first.records.len(), 1);
        let second = tracer.snapshot();
        assert!(second.records.is_empty());
        assert_eq!(second.kernels, vec!["k"]);
    }

    #[test]
    fn metrics_flow_into_snapshot() {
        let tracer = Tracer::ring(64);
        tracer.counter("pushes", &[("channel", "c0")]).add(5);
        let snap = tracer.snapshot();
        assert_eq!(snap.metrics.counter_value("pushes{channel=c0}"), Some(5));
    }
}
