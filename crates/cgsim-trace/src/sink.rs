//! The trace collector: where emitted [`TraceRecord`]s go.
//!
//! It is a bounded ring buffer with drop-oldest semantics, so a
//! long-running graph cannot exhaust memory no matter how chatty its
//! channels are; the number of dropped records is counted and surfaced in
//! the snapshot.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::event::TraceRecord;

/// Bounded in-memory collector. When full, the **oldest** record is evicted
/// to make room — recent history wins, matching what you want when a run
/// misbehaves at the end.
pub struct RingBufferSink {
    buf: Mutex<VecDeque<TraceRecord>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl RingBufferSink {
    /// Create a sink holding at most `capacity` records. A capacity of zero
    /// drops everything (but still counts).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Accept one record, evicting the oldest when full.
    pub fn record(&self, record: TraceRecord) {
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        if self.capacity == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(record);
    }

    /// Remove and return all buffered records, oldest first.
    pub fn drain(&self) -> Vec<TraceRecord> {
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        buf.drain(..).collect()
    }

    /// Number of records discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn rec(ts: u64) -> TraceRecord {
        TraceRecord {
            ts_ns: ts,
            event: TraceEvent::RunBegin,
        }
    }

    #[test]
    fn ring_buffer_is_bounded_and_drops_oldest() {
        let sink = RingBufferSink::new(3);
        for ts in 0..5 {
            sink.record(rec(ts));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let records: Vec<u64> = sink.drain().iter().map(|r| r.ts_ns).collect();
        assert_eq!(records, vec![2, 3, 4]);
        assert!(sink.is_empty());
        // dropped count survives a drain
        assert_eq!(sink.dropped(), 2);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let sink = RingBufferSink::new(0);
        sink.record(rec(1));
        sink.record(rec(2));
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 2);
    }

    #[test]
    fn drain_preserves_fifo_order() {
        let sink = RingBufferSink::new(16);
        for ts in 0..10 {
            sink.record(rec(ts));
        }
        let order: Vec<u64> = sink.drain().iter().map(|r| r.ts_ns).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_recording_is_safe_and_lossless_under_capacity() {
        use std::sync::Arc;
        let sink = Arc::new(RingBufferSink::new(10_000));
        let mut handles = Vec::new();
        for t in 0..8 {
            let sink = Arc::clone(&sink);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    sink.record(rec(t * 1000 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sink.len(), 8000);
        assert_eq!(sink.dropped(), 0);
    }
}
