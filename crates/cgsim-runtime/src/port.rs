//! Kernel-side streaming I/O ports (§3.3).
//!
//! These are the Rust equivalents of the paper's `KernelReadPort<T>` and
//! `KernelWritePort<T>`: the only interface a kernel body uses to touch the
//! outside world. `get`/`put` are `async` — the analogue of the paper's
//! `co_await port.get()` — and suspend the kernel coroutine while the
//! underlying queue is empty/full.
//!
//! Window helpers ([`KernelReadPort::get_window`],
//! [`KernelWritePort::put_window`]) model AIE window/ping-pong buffer ports:
//! a whole block is acquired or released per iteration.

use crate::channel::{Consumer, Producer};
use cgsim_core::StreamData;

/// Kernel input port: reads a stream of `T`.
pub struct KernelReadPort<T: StreamData> {
    consumer: Consumer<T>,
}

impl<T: StreamData> KernelReadPort<T> {
    pub(crate) fn new(consumer: Consumer<T>) -> Self {
        KernelReadPort { consumer }
    }

    /// Receive the next element; `None` once the stream is closed and
    /// drained. The paper's `co_await in.get()`.
    pub async fn get(&mut self) -> Option<T> {
        self.consumer.recv().await
    }

    /// Receive a full window of `n` elements (AIE window port acquire).
    ///
    /// Returns `None` if the stream ends before a *complete* window is
    /// available; a trailing partial block is discarded, matching hardware
    /// window semantics where a kernel only fires on full buffers.
    pub async fn get_window(&mut self, n: usize) -> Option<Vec<T>> {
        self.read_window(n).await
    }

    /// Batched window acquire: accumulates `n` elements via
    /// [`Consumer::pop_chunk`], draining whatever is available per channel
    /// acquisition instead of one element at a time. Same contract as
    /// [`KernelReadPort::get_window`] — a trailing partial window yields
    /// `None`.
    pub async fn read_window(&mut self, n: usize) -> Option<Vec<T>> {
        if n == 0 {
            return Some(Vec::new());
        }
        // The common case: the first chunk is already the whole window.
        let mut window = self.consumer.pop_chunk(n).await?;
        window.reserve(n - window.len());
        while window.len() < n {
            let mut chunk = self.consumer.pop_chunk(n - window.len()).await?;
            window.append(&mut chunk);
        }
        Some(window)
    }
}

/// Kernel output port: writes a stream of `T`.
pub struct KernelWritePort<T: StreamData> {
    producer: Producer<T>,
}

impl<T: StreamData> KernelWritePort<T> {
    pub(crate) fn new(producer: Producer<T>) -> Self {
        KernelWritePort { producer }
    }

    /// Send one element, suspending while the queue is full. The paper's
    /// `co_await out.put(v)`.
    pub async fn put(&mut self, value: T) {
        self.producer.send(value).await;
    }

    /// Send a full window of elements (AIE window port release). Batched:
    /// the whole window moves through [`Producer::push_slice`], waking
    /// consumers once per batch rather than once per element.
    pub async fn put_window(&mut self, window: impl IntoIterator<Item = T>) {
        self.write_window(window.into_iter().collect()).await;
    }

    /// Batched window release from an owned buffer — the zero-adaptor form
    /// of [`KernelWritePort::put_window`].
    pub async fn write_window(&mut self, window: Vec<T>) {
        self.producer.push_slice(window).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::executor::block_on;

    #[test]
    fn get_put_roundtrip() {
        let chan = Channel::new(4);
        let mut out = KernelWritePort::new(chan.add_producer());
        let mut inp = KernelReadPort::new(chan.add_consumer());
        block_on(async {
            out.put(7u32).await;
            out.put(8u32).await;
            drop(out);
            assert_eq!(inp.get().await, Some(7));
            assert_eq!(inp.get().await, Some(8));
            assert_eq!(inp.get().await, None);
        });
    }

    #[test]
    fn windows_larger_than_capacity_stream_through() {
        use crate::channel::ChannelMode;
        use crate::executor::Executor;
        use std::cell::RefCell;
        use std::rc::Rc;
        // A 16-element window over a 4-deep fast-path channel: the batched
        // futures must make partial progress per poll and hand off
        // cooperatively, not deadlock.
        let chan = Channel::with_mode(4, ChannelMode::SingleThread);
        let mut out = KernelWritePort::new(chan.add_producer());
        let mut inp = KernelReadPort::new(chan.add_consumer());
        let mut ex = Executor::new();
        ex.spawn(
            "writer",
            Box::pin(async move {
                for base in 0..4u32 {
                    out.write_window((0..16).map(|i| base * 16 + i).collect())
                        .await;
                }
            }),
        );
        let got = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&got);
        ex.spawn(
            "reader",
            Box::pin(async move {
                while let Some(w) = inp.read_window(16).await {
                    sink.borrow_mut().extend(w);
                }
            }),
        );
        let (_, stalled) = ex.run();
        assert!(stalled.is_empty(), "windowed pipeline deadlocked");
        assert_eq!(*got.borrow(), (0..64).collect::<Vec<u32>>());
    }

    #[test]
    fn window_acquire_full_blocks_only() {
        let chan = Channel::new(16);
        let mut out = KernelWritePort::new(chan.add_producer());
        let mut inp = KernelReadPort::new(chan.add_consumer());
        block_on(async {
            out.put_window(0..10u32).await;
            drop(out);
            assert_eq!(inp.get_window(4).await, Some(vec![0, 1, 2, 3]));
            assert_eq!(inp.get_window(4).await, Some(vec![4, 5, 6, 7]));
            // Only 2 elements remain: partial window → None.
            assert_eq!(inp.get_window(4).await, None);
        });
    }
}
