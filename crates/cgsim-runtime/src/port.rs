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
        let mut window = Vec::with_capacity(n);
        self.get_window_into(&mut window, n).await.then_some(window)
    }

    /// Append the next full window of `n` elements to `window`, keeping its
    /// allocation: the form of [`KernelReadPort::get_window`] for a kernel
    /// that reuses one buffer. The window arrives in
    /// [`Consumer::pop_vec`] batches, taking whatever is available per
    /// channel acquisition. Returns `false` exactly where `get_window`
    /// returns `None`; the partial window is then left appended.
    pub async fn get_window_into(&mut self, window: &mut Vec<T>, n: usize) -> bool {
        let mut missing = n;
        while missing > 0 {
            match self.consumer.pop_vec(window, missing).await {
                Some(moved) => missing -= moved,
                None => return false,
            }
        }
        true
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
    /// the window moves through [`Producer::push_iter`] without being
    /// collected first, waking consumers once per batch rather than once
    /// per element.
    pub async fn put_window<I>(&mut self, window: I)
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: ExactSizeIterator,
    {
        self.producer.push_iter(window.into_iter()).await;
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
                    out.put_window((0..16).map(|i| base * 16 + i)).await;
                }
            }),
        );
        let got = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&got);
        ex.spawn(
            "reader",
            Box::pin(async move {
                while let Some(w) = inp.get_window(16).await {
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
            // The reusing form appends behind what the buffer holds.
            let mut window = vec![99];
            assert!(inp.get_window_into(&mut window, 4).await);
            assert_eq!(window, [99, 4, 5, 6, 7]);
            // Only 2 elements remain: partial window → None / false, and
            // the partial window is left appended.
            window.clear();
            assert!(!inp.get_window_into(&mut window, 4).await);
            assert_eq!(window, [8, 9]);
            assert_eq!(inp.get_window(4).await, None);
        });
    }
}
