//! Fixed-capacity MPMC queues with broadcast semantics (§3.6).
//!
//! Kernels exchange data through these queues at runtime. Semantics follow
//! the paper exactly:
//!
//! * **fixed capacity** — producers suspend when the buffer is full relative
//!   to the *slowest* consumer,
//! * **broadcast** — every consumer receives a complete copy of all data
//!   written to the buffer,
//! * **per-producer order** — data from one producer stays in order, but
//!   data from multiple producers may interleave (MPMC merge),
//! * **closure** — when every producer handle is dropped, consumers observe
//!   end-of-stream (`None`) after draining.
//!
//! The implementation is a sequence-numbered ring: each consumer owns a
//! cursor; an element is retired once every open consumer has passed it.
//!
//! ## Storage policy
//!
//! The shared state sits behind one of two storage policies selected at
//! construction ([`ChannelMode`]): the default `Shared` mode guards it with
//! a `std::sync::Mutex` for endpoints on many threads, `SingleThread` mode
//! replaces the mutex with an uncontended interior-mutability cell for the
//! cooperative executor's hot path (§5.2 — per-element synchronisation must
//! stay negligible). `RuntimeContext` picks the mode from its scheduler;
//! both modes expose identical semantics, stats, and futures.

use cgsim_trace::{BlockSide, ChannelRef, Counter, Gauge, TraceEvent, Tracer};
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

/// Selects the storage policy guarding a channel's shared state. A
/// `RuntimeContext` derives it from its scheduler: `SingleThread` under
/// the cooperative executor, `Shared` under `Backend::Threaded`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ChannelMode {
    /// Mutex-guarded state, safe for endpoints on any thread: the threads
    /// scheduler's storage, and the default for [`Channel::new`].
    #[default]
    Shared,
    /// Uncontended single-thread cell for the cooperative executor: all
    /// endpoints and polls must stay on one thread (which the `!Send`
    /// `RuntimeContext` guarantees). Cross-thread and re-entrant access
    /// panic in every build.
    SingleThread,
}

/// Counters describing channel activity, used for the paper's §5.2
/// synchronisation-overhead analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ChannelStats {
    /// Elements accepted from producers.
    pub pushes: u64,
    /// Elements delivered to consumers (counted per consumer).
    pub pops: u64,
    /// Producer polls that had to suspend on a full buffer.
    pub blocked_writes: u64,
    /// Consumer polls that had to suspend on an empty buffer.
    pub blocked_reads: u64,
    /// High-water mark of buffered elements observed after any push (the
    /// peak occupancy relative to the slowest open consumer) — the dynamic
    /// counterpart of the static `CG060` occupancy bound.
    pub max_occupancy: u64,
}

/// A blocked endpoint's waker, registered once and kept across block/wake
/// cycles: the same task blocks on the same channel thousands of times in a
/// run, and cloning its `Waker` on every block only for the next wake to
/// consume it costs two atomic read-modify-writes per cycle. `armed` says
/// whether the endpoint has blocked since it was last woken.
#[derive(Default)]
struct WakerSlot {
    waker: Option<Waker>,
    armed: bool,
}

impl WakerSlot {
    fn holds(&self, waker: &Waker) -> bool {
        self.waker.as_ref().is_some_and(|w| w.will_wake(waker))
    }

    /// Register `waker` for the next wake, cloning it only when the slot
    /// holds a different one.
    fn arm(&mut self, waker: &Waker) {
        if !self.holds(waker) {
            self.waker = Some(waker.clone());
        }
        self.armed = true;
    }

    /// Wake the endpoint if it has blocked since the last wake.
    fn fire(&mut self) -> bool {
        let was_armed = std::mem::take(&mut self.armed);
        if was_armed {
            if let Some(w) = &self.waker {
                w.wake_by_ref();
            }
        }
        was_armed
    }
}

struct ConsumerState {
    /// Absolute sequence number of the next element this consumer reads.
    cursor: u64,
    open: bool,
    waker: WakerSlot,
}

/// Instrumentation state shared by all endpoints of one channel. Lives
/// inside `Inner`, so no extra locking is needed; the default value (from
/// `Tracer::default()`) records nothing.
struct ChannelTrace {
    tracer: Tracer,
    chan: ChannelRef,
    pushes: Counter,
    pops: Counter,
    blocked_writes: Counter,
    blocked_reads: Counter,
    occupancy: Gauge,
}

impl Default for ChannelTrace {
    fn default() -> Self {
        ChannelTrace {
            tracer: Tracer::default(),
            chan: ChannelRef(0),
            pushes: Counter::default(),
            pops: Counter::default(),
            blocked_writes: Counter::default(),
            blocked_reads: Counter::default(),
            occupancy: Gauge::default(),
        }
    }
}

struct Inner<T> {
    /// Retained elements; `buf[0]` has sequence number `base_seq`.
    buf: VecDeque<T>,
    base_seq: u64,
    capacity: usize,
    consumers: Vec<ConsumerState>,
    producers: usize,
    /// One slot per producer task that has ever blocked here.
    write_wakers: Vec<WakerSlot>,
    stats: ChannelStats,
    trace: ChannelTrace,
}

impl<T> Inner<T> {
    fn head_seq(&self) -> u64 {
        self.base_seq + self.buf.len() as u64
    }

    fn min_open_cursor(&self) -> u64 {
        self.consumers
            .iter()
            .filter(|c| c.open)
            .map(|c| c.cursor)
            .min()
            .unwrap_or(self.head_seq())
    }

    /// Drop elements every open consumer has already read.
    fn retire(&mut self) {
        let passed = self.min_open_cursor().saturating_sub(self.base_seq);
        let n = passed.min(self.buf.len() as u64);
        self.buf.drain(..n as usize);
        self.base_seq += n;
    }

    /// Elements a producer may push before the slowest open consumer pins
    /// the buffer; `None` when no consumer is open (writes are discarded).
    fn free_slots(&self) -> Option<usize> {
        let open = self.consumers.iter().filter(|c| c.open);
        let occupied = (self.head_seq() - open.map(|c| c.cursor).min()?) as usize;
        Some(self.capacity.saturating_sub(occupied))
    }

    /// Copy the next `batch` elements at consumer `idx`'s cursor onto the
    /// end of `out`, advance the cursor and retire what every consumer has
    /// now passed. The memory moves in (at most two) slices: one `memcpy`
    /// each for `Copy` elements, then one `drain` — measurably faster than
    /// handing a sole reader its elements one by one through `Drain`.
    fn take_batch(&mut self, idx: usize, batch: usize, out: &mut Vec<T>)
    where
        T: Clone,
    {
        let start = (self.consumers[idx].cursor - self.base_seq) as usize;
        let end = start + batch;
        let (front, back) = self.buf.as_slices();
        if start < front.len() {
            out.extend_from_slice(&front[start..end.min(front.len())]);
        }
        if end > front.len() {
            let from = start.saturating_sub(front.len());
            out.extend_from_slice(&back[from..end - front.len()]);
        }
        self.consumers[idx].cursor += batch as u64;
        self.retire();
        self.stats.pops += batch as u64;
        self.trace.pops.add(batch as u64);
        self.note_pop_occupancy();
        self.wake_writers();
    }

    fn wake_readers(&mut self) {
        let mut woke = false;
        for c in &mut self.consumers {
            woke |= c.waker.fire();
        }
        if woke {
            self.trace.tracer.emit(TraceEvent::ChannelUnblock {
                channel: self.trace.chan,
                side: BlockSide::Read,
            });
        }
    }

    fn wake_writers(&mut self) {
        let mut woke = false;
        for slot in &mut self.write_wakers {
            woke |= slot.fire();
        }
        if woke {
            self.trace.tracer.emit(TraceEvent::ChannelUnblock {
                channel: self.trace.chan,
                side: BlockSide::Write,
            });
        }
    }

    /// Register a suspending producer for the next [`Inner::wake_writers`].
    /// A task that blocked here before finds its slot again. A new waker
    /// gets a slot of its own while there are fewer slots than producers;
    /// past that some slot's task is gone (an endpoint has one send in
    /// flight at a time), so an idle slot is taken over and the list stays
    /// bounded by the endpoints, not by the wakers that ever blocked.
    fn arm_writer(&mut self, waker: &Waker) {
        let slots = &mut self.write_wakers;
        let spare = slots.len() >= self.producers;
        let slot = (slots.iter().position(|s| s.holds(waker)))
            .or_else(|| slots.iter().position(|s| spare && !s.armed))
            .unwrap_or_else(|| {
                slots.push(WakerSlot::default());
                slots.len() - 1
            });
        slots[slot].arm(waker);
    }

    fn note_push_occupancy(&mut self) {
        if self.trace.tracer.is_enabled() {
            let occupancy = self.buf.len() as u64;
            self.trace.occupancy.set(occupancy as i64);
            self.trace.tracer.emit(TraceEvent::ChannelPush {
                channel: self.trace.chan,
                occupancy,
            });
        }
    }

    fn note_pop_occupancy(&mut self) {
        if self.trace.tracer.is_enabled() {
            let occupancy = self.buf.len() as u64;
            self.trace.occupancy.set(occupancy as i64);
            self.trace.tracer.emit(TraceEvent::ChannelPop {
                channel: self.trace.chan,
                occupancy,
            });
        }
    }

    fn note_blocked_write(&mut self, cx: &mut Context<'_>) {
        self.stats.blocked_writes += 1;
        self.trace.blocked_writes.inc();
        self.trace.tracer.emit(TraceEvent::ChannelBlock {
            channel: self.trace.chan,
            side: BlockSide::Write,
        });
        self.arm_writer(cx.waker());
    }

    fn note_blocked_read(&mut self, idx: usize, cx: &mut Context<'_>) {
        self.stats.blocked_reads += 1;
        self.trace.blocked_reads.inc();
        self.trace.tracer.emit(TraceEvent::ChannelBlock {
            channel: self.trace.chan,
            side: BlockSide::Read,
        });
        self.consumers[idx].waker.arm(cx.waker());
    }
}

/// Identity of the calling thread: the address of one of its thread-locals.
/// Unlike `std::thread::current().id()`, which clones the thread handle's
/// `Arc`, this is an address computation. It is never 0, it is stable for
/// the thread's life, and two live threads never share one; a mark is only
/// handed out again after its thread has exited.
fn thread_mark() -> usize {
    thread_local! {
        // No destructor, so the key stays readable during thread teardown.
        static MARK: u8 = const { 0 };
    }
    MARK.with(|mark| std::ptr::from_ref(mark).addr())
}

/// Interior-mutability cell owned by one thread: the storage of
/// [`ChannelMode::SingleThread`] channels and of the executor's ready queue.
///
/// Channels are held behind `Arc<dyn Any + Send + Sync>` in the kernel
/// library plumbing and a `Waker` is `Send + Sync` by type, so a plain
/// `RefCell` cannot be used even though neither ever crosses threads in
/// supported use. This cell claims `Send`/`Sync` and enforces the
/// single-thread contract dynamically, in every build: the first thread to
/// access it becomes its owner, any other thread is refused before it
/// touches the contents, and a borrow flag panics on re-entrant access.
pub(crate) struct LocalCell<T> {
    value: UnsafeCell<T>,
    borrowed: Cell<bool>,
    /// [`thread_mark`] of the owning thread; 0 until the first access.
    owner: AtomicUsize,
}

// SAFETY: moving the cell moves `value: T` (hence `T: Send`), a flag and an
// atomic; whoever holds it by value holds it exclusively.
unsafe impl<T: Send> Send for LocalCell<T> {}
// SAFETY: `owner` is atomic and is the only field a non-owning thread reads:
// `try_with` returns before touching `borrowed` or `value` unless the caller
// is the one thread whose mark `owner` holds. A mark is reused only after
// its thread has exited, which orders that thread's accesses before the new
// holder's. So `value` and `borrowed` are only ever accessed by one thread
// at a time, with `T: Send` covering the hand-over.
unsafe impl<T: Send> Sync for LocalCell<T> {}

impl<T> LocalCell<T> {
    pub(crate) fn new(value: T) -> Self {
        LocalCell {
            value: UnsafeCell::new(value),
            borrowed: Cell::new(false),
            owner: AtomicUsize::new(0),
        }
    }

    /// Whether the calling thread owns the cell, claiming it if nobody does.
    /// `Relaxed` throughout: `owner` publishes no data, a thread only ever
    /// compares it against its own mark, and the claim is one compare-and-swap
    /// per cell, so exactly one thread wins it.
    #[inline]
    fn owned_by_caller(&self) -> bool {
        let me = thread_mark();
        let owner = self.owner.load(Ordering::Relaxed);
        owner == me
            || (owner == 0
                && self
                    .owner
                    .compare_exchange(0, me, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok())
    }

    /// Run `f` on the contents if the calling thread owns the cell; `None`
    /// (and `f` not run) on any other thread. Panics on re-entrant access.
    #[inline]
    pub(crate) fn try_with<R>(&self, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        if !self.owned_by_caller() {
            return None;
        }
        assert!(
            !self.borrowed.replace(true),
            "single-thread cell accessed re-entrantly"
        );
        // SAFETY: only the owning thread gets here (checked above, in every
        // build), and the borrow flag guarantees this is the only live
        // reference on it.
        let out = f(unsafe { &mut *self.value.get() });
        self.borrowed.set(false);
        Some(out)
    }
}

/// Storage policy holder: one branch per state acquisition, chosen once at
/// channel construction.
enum Store<T> {
    Shared(Mutex<Inner<T>>),
    Local(LocalCell<Inner<T>>),
}

impl<T> Store<T> {
    #[inline]
    fn with<R>(&self, f: impl FnOnce(&mut Inner<T>) -> R) -> R {
        match self {
            Store::Shared(m) => f(&mut m.lock().unwrap()),
            Store::Local(c) => c.try_with(f).expect(
                "single-thread channel accessed from a second thread; \
                 construct it with ChannelMode::Shared instead",
            ),
        }
    }
}

/// A broadcast MPMC channel carrying elements of type `T`.
pub struct Channel<T> {
    store: Store<T>,
    mode: ChannelMode,
}

impl<T: Clone> Channel<T> {
    /// Create a channel with the given element capacity (must be ≥ 1), in
    /// the thread-safe [`ChannelMode::Shared`] storage mode.
    pub fn new(capacity: usize) -> Arc<Self> {
        Channel::with_mode(capacity, ChannelMode::Shared)
    }

    /// Create a channel with the given element capacity (must be ≥ 1) and
    /// storage [`ChannelMode`].
    pub fn with_mode(capacity: usize, mode: ChannelMode) -> Arc<Self> {
        assert!(capacity >= 1, "channel capacity must be at least 1");
        let inner = Inner {
            buf: VecDeque::with_capacity(capacity),
            base_seq: 0,
            capacity,
            consumers: Vec::new(),
            producers: 0,
            write_wakers: Vec::new(),
            stats: ChannelStats::default(),
            trace: ChannelTrace::default(),
        };
        Arc::new(Channel {
            store: match mode {
                ChannelMode::Shared => Store::Shared(Mutex::new(inner)),
                ChannelMode::SingleThread => Store::Local(LocalCell::new(inner)),
            },
            mode,
        })
    }

    /// The storage mode this channel was constructed with.
    pub fn mode(&self) -> ChannelMode {
        self.mode
    }

    /// Register a producer endpoint. The channel reports end-of-stream only
    /// after *all* producers have been dropped.
    pub fn add_producer(self: &Arc<Self>) -> Producer<T> {
        self.store.with(|inner| inner.producers += 1);
        Producer {
            chan: Arc::clone(self),
        }
    }

    /// Register a consumer endpoint. Each consumer independently receives
    /// every element (broadcast). Consumers must be registered before data
    /// flows; they start reading at the current head.
    pub fn add_consumer(self: &Arc<Self>) -> Consumer<T> {
        let idx = self.store.with(|inner| {
            let idx = inner.consumers.len();
            let cursor = inner.head_seq();
            inner.consumers.push(ConsumerState {
                cursor,
                open: true,
                waker: WakerSlot::default(),
            });
            idx
        });
        Consumer {
            chan: Arc::clone(self),
            idx,
        }
    }

    /// Attach this channel to a tracer under `name`: registers the channel
    /// id, exposes push/pop/block counters and an occupancy gauge in the
    /// metrics registry, and turns on event emission for the blocking
    /// paths. Harmless (and free) when `tracer` is disabled.
    pub fn instrument(&self, tracer: &Tracer, name: &str) {
        self.store.with(|inner| {
            let chan = tracer.register_channel(name, inner.capacity as u64);
            let labels = [("channel", name)];
            inner.trace = ChannelTrace {
                tracer: tracer.clone(),
                chan,
                pushes: tracer.counter("channel_pushes", &labels),
                pops: tracer.counter("channel_pops", &labels),
                blocked_writes: tracer.counter("channel_blocked_writes", &labels),
                blocked_reads: tracer.counter("channel_blocked_reads", &labels),
                occupancy: tracer.gauge("channel_occupancy", &labels),
            };
        });
    }

    /// Snapshot of the activity counters.
    pub fn stats(&self) -> ChannelStats {
        self.store.with(|inner| inner.stats)
    }

    /// Elements currently buffered.
    pub fn len(&self) -> usize {
        self.store.with(|inner| inner.buf.len())
    }

    /// Buffer capacity in elements.
    pub fn capacity(&self) -> usize {
        self.store.with(|inner| inner.capacity)
    }

    /// Whether no elements are currently buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raise the capacity to at least `capacity` elements (never lowers
    /// it). The buffer grows on demand, so this only moves the point where
    /// producers suspend; call it before data flows — a producer already
    /// suspended on a full buffer is not woken.
    pub fn raise_capacity(&self, capacity: usize) {
        self.store
            .with(|inner| inner.capacity = inner.capacity.max(capacity));
    }

    fn poll_send(&self, value: &mut Option<T>, cx: &mut Context<'_>) -> Poll<()> {
        self.store.with(|inner| {
            // Full relative to the slowest open consumer?
            let free = inner.free_slots();
            if free == Some(0) {
                inner.note_blocked_write(cx);
                return Poll::Pending;
            }
            let v = value.take().expect("SendFuture polled after completion");
            inner.buf.push_back(v);
            inner.stats.pushes += 1;
            inner.trace.pushes.inc();
            // With no open consumers the element is immediately retired —
            // writing to a stream nobody reads succeeds and discards, which is
            // what lets upstream kernels drain during shutdown. With one
            // open, every pop and close has already retired up to the
            // slowest cursor, so a push has nothing to retire.
            if free.is_none() {
                inner.retire();
            }
            inner.stats.max_occupancy = inner.stats.max_occupancy.max(inner.buf.len() as u64);
            inner.note_push_occupancy();
            inner.wake_readers();
            Poll::Ready(())
        })
    }

    /// Batched send: under one state acquisition, pull as many elements
    /// from `iter` as the buffer has free slots (never more — the source
    /// stays lazy), waking consumers once per batch. Completes when the
    /// iterator is exhausted.
    fn poll_send_iter<I: Iterator<Item = T>>(
        &self,
        iter: &mut I,
        cx: &mut Context<'_>,
    ) -> Poll<()> {
        // An exact upper bound of zero proves exhaustion without pulling;
        // iterators that cannot tell are found out by a short batch.
        let exhausted = |iter: &I| iter.size_hint().1 == Some(0);
        if exhausted(iter) {
            return Poll::Ready(());
        }
        self.store.with(|inner| {
            let Some(free) = inner.free_slots() else {
                // No open consumers: the whole remainder succeeds and is
                // discarded (same contract as the element-wise path, which
                // pushes then immediately retires).
                let discarded = iter.by_ref().count() as u64;
                inner.base_seq += discarded;
                inner.stats.pushes += discarded;
                inner.trace.pushes.add(discarded);
                inner.note_push_occupancy();
                return Poll::Ready(());
            };
            let before = inner.buf.len();
            inner.buf.extend(iter.by_ref().take(free));
            let batch = inner.buf.len() - before;
            if batch > 0 {
                inner.stats.pushes += batch as u64;
                inner.trace.pushes.add(batch as u64);
                inner.stats.max_occupancy = inner.stats.max_occupancy.max(inner.buf.len() as u64);
                inner.note_push_occupancy();
                inner.wake_readers();
            }
            if batch < free || exhausted(iter) {
                return Poll::Ready(());
            }
            // A partial-progress poll suspends but is not *blocked*: only a
            // poll that moved nothing counts against blocked_writes,
            // mirroring the element path's full-buffer condition.
            if batch == 0 {
                inner.note_blocked_write(cx);
            } else {
                inner.arm_writer(cx.waker());
            }
            Poll::Pending
        })
    }

    fn poll_recv(&self, idx: usize, cx: &mut Context<'_>) -> Poll<Option<T>> {
        self.store.with(|inner| {
            let cursor = inner.consumers[idx].cursor;
            if cursor < inner.head_seq() {
                let offset = (cursor - inner.base_seq) as usize;
                let value = inner.buf[offset].clone();
                inner.consumers[idx].cursor += 1;
                inner.stats.pops += 1;
                inner.trace.pops.inc();
                inner.retire();
                inner.note_pop_occupancy();
                inner.wake_writers();
                Poll::Ready(Some(value))
            } else if inner.producers == 0 {
                Poll::Ready(None)
            } else {
                inner.note_blocked_read(idx, cx);
                Poll::Pending
            }
        })
    }

    /// Batched receive: when elements are available, `take` moves the next
    /// `min(available, max)` of them out (via [`Inner::take_batch`]) in one
    /// state acquisition. Resolves to `None` at end-of-stream.
    fn poll_recv_batch<R>(
        &self,
        idx: usize,
        max: usize,
        cx: &mut Context<'_>,
        take: impl FnOnce(&mut Inner<T>, usize) -> R,
    ) -> Poll<Option<R>> {
        self.store.with(|inner| {
            let available = (inner.head_seq() - inner.consumers[idx].cursor) as usize;
            if available > 0 {
                Poll::Ready(Some(take(inner, available.min(max))))
            } else if inner.producers == 0 {
                Poll::Ready(None)
            } else {
                inner.note_blocked_read(idx, cx);
                Poll::Pending
            }
        })
    }

    /// Drain up to `max` available elements onto the end of `out`.
    /// Resolves to the number of elements moved.
    fn poll_recv_vec(
        &self,
        idx: usize,
        max: usize,
        out: &mut Vec<T>,
        cx: &mut Context<'_>,
    ) -> Poll<Option<usize>> {
        self.poll_recv_batch(idx, max, cx, |inner, batch| {
            inner.take_batch(idx, batch, out);
            batch
        })
    }

    /// Drain up to `max` available elements onto the end of a shared sink
    /// buffer, locked once per batch and only when there is data to move.
    /// Resolves to the number of elements moved.
    fn poll_recv_into(
        &self,
        idx: usize,
        max: usize,
        out: &Mutex<Vec<T>>,
        cx: &mut Context<'_>,
    ) -> Poll<Option<usize>> {
        self.poll_recv_batch(idx, max, cx, |inner, batch| {
            let mut out = out
                .lock()
                .expect("sink buffer poisoned by a panicking reader");
            inner.take_batch(idx, batch, &mut out);
            batch
        })
    }

    fn close_producer(&self) {
        self.store.with(|inner| {
            inner.producers -= 1;
            if inner.producers == 0 {
                inner.wake_readers();
            }
        });
    }

    fn close_consumer(&self, idx: usize) {
        self.store.with(|inner| {
            inner.consumers[idx].open = false;
            inner.consumers[idx].waker = WakerSlot::default();
            inner.retire();
            inner.wake_writers();
        });
    }
}

/// Type-erased administrative view over a channel: post-creation
/// instrumentation and statistics, independent of the element type. The
/// runtime context holds one per connector (inside
/// [`crate::AnyChannel`]) so it can wire tracing and aggregate stats
/// without knowing `T`.
pub trait ChannelAdmin: Send + Sync {
    /// See [`Channel::instrument`].
    fn instrument(&self, tracer: &Tracer, name: &str);
    /// See [`Channel::stats`].
    fn stats(&self) -> ChannelStats;
    /// See [`Channel::len`].
    fn occupancy(&self) -> usize;
    /// See [`Channel::capacity`].
    fn capacity(&self) -> usize;
    /// [`Channel::raise_capacity`] to as many whole elements as fit in
    /// `bytes` (a zero-sized element counts as one byte).
    fn raise_capacity_to_bytes(&self, bytes: usize);
}

impl<T: cgsim_core::StreamData> ChannelAdmin for Channel<T> {
    fn instrument(&self, tracer: &Tracer, name: &str) {
        Channel::instrument(self, tracer, name)
    }
    fn stats(&self) -> ChannelStats {
        Channel::stats(self)
    }
    fn occupancy(&self) -> usize {
        Channel::len(self)
    }
    fn capacity(&self) -> usize {
        Channel::capacity(self)
    }
    fn raise_capacity_to_bytes(&self, bytes: usize) {
        Channel::raise_capacity(self, bytes / std::mem::size_of::<T>().max(1))
    }
}

/// Producer endpoint; dropping it releases the channel (closing it once all
/// producers are gone).
pub struct Producer<T: Clone> {
    chan: Arc<Channel<T>>,
}

impl<T: Clone> Producer<T> {
    /// Send one element, suspending while the buffer is full.
    pub fn send(&mut self, value: T) -> SendFuture<'_, T> {
        SendFuture {
            chan: &self.chan,
            value: Some(value),
        }
    }

    /// Send everything `iter` yields — the data-source operation (§3.7).
    /// Each poll pulls at most the buffer's free capacity from `iter` under
    /// one state acquisition and wakes consumers once, so the iterator is
    /// never materialised and never runs more than a buffer ahead of the
    /// slowest consumer. Equivalent to awaiting [`Producer::send`] per
    /// element, but with batched synchronisation and one `ChannelPush`
    /// trace record (carrying the post-batch occupancy) per batch; with no
    /// open consumer the remainder is counted and discarded.
    pub fn push_iter<I: Iterator<Item = T>>(&mut self, iter: I) -> PushIterFuture<'_, T, I> {
        PushIterFuture {
            chan: &self.chan,
            iter,
        }
    }

    /// The channel this endpoint writes to.
    pub fn channel(&self) -> &Arc<Channel<T>> {
        &self.chan
    }
}

impl<T: Clone> Drop for Producer<T> {
    fn drop(&mut self) {
        self.chan.close_producer();
    }
}

/// Consumer endpoint; dropping it releases its cursor so it no longer
/// throttles producers.
pub struct Consumer<T: Clone> {
    chan: Arc<Channel<T>>,
    idx: usize,
}

impl<T: Clone> Consumer<T> {
    /// Receive the next element, suspending while the buffer is empty.
    /// Resolves to `None` once all producers are dropped and the stream is
    /// drained.
    pub fn recv(&mut self) -> RecvFuture<'_, T> {
        RecvFuture {
            chan: &self.chan,
            idx: self.idx,
        }
    }

    /// Receive up to `max` elements (at least one) onto the end of `out`
    /// in one state acquisition, waking producers once per batch; `out`
    /// keeps its allocation. Resolves to the number of elements moved
    /// (`1..=max`, in stream order), or `None` once all producers are
    /// dropped and the stream is drained.
    pub fn pop_vec<'a>(
        &'a mut self,
        out: &'a mut Vec<T>,
        max: usize,
    ) -> impl std::future::Future<Output = Option<usize>> + 'a {
        assert!(max >= 1, "pop_vec needs a batch size of at least 1");
        let (chan, idx) = (&self.chan, self.idx);
        std::future::poll_fn(move |cx| chan.poll_recv_vec(idx, max, out, cx))
    }

    /// Receive up to `max` elements (at least one) straight onto the end of
    /// a shared sink buffer — the data-sink operation (§3.7). `out` is
    /// locked once per batch, inside the poll that moves data, never while
    /// suspended. Resolves to the number of elements moved, or `None` once
    /// all producers are dropped and the stream is drained.
    pub fn pop_into<'a>(&'a mut self, out: &'a Mutex<Vec<T>>, max: usize) -> PopIntoFuture<'a, T> {
        assert!(max >= 1, "pop_into needs a batch size of at least 1");
        PopIntoFuture {
            chan: &self.chan,
            idx: self.idx,
            out,
            max,
        }
    }

    /// The data-sink coroutine every engine attaches to a global output
    /// (§3.7): append the stream to `out` one [`Consumer::pop_into`] batch
    /// at a time until end-of-stream, or until `limit` elements have been
    /// collected — at which point the endpoint is dropped, closing the
    /// consumer before the stream ends (the early-sink-closure fault mode).
    pub async fn collect_into(mut self, out: Arc<Mutex<Vec<T>>>, limit: Option<usize>) {
        let limit = limit.unwrap_or(usize::MAX);
        let mut collected = 0;
        while collected < limit {
            match self.pop_into(&out, limit - collected).await {
                Some(n) => collected += n,
                None => return,
            }
        }
    }

    /// The channel this endpoint reads from.
    pub fn channel(&self) -> &Arc<Channel<T>> {
        &self.chan
    }
}

impl<T: Clone> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.chan.close_consumer(self.idx);
    }
}

/// Future returned by [`Producer::send`].
pub struct SendFuture<'a, T: Clone> {
    chan: &'a Channel<T>,
    value: Option<T>,
}

impl<T: Clone> std::future::Future for SendFuture<'_, T> {
    type Output = ();

    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        this.chan.poll_send(&mut this.value, cx)
    }
}

impl<T: Clone> Unpin for SendFuture<'_, T> {}

/// Future returned by [`Producer::push_iter`].
pub struct PushIterFuture<'a, T: Clone, I> {
    chan: &'a Channel<T>,
    iter: I,
}

impl<T: Clone, I: Iterator<Item = T>> std::future::Future for PushIterFuture<'_, T, I> {
    type Output = ();

    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        this.chan.poll_send_iter(&mut this.iter, cx)
    }
}

// The iterator is only ever used through `&mut`, never pinned.
impl<T: Clone, I> Unpin for PushIterFuture<'_, T, I> {}

/// Future returned by [`Consumer::recv`].
pub struct RecvFuture<'a, T: Clone> {
    chan: &'a Channel<T>,
    idx: usize,
}

impl<T: Clone> std::future::Future for RecvFuture<'_, T> {
    type Output = Option<T>;

    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        self.chan.poll_recv(self.idx, cx)
    }
}

impl<T: Clone> Unpin for RecvFuture<'_, T> {}

/// Future returned by [`Consumer::pop_into`].
pub struct PopIntoFuture<'a, T: Clone> {
    chan: &'a Channel<T>,
    idx: usize,
    out: &'a Mutex<Vec<T>>,
    max: usize,
}

impl<T: Clone> std::future::Future for PopIntoFuture<'_, T> {
    type Output = Option<usize>;

    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<usize>> {
        self.chan.poll_recv_into(self.idx, self.max, self.out, cx)
    }
}

impl<T: Clone> Unpin for PopIntoFuture<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::block_on;

    #[test]
    fn single_producer_single_consumer_fifo() {
        let chan = Channel::new(4);
        let mut tx = chan.add_producer();
        let mut rx = chan.add_consumer();
        block_on(async {
            for i in 0..4 {
                tx.send(i).await;
            }
            drop(tx);
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            assert_eq!(got, vec![0, 1, 2, 3]);
        });
    }

    #[test]
    fn broadcast_delivers_full_copy_to_each_consumer() {
        let chan = Channel::new(8);
        let mut tx = chan.add_producer();
        let mut rx1 = chan.add_consumer();
        let mut rx2 = chan.add_consumer();
        block_on(async {
            for i in 0..5 {
                tx.send(i * 10).await;
            }
            drop(tx);
            let mut a = Vec::new();
            while let Some(v) = rx1.recv().await {
                a.push(v);
            }
            let mut b = Vec::new();
            while let Some(v) = rx2.recv().await {
                b.push(v);
            }
            assert_eq!(a, vec![0, 10, 20, 30, 40]);
            assert_eq!(b, a);
        });
    }

    #[test]
    fn recv_none_after_all_producers_drop() {
        let chan = Channel::<u32>::new(2);
        let tx1 = chan.add_producer();
        let tx2 = chan.add_producer();
        let mut rx = chan.add_consumer();
        drop(tx1);
        // Still one producer open: a poll must stay pending, not None.
        {
            let waker = std::task::Waker::noop();
            let mut cx = Context::from_waker(waker);
            assert!(matches!(chan.poll_recv(0, &mut cx), Poll::Pending));
        }
        drop(tx2);
        assert_eq!(block_on(async { rx.recv().await }), None);
    }

    #[test]
    fn capacity_throttles_on_slowest_consumer() {
        let chan = Channel::new(2);
        let _tx = chan.add_producer();
        let mut fast = chan.add_consumer();
        let _slow = chan.add_consumer();
        let waker = std::task::Waker::noop();
        let mut cx = Context::from_waker(waker);

        // Two sends fit; the third must block because `slow` has read nothing.
        assert!(matches!(
            chan.poll_send(&mut Some(1), &mut cx),
            Poll::Ready(())
        ));
        assert!(matches!(
            chan.poll_send(&mut Some(2), &mut cx),
            Poll::Ready(())
        ));
        assert!(matches!(
            chan.poll_send(&mut Some(3), &mut cx),
            Poll::Pending
        ));
        // Fast consumer draining does not help: slow still pins the buffer.
        block_on(async {
            assert_eq!(fast.recv().await, Some(1));
            assert_eq!(fast.recv().await, Some(2));
        });
        assert!(matches!(
            chan.poll_send(&mut Some(3), &mut cx),
            Poll::Pending
        ));
        assert_eq!(chan.stats().blocked_writes, 2);
    }

    #[test]
    fn dropping_a_consumer_unpins_the_buffer() {
        let chan = Channel::new(1);
        let _tx = chan.add_producer();
        let slow = chan.add_consumer();
        let waker = std::task::Waker::noop();
        let mut cx = Context::from_waker(waker);
        assert!(matches!(
            chan.poll_send(&mut Some(1), &mut cx),
            Poll::Ready(())
        ));
        assert!(matches!(
            chan.poll_send(&mut Some(2), &mut cx),
            Poll::Pending
        ));
        drop(slow);
        assert!(matches!(
            chan.poll_send(&mut Some(2), &mut cx),
            Poll::Ready(())
        ));
    }

    #[test]
    fn writes_without_consumers_are_discarded() {
        let chan = Channel::new(1);
        let mut tx = chan.add_producer();
        block_on(async {
            // Capacity is 1, yet all sends complete: nothing retains data.
            for i in 0..10 {
                tx.send(i).await;
            }
        });
        assert_eq!(chan.len(), 0);
        assert_eq!(chan.stats().pushes, 10);
    }

    #[test]
    fn multi_producer_merge_preserves_per_producer_order() {
        let chan = Channel::new(64);
        let mut tx1 = chan.add_producer();
        let mut tx2 = chan.add_producer();
        let mut rx = chan.add_consumer();
        block_on(async {
            for i in 0..10 {
                tx1.send(i).await; // producer 1: 0..10
                tx2.send(100 + i).await; // producer 2: 100..110
            }
            drop(tx1);
            drop(tx2);
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            let p1: Vec<i32> = got.iter().copied().filter(|v| *v < 100).collect();
            let p2: Vec<i32> = got.iter().copied().filter(|v| *v >= 100).collect();
            assert_eq!(p1, (0..10).collect::<Vec<_>>());
            assert_eq!(p2, (100..110).collect::<Vec<_>>());
        });
    }

    #[test]
    fn stats_count_pops_per_consumer() {
        let chan = Channel::new(8);
        let mut tx = chan.add_producer();
        let mut rx1 = chan.add_consumer();
        let mut rx2 = chan.add_consumer();
        block_on(async {
            tx.send(1).await;
            tx.send(2).await;
            drop(tx);
            while rx1.recv().await.is_some() {}
            while rx2.recv().await.is_some() {}
        });
        let stats = chan.stats();
        assert_eq!(stats.pushes, 2);
        assert_eq!(stats.pops, 4);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = Channel::<u8>::new(0);
    }

    /// Waker registration: what blocking costs, and whom a wake reaches.
    mod wakers {
        use super::*;
        use std::sync::atomic::AtomicUsize;
        use std::task::{RawWaker, RawWakerVTable};

        /// How often the wakers built over it were cloned and woken.
        #[derive(Default)]
        struct Counts {
            clones: AtomicUsize,
            wakes: AtomicUsize,
        }

        impl Counts {
            fn clones(&self) -> usize {
                self.clones.load(Ordering::Relaxed)
            }
            fn wakes(&self) -> usize {
                self.wakes.load(Ordering::Relaxed)
            }
        }

        // A `static`, not a `const`: `will_wake` compares vtable addresses,
        // and a `const` may be given a different one at each use.
        static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, wake, wake_by_ref, release);

        // SAFETY (all four): `data` is the `Arc::into_raw` pointer of a
        // `Counts`, and every live waker over it owns one strong count.
        unsafe fn clone(data: *const ()) -> RawWaker {
            unsafe {
                Arc::increment_strong_count(data.cast::<Counts>());
                (*data.cast::<Counts>())
                    .clones
                    .fetch_add(1, Ordering::Relaxed);
            }
            RawWaker::new(data, &VTABLE)
        }
        unsafe fn wake(data: *const ()) {
            unsafe {
                wake_by_ref(data);
                release(data);
            }
        }
        unsafe fn wake_by_ref(data: *const ()) {
            unsafe { &*data.cast::<Counts>() }
                .wakes
                .fetch_add(1, Ordering::Relaxed);
        }
        unsafe fn release(data: *const ()) {
            unsafe { Arc::decrement_strong_count(data.cast::<Counts>()) }
        }

        fn counting_waker(counts: &Arc<Counts>) -> Waker {
            let data = Arc::into_raw(Arc::clone(counts)).cast::<()>();
            // SAFETY: the vtable functions above uphold the `RawWaker`
            // contract for a pointer that owns one strong count.
            unsafe { Waker::from_raw(RawWaker::new(data, &VTABLE)) }
        }

        #[test]
        fn a_task_that_blocks_repeatedly_is_registered_once() {
            const CYCLES: usize = if cfg!(miri) { 8 } else { 200 };
            for mode in [ChannelMode::Shared, ChannelMode::SingleThread] {
                let chan = Channel::with_mode(1, mode);
                let _tx = chan.add_producer();
                let _rx = chan.add_consumer();
                let (reader, writer) = (Arc::<Counts>::default(), Arc::<Counts>::default());
                let (reader_waker, writer_waker) =
                    (counting_waker(&reader), counting_waker(&writer));
                let mut reader_cx = Context::from_waker(&reader_waker);
                let mut writer_cx = Context::from_waker(&writer_waker);
                for i in 0..CYCLES {
                    // The reader blocks on the empty buffer; the push wakes it.
                    assert!(chan.poll_recv(0, &mut reader_cx).is_pending());
                    assert!(chan.poll_send(&mut Some(i), &mut writer_cx).is_ready());
                    // The writer blocks on the full buffer; the pop wakes it.
                    assert!(chan.poll_send(&mut Some(i), &mut writer_cx).is_pending());
                    assert_eq!(chan.poll_recv(0, &mut reader_cx), Poll::Ready(Some(i)));
                }
                assert_eq!((reader.wakes(), writer.wakes()), (CYCLES, CYCLES));
                assert_eq!((reader.clones(), writer.clones()), (1, 1), "{mode:?}");
            }
        }

        #[test]
        fn a_changed_waker_is_registered_in_place_of_the_old_one() {
            let chan = Channel::with_mode(1, ChannelMode::SingleThread);
            let _tx = chan.add_producer();
            let _rx = chan.add_consumer();
            let counts: Vec<Arc<Counts>> = (0..5).map(|_| Arc::default()).collect();
            let wakers: Vec<Waker> = counts.iter().map(counting_waker).collect();
            let cx = |i: usize| Context::from_waker(&wakers[i]);
            // One count for `counts[i]`, one for `wakers[i]`, the rest are
            // clones the channel holds.
            let held_by_channel = |i: usize| Arc::strong_count(&counts[i]) - 2;

            // The reader blocks as task 0, is polled again as task 1, and the
            // push wakes task 1 alone.
            assert!(chan.poll_recv(0, &mut cx(0)).is_pending());
            assert!(chan.poll_recv(0, &mut cx(1)).is_pending());
            assert_eq!(held_by_channel(0), 0);
            assert!(chan.poll_send(&mut Some(7), &mut cx(2)).is_ready());
            assert_eq!((counts[0].wakes(), counts[1].wakes()), (0, 1));

            // Two tasks blocked on the full buffer are both woken by one pop.
            assert!(chan.poll_send(&mut Some(8), &mut cx(2)).is_pending());
            assert!(chan.poll_send(&mut Some(8), &mut cx(3)).is_pending());
            assert_eq!(chan.poll_recv(0, &mut cx(1)), Poll::Ready(Some(7)));
            assert_eq!((counts[2].wakes(), counts[3].wakes()), (1, 1));

            // With more slots than producers a new task takes over an idle
            // one, so stale wakers are released instead of piling up.
            assert!(chan.poll_send(&mut Some(8), &mut cx(4)).is_ready());
            assert!(chan.poll_send(&mut Some(9), &mut cx(4)).is_pending());
            assert_eq!(
                (held_by_channel(2), held_by_channel(3), held_by_channel(4)),
                (0, 1, 1)
            );
            assert_eq!(chan.poll_recv(0, &mut cx(1)), Poll::Ready(Some(8)));
            assert_eq!((counts[3].wakes(), counts[4].wakes()), (1, 1));
        }

        /// The thread-per-kernel engine's case: producers parked on their
        /// own threads, one slot each, and a pop must unpark all of them.
        #[test]
        fn shared_channel_wakes_every_blocked_producer_thread() {
            let chan = Channel::new(1);
            let mut rx = chan.add_consumer();
            block_on(chan.add_producer().send(0));
            let producers: Vec<_> = (1..=2)
                .map(|v| {
                    let mut tx = chan.add_producer();
                    std::thread::spawn(move || block_on(tx.send(v)))
                })
                .collect();
            // A blocked write is counted under the same lock that registers
            // its waker: at 2, both threads are parked on the full buffer.
            while chan.stats().blocked_writes < 2 {
                std::thread::yield_now();
            }
            let mut got = Vec::new();
            block_on(async {
                while let Some(v) = rx.recv().await {
                    got.push(v);
                }
            });
            for producer in producers {
                producer.join().expect("producer thread panicked");
            }
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 2]);
        }
    }

    /// The semantics tests above all run against the default `Shared`
    /// storage; this block re-runs the load-bearing ones on the
    /// single-thread fast path, which must be observably identical.
    mod single_thread_mode {
        use super::*;

        fn fast<T: Clone>(capacity: usize) -> Arc<Channel<T>> {
            Channel::with_mode(capacity, ChannelMode::SingleThread)
        }

        #[test]
        fn mode_is_recorded() {
            assert_eq!(fast::<u8>(1).mode(), ChannelMode::SingleThread);
            assert_eq!(Channel::<u8>::new(1).mode(), ChannelMode::Shared);
        }

        /// The owner check holds in every build: run this one with
        /// `cargo test --release` too.
        #[test]
        #[should_panic(expected = "second thread")]
        fn a_second_thread_is_refused() {
            let chan = fast::<u8>(1);
            let _tx = chan.add_producer(); // first access: this thread owns it
            let remote = Arc::clone(&chan);
            let refused = std::thread::spawn(move || remote.len()).join();
            std::panic::resume_unwind(refused.expect_err("the foreign access was let through"));
        }

        #[test]
        fn fifo_roundtrip_and_eos() {
            let chan = fast(16);
            let mut tx = chan.add_producer();
            let mut rx = chan.add_consumer();
            block_on(async {
                for i in 0..12 {
                    tx.send(i).await;
                }
                drop(tx);
                let mut got = Vec::new();
                while let Some(v) = rx.recv().await {
                    got.push(v);
                }
                assert_eq!(got, (0..12).collect::<Vec<_>>());
            });
        }

        #[test]
        fn backpressure_matches_shared_mode() {
            let chan = fast(2);
            let _tx = chan.add_producer();
            let _rx = chan.add_consumer();
            let waker = std::task::Waker::noop();
            let mut cx = Context::from_waker(waker);
            assert!(matches!(
                chan.poll_send(&mut Some(1), &mut cx),
                Poll::Ready(())
            ));
            assert!(matches!(
                chan.poll_send(&mut Some(2), &mut cx),
                Poll::Ready(())
            ));
            assert!(matches!(
                chan.poll_send(&mut Some(3), &mut cx),
                Poll::Pending
            ));
            assert_eq!(chan.stats().blocked_writes, 1);
        }

        #[test]
        fn broadcast_copies_per_consumer() {
            let chan = fast(8);
            let mut tx = chan.add_producer();
            let mut rx1 = chan.add_consumer();
            let mut rx2 = chan.add_consumer();
            block_on(async {
                for i in 0..5 {
                    tx.send(i).await;
                }
                drop(tx);
                let mut a = Vec::new();
                while let Some(v) = rx1.recv().await {
                    a.push(v);
                }
                let mut b = Vec::new();
                while let Some(v) = rx2.recv().await {
                    b.push(v);
                }
                assert_eq!(a, (0..5).collect::<Vec<_>>());
                assert_eq!(b, a);
            });
        }
    }

    mod batched {
        use super::*;

        #[test]
        fn push_iter_roundtrips_through_pop_vec() {
            for mode in [ChannelMode::Shared, ChannelMode::SingleThread] {
                let chan = Channel::with_mode(4, mode);
                let mut tx = chan.add_producer();
                let mut rx = chan.add_consumer();
                let data: Vec<i64> = (0..33).collect();
                let expect = data.clone();
                block_on(async move {
                    // Slice larger than capacity: partial progress per poll,
                    // drained concurrently by the chunk reader below would
                    // need two tasks; here interleave manually via executor.
                    let mut ex = crate::executor::Executor::new();
                    ex.spawn(
                        "tx",
                        Box::pin(async move {
                            tx.push_iter(data.into_iter()).await;
                        }),
                    );
                    let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
                    let sink = std::rc::Rc::clone(&got);
                    ex.spawn(
                        "rx",
                        Box::pin(async move {
                            let mut chunk = Vec::new();
                            while rx.pop_vec(&mut chunk, 8).await.is_some() {
                                sink.borrow_mut().append(&mut chunk);
                            }
                        }),
                    );
                    let (_, stalled) = ex.run();
                    assert!(stalled.is_empty(), "batched pipeline deadlocked");
                    assert_eq!(*got.borrow(), expect);
                });
            }
        }

        #[test]
        fn empty_source_completes_without_stats() {
            let chan = Channel::<i64>::new(1);
            let mut tx = chan.add_producer();
            let _rx = chan.add_consumer();
            block_on(async {
                tx.push_iter(Vec::new().into_iter()).await;
            });
            assert_eq!(chan.stats().pushes, 0);
        }

        #[test]
        fn push_iter_without_consumers_discards_everything() {
            let chan = Channel::new(2);
            let mut tx = chan.add_producer();
            block_on(async {
                tx.push_iter((0..100).collect::<Vec<_>>().into_iter()).await;
            });
            assert_eq!(chan.len(), 0);
            assert_eq!(chan.stats().pushes, 100);
        }

        #[test]
        fn pop_vec_returns_at_most_max_and_none_at_eos() {
            let chan = Channel::new(16);
            let mut tx = chan.add_producer();
            let mut rx = chan.add_consumer();
            block_on(async {
                tx.push_iter((0..10i32).collect::<Vec<_>>().into_iter())
                    .await;
                drop(tx);
                let mut first = Vec::new();
                assert_eq!(rx.pop_vec(&mut first, 4).await, Some(4));
                assert_eq!(first, vec![0, 1, 2, 3]);
                let mut rest = Vec::new();
                assert_eq!(rx.pop_vec(&mut rest, 64).await, Some(6));
                assert_eq!(rest, (4..10).collect::<Vec<_>>());
                assert_eq!(rx.pop_vec(&mut rest, 4).await, None);
            });
        }

        /// A source never runs more than one buffer ahead of its sink: the
        /// iterator is pulled `free` elements per poll, not materialised.
        #[test]
        fn push_iter_pulls_at_most_capacity_ahead_of_the_sink() {
            const CAPACITY: usize = 4;
            // Once with an exact `size_hint` (a range), once with none
            // (`from_fn`), which only a short batch reveals as exhausted.
            for sized in [true, false] {
                for mode in [ChannelMode::Shared, ChannelMode::SingleThread] {
                    let chan = Channel::with_mode(CAPACITY, mode);
                    let mut tx = chan.add_producer();
                    let rx = chan.add_consumer();
                    let sink = Arc::new(Mutex::new(Vec::new()));
                    let popped = Arc::clone(&sink);
                    let mut pulled = 0usize;
                    let counting = (0..1000u32).inspect(move |_| {
                        pulled += 1;
                        let ahead = pulled - popped.lock().unwrap().len();
                        assert!(ahead <= CAPACITY, "pulled {ahead} ahead of the sink");
                    });
                    let mut counting: Box<dyn Iterator<Item = u32>> = Box::new(counting);
                    if !sized {
                        counting = Box::new(std::iter::from_fn(move || counting.next()));
                    }
                    let mut ex = crate::executor::Executor::new();
                    ex.spawn(
                        "source",
                        Box::pin(async move { tx.push_iter(counting).await }),
                    );
                    ex.spawn("sink", Box::pin(rx.collect_into(Arc::clone(&sink), None)));
                    let (_, stalled) = ex.run();
                    assert!(stalled.is_empty(), "stalled: {stalled:?}");
                    assert_eq!(*sink.lock().unwrap(), (0..1000).collect::<Vec<u32>>());
                    assert_eq!(chan.stats().pushes, 1000);
                }
            }
        }

        #[test]
        fn pop_into_appends_across_the_ring_seam_for_every_reader() {
            // Capacity 4 with the head wrapped mid-buffer: a batch spans
            // both halves of the ring, for a reader that lags its sibling
            // and for the last one left open.
            let chan = Channel::new(4);
            let mut tx = chan.add_producer();
            let mut rx1 = chan.add_consumer();
            let mut rx2 = chan.add_consumer();
            let (out1, out2) = (Mutex::new(vec![-1]), Mutex::new(Vec::new()));
            block_on(async {
                tx.push_iter(vec![0, 1, 2].into_iter()).await;
                assert_eq!(rx1.pop_into(&out1, 2).await, Some(2));
                assert_eq!(rx2.pop_into(&out2, 8).await, Some(3));
                tx.push_iter(vec![3, 4, 5].into_iter()).await; // wraps: 2 | 3 4 5
                assert_eq!(rx1.pop_into(&out1, 8).await, Some(4));
                drop(rx1);
                assert_eq!(rx2.pop_into(&out2, 8).await, Some(3));
                drop(tx);
                assert_eq!(rx2.pop_into(&out2, 8).await, None);
            });
            assert_eq!(*out1.lock().unwrap(), vec![-1, 0, 1, 2, 3, 4, 5]);
            assert_eq!(*out2.lock().unwrap(), vec![0, 1, 2, 3, 4, 5]);
            assert_eq!(chan.stats().pops, 12);
            assert_eq!(chan.len(), 0);
        }

        #[test]
        fn a_batch_is_one_trace_record_and_exact_counters() {
            let tracer = Tracer::ring(1024);
            let chan = Channel::new(8);
            chan.instrument(&tracer, "c0");
            let mut tx = chan.add_producer();
            let mut rx = chan.add_consumer();
            let out = Mutex::new(Vec::new());
            block_on(async {
                tx.push_iter(0..6u32).await;
                assert_eq!(rx.pop_into(&out, usize::MAX).await, Some(6));
            });
            let snap = tracer.snapshot();
            let count = |kind: &str| {
                (snap.records.iter())
                    .filter(|r| r.event.kind() == kind)
                    .count()
            };
            assert_eq!(count("channel_push"), 1);
            assert_eq!(count("channel_pop"), 1);
            let counter = |name: &str| snap.metrics.counter_value(&format!("{name}{{channel=c0}}"));
            assert_eq!(counter("channel_pushes"), Some(6));
            assert_eq!(counter("channel_pops"), Some(6));
            assert_eq!(counter("channel_blocked_writes"), Some(0));
        }

        #[test]
        fn chunk_pops_release_writers_once_per_batch() {
            let chan = Channel::new(4);
            let _tx = chan.add_producer();
            let _rx = chan.add_consumer();
            let waker = std::task::Waker::noop();
            let mut cx = Context::from_waker(waker);
            // Fill, then block a whole-slice write.
            for i in 0..4 {
                assert!(matches!(
                    chan.poll_send(&mut Some(i), &mut cx),
                    Poll::Ready(())
                ));
            }
            let mut slice = vec![10, 11, 12].into_iter();
            assert!(matches!(
                chan.poll_send_iter(&mut slice, &mut cx),
                Poll::Pending
            ));
            assert_eq!(slice.len(), 3);
            assert_eq!(chan.stats().blocked_writes, 1);
            // One chunk pop frees the buffer; the retry completes in one go.
            let mut chunk = Vec::new();
            assert_eq!(
                chan.poll_recv_vec(0, 4, &mut chunk, &mut cx),
                Poll::Ready(Some(4))
            );
            assert_eq!(chunk, vec![0, 1, 2, 3]);
            assert!(matches!(
                chan.poll_send_iter(&mut slice, &mut cx),
                Poll::Ready(())
            ));
            assert_eq!(slice.len(), 0);
            assert_eq!(chan.stats().blocked_writes, 1);
        }
    }

    #[test]
    fn instrumented_channel_emits_events_and_counters() {
        let tracer = Tracer::ring(1024);
        let chan = Channel::new(1);
        chan.instrument(&tracer, "c0");
        let mut tx = chan.add_producer();
        let mut rx = chan.add_consumer();
        let waker = std::task::Waker::noop();
        let mut cx = Context::from_waker(waker);
        // Fill the depth-1 buffer, then block once on the second send.
        assert!(matches!(
            chan.poll_send(&mut Some(1u32), &mut cx),
            Poll::Ready(())
        ));
        assert!(matches!(
            chan.poll_send(&mut Some(2), &mut cx),
            Poll::Pending
        ));
        block_on(async {
            assert_eq!(rx.recv().await, Some(1));
            tx.send(2).await;
            assert_eq!(rx.recv().await, Some(2));
        });
        let snap = tracer.snapshot();
        assert_eq!(
            snap.metrics.counter_value("channel_pushes{channel=c0}"),
            Some(2)
        );
        assert_eq!(
            snap.metrics.counter_value("channel_pops{channel=c0}"),
            Some(2)
        );
        assert_eq!(
            snap.metrics
                .counter_value("channel_blocked_writes{channel=c0}"),
            Some(1)
        );
        assert_eq!(snap.channels.len(), 1);
        assert_eq!(snap.channels[0].name, "c0");
        assert_eq!(snap.channels[0].capacity, 1);
        let kinds: Vec<&str> = snap.records.iter().map(|r| r.event.kind()).collect();
        assert!(kinds.contains(&"channel_push"));
        assert!(kinds.contains(&"channel_pop"));
        assert!(kinds.contains(&"channel_block"));
        assert!(kinds.contains(&"channel_unblock"));
    }
}

/// Property tests: the broadcast/backpressure/conservation contract must
/// hold under *arbitrary* poll interleavings, not just the handful of
/// orderings the unit tests pin down. A seeded scheduler polls endpoints in
/// random order until the channel drains.
///
/// Skipped under Miri: proptest's exploration budget is far too slow for
/// the interpreter; the deterministic unit tests above cover the same
/// aliasing-sensitive paths.
#[cfg(all(test, not(miri)))]
mod props {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use proptest::TestCaseError;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::task::{Context, Poll};

    /// Push `streams[p]` through one channel (one producer per stream, all
    /// consumers registered up front) polling endpoints in the random order
    /// chosen by `order_seed`. Asserts every stats counter is monotone
    /// non-decreasing across each operation; returns what each consumer saw.
    fn run_interleaved(
        streams: &[Vec<i64>],
        capacity: usize,
        n_consumers: usize,
        order_seed: u64,
    ) -> Result<Vec<Vec<i64>>, TestCaseError> {
        let chan = Channel::new(capacity);
        // (producer handle, next index into its stream); slot goes None once
        // the stream is exhausted, dropping the handle to close the channel.
        let mut txs: Vec<Option<(Producer<i64>, usize)>> = streams
            .iter()
            .map(|_| Some((chan.add_producer(), 0)))
            .collect();
        let _rxs: Vec<Consumer<i64>> = (0..n_consumers).map(|_| chan.add_consumer()).collect();

        let waker = std::task::Waker::noop();
        let mut cx = Context::from_waker(waker);
        let mut rng = StdRng::seed_from_u64(order_seed);
        let mut outs = vec![Vec::new(); n_consumers];
        let mut done = vec![false; n_consumers];
        let mut prev = chan.stats();
        let mut spins = 0u32;
        while !done.iter().all(|&d| d) {
            spins += 1;
            prop_assert!(spins < 1_000_000, "random interleaving did not drain");
            let pick = rng.random_range(0usize..txs.len() + n_consumers);
            if pick < txs.len() {
                if let Some((_tx, pos)) = &mut txs[pick] {
                    if *pos >= streams[pick].len() {
                        txs[pick] = None;
                    } else {
                        let mut v = Some(streams[pick][*pos]);
                        if let Poll::Ready(()) = chan.poll_send(&mut v, &mut cx) {
                            *pos += 1;
                        }
                    }
                }
            } else {
                let ci = pick - txs.len();
                if !done[ci] {
                    match chan.poll_recv(ci, &mut cx) {
                        Poll::Ready(Some(v)) => outs[ci].push(v),
                        Poll::Ready(None) => done[ci] = true,
                        Poll::Pending => {}
                    }
                }
            }
            let now = chan.stats();
            prop_assert!(
                now.pushes >= prev.pushes
                    && now.pops >= prev.pops
                    && now.blocked_writes >= prev.blocked_writes
                    && now.blocked_reads >= prev.blocked_reads,
                "stats counter went backwards: {prev:?} -> {now:?}"
            );
            prev = now;
        }
        let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
        prop_assert_eq!(prev.pushes, total);
        prop_assert_eq!(prev.pops, total * n_consumers as u64);
        Ok(outs)
    }

    /// Outcome of pushing one stream through a channel with `n_consumers`,
    /// used to compare the batched and element-wise paths.
    struct DrainOutcome {
        outs: Vec<Vec<i64>>,
        stats: ChannelStats,
    }

    /// Drive `data` through a channel of `capacity` with `n_consumers`,
    /// closing consumer `close_at.0` after it has read `close_at.1`
    /// elements. `batched = Some(chunk)` uses the polls under `push_iter`
    /// and `pop_vec` with the given batch size; `None` uses the element-wise loop. Round-robin
    /// polling (producer, then each consumer) keeps the interleaving
    /// identical across both paths so the observable outcome must match.
    fn drain_channel(
        data: &[i64],
        capacity: usize,
        n_consumers: usize,
        mode: ChannelMode,
        close_at: Option<(usize, usize)>,
        batched: Option<usize>,
    ) -> Result<DrainOutcome, TestCaseError> {
        let chan = Channel::with_mode(capacity, mode);
        let mut tx = Some(chan.add_producer());
        let mut rxs: Vec<Option<Consumer<i64>>> = (0..n_consumers)
            .map(|_| Some(chan.add_consumer()))
            .collect();
        let waker = std::task::Waker::noop();
        let mut cx = Context::from_waker(waker);

        let mut unsent = data.iter().copied();
        let mut outs = vec![Vec::new(); n_consumers];
        let mut done = vec![false; n_consumers];
        let mut spins = 0u32;
        loop {
            spins += 1;
            prop_assert!(spins < 1_000_000, "drain did not converge");
            // Producer turn; the handle is held until the stream drains.
            if tx.is_some() {
                if unsent.len() == 0 {
                    tx = None;
                } else if batched.is_some() {
                    let _ = chan.poll_send_iter(&mut unsent, &mut cx);
                } else {
                    let mut v = unsent.clone().next();
                    if let Poll::Ready(()) = chan.poll_send(&mut v, &mut cx) {
                        unsent.next();
                    }
                }
            }
            // Consumer turns.
            for ci in 0..n_consumers {
                if done[ci] || rxs[ci].is_none() {
                    continue;
                }
                match batched {
                    Some(chunk) => {
                        if let Poll::Ready(None) =
                            chan.poll_recv_vec(ci, chunk, &mut outs[ci], &mut cx)
                        {
                            done[ci] = true;
                        }
                    }
                    None => match chan.poll_recv(ci, &mut cx) {
                        Poll::Ready(Some(v)) => outs[ci].push(v),
                        Poll::Ready(None) => done[ci] = true,
                        Poll::Pending => {}
                    },
                }
                if let Some((idx, after)) = close_at {
                    if ci == idx && outs[ci].len() >= after && rxs[ci].is_some() {
                        rxs[ci] = None; // drop the handle: early close
                        done[ci] = true;
                    }
                }
            }
            if done.iter().all(|&d| d) && tx.is_none() {
                break;
            }
        }
        Ok(DrainOutcome {
            outs,
            stats: chan.stats(),
        })
    }

    /// Run one source and `readers` sinks as real coroutines on the
    /// cooperative executor, sink 0 closing after `limit` elements when one
    /// is given. `batched` selects `push_iter` + `collect_into` (the path
    /// every engine's `feed`/`collect` takes); otherwise the element-wise
    /// `send`/`recv` loops they replaced. Asserts no task stalled.
    fn run_source_and_sinks(
        data: &[i64],
        capacity: usize,
        readers: usize,
        limit: Option<usize>,
        mode: ChannelMode,
        batched: bool,
    ) -> Result<DrainOutcome, TestCaseError> {
        let chan = Channel::with_mode(capacity, mode);
        let mut ex = crate::executor::Executor::new();
        let mut tx = chan.add_producer();
        let data = data.to_vec();
        ex.spawn(
            "source",
            Box::pin(async move {
                if batched {
                    tx.push_iter(data.into_iter()).await;
                } else {
                    for v in data {
                        tx.send(v).await;
                    }
                }
            }),
        );
        let sinks: Vec<Arc<Mutex<Vec<i64>>>> = (0..readers).map(|_| Arc::default()).collect();
        for (i, sink) in sinks.iter().enumerate() {
            let mut rx = chan.add_consumer();
            let out = Arc::clone(sink);
            let limit = if i == 0 { limit } else { None };
            ex.spawn(
                format!("sink_{i}"),
                Box::pin(async move {
                    if batched {
                        return rx.collect_into(out, limit).await;
                    }
                    while out.lock().unwrap().len() < limit.unwrap_or(usize::MAX) {
                        let Some(v) = rx.recv().await else { return };
                        out.lock().unwrap().push(v);
                    }
                }),
            );
        }
        let (_, stalled) = ex.run();
        prop_assert!(stalled.is_empty(), "stalled tasks: {stalled:?}");
        Ok(DrainOutcome {
            outs: sinks
                .iter()
                .map(|s| std::mem::take(&mut *s.lock().unwrap()))
                .collect(),
            stats: chan.stats(),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn capacity_one_always_backpressures(data in vec(any::<i64>(), 1..24)) {
            // With depth 1 and an open consumer, every element must round-trip
            // through exactly one blocked write before the next send fits.
            let chan = Channel::new(1);
            let _tx = chan.add_producer();
            let _rx = chan.add_consumer();
            let waker = std::task::Waker::noop();
            let mut cx = Context::from_waker(waker);
            for (i, &v) in data.iter().enumerate() {
                prop_assert!(matches!(chan.poll_send(&mut Some(v), &mut cx), Poll::Ready(())));
                prop_assert!(matches!(chan.poll_send(&mut Some(v), &mut cx), Poll::Pending));
                prop_assert_eq!(chan.stats().blocked_writes, i as u64 + 1);
                match chan.poll_recv(0, &mut cx) {
                    Poll::Ready(Some(got)) => prop_assert_eq!(got, v),
                    other => prop_assert!(false, "expected an element, got {other:?}"),
                }
            }
        }

        #[test]
        fn broadcast_delivers_stream_exactly_once_per_consumer(
            data in vec(any::<i64>(), 0..32),
            capacity in 1usize..5,
            consumers in 1usize..4,
            order_seed in any::<u64>(),
        ) {
            let outs =
                run_interleaved(std::slice::from_ref(&data), capacity, consumers, order_seed)?;
            for got in &outs {
                // Single producer: order is preserved, nothing dropped or duplicated.
                prop_assert_eq!(got, &data);
            }
        }

        #[test]
        fn merge_keeps_per_producer_order(
            a in vec(0i64..1_000_000, 0..20),
            b in vec(0i64..1_000_000, 0..20),
            capacity in 1usize..4,
            order_seed in any::<u64>(),
        ) {
            // Tag streams by parity so the merged output can be de-interleaved.
            let sa: Vec<i64> = a.iter().map(|&v| v * 2).collect();
            let sb: Vec<i64> = b.iter().map(|&v| v * 2 + 1).collect();
            let outs = run_interleaved(&[sa.clone(), sb.clone()], capacity, 1, order_seed)?;
            let ga: Vec<i64> = outs[0].iter().copied().filter(|v| v % 2 == 0).collect();
            let gb: Vec<i64> = outs[0].iter().copied().filter(|v| v % 2 == 1).collect();
            prop_assert_eq!(ga, sa);
            prop_assert_eq!(gb, sb);
        }

        /// `push_iter`/`pop_vec` must be observably equivalent to the
        /// element-wise loop: identical per-consumer data and push/pop
        /// counters under random capacities, consumer counts, chunk sizes,
        /// storage modes, and early-close points. Blocked counters cannot
        /// match exactly (batching is the point: fewer suspensions), but the
        /// batched path must never block *more* than element-wise.
        #[test]
        fn batched_paths_match_element_wise(
            data in vec(any::<i64>(), 0..48),
            capacity in 1usize..8,
            consumers in 1usize..4,
            chunk in 1usize..10,
            knobs in any::<u64>(),
        ) {
            // One u64 folds the remaining knobs so the parameter list stays
            // within the strategy-tuple arity the test harness supports.
            let mode = if knobs & 1 == 0 { ChannelMode::Shared } else { ChannelMode::SingleThread };
            let close_at = (knobs & 2 != 0)
                .then_some(((knobs >> 2) as usize % consumers, (knobs >> 8) as usize % 48));
            let elem = drain_channel(&data, capacity, consumers, mode, close_at, None)?;
            let batch = drain_channel(&data, capacity, consumers, mode, close_at, Some(chunk))?;
            // Early-closed consumers may straddle a chunk boundary: the
            // batched reader can overshoot the close point by up to one
            // chunk, so compare the common prefix for that consumer and
            // exact data for all others.
            for ci in 0..consumers {
                if close_at.is_some_and(|(idx, _)| idx == ci) {
                    let n = elem.outs[ci].len().min(batch.outs[ci].len());
                    prop_assert!(
                        elem.outs[ci][..n] == batch.outs[ci][..n],
                        "early-closed consumer prefix diverged"
                    );
                } else {
                    prop_assert_eq!(&elem.outs[ci], &batch.outs[ci]);
                }
            }
            prop_assert_eq!(elem.stats.pushes, batch.stats.pushes);
            if close_at.is_none() {
                prop_assert_eq!(elem.stats.pops, batch.stats.pops);
            }
            prop_assert!(
                batch.stats.blocked_writes <= elem.stats.blocked_writes,
                "batching increased blocked writes: {} > {}",
                batch.stats.blocked_writes,
                elem.stats.blocked_writes
            );
            prop_assert!(
                batch.stats.blocked_reads <= elem.stats.blocked_reads,
                "batching increased blocked reads: {} > {}",
                batch.stats.blocked_reads,
                elem.stats.blocked_reads
            );
        }

        /// The source and sink coroutines (`push_iter` + `pop_into`) deliver
        /// to every consumer exactly the stream the element-wise
        /// `send`/`recv` loops deliver, with the same element counters,
        /// under both storage modes, broadcast, and an early-closing
        /// (`collect_bounded`) sink — and nothing stalls.
        #[test]
        fn source_and_sink_ops_match_element_wise(
            data in vec(any::<i64>(), 0..200),
            capacity in 1usize..9,
            readers in 1usize..4,
            knobs in any::<u64>(),
        ) {
            let mode = if knobs & 1 == 0 { ChannelMode::Shared } else { ChannelMode::SingleThread };
            let limit = (knobs & 2 != 0).then_some((knobs >> 2) as usize % 220);
            let elem = run_source_and_sinks(&data, capacity, readers, limit, mode, false)?;
            let batch = run_source_and_sinks(&data, capacity, readers, limit, mode, true)?;
            let cut = limit.unwrap_or(usize::MAX).min(data.len());
            prop_assert_eq!(&batch.outs[0], &data[..cut]);
            for out in &batch.outs[1..] {
                prop_assert_eq!(out, &data);
            }
            prop_assert_eq!(&batch.outs, &elem.outs);
            prop_assert_eq!(batch.stats.pushes, data.len() as u64);
            prop_assert_eq!(batch.stats.pushes, elem.stats.pushes);
            prop_assert_eq!(batch.stats.pops, elem.stats.pops);
            if limit.is_none() {
                prop_assert_eq!(batch.stats.pops, batch.stats.pushes * readers as u64);
            }
        }
    }
}
