//! Client-facing admission control: per-client token buckets plus a
//! round-robin fair queue.
//!
//! The pool below already bounds *total* concurrency (queue capacity,
//! worker count), and the server's cost gate bounds what one run may cost;
//! this module bounds *who* gets the slots. A token bucket per client id
//! caps sustained request rate, and the fair queue grants in-flight slots
//! round-robin across clients so one chatty client cannot starve the rest
//! even when its requests are all under its rate budget.

use cgsim_trace::{Counter, MetricsRegistry};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Token-bucket parameters, shared by every client.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateLimit {
    /// Burst size: tokens a fresh (or long-idle) client starts with.
    pub capacity: f64,
    /// Sustained refill rate, tokens per second.
    pub refill_per_sec: f64,
}

impl RateLimit {
    /// A limit of `refill_per_sec` sustained with bursts of `capacity`.
    pub fn new(capacity: f64, refill_per_sec: f64) -> Self {
        RateLimit {
            capacity: capacity.max(1.0),
            refill_per_sec: refill_per_sec.max(f64::MIN_POSITIVE),
        }
    }
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Per-client token buckets.
pub struct RateLimiter {
    limit: RateLimit,
    buckets: Mutex<HashMap<String, Bucket>>,
    rejected: Counter,
}

impl RateLimiter {
    /// A limiter applying `limit` per client id, counting rejections into
    /// `registry` as `serve_rate_limited`.
    pub fn new(limit: RateLimit, registry: &MetricsRegistry) -> Self {
        RateLimiter {
            limit,
            buckets: Mutex::new(HashMap::new()),
            rejected: registry.counter("serve_rate_limited", &[]),
        }
    }

    /// Spend one token for `client`; on refusal returns how long until a
    /// token will be available (the `Retry-After` hint).
    pub fn try_acquire(&self, client: &str) -> Result<(), Duration> {
        self.try_acquire_at(client, Instant::now())
    }

    fn try_acquire_at(&self, client: &str, now: Instant) -> Result<(), Duration> {
        let mut buckets = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        let bucket = buckets.entry(client.to_string()).or_insert(Bucket {
            tokens: self.limit.capacity,
            last: now,
        });
        let elapsed = now.saturating_duration_since(bucket.last).as_secs_f64();
        bucket.tokens =
            (bucket.tokens + elapsed * self.limit.refill_per_sec).min(self.limit.capacity);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            self.rejected.inc();
            let deficit = 1.0 - bucket.tokens;
            Err(Duration::from_secs_f64(deficit / self.limit.refill_per_sec))
        }
    }
}

struct FairState {
    inflight: usize,
    /// Pending tickets per client, FIFO within a client.
    queues: HashMap<String, VecDeque<u64>>,
    /// Round-robin rotation of clients with pending tickets.
    rotation: VecDeque<String>,
    /// Tickets granted a slot but not yet claimed by their waiter.
    granted: HashSet<u64>,
    next_ticket: u64,
}

impl FairState {
    /// Grant slots round-robin while capacity remains.
    fn pump(&mut self, max_inflight: usize) {
        while self.inflight < max_inflight {
            let Some(client) = self.rotation.pop_front() else {
                break;
            };
            let Some(queue) = self.queues.get_mut(&client) else {
                continue;
            };
            let Some(ticket) = queue.pop_front() else {
                self.queues.remove(&client);
                continue;
            };
            if queue.is_empty() {
                self.queues.remove(&client);
            } else {
                self.rotation.push_back(client);
            }
            self.granted.insert(ticket);
            self.inflight += 1;
        }
    }
}

/// Round-robin fair in-flight gate: at most `max_inflight` runs execute at
/// once, and waiting clients are served one request each in rotation.
pub struct FairQueue {
    max_inflight: usize,
    state: Mutex<FairState>,
    available: Condvar,
}

/// An in-flight slot; dropping it releases the slot and wakes the next
/// waiter in rotation.
pub struct FairSlot<'q> {
    queue: &'q FairQueue,
}

impl FairQueue {
    /// A gate admitting at most `max_inflight` concurrent holders.
    pub fn new(max_inflight: usize) -> Self {
        FairQueue {
            max_inflight: max_inflight.max(1),
            state: Mutex::new(FairState {
                inflight: 0,
                queues: HashMap::new(),
                rotation: VecDeque::new(),
                granted: HashSet::new(),
                next_ticket: 0,
            }),
            available: Condvar::new(),
        }
    }

    /// Block until `client` is granted a slot (round-robin across
    /// clients), returning a guard that holds it.
    pub fn acquire(&self, client: &str) -> FairSlot<'_> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        let fresh_client = !state.queues.contains_key(client);
        state
            .queues
            .entry(client.to_string())
            .or_default()
            .push_back(ticket);
        if fresh_client {
            state.rotation.push_back(client.to_string());
        }
        state.pump(self.max_inflight);
        while !state.granted.remove(&ticket) {
            state = self
                .available
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        FairSlot { queue: self }
    }

    /// Holders currently in flight (for tests and gauges).
    pub fn inflight(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .inflight
    }
}

impl Drop for FairSlot<'_> {
    fn drop(&mut self) {
        let mut state = self.queue.state.lock().unwrap_or_else(|e| e.into_inner());
        state.inflight = state.inflight.saturating_sub(1);
        state.pump(self.queue.max_inflight);
        drop(state);
        self.queue.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn bucket_allows_burst_then_refuses() {
        let registry = MetricsRegistry::default();
        let limiter = RateLimiter::new(RateLimit::new(2.0, 1.0), &registry);
        let t0 = Instant::now();
        assert!(limiter.try_acquire_at("a", t0).is_ok());
        assert!(limiter.try_acquire_at("a", t0).is_ok());
        let retry = limiter.try_acquire_at("a", t0).unwrap_err();
        assert!(retry > Duration::ZERO && retry <= Duration::from_secs(1));
        assert_eq!(
            registry.snapshot().counter_value("serve_rate_limited"),
            Some(1)
        );
    }

    #[test]
    fn bucket_refills_over_time() {
        let registry = MetricsRegistry::default();
        let limiter = RateLimiter::new(RateLimit::new(1.0, 10.0), &registry);
        let t0 = Instant::now();
        assert!(limiter.try_acquire_at("a", t0).is_ok());
        assert!(limiter.try_acquire_at("a", t0).is_err());
        // 200 ms at 10 tokens/s = 2 tokens (capped at capacity 1).
        assert!(limiter
            .try_acquire_at("a", t0 + Duration::from_millis(200))
            .is_ok());
    }

    #[test]
    fn buckets_are_per_client() {
        let registry = MetricsRegistry::default();
        let limiter = RateLimiter::new(RateLimit::new(1.0, 0.001), &registry);
        let t0 = Instant::now();
        assert!(limiter.try_acquire_at("a", t0).is_ok());
        assert!(limiter.try_acquire_at("a", t0).is_err());
        assert!(
            limiter.try_acquire_at("b", t0).is_ok(),
            "b has its own bucket"
        );
    }

    #[test]
    fn fair_queue_bounds_inflight() {
        let queue = Arc::new(FairQueue::new(2));
        let peak = Arc::new(AtomicUsize::new(0));
        let current = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for i in 0..8 {
            let queue = Arc::clone(&queue);
            let peak = Arc::clone(&peak);
            let current = Arc::clone(&current);
            handles.push(std::thread::spawn(move || {
                let client = format!("c{}", i % 3);
                let _slot = queue.acquire(&client);
                let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
                current.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "inflight exceeded gate");
        assert_eq!(queue.inflight(), 0);
    }

    #[test]
    fn rotation_alternates_between_clients() {
        // One slot; queue [a, a, b]. Fair rotation must grant a, b, a —
        // client b is not stuck behind a's backlog.
        let queue = Arc::new(FairQueue::new(1));
        let order = Arc::new(Mutex::new(Vec::new()));
        let first = queue.acquire("a");
        let mut handles = Vec::new();
        for client in ["a", "a", "b"] {
            let queue = Arc::clone(&queue);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                let _slot = queue.acquire(client);
                order.lock().unwrap().push(client);
            }));
            // Deterministic enqueue order.
            std::thread::sleep(Duration::from_millis(20));
        }
        drop(first);
        for h in handles {
            h.join().unwrap();
        }
        let order = order.lock().unwrap().clone();
        assert_eq!(order, vec!["a", "b", "a"], "round-robin across clients");
    }
}
