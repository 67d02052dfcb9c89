//! Open-loop load generation against the serve daemon.
//!
//! Arrivals follow a seeded Poisson process and are sent on schedule
//! whether or not earlier requests have completed. A request's latency is
//! counted **from the time it was due**, so the wait a stall imposes on
//! later requests is part of their latency; how late the generator itself
//! ran is reported beside it. Pacing is by `sleep` only: on a 2-core host a
//! spinning generator starves the daemon it measures.

use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Due times of a Poisson process of `rate` arrivals per second over
/// `span`, as offsets from the start. Equal seeds give equal schedules.
pub fn poisson_schedule(seed: u64, rate: f64, span: Duration) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut due = Vec::with_capacity((rate * span.as_secs_f64() * 1.1) as usize + 16);
    let mut at = 0.0f64;
    loop {
        // Exponential gap by inversion; 1 - u is in (0, 1], so ln is finite.
        let u: f64 = rng.random_range(0.0..1.0);
        at += -(1.0 - u).ln() / rate;
        if at >= span.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(at));
    }
}

/// The generator's view of time; tests inject a simulated one.
pub trait Clock {
    /// Time since the schedule's start.
    fn now(&self) -> Duration;
    /// Block until `at` (no-op when already past).
    fn sleep_until(&self, at: Duration);
}

/// Wall clock anchored at an [`Instant`].
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, at: Duration) {
        if let Some(wait) = at.checked_sub(self.now()) {
            std::thread::sleep(wait);
        }
    }
}

/// What happened to one scheduled request.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Position in the schedule.
    pub index: usize,
    /// When it was due.
    pub due: Duration,
    /// When it was actually sent.
    pub sent: Duration,
    /// When the last response byte arrived (or the failure was seen).
    pub done: Duration,
    /// `Err` carries what went wrong: connect or read error, a status other
    /// than 200, or a wrong body.
    pub outcome: Result<(), String>,
}

impl Record {
    /// Latency from the due time: what a user arriving on schedule waited.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// [`Record::latency`] in µs.
    pub fn latency_us(&self) -> f64 {
        self.latency().as_secs_f64() * 1e6
    }
}

/// One connection's send loop: claim the next scheduled request, sleep
/// until it is due, send it, record it. Stops claiming once `end` has
/// passed or the schedule is exhausted; whatever is left unclaimed is the
/// end backlog.
pub fn send_loop<C: Clock>(
    clock: &C,
    due: &[Duration],
    next: &AtomicUsize,
    end: Duration,
    mut send: impl FnMut(usize) -> Result<(), String>,
) -> Vec<Record> {
    let mut records = Vec::new();
    loop {
        if clock.now() >= end {
            return records;
        }
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(&at) = due.get(index) else {
            return records;
        };
        clock.sleep_until(at);
        let sent = clock.now();
        let outcome = send(index);
        records.push(Record {
            index,
            due: at,
            sent,
            done: clock.now(),
            outcome,
        });
    }
}

/// Outcome of one open-loop phase.
#[derive(Clone, Debug, Default)]
pub struct OpenLoopRun {
    /// Every request that was sent, in schedule order.
    pub records: Vec<Record>,
    /// Requests scheduled.
    pub scheduled: usize,
    /// Scheduled requests never sent because the window closed first.
    pub backlog_end: usize,
}

impl OpenLoopRun {
    /// Latency from the due time of every request sent, µs.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.records.iter().map(Record::latency_us).collect()
    }
}

/// Most connections the generator opens at once: `nproc` is 2, and the
/// daemon needs a core.
pub const MAX_CONNECTIONS: usize = 2;

/// Drive `due` (offsets from `start`) against the wall clock over
/// [`MAX_CONNECTIONS`] sender threads until `end`; `send` performs one
/// request.
pub fn run_open_loop(
    start: Instant,
    due: &[Duration],
    end: Duration,
    send: impl Fn(usize) -> Result<(), String> + Sync,
) -> OpenLoopRun {
    let next = AtomicUsize::new(0);
    let clock = WallClock(start);
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let senders: Vec<_> = (0..MAX_CONNECTIONS)
            .map(|_| scope.spawn(|| send_loop(&clock, due, &next, end, &send)))
            .collect();
        senders
            .into_iter()
            .flat_map(|s| s.join().expect("sender thread does not panic"))
            .collect()
    });
    records.sort_by_key(|r| r.index);
    OpenLoopRun {
        scheduled: due.len(),
        backlog_end: due.len() - records.len(),
        records,
    }
}

/// A complete `POST` request for `body`.
pub fn post_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A complete `GET` request.
pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// A response, with the time the TCP connect took.
pub struct Exchange {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Time spent in `connect`.
    pub connect: Duration,
}

#[repr(C)]
struct Linger {
    l_onoff: i32,
    l_linger: i32,
}

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
}

/// `SOL_SOCKET` and `SO_LINGER` on Linux.
const SOL_SOCKET: i32 = 1;
const SO_LINGER: i32 = 13;

/// Make `close` reset the connection instead of lingering. The daemon
/// closes first after every response, which leaves its end in `TIME_WAIT`
/// for a minute; at 2000 connections a second tens of thousands pile up,
/// and the kernel's connection lookup slows with them (measured: `op_p50_us`
/// +23 % with 36 000 left by the runs before). A reset from the client,
/// sent after the response and the daemon's FIN have been read, frees the
/// daemon's end at once, so a run does not depend on the runs before it.
/// (`TcpStream::set_linger` is not stable.)
#[cfg(target_os = "linux")]
fn reset_on_close(stream: &TcpStream) -> std::io::Result<()> {
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the descriptor is open for as long as `stream` is borrowed;
    // `linger` is a live `struct linger` (two C ints on Linux) and the
    // length passed is its size, so the kernel reads only that.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Longest a single exchange may take before it counts as failed, so a dead
/// daemon fails the run instead of hanging it.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(5);

/// One HTTP exchange on a fresh connection (the daemon closes after every
/// response). Every failure is an `Err`, never a panic.
pub fn exchange(addr: SocketAddr, request: &[u8]) -> Result<Exchange, String> {
    let started = Instant::now();
    let mut stream =
        TcpStream::connect_timeout(&addr, EXCHANGE_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let connect = started.elapsed();
    stream
        .set_read_timeout(Some(EXCHANGE_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(EXCHANGE_TIMEOUT)))
        .and_then(|()| reset_on_close(&stream))
        .map_err(|e| format!("socket options: {e}"))?;
    stream
        .write_all(request)
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::with_capacity(4096);
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let raw = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| "response has no header terminator".to_string())?;
    let status = head
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "response has no status".to_string())?;
    Ok(Exchange {
        status,
        body: body.to_string(),
        connect,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Simulated time: sleeping jumps the clock, sending advances it by a
    /// scripted service time.
    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, at: Duration) {
            self.0.set(self.0.get().max(at));
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn poisson_due_times_are_identical_for_equal_seeds() {
        let a = poisson_schedule(42, 2000.0, Duration::from_secs(2));
        let b = poisson_schedule(42, 2000.0, Duration::from_secs(2));
        let c = poisson_schedule(43, 2000.0, Duration::from_secs(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(a.iter().all(|d| *d < Duration::from_secs(2)));
        // 4000 expected arrivals, standard deviation 63.
        assert!((3700..4300).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn latency_is_counted_from_due_time_not_send_time() {
        // Three requests due at 1, 2 and 3 ms; the first takes 5 ms to
        // serve, so the second is sent 4 ms late and the third 4 ms late.
        let due = [MS, 2 * MS, 3 * MS];
        let service = [5 * MS, MS, MS];
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let next = AtomicUsize::new(0);
        let records = send_loop(&clock, &due, &next, Duration::from_secs(1), |i| {
            clock.0.set(clock.0.get() + service[i]);
            Ok(())
        });
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].sent, MS);
        assert_eq!(records[0].latency(), 5 * MS);
        assert_eq!(records[1].sent, 6 * MS);
        assert_eq!(records[1].lateness(), 4 * MS);
        // 1 ms of service, 5 ms of latency: the wait counts.
        assert_eq!(records[1].done - records[1].sent, MS);
        assert_eq!(records[1].latency(), 5 * MS);
        assert_eq!(records[2].lateness(), 4 * MS);
        assert_eq!(records[2].latency(), 5 * MS);
    }

    #[test]
    fn window_end_leaves_a_backlog_and_errors_are_recorded() {
        // Ten requests due every ms, each taking 3 ms, window of 10 ms: a
        // single connection gets three out (sent at 1, 4 and 7 ms) before
        // the window closes.
        let due: Vec<Duration> = (1..=10).map(|i| i * MS).collect();
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let next = AtomicUsize::new(0);
        let records = send_loop(&clock, &due, &next, 10 * MS, |i| {
            clock.0.set(clock.0.get() + 3 * MS);
            if i == 2 {
                Err("status 503".into())
            } else {
                Ok(())
            }
        });
        assert_eq!(records.len(), 3);
        assert_eq!(due.len() - records.len(), 7, "end backlog");
        assert_eq!(records[2].outcome, Err("status 503".to_string()));
        assert_eq!(records.iter().filter(|r| r.outcome.is_err()).count(), 1);
        assert_eq!(records[2].sent, 7 * MS);
        assert_eq!(records[2].lateness(), 4 * MS);
    }

    #[test]
    fn a_dead_daemon_is_an_error_not_a_panic() {
        // Bind, note the port, drop the listener: connects are refused.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("bind an ephemeral port");
        let err = exchange(addr, &get_request("/healthz"))
            .err()
            .expect("refused");
        assert!(err.starts_with("connect:"), "{err}");
        let run = run_open_loop(
            Instant::now(),
            &[MS, 2 * MS],
            Duration::from_secs(1),
            |_| exchange(addr, &get_request("/healthz")).map(|_| ()),
        );
        assert_eq!(run.records.len(), 2);
        assert!(run.records.iter().all(|r| r.outcome.is_err()));
        assert_eq!(run.backlog_end, 0);
    }
}
