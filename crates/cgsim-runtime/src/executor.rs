//! Cooperative single-threaded task scheduler (§3.8).
//!
//! The paper simulates concurrently executing kernels through cooperative
//! multitasking: all kernel coroutines run on one shared thread, suspended
//! and resumed by a scheduler embedded in the `RuntimeContext`. Execution
//! proceeds in two steps — create all coroutines in a *suspended* state and
//! register them as pending tasks, then run the scheduling loop until no
//! coroutine can continue (quiescence; there is no explicit termination
//! condition). Finally all remaining coroutines are terminated and their
//! heap state released.
//!
//! This module is the Rust rendition with `Future`s in place of C++20
//! coroutines. Wakers push task ids onto the executor's ready queue; a
//! per-task `scheduled` flag keeps the queue duplicate-free; the run loop
//! polls in FIFO order, which makes simulation deterministic for a fixed
//! graph and input. The queue belongs to the executor's thread and is not
//! synchronised; a `Waker` is `Send + Sync` by type, so a wake from any other
//! thread is sound but takes a side door (see `ReadyQueue`).

use crate::channel::{ChannelAdmin, LocalCell};
use crate::probe::{DebugSnapshot, ExecProbe, Introspector, WaitKind, WaitsForEdge};
use cgsim_trace::{KernelRef, TraceEvent, Tracer};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// A boxed, non-`Send` future — kernels never migrate between threads in the
/// cooperative model, matching the paper's single-thread design.
pub type LocalBoxFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// Strategy choosing which ready task the scheduler polls next.
///
/// The default FIFO order makes a run deterministic for a fixed graph and
/// input; alternative policies permute the ready list to explore other —
/// equally legal — cooperative interleavings. A correct graph must produce
/// the same sink outputs under every policy, which is what the conformance
/// harness (`cgsim-check`) exploits: the seeded policy turns one graph into
/// a family of replayable schedules, one per seed.
pub trait SchedulePolicy {
    /// Index into `ready` (never empty) of the task to poll next.
    fn pick(&mut self, ready: &[usize]) -> usize;
}

/// Strict FIFO — the paper's deterministic baseline schedule.
#[derive(Clone, Copy, Debug, Default)]
pub struct FifoPolicy;

impl SchedulePolicy for FifoPolicy {
    fn pick(&mut self, _ready: &[usize]) -> usize {
        0
    }
}

/// Strict LIFO — depth-first progress; the adversarial mirror of FIFO.
#[derive(Clone, Copy, Debug, Default)]
pub struct LifoPolicy;

impl SchedulePolicy for LifoPolicy {
    fn pick(&mut self, ready: &[usize]) -> usize {
        ready.len() - 1
    }
}

/// splitmix64 — tiny, deterministic, and good enough for schedule
/// permutation. Kept local so the runtime crate stays dependency-free.
#[derive(Clone, Copy, Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`), via Lemire's widening
    /// multiply: `(x * bound) >> 64` maps the full 64-bit range onto the
    /// bound without the low-index skew a simple `%` has for bounds that do
    /// not divide 2^64.
    fn next_below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0, "next_below needs a positive bound");
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as usize
    }
}

/// Seeded uniform-random ready-list permutation. The same seed always
/// replays the same schedule, so a failing interleaving found by fuzzing is
/// reproducible from the printed seed alone.
#[derive(Clone, Copy, Debug)]
pub struct SeededPolicy {
    rng: SplitMix64,
}

impl SeededPolicy {
    /// A policy replaying the schedule identified by `seed`.
    pub fn new(seed: u64) -> Self {
        SeededPolicy {
            rng: SplitMix64(seed),
        }
    }
}

impl SchedulePolicy for SeededPolicy {
    fn pick(&mut self, ready: &[usize]) -> usize {
        self.rng.next_below(ready.len())
    }
}

/// Serializable description of a schedule policy — the plumbing-friendly
/// (`Copy`) form carried by `RuntimeConfig` and printed in repro commands.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Schedule {
    /// Poll the longest-waiting ready task first (deterministic baseline).
    #[default]
    Fifo,
    /// Poll the most recently woken task first.
    Lifo,
    /// Seeded uniform-random permutation of the ready list.
    Seeded(u64),
}

impl Schedule {
    /// Materialise the policy object this description names.
    pub fn into_policy(self) -> Box<dyn SchedulePolicy> {
        match self {
            Schedule::Fifo => Box::new(FifoPolicy),
            Schedule::Lifo => Box::new(LifoPolicy),
            Schedule::Seeded(seed) => Box::new(SeededPolicy::new(seed)),
        }
    }
}

/// Seeded fault-injection plan: before polling the task the policy picked,
/// the executor rolls a PRNG and, with probability `stall_pct`/100, defers
/// the task to the back of the ready list instead. A deferred producer
/// leaves its channels empty longer (forced-empty stall downstream); a
/// deferred consumer leaves them full longer (forced-full stall upstream);
/// either way the wake order is perturbed. Data flow must be unaffected —
/// the conformance harness asserts outputs are bit-identical under any
/// plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FaultPlan {
    /// PRNG seed; the same plan replays the same deferral sequence.
    pub seed: u64,
    /// Deferral probability in percent, clamped to `0..=90` so the loop
    /// always makes progress.
    pub stall_pct: u8,
}

impl FaultPlan {
    /// A plan deferring roughly `stall_pct`% of polls, driven by `seed`.
    pub fn new(seed: u64, stall_pct: u8) -> Self {
        FaultPlan {
            seed,
            stall_pct: stall_pct.min(90),
        }
    }
}

/// Cooperative cancellation token: a cheap, cloneable flag shared between a
/// run and whoever may need to stop it (another thread, a pool supervisor, a
/// signal handler). Cancelling is advisory — the executor notices at its
/// next interrupt checkpoint (every [`INTERRUPT_CHECK_EVERY`] polls) and
/// stops the loop, reporting [`Interrupt::Cancelled`] in [`ExecStats`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Why a run loop stopped before quiescence (deadline or cancellation).
/// Distinct from a poll-budget stop, which reports no interrupt — budget
/// exhaustion is a diagnostic safety valve, these are control-plane events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// The wall-clock deadline installed with [`Executor::set_deadline`]
    /// passed.
    Deadline,
    /// The [`CancelToken`] installed with [`Executor::set_cancel`] fired.
    Cancelled,
}

/// How often (in polls) the run loop checks the deadline and cancel token.
/// A power of two keeps the check one AND + branch on the hot path; the
/// checkpoint never perturbs schedule order, so interruptible runs stay
/// bit-deterministic right up to the interrupt.
pub const INTERRUPT_CHECK_EVERY: u64 = 64;

/// How much per-poll wall-clock timing the run loop performs (§5.2).
///
/// The paper's perf methodology samples the running simulator rather than
/// timestamping every event; `Sampled` is the equivalent here — it times one
/// poll in `n` and extrapolates, keeping `Instant::now()` syscalls off the
/// hot path while `ExecStats::kernel_fraction` stays meaningful. `Full`
/// times every poll (the pre-optimisation behaviour, exact per-task busy
/// times); `Off` removes timing entirely for pure-throughput runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Profiling {
    /// No per-poll timing: `kernel_time` and per-task busy times stay zero.
    Off,
    /// Time one poll in `n` (`n` clamped to ≥ 1) and attribute the measured
    /// duration to all `n`, extrapolating kernel time at 1/n the timing
    /// cost.
    Sampled(u32),
    /// Time every poll — exact, but two `Instant::now()` calls per poll.
    Full,
}

impl Default for Profiling {
    /// One timed poll in 64: cheap enough to leave on, accurate enough for
    /// the §5.2 kernel-fraction analysis.
    fn default() -> Self {
        Profiling::Sampled(64)
    }
}

/// Aggregated scheduling statistics for one run.
///
/// The split between `kernel_time` and everything else is what supports the
/// paper's §5.2 claim that cgsim spends ~99.94 % of its runtime inside the
/// kernel and a negligible share on synchronisation and data transfer.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecStats {
    /// Tasks registered with the scheduler.
    pub tasks: usize,
    /// Tasks that ran to completion (the rest were terminated at quiescence).
    pub completed: usize,
    /// Total number of polls across all tasks.
    pub polls: u64,
    /// Polls that returned `Pending` (i.e. suspensions).
    pub suspensions: u64,
    /// Ready tasks deferred (not polled) by the fault-injection layer.
    pub injected_stalls: u64,
    /// Polls the profiler actually timed: equal to `polls` under
    /// [`Profiling::Full`], roughly `polls / n` under
    /// [`Profiling::Sampled`], and 0 under [`Profiling::Off`].
    pub timed_polls: u64,
    /// Wall-clock time spent inside task polls (kernel work). Under
    /// [`Profiling::Sampled`] this is extrapolated from the timed polls.
    pub kernel_time: Duration,
    /// Total wall-clock time of the run loop.
    pub total_time: Duration,
    /// Set when the loop stopped on a deadline or cancellation instead of
    /// reaching quiescence; `None` for a run that drained (or exhausted its
    /// poll budget).
    pub interrupted: Option<Interrupt>,
}

impl ExecStats {
    /// Fraction of run-loop time spent inside kernels (0..=1). A run that
    /// never entered the loop has done no kernel work, so an empty
    /// `total_time` reports 0.0. Under [`Profiling::Sampled`] the numerator
    /// is extrapolated, so the ratio is clamped to 1.0.
    pub fn kernel_fraction(&self) -> f64 {
        if self.total_time.is_zero() {
            return 0.0;
        }
        (self.kernel_time.as_secs_f64() / self.total_time.as_secs_f64()).min(1.0)
    }
}

/// Per-task profile, labelled with the kernel instance name — the
/// fine-grained version of the paper's §5.2 `perf` analysis.
#[derive(Clone, Debug)]
pub struct TaskProfile {
    /// Task label (kernel instance, `source_N`, `sink_N`).
    pub label: String,
    /// Times this task was polled.
    pub polls: u64,
    /// Wall-clock time spent inside this task's polls.
    pub busy: Duration,
    /// Whether the task ran to completion before quiescence.
    pub completed: bool,
}

/// One armed occupancy assertion: at every interrupt checkpoint the run
/// loop compares the channel's observed high-water occupancy
/// ([`crate::ChannelStats::max_occupancy`]) against the static `CG060`
/// bound and records a [`BoundsViolation`] when the trace exceeds it —
/// the runtime half of the lint pass's soundness contract.
pub struct BoundsCheck {
    /// Channel (connector) display name, for reporting.
    pub name: String,
    /// Static worst-case occupancy bound, in tokens.
    pub bound: u64,
    /// Admin handle of the channel under check.
    pub admin: Arc<dyn ChannelAdmin>,
}

/// A channel whose observed occupancy exceeded its static bound — either
/// the analysis is unsound for this graph or the channel misbehaved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundsViolation {
    /// Channel (connector) display name.
    pub channel: String,
    /// Observed high-water occupancy (tokens).
    pub observed: u64,
    /// The static bound that was exceeded.
    pub bound: u64,
}

/// The ready list. Every wake in a cooperative run comes from a kernel
/// polled by the run loop, on the executor's thread, so that thread owns
/// `local` and pushes and pops it with no lock and no atomic
/// read-modify-write. [`Executor::spawn`] makes the first access, which pins
/// the owner, and `Executor` is `!Send`, so the owner is the thread that
/// runs the loop. A wake from any other thread lands in `inbox` instead,
/// and the run loop adopts the inbox before it pops.
struct ReadyQueue {
    local: LocalCell<VecDeque<usize>>,
    inbox: Mutex<Vec<usize>>,
    /// Whether `inbox` is non-empty; written only under the `inbox` lock.
    /// The run loop checks this flag per pop instead of taking the lock.
    inbox_pending: AtomicBool,
}

impl ReadyQueue {
    fn new() -> Self {
        ReadyQueue {
            local: LocalCell::new(VecDeque::new()),
            inbox: Mutex::new(Vec::new()),
            inbox_pending: AtomicBool::new(false),
        }
    }

    fn inbox(&self) -> std::sync::MutexGuard<'_, Vec<usize>> {
        self.inbox
            .lock()
            .expect("nothing panics while holding the inbox lock")
    }

    /// Queue `id` at the back (a wake, a spawn, or a fault deferral).
    fn push(&self, id: usize) {
        if self.local.try_with(|queue| queue.push_back(id)).is_none() {
            let mut inbox = self.inbox();
            inbox.push(id);
            // Release pairs with the Acquire load in `with_local`: the
            // run loop that sees the flag also sees the entry.
            self.inbox_pending.store(true, Ordering::Release);
        }
    }

    /// Run `f` on the owner's queue, cross-thread wakes adopted first.
    fn with_local<R>(&self, f: impl FnOnce(&mut VecDeque<usize>) -> R) -> R {
        self.local
            .try_with(|queue| {
                if self.inbox_pending.load(Ordering::Acquire) {
                    let mut inbox = self.inbox();
                    self.inbox_pending.store(false, Ordering::Relaxed);
                    queue.extend(inbox.drain(..));
                }
                f(queue)
            })
            .expect("ready queue read off its executor's thread")
    }

    /// O(1) FIFO pop — the fast path when the schedule is strict FIFO, where
    /// consulting a policy (and the `make_contiguous`/`remove` it requires)
    /// is pure overhead.
    fn pop_front(&self) -> Option<usize> {
        self.with_local(VecDeque::pop_front)
    }

    /// Remove and return the entry the policy picks. Only the run loop pops
    /// (wakers only push), so removing at an arbitrary index is safe.
    fn pop_with(&self, policy: &mut dyn SchedulePolicy) -> Option<usize> {
        self.with_local(|queue| {
            if queue.is_empty() {
                return None;
            }
            let idx = policy.pick(queue.make_contiguous());
            // A policy returning an index past the ready list is a bug in the
            // policy; surface it in debug builds rather than silently clamping.
            debug_assert!(
                idx < queue.len(),
                "SchedulePolicy::pick returned out-of-range index {idx} for a ready list of {}",
                queue.len()
            );
            let idx = idx.min(queue.len() - 1);
            queue.remove(idx)
        })
    }

    /// Snapshot of the queued task ids, front first (introspection only).
    fn ids(&self) -> Vec<usize> {
        self.with_local(|queue| queue.iter().copied().collect())
    }
}

struct TaskWaker {
    id: usize,
    ready: Arc<ReadyQueue>,
    scheduled: Arc<AtomicBool>,
    tracer: Tracer,
    kernel: KernelRef,
}

impl std::task::Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.scheduled.swap(true, Ordering::AcqRel) {
            self.tracer.emit(TraceEvent::SchedulerWake {
                kernel: self.kernel,
            });
            self.ready.push(self.id);
        }
    }
}

struct Task {
    future: LocalBoxFuture,
    waker: Waker,
    scheduled: Arc<AtomicBool>,
    /// Human-readable label for diagnostics (kernel instance name).
    label: String,
    /// Stable trace handle registered under `label`.
    kernel: KernelRef,
    polls: u64,
    busy: Duration,
}

/// The cooperative executor. Create, [`spawn`](Executor::spawn) all graph
/// coroutines, then [`run`](Executor::run) to quiescence.
pub struct Executor {
    tasks: Vec<Option<Task>>,
    ready: Arc<ReadyQueue>,
    poll_budget: Option<u64>,
    policy: Box<dyn SchedulePolicy>,
    /// True while the installed schedule is known to be strict FIFO, letting
    /// the run loop use the O(1) `ReadyQueue::pop_front` fast path.
    fifo: bool,
    faults: Option<(SplitMix64, u8)>,
    profiling: Profiling,
    tracer: Tracer,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    probe: Option<Arc<ExecProbe>>,
    introspector: Option<Introspector>,
    bounds_checks: Vec<BoundsCheck>,
    bounds_violations: Vec<BoundsViolation>,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new()
    }
}

impl Executor {
    /// A new executor with no tasks.
    pub fn new() -> Self {
        Executor {
            tasks: Vec::new(),
            ready: Arc::new(ReadyQueue::new()),
            poll_budget: None,
            policy: Box::new(FifoPolicy),
            fifo: true,
            faults: None,
            profiling: Profiling::default(),
            tracer: Tracer::default(),
            deadline: None,
            cancel: None,
            probe: None,
            introspector: None,
            bounds_checks: Vec::new(),
            bounds_violations: Vec::new(),
        }
    }

    /// Attach a tracer: subsequent [`Executor::spawn`] calls register their
    /// label as a kernel, and the run loop emits poll begin/end and
    /// scheduler-wake events. Set this before spawning.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Bound the total number of polls. A kernel that busy-yields forever
    /// (wakes itself without making progress) would otherwise spin the
    /// scheduler indefinitely — the cooperative-multitasking hazard the
    /// paper's model shares; with a budget the run stops and the offender
    /// shows up in the stalled list.
    pub fn with_poll_budget(mut self, budget: u64) -> Self {
        self.poll_budget = Some(budget);
        self
    }

    /// Replace the ready-list policy with the one `schedule` names. A
    /// [`Schedule::Fifo`] schedule keeps the O(1) pop-front fast path.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.fifo = matches!(schedule, Schedule::Fifo);
        self.policy = schedule.into_policy();
        self
    }

    /// Install a custom [`SchedulePolicy`]. The policy only reorders *which*
    /// ready task runs next; it cannot make an unready task run, so every
    /// schedule it produces is a legal cooperative interleaving. Custom
    /// policies always go through the general pick path — use
    /// [`Executor::with_schedule`] with [`Schedule::Fifo`] to get the O(1)
    /// fast path.
    pub fn set_policy(&mut self, policy: Box<dyn SchedulePolicy>) {
        self.fifo = false;
        self.policy = policy;
    }

    /// Select how much per-poll timing the run loop performs; see
    /// [`Profiling`]. Defaults to `Profiling::Sampled(64)`.
    pub fn with_profiling(mut self, profiling: Profiling) -> Self {
        self.profiling = profiling;
        self
    }

    /// Enable seeded fault injection (forced stalls / wake reordering).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some((SplitMix64(plan.seed), plan.stall_pct.min(90)));
        self
    }

    /// Install a wall-clock deadline: the run loop stops at its next
    /// interrupt checkpoint once `at` has passed, reporting
    /// [`Interrupt::Deadline`] and leaving unfinished tasks in the stalled
    /// list.
    pub fn set_deadline(&mut self, at: Instant) {
        self.deadline = Some(at);
    }

    /// Install a cancellation token: when `token` fires, the run loop stops
    /// at its next interrupt checkpoint, reporting [`Interrupt::Cancelled`].
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Arm a live-introspection probe: the run loop publishes its progress
    /// counter into `probe` at every interrupt checkpoint and services
    /// snapshot requests there. With no probe armed the hot loop is
    /// unchanged (one hoisted boolean, zero added atomics).
    pub fn set_probe(&mut self, probe: Arc<ExecProbe>) {
        self.probe = Some(probe);
    }

    /// Attach channel topology so [`Executor::debug_snapshot`] (and probe
    /// snapshots) can report channel occupancy and waits-for edges.
    pub fn set_introspector(&mut self, introspector: Introspector) {
        self.introspector = Some(introspector);
    }

    /// Arm static-bound occupancy assertions: at every interrupt
    /// checkpoint (and once at quiescence) the run loop compares each
    /// channel's high-water occupancy against its bound and records
    /// violations, retrievable with [`Executor::take_bounds_violations`].
    /// With no checks armed the hot loop is unchanged.
    pub fn set_bounds_checks(&mut self, checks: Vec<BoundsCheck>) {
        self.bounds_checks = checks;
    }

    /// Drain the violations the last run recorded (empty when every
    /// observed occupancy stayed within its static bound).
    pub fn take_bounds_violations(&mut self) -> Vec<BoundsViolation> {
        std::mem::take(&mut self.bounds_violations)
    }

    /// Re-derive the violation list from the channels' current high-water
    /// marks. `max_occupancy` is monotone over a run, so recomputing from
    /// scratch at each checkpoint both deduplicates and keeps the final
    /// sweep authoritative.
    fn sweep_bounds(&mut self) {
        self.bounds_violations.clear();
        for check in &self.bounds_checks {
            let observed = check.admin.stats().max_occupancy;
            if observed > check.bound {
                self.bounds_violations.push(BoundsViolation {
                    channel: check.name.clone(),
                    observed,
                    bound: check.bound,
                });
            }
        }
    }

    /// The progress counter's current value: completed tasks plus elements
    /// pushed through introspected channels. Monotone over a run.
    fn progress_value(&self, completed: usize) -> u64 {
        let pushed = self.introspector.as_ref().map_or(0, Introspector::pushes);
        completed as u64 + pushed
    }

    /// Build a [`DebugSnapshot`] of the current scheduler state: ready and
    /// blocked task labels, channel occupancies, and waits-for edges
    /// (blocked reader of an empty channel waits for its live writers; a
    /// blocked writer of a full channel waits for its live readers).
    ///
    /// Must run on the executor's thread — channel occupancy goes through
    /// thread-affine state in the single-thread channel mode. The run loop
    /// calls this at its interrupt checkpoint on a probe's request; tests
    /// and post-mortem diagnostics can call it directly between runs.
    pub fn debug_snapshot(&self) -> DebugSnapshot {
        let completed = self.tasks.iter().filter(|t| t.is_none()).count();
        let polls = self.tasks.iter().flatten().map(|t| t.polls).sum::<u64>();
        self.build_debug_snapshot(polls, self.progress_value(completed), None)
    }

    fn build_debug_snapshot(
        &self,
        polls: u64,
        progress: u64,
        current: Option<usize>,
    ) -> DebugSnapshot {
        let label_of = |id: usize| -> Option<String> {
            self.tasks
                .get(id)
                .and_then(Option::as_ref)
                .map(|t| t.label.clone())
        };
        // Ready = queued ids plus the id popped for this poll round (its
        // `scheduled` flag is still set, it is simply in the loop's hand).
        let mut ready_ids = self.ready.ids();
        if let Some(id) = current {
            ready_ids.insert(0, id);
        }
        let ready: Vec<String> = ready_ids.iter().copied().filter_map(label_of).collect();
        let mut blocked = Vec::new();
        let mut blocked_ids = Vec::new();
        for (id, slot) in self.tasks.iter().enumerate() {
            let Some(task) = slot else { continue };
            if !task.scheduled.load(Ordering::Acquire) {
                blocked.push(task.label.clone());
                blocked_ids.push(id);
            }
        }
        let mut channels = Vec::new();
        let mut waits_for = Vec::new();
        if let Some(intro) = &self.introspector {
            channels = intro.occupancies();
            let live_peers = |ids: &[usize], this: usize| -> Vec<String> {
                ids.iter()
                    .copied()
                    .filter(|&p| p != this)
                    .filter_map(label_of)
                    .collect()
            };
            for &id in &blocked_ids {
                for &ci in intro.reads_of(id) {
                    if channels[ci].occupancy == 0 {
                        waits_for.push(WaitsForEdge {
                            task: label_of(id).unwrap_or_default(),
                            channel: intro.channel_name(ci).to_string(),
                            kind: WaitKind::Empty,
                            peers: live_peers(intro.writers_of(ci), id),
                        });
                    }
                }
                for &ci in intro.writes_of(id) {
                    if channels[ci].capacity > 0 && channels[ci].occupancy >= channels[ci].capacity
                    {
                        waits_for.push(WaitsForEdge {
                            task: label_of(id).unwrap_or_default(),
                            channel: intro.channel_name(ci).to_string(),
                            kind: WaitKind::Full,
                            peers: live_peers(intro.readers_of(ci), id),
                        });
                    }
                }
            }
        }
        DebugSnapshot {
            polls,
            progress,
            ready,
            blocked,
            channels,
            waits_for,
        }
    }

    /// Register a coroutine in the *suspended* state (paper step 1). It will
    /// receive its first poll when the run loop starts.
    pub fn spawn(&mut self, label: impl Into<String>, future: LocalBoxFuture) -> usize {
        let id = self.tasks.len();
        let label = label.into();
        let kernel = self.tracer.register_kernel(&label);
        let scheduled = Arc::new(AtomicBool::new(true)); // pre-queued below
        let waker = Waker::from(Arc::new(TaskWaker {
            id,
            ready: Arc::clone(&self.ready),
            scheduled: Arc::clone(&scheduled),
            tracer: self.tracer.clone(),
            kernel,
        }));
        self.tasks.push(Some(Task {
            future,
            waker,
            scheduled,
            label,
            kernel,
            polls: 0,
            busy: Duration::ZERO,
        }));
        self.ready.push(id);
        id
    }

    /// Replace the order in which the spawned tasks get their first poll
    /// (spawn order by default) — how a static schedule reaches the
    /// ready-queue loop: under FIFO the loop then *is* the schedule's sweep.
    /// Call it after the last spawn and before the run.
    ///
    /// # Panics
    /// If `order` does not name every spawned task exactly once: a task
    /// left out would never be polled, one named twice polled out of turn.
    pub fn set_start_order(&mut self, order: &[usize]) {
        assert!(
            is_permutation(order, self.tasks.len()),
            "start order must be a permutation of the {} spawned tasks",
            self.tasks.len()
        );
        self.ready.with_local(|queue| {
            queue.clear();
            queue.extend(order);
        });
    }

    /// Run the scheduling loop until no task can continue (paper step 2),
    /// then terminate all remaining coroutines. Returns run statistics and
    /// the labels of tasks that were still suspended at quiescence (useful
    /// for diagnosing deadlocked graphs).
    pub fn run(&mut self) -> (ExecStats, Vec<String>) {
        let (stats, profiles) = self.run_profiled();
        let stalled = profiles
            .into_iter()
            .filter(|p| !p.completed)
            .map(|p| p.label)
            .collect();
        (stats, stalled)
    }

    /// Like [`Executor::run`], but also returns a per-task profile (poll
    /// count and busy time per kernel instance) — the fine-grained view of
    /// the paper's §5.2 profiling analysis.
    pub fn run_profiled(&mut self) -> (ExecStats, Vec<TaskProfile>) {
        let started = Instant::now();
        self.tracer.emit(TraceEvent::RunBegin);
        let mut stats = ExecStats {
            tasks: self.tasks.len(),
            ..ExecStats::default()
        };
        let mut profiles: Vec<Option<TaskProfile>> = (0..self.tasks.len()).map(|_| None).collect();
        // Branch-predictable early-outs hoisted off the hot loop: whether
        // the tracer records anything, and how often a poll is timed.
        let trace_on = self.tracer.is_enabled();
        let sample_every: u64 = match self.profiling {
            Profiling::Off => 0,
            Profiling::Sampled(n) => u64::from(n.max(1)),
            Profiling::Full => 1,
        };
        // The histogram key documents its own sampling rate
        // (`poll_ns{sample_every=N}`) so trace consumers can tell sampled
        // data from full data instead of silently under-counting.
        let poll_hist = (trace_on && sample_every > 0).then(|| {
            self.tracer
                .histogram("poll_ns", &[("sample_every", &sample_every.to_string())])
        });
        let interruptible = self.deadline.is_some() || self.cancel.is_some();
        // Hoisted so an un-probed run pays one predictable branch per
        // checkpoint window and touches no new atomics.
        let probe = self.probe.clone();
        let probe_on = probe.is_some();
        let bounds_on = !self.bounds_checks.is_empty();
        loop {
            let next = if self.fifo {
                self.ready.pop_front()
            } else {
                self.ready.pop_with(self.policy.as_mut())
            };
            let Some(id) = next else { break };
            if self.poll_budget.is_some_and(|b| stats.polls >= b) {
                break; // budget exhausted: remaining tasks report as stalled
            }
            // Interrupt checkpoint: amortised over INTERRUPT_CHECK_EVERY
            // polls so the deadline's `Instant::now()` stays off the hot
            // path. The popped task simply does not run — its `scheduled`
            // flag stays set, exactly like a budget-exhaustion break.
            if (interruptible || probe_on || bounds_on)
                && stats.polls.is_multiple_of(INTERRUPT_CHECK_EVERY)
            {
                if interruptible {
                    if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                        stats.interrupted = Some(Interrupt::Cancelled);
                        break;
                    }
                    if self.deadline.is_some_and(|at| Instant::now() >= at) {
                        stats.interrupted = Some(Interrupt::Deadline);
                        break;
                    }
                }
                // Probe service point: publish progress and, on request,
                // build the debug snapshot here on the executor's own
                // thread (channel occupancy is thread-affine).
                if let Some(p) = &probe {
                    let progress = self.progress_value(stats.completed);
                    p.publish(stats.polls, progress);
                    if p.clear_request() {
                        p.publish_snapshot(self.build_debug_snapshot(
                            stats.polls,
                            progress,
                            Some(id),
                        ));
                    }
                }
                if bounds_on {
                    self.sweep_bounds();
                }
            }
            if let Some((rng, pct)) = self.faults.as_mut() {
                // Forced stall: skip this task's turn and send it to the
                // back of the line. Its `scheduled` flag stays set, so it
                // cannot be double-queued by a concurrent wake.
                if *pct > 0 && rng.next_below(100) < *pct as usize {
                    stats.injected_stalls += 1;
                    self.ready.push(id);
                    continue;
                }
            }
            let Some(task) = self.tasks[id].as_mut() else {
                continue; // completed task woken late
            };
            task.scheduled.store(false, Ordering::Release);
            let mut cx = Context::from_waker(&task.waker);
            let timed =
                sample_every == 1 || (sample_every > 1 && stats.polls.is_multiple_of(sample_every));
            stats.polls += 1;
            task.polls += 1;
            let kernel = task.kernel;
            if trace_on {
                self.tracer.emit(TraceEvent::PollBegin { kernel });
            }
            let poll_start = timed.then(Instant::now);
            let result = task.future.as_mut().poll(&mut cx);
            if let Some(start) = poll_start {
                let elapsed = start.elapsed();
                // One timed poll stands for `sample_every` polls: attribute
                // the extrapolated duration so kernel_fraction stays
                // meaningful at a fraction of the timing cost.
                let attributed = elapsed * sample_every as u32;
                stats.timed_polls += 1;
                stats.kernel_time += attributed;
                task.busy += attributed;
                if let Some(hist) = &poll_hist {
                    hist.observe(elapsed.as_nanos() as u64);
                }
            }
            if trace_on {
                self.tracer.emit(TraceEvent::PollEnd {
                    kernel,
                    pending: result.is_pending(),
                });
            }
            match result {
                Poll::Ready(()) => {
                    stats.completed += 1;
                    // Drop the coroutine (and its port handles) immediately —
                    // this is what propagates stream closure downstream.
                    let task = self.tasks[id].take().expect("task present");
                    profiles[id] = Some(TaskProfile {
                        label: task.label,
                        polls: task.polls,
                        busy: task.busy,
                        completed: true,
                    });
                }
                Poll::Pending => {
                    stats.suspensions += 1;
                }
            }
        }
        // Final probe publish (and snapshot service) before the remaining
        // coroutines are torn down, so a watcher that sampled mid-run sees
        // the terminal progress value instead of a stale checkpoint.
        if let Some(p) = &probe {
            let progress = self.progress_value(stats.completed);
            p.publish(stats.polls, progress);
            if p.clear_request() {
                p.publish_snapshot(self.build_debug_snapshot(stats.polls, progress, None));
            }
        }
        // Final bounds sweep: the checkpoint cadence can miss the last
        // polls of a run, but `max_occupancy` is monotone, so one sweep at
        // quiescence sees the true high-water mark.
        if bounds_on {
            self.sweep_bounds();
        }
        // Quiescence: terminate all remaining kernel coroutines and release
        // their context objects (paper §3.8).
        for (id, slot) in self.tasks.iter_mut().enumerate() {
            if let Some(task) = slot.take() {
                profiles[id] = Some(TaskProfile {
                    label: task.label,
                    polls: task.polls,
                    busy: task.busy,
                    completed: false,
                });
            }
        }
        stats.total_time = started.elapsed();
        self.tracer.emit(TraceEvent::RunEnd);
        (stats, profiles.into_iter().flatten().collect())
    }
}

/// Whether `order` names each of `0..n` exactly once.
pub(crate) fn is_permutation(order: &[usize], n: usize) -> bool {
    let mut seen = vec![false; n];
    order.len() == n
        && order
            .iter()
            .all(|&id| id < n && !std::mem::replace(&mut seen[id], true))
}

/// Drive a single future to completion on the current thread, parking the
/// thread while the future is suspended.
///
/// The threads scheduler of `RuntimeContext` (`Backend::Threaded`, the
/// paper's x86sim comparison point) runs each kernel, source and sink
/// coroutine under `block_on` on a dedicated OS thread; channel wakers then
/// unpark the right thread.
pub fn block_on<F: Future>(future: F) -> F::Output {
    struct ThreadWaker {
        thread: std::thread::Thread,
        notified: AtomicBool,
    }
    impl std::task::Wake for ThreadWaker {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }
        fn wake_by_ref(self: &Arc<Self>) {
            if !self.notified.swap(true, Ordering::AcqRel) {
                self.thread.unpark();
            }
        }
    }

    let mut future = std::pin::pin!(future);
    let thread_waker = Arc::new(ThreadWaker {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&thread_waker));
    let mut cx = Context::from_waker(&waker);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => {
                while !thread_waker.notified.swap(false, Ordering::AcqRel) {
                    std::thread::park();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A future that suspends `n` times before completing, re-waking itself.
    struct YieldN {
        remaining: u32,
    }
    impl Future for YieldN {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.remaining == 0 {
                Poll::Ready(())
            } else {
                self.remaining -= 1;
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
    }

    #[test]
    fn block_on_simple_value() {
        assert_eq!(block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn block_on_with_yields() {
        block_on(async {
            YieldN { remaining: 5 }.await;
        });
    }

    #[test]
    fn executor_runs_all_tasks_to_completion() {
        let counter = Rc::new(Cell::new(0));
        let mut ex = Executor::new();
        for _ in 0..10 {
            let c = Rc::clone(&counter);
            ex.spawn(
                "t",
                Box::pin(async move {
                    YieldN { remaining: 3 }.await;
                    c.set(c.get() + 1);
                }),
            );
        }
        let (stats, stalled) = ex.run();
        assert_eq!(counter.get(), 10);
        assert_eq!(stats.tasks, 10);
        assert_eq!(stats.completed, 10);
        assert!(stalled.is_empty());
        // Each task suspends 3 times and is polled 4 times in total.
        assert_eq!(stats.suspensions, 30);
        assert_eq!(stats.polls, 40);
    }

    #[test]
    fn quiescence_reports_stalled_tasks() {
        /// Never completes and never re-wakes: a deadlocked kernel.
        struct Stuck;
        impl Future for Stuck {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
                Poll::Pending
            }
        }
        let mut ex = Executor::new();
        ex.spawn("done", Box::pin(async {}));
        ex.spawn("stuck_kernel", Box::pin(Stuck));
        let (stats, stalled) = ex.run();
        assert_eq!(stats.completed, 1);
        assert_eq!(stalled, vec!["stuck_kernel".to_string()]);
    }

    #[test]
    fn tasks_interleave_cooperatively() {
        // Two tasks alternately appending to a log must interleave, proving
        // suspension actually yields control.
        let log = Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut ex = Executor::new();
        for name in ["a", "b"] {
            let log = Rc::clone(&log);
            ex.spawn(
                name,
                Box::pin(async move {
                    for i in 0..3 {
                        log.borrow_mut().push(format!("{name}{i}"));
                        YieldN { remaining: 1 }.await;
                    }
                }),
            );
        }
        ex.run();
        let log = log.borrow();
        // FIFO scheduling gives strict alternation.
        assert_eq!(
            *log,
            vec!["a0", "b0", "a1", "b1", "a2", "b2"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
        );
    }

    /// Run two 3-iteration yielders under `schedule` and return the
    /// interleaving log.
    fn interleaving_of(schedule: Schedule) -> Vec<String> {
        let log = Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut ex = Executor::new().with_schedule(schedule);
        for name in ["a", "b"] {
            let log = Rc::clone(&log);
            ex.spawn(
                name,
                Box::pin(async move {
                    for i in 0..3 {
                        log.borrow_mut().push(format!("{name}{i}"));
                        YieldN { remaining: 1 }.await;
                    }
                }),
            );
        }
        ex.run();
        let log = log.borrow();
        log.clone()
    }

    #[test]
    fn lifo_policy_runs_depth_first() {
        // Each yield re-queues the task at the back, but LIFO picks the
        // back: the first task runs to completion before the second starts.
        assert_eq!(
            interleaving_of(Schedule::Lifo),
            vec!["b0", "b1", "b2", "a0", "a1", "a2"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn seeded_schedule_is_replayable_and_varied() {
        let runs: Vec<Vec<String>> = (0..8)
            .map(|s| interleaving_of(Schedule::Seeded(s)))
            .collect();
        for (seed, first) in runs.iter().enumerate() {
            // Same seed → identical schedule.
            assert_eq!(
                *first,
                interleaving_of(Schedule::Seeded(seed as u64)),
                "seed {seed} did not replay"
            );
            // Every schedule preserves per-task program order.
            for name in ["a", "b"] {
                let steps: Vec<&String> = first.iter().filter(|e| e.starts_with(name)).collect();
                assert_eq!(steps.len(), 3);
                assert!(steps.windows(2).all(|w| w[0] < w[1]));
            }
        }
        // Across 8 seeds at least two distinct interleavings must appear.
        assert!(
            runs.iter().any(|r| *r != runs[0]),
            "all seeds produced the same schedule"
        );
    }

    #[test]
    fn fault_injection_defers_but_never_drops_work() {
        let counter = Rc::new(Cell::new(0));
        let mut ex = Executor::new()
            .with_schedule(Schedule::Seeded(7))
            .with_faults(FaultPlan::new(7, 50));
        for _ in 0..8 {
            let c = Rc::clone(&counter);
            ex.spawn(
                "t",
                Box::pin(async move {
                    YieldN { remaining: 4 }.await;
                    c.set(c.get() + 1);
                }),
            );
        }
        let (stats, stalled) = ex.run();
        assert_eq!(counter.get(), 8);
        assert!(stalled.is_empty());
        assert!(stats.injected_stalls > 0, "plan with 50% never fired");
        // Deferrals are not polls.
        assert_eq!(stats.polls, 8 * 5);
    }

    #[test]
    fn kernel_fraction_is_bounded() {
        let mut ex = Executor::new();
        ex.spawn("t", Box::pin(async {}));
        let (stats, _) = ex.run();
        let f = stats.kernel_fraction();
        assert!((0.0..=1.0).contains(&f), "fraction {f} out of range");
    }

    #[test]
    fn kernel_fraction_of_empty_run_is_zero() {
        // A run that did no work must not claim 100% kernel occupancy.
        let stats = ExecStats::default();
        assert!(stats.total_time.is_zero());
        assert_eq!(stats.kernel_fraction(), 0.0);
    }

    #[test]
    fn poll_budget_stops_spinning_kernels() {
        /// Busy-yields forever — the pathological kernel a cooperative
        /// scheduler cannot preempt.
        struct Spinner;
        impl Future for Spinner {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
        let mut ex = Executor::new().with_poll_budget(100);
        ex.spawn("spinner", Box::pin(Spinner));
        ex.spawn("fine", Box::pin(async {}));
        let (stats, stalled) = ex.run();
        assert!(stats.polls <= 100);
        assert!(stalled.contains(&"spinner".to_string()));
        // The well-behaved task may or may not have completed depending on
        // interleaving, but the run terminated — that is the guarantee.
    }

    /// Busy-yields forever — reused by the interrupt tests below.
    struct Spinner2;
    impl Future for Spinner2 {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }

    #[test]
    fn expired_deadline_interrupts_a_spinning_run() {
        let mut ex = Executor::new();
        ex.set_deadline(Instant::now() + Duration::from_millis(5));
        ex.spawn("spinner", Box::pin(Spinner2));
        let (stats, stalled) = ex.run();
        assert_eq!(stats.interrupted, Some(Interrupt::Deadline));
        assert_eq!(stalled, vec!["spinner".to_string()]);
    }

    #[test]
    fn cancel_token_interrupts_a_spinning_run() {
        let token = CancelToken::new();
        token.cancel();
        let mut ex = Executor::new();
        ex.set_cancel(token);
        ex.spawn("spinner", Box::pin(Spinner2));
        let (stats, stalled) = ex.run();
        assert_eq!(stats.interrupted, Some(Interrupt::Cancelled));
        assert_eq!(stalled, vec!["spinner".to_string()]);
    }

    #[test]
    fn uninterrupted_run_reports_no_interrupt() {
        let token = CancelToken::new();
        let mut ex = Executor::new();
        ex.set_cancel(token.clone());
        ex.set_deadline(Instant::now() + Duration::from_secs(3600));
        ex.spawn(
            "t",
            Box::pin(async {
                YieldN { remaining: 3 }.await;
            }),
        );
        let (stats, stalled) = ex.run();
        assert_eq!(stats.interrupted, None);
        assert!(stalled.is_empty());
        assert!(!token.is_cancelled());
    }

    #[test]
    fn interrupt_checkpoint_preserves_schedule_determinism() {
        // Installing a far-future deadline must not change the poll order.
        let without = interleaving_of(Schedule::Fifo);
        let log = Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut ex = Executor::new();
        ex.set_deadline(Instant::now() + Duration::from_secs(3600));
        for name in ["a", "b"] {
            let log = Rc::clone(&log);
            ex.spawn(
                name,
                Box::pin(async move {
                    for i in 0..3 {
                        log.borrow_mut().push(format!("{name}{i}"));
                        YieldN { remaining: 1 }.await;
                    }
                }),
            );
        }
        ex.run();
        assert_eq!(without, *log.borrow());
    }

    #[test]
    fn traced_run_emits_poll_and_wake_events() {
        let tracer = Tracer::ring(1024);
        let mut ex = Executor::new().with_tracer(tracer.clone());
        ex.spawn(
            "yielder",
            Box::pin(async {
                YieldN { remaining: 2 }.await;
            }),
        );
        let (stats, _) = ex.run();
        assert_eq!(stats.polls, 3);
        let snap = tracer.snapshot();
        assert_eq!(snap.kernels, vec!["yielder"]);
        let kinds: Vec<&str> = snap.records.iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds.iter().filter(|k| **k == "poll_begin").count(), 3);
        assert_eq!(kinds.iter().filter(|k| **k == "poll_end").count(), 3);
        // Self-wakes from YieldN surface as scheduler wakes.
        assert_eq!(kinds.iter().filter(|k| **k == "scheduler_wake").count(), 2);
        assert_eq!(kinds.first(), Some(&"run_begin"));
        assert_eq!(kinds.last(), Some(&"run_end"));
        // The final poll completes: its PollEnd must say not-pending.
        let last_poll = snap
            .records
            .iter()
            .rev()
            .find_map(|r| match r.event {
                TraceEvent::PollEnd { pending, .. } => Some(pending),
                _ => None,
            })
            .unwrap();
        assert!(!last_poll);
    }

    #[test]
    fn wake_dedup_prevents_duplicate_queue_entries() {
        /// Wakes itself several times per poll; must still complete exactly
        /// once and not be polled once per wake call.
        struct NoisyWake {
            polls: Rc<Cell<u32>>,
        }
        impl Future for NoisyWake {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                let n = self.polls.get() + 1;
                self.polls.set(n);
                if n >= 3 {
                    Poll::Ready(())
                } else {
                    cx.waker().wake_by_ref();
                    cx.waker().wake_by_ref();
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
            }
        }
        let polls = Rc::new(Cell::new(0));
        let mut ex = Executor::new();
        ex.spawn(
            "noisy",
            Box::pin(NoisyWake {
                polls: Rc::clone(&polls),
            }),
        );
        let (stats, _) = ex.run();
        assert_eq!(polls.get(), 3);
        assert_eq!(stats.polls, 3);
    }

    #[test]
    fn wake_from_another_thread_is_adopted_exactly_once() {
        /// Never completes. Its first poll wakes it twice through `remote`
        /// or in place; later polls wake nobody, so every queue entry a
        /// wake left behind shows up as one more poll.
        struct WokenOnce {
            remote: bool,
            polls: Rc<Cell<u32>>,
        }
        impl Future for WokenOnce {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                self.polls.set(self.polls.get() + 1);
                if self.polls.get() == 1 {
                    let waker = cx.waker().clone();
                    let wake_twice = move || {
                        waker.wake_by_ref();
                        waker.wake();
                    };
                    if self.remote {
                        // Joined inside the poll: the entry is in the inbox
                        // before the loop pops again.
                        std::thread::spawn(wake_twice).join().unwrap();
                    } else {
                        wake_twice();
                    }
                }
                Poll::Pending
            }
        }
        let run = |remote: bool| {
            let polls = Rc::new(Cell::new(0));
            let mut ex = Executor::new();
            ex.spawn(
                "woken",
                Box::pin(WokenOnce {
                    remote,
                    polls: Rc::clone(&polls),
                }),
            );
            ex.spawn(
                "bystander",
                Box::pin(async {
                    YieldN { remaining: 3 }.await;
                }),
            );
            let (stats, stalled) = ex.run();
            assert_eq!(stalled, vec!["woken".to_string()]);
            assert_eq!(polls.get(), 2, "remote = {remote}");
            stats
        };
        let (local, remote) = (run(false), run(true));
        assert_eq!(remote.polls, local.polls);
        assert_eq!(remote.suspensions, local.suspensions);
        assert_eq!(remote.completed, 1);
    }

    #[test]
    #[cfg_attr(miri, ignore = "130 000 PRNG draws and no unsafe code behind them")]
    fn seeded_next_below_has_no_gross_bias() {
        // 13 does not divide 2^64, so the old `%`-based mapping skewed low
        // buckets; the widening multiply must keep every bucket within a
        // loose ±10% of uniform.
        let bound = 13usize;
        let draws = 130_000u32;
        let mut rng = SplitMix64(0xDEC0DE);
        let mut counts = vec![0u32; bound];
        for _ in 0..draws {
            let v = rng.next_below(bound);
            assert!(v < bound, "next_below escaped its bound: {v}");
            counts[v] += 1;
        }
        let mean = (draws as usize / bound) as i64;
        for (bucket, &count) in counts.iter().enumerate() {
            let deviation = (count as i64 - mean).abs();
            assert!(
                deviation < mean / 10,
                "bucket {bucket} count {count} deviates more than 10% from {mean}"
            );
        }
    }

    /// A policy with an off-by-N bug: always picks past the ready list.
    struct WildPolicy;
    impl SchedulePolicy for WildPolicy {
        fn pick(&mut self, ready: &[usize]) -> usize {
            ready.len() + 3
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out-of-range")]
    fn out_of_range_policy_pick_panics_in_debug() {
        let mut ex = Executor::new();
        ex.set_policy(Box::new(WildPolicy));
        ex.spawn("a", Box::pin(async {}));
        ex.spawn("b", Box::pin(async {}));
        ex.run();
    }

    #[test]
    fn profiling_off_does_no_timing() {
        let mut ex = Executor::new().with_profiling(Profiling::Off);
        for _ in 0..4 {
            ex.spawn(
                "t",
                Box::pin(async {
                    YieldN { remaining: 3 }.await;
                }),
            );
        }
        let (stats, _) = ex.run();
        assert_eq!(stats.polls, 16);
        assert_eq!(stats.timed_polls, 0);
        assert_eq!(stats.kernel_time, Duration::ZERO);
        // total_time is still measured (two Instant calls per *run*, not per
        // poll), so the fraction is well-defined and zero.
        assert_eq!(stats.kernel_fraction(), 0.0);
    }

    #[test]
    fn profiling_sampled_times_one_poll_in_n() {
        let mut ex = Executor::new().with_profiling(Profiling::Sampled(4));
        for _ in 0..10 {
            ex.spawn(
                "t",
                Box::pin(async {
                    YieldN { remaining: 3 }.await;
                }),
            );
        }
        let (stats, profiles) = ex.run_profiled();
        assert_eq!(stats.polls, 40);
        assert_eq!(stats.timed_polls, 10); // polls 0, 4, 8, ... 36
        let f = stats.kernel_fraction();
        assert!((0.0..=1.0).contains(&f), "fraction {f} out of range");
        assert_eq!(profiles.len(), 10);
    }

    #[test]
    fn profiling_full_times_every_poll() {
        let mut ex = Executor::new().with_profiling(Profiling::Full);
        ex.spawn(
            "t",
            Box::pin(async {
                YieldN { remaining: 5 }.await;
            }),
        );
        let (stats, _) = ex.run();
        assert_eq!(stats.polls, 6);
        assert_eq!(stats.timed_polls, 6);
    }

    #[test]
    fn sampled_zero_is_clamped_to_full() {
        let mut ex = Executor::new().with_profiling(Profiling::Sampled(0));
        ex.spawn("t", Box::pin(async {}));
        let (stats, _) = ex.run();
        assert_eq!(stats.timed_polls, stats.polls);
    }

    #[test]
    fn probe_publishes_progress_and_serves_snapshot_requests() {
        let probe = ExecProbe::new();
        let mut ex = Executor::new().with_poll_budget(500);
        ex.set_probe(Arc::clone(&probe));
        ex.spawn("spinner", Box::pin(Spinner2));
        ex.spawn(
            "worker",
            Box::pin(async {
                YieldN { remaining: 3 }.await;
            }),
        );
        // Requested before the run: the loop's first checkpoint (poll 0)
        // services it on the executor thread.
        probe.request_snapshot();
        let (stats, _) = ex.run();
        assert!(stats.polls > 0);
        assert_eq!(probe.polls(), stats.polls);
        // Progress = completed tasks (no channels introspected here).
        assert_eq!(probe.progress(), stats.completed as u64);
        let snap = probe.take_snapshot().unwrap();
        // At poll 0 both tasks were pre-queued: ready, none blocked.
        assert!(snap.ready.contains(&"spinner".to_string()));
        assert!(snap.ready.contains(&"worker".to_string()));
        assert!(snap.blocked.is_empty());
    }

    #[test]
    fn debug_snapshot_names_waits_for_cycle_on_wedged_channel_graph() {
        use crate::channel::{Channel, ChannelAdmin};
        use crate::probe::Introspector;

        // Two kernels in an unprimed capacity-1 cycle: a reads w1/writes w2,
        // b reads w2/writes w1. Neither channel ever holds data, so both
        // block on their first read — the runtime shape of lint code CG020.
        let w1 = Channel::<i64>::new(1);
        let w2 = Channel::<i64>::new(1);
        let probe = ExecProbe::new();
        let mut ex = Executor::new();
        ex.set_probe(Arc::clone(&probe));

        let mut rx1 = w1.add_consumer();
        let mut tx2 = w2.add_producer();
        ex.spawn(
            "a",
            Box::pin(async move {
                while let Some(v) = rx1.recv().await {
                    tx2.send(v).await;
                }
            }),
        );
        let mut rx2 = w2.add_consumer();
        let mut tx1 = w1.add_producer();
        ex.spawn(
            "b",
            Box::pin(async move {
                while let Some(v) = rx2.recv().await {
                    tx1.send(v).await;
                }
            }),
        );
        // A third task that requests the snapshot once the cycle tasks have
        // had time to block, then lets the run quiesce; the executor's final
        // publish services the request while the wedged tasks still exist.
        let p2 = Arc::clone(&probe);
        ex.spawn(
            "requester",
            Box::pin(async move {
                YieldN { remaining: 8 }.await;
                p2.request_snapshot();
            }),
        );

        let mut intro = Introspector::new();
        let c1 = intro.add_channel("w1", 1, Arc::clone(&w1) as Arc<dyn ChannelAdmin>);
        let c2 = intro.add_channel("w2", 1, Arc::clone(&w2) as Arc<dyn ChannelAdmin>);
        intro.add_reader(0, c1);
        intro.add_writer(0, c2);
        intro.add_reader(1, c2);
        intro.add_writer(1, c1);
        ex.set_introspector(intro);

        let (_, stalled) = ex.run();
        assert!(stalled.contains(&"a".to_string()));
        assert!(stalled.contains(&"b".to_string()));

        let snap = probe.take_snapshot().unwrap();
        assert!(snap.blocked.contains(&"a".to_string()));
        assert!(snap.blocked.contains(&"b".to_string()));
        assert_eq!(snap.channels.len(), 2);
        assert!(snap.channels.iter().all(|c| c.occupancy == 0));
        // a waits on empty w1 (writer: b); b waits on empty w2 (writer: a).
        assert!(snap
            .waits_for
            .iter()
            .any(|e| e.task == "a" && e.channel == "w1" && e.peers == vec!["b".to_string()]));
        let cycle = snap.waits_for_cycle().expect("cycle detected");
        assert!(cycle.contains(&"a".to_string()) && cycle.contains(&"b".to_string()));
    }

    #[test]
    fn probe_checkpoint_preserves_schedule_determinism() {
        // Arming a probe must not change the poll order — the service point
        // piggybacks on the existing checkpoint and never defers tasks.
        let without = interleaving_of(Schedule::Fifo);
        let log = Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut ex = Executor::new();
        ex.set_probe(ExecProbe::new());
        for name in ["a", "b"] {
            let log = Rc::clone(&log);
            ex.spawn(
                name,
                Box::pin(async move {
                    for i in 0..3 {
                        log.borrow_mut().push(format!("{name}{i}"));
                        YieldN { remaining: 1 }.await;
                    }
                }),
            );
        }
        ex.run();
        assert_eq!(without, *log.borrow());
    }

    #[test]
    fn profiling_off_with_probe_still_does_no_timing() {
        // The overhead pin: observer plumbing must not re-introduce timing
        // syscalls or per-poll metrics under Profiling::Off.
        let probe = ExecProbe::new();
        let mut ex = Executor::new().with_profiling(Profiling::Off);
        ex.set_probe(Arc::clone(&probe));
        for _ in 0..4 {
            ex.spawn(
                "t",
                Box::pin(async {
                    YieldN { remaining: 3 }.await;
                }),
            );
        }
        let (stats, _) = ex.run();
        assert_eq!(stats.timed_polls, 0);
        assert_eq!(stats.kernel_time, Duration::ZERO);
        assert_eq!(probe.progress(), 4);
    }

    #[test]
    fn fifo_fast_path_matches_policy_fifo_order() {
        // The O(1) pop_front fast path and the general FifoPolicy pick path
        // must produce the same schedule.
        let fast = interleaving_of(Schedule::Fifo);
        let log = Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut ex = Executor::new();
        ex.set_policy(Box::new(FifoPolicy));
        for name in ["a", "b"] {
            let log = Rc::clone(&log);
            ex.spawn(
                name,
                Box::pin(async move {
                    for i in 0..3 {
                        log.borrow_mut().push(format!("{name}{i}"));
                        YieldN { remaining: 1 }.await;
                    }
                }),
            );
        }
        ex.run();
        assert_eq!(fast, *log.borrow());
    }
}
