//! Runtime graph instantiation and execution (§3.6–3.8).
//!
//! The [`RuntimeContext`] is the paper's runtime deserializer: it takes the
//! flattened graph produced at construction time, recreates all I/O channels
//! from the serialized descriptors, instantiates every kernel through the
//! registry, and connects global inputs/outputs to user-supplied data
//! sources and sinks (specialized coroutines, §3.7). [`RuntimeContext::run`]
//! then runs every coroutine to quiescence under one of two schedulers and
//! returns a [`RunReport`]: the embedded cooperative executor (cgsim), or
//! one OS thread per coroutine under [`Backend::Threaded`] (the paper's
//! x86sim comparison point, §5.2).

use crate::channel::{Channel, ChannelAdmin, ChannelMode, ChannelStats};
use crate::compile::compile_linted;
#[cfg(doc)]
use crate::compile::{compile_for, CompiledPlan};
use crate::executor::{
    block_on, is_permutation, BoundsCheck, BoundsViolation, CancelToken, ExecStats, Executor,
    FaultPlan, Interrupt, LocalBoxFuture, Profiling, Schedule, SchedulePolicy, TaskProfile,
};
use crate::library::{AnyChannel, KernelLibrary, PortBinder};
use crate::probe::{ExecProbe, Introspector};
use crate::spec::{Backend, Launch, RunSpec};
use cgsim_core::schedule::StaticSchedule;
use cgsim_core::{CheckedGraph, ConnectorId, FlatGraph, GraphError, PortDir, StreamData};
use cgsim_lint::lint_checked;
use cgsim_trace::{TraceSnapshot, Tracer};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

// The lint-gate policy lives in `cgsim-lint` (it is shared with `aie-sim`'s
// deployment gate); re-exported here so existing
// `cgsim_runtime::VerifyPolicy` paths keep working.
pub use cgsim_lint::VerifyPolicy;

/// Tunables for a simulation run: plain data inside a [`RunSpec`].
///
/// Marked `#[non_exhaustive]`: set the fields through the [`RunSpec`]
/// builder (or start from [`RuntimeConfig::default`] and assign them), so
/// new tunables stop being breaking changes for downstream crates.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct RuntimeConfig {
    /// Channel capacity (elements) for connectors that do not specify an
    /// explicit `depth` in their merged settings.
    pub default_depth: usize,
    /// Optional bound on total scheduler polls: a safety valve against
    /// kernels that busy-yield forever. `None` = run to quiescence.
    pub max_polls: Option<u64>,
    /// Ready-list policy for the embedded scheduler. The default FIFO is
    /// the paper's deterministic baseline; [`Schedule::Seeded`] replays an
    /// alternative interleaving identified by its seed.
    pub schedule: Schedule,
    /// Optional seeded fault injection (forced stalls / wake reordering).
    pub faults: Option<FaultPlan>,
    /// Ahead-of-run `cgsim-lint` gate on Error diagnostics (deny by
    /// default; see [`VerifyPolicy`]).
    pub verify: VerifyPolicy,
    /// Per-poll timing mode for the embedded scheduler; see [`Profiling`].
    /// Defaults to `Profiling::Sampled(64)`.
    pub profiling: Profiling,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            default_depth: 64,
            max_polls: None,
            schedule: Schedule::Fifo,
            faults: None,
            verify: VerifyPolicy::Deny,
            profiling: Profiling::default(),
        }
    }
}

// Hand-written wire impls: the derive cannot express "absent field means
// the documented default" for a `#[non_exhaustive]` config whose defaults
// are not `Default::default()` of each field type, and starting from
// `RuntimeConfig::default()` keeps old payloads valid as tunables come and
// go (a key no field reads, such as the retired `channels`, is ignored).
mod config_wire {
    use super::RuntimeConfig;
    use serde::{get_field, DeError, Deserialize, Serialize, Value};

    impl Serialize for RuntimeConfig {
        fn to_value(&self) -> Value {
            Value::Object(vec![
                ("default_depth".to_string(), self.default_depth.to_value()),
                ("max_polls".to_string(), self.max_polls.to_value()),
                ("schedule".to_string(), self.schedule.to_value()),
                ("faults".to_string(), self.faults.to_value()),
                ("verify".to_string(), self.verify.to_value()),
                ("profiling".to_string(), self.profiling.to_value()),
            ])
        }
    }

    impl Deserialize for RuntimeConfig {
        fn from_value(v: &Value) -> Result<Self, DeError> {
            let Value::Object(obj) = v else {
                return Err(DeError::expected("object", "RuntimeConfig"));
            };
            let mut cfg = RuntimeConfig::default();
            if let Some(v) = get_field(obj, "default_depth") {
                cfg.default_depth = Deserialize::from_value(v)?;
            }
            if let Some(v) = get_field(obj, "max_polls") {
                cfg.max_polls = Deserialize::from_value(v)?;
            }
            if let Some(v) = get_field(obj, "schedule") {
                cfg.schedule = Deserialize::from_value(v)?;
            }
            if let Some(v) = get_field(obj, "faults") {
                cfg.faults = Deserialize::from_value(v)?;
            }
            if let Some(v) = get_field(obj, "verify") {
                cfg.verify = Deserialize::from_value(v)?;
            }
            if let Some(v) = get_field(obj, "profiling") {
                cfg.profiling = Deserialize::from_value(v)?;
            }
            Ok(cfg)
        }
    }
}

impl RuntimeConfig {
    /// The lint configuration matching this run: undeclared connector depths
    /// resolve to `default_depth`, as the run resolves them — what the lint
    /// gate, the schedule compiler and a plan's capacity analysis share.
    pub fn lint_config(&self) -> cgsim_lint::LintConfig {
        cgsim_lint::LintConfig {
            default_depth: self.default_depth as u32,
            ..cgsim_lint::LintConfig::default()
        }
    }
}

/// Handle to the data collected by a sink coroutine; resolves after
/// [`RuntimeContext::run`] returns.
pub struct SinkHandle<T> {
    data: Arc<Mutex<Vec<T>>>,
}

impl<T> SinkHandle<T> {
    /// An empty sink handle; the context's sink coroutine appends into
    /// [`SinkHandle::shared`].
    pub(crate) fn new() -> Self {
        SinkHandle {
            data: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The shared buffer a sink coroutine appends into.
    pub(crate) fn shared(&self) -> Arc<Mutex<Vec<T>>> {
        Arc::clone(&self.data)
    }

    /// Take the collected output (empties the handle).
    pub fn take(&self) -> Vec<T> {
        std::mem::take(&mut self.data.lock().unwrap())
    }

    /// Number of elements collected so far.
    pub fn len(&self) -> usize {
        self.data.lock().unwrap().len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Result of one graph execution.
///
/// Under [`Backend::Threaded`] the report carries less, because no
/// scheduler sits between the tasks: `tasks[i].busy` is the time task `i`
/// spent inside [`block_on`] on its thread, `exec.total_time` is the wall
/// time of the parallel phase (spawn to last join), every task completes,
/// so `stalled` is empty, and the poll counters and `exec.kernel_time` are
/// 0. `channels`, `elements_moved` and the channel part of `trace` are
/// gathered as under the executor.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Scheduler statistics (poll counts, kernel-time fraction …).
    pub exec: ExecStats,
    /// Kernel instances still suspended at quiescence. Empty for a graph
    /// that drained cleanly; non-empty usually means a deadlock or an
    /// unfed input.
    pub stalled: Vec<String>,
    /// Total elements moved through all connectors.
    pub elements_moved: u64,
    /// Per-coroutine profile (kernels, sources, sinks) — the fine-grained
    /// version of the paper's §5.2 runtime breakdown.
    pub tasks: Vec<crate::executor::TaskProfile>,
    /// Per-connector channel counters `(name, stats)`, in connector order.
    /// Always populated (the counters do not depend on the tracer), so
    /// conformance checks like push/pop conservation work on untraced runs
    /// too.
    pub channels: Vec<(String, ChannelStats)>,
    /// Everything the attached tracer captured (empty for untraced runs).
    pub trace: TraceSnapshot,
    /// Channels whose observed occupancy exceeded the static bound armed
    /// with [`RuntimeContext::set_bounds_check`]. Always empty when no
    /// bounds were armed.
    pub bounds_violations: Vec<BoundsViolation>,
}

impl RunReport {
    /// Whether every coroutine ran to completion.
    pub fn drained(&self) -> bool {
        self.stalled.is_empty()
    }

    /// Why the run stopped early (deadline / cancellation), if it did.
    pub fn interrupted(&self) -> Option<Interrupt> {
        self.exec.interrupted
    }

    /// Per-kernel summary table derived from the trace — the runtime twin
    /// of `aie-sim`'s `SimReport::render`. Empty-ish for untraced runs.
    pub fn summary(&self) -> String {
        cgsim_trace::export::summary::summarize(&self.trace).render()
    }

    /// The captured trace as a Chrome-trace JSON document (load in
    /// `chrome://tracing` or `ui.perfetto.dev`).
    pub fn chrome_trace(&self) -> String {
        cgsim_trace::export::chrome::chrome_trace_json(&self.trace)
    }
}

/// A single execution instance of a compute graph (§3.6) — the one context.
///
/// Its scheduler is the embedded cooperative executor, which either
/// discovers the order at run time (the ready queue under
/// `RuntimeConfig::schedule`) or, for a [`RunSpec`] targeting
/// [`Backend::Compiled`], follows a [`CompiledPlan`] (see
/// [`RuntimeContext::launch`]); or, for [`Backend::Threaded`], one OS
/// thread per task. Validation, the lint
/// gate, channel construction, I/O binding, channel instrumentation and
/// [`RunReport`] assembly are the same code for all of them; deadline,
/// cancel, poll budget, profiling, probe and bounds checks belong to the
/// executor.
pub struct RuntimeContext<'g> {
    graph: CheckedGraph<'g>,
    channels: Vec<AnyChannel>,
    executor: Executor,
    /// `Some` under [`Backend::Threaded`]: the tasks [`RuntimeContext::run`]
    /// gives one OS thread each, in place of the executor.
    threads: Option<Vec<ThreadTask<'g>>>,
    fed_inputs: Vec<bool>,
    bound_outputs: Vec<bool>,
    config: RuntimeConfig,
    /// Kernel firing order of the static schedule this run follows, if any.
    plan_order: Option<Vec<usize>>,
    tracer: Tracer,
    probe: Option<Arc<ExecProbe>>,
    /// Source/sink coroutine I/O for the introspector: `(task id, connector
    /// index, writes)`. Kernel I/O comes from the graph topology instead.
    io_tasks: Vec<(usize, usize, bool)>,
    /// Per-connector static occupancy bounds awaiting arming in `run`
    /// (channels may still be placeholders until every feed/collect ran).
    bounds: Option<Vec<u64>>,
}

/// Bytes each channel of a run that follows a plan may hold: a channel is
/// raised to this many elements, or kept at its built capacity if larger.
const PLAN_CHANNEL_BYTES: usize = 64 << 10;

/// A task of the threads scheduler: its label, and what builds its
/// coroutine — called on the task's own thread, because a
/// [`LocalBoxFuture`] is not `Send`.
type ThreadTask<'g> = (
    String,
    Box<dyn FnOnce() -> Result<LocalBoxFuture, GraphError> + Send + 'g>,
);

/// Channel storage for a scheduler: the executor keeps every endpoint on
/// its one thread, threads need the mutex.
fn storage(threads: bool) -> ChannelMode {
    if threads {
        ChannelMode::Shared
    } else {
        ChannelMode::SingleThread
    }
}

/// `plan`'s kernel firing order as task ids (kernel coroutines are spawned
/// in graph order, so task id == kernel index), checked to name every
/// kernel of `graph` exactly once.
fn plan_order(graph: &FlatGraph, plan: &StaticSchedule) -> Result<Vec<usize>, GraphError> {
    let n = graph.kernels.len();
    let order: Vec<usize> = plan.order.iter().map(|k| k.index()).collect();
    if !is_permutation(&order, n) {
        return Err(GraphError::IdOutOfRange {
            what: "static schedule order",
            index: order.len(),
            len: n,
        });
    }
    Ok(order)
}

impl<'g> RuntimeContext<'g> {
    /// Reconstruct a runnable copy of `graph` (§3.6) under `config`:
    /// [`RuntimeContext::launch`] of a cooperative spec, untraced.
    pub fn new(
        graph: &'g FlatGraph,
        library: &'g KernelLibrary,
        config: RuntimeConfig,
    ) -> Result<Self, GraphError> {
        Self::from_spec(graph, library, &RunSpec::default().with_config(config))
    }

    /// [`RuntimeContext::launch`] with no tracer and no cached plan.
    pub fn from_spec(
        graph: &'g FlatGraph,
        library: &'g KernelLibrary,
        spec: &RunSpec,
    ) -> Result<Self, GraphError> {
        Self::launch(graph, library, spec, Launch::default())
    }

    /// Arm a wall-clock deadline on the embedded scheduler; past it the run
    /// stops with [`Interrupt::Deadline`] in the report.
    pub fn set_deadline(&mut self, at: Instant) {
        self.executor.set_deadline(at);
    }

    /// Attach a cancellation token to the embedded scheduler.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.executor.set_cancel(token);
    }

    /// Arm a live-introspection probe (see [`ExecProbe`]): during
    /// [`RuntimeContext::run`] the scheduler publishes its progress counter
    /// into `probe` and services debug-snapshot requests, reporting channel
    /// occupancies and blocked-kernel waits-for edges under the graph's
    /// connector names. Without a probe the run loop is unchanged.
    pub fn set_probe(&mut self, probe: Arc<ExecProbe>) {
        self.probe = Some(probe);
    }

    /// Install a custom ready-list [`SchedulePolicy`] on the embedded
    /// scheduler, overriding the `RuntimeConfig::schedule` choice (and the
    /// FIFO a plan pins) — the
    /// hook the conformance harness uses to drive adversarial schedules
    /// (e.g. the consumer-starving flood that saturates one channel to its
    /// static occupancy bound).
    pub fn set_schedule_policy(&mut self, policy: Box<dyn SchedulePolicy>) {
        self.executor.set_policy(policy);
    }

    /// Arm opt-in bounds checking: `bounds[ci]` is the static worst-case
    /// occupancy bound (in tokens) for connector `ci`, as computed by
    /// `cgsim-lint`'s `CG060` analysis (`occupancy_bounds` /
    /// `LintReport::bounds`). During [`RuntimeContext::run`] the
    /// scheduler compares every instrumented channel's observed high-water
    /// occupancy against its bound at the existing interrupt checkpoint
    /// (every 64 polls) and once at quiescence; exceedances land in
    /// [`RunReport::bounds_violations`]. Connectors without an entry are
    /// unchecked. Without this call the run loop is unchanged.
    pub fn set_bounds_check(&mut self, bounds: Vec<u64>) {
        self.bounds = Some(bounds);
    }

    /// Reconstruct a runnable copy of `graph` (§3.6) — materialise one
    /// channel per connector and one coroutine per kernel — as `spec` says:
    /// its runtime configuration applies, its deadline budget is armed from
    /// this instant, and its backend picks the scheduler. Every channel and
    /// the scheduler report to `launch.tracer`, so the run's [`RunReport`]
    /// carries a [`TraceSnapshot`] when that tracer is live.
    ///
    /// [`Backend::Threaded`] runs every task on its own OS thread.
    /// [`Backend::Compiled`] follows `launch.plan`, or a plan compiled here
    /// with [`compile_for`]; a spec with a fault plan, or a graph outside
    /// the statically schedulable class, runs plan-less — exactly as
    /// [`Backend::Cooperative`], which ignores `launch.plan`. A plan is
    /// order and capacities for the one executor, and changes three things:
    ///
    /// * **First-poll order**: sources, then kernels in the plan's order,
    ///   then sinks, on the FIFO ready queue — `config.schedule` is not
    ///   consulted.
    /// * **Capacities**: [`RuntimeContext::run`] raises every channel to
    ///   64 KiB of elements (or keeps its built capacity if larger). Traffic
    ///   that fits drains in one poll per coroutine; a longer stream runs in
    ///   rounds, a producer suspending when its channel is full, so channel
    ///   memory stays bounded whatever the feed length.
    /// * **No lint gate**: a plan is the lint verdict (compiling it ran the
    ///   passes), so `config.verify` is not consulted either. When the
    ///   compile here is rejected, the gate reuses its lint report: the
    ///   passes run at most once per launch.
    ///
    /// A plan whose order is not a permutation of `graph`'s kernels is
    /// rejected with [`GraphError::IdOutOfRange`].
    pub fn launch(
        graph: &'g FlatGraph,
        library: &'g KernelLibrary,
        spec: &RunSpec,
        launch: Launch,
    ) -> Result<Self, GraphError> {
        let checked = CheckedGraph::new(graph)?;
        let config = *spec.config();
        let threads = spec.target() == Backend::Threaded;
        let mut lint = None;
        let plan = match spec.target() {
            Backend::Compiled if config.faults.is_none() => launch.plan.or_else(|| {
                let report = lint.insert(lint_checked(&checked, &config.lint_config()));
                compile_linted(&checked, report).ok()
            }),
            _ => None,
        };
        let plan_order = plan.map(|p| plan_order(graph, p.schedule())).transpose()?;

        // Ahead-of-run verification (§ static analysis): refuse graphs the
        // lint passes can prove broken — deadlock, rate imbalance, realm
        // budget overflow — before materialising a single channel.
        if plan_order.is_none() && config.verify != VerifyPolicy::Off {
            let report = lint.unwrap_or_else(|| lint_checked(&checked, &config.lint_config()));
            config.verify.gate(&report, graph)?;
        }

        // Recreate all graph I/O channels from the serialized descriptors.
        // The element type is only known to the kernel implementations, so
        // ask any kernel endpoint of each connector to construct it (the
        // paper's "template functions reconstruct objects of the appropriate
        // type when invoked"). A connector with no kernel endpoint is, by
        // the structural check, both a global input and a global output: it
        // gets a placeholder that the typed `feed`/`collect` calls replace.
        let mut endpoint = vec![None; graph.connectors.len()];
        for (ki, k) in graph.kernels.iter().enumerate() {
            for (pi, p) in k.ports.iter().enumerate() {
                endpoint[p.connector.index()].get_or_insert((ki, pi));
            }
        }
        let mut channels = Vec::with_capacity(graph.connectors.len());
        for (ci, endpoint) in endpoint.into_iter().enumerate() {
            channels.push(match endpoint {
                Some((ki, pi)) => library.get(&graph.kernels[ki].kind)?.make_channel(
                    pi,
                    graph.connectors[ci].depth_or(config.default_depth),
                    storage(threads),
                )?,
                None => AnyChannel::placeholder(),
            });
        }

        let schedule = if plan_order.is_some() {
            Schedule::Fifo
        } else {
            config.schedule
        };
        let mut executor = Executor::new()
            .with_schedule(schedule)
            .with_profiling(config.profiling)
            .with_tracer(launch.tracer.clone());
        if let Some(budget) = config.max_polls {
            executor = executor.with_poll_budget(budget);
        }
        if let Some(plan) = config.faults {
            executor = executor.with_faults(plan);
        }

        let mut ctx = RuntimeContext {
            graph: checked,
            channels,
            executor,
            threads: threads.then(Vec::new),
            fed_inputs: vec![false; graph.inputs.len()],
            bound_outputs: vec![false; graph.outputs.len()],
            config,
            plan_order,
            tracer: launch.tracer,
            probe: None,
            io_tasks: Vec::new(),
            bounds: None,
        };

        // Instantiate all kernels and register their coroutines (suspended)
        // with the scheduler (§3.8 step 1); task id == kernel index.
        for k in &graph.kernels {
            let entry = library.get(&k.kind)?;
            let kernel_channels: Vec<AnyChannel> = k
                .ports
                .iter()
                .map(|p| ctx.channels[p.connector.index()].clone())
                .collect();
            ctx.add_task(k.instance.clone(), move || {
                entry.spawn(&mut PortBinder::new(&k.instance, &kernel_channels))
            })?;
        }
        if let Some(budget) = spec.deadline_budget() {
            ctx.set_deadline(Instant::now() + budget);
        }
        Ok(ctx)
    }

    /// Register a task with the run's scheduler and return its id: the
    /// executor spawns it now, the threads scheduler keeps it for
    /// [`RuntimeContext::run`] to build on the task's own thread.
    fn add_task(
        &mut self,
        label: String,
        build: impl FnOnce() -> Result<LocalBoxFuture, GraphError> + Send + 'g,
    ) -> Result<usize, GraphError> {
        let Some(tasks) = &mut self.threads else {
            return Ok(self.executor.spawn(label, build()?));
        };
        tasks.push((label, Box::new(build)));
        Ok(tasks.len() - 1)
    }

    fn typed_channel<T: StreamData>(
        &mut self,
        connector: ConnectorId,
    ) -> Result<Arc<Channel<T>>, GraphError> {
        let ci = connector.index();
        let slot = &mut self.channels[ci];
        if let Ok(chan) = slot.clone().downcast::<Channel<T>>() {
            return Ok(chan);
        }
        // Placeholder (global passthrough connector): create typed channel
        // if the slot is still the unit placeholder.
        if slot.clone().downcast::<()>().is_ok() {
            let capacity = self.graph.graph().connectors[ci].depth_or(self.config.default_depth);
            let chan = Channel::<T>::with_mode(capacity, storage(self.threads.is_some()));
            *slot = AnyChannel::typed(chan.clone());
            return Ok(chan);
        }
        Err(GraphError::IoTypeMismatch {
            connector,
            expected: Box::new(self.graph.graph().connectors[ci].dtype.clone()),
        })
    }

    /// Attach a data-source coroutine feeding `data` into positional global
    /// input `index` (§3.7).
    pub fn feed<T: StreamData>(
        &mut self,
        index: usize,
        data: impl IntoIterator<Item = T> + 'static,
    ) -> Result<(), GraphError> {
        let Some(&connector) = self.graph.graph().inputs.get(index) else {
            return Err(GraphError::IoArityMismatch {
                what: "inputs",
                expected: self.graph.graph().inputs.len(),
                actual: index + 1,
            });
        };
        let chan = self.typed_channel::<T>(connector)?;
        let mut tx = chan.add_producer();
        self.fed_inputs[index] = true;
        let label = format!("source_{index}");
        // An executor source stays lazy: it pulls at most a channel's free
        // capacity per poll. A source thread takes its stream along, and a
        // stream need not be `Send`, so threads buffer it.
        let id = if self.threads.is_none() {
            let future = Box::pin(async move { tx.push_iter(data.into_iter()).await });
            self.executor.spawn(label, future)
        } else {
            let data: Vec<T> = data.into_iter().collect();
            self.add_task(label, move || {
                Ok(Box::pin(
                    async move { tx.push_iter(data.into_iter()).await },
                ))
            })?
        };
        self.io_tasks.push((id, connector.index(), true));
        Ok(())
    }

    /// Attach a single-value source — the paper's Runtime Parameter source.
    pub fn feed_param<T: StreamData>(&mut self, index: usize, value: T) -> Result<(), GraphError> {
        self.feed(index, std::iter::once(value))
    }

    /// Attach a Runtime Parameter *sink* (§3.7: "the framework also
    /// supports passing scalar values and variables through Runtime
    /// Parameter sources and sinks"): collects the scalar(s) a kernel
    /// writes to an RTP output. The handle holds every update, the last
    /// entry being the parameter's final value.
    pub fn collect_param<T: StreamData>(
        &mut self,
        index: usize,
    ) -> Result<SinkHandle<T>, GraphError> {
        self.collect(index)
    }

    /// Attach a data-sink coroutine collecting positional global output
    /// `index` (§3.7). Results become available after [`Self::run`].
    pub fn collect<T: StreamData>(&mut self, index: usize) -> Result<SinkHandle<T>, GraphError> {
        self.collect_impl(index, None)
    }

    /// Like [`RuntimeContext::collect`], but the sink closes its consumer
    /// end after `limit` elements instead of waiting for end-of-stream —
    /// the "early sink closure" fault mode. Upstream producers observe the
    /// closure (writes to a channel with no remaining open consumers are
    /// discarded), so the graph must still drain cleanly.
    pub fn collect_bounded<T: StreamData>(
        &mut self,
        index: usize,
        limit: usize,
    ) -> Result<SinkHandle<T>, GraphError> {
        self.collect_impl(index, Some(limit))
    }

    fn collect_impl<T: StreamData>(
        &mut self,
        index: usize,
        limit: Option<usize>,
    ) -> Result<SinkHandle<T>, GraphError> {
        let Some(&connector) = self.graph.graph().outputs.get(index) else {
            return Err(GraphError::IoArityMismatch {
                what: "outputs",
                expected: self.graph.graph().outputs.len(),
                actual: index + 1,
            });
        };
        let chan = self.typed_channel::<T>(connector)?;
        let rx = chan.add_consumer();
        self.bound_outputs[index] = true;
        let handle = SinkHandle::new();
        let data = handle.shared();
        let id = self.add_task(format!("sink_{index}"), move || {
            Ok(Box::pin(rx.collect_into(data, limit)))
        })?;
        self.io_tasks.push((id, connector.index(), false));
        Ok(handle)
    }

    /// Start the scheduler and run the graph to quiescence (§3.8). Every
    /// global input must have been fed and every global output bound,
    /// mirroring the paper's positional source/sink arguments. Under
    /// threads, the first kernel whose ports fail to bind is the error.
    pub fn run(mut self) -> Result<RunReport, GraphError> {
        if let Some(missing) = self.fed_inputs.iter().position(|f| !f) {
            return Err(GraphError::IoArityMismatch {
                what: "inputs",
                expected: self.graph.graph().inputs.len(),
                actual: missing,
            });
        }
        if let Some(missing) = self.bound_outputs.iter().position(|f| !f) {
            return Err(GraphError::IoArityMismatch {
                what: "outputs",
                expected: self.graph.graph().outputs.len(),
                actual: missing,
            });
        }
        // Everything below needs the typed channels behind passthrough
        // connectors, which only exist once every feed/collect has run.
        let graph = self.graph.graph();
        let admins: Vec<(usize, String, Arc<dyn ChannelAdmin>)> = (self.channels.iter())
            .enumerate()
            .filter_map(|(ci, ch)| Some((ci, graph.connector_name(ci), Arc::clone(ch.admin()?))))
            .collect();
        let plan_order = self.plan_order.take();
        if plan_order.is_some() {
            // Bounded, so a longer stream runs in rounds (see `launch`).
            // Raising a capacity never adds a deadlock, and Kahn
            // determinism keeps the outputs of this graph class unchanged.
            for (_, _, admin) in &admins {
                admin.raise_capacity_to_bytes(PLAN_CHANNEL_BYTES);
            }
        }
        // Wire every connector's counters and events into the tracer under
        // its graph name (free when untraced) — after the capacities are
        // final, because the tracer records them.
        for (_, name, admin) in &admins {
            admin.instrument(&self.tracer, name);
        }
        let (exec, tasks, bounds_violations) = match self.threads.take() {
            Some(threads) => {
                let (exec, tasks) = run_threads(threads)?;
                (exec, tasks, Vec::new())
            }
            None => self.run_executor(&admins, plan_order),
        };
        let stalled = tasks
            .iter()
            .filter(|t| !t.completed)
            .map(|t| t.label.clone())
            .collect();
        let channels: Vec<(String, ChannelStats)> = admins
            .into_iter()
            .map(|(_, name, admin)| (name, admin.stats()))
            .collect();
        let elements_moved = channels.iter().map(|(_, stats)| stats.pushes).sum();
        Ok(RunReport {
            exec,
            stalled,
            elements_moved,
            tasks,
            channels,
            trace: self.tracer.snapshot(),
            bounds_violations,
        })
    }

    /// The executor's run: start order under a plan, probe and bounds
    /// checks when armed, then the ready-queue loop to quiescence.
    fn run_executor(
        &mut self,
        admins: &[(usize, String, Arc<dyn ChannelAdmin>)],
        plan_order: Option<Vec<usize>>,
    ) -> (ExecStats, Vec<TaskProfile>, Vec<BoundsViolation>) {
        if let Some(order) = plan_order {
            // Kernel coroutines were spawned in graph order: task id == ki.
            let io = |writes| self.io_tasks.iter().filter(move |t| t.2 == writes);
            let start: Vec<usize> = (io(true).map(|t| t.0))
                .chain(order)
                .chain(io(false).map(|t| t.0))
                .collect();
            self.executor.set_start_order(&start);
        }
        if let Some(probe) = self.probe.take() {
            let mut intro = Introspector::new();
            let mut slots: Vec<Option<usize>> = vec![None; self.channels.len()];
            for (ci, name, admin) in admins {
                slots[*ci] =
                    Some(intro.add_channel(name.clone(), admin.capacity(), Arc::clone(admin)));
            }
            // Kernel coroutines were spawned in graph order: task id == ki.
            for (ki, k) in self.graph.graph().kernels.iter().enumerate() {
                for p in &k.ports {
                    if let Some(idx) = slots[p.connector.index()] {
                        match p.dir {
                            PortDir::In => intro.add_reader(ki, idx),
                            PortDir::Out => intro.add_writer(ki, idx),
                        }
                    }
                }
            }
            for &(task, ci, writes) in &self.io_tasks {
                if let Some(idx) = slots[ci] {
                    if writes {
                        intro.add_writer(task, idx);
                    } else {
                        intro.add_reader(task, idx);
                    }
                }
            }
            self.executor.set_introspector(intro);
            self.executor.set_probe(probe);
        }
        if let Some(bounds) = self.bounds.take() {
            let checks: Vec<BoundsCheck> = admins
                .iter()
                .filter_map(|(ci, name, admin)| {
                    Some(BoundsCheck {
                        name: name.clone(),
                        bound: *bounds.get(*ci)?,
                        admin: Arc::clone(admin),
                    })
                })
                .collect();
            self.executor.set_bounds_checks(checks);
        }
        let (exec, tasks) = self.executor.run_profiled();
        (exec, tasks, self.executor.take_bounds_violations())
    }
}

/// The threads scheduler's run: every task on its own scoped OS thread
/// under [`block_on`] — the paper's x86sim model — behind a start barrier,
/// so every kernel has bound its ports before any data flows.
fn run_threads(tasks: Vec<ThreadTask<'_>>) -> Result<(ExecStats, Vec<TaskProfile>), GraphError> {
    let barrier = Barrier::new(tasks.len());
    let started = Instant::now();
    let ran: Vec<(String, Result<Duration, GraphError>)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (tasks.into_iter())
            .map(|(label, build)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let future = build();
                    // Every task reaches the barrier, a failed binding
                    // included, or the others wait for it forever.
                    barrier.wait();
                    let start = Instant::now();
                    let busy = future.map(|f| {
                        block_on(f);
                        start.elapsed()
                    });
                    (label, busy)
                })
            })
            .collect();
        (threads.into_iter())
            .map(|t| {
                t.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let total_time = started.elapsed();
    let tasks = (ran.into_iter())
        .map(|(label, busy)| {
            Ok(TaskProfile {
                label,
                polls: 0,
                busy: busy?,
                completed: true,
            })
        })
        .collect::<Result<Vec<_>, GraphError>>()?;
    let exec = ExecStats {
        tasks: tasks.len(),
        completed: tasks.len(),
        total_time,
        ..ExecStats::default()
    };
    Ok((exec, tasks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute_kernel;
    use cgsim_core::GraphBuilder;

    compute_kernel! {
        /// Adds pairs of values from two input streams (paper Figure 3).
        #[realm(aie)]
        pub fn adder_kernel(
            in1: ReadPort<f32>,
            in2: ReadPort<f32>,
            out: WritePort<f32>,
        ) {
            loop {
                let (Some(a), Some(b)) = (in1.get().await, in2.get().await) else {
                    break;
                };
                out.put(a + b).await;
            }
        }
    }

    compute_kernel! {
        /// Doubles every element.
        #[realm(aie)]
        pub fn doubler_kernel(input: ReadPort<f32>, out: WritePort<f32>) {
            while let Some(v) = input.get().await {
                out.put(v * 2.0).await;
            }
        }
    }

    fn library() -> KernelLibrary {
        KernelLibrary::with(|l| {
            l.register::<adder_kernel>();
            l.register::<doubler_kernel>();
        })
    }

    fn adder_graph() -> FlatGraph {
        GraphBuilder::build("adder", |g| {
            let a = g.input::<f32>("a");
            let b = g.input::<f32>("b");
            let sum = g.wire::<f32>();
            adder_kernel::invoke(g, &a, &b, &sum)?;
            g.output(&sum);
            Ok(())
        })
        .unwrap()
    }

    #[test]
    fn figure3_adder_executes() {
        let graph = adder_graph();
        let lib = library();
        let mut ctx = RuntimeContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
        ctx.feed(0, vec![1.0f32, 2.0, 3.0]).unwrap();
        ctx.feed(1, vec![10.0f32, 20.0, 30.0]).unwrap();
        let out = ctx.collect::<f32>(0).unwrap();
        let report = ctx.run().unwrap();
        assert!(report.drained(), "stalled: {:?}", report.stalled);
        assert_eq!(out.take(), vec![11.0, 22.0, 33.0]);
        assert!(report.elements_moved >= 9);
    }

    #[test]
    fn pipeline_of_two_kernels() {
        let graph = GraphBuilder::build("pipe", |g| {
            let a = g.input::<f32>("a");
            let mid = g.wire::<f32>();
            let out = g.wire::<f32>();
            doubler_kernel::invoke(g, &a, &mid)?;
            doubler_kernel::invoke(g, &mid, &out)?;
            g.output(&out);
            Ok(())
        })
        .unwrap();
        let lib = library();
        let mut ctx = RuntimeContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
        ctx.feed(0, vec![1.0f32, 1.5]).unwrap();
        let out = ctx.collect::<f32>(0).unwrap();
        let report = ctx.run().unwrap();
        assert!(report.drained());
        assert_eq!(out.take(), vec![4.0, 6.0]);
    }

    #[test]
    fn broadcast_feeds_two_kernels() {
        let graph = GraphBuilder::build("bcast", |g| {
            let a = g.input::<f32>("a");
            let x = g.wire::<f32>();
            let y = g.wire::<f32>();
            doubler_kernel::invoke(g, &a, &x)?;
            doubler_kernel::invoke(g, &a, &y)?;
            g.output(&x);
            g.output(&y);
            Ok(())
        })
        .unwrap();
        let lib = library();
        let mut ctx = RuntimeContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
        ctx.feed(0, vec![3.0f32]).unwrap();
        let ox = ctx.collect::<f32>(0).unwrap();
        let oy = ctx.collect::<f32>(1).unwrap();
        let report = ctx.run().unwrap();
        assert!(report.drained());
        assert_eq!(ox.take(), vec![6.0]);
        assert_eq!(oy.take(), vec![6.0]);
    }

    #[test]
    fn unknown_kernel_is_reported() {
        let graph = adder_graph();
        let lib = KernelLibrary::new();
        assert!(matches!(
            RuntimeContext::new(&graph, &lib, RuntimeConfig::default()),
            Err(GraphError::UnknownKernel { .. })
        ));
    }

    #[test]
    fn missing_feed_is_an_error() {
        let graph = adder_graph();
        let lib = library();
        let mut ctx = RuntimeContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
        ctx.feed(0, vec![1.0f32]).unwrap();
        let _out = ctx.collect::<f32>(0).unwrap();
        assert!(matches!(
            ctx.run(),
            Err(GraphError::IoArityMismatch { what: "inputs", .. })
        ));
    }

    #[test]
    fn wrong_feed_type_is_an_error() {
        let graph = adder_graph();
        let lib = library();
        let mut ctx = RuntimeContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
        assert!(matches!(
            ctx.feed(0, vec![1u8]),
            Err(GraphError::IoTypeMismatch { .. })
        ));
    }

    #[test]
    fn feed_out_of_range_is_an_error() {
        let graph = adder_graph();
        let lib = library();
        let mut ctx = RuntimeContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
        assert!(matches!(
            ctx.feed(5, vec![1.0f32]),
            Err(GraphError::IoArityMismatch { .. })
        ));
    }

    #[test]
    fn unfed_kernel_input_stalls_and_is_reported() {
        // Feed only one of the adder's inputs with data, the other with an
        // empty stream: kernel exits cleanly (None). But if we *never* feed
        // it at all, run() refuses. Here we check the stall diagnostic: feed
        // input 1 with an endless-pending trick is not possible via the
        // public API, so instead verify the clean-drain path with an empty
        // second stream.
        let graph = adder_graph();
        let lib = library();
        let mut ctx = RuntimeContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
        ctx.feed(0, vec![1.0f32, 2.0]).unwrap();
        ctx.feed(1, Vec::<f32>::new()).unwrap();
        let out = ctx.collect::<f32>(0).unwrap();
        let report = ctx.run().unwrap();
        assert!(report.drained());
        assert!(out.take().is_empty());
    }

    compute_kernel! {
        /// Counts its input stream and reports the count through an RTP
        /// output (a Runtime Parameter sink consumes it).
        #[realm(aie)]
        pub fn counter_kernel(
            input: ReadPort<f32>,
            count: WritePort<u32> @ cgsim_core::PortSettings::new().runtime_param(),
        ) {
            let mut n = 0u32;
            while input.get().await.is_some() {
                n += 1;
            }
            count.put(n).await;
        }
    }

    #[test]
    fn runtime_parameter_sink_receives_scalar() {
        let graph = GraphBuilder::build("count", |g| {
            let a = g.input::<f32>("a");
            let n = g.wire::<u32>();
            counter_kernel::invoke(g, &a, &n)?;
            g.output(&n);
            Ok(())
        })
        .unwrap();
        // The RTP connector classification comes from the port settings.
        assert_eq!(graph.connectors[1].kind, cgsim_core::PortKind::RuntimeParam);
        let lib = KernelLibrary::with(|l| {
            l.register::<counter_kernel>();
        });
        let mut ctx = RuntimeContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
        ctx.feed(0, vec![0.5f32; 37]).unwrap();
        let param = ctx.collect_param::<u32>(0).unwrap();
        let report = ctx.run().unwrap();
        assert!(report.drained());
        assert_eq!(param.take(), vec![37]);
    }

    #[test]
    fn seeded_schedules_agree_with_fifo() {
        // The same graph+input must produce identical outputs under every
        // schedule permutation — the conformance harness's core property.
        let run = |spec: RunSpec| {
            let graph = adder_graph();
            let lib = library();
            let mut ctx = RuntimeContext::from_spec(&graph, &lib, &spec).unwrap();
            ctx.feed(0, (0..50).map(|i| i as f32).collect::<Vec<_>>())
                .unwrap();
            ctx.feed(1, (0..50).map(|i| (i * 10) as f32).collect::<Vec<_>>())
                .unwrap();
            let out = ctx.collect::<f32>(0).unwrap();
            let report = ctx.run().unwrap();
            assert!(report.drained());
            out.take()
        };
        let reference = run(RunSpec::default());
        for seed in 0..4 {
            assert_eq!(
                run(RunSpec::default().schedule(Schedule::Seeded(seed))),
                reference,
                "seed {seed} diverged"
            );
        }
        let faulty = RunSpec::default()
            .schedule(Schedule::Seeded(1))
            .faults(FaultPlan::new(9, 40));
        assert_eq!(run(faulty), reference, "fault injection changed outputs");
    }

    #[test]
    fn bounded_sink_closes_early_and_graph_drains() {
        let graph = adder_graph();
        let lib = library();
        let mut ctx = RuntimeContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
        ctx.feed(0, (0..100).map(|i| i as f32).collect::<Vec<_>>())
            .unwrap();
        ctx.feed(1, vec![1.0f32; 100]).unwrap();
        let out = ctx.collect_bounded::<f32>(0, 5).unwrap();
        let report = ctx.run().unwrap();
        assert!(report.drained(), "stalled: {:?}", report.stalled);
        assert_eq!(out.take(), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn run_report_exposes_channel_stats() {
        let graph = adder_graph();
        let lib = library();
        let mut ctx = RuntimeContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
        ctx.feed(0, vec![1.0f32, 2.0]).unwrap();
        ctx.feed(1, vec![3.0f32, 4.0]).unwrap();
        let _out = ctx.collect::<f32>(0).unwrap();
        let report = ctx.run().unwrap();
        // a, b, sum — all instrumented, each with 2 pushes and 2 pops.
        assert_eq!(report.channels.len(), 3);
        for (name, stats) in &report.channels {
            assert_eq!(stats.pushes, 2, "channel {name}");
            assert_eq!(stats.pops, 2, "channel {name}");
        }
        assert_eq!(report.channels[0].0, "a");
    }

    #[test]
    fn depth_setting_controls_channel_capacity() {
        // A depth-1 connector forces fine-grained producer/consumer
        // interleaving; the result must still be correct.
        let graph = GraphBuilder::build("tight", |g| {
            let a = g.input::<f32>("a");
            let mid = g.wire::<f32>();
            let out = g.wire::<f32>();
            g.connector_settings(&mid, cgsim_core::PortSettings::new().depth(1));
            doubler_kernel::invoke(g, &a, &mid)?;
            doubler_kernel::invoke(g, &mid, &out)?;
            g.output(&out);
            Ok(())
        })
        .unwrap();
        let lib = library();
        let mut ctx = RuntimeContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
        ctx.feed(0, (0..100).map(|i| i as f32).collect::<Vec<_>>())
            .unwrap();
        let out = ctx.collect::<f32>(0).unwrap();
        let report = ctx.run().unwrap();
        assert!(report.drained());
        let got = out.take();
        assert_eq!(got.len(), 100);
        assert_eq!(got[7], 28.0);
        // Depth-1 queue must have caused producer suspensions.
        assert!(report.exec.suspensions > 0);
    }

    // --- The threads scheduler (`Backend::Threaded`) ---

    compute_kernel! {
        #[realm(aie)]
        pub fn inc_kernel(input: ReadPort<i64>, out: WritePort<i64>) {
            while let Some(v) = input.get().await {
                out.put(v + 1).await;
            }
        }
    }

    fn threaded<'g>(graph: &'g FlatGraph, lib: &'g KernelLibrary) -> RuntimeContext<'g> {
        let spec = RunSpec::for_graph("threads").backend(Backend::Threaded);
        RuntimeContext::from_spec(graph, lib, &spec).unwrap()
    }

    fn inc_library() -> KernelLibrary {
        KernelLibrary::with(|l| {
            l.register::<inc_kernel>();
            l.register::<adder_kernel>();
        })
    }

    fn inc_graph(depth: usize) -> FlatGraph {
        GraphBuilder::build("inc", |g| {
            let mut prev = g.input::<i64>("a");
            for _ in 0..depth {
                let next = g.wire::<i64>();
                inc_kernel::invoke(g, &prev, &next)?;
                prev = next;
            }
            g.output(&prev);
            Ok(())
        })
        .unwrap()
    }

    #[test]
    fn threads_run_a_single_kernel_pipeline() {
        let graph = inc_graph(1);
        let lib = inc_library();
        let mut ctx = threaded(&graph, &lib);
        ctx.feed(0, vec![10i64, 20, 30]).unwrap();
        let out = ctx.collect::<i64>(0).unwrap();
        let report = ctx.run().unwrap();
        assert_eq!(report.tasks.len(), 3); // kernel + source + sink
        assert!(report.drained());
        assert_eq!(out.take(), vec![11, 21, 31]);
        // Channel counters survive the parallel run: both connectors moved
        // 3 elements each way.
        assert_eq!(report.channels.len(), 2);
        for (name, stats) in &report.channels {
            assert_eq!(stats.pushes, 3, "channel {name}");
            assert_eq!(stats.pops, 3, "channel {name}");
        }
    }

    #[test]
    fn threads_run_a_deep_pipeline() {
        const DEPTH: usize = 8;
        let graph = inc_graph(DEPTH);
        let lib = inc_library();
        let mut ctx = threaded(&graph, &lib);
        ctx.feed(0, (0..1000i64).collect::<Vec<_>>()).unwrap();
        let out = ctx.collect::<i64>(0).unwrap();
        let report = ctx.run().unwrap();
        assert_eq!(report.tasks.len(), DEPTH + 2);
        let got = out.take();
        assert_eq!(got.len(), 1000);
        assert!(got
            .iter()
            .enumerate()
            .all(|(i, v)| *v == i as i64 + DEPTH as i64));
    }

    #[test]
    fn threads_broadcast_and_merge() {
        // a → [inc, inc] → merged wire → output. The merge interleaves
        // nondeterministically across threads; only the multiset is fixed.
        let graph = GraphBuilder::build("diamond", |g| {
            let a = g.input::<i64>("a");
            let m = g.wire::<i64>();
            inc_kernel::invoke(g, &a, &m)?;
            inc_kernel::invoke(g, &a, &m)?;
            g.output(&m);
            Ok(())
        })
        .unwrap();
        let lib = inc_library();
        let mut ctx = threaded(&graph, &lib);
        ctx.feed(0, vec![1i64, 2, 3]).unwrap();
        let out = ctx.collect::<i64>(0).unwrap();
        ctx.run().unwrap();
        let mut got = out.take();
        got.sort_unstable();
        assert_eq!(got, vec![2, 2, 3, 3, 4, 4]);
    }

    #[test]
    fn threads_join_two_inputs() {
        let graph = adder_graph();
        let lib = inc_library();
        let mut ctx = threaded(&graph, &lib);
        ctx.feed(0, vec![1.0f32, 2.0, 3.0]).unwrap();
        ctx.feed(1, vec![10.0f32, 20.0, 30.0]).unwrap();
        let out = ctx.collect::<f32>(0).unwrap();
        ctx.run().unwrap();
        assert_eq!(out.take(), vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn threads_reject_missing_io() {
        let graph = inc_graph(1);
        let lib = inc_library();
        let ctx = threaded(&graph, &lib);
        assert!(matches!(ctx.run(), Err(GraphError::IoArityMismatch { .. })));
    }

    #[test]
    fn threads_match_the_executor() {
        let graph = inc_graph(2);
        let lib = inc_library();
        let input: Vec<i64> = (0..500).collect();

        let mut coop = RuntimeContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
        coop.feed(0, input.clone()).unwrap();
        let coop_out = coop.collect::<i64>(0).unwrap();
        coop.run().unwrap();

        let mut thr = threaded(&graph, &lib);
        thr.feed(0, input).unwrap();
        let thr_out = thr.collect::<i64>(0).unwrap();
        thr.run().unwrap();

        assert_eq!(coop_out.take(), thr_out.take());
    }
}
