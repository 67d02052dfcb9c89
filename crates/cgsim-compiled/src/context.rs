//! The compiled executor: plan instantiation and fixed-order execution.

use crate::compiler::{compile, CompileError, CompiledPlan, RejectReason};
use cgsim_core::{ConnectorId, DTypeDesc, FlatGraph, GraphError, StreamData};
use cgsim_runtime::channel::{Channel, ChannelMode};
use cgsim_runtime::executor::{
    CancelToken, ExecStats, Interrupt, LocalBoxFuture, Profiling, TaskProfile,
};
use cgsim_runtime::library::{AnyChannel, KernelLibrary, PortBinder};
use cgsim_runtime::spec::RunSpec;
use cgsim_runtime::{RunReport, RuntimeConfig, SinkHandle};
use cgsim_trace::{KernelRef, TraceEvent, Tracer};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// Display name for connector `ci` (same convention as the cooperative
/// context): the builder-given name when present, else positional `c{ci}`.
fn connector_name(graph: &FlatGraph, ci: usize) -> String {
    graph.connectors[ci]
        .attrs
        .get_str("name")
        .map(str::to_owned)
        .unwrap_or_else(|| format!("c{ci}"))
}

/// Everything an I/O builder needs to materialise a typed channel for a
/// passthrough connector at instantiation time.
struct IoWiring<'a> {
    capacity: usize,
    mode: ChannelMode,
    tracer: &'a Tracer,
    name: &'a str,
}

/// Resolve (or lazily create, for global passthrough connectors) the typed
/// channel behind `slot` — the deferred twin of the cooperative context's
/// `typed_channel`.
fn typed_slot<T: StreamData>(
    slot: &mut AnyChannel,
    connector: ConnectorId,
    dtype: DTypeDesc,
    w: &IoWiring<'_>,
) -> Result<Arc<Channel<T>>, GraphError> {
    if let Ok(chan) = slot.clone().downcast::<Channel<T>>() {
        return Ok(chan);
    }
    if slot.clone().downcast::<()>().is_ok() {
        let chan = Channel::<T>::with_mode(w.capacity.max(1), w.mode);
        chan.instrument(w.tracer, w.name);
        *slot = AnyChannel::typed(chan.clone());
        return Ok(chan);
    }
    Err(GraphError::IoTypeMismatch {
        connector,
        expected: Box::new(dtype),
    })
}

/// A deferred source or sink: builds its coroutine once the channels exist.
type IoBuild =
    Box<dyn FnOnce(&mut AnyChannel, &IoWiring<'_>) -> Result<LocalBoxFuture, GraphError>>;

struct PendingFeed {
    /// Elements this source will push — the workload length that scales the
    /// plan's period bounds into concrete buffer capacities.
    len: usize,
    build: IoBuild,
}

/// One schedulable coroutine in sweep order.
struct Task {
    label: String,
    kernel: KernelRef,
    fut: Option<LocalBoxFuture>,
    polls: u64,
    busy: Duration,
    completed: bool,
}

impl Task {
    fn new(label: String, fut: LocalBoxFuture, tracer: &Tracer) -> Self {
        let kernel = tracer.register_kernel(&label);
        Task {
            label,
            kernel,
            fut: Some(fut),
            polls: 0,
            busy: Duration::ZERO,
            completed: false,
        }
    }
}

/// A single execution instance of a [`CompiledPlan`] — the compiled
/// backend's counterpart to `cgsim_runtime::RuntimeContext`.
///
/// Differences from the cooperative engine, all consequences of the static
/// schedule:
///
/// * **No scheduler.** Coroutines are polled in precompiled sweep order
///   (sources → kernels topologically → sinks) with a no-op waker; there is
///   no ready queue and no wake bookkeeping. Buffers are sized from the
///   plan's period bounds scaled by the feed length, so in the common case
///   a single sweep drains the whole run and every coroutine completes in
///   one poll.
/// * **Channel creation is deferred to [`CompiledContext::run`]**, when all
///   feed lengths are known; `feed`/`collect` only record intentions.
/// * **Schedule policy and fault injection do not apply** (the order is the
///   plan); [`CompiledContext::from_spec`] rejects fault-carrying specs
///   with [`RejectReason::FaultPlan`].
///
/// Deadlines, cancellation, `max_polls`, profiling and tracing behave as in
/// the cooperative engine and surface through the same [`RunReport`].
pub struct CompiledContext<'g> {
    graph: &'g FlatGraph,
    library: &'g KernelLibrary,
    plan: CompiledPlan,
    config: RuntimeConfig,
    tracer: Tracer,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    feeds: Vec<Option<PendingFeed>>,
    sinks: Vec<Option<IoBuild>>,
}

impl<'g> CompiledContext<'g> {
    /// Compile `graph` and instantiate the resulting plan in one step.
    pub fn new(
        graph: &'g FlatGraph,
        library: &'g KernelLibrary,
        config: RuntimeConfig,
    ) -> Result<Self, CompileError> {
        let lint_cfg = cgsim_lint::LintConfig {
            default_depth: config.default_depth as u32,
            ..cgsim_lint::LintConfig::default()
        };
        let plan = compile(graph, &lint_cfg)?;
        Ok(Self::with_plan(graph, library, plan, config))
    }

    /// Instantiate a previously compiled plan — the reuse path: one
    /// [`compile`] call, many contexts (e.g. one per sweep job).
    pub fn with_plan(
        graph: &'g FlatGraph,
        library: &'g KernelLibrary,
        plan: CompiledPlan,
        config: RuntimeConfig,
    ) -> Self {
        CompiledContext {
            graph,
            library,
            plan,
            config,
            tracer: Tracer::default(),
            deadline: None,
            cancel: None,
            feeds: (0..graph.inputs.len()).map(|_| None).collect(),
            sinks: (0..graph.outputs.len()).map(|_| None).collect(),
        }
    }

    /// Instantiate from a [`RunSpec`] (compiling the graph on the way).
    /// Specs carrying a fault plan are rejected: fault injection perturbs
    /// scheduling, which a fixed precompiled order cannot honour.
    pub fn from_spec(
        graph: &'g FlatGraph,
        library: &'g KernelLibrary,
        spec: &RunSpec,
    ) -> Result<Self, CompileError> {
        Self::from_spec_with_tracer(graph, library, spec, Tracer::default())
    }

    /// [`CompiledContext::from_spec`] with an attached tracer.
    pub fn from_spec_with_tracer(
        graph: &'g FlatGraph,
        library: &'g KernelLibrary,
        spec: &RunSpec,
        tracer: Tracer,
    ) -> Result<Self, CompileError> {
        if spec.config().faults.is_some() {
            return Err(CompileError::NotStaticallySchedulable {
                reason: RejectReason::FaultPlan,
                details: format!("spec `{}` requests seeded fault injection", spec.label()),
            });
        }
        let mut ctx = Self::new(graph, library, *spec.config())?;
        ctx.tracer = tracer;
        if let Some(budget) = spec.deadline_budget() {
            ctx.deadline = Some(Instant::now() + budget);
        }
        Ok(ctx)
    }

    /// The plan this context instantiates.
    pub fn plan(&self) -> &CompiledPlan {
        &self.plan
    }

    /// Attach a tracer; channel counters and events flow into it exactly as
    /// under the cooperative engine.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Arm a wall-clock deadline; past it the run stops with
    /// [`Interrupt::Deadline`] in the report.
    pub fn set_deadline(&mut self, at: Instant) {
        self.deadline = Some(at);
    }

    /// Attach a cancellation token, checked between sweeps.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Record a data source for positional global input `index`. The data
    /// is buffered now; the source coroutine and its channel are created at
    /// [`CompiledContext::run`], when the feed length has fixed the buffer
    /// capacities.
    pub fn feed<T: StreamData>(
        &mut self,
        index: usize,
        data: impl IntoIterator<Item = T> + 'static,
    ) -> Result<(), GraphError> {
        let Some(&connector) = self.graph.inputs.get(index) else {
            return Err(GraphError::IoArityMismatch {
                what: "inputs",
                expected: self.graph.inputs.len(),
                actual: index + 1,
            });
        };
        let data: Vec<T> = data.into_iter().collect();
        let len = data.len();
        let dtype = self.graph.connectors[connector.index()].dtype.clone();
        let build: IoBuild = Box::new(move |slot, w| {
            let chan = typed_slot::<T>(slot, connector, dtype, w)?;
            let mut tx = chan.add_producer();
            Ok(Box::pin(
                async move { tx.push_iter(data.into_iter()).await },
            ))
        });
        self.feeds[index] = Some(PendingFeed { len, build });
        Ok(())
    }

    /// Record a single-value source — the paper's Runtime Parameter source.
    pub fn feed_param<T: StreamData>(&mut self, index: usize, value: T) -> Result<(), GraphError> {
        self.feed(index, std::iter::once(value))
    }

    /// Record a sink for positional global output `index`; the handle
    /// resolves after [`CompiledContext::run`].
    pub fn collect<T: StreamData>(&mut self, index: usize) -> Result<SinkHandle<T>, GraphError> {
        self.collect_impl(index, None)
    }

    /// Like [`CompiledContext::collect`], but the sink closes its consumer
    /// end after `limit` elements (the early-close fault mode shared with
    /// the cooperative engine).
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
        let Some(&connector) = self.graph.outputs.get(index) else {
            return Err(GraphError::IoArityMismatch {
                what: "outputs",
                expected: self.graph.outputs.len(),
                actual: index + 1,
            });
        };
        let dtype = self.graph.connectors[connector.index()].dtype.clone();
        let handle = SinkHandle::<T>::new();
        let sink_data = handle.shared();
        let build: IoBuild = Box::new(move |slot, w| {
            let chan = typed_slot::<T>(slot, connector, dtype, w)?;
            Ok(Box::pin(chan.add_consumer().collect_into(sink_data, limit)))
        });
        self.sinks[index] = Some(build);
        Ok(handle)
    }

    /// Execute the plan: materialise channels at the schedule-derived
    /// capacities, spawn all coroutines, and sweep them in precompiled
    /// order until quiescence. Every global input must have been fed and
    /// every output bound, as under the cooperative engine.
    pub fn run(self) -> Result<RunReport, GraphError> {
        let CompiledContext {
            graph,
            library,
            plan,
            config,
            tracer,
            deadline,
            cancel,
            feeds,
            sinks,
        } = self;
        if let Some(missing) = feeds.iter().position(Option::is_none) {
            return Err(GraphError::IoArityMismatch {
                what: "inputs",
                expected: graph.inputs.len(),
                actual: missing,
            });
        }
        if let Some(missing) = sinks.iter().position(Option::is_none) {
            return Err(GraphError::IoArityMismatch {
                what: "outputs",
                expected: graph.outputs.len(),
                actual: missing,
            });
        }

        // Channel capacity per connector: the exact workload token traffic
        // from the `CG060` bounds analysis (total ever pushed through the
        // connector for these concrete feed lengths), floored by any
        // declared depth. Sized this way no write can ever block — tighter
        // than the former `period bound × period count` product, which
        // over-allocated whenever inputs of different period demands were
        // fed unequal lengths. Kahn determinism makes capacity changes
        // output-invariant for this graph class, so either sizing yields
        // bit-identical streams; the fallback below (cyclic dataflow, which
        // the compiler rejects anyway) keeps the old formula as a safety
        // net.
        let sched = plan.schedule();
        let feed_lens: Vec<u64> = feeds
            .iter()
            .map(|f| f.as_ref().expect("checked above").len as u64)
            .collect();
        let lint_cfg = cgsim_lint::LintConfig {
            default_depth: config.default_depth as u32,
            ..cgsim_lint::LintConfig::default()
        };
        let workload = cgsim_lint::workload_tokens(graph, &lint_cfg, &feed_lens);
        let capacities: Vec<usize> = (0..graph.connectors.len())
            .map(|ci| {
                let need = match &workload {
                    Some(tokens) => tokens[ci],
                    None => {
                        let mut periods = 1u64;
                        for (idx, &len) in feed_lens.iter().enumerate() {
                            let ici = graph.inputs[idx].index();
                            let per = sched.period_tokens.get(ici).copied().unwrap_or(1).max(1);
                            periods = periods.max(len.div_ceil(per));
                        }
                        let per = sched.period_tokens.get(ci).copied().unwrap_or(1);
                        per.saturating_mul(periods)
                    }
                };
                let declared = graph.connectors[ci].settings.depth as u64;
                usize::try_from(need.max(declared).max(1)).unwrap_or(usize::MAX)
            })
            .collect();

        // Materialise kernel-typed channels; passthrough connectors start
        // as placeholders that the I/O builders replace with typed ones.
        let mut channels: Vec<AnyChannel> = Vec::with_capacity(graph.connectors.len());
        for (ci, &capacity) in capacities.iter().enumerate() {
            let endpoint = graph.kernels.iter().enumerate().find_map(|(ki, k)| {
                k.ports
                    .iter()
                    .position(|p| p.connector.index() == ci)
                    .map(|pi| (ki, pi))
            });
            match endpoint {
                Some((ki, pi)) => {
                    let entry = library.get(&graph.kernels[ki].kind)?;
                    let ch = entry.make_channel_mode(pi, capacity, config.channels)?;
                    if let Some(admin) = ch.admin() {
                        admin.instrument(&tracer, &connector_name(graph, ci));
                    }
                    channels.push(ch);
                }
                None => channels.push(AnyChannel::placeholder()),
            }
        }

        // Build every coroutine before the first poll, so all consumers are
        // registered before any data can flow. Sweep order: sources, then
        // kernels in the compiled topological order, then sinks.
        let mut sources = Vec::with_capacity(feeds.len());
        for (idx, feed) in feeds.into_iter().enumerate() {
            let PendingFeed { build, .. } = feed.expect("checked above");
            let ci = graph.inputs[idx].index();
            let name = connector_name(graph, ci);
            let wiring = IoWiring {
                capacity: capacities[ci],
                mode: config.channels,
                tracer: &tracer,
                name: &name,
            };
            let fut = build(&mut channels[ci], &wiring)?;
            sources.push(Task::new(format!("source_{idx}"), fut, &tracer));
        }
        let mut sink_tasks = Vec::with_capacity(sinks.len());
        for (idx, build) in sinks.into_iter().enumerate() {
            let build = build.expect("checked above");
            let ci = graph.outputs[idx].index();
            let name = connector_name(graph, ci);
            let wiring = IoWiring {
                capacity: capacities[ci],
                mode: config.channels,
                tracer: &tracer,
                name: &name,
            };
            let fut = build(&mut channels[ci], &wiring)?;
            sink_tasks.push(Task::new(format!("sink_{idx}"), fut, &tracer));
        }
        let mut tasks = sources;
        for &k in &sched.order {
            let kern = &graph.kernels[k.index()];
            let entry = library.get(&kern.kind)?;
            let kernel_channels: Vec<AnyChannel> = kern
                .ports
                .iter()
                .map(|p| channels[p.connector.index()].clone())
                .collect();
            let mut binder = PortBinder::new(&kern.instance, &kernel_channels);
            tasks.push(Task::new(
                kern.instance.clone(),
                entry.spawn(&mut binder)?,
                &tracer,
            ));
        }
        tasks.append(&mut sink_tasks);

        let admins: Vec<_> = channels.iter().filter_map(|c| c.admin().cloned()).collect();

        // The sweep loop. With the capacities above a merge-free balanced
        // graph drains in ONE sweep: each source pushes its whole stream in
        // a single poll, each kernel (its producers already completed and
        // dropped) consumes to end-of-stream, each sink drains. Extra
        // sweeps only happen when a kernel moves more data than its
        // declared rates promised; genuine deadlock shows up as a sweep
        // with no progress.
        let start = Instant::now();
        tracer.emit(TraceEvent::RunBegin);
        let trace_on = tracer.is_enabled();
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        let mut polls = 0u64;
        let mut suspensions = 0u64;
        let mut timed_polls = 0u64;
        let mut kernel_time = Duration::ZERO;
        let mut completed = 0usize;
        let mut interrupted: Option<Interrupt> = None;
        let mut last_progress = (usize::MAX, u128::MAX);
        'sweeps: loop {
            for task in tasks.iter_mut() {
                let Some(fut) = task.fut.as_mut() else {
                    continue;
                };
                if let Some(budget) = config.max_polls {
                    if polls >= budget {
                        break 'sweeps;
                    }
                }
                polls += 1;
                task.polls += 1;
                let timer = match config.profiling {
                    Profiling::Off => None,
                    Profiling::Full => Some((Instant::now(), 1u32)),
                    Profiling::Sampled(n) => {
                        let n = n.max(1);
                        polls
                            .is_multiple_of(u64::from(n))
                            .then(|| (Instant::now(), n))
                    }
                };
                if trace_on {
                    tracer.emit(TraceEvent::PollBegin {
                        kernel: task.kernel,
                    });
                }
                let res = fut.as_mut().poll(&mut cx);
                if trace_on {
                    tracer.emit(TraceEvent::PollEnd {
                        kernel: task.kernel,
                        pending: res.is_pending(),
                    });
                }
                if let Some((t0, scale)) = timer {
                    let d = t0.elapsed();
                    task.busy += d;
                    kernel_time += d * scale;
                    timed_polls += 1;
                }
                match res {
                    Poll::Ready(()) => {
                        // Drop the future now: releasing its producer ends
                        // are what propagates end-of-stream downstream
                        // within this same sweep.
                        task.fut = None;
                        task.completed = true;
                        completed += 1;
                    }
                    Poll::Pending => suspensions += 1,
                }
            }
            if completed == tasks.len() {
                break;
            }
            if let Some(at) = deadline {
                if Instant::now() >= at {
                    interrupted = Some(Interrupt::Deadline);
                    break;
                }
            }
            if let Some(token) = &cancel {
                if token.is_cancelled() {
                    interrupted = Some(Interrupt::Cancelled);
                    break;
                }
            }
            let moved: u128 = admins
                .iter()
                .map(|a| {
                    let s = a.stats();
                    u128::from(s.pushes) + u128::from(s.pops)
                })
                .sum();
            if (completed, moved) == last_progress {
                break; // no progress: the stalled tasks are reported below
            }
            last_progress = (completed, moved);
        }
        tracer.emit(TraceEvent::RunEnd);
        let total_time = start.elapsed();

        let stalled: Vec<String> = tasks
            .iter()
            .filter(|t| !t.completed)
            .map(|t| t.label.clone())
            .collect();
        let elements_moved = admins.iter().map(|a| a.total_pushed()).sum();
        let channel_stats = channels
            .iter()
            .enumerate()
            .filter_map(|(ci, c)| c.admin().map(|a| (connector_name(graph, ci), a.stats())))
            .collect();
        let profiles: Vec<TaskProfile> = tasks
            .iter()
            .map(|t| TaskProfile {
                label: t.label.clone(),
                polls: t.polls,
                busy: t.busy,
                completed: t.completed,
            })
            .collect();
        Ok(RunReport {
            exec: ExecStats {
                tasks: tasks.len(),
                completed,
                polls,
                suspensions,
                injected_stalls: 0,
                timed_polls,
                kernel_time,
                total_time,
                interrupted,
            },
            stalled,
            elements_moved,
            tasks: profiles,
            channels: channel_stats,
            trace: tracer.snapshot(),
            bounds_violations: Vec::new(),
        })
    }
}
