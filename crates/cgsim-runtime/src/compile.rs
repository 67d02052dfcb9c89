//! The schedule compiler — the *compile* phase of the LightningSimV2-style
//! compile/execute split.
//!
//! The executor discovers the execution order at run time: a ready queue,
//! wake bookkeeping, and a scheduling branch per poll. For the large class
//! of graphs that are *statically schedulable* — merge-free, rate-balanced
//! (lint `CG030` clean), acyclic, fault-free — none of that is necessary:
//! the SDF firing vector fixes a periodic schedule ahead of any execution,
//! and buffer bounds follow from it. [`compile`] reuses the firing vector
//! the `cgsim-lint` rate pass already computed and the graph's one
//! topological order ([`Topology::topo_order`]), and packages them as a
//! reusable [`CompiledPlan`]; graphs outside the class are rejected with a
//! [`RejectReason`] naming the matching lint verdict. The lint bounds pass
//! reports per-connector period traffic (`GraphBounds`); a run that
//! follows a plan holds a fixed byte budget per channel and runs a longer
//! stream in rounds.
//!
//! The *execute* phase is the one executor every single-threaded run uses:
//! [`RuntimeContext::launch`](crate::RuntimeContext::launch) follows a plan
//! for a [`Backend::Compiled`](crate::Backend::Compiled) spec. A plan is
//! compiled once and consumed many times (the `cgsim-serve` cache and
//! `cgsim-pool` sweeps share one per graph); statically schedulable graphs
//! are Kahn-deterministic, so a planned run's outputs are bit-identical to
//! the plan-less reference (the `cgsim-check` legs `compiled` and
//! `compiled-reuse` enforce it).

use crate::context::RuntimeConfig;
use cgsim_core::schedule::StaticSchedule;
#[cfg(doc)]
use cgsim_core::Topology;
use cgsim_core::{CheckedGraph, ConnectorId, FlatGraph, GraphError};
use cgsim_lint::{lint_checked, LintConfig, LintReport};
use std::fmt;

/// Why a graph fell outside the statically schedulable class.
///
/// Each reason corresponds to a lint verdict where one exists
/// ([`RejectReason::lint_code`]), so conformance harnesses can assert that
/// the compiler and the linter agree on *why* a graph was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// A connector has more than one producer (kernel or global feed):
    /// token arrival order is schedule-dependent, so no fixed firing order
    /// reproduces every legal execution. Lint flags this as `CG043`.
    Merge,
    /// The SDF balance equations are inconsistent (`CG030`): no periodic
    /// firing vector exists.
    RateImbalance,
    /// The kernel dataflow contains a feedback cycle (`CG020`/`CG021`):
    /// a topological firing order does not exist.
    Cycle,
    /// The lint report carries Error findings outside the classes above;
    /// the compiler refuses graphs the verifier can prove broken.
    LintErrors,
    /// The run was configured with seeded fault injection, which perturbs
    /// scheduling by design — meaningless under a fixed precompiled order.
    FaultPlan,
}

impl RejectReason {
    /// The lint code expressing the same verdict, when one exists: `CG043`
    /// for merges, `CG030` for rate imbalance, `CG020` for cycles. `None`
    /// for reasons without a single canonical code.
    pub fn lint_code(self) -> Option<&'static str> {
        match self {
            RejectReason::Merge => Some("CG043"),
            RejectReason::RateImbalance => Some("CG030"),
            RejectReason::Cycle => Some("CG020"),
            RejectReason::LintErrors | RejectReason::FaultPlan => None,
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RejectReason::Merge => "merge fan-in",
            RejectReason::RateImbalance => "rate imbalance",
            RejectReason::Cycle => "feedback cycle",
            RejectReason::LintErrors => "lint errors",
            RejectReason::FaultPlan => "fault injection requested",
        })
    }
}

/// Why compilation failed.
#[derive(Clone, Debug)]
pub enum CompileError {
    /// The graph is valid but outside the statically schedulable class;
    /// callers typically fall back to the cooperative engine.
    NotStaticallySchedulable {
        /// The class boundary that was crossed.
        reason: RejectReason,
        /// Human-readable specifics (offending connector, lint summary …).
        details: String,
    },
    /// The graph descriptor itself is broken (failed
    /// [`CheckedGraph::new`] or kernel lookup) — no backend can run it.
    Graph(GraphError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NotStaticallySchedulable { reason, details } => {
                write!(f, "not statically schedulable ({reason}): {details}")
            }
            CompileError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<GraphError> for CompileError {
    fn from(e: GraphError) -> Self {
        CompileError::Graph(e)
    }
}

impl CompileError {
    /// The rejection reason, when the graph was merely outside the static
    /// class (as opposed to structurally broken).
    pub fn reject_reason(&self) -> Option<RejectReason> {
        match self {
            CompileError::NotStaticallySchedulable { reason, .. } => Some(*reason),
            CompileError::Graph(_) => None,
        }
    }
}

/// A compiled, graph-specific but workload-independent execution plan.
///
/// Pure data: cheap to clone; compile once per graph, then hand it to
/// [`RuntimeContext::launch`](crate::RuntimeContext::launch) as
/// [`Launch::plan`](crate::Launch::plan) once per run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledPlan {
    schedule: StaticSchedule,
}

impl CompiledPlan {
    /// The schedule IR the executor consumes: firing order and firing
    /// counts.
    pub fn schedule(&self) -> &StaticSchedule {
        &self.schedule
    }
}

/// Compile `graph` into a [`CompiledPlan`], or report why it is outside the
/// statically schedulable class.
///
/// The boundary, checked in order:
/// 1. the descriptor must pass the structural check ([`CheckedGraph::new`]),
/// 2. `cgsim-lint` must report no Error findings (`CG030` maps to
///    [`RejectReason::RateImbalance`], `CG020` to [`RejectReason::Cycle`],
///    anything else to [`RejectReason::LintErrors`]),
/// 3. every connector must have exactly one producer
///    ([`RejectReason::Merge`] otherwise),
/// 4. the kernel dataflow must be acyclic ([`RejectReason::Cycle`]).
///
/// The firing vector is *not* recomputed: it is taken from the lint
/// report's rate pass, so the compiler and `CG030` can never disagree. The
/// firing order is [`Topology::topo_order`], smallest-index-first among the
/// valid orders.
pub fn compile(graph: &FlatGraph, cfg: &LintConfig) -> Result<CompiledPlan, CompileError> {
    let checked = CheckedGraph::new(graph)?;
    compile_linted(&checked, &lint_checked(&checked, cfg))
}

/// [`compile`] of a checked graph whose lint `report` under the wanted
/// [`LintConfig`] is already at hand. A caller that lints anyway — a
/// launch behind the lint gate, a cache that keeps the report — compiles
/// without linting a second time. The compiler reads the report's verdict
/// and firing vector; its own merge and cycle checks stay, so a reject
/// reason can be cross-checked against the lint codes.
pub fn compile_linted(
    checked: &CheckedGraph,
    report: &LintReport,
) -> Result<CompiledPlan, CompileError> {
    let graph = checked.graph();
    if report.has_errors() {
        let codes = report.codes();
        let reason = if codes.contains("CG030") {
            RejectReason::RateImbalance
        } else if codes.contains("CG020") {
            RejectReason::Cycle
        } else {
            RejectReason::LintErrors
        };
        return Err(CompileError::NotStaticallySchedulable {
            reason,
            details: report.render_human(graph),
        });
    }

    // Merge fan-in (including a globally fed connector that also has a
    // kernel producer): token interleaving is schedule-dependent, which a
    // fixed firing order cannot reproduce in general.
    let topo = checked.topology();
    for ci in 0..graph.connectors.len() {
        let c = ConnectorId::new(ci);
        let producers = topo.writers(c);
        if producers > 1 {
            return Err(CompileError::NotStaticallySchedulable {
                reason: RejectReason::Merge,
                details: format!("connector {c} has {producers} producers"),
            });
        }
    }

    let order = topo
        .topo_order()
        .ok_or_else(|| CompileError::NotStaticallySchedulable {
            reason: RejectReason::Cycle,
            details: "kernel dataflow contains a feedback cycle".into(),
        })?;

    let firings =
        report
            .firing_vector()
            .cloned()
            .ok_or_else(|| CompileError::NotStaticallySchedulable {
                reason: RejectReason::RateImbalance,
                details: "rate pass produced no firing vector".into(),
            })?;

    Ok(CompiledPlan {
        schedule: StaticSchedule {
            graph: graph.name.clone(),
            order,
            firings,
        },
    })
}

/// [`compile`] for a run under `config`: undeclared connector depths resolve
/// to `config.default_depth`, exactly as the run resolves them, and a
/// configuration carrying a fault plan is rejected with
/// [`RejectReason::FaultPlan`] — fault injection perturbs the poll order,
/// which is meaningless when the order is the plan.
pub fn compile_for(
    graph: &FlatGraph,
    config: &RuntimeConfig,
) -> Result<CompiledPlan, CompileError> {
    if config.faults.is_some() {
        return Err(CompileError::NotStaticallySchedulable {
            reason: RejectReason::FaultPlan,
            details: "the run requests seeded fault injection".into(),
        });
    }
    compile(graph, &config.lint_config())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{FaultPlan, Schedule};
    use crate::probe::ExecProbe;
    use crate::{
        compute_kernel, Backend, KernelLibrary, Launch, RunReport, RunSpec, RuntimeContext,
    };
    use cgsim_core::GraphBuilder;
    use std::sync::Arc;

    compute_kernel! {
        /// Doubles every element.
        #[realm(aie)]
        pub fn dbl(input: ReadPort<i64>, out: WritePort<i64>) {
            while let Some(v) = input.get().await {
                out.put(v * 2).await;
            }
        }
    }

    compute_kernel! {
        /// Adds pairs of values from two input streams.
        #[realm(aie)]
        pub fn add2(a: ReadPort<i64>, b: ReadPort<i64>, out: WritePort<i64>) {
            loop {
                let (Some(x), Some(y)) = (a.get().await, b.get().await) else {
                    break;
                };
                out.put(x + y).await;
            }
        }
    }

    fn lib() -> KernelLibrary {
        KernelLibrary::with(|l| {
            l.register::<dbl>();
            l.register::<add2>();
        })
    }

    /// A `Compiled` spec: the launch compiles the plan it follows.
    fn compiled() -> RunSpec {
        RunSpec::for_graph("compiled").backend(Backend::Compiled)
    }

    /// The one context, launched from `spec` (asserted to compile).
    fn planned<'g>(g: &'g FlatGraph, lib: &'g KernelLibrary, spec: RunSpec) -> RuntimeContext<'g> {
        compile_for(g, spec.config()).unwrap();
        RuntimeContext::from_spec(g, lib, &spec).unwrap()
    }

    /// `stages` doublers in a row, every connector of depth 1.
    fn tight_pipeline(stages: usize) -> FlatGraph {
        GraphBuilder::build("tight", |g| {
            let mut prev = g.input::<i64>("a");
            g.connector_settings(&prev, cgsim_core::PortSettings::new().depth(1));
            for _ in 0..stages {
                let next = g.wire::<i64>();
                g.connector_settings(&next, cgsim_core::PortSettings::new().depth(1));
                dbl::invoke(g, &prev, &next)?;
                prev = next;
            }
            g.output(&prev);
            Ok(())
        })
        .unwrap()
    }

    fn pipeline() -> FlatGraph {
        GraphBuilder::build("pipe", |g| {
            let a = g.input::<i64>("a");
            let mid = g.wire::<i64>();
            let out = g.wire::<i64>();
            dbl::invoke(g, &a, &mid)?;
            dbl::invoke(g, &mid, &out)?;
            g.output(&out);
            Ok(())
        })
        .unwrap()
    }

    #[test]
    fn pipeline_compiles_to_unit_schedule() {
        let g = pipeline();
        let plan = compile(&g, &LintConfig::default()).unwrap();
        let s = plan.schedule();
        assert_eq!(s.graph, "pipe");
        assert_eq!(s.order.len(), 2);
        // Topological: dbl_0 (reads the input) fires before dbl_1.
        assert_eq!(s.order[0].index(), 0);
        assert_eq!(s.order[1].index(), 1);
        assert_eq!(s.firings.counts, vec![1, 1]);
    }

    #[test]
    fn merge_is_rejected_with_cg043() {
        // Two kernels write the same wire: merge fan-in.
        let g = GraphBuilder::build("merge", |g| {
            let a = g.input::<i64>("a");
            let b = g.input::<i64>("b");
            let x = g.wire::<i64>();
            dbl::invoke(g, &a, &x)?;
            dbl::invoke(g, &b, &x)?;
            g.output(&x);
            Ok(())
        })
        .unwrap();
        let err = compile(&g, &LintConfig::default()).unwrap_err();
        assert_eq!(err.reject_reason(), Some(RejectReason::Merge));
        assert_eq!(err.reject_reason().unwrap().lint_code(), Some("CG043"));
    }

    #[test]
    fn rate_imbalance_is_rejected_with_cg030() {
        // Both add2 inputs read the same wire, but at different rates (1
        // vs 2 per firing): the two balance equations for that wire force
        // contradictory firing ratios.
        let mut g = GraphBuilder::build("imbalanced", |g| {
            let a = g.input::<i64>("a");
            let x = g.wire::<i64>();
            let sum = g.wire::<i64>();
            dbl::invoke(g, &a, &x)?;
            add2::invoke(g, &x, &x, &sum)?;
            g.output(&sum);
            Ok(())
        })
        .unwrap();
        let sum = g.kernels.iter_mut().find(|k| k.kind == "add2").unwrap();
        sum.ports[1].rate = 2;
        let err = compile(&g, &LintConfig::default()).unwrap_err();
        assert_eq!(err.reject_reason(), Some(RejectReason::RateImbalance));
        assert_eq!(err.reject_reason().unwrap().lint_code(), Some("CG030"));
    }

    #[test]
    fn single_sweep_executes_pipeline() {
        let g = pipeline();
        let lib = lib();
        let mut ctx = planned(&g, &lib, compiled());
        ctx.feed(0, (0..100i64).collect::<Vec<_>>()).unwrap();
        let out = ctx.collect::<i64>(0).unwrap();
        let report = ctx.run().unwrap();
        assert!(report.drained(), "stalled: {:?}", report.stalled);
        assert_eq!(out.take(), (0..100i64).map(|v| v * 4).collect::<Vec<_>>());
        // The whole point: one poll per coroutine, no suspensions, no
        // blocked channel operations.
        assert_eq!(report.exec.polls, report.exec.tasks as u64);
        assert_eq!(report.exec.suspensions, 0);
        for (name, stats) in &report.channels {
            assert_eq!(stats.blocked_writes, 0, "channel {name}");
            assert_eq!(stats.blocked_reads, 0, "channel {name}");
        }
        assert_eq!(report.elements_moved, 300);
    }

    #[test]
    fn from_spec_resolves_compiled_in_the_runtime() {
        // Merge-free: a `Compiled` spec with no plan handed over compiles
        // one at launch and follows it — one poll per coroutine.
        let lib = lib();
        let g = pipeline();
        let mut ctx = RuntimeContext::from_spec(&g, &lib, &compiled()).unwrap();
        ctx.feed(0, (0..100i64).collect::<Vec<_>>()).unwrap();
        let out = ctx.collect::<i64>(0).unwrap();
        let report = ctx.run().unwrap();
        assert_eq!(report.exec.polls, report.exec.tasks as u64);
        assert_eq!(out.take(), (0..100i64).map(|v| v * 4).collect::<Vec<_>>());

        // A merge has no plan: the same spec runs on the ready queue ...
        let merge = GraphBuilder::build("merge", |g| {
            let a = g.input::<i64>("a");
            let b = g.input::<i64>("b");
            let x = g.wire::<i64>();
            dbl::invoke(g, &a, &x)?;
            dbl::invoke(g, &b, &x)?;
            g.output(&x);
            Ok(())
        })
        .unwrap();
        let mut ctx = RuntimeContext::from_spec(&merge, &lib, &compiled()).unwrap();
        ctx.feed(0, (0..100i64).collect::<Vec<_>>()).unwrap();
        ctx.feed(1, (100..200i64).collect::<Vec<_>>()).unwrap();
        let out = ctx.collect::<i64>(0).unwrap();
        let report = ctx.run().unwrap();
        assert!(report.drained(), "stalled: {:?}", report.stalled);
        assert!(report.exec.polls > report.exec.tasks as u64);
        let mut got = out.take();
        got.sort_unstable();
        assert_eq!(got, (0..200i64).map(|v| v * 2).collect::<Vec<_>>());

        // ... behind the deny gate: beside an unprimed feedback loop the
        // merge is refused with the lint verdict, not run.
        let looped = GraphBuilder::build("merge-loop", |g| {
            let a = g.input::<i64>("a");
            let b = g.input::<i64>("b");
            let (y, z, w) = (g.wire::<i64>(), g.wire::<i64>(), g.wire::<i64>());
            add2::invoke(g, &a, &z, &y)?;
            dbl::invoke(g, &y, &z)?;
            dbl::invoke(g, &a, &w)?;
            dbl::invoke(g, &b, &w)?;
            g.output(&w);
            Ok(())
        })
        .unwrap();
        let err = RuntimeContext::from_spec(&looped, &lib, &compiled())
            .err()
            .expect("an Error-level graph must not launch");
        assert_eq!(err.code(), "CG012", "{err}");
        assert!(err.to_string().contains("CG020"), "{err}");
    }

    #[test]
    fn zip_graph_and_plan_reuse_are_deterministic() {
        let g = GraphBuilder::build("zip", |g| {
            let a = g.input::<i64>("a");
            let b = g.input::<i64>("b");
            let sum = g.wire::<i64>();
            add2::invoke(g, &a, &b, &sum)?;
            g.output(&sum);
            Ok(())
        })
        .unwrap();
        let lib = lib();
        let plan = compile(&g, &LintConfig::default()).unwrap();
        let run = |plan: &CompiledPlan| {
            let launch = Launch::default().with_plan(plan.clone());
            let mut ctx = RuntimeContext::launch(&g, &lib, &compiled(), launch).unwrap();
            ctx.feed(0, (0..50i64).collect::<Vec<_>>()).unwrap();
            ctx.feed(1, (0..50i64).map(|v| v * 10).collect::<Vec<_>>())
                .unwrap();
            let out = ctx.collect::<i64>(0).unwrap();
            let report = ctx.run().unwrap();
            assert!(report.drained());
            out.take()
        };
        let first = run(&plan);
        let second = run(&plan);
        assert_eq!(first, second);
        assert_eq!(first[3], 33);
    }

    #[test]
    fn bounded_sink_closes_early_and_drains() {
        let g = pipeline();
        let lib = lib();
        let mut ctx = planned(&g, &lib, compiled());
        ctx.feed(0, (0..100i64).collect::<Vec<_>>()).unwrap();
        let out = ctx.collect_bounded::<i64>(0, 5).unwrap();
        let report = ctx.run().unwrap();
        assert!(report.drained(), "stalled: {:?}", report.stalled);
        assert_eq!(out.take(), vec![0, 4, 8, 12, 16]);
    }

    #[test]
    fn fault_specs_are_rejected() {
        let g = pipeline();
        let spec = RunSpec::for_graph("pipe").faults(FaultPlan::new(7, 25));
        let Err(err) = compile_for(&g, spec.config()) else {
            panic!("fault-carrying spec must be rejected");
        };
        assert_eq!(err.reject_reason(), Some(RejectReason::FaultPlan));
    }

    #[test]
    fn missing_feed_is_an_error() {
        let g = pipeline();
        let lib = lib();
        let ctx = planned(&g, &lib, compiled());
        assert!(matches!(
            ctx.run(),
            Err(cgsim_core::GraphError::IoArityMismatch { what: "inputs", .. })
        ));
    }

    #[test]
    fn max_polls_budget_stops_the_sweep() {
        let g = pipeline();
        let lib = lib();
        let mut ctx = planned(&g, &lib, compiled().max_polls(1));
        ctx.feed(0, vec![1i64, 2]).unwrap();
        let _out = ctx.collect::<i64>(0).unwrap();
        let report = ctx.run().unwrap();
        assert!(!report.drained());
        assert!(report.exec.polls <= 1);
    }

    /// Feed `0..256` through the 16-stage depth-1 pipeline and return the
    /// report, having checked the output.
    fn run_tight(mut ctx: RuntimeContext<'_>) -> RunReport {
        ctx.feed(0, 0..256i64).unwrap();
        let out = ctx.collect::<i64>(0).unwrap();
        let report = ctx.run().unwrap();
        assert!(report.drained(), "stalled: {:?}", report.stalled);
        assert_eq!(out.take(), (0..256i64).map(|v| v << 16).collect::<Vec<_>>());
        report
    }

    #[test]
    fn plan_drains_a_depth_1_pipeline_in_one_poll_per_task() {
        let g = tight_pipeline(16);
        let lib = lib();
        let report = run_tight(planned(&g, &lib, compiled()));
        assert_eq!(report.exec.tasks, 18);
        assert_eq!(report.exec.polls, 18);
        for (name, stats) in &report.channels {
            assert_eq!(stats.blocked_writes, 0, "channel {name}");
        }
        // Without a plan the same graph keeps its declared depth of 1 and
        // the poll count it had before this context took plans.
        let plain = RuntimeContext::from_spec(&g, &lib, &RunSpec::default()).unwrap();
        assert_eq!(run_tight(plain).exec.polls, 4625);
    }

    #[test]
    fn plan_order_overrides_the_spec_schedule() {
        // LIFO on the plan's first-poll order would poll the sink first and
        // work backwards; the plan pins FIFO, so it is still one poll each.
        let g = tight_pipeline(16);
        let lib = lib();
        let lifo = compiled().schedule(Schedule::Lifo);
        assert_eq!(run_tight(planned(&g, &lib, lifo.clone())).exec.polls, 18);
        let lifo = lifo.backend(Backend::Cooperative);
        let plain = RuntimeContext::from_spec(&g, &lib, &lifo).unwrap();
        assert_ne!(run_tight(plain).exec.polls, 18);
    }

    #[test]
    fn planned_run_publishes_to_the_probe_and_checks_bounds() {
        let g = tight_pipeline(16);
        let lib = lib();
        let probe = ExecProbe::new();
        let mut ctx = planned(&g, &lib, compiled());
        ctx.set_probe(Arc::clone(&probe));
        // 256 tokens cross every connector; claim the last holds at most 8.
        let mut bounds = vec![256u64; g.connectors.len()];
        *bounds.last_mut().unwrap() = 8;
        ctx.set_bounds_check(bounds);
        let report = run_tight(ctx);
        // Final progress = completed tasks + elements pushed.
        assert_eq!(probe.progress(), 18 + report.elements_moved);
        assert_eq!(report.elements_moved, 17 * 256);
        assert_eq!(
            report.bounds_violations.len(),
            1,
            "{:?}",
            report.bounds_violations
        );
        assert_eq!(report.bounds_violations[0].observed, 256);
        assert_eq!(report.bounds_violations[0].bound, 8);
    }

    #[test]
    fn plan_for_another_graph_is_refused() {
        let lib = lib();
        let plan = compile(&pipeline(), &LintConfig::default()).unwrap();
        let other = tight_pipeline(3);
        let err =
            RuntimeContext::launch(&other, &lib, &compiled(), Launch::default().with_plan(plan))
                .err()
                .expect("a 2-kernel plan cannot drive a 3-kernel graph");
        assert!(matches!(err, cgsim_core::GraphError::IdOutOfRange { .. }));
    }
}
