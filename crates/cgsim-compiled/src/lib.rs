//! # cgsim-compiled — compiled static-schedule backend
//!
//! The cooperative engine (`cgsim-runtime`) discovers the execution order at
//! run time: a ready queue, wake bookkeeping, and a scheduling branch per
//! poll. For the large class of graphs that are *statically schedulable* —
//! merge-free, rate-balanced (lint `CG030` clean), acyclic, fault-free —
//! none of that is necessary: the SDF firing vector fixes a periodic
//! schedule ahead of any execution, and buffer bounds follow from it.
//!
//! This crate is the *compile* phase of the LightningSimV2-style
//! compile/execute split; the execute phase is the one executor every
//! single-threaded run uses:
//!
//! 1. **Compile** ([`compile`], [`compile_for`]): take a lint-clean
//!    [`FlatGraph`], reuse the firing vector the `cgsim-lint` rate pass
//!    already computed ([`cgsim_lint::LintReport::firing_vector`]), derive a
//!    topological firing order and per-connector period token counts, and
//!    package them as a reusable [`CompiledPlan`]. Graphs outside the static
//!    class are rejected with [`CompileError::NotStaticallySchedulable`]
//!    carrying a [`RejectReason`] that names the matching lint verdict.
//! 2. **Execute** (`cgsim_runtime::RuntimeContext::with_plan`): a plan is
//!    order and capacities for the cooperative executor. The context gives
//!    the coroutines their first poll in plan order (sources, kernels,
//!    sinks) on the FIFO ready queue and raises every channel to the exact
//!    token traffic of the workload, so in the common case every coroutine
//!    runs start to finish in a single poll. The ready queue is still
//!    there — it is simply never needed — and so are the deadline, cancel,
//!    poll budget, profiling, tracing, `ExecProbe`, bounds checks and
//!    [`RunReport`] of every other run.
//!
//! A plan is compiled once and consumed many times (parameter sweeps in
//! `cgsim-pool` reuse one plan per job). Because statically schedulable
//! graphs are Kahn-deterministic, a planned run's outputs are bit-identical
//! to the plan-less reference (enforced by the `cgsim-check` conformance
//! legs `compiled` and `compiled-reuse`).

#![warn(missing_docs)]

mod compiler;
mod context;

pub use compiler::{compile, compile_for, CompileError, CompiledPlan, RejectReason};
pub use context::CompiledContext;

// Re-exported so callers can name the report/graph/lint-config types
// without adding direct cgsim-runtime / cgsim-lint dependencies.
pub use cgsim_core::FlatGraph;
pub use cgsim_lint::LintConfig;
pub use cgsim_runtime::RunReport;

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_core::GraphBuilder;
    use cgsim_lint::LintConfig;
    use cgsim_runtime::cgsim_trace::Tracer;
    use cgsim_runtime::executor::{FaultPlan, Schedule};
    use cgsim_runtime::probe::ExecProbe;
    use cgsim_runtime::{compute_kernel, KernelLibrary, RunSpec, RuntimeConfig, RuntimeContext};
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

    /// The one context, following the plan compiled for `config`.
    fn planned<'g>(
        g: &'g FlatGraph,
        lib: &'g KernelLibrary,
        config: RuntimeConfig,
    ) -> RuntimeContext<'g> {
        let plan = compile_for(g, &config).unwrap();
        RuntimeContext::with_plan(g, lib, config, Tracer::default(), Some(plan.schedule())).unwrap()
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
        assert_eq!(s.period_tokens, vec![1, 1, 1]);
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
        let g = GraphBuilder::build("imbalanced", |g| {
            let a = g.input::<i64>("a");
            let x = g.wire::<i64>();
            let sum = g.wire::<i64>();
            dbl::invoke(g, &a, &x)?;
            add2::invoke(g, &x, &x, &sum)?;
            g.output(&sum);
            Ok(())
        })
        .unwrap();
        let cfg = LintConfig::default().with_kernel_rates("add2", vec![1, 2, 1]);
        let err = compile(&g, &cfg).unwrap_err();
        assert_eq!(err.reject_reason(), Some(RejectReason::RateImbalance));
        assert_eq!(err.reject_reason().unwrap().lint_code(), Some("CG030"));
    }

    #[test]
    fn single_sweep_executes_pipeline() {
        let g = pipeline();
        let lib = lib();
        let mut ctx = planned(&g, &lib, RuntimeConfig::default());
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
            let mut ctx = RuntimeContext::with_plan(
                &g,
                &lib,
                RuntimeConfig::default(),
                Tracer::default(),
                Some(plan.schedule()),
            )
            .unwrap();
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
        let mut ctx = planned(&g, &lib, RuntimeConfig::default());
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
        let ctx = planned(&g, &lib, RuntimeConfig::default());
        assert!(matches!(
            ctx.run(),
            Err(cgsim_core::GraphError::IoArityMismatch { what: "inputs", .. })
        ));
    }

    #[test]
    fn max_polls_budget_stops_the_sweep() {
        let g = pipeline();
        let lib = lib();
        let mut ctx = planned(&g, &lib, RuntimeConfig::default().with_max_polls(1));
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
        let report = run_tight(planned(&g, &lib, RuntimeConfig::default()));
        assert_eq!(report.exec.tasks, 18);
        assert_eq!(report.exec.polls, 18);
        for (name, stats) in &report.channels {
            assert_eq!(stats.blocked_writes, 0, "channel {name}");
        }
        // Without a plan the same graph keeps its declared depth of 1 and
        // the poll count it had before this context took plans.
        let plain = RuntimeContext::new(&g, &lib, RuntimeConfig::default()).unwrap();
        assert_eq!(run_tight(plain).exec.polls, 4625);
    }

    #[test]
    fn plan_order_overrides_the_spec_schedule() {
        // LIFO on the plan's first-poll order would poll the sink first and
        // work backwards; the plan pins FIFO, so it is still one poll each.
        let g = tight_pipeline(16);
        let lib = lib();
        let lifo = RuntimeConfig::scheduled(Schedule::Lifo);
        assert_eq!(run_tight(planned(&g, &lib, lifo)).exec.polls, 18);
        let plain = RuntimeContext::new(&g, &lib, lifo).unwrap();
        assert_ne!(run_tight(plain).exec.polls, 18);
    }

    #[test]
    fn planned_run_publishes_to_the_probe_and_checks_bounds() {
        let g = tight_pipeline(16);
        let lib = lib();
        let probe = ExecProbe::new();
        let mut ctx = planned(&g, &lib, RuntimeConfig::default());
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
        let err = RuntimeContext::with_plan(
            &other,
            &lib,
            RuntimeConfig::default(),
            Tracer::default(),
            Some(plan.schedule()),
        )
        .err()
        .expect("a 2-kernel plan cannot drive a 3-kernel graph");
        assert!(matches!(err, cgsim_core::GraphError::IdOutOfRange { .. }));
    }
}
