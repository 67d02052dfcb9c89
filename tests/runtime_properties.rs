//! Property-based end-to-end tests: randomly shaped graphs and workloads
//! must behave identically on both functional runtimes and match direct
//! computation.

mod common;

use cgsim::core::{FlatGraph, GraphBuilder};
use cgsim::runtime::{compute_kernel, KernelLibrary};
use proptest::prelude::*;

compute_kernel! {
    /// Affine transform a*x + b with fixed constants per stage position —
    /// addition of 1 then doubling alternating is emulated by chaining.
    #[realm(aie)]
    pub fn add3_kernel(input: ReadPort<i64>, out: WritePort<i64>) {
        while let Some(v) = input.get().await {
            out.put(v.wrapping_add(3)).await;
        }
    }
}

compute_kernel! {
    #[realm(aie)]
    pub fn mul2_kernel(input: ReadPort<i64>, out: WritePort<i64>) {
        while let Some(v) = input.get().await {
            out.put(v.wrapping_mul(2)).await;
        }
    }
}

compute_kernel! {
    #[realm(aie)]
    pub fn sum_pair_kernel(a: ReadPort<i64>, b: ReadPort<i64>, out: WritePort<i64>) {
        loop {
            let (Some(x), Some(y)) = (a.get().await, b.get().await) else { break };
            out.put(x.wrapping_add(y)).await;
        }
    }
}

/// Elements per window of [`reverse_window_kernel`].
const WINDOW: usize = 8;

compute_kernel! {
    /// Window-port kernel: fires on full windows only, so a trailing
    /// partial window never reaches the sink.
    #[realm(aie)]
    pub fn reverse_window_kernel(input: ReadPort<i64>, out: WritePort<i64>) {
        while let Some(mut window) = input.get_window(WINDOW).await {
            window.reverse();
            out.put_window(window).await;
        }
    }
}

fn library() -> KernelLibrary {
    KernelLibrary::with(|l| {
        l.register::<add3_kernel>();
        l.register::<mul2_kernel>();
        l.register::<sum_pair_kernel>();
        l.register::<reverse_window_kernel>();
    })
}

/// Build a pipeline from a stage bitmask: bit set = mul2, clear = add3.
fn pipeline(stages: &[bool], depth: u32) -> FlatGraph {
    GraphBuilder::build("prop_pipe", |g| {
        let mut prev = g.input::<i64>("a");
        for &is_mul in stages {
            let next = g.wire::<i64>();
            if depth > 0 {
                g.connector_settings(&next, cgsim::core::PortSettings::new().depth(depth));
            }
            if is_mul {
                mul2_kernel::invoke(g, &prev, &next)?;
            } else {
                add3_kernel::invoke(g, &prev, &next)?;
            }
            prev = next;
        }
        g.output(&prev);
        Ok(())
    })
    .unwrap()
}

fn expected(stages: &[bool], input: &[i64]) -> Vec<i64> {
    input
        .iter()
        .map(|&v| {
            stages.iter().fold(v, |acc, &is_mul| {
                if is_mul {
                    acc.wrapping_mul(2)
                } else {
                    acc.wrapping_add(3)
                }
            })
        })
        .collect()
}

fn run_coop(graph: &FlatGraph, input: Vec<i64>) -> Vec<i64> {
    common::run_coop(graph, &library(), vec![input])
}

fn run_threads(graph: &FlatGraph, input: Vec<i64>) -> Vec<i64> {
    common::run_threaded(graph, &library(), vec![input])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any pipeline of affine stages computes the composed function, on
    /// the cooperative runtime, regardless of channel depth.
    #[test]
    fn cooperative_pipeline_computes_composition(
        stages in proptest::collection::vec(any::<bool>(), 1..6),
        input in proptest::collection::vec(any::<i64>(), 0..200),
        depth in 1u32..16,
    ) {
        let graph = pipeline(&stages, depth);
        let got = run_coop(&graph, input.clone());
        prop_assert_eq!(got, expected(&stages, &input));
    }

    /// The threaded runtime agrees with the cooperative one on the same
    /// pipeline and input.
    #[test]
    fn runtimes_agree_on_random_pipelines(
        stages in proptest::collection::vec(any::<bool>(), 1..5),
        input in proptest::collection::vec(any::<i64>(), 0..100),
    ) {
        let graph = pipeline(&stages, 0);
        let coop = run_coop(&graph, input.clone());
        let thr = run_threads(&graph, input);
        prop_assert_eq!(coop, thr);
    }

    /// Window-granular sources and sinks mean the same thing on every
    /// engine: cooperative, compiled and threaded sinks return the identical
    /// vector — the reversed full windows, the partial trailing one dropped.
    #[test]
    fn engines_agree_on_a_partial_trailing_window(
        input in proptest::collection::vec(any::<i64>(), 0..200),
    ) {
        let graph = GraphBuilder::build("windows", |g| {
            let a = g.input::<i64>("a");
            let mid = g.wire::<i64>();
            let out = g.wire::<i64>();
            add3_kernel::invoke(g, &a, &mid)?;
            reverse_window_kernel::invoke(g, &mid, &out)?;
            g.output(&out);
            Ok(())
        })
        .unwrap();
        let expect: Vec<i64> = input
            .chunks_exact(WINDOW)
            .flat_map(|w| w.iter().rev().map(|v| v.wrapping_add(3)))
            .collect();
        let lib = library();
        let coop: Vec<i64> = common::run_coop(&graph, &lib, vec![input.clone()]);
        let compiled: Vec<i64> = common::run_compiled(&graph, &lib, vec![input.clone()]);
        let threaded: Vec<i64> = common::run_threaded(&graph, &lib, vec![input]);
        prop_assert_eq!(&coop, &expect);
        prop_assert_eq!(&compiled, &expect);
        prop_assert_eq!(&threaded, &expect);
    }

    /// Broadcast then join: (x+3) + (2x) for every element, preserving
    /// order, on random inputs.
    #[test]
    fn diamond_computes_elementwise(input in proptest::collection::vec(any::<i64>(), 0..200)) {
        let graph = GraphBuilder::build("diamond", |g| {
            let a = g.input::<i64>("a");
            let left = g.wire::<i64>();
            let right = g.wire::<i64>();
            let joined = g.wire::<i64>();
            add3_kernel::invoke(g, &a, &left)?;
            mul2_kernel::invoke(g, &a, &right)?;
            sum_pair_kernel::invoke(g, &left, &right, &joined)?;
            g.output(&joined);
            Ok(())
        })
        .unwrap();
        let got = run_coop(&graph, input.clone());
        let expect: Vec<i64> = input
            .iter()
            .map(|&v| v.wrapping_add(3).wrapping_add(v.wrapping_mul(2)))
            .collect();
        prop_assert_eq!(got, expect);
    }

    /// The flattened graph representation roundtrips through JSON for
    /// arbitrary pipeline shapes and still validates.
    #[test]
    fn flatgraph_serde_roundtrip(
        stages in proptest::collection::vec(any::<bool>(), 1..8),
        depth in 0u32..64,
    ) {
        let graph = pipeline(&stages, depth);
        let json = serde_json::to_string(&graph).unwrap();
        let back: FlatGraph = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &graph);
        back.validate().unwrap();
    }

    /// The cycle-approximate simulator accepts every pipeline shape and
    /// reports monotonically non-decreasing block completion times.
    #[test]
    fn cycle_sim_block_times_monotone(
        stages in proptest::collection::vec(any::<bool>(), 1..5),
    ) {
        use cgsim::sim::{simulate_graph, KernelCostProfile, PortTraffic, SimConfig, WorkloadSpec};
        let graph = pipeline(&stages, 0);
        let stream = |elems: u64| PortTraffic {
            elems_per_iter: elems,
            elem_bytes: 8,
            kind: cgsim::core::PortKind::Stream,
        };
        let mut profiles = std::collections::HashMap::new();
        for kind in ["add3_kernel", "mul2_kernel"] {
            profiles.insert(
                kind.to_owned(),
                KernelCostProfile::measured(kind, Default::default(), vec![stream(8)], vec![stream(8)]),
            );
        }
        let trace = simulate_graph(
            &graph,
            &profiles,
            &SimConfig::hand_optimized(),
            &WorkloadSpec {
                blocks: 8,
                elems_per_block_in: vec![32],
                elems_per_block_out: vec![32],
            },
        )
        .unwrap();
        prop_assert_eq!(trace.trace.block_times.len(), 8);
        prop_assert!(trace.trace.block_times.windows(2).all(|w| w[0] <= w[1]));
    }
}

/// A global input wired straight to a global output has no kernel endpoint
/// to build its channel, so the contexts build it in `feed`/`collect` — at
/// the same capacity as every other connector (declared depth, else the
/// configured default), not at a constant of their own.
#[test]
fn passthrough_connector_honours_default_depth_on_both_engines() {
    use cgsim::runtime::{Backend, RunSpec, RuntimeContext};
    let graph = GraphBuilder::build("wire", |g| {
        let a = g.input::<i64>("a");
        g.output(&a);
        Ok(())
    })
    .unwrap();
    let lib = library();
    let input: Vec<i64> = (0..100).collect();

    for backend in [Backend::Cooperative, Backend::Threaded] {
        let spec = RunSpec::for_graph("wire").backend(backend).default_depth(4);
        let mut ctx = RuntimeContext::from_spec(&graph, &lib, &spec).unwrap();
        ctx.feed(0, input.clone()).unwrap();
        let out = ctx.collect::<i64>(0).unwrap();
        let report = ctx.run().unwrap();
        assert!(report.drained(), "stalled: {:?}", report.stalled);
        assert_eq!(out.take(), input);
        let (name, stats) = &report.channels[0];
        assert!(stats.max_occupancy <= 4, "{backend:?} {name}: {stats:?}");
    }
}
