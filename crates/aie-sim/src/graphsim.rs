//! Binding a compute graph to the DES engine.
//!
//! Turns a [`FlatGraph`] plus per-kernel [`KernelCostProfile`]s into a
//! simulatable design: one tile node per kernel, one PLIO source per global
//! input, one PLIO sink per global output, and one FIFO per
//! (connector, consumer) pair — broadcast connectors fan out into one FIFO
//! per reader, exactly like physical stream-switch routes.

use crate::config::SimConfig;
use crate::cost::KernelCostProfile;
use crate::engine::{FifoId, NodeId, NodeKind, Sim, SimTrace};
use cgsim_core::{CheckedGraph, ConnectorId, FlatGraph, GraphError, PortDir, PortKind};
use cgsim_trace::{KernelRef, TraceEvent, TraceRecord, TraceSnapshot, Tracer};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How much data one simulated run pushes through the graph.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of input blocks to process.
    pub blocks: u64,
    /// Elements per block, per global input (positional).
    pub elems_per_block_in: Vec<u64>,
    /// Elements per block, per global output (positional) — defines the
    /// block boundary the trace measures at the sink.
    pub elems_per_block_out: Vec<u64>,
}

/// A finished simulation of one graph: raw trace plus unit conversion and
/// node naming.
#[derive(Clone, Debug)]
pub struct GraphTrace {
    /// The raw engine trace.
    pub trace: SimTrace,
    /// Configuration the run used (for ns conversion).
    pub config: SimConfig,
    /// Kernel instance name per tile node.
    pub kernel_nodes: Vec<(String, NodeId)>,
}

impl GraphTrace {
    /// Steady-state nanoseconds per block at the first sink — the paper's
    /// Table 1 metric ("time between iterations as reported by the
    /// execution trace").
    pub fn ns_per_block(&self) -> Option<f64> {
        self.trace
            .cycles_per_block()
            .map(|c| c * self.config.ns_per_cycle())
    }

    /// Steady-state cycles per block.
    pub fn cycles_per_block(&self) -> Option<f64> {
        self.trace.cycles_per_block()
    }

    /// Rebuild the iteration history as a [`TraceSnapshot`] in the unified
    /// event vocabulary: one `IterationEnd` record per kernel iteration,
    /// timestamps converted from cycles to ns. Works whether or not a live
    /// [`Tracer`] was attached during the run.
    pub fn iteration_snapshot(
        &self,
        service_cycles: &std::collections::HashMap<String, u64>,
    ) -> TraceSnapshot {
        let mut snapshot = TraceSnapshot::default();
        let by_node = self.trace.iterations_by_node();
        for (instance, node) in &self.kernel_nodes {
            let kernel = KernelRef(snapshot.kernels.len() as u32);
            snapshot.kernels.push(instance.clone());
            let service = service_cycles.get(instance).copied().unwrap_or(1);
            for (iter, &end) in by_node[*node].iter().enumerate() {
                let start = end.saturating_sub(service);
                snapshot.records.push(TraceRecord {
                    ts_ns: self.config.cycles_to_ns(end).round() as u64,
                    event: TraceEvent::IterationEnd {
                        kernel,
                        iteration: iter as u64,
                        start_ns: self.config.cycles_to_ns(start).round() as u64,
                    },
                });
            }
        }
        snapshot
    }

    /// Export the trace in Chrome-trace (Perfetto) JSON format: one
    /// duration event per kernel iteration, one track per kernel instance.
    /// Open the output in `ui.perfetto.dev` to browse the simulated
    /// execution the way `aiesim`'s trace viewer presents hardware runs.
    pub fn chrome_trace(&self, service_cycles: &std::collections::HashMap<String, u64>) -> String {
        cgsim_trace::export::chrome::chrome_trace_json(&self.iteration_snapshot(service_cycles))
    }

    /// Mean interval between iterations of one kernel instance, in ns.
    pub fn kernel_interval_ns(&self, instance: &str) -> Option<f64> {
        let node = self
            .kernel_nodes
            .iter()
            .find(|(n, _)| n == instance)
            .map(|(_, id)| *id)?;
        self.interval_ns(&self.trace.iterations_of(node))
    }

    /// Mean interval between the iteration completions `times` (cycles) of
    /// one kernel, in ns, discarding the pipeline-fill prefix.
    pub(crate) fn interval_ns(&self, times: &[u64]) -> Option<f64> {
        if times.len() < 2 {
            return None;
        }
        let skip = (times.len() / 4).max(1).min(times.len() - 2);
        let steady = &times[skip..];
        let span = (steady[steady.len() - 1] - steady[0]) as f64;
        Some(span / (steady.len() - 1) as f64 * self.config.ns_per_cycle())
    }
}

/// Simulate `graph` under `config`, processing `workload.blocks` blocks.
///
/// `profiles` must contain an entry for every kernel *kind* in the graph
/// whose port traffic matches the kernel's signature.
pub fn simulate_graph(
    graph: &FlatGraph,
    profiles: &HashMap<String, KernelCostProfile>,
    config: &SimConfig,
    workload: &WorkloadSpec,
) -> Result<GraphTrace, GraphError> {
    simulate_graph_traced(graph, profiles, config, workload, &Tracer::default())
}

/// [`simulate_graph`] with a live trace collector attached: the engine
/// emits the unified [`TraceEvent`] vocabulary (iteration completions,
/// channel push/pop/block, stalls, source/sink I/O) into `tracer` as it
/// runs, timestamped in simulated nanoseconds.
pub fn simulate_graph_traced(
    graph: &FlatGraph,
    profiles: &HashMap<String, KernelCostProfile>,
    config: &SimConfig,
    workload: &WorkloadSpec,
    tracer: &Tracer,
) -> Result<GraphTrace, GraphError> {
    let checked = CheckedGraph::new(graph)?;
    simulate_checked(&checked, profiles, config, workload, tracer)
}

/// [`simulate_graph_traced`] of a graph that passed the structural check,
/// setting up its FIFOs from the index the check kept.
pub(crate) fn simulate_checked(
    checked: &CheckedGraph,
    profiles: &HashMap<String, KernelCostProfile>,
    config: &SimConfig,
    workload: &WorkloadSpec,
    tracer: &Tracer,
) -> Result<GraphTrace, GraphError> {
    let graph = checked.graph();
    config.check()?;
    if workload.elems_per_block_in.len() != graph.inputs.len() {
        return Err(GraphError::IoArityMismatch {
            what: "inputs",
            expected: graph.inputs.len(),
            actual: workload.elems_per_block_in.len(),
        });
    }
    if workload.elems_per_block_out.len() != graph.outputs.len() {
        return Err(GraphError::IoArityMismatch {
            what: "outputs",
            expected: graph.outputs.len(),
            actual: workload.elems_per_block_out.len(),
        });
    }

    let mut sim = Sim::new()
        .with_event_budget(2_000_000_000)
        .with_cycle_stepping(config.cycle_stepping)
        .with_tracer(tracer.clone(), config.ns_per_cycle());

    // One FIFO per reader of each connector: its consuming ports in
    // kernel/port order, then the sink's when it is a global output.
    let topo = checked.topology();
    let fifos: Vec<Vec<FifoId>> = (graph.connectors.iter().enumerate())
        .map(|(ci, conn)| {
            let capacity = fifo_capacity(conn, config);
            (0..topo.readers(ConnectorId::new(ci)))
                .map(|_| sim.add_fifo(capacity))
                .collect()
        })
        .collect();
    // Kernels are visited in that same port order, so each connector's
    // next unclaimed FIFO belongs to the next input port reading it.
    let mut next_reader = vec![0; graph.connectors.len()];

    // Tiles.
    let mut kernel_nodes = Vec::with_capacity(graph.kernels.len());
    for k in &graph.kernels {
        let profile = profiles
            .get(&k.kind)
            .ok_or_else(|| GraphError::UnknownKernel {
                kind: k.kind.clone(),
            })?;
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        let mut in_idx = 0usize;
        let mut out_idx = 0usize;
        for p in &k.ports {
            let ci = p.connector.index();
            match p.dir {
                PortDir::In => {
                    let traffic =
                        profile
                            .inputs
                            .get(in_idx)
                            .ok_or_else(|| GraphError::ArityMismatch {
                                kernel: k.kind.clone(),
                                expected: in_idx + 1,
                                actual: profile.inputs.len(),
                            })?;
                    inputs.push((fifos[ci][next_reader[ci]], traffic.elems_per_iter));
                    next_reader[ci] += 1;
                    in_idx += 1;
                }
                PortDir::Out => {
                    let traffic =
                        profile
                            .outputs
                            .get(out_idx)
                            .ok_or_else(|| GraphError::ArityMismatch {
                                kernel: k.kind.clone(),
                                expected: out_idx + 1,
                                actual: profile.outputs.len(),
                            })?;
                    // Write into every reader's FIFO of the connector
                    // (broadcast), the sink's included.
                    outputs.extend(fifos[ci].iter().map(|&f| (f, traffic.elems_per_iter)));
                    out_idx += 1;
                }
            }
        }
        let service = profile.iteration_cycles(config);
        let node = sim.add_node(NodeKind::Tile {
            inputs,
            outputs,
            service,
        });
        sim.name_node(node, &k.instance);
        kernel_nodes.push((k.instance.clone(), node));
    }

    // PLIO/GMIO sources: one per (global input, consumer FIFO); each
    // injects at its interface rate in batches matching the consumer's
    // iteration granularity. The interface is chosen per connector via the
    // `io_interface` attribute (GMIO additionally pays a NoC/DDR
    // first-access latency).
    for (ii, &cid) in graph.inputs.iter().enumerate() {
        let ci = cid.index();
        let conn = &graph.connectors[ci];
        let interface = crate::config::IoInterface::of(conn);
        let (bw, initial_delay) = match interface {
            crate::config::IoInterface::Plio => (config.plio_bytes_per_aie_cycle(), 0),
            crate::config::IoInterface::Gmio => {
                (config.gmio_bytes_per_aie_cycle, config.gmio_latency_cycles)
            }
        };
        let total_elems = workload.blocks * workload.elems_per_block_in[ii];
        for (e, &fifo) in topo.consumers(cid).iter().zip(&fifos[ci]) {
            let k = &graph.kernels[e.kernel.index()];
            let profile = &profiles[&k.kind];
            let in_ordinal = k.ports[..e.port]
                .iter()
                .filter(|p| p.dir == PortDir::In)
                .count();
            let batch = profile.inputs[in_ordinal].elems_per_iter.max(1);
            let batch_bytes = batch * conn.dtype.size as u64;
            let period = ((batch_bytes as f64 / bw).ceil() as u64).max(1);
            let batches = total_elems.div_ceil(batch);
            let node = sim.add_node(NodeKind::Source {
                out: fifo,
                batch,
                period,
                batches,
                initial_delay,
            });
            if tracer.is_enabled() {
                sim.name_node(node, &format!("source_{ii}_{}", k.instance));
            }
        }
    }

    // PLIO sinks.
    for (oi, &cid) in graph.outputs.iter().enumerate() {
        let ci = cid.index();
        let node = sim.add_node(NodeKind::Sink {
            input: *fifos[ci].last().expect("a global output has a sink FIFO"),
            block_elems: workload.elems_per_block_out[oi].max(1),
        });
        if tracer.is_enabled() {
            sim.name_node(node, &format!("sink_{oi}"));
        }
    }

    let trace = sim.run();
    Ok(GraphTrace {
        trace,
        config: *config,
        kernel_nodes,
    })
}

fn fifo_capacity(conn: &cgsim_core::FlatConnector, config: &SimConfig) -> u64 {
    let elem_bytes = conn.dtype.size.max(1) as u64;
    match conn.kind {
        // Ping-pong window connections buffer two full windows.
        PortKind::Window => {
            let window_elems = (conn.settings.window_bytes as u64 / elem_bytes).max(1);
            let factor = if conn.settings.ping_pong { 2 } else { 1 };
            window_elems * factor
        }
        PortKind::RuntimeParam => 4,
        PortKind::Stream => conn.depth_or(config.fifo_depth) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::cost::PortTraffic;
    use aie_intrinsics::counter::metered;
    use aie_intrinsics::{AccF32, Vector};
    use cgsim_core::{GraphBuilder, KernelDecl, KernelMeta, PortSettings, PortSig, Realm};

    struct MacKernel;
    impl KernelDecl for MacKernel {
        const NAME: &'static str = "mac_kernel";
        const REALM: Realm = Realm::Aie;
        fn meta() -> KernelMeta {
            KernelMeta {
                name: Self::NAME.into(),
                realm: Self::REALM,
                ports: vec![
                    PortSig::read::<f32>("in", PortSettings::DEFAULT),
                    PortSig::write::<f32>("out", PortSettings::DEFAULT),
                ],
            }
        }
    }

    fn mac_profile(macs: u32) -> KernelCostProfile {
        let ((), ops) = metered(|| {
            let a = Vector::<f32, 8>::load(&[1.0; 8]);
            let mut acc = AccF32::<8>::zero();
            for _ in 0..macs {
                acc = acc.fpmac(a, a);
            }
            let mut out = [0.0; 8];
            acc.to_vector().store(&mut out);
        });
        let stream = |elems| PortTraffic {
            elems_per_iter: elems,
            elem_bytes: 4,
            kind: PortKind::Stream,
        };
        KernelCostProfile::measured(MacKernel::NAME, ops, vec![stream(8)], vec![stream(8)])
    }

    fn linear_graph() -> FlatGraph {
        GraphBuilder::build("lin", |g| {
            let a = g.input::<f32>("a");
            let b = g.wire::<f32>();
            let c = g.wire::<f32>();
            g.invoke::<MacKernel>(&[a.id(), b.id()])?;
            g.invoke::<MacKernel>(&[b.id(), c.id()])?;
            g.output(&c);
            Ok(())
        })
        .unwrap()
    }

    fn profiles(macs: u32) -> HashMap<String, KernelCostProfile> {
        let mut m = HashMap::new();
        m.insert(MacKernel::NAME.to_owned(), mac_profile(macs));
        m
    }

    fn workload(blocks: u64) -> WorkloadSpec {
        WorkloadSpec {
            blocks,
            elems_per_block_in: vec![64],
            elems_per_block_out: vec![64],
        }
    }

    #[test]
    fn linear_graph_produces_blocks() {
        let graph = linear_graph();
        let t = simulate_graph(
            &graph,
            &profiles(10),
            &SimConfig::hand_optimized(),
            &workload(16),
        )
        .unwrap();
        assert_eq!(t.trace.block_times.len(), 16);
        assert!(t.ns_per_block().unwrap() > 0.0);
        assert!(t.kernel_interval_ns("mac_kernel_0").unwrap() > 0.0);
    }

    #[test]
    fn extracted_variant_is_slower_for_stream_kernels() {
        let graph = linear_graph();
        let p = profiles(4); // lightweight kernel: stream access dominates
        let hand = simulate_graph(&graph, &p, &SimConfig::hand_optimized(), &workload(64))
            .unwrap()
            .ns_per_block()
            .unwrap();
        let extr = simulate_graph(&graph, &p, &SimConfig::extracted(), &workload(64))
            .unwrap()
            .ns_per_block()
            .unwrap();
        assert!(
            extr > hand,
            "extracted ({extr}) must be slower than hand-optimized ({hand})"
        );
        let rel = hand / extr;
        assert!(
            (0.5..1.0).contains(&rel),
            "relative throughput {rel} out of plausible range"
        );
    }

    #[test]
    fn compute_bound_kernels_shrink_the_gap() {
        // With heavy compute the fixed stream penalty amortises: relative
        // throughput approaches 1 — the paper's IIR-at-parity effect.
        let graph = linear_graph();
        let p = profiles(500);
        let hand = simulate_graph(&graph, &p, &SimConfig::hand_optimized(), &workload(32))
            .unwrap()
            .ns_per_block()
            .unwrap();
        let extr = simulate_graph(&graph, &p, &SimConfig::extracted(), &workload(32))
            .unwrap()
            .ns_per_block()
            .unwrap();
        let rel = hand / extr;
        assert!(rel > 0.95, "heavy kernel rel throughput {rel} should be ~1");
    }

    #[test]
    fn missing_profile_is_reported() {
        let graph = linear_graph();
        let err = simulate_graph(
            &graph,
            &HashMap::new(),
            &SimConfig::hand_optimized(),
            &workload(4),
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::UnknownKernel { .. }));
    }

    #[test]
    fn zero_fifo_depth_is_an_error_not_a_panic() {
        let mut config = SimConfig::extracted();
        config.fifo_depth = 0;
        let err = simulate_graph(&linear_graph(), &profiles(4), &config, &workload(4));
        assert_eq!(
            err.unwrap_err(),
            GraphError::ZeroDepth {
                field: "fifo_depth"
            }
        );
    }

    #[test]
    fn workload_arity_is_checked() {
        let graph = linear_graph();
        let bad = WorkloadSpec {
            blocks: 4,
            elems_per_block_in: vec![],
            elems_per_block_out: vec![64],
        };
        assert!(matches!(
            simulate_graph(&graph, &profiles(4), &SimConfig::hand_optimized(), &bad),
            Err(GraphError::IoArityMismatch { .. })
        ));
    }

    #[test]
    fn broadcast_graph_simulates() {
        struct Join2;
        impl KernelDecl for Join2 {
            const NAME: &'static str = "join2";
            const REALM: Realm = Realm::Aie;
            fn meta() -> KernelMeta {
                KernelMeta {
                    name: Self::NAME.into(),
                    realm: Self::REALM,
                    ports: vec![
                        PortSig::read::<f32>("a", PortSettings::DEFAULT),
                        PortSig::read::<f32>("b", PortSettings::DEFAULT),
                        PortSig::write::<f32>("out", PortSettings::DEFAULT),
                    ],
                }
            }
        }
        let graph = GraphBuilder::build("bcast", |g| {
            let a = g.input::<f32>("a");
            let x = g.wire::<f32>();
            let y = g.wire::<f32>();
            let z = g.wire::<f32>();
            g.invoke::<MacKernel>(&[a.id(), x.id()])?;
            g.invoke::<MacKernel>(&[a.id(), y.id()])?;
            g.invoke::<Join2>(&[x.id(), y.id(), z.id()])?;
            g.output(&z);
            Ok(())
        })
        .unwrap();
        let mut p = profiles(8);
        let ((), ops) = metered(|| {
            let a = Vector::<f32, 8>::load(&[1.0; 8]);
            let b = Vector::<f32, 8>::load(&[1.0; 8]);
            let _ = a + b;
        });
        let stream = |elems| PortTraffic {
            elems_per_iter: elems,
            elem_bytes: 4,
            kind: PortKind::Stream,
        };
        p.insert(
            "join2".into(),
            KernelCostProfile::measured("join2", ops, vec![stream(8), stream(8)], vec![stream(8)]),
        );
        let t = simulate_graph(&graph, &p, &SimConfig::hand_optimized(), &workload(8)).unwrap();
        assert_eq!(t.trace.block_times.len(), 8);
    }

    #[test]
    fn chrome_trace_exports_valid_json_per_iteration() {
        let graph = linear_graph();
        let p = profiles(10);
        let trace = simulate_graph(&graph, &p, &SimConfig::hand_optimized(), &workload(4)).unwrap();
        let services: std::collections::HashMap<String, u64> = trace
            .kernel_nodes
            .iter()
            .map(|(inst, _)| (inst.clone(), 10))
            .collect();
        let json = trace.chrome_trace(&services);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = parsed["traceEvents"].as_array().unwrap();
        // 2 kernels × (4 blocks × 64 elems / 8 per iter) iterations.
        assert_eq!(events.len(), 2 * 32);
        assert!(events.iter().all(|e| e["ph"] == "X"));
        assert!(events.iter().any(|e| e["tid"] == "mac_kernel_0"));
    }

    #[test]
    fn traced_simulation_matches_engine_trace() {
        let graph = linear_graph();
        let tracer = Tracer::enabled();
        let t = simulate_graph_traced(
            &graph,
            &profiles(10),
            &SimConfig::hand_optimized(),
            &workload(4),
            &tracer,
        )
        .unwrap();
        let snap = tracer.snapshot();
        assert!(snap.kernels.iter().any(|k| k == "mac_kernel_0"));
        assert!(snap.kernels.iter().any(|k| k == "sink_0"));
        // Live IterationEnd records agree with the engine's own trace.
        let counts = snap.iteration_counts();
        for (instance, node) in &t.kernel_nodes {
            let i = snap.kernels.iter().position(|n| n == instance).unwrap();
            assert_eq!(
                counts[i],
                t.trace.iterations_of(*node).len() as u64,
                "{instance}"
            );
        }
        // Channel traffic and block events made it through as well.
        let kinds: std::collections::HashSet<&'static str> =
            snap.records.iter().map(|r| r.event.kind()).collect();
        assert!(kinds.contains("channel_push"));
        assert!(kinds.contains("channel_pop"));
        assert!(kinds.contains("run_end"));
    }

    #[test]
    fn gmio_inputs_pay_noc_latency() {
        // Same graph, one run with the input marked as GMIO: total end
        // time grows by roughly the configured first-access latency, and
        // the steady-state block rate is unaffected (GMIO bandwidth exceeds
        // this kernel's demand).
        let build = |gmio: bool| {
            GraphBuilder::build("lin", |g| {
                let a = g.input::<f32>("a");
                let b = g.wire::<f32>();
                if gmio {
                    g.attr(&a, "io_interface", "gmio");
                }
                g.invoke::<MacKernel>(&[a.id(), b.id()])?;
                g.output(&b);
                Ok(())
            })
            .unwrap()
        };
        let p = profiles(32);
        let cfg = SimConfig::hand_optimized();
        let plio = simulate_graph(&build(false), &p, &cfg, &workload(32)).unwrap();
        let gmio = simulate_graph(&build(true), &p, &cfg, &workload(32)).unwrap();
        // The delta is the NoC latency minus GMIO's slightly faster batch
        // period (6.4 vs 4 B/cycle on the last in-flight batch).
        let delta = gmio.trace.end_time as i64 - plio.trace.end_time as i64;
        assert!(
            (delta - cfg.gmio_latency_cycles as i64).abs() <= 8,
            "latency delta {delta} vs configured {}",
            cfg.gmio_latency_cycles
        );
        let a = plio.cycles_per_block().unwrap();
        let b = gmio.cycles_per_block().unwrap();
        assert!((a - b).abs() < 1.0, "steady state changed: {a} vs {b}");
    }

    #[test]
    fn variant_penalty_is_configurable() {
        let graph = linear_graph();
        let p = profiles(4);
        let mild = SimConfig {
            variant: Variant::Extracted {
                stream_access_penalty_milli: 100,
                iter_penalty: 1,
            },
            ..SimConfig::hand_optimized()
        };
        let harsh = SimConfig {
            variant: Variant::Extracted {
                stream_access_penalty_milli: 2000,
                iter_penalty: 50,
            },
            ..SimConfig::hand_optimized()
        };
        let t_mild = simulate_graph(&graph, &p, &mild, &workload(32))
            .unwrap()
            .ns_per_block()
            .unwrap();
        let t_harsh = simulate_graph(&graph, &p, &harsh, &workload(32))
            .unwrap()
            .ns_per_block()
            .unwrap();
        assert!(t_harsh > t_mild);
    }
}
