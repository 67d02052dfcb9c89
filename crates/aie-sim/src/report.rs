//! Human-readable simulation reports.
//!
//! AMD's flow surfaces per-kernel utilization and timing through the Vitis
//! AIE profiler and `aiesim` trace reports; this module renders the
//! equivalent views from a [`GraphTrace`]: per-kernel iteration counts,
//! busy cycles, utilization against the simulated span, and block timing.

use crate::config::SimConfig;
use crate::cost::KernelCostProfile;
use crate::graphsim::GraphTrace;
use cgsim_trace::export::summary::{KernelRow, SummaryTable};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-kernel summary extracted from a trace; also the per-kernel row of
/// a served report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelReport {
    /// Kernel instance name.
    pub instance: String,
    /// Completed iterations.
    pub iterations: u64,
    /// Busy cycles (iterations × service time).
    pub busy_cycles: u64,
    /// Busy fraction of the total simulated span (0..=1).
    pub utilization: f64,
    /// Mean interval between iteration completions, in ns.
    #[serde(default)]
    pub interval_ns: Option<f64>,
    /// Blocked iteration attempts (input empty / output full) — the
    /// per-kernel stall statistic hardware profilers report.
    pub stalls: u64,
}

/// Full report over one simulation.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Per-kernel rows, in graph order.
    pub kernels: Vec<KernelReport>,
    /// Steady-state ns per output block.
    pub ns_per_block: Option<f64>,
    /// Total simulated time in ns.
    pub total_ns: f64,
    /// Blocks delivered.
    pub blocks: usize,
}

impl SimReport {
    /// Build the report from a trace and the cost profiles that were used
    /// to run it (needed for service times). `kinds` maps instance → kind.
    pub fn build(
        trace: &GraphTrace,
        profiles: &HashMap<String, KernelCostProfile>,
        kinds: &HashMap<String, String>,
        config: &SimConfig,
    ) -> SimReport {
        let end = trace.trace.end_time.max(1);
        let by_node = trace.trace.iterations_by_node();
        let kernels = trace
            .kernel_nodes
            .iter()
            .map(|(instance, node)| {
                let times = &by_node[*node];
                let iterations = times.len() as u64;
                let service = kinds
                    .get(instance)
                    .and_then(|kind| profiles.get(kind))
                    .map(|p| p.iteration_cycles(config))
                    .unwrap_or(0);
                let busy_cycles = iterations * service;
                KernelReport {
                    instance: instance.clone(),
                    iterations,
                    busy_cycles,
                    utilization: busy_cycles as f64 / end as f64,
                    interval_ns: trace.interval_ns(times),
                    stalls: trace.trace.stalls.get(*node).copied().unwrap_or(0),
                }
            })
            .collect();
        SimReport {
            kernels,
            ns_per_block: trace.ns_per_block(),
            total_ns: config.cycles_to_ns(trace.trace.end_time),
            blocks: trace.trace.block_times.len(),
        }
    }

    /// View the report as the shared summary table used by both engines.
    pub fn to_table(&self) -> SummaryTable {
        SummaryTable {
            rows: self
                .kernels
                .iter()
                .map(|k| KernelRow {
                    name: k.instance.clone(),
                    iterations: k.iterations,
                    busy: k.busy_cycles,
                    utilization: k.utilization,
                    interval_ns: k.interval_ns,
                    stalls: k.stalls,
                })
                .collect(),
            busy_label: "busy cycles",
            total_ns: self.total_ns,
            blocks: self.blocks,
            ns_per_block: self.ns_per_block,
            ..Default::default()
        }
    }

    /// Render the report as a fixed-width text table.
    pub fn render(&self) -> String {
        self.to_table().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::cost::PortTraffic;
    use crate::graphsim::{simulate_graph, WorkloadSpec};
    use cgsim_core::{
        GraphBuilder, KernelDecl, KernelMeta, PortKind, PortSettings, PortSig, Realm,
    };

    struct K;
    impl KernelDecl for K {
        const NAME: &'static str = "k";
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

    fn setup() -> SimReport {
        let graph = GraphBuilder::build("rep", |g| {
            let a = g.input::<f32>("a");
            let b = g.wire::<f32>();
            let c = g.wire::<f32>();
            g.invoke::<K>(&[a.id(), b.id()])?;
            g.invoke::<K>(&[b.id(), c.id()])?;
            g.output(&c);
            Ok(())
        })
        .unwrap();
        let stream = |elems: u64| PortTraffic {
            elems_per_iter: elems,
            elem_bytes: 4,
            kind: PortKind::Stream,
        };
        let mut profiles = HashMap::new();
        profiles.insert(
            "k".to_owned(),
            KernelCostProfile::measured("k", Default::default(), vec![stream(8)], vec![stream(8)]),
        );
        let config = SimConfig::hand_optimized();
        let trace = simulate_graph(
            &graph,
            &profiles,
            &config,
            &WorkloadSpec {
                blocks: 16,
                elems_per_block_in: vec![32],
                elems_per_block_out: vec![32],
            },
        )
        .unwrap();
        let kinds: HashMap<String, String> = graph
            .kernels
            .iter()
            .map(|k| (k.instance.clone(), k.kind.clone()))
            .collect();
        SimReport::build(&trace, &profiles, &kinds, &config)
    }

    #[test]
    fn report_counts_iterations() {
        let r = setup();
        assert_eq!(r.kernels.len(), 2);
        // 16 blocks × 32 elems / 8 per iter = 64 iterations each.
        assert_eq!(r.kernels[0].iterations, 64);
        assert_eq!(r.kernels[1].iterations, 64);
        assert_eq!(r.blocks, 16);
        assert!(r.ns_per_block.unwrap() > 0.0);
    }

    #[test]
    fn utilization_is_bounded() {
        let r = setup();
        for k in &r.kernels {
            assert!(
                (0.0..=1.01).contains(&k.utilization),
                "{}: {}",
                k.instance,
                k.utilization
            );
            assert!(k.busy_cycles > 0);
        }
    }

    #[test]
    fn render_lists_every_kernel() {
        let r = setup();
        let text = r.render();
        assert!(text.contains("k_0"));
        assert!(text.contains("k_1"));
        assert!(text.contains("ns/block"));
    }
}
