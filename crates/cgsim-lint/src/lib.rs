//! # cgsim-lint — ahead-of-run static analysis for compute graphs
//!
//! The paper's flow trusts the `constexpr`-serialized graph descriptor and
//! discovers topology mistakes only when the simulation stalls or
//! `aiecompiler` rejects the design. This crate moves those discoveries
//! ahead of any execution: [`lint_graph`] runs a suite of passes over a
//! [`FlatGraph`] and returns a [`LintReport`] of coded diagnostics;
//! [`lint_checked`] runs the passes past the structural one over a
//! [`CheckedGraph`].
//!
//! ## Lint codes
//!
//! | Code | Severity | Finding |
//! |------|----------|---------|
//! | `CG001`–`CG011` | Error | Structural invariants shared with [`cgsim_core::GraphError`] (type/arity mismatches, dangling or unconsumed connectors, out-of-range ids, …) |
//! | `CG012` | Error | Graph rejected by a deny-by-default lint gate (carried by `GraphError::LintRejected`) |
//! | `CG013` | Error | A connector's stored settings disagree with what its endpoints declare |
//! | `CG014` | Error | A simulator configuration's default `fifo_depth` is 0 (a `GraphError` from `aie-sim`, not a lint pass) |
//! | `CG020` | Error | Feedback cycle with no external token source: guaranteed deadlock |
//! | `CG021` | Warn | Feedback cycle primed from outside: correct only with priming tokens |
//! | `CG022` | Error | Stream channel capacity below one firing's token demand |
//! | `CG030` | Error | SDF rate-balance violation: firing-vector equations are inconsistent |
//! | `CG040` | Warn | Kernel unreachable from any global input |
//! | `CG041` | Warn | Kernel output can never reach a global output |
//! | `CG042` | Warn | Broadcast fan-out feeding a dead branch |
//! | `CG043` | Warn | Merge fan-in: output order is schedule-dependent (multiset oracle only) |
//! | `CG050` | Error | More AIE kernels than device tiles |
//! | `CG051` | Error | Kernel window buffers exceed per-tile data memory |
//! | `CG052` | Error | Kernel exceeds per-core stream-port budget |
//! | `CG060` | Info | Per-connector worst-case occupancy / period-traffic bounds (with [`LintConfig::emit_bounds`]) |
//! | `CG061` | Warn | Declared channel capacity below the minimal deadlock-free SDF bound |
//! | `CG062` | Info | Critical-path latency and steady-state throughput bounds (with [`LintConfig::emit_bounds`]) |
//! | `CG063` | Info | Bounds unavailable: no firing vector or cyclic dataflow (with [`LintConfig::emit_bounds`]) |
//! | `CG064` | Info | Schedule period too large for cheap period-unrolled analysis (with [`LintConfig::emit_bounds`]) |
//!
//! Consumers: the `cgsim-lint` CLI binary (umbrella crate), the
//! deny-by-default verify hooks in `cgsim-runtime::RuntimeContext` and
//! `aie-sim::deploy`, the extractor (report embedded in generated headers)
//! and the `conform` fuzzing driver (fail-fast on generator drift).

#![warn(missing_docs)]

pub mod config;
pub mod diag;
mod passes;
pub mod style;

pub use config::{LintConfig, RealmBudgets};
pub use diag::{Anchor, Diagnostic, LintReport, Severity};
pub use passes::bounds::{cost_estimate, occupancy_bounds, workload_tokens};
pub use passes::port_rate;
pub use style::{bounds_labels, dot_style};

use cgsim_core::{CheckedGraph, FlatGraph, GraphError, Topology};

/// What to do with Error-severity lint findings before running or deploying
/// a graph.
///
/// This is the policy knob shared by every lint gate in the workspace: the
/// runtime's ahead-of-run verification (`cgsim-runtime`), the deployment
/// gate (`aie-sim`), and the `RunSpec` launch API all consume it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum VerifyPolicy {
    /// Refuse to proceed (`cgsim_core::GraphError::LintRejected`, code
    /// `CG012`). The default: a graph the verifier can prove broken —
    /// deadlocked, rate-imbalanced, over budget — should not burn a run.
    #[default]
    Deny,
    /// Print the report to stderr and proceed anyway.
    Warn,
    /// Skip the ahead-of-run verification entirely.
    Off,
}

impl VerifyPolicy {
    /// Apply this policy to `report`, the lint verdict on `graph` — the one
    /// gate every caller shares. `Deny` rejects a report with Error-severity
    /// findings as [`GraphError::LintRejected`] (`CG012`); `Warn` prints
    /// such a report to stderr and returns `Ok`; `Off` always returns `Ok`,
    /// so callers skip linting altogether under it.
    pub fn gate(self, report: &LintReport, graph: &FlatGraph) -> Result<(), GraphError> {
        match self {
            _ if !report.has_errors() => Ok(()),
            VerifyPolicy::Deny => Err(GraphError::LintRejected {
                errors: report.error_count(),
                report: report.render_human(graph),
            }),
            VerifyPolicy::Warn => {
                eprintln!(
                    "warning: proceeding despite lint errors:\n{}",
                    report.render_human(graph)
                );
                Ok(())
            }
            VerifyPolicy::Off => Ok(()),
        }
    }
}

/// Run every lint pass over `graph`, which may be broken, and collect the
/// findings.
///
/// Passes run in order: structural integrity (`CG00x`), reachability
/// (`CG040`/`CG041`), deadlock and capacity (`CG02x`), rate balance
/// (`CG030`), dataflow shape (`CG042`/`CG043`), realm budgets (`CG05x`),
/// static bounds (`CG06x`, which also attaches [`LintReport::bounds`]).
/// If the descriptor has out-of-range indices the structural findings are
/// returned alone — the deeper passes cannot index into a corrupt graph.
/// One [`Topology`] is built, and the structural pass and every later pass
/// read it, so the whole run is linear in the graph.
pub fn lint_graph(graph: &FlatGraph, config: &LintConfig) -> LintReport {
    let topo = Topology::of(graph);
    let mut report = LintReport::new(&graph.name);
    if !passes::structural(graph, &topo, &mut report) {
        passes::deep(graph, &topo, config, &mut report);
    }
    report
}

/// [`lint_graph`] of a graph that passed the structural check: the deeper
/// passes over the index it keeps. The report is the one [`lint_graph`]
/// renders for the same graph.
pub fn lint_checked(checked: &CheckedGraph, config: &LintConfig) -> LintReport {
    let graph = checked.graph();
    let mut report = LintReport::new(&graph.name);
    passes::deep(graph, checked.topology(), config, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_core::{
        AttrList, ConnectorId, DTypeDesc, FlatConnector, FlatGraph, FlatKernel, FlatPort, PortDir,
        PortKind, PortSettings, Realm,
    };

    fn dtype() -> DTypeDesc {
        DTypeDesc::of::<i32>()
    }

    fn port(name: &str, dir: PortDir, c: usize) -> FlatPort {
        FlatPort {
            name: name.into(),
            dir,
            dtype: dtype(),
            settings: PortSettings::DEFAULT,
            connector: ConnectorId::new(c),
            rate: 0,
        }
    }

    fn kernel(instance: &str, ports: Vec<FlatPort>) -> FlatKernel {
        FlatKernel {
            kind: instance.split('_').next().unwrap().into(),
            instance: instance.into(),
            realm: Realm::Aie,
            ports,
        }
    }

    fn connector() -> FlatConnector {
        FlatConnector {
            dtype: dtype(),
            settings: PortSettings::DEFAULT,
            kind: PortKind::Stream,
            attrs: AttrList::new(),
        }
    }

    /// input c0 → k_0 → c1 → k_1 → c2 (output): lints clean.
    fn pipeline() -> FlatGraph {
        FlatGraph {
            name: "pipe".into(),
            kernels: vec![
                kernel(
                    "k_0",
                    vec![port("in", PortDir::In, 0), port("out", PortDir::Out, 1)],
                ),
                kernel(
                    "k_1",
                    vec![port("in", PortDir::In, 1), port("out", PortDir::Out, 2)],
                ),
            ],
            connectors: vec![connector(), connector(), connector()],
            inputs: vec![ConnectorId::new(0)],
            outputs: vec![ConnectorId::new(2)],
        }
    }

    #[test]
    fn clean_pipeline_has_no_findings() {
        let r = lint_graph(&pipeline(), &LintConfig::default());
        assert!(r.is_clean(), "{}", r.render_human(&pipeline()));
    }

    #[test]
    fn structural_findings_are_collected_not_first_only() {
        let mut g = pipeline();
        g.connectors[1].dtype = DTypeDesc::of::<f64>(); // CG001 twice (both endpoints)
        g.outputs.push(ConnectorId::new(2)); // CG007
        let r = lint_graph(&g, &LintConfig::default());
        assert!(r.codes().contains("CG001"));
        assert!(r.codes().contains("CG007"));
        assert!(r.error_count() >= 3);
    }

    #[test]
    fn out_of_range_index_aborts_deeper_passes() {
        let mut g = pipeline();
        g.kernels[0].ports[1].connector = ConnectorId::new(99);
        let r = lint_graph(&g, &LintConfig::default());
        assert!(r.codes().contains("CG006"));
        // Only structural findings present: nothing from CG02x/CG04x.
        assert!(r.codes().iter().all(|c| c <= &"CG011".to_owned()));
    }

    /// k_0 reads input c0 and feedback c2, writes output c1 and c2: an
    /// unprimed loop, so the graph deadlocks (CG020).
    fn unprimed_feedback() -> FlatGraph {
        FlatGraph {
            name: "dead".into(),
            kernels: vec![kernel(
                "k_0",
                vec![
                    port("a", PortDir::In, 0),
                    port("fb", PortDir::In, 2),
                    port("out", PortDir::Out, 1),
                    port("fb_out", PortDir::Out, 2),
                ],
            )],
            connectors: vec![connector(), connector(), connector()],
            inputs: vec![ConnectorId::new(0)],
            outputs: vec![ConnectorId::new(1)],
        }
    }

    #[test]
    fn every_policy_gates_clean_and_deadlocked_graphs() {
        let gate = |policy: VerifyPolicy, g: &FlatGraph| {
            policy.gate(&lint_graph(g, &LintConfig::default()), g)
        };
        for policy in [VerifyPolicy::Deny, VerifyPolicy::Warn, VerifyPolicy::Off] {
            assert!(gate(policy, &pipeline()).is_ok(), "{policy:?}");
        }
        let err = gate(VerifyPolicy::Deny, &unprimed_feedback()).unwrap_err();
        assert_eq!(err.code(), "CG012");
        assert!(err.to_string().contains("CG020"), "{err}");
        assert!(gate(VerifyPolicy::Warn, &unprimed_feedback()).is_ok());
        assert!(gate(VerifyPolicy::Off, &unprimed_feedback()).is_ok());
    }

    #[test]
    fn unprimed_feedback_cycle_is_cg020() {
        let g = unprimed_feedback();
        let r = lint_graph(&g, &LintConfig::default());
        assert!(r.has_errors());
        assert!(r.codes().contains("CG020"), "{}", r.render_human(&g));
    }

    #[test]
    fn primed_feedback_cycle_is_cg021_warn_only() {
        // Same loop but the feedback connector is also a global input.
        let g = FlatGraph {
            name: "primed".into(),
            kernels: vec![kernel(
                "k_0",
                vec![
                    port("a", PortDir::In, 0),
                    port("fb", PortDir::In, 2),
                    port("out", PortDir::Out, 1),
                    port("fb_out", PortDir::Out, 2),
                ],
            )],
            connectors: vec![connector(), connector(), connector()],
            inputs: vec![ConnectorId::new(0), ConnectorId::new(2)],
            outputs: vec![ConnectorId::new(1)],
        };
        let r = lint_graph(&g, &LintConfig::default());
        assert!(!r.has_errors(), "{}", r.render_human(&g));
        assert!(r.codes().contains("CG021"));
    }

    #[test]
    fn two_kernel_cycle_detected() {
        // k_0 → c1 → k_1 → c2 → k_0, no external source on the loop wires.
        let g = FlatGraph {
            name: "loop2".into(),
            kernels: vec![
                kernel(
                    "k_0",
                    vec![
                        port("a", PortDir::In, 0),
                        port("fb", PortDir::In, 2),
                        port("out", PortDir::Out, 1),
                        port("res", PortDir::Out, 3),
                    ],
                ),
                kernel(
                    "k_1",
                    vec![port("in", PortDir::In, 1), port("out", PortDir::Out, 2)],
                ),
            ],
            connectors: vec![connector(), connector(), connector(), connector()],
            inputs: vec![ConnectorId::new(0)],
            outputs: vec![ConnectorId::new(3)],
        };
        let r = lint_graph(&g, &LintConfig::default());
        let report = r.render_human(&g);
        assert!(r.codes().contains("CG020"), "{report}");
        assert!(
            report.contains("k_0 → k_1") || report.contains("k_0"),
            "{report}"
        );
    }

    #[test]
    fn capacity_below_rate_is_cg022() {
        let mut g = pipeline();
        g.kernels[1].ports[0].rate = 8; // k_1 pops 8 per firing …
        g.connectors[1].settings = PortSettings::new().depth(4); // … from a 4-deep channel
        g.kernels[0].ports[1].settings = PortSettings::new().depth(4);
        let r = lint_graph(&g, &LintConfig::default());
        assert!(r.codes().contains("CG022"), "{}", r.render_human(&g));
    }

    #[test]
    fn rate_imbalance_is_cg030() {
        // k_0 pushes 2 per firing, k_1 pops 3: fine in isolation (firing
        // ratio 2/3) — so pin both kernels together through a second
        // 1:1 connector to force the contradiction.
        let mut g = pipeline();
        g.kernels[0].ports.push(port("aux_out", PortDir::Out, 3));
        g.kernels[1].ports.push(port("aux_in", PortDir::In, 3));
        g.connectors.push(connector());
        g.kernels[0].ports[1].rate = 2;
        g.kernels[1].ports[0].rate = 3;
        let r = lint_graph(&g, &LintConfig::default());
        assert!(r.codes().contains("CG030"), "{}", r.render_human(&g));
    }

    #[test]
    fn firing_vector_exposed_for_balanced_graphs() {
        // 1:1 pipeline: both kernels fire once per period.
        let r = lint_graph(&pipeline(), &LintConfig::default());
        let v = r.firing_vector().expect("balanced graph has a vector");
        assert_eq!(v.counts, vec![1, 1]);

        // k_0 produces 2/firing, k_1 consumes 3/firing on their only shared
        // edge: consistent, with minimal integer firings 3 and 2.
        let mut g = pipeline();
        g.kernels[0].ports[1].rate = 2;
        g.kernels[1].ports[0].rate = 3;
        let r = lint_graph(&g, &LintConfig::default());
        assert!(!r.codes().contains("CG030"), "{}", r.render_human(&g));
        let v = r.firing_vector().expect("consistent rates have a vector");
        assert_eq!(v.counts, vec![3, 2]);
    }

    #[test]
    fn firing_vector_absent_on_imbalance_and_structural_abort() {
        // Rate contradiction (same construction as rate_imbalance_is_cg030):
        // CG030 present, vector withheld.
        let mut g = pipeline();
        g.kernels[0].ports.push(port("aux_out", PortDir::Out, 3));
        g.kernels[1].ports.push(port("aux_in", PortDir::In, 3));
        g.connectors.push(connector());
        g.kernels[0].ports[1].rate = 2;
        g.kernels[1].ports[0].rate = 3;
        let r = lint_graph(&g, &LintConfig::default());
        assert!(r.codes().contains("CG030"));
        assert!(r.firing_vector().is_none());

        // Structural abort: the rate pass never runs, so no vector either.
        let mut g = pipeline();
        g.kernels[0].ports[1].connector = ConnectorId::new(99);
        let r = lint_graph(&g, &LintConfig::default());
        assert!(r.firing_vector().is_none());
    }

    #[test]
    fn declared_port_rates_feed_the_rate_pass() {
        let mut g = pipeline();
        g.kernels[0].ports.push(port("aux_out", PortDir::Out, 3));
        g.kernels[1].ports.push(port("aux_in", PortDir::In, 3));
        g.connectors.push(connector());
        // Undeclared rates default to 1: the graph is balanced.
        assert_eq!(port_rate(&g, 0, 1), 1);
        assert!(lint_graph(&g, &LintConfig::default()).is_clean());
        // Every "k" port declares its rate (in 3, out 2, aux 1): c1 forces
        // f0·2 = f1·3 while c3 forces f0 = f1.
        for k in &mut g.kernels {
            for (p, rate) in k.ports.iter_mut().zip([3, 2, 1]) {
                p.rate = rate;
            }
        }
        assert_eq!(port_rate(&g, 0, 1), 2);
        let r = lint_graph(&g, &LintConfig::default());
        assert!(r.codes().contains("CG030"), "{}", r.render_human(&g));
    }

    #[test]
    fn dead_branches_warn_cg040_cg041_cg042() {
        // c1 broadcasts to k_1 (live) and k_2 (writes c3 which nobody
        // reads — but make c3 an output-less sink connector read by k_3
        // that drops it). Simpler: k_2 writes c3, k_3 reads c3, writes
        // nothing onward? Every connector must be consumed; so give k_2's
        // output to k_3 which has no outputs (a sink kernel is bwd-live by
        // definition). Instead make the dead branch via an unreachable
        // kernel: k_2 reads c3 which no input feeds.
        let mut g = pipeline();
        g.kernels.push(kernel(
            "k_2",
            vec![port("in", PortDir::In, 3), port("out", PortDir::Out, 4)],
        ));
        g.kernels.push(kernel(
            "k_3",
            vec![port("in", PortDir::In, 4), port("out", PortDir::Out, 3)],
        ));
        g.connectors.push(connector());
        g.connectors.push(connector());
        let r = lint_graph(&g, &LintConfig::default());
        assert!(r.codes().contains("CG040")); // k_2/k_3 unreachable
        assert!(r.codes().contains("CG041")); // their work never drains
                                              // In a structurally valid graph, an unreachable region necessarily
                                              // feeds itself — the deadlock pass flags the sealed loop too.
        assert!(r.codes().contains("CG020"));
    }

    #[test]
    fn broadcast_into_dead_branch_warns_cg042() {
        let mut g = pipeline();
        // k_2 also reads c1 (broadcast) but its output c3 only feeds k_3,
        // whose output goes back to k_2: a sealed sub-loop that can't reach
        // the global output.
        g.kernels.push(kernel(
            "k_2",
            vec![port("in", PortDir::In, 1), port("out", PortDir::Out, 3)],
        ));
        g.kernels.push(kernel(
            "k_3",
            vec![port("in", PortDir::In, 3), port("out", PortDir::Out, 4)],
        ));
        g.kernels[2].ports.push(port("loop_in", PortDir::In, 4));
        g.connectors.push(connector());
        g.connectors.push(connector());
        let r = lint_graph(&g, &LintConfig::default());
        assert!(r.codes().contains("CG042"), "{}", r.render_human(&g));
    }

    #[test]
    fn merge_warns_cg043() {
        let mut g = pipeline();
        // Second producer onto c1.
        g.kernels.push(kernel(
            "k_2",
            vec![port("in", PortDir::In, 0), port("out", PortDir::Out, 1)],
        ));
        let r = lint_graph(&g, &LintConfig::default());
        assert!(!r.has_errors());
        assert!(r.codes().contains("CG043"));
    }

    #[test]
    fn tile_count_overflow_is_cg050() {
        // A chain of one AIE kernel more than the VC1902 has tiles.
        let n = RealmBudgets::VC1902.aie_tiles + 1;
        let chain = |i: usize| vec![port("in", PortDir::In, i), port("out", PortDir::Out, i + 1)];
        let g = FlatGraph {
            name: "long".into(),
            kernels: (0..n)
                .map(|i| kernel(&format!("k_{i}"), chain(i)))
                .collect(),
            connectors: (0..=n).map(|_| connector()).collect(),
            inputs: vec![ConnectorId::new(0)],
            outputs: vec![ConnectorId::new(n)],
        };
        let r = lint_graph(&g, &LintConfig::default());
        assert!(r.codes().contains("CG050"), "{}", r.render_human(&g));
    }

    #[test]
    fn window_memory_overflow_is_cg051_with_ping_pong_doubling() {
        let mut g = pipeline();
        // 20 KiB ping-pong window = 40 KiB > 32 KiB tile memory. Settings
        // must agree across endpoints and the connector (merge rules).
        let w = PortSettings::new().window_bytes(20 * 1024).ping_pong();
        g.kernels[0].ports[1].settings = w;
        g.kernels[1].ports[0].settings = w;
        g.connectors[1].settings = w;
        g.connectors[1].kind = PortKind::Window;
        let r = lint_graph(&g, &LintConfig::default());
        assert!(r.codes().contains("CG051"), "{}", r.render_human(&g));
        // Exactly at the budget (2 × 8 KiB ping-pong = 32 KiB) is fine —
        // the paper's IIR graph sits precisely there.
        let w = PortSettings::new().window_bytes(8 * 1024).ping_pong();
        let mut g2 = pipeline();
        g2.kernels[1].ports[0].settings = w;
        g2.kernels[1].ports[1].settings = w;
        g2.connectors[1].settings = w;
        g2.connectors[1].kind = PortKind::Window;
        g2.connectors[2].settings = w;
        g2.connectors[2].kind = PortKind::Window;
        g2.kernels[0].ports[1].settings = w;
        let r2 = lint_graph(&g2, &LintConfig::default());
        assert!(!r2.codes().contains("CG051"), "{}", r2.render_human(&g2));
    }

    #[test]
    fn stream_port_overflow_is_cg052() {
        // Three stream inputs on one kernel (budget: 2).
        let g = FlatGraph {
            name: "wide".into(),
            kernels: vec![kernel(
                "k_0",
                vec![
                    port("a", PortDir::In, 0),
                    port("b", PortDir::In, 1),
                    port("c", PortDir::In, 2),
                    port("out", PortDir::Out, 3),
                ],
            )],
            connectors: vec![connector(), connector(), connector(), connector()],
            inputs: vec![
                ConnectorId::new(0),
                ConnectorId::new(1),
                ConnectorId::new(2),
            ],
            outputs: vec![ConnectorId::new(3)],
        };
        let r = lint_graph(&g, &LintConfig::default());
        assert!(r.codes().contains("CG052"), "{}", r.render_human(&g));
    }

    #[test]
    fn non_aie_kernels_are_exempt_from_budgets() {
        let mut g = pipeline();
        let w = PortSettings::new().window_bytes(40 * 1024);
        g.kernels[0].realm = Realm::NoExtract;
        g.kernels[0].ports[1].settings = w;
        g.kernels[1].ports[0].settings = w;
        g.connectors[1].settings = w;
        g.connectors[1].kind = PortKind::Window;
        g.kernels[1].realm = Realm::Hls;
        let r = lint_graph(&g, &LintConfig::default());
        assert!(!r.codes().contains("CG051"), "{}", r.render_human(&g));
    }

    #[test]
    fn bounds_attached_for_rate_consistent_graphs() {
        use cgsim_core::Rational;
        let r = lint_graph(&pipeline(), &LintConfig::default());
        let b = r.bounds().expect("rate-consistent pipeline has bounds");
        assert_eq!(b.connectors.len(), 3);
        for c in &b.connectors {
            assert_eq!(c.period_tokens, 1);
            assert_eq!(c.min_capacity, 1);
            assert_eq!(c.effective_capacity, u64::from(LintConfig::FALLBACK_DEPTH));
        }
        assert_eq!(b.period_firings, 2);
        assert_eq!(b.critical_path_firings, 2);
        assert_eq!(b.throughput, Rational::new(1, 2));
        // Bounds data rides along silently by default …
        assert!(r.is_clean(), "{}", r.render_human(&pipeline()));
        // … and `emit_bounds` surfaces the Info findings.
        let r = lint_graph(&pipeline(), &LintConfig::default().with_bounds());
        assert!(
            r.codes().contains("CG060"),
            "{}",
            r.render_human(&pipeline())
        );
        assert!(r.codes().contains("CG062"));
        assert!(!r.has_errors());
    }

    #[test]
    fn capacity_below_sdf_minimum_warns_cg061() {
        // Rates 2:3 need p + c − gcd = 4 slots; depth 3 satisfies the
        // single-firing demand (no CG022) but not the SDF minimum.
        let mut g = pipeline();
        g.kernels[0].ports[1].rate = 2;
        g.kernels[1].ports[0].rate = 3;
        g.connectors[1].settings = PortSettings::new().depth(3);
        let r = lint_graph(&g, &LintConfig::default());
        assert!(!r.codes().contains("CG022"), "{}", r.render_human(&g));
        assert!(r.codes().contains("CG061"), "{}", r.render_human(&g));
        assert!(!r.has_errors());
        // Depth 4 meets the bound: no warning.
        g.connectors[1].settings = PortSettings::new().depth(4);
        let r = lint_graph(&g, &LintConfig::default());
        assert!(!r.codes().contains("CG061"), "{}", r.render_human(&g));
    }

    #[test]
    fn cyclic_graph_reports_cg063_instead_of_bounds() {
        // Primed feedback loop: rate-consistent but cyclic — no bounds.
        let g = FlatGraph {
            name: "primed".into(),
            kernels: vec![kernel(
                "k_0",
                vec![
                    port("a", PortDir::In, 0),
                    port("fb", PortDir::In, 2),
                    port("out", PortDir::Out, 1),
                    port("fb_out", PortDir::Out, 2),
                ],
            )],
            connectors: vec![connector(), connector(), connector()],
            inputs: vec![ConnectorId::new(0), ConnectorId::new(2)],
            outputs: vec![ConnectorId::new(1)],
        };
        let r = lint_graph(&g, &LintConfig::default().with_bounds());
        assert!(r.bounds().is_none());
        assert!(r.codes().contains("CG063"), "{}", r.render_human(&g));
    }

    #[test]
    fn workload_functions_predict_pipeline_traffic() {
        let g = pipeline();
        let g = CheckedGraph::new(&g).unwrap();
        let cfg = LintConfig::default();
        // 10 elements in → 10 across every connector of a 1:1 pipeline.
        assert_eq!(workload_tokens(&g, &[10]), Some(vec![10, 10, 10]));
        // Occupancy bound: a starved channel fills to the workload,
        // capacity permitting.
        let bounds = |feed| occupancy_bounds(&g, &cfg, &[feed]);
        assert_eq!(bounds(10), Some(vec![10, 10, 10]));
        assert_eq!(
            bounds(100),
            Some(vec![64, 64, 64]),
            "capacity caps the bound"
        );
        let cost = cost_estimate(&g, &[10]).unwrap();
        assert_eq!(cost.tokens, 30);
        assert_eq!(cost.firings, 20);
        assert!(cost.polls_hint >= cost.firings + 2 * cost.tokens);
    }

    #[test]
    fn occupancy_bound_ignores_sibling_coupling_through_forks() {
        // in c0 → k_0 forks to c1 and c2; k_1 zips both back to c3. A
        // frozen-consumer model would bound c1 at the sibling's depth 2
        // (k_1 frozen → c2 full → k_0 stalls). That refinement is tighter
        // here but unsound in general — running a consumer pops one token
        // from the target yet can unblock a rate-amplified refill through
        // its side inputs — so `occupancy_bounds` deliberately ignores
        // sibling coupling and reports the schedule-independent meet
        // min(capacity, workload) instead.
        let g = FlatGraph {
            name: "fork".into(),
            kernels: vec![
                kernel(
                    "k_0",
                    vec![
                        port("in", PortDir::In, 0),
                        port("a", PortDir::Out, 1),
                        port("b", PortDir::Out, 2),
                    ],
                ),
                kernel(
                    "k_1",
                    vec![
                        port("a", PortDir::In, 1),
                        port("b", PortDir::In, 2),
                        port("out", PortDir::Out, 3),
                    ],
                ),
            ],
            connectors: {
                let mut cs = vec![connector(), connector(), connector(), connector()];
                cs[2].settings = PortSettings::new().depth(2);
                cs
            },
            inputs: vec![ConnectorId::new(0)],
            outputs: vec![ConnectorId::new(3)],
        };
        let cfg = LintConfig::default();
        let bounds = occupancy_bounds(&CheckedGraph::new(&g).unwrap(), &cfg, &[50]).unwrap();
        // c1: workload 50 < default depth 64, so the workload binds.
        assert_eq!(bounds[1], 50);
        // c2: its own depth 2 binds.
        assert_eq!(bounds[2], 2);
    }

    #[test]
    fn occupancy_bound_refuses_unbounded_source_kernels() {
        // A kernel with no token input fires an unknowable number of
        // times, so no push total — and hence no occupancy bound — exists.
        let g = FlatGraph {
            name: "src".into(),
            kernels: vec![kernel("k_0", vec![port("out", PortDir::Out, 0)])],
            connectors: vec![connector()],
            inputs: vec![],
            outputs: vec![ConnectorId::new(0)],
        };
        assert_eq!(
            occupancy_bounds(&CheckedGraph::new(&g).unwrap(), &LintConfig::default(), &[]),
            None
        );
    }

    #[test]
    fn report_renders_human_and_json() {
        let mut g = pipeline();
        g.kernels[0].ports[1].connector = ConnectorId::new(2); // c1 dangles
        let r = lint_graph(&g, &LintConfig::default());
        let human = r.render_human(&g);
        assert!(human.contains("cgsim-lint: graph `pipe`"));
        assert!(human.contains("error[CG004]"));
        let json = r.to_json();
        assert!(json.contains("\"CG004\""));
        let back: LintReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn both_renderers_carry_the_firing_vector() {
        let g = pipeline();
        let r = lint_graph(&g, &LintConfig::default());
        let v: serde_json::Value = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(v["firing"]["counts"], serde_json::json!([1, 1]));
        assert_eq!(v["bounds"]["connectors"][0]["min_capacity"], 1);
        assert!(r.render_human(&g).contains("firing vector: k_0 x1, k_1 x1"));
    }
}
