//! The lint passes.
//!
//! Pass order matters: [`structural`] reports the invariants of
//! [`cgsim_core::CheckedGraph::new`] first and whether the descriptor is
//! too corrupted (out-of-range indices) for the deeper passes to run
//! safely. The remaining passes, [`deep`], assume indices are in range
//! but nothing else.

pub mod bounds;
pub mod budget;
pub mod deadlock;
pub mod rates;

use crate::config::LintConfig;
use crate::diag::{Anchor, Diagnostic, LintReport, Severity};
use cgsim_core::{ConnectorId, Endpoint, FlatGraph, KernelId, PortDir, Topology};

/// The SDF rate (elements per firing) of one port: its declared `rate`,
/// or the SDF default of 1 when it declares none.
///
/// Public because the schedule compiler must size its per-connector token
/// bounds with exactly the rates the rate-balance pass used — one
/// resolution rule, two consumers.
pub fn port_rate(graph: &FlatGraph, kernel: usize, port: usize) -> u32 {
    graph.kernels[kernel].ports[port].rate.max(1)
}

/// Structural integrity: every [`FlatGraph::structural_findings`]
/// (`CG001`–`CG007`, `CG013`) as an Error, a type mismatch anchored on its
/// port. Returns `true` if an out-of-range index was found — the
/// descriptor is corrupt and later passes must not index into it.
pub(crate) fn structural(graph: &FlatGraph, topo: &Topology, report: &mut LintReport) -> bool {
    let found = graph.structural_findings(topo);
    for (error, port) in &found.findings {
        let mut diagnostic = Diagnostic::from_graph_error(error);
        if let Some(e) = port {
            diagnostic.anchor = Anchor::Port {
                kernel: e.kernel,
                port: e.port,
            };
        }
        report.push(diagnostic);
    }
    found.out_of_range
}

/// Every pass after [`structural`], in order, over a graph whose indices
/// are in range.
pub(crate) fn deep(graph: &FlatGraph, topo: &Topology, cfg: &LintConfig, report: &mut LintReport) {
    let drains = reachability(graph, topo, report);
    deadlock::check(graph, topo, cfg, report);
    rates::check(graph, topo, report);
    shape(graph, topo, &drains, report);
    budget::check(graph, report);
    bounds::check(graph, topo, cfg, report);
}

/// Dead-code detection: `CG040` (kernel unreachable from the inputs) and
/// `CG041` (kernel output never reaches an output). Both are warnings —
/// such kernels execute (or silently never fire) but do no useful work.
/// Returns, per kernel, whether its output can reach a global output (or
/// it has none) — what the shape pass needs.
pub(crate) fn reachability(
    graph: &FlatGraph,
    topo: &Topology,
    report: &mut LintReport,
) -> Vec<bool> {
    let nk = graph.kernels.len();
    // Forward: fed from a global input. Backward: drains to a global output.
    let fwd = live_kernels(graph, topo, PortDir::In);
    let bwd = live_kernels(graph, topo, PortDir::Out);

    for ki in 0..nk {
        let instance = &graph.kernels[ki].instance;
        if !fwd[ki] {
            report.push(Diagnostic::new(
                "CG040",
                Severity::Warn,
                Anchor::Kernel {
                    kernel: KernelId::new(ki),
                },
                format!("kernel `{instance}` is unreachable: no global input can feed any of its input ports, so it never fires"),
            ));
        }
        if !bwd[ki] {
            report.push(Diagnostic::new(
                "CG041",
                Severity::Warn,
                Anchor::Kernel {
                    kernel: KernelId::new(ki),
                },
                format!("nothing `{instance}` produces can reach a global output; the kernel's work is dead"),
            ));
        }
    }
    bwd
}

/// One worklist pass from the global ports on the `from` side (inputs for
/// `In`, outputs for `Out`): a kernel is live when it has no `from` port
/// or one on a live connector, and a live kernel makes the connectors on
/// its other ports live. Each connector and kernel is visited once.
fn live_kernels(graph: &FlatGraph, topo: &Topology, from: PortDir) -> Vec<bool> {
    let (seeds, ends): (_, fn(&Topology, ConnectorId) -> &[Endpoint]) = match from {
        PortDir::In => (&graph.inputs, Topology::consumers),
        PortDir::Out => (&graph.outputs, Topology::producers),
    };
    let mut live_connector = vec![false; graph.connectors.len()];
    let mut mark = |c: ConnectorId, work: &mut Vec<usize>| {
        if !std::mem::replace(&mut live_connector[c.index()], true) {
            work.extend(ends(topo, c).iter().map(|e| e.kernel.index()));
        }
    };
    let mut work: Vec<usize> = (graph.kernels.iter().enumerate())
        .filter(|(_, k)| k.ports.iter().all(|p| p.dir != from))
        .map(|(ki, _)| ki)
        .collect();
    for &c in seeds {
        mark(c, &mut work);
    }
    let mut live = vec![false; graph.kernels.len()];
    while let Some(ki) = work.pop() {
        if std::mem::replace(&mut live[ki], true) {
            continue;
        }
        for p in graph.kernels[ki].ports.iter().filter(|p| p.dir != from) {
            mark(p.connector, &mut work);
        }
    }
    live
}

/// Dataflow-shape warnings: `CG042` (broadcast fan-out feeding a dead
/// branch) and `CG043` (merge fan-in makes output order schedule-dependent,
/// so only multiset comparison is a sound oracle — exactly the distinction
/// `cgsim-check` draws between exact and multiset legs).
pub(crate) fn shape(graph: &FlatGraph, topo: &Topology, bwd: &[bool], report: &mut LintReport) {
    for ci in 0..graph.connectors.len() {
        let c = ConnectorId::new(ci);
        if graph.connectors[ci].kind == cgsim_core::PortKind::RuntimeParam {
            continue;
        }
        if topo.readers(c) > 1 {
            for e in topo.consumers(c) {
                if !bwd[e.kernel.index()] {
                    report.push(Diagnostic::new(
                        "CG042",
                        Severity::Warn,
                        Anchor::Port {
                            kernel: e.kernel,
                            port: e.port,
                        },
                        format!(
                            "broadcast fan-out of {c} feeds kernel `{}`, whose results cannot reach any global output — a dead branch that still consumes channel capacity",
                            graph.kernels[e.kernel.index()].instance
                        ),
                    ));
                }
            }
        }
        let writers = topo.writers(c);
        if writers > 1 {
            report.push(Diagnostic::new(
                "CG043",
                Severity::Warn,
                Anchor::Connector { connector: c },
                format!(
                    "connector {c} merges {writers} producers: element arrival order is schedule-dependent, so only multiset output comparison is decidable"
                ),
            ));
        }
    }
}
