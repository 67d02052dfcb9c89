//! The lint passes.
//!
//! Pass order matters: [`structural`] reports the invariants of
//! [`FlatGraph::validate`] first and whether the descriptor is too
//! corrupted (out-of-range indices) for the deeper passes to run safely.
//! The remaining passes assume indices are in range but nothing else.

pub mod bounds;
pub mod budget;
pub mod deadlock;
pub mod rates;

use crate::diag::{Anchor, Diagnostic, LintReport, Severity};
use cgsim_core::{ConnectorId, FlatGraph, KernelId, PortDir};

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
pub(crate) fn structural(graph: &FlatGraph, report: &mut LintReport) -> bool {
    let found = graph.structural_findings();
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

/// Per-kernel liveness computed by [`reachability`], shared with the shape
/// pass.
pub(crate) struct Reach {
    /// Kernel output can reach a global output (or the kernel is a sink).
    pub bwd: Vec<bool>,
}

/// Dead-code detection: `CG040` (kernel unreachable from the inputs) and
/// `CG041` (kernel output never reaches an output). Both are warnings —
/// such kernels execute (or silently never fire) but do no useful work.
pub(crate) fn reachability(graph: &FlatGraph, report: &mut LintReport) -> Reach {
    let nk = graph.kernels.len();
    let ncon = graph.connectors.len();

    // Forward: connectors fed from global inputs, kernels with a fed input
    // (or none at all), fixpoint.
    let mut con_live = vec![false; ncon];
    for c in &graph.inputs {
        con_live[c.index()] = true;
    }
    let mut fwd = vec![false; nk];
    loop {
        let mut changed = false;
        for (ki, k) in graph.kernels.iter().enumerate() {
            if fwd[ki] {
                continue;
            }
            let ins: Vec<_> = k.ports.iter().filter(|p| p.dir == PortDir::In).collect();
            if ins.is_empty() || ins.iter().any(|p| con_live[p.connector.index()]) {
                fwd[ki] = true;
                changed = true;
                for p in k.ports.iter().filter(|p| p.dir == PortDir::Out) {
                    con_live[p.connector.index()] = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Backward: connectors that drain to a global output, kernels with a
    // draining output (or none), fixpoint.
    let mut con_drains = vec![false; ncon];
    for c in &graph.outputs {
        con_drains[c.index()] = true;
    }
    let mut bwd = vec![false; nk];
    loop {
        let mut changed = false;
        for (ki, k) in graph.kernels.iter().enumerate() {
            if bwd[ki] {
                continue;
            }
            let outs: Vec<_> = k.ports.iter().filter(|p| p.dir == PortDir::Out).collect();
            if outs.is_empty() || outs.iter().any(|p| con_drains[p.connector.index()]) {
                bwd[ki] = true;
                changed = true;
                for p in k.ports.iter().filter(|p| p.dir == PortDir::In) {
                    con_drains[p.connector.index()] = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

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
    Reach { bwd }
}

/// Dataflow-shape warnings: `CG042` (broadcast fan-out feeding a dead
/// branch) and `CG043` (merge fan-in makes output order schedule-dependent,
/// so only multiset comparison is a sound oracle — exactly the distinction
/// `cgsim-check` draws between exact and multiset legs).
pub(crate) fn shape(graph: &FlatGraph, reach: &Reach, report: &mut LintReport) {
    for ci in 0..graph.connectors.len() {
        let c = ConnectorId::new(ci);
        if graph.connectors[ci].kind == cgsim_core::PortKind::RuntimeParam {
            continue;
        }
        if graph.readers(c) > 1 {
            for e in &graph.consumers_of(c) {
                if !reach.bwd[e.kernel.index()] {
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
        let writers = graph.writers(c);
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
