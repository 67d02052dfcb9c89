//! Capacity-aware deadlock detection: the `CG02x` family.
//!
//! Feedback cycles are found as strongly connected components of the
//! kernel-to-kernel dataflow relation (runtime parameters excluded — an RTP
//! edge never carries firing tokens). A cycle whose connectors receive no
//! tokens from outside the cycle can never fire at all (`CG020`, Error);
//! one that is primed from outside executes but depends on the priming
//! tokens and FIFO depths (`CG021`, Warn). Independently, a stream channel
//! whose capacity is below one firing's token demand wedges its endpoint
//! kernel forever (`CG022`, Error).

use crate::config::LintConfig;
use crate::diag::{Anchor, Diagnostic, LintReport, Severity};
use crate::passes::port_rate;
use cgsim_core::{ConnectorId, Endpoint, FlatGraph, KernelId, PortDir, PortKind, Topology};

/// Run the deadlock pass.
pub(crate) fn check(graph: &FlatGraph, topo: &Topology, cfg: &LintConfig, report: &mut LintReport) {
    cycles(graph, topo, report);
    capacity(graph, topo, cfg, report);
}

/// Kernel adjacency (producer kernel → consumer kernel), token-carrying
/// connectors only. Each list is deduplicated and keeps first-seen order
/// (by connector, then consumer port), which fixes the order Tarjan finds
/// the cycles in and so the order of their diagnostics.
fn adjacency(graph: &FlatGraph, topo: &Topology) -> Vec<Vec<usize>> {
    let mut succ = vec![Vec::new(); graph.kernels.len()];
    // `last[q] == p` once q is in `succ[p]`.
    let mut last = vec![usize::MAX; graph.kernels.len()];
    for (p, kernel) in graph.kernels.iter().enumerate() {
        let mut outs: Vec<ConnectorId> = (kernel.ports.iter())
            .filter(|port| port.dir == PortDir::Out)
            .map(|port| port.connector)
            .filter(|c| graph.connectors[c.index()].kind != PortKind::RuntimeParam)
            .collect();
        outs.sort_unstable();
        for c in outs {
            for q in topo.consumers(c) {
                if std::mem::replace(&mut last[q.kernel.index()], p) != p {
                    succ[p].push(q.kernel.index());
                }
            }
        }
    }
    succ
}

/// Iterative Tarjan SCC over the kernel adjacency. Returns the components
/// in discovery order; single-kernel components are included only when the
/// kernel has a self-loop.
fn sccs(succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = succ.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next_index = 0usize;
    let mut out = Vec::new();

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        // Explicit DFS stack: (node, next-successor position).
        let mut work = vec![(root, 0usize)];
        while let Some(&mut (v, ref mut pos)) = work.last_mut() {
            if *pos == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = succ[v].get(*pos) {
                *pos += 1;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut component = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack non-empty");
                        on_stack[w] = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    component.sort_unstable();
                    if component.len() > 1 || succ[v].contains(&v) {
                        out.push(component);
                    }
                }
            }
        }
    }
    out
}

fn cycles(graph: &FlatGraph, topo: &Topology, report: &mut LintReport) {
    for component in sccs(&adjacency(graph, topo)) {
        // Components come sorted.
        let in_scc = |e: &Endpoint| component.binary_search(&e.kernel.index()).is_ok();
        // Connectors carried around the cycle: consumed and produced inside.
        let mut cycle_connectors: Vec<ConnectorId> = (component.iter())
            .flat_map(|&k| &graph.kernels[k].ports)
            .filter(|p| p.dir == PortDir::In)
            .map(|p| p.connector)
            .filter(|c| graph.connectors[c.index()].kind != PortKind::RuntimeParam)
            .filter(|&c| topo.producers(c).iter().any(in_scc))
            .collect();
        cycle_connectors.sort_unstable();
        cycle_connectors.dedup();
        // External token source: a global input merged into the cycle
        // connector, or a producer kernel outside the component.
        let primed_by = cycle_connectors
            .iter()
            .copied()
            .find(|&c| topo.is_global_input(c) || !topo.producers(c).iter().all(in_scc));

        let members = component
            .iter()
            .map(|&k| graph.kernels[k].instance.as_str())
            .collect::<Vec<_>>()
            .join(" → ");
        let anchor = Anchor::Kernel {
            kernel: KernelId::new(component[0]),
        };
        match primed_by {
            None => report.push(Diagnostic::new(
                "CG020",
                Severity::Error,
                anchor,
                format!(
                    "feedback cycle {{{members}}} has no external token source on any cycle connector ({}); no kernel in the cycle can ever fire — guaranteed deadlock",
                    list(&cycle_connectors)
                ),
            )),
            Some(source) => {
                let buffering: u64 = cycle_connectors
                    .iter()
                    .map(|c| u64::from(graph.connectors[c.index()].settings.depth.max(1)))
                    .sum();
                report.push(Diagnostic::new(
                    "CG021",
                    Severity::Warn,
                    anchor,
                    format!(
                        "feedback cycle {{{members}}} relies on priming tokens arriving through {source}; verify the priming count and FIFO depths (explicit cycle buffering: {buffering} element{})",
                        if buffering == 1 { "" } else { "s" }
                    ),
                ));
            }
        }
    }
}

/// `CG022`: a stream channel narrower than one firing's token demand.
fn capacity(graph: &FlatGraph, topo: &Topology, cfg: &LintConfig, report: &mut LintReport) {
    for ci in 0..graph.connectors.len() {
        let c = ConnectorId::new(ci);
        let conn = &graph.connectors[ci];
        if conn.kind != PortKind::Stream {
            continue;
        }
        let cap = conn.depth_or(cfg.effective_default_depth() as usize);
        for e in topo.producers(c).iter().chain(topo.consumers(c)) {
            let rate = port_rate(graph, e.kernel.index(), e.port);
            if cap < rate as usize {
                let k = &graph.kernels[e.kernel.index()];
                report.push(Diagnostic::new(
                    "CG022",
                    Severity::Error,
                    Anchor::Port {
                        kernel: e.kernel,
                        port: e.port,
                    },
                    format!(
                        "channel {c} has capacity {cap} but port `{}.{}` moves {rate} elements per firing; the kernel can never complete a firing",
                        k.instance, k.ports[e.port].name
                    ),
                ));
            }
        }
    }
}

fn list(connectors: &[ConnectorId]) -> String {
    connectors
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}
