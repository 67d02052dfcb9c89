//! Static occupancy and performance bounds: the `CG06x` family.
//!
//! For a rate-consistent graph (the `CG030` pass published a firing vector)
//! whose kernel dataflow is acyclic, this pass derives quantitative
//! predictions instead of mere safety verdicts:
//!
//! * per-connector token traffic per schedule period and the classic SDF
//!   minimal deadlock-free capacity `p + c − gcd(p, c)` (`CG060`, `CG061`),
//! * critical-path latency and steady-state throughput bounds over the
//!   period-unrolled firing DAG (`CG062`),
//! * and, given concrete feed lengths, the exact workload token traffic
//!   ([`workload_tokens`]), a per-connector worst-case occupancy bound
//!   ([`occupancy_bounds`]) and a whole-run cost estimate
//!   ([`cost_estimate`]).
//!
//! The structural results are attached to the report as
//! [`LintReport::bounds`] whenever they are derivable; the Info-level
//! `CG060`/`CG062`–`CG064` findings are only emitted when
//! [`LintConfig::emit_bounds`] is set, so default lint runs stay quiet on
//! clean graphs. `CG061` (a declared capacity below the minimal
//! deadlock-free bound) warns unconditionally.
//!
//! ## The occupancy bound
//!
//! [`occupancy_bounds`] answers "how full can connector `c` ever get?" as
//! the meet of two facts that hold for *every* schedule:
//!
//! * the runtime's send gate never lets buffered occupancy exceed the
//!   channel capacity while an open consumer exists, so `cap(c)` bounds it;
//! * occupancy never exceeds the total ever pushed, and by monotonicity of
//!   dataflow no schedule pushes more through `c` than the uncapacitated
//!   eager execution ([`workload_tokens`]) does.
//!
//! `min(cap(c), workload(c))` is therefore sound unconditionally (the
//! `cgsim-check` bounds oracle validates this against real traces on every
//! conformance run), and a schedule that demotes `c`'s consumers floods
//! `c` toward the bound, which the oracle's tightness leg exercises.
//! Refining below the meet is a trap: a frozen-consumer capacitated
//! fixpoint *under*-approximates, because running a consumer of `c` pops
//! one token from `c` yet can unblock an amplified refill chain through
//! its side inputs — net occupancy growth the adversary model misses.

use crate::config::LintConfig;
use crate::diag::{Anchor, Diagnostic, LintReport, Severity};
use crate::passes::port_rate;
use cgsim_core::schedule::{gcd, ConnectorBounds, CostEstimate, GraphBounds, Rational};
use cgsim_core::{CheckedGraph, ConnectorId, Endpoint, FlatGraph, PortDir, PortKind, Topology};

/// Firings per period beyond which `CG064` flags the schedule as too large
/// for period-unrolled reasoning to stay cheaper than simulation.
const HUGE_PERIOD_FIRINGS: u64 = 100_000;

/// Run the bounds pass: attach [`GraphBounds`] to the report when
/// derivable and emit the `CG06x` findings.
pub(crate) fn check(graph: &FlatGraph, topo: &Topology, cfg: &LintConfig, report: &mut LintReport) {
    let Some(bounds) = graph_bounds(graph, topo, cfg, report) else {
        if cfg.emit_bounds {
            report.push(Diagnostic::new(
                "CG063",
                Severity::Info,
                Anchor::Graph,
                "static bounds unavailable: the graph has no consistent firing vector or its \
                 kernel dataflow is cyclic",
            ));
        }
        return;
    };

    for (ci, b) in bounds.connectors.iter().enumerate() {
        let c = ConnectorId::new(ci);
        if graph.connectors[ci].kind != PortKind::Stream {
            continue;
        }
        // Below one firing's demand is already an Error (`CG022`); the
        // window between that and the SDF minimum merely *may* wedge,
        // depending on the schedule — warn.
        let demand = single_firing_demand(graph, topo, c);
        if b.effective_capacity >= demand && b.effective_capacity < b.min_capacity {
            report.push(Diagnostic::new(
                "CG061",
                Severity::Warn,
                Anchor::Connector { connector: c },
                format!(
                    "connector {c} has capacity {} but the minimal deadlock-free capacity for \
                     its rate signature is {}; some firing orders wedge on this channel",
                    b.effective_capacity, b.min_capacity
                ),
            ));
        }
        if cfg.emit_bounds {
            report.push(Diagnostic::new(
                "CG060",
                Severity::Info,
                Anchor::Connector { connector: c },
                format!(
                    "worst-case occupancy ≤ {} tokens (capacity-limited); {} tokens/period, \
                     minimal deadlock-free capacity {}",
                    b.effective_capacity, b.period_tokens, b.min_capacity
                ),
            ));
        }
    }

    if cfg.emit_bounds {
        report.push(Diagnostic::new(
            "CG062",
            Severity::Info,
            Anchor::Graph,
            format!(
                "critical path {} firings of {} per period; steady-state throughput ≤ {} \
                 output tokens per sequential firing",
                bounds.critical_path_firings, bounds.period_firings, bounds.throughput
            ),
        ));
        if bounds.period_firings > HUGE_PERIOD_FIRINGS {
            report.push(Diagnostic::new(
                "CG064",
                Severity::Info,
                Anchor::Graph,
                format!(
                    "schedule period needs {} kernel firings (> {HUGE_PERIOD_FIRINGS}); \
                     period-unrolled analysis at this scale may cost more than simulating",
                    bounds.period_firings
                ),
            ));
        }
    }

    report.bounds = Some(bounds);
}

/// Compute the structural [`GraphBounds`]: requires the rate pass to have
/// published a firing vector and the kernel dataflow to be acyclic.
fn graph_bounds(
    graph: &FlatGraph,
    topo: &Topology,
    cfg: &LintConfig,
    report: &LintReport,
) -> Option<GraphBounds> {
    let firing = report.firing_vector()?;
    if firing.len() != graph.kernels.len() {
        return None;
    }
    let order = topo.topo_order()?;

    let rate = |e: &Endpoint| u64::from(port_rate(graph, e.kernel.index(), e.port));
    let tokens = |e: &Endpoint| firing.count(e.kernel).saturating_mul(rate(e));
    let connectors: Vec<ConnectorBounds> = (0..graph.connectors.len())
        .map(|ci| {
            let c = ConnectorId::new(ci);
            let (producers, consumers) = (topo.producers(c), topo.consumers(c));
            // Tokens crossing the connector in one period: what its
            // producers emit; a purely externally fed connector admits the
            // demand of its hungriest consumer (the same basis the
            // schedule compiler uses).
            let period_tokens = if producers.is_empty() {
                consumers.iter().map(tokens).max().unwrap_or(1).max(1)
            } else {
                producers.iter().map(tokens).fold(0, u64::saturating_add)
            };
            // Minimal deadlock-free capacity: the SDF single-edge bound
            // `p + c − gcd(p, c)`, over the hungriest consumer. A global
            // feed pushes element-wise (p = 1).
            let p_rate = producers.iter().map(rate).max().unwrap_or(1);
            let min_capacity = (consumers.iter().map(rate))
                .map(|q_rate| p_rate + q_rate - gcd(u128::from(p_rate), u128::from(q_rate)) as u64)
                .max()
                .unwrap_or(p_rate);
            ConnectorBounds {
                period_tokens,
                min_capacity,
                effective_capacity: effective_capacity(graph, cfg, ci),
            }
        })
        .collect();

    // Critical path: node-weighted longest path over the kernel DAG, the
    // weight of a kernel being its firings per period — the length of the
    // longest sequential dependency chain one period must execute.
    let mut chain = vec![0u64; graph.kernels.len()];
    for &k in &order {
        let ki = k.index();
        // A kernel's predecessors write the connectors its inputs read.
        let longest_pred = (graph.kernels[ki].ports.iter())
            .filter(|p| p.dir == PortDir::In)
            .flat_map(|p| topo.producers(p.connector))
            .map(|e| chain[e.kernel.index()])
            .max()
            .unwrap_or(0);
        chain[ki] = longest_pred.saturating_add(firing.count(k));
    }
    let critical_path_firings = chain.iter().copied().max().unwrap_or(0);
    let period_firings = firing.counts.iter().fold(0u64, |a, &b| a.saturating_add(b));

    let output_tokens: u64 = graph
        .outputs
        .iter()
        .map(|c| connectors[c.index()].period_tokens)
        .fold(0, u64::saturating_add);
    let throughput = Rational::new(output_tokens, critical_path_firings.max(1));

    Some(GraphBounds {
        connectors,
        period_firings,
        critical_path_firings,
        throughput,
    })
}

/// Exact per-connector token traffic for a concrete workload, by
/// propagating feed lengths through the kernel DAG in topological order:
/// a kernel fires as often as its scarcest token input allows, and each
/// firing emits its output rates. `feed_lens[i]` is the number of elements
/// fed to global input `i` (missing entries read as 0). `None` when the
/// kernel dataflow is cyclic.
///
/// This is the total ever *pushed* through each connector — an exact,
/// capacity-independent upper bound on its occupancy.
pub fn workload_tokens(checked: &CheckedGraph, feed_lens: &[u64]) -> Option<Vec<u64>> {
    propagate(checked, feed_lens).map(|p| p.tokens)
}

/// Static cost estimate for running the graph over the given feed
/// lengths: total tokens moved, total kernel firings, and a heuristic
/// poll-count prediction for the cooperative executor. `None` when the
/// kernel dataflow is cyclic.
pub fn cost_estimate(checked: &CheckedGraph, feed_lens: &[u64]) -> Option<CostEstimate> {
    let graph = checked.graph();
    let p = propagate(checked, feed_lens)?;
    let tokens = p.tokens.iter().fold(0u64, |a, &b| a.saturating_add(b));
    let firings = p.firings.iter().fold(0u64, |a, &b| a.saturating_add(b));
    // One poll per firing, roughly a push poll and a pop poll per token,
    // plus setup/teardown per task (kernels + feed sources + sinks).
    let n_tasks = (graph.kernels.len() + graph.inputs.len() + graph.outputs.len()) as u64;
    let polls_hint = firings
        .saturating_add(tokens.saturating_mul(2))
        .saturating_add(n_tasks);
    Some(CostEstimate {
        tokens,
        firings,
        polls_hint,
    })
}

/// Worst-case runtime occupancy per connector for a concrete workload:
/// `min(capacity, total tokens ever pushed)`, where the push total comes
/// from the uncapacitated eager execution ([`workload_tokens`]) — the
/// schedule-independent maximum. `None` when the kernel dataflow is cyclic
/// or some kernel has no token input (its firing count, and hence its
/// push totals, cannot be bounded statically).
///
/// Sound for every schedule of the fault-free cooperative runtime: the
/// send gate keeps buffered occupancy at or below capacity whenever an
/// open consumer exists (and retires everything once none remain), and no
/// schedule pushes more than the eager total. Capacities are resolved
/// exactly as the runtime resolves them (declared `depth`, else
/// `cfg.effective_default_depth()`), so the bound is directly comparable
/// to `ChannelStats::max_occupancy`. Fault injection breaks the second
/// leg — replayed sends inflate push totals — so bounds must not be armed
/// on faulty runs.
pub fn occupancy_bounds(
    checked: &CheckedGraph,
    cfg: &LintConfig,
    feed_lens: &[u64],
) -> Option<Vec<u64>> {
    let graph = checked.graph();
    if graph.kernels.iter().any(|k| {
        !k.ports
            .iter()
            .any(|p| p.dir == PortDir::In && carries_tokens(graph, p.connector))
    }) {
        return None;
    }
    let workload = workload_tokens(checked, feed_lens)?;
    Some(
        workload
            .iter()
            .enumerate()
            .map(|(ci, &tokens)| tokens.min(effective_capacity(graph, cfg, ci)))
            .collect(),
    )
}

/// Per-kernel firings and per-connector token totals of one uncapacitated
/// eager execution.
struct Propagated {
    tokens: Vec<u64>,
    firings: Vec<u64>,
}

fn propagate(checked: &CheckedGraph, feed_lens: &[u64]) -> Option<Propagated> {
    let graph = checked.graph();
    let order = checked.topology().topo_order()?;
    let mut tokens = vec![0u64; graph.connectors.len()];
    for (i, c) in graph.inputs.iter().enumerate() {
        let fed = feed_lens.get(i).copied().unwrap_or(0);
        tokens[c.index()] = tokens[c.index()].saturating_add(fed);
    }
    let mut firings = vec![0u64; graph.kernels.len()];
    for &k in &order {
        let ki = k.index();
        let kernel = &graph.kernels[ki];
        // Broadcast gives every consumer the full stream, so each in-port
        // sees the connector's total. Kernels without token inputs never
        // fire here: nothing bounds them statically.
        let f = kernel
            .ports
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dir == PortDir::In && carries_tokens(graph, p.connector))
            .map(|(pi, p)| tokens[p.connector.index()] / u64::from(port_rate(graph, ki, pi)))
            .min()
            .unwrap_or(0);
        firings[ki] = f;
        for (pi, p) in kernel.ports.iter().enumerate() {
            if p.dir == PortDir::Out {
                let out = f.saturating_mul(u64::from(port_rate(graph, ki, pi)));
                let t = &mut tokens[p.connector.index()];
                *t = t.saturating_add(out);
            }
        }
    }
    Some(Propagated { tokens, firings })
}

/// Whether a connector carries firing tokens (runtime parameters do not).
fn carries_tokens(graph: &FlatGraph, c: ConnectorId) -> bool {
    graph.connectors[c.index()].kind != PortKind::RuntimeParam
}

/// The channel capacity the cooperative runtime will allocate for
/// connector `ci`: its declared `depth`, else the configured default.
fn effective_capacity(graph: &FlatGraph, cfg: &LintConfig, ci: usize) -> u64 {
    graph.connectors[ci].depth_or(cfg.effective_default_depth() as usize) as u64
}

/// The largest single-firing token demand any endpoint places on `c` —
/// the threshold below which `CG022` already reports an Error.
fn single_firing_demand(graph: &FlatGraph, topo: &Topology, c: ConnectorId) -> u64 {
    (topo.producers(c).iter())
        .chain(topo.consumers(c))
        .map(|e| u64::from(port_rate(graph, e.kernel.index(), e.port)))
        .max()
        .unwrap_or(1)
}
