//! The schedule compiler: lint-gated static-schedulability analysis and
//! plan construction.

use cgsim_core::schedule::StaticSchedule;
use cgsim_core::{ConnectorId, FlatGraph, GraphError, KernelId, Topology};
use cgsim_lint::{lint_graph, port_rate, LintConfig};
use cgsim_runtime::RuntimeConfig;
use std::collections::BTreeSet;
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
    /// [`FlatGraph::validate`] or kernel lookup) — no backend can run it.
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
/// Pure data: cheap to clone; compile once per graph, then hand
/// [`CompiledPlan::schedule`] to `cgsim_runtime::RuntimeContext::with_plan`
/// once per run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledPlan {
    schedule: StaticSchedule,
}

impl CompiledPlan {
    /// The schedule IR the executor consumes: firing order, firing counts,
    /// per-connector period token bounds.
    pub fn schedule(&self) -> &StaticSchedule {
        &self.schedule
    }

    /// Name of the graph the plan was compiled from.
    pub fn graph_name(&self) -> &str {
        &self.schedule.graph
    }
}

/// Compile `graph` into a [`CompiledPlan`], or report why it is outside the
/// statically schedulable class.
///
/// The boundary, checked in order:
/// 1. the descriptor must pass [`FlatGraph::validate`],
/// 2. `cgsim-lint` must report no Error findings (`CG030` maps to
///    [`RejectReason::RateImbalance`], `CG020` to [`RejectReason::Cycle`],
///    anything else to [`RejectReason::LintErrors`]),
/// 3. every connector must have exactly one producer
///    ([`RejectReason::Merge`] otherwise),
/// 4. the kernel dataflow must be acyclic ([`RejectReason::Cycle`]).
///
/// The firing vector is *not* recomputed: it is taken from the lint
/// report's rate pass, so the compiler and `CG030` can never disagree.
pub fn compile(graph: &FlatGraph, cfg: &LintConfig) -> Result<CompiledPlan, CompileError> {
    graph.validate()?;

    let report = lint_graph(graph, cfg);
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
    for ci in 0..graph.connectors.len() {
        let c = ConnectorId::new(ci);
        let producers = graph.producers_of(c).len() + usize::from(graph.is_global_input(c));
        if producers > 1 {
            return Err(CompileError::NotStaticallySchedulable {
                reason: RejectReason::Merge,
                details: format!("connector {c} has {producers} producers"),
            });
        }
    }

    let order = topo_order_min(graph).ok_or_else(|| CompileError::NotStaticallySchedulable {
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

    // Tokens crossing each connector in one schedule period. For a
    // kernel-produced connector that is firings(producer) · rate(out); a
    // globally fed connector admits the demand of its hungriest consumer;
    // a pure passthrough (global in → global out) moves whatever is fed,
    // bounded at instantiation by the feed length (period basis 1 here).
    let period_tokens: Vec<u64> = (0..graph.connectors.len())
        .map(|ci| {
            let c = ConnectorId::new(ci);
            let producers = graph.producers_of(c);
            if let Some(p) = producers.first() {
                let rate = port_rate(graph, cfg, p.kernel.index(), p.port);
                firings.count(p.kernel).saturating_mul(u64::from(rate))
            } else {
                graph
                    .consumers_of(c)
                    .iter()
                    .map(|q| {
                        let rate = port_rate(graph, cfg, q.kernel.index(), q.port);
                        firings.count(q.kernel).saturating_mul(u64::from(rate))
                    })
                    .max()
                    .unwrap_or(1)
                    .max(1)
            }
        })
        .collect();

    Ok(CompiledPlan {
        schedule: StaticSchedule {
            graph: graph.name.clone(),
            order,
            firings,
            period_tokens,
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

/// Kahn topological order over kernels, always releasing the
/// smallest-index ready kernel first — deterministic and stable, so the
/// rendered schedule makes a reviewable golden file. `None` on a cycle.
fn topo_order_min(graph: &FlatGraph) -> Option<Vec<KernelId>> {
    let topo = Topology::of(graph);
    let n = topo.succ.len();
    let mut indegree: Vec<usize> = topo.pred.iter().map(Vec::len).collect();
    let mut ready: BTreeSet<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(&k) = ready.iter().next() {
        ready.remove(&k);
        order.push(KernelId::new(k));
        for s in &topo.succ[k] {
            indegree[s.index()] -= 1;
            if indegree[s.index()] == 0 {
                ready.insert(s.index());
            }
        }
    }
    (order.len() == n).then_some(order)
}
