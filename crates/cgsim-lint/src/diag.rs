//! The diagnostics data model: codes, severities, anchors, reports.
//!
//! Every finding a lint pass produces is a [`Diagnostic`]: a stable `CG0xx`
//! code, a severity, an [`Anchor`] naming the graph element the finding is
//! about, and a human-readable message. A [`LintReport`] collects the
//! diagnostics of one graph and renders them for humans (rustc-style lines)
//! or machines (JSON).

use cgsim_core::schedule::{FiringVector, GraphBounds};
use cgsim_core::{ConnectorId, FlatGraph, GraphError, KernelId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// How bad a finding is.
///
/// `Error` means the graph cannot execute correctly (deadlock, type error,
/// budget overflow) — deny-by-default consumers refuse to run it. `Warn`
/// flags constructs that execute but deserve review; `Info` is purely
/// informational.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Severity {
    /// Informational note.
    Info,
    /// Suspicious but executable.
    Warn,
    /// The graph is broken; running it would fail or hang.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// The graph element a diagnostic is anchored to — the lint analogue of a
/// source span.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Anchor {
    /// The graph as a whole.
    Graph,
    /// One kernel instance.
    Kernel {
        /// The kernel the finding is about.
        kernel: KernelId,
    },
    /// One connector.
    Connector {
        /// The connector the finding is about.
        connector: ConnectorId,
    },
    /// One port of one kernel.
    Port {
        /// The kernel owning the port.
        kernel: KernelId,
        /// Port index within the kernel's `ports` array.
        port: usize,
    },
}

impl Anchor {
    /// Render the anchor against `graph` (instance names where available).
    pub fn render(&self, graph: &FlatGraph) -> String {
        let instance = |k: &KernelId| {
            graph
                .kernels
                .get(k.index())
                .map(|k| k.instance.clone())
                .unwrap_or_else(|| k.to_string())
        };
        match self {
            Anchor::Graph => graph.name.clone(),
            Anchor::Kernel { kernel } => instance(kernel),
            Anchor::Connector { connector } => connector.to_string(),
            Anchor::Port { kernel, port } => {
                let pname = graph
                    .kernels
                    .get(kernel.index())
                    .and_then(|k| k.ports.get(*port))
                    .map(|p| p.name.clone())
                    .unwrap_or_else(|| port.to_string());
                format!("{}.{pname}", instance(kernel))
            }
        }
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable diagnostic code (`CG0xx`); never changes meaning.
    pub code: String,
    /// Severity class.
    pub severity: Severity,
    /// Graph element the finding is anchored to.
    pub anchor: Anchor,
    /// Human-readable description (no code prefix).
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic.
    pub fn new(
        code: impl Into<String>,
        severity: Severity,
        anchor: Anchor,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code: code.into(),
            severity,
            anchor,
            message: message.into(),
        }
    }

    /// Convert a [`GraphError`] into an Error-severity diagnostic, reusing
    /// the error's stable code and message and anchoring it to the connector
    /// it names where possible.
    pub fn from_graph_error(e: &GraphError) -> Self {
        let anchor = match e {
            GraphError::IncompatibleSettings { connector, .. }
            | GraphError::SettingsMismatch { connector, .. }
            | GraphError::DanglingConnector { connector }
            | GraphError::UnconsumedConnector { connector }
            | GraphError::DuplicateGlobal { connector }
            | GraphError::IoTypeMismatch { connector, .. } => Anchor::Connector {
                connector: *connector,
            },
            _ => Anchor::Graph,
        };
        Diagnostic::new(e.code(), Severity::Error, anchor, e.message())
    }
}

/// All findings for one graph.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LintReport {
    /// Name of the linted graph.
    pub graph: String,
    /// Findings, in pass order (structural first, budgets last).
    pub diagnostics: Vec<Diagnostic>,
    /// Minimal integer SDF firing counts per kernel, computed by the
    /// rate-balance pass. `None` when the pass has not run (structural
    /// errors aborted linting) or when the balance equations are
    /// inconsistent (a `CG030` finding is present instead). Read through
    /// [`LintReport::firing_vector`].
    #[serde(default)]
    pub firing: Option<FiringVector>,
    /// Static occupancy/capacity/latency bounds computed by the `CG06x`
    /// bounds pass. `None` when the graph has no firing vector or its
    /// kernel dataflow is cyclic (a `CG063` finding explains which when
    /// bounds diagnostics are enabled). Read through
    /// [`LintReport::bounds`].
    #[serde(default)]
    pub bounds: Option<GraphBounds>,
}

impl LintReport {
    /// An empty report for the named graph.
    pub fn new(graph: impl Into<String>) -> Self {
        LintReport {
            graph: graph.into(),
            diagnostics: Vec::new(),
            firing: None,
            bounds: None,
        }
    }

    /// The graph's SDF firing vector — the minimal integer repetitions per
    /// kernel that balance every single-producer stream edge — when the
    /// rate-balance pass ran and found the equations consistent. This is
    /// the same computation backing the `CG030` check, exposed so the
    /// schedule compiler (`cgsim-compiled`) shares it instead of
    /// re-deriving the vector.
    pub fn firing_vector(&self) -> Option<&FiringVector> {
        self.firing.as_ref()
    }

    /// The static bounds computed by the `CG06x` pass — per-connector
    /// worst-case occupancy and minimal deadlock-free capacity plus
    /// critical-path latency and throughput — when the graph is
    /// rate-consistent and acyclic.
    pub fn bounds(&self) -> Option<&GraphBounds> {
        self.bounds.as_ref()
    }

    /// Append a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Whether any Error-severity finding is present.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Number of Error-severity findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The distinct codes present, sorted.
    pub fn codes(&self) -> BTreeSet<String> {
        self.diagnostics.iter().map(|d| d.code.clone()).collect()
    }

    /// Findings at `severity`.
    pub fn at(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity == severity)
    }

    /// Whether the report is completely clean (no findings at all).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render the report for humans, one rustc-style line per finding, with
    /// anchors resolved against `graph`:
    ///
    /// ```text
    /// cgsim-lint: graph `deadlock` — 1 error, 0 warnings
    ///   error[CG020] at feedback_inc_0: feedback cycle …
    /// ```
    pub fn render_human(&self, graph: &FlatGraph) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cgsim-lint: graph `{}` — {} error{}, {} warning{}",
            self.graph,
            self.error_count(),
            if self.error_count() == 1 { "" } else { "s" },
            self.count(Severity::Warn),
            if self.count(Severity::Warn) == 1 {
                ""
            } else {
                "s"
            },
        );
        for d in &self.diagnostics {
            let _ = writeln!(
                out,
                "  {}[{}] at {}: {}",
                d.severity,
                d.code,
                d.anchor.render(graph),
                d.message
            );
        }
        // The firing vector rides on the report (and its JSON form) for
        // machine consumers; surface it for humans too so the two renderers
        // agree on what the report contains.
        if let Some(firing) = &self.firing {
            let counts: Vec<String> = firing
                .counts
                .iter()
                .enumerate()
                .map(|(ki, &n)| {
                    let name = graph
                        .kernels
                        .get(ki)
                        .map(|k| k.instance.as_str())
                        .unwrap_or("?");
                    format!("{name} x{n}")
                })
                .collect();
            let _ = writeln!(out, "  firing vector: {}", counts.join(", "));
        }
        out
    }

    /// Render the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("LintReport serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_displays() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn report_counts_and_codes() {
        let mut r = LintReport::new("g");
        assert!(r.is_clean() && !r.has_errors());
        r.push(Diagnostic::new(
            "CG020",
            Severity::Error,
            Anchor::Graph,
            "x",
        ));
        r.push(Diagnostic::new(
            "CG043",
            Severity::Warn,
            Anchor::Connector {
                connector: ConnectorId::new(1),
            },
            "y",
        ));
        assert!(r.has_errors());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.count(Severity::Warn), 1);
        assert_eq!(
            r.codes().into_iter().collect::<Vec<_>>(),
            vec!["CG020", "CG043"]
        );
    }

    #[test]
    fn graph_error_conversion_reuses_code_and_message() {
        let e = GraphError::DanglingConnector {
            connector: ConnectorId::new(3),
        };
        let d = Diagnostic::from_graph_error(&e);
        assert_eq!(d.code, "CG004");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(
            d.anchor,
            Anchor::Connector {
                connector: ConnectorId::new(3)
            }
        );
        assert_eq!(d.message, e.message());
    }

    #[test]
    fn json_roundtrip() {
        let mut r = LintReport::new("g");
        r.push(Diagnostic::new(
            "CG050",
            Severity::Error,
            Anchor::Kernel {
                kernel: KernelId::new(2),
            },
            "too many kernels",
        ));
        let back: LintReport = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }
}
