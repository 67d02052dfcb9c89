//! Graph-construction and validation errors.
//!
//! In the paper most of these conditions are compile-time errors surfaced by
//! the C++ `constexpr` machinery. The dynamic builder path reports them as
//! values; the [`crate::static_graph`] path turns them back into
//! compile-time failures via const panics.

use crate::dtype::DTypeDesc;
use crate::id::ConnectorId;
use crate::settings::SettingsConflict;
use std::fmt;

/// Errors detected while constructing or validating a compute graph.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphError {
    /// A kernel port was bound to a connector carrying a different element
    /// type.
    TypeMismatch {
        /// Kernel whose port is mis-bound.
        kernel: String,
        /// Port name within the kernel.
        port: String,
        /// Type declared by the port.
        port_type: Box<DTypeDesc>,
        /// Type carried by the connector.
        connector_type: Box<DTypeDesc>,
    },
    /// Kernel invocation supplied the wrong number of connectors.
    ArityMismatch {
        /// Kernel being invoked.
        kernel: String,
        /// Ports in the kernel signature.
        expected: usize,
        /// Connectors supplied.
        actual: usize,
    },
    /// Port settings of connected endpoints could not be merged (§3.4).
    IncompatibleSettings {
        /// Connector whose endpoints disagree.
        connector: ConnectorId,
        /// The specific field conflict.
        conflict: SettingsConflict,
    },
    /// A connector has no producer: no kernel writes it and it is not a
    /// global input.
    DanglingConnector {
        /// The unconnected connector.
        connector: ConnectorId,
    },
    /// A connector is produced but never consumed (no reader, not a global
    /// output).
    UnconsumedConnector {
        /// The unread connector.
        connector: ConnectorId,
    },
    /// An id stored in a flattened graph points outside its arrays —
    /// indicates a corrupted or hand-built descriptor.
    IdOutOfRange {
        /// What kind of id was out of range.
        what: &'static str,
        /// The offending index value.
        index: usize,
        /// The length of the array it indexes.
        len: usize,
    },
    /// The same connector appears twice in the global input or output list.
    DuplicateGlobal {
        /// The duplicated connector.
        connector: ConnectorId,
    },
    /// A kernel name was not found in the kernel registry during runtime
    /// instantiation (§3.6).
    UnknownKernel {
        /// The registry key that failed to resolve.
        kind: String,
    },
    /// A graph invocation supplied the wrong number of sources/sinks (§3.7).
    IoArityMismatch {
        /// "inputs" or "outputs".
        what: &'static str,
        /// Global ports declared by the graph.
        expected: usize,
        /// Sources/sinks supplied by the caller.
        actual: usize,
    },
    /// A runtime source/sink was supplied with the wrong element type.
    IoTypeMismatch {
        /// The global connector involved.
        connector: ConnectorId,
        /// Type carried by the connector.
        expected: Box<DTypeDesc>,
    },
    /// A kernel is annotated with a realm the current tool cannot handle.
    UnsupportedRealm {
        /// Kernel with the unsupported annotation.
        kernel: String,
        /// The realm in question.
        realm: crate::realm::Realm,
    },
    /// The graph was rejected by the ahead-of-run lint gate (`cgsim-lint`):
    /// at least one Error-severity diagnostic was reported.
    LintRejected {
        /// Number of Error-severity diagnostics.
        errors: usize,
        /// The rendered diagnostic report.
        report: String,
    },
    /// A connector's stored settings disagree with its endpoints: merging
    /// the settings its ports declare into the stored ones changes a field
    /// (§3.4). Every engine sizes channels from the stored settings, so a
    /// hand-edited or stale descriptor would silently ignore a declared
    /// port setting.
    SettingsMismatch {
        /// The connector whose stored settings are stale.
        connector: ConnectorId,
        /// The first field that differs (`beat_bytes`, `window_bytes`,
        /// `depth`, `runtime_param` or `ping_pong`).
        field: &'static str,
        /// The stored value (a flag reads 0 or 1).
        stored: u32,
        /// The value the endpoints' merge yields (a flag reads 0 or 1).
        declared: u32,
    },
    /// A run configuration sets a default channel depth of 0: every stream
    /// connector that declares no depth of its own would hold nothing.
    ZeroDepth {
        /// The configuration field (`fifo_depth`).
        field: &'static str,
    },
}

impl GraphError {
    /// Stable diagnostic code for this error, shared with `cgsim-lint`.
    ///
    /// Codes are part of the tool's contract: they appear in rendered
    /// diagnostics, JSON reports, and documentation, and never change
    /// meaning between releases.
    pub fn code(&self) -> &'static str {
        match self {
            GraphError::TypeMismatch { .. } => "CG001",
            GraphError::ArityMismatch { .. } => "CG002",
            GraphError::IncompatibleSettings { .. } => "CG003",
            GraphError::DanglingConnector { .. } => "CG004",
            GraphError::UnconsumedConnector { .. } => "CG005",
            GraphError::IdOutOfRange { .. } => "CG006",
            GraphError::DuplicateGlobal { .. } => "CG007",
            GraphError::UnknownKernel { .. } => "CG008",
            GraphError::IoArityMismatch { .. } => "CG009",
            GraphError::IoTypeMismatch { .. } => "CG010",
            GraphError::UnsupportedRealm { .. } => "CG011",
            GraphError::LintRejected { .. } => "CG012",
            GraphError::SettingsMismatch { .. } => "CG013",
            GraphError::ZeroDepth { .. } => "CG014",
        }
    }

    /// The human-readable description, without the `[CGxxx]` code prefix
    /// (`Display` prepends it).
    pub fn message(&self) -> String {
        match self {
            GraphError::TypeMismatch {
                kernel,
                port,
                port_type,
                connector_type,
            } => format!(
                "type mismatch binding port `{kernel}.{port}`: port carries {port_type}, \
                 connector carries {connector_type}"
            ),
            GraphError::ArityMismatch {
                kernel,
                expected,
                actual,
            } => format!(
                "kernel `{kernel}` has {expected} ports but was invoked with {actual} connectors"
            ),
            GraphError::IncompatibleSettings {
                connector,
                conflict,
            } => format!("on connector {connector}: {conflict}"),
            GraphError::DanglingConnector { connector } => format!(
                "connector {connector} has no producer (no kernel output and not a global input)"
            ),
            GraphError::UnconsumedConnector { connector } => format!(
                "connector {connector} is never consumed (no kernel input and not a global output)"
            ),
            GraphError::IdOutOfRange { what, index, len } => {
                format!("{what} id {index} out of range (array length {len})")
            }
            GraphError::DuplicateGlobal { connector } => {
                format!("connector {connector} listed more than once as a global port")
            }
            GraphError::UnknownKernel { kind } => {
                format!("kernel kind `{kind}` is not registered")
            }
            GraphError::IoArityMismatch {
                what,
                expected,
                actual,
            } => format!("graph declares {expected} global {what} but {actual} were supplied"),
            GraphError::IoTypeMismatch {
                connector,
                expected,
            } => format!("source/sink for global connector {connector} must carry {expected}"),
            GraphError::UnsupportedRealm { kernel, realm } => {
                format!("kernel `{kernel}`: realm `{realm}` is not supported here")
            }
            GraphError::LintRejected { errors, report } => format!(
                "graph rejected by static analysis ({errors} error-level diagnostic{}):\n{report}",
                if *errors == 1 { "" } else { "s" }
            ),
            GraphError::SettingsMismatch {
                connector,
                field,
                stored,
                declared,
            } => format!(
                "stored settings of connector {connector} disagree with its endpoints: \
                 `{field}` is {stored}, the endpoints declare {declared}"
            ),
            GraphError::ZeroDepth { field } => format!(
                "`{field}` is 0: a stream connector that declares no depth would hold no \
                 element, so nothing could move through it"
            ),
        }
    }
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code(), self.message())
    }
}

impl std::error::Error for GraphError {}

impl From<(ConnectorId, SettingsConflict)> for GraphError {
    fn from((connector, conflict): (ConnectorId, SettingsConflict)) -> Self {
        GraphError::IncompatibleSettings {
            connector,
            conflict,
        }
    }
}

/// Convenience alias used across the workspace.
pub type Result<T, E = GraphError> = std::result::Result<T, E>;

/// Internal helper: may the kernel named `kernel` exist twice? No — keep the
/// invariant checked in one place for builder and flat-graph validation.
pub(crate) fn check_index(what: &'static str, index: usize, len: usize) -> Result<()> {
    if index < len {
        Ok(())
    } else {
        Err(GraphError::IdOutOfRange { what, index, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = GraphError::ArityMismatch {
            kernel: "adder".into(),
            expected: 3,
            actual: 2,
        };
        let msg = e.to_string();
        assert!(msg.contains("adder") && msg.contains('3') && msg.contains('2'));
    }

    #[test]
    fn check_index_bounds() {
        assert!(check_index("kernel", 2, 3).is_ok());
        let err = check_index("kernel", 3, 3).unwrap_err();
        assert!(matches!(err, GraphError::IdOutOfRange { index: 3, .. }));
    }

    #[test]
    fn settings_conflict_converts() {
        let e: GraphError = (ConnectorId::new(4), SettingsConflict::Depth(1, 2)).into();
        assert!(e.to_string().contains("c4"));
    }

    #[test]
    fn codes_are_stable_and_prefixed() {
        let e = GraphError::UnknownKernel { kind: "x".into() };
        assert_eq!(e.code(), "CG008");
        assert!(e.to_string().starts_with("[CG008] "));
        assert!(!e.message().contains("CG008"));
        let lint = GraphError::LintRejected {
            errors: 2,
            report: "error[CG020] ...".into(),
        };
        assert_eq!(lint.code(), "CG012");
        assert!(lint.to_string().contains("2 error-level diagnostics"));
    }
}
