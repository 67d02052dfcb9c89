//! The unified, versioned response report.
//!
//! Three engines produce three report shapes — the functional runtime's
//! [`RunReport`], the batch pool's [`PoolReport`] and the cycle
//! simulator's [`SimReport`](aie_sim::SimReport). [`ServeReport`] is the single serializable
//! view the wire API returns for all of them: a run summary, per-channel
//! counters, per-kernel rows, free-form counters, the lint findings the
//! admission gate saw, and (when the bounds pass ran) the static
//! occupancy bounds.

use aie_sim::KernelReport;
use cgsim_core::GraphBounds;
use cgsim_lint::Diagnostic;
use cgsim_pool::PoolReport;
use cgsim_runtime::{ChannelStats, RunReport};
use serde::{Deserialize, Serialize};

/// Current report wire-format version.
pub const REPORT_VERSION: u32 = 1;

fn report_version() -> u32 {
    REPORT_VERSION
}

/// Scheduler-level outcome of one run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Every coroutine ran to completion (no stall / deadlock).
    pub drained: bool,
    /// Why the run stopped early (`"deadline"` / `"cancelled"`), if it
    /// did.
    #[serde(default)]
    pub interrupted: Option<String>,
    /// Tasks registered with the scheduler.
    pub tasks: u64,
    /// Tasks that completed.
    pub completed: u64,
    /// Total scheduler polls.
    pub polls: u64,
    /// Total suspensions (would-block events).
    pub suspensions: u64,
    /// Output elements produced.
    pub elements: u64,
    /// Wall-clock execution time in nanoseconds.
    pub wall_ns: u64,
    /// Fraction of wall time spent inside kernels (§5.2), when profiled.
    #[serde(default)]
    pub kernel_fraction: Option<f64>,
    /// FNV-1a digest of the output stream, when the engine computes one.
    #[serde(default)]
    pub checksum: Option<u64>,
}

/// Per-connector channel counters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChannelRow {
    /// Connector name.
    pub name: String,
    /// Push/pop/blocked/occupancy counters.
    pub stats: ChannelStats,
}

/// The one report shape the wire API returns, regardless of which engine
/// executed the run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ServeReport {
    /// Report wire-format version.
    #[serde(default = "report_version")]
    pub version: u32,
    /// The run's label (from the spec) or `"drain"` for the shutdown
    /// report.
    pub label: String,
    /// Which engine produced the run: `"cooperative"`, `"compiled"`,
    /// `"threaded"`, `"aie-sim"` or `"pool"`.
    pub engine: String,
    /// Scheduler-level outcome.
    pub summary: RunSummary,
    /// Per-connector channel counters (functional-runtime runs).
    #[serde(default)]
    pub channels: Vec<ChannelRow>,
    /// Per-kernel utilization rows (cycle-simulator runs).
    #[serde(default)]
    pub kernels: Vec<KernelReport>,
    /// Free-form named counters (pool metrics, job counters …).
    #[serde(default)]
    pub counters: Vec<(String, u64)>,
    /// Lint findings the admission gate recorded (warnings survive into
    /// the report; errors never reach execution under `Deny`).
    #[serde(default)]
    pub lint: Vec<Diagnostic>,
    /// Static occupancy/latency bounds from the `CG06x` pass, when the
    /// graph has a consistent firing vector.
    #[serde(default)]
    pub bounds: Option<GraphBounds>,
    /// Server-side path of the kept Chrome trace (`/v1/trace/{id}`), when
    /// the request asked for one.
    #[serde(default)]
    pub trace_ref: Option<String>,
}

impl ServeReport {
    /// Serialize for a response body.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("ServeReport serializes")
    }

    /// Parse a report off the wire.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let report: ServeReport =
            serde_json::from_str(json).map_err(|e| format!("report parse error: {e}"))?;
        if report.version != REPORT_VERSION {
            return Err(format!(
                "unsupported report version {} (expected {REPORT_VERSION})",
                report.version
            ));
        }
        Ok(report)
    }
}

impl From<&RunReport> for ServeReport {
    fn from(r: &RunReport) -> Self {
        ServeReport {
            version: REPORT_VERSION,
            label: String::new(),
            engine: "cooperative".into(),
            summary: RunSummary {
                drained: r.drained(),
                interrupted: r.interrupted().map(|i| format!("{i:?}").to_lowercase()),
                tasks: r.exec.tasks as u64,
                completed: r.exec.completed as u64,
                polls: r.exec.polls,
                suspensions: r.exec.suspensions,
                elements: r.elements_moved,
                wall_ns: r.exec.total_time.as_nanos() as u64,
                kernel_fraction: Some(r.exec.kernel_fraction()),
                checksum: None,
            },
            channels: r
                .channels
                .iter()
                .map(|(name, stats)| ChannelRow {
                    name: name.clone(),
                    stats: *stats,
                })
                .collect(),
            kernels: Vec::new(),
            counters: Vec::new(),
            lint: Vec::new(),
            bounds: None,
            trace_ref: None,
        }
    }
}

impl From<RunReport> for ServeReport {
    fn from(r: RunReport) -> Self {
        ServeReport::from(&r)
    }
}

impl From<&PoolReport> for ServeReport {
    fn from(r: &PoolReport) -> Self {
        ServeReport {
            version: REPORT_VERSION,
            label: "drain".into(),
            engine: "pool".into(),
            summary: RunSummary {
                drained: true,
                tasks: r.jobs,
                completed: r.metrics.counter_value("pool_jobs_completed").unwrap_or(0),
                ..RunSummary::default()
            },
            counters: r
                .metrics
                .counters
                .iter()
                .map(|(key, value)| (key.render(), *value))
                .collect(),
            ..ServeReport::default()
        }
    }
}

impl From<PoolReport> for ServeReport {
    fn from(r: PoolReport) -> Self {
        ServeReport::from(&r)
    }
}

impl From<&aie_sim::SimReport> for ServeReport {
    fn from(r: &aie_sim::SimReport) -> Self {
        ServeReport {
            version: REPORT_VERSION,
            label: String::new(),
            engine: "aie-sim".into(),
            summary: RunSummary {
                drained: true,
                tasks: r.kernels.len() as u64,
                completed: r.kernels.len() as u64,
                elements: r.blocks as u64,
                wall_ns: r.total_ns as u64,
                ..RunSummary::default()
            },
            kernels: r.kernels.clone(),
            counters: r
                .ns_per_block
                .map(|ns| vec![("ns_per_block".to_string(), ns as u64)])
                .unwrap_or_default(),
            ..ServeReport::default()
        }
    }
}

impl From<aie_sim::SimReport> for ServeReport {
    fn from(r: aie_sim::SimReport) -> Self {
        ServeReport::from(&r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips() {
        let report = ServeReport {
            version: REPORT_VERSION,
            label: "rt".into(),
            engine: "cooperative".into(),
            summary: RunSummary {
                drained: true,
                tasks: 3,
                completed: 3,
                polls: 99,
                elements: 256,
                wall_ns: 12345,
                kernel_fraction: Some(0.5),
                checksum: Some(0xDEAD),
                ..RunSummary::default()
            },
            counters: vec![("pool_steals".into(), 2)],
            ..ServeReport::default()
        };
        let back = ServeReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(back.label, "rt");
        assert_eq!(back.summary, report.summary);
        assert_eq!(back.counters, report.counters);
    }

    #[test]
    fn version_gate_rejects_future_reports() {
        let report = ServeReport {
            version: REPORT_VERSION + 1,
            label: "v".into(),
            ..ServeReport::default()
        };
        assert!(ServeReport::from_json(&report.to_json()).is_err());
    }

    #[test]
    fn sim_report_maps_kernel_rows() {
        let sim = aie_sim::SimReport {
            kernels: vec![KernelReport {
                instance: "k_0".into(),
                iterations: 8,
                busy_cycles: 64,
                utilization: 0.25,
                interval_ns: Some(4.0),
                stalls: 1,
            }],
            ns_per_block: Some(17.0),
            total_ns: 400.0,
            blocks: 4,
        };
        let report = ServeReport::from(&sim);
        assert_eq!(report.engine, "aie-sim");
        assert_eq!(report.kernels.len(), 1);
        assert_eq!(report.kernels[0].iterations, 8);
        assert_eq!(report.summary.elements, 4);
        assert_eq!(report.counters, vec![("ns_per_block".to_string(), 17)]);
    }
}
