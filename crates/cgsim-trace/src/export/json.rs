//! Machine-readable JSON snapshot: metrics and per-kernel summary, for
//! regression dashboards and scripted comparison (not the raw event list —
//! that is what the Chrome export is for).

use crate::export::summary::summarize;
use crate::snapshot::TraceSnapshot;

/// Build the snapshot document as a JSON value.
pub fn snapshot_value(snapshot: &TraceSnapshot) -> serde_json::Value {
    let table = summarize(snapshot);
    let kernels: Vec<serde_json::Value> = table
        .rows
        .iter()
        .map(|row| {
            serde_json::json!({
                "name": row.name.clone(),
                "iterations": row.iterations,
                "busy_ns": row.busy,
                "utilization": row.utilization,
                "interval_ns": row
                    .interval_ns
                    .map(serde_json::Value::from)
                    .unwrap_or(serde_json::Value::Null),
                "stalls": row.stalls,
            })
        })
        .collect();
    let channels: Vec<serde_json::Value> = snapshot
        .channels
        .iter()
        .map(|c| {
            serde_json::json!({
                "name": c.name.clone(),
                "capacity": c.capacity,
            })
        })
        .collect();
    let counters: Vec<(String, serde_json::Value)> = snapshot
        .metrics
        .counters
        .iter()
        .map(|(k, v)| (k.render(), serde_json::Value::from(*v)))
        .collect();
    let gauges: Vec<(String, serde_json::Value)> = snapshot
        .metrics
        .gauges
        .iter()
        .map(|(k, v)| (k.render(), serde_json::Value::from(*v)))
        .collect();
    let histograms: Vec<(String, serde_json::Value)> = snapshot
        .metrics
        .histograms
        .iter()
        .map(|(k, h)| {
            (
                k.render(),
                serde_json::json!({
                    "count": h.count,
                    "sum": h.sum,
                    "max": h.max,
                    "log2_buckets": serde_json::Value::Array(
                        h.buckets.iter().map(|&b| serde_json::Value::from(b)).collect(),
                    ),
                }),
            )
        })
        .collect();
    serde_json::json!({
        "span_ns": table.total_ns,
        "records": snapshot.records.len(),
        "dropped": snapshot.dropped,
        "kernels": serde_json::Value::Array(kernels),
        "channels": serde_json::Value::Array(channels),
        "counters": serde_json::Value::Object(counters),
        "gauges": serde_json::Value::Object(gauges),
        "histograms": serde_json::Value::Object(histograms),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{KernelRef, TraceEvent, TraceRecord};

    #[test]
    fn snapshot_value_has_kernel_rows() {
        let snapshot = TraceSnapshot {
            kernels: vec!["k0".into()],
            records: vec![TraceRecord {
                ts_ns: 50,
                event: TraceEvent::IterationEnd {
                    kernel: KernelRef(0),
                    iteration: 0,
                    start_ns: 10,
                },
            }],
            ..Default::default()
        };
        let parsed = snapshot_value(&snapshot);
        assert_eq!(parsed["records"], 1);
        let kernels = parsed["kernels"].as_array().unwrap();
        assert_eq!(kernels.len(), 1);
        assert_eq!(kernels[0]["iterations"], 1);
        assert_eq!(kernels[0]["busy_ns"], 40);
    }
}
