//! Exporters over a [`crate::TraceSnapshot`]: Chrome-trace JSON for
//! `chrome://tracing` / Perfetto, a plain-text summary table, a
//! machine-readable JSON snapshot, and Prometheus text exposition for live
//! scraping.

pub mod chrome;
pub mod json;
pub mod prometheus;
pub mod summary;
