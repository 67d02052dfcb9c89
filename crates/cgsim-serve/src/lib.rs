//! Simulation-as-a-service: an HTTP+JSON daemon over the compute-graph
//! simulation stack.
//!
//! The paper's flow is batch-oriented — build a graph, lint it, simulate,
//! read the report. `cgsim-serve` lifts that flow behind a small, stable
//! wire API so long-lived tooling (CI dashboards, sweep drivers, notebook
//! clients) can submit runs without linking the simulator:
//!
//! * `POST /v1/run` — submit a [`wire::RunRequest`] (an evaluation app by
//!   name, or a full `aie-sim` deployment manifest) plus a serialized
//!   [`RunSpec`](cgsim_runtime::RunSpec); receive a [`report::ServeReport`].
//! * `GET  /metrics` — Prometheus text exposition for the serve layer and
//!   the underlying `cgsim-pool` (cache hits, admission, stalls …).
//! * `GET  /healthz` — liveness; flips to 503 while draining.
//! * `GET  /v1/trace/{id}` — Chrome-trace JSON kept from a run whose
//!   request set `"trace": true` (the last 16 are kept). Only such a run
//!   records a trace: app runs carry the runtime's wall-clock events,
//!   manifest runs the cycle simulator's events in simulated time. The
//!   daemon's pool runs untraced and keeps nothing per job.
//! * `POST /v1/cache/flush` — drop the compiled-graph cache (cold-path
//!   benchmarking).
//!
//! Admission is deny-by-default: every submitted graph passes the
//! `cgsim-lint` gate and rejected clients see the `CG0xx` findings in the
//! JSON error body. Compiled artifacts (parse → lint → flatten → compile)
//! are cached by manifest digest and shared across requests; per-client
//! token buckets and a round-robin fair queue sit in front of the pool's
//! bounded admission queue.
//!
//! The server is hand-rolled over [`std::net::TcpListener`] — a fixed
//! acceptor pool, blocking I/O, one request per connection — because the
//! workload is simulation-bound, not connection-bound; no async framework
//! is pulled in.

#![warn(missing_docs)]

pub mod cache;
pub mod http;
pub mod limit;
pub mod report;
pub mod server;
pub mod wire;

pub use cache::{CacheEntry, CachePayload, PlanCache};
pub use limit::{FairQueue, RateLimit, RateLimiter};
pub use report::{ChannelRow, RunSummary, ServeReport, REPORT_VERSION};
pub use server::{ServeConfig, Server, ServerHandle};
pub use wire::{ErrorBody, GraphSource, RunRequest, WIRE_VERSION};
