//! The daemon: acceptor pool, routing, admission pipeline and drain.
//!
//! Request lifecycle for `POST /v1/run`:
//!
//! 1. parse + version-check the [`RunRequest`];
//! 2. per-client token bucket (`429 RATE_LIMITED` with `Retry-After`);
//! 3. compiled-graph cache lookup by digest (miss → parse / lint /
//!    flatten / compile once, then insert);
//! 4. deny-by-default lint gate — `CG0xx` findings go back to the client
//!    in the JSON error body (`422`);
//! 5. a workload whose element count overflows is refused
//!    (`400 BAD_REQUEST`);
//! 6. cost gate, when a limit is set: the server's own `cgsim-lint`
//!    estimate for this graph and workload (`429 COST_EXCEEDED` above the
//!    limit, or when the dataflow is cyclic and has no estimate). Whatever
//!    the request says about cost is ignored;
//! 7. round-robin fair in-flight slot, then submission to the bounded
//!    `cgsim-pool` (`503 QUEUE_FULL`);
//! 8. the job executes on a pool worker under the request's own tracer
//!    (enabled only for `"trace": true`) and leaves its engine's
//!    [`ServeReport`] section and trace snapshot in one slot; the response
//!    is that report plus label, counters, lint findings and bounds.
//!
//! Shutdown is graceful: `/healthz` flips to 503, acceptors finish their
//! in-flight requests and exit, the pool drains, and the final
//! [`PoolReport`](cgsim_pool::PoolReport) is returned as a `ServeReport`.

use crate::cache::{digest_app, digest_manifest, CacheEntry, CachePayload, PlanCache};
use crate::http::{read_request, write_response, HttpError, Request};
use crate::limit::{FairQueue, RateLimit, RateLimiter};
use crate::report::ServeReport;
use crate::wire::{ErrorBody, GraphSource, RunRequest, WIRE_VERSION};
use aie_sim::{SimReport, VerifyPolicy};
use cgsim_core::{CheckedGraph, FlatGraph, GraphError};
use cgsim_graphs::support::element_count;
use cgsim_graphs::{all_apps, Launch};
use cgsim_lint::{cost_estimate, lint_checked, LintConfig, Severity};
use cgsim_pool::{Admission, Job, JobOutcome, JobOutput, Pool, PoolConfig, SubmitError};
use cgsim_runtime::{compile_linted, Backend};
use cgsim_trace::export::chrome::chrome_trace_json;
use cgsim_trace::export::prometheus;
use cgsim_trace::{Counter, Histogram, MetricsRegistry, TraceSnapshot, Tracer};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many kept traces the trace store retains.
const TRACE_STORE_CAPACITY: usize = 16;

/// Everything configurable about one server instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Acceptor threads (each handles one connection at a time). Clamped
    /// to at least 1.
    pub http_workers: usize,
    /// Simulation pool worker threads.
    pub pool_workers: usize,
    /// Pool admission queue capacity.
    pub queue_capacity: usize,
    /// Ceiling on a run's predicted scheduler polls, as the server
    /// estimates them from the graph and workload it admits (`429
    /// COST_EXCEEDED` above it). `None` computes no estimate.
    pub cost_limit: Option<u64>,
    /// Compiled-graph cache capacity (entries).
    pub cache_capacity: usize,
    /// Per-client token bucket; `None` disables rate limiting.
    pub rate: Option<RateLimit>,
    /// Concurrent runs admitted past the fair queue.
    pub max_inflight: usize,
    /// Request body cap in bytes.
    pub max_body_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            http_workers: 4,
            pool_workers: 2,
            queue_capacity: 64,
            cost_limit: None,
            cache_capacity: 8,
            rate: None,
            max_inflight: 4,
            max_body_bytes: 4 * 1024 * 1024,
        }
    }
}

struct TraceStore {
    next_id: u64,
    items: VecDeque<(u64, String)>,
}

impl TraceStore {
    fn keep(&mut self, trace: String) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.items.push_back((id, trace));
        while self.items.len() > TRACE_STORE_CAPACITY {
            self.items.pop_front();
        }
        id
    }

    fn get(&self, id: u64) -> Option<&str> {
        self.items
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, t)| t.as_str())
    }
}

/// Shared server state.
struct Inner {
    config: ServeConfig,
    /// `None` once draining has taken the pool for shutdown. Guarded by a
    /// mutex rather than `Arc::try_unwrap` gymnastics; submits are
    /// non-blocking (`Admission::Reject`), so the critical section is
    /// short.
    pool: Mutex<Option<Pool>>,
    cache: PlanCache,
    limiter: Option<RateLimiter>,
    fair: FairQueue,
    metrics: MetricsRegistry,
    traces: Mutex<TraceStore>,
    draining: AtomicBool,
    requests: Counter,
    runs_ok: Counter,
    runs_failed: Counter,
    lint_rejected: Counter,
    cost_rejected: Counter,
    request_ns: Histogram,
}

/// One HTTP response, routed back through [`write_response`].
struct Response {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
    extra: Vec<(&'static str, String)>,
}

impl Response {
    fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            extra: Vec::new(),
        }
    }

    /// A non-2xx answer whose body is an [`ErrorBody`] without findings.
    fn error(status: u16, code: impl Into<String>, error: impl Into<String>) -> Self {
        Response::json(status, ErrorBody::new(code, error).to_json())
    }

    fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            body: body.into().into_bytes(),
            extra: Vec::new(),
        }
    }

    /// The reason phrase of every status the daemon answers with.
    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Internal Server Error",
        }
    }
}

/// The serve daemon. [`Server::start`] binds, spawns the acceptor pool and
/// returns a [`ServerHandle`].
pub struct Server;

impl Server {
    /// Bind `config.addr`, start the pool and acceptors, and return the
    /// running server's handle.
    pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
        let metrics = MetricsRegistry::default();
        let cache = PlanCache::new(config.cache_capacity, &metrics);
        let limiter = config.rate.map(|rate| RateLimiter::new(rate, &metrics));
        let fair = FairQueue::new(config.max_inflight);

        let pool = Pool::new(
            PoolConfig::default()
                .with_trace(false)
                .with_workers(config.pool_workers)
                .with_queue_capacity(config.queue_capacity)
                .with_admission(Admission::Reject),
        );

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let inner = Arc::new(Inner {
            requests: metrics.counter("serve_requests_total", &[]),
            runs_ok: metrics.counter("serve_runs_ok", &[]),
            runs_failed: metrics.counter("serve_runs_failed", &[]),
            lint_rejected: metrics.counter("serve_lint_rejected", &[]),
            cost_rejected: metrics.counter("serve_cost_rejected", &[]),
            request_ns: metrics.histogram("serve_request_ns", &[]),
            pool: Mutex::new(Some(pool)),
            cache,
            limiter,
            fair,
            metrics,
            traces: Mutex::new(TraceStore {
                next_id: 0,
                items: VecDeque::new(),
            }),
            draining: AtomicBool::new(false),
            config,
        });

        let mut acceptors = Vec::new();
        for i in 0..inner.config.http_workers.max(1) {
            let listener = listener.try_clone()?;
            let inner = Arc::clone(&inner);
            acceptors.push(
                std::thread::Builder::new()
                    .name(format!("serve-accept-{i}"))
                    .spawn(move || accept_loop(&inner, &listener))
                    .expect("spawn acceptor"),
            );
        }

        Ok(ServerHandle {
            inner,
            addr,
            acceptors,
        })
    }
}

/// Handle to a running server.
pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptors: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting, finish in-flight requests, shut the
    /// pool down, and return the final pool-level report.
    pub fn shutdown(self) -> ServeReport {
        self.inner.draining.store(true, Ordering::SeqCst);
        let mut acceptors = self.acceptors;
        // Acceptors may be mid-request; nudge each pass through `accept`
        // with a throwaway connection until every thread has exited.
        while !acceptors.is_empty() {
            let _ = TcpStream::connect(self.addr);
            let (finished, running): (Vec<_>, Vec<_>) =
                acceptors.into_iter().partition(|h| h.is_finished());
            for handle in finished {
                let _ = handle.join();
            }
            acceptors = running;
            if !acceptors.is_empty() {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let pool = self
            .inner
            .pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        match pool {
            Some(pool) => ServeReport::from(&pool.shutdown()),
            None => ServeReport::default(),
        }
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    loop {
        if inner.draining.load(Ordering::SeqCst) {
            break;
        }
        let (stream, peer) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => continue,
        };
        if inner.draining.load(Ordering::SeqCst) {
            // The wake-up connection from `shutdown`.
            break;
        }
        handle_conn(inner, stream, peer);
    }
}

fn handle_conn(inner: &Arc<Inner>, mut stream: TcpStream, peer: SocketAddr) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let started = Instant::now();
    let response = match read_request(&mut stream, inner.config.max_body_bytes) {
        Ok(request) => {
            inner.requests.inc();
            let response = route(inner, &request, peer);
            inner
                .request_ns
                .observe(started.elapsed().as_nanos() as u64);
            response
        }
        Err(HttpError::TooLarge) => Response::error(
            413,
            "TOO_LARGE",
            "request exceeds the configured size limit",
        ),
        Err(HttpError::BadRequest(what)) => Response::error(400, "BAD_REQUEST", what),
        Err(HttpError::Io(_)) => return,
    };
    let _ = write_response(
        &mut stream,
        response.status,
        response.reason(),
        response.content_type,
        &response.body,
        &response.extra,
    );
}

fn route(inner: &Arc<Inner>, request: &Request, peer: SocketAddr) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            if inner.draining.load(Ordering::SeqCst) {
                Response::text(503, "draining\n")
            } else {
                Response::text(200, "ok\n")
            }
        }
        ("GET", "/metrics") => metrics_page(inner),
        ("POST", "/v1/run") => handle_run(inner, request, peer),
        ("POST", "/v1/cache/flush") => {
            let flushed = inner.cache.flush();
            Response::json(200, format!("{{\"flushed\":{flushed}}}"))
        }
        ("GET", path) if path.starts_with("/v1/trace/") => {
            let id = path["/v1/trace/".len()..].parse::<u64>().ok();
            let traces = inner.traces.lock().unwrap_or_else(|e| e.into_inner());
            match id.and_then(|id| traces.get(id)) {
                Some(trace) => Response::json(200, trace.to_string()),
                None => Response::error(404, "UNKNOWN_TRACE", "no kept trace under that id"),
            }
        }
        (method, path) => {
            Response::error(404, "NOT_FOUND", format!("no route for {method} {path}"))
        }
    }
}

/// `/metrics`: serve-layer registry plus the live pool registry, one
/// Prometheus exposition. Gauges are refreshed at scrape time.
fn metrics_page(inner: &Arc<Inner>) -> Response {
    let gauge = |name| inner.metrics.gauge(name, &[]);
    gauge("serve_inflight").set(inner.fair.inflight() as i64);
    gauge("serve_cache_entries").set(inner.cache.len() as i64);
    let queue_gauge = gauge("serve_pool_queue_depth");
    let mut pool_text = String::new();
    if let Some(pool) = inner
        .pool
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
    {
        queue_gauge.set(pool.queued_jobs() as i64);
        pool_text = prometheus::render(&pool.metrics());
    }
    let mut text = prometheus::render(&inner.metrics.snapshot());
    text.push_str(&pool_text);
    Response::text(200, text)
}

/// Resolve the client identity for rate limiting / fair queueing: the
/// `X-Client-Id` header when present, else the peer IP.
fn client_of(request: &Request, peer: SocketAddr) -> String {
    request
        .header("x-client-id")
        .map(str::to_string)
        .unwrap_or_else(|| peer.ip().to_string())
}

fn engine_of(backend: Backend) -> &'static str {
    match backend {
        Backend::Cooperative => "cooperative",
        Backend::Threaded => "threaded",
        Backend::Compiled => "compiled",
    }
}

/// Build (or reject) the cache entry for a graph source.
fn build_entry(digest: u64, source: &GraphSource) -> Result<CacheEntry, Response> {
    let refuse = |e: GraphError| Response::error(422, e.code(), e.message());
    match source {
        GraphSource::App(name) => {
            let Some(app) = all_apps().into_iter().find(|a| a.name() == name.as_str()) else {
                let known: Vec<&str> = all_apps().iter().map(|a| a.name()).collect();
                return Err(Response::error(
                    404,
                    "UNKNOWN_APP",
                    format!("no app `{name}` (known: {})", known.join(", ")),
                ));
            };
            let graph = app.graph();
            let checked = CheckedGraph::new(&graph).map_err(refuse)?;
            let lint = lint_checked(&checked, &LintConfig::default());
            let plan = compile_linted(&checked, &lint).ok();
            Ok(CacheEntry {
                digest,
                label: name.clone(),
                lint,
                payload: CachePayload::App {
                    name: name.clone(),
                    graph: Box::new(graph),
                    plan: plan.map(Box::new),
                },
            })
        }
        GraphSource::Manifest(manifest) => {
            let checked = CheckedGraph::new(&manifest.graph)
                .and_then(|checked| manifest.config.check().map(|()| checked))
                .map_err(refuse)?;
            let lint = lint_checked(&checked, &manifest.lint_config());
            Ok(CacheEntry {
                digest,
                label: manifest.graph.name.clone(),
                lint,
                payload: CachePayload::Manifest(manifest.clone()),
            })
        }
    }
}

/// The graph a run of `entry` over `blocks` input blocks reads, and the
/// elements fed to each of its global inputs (an app's `workload(blocks)`,
/// a manifest's embedded workload); or the message refusing an element
/// count that overflows ([`element_count`]).
fn feed_lens(entry: &CacheEntry, blocks: u64) -> Result<(&FlatGraph, Vec<u64>), String> {
    let (graph, workload) = match &entry.payload {
        CachePayload::App { name, graph, .. } => {
            let app = all_apps().into_iter().find(|a| a.name() == name.as_str());
            (&**graph, app.ok_or("app vanished")?.workload(blocks))
        }
        CachePayload::Manifest(manifest) => (&manifest.graph, manifest.workload.clone()),
    };
    let lens = (workload.elems_per_block_in.iter())
        .map(|&elems| element_count(&entry.label, workload.blocks, elems).map(|n| n as u64))
        .collect::<Result<_, _>>()?;
    Ok((graph, lens))
}

fn handle_run(inner: &Arc<Inner>, request: &Request, peer: SocketAddr) -> Response {
    let parsed = std::str::from_utf8(&request.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(|body| serde_json::from_str::<RunRequest>(body).map_err(|e| e.to_string()));
    let run_request = match parsed {
        Ok(parsed) => parsed,
        Err(what) => return Response::error(400, "BAD_REQUEST", what),
    };
    let version = run_request.version;
    if version != WIRE_VERSION {
        let message = format!("wire version {version} unsupported (expected {WIRE_VERSION})");
        return Response::error(400, "BAD_VERSION", message);
    }

    let client = client_of(request, peer);
    if let Some(limiter) = &inner.limiter {
        if let Err(retry) = limiter.try_acquire(&client) {
            let message = format!("client `{client}` over rate budget");
            let mut response = Response::error(429, "RATE_LIMITED", message);
            let retry_secs = retry.as_secs().max(1).to_string();
            response.extra.push(("Retry-After", retry_secs));
            return response;
        }
    }

    let digest = match &run_request.graph {
        GraphSource::App(name) => digest_app(name),
        GraphSource::Manifest(manifest) => digest_manifest(manifest),
    };
    let entry = match inner.cache.get(digest) {
        Some(entry) => entry,
        None => match build_entry(digest, &run_request.graph) {
            Ok(entry) => inner.cache.insert(entry),
            Err(response) => return response,
        },
    };

    // Deny-by-default lint gate: error findings block execution unless the
    // request's spec explicitly opts down to Warn/Off.
    let verify = run_request.spec.config().verify;
    if verify == VerifyPolicy::Deny && entry.lint.has_errors() {
        inner.lint_rejected.inc();
        let findings: Vec<_> = entry.lint.diagnostics.clone();
        let code = entry
            .lint
            .at(Severity::Error)
            .next()
            .map(|d| d.code.clone())
            .unwrap_or_else(|| "CG012".to_string());
        let message = format!(
            "graph `{}` rejected by static verification ({} error finding(s))",
            entry.label,
            entry.lint.error_count()
        );
        let body = ErrorBody::new(code, message).with_findings(findings);
        return Response::json(422, body.to_json());
    }

    // A workload whose element count overflows can never run: refused
    // before it costs a fair-queue slot or a pool worker.
    let blocks = run_request.blocks.max(1);
    let (graph, feeds) = match feed_lens(&entry, blocks) {
        Ok(found) => found,
        Err(message) => return Response::error(400, "BAD_REQUEST", message),
    };

    // Cost gate: the server's own estimate, so a request that understates
    // its cost cannot get under the limit. Refused before the fair queue,
    // so a refusal never waits for a slot.
    if let Some(limit) = inner.config.cost_limit {
        let checked = CheckedGraph::new(graph).ok();
        let cost = checked.and_then(|checked| cost_estimate(&checked, &feeds));
        let message = match cost.map(|cost| cost.polls_hint) {
            Some(polls) if polls <= limit => None,
            Some(polls) => Some(format!(
                "predicted cost {polls} polls exceeds admission limit {limit}"
            )),
            None => Some(format!(
                "graph `{}` has cyclic dataflow, so no cost estimate",
                entry.label
            )),
        };
        if let Some(message) = message {
            inner.cost_rejected.inc();
            return Response::error(429, "COST_EXCEEDED", message);
        }
    }

    // Fair in-flight slot (round-robin across clients), held for the whole
    // run so a chatty client cannot occupy every pool worker.
    let _slot = inner.fair.acquire(&client);

    let spec = run_request.spec.clone();
    // The request owns its tracer: only a run that asks for a trace
    // records one. Both engines leave their report section and the drained
    // trace in the one slot.
    let tracer = if run_request.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let report_slot = Arc::new(Mutex::new(None::<(ServeReport, TraceSnapshot)>));
    let job_slot = Arc::clone(&report_slot);
    let job = match &entry.payload {
        CachePayload::App { name, plan, .. } => {
            let name = name.clone();
            let plan = plan.clone().map(|plan| *plan);
            let engine = engine_of(spec.target());
            Job::new(spec.clone(), move |ctx| {
                let app = all_apps()
                    .into_iter()
                    .find(|a| a.name() == name.as_str())
                    .ok_or_else(|| format!("app `{name}` vanished"))?;
                let run =
                    app.run_launched(&ctx.effective_spec(), blocks, Launch { plan, tracer })?;
                let run_report = run
                    .report
                    .ok_or_else(|| format!("app `{name}` returned no run report"))?;
                let mut report = ServeReport::from(&*run_report);
                report.engine = engine.into();
                report.summary.checksum = Some(run.checksum);
                report.summary.elements = run.out_elems as u64;
                if report.summary.wall_ns == 0 {
                    report.summary.wall_ns = run.wall_time.as_nanos() as u64;
                }
                *job_slot.lock().unwrap_or_else(|e| e.into_inner()) =
                    Some((report, run_report.trace.clone()));
                Ok(JobOutput::new(run.checksum).elements(run.out_elems as u64))
            })
        }
        CachePayload::Manifest(manifest) => {
            let manifest = (**manifest).clone();
            Job::new(spec.clone(), move |_ctx| {
                // Admission already linted the manifest, so it simulates
                // here without a second gate.
                let profiles = manifest.profile_map();
                let trace = aie_sim::simulate_graph_traced(
                    &manifest.graph,
                    &profiles,
                    &manifest.config,
                    &manifest.workload,
                    &tracer,
                )
                .map_err(|e| format!("[{}] {}", e.code(), e.message()))?;
                let kinds: HashMap<String, String> = manifest
                    .graph
                    .kernels
                    .iter()
                    .map(|k| (k.instance.clone(), k.kind.clone()))
                    .collect();
                let sim = SimReport::build(&trace, &profiles, &kinds, &manifest.config);
                let blocks = sim.blocks as u64;
                *job_slot.lock().unwrap_or_else(|e| e.into_inner()) =
                    Some((ServeReport::from(&sim), tracer.snapshot()));
                Ok(JobOutput::new(0).elements(blocks))
            })
        }
    };

    let submitted = {
        let guard = inner.pool.lock().unwrap_or_else(|e| e.into_inner());
        match guard.as_ref() {
            Some(pool) => pool.submit(job),
            None => Err(SubmitError::ShuttingDown),
        }
    };
    let handle = match submitted {
        Ok(handle) => handle,
        Err(SubmitError::QueueFull) => {
            return Response::error(503, "QUEUE_FULL", "admission queue is full; retry later")
        }
        Err(SubmitError::ShuttingDown) => {
            return Response::error(503, "DRAINING", "server is draining")
        }
    };

    match handle.wait() {
        JobOutcome::Completed(result) => {
            let Some((mut report, trace)) =
                report_slot.lock().unwrap_or_else(|e| e.into_inner()).take()
            else {
                inner.runs_failed.inc();
                return Response::error(500, "RUN_FAILED", "job completed without a report");
            };
            inner.runs_ok.inc();
            report.label = spec.label().to_string();
            report
                .counters
                .push(("wall_ns".into(), result.wall.as_nanos() as u64));
            report
                .counters
                .push(("queue_wait_ns".into(), result.queue_wait.as_nanos() as u64));
            for (name, value) in &result.output.counters {
                report.counters.push((name.clone(), *value));
            }
            if verify != VerifyPolicy::Off {
                report.lint = entry.lint.diagnostics.clone();
            }
            report.bounds = entry.lint.bounds().cloned();
            if run_request.trace {
                let id = inner
                    .traces
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .keep(chrome_trace_json(&trace));
                report.trace_ref = Some(format!("/v1/trace/{id}"));
            }
            Response::json(200, report.to_json())
        }
        JobOutcome::TimedOut => {
            inner.runs_failed.inc();
            Response::error(504, "DEADLINE", "run exceeded its deadline budget")
        }
        JobOutcome::Cancelled => {
            inner.runs_failed.inc();
            Response::error(503, "CANCELLED", "run was cancelled")
        }
        JobOutcome::Failed(error) => {
            inner.runs_failed.inc();
            Response::error(500, "RUN_FAILED", error)
        }
    }
}
