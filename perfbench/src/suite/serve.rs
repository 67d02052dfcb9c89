//! `serve_hit` and `serve_miss`: `POST /v1/run` against an in-process
//! `cgsim-serve` daemon, open loop.
//!
//! * **hit** — one small app request, cache pre-warmed. The simulation is
//!   a small share of the request, so TCP accept, `http.rs` framing, JSON
//!   decode and encode, cache *read*, fair queue and pool hand-off do the
//!   work.
//! * **miss** — inline deployment manifests drawn in seeded order from 64
//!   distinct variants against a cache of 8, so every request misses,
//!   inserts and evicts: KB-sized JSON decode, canonical-JSON digest,
//!   validate, lint, cache *write* and the `aie-sim` event engine do the
//!   work while the cache-read path and `cgsim-runtime` do nothing.
//!
//! The traced pass replays the daemon's `handle_run` stage by stage on the
//! workload's own request bytes, through the same public functions, and
//! sets the sum against a one-connection closed loop over the socket; what
//! the stages do not cover (accept, connect, thread wake-ups) is reported
//! as `cgsim-serve.unattributed_us`, not hidden.

use super::openloop::{self, exchange, get_request, post_request, run_open_loop, Exchange};
use super::pool_sweep::job_counter;
use super::spans::Spans;
use super::stats::{self, SLICES};
use super::{host, layer_medians, repeat_for, Metrics, Tally, Window, Workload};
use aie_sim::{DeployManifest, DeployOptions, SimConfig, SimReport, VerifyPolicy};
use cgsim_graphs::{all_apps, AppRun, Backend, Launch, RunSpec};
use cgsim_lint::{lint_graph, LintConfig};
use cgsim_pool::{Admission, Job, JobOutcome, JobOutput, Pool, PoolConfig};
use cgsim_serve::cache::{digest_app, digest_manifest};
use cgsim_serve::http::{read_request, write_response};
use cgsim_serve::{
    CacheEntry, CachePayload, FairQueue, GraphSource, PlanCache, RunRequest, ServeConfig,
    ServeReport, Server, ServerHandle,
};
use cgsim_trace::export::prometheus::check_exposition;
use cgsim_trace::MetricsRegistry;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which traffic mix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mix {
    /// Repeated app request; the compiled-graph cache is read.
    Hit,
    /// Distinct inline manifests; the cache is written and evicts.
    Miss,
}

impl Mix {
    /// Offered rate, requests per second.
    fn rate(self) -> f64 {
        match self {
            Mix::Hit => 2000.0,
            Mix::Miss => 1000.0,
        }
    }

    /// Latency limit on p90 from the due time, µs.
    fn limit_us(self) -> f64 {
        match self {
            Mix::Hit => 2000.0,
            Mix::Miss => 5000.0,
        }
    }
}

/// Blocks of the app request.
const HIT_BLOCKS: u64 = 2;
/// Manifest variants per app: graph-name suffix `-v0`..`-v15`, workload of
/// 2 to 5 blocks.
const VARIANTS_PER_APP: usize = 16;
/// Rate multiples of the ladder; the first is the base rate.
const LADDER: [f64; 4] = [1.0, 1.5, 2.0, 2.5];
/// Most replayed requests kept as spans (the span file stays a few MB).
const MAX_REPLAYS: usize = 1000;

/// One distinct request.
struct Variant {
    /// The complete HTTP request.
    request: Vec<u8>,
    /// Its JSON body.
    body: String,
    /// Text every correct response contains.
    expect: String,
}

/// The workload, set up: a running daemon and the requests to send it.
pub struct Serve {
    mix: Mix,
    seed: u64,
    server: Option<ServerHandle>,
    addr: SocketAddr,
    variants: Vec<Variant>,
    /// Variant indices in seeded order; request `i` sends `order[i % len]`.
    order: Vec<usize>,
    cursor: AtomicUsize,
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn hit_variant() -> Result<Variant, String> {
    let app = &all_apps()[0];
    let golden = app.run_spec(&RunSpec::for_graph(app.name()), HIT_BLOCKS)?;
    // Cooperative == compiled here; == served is checked on every response.
    let compiled = app.run_spec(
        &RunSpec::for_graph(app.name()).backend(Backend::Compiled),
        HIT_BLOCKS,
    )?;
    if compiled.checksum != golden.checksum {
        return Err(format!(
            "{}: compiled checksum {:#x}, cooperative {:#x}",
            app.name(),
            compiled.checksum,
            golden.checksum
        ));
    }
    let body = format!(
        r#"{{"graph":{{"app":"{}"}},"blocks":{HIT_BLOCKS}}}"#,
        app.name()
    );
    Ok(Variant {
        request: post_request("/v1/run", &body),
        // Closed by the brace that ends `summary`, so that no longer
        // number matches.
        expect: format!("\"checksum\":{}}}", golden.checksum),
        body,
    })
}

fn miss_variants() -> Vec<Variant> {
    let mut variants = Vec::new();
    for app in all_apps() {
        // Sorted: a `HashMap`'s order would change the bytes run to run.
        let mut profiles: Vec<_> = app.profiles().into_values().collect();
        profiles.sort_by(|a, b| a.kernel.cmp(&b.kernel));
        for v in 0..VARIANTS_PER_APP {
            let blocks = 2 + (v % 4) as u64;
            let mut graph = app.graph();
            graph.name = format!("{}-v{v}", graph.name);
            let manifest = DeployManifest::new(
                graph,
                profiles.clone(),
                SimConfig::hand_optimized(),
                app.workload(blocks),
            );
            let json = serde_json::to_string(&manifest).expect("manifest serializes");
            let body = format!(r#"{{"graph":{{"manifest":{json}}}}}"#);
            variants.push(Variant {
                request: post_request("/v1/run", &body),
                expect: format!("\"elements\":{blocks},"),
                body,
            });
        }
    }
    variants
}

/// Value of `series` (name with labels, as rendered) in an exposition.
fn scraped(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|line| {
            line.strip_prefix(series)?
                .strip_prefix(' ')?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

/// Guarded percentile; a sample too small for it gives the nearest rank
/// and a note, since per-layer figures are indicative and carry no bound.
fn tail_us(samples: &[f64], q: f64, what: &str, notes: &mut Vec<String>) -> f64 {
    stats::percentile(samples, q).unwrap_or_else(|refused| {
        notes.push(format!("{what}: {refused}; nearest rank reported"));
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            0.0
        } else {
            stats::nearest_rank(&sorted, q)
        }
    })
}

impl Serve {
    /// Start the daemon as shipped, build the requests, take the golden
    /// result, and (hit) warm the cache. The first response is parsed in
    /// full and `/metrics` validated; later responses are checked by the
    /// text they must hold.
    pub fn setup(mix: Mix, seed: u64) -> Result<Self, String> {
        let variants = match mix {
            Mix::Hit => vec![hit_variant()?],
            Mix::Miss => miss_variants(),
        };
        let mut order: Vec<usize> = (0..variants.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..i + 1));
        }
        let server = Server::start(ServeConfig::default()).map_err(|e| format!("start: {e}"))?;
        let serve = Serve {
            mix,
            seed,
            addr: server.addr(),
            server: Some(server),
            variants,
            order,
            cursor: AtomicUsize::new(0),
        };
        // The last variant in order: the window starts at the first, so on
        // the miss mix this one is long evicted before it comes round.
        let first = serve.variant(serve.order.len() - 1);
        let response = exchange(serve.addr, &first.request)?;
        serve.check(&response, first)?;
        let report = ServeReport::from_json(&response.body)?;
        let engine = match mix {
            Mix::Hit => "cooperative",
            Mix::Miss => "aie-sim",
        };
        if report.engine != engine || !report.summary.drained {
            return Err(format!(
                "first response: engine {} drained {}",
                report.engine, report.summary.drained
            ));
        }
        serve.scrape()?;
        Ok(serve)
    }

    fn check(&self, response: &Exchange, variant: &Variant) -> Result<(), String> {
        if response.status != 200 {
            return Err(format!("status {}: {}", response.status, response.body));
        }
        if !response.body.contains(&variant.expect) {
            return Err(format!(
                "response lacks {}: {}",
                variant.expect, response.body
            ));
        }
        Ok(())
    }

    fn variant(&self, i: usize) -> &Variant {
        &self.variants[self.order[i % self.order.len()]]
    }

    /// Send request `i` on a fresh connection and check the response.
    fn send(&self, i: usize) -> Result<Exchange, String> {
        let variant = self.variant(i);
        let response = exchange(self.addr, &variant.request)?;
        self.check(&response, variant)?;
        Ok(response)
    }

    fn next(&self) -> usize {
        self.cursor.fetch_add(1, Ordering::Relaxed)
    }

    /// Scrape `/metrics`, validate the exposition, return it.
    fn scrape(&self) -> Result<String, String> {
        let response = exchange(self.addr, &get_request("/metrics"))?;
        if response.status != 200 {
            return Err(format!("/metrics status {}", response.status));
        }
        check_exposition(&response.body).map_err(|e| format!("/metrics exposition: {e}"))?;
        Ok(response.body)
    }

    /// Open loop at `rate` for `span`, on a schedule from the seed.
    fn open_loop(&self, rate: f64, span: Duration, salt: u64) -> openloop::OpenLoopRun {
        let due = openloop::poisson_schedule(self.seed.wrapping_add(salt), rate, span);
        let base = self.cursor.fetch_add(due.len(), Ordering::Relaxed);
        run_open_loop(Instant::now(), &due, span, |i| {
            self.send(base + i).map(|_| ())
        })
    }
}

impl Workload for Serve {
    fn params(&self) -> String {
        let bytes: Vec<usize> = self.variants.iter().map(|v| v.body.len()).collect();
        format!(
            "open loop, Poisson {} req/s over <= {} connections, in-process \
             Server::start(ServeConfig::default()); {} distinct request(s) of {}..{} body \
             bytes; limit p90 <= {} us from due time",
            self.mix.rate(),
            openloop::MAX_CONNECTIONS,
            self.variants.len(),
            bytes.iter().min().unwrap_or(&0),
            bytes.iter().max().unwrap_or(&0),
            self.mix.limit_us()
        )
    }

    /// One request, closed loop, on a fresh connection.
    fn op(&mut self, _spans: &mut Spans) -> Result<(), String> {
        self.send(self.next()).map(|_| ())
    }

    /// Open loop: the schedule covers warm-up and window; requests due in
    /// the warm-up are sent and checked but not measured. A request belongs
    /// to the slice it was due in and its latency runs from that due time.
    fn timed(&mut self, warmup: Duration, window: Duration) -> Window {
        let hits_before = self.scrape().map(|text| scraped(&text, "serve_cache_hits"));
        let span = warmup + window;
        let due = openloop::poisson_schedule(self.seed, self.mix.rate(), span);
        let start = Instant::now();
        let slice_len = window / SLICES as u32;
        let (run, cpu) = std::thread::scope(|scope| {
            // CPU is read at every slice boundary from a thread that only
            // sleeps in between.
            let sampler = scope.spawn(move || {
                (0..=SLICES as u32)
                    .map(|k| {
                        let boundary = start + warmup + slice_len * k;
                        std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
                        host::cpu_us()
                    })
                    .collect::<Vec<f64>>()
            });
            let run = run_open_loop(start, &due, span, |i| self.send(i).map(|_| ()));
            (run, sampler.join().expect("sampler thread does not panic"))
        });

        let mut out = Window::empty();
        let mut completed = [0usize; SLICES];
        let slice_of = |at: Duration| {
            at.checked_sub(warmup)
                .and_then(|at| stats::slice_of(at.as_nanos(), window.as_nanos()))
        };
        for record in &run.records {
            out.tally.note(&record.outcome);
            if let Some(slice) = slice_of(record.due) {
                out.latencies_us[slice].push(record.latency_us());
            }
            if let Some(slice) = slice_of(record.done) {
                completed[slice] += 1;
            }
        }
        for (slice, &n) in completed.iter().enumerate().filter(|(_, n)| **n > 0) {
            out.ops_per_s[slice] = n as f64 / slice_len.as_secs_f64();
            out.cpu_us_per_op[slice] = (cpu[slice + 1] - cpu[slice]) / n as f64;
        }

        // A miss workload that hit the cache measured the wrong path.
        let hits_after = self.scrape().map(|text| scraped(&text, "serve_cache_hits"));
        out.tally.note(&match (self.mix, hits_before, hits_after) {
            (_, Err(e), _) | (_, _, Err(e)) => Err(e),
            (Mix::Miss, Ok(before), Ok(after)) if before != after => Err(format!(
                "serve_cache_hits went from {before} to {after} on the miss workload"
            )),
            _ => Ok(()),
        });
        out
    }

    fn traced(
        &mut self,
        budget: Duration,
        spans: &mut Spans,
        tally: &mut Tally,
    ) -> Result<Metrics, String> {
        let mut notes = Vec::new();
        let before = self.scrape()?;

        // One connection, closed loop, over the socket: the end-to-end
        // figure the staged replay is set against.
        let (mut e2e_us, mut connect_us) = (Vec::new(), Vec::new());
        repeat_for(budget.mul_f64(0.1), 20, || {
            let started = Instant::now();
            let outcome = self.send(self.next());
            e2e_us.push(started.elapsed().as_secs_f64() * 1e6);
            if let Ok(response) = &outcome {
                connect_us.push(response.connect.as_secs_f64() * 1e6);
            }
            tally.note(&outcome.map(|_| ()));
        });
        let e2e = stats::median(&e2e_us);

        // Two connections, closed loop: the daemon's capacity.
        let closed_for = budget.mul_f64(0.1);
        let started = Instant::now();
        let closed: Vec<Tally> = std::thread::scope(|scope| {
            let this = &*self;
            let senders: Vec<_> = (0..openloop::MAX_CONNECTIONS)
                .map(|_| {
                    scope.spawn(move || {
                        let mut tally = Tally::default();
                        while started.elapsed() < closed_for {
                            tally.note(&this.send(this.next()).map(|_| ()));
                        }
                        tally
                    })
                })
                .collect();
            senders
                .into_iter()
                .map(|s| s.join().expect("sender thread does not panic"))
                .collect()
        });
        let closed_elapsed = started.elapsed().as_secs_f64();
        let closed_done: u64 = closed.iter().map(|t| t.attempted - t.failed).sum();
        closed.into_iter().for_each(|t| tally.merge(t));

        // Scrapes: the cost of observing, and the cache's own counters over
        // the two closed loops.
        let mut scrape_us = Vec::new();
        let mut after = String::new();
        for _ in 0..5 {
            let started = Instant::now();
            after = self.scrape()?;
            scrape_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
        let delta = |series: &str| scraped(&after, series) - scraped(&before, series);
        let (hits, misses) = (delta("serve_cache_hits"), delta("serve_cache_misses"));
        let requests = delta("serve_runs_ok").max(1.0);

        // The ladder: the base rate, then multiples of it.
        let mut base = openloop::OpenLoopRun::default();
        let mut max_ok_rps = 0.0;
        for (step, multiple) in LADDER.into_iter().enumerate() {
            let share = if step == 0 { 0.25 } else { 0.1 };
            let rate = self.mix.rate() * multiple;
            let run = self.open_loop(rate, budget.mul_f64(share), step as u64 + 1);
            run.records.iter().for_each(|r| tally.note(&r.outcome));
            let p90 = stats::percentile(&run.latencies_us(), 0.9);
            let keeps_up = run.backlog_end as f64 <= 0.01 * run.records.len() as f64;
            if matches!(p90, Ok(p90) if p90 <= self.mix.limit_us()) && keeps_up {
                max_ok_rps = rate;
            }
            if step == 0 {
                base = run;
            }
        }
        let base_latency = base.latencies_us();
        let base_late: Vec<f64> = base
            .records
            .iter()
            .map(|r| r.lateness().as_secs_f64() * 1e6)
            .collect();
        let slo_misses = base
            .records
            .iter()
            .filter(|r| r.outcome.is_err() || r.latency_us() > self.mix.limit_us())
            .count()
            + base.backlog_end;

        // The staged replay, on the workload's own request bytes.
        let mut replay = Replay::new()?;
        if self.mix == Mix::Hit {
            // The daemon's cache was warm; so is the replay's.
            replay.request(&mut Spans::disabled(), self.variant(0))?;
        }
        let mut replays = 0;
        repeat_for(budget.mul_f64(0.2), 20, || {
            if replays < MAX_REPLAYS {
                spans.next_op();
                tally.note(&replay.request(spans, self.variant(self.next())));
                replays += 1;
            } else {
                tally.note(&replay.request(&mut Spans::disabled(), self.variant(self.next())));
            }
        });
        let staged = stats::median(&spans.staged_us_per_op());
        let body_bytes = stats::median(
            &self
                .variants
                .iter()
                .map(|v| v.body.len() as f64)
                .collect::<Vec<_>>(),
        );

        let mut metrics = layer_medians(spans);
        let decode_us = metrics.get("serde_json.decode_us").copied().unwrap_or(0.0);
        for (name, value) in [
            ("bench.staged_over_e2e", staged / e2e),
            ("cgsim-serve.staged_sum_us", staged),
            ("cgsim-serve.unattributed_us", e2e - staged),
            (
                "cgsim-serve.server_request_us",
                scraped(&after, "serve_request_ns_quantile{quantile=\"0.5\"}") / 1e3,
            ),
            (
                "cgsim-serve.cache_hit_ratio",
                hits / (hits + misses).max(1.0),
            ),
            (
                "cgsim-serve.cache_evictions",
                delta("serve_cache_evictions") * 1e3 / requests,
            ),
            ("cgsim-serve.metrics_scrape_us", stats::median(&scrape_us)),
            (
                "serde_json.decode_ns_per_byte",
                decode_us * 1e3 / body_bytes,
            ),
            ("loadgen.connect_us", stats::median(&connect_us)),
            ("loadgen.closed_rps", closed_done as f64 / closed_elapsed),
            ("loadgen.max_ok_rps", max_ok_rps),
            (
                "loadgen.late_p90_us",
                tail_us(&base_late, 0.9, "loadgen.late_p90_us", &mut notes),
            ),
            (
                "loadgen.p99_us",
                tail_us(&base_latency, 0.99, "loadgen.p99_us", &mut notes),
            ),
            (
                "loadgen.slo_miss_ratio",
                slo_misses as f64 / base.scheduled.max(1) as f64,
            ),
            ("loadgen.backlog_end", base.backlog_end as f64),
        ] {
            metrics.insert(name.into(), value);
        }
        for note in notes {
            eprintln!("note: {note}");
        }
        Ok(metrics)
    }
}

/// `handle_run`, stage by stage, outside the daemon: the same public
/// functions on the same bytes, each under its own span.
struct Replay {
    listener: TcpListener,
    cache: PlanCache,
    fair: FairQueue,
    pool: Pool,
    max_body: usize,
}

/// What a replayed job hands back besides its `JobOutput`.
#[derive(Default)]
struct Slots {
    app: Option<AppRun>,
    sim: Option<SimReport>,
}

impl Replay {
    fn new() -> Result<Self, String> {
        let config = ServeConfig::default();
        Ok(Replay {
            listener: TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?,
            cache: PlanCache::new(config.cache_capacity, &MetricsRegistry::default()),
            fair: FairQueue::new(config.max_inflight),
            // As `Server::start` builds it.
            pool: Pool::new(
                PoolConfig::default()
                    .with_workers(config.pool_workers)
                    .with_queue_capacity(config.queue_capacity)
                    .with_admission(Admission::Reject),
            ),
            max_body: config.max_body_bytes,
        })
    }

    /// The entry `build_entry` makes for a cache miss.
    fn build_entry(
        spans: &mut Spans,
        digest: u64,
        source: &GraphSource,
    ) -> Result<CacheEntry, String> {
        match source {
            GraphSource::App(name) => {
                let app = all_apps()
                    .into_iter()
                    .find(|a| a.name() == name.as_str())
                    .ok_or_else(|| format!("no app `{name}`"))?;
                let graph = app.graph();
                let lint_config = LintConfig::default();
                let lint = lint_graph(&graph, &lint_config);
                let plan = cgsim_compiled::compile(&graph, &lint_config).ok();
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
                spans
                    .record("cgsim-core.validate_us", "", |_| manifest.graph.validate())
                    .map_err(|e| e.to_string())?;
                let lint = spans.record("cgsim-lint.lint_us", "", |_| manifest.lint());
                Ok(CacheEntry {
                    digest,
                    label: manifest.graph.name.clone(),
                    lint,
                    payload: CachePayload::Manifest(manifest.clone()),
                })
            }
        }
    }

    /// The job `handle_run` submits for a cache entry.
    fn job(
        entry: &CacheEntry,
        request: &RunRequest,
        slots: &Arc<Mutex<Slots>>,
        epoch: Instant,
    ) -> Job {
        let slots = Arc::clone(slots);
        match &entry.payload {
            CachePayload::App { name, plan, .. } => {
                let name = name.clone();
                let plan = plan.clone().map(|plan| *plan);
                let blocks = request.blocks.max(1);
                Job::new(request.spec.clone(), move |ctx| {
                    let app = all_apps()
                        .into_iter()
                        .find(|a| a.name() == name.as_str())
                        .ok_or_else(|| format!("app `{name}` vanished"))?;
                    let launch = Launch {
                        plan,
                        tracer: ctx.tracer().clone(),
                    };
                    let run = app.run_launched(&ctx.effective_spec(), blocks, launch)?;
                    if let Some(report) = &run.report {
                        ctx.keep_trace(report.trace.clone());
                    }
                    let output = JobOutput::new(run.checksum).elements(run.out_elems as u64);
                    slots.lock().unwrap_or_else(|e| e.into_inner()).app = Some(run);
                    Ok(output)
                })
            }
            CachePayload::Manifest(manifest) => {
                let manifest = (**manifest).clone();
                Job::new(request.spec.clone(), move |_ctx| {
                    let entered = epoch.elapsed().as_nanos() as u64;
                    let trace = aie_sim::deploy_manifest(
                        &manifest,
                        &DeployOptions::new().verify(VerifyPolicy::Off),
                    )
                    .map_err(|e| format!("[{}] {}", e.code(), e.message()))?;
                    let deployed = epoch.elapsed().as_nanos() as u64;
                    let kinds: HashMap<String, String> = manifest
                        .graph
                        .kernels
                        .iter()
                        .map(|k| (k.instance.clone(), k.kind.clone()))
                        .collect();
                    let report =
                        SimReport::build(&trace, &manifest.profile_map(), &kinds, &manifest.config);
                    let blocks = report.blocks as u64;
                    slots.lock().unwrap_or_else(|e| e.into_inner()).sim = Some(report);
                    Ok(JobOutput::new(0)
                        .elements(blocks)
                        .counter("deploy_from_ns", entered)
                        .counter("deploy_to_ns", deployed))
                })
            }
        }
    }

    /// One request through every stage; the response must hold what the
    /// daemon's response holds.
    fn request(&mut self, spans: &mut Spans, variant: &Variant) -> Result<(), String> {
        let io = |e: std::io::Error| format!("replay socket: {e}");
        // A loopback socket pair, so that `read_request`'s one byte per
        // `read()` pays its system calls. Connecting and accepting are the
        // daemon's unattributed share and stay outside the spans.
        let addr = self.listener.local_addr().map_err(io)?;
        let mut client = TcpStream::connect(addr).map_err(io)?;
        let (mut server_end, _) = self.listener.accept().map_err(io)?;
        client.write_all(&variant.request).map_err(io)?;

        let max_body = self.max_body;
        let http = spans
            .record("cgsim-serve.http_read_us", "", |_| {
                read_request(&mut server_end, max_body)
            })
            .map_err(|e| e.to_string())?;
        let body = std::str::from_utf8(&http.body).map_err(|e| e.to_string())?;
        let request: RunRequest = spans
            .record("serde_json.decode_us", "", |_| serde_json::from_str(body))
            .map_err(|e| e.to_string())?;

        let digest = spans.record("cgsim-serve.digest_us", "", |_| match &request.graph {
            GraphSource::App(name) => digest_app(name),
            GraphSource::Manifest(manifest) => digest_manifest(manifest),
        });
        let cached = spans.record("cgsim-serve.cache_get_us", "", |_| self.cache.get(digest));
        let entry = match cached {
            Some(entry) => entry,
            None => {
                let entry = Self::build_entry(spans, digest, &request.graph)?;
                spans.record("cgsim-serve.cache_insert_us", "", |_| {
                    self.cache.insert(entry)
                })
            }
        };
        if entry.lint.has_errors() {
            return Err(format!("{}: lint errors", entry.label));
        }

        let slot = spans.record("cgsim-serve.fair_acquire_us", "", |_| {
            self.fair.acquire("127.0.0.1")
        });
        let slots = Arc::new(Mutex::new(Slots::default()));
        let epoch = spans.epoch();
        let job = Self::job(&entry, &request, &slots, epoch);
        let outcome = spans.record("cgsim-pool.submit_wait_us", "", |spans| {
            let handle = self
                .pool
                .submit(job)
                .map_err(|e| format!("submit: {e:?}"))?;
            let outcome = handle.wait();
            if let JobOutcome::Completed(result) = &outcome {
                let counter = |name| job_counter(result, name);
                if let (Some(from), Some(to)) = (counter("deploy_from_ns"), counter("deploy_to_ns"))
                {
                    spans.add("aie-sim.deploy_us", "", from, to);
                }
            }
            Ok::<_, String>(outcome)
        })?;
        drop(slot);
        let JobOutcome::Completed(result) = outcome else {
            return Err(format!("{}: replayed job did not complete", entry.label));
        };

        let verify = request.spec.config().verify;
        let report = spans.record("cgsim-serve.report_build_us", "", |_| {
            let mut slots = slots.lock().unwrap_or_else(|e| e.into_inner());
            let mut report = if let Some(run) = slots.app.take() {
                let mut report = match &run.report {
                    Some(run_report) => ServeReport::from(&**run_report),
                    None => ServeReport::default(),
                };
                report.engine = "cooperative".into();
                report.summary.checksum = Some(run.checksum);
                report.summary.elements = run.out_elems as u64;
                report.summary.kernel_fraction = run.kernel_fraction;
                report
            } else if let Some(sim) = slots.sim.take() {
                ServeReport::from(&sim)
            } else {
                ServeReport::default()
            };
            report.version = cgsim_serve::REPORT_VERSION;
            report.label = request.spec.label().to_string();
            report
                .counters
                .push(("wall_ns".into(), result.wall.as_nanos() as u64));
            report
                .counters
                .push(("queue_wait_ns".into(), result.queue_wait.as_nanos() as u64));
            if verify != VerifyPolicy::Off {
                report.lint = entry.lint.diagnostics.clone();
            }
            report.bounds = entry.lint.bounds().cloned();
            report
        });
        let json = spans.record("serde_json.encode_us", "", |_| report.to_json());
        spans
            .record("cgsim-serve.http_write_us", "", |_| {
                write_response(
                    &mut server_end,
                    200,
                    "OK",
                    "application/json",
                    json.as_bytes(),
                    &[],
                )
            })
            .map_err(io)?;
        drop(server_end);

        let mut raw = String::new();
        client.read_to_string(&mut raw).map_err(io)?;
        if !raw.starts_with("HTTP/1.1 200") || !raw.contains(&variant.expect) {
            return Err(format!("replayed response lacks {}: {raw}", variant.expect));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifests_are_distinct_stable_and_sized_as_documented() {
        let (a, b) = (miss_variants(), miss_variants());
        assert_eq!(a.len(), 64);
        let bodies: std::collections::BTreeSet<&str> = a.iter().map(|v| v.body.as_str()).collect();
        assert_eq!(bodies.len(), 64, "variants are distinct");
        assert!(
            a.iter().zip(&b).all(|(x, y)| x.body == y.body),
            "bytes repeat"
        );
        for v in &a {
            assert!(
                (1000..4000).contains(&v.body.len()),
                "{} bytes",
                v.body.len()
            );
            let parsed: RunRequest = serde_json::from_str(&v.body).expect("body parses");
            assert!(matches!(parsed.graph, GraphSource::Manifest(_)));
        }
    }

    #[test]
    fn scraped_reads_plain_and_labelled_series() {
        let text = "# TYPE serve_cache_hits counter\nserve_cache_hits 41\n\
                    serve_cache_hits_total 7\nq{quantile=\"0.5\"} 1500.5\n";
        assert_eq!(scraped(text, "serve_cache_hits"), 41.0);
        assert_eq!(scraped(text, "q{quantile=\"0.5\"}"), 1500.5);
        assert_eq!(scraped(text, "absent"), 0.0);
    }

    #[test]
    fn served_and_replayed_responses_hold_the_golden_result() {
        for mix in [Mix::Hit, Mix::Miss] {
            let mut serve = Serve::setup(mix, 3).unwrap();
            for _ in 0..10 {
                serve.op(&mut Spans::disabled()).unwrap();
            }
            let text = serve.scrape().unwrap();
            let (hits, misses) = (
                scraped(&text, "serve_cache_hits"),
                scraped(&text, "serve_cache_misses"),
            );
            match mix {
                Mix::Hit => assert_eq!((hits, misses), (10.0, 1.0)),
                Mix::Miss => assert_eq!((hits, misses), (0.0, 11.0)),
            }
            let mut replay = Replay::new().unwrap();
            let mut spans = Spans::enabled();
            for i in 0..3 {
                spans.next_op();
                replay.request(&mut spans, serve.variant(i)).unwrap();
            }
            let keys = spans.self_us_per_op();
            assert!(keys.contains_key("cgsim-serve.http_read_us"));
            assert!(keys.contains_key("cgsim-pool.submit_wait_us"));
            assert_eq!(keys.contains_key("aie-sim.deploy_us"), mix == Mix::Miss);
            assert_eq!(keys.contains_key("cgsim-lint.lint_us"), mix == Mix::Miss);
        }
    }

    #[test]
    fn a_wrong_result_fails_the_request() {
        let mut serve = Serve::setup(Mix::Hit, 1).unwrap();
        // A prefix of the right checksum is not the right checksum.
        let golden = serve.variants[0].expect.clone();
        serve.variants[0].expect = golden.replacen("}", "0}", 1);
        let err = serve.op(&mut Spans::disabled()).unwrap_err();
        assert!(err.contains("response lacks \"checksum\":"), "{err}");
        serve.variants[0].expect = golden[..golden.len() - 3].to_string() + "}";
        assert!(serve.op(&mut Spans::disabled()).is_err());
    }
}
