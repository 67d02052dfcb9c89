//! The benchmark suite: six workloads, one method.
//!
//! Every workload is set up, warmed, and then either **timed** (spans off;
//! a window of [`stats::SLICES`] slices, the best of which gives the
//! end-to-end metrics)
//! or **traced** (spans around the calls into each crate's public
//! functions, reduced to the per-layer budget). The two never share a run,
//! so the end-to-end figures carry no tracing cost.
//!
//! The metric names, units and bounds here are the ones `BENCHMARK.json`
//! declares; a test keeps the two in step.

pub mod cycle_sim;
pub mod host;
pub mod openloop;
pub mod paper_sim;
pub mod pipeline_sim;
pub mod pool_sweep;
pub mod serve;
pub mod spans;
pub mod stats;

use spans::Spans;
use stats::{across_slices, sliced_percentile, Better, Reduced, SLICES};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 6] = [
    "paper_sim",
    "pipeline_sim",
    "cycle_sim",
    "pool_sweep",
    "serve_hit",
    "serve_miss",
];

/// The workloads `BENCHMARK.json` declares, which the benchmark driver runs
/// and gates: the four whose figures repeat on a shared 2-vCPU VM. The two
/// serve workloads stay in the runner (`--workload all` runs them, and every
/// traced run reports their layers from a brief pass) but are not gated: a
/// request that crosses six sleeping threads is mostly wake-ups from idle,
/// and what those cost inside a VM is set by the hypervisor's other guests.
/// Between two ten-run sets half an hour apart on unchanged code their
/// medians moved +14 to +22 % (`op_p50_us`, `op_p90_us`) against a largest
/// allowed bound of 25 %, while the four gated workloads moved 1 to 3 %.
pub const GATED: [&str; 4] = ["paper_sim", "pipeline_sim", "cycle_sim", "pool_sweep"];

/// End-to-end metrics `(name, unit, better, bound)`: what a user of the
/// system waits for or pays. `bound` is the share of the parent's median a
/// metric may worsen by before a change counts as a regression.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_us", "us", "lower", 0.25),
    ("op_p90_us", "us", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("cpu_us_per_op", "us", "lower", 0.15),
    ("peak_rss_mb", "MiB", "lower", 0.1),
];

/// The four paper applications as they appear in metric names.
pub const APP_KEYS: [&str; 4] = ["bitonic", "farrow", "iir", "bilinear"];

/// Per-layer metrics `(name, unit, better)`; `{app}` families are written
/// out. Counts marked *exact* in the README repeat bit-for-bit.
pub const PER_LAYER: [(&str, &str, &str); 89] = [
    ("cgsim-graphs.verify_us", "us", "lower"),
    ("cgsim-graphs.build_us", "us", "lower"),
    ("cgsim-runtime.instantiate_us", "us", "lower"),
    ("cgsim-runtime.run_us.bitonic", "us", "lower"),
    ("cgsim-runtime.run_us.farrow", "us", "lower"),
    ("cgsim-runtime.run_us.iir", "us", "lower"),
    ("cgsim-runtime.run_us.bilinear", "us", "lower"),
    ("cgsim-runtime.overhead_ratio", "ratio", "lower"),
    ("cgsim-runtime.polls", "count", "lower"),
    ("cgsim-runtime.pushes", "count", "lower"),
    ("cgsim-runtime.blocked_writes", "count", "lower"),
    ("cgsim-runtime.tight_us", "us", "lower"),
    ("cgsim-runtime.deep_us", "us", "lower"),
    ("cgsim-runtime.fanout_us", "us", "lower"),
    ("cgsim-runtime.ns_per_poll.tight", "ns", "lower"),
    ("cgsim-runtime.polls.tight", "count", "lower"),
    ("cgsim-compiled.compile_us", "us", "lower"),
    ("cgsim-compiled.instantiate_us", "us", "lower"),
    ("cgsim-compiled.run_us.bitonic", "us", "lower"),
    ("cgsim-compiled.run_us.farrow", "us", "lower"),
    ("cgsim-compiled.run_us.iir", "us", "lower"),
    ("cgsim-compiled.run_us.bilinear", "us", "lower"),
    ("cgsim-compiled.tight_us", "us", "lower"),
    ("cgsim-compiled.deep_us", "us", "lower"),
    ("cgsim-compiled.polls.tight", "count", "lower"),
    ("cgsim-threads.run_us.bitonic", "us", "lower"),
    ("cgsim-threads.run_us.farrow", "us", "lower"),
    ("cgsim-threads.run_us.iir", "us", "lower"),
    ("cgsim-threads.run_us.bilinear", "us", "lower"),
    ("aie-intrinsics.kernel_us.bitonic", "us", "lower"),
    ("aie-intrinsics.kernel_us.farrow", "us", "lower"),
    ("aie-intrinsics.kernel_us.iir", "us", "lower"),
    ("aie-intrinsics.kernel_us.bilinear", "us", "lower"),
    ("aie-intrinsics.ops", "count", "lower"),
    ("cgsim-trace.traced_run_ratio", "ratio", "lower"),
    ("cgsim-trace.records", "count", "lower"),
    ("cgsim-trace.dropped", "count", "lower"),
    ("cgsim-pool.trace_on_ratio", "ratio", "lower"),
    ("aie-sim.stepped_us.bitonic", "us", "lower"),
    ("aie-sim.stepped_us.farrow", "us", "lower"),
    ("aie-sim.stepped_us.iir", "us", "lower"),
    ("aie-sim.stepped_us.bilinear", "us", "lower"),
    ("aie-sim.event_us.bitonic", "us", "lower"),
    ("aie-sim.event_us.farrow", "us", "lower"),
    ("aie-sim.event_us.iir", "us", "lower"),
    ("aie-sim.event_us.bilinear", "us", "lower"),
    ("aie-sim.sim_cycles.bitonic", "count", "lower"),
    ("aie-sim.sim_cycles.farrow", "count", "lower"),
    ("aie-sim.sim_cycles.iir", "count", "lower"),
    ("aie-sim.sim_cycles.bilinear", "count", "lower"),
    ("aie-sim.stalls", "count", "lower"),
    ("aie-sim.host_ns_per_sim_cycle", "ns", "lower"),
    ("aie-sim.report_build_us", "us", "lower"),
    ("aie-sim.profiles_us", "us", "lower"),
    ("aie-sim.deploy_us", "us", "lower"),
    ("cgsim-pool.submit_us", "us", "lower"),
    ("cgsim-pool.queue_wait_us", "us", "lower"),
    ("cgsim-pool.job_wall_us", "us", "lower"),
    ("cgsim-pool.dispatch_us", "us", "lower"),
    ("cgsim-pool.handoff_us", "us", "lower"),
    ("cgsim-pool.steals", "count", "lower"),
    ("cgsim-pool.shutdown_us", "us", "lower"),
    ("cgsim-pool.submit_wait_us", "us", "lower"),
    ("cgsim-serve.http_read_us", "us", "lower"),
    ("cgsim-serve.digest_us", "us", "lower"),
    ("cgsim-serve.cache_get_us", "us", "lower"),
    ("cgsim-serve.cache_insert_us", "us", "lower"),
    ("cgsim-serve.fair_acquire_us", "us", "lower"),
    ("cgsim-serve.report_build_us", "us", "lower"),
    ("cgsim-serve.http_write_us", "us", "lower"),
    ("cgsim-serve.staged_sum_us", "us", "lower"),
    ("cgsim-serve.unattributed_us", "us", "lower"),
    ("cgsim-serve.server_request_us", "us", "lower"),
    ("cgsim-serve.cache_hit_ratio", "ratio", "higher"),
    ("cgsim-serve.cache_evictions", "count", "lower"),
    ("cgsim-serve.metrics_scrape_us", "us", "lower"),
    ("serde_json.decode_us", "us", "lower"),
    ("serde_json.decode_ns_per_byte", "ns", "lower"),
    ("serde_json.encode_us", "us", "lower"),
    ("cgsim-core.validate_us", "us", "lower"),
    ("cgsim-lint.lint_us", "us", "lower"),
    ("loadgen.late_p90_us", "us", "lower"),
    ("loadgen.connect_us", "us", "lower"),
    ("loadgen.p99_us", "us", "lower"),
    ("loadgen.closed_rps", "1/s", "higher"),
    ("loadgen.max_ok_rps", "1/s", "higher"),
    ("loadgen.slo_miss_ratio", "ratio", "lower"),
    ("loadgen.backlog_end", "count", "lower"),
    ("bench.staged_over_e2e", "ratio", "higher"),
];

/// Named values of one pass.
pub type Metrics = BTreeMap<String, f64>;

/// Operations attempted and failed; a wrong output is a failure.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong output.
    pub failed: u64,
    /// What the first failure was.
    pub first_error: Option<String>,
}

impl Tally {
    /// Count one operation.
    pub fn note(&mut self, outcome: &Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.first_error.get_or_insert_with(|| e.clone());
        }
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// What a timed window measured, per slice.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Operation latencies in µs, grouped by slice.
    pub latencies_us: Vec<Vec<f64>>,
    /// Operations completed per second in each slice (NaN: empty slice).
    pub ops_per_s: Vec<f64>,
    /// Process CPU µs per operation in each slice (NaN: empty slice).
    pub cpu_us_per_op: Vec<f64>,
    /// Operations attempted and failed, warm-up included.
    pub tally: Tally,
}

impl Window {
    /// A window of [`SLICES`] empty slices.
    pub fn empty() -> Self {
        Window {
            latencies_us: vec![Vec::new(); SLICES],
            ops_per_s: vec![f64::NAN; SLICES],
            cpu_us_per_op: vec![f64::NAN; SLICES],
            tally: Tally::default(),
        }
    }
}

/// One of the six workloads, set up and ready to run.
pub trait Workload {
    /// Parameters for the fingerprint.
    fn params(&self) -> String;

    /// One operation, checked: `Err` names the failed call or wrong output.
    fn op(&mut self, spans: &mut Spans) -> Result<(), String>;

    /// Warm up untimed, then measure a window. Closed loop on one thread
    /// unless the workload overrides it.
    fn timed(&mut self, warmup: Duration, window: Duration) -> Window {
        let mut spans = Spans::disabled();
        closed_loop(warmup, window, || self.op(&mut spans))
    }

    /// The traced pass: time the calls into each layer for about `budget`
    /// and return this workload's per-layer metrics.
    fn traced(
        &mut self,
        budget: Duration,
        spans: &mut Spans,
        tally: &mut Tally,
    ) -> Result<Metrics, String>;
}

/// Set a workload up from the seed: generate inputs, start what it needs,
/// take golden results.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper_sim" => Box::new(paper_sim::PaperSim::setup()?),
        "pipeline_sim" => Box::new(pipeline_sim::PipelineSim::setup()?),
        "cycle_sim" => Box::new(cycle_sim::CycleSim::setup()?),
        "pool_sweep" => Box::new(pool_sweep::PoolSweep::setup(seed)?),
        "serve_hit" => Box::new(serve::Serve::setup(serve::Mix::Hit, seed)?),
        "serve_miss" => Box::new(serve::Serve::setup(serve::Mix::Miss, seed)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Run `op` back to back: untimed for `warmup`, then for `window`, split
/// into slices by each operation's start time. Throughput is operations
/// over the time they took, so a slice is not quantised to whole
/// operations; CPU is read when a slice's last operation has returned.
pub fn closed_loop(
    warmup: Duration,
    window: Duration,
    mut op: impl FnMut() -> Result<(), String>,
) -> Window {
    let mut out = Window::empty();
    let started = Instant::now();
    while started.elapsed() < warmup {
        out.tally.note(&op());
    }

    let close = |out: &mut Window, slice: usize, cpu_before: f64| {
        let lat = &out.latencies_us[slice];
        if !lat.is_empty() {
            let busy_us: f64 = lat.iter().sum();
            out.ops_per_s[slice] = lat.len() as f64 / (busy_us / 1e6);
            out.cpu_us_per_op[slice] = (host::cpu_us() - cpu_before) / lat.len() as f64;
        }
    };
    let started = Instant::now();
    let mut cpu_mark = host::cpu_us();
    let mut current = 0;
    loop {
        let began = started.elapsed();
        let Some(slice) = stats::slice_of(began.as_nanos(), window.as_nanos()) else {
            break;
        };
        if slice != current {
            close(&mut out, current, cpu_mark);
            cpu_mark = host::cpu_us();
            current = slice;
        }
        let outcome = op();
        let latency = started.elapsed() - began;
        out.tally.note(&outcome);
        out.latencies_us[slice].push(latency.as_secs_f64() * 1e6);
    }
    close(&mut out, current, cpu_mark);
    out
}

/// Call `f` at least `min` times and until `budget` has passed.
pub fn repeat_for(budget: Duration, min: usize, mut f: impl FnMut()) {
    let started = Instant::now();
    let mut done = 0;
    while done < min || started.elapsed() < budget {
        f();
        done += 1;
    }
}

/// Median wall time of `op` in µs over at least `min` untraced calls and
/// `budget`: the end-to-end figure a staged replay is set against.
pub fn untraced_p50_us(
    budget: Duration,
    min: usize,
    tally: &mut Tally,
    mut op: impl FnMut() -> Result<(), String>,
) -> f64 {
    let mut us = Vec::new();
    repeat_for(budget, min, || {
        let started = Instant::now();
        let outcome = op();
        us.push(started.elapsed().as_secs_f64() * 1e6);
        tally.note(&outcome);
    });
    stats::median(&us)
}

/// Median per operation of every span key that is a per-layer metric.
pub fn layer_medians(spans: &Spans) -> Metrics {
    spans
        .self_us_per_op()
        .into_iter()
        .filter(|(key, _)| PER_LAYER.iter().any(|(name, _, _)| name == key))
        .map(|(key, per_op)| (key, stats::median(&per_op)))
        .collect()
}

/// `bench.staged_over_e2e`: the staged replay of an operation over the
/// untraced operation.
pub fn staged_over_e2e(spans: &Spans, untraced_us: f64) -> f64 {
    stats::median(&spans.staged_us_per_op()) / untraced_us
}

/// What one invocation measured: the contract's result object plus the
/// lines printed above it.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every output was correct and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines: fingerprint, each metric with its unit, sample
    /// count and slice quartiles, and the first failure if any.
    pub lines: Vec<String>,
}

impl Report {
    /// A report that so far holds only the fingerprint line.
    fn start(fingerprint: String) -> Self {
        Report {
            correct: false,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            lines: vec![format!("fingerprint {fingerprint}")],
        }
    }

    /// The result object, on one line, values with all their digits.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    fn finish(mut self, tally: &Tally) -> Result<Self, String> {
        self.attempted = tally.attempted;
        self.failed = tally.failed;
        self.correct = tally.failed == 0 && tally.attempted > 0;
        let ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
        self.lines.push(format!(
            "{:<34} {ratio} ratio ({} failed of {} attempted; expected exactly 0)",
            "fail_ratio", tally.failed, tally.attempted
        ));
        if let Some(e) = &tally.first_error {
            self.lines.push(format!("first failure: {e}"));
        }
        if let Some((name, value, _)) = self.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
            return Err(format!("metric {name} is not a number ({value})"));
        }
        Ok(self)
    }
}

/// `setup_s` is the median of repeated set-ups, so the first (cold) one and
/// a stalled one do not set the figure: at least [`SETUP_REPS_MIN`], and a
/// cheap set-up is repeated until [`SETUP_BUDGET`] is spent or
/// [`SETUP_REPS_MAX`] are done, since a millisecond is noisier than a
/// tenth of a second.
const SETUP_REPS_MIN: usize = 7;
const SETUP_REPS_MAX: usize = 50;
const SETUP_BUDGET: Duration = Duration::from_millis(400);

/// Share of the window spent warming up before it.
const WARMUP_SHARE: f64 = 0.1;

/// The timed pass: `setup_s` over repeated set-ups, a warm-up, then a
/// window of `seconds` reduced to the end-to-end metrics.
pub fn run_timed(name: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut workload = None;
    let begun = Instant::now();
    while setup_s.len() < SETUP_REPS_MIN
        || (setup_s.len() < SETUP_REPS_MAX && begun.elapsed() < SETUP_BUDGET)
    {
        // Tear the previous one down outside the timed region.
        drop(workload.take());
        let started = Instant::now();
        workload = Some(setup(name, seed)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUP_REPS_MIN is at least 1");
    let mut report = Report::start(host::fingerprint(
        name,
        seed,
        seconds,
        false,
        &workload.params(),
    ));

    let window = workload.timed(
        Duration::from_secs_f64(seconds * WARMUP_SHARE),
        Duration::from_secs_f64(seconds),
    );
    drop(workload);

    let pooled: usize = window.latencies_us.iter().map(Vec::len).sum();
    let (sq1, sq3) = stats::quartiles(&setup_s);
    // A window too short for a percentile (a smoke run, a far slower host)
    // still reports the slice nearest ranks, flagged as indicative; the
    // window the benchmark declares supports both with room to spare.
    let mut unsupported = Vec::new();
    let mut percentile = |q: f64| {
        sliced_percentile(&window.latencies_us, q).unwrap_or_else(|refused| {
            unsupported.push(format!(
                "warning: {refused}; slice nearest ranks reported, indicative only"
            ));
            stats::sliced_nearest_rank(&window.latencies_us, q)
        })
    };
    let sliced = |r: Reduced, what: &str| {
        let how = format!(
            "best slice's {what}; n={} in {} slices; across slices median {}, quartiles {}..{}",
            r.samples, r.slices, r.median, r.q1, r.q3
        );
        (r.best, how)
    };
    let figures: [(f64, String); 6] = [
        (
            stats::median(&setup_s),
            format!(
                "median of {} set-ups; quartiles {sq1}..{sq3}",
                setup_s.len()
            ),
        ),
        sliced(percentile(0.5), "p50"),
        sliced(percentile(0.9), "p90"),
        sliced(
            across_slices(&window.ops_per_s, pooled, Better::Higher),
            "rate",
        ),
        sliced(
            across_slices(&window.cpu_us_per_op, pooled, Better::Lower),
            "cost",
        ),
        (host::peak_rss_mb(), "VmHWM at exit".into()),
    ];
    for ((metric, unit, _, bound), (value, how)) in END_TO_END.iter().zip(figures) {
        report.lines.push(format!(
            "{metric:<34} {value} {unit} ({how}; bound {:.0} %)",
            bound * 100.0
        ));
        report.metrics.push((metric.to_string(), value, unit));
    }
    for warning in unsupported {
        eprintln!("bench: {name}: {warning}");
        report.lines.push(warning);
    }
    report.finish(&window.tally)
}

/// Share of a traced run's time given to the selected workload's traced
/// pass; every other workload gets [`BRIEF_SHARE`], so that each traced run
/// reports the whole per-layer budget, best resolved where it was asked.
const SELECTED_SHARE: f64 = 0.6;
const BRIEF_SHARE: f64 = 0.08;

/// The traced pass: the selected workload's layers for most of `seconds`,
/// then a brief traced pass of every other workload for the layers the
/// selected one does not reach. Writes the selected workload's spans to
/// `trace_dir/<workload>.trace.json`.
pub fn run_traced(name: &str, seed: u64, seconds: f64, trace_dir: &Path) -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut spans = Spans::enabled();
    let mut workload = setup(name, seed)?;
    let mut report = Report::start(host::fingerprint(
        name,
        seed,
        seconds,
        true,
        &workload.params(),
    ));
    let own = workload.traced(
        Duration::from_secs_f64(seconds * SELECTED_SHARE),
        &mut spans,
        &mut tally,
    )?;
    drop(workload);
    let path = trace_dir.join(format!("{name}.trace.json"));
    spans
        .write_chrome_trace(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    report.lines.push(format!(
        "{} spans written to {}",
        spans.all().len(),
        path.display()
    ));

    let mut borrowed = Metrics::new();
    for other in WORKLOADS.iter().filter(|w| **w != name) {
        let mut workload = setup(other, seed)?;
        let metrics = workload.traced(
            Duration::from_secs_f64(seconds * BRIEF_SHARE),
            &mut Spans::enabled(),
            &mut tally,
        )?;
        for (key, value) in metrics {
            borrowed.entry(key).or_insert(value);
        }
    }

    if let Some(stray) = own
        .keys()
        .chain(borrowed.keys())
        .find(|k| !PER_LAYER.iter().any(|(name, _, _)| name == *k))
    {
        return Err(format!("`{stray}` is not a declared per-layer metric"));
    }
    for (key, unit, _) in PER_LAYER {
        let (value, source) = match (own.get(key), borrowed.get(key)) {
            (Some(v), _) => (*v, "this workload"),
            (None, Some(v)) => (*v, "brief pass of another workload"),
            (None, None) => return Err(format!("no workload emitted `{key}`")),
        };
        report
            .lines
            .push(format!("{key:<34} {value} {unit} ({source})"));
        report.metrics.push((key.to_string(), value, unit));
    }
    report.finish(&tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_slices_by_start_time_and_counts_failures() {
        let mut calls = 0u32;
        let window = closed_loop(Duration::from_millis(5), Duration::from_millis(200), || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(2));
            if calls == 3 {
                Err("third call fails".into())
            } else {
                Ok(())
            }
        });
        assert_eq!(window.tally.attempted, calls as u64);
        assert_eq!(window.tally.failed, 1);
        assert_eq!(
            window.tally.first_error.as_deref(),
            Some("third call fails")
        );
        assert_eq!(window.latencies_us.len(), SLICES);
        let pooled: usize = window.latencies_us.iter().map(Vec::len).sum();
        assert!(pooled >= 20 && pooled as u64 <= window.tally.attempted);
        for (slice, lat) in window.latencies_us.iter().enumerate() {
            assert!(!lat.is_empty(), "slice {slice} is empty");
            assert!(lat.iter().all(|us| *us >= 2000.0));
            // 2 ms sleeps: at most 500 operations a second.
            assert!(window.ops_per_s[slice] > 50.0 && window.ops_per_s[slice] <= 500.0);
            assert!(window.cpu_us_per_op[slice] >= 0.0);
        }
    }

    #[test]
    fn report_line_has_exactly_the_contract_keys() {
        let mut report = Report::start(String::new());
        report.metrics = vec![
            ("op_p50_us".into(), 1.25, "us"),
            ("setup_s".into(), 0.5, "s"),
        ];
        let mut tally = Tally::default();
        tally.note(&Ok(()));
        let report = report.clone().finish(&tally).unwrap();
        let doc = serde_json::parse(&report.json_line()).expect("result is JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        let p50 = doc.get("metrics").and_then(|m| m.get("op_p50_us")).unwrap();
        assert_eq!(p50.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(p50.get("unit").and_then(|v| v.as_str()), Some("us"));

        tally.note(&Err("wrong checksum".into()));
        let failed = report.finish(&tally).unwrap();
        assert!(!failed.correct);
        assert_eq!((failed.attempted, failed.failed), (2, 1));
        assert!(failed.lines.iter().any(|l| l.contains("wrong checksum")));
    }

    #[test]
    fn a_metric_that_is_not_a_number_is_an_error() {
        let mut report = Report::start(String::new());
        report.metrics = vec![("op_p50_us".into(), f64::NAN, "us")];
        let mut tally = Tally::default();
        tally.note(&Ok(()));
        assert!(report.finish(&tally).unwrap_err().contains("op_p50_us"));
    }

    /// `BENCHMARK.json` at the repository root declares what this module
    /// prints.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::parse(&text).expect("BENCHMARK.json is JSON");
        let list = |key: &str| doc.get(key).and_then(|v| v.as_array()).cloned().unwrap();
        let field = |v: &serde_json::Value, key: &str| {
            v.get(key)
                .and_then(|f| f.as_str())
                .unwrap_or_default()
                .to_string()
        };

        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, GATED);
        assert_eq!(GATED, WORKLOADS[..GATED.len()]);

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (declared, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(declared, "name"), name);
            assert_eq!(field(declared, "unit"), unit);
            assert_eq!(field(declared, "better"), better);
            assert_eq!(declared.get("bound").and_then(|b| b.as_f64()), Some(bound));
        }

        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (declared, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(declared, "name"), name);
            assert_eq!(field(declared, "unit"), unit);
            assert_eq!(field(declared, "better"), better);
        }
    }
}
