//! `pool_sweep`: rounds of short jobs through `cgsim-pool`.
//!
//! A round submits four jobs (one per app, four blocks each, cooperative,
//! in an order shuffled by the seed) to a two-worker pool built as shipped
//! (per-job tracing on, which is also how `cgsim-serve` builds its pool)
//! and waits for all four. The jobs are short, so queue, dispatch, per-job
//! tracer, outcome hand-off and report aggregation carry weight that
//! `paper_sim` bypasses entirely.
//!
//! The pool keeps every job's trace until `shutdown` (some 1.4 MB a
//! round), so a sweep driver that wants its memory back shuts the pool
//! down for its report and starts another. The workload does so every
//! [`ROUNDS_PER_POOL`] rounds, inside the round that reaches the count:
//! one pool held for the whole window grows by 240 MB a second and its
//! page faults double the round time and its run-to-run spread.

use super::spans::Spans;
use super::{layer_medians, repeat_for, staged_over_e2e, stats, untraced_p50_us};
use super::{Metrics, Tally, Workload};
use cgsim_graphs::{all_apps, Launch, RunSpec};
use cgsim_pool::{Job, JobOutcome, JobOutput, JobResult, Pool, PoolConfig};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::time::{Duration, Instant};

/// Blocks per job.
pub const BLOCKS: u64 = 4;
/// Pool workers (`nproc` is 2).
pub const WORKERS: usize = 2;
/// Rounds a pool serves before it is shut down for its report and replaced.
pub const ROUNDS_PER_POOL: u64 = 64;

/// The workload, set up.
pub struct PoolSweep {
    pool: Pool,
    /// Rounds the current pool has served.
    rounds: u64,
    /// `pool_steals` of the pools already shut down.
    retired_steals: u64,
    golden: Vec<u64>,
    rng: StdRng,
}

/// What one round observed, times in ns since `epoch`.
#[derive(Debug, Default)]
struct Round {
    /// `(before, after)` each `Pool::submit`.
    submits: Vec<(u64, u64)>,
    /// `(closure entry, closure exit)` per job, in submit order.
    jobs: Vec<(u64, u64)>,
    /// `JobResult::queue_wait` and `::wall` per job, µs.
    queue_wait_us: Vec<f64>,
    job_wall_us: Vec<f64>,
    /// When the last `wait()` returned.
    done: u64,
}

impl Round {
    fn last_exit(&self) -> u64 {
        self.jobs.iter().map(|(_, exit)| *exit).max().unwrap_or(0)
    }
}

fn pool(trace: bool) -> Pool {
    Pool::new(
        PoolConfig::default()
            .with_workers(WORKERS)
            .with_trace(trace),
    )
}

/// The job `cgsim-serve` builds for an app request, minus the cached plan:
/// launch through `run_launched` with the job's tracer, keep the trace.
fn job(app: usize, epoch: Instant) -> Job {
    let name = all_apps()[app].name();
    Job::new(RunSpec::for_graph(name), move |ctx| {
        let entry = epoch.elapsed().as_nanos() as u64;
        let launch = Launch::default().with_tracer(ctx.tracer().clone());
        let run = all_apps()[app].run_launched(&ctx.effective_spec(), BLOCKS, launch)?;
        if let Some(report) = &run.report {
            ctx.keep_trace(report.trace.clone());
        }
        Ok(JobOutput::new(run.checksum)
            .elements(run.out_elems as u64)
            .counter("entry_ns", entry)
            .counter("exit_ns", epoch.elapsed().as_nanos() as u64))
    })
}

/// A named counter a job closure attached to its output: how timestamps
/// taken on a worker thread come back to the driver.
pub fn job_counter(result: &JobResult, name: &str) -> Option<u64> {
    let found = result.output.counters.iter().find(|(n, _)| n == name);
    found.map(|(_, v)| *v)
}

/// Submit one job per app in `order`, wait for all, check every outcome.
fn round(pool: &Pool, golden: &[u64], order: [usize; 4], epoch: Instant) -> Result<Round, String> {
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut seen = Round::default();
    let mut handles = Vec::with_capacity(order.len());
    for app in order {
        let before = now();
        let handle = pool
            .submit(job(app, epoch))
            .map_err(|e| format!("submit: {e:?}"))?;
        seen.submits.push((before, now()));
        handles.push((app, handle));
    }
    for (app, handle) in handles {
        let JobOutcome::Completed(result) = handle.wait() else {
            return Err(format!("job for app {app} did not complete"));
        };
        if result.output.checksum != golden[app] {
            return Err(format!(
                "pooled {} checksum {:#x}, direct run_spec {:#x}",
                result.label, result.output.checksum, golden[app]
            ));
        }
        let stamp = |name| job_counter(&result, name).unwrap_or(0);
        seen.jobs.push((stamp("entry_ns"), stamp("exit_ns")));
        seen.queue_wait_us
            .push(result.queue_wait.as_secs_f64() * 1e6);
        seen.job_wall_us.push(result.wall.as_secs_f64() * 1e6);
    }
    seen.done = now();
    Ok(seen)
}

impl PoolSweep {
    /// Start the pool and take the direct `run_spec` checksums the pooled
    /// jobs must reproduce.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let golden = all_apps()
            .iter()
            .map(|app| {
                Ok(app
                    .run_spec(&RunSpec::for_graph(app.name()), BLOCKS)?
                    .checksum)
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(PoolSweep {
            pool: pool(true),
            rounds: 0,
            retired_steals: 0,
            golden,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    fn shuffled(&mut self) -> [usize; 4] {
        let mut order = [0, 1, 2, 3];
        for i in (1..order.len()).rev() {
            order.swap(i, self.rng.random_range(0..i + 1));
        }
        order
    }

    /// One round on the workload's pool, with spans for the parts that run
    /// on the driver thread: each submit, the first job's dispatch and the
    /// hand-off after the last job. The round that fills the pool's quota
    /// also replaces it.
    fn spanned_round(&mut self, spans: &mut Spans) -> Result<Round, String> {
        let order = self.shuffled();
        let (pool, golden, epoch) = (&self.pool, &self.golden, spans.epoch());
        let seen = spans.record("cgsim-pool.round_us", "", |spans| {
            let seen = round(pool, golden, order, epoch)?;
            for (before, after) in &seen.submits {
                spans.add("cgsim-pool.submit_us", "", *before, *after);
            }
            spans.add(
                "cgsim-pool.dispatch_us",
                "",
                seen.submits[0].1,
                seen.jobs[0].0,
            );
            spans.add("cgsim-pool.handoff_us", "", seen.last_exit(), seen.done);
            Ok::<_, String>(seen)
        })?;
        self.rounds += 1;
        if self.rounds == ROUNDS_PER_POOL {
            self.replace_pool(spans)?;
        }
        Ok(seen)
    }

    /// Shut the pool down for its report, check the report accounts for
    /// every job, and start the next pool.
    fn replace_pool(&mut self, spans: &mut Spans) -> Result<(), String> {
        let retired = std::mem::replace(&mut self.pool, pool(true));
        let report = spans.record("cgsim-pool.shutdown_us", "", |_| retired.shutdown());
        let jobs = std::mem::take(&mut self.rounds) * 4;
        self.retired_steals += report.counter("pool_steals");
        if (
            report.counter("pool_jobs_completed"),
            report.traces.len() as u64,
        ) != (jobs, jobs)
        {
            return Err(format!(
                "pool report: {} jobs completed and {} traces for {jobs} jobs submitted",
                report.counter("pool_jobs_completed"),
                report.traces.len()
            ));
        }
        Ok(())
    }

    fn steals(&self) -> u64 {
        self.retired_steals
            + self
                .pool
                .metrics()
                .counter_value("pool_steals")
                .unwrap_or(0)
    }

    /// Round p50 in µs on a fresh pool with tracing on or off, over at most
    /// one pool's quota of rounds.
    fn probe_pool(&mut self, trace: bool, budget: Duration, tally: &mut Tally) -> f64 {
        let probe = pool(trace);
        let epoch = Instant::now();
        let mut us = Vec::new();
        while us.len() < 10 || (epoch.elapsed() < budget && (us.len() as u64) < ROUNDS_PER_POOL) {
            let order = self.shuffled();
            let started = Instant::now();
            let outcome = round(&probe, &self.golden, order, epoch);
            us.push(started.elapsed().as_secs_f64() * 1e6);
            tally.note(&outcome.map(|_| ()));
        }
        stats::median(&us)
    }
}

impl Workload for PoolSweep {
    fn params(&self) -> String {
        format!(
            "closed loop, 1 driver thread; round = 4 jobs (one per app, {BLOCKS} blocks, \
             cooperative, seeded order) on Pool::new(default.with_workers({WORKERS})), tracing \
             on; the pool is shut down and replaced every {ROUNDS_PER_POOL} rounds"
        )
    }

    fn op(&mut self, spans: &mut Spans) -> Result<(), String> {
        self.spanned_round(spans).map(|_| ())
    }

    fn traced(
        &mut self,
        budget: Duration,
        spans: &mut Spans,
        tally: &mut Tally,
    ) -> Result<Metrics, String> {
        let mut off = Spans::disabled();
        let untraced = untraced_p50_us(budget.mul_f64(0.2), 10, tally, || self.op(&mut off));

        let steals_before = self.steals();
        let mut rounds = Vec::new();
        repeat_for(budget.mul_f64(0.4), 10, || {
            spans.next_op();
            let outcome = self.spanned_round(spans);
            tally.note(&outcome.as_ref().map(|_| ()).map_err(Clone::clone));
            rounds.extend(outcome);
        });
        if rounds.is_empty() {
            return Err("pool_sweep: no traced round completed".into());
        }
        let jobs: usize = rounds.iter().map(|r| r.jobs.len()).sum();
        let steals_per_1000 = (self.steals() - steals_before) as f64 * 1e3 / jobs as f64;
        // At least one shutdown is timed, however short the pass.
        tally.note(&self.replace_pool(spans));
        let shutdown_us = layer_medians(spans)
            .get("cgsim-pool.shutdown_us")
            .copied()
            .unwrap_or(f64::NAN);

        let us = |ns: u64| ns as f64 / 1e3;
        let per_job = |f: &dyn Fn(&Round) -> Vec<f64>| {
            stats::median(&rounds.iter().flat_map(f).collect::<Vec<_>>())
        };
        let per_round =
            |f: &dyn Fn(&Round) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
        let on_us = self.probe_pool(true, budget.mul_f64(0.2), tally);
        let off_us = self.probe_pool(false, budget.mul_f64(0.2), tally);

        Ok(Metrics::from_iter(
            [
                ("bench.staged_over_e2e", staged_over_e2e(spans, untraced)),
                (
                    "cgsim-pool.submit_us",
                    per_job(&|r| r.submits.iter().map(|(b, a)| us(a - b)).collect()),
                ),
                (
                    "cgsim-pool.queue_wait_us",
                    per_job(&|r| r.queue_wait_us.clone()),
                ),
                (
                    "cgsim-pool.job_wall_us",
                    per_job(&|r| r.job_wall_us.clone()),
                ),
                // The first job of a round finds both workers idle: submit
                // return to closure entry is the wake-up path alone.
                (
                    "cgsim-pool.dispatch_us",
                    per_round(&|r| us(r.jobs[0].0.saturating_sub(r.submits[0].1))),
                ),
                // Last closure exit to the last `wait()` returning.
                (
                    "cgsim-pool.handoff_us",
                    per_round(&|r| us(r.done.saturating_sub(r.last_exit()))),
                ),
                ("cgsim-pool.steals", steals_per_1000),
                ("cgsim-pool.shutdown_us", shutdown_us),
                ("cgsim-pool.trace_on_ratio", on_us / off_us),
            ]
            .map(|(name, value)| (name.to_string(), value)),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_complete_with_golden_checksums_in_seeded_order() {
        let mut a = PoolSweep::setup(7).unwrap();
        let mut b = PoolSweep::setup(7).unwrap();
        let orders: Vec<[usize; 4]> = (0..8).map(|_| a.shuffled()).collect();
        assert_eq!(orders, (0..8).map(|_| b.shuffled()).collect::<Vec<_>>());
        assert!(orders.iter().any(|o| *o != [0, 1, 2, 3]), "never shuffled");
        for order in &orders {
            let mut sorted = *order;
            sorted.sort();
            assert_eq!(sorted, [0, 1, 2, 3]);
        }
        let seen = round(&a.pool, &a.golden, orders[0], Instant::now()).unwrap();
        assert_eq!(seen.jobs.len(), 4);
        assert!(seen
            .jobs
            .iter()
            .all(|(entry, exit)| entry <= exit && *exit <= seen.done));
        a.golden[3] ^= 1;
        let err = round(&a.pool, &a.golden, orders[0], Instant::now()).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn the_pool_is_replaced_when_its_quota_is_served() {
        let mut sweep = PoolSweep::setup(1).unwrap();
        // Pretend the pool has served all but two rounds of its quota: the
        // round that fills it replaces the pool, and the report, which holds
        // the 8 jobs really run, does not account for 256.
        sweep.rounds = ROUNDS_PER_POOL - 2;
        let mut spans = Spans::enabled();
        sweep.op(&mut spans).unwrap();
        assert_eq!(sweep.rounds, ROUNDS_PER_POOL - 1);
        let err = sweep.op(&mut spans).unwrap_err();
        assert!(err.contains("pool report: 8 jobs completed"), "{err}");
        assert_eq!(sweep.rounds, 0);
        assert!(spans
            .self_us_per_op()
            .contains_key("cgsim-pool.shutdown_us"));
        sweep.rounds = 0;
        sweep.op(&mut spans).unwrap();
        sweep.replace_pool(&mut spans).unwrap();
    }
}
