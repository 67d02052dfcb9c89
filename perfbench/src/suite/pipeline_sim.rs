//! `pipeline_sim`: pass-through pipelines, where the engines are the work.
//!
//! The kernel body is a move, so executor, channel and wake bookkeeping do
//! all the work and `aie-intrinsics` none. `tight` (depth-1 connectors)
//! suspends on every element while `deep` (default depth) moves windows:
//! the same channel layer used two ways, so a batching gain that costs the
//! per-element path shows. `fanout` broadcasts one producer to four
//! consumers.

use super::spans::Spans;
use super::{
    layer_medians, repeat_for, staged_over_e2e, untraced_p50_us, Metrics, Tally, Workload,
};
use cgsim_compiled::CompiledContext;
use cgsim_core::{FlatGraph, GraphBuilder, PortSettings};
use cgsim_runtime::{compute_kernel, KernelLibrary, RunReport, RuntimeConfig, RuntimeContext};
use std::time::Duration;

/// `i64` elements pushed through every graph: a quarter of the 32 768 a
/// 20 s window was sized for, so a 15 s window holds some 450 passes.
pub const ELEMENTS: i64 = 8192;
/// Forwarding kernels in the `tight` and `deep` pipelines.
pub const STAGES: usize = 16;
/// Consumers of the `fanout` broadcast.
pub const FANOUT: usize = 4;

compute_kernel! {
    /// Forwards elements unchanged: what is measured is scheduling and
    /// channel hand-off, not arithmetic.
    #[realm(aie)]
    pub fn forward_kernel(input: ReadPort<i64>, out: WritePort<i64>) {
        while let Some(v) = input.get().await {
            out.put(v).await;
        }
    }
}

/// [`STAGES`] forwarding kernels in a row; `depth` declares a FIFO depth on
/// every connector, `None` leaves the runtime's default.
fn pipeline_graph(name: &str, depth: Option<u32>) -> Result<FlatGraph, String> {
    GraphBuilder::build(name, |g| {
        let mut prev = g.input::<i64>("in");
        for _ in 0..STAGES {
            if let Some(d) = depth {
                g.connector_settings(&prev, PortSettings::new().depth(d));
            }
            let next = g.wire::<i64>();
            forward_kernel::invoke(g, &prev, &next)?;
            prev = next;
        }
        if let Some(d) = depth {
            g.connector_settings(&prev, PortSettings::new().depth(d));
        }
        g.output(&prev);
        Ok(())
    })
    .map_err(|e| e.to_string())
}

/// One input broadcast to [`FANOUT`] forwarding kernels, each with its own
/// output.
fn fanout_graph() -> Result<FlatGraph, String> {
    GraphBuilder::build("fanout", |g| {
        let source = g.input::<i64>("in");
        for _ in 0..FANOUT {
            let out = g.wire::<i64>();
            forward_kernel::invoke(g, &source, &out)?;
            g.output(&out);
        }
        Ok(())
    })
    .map_err(|e| e.to_string())
}

/// The two engines a leg can run on.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Engine {
    Cooperative,
    Compiled,
}

/// One graph on one engine, with the poll count setup recorded.
struct Leg {
    span: &'static str,
    graph: usize,
    engine: Engine,
    golden_polls: u64,
}

/// The workload, set up.
pub struct PipelineSim {
    library: KernelLibrary,
    graphs: [FlatGraph; 3],
    legs: Vec<Leg>,
}

const TIGHT: usize = 0;
const DEEP: usize = 1;
const FAN: usize = 2;

impl PipelineSim {
    /// Build the three graphs and record every leg's poll count.
    pub fn setup() -> Result<Self, String> {
        let mut sim = PipelineSim {
            library: KernelLibrary::with(|l| {
                l.register::<forward_kernel>();
            }),
            graphs: [
                pipeline_graph("tight", Some(1))?,
                pipeline_graph("deep", None)?,
                fanout_graph()?,
            ],
            legs: [
                ("cgsim-runtime.tight_us", TIGHT, Engine::Cooperative),
                ("cgsim-compiled.tight_us", TIGHT, Engine::Compiled),
                ("cgsim-runtime.deep_us", DEEP, Engine::Cooperative),
                ("cgsim-compiled.deep_us", DEEP, Engine::Compiled),
                ("cgsim-runtime.fanout_us", FAN, Engine::Cooperative),
            ]
            .into_iter()
            .map(|(span, graph, engine)| Leg {
                span,
                graph,
                engine,
                golden_polls: 0,
            })
            .collect(),
        };
        for i in 0..sim.legs.len() {
            sim.legs[i].golden_polls = sim.run_leg(&sim.legs[i], None)?.exec.polls;
        }
        Ok(sim)
    }

    /// Instantiate, feed, run and check one leg. `golden` is the poll count
    /// the run must reproduce.
    fn run_leg(&self, leg: &Leg, golden: Option<u64>) -> Result<RunReport, String> {
        let graph = &self.graphs[leg.graph];
        let text = |e: cgsim_core::GraphError| e.to_string();
        // The two context types share their methods but no trait.
        macro_rules! feed_collect_run {
            ($ctx:expr) => {{
                let mut ctx = $ctx;
                ctx.feed(0, 0..ELEMENTS).map_err(text)?;
                let sinks = (0..graph.outputs.len())
                    .map(|i| ctx.collect::<i64>(i))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(text)?;
                (sinks, ctx.run().map_err(text)?)
            }};
        }
        let config = RuntimeConfig::default();
        let (sinks, report) = match leg.engine {
            Engine::Cooperative => {
                feed_collect_run!(RuntimeContext::new(graph, &self.library, config).map_err(text)?)
            }
            Engine::Compiled => {
                feed_collect_run!(
                    CompiledContext::new(graph, &self.library, config).map_err(|e| e.to_string())?
                )
            }
        };
        if !report.drained() {
            return Err(format!("{}: stalled {:?}", leg.span, report.stalled));
        }
        for (i, sink) in sinks.iter().enumerate() {
            let got = sink.take();
            let (count, sum) = (got.len() as i64, got.iter().sum::<i64>());
            if (count, sum) != (ELEMENTS, ELEMENTS * (ELEMENTS - 1) / 2) {
                return Err(format!(
                    "{} sink {i}: {count} elements summing to {sum}",
                    leg.span
                ));
            }
        }
        match golden {
            Some(polls) if polls != report.exec.polls => Err(format!(
                "{}: {} polls against {polls} in setup",
                leg.span, report.exec.polls
            )),
            _ => Ok(report),
        }
    }

    fn polls(&self, span: &str) -> f64 {
        self.legs
            .iter()
            .find(|l| l.span == span)
            .map_or(f64::NAN, |l| l.golden_polls as f64)
    }
}

impl Workload for PipelineSim {
    fn params(&self) -> String {
        format!(
            "closed loop, 1 thread; pass = {ELEMENTS} i64 through tight (depth 1) and deep \
             (default depth) {STAGES}-stage pipelines on Cooperative and Compiled, plus a \
             1-to-{FANOUT} fanout on Cooperative"
        )
    }

    fn op(&mut self, spans: &mut Spans) -> Result<(), String> {
        for leg in &self.legs {
            spans
                .record(leg.span, "", |_| self.run_leg(leg, Some(leg.golden_polls)))
                .map(|_| ())?;
        }
        Ok(())
    }

    fn traced(
        &mut self,
        budget: Duration,
        spans: &mut Spans,
        tally: &mut Tally,
    ) -> Result<Metrics, String> {
        let mut off = Spans::disabled();
        let untraced = untraced_p50_us(budget.mul_f64(0.4), 3, tally, || self.op(&mut off));
        let mut ns_per_poll = Vec::new();
        repeat_for(budget.mul_f64(0.6), 3, || {
            spans.next_op();
            tally.note(&self.op(spans));
            // The run loop's own clock, so instantiation is left out.
            if let Ok(report) = self.run_leg(&self.legs[0], None) {
                ns_per_poll
                    .push(report.exec.total_time.as_nanos() as f64 / report.exec.polls as f64);
            }
        });
        let mut metrics = layer_medians(spans);
        for (name, value) in [
            ("bench.staged_over_e2e", staged_over_e2e(spans, untraced)),
            (
                "cgsim-runtime.ns_per_poll.tight",
                super::stats::median(&ns_per_poll),
            ),
            (
                "cgsim-runtime.polls.tight",
                self.polls("cgsim-runtime.tight_us"),
            ),
            (
                "cgsim-compiled.polls.tight",
                self.polls("cgsim-compiled.tight_us"),
            ),
        ] {
            metrics.insert(name.into(), value);
        }
        Ok(metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_leg_delivers_and_repeats_its_poll_count() {
        let mut sim = PipelineSim::setup().unwrap();
        assert_eq!(sim.legs.len(), 5);
        // Depth-1 connectors suspend per element; the compiled engine
        // sweeps once.
        assert!(sim.polls("cgsim-runtime.tight_us") > 10.0 * ELEMENTS as f64);
        assert!(sim.polls("cgsim-compiled.tight_us") < 100.0);
        let mut spans = Spans::enabled();
        spans.next_op();
        sim.op(&mut spans).unwrap();
        assert_eq!(spans.all().len(), 5);
        sim.legs[2].golden_polls += 1;
        let err = sim.op(&mut Spans::disabled()).unwrap_err();
        assert!(
            err.contains("cgsim-runtime.deep_us") && err.contains("polls"),
            "{err}"
        );
    }
}
