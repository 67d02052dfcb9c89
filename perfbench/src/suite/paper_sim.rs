//! `paper_sim`: the four paper graphs through `EvalApp::run_spec`.
//!
//! One pass runs bitonic, farrow, IIR and bilinear at the paper's Table-2
//! block ratios under `Backend::Cooperative` and then `Backend::Compiled`:
//! eight functional simulations, each verified against the scalar
//! reference and against the golden checksum taken in setup. The pass is
//! kernel-body bound, so `aie-intrinsics` and the `cgsim-graphs` harness do
//! the work and the scheduler little.
//!
//! The traced pass replays `run_spec` stage by stage through the public
//! pieces it is made of (input, reference, graph, library, instantiate,
//! run, compare, checksum), so the time a caller of `run_spec` waits is
//! split by crate.

use super::spans::Spans;
use super::{
    layer_medians, repeat_for, staged_over_e2e, untraced_p50_us, Metrics, Tally, Workload,
};
use aie_intrinsics::counter::metered;
use cgsim_compiled::{compile, CompiledContext, LintConfig};
use cgsim_core::StreamData;
use cgsim_graphs::apps::{checksum_f32, checksum_i16};
use cgsim_graphs::{all_apps, bilinear, bitonic, farrow, iir, Backend, EvalApp, Launch, RunSpec};
use cgsim_runtime::cgsim_trace::Tracer;
use cgsim_runtime::{RunReport, RuntimeContext};
use std::hint::black_box;
use std::time::Duration;

/// Blocks per app: the paper's Table-2 ratios (1024 : 64 : 32 : 128),
/// halved so a 15 s window holds some 500 passes.
pub const BLOCKS: [u64; 4] = [512, 32, 16, 64];

/// Counts that must repeat bit-for-bit between runs and commits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Exact {
    polls: u64,
    pushes: u64,
    blocked_writes: u64,
}

impl Exact {
    fn of(report: &RunReport) -> Self {
        Exact {
            polls: report.exec.polls,
            pushes: report.channels.iter().map(|(_, c)| c.pushes).sum(),
            blocked_writes: report.channels.iter().map(|(_, c)| c.blocked_writes).sum(),
        }
    }
}

/// What setup recorded for one app under the cooperative backend.
#[derive(Clone, Copy, Debug)]
struct Golden {
    checksum: u64,
    out_elems: usize,
    exact: Exact,
}

/// The workload, set up.
pub struct PaperSim {
    apps: Vec<Box<dyn EvalApp>>,
    golden: Vec<Golden>,
    /// `aie-intrinsics` operations of one cooperative pass (exact).
    ops: u64,
}

fn spec(app: &dyn EvalApp, backend: Backend) -> RunSpec {
    RunSpec::for_graph(app.name()).backend(backend)
}

fn exact_of(app: &str, report: Option<&RunReport>) -> Result<Exact, String> {
    report
        .map(Exact::of)
        .ok_or_else(|| format!("{app}: cooperative run returned no report"))
}

impl PaperSim {
    /// Take the golden cooperative checksums and exact counts.
    pub fn setup() -> Result<Self, String> {
        let apps = all_apps();
        let (golden, ops) = metered(|| {
            apps.iter()
                .zip(BLOCKS)
                .map(|(app, blocks)| {
                    let run = app.run_spec(&spec(app.as_ref(), Backend::Cooperative), blocks)?;
                    Ok(Golden {
                        checksum: run.checksum,
                        out_elems: run.out_elems,
                        exact: exact_of(app.name(), run.report.as_deref())?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()
        });
        Ok(PaperSim {
            apps,
            golden: golden?,
            ops: ops.total(),
        })
    }

    fn check(
        &self,
        i: usize,
        backend: Backend,
        checksum: u64,
        out_elems: usize,
        exact: Option<Exact>,
    ) -> Result<(), String> {
        let (app, golden) = (self.apps[i].name(), &self.golden[i]);
        if (checksum, out_elems) != (golden.checksum, golden.out_elems) {
            return Err(format!(
                "{app} under {backend:?}: checksum {checksum:#x} over {out_elems} elements, \
                 golden {:#x} over {}",
                golden.checksum, golden.out_elems
            ));
        }
        match exact {
            Some(exact) if exact != golden.exact => Err(format!(
                "{app}: exact counts moved, {exact:?} against golden {:?}",
                golden.exact
            )),
            _ => Ok(()),
        }
    }

    /// The pass as a user runs it: `run_spec`, eight times.
    fn pass(&self) -> Result<(), String> {
        for (i, (app, blocks)) in self.apps.iter().zip(BLOCKS).enumerate() {
            for backend in [Backend::Cooperative, Backend::Compiled] {
                let run = app.run_spec(&spec(app.as_ref(), backend), blocks)?;
                let exact = match backend {
                    Backend::Cooperative => Some(exact_of(app.name(), run.report.as_deref())?),
                    _ => None,
                };
                self.check(i, backend, run.checksum, run.out_elems, exact)?;
            }
        }
        Ok(())
    }

    /// The same pass through the public pieces `run_spec` is made of.
    fn staged_pass(&self, spans: &mut Spans) -> Result<(), String> {
        for (i, (app, blocks)) in self.apps.iter().zip(BLOCKS).enumerate() {
            for backend in [Backend::Cooperative, Backend::Compiled] {
                let app = app.as_ref();
                let (checksum, out_elems, report) = match i {
                    0 => staged_run(spans, app, &BITONIC, blocks, backend),
                    1 => staged_run(spans, app, &FARROW, blocks, backend),
                    2 => staged_run(spans, app, &IIR, blocks, backend),
                    _ => staged_run(spans, app, &BILINEAR, blocks, backend),
                }?;
                let exact = (backend == Backend::Cooperative).then(|| Exact::of(&report));
                self.check(i, backend, checksum, out_elems, exact)?;
            }
        }
        Ok(())
    }

    /// Off the pass: the kernel compute functions called directly on the
    /// pass's input (the floor under `run_us`), the thread-per-kernel
    /// engine, and the same cooperative run with a live tracer attached.
    fn probes(&self, spans: &mut Spans, traced: &mut Traced) -> Result<(), String> {
        kernel_floor(spans, &BITONIC, BLOCKS[0]);
        kernel_floor(spans, &FARROW, BLOCKS[1]);
        kernel_floor(spans, &IIR, BLOCKS[2]);
        kernel_floor(spans, &BILINEAR, BLOCKS[3]);
        let (mut records, mut dropped) = (0, 0);
        for (i, (app, blocks)) in self.apps.iter().zip(BLOCKS).enumerate() {
            let key = super::APP_KEYS[i];
            let threaded = app.run_spec(&spec(app.as_ref(), Backend::Threaded), blocks)?;
            self.check(
                i,
                Backend::Threaded,
                threaded.checksum,
                threaded.out_elems,
                None,
            )?;
            let at = spans.now_ns();
            let wall = threaded.wall_time.as_nanos() as u64;
            spans.add("cgsim-threads.run_us", key, at - wall, at);

            let coop = spec(app.as_ref(), Backend::Cooperative);
            for tracer in [Tracer::enabled(), Tracer::disabled()] {
                let on = tracer.is_enabled();
                let run = app.run_launched(&coop, blocks, Launch::default().with_tracer(tracer))?;
                self.check(i, Backend::Cooperative, run.checksum, run.out_elems, None)?;
                if on {
                    traced.on += run.wall_time;
                    let report = run.report.as_deref();
                    records += report.map_or(0, |r| r.trace.records.len() as u64);
                    dropped += report.map_or(0, |r| r.trace.dropped);
                } else {
                    traced.off += run.wall_time;
                }
            }
        }
        (traced.records, traced.dropped) = (records, dropped);
        Ok(())
    }
}

/// Accumulated over the probe rounds.
#[derive(Default)]
struct Traced {
    on: Duration,
    off: Duration,
    records: u64,
    dropped: u64,
}

impl Workload for PaperSim {
    fn params(&self) -> String {
        format!(
            "closed loop, 1 thread; pass = run_spec on bitonic/farrow/IIR/bilinear at \
             {BLOCKS:?} blocks under Cooperative then Compiled"
        )
    }

    fn op(&mut self, _spans: &mut Spans) -> Result<(), String> {
        self.pass()
    }

    fn traced(
        &mut self,
        budget: Duration,
        spans: &mut Spans,
        tally: &mut Tally,
    ) -> Result<Metrics, String> {
        let untraced = untraced_p50_us(budget.mul_f64(0.25), 3, tally, || self.pass());
        repeat_for(budget.mul_f64(0.35), 3, || {
            spans.next_op();
            tally.note(&self.staged_pass(spans));
        });
        let mut metrics = Metrics::new();
        metrics.insert(
            "bench.staged_over_e2e".into(),
            staged_over_e2e(spans, untraced),
        );

        let mut traced = Traced::default();
        repeat_for(budget.mul_f64(0.4), 2, || {
            spans.next_op();
            tally.note(&self.probes(spans, &mut traced));
        });
        let ((), ops) = metered(|| {
            for (app, blocks) in self.apps.iter().zip(BLOCKS) {
                tally.note(
                    &app.run_spec(&spec(app.as_ref(), Backend::Cooperative), blocks)
                        .map(|_| ()),
                );
            }
        });
        tally.note(&if ops.total() == self.ops {
            Ok(())
        } else {
            Err(format!(
                "aie-intrinsics.ops moved: {} against {} in setup",
                ops.total(),
                self.ops
            ))
        });

        metrics.extend(layer_medians(spans));
        let sum = |prefix: &str| -> f64 {
            metrics
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(_, v)| v)
                .sum()
        };
        let overhead = 1.0 - sum("aie-intrinsics.kernel_us.") / sum("cgsim-runtime.run_us.");
        let exact = self.golden.iter().fold(Exact::default(), |a, g| Exact {
            polls: a.polls + g.exact.polls,
            pushes: a.pushes + g.exact.pushes,
            blocked_writes: a.blocked_writes + g.exact.blocked_writes,
        });
        for (name, value) in [
            ("cgsim-runtime.overhead_ratio", overhead),
            ("cgsim-runtime.polls", exact.polls as f64),
            ("cgsim-runtime.pushes", exact.pushes as f64),
            ("cgsim-runtime.blocked_writes", exact.blocked_writes as f64),
            ("aie-intrinsics.ops", self.ops as f64),
            (
                "cgsim-trace.traced_run_ratio",
                traced.on.as_secs_f64() / traced.off.as_secs_f64(),
            ),
            ("cgsim-trace.records", traced.records as f64),
            ("cgsim-trace.dropped", traced.dropped as f64),
        ] {
            metrics.insert(name.into(), value);
        }
        Ok(metrics)
    }
}

/// The typed pieces of one app that `run_spec` hides: its input, scalar
/// reference, checksum, runtime parameter and kernel compute function.
struct AppIo<TIn, TOut> {
    key: &'static str,
    input: fn(u64) -> Vec<TIn>,
    reference: fn(&[TIn]) -> Vec<TOut>,
    checksum: fn(&[TOut]) -> u64,
    /// Source of the runtime parameter fed to input 1 (farrow's `mu`).
    param: Option<fn() -> i16>,
    /// The kernel's compute functions over a whole input, no graph.
    kernel: fn(&[TIn]),
}

const BITONIC: AppIo<f32, f32> = AppIo {
    key: "bitonic",
    input: bitonic::make_input,
    reference: bitonic::reference,
    checksum: checksum_f32,
    param: None,
    kernel: |input| {
        for chunk in input.chunks_exact(bitonic::SORT_WIDTH) {
            black_box(bitonic::sort16(chunk));
        }
    },
};

const FARROW: AppIo<i16, i16> = AppIo {
    key: "farrow",
    input: farrow::make_input,
    reference: |input| farrow::reference(input, farrow::default_mu()),
    checksum: checksum_i16,
    param: Some(farrow::default_mu),
    kernel: |input| {
        let (coeffs, mu) = (farrow::q15_coeffs(), farrow::default_mu());
        let history = farrow::TAPS - 1;
        let mut data = vec![0i16; history + farrow::LANES];
        for chunk in input.chunks_exact(farrow::LANES) {
            data[history..].copy_from_slice(chunk);
            let sets = farrow::fir_iteration(&data, &coeffs);
            black_box(farrow::comb_iteration(&sets, mu));
            data.copy_within(farrow::LANES.., 0);
        }
    },
};

const IIR: AppIo<f32, f32> = AppIo {
    key: "iir",
    input: iir::make_input,
    reference: iir::reference,
    checksum: checksum_f32,
    param: None,
    kernel: |input| {
        let mut states = [iir::SectionState::default(); iir::SECTIONS];
        for window in input.chunks_exact(iir::BLOCK_SAMPLES) {
            black_box(iir::cascade_window(window, &mut states));
        }
    },
};

const BILINEAR: AppIo<bilinear::PixelQuad, f32> = AppIo {
    key: "bilinear",
    input: bilinear::make_input,
    reference: bilinear::reference,
    checksum: checksum_f32,
    param: None,
    kernel: |quads| {
        for chunk in quads.chunks_exact(bilinear::LANES) {
            black_box(bilinear::interp_iteration(chunk));
        }
    },
};

fn kernel_floor<TIn, TOut>(spans: &mut Spans, io: &AppIo<TIn, TOut>, blocks: u64) {
    let input = (io.input)(blocks);
    spans.record("aie-intrinsics.kernel_us", io.key, |_| {
        (io.kernel)(black_box(&input))
    });
}

/// One `run_spec` call, stage by stage; returns checksum, output length
/// and the engine's report.
fn staged_run<TIn: StreamData, TOut: StreamData + PartialEq>(
    spans: &mut Spans,
    app: &dyn EvalApp,
    io: &AppIo<TIn, TOut>,
    blocks: u64,
    backend: Backend,
) -> Result<(u64, usize, RunReport), String> {
    let spec = spec(app, backend);
    let param = io.param.map(|mu| mu());
    let (input, expect) = spans.record("cgsim-graphs.verify_us", "", |_| {
        let input = (io.input)(blocks);
        let expect = (io.reference)(&input);
        (input, expect)
    });
    let (graph, library) = spans.record("cgsim-graphs.build_us", "", |_| {
        (app.graph(), app.library())
    });
    let text = |e: cgsim_core::GraphError| e.to_string();

    // Instantiate, bind I/O and run under two spans; the two context types
    // share their methods but no trait.
    macro_rules! instantiate_and_run {
        ($instantiate:literal, $run:literal, $new:expr) => {{
            let (ctx, out) = spans
                .record($instantiate, "", |_| {
                    let mut ctx = $new;
                    ctx.feed(0, input)?;
                    if let Some(mu) = param {
                        ctx.feed_param(1, mu)?;
                    }
                    let out = ctx.collect::<TOut>(0)?;
                    Ok((ctx, out))
                })
                .map_err(text)?;
            let report = spans.record($run, io.key, |_| ctx.run()).map_err(text)?;
            (out, report)
        }};
    }
    let (out, report) = if backend == Backend::Cooperative {
        instantiate_and_run!(
            "cgsim-runtime.instantiate_us",
            "cgsim-runtime.run_us",
            RuntimeContext::from_spec(&graph, &library, &spec)?
        )
    } else {
        // What `CompiledContext::from_spec` does, compile kept apart.
        let lint = LintConfig {
            default_depth: spec.config().default_depth as u32,
            ..LintConfig::default()
        };
        let plan = spans
            .record("cgsim-compiled.compile_us", "", |_| compile(&graph, &lint))
            .map_err(|e| e.to_string())?;
        instantiate_and_run!(
            "cgsim-compiled.instantiate_us",
            "cgsim-compiled.run_us",
            CompiledContext::with_plan(&graph, &library, plan, *spec.config())
        )
    };
    if !report.drained() {
        return Err(format!("{} stalled: {:?}", app.name(), report.stalled));
    }

    spans.record("cgsim-graphs.verify_us", "", |_| {
        let got = out.take();
        if got != expect {
            return Err(format!(
                "{} under {backend:?}: output differs from the scalar reference",
                app.name()
            ));
        }
        Ok(((io.checksum)(&got), got.len(), report))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_pass_reproduces_run_spec_checksums_and_exact_counts() {
        let paper = PaperSim::setup().unwrap();
        assert_eq!(paper.golden.len(), 4);
        assert!(paper.ops > 0);
        paper.pass().unwrap();
        let mut spans = Spans::enabled();
        spans.next_op();
        // `staged_pass` checks every checksum, output length and exact
        // count against the goldens `run_spec` produced in setup.
        paper.staged_pass(&mut spans).unwrap();
        let keys = spans.self_us_per_op();
        for key in [
            "cgsim-graphs.verify_us",
            "cgsim-graphs.build_us",
            "cgsim-runtime.instantiate_us",
            "cgsim-runtime.run_us.iir",
            "cgsim-compiled.compile_us",
            "cgsim-compiled.instantiate_us",
            "cgsim-compiled.run_us.farrow",
        ] {
            assert!(keys.contains_key(key), "no span {key}");
        }
    }

    #[test]
    fn a_wrong_checksum_fails_the_pass() {
        let mut paper = PaperSim::setup().unwrap();
        paper.golden[2].checksum ^= 1;
        let err = paper.pass().unwrap_err();
        assert!(err.contains("IIR") && err.contains("golden"), "{err}");
        paper.golden[2].checksum ^= 1;
        paper.golden[0].exact.polls += 1;
        let err = paper.pass().unwrap_err();
        assert!(err.contains("exact counts moved"), "{err}");
    }
}
