//! Compiled static-schedule backend, end to end: golden firing schedules
//! for the four paper graphs, and property tests over the conformance
//! generator's random SDF graphs — planned outputs must be bit-identical
//! to the plan-less reference, a plan must replay deterministically, no
//! channel may hold more than its planned capacity, and traffic that fits
//! that capacity must never block a writer.

use cgsim::graphs::all_apps;
use cgsim::lint::LintConfig;
use cgsim::runtime::{compile, compile_for, Backend, CompiledPlan, Launch, RunSpec};
use cgsim::trace::Tracer;
use cgsim::{RuntimeConfig, RuntimeContext};
use cgsim_check::gen::{self, GeneratedCase};
use proptest::prelude::*;

/// The compiled firing order and per-connector token bounds of every paper
/// graph are part of the backend's contract: a schedule change shows up as
/// a golden diff, not as a silent perf or correctness drift. Regenerate
/// with `BLESS=1 cargo test --test compiled_backend`.
#[test]
fn paper_graph_schedules_match_golden_files() {
    for app in all_apps() {
        let graph = app.graph();
        // `compile_for` the default configuration, so the goldens record
        // exactly the plans the runtime-facing path produces.
        let plan = compile_for(&graph, &RuntimeConfig::default())
            .unwrap_or_else(|e| panic!("{} must be statically schedulable: {e}", app.name()));
        let text = plan.schedule().render(&graph);
        let path = format!(
            "{}/tests/golden/schedule_{}.txt",
            env!("CARGO_MANIFEST_DIR"),
            app.name().to_lowercase()
        );
        if std::env::var_os("BLESS").is_some() {
            std::fs::write(&path, &text).unwrap();
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{path}: {e} (BLESS=1 to generate)"));
        assert_eq!(
            text,
            golden,
            "{}: compiled schedule drifted from {path} (BLESS=1 to regenerate \
             after an intentional change)",
            app.name()
        );
    }
}

/// Whether any connector has merge fan-in (multiple producers, or a
/// producer competing with a global input) — the one property that puts a
/// generated case outside the statically schedulable class.
fn has_merge(case: &GeneratedCase) -> bool {
    case.graph.stats().merges > 0
}

/// Run one generated case on the one context: a `Compiled` spec following
/// `plan` when given (traced, so the report records each channel's planned
/// capacity), else a cooperative spec (default FIFO schedule). Under a
/// plan, asserts its bound guarantee: no channel ever holds more than its
/// planned capacity, and a channel whose whole traffic fits that capacity
/// never blocks a writer.
fn run_case(case: &GeneratedCase, plan: Option<&CompiledPlan>) -> Vec<Vec<i64>> {
    let lib = cgsim_check::kernels::library();
    let (spec, launch) = match plan {
        Some(plan) => (
            RunSpec::default().backend(Backend::Compiled),
            Launch::default()
                .with_plan(plan.clone())
                .with_tracer(Tracer::enabled()),
        ),
        None => (RunSpec::default(), Launch::default()),
    };
    let mut ctx = RuntimeContext::launch(&case.graph, &lib, &spec, launch).unwrap();
    for (i, feed) in case.feeds.iter().enumerate() {
        ctx.feed(i, feed.clone()).unwrap();
    }
    let sinks: Vec<_> = (0..case.graph.outputs.len())
        .map(|oi| ctx.collect::<i64>(oi).unwrap())
        .collect();
    let report = ctx.run().unwrap();
    assert!(
        report.drained(),
        "seed {}: run stalled: {:?}",
        case.seed,
        report.stalled
    );
    if plan.is_some() {
        for (name, stats) in &report.channels {
            let info = (report.trace.channels.iter())
                .find(|c| &c.name == name)
                .unwrap_or_else(|| panic!("seed {}: channel {name} not traced", case.seed));
            assert!(
                stats.max_occupancy <= info.capacity,
                "seed {}: channel {name} held {} elements, above its planned capacity {}",
                case.seed,
                stats.max_occupancy,
                info.capacity
            );
            if stats.pushes <= info.capacity {
                assert_eq!(
                    stats.blocked_writes, 0,
                    "seed {}: channel {name} blocked a writer within one round",
                    case.seed
                );
            }
        }
    }
    sinks.iter().map(|h| h.take()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Over random rate-balanced SDF graphs from the conformance
    /// generator: merge-free cases compile; one plan instantiated twice
    /// yields bit-identical outputs within its planned capacities; and the
    /// compiled outputs equal the cooperative reference. Merge cases are
    /// rejected with the lint code the static verifier assigns (CG043).
    #[test]
    fn compiled_matches_reference_on_generated_cases(seed in 0u64..1u64 << 40) {
        let case = gen::generate(seed);
        match compile(&case.graph, &LintConfig::default()) {
            Ok(plan) => {
                prop_assert!(
                    !has_merge(&case),
                    "seed {seed}: merge case must not compile"
                );
                let first = run_case(&case, Some(&plan));
                let second = run_case(&case, Some(&plan));
                prop_assert!(
                    first == second,
                    "seed {seed}: plan replay diverged"
                );
                let reference = run_case(&case, None);
                prop_assert!(
                    first == reference,
                    "seed {seed}: compiled diverged from cooperative"
                );
            }
            Err(err) => {
                prop_assert!(
                    has_merge(&case),
                    "seed {seed}: merge-free case rejected: {err}"
                );
                let code = err.reject_reason().and_then(|r| r.lint_code());
                prop_assert!(
                    code == Some("CG043"),
                    "seed {seed}: wrong reject reason {code:?}: {err}"
                );
            }
        }
    }
}
