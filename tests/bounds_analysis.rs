//! Static bounds analysis (`CG06x`), end to end: golden bounds tables and
//! a golden lint-report JSON for the paper graphs, property tests checking
//! the `CG060` occupancy bound against observed channel high-water marks on
//! random SDF graphs, and the runtime's opt-in bounds-check mode.

use cgsim::core::CheckedGraph;
use cgsim::graphs::all_apps;
use cgsim::lint::{lint_graph, occupancy_bounds, LintConfig};
use cgsim::runtime::{RunSpec, RuntimeConfig, RuntimeContext, Schedule};
use cgsim_check::gen::{self, GeneratedCase};
use proptest::prelude::*;

/// Lint configuration whose default depth matches the default runtime
/// configuration, so static capacities equal the capacities the runtime
/// actually allocates.
fn lint_cfg() -> LintConfig {
    RuntimeConfig::default().lint_config()
}

/// The per-connector bounds table of every paper graph is part of the
/// analysis contract: a drift in period tokens, minimal capacities or the
/// critical path shows up as a golden diff. Regenerate with
/// `BLESS=1 cargo test --test bounds_analysis`.
#[test]
fn paper_graph_bounds_match_golden_files() {
    for app in all_apps() {
        let graph = app.graph();
        let report = lint_graph(&graph, &lint_cfg());
        let bounds = report
            .bounds()
            .unwrap_or_else(|| panic!("{}: no bounds derived", app.name()));
        let text = bounds.render(&graph);
        let path = format!(
            "{}/tests/golden/bounds_{}.txt",
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
            "{}: bounds table drifted from {path} (BLESS=1 to regenerate after \
             an intentional change)",
            app.name()
        );
    }
}

/// The full JSON lint report for the bitonic graph, as a golden file: locks
/// the serialized shape callers parse — in particular that the firing
/// vector and the bounds block survive the round trip to JSON, which only
/// the human renderer used to show.
#[test]
fn bitonic_lint_report_json_matches_golden_file() {
    let app = &all_apps()[0];
    assert_eq!(app.name(), "bitonic");
    let graph = app.graph();
    let report = lint_graph(&graph, &lint_cfg());
    let text = report.to_json() + "\n";
    let path = format!(
        "{}/tests/golden/lint_report_bitonic.json",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &text).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e} (BLESS=1 to generate)"));
    assert_eq!(text, golden, "lint JSON drifted (BLESS=1 to regenerate)");
    // The two structured results the JSON must carry.
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert!(
        v["firing"]["counts"].as_array().is_some(),
        "firing vector missing"
    );
    assert!(
        v["bounds"]["connectors"].as_array().is_some(),
        "bounds missing"
    );
}

/// Whether any connector has merge fan-in — the generated-case class the
/// occupancy bound is validated on excludes it (matching the conform
/// oracle's own gating).
fn has_merge(case: &GeneratedCase) -> bool {
    case.graph.stats().merges > 0
}

/// Run one generated case on the cooperative runtime and return the
/// finished run report (outputs are discarded; the channels' high-water
/// marks are the subject here).
fn run_case(case: &GeneratedCase, spec: &RunSpec) -> cgsim::runtime::RunReport {
    let lib = cgsim_check::kernels::library();
    let mut ctx = RuntimeContext::from_spec(&case.graph, &lib, spec).unwrap();
    for (i, feed) in case.feeds.iter().enumerate() {
        ctx.feed(i, feed.clone()).unwrap();
    }
    let sinks: Vec<_> = (0..case.graph.outputs.len())
        .map(|oi| ctx.collect::<i64>(oi).unwrap())
        .collect();
    let report = ctx.run().unwrap();
    assert!(report.drained(), "seed {}: run stalled", case.seed);
    for s in &sinks {
        s.take();
    }
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness of `CG060` against real traces: on every merge-free
    /// generated case, the observed per-channel `max_occupancy` of a
    /// cooperative run — under the default schedule and a seeded
    /// permutation — never exceeds the static occupancy bound.
    #[test]
    fn occupancy_bound_dominates_observed_high_water(seed in 0u64..1u64 << 40) {
        let case = gen::generate(seed);
        if has_merge(&case) {
            return Ok(());
        }
        let feed_lens: Vec<u64> = case.feeds.iter().map(|f| f.len() as u64).collect();
        let checked = CheckedGraph::new(&case.graph).unwrap();
        let bounds = occupancy_bounds(&checked, &lint_cfg(), &feed_lens)
            .expect("merge-free generated cases are acyclic with fed kernels");
        let by_name: std::collections::HashMap<String, u64> = (0..case.graph.connectors.len())
            .map(|ci| (case.graph.connector_name(ci), bounds[ci]))
            .collect();
        let specs = [
            RunSpec::default(),
            RunSpec::default().schedule(Schedule::Seeded(seed)),
        ];
        for spec in &specs {
            let report = run_case(&case, spec);
            for (name, stats) in &report.channels {
                let bound = by_name[name];
                prop_assert!(
                    stats.max_occupancy <= bound,
                    "seed {seed}: channel {name} reached occupancy {} > static bound {bound}",
                    stats.max_occupancy
                );
            }
        }
    }
}

/// The runtime's opt-in bounds-check mode: arming the true static bounds
/// records no violation; arming an impossible bound of zero on every
/// channel records one violation per channel that buffered anything, with
/// the observed high-water mark attached.
#[test]
fn runtime_bounds_check_mode_records_violations() {
    let case = gen::generate(7);
    let feed_lens: Vec<u64> = case.feeds.iter().map(|f| f.len() as u64).collect();
    let lib = cgsim_check::kernels::library();

    let checked = CheckedGraph::new(&case.graph).unwrap();
    if let Some(bounds) = occupancy_bounds(&checked, &lint_cfg(), &feed_lens) {
        let mut ctx = RuntimeContext::new(&case.graph, &lib, RuntimeConfig::default()).unwrap();
        for (i, feed) in case.feeds.iter().enumerate() {
            ctx.feed(i, feed.clone()).unwrap();
        }
        let sinks: Vec<_> = (0..case.graph.outputs.len())
            .map(|oi| ctx.collect::<i64>(oi).unwrap())
            .collect();
        ctx.set_bounds_check(bounds);
        let report = ctx.run().unwrap();
        assert!(report.drained());
        assert_eq!(report.bounds_violations, vec![], "true bounds violated");
        for s in &sinks {
            s.take();
        }
    }

    let mut ctx = RuntimeContext::new(&case.graph, &lib, RuntimeConfig::default()).unwrap();
    for (i, feed) in case.feeds.iter().enumerate() {
        ctx.feed(i, feed.clone()).unwrap();
    }
    let sinks: Vec<_> = (0..case.graph.outputs.len())
        .map(|oi| ctx.collect::<i64>(oi).unwrap())
        .collect();
    ctx.set_bounds_check(vec![0; case.graph.connectors.len()]);
    let report = ctx.run().unwrap();
    assert!(report.drained());
    assert!(
        !report.bounds_violations.is_empty(),
        "zero bounds must be violated on a case that moves data"
    );
    for v in &report.bounds_violations {
        assert_eq!(v.bound, 0);
        assert!(v.observed > 0, "{}: violation without occupancy", v.channel);
        let (_, stats) = report
            .channels
            .iter()
            .find(|(name, _)| *name == v.channel)
            .unwrap_or_else(|| panic!("violation names unknown channel {}", v.channel));
        assert_eq!(v.observed, stats.max_occupancy);
    }
    for s in &sinks {
        s.take();
    }
}
