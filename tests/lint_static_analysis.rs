//! Static-analysis integration tests: the bad-graph corpus produces its
//! golden diagnostic codes, the four paper graphs lint clean, generated
//! conformance graphs are Error-free, and the runtime/deploy verification
//! hooks reject what the verifier condemns.

use cgsim::core::{CheckedGraph, ConnectorId, Endpoint, KernelId, PortDir, Topology};
use cgsim::lint::{lint_checked, lint_graph, LintConfig, Severity};
use cgsim::FlatGraph;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn corpus_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(file)
}

fn lint_corpus(file: &str) -> (FlatGraph, cgsim::lint::LintReport) {
    let text = std::fs::read_to_string(corpus_path(file)).unwrap();
    let graph: FlatGraph = serde_json::from_str(&text).unwrap();
    let report = lint_graph(&graph, &LintConfig::default());
    (graph, report)
}

/// Golden corpus: every bad graph yields exactly its expected codes at
/// Error severity (warnings may accompany them).
#[test]
fn corpus_produces_golden_error_codes() {
    let golden: &[(&str, &[&str])] = &[
        ("bad_dangling.json", &["CG004", "CG005"]),
        ("bad_type_mismatch.json", &["CG001"]),
        ("bad_duplicate_global.json", &["CG007"]),
        ("bad_deadlock_feedback.json", &["CG020"]),
        ("bad_rate_imbalance.json", &["CG030"]),
        ("bad_over_budget.json", &["CG052"]),
        ("bad_capacity_starved.json", &["CG022"]),
        ("bad_settings_mismatch.json", &["CG013"]),
    ];
    for (file, expected) in golden {
        let (_, report) = lint_corpus(file);
        let errors: BTreeSet<String> = report.at(Severity::Error).map(|d| d.code.clone()).collect();
        let expected: BTreeSet<String> = expected.iter().map(|s| s.to_string()).collect();
        assert_eq!(errors, expected, "{file}:\n{:#?}", report);
    }
}

/// Every corpus graph, then the generated graphs of seeds `0..generated`.
fn corpus_and_generated(generated: u64) -> Vec<FlatGraph> {
    let mut graphs: Vec<FlatGraph> = std::fs::read_dir(corpus_path(""))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .map(|path| serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap())
        .collect();
    assert_eq!(graphs.len(), 8, "the corpus holds eight graphs");
    graphs.extend((0..generated).map(|seed| cgsim_check::generate(seed).graph));
    graphs
}

/// The port scan `FlatGraph` once answered endpoint queries with: every
/// port of every kernel, in kernel/port order.
fn scan(graph: &FlatGraph, c: ConnectorId, dir: PortDir) -> Vec<Endpoint> {
    let mut out = Vec::new();
    for (ki, k) in graph.kernels.iter().enumerate() {
        for (pi, p) in k.ports.iter().enumerate() {
            if p.connector == c && p.dir == dir {
                out.push(Endpoint {
                    kernel: KernelId::new(ki),
                    port: pi,
                });
            }
        }
    }
    out
}

/// `Topology`'s connector index answers exactly what the port scan did,
/// in the same order, and its topological order equals the
/// smallest-index-first Kahn order over the kernel edges the scan finds.
fn assert_index_matches_scan(graph: &FlatGraph) {
    let topo = Topology::of(graph);
    let n = graph.kernels.len();
    let (mut succ, mut pred) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    for ci in 0..graph.connectors.len() {
        let c = ConnectorId::new(ci);
        let (producers, consumers) = (scan(graph, c, PortDir::Out), scan(graph, c, PortDir::In));
        let (input, output) = (graph.inputs.contains(&c), graph.outputs.contains(&c));
        assert_eq!(topo.producers(c), producers, "{} {c}", graph.name);
        assert_eq!(topo.consumers(c), consumers, "{} {c}", graph.name);
        assert_eq!(topo.is_global_input(c), input, "{} {c}", graph.name);
        assert_eq!(topo.is_global_output(c), output, "{} {c}", graph.name);
        assert_eq!(topo.writers(c), producers.len() + usize::from(input));
        assert_eq!(topo.readers(c), consumers.len() + usize::from(output));
        for p in &producers {
            for q in &consumers {
                succ[p.kernel.index()].push(q.kernel.index());
                pred[q.kernel.index()].push(p.kernel.index());
            }
        }
    }
    for list in succ.iter_mut().chain(&mut pred) {
        list.sort_unstable();
        list.dedup();
    }
    let mut indegree: Vec<usize> = pred.iter().map(Vec::len).collect();
    let mut ready: BTreeSet<usize> = (0..n).filter(|&k| indegree[k] == 0).collect();
    let mut kahn = Vec::with_capacity(n);
    while let Some(k) = ready.pop_first() {
        kahn.push(KernelId::new(k));
        for &s in &succ[k] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready.insert(s);
            }
        }
    }
    let kahn = (kahn.len() == n).then_some(kahn);
    assert_eq!(topo.topo_order(), kahn, "{}", graph.name);
}

/// The index equals the scan on every corpus graph and 256 generated
/// ones. With one port of a generated graph moved to a connector id out of
/// range the index is still built (it leaves the port out), still equals
/// the scan, and `validate()` reports the id as `CG006`.
#[test]
fn topology_index_matches_the_port_scan() {
    for graph in &corpus_and_generated(256) {
        assert_index_matches_scan(graph);
    }
    for seed in 0..256 {
        let mut graph = cgsim_check::generate(seed).graph;
        let out_of_range = ConnectorId::new(graph.connectors.len() + 7);
        graph.kernels[0].ports[0].connector = out_of_range;
        assert_index_matches_scan(&graph);
        assert_eq!(graph.validate().unwrap_err().code(), "CG006", "seed {seed}");
    }
}

/// `validate()`, `CheckedGraph::new` and lint apply one structural rule: on
/// every corpus graph and 64 generated ones, both checks fail exactly when
/// lint reports a structural Error (`CG001`–`CG007`, `CG013`), with the
/// code of the first. On a graph that checks, `lint_checked` reports what
/// `lint_graph` does.
#[test]
fn validate_fails_exactly_on_the_first_structural_lint_error() {
    const STRUCTURAL: [&str; 8] = [
        "CG001", "CG002", "CG003", "CG004", "CG005", "CG006", "CG007", "CG013",
    ];
    for graph in &corpus_and_generated(64) {
        let report = lint_graph(graph, &LintConfig::default());
        let first = report
            .at(Severity::Error)
            .map(|d| d.code.as_str())
            .find(|code| STRUCTURAL.contains(code));
        let validated = graph.validate().err().map(|e| e.code());
        assert_eq!(validated, first, "{}", graph.name);
        let checked = CheckedGraph::new(graph);
        assert_eq!(checked.as_ref().err().map(|e| e.code()), validated);
        if let Ok(checked) = checked {
            assert_lint_checked_renders_as_lint_graph(&checked);
        }
    }
}

/// `lint_checked` of a checked graph renders the human and JSON reports
/// `lint_graph` renders, byte for byte.
fn assert_lint_checked_renders_as_lint_graph(checked: &CheckedGraph) {
    let graph = checked.graph();
    for config in [LintConfig::default(), LintConfig::default().with_bounds()] {
        let (full, kept) = (lint_graph(graph, &config), lint_checked(checked, &config));
        assert_eq!(
            kept.render_human(graph),
            full.render_human(graph),
            "{}",
            graph.name
        );
        assert_eq!(kept.to_json(), full.to_json(), "{}", graph.name);
    }
}

/// The corpus covers at least five distinct Error codes — the breadth the
/// verifier is expected to demonstrate.
#[test]
fn corpus_spans_at_least_five_error_codes() {
    let mut codes = BTreeSet::new();
    for entry in std::fs::read_dir(corpus_path("")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let graph: FlatGraph = serde_json::from_str(&text).unwrap();
        let report = lint_graph(&graph, &LintConfig::default());
        assert!(
            report.has_errors(),
            "{} should lint with errors",
            path.display()
        );
        codes.extend(report.at(Severity::Error).map(|d| d.code.clone()));
    }
    assert!(codes.len() >= 5, "only {codes:?}");
}

/// All four paper evaluation graphs are Error-clean — the lint gate must
/// never reject the applications the framework exists to run.
#[test]
fn paper_graphs_lint_error_free() {
    for app in cgsim::graphs::all_apps() {
        let graph = app.graph();
        let report = lint_graph(&graph, &LintConfig::default());
        assert!(
            !report.has_errors(),
            "{}:\n{}",
            app.name(),
            report.render_human(&graph)
        );
        assert_lint_checked_renders_as_lint_graph(&CheckedGraph::new(&graph).unwrap());
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// Soundness against the conformance generator: any graph `cgsim-check`
    /// emits is Error-clean under the verifier (merge fan-in CG043 warnings
    /// are expected — that's the exact/multiset oracle distinction, not an
    /// error).
    #[test]
    fn generated_conformance_graphs_are_error_clean(seed in 0u64..1u64 << 48) {
        use cgsim_check::gen;
        let case = gen::generate(seed);
        let report = lint_graph(&case.graph, &LintConfig::default());
        proptest::prop_assert!(
            !report.has_errors(),
            "seed {}:\n{}",
            seed,
            report.render_human(&case.graph)
        );
    }
}

/// Corpus graphs parse as graphs, not manifests, and the styled DOT export
/// marks the offending elements in red.
#[test]
fn corpus_diagnostics_colour_the_dot_export() {
    let (graph, report) = lint_corpus("bad_deadlock_feedback.json");
    let dot = cgsim::core::to_dot_styled(&graph, &cgsim::lint::dot_style(&report));
    assert!(dot.contains("fillcolor=\"red\""), "{dot}");
    // A connector without endpoints (`CG004`, `CG005`) has no edge to
    // draw; the rest of the graph still renders.
    let (graph, report) = lint_corpus("bad_dangling.json");
    let dot = cgsim::core::to_dot_styled(&graph, &cgsim::lint::dot_style(&report));
    assert!(dot.contains("\"copy_0\" -> \"out:0\""), "{dot}");
}

/// The acceptance-criteria hook test: a Deny-policy runtime context refuses
/// an Error-level graph end to end (mirrored in tests/failure_modes.rs for
/// the richer dynamic-fallback story).
#[test]
fn runtime_deny_hook_rejects_error_level_graph() {
    use cgsim::runtime::{Backend, KernelLibrary, RunSpec, RuntimeConfig, RuntimeContext};
    let (graph, report) = lint_corpus("bad_capacity_starved.json");
    assert!(report.has_errors());
    let lib = KernelLibrary::default();
    let err = match RuntimeContext::new(&graph, &lib, RuntimeConfig::default()) {
        Err(e) => e,
        Ok(_) => panic!("deny-by-default context construction should fail"),
    };
    assert_eq!(err.code(), "CG012");
    assert!(err.to_string().contains("CG022"), "{err}");

    // The threaded backend goes through the same gate: a starved graph and
    // a deadlocked one (whose threads would wait on each other forever)
    // are refused before a thread starts.
    let threaded = RunSpec::for_graph("threaded").backend(Backend::Threaded);
    for (file, code) in [
        ("bad_capacity_starved.json", "CG022"),
        ("bad_deadlock_feedback.json", "CG020"),
    ] {
        let (graph, _) = lint_corpus(file);
        let err = match RuntimeContext::from_spec(&graph, &lib, &threaded) {
            Err(e) => e,
            Ok(_) => panic!("{file}: threaded construction should fail"),
        };
        assert_eq!(err.code(), "CG012", "{file}: {err}");
        assert!(err.to_string().contains(code), "{file}: {err}");
    }
}
