//! Schedule-permutation fuzzing over the four paper graphs (§5, Table 1):
//! bitonic, Farrow, IIR, bilinear. The functional result of each app must be
//! bit-identical under the default FIFO cooperative schedule, eight seeded
//! ready-list permutations, and the thread-per-kernel runtime — the
//! evaluation-app counterpart of the random-graph `conform` harness
//! (`cargo run -p cgsim-check --bin conform -- --seed S --cases N`).

use cgsim::graphs::{all_apps, Backend, Launch, Profiling, RunSpec, Schedule};

/// ≥ 8 per the conformance harness design; spread out so neighbouring seeds
/// don't share low bits.
const SCHEDULE_SEEDS: [u64; 8] = [
    1,
    42,
    0xDEAD_BEEF,
    0x5EED_0001,
    0x5EED_0002,
    987_654_321,
    u64::MAX / 3,
    u64::MAX,
];

fn seeded(seed: u64) -> RunSpec {
    RunSpec::for_graph("fuzz-seeded").schedule(Schedule::Seeded(seed))
}

#[test]
fn paper_graphs_agree_under_seeded_schedule_permutations() {
    for app in all_apps() {
        let reference = app
            .run_spec(&RunSpec::for_graph("fuzz-ref"), 4)
            .unwrap_or_else(|e| panic!("{} reference: {e}", app.name()));
        assert!(reference.out_elems > 0, "{}: empty reference", app.name());
        for seed in SCHEDULE_SEEDS {
            let run = app
                .run_spec(&seeded(seed), 4)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", app.name()));
            assert_eq!(
                run.checksum,
                reference.checksum,
                "{}: schedule permutation (seed {seed}) changed the output; \
                 replay with Schedule::Seeded({seed})",
                app.name()
            );
            assert_eq!(run.out_elems, reference.out_elems, "{}", app.name());
        }
    }
}

#[test]
fn paper_graphs_agree_between_seeded_cooperative_and_threaded() {
    for app in all_apps() {
        let threaded = app
            .run_spec(
                &RunSpec::for_graph("fuzz-thr").backend(Backend::Threaded),
                4,
            )
            .unwrap_or_else(|e| panic!("{} threaded: {e}", app.name()));
        // One seeded permutation against the threaded runtime closes the
        // triangle: FIFO == seeded (above) and seeded == threaded (here).
        let seeded = app
            .run_spec(&seeded(0x5EED), 4)
            .unwrap_or_else(|e| panic!("{} seeded: {e}", app.name()));
        assert_eq!(
            seeded.checksum,
            threaded.checksum,
            "{}: threaded runtime disagrees with seeded cooperative",
            app.name()
        );
        assert_eq!(seeded.out_elems, threaded.out_elems);
    }
}

#[test]
fn paper_graphs_agree_across_channel_backends_and_profiling_modes() {
    // The hot-loop configuration axes — channel storage policy (fast-path
    // cell under the executor, mutex under threads) and profiling mode
    // (off / sampled / full) — must be pure observers: bit-identical
    // output on every paper graph.
    for app in all_apps() {
        let reference = app
            .run_spec(&RunSpec::for_graph("fuzz-ref"), 4)
            .unwrap_or_else(|e| panic!("{} reference: {e}", app.name()));
        let legs: [(&str, RunSpec); 4] = [
            (
                "mutex channels (threads)",
                RunSpec::for_graph("fuzz-mutex").backend(Backend::Threaded),
            ),
            (
                "profiling off",
                RunSpec::for_graph("fuzz-prof-off").profiling(Profiling::Off),
            ),
            (
                "profiling sampled(7)",
                RunSpec::for_graph("fuzz-prof-sampled").profiling(Profiling::Sampled(7)),
            ),
            (
                "profiling full",
                RunSpec::for_graph("fuzz-prof-full").profiling(Profiling::Full),
            ),
        ];
        for (what, spec) in &legs {
            let run = app
                .run_spec(spec, 4)
                .unwrap_or_else(|e| panic!("{} {what}: {e}", app.name()));
            assert_eq!(
                run.checksum,
                reference.checksum,
                "{}: {what} changed the output",
                app.name()
            );
            assert_eq!(run.out_elems, reference.out_elems, "{}", app.name());
        }
    }
}

#[test]
fn same_schedule_seed_is_replayable() {
    for app in all_apps() {
        let a = app.run_spec(&seeded(7), 2).unwrap();
        let b = app.run_spec(&seeded(7), 2).unwrap();
        assert_eq!(a.checksum, b.checksum, "{}", app.name());
        assert_eq!(a.out_elems, b.out_elems);
    }
}

#[test]
fn cached_plan_launch_matches_fresh_compile() {
    // Launching `Backend::Compiled` with a precompiled plan (the serving
    // layer's cache path) must be bit-identical to compiling per run.
    for app in all_apps() {
        let spec = RunSpec::for_graph(app.name()).backend(Backend::Compiled);
        let graph = app.graph();
        let plan = cgsim::runtime::compile(&graph, &cgsim::lint::LintConfig::default())
            .unwrap_or_else(|e| panic!("{} must compile: {e}", app.name()));
        let cached = app
            .run_launched(&spec, 2, Launch::default().with_plan(plan))
            .unwrap_or_else(|e| panic!("{} cached plan: {e}", app.name()));
        let fresh = app.run_spec(&spec, 2).unwrap();
        assert_eq!(cached.checksum, fresh.checksum, "{}", app.name());
        assert_eq!(cached.out_elems, fresh.out_elems);
        assert!(cached.report.is_some(), "{}: report missing", app.name());
    }
}
