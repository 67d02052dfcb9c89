//! Figure 6 / §5 integration: every ported evaluation graph produces
//! bit-identical results on the cooperative runtime (cgsim), the
//! thread-per-kernel runtime (x86sim substitute), and against its scalar
//! golden reference — and simulates cleanly on the cycle-approximate
//! simulator under both code-generation variants.

use cgsim::graphs::{all_apps, Backend, RunSpec};
use cgsim::sim::{simulate_graph, SimConfig};

#[test]
fn all_apps_verify_on_both_runtimes_and_agree() {
    for app in all_apps() {
        let coop = app
            .run_spec(&RunSpec::for_graph(app.name()), 4)
            .unwrap_or_else(|e| panic!("{} cooperative: {e}", app.name()));
        let threaded = app
            .run_spec(
                &RunSpec::for_graph(app.name()).backend(Backend::Threaded),
                4,
            )
            .unwrap_or_else(|e| panic!("{} threaded: {e}", app.name()));
        assert_eq!(
            coop.checksum,
            threaded.checksum,
            "{}: runtimes disagree",
            app.name()
        );
        assert_eq!(coop.out_elems, threaded.out_elems);
        assert!(coop.out_elems > 0);
    }
}

#[test]
fn all_apps_simulate_under_both_variants() {
    for app in all_apps() {
        let graph = app.graph();
        graph.validate().unwrap();
        let profiles = app.profiles();
        let workload = app.workload(32);
        for config in [SimConfig::hand_optimized(), SimConfig::extracted()] {
            let trace = simulate_graph(&graph, &profiles, &config, &workload)
                .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
            assert_eq!(
                trace.trace.block_times.len(),
                32,
                "{}: wrong block count",
                app.name()
            );
            assert!(trace.ns_per_block().unwrap() > 0.0);
        }
    }
}

#[test]
fn extracted_variant_is_never_faster() {
    for app in all_apps() {
        let graph = app.graph();
        let profiles = app.profiles();
        let workload = app.workload(64);
        let hand = simulate_graph(&graph, &profiles, &SimConfig::hand_optimized(), &workload)
            .unwrap()
            .ns_per_block()
            .unwrap();
        let extracted = simulate_graph(&graph, &profiles, &SimConfig::extracted(), &workload)
            .unwrap()
            .ns_per_block()
            .unwrap();
        assert!(
            extracted >= hand,
            "{}: extracted {extracted} faster than hand-optimized {hand}",
            app.name()
        );
    }
}

#[test]
fn cycle_stepping_does_not_change_block_timing() {
    for app in all_apps() {
        let graph = app.graph();
        let profiles = app.profiles();
        let workload = app.workload(8);
        let plain =
            simulate_graph(&graph, &profiles, &SimConfig::hand_optimized(), &workload).unwrap();
        let stepped_cfg = SimConfig {
            cycle_stepping: true,
            ..SimConfig::hand_optimized()
        };
        let stepped = simulate_graph(&graph, &profiles, &stepped_cfg, &workload).unwrap();
        assert_eq!(
            plain.trace.block_times,
            stepped.trace.block_times,
            "{}: cycle stepping changed timing",
            app.name()
        );
        assert_eq!(plain.trace.entries, stepped.trace.entries, "{}", app.name());
        assert_eq!(plain.trace.end_time, stepped.trace.end_time);
        assert_eq!(plain.trace.stalls, stepped.trace.stalls, "{}", app.name());
    }
}

/// `SimReport::build` and `iteration_snapshot` read the trace through one
/// per-node bucketing pass; each row must be what a scan per kernel gives.
#[test]
fn report_and_snapshot_match_a_scan_per_kernel() {
    use cgsim::sim::{KernelReport, SimReport};
    use cgsim::trace::TraceEvent;
    use std::collections::HashMap;
    let config = SimConfig::hand_optimized();
    for app in all_apps() {
        let (graph, profiles) = (app.graph(), app.profiles());
        let t = simulate_graph(&graph, &profiles, &config, &app.workload(8)).unwrap();
        let kinds: HashMap<String, String> = graph
            .kernels
            .iter()
            .map(|k| (k.instance.clone(), k.kind.clone()))
            .collect();
        let services: HashMap<String, u64> = kinds
            .iter()
            .map(|(instance, kind)| (instance.clone(), profiles[kind].iteration_cycles(&config)))
            .collect();

        let report = SimReport::build(&t, &profiles, &kinds, &config);
        let snapshot = t.iteration_snapshot(&services);
        assert_eq!(report.kernels.len(), graph.kernels.len());
        let mut records = snapshot.records.iter();
        for (ki, ((instance, node), row)) in t.kernel_nodes.iter().zip(&report.kernels).enumerate()
        {
            let times = t.trace.iterations_of(*node);
            assert!(!times.is_empty(), "{instance} never ran");
            let busy_cycles = times.len() as u64 * services[instance];
            let want = KernelReport {
                instance: instance.clone(),
                iterations: times.len() as u64,
                busy_cycles,
                utilization: busy_cycles as f64 / t.trace.end_time as f64,
                interval_ns: t.kernel_interval_ns(instance),
                stalls: t.trace.stalls[*node],
            };
            assert_eq!(*row, want, "{}", app.name());

            assert_eq!(snapshot.kernels[ki], *instance);
            for (iteration, end) in times.into_iter().enumerate() {
                let record = records.next().expect("one record per iteration");
                let start = end.saturating_sub(services[instance]);
                assert_eq!(record.ts_ns, config.cycles_to_ns(end).round() as u64);
                match record.event {
                    TraceEvent::IterationEnd {
                        kernel,
                        iteration: i,
                        start_ns,
                    } => {
                        assert_eq!((kernel.0 as usize, i), (ki, iteration as u64));
                        assert_eq!(start_ns, config.cycles_to_ns(start).round() as u64);
                    }
                    ref other => panic!("{instance}: unexpected {other:?}"),
                }
            }
        }
        assert!(records.next().is_none());
    }
}

/// What a simulator speed-up must not move: the simulated statistics of
/// the four apps (bitonic, farrow, IIR, bilinear), recorded at PR 16. The
/// stepped legs also pin the scoreboard fingerprint, which depends on which
/// nodes are busy in every single cycle.
#[test]
fn simulated_statistics_are_pinned() {
    struct Golden {
        blocks: u64,
        end_time: u64,
        stalls: &'static [u64],
        micro_fingerprint: u64,
        entries: usize,
    }
    #[rustfmt::skip]
    let stepped = [
        Golden { blocks: 280, end_time: 22_416, stalls: &[2, 277, 0], micro_fingerprint: 0xc2ea_7d89_a777_74c1, entries: 280 },
        Golden { blocks: 2, end_time: 18_512, stalls: &[2, 2, 0, 0, 0], micro_fingerprint: 0xa40d_5f85_bf56_ec6b, entries: 512 },
        Golden { blocks: 2, end_time: 34_896, stalls: &[2, 0, 0], micro_fingerprint: 0x44a3_6d16_1093_0cff, entries: 2 },
        Golden { blocks: 4, end_time: 22_576, stalls: &[2, 248, 0], micro_fingerprint: 0x7057_9237_7063_e9d5, entries: 256 },
    ];
    // Event-driven at sixteen times the blocks; it keeps no scoreboard.
    #[rustfmt::skip]
    let event: [(u64, &[u64]); 4] = [
        (358_416, &[2, 4_477, 0]),
        (294_992, &[2, 2, 3_808, 0, 0]),
        (527_616, &[2, 29, 0]),
        (360_496, &[2, 4_088, 0]),
    ];
    let stepped_cfg = SimConfig {
        cycle_stepping: true,
        ..SimConfig::hand_optimized()
    };
    for ((app, golden), (event_end, event_stalls)) in all_apps().iter().zip(stepped).zip(event) {
        let (name, graph, profiles) = (app.name(), app.graph(), app.profiles());
        let workload = app.workload(golden.blocks);
        let t = simulate_graph(&graph, &profiles, &stepped_cfg, &workload).unwrap();
        assert_eq!(t.trace.end_time, golden.end_time, "{name} stepped");
        assert_eq!(t.trace.stalls, golden.stalls, "{name} stepped");
        assert_eq!(
            t.trace.micro_fingerprint, golden.micro_fingerprint,
            "{name}: fingerprint {:#x}",
            t.trace.micro_fingerprint
        );
        assert_eq!(t.trace.entries.len(), golden.entries, "{name} stepped");

        let workload = app.workload(golden.blocks * 16);
        let t = simulate_graph(&graph, &profiles, &SimConfig::hand_optimized(), &workload).unwrap();
        assert_eq!(t.trace.end_time, event_end, "{name} event-driven");
        assert_eq!(t.trace.stalls, event_stalls, "{name} event-driven");
        assert_eq!(t.trace.micro_fingerprint, 0, "{name} event-driven");
    }
}

/// What a kernel speed-up must not move: output checksum and length, the
/// engine's exact counts and the intrinsic ops of each app under the
/// cooperative and the compiled engine, at `paper_sim`'s block counts.
/// `polls` and `blocked_writes` are per engine: a planned run's channels
/// hold 64 KiB each, so farrow, IIR and bilinear run in rounds there.
/// Each leg runs untraced and again with an enabled tracer, which must
/// not move any of them; the untraced run's report carries an empty trace.
#[test]
fn functional_runs_are_pinned() {
    use cgsim::graphs::Launch;
    use cgsim::intrinsics::counter::metered;
    use cgsim::trace::Tracer;
    struct Golden {
        blocks: u64,
        checksum: u64,
        out_elems: usize,
        polls: [u64; 2],
        pushes: u64,
        blocked_writes: [u64; 2],
        ops: u64,
    }
    #[rustfmt::skip]
    let goldens = [
        Golden { blocks: 512, checksum: 0x578e_024c_3b91_073f, out_elems: 8_192, polls: [386, 3], pushes: 16_384, blocked_writes: [0, 0], ops: 21_504 },
        Golden { blocks: 32, checksum: 0x9bdf_55d5_1ed4_732a, out_elems: 65_536, polls: [4_100, 30], pushes: 196_609, blocked_writes: [0, 7], ops: 143_360 },
        Golden { blocks: 16, checksum: 0x538a_c158_8aed_1748, out_elems: 32_768, polls: [2_019, 6], pushes: 65_536, blocked_writes: [0, 0], ops: 311_296 },
        Golden { blocks: 64, checksum: 0xda2b_d422_edc9_ce96, out_elems: 32_768, polls: [1_538, 39], pushes: 65_536, blocked_writes: [0, 0], ops: 45_056 },
    ];
    for (app, golden) in all_apps().iter().zip(goldens) {
        let backends = [Backend::Cooperative, Backend::Compiled].into_iter();
        for ((backend, polls), blocked_writes) in
            backends.zip(golden.polls).zip(golden.blocked_writes)
        {
            for traced in [false, true] {
                let spec = RunSpec::for_graph(app.name()).backend(backend);
                let launch = match traced {
                    true => Launch::default().with_tracer(Tracer::enabled()),
                    false => Launch::default(),
                };
                let (run, ops) = metered(|| app.run_launched(&spec, golden.blocks, launch));
                let what = format!("{} under {backend:?} (traced: {traced})", app.name());
                let run = run.unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(
                    run.checksum, golden.checksum,
                    "{what}: checksum {:#x}",
                    run.checksum
                );
                assert_eq!(run.out_elems, golden.out_elems, "{what}");
                assert_eq!(ops.total(), golden.ops, "{what}: ops");
                let report = run.report.expect("executor runs report");
                let channels = || report.channels.iter().map(|(_, c)| c);
                assert_eq!(report.exec.polls, polls, "{what}: polls");
                assert_eq!(
                    channels().map(|c| c.pushes).sum::<u64>(),
                    golden.pushes,
                    "{what}: pushes"
                );
                assert_eq!(
                    channels().map(|c| c.blocked_writes).sum::<u64>(),
                    blocked_writes,
                    "{what}: blocked_writes"
                );
                let trace = &report.trace;
                if traced {
                    assert!(!trace.records.is_empty(), "{what}: nothing recorded");
                } else {
                    assert!(trace.records.is_empty(), "{what}: records");
                    assert_eq!(trace.dropped, 0, "{what}: dropped");
                    assert!(trace.kernels.is_empty(), "{what}: kernels");
                }
            }
        }
    }
}

#[test]
fn placement_succeeds_for_all_apps() {
    use cgsim::sim::{ArrayGeometry, Placement};
    for app in all_apps() {
        let graph = app.graph();
        let checked = cgsim::core::CheckedGraph::new(&graph).unwrap();
        let p = Placement::place(&checked, ArrayGeometry::VC1902)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        let aie_kernels = graph
            .kernels
            .iter()
            .filter(|k| k.realm == cgsim::core::Realm::Aie)
            .count();
        assert_eq!(p.used_tiles(), aie_kernels);
    }
}

#[test]
fn extraction_works_on_app_shaped_source() {
    // The evaluation apps are defined via the same compute_kernel! /
    // compute_graph! DSL; verify the extractor ingests an equivalent
    // source file for the bitonic app and recovers the same topology.
    let source = r#"
compute_kernel! {
    /// 16-wide bitonic sorter.
    #[realm(aie)]
    pub fn bitonic_kernel(input: ReadPort<f32>, out: WritePort<f32>) {
        while let Some(chunk) = input.get_window(16).await {
            out.put_window(sort16(&chunk)).await;
        }
    }
}

compute_graph! {
    name: bitonic,
    inputs: (samples: f32),
    body: {
        let sorted = wire::<f32>();
        bitonic_kernel(samples, sorted);
        attr(samples, "plio_name", "samples_in");
        attr(sorted, "plio_name", "sorted_out");
    },
    outputs: (sorted),
}
"#;
    let extraction = cgsim::extract::Extractor::new()
        .extract(source)
        .unwrap()
        .remove(0);
    let app_graph = cgsim::graphs::bitonic::build_graph();
    assert_eq!(
        serde_json::to_value(&extraction.graph).unwrap(),
        serde_json::to_value(&app_graph).unwrap(),
        "extractor topology differs from the app's runtime graph"
    );
}
