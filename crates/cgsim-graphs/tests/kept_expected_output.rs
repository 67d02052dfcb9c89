//! Each app keeps its expected output per `(app, blocks)`; these tests
//! check that nothing of that can be seen from outside: a streamed input
//! equals the collected one, every run matches a freshly computed
//! reference whatever ran before it or beside it, and a `blocks` whose
//! element count overflows is an error, not an empty run.

use cgsim_graphs::apps::{checksum_f32, checksum_i16};
use cgsim_graphs::{all_apps, bilinear, bitonic, farrow, iir, Backend, EvalApp, RunSpec};
use std::sync::Barrier;

/// `checksum(&reference(&make_input(blocks)))` of the app named `app`.
fn fresh_checksum(app: &str, blocks: u64) -> u64 {
    match app {
        "bitonic" => checksum_f32(&bitonic::reference(&bitonic::make_input(blocks))),
        "farrow" => {
            let input = farrow::make_input(blocks);
            checksum_i16(&farrow::reference(&input, farrow::default_mu()))
        }
        "IIR" => checksum_f32(&iir::reference(&iir::make_input(blocks))),
        "bilinear" => checksum_f32(&bilinear::reference(&bilinear::make_input(blocks))),
        other => panic!("unknown app {other}"),
    }
}

fn run(app: &dyn EvalApp, backend: Backend, blocks: u64) -> u64 {
    let spec = RunSpec::for_graph(app.name()).backend(backend);
    let run = app
        .run_spec(&spec, blocks)
        .unwrap_or_else(|e| panic!("{} under {backend:?} at {blocks} blocks: {e}", app.name()));
    run.checksum
}

#[test]
fn streamed_input_equals_the_collected_input() {
    for blocks in [1, 4, 16] {
        assert!(bitonic::input(blocks).eq(bitonic::make_input(blocks)));
        assert!(farrow::input(blocks).eq(farrow::make_input(blocks)));
        assert!(iir::input(blocks).eq(iir::make_input(blocks)));
        assert!(bilinear::input(blocks).eq(bilinear::make_input(blocks)));
    }
}

#[test]
fn runs_at_alternating_blocks_match_a_reference_fresh_checksum() {
    for app in all_apps() {
        let expected = [2, 3].map(|blocks| fresh_checksum(app.name(), blocks));
        for backend in [Backend::Cooperative, Backend::Compiled, Backend::Threaded] {
            for (blocks, expected) in [(2, expected[0]), (3, expected[1]), (2, expected[0])] {
                assert_eq!(
                    run(app.as_ref(), backend, blocks),
                    expected,
                    "{} under {backend:?} at {blocks} blocks",
                    app.name()
                );
            }
        }
    }
}

#[test]
fn concurrent_runs_at_the_same_and_at_different_blocks_verify() {
    for app in all_apps() {
        for pair in [[2, 2], [2, 3]] {
            let start = Barrier::new(2);
            let checksums = std::thread::scope(|s| {
                let threads = pair.map(|blocks| {
                    let (app, start) = (app.as_ref(), &start);
                    s.spawn(move || {
                        start.wait();
                        run(app, Backend::Cooperative, blocks)
                    })
                });
                threads.map(|t| t.join().expect("run thread panicked"))
            });
            assert_eq!(checksums, pair.map(|b| fresh_checksum(app.name(), b)));
        }
    }
}

#[test]
fn an_overflowing_element_count_is_an_error() {
    // The smallest `blocks` whose element count wraps to 0 in a u64.
    let wrapping = [1 << 60, 1 << 53, 1 << 53, 1 << 55];
    for (app, wrapping) in all_apps().iter().zip(wrapping) {
        for blocks in [wrapping, u64::MAX] {
            let spec = RunSpec::for_graph(app.name());
            let err = app.run_spec(&spec, blocks).map(|run| run.out_elems);
            let err = err.expect_err("an overflowing run must fail");
            let named = format!("{}: {blocks} blocks overflow", app.name());
            assert!(err.contains(&named), "{err}");
        }
    }
}

#[test]
#[should_panic(expected = "bitonic: 1152921504606846976 blocks overflow the element count")]
fn an_overflowing_input_panics_instead_of_wrapping() {
    let _ = bitonic::input(1 << 60);
}
