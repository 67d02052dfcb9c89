//! Failure-injection tests: the framework must *diagnose* broken graphs,
//! not hang or crash — the quiescence semantics of §3.8 make deadlock a
//! reportable outcome ("no coroutines can continue") rather than a hang.

mod common;

use cgsim::core::GraphBuilder;
use cgsim::extract::Extractor;
use cgsim::runtime::{
    compute_kernel, KernelLibrary, RunSpec, RuntimeConfig, RuntimeContext, VerifyPolicy,
};

compute_kernel! {
    /// Adds pairs from two streams — deadlocks if one stream is starved.
    #[realm(aie)]
    pub fn zip_add(a: ReadPort<i32>, b: ReadPort<i32>, out: WritePort<i32>) {
        loop {
            let (Some(x), Some(y)) = (a.get().await, b.get().await) else { break };
            out.put(x + y).await;
        }
    }
}

compute_kernel! {
    #[realm(aie)]
    pub fn feedback_inc(a: ReadPort<i32>, fb: ReadPort<i32>, out: WritePort<i32>, fb_out: WritePort<i32>) {
        // Requires a feedback value per input element, but never primes the
        // feedback stream: a classic dataflow deadlock.
        loop {
            let (Some(x), Some(f)) = (a.get().await, fb.get().await) else { break };
            out.put(x + f).await;
            fb_out.put(x).await;
        }
    }
}

fn library() -> KernelLibrary {
    KernelLibrary::with(|l| {
        l.register::<zip_add>();
        l.register::<feedback_inc>();
    })
}

#[test]
fn unprimed_feedback_loop_is_reported_not_hung() {
    // fb wire is both read and written by the kernel; with no initial
    // token the kernel can never fire.
    let graph = GraphBuilder::build("deadlock", |g| {
        let a = g.input::<i32>("a");
        let fb = g.wire::<i32>();
        let out = g.wire::<i32>();
        g.invoke::<feedback_inc>(&[a.id(), fb.id(), out.id(), fb.id()])?;
        g.output(&out);
        Ok(())
    })
    .unwrap();
    // Structure: the analysis layer flags the feedback loop.
    let topo = cgsim::core::Topology::of(&graph);
    assert!(topo.topo_order().is_none());

    // Static analysis proves the deadlock before any run: the cycle has no
    // external token source, so cgsim-lint reports CG020 at Error severity.
    let lint = cgsim::lint::lint_graph(&graph, &cgsim::lint::LintConfig::default());
    assert!(lint.has_errors());
    assert!(lint.codes().contains("CG020"), "{:?}", lint.codes());

    // Deny-by-default: the runtime refuses to even build the context.
    let lib = library();
    let err = match RuntimeContext::new(&graph, &lib, RuntimeConfig::default()) {
        Err(e) => e,
        Ok(_) => panic!("deny-by-default context construction should fail"),
    };
    assert_eq!(err.code(), "CG012");
    assert!(err.to_string().contains("CG020"), "{err}");

    // With verification disabled, the dynamic quiescence diagnosis still
    // works: the run terminates and names the stuck kernel.
    let spec = RunSpec::default().verify(VerifyPolicy::Off);
    let mut ctx = RuntimeContext::from_spec(&graph, &lib, &spec).unwrap();
    ctx.feed(0, vec![1, 2, 3]).unwrap();
    let out = ctx.collect::<i32>(0).unwrap();
    // Terminates (quiescence) and names the stuck kernel.
    let report = ctx.run().unwrap();
    assert!(!report.drained());
    assert!(report.stalled.iter().any(|s| s.contains("feedback_inc")));
    assert!(out.take().is_empty());
}

#[test]
fn starved_join_input_stalls_with_diagnosis() {
    let graph = GraphBuilder::build("starved", |g| {
        let a = g.input::<i32>("a");
        let b = g.input::<i32>("b");
        let s = g.wire::<i32>();
        zip_add::invoke(g, &a, &b, &s)?;
        g.output(&s);
        Ok(())
    })
    .unwrap();
    // Feed a with plenty but b with fewer elements: the kernel drains b,
    // sees end-of-stream and exits cleanly — NOT a deadlock (run_coop
    // asserts the run drains).
    let out: Vec<i32> = common::run_coop(&graph, &library(), vec![vec![1; 10], vec![2; 4]]);
    assert_eq!(out, vec![3; 4]);
}

#[test]
fn primed_feedback_loop_executes() {
    // The same feedback structure, but primed through a second graph input
    // merged into the feedback wire: each iteration consumes one feedback
    // token and produces the next.
    let graph = GraphBuilder::build("primed", |g| {
        let a = g.input::<i32>("a");
        let seed = g.input::<i32>("seed");
        let out = g.wire::<i32>();
        g.invoke::<feedback_inc>(&[a.id(), seed.id(), out.id(), seed.id()])?;
        g.output(&out);
        Ok(())
    })
    .unwrap();
    let lib = library();
    let mut ctx = RuntimeContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
    ctx.feed(0, vec![10, 20, 30]).unwrap();
    ctx.feed(1, vec![1]).unwrap(); // the priming token
    let out = ctx.collect::<i32>(0).unwrap();
    let report = ctx.run().unwrap();
    // out[0] = 10+1; fb becomes 10; out[1] = 20+10; fb 20; out[2] = 30+20.
    assert_eq!(out.take(), vec![11, 30, 50]);
    // The kernel itself ends blocked on the next feedback token after
    // inputs dry up — quiescence reports it, results are still complete.
    let _ = report;
}

#[test]
fn extractor_reports_position_of_syntax_errors() {
    let bad = "compute_graph! { name: g, inputs: (a f32), body: { }, outputs: (a), }";
    let err = Extractor::new().extract(bad).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("expected"), "unhelpful message: {msg}");
}

#[test]
fn multiple_graphs_in_one_file_each_get_a_project() {
    let src = r#"
compute_kernel! {
    #[realm(aie)]
    pub fn k1(input: ReadPort<f32>, out: WritePort<f32>) {
        while let Some(v) = input.get().await { out.put(v).await; }
    }
}
compute_graph! {
    name: first,
    inputs: (a: f32),
    body: {
        let b = wire::<f32>();
        k1(a, b);
    },
    outputs: (b),
}
compute_graph! {
    name: second,
    inputs: (x: f32),
    body: {
        let y = wire::<f32>();
        let z = wire::<f32>();
        k1(x, y);
        k1(y, z);
    },
    outputs: (z),
}
"#;
    let results = Extractor::new().extract(src).unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].project.name, "first");
    assert_eq!(results[1].project.name, "second");
    assert_eq!(results[0].graph.kernels.len(), 1);
    assert_eq!(results[1].graph.kernels.len(), 2);
    // Shared kernel definitions reused across graphs.
    for r in &results {
        assert!(r.project.file("k1.cc").is_some());
    }
}
