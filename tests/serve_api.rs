//! End-to-end tests for the `cgsim-serve` daemon (PR 10 tentpole).
//!
//! Each test boots a real server on an ephemeral port and talks to it over
//! plain `TcpStream` HTTP — the same wire a `curl` client would use. The
//! cornerstone assertions: a served run is bit-identical to a direct
//! `cgsim-pool` run of the same spec, repeat requests hit the compiled-graph
//! cache, lint-rejected manifests come back as structured `CG0xx` errors,
//! and `/metrics` is valid Prometheus exposition.

use cgsim::core::{
    FlatGraph, GraphBuilder, KernelDecl, KernelMeta, PortKind, PortSettings, PortSig, Realm,
    Topology,
};
use cgsim::graphs::{all_apps, RunSpec};
use cgsim::intrinsics::OpCounts;
use cgsim::lint::cost_estimate;
use cgsim::pool::{Job, JobOutcome, JobOutput, Pool, PoolConfig};
use cgsim::serve::{RateLimit, ServeConfig, ServeReport, Server};
use cgsim::sim::{DeployManifest, KernelCostProfile, PortTraffic, SimConfig, WorkloadSpec};
use cgsim::trace::export::prometheus::check_exposition;
use std::io::{Read, Write};
use std::net::TcpStream;

/// One blocking HTTP exchange; returns (status, headers, body).
fn http(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to serve daemon");
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    // Connection: close — read until EOF and split head from body.
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let raw = String::from_utf8(raw).expect("response is UTF-8");
    let (head, body) = raw.split_once("\r\n\r\n").expect("response has blank line");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_ascii_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body.to_string())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Value of an unlabelled counter/gauge in a Prometheus exposition body.
fn metric_value(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.trim_start();
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

fn one_pool_worker() -> ServeConfig {
    ServeConfig {
        pool_workers: 1,
        ..ServeConfig::default()
    }
}

/// The `traceEvents` array of a Chrome-trace document.
fn trace_events(trace: &str) -> Vec<serde_json::Value> {
    let doc: serde_json::Value = serde_json::from_str(trace).expect("trace is JSON");
    doc["traceEvents"]
        .as_array()
        .expect("trace has a traceEvents array")
        .clone()
}

#[test]
fn served_run_matches_direct_pool_run_and_caches() {
    let handle = Server::start(ServeConfig {
        http_workers: 2,
        pool_workers: 1,
        cache_capacity: 4,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    // Health first: the daemon is up.
    let (status, _, body) = http(&addr, "GET", "/healthz", &[], "");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");

    // Served run of a built-in app.
    let request = r#"{"graph":{"app":"bitonic"},"blocks":4}"#;
    let (status, _, body) = http(&addr, "POST", "/v1/run", &[], request);
    assert_eq!(status, 200, "serve error: {body}");
    let report = ServeReport::from_json(&body).expect("response is a ServeReport");
    assert_eq!(report.engine, "cooperative");
    assert!(report.summary.drained);
    let served_checksum = report.summary.checksum.expect("app runs carry a checksum");

    // The same spec executed directly on a cgsim-pool — the path the
    // daemon wraps — must produce a bit-identical checksum.
    let app = all_apps()
        .into_iter()
        .find(|a| a.name() == "bitonic")
        .expect("bitonic is a built-in app");
    let pool = Pool::new(PoolConfig::default().with_workers(1));
    let job = Job::new(RunSpec::for_graph("run"), move |ctx| {
        let run = app.run_spec(&ctx.effective_spec(), 4)?;
        Ok(JobOutput::new(run.checksum).elements(run.out_elems as u64))
    });
    let outcome = pool.submit(job).expect("pool accepts").wait();
    let JobOutcome::Completed(result) = outcome else {
        panic!("direct pool run failed: {outcome:?}");
    };
    assert_eq!(
        result.output.checksum, served_checksum,
        "served checksum must be bit-identical to a direct pool run"
    );
    pool.shutdown();

    // A second identical request is admitted from the compiled-graph cache.
    let (status, _, body) = http(&addr, "POST", "/v1/run", &[], request);
    assert_eq!(status, 200, "serve error: {body}");
    let (status, _, metrics) = http(&addr, "GET", "/metrics", &[], "");
    assert_eq!(status, 200);
    check_exposition(&metrics).expect("/metrics is valid Prometheus exposition");
    assert_eq!(metric_value(&metrics, "serve_cache_hits"), Some(1.0));
    assert_eq!(metric_value(&metrics, "serve_cache_misses"), Some(1.0));
    assert_eq!(metric_value(&metrics, "serve_runs_ok"), Some(2.0));

    // Graceful drain: the final report is the pool's own account of the
    // jobs the daemon ran.
    let report = handle.shutdown();
    assert_eq!(report.engine, "pool");
    assert!(report
        .counters
        .iter()
        .any(|(name, value)| name == "pool_jobs_completed" && *value == 2));
}

#[test]
fn unknown_app_and_bad_json_are_structured_errors() {
    let handle = Server::start(one_pool_worker()).expect("starts");
    let addr = handle.addr().to_string();

    let (status, _, body) = http(&addr, "POST", "/v1/run", &[], r#"{"graph":{"app":"nope"}}"#);
    assert_eq!(status, 404);
    assert!(body.contains("UNKNOWN_APP"), "{body}");
    assert!(
        body.contains("bitonic"),
        "error should list known apps: {body}"
    );

    let (status, _, body) = http(&addr, "POST", "/v1/run", &[], "{not json");
    assert_eq!(status, 400);
    assert!(body.contains("BAD_REQUEST"), "{body}");

    let (status, _, _) = http(&addr, "GET", "/no/such/route", &[], "");
    assert_eq!(status, 404);
    handle.shutdown();
}

/// A body nested far past the JSON depth cap is a structured 400, not a
/// stack overflow that takes the daemon down with it.
#[test]
fn deeply_nested_body_is_a_400_and_the_daemon_keeps_serving() {
    let handle = Server::start(one_pool_worker()).expect("starts");
    let addr = handle.addr().to_string();

    let deep = format!(r#"{{"graph":{}"#, "[".repeat(100_000));
    let (status, _, body) = http(&addr, "POST", "/v1/run", &[], &deep);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("BAD_REQUEST"), "{body}");
    assert!(body.contains("recursion limit"), "{body}");

    let (status, _, body) = http(&addr, "GET", "/healthz", &[], "");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");
    handle.shutdown();
}

/// RFC 8259 §7 forbids raw control characters inside a JSON string: a
/// label holding a raw newline and tab is a structured 400. Escaped, the
/// same label runs, so the daemon keeps serving.
#[test]
fn raw_control_characters_in_a_body_are_a_400() {
    let handle = Server::start(one_pool_worker()).expect("starts");
    let addr = handle.addr().to_string();
    let raw = "{\"graph\":{\"app\":\"IIR\"},\"blocks\":1,\"spec\":{\"label\":\"a\nb\t\"}}";
    let (status, _, body) = http(&addr, "POST", "/v1/run", &[], raw);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("BAD_REQUEST"), "{body}");
    assert!(body.contains("control character"), "{body}");

    let escaped = raw.replace('\n', "\\n").replace('\t', "\\t");
    let (status, _, body) = http(&addr, "POST", "/v1/run", &[], &escaped);
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
}

/// The cost limit is checked against the daemon's own estimate for the
/// graph and workload it admits; whatever cost a request declares changes
/// nothing.
#[test]
fn cost_limit_is_the_servers_estimate() {
    let app = all_apps().into_iter().find(|a| a.name() == "IIR").unwrap();
    let polls = |blocks: u64| {
        let feeds: Vec<u64> = app
            .workload(blocks)
            .elems_per_block_in
            .iter()
            .map(|e| blocks * e)
            .collect();
        let graph = app.graph();
        cost_estimate(&graph, &Topology::of(&graph), &feeds)
            .expect("IIR is acyclic")
            .polls_hint
    };
    let (small, large) = (polls(1), polls(64));
    let run = |addr: &str, request: &str| http(addr, "POST", "/v1/run", &[], request);
    let one_block = r#"{"graph":{"app":"IIR"},"blocks":1}"#;

    let unlimited = Server::start(one_pool_worker()).expect("starts");
    let (status, _, body) = run(&unlimited.addr().to_string(), one_block);
    assert_eq!(status, 200, "{body}");
    let free_checksum = ServeReport::from_json(&body).unwrap().summary.checksum;
    assert!(free_checksum.is_some());
    unlimited.shutdown();

    let handle = Server::start(ServeConfig {
        cost_limit: Some(small + (large - small) / 2),
        ..one_pool_worker()
    })
    .expect("starts");
    let addr = handle.addr().to_string();
    let declared = r#""spec":{"cost":{"tokens":0,"firings":0,"polls_hint":0}}"#;
    for request in [
        r#"{"graph":{"app":"IIR"},"blocks":64}"#.to_string(),
        format!(r#"{{"graph":{{"app":"IIR"}},"blocks":64,{declared}}}"#),
    ] {
        let (status, _, body) = run(&addr, &request);
        assert_eq!(status, 429, "{request}: {body}");
        assert!(
            body.contains("COST_EXCEEDED") && body.contains(&large.to_string()),
            "{body}"
        );
    }
    let (status, _, body) = run(&addr, one_block);
    assert_eq!(status, 200, "under the limit runs: {body}");
    let report = ServeReport::from_json(&body).unwrap();
    assert_eq!(report.summary.checksum, free_checksum);

    let (_, _, metrics) = http(&addr, "GET", "/metrics", &[], "");
    assert_eq!(metric_value(&metrics, "serve_cost_rejected"), Some(2.0));
    handle.shutdown();
}

// A minimal kernel kind for hand-built manifests.
struct Copy;
impl KernelDecl for Copy {
    const NAME: &'static str = "copy";
    const REALM: Realm = Realm::Aie;
    fn meta() -> KernelMeta {
        KernelMeta {
            name: Self::NAME.into(),
            realm: Self::REALM,
            ports: vec![
                PortSig::read::<f32>("in", PortSettings::DEFAULT),
                PortSig::write::<f32>("out", PortSettings::DEFAULT),
            ],
        }
    }
}

/// A `copy` pipeline from input to output. With `deadlocked`, a sealed
/// self-loop sits beside it: the graph passes `validate()` but deadlocks
/// (lint code CG020).
fn copy_manifest(deadlocked: bool) -> DeployManifest {
    let graph = GraphBuilder::build("copy", |g| {
        let a = g.input::<f32>("a");
        let b = g.wire::<f32>();
        g.invoke::<Copy>(&[a.id(), b.id()])?;
        if deadlocked {
            let w = g.wire::<f32>();
            g.invoke::<Copy>(&[w.id(), w.id()])?;
        }
        g.output(&b);
        Ok(())
    })
    .expect("graph builds");
    copy_deployment(graph)
}

/// A chain of `n` `copy` kernels from input to output.
fn copy_chain_manifest(n: usize) -> DeployManifest {
    let graph = GraphBuilder::build("copy_chain", |g| {
        let mut prev = g.input::<f32>("a");
        for _ in 0..n {
            let next = g.wire::<f32>();
            g.invoke::<Copy>(&[prev.id(), next.id()])?;
            prev = next;
        }
        g.output(&prev);
        Ok(())
    })
    .expect("graph builds");
    copy_deployment(graph)
}

/// Deploy `graph`, whose kernels are all `copy`, over four blocks.
fn copy_deployment(graph: FlatGraph) -> DeployManifest {
    // Manifests really deploy, so every kernel kind needs a cost profile;
    // zero measured ops is enough to move tokens.
    let stream = |elems| PortTraffic {
        elems_per_iter: elems,
        elem_bytes: 4,
        kind: PortKind::Stream,
    };
    let profile = KernelCostProfile::measured(
        "copy",
        OpCounts::default(),
        vec![stream(8)],
        vec![stream(8)],
    );
    DeployManifest::new(
        graph,
        vec![profile],
        SimConfig::extracted(),
        WorkloadSpec {
            blocks: 4,
            elems_per_block_in: vec![32],
            elems_per_block_out: vec![32],
        },
    )
}

#[test]
fn lint_rejected_manifest_returns_cg_code_in_error_body() {
    let handle = Server::start(one_pool_worker()).expect("starts");
    let addr = handle.addr().to_string();

    let manifest = copy_manifest(true);
    let request = format!(
        r#"{{"graph":{{"manifest":{}}}}}"#,
        serde_json::to_string(&manifest).unwrap()
    );
    let (status, _, body) = http(&addr, "POST", "/v1/run", &[], &request);
    assert_eq!(status, 422, "deny-by-default admission must reject: {body}");
    let error: cgsim::serve::ErrorBody = serde_json::from_str(&body).expect("structured error");
    assert!(
        error.code.starts_with("CG0"),
        "lint code, got {}",
        error.code
    );
    assert!(
        !error.findings.is_empty(),
        "error body carries the lint findings"
    );
    assert!(error.findings.iter().any(|d| d.code == "CG020"), "{body}");

    // The lint gate is an axis of the spec: verify=off runs the same
    // manifest anyway (it stalls, but the admission gate stands aside).
    let request = format!(
        r#"{{"graph":{{"manifest":{}}},"spec":{{"config":{{"verify":"off"}}}}}}"#,
        serde_json::to_string(&manifest).unwrap()
    );
    let (status, _, body) = http(&addr, "POST", "/v1/run", &[], &request);
    assert_eq!(status, 200, "verify=off must bypass the gate: {body}");
    let report = ServeReport::from_json(&body).expect("ServeReport");
    assert_eq!(report.engine, "aie-sim");

    let (_, _, metrics) = http(&addr, "GET", "/metrics", &[], "");
    assert_eq!(metric_value(&metrics, "serve_lint_rejected"), Some(1.0));
    handle.shutdown();
}

/// A manifest whose stored connector settings disagree with a port's
/// declared depth is refused as `CG013`, and the daemon keeps serving.
#[test]
fn stale_connector_settings_are_a_422_and_the_daemon_keeps_serving() {
    let handle = Server::start(one_pool_worker()).expect("starts");
    let addr = handle.addr().to_string();
    let mut manifest = copy_manifest(false);
    manifest.graph.kernels[0].ports[1].settings.depth = 8;
    let request = format!(
        r#"{{"graph":{{"manifest":{}}}}}"#,
        serde_json::to_string(&manifest).unwrap()
    );
    let (status, _, body) = http(&addr, "POST", "/v1/run", &[], &request);
    assert_eq!(status, 422, "{body}");
    let error: cgsim::serve::ErrorBody = serde_json::from_str(&body).expect("structured error");
    assert_eq!(error.code, "CG013", "{body}");
    assert!(error.error.contains("`depth`"), "{body}");
    let (status, _, body) = http(&addr, "GET", "/healthz", &[], "");
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
}

/// A manifest whose default FIFO depth is 0 is refused as `CG014` before
/// it reaches the simulator, and the daemon keeps serving.
#[test]
fn zero_fifo_depth_manifest_is_a_422_and_the_daemon_keeps_serving() {
    let handle = Server::start(one_pool_worker()).expect("starts");
    let addr = handle.addr().to_string();
    let mut manifest = copy_manifest(false);
    manifest.config.fifo_depth = 0;
    let request = format!(
        r#"{{"graph":{{"manifest":{}}}}}"#,
        serde_json::to_string(&manifest).unwrap()
    );
    let (status, _, body) = http(&addr, "POST", "/v1/run", &[], &request);
    assert_eq!(status, 422, "{body}");
    let error: cgsim::serve::ErrorBody = serde_json::from_str(&body).expect("structured error");
    assert_eq!(error.code, "CG014", "{body}");
    assert!(error.error.contains("`fifo_depth`"), "{body}");
    let (status, _, body) = http(&addr, "GET", "/healthz", &[], "");
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
}

/// An app request whose `blocks` overflows the input's element count is a
/// `500 RUN_FAILED` naming the overflow, not an empty run that verifies,
/// and the daemon keeps serving.
#[test]
fn overflowing_blocks_is_a_run_failure_and_the_daemon_keeps_serving() {
    let handle = Server::start(one_pool_worker()).expect("starts");
    let addr = handle.addr().to_string();
    for blocks in [1u64 << 60, u64::MAX] {
        let request = format!(r#"{{"graph":{{"app":"bitonic"}},"blocks":{blocks}}}"#);
        let (status, _, body) = http(&addr, "POST", "/v1/run", &[], &request);
        assert_eq!(status, 500, "{body}");
        let error: cgsim::serve::ErrorBody = serde_json::from_str(&body).expect("structured error");
        assert_eq!(error.code, "RUN_FAILED", "{body}");
        let named = format!("bitonic: {blocks} blocks overflow");
        assert!(error.error.contains(&named), "{body}");
    }
    let (status, _, body) = http(&addr, "GET", "/healthz", &[], "");
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
}

/// A 4 000-kernel manifest (2.4 MB, under the body cap) is validated,
/// linted and simulated, while another acceptor answers `/healthz`. Its
/// 4 000 AIE kernels exceed the device's 400 tiles (`CG050`), so the run
/// sets the lint gate aside to get its simulated answer.
#[test]
fn four_thousand_kernel_manifest_gets_its_answer() {
    let handle = Server::start(ServeConfig {
        http_workers: 2,
        ..one_pool_worker()
    })
    .expect("starts");
    let addr = handle.addr().to_string();
    let request = format!(
        r#"{{"graph":{{"manifest":{}}},"spec":{{"config":{{"verify":"off"}}}}}}"#,
        serde_json::to_string(&copy_chain_manifest(4_000)).unwrap()
    );
    let run = std::thread::spawn({
        let addr = addr.clone();
        move || http(&addr, "POST", "/v1/run", &[], &request)
    });
    let (status, _, body) = http(&addr, "GET", "/healthz", &[], "");
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = run.join().expect("request thread");
    assert_eq!(status, 200, "{body}");
    let report = ServeReport::from_json(&body).expect("ServeReport");
    assert_eq!(report.kernels.len(), 4_000);
    let (status, _, body) = http(&addr, "GET", "/healthz", &[], "");
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
}

/// A graph whose dataflow is cyclic has no static cost estimate, so a
/// daemon with a cost limit refuses it even when the lint gate stands aside.
#[test]
fn cyclic_graph_is_refused_under_a_cost_limit() {
    let config = ServeConfig {
        cost_limit: Some(u64::MAX),
        ..one_pool_worker()
    };
    let handle = Server::start(config).expect("starts");
    let addr = handle.addr().to_string();
    for (deadlocked, want) in [(true, 429), (false, 200)] {
        let request = format!(
            r#"{{"graph":{{"manifest":{}}},"spec":{{"config":{{"verify":"off"}}}}}}"#,
            serde_json::to_string(&copy_manifest(deadlocked)).unwrap()
        );
        let (status, _, body) = http(&addr, "POST", "/v1/run", &[], &request);
        assert_eq!(status, want, "{body}");
        assert_eq!(body.contains("no cost estimate"), deadlocked, "{body}");
    }
    handle.shutdown();
}

#[test]
fn rate_limit_returns_429_with_retry_after() {
    let handle = Server::start(ServeConfig {
        pool_workers: 1,
        rate: Some(RateLimit::new(1.0, 0.001)),
        ..ServeConfig::default()
    })
    .expect("starts");
    let addr = handle.addr().to_string();

    let request = r#"{"graph":{"app":"farrow"},"blocks":2}"#;
    let client = [("x-client-id", "alice")];
    let (status, _, body) = http(&addr, "POST", "/v1/run", &client, request);
    assert_eq!(status, 200, "first request spends the burst token: {body}");
    let (status, headers, body) = http(&addr, "POST", "/v1/run", &client, request);
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("RATE_LIMITED"), "{body}");
    let retry: u64 = header(&headers, "retry-after")
        .expect("429 carries Retry-After")
        .parse()
        .expect("Retry-After is integer seconds");
    assert!(retry >= 1);

    // Distinct clients have distinct buckets: bob is not throttled by
    // alice's spend.
    let (status, _, body) = http(&addr, "POST", "/v1/run", &[("x-client-id", "bob")], request);
    assert_eq!(status, 200, "{body}");

    let (_, _, metrics) = http(&addr, "GET", "/metrics", &[], "");
    assert_eq!(metric_value(&metrics, "serve_rate_limited"), Some(1.0));
    handle.shutdown();
}

#[test]
fn trace_ref_round_trips_to_chrome_trace() {
    let handle = Server::start(one_pool_worker()).expect("starts");
    let addr = handle.addr().to_string();

    let request = r#"{"graph":{"app":"IIR"},"blocks":2,"trace":true}"#;
    let (status, _, body) = http(&addr, "POST", "/v1/run", &[], request);
    assert_eq!(status, 200, "{body}");
    let report = ServeReport::from_json(&body).expect("ServeReport");
    let trace_ref = report.trace_ref.expect("trace=true yields a trace_ref");
    let (status, _, trace) = http(&addr, "GET", &trace_ref, &[], "");
    assert_eq!(status, 200, "trace_ref must resolve: {trace_ref}");
    assert!(
        !trace_events(&trace).is_empty(),
        "a traced run records events, got: {}",
        &trace[..trace.len().min(120)]
    );

    // Untraced runs keep no trace.
    let request = r#"{"graph":{"app":"IIR"},"blocks":2}"#;
    let (status, _, body) = http(&addr, "POST", "/v1/run", &[], request);
    assert_eq!(status, 200, "{body}");
    let report = ServeReport::from_json(&body).expect("ServeReport");
    assert_eq!(report.trace_ref, None);

    let (status, _, _) = http(&addr, "GET", "/v1/trace/9999", &[], "");
    assert_eq!(status, 404);
    handle.shutdown();
}

#[test]
fn traced_manifest_run_keeps_simulated_events() {
    let handle = Server::start(one_pool_worker()).expect("starts");
    let addr = handle.addr().to_string();

    let request = format!(
        r#"{{"graph":{{"manifest":{}}},"trace":true}}"#,
        serde_json::to_string(&copy_manifest(false)).unwrap()
    );
    let (status, _, body) = http(&addr, "POST", "/v1/run", &[], &request);
    assert_eq!(status, 200, "{body}");
    // Each per-kernel row carries the simulator's six fields, no more.
    let wire: serde_json::Value = serde_json::from_str(&body).unwrap();
    let row = wire["kernels"][0].as_object().expect("a kernel row");
    let mut keys: Vec<&str> = row.iter().map(|(key, _)| key.as_str()).collect();
    keys.sort_unstable();
    let expected = "busy_cycles instance interval_ns iterations stalls utilization";
    assert_eq!(keys.join(" "), expected);
    let report = ServeReport::from_json(&body).expect("ServeReport");
    assert_eq!(report.engine, "aie-sim");
    let trace_ref = report.trace_ref.expect("trace=true yields a trace_ref");
    let (status, _, trace) = http(&addr, "GET", &trace_ref, &[], "");
    assert_eq!(status, 200, "trace_ref must resolve: {trace_ref}");
    assert!(
        !trace_events(&trace).is_empty(),
        "a traced manifest run records the simulator's events: {trace}"
    );
    handle.shutdown();
}

/// `http_workers: 0` still starts one acceptor rather than a server that
/// refuses every connection.
#[test]
fn zero_http_workers_still_serves() {
    let handle = Server::start(ServeConfig {
        http_workers: 0,
        ..one_pool_worker()
    })
    .expect("starts");
    let addr = handle.addr().to_string();
    let (status, _, body) = http(&addr, "GET", "/healthz", &[], "");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");
    handle.shutdown();
}

#[test]
fn cache_flush_forces_recompile() {
    let handle = Server::start(one_pool_worker()).expect("starts");
    let addr = handle.addr().to_string();

    let request = r#"{"graph":{"app":"bilinear"},"blocks":2}"#;
    let (status, _, _) = http(&addr, "POST", "/v1/run", &[], request);
    assert_eq!(status, 200);
    let (status, _, body) = http(&addr, "POST", "/v1/cache/flush", &[], "");
    assert_eq!(status, 200);
    assert!(body.contains("\"flushed\":1"), "{body}");
    let (status, _, _) = http(&addr, "POST", "/v1/run", &[], request);
    assert_eq!(status, 200);

    let (_, _, metrics) = http(&addr, "GET", "/metrics", &[], "");
    assert_eq!(metric_value(&metrics, "serve_cache_misses"), Some(2.0));
    assert_eq!(metric_value(&metrics, "serve_cache_hits"), Some(0.0));
    handle.shutdown();
}
