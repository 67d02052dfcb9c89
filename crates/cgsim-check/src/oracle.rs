//! The differential oracle.
//!
//! Runs one generated case through every available backend and asserts that
//! they agree — the library form of the paper's cross-validation between
//! the functional x86 simulation and `aiesim`:
//!
//! 1. **Reference leg**: the cooperative executor under its default FIFO
//!    schedule.
//! 2. **Permutation legs**: the same executor under LIFO and N seeded
//!    ready-list permutations, plus seeded fault-injection rounds (forced
//!    stalls / wake reordering) and one early-sink-closure round.
//! 3. **Threaded leg**: the same runtime context under its thread-per-kernel
//!    scheduler (`Backend::Threaded`).
//! 4. **DES leg**: the cycle-approximate AIE simulation (`aie-sim`), checked
//!    structurally — per-kernel iteration counts and per-sink block
//!    completion against the generator's predictions — and run again
//!    cycle-stepped, which must not change the trace.
//!
//! Every functional leg must produce bit-identical sink outputs (exact for
//! order-deterministic outputs, as multisets for merge-fed ones), satisfy
//! the channel conservation law (`pops == pushes × readers` once drained),
//! and pass the graph-agnostic trace invariants of
//! [`cgsim_trace::invariants`].

use crate::gen::GeneratedCase;
use crate::kernels::{self, PALETTE_SHAPES};
use crate::repro;
use aie_intrinsics::OpCounts;
use aie_sim::{simulate_graph, KernelCostProfile, PortTraffic, SimConfig, WorkloadSpec};
use cgsim_core::{CheckedGraph, ConnectorId, PortKind};
use cgsim_runtime::{
    compile_linted, Backend, ChannelStats, CompiledPlan, FaultPlan, KernelLibrary, Launch,
    Profiling, RunReport, RunSpec, RuntimeConfig, RuntimeContext, Schedule, SchedulePolicy,
};
use cgsim_trace::{invariants, Tracer};
use std::collections::HashMap;

/// Seeded ready-list permutations per case (on top of FIFO + LIFO) unless
/// the suite asks for another count.
pub(crate) const SCHEDULES: u32 = 4;
/// Additional rounds with fault injection (forced stalls) enabled.
const FAULT_ROUNDS: u32 = 2;
/// Poll budget per cooperative run — turns a livelock into a reported
/// failure instead of a hang.
const MAX_POLLS: u64 = 2_000_000;

/// The oracle's verdict on one case.
#[derive(Clone, Debug)]
pub struct CaseVerdict {
    /// Seed of the case this verdict describes.
    pub seed: u64,
    /// Structural fingerprint of the case.
    pub signature: String,
    /// Backend/permutation legs that ran to completion.
    pub legs: usize,
    /// Whether the compiled static-schedule backend declined this case
    /// (expected for merge-carrying graphs — the reject reason was
    /// cross-checked against the lint verdict, so this is a skip, not a
    /// failure).
    pub compiled_rejected: bool,
    /// Human-readable disagreement descriptions; empty means conforming.
    pub failures: Vec<String>,
}

impl CaseVerdict {
    /// Whether every leg agreed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One case under test: its graph, checked once, and the kernel library
/// every leg instantiates.
struct Subject<'a> {
    case: &'a GeneratedCase,
    checked: CheckedGraph<'a>,
    lib: KernelLibrary,
}

/// Schedule policy for the bounds flood leg: poll any ready task that is
/// *not* demoted first; the demoted tasks (the flood target's consumers
/// and sink) only run when nothing else can — the adversarial schedule the
/// static occupancy analysis models by freezing those consumers.
struct DemoteLast {
    demoted: std::collections::HashSet<usize>,
}

impl SchedulePolicy for DemoteLast {
    fn pick(&mut self, ready: &[usize]) -> usize {
        ready
            .iter()
            .position(|id| !self.demoted.contains(id))
            .unwrap_or(0)
    }
}

/// Derive the i-th schedule-permutation seed for a case (splitmix-style, so
/// neighbouring case seeds do not share permutation streams).
fn perm_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Run the full differential check on one generated case, with
/// `schedules` seeded ready-list permutations. A case whose graph lints
/// with Error findings fails before any leg runs.
pub fn check_case(case: &GeneratedCase, schedules: u32) -> CaseVerdict {
    let mut failures = Vec::new();
    let mut legs = 0usize;
    let mut compiled_rejected = false;
    let verdict = |legs, compiled_rejected, failures| CaseVerdict {
        seed: case.seed,
        signature: case.signature.clone(),
        legs,
        compiled_rejected,
        failures,
    };

    // Static verification before any leg runs: a generated graph with
    // Error-severity lint findings would hang or misbehave on every
    // backend, so the verdict fails fast with the lint report instead of a
    // wall of backend disagreements. The compiled legs reuse the report.
    let cfg = cgsim_lint::LintConfig::default();
    let checked = CheckedGraph::new(&case.graph);
    let lint = match &checked {
        Ok(checked) => cgsim_lint::lint_checked(checked, &cfg),
        Err(_) => cgsim_lint::lint_graph(&case.graph, &cfg),
    };
    let checked = match checked {
        Ok(checked) if !lint.has_errors() => checked,
        _ => {
            let report = lint.render_human(&case.graph);
            failures.push(format!(
                "cgsim-lint rejected the generated graph before any leg ran:\n{report}"
            ));
            failures.push(format!(
                "reproduce with: {}",
                repro::repro_command(case.seed)
            ));
            return verdict(legs, compiled_rejected, failures);
        }
    };
    let subject = &Subject {
        case,
        checked,
        lib: kernels::library(),
    };

    // Static occupancy bounds for this case's concrete feed lengths —
    // merge-free cases only, the class the flood analysis is proven sound
    // for. When present they are armed as runtime bounds checks on every
    // cooperative leg below (any observed occupancy above its bound is a
    // soundness failure), and the flood leg validates tightness.
    let topo = subject.checked.topology();
    let has_merge =
        (0..case.graph.connectors.len()).any(|ci| topo.writers(ConnectorId::new(ci)) > 1);
    let feed_lens: Vec<u64> = case.feeds.iter().map(|f| f.len() as u64).collect();
    let bounds = (!has_merge)
        .then(|| {
            let lint_cfg = RuntimeConfig::default().lint_config();
            cgsim_lint::occupancy_bounds(&subject.checked, &lint_cfg, &feed_lens)
        })
        .flatten();
    let bounds_ref = bounds.as_deref();

    // Reference leg: cooperative executor, default FIFO schedule.
    let Some(reference) = run_cooperative(
        subject,
        &coop_spec("coop-fifo", Schedule::Fifo),
        None,
        bounds_ref,
        &mut failures,
    ) else {
        return verdict(legs, compiled_rejected, failures);
    };
    legs += 1;
    for (oi, spec) in case.outputs.iter().enumerate() {
        if reference[oi].len() as u64 != spec.len {
            failures.push(format!(
                "coop-fifo: output {oi} delivered {} elements, generator predicted {}",
                reference[oi].len(),
                spec.len
            ));
        }
    }

    if let Some(got) = run_cooperative(
        subject,
        &coop_spec("coop-lifo", Schedule::Lifo),
        None,
        bounds_ref,
        &mut failures,
    ) {
        legs += 1;
        compare_outputs("coop-lifo", &got, &reference, case, &mut failures);
    }

    // Same FIFO schedule as the reference, varying only the profiling
    // mode; both must be bit-identical to the reference leg. (Mutex
    // channels come with the threaded leg.)
    let backend_specs = [
        coop_spec("coop-prof-off", Schedule::Fifo).profiling(Profiling::Off),
        coop_spec("coop-prof-full", Schedule::Fifo).profiling(Profiling::Full),
    ];
    for spec in &backend_specs {
        if let Some(got) = run_cooperative(subject, spec, None, bounds_ref, &mut failures) {
            legs += 1;
            compare_outputs(spec.label(), &got, &reference, case, &mut failures);
        }
    }

    // The compiled static-schedule backend: two `Compiled` legs, one
    // compiling its own plan at launch, one handed the plan compiled
    // here — exactly the plan-reuse path `cgsim-serve` and `cgsim-pool`
    // sweeps take.
    match compile_linted(&subject.checked, &lint) {
        Ok(plan) => {
            for (label, plan) in [("compiled", None), ("compiled-reuse", Some(plan))] {
                if let Some(got) = run_compiled(subject, plan, label, &mut failures) {
                    legs += 1;
                    compare_outputs(label, &got, &reference, case, &mut failures);
                }
            }
        }
        Err(err) => {
            compiled_rejected = true;
            // A reject is only legitimate when the compiler's stated
            // reason matches the static verifier's independent verdict
            // on the same graph (merge fan-in ⇒ CG043, imbalance ⇒
            // CG030, cycle ⇒ CG020).
            match err.reject_reason().and_then(|r| r.lint_code()) {
                Some(code) => {
                    if !lint.codes().contains(code) {
                        failures.push(format!(
                            "compiled: rejected claiming {code}, but lint does not \
                             report that code: {err}"
                        ));
                    }
                }
                None => failures.push(format!("compiled: unexplained reject: {err}")),
            }
        }
    }

    for i in 0..schedules {
        let s = perm_seed(case.seed, i as u64);
        let label = format!("coop-seeded({s:#018x})");
        if let Some(got) = run_cooperative(
            subject,
            &coop_spec(label.clone(), Schedule::Seeded(s)),
            None,
            bounds_ref,
            &mut failures,
        ) {
            legs += 1;
            compare_outputs(&label, &got, &reference, case, &mut failures);
        }
    }

    for i in 0..FAULT_ROUNDS {
        let s = perm_seed(case.seed, 1_000 + i as u64);
        let label = format!("coop-faulty({s:#018x})");
        // No bounds check here: fault injection replays sends, so total
        // pushes — and hence peak occupancy — can exceed the fault-free
        // workload figure the static bound rests on.
        if let Some(got) = run_cooperative(
            subject,
            &coop_spec(label.clone(), Schedule::Seeded(s)).faults(FaultPlan::new(s, 35)),
            None,
            None,
            &mut failures,
        ) {
            legs += 1;
            compare_outputs(&label, &got, &reference, case, &mut failures);
        }
    }

    // Close sink 0 after half its stream; the graph must still drain and
    // every other output must be unaffected.
    let limit = (case.outputs[0].len / 2).max(1) as usize;
    let label = "coop-early-close";
    // No bounds check here: when the bounded sink closes early, channel
    // occupancy is measured relative to the remaining open consumers, a
    // different quantity than the all-consumers-open one the static
    // analysis bounds.
    if let Some(got) = run_cooperative(
        subject,
        &coop_spec(label, Schedule::Fifo),
        Some(limit),
        None,
        &mut failures,
    ) {
        legs += 1;
        if got[0].len() != limit {
            failures.push(format!(
                "{label}: bounded sink collected {} elements, limit was {limit}",
                got[0].len()
            ));
        } else if case.outputs[0].det && got[0] != reference[0][..limit] {
            failures.push(format!(
                "{label}: bounded sink prefix diverged from reference"
            ));
        }
        for oi in 1..case.outputs.len() {
            compare_one(label, oi, &got[oi], &reference[oi], case, &mut failures);
        }
    }

    if let Some(bounds) = bounds_ref {
        // Flood leg: starve the consumers of the highest-bound connector so
        // it fills to its worst case, then check the static bound from both
        // sides — never exceeded (soundness, via the armed runtime check on
        // every channel) and within 2× of the occupancy the flood actually
        // reached (tightness: a sound-but-useless bound fails here).
        //
        // The tightness side is only decidable for a target whose kernel
        // consumers read nothing but the target: demoting such consumers
        // cannot wedge any other channel, so upstream delivers the full
        // workload (capacity permitting) and the flood provably reaches the
        // bound. A consumer with side inputs couples the flood to its
        // siblings — a fork feeding a demoted zip wedges the shared
        // producer — making the achievable peak genuinely lower than the
        // schedule-independent bound. Prefer an isolated-consumer target
        // (highest bound among them); otherwise run the leg for its
        // soundness and schedule perturbation but skip the tightness claim.
        let graph = &case.graph;
        let nk = graph.kernels.len();
        let n_inputs = graph.inputs.len();
        let isolated = |ci: usize| {
            topo.consumers(ConnectorId::new(ci)).iter().all(|e| {
                graph.kernels[e.kernel.index()].ports.iter().all(|p| {
                    p.dir != cgsim_core::PortDir::In
                        || p.connector.index() == ci
                        || graph.connectors[p.connector.index()].kind == PortKind::RuntimeParam
                })
            })
        };
        let candidates: Vec<usize> = (0..graph.connectors.len())
            .filter(|&ci| graph.connectors[ci].kind == PortKind::Stream)
            .filter(|&ci| topo.readers(ConnectorId::new(ci)) > 0)
            .collect();
        let tight_target = candidates
            .iter()
            .copied()
            .filter(|&ci| isolated(ci))
            .max_by_key(|&ci| bounds[ci]);
        let target = tight_target.or_else(|| candidates.into_iter().max_by_key(|&ci| bounds[ci]));
        if let Some(target) = target {
            let check_tightness = tight_target == Some(target);
            let cid = ConnectorId::new(target);
            // Task-id layout in run_cooperative: kernels spawn first in
            // graph order (id == ki), then one source per input, then one
            // sink per output.
            let mut demoted = std::collections::HashSet::new();
            for e in topo.consumers(cid) {
                demoted.insert(e.kernel.index());
            }
            for (oi, c) in graph.outputs.iter().enumerate() {
                if c.index() == target {
                    demoted.insert(nk + n_inputs + oi);
                }
            }
            let label = "coop-flood";
            if let Some((got, report)) = run_cooperative_report(
                subject,
                &coop_spec(label, Schedule::Fifo),
                None,
                Some(bounds),
                Some(Box::new(DemoteLast { demoted })),
                None,
                &mut failures,
            ) {
                legs += 1;
                compare_outputs(label, &got, &reference, case, &mut failures);
                if check_tightness {
                    let name = graph.connector_name(target);
                    match report.channels.iter().find(|(n, _)| n == &name) {
                        Some((_, stats)) => {
                            if bounds[target] > stats.max_occupancy.saturating_mul(2) {
                                failures.push(format!(
                                    "{label}: channel {name}: static bound {} is more than 2x \
                                     the flooded occupancy {}",
                                    bounds[target], stats.max_occupancy
                                ));
                            }
                        }
                        None => failures.push(format!(
                            "{label}: flood target channel {name} missing from the report"
                        )),
                    }
                }
            }
        }
    }

    if let Some(got) = run_threaded(subject, "threaded", &mut failures) {
        legs += 1;
        compare_outputs("threaded", &got, &reference, case, &mut failures);
    }

    legs += 1;
    run_aiesim(case, "aie-sim", &mut failures);
    verdict(legs, compiled_rejected, failures)
}

/// Compare every output of one leg against the reference leg.
fn compare_outputs(
    label: &str,
    got: &[Vec<i64>],
    reference: &[Vec<i64>],
    case: &GeneratedCase,
    failures: &mut Vec<String>,
) {
    for oi in 0..case.outputs.len() {
        compare_one(label, oi, &got[oi], &reference[oi], case, failures);
    }
}

/// Compare one output stream: exact for deterministic wires, as a multiset
/// for merge-fed (interleaving-dependent) ones.
fn compare_one(
    label: &str,
    oi: usize,
    got: &[i64],
    reference: &[i64],
    case: &GeneratedCase,
    failures: &mut Vec<String>,
) {
    if case.outputs[oi].det {
        if got != reference {
            failures.push(format!(
                "{label}: output {oi} diverged from reference ({} vs {} elements)",
                got.len(),
                reference.len()
            ));
        }
    } else {
        let mut g = got.to_vec();
        let mut r = reference.to_vec();
        g.sort_unstable();
        r.sort_unstable();
        if g != r {
            failures.push(format!(
                "{label}: output {oi} multiset diverged from reference ({} vs {} elements)",
                got.len(),
                reference.len()
            ));
        }
    }
}

/// The conservation law: once a graph drains, every element pushed into a
/// channel has been popped by every reader (kernel consumers plus the bound
/// sink). With an early-closing sink only the inequality direction holds.
fn check_conservation(
    checked: &CheckedGraph,
    channels: &[(String, ChannelStats)],
    strict: bool,
    label: &str,
    failures: &mut Vec<String>,
) {
    let (graph, topo) = (checked.graph(), checked.topology());
    let by_name: HashMap<String, usize> = (0..graph.connectors.len())
        .map(|ci| (graph.connector_name(ci), ci))
        .collect();
    for (name, stats) in channels {
        let Some(&ci) = by_name.get(name) else {
            failures.push(format!("{label}: report names unknown channel {name}"));
            continue;
        };
        let readers = topo.readers(ConnectorId::new(ci)) as u64;
        let expected = stats.pushes * readers;
        if strict && stats.pops != expected {
            failures.push(format!(
                "{label}: channel {name}: {} pops for {} pushes x {readers} readers",
                stats.pops, stats.pushes
            ));
        } else if !strict && stats.pops > expected {
            failures.push(format!(
                "{label}: channel {name}: {} pops exceed {} pushes x {readers} readers",
                stats.pops, stats.pushes
            ));
        }
    }
}

/// Build the launch spec for one cooperative oracle leg: sampled profiling
/// under the given schedule, with the oracle's poll budget applied. Legs
/// that vary the profiling mode chain the builder call onto the returned
/// spec.
fn coop_spec(label: impl Into<String>, schedule: Schedule) -> RunSpec {
    RunSpec::for_graph(label)
        .max_polls(MAX_POLLS)
        .schedule(schedule)
}

/// One cooperative-executor leg. Returns the collected sink outputs, or
/// `None` when the run could not even be set up (already reported). When
/// `bounds` is given, the runtime's bounds-check mode is armed with it and
/// any recorded violation is a failure.
fn run_cooperative(
    s: &Subject,
    spec: &RunSpec,
    bound_limit: Option<usize>,
    bounds: Option<&[u64]>,
    failures: &mut Vec<String>,
) -> Option<Vec<Vec<i64>>> {
    run_cooperative_report(s, spec, bound_limit, bounds, None, None, failures)
        .map(|(outputs, _)| outputs)
}

/// [`run_cooperative`] returning the full [`RunReport`] too, with an
/// optional custom schedule policy (the flood leg's demotion schedule) or
/// cached plan to hand a `Compiled` spec (the compiled legs).
fn run_cooperative_report(
    s: &Subject,
    spec: &RunSpec,
    bound_limit: Option<usize>,
    bounds: Option<&[u64]>,
    policy: Option<Box<dyn SchedulePolicy>>,
    plan: Option<CompiledPlan>,
    failures: &mut Vec<String>,
) -> Option<(Vec<Vec<i64>>, RunReport)> {
    let Subject { case, checked, lib } = s;
    let label = spec.label();
    // Traced, so the invariant pass below checks the event stream as well
    // as the channel-counter conservation law.
    let launch = Launch {
        plan,
        tracer: Tracer::enabled(),
    };
    let mut ctx = match RuntimeContext::launch(&case.graph, lib, spec, launch) {
        Ok(ctx) => ctx,
        Err(e) => {
            failures.push(format!("{label}: context construction failed: {e}"));
            return None;
        }
    };
    if let Some(bounds) = bounds {
        ctx.set_bounds_check(bounds.to_vec());
    }
    if let Some(policy) = policy {
        ctx.set_schedule_policy(policy);
    }
    for (i, feed) in case.feeds.iter().enumerate() {
        if let Err(e) = ctx.feed(i, feed.clone()) {
            failures.push(format!("{label}: feed {i} failed: {e}"));
            return None;
        }
    }
    let mut sinks = Vec::with_capacity(case.graph.outputs.len());
    for oi in 0..case.graph.outputs.len() {
        let handle = match bound_limit {
            Some(limit) if oi == 0 => ctx.collect_bounded::<i64>(oi, limit),
            _ => ctx.collect::<i64>(oi),
        };
        match handle {
            Ok(h) => sinks.push(h),
            Err(e) => {
                failures.push(format!("{label}: collect {oi} failed: {e}"));
                return None;
            }
        }
    }
    let report = match ctx.run() {
        Ok(r) => r,
        Err(e) => {
            failures.push(format!("{label}: run failed: {e}"));
            return None;
        }
    };
    if !report.drained() {
        failures.push(format!(
            "{label}: not drained after {} polls; stalled: {:?}",
            report.exec.polls, report.stalled
        ));
    }
    check_conservation(
        checked,
        &report.channels,
        bound_limit.is_none(),
        label,
        failures,
    );
    for v in &report.bounds_violations {
        failures.push(format!(
            "{label}: channel {}: observed occupancy {} exceeded the static bound {}",
            v.channel, v.observed, v.bound
        ));
    }
    for msg in invariants::check(&report.trace) {
        failures.push(format!("{label}: trace invariant violated: {msg}"));
    }
    Some((sinks.iter().map(|h| h.take()).collect(), report))
}

/// One compiled-backend leg: the cooperative leg runner under a `Compiled`
/// spec, following `plan` or, without one, the plan its launch compiles —
/// so it gets every check those legs get, plus the plan's own guarantee:
/// no channel ever holds more than its planned capacity (read from the
/// leg's trace), and a channel whose whole traffic fits that capacity runs
/// in one round, so none of its writes blocks.
fn run_compiled(
    s: &Subject,
    plan: Option<CompiledPlan>,
    label: &str,
    failures: &mut Vec<String>,
) -> Option<Vec<Vec<i64>>> {
    let spec = coop_spec(label, Schedule::Fifo).backend(Backend::Compiled);
    let (outputs, report) = run_cooperative_report(s, &spec, None, None, None, plan, failures)?;
    for (name, stats) in &report.channels {
        let Some(info) = report.trace.channels.iter().find(|c| &c.name == name) else {
            failures.push(format!("{label}: channel {name}: missing from the trace"));
            continue;
        };
        if stats.max_occupancy > info.capacity {
            failures.push(format!(
                "{label}: channel {name}: held {} elements, above its planned \
                 capacity {}",
                stats.max_occupancy, info.capacity
            ));
        }
        if stats.pushes <= info.capacity && stats.blocked_writes != 0 {
            failures.push(format!(
                "{label}: channel {name}: {} blocked writes though its {} \
                 pushes fit the planned capacity {}",
                stats.blocked_writes, stats.pushes, info.capacity
            ));
        }
    }
    Some(outputs)
}

/// The thread-per-kernel leg (the paper's x86sim counterpart).
fn run_threaded(s: &Subject, label: &str, failures: &mut Vec<String>) -> Option<Vec<Vec<i64>>> {
    let Subject { case, checked, lib } = s;
    let spec = RunSpec::for_graph(label).backend(Backend::Threaded);
    let mut ctx = match RuntimeContext::from_spec(&case.graph, lib, &spec) {
        Ok(ctx) => ctx,
        Err(e) => {
            failures.push(format!("{label}: context construction failed: {e}"));
            return None;
        }
    };
    for (i, feed) in case.feeds.iter().enumerate() {
        if let Err(e) = ctx.feed(i, feed.clone()) {
            failures.push(format!("{label}: feed {i} failed: {e}"));
            return None;
        }
    }
    let mut sinks = Vec::with_capacity(case.graph.outputs.len());
    for oi in 0..case.graph.outputs.len() {
        match ctx.collect::<i64>(oi) {
            Ok(h) => sinks.push(h),
            Err(e) => {
                failures.push(format!("{label}: collect {oi} failed: {e}"));
                return None;
            }
        }
    }
    let report = match ctx.run() {
        Ok(r) => r,
        Err(e) => {
            failures.push(format!("{label}: run failed: {e}"));
            return None;
        }
    };
    check_conservation(checked, &report.channels, true, label, failures);
    Some(sinks.iter().map(|h| h.take()).collect())
}

/// The DES leg: the cycle-approximate simulation has no data values, so the
/// cross-check is structural — every kernel fires exactly the predicted
/// number of iterations and every sink completes its single block — and
/// the cycle-stepped run of the same case must trace identically.
fn run_aiesim(case: &GeneratedCase, label: &str, failures: &mut Vec<String>) {
    let stream = PortTraffic {
        elems_per_iter: 1,
        elem_bytes: 8,
        kind: PortKind::Stream,
    };
    let profiles: HashMap<String, KernelCostProfile> = PALETTE_SHAPES
        .iter()
        .map(|&(kind, n_in, n_out)| {
            (
                kind.to_owned(),
                KernelCostProfile::measured(
                    kind,
                    OpCounts::default(),
                    vec![stream; n_in],
                    vec![stream; n_out],
                ),
            )
        })
        .collect();
    let feed_len = case.feeds[0].len() as u64;
    let workload = WorkloadSpec {
        blocks: 1,
        elems_per_block_in: vec![feed_len; case.graph.inputs.len()],
        elems_per_block_out: case.outputs.iter().map(|o| o.len).collect(),
    };
    match simulate_graph(
        &case.graph,
        &profiles,
        &SimConfig::hand_optimized(),
        &workload,
    ) {
        Ok(t) => {
            if t.trace.block_times.len() != case.graph.outputs.len() {
                failures.push(format!(
                    "{label}: {} sink blocks completed, expected {}",
                    t.trace.block_times.len(),
                    case.graph.outputs.len()
                ));
            }
            for (ki, (instance, node)) in t.kernel_nodes.iter().enumerate() {
                let iters = t.trace.iterations_of(*node).len() as u64;
                if iters != case.kernel_iters[ki] {
                    failures.push(format!(
                        "{label}: kernel {instance} ran {iters} DES iterations, expected {}",
                        case.kernel_iters[ki]
                    ));
                }
            }
            // Cycle stepping adds the scoreboard and nothing else: the
            // same case must trace identically with the clock running.
            let stepped_config = SimConfig {
                cycle_stepping: true,
                ..SimConfig::hand_optimized()
            };
            match simulate_graph(&case.graph, &profiles, &stepped_config, &workload) {
                Ok(stepped) => {
                    let (s, e) = (&stepped.trace, &t.trace);
                    if (&s.entries, &s.block_times, s.end_time, &s.stalls)
                        != (&e.entries, &e.block_times, e.end_time, &e.stalls)
                    {
                        failures.push(format!(
                            "{label}: cycle-stepped trace differs from the event-driven one \
                             (ends at {} against {}, stalls {:?} against {:?})",
                            s.end_time, e.end_time, s.stalls, e.stalls
                        ));
                    }
                }
                Err(e) => failures.push(format!("{label}: cycle-stepped simulation failed: {e}")),
            }
        }
        Err(e) => failures.push(format!("{label}: simulation failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn default_oracle_passes_on_generated_cases() {
        for seed in 0..12 {
            let case = generate(seed);
            let verdict = check_case(&case, SCHEDULES);
            assert!(
                verdict.ok(),
                "seed {seed} ({}): {:#?}",
                verdict.signature,
                verdict.failures
            );
        }
    }

    #[test]
    fn verdict_counts_every_leg() {
        let case = generate(3);
        let verdict = check_case(&case, SCHEDULES);
        assert!(verdict.ok(), "{:#?}", verdict.failures);
        let expected = 1 // fifo
            + 1 // lifo
            + 2 // backend legs: profiling off, profiling full
            + if verdict.compiled_rejected { 0 } else { 2 } // compiled + compiled-reuse
            + SCHEDULES as usize
            + FAULT_ROUNDS as usize
            + 1 // early close
            // bounds flood leg: merge-free cases only — exactly the cases
            // the compiled backend accepts
            + if verdict.compiled_rejected { 0 } else { 1 }
            + 1 // threaded
            + 1; // aie-sim
        assert_eq!(verdict.legs, expected);
    }

    #[test]
    fn compiled_rejects_exactly_the_merge_cases() {
        // The static-schedulability boundary on generated cases: every
        // graph is a rate-balanced DAG, so the compiled backend must accept
        // a case iff it is merge-free — and every reject must have been
        // cross-checked against the lint verdict inside check_case (a
        // mismatch lands in `failures`).
        let mut rejects = 0usize;
        for seed in 0..24u64 {
            let case = generate(seed);
            let has_merge = case.graph.stats().merges > 0;
            let verdict = check_case(&case, SCHEDULES);
            assert!(verdict.ok(), "seed {seed}: {:#?}", verdict.failures);
            assert_eq!(
                verdict.compiled_rejected, has_merge,
                "seed {seed} ({}): merge presence and compiled reject disagree",
                verdict.signature
            );
            rejects += usize::from(verdict.compiled_rejected);
        }
        // The generator's 15% merge probability must actually exercise both
        // sides of the boundary in this window.
        assert!(rejects > 0, "no merge case in seeds 0..24");
        assert!(rejects < 24, "every case was a merge case");
    }

    #[test]
    fn permutation_seeds_are_stable_and_distinct() {
        assert_eq!(perm_seed(42, 0), perm_seed(42, 0));
        let seeds: std::collections::BTreeSet<u64> = (0..16).map(|i| perm_seed(42, i)).collect();
        assert_eq!(seeds.len(), 16);
    }
}
