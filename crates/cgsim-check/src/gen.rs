//! Seeded random graph generator.
//!
//! Emits valid [`FlatGraph`]s spanning the attribute space the runtime has
//! to handle: broadcast fan-out (one connector, many readers), merge fan-in
//! (many producers, one connector), zip convergence, channel capacities
//! down to 1, multiple global inputs and outputs, and mixed execution
//! realms (via the palette in [`crate::kernels`]). The same seed always
//! produces the same graph and the same input streams, so any failing case
//! is replayable from its seed alone.
//!
//! Two structural rules keep the differential oracle sound:
//!
//! * **Merges poison determinism, zips stay clean.** A connector with more
//!   than one producer carries a schedule-dependent *interleaving*; only
//!   its element multiset is schedule-invariant. The generator tracks a
//!   per-wire `det` flag and never feeds a non-deterministic wire into a
//!   zip kernel (whose output would then not even be multiset-stable), so
//!   every sink stays comparable: element-exact when `det`, multiset
//!   (sorted) otherwise.
//! * **All feeds share one length.** Every deterministic wire then carries
//!   exactly `feed_len` elements, which keeps the cycle-approximate DES leg
//!   consistent: zip tiles there consume one element per input per
//!   iteration and would starve forever on unequal streams.
//!
//! Cycles are impossible by construction: merging into an existing wire is
//! only allowed when that wire is not an ancestor of the merging kernel
//! (tracked with per-wire ancestor bitsets), so every generated graph is a
//! DAG and drains to quiescence under any schedule.

use crate::kernels;
use cgsim_core::{Connector, FlatGraph, GraphBuilder, PortSettings};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

// Generator settings: graphs of 2–14 kernels with a healthy rate of
// broadcasts, merges and tight channels.

/// Global inputs per graph, sampled from `1..=MAX_INPUTS`.
const MAX_INPUTS: usize = 3;
/// Kernel invocations, sampled from `MIN_STEPS..=MAX_STEPS` (plus at most
/// one forced consumer per otherwise-dangling global input).
const MIN_STEPS: usize = 2;
const MAX_STEPS: usize = 10;
/// Feed length bounds (inclusive); all inputs share one sampled length.
const MIN_LEN: u64 = 4;
const MAX_LEN: u64 = 24;
/// Percent chance a wire gets an explicit small depth (possibly 1).
const TIGHT_DEPTH_PCT: u8 = 35;
/// Percent chance an elementwise kernel merges into an existing wire
/// instead of creating a new one.
const MERGE_PCT: u8 = 15;
/// Percent chance a kernel input is taken from an already-consumed wire
/// (creating a broadcast) rather than an unconsumed one.
const BROADCAST_PCT: u8 = 25;

/// What the oracle needs to know about one global output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutputSpec {
    /// Elements this output will deliver in a full run.
    pub len: u64,
    /// Whether element *order* is schedule-independent (no merge upstream).
    /// Non-deterministic outputs are compared as multisets.
    pub det: bool,
}

/// One generated conformance case: graph, inputs, and the facts the oracle
/// checks against.
#[derive(Clone, Debug)]
pub struct GeneratedCase {
    /// The seed that produced (and reproduces) this case.
    pub seed: u64,
    /// The generated graph.
    pub graph: FlatGraph,
    /// Input stream per global input (all the same length).
    pub feeds: Vec<Vec<i64>>,
    /// Per-output expectations, positionally aligned with `graph.outputs`.
    pub outputs: Vec<OutputSpec>,
    /// Expected kernel iterations (elements processed), aligned with
    /// `graph.kernels` — cross-checked against the DES iteration trace.
    pub kernel_iters: Vec<u64>,
    /// Compact structural fingerprint (stable across runs of one seed).
    pub signature: String,
}

/// FNV-1a over a string — used for the case fingerprint.
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Book-keeping for one connector during generation.
struct Wire {
    typed: Connector<i64>,
    len: u64,
    det: bool,
    consumers: u32,
    is_input: bool,
    /// Bitmask of wire indices that are ancestors of this wire.
    ancestors: u64,
}

/// The kernel kinds the step loop draws from (elementwise kinds double as
/// the forced consumers for dangling inputs).
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Add7,
    Mul3,
    Mix,
    Neg,
    ZipAdd,
    ZipMax,
    Fork,
}

/// Weighted draw pool: zips and forks boosted so fan-in/fan-out stay common.
const KIND_POOL: [Kind; 9] = [
    Kind::Add7,
    Kind::Mul3,
    Kind::Mix,
    Kind::Neg,
    Kind::ZipAdd,
    Kind::ZipAdd,
    Kind::ZipMax,
    Kind::Fork,
    Kind::Fork,
];

/// Generate the case identified by `seed`.
pub fn generate(seed: u64) -> GeneratedCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_inputs = rng.random_range(1usize..MAX_INPUTS + 1);
    let feed_len = rng.random_range(MIN_LEN..MAX_LEN + 1);
    let steps = rng.random_range(MIN_STEPS..MAX_STEPS + 1);

    let feeds: Vec<Vec<i64>> = (0..n_inputs)
        .map(|_| {
            (0..feed_len)
                .map(|_| rng.random_range(-1_000_000i64..1_000_000))
                .collect()
        })
        .collect();

    let mut outputs: Vec<OutputSpec> = Vec::new();
    let mut kernel_iters: Vec<u64> = Vec::new();

    let graph = GraphBuilder::build(format!("fuzz_{seed:016x}"), |g| {
        let mut wires: Vec<Wire> = Vec::new();

        for i in 0..n_inputs {
            let typed = g.input::<i64>(format!("in{i}"));
            maybe_tighten(g, &mut rng, &typed);
            wires.push(Wire {
                typed,
                len: feed_len,
                det: true,
                consumers: 0,
                is_input: true,
                ancestors: 0,
            });
        }

        for _ in 0..steps {
            let kind = *pick(&mut rng, &KIND_POOL);
            step(g, &mut rng, &mut wires, kind, &mut kernel_iters)?;
        }

        // Every global input must reach a kernel: a pure input→output
        // passthrough would have no kernel endpoint (and no DES node), so
        // dangling inputs get a forced elementwise consumer.
        for wi in 0..wires.len() {
            if wires[wi].is_input && wires[wi].consumers == 0 {
                let out = g.wire::<i64>();
                grow_elementwise_into(g, &mut wires, wi, Kind::Add7, out, &mut kernel_iters)?;
            }
        }

        // Unconsumed wires become global outputs; occasionally a consumed
        // wire is exported too (a broadcast straight into a sink).
        for w in wires.iter() {
            if w.consumers == 0 {
                g.output(&w.typed);
                outputs.push(OutputSpec {
                    len: w.len,
                    det: w.det,
                });
            }
        }
        if rng.random_range(0u8..100) < 20 {
            if let Some(w) = wires.iter().rev().find(|w| w.consumers > 0 && !w.is_input) {
                g.output(&w.typed);
                outputs.push(OutputSpec {
                    len: w.len,
                    det: w.det,
                });
            }
        }
        Ok(())
    })
    .expect("generated graph must validate");

    let stats = graph.stats();
    let fingerprint = fnv1a(&format!("{graph:?}/{feeds:?}"));
    let signature = format!(
        "k{}w{}i{}o{}b{}m{}L{}-{fingerprint:016x}",
        stats.kernels,
        stats.connectors,
        stats.inputs,
        stats.outputs,
        stats.broadcasts,
        stats.merges,
        feed_len,
    );

    GeneratedCase {
        seed,
        graph,
        feeds,
        outputs,
        kernel_iters,
        signature,
    }
}

/// Uniform pick from a non-empty slice.
fn pick<'a, T>(rng: &mut StdRng, options: &'a [T]) -> &'a T {
    &options[rng.random_range(0usize..options.len())]
}

/// Pick an input wire index: prefers unconsumed wires (keeps the graph
/// connected), sometimes deliberately re-reads a consumed one — which
/// creates a broadcast. `need_det` restricts the pool to order-deterministic
/// wires (always non-empty: global inputs never lose determinism).
fn pick_input(rng: &mut StdRng, wires: &[Wire], need_det: bool) -> usize {
    let unconsumed: Vec<usize> = wires
        .iter()
        .enumerate()
        .filter(|(_, w)| w.consumers == 0 && (!need_det || w.det))
        .map(|(i, _)| i)
        .collect();
    let all: Vec<usize> = wires
        .iter()
        .enumerate()
        .filter(|(_, w)| !need_det || w.det)
        .map(|(i, _)| i)
        .collect();
    assert!(!all.is_empty(), "wire pool never empty");
    let broadcast = rng.random_range(0u8..100) < BROADCAST_PCT;
    if !unconsumed.is_empty() && !broadcast {
        *pick(rng, &unconsumed)
    } else {
        *pick(rng, &all)
    }
}

/// Add one kernel of `kind` to the graph, updating the wire table.
fn step(
    g: &mut GraphBuilder,
    rng: &mut StdRng,
    wires: &mut Vec<Wire>,
    kind: Kind,
    kernel_iters: &mut Vec<u64>,
) -> cgsim_core::error::Result<()> {
    match kind {
        Kind::Add7 | Kind::Mul3 | Kind::Mix | Kind::Neg => {
            let wi = pick_input(rng, wires, false);
            // Merge: write into an existing producer-owned wire instead of
            // a fresh one. Legal targets have no consumers yet (so no
            // downstream determinism assumption is already baked in), are
            // not global inputs, and are not ancestors of this kernel's
            // input (no cycles, no self-loop).
            let in_anc = wires[wi].ancestors | (1u64 << wi);
            let merge_target = if rng.random_range(0u8..100) < MERGE_PCT {
                wires
                    .iter()
                    .position(|t| t.consumers == 0 && !t.is_input)
                    .filter(|&ti| in_anc & (1u64 << ti) == 0)
            } else {
                None
            };
            match merge_target {
                Some(ti) => {
                    let (src, dst) = (wires[wi].typed, wires[ti].typed);
                    invoke_elementwise(g, kind, &src, &dst)?;
                    kernel_iters.push(wires[wi].len);
                    wires[wi].consumers += 1;
                    let add_len = wires[wi].len;
                    let t = &mut wires[ti];
                    t.len += add_len;
                    t.det = false;
                    t.ancestors |= in_anc;
                }
                None => {
                    let out = g.wire::<i64>();
                    maybe_tighten(g, rng, &out);
                    grow_elementwise_into(g, wires, wi, kind, out, kernel_iters)?;
                }
            }
        }
        Kind::ZipAdd | Kind::ZipMax => {
            // Zips only read deterministic wires (all of which carry the
            // shared feed length), so their output is deterministic too.
            let a = pick_input(rng, wires, true);
            let b = pick_input(rng, wires, true);
            let out = g.wire::<i64>();
            maybe_tighten(g, rng, &out);
            let (wa, wb) = (wires[a].typed, wires[b].typed);
            match kind {
                Kind::ZipAdd => kernels::ck_zip_add::invoke(g, &wa, &wb, &out)?,
                _ => kernels::ck_zip_max::invoke(g, &wa, &wb, &out)?,
            };
            let len = wires[a].len.min(wires[b].len);
            kernel_iters.push(len);
            wires[a].consumers += 1;
            wires[b].consumers += 1;
            let anc = wires[a].ancestors | wires[b].ancestors | (1u64 << a) | (1u64 << b);
            wires.push(Wire {
                typed: out,
                len,
                det: true,
                consumers: 0,
                is_input: false,
                ancestors: anc,
            });
        }
        Kind::Fork => {
            let wi = pick_input(rng, wires, false);
            let lo = g.wire::<i64>();
            let hi = g.wire::<i64>();
            maybe_tighten(g, rng, &lo);
            maybe_tighten(g, rng, &hi);
            kernels::ck_fork::invoke(g, &wires[wi].typed, &lo, &hi)?;
            kernel_iters.push(wires[wi].len);
            wires[wi].consumers += 1;
            let (len, det) = (wires[wi].len, wires[wi].det);
            let anc = wires[wi].ancestors | (1u64 << wi);
            for out in [lo, hi] {
                wires.push(Wire {
                    typed: out,
                    len,
                    det,
                    consumers: 0,
                    is_input: false,
                    ancestors: anc,
                });
            }
        }
    }
    Ok(())
}

/// Invoke an elementwise kernel reading wire `wi` into the fresh wire `out`.
fn grow_elementwise_into(
    g: &mut GraphBuilder,
    wires: &mut Vec<Wire>,
    wi: usize,
    kind: Kind,
    out: Connector<i64>,
    kernel_iters: &mut Vec<u64>,
) -> cgsim_core::error::Result<()> {
    invoke_elementwise(g, kind, &wires[wi].typed, &out)?;
    kernel_iters.push(wires[wi].len);
    wires[wi].consumers += 1;
    wires.push(Wire {
        typed: out,
        len: wires[wi].len,
        det: wires[wi].det,
        consumers: 0,
        is_input: false,
        ancestors: wires[wi].ancestors | (1u64 << wi),
    });
    Ok(())
}

fn invoke_elementwise(
    g: &mut GraphBuilder,
    kind: Kind,
    input: &Connector<i64>,
    out: &Connector<i64>,
) -> cgsim_core::error::Result<()> {
    match kind {
        Kind::Add7 => kernels::ck_add7::invoke(g, input, out)?,
        Kind::Mul3 => kernels::ck_mul3::invoke(g, input, out)?,
        Kind::Mix => kernels::ck_mix::invoke(g, input, out)?,
        Kind::Neg => kernels::ck_neg::invoke(g, input, out)?,
        _ => unreachable!("not an elementwise kind"),
    };
    Ok(())
}

/// Occasionally pin an explicit (often tiny) queue depth on a connector so
/// capacity-1 backpressure paths get continuous coverage.
fn maybe_tighten(g: &mut GraphBuilder, rng: &mut StdRng, c: &Connector<i64>) {
    if rng.random_range(0u8..100) < TIGHT_DEPTH_PCT {
        let depth = *pick(rng, &[1u32, 1, 2, 4, 8]);
        g.connector_settings(c, PortSettings::new().depth(depth));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for seed in 0..32 {
            let a = generate(seed);
            let b = generate(seed);
            assert_eq!(a.signature, b.signature, "seed {seed}");
            assert_eq!(a.feeds, b.feeds, "seed {seed}");
            assert_eq!(a.graph, b.graph, "seed {seed}");
        }
    }

    #[test]
    fn generated_graphs_validate_and_have_io() {
        for seed in 0..64 {
            let case = generate(seed);
            case.graph.validate().expect("must validate");
            assert!(!case.graph.inputs.is_empty());
            assert!(!case.graph.outputs.is_empty());
            assert_eq!(case.outputs.len(), case.graph.outputs.len());
            assert_eq!(case.kernel_iters.len(), case.graph.kernels.len());
        }
    }

    #[test]
    fn attribute_space_is_actually_spanned() {
        let mut broadcasts = 0usize;
        let mut merges = 0usize;
        let mut tight = 0usize;
        let mut multi_in = 0usize;
        let mut multi_out = 0usize;
        let mut realms = std::collections::BTreeSet::new();
        for seed in 0..200 {
            let case = generate(seed);
            let stats = case.graph.stats();
            broadcasts += usize::from(stats.broadcasts > 0);
            merges += usize::from(stats.merges > 0);
            multi_in += usize::from(stats.inputs > 1);
            multi_out += usize::from(stats.outputs > 1);
            tight += usize::from(case.graph.connectors.iter().any(|c| c.settings.depth == 1));
            realms.extend(case.graph.realms());
        }
        assert!(broadcasts > 20, "broadcast coverage too low: {broadcasts}");
        assert!(merges > 10, "merge coverage too low: {merges}");
        assert!(tight > 20, "capacity-1 coverage too low: {tight}");
        assert!(multi_in > 30, "multi-input coverage too low: {multi_in}");
        assert!(multi_out > 30, "multi-output coverage too low: {multi_out}");
        assert_eq!(realms.len(), 3, "realm coverage too low: {realms:?}");
    }

    #[test]
    fn deterministic_wires_all_carry_feed_len() {
        // The invariant the DES leg relies on: every det output has exactly
        // the shared feed length.
        for seed in 0..64 {
            let case = generate(seed);
            let feed_len = case.feeds[0].len() as u64;
            for spec in case.outputs.iter().filter(|o| o.det) {
                assert_eq!(spec.len, feed_len, "seed {seed}");
            }
        }
    }
}
