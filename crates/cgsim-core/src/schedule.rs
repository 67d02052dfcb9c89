//! Static-schedule intermediate representation.
//!
//! A graph that passes the SDF rate-balance check (lint code `CG030`) has a
//! *periodic* execution: a minimal integer repetition count per kernel (the
//! firing vector) after which every channel returns to its starting fill.
//! This module holds the types that carry that knowledge between the layers
//! that produce and consume it:
//!
//! * [`Rational`] — exact firing-ratio arithmetic, shared by the lint rate
//!   pass (which propagates per-kernel ratios) and the schedule compiler
//!   (so the two never drift apart on rounding).
//! * [`FiringVector`] — the normalized integer repetition counts.
//! * [`StaticSchedule`] — one compiled period: a topological firing order
//!   with per-kernel repetition counts, the serializable artifact committed
//!   as golden files and followed by the executor of a `Compiled` run.
//! * [`GraphBounds`] — per-connector period traffic and capacities plus
//!   latency and throughput bounds, computed once by the lint bounds pass.
//!
//! The types are plain data with `serde` derives; all policy (what is
//! statically schedulable, how buffers are sized at instantiation) lives in
//! `cgsim-lint` and the schedule compiler of `cgsim-runtime`.

use crate::flat::FlatGraph;
use crate::id::KernelId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A non-negative rational kept in lowest terms (`den` never 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rational {
    /// Numerator.
    pub num: u64,
    /// Denominator (always ≥ 1 after [`Rational::new`]).
    pub den: u64,
}

impl Rational {
    /// The multiplicative identity `1/1`.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Reduce `num/den` to lowest terms. `den` must be non-zero.
    pub fn new(num: u64, den: u64) -> Rational {
        debug_assert!(den != 0);
        let g = gcd(u128::from(num.max(1)), u128::from(den)) as u64;
        Rational {
            num: num / g,
            den: den / g,
        }
    }

    /// `self * (num/den)`, reduced.
    pub fn scale(self, num: u64, den: u64) -> Rational {
        Rational::new(self.num * num, self.den * den)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Least common multiple in u128 (callers clamp on conversion back).
fn lcm128(a: u128, b: u128) -> u128 {
    if a == 0 || b == 0 {
        return a.max(b).max(1);
    }
    a / gcd(a, b) * b
}

/// Minimal integer firing counts per kernel, aligned with
/// `FlatGraph::kernels`.
///
/// Within each weakly-connected component the counts are the smallest
/// positive integers satisfying every balance equation
/// `f(producer) · rate(out) = f(consumer) · rate(in)`; unconnected
/// components are normalized independently.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FiringVector {
    /// Firings per kernel per period, indexed by kernel position.
    pub counts: Vec<u64>,
}

impl FiringVector {
    /// Normalize per-kernel rational firing ratios into minimal integer
    /// counts. `component[k]` labels the weakly-connected component of
    /// kernel `k`; each component is scaled by the LCM of its denominators
    /// and reduced by the GCD of the resulting numerators, independently of
    /// the others. Counts saturate at `u64::MAX` on (pathological)
    /// overflow.
    pub fn from_components(ratios: &[Rational], component: &[usize]) -> FiringVector {
        assert_eq!(ratios.len(), component.len());
        let n_components = component.iter().copied().max().map_or(0, |m| m + 1);
        // Per component: LCM of denominators, then GCD of scaled numerators.
        let mut den_lcm = vec![1u128; n_components];
        for (r, &c) in ratios.iter().zip(component) {
            den_lcm[c] = lcm128(den_lcm[c], r.den as u128);
        }
        let mut num_gcd = vec![0u128; n_components];
        let scaled: Vec<u128> = ratios
            .iter()
            .zip(component)
            .map(|(r, &c)| {
                let n = r.num as u128 * (den_lcm[c] / r.den as u128);
                num_gcd[c] = gcd(num_gcd[c], n);
                n
            })
            .collect();
        let counts = scaled
            .iter()
            .zip(component)
            .map(|(&n, &c)| {
                let g = num_gcd[c].max(1);
                u64::try_from(n / g).unwrap_or(u64::MAX)
            })
            .collect();
        FiringVector { counts }
    }

    /// Firings of one kernel per period (0 for an out-of-range id).
    pub fn count(&self, kernel: KernelId) -> u64 {
        self.counts.get(kernel.index()).copied().unwrap_or(0)
    }

    /// Number of kernels covered.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the vector covers no kernels.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

/// Greatest common divisor (`gcd(0, 0) = 0`) — the one the rate
/// arithmetic, the firing-vector normalisation and the lint bounds pass
/// share; `u64` callers widen.
pub fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// One compiled schedule period for a statically schedulable graph.
///
/// Produced by the schedule compiler in `cgsim-runtime` (`compile`),
/// followed by the executor of a `Compiled` run, and committed under
/// `tests/golden/` (via [`render`]) so schedule regressions show up as
/// reviewable diffs. It carries no buffer figures: a run that follows it
/// holds a fixed byte budget per channel, and [`GraphBounds`] reports the
/// per-connector traffic of one period.
///
/// [`render`]: StaticSchedule::render
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticSchedule {
    /// Name of the graph this schedule was compiled from.
    pub graph: String,
    /// Topological kernel firing order for one period (single-appearance:
    /// each kernel occurs once, firing `firings.counts[k]` times in place).
    pub order: Vec<KernelId>,
    /// Minimal integer firings per kernel per period.
    pub firings: FiringVector,
}

impl StaticSchedule {
    /// Render the schedule as stable, diffable text (the golden-file
    /// format): the firing order with repetition counts.
    pub fn render(&self, graph: &FlatGraph) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "schedule {}", self.graph);
        let _ = writeln!(out, "order ({} kernels):", self.order.len());
        for &k in &self.order {
            let name = graph
                .kernels
                .get(k.index())
                .map(|kk| kk.instance.as_str())
                .unwrap_or("?");
            let _ = writeln!(out, "  {name} x{}", self.firings.count(k));
        }
        out
    }
}

/// Static bounds for one connector, derived from the firing vector and the
/// port rate signature by the `cgsim-lint` bounds pass (`CG060`/`CG061`).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectorBounds {
    /// Tokens crossing the connector during one schedule period.
    pub period_tokens: u64,
    /// Minimal buffer capacity admitting a deadlock-free periodic schedule:
    /// the classic SDF single-edge bound `p + c − gcd(p, c)` (production
    /// rate `p`, consumption rate `c`), taken over the hungriest consumer.
    pub min_capacity: u64,
    /// The capacity the runtime will actually allocate: the declared port
    /// depth when one is set, else the configured default. Also the
    /// capacity-limited worst-case occupancy — a channel never buffers more
    /// than its capacity relative to its slowest open consumer.
    pub effective_capacity: u64,
}

/// Whole-graph static performance bounds: per-connector occupancy and
/// capacity figures plus critical-path latency and steady-state throughput,
/// computed by the `cgsim-lint` bounds pass for every rate-consistent
/// acyclic graph and carried on the lint report.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphBounds {
    /// Per-connector bounds, indexed by connector position.
    pub connectors: Vec<ConnectorBounds>,
    /// Total kernel firings in one schedule period (sum of the firing
    /// vector), the work a period represents.
    pub period_firings: u64,
    /// Kernel firings along the longest dependency chain of one period —
    /// the critical-path latency bound: no schedule completes a period in
    /// fewer sequential firings.
    pub critical_path_firings: u64,
    /// Steady-state throughput bound: tokens delivered to global outputs
    /// per period, divided by the critical-path firings — an upper bound on
    /// sustained tokens-per-sequential-firing.
    pub throughput: Rational,
}

impl GraphBounds {
    /// Render the bounds as stable, diffable text (the golden-file format
    /// of `tests/golden/bounds_*.txt`): one line per connector, then the
    /// critical-path and throughput summary.
    pub fn render(&self, graph: &FlatGraph) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "bounds {}", graph.name);
        let _ = writeln!(out, "connectors ({}):", self.connectors.len());
        for (ci, b) in self.connectors.iter().enumerate() {
            let name = graph.connector_name(ci);
            let _ = writeln!(
                out,
                "  {name}: {}/period, min capacity {}, capacity {}",
                b.period_tokens, b.min_capacity, b.effective_capacity
            );
        }
        let _ = writeln!(
            out,
            "critical path: {} firings of {} per period",
            self.critical_path_firings, self.period_firings
        );
        let _ = writeln!(out, "throughput: {} tokens/firing", self.throughput);
        out
    }
}

/// Workload-level static cost estimate for one run, derived from the exact
/// token propagation of the bounds pass. The party that admits a run
/// computes it from the graph and workload it holds — `cgsim-serve`'s cost
/// gate does, and refuses runs whose `polls_hint` exceeds its limit — so it
/// never crosses the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostEstimate {
    /// Total tokens crossing all connectors over the whole workload.
    pub tokens: u64,
    /// Total kernel firings over the whole workload.
    pub firings: u64,
    /// Heuristic poll-count prediction for the cooperative executor:
    /// roughly one poll per firing plus the per-token channel traffic and
    /// per-task setup/teardown. An order-of-magnitude planning figure, not
    /// a promise.
    pub polls_hint: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rational_reduces_and_displays() {
        let r = Rational::new(6, 4);
        assert_eq!(r, Rational { num: 3, den: 2 });
        assert_eq!(r.to_string(), "3/2");
        assert_eq!(Rational::new(4, 2).to_string(), "2");
        assert_eq!(Rational::ONE.scale(3, 2), Rational::new(3, 2));
    }

    #[test]
    fn firing_vector_normalizes_to_minimal_integers() {
        // One component with ratios 1 and 3/2 → minimal integers 2 and 3.
        let v = FiringVector::from_components(&[Rational::ONE, Rational::new(3, 2)], &[0, 0]);
        assert_eq!(v.counts, vec![2, 3]);
        // All-equal ratios reduce to all-ones, whatever the scale.
        let v = FiringVector::from_components(&[Rational::new(4, 1), Rational::new(4, 1)], &[0, 0]);
        assert_eq!(v.counts, vec![1, 1]);
    }

    #[test]
    fn components_normalize_independently() {
        // Component 0: {1/2} → 1. Component 1: {2, 3} → 2, 3.
        let v = FiringVector::from_components(
            &[
                Rational::new(1, 2),
                Rational::new(2, 1),
                Rational::new(3, 1),
            ],
            &[0, 1, 1],
        );
        assert_eq!(v.counts, vec![1, 2, 3]);
    }

    #[test]
    fn firing_vector_json_roundtrip() {
        let v = FiringVector {
            counts: vec![1, 2, 3],
        };
        let json = serde_json::to_string(&v).unwrap();
        let back: FiringVector = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
    }
}
