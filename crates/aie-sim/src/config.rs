//! Simulation configuration: clocks, stream bandwidth, code-generation
//! variant.
//!
//! The paper's cycle-approximate runs assume an AIE clock of 1250 MHz and a
//! PL clock of 625 MHz (§5.2); those are the defaults here. The
//! [`Variant`] models the *only* difference between the hand-optimized AMD
//! kernels and the cgsim-extracted ones that the paper identifies:
//! "differences in code generation around I/O stream access" (§5.2) — the
//! extractor's adapter thunks perform element-wise, unmerged stream accesses
//! that cost extra datapath cycles, plus a constant per-iteration thunk
//! entry cost.

use cgsim_core::GraphError;
use serde::{Deserialize, Serialize};

/// Which code generator produced the kernels being simulated.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case", tag = "kind")]
pub enum Variant {
    /// AMD's hand-optimized reference implementation: stream accesses are
    /// merged into wide transfers and fully overlapped by the pipelined
    /// loop.
    HandOptimized,
    /// Code produced by the cgsim graph extractor (§4.4–4.5): functionally
    /// identical, but stream reads/writes go through the generated adapter
    /// layer.
    Extracted {
        /// Extra core cycles per 32-bit stream *beat* moved through the
        /// generated adapter layer, in millicycles (the compiler cannot
        /// coalesce adjacent accesses through the adapter types into wide
        /// transfers, so every bus beat pays a fixed handshake cost).
        stream_access_penalty_milli: u64,
        /// Constant extra cycles per kernel iteration (adapter thunk entry,
        /// §4.5).
        iter_penalty: u64,
    },
}

impl Variant {
    /// The calibrated default for extracted kernels: 0.1 extra cycles per
    /// stream beat and 9 cycles of thunk overhead per iteration. See
    /// EXPERIMENTS.md for the calibration rationale.
    pub const EXTRACTED_DEFAULT: Variant = Variant::Extracted {
        stream_access_penalty_milli: 100,
        iter_penalty: 9,
    };

    /// Penalty in cycles for `beats` stream beats in one iteration.
    pub fn stream_penalty(&self, beats: u64) -> u64 {
        match self {
            Variant::HandOptimized => 0,
            Variant::Extracted {
                stream_access_penalty_milli,
                ..
            } => (beats * stream_access_penalty_milli).div_ceil(1000),
        }
    }

    /// Constant per-iteration penalty.
    pub fn iteration_penalty(&self) -> u64 {
        match self {
            Variant::HandOptimized => 0,
            Variant::Extracted { iter_penalty, .. } => *iter_penalty,
        }
    }
}

/// Global simulation parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// AIE array clock in MHz (paper: 1250).
    pub aie_mhz: f64,
    /// Programmable-logic clock in MHz (paper: 625).
    pub pl_mhz: f64,
    /// Stream-switch bandwidth: bytes per AIE cycle on one stream (AIE1:
    /// 32-bit switch ports → 4).
    pub stream_bytes_per_cycle: u64,
    /// PLIO interface width in bytes per PL cycle (64-bit PLIO → 8).
    pub plio_bytes_per_pl_cycle: u64,
    /// GMIO (NoC/DDR) bandwidth in bytes per AIE cycle per port (VC1902:
    /// ~8 GB/s per GMIO port at 1250 MHz → 6.4). Extension feature: the
    /// paper lists Global Memory I/O as unexposed future work (§6).
    #[serde(default = "default_gmio_bw")]
    pub gmio_bytes_per_aie_cycle: f64,
    /// First-access latency of a GMIO transfer in AIE cycles (NoC + DDR
    /// round trip).
    #[serde(default = "default_gmio_latency")]
    pub gmio_latency_cycles: u64,
    /// Default stream FIFO depth in elements when the graph specifies none.
    pub fifo_depth: usize,
    /// Fixed per-iteration kernel overhead in cycles (function entry, lock
    /// acquire/release for window kernels, loop prologue). Applies to both
    /// variants.
    pub iter_overhead: u64,
    /// Code-generation variant under simulation.
    pub variant: Variant,
    /// Cycle-stepped execution: a clock runs beside the event queue and
    /// every busy node (a tile mid-iteration, a source with a batch in
    /// flight) updates its microarchitectural scoreboard in every core
    /// cycle; `SimTrace::micro_fingerprint` folds that state. Identical
    /// timing results — used when reproducing Table 2's `aiesim` column.
    #[serde(default)]
    pub cycle_stepping: bool,
}

impl SimConfig {
    /// Paper configuration for the hand-optimized baseline.
    pub fn hand_optimized() -> Self {
        SimConfig {
            aie_mhz: 1250.0,
            pl_mhz: 625.0,
            stream_bytes_per_cycle: 4,
            plio_bytes_per_pl_cycle: 8,
            gmio_bytes_per_aie_cycle: default_gmio_bw(),
            gmio_latency_cycles: default_gmio_latency(),
            fifo_depth: 32,
            iter_overhead: 40,
            variant: Variant::HandOptimized,
            cycle_stepping: false,
        }
    }

    /// Paper configuration for cgsim-extracted kernels.
    pub fn extracted() -> Self {
        SimConfig {
            variant: Variant::EXTRACTED_DEFAULT,
            ..Self::hand_optimized()
        }
    }

    /// Nanoseconds per AIE cycle.
    pub fn ns_per_cycle(&self) -> f64 {
        1000.0 / self.aie_mhz
    }

    /// Convert a cycle count to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * self.ns_per_cycle()
    }

    /// PLIO bandwidth expressed in bytes per **AIE** cycle.
    pub fn plio_bytes_per_aie_cycle(&self) -> f64 {
        self.plio_bytes_per_pl_cycle as f64 * (self.pl_mhz / self.aie_mhz)
    }

    /// Reject a configuration that cannot simulate: `fifo_depth` 0
    /// ([`GraphError::ZeroDepth`]) would give every stream connector that
    /// declares no depth a FIFO that holds nothing.
    pub fn check(&self) -> Result<(), GraphError> {
        match self.fifo_depth {
            0 => Err(GraphError::ZeroDepth {
                field: "fifo_depth",
            }),
            _ => Ok(()),
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::hand_optimized()
    }
}

fn default_gmio_bw() -> f64 {
    6.4
}

fn default_gmio_latency() -> u64 {
    300
}

/// How a global port reaches the outside world. Selected per connector via
/// the `io_interface` attribute (`"plio"` default, `"gmio"` for global
/// memory I/O — the paper's §6 extension).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum IoInterface {
    /// Programmable-logic stream interface (the paper's evaluation setup).
    Plio,
    /// NoC/DDR global-memory interface.
    Gmio,
}

impl IoInterface {
    /// Resolve from a connector's attributes.
    pub fn of(conn: &cgsim_core::FlatConnector) -> IoInterface {
        match conn.attrs.get_str("io_interface") {
            Some("gmio") => IoInterface::Gmio,
            _ => IoInterface::Plio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_clocks() {
        let c = SimConfig::hand_optimized();
        assert_eq!(c.aie_mhz, 1250.0);
        assert_eq!(c.pl_mhz, 625.0);
        assert!((c.ns_per_cycle() - 0.8).abs() < 1e-12);
        assert!((c.cycles_to_ns(1250) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn plio_matches_stream_bandwidth() {
        // 64-bit PLIO at 625 MHz == 32-bit stream at 1250 MHz == 4 B/cycle.
        let c = SimConfig::hand_optimized();
        assert!((c.plio_bytes_per_aie_cycle() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hand_optimized_has_no_penalty() {
        let v = Variant::HandOptimized;
        assert_eq!(v.stream_penalty(1000), 0);
        assert_eq!(v.iteration_penalty(), 0);
    }

    #[test]
    fn extracted_penalty_scales_with_beats() {
        let v = Variant::EXTRACTED_DEFAULT;
        assert_eq!(v.stream_penalty(32), 4); // 0.1 cycles per beat, ceil
        assert_eq!(v.stream_penalty(1), 1); // rounds up
        assert_eq!(v.iteration_penalty(), 9);
    }

    #[test]
    fn serde_roundtrip() {
        let c = SimConfig::extracted();
        let j = serde_json::to_string(&c).unwrap();
        let back: SimConfig = serde_json::from_str(&j).unwrap();
        assert_eq!(back, c);
    }
}
