//! Lint configuration: the channel-depth default and the bounds switch,
//! plus the device's fixed per-realm hardware budgets.

/// Hardware budgets for the AIE realm, checked by the `CG05x` pass.
///
/// The one set of numbers is [`RealmBudgets::VC1902`], the device the paper
/// targets. It lives here (rather than being imported from `aie-sim`) so the
/// lint crate stays a leaf dependency of `cgsim-core` and every consumer —
/// runtime, deploy, extractor — gates on the same limits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RealmBudgets {
    /// AIE tiles available on the device (VC1902: 50 columns × 8 rows).
    /// With the paper's one-kernel-per-tile placement this bounds the AIE
    /// kernel count.
    pub aie_tiles: usize,
    /// Data memory per AIE tile in bytes (32 KiB on AIE1). A kernel's window
    /// buffers (ping-pong counted twice) must fit.
    pub tile_data_bytes: u64,
    /// Stream input ports per AIE kernel (the AIE1 stream switch exposes
    /// two 32-bit inputs per core).
    pub stream_in: usize,
    /// Stream output ports per AIE kernel.
    pub stream_out: usize,
}

impl RealmBudgets {
    /// The VC1902 budgets.
    pub const VC1902: RealmBudgets = RealmBudgets {
        aie_tiles: 400,
        tile_data_bytes: 32 * 1024,
        stream_in: 2,
        stream_out: 2,
    };
}

/// Configuration for one lint run.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    /// Effective channel capacity (elements) for connectors that do not set
    /// an explicit `depth`. `0` falls back to
    /// [`LintConfig::FALLBACK_DEPTH`], matching the runtime's default.
    pub default_depth: u32,
    /// Emit the informational `CG06x` bounds diagnostics (per-connector
    /// occupancy, critical path, throughput). The bounds *data* is always
    /// computed and attached to the report when derivable; this flag only
    /// controls the Info-level findings, so clean-graph consumers do not
    /// see their reports grow chatty by default. `CG061` (declared capacity
    /// below the minimal deadlock-free bound) is emitted regardless.
    pub emit_bounds: bool,
}

impl LintConfig {
    /// Channel capacity assumed when neither the connector nor the config
    /// specifies one — the cooperative runtime's default channel depth.
    pub const FALLBACK_DEPTH: u32 = 64;

    /// The effective default depth (resolving `0` to the fallback).
    pub fn effective_default_depth(&self) -> u32 {
        if self.default_depth == 0 {
            Self::FALLBACK_DEPTH
        } else {
            self.default_depth
        }
    }

    /// Enable the informational `CG06x` bounds diagnostics.
    pub fn with_bounds(mut self) -> Self {
        self.emit_bounds = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_match_vc1902() {
        let b = RealmBudgets::VC1902;
        assert_eq!(b.aie_tiles, 400);
        assert_eq!(b.tile_data_bytes, 32768);
        assert_eq!((b.stream_in, b.stream_out), (2, 2));
    }

    #[test]
    fn zero_depth_falls_back() {
        assert_eq!(
            LintConfig::default().effective_default_depth(),
            LintConfig::FALLBACK_DEPTH
        );
        let cfg = LintConfig {
            default_depth: 8,
            ..LintConfig::default()
        };
        assert_eq!(cfg.effective_default_depth(), 8);
    }
}
