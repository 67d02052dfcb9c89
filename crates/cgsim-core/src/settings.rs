//! Port settings and their compatibility-merge rules (§3.4).
//!
//! Settings that *influence graph behaviour* — as opposed to purely auxiliary
//! [`crate::attrs`] — are attached to kernel ports. When two parameterized
//! ports are joined by an `IoConnector`, cgsim checks the settings for
//! compatibility and merges them into one configuration shared by every
//! connected endpoint; incompatible settings are a **compile-time error** in
//! the paper. The merge here is a `const fn`, so the [`crate::static_graph`]
//! path reproduces that behaviour literally: an incompatible merge aborts
//! constant evaluation and therefore compilation.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Value used in the const representation for "not specified".
const UNSET: u32 = 0;

/// Behaviour-affecting configuration of a kernel I/O port.
///
/// All fields are optional ("unset" defers to the connected endpoint or the
/// framework default); merging follows a meet-semilattice: `unset ⊔ x = x`,
/// `x ⊔ x = x`, and `x ⊔ y` with `x ≠ y` conflicts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PortSettings {
    /// Beat size of the underlying streaming bus in bytes (e.g. AXI-Stream
    /// beat width). `0` = unset.
    pub beat_bytes: u32,
    /// Window size in bytes for buffer (window) ports. `0` = unset / stream.
    pub window_bytes: u32,
    /// Queue depth (capacity in elements) of the simulated stream. `0` =
    /// unset, i.e. use the runtime default.
    pub depth: u32,
    /// Marks the port as an AIE *runtime parameter* rather than a stream.
    pub runtime_param: bool,
    /// Requests ping-pong (double) buffering for window ports.
    pub ping_pong: bool,
}

impl PortSettings {
    /// All-unset settings: defers everything to the peer and the defaults.
    pub const DEFAULT: PortSettings = PortSettings {
        beat_bytes: UNSET,
        window_bytes: UNSET,
        depth: UNSET,
        runtime_param: false,
        ping_pong: false,
    };

    /// Start from the default settings (builder-style entry point).
    pub const fn new() -> Self {
        Self::DEFAULT
    }

    /// Set the streaming bus beat size in bytes.
    pub const fn beat_bytes(mut self, bytes: u32) -> Self {
        self.beat_bytes = bytes;
        self
    }

    /// Configure the port as a window (buffer) port of `bytes` bytes.
    pub const fn window_bytes(mut self, bytes: u32) -> Self {
        self.window_bytes = bytes;
        self
    }

    /// Set the simulated queue depth in elements.
    pub const fn depth(mut self, elements: u32) -> Self {
        self.depth = elements;
        self
    }

    /// Mark the port as a runtime parameter (RTP).
    pub const fn runtime_param(mut self) -> Self {
        self.runtime_param = true;
        self
    }

    /// Request ping-pong buffering (only meaningful for window ports).
    pub const fn ping_pong(mut self) -> Self {
        self.ping_pong = true;
        self
    }

    /// Whether every field is unset.
    pub const fn is_default(&self) -> bool {
        self.beat_bytes == UNSET
            && self.window_bytes == UNSET
            && self.depth == UNSET
            && !self.runtime_param
            && !self.ping_pong
    }

    /// Merge the settings of two connected endpoints (§3.4).
    ///
    /// Returns the unified configuration shared by all endpoints, or the
    /// first conflicting field. Being a `const fn`, this can run during
    /// constant evaluation: the [`crate::static_graph`] builder calls it with
    /// a `panic!` on conflict, turning an incompatible connection into a
    /// compile error exactly as the paper describes.
    pub const fn merge(self, other: PortSettings) -> Result<PortSettings, SettingsConflict> {
        let beat_bytes = match merge_field(self.beat_bytes, other.beat_bytes) {
            Ok(v) => v,
            Err(()) => {
                return Err(SettingsConflict::BeatBytes(
                    self.beat_bytes,
                    other.beat_bytes,
                ))
            }
        };
        let window_bytes = match merge_field(self.window_bytes, other.window_bytes) {
            Ok(v) => v,
            Err(()) => {
                return Err(SettingsConflict::WindowBytes(
                    self.window_bytes,
                    other.window_bytes,
                ))
            }
        };
        let depth = match merge_field(self.depth, other.depth) {
            Ok(v) => v,
            Err(()) => return Err(SettingsConflict::Depth(self.depth, other.depth)),
        };
        // Boolean flags merge by OR: a port explicitly marked RTP/ping-pong
        // forces the shared configuration, matching the AIE model where one
        // endpoint's declaration configures the physical connection.
        Ok(PortSettings {
            beat_bytes,
            window_bytes,
            depth,
            runtime_param: self.runtime_param || other.runtime_param,
            ping_pong: self.ping_pong || other.ping_pong,
        })
    }
}

impl Default for PortSettings {
    fn default() -> Self {
        Self::DEFAULT
    }
}

const fn merge_field(a: u32, b: u32) -> Result<u32, ()> {
    if a == UNSET {
        Ok(b)
    } else if b == UNSET || a == b {
        Ok(a)
    } else {
        Err(())
    }
}

/// A settings-merge conflict: the two endpoint values that disagreed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SettingsConflict {
    /// Two different explicit beat sizes.
    BeatBytes(u32, u32),
    /// Two different explicit window sizes.
    WindowBytes(u32, u32),
    /// Two different explicit queue depths.
    Depth(u32, u32),
}

impl SettingsConflict {
    /// Stable message used both by `Display` and by const-context panics.
    pub const fn message(&self) -> &'static str {
        match self {
            SettingsConflict::BeatBytes(..) => {
                "incompatible port settings: endpoints declare different beat sizes"
            }
            SettingsConflict::WindowBytes(..) => {
                "incompatible port settings: endpoints declare different window sizes"
            }
            SettingsConflict::Depth(..) => {
                "incompatible port settings: endpoints declare different queue depths"
            }
        }
    }
}

impl fmt::Display for SettingsConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (a, b) = match self {
            SettingsConflict::BeatBytes(a, b)
            | SettingsConflict::WindowBytes(a, b)
            | SettingsConflict::Depth(a, b) => (a, b),
        };
        write!(f, "{} ({} vs {})", self.message(), a, b)
    }
}

impl std::error::Error for SettingsConflict {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_defers_to_peer() {
        let a = PortSettings::new().beat_bytes(16);
        let b = PortSettings::DEFAULT;
        assert_eq!(a.merge(b).unwrap().beat_bytes, 16);
        assert_eq!(b.merge(a).unwrap().beat_bytes, 16);
    }

    #[test]
    fn equal_values_merge() {
        let a = PortSettings::new().beat_bytes(16).depth(8);
        assert_eq!(a.merge(a).unwrap(), a);
    }

    #[test]
    fn conflicting_beats_fail() {
        let a = PortSettings::new().beat_bytes(16);
        let b = PortSettings::new().beat_bytes(4);
        assert_eq!(a.merge(b), Err(SettingsConflict::BeatBytes(16, 4)));
    }

    #[test]
    fn conflicting_windows_fail() {
        let a = PortSettings::new().window_bytes(2048);
        let b = PortSettings::new().window_bytes(4096);
        assert!(matches!(
            a.merge(b),
            Err(SettingsConflict::WindowBytes(2048, 4096))
        ));
    }

    #[test]
    fn flags_merge_by_or() {
        let a = PortSettings::new().runtime_param();
        let b = PortSettings::new().ping_pong();
        let m = a.merge(b).unwrap();
        assert!(m.runtime_param && m.ping_pong);
    }

    #[test]
    fn merge_is_usable_in_const_context() {
        const MERGED: PortSettings = {
            let a = PortSettings::new().beat_bytes(16);
            let b = PortSettings::new().depth(4);
            match a.merge(b) {
                Ok(m) => m,
                Err(_) => panic!("incompatible"),
            }
        };
        assert_eq!(MERGED.beat_bytes, 16);
        assert_eq!(MERGED.depth, 4);
    }

    #[test]
    fn conflict_messages_name_the_field() {
        assert!(SettingsConflict::Depth(1, 2).to_string().contains("depth"));
        assert!(SettingsConflict::BeatBytes(1, 2)
            .to_string()
            .contains("beat"));
    }

    // Property tests are skipped under Miri: the exploration budget is far
    // too slow for the interpreter and the algebraic laws carry no
    // aliasing-sensitive behaviour.
    #[cfg(not(miri))]
    mod props {
        use super::super::*;
        use proptest::prelude::*;

        fn arb_settings() -> impl Strategy<Value = PortSettings> {
            (0u32..4, 0u32..4, 0u32..4, any::<bool>(), any::<bool>()).prop_map(
                |(b, w, d, rtp, pp)| PortSettings {
                    beat_bytes: b,
                    window_bytes: w * 512,
                    depth: d,
                    runtime_param: rtp,
                    ping_pong: pp,
                },
            )
        }

        proptest! {
            /// Merging is commutative: either both directions conflict or
            /// both produce the same unified settings.
            #[test]
            fn merge_commutative(a in arb_settings(), b in arb_settings()) {
                prop_assert_eq!(a.merge(b).ok(), b.merge(a).ok());
                prop_assert_eq!(a.merge(b).is_err(), b.merge(a).is_err());
            }

            /// DEFAULT is the identity element.
            #[test]
            fn default_is_identity(a in arb_settings()) {
                prop_assert_eq!(a.merge(PortSettings::DEFAULT).unwrap(), a);
                prop_assert_eq!(PortSettings::DEFAULT.merge(a).unwrap(), a);
            }

            /// Merging is idempotent.
            #[test]
            fn merge_idempotent(a in arb_settings()) {
                prop_assert_eq!(a.merge(a).unwrap(), a);
            }

            /// Merging is associative where defined.
            #[test]
            fn merge_associative(
                a in arb_settings(),
                b in arb_settings(),
                c in arb_settings(),
            ) {
                let left = a.merge(b).ok().and_then(|ab| ab.merge(c).ok());
                let right = b.merge(c).ok().and_then(|bc| a.merge(bc).ok());
                if let (Some(l), Some(r)) = (&left, &right) {
                    prop_assert_eq!(l, r);
                }
            }
        }
    }
}
