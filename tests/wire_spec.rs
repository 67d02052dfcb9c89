//! Wire-format stability tests for the `RunSpec` serde surface (PR 10).
//!
//! `crates/cgsim-serve` accepts `RunSpec`s over HTTP, so the JSON encoding
//! is a public contract: `tests/golden/runspec_v1.json` pins it. If one of
//! these tests fails after an intentional schema change, bump the wire
//! version in `cgsim-serve::wire` *and* regenerate the fixture — silently
//! re-pinning would break deployed clients.

use cgsim::graphs::{Backend, Profiling, RunSpec, Schedule};
use cgsim::lint::VerifyPolicy;
use proptest::prelude::*;
use std::time::Duration;

const GOLDEN: &str = include_str!("golden/runspec_v1.json");

/// The builder chain that produced the golden fixture.
fn golden_spec() -> RunSpec {
    RunSpec::for_graph("golden")
        .backend(Backend::Compiled)
        .schedule(Schedule::Seeded(42))
        .default_depth(16)
        .profiling(Profiling::Full)
        .verify(VerifyPolicy::Warn)
        .deadline(Duration::from_millis(250))
}

#[test]
fn golden_fixture_deserializes_to_every_axis() {
    let spec: RunSpec = serde_json::from_str(GOLDEN).expect("golden fixture parses");
    assert_eq!(spec.label(), "golden");
    assert_eq!(spec.target(), Backend::Compiled);
    assert_eq!(spec.deadline_budget(), Some(Duration::from_millis(250)));
    let cfg = spec.config();
    assert_eq!(cfg.schedule, Schedule::Seeded(42));
    assert_eq!(cfg.default_depth, 16);
    assert_eq!(cfg.profiling, Profiling::Full);
    assert_eq!(cfg.verify, VerifyPolicy::Warn);
    assert_eq!(cfg.max_polls, None);
    assert!(cfg.faults.is_none());
}

#[test]
fn serializer_still_emits_the_golden_shape() {
    // Compare as parsed values so whitespace/key-order formatting of the
    // fixture file never matters — only the semantic wire shape is pinned.
    let emitted = serde_json::to_value(golden_spec()).expect("spec serializes");
    let pinned: serde_json::Value = serde_json::from_str(GOLDEN).expect("golden fixture parses");
    assert_eq!(
        emitted, pinned,
        "RunSpec wire encoding drifted from tests/golden/runspec_v1.json"
    );
}

/// The golden spec with every retired key a client may still send:
/// `config.channels` (channel storage now follows the backend's scheduler)
/// and a declared `cost` (the daemon now estimates admission cost from the
/// graph it admits). Such clients must keep being served, and the keys
/// change nothing.
const GOLDEN_WITH_RETIRED_KEYS: &str = r#"{
  "label": "golden",
  "backend": "compiled",
  "config": {
    "default_depth": 16,
    "max_polls": null,
    "schedule": {
      "seeded": 42
    },
    "faults": null,
    "verify": "warn",
    "channels": "shared",
    "profiling": "full"
  },
  "deadline_ns": 250000000,
  "cost": { "tokens": 0, "firings": 0, "polls_hint": 0 }
}"#;

#[test]
fn retired_channels_key_still_parses() {
    let old: RunSpec = serde_json::from_str(GOLDEN_WITH_RETIRED_KEYS).expect("old payload parses");
    let emitted = serde_json::to_value(old).expect("spec serializes");
    let pinned: serde_json::Value = serde_json::from_str(GOLDEN).expect("golden fixture parses");
    assert_eq!(
        emitted, pinned,
        "the old payload means the current golden spec"
    );
}

#[test]
fn sparse_request_fills_builder_defaults() {
    // Clients may send only the axes they care about; everything else must
    // land on the same defaults `RunSpec::for_graph` would pick.
    let spec: RunSpec =
        serde_json::from_str(r#"{"label":"sparse","config":{"default_depth":8}}"#).expect("parses");
    assert_eq!(spec.label(), "sparse");
    assert_eq!(spec.target(), Backend::Cooperative);
    assert_eq!(spec.config().default_depth, 8);
    assert_eq!(spec.config().schedule, Schedule::Fifo);
    assert_eq!(spec.config().verify, VerifyPolicy::Deny);
    assert_eq!(spec.deadline_budget(), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Round-trip through JSON preserves every spec axis for arbitrary
    /// combinations of backend, schedule, depth, profiling and deadline.
    #[test]
    fn wire_round_trip_is_lossless(
        backend_pick in 0u8..3,
        seed in any::<u64>(),
        seeded in any::<bool>(),
        depth in 1usize..512,
        full_profiling in any::<bool>(),
        // 0 means "no deadline" — the shim's tuple strategies cap at six
        // parameters, so the optionality folds into the range.
        deadline_ns in 0u64..10_000_000_000,
    ) {
        let backend = match backend_pick {
            0 => Backend::Cooperative,
            1 => Backend::Threaded,
            _ => Backend::Compiled,
        };
        let schedule = if seeded { Schedule::Seeded(seed) } else { Schedule::Lifo };
        let profiling = if full_profiling { Profiling::Full } else { Profiling::Off };
        let mut spec = RunSpec::for_graph("prop")
            .backend(backend)
            .schedule(schedule)
            .default_depth(depth)
            .profiling(profiling)
            .verify(VerifyPolicy::Warn);
        if deadline_ns > 0 {
            spec = spec.deadline(Duration::from_nanos(deadline_ns));
        }

        let json = serde_json::to_string(&spec).expect("serialize");
        let back: RunSpec = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(back.label(), spec.label());
        prop_assert_eq!(back.target(), spec.target());
        prop_assert_eq!(back.deadline_budget(), spec.deadline_budget());
        prop_assert_eq!(back.config().schedule, spec.config().schedule);
        prop_assert_eq!(back.config().default_depth, spec.config().default_depth);
        prop_assert_eq!(back.config().profiling, spec.config().profiling);
        prop_assert_eq!(back.config().verify, spec.config().verify);

        // A second trip must be byte-stable: serialize(deserialize(j)) == j.
        let again = serde_json::to_string(&back).expect("re-serialize");
        prop_assert_eq!(again, json);
    }
}
