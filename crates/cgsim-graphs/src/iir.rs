//! Port of AMD's `implementing-iir-filter` example, part 2b (§5).
//!
//! A cascade of biquad IIR sections with SIMD feed-forward evaluation,
//! focused on maximizing system throughput. The feed-forward FIR part of
//! each section is vectorised with `fpmac` over 8-lane registers; the
//! recursive feedback is propagated with scalar operations (the serial
//! dependency hardware also pays). Samples move through large ping-pong
//! windows, which is why this example reaches parity in Table 1: its I/O
//! is window-DMA-driven, not per-element stream access.
//!
//! * Block size (Table 1): **8192 bytes** = 2048 × f32 per kernel
//!   iteration (one full window).

use crate::apps::{checksum_f32, AppRun, EvalApp};
use crate::support::{self, measure, Harness, Slot};
use crate::Launch;
use aie_intrinsics::counter::{metered, record_n};
use aie_intrinsics::{AccF32, OpKind};
use aie_sim::{KernelCostProfile, PortTraffic, WorkloadSpec};
use cgsim_core::{FlatGraph, PortKind, PortSettings};
use cgsim_runtime::{compute_graph, compute_kernel, KernelLibrary, RunSpec};
use std::collections::HashMap;

/// SIMD lanes of the float datapath.
pub const LANES: usize = 8;
/// Biquad sections in the cascade.
pub const SECTIONS: usize = 4;
/// Input block size in bytes (Table 1): 2048 f32 samples.
pub const BLOCK_BYTES: u64 = 8192;
/// Samples per block/window.
pub const BLOCK_SAMPLES: usize = (BLOCK_BYTES / 4) as usize;

/// One biquad section: y\[n\] = b0·x\[n\] + b1·x\[n-1\] + b2·x\[n-2\]
///                            − a1·y\[n-1\] − a2·y\[n-2\].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Biquad {
    /// Feed-forward coefficients.
    pub b: [f32; 3],
    /// Feedback coefficients (a1, a2).
    pub a: [f32; 2],
}

/// The evaluation filter: a 4-section Butterworth-style low-pass cascade
/// (coefficients chosen for stability; the algorithmic structure is what
/// matters for the evaluation, not the passband).
pub const CASCADE: [Biquad; SECTIONS] = [
    Biquad {
        b: [0.2066, 0.4131, 0.2066],
        a: [-0.3695, 0.1958],
    },
    Biquad {
        b: [0.1998, 0.3996, 0.1998],
        a: [-0.3575, 0.1566],
    },
    Biquad {
        b: [0.1931, 0.3863, 0.1931],
        a: [-0.3457, 0.1183],
    },
    Biquad {
        b: [0.1867, 0.3734, 0.1867],
        a: [-0.3342, 0.0810],
    },
];

/// Per-section running state (input and output history).
#[derive(Clone, Copy, Debug, Default)]
pub struct SectionState {
    /// x[n-1], x[n-2].
    pub x: [f32; 2],
    /// y[n-1], y[n-2].
    pub y: [f32; 2],
}

/// Process one window through one biquad section, vectorised: the
/// feed-forward sum is computed 8 lanes at a time with `fpmac`, the
/// feedback recursion runs as scalar ops. Shared between kernel and
/// profiler.
pub fn biquad_window(input: &[f32], section: &Biquad, state: &mut SectionState) -> Vec<f32> {
    let mut out = Vec::with_capacity(input.len());
    // Extended input with history for the sliding feed-forward taps.
    let mut ext = Vec::with_capacity(input.len() + 2);
    ext.push(state.x[1]); // x[n-2]
    ext.push(state.x[0]); // x[n-1]
    ext.extend_from_slice(input);

    let mut chunk_start = 0;
    while chunk_start + LANES <= input.len() {
        // ff[i] = b2·x[n-2] + b1·x[n-1] + b0·x[n] — sliding fpmac, lowest
        // tap first so the accumulation order matches the scalar reference.
        let window = &ext[chunk_start..chunk_start + LANES + 2];
        let mut acc = AccF32::<LANES>::zero();
        acc = acc.sliding_fpmac(window, 0, section.b[2]);
        acc = acc.sliding_fpmac(window, 1, section.b[1]);
        acc = acc.sliding_fpmac(window, 2, section.b[0]);
        let ff = acc.to_vector().to_array();

        // Scalar feedback recursion across the 8 lanes: 2 multiplies +
        // 2 subtracts fold into two scalar issue slots per sample, booked
        // once per chunk instead of inside the serial loop.
        record_n(OpKind::Scalar, 2 * LANES as u64);
        for &f in &ff {
            let y = f - section.a[0] * state.y[0] - section.a[1] * state.y[1];
            state.y[1] = state.y[0];
            state.y[0] = y;
            out.push(y);
        }
        chunk_start += LANES;
    }
    // Update input history from the tail.
    let n = input.len();
    state.x[0] = input[n - 1];
    state.x[1] = input[n - 2];
    out
}

/// Run one window through the whole cascade.
pub fn cascade_window(input: &[f32], states: &mut [SectionState; SECTIONS]) -> Vec<f32> {
    let mut data = input.to_vec();
    for (section, state) in CASCADE.iter().zip(states.iter_mut()) {
        data = biquad_window(&data, section, state);
    }
    data
}

compute_kernel! {
    /// 4-section SIMD biquad cascade over 2048-sample ping-pong windows.
    #[realm(aie)]
    pub fn iir_kernel(
        samples: ReadPort<f32> @ PortSettings::new().window_bytes(8192).ping_pong(),
        out: WritePort<f32> @ PortSettings::new().window_bytes(8192).ping_pong(),
    ) {
        let mut states = [SectionState::default(); SECTIONS];
        while let Some(window) = samples.get_window(BLOCK_SAMPLES).await {
            out.put_window(cascade_window(&window, &mut states)).await;
        }
    }
}

/// Scalar golden reference with identical operation ordering (bit-exact
/// match with the vector kernel expected): each sample of every full
/// window passes through the four sections in turn.
pub fn reference(input: &[f32]) -> Vec<f32> {
    let mut states = [SectionState::default(); SECTIONS];
    let full = input.len() / BLOCK_SAMPLES * BLOCK_SAMPLES;
    input[..full]
        .iter()
        .map(|&x| {
            CASCADE
                .iter()
                .zip(&mut states)
                .fold(x, |x, (section, state)| {
                    // Same accumulation order as the fpmac sequence above:
                    // b2-tap first, then b1, then b0.
                    let ff = 0.0
                        + section.b[2] * state.x[1]
                        + section.b[1] * state.x[0]
                        + section.b[0] * x;
                    let y = ff - section.a[0] * state.y[0] - section.a[1] * state.y[1];
                    state.x = [x, state.x[0]];
                    state.y = [y, state.y[0]];
                    y
                })
        })
        .collect()
}

/// Build the single-kernel graph.
pub fn build_graph() -> FlatGraph {
    compute_graph! {
        name: iir,
        inputs: (samples: f32),
        body: {
            let filtered = wire::<f32>();
            iir_kernel(samples, filtered);
            attr(samples, "plio_name", "iir_in");
            attr(filtered, "plio_name", "iir_out");
        },
        outputs: (filtered),
    }
    .expect("iir graph builds")
}

/// Deterministic pseudo-random f32 stream of `blocks` windows; panics if
/// its length overflows `usize`.
pub fn input(blocks: u64) -> impl Iterator<Item = f32> + 'static {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x11E0_0002);
    (0..support::input_len("IIR", blocks, BLOCK_SAMPLES))
        .map(move |_| rng.random_range(-1.0f32..1.0))
}

/// [`input`], collected.
pub fn make_input(blocks: u64) -> Vec<f32> {
    input(blocks).collect()
}

/// The Table 1 / Table 2 application record.
pub struct IirApp;

impl EvalApp for IirApp {
    fn name(&self) -> &'static str {
        "IIR"
    }

    fn block_bytes(&self) -> u64 {
        BLOCK_BYTES
    }

    fn graph(&self) -> FlatGraph {
        build_graph()
    }

    fn library(&self) -> KernelLibrary {
        KernelLibrary::with(|l| {
            l.register::<iir_kernel>();
        })
    }

    fn profiles(&self) -> HashMap<String, KernelCostProfile> {
        let input = make_input(1);
        let mut states = [SectionState::default(); SECTIONS];
        let ((), ops) = metered(|| {
            let _ = cascade_window(&input, &mut states);
        });
        let window = |elems: u64| PortTraffic {
            elems_per_iter: elems,
            elem_bytes: 4,
            kind: PortKind::Window,
        };
        let profile = KernelCostProfile::measured(
            "iir_kernel",
            ops,
            vec![window(BLOCK_SAMPLES as u64)],
            vec![window(BLOCK_SAMPLES as u64)],
        );
        measure::profile_map([profile])
    }

    fn workload(&self, blocks: u64) -> WorkloadSpec {
        WorkloadSpec {
            blocks,
            elems_per_block_in: vec![BLOCK_SAMPLES as u64],
            elems_per_block_out: vec![BLOCK_SAMPLES as u64],
        }
    }

    fn run_launched(&self, spec: &RunSpec, blocks: u64, launch: Launch) -> Result<AppRun, String> {
        static EXPECTED: Slot<f32> = Slot::new(None);
        Harness {
            slot: &EXPECTED,
            block_elems: BLOCK_SAMPLES,
            input,
            reference,
            checksum: checksum_f32,
            params: |_| Ok(()),
        }
        .run(self, spec, blocks, launch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use cgsim_runtime::Backend;

    #[test]
    fn kernel_matches_reference_cooperative() {
        IirApp.run_spec(&RunSpec::for_graph("iir"), 2).unwrap();
    }

    #[test]
    fn kernel_matches_reference_threaded() {
        IirApp
            .run_spec(&RunSpec::for_graph("iir").backend(Backend::Threaded), 2)
            .unwrap();
    }

    #[test]
    fn state_carries_across_windows() {
        // Processing 2 blocks at once must equal processing them as one
        // stream through the kernel (the kernel's states persist).
        let input = make_input(2);
        let whole = reference(&input);
        // Reference itself is windowed; cross-check continuity: the filter
        // output at the window boundary must not reset (non-zero history).
        let boundary = BLOCK_SAMPLES;
        let isolated = reference(&input[boundary..]);
        assert_ne!(whole[boundary], isolated[0], "state must persist");
    }

    #[test]
    fn filter_is_stable_and_low_pass() {
        // DC gain of each section: sum(b) / (1 + sum(a)); cascade of gains
        // near 1, and a bounded response to bounded input.
        let input = vec![1.0f32; BLOCK_SAMPLES];
        let mut states = [SectionState::default(); SECTIONS];
        let out = cascade_window(&input, &mut states);
        let tail = out[BLOCK_SAMPLES - 1];
        assert!((0.5..1.5).contains(&tail), "DC response {tail}");
        assert!(out.iter().all(|v| v.abs() < 10.0), "unstable filter");
    }

    #[test]
    fn profile_mixes_vmac_and_scalar() {
        let p = &IirApp.profiles()["iir_kernel"];
        // 3 fpmacs per 8 lanes per section: 2048/8 × 3 × 4 = 3072 VMACs.
        assert_eq!(p.ops.get(OpKind::VMac), 3072);
        // Scalar feedback: 2 per sample per section = 16384.
        assert_eq!(p.ops.get(OpKind::Scalar), 16384);
        // The scalar slot binds the loop — the structural reason this
        // kernel's compute dwarfs its window I/O and the extraction penalty
        // disappears (Table 1: IIR at parity).
        assert_eq!(p.compute_cycles, 16384);
        assert_eq!(p.stream_accesses(), 0);
    }

    #[test]
    fn graph_uses_pingpong_windows() {
        let g = build_graph();
        g.validate().unwrap();
        for c in &g.connectors {
            assert_eq!(c.kind, cgsim_core::PortKind::Window);
            assert!(c.settings.ping_pong);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        /// The vectorised cascade equals the scalar reference bit-exactly
        /// on arbitrary single windows.
        #[test]
        fn cascade_matches_reference_on_random_windows(
            raw in proptest::collection::vec(-10_000i32..10_000, BLOCK_SAMPLES),
        ) {
            let input: Vec<f32> = raw.into_iter().map(|v| v as f32 / 10_000.0).collect();
            let mut states = [SectionState::default(); SECTIONS];
            let vec_out = cascade_window(&input, &mut states);
            let scalar = reference(&input);
            proptest::prop_assert_eq!(vec_out, scalar);
        }
    }

    #[test]
    fn block_accounting_matches_table1() {
        assert_eq!(BLOCK_BYTES, (BLOCK_SAMPLES * 4) as u64);
    }
}
