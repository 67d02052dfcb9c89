//! Port of AMD's `Bilinear_Interpolation` example (§5).
//!
//! Performs bilinear interpolation on image data with AIE vector
//! intrinsics: for each query point, the four surrounding pixels are
//! weighted by the fractional offsets (fx, fy). The cgsim port streams
//! [`PixelQuad`] structs — a user-defined struct stream, the type-safety
//! improvement §5.1 highlights over AMD's flat buffers.
//!
//! * Block size (Table 1): **2048 bytes** of output = 512 × f32
//!   interpolated pixels per block; the kernel processes 8 quads per
//!   vector iteration.

use crate::apps::{checksum_f32, AppRun, EvalApp};
use crate::support::{self, measure, Harness, Slot};
use crate::Launch;
use aie_intrinsics::counter::metered;
use aie_intrinsics::{AccF32, Vector};
use aie_sim::{KernelCostProfile, PortTraffic, WorkloadSpec};
use cgsim_core::{FlatGraph, PortKind};
use cgsim_runtime::{compute_graph, compute_kernel, KernelLibrary, RunSpec};
use std::collections::HashMap;

/// SIMD lanes per iteration.
pub const LANES: usize = 8;
/// Output block size in bytes (Table 1): 512 f32 pixels.
pub const BLOCK_BYTES: u64 = 2048;
/// Interpolated pixels per block.
pub const BLOCK_PIXELS: usize = (BLOCK_BYTES / 4) as usize;

/// One interpolation query: the 2×2 pixel neighbourhood and the fractional
/// position inside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PixelQuad {
    /// Top-left pixel.
    pub p00: f32,
    /// Top-right pixel.
    pub p01: f32,
    /// Bottom-left pixel.
    pub p10: f32,
    /// Bottom-right pixel.
    pub p11: f32,
    /// Fractional x offset in [0, 1).
    pub fx: f32,
    /// Fractional y offset in [0, 1).
    pub fy: f32,
}

/// One vector iteration: interpolate `LANES` quads. Weights are computed
/// with vector subtract/multiply and the four corner contributions are
/// accumulated with `fpmac` — the AMD example's instruction mix. Shared
/// between the kernel coroutine and the cost profiler.
pub fn interp_iteration(quads: &[PixelQuad]) -> [f32; LANES] {
    debug_assert_eq!(quads.len(), LANES);
    let gather = |f: fn(&PixelQuad) -> f32| {
        let lanes: [f32; LANES] = std::array::from_fn(|i| f(&quads[i]));
        Vector::<f32, LANES>::from_array(lanes)
    };
    let p00 = gather(|q| q.p00);
    let p01 = gather(|q| q.p01);
    let p10 = gather(|q| q.p10);
    let p11 = gather(|q| q.p11);
    let fx = gather(|q| q.fx);
    let fy = gather(|q| q.fy);
    let one = Vector::<f32, LANES>::splat(1.0);
    let gx = one - fx;
    let gy = one - fy;

    // w00 = gx*gy, w01 = fx*gy, w10 = gx*fy, w11 = fx*fy.
    let w00 = gx * gy;
    let w01 = fx * gy;
    let w10 = gx * fy;
    let w11 = fx * fy;

    let acc = AccF32::<LANES>::zero()
        .fpmac(p00, w00)
        .fpmac(p01, w01)
        .fpmac(p10, w10)
        .fpmac(p11, w11);
    acc.to_vector().to_array()
}

compute_kernel! {
    /// Bilinear interpolator: 8 pixel quads per vector iteration.
    #[realm(aie)]
    pub fn bilinear_kernel(quads: ReadPort<PixelQuad>, out: WritePort<f32>) {
        let mut batch = Vec::with_capacity(LANES);
        while quads.get_window_into(&mut batch, LANES).await {
            out.put_window(interp_iteration(&batch)).await;
            batch.clear();
        }
    }
}

/// Scalar golden reference with identical operation ordering (bit-exact).
pub fn reference(quads: &[PixelQuad]) -> Vec<f32> {
    let full = quads.len() / LANES * LANES;
    quads[..full]
        .iter()
        .map(|q| {
            let gx = 1.0 - q.fx;
            let gy = 1.0 - q.fy;
            let (w00, w01, w10, w11) = (gx * gy, q.fx * gy, gx * q.fy, q.fx * q.fy);
            // Same fpmac order: (((p00·w00) + p01·w01) + p10·w10) + p11·w11.
            0.0 + q.p00 * w00 + q.p01 * w01 + q.p10 * w10 + q.p11 * w11
        })
        .collect()
}

/// Build the single-kernel graph.
pub fn build_graph() -> FlatGraph {
    compute_graph! {
        name: bilinear,
        inputs: (quads: PixelQuad),
        body: {
            let pixels = wire::<f32>();
            bilinear_kernel(quads, pixels);
            attr(quads, "plio_name", "quads_in");
            attr(pixels, "plio_name", "pixels_out");
        },
        outputs: (pixels),
    }
    .expect("bilinear graph builds")
}

/// Deterministic synthetic image stream of `blocks` blocks: smooth
/// gradient pixels with pseudo-random fractional offsets; panics if its
/// length overflows `usize`.
pub fn input(blocks: u64) -> impl Iterator<Item = PixelQuad> + 'static {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xB111_0003);
    (0..support::input_len("bilinear", blocks, BLOCK_PIXELS)).map(move |i| {
        let base = (i % 251) as f32;
        PixelQuad {
            p00: base,
            p01: base + rng.random_range(0.0f32..8.0),
            p10: base + rng.random_range(0.0f32..8.0),
            p11: base + rng.random_range(0.0f32..16.0),
            fx: rng.random_range(0.0f32..1.0),
            fy: rng.random_range(0.0f32..1.0),
        }
    })
}

/// [`input`], collected.
pub fn make_input(blocks: u64) -> Vec<PixelQuad> {
    input(blocks).collect()
}

/// The Table 1 / Table 2 application record.
pub struct BilinearApp;

impl EvalApp for BilinearApp {
    fn name(&self) -> &'static str {
        "bilinear"
    }

    fn block_bytes(&self) -> u64 {
        BLOCK_BYTES
    }

    fn graph(&self) -> FlatGraph {
        build_graph()
    }

    fn library(&self) -> KernelLibrary {
        KernelLibrary::with(|l| {
            l.register::<bilinear_kernel>();
        })
    }

    fn profiles(&self) -> HashMap<String, KernelCostProfile> {
        let input = make_input(1);
        let ((), ops) = metered(|| {
            let _ = interp_iteration(&input[..LANES]);
        });
        let profile = KernelCostProfile::measured(
            "bilinear_kernel",
            ops,
            vec![PortTraffic {
                elems_per_iter: LANES as u64,
                elem_bytes: std::mem::size_of::<PixelQuad>() as u64,
                kind: PortKind::Stream,
            }],
            vec![PortTraffic {
                elems_per_iter: LANES as u64,
                elem_bytes: 4,
                kind: PortKind::Stream,
            }],
        );
        measure::profile_map([profile])
    }

    fn workload(&self, blocks: u64) -> WorkloadSpec {
        WorkloadSpec {
            blocks,
            elems_per_block_in: vec![BLOCK_PIXELS as u64],
            elems_per_block_out: vec![BLOCK_PIXELS as u64],
        }
    }

    fn run_launched(&self, spec: &RunSpec, blocks: u64, launch: Launch) -> Result<AppRun, String> {
        static EXPECTED: Slot<f32> = Slot::new(None);
        Harness {
            slot: &EXPECTED,
            block_elems: BLOCK_PIXELS,
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
        BilinearApp
            .run_spec(&RunSpec::for_graph("bilinear"), 4)
            .unwrap();
    }

    #[test]
    fn kernel_matches_reference_threaded() {
        BilinearApp
            .run_spec(
                &RunSpec::for_graph("bilinear").backend(Backend::Threaded),
                4,
            )
            .unwrap();
    }

    #[test]
    fn corners_are_exact() {
        // fx = fy = 0 → p00 exactly; fx = 1, fy = 0 → p01.
        let q = PixelQuad {
            p00: 10.0,
            p01: 20.0,
            p10: 30.0,
            p11: 40.0,
            fx: 0.0,
            fy: 0.0,
        };
        let mut quads = [q; LANES];
        quads[1].fx = 1.0; // → p01
        quads[2].fy = 1.0; // → p10
        quads[3].fx = 1.0;
        quads[3].fy = 1.0; // → p11
        let out = interp_iteration(&quads);
        assert_eq!(out[0], 10.0);
        assert_eq!(out[1], 20.0);
        assert_eq!(out[2], 30.0);
        assert_eq!(out[3], 40.0);
    }

    #[test]
    fn center_averages() {
        let q = PixelQuad {
            p00: 0.0,
            p01: 4.0,
            p10: 8.0,
            p11: 12.0,
            fx: 0.5,
            fy: 0.5,
        };
        let out = interp_iteration(&[q; LANES]);
        assert_eq!(out[0], 6.0);
    }

    #[test]
    fn interpolation_is_bounded_by_corners() {
        for q in make_input(1).iter().take(64) {
            let v = reference(std::slice::from_ref(q).repeat(LANES).as_slice())[0];
            let lo = q.p00.min(q.p01).min(q.p10).min(q.p11);
            let hi = q.p00.max(q.p01).max(q.p10).max(q.p11);
            assert!(v >= lo - 1e-3 && v <= hi + 1e-3, "{v} outside [{lo},{hi}]");
        }
    }

    #[test]
    fn profile_is_mac_heavy_stream_kernel() {
        use aie_intrinsics::OpKind;
        let p = &BilinearApp.profiles()["bilinear_kernel"];
        // 4 weight multiplies + 4 fpmacs per 8 pixels.
        assert_eq!(p.ops.get(OpKind::VMac), 8);
        assert_eq!(p.stream_accesses(), 16);
    }

    proptest::proptest! {
        /// Vector interpolation is bit-exact against the scalar reference
        /// for arbitrary quads.
        #[test]
        fn interp_matches_reference(
            vals in proptest::collection::vec(
                (0f32..255.0, 0f32..255.0, 0f32..255.0, 0f32..255.0, 0f32..1.0, 0f32..1.0),
                LANES,
            ),
        ) {
            let quads: Vec<PixelQuad> = vals
                .into_iter()
                .map(|(p00, p01, p10, p11, fx, fy)| PixelQuad { p00, p01, p10, p11, fx, fy })
                .collect();
            let vec_out = interp_iteration(&quads);
            let scalar = reference(&quads);
            proptest::prop_assert_eq!(vec_out.to_vec(), scalar);
        }
    }

    #[test]
    fn quad_struct_layout() {
        assert_eq!(std::mem::size_of::<PixelQuad>(), 24);
    }

    #[test]
    fn block_accounting_matches_table1() {
        assert_eq!(BLOCK_BYTES, (BLOCK_PIXELS * 4) as u64);
        assert_eq!(BLOCK_PIXELS % LANES, 0);
    }
}
