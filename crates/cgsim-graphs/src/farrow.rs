//! Port of AMD's `farrow_filter` example (§5).
//!
//! A fractional-delay Farrow filter [Farrow 1988]: four parallel FIR
//! branches evaluated per sample, combined by a Horner polynomial in the
//! fractional delay `mu`. The AMD example uses two kernels with ping-pong
//! buffer I/O and hand-optimized fixed-point SIMD convolution; the paper
//! selects it because its heavily optimized nature exposes translation
//! overhead.
//!
//! Structure here mirrors that:
//!
//! * [`farrow_fir_kernel`] — the branch FIR stage: 16 samples per vector
//!   iteration, four 4-tap branch convolutions via sliding `mac` into
//!   48-bit accumulators, `srs` back to Q15; emits a [`BranchSet`] struct
//!   stream (custom struct streams are the type-safety win §5.1 calls out).
//! * [`farrow_comb_kernel`] — Horner combination with the runtime
//!   parameter `mu` (Q15).
//!
//! * Block size (Table 1): **4096 bytes** = 2048 × i16 samples.

use crate::apps::{checksum_i16, AppRun, EvalApp};
use crate::support::{self, measure, Harness, Slot};
use crate::Launch;
use aie_intrinsics::counter::metered;
use aie_intrinsics::fixed::{quantize_q15, srs};
use aie_intrinsics::{AccI48, Vector};
use aie_sim::{KernelCostProfile, PortTraffic, WorkloadSpec};
use cgsim_core::{FlatGraph, PortKind, PortSettings};
use cgsim_runtime::{compute_graph, compute_kernel, KernelLibrary, RunSpec};
use std::collections::HashMap;

/// Vector width of the fixed-point datapath.
pub const LANES: usize = 16;
/// Taps per polynomial branch.
pub const TAPS: usize = 4;
/// Polynomial branches (cubic Farrow).
pub const BRANCHES: usize = 4;
/// Q-format fractional bits for samples and coefficients.
pub const QBITS: u32 = 15;
/// Input block size in bytes (Table 1): 2048 i16 samples.
pub const BLOCK_BYTES: u64 = 4096;
/// Samples per block.
pub const BLOCK_SAMPLES: usize = (BLOCK_BYTES / 2) as usize;

/// The cubic-Lagrange Farrow branch coefficients (floating prototype),
/// branch-major: `COEFFS[b][t]`.
pub const PROTO_COEFFS: [[f64; TAPS]; BRANCHES] = [
    // b0: the pass-through branch.
    [0.0, 1.0, 0.0, 0.0],
    // b1.
    [-1.0 / 3.0, -0.5, 1.0, -1.0 / 6.0],
    // b2.
    [0.5, -1.0, 0.5, 0.0],
    // b3.
    [-1.0 / 6.0, 0.5, -0.5, 1.0 / 6.0],
];

/// Q15-quantised branch coefficients, as the hardware kernel uses them.
pub fn q15_coeffs() -> [[i16; TAPS]; BRANCHES] {
    let mut out = [[0i16; TAPS]; BRANCHES];
    for (b, branch) in PROTO_COEFFS.iter().enumerate() {
        for (t, &c) in branch.iter().enumerate() {
            // Scale by 1/2 to keep the Horner accumulation inside Q15
            // (compensated by one less shift at readout).
            out[b][t] = quantize_q15(c * 0.5, QBITS);
        }
    }
    out
}

/// Branch outputs for one sample: the struct carried on the inter-kernel
/// stream (user-defined struct streams, §5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchSet {
    /// Q15 branch FIR outputs `b0..b3`.
    pub b: [i16; BRANCHES],
}

/// One vector iteration of the FIR stage: `data` holds `LANES + TAPS - 1`
/// samples (history first); returns `LANES` branch sets. Shared between the
/// kernel coroutine and the cost profiler.
pub fn fir_iteration(data: &[i16], coeffs: &[[i16; TAPS]; BRANCHES]) -> [BranchSet; LANES] {
    debug_assert!(data.len() >= LANES + TAPS - 1);
    let mut branch_out = [[0i16; LANES]; BRANCHES];
    for (b, branch) in coeffs.iter().enumerate() {
        let mut acc = AccI48::<LANES>::zero();
        for (tap, &c) in branch.iter().enumerate() {
            acc = acc.sliding_mac(data, tap, c);
        }
        let v = acc.srs(QBITS); // Q15·Q15 → Q15 readout (coeffs pre-halved)
        v.store(&mut branch_out[b]);
    }
    std::array::from_fn(|i| BranchSet {
        b: [
            branch_out[0][i],
            branch_out[1][i],
            branch_out[2][i],
            branch_out[3][i],
        ],
    })
}

/// One vector iteration of the Horner combiner over `LANES` branch sets
/// with fractional delay `mu` (Q15). Mirrors the AMD kernel's vectorised
/// polynomial evaluation: `y = ((b3·mu + b2)·mu + b1)·mu + b0`, all in Q15
/// with `srs` rescaling after each product (×2 readjusts the pre-halved
/// coefficient scale).
pub fn comb_iteration(sets: &[BranchSet], mu_q15: i16) -> [i16; LANES] {
    debug_assert_eq!(sets.len(), LANES);
    let branch_vec = |b: usize| {
        let lanes: [i16; LANES] = std::array::from_fn(|i| sets[i].b[b]);
        Vector::<i16, LANES>::from_array(lanes)
    };
    let mu = Vector::<i16, LANES>::splat(mu_q15);
    let mut acc_v = branch_vec(3);
    for b in (0..3).rev() {
        // acc = acc*mu (Q15) + branch_b
        let prod = AccI48::<LANES>::mul(acc_v, mu).srs(QBITS);
        acc_v = prod + branch_vec(b);
    }
    // Undo the 0.5 coefficient pre-scale.
    let doubled = acc_v + acc_v;
    doubled.to_array()
}

compute_kernel! {
    /// Branch FIR stage: 4 parallel 4-tap convolutions per sample,
    /// vectorised 16-wide with sliding fixed-point MACs.
    #[realm(aie)]
    pub fn farrow_fir_kernel(
        samples: ReadPort<i16> @ PortSettings::new().window_bytes(4096).ping_pong(),
        branches: WritePort<BranchSet> @ PortSettings::new().window_bytes(1024).ping_pong(),
    ) {
        let coeffs = q15_coeffs();
        // One buffer for the whole run: the sliding-window history at the
        // front (zeros prime the filter, like the hardware's initial window
        // margin), each window appended behind it and drained once used,
        // which leaves its last `TAPS - 1` samples as the next history.
        let mut data = Vec::with_capacity(TAPS - 1 + LANES);
        data.resize(TAPS - 1, 0i16);
        while samples.get_window_into(&mut data, LANES).await {
            let sets = fir_iteration(&data, &coeffs);
            data.drain(..LANES);
            branches.put_window(sets).await;
        }
    }
}

compute_kernel! {
    /// Horner combiner: evaluates the delay polynomial at the runtime
    /// parameter `mu` (Q15).
    #[realm(aie)]
    pub fn farrow_comb_kernel(
        branches: ReadPort<BranchSet> @ PortSettings::new().window_bytes(1024).ping_pong(),
        mu: ReadPort<i16> @ PortSettings::new().runtime_param(),
        out: WritePort<i16> @ PortSettings::new().window_bytes(4096).ping_pong(),
    ) {
        let mu_q15 = mu.get().await.unwrap_or(0);
        let mut sets = Vec::with_capacity(LANES);
        while branches.get_window_into(&mut sets, LANES).await {
            out.put_window(comb_iteration(&sets, mu_q15)).await;
            sets.clear();
        }
    }
}

/// Scalar golden reference using the *same* fixed-point rounding as the
/// vector kernels (exact match expected).
pub fn reference(input: &[i16], mu_q15: i16) -> Vec<i16> {
    let coeffs = q15_coeffs();
    let mut padded = vec![0i16; TAPS - 1];
    padded.extend_from_slice(input);
    let mut out = Vec::with_capacity(input.len());
    let full_lanes = input.len() / LANES * LANES;
    for n in 0..full_lanes {
        // Branch FIRs.
        let mut b = [0i16; BRANCHES];
        for (bi, branch) in coeffs.iter().enumerate() {
            let mut acc: i64 = 0;
            for (t, &c) in branch.iter().enumerate() {
                acc += (padded[n + t] as i64) * (c as i64);
            }
            b[bi] = srs(acc, QBITS);
        }
        // Horner in mu.
        let mut acc = b[3];
        for bi in (0..3).rev() {
            let prod = srs((acc as i64) * (mu_q15 as i64), QBITS);
            acc = prod.wrapping_add(b[bi]);
        }
        out.push(acc.wrapping_add(acc));
    }
    out
}

/// Build the two-kernel graph (Figure 6 workload).
pub fn build_graph() -> FlatGraph {
    compute_graph! {
        name: farrow,
        inputs: (samples: i16, mu: i16),
        body: {
            let branches = wire::<BranchSet>();
            let delayed = wire::<i16>();
            farrow_fir_kernel(samples, branches);
            farrow_comb_kernel(branches, mu, delayed);
            attr(samples, "plio_name", "samples_in");
            attr(delayed, "plio_name", "delayed_out");
        },
        outputs: (delayed),
    }
    .expect("farrow graph builds")
}

/// Deterministic pseudo-random i16 stream of `blocks` blocks; panics if
/// its length overflows `usize`.
pub fn input(blocks: u64) -> impl Iterator<Item = i16> + 'static {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xFA44_0001);
    (0..support::input_len("farrow", blocks, BLOCK_SAMPLES))
        .map(move |_| rng.random_range(-12000i16..12000))
}

/// [`input`], collected.
pub fn make_input(blocks: u64) -> Vec<i16> {
    input(blocks).collect()
}

/// The default fractional delay used in evaluation runs: µ = 0.37.
pub fn default_mu() -> i16 {
    quantize_q15(0.37, QBITS)
}

/// The Table 1 / Table 2 application record.
pub struct FarrowApp;

impl EvalApp for FarrowApp {
    fn name(&self) -> &'static str {
        "farrow"
    }

    fn block_bytes(&self) -> u64 {
        BLOCK_BYTES
    }

    fn graph(&self) -> FlatGraph {
        build_graph()
    }

    fn library(&self) -> KernelLibrary {
        KernelLibrary::with(|l| {
            l.register::<farrow_fir_kernel>();
            l.register::<farrow_comb_kernel>();
        })
    }

    fn profiles(&self) -> HashMap<String, KernelCostProfile> {
        let coeffs = q15_coeffs();
        let data = vec![100i16; LANES + TAPS - 1];
        let (sets, fir_ops) = metered(|| fir_iteration(&data, &coeffs));
        let ((), comb_ops) = metered(|| {
            let _ = comb_iteration(&sets, default_mu());
        });
        let window = |elems: u64, bytes: u64| PortTraffic {
            elems_per_iter: elems,
            elem_bytes: bytes,
            kind: PortKind::Window,
        };
        let rtp = PortTraffic {
            elems_per_iter: 0,
            elem_bytes: 2,
            kind: PortKind::RuntimeParam,
        };
        let fir = KernelCostProfile::measured(
            "farrow_fir_kernel",
            fir_ops,
            vec![window(LANES as u64, 2)],
            vec![window(LANES as u64, 8)], // BranchSet = 4×i16, ping-pong
        );
        let comb = KernelCostProfile::measured(
            "farrow_comb_kernel",
            comb_ops,
            vec![window(LANES as u64, 8), rtp],
            vec![window(LANES as u64, 2)],
        );
        measure::profile_map([fir, comb])
    }

    fn workload(&self, blocks: u64) -> WorkloadSpec {
        WorkloadSpec {
            blocks,
            elems_per_block_in: vec![BLOCK_SAMPLES as u64, 0],
            elems_per_block_out: vec![BLOCK_SAMPLES as u64],
        }
    }

    fn run_launched(&self, spec: &RunSpec, blocks: u64, launch: Launch) -> Result<AppRun, String> {
        static EXPECTED: Slot<i16> = Slot::new(None);
        Harness {
            slot: &EXPECTED,
            block_elems: BLOCK_SAMPLES,
            input,
            reference: |input| reference(input, default_mu()),
            checksum: checksum_i16,
            params: |ctx| ctx.feed_param(1, default_mu()),
        }
        .run(self, spec, blocks, launch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use cgsim_runtime::Backend;

    #[test]
    fn kernels_match_reference_cooperative() {
        FarrowApp
            .run_spec(&RunSpec::for_graph("farrow"), 2)
            .unwrap();
    }

    #[test]
    fn kernels_match_reference_threaded() {
        FarrowApp
            .run_spec(&RunSpec::for_graph("farrow").backend(Backend::Threaded), 2)
            .unwrap();
    }

    #[test]
    fn runtimes_agree() {
        let a = FarrowApp
            .run_spec(&RunSpec::for_graph("farrow"), 1)
            .unwrap();
        let b = FarrowApp
            .run_spec(&RunSpec::for_graph("farrow").backend(Backend::Threaded), 1)
            .unwrap();
        assert_eq!(a.checksum, b.checksum);
    }

    #[test]
    fn graph_has_two_kernels_and_rtp() {
        let g = build_graph();
        assert_eq!(g.kernels.len(), 2);
        g.validate().unwrap();
        // The mu connector is a runtime parameter.
        let mu_conn = g.inputs[1];
        assert_eq!(
            g.connectors[mu_conn.index()].kind,
            cgsim_core::PortKind::RuntimeParam
        );
        // The sample input is a ping-pong window.
        let s_conn = g.inputs[0];
        assert_eq!(
            g.connectors[s_conn.index()].kind,
            cgsim_core::PortKind::Window
        );
        assert!(g.connectors[s_conn.index()].settings.ping_pong);
    }

    #[test]
    fn zero_mu_reduces_to_pure_delay() {
        // With mu = 0 only branch b0 (the pass-through tap at index 1 of
        // the 4-tap window with 3 samples of history) remains: the output
        // is the input delayed by two samples, up to ±1 LSB from the
        // halve-then-double Q15 rescale.
        let input = make_input(1);
        let out = reference(&input, 0);
        for n in 2..64 {
            let diff = (out[n] as i32 - input[n - 2] as i32).abs();
            assert!(diff <= 1, "sample {n}: {} vs {}", out[n], input[n - 2]);
        }
        assert_eq!(out[0], 0); // primed with zero history
    }

    #[test]
    fn fir_iteration_is_mac_bound() {
        use aie_intrinsics::OpKind;
        let p = &FarrowApp.profiles()["farrow_fir_kernel"];
        // 4 branches × 4 taps = 16 sliding MACs per 16 samples.
        assert_eq!(p.ops.get(OpKind::VMac), 16);
        assert!(p.compute_cycles >= 16);
    }

    #[test]
    fn branchset_is_8_bytes() {
        assert_eq!(std::mem::size_of::<BranchSet>(), 8);
    }

    #[test]
    fn block_accounting_matches_table1() {
        assert_eq!(BLOCK_BYTES, (BLOCK_SAMPLES * 2) as u64);
        assert_eq!(BLOCK_SAMPLES % LANES, 0);
    }

    proptest::proptest! {
        /// Vector pipeline (fir + comb) equals the scalar reference on any
        /// mu and input — the fixed-point ops line up exactly.
        #[test]
        fn pipeline_matches_reference(
            raw in proptest::collection::vec(-20000i16..20000, LANES),
            mu in -32768i16..32767,
        ) {
            let coeffs = q15_coeffs();
            let mut data = vec![0i16; TAPS - 1];
            data.extend_from_slice(&raw);
            let sets = fir_iteration(&data, &coeffs);
            let vec_out = comb_iteration(&sets, mu);
            let scalar = reference(&raw, mu);
            proptest::prop_assert_eq!(vec_out.to_vec(), scalar);
        }
    }
}
