//! Port of AMD's `bitonic-sorting` example (§5).
//!
//! A single-kernel graph implementing a 16-wide bitonic sort on 32-bit
//! floating-point values with the AIE vector API. The paper uses it as the
//! API-compatibility stress test and as the sync-heavy case in Table 2
//! (small 64-byte blocks → frequent kernel-to-kernel synchronisation).
//!
//! * Block size (Table 1): **64 bytes** = 16 × f32 per kernel iteration.
//! * Algorithm: in-register bitonic network of shuffle/min/max/select
//!   stages ([`aie_intrinsics::ops::bitonic_sort16`]).

use crate::apps::{checksum_f32, AppRun, EvalApp};
use crate::support::{self, measure};
use crate::Launch;
use aie_intrinsics::counter::metered;
use aie_intrinsics::ops::bitonic_sort16;
use aie_intrinsics::Vector;
use aie_sim::{KernelCostProfile, PortTraffic, WorkloadSpec};
use cgsim_core::{FlatGraph, PortKind};
use cgsim_runtime::{compute_graph, compute_kernel, KernelLibrary, RunSpec};
use std::collections::HashMap;

/// Elements per kernel iteration (one vector register).
pub const SORT_WIDTH: usize = 16;
/// Input block size in bytes (Table 1).
pub const BLOCK_BYTES: u64 = 64;

/// Sort one 16-element chunk with the vectorised bitonic network — the
/// kernel's compute routine, shared between the coroutine and the cost
/// profiler.
pub fn sort16(chunk: &[f32]) -> [f32; SORT_WIDTH] {
    let v = Vector::<f32, SORT_WIDTH>::load(chunk);
    let sorted = bitonic_sort16(v);
    let mut out = [0.0f32; SORT_WIDTH];
    sorted.store(&mut out);
    out
}

compute_kernel! {
    /// 16-wide bitonic sorter: reads 16 floats, emits them sorted
    /// ascending.
    #[realm(aie)]
    pub fn bitonic_kernel(input: ReadPort<f32>, out: WritePort<f32>) {
        let mut chunk = Vec::with_capacity(SORT_WIDTH);
        while input.get_window_into(&mut chunk, SORT_WIDTH).await {
            out.put_window(sort16(&chunk)).await;
            chunk.clear();
        }
    }
}

/// Scalar golden reference: sort each 16-element chunk.
pub fn reference(input: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(input.len());
    for chunk in input.chunks_exact(SORT_WIDTH) {
        let mut c = chunk.to_vec();
        c.sort_by(f32::total_cmp);
        out.extend(c);
    }
    out
}

/// Build the single-kernel graph.
pub fn build_graph() -> FlatGraph {
    compute_graph! {
        name: bitonic,
        inputs: (samples: f32),
        body: {
            let sorted = wire::<f32>();
            bitonic_kernel(samples, sorted);
            attr(samples, "plio_name", "samples_in");
            attr(sorted, "plio_name", "sorted_out");
        },
        outputs: (sorted),
    }
    .expect("bitonic graph builds")
}

/// Deterministic pseudo-random workload of `blocks` 16-float blocks.
pub fn make_input(blocks: u64) -> Vec<f32> {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xB170_71C5);
    (0..blocks * SORT_WIDTH as u64)
        .map(|_| rng.random_range(-1000.0f32..1000.0))
        .collect()
}

/// The Table 1 / Table 2 application record.
pub struct BitonicApp;

impl EvalApp for BitonicApp {
    fn name(&self) -> &'static str {
        "bitonic"
    }

    fn block_bytes(&self) -> u64 {
        BLOCK_BYTES
    }

    fn graph(&self) -> FlatGraph {
        build_graph()
    }

    fn library(&self) -> KernelLibrary {
        KernelLibrary::with(|l| {
            l.register::<bitonic_kernel>();
        })
    }

    fn profiles(&self) -> HashMap<String, KernelCostProfile> {
        // Measure one iteration of the compute routine.
        let input = make_input(1);
        let ((), ops) = metered(|| {
            let _ = sort16(&input);
        });
        let stream = |elems| PortTraffic {
            elems_per_iter: elems,
            elem_bytes: 4,
            kind: PortKind::Stream,
        };
        let profile = KernelCostProfile::measured(
            "bitonic_kernel",
            ops,
            vec![stream(SORT_WIDTH as u64)],
            vec![stream(SORT_WIDTH as u64)],
        );
        measure::profile_map([profile])
    }

    fn workload(&self, blocks: u64) -> WorkloadSpec {
        WorkloadSpec {
            blocks,
            elems_per_block_in: vec![SORT_WIDTH as u64],
            elems_per_block_out: vec![SORT_WIDTH as u64],
        }
    }

    fn run_launched(&self, spec: &RunSpec, blocks: u64, launch: Launch) -> Result<AppRun, String> {
        let input = make_input(blocks);
        let expect = reference(&input);
        let graph = self.graph();
        let lib = self.library();
        let (got, run) = support::run::<f32>(&graph, &lib, spec, launch, |ctx| ctx.feed(0, input))?;
        if got != expect {
            return Err(format!(
                "bitonic output mismatch: {} vs {} elements, first diff at {:?}",
                got.len(),
                expect.len(),
                got.iter().zip(&expect).position(|(a, b)| a != b)
            ));
        }
        Ok(AppRun {
            checksum: checksum_f32(&got),
            out_elems: got.len(),
            ..run
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use cgsim_runtime::Backend;

    #[test]
    fn kernel_matches_reference_cooperative() {
        BitonicApp
            .run_spec(&RunSpec::for_graph("bitonic"), 32)
            .unwrap();
    }

    #[test]
    fn kernel_matches_reference_threaded() {
        BitonicApp
            .run_spec(
                &RunSpec::for_graph("bitonic").backend(Backend::Threaded),
                32,
            )
            .unwrap();
    }

    #[test]
    fn both_runtimes_agree_bit_exactly() {
        let coop = RunSpec::for_graph("bitonic");
        let thr = RunSpec::for_graph("bitonic").backend(Backend::Threaded);
        let a = BitonicApp.run_spec(&coop, 16).unwrap();
        let b = BitonicApp.run_spec(&thr, 16).unwrap();
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.out_elems, b.out_elems);
    }

    #[test]
    fn graph_shape() {
        let g = build_graph();
        assert_eq!(g.kernels.len(), 1);
        assert_eq!(g.inputs.len(), 1);
        assert_eq!(g.outputs.len(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn profile_is_shuffle_heavy() {
        use aie_intrinsics::OpKind;
        let p = &BitonicApp.profiles()["bitonic_kernel"];
        // The bitonic network is permute/ALU bound: 10 stages of
        // shuffle+min+max+select dominate over loads/stores.
        assert!(p.ops.get(OpKind::VShuffle) >= 10);
        assert!(p.ops.get(OpKind::VAlu) >= 20);
        assert!(p.compute_cycles >= 40);
    }

    #[test]
    fn block_accounting_matches_table1() {
        // 64-byte blocks = 16 f32.
        assert_eq!(BLOCK_BYTES, (SORT_WIDTH * 4) as u64);
    }

    #[test]
    fn reference_sorts_chunkwise_not_globally() {
        let input: Vec<f32> = (0..32).rev().map(|v| v as f32).collect();
        let r = reference(&input);
        // First chunk sorted, second chunk sorted, but 2nd chunk values are
        // all smaller (input was globally descending).
        assert!(r[..16].windows(2).all(|w| w[0] <= w[1]));
        assert!(r[16..].windows(2).all(|w| w[0] <= w[1]));
        assert!(r[0] > r[16]);
    }
}
