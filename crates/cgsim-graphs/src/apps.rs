//! Common harness interface over the four evaluation applications (§5).
//!
//! Each ported AMD example implements [`EvalApp`], exposing everything the
//! benchmark harnesses need: the graph, the kernel library, measured cost
//! profiles, workload specs matching the paper's block sizes, and
//! self-verifying functional runs under every backend of the one runtime
//! context: cooperative (cgsim), compiled, and thread-per-kernel (the
//! x86sim substitute).

use aie_sim::{KernelCostProfile, WorkloadSpec};
use cgsim_core::FlatGraph;
use cgsim_runtime::{KernelLibrary, Launch, RunReport, RunSpec};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Outcome of one functional simulation run.
#[derive(Clone, Debug)]
pub struct AppRun {
    /// Wall-clock duration of graph execution.
    pub wall_time: Duration,
    /// Output elements produced.
    pub out_elems: usize,
    /// FNV-1a checksum over the output bytes (for cross-runtime equality
    /// checks without holding the data).
    pub checksum: u64,
    /// `report.exec.kernel_fraction()`, copied for the frozen benchmark
    /// runner, which still reads it here; read the report instead.
    pub kernel_fraction: Option<f64>,
    /// The full runtime report; every backend produces one. `Arc`-wrapped
    /// so cloning an `AppRun` stays cheap.
    pub report: Option<Arc<RunReport>>,
}

/// One ported evaluation application.
///
/// `Send + Sync` so boxed apps can be moved into `cgsim-pool` batch jobs
/// and shared across bench worker threads (every implementation is a unit
/// struct, so the bound is free).
pub trait EvalApp: Send + Sync {
    /// Short name matching the paper's Table 1 ("bitonic", "farrow", "IIR",
    /// "bilinear").
    fn name(&self) -> &'static str;

    /// Input block size in bytes, as reported in Table 1.
    fn block_bytes(&self) -> u64;

    /// Build the compute graph.
    fn graph(&self) -> FlatGraph;

    /// Kernel registry for runtime instantiation.
    fn library(&self) -> KernelLibrary;

    /// Measured cost profiles (instrumented intrinsic op counts).
    fn profiles(&self) -> HashMap<String, KernelCostProfile>;

    /// Workload spec for `blocks` input blocks (for the cycle simulator).
    fn workload(&self, blocks: u64) -> WorkloadSpec;

    /// Run `blocks` blocks under `spec` with per-launch resources (cached
    /// compiled plan, tracer), streaming the input, and compare every output
    /// element with the scalar reference's; returns run metrics. The
    /// expected output and its checksum depend only on `(app, blocks)`, so
    /// each app keeps them for the latest `blocks` it ran, unless they are
    /// over 1 MiB. A `blocks` whose element count overflows is an error.
    /// This is the full entry point the serving layer launches through.
    fn run_launched(&self, spec: &RunSpec, blocks: u64, launch: Launch) -> Result<AppRun, String>;

    /// [`Self::run_launched`] with default resources: the
    /// [`RunSpec`]-native entry point every harness (bench, conformance,
    /// pool) launches through. It shares that method's kept expected output
    /// (latest `blocks` per app, up to 1 MiB) and its full comparison.
    fn run_spec(&self, spec: &RunSpec, blocks: u64) -> Result<AppRun, String> {
        self.run_launched(spec, blocks, Launch::default())
    }
}

/// FNV-1a over a byte stream.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Checksum helper for `f32` outputs (bit-exact).
pub fn checksum_f32(data: &[f32]) -> u64 {
    fnv1a(data.iter().flat_map(|v| v.to_le_bytes()))
}

/// Checksum helper for `i16` outputs.
pub fn checksum_i16(data: &[i16]) -> u64 {
    fnv1a(data.iter().flat_map(|v| v.to_le_bytes()))
}

/// All four evaluation applications, in the paper's Table 1 order.
pub fn all_apps() -> Vec<Box<dyn EvalApp>> {
    vec![
        Box::new(crate::bitonic::BitonicApp),
        Box::new(crate::farrow::FarrowApp),
        Box::new(crate::iir::IirApp),
        Box::new(crate::bilinear::BilinearApp),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_runtime::Backend;

    #[test]
    fn fnv1a_known_vector() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        // And it changes with content.
        assert_ne!(fnv1a([1u8]), fnv1a([2u8]));
    }

    #[test]
    fn checksums_are_order_sensitive() {
        assert_ne!(checksum_f32(&[1.0, 2.0]), checksum_f32(&[2.0, 1.0]));
        assert_ne!(checksum_i16(&[1, 2]), checksum_i16(&[2, 1]));
    }

    #[test]
    fn all_apps_listed_in_table1_order() {
        let apps = all_apps();
        let names: Vec<_> = apps.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["bitonic", "farrow", "IIR", "bilinear"]);
    }

    #[test]
    fn compiled_backend_matches_cooperative_on_every_app() {
        // A run that follows a compiled plan must be bit-identical to the
        // plan-less reference on all four paper graphs (checksums are
        // order-sensitive, so matching checksums mean matching streams).
        for app in all_apps() {
            let coop = app
                .run_spec(&RunSpec::for_graph(app.name()), 2)
                .unwrap_or_else(|e| panic!("{} cooperative: {e}", app.name()));
            let compiled = app
                .run_spec(
                    &RunSpec::for_graph(app.name()).backend(Backend::Compiled),
                    2,
                )
                .unwrap_or_else(|e| panic!("{} compiled: {e}", app.name()));
            // All four paper graphs are statically schedulable: the
            // compiled run followed a plan, one poll per coroutine.
            let exec = &compiled.report.as_ref().unwrap().exec;
            assert_eq!(exec.polls, exec.tasks as u64, "{}", app.name());
            assert_eq!(
                compiled.checksum,
                coop.checksum,
                "{} diverged under the compiled backend",
                app.name()
            );
            assert_eq!(compiled.out_elems, coop.out_elems, "{}", app.name());
        }
    }
}
