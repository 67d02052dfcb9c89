//! Deployment manifests — the interchange format between the graph
//! extractor and this simulator.
//!
//! In the paper's flow the extractor emits a Vitis project that
//! `aiecompiler` turns into a hardware image which `aiesim` then executes.
//! Without AMD's toolchain, the extracted project instead carries a JSON
//! *deployment manifest*: the flattened graph, the kernels' cost profiles
//! and the workload. [`deploy`] is the "board" it deploys onto, with the
//! lint gate selected by [`DeployOptions`].

use crate::config::SimConfig;
use crate::cost::KernelCostProfile;
use crate::graphsim::{simulate_checked, GraphTrace, WorkloadSpec};
use cgsim_core::{CheckedGraph, FlatGraph, GraphError};
use cgsim_lint::{lint_checked, lint_graph, LintConfig, LintReport, VerifyPolicy};
use cgsim_trace::Tracer;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A complete, self-contained description of one simulatable AIE project.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeployManifest {
    /// Manifest format version.
    pub version: u32,
    /// The compute graph to deploy.
    pub graph: FlatGraph,
    /// Cost profiles for every kernel kind in the graph.
    pub profiles: Vec<KernelCostProfile>,
    /// Simulation configuration (clocks, variant).
    pub config: SimConfig,
    /// Default workload for evaluation runs.
    pub workload: WorkloadSpec,
}

/// Current manifest version.
pub const MANIFEST_VERSION: u32 = 1;

impl DeployManifest {
    /// Assemble a manifest.
    pub fn new(
        graph: FlatGraph,
        profiles: Vec<KernelCostProfile>,
        config: SimConfig,
        workload: WorkloadSpec,
    ) -> Self {
        DeployManifest {
            version: MANIFEST_VERSION,
            graph,
            profiles,
            config,
            workload,
        }
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serializes")
    }

    /// Parse from JSON; the graph is re-validated and linted (deploying a
    /// graph the verifier can prove broken would only waste a simulation).
    pub fn from_json(json: &str) -> Result<Self, String> {
        let m: DeployManifest =
            serde_json::from_str(json).map_err(|e| format!("manifest parse error: {e}"))?;
        if m.version != MANIFEST_VERSION {
            return Err(format!(
                "unsupported manifest version {} (expected {MANIFEST_VERSION})",
                m.version
            ));
        }
        let checked =
            CheckedGraph::new(&m.graph).map_err(|e| format!("manifest graph invalid: {e}"))?;
        m.config
            .check()
            .map_err(|e| format!("manifest config invalid: {e}"))?;
        VerifyPolicy::Deny
            .gate(&lint_checked(&checked, &m.lint_config()), &m.graph)
            .map_err(|e| format!("manifest graph invalid: rejected by cgsim-lint: {e}"))?;
        Ok(m)
    }

    /// Run the ahead-of-deploy lint over the manifest's graph, which may
    /// be broken, under [`DeployManifest::lint_config`].
    pub fn lint(&self) -> LintReport {
        lint_graph(&self.graph, &self.lint_config())
    }

    /// The ahead-of-deploy lint configuration: the manifest's own FIFO
    /// depth is the default channel capacity.
    pub fn lint_config(&self) -> LintConfig {
        LintConfig {
            default_depth: self.config.fifo_depth as u32,
            ..LintConfig::default()
        }
    }

    /// Profiles keyed by kernel kind.
    pub fn profile_map(&self) -> HashMap<String, KernelCostProfile> {
        self.profiles
            .iter()
            .map(|p| (p.kernel.clone(), p.clone()))
            .collect()
    }
}

/// How (and whether) to deploy a manifest through [`deploy`]. The
/// verification decision is an explicit [`VerifyPolicy`] axis, matching
/// `RunSpec::verify` on the functional-runtime side.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct DeployOptions {
    /// Ahead-of-deploy lint-gate policy. `Deny` (the default) rejects
    /// manifests whose graphs carry Error-severity findings; `Warn` prints
    /// the report and deploys anyway; `Off` skips the lint entirely.
    pub verify: VerifyPolicy,
}

impl DeployOptions {
    /// Deploy options with the deny-by-default lint gate.
    pub fn new() -> Self {
        DeployOptions::default()
    }

    /// Set the lint-gate policy.
    pub fn verify(mut self, policy: VerifyPolicy) -> Self {
        self.verify = policy;
        self
    }
}

/// Simulate the manifest's graph with its embedded configuration and
/// workload, gated by `options.verify`: under [`VerifyPolicy::Deny`] a
/// manifest whose graph carries Error-severity lint findings is rejected
/// with [`GraphError::LintRejected`] (`CG012`) before any cycle is
/// simulated; [`VerifyPolicy::Warn`] reports the findings on stderr and
/// simulates anyway; [`VerifyPolicy::Off`] skips the lint — for
/// deliberately simulating a diagnosed-broken graph (e.g. to observe its
/// stall).
///
/// The graph is checked once: a graph that passes is linted and simulated
/// over the index the check kept, a broken one is linted as it is.
pub fn deploy(
    manifest: &DeployManifest,
    options: &DeployOptions,
) -> Result<GraphTrace, GraphError> {
    let checked = CheckedGraph::new(&manifest.graph);
    if options.verify != VerifyPolicy::Off {
        let report = match &checked {
            Ok(checked) => lint_checked(checked, &manifest.lint_config()),
            Err(_) => manifest.lint(),
        };
        options.verify.gate(&report, &manifest.graph)?;
    }
    simulate_checked(
        &checked?,
        &manifest.profile_map(),
        &manifest.config,
        &manifest.workload,
        &Tracer::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::PortTraffic;
    use aie_intrinsics::counter::metered;
    use aie_intrinsics::{AccF32, Vector};
    use cgsim_core::{
        GraphBuilder, KernelDecl, KernelMeta, PortKind, PortSettings, PortSig, Realm,
    };

    struct K;
    impl KernelDecl for K {
        const NAME: &'static str = "k";
        const REALM: Realm = Realm::Aie;
        fn meta() -> KernelMeta {
            KernelMeta {
                name: Self::NAME.into(),
                realm: Self::REALM,
                ports: vec![
                    PortSig::read::<f32>("in", PortSettings::DEFAULT),
                    PortSig::write::<f32>("out", PortSettings::DEFAULT),
                ],
            }
        }
    }

    fn manifest() -> DeployManifest {
        let graph = GraphBuilder::build("m", |g| {
            let a = g.input::<f32>("a");
            let b = g.wire::<f32>();
            g.invoke::<K>(&[a.id(), b.id()])?;
            g.output(&b);
            Ok(())
        })
        .unwrap();
        let ((), ops) = metered(|| {
            let a = Vector::<f32, 8>::load(&[1.0; 8]);
            let acc = AccF32::<8>::zero().fpmac(a, a);
            let mut out = [0.0; 8];
            acc.to_vector().store(&mut out);
        });
        let stream = |elems| PortTraffic {
            elems_per_iter: elems,
            elem_bytes: 4,
            kind: PortKind::Stream,
        };
        let profile = KernelCostProfile::measured("k", ops, vec![stream(8)], vec![stream(8)]);
        DeployManifest::new(
            graph,
            vec![profile],
            SimConfig::extracted(),
            WorkloadSpec {
                blocks: 8,
                elems_per_block_in: vec![32],
                elems_per_block_out: vec![32],
            },
        )
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let m = manifest();
        let j = m.to_json();
        let back = DeployManifest::from_json(&j).unwrap();
        assert_eq!(back.graph, m.graph);
        assert_eq!(back.workload, m.workload);
        assert_eq!(
            back.profiles[0].compute_cycles,
            m.profiles[0].compute_cycles
        );
    }

    #[test]
    fn deploy_simulates() {
        let m = manifest();
        let t = deploy(&m, &DeployOptions::new()).unwrap();
        assert_eq!(t.trace.block_times.len(), 8);
    }

    #[test]
    fn bad_version_rejected() {
        let mut m = manifest();
        m.version = 99;
        let j = m.to_json();
        assert!(DeployManifest::from_json(&j)
            .unwrap_err()
            .contains("version"));
    }

    #[test]
    fn corrupt_graph_rejected() {
        let mut m = manifest();
        m.graph.outputs.clear();
        let j = m.to_json();
        assert!(DeployManifest::from_json(&j)
            .unwrap_err()
            .contains("invalid"));
        let mut m = manifest();
        m.config.fifo_depth = 0;
        let msg = DeployManifest::from_json(&m.to_json()).unwrap_err();
        assert!(msg.contains("config invalid: [CG014]"), "{msg}");
    }

    #[test]
    fn parse_garbage_rejected() {
        assert!(DeployManifest::from_json("{not json").is_err());
    }

    #[test]
    fn deadlocked_manifest_rejected_by_lint() {
        // A sealed self-loop beside the working pipeline: passes
        // `validate()` (every connector produced and consumed) but can
        // never fire — exactly what the ahead-of-run lint gate is for.
        let mut m = manifest();
        m.graph = GraphBuilder::build("dead", |g| {
            let a = g.input::<f32>("a");
            let b = g.wire::<f32>();
            let w = g.wire::<f32>();
            g.invoke::<K>(&[a.id(), b.id()])?;
            g.invoke::<K>(&[w.id(), w.id()])?;
            g.output(&b);
            Ok(())
        })
        .unwrap();
        m.graph.validate().unwrap();

        let err = deploy(&m, &DeployOptions::new()).unwrap_err();
        assert_eq!(err.code(), "CG012");
        assert!(err.to_string().contains("CG020"), "{err}");

        // Warn deploys the same broken graph anyway (it stalls, but the
        // gate itself does not reject).
        let opts = DeployOptions::new().verify(VerifyPolicy::Warn);
        assert!(deploy(&m, &opts).is_ok());

        let j = m.to_json();
        let msg = DeployManifest::from_json(&j).unwrap_err();
        assert!(msg.contains("cgsim-lint") && msg.contains("CG020"), "{msg}");
    }

    #[test]
    fn broken_manifest_error_under_each_policy() {
        // No global output: the structural check refuses the graph.
        let mut m = manifest();
        m.graph.outputs.clear();
        let structural = m.graph.validate().unwrap_err();
        let deny = deploy(&m, &DeployOptions::new()).unwrap_err();
        assert_eq!(deny.code(), "CG012", "{deny}");
        assert!(deny.to_string().contains(structural.code()), "{deny}");
        for policy in [VerifyPolicy::Warn, VerifyPolicy::Off] {
            let err = deploy(&m, &DeployOptions::new().verify(policy)).unwrap_err();
            assert_eq!(err, structural, "{policy:?}");
        }
    }

    #[test]
    fn verify_off_skips_the_gate() {
        let m = manifest();
        assert!(m.lint().is_clean());
        let opts = DeployOptions::new().verify(VerifyPolicy::Off);
        assert!(deploy(&m, &opts).is_ok());
    }
}
