//! The flattened, array-based compute-graph representation (§3.5).
//!
//! During construction the graph exists as an object web (the paper:
//! `constexpr new` allocations linked by pointers; here: builder-internal
//! state). Because that form cannot cross the construction boundary, cgsim
//! flattens it: kernels, ports and connectors become arrays, and every
//! cross-reference becomes an index ([`crate::id`]). The flattened form is
//! what
//!
//! * the runtime deserializer re-instantiates on the heap (§3.6),
//! * the graph extractor evaluates out of user source files (§4.2), and
//! * the AIE code generator consumes (§4.7).
//!
//! It is fully `serde`-serializable so extractor and simulators can exchange
//! it as a deployment manifest.
//!
//! `FlatGraph` is plain data: ports name their connectors, and nothing here
//! scans them. [`crate::analysis::Topology`] owns endpoint lookup (one
//! O(kernels + ports) pass), and [`crate::analysis::CheckedGraph`] is a
//! graph that passed [`FlatGraph::structural_findings`] with the index the
//! check ran on.

use crate::analysis::{CheckedGraph, Topology};
use crate::attrs::AttrList;
use crate::dtype::DTypeDesc;
use crate::error::{check_index, GraphError, Result};
use crate::id::{ConnectorId, KernelId};
use crate::kernel::{PortDir, PortKind};
use crate::realm::Realm;
use crate::settings::PortSettings;
use serde::{Deserialize, Serialize};

/// One kernel port in flattened form: everything [`crate::kernel::PortSig`]
/// declares, plus the connector it is bound to.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlatPort {
    /// Parameter name from the kernel signature.
    pub name: String,
    /// Direction from the kernel's perspective.
    pub dir: PortDir,
    /// Element type.
    pub dtype: DTypeDesc,
    /// Port-declared (unmerged) settings.
    pub settings: PortSettings,
    /// Connector this port is bound to.
    pub connector: ConnectorId,
    /// Declared SDF rate (elements per firing); `0` = not declared.
    #[serde(default)]
    pub rate: u32,
}

/// One kernel instance in flattened form.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlatKernel {
    /// Registry key: the kernel definition's name (`KernelDecl::NAME`). Used
    /// to look up the executable body when re-instantiating.
    pub kind: String,
    /// Unique instance name within the graph (e.g. `adder_kernel_1`).
    pub instance: String,
    /// Execution realm annotation.
    pub realm: Realm,
    /// Ports in declaration order; binding is positional.
    pub ports: Vec<FlatPort>,
}

/// One connector (the paper's `IoConnector`) in flattened form.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlatConnector {
    /// Element type carried by the connector.
    pub dtype: DTypeDesc,
    /// Merged settings of all connected endpoints (§3.4).
    pub settings: PortSettings,
    /// Transport class derived from the merged settings.
    pub kind: PortKind,
    /// Auxiliary attributes for the extractor (PLIO names etc., §3.4).
    pub attrs: AttrList,
}

impl FlatConnector {
    /// Channel capacity in elements: the declared `depth`, or
    /// `default_depth` for a connector that declares none.
    pub fn depth_or(&self, default_depth: usize) -> usize {
        match self.settings.depth {
            0 => default_depth,
            depth => depth as usize,
        }
    }
}

/// A reference to one endpoint of a connector: which kernel, which port.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Endpoint {
    /// The kernel owning the port.
    pub kernel: KernelId,
    /// Index of the port within that kernel's `ports` array.
    pub port: usize,
}

/// Complete flattened compute graph.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlatGraph {
    /// Graph name (used for generated project/file names).
    pub name: String,
    /// Kernel instances.
    pub kernels: Vec<FlatKernel>,
    /// Connectors.
    pub connectors: Vec<FlatConnector>,
    /// Global inputs, in positional order (the paper's lambda parameters).
    pub inputs: Vec<ConnectorId>,
    /// Global outputs, in positional order (the paper's returned tuple).
    pub outputs: Vec<ConnectorId>,
}

/// Aggregate statistics about a graph, used in reports and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of kernel instances.
    pub kernels: usize,
    /// Number of connectors.
    pub connectors: usize,
    /// Connectors with more than one consumer (implicit broadcast, §3.4).
    pub broadcasts: usize,
    /// Connectors with more than one producer (implicit merge, §3.4).
    pub merges: usize,
    /// Global inputs.
    pub inputs: usize,
    /// Global outputs.
    pub outputs: usize,
}

/// Every structural finding on a graph, what
/// [`FlatGraph::structural_findings`] returns.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StructuralFindings {
    /// Each finding in check order, with the kernel port it was found on
    /// when it sits on one (a type mismatch does).
    pub findings: Vec<(GraphError, Option<Endpoint>)>,
    /// Some id pointed outside its array: the descriptor is corrupt, so
    /// the per-connector checks did not run and no later analysis may
    /// index into it.
    pub out_of_range: bool,
}

/// The first field in which `stored` and `merged` differ, with both
/// values (a flag reads 0 or 1).
fn first_difference(
    stored: PortSettings,
    merged: PortSettings,
) -> Option<(&'static str, u32, u32)> {
    let flag = |set: bool| u32::from(set);
    [
        ("beat_bytes", stored.beat_bytes, merged.beat_bytes),
        ("window_bytes", stored.window_bytes, merged.window_bytes),
        ("depth", stored.depth, merged.depth),
        (
            "runtime_param",
            flag(stored.runtime_param),
            flag(merged.runtime_param),
        ),
        ("ping_pong", flag(stored.ping_pong), flag(merged.ping_pong)),
    ]
    .into_iter()
    .find(|(_, stored, merged)| stored != merged)
}

impl FlatGraph {
    /// Display name of connector `ci`: the builder-given name when there
    /// is one (`g.input::<T>("a")`), else positional `c{ci}` — the name
    /// every engine's channel report, trace and rendered table uses.
    pub fn connector_name(&self, ci: usize) -> String {
        self.connectors
            .get(ci)
            .and_then(|c| c.attrs.get_str("name"))
            .map_or_else(|| format!("c{ci}"), str::to_owned)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> GraphStats {
        let mut stats = GraphStats {
            kernels: self.kernels.len(),
            connectors: self.connectors.len(),
            inputs: self.inputs.len(),
            outputs: self.outputs.len(),
            ..GraphStats::default()
        };
        let topo = Topology::of(self);
        for ci in 0..self.connectors.len() {
            let c = ConnectorId::new(ci);
            stats.broadcasts += usize::from(topo.readers(c) > 1);
            stats.merges += usize::from(topo.writers(c) > 1);
        }
        stats
    }

    /// Every structural finding on the graph, in check order, over its
    /// connector index `topo` ([`Topology::of`] the graph) — the one
    /// implementation of the invariants [`CheckedGraph::new`] enforces and
    /// `cgsim-lint` reports.
    ///
    /// Builder-produced graphs have none; the check exists because
    /// flattened graphs also arrive from the extractor's interpreter and
    /// from disk, where every invariant the C++ type system enforced
    /// statically must be re-checked dynamically:
    ///
    /// 1. global input/output ids are in range (`CG006`),
    /// 2. the global port lists hold no duplicates (`CG007`),
    /// 3. every port's connector id is in range (`CG006`), and port and
    ///    connector element types agree (`CG001`, found on that port),
    /// 4. every connector has a producer, kernel output or global input
    ///    (`CG004`), and a consumer, kernel input or global output
    ///    (`CG005`); its endpoint settings merge cleanly (`CG003`), and the
    ///    merge equals its stored settings (`CG013`) (§3.4).
    ///
    /// Step 4 runs only when every id is in range.
    pub fn structural_findings(&self, topo: &Topology) -> StructuralFindings {
        let ncon = self.connectors.len();
        let mut findings = Vec::new();
        for id in self.inputs.iter().chain(&self.outputs) {
            if let Err(e) = check_index("connector", id.index(), ncon) {
                findings.push((e, None));
            }
        }
        for list in [&self.inputs, &self.outputs] {
            // Ids out of range are CG006 already.
            let mut seen = vec![false; ncon];
            for id in list.iter().filter(|id| id.index() < ncon) {
                if std::mem::replace(&mut seen[id.index()], true) {
                    findings.push((GraphError::DuplicateGlobal { connector: *id }, None));
                }
            }
        }
        for (ki, k) in self.kernels.iter().enumerate() {
            for (pi, p) in k.ports.iter().enumerate() {
                if let Err(e) = check_index("connector", p.connector.index(), ncon) {
                    findings.push((e, None));
                    continue;
                }
                let c = &self.connectors[p.connector.index()];
                if !p.dtype.compatible(&c.dtype) {
                    let error = GraphError::TypeMismatch {
                        kernel: k.instance.clone(),
                        port: p.name.clone(),
                        port_type: Box::new(p.dtype.clone()),
                        connector_type: Box::new(c.dtype.clone()),
                    };
                    let port = Endpoint {
                        kernel: KernelId::new(ki),
                        port: pi,
                    };
                    findings.push((error, Some(port)));
                }
            }
        }
        // An id out of range marks a corrupt descriptor: stop before the
        // per-connector checks, as the deeper lint passes do.
        let out_of_range = findings
            .iter()
            .any(|(e, _)| matches!(e, GraphError::IdOutOfRange { .. }));
        let checked = if out_of_range { 0 } else { ncon };
        let merged = self.merged_settings();
        for (ci, (connector, merged)) in
            self.connectors.iter().zip(merged).enumerate().take(checked)
        {
            let c = ConnectorId::new(ci);
            if topo.writers(c) == 0 {
                findings.push((GraphError::DanglingConnector { connector: c }, None));
            }
            if topo.readers(c) == 0 {
                findings.push((GraphError::UnconsumedConnector { connector: c }, None));
            }
            let error = match merged {
                Err(conflict) => conflict,
                Ok(merged) => match first_difference(connector.settings, merged) {
                    Some((field, stored, declared)) => GraphError::SettingsMismatch {
                        connector: c,
                        field,
                        stored,
                        declared,
                    },
                    None => continue,
                },
            };
            findings.push((error, None));
        }
        StructuralFindings {
            findings,
            out_of_range,
        }
    }

    /// Per connector, the settings every endpoint shares: the merge of
    /// what its ports declare, in kernel/port order so a conflict names its
    /// two values in declaration order, with what the connector stores
    /// (§3.4); or the first conflict (`CG003`). Ports whose connector id
    /// is out of range are left out.
    pub(crate) fn merged_settings(&self) -> Vec<Result<PortSettings>> {
        let mut merged = vec![Ok(PortSettings::DEFAULT); self.connectors.len()];
        for p in self.kernels.iter().flat_map(|k| &k.ports) {
            if let Some(m) = merged.get_mut(p.connector.index()) {
                *m = m.and_then(|acc: PortSettings| acc.merge(p.settings));
            }
        }
        (merged.into_iter().zip(&self.connectors).enumerate())
            .map(|(ci, (m, c))| {
                m.and_then(|acc| acc.merge(c.settings))
                    .map_err(|conflict| (ConnectorId::new(ci), conflict).into())
            })
            .collect()
    }

    /// Validate the structural invariants of a flattened graph: the first
    /// of its [`FlatGraph::structural_findings`], or `Ok`. A caller that
    /// goes on to analyse or run the graph builds a [`CheckedGraph`]
    /// instead, and keeps the index.
    pub fn validate(&self) -> Result<()> {
        CheckedGraph::new(self).map(drop)
    }

    /// Set of realms present in the graph, in [`Realm::ALL`] order.
    pub fn realms(&self) -> Vec<Realm> {
        Realm::ALL
            .into_iter()
            .filter(|r| self.kernels.iter().any(|k| k.realm == *r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-build the paper's Figure 4 graph: input a → k0 → b → k1 → c →
    /// output.
    pub(crate) fn fig4_graph() -> FlatGraph {
        let dtype = DTypeDesc::of::<i32>();
        let port = |name: &str, dir, c: usize| FlatPort {
            name: name.into(),
            dir,
            dtype: dtype.clone(),
            settings: PortSettings::DEFAULT,
            connector: ConnectorId::new(c),
            rate: 0,
        };
        let kernel = |n: usize, cin: usize, cout: usize| FlatKernel {
            kind: "k".into(),
            instance: format!("k_{n}"),
            realm: Realm::Aie,
            ports: vec![
                port("in", PortDir::In, cin),
                port("out", PortDir::Out, cout),
            ],
        };
        let connector = || FlatConnector {
            dtype: dtype.clone(),
            settings: PortSettings::DEFAULT,
            kind: PortKind::Stream,
            attrs: AttrList::new(),
        };
        FlatGraph {
            name: "fig4".into(),
            kernels: vec![kernel(0, 0, 1), kernel(1, 1, 2)],
            connectors: vec![connector(), connector(), connector()],
            inputs: vec![ConnectorId::new(0)],
            outputs: vec![ConnectorId::new(2)],
        }
    }

    #[test]
    fn fig4_validates() {
        fig4_graph().validate().unwrap();
    }

    #[test]
    fn fig4_stats() {
        let stats = fig4_graph().stats();
        assert_eq!(stats.kernels, 2);
        assert_eq!(stats.connectors, 3);
        assert_eq!(stats.broadcasts, 0);
        assert_eq!(stats.merges, 0);
    }

    #[test]
    fn each_broken_invariant_is_its_code() {
        type Break = fn(&mut FlatGraph);
        let cases: [(Break, &str); 6] = [
            (|g| g.inputs.clear(), "CG004"),  // c0 has no producer
            (|g| g.outputs.clear(), "CG005"), // c2 has no consumer
            (|g| g.connectors[1].dtype = DTypeDesc::of::<f64>(), "CG001"),
            (
                |g| g.kernels[0].ports[1].connector = ConnectorId::new(99),
                "CG006",
            ),
            (|g| g.outputs.push(ConnectorId::new(2)), "CG007"),
            (
                |g| {
                    g.kernels[0].ports[1].settings = PortSettings::new().beat_bytes(4);
                    g.kernels[1].ports[0].settings = PortSettings::new().beat_bytes(16);
                },
                "CG003",
            ),
        ];
        for (break_it, code) in cases {
            let mut g = fig4_graph();
            break_it(&mut g);
            assert_eq!(g.validate().unwrap_err().code(), code);
        }
    }

    #[test]
    fn stored_settings_that_ignore_a_declared_port_setting_are_cg013() {
        // The port declares depth 8; its connector still stores the
        // default, so every engine would size the channel from the default.
        let mut g = fig4_graph();
        g.kernels[0].ports[1].settings = PortSettings::new().depth(8);
        let err = g.validate().unwrap_err();
        assert_eq!(
            err,
            GraphError::SettingsMismatch {
                connector: ConnectorId::new(1),
                field: "depth",
                stored: 0,
                declared: 8,
            }
        );
        assert_eq!(err.code(), "CG013");
        assert!(err.message().contains("`depth`"), "{err}");

        // Stored settings the endpoints leave unset are no mismatch.
        let mut g = fig4_graph();
        g.connectors[1].settings = PortSettings::new().depth(8).ping_pong();
        g.validate().unwrap();
    }

    #[test]
    fn structural_findings_collect_every_error_in_check_order() {
        let mut g = fig4_graph();
        g.outputs.push(ConnectorId::new(2)); // CG007
        g.connectors[1].dtype = DTypeDesc::of::<f64>(); // CG001 on both ports
        g.kernels[1].ports[1].settings = PortSettings::new().beat_bytes(4); // CG013
        let found = g.structural_findings(&Topology::of(&g));
        assert!(!found.out_of_range);
        let codes: Vec<_> = found.findings.iter().map(|(e, _)| e.code()).collect();
        assert_eq!(codes, ["CG007", "CG001", "CG001", "CG013"]);
        let ports: Vec<_> = found.findings.iter().map(|(_, p)| *p).collect();
        let port = |k: usize, port| {
            Some(Endpoint {
                kernel: KernelId::new(k),
                port,
            })
        };
        assert_eq!(ports, [None, port(0, 1), port(1, 0), None]);
        assert_eq!(g.validate().unwrap_err().code(), "CG007");

        // An out-of-range id stops before the per-connector checks.
        g.inputs.clear(); // c0 would now be dangling
        g.kernels[0].ports[0].connector = ConnectorId::new(99);
        let found = g.structural_findings(&Topology::of(&g));
        assert!(found.out_of_range);
        let codes: Vec<_> = found.findings.iter().map(|(e, _)| e.code()).collect();
        assert_eq!(codes, ["CG007", "CG006", "CG001", "CG001"]);
    }

    #[test]
    fn broadcast_and_merge_counted() {
        let mut g = fig4_graph();
        // Second consumer on c1 → broadcast; second producer on c1 → merge.
        let extra_reader = FlatKernel {
            kind: "k".into(),
            instance: "k_2".into(),
            realm: Realm::Aie,
            ports: vec![
                FlatPort {
                    name: "in".into(),
                    dir: PortDir::In,
                    dtype: DTypeDesc::of::<i32>(),
                    settings: PortSettings::DEFAULT,
                    connector: ConnectorId::new(1),
                    rate: 0,
                },
                FlatPort {
                    name: "out".into(),
                    dir: PortDir::Out,
                    dtype: DTypeDesc::of::<i32>(),
                    settings: PortSettings::DEFAULT,
                    connector: ConnectorId::new(1),
                    rate: 0,
                },
            ],
        };
        g.kernels.push(extra_reader);
        let stats = g.stats();
        assert_eq!(stats.broadcasts, 1);
        assert_eq!(stats.merges, 1);
        g.validate().unwrap();
    }

    #[test]
    fn serde_roundtrip() {
        let g = fig4_graph();
        let j = serde_json::to_string_pretty(&g).unwrap();
        let back: FlatGraph = serde_json::from_str(&j).unwrap();
        assert_eq!(back, g);
        back.validate().unwrap();
    }

    #[test]
    fn realms_reported_in_stable_order() {
        let mut g = fig4_graph();
        g.kernels[1].realm = Realm::NoExtract;
        assert_eq!(g.realms(), vec![Realm::Aie, Realm::NoExtract]);
    }
}
