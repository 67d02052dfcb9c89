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

impl FlatGraph {
    /// Kernel by id (checked).
    pub fn kernel(&self, id: KernelId) -> Result<&FlatKernel> {
        check_index("kernel", id.index(), self.kernels.len())?;
        Ok(&self.kernels[id.index()])
    }

    /// Connector by id (checked).
    pub fn connector(&self, id: ConnectorId) -> Result<&FlatConnector> {
        check_index("connector", id.index(), self.connectors.len())?;
        Ok(&self.connectors[id.index()])
    }

    /// All kernel endpoints writing to `c`.
    pub fn producers_of(&self, c: ConnectorId) -> Vec<Endpoint> {
        self.endpoints_of(c, PortDir::Out)
    }

    /// All kernel endpoints reading from `c`.
    pub fn consumers_of(&self, c: ConnectorId) -> Vec<Endpoint> {
        self.endpoints_of(c, PortDir::In)
    }

    fn endpoints_of(&self, c: ConnectorId, dir: PortDir) -> Vec<Endpoint> {
        let mut out = Vec::new();
        for (ki, k) in self.kernels.iter().enumerate() {
            for (pi, p) in k.ports.iter().enumerate() {
                if p.connector == c && p.dir == dir {
                    out.push(Endpoint {
                        kernel: KernelId::new(ki),
                        port: pi,
                    });
                }
            }
        }
        out
    }

    /// Whether `c` is a global input of the graph.
    pub fn is_global_input(&self, c: ConnectorId) -> bool {
        self.inputs.contains(&c)
    }

    /// Whether `c` is a global output of the graph.
    pub fn is_global_output(&self, c: ConnectorId) -> bool {
        self.outputs.contains(&c)
    }

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
        for ci in 0..self.connectors.len() {
            let c = ConnectorId::new(ci);
            let readers = self.consumers_of(c).len() + usize::from(self.is_global_output(c));
            let writers = self.producers_of(c).len() + usize::from(self.is_global_input(c));
            if readers > 1 {
                stats.broadcasts += 1;
            }
            if writers > 1 {
                stats.merges += 1;
            }
        }
        stats
    }

    /// Validate structural invariants of a flattened graph.
    ///
    /// Builder-produced graphs always pass; this exists because flattened
    /// graphs also arrive from the extractor's interpreter and from disk,
    /// where every invariant the C++ type system enforced statically must be
    /// re-checked dynamically:
    ///
    /// 1. every port's connector id is in range,
    /// 2. port and connector element types agree,
    /// 3. every connector has a producer (kernel output or global input),
    /// 4. every connector has a consumer (kernel input or global output),
    /// 5. global port lists contain no duplicates and no out-of-range ids,
    /// 6. endpoint settings merge cleanly and match the stored merged
    ///    settings (§3.4).
    pub fn validate(&self) -> Result<()> {
        for id in self.inputs.iter().chain(&self.outputs) {
            check_index("connector", id.index(), self.connectors.len())?;
        }
        for (i, id) in self.inputs.iter().enumerate() {
            if self.inputs[..i].contains(id) {
                return Err(GraphError::DuplicateGlobal { connector: *id });
            }
        }
        for (i, id) in self.outputs.iter().enumerate() {
            if self.outputs[..i].contains(id) {
                return Err(GraphError::DuplicateGlobal { connector: *id });
            }
        }

        for k in &self.kernels {
            for p in &k.ports {
                check_index("connector", p.connector.index(), self.connectors.len())?;
                let c = &self.connectors[p.connector.index()];
                if !p.dtype.compatible(&c.dtype) {
                    return Err(GraphError::TypeMismatch {
                        kernel: k.instance.clone(),
                        port: p.name.clone(),
                        port_type: Box::new(p.dtype.clone()),
                        connector_type: Box::new(c.dtype.clone()),
                    });
                }
            }
        }

        for ci in 0..self.connectors.len() {
            let c = ConnectorId::new(ci);
            let produced = !self.producers_of(c).is_empty() || self.is_global_input(c);
            let consumed = !self.consumers_of(c).is_empty() || self.is_global_output(c);
            if !produced {
                return Err(GraphError::DanglingConnector { connector: c });
            }
            if !consumed {
                return Err(GraphError::UnconsumedConnector { connector: c });
            }

            // Re-merge endpoint settings and compare with the stored merge.
            let endpoint_settings = self.kernels.iter().flat_map(|k| {
                k.ports
                    .iter()
                    .filter(|p| p.connector == c)
                    .map(|p| p.settings)
            });
            let merged = PortSettings::merge_all(endpoint_settings)
                .map_err(|conflict| GraphError::IncompatibleSettings {
                    connector: c,
                    conflict,
                })?
                .merge(self.connectors[ci].settings)
                .map_err(|conflict| GraphError::IncompatibleSettings {
                    connector: c,
                    conflict,
                })?;
            debug_assert_eq!(merged, self.connectors[ci].settings);
        }
        Ok(())
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
    fn fig4_topology_queries() {
        let g = fig4_graph();
        assert_eq!(g.producers_of(ConnectorId::new(1)).len(), 1);
        assert_eq!(g.consumers_of(ConnectorId::new(1)).len(), 1);
        assert!(g.is_global_input(ConnectorId::new(0)));
        assert!(g.is_global_output(ConnectorId::new(2)));
        assert!(!g.is_global_input(ConnectorId::new(1)));
        let stats = g.stats();
        assert_eq!(stats.kernels, 2);
        assert_eq!(stats.connectors, 3);
        assert_eq!(stats.broadcasts, 0);
        assert_eq!(stats.merges, 0);
    }

    #[test]
    fn dangling_connector_detected() {
        let mut g = fig4_graph();
        g.inputs.clear(); // c0 now has no producer
        assert!(matches!(
            g.validate(),
            Err(GraphError::DanglingConnector { .. })
        ));
    }

    #[test]
    fn unconsumed_connector_detected() {
        let mut g = fig4_graph();
        g.outputs.clear(); // c2 now has no consumer
        assert!(matches!(
            g.validate(),
            Err(GraphError::UnconsumedConnector { .. })
        ));
    }

    #[test]
    fn type_mismatch_detected() {
        let mut g = fig4_graph();
        g.connectors[1].dtype = DTypeDesc::of::<f64>();
        assert!(matches!(g.validate(), Err(GraphError::TypeMismatch { .. })));
    }

    #[test]
    fn out_of_range_port_connector_detected() {
        let mut g = fig4_graph();
        g.kernels[0].ports[1].connector = ConnectorId::new(99);
        assert!(matches!(g.validate(), Err(GraphError::IdOutOfRange { .. })));
    }

    #[test]
    fn duplicate_global_detected() {
        let mut g = fig4_graph();
        g.outputs.push(ConnectorId::new(2));
        assert!(matches!(
            g.validate(),
            Err(GraphError::DuplicateGlobal { .. })
        ));
    }

    #[test]
    fn settings_conflict_detected() {
        let mut g = fig4_graph();
        g.kernels[0].ports[1].settings = PortSettings::new().beat_bytes(4);
        g.kernels[1].ports[0].settings = PortSettings::new().beat_bytes(16);
        assert!(matches!(
            g.validate(),
            Err(GraphError::IncompatibleSettings { .. })
        ));
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
