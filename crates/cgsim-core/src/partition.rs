//! Graph partitioning along realm boundaries (§4.3).
//!
//! After deserializing a graph, the extractor splits it into per-realm
//! subgraphs and classifies every connector:
//!
//! * **intra-realm** — all endpoints inside one realm; becomes an internal
//!   connection of that realm's generated project,
//! * **inter-realm** — endpoints in different realms; each side gets an
//!   external interface (e.g. a PLIO on the AIE side),
//! * **global** — data enters or leaves the whole graph.
//!
//! The classification is attached per connector so realm backends can emit
//! the appropriate internal connections and external interfaces.

use crate::analysis::Topology;
use crate::flat::{Endpoint, FlatGraph};
use crate::id::{ConnectorId, KernelId};
use crate::kernel::PortDir;
use crate::realm::Realm;
use serde::{Deserialize, Serialize};

/// Classification of one connector (§4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConnectorClass {
    /// All endpoints within `realm`.
    Intra(Realm),
    /// Endpoints span at least two realms.
    Inter,
    /// The connector is a global input/output of the graph (possibly in
    /// addition to internal uses).
    Global,
}

/// One crossing of a realm boundary, from the perspective of a single realm.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundaryPort {
    /// The connector crossing the boundary.
    pub connector: ConnectorId,
    /// Direction relative to the realm: `In` = data flows into the realm.
    pub dir: PortDir,
    /// Kernel endpoints *inside* the realm touching this connector.
    pub endpoints: Vec<Endpoint>,
}

/// The kernels of one realm plus its boundary interface.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RealmSubgraph {
    /// The realm this subgraph targets.
    pub realm: Realm,
    /// Kernels assigned to the realm, in graph order.
    pub kernels: Vec<KernelId>,
    /// Connectors fully internal to the realm.
    pub internal: Vec<ConnectorId>,
    /// Boundary crossings (inter-realm or global), in connector order.
    pub boundary: Vec<BoundaryPort>,
}

/// Result of partitioning a graph by realm.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RealmPartition {
    /// Per-connector classification, indexed by [`ConnectorId`].
    pub classes: Vec<ConnectorClass>,
    /// One subgraph per realm that owns at least one kernel, in
    /// [`Realm::ALL`] order.
    pub subgraphs: Vec<RealmSubgraph>,
}

impl RealmPartition {
    /// Partition `graph` along its realm annotations.
    ///
    /// Panics if the graph is structurally broken (a connector without any
    /// endpoint); use [`RealmPartition::try_of`] to get the `CG0xx`-coded
    /// [`crate::GraphError`] instead.
    pub fn of(graph: &FlatGraph) -> RealmPartition {
        Self::try_of(graph).expect("graph failed realm partitioning — see FlatGraph::validate")
    }

    /// Partition `graph`, reporting structural problems as [`crate::GraphError`]
    /// values with stable diagnostic codes instead of panicking. A connector
    /// with no endpoint at all surfaces as `CG004`
    /// ([`crate::GraphError::DanglingConnector`]).
    pub fn try_of(graph: &FlatGraph) -> crate::error::Result<RealmPartition> {
        let topo = &Topology::of(graph);
        let classes = (0..graph.connectors.len())
            .map(|ci| classify(graph, topo, ConnectorId::new(ci)))
            .collect::<crate::error::Result<Vec<ConnectorClass>>>()?;

        let subgraphs = Realm::ALL
            .into_iter()
            .filter_map(|realm| build_subgraph(graph, topo, &classes, realm))
            .collect();

        Ok(RealmPartition { classes, subgraphs })
    }

    /// The subgraph for `realm`, if any kernel targets it.
    pub fn subgraph(&self, realm: Realm) -> Option<&RealmSubgraph> {
        self.subgraphs.iter().find(|s| s.realm == realm)
    }

    /// Classification of connector `c`.
    pub fn class_of(&self, c: ConnectorId) -> ConnectorClass {
        self.classes[c.index()]
    }
}

impl RealmSubgraph {
    /// Materialise this realm's portion of `graph` as a standalone
    /// [`FlatGraph`]: kernels and connectors are re-indexed, and every
    /// boundary crossing becomes a global input/output of the subgraph —
    /// exactly the shape a realm backend deploys (and the cycle simulator
    /// can run in isolation).
    pub fn extract(&self, graph: &FlatGraph) -> FlatGraph {
        use std::collections::HashMap;

        // Re-index the connectors the realm touches, in first-use order.
        let mut connector_map: HashMap<ConnectorId, usize> = HashMap::new();
        let mut connectors = Vec::new();
        let remap = |c: ConnectorId,
                     connector_map: &mut HashMap<ConnectorId, usize>,
                     connectors: &mut Vec<crate::flat::FlatConnector>| {
            *connector_map.entry(c).or_insert_with(|| {
                connectors.push(graph.connectors[c.index()].clone());
                connectors.len() - 1
            })
        };

        let mut kernels = Vec::with_capacity(self.kernels.len());
        for &old in &self.kernels {
            let k = &graph.kernels[old.index()];
            let ports = k
                .ports
                .iter()
                .map(|p| {
                    let new_c = remap(p.connector, &mut connector_map, &mut connectors);
                    crate::flat::FlatPort {
                        connector: ConnectorId::new(new_c),
                        ..p.clone()
                    }
                })
                .collect();
            kernels.push(crate::flat::FlatKernel { ports, ..k.clone() });
        }
        // Boundary crossings become the subgraph's global I/O, in the
        // partition's deterministic order.
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for b in &self.boundary {
            let new_c = remap(b.connector, &mut connector_map, &mut connectors);
            match b.dir {
                PortDir::In => inputs.push(ConnectorId::new(new_c)),
                PortDir::Out => outputs.push(ConnectorId::new(new_c)),
            }
        }

        FlatGraph {
            name: format!("{}_{}", graph.name, self.realm),
            kernels,
            connectors,
            inputs,
            outputs,
        }
    }
}

fn classify(
    graph: &FlatGraph,
    topo: &Topology,
    c: ConnectorId,
) -> crate::error::Result<ConnectorClass> {
    if topo.is_global_input(c) || topo.is_global_output(c) {
        return Ok(ConnectorClass::Global);
    }
    let mut realms = (topo.producers(c).iter())
        .chain(topo.consumers(c))
        .map(|e| graph.kernels[e.kernel.index()].realm);
    // `validate()` guarantees at least one endpoint on a non-global
    // connector; descriptors that skipped validation get the coded error.
    let first = realms
        .next()
        .ok_or(crate::GraphError::DanglingConnector { connector: c })?;
    Ok(if realms.all(|r| r == first) {
        ConnectorClass::Intra(first)
    } else {
        ConnectorClass::Inter
    })
}

fn build_subgraph(
    graph: &FlatGraph,
    topo: &Topology,
    classes: &[ConnectorClass],
    realm: Realm,
) -> Option<RealmSubgraph> {
    let kernels: Vec<KernelId> = graph
        .kernels
        .iter()
        .enumerate()
        .filter(|(_, k)| k.realm == realm)
        .map(|(i, _)| KernelId::new(i))
        .collect();
    if kernels.is_empty() {
        return None;
    }

    let mut internal = Vec::new();
    let mut boundary = Vec::new();
    for (ci, class) in classes.iter().enumerate() {
        let c = ConnectorId::new(ci);
        match class {
            ConnectorClass::Intra(r) if *r == realm => internal.push(c),
            ConnectorClass::Intra(_) => {}
            ConnectorClass::Inter | ConnectorClass::Global => {
                // Find this realm's endpoints on the crossing connector.
                let inside = |e: &Endpoint| graph.kernels[e.kernel.index()].realm == realm;
                let readers: Vec<Endpoint> =
                    topo.consumers(c).iter().copied().filter(inside).collect();
                let writers: Vec<Endpoint> =
                    topo.producers(c).iter().copied().filter(inside).collect();
                // A connector both read and written inside the realm while
                // also crossing the boundary yields two boundary ports (one
                // per direction), matching how a physical design would need
                // both an input and an output interface.
                if !readers.is_empty() {
                    boundary.push(BoundaryPort {
                        connector: c,
                        dir: PortDir::In,
                        endpoints: readers,
                    });
                }
                if !writers.is_empty() {
                    boundary.push(BoundaryPort {
                        connector: c,
                        dir: PortDir::Out,
                        endpoints: writers,
                    });
                }
            }
        }
    }
    Some(RealmSubgraph {
        realm,
        kernels,
        internal,
        boundary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::kernel::{KernelDecl, KernelMeta, PortSig};
    use crate::settings::PortSettings;

    struct AiePass;
    impl KernelDecl for AiePass {
        const NAME: &'static str = "aie_pass";
        const REALM: Realm = Realm::Aie;
        fn meta() -> KernelMeta {
            KernelMeta {
                name: Self::NAME.into(),
                realm: Self::REALM,
                ports: vec![
                    PortSig::read::<i32>("in", PortSettings::DEFAULT),
                    PortSig::write::<i32>("out", PortSettings::DEFAULT),
                ],
            }
        }
    }

    struct HostPass;
    impl KernelDecl for HostPass {
        const NAME: &'static str = "host_pass";
        const REALM: Realm = Realm::NoExtract;
        fn meta() -> KernelMeta {
            KernelMeta {
                name: Self::NAME.into(),
                realm: Self::REALM,
                ports: vec![
                    PortSig::read::<i32>("in", PortSettings::DEFAULT),
                    PortSig::write::<i32>("out", PortSettings::DEFAULT),
                ],
            }
        }
    }

    /// input → aie → aie → host → output: one intra-AIE wire, one
    /// inter-realm wire, two global connectors.
    fn mixed_graph() -> FlatGraph {
        GraphBuilder::build("mixed", |g| {
            let a = g.input::<i32>("a");
            let b = g.wire::<i32>();
            let c = g.wire::<i32>();
            let d = g.wire::<i32>();
            g.invoke::<AiePass>(&[a.id(), b.id()])?;
            g.invoke::<AiePass>(&[b.id(), c.id()])?;
            g.invoke::<HostPass>(&[c.id(), d.id()])?;
            g.output(&d);
            Ok(())
        })
        .unwrap()
    }

    #[test]
    fn classification_matches_paper_categories() {
        let g = mixed_graph();
        let p = RealmPartition::of(&g);
        assert_eq!(p.class_of(ConnectorId::new(0)), ConnectorClass::Global);
        assert_eq!(
            p.class_of(ConnectorId::new(1)),
            ConnectorClass::Intra(Realm::Aie)
        );
        assert_eq!(p.class_of(ConnectorId::new(2)), ConnectorClass::Inter);
        assert_eq!(p.class_of(ConnectorId::new(3)), ConnectorClass::Global);
    }

    #[test]
    fn aie_subgraph_has_expected_boundary() {
        let g = mixed_graph();
        let p = RealmPartition::of(&g);
        let aie = p.subgraph(Realm::Aie).unwrap();
        assert_eq!(aie.kernels.len(), 2);
        assert_eq!(aie.internal, vec![ConnectorId::new(1)]);
        // Boundary: global input read by k0 (In) and inter-realm wire written
        // by k1 (Out).
        assert_eq!(aie.boundary.len(), 2);
        assert!(aie
            .boundary
            .iter()
            .any(|b| b.connector == ConnectorId::new(0) && b.dir == PortDir::In));
        assert!(aie
            .boundary
            .iter()
            .any(|b| b.connector == ConnectorId::new(2) && b.dir == PortDir::Out));
    }

    #[test]
    fn host_subgraph_has_expected_boundary() {
        let g = mixed_graph();
        let p = RealmPartition::of(&g);
        let host = p.subgraph(Realm::NoExtract).unwrap();
        assert_eq!(host.kernels.len(), 1);
        assert!(host.internal.is_empty());
        assert_eq!(host.boundary.len(), 2);
    }

    #[test]
    fn absent_realms_produce_no_subgraph() {
        let g = mixed_graph();
        let p = RealmPartition::of(&g);
        assert!(p.subgraph(Realm::Hls).is_none());
        assert_eq!(p.subgraphs.len(), 2);
    }

    #[test]
    fn single_realm_graph_has_no_inter_connectors() {
        let g = GraphBuilder::build("pure", |g| {
            let a = g.input::<i32>("a");
            let b = g.wire::<i32>();
            g.invoke::<AiePass>(&[a.id(), b.id()])?;
            g.output(&b);
            Ok(())
        })
        .unwrap();
        let p = RealmPartition::of(&g);
        assert!(!p.classes.contains(&ConnectorClass::Inter));
    }

    #[test]
    fn extracted_subgraph_is_standalone_and_valid() {
        let g = mixed_graph();
        let p = RealmPartition::of(&g);
        let aie = p.subgraph(Realm::Aie).unwrap().extract(&g);
        aie.validate().unwrap();
        assert_eq!(aie.name, "mixed_aie");
        assert_eq!(aie.kernels.len(), 2);
        // The global input and the inter-realm wire became the subgraph's
        // global ports.
        assert_eq!(aie.inputs.len(), 1);
        assert_eq!(aie.outputs.len(), 1);
        // Only connectors the realm touches survive.
        assert_eq!(aie.connectors.len(), 3);

        let host = p.subgraph(Realm::NoExtract).unwrap().extract(&g);
        host.validate().unwrap();
        assert_eq!(host.kernels.len(), 1);
        assert_eq!(host.connectors.len(), 2);
    }

    #[test]
    fn extracted_subgraph_preserves_settings_and_attrs() {
        let g = GraphBuilder::build("s", |g| {
            let a = g.input::<i32>("a");
            let b = g.wire::<i32>();
            let z = g.wire::<i32>();
            g.attr(&b, "plio_name", "boundary");
            g.connector_settings(&b, PortSettings::new().depth(4));
            g.invoke::<AiePass>(&[a.id(), b.id()])?;
            g.invoke::<HostPass>(&[b.id(), z.id()])?;
            g.output(&z);
            Ok(())
        })
        .unwrap();
        let p = RealmPartition::of(&g);
        let aie = p.subgraph(Realm::Aie).unwrap().extract(&g);
        aie.validate().unwrap();
        let boundary = &aie.connectors[aie.outputs[0].index()];
        assert_eq!(boundary.attrs.get_str("plio_name"), Some("boundary"));
        assert_eq!(boundary.settings.depth, 4);
    }

    #[test]
    fn global_connector_with_internal_reader_and_writer_gets_two_boundary_ports() {
        // A single connector that is a global output but also read back by an
        // AIE kernel: the realm needs both an output and an input interface.
        let g = GraphBuilder::build("loopy", |g| {
            let a = g.input::<i32>("a");
            let m = g.wire::<i32>();
            let z = g.wire::<i32>();
            g.invoke::<AiePass>(&[a.id(), m.id()])?;
            g.invoke::<AiePass>(&[m.id(), z.id()])?;
            g.output(&m);
            g.output(&z);
            Ok(())
        })
        .unwrap();
        let p = RealmPartition::of(&g);
        let aie = p.subgraph(Realm::Aie).unwrap();
        let m_ports: Vec<_> = aie
            .boundary
            .iter()
            .filter(|b| b.connector == ConnectorId::new(1))
            .collect();
        assert_eq!(m_ports.len(), 2);
    }

    #[test]
    fn try_of_reports_dangling_connector_with_code() {
        // A connector with no endpoint at all: `of` would panic, `try_of`
        // returns the coded error the lint framework reuses.
        let mut g = mixed_graph();
        g.connectors.push(crate::flat::FlatConnector {
            dtype: crate::dtype::DTypeDesc::of::<i32>(),
            settings: PortSettings::DEFAULT,
            kind: crate::kernel::PortKind::Stream,
            attrs: crate::attrs::AttrList::new(),
        });
        let err = RealmPartition::try_of(&g).unwrap_err();
        assert_eq!(err.code(), "CG004");
        assert!(matches!(
            err,
            crate::GraphError::DanglingConnector { connector } if connector.index() == 4
        ));
        // Sound graphs still partition.
        assert!(RealmPartition::try_of(&mixed_graph()).is_ok());
    }
}
