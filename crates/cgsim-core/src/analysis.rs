//! Structural graph analysis.
//!
//! [`Topology`] is the one derived view of a [`FlatGraph`] and the one
//! owner of endpoint lookup: which kernel ports write or read a connector,
//! and the one topological order over kernels built on that index.
//! [`CheckedGraph`] pairs a graph with its index once the structural check
//! has passed on it, so every layer below an entry point reads one index
//! and never checks again.

use crate::error::GraphError;
use crate::flat::{Endpoint, FlatGraph};
use crate::id::{ConnectorId, KernelId};
use crate::kernel::PortDir;
use std::collections::BTreeSet;

/// The connector index of a graph: each connector's writing and reading
/// kernel ports, and whether it is a global input or output.
///
/// [`Topology::of`] builds it in O(kernels + ports + connectors); each
/// query is then O(1). Ports and global ids out of range are left out
/// (`FlatGraph::structural_findings` reports them as `CG006`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Number of kernels in the graph.
    kernels: usize,
    /// Endpoints grouped by connector: connector `c`'s writers are
    /// `ends[start[2c]..start[2c + 1]]` and its readers
    /// `ends[start[2c + 1]..start[2c + 2]]`, each in kernel/port order.
    ends: Vec<Endpoint>,
    start: Vec<usize>,
    global_input: Vec<bool>,
    global_output: Vec<bool>,
}

impl Topology {
    /// Build the connector index of `graph`.
    pub fn of(graph: &FlatGraph) -> Topology {
        let ncon = graph.connectors.len();
        // A stable counting sort of the ports into slots: 2c for c's
        // writers, 2c + 1 for its readers.
        let ports = graph.kernels.iter().enumerate().flat_map(|(ki, k)| {
            let kernel = KernelId::new(ki);
            k.ports.iter().enumerate().filter_map(move |(port, p)| {
                let slot = 2 * p.connector.index() + usize::from(p.dir == PortDir::In);
                (p.connector.index() < ncon).then_some((slot, Endpoint { kernel, port }))
            })
        });
        let mut start = vec![0; 2 * ncon + 1];
        for (slot, _) in ports.clone() {
            start[slot + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let (mut next, kernel, port) = (start.clone(), KernelId::new(0), 0);
        let mut ends = vec![Endpoint { kernel, port }; start[2 * ncon]];
        for (slot, end) in ports {
            ends[next[slot]] = end;
            next[slot] += 1;
        }
        let flags = |globals: &[ConnectorId]| {
            let mut flag = vec![false; ncon];
            for c in globals.iter().filter(|c| c.index() < ncon) {
                flag[c.index()] = true;
            }
            flag
        };
        Topology {
            kernels: graph.kernels.len(),
            ends,
            start,
            global_input: flags(&graph.inputs),
            global_output: flags(&graph.outputs),
        }
    }

    /// The kernel ports writing connector `c`, in kernel/port order.
    pub fn producers(&self, c: ConnectorId) -> &[Endpoint] {
        &self.ends[self.start[2 * c.index()]..self.start[2 * c.index() + 1]]
    }

    /// The kernel ports reading connector `c`, in kernel/port order.
    pub fn consumers(&self, c: ConnectorId) -> &[Endpoint] {
        &self.ends[self.start[2 * c.index() + 1]..self.start[2 * c.index() + 2]]
    }

    /// Whether `c` is a global input of the graph.
    pub fn is_global_input(&self, c: ConnectorId) -> bool {
        self.global_input[c.index()]
    }

    /// Whether `c` is a global output of the graph.
    pub fn is_global_output(&self, c: ConnectorId) -> bool {
        self.global_output[c.index()]
    }

    /// How many endpoints read `c`: its kernel consumers, plus the graph
    /// itself when `c` is a global output. More than one is a broadcast,
    /// none an unconsumed connector.
    pub fn readers(&self, c: ConnectorId) -> usize {
        self.consumers(c).len() + usize::from(self.is_global_output(c))
    }

    /// How many endpoints write `c`: its kernel producers, plus the graph
    /// itself when `c` is a global input. More than one is a merge, none a
    /// dangling connector.
    pub fn writers(&self, c: ConnectorId) -> usize {
        self.producers(c).len() + usize::from(self.is_global_input(c))
    }

    /// Kahn topological order over kernels, always releasing the
    /// smallest-index ready kernel first — so among the valid orders it is
    /// the one closest to declaration order, the same on every call (the
    /// schedule golden files pin it). `None` if the graph contains a
    /// feedback cycle.
    ///
    /// Each (writing port, reading port) pair of a connector is one edge,
    /// counted once into its reader's in-degree and once out of it when
    /// its writer is released, so a kernel is released with its last
    /// producer.
    pub fn topo_order(&self) -> Option<Vec<KernelId>> {
        // Every writing port as (kernel, connector), grouped by kernel;
        // there is one global-input flag per connector.
        let mut writes: Vec<(usize, ConnectorId)> = (0..self.global_input.len())
            .map(ConnectorId::new)
            .flat_map(|c| self.producers(c).iter().map(move |p| (p.kernel.index(), c)))
            .collect();
        writes.sort_unstable_by_key(|&(k, _)| k);
        let mut indegree = vec![0usize; self.kernels];
        for &(_, c) in &writes {
            for q in self.consumers(c) {
                indegree[q.kernel.index()] += 1;
            }
        }
        let mut ready: BTreeSet<usize> = (0..self.kernels).filter(|&k| indegree[k] == 0).collect();
        let mut order = Vec::with_capacity(self.kernels);
        while let Some(k) = ready.pop_first() {
            order.push(KernelId::new(k));
            let from = writes.partition_point(|&(w, _)| w < k);
            for &(_, c) in writes[from..].iter().take_while(|&&(w, _)| w == k) {
                for q in self.consumers(c) {
                    indegree[q.kernel.index()] -= 1;
                    if indegree[q.kernel.index()] == 0 {
                        ready.insert(q.kernel.index());
                    }
                }
            }
        }
        (order.len() == self.kernels).then_some(order)
    }
}

/// A [`FlatGraph`] that passed the structural check, with the connector
/// index the check ran on.
///
/// [`CheckedGraph::new`] is the only constructor and the one way to assert
/// that a graph is valid: a function that takes a `&CheckedGraph` needs no
/// check of its own and builds no index. Entry points that receive a
/// `FlatGraph` from outside build one `CheckedGraph` and hand it down.
#[derive(Clone, Debug)]
pub struct CheckedGraph<'g> {
    graph: &'g FlatGraph,
    topology: Topology,
}

impl<'g> CheckedGraph<'g> {
    /// Build `graph`'s connector index and run the structural check on it:
    /// the first of its `FlatGraph::structural_findings` is the error.
    pub fn new(graph: &'g FlatGraph) -> Result<Self, GraphError> {
        let topology = Topology::of(graph);
        let findings = graph.structural_findings(&topology).findings;
        match findings.into_iter().next() {
            Some((e, _)) => Err(e),
            None => Ok(CheckedGraph { graph, topology }),
        }
    }

    /// The checked graph.
    pub fn graph(&self) -> &'g FlatGraph {
        self.graph
    }

    /// The graph's connector index.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::kernel::{KernelDecl, KernelMeta, PortSig};
    use crate::realm::Realm;
    use crate::settings::PortSettings;

    struct P;
    impl KernelDecl for P {
        const NAME: &'static str = "p";
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

    struct Join;
    impl KernelDecl for Join {
        const NAME: &'static str = "join";
        const REALM: Realm = Realm::Aie;
        fn meta() -> KernelMeta {
            KernelMeta {
                name: Self::NAME.into(),
                realm: Self::REALM,
                ports: vec![
                    PortSig::read::<i32>("a", PortSettings::DEFAULT),
                    PortSig::read::<i32>("b", PortSettings::DEFAULT),
                    PortSig::write::<i32>("out", PortSettings::DEFAULT),
                ],
            }
        }
    }

    fn chain(n: usize) -> FlatGraph {
        GraphBuilder::build("chain", |g| {
            let mut prev = g.input::<i32>("a");
            for _ in 0..n {
                let next = g.wire::<i32>();
                g.invoke::<P>(&[prev.id(), next.id()])?;
                prev = next;
            }
            g.output(&prev);
            Ok(())
        })
        .unwrap()
    }

    #[test]
    fn chain_topology() {
        let g = chain(4);
        let t = Topology::of(&g);
        let kernels = |ends: &[Endpoint]| ends.iter().map(|e| e.kernel.index()).collect::<Vec<_>>();
        assert_eq!(kernels(t.consumers(g.inputs[0])), [0]);
        assert_eq!(kernels(t.producers(g.outputs[0])), [3]);
        assert_eq!(kernels(t.producers(ConnectorId::new(1))), [0]);
        assert_eq!(kernels(t.consumers(ConnectorId::new(1))), [1]);
        let order: Vec<usize> = t.topo_order().unwrap().iter().map(|k| k.index()).collect();
        assert_eq!(order, [0, 1, 2, 3]);
    }

    #[test]
    fn feedback_detected() {
        // p0 → p1 → p0 (feedback through connector reuse), fed and drained
        // globally so validation passes.
        let g = GraphBuilder::build("loopy", |g| {
            let a = g.input::<i32>("a");
            let fb = g.wire::<i32>();
            let out = g.wire::<i32>();
            // k0 reads a, writes fb; k1 reads fb, writes out; k2 reads out,
            // writes fb (cycle k1→k2→k1 through fb/out).
            g.invoke::<P>(&[a.id(), fb.id()])?;
            g.invoke::<P>(&[fb.id(), out.id()])?;
            g.invoke::<P>(&[out.id(), fb.id()])?;
            g.output(&out);
            Ok(())
        })
        .unwrap();
        assert!(Topology::of(&g).topo_order().is_none());
    }

    #[test]
    fn topo_order_releases_the_smallest_ready_kernel_first() {
        // Declared out of dataflow order: k0 consumes what k2 produces, and
        // k1 and k3 are both ready from the start.
        let g = GraphBuilder::build("shuffled", |g| {
            let a = g.input::<i32>("a");
            let b = g.input::<i32>("b");
            let (x, y, z, w) = (
                g.wire::<i32>(),
                g.wire::<i32>(),
                g.wire::<i32>(),
                g.wire::<i32>(),
            );
            g.invoke::<P>(&[x.id(), y.id()])?;
            g.invoke::<P>(&[b.id(), z.id()])?;
            g.invoke::<P>(&[a.id(), x.id()])?;
            g.invoke::<Join>(&[y.id(), z.id(), w.id()])?;
            g.output(&w);
            Ok(())
        })
        .unwrap();
        let t = Topology::of(&g);
        let order: Vec<usize> = t.topo_order().unwrap().iter().map(|k| k.index()).collect();
        assert_eq!(order, [1, 2, 0, 3]);
    }

    #[test]
    fn checked_graph_keeps_the_index_its_check_ran_on() {
        let g = chain(2);
        let checked = CheckedGraph::new(&g).unwrap();
        assert_eq!(checked.topology(), &Topology::of(&g));
        assert!(std::ptr::eq(checked.graph(), &g));
        let mut broken = g.clone();
        broken.outputs.clear();
        let err = CheckedGraph::new(&broken).unwrap_err();
        assert_eq!(err.code(), "CG005");
        assert_eq!(broken.validate().unwrap_err(), err);
    }
}
