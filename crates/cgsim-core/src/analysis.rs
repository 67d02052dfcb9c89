//! Structural graph analysis.
//!
//! [`Topology`] is the one derived view of a [`FlatGraph`] and the one
//! owner of endpoint lookup: which kernel ports write or read a connector.
//! Every layer that asks builds one `Topology` per graph, in one
//! O(kernels + ports) pass, or is handed one. On that index sit the
//! kernel-level dataflow relation, its one topological order and feedback
//! (cycle) detection: feedback is legal in the dataflow model but needs
//! explicit FIFO depth to avoid deadlock, so tools want to know about it.

use crate::flat::{Endpoint, FlatGraph, FlatPort};
use crate::id::{ConnectorId, KernelId};
use crate::kernel::PortDir;
use std::collections::BTreeSet;

/// Kernel-level dataflow topology of a graph over its connector index.
///
/// `succ[k]` lists the kernels fed by kernel `k` (deduplicated, in id
/// order). [`Topology::of`] builds the index in O(kernels + ports +
/// connectors); each query is then O(1). Ports and global ids out of range
/// are left out (`FlatGraph::structural_findings` reports them as `CG006`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Successor kernels per kernel.
    pub succ: Vec<Vec<KernelId>>,
    /// Predecessor kernels per kernel.
    pub pred: Vec<Vec<KernelId>>,
    /// Kernels reading at least one global input.
    pub entry: Vec<KernelId>,
    /// Kernels writing at least one global output.
    pub exit: Vec<KernelId>,
    /// Endpoints grouped by connector: connector `c`'s writers are
    /// `ends[start[2c]..start[2c + 1]]` and its readers
    /// `ends[start[2c + 1]..start[2c + 2]]`, each in kernel/port order.
    ends: Vec<Endpoint>,
    start: Vec<usize>,
    global_input: Vec<bool>,
    global_output: Vec<bool>,
}

impl Topology {
    /// Build the connector index and kernel-level topology of `graph`.
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
        let n = graph.kernels.len();
        let (mut succ, mut pred) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        for c in 0..ncon {
            let [w, r, end] = [2 * c, 2 * c + 1, 2 * c + 2].map(|slot| start[slot]);
            for p in &ends[w..r] {
                for q in &ends[r..end] {
                    succ[p.kernel.index()].push(q.kernel);
                    pred[q.kernel.index()].push(p.kernel);
                }
            }
        }
        for list in succ.iter_mut().chain(&mut pred) {
            list.sort_unstable();
            list.dedup();
        }
        let flags = |globals: &[ConnectorId]| {
            let mut flag = vec![false; ncon];
            for c in globals.iter().filter(|c| c.index() < ncon) {
                flag[c.index()] = true;
            }
            flag
        };
        let (global_input, global_output) = (flags(&graph.inputs), flags(&graph.outputs));
        let touching = |flag: &[bool]| -> Vec<KernelId> {
            let touches = |p: &FlatPort| flag.get(p.connector.index()) == Some(&true);
            (graph.kernels.iter().enumerate())
                .filter(|(_, k)| k.ports.iter().any(touches))
                .map(|(ki, _)| KernelId::new(ki))
                .collect()
        };
        Topology {
            succ,
            pred,
            entry: touching(&global_input),
            exit: touching(&global_output),
            ends,
            start,
            global_input,
            global_output,
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
    pub fn topo_order(&self) -> Option<Vec<KernelId>> {
        let n = self.succ.len();
        let mut indegree: Vec<usize> = self.pred.iter().map(Vec::len).collect();
        let mut ready: BTreeSet<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(k) = ready.pop_first() {
            order.push(KernelId::new(k));
            for s in &self.succ[k] {
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    ready.insert(s.index());
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Whether the kernel dataflow contains a feedback cycle.
    pub fn has_feedback(&self) -> bool {
        self.topo_order().is_none()
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
        assert_eq!(t.entry, vec![KernelId::new(0)]);
        assert_eq!(t.exit, vec![KernelId::new(3)]);
        assert_eq!(t.succ[0], vec![KernelId::new(1)]);
        assert_eq!(t.pred[3], vec![KernelId::new(2)]);
        assert!(!t.has_feedback());
        let order = t.topo_order().unwrap();
        assert_eq!(order.len(), 4);
        // Order respects edges.
        let pos = |k: KernelId| order.iter().position(|x| *x == k).unwrap();
        for (i, succs) in t.succ.iter().enumerate() {
            for s in succs {
                assert!(pos(KernelId::new(i)) < pos(*s));
            }
        }
    }

    #[test]
    fn diamond_topology() {
        // a → p0 → {p1, p2} → join → out
        let g = GraphBuilder::build("diamond", |g| {
            let a = g.input::<i32>("a");
            let m = g.wire::<i32>();
            let x = g.wire::<i32>();
            let y = g.wire::<i32>();
            let z = g.wire::<i32>();
            g.invoke::<P>(&[a.id(), m.id()])?;
            g.invoke::<P>(&[m.id(), x.id()])?;
            g.invoke::<P>(&[m.id(), y.id()])?;
            g.invoke::<Join>(&[x.id(), y.id(), z.id()])?;
            g.output(&z);
            Ok(())
        })
        .unwrap();
        let t = Topology::of(&g);
        assert_eq!(t.succ[0], vec![KernelId::new(1), KernelId::new(2)]);
        assert!(!t.has_feedback());
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
        let t = Topology::of(&g);
        assert!(t.has_feedback());
        assert!(t.topo_order().is_none());
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
    fn single_kernel_is_its_own_entry_and_exit() {
        let g = chain(1);
        let t = Topology::of(&g);
        assert_eq!(t.topo_order(), Some(vec![KernelId::new(0)]));
        assert_eq!(t.entry, t.exit);
    }
}
