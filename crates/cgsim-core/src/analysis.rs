//! Structural graph analysis.
//!
//! The kernel-level dataflow topology, its one topological order and
//! feedback (cycle) detection, shared by the schedule compiler, the lint
//! bounds pass and the extractor's HLS code generator. AIE graphs are
//! usually feed-forward pipelines; feedback edges are legal in the
//! dataflow model but require explicit FIFO depth to avoid deadlock, so
//! tools want to know about them.

use crate::flat::FlatGraph;
use crate::id::{ConnectorId, KernelId};
use std::collections::BTreeSet;

/// Kernel-level dataflow topology of a graph: `succ[k]` lists the kernels
/// fed by kernel `k` (deduplicated, in id order).
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
}

impl Topology {
    /// Build the kernel-level topology of `graph`.
    pub fn of(graph: &FlatGraph) -> Topology {
        let n = graph.kernels.len();
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for ci in 0..graph.connectors.len() {
            let c = ConnectorId::new(ci);
            for p in graph.producers_of(c) {
                for q in graph.consumers_of(c) {
                    if !succ[p.kernel.index()].contains(&q.kernel) {
                        succ[p.kernel.index()].push(q.kernel);
                    }
                    if !pred[q.kernel.index()].contains(&p.kernel) {
                        pred[q.kernel.index()].push(p.kernel);
                    }
                }
            }
        }
        for s in &mut succ {
            s.sort_unstable();
        }
        for p in &mut pred {
            p.sort_unstable();
        }
        let entry = (0..n)
            .map(KernelId::new)
            .filter(|k| {
                graph.kernels[k.index()]
                    .ports
                    .iter()
                    .any(|p| graph.is_global_input(p.connector))
            })
            .collect();
        let exit = (0..n)
            .map(KernelId::new)
            .filter(|k| {
                graph.kernels[k.index()]
                    .ports
                    .iter()
                    .any(|p| graph.is_global_output(p.connector))
            })
            .collect();
        Topology {
            succ,
            pred,
            entry,
            exit,
        }
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
