//! Graphviz export of compute graphs.
//!
//! Rendering the in-memory graph is how the paper's Figure 4(b) visualises
//! construction results; `to_dot` produces the equivalent diagram for any
//! flattened graph: kernels as boxes (clustered by realm), connectors as
//! edges labelled with their element type and transport class, global I/O
//! as ellipses.

use crate::analysis::Topology;
use crate::flat::{Endpoint, FlatGraph};
use crate::id::ConnectorId;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Visual overrides applied by [`to_dot_styled`]: per-element colours keyed
/// by kernel/connector index. Produced e.g. by `cgsim-lint` so the Graphviz
/// export doubles as a visual diagnostic report (red = Error, orange = Warn).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DotStyle {
    /// Fill colour per kernel index (`style=filled, fillcolor=…`).
    pub kernel_fill: HashMap<usize, String>,
    /// Edge colour per connector index (applied to every edge of the
    /// connector).
    pub connector_color: HashMap<usize, String>,
    /// Extra text appended to the edge label of a connector (newline
    /// separated), e.g. the static occupancy/capacity bounds the lint
    /// bounds pass annotates edges with.
    pub connector_label: HashMap<usize, String>,
}

impl DotStyle {
    /// Whether any override is present.
    pub fn is_empty(&self) -> bool {
        self.kernel_fill.is_empty()
            && self.connector_color.is_empty()
            && self.connector_label.is_empty()
    }
}

/// Render `graph` as a Graphviz `digraph`.
pub fn to_dot(graph: &FlatGraph) -> String {
    to_dot_styled(graph, &DotStyle::default())
}

/// Render `graph` as a Graphviz `digraph` with per-element colour overrides.
pub fn to_dot_styled(graph: &FlatGraph, style: &DotStyle) -> String {
    let topo = Topology::of(graph);
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", graph.name);
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [fontname=\"monospace\"];");

    // Kernels, clustered per realm.
    for realm in graph.realms() {
        let _ = writeln!(out, "  subgraph \"cluster_{realm}\" {{");
        let _ = writeln!(out, "    label=\"realm: {realm}\";");
        for (ki, k) in graph.kernels.iter().enumerate() {
            if k.realm != realm {
                continue;
            }
            let fill = style
                .kernel_fill
                .get(&ki)
                .map(|c| format!(", style=filled, fillcolor=\"{c}\""))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "    \"{}\" [shape=box, label=\"{}\\n({})\"{fill}];",
                k.instance, k.instance, k.kind
            );
        }
        let _ = writeln!(out, "  }}");
    }

    // Global I/O nodes, also kept per connector for the edges below.
    let mut sources = vec![Vec::new(); graph.connectors.len()];
    let mut sinks = vec![Vec::new(); graph.connectors.len()];
    for (nodes, list, dir) in [
        (&mut sources, &graph.inputs, "in"),
        (&mut sinks, &graph.outputs, "out"),
    ] {
        for (i, c) in list.iter().enumerate() {
            let name = io_name(graph, *c, i, dir);
            let _ = writeln!(out, "  \"{name}\" [shape=ellipse];");
            nodes[c.index()].push(name);
        }
    }

    // Edges: producer → consumer per connector.
    for ci in 0..graph.connectors.len() {
        let c = ConnectorId::new(ci);
        let conn = &graph.connectors[ci];
        let mut label = format!("c{ci}: {} [{}]", conn.dtype.name, conn.kind);
        if let Some(extra) = style.connector_label.get(&ci) {
            label.push_str("\\n");
            label.push_str(extra);
        }
        let color = style
            .connector_color
            .get(&ci)
            .map(|c| format!(", color=\"{c}\", fontcolor=\"{c}\""))
            .unwrap_or_default();
        let instance = |e: &Endpoint| graph.kernels[e.kernel.index()].instance.as_str();
        let from =
            (topo.producers(c).iter().map(instance)).chain(sources[ci].iter().map(String::as_str));
        let to: Vec<&str> = (topo.consumers(c).iter().map(instance))
            .chain(sinks[ci].iter().map(String::as_str))
            .collect();
        for p in from {
            for q in &to {
                let _ = writeln!(out, "  \"{p}\" -> \"{q}\" [label=\"{label}\"{color}];");
            }
        }
    }
    let _ = writeln!(out, "}}");
    out
}

fn io_name(graph: &FlatGraph, c: ConnectorId, index: usize, dir: &str) -> String {
    graph.connectors[c.index()]
        .attrs
        .get_str("name")
        .map(|n| format!("{dir}:{n}"))
        .unwrap_or_else(|| format!("{dir}:{index}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::kernel::{KernelDecl, KernelMeta, PortSig};
    use crate::realm::Realm;
    use crate::settings::PortSettings;

    struct A;
    impl KernelDecl for A {
        const NAME: &'static str = "a_kernel";
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

    struct H;
    impl KernelDecl for H {
        const NAME: &'static str = "h_kernel";
        const REALM: Realm = Realm::NoExtract;
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

    #[test]
    fn dot_contains_clusters_edges_and_io() {
        let g = GraphBuilder::build("viz", |g| {
            let a = g.input::<f32>("samples");
            let m = g.wire::<f32>();
            let z = g.wire::<f32>();
            g.invoke::<A>(&[a.id(), m.id()])?;
            g.invoke::<H>(&[m.id(), z.id()])?;
            g.output(&z);
            Ok(())
        })
        .unwrap();
        let dot = to_dot(&g);
        assert!(dot.starts_with("digraph \"viz\""));
        assert!(dot.contains("cluster_aie"));
        assert!(dot.contains("cluster_noextract"));
        assert!(dot.contains("\"a_kernel_0\" -> \"h_kernel_0\""));
        assert!(dot.contains("\"in:samples\" -> \"a_kernel_0\""));
        assert!(dot.contains("-> \"out:0\""));
        assert!(dot.contains("f32 [stream]"));
        // Balanced braces → parseable by graphviz.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }

    #[test]
    fn styled_export_colours_kernels_and_edges() {
        let g = GraphBuilder::build("styled", |g| {
            let a = g.input::<f32>("a");
            let m = g.wire::<f32>();
            g.invoke::<A>(&[a.id(), m.id()])?;
            g.output(&m);
            Ok(())
        })
        .unwrap();
        let mut style = DotStyle::default();
        style.kernel_fill.insert(0, "red".into());
        style.connector_color.insert(1, "orange".into());
        style.connector_label.insert(1, "cap 64".into());
        let dot = to_dot_styled(&g, &style);
        assert!(dot.contains("style=filled, fillcolor=\"red\""));
        assert!(dot.contains("color=\"orange\", fontcolor=\"orange\""));
        assert!(dot.contains("\\ncap 64"));
        // Unstyled export is byte-identical to the default style.
        assert_eq!(to_dot(&g), to_dot_styled(&g, &DotStyle::default()));
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }

    #[test]
    fn broadcast_renders_one_edge_per_consumer() {
        let g = GraphBuilder::build("bc", |g| {
            let a = g.input::<f32>("a");
            let x = g.wire::<f32>();
            let y = g.wire::<f32>();
            g.invoke::<A>(&[a.id(), x.id()])?;
            g.invoke::<A>(&[a.id(), y.id()])?;
            g.output(&x);
            g.output(&y);
            Ok(())
        })
        .unwrap();
        let dot = to_dot(&g);
        assert_eq!(dot.matches("\"in:a\" ->").count(), 2);
    }
}
