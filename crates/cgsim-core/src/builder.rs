//! Typed graph-construction DSL (§3.4, Figure 4).
//!
//! Mirrors the paper's `make_compute_graph_v` lambda: the user obtains
//! [`Connector`]s — the lambda's parameters become *global inputs*, locally
//! created connectors become internal wires, and connectors registered with
//! [`GraphBuilder::output`] become *global outputs*. Kernels are *invoked* on
//! connectors; when several inputs or outputs reference the same connector,
//! implicit stream broadcast and merge arise, resolved by the runtime's MPMC
//! broadcast queues.
//!
//! ```
//! use cgsim_core::{GraphBuilder, KernelDecl, KernelMeta, PortSig, PortSettings, Realm};
//!
//! struct Doubler;
//! impl KernelDecl for Doubler {
//!     const NAME: &'static str = "doubler";
//!     const REALM: Realm = Realm::Aie;
//!     fn meta() -> KernelMeta {
//!         KernelMeta {
//!             name: Self::NAME.into(),
//!             realm: Self::REALM,
//!             ports: vec![
//!                 PortSig::read::<i32>("in", PortSettings::DEFAULT),
//!                 PortSig::write::<i32>("out", PortSettings::DEFAULT),
//!             ],
//!         }
//!     }
//! }
//!
//! let graph = GraphBuilder::build("fig4", |g| {
//!     let a = g.input::<i32>("a");
//!     let b = g.wire::<i32>();
//!     let c = g.wire::<i32>();
//!     g.invoke::<Doubler>(&[a.id(), b.id()])?;
//!     g.invoke::<Doubler>(&[b.id(), c.id()])?;
//!     g.output(&c);
//!     Ok(())
//! })
//! .unwrap();
//! assert_eq!(graph.kernels.len(), 2);
//! ```

use crate::attrs::{AttrList, AttrValue};
use crate::dtype::{DTypeDesc, StreamData};
use crate::error::{GraphError, Result};
use crate::flat::{FlatConnector, FlatGraph, FlatKernel, FlatPort};
use crate::id::{ConnectorId, KernelId};
use crate::kernel::{KernelDecl, KernelMeta, PortKind};
use crate::settings::PortSettings;
use std::collections::HashMap;
use std::marker::PhantomData;

/// A typed handle to an I/O connector (the paper's `IoConnector<T>`).
///
/// `Connector` is `Copy`; it is only an index plus a compile-time type tag,
/// exactly like the paper's connectors are value types whose identity lives
/// in the graph under construction.
pub struct Connector<T> {
    id: ConnectorId,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Connector<T> {
    /// The underlying connector id.
    pub fn id(&self) -> ConnectorId {
        self.id
    }
}

impl<T> Clone for Connector<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Connector<T> {}

impl<T> std::fmt::Debug for Connector<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Connector({})", self.id)
    }
}

struct ConnectorState {
    dtype: DTypeDesc,
    attrs: AttrList,
    /// Extra settings applied at connector level (e.g. by the extractor).
    settings: PortSettings,
    name: Option<String>,
}

/// Builder for compute graphs; produces a validated [`FlatGraph`].
pub struct GraphBuilder {
    name: String,
    kernels: Vec<FlatKernel>,
    connectors: Vec<ConnectorState>,
    inputs: Vec<ConnectorId>,
    outputs: Vec<ConnectorId>,
    instance_counts: HashMap<String, usize>,
}

impl GraphBuilder {
    /// Start building a graph called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        GraphBuilder {
            name: name.into(),
            kernels: Vec::new(),
            connectors: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            instance_counts: HashMap::new(),
        }
    }

    /// Build a graph in one closure, mirroring the paper's lambda pattern.
    pub fn build(
        name: impl Into<String>,
        f: impl FnOnce(&mut GraphBuilder) -> Result<()>,
    ) -> Result<FlatGraph> {
        let mut b = GraphBuilder::new(name);
        f(&mut b)?;
        b.finish()
    }

    /// Declare a global input connector (a lambda parameter in Figure 4).
    pub fn input<T: StreamData>(&mut self, name: impl Into<String>) -> Connector<T> {
        let c = self.raw_connector(DTypeDesc::of::<T>(), Some(name.into()));
        self.inputs.push(c);
        Connector {
            id: c,
            _marker: PhantomData,
        }
    }

    /// Declare an internal wire (a locally constructed `IoConnector`).
    pub fn wire<T: StreamData>(&mut self) -> Connector<T> {
        let c = self.raw_connector(DTypeDesc::of::<T>(), None);
        Connector {
            id: c,
            _marker: PhantomData,
        }
    }

    /// Register `c` as a global output (returned from the lambda in Fig. 4).
    pub fn output<T>(&mut self, c: &Connector<T>) {
        self.outputs.push(c.id);
    }

    /// Attach an auxiliary attribute to a connector (§3.4).
    pub fn attr<T>(
        &mut self,
        c: &Connector<T>,
        key: impl Into<String>,
        value: impl Into<AttrValue>,
    ) {
        self.connectors[c.id.index()].attrs.set(key, value);
    }

    /// Apply connector-level settings (merged with endpoint settings later).
    pub fn connector_settings<T>(&mut self, c: &Connector<T>, settings: PortSettings) {
        self.connectors[c.id.index()].settings = settings;
    }

    /// Invoke kernel `K` on the given connectors (positional, one per port).
    ///
    /// This is the dynamic-typed entry point; the `compute_kernel!` macro in
    /// `cgsim-runtime` generates fully typed wrappers on top of it.
    pub fn invoke<K: KernelDecl>(&mut self, connectors: &[ConnectorId]) -> Result<KernelId> {
        self.invoke_meta(K::meta(), connectors)
    }

    /// Invoke a kernel described only by metadata (used by the extractor's
    /// interpreter, which has no Rust types).
    pub fn invoke_meta(
        &mut self,
        meta: KernelMeta,
        connectors: &[ConnectorId],
    ) -> Result<KernelId> {
        if meta.ports.len() != connectors.len() {
            return Err(GraphError::ArityMismatch {
                kernel: meta.name,
                expected: meta.ports.len(),
                actual: connectors.len(),
            });
        }
        let mut ports = Vec::with_capacity(meta.ports.len());
        for (sig, &conn) in meta.ports.iter().zip(connectors) {
            crate::error::check_index("connector", conn.index(), self.connectors.len())?;
            let cstate = &self.connectors[conn.index()];
            if !sig.dtype.compatible(&cstate.dtype) {
                return Err(GraphError::TypeMismatch {
                    kernel: meta.name.clone(),
                    port: sig.name.clone(),
                    port_type: Box::new(sig.dtype.clone()),
                    connector_type: Box::new(cstate.dtype.clone()),
                });
            }
            ports.push(FlatPort {
                name: sig.name.clone(),
                dir: sig.dir,
                dtype: sig.dtype.clone(),
                settings: sig.settings,
                connector: conn,
                rate: sig.rate,
            });
        }
        let count = self.instance_counts.entry(meta.name.clone()).or_insert(0);
        let instance = format!("{}_{}", meta.name, *count);
        *count += 1;

        let id = KernelId::new(self.kernels.len());
        self.kernels.push(FlatKernel {
            kind: meta.name,
            instance,
            realm: meta.realm,
            ports,
        });
        Ok(id)
    }

    /// Declare a connector dynamically from a type descriptor (extractor
    /// path). Returns the raw id; use [`GraphBuilder::mark_input`] /
    /// [`GraphBuilder::mark_output`] to expose it globally.
    pub fn dyn_connector(&mut self, dtype: DTypeDesc, name: Option<String>) -> ConnectorId {
        self.raw_connector(dtype, name)
    }

    /// Register a dynamically created connector as a global input.
    pub fn mark_input(&mut self, c: ConnectorId) {
        self.inputs.push(c);
    }

    /// Register a dynamically created connector as a global output.
    pub fn mark_output(&mut self, c: ConnectorId) {
        self.outputs.push(c);
    }

    /// Attach an attribute to a dynamically created connector.
    pub fn dyn_attr(
        &mut self,
        c: ConnectorId,
        key: impl Into<String>,
        value: impl Into<AttrValue>,
    ) {
        self.connectors[c.index()].attrs.set(key, value);
    }

    /// Apply connector-level settings to a dynamically created connector
    /// (merged with endpoint settings at [`GraphBuilder::finish`]).
    pub fn dyn_connector_settings(&mut self, c: ConnectorId, settings: PortSettings) {
        self.connectors[c.index()].settings = settings;
    }

    fn raw_connector(&mut self, dtype: DTypeDesc, name: Option<String>) -> ConnectorId {
        let id = ConnectorId::new(self.connectors.len());
        self.connectors.push(ConnectorState {
            dtype,
            attrs: AttrList::new(),
            settings: PortSettings::DEFAULT,
            name,
        });
        id
    }

    /// Flatten (§3.5): merge endpoint settings per connector, derive
    /// transport kinds, validate, and emit the [`FlatGraph`].
    pub fn finish(self) -> Result<FlatGraph> {
        let connectors = self
            .connectors
            .into_iter()
            .map(|state| {
                let mut attrs = state.attrs;
                if let Some(name) = state.name {
                    if attrs.get("name").is_none() {
                        attrs.set("name", name);
                    }
                }
                FlatConnector {
                    dtype: state.dtype,
                    settings: state.settings,
                    kind: PortKind::from_settings(&state.settings),
                    attrs,
                }
            })
            .collect();
        let mut graph = FlatGraph {
            name: self.name,
            kernels: self.kernels,
            connectors,
            inputs: self.inputs,
            outputs: self.outputs,
        };
        for (ci, merged) in graph.merged_settings().into_iter().enumerate() {
            let merged = merged?;
            graph.connectors[ci].settings = merged;
            graph.connectors[ci].kind = PortKind::from_settings(&merged);
        }
        graph.validate()?;
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Topology;
    use crate::kernel::PortSig;
    use crate::realm::Realm;

    struct Pass;
    impl KernelDecl for Pass {
        const NAME: &'static str = "pass";
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

    struct Add;
    impl KernelDecl for Add {
        const NAME: &'static str = "add";
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

    /// The paper's Figure 4: one input, two chained kernels, one output.
    #[test]
    fn fig4_shape() {
        let g = GraphBuilder::build("fig4", |g| {
            let a = g.input::<i32>("a");
            let b = g.wire::<i32>();
            let c = g.wire::<i32>();
            g.invoke::<Pass>(&[a.id(), b.id()])?;
            g.invoke::<Pass>(&[b.id(), c.id()])?;
            g.output(&c);
            Ok(())
        })
        .unwrap();
        assert_eq!(g.kernels.len(), 2);
        assert_eq!(g.connectors.len(), 3);
        assert_eq!(g.inputs.len(), 1);
        assert_eq!(g.outputs.len(), 1);
        assert_eq!(g.kernels[0].instance, "pass_0");
        assert_eq!(g.kernels[1].instance, "pass_1");
        assert_eq!(
            g.connectors[g.inputs[0].index()].attrs.get_str("name"),
            Some("a")
        );
    }

    #[test]
    fn implicit_broadcast_from_shared_reader_connector() {
        let g = GraphBuilder::build("bcast", |g| {
            let a = g.input::<i32>("a");
            let x = g.wire::<i32>();
            let y = g.wire::<i32>();
            g.invoke::<Pass>(&[a.id(), x.id()])?;
            g.invoke::<Pass>(&[a.id(), y.id()])?;
            g.output(&x);
            g.output(&y);
            Ok(())
        })
        .unwrap();
        assert_eq!(g.stats().broadcasts, 1);
        assert_eq!(Topology::of(&g).consumers(g.inputs[0]).len(), 2);
    }

    #[test]
    fn implicit_merge_from_shared_writer_connector() {
        let g = GraphBuilder::build("merge", |g| {
            let a = g.input::<i32>("a");
            let b = g.input::<i32>("b");
            let m = g.wire::<i32>();
            g.invoke::<Pass>(&[a.id(), m.id()])?;
            g.invoke::<Pass>(&[b.id(), m.id()])?;
            g.output(&m);
            Ok(())
        })
        .unwrap();
        assert_eq!(g.stats().merges, 1);
        assert_eq!(Topology::of(&g).producers(g.outputs[0]).len(), 2);
    }

    #[test]
    fn arity_mismatch_reported() {
        let err = GraphBuilder::build("bad", |g| {
            let a = g.input::<i32>("a");
            g.invoke::<Add>(&[a.id()])?;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(
            err,
            GraphError::ArityMismatch {
                expected: 3,
                actual: 1,
                ..
            }
        ));
    }

    #[test]
    fn type_mismatch_reported_at_invoke() {
        let err = GraphBuilder::build("bad", |g| {
            let a = g.input::<f64>("a");
            let b = g.wire::<i32>();
            g.invoke::<Pass>(&[a.id(), b.id()])?;
            g.output(&b);
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, GraphError::TypeMismatch { .. }));
    }

    #[test]
    fn settings_merge_happens_per_connector() {
        struct Beat16;
        impl KernelDecl for Beat16 {
            const NAME: &'static str = "beat16";
            const REALM: Realm = Realm::Aie;
            fn meta() -> KernelMeta {
                KernelMeta {
                    name: Self::NAME.into(),
                    realm: Self::REALM,
                    ports: vec![
                        PortSig::read::<i32>("in", PortSettings::new().beat_bytes(16)),
                        PortSig::write::<i32>("out", PortSettings::DEFAULT),
                    ],
                }
            }
        }
        let g = GraphBuilder::build("s", |g| {
            let a = g.input::<i32>("a");
            let b = g.wire::<i32>();
            g.invoke::<Beat16>(&[a.id(), b.id()])?;
            g.output(&b);
            Ok(())
        })
        .unwrap();
        assert_eq!(g.connectors[0].settings.beat_bytes, 16);
    }

    #[test]
    fn conflicting_settings_fail_at_finish() {
        struct Beat4Out;
        impl KernelDecl for Beat4Out {
            const NAME: &'static str = "beat4out";
            const REALM: Realm = Realm::Aie;
            fn meta() -> KernelMeta {
                KernelMeta {
                    name: Self::NAME.into(),
                    realm: Self::REALM,
                    ports: vec![
                        PortSig::read::<i32>("in", PortSettings::DEFAULT),
                        PortSig::write::<i32>("out", PortSettings::new().beat_bytes(4)),
                    ],
                }
            }
        }
        struct Beat16In;
        impl KernelDecl for Beat16In {
            const NAME: &'static str = "beat16in";
            const REALM: Realm = Realm::Aie;
            fn meta() -> KernelMeta {
                KernelMeta {
                    name: Self::NAME.into(),
                    realm: Self::REALM,
                    ports: vec![
                        PortSig::read::<i32>("in", PortSettings::new().beat_bytes(16)),
                        PortSig::write::<i32>("out", PortSettings::DEFAULT),
                    ],
                }
            }
        }
        let err = GraphBuilder::build("conflict", |g| {
            let a = g.input::<i32>("a");
            let m = g.wire::<i32>();
            let z = g.wire::<i32>();
            g.invoke::<Beat4Out>(&[a.id(), m.id()])?;
            g.invoke::<Beat16In>(&[m.id(), z.id()])?;
            g.output(&z);
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, GraphError::IncompatibleSettings { .. }));
    }

    #[test]
    fn attributes_reach_the_flat_graph() {
        let g = GraphBuilder::build("attrs", |g| {
            let a = g.input::<i32>("a");
            let b = g.wire::<i32>();
            g.attr(&b, "plio_name", "out0");
            g.attr(&b, "fifo_depth", 32i64);
            g.invoke::<Pass>(&[a.id(), b.id()])?;
            g.output(&b);
            Ok(())
        })
        .unwrap();
        let c = &g.connectors[g.outputs[0].index()];
        assert_eq!(c.attrs.get_str("plio_name"), Some("out0"));
        assert_eq!(c.attrs.get_int("fifo_depth"), Some(32));
    }

    #[test]
    fn instance_names_are_unique_per_kind() {
        let g = GraphBuilder::build("inst", |g| {
            let a = g.input::<i32>("a");
            let b = g.wire::<i32>();
            let c = g.wire::<i32>();
            let d = g.wire::<i32>();
            g.invoke::<Pass>(&[a.id(), b.id()])?;
            g.invoke::<Pass>(&[b.id(), c.id()])?;
            g.invoke::<Add>(&[c.id(), c.id(), d.id()])?;
            g.output(&d);
            Ok(())
        })
        .unwrap();
        let names: Vec<_> = g.kernels.iter().map(|k| k.instance.as_str()).collect();
        assert_eq!(names, ["pass_0", "pass_1", "add_0"]);
    }
}
