//! Delegation shim for the frozen benchmark.
//!
//! There is no compiled executor: a [`CompiledPlan`] is data that
//! `cgsim_runtime::RuntimeContext::launch` follows for a `Backend::Compiled`
//! spec. The benchmark runner (`perfbench/`) still names
//! `CompiledContext::{new, with_plan, feed, feed_param, collect, run}`, so
//! that name survives here as a wrapper that forwards every call. No crate
//! of the workspace uses it.

use cgsim_runtime::cgsim_core::{FlatGraph, GraphError, StreamData};
use cgsim_runtime::{
    compile_for, Backend, CompileError, CompiledPlan, KernelLibrary, Launch, RunReport, RunSpec,
    RuntimeConfig, RuntimeContext, SinkHandle,
};

/// A [`RuntimeContext`] following a [`CompiledPlan`], under the name and
/// signatures the frozen benchmark uses. `with_plan` was infallible, so an
/// instantiation error is held back until the first call that can return it.
pub struct CompiledContext<'g>(Result<RuntimeContext<'g>, GraphError>);

impl<'g> CompiledContext<'g> {
    /// [`compile_for`] `config`, then [`CompiledContext::with_plan`].
    pub fn new(
        graph: &'g FlatGraph,
        library: &'g KernelLibrary,
        config: RuntimeConfig,
    ) -> Result<Self, CompileError> {
        let plan = compile_for(graph, &config)?;
        Ok(Self::with_plan(graph, library, plan, config))
    }

    /// `RuntimeContext::launch` of a `Compiled` spec under `config`,
    /// following `plan`, untraced.
    pub fn with_plan(
        graph: &'g FlatGraph,
        library: &'g KernelLibrary,
        plan: CompiledPlan,
        config: RuntimeConfig,
    ) -> Self {
        let spec = RunSpec::default()
            .backend(Backend::Compiled)
            .with_config(config);
        let launch = Launch::default().with_plan(plan);
        CompiledContext(RuntimeContext::launch(graph, library, &spec, launch))
    }

    fn inner(&mut self) -> Result<&mut RuntimeContext<'g>, GraphError> {
        self.0.as_mut().map_err(|e| e.clone())
    }

    /// `RuntimeContext::feed`.
    pub fn feed<T: StreamData>(
        &mut self,
        index: usize,
        data: impl IntoIterator<Item = T> + 'static,
    ) -> Result<(), GraphError> {
        self.inner()?.feed(index, data)
    }

    /// `RuntimeContext::feed_param`.
    pub fn feed_param<T: StreamData>(&mut self, index: usize, value: T) -> Result<(), GraphError> {
        self.inner()?.feed_param(index, value)
    }

    /// `RuntimeContext::collect`.
    pub fn collect<T: StreamData>(&mut self, index: usize) -> Result<SinkHandle<T>, GraphError> {
        self.inner()?.collect(index)
    }

    /// `RuntimeContext::run`.
    pub fn run(self) -> Result<RunReport, GraphError> {
        self.0?.run()
    }
}
