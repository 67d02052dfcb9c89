//! # cgsim-threads — thread-per-kernel functional simulator
//!
//! Stand-in for AMD's functional simulator **x86sim**, which the paper uses
//! as the wall-clock comparison point in Table 2: "x86sim assigns each
//! kernel to a dedicated OS thread, whereas cgsim employs cooperative
//! multitasking to execute all kernels on a single shared thread" (§5.2).
//!
//! This crate runs *exactly the same* kernel definitions and broadcast
//! channels as `cgsim-runtime`, but drives every kernel coroutine with a
//! blocking `block_on` loop on its own OS thread: channel wakers unpark the
//! owning thread instead of re-queueing a task. The contrast between the two
//! execution models — preemptive parallelism with per-transfer
//! synchronisation cost vs cooperative single-core execution — is precisely
//! the effect Table 2 measures.
//!
//! The API mirrors [`cgsim_runtime::RuntimeContext`]:
//!
//! ```
//! use cgsim_runtime::{compute_kernel, KernelLibrary};
//! use cgsim_threads::{ThreadedConfig, ThreadedContext};
//! use cgsim_core::GraphBuilder;
//!
//! compute_kernel! {
//!     #[realm(aie)]
//!     pub fn double_kernel(input: ReadPort<i32>, out: WritePort<i32>) {
//!         while let Some(v) = input.get().await {
//!             out.put(v * 2).await;
//!         }
//!     }
//! }
//!
//! let graph = GraphBuilder::build("double", |g| {
//!     let a = g.input::<i32>("a");
//!     let b = g.wire::<i32>();
//!     double_kernel::invoke(g, &a, &b)?;
//!     g.output(&b);
//!     Ok(())
//! }).unwrap();
//! let lib = KernelLibrary::with(|l| { l.register::<double_kernel>(); });
//!
//! let mut ctx = ThreadedContext::new(&graph, &lib, ThreadedConfig::default()).unwrap();
//! ctx.feed(0, vec![1, 2, 3]).unwrap();
//! let out = ctx.collect::<i32>(0).unwrap();
//! let report = ctx.run().unwrap();
//! assert_eq!(report.threads, 3); // kernel + source + sink
//! assert_eq!(out.take(), vec![2, 4, 6]);
//! ```

#![warn(missing_docs)]

use cgsim_core::{ConnectorId, FlatGraph, GraphError, StreamData};
use cgsim_runtime::{
    block_on, AnyChannel, Channel, ChannelStats, KernelLibrary, PortBinder, SinkHandle,
};
use parking_lot::Mutex;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Tunables for a threaded simulation run.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedConfig {
    /// Channel capacity for connectors without an explicit `depth` setting.
    pub default_depth: usize,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig { default_depth: 64 }
    }
}

/// Result of one threaded graph execution.
#[derive(Clone, Debug)]
pub struct ThreadReport {
    /// OS threads used (kernels + sources + sinks).
    pub threads: usize,
    /// Wall-clock time of the parallel phase.
    pub wall_time: Duration,
    /// Sum of busy time across all threads (can exceed `wall_time` when the
    /// run actually exploited parallelism — the paper's farrow observation
    /// that x86sim "utilizes two CPU cores fully").
    pub cpu_time: Duration,
    /// Per-connector channel counters `(name, stats)`, in connector order —
    /// the same shape as `cgsim_runtime::RunReport::channels`, so the
    /// conformance harness applies one conservation check to both backends.
    pub channels: Vec<(String, ChannelStats)>,
}

type WorkItem = Box<dyn FnOnce(&Barrier) -> Duration + Send>;

/// A single threaded execution instance of a compute graph.
///
/// Construction registers one work item per kernel; [`Self::feed`] /
/// [`Self::collect`] add source and sink threads; [`Self::run`] spawns
/// everything behind a start barrier (so every channel endpoint registers
/// before any data flows) and joins.
pub struct ThreadedContext<'g> {
    graph: &'g FlatGraph,
    default_depth: usize,
    channels: Vec<AnyChannel>,
    work: Vec<WorkItem>,
    fed_inputs: Vec<bool>,
    bound_outputs: Vec<bool>,
    spawn_errors: Arc<Mutex<Vec<GraphError>>>,
}

impl<'g> ThreadedContext<'g> {
    /// Reconstruct a runnable copy of `graph`, one OS thread per kernel.
    pub fn new(
        graph: &'g FlatGraph,
        library: &'g KernelLibrary,
        config: ThreadedConfig,
    ) -> Result<Self, GraphError> {
        graph.validate()?;

        let mut channels: Vec<AnyChannel> = Vec::with_capacity(graph.connectors.len());
        for (ci, conn) in graph.connectors.iter().enumerate() {
            let capacity = conn.depth_or(config.default_depth);
            let endpoint = graph.kernels.iter().enumerate().find_map(|(ki, k)| {
                k.ports
                    .iter()
                    .position(|p| p.connector.index() == ci)
                    .map(|pi| (ki, pi))
            });
            match endpoint {
                Some((ki, pi)) => {
                    let entry = library.get(&graph.kernels[ki].kind)?;
                    // `make_channel` builds mutex-guarded (`Shared`) channels
                    // — mandatory here: endpoints live on kernel threads, so
                    // the cooperative runtime's single-thread fast path
                    // (`ChannelMode::SingleThread`) must never be used.
                    channels.push(entry.make_channel(pi, capacity)?);
                }
                None => channels.push(AnyChannel::placeholder()),
            }
        }

        let spawn_errors = Arc::new(Mutex::new(Vec::new()));
        let mut ctx = ThreadedContext {
            graph,
            default_depth: config.default_depth,
            channels,
            work: Vec::new(),
            fed_inputs: vec![false; graph.inputs.len()],
            bound_outputs: vec![false; graph.outputs.len()],
            spawn_errors,
        };

        for k in &graph.kernels {
            let entry = Arc::clone(library.get(&k.kind)?);
            let kernel_channels: Vec<AnyChannel> = k
                .ports
                .iter()
                .map(|p| ctx.channels[p.connector.index()].clone())
                .collect();
            let instance = k.instance.clone();
            let errors = Arc::clone(&ctx.spawn_errors);
            ctx.work.push(Box::new(move |barrier: &Barrier| {
                // Phase 1: bind ports (registers all channel endpoints).
                let mut binder = PortBinder::new(&instance, &kernel_channels);
                let fut = entry.spawn(&mut binder);
                // Everyone must reach the barrier, errors included, or the
                // rest of the fleet deadlocks.
                barrier.wait();
                match fut {
                    Ok(fut) => {
                        let start = Instant::now();
                        block_on(fut);
                        start.elapsed()
                    }
                    Err(e) => {
                        errors.lock().push(e);
                        Duration::ZERO
                    }
                }
            }));
        }
        Ok(ctx)
    }

    fn typed_channel<T: StreamData>(
        &mut self,
        connector: ConnectorId,
    ) -> Result<Arc<Channel<T>>, GraphError> {
        let slot = &mut self.channels[connector.index()];
        if let Ok(chan) = slot.clone().downcast::<Channel<T>>() {
            return Ok(chan);
        }
        if slot.clone().downcast::<()>().is_ok() {
            let conn = &self.graph.connectors[connector.index()];
            let chan = Channel::<T>::new(conn.depth_or(self.default_depth));
            *slot = AnyChannel::typed(chan.clone());
            return Ok(chan);
        }
        Err(GraphError::IoTypeMismatch {
            connector,
            expected: Box::new(self.graph.connectors[connector.index()].dtype.clone()),
        })
    }

    /// Attach a data-source thread feeding positional global input `index`.
    pub fn feed<T: StreamData>(
        &mut self,
        index: usize,
        data: impl IntoIterator<Item = T> + Send + 'static,
    ) -> Result<(), GraphError> {
        let Some(&connector) = self.graph.inputs.get(index) else {
            return Err(GraphError::IoArityMismatch {
                what: "inputs",
                expected: self.graph.inputs.len(),
                actual: index + 1,
            });
        };
        let chan = self.typed_channel::<T>(connector)?;
        self.fed_inputs[index] = true;
        self.work.push(Box::new(move |barrier: &Barrier| {
            let mut tx = chan.add_producer();
            barrier.wait();
            let start = Instant::now();
            block_on(async move { tx.push_iter(data.into_iter()).await });
            start.elapsed()
        }));
        Ok(())
    }

    /// Attach a data-sink thread collecting positional global output
    /// `index`. Results become available after [`Self::run`].
    pub fn collect<T: StreamData>(&mut self, index: usize) -> Result<SinkHandle<T>, GraphError> {
        let Some(&connector) = self.graph.outputs.get(index) else {
            return Err(GraphError::IoArityMismatch {
                what: "outputs",
                expected: self.graph.outputs.len(),
                actual: index + 1,
            });
        };
        let chan = self.typed_channel::<T>(connector)?;
        self.bound_outputs[index] = true;
        let handle = SinkHandle::new();
        let data = handle.shared();
        self.work.push(Box::new(move |barrier: &Barrier| {
            let rx = chan.add_consumer();
            barrier.wait();
            let start = Instant::now();
            block_on(rx.collect_into(data, None));
            start.elapsed()
        }));
        Ok(handle)
    }

    /// Spawn all threads behind a common start barrier, run the graph, and
    /// join. Mirrors x86sim's execution model.
    pub fn run(self) -> Result<ThreadReport, GraphError> {
        if let Some(missing) = self.fed_inputs.iter().position(|f| !f) {
            return Err(GraphError::IoArityMismatch {
                what: "inputs",
                expected: self.graph.inputs.len(),
                actual: missing,
            });
        }
        if let Some(missing) = self.bound_outputs.iter().position(|f| !f) {
            return Err(GraphError::IoArityMismatch {
                what: "outputs",
                expected: self.graph.outputs.len(),
                actual: missing,
            });
        }

        let threads = self.work.len();
        let barrier = Arc::new(Barrier::new(threads));
        let start = Instant::now();
        let handles: Vec<_> = self
            .work
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                let barrier = Arc::clone(&barrier);
                std::thread::Builder::new()
                    .name(format!("cgsim-thread-{i}"))
                    .spawn(move || item(&barrier))
                    .expect("spawn simulation thread")
            })
            .collect();
        let mut cpu_time = Duration::ZERO;
        for h in handles {
            cpu_time += h.join().expect("simulation thread panicked");
        }
        let wall_time = start.elapsed();

        let errors = std::mem::take(&mut *self.spawn_errors.lock());
        if let Some(e) = errors.into_iter().next() {
            return Err(e);
        }
        let channels = self
            .channels
            .iter()
            .enumerate()
            .filter_map(|(ci, c)| Some((self.graph.connector_name(ci), c.admin()?.stats())))
            .collect();
        Ok(ThreadReport {
            threads,
            wall_time,
            cpu_time,
            channels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_core::GraphBuilder;
    use cgsim_runtime::compute_kernel;

    compute_kernel! {
        #[realm(aie)]
        pub fn inc_kernel(input: ReadPort<i64>, out: WritePort<i64>) {
            while let Some(v) = input.get().await {
                out.put(v + 1).await;
            }
        }
    }

    compute_kernel! {
        #[realm(aie)]
        pub fn sum2_kernel(a: ReadPort<i64>, b: ReadPort<i64>, out: WritePort<i64>) {
            loop {
                let (Some(x), Some(y)) = (a.get().await, b.get().await) else { break };
                out.put(x + y).await;
            }
        }
    }

    fn library() -> KernelLibrary {
        KernelLibrary::with(|l| {
            l.register::<inc_kernel>();
            l.register::<sum2_kernel>();
        })
    }

    #[test]
    fn single_kernel_pipeline() {
        let graph = GraphBuilder::build("inc", |g| {
            let a = g.input::<i64>("a");
            let b = g.wire::<i64>();
            inc_kernel::invoke(g, &a, &b)?;
            g.output(&b);
            Ok(())
        })
        .unwrap();
        let lib = library();
        let mut ctx = ThreadedContext::new(&graph, &lib, ThreadedConfig::default()).unwrap();
        ctx.feed(0, vec![10i64, 20, 30]).unwrap();
        let out = ctx.collect::<i64>(0).unwrap();
        let report = ctx.run().unwrap();
        assert_eq!(report.threads, 3);
        assert_eq!(out.take(), vec![11, 21, 31]);
        // Channel counters survive the parallel run: both connectors moved
        // 3 elements each way.
        assert_eq!(report.channels.len(), 2);
        for (name, stats) in &report.channels {
            assert_eq!(stats.pushes, 3, "channel {name}");
            assert_eq!(stats.pops, 3, "channel {name}");
        }
    }

    #[test]
    fn deep_pipeline_with_many_threads() {
        const DEPTH: usize = 8;
        let graph = GraphBuilder::build("deep", |g| {
            let mut prev = g.input::<i64>("a");
            for _ in 0..DEPTH {
                let next = g.wire::<i64>();
                inc_kernel::invoke(g, &prev, &next)?;
                prev = next;
            }
            g.output(&prev);
            Ok(())
        })
        .unwrap();
        let lib = library();
        let mut ctx = ThreadedContext::new(&graph, &lib, ThreadedConfig::default()).unwrap();
        ctx.feed(0, (0..1000i64).collect::<Vec<_>>()).unwrap();
        let out = ctx.collect::<i64>(0).unwrap();
        let report = ctx.run().unwrap();
        assert_eq!(report.threads, DEPTH + 2);
        let got = out.take();
        assert_eq!(got.len(), 1000);
        assert!(got
            .iter()
            .enumerate()
            .all(|(i, v)| *v == i as i64 + DEPTH as i64));
    }

    #[test]
    fn diamond_broadcast_and_merge() {
        // a → [inc, inc] → merged wire → output. The merge interleaves
        // nondeterministically across threads; only the multiset is fixed.
        let graph = GraphBuilder::build("diamond", |g| {
            let a = g.input::<i64>("a");
            let m = g.wire::<i64>();
            inc_kernel::invoke(g, &a, &m)?;
            inc_kernel::invoke(g, &a, &m)?;
            g.output(&m);
            Ok(())
        })
        .unwrap();
        let lib = library();
        let mut ctx = ThreadedContext::new(&graph, &lib, ThreadedConfig::default()).unwrap();
        ctx.feed(0, vec![1i64, 2, 3]).unwrap();
        let out = ctx.collect::<i64>(0).unwrap();
        ctx.run().unwrap();
        let mut got = out.take();
        got.sort_unstable();
        assert_eq!(got, vec![2, 2, 3, 3, 4, 4]);
    }

    #[test]
    fn two_input_kernel_across_threads() {
        let graph = GraphBuilder::build("sum", |g| {
            let a = g.input::<i64>("a");
            let b = g.input::<i64>("b");
            let s = g.wire::<i64>();
            sum2_kernel::invoke(g, &a, &b, &s)?;
            g.output(&s);
            Ok(())
        })
        .unwrap();
        let lib = library();
        let mut ctx = ThreadedContext::new(&graph, &lib, ThreadedConfig::default()).unwrap();
        ctx.feed(0, vec![1i64, 2, 3]).unwrap();
        ctx.feed(1, vec![10i64, 20, 30]).unwrap();
        let out = ctx.collect::<i64>(0).unwrap();
        ctx.run().unwrap();
        assert_eq!(out.take(), vec![11, 22, 33]);
    }

    #[test]
    fn missing_io_is_rejected() {
        let graph = GraphBuilder::build("inc", |g| {
            let a = g.input::<i64>("a");
            let b = g.wire::<i64>();
            inc_kernel::invoke(g, &a, &b)?;
            g.output(&b);
            Ok(())
        })
        .unwrap();
        let lib = library();
        let ctx = ThreadedContext::new(&graph, &lib, ThreadedConfig::default()).unwrap();
        assert!(matches!(ctx.run(), Err(GraphError::IoArityMismatch { .. })));
    }

    #[test]
    fn results_match_cooperative_runtime() {
        use cgsim_runtime::{RuntimeConfig, RuntimeContext};
        let build = || {
            GraphBuilder::build("pipe", |g| {
                let a = g.input::<i64>("a");
                let b = g.wire::<i64>();
                let c = g.wire::<i64>();
                inc_kernel::invoke(g, &a, &b)?;
                inc_kernel::invoke(g, &b, &c)?;
                g.output(&c);
                Ok(())
            })
            .unwrap()
        };
        let lib = library();
        let input: Vec<i64> = (0..500).collect();

        let graph = build();
        let mut coop = RuntimeContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
        coop.feed(0, input.clone()).unwrap();
        let coop_out = coop.collect::<i64>(0).unwrap();
        coop.run().unwrap();

        let graph = build();
        let mut thr = ThreadedContext::new(&graph, &lib, ThreadedConfig::default()).unwrap();
        thr.feed(0, input).unwrap();
        let thr_out = thr.collect::<i64>(0).unwrap();
        thr.run().unwrap();

        assert_eq!(coop_out.take(), thr_out.take());
    }
}
