//! # cgsim-runtime — cooperative compute-graph simulation runtime
//!
//! The execution half of cgsim (§3.6–3.9 of the paper): kernels defined with
//! [`compute_kernel!`] are simulated as cooperatively multitasked coroutines
//! on a single shared thread, exchanging data through fixed-capacity MPMC
//! broadcast queues. A [`RuntimeContext`] re-instantiates a flattened graph
//! ([`cgsim_core::FlatGraph`]) on the runtime heap, attaches user-supplied
//! data sources and sinks to the graph's global I/O, and runs the embedded
//! scheduler to quiescence. A [`RunSpec`] says everything about a run and
//! [`RuntimeContext::launch`] does what it says: [`Backend::Compiled`]
//! follows a [`CompiledPlan`] from the schedule compiler ([`compile`]), and
//! [`Backend::Threaded`] swaps the scheduler for one OS thread per
//! coroutine — the paper's x86sim comparison point — and changes nothing
//! else.
//!
//! ```
//! use cgsim_runtime::{compute_kernel, KernelLibrary, RuntimeConfig, RuntimeContext};
//! use cgsim_core::GraphBuilder;
//!
//! compute_kernel! {
//!     /// Paper Figure 3: adds pairs of values from two input streams.
//!     #[realm(aie)]
//!     pub fn adder_kernel(in1: ReadPort<f32>, in2: ReadPort<f32>, out: WritePort<f32>) {
//!         loop {
//!             let (Some(a), Some(b)) = (in1.get().await, in2.get().await) else { break };
//!             out.put(a + b).await;
//!         }
//!     }
//! }
//!
//! let graph = GraphBuilder::build("sum", |g| {
//!     let a = g.input::<f32>("a");
//!     let b = g.input::<f32>("b");
//!     let s = g.wire::<f32>();
//!     adder_kernel::invoke(g, &a, &b, &s)?;
//!     g.output(&s);
//!     Ok(())
//! }).unwrap();
//!
//! let lib = KernelLibrary::with(|l| { l.register::<adder_kernel>(); });
//! let mut ctx = RuntimeContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
//! ctx.feed(0, vec![1.0f32, 2.0]).unwrap();
//! ctx.feed(1, vec![10.0f32, 20.0]).unwrap();
//! let out = ctx.collect::<f32>(0).unwrap();
//! let report = ctx.run().unwrap();
//! assert!(report.drained());
//! assert_eq!(out.take(), vec![11.0, 22.0]);
//! ```

#![warn(missing_docs)]

pub mod channel;
mod compile;
pub mod context;
pub mod executor;
pub mod library;
#[macro_use]
pub mod macros;
pub mod port;
pub mod probe;
pub mod spec;

// Re-exported so `compute_kernel!` expansions can reach core types through
// `$crate`.
pub use cgsim_core;

pub use cgsim_trace;
pub use channel::{Channel, ChannelAdmin, ChannelMode, ChannelStats, Consumer, Producer};
pub use compile::{compile, compile_for, compile_linted, CompileError, CompiledPlan, RejectReason};
pub use context::{RunReport, RuntimeConfig, RuntimeContext, SinkHandle, VerifyPolicy};
pub use executor::{
    block_on, BoundsCheck, BoundsViolation, CancelToken, ExecStats, Executor, FaultPlan,
    FifoPolicy, Interrupt, LifoPolicy, LocalBoxFuture, Profiling, Schedule, SchedulePolicy,
    SeededPolicy, TaskProfile,
};
pub use library::{AnyChannel, KernelEntry, KernelImpl, KernelLibrary, PortBinder};
pub use port::{KernelReadPort, KernelWritePort};
pub use probe::{ChannelOccupancy, DebugSnapshot, ExecProbe, Introspector, WaitKind, WaitsForEdge};
pub use spec::{Backend, Launch, RunSpec};
