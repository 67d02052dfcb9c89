//! The `compute_kernel!` macro (§3.3, Figure 3).
//!
//! Mirrors the paper's `COMPUTE_KERNEL(realm, name, ports…) { body }` macro:
//! the kernel is written as an ordinary function over typed read/write
//! ports, and the macro wraps it in a generated type carrying the execution
//! realm and I/O-port metadata (collected in C++ via type traits; here via
//! the port declarations themselves). The generated type implements:
//!
//! * [`cgsim_core::KernelDecl`] — compile-time metadata for graph building
//!   and extraction,
//! * [`crate::KernelImpl`] — the executable factory: typed channel
//!   construction per port and coroutine instantiation,
//! * an `invoke` method — the typed graph-construction call used inside
//!   graph-definition closures (paper Figure 4: `k(a, b)`),
//! * an async `run` method — the kernel body itself.
//!
//! ```
//! use cgsim_runtime::compute_kernel;
//!
//! compute_kernel! {
//!     /// Sums two input streams (the paper's Figure 3 adder).
//!     #[realm(aie)]
//!     pub fn adder_kernel(
//!         in1: ReadPort<f32>,
//!         in2: ReadPort<f32>,
//!         out: WritePort<f32>,
//!     ) {
//!         loop {
//!             let (Some(a), Some(b)) = (in1.get().await, in2.get().await) else { break };
//!             out.put(a + b).await;
//!         }
//!     }
//! }
//!
//! use cgsim_core::KernelDecl;
//! assert_eq!(adder_kernel::NAME, "adder_kernel");
//! assert_eq!(adder_kernel::meta().ports.len(), 3);
//! ```
//!
//! Port settings are attached with `@`, mirroring the paper's non-type
//! template arguments on `KernelReadPort`/`KernelWritePort`:
//!
//! ```
//! use cgsim_runtime::compute_kernel;
//! use cgsim_core::PortSettings;
//!
//! compute_kernel! {
//!     #[realm(aie)]
//!     pub fn windowed(
//!         input: ReadPort<i16> @ PortSettings::new().window_bytes(256).ping_pong(),
//!         out: WritePort<i16>,
//!     ) {
//!         while let Some(w) = input.get_window(128).await {
//!             out.put_window(w).await;
//!         }
//!     }
//! }
//! ```

/// Define a compute kernel. See the [module documentation](self) for the
/// full grammar and examples.
#[macro_export]
macro_rules! compute_kernel {
    (
        $(#[doc = $doc:expr])*
        #[realm($realm:ident)]
        $vis:vis fn $name:ident (
            $( $pname:ident : $pkind:ident < $pty:ty > $(@ $pset:expr)? ),* $(,)?
        ) $body:block
    ) => {
        $(#[doc = $doc])*
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy, Debug, Default)]
        $vis struct $name;

        impl $name {
            /// The kernel coroutine body; one invocation simulates one
            /// kernel instance for the lifetime of the graph.
            #[allow(unused_mut)]
            $vis async fn run(
                $( mut $pname : $crate::compute_kernel!(@port_ty $pkind, $pty) ),*
            ) {
                $body
            }

            /// Invoke this kernel inside a graph-definition closure,
            /// binding its ports positionally to the given connectors.
            #[allow(dead_code)]
            $vis fn invoke(
                g: &mut $crate::cgsim_core::GraphBuilder,
                $( $pname : &$crate::cgsim_core::Connector<$pty> ),*
            ) -> ::std::result::Result<
                $crate::cgsim_core::KernelId,
                $crate::cgsim_core::GraphError,
            > {
                g.invoke::<Self>(&[ $( $pname.id() ),* ])
            }
        }

        impl $crate::cgsim_core::KernelDecl for $name {
            const NAME: &'static str = ::std::stringify!($name);
            const REALM: $crate::cgsim_core::Realm = $crate::compute_kernel!(@realm $realm);

            fn meta() -> $crate::cgsim_core::KernelMeta {
                $crate::cgsim_core::KernelMeta {
                    name: <Self as $crate::cgsim_core::KernelDecl>::NAME.into(),
                    realm: <Self as $crate::cgsim_core::KernelDecl>::REALM,
                    ports: ::std::vec![
                        $( $crate::compute_kernel!(
                            @sig $pkind,
                            ::std::stringify!($pname),
                            $pty,
                            $crate::compute_kernel!(@settings $($pset)?)
                        ) ),*
                    ],
                }
            }
        }

        impl $crate::KernelImpl for $name {
            fn spawn(
                binder: &mut $crate::PortBinder<'_>,
            ) -> ::std::result::Result<$crate::LocalBoxFuture, $crate::cgsim_core::GraphError> {
                $( let $pname = $crate::compute_kernel!(@bind $pkind, binder, $pty); )*
                ::std::result::Result::Ok(::std::boxed::Box::pin(Self::run($($pname),*)))
            }

            fn make_channel(
                port_idx: usize,
                capacity: usize,
                mode: $crate::ChannelMode,
            ) -> ::std::result::Result<$crate::AnyChannel, $crate::cgsim_core::GraphError> {
                let constructors: &[fn(usize, $crate::ChannelMode) -> $crate::AnyChannel] = &[
                    $( |cap: usize, mode: $crate::ChannelMode| -> $crate::AnyChannel {
                        $crate::AnyChannel::typed($crate::Channel::<$pty>::with_mode(cap, mode))
                    } ),*
                ];
                match constructors.get(port_idx) {
                    ::std::option::Option::Some(f) => {
                        ::std::result::Result::Ok(f(capacity, mode))
                    }
                    ::std::option::Option::None => {
                        ::std::result::Result::Err($crate::cgsim_core::GraphError::ArityMismatch {
                            kernel: <Self as $crate::cgsim_core::KernelDecl>::NAME.into(),
                            expected: constructors.len(),
                            actual: port_idx + 1,
                        })
                    }
                }
            }
        }
    };

    // ---- helper arms -------------------------------------------------
    (@port_ty ReadPort, $t:ty) => { $crate::KernelReadPort<$t> };
    (@port_ty WritePort, $t:ty) => { $crate::KernelWritePort<$t> };

    (@sig ReadPort, $n:expr, $t:ty, $s:expr) => {
        $crate::cgsim_core::PortSig::read::<$t>($n, $s)
    };
    (@sig WritePort, $n:expr, $t:ty, $s:expr) => {
        $crate::cgsim_core::PortSig::write::<$t>($n, $s)
    };

    (@bind ReadPort, $b:ident, $t:ty) => { $b.read_port::<$t>()? };
    (@bind WritePort, $b:ident, $t:ty) => { $b.write_port::<$t>()? };

    (@settings) => { $crate::cgsim_core::PortSettings::DEFAULT };
    (@settings $s:expr) => { $s };

    (@realm aie) => { $crate::cgsim_core::Realm::Aie };
    (@realm noextract) => { $crate::cgsim_core::Realm::NoExtract };
    (@realm hls) => { $crate::cgsim_core::Realm::Hls };
}

/// Define a compute graph declaratively (§3.4, Figure 4).
///
/// This is the textual twin of the paper's `make_compute_graph_v` lambda:
/// `inputs` become global inputs, `let w = wire::<T>();` statements create
/// internal connectors, kernel-call statements bind kernels positionally,
/// and `outputs` lists the returned connectors. The *same* definition is
/// both executable (expands to [`cgsim_core::GraphBuilder`] calls, returning
/// `Result<FlatGraph, GraphError>`) and extractable (the `cgsim-extract`
/// interpreter evaluates the identical token stream, playing the role of
/// Clang's `constexpr` evaluator).
///
/// ```
/// use cgsim_runtime::{compute_kernel, compute_graph};
///
/// compute_kernel! {
///     #[realm(aie)]
///     pub fn scale_kernel(input: ReadPort<f32>, out: WritePort<f32>) {
///         while let Some(v) = input.get().await {
///             out.put(v * 3.0).await;
///         }
///     }
/// }
///
/// let graph = compute_graph! {
///     name: triple,
///     inputs: (a: f32),
///     body: {
///         let b = wire::<f32>();
///         scale_kernel(a, b);
///         attr(b, "plio_name", "out0");
///     },
///     outputs: (b),
/// }.unwrap();
/// assert_eq!(graph.name, "triple");
/// assert_eq!(graph.kernels.len(), 1);
/// ```
#[macro_export]
macro_rules! compute_graph {
    (
        name: $name:ident,
        inputs: ( $($iname:ident : $ity:ty),* $(,)? ),
        body: { $($body:tt)* },
        outputs: ( $($out:ident),* $(,)? ) $(,)?
    ) => {{
        $crate::cgsim_core::GraphBuilder::build(::std::stringify!($name), |g| {
            $( let $iname = g.input::<$ity>(::std::stringify!($iname)); )*
            $crate::compute_graph!(@body g, $($body)*);
            $( g.output(&$out); )*
            ::std::result::Result::Ok(())
        })
    }};

    // ---- body statement forms ----------------------------------------
    (@body $g:ident, ) => {};
    (@body $g:ident, let $w:ident = wire::<$t:ty>(); $($rest:tt)*) => {
        let $w = $g.wire::<$t>();
        $crate::compute_graph!(@body $g, $($rest)*);
    };
    (@body $g:ident, attr($c:ident, $k:literal, $v:literal); $($rest:tt)*) => {
        $g.attr(&$c, $k, $v);
        $crate::compute_graph!(@body $g, $($rest)*);
    };
    (@body $g:ident, settings($c:ident, $s:expr); $($rest:tt)*) => {
        $g.connector_settings(&$c, $s);
        $crate::compute_graph!(@body $g, $($rest)*);
    };
    (@body $g:ident, $kernel:ident ( $($arg:ident),* $(,)? ); $($rest:tt)*) => {
        $kernel::invoke($g, $( &$arg ),* )?;
        $crate::compute_graph!(@body $g, $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use cgsim_core::{KernelDecl, PortDir, PortKind, PortSettings, Realm};

    compute_kernel! {
        /// Doc comment survives into the generated type.
        #[realm(noextract)]
        pub fn host_logger(input: ReadPort<u32>, out: WritePort<u32>) {
            while let Some(v) = input.get().await {
                out.put(v).await;
            }
        }
    }

    compute_kernel! {
        #[realm(aie)]
        fn settings_kernel(
            input: ReadPort<i16> @ PortSettings::new().beat_bytes(16),
            param: ReadPort<f32> @ PortSettings::new().runtime_param(),
            out: WritePort<i16> @ PortSettings::new().window_bytes(512),
        ) {
            let _scale = param.get().await;
            while let Some(v) = input.get().await {
                out.put(v).await;
            }
        }
    }

    #[test]
    fn metadata_reflects_declaration() {
        assert_eq!(host_logger::NAME, "host_logger");
        assert_eq!(host_logger::REALM, Realm::NoExtract);
        let m = host_logger::meta();
        assert_eq!(m.ports.len(), 2);
        assert_eq!(m.ports[0].name, "input");
        assert_eq!(m.ports[0].dir, PortDir::In);
        assert_eq!(m.ports[1].dir, PortDir::Out);
        assert_eq!(m.ports[0].dtype.name, "u32");
    }

    #[test]
    fn port_settings_annotations_collected() {
        let m = settings_kernel::meta();
        assert_eq!(m.ports[0].settings.beat_bytes, 16);
        assert_eq!(m.ports[1].kind(), PortKind::RuntimeParam);
        assert_eq!(m.ports[2].kind(), PortKind::Window);
        assert_eq!(m.ports[2].settings.window_bytes, 512);
    }

    compute_kernel! {
        #[realm(aie)]
        fn cg_pass(input: ReadPort<u32>, out: WritePort<u32>) {
            while let Some(v) = input.get().await {
                out.put(v).await;
            }
        }
    }

    #[test]
    fn compute_graph_macro_builds_fig4() {
        let graph = compute_graph! {
            name: fig4,
            inputs: (a: u32),
            body: {
                let b = wire::<u32>();
                let c = wire::<u32>();
                cg_pass(a, b);
                cg_pass(b, c);
                attr(c, "plio_name", "out0");
                settings(b, PortSettings::new().depth(4));
            },
            outputs: (c),
        }
        .unwrap();
        assert_eq!(graph.kernels.len(), 2);
        assert_eq!(graph.connectors.len(), 3);
        assert_eq!(graph.connectors[1].settings.depth, 4);
        assert_eq!(graph.connectors[2].attrs.get_str("plio_name"), Some("out0"));
    }

    #[test]
    fn compute_graph_macro_supports_broadcast_and_merge() {
        let graph = compute_graph! {
            name: diamond,
            inputs: (a: u32),
            body: {
                let m = wire::<u32>();
                cg_pass(a, m);
                cg_pass(a, m);
            },
            outputs: (m),
        }
        .unwrap();
        let stats = graph.stats();
        assert_eq!(stats.broadcasts, 1); // `a` feeds two kernels
        assert_eq!(stats.merges, 1); // both write `m`
    }

    #[test]
    fn make_channel_is_positional_and_typed() {
        use crate::{ChannelMode, KernelImpl};
        let c0 = settings_kernel::make_channel(0, 4, ChannelMode::Shared).unwrap();
        assert!(c0.downcast::<crate::Channel<i16>>().is_ok());
        let c1 = settings_kernel::make_channel(1, 4, ChannelMode::Shared).unwrap();
        assert!(c1.downcast::<crate::Channel<f32>>().is_ok());
        assert!(settings_kernel::make_channel(3, 4, ChannelMode::Shared).is_err());
    }

    #[test]
    fn make_channel_selects_storage_policy() {
        use crate::{ChannelMode, KernelImpl};
        for mode in [ChannelMode::SingleThread, ChannelMode::Shared] {
            let chan = settings_kernel::make_channel(0, 4, mode).unwrap();
            let chan = chan.downcast::<crate::Channel<i16>>().unwrap();
            assert_eq!(chan.mode(), mode);
        }
    }
}
