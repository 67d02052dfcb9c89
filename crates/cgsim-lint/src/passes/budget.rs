//! Realm-partition budget validation: the `CG05x` family.
//!
//! The paper places one AIE kernel per tile, window buffers in the tile's
//! 32 KiB data memory (doubled for ping-pong), and streams on the tile's
//! two-in/two-out stream-switch ports. Exceeding any of these is not a
//! style issue — `aiecompiler` would reject the design — so all three are
//! Error severity.

use crate::config::RealmBudgets;
use crate::diag::{Anchor, Diagnostic, LintReport, Severity};
use cgsim_core::{FlatGraph, KernelId, PortDir, PortKind, Realm};

/// Run the budget pass.
pub(crate) fn check(graph: &FlatGraph, report: &mut LintReport) {
    let budgets = &RealmBudgets::VC1902;

    let aie_kernels = graph
        .kernels
        .iter()
        .filter(|k| k.realm == Realm::Aie)
        .count();
    if aie_kernels > budgets.aie_tiles {
        report.push(Diagnostic::new(
            "CG050",
            Severity::Error,
            Anchor::Graph,
            format!(
                "graph places {aie_kernels} AIE kernels but the device has {} tiles (one kernel per tile)",
                budgets.aie_tiles
            ),
        ));
    }

    for (ki, k) in graph.kernels.iter().enumerate() {
        if k.realm != Realm::Aie {
            continue;
        }
        // Window memory: each window port owns a buffer in tile data memory;
        // ping-pong doubles it. Merged connector settings are authoritative.
        let window_bytes: u64 = k
            .ports
            .iter()
            .map(|p| {
                let s = &graph.connectors[p.connector.index()].settings;
                if PortKind::from_settings(s) == PortKind::Window {
                    u64::from(s.window_bytes) * if s.ping_pong { 2 } else { 1 }
                } else {
                    0
                }
            })
            .sum();
        if window_bytes > budgets.tile_data_bytes {
            report.push(Diagnostic::new(
                "CG051",
                Severity::Error,
                Anchor::Kernel {
                    kernel: KernelId::new(ki),
                },
                format!(
                    "kernel `{}` needs {window_bytes} bytes of window buffering but an AIE tile has {} bytes of data memory",
                    k.instance, budgets.tile_data_bytes
                ),
            ));
        }

        let streams = |dir: PortDir| {
            k.ports
                .iter()
                .filter(|p| {
                    p.dir == dir && graph.connectors[p.connector.index()].kind == PortKind::Stream
                })
                .count()
        };
        for (dir, used, budget) in [
            (PortDir::In, streams(PortDir::In), budgets.stream_in),
            (PortDir::Out, streams(PortDir::Out), budgets.stream_out),
        ] {
            if used > budget {
                report.push(Diagnostic::new(
                    "CG052",
                    Severity::Error,
                    Anchor::Kernel {
                        kernel: KernelId::new(ki),
                    },
                    format!(
                        "kernel `{}` uses {used} stream {dir}puts but an AIE core has {budget} stream {dir}put ports",
                        k.instance
                    ),
                ));
            }
        }
    }
}
