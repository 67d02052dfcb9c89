//! SDF rate-balance checking: `CG030`.
//!
//! Treating each kernel as an SDF actor with per-port rates (declared on
//! the port, or defaulting to 1), every
//! point-to-point connector imposes the balance equation
//! `f(producer) · rate(out port) = f(consumer) · rate(in port)` on the
//! firing vector `f`. The pass propagates a rational firing vector across
//! the graph and reports any connector whose equation contradicts the rates
//! already forced by the rest of the graph — the static form of a pipeline
//! that drifts out of step and eventually starves or floods a channel.
//!
//! When the equations are *consistent* the pass normalizes the per-kernel
//! ratios into minimal integer repetition counts and publishes them as
//! [`LintReport::firing_vector`], so downstream consumers — most notably
//! the `cgsim-compiled` schedule compiler — reuse this computation instead
//! of re-deriving it.
//!
//! Merge connectors (several producers) and runtime parameters are excluded:
//! their token flow is not a single-producer SDF edge.

use crate::diag::{Anchor, Diagnostic, LintReport, Severity};
use crate::passes::port_rate;
use cgsim_core::schedule::{FiringVector, Rational};
use cgsim_core::{ConnectorId, FlatGraph, PortKind, Topology};

/// Run the rate-balance pass.
pub(crate) fn check(graph: &FlatGraph, topo: &Topology, report: &mut LintReport) {
    // Balance constraints: (producer kernel, producer rate, consumer kernel,
    // consumer rate, connector) for every single-producer token edge,
    // listed under each kernel they involve, in connector order.
    let nk = graph.kernels.len();
    let mut constraints = vec![Vec::new(); nk];
    for ci in 0..graph.connectors.len() {
        let c = ConnectorId::new(ci);
        if graph.connectors[ci].kind == PortKind::RuntimeParam {
            continue;
        }
        let &[p] = topo.producers(c) else {
            continue; // merge or dangling: not a pure SDF edge
        };
        if topo.is_global_input(c) {
            continue; // externally fed: not a pure SDF edge
        }
        let p_rate = port_rate(graph, p.kernel.index(), p.port);
        for q in topo.consumers(c) {
            let q_rate = port_rate(graph, q.kernel.index(), q.port);
            let (pk, qk) = (p.kernel.index(), q.kernel.index());
            constraints[pk].push((pk, p_rate, qk, q_rate, c));
            if qk != pk {
                constraints[qk].push((pk, p_rate, qk, q_rate, c));
            }
        }
    }

    // Propagate a firing vector per weakly-connected component.
    let mut firing: Vec<Option<Rational>> = vec![None; nk];
    let mut component: Vec<usize> = vec![0; nk];
    let mut n_components = 0usize;
    let mut consistent = true;
    let mut reported = std::collections::BTreeSet::new();
    for seed in 0..nk {
        if firing[seed].is_some() {
            continue;
        }
        let comp = n_components;
        n_components += 1;
        firing[seed] = Some(Rational::ONE);
        component[seed] = comp;
        let mut queue = vec![seed];
        while let Some(k) = queue.pop() {
            let f_k = firing[k].expect("queued kernels have firing rates");
            for &(p, p_rate, q, q_rate, c) in &constraints[k] {
                // f(p) * p_rate = f(q) * q_rate, read in whichever
                // direction extends the assignment.
                let (unknown, scale_num, scale_den) = if p == k {
                    (q, p_rate, q_rate)
                } else {
                    (p, q_rate, p_rate)
                };
                let implied = f_k.scale(u64::from(scale_num), u64::from(scale_den));
                match firing[unknown] {
                    None => {
                        firing[unknown] = Some(implied);
                        component[unknown] = comp;
                        queue.push(unknown);
                    }
                    Some(existing) if existing != implied => {
                        consistent = false;
                        if reported.insert(c) {
                            let (kp, kq) = (&graph.kernels[p], &graph.kernels[q]);
                            report.push(Diagnostic::new(
                                "CG030",
                                Severity::Error,
                                Anchor::Connector { connector: c },
                                format!(
                                    "rate imbalance on {c}: `{}` produces {p_rate}/firing and `{}` consumes {q_rate}/firing, which would require firing ratio {} for `{}`, but the rest of the graph fixes it at {}; the pipeline starves or floods this channel",
                                    kp.instance, kq.instance, implied,
                                    graph.kernels[unknown].instance, existing
                                ),
                            ));
                        }
                    }
                    Some(_) => {}
                }
            }
        }
    }

    // Publish the normalized vector only when every balance equation held;
    // an inconsistent system has no meaningful repetition counts.
    if consistent {
        let ratios: Vec<Rational> = firing
            .into_iter()
            .map(|f| f.expect("every kernel was seeded"))
            .collect();
        report.firing = Some(FiringVector::from_components(&ratios, &component));
    }
}
