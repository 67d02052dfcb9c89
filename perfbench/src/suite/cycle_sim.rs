//! `cycle_sim`: the cycle-approximate simulator, `aie_sim::simulate_graph`.
//!
//! The slowest simulator in the paper and a different engine:
//! `cgsim-runtime` does nothing here, so runtime work must leave this
//! workload flat. One pass simulates the four apps cycle-stepped, then
//! event-driven on sixteen times the blocks. Simulated cycles, stalls and
//! the scoreboard fingerprint are exact counts and must never move; host
//! time is what is measured.

use super::spans::Spans;
use super::APP_KEYS;
use super::{
    layer_medians, repeat_for, staged_over_e2e, untraced_p50_us, Metrics, Tally, Workload,
};
use aie_sim::{simulate_graph, KernelCostProfile, SimConfig, SimReport, WorkloadSpec};
use cgsim_core::FlatGraph;
use cgsim_graphs::{all_apps, EvalApp};
use std::collections::HashMap;
use std::time::Duration;

/// Blocks simulated cycle-stepped, per app: the 1400/7/7/16 a 25 s window
/// was sized for, cut so a 15 s window holds some 300 passes.
pub const STEPPED_BLOCKS: [u64; 4] = [280, 2, 2, 4];
/// The event-driven leg simulates this many times the stepped blocks.
pub const EVENT_SCALE: u64 = 16;

/// The simulated statistics of one leg.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Simulated {
    end_time: u64,
    stalls: Vec<u64>,
    micro_fingerprint: u64,
}

/// One app, prepared: graph, cost profiles and the two legs' goldens.
struct Prepared {
    key: &'static str,
    graph: FlatGraph,
    profiles: HashMap<String, KernelCostProfile>,
    stepped: (WorkloadSpec, Simulated),
    event: (WorkloadSpec, Simulated),
}

/// The workload, set up.
pub struct CycleSim {
    apps: Vec<Box<dyn EvalApp>>,
    prepared: Vec<Prepared>,
}

fn stepped_config() -> SimConfig {
    SimConfig {
        cycle_stepping: true,
        ..SimConfig::hand_optimized()
    }
}

fn simulate(
    p: &Prepared,
    config: &SimConfig,
    workload: &WorkloadSpec,
) -> Result<aie_sim::GraphTrace, String> {
    simulate_graph(&p.graph, &p.profiles, config, workload).map_err(|e| format!("{}: {e}", p.key))
}

fn simulated(trace: &aie_sim::GraphTrace) -> Simulated {
    Simulated {
        end_time: trace.trace.end_time,
        stalls: trace.trace.stalls.clone(),
        micro_fingerprint: trace.trace.micro_fingerprint,
    }
}

impl CycleSim {
    /// Prepare graphs and profiles, record every leg's simulated
    /// statistics, and check the two engines agree at equal blocks.
    pub fn setup() -> Result<Self, String> {
        let apps = all_apps();
        let mut prepared = Vec::new();
        for ((app, key), blocks) in apps.iter().zip(APP_KEYS).zip(STEPPED_BLOCKS) {
            let mut p = Prepared {
                key,
                graph: app.graph(),
                profiles: app.profiles(),
                stepped: (app.workload(blocks), Simulated::default()),
                event: (app.workload(blocks * EVENT_SCALE), Simulated::default()),
            };
            p.stepped.1 = simulated(&simulate(&p, &stepped_config(), &p.stepped.0)?);
            p.event.1 = simulated(&simulate(&p, &SimConfig::hand_optimized(), &p.event.0)?);
            let same_blocks = simulate(&p, &SimConfig::hand_optimized(), &p.stepped.0)?;
            if same_blocks.trace.end_time != p.stepped.1.end_time {
                return Err(format!(
                    "{key}: cycle-stepped ends at {} and event-driven at {} on {blocks} blocks",
                    p.stepped.1.end_time, same_blocks.trace.end_time
                ));
            }
            prepared.push(p);
        }
        Ok(CycleSim { apps, prepared })
    }

    fn leg(
        p: &Prepared,
        spans: &mut Spans,
        span: &'static str,
        config: &SimConfig,
        (workload, golden): &(WorkloadSpec, Simulated),
    ) -> Result<(), String> {
        let trace = spans.record(span, p.key, |_| simulate(p, config, workload))?;
        let got = simulated(&trace);
        if got != *golden {
            return Err(format!(
                "{span}.{}: simulated statistics moved, {got:?} against {golden:?} in setup",
                p.key
            ));
        }
        Ok(())
    }

    fn stalls(&self) -> u64 {
        self.prepared
            .iter()
            .flat_map(|p| p.stepped.1.stalls.iter().chain(&p.event.1.stalls))
            .sum()
    }
}

impl Workload for CycleSim {
    fn params(&self) -> String {
        format!(
            "closed loop, 1 thread; pass = simulate_graph(hand_optimized) on four apps, \
             cycle-stepped at {STEPPED_BLOCKS:?} blocks and event-driven at {EVENT_SCALE}x"
        )
    }

    fn op(&mut self, spans: &mut Spans) -> Result<(), String> {
        let (stepped, event) = (stepped_config(), SimConfig::hand_optimized());
        for p in &self.prepared {
            Self::leg(p, spans, "aie-sim.stepped_us", &stepped, &p.stepped)?;
            Self::leg(p, spans, "aie-sim.event_us", &event, &p.event)?;
        }
        Ok(())
    }

    fn traced(
        &mut self,
        budget: Duration,
        spans: &mut Spans,
        tally: &mut Tally,
    ) -> Result<Metrics, String> {
        let mut off = Spans::disabled();
        let untraced = untraced_p50_us(budget.mul_f64(0.35), 3, tally, || self.op(&mut off));
        repeat_for(budget.mul_f64(0.5), 3, || {
            spans.next_op();
            tally.note(&self.op(spans));
        });
        let mut metrics = Metrics::new();
        metrics.insert(
            "bench.staged_over_e2e".into(),
            staged_over_e2e(spans, untraced),
        );

        // Off the pass: what a caller pays around `simulate_graph`.
        repeat_for(budget.mul_f64(0.15), 3, || {
            spans.next_op();
            for (app, p) in self.apps.iter().zip(&self.prepared) {
                spans.record("aie-sim.profiles_us", "", |_| app.profiles());
                let Ok(trace) = simulate(p, &SimConfig::hand_optimized(), &p.event.0) else {
                    continue;
                };
                let kinds: HashMap<String, String> = p
                    .graph
                    .kernels
                    .iter()
                    .map(|k| (k.instance.clone(), k.kind.clone()))
                    .collect();
                let config = SimConfig::hand_optimized();
                spans.record("aie-sim.report_build_us", "", |_| {
                    SimReport::build(&trace, &p.profiles, &kinds, &config)
                });
            }
        });

        metrics.extend(layer_medians(spans));
        let stepped_us: f64 = APP_KEYS
            .iter()
            .map(|k| metrics[&format!("aie-sim.stepped_us.{k}")])
            .sum();
        let stepped_cycles: u64 = self.prepared.iter().map(|p| p.stepped.1.end_time).sum();
        metrics.insert(
            "aie-sim.host_ns_per_sim_cycle".into(),
            stepped_us * 1e3 / stepped_cycles as f64,
        );
        metrics.insert("aie-sim.stalls".into(), self.stalls() as f64);
        for p in &self.prepared {
            metrics.insert(
                format!("aie-sim.sim_cycles.{}", p.key),
                p.stepped.1.end_time as f64,
            );
        }
        Ok(metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_reproduces_setup_and_a_moved_cycle_count_fails_it() {
        let mut sim = CycleSim::setup().unwrap();
        let mut spans = Spans::enabled();
        spans.next_op();
        sim.op(&mut spans).unwrap();
        assert_eq!(spans.all().len(), 8);
        for p in &sim.prepared {
            assert!(p.stepped.1.end_time > 0 && p.stepped.1.micro_fingerprint != 0);
            // The event-driven engine keeps no scoreboard.
            assert_eq!(p.event.1.micro_fingerprint, 0);
            assert!(p.event.1.end_time > p.stepped.1.end_time);
        }
        assert!(sim.stalls() > 0);
        sim.prepared[1].stepped.1.end_time += 1;
        let err = sim.op(&mut Spans::disabled()).unwrap_err();
        assert!(
            err.contains("aie-sim.stepped_us.farrow") && err.contains("moved"),
            "{err}"
        );
    }
}
