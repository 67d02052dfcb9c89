//! `RunSpec` — the one configuration of a run.
//!
//! A [`RunSpec`] says everything about a run: one chainable builder naming
//! it, choosing the backend, and carrying the full [`RuntimeConfig`] (plain
//! data, set only through this builder) plus an optional wall-clock
//! deadline budget. What cannot cross the wire — a tracer and a cached
//! [`CompiledPlan`] — travels beside it as a [`Launch`]. What a run will
//! cost is not part of it: the party that admits a run computes that from
//! the graph it holds (`cgsim-serve` does, with `cgsim-lint`'s static
//! estimate).
//!
//! ```
//! use cgsim_runtime::{Profiling, RunSpec, Schedule, VerifyPolicy};
//! use std::time::Duration;
//!
//! let spec = RunSpec::for_graph("bitonic")
//!     .schedule(Schedule::Seeded(42))
//!     .profiling(Profiling::Full)
//!     .verify(VerifyPolicy::Warn)
//!     .deadline(Duration::from_secs(2));
//! assert_eq!(spec.label(), "bitonic");
//! assert_eq!(spec.config().schedule, Schedule::Seeded(42));
//! ```
//!
//! [`RuntimeContext::launch`](crate::RuntimeContext::launch) turns a spec
//! and a [`Launch`] into a running instance of any backend, and is the one
//! place that decides what [`Backend::Compiled`] runs; `cgsim-graphs` and
//! `cgsim-pool` (whole batches of specs on a worker pool) launch through it.

use crate::compile::CompiledPlan;
use crate::context::{RuntimeConfig, VerifyPolicy};
use crate::executor::{FaultPlan, Profiling, Schedule};
use cgsim_trace::Tracer;
use std::time::Duration;

/// Which execution engine a [`RunSpec`] targets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Backend {
    /// The cooperative single-threaded simulator (`cgsim`, the paper's
    /// primary engine).
    #[default]
    Cooperative,
    /// One OS thread per kernel, source and sink, each driving its
    /// coroutine with [`block_on`](crate::block_on) over mutex-guarded
    /// channels — the paper's x86sim comparison point (§5.2). The same
    /// [`RuntimeContext`](crate::RuntimeContext) as the other backends, with
    /// a different scheduler: validation, the lint gate, `default_depth` and
    /// I/O binding apply; schedule, faults, profiling, `max_polls`, the
    /// deadline, cancellation, the probe and bounds checks are the
    /// executor's and do not. See [`RunReport`](crate::RunReport) for what a
    /// threaded report carries.
    Threaded,
    /// The cooperative simulator following a [`CompiledPlan`]: coroutines
    /// get their first poll in a precompiled topological order and channels
    /// are sized ahead of the run from the SDF analysis, so the ready queue
    /// is never needed. The plan is [`Launch::plan`] when one is given, else
    /// compiled at launch (see
    /// [`RuntimeContext::launch`](crate::RuntimeContext::launch)). Only
    /// statically schedulable graphs (merge-free, rate-balanced, acyclic)
    /// under fault-free specs have a plan; the rest run as
    /// [`Backend::Cooperative`]. The schedule policy of the runtime
    /// configuration does not apply; everything else does.
    Compiled,
}

/// A complete, self-contained description of one simulation run: label,
/// backend, runtime configuration and deadline budget.
///
/// Cheap to clone and `Send`, so one spec can parameterise many instances
/// (the `cgsim-pool` batch engine submits one job per spec).
#[derive(Clone, Debug)]
pub struct RunSpec {
    label: String,
    backend: Backend,
    config: RuntimeConfig,
    deadline: Option<Duration>,
}

impl Default for RunSpec {
    /// An unnamed cooperative run under the default configuration.
    fn default() -> Self {
        RunSpec::for_graph("run")
    }
}

impl RunSpec {
    /// Start a spec for the graph (or workload) called `label`. The label
    /// names the run in pool reports, trace lanes and diagnostics; it does
    /// not have to match the graph's own name.
    pub fn for_graph(label: impl Into<String>) -> Self {
        RunSpec {
            label: label.into(),
            backend: Backend::Cooperative,
            config: RuntimeConfig::default(),
            deadline: None,
        }
    }

    /// Select the execution backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Set the scheduler's ready-list policy.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.config.schedule = schedule;
        self
    }

    /// Set the per-poll timing mode.
    pub fn profiling(mut self, profiling: Profiling) -> Self {
        self.config.profiling = profiling;
        self
    }

    /// Set the ahead-of-run lint-gate policy.
    pub fn verify(mut self, policy: VerifyPolicy) -> Self {
        self.config.verify = policy;
        self
    }

    /// Enable seeded fault injection.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.config.faults = Some(plan);
        self
    }

    /// Give the run a wall-clock budget. The clock starts when the run (not
    /// the spec) is created; under `cgsim-pool` it starts at job submission,
    /// so time spent queued counts against the budget.
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Bound total scheduler polls (safety valve against busy-yield loops).
    pub fn max_polls(mut self, budget: u64) -> Self {
        self.config.max_polls = Some(budget);
        self
    }

    /// Set the default channel capacity for connectors without an explicit
    /// `depth`.
    pub fn default_depth(mut self, depth: usize) -> Self {
        self.config.default_depth = depth;
        self
    }

    /// Replace the embedded runtime configuration wholesale — the bridge
    /// [`RuntimeContext::new`](crate::RuntimeContext::new) takes from a
    /// bare [`RuntimeConfig`].
    pub fn with_config(mut self, config: RuntimeConfig) -> Self {
        self.config = config;
        self
    }

    /// The run's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The backend this spec targets (set with [`RunSpec::backend`]).
    pub fn target(&self) -> Backend {
        self.backend
    }

    /// The embedded runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The wall-clock budget, if one was set with [`RunSpec::deadline`].
    pub fn deadline_budget(&self) -> Option<Duration> {
        self.deadline
    }
}

/// Per-launch resources that accompany a [`RunSpec`] without being part of
/// the (serializable) spec itself: a precompiled plan to reuse and a tracer
/// to record events into.
///
/// The serving layer (`cgsim-serve`) is the motivating caller: its
/// compiled-graph cache hands every request the same [`CompiledPlan`] so
/// only instantiation happens per request, and its per-request [`Tracer`]
/// collects the Chrome-trace the client asked for.
#[derive(Clone, Default)]
pub struct Launch {
    /// Precompiled plan for [`Backend::Compiled`] runs; when set, the run
    /// follows it instead of compiling the graph. Ignored by the other
    /// backends and by fault-carrying specs.
    pub plan: Option<CompiledPlan>,
    /// Tracer events are recorded into (disabled by default).
    pub tracer: Tracer,
}

impl Launch {
    /// Attach a precompiled plan.
    pub fn with_plan(mut self, plan: CompiledPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Attach a tracer.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }
}

// Versioned wire format for `RunSpec` (the `cgsim-serve` request schema).
// Hand-written so absent fields fall back to builder defaults and the
// deadline crosses the wire as integer nanoseconds rather than an opaque
// `Duration` encoding. Unknown keys are ignored, among them the retired
// `cost` (admission cost is the server's own estimate).
mod wire {
    use super::RunSpec;
    use serde::{get_field, DeError, Deserialize, Serialize, Value};
    use std::time::Duration;

    impl Serialize for RunSpec {
        fn to_value(&self) -> Value {
            Value::Object(vec![
                ("label".to_string(), self.label.to_value()),
                ("backend".to_string(), self.backend.to_value()),
                ("config".to_string(), self.config.to_value()),
                (
                    "deadline_ns".to_string(),
                    self.deadline.map(|d| d.as_nanos() as u64).to_value(),
                ),
            ])
        }
    }

    impl Deserialize for RunSpec {
        fn from_value(v: &Value) -> Result<Self, DeError> {
            let Value::Object(obj) = v else {
                return Err(DeError::expected("object", "RunSpec"));
            };
            let mut spec = RunSpec::default();
            if let Some(v) = get_field(obj, "label") {
                spec.label = Deserialize::from_value(v)?;
            }
            if let Some(v) = get_field(obj, "backend") {
                spec.backend = Deserialize::from_value(v)?;
            }
            if let Some(v) = get_field(obj, "config") {
                spec.config = Deserialize::from_value(v)?;
            }
            if let Some(v) = get_field(obj, "deadline_ns") {
                let ns: Option<u64> = Deserialize::from_value(v)?;
                spec.deadline = ns.map(Duration::from_nanos);
            }
            Ok(spec)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain_covers_every_axis() {
        let spec = RunSpec::for_graph("g")
            .backend(Backend::Threaded)
            .schedule(Schedule::Lifo)
            .profiling(Profiling::Off)
            .verify(VerifyPolicy::Off)
            .faults(FaultPlan::new(7, 25))
            .deadline(Duration::from_millis(250))
            .max_polls(1_000)
            .default_depth(8);
        assert_eq!(spec.label(), "g");
        assert_eq!(spec.target(), Backend::Threaded);
        let cfg = spec.config();
        assert_eq!(cfg.schedule, Schedule::Lifo);
        assert_eq!(cfg.profiling, Profiling::Off);
        assert_eq!(cfg.verify, VerifyPolicy::Off);
        assert_eq!(cfg.faults, Some(FaultPlan::new(7, 25)));
        assert_eq!(cfg.max_polls, Some(1_000));
        assert_eq!(cfg.default_depth, 8);
        assert_eq!(spec.deadline_budget(), Some(Duration::from_millis(250)));
    }

    #[test]
    fn default_spec_matches_default_config() {
        let spec = RunSpec::default();
        assert_eq!(spec.target(), Backend::Cooperative);
        assert_eq!(spec.deadline_budget(), None);
        let d = RuntimeConfig::default();
        let c = spec.config();
        assert_eq!(c.schedule, d.schedule);
        assert_eq!(c.verify, d.verify);
        assert_eq!(c.default_depth, d.default_depth);
    }

    #[test]
    fn with_config_replaces_wholesale() {
        let cfg = RuntimeConfig {
            max_polls: Some(99),
            schedule: Schedule::Seeded(3),
            ..RuntimeConfig::default()
        };
        let spec = RunSpec::for_graph("x").with_config(cfg);
        assert_eq!(spec.config().max_polls, Some(99));
        assert_eq!(spec.config().schedule, Schedule::Seeded(3));
    }

    #[test]
    fn wire_round_trip_preserves_every_axis() {
        let spec = RunSpec::for_graph("wire")
            .backend(Backend::Compiled)
            .schedule(Schedule::Seeded(11))
            .profiling(Profiling::Full)
            .verify(VerifyPolicy::Warn)
            .faults(FaultPlan::new(3, 10))
            .deadline(Duration::from_millis(125))
            .max_polls(4_096)
            .default_depth(16);
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: RunSpec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.label(), spec.label());
        assert_eq!(back.target(), spec.target());
        assert_eq!(back.deadline_budget(), spec.deadline_budget());
        let (a, b) = (back.config(), spec.config());
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.profiling, b.profiling);
        assert_eq!(a.verify, b.verify);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.max_polls, b.max_polls);
        assert_eq!(a.default_depth, b.default_depth);
    }

    #[test]
    fn wire_absent_fields_fall_back_to_defaults() {
        let spec: RunSpec = serde_json::from_str(r#"{"label":"sparse"}"#).expect("deserialize");
        assert_eq!(spec.label(), "sparse");
        assert_eq!(spec.target(), Backend::Cooperative);
        assert_eq!(spec.deadline_budget(), None);
        assert_eq!(spec.config().default_depth, 64);
        assert_eq!(spec.config().verify, VerifyPolicy::Deny);
    }
}
