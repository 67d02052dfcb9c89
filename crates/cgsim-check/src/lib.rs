//! # cgsim-check — deterministic schedule fuzzing & cross-backend conformance
//!
//! The repository reproduces the paper's claim that one compute-graph
//! description runs identically across execution engines (cooperative
//! functional simulation, thread-per-kernel simulation, cycle-approximate
//! AIE simulation). This crate *tests* that claim continuously, the way the
//! paper cross-validates its functional x86 simulation against `aiesim`:
//!
//! * [`gen`] — a seeded random graph generator spanning the attribute space
//!   (broadcast fan-out, merge fan-in, capacity-1 channels, multi-realm
//!   partitions, multiple sources/sinks);
//! * [`oracle`] — a differential oracle executing each generated graph on
//!   every backend under many seeded schedule permutations and fault
//!   injections, asserting identical sink outputs, channel conservation and
//!   trace invariants;
//! * [`repro`] — one-line reproduction commands embedded in every failure.
//!
//! The `conform` binary drives suites of cases:
//!
//! ```text
//! cargo run --release -p cgsim-check --bin conform -- --seed 42 --cases 200
//! ```
//!
//! Per-case seeds are `suite_seed + index`, so any failing case replays in
//! isolation with `--seed <case_seed> --cases 1`.

#![warn(missing_docs)]

pub mod gen;
pub mod kernels;
pub mod oracle;
pub mod repro;

pub use gen::{generate, GeneratedCase, OutputSpec};
pub use oracle::{check_case, CaseVerdict};
pub use repro::{parse_repro, repro_command};

/// Everything one conformance suite run needs.
#[derive(Clone, Copy, Debug)]
pub struct SuiteConfig {
    /// Base seed; case `i` uses seed `seed + i` (wrapping).
    pub seed: u64,
    /// Number of cases to generate and check.
    pub cases: u64,
    /// Seeded ready-list permutations per case (on top of FIFO + LIFO).
    pub schedules: u32,
}

impl SuiteConfig {
    /// A suite of `cases` cases starting at `seed`, with the default
    /// number of schedule permutations.
    pub fn new(seed: u64, cases: u64) -> Self {
        SuiteConfig {
            seed,
            cases,
            schedules: oracle::SCHEDULES,
        }
    }
}

/// Result of one suite run.
#[derive(Clone, Debug)]
pub struct SuiteReport {
    /// Base seed the suite ran with.
    pub seed: u64,
    /// Structural signature of every case, in case order — a deterministic
    /// function of the base seed, so two runs with the same seed can assert
    /// they saw the identical case list.
    pub signatures: Vec<String>,
    /// Total backend/permutation legs run across all cases.
    pub legs: usize,
    /// Cases the compiled static-schedule backend declined (merge-carrying
    /// graphs); each reject was cross-checked against the lint verdict.
    pub compiled_rejects: usize,
    /// Verdicts of the cases that failed (empty = fully conforming).
    pub failures: Vec<CaseVerdict>,
}

impl SuiteReport {
    /// Whether every case conformed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// FNV-1a digest over the case-signature list: a compact witness that
    /// two runs of the same seed enumerated the identical cases.
    pub fn case_list_digest(&self) -> u64 {
        gen::fnv1a(&self.signatures.join("\n"))
    }
}

/// Run a conformance suite: generate `cfg.cases` cases and put each through
/// the full differential oracle.
pub fn run_suite(cfg: &SuiteConfig) -> SuiteReport {
    run_suite_with(cfg, |_| {})
}

/// [`run_suite`] with a progress callback invoked after every case verdict
/// (the `conform` binary uses it for live reporting).
pub fn run_suite_with(cfg: &SuiteConfig, mut on_case: impl FnMut(&CaseVerdict)) -> SuiteReport {
    let mut signatures = Vec::with_capacity(cfg.cases as usize);
    let mut failures = Vec::new();
    let mut legs = 0usize;
    let mut compiled_rejects = 0usize;
    for i in 0..cfg.cases {
        let case_seed = cfg.seed.wrapping_add(i);
        let case = gen::generate(case_seed);
        let verdict = oracle::check_case(&case, cfg.schedules);
        signatures.push(verdict.signature.clone());
        legs += verdict.legs;
        compiled_rejects += usize::from(verdict.compiled_rejected);
        on_case(&verdict);
        if !verdict.ok() {
            failures.push(verdict);
        }
    }
    SuiteReport {
        seed: cfg.seed,
        signatures,
        legs,
        compiled_rejects,
        failures,
    }
}

/// Check a single seed and panic with a reproduction command on any
/// disagreement — the entry point property tests and CI assertions use.
pub fn assert_seed_conforms(seed: u64) {
    let case = gen::generate(seed);
    let verdict = oracle::check_case(&case, oracle::SCHEDULES);
    assert!(
        verdict.ok(),
        "conformance failure for seed {seed} ({}):\n  {}\nreproduce with: {}",
        verdict.signature,
        verdict.failures.join("\n  "),
        repro::repro_command(seed),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_reproducible_per_seed() {
        let cfg = SuiteConfig::new(7, 5);
        let a = run_suite(&cfg);
        let b = run_suite(&cfg);
        assert!(a.ok(), "{:#?}", a.failures);
        assert_eq!(a.signatures, b.signatures);
        assert_eq!(a.case_list_digest(), b.case_list_digest());
        assert!(a.legs >= 5 * 10, "suspiciously few legs: {}", a.legs);
    }

    #[test]
    fn case_seeds_replay_in_isolation() {
        // The i-th case of a suite equals a 1-case suite at seed + i — the
        // property the printed repro command relies on.
        let suite = run_suite(&SuiteConfig::new(100, 4));
        for i in 0..4u64 {
            let solo = run_suite(&SuiteConfig::new(100 + i, 1));
            assert_eq!(solo.signatures[0], suite.signatures[i as usize]);
        }
    }

    #[test]
    fn generated_graphs_lint_error_clean() {
        // Soundness of the generator against the static verifier: every
        // graph `gen` emits must be free of Error-severity findings (merge
        // fan-in CG043 warnings are expected and fine).
        for seed in 0..40u64 {
            let case = gen::generate(seed);
            let lint = cgsim_lint::lint_graph(&case.graph, &cgsim_lint::LintConfig::default());
            assert!(
                !lint.has_errors(),
                "seed {seed}:\n{}",
                lint.render_human(&case.graph)
            );
        }
    }

    #[test]
    fn assert_seed_conforms_panic_contains_repro() {
        // Sanity-check the happy path (no panic) …
        assert_seed_conforms(11);
        // … and that a failure message would round-trip through the parser.
        let (seed, cases) = parse_repro(&repro_command(11)).unwrap();
        assert_eq!((seed, cases), (11, 1));
    }
}
