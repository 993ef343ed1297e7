//! The shared search-budget surface.
//!
//! `concolic::Budget` and `replay::ReplayBudget` grew the same knobs
//! field by field — run caps, per-run fuel, wall clock, frontier caps,
//! scheduling policy, worker count, prefix cache — as copy-pasted
//! definitions that drifted only in their defaults. [`SearchLimits`]
//! is the single definition both embed (via `Deref`, so every
//! `budget.max_runs` read and write keeps compiling unchanged); the
//! engine-specific budgets keep only what is genuinely theirs (the
//! concretization mode).

use crate::SearchPolicy;

/// The knobs shared by every frontier-driven search session, whether
/// the concolic analysis engine or the log-guided replay engine drives
/// it. Embedded by `concolic::Budget` and `replay::ReplayBudget`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchLimits {
    /// Maximum runs (path explorations / replay candidates).
    pub max_runs: usize,
    /// Instruction budget per run.
    pub fuel_per_run: u64,
    /// Optional wall-clock cap in milliseconds (0 = none).
    pub max_wall_ms: u64,
    /// Pending constraint sets scheduled per run. Bounds the
    /// otherwise-quadratic prefix copying on long paths.
    pub max_pendings_per_run: usize,
    /// Pending sets longer than this many literals are skipped (too
    /// deep to solve within interactive budgets).
    pub max_pending_lits: usize,
    /// Frontier scheduling policy (strategy, per-branch quotas, drain
    /// restarts, forced-set repair).
    pub policy: SearchPolicy,
    /// The search driver's round width ([`crate::driver`]): each round
    /// pops up to `workers.max(1)` pending sets, solves them on that many
    /// threads and commits the verdicts strictly in pop order, so results
    /// are identical for every worker count.
    pub workers: usize,
    /// Path-prefix solve cache over the frozen arena generations.
    /// Outcome-identical; only changes wall time.
    pub prefix_cache: bool,
}

impl SearchLimits {
    /// The concolic analysis defaults: the paper's deterministic
    /// stand-in for the 1-hour LC budget (64 runs).
    pub fn analysis() -> Self {
        SearchLimits {
            max_runs: 64,
            fuel_per_run: 20_000_000,
            max_wall_ms: 0,
            max_pendings_per_run: 64,
            max_pending_lits: 4000,
            policy: SearchPolicy::default(),
            workers: 1,
            prefix_cache: true,
        }
    }

    /// The replay defaults: the developer-site search gets a deeper
    /// run budget (512) because a replay that stops short is useless.
    pub fn replay() -> Self {
        SearchLimits {
            max_runs: 512,
            ..SearchLimits::analysis()
        }
    }

    /// Builder-style run cap.
    pub fn with_max_runs(mut self, n: usize) -> Self {
        self.max_runs = n;
        self
    }

    /// Builder-style worker count.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Builder-style scheduling policy.
    pub fn with_policy(mut self, policy: SearchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style prefix-cache toggle.
    pub fn with_prefix_cache(mut self, on: bool) -> Self {
        self.prefix_cache = on;
        self
    }
}

impl Default for SearchLimits {
    fn default() -> Self {
        SearchLimits::analysis()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_and_replay_differ_only_in_run_budget() {
        let a = SearchLimits::analysis();
        let r = SearchLimits::replay();
        assert_eq!(a.max_runs, 64);
        assert_eq!(r.max_runs, 512);
        assert_eq!(SearchLimits { max_runs: 64, ..r }, a);
        assert_eq!(SearchLimits::default(), SearchLimits::analysis());
    }

    #[test]
    fn builders_compose() {
        let l = SearchLimits::analysis()
            .with_max_runs(7)
            .with_workers(4)
            .with_policy(SearchPolicy::explorer())
            .with_prefix_cache(false);
        assert_eq!(l.max_runs, 7);
        assert_eq!(l.workers, 4);
        assert_eq!(l.policy, SearchPolicy::explorer());
        assert!(!l.prefix_cache);
    }
}
