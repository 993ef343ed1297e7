//! The one search budget.
//!
//! The concolic analysis and the log-guided replay run the same guided
//! search, so they take the same knobs: run cap, scheduling policy,
//! worker count, prefix cache and the concretization mode of their
//! shared shadow. [`SearchLimits`] is that budget; the two engines differ
//! only in its defaults ([`SearchLimits::analysis`],
//! [`SearchLimits::replay`]). The per-run fuel and the frontier's two
//! caps are constants, since no session varies them. Runs, fuel and the
//! solver's iteration cap bound a search deterministically; there is no
//! wall-clock cap.

use crate::SearchPolicy;

/// Instruction budget of one run, in both engines.
pub const FUEL_PER_RUN: u64 = 20_000_000;

/// Pending sets longer than this many literals are skipped (too deep to
/// solve within interactive budgets).
pub const MAX_PENDING_LITS: usize = 4000;

/// Standard pending sets a run may schedule. Bounds the
/// otherwise-quadratic prefix copying on long paths.
pub const MAX_PENDINGS_PER_RUN: usize = 64;

/// How symbolic address components are concretized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Concretization {
    /// The classic CUTE-style equality pin (`expr == observed`).
    Pin,
    /// Offset-generalizing: bound the component to the values that keep
    /// the access inside the object's region, falling back to the pin
    /// when no region is known.
    #[default]
    RegionBounds,
}

/// The budget of one frontier-driven search session, whether the
/// concolic analysis engine or the log-guided replay engine drives it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchLimits {
    /// Maximum runs (path explorations / replay candidates).
    pub max_runs: usize,
    /// Frontier scheduling policy (strategy, per-branch quotas, drain
    /// restarts).
    pub policy: SearchPolicy,
    /// The search driver's round width ([`crate::driver`]): each round
    /// pops up to `workers.max(1)` pending sets, solves them on that many
    /// threads and commits the verdicts strictly in pop order, so results
    /// are identical for every worker count.
    pub workers: usize,
    /// Path-prefix solve cache over the frozen arena generations.
    /// Outcome-identical; only changes wall time.
    pub prefix_cache: bool,
    /// How symbolic address components are concretized (offset-
    /// generalizing region bounds by default; `Pin` restores the classic
    /// equality-pin behavior).
    pub concretization: Concretization,
}

impl SearchLimits {
    /// The concolic analysis defaults: the paper's deterministic
    /// stand-in for the 1-hour LC budget (64 runs).
    pub fn analysis() -> Self {
        SearchLimits {
            max_runs: 64,
            policy: SearchPolicy::default(),
            workers: 1,
            prefix_cache: true,
            concretization: Concretization::default(),
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
}
