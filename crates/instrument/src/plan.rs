//! Instrumentation plans: which branch locations get logged.
//!
//! Implements the four methods of §2.3 and the combination rule of the
//! paper's headline contribution:
//!
//! > "The combined method instruments the branches (1) that are labeled
//! > symbolic by the dynamic analysis, and (2) that are labeled symbolic
//! > by the static analysis, with the exception of those labeled concrete
//! > by the dynamic analysis."

use minic::{BranchId, BranchInfo, BranchKind};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Dynamic-analysis labels as the instrumentation layer consumes them.
///
/// Mirror of `concolic::BranchLabel`, duplicated here so `instrument`
/// does not depend on the analysis crates (plans can be built from any
/// label source, including hand-written ones in tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum DynLabel {
    /// Not visited by the dynamic analysis.
    #[default]
    Unvisited,
    /// Visited, never input-dependent.
    Concrete,
    /// Visited and input-dependent.
    Symbolic,
}

/// The four instrumentation methods of the paper (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Instrument branches the dynamic analysis labeled symbolic.
    Dynamic,
    /// Instrument branches the static analysis labeled symbolic.
    Static,
    /// The combined method (see module docs).
    DynamicStatic,
    /// Instrument every branch location.
    AllBranches,
}

impl Method {
    /// All four methods, in the paper's presentation order.
    pub const ALL: [Method; 4] = [
        Method::Dynamic,
        Method::DynamicStatic,
        Method::Static,
        Method::AllBranches,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Method::Dynamic => "dynamic",
            Method::Static => "static",
            Method::DynamicStatic => "dynamic+static",
            Method::AllBranches => "all branches",
        }
    }
}

/// On-wire layout of the branch log a plan's runtime produces.
///
/// The flat format is the paper's single bitvector. The per-location
/// format spends extra instrumentation (a cursor-table indirection per
/// logged execution, `minic::cost::CURSOR_STEP_COST`) to give every
/// branch location its own bit stream, so one wrong unlogged loop exit
/// cannot shift which branch instance consumes which bit across the
/// whole log — the combined-row misalignment pathology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum LogFormat {
    /// One flat bitvector in global execution order (the paper's §4).
    #[default]
    Flat,
    /// One bit stream per instrumented branch location.
    PerLocation,
}

/// Why a branch location's log bit is suppressed: its outcome is always
/// `by`'s most recent outcome (inverted when `negated`), so the runtime
/// never logs it and replay reconstructs the bit instead. Produced by
/// `staticax`'s implication analysis; mirrored here so `instrument`
/// stays independent of the analysis crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Suppressed {
    /// The logged (or itself suppressed) branch whose outcome implies
    /// this one.
    pub by: BranchId,
    /// Whether the implied outcome is the opposite direction.
    pub negated: bool,
}

/// A concrete instrumentation plan for one program build.
///
/// The developer retains this ("the list of instrumented branches is
/// retained by the developer, because it is needed to reproduce the
/// bug", §2.3); replay consumes it together with the shipped log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Plan {
    /// The method that produced this plan.
    pub method: Method,
    /// `instrumented[b]`: is branch location `b` logged?
    pub instrumented: Vec<bool>,
    /// `suppressed[b]`: branch `b` would be instrumented, but its
    /// outcome is implied by an earlier branch's — the runtime skips it
    /// and replay reconstructs the bit. Empty (or all-`None`) when the
    /// plan was built without implication suppression.
    pub suppressed: Vec<Option<Suppressed>>,
    /// Whether selected system-call results are logged too.
    pub log_syscalls: bool,
    /// Log format the runtime emits (and replay expects).
    pub format: LogFormat,
    /// Plan generation: 1 for every statically-derived plan, bumped by
    /// each escalation on replay hints (`crate::escalate`).
    pub generation: u32,
    /// Syscall-anchored cursor checkpoints: under the per-location
    /// format, snapshot every location's cursor position at each logged
    /// syscall boundary so replay can verify synchronization *between*
    /// divergences instead of re-deriving from branch bits alone. An
    /// escalation rule — never set on generation-1 plans.
    pub checkpoints: bool,
    /// Multi-byte string-literal forcing: per branch location, the
    /// candidate literals whose whole value should be offered as one
    /// priority set when replay keeps one-byte-repairing a `strcmp`/
    /// scan-loop cluster there. Sorted by location; empty on
    /// generation-1 plans.
    pub forced_literals: Vec<(u32, Vec<Vec<u8>>)>,
}

impl Plan {
    /// Builds a plan per §2.3 from the two analyses' outputs.
    ///
    /// `dynamic` and `static_symbolic` are indexed by `BranchId`; they
    /// must cover all `n_branches` locations.
    pub fn build(
        method: Method,
        dynamic: &[DynLabel],
        static_symbolic: &[bool],
        n_branches: usize,
    ) -> Plan {
        assert_eq!(dynamic.len(), n_branches, "dynamic labels cover program");
        assert_eq!(
            static_symbolic.len(),
            n_branches,
            "static labels cover program"
        );
        let instrumented = (0..n_branches)
            .map(|i| match method {
                Method::AllBranches => true,
                Method::Dynamic => dynamic[i] == DynLabel::Symbolic,
                Method::Static => static_symbolic[i],
                Method::DynamicStatic => match dynamic[i] {
                    DynLabel::Symbolic => true,
                    DynLabel::Concrete => false, // overrides static
                    DynLabel::Unvisited => static_symbolic[i],
                },
            })
            .collect();
        Plan {
            method,
            instrumented,
            suppressed: Vec::new(),
            log_syscalls: true,
            format: LogFormat::Flat,
            generation: 1,
            checkpoints: false,
            forced_literals: Vec::new(),
        }
    }

    /// A plan that instruments nothing (the `none` baseline).
    pub fn none(n_branches: usize) -> Plan {
        Plan {
            method: Method::Dynamic,
            instrumented: vec![false; n_branches],
            suppressed: Vec::new(),
            log_syscalls: false,
            format: LogFormat::Flat,
            generation: 1,
            checkpoints: false,
            forced_literals: Vec::new(),
        }
    }

    /// The forced-literal candidates registered for a branch location
    /// (empty on generation-1 plans).
    pub fn forced_literals_at(&self, loc: u32) -> &[Vec<u8>] {
        self.forced_literals
            .binary_search_by_key(&loc, |(l, _)| *l)
            .map(|i| self.forced_literals[i].1.as_slice())
            .unwrap_or(&[])
    }

    /// Overrides the log format (ablations and tests).
    pub fn with_format(mut self, format: LogFormat) -> Plan {
        self.format = format;
        self
    }

    /// Applies implication suppression: every branch `b` with an
    /// implication `(b, by, negated)` whose implier `by` is *also* in
    /// the base instrumented set is dropped from the logged set and
    /// recorded in [`Plan::suppressed`] instead.
    ///
    /// Restricting suppression to impliers inside the base set keeps
    /// the plan's information content identical to the unsuppressed
    /// plan: the implier's outcome is itself logged (or reconstructed
    /// along a chain that bottoms out in a logged branch — strict
    /// dominance makes chains acyclic), so replay loses no divergence
    /// signal and run counts cannot get worse.
    pub(crate) fn apply_suppression<I>(mut self, implications: I) -> Plan
    where
        I: IntoIterator<Item = (BranchId, BranchId, bool)>,
    {
        let n = self.instrumented.len();
        let base = self.instrumented.clone();
        let mut suppressed = vec![None; n];
        for (b, by, negated) in implications {
            let (bi, yi) = (b.0 as usize, by.0 as usize);
            if bi < n && yi < n && base[bi] && base[yi] {
                suppressed[bi] = Some(Suppressed { by, negated });
                self.instrumented[bi] = false;
            }
        }
        self.suppressed = suppressed;
        self
    }

    /// The suppression entry for a branch, if any.
    pub fn suppresses(&self, b: BranchId) -> Option<Suppressed> {
        self.suppressed.get(b.0 as usize).copied().flatten()
    }

    /// Whether a branch's outcome is observable at replay — logged
    /// ([`Plan::covers`]) or reconstructed from a suppressed-bit
    /// implication.
    pub fn observes(&self, b: BranchId) -> bool {
        self.covers(b) || self.suppresses(b).is_some()
    }

    /// Number of suppressed branch locations.
    pub fn n_suppressed(&self) -> usize {
        self.suppressed.iter().filter(|s| s.is_some()).count()
    }

    /// True when this plan leaves a loop-kind branch unlogged inside a
    /// function where it logs at least one other branch — a *partially
    /// instrumented loop cluster*. A wrong trip count at such a loop is
    /// exactly what shifts the flat bitvector out of alignment: every
    /// logged branch downstream consumes bits recorded for other
    /// instances.
    pub fn has_partial_loop_cluster<'a>(
        &self,
        branches: impl IntoIterator<Item = &'a BranchInfo>,
    ) -> bool {
        // Cluster key: (unit, enclosing function).
        let mut logged: HashSet<(u16, &str)> = HashSet::new();
        let mut unlogged_loops: HashSet<(u16, &str)> = HashSet::new();
        for b in branches {
            let key = (b.unit.0, b.func.as_str());
            if self.covers(b.id) {
                logged.insert(key);
            } else if !self.observes(b.id)
                && matches!(
                    b.kind,
                    BranchKind::While | BranchKind::DoWhile | BranchKind::For
                )
            {
                // A *suppressed* loop is observed, not unlogged: replay
                // reconstructs its exits deterministically, so it cannot
                // shift the flat bitvector.
                unlogged_loops.insert(key);
            }
        }
        logged.iter().any(|k| unlogged_loops.contains(k))
    }

    /// The combined method's log-format opt-in: spend the per-location
    /// cursor table exactly where the flat format is fragile (a partially
    /// instrumented loop cluster), keep the flat format — bit for bit —
    /// everywhere else. Fully-logged and single-analysis plans never
    /// switch, so their baselines stay untouched.
    pub(crate) fn apply_cursor_opt_in<'a>(
        mut self,
        branches: impl IntoIterator<Item = &'a BranchInfo>,
    ) -> Plan {
        if self.method == Method::DynamicStatic && self.has_partial_loop_cluster(branches) {
            self.format = LogFormat::PerLocation;
        }
        self
    }

    /// Whether a branch is instrumented.
    pub fn covers(&self, b: BranchId) -> bool {
        self.instrumented
            .get(b.0 as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Number of instrumented branch locations (Table 2's metric).
    pub fn n_instrumented(&self) -> usize {
        self.instrumented.iter().filter(|b| **b).count()
    }

    /// Ids of instrumented branch locations.
    pub fn instrumented_branches(&self) -> Vec<BranchId> {
        self.instrumented
            .iter()
            .enumerate()
            .filter(|(_, b)| **b)
            .map(|(i, _)| BranchId(i as u32))
            .collect()
    }

    /// Disables syscall-result logging (the Table 5/8 configuration).
    pub fn without_syscall_logging(mut self) -> Plan {
        self.log_syscalls = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanBuilder;

    fn labels() -> (Vec<DynLabel>, Vec<bool>) {
        use DynLabel::*;
        // Six branches exercising every combination rule case:
        //   0: dyn Symbolic, static true   -> everyone but none
        //   1: dyn Symbolic, static false  -> dynamic's certainty wins
        //   2: dyn Concrete, static true   -> combined OVERRIDES static
        //   3: dyn Concrete, static false  -> nobody
        //   4: dyn Unvisited, static true  -> combined falls back to static
        //   5: dyn Unvisited, static false -> nobody
        (
            vec![Symbolic, Symbolic, Concrete, Concrete, Unvisited, Unvisited],
            vec![true, false, true, false, true, false],
        )
    }

    #[test]
    fn dynamic_method_instruments_only_dynamic_symbolic() {
        let (d, s) = labels();
        let p = Plan::build(Method::Dynamic, &d, &s, 6);
        assert_eq!(p.instrumented, vec![true, true, false, false, false, false]);
    }

    #[test]
    fn static_method_follows_static_labels() {
        let (d, s) = labels();
        let p = Plan::build(Method::Static, &d, &s, 6);
        assert_eq!(p.instrumented, vec![true, false, true, false, true, false]);
    }

    #[test]
    fn combined_method_matches_paper_rule() {
        let (d, s) = labels();
        let p = Plan::build(Method::DynamicStatic, &d, &s, 6);
        // Symbolic-by-dynamic instrumented; concrete-by-dynamic never
        // (even when static says symbolic — case 2); unvisited follow
        // static (case 4).
        assert_eq!(p.instrumented, vec![true, true, false, false, true, false]);
    }

    #[test]
    fn all_branches_instruments_everything() {
        let (d, s) = labels();
        let p = Plan::build(Method::AllBranches, &d, &s, 6);
        assert_eq!(p.n_instrumented(), 6);
    }

    #[test]
    fn combined_is_subset_of_static_union_dynamic() {
        let (d, s) = labels();
        let combined = Plan::build(Method::DynamicStatic, &d, &s, 6);
        let stat = Plan::build(Method::Static, &d, &s, 6);
        let dynm = Plan::build(Method::Dynamic, &d, &s, 6);
        for i in 0..6 {
            assert!(
                !combined.instrumented[i] || stat.instrumented[i] || dynm.instrumented[i],
                "combined must never instrument something neither analysis flagged"
            );
        }
    }

    #[test]
    fn plan_roundtrips_through_serde() {
        let (d, s) = labels();
        let p = Plan::build(Method::DynamicStatic, &d, &s, 6);
        let json = serde_json::to_string(&p).unwrap();
        let q: Plan = serde_json::from_str(&json).unwrap();
        assert_eq!(p, q);
    }

    /// Builds, with the cursor opt-in, a `method` plan whose logged set
    /// is exactly `logged`.
    fn opted_in(method: Method, logged: &[bool], infos: &[BranchInfo]) -> Plan {
        let dynamic: Vec<DynLabel> = logged
            .iter()
            .map(|&l| {
                if l {
                    DynLabel::Symbolic
                } else {
                    DynLabel::Concrete
                }
            })
            .collect();
        let plan = PlanBuilder::new(method, &dynamic, &vec![false; logged.len()], logged.len())
            .cursor_opt_in(infos)
            .build();
        assert_eq!(plan.instrumented, logged);
        plan
    }

    fn branch_infos(kinds: &[(BranchKind, &str)]) -> Vec<BranchInfo> {
        kinds
            .iter()
            .enumerate()
            .map(|(i, (kind, func))| BranchInfo {
                id: BranchId(i as u32),
                kind: *kind,
                unit: minic::UnitId(0),
                line: i as u32,
                col: 0,
                func: func.to_string(),
            })
            .collect()
    }

    #[test]
    fn cursor_opt_in_fires_on_partially_instrumented_loop_cluster() {
        use BranchKind::*;
        // parse(): an unlogged while + a logged if — the fragile cluster.
        let infos = branch_infos(&[(While, "parse"), (If, "parse"), (If, "main")]);
        let plan = Plan {
            method: Method::DynamicStatic,
            instrumented: vec![false, true, false],
            suppressed: Vec::new(),
            log_syscalls: true,
            format: LogFormat::Flat,
            generation: 1,
            checkpoints: false,
            forced_literals: Vec::new(),
        };
        assert!(plan.has_partial_loop_cluster(&infos));
        assert_eq!(
            opted_in(Method::DynamicStatic, &plan.instrumented, &infos).format,
            LogFormat::PerLocation
        );
    }

    #[test]
    fn cursor_opt_in_keeps_flat_when_not_justified() {
        use BranchKind::*;
        let infos = branch_infos(&[(While, "parse"), (If, "parse"), (If, "main")]);
        // Fully logged: no unlogged loop, flat stays.
        let full = opted_in(Method::DynamicStatic, &[true, true, true], &infos);
        assert_eq!(full.format, LogFormat::Flat);
        // The unlogged loop lives in a cluster with no logged branch.
        let disjoint = opted_in(Method::DynamicStatic, &[false, false, true], &infos);
        assert_eq!(disjoint.format, LogFormat::Flat);
        // Non-combined methods never switch, even with the fragile shape.
        let dynamic = opted_in(Method::Dynamic, &[false, true, false], &infos);
        assert_eq!(dynamic.format, LogFormat::Flat);
    }

    #[test]
    fn partial_loop_cluster_edge_cases() {
        use BranchKind::*;
        let infos = branch_infos(&[(While, "parse"), (If, "parse"), (If, "main")]);
        // Empty plan: nothing logged, so no cluster can be partial.
        assert!(!Plan::none(3).has_partial_loop_cluster(&infos));
        // Empty branch set: a plan over zero locations trivially has none.
        assert!(!Plan::none(0).has_partial_loop_cluster(&[]));
        // Fully-logged cluster: the loop itself is covered.
        let full = Plan {
            method: Method::Static,
            instrumented: vec![true, true, true],
            suppressed: Vec::new(),
            log_syscalls: true,
            format: LogFormat::Flat,
            generation: 1,
            checkpoints: false,
            forced_literals: Vec::new(),
        };
        assert!(!full.has_partial_loop_cluster(&infos));
        // Multi-function program: the unlogged loop is in scan(), all
        // logged branches are in parse()/main() — different clusters,
        // so the flat format stays safe.
        let multi = branch_infos(&[(While, "scan"), (If, "parse"), (If, "main")]);
        let cross = Plan {
            method: Method::DynamicStatic,
            instrumented: vec![false, true, true],
            suppressed: Vec::new(),
            log_syscalls: true,
            format: LogFormat::Flat,
            generation: 1,
            checkpoints: false,
            forced_literals: Vec::new(),
        };
        assert!(!cross.has_partial_loop_cluster(&multi));
        // Same shape but the loop shares parse()'s cluster: partial.
        let same = branch_infos(&[(While, "parse"), (If, "parse"), (If, "main")]);
        assert!(cross.has_partial_loop_cluster(&same));
        // A unit split separates otherwise same-named functions.
        let mut other_unit = branch_infos(&[(While, "parse"), (If, "parse")]);
        other_unit[0].unit = minic::UnitId(1);
        let plan = Plan {
            method: Method::DynamicStatic,
            instrumented: vec![false, true],
            suppressed: Vec::new(),
            log_syscalls: true,
            format: LogFormat::Flat,
            generation: 1,
            checkpoints: false,
            forced_literals: Vec::new(),
        };
        assert!(!plan.has_partial_loop_cluster(&other_unit));
    }

    #[test]
    fn suppression_moves_branches_out_of_the_logged_set() {
        let (d, s) = labels();
        // Static plan logs {0, 2, 4}; say 2 and 4 are implied by 0.
        let p = PlanBuilder::new(Method::Static, &d, &s, 6)
            .suppress([
                (BranchId(2), BranchId(0), false),
                (BranchId(4), BranchId(0), true),
            ])
            .build();
        assert_eq!(
            p.instrumented,
            vec![true, false, false, false, false, false]
        );
        assert_eq!(p.n_instrumented(), 1);
        assert_eq!(p.n_suppressed(), 2);
        assert!(p.covers(BranchId(0)) && !p.covers(BranchId(2)));
        assert_eq!(
            p.suppresses(BranchId(4)),
            Some(Suppressed {
                by: BranchId(0),
                negated: true
            })
        );
        // Observability = logged or suppressed; branch 1 is neither.
        assert!(p.observes(BranchId(0)) && p.observes(BranchId(2)) && p.observes(BranchId(4)));
        assert!(!p.observes(BranchId(1)));
    }

    #[test]
    fn suppression_requires_the_implier_in_the_base_set() {
        let (d, s) = labels();
        // Static logs {0, 2, 4}: branch 1 is NOT in the base set, so an
        // implication rooted at it must not suppress anything; nor may a
        // non-instrumented branch (3) be suppressed.
        let p = PlanBuilder::new(Method::Static, &d, &s, 6)
            .suppress([
                (BranchId(2), BranchId(1), false),
                (BranchId(3), BranchId(0), false),
            ])
            .build();
        assert_eq!(p.n_suppressed(), 0);
        assert_eq!(p.instrumented, vec![true, false, true, false, true, false]);
    }

    #[test]
    fn suppression_chain_roots_at_a_logged_branch() {
        let (d, s) = labels();
        // 2 implied by 0, 4 implied by 2 (which is itself suppressed):
        // both suppressions stand, because membership is checked against
        // the BASE set — the chain bottoms out at logged branch 0.
        let p = PlanBuilder::new(Method::Static, &d, &s, 6)
            .suppress([
                (BranchId(2), BranchId(0), false),
                (BranchId(4), BranchId(2), true),
            ])
            .build();
        assert_eq!(p.n_suppressed(), 2);
        assert_eq!(p.suppresses(BranchId(4)).unwrap().by, BranchId(2));
        assert!(p.covers(BranchId(0)));
    }

    #[test]
    fn suppressed_plan_roundtrips_through_serde() {
        let (d, s) = labels();
        let p = PlanBuilder::new(Method::Static, &d, &s, 6)
            .suppress([(BranchId(2), BranchId(0), true)])
            .build();
        let json = serde_json::to_string(&p).unwrap();
        let q: Plan = serde_json::from_str(&json).unwrap();
        assert_eq!(p, q);
        assert_eq!(q.suppresses(BranchId(2)).unwrap().by, BranchId(0));
    }

    #[test]
    fn suppressed_loops_do_not_count_as_unlogged_for_the_cluster_check() {
        use BranchKind::*;
        let infos = branch_infos(&[(While, "parse"), (If, "parse")]);
        // Both in the base set; the loop is suppressed (implied by the
        // if). Replay reconstructs its bits, so the cluster is whole.
        use DynLabel::Symbolic;
        let builder =
            PlanBuilder::new(Method::DynamicStatic, &[Symbolic, Symbolic], &[false; 2], 2)
                .suppress([(BranchId(0), BranchId(1), false)]);
        assert!(!builder.clone().build().has_partial_loop_cluster(&infos));
        assert_eq!(
            builder.cursor_opt_in(&infos).build().format,
            LogFormat::Flat
        );
    }
}
