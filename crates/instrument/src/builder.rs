//! [`PlanBuilder`]: the one front door for constructing instrumentation
//! plans.
//!
//! A plan is assembled from several ingredients — the method and the
//! analyses' labels, implication suppression, the combined row's cursor
//! opt-in, a format override, escalation hints — and the order in which
//! they apply matters: the cursor opt-in inspects the *suppressed* plan,
//! and a format override must win over the opt-in heuristic. The builder
//! takes the ingredients declaratively and applies them in one fixed
//! order:
//!
//! 1. base plan from method + analysis labels (§2.3 rules),
//! 2. implication suppression,
//! 3. combined-row cursor opt-in (sees the suppressed plan),
//! 4. explicit format override (always wins over the opt-in heuristic),
//! 5. escalation on replay hints (may upgrade format again and bump the
//!    generation).
//!
//! Call order of the setters is irrelevant; only the declaration
//! matters.

use crate::escalate::{escalate, EscalationHints, LiteralClusterHint};
use crate::plan::{DynLabel, LogFormat, Method, Plan};
use minic::{BranchId, BranchInfo};

/// Declarative builder for [`Plan`]; see the module docs for the fixed
/// application order.
#[derive(Debug, Clone)]
pub struct PlanBuilder<'a> {
    method: Method,
    dynamic: &'a [DynLabel],
    static_symbolic: &'a [bool],
    n_branches: usize,
    log_syscalls: bool,
    format: Option<LogFormat>,
    cursor_branches: Option<&'a [BranchInfo]>,
    implications: Option<Vec<(BranchId, BranchId, bool)>>,
    escalation: Option<(EscalationHints, Vec<LiteralClusterHint>)>,
}

impl<'a> PlanBuilder<'a> {
    /// Starts a builder from the §2.3 ingredients: the method and the
    /// two analyses' labels (both indexed by `BranchId`, covering all
    /// `n_branches` locations).
    pub fn new(
        method: Method,
        dynamic: &'a [DynLabel],
        static_symbolic: &'a [bool],
        n_branches: usize,
    ) -> Self {
        PlanBuilder {
            method,
            dynamic,
            static_symbolic,
            n_branches,
            log_syscalls: true,
            format: None,
            cursor_branches: None,
            implications: None,
            escalation: None,
        }
    }

    /// Whether selected syscall results are logged (default: `true`).
    pub fn log_syscalls(mut self, on: bool) -> Self {
        self.log_syscalls = on;
        self
    }

    /// Forces the log format, overriding the cursor opt-in heuristic
    /// (ablations and tests). Escalation may still upgrade it later.
    pub fn format(mut self, format: LogFormat) -> Self {
        self.format = Some(format);
        self
    }

    /// Enables the combined-row cursor opt-in: upgrade to the
    /// per-location format exactly when the (suppressed) plan leaves a
    /// partially instrumented loop cluster (see
    /// [`Plan::has_partial_loop_cluster`]).
    pub fn cursor_opt_in(mut self, branches: &'a [BranchInfo]) -> Self {
        self.cursor_branches = Some(branches);
        self
    }

    /// Applies implication suppression from `staticax`'s analysis: each
    /// `(b, by, negated)` whose branch `b` and implier `by` are both in
    /// the base logged set moves `b` out of the logged set (see
    /// [`Plan::suppresses`]). Impliers outside the base set are ignored,
    /// so every suppressed bit stays reconstructible at replay.
    pub fn suppress<I>(mut self, implications: I) -> Self
    where
        I: IntoIterator<Item = (BranchId, BranchId, bool)>,
    {
        self.implications = Some(implications.into_iter().collect());
        self
    }

    /// Escalates the built plan on replay hints (see
    /// [`crate::escalate()`]). With empty hints this is the identity.
    pub fn escalate(mut self, hints: &EscalationHints, clusters: &[LiteralClusterHint]) -> Self {
        self.escalation = Some((hints.clone(), clusters.to_vec()));
        self
    }

    /// Builds the plan, applying every declared stage in the fixed
    /// order the module docs give.
    pub fn build(self) -> Plan {
        let mut plan = Plan::build(
            self.method,
            self.dynamic,
            self.static_symbolic,
            self.n_branches,
        );
        if !self.log_syscalls {
            plan = plan.without_syscall_logging();
        }
        if let Some(implications) = self.implications {
            plan = plan.apply_suppression(implications);
        }
        if let Some(branches) = self.cursor_branches {
            plan = plan.apply_cursor_opt_in(branches);
        }
        if let Some(format) = self.format {
            plan.format = format;
        }
        if let Some((hints, clusters)) = &self.escalation {
            plan = escalate(&plan, hints, clusters);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::{BranchKind, UnitId};

    fn labels() -> (Vec<DynLabel>, Vec<bool>) {
        use DynLabel::*;
        (
            vec![Symbolic, Symbolic, Concrete, Concrete, Unvisited, Unvisited],
            vec![true, false, true, false, true, false],
        )
    }

    fn branch_infos(kinds: &[(BranchKind, &str)]) -> Vec<BranchInfo> {
        kinds
            .iter()
            .enumerate()
            .map(|(i, (kind, func))| BranchInfo {
                id: BranchId(i as u32),
                kind: *kind,
                unit: UnitId(0),
                line: i as u32,
                col: 0,
                func: func.to_string(),
            })
            .collect()
    }

    #[test]
    fn setter_call_order_is_irrelevant() {
        let (d, s) = labels();
        let infos = branch_infos(&[
            (BranchKind::While, "parse"),
            (BranchKind::If, "parse"),
            (BranchKind::If, "parse"),
            (BranchKind::If, "main"),
            (BranchKind::If, "main"),
            (BranchKind::If, "main"),
        ]);
        let implications = [(BranchId(4), BranchId(0), true)];
        let a = PlanBuilder::new(Method::DynamicStatic, &d, &s, 6)
            .suppress(implications)
            .cursor_opt_in(&infos)
            .log_syscalls(true)
            .build();
        let b = PlanBuilder::new(Method::DynamicStatic, &d, &s, 6)
            .log_syscalls(true)
            .cursor_opt_in(&infos)
            .suppress(implications)
            .build();
        assert_eq!(a, b);
    }

    #[test]
    fn explicit_format_wins_over_opt_in() {
        let (d, s) = labels();
        // parse() has an unlogged while + logged if under the combined
        // method: opt-in alone would upgrade to PerLocation.
        let infos = branch_infos(&[
            (BranchKind::While, "main"),
            (BranchKind::If, "main"),
            (BranchKind::If, "parse"),
            (BranchKind::While, "parse"),
            (BranchKind::If, "parse"),
            (BranchKind::If, "main"),
        ]);
        let upgraded = PlanBuilder::new(Method::DynamicStatic, &d, &s, 6)
            .cursor_opt_in(&infos)
            .build();
        assert_eq!(upgraded.format, LogFormat::PerLocation);
        let pinned = PlanBuilder::new(Method::DynamicStatic, &d, &s, 6)
            .cursor_opt_in(&infos)
            .format(LogFormat::Flat)
            .build();
        assert_eq!(pinned.format, LogFormat::Flat);
    }

    #[test]
    fn escalation_stage_runs_last_and_bumps_generation() {
        let (d, s) = labels();
        let mut hints = EscalationHints::default();
        hints.loc_mut(3).syscall_divergences = 1;
        hints.consulted.extend([0, 1, 4]);
        hints.observed_runs = 6;
        let plan = PlanBuilder::new(Method::DynamicStatic, &d, &s, 6)
            .escalate(&hints, &[])
            .build();
        assert_eq!(plan.generation, 2);
        assert!(plan.covers(BranchId(3)));
        assert_eq!(plan.format, LogFormat::PerLocation);

        // Empty hints keep the builder's output identical to a plain
        // build: the escalation stage is the identity.
        let base = PlanBuilder::new(Method::DynamicStatic, &d, &s, 6).build();
        let noop = PlanBuilder::new(Method::DynamicStatic, &d, &s, 6)
            .escalate(&EscalationHints::default(), &[])
            .build();
        assert_eq!(base, noop);
    }

    #[test]
    fn log_syscalls_off_blocks_checkpoints_through_the_builder() {
        let (d, s) = labels();
        let mut hints = EscalationHints::default();
        hints.loc_mut(0).cursor_overruns = 2;
        hints.consulted.extend([0, 1, 4]);
        hints.observed_runs = 3;
        let with_sys = PlanBuilder::new(Method::DynamicStatic, &d, &s, 6)
            .escalate(&hints, &[])
            .build();
        assert!(with_sys.checkpoints);
        let without = PlanBuilder::new(Method::DynamicStatic, &d, &s, 6)
            .log_syscalls(false)
            .escalate(&hints, &[])
            .build();
        assert!(!without.checkpoints);
    }
}
