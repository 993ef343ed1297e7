//! Plan escalation: turn replay-side evidence into the next plan
//! generation.
//!
//! The paper's §2.3 pipeline is one-shot: analyses pick a branch set,
//! the binary ships, replay copes with whatever was logged. Escalation
//! closes the loop. Replay reports, per branch location, where its
//! search burned budget (repair bursts, cursor overruns, syscall
//! divergences, forced-set UNSATs) and which logged locations it
//! actually consulted; [`escalate`] produces a generation-`n+1` plan
//! that adds bits exactly at the hot locations, drops bits nobody read,
//! and activates the two ROADMAP escalation rules — syscall-anchored
//! cursor checkpoints and multi-byte string-literal forcing — when the
//! evidence calls for them.

use crate::plan::{LogFormat, Plan};
use std::collections::{BTreeMap, BTreeSet};

/// Per-branch-location escalation counters, as the plan layer consumes
/// them.
///
/// Mirror of `replay::LocationEscalation`, duplicated here so the plan
/// layer stays independent of the replay crate (hints can come from a
/// live replay, a triage fleet merge, or a hand-written test).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocationHint {
    /// Repair-ladder activations attributed to this location.
    pub repair_bursts: u64,
    /// Per-location cursor overruns (and checkpoint divergences) here.
    pub cursor_overruns: u64,
    /// Syscall-order divergences whose prime suspect was this location.
    pub syscall_divergences: u64,
    /// UNSAT forced sets keyed to this location.
    pub forced_failures: u64,
}

impl LocationHint {
    /// True when any counter fired — the "hot location" predicate.
    pub fn is_hot(&self) -> bool {
        self.repair_bursts + self.cursor_overruns + self.syscall_divergences + self.forced_failures
            > 0
    }

    /// True when the one-byte-repair pathology fired here: the search
    /// kept spending solver budget on forced sets or repair ladders (or
    /// resynchronizing a cursor), the signature of byte-at-a-time
    /// header derivation against a string comparison.
    pub fn suggests_literal_forcing(&self) -> bool {
        self.repair_bursts + self.forced_failures + self.cursor_overruns > 0
    }
}

/// Replay evidence aggregated over one or more sessions, keyed by
/// branch location.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EscalationHints {
    /// Counters per branch location (only locations with signals).
    pub per_loc: BTreeMap<u32, LocationHint>,
    /// Locations whose shipped bits at least one run consumed.
    pub consulted: BTreeSet<u32>,
    /// Replay runs the evidence covers; 0 means "no evidence", and
    /// [`escalate`] then returns the parent unchanged.
    pub observed_runs: u64,
}

impl EscalationHints {
    /// True when there is nothing to act on: no hot location, no
    /// consulted-set knowledge, no observed runs.
    pub fn is_empty(&self) -> bool {
        self.per_loc.values().all(|l| !l.is_hot())
            && self.consulted.is_empty()
            && self.observed_runs == 0
    }

    /// The mutable counter slot for `loc`.
    pub fn loc_mut(&mut self, loc: u32) -> &mut LocationHint {
        self.per_loc.entry(loc).or_default()
    }
}

/// A `strcmp`/scan-loop cluster candidate from the static side: the
/// branch locations of one comparison loop plus the string literals the
/// enclosing call site compares against. Produced by
/// `staticax::literal_clusters`; consumed by [`escalate`] to decide
/// where multi-byte forcing is worth registering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LiteralClusterHint {
    /// Branch locations belonging to the comparison loop.
    pub branches: Vec<u32>,
    /// Candidate literals (whole byte strings) compared at the site.
    pub literals: Vec<Vec<u8>>,
}

/// Derives the next plan generation from replay evidence.
///
/// With empty `hints` this is the identity: the returned plan is
/// byte-identical to `parent` (same generation — nothing observed,
/// nothing learned). Otherwise the new plan:
///
/// 1. instruments every hot location (clearing its suppression — a
///    branch replay keeps stumbling over must be logged directly, not
///    reconstructed),
/// 2. upgrades to [`LogFormat::PerLocation`] as soon as any location is
///    hot (escalated bits must not shift the flat bitvector under the
///    very misalignment being repaired),
/// 3. drops locations that were instrumented but never consulted by any
///    observed run and are not hot themselves — paying for bits nobody
///    reads is exactly the §2.3 imbalance this loop exists to fix
///    (skipped when `observed_runs == 0`: absence of evidence is not
///    evidence of absence),
/// 4. turns on syscall-anchored cursor [`Plan::checkpoints`] when any
///    cursor overrun or syscall divergence was seen (and the plan logs
///    syscalls in the per-location format — checkpoints anchor cursor
///    positions to logged syscall boundaries),
/// 5. registers multi-byte [`Plan::forced_literals`] for every cluster
///    containing a location whose counters show the one-byte-repair
///    pathology — and, once that pathology is visible anywhere, for
///    every cluster whose branches replay consulted (the comparison
///    loop a literal flows through usually sits one call away from the
///    scan loop that takes the divergence blame).
pub fn escalate(parent: &Plan, hints: &EscalationHints, clusters: &[LiteralClusterHint]) -> Plan {
    if hints.is_empty() {
        return parent.clone();
    }
    let mut plan = parent.clone();
    plan.generation = parent.generation + 1;
    let n = plan.instrumented.len();

    // (1) + (2): add bits at hot locations; any hot location upgrades
    // the format.
    let hot: BTreeSet<u32> = hints
        .per_loc
        .iter()
        .filter(|(_, h)| h.is_hot())
        .map(|(loc, _)| *loc)
        .collect();
    for &loc in &hot {
        let i = loc as usize;
        if i < n {
            plan.instrumented[i] = true;
            if let Some(slot) = plan.suppressed.get_mut(i) {
                *slot = None;
            }
        }
    }
    if !hot.is_empty() {
        plan.format = LogFormat::PerLocation;
    }

    // (3): drop never-consulted cold bits, but only when runs were
    // actually observed reading the log.
    if hints.observed_runs > 0 {
        for (i, on) in plan.instrumented.iter_mut().enumerate() {
            let loc = i as u32;
            if *on && !hints.consulted.contains(&loc) && !hot.contains(&loc) {
                *on = false;
            }
        }
    }

    // (4): syscall-anchored cursor checkpoints.
    let resync_signals: u64 = hints
        .per_loc
        .values()
        .map(|h| h.cursor_overruns + h.syscall_divergences)
        .sum();
    if resync_signals > 0 && plan.format == LogFormat::PerLocation && plan.log_syscalls {
        plan.checkpoints = true;
    }

    // (5): multi-byte string-literal forcing. A cluster fires when its
    // own branches show the one-byte-repair pathology — or, once the
    // pathology is visible anywhere, when its branches were consulted
    // at all: divergence blame lands on the scan loop that *consumes*
    // the input (header/body scanners), while the comparison loop the
    // literal flows through sits one call away, so cluster-local
    // attribution alone misses exactly the sites worth forcing. The
    // widened trigger is safe by construction: a uselessly forced
    // literal costs a few priority-lane UNSATs at replay time, never
    // deployment overhead. The widened trigger keys on *solver-side*
    // grind only (bursts + forced UNSATs): cursor overruns alone are a
    // resync signal — checkpoints territory — and sessions showing
    // nothing else converge fine without speculative pins.
    let pathology: u64 = hints
        .per_loc
        .values()
        .map(|h| h.repair_bursts + h.forced_failures)
        .sum();
    let mut forced: BTreeMap<u32, Vec<Vec<u8>>> = BTreeMap::new();
    for (loc, lits) in &parent.forced_literals {
        forced.insert(*loc, lits.clone());
    }
    for cluster in clusters {
        let fires = cluster.branches.iter().any(|b| {
            hints
                .per_loc
                .get(b)
                .is_some_and(|h| h.suggests_literal_forcing())
        }) || (pathology > 0
            && cluster.branches.iter().any(|b| hints.consulted.contains(b)));
        if !fires {
            continue;
        }
        for &b in &cluster.branches {
            let slot = forced.entry(b).or_default();
            for lit in &cluster.literals {
                if !slot.contains(lit) {
                    slot.push(lit.clone());
                }
            }
        }
    }
    plan.forced_literals = forced.into_iter().collect();

    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{DynLabel, Method, Suppressed};
    use crate::PlanBuilder;
    use minic::BranchId;

    const DYNAMIC: [DynLabel; 6] = [
        DynLabel::Symbolic,
        DynLabel::Symbolic,
        DynLabel::Concrete,
        DynLabel::Concrete,
        DynLabel::Unvisited,
        DynLabel::Unvisited,
    ];
    const STATIC: [bool; 6] = [true, false, true, false, true, false];

    fn base_plan() -> Plan {
        // 6 branches, combined method logging {0, 1, 4}.
        Plan::build(Method::DynamicStatic, &DYNAMIC, &STATIC, 6)
    }

    #[test]
    fn empty_hints_are_the_identity() {
        let p = base_plan();
        let q = escalate(&p, &EscalationHints::default(), &[]);
        assert_eq!(p, q);
        assert_eq!(q.generation, 1);
        // Even with clusters on offer: no evidence, no change.
        let cluster = LiteralClusterHint {
            branches: vec![0],
            literals: vec![b"GET ".to_vec()],
        };
        assert_eq!(escalate(&p, &EscalationHints::default(), &[cluster]), p);
    }

    #[test]
    fn hot_location_gains_bits_and_upgrades_format() {
        let p = base_plan();
        assert!(!p.covers(BranchId(3)));
        let mut h = EscalationHints::default();
        h.loc_mut(3).syscall_divergences = 2;
        h.consulted.extend([0, 1, 4]);
        h.observed_runs = 12;
        let q = escalate(&p, &h, &[]);
        assert_eq!(q.generation, 2);
        assert!(q.covers(BranchId(3)));
        assert_eq!(q.format, LogFormat::PerLocation);
        // Consulted cold locations stay; nothing else was added.
        assert!(q.covers(BranchId(0)) && q.covers(BranchId(1)) && q.covers(BranchId(4)));
        assert!(!q.covers(BranchId(2)) && !q.covers(BranchId(5)));
    }

    #[test]
    fn never_consulted_cold_bits_are_dropped_only_with_observed_runs() {
        let p = base_plan();
        let mut h = EscalationHints::default();
        h.loc_mut(3).cursor_overruns = 1;
        h.consulted.extend([0, 4]); // 1 was shipped but never read
        h.observed_runs = 5;
        let q = escalate(&p, &h, &[]);
        assert!(!q.covers(BranchId(1)), "unread bit must be dropped");
        assert!(q.covers(BranchId(0)) && q.covers(BranchId(4)));

        // Same hints but zero observed runs: nothing is dropped.
        let mut h0 = h.clone();
        h0.observed_runs = 0;
        h0.consulted.clear();
        let q0 = escalate(&p, &h0, &[]);
        assert!(q0.covers(BranchId(1)));
    }

    #[test]
    fn hot_suppressed_branch_is_logged_directly_again() {
        let p = PlanBuilder::new(Method::DynamicStatic, &DYNAMIC, &STATIC, 6)
            .suppress([(BranchId(4), BranchId(0), false)])
            .build();
        assert_eq!(
            p.suppresses(BranchId(4)),
            Some(Suppressed {
                by: BranchId(0),
                negated: false
            })
        );
        let mut h = EscalationHints::default();
        h.loc_mut(4).repair_bursts = 3;
        h.consulted.extend([0]);
        h.observed_runs = 2;
        let q = escalate(&p, &h, &[]);
        assert!(q.covers(BranchId(4)));
        assert_eq!(q.suppresses(BranchId(4)), None);
    }

    #[test]
    fn checkpoints_require_resync_signal_syscall_logging_and_per_location() {
        let p = base_plan();
        // Resync signal → checkpoints on (format upgraded by the hot loc).
        let mut h = EscalationHints::default();
        h.loc_mut(0).cursor_overruns = 1;
        h.consulted.extend([0, 1, 4]);
        h.observed_runs = 3;
        assert!(escalate(&p, &h, &[]).checkpoints);

        // Pure solver-side signals (forced UNSATs) do not anchor cursors.
        let mut h2 = EscalationHints::default();
        h2.loc_mut(0).forced_failures = 4;
        h2.consulted.extend([0, 1, 4]);
        h2.observed_runs = 3;
        assert!(!escalate(&p, &h2, &[]).checkpoints);

        // No syscall logging → nothing to anchor to.
        let q = escalate(&p.clone().without_syscall_logging(), &h, &[]);
        assert!(!q.checkpoints);
    }

    #[test]
    fn literal_forcing_fires_only_on_burst_clusters() {
        let p = base_plan();
        let clusters = vec![
            LiteralClusterHint {
                branches: vec![2], // neither hot nor consulted
                literals: vec![b"POST".to_vec()],
            },
            LiteralClusterHint {
                branches: vec![4, 5],
                literals: vec![b"Host:".to_vec(), b"GET".to_vec()],
            },
        ];
        let mut h = EscalationHints::default();
        h.loc_mut(4).repair_bursts = 2; // fires the second cluster only
        h.consulted.extend([0, 4]);
        h.observed_runs = 7;
        let q = escalate(&p, &h, &clusters);
        assert!(q.forced_literals_at(2).is_empty());
        assert_eq!(q.forced_literals_at(4).len(), 2);
        // Every branch of a fired cluster gets the candidates.
        assert_eq!(q.forced_literals_at(5).len(), 2);
        assert_eq!(q.generation, 2);
    }

    #[test]
    fn consulted_clusters_fire_once_the_pathology_is_visible_anywhere() {
        let p = base_plan();
        let clusters = vec![LiteralClusterHint {
            branches: vec![1], // consulted, but never itself blamed
            literals: vec![b"Cookie:".to_vec()],
        }];
        // Divergence blame lands on a scan loop elsewhere (loc 3)...
        let mut h = EscalationHints::default();
        h.loc_mut(3).repair_bursts = 5;
        h.consulted.extend([0, 1]);
        h.observed_runs = 40;
        // ...and the consulted comparison cluster still gets its
        // literals forced.
        let q = escalate(&p, &h, &clusters);
        assert_eq!(q.forced_literals_at(1), &[b"Cookie:".to_vec()]);

        // Without any pathology signal (a pure syscall-divergence
        // session), consulted alone does not force.
        let mut calm = EscalationHints::default();
        calm.loc_mut(3).syscall_divergences = 2;
        calm.consulted.extend([0, 1]);
        calm.observed_runs = 40;
        let q2 = escalate(&p, &calm, &clusters);
        assert!(q2.forced_literals_at(1).is_empty());
    }

    mod prop {
        use super::*;
        use crate::plan::Method;
        use proptest::prelude::*;

        proptest! {
            /// The no-hint no-op guarantee, over arbitrary parents and
            /// cluster offerings: with nothing observed, escalation
            /// must return the parent byte-identically — no generation
            /// bump, no format upgrade, no literal registration.
            #[test]
            fn empty_hints_escalate_to_the_identical_plan(
                (m, instrumented) in (0..4u8, collection::vec(any::<bool>(), 1..24)),
                (log_syscalls, cursors, checkpoints) in
                    (any::<bool>(), any::<bool>(), any::<bool>()),
                (generation, lit_loc) in (1..4u32, 0..24u32),
                (lit, cluster_branches) in (
                    collection::vec(any::<u8>(), 2..6),
                    collection::vec(0..24u32, 0..4),
                ),
            ) {
                let n = instrumented.len();
                let parent = Plan {
                    method: match m {
                        0 => Method::Dynamic,
                        1 => Method::Static,
                        2 => Method::DynamicStatic,
                        _ => Method::AllBranches,
                    },
                    instrumented,
                    suppressed: vec![None; n],
                    log_syscalls,
                    format: if cursors {
                        LogFormat::PerLocation
                    } else {
                        LogFormat::Flat
                    },
                    generation,
                    checkpoints,
                    forced_literals: vec![(lit_loc, vec![lit.clone()])],
                };
                let clusters = vec![LiteralClusterHint {
                    branches: cluster_branches,
                    literals: vec![lit],
                }];
                let child = escalate(&parent, &EscalationHints::default(), &clusters);
                prop_assert_eq!(&child, &parent);
                // Byte-identical on the wire too, not just `Eq`.
                let wire_parent = serde_json::to_string(&parent).expect("serializes");
                let wire_child = serde_json::to_string(&child).expect("serializes");
                prop_assert_eq!(wire_parent, wire_child);
            }
        }
    }

    #[test]
    fn escalating_twice_accumulates_generations_and_keeps_literals() {
        let p = base_plan();
        let clusters = vec![LiteralClusterHint {
            branches: vec![1],
            literals: vec![b"GET ".to_vec()],
        }];
        let mut h = EscalationHints::default();
        h.loc_mut(1).forced_failures = 1;
        h.consulted.extend([0, 1, 4]);
        h.observed_runs = 4;
        let g2 = escalate(&p, &h, &clusters);
        assert_eq!(g2.generation, 2);
        assert_eq!(g2.forced_literals_at(1), &[b"GET ".to_vec()]);
        // Second escalation with different (non-cluster) evidence keeps
        // the registered literals and bumps again, without duplicating.
        let mut h2 = EscalationHints::default();
        h2.loc_mut(3).syscall_divergences = 1;
        h2.consulted.extend([0, 1, 4]);
        h2.observed_runs = 4;
        let g3 = escalate(&g2, &h2, &clusters);
        assert_eq!(g3.generation, 3);
        assert_eq!(g3.forced_literals_at(1), &[b"GET ".to_vec()]);
    }
}
