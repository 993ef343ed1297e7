//! Regression tests for the uServer coverage plateau (ROADMAP item 1).
//!
//! The seed's pure-DFS scheduler dead-ends after a single concolic run on
//! the uServer: every deepest pending set is unsolvable, the frontier
//! drains, and coverage flatlines at ~41% no matter the budget. The
//! explorer policy (breadth-mixed generational pops, per-branch quotas,
//! drain restarts) must strictly beat that under the *same* run budget.

use retrace_bench::experiments::userver_analysis_bench;
use retrace_bench::setup::Coverage;
use search::SearchPolicy;

/// Keep the run budget modest so the test stays debug-feasible; the
/// plateau reproduces at any budget ≥ 2.
const BUDGET: usize = 12;

#[test]
fn explorer_policy_breaks_the_coverage_plateau() {
    let mut exp = userver_analysis_bench(42);

    // Seed behavior: plain DFS drains after one run at ~41%.
    exp.wb.policy = SearchPolicy::default();
    let base = exp.wb.analyze(BUDGET);
    assert!(
        base.dyn_result.exhausted,
        "the DFS frontier must drain (that is the plateau)"
    );
    assert_eq!(base.dyn_result.runs, 1, "plateau = a single concolic run");
    assert!(
        base.coverage_pct() < 45.0,
        "seed plateau sits near 41%, got {:.1}%",
        base.coverage_pct()
    );

    // Explorer policy, same budget: strictly more coverage and runs.
    exp.wb.policy = SearchPolicy::explorer();
    let improved = exp.wb.analyze(BUDGET);
    assert!(
        improved.coverage_pct() > base.coverage_pct(),
        "explorer policy must beat the plateau: {:.1}% vs {:.1}%",
        improved.coverage_pct(),
        base.coverage_pct()
    );
    assert!(
        improved.dyn_result.runs > base.dyn_result.runs,
        "the frontier must keep feeding runs"
    );
    assert!(
        improved.dyn_result.frontier.solved_sat > 0,
        "breadth-mixed pops reach solvable (shallow) negations"
    );
}

#[test]
fn hc_budget_now_buys_more_coverage_than_lc() {
    // Before the frontier scheduler, LC and HC produced identical labels
    // (both stopped after run 1), collapsing the paper's coverage axis.
    let exp = userver_analysis_bench(42);
    let lc = exp.wb.analyze(Coverage::Lc.runs());
    let hc = exp.wb.analyze(BUDGET.max(Coverage::Lc.runs() + 1));
    assert!(
        hc.coverage_pct() > lc.coverage_pct(),
        "HC ({:.1}%) must exceed LC ({:.1}%)",
        hc.coverage_pct(),
        lc.coverage_pct()
    );
}
