//! Regression guards around the Table 3 combined-row search behavior.
//!
//! History: PR 3's instrumentation diagnosed the combined rows' ∞ as
//! flat-bitvector misalignment (zero address concretizations on those
//! paths; forced sets mostly solve; an unlogged symbolic loop exit
//! shifts which branch instance consumes which bit). PR 5's per-location
//! cursor log format closed it: the combined plan's log now keeps every
//! location's stream aligned, misalignment surfaces locally (2(b)/3(b)
//! at the right location, or a stream-overrun abort), and the row is
//! finite — see `combined_row.rs` for the convergence guard.
//!
//! The guards here hold the *cost envelope*: the healthy rows stay
//! healthy and cheap (no UNSAT thrash, no concretization), and the
//! combined row's search stays bounded — repair activity capped, the
//! duplicate-offer storm below its measured ceiling — so a regression
//! back toward the old grind is caught even before it reaches ∞.
//!
//! The solver grind is guarded the same way, by count rather than wall
//! clock: every UNSAT verdict on the exp-2 and exp-4 combined rows and
//! in the HC analysis must come with a proof (`unproven_unsat == 0`).
//! Before the solver's stall proof, each of those verdicts ran the full
//! iteration budget.

use instrument::Method;
use retrace_bench::fixtures::{userver_analysis, userver_experiment, Knobs};
use retrace_bench::setup::Coverage;

/// Replay budget: enough for the healthy row several times over, and
/// enough for the pathological row to exhibit (bounded) thrash, while
/// staying debug-test feasible. The full Table 3 runs at 300.
const BUDGET: usize = 150;

/// Serial knobs, with the prefix cache taken from `RETRACE_CACHE` so
/// CI's cache-off leg reruns the same cost envelopes.
fn knobs() -> Knobs {
    Knobs {
        workers: 1,
        cache: retrace_bench::cache_env(),
    }
}

fn exp2() -> retrace_bench::setup::Experiment {
    userver_experiment(2, knobs())
}

/// Replays experiment `id`'s crash under the combined (dynamic+static,
/// lc) plan.
fn combined_replay(id: usize) -> replay::ReplayResult {
    let abench = userver_analysis(knobs());
    let bundle = abench.wb.analyze(Coverage::Lc.runs());
    let exp = userver_experiment(id, knobs());
    let plan = exp.wb.plan(Method::DynamicStatic, &bundle);
    let run = exp.wb.logged_run(&plan, &exp.parts);
    let report = run.report.expect("deployment crashes");
    exp.wb.replay(&plan, &report, BUDGET)
}

#[test]
fn dynamic_row_stays_finite_with_low_unsat_ratio() {
    let abench = userver_analysis(knobs());
    let bundle = abench.wb.analyze(Coverage::Lc.runs());
    let exp = exp2();
    let plan = exp.wb.plan(Method::Dynamic, &bundle);
    let run = exp.wb.logged_run(&plan, &exp.parts);
    let report = run.report.expect("deployment crashes");
    let res = exp.wb.replay(&plan, &report, BUDGET);
    assert!(
        res.reproduced,
        "dynamic (lc) exp 2 must stay finite: {:?}",
        (res.runs, &res.frontier),
    );
    assert!(
        res.runs <= 60,
        "dynamic (lc) exp 2 regressed past its ~34-run baseline: {}",
        res.runs
    );
    let verdicts = (res.frontier.solved_sat + res.frontier.solved_unsat).max(1);
    let unsat_ratio = res.frontier.solved_unsat as f64 / verdicts as f64;
    assert!(
        unsat_ratio < 0.45,
        "UNSAT thrash on the healthy row: {:.0}% ({} sat / {} unsat)",
        unsat_ratio * 100.0,
        res.frontier.solved_sat,
        res.frontier.solved_unsat,
    );
}

#[test]
fn combined_row_search_cost_is_bounded() {
    let res = combined_replay(2);
    // The cursor format made this row finite — well inside the budget
    // (~30 runs measured; `combined_row.rs` guards the exact envelope).
    assert!(
        res.reproduced,
        "combined exp 2 must stay finite under the cursor format: {:?}",
        (res.runs, &res.frontier)
    );
    // The diagnosis stays measured, not mysterious: no concretizations
    // on these paths (the pin-vs-range axis is ruled out)...
    assert_eq!(
        (res.concretization_ranges, res.concretization_pins),
        (0, 0),
        "the combined-row paths concretize nothing"
    );
    // ...repair never needs to spiral...
    assert!(
        res.frontier.repairs_scheduled <= 64,
        "repair retries must stay bounded: {:?}",
        res.frontier
    );
    // ...and the duplicate-offer storm of the flat-format era must not
    // come back (it peaked ~23k per 150-run attempt; the cursor format
    // converges long before any storm can build).
    assert!(
        res.frontier.skipped_duplicate < 80_000,
        "duplicate-offer storm grew: {}",
        res.frontier.skipped_duplicate
    );
    // ...and no UNSAT verdict is a full-budget grind.
    assert_eq!(
        res.frontier.unproven_unsat, 0,
        "combined exp 2: UNSAT verdicts without a proof: {:?}",
        res.frontier
    );
}

#[test]
fn combined_exp4_unsat_verdicts_are_proven() {
    // Exp 4's cookie-header grind is the UNSAT-heaviest row (about
    // half of its solver calls are UNSAT); each one must be refuted,
    // not ground through to the budget.
    let res = combined_replay(4);
    assert!(
        res.frontier.solved_unsat > 0,
        "the row exercises UNSAT sets"
    );
    assert_eq!(
        res.frontier.unproven_unsat, 0,
        "combined exp 4: UNSAT verdicts without a proof: {:?}",
        res.frontier
    );
}

#[test]
fn hc_analysis_unsat_verdicts_are_proven() {
    let abench = userver_analysis(knobs());
    let bundle = abench.wb.analyze(Coverage::Hc.runs());
    let f = &bundle.dyn_result.frontier;
    assert!(f.solved_unsat > 0, "the analysis exercises UNSAT sets");
    assert_eq!(
        f.unproven_unsat, 0,
        "HC analysis: UNSAT verdicts without a proof: {f:?}"
    );
}
