//! Concurrency stress for the parallel replay workers, gated behind
//! `RETRACE_STRESS=1` (CI runs it on the release job only — it repeats
//! the uServer exp-2 combined row many times at workers=4).
//!
//! Each iteration must complete without a panic and inside a watchdog
//! deadline (a hung `parallel_map` join or a commit-phase livelock
//! would otherwise stall forever), must not lose candidates (`popped ==
//! committed + restored` — a dropped speculative pop silently shrinks
//! the search), must not double-solve (no duplicate signature in the
//! committed stream while no dedup reset has opened a re-derivation
//! epoch), and must commit the exact same verdict stream every time —
//! the worker-count invariance property, exercised here as
//! run-to-run determinism under real thread scheduling jitter.

use instrument::Method;
use retrace_bench::experiments::{analyze_coverages, userver_analysis_bench};
use retrace_bench::setup::userver_experiments;
use std::collections::HashSet;
use std::sync::mpsc;
use std::time::Duration;

/// Iterations of the combined-row replay (the ISSUE floor is 32).
const ITERATIONS: usize = 32;
/// Per-iteration watchdog. The row takes ~10 s in release; a blown
/// deadline means a deadlock, not a slow run.
const WATCHDOG: Duration = Duration::from_secs(300);

/// Run fingerprint compared across iterations: reproduced, runs,
/// solver calls, and the ordered (signature, verdict) stream.
type Fingerprint = (bool, usize, usize, search::SolvedSigs);

#[test]
fn combined_row_survives_repeated_parallel_replay() {
    if std::env::var("RETRACE_STRESS").is_err() {
        eprintln!("skipping: set RETRACE_STRESS=1 to run the stress suite");
        return;
    }
    // Shared setup once: analysis, plan, crash report for exp 2.
    let mut abench = userver_analysis_bench(42);
    abench.wb.workers = 4;
    let bundles = analyze_coverages(&abench.wb);
    let mut exp = userver_experiments(42)
        .into_iter()
        .find(|e| e.name.ends_with(" 2"))
        .expect("exp 2 exists");
    exp.wb.workers = 4;
    let plan = exp.wb.plan(Method::DynamicStatic, &bundles.lc);
    let run = exp.wb.logged_run(&plan, &exp.parts);
    let report = run.report.expect("deployment crashes");

    let mut baseline: Option<Fingerprint> = None;
    for iter in 0..ITERATIONS {
        // Watchdog: run the replay on its own thread; a missing result
        // within the deadline is a deadlock, and a dropped sender (the
        // replay thread panicked) is a panic — both fail the test.
        let (tx, rx) = mpsc::channel();
        let wb = &exp.wb;
        let plan_ref = &plan;
        let report_ref = &report;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let res = wb.replay(plan_ref, report_ref, 90);
                let _ = tx.send(res);
            });
            let res = match rx.recv_timeout(WATCHDOG) {
                Ok(res) => res,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    panic!("iteration {iter}: watchdog expired — deadlock")
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    panic!("iteration {iter}: replay thread panicked")
                }
            };
            let f = &res.frontier;
            assert_eq!(
                f.popped,
                f.committed + f.restored,
                "iteration {iter}: lost candidate — {} popped but only {} \
                 committed + {} restored",
                f.popped,
                f.committed,
                f.restored,
            );
            let mut seen = HashSet::new();
            for (sig, _) in f.solved_sigs.iter() {
                assert!(
                    seen.insert(sig),
                    "iteration {iter}: candidate {sig:#034x} solved twice"
                );
            }
            let fingerprint = (
                res.reproduced,
                res.runs,
                res.solver_calls,
                f.solved_sigs.clone(),
            );
            match &baseline {
                None => baseline = Some(fingerprint),
                Some(b) => assert_eq!(
                    b, &fingerprint,
                    "iteration {iter}: verdict stream drifted across \
                     identical replays — scheduling leaked into the search"
                ),
            }
        });
    }
}
