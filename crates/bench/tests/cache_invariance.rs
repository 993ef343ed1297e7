//! Cache-invariance, end to end (the prefix-cache tentpole).
//!
//! The path-prefix solve cache only takes shortcuts that are provably
//! outcome-identical (skip per-literal refutation work for a witnessed
//! prefix; replay banked interval/support/propagation states), so every
//! deterministic observable of both engines — run counts, solver calls,
//! the ordered crash/verdict stream, the arena node count, the witness
//! — must be bit-identical with the cache on or off, at any worker
//! count. These tests pin that at the benchmark level, mirroring the
//! worker-invariance suite: a proptest over random guard-chain programs
//! crossed with cache {on, off} × workers {1, 4} on both engines, and
//! the fixed guarded-crash replay across the full knob matrix.

use concolic::InputSpec;
use instrument::Method;
use proptest::prelude::*;
use replay::InputParts;
use retrace_bench::fixtures::GUARDED_CRASH_SRC;
use retrace_core::Workbench;
use search::FrontierStats;

/// One guard chain over `n` input bytes: every byte must clear its
/// threshold, and the all-clear path crashes. Candidate paths share
/// long prefixes (flip one guard at a time), which is exactly the
/// shape the prefix cache banks.
fn chain_program(thresholds: &[u8]) -> String {
    let mut body = String::new();
    for (i, t) in thresholds.iter().enumerate() {
        body += &format!("    if (s[{i}] > {t}) {{ hits = hits + 1; }}\n");
    }
    format!(
        r#"
        int main(int argc, char **argv) {{
            char *s = argv[1];
            int hits = 0;
{body}
            if (hits == {n}) {{ int *p = 0; return *p; }}
            return 0;
        }}
        "#,
        n = thresholds.len()
    )
}

/// Frontier counters with the speculation bookkeeping masked: pops
/// undone by `restore` and the per-worker run split are worker-dependent
/// by design (`popped == committed + restored` holds at any count);
/// every other counter is commit-order deterministic and must match.
fn committed_frontier(f: &FrontierStats) -> FrontierStats {
    let mut f = f.clone();
    f.popped = 0;
    f.restored = 0;
    f.worker_runs = Vec::new();
    f
}

fn workbench(src: &str, n_bytes: usize, workers: usize, cache: bool) -> Workbench {
    let cp = minic::build(&[("main", src)]).expect("compiles");
    let mut wb = Workbench::new(cp, InputSpec::argv_symbolic("prog", 1, n_bytes));
    wb.workers = workers;
    wb.cache = cache;
    wb
}

/// Every deterministic observable of one analysis, split into the
/// invariant base tuple and the cache ledger (which legitimately moves
/// between cache settings: off-legs count every solve as a miss).
type AnalysisObs = (
    (usize, usize, usize),         // runs, solver calls, solver sat
    (usize, u64),                  // arena nodes, total instrs
    Vec<(Vec<Vec<u8>>, Vec<i64>)>, // ordered crash stream
    (u64, u64),                    // conc ranges, pins
    FrontierStats,                 // full scheduling counters
);

fn observe_analysis(
    src: &str,
    n_bytes: usize,
    workers: usize,
    cache: bool,
) -> (AnalysisObs, (u64, u64, u64)) {
    let wb = workbench(src, n_bytes, workers, cache);
    let d = wb.analyze(24).dyn_result;
    (
        (
            (d.runs, d.solver_calls, d.frontier.solved_sat as usize),
            (d.arena_nodes, d.total_instrs),
            d.crashes
                .iter()
                .map(|c| (c.argv.clone(), c.assignment.clone()))
                .collect(),
            (d.concretization_ranges, d.concretization_pins),
            committed_frontier(&d.frontier),
        ),
        (d.cache_hits, d.cache_misses, d.prefix_len_saved),
    )
}

/// Every deterministic observable of one replay, base tuple + ledger.
type ReplayObs = (
    (bool, usize, usize, u64), // reproduced, runs, calls, instrs
    Option<Vec<Vec<u8>>>,      // witness argv
    Option<Vec<i64>>,          // witness assignment
    (u64, u64),                // conc ranges, pins
    (u64, u64),                // syscall divs, cursor overruns
    FrontierStats,             // full scheduling counters
);

fn observe_replay(
    src: &str,
    n_bytes: usize,
    magic: &[u8],
    method: Method,
    workers: usize,
    cache: bool,
) -> (ReplayObs, (u64, u64, u64)) {
    let wb = workbench(src, n_bytes, workers, cache);
    let bundle = wb.analyze(24);
    let plan = wb.plan(method, &bundle);
    let parts = InputParts {
        argv_sym: vec![magic.to_vec()],
        ..InputParts::default()
    };
    let run = wb.logged_run(&plan, &parts);
    let report = run.report.expect("magic input crashes");
    let r = wb.replay(&plan, &report, 128);
    (
        (
            (r.reproduced, r.runs, r.solver_calls, r.total_instrs),
            r.witness_argv.clone(),
            r.witness_assignment.clone(),
            (r.concretization_ranges, r.concretization_pins),
            (r.syscall_divergences, r.cursor_overruns),
            committed_frontier(&r.frontier),
        ),
        (r.cache_hits, r.cache_misses, r.prefix_len_saved),
    )
}

/// Asserts the two halves of the cache ledger: an on-leg accounts every
/// committed solve as hit or miss; an off-leg is all misses.
fn check_ledger(on: bool, ledger: (u64, u64, u64), solver_calls: usize, what: &str) {
    let (hits, misses, saved) = ledger;
    assert_eq!(
        hits + misses,
        solver_calls as u64,
        "{what}: ledger must account every committed solve"
    );
    if !on {
        assert_eq!(hits, 0, "{what}: cache off cannot hit");
        assert_eq!(saved, 0, "{what}: cache off cannot save literals");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]
    #[test]
    fn random_programs_are_cache_invariant_on_both_engines(
        thresholds in proptest::collection::vec(0x30u8..0x6e, 1..4),
        slack in 1u8..0x10,
    ) {
        let src = chain_program(&thresholds);
        let n = thresholds.len();
        let magic: Vec<u8> = thresholds.iter().map(|t| t + slack).collect();

        // Concolic engine: the cache-on serial observation is the
        // reference; every other knob combination must match its base
        // tuple exactly.
        let (a_base, a_ledger) = observe_analysis(&src, n, 1, true);
        check_ledger(true, a_ledger, a_base.0 .1, "analysis workers=1 cache=on");
        for workers in [1usize, 4] {
            for cache in [true, false] {
                let (base, ledger) = observe_analysis(&src, n, workers, cache);
                prop_assert_eq!(
                    &base, &a_base,
                    "analysis diverged at workers={} cache={}", workers, cache
                );
                check_ledger(cache, ledger, base.0 .1, "analysis");
                if cache {
                    prop_assert_eq!(
                        ledger, a_ledger,
                        "cache-on ledger must itself be worker-invariant"
                    );
                }
            }
        }

        // Replay engine, same matrix.
        let (r_base, r_ledger) = observe_replay(&src, n, &magic, Method::Dynamic, 1, true);
        prop_assert!(r_base.0 .0, "reference replay reproduces");
        check_ledger(true, r_ledger, r_base.0 .2, "replay workers=1 cache=on");
        for workers in [1usize, 4] {
            for cache in [true, false] {
                let (base, ledger) =
                    observe_replay(&src, n, &magic, Method::Dynamic, workers, cache);
                prop_assert_eq!(
                    &base, &r_base,
                    "replay diverged at workers={} cache={}", workers, cache
                );
                check_ledger(cache, ledger, base.0 .2, "replay");
                if cache {
                    prop_assert_eq!(
                        ledger, r_ledger,
                        "cache-on replay ledger must be worker-invariant"
                    );
                }
            }
        }
    }
}

/// The fixed guarded-crash replay across the full knob matrix and all
/// four instrumentation methods: full-tuple equality against the serial
/// cache-on reference, per method.
#[test]
fn guarded_crash_full_tuple_matches_across_cache_and_workers() {
    for method in [
        Method::Dynamic,
        Method::DynamicStatic,
        Method::Static,
        Method::AllBranches,
    ] {
        let (reference, ref_ledger) = observe_replay(GUARDED_CRASH_SRC, 2, b"cr", method, 1, true);
        assert!(reference.0 .0, "{method:?}: reference reproduces");
        check_ledger(true, ref_ledger, reference.0 .2, "guarded reference");
        for workers in [1usize, 2, 4] {
            for cache in [true, false] {
                let (base, ledger) =
                    observe_replay(GUARDED_CRASH_SRC, 2, b"cr", method, workers, cache);
                assert_eq!(
                    base, reference,
                    "{method:?} diverged at workers={workers} cache={cache}"
                );
                check_ledger(cache, ledger, base.0 .2, "guarded");
                if cache {
                    assert_eq!(
                        ledger, ref_ledger,
                        "{method:?}: cache-on ledger moved at workers={workers}"
                    );
                }
            }
        }
    }
}
