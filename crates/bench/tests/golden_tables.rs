//! Golden-file checks for the `retrace-bench` table output (ROADMAP
//! item 5: "nothing asserts their numbers against the paper's").
//!
//! Each test renders a table from a fully deterministic experiment
//! (seeded analysis, seeded replay, no wall-clock columns) and compares
//! it byte-for-byte against a committed golden file. The replay tables
//! are built by `retrace_bench::fixtures` — the same single definition
//! the worker- and cache-invariance suites re-render at other engine
//! knob settings. Regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p retrace-bench --test golden_tables
//! ```

use instrument::Method;
use retrace_bench::experiments::{analyze_coverages, six_configs, userver_analysis_bench};
use retrace_bench::fixtures::{
    check_golden, exp1_replay_table, guarded_crash_table, nosyscall_tables, Knobs,
};
use retrace_bench::render;
use retrace_bench::setup::{fib, userver_load, Coverage};

/// Pure rendering shape: alignment, rule, header — no experiment values.
#[test]
fn render_shape_matches_golden() {
    let t = render::table(
        "shape",
        &["col", "value", "wide column"],
        &[
            vec!["a".into(), "1".into(), "x".into()],
            vec!["longer".into(), "22".into(), "y".into()],
        ],
    );
    check_golden("render_shape.txt", &t);
}

/// Table 2 analogue on the fib microbenchmark: instrumented-location
/// counts per configuration. Fully deterministic (seeded analysis).
#[test]
fn fib_location_table_matches_golden() {
    let exp = fib();
    let bundles = analyze_coverages(&exp.wb);
    let rows: Vec<Vec<String>> = [
        ("dynamic", Method::Dynamic),
        ("dynamic+static", Method::DynamicStatic),
        ("static", Method::Static),
        ("all branches", Method::AllBranches),
    ]
    .into_iter()
    .map(|(name, method)| {
        let plan = exp.wb.plan(method, &bundles.hc);
        vec![
            name.to_string(),
            plan.n_instrumented().to_string(),
            exp.wb.cp.n_branches().to_string(),
        ]
    })
    .collect();
    let t = render::table(
        "fib: instrumented branch locations",
        &["config", "instrumented", "total"],
        &rows,
    );
    check_golden("fib_locations.txt", &t);
}

/// The real uServer Table 2: instrumented branch locations per
/// configuration at LC coverage. Fully deterministic (seeded analysis;
/// no wall-clock columns exist in this table).
#[test]
fn userver_location_table_matches_golden() {
    let abench = userver_analysis_bench(42);
    let bundle = abench.wb.analyze(Coverage::Lc.runs());
    let total = abench.wb.cp.n_branches();
    let rows: Vec<Vec<String>> = [
        ("dynamic (lc)", Method::Dynamic),
        ("dynamic+static (lc)", Method::DynamicStatic),
        ("static", Method::Static),
        ("all branches", Method::AllBranches),
    ]
    .into_iter()
    .map(|(name, method)| {
        let plan = abench.wb.plan(method, &bundle);
        vec![
            name.to_string(),
            plan.n_instrumented().to_string(),
            total.to_string(),
        ]
    })
    .collect();
    let t = render::table(
        "uServer: instrumented branch locations (lc analysis)",
        &["config", "instrumented", "total"],
        &rows,
    );
    check_golden("userver_locations.txt", &t);
}

/// The real uServer Table 3, experiment 1 (the fast scenario): replay
/// effort per configuration with the wall-clock column masked — runs,
/// solver calls, instructions, the concretization/repair counters and
/// the prefix-cache ledger are deterministic.
#[test]
fn userver_exp1_replay_table_matches_golden() {
    check_golden(
        "userver_exp1_replay.txt",
        &exp1_replay_table(Knobs::default()),
    );
}

/// The real uServer Tables 5 and 8: exps 1 and 4 replayed without
/// syscall-result logging, wall masked — work, runs and the logged /
/// not-logged location cells. The one committed workload where the
/// region-bounds concretization changes an outcome: under equality pins
/// exp 4 needs about half the runs, so this pins the range steps' replays.
#[test]
fn userver_nosyscall_replay_tables_match_golden() {
    check_golden(
        "userver_nosyscall_replay.txt",
        &nosyscall_tables(Knobs::default(), 300, false),
    );
}

/// Table 3 analogue on a guarded crash: replay effort per configuration,
/// using only deterministic columns (runs, solver calls, VM instructions,
/// prefix-cache ledger — no wall-clock).
#[test]
fn guarded_crash_replay_table_matches_golden() {
    check_golden("guarded_replay.txt", &guarded_crash_table(Knobs::default()));
}

/// Figure 4's user-site meters: the uninstrumented serve and the six
/// logged configurations of `fig4_userver_overhead` (60 requests, seed
/// 7; labels from the standard seed-42 analysis). Every column is a
/// deterministic count — cost units, VM instructions and branches, the
/// instrumentation share, logged executions, log and syscall-log bytes,
/// the cursor spend and completed requests — the inputs of Fig. 4's CPU
/// and storage bars. The CPU percentage itself is left out: it is a
/// ratio of the pinned `units` columns.
#[test]
fn userver_overhead_table_matches_golden() {
    let abench = userver_analysis_bench(42);
    let bundles = analyze_coverages(&abench.wb);
    let exp = userver_load(60, 7);
    let (_, base, _) = exp.wb.baseline_run(&exp.parts);
    let mut rows = vec![vec![
        "uninstrumented".to_string(),
        base.units.to_string(),
        base.instrs.to_string(),
        base.branches.to_string(),
        base.instrumentation_units.to_string(),
        "0".into(),
        "0".into(),
        base.syscall_log_bytes.to_string(),
        "0".into(),
        "-".into(),
    ]];
    for (name, method, cov) in six_configs() {
        let bundle = match cov {
            Coverage::Lc => &bundles.lc,
            Coverage::Hc => &bundles.hc,
        };
        let run = exp.wb.logged_run(&exp.wb.plan(method, bundle), &exp.parts);
        rows.push(vec![
            name,
            run.meter.units.to_string(),
            run.meter.instrs.to_string(),
            run.meter.branches.to_string(),
            run.meter.instrumentation_units.to_string(),
            run.instrumented_execs.to_string(),
            run.log_bits.div_ceil(8).to_string(),
            run.syscall_log_bytes.to_string(),
            run.cursor_spend_units.to_string(),
            run.requests.to_string(),
        ]);
    }
    let t = render::table(
        "uServer: Figure 4 user-site meters (60 requests, seed 7)",
        &[
            "config",
            "units",
            "instrs",
            "branches",
            "instr units",
            "logged execs",
            "log bytes",
            "syscall log",
            "cursor spend",
            "requests",
        ],
        &rows,
    );
    check_golden("userver_overhead.txt", &t);
}
