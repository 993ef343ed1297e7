//! Shared test fixtures for the bench suites.
//!
//! The golden-table checks, the worker-invariance suite, the cache-
//! invariance suite and the combined-row/thrash guards all exercise the
//! same deterministic replay chains (uServer exp 1, the guarded crash,
//! the combined rows). This module is the one place that derives them,
//! so a rendering or setup change cannot silently fork between suites
//! — and so every suite can dial the engine knobs (`workers`, `cache`)
//! explicitly instead of re-deriving the workbench by hand.

use crate::experiments::{replay_adaptive, replay_one, userver_analysis_bench, AdaptiveGen};
use crate::render;
use crate::setup::{userver_experiments, Coverage, Experiment};
use instrument::{LogFormat, Method};
use retrace_core::metrics::{cache_cell, spend_cell};
use retrace_core::AnalysisBundle;
use std::path::PathBuf;

/// Engine knobs every fixture threads into the workbenches it builds.
/// Goldens are pinned at the defaults (`workers: 1`, `cache: true`);
/// the invariance suites re-render at other knob values and demand the
/// identical deterministic columns.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    /// Worker threads for both engines.
    pub workers: usize,
    /// Path-prefix solve cache on/off.
    pub cache: bool,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            workers: 1,
            cache: true,
        }
    }
}

impl Knobs {
    /// Knobs at a worker count, cache on (the golden configuration).
    pub fn workers(workers: usize) -> Self {
        Knobs {
            workers,
            ..Knobs::default()
        }
    }

    /// Knobs parsed from the process's CLI flags (`--workers N`,
    /// `--cache on|off`) — the one parser every table bin shares.
    pub fn from_args() -> Self {
        Knobs {
            workers: crate::workers_arg(),
            cache: crate::cache_arg(),
        }
    }

    /// Applies the knobs to an experiment's workbench.
    pub fn apply(&self, exp: &mut Experiment) {
        exp.wb.workers = self.workers;
        exp.wb.cache = self.cache;
    }
}

/// The committed golden file path for `name`.
fn golden_path(name: &str) -> PathBuf {
    [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect()
}

/// Reads a committed golden file, failing with a regeneration hint.
pub fn read_golden(name: &str) -> String {
    std::fs::read_to_string(golden_path(name)).unwrap_or_else(|e| {
        panic!("missing golden file {name} ({e}); run golden_tables with UPDATE_GOLDEN=1")
    })
}

/// Compares `actual` against the committed golden `name`, or rewrites
/// the golden when `UPDATE_GOLDEN` is set.
pub fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = read_golden(name);
    assert_eq!(
        actual, &expected,
        "\n== table drifted from golden {name} ==\n--- actual ---\n{actual}\n--- expected ---\n{expected}\n\
         (intentional? regenerate with UPDATE_GOLDEN=1)"
    );
}

/// The uServer scenario `id` experiment with the knobs applied.
pub fn userver_experiment(id: usize, knobs: Knobs) -> Experiment {
    let mut exp = userver_experiments(42)
        .into_iter()
        .find(|e| e.name.ends_with(&format!(" {id}")))
        .expect("scenario exists");
    knobs.apply(&mut exp);
    exp
}

/// The standard uServer analysis workbench (seed 42) with the knobs
/// applied.
pub fn userver_analysis(knobs: Knobs) -> Experiment {
    let mut abench = userver_analysis_bench(42);
    knobs.apply(&mut abench);
    abench
}

/// One uServer replay chain: plan under `method`, deploy, capture the
/// crash, replay under `budget`. Returns the result and the plan's log
/// format (the combined-row guards assert the cursor opt-in).
pub fn userver_replay(
    exp: &Experiment,
    method: Method,
    bundle: &AnalysisBundle,
    budget: usize,
) -> (replay::ReplayResult, LogFormat) {
    let plan = exp.wb.plan(method, bundle);
    let format = plan.format;
    let run = exp.wb.logged_run(&plan, &exp.parts);
    let report = run.report.expect("deployment crashes");
    (exp.wb.replay(&plan, &report, budget), format)
}

/// Renders the uServer exp-1 Table 3 analogue (deterministic columns;
/// wall masked) at the given knobs — the rendering the committed golden
/// `userver_exp1_replay.txt` pins at the default knobs.
pub fn exp1_replay_table(knobs: Knobs) -> String {
    let abench = userver_analysis(knobs);
    let bundle = abench.wb.analyze(Coverage::Lc.runs());
    let exp = userver_experiment(1, knobs);
    let mut rows = Vec::new();
    for (name, method, suppress) in [
        ("dynamic (lc)", Method::Dynamic, false),
        ("dynamic+static (lc)", Method::DynamicStatic, false),
        ("dynamic+static+impl (lc)", Method::DynamicStatic, true),
        ("static", Method::Static, false),
        ("static+impl", Method::Static, true),
        ("all branches", Method::AllBranches, false),
    ] {
        let plan = if suppress {
            exp.wb.plan_suppressed(method, &bundle)
        } else {
            exp.wb.plan(method, &bundle)
        };
        let run = exp.wb.logged_run(&plan, &exp.parts);
        let report = run.report.expect("deployment crashes");
        let res = exp.wb.replay(&plan, &report, 300);
        let spend = spend_cell(
            run.log_bits,
            run.cursor_locations,
            run.cursor_spend_units,
            run.suppressed_execs,
        );
        rows.push(vec![
            name.to_string(),
            if res.reproduced { "yes" } else { "∞" }.to_string(),
            res.runs.to_string(),
            res.solver_calls.to_string(),
            res.total_instrs.to_string(),
            spend,
            format!("{}/{}", res.concretization_ranges, res.concretization_pins),
            format!(
                "{}({})",
                res.frontier.repairs_scheduled, res.frontier.repair_cutoffs
            ),
            cache_cell(res.cache_hits, res.cache_misses, res.prefix_len_saved),
        ]);
    }
    render::table(
        "uServer exp 1: bug reproduction (deterministic columns; wall masked)",
        &[
            "config",
            "reproduced",
            "runs",
            "solver calls",
            "instrs",
            "instr spend",
            "conc rng/pin",
            "repairs",
            "prefix cache",
        ],
        &rows,
    )
}

/// Renders Tables 5 and 8: uServer exps 1 and 4 replayed under `budget`
/// runs with syscall-result logging off, every plan from the HC
/// analysis. With `wall` set, Table 5's work cell reads `work / wall` —
/// the `table5_nosyscall_replay` rendering; without it the wall is
/// masked, the rendering the committed golden
/// `userver_nosyscall_replay.txt` pins at the default knobs.
pub fn nosyscall_tables(knobs: Knobs, budget: usize, wall: bool) -> String {
    let abench = userver_analysis(knobs);
    let bundle = abench.wb.analyze(Coverage::Hc.runs());
    let mut t5 = Vec::new();
    let mut t8 = Vec::new();
    for id in [1, 4] {
        let exp = userver_experiment(id, knobs);
        for (name, method) in [
            ("dynamic (hc)", Method::Dynamic),
            ("dynamic+static (hc)", Method::DynamicStatic),
            ("static", Method::Static),
            ("all branches", Method::AllBranches),
        ] {
            let plan = exp.wb.plan(method, &bundle).without_syscall_logging();
            let (row, stats, _) = replay_one(&exp, name, id, &plan, budget);
            let work = if wall { row.cell() } else { row.work_cell() };
            t5.push(vec![
                format!("exp {id}"),
                name.to_string(),
                work,
                row.runs.to_string(),
            ]);
            t8.push(vec![
                format!("exp {id}"),
                name.to_string(),
                stats.logged_cell(),
                stats.unlogged_cell(),
            ]);
        }
    }
    let (masked, work_header) = if wall {
        ("", "replay work / wall")
    } else {
        ("; wall masked", "replay work")
    };
    let t5 = render::table(
        &format!(
            "Table 5: reproduction WITHOUT syscall logging (budget {budget}; ∞ = timeout{masked})"
        ),
        &["experiment", "config", work_header, "runs"],
        &t5,
    );
    let t8 = render::table(
        "Table 8: symbolic branch locations logged / NOT logged, no syscall log",
        &["experiment", "config", "logged", "not logged"],
        &t8,
    );
    format!("{t5}\n{t8}")
}

/// One rendered row of the adaptive table: the generation's plan shape,
/// the replay outcome and the deployment spend.
fn adaptive_row(id: usize, g: &AdaptiveGen) -> Vec<String> {
    let p = &g.plan;
    let mut plan_cell = format!(
        "gen{} {}",
        p.generation,
        match p.format {
            LogFormat::Flat => "flat",
            LogFormat::PerLocation => "cursor",
        }
    );
    if p.checkpoints {
        plan_cell.push_str(" +ckpt");
    }
    if !p.forced_literals.is_empty() {
        plan_cell.push_str(&format!(" +lit{}", p.forced_literals.len()));
    }
    vec![
        id.to_string(),
        plan_cell,
        p.n_instrumented().to_string(),
        if g.result.reproduced { "yes" } else { "∞" }.to_string(),
        g.result.runs.to_string(),
        g.result.solver_calls.to_string(),
        g.result.total_instrs.to_string(),
        g.spend_cell(),
        g.result.escalation.hot_locations().len().to_string(),
    ]
}

/// Runs the two-generation adaptive loop for each uServer scenario in
/// `exps` under dynamic+static (lc) and renders the Table 3 adaptive
/// column family (deterministic columns; wall masked) — the rendering
/// the committed golden `userver_adaptive_replay.txt` pins at the
/// default knobs for the full scenario sweep.
pub fn adaptive_table(knobs: Knobs, exps: &[usize], budget: usize) -> String {
    let abench = userver_analysis(knobs);
    let bundle = abench.wb.analyze(Coverage::Lc.runs());
    let mut rows = Vec::new();
    for &id in exps {
        let exp = userver_experiment(id, knobs);
        let (g1, g2) = replay_adaptive(&exp, Method::DynamicStatic, &bundle, budget);
        rows.push(adaptive_row(id, &g1));
        rows.push(adaptive_row(id, &g2));
    }
    render::table(
        "uServer adaptive replay: dynamic+static (lc) gen-1 → gen-2 (deterministic columns; wall masked)",
        &[
            "exp",
            "plan",
            "locs",
            "reproduced",
            "runs",
            "solver calls",
            "instrs",
            "instr spend",
            "hot locs",
        ],
        &rows,
    )
}

/// The guarded-crash program as an [`Experiment`] (the workbench
/// `guarded_crash_table` builds inline, packaged for the adaptive e2e).
pub fn guarded_experiment(knobs: Knobs) -> Experiment {
    let cp = minic::build(&[("main", GUARDED_CRASH_SRC)]).expect("compiles");
    let mut wb = retrace_core::Workbench::new(cp, concolic::InputSpec::argv_symbolic("prog", 1, 2));
    wb.workers = knobs.workers;
    wb.cache = knobs.cache;
    Experiment {
        name: "guarded crash".into(),
        wb,
        parts: replay::InputParts {
            argv_sym: vec![b"cr".to_vec()],
            ..replay::InputParts::default()
        },
    }
}

/// Corpus seed of the standard triage runs (the golden and the smoke
/// test pin tables generated from it).
pub const TRIAGE_CORPUS_SEED: u64 = 42;

/// The standard-fleet triage run the golden tables, the smoke test and
/// the `table_triage` bin share: register the four corpus programs,
/// deploy an `n`-entry mixed corpus at [`TRIAGE_CORPUS_SEED`], triage.
pub fn triage_run(
    knobs: Knobs,
    corpus_n: usize,
) -> (
    retrace_triage::TriagePipeline,
    retrace_triage::TriageOutcome,
) {
    let mut p = retrace_triage::TriagePipeline::new(retrace_triage::TriageConfig {
        workers: knobs.workers,
        cache: knobs.cache,
        ..retrace_triage::TriageConfig::default()
    });
    retrace_triage::register_standard_fleet(&mut p);
    let corpus = workloads::fleet_mixed(workloads::CORPUS_PROGRAMS, corpus_n, TRIAGE_CORPUS_SEED);
    retrace_triage::deploy_corpus(&mut p, &corpus);
    let out = p.triage();
    (p, out)
}

/// Renders the triage table's deterministic columns plus the ledger
/// summary (everything but wall clock) — the rendering the committed
/// golden `triage_200.txt` pins at corpus 200, default knobs, and the
/// worker-invariance leg re-renders at workers 4.
pub fn triage_table(out: &retrace_triage::TriageOutcome, corpus_n: usize) -> String {
    let rows: Vec<Vec<String>> = out
        .classes
        .iter()
        .map(|c| {
            vec![
                c.row.class.to_string(),
                c.row.program.clone(),
                c.row.crash.clone(),
                c.row.members.to_string(),
                c.row.replay_cell(),
                c.row.total_instrs.to_string(),
                c.row.conformance_cell(),
                if c.escalated { "yes" } else { "" }.to_string(),
            ]
        })
        .collect();
    let l = &out.ledger;
    let table = render::table(
        &format!("fleet triage: one replay per report class (corpus {corpus_n}; wall masked)"),
        &[
            "class",
            "program",
            "crash",
            "members",
            "replay r/s",
            "instrs",
            "conformed",
            "escalated",
        ],
        &rows,
    );
    format!(
        "{table}\nledger: {} deployments · {} healthy · {} reports · {} classes · dedup {:.1}x\n\
         amortization: {} analyses for {} binaries ({} reports would each pay one naively) · \
         {} replays · {} conformant · {} escalations\n",
        l.deployments,
        l.healthy,
        l.reports,
        l.classes,
        out.dedup_ratio(),
        l.analyses,
        l.distinct_binaries(),
        l.reports,
        l.replays,
        l.conformant,
        l.escalations,
    )
}

/// The wall-clock block of the triage table (machine-dependent —
/// printed by the bin, never golden-pinned): batched wall, the
/// reports/sec headline, and the naive one-at-a-time extrapolation.
pub fn triage_wall_summary(
    out: &retrace_triage::TriageOutcome,
    naive: Option<&retrace_triage::NaiveOutcome>,
) -> String {
    let mut s = format!(
        "batched: {} reports triaged in {} ms — {}\n",
        out.ledger.reports,
        out.wall_ms,
        retrace_core::metrics::throughput_cell(out.ledger.reports, out.wall_ms),
    );
    if let Some(n) = naive {
        let per = n.wall_ms_per_report();
        let extrapolated = per * out.ledger.reports as f64;
        s.push_str(&format!(
            "naive:   {} reports one-at-a-time in {} ms ({:.1} ms/report, one analysis each) — \
             extrapolated {:.0} ms for all {} reports, {:.0}x the batched wall\n",
            n.reports,
            n.wall_ms,
            per,
            extrapolated,
            out.ledger.reports,
            extrapolated / out.wall_ms.max(1) as f64,
        ));
    }
    s
}

/// The guarded-crash source the replay goldens and invariance suites
/// share (two equality guards in front of a null dereference).
pub const GUARDED_CRASH_SRC: &str = r#"
    int main(int argc, char **argv) {
        char *s = argv[1];
        if (s[0] == 'c') {
            if (s[1] == 'r') {
                int *p = 0;
                return *p;
            }
        }
        return 0;
    }
"#;

/// Renders the guarded-crash Table 3 analogue (deterministic columns)
/// at the given knobs — the rendering the committed golden
/// `guarded_replay.txt` pins at the default knobs.
pub fn guarded_crash_table(knobs: Knobs) -> String {
    let cp = minic::build(&[("main", GUARDED_CRASH_SRC)]).expect("compiles");
    let mut wb = retrace_core::Workbench::new(cp, concolic::InputSpec::argv_symbolic("prog", 1, 2));
    wb.workers = knobs.workers;
    wb.cache = knobs.cache;
    let bundle = wb.analyze(16);
    let parts = replay::InputParts {
        argv_sym: vec![b"cr".to_vec()],
        ..replay::InputParts::default()
    };
    let mut rows = Vec::new();
    for (name, method) in [
        ("dynamic", Method::Dynamic),
        ("dynamic+static", Method::DynamicStatic),
        ("static", Method::Static),
        ("all branches", Method::AllBranches),
    ] {
        let plan = wb.plan(method, &bundle);
        let run = wb.logged_run(&plan, &parts);
        let report = run.report.expect("'cr' input crashes");
        let res = wb.replay(&plan, &report, 64);
        rows.push(vec![
            name.to_string(),
            if res.reproduced { "yes" } else { "∞" }.to_string(),
            res.runs.to_string(),
            res.solver_calls.to_string(),
            res.total_instrs.to_string(),
            cache_cell(res.cache_hits, res.cache_misses, res.prefix_len_saved),
        ]);
    }
    render::table(
        "guarded crash: bug reproduction (deterministic columns)",
        &[
            "config",
            "reproduced",
            "runs",
            "solver calls",
            "instrs",
            "prefix cache",
        ],
        &rows,
    )
}
