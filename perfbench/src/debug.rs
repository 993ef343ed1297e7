//! `userver_debug`: the developer site. Analyze the uServer at LC and
//! HC, then deploy and reproduce the five Table 3 crash scenarios under
//! the dynamic+static (lc) and static plans.

use crate::calib::Speed;
use crate::metrics::{median, ratio, Metrics, DEBUG_ROWS};
use crate::pipeline::{
    analyze, check_analysis_matches, median_wall, session_config, Analysis, Workload,
};
use crate::trace::Tracer;
use instrument::{BugReport, Method, Plan};
use replay::{ReplayConfig, ReplayEngine, ReplayResult};
use retrace_bench::experiments::userver_analysis_bench;
use retrace_bench::fixtures::read_golden;
use retrace_bench::setup::{userver_experiments, Coverage, Experiment};

/// Replay run budget per report (Table 3's).
const BUDGET: usize = 300;
/// LC + HC analyses per pass; the last one's labels make the plans.
const ANALYSIS_REPS: usize = 2;
/// Rounds of uninstrumented/logged deployment pairs per pass.
const PAIR_REPS: usize = 20;
/// Repetitions of each probe call.
const PROBE_REPS: usize = 5;

pub struct State {
    abench: Experiment,
    exps: Vec<Experiment>,
}

fn setup(seed: u64) -> State {
    State {
        abench: userver_analysis_bench(seed),
        exps: userver_experiments(seed),
    }
}

/// One reproduced report.
struct Row {
    exp: usize,
    plan_key: &'static str,
    plan: Plan,
    report: BugReport,
    res: ReplayResult,
    replay_s: f64,
    /// `replay_s` at the reference speed.
    replay_ref_s: f64,
    plan_s: f64,
    deploy_s: f64,
    escalate_s: f64,
    compress_s: f64,
    wire_bytes: usize,
    packed_bytes: usize,
    log_bits: u64,
    verified: bool,
}

pub struct Pass {
    lc: Analysis,
    hc: Analysis,
    /// LC plus HC analysis walls at the reference speed, one per
    /// repetition.
    analysis_ref_s: Vec<f64>,
    rows: Vec<Row>,
    /// Logged over uninstrumented wall of the dynamic+static deployments,
    /// one ratio per round.
    pair_ratios: Vec<f64>,
    base_s: Vec<f64>,
    base_units: u64,
    base_instrs: u64,
    logged_units: u64,
    logged_execs: u64,
    logged_s: Vec<f64>,
    failures: Vec<String>,
}

fn method(plan_key: &str) -> Method {
    match plan_key {
        "static" => Method::Static,
        _ => Method::DynamicStatic,
    }
}

fn pass(s: &State, tr: &mut Tracer, speed: &Speed) -> Pass {
    let mut failures = Vec::new();
    tr.enter("bench.analysis", 0);
    let mut analysis_ref_s = Vec::new();
    let (mut lc, mut hc) = (None, None);
    for _ in 0..ANALYSIS_REPS {
        let (l, lc_s) = speed.time(|| analyze(&s.abench.wb, Coverage::Lc.runs(), tr, 0));
        let (h, hc_s) = speed.time(|| analyze(&s.abench.wb, Coverage::Hc.runs(), tr, 1));
        analysis_ref_s.push(lc_s + hc_s);
        (lc, hc) = (Some(l), Some(h));
    }
    let (lc, hc) = (lc.expect("one analysis"), hc.expect("one analysis"));
    tr.exit();

    tr.enter("bench.repro", 0);
    let mut rows = Vec::new();
    for (i, &(exp, plan_key)) in DEBUG_ROWS.iter().enumerate() {
        let e = &s.exps[exp - 1];
        let req = i as u64;
        let (plan, plan_s) = tr.time("instrument.plan", req, || {
            e.wb.plan(method(plan_key), &lc.bundle)
        });
        let (run, deploy_s) = tr.time("instrument.logged_run", req, || {
            e.wb.logged_run(&plan, &e.parts)
        });
        let Some(report) = run.report else {
            failures.push(format!("exp {exp} {plan_key}: deployment did not crash"));
            continue;
        };
        let wire = report.trace.wire_bytes();
        let (packed, compress_s) = tr.time("instrument.compress", req, || {
            instrument::compress::compress(&wire)
        });
        let ((res, replay_s), replay_ref_s) = speed.time(|| {
            tr.time("replay.reproduce", req, || e.wb.replay(&plan, &report, BUDGET))
        });
        let (_, escalate_s) = tr.time("instrument.escalate", req, || {
            e.wb.escalate_plan(&plan, &res.escalation)
        });
        // Re-deploy the witness: it must crash at the same site with the
        // same branch trace.
        let verified = match res.witness_assignment.as_ref().filter(|_| res.reproduced) {
            Some(w) => {
                let (again, _) = tr.time("instrument.logged_run", req, || {
                    e.wb.logged_run_assignment(&plan, &e.wb.spec, &e.wb.kernel, w)
                });
                again
                    .report
                    .is_some_and(|r| r.crash == report.crash && r.trace.wire_bytes() == wire)
            }
            None => false,
        };
        if !verified {
            failures.push(format!(
                "exp {exp} {plan_key}: not reproduced or witness does not re-crash identically"
            ));
        }
        rows.push(Row {
            exp,
            plan_key,
            plan,
            report,
            res,
            replay_s,
            replay_ref_s,
            plan_s,
            deploy_s,
            escalate_s,
            compress_s,
            wire_bytes: wire.len(),
            packed_bytes: packed.len(),
            log_bits: run.log_bits,
            verified,
        });
    }
    tr.exit();

    // User-site cost of the dynamic+static deployments: uninstrumented
    // and logged runs of the same crash inputs, interleaved per round.
    tr.enter("bench.pairs", 0);
    let ds: Vec<&Row> = rows
        .iter()
        .filter(|r| r.plan_key == "dynamic_static_lc")
        .collect();
    let (mut pair_ratios, mut base_s, mut logged_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut base_units, mut base_instrs, mut logged_units, mut logged_execs) = (0, 0, 0, 0);
    for round in 0..PAIR_REPS {
        let (mut b_sum, mut l_sum) = (0.0, 0.0);
        for (k, r) in ds.iter().enumerate() {
            let e = &s.exps[r.exp - 1];
            let ((_, meter, _), b) = tr.time("minic.baseline_run", k as u64, || {
                e.wb.baseline_run(&e.parts)
            });
            let (run, l) = tr.time("instrument.logged_run", k as u64, || {
                e.wb.logged_run(&r.plan, &e.parts)
            });
            b_sum += b;
            l_sum += l;
            if round == 0 {
                base_units += meter.units;
                base_instrs += meter.instrs;
                logged_units += run.meter.units;
                logged_execs += run.instrumented_execs;
            }
        }
        pair_ratios.push(l_sum / b_sum);
        base_s.push(b_sum);
        logged_s.push(l_sum);
    }
    tr.exit();

    Pass {
        lc,
        hc,
        analysis_ref_s,
        rows,
        pair_ratios,
        base_s,
        base_units,
        base_instrs,
        logged_units,
        logged_execs,
        logged_s,
        failures,
    }
}

/// `(exp, runs, solver calls)` of the committed dynamic+static (lc)
/// gen-1 rows, and the committed exp-1 static run count.
fn goldens() -> (Vec<(usize, usize, usize)>, usize) {
    let cell = |l: &str, i: usize| -> usize {
        l.split_whitespace()
            .nth(i)
            .and_then(|c| c.parse().ok())
            .expect("numeric golden cell")
    };
    let gen1 = read_golden("userver_adaptive_replay.txt")
        .lines()
        .filter(|l| l.split_whitespace().nth(1) == Some("gen1"))
        .map(|l| (cell(l, 0), cell(l, 5), cell(l, 6)))
        .collect();
    let exp1 = read_golden("userver_exp1_replay.txt");
    let static_runs = exp1
        .lines()
        .find(|l| l.split_whitespace().next() == Some("static"))
        .map(|l| cell(l, 2))
        .expect("exp-1 golden has a static row");
    (gen1, static_runs)
}

/// At seed 42 the deterministic replay counts must equal the goldens.
fn check_goldens(p: &Pass, failures: &mut Vec<String>) {
    let (gen1, static_runs) = goldens();
    let exps: Vec<usize> = gen1.iter().map(|g| g.0).collect();
    if exps != [1, 2, 3, 4, 5] {
        failures.push(format!(
            "golden check: expected the gen-1 rows of exps 1-5, parsed exps {exps:?}"
        ));
    }
    let find = |exp: usize, key: &str| p.rows.iter().find(|r| r.exp == exp && r.plan_key == key);
    for (exp, runs, calls) in gen1 {
        match find(exp, "dynamic_static_lc") {
            Some(r) if r.res.runs == runs && r.res.solver_calls == calls => {}
            Some(r) => failures.push(format!(
                "golden drift: exp {exp} dynamic+static (lc) {}/{} runs/calls, committed {runs}/{calls}",
                r.res.runs, r.res.solver_calls
            )),
            None => failures.push(format!("golden check: exp {exp} has no dynamic+static row")),
        }
    }
    match find(1, "static") {
        Some(r) if r.res.runs == static_runs => {}
        _ => failures.push(format!(
            "golden drift: exp 1 static runs, committed {static_runs}"
        )),
    }
}

/// Wall seconds and instructions of one full-length replay run started
/// at the report's witness (`max_runs = 1`): VM plus replay host, no solve.
fn hinted_run(e: &Experiment, r: &Row) -> (f64, u64) {
    let mut cfg = ReplayConfig::new(e.wb.spec.clone());
    cfg.base_fs = e.wb.kernel.fs.clone();
    cfg.budget.max_runs = 1;
    cfg.budget.policy = e.wb.policy.clone();
    cfg.budget.concretization = e.wb.concretization;
    cfg.budget.workers = 1;
    cfg.budget.prefix_cache = e.wb.cache;
    // The session seed `Workbench::replay` derives.
    cfg.seed = e.wb.seed ^ 0x5eed_cafe;
    cfg.initial_hint = r.res.witness_assignment.clone();
    let mut instrs = 0;
    let wall = median_wall(PROBE_REPS, || {
        let res =
            ReplayEngine::new(&e.wb.cp, r.plan.clone(), r.report.clone(), cfg.clone()).reproduce();
        instrs = res.total_instrs;
    });
    (wall, instrs)
}

/// Nanoseconds per instruction of one concolic run (VM plus symbolic host).
pub fn concolic_ns_per_instr(wb: &retrace_core::Workbench) -> f64 {
    let engine = concolic::Engine::new(&wb.cp, session_config(wb, 1));
    let mut arena = solver::ExprArena::new();
    let vars = concolic::InputVars::alloc(&mut arena, &wb.spec);
    let assignment = engine.initial_assignment();
    let mut instrs = 0;
    let mut slot = Some(arena);
    let wall = median_wall(PROBE_REPS, || {
        let (rec, a) = engine.run_once(slot.take().expect("arena"), &vars, &assignment);
        instrs = rec.meter.instrs;
        slot = Some(a);
    });
    ratio(wall * 1e9, instrs as f64)
}

/// Concolic-layer counters of a set of analyses.
pub fn concolic_metrics(analyses: &[(&str, &Analysis)], ns_per_instr: f64, m: &mut Metrics) {
    let (mut runs, mut calls, mut instrs, mut hits, mut misses, mut arena, mut wall) =
        (0, 0, 0, 0, 0, 0, 0.0);
    for (level, a) in analyses {
        let r = &a.bundle.dyn_result;
        m.set(format!("concolic.analyze_ms.{level}"), a.concolic_s * 1e3);
        runs += r.runs;
        calls += r.solver_calls;
        instrs += r.total_instrs;
        hits += r.cache_hits;
        misses += r.cache_misses;
        arena = arena.max(r.arena_nodes);
        wall += a.concolic_s;
    }
    m.set("concolic.runs", runs as f64);
    m.set("concolic.solver_calls", calls as f64);
    m.set("concolic.instrs", instrs as f64);
    m.set("concolic.arena_nodes", arena as f64);
    m.set(
        "concolic.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    m.set("concolic.host_ns_per_instr", ns_per_instr);
    m.set(
        "concolic.host_share_est",
        ratio(ns_per_instr * instrs as f64 / 1e9, wall),
    );
    let static_ms: Vec<f64> = analyses.iter().map(|(_, a)| a.staticax_s * 1e3).collect();
    m.set("staticax.analyze_ms", median(&static_ms));
}

fn end_to_end(p: &[Pass], setup_walls: &[f64], m: &mut Metrics) {
    m.set("setup_s", median(setup_walls));
    m.set(
        "analysis_s",
        median(&p.iter().flat_map(|p| p.analysis_ref_s.clone()).collect::<Vec<_>>()),
    );
    let last = p.last().expect("one pass");
    let reproduced = last.rows.iter().filter(|r| r.res.reproduced).count();
    // Each report at its median pass.
    let replay_s: f64 = (0..DEBUG_ROWS.len())
        .map(|k| {
            let walls: Vec<f64> = p
                .iter()
                .filter_map(|p| p.rows.get(k))
                .map(|r| r.replay_ref_s)
                .collect();
            if walls.is_empty() {
                0.0
            } else {
                median(&walls)
            }
        })
        .sum();
    m.set("throughput_per_s", reproduced as f64 / replay_s);
    m.set(
        "slowdown_x",
        median(&p.iter().map(|p| median(&p.pair_ratios)).collect::<Vec<_>>()),
    );
    m.set(
        "cost_overhead_pct",
        (ratio(last.logged_units as f64, last.base_units as f64) - 1.0) * 100.0,
    );
    let ds = last
        .rows
        .iter()
        .filter(|r| r.plan_key == "dynamic_static_lc");
    let (bits, reqs) = ds.fold((0, 0), |(b, q), r| (b + r.log_bits, q + 1));
    m.set("log_bytes_per_req", ratio(bits as f64 / 8.0, reqs as f64));
    let verified = last.rows.iter().filter(|r| r.verified).count();
    m.set("verified_frac", verified as f64 / DEBUG_ROWS.len() as f64);
}

fn per_layer(s: &State, p: &Pass, m: &mut Metrics) {
    let sum = |f: &dyn Fn(&Row) -> f64| p.rows.iter().map(f).sum::<f64>();
    let calls = sum(&|r| r.res.solver_calls as f64);
    let sat = sum(&|r| r.res.frontier.solved_sat as f64);
    let unsat = sum(&|r| r.res.frontier.solved_unsat as f64);
    let hits = sum(&|r| r.res.cache_hits as f64);
    let misses = sum(&|r| r.res.cache_misses as f64);
    m.set("solver.calls", calls);
    m.set("solver.sat_ratio", ratio(sat, sat + unsat));
    m.set("solver.cache_hit_ratio", ratio(hits, hits + misses));
    m.set(
        "solver.prefix_lits_saved",
        sum(&|r| r.res.prefix_len_saved as f64),
    );
    let offered = sum(&|r| r.res.frontier.offered as f64);
    let scheduled = sum(&|r| r.res.frontier.scheduled as f64);
    m.set("search.offered", offered);
    m.set("search.scheduled", scheduled);
    m.set(
        "search.skipped_duplicate",
        sum(&|r| r.res.frontier.skipped_duplicate as f64),
    );
    m.set("search.popped", sum(&|r| r.res.frontier.popped as f64));
    m.set(
        "search.repairs",
        sum(&|r| r.res.frontier.repairs_scheduled as f64),
    );
    m.set("search.restarts", sum(&|r| r.res.frontier.restarts as f64));
    m.set("search.accept_ratio", ratio(scheduled, offered));
    m.set("replay.runs", sum(&|r| r.res.runs as f64));
    m.set("replay.instrs", sum(&|r| r.res.total_instrs as f64));
    m.set(
        "replay.cursor_overruns",
        sum(&|r| r.res.cursor_overruns as f64),
    );
    m.set(
        "replay.checkpoint_divergences",
        sum(&|r| r.res.checkpoint_divergences as f64),
    );

    // Host/solver split per report, from a hinted single replay run.
    eprintln!(
        "{:<24} {:>9} {:>5} {:>6} {:>14} {:>11} {:>15}",
        "report", "replay ms", "runs", "calls", "host ns/instr", "host share", "solver ms/call"
    );
    let (mut hint_s, mut hint_instrs, mut host_s) = (0.0, 0u64, 0.0);
    for r in &p.rows {
        let (wall, instrs) = hinted_run(&s.exps[r.exp - 1], r);
        let ns = ratio(wall * 1e9, instrs as f64);
        let host = ns * r.res.total_instrs as f64 / 1e9;
        let share = ratio(host, r.replay_s);
        let ms_call = ratio((r.replay_s - host) * 1e3, r.res.solver_calls as f64);
        hint_s += wall;
        hint_instrs += instrs;
        host_s += host;
        let key = format!("exp{}.{}", r.exp, r.plan_key);
        m.set(format!("replay.ms.{key}"), r.replay_s * 1e3);
        m.set(format!("replay.host_share_est.{key}"), share);
        m.set(format!("solver.ms_per_call_est.{key}"), ms_call);
        eprintln!(
            "{key:<24} {:>9.1} {:>5} {:>6} {ns:>14.1} {:>10.1}% {ms_call:>15.3}",
            r.replay_s * 1e3,
            r.res.runs,
            r.res.solver_calls,
            share * 100.0
        );
    }
    let replay_s = sum(&|r| r.replay_s);
    m.set(
        "replay.host_ns_per_instr",
        ratio(hint_s * 1e9, hint_instrs as f64),
    );
    m.set("replay.host_share_est", ratio(host_s, replay_s));
    m.set(
        "solver.ms_per_call_est",
        ratio((replay_s - host_s) * 1e3, calls),
    );

    let ns = concolic_ns_per_instr(&s.abench.wb);
    concolic_metrics(&[("lc", &p.lc), ("hc", &p.hc)], ns, m);
    let cp = &s.abench.wb.cp;
    m.set(
        "staticax.literal_clusters_ms",
        median_wall(PROBE_REPS, || staticax::literal_clusters(cp)) * 1e3,
    );
    m.set(
        "minic.compile_ms",
        median_wall(PROBE_REPS, || progs::Program::Userver.build()) * 1e3,
    );
    let base_s = median(&p.base_s);
    m.set("minic.base_run_ms", base_s * 1e3);
    m.set(
        "minic.minstr_per_s",
        ratio(p.base_instrs as f64 / 1e6, base_s),
    );

    let n = p.rows.len() as f64;
    for key in ["dynamic_static_lc", "static"] {
        let ms: f64 = p
            .rows
            .iter()
            .filter(|r| r.plan_key == key)
            .map(|r| r.deploy_s)
            .sum();
        m.set(format!("instrument.logged_run_ms.{key}"), ms * 1e3);
    }
    m.set(
        "instrument.ns_per_logged_exec",
        ratio((median(&p.logged_s) - base_s) * 1e9, p.logged_execs as f64),
    );
    m.set("instrument.log_bits", sum(&|r| r.log_bits as f64));
    m.set("instrument.plan_us", sum(&|r| r.plan_s) / n * 1e6);
    m.set("instrument.escalate_us", sum(&|r| r.escalate_s) / n * 1e6);
    m.set("instrument.compress_ms", sum(&|r| r.compress_s) * 1e3);
    m.set(
        "instrument.compress_ratio",
        ratio(
            sum(&|r| r.wire_bytes as f64),
            sum(&|r| r.packed_bytes as f64),
        ),
    );
    m.set(
        "instrument.report_bytes",
        sum(&|r| r.report.transfer_bytes() as f64) / n,
    );
}

pub struct Debug;

impl Workload for Debug {
    type State = State;
    type Pass = Pass;

    fn setup(seed: u64) -> State {
        setup(seed)
    }

    fn pass(s: &State, tr: &mut Tracer, speed: &Speed) -> Pass {
        pass(s, tr, speed)
    }

    fn checked(p: &Pass) -> (u64, Vec<String>) {
        (DEBUG_ROWS.len() as u64, p.failures.clone())
    }

    fn run_checks(seed: u64, s: &State, p: &[Pass], failures: &mut Vec<String>) {
        check_analysis_matches(&s.abench.wb, Coverage::Lc.runs(), failures);
        // Replay is deterministic: every pass takes the first one's runs
        // and solver calls.
        let counts = |p: &Pass| -> Vec<_> {
            p.rows
                .iter()
                .map(|r| (r.exp, r.plan_key, r.res.runs, r.res.solver_calls))
                .collect()
        };
        if p.iter().any(|q| counts(q) != counts(&p[0])) {
            failures.push("replay runs or solver calls differ between passes".into());
        }
        if seed == 42 {
            check_goldens(&p[0], failures);
        }
    }

    fn end_to_end(p: &[Pass], setups: &[f64], m: &mut Metrics) {
        end_to_end(p, setups, m)
    }

    fn per_layer(s: &State, p: &Pass, m: &mut Metrics) {
        per_layer(s, p, m)
    }
}
