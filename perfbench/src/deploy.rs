//! `userver_deploy`: the user site. Serve a 5000-request saturation load
//! once uninstrumented and once under each of four plans.

use crate::calib::Speed;
use crate::debug::{concolic_metrics, concolic_ns_per_instr};
use crate::metrics::{median, ratio, Metrics, DEPLOY_PLANS};
use crate::pipeline::{analyze, check_analysis_matches, median_wall, Analysis, Workload};
use crate::trace::Tracer;
use instrument::{Method, Plan};
use retrace_bench::experiments::userver_analysis_bench;
use retrace_bench::setup::{userver_load, Coverage, Experiment};
use retrace_core::LoggedRun;

/// Requests served per run.
const REQUESTS: usize = 5000;
/// Index of dynamic+static (lc) in [`DEPLOY_PLANS`]: the Fig. 4 pair.
const DS: usize = 1;
/// Back-to-back uninstrumented and dynamic+static serves per pass.
const PAIR_ROUNDS: usize = 2;

pub struct State {
    load: Experiment,
    abench: Experiment,
    lc: Analysis,
    plans: Vec<Plan>,
    plan_s: Vec<f64>,
}

fn setup(seed: u64) -> State {
    let load = userver_load(REQUESTS, seed);
    let abench = userver_analysis_bench(seed);
    let mut tr = Tracer::new();
    let lc = analyze(&abench.wb, Coverage::Lc.runs(), &mut tr, 0);
    let (plans, plan_s) = [
        Method::Dynamic,
        Method::DynamicStatic,
        Method::Static,
        Method::AllBranches,
    ]
    .iter()
    .enumerate()
    .map(|(i, &method)| {
        tr.time("instrument.plan", i as u64, || {
            load.wb.plan(method, &lc.bundle)
        })
    })
    .unzip();
    State {
        load,
        abench,
        lc,
        plans,
        plan_s,
    }
}

pub struct Pass {
    base_s: f64,
    base_instrs: u64,
    base_units: u64,
    logged: Vec<(LoggedRun, f64)>,
    /// Wall of each logged serve at the reference speed.
    logged_ref_s: Vec<f64>,
    /// Dynamic+static over uninstrumented wall, one per pair.
    pair_ratios: Vec<f64>,
    /// Walls of the LC analysis, rerun after each serve, at the
    /// reference speed.
    analysis_s: Vec<f64>,
    failures: Vec<String>,
}

fn pass(s: &State, tr: &mut Tracer, speed: &Speed) -> Pass {
    let wb = &s.load.wb;
    let ((outcome, meter, stdout), base_s) =
        tr.time("minic.baseline_run", 0, || wb.baseline_run(&s.load.parts));
    let mut failures = Vec::new();
    if outcome.crash().is_some() {
        failures.push("uninstrumented run crashed".into());
    }
    let (mut logged, mut logged_ref_s, mut analysis_s) = (Vec::new(), Vec::new(), Vec::new());
    for (i, plan) in s.plans.iter().enumerate() {
        let ((run, secs), ref_s) = speed.time(|| {
            tr.time("instrument.logged_run", i as u64, || {
                wb.logged_run(plan, &s.load.parts)
            })
        });
        if run.requests != REQUESTS as u64 || run.stdout != stdout || run.report.is_some() {
            failures.push(format!(
                "{}: served {} of {REQUESTS} requests, stdout {}",
                DEPLOY_PLANS[i],
                run.requests,
                if run.stdout == stdout {
                    "equal"
                } else {
                    "differs"
                }
            ));
        }
        logged.push((run, secs));
        logged_ref_s.push(ref_s);
        let (_, a) = speed.time(|| analyze(&s.abench.wb, Coverage::Lc.runs(), tr, i as u64));
        analysis_s.push(a);
    }
    // A contention phase that covers a pair slows both of its serves.
    let pair_ratios = (0..PAIR_ROUNDS as u64)
        .map(|k| {
            let (_, b) = tr.time("minic.baseline_run", k, || wb.baseline_run(&s.load.parts));
            let (_, l) = tr.time("instrument.logged_run", DS as u64, || {
                wb.logged_run(&s.plans[DS], &s.load.parts)
            });
            l / b
        })
        .collect();
    Pass {
        base_s,
        base_instrs: meter.instrs,
        base_units: meter.units,
        logged,
        logged_ref_s,
        pair_ratios,
        analysis_s,
        failures,
    }
}

fn end_to_end(p: &[Pass], setups: &[f64], m: &mut Metrics) {
    m.set("setup_s", median(setups));
    let analyses: Vec<f64> = p.iter().flat_map(|p| p.analysis_s.clone()).collect();
    m.set("analysis_s", median(&analyses));
    let logged: Vec<f64> = (0..DEPLOY_PLANS.len())
        .map(|i| median(&p.iter().map(|p| p.logged_ref_s[i]).collect::<Vec<_>>()))
        .collect();
    let last = p.last().expect("one pass");
    let served: u64 = last.logged.iter().map(|(r, _)| r.requests).sum();
    m.set(
        "throughput_per_s",
        served as f64 / logged.iter().sum::<f64>(),
    );
    let ratios: Vec<f64> = p.iter().flat_map(|p| p.pair_ratios.clone()).collect();
    m.set("slowdown_x", median(&ratios));
    let ds = &last.logged[DS].0;
    m.set(
        "cost_overhead_pct",
        (ratio(ds.meter.units as f64, last.base_units as f64) - 1.0) * 100.0,
    );
    m.set(
        "log_bytes_per_req",
        ds.log_bits as f64 / 8.0 / REQUESTS as f64,
    );
    let failed = last.failures.len().min(DEPLOY_PLANS.len());
    m.set(
        "verified_frac",
        1.0 - failed as f64 / DEPLOY_PLANS.len() as f64,
    );
}

fn per_layer(s: &State, p: &Pass, m: &mut Metrics) {
    m.set("minic.base_run_ms", p.base_s * 1e3);
    m.set("minic.minstr_per_s", p.base_instrs as f64 / 1e6 / p.base_s);
    m.set(
        "minic.compile_ms",
        median_wall(5, || progs::Program::Userver.build()) * 1e3,
    );
    for (key, (_, secs)) in DEPLOY_PLANS.iter().zip(&p.logged) {
        m.set(format!("instrument.logged_run_ms.{key}"), secs * 1e3);
    }
    let (ds, ds_s) = &p.logged[DS];
    m.set(
        "instrument.ns_per_logged_exec",
        ratio((ds_s - p.base_s) * 1e9, ds.instrumented_execs as f64),
    );
    m.set("instrument.log_bits", ds.log_bits as f64);
    m.set(
        "instrument.plan_us",
        s.plan_s.iter().sum::<f64>() / s.plan_s.len() as f64 * 1e6,
    );
    concolic_metrics(&[("lc", &s.lc)], concolic_ns_per_instr(&s.abench.wb), m);
}

pub struct Deploy;

impl Workload for Deploy {
    type State = State;
    type Pass = Pass;

    fn setup(seed: u64) -> State {
        setup(seed)
    }

    fn pass(s: &State, tr: &mut Tracer, speed: &Speed) -> Pass {
        pass(s, tr, speed)
    }

    fn checked(p: &Pass) -> (u64, Vec<String>) {
        (DEPLOY_PLANS.len() as u64, p.failures.clone())
    }

    fn run_checks(_seed: u64, s: &State, _p: &[Pass], failures: &mut Vec<String>) {
        check_analysis_matches(&s.abench.wb, Coverage::Lc.runs(), failures);
    }

    fn end_to_end(p: &[Pass], setups: &[f64], m: &mut Metrics) {
        end_to_end(p, setups, m)
    }

    fn per_layer(s: &State, p: &Pass, m: &mut Metrics) {
        per_layer(s, p, m)
    }
}
