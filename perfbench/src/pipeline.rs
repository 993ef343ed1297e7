//! What every workload shares: the analyses called layer by layer and
//! the run loop that alternates set-ups with timed passes, or runs the
//! traced pass pair.

use crate::calib::{Speed, NOMINAL_MS};
use crate::metrics::Metrics;
use crate::trace::Tracer;
use concolic::{Engine, SessionConfig};
use retrace_core::{to_dyn_labels, AnalysisBundle, Workbench};
use staticax::StaticConfig;
use std::time::Instant;

/// Set-ups before each pass; `setup_s` is taken over all of them.
pub const SETUPS_PER_PASS: usize = 5;
/// Passes an untraced run makes even when they overrun `--seconds`, so
/// that each timing has more than one sample.
pub const MIN_PASSES: usize = 2;

/// One run's result before it is printed.
pub struct RunOut {
    pub metrics: Metrics,
    /// Checked operations.
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

/// The session [`Workbench::analyze`] configures for `runs` concolic runs.
pub fn session_config(wb: &Workbench, runs: usize) -> SessionConfig {
    let mut scfg = SessionConfig::new(wb.spec.clone());
    scfg.kernel = wb.kernel.clone();
    // Analysis runs never receive the crash signal.
    scfg.kernel.signal_plan = None;
    scfg.budget.max_runs = runs;
    scfg.budget.policy = wb.policy.clone();
    scfg.budget.concretization = wb.concretization;
    scfg.budget.workers = 1;
    scfg.budget.prefix_cache = wb.cache;
    scfg.seed = wb.seed;
    scfg
}

/// A completed analysis with the wall seconds of its two layers.
pub struct Analysis {
    pub bundle: AnalysisBundle,
    pub concolic_s: f64,
    pub staticax_s: f64,
}

/// [`Workbench::analyze`], calling `concolic::Engine` and
/// `staticax::analyze` separately so each layer gets its own span.
pub fn analyze(wb: &Workbench, runs: usize, tr: &mut Tracer, request: u64) -> Analysis {
    let scfg = session_config(wb, runs);
    let (dyn_result, concolic_s) = tr.time("concolic.analyze", request, || {
        Engine::new(&wb.cp, scfg).analyze()
    });
    let cfg = StaticConfig {
        exclude_units: wb.static_exclude.clone(),
    };
    let (sres, staticax_s) = tr.time("staticax.analyze", request, || {
        staticax::analyze(&wb.cp, &cfg)
    });
    Analysis {
        bundle: AnalysisBundle {
            dyn_labels: to_dyn_labels(&wb.cp, &dyn_result.labels),
            dyn_result,
            static_symbolic: sres.symbolic().to_vec(),
            implications: sres.implications,
        },
        concolic_s,
        staticax_s,
    }
}

/// Checks that [`analyze`] labels branches exactly as
/// [`Workbench::analyze`] does.
pub fn check_analysis_matches(wb: &Workbench, runs: usize, failures: &mut Vec<String>) {
    let ours = analyze(wb, runs, &mut Tracer::new(), 0).bundle;
    let theirs = wb.analyze(runs);
    if ours.dyn_labels != theirs.dyn_labels || ours.static_symbolic != theirs.static_symbolic {
        failures.push("layer-by-layer analysis disagrees with Workbench::analyze".into());
    }
}

/// Runs `setup` [`SETUPS_PER_PASS`] times; returns the last state.
fn setups<S>(setup: impl Fn() -> S, speed: &Speed, walls: &mut Vec<f64>) -> S {
    let mut last = None;
    for _ in 0..SETUPS_PER_PASS {
        let (s, secs) = speed.time(&setup);
        walls.push(secs);
        last = Some(s);
    }
    last.expect("at least one set-up")
}

/// A benchmark workload: set-up, one timed pass, and the metrics and
/// checks over its passes.
pub trait Workload {
    type State;
    type Pass;
    /// Compiles, generates the inputs from `seed` and runs untimed
    /// analyses.
    fn setup(seed: u64) -> Self::State;
    /// The measured work, with spans around each layer call. Wall times
    /// for end-to-end metrics are taken with `speed`.
    fn pass(s: &Self::State, tr: &mut Tracer, speed: &Speed) -> Self::Pass;
    /// Operations a pass checked, and its failed checks.
    fn checked(p: &Self::Pass) -> (u64, Vec<String>);
    /// Checks of the run as a whole.
    fn run_checks(_seed: u64, _s: &Self::State, _p: &[Self::Pass], _failures: &mut Vec<String>) {}
    /// Every end-to-end metric but `peak_rss_mb`.
    fn end_to_end(p: &[Self::Pass], setups: &[f64], m: &mut Metrics);
    /// Every per-layer metric the workload exercises, except `trace.*`.
    fn per_layer(s: &Self::State, p: &Self::Pass, m: &mut Metrics);
}

/// Runs a workload: set-ups alternating with timed passes while another
/// pass fits in `seconds` (at least [`MIN_PASSES`]), then set-ups once
/// more, so that set-up samples come from both ends of the run; or,
/// traced, one untraced and one traced pass.
pub fn run<W: Workload>(seed: u64, seconds: f64, trace: bool, tr: &mut Tracer) -> RunOut {
    let mut setup_walls = Vec::new();
    let setup = || W::setup(seed);
    let speed = Speed::new();
    let mut m = Metrics::default();
    let (state, passes) = if trace {
        let state = setups(setup, &speed, &mut setup_walls);
        let (p, walls) = traced_pair(tr, |tr| W::pass(&state, tr, &speed));
        W::per_layer(&state, &p, &mut m);
        trace_metrics(tr, &walls, &mut m);
        (state, vec![p])
    } else {
        let t0 = Instant::now();
        let mut passes = Vec::new();
        let state = loop {
            let state = setups(setup, &speed, &mut setup_walls);
            let t = Instant::now();
            passes.push(W::pass(&state, tr, &speed));
            if passes.len() >= MIN_PASSES
                && t0.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > seconds
            {
                break state;
            }
        };
        setups(setup, &speed, &mut setup_walls);
        eprintln!(
            "reference task: mean {:.3} ms, {NOMINAL_MS} ms uncontended",
            speed.mean_ms()
        );
        W::end_to_end(&passes, &setup_walls, &mut m);
        (state, passes)
    };
    let (mut attempted, mut failures) = (1, Vec::new());
    W::run_checks(seed, &state, &passes, &mut failures);
    for p in &passes {
        let (n, f) = W::checked(p);
        attempted += n;
        failures.extend(f);
    }
    RunOut {
        metrics: m,
        attempted,
        failures,
    }
}

/// Walls of one untraced and one traced pass over the same state.
struct PairWalls {
    untraced_s: f64,
    traced_s: f64,
}

/// One untraced and one traced pass over the same state; returns the
/// traced pass.
fn traced_pair<P>(tr: &mut Tracer, mut pass: impl FnMut(&mut Tracer) -> P) -> (P, PairWalls) {
    let t = Instant::now();
    drop(pass(tr));
    let untraced_s = t.elapsed().as_secs_f64();
    tr.set_enabled(true);
    let t = Instant::now();
    tr.enter("bench.pass", 0);
    let traced = pass(tr);
    tr.exit();
    let traced_s = t.elapsed().as_secs_f64();
    tr.set_enabled(false);
    (
        traced,
        PairWalls {
            untraced_s,
            traced_s,
        },
    )
}

/// Nanoseconds one recorded span adds to a timed layer call.
fn span_cost_ns() -> f64 {
    const N: usize = 100_000;
    let mut walls = [0.0; 2];
    for (on, wall) in [false, true].into_iter().zip(walls.iter_mut()) {
        let mut t = Tracer::new();
        t.set_enabled(on);
        *wall = median_wall(5, || {
            for i in 0..N {
                t.time("bench.calibrate", i as u64, || i);
            }
        });
    }
    (walls[1] - walls[0]).max(0.0) * 1e9 / N as f64
}

/// Adds the span-derived metrics of a traced run: the measured
/// traced-minus-untraced wall, and the overhead that the calibrated cost
/// of one span predicts for the spans recorded.
fn trace_metrics(tr: &Tracer, walls: &PairWalls, m: &mut Metrics) {
    let spans = tr.spans().len() as f64;
    let cost = span_cost_ns();
    m.set(
        "trace.overhead_pct",
        (walls.traced_s - walls.untraced_s) / walls.untraced_s * 100.0,
    );
    m.set("trace.span_cost_ns", cost);
    m.set(
        "trace.overhead_est_pct",
        spans * cost / 1e9 / walls.traced_s * 100.0,
    );
    m.set("trace.spans", spans);
    for (layer, ms) in tr.self_ms_by_layer() {
        m.set(format!("trace.self_ms.{layer}"), ms);
    }
}

/// Median wall seconds of `reps` calls of `f`.
pub fn median_wall<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::metrics::median(&walls)
}
