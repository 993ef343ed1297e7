//! The experiment drivers behind every table and figure.
//!
//! Each function reproduces one artifact of the paper's §5 and returns
//! machine-readable rows; the `src/bin/*` binaries render them. Scale
//! knobs (workload sizes, budgets) default to laptop-scale values —
//! shapes, not absolute numbers, are the reproduction target (see
//! EXPERIMENTS.md).

use crate::setup::{userver_load, Coverage, Experiment};
use instrument::{compress, Method, Plan};
use replay::LogStats;
use retrace_core::{AnalysisBundle, LocationRow, Overhead, ReplayRow, Workbench};

/// The six overhead configurations of Figure 4, in presentation order.
pub fn six_configs() -> Vec<(String, Method, Coverage)> {
    vec![
        ("dynamic (lc)".into(), Method::Dynamic, Coverage::Lc),
        ("dynamic (hc)".into(), Method::Dynamic, Coverage::Hc),
        (
            "dynamic+static (lc)".into(),
            Method::DynamicStatic,
            Coverage::Lc,
        ),
        (
            "dynamic+static (hc)".into(),
            Method::DynamicStatic,
            Coverage::Hc,
        ),
        ("static".into(), Method::Static, Coverage::Hc),
        ("all branches".into(), Method::AllBranches, Coverage::Hc),
    ]
}

/// The four configurations of Figures 2 and 5.
pub fn four_configs() -> Vec<(String, Method)> {
    vec![
        ("dynamic".into(), Method::Dynamic),
        ("dynamic+static".into(), Method::DynamicStatic),
        ("static".into(), Method::Static),
        ("all branches".into(), Method::AllBranches),
    ]
}

/// Analyses at both coverage levels for one workbench.
pub struct CoverageBundles {
    /// Low-coverage analysis.
    pub lc: AnalysisBundle,
    /// High-coverage analysis.
    pub hc: AnalysisBundle,
}

/// Runs the dynamic analysis at LC and HC levels.
pub fn analyze_coverages(wb: &Workbench) -> CoverageBundles {
    CoverageBundles {
        lc: wb.analyze(Coverage::Lc.runs()),
        hc: wb.analyze(Coverage::Hc.runs()),
    }
}

fn bundle_for(b: &CoverageBundles, c: Coverage) -> &AnalysisBundle {
    match c {
        Coverage::Lc => &b.lc,
        Coverage::Hc => &b.hc,
    }
}

/// Figure 2 / Figure 5: CPU time of the four configurations, normalized
/// to the uninstrumented run.
pub fn overhead_four(exp: &Experiment, bundles: &CoverageBundles) -> Vec<Overhead> {
    four_configs()
        .into_iter()
        .map(|(name, method)| {
            let plan = exp.wb.plan(method, &bundles.hc);
            exp.wb.overhead(&name, &plan, &exp.parts)
        })
        .collect()
}

/// Figure 4: CPU time and storage of the six configurations.
pub fn overhead_six(exp: &Experiment, bundles: &CoverageBundles) -> Vec<Overhead> {
    six_configs()
        .into_iter()
        .map(|(name, method, cov)| {
            let plan = exp.wb.plan(method, bundle_for(bundles, cov));
            exp.wb.overhead(&name, &plan, &exp.parts)
        })
        .collect()
}

/// Table 2: number of instrumented branch locations per configuration.
pub fn location_table(wb: &Workbench, bundles: &CoverageBundles) -> Vec<LocationRow> {
    let total = wb.cp.n_branches();
    six_configs()
        .into_iter()
        .map(|(name, method, cov)| {
            let plan = wb.plan(method, bundle_for(bundles, cov));
            LocationRow {
                config: name,
                instrumented_locations: plan.n_instrumented(),
                total_locations: total,
            }
        })
        .collect()
}

/// One replay experiment: deploy under `plan`, capture the crash, replay.
///
/// Returns the row plus the logged/unlogged stats (Tables 4/7/8) and the
/// captured report size.
pub fn replay_one(
    exp: &Experiment,
    config: &str,
    experiment_id: usize,
    plan: &Plan,
    max_runs: usize,
) -> (ReplayRow, LogStats, u64) {
    let run = exp.wb.logged_run(plan, &exp.parts);
    let report = run
        .report
        .unwrap_or_else(|| panic!("{}: deployment must crash", exp.name));
    let transfer = report.transfer_bytes();
    let result = exp.wb.replay(plan, &report, max_runs);
    let stats = exp.wb.log_stats(plan, &exp.parts);
    (
        ReplayRow {
            config: config.to_string(),
            experiment: experiment_id,
            reproduced: result.reproduced,
            runs: result.runs,
            total_instrs: result.total_instrs,
            wall_ms: result.wall_ms,
            solver_calls: result.solver_calls,
            syscall_divergences: result.syscall_divergences,
            frontier_restarts: result.frontier.restarts,
            concretization_ranges: result.concretization_ranges,
            concretization_pins: result.concretization_pins,
            repairs: result.frontier.repairs_scheduled,
            repair_cutoffs: result.frontier.repair_cutoffs,
            log_bits: run.log_bits,
            cursor_locations: run.cursor_locations,
            cursor_spend_units: run.cursor_spend_units,
            suppressed_bits: run.suppressed_execs,
            cache_hits: result.cache_hits,
            cache_misses: result.cache_misses,
            prefix_len_saved: result.prefix_len_saved,
        },
        stats,
        transfer,
    )
}

/// One generation of the adaptive instrumentation loop: the plan that
/// was deployed, its deployment-side spend columns and the replay
/// outcome (whose [`replay::EscalationReport`] seeds the next
/// generation).
pub struct AdaptiveGen {
    /// The generation's plan (carries `plan.generation`).
    pub plan: Plan,
    /// Branch-log bits the deployment produced.
    pub log_bits: u64,
    /// Per-location cursor streams (0 under flat logs).
    pub cursor_locations: usize,
    /// Cursor maintenance charge in execution units.
    pub cursor_spend_units: u64,
    /// Suppressed-branch executions (logged for free at replay).
    pub suppressed_execs: u64,
    /// Report wire size shipped to the developer site.
    pub transfer_bytes: u64,
    /// The guided replay outcome.
    pub result: replay::ReplayResult,
}

impl AdaptiveGen {
    /// The standard instr-spend cell for this generation's deployment.
    pub fn spend_cell(&self) -> String {
        retrace_core::metrics::spend_cell(
            self.log_bits,
            self.cursor_locations,
            self.cursor_spend_units,
            self.suppressed_execs,
        )
    }
}

/// Deploys `plan`, captures the crash and replays it under `budget`.
fn adaptive_gen(exp: &Experiment, plan: Plan, budget: usize) -> AdaptiveGen {
    let run = exp.wb.logged_run(&plan, &exp.parts);
    let report = run
        .report
        .unwrap_or_else(|| panic!("{}: deployment must crash", exp.name));
    let transfer_bytes = report.transfer_bytes();
    let result = exp.wb.replay(&plan, &report, budget);
    AdaptiveGen {
        plan,
        log_bits: run.log_bits,
        cursor_locations: run.cursor_locations,
        cursor_spend_units: run.cursor_spend_units,
        suppressed_execs: run.suppressed_execs,
        transfer_bytes,
        result,
    }
}

/// The adaptive escalation loop, two generations end to end: plan under
/// `method`, deploy + replay (gen 1), escalate on the replay's evidence,
/// re-deploy + replay under the escalated plan (gen 2).
///
/// When gen 1's replay reports no escalation evidence the second plan is
/// byte-identical to the first (the no-hint no-op guarantee), so gen 2
/// simply repeats gen 1's deterministic outcome.
pub fn replay_adaptive(
    exp: &Experiment,
    method: Method,
    bundle: &AnalysisBundle,
    budget: usize,
) -> (AdaptiveGen, AdaptiveGen) {
    let plan1 = exp.wb.plan(method, bundle);
    let gen1 = adaptive_gen(exp, plan1, budget);
    let plan2 = exp.wb.escalate_plan(&gen1.plan, &gen1.result.escalation);
    let gen2 = adaptive_gen(exp, plan2, budget);
    (gen1, gen2)
}

/// Compression ratio of a deployment's branch log (the §5.3 gzip note).
pub fn log_compression_ratio(exp: &Experiment, plan: &Plan) -> f64 {
    let run = exp.wb.logged_run(plan, &exp.parts);
    // Reconstruct raw log bytes: logged_run reports bits; use a fresh
    // logged run through the report to get the raw bytes.
    match run.report {
        Some(r) => compress::ratio(&r.trace.wire_bytes()),
        None => {
            // No crash: rebuild the trace from a crashing variant is not
            // possible; approximate using a synthetic all-ones log of the
            // same length.
            let bytes = vec![0xffu8; (run.log_bits as usize).div_ceil(8).max(1)];
            compress::ratio(&bytes)
        }
    }
}

/// A compact analysis summary line (coverage, labels, arena size).
pub fn analysis_summary(name: &str, bundle: &AnalysisBundle) -> String {
    format!(
        "{name}: coverage {:.0}%, {} runs, {} solver calls ({} sat), {} crashes found\n\
         {name} frontier: {}",
        bundle.coverage_pct(),
        bundle.dyn_result.runs,
        bundle.dyn_result.solver_calls,
        bundle.dyn_result.frontier.solved_sat,
        bundle.dyn_result.crashes.len(),
        bundle.dyn_result.frontier.summary(),
    )
}

/// Builds the standard uServer analysis workbench: a small symbolic
/// workload (the paper's "200 bytes of symbolic memory for each accepted
/// connection", scaled) used to label branches for all five scenarios.
pub fn userver_analysis_bench(seed: u64) -> Experiment {
    // Two connections of 48 symbolic bytes each: enough to drive the
    // parser down method/path/header paths within laptop budgets.
    let mut exp = userver_load(2, seed);
    // The explorer policy (breadth-mixed pops, per-branch quotas, drain
    // restarts) is what carries coverage past the ~41% single-run DFS
    // plateau.
    exp.wb.policy = search::SearchPolicy::explorer();
    exp.wb.spec.clients = vec![
        concolic::ClientSpec {
            packet_lens: vec![48],
            close_after: true,
        },
        concolic::ClientSpec {
            packet_lens: vec![48],
            close_after: true,
        },
    ];
    exp
}
