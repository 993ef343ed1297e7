//! Metric names, units and the result line.

use std::collections::BTreeMap;

/// The end-to-end metrics every untraced run reports, with units. Each
/// workload defines them over its own work (see `perfbench/README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("analysis_s", "s"),
    ("throughput_per_s", "1/s"),
    ("slowdown_x", "x"),
    ("cost_overhead_pct", "%"),
    ("log_bytes_per_req", "B/req"),
    ("verified_frac", "ratio"),
];

/// Report rows of `userver_debug`: (exp id, plan key).
pub const DEBUG_ROWS: &[(usize, &str)] = &[
    (1, "dynamic_static_lc"),
    (1, "static"),
    (2, "dynamic_static_lc"),
    (2, "static"),
    (3, "dynamic_static_lc"),
    (3, "static"),
    (4, "dynamic_static_lc"),
    (4, "static"),
    (5, "dynamic_static_lc"),
    (5, "static"),
];

/// Plan keys of the four `userver_deploy` configurations.
pub const DEPLOY_PLANS: &[&str] = &["dynamic_lc", "dynamic_static_lc", "static", "all_branches"];

/// Fleet binaries, in registration order.
pub const FLEET_PROGRAMS: &[&str] = &["mkdir", "mknod", "mkfifo", "uServer"];

/// Layers whose self time the traced run reports.
pub const LAYERS: &[&str] = &[
    "minic",
    "concolic",
    "staticax",
    "instrument",
    "replay",
    "triage",
];

/// Every per-layer metric a traced run reports, with units. Layers a
/// workload does not exercise report 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str| v.push((n.to_string(), u));
    for (n, u) in [
        ("solver.calls", "count"),
        ("solver.sat_ratio", "ratio"),
        ("solver.cache_hit_ratio", "ratio"),
        ("solver.prefix_lits_saved", "count"),
        ("solver.ms_per_call_est", "ms"),
        ("search.offered", "count"),
        ("search.scheduled", "count"),
        ("search.skipped_duplicate", "count"),
        ("search.popped", "count"),
        ("search.repairs", "count"),
        ("search.restarts", "count"),
        ("search.accept_ratio", "ratio"),
        ("replay.runs", "count"),
        ("replay.instrs", "count"),
        ("replay.host_ns_per_instr", "ns/instr"),
        ("replay.host_share_est", "ratio"),
        ("replay.cursor_overruns", "count"),
        ("replay.checkpoint_divergences", "count"),
        ("concolic.analyze_ms.lc", "ms"),
        ("concolic.analyze_ms.hc", "ms"),
        ("concolic.runs", "count"),
        ("concolic.solver_calls", "count"),
        ("concolic.instrs", "count"),
        ("concolic.arena_nodes", "count"),
        ("concolic.cache_hit_ratio", "ratio"),
        ("concolic.host_ns_per_instr", "ns/instr"),
        ("concolic.host_share_est", "ratio"),
        ("staticax.analyze_ms", "ms"),
        ("staticax.literal_clusters_ms", "ms"),
        ("minic.base_run_ms", "ms"),
        ("minic.minstr_per_s", "Minstr/s"),
        ("minic.compile_ms", "ms"),
        ("instrument.ns_per_logged_exec", "ns"),
        ("instrument.log_bits", "count"),
        ("instrument.plan_us", "us"),
        ("instrument.escalate_us", "us"),
        ("instrument.compress_ms", "ms"),
        ("instrument.compress_ratio", "x"),
        ("instrument.report_bytes", "B"),
        ("triage.prepare_ms", "ms"),
        ("triage.triage_ms", "ms"),
        ("triage.class_replay_ms", "ms"),
        ("triage.reports", "count"),
        ("triage.classes", "count"),
        ("triage.dedup_x", "x"),
        ("trace.overhead_pct", "%"),
        ("trace.overhead_est_pct", "%"),
        ("trace.span_cost_ns", "ns"),
        ("trace.spans", "count"),
    ] {
        add(n, u);
    }
    for (exp, plan) in DEBUG_ROWS {
        add(&format!("replay.ms.exp{exp}.{plan}"), "ms");
        add(&format!("replay.host_share_est.exp{exp}.{plan}"), "ratio");
        add(&format!("solver.ms_per_call_est.exp{exp}.{plan}"), "ms");
    }
    for plan in DEPLOY_PLANS {
        add(&format!("instrument.logged_run_ms.{plan}"), "ms");
    }
    for prog in FLEET_PROGRAMS {
        add(&format!("triage.us_per_deployment.{prog}"), "us");
    }
    for layer in LAYERS {
        add(&format!("trace.self_ms.{layer}"), "ms");
    }
    v
}

/// Named metric values of one run.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
/// over the metrics in `spec` (name, unit), absent ones as 0.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    spec: &[(String, &str)],
    m: &Metrics,
) -> String {
    let body: Vec<String> = spec
        .iter()
        .map(|(name, unit)| {
            let v = m.get(name);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
