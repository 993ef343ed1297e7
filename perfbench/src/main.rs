//! The retrace benchmark: debugging time, deployment overhead and fleet
//! throughput, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <userver_debug|userver_deploy|fleet_triage>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object carrying every
//! end-to-end metric; with `--trace 1` a traced pass adds spans around
//! each layer call and the line carries every per-layer metric. Progress
//! and failed checks go to stderr.

mod calib;
mod debug;
mod deploy;
mod fleet;
mod metrics;
mod pipeline;
mod trace;

use metrics::{per_layer, result_json, END_TO_END};
use std::path::Path;
use std::process::ExitCode;
use trace::Tracer;

const WORKLOADS: &[&str] = &["userver_debug", "userver_deploy", "fleet_triage"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (have {WORKLOADS:?})"
        ));
    }
    let num = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tr = Tracer::new();
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    let run = match args.workload.as_str() {
        "userver_debug" => pipeline::run::<debug::Debug>(seed, secs, trace, &mut tr),
        "userver_deploy" => pipeline::run::<deploy::Deploy>(seed, secs, trace, &mut tr),
        _ => pipeline::run::<fleet::Fleet>(seed, secs, trace, &mut tr),
    };
    let mut m = run.metrics;
    for f in &run.failures {
        eprintln!("FAILED: {f}");
    }
    let spec: Vec<(String, &str)> = if args.trace {
        let path = Path::new("perfbench/traces").join(format!("{}.jsonl", args.workload));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        let layers = tr.self_ms_by_layer();
        if let Some((top, ms)) = layers
            .iter()
            .filter(|(l, _)| **l != "bench")
            .max_by(|a, b| a.1.total_cmp(b.1))
        {
            eprintln!(
                "top layer by self time: {top} ({ms:.1} ms); spans in {}",
                path.display()
            );
        }
        per_layer()
    } else {
        m.set("peak_rss_mb", metrics::peak_rss_mb());
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let failed = (run.failures.len() as u64).min(run.attempted);
    println!(
        "{}",
        result_json(run.failures.is_empty(), run.attempted, failed, &spec, &m)
    );
    ExitCode::SUCCESS
}
