//! A bug report is untrusted input. A per-location stream may name a
//! branch location the program does not have: replay must neither read
//! such a stream nor size any table by its id; the stream still counts
//! toward the log's bit total, so the log is never exhausted and the
//! report never reproduces. A trace may declare more bits than its bytes
//! carry: replay and triage must read it like a truncated one.

use instrument::{BugReport, CursorTrace, Method, TraceLog};
use retrace_bench::fixtures::{userver_analysis, userver_experiment, Knobs, TRIAGE_CORPUS_SEED};
use retrace_bench::setup::Coverage;
use retrace_triage::{deploy_corpus, register_standard_fleet, TriageConfig, TriagePipeline};

/// Replay run budget per report (Table 3's).
const BUDGET: usize = 300;

#[test]
fn stream_at_unknown_location_is_never_read() {
    let abench = userver_analysis(Knobs::default());
    let bundle = abench.wb.analyze(Coverage::Lc.runs());
    let exp = userver_experiment(1, Knobs::default());
    let plan = exp.wb.plan(Method::DynamicStatic, &bundle);
    let mut report = exp
        .wb
        .logged_run(&plan, &exp.parts)
        .report
        .expect("deployment crashes");
    let cursors = report.trace.as_cursors().expect("per-location log");
    assert_eq!(cursors.n_locations(), 35);
    let mut streams: Vec<(u32, Vec<bool>)> = cursors
        .streams()
        .iter()
        .map(|s| {
            let bits = (0..s.bits.len()).map(|i| s.bits.get(i) == Some(true));
            (s.loc, bits.collect())
        })
        .collect();
    streams.push((u32::MAX, vec![true, false]));
    let pairs: Vec<(u32, &[bool])> = streams.iter().map(|(l, b)| (*l, &b[..])).collect();
    report.trace = TraceLog::Cursors(CursorTrace::from_streams(&pairs));

    let res = exp.wb.replay(&plan, &report, BUDGET);
    assert!(
        !res.reproduced,
        "an unreadable stream keeps the log unexhausted"
    );
    assert!(res.exhausted, "the frontier drains inside the budget");
    assert_eq!((res.runs, res.solver_calls), (36, 87));
}

/// Empties the first bit-byte array of a serialized report, keeping the
/// bit count its trace declares.
fn short_bits(report: &BugReport) -> BugReport {
    let json = serde_json::to_string(report).expect("serializes");
    let key = "\"bits\":[";
    let start = json.find(key).expect("a bit array") + key.len();
    let end = start + json[start..].find(']').expect("a closed array");
    let short = format!("{}{}", &json[..start], &json[end..]);
    serde_json::from_str(&short).expect("still a well-formed report")
}

#[test]
fn short_bit_arrays_read_like_truncated_streams() {
    let abench = userver_analysis(Knobs::default());
    let bundle = abench.wb.analyze(Coverage::Lc.runs());
    let exp = userver_experiment(1, Knobs::default());
    let mut per_location = None;
    for method in [Method::Static, Method::DynamicStatic] {
        let plan = exp.wb.plan(method, &bundle);
        let report = exp
            .wb
            .logged_run(&plan, &exp.parts)
            .report
            .expect("deployment crashes");
        let short = short_bits(&report);
        assert_eq!(short.trace.len(), report.trace.len(), "the declared count");
        assert_ne!(short, report, "bytes dropped");
        let res = exp.wb.replay(&plan, &short, BUDGET);
        assert!(res.runs <= BUDGET, "{method:?}: replay ends in budget");
        if method == Method::Static {
            assert!(short.trace.as_flat().is_some(), "the static plan logs flat");
        } else {
            per_location = Some(short);
        }
    }

    // A triage pass over the standard fleet's reports plus the short
    // per-location one ends, and its classes partition the submissions.
    let mut p = TriagePipeline::new(TriageConfig::default());
    register_standard_fleet(&mut p);
    let corpus = workloads::fleet_mixed(workloads::CORPUS_PROGRAMS, 40, TRIAGE_CORPUS_SEED);
    deploy_corpus(&mut p, &corpus);
    let userver = p.binary_id("uServer").expect("registered");
    let short = per_location.expect("a dynamic+static report");
    assert!(short.trace.as_cursors().is_some(), "logged per location");
    p.submit(userver, exp.wb.spec.clone(), exp.wb.kernel.clone(), short);
    let out = p.triage();
    let mut members: Vec<usize> = out.classes.iter().flat_map(|c| c.members.clone()).collect();
    members.sort_unstable();
    let all: Vec<usize> = (0..p.submissions().len()).collect();
    assert_eq!(members, all);
}
