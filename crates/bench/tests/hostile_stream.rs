//! A bug report is untrusted input: a per-location stream may name a
//! branch location the program does not have. Replay must neither read
//! such a stream nor size any table by its id; the stream still counts
//! toward the log's bit total, so the log is never exhausted and the
//! report never reproduces.

use instrument::{CursorTrace, Method, TraceLog};
use retrace_bench::fixtures::{userver_analysis, userver_experiment, Knobs};
use retrace_bench::setup::Coverage;

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
