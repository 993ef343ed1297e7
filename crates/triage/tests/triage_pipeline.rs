//! End-to-end pipeline suites: report serde, clustering determinism
//! across worker counts, witness conformance, escalation, and the
//! amortization ledger.

use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use retrace_core::metrics::TriageRow;
use retrace_triage::{
    deploy_corpus, register_standard_fleet, report_digest, TriageConfig, TriageOutcome,
    TriagePipeline,
};
use workloads::corpus::{fleet_mixed, mixed, CorpusLabel};
use workloads::CORPUS_PROGRAMS;

fn pipeline_at(workers: usize) -> TriagePipeline {
    let mut p = TriagePipeline::new(TriageConfig {
        workers,
        ..TriageConfig::default()
    });
    register_standard_fleet(&mut p);
    p
}

/// Rows with the machine-dependent wall field masked.
fn masked_rows(out: &TriageOutcome) -> Vec<TriageRow> {
    out.rows()
        .into_iter()
        .map(|mut r| {
            r.wall_ms = 0;
            r
        })
        .collect()
}

/// A shipped report must survive the serde round trip bit-exactly: the
/// developer side clusters by digest, so any drift in crash, trace or
/// syscall records would silently fork classes.
#[test]
fn bug_report_serde_round_trip() {
    let mut p = pipeline_at(1);
    let corpus = mixed("mkdir", 8, 7);
    deploy_corpus(&mut p, &corpus);
    let subs = p.submissions();
    assert!(!subs.is_empty(), "mkdir corpus files reports");
    for sub in subs {
        let json = serde_json::to_string(&sub.report).expect("serializable");
        let back: instrument::BugReport = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.crash, sub.report.crash);
        assert_eq!(back.trace, sub.report.trace);
        assert_eq!(back.syscalls.records, sub.report.syscalls.records);
        assert_eq!(back.method, sub.report.method);
        assert_eq!(back.cursor_spend_units, sub.report.cursor_spend_units);
        assert_eq!(report_digest(&back), report_digest(&sub.report));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    /// Same corpus + seed ⇒ identical class partition, identical
    /// representative choice and identical deterministic rows at
    /// workers 1 and 4 (the outer dispatch must be as worker-count
    /// invariant as the engines it fans out).
    #[test]
    fn clustering_is_deterministic_across_worker_counts(seed in 0u64..1000) {
        let corpus = fleet_mixed(CORPUS_PROGRAMS, 40, seed);
        let mut serial = pipeline_at(1);
        let mut wide = pipeline_at(4);
        prop_assert_eq!(
            deploy_corpus(&mut serial, &corpus),
            deploy_corpus(&mut wide, &corpus)
        );
        let a = serial.triage();
        let b = wide.triage();
        prop_assert_eq!(a.classes.len(), b.classes.len());
        for (ca, cb) in a.classes.iter().zip(b.classes.iter()) {
            prop_assert_eq!(&ca.key, &cb.key);
            prop_assert_eq!(ca.digest, cb.digest);
            prop_assert_eq!(ca.representative, cb.representative);
            prop_assert_eq!(&ca.members, &cb.members);
            prop_assert_eq!(ca.escalated, cb.escalated);
        }
        let (ra, rb) = (masked_rows(&a), masked_rows(&b));
        for (x, y) in ra.iter().zip(rb.iter()) {
            prop_assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        // The partition covers every report exactly once.
        let covered: usize = a.classes.iter().map(|c| c.members.len()).sum();
        prop_assert_eq!(covered, a.ledger.reports);
        prop_assert!(a.ledger.reports >= a.classes.len());
    }
}

/// Every member of a class conformance-checks against the
/// representative's witness: the witness re-deployment produces a
/// report whose digest equals each member's (not just the class's
/// stored digest).
#[test]
fn members_conform_to_representative_witness() {
    let mut p = pipeline_at(1);
    let corpus = fleet_mixed(CORPUS_PROGRAMS, 60, 42);
    let filed = deploy_corpus(&mut p, &corpus);
    let expected = corpus
        .iter()
        .filter(|e| e.label == CorpusLabel::CrashExpected)
        .count();
    assert_eq!(filed, expected, "ground-truth labels match crash behavior");
    let out = p.triage();
    assert_eq!(
        out.ledger.conformant, out.ledger.reports,
        "every member verified by conformance"
    );
    let multi = out
        .classes
        .iter()
        .find(|c| c.members.len() >= 2)
        .expect("a multi-member class exists");
    assert!(multi.row.reproduced);
    // Replay the representative again by hand (deterministic) and
    // check the witness against each member individually.
    let sub = &p.submissions()[multi.representative];
    let fb = p.binary(sub.binary);
    let bundle = fb.analysis_workbench().analyze(fb.analysis_runs);
    let plan = fb.wb.plan(fb.method, &bundle);
    let res = fb.wb.replay_with(
        &plan,
        &sub.report,
        &sub.spec,
        p.cfg.replay_budget,
        retrace_core::mix_seed(p.cfg.seed, multi.row.class as u64),
    );
    assert!(res.reproduced);
    let witness = res.witness_assignment.expect("witness on reproduction");
    let rerun = fb
        .wb
        .logged_run_assignment(&plan, &sub.spec, &sub.kernel, &witness)
        .report
        .expect("witness crashes again");
    let rerun_digest = report_digest(&rerun);
    for &m in &multi.members {
        assert_eq!(
            report_digest(&p.submissions()[m].report),
            rerun_digest,
            "member {m} conforms to the re-deployed witness"
        );
    }
}

/// With the trace prefix collapsed to zero bits, reports with the same
/// crash site fall into one bucket; the full digest then escalates the
/// distinct variants into their own classes instead of merging them.
#[test]
fn digest_mismatch_in_bucket_escalates() {
    let mut p = TriagePipeline::new(TriageConfig {
        prefix_bits: 0,
        ..TriageConfig::default()
    });
    register_standard_fleet(&mut p);
    // mkdir has three crash-variant pools, all crashing at the same
    // site — identical crash digest and (at 0 bits) identical prefix.
    deploy_corpus(&mut p, &mixed("mkdir", 60, 11));
    let out = p.triage();
    assert!(
        out.classes.len() >= 2,
        "variant pools stay distinct classes"
    );
    assert_eq!(
        out.ledger.escalations,
        out.classes.len() - 1,
        "all but the bucket's first class escalated"
    );
    assert!(out.classes.iter().skip(1).all(|c| c.escalated));
    for c in &out.classes {
        assert!(c.row.reproduced, "escalated classes still replay");
    }
    // The wider default prefix separates the same corpus up front.
    let mut wide = pipeline_at(1);
    deploy_corpus(&mut wide, &mixed("mkdir", 60, 11));
    let wide_out = wide.triage();
    assert_eq!(wide_out.classes.len(), out.classes.len());
    assert_eq!(wide_out.ledger.escalations, 0);
}

/// The amortization ledger: batched triage pays exactly one analysis
/// pass per distinct binary; the naive baseline pays one per report.
#[test]
fn analysis_is_amortized_once_per_binary() {
    let mut p = pipeline_at(1);
    let corpus = fleet_mixed(CORPUS_PROGRAMS, 50, 3);
    deploy_corpus(&mut p, &corpus);
    let out = p.triage();
    assert_eq!(out.ledger.distinct_binaries(), CORPUS_PROGRAMS.len());
    assert_eq!(
        out.ledger.analyses,
        out.ledger.distinct_binaries(),
        "one analysis per binary, regardless of report count"
    );
    assert_eq!(out.ledger.replays, out.classes.len());
    assert!(out.ledger.reports > out.ledger.analyses * 2);
    // Naive: every processed report pays its own analysis.
    let naive = p.naive_triage(Some(5));
    assert_eq!(naive.reports, 5);
    assert_eq!(naive.analyses, 5);
    assert_eq!(naive.reproduced, 5, "naive replays reproduce too");
}
