//! `replay` — bug reproduction from partial branch logs (paper §3).
//!
//! The developer-site half of the system: given the retained
//! instrumentation [`Plan`](instrument::Plan) and a shipped
//! [`BugReport`](instrument::BugReport), the [`ReplayEngine`] drives a
//! modified concolic engine whose runs are *guided* by the recorded
//! bitvector. Non-deterministic syscalls replay from the report's syscall
//! log when present, or from symbolic models (§3.3) when not.
//!
//! Reproduction = finding an input that drives execution to the recorded
//! crash site along a path consistent with the log.
//!
//! # Run tracing (`RETRACE_REPLAY_TRACE`)
//!
//! Set the `RETRACE_REPLAY_TRACE` environment variable (any value) to
//! make [`ReplayEngine::reproduce`] print one diagnostic line per
//! committed run to stderr: the outcome, bits consumed, logged/unlogged symbolic
//! execution counts, path length, the divergent branch (if any), the
//! per-location cursor positions (empty for flat logs — the `bits`
//! count is the flat position), and the candidate connection payloads.
//! Repair-ladder offers are traced too. This is the first tool to reach
//! for when a replay row goes ∞: a misalignment hunt starts by looking
//! at which location's cursor stopped advancing.
//!
//! ```text
//! RETRACE_REPLAY_TRACE=1 cargo run --release -p retrace-bench \
//!     --bin table3_userver_replay 2>trace.log
//! ```

pub mod engine;
pub mod env;
pub mod host;
pub mod reader;
pub mod stats;

pub use concolic::{realize_streams, Streams};
pub use engine::{ReplayConfig, ReplayEngine, ReplayResult};
pub use env::{ReplayEnv, SyscallMode};
pub use host::{
    ReplayHost, ReplayRunStats, BRANCH_DIVERGENCE, CHECKPOINT_DIVERGENCE, CURSOR_OVERRUN,
    IMPLICATION_VIOLATION, REACHED_CRASH_SITE,
};
pub use reader::{LogIndex, LogReader};
pub use stats::{assignment_from_input, InputParts, LogStats};

#[cfg(test)]
mod e2e {
    //! End-to-end record→ship→replay tests over small programs.

    use crate::engine::{ReplayConfig, ReplayEngine};
    use crate::env::{ReplayEnv, SyscallMode};
    use crate::host::ReplayHost;
    use crate::reader::LogIndex;
    use crate::stats::{assignment_from_input, InputParts};
    use concolic::{
        mark_argv_symbolic, realize, realize_streams, Concretization, Engine, InputSpec, InputVars,
        PathStep, SessionConfig,
    };
    use instrument::{BranchTrace, BugReport, DynLabel, LoggingHost, Method, Plan, TraceLog};
    use minic::vm::Vm;
    use minic::{build, CompiledProgram};
    use oskit::{Kernel, KernelConfig, SimFs};
    use proptest::prelude::*;
    use solver::ExprArena;

    /// Full pipeline: analyze → plan → deploy on `true_parts` → capture
    /// the crash → replay.
    fn record_and_replay(
        src: &str,
        spec: InputSpec,
        true_parts: InputParts,
        method: Method,
        log_syscalls: bool,
        analysis_runs: usize,
        replay_runs: usize,
    ) -> (CompiledProgram, BugReport, crate::ReplayResult) {
        let cp = build(&[("main", src)]).unwrap();

        // Dynamic analysis.
        let mut scfg = SessionConfig::new(spec.clone());
        scfg.budget.max_runs = analysis_runs;
        let analysis = Engine::new(&cp, scfg).analyze();
        let dyn_labels: Vec<DynLabel> = analysis.labels.iter().map(|(_, l)| l).collect();

        // Static analysis.
        let sres = staticax::analyze(&cp, &staticax::StaticConfig::default());

        // Plan.
        let mut plan = Plan::build(method, &dyn_labels, sres.symbolic(), cp.n_branches());
        plan.log_syscalls = log_syscalls;

        // Deployment run on the true input.
        let mut arena = ExprArena::new();
        let vars = InputVars::alloc(&mut arena, &spec);
        let assignment = assignment_from_input(&spec, &true_parts);
        let (argv, kcfg) = realize(&spec, &vars, &assignment, &KernelConfig::default());
        let host = LoggingHost::new(Kernel::new(kcfg), plan.clone());
        let mut vm = Vm::new(&cp, host);
        let outcome = vm.run(&argv);
        let crash = outcome.crash().expect("deployment run must crash").clone();
        let report = BugReport::capture(vm.host, crash);

        // Replay at the developer site.
        let mut rcfg = ReplayConfig::new(spec);
        rcfg.budget.max_runs = replay_runs;
        let result = ReplayEngine::new(&cp, plan, report.clone(), rcfg).reproduce();
        (cp, report, result)
    }

    const GUARDED_CRASH: &str = r#"
        int main(int argc, char **argv) {
            char *s = argv[1];
            if (s[0] == 'c') {
                if (s[1] == 'r') {
                    if (s[2] == '8') {
                        int *p = 0;
                        return *p;
                    }
                }
            }
            return 0;
        }
    "#;

    fn guarded_spec() -> InputSpec {
        InputSpec::argv_symbolic("prog", 1, 3)
    }

    fn guarded_parts() -> InputParts {
        InputParts {
            argv_sym: vec![b"cr8".to_vec()],
            ..InputParts::default()
        }
    }

    #[test]
    fn all_branches_reproduces_in_few_runs() {
        let (_, report, res) = record_and_replay(
            GUARDED_CRASH,
            guarded_spec(),
            guarded_parts(),
            Method::AllBranches,
            true,
            16,
            64,
        );
        assert!(res.reproduced, "all-branches replay must succeed: {res:?}");
        assert!(report.trace.len() >= 3, "three guards were logged");
        // The witness must re-derive the magic input.
        let w = res.witness_argv.as_ref().expect("witness");
        assert_eq!(&w[1][..3], b"cr8");
        // With a complete log the search needs very few runs.
        assert!(
            res.runs <= 8,
            "full log keeps search short, took {}",
            res.runs
        );
    }

    #[test]
    fn static_method_reproduces() {
        let (_, _, res) = record_and_replay(
            GUARDED_CRASH,
            guarded_spec(),
            guarded_parts(),
            Method::Static,
            true,
            16,
            64,
        );
        assert!(res.reproduced);
        assert_eq!(&res.witness_argv.unwrap()[1][..3], b"cr8");
    }

    /// Retest-shaped program: the inner `if (c == 'c')` is implied by
    /// the outer one, so the static pass lets the plan suppress its
    /// log bit and replay reconstructs it.
    const RETEST_CRASH: &str = r#"
        int main(int argc, char **argv) {
            char *s = argv[1];
            int c = s[0];
            if (c == 'c') {
                if (c == 'c') {
                    if (s[1] == '8') {
                        int *p = 0;
                        return *p;
                    }
                }
            }
            return 0;
        }
    "#;

    #[test]
    fn suppressed_plan_reconstructs_bits_and_reproduces() {
        let cp = build(&[("main", RETEST_CRASH)]).unwrap();
        let spec = InputSpec::argv_symbolic("prog", 1, 2);
        let true_parts = InputParts {
            argv_sym: vec![b"c8".to_vec()],
            ..InputParts::default()
        };

        let sres = staticax::analyze(&cp, &staticax::StaticConfig::default());
        assert_eq!(sres.implications.n_implied(), 1, "inner retest is implied");
        let dyn_labels = vec![DynLabel::Unvisited; cp.n_branches()];
        let full = Plan::build(
            Method::Static,
            &dyn_labels,
            sres.symbolic(),
            cp.n_branches(),
        );
        let sup_plan = full.clone().suppress(sres.implications.iter());
        assert_eq!(sup_plan.n_suppressed(), 1);

        // Deploy both plans on the true crashing input.
        let mut arena = ExprArena::new();
        let vars = InputVars::alloc(&mut arena, &spec);
        let assignment = assignment_from_input(&spec, &true_parts);
        let (argv, kcfg) = realize(&spec, &vars, &assignment, &KernelConfig::default());
        let deploy = |plan: &Plan| {
            let host = LoggingHost::new(Kernel::new(kcfg.clone()), plan.clone());
            let mut vm = Vm::new(&cp, host);
            let outcome = vm.run(&argv);
            let crash = outcome.crash().expect("true input crashes").clone();
            (vm.host.suppressed_execs, BugReport::capture(vm.host, crash))
        };
        let (full_sup_execs, full_report) = deploy(&full);
        let (sup_execs, sup_report) = deploy(&sup_plan);
        assert_eq!(full_sup_execs, 0, "the full plan suppresses nothing");
        assert_eq!(sup_execs, 1, "the retest executed once, unlogged");
        assert_eq!(
            full_report.trace.len(),
            sup_report.trace.len() + 1,
            "exactly the suppressed bit left the shipped log"
        );

        // Replay both: identical search behavior, and the suppressed
        // run reconstructs the missing bit instead of consuming one.
        let mut rcfg = ReplayConfig::new(spec);
        rcfg.budget.max_runs = 64;
        let res_full = ReplayEngine::new(&cp, full, full_report, rcfg.clone()).reproduce();
        let res_sup = ReplayEngine::new(&cp, sup_plan, sup_report, rcfg).reproduce();
        assert!(res_full.reproduced && res_sup.reproduced);
        assert_eq!(res_full.runs, res_sup.runs, "suppression is search-neutral");
        assert_eq!(&res_sup.witness_argv.unwrap()[1][..2], b"c8");
        assert!(
            res_sup.last_run_stats.reconstructed_bits >= 1,
            "the winning run reconstructed the suppressed bit: {:?}",
            res_sup.last_run_stats
        );
        assert!(!res_sup.last_run_stats.implication_violation);
        assert_eq!(res_full.last_run_stats.reconstructed_bits, 0);
    }

    #[test]
    fn dynamic_method_reproduces_when_coverage_is_good() {
        let (_, _, res) = record_and_replay(
            GUARDED_CRASH,
            guarded_spec(),
            guarded_parts(),
            Method::Dynamic,
            true,
            64, // enough exploration to label all three guards
            64,
        );
        assert!(res.reproduced);
    }

    #[test]
    fn combined_method_reproduces() {
        let (_, _, res) = record_and_replay(
            GUARDED_CRASH,
            guarded_spec(),
            guarded_parts(),
            Method::DynamicStatic,
            true,
            8, // poor dynamic coverage: static fills the gaps
            64,
        );
        assert!(res.reproduced);
    }

    #[test]
    fn witness_input_actually_crashes_the_program() {
        let (cp, report, res) = record_and_replay(
            GUARDED_CRASH,
            guarded_spec(),
            guarded_parts(),
            Method::AllBranches,
            true,
            16,
            64,
        );
        let witness = res.witness_argv.expect("witness");
        // Run the witness concretely through a fresh kernel.
        let host = oskit::OsHost::new(Kernel::new(KernelConfig::default()));
        let mut vm = Vm::new(&cp, host);
        let out = vm.run(&witness);
        let crash = out.crash().expect("witness input crashes");
        assert_eq!(crash.loc, report.crash.loc);
        assert_eq!(crash.kind, report.crash.kind);
    }

    #[test]
    fn uninstrumented_replay_times_out_on_search_explosion() {
        // A 6-byte exact match. With NO logging at all, blind search
        // within a tiny budget must fail — the paper's "an approach that
        // does not instrument the code at all would result in even longer
        // bug reproduction times".
        let src = r#"
            int main(int argc, char **argv) {
                char *s = argv[1];
                int i = 0;
                int ok = 1;
                while (i < 6) {
                    if (s[i] != "secret"[i]) { ok = 0; }
                    i++;
                }
                if (ok) {
                    int *p = 0;
                    return *p;
                }
                return 0;
            }
        "#;
        let spec = InputSpec::argv_symbolic("prog", 1, 6);
        let parts = InputParts {
            argv_sym: vec![b"secret".to_vec()],
            ..InputParts::default()
        };
        let cp = build(&[("main", src)]).unwrap();
        let plan = Plan::none(cp.n_branches());
        // Deployment.
        let mut arena = ExprArena::new();
        let vars = InputVars::alloc(&mut arena, &spec);
        let assignment = assignment_from_input(&spec, &parts);
        let (argv, kcfg) = realize(&spec, &vars, &assignment, &KernelConfig::default());
        let host = LoggingHost::new(Kernel::new(kcfg), plan.clone());
        let mut vm = Vm::new(&cp, host);
        let crash = vm.run(&argv).crash().expect("crash").clone();
        let report = BugReport::capture(vm.host, crash);
        assert_eq!(report.trace.len(), 0, "nothing was logged");
        // Replay with a small budget: must fail. (The solver *can* crack
        // this via inversion given enough runs; the point here is that
        // zero logging gives a search problem instead of a lookup.)
        let mut rcfg = ReplayConfig::new(spec);
        rcfg.budget.max_runs = 3;
        let res = ReplayEngine::new(&cp, plan, report, rcfg).reproduce();
        assert!(!res.reproduced);
        assert!(res.timed_out);
    }

    #[test]
    fn syscall_logging_pins_read_results() {
        // The program branches on how many bytes read() returned; with
        // syscall logging the replay knows the count exactly.
        let src = r#"
            int main(int argc, char **argv) {
                char buf[16];
                int fd = sys_open("/data", 0);
                int n = sys_read(fd, buf, 16);
                if (n == 5) {
                    if (buf[0] == 'k') {
                        int *p = 0;
                        return *p;
                    }
                }
                return 0;
            }
        "#;
        let spec = InputSpec {
            argv: vec![concolic::ArgSpec::Fixed(b"prog".to_vec())],
            files: vec![concolic::FileSpec {
                path: "/data".into(),
                len: 5,
            }],
            ..InputSpec::default()
        };
        let parts = InputParts {
            files: vec![b"kxyzw".to_vec()],
            ..InputParts::default()
        };
        for log_syscalls in [true, false] {
            let (_, report, res) = record_and_replay(
                src,
                spec.clone(),
                parts.clone(),
                Method::AllBranches,
                log_syscalls,
                8,
                128,
            );
            if log_syscalls {
                assert!(!report.syscalls.is_empty(), "read was logged");
            } else {
                assert!(report.syscalls.is_empty());
            }
            assert!(res.reproduced, "log_syscalls={log_syscalls} must reproduce");
            assert!(res.witness_argv.is_some());
        }
    }

    #[test]
    fn syscall_divergence_recovery_reproduces() {
        // The syscall ORDER depends on an unlogged symbolic branch: the
        // first candidate takes the wrong side, issues the wrong syscall,
        // and diverges from the syscall log before any branch log can
        // catch it. The recovery set (path so far with the most recent
        // unlogged decision flipped, on the priority lane) lets the log
        // keep guiding — previously a syscall mismatch was a dead run.
        let src = r#"
            int main(int argc, char **argv) {
                char buf[4];
                if (argv[1][0] == 'k') {
                    int fd = sys_open("/cfg", 0);
                    sys_read(fd, buf, 4);
                    sys_close(fd);
                } else {
                    sys_time();
                }
                if (argv[1][1] == 'z') {
                    int *p = 0;
                    return *p;
                }
                return 0;
            }
        "#;
        let cp = build(&[("main", src)]).unwrap();
        let spec = InputSpec::argv_symbolic("prog", 1, 2);
        // No branch instrumented, syscall results logged.
        let mut plan = Plan::none(cp.n_branches());
        plan.log_syscalls = true;
        // Deployment: /cfg exists at the user site.
        let mut kcfg = KernelConfig::default();
        kcfg.fs.install_file("/cfg", b"abcd".to_vec());
        let mut arena = ExprArena::new();
        let vars = InputVars::alloc(&mut arena, &spec);
        let parts = InputParts {
            argv_sym: vec![b"kz".to_vec()],
            ..InputParts::default()
        };
        let assignment = assignment_from_input(&spec, &parts);
        let (argv, kcfg) = realize(&spec, &vars, &assignment, &kcfg);
        let host = LoggingHost::new(Kernel::new(kcfg.clone()), plan.clone());
        let mut vm = Vm::new(&cp, host);
        let crash = vm.run(&argv).crash().expect("kz crashes").clone();
        let report = BugReport::capture(vm.host, crash);
        assert!(
            !report.syscalls.is_empty(),
            "the read on the true path was logged"
        );
        assert_eq!(report.trace.len(), 0, "no branch was instrumented");

        for policy in [
            search::SearchPolicy::default(),
            search::SearchPolicy::explorer(),
        ] {
            let mut rcfg = ReplayConfig::new(spec.clone());
            rcfg.base_fs = kcfg.fs.clone();
            rcfg.budget.max_runs = 64;
            rcfg.budget.policy = policy.clone();
            let res = ReplayEngine::new(&cp, plan.clone(), report.clone(), rcfg).reproduce();
            assert!(
                res.syscall_divergences >= 1,
                "{policy:?}: reproduction must survive a syscall mismatch"
            );
            assert!(
                res.frontier.recovery_sets >= 1,
                "{policy:?}: the guided recovery set was queued"
            );
            assert!(res.reproduced, "{policy:?}: replay failed: {res:?}");
            assert_eq!(&res.witness_argv.unwrap()[1][..2], b"kz");
        }
    }

    #[test]
    fn recovery_suspect_skips_logged_branches() {
        // A LOGGED symbolic branch executes between the unlogged suspect
        // and the divergent syscall. The recovery set must flip the
        // unlogged decision, not the logged one (which already agreed
        // with the recorded bit — negating it would only buy a 2(b)
        // abort at that spot).
        let src = r#"
            int main(int argc, char **argv) {
                char buf[4];
                int mode = 0;
                if (argv[1][0] == 'k') { mode = 1; }
                if (argv[1][2] == 'x') { mode = mode + 0; }
                if (mode == 1) {
                    int fd = sys_open("/cfg", 0);
                    sys_read(fd, buf, 4);
                    sys_close(fd);
                } else {
                    sys_time();
                }
                if (argv[1][1] == 'z') {
                    int *p = 0;
                    return *p;
                }
                return 0;
            }
        "#;
        let cp = build(&[("main", src)]).unwrap();
        let spec = InputSpec::argv_symbolic("prog", 1, 3);
        // Cover ONLY the (argv[1][2] == 'x') branch (source order: id 1).
        let mut instrumented = vec![false; cp.n_branches()];
        instrumented[1] = true;
        let plan = Plan {
            method: Method::Dynamic,
            instrumented,
            log_syscalls: true,
            ..Plan::none(0)
        };
        let mut kcfg = KernelConfig::default();
        kcfg.fs.install_file("/cfg", b"abcd".to_vec());
        let mut arena = ExprArena::new();
        let vars = InputVars::alloc(&mut arena, &spec);
        let parts = InputParts {
            argv_sym: vec![b"kzq".to_vec()],
            ..InputParts::default()
        };
        let assignment = assignment_from_input(&spec, &parts);
        let (argv, kcfg) = realize(&spec, &vars, &assignment, &kcfg);
        let host = LoggingHost::new(Kernel::new(kcfg.clone()), plan.clone());
        let mut vm = Vm::new(&cp, host);
        let crash = vm.run(&argv).crash().expect("kzq crashes").clone();
        let report = BugReport::capture(vm.host, crash);
        assert_eq!(report.trace.len(), 1, "one logged branch execution");

        let mut rcfg = ReplayConfig::new(spec);
        rcfg.base_fs = kcfg.fs.clone();
        rcfg.budget.max_runs = 16;
        let res = ReplayEngine::new(&cp, plan, report, rcfg).reproduce();
        assert!(
            res.syscall_divergences >= 1,
            "the first candidate must diverge at the syscall: {res:?}"
        );
        assert!(
            res.frontier.recovery_sets >= 1,
            "recovery set queued despite the deeper logged step"
        );
        assert!(
            res.reproduced,
            "flipping the unlogged suspect must recover within a tight \
             budget: {res:?}"
        );
        assert_eq!(&res.witness_argv.unwrap()[1][..2], b"kz");
    }

    #[test]
    fn earliest_suspect_repair_converges_where_deepest_first_thrashed() {
        // The combined-plan pathology in miniature: an early UNLOGGED
        // symbolic branch (s[0] == 'Q') decides which way a later LOGGED
        // branch on the SAME condition must go. The first candidate takes
        // the early branch the wrong way; at the logged twin the recorded
        // bit forces the opposite direction, so every 2(b) forced set
        // carries `!(s0=='Q') && (s0=='Q')` — UNSAT. A long unlogged
        // byte-scan loop sits between the two, so the deepest-first
        // standard sets negate loop bytes long before the early branch:
        // at the default caps the search thrashes without repair, and
        // converges once the earliest-unlogged-suspect repair flips the
        // corrupted decision.
        let src = r#"
            int main(int argc, char **argv) {
                char *s = argv[1];
                int flag = 0;
                if (s[0] == 'Q') { flag = 1; }
                int acc = 0;
                for (int i = 1; i < 40; i++) {
                    if (s[i] > 'a') { acc++; }
                }
                if (s[0] == 'Q') {
                    int *p = 0;
                    return *p;
                }
                return acc;
            }
        "#;
        let cp = build(&[("main", src)]).unwrap();
        let spec = InputSpec::argv_symbolic("prog", 1, 40);
        // Log ONLY the second s[0]=='Q' branch (source order: branch 0 is
        // the first if, 1 the for condition, 2 the loop-body if, 3 the
        // crash guard).
        let mut instrumented = vec![false; cp.n_branches()];
        instrumented[3] = true;
        let plan = Plan {
            method: Method::Dynamic,
            instrumented,
            log_syscalls: true,
            ..Plan::none(0)
        };
        let mut true_input = vec![b'b'; 40];
        true_input[0] = b'Q';
        let parts = InputParts {
            argv_sym: vec![true_input],
            ..InputParts::default()
        };
        let mut arena = ExprArena::new();
        let vars = InputVars::alloc(&mut arena, &spec);
        let assignment = assignment_from_input(&spec, &parts);
        let (argv, kcfg) = realize(&spec, &vars, &assignment, &KernelConfig::default());
        let host = LoggingHost::new(Kernel::new(kcfg), plan.clone());
        let mut vm = Vm::new(&cp, host);
        let crash = vm.run(&argv).crash().expect("Q... crashes").clone();
        let report = BugReport::capture(vm.host, crash);
        assert_eq!(report.trace.len(), 1, "one logged branch execution");

        let mut rcfg = ReplayConfig::new(spec);
        rcfg.budget.max_runs = 48;
        let repaired = ReplayEngine::new(&cp, plan, report, rcfg).reproduce();
        assert!(
            repaired.reproduced,
            "earliest-suspect repair must converge: {:?}",
            (repaired.runs, &repaired.frontier),
        );
        assert!(
            repaired.frontier.forced_unsat >= u64::from(search::REPAIR_UNSAT_BURST),
            "forced sets went UNSAT in a burst: {:?}",
            repaired.frontier,
        );
        assert!(
            repaired.frontier.repairs_scheduled >= 1,
            "the repair lane did the work: {:?}",
            repaired.frontier,
        );
        assert_eq!(&repaired.witness_argv.unwrap()[1][..1], b"Q");
    }

    /// Record `src` on `parts` under a fully-instrumented plan in the
    /// given log format, then replay. Returns (report, result).
    fn record_replay_full(
        src: &str,
        spec: &InputSpec,
        parts: &InputParts,
        format: instrument::LogFormat,
        replay_runs: usize,
    ) -> (BugReport, crate::ReplayResult) {
        let cp = build(&[("main", src)]).unwrap();
        let plan = Plan::build(
            Method::AllBranches,
            &vec![DynLabel::Unvisited; cp.n_branches()],
            &vec![false; cp.n_branches()],
            cp.n_branches(),
        )
        .with_format(format);
        let mut arena = ExprArena::new();
        let vars = InputVars::alloc(&mut arena, spec);
        let assignment = assignment_from_input(spec, parts);
        let (argv, kcfg) = realize(spec, &vars, &assignment, &KernelConfig::default());
        let host = LoggingHost::new(Kernel::new(kcfg), plan.clone());
        let mut vm = Vm::new(&cp, host);
        let crash = vm.run(&argv).crash().expect("deployment crashes").clone();
        let report = BugReport::capture(vm.host, crash);
        let mut rcfg = ReplayConfig::new(spec.clone());
        rcfg.budget.max_runs = replay_runs;
        let res = ReplayEngine::new(&cp, plan, report.clone(), rcfg).reproduce();
        (report, res)
    }

    #[test]
    fn fully_logged_replay_is_bit_identical_flat_vs_cursors() {
        // A fully-instrumented plan leaves no unlogged symbolic branch,
        // so the two formats record the same directions and must guide
        // the search identically: same run count, same solver calls,
        // same witness.
        let spec = guarded_spec();
        let parts = guarded_parts();
        let (flat_rep, flat) = record_replay_full(
            GUARDED_CRASH,
            &spec,
            &parts,
            instrument::LogFormat::Flat,
            64,
        );
        let (cur_rep, cur) = record_replay_full(
            GUARDED_CRASH,
            &spec,
            &parts,
            instrument::LogFormat::PerLocation,
            64,
        );
        assert_eq!(flat_rep.trace.len(), cur_rep.trace.len());
        assert!(flat.reproduced && cur.reproduced);
        assert_eq!(flat.runs, cur.runs);
        assert_eq!(flat.solver_calls, cur.solver_calls);
        assert_eq!(flat.witness_argv, cur.witness_argv);
        assert_eq!(
            flat.last_run_stats.bits_consumed,
            cur.last_run_stats.bits_consumed
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]
        // Any fully-logged program replays bit-identically under flat
        // vs. per-location cursor logs: with every branch instrumented
        // there is nothing for misalignment to exploit, so the formats
        // must be behaviorally indistinguishable end to end.
        #[test]
        fn fully_logged_formats_replay_identically(
            magic in proptest::collection::vec(0x21u8..0x7f, 2..4),
        ) {
            let src = format!(
                r#"
                int main(int argc, char **argv) {{
                    char *s = argv[1];
                    int ok = 1;
                    for (int i = 0; i < {n}; i++) {{
                        if (s[i] != "{lit}"[i]) {{ ok = 0; }}
                    }}
                    if (ok) {{ int *p = 0; return *p; }}
                    return 0;
                }}
                "#,
                n = magic.len(),
                lit = magic.iter().map(|b| *b as char).collect::<String>(),
            );
            let spec = InputSpec::argv_symbolic("prog", 1, magic.len());
            let parts = InputParts {
                argv_sym: vec![magic.clone()],
                ..InputParts::default()
            };
            let (flat_rep, flat) = record_replay_full(
                &src, &spec, &parts, instrument::LogFormat::Flat, 128,
            );
            let (cur_rep, cur) = record_replay_full(
                &src, &spec, &parts, instrument::LogFormat::PerLocation, 128,
            );
            prop_assert_eq!(flat_rep.trace.len(), cur_rep.trace.len());
            prop_assert!(flat.reproduced);
            prop_assert!(cur.reproduced);
            prop_assert_eq!(flat.runs, cur.runs);
            prop_assert_eq!(flat.solver_calls, cur.solver_calls);
            prop_assert_eq!(flat.witness_argv, cur.witness_argv);
        }
    }

    #[test]
    fn cursor_log_localizes_loop_misalignment() {
        // The combined-row pathology in miniature. The scan loop's exit
        // (b0) is NOT logged; the loop-body branch (b1) and the crash
        // guard (b2) are. Under the flat format a candidate with the
        // wrong trip count shifts b2's bit into b1's stretch of
        // low-entropy loop bits, so structurally wrong candidates keep
        // "agreeing"; under per-location cursors b2 always reads ITS OWN
        // recorded bit, so the forced set pins the crash guard on the
        // first divergence — a local mismatch instead of a downstream
        // one.
        let src = r#"
            int main(int argc, char **argv) {
                char *s = argv[1];
                int acc = 0;
                int i = 0;
                while (s[i] != '.') {
                    if (s[i] > 'm') { acc++; }
                    i = i + 1;
                }
                if (s[19] == 'Z') {
                    int *p = 0;
                    return *p;
                }
                return acc;
            }
        "#;
        let cp = build(&[("main", src)]).unwrap();
        let spec = InputSpec::argv_symbolic("prog", 1, 20);
        // Source order: b0 = while, b1 = loop-body if, b2 = crash guard.
        let mut instrumented = vec![false; cp.n_branches()];
        instrumented[1] = true;
        instrumented[2] = true;
        let base_plan = Plan {
            method: Method::DynamicStatic,
            instrumented,
            log_syscalls: true,
            ..Plan::none(0)
        };
        // The true input: 8 loop iterations, then the crash guard.
        let mut true_input = vec![b'b'; 20];
        true_input[8] = b'.';
        true_input[19] = b'Z';
        let parts = InputParts {
            argv_sym: vec![true_input],
            ..InputParts::default()
        };
        let run = |format: instrument::LogFormat, max_runs: usize, hint: Option<Vec<i64>>| {
            let plan = base_plan.clone().with_format(format);
            let mut arena = ExprArena::new();
            let vars = InputVars::alloc(&mut arena, &spec);
            let assignment = assignment_from_input(&spec, &parts);
            let (argv, kcfg) = realize(&spec, &vars, &assignment, &KernelConfig::default());
            let host = LoggingHost::new(Kernel::new(kcfg), plan.clone());
            let mut vm = Vm::new(&cp, host);
            let crash = vm.run(&argv).crash().expect("crashes").clone();
            let report = BugReport::capture(vm.host, crash);
            let mut rcfg = ReplayConfig::new(spec.clone());
            rcfg.budget.max_runs = max_runs;
            rcfg.initial_hint = hint;
            ReplayEngine::new(&cp, plan, report, rcfg).reproduce()
        };
        // A candidate with the WRONG trip count (dot at 4, not 8) but
        // the right guard byte — the misaligned shape an unlogged loop
        // exit produces. One run each, and look at the diagnostics:
        let mut misaligned = vec![b'b' as i64; 20];
        misaligned[4] = b'.' as i64;
        misaligned[19] = b'Z' as i64;
        let flat_probe = run(instrument::LogFormat::Flat, 1, Some(misaligned.clone()));
        assert!(!flat_probe.reproduced);
        assert_eq!(
            flat_probe.last_run_stats.divergent_branch,
            Some((2, true)),
            "flat: the guard reads a shifted LOOP bit (0) and 'diverges' — \
             the forced set will pin the guard the WRONG way"
        );
        let cursor_probe = run(
            instrument::LogFormat::PerLocation,
            1,
            Some(misaligned.clone()),
        );
        assert!(!cursor_probe.reproduced, "under-consumed streams fail 3(a)");
        assert_eq!(
            cursor_probe.last_run_stats.divergent_branch, None,
            "cursors: the guard reads its OWN bit and agrees; only the \
             loop stream is short"
        );
        assert_eq!(
            cursor_probe.last_run_stats.bits_consumed, 5,
            "4 loop-body bits + the guard's own bit"
        );
        // And end to end, the cursor format converges from that
        // misaligned start within a small budget.
        let budget = 64;
        let cursors = run(instrument::LogFormat::PerLocation, budget, Some(misaligned));
        assert!(
            cursors.reproduced,
            "per-location cursors must converge within {budget} runs: {:?}",
            (cursors.runs, &cursors.frontier),
        );
        let w = cursors.witness_argv.unwrap();
        assert_eq!(w[1][19], b'Z');
    }

    #[test]
    fn initial_hint_skips_the_search() {
        // A developer-supplied starting candidate that is already the
        // true input must reproduce on the first run with no solving.
        let (cp, report, _) = record_and_replay(
            GUARDED_CRASH,
            guarded_spec(),
            guarded_parts(),
            Method::AllBranches,
            true,
            16,
            64,
        );
        let plan = Plan::build(
            Method::AllBranches,
            &vec![DynLabel::Unvisited; cp.n_branches()],
            &vec![false; cp.n_branches()],
            cp.n_branches(),
        );
        let mut rcfg = ReplayConfig::new(guarded_spec());
        rcfg.budget.max_runs = 4;
        rcfg.initial_hint = Some(crate::stats::assignment_from_input(
            &guarded_spec(),
            &guarded_parts(),
        ));
        let res = ReplayEngine::new(&cp, plan, report, rcfg).reproduce();
        assert!(res.reproduced);
        assert_eq!(res.runs, 1, "the hint is the witness");
        assert_eq!(res.solver_calls, 0);
    }

    #[test]
    fn drained_search_reports_exhaustion_not_timeout() {
        // An unsatisfiable guard: the crash needs argv[1][0] both 'a' and
        // 'b'. The log forces the recorded direction, every pending set is
        // UNSAT, and the frontier drains long before the run budget.
        let src = r#"
            int main(int argc, char **argv) {
                if (argv[1][0] == 'a') {
                    if (argv[1][0] == 'b') { return 1; }
                    int *p = 0;
                    return *p;
                }
                return 0;
            }
        "#;
        let (_, report, _) = record_and_replay(
            src,
            InputSpec::argv_symbolic("prog", 1, 1),
            InputParts {
                argv_sym: vec![b"a".to_vec()],
                ..InputParts::default()
            },
            Method::AllBranches,
            true,
            8,
            64,
        );
        // Corrupt the trace so the forced direction contradicts the
        // reachable paths: bit 0 flipped sends every candidate into a
        // forced set that cannot be satisfied together with a re-visit.
        let cp = build(&[("main", src)]).unwrap();
        let mut bad = report;
        bad.trace = bad.trace.corrupted(0);
        bad.crash.loc = minic::Loc {
            unit: minic::UnitId(0),
            line: 9999,
            col: 0,
        };
        let plan = Plan::build(
            Method::AllBranches,
            &vec![DynLabel::Unvisited; cp.n_branches()],
            &vec![false; cp.n_branches()],
            cp.n_branches(),
        );
        let mut rcfg = ReplayConfig::new(InputSpec::argv_symbolic("prog", 1, 1));
        rcfg.budget.max_runs = 4096;
        let res = ReplayEngine::new(&cp, plan, bad, rcfg).reproduce();
        assert!(!res.reproduced);
        assert!(
            res.exhausted && !res.timed_out,
            "a drained frontier is exhaustion, not the paper's ∞ timeout: {res:?}"
        );
    }

    #[test]
    fn replay_of_signal_injected_server_crash() {
        // A tiny request loop crashed externally via the signal plan;
        // replay must find input reaching the same syscall site with the
        // log exhausted.
        let src = r#"
            int main(int argc, char **argv) {
                char buf[32];
                int fds[2];
                int ready[2];
                int sock = sys_socket();
                sys_bind(sock, 80);
                sys_listen(sock, 4);
                int served = 0;
                while (served < 2) {
                    fds[0] = sock;
                    if (sys_select(fds, 1, ready) < 1) { continue; }
                    int conn = sys_accept(sock);
                    if (conn < 0) { continue; }
                    int got = 0;
                    while (got <= 0) {
                        fds[1] = conn;
                        sys_select(fds, 2, ready);
                        got = sys_read(conn, buf, 32);
                    }
                    if (buf[0] == 'G') {
                        sys_write(conn, "OK", 2);
                    } else {
                        sys_write(conn, "NO", 2);
                    }
                    sys_close(conn);
                    served++;
                }
                return 0;
            }
        "#;
        let cp = build(&[("main", src)]).unwrap();
        let spec = InputSpec {
            argv: vec![concolic::ArgSpec::Fixed(b"srv".to_vec())],
            clients: vec![
                concolic::ClientSpec {
                    packet_lens: vec![4],
                    close_after: true,
                },
                concolic::ClientSpec {
                    packet_lens: vec![4],
                    close_after: true,
                },
            ],
            ..InputSpec::default()
        };
        let parts = InputParts {
            conns: vec![b"GET/".to_vec(), b"HEAD".to_vec()],
            ..InputParts::default()
        };
        // Plan: all branches + syscall log.
        let plan = Plan::build(
            Method::AllBranches,
            &vec![DynLabel::Unvisited; cp.n_branches()],
            &vec![false; cp.n_branches()],
            cp.n_branches(),
        );
        // Deployment with SEGFAULT after both clients served.
        let mut arena = ExprArena::new();
        let vars = InputVars::alloc(&mut arena, &spec);
        let assignment = assignment_from_input(&spec, &parts);
        let base = KernelConfig {
            arrival_window: 1,
            signal_plan: Some(oskit::SignalPlan {
                sig: 11,
                after_all_conns_served: true,
                after_n_syscalls: None,
            }),
            ..KernelConfig::default()
        };
        let (argv, kcfg) = realize(&spec, &vars, &assignment, &base);
        let host = LoggingHost::new(Kernel::new(kcfg), plan.clone());
        let mut vm = Vm::new(&cp, host);
        let out = vm.run(&argv);
        let crash = out.crash().expect("signal crash").clone();
        assert_eq!(crash.kind, minic::CrashKind::Signal(11));
        let report = BugReport::capture(vm.host, crash);
        assert!(!report.trace.is_empty());
        assert!(!report.syscalls.is_empty());

        let mut rcfg = ReplayConfig::new(spec);
        rcfg.budget.max_runs = 128;
        let res = ReplayEngine::new(&cp, plan, report, rcfg).reproduce();
        assert!(res.reproduced, "server crash replay failed: {res:?}");
    }

    #[test]
    fn corrupted_log_is_detected_not_miscredited() {
        let (cp, report, _) = record_and_replay(
            GUARDED_CRASH,
            guarded_spec(),
            guarded_parts(),
            Method::AllBranches,
            true,
            16,
            64,
        );
        // Corrupt the first bit: replay must still terminate (it may
        // search more or fail), and must never panic.
        let mut bad = report.clone();
        bad.trace = bad.trace.corrupted(0);
        let plan = Plan::build(
            Method::AllBranches,
            &vec![DynLabel::Unvisited; cp.n_branches()],
            &vec![false; cp.n_branches()],
            cp.n_branches(),
        );
        let mut rcfg = ReplayConfig::new(guarded_spec());
        rcfg.budget.max_runs = 16;
        let res = ReplayEngine::new(&cp, plan, bad, rcfg).reproduce();
        // A corrupted first guard bit sends the search to the wrong side:
        // with the strict crash-site criterion this cannot "succeed"
        // through the true path (bits diverge), so it times out.
        assert!(!res.reproduced);
    }

    #[test]
    fn truncated_log_still_reproduces_with_search() {
        let (cp, report, _) = record_and_replay(
            GUARDED_CRASH,
            guarded_spec(),
            guarded_parts(),
            Method::AllBranches,
            true,
            16,
            64,
        );
        let mut shorter = report.clone();
        shorter.trace = shorter.trace.truncated(1);
        let plan = Plan::build(
            Method::AllBranches,
            &vec![DynLabel::Unvisited; cp.n_branches()],
            &vec![false; cp.n_branches()],
            cp.n_branches(),
        );
        let mut rcfg = ReplayConfig::new(guarded_spec());
        rcfg.budget.max_runs = 256;
        let res = ReplayEngine::new(&cp, plan, shorter, rcfg).reproduce();
        // One guard bit remains; the other two guards must be found by
        // search. Budget is ample for a 2-guard search.
        assert!(res.reproduced, "truncated-log replay failed: {res:?}");
    }

    /// Everything the invariance suite compares, in order: reproduced,
    /// runs, solver calls, witness argv, witness assignment, the ordered
    /// (signature, verdict) stream, committed pops, popped-minus-
    /// restored (the consumed count), and the prefix-cache ledger
    /// (hits, misses, literals saved).
    type InvarianceObservation = (
        bool,
        usize,
        usize,
        Option<Vec<Vec<u8>>>,
        Option<Vec<i64>>,
        search::SolvedSigs,
        u64,
        u64,
        (u64, u64, u64),
    );

    /// Replays the guarded crash with a partially instrumented plan
    /// (search-heavy) at the given worker count, returning every field
    /// the invariance suite compares.
    fn replay_with_workers(workers: usize) -> InvarianceObservation {
        replay_with_workers_cache(workers, true)
    }

    /// [`replay_with_workers`] with the prefix cache switchable.
    fn replay_with_workers_cache(workers: usize, cache: bool) -> InvarianceObservation {
        let src = GUARDED_CRASH;
        let cp = build(&[("main", src)]).unwrap();
        let spec = guarded_spec();
        // Log ONLY the middle guard: the outer and inner guards must be
        // found by search, so the frontier sees real UNSAT streaks —
        // the work the driver speculates on above width 1.
        let mut instrumented = vec![false; cp.n_branches()];
        instrumented[1] = true;
        let plan = Plan {
            method: Method::Dynamic,
            instrumented,
            log_syscalls: true,
            ..Plan::none(0)
        };
        let mut arena = ExprArena::new();
        let vars = InputVars::alloc(&mut arena, &spec);
        let assignment = assignment_from_input(&spec, &guarded_parts());
        let (argv, kcfg) = realize(&spec, &vars, &assignment, &KernelConfig::default());
        let host = LoggingHost::new(Kernel::new(kcfg), plan.clone());
        let mut vm = Vm::new(&cp, host);
        let crash = vm.run(&argv).crash().expect("crash").clone();
        let report = BugReport::capture(vm.host, crash);
        let mut rcfg = ReplayConfig::new(spec);
        rcfg.budget.max_runs = 128;
        rcfg.budget.workers = workers;
        rcfg.budget.prefix_cache = cache;
        let res = ReplayEngine::new(&cp, plan, report, rcfg).reproduce();
        (
            res.reproduced,
            res.runs,
            res.solver_calls,
            res.witness_argv.clone(),
            res.witness_assignment.clone(),
            res.frontier.solved_sigs.clone(),
            res.frontier.committed,
            res.frontier.popped - res.frontier.restored,
            (res.cache_hits, res.cache_misses, res.prefix_len_saved),
        )
    }

    #[test]
    fn replay_is_worker_count_invariant() {
        // The tentpole property, stronger than mere set equality: the
        // driver commits speculative verdicts strictly in pop order, so
        // the ENTIRE decision sequence — run count, solver
        // calls, the ordered (signature, verdict) stream, the committed
        // pop count, and the final reproduced input — is bit-identical
        // for every worker count. (Raw `popped` is NOT compared:
        // speculation pops more and restores the excess; `popped -
        // restored` is the consumed count and must match.)
        let serial = replay_with_workers(1);
        assert!(serial.0, "the serial baseline must reproduce");
        assert!(!serial.5.is_empty(), "the search must actually solve sets");
        for workers in [2, 4] {
            let par = replay_with_workers(workers);
            assert_eq!(serial, par, "workers={workers} diverged from workers=1");
        }
    }

    #[test]
    fn replay_prefix_cache_on_off_is_bit_identical() {
        // Every cache shortcut is provably outcome-identical, so the
        // whole search — verdict stream, witness, consumed pops — must
        // match with the cache disabled, at every worker count. Only
        // the ledger itself may differ (zeroed when off).
        let on = replay_with_workers_cache(1, true);
        assert!(on.0, "the cached baseline must reproduce");
        let (hits, misses, saved) = on.8;
        assert!(hits > 0, "guided replay re-derives prefixes: must hit");
        assert!(saved >= hits, "every hit saves at least one literal");
        assert_eq!(
            hits + misses,
            on.2 as u64,
            "ledger: hits + misses == solves"
        );
        let strip = |o: &InvarianceObservation| {
            (
                o.0,
                o.1,
                o.2,
                o.3.clone(),
                o.4.clone(),
                o.5.clone(),
                o.6,
                o.7,
            )
        };
        for workers in [1usize, 2, 4] {
            let off = replay_with_workers_cache(workers, false);
            let (off_hits, off_misses, off_saved) = off.8;
            assert_eq!(off_hits, 0, "disabled cache cannot hit");
            assert_eq!(off_saved, 0);
            assert_eq!(off_misses, off.2 as u64, "ledger still counts every solve");
            assert_eq!(
                strip(&on),
                strip(&off),
                "cache=off workers={workers} diverged"
            );
        }
    }

    #[test]
    fn parallel_replay_accounting_balances() {
        // Every speculatively popped set is either committed or restored
        // — the lost-candidate invariant the stress suite also checks.
        // (`replay_with_workers` returns committed and popped-restored;
        // their equality IS the balance popped == committed + restored.)
        let r = replay_with_workers(4);
        assert_eq!(r.6, r.7, "popped != committed + restored");
    }

    /// A program that crashes when `argv[1]` spells `magic`. With
    /// `table`, the first input byte also indexes a local table, so a
    /// pointer addition concretizes.
    fn magic_string_program(magic: &[u8], table: bool) -> String {
        let lit: String = magic
            .iter()
            .map(|&b| match b {
                b'"' | b'\\' => format!("\\{}", b as char),
                _ => (b as char).to_string(),
            })
            .collect();
        let lookup = if table {
            " int t[8]; for (int i = 0; i < 8; i++) { t[i] = i; } if (t[s[0] & 7] > 3) { ok = 0; }"
        } else {
            ""
        };
        format!(
            r#"
                int main(int argc, char **argv) {{
                    char *s = argv[1];
                    int ok = 1;{lookup}
                    for (int i = 0; i < {n}; i++) {{
                        if (s[i] != "{lit}"[i]) {{ ok = 0; }}
                    }}
                    if (ok) {{ int *p = 0; return *p; }}
                    return 0;
                }}
                "#,
            n = magic.len(),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        // Randomized magic-string programs under a PARTIAL plan (only
        // even-indexed branches logged): replay must produce the same
        // solved-set sequence and the same witness at 1, 2 and 4
        // workers. Partial logging keeps real search pressure on the
        // frontier, so speculation actually happens and must stay
        // transparent.
        #[test]
        fn replay_worker_invariance_holds_on_random_programs(
            magic in proptest::collection::vec(0x21u8..0x7f, 2..5),
        ) {
            let cp = build(&[("main", &magic_string_program(&magic, false))]).unwrap();
            let spec = InputSpec::argv_symbolic("prog", 1, magic.len());
            let parts = InputParts {
                argv_sym: vec![magic.clone()],
                ..InputParts::default()
            };
            let mut instrumented = vec![false; cp.n_branches()];
            for (i, slot) in instrumented.iter_mut().enumerate() {
                *slot = i % 2 == 0;
            }
            let plan = Plan {
                method: Method::Dynamic,
                instrumented,
                log_syscalls: true,
                ..Plan::none(0)
            };
            let mut arena = ExprArena::new();
            let vars = InputVars::alloc(&mut arena, &spec);
            let assignment = assignment_from_input(&spec, &parts);
            let (argv, kcfg) = realize(&spec, &vars, &assignment, &KernelConfig::default());
            let host = LoggingHost::new(Kernel::new(kcfg), plan.clone());
            let mut vm = Vm::new(&cp, host);
            let crash = vm.run(&argv).crash().expect("crash").clone();
            let report = BugReport::capture(vm.host, crash);
            let run = |workers: usize| {
                let mut rcfg = ReplayConfig::new(spec.clone());
                rcfg.budget.max_runs = 128;
                rcfg.budget.workers = workers;
                let res =
                    ReplayEngine::new(&cp, plan.clone(), report.clone(), rcfg).reproduce();
                (
                    res.reproduced,
                    res.runs,
                    res.solver_calls,
                    res.witness_argv.clone(),
                    res.witness_assignment.clone(),
                    res.frontier.solved_sigs.clone(),
                )
            };
            let serial = run(1);
            for workers in [2usize, 4] {
                let par = run(workers);
                prop_assert_eq!(
                    &serial, &par,
                    "workers={} diverged from serial", workers
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]
        // Replay is the concolic run plus the log: under an empty plan
        // (no instrumented branch, an empty flat trace, modeled syscalls,
        // no watch location) the replay host's shadow must record
        // exactly the analysis host's path, arena and concretization
        // tallies for the same program and assignment.
        #[test]
        fn empty_plan_replay_records_the_analysis_path(
            magic in proptest::collection::vec(0x21u8..0x7f, 2..5),
            input in proptest::collection::vec(0x21u8..0x7f, 4),
            hit in any::<bool>(),
        ) {
            let spec = InputSpec::argv_symbolic("prog", 1, magic.len());
            let bytes = if hit { &magic[..] } else { &input[..magic.len()] };
            let assignment: Vec<i64> = bytes.iter().map(|&b| i64::from(b)).collect();
            for table in [false, true] {
                let cp = build(&[("main", &magic_string_program(&magic, table))]).unwrap();
                let engine = Engine::new(&cp, SessionConfig::new(spec.clone()));
                let mut arena = ExprArena::new();
                let vars = InputVars::alloc(&mut arena, &spec);
                let (analysis, analysis_arena) = engine.run_once(arena, &vars, &assignment);

                let mut arena = ExprArena::new();
                let vars = InputVars::alloc(&mut arena, &spec);
                let plan = Plan::none(cp.n_branches());
                let trace = TraceLog::Flat(BranchTrace::default());
                let index = LogIndex::new(&trace, cp.n_branches());
                let streams = realize_streams(&spec, &vars, &assignment);
                let env = ReplayEnv::new(streams, SimFs::new(), SyscallMode::Modeled, Vec::new());
                let argv = env.argv().to_vec();
                let host = ReplayHost::new(
                    arena,
                    Concretization::default(),
                    env,
                    &plan,
                    index.reader(),
                    &vars,
                );
                let mut vm = Vm::new(&cp, host);
                vm.fuel = search::FUEL_PER_RUN;
                vm.prepare(&argv);
                let objs = vm.argv_objects().to_vec();
                mark_argv_symbolic(&mut vm.mem, &objs, &vars, &mut vm.host.shadow.arena);
                vm.resume();
                let replayed = vm.host.shadow;

                let steps = |path: &[PathStep]| {
                    path.iter()
                        .map(|s| (s.constraint, s.origin, s.taken))
                        .collect::<Vec<_>>()
                };
                prop_assert!(!analysis.path.is_empty(), "the input must be symbolic");
                prop_assert_eq!(steps(&analysis.path), steps(&replayed.path));
                prop_assert_eq!(analysis_arena.len(), replayed.arena.len());
                let tallies = (analysis.concretization_ranges, analysis.concretization_pins);
                prop_assert_eq!(
                    tallies,
                    (replayed.concretization_ranges, replayed.concretization_pins)
                );
                if table {
                    prop_assert!(tallies.0 + tallies.1 >= 1, "the table index concretizes");
                }
            }
        }
    }

    #[test]
    fn replay_work_grows_as_logging_shrinks() {
        // Compare total replay work between full logging and no logging
        // on a moderate search problem — the tradeoff of the whole paper.
        let (_, _, full) = record_and_replay(
            GUARDED_CRASH,
            guarded_spec(),
            guarded_parts(),
            Method::AllBranches,
            true,
            16,
            512,
        );
        let cp = build(&[("main", GUARDED_CRASH)]).unwrap();
        let plan = Plan::none(cp.n_branches());
        let spec = guarded_spec();
        let mut arena = ExprArena::new();
        let vars = InputVars::alloc(&mut arena, &spec);
        let assignment = assignment_from_input(&spec, &guarded_parts());
        let (argv, kcfg) = realize(&spec, &vars, &assignment, &KernelConfig::default());
        let host = LoggingHost::new(Kernel::new(kcfg), plan.clone());
        let mut vm = Vm::new(&cp, host);
        let crash = vm.run(&argv).crash().expect("crash").clone();
        let report = BugReport::capture(vm.host, crash);
        let mut rcfg = ReplayConfig::new(spec);
        rcfg.budget.max_runs = 512;
        let none = ReplayEngine::new(&cp, plan, report, rcfg).reproduce();
        if none.reproduced {
            assert!(
                none.runs >= full.runs,
                "unlogged search ({}) must not beat guided replay ({})",
                none.runs,
                full.runs
            );
        }
    }
}
