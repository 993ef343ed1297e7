//! Quickstart: the full record → ship → replay cycle on a tiny program.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Walks the paper's pipeline end to end: analyze a program, instrument
//! it with the combined (dynamic+static) method, run it on a "user" input
//! that crashes, and reproduce the crash at the "developer" site from the
//! partial branch log alone.

use retrace::prelude::*;

const PROGRAM: &str = r#"
    // A tiny option parser with a crash hidden behind a specific flag
    // combination (the coreutils bug pattern of the paper's §5.2).
    int main(int argc, char **argv) {
        int verbose = 0;
        int mode = 0;
        for (int i = 1; i < argc; i++) {
            char *arg = argv[i];
            if (arg[0] == '-') {
                if (arg[1] == 'v') { verbose = 1; }
                else if (arg[1] == 'm') { mode = arg[2] - '0'; }
                else if (arg[1] == 'Z') {
                    // Bug: consumes the next argument without checking
                    // that it exists.
                    i++;
                    char c = argv[i][0];
                    mode = mode + c;
                }
            }
        }
        if (verbose) { printf("mode=%d\n", mode); }
        return 0;
    }
"#;

fn main() {
    // 1. Build the program (parse -> check -> compile).
    let cp = minic::build(&[("main", PROGRAM)]).expect("program compiles");
    println!("program has {} branch locations", cp.n_branches());

    // 2. Declare the input shape: two symbolic arguments of 2 bytes.
    let spec = InputSpec::argv_symbolic("demo", 2, 2);
    let wb = Workbench::new(cp, spec);

    // 3. Pre-ship analyses (paper §2.1 + §2.2).
    let bundle = wb.analyze(32);
    println!(
        "dynamic analysis: {} runs, {:.0}% branch coverage, {} crash(es) found pre-ship",
        bundle.dyn_result.runs,
        bundle.coverage_pct(),
        bundle.dyn_result.crashes.len()
    );

    // 4. Instrument with the combined method (the paper's best tradeoff).
    let plan = wb.plan(Method::DynamicStatic, &bundle);
    println!(
        "dynamic+static instruments {} of {} branch locations",
        plan.n_instrumented(),
        wb.cp.n_branches()
    );

    // 5. The "user site": run on an input that triggers the bug.
    let user_input = InputParts {
        argv_sym: vec![b"-v".to_vec(), b"-Z".to_vec()],
        ..InputParts::default()
    };
    let run = wb.logged_run(&plan, &user_input);
    let report = run.report.expect("the user hit the bug");
    println!(
        "user-site crash: {} at {} ({} log bits, {} syscall records, {} bytes shipped)",
        report.crash.kind,
        report.crash.loc,
        report.trace.len(),
        report.syscalls.len(),
        report.transfer_bytes()
    );

    // 6. The "developer site": reproduce from the partial log.
    let result = wb.replay(&plan, &report, 256);
    assert!(result.reproduced, "replay must succeed");
    let witness = result.witness_argv.as_ref().expect("witness input");
    println!(
        "reproduced in {} replay run(s), {} solver call(s)",
        result.runs, result.solver_calls
    );
    println!(
        "witness argv: {:?}",
        witness
            .iter()
            .map(|a| String::from_utf8_lossy(a).to_string())
            .collect::<Vec<_>>()
    );
    // The decisive byte combination was recovered from the branch log —
    // the original input was never shipped.
    assert_eq!(&witness[2][..2], b"-Z");
    println!("privacy preserved: the report contained no input bytes.");
}
