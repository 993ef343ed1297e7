//! Workbench builders for every benchmark of the paper's evaluation.
//!
//! Centralizes the input shapes, environments and "true" (recorded)
//! inputs so that every table/figure binary measures the same setups.

use concolic::{ArgSpec, ClientSpec, FileSpec, InputSpec};
use oskit::SignalPlan;
use progs::Program;
use replay::InputParts;
use retrace_core::Workbench;
use workloads::{coreutils_crash_argv, diff_scenarios, scenarios, HttpScenario};

/// Dynamic-analysis budget levels: the paper's LC (1 hour) and HC
/// (2 hours) configurations, as deterministic run counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coverage {
    /// Lower coverage (short symbolic-execution budget).
    Lc,
    /// Higher coverage (longer budget).
    Hc,
}

impl Coverage {
    /// The concolic run budget for this level.
    pub fn runs(self) -> usize {
        match self {
            Coverage::Lc => 2,
            Coverage::Hc => 96,
        }
    }

    /// Label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Coverage::Lc => "lc",
            Coverage::Hc => "hc",
        }
    }
}

/// A fully configured experiment: workbench plus the true input.
pub struct Experiment {
    /// Human-readable name.
    pub name: String,
    /// The workbench (program + shape + environment).
    pub wb: Workbench,
    /// The recorded (user-site) input.
    pub parts: InputParts,
}

/// The Listing-1 fibonacci microbenchmark.
pub fn fib() -> Experiment {
    let cp = Program::Fib.build().expect("fib compiles");
    let spec = InputSpec::argv_symbolic("fib", 1, 1);
    Experiment {
        name: "fibonacci".into(),
        wb: Workbench::new(cp, spec),
        parts: InputParts {
            argv_sym: vec![b"b".to_vec()],
            ..InputParts::default()
        },
    }
}

/// The counter-loop microbenchmark with `iters` iterations.
pub fn micro_loop(iters: u64) -> Experiment {
    let cp = Program::MicroLoop.build().expect("micro compiles");
    let digits = iters.to_string().into_bytes();
    let spec = InputSpec {
        argv: vec![ArgSpec::Fixed(b"micro".to_vec()), ArgSpec::Fixed(digits)],
        ..InputSpec::default()
    };
    Experiment {
        name: format!("micro-loop({iters})"),
        wb: Workbench::new(cp, spec),
        parts: InputParts::default(),
    }
}

/// A coreutil with its §5.2 crash invocation as the true input.
///
/// The input shape mirrors the crash invocation's argv layout
/// (scaled-down from the paper's 10×100-byte corpus so laptop-scale
/// budgets explore meaningfully).
pub fn coreutil(p: Program) -> Experiment {
    let inv = coreutils_crash_argv()
        .into_iter()
        .find(|c| c.program == p.name())
        .expect("known coreutil");
    let mut argv_spec = vec![ArgSpec::Fixed(inv.argv[0].clone())];
    let mut argv_sym = Vec::new();
    for a in &inv.argv[1..] {
        argv_spec.push(ArgSpec::Symbolic(a.len()));
        argv_sym.push(a.clone());
    }
    let spec = InputSpec {
        argv: argv_spec,
        ..InputSpec::default()
    };
    let cp = p.build().expect("coreutil compiles");
    let mut wb = Workbench::new(cp, spec);
    if let Some(u) = p.libc_unit() {
        wb.static_exclude = vec![u];
    }
    for (path, data) in &inv.needs_files {
        wb.kernel.fs.install_file(path, data.to_vec());
    }
    Experiment {
        name: p.name().into(),
        wb,
        parts: InputParts {
            argv_sym,
            ..InputParts::default()
        },
    }
}

/// The uServer with one crash scenario (Table 3's experiments 1–5).
///
/// The deployment serves the scenario's requests and is then crashed by
/// the injected SEGFAULT, exactly like §5.3.
pub fn userver_scenario(s: &HttpScenario) -> Experiment {
    let cp = Program::Userver.build().expect("userver compiles");
    let spec = InputSpec {
        argv: vec![ArgSpec::Fixed(b"userver".to_vec())],
        clients: s
            .requests
            .iter()
            .map(|r| ClientSpec {
                packet_lens: vec![r.len()],
                close_after: true,
            })
            .collect(),
        ..InputSpec::default()
    };
    let mut wb = Workbench::new(cp, spec);
    wb.static_exclude = vec![Program::Userver.libc_unit().expect("userver links libc")];
    wb.kernel.arrival_window = 2;
    wb.kernel.signal_plan = Some(SignalPlan {
        sig: 11,
        after_all_conns_served: true,
        after_n_syscalls: None,
    });
    // Replay keeps the paper's depth-first default: the log-guided
    // priority sets do the steering, and breadth-mixed pops would
    // de-guide the search by negating early prefix branches. (The
    // explorer policy lives on the ANALYSIS workbench, where coverage is
    // the goal — see `userver_analysis_bench`.)
    Experiment {
        name: format!("uServer exp {}", s.id),
        wb,
        parts: InputParts {
            conns: s.requests.clone(),
            ..InputParts::default()
        },
    }
}

/// The five uServer scenarios.
pub fn userver_experiments(seed: u64) -> Vec<Experiment> {
    scenarios(seed).iter().map(userver_scenario).collect()
}

/// The uServer under a saturation workload of `n` GET requests (for the
/// profile of Figure 3 and the overheads of Figure 4). No crash signal.
pub fn userver_load(n: usize, seed: u64) -> Experiment {
    let reqs = workloads::saturation_workload(n, seed);
    let cp = Program::Userver.build().expect("userver compiles");
    let spec = InputSpec {
        argv: vec![ArgSpec::Fixed(b"userver".to_vec())],
        clients: reqs
            .iter()
            .map(|r| ClientSpec {
                packet_lens: vec![r.len()],
                close_after: true,
            })
            .collect(),
        ..InputSpec::default()
    };
    let mut wb = Workbench::new(cp, spec);
    wb.static_exclude = vec![Program::Userver.libc_unit().expect("userver links libc")];
    wb.kernel.arrival_window = 2;
    Experiment {
        name: format!("uServer load({n})"),
        wb,
        parts: InputParts {
            conns: reqs,
            ..InputParts::default()
        },
    }
}

/// A diff experiment over one of the two §5.4 scenarios.
///
/// The crash is injected at the end of the true execution (the syscall
/// count is measured from an uninstrumented run first), reproducing the
/// "crash after the input was processed" methodology.
pub fn diff_experiment(id: usize) -> Experiment {
    let sc = diff_scenarios()
        .into_iter()
        .find(|s| s.id == id)
        .expect("diff scenario exists");
    let cp = Program::Diff.build().expect("diff compiles");
    let spec = InputSpec {
        argv: vec![
            ArgSpec::Fixed(b"diff".to_vec()),
            ArgSpec::Fixed(b"/a".to_vec()),
            ArgSpec::Fixed(b"/b".to_vec()),
        ],
        files: vec![
            FileSpec {
                path: "/a".into(),
                len: sc.a.len(),
            },
            FileSpec {
                path: "/b".into(),
                len: sc.b.len(),
            },
        ],
        ..InputSpec::default()
    };
    let mut wb = Workbench::new(cp, spec);
    wb.static_exclude = vec![Program::Diff.libc_unit().expect("diff links libc")];
    let parts = InputParts {
        files: vec![sc.a.clone(), sc.b.clone()],
        ..InputParts::default()
    };
    // Measure the true run's syscall count, then arm the signal to fire
    // at the final syscall.
    let (_, meter, _) = wb.baseline_run(&parts);
    wb.kernel.signal_plan = Some(SignalPlan {
        sig: 11,
        after_all_conns_served: false,
        after_n_syscalls: Some(meter.syscalls),
    });
    Experiment {
        name: format!("diff exp {id}"),
        wb,
        parts,
    }
}
