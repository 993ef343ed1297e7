//! `progs` — the benchmark programs, written in mini-C.
//!
//! The paper evaluates on four coreutils (`mkdir`, `mknod`, `mkfifo`,
//! `paste` — with the real crash bugs from the KLEE study), the uServer
//! web server, GNU diff, and two microbenchmarks. This crate carries
//! faithful mini-C re-implementations of all of them, each linked against
//! the bundled mini-libc (`libc.mc`, the uClibc stand-in) so that the
//! application/library branch split of Figure 3 exists.
//!
//! Every program is exposed both as source (for analyses) and as a
//! [`build`](Program::build)-able [`CompiledProgram`].

use minic::{CompiledProgram, Result, UnitId};

/// The bundled mini-libc source (unit 0 of every multi-unit program).
pub const LIBC: &str = include_str!("mc/libc.mc");

/// mkdir source.
pub const MKDIR: &str = include_str!("mc/mkdir.mc");
/// mknod source.
pub const MKNOD: &str = include_str!("mc/mknod.mc");
/// mkfifo source.
pub const MKFIFO: &str = include_str!("mc/mkfifo.mc");
/// paste source.
pub const PASTE: &str = include_str!("mc/paste.mc");
/// userver source.
pub const USERVER: &str = include_str!("mc/userver.mc");
/// diff source.
pub const DIFF: &str = include_str!("mc/diff.mc");
/// Counter-loop microbenchmark source.
pub const MICRO_LOOP: &str = include_str!("mc/micro_loop.mc");
/// Listing-1 fibonacci microbenchmark source.
pub const FIB: &str = include_str!("mc/fib.mc");

/// The benchmark programs of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Program {
    /// coreutils mkdir (§5.2).
    Mkdir,
    /// coreutils mknod (§5.2).
    Mknod,
    /// coreutils mkfifo (§5.2).
    Mkfifo,
    /// coreutils paste (§5.2).
    Paste,
    /// The uServer web server (§5.3).
    Userver,
    /// The diff utility (§5.4).
    Diff,
    /// Counter-loop microbenchmark (§5.1).
    MicroLoop,
    /// Listing-1 fibonacci microbenchmark (§5.1).
    Fib,
}

impl Program {
    /// All benchmark programs.
    pub const ALL: [Program; 8] = [
        Program::Mkdir,
        Program::Mknod,
        Program::Mkfifo,
        Program::Paste,
        Program::Userver,
        Program::Diff,
        Program::MicroLoop,
        Program::Fib,
    ];

    /// Program name (as the paper spells it).
    pub fn name(self) -> &'static str {
        match self {
            Program::Mkdir => "mkdir",
            Program::Mknod => "mknod",
            Program::Mkfifo => "mkfifo",
            Program::Paste => "paste",
            Program::Userver => "uServer",
            Program::Diff => "diff",
            Program::MicroLoop => "micro-loop",
            Program::Fib => "fibonacci",
        }
    }

    /// The source units: `(unit_name, source)`, library first.
    ///
    /// Microbenchmarks are standalone (no libc), matching their role as
    /// isolated instrumentation-cost probes.
    pub fn units(self) -> Vec<(&'static str, &'static str)> {
        match self {
            Program::Mkdir => vec![("libc", LIBC), ("mkdir", MKDIR)],
            Program::Mknod => vec![("libc", LIBC), ("mknod", MKNOD)],
            Program::Mkfifo => vec![("libc", LIBC), ("mkfifo", MKFIFO)],
            Program::Paste => vec![("libc", LIBC), ("paste", PASTE)],
            Program::Userver => vec![("libc", LIBC), ("userver", USERVER)],
            Program::Diff => vec![("libc", LIBC), ("diff", DIFF)],
            Program::MicroLoop => vec![("micro_loop", MICRO_LOOP)],
            Program::Fib => vec![("fib", FIB)],
        }
    }

    /// The unit id of the library unit, when the program links libc.
    pub fn libc_unit(self) -> Option<UnitId> {
        match self {
            Program::MicroLoop | Program::Fib => None,
            _ => Some(UnitId(0)),
        }
    }

    /// Parses, checks and compiles the program.
    pub fn build(self) -> Result<CompiledProgram> {
        minic::build(&self.units())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::vm::{RunOutcome, Vm};
    use minic::{memory::MemFault, CrashKind};
    use oskit::{ClientScript, Kernel, KernelConfig, OsHost};

    fn run(
        prog: Program,
        argv: &[&[u8]],
        cfg: KernelConfig,
    ) -> (RunOutcome, OsHost, minic::cost::Meter) {
        let cp = prog.build().expect("program compiles");
        let mut vm = Vm::new(&cp, OsHost::new(Kernel::new(cfg)));
        let argv: Vec<Vec<u8>> = argv.iter().map(|a| a.to_vec()).collect();
        let out = vm.run(&argv);
        let meter = vm.meter.clone();
        (out, vm.host, meter)
    }

    #[test]
    fn all_programs_compile() {
        for p in Program::ALL {
            let cp = p.build().unwrap_or_else(|e| panic!("{}: {e}", p.name()));
            assert!(cp.n_branches() > 0, "{} has branches", p.name());
        }
    }

    #[test]
    fn branch_inventory_is_substantial() {
        // The analyses need meaningful branch counts; regression-guard
        // the rough sizes.
        let userver = Program::Userver.build().unwrap();
        assert!(
            userver.n_branches() >= 120,
            "userver+libc has {} branch locations",
            userver.n_branches()
        );
        let diff = Program::Diff.build().unwrap();
        assert!(diff.n_branches() >= 90, "diff has {}", diff.n_branches());
    }

    // ---- mkdir ------------------------------------------------------------

    #[test]
    fn mkdir_creates_directories() {
        let (out, host, _) = run(
            Program::Mkdir,
            &[b"mkdir", b"/a", b"/b"],
            KernelConfig::default(),
        );
        assert_eq!(out, RunOutcome::Exited(0));
        assert_eq!(host.kernel.fs().stat(b"/a"), 0);
        assert_eq!(host.kernel.fs().stat(b"/b"), 0);
    }

    #[test]
    fn mkdir_duplicate_fails() {
        let (out, host, _) = run(
            Program::Mkdir,
            &[b"mkdir", b"/a", b"/a"],
            KernelConfig::default(),
        );
        assert_eq!(out, RunOutcome::Exited(1));
        assert!(String::from_utf8_lossy(&host.stdout).contains("cannot create"));
    }

    #[test]
    fn mkdir_parents_flag() {
        let (out, host, _) = run(
            Program::Mkdir,
            &[b"mkdir", b"-p", b"/x/y/z"],
            KernelConfig::default(),
        );
        assert_eq!(out, RunOutcome::Exited(0));
        assert_eq!(host.kernel.fs().stat(b"/x/y/z"), 0);
    }

    #[test]
    fn mkdir_mode_parsing() {
        let (out, _, _) = run(
            Program::Mkdir,
            &[b"mkdir", b"-m", b"0700", b"/priv"],
            KernelConfig::default(),
        );
        assert_eq!(out, RunOutcome::Exited(0));
        let (out, _, _) = run(
            Program::Mkdir,
            &[b"mkdir", b"-m", b"99x", b"/bad"],
            KernelConfig::default(),
        );
        assert_eq!(out, RunOutcome::Exited(1));
    }

    #[test]
    fn mkdir_trailing_context_option_crashes() {
        // The paper's coreutils crash class: a very specific argv
        // combination (trailing -Z) walks off the end of argv.
        let (out, _, _) = run(
            Program::Mkdir,
            &[b"mkdir", b"/a", b"-Z"],
            KernelConfig::default(),
        );
        let crash = out.crash().expect("mkdir -Z crash");
        assert!(matches!(
            crash.kind,
            CrashKind::Mem(MemFault::OutOfBounds { .. })
        ));
        assert_eq!(crash.func, "main");
    }

    // ---- mknod ------------------------------------------------------------

    #[test]
    fn mknod_creates_fifo_and_devices() {
        let (out, host, _) = run(
            Program::Mknod,
            &[b"mknod", b"/pipe", b"p"],
            KernelConfig::default(),
        );
        assert_eq!(out, RunOutcome::Exited(0));
        assert_eq!(host.kernel.fs().stat(b"/pipe"), 0);
        let (out, _, _) = run(
            Program::Mknod,
            &[b"mknod", b"/dev0", b"c", b"5", b"1"],
            KernelConfig::default(),
        );
        assert_eq!(out, RunOutcome::Exited(0));
    }

    #[test]
    fn mknod_rejects_fifo_with_numbers() {
        let (out, host, _) = run(
            Program::Mknod,
            &[b"mknod", b"/p", b"p", b"1", b"2"],
            KernelConfig::default(),
        );
        assert_eq!(out, RunOutcome::Exited(1));
        assert!(String::from_utf8_lossy(&host.stdout).contains("fifos do not have"));
    }

    #[test]
    fn mknod_trailing_context_option_crashes() {
        let (out, _, _) = run(
            Program::Mknod,
            &[b"mknod", b"/n", b"p", b"-Z"],
            KernelConfig::default(),
        );
        assert!(out.crash().is_some());
    }

    // ---- mkfifo -----------------------------------------------------------

    #[test]
    fn mkfifo_works_and_crashes_like_the_others() {
        let (out, host, _) = run(
            Program::Mkfifo,
            &[b"mkfifo", b"/f1", b"/f2"],
            KernelConfig::default(),
        );
        assert_eq!(out, RunOutcome::Exited(0));
        assert_eq!(host.kernel.fs().stat(b"/f1"), 0);
        let (out, _, _) = run(
            Program::Mkfifo,
            &[b"mkfifo", b"-Z"],
            KernelConfig::default(),
        );
        assert!(out.crash().is_some());
    }

    // ---- paste ------------------------------------------------------------

    fn paste_fs() -> KernelConfig {
        let mut cfg = KernelConfig::default();
        cfg.fs.install_file("/one", b"a\nb\nc\n".to_vec());
        cfg.fs.install_file("/two", b"1\n2\n3\n".to_vec());
        cfg
    }

    #[test]
    fn paste_merges_lines() {
        let (out, host, _) = run(Program::Paste, &[b"paste", b"/one", b"/two"], paste_fs());
        assert_eq!(out, RunOutcome::Exited(0));
        let text = String::from_utf8_lossy(&host.stdout).to_string();
        assert!(text.contains("a\t1"), "got: {text}");
        assert!(text.contains("b\t2"), "got: {text}");
    }

    #[test]
    fn paste_custom_delimiter() {
        let (out, host, _) = run(
            Program::Paste,
            &[b"paste", b"-d", b",", b"/one", b"/two"],
            paste_fs(),
        );
        assert_eq!(out, RunOutcome::Exited(0));
        assert!(String::from_utf8_lossy(&host.stdout).contains("a,1"));
    }

    #[test]
    fn paste_backslash_delimiter_crashes() {
        // The bug of §5.2: `paste -d\ file` — a delimiter list ending in
        // a backslash runs the unescape loop off the argument's end.
        let (out, _, _) = run(Program::Paste, &[b"paste", b"-d\\", b"/one"], paste_fs());
        let crash = out.crash().expect("paste -d\\ crash");
        assert!(matches!(
            crash.kind,
            CrashKind::Mem(MemFault::OutOfBounds { .. })
        ));
    }

    // ---- userver ----------------------------------------------------------

    fn http_cfg(reqs: &[&[u8]]) -> KernelConfig {
        KernelConfig {
            clients: reqs
                .iter()
                .map(|r| ClientScript::oneshot(r.to_vec()))
                .collect(),
            arrival_window: 2,
            ..KernelConfig::default()
        }
    }

    #[test]
    fn userver_serves_a_get_request() {
        let (out, host, _) = run(
            Program::Userver,
            &[b"userver"],
            http_cfg(&[b"GET / HTTP/1.0\r\n\r\n"]),
        );
        assert_eq!(out, RunOutcome::Exited(0));
        let resp = String::from_utf8_lossy(host.kernel.conn_outbox(0).unwrap()).to_string();
        assert!(resp.starts_with("HTTP/1.0 200 OK"), "got: {resp}");
        assert!(resp.contains("userver index"));
    }

    #[test]
    fn userver_serves_many_request_kinds() {
        let reqs: &[&[u8]] = &[
            b"GET /about HTTP/1.0\r\n\r\n",
            b"GET /missing HTTP/1.0\r\n\r\n",
            b"HEAD /status HTTP/1.0\r\n\r\n",
            b"POST /submit HTTP/1.0\r\nContent-Length: 3\r\n\r\nabc",
            b"DELETE / HTTP/1.0\r\n\r\n",
            b"garbage\r\n\r\n",
            b"OPTIONS / HTTP/1.0\r\nCookie: a=1; b=2; c=3\r\n\r\n",
        ];
        let (out, host, _) = run(Program::Userver, &[b"userver"], http_cfg(reqs));
        assert_eq!(out, RunOutcome::Exited(0));
        let codes: Vec<String> = (0..reqs.len())
            .map(|i| {
                String::from_utf8_lossy(host.kernel.conn_outbox(i).unwrap())
                    .split_whitespace()
                    .nth(1)
                    .unwrap_or("?")
                    .to_string()
            })
            .collect();
        assert_eq!(codes, vec!["200", "404", "200", "200", "405", "400", "200"]);
        let summary = String::from_utf8_lossy(&host.stdout).to_string();
        assert!(summary.contains("7 requests"), "got: {summary}");
    }

    #[test]
    fn userver_handles_split_packets() {
        let cfg = KernelConfig {
            clients: vec![ClientScript {
                packets: vec![b"GET /ab".to_vec(), b"out HTTP/1.0\r\n\r\n".to_vec()],
                close_after: true,
            }],
            ..KernelConfig::default()
        };
        let (out, host, _) = run(Program::Userver, &[b"userver"], cfg);
        assert_eq!(out, RunOutcome::Exited(0));
        let resp = String::from_utf8_lossy(host.kernel.conn_outbox(0).unwrap()).to_string();
        assert!(resp.contains("about userver"), "got: {resp}");
    }

    #[test]
    fn userver_survives_chunked_reads() {
        let mut cfg = http_cfg(&[b"GET /status HTTP/1.0\r\n\r\n"]);
        cfg.max_read_chunk = 3; // force short reads
        let (out, host, _) = run(Program::Userver, &[b"userver"], cfg);
        assert_eq!(out, RunOutcome::Exited(0));
        assert!(String::from_utf8_lossy(host.kernel.conn_outbox(0).unwrap()).contains("200"));
    }

    #[test]
    fn userver_signal_injection_crashes_at_stable_site() {
        let crash_site = |seed: u64| {
            let mut cfg = http_cfg(&[b"GET / HTTP/1.0\r\n\r\n", b"GET /about HTTP/1.0\r\n\r\n"]);
            cfg.seed = seed;
            cfg.signal_plan = Some(oskit::SignalPlan {
                sig: 11,
                after_all_conns_served: true,
                after_n_syscalls: None,
            });
            let (out, _, _) = run(Program::Userver, &[b"userver"], cfg);
            out.crash().expect("SEGV").loc
        };
        assert_eq!(crash_site(1), crash_site(99));
    }

    // ---- diff -------------------------------------------------------------

    fn diff_cfg(a: &[u8], b: &[u8]) -> KernelConfig {
        let mut cfg = KernelConfig::default();
        cfg.fs.install_file("/a", a.to_vec());
        cfg.fs.install_file("/b", b.to_vec());
        cfg
    }

    #[test]
    fn diff_identical_files_exit_zero() {
        let (out, host, _) = run(
            Program::Diff,
            &[b"diff", b"/a", b"/b"],
            diff_cfg(b"x\ny\n", b"x\ny\n"),
        );
        assert_eq!(out, RunOutcome::Exited(0));
        assert!(host.stdout.is_empty());
    }

    #[test]
    fn diff_reports_changed_lines() {
        let (out, host, _) = run(
            Program::Diff,
            &[b"diff", b"/a", b"/b"],
            diff_cfg(b"one\ntwo\nthree\n", b"one\nTWO\nthree\n"),
        );
        assert_eq!(out, RunOutcome::Exited(1));
        let text = String::from_utf8_lossy(&host.stdout).to_string();
        assert!(text.contains("< two"), "got: {text}");
        assert!(text.contains("> TWO"), "got: {text}");
    }

    #[test]
    fn diff_handles_insertions_and_deletions() {
        let (out, host, _) = run(
            Program::Diff,
            &[b"diff", b"/a", b"/b"],
            diff_cfg(b"a\nb\nc\n", b"a\nc\n"),
        );
        assert_eq!(out, RunOutcome::Exited(1));
        assert!(String::from_utf8_lossy(&host.stdout).contains("< b"));
        let (out2, host2, _) = run(
            Program::Diff,
            &[b"diff", b"/a", b"/b"],
            diff_cfg(b"a\nc\n", b"a\nb\nc\n"),
        );
        assert_eq!(out2, RunOutcome::Exited(1));
        assert!(String::from_utf8_lossy(&host2.stdout).contains("> b"));
    }

    #[test]
    fn diff_missing_file_errors() {
        let mut cfg = KernelConfig::default();
        cfg.fs.install_file("/a", b"x\n".to_vec());
        let (out, _, _) = run(Program::Diff, &[b"diff", b"/a", b"/nope"], cfg);
        assert_eq!(out, RunOutcome::Exited(2));
    }

    // ---- microbenchmarks ----------------------------------------------------

    #[test]
    fn micro_loop_runs_requested_iterations() {
        let (out, _, meter) = run(
            Program::MicroLoop,
            &[b"micro", b"5000"],
            KernelConfig::default(),
        );
        assert_eq!(out, RunOutcome::Exited(1));
        // 5000 loop iterations + parse loop; branch count reflects it.
        assert!(meter.branches >= 5000);
    }

    #[test]
    fn fib_matches_listing_one() {
        let (out, host, _) = run(Program::Fib, &[b"fib", b"a"], KernelConfig::default());
        assert_eq!(out, RunOutcome::Exited(0));
        assert_eq!(String::from_utf8_lossy(&host.stdout), "Result: 6765\n");
        let (_, host_b, _) = run(Program::Fib, &[b"fib", b"b"], KernelConfig::default());
        assert_eq!(
            String::from_utf8_lossy(&host_b.stdout),
            "Result: 102334155\n"
        );
        let (_, host_n, _) = run(Program::Fib, &[b"fib", b"x"], KernelConfig::default());
        assert_eq!(String::from_utf8_lossy(&host_n.stdout), "Result: 0\n");
    }
}
