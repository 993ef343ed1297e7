//! The instrumented deployment host: what runs at the "user site".
//!
//! Wraps the kernel like [`oskit::OsHost`], but additionally logs one bit
//! per executed instrumented branch (charging the paper's 17 instructions
//! plus periodic flush costs) and, when enabled, the results of the
//! selected system calls. When the program crashes, [`BugReport::capture`]
//! packages the crash site and the logs — the artifact shipped to the
//! developer.

use crate::logger::{checkpoints_wire_bytes, BitLog, CursorLog, TraceLog};
use crate::plan::{LogFormat, Method, Plan};
use crate::syscall_log::{is_logged, SysRecord, SyscallLog};
use minic::cost::Meter;
use minic::memory::Memory;
use minic::types::Sys;
use minic::vm::{CrashInfo, CrashKind, Host, HostStop};
use minic::{BranchId, Loc};
use oskit::{apply_effect, Kernel};
use serde::{Deserialize, Serialize};

/// The accumulating branch log in the plan's format: the flat bitvector,
/// or one bit stream per branch location (see [`LogFormat`]).
#[derive(Debug, Clone)]
pub enum BranchLogger {
    /// The paper's flat bit log.
    Flat(BitLog),
    /// The per-location cursor log.
    Cursors(CursorLog),
}

impl BranchLogger {
    /// An empty logger in the given format.
    pub fn new(format: LogFormat) -> Self {
        match format {
            LogFormat::Flat => BranchLogger::Flat(BitLog::new()),
            LogFormat::PerLocation => BranchLogger::Cursors(CursorLog::new()),
        }
    }

    /// Appends one direction for branch location `loc`, returning the
    /// cost units charged.
    pub fn push(&mut self, loc: u32, taken: bool) -> u64 {
        match self {
            BranchLogger::Flat(l) => l.push(taken),
            BranchLogger::Cursors(l) => l.push(loc, taken),
        }
    }

    /// Total bits recorded.
    pub fn len(&self) -> u64 {
        match self {
            BranchLogger::Flat(l) => l.len(),
            BranchLogger::Cursors(l) => l.len(),
        }
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Buffer flushes performed.
    pub fn flushes(&self) -> u64 {
        match self {
            BranchLogger::Flat(l) => l.flushes(),
            BranchLogger::Cursors(l) => l.flushes(),
        }
    }

    /// Branch locations with at least one recorded bit (0 under flat —
    /// the flat format keeps no per-location table).
    pub fn n_locations(&self) -> usize {
        match self {
            BranchLogger::Flat(_) => 0,
            BranchLogger::Cursors(l) => l.n_locations(),
        }
    }

    /// Extra instrumentation units spent on cursor maintenance (0 under
    /// flat) — the spend counter behind the tables' spend column.
    pub fn spend_units(&self) -> u64 {
        match self {
            BranchLogger::Flat(_) => 0,
            BranchLogger::Cursors(l) => l.spend_units(),
        }
    }

    /// Finalizes into the shippable trace.
    pub fn finish(self) -> TraceLog {
        match self {
            BranchLogger::Flat(l) => TraceLog::Flat(l.finish()),
            BranchLogger::Cursors(l) => TraceLog::Cursors(l.finish()),
        }
    }
}

/// Concrete host with branch + syscall logging per an instrumentation
/// [`Plan`].
#[derive(Debug)]
pub struct LoggingHost {
    /// The kernel backing this run.
    pub kernel: Kernel,
    /// The instrumentation plan (what to log).
    pub plan: Plan,
    /// The branch log being accumulated, in the plan's format.
    pub log: BranchLogger,
    /// The syscall-result log being accumulated.
    pub syscalls: SyscallLog,
    /// Captured stdout.
    pub stdout: Vec<u8>,
    /// Executions of instrumented branches (Figure 4's count metric).
    pub instrumented_execs: u64,
    /// Executions of suppressed branches: branches the plan *observes*
    /// but never pays a log bit for, because replay reconstructs their
    /// outcome from the implying branch ([`Plan::suppresses`]).
    pub suppressed_execs: u64,
    /// Syscall-anchored cursor checkpoints: one snapshot of every
    /// location's stream length per logged syscall, recorded only when
    /// [`Plan::checkpoints`] is set under the per-location format.
    pub checkpoints: Vec<Vec<(u32, u64)>>,
}

impl LoggingHost {
    /// Creates a logging host.
    pub fn new(kernel: Kernel, plan: Plan) -> Self {
        let log = BranchLogger::new(plan.format);
        LoggingHost {
            kernel,
            plan,
            log,
            syscalls: SyscallLog::new(),
            stdout: Vec::new(),
            instrumented_execs: 0,
            suppressed_execs: 0,
            checkpoints: Vec::new(),
        }
    }
}

impl Host for LoggingHost {
    type V = ();

    fn on_branch(
        &mut self,
        bid: BranchId,
        _cond: (i64, &()),
        taken: bool,
        _loc: Loc,
    ) -> Result<u64, HostStop> {
        if self.plan.covers(bid) {
            self.instrumented_execs += 1;
            Ok(self.log.push(bid.0, taken))
        } else {
            if self.plan.suppresses(bid).is_some() {
                // Observed but not logged: the bit is implied by an
                // earlier branch, so deployment pays nothing here.
                self.suppressed_execs += 1;
            }
            Ok(0)
        }
    }

    fn syscall(
        &mut self,
        sys: Sys,
        args: &[(i64, ())],
        mem: &mut Memory<()>,
        meter: &mut Meter,
    ) -> Result<(i64, ()), HostStop> {
        let raw: Vec<i64> = args.iter().map(|a| a.0).collect();
        let eff = self
            .kernel
            .dispatch(sys, &raw, mem)
            .map_err(|f| HostStop::Crash(CrashKind::Mem(f)))?;
        apply_effect(&eff, mem).map_err(|f| HostStop::Crash(CrashKind::Mem(f)))?;
        if let Some(out) = &eff.stdout {
            self.stdout.extend_from_slice(out);
        }
        if self.plan.log_syscalls && is_logged(sys) {
            // Only control metadata: return values and select's ready
            // flags. Input bytes are never logged.
            let flags = if sys == Sys::Select {
                eff.writes
                    .first()
                    .map(|w| w.values.clone())
                    .unwrap_or_default()
            } else {
                Vec::new()
            };
            let rec = SysRecord {
                sys,
                ret: eff.ret,
                flags,
            };
            // A running total: re-summing the whole log at every logged
            // syscall made a long serve quadratic in its syscall count.
            meter.syscall_log_bytes += rec.wire_bytes();
            let cost = self.syscalls.push(rec);
            meter.charge_instrumentation(cost);
            if self.plan.checkpoints {
                if let BranchLogger::Cursors(l) = &self.log {
                    // Syscall-anchored cursor checkpoint: snapshot every
                    // stream's length, charging one cursor-table read per
                    // entry. Anchoring to *logged* syscalls keeps the
                    // record index aligned with the syscall log replay
                    // already follows.
                    let snap = l.positions();
                    meter.charge_instrumentation(minic::cost::CURSOR_STEP_COST * snap.len() as u64);
                    self.checkpoints.push(snap);
                }
            }
        }
        if let Some(sig) = self.kernel.take_pending_signal() {
            return Err(HostStop::Crash(CrashKind::Signal(sig)));
        }
        Ok((eff.ret, ()))
    }

    fn output(&mut self, bytes: &[u8]) {
        self.stdout.extend_from_slice(bytes);
    }
}

/// The artifact shipped from the user site to the developer (§3.1): the
/// crash site, the branch bitvector, and the syscall-result log. The
/// instrumented-branch *list* is not shipped — the developer retained it
/// at build time (it is the [`Plan`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BugReport {
    /// Where and why the program crashed.
    pub crash: CrashInfo,
    /// The partial branch trace (flat, or per-location cursor streams).
    pub trace: TraceLog,
    /// Extra instrumentation units the cursor format spent at the user
    /// site (0 under flat) — ships as metadata so the developer-side
    /// tables can report the spend without re-running the deployment.
    pub cursor_spend_units: u64,
    /// Logged syscall results (empty when disabled).
    pub syscalls: SyscallLog,
    /// Syscall-anchored cursor checkpoints: `checkpoints[k]` snapshots
    /// every location's stream length right after the `k`-th logged
    /// syscall. Empty unless the plan's checkpoint escalation rule was
    /// active ([`Plan::checkpoints`]).
    pub checkpoints: Vec<Vec<(u32, u64)>>,
    /// Which method produced the instrumentation (metadata).
    pub method: Method,
}

impl BugReport {
    /// Packages a report after a crash.
    pub fn capture(host: LoggingHost, crash: CrashInfo) -> BugReport {
        let cursor_spend_units = host.log.spend_units();
        BugReport {
            crash,
            trace: host.log.finish(),
            cursor_spend_units,
            syscalls: host.syscalls,
            checkpoints: host.checkpoints,
            method: host.plan.method,
        }
    }

    /// Total transfer size in bytes before compression (the cursor
    /// format counts its compact on-wire encoding; checkpoints ship
    /// varint-packed).
    pub fn transfer_bytes(&self) -> u64 {
        self.trace.bytes() + self.syscalls.bytes() + checkpoints_wire_bytes(&self.checkpoints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::DynLabel;
    use minic::build;
    use minic::vm::{RunOutcome, Vm};
    use oskit::{KernelConfig, SignalPlan};

    const SRC: &str = r#"
        int main(int argc, char **argv) {
            int n = 0;
            for (int i = 0; i < 8; i++) {       // b0: loop condition
                if (argv[1][0] == 'x') {        // b1: input test
                    n++;
                }
            }
            sys_time();
            return n;
        }
    "#;

    fn run_with_plan(plan: Plan, arg: &[u8]) -> (RunOutcome, LoggingHost, Meter) {
        let cp = build(&[("main", SRC)]).unwrap();
        let host = LoggingHost::new(Kernel::new(KernelConfig::default()), plan);
        let mut vm = Vm::new(&cp, host);
        let out = vm.run(&[b"prog".to_vec(), arg.to_vec()]);
        let meter = vm.meter.clone();
        (out, vm.host, meter)
    }

    #[test]
    fn all_branches_logs_every_execution() {
        let plan = Plan::build(
            Method::AllBranches,
            &[DynLabel::Unvisited; 2],
            &[false; 2],
            2,
        );
        let (out, host, _) = run_with_plan(plan, b"x");
        assert_eq!(out, RunOutcome::Exited(8));
        // Loop: 9 evaluations (8 taken + 1 exit); if: 8 evaluations.
        assert_eq!(host.log.len(), 17);
        assert_eq!(host.instrumented_execs, 17);
    }

    #[test]
    fn partial_plan_logs_subset() {
        // Only the input-dependent branch (b1).
        let plan = Plan {
            method: Method::Dynamic,
            instrumented: vec![false, true],
            log_syscalls: true,
            ..Plan::none(2)
        };
        let (_, host, _) = run_with_plan(plan, b"x");
        assert_eq!(host.log.len(), 8);
    }

    #[test]
    fn logged_bits_encode_directions() {
        let plan = Plan {
            method: Method::Dynamic,
            instrumented: vec![false, true],
            ..Plan::none(2)
        };
        let (_, host, _) = run_with_plan(plan.clone(), b"x");
        let trace = host.log.finish();
        let trace = trace.as_flat().expect("flat plan ships a flat trace");
        // 'x' matches: all 8 bits taken.
        assert!((0..8).all(|i| trace.get(i) == Some(true)));
        let (_, host2, _) = run_with_plan(plan, b"y");
        let trace2 = host2.log.finish();
        let trace2 = trace2.as_flat().unwrap();
        assert!((0..8).all(|i| trace2.get(i) == Some(false)));
    }

    #[test]
    fn cursor_format_splits_the_log_by_location_and_records_spend() {
        // Same program, same coverage, per-location format: the loop
        // condition (b0) and the input test (b1) land in separate
        // streams instead of interleaving in one bitvector.
        let plan = Plan::build(
            Method::AllBranches,
            &[DynLabel::Unvisited; 2],
            &[false; 2],
            2,
        )
        .with_format(LogFormat::PerLocation);
        let (out, host, meter) = run_with_plan(plan, b"x");
        assert_eq!(out, RunOutcome::Exited(8));
        assert_eq!(host.log.len(), 17, "same bit count as flat");
        assert_eq!(host.log.n_locations(), 2);
        assert_eq!(
            host.log.spend_units(),
            17 * minic::cost::CURSOR_STEP_COST,
            "every cursored bit charges the indirection"
        );
        assert!(
            meter.instrumentation_units
                >= 17 * (minic::cost::BRANCH_LOG_COST + minic::cost::CURSOR_STEP_COST),
            "the spend reaches the cost model"
        );
        let trace = host.log.finish();
        let c = trace.as_cursors().expect("cursor plan ships cursors");
        // Loop: 8 taken + 1 exit; if: 8 taken ('x' matches every time).
        assert_eq!(c.stream(0).unwrap().len(), 9);
        assert_eq!(c.stream(0).unwrap().get(8), Some(false));
        assert_eq!(c.stream(1).unwrap().len(), 8);
        assert!((0..8).all(|i| c.stream(1).unwrap().get(i) == Some(true)));
    }

    #[test]
    fn checkpoints_snapshot_cursor_positions_at_logged_syscalls() {
        let mut plan = Plan::build(
            Method::AllBranches,
            &[DynLabel::Unvisited; 2],
            &[false; 2],
            2,
        )
        .with_format(LogFormat::PerLocation);
        plan.checkpoints = true;
        plan.generation = 2;
        let (_, host, meter) = run_with_plan(plan.clone(), b"x");
        // The single sys_time fires after the whole loop: one snapshot,
        // loop stream at 9 bits (8 taken + exit), if stream at 8.
        assert_eq!(host.checkpoints.len(), 1);
        assert_eq!(host.checkpoints[0], vec![(0, 9), (1, 8)]);
        // The snapshot charges the cursor-table reads.
        assert!(
            meter.instrumentation_units
                >= 17 * (minic::cost::BRANCH_LOG_COST + minic::cost::CURSOR_STEP_COST)
                    + 2 * minic::cost::CURSOR_STEP_COST
        );
        let report = BugReport::capture(
            host,
            CrashInfo {
                kind: CrashKind::Signal(11),
                loc: Loc::default(),
                func: "main".into(),
            },
        );
        assert!(
            report.transfer_bytes() > report.trace.bytes() + report.syscalls.bytes(),
            "checkpoints count toward the transfer size"
        );
        let json = serde_json::to_string(&report).unwrap();
        let back: BugReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.checkpoints, report.checkpoints);

        // Without the escalation rule nothing is recorded.
        plan.checkpoints = false;
        let (_, host2, _) = run_with_plan(plan, b"x");
        assert!(host2.checkpoints.is_empty());
    }

    #[test]
    fn instrumentation_cost_is_charged() {
        let all = Plan::build(
            Method::AllBranches,
            &[DynLabel::Unvisited; 2],
            &[false; 2],
            2,
        );
        let (_, _, meter_all) = run_with_plan(all, b"x");
        let none = Plan::none(2);
        let (_, _, meter_none) = run_with_plan(none, b"x");
        assert!(meter_all.units > meter_none.units);
        assert!(
            meter_all.instrumentation_units >= 17 * 17,
            "17 branch executions at 17 units each"
        );
        assert_eq!(meter_none.instrumentation_units, 0);
    }

    #[test]
    fn syscall_results_are_logged_when_enabled() {
        let plan = Plan {
            method: Method::Static,
            instrumented: vec![true, true],
            log_syscalls: true,
            ..Plan::none(2)
        };
        let (_, host, meter) = run_with_plan(plan, b"a");
        assert_eq!(host.syscalls.len(), 1); // the sys_time call
        assert_eq!(host.syscalls.records[0].sys, Sys::Time);
        assert_eq!(meter.syscall_log_bytes, host.syscalls.bytes());

        // Several logged calls, select's ready flags among them, between
        // unlogged ones: the meter's running total must equal the size
        // of the log that ships.
        let src = r#"
            int main(int argc, char **argv) {
                int fds[3];
                int ready[3];
                fds[0] = 0;
                fds[1] = 1;
                fds[2] = 2;
                for (int i = 0; i < 4; i++) {
                    sys_select(fds, 3, ready);
                    sys_getuid();
                    sys_time();
                }
                sys_rand();
                return 0;
            }
        "#;
        let cp = build(&[("main", src)]).unwrap();
        let plan = Plan {
            log_syscalls: true,
            ..Plan::none(cp.n_branches())
        };
        let host = LoggingHost::new(Kernel::new(KernelConfig::default()), plan);
        let mut vm = Vm::new(&cp, host);
        assert_eq!(vm.run(&[b"prog".to_vec()]), RunOutcome::Exited(0));
        let log = &vm.host.syscalls;
        let kinds: Vec<Sys> = log.records.iter().map(|r| r.sys).collect();
        let round = [Sys::Select, Sys::Time];
        assert_eq!(
            kinds,
            [&round[..], &round, &round, &round, &[Sys::Rand]].concat()
        );
        assert!(log
            .records
            .iter()
            .filter(|r| r.sys == Sys::Select)
            .all(|r| r.flags.len() == 3));
        assert!(log.bytes() > 4 * (1 + 1 + 3), "flags and wide values count");
        assert_eq!(vm.meter.syscall_log_bytes, log.bytes());
    }

    #[test]
    fn bug_report_captures_crash_and_logs() {
        let src = r#"
            int main(int argc, char **argv) {
                int i;
                for (i = 0; i < 100; i++) { sys_getuid(); }
                return 0;
            }
        "#;
        let cp = build(&[("main", src)]).unwrap();
        let kcfg = KernelConfig {
            signal_plan: Some(SignalPlan {
                sig: 11,
                after_all_conns_served: false,
                after_n_syscalls: Some(10),
            }),
            ..KernelConfig::default()
        };
        let plan = Plan::build(Method::AllBranches, &[DynLabel::Unvisited], &[false], 1);
        let host = LoggingHost::new(Kernel::new(kcfg), plan);
        let mut vm = Vm::new(&cp, host);
        let out = vm.run(&[b"prog".to_vec()]);
        let crash = out.crash().expect("signal crash").clone();
        let report = BugReport::capture(vm.host, crash.clone());
        assert_eq!(report.crash, crash);
        assert_eq!(report.trace.len(), 10, "10 loop evaluations before sig");
        assert!(report.transfer_bytes() > 0);
        // Roundtrip: the report is a serializable artifact.
        let json = serde_json::to_string(&report).unwrap();
        let back: BugReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn report_never_contains_input_bytes() {
        // Privacy: a distinctive input string must not appear in the
        // serialized report.
        let plan = Plan::build(
            Method::AllBranches,
            &[DynLabel::Unvisited; 2],
            &[false; 2],
            2,
        );
        let cp = build(&[("main", SRC)]).unwrap();
        let host = LoggingHost::new(Kernel::new(KernelConfig::default()), plan);
        let mut vm = Vm::new(&cp, host);
        let secret = b"SECRETPASSWORD";
        vm.run(&[b"prog".to_vec(), secret.to_vec()]);
        let report = BugReport::capture(
            vm.host,
            CrashInfo {
                kind: CrashKind::Signal(11),
                loc: Loc::default(),
                func: "main".into(),
            },
        );
        let json = serde_json::to_string(&report).unwrap();
        assert!(!json.contains("SECRETPASSWORD"));
    }
}
