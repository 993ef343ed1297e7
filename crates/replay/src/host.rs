//! The replay host: log-guided symbolic execution (§3.1).
//!
//! A concolic host (like the analysis engine's) that additionally follows
//! the shipped branch log. At every executed branch the four cases of
//! §3.1 apply:
//!
//! 1. **symbolic, not instrumented** — record the constraint, keep going
//!    (the engine may later negate it: pending set);
//! 2. **symbolic, instrumented** — compare against the next log bit; on
//!    mismatch, abort the run and queue the prefix plus the constraint
//!    *forcing the recorded direction*;
//! 3. **concrete, instrumented** — compare; mismatch aborts (an earlier
//!    uninstrumented symbolic branch went the wrong way);
//! 4. **concrete, not instrumented** — proceed, log untouched.
//!
//! "The next log bit" depends on the report's [`instrument::TraceLog`]
//! format, read through [`LogReader`]: the flat bitvector advances one
//! global position; the per-location format advances the executing
//! branch location's own cursor, so a trip-count error at an unlogged
//! loop surfaces as a *local* mismatch at the first affected location
//! instead of hundreds of coincidentally-agreeing bits downstream.

use crate::env::{ReplayEnv, SyscallDivergence};
use crate::reader::LogReader;
use concolic::{
    concretization_step, map_binop, map_unop, Concretization, InputVars, PathStep, PtrComponent,
    SymV,
};
use instrument::Plan;
use minic::ast::{BinOp, UnOp};
use minic::cost::Meter;
use minic::memory::Memory;
use minic::types::Sys;
use minic::vm::{CrashKind, Host, HostStop, PtrRegion};
use minic::{BranchId, Loc};
use solver::{Constraint, ExprArena, ExprRef, Op, VarId, VarInfo};
use std::collections::BTreeSet;

/// Host abort reason marking successful arrival at the crash site.
pub const REACHED_CRASH_SITE: &str = "__reached_crash_site__";

/// Host abort reason for branch-direction divergence (cases 2b/3b).
pub const BRANCH_DIVERGENCE: &str = "branch direction diverges from log";

/// Host abort reason for syscall-order divergence.
pub const SYSCALL_DIVERGENCE: &str = "syscall order diverges from log";

/// Host abort reason for a per-location stream overrun: an instrumented
/// branch executed more times than its recorded stream holds while other
/// locations still have unconsumed bits. The recorded run executed that
/// location exactly stream-length times in its *entire* execution, so a
/// candidate that overruns is structurally wrong — usually an unlogged
/// loop exit taken the wrong way. Only the per-location format can see
/// this; the flat format must read exhaustion as "recording stopped".
pub const CURSOR_OVERRUN: &str = "per-location stream overrun";

/// Host abort reason for a violated branch implication: a suppressed
/// branch executed before the branch that implies it. The static pass
/// proves strict dominance, so on a sound analysis this cannot happen;
/// like [`CURSOR_OVERRUN`] it is surfaced as its own abort string so a
/// soundness bug is never misread as an ordinary log divergence.
pub const IMPLICATION_VIOLATION: &str = "branch implication violated";

/// Host abort reason for a syscall-anchored checkpoint divergence: at a
/// logged syscall boundary some location's cursor position differs from
/// the snapshot the recording run took at the same boundary. The
/// candidate is structurally off the recorded path *right here* — the
/// escalated report pins where every cursor stood between divergences,
/// so replay resynchronizes locally instead of deriving the mistake
/// byte by byte downstream. Only escalated plans
/// ([`instrument::Plan::checkpoints`]) ship the snapshots.
pub const CHECKPOINT_DIVERGENCE: &str = "cursor checkpoint diverges at syscall boundary";

/// Per-run statistics of a replay attempt.
#[derive(Debug, Clone, Default)]
pub struct ReplayRunStats {
    /// Log bits consumed.
    pub bits_consumed: u64,
    /// Symbolic branch executions that were instrumented.
    pub sym_logged_execs: u64,
    /// Symbolic branch executions that were not instrumented (each one
    /// is a potential fork point for the search).
    pub sym_unlogged_execs: u64,
    /// Concrete instrumented executions (consume bits, catch divergence).
    pub concrete_logged_execs: u64,
    /// Whether the run ended in a 2(b) forced-direction abort.
    pub forced_abort: bool,
    /// The branch the run diverged at, with whether its condition was
    /// symbolic (`true` = case 2(b), `false` = case 3(b)).
    pub divergent_branch: Option<(u32, bool)>,
    /// Under the per-location format: the (location, bit index) that
    /// diverged — the mismatching bit on a 2(b)/3(b), or one past the
    /// recorded stream on an overrun. `None` under flat (or no
    /// divergence). This keys the forced-set repair per location.
    pub divergent_cursor: Option<(u32, u64)>,
    /// Whether the run aborted on a per-location stream overrun.
    pub cursor_overrun: bool,
    /// Concretizations emitted as offset-generalizing ranges this run.
    pub concretization_ranges: u64,
    /// Concretizations pinned at emission this run.
    pub concretization_pins: u64,
    /// Suppressed-branch executions whose recorded bit was reconstructed
    /// from the implying branch's outcome instead of the shipped log
    /// (deployment paid nothing for these).
    pub reconstructed_bits: u64,
    /// Whether the run aborted on [`IMPLICATION_VIOLATION`].
    pub implication_violation: bool,
    /// Whether the run aborted on [`CHECKPOINT_DIVERGENCE`].
    pub checkpoint_divergence: bool,
    /// Branch locations whose shipped log bits this run consumed — the
    /// escalation loop drops instrumented locations no run ever reads.
    /// Filled from the log reader when the run ends.
    pub consulted: BTreeSet<u32>,
}

/// The replay host. It borrows what every run of a reproduction only
/// reads (the plan, the indexed log, the input variables and the
/// checkpoints) and owns what one run mutates.
pub struct ReplayHost<'s> {
    /// Expression arena (session-wide).
    pub arena: ExprArena,
    /// The developer-site environment.
    pub env: ReplayEnv,
    /// The instrumentation plan (retained by the developer).
    pub plan: &'s Plan,
    /// This run's reader over the shipped branch log: one flat
    /// position, or one cursor per branch location.
    pub log: LogReader<'s>,
    /// Input variable tables.
    pub vars: &'s InputVars,
    /// Path condition of this run.
    pub path: Vec<PathStep>,
    /// Captured stdout.
    pub stdout: Vec<u8>,
    /// Run statistics.
    pub stats: ReplayRunStats,
    /// How symbolic address components are concretized.
    pub concretization: Concretization,
    /// The crash site to reach.
    pub crash_loc: Loc,
    /// Most recent outcome of every executed branch location this run —
    /// the source the implication reconstruction reads from when a
    /// suppressed branch executes.
    pub last_taken: Vec<Option<bool>>,
    /// Syscall-anchored cursor snapshots from the report (empty unless
    /// the plan's checkpoint escalation rule was active). `checkpoints
    /// [k]` is every location's recorded stream length right after the
    /// `k`-th logged syscall; set by the engine after construction.
    pub checkpoints: &'s [Vec<(u32, u64)>],
    /// Logged syscalls executed so far this run (indexes `checkpoints`).
    pub logged_syscalls: usize,
}

impl<'s> ReplayHost<'s> {
    /// Creates a replay host for one run.
    pub fn new(
        arena: ExprArena,
        env: ReplayEnv,
        plan: &'s Plan,
        log: LogReader<'s>,
        vars: &'s InputVars,
        crash_loc: Loc,
    ) -> Self {
        let last_taken = vec![None; plan.instrumented.len()];
        ReplayHost {
            arena,
            env,
            plan,
            log,
            vars,
            path: Vec::new(),
            stdout: Vec::new(),
            stats: ReplayRunStats::default(),
            concretization: Concretization::default(),
            crash_loc,
            last_taken,
            checkpoints: &[],
            logged_syscalls: 0,
        }
    }

    fn lift(&mut self, v: i64, s: &SymV) -> ExprRef {
        match s {
            Some(e) => *e,
            None => self.arena.constant(v),
        }
    }

    fn next_bit(&mut self, bid: BranchId) -> Option<bool> {
        let b = self.log.next_bit(bid.0)?;
        self.stats.bits_consumed += 1;
        Some(b)
    }

    /// Records where a divergence happened: under the per-location
    /// format, the (location, cursor) of the offending bit index.
    /// `consumed` distinguishes a mismatch (the cursor advanced past
    /// the bit, so it sits at position − 1) from an overrun (nothing
    /// was consumed: the offending index IS the current position, one
    /// past the recorded stream) — without it the two stall identities
    /// would collide at the stream's final bit.
    fn note_divergence(&mut self, bid: BranchId, symbolic: bool, consumed: bool) {
        self.stats.divergent_branch = Some((bid.0, symbolic));
        if self.log.per_location() {
            let pos = self.log.position(bid.0);
            let pos = if consumed { pos.saturating_sub(1) } else { pos };
            self.stats.divergent_cursor = Some((bid.0, pos));
        }
    }

    /// True once every shipped bit has been consumed.
    pub fn log_exhausted(&self) -> bool {
        self.log.exhausted()
    }

    /// True when a per-location stream just ran out while the rest of
    /// the log still holds bits — the overrun divergence signal. Always
    /// false under the flat format (one stream: its end IS the log's).
    fn overrun(&self) -> bool {
        self.log.per_location() && !self.log_exhausted()
    }

    /// The solver variable backing model event `k` (allocated on first
    /// use; event order is stable across runs with a common prefix, which
    /// gives the variables cross-run identity).
    fn model_var(&mut self, k: usize, lo: i64, hi: i64) -> ExprRef {
        let idx = self.vars.n_controllable as usize + k;
        while self.arena.n_vars() <= idx {
            self.arena.fresh_var(VarInfo::range(lo, hi));
        }
        self.arena.var_expr(VarId(idx as u32))
    }

    fn divergence(&self) -> HostStop {
        HostStop::Abort(BRANCH_DIVERGENCE.to_string())
    }

    /// Verifies the next syscall-anchored cursor checkpoint (no-op when
    /// the report ships none). At the `k`-th logged syscall every
    /// location's cursor must sit exactly where the recording run's
    /// snapshot says it sat; any difference means the candidate is off
    /// the recorded path *at this boundary*, so the run aborts with a
    /// local stall identity instead of coincidentally-agreeing onward.
    fn check_checkpoint(&mut self) -> Result<(), HostStop> {
        if self.checkpoints.is_empty() {
            return Ok(());
        }
        let k = self.logged_syscalls;
        self.logged_syscalls += 1;
        let Some(snapshot) = self.checkpoints.get(k) else {
            // More logged syscalls than the recording run: recording
            // stopped at the crash, explore freely (mirrors the flat
            // log's end-of-log semantics).
            return Ok(());
        };
        for &(loc, expected) in snapshot {
            let got = self.log.position(loc);
            if got != expected {
                self.stats.checkpoint_divergence = true;
                // Stall identity: the first bit index the two runs
                // disagree about at this location.
                self.stats.divergent_cursor = Some((loc, expected.min(got)));
                self.stats.divergent_branch = Some((loc, false));
                return Err(HostStop::Abort(CHECKPOINT_DIVERGENCE.to_string()));
            }
        }
        Ok(())
    }
}

impl Host for ReplayHost<'_> {
    type V = SymV;

    fn shadow_binop(&mut self, op: BinOp, a: (i64, &SymV), b: (i64, &SymV), _out: i64) -> SymV {
        if a.1.is_none() && b.1.is_none() {
            return None;
        }
        let ea = self.lift(a.0, a.1);
        let eb = self.lift(b.0, b.1);
        Some(self.arena.bin(map_binop(op), ea, eb))
    }

    fn shadow_unop(&mut self, op: UnOp, a: (i64, &SymV), _out: i64) -> SymV {
        let e = (*a.1)?;
        Some(self.arena.un(map_unop(op), e))
    }

    fn shadow_mask_char(&mut self, a: (i64, &SymV), _out: i64) -> SymV {
        let e = (*a.1)?;
        Some(self.arena.mask_char(e))
    }

    fn shadow_bool(&mut self, a: (i64, &SymV), _out: i64) -> SymV {
        let e = (*a.1)?;
        Some(self.arena.boolify(e))
    }

    fn shadow_ptr_add(
        &mut self,
        ptr: (i64, &SymV),
        idx: (i64, &SymV),
        stride: u32,
        _out: i64,
        region: Option<PtrRegion>,
    ) -> SymV {
        for (component, (val, sh), other) in [
            (PtrComponent::Base, ptr, idx.0),
            (PtrComponent::Index, idx, ptr.0),
        ] {
            if let Some(e) = sh {
                let step = concretization_step(
                    &mut self.arena,
                    self.concretization,
                    *e,
                    val,
                    component,
                    stride,
                    other,
                    region,
                );
                if matches!(step.constraint, Constraint::Range(_)) {
                    self.stats.concretization_ranges += 1;
                } else {
                    self.stats.concretization_pins += 1;
                }
                self.path.push(step);
            }
        }
        None
    }

    fn shadow_ptr_diff(
        &mut self,
        a: (i64, &SymV),
        b: (i64, &SymV),
        stride: u32,
        _out: i64,
    ) -> SymV {
        if a.1.is_none() && b.1.is_none() {
            return None;
        }
        let ea = self.lift(a.0, a.1);
        let eb = self.lift(b.0, b.1);
        let diff = self.arena.bin(Op::Sub, ea, eb);
        let s = self.arena.constant(stride.max(1) as i64);
        Some(self.arena.bin(Op::Div, diff, s))
    }

    fn on_branch(
        &mut self,
        bid: BranchId,
        cond: (i64, &SymV),
        taken: bool,
        _loc: Loc,
    ) -> Result<u64, HostStop> {
        // Every executed branch records its outcome: a later suppressed
        // branch may reconstruct from it (chains stay sound because a
        // suppressed implier got ITS outcome reconstructed first).
        let idx = bid.0 as usize;
        if idx >= self.last_taken.len() {
            self.last_taken.resize(idx + 1, None);
        }
        self.last_taken[idx] = Some(taken);

        // Suppressed branch: deployment paid no log bit here, so no bit
        // is consumed — the recorded outcome is reconstructed from the
        // implying branch's most recent execution instead.
        if let Some(sup) = self.plan.suppresses(bid) {
            let by_taken = match self.last_taken.get(sup.by.0 as usize).copied().flatten() {
                Some(t) => t,
                None => {
                    self.stats.implication_violation = true;
                    return Err(HostStop::Abort(IMPLICATION_VIOLATION.to_string()));
                }
            };
            let implied = by_taken ^ sup.negated;
            self.stats.reconstructed_bits += 1;
            if taken == implied {
                // Agreement (the only outcome a sound implication can
                // produce, since it holds on EVERY execution). A
                // symbolic condition still joins the path condition so
                // candidate inputs keep satisfying it.
                if let Some(e) = cond.1 {
                    self.path.push(PathStep::branch(bid, *e, taken));
                }
                return Ok(0);
            }
            // Defensive mismatch handling, mirroring cases 2(b)/3(b).
            // There is no recorded stream for this location, so
            // `divergent_cursor` stays `None` — the per-location repair
            // machinery has nothing to key on here.
            self.stats.divergent_branch = Some((bid.0, cond.1.is_some()));
            if let Some(e) = cond.1 {
                self.path.push(PathStep::branch(bid, *e, implied));
                self.stats.forced_abort = true;
            }
            return Err(self.divergence());
        }

        let symbolic = cond.1.is_some();
        let instrumented = self.plan.covers(bid);
        match (symbolic, instrumented) {
            // Case 1: symbolic, not instrumented.
            (true, false) => {
                self.stats.sym_unlogged_execs += 1;
                let e = cond.1.expect("symbolic condition has a shadow");
                self.path.push(PathStep::branch(bid, e, taken));
                Ok(0)
            }
            // Case 2: symbolic, instrumented.
            (true, true) => {
                self.stats.sym_logged_execs += 1;
                let e = *cond.1.as_ref().expect("symbolic condition has a shadow");
                match self.next_bit(bid) {
                    // This location's bits ran out. Whole log exhausted
                    // (recording stopped at the crash): explore freely.
                    // One stream overrun while others still hold bits:
                    // the candidate executes this location more often
                    // than the recorded run ever did — abort, and let
                    // the engine flip the most recent unlogged decision
                    // (usually the loop exit that overshot).
                    None => {
                        if self.overrun() {
                            self.stats.cursor_overrun = true;
                            self.note_divergence(bid, true, false);
                            return Err(HostStop::Abort(CURSOR_OVERRUN.to_string()));
                        }
                        self.path.push(PathStep::branch(bid, e, taken));
                        Ok(0)
                    }
                    Some(recorded) if recorded == taken => {
                        // Case 2(a): agreement.
                        self.path.push(PathStep::branch(bid, e, taken));
                        Ok(0)
                    }
                    Some(recorded) => {
                        // Case 2(b): mismatch — append the constraint
                        // forcing the *recorded* direction and abort; the
                        // engine queues this path as a pending set.
                        self.path.push(PathStep::branch(bid, e, recorded));
                        self.stats.forced_abort = true;
                        self.note_divergence(bid, true, true);
                        Err(self.divergence())
                    }
                }
            }
            // Case 3: concrete, instrumented.
            (false, true) => {
                self.stats.concrete_logged_execs += 1;
                match self.next_bit(bid) {
                    None => {
                        if self.overrun() {
                            self.stats.cursor_overrun = true;
                            self.note_divergence(bid, false, false);
                            return Err(HostStop::Abort(CURSOR_OVERRUN.to_string()));
                        }
                        Ok(0)
                    }
                    Some(recorded) if recorded == taken => Ok(0),
                    Some(_) => {
                        // Case 3(b): an earlier uninstrumented symbolic
                        // branch went the wrong way — abort, backtrack.
                        self.note_divergence(bid, false, true);
                        Err(self.divergence())
                    }
                }
            }
            // Case 4: concrete, not instrumented.
            (false, false) => Ok(0),
        }
    }

    fn on_watch_loc(&mut self, _loc: Loc) -> Result<(), HostStop> {
        // Reaching the crash site with the whole branch log AND syscall
        // log consumed is the success criterion for externally crashed
        // executions (the crash happened after the last logged event).
        if self.log_exhausted() && self.env.log_exhausted() {
            Err(HostStop::Abort(REACHED_CRASH_SITE.to_string()))
        } else {
            Ok(())
        }
    }

    fn syscall(
        &mut self,
        sys: Sys,
        args: &[(i64, SymV)],
        mem: &mut Memory<SymV>,
        _meter: &mut Meter,
    ) -> Result<(i64, SymV), HostStop> {
        let a = |i: usize| args.get(i).map(|x| x.0).unwrap_or(0);
        let div = |_e: SyscallDivergence| HostStop::Abort(SYSCALL_DIVERGENCE.to_string());
        let mem_fault = |f: minic::memory::MemFault| HostStop::Crash(CrashKind::Mem(f));
        match sys {
            Sys::Read => {
                let r = self.env.read(a(0), a(2)).map_err(div)?;
                self.check_checkpoint()?;
                if let Some((kind, start)) = &r.stream {
                    for (i, b) in r.bytes.iter().enumerate() {
                        let shadow: SymV = self
                            .vars
                            .var_for(kind, start + i)
                            .map(|vid| self.arena.var_expr(vid));
                        mem.store(a(1).wrapping_add(i as i64), *b as i64, shadow)
                            .map_err(mem_fault)?;
                    }
                }
                let ret_shadow: SymV = r.model_event.map(|(k, lo, hi)| self.model_var(k, lo, hi));
                Ok((r.ret, ret_shadow))
            }
            Sys::Select => {
                let n = a(1).clamp(0, 64) as usize;
                let mut fds = Vec::with_capacity(n);
                for i in 0..n {
                    let (v, _) = mem.load(a(0).wrapping_add(i as i64)).map_err(mem_fault)?;
                    fds.push(v);
                }
                let r = self.env.select(&fds).map_err(div)?;
                self.check_checkpoint()?;
                for (i, flag) in r.flags.iter().enumerate() {
                    let shadow: SymV = r
                        .flag_events
                        .get(i)
                        .copied()
                        .flatten()
                        .map(|(k, lo, hi)| self.model_var(k, lo, hi));
                    mem.store(a(2).wrapping_add(i as i64), *flag, shadow)
                        .map_err(mem_fault)?;
                }
                let ret_shadow: SymV = r.ret_event.map(|(k, lo, hi)| self.model_var(k, lo, hi));
                Ok((r.ret, ret_shadow))
            }
            Sys::Accept => {
                let fd = self.env.accept().map_err(div)?;
                self.check_checkpoint()?;
                Ok((fd, None))
            }
            Sys::Socket => Ok((self.env.socket(), None)),
            Sys::Bind | Sys::Listen => Ok((0, None)),
            Sys::Open => {
                let path = mem.read_cstr(a(0), 4096).map_err(mem_fault)?;
                Ok((self.env.open(&path, a(1)), None))
            }
            Sys::Close => Ok((self.env.close(a(0)), None)),
            Sys::Write => {
                let n = a(2).clamp(0, 1 << 20) as usize;
                let bytes = mem.read_bytes(a(1), n).map_err(mem_fault)?;
                Ok((self.env.write(a(0), &bytes), None))
            }
            Sys::Mkdir | Sys::Mknod | Sys::Mkfifo | Sys::Stat | Sys::Unlink => {
                let path = mem.read_cstr(a(0), 4096).map_err(mem_fault)?;
                Ok((self.env.fs_call(sys, &path, a(1), a(2)), None))
            }
            Sys::Getuid => Ok((self.env.getuid(), None)),
            Sys::Time => {
                let (v, ev) = self.env.time().map_err(div)?;
                self.check_checkpoint()?;
                let sh: SymV = ev.map(|(k, lo, hi)| self.model_var(k, lo, hi));
                Ok((v, sh))
            }
            Sys::Rand => {
                let (v, ev) = self.env.rand().map_err(div)?;
                self.check_checkpoint()?;
                let sh: SymV = ev.map(|(k, lo, hi)| self.model_var(k, lo, hi));
                Ok((v, sh))
            }
        }
    }

    fn output(&mut self, bytes: &[u8]) {
        self.stdout.extend_from_slice(bytes);
    }
}
