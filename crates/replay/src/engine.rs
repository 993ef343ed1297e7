//! The bug-reproduction engine (§3).
//!
//! Drives replay runs guided by the partial branch trace: each run
//! executes the program on a candidate input; divergence from the log
//! aborts the run and queues a pending constraint set; the solver turns
//! pending sets into new candidate inputs. Reproduction succeeds when a
//! run reaches the recorded crash site (same source location, whole log
//! consumed) or crashes with the recorded crash itself.
//!
//! "We currently use a simple depth-first approach" (§3.2) — scheduling
//! is delegated to the shared frontier ([`search::Frontier`]): pending
//! sets live on a stack by default, with 2(b) forced-direction sets (and
//! the syscall-divergence recovery sets) on a priority lane popped first,
//! which is what makes the log *guide* the search. Breadth-mixed
//! generational order, per-branch quotas and drain restarts are available
//! through [`search::SearchLimits::policy`].

use crate::env::{realize_streams, ReplayEnv, SyscallMode};
use crate::host::{
    ReplayHost, BRANCH_DIVERGENCE, CHECKPOINT_DIVERGENCE, CURSOR_OVERRUN, REACHED_CRASH_SITE,
    SYSCALL_DIVERGENCE,
};
use crate::reader::LogIndex;
use concolic::{Concretization, InputSpec, InputVars, PathStep, StepOrigin};
use instrument::{BugReport, Plan};
use minic::memory::pack;
use minic::vm::{RunOutcome, Vm};
use minic::CompiledProgram;
use oskit::SimFs;
use search::driver::{self, End, GuidedEngine};
use search::{
    seeded_assignment, Frontier, PrefixSigs, RepairTracker, SearchCounters, SearchLimits,
};
use solver::{
    ConstraintSet, ExprArena, FastMap, FastSet, Lit, Node, Op, PrefixCache, SolveCfg, VarId,
};

pub use crate::escalation::{EscalationReport, LocationEscalation};

/// Budget for one reproduction attempt. `max_runs` is the deterministic
/// stand-in for the paper's 1-hour replay timeout. The knob surface
/// shared with `concolic::Budget` lives in [`search::SearchLimits`],
/// embedded behind `Deref` so `budget.max_runs` and friends read and
/// write exactly as before the unification; only the replay default
/// (512 runs — a replay that stops short is useless) differs.
#[derive(Debug, Clone)]
pub struct ReplayBudget {
    /// The shared search knobs (run cap, fuel, wall clock, frontier
    /// caps, policy, workers, prefix cache).
    pub limits: SearchLimits,
    /// How symbolic address components are concretized (offset-
    /// generalizing region bounds by default). Engine-specific: not
    /// part of the shared limits.
    pub concretization: Concretization,
}

impl Default for ReplayBudget {
    fn default() -> Self {
        ReplayBudget {
            limits: SearchLimits::replay(),
            concretization: Concretization::default(),
        }
    }
}

impl std::ops::Deref for ReplayBudget {
    type Target = SearchLimits;
    fn deref(&self) -> &SearchLimits {
        &self.limits
    }
}

impl std::ops::DerefMut for ReplayBudget {
    fn deref_mut(&mut self) -> &mut SearchLimits {
        &mut self.limits
    }
}

impl From<SearchLimits> for ReplayBudget {
    fn from(limits: SearchLimits) -> Self {
        ReplayBudget {
            limits,
            ..ReplayBudget::default()
        }
    }
}

impl From<ReplayBudget> for SearchLimits {
    fn from(b: ReplayBudget) -> Self {
        b.limits
    }
}

/// Configuration of a reproduction attempt.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// The input shape the developer replays against (same shape as the
    /// deployment workload; contents are searched for).
    pub spec: InputSpec,
    /// Replica of the deployment filesystem (concrete parts).
    pub base_fs: SimFs,
    /// Search budget.
    pub budget: ReplayBudget,
    /// Solver configuration.
    pub solve: SolveCfg,
    /// Seed for the initial candidate input.
    pub seed: u64,
    /// Optional starting candidate (controllable assignment). Developers
    /// often have a plausible input at hand (a regression corpus entry,
    /// a sanitized capture); starting the guided search there instead of
    /// from random printables can skip most of the log re-derivation.
    pub initial_hint: Option<Vec<i64>>,
}

impl ReplayConfig {
    /// Default configuration over an input shape.
    pub fn new(spec: InputSpec) -> Self {
        ReplayConfig {
            spec,
            base_fs: SimFs::new(),
            budget: ReplayBudget::default(),
            solve: SolveCfg::default(),
            seed: 11,
            initial_hint: None,
        }
    }
}

/// Outcome of a reproduction attempt. The search counters shared with
/// the analysis live in [`SearchCounters`], embedded behind `Deref`, so
/// `result.runs` and friends read as plain fields.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// True if the bug was reproduced within budget.
    pub reproduced: bool,
    /// Runs, solver calls, cache ledger and frontier counters (including
    /// forced-set repair activations and cutoffs).
    pub counters: SearchCounters,
    /// Total VM instructions across runs (deterministic work metric).
    pub total_instrs: u64,
    /// Total cost units across runs.
    pub total_units: u64,
    /// Wall-clock milliseconds spent.
    pub wall_ms: u64,
    /// The reproducing argv, if found.
    pub witness_argv: Option<Vec<Vec<u8>>>,
    /// The full reproducing assignment (inputs + model values).
    pub witness_assignment: Option<Vec<i64>>,
    /// True if the run or wall budget ran out (the paper's ∞ entries).
    pub timed_out: bool,
    /// True if the frontier drained with budget left (and the policy did
    /// not restart) — a genuinely exhausted search, not a timeout.
    pub exhausted: bool,
    /// Syscall-order divergence aborts survived during the search.
    pub syscall_divergences: u64,
    /// Per-location stream overrun aborts (cursor format only): runs
    /// killed early because one location consumed past its recorded
    /// stream while other bits remained.
    pub cursor_overruns: u64,
    /// Syscall-anchored checkpoint divergence aborts: runs killed at a
    /// logged syscall boundary because some per-location cursor position
    /// disagreed with the recorded snapshot — the same resynchronization
    /// signal as a cursor overrun, caught earlier.
    pub checkpoint_divergences: u64,
    /// Per-branch-location escalation evidence gathered over the whole
    /// search — what the next instrumentation plan generation consumes
    /// (see [`EscalationReport`]).
    pub escalation: EscalationReport,
    /// Concretizations emitted as offset-generalizing ranges, summed
    /// across runs.
    pub concretization_ranges: u64,
    /// Concretizations pinned at emission, summed across runs.
    pub concretization_pins: u64,
    /// Aggregate per-run stats of the last (or successful) run.
    pub last_run_stats: crate::host::ReplayRunStats,
}

impl std::ops::Deref for ReplayResult {
    type Target = SearchCounters;
    fn deref(&self) -> &SearchCounters {
        &self.counters
    }
}

/// The reproduction engine.
pub struct ReplayEngine<'p> {
    cp: &'p CompiledProgram,
    plan: Plan,
    report: BugReport,
    cfg: ReplayConfig,
}

impl<'p> ReplayEngine<'p> {
    /// Creates an engine from the developer-retained plan and the
    /// shipped bug report.
    pub fn new(
        cp: &'p CompiledProgram,
        plan: Plan,
        mut report: BugReport,
        cfg: ReplayConfig,
    ) -> Self {
        // The trust boundary: a report deserialized from external JSON
        // may break the one-stream-per-location invariant the log index
        // relies on.
        report.trace.normalize();
        ReplayEngine {
            cp,
            plan,
            report,
            cfg,
        }
    }

    fn initial_assignment(&self, n: usize) -> Vec<i64> {
        match &self.cfg.initial_hint {
            Some(hint) => {
                let mut a = hint.clone();
                a.resize(n, 0x20);
                a
            }
            None => seeded_assignment(n, self.cfg.seed),
        }
    }

    /// Offers the first not-yet-explored rung of the forced set's repair
    /// ladder (`attempt` is a starting offset). The frontier's dedup
    /// rejects rungs explored on earlier bursts, so successive bursts
    /// naturally walk deeper, and a duplicate flip never wastes the
    /// attempt. Returns whether any repair was accepted.
    fn offer_repair_ladder(
        frontier: &mut Frontier,
        info: &ForcedInfo,
        attempt: usize,
        trace: bool,
    ) -> bool {
        for s in info.ladder().skip(attempt) {
            let Some((_, lit)) = info.steps[s].as_branch() else {
                continue;
            };
            let mut repair: ConstraintSet =
                info.steps[..s].iter().map(|st| st.constraint).collect();
            repair.push(lit.negated());
            if frontier.offer_repair(search::signature(&repair), repair, info.seed.clone()) {
                if trace {
                    eprintln!("  repair offered: suspect at step {s} (attempt {attempt})");
                }
                return true;
            }
        }
        false
    }

    /// Runs the guided search to completion or budget exhaustion, on the
    /// shared round loop ([`search::driver::drive`]). Every result field
    /// except `wall_ms` and the per-worker run split is identical for
    /// every `budget.workers`.
    pub fn reproduce(&self) -> ReplayResult {
        let start = std::time::Instant::now();
        let mut arena = ExprArena::new();
        let vars = InputVars::alloc(&mut arena, &self.cfg.spec);
        let initial = self.initial_assignment(vars.n_controllable as usize);
        let syscall_mode = if self.report.syscalls.is_empty() {
            SyscallMode::Modeled
        } else {
            SyscallMode::Logged(self.report.syscalls.clone())
        };
        let mut session = Session {
            engine: self,
            index: LogIndex::new(&self.report.trace, self.cp.n_branches()),
            trace: std::env::var("RETRACE_REPLAY_TRACE").is_ok(),
            vars,
            syscall_mode,
            book: RepairBook::new(),
            total_instrs: 0,
            total_units: 0,
            syscall_divergences: 0,
            cursor_overruns: 0,
            checkpoint_divergences: 0,
            concretization_ranges: 0,
            concretization_pins: 0,
        };
        let finish = driver::drive(
            &mut session,
            &self.cfg.budget.limits,
            self.cfg.seed,
            &self.cfg.solve,
            arena,
            initial,
        );
        let reproduced = finish.end == End::Success;
        let last = finish.last_run;
        ReplayResult {
            reproduced,
            counters: finish.counters,
            total_instrs: session.total_instrs,
            total_units: session.total_units,
            wall_ms: start.elapsed().as_millis() as u64,
            witness_argv: reproduced.then_some(last.argv),
            witness_assignment: reproduced.then_some(finish.last_assignment),
            timed_out: matches!(finish.end, End::RunBudget | End::Wall),
            exhausted: finish.end == End::Drained,
            syscall_divergences: session.syscall_divergences,
            cursor_overruns: session.cursor_overruns,
            checkpoint_divergences: session.checkpoint_divergences,
            escalation: session.book.escalation,
            concretization_ranges: session.concretization_ranges,
            concretization_pins: session.concretization_pins,
            last_run_stats: last.stats,
        }
    }
}

/// The commit side of one reproduction attempt: the repair book and the
/// per-run tallies the driver's runs add up to.
struct Session<'e, 'p> {
    engine: &'e ReplayEngine<'p>,
    /// The report's branch log, indexed once for every run.
    index: LogIndex<'e>,
    /// Whether `RETRACE_REPLAY_TRACE` is set.
    trace: bool,
    vars: InputVars,
    syscall_mode: SyscallMode,
    book: RepairBook,
    total_instrs: u64,
    total_units: u64,
    syscall_divergences: u64,
    cursor_overruns: u64,
    checkpoint_divergences: u64,
    concretization_ranges: u64,
    concretization_pins: u64,
}

impl Session<'_, '_> {
    /// The multi-byte literal-forcing escalation rule. A 2(b) abort at a
    /// location the plan carries forced literals for (a `strcmp`-style
    /// scan cluster diagnosed by an earlier generation's replay) means
    /// the search is about to re-derive a known string one byte per run.
    /// When the forced step compares one input byte against a constant
    /// that occurs in a literal, the matching alignment pins the *whole*
    /// literal over the surrounding bytes as a single priority set — one
    /// solve replaces a byte-by-byte derivation burst. Wrong alignments
    /// simply go UNSAT and cost one solver call each, so offers are
    /// capped.
    fn offer_literal_pins(
        &self,
        run: &RunArtifacts,
        sigs: &PrefixSigs,
        assignment: &[i64],
        arena: &mut ExprArena,
        frontier: &mut Frontier,
    ) {
        let Some((loc, _)) = run.stats.divergent_branch else {
            return;
        };
        let literals = self.engine.plan.forced_literals_at(loc).to_vec();
        if literals.is_empty() {
            return;
        }
        let Some(last) = run.path.last() else {
            return;
        };
        // Peel unary wrappers (Bool normalization, negations) off the
        // forced literal and match a byte-vs-constant comparison either
        // way around.
        let mut e = last.constraint.expr();
        while let Node::Un(_, inner) = arena.node(e) {
            e = inner;
        }
        let (v, c) = match arena.node(e) {
            Node::Bin(Op::Eq | Op::Ne, a, b) => match (arena.node(a), arena.node(b)) {
                (Node::Var(v), Node::Const(c)) | (Node::Const(c), Node::Var(v)) => (v, c),
                _ => return,
            },
            _ => return,
        };
        let n_controllable = self.vars.n_controllable as usize;
        if (v.0 as usize) >= n_controllable {
            return;
        }
        let mut offered = 0usize;
        'lits: for lit in &literals {
            for j in 0..lit.len() {
                if i64::from(lit[j]) != c {
                    continue;
                }
                let Some(start) = (v.0 as usize).checked_sub(j) else {
                    continue;
                };
                if start + lit.len() > n_controllable {
                    continue;
                }
                let mut cs = sigs.build(run.path.len() - 1, &[]);
                for (t, byte) in lit.iter().enumerate() {
                    let var = arena.var_expr(VarId((start + t) as u32));
                    let konst = arena.constant(i64::from(*byte));
                    let pin = arena.bin(Op::Eq, var, konst);
                    cs.push(Lit {
                        expr: pin,
                        positive: true,
                    });
                }
                frontier.offer_priority(search::signature(&cs), cs, assignment.to_vec(), true);
                offered += 1;
                if offered >= 4 {
                    break 'lits;
                }
            }
        }
        if offered > 0 && self.trace {
            eprintln!("  literal pins offered: {offered} at loc {loc}");
        }
    }
}

impl GuidedEngine for Session<'_, '_> {
    type Run = RunArtifacts;

    fn exec_run(&self, arena: ExprArena, assignment: &[i64]) -> (RunArtifacts, ExprArena) {
        let engine = self.engine;
        let vars = &self.vars;
        let n_controllable = vars.n_controllable as usize;
        let streams = realize_streams(&engine.cfg.spec, vars, assignment);
        let traced_conns: Option<Vec<String>> = self.trace.then(|| {
            streams
                .conns
                .iter()
                .map(|c| String::from_utf8_lossy(c).escape_default().to_string())
                .collect()
        });
        let nondet_assign: Vec<i64> = assignment
            .get(n_controllable..)
            .map(|s| s.to_vec())
            .unwrap_or_default();
        let env = ReplayEnv::new(
            streams,
            engine.cfg.base_fs.clone(),
            self.syscall_mode.clone(),
            nondet_assign,
        );
        let argv = env.argv().to_vec();
        let mut host = ReplayHost::new(
            arena,
            env,
            &engine.plan,
            self.index.reader(),
            vars,
            engine.report.crash.loc,
        );
        host.concretization = engine.cfg.budget.concretization;
        if engine.plan.checkpoints {
            host.checkpoints = &engine.report.checkpoints;
        }
        let mut vm = Vm::new(engine.cp, host);
        vm.fuel = engine.cfg.budget.fuel_per_run;
        vm.watch_loc = Some(engine.report.crash.loc);
        vm.prepare(&argv);
        // Mark symbolic argv bytes.
        let objs: Vec<_> = vm.argv_objects().to_vec();
        for (ai, arg_vars) in vars.argv.iter().enumerate() {
            for (bi, vid) in arg_vars.iter().enumerate() {
                let e = vm.host.arena.var_expr(*vid);
                vm.mem
                    .set_shadow(pack(objs[ai], bi as u32), Some(e))
                    .expect("argv bytes exist");
            }
        }
        let outcome = vm.resume();
        let instrs = vm.meter.instrs;
        let units = vm.meter.units;
        let mut host = vm.host;
        let log_exhausted = host.log_exhausted();
        host.stats.consulted = host.log.consulted();
        let trace = traced_conns.map(|conns| {
            format!(
                "outcome={outcome:?} bits={} recon={} sym_logged={} sym_unlogged={} path={} div={:?} cursors={:?} conns={conns:?}",
                host.stats.bits_consumed,
                host.stats.reconstructed_bits,
                host.stats.sym_logged_execs,
                host.stats.sym_unlogged_execs,
                host.path.len(),
                host.stats.divergent_branch,
                host.log.positions(),
            )
        });
        (
            RunArtifacts {
                outcome,
                argv,
                instrs,
                units,
                log_exhausted,
                stats: host.stats,
                path: host.path,
                trace,
            },
            host.arena,
        )
    }

    fn observe(&mut self, run: &RunArtifacts, _assignment: &[i64]) {
        let escalation = &mut self.book.escalation;
        escalation.runs += 1;
        if let Some(line) = &run.trace {
            eprintln!("run {}: {line}", escalation.runs);
        }
        // Escalation evidence: which instrumented locations this run
        // actually consumed log bits from.
        escalation
            .consulted
            .extend(run.stats.consulted.iter().copied());
        self.total_instrs += run.instrs;
        self.total_units += run.units;
        self.concretization_ranges += run.stats.concretization_ranges;
        self.concretization_pins += run.stats.concretization_pins;
    }

    /// Did this run reproduce the reported bug?
    fn is_success(&self, run: &RunArtifacts) -> bool {
        match &run.outcome {
            RunOutcome::Aborted(r) if r == REACHED_CRASH_SITE => true,
            RunOutcome::Crashed(c)
                if c.loc == self.engine.report.crash.loc
                    && c.kind == self.engine.report.crash.kind
                    && run.log_exhausted =>
            {
                true
            }
            _ => false,
        }
    }

    /// Banks one finished run into the frontier: recovery sets for
    /// syscall divergences and cursor overruns, the standard negated-
    /// literal pendings, and the forced set (with its repair metadata in
    /// the book).
    fn bank(
        &mut self,
        run: &RunArtifacts,
        assignment: &[i64],
        arena: &mut ExprArena,
        frontier: &mut Frontier,
        cache: Option<&mut PrefixCache>,
    ) {
        let engine = self.engine;
        let aborted = |signal: &str| matches!(&run.outcome, RunOutcome::Aborted(r) if r == signal);
        let forced = aborted(BRANCH_DIVERGENCE);
        let syscall_div = aborted(SYSCALL_DIVERGENCE);
        let cursor_overrun = aborted(CURSOR_OVERRUN);
        let checkpoint_div = aborted(CHECKPOINT_DIVERGENCE);
        self.syscall_divergences += u64::from(syscall_div);
        self.cursor_overruns += u64::from(cursor_overrun);
        self.checkpoint_divergences += u64::from(checkpoint_div);
        // A checkpoint divergence is a cursor overrun caught earlier (at
        // the syscall boundary instead of at stream exhaustion): it earns
        // the same recovery flips and the same escalation evidence.
        let overrun = cursor_overrun || checkpoint_div;
        let path = &run.path;
        // Every set below is a path prefix, most of them plus one
        // negated literal: hash them all from one pass over the path, so
        // the frontier can reject a candidate before it is built, and
        // build the accepted ones from the path split once.
        let sigs = PrefixSigs::new(path.iter().map(|s| s.constraint));
        // Every executed step's constraint held under this run's input,
        // so its prefixes are witnessed-satisfiable: register them so
        // later candidates sharing one skip straight to the divergent
        // suffix. A 2(b) abort's final literal points the *recorded*
        // way, not the executed way — it is unwitnessed, so it never
        // registers.
        if let Some(cache) = cache {
            let (lits, ranges) = sigs.prefix(path.len().saturating_sub(usize::from(forced)));
            cache.register_path(arena, lits, ranges);
        }
        frontier.begin_run();

        // Syscall-divergence recovery: the run followed the branch log
        // but issued the wrong syscall, so the most recent unlogged
        // symbolic decision is the prime suspect. Queue the path so
        // far with that decision flipped on the priority lane — the
        // guided analogue of the 2(b) forced set. (The literal
        // path-so-far would be a no-op: the current candidate already
        // satisfies it, so the solver would hand it straight back.)
        // A per-location stream overrun earns the same recovery: the
        // prime suspect for a location executing too often is the
        // most recent unlogged symbolic decision — usually the loop
        // exit that kept the scan going.
        if syscall_div || overrun {
            // Only UNLOGGED branches qualify as suspects: a logged
            // step (case 2a) already agreed with the recorded
            // direction, and negating it would just force the next
            // candidate into a 2(b) divergence at that spot.
            let unlogged_sym = |i: usize| {
                path[i].as_branch().filter(|&(b, lit)| {
                    i < engine.cfg.budget.max_pending_lits
                        && !engine.plan.covers(b)
                        && !arena.is_concrete(lit.expr)
                })
            };
            let offer_flip = |frontier: &mut Frontier, d: usize, lit: Lit| {
                let neg = lit.negated();
                let cs = sigs.build(d, &[neg]);
                frontier.offer_priority(sigs.candidate(d, neg).0, cs, assignment.to_vec(), true);
            };
            let recent = (0..path.len())
                .rev()
                .find_map(|i| unlogged_sym(i).map(|(b, lit)| (i, b, lit)));
            if let Some((d, b, lit)) = recent {
                offer_flip(frontier, d, lit);
                // Escalation evidence: a syscall divergence is charged
                // to its prime suspect — the branch whose unlogged
                // decision the recovery flips.
                if syscall_div {
                    self.book.escalation.loc_mut(b.0).syscall_divergences += 1;
                }
            }
            // An overrun (or checkpoint divergence) names its own
            // location directly: the stream that consumed past its
            // recorded length.
            if overrun {
                if let Some((loc, _)) = run.stats.divergent_cursor {
                    self.book.escalation.loc_mut(loc).cursor_overruns += 1;
                }
            }
            // An overrun names a more precise suspect class: the
            // location re-executed because some unlogged *loop*
            // decision kept a scan going, and that decision may sit
            // above several unlogged body branches. Offer the most
            // recent unlogged loop-kind flip too (LIFO: popped
            // first); the dedup absorbs it when it IS the most
            // recent decision.
            if overrun {
                let is_loop = |b: minic::BranchId| {
                    matches!(
                        engine.cp.branch(b).kind,
                        minic::BranchKind::While
                            | minic::BranchKind::DoWhile
                            | minic::BranchKind::For
                    )
                };
                let loop_suspect = (0..path.len()).rev().find_map(|i| {
                    unlogged_sym(i)
                        .filter(|&(b, _)| is_loop(b))
                        .map(|(_, lit)| (i, lit))
                });
                if let Some((d, lit)) =
                    loop_suspect.filter(|&(d, _)| recent.map(|r| r.0) != Some(d))
                {
                    offer_flip(frontier, d, lit);
                }
            }
        }

        // Standard pending sets: negate branch literals, offered in
        // the strategy's order (caps, quotas and dedup live in the
        // frontier; the caps bound quadratic prefix copying on long
        // server paths).
        for i in engine.cfg.budget.policy.strategy.offer_order(path.len()) {
            if frontier.run_full() {
                break;
            }
            let Some((bid, lit)) = path[i].as_branch() else {
                continue;
            };
            if !frontier.depth_ok(i + 1) {
                continue;
            }
            // In a 2(b) abort the final literal is already forced;
            // don't negate it.
            if forced && i == path.len() - 1 {
                continue;
            }
            if arena.is_concrete(lit.expr) {
                continue;
            }
            let neg = lit.negated();
            let (sig, n_lits) = sigs.candidate(i, neg);
            frontier.offer(sig, n_lits, Some(bid.0), || {
                (sigs.build(i, &[neg]), assignment.to_vec())
            });
        }
        frontier.end_run();
        // The branch-divergence forced set (whole path; for a 2(b)
        // abort its last literal already points the recorded way)
        // goes on the priority lane: tried first. Its repair metadata
        // (the unlogged suspects an UNSAT burst will backtrack to) is
        // registered alongside; the evidence that triggers repair is
        // collected in the solve loop, where forced sets earn UNSAT
        // verdicts. (Divergence-count and duplicate-offer signals
        // were measured as repair triggers too: they reach the
        // 3(b)-style stalls whose forced sets always solve, but they
        // also tax the healthy dynamic rows — exp 3 (hc) nearly
        // tripled its run count — without making any combined row
        // finite, so repair stays scoped to UNSAT bursts.)
        if forced {
            let progressed = run.stats.bits_consumed > self.book.bits_high_water;
            if progressed {
                self.book.bits_high_water = run.stats.bits_consumed;
                self.book.tracker.reset_bursts();
            }
            let cs = sigs.build(path.len(), &[]);
            let rp = engine.cfg.budget.policy.forced_repair;
            let mut info_for_meta = None;
            if rp.enabled {
                // The suspect windows are wider than the attempt
                // budget so duplicate (already-explored) flips can be
                // walked past without exhausting the ladder.
                let window = (rp.max_repairs as usize).max(64);
                let suspects: Vec<usize> = path
                    .iter()
                    .enumerate()
                    .filter(|(_, st)| {
                        matches!(st.as_branch(), Some((b, lit))
                            if !engine.plan.covers(b) && !arena.is_concrete(lit.expr))
                    })
                    .map(|(i, _)| i)
                    .take(window)
                    .collect();
                if let (Some(_), Some(&last)) = (suspects.first(), suspects.last()) {
                    // The burst key is the stall identity. Flat logs
                    // key on the log high-water mark: every UNSAT
                    // forced set while the mark stands still pools
                    // its evidence into one burst, however the
                    // aborting paths differ — and each deeper stall
                    // gets a fresh repair budget. Per-location logs
                    // key on the (location, cursor) that diverged:
                    // stalls at different locations are independent
                    // pathologies and must not share a burst or a
                    // repair budget.
                    let key = match run.stats.divergent_cursor {
                        Some((loc, pos)) => search::location_key(loc, pos),
                        None => self.book.bits_high_water as u128,
                    };
                    let info = ForcedInfo {
                        key,
                        steps: path[..=last].to_vec(),
                        suspects,
                        seed: assignment.to_vec(),
                    };
                    info_for_meta = Some(info);
                }
            }
            let cs_sig = search::signature(&cs);
            frontier.offer_priority(cs_sig, cs, assignment.to_vec(), false);
            if let Some(info) = info_for_meta {
                self.book.forced_meta.insert(cs_sig, info);
            }
            // Multi-byte string-literal forcing (adaptive plans): when
            // the plan carries forced literals for the diverging
            // location, pin the whole literal in one priority set
            // instead of re-deriving it byte by byte.
            self.offer_literal_pins(run, &sigs, assignment, arena, frontier);
        }
    }

    fn unsat_touches_frontier(&self, sig: u128) -> bool {
        self.book.forced_meta.contains_key(&sig)
    }

    /// A forced set went UNSAT: account the thrash burst and, on a burst,
    /// backtrack to the earliest unlogged suspect (attempt k starts the
    /// ladder at the k-th rung; dedup walks past already-explored flips)
    /// and queue the repaired prefix on the priority lane.
    fn on_unsat(&mut self, sig: u128, frontier: &mut Frontier) {
        let rp = self.engine.cfg.budget.policy.forced_repair;
        let book = &mut self.book;
        let Some(info) = book.forced_meta.get(&sig) else {
            return;
        };
        frontier.note_forced_unsat();
        // Escalation evidence: charge the UNSAT to the stalled
        // location — decoded from a per-location burst key, or the
        // forced step's own branch for flat logs.
        let hot_loc = match search::key_location(info.key) {
            Some((loc, _)) => Some(loc),
            None => info.steps.last().and_then(|st| match st.origin {
                StepOrigin::Branch(b) => Some(b.0),
                StepOrigin::Concretization => None,
            }),
        };
        if let Some(loc) = hot_loc {
            book.escalation.loc_mut(loc).forced_failures += 1;
        }
        match book.tracker.note_thrash(info.key, &rp) {
            Some(attempt) => {
                if let Some(loc) = hot_loc {
                    book.escalation.loc_mut(loc).repair_bursts += 1;
                }
                let offered =
                    ReplayEngine::offer_repair_ladder(frontier, info, attempt as usize, self.trace);
                if !offered && book.counted_cutoffs.insert(info.key) {
                    frontier.note_repair_cutoff();
                }
            }
            None => {
                // Either the burst threshold is unmet, or the
                // per-prefix budget ran out (count the latter
                // once).
                if book.tracker.cut_off(info.key, &rp) && book.counted_cutoffs.insert(info.key) {
                    frontier.note_repair_cutoff();
                }
            }
        }
    }
}

/// Everything one replay run leaves behind: the outcome, the argv it
/// ran with, meters, and the symbolic path. Produced by `exec_run` on
/// whichever thread the driver runs it; consumed by the commit side.
struct RunArtifacts {
    outcome: RunOutcome,
    argv: Vec<Vec<u8>>,
    instrs: u64,
    units: u64,
    log_exhausted: bool,
    stats: crate::host::ReplayRunStats,
    path: Vec<PathStep>,
    /// The `RETRACE_REPLAY_TRACE` line, printed when the run commits.
    trace: Option<String>,
}

/// Forced-set repair state: metadata per queued forced set, thrash
/// accounting per shared prefix key, and the log high-water mark that
/// defines "progress" (bursts only accumulate while it stands still).
struct RepairBook {
    forced_meta: FastMap<u128, ForcedInfo>,
    tracker: RepairTracker,
    counted_cutoffs: FastSet<u128>,
    bits_high_water: u64,
    /// Per-location escalation evidence accumulated over the search,
    /// handed to the caller through [`ReplayResult::escalation`].
    escalation: EscalationReport,
}

impl RepairBook {
    fn new() -> Self {
        RepairBook {
            forced_meta: FastMap::default(),
            tracker: RepairTracker::new(),
            counted_cutoffs: FastSet::default(),
            bits_high_water: 0,
            escalation: EscalationReport::new(),
        }
    }
}

/// Metadata retained for a queued forced (2(b)/3(b)) set so a thrash
/// burst can be repaired by suspect backtracking.
struct ForcedInfo {
    /// Burst key: the log high-water mark (stall depth) at registration
    /// for flat logs, or [`search::location_key`] of the divergent
    /// (location, cursor) pair for per-location logs. Every forced set
    /// produced at the same stall pools its evidence into one burst,
    /// however the aborting paths differ, and each new stall gets a
    /// fresh repair budget.
    key: u128,
    /// Path steps up to the last repairable suspect (inclusive).
    steps: Vec<PathStep>,
    /// Indices into `steps` of the *unlogged* symbolic suspects,
    /// earliest first — the decisions the log never vouched for.
    suspects: Vec<usize>,
    /// The aborting run's assignment, used to seed repair solves.
    seed: Vec<i64>,
}

impl ForcedInfo {
    /// The repair ladder: the unlogged suspects, earliest first — an
    /// early unverified decision is what corrupts a forced prefix, and
    /// deepest-first is exactly what plain DFS already retried.
    fn ladder(&self) -> impl Iterator<Item = usize> + '_ {
        self.suspects.iter().copied()
    }
}
