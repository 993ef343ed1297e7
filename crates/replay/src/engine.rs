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
use concolic::{
    restart_seed, seeded_assignment, Concretization, InputSpec, InputVars, PathStep, StepOrigin,
};
use instrument::{BugReport, Plan};
use minic::memory::pack;
use minic::vm::{RunOutcome, Vm};
use minic::CompiledProgram;
use oskit::SimFs;
use search::{Frontier, FrontierStats, PrefixSigs, RepairTracker, SearchLimits, SearchPolicy};
use solver::{
    mix_seed, ConstraintSet, ExprArena, FastMap, FastSet, Lit, Node, Op, PrefixCache, SolveCfg,
    VarId,
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

impl ReplayBudget {
    /// Sets the run cap.
    #[deprecated(note = "write `budget.max_runs` (via SearchLimits) directly")]
    pub fn set_max_runs(&mut self, n: usize) {
        self.limits.max_runs = n;
    }

    /// Sets the worker count.
    #[deprecated(note = "write `budget.workers` (via SearchLimits) directly")]
    pub fn set_workers(&mut self, n: usize) {
        self.limits.workers = n;
    }

    /// Sets the scheduling policy.
    #[deprecated(note = "write `budget.policy` (via SearchLimits) directly")]
    pub fn set_policy(&mut self, policy: SearchPolicy) {
        self.limits.policy = policy;
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

/// Outcome of a reproduction attempt.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// True if the bug was reproduced within budget.
    pub reproduced: bool,
    /// Replay runs performed.
    pub runs: usize,
    /// Solver invocations.
    pub solver_calls: usize,
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
    /// Solver calls that retried with the hard-pinned variant after the
    /// bounded form went unsolved.
    pub pin_fallbacks: u64,
    /// Committed solver calls that started from a cached path prefix.
    pub cache_hits: u64,
    /// Committed solver calls that found no cached prefix (including all
    /// calls with the prefix cache disabled).
    pub cache_misses: u64,
    /// Total literals skipped via cached prefixes across all hits.
    pub prefix_len_saved: u64,
    /// Frontier scheduling counters (including forced-set repair
    /// activations and cutoffs).
    pub frontier: FrontierStats,
    /// Aggregate per-run stats of the last (or successful) run.
    pub last_run_stats: crate::host::ReplayRunStats,
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
    pub fn new(cp: &'p CompiledProgram, plan: Plan, report: BugReport, cfg: ReplayConfig) -> Self {
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
    fn offer_repair_ladder(frontier: &mut Frontier, info: &ForcedInfo, attempt: usize) -> bool {
        for s in info.ladder().skip(attempt) {
            let mut repair = ConstraintSet::new();
            for st in &info.steps[..s] {
                push_step(&mut repair, st);
            }
            repair.push(info.steps[s].lit.negated());
            if frontier.offer_repair(search::signature(&repair), repair, info.seed.clone()) {
                if std::env::var("RETRACE_REPLAY_TRACE").is_ok() {
                    eprintln!("  repair offered: suspect at step {s} (attempt {attempt})");
                }
                return true;
            }
        }
        false
    }

    /// A fresh seeded candidate for the `r`-th drain restart.
    fn restart_assignment(&self, n: usize, r: u64) -> Vec<i64> {
        seeded_assignment(n, restart_seed(self.cfg.seed, r))
    }

    /// Runs the guided search to completion or budget exhaustion.
    ///
    /// `budget.workers <= 1` runs the fully serial engine; larger values
    /// shard the candidate search across that many worker threads (the
    /// internal `reproduce_parallel` path). Both produce the same
    /// search — the parallel engine commits speculative work strictly in
    /// the serial order — so every result field except `wall_ms` and the
    /// per-worker run split is worker-count invariant.
    pub fn reproduce(&self) -> ReplayResult {
        if self.cfg.budget.workers <= 1 {
            self.reproduce_serial()
        } else {
            self.reproduce_parallel()
        }
    }

    /// Executes one replay run under `assignment`, threading the arena
    /// through. `run_no` only labels `RETRACE_REPLAY_TRACE` output.
    fn exec_run(
        &self,
        arena: ExprArena,
        assignment: &[i64],
        syscall_mode: &SyscallMode,
        vars: &InputVars,
        run_no: usize,
    ) -> (RunArtifacts, ExprArena) {
        let n_controllable = vars.n_controllable as usize;
        let streams = realize_streams(&self.cfg.spec, vars, assignment);
        let traced_conns: Option<Vec<String>> =
            std::env::var("RETRACE_REPLAY_TRACE").ok().map(|_| {
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
            self.cfg.base_fs.clone(),
            syscall_mode.clone(),
            nondet_assign,
        );
        let argv = env.argv().to_vec();
        let mut host = ReplayHost::new(
            arena,
            env,
            self.plan.clone(),
            self.report.trace.clone(),
            vars.clone(),
            self.report.crash.loc,
        );
        host.concretization = self.cfg.budget.concretization;
        if self.plan.checkpoints {
            host.checkpoints = self.report.checkpoints.clone();
        }
        let mut vm = Vm::new(self.cp, host);
        vm.fuel = self.cfg.budget.fuel_per_run;
        vm.watch_loc = Some(self.report.crash.loc);
        vm.prepare(&argv);
        // Mark symbolic argv bytes.
        let objs: Vec<_> = vm.argv_objects().to_vec();
        for (ai, arg_vars) in vm.host.vars.argv.clone().iter().enumerate() {
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
        let host = vm.host;
        let log_exhausted = host.log_exhausted();
        if let Some(conns) = traced_conns {
            eprintln!(
                "run {run_no}: outcome={outcome:?} bits={} recon={} sym_logged={} sym_unlogged={} path={} div={:?} cursors={:?} conns={conns:?}",
                host.stats.bits_consumed,
                host.stats.reconstructed_bits,
                host.stats.sym_logged_execs,
                host.stats.sym_unlogged_execs,
                host.path.len(),
                host.stats.divergent_branch,
                host.cursors.positions(),
            );
        }
        (
            RunArtifacts {
                outcome,
                argv,
                instrs,
                units,
                log_exhausted,
                stats: host.stats,
                path: host.path,
            },
            host.arena,
        )
    }

    /// Did this run reproduce the reported bug?
    fn is_success(&self, run: &RunArtifacts) -> bool {
        match &run.outcome {
            RunOutcome::Aborted(r) if r == REACHED_CRASH_SITE => true,
            RunOutcome::Crashed(c)
                if c.loc == self.report.crash.loc
                    && c.kind == self.report.crash.kind
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
    /// `book`). Identical for the serial and parallel engines — the
    /// parallel engine calls it from the serial commit phase only, which
    /// also makes it the prefix cache's single writer.
    #[allow(clippy::too_many_arguments)]
    fn bank_offers(
        &self,
        run: &RunArtifacts,
        assignment: &[i64],
        arena: &mut ExprArena,
        vars: &InputVars,
        frontier: &mut Frontier,
        book: &mut RepairBook,
        cache: &mut PrefixCache,
    ) {
        let forced = matches!(&run.outcome, RunOutcome::Aborted(r) if r == BRANCH_DIVERGENCE);
        let syscall_div = matches!(&run.outcome, RunOutcome::Aborted(r) if r == SYSCALL_DIVERGENCE);
        // A checkpoint divergence is a cursor overrun caught earlier (at
        // the syscall boundary instead of at stream exhaustion): it earns
        // the same recovery flips and the same escalation evidence.
        let overrun = matches!(
            &run.outcome,
            RunOutcome::Aborted(r) if r == CURSOR_OVERRUN || r == CHECKPOINT_DIVERGENCE
        );
        let path = &run.path;
        let lits: Vec<Lit> = path.iter().map(|s| s.lit).collect();
        // Every executed step's literal held under this run's input, so
        // its prefixes are witnessed-satisfiable: register them so later
        // candidates sharing one skip straight to the divergent suffix.
        // A 2(b) abort's final literal points the *recorded* way, not
        // the executed way — it is unwitnessed, so it never registers.
        if self.cfg.budget.prefix_cache {
            let cut = path.len().saturating_sub(usize::from(forced));
            let executed = &path[..cut];
            let reg_lits: Vec<Lit> = executed
                .iter()
                .filter(|s| s.range.is_none())
                .map(|s| s.lit)
                .collect();
            let reg_ranges: Vec<solver::RangeConstraint> =
                executed.iter().filter_map(|s| s.range).collect();
            cache.register_path(arena, &reg_lits, &reg_ranges);
        }
        frontier.begin_run();
        // Every candidate below is a path prefix plus one negated
        // literal: hash them all from one pass over the path, so the
        // frontier can reject a candidate before it is built.
        let sigs = PrefixSigs::new(path.iter().map(|s| (s.lit, s.range)));

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
                i < self.cfg.budget.max_pending_lits
                    && matches!(path[i].origin, StepOrigin::Branch(b) if !self.plan.covers(b))
                    && !arena.is_concrete(lits[i].expr)
            };
            let offer_flip = |frontier: &mut Frontier, d: usize| {
                let neg = lits[d].negated();
                let mut cs = ConstraintSet::new();
                for st in &path[..d] {
                    push_step(&mut cs, st);
                }
                cs.push(neg);
                frontier.offer_priority(sigs.candidate(d, neg).0, cs, assignment.to_vec(), true);
            };
            let recent = (0..lits.len()).rev().find(|&i| unlogged_sym(i));
            if let Some(d) = recent {
                offer_flip(frontier, d);
                // Escalation evidence: a syscall divergence is charged
                // to its prime suspect — the branch whose unlogged
                // decision the recovery flips.
                if syscall_div {
                    if let StepOrigin::Branch(b) = path[d].origin {
                        book.escalation.loc_mut(b.0).syscall_divergences += 1;
                    }
                }
            }
            // An overrun (or checkpoint divergence) names its own
            // location directly: the stream that consumed past its
            // recorded length.
            if overrun {
                if let Some((loc, _)) = run.stats.divergent_cursor {
                    book.escalation.loc_mut(loc).cursor_overruns += 1;
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
                let is_loop = |i: usize| {
                    matches!(path[i].origin, StepOrigin::Branch(b) if matches!(
                        self.cp.branch(b).kind,
                        minic::BranchKind::While
                            | minic::BranchKind::DoWhile
                            | minic::BranchKind::For
                    ))
                };
                let loop_suspect = (0..lits.len())
                    .rev()
                    .find(|&i| unlogged_sym(i) && is_loop(i));
                if let Some(d) = loop_suspect.filter(|d| Some(*d) != recent) {
                    offer_flip(frontier, d);
                }
            }
        }

        // Standard pending sets: negate branch literals, offered in
        // the strategy's order (caps, quotas and dedup live in the
        // frontier; the caps bound quadratic prefix copying on long
        // server paths).
        for i in self.cfg.budget.policy.strategy.offer_order(lits.len()) {
            if frontier.run_full() {
                break;
            }
            let StepOrigin::Branch(bid) = path[i].origin else {
                continue;
            };
            if !frontier.depth_ok(i + 1) {
                continue;
            }
            // In a 2(b) abort the final literal is already forced;
            // don't negate it.
            if forced && i == lits.len() - 1 {
                continue;
            }
            if arena.is_concrete(lits[i].expr) {
                continue;
            }
            let neg = lits[i].negated();
            let (sig, n_lits) = sigs.candidate(i, neg);
            frontier.offer(sig, n_lits, Some(bid.0), || {
                let mut cs = ConstraintSet::new();
                for st in &path[..i] {
                    push_step(&mut cs, st);
                }
                cs.push(neg);
                (cs, assignment.to_vec())
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
            let progressed = run.stats.bits_consumed > book.bits_high_water;
            if progressed {
                book.bits_high_water = run.stats.bits_consumed;
                book.tracker.reset_bursts();
            }
            let mut cs = ConstraintSet::new();
            for st in path {
                push_step(&mut cs, st);
            }
            let rp = self.cfg.budget.policy.forced_repair;
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
                        matches!(st.origin, StepOrigin::Branch(b) if !self.plan.covers(b))
                            && !arena.is_concrete(st.lit.expr)
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
                        None => book.bits_high_water as u128,
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
                book.forced_meta.insert(cs_sig, info);
            }
            // Multi-byte string-literal forcing (adaptive plans): when
            // the plan carries forced literals for the diverging
            // location, pin the whole literal in one priority set
            // instead of re-deriving it byte by byte.
            self.offer_literal_pins(run, assignment, arena, vars, frontier);
        }
    }

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
        assignment: &[i64],
        arena: &mut ExprArena,
        vars: &InputVars,
        frontier: &mut Frontier,
    ) {
        let Some((loc, _)) = run.stats.divergent_branch else {
            return;
        };
        let literals = self.plan.forced_literals_at(loc).to_vec();
        if literals.is_empty() {
            return;
        }
        let Some(last) = run.path.last() else {
            return;
        };
        // Peel unary wrappers (Bool normalization, negations) off the
        // forced literal and match a byte-vs-constant comparison either
        // way around.
        let mut e = last.lit.expr;
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
        let n_controllable = vars.n_controllable as usize;
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
                let mut cs = ConstraintSet::new();
                for st in &run.path[..run.path.len() - 1] {
                    push_step(&mut cs, st);
                }
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
        if offered > 0 && std::env::var("RETRACE_REPLAY_TRACE").is_ok() {
            eprintln!("  literal pins offered: {offered} at loc {loc}");
        }
    }

    /// Handles an UNSAT verdict for the set with signature `sig`: when
    /// it was a registered forced set, account the thrash burst and (on
    /// a burst) queue the repair ladder. The parallel engine must call
    /// this only after restoring any speculatively popped tail — a
    /// ladder offer mutates the frontier.
    fn handle_unsat(&self, sig: u128, frontier: &mut Frontier, book: &mut RepairBook) {
        // A forced set went UNSAT: on a burst, backtrack to the
        // earliest unlogged suspect (attempt k starts the ladder
        // at the k-th rung; dedup walks past already-explored
        // flips) and queue the repaired prefix on the priority
        // lane.
        if let Some(info) = book.forced_meta.get(&sig) {
            frontier.note_forced_unsat();
            // Escalation evidence: charge the UNSAT to the stalled
            // location — decoded from a per-location burst key, or the
            // forced step's own branch for flat logs.
            let hot_loc = if (info.key >> 100) & 1 == 1 {
                Some(((info.key >> 64) & 0xffff_ffff) as u32)
            } else {
                info.steps.last().and_then(|st| match st.origin {
                    StepOrigin::Branch(b) => Some(b.0),
                    StepOrigin::Concretization => None,
                })
            };
            if let Some(loc) = hot_loc {
                book.escalation.loc_mut(loc).forced_failures += 1;
            }
            let rp = self.cfg.budget.policy.forced_repair;
            match book.tracker.note_thrash(info.key, &rp) {
                Some(attempt) => {
                    if let Some(loc) = hot_loc {
                        book.escalation.loc_mut(loc).repair_bursts += 1;
                    }
                    let offered = Self::offer_repair_ladder(frontier, info, attempt as usize);
                    if !offered && book.counted_cutoffs.insert(info.key) {
                        frontier.note_repair_cutoff();
                    }
                }
                None => {
                    // Either the burst threshold is unmet, or the
                    // per-prefix budget ran out (count the latter
                    // once).
                    if book.tracker.cut_off(info.key, &rp) && book.counted_cutoffs.insert(info.key)
                    {
                        frontier.note_repair_cutoff();
                    }
                }
            }
        }
    }

    fn reproduce_serial(&self) -> ReplayResult {
        let start = std::time::Instant::now();
        let mut arena = ExprArena::new();
        let vars = InputVars::alloc(&mut arena, &self.cfg.spec);
        let n_controllable = vars.n_controllable as usize;
        let mut assignment = self.initial_assignment(n_controllable);

        let mut frontier = Frontier::new(
            self.cfg.budget.policy.clone(),
            self.cfg.budget.max_pendings_per_run,
            self.cfg.budget.max_pending_lits,
        );
        let mut runs = 0usize;
        let mut solver_calls = 0usize;
        let mut total_instrs = 0u64;
        let mut total_units = 0u64;
        let mut syscall_divergences = 0u64;
        let mut cursor_overruns = 0u64;
        let mut checkpoint_divergences = 0u64;
        let mut concretization_ranges = 0u64;
        let mut concretization_pins = 0u64;
        let mut pin_fallbacks = 0u64;
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        let mut prefix_len_saved = 0u64;
        let mut pcache = PrefixCache::new();
        // Forced-set repair state: metadata per queued forced set, thrash
        // accounting per shared prefix key, and the log high-water mark
        // that defines "progress" (bursts only accumulate while it
        // stands still).
        let mut book = RepairBook::new();
        // High-water mark at the last dedup reset: a drain only earns a
        // fresh re-derivation epoch after visible progress, so resets
        // cannot loop.
        let mut reset_high_water = u64::MAX;
        let mut timed_out = false;
        #[allow(unused_assignments)]
        let mut last_stats = crate::host::ReplayRunStats::default();
        let wall_expired = |start: &std::time::Instant| {
            self.cfg.budget.max_wall_ms > 0
                && start.elapsed().as_millis() as u64 > self.cfg.budget.max_wall_ms
        };

        let syscall_mode = if self.report.syscalls.is_empty() {
            SyscallMode::Modeled
        } else {
            SyscallMode::Logged(self.report.syscalls.clone())
        };

        loop {
            // ---- one replay run -------------------------------------------
            let (run, arena_back) =
                self.exec_run(arena, &assignment, &syscall_mode, &vars, runs + 1);
            arena = arena_back;
            runs += 1;
            total_instrs += run.instrs;
            total_units += run.units;
            last_stats = run.stats.clone();
            concretization_ranges += last_stats.concretization_ranges;
            concretization_pins += last_stats.concretization_pins;
            // Escalation evidence: which instrumented locations this run
            // actually consumed log bits from.
            book.escalation
                .consulted
                .extend(run.stats.consulted.iter().copied());

            // ---- success checks --------------------------------------------
            if self.is_success(&run) {
                let mut escalation = std::mem::take(&mut book.escalation);
                escalation.runs = runs;
                return ReplayResult {
                    reproduced: true,
                    runs,
                    solver_calls,
                    total_instrs,
                    total_units,
                    wall_ms: start.elapsed().as_millis() as u64,
                    witness_argv: Some(run.argv),
                    witness_assignment: Some(assignment),
                    timed_out: false,
                    exhausted: false,
                    syscall_divergences,
                    cursor_overruns,
                    checkpoint_divergences,
                    escalation,
                    concretization_ranges,
                    concretization_pins,
                    pin_fallbacks,
                    cache_hits,
                    cache_misses,
                    prefix_len_saved,
                    frontier: frontier.into_stats(),
                    last_run_stats: last_stats,
                };
            }
            if runs >= self.cfg.budget.max_runs || wall_expired(&start) {
                return self.failed(
                    runs,
                    solver_calls,
                    total_instrs,
                    total_units,
                    start,
                    Outcome {
                        timed_out: true,
                        exhausted: false,
                        syscall_divergences,
                        cursor_overruns,
                        checkpoint_divergences,
                        escalation: taken(&mut book, runs),
                        concretization_ranges,
                        concretization_pins,
                        pin_fallbacks,
                        cache_hits,
                        cache_misses,
                        prefix_len_saved,
                        frontier: frontier.into_stats(),
                    },
                    last_stats,
                );
            }

            // ---- schedule pending sets -------------------------------------
            if matches!(&run.outcome, RunOutcome::Aborted(r) if r == SYSCALL_DIVERGENCE) {
                syscall_divergences += 1;
            }
            if matches!(&run.outcome, RunOutcome::Aborted(r) if r == CURSOR_OVERRUN) {
                cursor_overruns += 1;
            }
            if matches!(&run.outcome, RunOutcome::Aborted(r) if r == CHECKPOINT_DIVERGENCE) {
                checkpoint_divergences += 1;
            }
            self.bank_offers(
                &run,
                &assignment,
                &mut arena,
                &vars,
                &mut frontier,
                &mut book,
                &mut pcache,
            );
            arena.freeze();

            // ---- pick and solve the next pending set -----------------------
            let mut next = None;
            while let Some(pending) = frontier.pop() {
                solver_calls += 1;
                let scfg = SolveCfg {
                    seed: mix_seed(self.cfg.seed, solver_calls as u64),
                    ..self.cfg.solve.clone()
                };
                let sig = pending.sig;
                let (model, sstats) = solver::solve_or_pin_ro_cached(
                    &arena,
                    &pending.cs,
                    Some(&pending.seed),
                    &scfg,
                    self.cfg.budget.prefix_cache.then_some(&pcache),
                );
                if sstats.pin_fallback {
                    pin_fallbacks += 1;
                }
                if sstats.prefix_hit {
                    cache_hits += 1;
                } else {
                    cache_misses += 1;
                }
                prefix_len_saved += sstats.prefix_lits_saved;
                if let Some(model) = model {
                    frontier.note_solved_sig(sig, true);
                    next = Some(model);
                    break;
                }
                frontier.note_unsat_sig(sig, sstats.refuted);
                self.handle_unsat(sig, &mut frontier, &mut book);
                if wall_expired(&start) {
                    timed_out = true;
                    break;
                }
            }
            match next {
                Some(model) => assignment = model,
                None => {
                    // Drained mid-budget: restart from a fresh seed if the
                    // policy allows; otherwise, if the search has made
                    // progress since the last reset, forget the dedup
                    // table and re-derive from the current candidate (the
                    // suppressed sets were solved against seeds that have
                    // long since moved on). Only then report exhaustion
                    // (or the wall timeout that cut the solve loop
                    // short).
                    if !timed_out
                        && self.cfg.budget.policy.restart_on_drain
                        && frontier.ever_scheduled()
                    {
                        let r = frontier.stats().restarts;
                        frontier.note_restart();
                        assignment = self.restart_assignment(n_controllable, r);
                        continue;
                    }
                    if !timed_out
                        && frontier.ever_scheduled()
                        && (reset_high_water == u64::MAX || book.bits_high_water > reset_high_water)
                    {
                        reset_high_water = book.bits_high_water;
                        frontier.reset_dedup();
                        continue;
                    }
                    return self.failed(
                        runs,
                        solver_calls,
                        total_instrs,
                        total_units,
                        start,
                        Outcome {
                            timed_out,
                            exhausted: !timed_out,
                            syscall_divergences,
                            cursor_overruns,
                            checkpoint_divergences,
                            escalation: taken(&mut book, runs),
                            concretization_ranges,
                            concretization_pins,
                            pin_fallbacks,
                            cache_hits,
                            cache_misses,
                            prefix_len_saved,
                            frontier: frontier.into_stats(),
                        },
                        last_stats,
                    );
                }
            }
        }
    }

    /// The parallel engine: the shared frontier stays the single source
    /// of scheduling truth, and `workers` threads speculate on the work
    /// it hands out.
    ///
    /// Each round pops up to `workers` pending sets ([`Frontier::
    /// pop_batch`]); every worker solves its set against the shared
    /// *read-only* arena (`solve_or_pin_ro` — pin fallbacks clone
    /// privately) and, on SAT, immediately replays the model on its own
    /// `minic::Vm` over a private arena clone. The verdicts are then
    /// committed serially in pop order: the first verdict that would
    /// mutate the frontier (a SAT model ends the solve streak; a forced
    /// UNSAT may queue a repair) first restores the unconsumed tail
    /// ([`Frontier::restore`]), so the frontier evolves exactly as the
    /// serial engine's would and later speculation is merely discarded,
    /// never observed. A committed SAT run's private arena is absorbed
    /// back into the central one ([`ExprArena::absorb`]); because the
    /// central arena never changes during a speculative phase, the
    /// absorption reproduces the worker's numbering and the session
    /// stays bit-identical to the serial engine — which is what the
    /// worker-count invariance suite pins.
    fn reproduce_parallel(&self) -> ReplayResult {
        let workers = self.cfg.budget.workers;
        let start = std::time::Instant::now();
        let mut arena = ExprArena::new();
        let vars = InputVars::alloc(&mut arena, &self.cfg.spec);
        let n_controllable = vars.n_controllable as usize;
        let mut assignment = self.initial_assignment(n_controllable);

        let mut frontier = Frontier::new(
            self.cfg.budget.policy.clone(),
            self.cfg.budget.max_pendings_per_run,
            self.cfg.budget.max_pending_lits,
        );
        let mut runs = 0usize;
        let mut solver_calls = 0usize;
        let mut total_instrs = 0u64;
        let mut total_units = 0u64;
        let mut syscall_divergences = 0u64;
        let mut cursor_overruns = 0u64;
        let mut checkpoint_divergences = 0u64;
        let mut concretization_ranges = 0u64;
        let mut concretization_pins = 0u64;
        let mut pin_fallbacks = 0u64;
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        let mut prefix_len_saved = 0u64;
        let mut pcache = PrefixCache::new();
        let mut book = RepairBook::new();
        let mut reset_high_water = u64::MAX;
        let mut timed_out = false;
        #[allow(unused_assignments)]
        let mut last_stats = crate::host::ReplayRunStats::default();
        let wall_expired = |start: &std::time::Instant| {
            self.cfg.budget.max_wall_ms > 0
                && start.elapsed().as_millis() as u64 > self.cfg.budget.max_wall_ms
        };

        let syscall_mode = if self.report.syscalls.is_empty() {
            SyscallMode::Modeled
        } else {
            SyscallMode::Logged(self.report.syscalls.clone())
        };

        // A run produced by a winning speculative solve job, carried
        // into the next round together with the model that drove it.
        let mut staged_run: Option<(RunArtifacts, Vec<i64>)> = None;
        loop {
            // ---- one replay run (serial unless a worker already ran it)
            let run = match staged_run.take() {
                Some((run, model)) => {
                    assignment = model;
                    run
                }
                None => {
                    let (run, arena_back) =
                        self.exec_run(arena, &assignment, &syscall_mode, &vars, runs + 1);
                    arena = arena_back;
                    run
                }
            };
            runs += 1;
            total_instrs += run.instrs;
            total_units += run.units;
            last_stats = run.stats.clone();
            concretization_ranges += last_stats.concretization_ranges;
            concretization_pins += last_stats.concretization_pins;
            // Escalation evidence: which instrumented locations this run
            // actually consumed log bits from.
            book.escalation
                .consulted
                .extend(run.stats.consulted.iter().copied());

            // ---- success checks -------------------------------------------
            if self.is_success(&run) {
                let mut escalation = std::mem::take(&mut book.escalation);
                escalation.runs = runs;
                return ReplayResult {
                    reproduced: true,
                    runs,
                    solver_calls,
                    total_instrs,
                    total_units,
                    wall_ms: start.elapsed().as_millis() as u64,
                    witness_argv: Some(run.argv),
                    witness_assignment: Some(assignment),
                    timed_out: false,
                    exhausted: false,
                    syscall_divergences,
                    cursor_overruns,
                    checkpoint_divergences,
                    escalation,
                    concretization_ranges,
                    concretization_pins,
                    pin_fallbacks,
                    cache_hits,
                    cache_misses,
                    prefix_len_saved,
                    frontier: frontier.into_stats(),
                    last_run_stats: last_stats,
                };
            }
            if runs >= self.cfg.budget.max_runs || wall_expired(&start) {
                return self.failed(
                    runs,
                    solver_calls,
                    total_instrs,
                    total_units,
                    start,
                    Outcome {
                        timed_out: true,
                        exhausted: false,
                        syscall_divergences,
                        cursor_overruns,
                        checkpoint_divergences,
                        escalation: taken(&mut book, runs),
                        concretization_ranges,
                        concretization_pins,
                        pin_fallbacks,
                        cache_hits,
                        cache_misses,
                        prefix_len_saved,
                        frontier: frontier.into_stats(),
                    },
                    last_stats,
                );
            }

            // ---- bank the run (serial commit) -----------------------------
            if matches!(&run.outcome, RunOutcome::Aborted(r) if r == SYSCALL_DIVERGENCE) {
                syscall_divergences += 1;
            }
            if matches!(&run.outcome, RunOutcome::Aborted(r) if r == CURSOR_OVERRUN) {
                cursor_overruns += 1;
            }
            if matches!(&run.outcome, RunOutcome::Aborted(r) if r == CHECKPOINT_DIVERGENCE) {
                checkpoint_divergences += 1;
            }
            self.bank_offers(
                &run,
                &assignment,
                &mut arena,
                &vars,
                &mut frontier,
                &mut book,
                &mut pcache,
            );
            // Freeze the central generation: worker-side clones (solve
            // scratch and speculative run arenas) now share the prefix
            // instead of deep-copying it.
            arena.freeze();

            // ---- speculative solve streak ---------------------------------
            'streak: loop {
                if !timed_out {
                    let batch = frontier.pop_batch(workers);
                    if !batch.is_empty() {
                        // Parallel phase: solve each popped set (and run
                        // its model on SAT) against the frozen central
                        // arena. Seeds are pre-assigned by commit index so
                        // committed verdicts match the serial engine's.
                        let base_calls = solver_calls;
                        let base_nodes = arena.len();
                        let arena_ref = &arena;
                        let cache_ref = self.cfg.budget.prefix_cache.then_some(&pcache);
                        let jobs: Vec<(ConstraintSet, Vec<i64>)> = batch
                            .iter()
                            .map(|p| (p.set.cs.clone(), p.set.seed.clone()))
                            .collect();
                        let phase = search::pool::parallel_map(workers, jobs, |i, (cs, seed)| {
                            let scfg = SolveCfg {
                                seed: mix_seed(self.cfg.seed, (base_calls + i + 1) as u64),
                                ..self.cfg.solve.clone()
                            };
                            let (model, sstats) = solver::solve_or_pin_ro_cached(
                                arena_ref,
                                &cs,
                                Some(&seed),
                                &scfg,
                                cache_ref,
                            );
                            let run = model.as_ref().map(|m| {
                                self.exec_run(arena_ref.clone(), m, &syscall_mode, &vars, runs + 1)
                            });
                            (model, sstats, run)
                        });
                        frontier.note_worker_runs(&phase.worker_counts);

                        // Commit phase: verdicts strictly in pop order.
                        let mut pops = batch.into_iter();
                        let mut outs = phase.results.into_iter();
                        while let Some(pop) = pops.next() {
                            let (model, sstats, spec_run) =
                                outs.next().expect("one verdict per popped set");
                            solver_calls += 1;
                            if sstats.pin_fallback {
                                pin_fallbacks += 1;
                            }
                            if sstats.prefix_hit {
                                cache_hits += 1;
                            } else {
                                cache_misses += 1;
                            }
                            prefix_len_saved += sstats.prefix_lits_saved;
                            let sig = pop.set.sig;
                            if let Some(model) = model {
                                frontier.note_solved_sig(sig, true);
                                frontier.restore(pops.collect());
                                let (mut artifacts, job_arena) =
                                    spec_run.expect("every SAT job carries its run");
                                // Import the worker's expressions and
                                // retarget the path at the central ids.
                                let mut roots = Vec::with_capacity(artifacts.path.len() * 2);
                                for st in &artifacts.path {
                                    roots.push(st.lit.expr);
                                    if let Some(rc) = &st.range {
                                        roots.push(rc.expr);
                                    }
                                }
                                let mapped = arena.absorb(&job_arena, base_nodes, &roots);
                                let mut mapped = mapped.into_iter();
                                for st in &mut artifacts.path {
                                    st.lit.expr = mapped.next().expect("mapped root");
                                    if let Some(rc) = &mut st.range {
                                        rc.expr = mapped.next().expect("mapped root");
                                    }
                                }
                                staged_run = Some((artifacts, model));
                                break 'streak;
                            }
                            frontier.note_unsat_sig(sig, sstats.refuted);
                            if book.forced_meta.contains_key(&sig) {
                                // The repair bookkeeping may queue a
                                // priority set: put the speculative tail
                                // back first so the offer lands exactly
                                // where the serial engine would put it.
                                frontier.restore(pops.collect());
                                self.handle_unsat(sig, &mut frontier, &mut book);
                                if wall_expired(&start) {
                                    timed_out = true;
                                }
                                continue 'streak;
                            }
                            if wall_expired(&start) {
                                timed_out = true;
                                frontier.restore(pops.collect());
                                continue 'streak;
                            }
                        }
                        continue 'streak;
                    }
                }

                // ---- drained (or timed out mid-streak) --------------------
                if !timed_out
                    && self.cfg.budget.policy.restart_on_drain
                    && frontier.ever_scheduled()
                {
                    let r = frontier.stats().restarts;
                    frontier.note_restart();
                    assignment = self.restart_assignment(n_controllable, r);
                    break 'streak;
                }
                if !timed_out
                    && frontier.ever_scheduled()
                    && (reset_high_water == u64::MAX || book.bits_high_water > reset_high_water)
                {
                    reset_high_water = book.bits_high_water;
                    frontier.reset_dedup();
                    break 'streak;
                }
                return self.failed(
                    runs,
                    solver_calls,
                    total_instrs,
                    total_units,
                    start,
                    Outcome {
                        timed_out,
                        exhausted: !timed_out,
                        syscall_divergences,
                        cursor_overruns,
                        checkpoint_divergences,
                        escalation: taken(&mut book, runs),
                        concretization_ranges,
                        concretization_pins,
                        pin_fallbacks,
                        cache_hits,
                        cache_misses,
                        prefix_len_saved,
                        frontier: frontier.into_stats(),
                    },
                    last_stats,
                );
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn failed(
        &self,
        runs: usize,
        solver_calls: usize,
        total_instrs: u64,
        total_units: u64,
        start: std::time::Instant,
        outcome: Outcome,
        last_stats: crate::host::ReplayRunStats,
    ) -> ReplayResult {
        ReplayResult {
            reproduced: false,
            runs,
            solver_calls,
            total_instrs,
            total_units,
            wall_ms: start.elapsed().as_millis() as u64,
            witness_argv: None,
            witness_assignment: None,
            timed_out: outcome.timed_out,
            exhausted: outcome.exhausted,
            syscall_divergences: outcome.syscall_divergences,
            cursor_overruns: outcome.cursor_overruns,
            checkpoint_divergences: outcome.checkpoint_divergences,
            escalation: outcome.escalation,
            concretization_ranges: outcome.concretization_ranges,
            concretization_pins: outcome.concretization_pins,
            pin_fallbacks: outcome.pin_fallbacks,
            cache_hits: outcome.cache_hits,
            cache_misses: outcome.cache_misses,
            prefix_len_saved: outcome.prefix_len_saved,
            frontier: outcome.frontier,
            last_run_stats: last_stats,
        }
    }
}

/// How a failed search ended (threaded into [`ReplayResult`]).
struct Outcome {
    timed_out: bool,
    exhausted: bool,
    syscall_divergences: u64,
    cursor_overruns: u64,
    checkpoint_divergences: u64,
    escalation: EscalationReport,
    concretization_ranges: u64,
    concretization_pins: u64,
    pin_fallbacks: u64,
    cache_hits: u64,
    cache_misses: u64,
    prefix_len_saved: u64,
    frontier: FrontierStats,
}

/// Everything one replay run leaves behind: the outcome, the argv it
/// ran with, meters, and the symbolic path. Produced by
/// [`ReplayEngine::exec_run`] on the main thread (serial engine) or on
/// a worker (speculative SAT run); consumed by the serial commit path
/// either way.
struct RunArtifacts {
    outcome: RunOutcome,
    argv: Vec<Vec<u8>>,
    instrs: u64,
    units: u64,
    log_exhausted: bool,
    stats: crate::host::ReplayRunStats,
    path: Vec<PathStep>,
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

/// Takes the accumulated escalation evidence out of the book, stamped
/// with the run count it was gathered over (used at every result-
/// construction site so the book is consumed exactly once).
fn taken(book: &mut RepairBook, runs: usize) -> EscalationReport {
    let mut esc = std::mem::take(&mut book.escalation);
    esc.runs = runs;
    esc
}

/// Appends one path step to a pending constraint set: the
/// offset-generalizing range form when the step has one, its literal
/// (branch condition or emission-time pin) otherwise.
fn push_step(cs: &mut ConstraintSet, step: &PathStep) {
    match step.range {
        Some(rc) => cs.push_range(rc),
        None => cs.push(step.lit),
    }
}
