//! The concolic exploration engine (the paper's dynamic analysis).
//!
//! Implements §2.1: start from a random concrete input, execute while
//! collecting the path condition, negate one branch condition, solve for
//! a new input, repeat — labeling every executed branch location
//! `Symbolic` or `Concrete` along the way. Exploration order is delegated
//! to the shared frontier scheduler ([`search::Frontier`]): depth-first by
//! default (the paper's §3.2 stack), with breadth-mixed generational
//! search, per-branch negation quotas and drain restarts available
//! through [`search::SearchLimits::policy`].
//!
//! The analysis budget ([`search::SearchLimits::max_runs`]) is the reproduction's
//! deterministic stand-in for the paper's wall-clock budgets (the 1-hour
//! LC and 2-hour HC configurations of §5.3).

use crate::input::{realize, InputSpec, InputVars};
use crate::label::{LabelMap, Profile};
use crate::shadow::{Concretization, PathStep, StepOrigin, SymHost};
use minic::cost::Meter;
use minic::memory::pack;
use minic::vm::{CrashInfo, RunOutcome, Vm};
use minic::CompiledProgram;
use oskit::{Kernel, KernelConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use search::{Frontier, FrontierStats, PrefixSigs, SearchLimits, SearchPolicy};
use solver::{mix_seed, ConstraintSet, ExprArena, FastMap, Lit, PrefixCache, SolveCfg, VarId};

/// Exploration budget. `max_runs` is the primary (deterministic) knob —
/// the LC/HC axis of the paper; the others are safety caps. The shared
/// knob surface lives in [`search::SearchLimits`], embedded here (and
/// by `replay::ReplayBudget`) behind `Deref`, so `budget.max_runs` and
/// friends read and write exactly as before the unification.
#[derive(Debug, Clone)]
pub struct Budget {
    /// The shared search knobs (run cap, fuel, wall clock, frontier
    /// caps, policy, workers, prefix cache).
    pub limits: SearchLimits,
    /// How symbolic address components are concretized (offset-
    /// generalizing region bounds by default; `Pin` restores the classic
    /// equality-pin behavior). Engine-specific: not part of the shared
    /// limits.
    pub concretization: Concretization,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            limits: SearchLimits::analysis(),
            concretization: Concretization::default(),
        }
    }
}

impl std::ops::Deref for Budget {
    type Target = SearchLimits;
    fn deref(&self) -> &SearchLimits {
        &self.limits
    }
}

impl std::ops::DerefMut for Budget {
    fn deref_mut(&mut self) -> &mut SearchLimits {
        &mut self.limits
    }
}

impl From<SearchLimits> for Budget {
    fn from(limits: SearchLimits) -> Self {
        Budget {
            limits,
            ..Budget::default()
        }
    }
}

impl From<Budget> for SearchLimits {
    fn from(b: Budget) -> Self {
        b.limits
    }
}

impl Budget {
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

/// Full configuration of one analysis session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Input shape (what is symbolic).
    pub spec: InputSpec,
    /// Base kernel configuration (seed, signal plan, concrete files...).
    pub kernel: KernelConfig,
    /// Exploration budget.
    pub budget: Budget,
    /// Seed for the initial input and the solver.
    pub seed: u64,
    /// Solver configuration.
    pub solve: SolveCfg,
}

impl SessionConfig {
    /// A default session over the given input shape.
    pub fn new(spec: InputSpec) -> Self {
        SessionConfig {
            spec,
            kernel: KernelConfig::default(),
            budget: Budget::default(),
            seed: 7,
            solve: SolveCfg::default(),
        }
    }
}

/// Everything recorded about one concolic run.
pub struct RunRecord {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// The collected path condition.
    pub path: Vec<PathStep>,
    /// Observed values of per-run non-determinism variables.
    pub nondet: Vec<(VarId, i64)>,
    /// Execution counters.
    pub meter: Meter,
    /// The argv this run used.
    pub argv: Vec<Vec<u8>>,
    /// Captured stdout.
    pub stdout: Vec<u8>,
    /// Labels observed in this run alone.
    pub labels: LabelMap,
    /// Profile of this run alone.
    pub profile: Profile,
    /// Symbolic addresses concretized in this run.
    pub concretizations: u64,
    /// Concretizations emitted as offset-generalizing ranges.
    pub concretization_ranges: u64,
    /// Concretizations pinned at emission.
    pub concretization_pins: u64,
}

/// A crash discovered during analysis (pre-ship bug finding).
#[derive(Debug, Clone)]
pub struct FoundCrash {
    /// Crash site and kind.
    pub info: CrashInfo,
    /// The argv that triggered it.
    pub argv: Vec<Vec<u8>>,
    /// The controllable input assignment that triggered it.
    pub assignment: Vec<i64>,
}

/// The output of [`Engine::analyze`].
pub struct AnalysisResult {
    /// Merged branch labels (the dynamic method instruments `Symbolic`).
    pub labels: LabelMap,
    /// Merged execution profile.
    pub profile: Profile,
    /// Number of runs performed.
    pub runs: usize,
    /// Number of solver invocations.
    pub solver_calls: usize,
    /// Solver calls that found a model.
    pub solver_sat: usize,
    /// Crashes discovered.
    pub crashes: Vec<FoundCrash>,
    /// Expression-arena size at the end (diagnostics).
    pub arena_nodes: usize,
    /// Total instructions executed across runs.
    pub total_instrs: u64,
    /// Symbolic addresses concretized across runs.
    pub concretizations: u64,
    /// Concretizations emitted in the offset-generalizing range form.
    pub concretization_ranges: u64,
    /// Concretizations that used (or fell back at emission to) the pin.
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
    /// True when exploration stopped because the frontier drained with
    /// run budget left (and the policy did not restart).
    pub exhausted: bool,
    /// True when the wall-clock cap expired (including mid-solve).
    pub timed_out: bool,
    /// Frontier scheduling counters.
    pub frontier: FrontierStats,
}

/// The concolic engine for one program + input shape.
pub struct Engine<'p> {
    cp: &'p CompiledProgram,
    cfg: SessionConfig,
}

/// A seeded random printable-byte assignment of length `n` — the initial
/// candidate shape both engines use.
pub fn seeded_assignment(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0x20..0x7f) as i64).collect()
}

/// The derived seed for the `r`-th drain restart of a session seeded
/// with `seed`.
pub fn restart_seed(seed: u64, r: u64) -> u64 {
    mix_seed(seed, r)
}

/// Marks every symbolic argv byte of a prepared VM with its variable.
pub fn mark_argv_symbolic(vm: &mut Vm<'_, SymHost>) {
    let objs: Vec<_> = vm.argv_objects().to_vec();
    let argv_vars = vm.host.vars.argv.clone();
    for (ai, arg_vars) in argv_vars.iter().enumerate() {
        for (bi, vid) in arg_vars.iter().enumerate() {
            let e = vm.host.arena.var_expr(*vid);
            vm.mem
                .set_shadow(pack(objs[ai], bi as u32), Some(e))
                .expect("argv bytes exist");
        }
    }
}

impl<'p> Engine<'p> {
    /// Creates an engine.
    pub fn new(cp: &'p CompiledProgram, cfg: SessionConfig) -> Self {
        Engine { cp, cfg }
    }

    /// The initial (seeded random, printable) controllable assignment.
    pub fn initial_assignment(&self) -> Vec<i64> {
        seeded_assignment(self.cfg.spec.n_symbolic_bytes(), self.cfg.seed)
    }

    /// A fresh seeded assignment for the `r`-th drain restart.
    fn restart_assignment(&self, r: u64) -> Vec<i64> {
        seeded_assignment(
            self.cfg.spec.n_symbolic_bytes(),
            restart_seed(self.cfg.seed, r),
        )
    }

    /// Executes one concolic run under `assignment`, threading the arena
    /// through (it accumulates interned expressions session-wide).
    pub fn run_once(
        &self,
        arena: ExprArena,
        vars: &InputVars,
        assignment: &[i64],
    ) -> (RunRecord, ExprArena) {
        let (argv, kcfg) = realize(&self.cfg.spec, vars, assignment, &self.cfg.kernel);
        let mut host = SymHost::new(arena, Kernel::new(kcfg), vars.clone(), self.cp.n_branches());
        host.concretization = self.cfg.budget.concretization;
        let mut vm = Vm::new(self.cp, host);
        vm.fuel = self.cfg.budget.fuel_per_run;
        vm.prepare(&argv);
        mark_argv_symbolic(&mut vm);
        let outcome = vm.resume();
        let meter = vm.meter.clone();
        let host = vm.host;
        (
            RunRecord {
                outcome,
                path: host.path,
                nondet: host.nondet_values,
                meter,
                argv,
                stdout: host.stdout,
                labels: host.labels,
                profile: host.profile,
                concretizations: host.concretizations,
                concretization_ranges: host.concretization_ranges,
                concretization_pins: host.concretization_pins,
            },
            host.arena,
        )
    }

    /// One profiled run with the initial input (Figures 1 and 3: per
    /// branch location, total vs. symbolic executions).
    pub fn profile_run(&self) -> (RunRecord, ExprArena) {
        let mut arena = ExprArena::new();
        let vars = InputVars::alloc(&mut arena, &self.cfg.spec);
        let assignment = self.initial_assignment();
        self.run_once(arena, &vars, &assignment)
    }

    /// Full exploration: runs until the budget is exhausted or no
    /// unexplored pending constraint set remains.
    ///
    /// `budget.workers <= 1` runs the fully serial engine; larger values
    /// shard the candidate search across that many worker threads with
    /// speculative solving committed strictly in pop order, so the
    /// result is worker-count invariant (see the replay engine's
    /// parallel protocol — this is the same, minus forced-set repair).
    pub fn analyze(&self) -> AnalysisResult {
        if self.cfg.budget.workers <= 1 {
            self.analyze_serial()
        } else {
            self.analyze_parallel()
        }
    }

    /// Banks one finished run into the frontier: substitutes the run's
    /// nondeterminism into the path condition, then offers negated
    /// branch literals in the strategy's order (caps, quotas and dedup
    /// live in the frontier). Mutates the arena (substitution interns
    /// new expressions) and is the prefix cache's single writer, so the
    /// parallel engine calls it only between speculative phases.
    fn bank_offers(
        &self,
        record: &RunRecord,
        assignment: &[i64],
        vars: &InputVars,
        arena: &mut ExprArena,
        frontier: &mut Frontier,
        cache: &mut PrefixCache,
    ) {
        let pin: FastMap<VarId, i64> = record.nondet.iter().copied().collect();
        let exprs: Vec<_> = record.path.iter().map(|s| s.lit.expr).collect();
        let substituted_exprs = arena.substitute_many(&exprs, &pin);
        let substituted: Vec<Lit> = record
            .path
            .iter()
            .zip(&substituted_exprs)
            .map(|(step, expr)| Lit {
                expr: *expr,
                positive: step.lit.positive,
            })
            .collect();
        // Range constraints (offset-generalized concretizations) get
        // the same nondeterminism substitution on their expressions.
        // Only the range-bearing steps are substituted — most steps
        // carry none, and the whole-path DAG substitution above is
        // already the engine's hotspot.
        let ranged: Vec<(usize, solver::RangeConstraint)> = record
            .path
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.range.map(|rc| (i, rc)))
            .collect();
        let range_exprs: Vec<_> = ranged.iter().map(|(_, rc)| rc.expr).collect();
        let substituted_range_exprs = arena.substitute_many(&range_exprs, &pin);
        let mut ranges: Vec<Option<solver::RangeConstraint>> = vec![None; record.path.len()];
        for ((i, rc), expr) in ranged.iter().zip(&substituted_range_exprs) {
            ranges[*i] = Some(solver::RangeConstraint { expr: *expr, ..*rc });
        }
        // This run executed, so every literal of its (substituted) path
        // condition held: register the satisfied prefixes so candidates
        // that share one can skip straight to the divergent suffix.
        if self.cfg.budget.prefix_cache {
            let reg_lits: Vec<Lit> = substituted
                .iter()
                .enumerate()
                .filter(|(i, _)| ranges[*i].is_none())
                .map(|(_, l)| *l)
                .collect();
            let reg_ranges: Vec<solver::RangeConstraint> =
                ranges.iter().filter_map(|r| *r).collect();
            cache.register_path(arena, &reg_lits, &reg_ranges);
        }
        // A step contributes its range form when it has one, else its
        // literal (branch condition or emission-time pin). Candidates are
        // hashed from the path before any is built: only the few the
        // frontier accepts pay for their O(depth) prefix copy.
        let sigs = PrefixSigs::new(substituted.iter().copied().zip(ranges.iter().copied()));
        let seed_controllables = &assignment[..vars.n_controllable as usize];
        frontier.begin_run();
        let order = self
            .cfg
            .budget
            .policy
            .strategy
            .offer_order(substituted.len());
        for i in order {
            if frontier.run_full() {
                break;
            }
            let StepOrigin::Branch(bid) = record.path[i].origin else {
                continue;
            };
            if !frontier.depth_ok(i + 1) {
                continue;
            }
            // Skip conditions that no controllable input influences.
            if arena.is_concrete(substituted[i].expr) {
                continue;
            }
            let neg = substituted[i].negated();
            let (sig, lits) = sigs.candidate(i, neg);
            frontier.offer(sig, lits, Some(bid.0), || {
                let mut cs = ConstraintSet::new();
                for (lit, range) in substituted[..i].iter().zip(&ranges) {
                    match range {
                        Some(rc) => cs.push_range(*rc),
                        None => cs.push(*lit),
                    }
                }
                cs.push(neg);
                (cs, seed_controllables.to_vec())
            });
        }
        frontier.end_run();
    }

    fn analyze_serial(&self) -> AnalysisResult {
        let start = std::time::Instant::now();
        let mut arena = ExprArena::new();
        let vars = InputVars::alloc(&mut arena, &self.cfg.spec);
        let mut labels = LabelMap::new(self.cp.n_branches());
        let mut profile = Profile::new(self.cp.n_branches());
        let mut crashes = Vec::new();
        let mut solver_calls = 0usize;
        let mut solver_sat = 0usize;
        let mut total_instrs = 0u64;
        let mut concretizations = 0u64;
        let mut concretization_ranges = 0u64;
        let mut concretization_pins = 0u64;
        let mut pin_fallbacks = 0u64;
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        let mut prefix_len_saved = 0u64;
        let mut pcache = PrefixCache::new();

        let mut assignment = self.initial_assignment();
        let mut frontier = Frontier::new(
            self.cfg.budget.policy.clone(),
            self.cfg.budget.max_pendings_per_run,
            self.cfg.budget.max_pending_lits,
        );
        let mut runs = 0usize;
        let mut exhausted = false;
        let mut timed_out = false;
        let wall_expired = |start: &std::time::Instant| {
            self.cfg.budget.max_wall_ms > 0
                && start.elapsed().as_millis() as u64 > self.cfg.budget.max_wall_ms
        };

        'explore: loop {
            let (record, arena_back) = self.run_once(arena, &vars, &assignment);
            arena = arena_back;
            labels.merge(&record.labels);
            profile.merge(&record.profile);
            total_instrs += record.meter.instrs;
            concretizations += record.concretizations;
            concretization_ranges += record.concretization_ranges;
            concretization_pins += record.concretization_pins;
            if let RunOutcome::Crashed(info) = &record.outcome {
                crashes.push(FoundCrash {
                    info: info.clone(),
                    argv: record.argv.clone(),
                    assignment: assignment.clone(),
                });
            }
            runs += 1;
            if runs >= self.cfg.budget.max_runs {
                break;
            }
            if wall_expired(&start) {
                timed_out = true;
                break;
            }

            // Schedule pending sets: substitute this run's nondeterminism,
            // then negate branch literals in the strategy's offer order
            // (caps, quotas and dedup live in the frontier).
            self.bank_offers(
                &record,
                &assignment,
                &vars,
                &mut arena,
                &mut frontier,
                &mut pcache,
            );
            arena.freeze();

            // Solve pending sets in the frontier's order until one is
            // satisfiable; sets with range constraints retry pinned when
            // the bounded form goes unsolved.
            let mut next: Option<Vec<i64>> = None;
            while let Some(pending) = frontier.pop() {
                solver_calls += 1;
                let cfg = SolveCfg {
                    seed: mix_seed(self.cfg.seed, solver_calls as u64),
                    ..self.cfg.solve.clone()
                };
                let sig = pending.sig;
                let (model, sstats) = solver::solve_or_pin_ro_cached(
                    &arena,
                    &pending.cs,
                    Some(&pending.seed),
                    &cfg,
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
                    solver_sat += 1;
                    frontier.note_solved_sig(sig, true);
                    next = Some(model[..vars.n_controllable as usize].to_vec());
                    break;
                }
                frontier.note_unsat_sig(sig, sstats.refuted);
                if wall_expired(&start) {
                    timed_out = true;
                    break;
                }
            }
            match next {
                Some(model) => assignment = model,
                None => {
                    if timed_out {
                        break;
                    }
                    // Frontier drained before the run budget: restart from
                    // a fresh seed if the policy allows, else we are done.
                    if self.cfg.budget.policy.restart_on_drain && frontier.ever_scheduled() {
                        let r = frontier.stats().restarts;
                        frontier.note_restart();
                        assignment = self.restart_assignment(r);
                        continue 'explore;
                    }
                    exhausted = true;
                    break;
                }
            }
        }

        AnalysisResult {
            labels,
            profile,
            runs,
            solver_calls,
            solver_sat,
            crashes,
            arena_nodes: arena.len(),
            total_instrs,
            concretizations,
            concretization_ranges,
            concretization_pins,
            pin_fallbacks,
            cache_hits,
            cache_misses,
            prefix_len_saved,
            exhausted,
            timed_out,
            frontier: frontier.into_stats(),
        }
    }

    /// The parallel analysis engine: `workers` threads speculatively
    /// solve pending sets popped from the shared frontier (and replay
    /// SAT models on their own `minic::Vm` over private arena clones),
    /// with verdicts committed serially in pop order — the same protocol
    /// as the replay engine's, minus forced-set repair. The committed
    /// decision sequence is exactly the serial engine's, so the analysis
    /// result is worker-count invariant.
    fn analyze_parallel(&self) -> AnalysisResult {
        let workers = self.cfg.budget.workers;
        let start = std::time::Instant::now();
        let mut arena = ExprArena::new();
        let vars = InputVars::alloc(&mut arena, &self.cfg.spec);
        let mut labels = LabelMap::new(self.cp.n_branches());
        let mut profile = Profile::new(self.cp.n_branches());
        let mut crashes = Vec::new();
        let mut solver_calls = 0usize;
        let mut solver_sat = 0usize;
        let mut total_instrs = 0u64;
        let mut concretizations = 0u64;
        let mut concretization_ranges = 0u64;
        let mut concretization_pins = 0u64;
        let mut pin_fallbacks = 0u64;
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        let mut prefix_len_saved = 0u64;
        let mut pcache = PrefixCache::new();

        let mut assignment = self.initial_assignment();
        let mut frontier = Frontier::new(
            self.cfg.budget.policy.clone(),
            self.cfg.budget.max_pendings_per_run,
            self.cfg.budget.max_pending_lits,
        );
        let mut runs = 0usize;
        let mut exhausted = false;
        let mut timed_out = false;
        let wall_expired = |start: &std::time::Instant| {
            self.cfg.budget.max_wall_ms > 0
                && start.elapsed().as_millis() as u64 > self.cfg.budget.max_wall_ms
        };

        // A run produced by a winning speculative solve job, carried
        // into the next round with the model that drove it.
        let mut staged: Option<(RunRecord, Vec<i64>)> = None;
        'explore: loop {
            let record = match staged.take() {
                Some((record, model)) => {
                    assignment = model;
                    record
                }
                None => {
                    let (record, arena_back) = self.run_once(arena, &vars, &assignment);
                    arena = arena_back;
                    record
                }
            };
            labels.merge(&record.labels);
            profile.merge(&record.profile);
            total_instrs += record.meter.instrs;
            concretizations += record.concretizations;
            concretization_ranges += record.concretization_ranges;
            concretization_pins += record.concretization_pins;
            if let RunOutcome::Crashed(info) = &record.outcome {
                crashes.push(FoundCrash {
                    info: info.clone(),
                    argv: record.argv.clone(),
                    assignment: assignment.clone(),
                });
            }
            runs += 1;
            if runs >= self.cfg.budget.max_runs {
                break;
            }
            if wall_expired(&start) {
                timed_out = true;
                break;
            }

            // Bank this run's offers (serial; mutates the arena and the
            // prefix cache, so it happens strictly between speculative
            // phases — workers only ever read a frozen cache state).
            self.bank_offers(
                &record,
                &assignment,
                &vars,
                &mut arena,
                &mut frontier,
                &mut pcache,
            );
            // Freeze the central generation: worker-side clones (solve
            // scratch and speculative run arenas) now share the prefix
            // instead of deep-copying it.
            arena.freeze();

            // Speculative solve streak.
            'streak: loop {
                if !timed_out {
                    let batch = frontier.pop_batch(workers);
                    if !batch.is_empty() {
                        // Parallel phase against the frozen central
                        // arena; seeds are pre-assigned by commit index
                        // so committed verdicts match the serial
                        // engine's.
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
                                let ctrl = m[..vars.n_controllable as usize].to_vec();
                                let (rec, job_arena) =
                                    self.run_once(arena_ref.clone(), &vars, &ctrl);
                                (rec, job_arena, ctrl)
                            });
                            (model.is_some(), sstats, run)
                        });
                        frontier.note_worker_runs(&phase.worker_counts);

                        // Commit phase: verdicts strictly in pop order.
                        let mut pops = batch.into_iter();
                        let mut outs = phase.results.into_iter();
                        while let Some(pop) = pops.next() {
                            let (sat, sstats, spec_run) =
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
                            if sat {
                                solver_sat += 1;
                                frontier.note_solved_sig(sig, true);
                                frontier.restore(pops.collect());
                                let (mut rec, job_arena, ctrl) =
                                    spec_run.expect("every SAT job carries its run");
                                // Import the worker's expressions and
                                // retarget the path at the central ids.
                                let mut roots = Vec::with_capacity(rec.path.len() * 2);
                                for st in &rec.path {
                                    roots.push(st.lit.expr);
                                    if let Some(rc) = &st.range {
                                        roots.push(rc.expr);
                                    }
                                }
                                let mapped = arena.absorb(&job_arena, base_nodes, &roots);
                                let mut mapped = mapped.into_iter();
                                for st in &mut rec.path {
                                    st.lit.expr = mapped.next().expect("mapped root");
                                    if let Some(rc) = &mut st.range {
                                        rc.expr = mapped.next().expect("mapped root");
                                    }
                                }
                                staged = Some((rec, ctrl));
                                break 'streak;
                            }
                            frontier.note_unsat_sig(sig, sstats.refuted);
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
                if timed_out {
                    break 'explore;
                }
                // Frontier drained before the run budget: restart from
                // a fresh seed if the policy allows, else we are done.
                if self.cfg.budget.policy.restart_on_drain && frontier.ever_scheduled() {
                    let r = frontier.stats().restarts;
                    frontier.note_restart();
                    assignment = self.restart_assignment(r);
                    break 'streak;
                }
                exhausted = true;
                break 'explore;
            }
        }

        AnalysisResult {
            labels,
            profile,
            runs,
            solver_calls,
            solver_sat,
            crashes,
            arena_nodes: arena.len(),
            total_instrs,
            concretizations,
            concretization_ranges,
            concretization_pins,
            pin_fallbacks,
            cache_hits,
            cache_misses,
            prefix_len_saved,
            exhausted,
            timed_out,
            frontier: frontier.into_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::InputSpec;
    use crate::label::BranchLabel;
    use minic::build;

    fn analyze(src: &str, spec: InputSpec, max_runs: usize) -> AnalysisResult {
        let cp = build(&[("main", src)]).unwrap();
        let mut cfg = SessionConfig::new(spec);
        cfg.budget.max_runs = max_runs;
        Engine::new(&cp, cfg).analyze()
    }

    #[test]
    fn explores_both_sides_of_an_input_branch() {
        let src = r#"
            int main(int argc, char **argv) {
                if (argv[1][0] == 'a') { return 1; }
                return 0;
            }
        "#;
        let cp = build(&[("main", src)]).unwrap();
        let cfg = SessionConfig::new(InputSpec::argv_symbolic("p", 1, 1));
        let r = Engine::new(&cp, cfg).analyze();
        // Both directions need at least two runs; the branch is symbolic.
        assert!(r.runs >= 2);
        assert_eq!(r.labels.count(BranchLabel::Symbolic), 1);
        assert!(r.solver_sat >= 1);
    }

    #[test]
    fn finds_the_guarded_crash() {
        // The classic concolic motivating example: a crash behind a
        // specific input comparison chain.
        let src = r#"
            int main(int argc, char **argv) {
                if (argv[1][0] == 'b') {
                    if (argv[1][1] == 'u') {
                        if (argv[1][2] == 'g') {
                            int *p = 0;
                            return *p;
                        }
                    }
                }
                return 0;
            }
        "#;
        let r = analyze(src, InputSpec::argv_symbolic("p", 1, 3), 40);
        assert!(
            !r.crashes.is_empty(),
            "crash behind 'bug' must be found within budget (runs={})",
            r.runs
        );
        let c = &r.crashes[0];
        assert_eq!(&c.argv[1][..3], b"bug");
    }

    #[test]
    fn concrete_program_needs_one_run() {
        let src = r#"
            int main(int argc, char **argv) {
                int s = 0;
                for (int i = 0; i < 10; i++) { s += i; }
                if (s > 100) { return 1; }
                return 0;
            }
        "#;
        let r = analyze(src, InputSpec::argv_symbolic("p", 1, 2), 16);
        assert_eq!(r.runs, 1, "no symbolic branches, nothing to explore");
        assert_eq!(r.labels.count(BranchLabel::Symbolic), 0);
        assert_eq!(r.labels.count(BranchLabel::Concrete), 2);
    }

    #[test]
    fn coverage_grows_with_budget() {
        // A chain of equality guards: each solved negation uncovers one
        // more nested branch.
        let src = r#"
            int main(int argc, char **argv) {
                char *s = argv[1];
                int depth = 0;
                if (s[0] == 'x') {
                    depth = 1;
                    if (s[1] == 'y') {
                        depth = 2;
                        if (s[2] == 'z') { depth = 3; }
                    }
                }
                if (depth == 3) { return 1; }
                return 0;
            }
        "#;
        let small = analyze(src, InputSpec::argv_symbolic("p", 1, 3), 2);
        let large = analyze(src, InputSpec::argv_symbolic("p", 1, 3), 32);
        let visited_small = small.labels.len() - small.labels.count(BranchLabel::Unvisited);
        let visited_large = large.labels.len() - large.labels.count(BranchLabel::Unvisited);
        assert!(visited_large >= visited_small);
        assert_eq!(
            large.labels.count(BranchLabel::Unvisited),
            0,
            "full budget visits every branch"
        );
    }

    #[test]
    fn library_style_loop_branches_get_labeled() {
        let src = r#"
            int my_strlen(char *s) {
                int n = 0;
                while (s[n]) { n++; }
                return n;
            }
            int main(int argc, char **argv) {
                if (my_strlen(argv[1]) > 2) { return 1; }
                return 0;
            }
        "#;
        let r = analyze(src, InputSpec::argv_symbolic("p", 1, 4), 24);
        // The while condition reads symbolic bytes directly: symbolic.
        // The length count is only *control*-dependent on input — data
        // flow tainting (what concolic engines track) leaves it concrete,
        // so the `if` stays concrete. This under-approximation is exactly
        // why the paper's dynamic method can miss symbolic branches.
        assert_eq!(r.labels.count(BranchLabel::Symbolic), 1);
        assert_eq!(r.labels.count(BranchLabel::Concrete), 1);
    }

    #[test]
    fn analysis_is_deterministic() {
        let src = r#"
            int main(int argc, char **argv) {
                if (argv[1][0] == 'q') { return 1; }
                if (argv[1][1] > 'm') { return 2; }
                return 0;
            }
        "#;
        let run = || {
            let cp = build(&[("main", src)]).unwrap();
            let cfg = SessionConfig::new(InputSpec::argv_symbolic("p", 1, 2));
            let r = Engine::new(&cp, cfg).analyze();
            (r.runs, r.solver_calls, r.profile.total_execs())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn concrete_exhaustion_is_not_a_timeout() {
        let src = r#"
            int main(int argc, char **argv) {
                if (argc > 99) { return 1; }
                return 0;
            }
        "#;
        let r = analyze(src, InputSpec::argv_symbolic("p", 1, 1), 16);
        assert!(r.exhausted, "no symbolic branches: frontier drains");
        assert!(!r.timed_out);
        assert_eq!(r.frontier.scheduled, 0);
    }

    #[test]
    fn restart_on_drain_keeps_exploring() {
        // One symbolic guard: plain DFS explores both sides in 2-3 runs
        // and drains; restart-on-drain keeps burning the budget on fresh
        // seeds instead of declaring exhaustion.
        let src = r#"
            int main(int argc, char **argv) {
                if (argv[1][0] == 'a') { return 1; }
                return 0;
            }
        "#;
        let cp = build(&[("main", src)]).unwrap();
        let mut cfg = SessionConfig::new(InputSpec::argv_symbolic("p", 1, 1));
        cfg.budget.max_runs = 8;
        cfg.budget.policy = search::SearchPolicy {
            restart_on_drain: true,
            ..search::SearchPolicy::default()
        };
        let r = Engine::new(&cp, cfg).analyze();
        assert_eq!(r.runs, 8, "restarts consume the whole budget");
        assert!(!r.exhausted);
        assert!(r.frontier.restarts >= 1);
    }

    #[test]
    fn generational_strategy_is_deterministic_and_covers() {
        let src = r#"
            int main(int argc, char **argv) {
                char *s = argv[1];
                if (s[0] == 'x') {
                    if (s[1] == 'y') {
                        if (s[2] == 'z') { return 3; }
                    }
                }
                return 0;
            }
        "#;
        let run = || {
            let cp = build(&[("main", src)]).unwrap();
            let mut cfg = SessionConfig::new(InputSpec::argv_symbolic("p", 1, 3));
            cfg.budget.max_runs = 32;
            cfg.budget.policy = search::SearchPolicy::explorer();
            let r = Engine::new(&cp, cfg).analyze();
            assert_eq!(
                r.labels.count(BranchLabel::Unvisited),
                0,
                "breadth-mixed search still reaches every branch"
            );
            (r.runs, r.solver_calls, r.solver_sat, r.frontier.clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn analysis_is_worker_count_invariant() {
        // The parallel engine commits speculative verdicts strictly in
        // pop order and absorbs the winning worker's arena back into the
        // central numbering, so the whole analysis — run/solver counts,
        // the ordered (signature, verdict) stream, the final arena size,
        // the profile, even the crash list — is bit-identical for every
        // worker count.
        let src = r#"
            int main(int argc, char **argv) {
                char *s = argv[1];
                if (s[0] == 'x') {
                    if (s[1] == 'y') {
                        if (s[2] == 'z') {
                            int *p = 0;
                            return *p;
                        }
                    }
                }
                if (s[0] > 'm') { return 2; }
                return 0;
            }
        "#;
        let run = |workers: usize| {
            let cp = build(&[("main", src)]).unwrap();
            let mut cfg = SessionConfig::new(InputSpec::argv_symbolic("p", 1, 3));
            cfg.budget.max_runs = 32;
            cfg.budget.workers = workers;
            let r = Engine::new(&cp, cfg).analyze();
            (
                r.runs,
                r.solver_calls,
                r.solver_sat,
                r.arena_nodes,
                r.frontier.solved_sigs.clone(),
                r.profile.total_execs(),
                r.crashes.len(),
                r.crashes.first().map(|c| c.argv.clone()),
                r.exhausted,
                r.timed_out,
                (r.cache_hits, r.cache_misses, r.prefix_len_saved),
            )
        };
        let serial = run(1);
        assert!(!serial.4.is_empty(), "the analysis must solve sets");
        for workers in [2, 4] {
            assert_eq!(serial, run(workers), "workers={workers} diverged");
        }
    }

    #[test]
    fn prefix_cache_on_off_is_bit_identical() {
        // Every cache shortcut is provably outcome-identical, so the
        // whole analysis tuple — including the arena node count — must
        // match with the cache disabled, at any worker count.
        let src = r#"
            int main(int argc, char **argv) {
                char *s = argv[1];
                if (s[0] == 'x') {
                    if (s[1] == 'y') {
                        if (s[2] == 'z') { return 3; }
                    }
                }
                if (s[0] > 'm') { return 2; }
                return 0;
            }
        "#;
        let run = |cache: bool, workers: usize| {
            let cp = build(&[("main", src)]).unwrap();
            let mut cfg = SessionConfig::new(InputSpec::argv_symbolic("p", 1, 3));
            cfg.budget.max_runs = 32;
            cfg.budget.workers = workers;
            cfg.budget.prefix_cache = cache;
            let r = Engine::new(&cp, cfg).analyze();
            (
                (
                    r.runs,
                    r.solver_calls,
                    r.solver_sat,
                    r.arena_nodes,
                    r.frontier.solved_sigs.clone(),
                    r.profile.total_execs(),
                    r.crashes.len(),
                ),
                (r.cache_hits, r.cache_misses, r.prefix_len_saved),
            )
        };
        let (base, (hits, misses, saved)) = run(true, 1);
        assert!(hits > 0, "guard chain must share prefixes");
        assert!(saved >= hits, "every hit saves at least one literal");
        assert_eq!(
            hits + misses,
            base.1 as u64,
            "ledger: hits + misses == solves"
        );
        for workers in [1, 4] {
            let (off, (off_hits, _, off_saved)) = run(false, workers);
            assert_eq!(base, off, "cache=off workers={workers} diverged");
            assert_eq!(off_hits, 0, "disabled cache cannot hit");
            assert_eq!(off_saved, 0);
        }
    }

    #[test]
    fn cache_ledger_accounts_every_solve() {
        let src = r#"
            int main(int argc, char **argv) {
                char *s = argv[1];
                if (s[0] == 'a') { if (s[1] == 'b') { return 1; } }
                if (s[2] > 'c') { return 2; }
                return 0;
            }
        "#;
        for workers in [1usize, 4] {
            let cp = build(&[("main", src)]).unwrap();
            let mut cfg = SessionConfig::new(InputSpec::argv_symbolic("p", 1, 3));
            cfg.budget.max_runs = 24;
            cfg.budget.workers = workers;
            let r = Engine::new(&cp, cfg).analyze();
            assert_eq!(
                r.cache_hits + r.cache_misses,
                r.solver_calls as u64,
                "workers={workers}: every committed solve is hit or miss"
            );
        }
    }

    #[test]
    fn wall_timeout_is_reported_as_timeout() {
        // A heavy concrete loop makes a single run take well over the
        // 1 ms wall cap, so the expiry check after run 1 must fire —
        // reported as a timeout, never as exhaustion, with most of the
        // run budget unspent.
        let src = r#"
            int main(int argc, char **argv) {
                char *s = argv[1];
                int acc = 0;
                for (int i = 0; i < 200000; i++) { acc = acc + i; }
                if (s[0] > 'a') { acc++; }
                return acc & 1;
            }
        "#;
        let cp = build(&[("main", src)]).unwrap();
        let mut cfg = SessionConfig::new(InputSpec::argv_symbolic("p", 1, 1));
        cfg.budget.max_runs = 100_000;
        cfg.budget.max_wall_ms = 1;
        let r = Engine::new(&cp, cfg).analyze();
        assert!(
            r.timed_out,
            "the 1 ms wall cap must expire: {} runs",
            r.runs
        );
        assert!(!r.exhausted, "timeout is not exhaustion");
        assert!(r.runs < 100_000, "the run budget was not the stopper");
    }

    #[test]
    fn profile_counts_symbolic_subset() {
        let src = r#"
            int main(int argc, char **argv) {
                int n = 0;
                for (int i = 0; i < 5; i++) { n += i; }     // concrete loop
                if (argv[1][0] == 'a') { n++; }             // symbolic
                return n;
            }
        "#;
        let cp = build(&[("main", src)]).unwrap();
        let cfg = SessionConfig::new(InputSpec::argv_symbolic("p", 1, 1));
        let (record, _) = Engine::new(&cp, cfg).profile_run();
        assert_eq!(record.profile.symbolic_locations(), 1);
        assert_eq!(record.profile.executed_locations(), 2);
        assert!(record.profile.total_execs() > record.profile.symbolic_execs());
    }
}
