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
use search::driver::{self, End, GuidedEngine};
use search::{seeded_assignment, Frontier, PrefixSigs, SearchCounters, SearchLimits};
use solver::{Constraint, ExprArena, FastMap, PrefixCache, SolveCfg, VarId};

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

/// The output of [`Engine::analyze`]. The search counters shared with
/// replay live in [`SearchCounters`], embedded behind `Deref`, so
/// `result.runs` and friends read as plain fields.
pub struct AnalysisResult {
    /// Merged branch labels (the dynamic method instruments `Symbolic`).
    pub labels: LabelMap,
    /// Merged execution profile.
    pub profile: Profile,
    /// Runs, solver calls, cache ledger and frontier counters.
    pub counters: SearchCounters,
    /// Crashes discovered.
    pub crashes: Vec<FoundCrash>,
    /// Expression-arena size at the end (diagnostics).
    pub arena_nodes: usize,
    /// Total instructions executed across runs.
    pub total_instrs: u64,
    /// Concretizations emitted in the offset-generalizing range form.
    pub concretization_ranges: u64,
    /// Concretizations that used (or fell back at emission to) the pin.
    pub concretization_pins: u64,
    /// True when exploration stopped because the frontier drained with
    /// run budget left (and the policy did not restart).
    pub exhausted: bool,
    /// True when the wall-clock cap expired (including mid-solve).
    pub timed_out: bool,
}

impl std::ops::Deref for AnalysisResult {
    type Target = SearchCounters;
    fn deref(&self) -> &SearchCounters {
        &self.counters
    }
}

/// The concolic engine for one program + input shape.
pub struct Engine<'p> {
    cp: &'p CompiledProgram,
    cfg: SessionConfig,
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

    /// Full exploration on the shared round loop
    /// ([`search::driver::drive`]): runs until the budget is exhausted
    /// or no unexplored pending constraint set remains. The result is
    /// identical for every `budget.workers`.
    pub fn analyze(&self) -> AnalysisResult {
        let mut arena = ExprArena::new();
        let vars = InputVars::alloc(&mut arena, &self.cfg.spec);
        let mut analysis = Analysis {
            engine: self,
            vars,
            labels: LabelMap::new(self.cp.n_branches()),
            profile: Profile::new(self.cp.n_branches()),
            crashes: Vec::new(),
            total_instrs: 0,
            concretization_ranges: 0,
            concretization_pins: 0,
        };
        let finish = driver::drive(
            &mut analysis,
            &self.cfg.budget.limits,
            self.cfg.seed,
            &self.cfg.solve,
            arena,
            self.initial_assignment(),
        );
        AnalysisResult {
            labels: analysis.labels,
            profile: analysis.profile,
            counters: finish.counters,
            crashes: analysis.crashes,
            arena_nodes: finish.arena_nodes,
            total_instrs: analysis.total_instrs,
            concretization_ranges: analysis.concretization_ranges,
            concretization_pins: analysis.concretization_pins,
            exhausted: finish.end == End::Drained,
            timed_out: finish.end == End::Wall,
        }
    }
}

/// The commit side of one analysis session: the merged labels, profile
/// and crashes the driver's runs add up to.
struct Analysis<'e, 'p> {
    engine: &'e Engine<'p>,
    vars: InputVars,
    labels: LabelMap,
    profile: Profile,
    crashes: Vec<FoundCrash>,
    total_instrs: u64,
    concretization_ranges: u64,
    concretization_pins: u64,
}

impl GuidedEngine for Analysis<'_, '_> {
    type Run = RunRecord;

    fn exec_run(&self, arena: ExprArena, assignment: &[i64]) -> (RunRecord, ExprArena) {
        self.engine.run_once(arena, &self.vars, assignment)
    }

    fn observe(&mut self, record: &RunRecord, assignment: &[i64]) {
        self.labels.merge(&record.labels);
        self.profile.merge(&record.profile);
        self.total_instrs += record.meter.instrs;
        self.concretization_ranges += record.concretization_ranges;
        self.concretization_pins += record.concretization_pins;
        if let RunOutcome::Crashed(info) = &record.outcome {
            // A solved assignment is the whole model; the crash keeps
            // its controllable input.
            self.crashes.push(FoundCrash {
                info: info.clone(),
                argv: record.argv.clone(),
                assignment: assignment[..self.vars.n_controllable as usize].to_vec(),
            });
        }
    }

    /// Substitutes the run's nondeterminism into the path condition, then
    /// offers negated branch literals in the strategy's order (caps,
    /// quotas and dedup live in the frontier).
    fn bank(
        &mut self,
        record: &RunRecord,
        assignment: &[i64],
        arena: &mut ExprArena,
        frontier: &mut Frontier,
        cache: Option<&mut PrefixCache>,
    ) {
        let pin: FastMap<VarId, i64> = record.nondet.iter().copied().collect();
        let exprs: Vec<_> = record.path.iter().map(|s| s.constraint.expr()).collect();
        let substituted = arena.substitute_many(&exprs, &pin);
        let step = |i: usize| record.path[i].constraint.with_expr(substituted[i]);
        // Candidates are hashed from the path before any is built: only
        // the few the frontier accepts pay for their O(depth) prefix copy,
        // from the path split once.
        let sigs = PrefixSigs::new((0..substituted.len()).map(step));
        // This run executed, so every constraint of its (substituted) path
        // condition held: register the satisfied prefixes so candidates
        // that share one can skip straight to the divergent suffix.
        if let Some(cache) = cache {
            let (lits, ranges) = sigs.prefix(substituted.len());
            cache.register_path(arena, lits, ranges);
        }
        let seed_controllables = &assignment[..self.vars.n_controllable as usize];
        frontier.begin_run();
        let order = frontier.policy().strategy.offer_order(substituted.len());
        for i in order {
            if frontier.run_full() {
                break;
            }
            let (StepOrigin::Branch(bid), Constraint::Lit(lit)) = (record.path[i].origin, step(i))
            else {
                continue;
            };
            if !frontier.depth_ok(i + 1) {
                continue;
            }
            // Skip conditions that no controllable input influences.
            if arena.is_concrete(lit.expr) {
                continue;
            }
            let neg = lit.negated();
            let (sig, lits) = sigs.candidate(i, neg);
            frontier.offer(sig, lits, Some(bid.0), || {
                (sigs.build(i, &[neg]), seed_controllables.to_vec())
            });
        }
        frontier.end_run();
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
        assert!(r.frontier.solved_sat >= 1);
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
            (
                r.runs,
                r.solver_calls,
                r.frontier.solved_sat,
                r.frontier.clone(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn analysis_is_worker_count_invariant() {
        // The driver commits speculative verdicts strictly in pop order
        // and adopts the winning job's arena as the central one, so the
        // whole analysis — run/solver counts,
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
                r.frontier.solved_sat,
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
                    r.frontier.solved_sat,
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
