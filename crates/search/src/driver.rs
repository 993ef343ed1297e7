//! The one round loop behind both guided searches.
//!
//! The concolic analysis (§2.1) and the log-guided replay (§3.2) are the
//! same search: run a candidate input, bank the run's negated branch
//! literals into the [`Frontier`], solve the next pending set, run its
//! model. They differ only in what a run records and when the search
//! succeeds — which is what a [`GuidedEngine`] supplies. [`drive`] owns
//! everything else: the expression arena, the frontier, the prefix
//! cache, solver seeding, drain restarts, the run and wall budgets, and
//! the [`SearchCounters`].
//!
//! Each round pops up to `width = workers.max(1)` pending sets, solves
//! them against the frozen central arena (on `width` threads, via
//! [`pool::parallel_map`]) and runs every SAT model on a clone of that
//! arena. Verdicts then commit strictly in pop order: the first verdict
//! that changes the frontier (a SAT model ends the round; an UNSAT the
//! engine answers with an offer) first restores the unconsumed tail, so
//! the frontier evolves exactly as a width-1 round would. Solver seeds
//! are fixed by commit index. Results are therefore identical for every
//! worker count.

use crate::{pool, Frontier, FrontierStats, PendingSet, SearchLimits};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use solver::{mix_seed, ExprArena, PrefixCache, SolveCfg, SolveStats};
use std::time::Instant;

/// What an engine plugs into [`drive`]: how to execute one run (worker
/// side) and how to account for runs and verdicts (commit side).
pub trait GuidedEngine: Sync {
    /// Everything one run leaves behind for the commit side.
    type Run: Send;

    /// Executes one run under `assignment`, growing `arena`, and returns
    /// the run with the grown arena. Runs on worker threads, so it must
    /// not depend on commit-side state.
    fn exec_run(&self, arena: ExprArena, assignment: &[i64]) -> (Self::Run, ExprArena);

    /// Accounts for an executed run. Called for every run, including
    /// the one that ends the search.
    fn observe(&mut self, run: &Self::Run, assignment: &[i64]);

    /// True when `run` ends the search successfully.
    fn is_success(&self, _run: &Self::Run) -> bool {
        false
    }

    /// Banks a run the search continues from: offers its candidate sets
    /// to `frontier` and, when the prefix cache is on, registers its
    /// satisfied prefixes in `cache`. The only commit-side hook that
    /// may grow the arena; the driver freezes it right after.
    fn bank(
        &mut self,
        run: &Self::Run,
        assignment: &[i64],
        arena: &mut ExprArena,
        frontier: &mut Frontier,
        cache: Option<&mut PrefixCache>,
    );

    /// Whether [`on_unsat`](Self::on_unsat) has work for the set `sig`.
    /// The driver restores the round's speculative tail only then.
    fn unsat_touches_frontier(&self, _sig: u128) -> bool {
        false
    }

    /// Handles a committed UNSAT verdict on the set `sig`; called only
    /// when [`unsat_touches_frontier`](Self::unsat_touches_frontier)
    /// said so, after the speculative tail is back in the frontier.
    fn on_unsat(&mut self, _sig: u128, _frontier: &mut Frontier) {}
}

/// Why a search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// A run satisfied [`GuidedEngine::is_success`].
    Success,
    /// The run budget (`max_runs`) was spent.
    RunBudget,
    /// The wall-clock cap (`max_wall_ms`) expired.
    Wall,
    /// The frontier drained with budget left, and no restart applied.
    Drained,
}

/// The counters the driver keeps for every search. `AnalysisResult` and
/// `ReplayResult` embed them behind `Deref`, so `result.runs` and
/// friends read as plain fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchCounters {
    /// Runs executed.
    pub runs: usize,
    /// Committed solver calls.
    pub solver_calls: usize,
    /// Committed solver calls that started from a cached path prefix.
    pub cache_hits: u64,
    /// Committed solver calls that found no cached prefix (including all
    /// calls with the prefix cache disabled).
    pub cache_misses: u64,
    /// Total literals skipped via cached prefixes across all hits.
    pub prefix_len_saved: u64,
    /// Frontier scheduling counters.
    pub frontier: FrontierStats,
}

impl SearchCounters {
    fn note_solve(&mut self, stats: &SolveStats) {
        self.solver_calls += 1;
        if stats.prefix_hit {
            self.cache_hits += 1;
        } else {
            self.cache_misses += 1;
        }
        self.prefix_len_saved += stats.prefix_lits_saved;
    }
}

/// How a search ended, with what the engine needs to build its result.
pub struct Finish<R> {
    /// Why the search stopped.
    pub end: End,
    /// The driver's counters.
    pub counters: SearchCounters,
    /// Node count of the central arena at the end.
    pub arena_nodes: usize,
    /// The last run executed — the witness when `end` is
    /// [`End::Success`].
    pub last_run: R,
    /// The assignment the last run executed under.
    pub last_assignment: Vec<i64>,
}

/// A seeded random printable-byte assignment of length `n`: the initial
/// candidate shape of both engines, and of every drain restart.
pub fn seeded_assignment(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0x20..0x7f) as i64).collect()
}

/// Runs the guided search from `initial` until it succeeds, spends a
/// budget or drains.
///
/// `arena` holds the session's input variables; `seed` seeds both the
/// solver (mixed with each call's 1-based commit index) and the drain
/// restarts (mixed with the restart index, over `initial.len()` bytes).
pub fn drive<E: GuidedEngine>(
    engine: &mut E,
    limits: &SearchLimits,
    seed: u64,
    solve: &SolveCfg,
    mut arena: ExprArena,
    initial: Vec<i64>,
) -> Finish<E::Run> {
    let start = Instant::now();
    let wall_expired =
        || limits.max_wall_ms > 0 && start.elapsed().as_millis() as u64 > limits.max_wall_ms;
    let width = limits.workers.max(1);
    let n_inputs = initial.len();
    let mut frontier = Frontier::new(
        limits.policy.clone(),
        limits.max_pendings_per_run,
        limits.max_pending_lits,
    );
    let mut cache = PrefixCache::new();
    let mut counters = SearchCounters::default();
    let mut assignment = initial;
    // A run a committed SAT job already executed, carried into the next
    // round.
    let mut staged: Option<E::Run> = None;

    let (end, last_run) = 'search: loop {
        let run = match staged.take() {
            Some(run) => run,
            None => {
                let (run, grown) = engine.exec_run(arena, &assignment);
                arena = grown;
                run
            }
        };
        counters.runs += 1;
        engine.observe(&run, &assignment);
        if engine.is_success(&run) {
            break (End::Success, run);
        }
        if counters.runs >= limits.max_runs {
            break (End::RunBudget, run);
        }
        if wall_expired() {
            break (End::Wall, run);
        }
        engine.bank(
            &run,
            &assignment,
            &mut arena,
            &mut frontier,
            limits.prefix_cache.then_some(&mut cache),
        );
        // Freeze the central generation: solves read it, and the SAT
        // jobs' clones share it instead of copying it.
        arena.freeze();

        let mut timed_out = false;
        loop {
            let batch = if timed_out {
                Vec::new()
            } else {
                frontier.pop_batch(width)
            };
            if batch.is_empty() {
                break;
            }
            let base_calls = counters.solver_calls;
            let central = &arena;
            let cache_ref = limits.prefix_cache.then_some(&cache);
            let shared: &E = engine;
            let sets: Vec<&PendingSet> = batch.iter().map(|p| &p.set).collect();
            let phase = pool::parallel_map(width, sets, |i, set| {
                let cfg = SolveCfg {
                    seed: mix_seed(seed, (base_calls + i + 1) as u64),
                    ..solve.clone()
                };
                let (model, stats) = solver::solve_with_stats_cached(
                    central,
                    &set.cs,
                    Some(&set.seed),
                    &cfg,
                    cache_ref,
                );
                let run = model.map(|m| {
                    let (run, grown) = shared.exec_run(central.clone(), &m);
                    (run, grown, m)
                });
                (stats, run)
            });
            if width > 1 {
                frontier.note_worker_runs(&phase.worker_counts);
            }

            let mut pops = batch.into_iter();
            let mut outs = phase.results.into_iter();
            while let Some(pop) = pops.next() {
                let (stats, sat_run) = outs.next().expect("one verdict per popped set");
                counters.note_solve(&stats);
                let sig = pop.set.sig;
                if let Some((next_run, grown, model)) = sat_run {
                    frontier.note_solved_sig(sig, true);
                    frontier.restore(pops.collect());
                    // Nothing touches the central arena between the pop
                    // and this commit, so the job's clone is the central
                    // arena plus this run's suffix: adopt it whole.
                    debug_assert_eq!(
                        (grown.generation(), grown.frozen_len()),
                        (arena.generation(), arena.len()),
                        "a SAT job's arena descends from the frozen central arena"
                    );
                    arena = grown;
                    staged = Some(next_run);
                    assignment = model;
                    continue 'search;
                }
                frontier.note_unsat_sig(sig, stats.refuted);
                if engine.unsat_touches_frontier(sig) {
                    frontier.restore(pops.collect());
                    engine.on_unsat(sig, &mut frontier);
                    timed_out = wall_expired();
                    break;
                }
                if wall_expired() {
                    timed_out = true;
                    frontier.restore(pops.collect());
                    break;
                }
            }
        }

        // Drained (or timed out mid-round).
        if timed_out {
            break (End::Wall, run);
        }
        if limits.policy.restart_on_drain && frontier.ever_scheduled() {
            let r = frontier.stats().restarts;
            frontier.note_restart();
            assignment = seeded_assignment(n_inputs, mix_seed(seed, r));
            continue;
        }
        break (End::Drained, run);
    };

    counters.frontier = frontier.into_stats();
    Finish {
        end,
        counters,
        arena_nodes: arena.len(),
        last_run,
        last_assignment: assignment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PrefixSigs;
    use solver::{Constraint, ConstraintSet, Lit, Op, VarId, VarInfo};

    /// A scripted engine over a few byte inputs, with no VM: a run
    /// branches on `x_i == target[i]` for every byte, then on
    /// `x_0 == target[0] + 1` (whose negation contradicts a matched
    /// first byte, so the search meets UNSAT sets).
    struct Toy {
        target: Vec<i64>,
        /// Reaching the target ends the search.
        succeed: bool,
        /// Every run sleeps 2 ms (for the wall-clock cap).
        nap: bool,
        /// The last banked path; UNSAT answers reuse its literals.
        last_path: Vec<Lit>,
        /// Assignments of the observed runs, in commit order.
        observed: Vec<Vec<i64>>,
    }

    struct ToyRun {
        path: Vec<Lit>,
        hit: bool,
    }

    impl GuidedEngine for Toy {
        type Run = ToyRun;

        fn exec_run(&self, mut arena: ExprArena, assignment: &[i64]) -> (ToyRun, ExprArena) {
            if self.nap {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let mut branch = |var: usize, value: i64| {
                let x = arena.var_expr(VarId(var as u32));
                let c = arena.constant(value);
                let e = arena.bin(Op::Eq, x, c);
                Lit {
                    expr: e,
                    positive: assignment[var] == value,
                }
            };
            let mut path: Vec<Lit> = (0..self.target.len())
                .map(|i| branch(i, self.target[i]))
                .collect();
            path.push(branch(0, self.target[0] + 1));
            let hit = path[..self.target.len()].iter().all(|l| l.positive);
            // A node only this run interns: SAT jobs grow their arenas.
            arena.constant(assignment.iter().fold(1 << 40, |h, v| h * 131 + v));
            (ToyRun { path, hit }, arena)
        }

        fn observe(&mut self, _run: &ToyRun, assignment: &[i64]) {
            self.observed.push(assignment.to_vec());
        }

        fn is_success(&self, run: &ToyRun) -> bool {
            self.succeed && run.hit
        }

        fn bank(
            &mut self,
            run: &ToyRun,
            assignment: &[i64],
            arena: &mut ExprArena,
            frontier: &mut Frontier,
            cache: Option<&mut PrefixCache>,
        ) {
            if let Some(cache) = cache {
                cache.register_path(arena, &run.path, &[]);
            }
            let sigs = PrefixSigs::new(run.path.iter().map(|&l| Constraint::Lit(l)));
            frontier.begin_run();
            for i in frontier.policy().strategy.offer_order(run.path.len()) {
                let neg = run.path[i].negated();
                let (sig, lits) = sigs.candidate(i, neg);
                frontier.offer(sig, lits, Some(i as u32), || {
                    let mut cs = ConstraintSet::new();
                    for &l in &run.path[..i] {
                        cs.push(l);
                    }
                    cs.push(neg);
                    (cs, assignment.to_vec())
                });
            }
            frontier.end_run();
            self.last_path = run.path.clone();
        }

        fn unsat_touches_frontier(&self, sig: u128) -> bool {
            sig & 1 == 0
        }

        /// Answers with a priority set flipping the last banked path's
        /// final byte branch, like replay's repair offers.
        fn on_unsat(&mut self, _sig: u128, frontier: &mut Frontier) {
            let mut cs = ConstraintSet::new();
            cs.push(self.last_path[self.target.len() - 1].negated());
            let seed = self.observed.last().expect("a run was observed").clone();
            frontier.offer_priority(crate::signature(&cs), cs, seed, false);
        }
    }

    const SEED: u64 = 7;

    fn toy() -> Toy {
        Toy {
            target: b"go!".iter().map(|&b| i64::from(b)).collect(),
            succeed: true,
            nap: false,
            last_path: Vec::new(),
            observed: Vec::new(),
        }
    }

    /// The scenarios that reach each end reason: the toy, its limits,
    /// and the end the search must reach.
    fn scenario(name: &str) -> (Toy, SearchLimits, End) {
        let limits = SearchLimits::replay();
        let stuck = Toy {
            succeed: false,
            ..toy()
        };
        match name {
            "success" => (toy(), limits, End::Success),
            "run budget" => (stuck, limits.with_max_runs(6), End::RunBudget),
            "wall" => {
                let napping = Toy { nap: true, ..toy() };
                let limits = SearchLimits {
                    max_wall_ms: 1,
                    ..limits
                };
                (napping, limits, End::Wall)
            }
            "drained" => (stuck, limits, End::Drained),
            "restart" => {
                let policy = crate::SearchPolicy {
                    restart_on_drain: true,
                    ..crate::SearchPolicy::default()
                };
                (
                    stuck,
                    limits.with_max_runs(80).with_policy(policy),
                    End::RunBudget,
                )
            }
            _ => unreachable!("unknown scenario {name}"),
        }
    }

    const SCENARIOS: [&str; 5] = ["success", "run budget", "wall", "drained", "restart"];

    /// Drives a scenario's toy at `width`.
    fn drive_toy(name: &str, width: usize) -> (Toy, Finish<ToyRun>, End) {
        let (mut toy, limits, want) = scenario(name);
        let mut arena = ExprArena::new();
        for _ in &toy.target {
            arena.fresh_var(VarInfo::byte());
        }
        let initial = seeded_assignment(toy.target.len(), SEED);
        let limits = limits.with_workers(width);
        let finish = drive(
            &mut toy,
            &limits,
            SEED,
            &SolveCfg::default(),
            arena,
            initial,
        );
        (toy, finish, want)
    }

    #[test]
    fn driver_widths_commit_the_same_search() {
        for name in SCENARIOS {
            let observable = |width: usize| {
                let (toy, f, want) = drive_toy(name, width);
                assert_eq!(f.end, want, "{name} at width {width}");
                let fs = &f.counters.frontier;
                assert_eq!(
                    fs.popped,
                    fs.committed + fs.restored,
                    "{name} at width {width}: every pop commits or is restored"
                );
                let split: u64 = fs.worker_runs.iter().sum();
                assert_eq!(
                    split,
                    if width == 1 { 0 } else { fs.popped },
                    "{name} at width {width}: above width 1 only, every pop is one job"
                );
                assert_eq!(fs.worker_runs.is_empty(), split == 0);
                (
                    f.end,
                    f.counters.runs,
                    f.counters.solver_calls,
                    fs.solved_sigs.clone(),
                    fs.committed,
                    (fs.restarts, fs.priority_scheduled),
                    f.arena_nodes,
                    toy.observed,
                    f.last_assignment,
                )
            };
            let width1 = observable(1);
            assert!(
                name == "wall" || !width1.3.is_empty(),
                "{name}: the search must solve sets"
            );
            for width in [2, 4] {
                assert_eq!(width1, observable(width), "{name}: width {width} diverged");
            }
        }
    }

    #[test]
    fn driver_success_ends_on_the_witness() {
        let (toy, f, _) = drive_toy("success", 1);
        assert_eq!(f.end, End::Success);
        assert!(f.last_run.hit);
        assert_eq!(f.last_assignment[..3], toy.target[..]);
        assert!(
            f.counters.frontier.solved_unsat > 0,
            "the toy's contradiction branch yields UNSAT sets"
        );
        assert!(
            f.counters.frontier.priority_scheduled > 0,
            "UNSAT answers reached the frontier"
        );
    }

    #[test]
    fn driver_budgets_stop_the_search() {
        let (_, f, _) = drive_toy("run budget", 1);
        assert_eq!((f.end, f.counters.runs), (End::RunBudget, 6));
        let (_, f, _) = drive_toy("wall", 1);
        assert_eq!((f.end, f.counters.runs), (End::Wall, 1));
    }

    #[test]
    fn driver_drains_to_exhaustion_without_restart() {
        let (_, f, _) = drive_toy("drained", 1);
        assert_eq!(f.end, End::Drained);
        assert_eq!(f.counters.frontier.restarts, 0);
    }

    #[test]
    fn driver_restarts_from_seeded_assignments_on_drain() {
        let (toy, f, _) = drive_toy("restart", 1);
        assert_eq!((f.end, f.counters.runs), (End::RunBudget, 80));
        assert!(f.counters.frontier.restarts >= 2);
        let first_restart = seeded_assignment(toy.target.len(), mix_seed(SEED, 0));
        assert!(
            toy.observed.contains(&first_restart),
            "restart r runs seeded_assignment(n, mix_seed(seed, r))"
        );
    }
}
