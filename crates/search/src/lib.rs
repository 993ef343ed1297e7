//! `search` — the shared frontier scheduler behind both guided searches.
//!
//! The concolic analysis engine (§2.1) and the replay engine (§3.2) both
//! explore a tree of pending constraint sets: each run contributes
//! candidate sets (path prefixes with one branch literal negated), and the
//! scheduler decides which set the solver attacks next. The paper uses a
//! plain depth-first stack; that is kept, bit for bit, as the default
//! [`Strategy::DeepestFirst`]. On long server paths the deepest pending
//! sets are routinely unsolvable within the solver budget, so pure DFS
//! drains after a single run — the uServer coverage plateau. The cures are
//! the classic search-scheduling ones:
//!
//! - [`Strategy::Generational`] — SAGE-style breadth mixing (Godefroid et
//!   al., NDSS 2008): pops alternate between the shallowest and the
//!   deepest pending set, so cheap shallow negations keep opening new
//!   generations while deep suffixes still get attempts;
//! - per-branch-location negation quotas ([`SearchPolicy::branch_quota`])
//!   so one hot loop cannot monopolize the per-run scheduling cap;
//! - restart-from-new-seed ([`SearchPolicy::restart_on_drain`]) when the
//!   frontier drains before the run budget, instead of giving up.
//!
//! Both engines run on one round loop, [`driver::drive`], which owns one
//! [`Frontier`] per session. An engine's `bank` hook offers a run's
//! candidates; the driver pops, solves and commits:
//!
//! ```text
//! frontier.begin_run();
//! let sigs = PrefixSigs::new(path);  // one hashing pass over the run
//! frontier.offer_priority(sig, ..);  // forced / recovery sets, tried first
//! // the standard sets: each branch step negated, in the strategy's
//! // order, up to MAX_PENDINGS_PER_RUN of at most MAX_PENDING_LITS
//! frontier.offer_negations(&sigs, skip_last, arena, seed, |i| branch_i);
//! frontier.end_run();
//! // the driver: pop_batch(width), solve, note_solved_sig / restore
//! ```
//!
//! The frontier's two caps and the forced-set repair thresholds are
//! constants ([`MAX_PENDINGS_PER_RUN`], [`MAX_PENDING_LITS`],
//! [`REPAIR_UNSAT_BURST`], [`MAX_REPAIRS`]): no session varies them.
//!
//! Deduplication keys pending sets on a 128-bit hash of the full
//! `(ExprRef, bool)` literal vector — wide enough that a collision (which
//! would silently drop an unexplored path forever) is out of reach, unlike
//! the 64-bit `DefaultHasher` digest it replaces. A standard candidate is
//! hashed *before* it is built: [`PrefixSigs`] knows every candidate's
//! signature after one pass over the run's path, and [`Frontier::offer`]
//! calls the candidate's builder only once the depth cap, the dedup and
//! the branch quota have all accepted it. Most offers are duplicates of
//! sets an earlier run already banked, so most candidates are never
//! built at all.

use solver::{
    Constraint, ConstraintSet, ExprArena, FastMap, FastSet, Fnv128, Lit, RangeConstraint,
};

pub mod driver;
pub mod limits;
pub mod pool;

pub use driver::{seeded_assignment, SearchCounters};
pub use limits::{
    Concretization, SearchLimits, FUEL_PER_RUN, MAX_PENDINGS_PER_RUN, MAX_PENDING_LITS,
};

/// Frontier exploration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// The paper's §3.2 depth-first stack: the deepest pending set of the
    /// newest run is tried first. Deterministic seed behavior; the
    /// default.
    #[default]
    DeepestFirst,
    /// Breadth-mixed generational search: pops alternate between the
    /// shallowest and the deepest pending set in the frontier, escaping
    /// the all-deep-sets-unsolvable plateau.
    Generational,
}

impl Strategy {
    /// Short label for tables and summaries.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::DeepestFirst => "deepest-first",
            Strategy::Generational => "generational",
        }
    }

    /// The order in which a run's candidate negation indices
    /// (0 = shallowest, `n - 1` = deepest) should be offered.
    /// [`Frontier::offer_negations`] stops at the per-run cap, so this
    /// decides what a long path's run actually schedules: DFS takes the
    /// deepest block (the paper's behavior); generational interleaves
    /// both ends so every run banks cheap shallow negations alongside
    /// deep suffixes — without this, the cap fills with deep, routinely
    /// unsolvable sets and the breadth-mixed pops have nothing shallow
    /// to mix in.
    fn offer_order(self, n: usize) -> Vec<usize> {
        match self {
            Strategy::DeepestFirst => (0..n).rev().collect(),
            Strategy::Generational => {
                let mut out = Vec::with_capacity(n);
                let (mut lo, mut hi) = (0usize, n);
                while lo < hi {
                    hi -= 1;
                    out.push(hi);
                    if lo < hi {
                        out.push(lo);
                        lo += 1;
                    }
                }
                out
            }
        }
    }
}

/// Consecutive UNSAT forced solves at one stall before a forced-set
/// repair is issued (and between subsequent repairs).
pub const REPAIR_UNSAT_BURST: u32 = 2;

/// Forced-set repairs issued per stall: the cutoff that bounds thrash.
pub const MAX_REPAIRS: u32 = 24;

/// Burst key for a per-location cursor stall: the (branch location,
/// cursor position) pair that diverged, lifted into a key space disjoint
/// from the flat format's bits-high-water keys (which occupy the low
/// 64 bits). Two stalls at different locations — or at different depths
/// of one location's stream — are independent pathologies: they must
/// not pool burst evidence or share a repair budget.
pub fn location_key(loc: u32, pos: u64) -> u128 {
    (1u128 << 100) | (u128::from(loc) << 64) | u128::from(pos)
}

/// The inverse of [`location_key`]: the (branch location, cursor
/// position) a per-location burst key was built from, or `None` for a
/// flat log's key (a bits-high-water mark, below 2^64).
pub fn key_location(key: u128) -> Option<(u32, u64)> {
    ((key >> 100) & 1 == 1).then_some(((key >> 64) as u32, key as u64))
}

/// Tracks thrash evidence per stall and meters forced-set repairs
/// (replay's answer to 2(b) UNSAT thrash).
///
/// A corrupted forced prefix — one where an *unlogged* symbolic branch
/// went the wrong way early and every later forced set inherits the
/// contradiction — produces a burst of UNSAT solver calls on forced sets
/// sharing a common prefix. After [`REPAIR_UNSAT_BURST`] of them the
/// replay backtracks to the **earliest** unlogged symbolic suspect (not
/// the deepest, which is what plain DFS keeps retrying), negates it, and
/// re-queues the repaired prefix on the priority lane; [`MAX_REPAIRS`]
/// per stall cuts the thrash off.
///
/// Keys are caller-chosen 128-bit values; the replay engine keys on the
/// log high-water mark (the stall depth) for flat logs and on
/// [`location_key`] for per-location cursor logs, so every forced set
/// produced while the search is stuck at one stall pools its evidence
/// into a single burst — however the aborting paths differ — and each
/// new stall gets a fresh repair budget. *Evidence* is an UNSAT verdict on a
/// forced set: the corrupted-prefix signature. (Broader signals —
/// divergence counts, duplicate forced offers — were measured as
/// triggers too; they reach stalls whose forced sets always solve, but
/// they also tax healthy searches, so repair stays scoped to UNSAT
/// bursts.)
#[derive(Debug, Default)]
pub struct RepairTracker {
    bursts: FastMap<u128, u32>,
    attempts: FastMap<u128, u32>,
}

impl RepairTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one piece of thrash evidence for `key`. Returns
    /// `Some(attempt_index)` when a repair should be issued now (the
    /// index selects which suspect to flip: 0 = earliest), `None` while
    /// the burst threshold is unmet or the prefix is cut off.
    pub fn note_thrash(&mut self, key: u128) -> Option<u32> {
        let b = self.bursts.entry(key).or_insert(0);
        *b += 1;
        if *b < REPAIR_UNSAT_BURST {
            return None;
        }
        let a = self.attempts.entry(key).or_insert(0);
        if *a >= MAX_REPAIRS {
            return None;
        }
        *a += 1;
        let attempt = *a - 1;
        self.bursts.insert(key, 0);
        Some(attempt)
    }

    /// Clears every burst counter. Call when the search visibly advances
    /// (the replay's log high-water mark rises): bursts measure *stalled*
    /// repetition, so progress anywhere acquits all pending suspicions.
    /// Attempt counts persist — a prefix's repair budget never refills.
    pub fn reset_bursts(&mut self) {
        self.bursts.clear();
    }

    /// True once `key` has exhausted its repair budget.
    pub fn cut_off(&self, key: u128) -> bool {
        self.attempts.get(&key).is_some_and(|a| *a >= MAX_REPAIRS)
    }
}

/// Scheduling policy for one search session, threaded through the
/// engines' budgets. The default is the paper's: depth-first, no
/// quotas, no restarts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SearchPolicy {
    /// Frontier exploration order.
    pub strategy: Strategy,
    /// Maximum pending sets enqueued per branch location per run
    /// (0 = unlimited). Keeps one hot loop from starving the queue.
    pub branch_quota: usize,
    /// When the frontier drains with run budget left, restart from a
    /// fresh seeded input instead of declaring exhaustion.
    pub restart_on_drain: bool,
}

impl SearchPolicy {
    /// The plateau-breaking configuration used by the server benchmarks:
    /// breadth-mixed pops, two negations per branch location per run, and
    /// seed restarts when the frontier drains.
    pub fn explorer() -> Self {
        SearchPolicy {
            strategy: Strategy::Generational,
            branch_quota: 2,
            restart_on_drain: true,
        }
    }
}

/// One scheduled pending constraint set.
#[derive(Debug, Clone)]
pub struct PendingSet {
    /// The constraint set to solve.
    pub cs: ConstraintSet,
    /// The set's [`signature`], fixed when it was offered: the dedup
    /// key, the promotion match and the committed verdict's identity,
    /// so no later path re-hashes the set.
    pub sig: u128,
    /// Seed assignment handed to the solver (usually the producing run's
    /// input).
    pub seed: Vec<i64>,
    /// Scheduling depth (number of literals).
    pub depth: usize,
    /// Index of the run that produced the set.
    pub generation: u64,
}

/// Where a speculative pop came from, so [`Frontier::restore`] can put
/// it back exactly where it was.
#[derive(Debug, Clone, Copy)]
enum PopOrigin {
    /// The forced / recovery priority lane.
    Priority,
    /// The strategy pool, removed from this index.
    Pool(usize),
}

/// A pending set handed out by [`Frontier::pop_batch`] together with
/// the provenance needed to undo the pop.
#[derive(Debug)]
pub struct SpeculativePop {
    /// The popped pending set.
    pub set: PendingSet,
    origin: PopOrigin,
}

/// Counters exposed in `AnalysisResult` / `ReplayResult` so the bench
/// tables can report scheduling behavior per strategy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrontierStats {
    /// Exploration order in force.
    pub strategy: Strategy,
    /// Candidate sets presented by the engines.
    pub offered: u64,
    /// Candidates accepted into the frontier.
    pub scheduled: u64,
    /// Forced / recovery sets accepted onto the priority lane.
    pub priority_scheduled: u64,
    /// Syscall-divergence recovery sets accepted (replay only).
    pub recovery_sets: u64,
    /// Candidates rejected by the full-vector dedup.
    pub skipped_duplicate: u64,
    /// Candidates rejected for exceeding the literal cap.
    pub skipped_depth: u64,
    /// Candidates rejected by the per-branch-location quota.
    pub skipped_quota: u64,
    /// Solver calls on popped sets that found a model.
    pub solved_sat: u64,
    /// Solver calls on popped sets that found none.
    pub solved_unsat: u64,
    /// Times the frontier drained and the engine restarted from a fresh
    /// seed (the starvation counter).
    pub restarts: u64,
    /// UNSAT solver verdicts on forced (2(b)) sets.
    pub forced_unsat: u64,
    /// Earliest-suspect repaired prefixes scheduled on the priority lane.
    pub repairs_scheduled: u64,
    /// Prefixes whose repair budget ran out (thrash cut off).
    pub repair_cutoffs: u64,
    /// Sets handed out by [`Frontier::pop`] / [`Frontier::pop_batch`],
    /// including speculative pops later undone by [`Frontier::restore`].
    pub popped: u64,
    /// Popped sets whose solver verdict was banked (every committed pop
    /// earns exactly one [`Frontier::note_solved`] call). At session end
    /// `popped == committed + restored` — the lost-candidate invariant
    /// the concurrency stress test asserts.
    pub committed: u64,
    /// Speculative pops pushed back unconsumed by [`Frontier::restore`].
    pub restored: u64,
    /// Signature and verdict of every committed solve, in commit order.
    /// The worker-count invariance suite compares these across
    /// `workers ∈ {1, 2, 4}`: the *set of solved candidates* must not
    /// depend on how many threads distributed the work.
    pub solved_sigs: SolvedSigs,
    /// UNSAT verdicts the solver reached by exhausting its iteration
    /// budget rather than by a proof (`SolveStats::refuted` unset). Each
    /// one is a full-budget grind; the workloads' guards pin it at 0.
    pub unproven_unsat: u64,
    /// Solve jobs (and the runs of their SAT models) executed per worker
    /// thread; empty at workers = 1. Scheduling-dependent — excluded from
    /// invariance comparisons; the counts only show how work spread
    /// across threads.
    pub worker_runs: Vec<u64>,
}

/// The ordered `(signature, SAT?)` stream of a session's committed
/// solves, stored compactly: 16 bytes per solve plus one verdict bit,
/// trimmed to size when the session ends. Equality compares the whole
/// ordered stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolvedSigs {
    sigs: Vec<u128>,
    /// Bit `i % 64` of word `i / 64` is solve `i`'s verdict.
    sat: Vec<u64>,
}

impl SolvedSigs {
    /// Appends one committed solve.
    pub fn push(&mut self, sig: u128, sat: bool) {
        let i = self.sigs.len();
        if i.is_multiple_of(64) {
            self.sat.push(0);
        }
        self.sat[i / 64] |= u64::from(sat) << (i % 64);
        self.sigs.push(sig);
    }

    /// True before the first committed solve.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// The solves in commit order, as `(signature, SAT?)`.
    pub fn iter(&self) -> impl Iterator<Item = (u128, bool)> + '_ {
        self.sigs
            .iter()
            .enumerate()
            .map(|(i, &sig)| (sig, (self.sat[i / 64] >> (i % 64)) & 1 == 1))
    }

    fn shrink_to_fit(&mut self) {
        self.sigs.shrink_to_fit();
        self.sat.shrink_to_fit();
    }
}

impl FrontierStats {
    /// One-line rendering for analysis summaries and table footers.
    /// Sessions above workers = 1 (non-empty `worker_runs`) append the
    /// per-worker run split.
    pub fn summary(&self) -> String {
        let base = format!(
            "{}: {} scheduled (+{} priority), {} sat / {} unsat, \
             skipped {} dup / {} deep / {} quota, {} restarts, \
             {} repairs (+{} cut off)",
            self.strategy.label(),
            self.scheduled,
            self.priority_scheduled,
            self.solved_sat,
            self.solved_unsat,
            self.skipped_duplicate,
            self.skipped_depth,
            self.skipped_quota,
            self.restarts,
            self.repairs_scheduled,
            self.repair_cutoffs,
        );
        if self.worker_runs.is_empty() {
            base
        } else {
            format!("{base}, worker runs {:?}", self.worker_runs)
        }
    }
}

/// The shared priority frontier.
///
/// Holds the pending constraint sets of one search session. Forced /
/// recovery sets live on a separate LIFO priority lane that every
/// strategy pops first — this is what keeps the log *guiding* the replay
/// search regardless of the exploration order.
#[derive(Debug)]
pub struct Frontier {
    policy: SearchPolicy,
    /// The general pool. `DeepestFirst` treats it as a stack.
    entries: Vec<PendingSet>,
    /// Forced-direction and recovery sets: LIFO, always popped first.
    priority: Vec<PendingSet>,
    /// Current run's accepted candidates, committed by [`end_run`].
    run_buffer: Vec<PendingSet>,
    /// 128-bit signatures of every set ever accepted.
    seen: FastSet<u128>,
    /// Per-branch-location accepts this run.
    quota_used: FastMap<u32, usize>,
    accepted_this_run: usize,
    generation: u64,
    pop_tick: u64,
    stats: FrontierStats,
}

/// 128-bit FNV-1a over the full `(ExprRef, bool)` literal vector plus
/// every range constraint's expression and bounds. Public so the replay
/// engine can key its forced-set metadata and the repair tracker on the
/// same identity the dedup uses. Built on the solver's shared [`Fnv128`]
/// primitive — the same mixing the prefix solve cache hashes literal
/// prefixes with, so the two identities cannot drift apart (the hash
/// values here are pinned: goldens depend on the dedup order).
pub fn signature(cs: &ConstraintSet) -> u128 {
    let mut h = Fnv128::new();
    for l in &cs.lits {
        h.mix_lit(l);
    }
    for r in &cs.ranges {
        h.mix_range(r);
    }
    h.value()
}

/// The signatures of one run's candidate sets, known before any set is
/// built, and the path split once into the two lists every set copies
/// from.
///
/// A run's path is a sequence of steps, each contributing one
/// constraint, a literal or a range; a candidate is a path prefix plus
/// one appended literal (usually the next step's negation).
/// One pass over the path records the running hash after each prefix's
/// literals, so [`candidate`](Self::candidate) answers
/// `signature(steps[..i] + lit)` with one literal mix — plus one range
/// mix per range step in the prefix, because [`signature`] hashes the
/// ranges after every literal. The values are byte-identical to
/// [`signature`] of the built set: both go through [`Fnv128::mix_lit`]
/// and [`Fnv128::mix_range`].
///
/// The same pass keeps the path's literals and its ranges apart, so the
/// literals and ranges of any prefix are two slices
/// ([`prefix`](Self::prefix)), and a set is built from them with two
/// slice copies ([`build`](Self::build)).
#[derive(Debug)]
pub struct PrefixSigs {
    /// `lit_states[i]`: the hash after the literals of `steps[..i]`.
    lit_states: Vec<Fnv128>,
    /// The literal steps, in path order.
    lits: Vec<Lit>,
    /// The range steps, in path order.
    ranges: Vec<RangeConstraint>,
    /// `range_steps[k]`: the step index of `ranges[k]`.
    range_steps: Vec<usize>,
}

impl PrefixSigs {
    /// Hashes a path given as its steps' constraints.
    pub fn new(steps: impl IntoIterator<Item = Constraint>) -> Self {
        let steps = steps.into_iter();
        let n = steps.size_hint().0;
        let mut lit_states = Vec::with_capacity(n + 1);
        let mut lits = Vec::with_capacity(n);
        let mut ranges = Vec::new();
        let mut range_steps = Vec::new();
        let mut h = Fnv128::new();
        lit_states.push(h);
        for (i, step) in steps.enumerate() {
            match step {
                Constraint::Range(rc) => {
                    ranges.push(rc);
                    range_steps.push(i);
                }
                Constraint::Lit(lit) => {
                    h.mix_lit(&lit);
                    lits.push(lit);
                }
            }
            lit_states.push(h);
        }
        PrefixSigs {
            lit_states,
            lits,
            ranges,
            range_steps,
        }
    }

    /// The number of steps in the path.
    pub fn len(&self) -> usize {
        self.lit_states.len() - 1
    }

    /// True for an empty path.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of range steps in `steps[..i]`.
    fn ranges_before(&self, i: usize) -> usize {
        self.range_steps.partition_point(|&j| j < i)
    }

    /// The signature and literal count of the set `steps[..i]` + `lit`.
    pub fn candidate(&self, i: usize, lit: Lit) -> (u128, usize) {
        let mut h = self.lit_states[i];
        h.mix_lit(&lit);
        let n_ranges = self.ranges_before(i);
        for rc in &self.ranges[..n_ranges] {
            h.mix_range(rc);
        }
        (h.value(), i - n_ranges + 1)
    }

    /// The literals and the ranges of `steps[..i]`, in path order.
    pub fn prefix(&self, i: usize) -> (&[Lit], &[RangeConstraint]) {
        let n_ranges = self.ranges_before(i);
        (&self.lits[..i - n_ranges], &self.ranges[..n_ranges])
    }

    /// The set `steps[..i]` + `tail`: each list is one slice copy into
    /// a vector of exact capacity.
    pub fn build(&self, i: usize, tail: &[Lit]) -> ConstraintSet {
        let (prefix, ranges) = self.prefix(i);
        let mut lits = Vec::with_capacity(prefix.len() + tail.len());
        lits.extend_from_slice(prefix);
        lits.extend_from_slice(tail);
        ConstraintSet {
            lits,
            ranges: ranges.to_vec(),
        }
    }
}

impl Frontier {
    /// Creates a frontier for one session.
    pub fn new(policy: SearchPolicy) -> Self {
        let stats = FrontierStats {
            strategy: policy.strategy,
            ..FrontierStats::default()
        };
        Frontier {
            policy,
            entries: Vec::new(),
            priority: Vec::new(),
            run_buffer: Vec::new(),
            seen: FastSet::default(),
            quota_used: FastMap::default(),
            accepted_this_run: 0,
            generation: 0,
            pop_tick: 0,
            stats,
        }
    }

    /// Starts a new run: resets the per-run cap and quotas.
    pub fn begin_run(&mut self) {
        self.accepted_this_run = 0;
        self.quota_used.clear();
        self.generation += 1;
    }

    /// True once this run's scheduling cap is reached: no more standard
    /// candidates are offered.
    fn run_full(&self) -> bool {
        self.accepted_this_run >= MAX_PENDINGS_PER_RUN
    }

    /// Cheap pre-check on a candidate's step count (an upper bound on its
    /// literal count), counted as a depth skip. Checked before the
    /// candidate's literal or signature is looked at, so too-deep
    /// candidates on long server paths cost nothing.
    fn depth_ok(&mut self, lits: usize) -> bool {
        if lits > MAX_PENDING_LITS {
            self.stats.skipped_depth += 1;
            return false;
        }
        true
    }

    /// Offers a run's standard pending sets: for each step `i` in the
    /// strategy's order, the path prefix `steps[..i]` plus the negation
    /// of step `i`'s branch literal, seeded with `seed`, until the run's
    /// cap fills. `branch(i)` is step `i`'s branch location and literal,
    /// or `None` when step `i` is not a branch. A branch step is skipped,
    /// in this order, when its prefix is over the literal cap, when it is
    /// the last step and `skip_last` is set (a 2(b) abort's last literal
    /// is already forced), or when its literal is concrete (no input
    /// influences it).
    pub fn offer_negations(
        &mut self,
        sigs: &PrefixSigs,
        skip_last: bool,
        arena: &ExprArena,
        seed: &[i64],
        branch: impl Fn(usize) -> Option<(u32, Lit)>,
    ) {
        let n = sigs.len();
        for i in self.policy.strategy.offer_order(n) {
            if self.run_full() {
                break;
            }
            let Some((loc, lit)) = branch(i) else {
                continue;
            };
            if !self.depth_ok(i + 1) || (skip_last && i + 1 == n) || arena.is_concrete(lit.expr) {
                continue;
            }
            let neg = lit.negated();
            let (sig, lits) = sigs.candidate(i, neg);
            self.offer(sig, lits, Some(loc), || {
                (sigs.build(i, &[neg]), seed.to_vec())
            });
        }
    }

    /// Offers a standard pending set (a path prefix with one negated
    /// branch literal) by its [`signature`] `sig` and literal count
    /// `lits`, before the set exists. Applies, in order: the literal
    /// cap, the full-vector dedup, and the per-branch quota. Only a
    /// candidate that passes all three is built: `build` returns the set
    /// and its solver seed, and runs exactly once per accepted offer, so
    /// a rejected candidate costs a hash lookup instead of an O(depth)
    /// prefix copy. Returns whether the set was accepted.
    pub fn offer(
        &mut self,
        sig: u128,
        lits: usize,
        branch: Option<u32>,
        build: impl FnOnce() -> (ConstraintSet, Vec<i64>),
    ) -> bool {
        self.stats.offered += 1;
        if lits > MAX_PENDING_LITS {
            self.stats.skipped_depth += 1;
            return false;
        }
        // Dedup before the quota: a re-offered duplicate must not burn
        // the branch's budget for genuinely new candidates. A
        // quota-rejected set stays out of `seen` so a later run can
        // still schedule it.
        if self.seen.contains(&sig) {
            self.stats.skipped_duplicate += 1;
            return false;
        }
        if self.policy.branch_quota > 0 {
            if let Some(b) = branch {
                let used = self.quota_used.entry(b).or_insert(0);
                if *used >= self.policy.branch_quota {
                    self.stats.skipped_quota += 1;
                    return false;
                }
                *used += 1;
            }
        }
        let (cs, seed) = build();
        debug_assert_eq!(signature(&cs), sig, "offered signature is the built set's");
        debug_assert_eq!(
            cs.lits.len(),
            lits,
            "offered literal count is the built set's"
        );
        self.seen.insert(sig);
        self.run_buffer.push(PendingSet {
            cs,
            sig,
            seed,
            depth: lits,
            generation: self.generation,
        });
        self.accepted_this_run += 1;
        self.stats.scheduled += 1;
        true
    }

    /// Offers a forced-direction (2(b)) or recovery set `cs`, whose
    /// [`signature`] is `sig`, onto the priority lane: bypasses the run
    /// cap, literal cap and quota. A set that is already *queued*
    /// (offered earlier as a standard pending set, not yet solved) is
    /// promoted to the priority lane instead of being dropped — the
    /// guided fix must not stay buried in the pool. Only a set that was
    /// already popped (solved or being solved) is rejected.
    pub fn offer_priority(
        &mut self,
        sig: u128,
        cs: ConstraintSet,
        seed: Vec<i64>,
        recovery: bool,
    ) -> bool {
        debug_assert_eq!(signature(&cs), sig, "offered signature is the set's");
        if !self.seen.insert(sig) {
            let pooled = self
                .entries
                .iter()
                .position(|e| e.sig == sig)
                .map(|i| self.entries.remove(i))
                .or_else(|| {
                    self.run_buffer
                        .iter()
                        .position(|e| e.sig == sig)
                        .map(|i| self.run_buffer.remove(i))
                });
            let Some(mut entry) = pooled else {
                self.stats.skipped_duplicate += 1;
                return false;
            };
            // The promoted set adopts the fresh seed: the pooled entry's
            // seed is generations stale, and solving the guided fix from
            // an old candidate throws away every byte the search has
            // since established.
            entry.seed = seed;
            self.priority.push(entry);
            self.stats.priority_scheduled += 1;
            if recovery {
                self.stats.recovery_sets += 1;
            }
            return true;
        }
        let depth = cs.lits.len();
        self.priority.push(PendingSet {
            cs,
            sig,
            seed,
            depth,
            generation: self.generation,
        });
        self.stats.priority_scheduled += 1;
        if recovery {
            self.stats.recovery_sets += 1;
        }
        true
    }

    /// Commits this run's accepted candidates into the pool. Under DFS
    /// candidates arrive deepest-first; committing in reverse puts the
    /// deepest on top of the stack, matching the seed engines exactly.
    /// (Generational pops select by depth, so its commit order is
    /// immaterial.)
    pub fn end_run(&mut self) {
        let buffered = std::mem::take(&mut self.run_buffer);
        self.entries.extend(buffered.into_iter().rev());
    }

    /// Pops the next pending set per the strategy (priority lane first).
    pub fn pop(&mut self) -> Option<PendingSet> {
        self.pop_with_origin().map(|p| p.set)
    }

    fn pop_with_origin(&mut self) -> Option<SpeculativePop> {
        if let Some(p) = self.priority.pop() {
            self.stats.popped += 1;
            return Some(SpeculativePop {
                set: p,
                origin: PopOrigin::Priority,
            });
        }
        if self.entries.is_empty() {
            return None;
        }
        let idx = match self.policy.strategy {
            Strategy::DeepestFirst => self.entries.len() - 1,
            Strategy::Generational => {
                // Alternate shallowest / deepest. Ties: the oldest
                // shallow entry, the newest deep entry — both stable.
                let idx = if self.pop_tick.is_multiple_of(2) {
                    let mut best = 0;
                    for (i, e) in self.entries.iter().enumerate() {
                        if e.depth < self.entries[best].depth {
                            best = i;
                        }
                    }
                    best
                } else {
                    let mut best = 0;
                    for (i, e) in self.entries.iter().enumerate() {
                        if e.depth >= self.entries[best].depth {
                            best = i;
                        }
                    }
                    best
                };
                self.pop_tick += 1;
                idx
            }
        };
        self.stats.popped += 1;
        Some(SpeculativePop {
            set: self.entries.remove(idx),
            origin: PopOrigin::Pool(idx),
        })
    }

    /// Speculatively pops up to `max` pending sets (priority lane first,
    /// then the strategy's pool order), recording per-pop provenance so
    /// [`Frontier::restore`] can push unconsumed sets back exactly.
    ///
    /// The search driver ([`driver::drive`]) uses this to solve several
    /// candidates concurrently while committing verdicts strictly in pop
    /// order: once a verdict requires mutating the frontier (a SAT model
    /// ends the round, or an UNSAT burst triggers a repair offer), the
    /// unprocessed tail must be restored *before* the mutation so the
    /// queue state matches what a width-1 round would have seen.
    pub fn pop_batch(&mut self, max: usize) -> Vec<SpeculativePop> {
        let mut out = Vec::new();
        while out.len() < max {
            match self.pop_with_origin() {
                Some(p) => out.push(p),
                None => break,
            }
        }
        out
    }

    /// Pushes back the unconsumed tail of the most recent
    /// [`Frontier::pop_batch`], undoing each pop exactly (entries return
    /// to their original positions; Generational's `pop_tick` rewinds).
    ///
    /// Correctness requires that no offer landed between the batch pop
    /// and this call — promotions remove pool entries and would shift
    /// the recorded indices.
    pub fn restore(&mut self, unused: Vec<SpeculativePop>) {
        for p in unused.into_iter().rev() {
            self.stats.restored += 1;
            match p.origin {
                PopOrigin::Priority => self.priority.push(p.set),
                PopOrigin::Pool(idx) => {
                    if self.policy.strategy == Strategy::Generational {
                        self.pop_tick -= 1;
                    }
                    let idx = idx.min(self.entries.len());
                    self.entries.insert(idx, p.set);
                }
            }
        }
    }

    /// Records the solver verdict for the last popped set.
    pub fn note_solved(&mut self, sat: bool) {
        self.stats.committed += 1;
        if sat {
            self.stats.solved_sat += 1;
        } else {
            self.stats.solved_unsat += 1;
        }
    }

    /// Records a solver verdict together with the set's signature, so
    /// the invariance suite can compare the solved-candidate set across
    /// worker counts.
    pub fn note_solved_sig(&mut self, sig: u128, sat: bool) {
        self.stats.solved_sigs.push(sig, sat);
        self.note_solved(sat);
    }

    /// [`note_solved_sig`](Self::note_solved_sig) for an UNSAT verdict;
    /// `proven` is the solver's `refuted` flag. An unproven verdict ran
    /// the solver's budget out and counts in `unproven_unsat`.
    pub fn note_unsat_sig(&mut self, sig: u128, proven: bool) {
        if !proven {
            self.stats.unproven_unsat += 1;
        }
        self.note_solved_sig(sig, false);
    }

    /// Adds a round's per-worker processed-item counts into the
    /// session's `worker_runs` split (elementwise; grows on demand).
    pub fn note_worker_runs(&mut self, counts: &[u64]) {
        if self.stats.worker_runs.len() < counts.len() {
            self.stats.worker_runs.resize(counts.len(), 0);
        }
        for (slot, c) in self.stats.worker_runs.iter_mut().zip(counts) {
            *slot += c;
        }
    }

    /// Records an UNSAT verdict on a forced (2(b)) set.
    pub fn note_forced_unsat(&mut self) {
        self.stats.forced_unsat += 1;
    }

    /// Records a prefix whose repair budget is exhausted.
    pub fn note_repair_cutoff(&mut self) {
        self.stats.repair_cutoffs += 1;
    }

    /// Offers an earliest-suspect repaired prefix onto the priority lane.
    /// Same promotion/dedup semantics as [`offer_priority`]; counted
    /// separately so the tables can report repair activations.
    ///
    /// [`offer_priority`]: Frontier::offer_priority
    pub fn offer_repair(&mut self, sig: u128, cs: ConstraintSet, seed: Vec<i64>) -> bool {
        let accepted = self.offer_priority(sig, cs, seed, false);
        if accepted {
            self.stats.repairs_scheduled += 1;
        }
        accepted
    }

    /// Records a drain restart (starvation event).
    pub fn note_restart(&mut self) {
        self.stats.restarts += 1;
    }

    /// True if any set was ever accepted — the restart gate (a program
    /// with no symbolic branches never restarts).
    pub fn ever_scheduled(&self) -> bool {
        self.stats.scheduled + self.stats.priority_scheduled > 0
    }

    /// Pending sets currently queued (both lanes).
    pub fn len(&self) -> usize {
        self.entries.len() + self.priority.len() + self.run_buffer.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scheduling counters so far.
    pub fn stats(&self) -> &FrontierStats {
        &self.stats
    }

    /// Consumes the frontier, returning its counters for the result
    /// struct.
    pub fn into_stats(mut self) -> FrontierStats {
        self.stats.solved_sigs.shrink_to_fit();
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solver::{ExprRef, Lit, VarId, VarInfo};

    fn set(ids: &[u32]) -> ConstraintSet {
        let mut cs = ConstraintSet::new();
        for id in ids {
            cs.push(Lit {
                expr: ExprRef(*id),
                positive: true,
            });
        }
        cs
    }

    /// Offers of already-built sets, hashed here: the scheduling tests
    /// below are about the frontier's decisions, not about who hashes.
    trait OfferBuilt {
        fn offer_set(&mut self, cs: ConstraintSet, seed: Vec<i64>, branch: Option<u32>) -> bool;
        fn offer_priority_set(&mut self, cs: ConstraintSet, seed: Vec<i64>, recovery: bool)
            -> bool;
        fn offer_repair_set(&mut self, cs: ConstraintSet, seed: Vec<i64>) -> bool;
    }

    impl OfferBuilt for Frontier {
        fn offer_set(&mut self, cs: ConstraintSet, seed: Vec<i64>, branch: Option<u32>) -> bool {
            let (sig, lits) = (signature(&cs), cs.len());
            self.offer(sig, lits, branch, || (cs, seed))
        }

        fn offer_priority_set(
            &mut self,
            cs: ConstraintSet,
            seed: Vec<i64>,
            recovery: bool,
        ) -> bool {
            self.offer_priority(signature(&cs), cs, seed, recovery)
        }

        fn offer_repair_set(&mut self, cs: ConstraintSet, seed: Vec<i64>) -> bool {
            self.offer_repair(signature(&cs), cs, seed)
        }
    }

    #[test]
    fn deepest_first_pops_in_stack_order() {
        let mut f = Frontier::new(SearchPolicy::default());
        f.begin_run();
        // Engine offers deepest-first: depth 3, then 2, then 1.
        assert!(f.offer_set(set(&[1, 2, 3]), vec![], None));
        assert!(f.offer_set(set(&[1, 2]), vec![], None));
        assert!(f.offer_set(set(&[1]), vec![], None));
        f.end_run();
        assert_eq!(f.pop().unwrap().depth, 3, "deepest first");
        assert_eq!(f.pop().unwrap().depth, 2);
        assert_eq!(f.pop().unwrap().depth, 1);
        assert!(f.pop().is_none());
    }

    #[test]
    fn generational_alternates_shallow_and_deep() {
        let mut f = Frontier::new(SearchPolicy {
            strategy: Strategy::Generational,
            ..SearchPolicy::default()
        });
        f.begin_run();
        for d in (1..=4).rev() {
            let ids: Vec<u32> = (1..=d).collect();
            assert!(f.offer_set(set(&ids), vec![], None));
        }
        f.end_run();
        assert_eq!(f.pop().unwrap().depth, 1, "first pop is shallowest");
        assert_eq!(f.pop().unwrap().depth, 4, "second pop is deepest");
        assert_eq!(f.pop().unwrap().depth, 2);
        assert_eq!(f.pop().unwrap().depth, 3);
    }

    #[test]
    fn priority_lane_is_lifo_and_first() {
        let mut f = Frontier::new(SearchPolicy::default());
        f.begin_run();
        assert!(f.offer_set(set(&[1, 2, 3]), vec![], None));
        assert!(f.offer_priority_set(set(&[4]), vec![], false));
        assert!(f.offer_priority_set(set(&[5, 6]), vec![], true));
        f.end_run();
        assert_eq!(f.pop().unwrap().depth, 2, "newest priority set first");
        assert_eq!(f.pop().unwrap().depth, 1, "older priority set next");
        assert_eq!(f.pop().unwrap().depth, 3, "then the pool");
        assert_eq!(f.stats().recovery_sets, 1);
        assert_eq!(f.stats().priority_scheduled, 2);
    }

    #[test]
    fn duplicate_sets_are_rejected_across_lanes() {
        let mut f = Frontier::new(SearchPolicy::default());
        f.begin_run();
        assert!(f.offer_priority_set(set(&[1, 2]), vec![], true));
        assert!(
            !f.offer_set(set(&[1, 2]), vec![], None),
            "dup of priority set"
        );
        assert!(
            !f.offer_priority_set(set(&[1, 2]), vec![], true),
            "already on the priority lane: nothing to promote"
        );
        assert_eq!(f.stats().skipped_duplicate, 2);
        assert_eq!(f.stats().recovery_sets, 1);
    }

    #[test]
    fn priority_offer_promotes_a_pooled_duplicate() {
        let mut f = Frontier::new(SearchPolicy::default());
        // Run 1 queues two standard sets.
        f.begin_run();
        assert!(f.offer_set(set(&[1, 2]), vec![7], None));
        assert!(f.offer_set(set(&[3]), vec![], None));
        f.end_run();
        // Run 2's recovery set is byte-identical to the pooled [1, 2]:
        // it must jump to the priority lane, not be dropped.
        f.begin_run();
        assert!(f.offer_priority_set(set(&[1, 2]), vec![9], true));
        f.end_run();
        assert_eq!(f.stats().recovery_sets, 1);
        let first = f.pop().unwrap();
        assert_eq!(first.depth, 2, "promoted set is tried first");
        assert_eq!(
            first.seed,
            vec![9],
            "the promoted set adopts the fresh (current-candidate) seed"
        );
        assert_eq!(f.pop().unwrap().depth, 1);
        assert!(f.pop().is_none(), "no duplicate left behind");
    }

    /// A stream of offers mixing every rejection kind: each candidate
    /// is charged to the FIRST check it fails (depth cap, then dedup,
    /// then branch quota), and the builder runs for accepted offers
    /// only.
    #[test]
    fn offers_are_checked_in_order_and_built_only_on_acceptance() {
        let mut f = Frontier::new(SearchPolicy {
            branch_quota: 1,
            ..SearchPolicy::default()
        });
        let built = std::cell::Cell::new(0u64);
        let offer = |f: &mut Frontier, ids: &[u32], branch: u32| {
            let cs = set(ids);
            let (sig, lits) = (signature(&cs), cs.len());
            f.offer(sig, lits, Some(branch), || {
                built.set(built.get() + 1);
                (cs, vec![])
            })
        };
        f.begin_run();
        assert!(offer(&mut f, &[1], 7), "fresh: accepted");
        let too_deep: Vec<u32> = (0..=MAX_PENDING_LITS as u32).collect();
        assert!(!offer(&mut f, &too_deep, 8), "too deep");
        assert!(!offer(&mut f, &[1], 8), "duplicate, other location");
        assert!(!offer(&mut f, &[2], 7), "location 7 is at its quota");
        assert!(
            !offer(&mut f, &[1], 7),
            "duplicate AND over quota: charged as a duplicate"
        );
        assert!(offer(&mut f, &[2, 1], 9), "fresh at a fresh location");
        f.end_run();
        f.begin_run();
        // Depth comes first: an accepted signature offered over the cap
        // is charged to depth, not to the dedup.
        let seen = signature(&set(&[1]));
        assert!(!f.offer(seen, MAX_PENDING_LITS + 1, Some(7), || {
            unreachable!("rejected")
        }));
        assert!(
            offer(&mut f, &[2], 7),
            "quota rejections are not remembered"
        );
        f.end_run();
        let st = f.stats();
        assert_eq!(st.offered, 8);
        assert_eq!(st.skipped_depth, 2);
        assert_eq!(st.skipped_duplicate, 2);
        assert_eq!(st.skipped_quota, 1);
        assert_eq!(st.scheduled, 3);
        assert_eq!(
            st.offered,
            st.scheduled + st.skipped_depth + st.skipped_duplicate + st.skipped_quota,
            "every offer is accepted or charged to exactly one check"
        );
        assert_eq!(built.get(), st.scheduled, "one build per accepted offer");
        let sigs: Vec<u128> = std::iter::from_fn(|| f.pop()).map(|p| p.sig).collect();
        // Stack order: run 2's set, then run 1's in offer order.
        let want: Vec<u128> = [&[2][..], &[1], &[2, 1]]
            .iter()
            .map(|ids| signature(&set(ids)))
            .collect();
        assert_eq!(sigs, want, "each pending set carries its own signature");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        // Paths mixing literal and range steps: the signature a candidate
        // is offered under must equal `signature()` of the set it builds,
        // and the set built from the split path must equal the prefix
        // collected step by step plus the literal, field for field, at
        // every prefix length, for both polarities of the appended
        // literal.
        #[test]
        fn prefix_signatures_match_built_sets(
            steps in proptest::collection::vec(
                (0u32..24, proptest::prelude::any::<bool>(), 0u8..3, -50i64..50),
                0..24,
            ),
            extra in 0u32..24,
        ) {
            let steps: Vec<Constraint> = steps
                .iter()
                .map(|&(id, positive, kind, v)| {
                    // One step in three is a range.
                    if kind == 0 {
                        Constraint::Range(RangeConstraint::range(
                            ExprRef(id),
                            v,
                            v + i64::from(id),
                            v,
                        ))
                    } else {
                        Constraint::Lit(Lit { expr: ExprRef(id), positive })
                    }
                })
                .collect();
            let sigs = PrefixSigs::new(steps.iter().copied());
            for i in 0..=steps.len() {
                // The slices an engine hands `register_path`.
                let path: ConstraintSet = steps[..i].iter().copied().collect();
                let (lits, ranges) = sigs.prefix(i);
                proptest::prop_assert_eq!(lits, &path.lits[..]);
                proptest::prop_assert_eq!(ranges, &path.ranges[..]);
                proptest::prop_assert_eq!(&sigs.build(i, &[]), &path);
                for positive in [false, true] {
                    let lit = Lit { expr: ExprRef(extra), positive };
                    let mut cs = path.clone();
                    cs.push(lit);
                    proptest::prop_assert_eq!(sigs.candidate(i, lit), (signature(&cs), cs.len()));
                    proptest::prop_assert_eq!(&sigs.build(i, &[lit]), &cs);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        // The standard negation loop's contract: on paths mixing range
        // steps, non-branch literals and branch literals over constants
        // (concrete) or input variables, often longer than the per-run
        // cap, the accepted sets are the strategy's order filtered to
        // branch steps, minus the last step under `skip_last`, minus
        // concrete literals, cut off at the cap — each built from the
        // split path with the given seed. (Paths stay below the literal
        // cap, so no candidate is a depth skip.)
        #[test]
        fn offer_negations_schedules_the_filtered_strategy_order(
            kinds in proptest::collection::vec((0u8..6, proptest::prelude::any::<bool>()), 0..200),
            generational in proptest::prelude::any::<bool>(),
            skip_last in proptest::prelude::any::<bool>(),
            seed in proptest::collection::vec(-9i64..9, 0..4),
        ) {
            // 0: range; 1: non-branch literal; 2: concrete branch
            // literal; 3-5: branch literal over an input variable.
            let mut arena = ExprArena::new();
            let vars: Vec<VarId> = (0..8).map(|_| arena.fresh_var(VarInfo::byte()).0).collect();
            let steps: Vec<Constraint> = kinds
                .iter()
                .enumerate()
                .map(|(i, &(kind, positive))| {
                    let var = arena.var_expr(vars[i % vars.len()]);
                    match kind {
                        0 => Constraint::Range(RangeConstraint::range(var, 0, i as i64, 0)),
                        2 => Constraint::Lit(Lit { expr: arena.constant(i as i64), positive }),
                        _ => Constraint::Lit(Lit { expr: var, positive }),
                    }
                })
                .collect();
            let branch = |i: usize| match steps[i] {
                Constraint::Lit(lit) if kinds[i].0 >= 2 => Some((i as u32, lit)),
                _ => None,
            };
            let strategy = if generational { Strategy::Generational } else { Strategy::DeepestFirst };
            let sigs = PrefixSigs::new(steps.iter().copied());
            proptest::prop_assert_eq!(sigs.len(), steps.len());
            let mut f = Frontier::new(SearchPolicy { strategy, ..SearchPolicy::default() });
            f.begin_run();
            f.offer_negations(&sigs, skip_last, &arena, &seed, branch);

            let n = steps.len();
            let want: Vec<(ConstraintSet, Vec<i64>)> = strategy
                .offer_order(n)
                .into_iter()
                .filter_map(|i| branch(i).map(|(_, lit)| (i, lit)))
                .filter(|&(i, _)| !(skip_last && i + 1 == n))
                .filter(|&(i, _)| kinds[i].0 != 2)
                .take(MAX_PENDINGS_PER_RUN)
                .map(|(i, lit)| (sigs.build(i, &[lit.negated()]), seed.clone()))
                .collect();
            let got: Vec<(ConstraintSet, Vec<i64>)> =
                f.run_buffer.iter().map(|p| (p.cs.clone(), p.seed.clone())).collect();
            proptest::prop_assert_eq!(&got, &want);
            let st = f.stats();
            proptest::prop_assert_eq!(st.scheduled, want.len() as u64);
            proptest::prop_assert_eq!(
                st.offered,
                st.scheduled + st.skipped_depth + st.skipped_duplicate + st.skipped_quota
            );
        }
    }

    #[test]
    fn depth_ok_counts_and_gates() {
        let mut f = Frontier::new(SearchPolicy::default());
        assert!(f.depth_ok(MAX_PENDING_LITS));
        assert!(!f.depth_ok(MAX_PENDING_LITS + 1));
        assert_eq!(f.stats().skipped_depth, 1);
    }

    #[test]
    fn signature_distinguishes_polarity_and_order() {
        let mut a = ConstraintSet::new();
        a.push(Lit {
            expr: ExprRef(1),
            positive: true,
        });
        let mut b = ConstraintSet::new();
        b.push(Lit {
            expr: ExprRef(1),
            positive: false,
        });
        assert_ne!(signature(&a), signature(&b));
        assert_ne!(signature(&set(&[1, 2])), signature(&set(&[2, 1])));
        assert_eq!(signature(&set(&[1, 2])), signature(&set(&[1, 2])));
    }

    #[test]
    fn branch_quota_limits_per_location_per_run() {
        let mut f = Frontier::new(SearchPolicy {
            branch_quota: 2,
            ..SearchPolicy::default()
        });
        f.begin_run();
        assert!(f.offer_set(set(&[1]), vec![], Some(7)));
        assert!(f.offer_set(set(&[2]), vec![], Some(7)));
        assert!(
            !f.offer_set(set(&[3]), vec![], Some(7)),
            "quota of 2 reached"
        );
        assert!(
            f.offer_set(set(&[4]), vec![], Some(8)),
            "other location fine"
        );
        assert_eq!(f.stats().skipped_quota, 1);
        f.end_run();
        // Quota resets per run.
        f.begin_run();
        assert!(f.offer_set(set(&[5]), vec![], Some(7)));
    }

    #[test]
    fn duplicates_do_not_burn_the_branch_quota() {
        let mut f = Frontier::new(SearchPolicy {
            branch_quota: 2,
            ..SearchPolicy::default()
        });
        f.begin_run();
        assert!(f.offer_set(set(&[1]), vec![], Some(7)));
        assert!(f.offer_set(set(&[2]), vec![], Some(7)));
        f.end_run();
        // Next run re-offers the same two sets (common: deep prefixes
        // recur across runs) — rejected as duplicates, but the quota must
        // stay unspent so a novel negation at the location still fits.
        f.begin_run();
        assert!(!f.offer_set(set(&[1]), vec![], Some(7)));
        assert!(!f.offer_set(set(&[2]), vec![], Some(7)));
        assert!(
            f.offer_set(set(&[3]), vec![], Some(7)),
            "novel candidate must not be starved by duplicate offers"
        );
        assert_eq!(f.stats().skipped_duplicate, 2);
        assert_eq!(f.stats().skipped_quota, 0);
    }

    #[test]
    fn quota_rejected_sets_can_be_scheduled_later() {
        let mut f = Frontier::new(SearchPolicy {
            branch_quota: 1,
            ..SearchPolicy::default()
        });
        f.begin_run();
        assert!(f.offer_set(set(&[1]), vec![], Some(7)));
        assert!(!f.offer_set(set(&[2]), vec![], Some(7)), "over quota");
        f.end_run();
        f.begin_run();
        assert!(
            f.offer_set(set(&[2]), vec![], Some(7)),
            "a quota-rejected set is not remembered as seen"
        );
    }

    #[test]
    fn run_cap_and_literal_cap_apply() {
        let mut f = Frontier::new(SearchPolicy::default());
        f.begin_run();
        let too_deep: Vec<u32> = (0..=MAX_PENDING_LITS as u32).collect();
        assert!(!f.offer_set(set(&too_deep), vec![], None), "too deep");
        assert_eq!(f.stats().skipped_depth, 1);
        for id in 0..MAX_PENDINGS_PER_RUN as u32 {
            assert!(!f.run_full());
            assert!(f.offer_set(set(&[id]), vec![], None));
        }
        assert!(f.run_full(), "per-run cap reached");
    }

    #[test]
    fn restart_gate_requires_scheduling_history() {
        let mut f = Frontier::new(SearchPolicy::explorer());
        assert!(!f.ever_scheduled());
        f.begin_run();
        assert!(f.offer_set(set(&[1]), vec![], None));
        assert!(f.ever_scheduled());
        f.note_restart();
        assert_eq!(f.stats().restarts, 1);
    }

    #[test]
    fn offer_order_matches_strategy() {
        assert_eq!(Strategy::DeepestFirst.offer_order(4), vec![3, 2, 1, 0]);
        assert_eq!(Strategy::Generational.offer_order(5), vec![4, 0, 3, 1, 2]);
        assert_eq!(Strategy::Generational.offer_order(1), vec![0]);
        assert_eq!(Strategy::Generational.offer_order(0), Vec::<usize>::new());
        // Every index appears exactly once.
        let mut o = Strategy::Generational.offer_order(100);
        o.sort_unstable();
        assert_eq!(o, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn stats_summary_names_the_strategy() {
        let f = Frontier::new(SearchPolicy::explorer());
        assert!(f.stats().summary().starts_with("generational:"));
        let d = Frontier::new(SearchPolicy::default());
        assert!(d.stats().summary().starts_with("deepest-first:"));
    }

    #[test]
    fn repair_tracker_waits_for_burst_then_walks_suspects() {
        let mut t = RepairTracker::new();
        let key = 42u128;
        // Each repair waits for a full burst (the counter resets after
        // a repair); attempts walk the suspects earliest first.
        for attempt in 0..MAX_REPAIRS {
            for _ in 1..REPAIR_UNSAT_BURST {
                assert_eq!(t.note_thrash(key), None, "burst below threshold");
            }
            assert!(!t.cut_off(key));
            assert_eq!(t.note_thrash(key), Some(attempt), "next suspect");
        }
        // Budget exhausted: cut off forever.
        for _ in 0..10 {
            assert_eq!(t.note_thrash(key), None);
        }
        assert!(t.cut_off(key));
        // Other prefixes are independent.
        for _ in 1..REPAIR_UNSAT_BURST {
            assert_eq!(t.note_thrash(7u128), None);
        }
        assert_eq!(t.note_thrash(7u128), Some(0), "a fresh budget");
    }

    #[test]
    fn repair_tracker_resets_bursts_on_progress_but_keeps_attempts() {
        let mut t = RepairTracker::new();
        let key = 9u128;
        for _ in 1..REPAIR_UNSAT_BURST {
            assert_eq!(t.note_thrash(key), None);
        }
        t.reset_bursts();
        for _ in 1..REPAIR_UNSAT_BURST {
            assert_eq!(t.note_thrash(key), None, "burst restarted");
        }
        assert_eq!(t.note_thrash(key), Some(0));
        // Progress after every repair: the attempt budget does not
        // refill, so the attempts keep counting up to the cutoff.
        for attempt in 1..MAX_REPAIRS {
            t.reset_bursts();
            for _ in 1..REPAIR_UNSAT_BURST {
                assert_eq!(t.note_thrash(key), None);
            }
            assert_eq!(t.note_thrash(key), Some(attempt));
        }
        t.reset_bursts();
        for _ in 0..REPAIR_UNSAT_BURST {
            assert_eq!(t.note_thrash(key), None, "cut off");
        }
        assert!(t.cut_off(key));
    }

    #[test]
    fn location_keys_are_distinct_and_disjoint_from_flat_keys() {
        // Distinct locations, distinct positions.
        assert_ne!(location_key(1, 0), location_key(2, 0));
        assert_ne!(location_key(1, 0), location_key(1, 1));
        assert_eq!(location_key(3, 9), location_key(3, 9));
        // Flat keys are raw bit counts (< 2^64): never collide with the
        // lifted per-location space.
        assert!(location_key(0, 0) > u128::from(u64::MAX));
    }

    #[test]
    fn location_keys_decode_to_their_location() {
        for (loc, pos) in [(0, 0), (7, 42), (u32::MAX, u64::MAX)] {
            assert_eq!(key_location(location_key(loc, pos)), Some((loc, pos)));
        }
        // A flat log keys on its bits-high-water mark, below 2^64.
        assert_eq!(key_location(0), None);
        assert_eq!(key_location(u128::from(u64::MAX)), None);
    }

    #[test]
    fn offer_repair_lands_on_priority_lane_and_counts() {
        let mut f = Frontier::new(SearchPolicy::default());
        f.begin_run();
        assert!(f.offer_set(set(&[1, 2, 3]), vec![], None));
        f.end_run();
        assert!(f.offer_repair_set(set(&[1, 9]), vec![5]));
        assert_eq!(f.stats().repairs_scheduled, 1);
        assert_eq!(f.pop().unwrap().depth, 2, "repair tried first");
        assert!(
            !f.offer_repair_set(set(&[1, 9]), vec![5]),
            "duplicate repair rejected"
        );
        assert_eq!(f.stats().repairs_scheduled, 1);
    }

    #[test]
    fn signature_distinguishes_range_constraints() {
        let base = set(&[1, 2]);
        let mut with_range = base.clone();
        with_range.push_range(RangeConstraint::range(ExprRef(7), 0, 10, 3));
        assert_ne!(signature(&base), signature(&with_range));
        let mut other_bounds = base.clone();
        other_bounds.push_range(RangeConstraint::range(ExprRef(7), 0, 11, 3));
        assert_ne!(signature(&with_range), signature(&other_bounds));
        // The observed witness is a hint, not an identity.
        let mut same_other_witness = base.clone();
        same_other_witness.push_range(RangeConstraint::range(ExprRef(7), 0, 10, 4));
        assert_eq!(signature(&with_range), signature(&same_other_witness));
    }

    /// Drains two identically-stocked frontiers, one via `pop`, the
    /// other via `pop_batch(width)` + `restore` of everything after the
    /// first set of each batch. The committed sequence must match:
    /// speculation must be invisible to scheduling order.
    fn assert_restore_transparent(policy: SearchPolicy, width: usize) {
        let stock = |f: &mut Frontier| {
            f.begin_run();
            for d in (1..=5).rev() {
                let ids: Vec<u32> = (1..=d).collect();
                assert!(f.offer_set(set(&ids), vec![], None));
            }
            assert!(f.offer_priority_set(set(&[9]), vec![], false));
            f.end_run();
        };
        let mut serial = Frontier::new(policy.clone());
        stock(&mut serial);
        let mut serial_order = Vec::new();
        while let Some(p) = serial.pop() {
            serial_order.push(signature(&p.cs));
        }

        let mut spec = Frontier::new(policy);
        stock(&mut spec);
        let mut spec_order = Vec::new();
        loop {
            let mut batch = spec.pop_batch(width);
            if batch.is_empty() {
                break;
            }
            // Commit only the head; push the rest back, as the parallel
            // engines do when the head's verdict mutates the frontier.
            let tail = batch.split_off(1);
            spec_order.push(signature(&batch.remove(0).set.cs));
            spec.restore(tail);
        }
        assert_eq!(spec_order, serial_order);
        assert_eq!(
            spec.stats().popped,
            spec.stats().committed + spec.stats().restored + spec_order.len() as u64,
            "note_solved was never called here, so committed stays 0 \
             and pops balance against restores + heads"
        );
    }

    #[test]
    fn restore_is_transparent_for_deepest_first() {
        for width in [2, 3, 6] {
            assert_restore_transparent(SearchPolicy::default(), width);
        }
    }

    #[test]
    fn restore_is_transparent_for_generational() {
        for width in [2, 3, 6] {
            assert_restore_transparent(
                SearchPolicy {
                    strategy: Strategy::Generational,
                    ..SearchPolicy::default()
                },
                width,
            );
        }
    }

    #[test]
    fn pop_accounting_balances() {
        let mut f = Frontier::new(SearchPolicy::default());
        f.begin_run();
        assert!(f.offer_set(set(&[1, 2, 3]), vec![], None));
        assert!(f.offer_set(set(&[1, 2]), vec![], None));
        assert!(f.offer_set(set(&[1]), vec![], None));
        f.end_run();
        let mut batch = f.pop_batch(8);
        assert_eq!(batch.len(), 3, "batch drains the pool");
        assert_eq!(f.stats().popped, 3);
        let tail = batch.split_off(1);
        let head = batch.remove(0);
        f.note_solved_sig(signature(&head.set.cs), true);
        f.restore(tail);
        assert_eq!(f.stats().committed, 1);
        assert_eq!(f.stats().restored, 2);
        assert_eq!(f.stats().popped, f.stats().committed + f.stats().restored);
        let sig = signature(&head.set.cs);
        assert_eq!(
            f.stats().solved_sigs.iter().collect::<Vec<_>>(),
            vec![(sig, true)]
        );
        assert_eq!(f.len(), 2, "restored sets are poppable again");
    }

    #[test]
    fn worker_runs_merge_elementwise() {
        let mut f = Frontier::new(SearchPolicy::default());
        f.note_worker_runs(&[2, 1]);
        f.note_worker_runs(&[0, 3, 4]);
        assert_eq!(f.stats().worker_runs, vec![2, 4, 4]);
        assert!(
            f.stats().summary().contains("worker runs [2, 4, 4]"),
            "summary mentions the split once workers ran"
        );
        let g = Frontier::new(SearchPolicy::default());
        assert!(
            !g.stats().summary().contains("worker runs"),
            "serial summaries are unchanged"
        );
    }
}
