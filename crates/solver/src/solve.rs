//! The constraint solver.
//!
//! A finite-domain solver tuned for the constraints concolic execution of
//! parsers and utilities produces: long conjunctions of (in)equalities
//! over input bytes, usually with a satisfying seed one literal away
//! (the concolic loop negates the last literal of a path that the current
//! input already satisfies).
//!
//! The pipeline per [`solve`] call:
//!
//! 1. **Interval refutation** — reject sets with a literal that can never
//!    hold under the variable domains.
//! 2. **Inversion repair** — walk the first unsatisfied literal's
//!    expression top-down, algebraically inverting `+`, `-`, `*`, `^`,
//!    masks and negations to compute the variable value that satisfies a
//!    comparison directly. This solves the common `input[i] == 'G'`,
//!    `len > 40`, `x*10+d == 123` shapes in O(depth).
//! 3. **Incremental stochastic search** — WalkSAT-style: maintain per-
//!    literal satisfaction flags and a variable→literal adjacency index;
//!    each move re-evaluates only the literals depending on the mutated
//!    variable (with a generation-stamped shared memo). Deterministic via
//!    an internal xorshift PRNG seeded by the caller. The adjacency is
//!    one CSR pair of vectors that a move walks in place, banked supports
//!    are borrowed from the prefix cache, and the memo is one
//!    [`Evaluator`] per thread, reused by every solve on it.
//! 4. **Stall proof** — at the search's first stall (the first iteration
//!    that does not raise the satisfied count) the solver tries once to
//!    prove the set UNSAT from the items the *seed* violates: (a) a
//!    literal expression asserted with both polarities; (b) a variable
//!    of at most 256 values whose single-support items admit no value of
//!    its propagated domain (enumerated); (c) a violated multi-variable
//!    item whose forward interval, over domains narrowed to the hulls of
//!    (b)'s admissible values, excludes its required truth value. Each
//!    conflict of (a) and (b) involves an item the seed violates, so the
//!    seed's violations are enough. A proof returns `None` with
//!    [`SolveStats::refuted`] set instead of grinding through the
//!    budget. The proof restores the assignment and draws nothing from
//!    the PRNG, so when it fails the search continues exactly as
//!    before: verdicts and models never depend on it, only `iters` and
//!    `restarts` do.
//!
//! First-class [`RangeConstraint`](crate::RangeConstraint)s ride the
//! same pipeline: backward interval propagation ([`propagate`]) narrows
//! the variable domains before the search (step 1.5 — an empty domain
//! is a sound UNSAT proof), range items participate in the satisfaction
//! count, and their repair move snaps the expression to the nearest
//! admissible value.

use crate::arena::{Evaluator, ExprArena, ExprRef, Node, VarId, VarInfo};
use crate::cache::PrefixCache;
use crate::constraint::{Constraint, ConstraintSet};
use crate::fasthash::FastSet;
use crate::interval::{propagate, range_in};
use crate::op::Op;
use crate::op::UnOp;
use std::borrow::Cow;
use std::cell::RefCell;

/// The 64-bit golden-ratio constant (`2^64 / φ`), the standard
/// multiplicative seed-mixing step.
pub const GOLDEN_RATIO: u64 = 0x9e37_79b9_7f4a_7c15;

/// Derives a decorrelated seed from a base seed and a salt (run index,
/// solver-call counter, restart number …). One documented home for the
/// golden-ratio mixing that was previously copy-pasted per engine.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    seed ^ GOLDEN_RATIO.wrapping_mul(salt.wrapping_add(1))
}

/// Configuration for a [`solve`] call.
#[derive(Debug, Clone)]
pub struct SolveCfg {
    /// Maximum search iterations before giving up.
    pub max_iters: usize,
    /// PRNG seed (the solver is fully deterministic given this).
    pub seed: u64,
    /// Restart the search from a fresh random assignment every this many
    /// non-improving iterations.
    pub restart_after: usize,
}

impl Default for SolveCfg {
    fn default() -> Self {
        SolveCfg {
            max_iters: 20_000,
            seed: 0x5eed,
            restart_after: 400,
        }
    }
}

/// Outcome statistics of a solve call (for the evaluation harness).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Iterations spent.
    pub iters: usize,
    /// Literals repaired by algebraic inversion.
    pub inversions: usize,
    /// Random restarts taken.
    pub restarts: usize,
    /// The set was *proved* unsatisfiable (interval refutation, empty
    /// propagated domain, or the stall proof) rather than merely not
    /// solved within budget.
    pub refuted: bool,
    /// The prefix cache matched a non-empty satisfied prefix.
    pub prefix_hit: bool,
    /// Literals whose per-literal refutation work the prefix cache
    /// skipped (the matched prefix length).
    pub prefix_lits_saved: u64,
}

/// Minimal deterministic PRNG (xorshift64*), dependency-free.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Creates a PRNG from a nonzero-ified seed.
    pub fn new(seed: u64) -> Self {
        XorShift(seed | 1)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform value in the inclusive range.
    pub fn in_range(&mut self, lo: i64, hi: i64) -> i64 {
        if lo >= hi {
            return lo;
        }
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as i64
    }
}

/// Attempts to find an assignment satisfying `cs`.
///
/// `seed_assign`, when given, initializes the search (concolic callers
/// pass the previous run's concrete input). Returns the satisfying
/// assignment indexed by `VarId`.
pub fn solve(
    arena: &ExprArena,
    cs: &ConstraintSet,
    seed_assign: Option<&[i64]>,
    cfg: &SolveCfg,
) -> Option<Vec<i64>> {
    solve_with_stats(arena, cs, seed_assign, cfg).0
}

/// Widest variable domain the stall proof enumerates: a byte's values.
const PROOF_DOMAIN: i128 = 256;

thread_local! {
    /// The evaluator every search on this thread uses. Its buffers grow
    /// to the largest arena solved so far instead of being allocated per
    /// solve; each search starts with an invalidation, so no slot an
    /// earlier solve wrote reads as current.
    static EVALUATOR: RefCell<Evaluator> = RefCell::new(Evaluator::empty());
}

struct Search<'a> {
    arena: &'a ExprArena,
    /// The literals, then the ranges, in order.
    items: Vec<Constraint>,
    /// Narrowed per-variable domains (from interval propagation).
    domains: Vec<VarInfo>,
    ev: &'a mut Evaluator,
    assign: Vec<i64>,
    sat: Vec<bool>,
    n_sat: usize,
    /// Per item, its support: borrowed from the prefix cache when banked.
    supports: Vec<Cow<'a, [VarId]>>,
    /// Var→item adjacency in CSR form: the items whose support holds
    /// variable `v` are `var_items[var_start[v]..var_start[v + 1]]`, in
    /// item order.
    var_start: Vec<usize>,
    var_items: Vec<usize>,
    /// Items the seed assignment violates, recorded once: every conflict
    /// the stall proof looks for involves one of them.
    seed_violated: Vec<usize>,
}

impl<'a> Search<'a> {
    fn new(
        arena: &'a ExprArena,
        cs: &'a ConstraintSet,
        domains: Vec<VarInfo>,
        assign: Vec<i64>,
        cache: Option<&'a PrefixCache>,
        ev: &'a mut Evaluator,
    ) -> Self {
        let items: Vec<Constraint> = cs
            .lits
            .iter()
            .map(|l| Constraint::Lit(*l))
            .chain(cs.ranges.iter().map(|r| Constraint::Range(*r)))
            .collect();
        // Supports are pure functions of immutable node content: a
        // banked support (registered when the expression's run was
        // executed) is the value `arena.support` would compute. The
        // negated tail literal shares its expression with the registered
        // positive form, so divergent tails hit too.
        let supports: Vec<Cow<'a, [VarId]>> = items
            .iter()
            .map(|l| match cache.and_then(|c| c.support_of(l.expr())) {
                Some(s) => Cow::Borrowed(s),
                None => Cow::Owned(arena.support(l.expr())),
            })
            .collect();
        // A counting sort of the (variable, item) pairs by variable.
        // Supports are deduped, so each item appears once per variable.
        let n_vars = arena.n_vars();
        let mut var_start = vec![0usize; n_vars + 1];
        for v in supports.iter().flat_map(|s| s.iter()) {
            var_start[v.0 as usize] += 1;
        }
        for k in 1..=n_vars {
            var_start[k] += var_start[k - 1];
        }
        // `var_start[v]` is the end of `v`'s slice: fill each slice
        // from the back, walking the items backwards so it ends up in
        // item order with `var_start[v]` at its start.
        let mut var_items = vec![0usize; var_start[n_vars]];
        for (i, sup) in supports.iter().enumerate().rev() {
            for v in sup.iter() {
                let slot = &mut var_start[v.0 as usize];
                *slot -= 1;
                var_items[*slot] = i;
            }
        }
        let n = items.len();
        let mut s = Search {
            arena,
            items,
            domains,
            ev,
            assign,
            sat: vec![false; n],
            n_sat: 0,
            supports,
            var_start,
            var_items,
            seed_violated: Vec::new(),
        };
        s.recompute_all();
        s.seed_violated = (0..n).filter(|&i| !s.sat[i]).collect();
        s
    }

    /// Positions in `var_items` of the items depending on `var`.
    fn items_of(&self, var: VarId) -> std::ops::Range<usize> {
        let v = var.0 as usize;
        self.var_start[v]..self.var_start[v + 1]
    }

    fn lit_holds(&mut self, i: usize) -> bool {
        match self.items[i] {
            Constraint::Lit(lit) => {
                (self.ev.eval(self.arena, lit.expr, &self.assign) != 0) == lit.positive
            }
            Constraint::Range(rc) => rc.admits(self.ev.eval(self.arena, rc.expr, &self.assign)),
        }
    }

    fn recompute_all(&mut self) {
        self.ev.invalidate();
        self.n_sat = 0;
        for i in 0..self.items.len() {
            let h = self.lit_holds(i);
            self.sat[i] = h;
            if h {
                self.n_sat += 1;
            }
        }
    }

    /// Re-evaluates only the literals depending on `var`.
    fn update_var(&mut self, var: VarId) {
        self.ev.invalidate();
        for k in self.items_of(var) {
            let i = self.var_items[k];
            let h = self.lit_holds(i);
            if h != self.sat[i] {
                self.sat[i] = h;
                if h {
                    self.n_sat += 1;
                } else {
                    self.n_sat -= 1;
                }
            }
        }
    }

    /// Satisfaction delta of setting `var` to `value` (state restored).
    fn probe(&mut self, var: VarId, value: i64) -> i64 {
        let old = self.assign[var.0 as usize];
        if old == value {
            return 0;
        }
        self.assign[var.0 as usize] = value;
        self.ev.invalidate();
        let mut delta = 0i64;
        for k in self.items_of(var) {
            let i = self.var_items[k];
            let h = self.lit_holds(i);
            if h != self.sat[i] {
                delta += if h { 1 } else { -1 };
            }
        }
        self.assign[var.0 as usize] = old;
        self.ev.invalidate();
        delta
    }

    fn set_var(&mut self, var: VarId, value: i64) {
        if self.assign[var.0 as usize] != value {
            self.assign[var.0 as usize] = value;
            self.update_var(var);
        }
    }

    fn first_unsat(&self) -> Option<usize> {
        self.sat.iter().position(|s| !*s)
    }

    /// Runs the search loop from the seed: a model, or `None` when the
    /// set is refuted (flagged in `stats`) or the budget runs out.
    fn run(mut self, cfg: &SolveCfg, stats: &mut SolveStats) -> Option<Vec<i64>> {
        let arena = self.arena;
        let n_items = self.items.len();
        if self.n_sat == n_items {
            return Some(self.assign);
        }
        // A constant-false item (empty support) can never be repaired.
        for (i, sup) in self.supports.iter().enumerate() {
            if sup.is_empty() && !self.sat[i] {
                stats.refuted = true;
                return None;
            }
        }

        let mut rng = XorShift::new(cfg.seed);
        let mut best = self.assign.clone();
        let mut best_score = self.n_sat;
        let mut since_improvement = 0usize;
        let mut stalled = false;

        for iter in 0..cfg.max_iters {
            stats.iters = iter + 1;
            let Some(unsat_idx) = self.first_unsat() else {
                return Some(self.assign);
            };
            let item = self.items[unsat_idx];

            // Phase 1: algebraic repair of the violated item — inversion
            // of a literal, or snapping a range's expression to the
            // nearest admissible value.
            self.ev.invalidate();
            let changed = match item {
                Constraint::Lit(lit) => invert_lit(
                    arena,
                    lit.expr,
                    lit.positive,
                    &mut self.assign,
                    &self.domains,
                    &mut *self.ev,
                    &mut rng,
                ),
                Constraint::Range(rc) => {
                    let cur = self.ev.eval(arena, rc.expr, &self.assign);
                    // Mostly snap from the current value; sometimes aim at
                    // the observed witness to escape local minima.
                    let target = if rng.below(4) == 0 {
                        rc.snap(rc.observed)
                    } else {
                        rc.snap(cur)
                    };
                    invert_value(
                        arena,
                        rc.expr,
                        target,
                        &mut self.assign,
                        &self.domains,
                        &mut *self.ev,
                    )
                }
            };
            if let Some(var) = changed {
                stats.inversions += 1;
                self.update_var(var);
            }

            // Phase 2: if the item is still violated, do a WalkSAT move
            // on one of its support variables.
            if !self.sat[unsat_idx] {
                let support = &self.supports[unsat_idx];
                if support.is_empty() {
                    return None;
                }
                let var = support[rng.below(support.len())];
                let info = self.domains[var.0 as usize];
                let candidates = candidate_values(arena, item.expr(), &mut rng, info.lo, info.hi);
                let mut best_v = None;
                let mut best_delta = i64::MIN;
                for cand in candidates {
                    let d = self.probe(var, cand);
                    if d > best_delta {
                        best_delta = d;
                        best_v = Some(cand);
                    }
                }
                match best_v {
                    Some(v) if best_delta > 0 || rng.below(4) != 0 => {
                        // Greedy or sideways/noise move.
                        self.set_var(var, v);
                    }
                    _ => {
                        // Pure exploration.
                        let v = rng.in_range(info.lo, info.hi);
                        self.set_var(var, v);
                    }
                }
            }

            if self.n_sat == n_items {
                return Some(self.assign);
            }
            if self.n_sat > best_score {
                best_score = self.n_sat;
                best = self.assign.clone();
                since_improvement = 0;
            } else {
                // The first stall: try to prove the set UNSAT before
                // grinding through the rest of the budget.
                if !stalled {
                    stalled = true;
                    if self.refutes() {
                        stats.refuted = true;
                        return None;
                    }
                }
                since_improvement += 1;
                if since_improvement >= cfg.restart_after {
                    stats.restarts += 1;
                    since_improvement = 0;
                    if rng.below(2) == 0 {
                        self.assign = best.clone();
                    } else {
                        for (v, info) in self.assign.iter_mut().zip(&self.domains) {
                            *v = rng.in_range(info.lo, info.hi);
                        }
                    }
                    self.recompute_all();
                }
            }
        }
        None
    }

    /// The stall proof: `true` only when no assignment within the
    /// propagated domains satisfies every item. It reads the seed's
    /// violated items, not the current assignment, restores `assign`,
    /// invalidates the evaluator and draws nothing from the RNG, so a
    /// failed proof leaves the search exactly as it was.
    fn refutes(&mut self) -> bool {
        // 1. A literal expression asserted with both polarities: the
        //    seed violates one of the pair.
        let opposites: FastSet<(ExprRef, bool)> = self
            .seed_violated
            .iter()
            .filter_map(|&i| match self.items[i] {
                Constraint::Lit(l) => Some((l.expr, !l.positive)),
                Constraint::Range(_) => None,
            })
            .collect();
        if self
            .items
            .iter()
            .any(|it| matches!(it, Constraint::Lit(l) if opposites.contains(&(l.expr, l.positive))))
        {
            return true;
        }
        // 2. A small-domain variable whose single-support items admit no
        //    value. The seed's value fails one of them, so the variable
        //    is in a seed-violated item's support. The admissible
        //    values' hull narrows the variable's domain for step 3.
        let mut vars: Vec<VarId> = self
            .seed_violated
            .iter()
            .flat_map(|&i| self.supports[i].iter().copied())
            .collect();
        vars.sort_unstable();
        vars.dedup();
        let mut hulls = self.domains.clone();
        for v in vars {
            let slot = v.0 as usize;
            let dom = self.domains[slot];
            if dom.hi as i128 - dom.lo as i128 >= PROOF_DOMAIN {
                continue;
            }
            let single: Vec<usize> = self.var_items[self.items_of(v)]
                .iter()
                .copied()
                .filter(|&i| self.supports[i].len() == 1)
                .collect();
            if single.is_empty() {
                continue;
            }
            let old = self.assign[slot];
            let mut admitted: Option<(i64, i64)> = None;
            for x in dom.lo..=dom.hi {
                self.assign[slot] = x;
                self.ev.invalidate();
                if single.iter().all(|&i| self.lit_holds(i)) {
                    admitted = Some((admitted.map_or(x, |(lo, _)| lo), x));
                }
            }
            self.assign[slot] = old;
            self.ev.invalidate();
            match admitted {
                Some((lo, hi)) => hulls[slot] = VarInfo::range(lo, hi),
                None => return true,
            }
        }
        // 3. A violated multi-variable item whose forward interval over
        //    the hulls excludes its required truth value.
        self.seed_violated.iter().any(|&i| {
            let item = self.items[i];
            self.supports[i].len() > 1
                && item.excluded_by(range_in(self.arena, item.expr(), &hulls))
        })
    }
}

/// The search's starting assignment: the seed clamped into the domains.
fn clamped_seed(n_vars: usize, domains: &[VarInfo], seed_assign: Option<&[i64]>) -> Vec<i64> {
    (0..n_vars)
        .map(|i| {
            let info = domains.get(i).copied().unwrap_or(VarInfo::byte());
            match seed_assign.and_then(|s| s.get(i)) {
                Some(v) => info.clamp(*v),
                None => info.clamp(0),
            }
        })
        .collect()
}

/// Runs the stall proof on `cs` from `seed` as the search would at its
/// first stall, whether or not the search would ever stall (the
/// soundness proptest's direct hook).
#[cfg(test)]
pub(crate) fn stall_proof_refutes(arena: &ExprArena, cs: &ConstraintSet, seed: &[i64]) -> bool {
    let Some(domains) = propagate(arena, cs) else {
        return false;
    };
    let init = clamped_seed(arena.n_vars(), &domains, Some(seed));
    Search::new(arena, cs, domains, init, None, &mut Evaluator::empty()).refutes()
}

/// Like [`solve`], also returning search statistics.
pub fn solve_with_stats(
    arena: &ExprArena,
    cs: &ConstraintSet,
    seed_assign: Option<&[i64]>,
    cfg: &SolveCfg,
) -> (Option<Vec<i64>>, SolveStats) {
    solve_with_stats_cached(arena, cs, seed_assign, cfg, None)
}

/// [`solve_with_stats`] with a [`PrefixCache`]: per-literal refutation
/// work for the matched satisfied prefix is skipped, banked intervals /
/// supports / propagation states are reused, and the hit is reported in
/// the stats. Every shortcut is provably outcome-identical (see the
/// cache module docs), so the verdict, model and refutation flag are
/// bit-identical to the uncached call.
pub fn solve_with_stats_cached(
    arena: &ExprArena,
    cs: &ConstraintSet,
    seed_assign: Option<&[i64]>,
    cfg: &SolveCfg,
    cache: Option<&PrefixCache>,
) -> (Option<Vec<i64>>, SolveStats) {
    let mut stats = SolveStats::default();
    let skip = cache.map_or(0, |c| c.sat_prefix_len(&cs.lits));
    stats.prefix_hit = skip > 0;
    stats.prefix_lits_saved = skip as u64;
    if cs.obviously_unsat_cached(arena, skip, cache) {
        stats.refuted = true;
        return (None, stats);
    }
    // Backward interval propagation: narrow the variable domains under
    // the range constraints; an empty domain is a sound UNSAT proof.
    // A banked propagation state for this exact range vector replays
    // the narrowing instead of re-deriving it.
    let domains = match cache.and_then(|c| c.propagate_cached(arena, &cs.ranges)) {
        Some(d) => d,
        None => match propagate(arena, cs) {
            Some(d) => d,
            None => {
                stats.refuted = true;
                return (None, stats);
            }
        },
    };
    // Re-run the literal refutation under the narrowed domains — this is
    // where a branch literal contradicting a region bound is caught.
    if cs.has_ranges()
        && cs
            .lits
            .iter()
            .any(|l| l.excluded_by(range_in(arena, l.expr, &domains)))
    {
        stats.refuted = true;
        return (None, stats);
    }
    let init = clamped_seed(arena.n_vars(), &domains, seed_assign);
    let model = EVALUATOR.with_borrow_mut(|ev| {
        Search::new(arena, cs, domains, init, cache, ev).run(cfg, &mut stats)
    });
    (model, stats)
}

/// Tries to make `expr` truthy (`positive`) or falsy by direct inversion.
/// Returns the variable it assigned, if any.
fn invert_lit(
    arena: &ExprArena,
    expr: ExprRef,
    positive: bool,
    assign: &mut [i64],
    domains: &[VarInfo],
    ev: &mut Evaluator,
    rng: &mut XorShift,
) -> Option<VarId> {
    match arena.node(expr) {
        Node::Un(UnOp::Not, inner) => invert_lit(arena, inner, !positive, assign, domains, ev, rng),
        Node::Bin(op, lhs, rhs) if op.is_comparison() => {
            // Normalize to `sym REL const` when possible.
            let (sym, cst, rel) = if arena.is_concrete(rhs) {
                (lhs, ev.eval(arena, rhs, assign), op)
            } else if arena.is_concrete(lhs) {
                (rhs, ev.eval(arena, lhs, assign), op.swapped())
            } else {
                // Both sides symbolic: invert the left against the right's
                // current value (heuristic).
                (lhs, ev.eval(arena, rhs, assign), op)
            };
            let rel = if positive { rel } else { rel.negated()? };
            let target = match rel {
                Op::Eq => cst,
                Op::Ne => {
                    if rng.below(2) == 0 {
                        cst.wrapping_add(1)
                    } else {
                        cst.wrapping_sub(1)
                    }
                }
                Op::Lt => cst.wrapping_sub(1),
                Op::Le => cst,
                Op::Gt => cst.wrapping_add(1),
                Op::Ge => cst,
                _ => unreachable!("comparison ops only"),
            };
            invert_value(arena, sym, target, assign, domains, ev)
        }
        // Raw truthiness of a non-comparison: make it 1 or 0.
        _ => {
            let target = if positive { 1 } else { 0 };
            invert_value(arena, expr, target, assign, domains, ev)
        }
    }
}

/// Tries to drive `expr` to evaluate to exactly `target` by assigning one
/// variable along an invertible spine. Returns the assigned variable.
fn invert_value(
    arena: &ExprArena,
    expr: ExprRef,
    target: i64,
    assign: &mut [i64],
    domains: &[VarInfo],
    ev: &mut Evaluator,
) -> Option<VarId> {
    match arena.node(expr) {
        Node::Var(v) => {
            let info = domains
                .get(v.0 as usize)
                .copied()
                .unwrap_or_else(|| arena.var_info(v));
            if target < info.lo || target > info.hi {
                return None;
            }
            assign[v.0 as usize] = target;
            ev.invalidate();
            Some(v)
        }
        Node::Const(_) => None,
        Node::Un(UnOp::Neg, a) => {
            invert_value(arena, a, target.wrapping_neg(), assign, domains, ev)
        }
        Node::Un(UnOp::BitNot, a) => invert_value(arena, a, !target, assign, domains, ev),
        Node::Un(UnOp::Not, a) => match target {
            1 => invert_value(arena, a, 0, assign, domains, ev),
            0 => invert_value(arena, a, 1, assign, domains, ev),
            _ => None,
        },
        Node::Bin(op, a, b) => {
            let a_concrete = arena.is_concrete(a);
            let b_concrete = arena.is_concrete(b);
            let va = ev.eval(arena, a, assign);
            let vb = ev.eval(arena, b, assign);
            match op {
                Op::Add => {
                    if b_concrete || !a_concrete {
                        invert_value(arena, a, target.wrapping_sub(vb), assign, domains, ev)
                    } else {
                        invert_value(arena, b, target.wrapping_sub(va), assign, domains, ev)
                    }
                }
                Op::Sub => {
                    if b_concrete || !a_concrete {
                        invert_value(arena, a, target.wrapping_add(vb), assign, domains, ev)
                    } else {
                        invert_value(arena, b, va.wrapping_sub(target), assign, domains, ev)
                    }
                }
                Op::Mul => {
                    if let Some(q) = b_concrete.then(|| exact_quotient(target, vb)).flatten() {
                        invert_value(arena, a, q, assign, domains, ev)
                    } else if let Some(q) = a_concrete.then(|| exact_quotient(target, va)).flatten()
                    {
                        invert_value(arena, b, q, assign, domains, ev)
                    } else {
                        None
                    }
                }
                Op::Xor => {
                    if b_concrete {
                        invert_value(arena, a, target ^ vb, assign, domains, ev)
                    } else if a_concrete {
                        invert_value(arena, b, target ^ va, assign, domains, ev)
                    } else {
                        None
                    }
                }
                Op::And => {
                    if b_concrete && (target & !vb) == 0 {
                        invert_value(arena, a, target, assign, domains, ev)
                    } else if a_concrete && (target & !va) == 0 {
                        invert_value(arena, b, target, assign, domains, ev)
                    } else {
                        None
                    }
                }
                Op::Div => {
                    if b_concrete && vb != 0 {
                        invert_value(arena, a, target.wrapping_mul(vb), assign, domains, ev)
                    } else {
                        None
                    }
                }
                Op::Shl => {
                    if b_concrete && (0..63).contains(&vb) {
                        let shifted = target >> vb;
                        if shifted << vb == target {
                            invert_value(arena, a, shifted, assign, domains, ev)
                        } else {
                            None
                        }
                    } else {
                        None
                    }
                }
                Op::Shr => {
                    if b_concrete && (0..63).contains(&vb) {
                        invert_value(arena, a, target << vb, assign, domains, ev)
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
    }
}

/// `target / d` when `d` divides `target` exactly; `None` for a zero
/// divisor, a remainder, or the one quotient that overflows
/// (`i64::MIN / -1`).
fn exact_quotient(target: i64, d: i64) -> Option<i64> {
    match target.checked_rem(d) {
        Some(0) => target.checked_div(d),
        _ => None,
    }
}

/// Mines candidate values for a variable from the constants appearing in
/// a violated literal (plus neighbours and domain bounds).
fn candidate_values(
    arena: &ExprArena,
    expr: ExprRef,
    rng: &mut XorShift,
    lo: i64,
    hi: i64,
) -> Vec<i64> {
    let mut out = Vec::with_capacity(16);
    let mut stack = vec![expr];
    let mut seen = FastSet::default();
    while let Some(r) = stack.pop() {
        if !seen.insert(r) || out.len() > 24 {
            continue;
        }
        match arena.node(r) {
            Node::Const(c) => {
                // A neighbour past the i64 range is no candidate.
                let neighbours = [Some(c), c.checked_add(1), c.checked_sub(1)];
                for v in neighbours.into_iter().flatten() {
                    if v >= lo && v <= hi && !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
            Node::Bin(_, a, b) => {
                stack.push(a);
                stack.push(b);
            }
            Node::Un(_, a) => stack.push(a),
            Node::Var(_) => {}
        }
    }
    for v in [lo, hi, 0] {
        if v >= lo && v <= hi && !out.contains(&v) {
            out.push(v);
        }
    }
    out.push(rng.in_range(lo, hi));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::VarInfo;
    use crate::constraint::{Lit, RangeConstraint};

    fn bytes(n: usize) -> (ExprArena, Vec<ExprRef>) {
        let mut a = ExprArena::new();
        let refs = (0..n).map(|_| a.fresh_var(VarInfo::byte()).1).collect();
        (a, refs)
    }

    fn assert_solves(arena: &ExprArena, cs: &ConstraintSet, seed: Option<&[i64]>) -> Vec<i64> {
        let sol = solve(arena, cs, seed, &SolveCfg::default()).expect("solvable");
        assert!(cs.satisfied(arena, &sol), "returned model must satisfy");
        sol
    }

    #[test]
    fn solves_byte_equalities() {
        let (mut a, v) = bytes(3);
        let mut cs = ConstraintSet::new();
        for (i, ch) in b"GET".iter().enumerate() {
            let c = a.constant(*ch as i64);
            cs.push(Lit {
                expr: a.bin(Op::Eq, v[i], c),
                positive: true,
            });
        }
        let sol = assert_solves(&a, &cs, None);
        assert_eq!(&sol, &[b'G' as i64, b'E' as i64, b'T' as i64]);
    }

    #[test]
    fn solves_negated_last_literal_from_seed() {
        // The concolic pattern: prefix satisfied by seed, last negated.
        let (mut a, v) = bytes(2);
        let c65 = a.constant(65);
        let c66 = a.constant(66);
        let mut cs = ConstraintSet::new();
        cs.push(Lit {
            expr: a.bin(Op::Eq, v[0], c65),
            positive: true,
        });
        cs.push(Lit {
            expr: a.bin(Op::Eq, v[1], c66),
            positive: false, // NOT (v1 == 66)
        });
        let sol = assert_solves(&a, &cs, Some(&[65, 66]));
        assert_eq!(sol[0], 65);
        assert_ne!(sol[1], 66);
    }

    #[test]
    fn solves_linear_combination() {
        // x*10 + y == 42 (the atoi shape).
        let (mut a, v) = bytes(2);
        let ten = a.constant(10);
        let t = a.bin(Op::Mul, v[0], ten);
        let e = a.bin(Op::Add, t, v[1]);
        let c = a.constant(42);
        let mut cs = ConstraintSet::new();
        cs.push(Lit {
            expr: a.bin(Op::Eq, e, c),
            positive: true,
        });
        let sol = assert_solves(&a, &cs, None);
        assert_eq!(sol[0] * 10 + sol[1], 42);
    }

    #[test]
    fn solves_inequalities() {
        let (mut a, v) = bytes(1);
        let lo = a.constant(b'a' as i64);
        let hi = a.constant(b'z' as i64);
        let mut cs = ConstraintSet::new();
        cs.push(Lit {
            expr: a.bin(Op::Ge, v[0], lo),
            positive: true,
        });
        cs.push(Lit {
            expr: a.bin(Op::Le, v[0], hi),
            positive: true,
        });
        let sol = assert_solves(&a, &cs, None);
        assert!((b'a' as i64..=b'z' as i64).contains(&sol[0]));
    }

    #[test]
    fn detects_unsat_by_interval() {
        let (mut a, v) = bytes(1);
        let big = a.constant(1000);
        let mut cs = ConstraintSet::new();
        cs.push(Lit {
            expr: a.bin(Op::Gt, v[0], big),
            positive: true,
        });
        assert!(solve(&a, &cs, None, &SolveCfg::default()).is_none());
    }

    #[test]
    fn detects_contradiction() {
        let (mut a, v) = bytes(1);
        let c = a.constant(65);
        let e = a.bin(Op::Eq, v[0], c);
        let mut cs = ConstraintSet::new();
        cs.push(Lit {
            expr: e,
            positive: true,
        });
        cs.push(Lit {
            expr: e,
            positive: false,
        });
        // Not interval-refutable, but the search must fail.
        let cfg = SolveCfg {
            max_iters: 3000,
            ..SolveCfg::default()
        };
        assert!(solve(&a, &cs, None, &cfg).is_none());
    }

    fn lit(expr: ExprRef, positive: bool) -> Lit {
        Lit { expr, positive }
    }

    /// Solves `cs` from `seed` and asserts the stall proof refuted it:
    /// after the search started (no pre-search refutation), within a
    /// handful of iterations.
    fn assert_stall_refuted(a: &ExprArena, cs: &ConstraintSet, seed: &[i64]) {
        let (m, stats) = solve_with_stats(a, cs, Some(seed), &SolveCfg::default());
        assert!(m.is_none());
        assert!(stats.refuted, "the stall proof must refute the set");
        assert!(
            (1..=4).contains(&stats.iters),
            "refuted at the first stall, not by the budget: {} iters",
            stats.iters
        );
    }

    #[test]
    fn stall_proof_finds_a_literal_asserted_both_ways() {
        // The diff workload's shape: a forced prefix asserts
        // `in0 != in17`, the negated tail asserts its opposite.
        let (mut a, v) = bytes(18);
        let ca = a.constant(b'a' as i64);
        let differ = a.bin(Op::Ne, v[0], v[17]);
        let mut cs = ConstraintSet::new();
        cs.push(lit(a.bin(Op::Eq, v[0], ca), true));
        cs.push(lit(differ, true));
        cs.push(lit(differ, false));
        let mut seed = vec![b'x' as i64; 18];
        seed[0] = b'a' as i64;
        seed[17] = b'b' as i64;
        assert_stall_refuted(&a, &cs, &seed);
    }

    #[test]
    fn stall_proof_enumerates_a_byte_domain() {
        // The uServer's byte conflict: the log forces `GET /`, and the
        // negated tail demands that the path byte be a digit. No single
        // expression repeats and no interval excludes either literal;
        // only the 256 values of `in4` show the clash.
        let (mut a, v) = bytes(5);
        let mut cs = ConstraintSet::new();
        for (i, ch) in b"GET /".iter().enumerate() {
            let c = a.constant(*ch as i64);
            cs.push(lit(a.bin(Op::Eq, v[i], c), true));
        }
        let zero = a.constant(b'0' as i64);
        cs.push(lit(a.bin(Op::Lt, v[4], zero), false));
        let seed: Vec<i64> = b"GET /".iter().map(|c| *c as i64).collect();
        assert_stall_refuted(&a, &cs, &seed);
    }

    #[test]
    fn stall_proof_narrows_domains_to_admissible_hulls() {
        // The coreutils octal-mode shape: two digits in '0'..'7' cannot
        // make `(in2 - 48) * 8 + (in3 - 48)` negative. Each literal is
        // satisfiable alone; the product is visible only once both
        // digit domains are narrowed to [48, 55].
        let (mut a, v) = bytes(4);
        let c48 = a.constant(48);
        let c55 = a.constant(55);
        let eight = a.constant(8);
        let zero = a.constant(0);
        let mut cs = ConstraintSet::new();
        for d in [v[2], v[3]] {
            cs.push(lit(a.bin(Op::Ge, d, c48), true));
            cs.push(lit(a.bin(Op::Le, d, c55), true));
        }
        let hi = a.bin(Op::Sub, v[2], c48);
        let lo = a.bin(Op::Sub, v[3], c48);
        let scaled = a.bin(Op::Mul, hi, eight);
        let mode = a.bin(Op::Add, scaled, lo);
        cs.push(lit(a.bin(Op::Lt, mode, zero), true));
        assert_stall_refuted(
            &a,
            &cs,
            &[b'-' as i64, b'm' as i64, b'1' as i64, b'2' as i64],
        );
    }

    #[test]
    fn failed_stall_proof_leaves_the_search_unchanged() {
        // A satisfiable set touching all three steps: digit bounds, a
        // multi-variable sum the seed violates, and a byte literal. The
        // sum needs digits near the top of their hulls, so a hull cut
        // short would refute it falsely.
        let (mut a, v) = bytes(3);
        let c48 = a.constant(48);
        let c57 = a.constant(57);
        let c110 = a.constant(110);
        let mut cs = ConstraintSet::new();
        for d in [v[0], v[1]] {
            cs.push(lit(a.bin(Op::Ge, d, c48), true));
            cs.push(lit(a.bin(Op::Le, d, c57), true));
        }
        let sum = a.bin(Op::Add, v[0], v[1]);
        cs.push(lit(a.bin(Op::Gt, sum, c110), true));
        cs.push(lit(a.bin(Op::Eq, v[2], c48), false));
        let mut ev = Evaluator::empty();
        let mut search = Search::new(
            &a,
            &cs,
            a.var_infos().to_vec(),
            vec![48, 49, 48],
            None,
            &mut ev,
        );
        let before = (search.assign.clone(), search.sat.clone(), search.n_sat);
        assert_eq!(search.seed_violated, vec![4, 5]);
        assert!(!search.refutes(), "the set is satisfiable (e.g. 57, 57, 0)");
        assert_eq!(
            (search.assign.clone(), search.sat.clone(), search.n_sat),
            before
        );
        search.recompute_all();
        assert_eq!((search.assign, search.sat, search.n_sat), before);
    }

    #[test]
    fn mul_inversion_skips_the_overflowing_quotient() {
        // `(x + i64::MAX) * -1 == i64::MIN` holds only at x = 1, where
        // both operations wrap. Inverting the product would divide
        // i64::MIN by -1.
        let (mut a, v) = bytes(1);
        let max = a.constant(i64::MAX);
        let sum = a.bin(Op::Add, v[0], max);
        let minus_one = a.constant(-1);
        let product = a.bin(Op::Mul, sum, minus_one);
        let min = a.constant(i64::MIN);
        let mut cs = ConstraintSet::new();
        cs.push(lit(a.bin(Op::Eq, product, min), true));
        assert_eq!(assert_solves(&a, &cs, Some(&[0])), vec![1]);
    }

    #[test]
    fn candidate_mining_skips_neighbours_past_the_i64_range() {
        // `((x ^ i64::MAX) % 3) == 0`: mining i64::MAX must not step to
        // i64::MAX + 1, which panics in debug builds and wraps in
        // release ones.
        let (mut a, v) = bytes(1);
        let max = a.constant(i64::MAX);
        let flipped = a.bin(Op::Xor, v[0], max);
        let three = a.constant(3);
        let rem = a.bin(Op::Rem, flipped, three);
        let zero = a.constant(0);
        let mut cs = ConstraintSet::new();
        cs.push(lit(a.bin(Op::Eq, rem, zero), true));
        assert_eq!(
            solve(&a, &cs, Some(&[0]), &SolveCfg::default()),
            Some(vec![1])
        );
    }

    #[test]
    fn reused_evaluator_matches_fresh_threads() {
        // A large arena: 48 byte equalities and pairwise sums the seed
        // violates, next to a 20k-node chain no literal reads.
        let (mut big, v) = bytes(48);
        let want = |i: usize| (i as i64 * 37) % 200;
        let mut big_cs = ConstraintSet::new();
        for (i, x) in v.iter().enumerate() {
            let c = big.constant(want(i));
            big_cs.push(lit(big.bin(Op::Eq, *x, c), true));
        }
        for i in (0..48).step_by(2) {
            let sum = big.bin(Op::Add, v[i], v[i + 1]);
            let c = big.constant(want(i) + want(i + 1) - 5);
            big_cs.push(lit(big.bin(Op::Gt, sum, c), true));
        }
        let mut e = v[0];
        for _ in 0..20_000 {
            let one = big.constant(1);
            e = big.bin(Op::Add, e, one);
        }
        let big_seed = vec![7; 48];
        // A small arena whose handles overlap the large one's.
        let (mut small, w) = bytes(2);
        let ten = small.constant(10);
        let t = small.bin(Op::Mul, w[0], ten);
        let sum = small.bin(Op::Add, t, w[1]);
        let c = small.constant(123);
        let mut small_cs = ConstraintSet::new();
        small_cs.push(lit(small.bin(Op::Eq, sum, c), true));
        let small_seed = vec![0, 0];

        let jobs = [
            (&big, &big_cs, &big_seed),
            (&small, &small_cs, &small_seed),
            (&big, &big_cs, &big_seed),
        ];
        let run = |(a, cs, seed): (&ExprArena, &ConstraintSet, &Vec<i64>)| {
            solve_with_stats(a, cs, Some(seed), &SolveCfg::default())
        };
        let same_thread: Vec<_> = jobs.iter().map(|j| run(*j)).collect();
        let fresh_threads: Vec<_> = jobs
            .iter()
            .map(|j| std::thread::scope(|s| s.spawn(|| run(*j)).join().expect("solve thread")))
            .collect();
        assert_eq!(same_thread, fresh_threads);
        assert!(same_thread.iter().all(|(m, _)| m.is_some()));
        assert!(same_thread[0].1.iters > 1, "the large set needs a search");
    }

    #[test]
    fn solves_through_masks_and_xor() {
        let (mut a, v) = bytes(1);
        let k = a.constant(0x5a);
        let x = a.bin(Op::Xor, v[0], k);
        let c = a.constant(0x3c);
        let mut cs = ConstraintSet::new();
        cs.push(Lit {
            expr: a.bin(Op::Eq, x, c),
            positive: true,
        });
        let sol = assert_solves(&a, &cs, None);
        assert_eq!(sol[0] ^ 0x5a, 0x3c);
    }

    #[test]
    fn solves_wider_domains() {
        let mut a = ExprArena::new();
        let (_, n) = a.fresh_var(VarInfo::range(-1, 4096));
        let c = a.constant(1024);
        let mut cs = ConstraintSet::new();
        cs.push(Lit {
            expr: a.bin(Op::Gt, n, c),
            positive: true,
        });
        let sol = assert_solves(&a, &cs, None);
        assert!(sol[0] > 1024 && sol[0] <= 4096);
    }

    #[test]
    fn many_literals_converge() {
        // 32 byte equalities, worst case for pure random search.
        let (mut a, v) = bytes(32);
        let mut cs = ConstraintSet::new();
        for (i, vr) in v.iter().enumerate() {
            let c = a.constant((i as i64 * 7) % 256);
            cs.push(Lit {
                expr: a.bin(Op::Eq, *vr, c),
                positive: true,
            });
        }
        let sol = assert_solves(&a, &cs, None);
        for (i, val) in sol.iter().enumerate() {
            assert_eq!(*val, (i as i64 * 7) % 256);
        }
    }

    #[test]
    fn long_conjunction_with_seed_is_fast() {
        // The hot replay shape: a long satisfied prefix plus one negated
        // tail literal must be repaired in a handful of iterations.
        let (mut a, v) = bytes(512);
        let mut cs = ConstraintSet::new();
        let mut seed = Vec::new();
        for (i, vr) in v.iter().enumerate() {
            let byte = (i as i64 * 13) % 256;
            let c = a.constant(byte);
            cs.push(Lit {
                expr: a.bin(Op::Eq, *vr, c),
                positive: true,
            });
            seed.push(byte);
        }
        // Negate the final literal.
        let last = cs.lits.len() - 1;
        cs.lits[last] = cs.lits[last].negated();
        let (sol, stats) = solve_with_stats(&a, &cs, Some(&seed), &SolveCfg::default());
        let sol = sol.expect("solvable");
        assert!(cs.satisfied(&a, &sol));
        assert!(stats.iters <= 10, "took {} iters", stats.iters);
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut a, v) = bytes(4);
        let c = a.constant(100);
        let mut cs = ConstraintSet::new();
        cs.push(Lit {
            expr: a.bin(Op::Gt, v[2], c),
            positive: true,
        });
        let s1 = solve(&a, &cs, None, &SolveCfg::default());
        let s2 = solve(&a, &cs, None, &SolveCfg::default());
        assert_eq!(s1, s2);
    }

    #[test]
    fn xorshift_changes_and_ranges() {
        let mut r = XorShift::new(42);
        let a = r.next_u64();
        let b = r.next_u64();
        assert_ne!(a, b);
        for _ in 0..100 {
            let v = r.in_range(-5, 5);
            assert!((-5..=5).contains(&v));
        }
    }

    #[test]
    fn mix_seed_decorrelates_and_is_deterministic() {
        assert_eq!(mix_seed(7, 3), mix_seed(7, 3));
        assert_ne!(mix_seed(7, 3), mix_seed(7, 4));
        assert_ne!(mix_seed(7, 0), 7, "salt 0 still mixes");
    }

    #[test]
    fn range_constraint_solved_with_literals() {
        // The offset-generalization shape: a region bound on an address
        // expression plus a branch literal that contradicts the observed
        // pin but not the region.
        let (mut a, v) = bytes(1);
        let two = a.constant(2);
        let off = a.bin(Op::Add, v[0], two);
        let five = a.constant(5);
        let deep = a.bin(Op::Gt, v[0], five);
        let mut cs = ConstraintSet::new();
        cs.push_range(RangeConstraint::range(off, 0, 9, 3)); // observed x = 1
        cs.push(Lit {
            expr: deep,
            positive: true,
        });
        // Seed is the observed witness (x = 1), as engines pass it.
        let sol = solve(&a, &cs, Some(&[1]), &SolveCfg::default()).expect("solvable");
        assert!(cs.satisfied(&a, &sol));
        assert!(sol[0] > 5 && sol[0] + 2 <= 9);
    }

    #[test]
    fn refuted_range_set_reports_refuted() {
        let (a, v) = bytes(1);
        let mut cs = ConstraintSet::new();
        cs.push_range(RangeConstraint::range(v[0], 300, 400, 300)); // byte can't
        let (m, stats) = solve_with_stats(&a, &cs, None, &SolveCfg::default());
        assert!(m.is_none());
        assert!(stats.refuted, "interval refutation is a proof");
        assert_eq!(stats.iters, 0, "no search was spent");
    }

    #[test]
    fn propagation_refutes_lit_against_region() {
        // The literal demands x > 200 while the region bound keeps
        // x + 2 <= 100: only visible once domains are narrowed.
        let (mut a, v) = bytes(1);
        let two = a.constant(2);
        let off = a.bin(Op::Add, v[0], two);
        let c200 = a.constant(200);
        let deep = a.bin(Op::Gt, v[0], c200);
        let mut cs = ConstraintSet::new();
        cs.push_range(RangeConstraint::range(off, 0, 100, 50));
        cs.push(Lit {
            expr: deep,
            positive: true,
        });
        let (m, stats) = solve_with_stats(&a, &cs, None, &SolveCfg::default());
        assert!(m.is_none());
        assert!(stats.refuted, "propagation catches lit-vs-range conflicts");
        assert_eq!(stats.iters, 0);
    }
}
