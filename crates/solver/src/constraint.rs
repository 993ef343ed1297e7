//! Constraint sets: conjunctions of path-condition literals and
//! first-class range constraints.
//!
//! A concolic run produces one literal per symbolic branch executed: the
//! branch condition expression, asserted true or false according to the
//! direction taken. A *pending* constraint set (paper §3.1) is the prefix
//! of a run's constraints with the final literal negated — solving it
//! yields an input that drives execution down the other side of that
//! branch.
//!
//! Concretizing a symbolic address historically added an equality *pin*
//! (`expr == observed`) as a literal. Pins over-constrain: a forced replay
//! prefix that needs a *different* stream offset becomes unsatisfiable
//! even though any in-bounds offset would do. [`RangeConstraint`] is the
//! generalized form — `lo <= expr <= hi`, optionally with an alignment
//! requirement and always carrying the observed witness value so engines
//! can fall back to the hard pin when the bounded form defeats the
//! stochastic search.

use crate::arena::{ExprArena, ExprRef};
use crate::interval::{range, Interval};
use crate::op::Op;

/// One literal: an expression asserted truthy (`positive`) or falsy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lit {
    /// The condition expression.
    pub expr: ExprRef,
    /// `true` ⇒ assert `expr != 0`; `false` ⇒ assert `expr == 0`.
    pub positive: bool,
}

impl Lit {
    /// The same condition asserted the other way.
    pub fn negated(self) -> Lit {
        Lit {
            expr: self.expr,
            positive: !self.positive,
        }
    }

    /// Whether the literal holds under an assignment.
    pub fn holds(&self, arena: &ExprArena, assign: &[i64]) -> bool {
        (arena.eval(self.expr, assign) != 0) == self.positive
    }

    /// Whether the literal fails for every value in `r`, a sound range
    /// of its expression — the per-literal interval refutation.
    pub fn excluded_by(&self, r: Interval) -> bool {
        if self.positive {
            r.is_zero()
        } else {
            !r.contains(0)
        }
    }
}

/// A first-class interval constraint: `lo <= expr <= hi`, optionally with
/// an alignment requirement `(expr - phase) % align == 0`.
///
/// The constraint vocabulary, by constructor:
///
/// - [`RangeConstraint::pin`] — the classic equality pin (`expr == v`,
///   a point interval);
/// - [`RangeConstraint::range`] — a plain interval;
/// - [`RangeConstraint::aligned`] — an interval plus a stride/phase
///   alignment (element pointers into an array of stride > 1);
/// - [`RangeConstraint::in_region`] — in-bounds-of-region sugar:
///   `base <= expr <= base + len - 1`.
///
/// `observed` is the value the concretized expression actually took in
/// the producing run. It is both a search hint (the solver snaps toward
/// it) and the target of the pin fallback (see
/// [`ConstraintSet::pinned`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeConstraint {
    /// The constrained expression.
    pub expr: ExprRef,
    /// Smallest allowed value (inclusive).
    pub lo: i64,
    /// Largest allowed value (inclusive).
    pub hi: i64,
    /// Alignment step; `<= 1` means no alignment requirement.
    pub align: i64,
    /// Alignment phase: allowed values satisfy
    /// `(value - phase) % align == 0`.
    pub phase: i64,
    /// The witness value observed when the constraint was emitted.
    pub observed: i64,
}

impl RangeConstraint {
    /// A plain interval constraint `lo <= expr <= hi`.
    pub fn range(expr: ExprRef, lo: i64, hi: i64, observed: i64) -> Self {
        RangeConstraint {
            expr,
            lo,
            hi,
            align: 1,
            phase: 0,
            observed,
        }
    }

    /// An interval constraint with an alignment requirement.
    pub fn aligned(expr: ExprRef, lo: i64, hi: i64, align: i64, phase: i64, observed: i64) -> Self {
        RangeConstraint {
            expr,
            lo,
            hi,
            align: align.max(1),
            phase,
            observed,
        }
    }

    /// In-bounds-of-region sugar: `base <= expr < base + len`.
    pub fn in_region(expr: ExprRef, base: i64, len: i64, observed: i64) -> Self {
        Self::range(expr, base, base.saturating_add(len.max(1) - 1), observed)
    }

    /// The classic hard pin: a point interval at `v`.
    pub fn pin(expr: ExprRef, v: i64) -> Self {
        Self::range(expr, v, v, v)
    }

    /// True when the constraint admits exactly one value.
    pub fn is_pin(&self) -> bool {
        self.lo == self.hi
    }

    /// The constraint's interval (bounds only; alignment not encoded).
    pub fn interval(&self) -> Interval {
        Interval::new(self.lo, self.hi)
    }

    /// Whether a concrete value satisfies bounds and alignment.
    pub fn admits(&self, v: i64) -> bool {
        v >= self.lo
            && v <= self.hi
            && (self.align <= 1 || (v as i128 - self.phase as i128) % self.align as i128 == 0)
    }

    /// Whether the constraint holds under an assignment.
    pub fn holds(&self, arena: &ExprArena, assign: &[i64]) -> bool {
        self.admits(arena.eval(self.expr, assign))
    }

    /// Whether no value in `r`, a sound range of the expression, is
    /// admissible (bounds and alignment).
    pub fn excluded_by(&self, r: Interval) -> bool {
        match r.intersect(&self.interval()) {
            None => true,
            Some(meet) => meet.align_to(self.align, self.phase).is_none(),
        }
    }

    /// The admissible value nearest to `v` (ties toward the lower one);
    /// `None` when the constraint admits nothing.
    pub fn snap(&self, v: i64) -> Option<i64> {
        // `align_to` leaves the bounds on aligned points, so after
        // clamping, rounding down always stays in range.
        let legal = self.interval().align_to(self.align, self.phase)?;
        let clamped = v.clamp(legal.lo, legal.hi);
        if self.align <= 1 {
            return Some(clamped);
        }
        let rem = (clamped as i128 - self.phase as i128).rem_euclid(self.align as i128) as i64;
        if rem == 0 {
            return Some(clamped);
        }
        let down = clamped - rem;
        let up = down.saturating_add(self.align);
        if up <= legal.hi && (up - v) < (v - down) {
            Some(up)
        } else {
            Some(down)
        }
    }
}

/// A conjunction of literals and range constraints describing (part of)
/// a program path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConstraintSet {
    /// The literals, in the order the branches were executed.
    pub lits: Vec<Lit>,
    /// First-class range constraints (concretization bounds).
    pub ranges: Vec<RangeConstraint>,
}

impl ConstraintSet {
    /// An empty (trivially satisfiable) set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a literal.
    pub fn push(&mut self, lit: Lit) {
        self.lits.push(lit);
    }

    /// Appends a range constraint.
    pub fn push_range(&mut self, rc: RangeConstraint) {
        self.ranges.push(rc);
    }

    /// Number of literals (the scheduling depth; range constraints are
    /// concretization side-conditions, not branch decisions, and are
    /// counted by [`n_constraints`](Self::n_constraints)).
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Total constraints: literals plus range constraints.
    pub fn n_constraints(&self) -> usize {
        self.lits.len() + self.ranges.len()
    }

    /// True when the set carries range constraints (and therefore has a
    /// pinned fallback variant).
    pub fn has_ranges(&self) -> bool {
        !self.ranges.is_empty()
    }

    /// True if there are no literals and no range constraints.
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty() && self.ranges.is_empty()
    }

    /// The hard-pinned variant: every range constraint replaced by an
    /// equality literal on its observed witness value. This is the
    /// pre-generalization behavior, used as a fallback when the bounded
    /// form defeats the (incomplete) stochastic search. The pins go
    /// *before* the path literals: they are trivially invertible, and the
    /// solver's repair loop works items in order, so pins-first lets one
    /// inversion each re-establish the observed addresses before the
    /// search attacks the branch literals.
    pub fn pinned(&self, arena: &mut ExprArena) -> ConstraintSet {
        let mut lits = Vec::with_capacity(self.lits.len() + self.ranges.len());
        for rc in &self.ranges {
            let c = arena.constant(rc.observed);
            let eq = arena.bin(Op::Eq, rc.expr, c);
            lits.push(Lit {
                expr: eq,
                positive: true,
            });
        }
        lits.extend(self.lits.iter().copied());
        ConstraintSet {
            lits,
            ranges: Vec::new(),
        }
    }

    /// The set consisting of the first `n` literals plus the negation of
    /// literal `n` — the paper's pending-set construction. Range
    /// constraints are carried over unchanged (they are side-conditions
    /// of the whole prefix, not branch decisions).
    pub fn negate_at(&self, n: usize) -> ConstraintSet {
        let mut lits: Vec<Lit> = self.lits[..n].to_vec();
        lits.push(self.lits[n].negated());
        ConstraintSet {
            lits,
            ranges: self.ranges.clone(),
        }
    }

    /// Whether all literals and range constraints hold under an
    /// assignment.
    pub fn satisfied(&self, arena: &ExprArena, assign: &[i64]) -> bool {
        self.lits.iter().all(|l| l.holds(arena, assign))
            && self.ranges.iter().all(|r| r.holds(arena, assign))
    }

    /// Number of satisfied literals (search objective).
    pub fn n_satisfied(&self, arena: &ExprArena, assign: &[i64]) -> usize {
        self.lits.iter().filter(|l| l.holds(arena, assign)).count()
    }

    /// Index of the first unsatisfied literal, if any.
    pub fn first_unsat(&self, arena: &ExprArena, assign: &[i64]) -> Option<usize> {
        self.lits.iter().position(|l| !l.holds(arena, assign))
    }

    /// Cheap refutation by interval analysis: returns `true` only when
    /// some literal or range constraint can *never* hold given the
    /// variable domains.
    pub fn obviously_unsat(&self, arena: &ExprArena) -> bool {
        self.obviously_unsat_cached(arena, 0, None)
    }

    /// [`obviously_unsat`](Self::obviously_unsat) with prefix-cache
    /// support: the first `skip_lits` literals are a registered
    /// satisfied prefix — each held under some executed run's concrete
    /// assignment, so its per-literal check is provably false and is
    /// skipped outright. Remaining literals and every range constraint
    /// read their forward interval from the cache when banked (the
    /// interval is a pure function of immutable node content, so the
    /// memoized value is the computed one). Verdict-identical to the
    /// plain form by construction.
    pub fn obviously_unsat_cached(
        &self,
        arena: &ExprArena,
        skip_lits: usize,
        cache: Option<&crate::cache::PrefixCache>,
    ) -> bool {
        let range_of = |e: ExprRef| -> Interval {
            cache
                .and_then(|c| c.range_of(e))
                .unwrap_or_else(|| range(arena, e))
        };
        self.lits
            .iter()
            .skip(skip_lits)
            .any(|l| l.excluded_by(range_of(l.expr)))
            || self
                .ranges
                .iter()
                .any(|rc| rc.excluded_by(range_of(rc.expr)))
    }

    /// Renders the conjunction for diagnostics.
    pub fn display(&self, arena: &ExprArena) -> String {
        let mut parts: Vec<String> = self
            .lits
            .iter()
            .map(|l| {
                if l.positive {
                    arena.display(l.expr)
                } else {
                    format!("!{}", arena.display(l.expr))
                }
            })
            .collect();
        for rc in &self.ranges {
            let e = arena.display(rc.expr);
            let mut s = format!("{} <= {e} <= {}", rc.lo, rc.hi);
            if rc.align > 1 {
                s.push_str(&format!(
                    " (mod {} = {})",
                    rc.align,
                    rc.phase.rem_euclid(rc.align)
                ));
            }
            parts.push(s);
        }
        parts.join(" && ")
    }
}

/// Range of a literal's expression (re-exported convenience).
pub fn lit_range(arena: &ExprArena, lit: &Lit) -> Interval {
    range(arena, lit.expr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::VarInfo;
    use crate::op::Op;

    fn setup() -> (ExprArena, ExprRef, ExprRef) {
        let mut a = ExprArena::new();
        let (_, x) = a.fresh_var(VarInfo::byte());
        let (_, y) = a.fresh_var(VarInfo::byte());
        (a, x, y)
    }

    #[test]
    fn negate_at_builds_pending_set() {
        let (mut a, x, y) = setup();
        let c65 = a.constant(65);
        let c66 = a.constant(66);
        let l1 = Lit {
            expr: a.bin(Op::Eq, x, c65),
            positive: true,
        };
        let l2 = Lit {
            expr: a.bin(Op::Eq, y, c66),
            positive: true,
        };
        let mut cs = ConstraintSet::new();
        cs.push(l1);
        cs.push(l2);
        let pending = cs.negate_at(1);
        assert_eq!(pending.lits.len(), 2);
        assert_eq!(pending.lits[0], l1);
        assert_eq!(pending.lits[1], l2.negated());
    }

    #[test]
    fn satisfaction_counting() {
        let (mut a, x, y) = setup();
        let c1 = a.constant(10);
        let c2 = a.constant(20);
        let mut cs = ConstraintSet::new();
        cs.push(Lit {
            expr: a.bin(Op::Eq, x, c1),
            positive: true,
        });
        cs.push(Lit {
            expr: a.bin(Op::Eq, y, c2),
            positive: true,
        });
        assert!(cs.satisfied(&a, &[10, 20]));
        assert_eq!(cs.n_satisfied(&a, &[10, 99]), 1);
        assert_eq!(cs.first_unsat(&a, &[10, 99]), Some(1));
        assert_eq!(cs.first_unsat(&a, &[10, 20]), None);
    }

    #[test]
    fn obvious_unsat_detected() {
        let (mut a, x, _) = setup();
        let big = a.constant(10_000);
        let mut cs = ConstraintSet::new();
        cs.push(Lit {
            expr: a.bin(Op::Gt, x, big), // byte > 10000
            positive: true,
        });
        assert!(cs.obviously_unsat(&a));
    }

    #[test]
    fn negative_literal_semantics() {
        let (mut a, x, _) = setup();
        let c = a.constant(65);
        let lit = Lit {
            expr: a.bin(Op::Eq, x, c),
            positive: false,
        };
        assert!(lit.holds(&a, &[66]));
        assert!(!lit.holds(&a, &[65]));
    }

    #[test]
    fn display_is_readable() {
        let (mut a, x, _) = setup();
        let c = a.constant(65);
        let mut cs = ConstraintSet::new();
        cs.push(Lit {
            expr: a.bin(Op::Eq, x, c),
            positive: false,
        });
        assert_eq!(cs.display(&a), "!(in0 == 65)");
    }
}
