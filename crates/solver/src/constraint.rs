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
//! generalized form — `lo <= expr <= hi`, carrying the observed witness
//! value as a search hint. A path step asserts one [`Constraint`]:
//! a literal or a range.

use crate::arena::{ExprArena, ExprRef};
use crate::interval::{range, Interval};

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

/// A first-class interval constraint: `lo <= expr <= hi`.
///
/// `observed` is the value the concretized expression actually took in
/// the producing run: a search hint (the solver snaps toward it), not
/// part of the constraint's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeConstraint {
    /// The constrained expression.
    pub expr: ExprRef,
    /// Smallest allowed value (inclusive).
    pub lo: i64,
    /// Largest allowed value (inclusive).
    pub hi: i64,
    /// The witness value observed when the constraint was emitted.
    pub observed: i64,
}

impl RangeConstraint {
    /// The interval constraint `lo <= expr <= hi`.
    pub fn range(expr: ExprRef, lo: i64, hi: i64, observed: i64) -> Self {
        RangeConstraint {
            expr,
            lo,
            hi,
            observed,
        }
    }

    /// The constraint's interval.
    pub fn interval(&self) -> Interval {
        Interval::new(self.lo, self.hi)
    }

    /// Whether a concrete value lies within the bounds.
    pub fn admits(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether the constraint holds under an assignment.
    pub fn holds(&self, arena: &ExprArena, assign: &[i64]) -> bool {
        self.admits(arena.eval(self.expr, assign))
    }

    /// Whether no value in `r`, a sound range of the expression, is
    /// admissible.
    pub fn excluded_by(&self, r: Interval) -> bool {
        r.intersect(&self.interval()).is_none()
    }

    /// The value of the constraint's interval nearest to `v`.
    pub fn snap(&self, v: i64) -> i64 {
        let i = self.interval();
        v.clamp(i.lo, i.hi)
    }
}

/// One constraint of a path: a literal or a range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Constraint {
    /// A branch condition or an equality pin.
    Lit(Lit),
    /// A concretization range.
    Range(RangeConstraint),
}

impl Constraint {
    /// The constrained expression.
    pub fn expr(&self) -> ExprRef {
        match self {
            Constraint::Lit(l) => l.expr,
            Constraint::Range(rc) => rc.expr,
        }
    }

    /// The same constraint over another expression.
    pub fn with_expr(self, expr: ExprRef) -> Constraint {
        match self {
            Constraint::Lit(l) => Constraint::Lit(Lit { expr, ..l }),
            Constraint::Range(rc) => Constraint::Range(RangeConstraint { expr, ..rc }),
        }
    }

    /// Whether the constraint fails for every value in `r`, a sound
    /// range of its expression.
    pub fn excluded_by(&self, r: Interval) -> bool {
        match self {
            Constraint::Lit(l) => l.excluded_by(r),
            Constraint::Range(rc) => rc.excluded_by(r),
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
    /// concretization side-conditions, not branch decisions).
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// True when the set carries range constraints.
    pub fn has_ranges(&self) -> bool {
        !self.ranges.is_empty()
    }

    /// True if there are no literals and no range constraints.
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty() && self.ranges.is_empty()
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
            parts.push(format!(
                "{} <= {} <= {}",
                rc.lo,
                arena.display(rc.expr),
                rc.hi
            ));
        }
        parts.join(" && ")
    }
}

/// Appends path steps' constraints: literals and ranges, each to its
/// own list, in order.
impl Extend<Constraint> for ConstraintSet {
    fn extend<I: IntoIterator<Item = Constraint>>(&mut self, steps: I) {
        for c in steps {
            match c {
                Constraint::Lit(l) => self.push(l),
                Constraint::Range(rc) => self.push_range(rc),
            }
        }
    }
}

impl FromIterator<Constraint> for ConstraintSet {
    fn from_iter<I: IntoIterator<Item = Constraint>>(steps: I) -> Self {
        let mut cs = ConstraintSet::new();
        cs.extend(steps);
        cs
    }
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
