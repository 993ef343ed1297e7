//! Interval analysis over expression DAGs.
//!
//! Computes a conservative `[lo, hi]` range for an expression given the
//! variable domains. Used to prune obviously-unsatisfiable pending
//! constraint sets before spending search budget on them (the replay
//! engine keeps a list of pending sets; cheap refutation matters).
//!
//! Besides the forward direction ([`range`]), this module implements
//! **backward interval propagation** ([`propagate`]): given the
//! first-class [`RangeConstraint`](crate::constraint::RangeConstraint)s of
//! a set, per-variable domains are narrowed by pushing each constraint's
//! target interval down the expression spine (inverting `+`, `-`, unary
//! negation and multiplication by a constant). An empty intersection
//! anywhere proves the set unsatisfiable without any search — this is what
//! keeps the region-bounds constraints from blowing up the stochastic
//! solver.

use crate::arena::{ExprArena, ExprRef, Node, VarInfo};
use crate::constraint::ConstraintSet;
use crate::fasthash::FastMap;
use crate::op::{Op, UnOp};

/// An inclusive integer interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: i64,
    /// Upper bound (inclusive).
    pub hi: i64,
}

impl Interval {
    /// The full 64-bit range (used when precision is lost).
    pub const FULL: Interval = Interval {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// A single point.
    pub fn point(v: i64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// Creates an interval, normalizing an inverted pair.
    pub fn new(lo: i64, hi: i64) -> Self {
        if lo <= hi {
            Interval { lo, hi }
        } else {
            Interval { lo: hi, hi: lo }
        }
    }

    /// True if `v` lies in the interval.
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// True if the interval is exactly `{0}`.
    pub fn is_zero(&self) -> bool {
        self.lo == 0 && self.hi == 0
    }

    fn from_i128(lo: i128, hi: i128) -> Self {
        let clamp = |v: i128| v.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
        // If the true range exceeds i64, wrapping may occur: give up.
        if lo < i64::MIN as i128 || hi > i64::MAX as i128 {
            Interval::FULL
        } else {
            Interval::new(clamp(lo), clamp(hi))
        }
    }

    /// Intersection of two intervals; `None` when they are disjoint (the
    /// empty interval is unrepresentable by design — emptiness is the
    /// UNSAT signal and must not be silently carried around).
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }
}

/// Computes a conservative range for `root` under the arena's variable
/// domains.
pub fn range(arena: &ExprArena, root: ExprRef) -> Interval {
    range_memo(arena, root, None, &mut FastMap::default())
}

/// Like [`range`], but with the variable domains overridden by `domains`
/// (indexed by `VarId`; variables beyond its length fall back to the
/// arena's declared domains). Used by [`propagate`] so each narrowing pass
/// sees the domains the previous pass produced.
pub fn range_in(arena: &ExprArena, root: ExprRef, domains: &[VarInfo]) -> Interval {
    range_memo(arena, root, Some(domains), &mut FastMap::default())
}

fn range_memo(
    arena: &ExprArena,
    r: ExprRef,
    domains: Option<&[VarInfo]>,
    memo: &mut FastMap<ExprRef, Interval>,
) -> Interval {
    if let Some(i) = memo.get(&r) {
        return *i;
    }
    let out = match arena.node(r) {
        Node::Const(v) => Interval::point(v),
        Node::Var(v) => {
            let info = domains
                .and_then(|d| d.get(v.0 as usize).copied())
                .unwrap_or_else(|| arena.var_info(v));
            Interval::new(info.lo, info.hi)
        }
        Node::Un(op, a) => {
            let ia = range_memo(arena, a, domains, memo);
            match op {
                UnOp::Neg => Interval::from_i128(-(ia.hi as i128), -(ia.lo as i128)),
                UnOp::Not => {
                    if !ia.contains(0) {
                        Interval::point(0)
                    } else if ia.is_zero() {
                        Interval::point(1)
                    } else {
                        Interval::new(0, 1)
                    }
                }
                UnOp::BitNot => Interval::from_i128(!(ia.hi as i128), !(ia.lo as i128)),
            }
        }
        Node::Bin(op, a, b) => {
            let ia = range_memo(arena, a, domains, memo);
            let ib = range_memo(arena, b, domains, memo);
            bin_range(op, ia, ib)
        }
    };
    memo.insert(r, out);
    out
}

fn bin_range(op: Op, a: Interval, b: Interval) -> Interval {
    let corners = |f: fn(i128, i128) -> i128| {
        let vals = [
            f(a.lo as i128, b.lo as i128),
            f(a.lo as i128, b.hi as i128),
            f(a.hi as i128, b.lo as i128),
            f(a.hi as i128, b.hi as i128),
        ];
        let lo = *vals.iter().min().expect("non-empty");
        let hi = *vals.iter().max().expect("non-empty");
        Interval::from_i128(lo, hi)
    };
    match op {
        Op::Add => Interval::from_i128(a.lo as i128 + b.lo as i128, a.hi as i128 + b.hi as i128),
        Op::Sub => Interval::from_i128(a.lo as i128 - b.hi as i128, a.hi as i128 - b.lo as i128),
        Op::Mul => corners(|x, y| x * y),
        Op::Div => {
            if b.contains(0) {
                // Total semantics make x/0 == 0; the result range must
                // include 0 and the corner quotients with b = ±1.
                Interval::FULL
            } else {
                corners(|x, y| x / y)
            }
        }
        Op::Rem => {
            if b.lo > 0 {
                Interval::new(-(b.hi - 1).max(0), b.hi - 1)
            } else {
                Interval::FULL
            }
        }
        Op::And => {
            if a.lo >= 0 && b.lo >= 0 {
                Interval::new(0, a.hi.min(b.hi))
            } else {
                Interval::FULL
            }
        }
        Op::Or | Op::Xor => {
            if a.lo >= 0 && b.lo >= 0 {
                let bits = 64 - (a.hi | b.hi).leading_zeros().min(63);
                let max = if bits >= 63 {
                    i64::MAX
                } else {
                    (1i64 << bits) - 1
                };
                Interval::new(0, max)
            } else {
                Interval::FULL
            }
        }
        Op::Shl | Op::Shr => Interval::FULL,
        Op::Eq => {
            let disjoint = a.hi < b.lo || b.hi < a.lo;
            let both_points_equal = a.lo == a.hi && b.lo == b.hi && a.lo == b.lo;
            cmp_range(both_points_equal, disjoint)
        }
        Op::Ne => {
            let disjoint = a.hi < b.lo || b.hi < a.lo;
            let both_points_equal = a.lo == a.hi && b.lo == b.hi && a.lo == b.lo;
            cmp_range(disjoint, both_points_equal)
        }
        Op::Lt => cmp_range(a.hi < b.lo, a.lo >= b.hi),
        Op::Le => cmp_range(a.hi <= b.lo, a.lo > b.hi),
        Op::Gt => cmp_range(a.lo > b.hi, a.hi <= b.lo),
        Op::Ge => cmp_range(a.lo >= b.hi, a.hi < b.lo),
    }
}

/// Range of a comparison: `{1}` if always true, `{0}` if never true,
/// `[0,1]` otherwise.
fn cmp_range(always: bool, never: bool) -> Interval {
    if always {
        Interval::point(1)
    } else if never {
        Interval::point(0)
    } else {
        Interval::new(0, 1)
    }
}

/// Narrows the per-variable domains of `arena` under the range
/// constraints of `cs` by backward interval propagation.
///
/// Returns the narrowed domains (indexed by `VarId`), or `None` when some
/// constraint's target interval is provably empty — an UNSAT proof that
/// costs O(constraints × expression size) instead of a search.
///
/// Two passes are run so information can flow between constraints sharing
/// variables (constraint A narrowing `x` tightens the forward interval B
/// sees).
pub fn propagate(arena: &ExprArena, cs: &ConstraintSet) -> Option<Vec<VarInfo>> {
    let mut dom: Vec<VarInfo> = arena.var_infos().to_vec();
    if cs.ranges.is_empty() {
        return Some(dom);
    }
    for _pass in 0..2 {
        for rc in &cs.ranges {
            let fwd = range_in(arena, rc.expr, &dom);
            let want = fwd.intersect(&rc.interval())?;
            narrow(arena, rc.expr, want, &mut dom)?;
        }
    }
    Some(dom)
}

/// Pushes `want` (the interval the expression must land in) down the
/// expression, narrowing variable domains. Returns `None` on an empty
/// intersection. Conservative: spines it cannot invert narrow nothing.
fn narrow(arena: &ExprArena, r: ExprRef, want: Interval, dom: &mut [VarInfo]) -> Option<()> {
    match arena.node(r) {
        Node::Const(v) => want.contains(v).then_some(()),
        Node::Var(v) => {
            let i = v.0 as usize;
            let cur = Interval::new(dom[i].lo, dom[i].hi);
            let n = cur.intersect(&want)?;
            dom[i] = VarInfo::range(n.lo, n.hi);
            Some(())
        }
        Node::Un(UnOp::Neg, a) => {
            let flipped = Interval::from_i128(-(want.hi as i128), -(want.lo as i128));
            narrow(arena, a, flipped, dom)
        }
        Node::Bin(Op::Add, a, b) => {
            // a ∈ want − I(b), b ∈ want − I(a).
            let ib = range_in(arena, b, dom);
            let wa = Interval::from_i128(
                want.lo as i128 - ib.hi as i128,
                want.hi as i128 - ib.lo as i128,
            );
            narrow(arena, a, wa, dom)?;
            let ia = range_in(arena, a, dom);
            let wb = Interval::from_i128(
                want.lo as i128 - ia.hi as i128,
                want.hi as i128 - ia.lo as i128,
            );
            narrow(arena, b, wb, dom)
        }
        Node::Bin(Op::Sub, a, b) => {
            // a ∈ want + I(b), b ∈ I(a) − want.
            let ib = range_in(arena, b, dom);
            let wa = Interval::from_i128(
                want.lo as i128 + ib.lo as i128,
                want.hi as i128 + ib.hi as i128,
            );
            narrow(arena, a, wa, dom)?;
            let ia = range_in(arena, a, dom);
            let wb = Interval::from_i128(
                ia.lo as i128 - want.hi as i128,
                ia.hi as i128 - want.lo as i128,
            );
            narrow(arena, b, wb, dom)
        }
        Node::Bin(Op::Mul, a, b) => {
            // Invertible only against a nonzero constant factor.
            let (sym, c) = match (arena.node(a), arena.node(b)) {
                (_, Node::Const(c)) if c != 0 => (a, c),
                (Node::Const(c), _) if c != 0 => (b, c),
                _ => return Some(()),
            };
            // sym ∈ [ceil(lo/c), floor(hi/c)] (for c > 0; flipped else).
            let (lo, hi) = if c > 0 {
                (div_ceil(want.lo, c), div_floor(want.hi, c))
            } else {
                (div_ceil(want.hi, c), div_floor(want.lo, c))
            };
            if lo > hi {
                return None;
            }
            narrow(arena, sym, Interval { lo, hi }, dom)
        }
        // Anything else (masks, shifts, comparisons, two-sided products):
        // no narrowing, but no false refutation either.
        _ => Some(()),
    }
}

/// Floor division on signed integers (rounds toward negative infinity).
/// Shared with the concolic hosts' region-bound arithmetic.
pub fn div_floor(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Ceiling division on signed integers (rounds toward positive
/// infinity). Shared with the concolic hosts' region-bound arithmetic.
pub fn div_ceil(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::VarInfo;

    #[test]
    fn byte_arithmetic_ranges() {
        let mut a = ExprArena::new();
        let (_, x) = a.fresh_var(VarInfo::byte());
        let ten = a.constant(10);
        let e = a.bin(Op::Add, x, ten);
        assert_eq!(range(&a, e), Interval::new(10, 265));
    }

    #[test]
    fn comparison_definitely_false() {
        let mut a = ExprArena::new();
        let (_, x) = a.fresh_var(VarInfo::byte());
        let big = a.constant(1000);
        let e = a.bin(Op::Gt, x, big); // byte > 1000 : impossible
        assert!(range(&a, e).is_zero());
    }

    #[test]
    fn comparison_possible() {
        let mut a = ExprArena::new();
        let (_, x) = a.fresh_var(VarInfo::byte());
        let c = a.constant(65);
        let e = a.bin(Op::Eq, x, c);
        assert_eq!(range(&a, e), Interval::new(0, 1));
    }

    #[test]
    fn eq_of_disjoint_ranges_is_false() {
        let mut a = ExprArena::new();
        let (_, x) = a.fresh_var(VarInfo::range(0, 10));
        let c = a.constant(50);
        let e = a.bin(Op::Eq, x, c);
        assert!(range(&a, e).is_zero());
    }

    #[test]
    fn mask_is_byte_range() {
        let mut a = ExprArena::new();
        let (_, x) = a.fresh_var(VarInfo::range(-1000, 1000));
        let e = a.mask_char(x);
        let r = range(&a, e);
        // A possibly-negative operand makes the AND conservative (FULL);
        // a provably non-negative one must stay within the mask.
        assert!(r == Interval::FULL || (r.lo >= 0 && r.hi <= 255));
        let (_, y) = a.fresh_var(VarInfo::range(0, 1000));
        let masked = a.mask_char(y);
        let ry = range(&a, masked);
        assert!(
            ry.lo >= 0 && ry.hi <= 255,
            "non-negative mask is tight: {ry:?}"
        );
    }

    #[test]
    fn negation_flips() {
        let mut a = ExprArena::new();
        let (_, x) = a.fresh_var(VarInfo::range(3, 7));
        let e = a.un(UnOp::Neg, x);
        assert_eq!(range(&a, e), Interval::new(-7, -3));
    }

    #[test]
    fn not_of_nonzero_is_zero() {
        let mut a = ExprArena::new();
        let (_, x) = a.fresh_var(VarInfo::range(5, 9));
        let e = a.un(UnOp::Not, x);
        assert_eq!(range(&a, e), Interval::point(0));
    }

    #[test]
    fn multiplication_corners() {
        let mut a = ExprArena::new();
        let (_, x) = a.fresh_var(VarInfo::range(-3, 4));
        let c = a.constant(-2);
        let e = a.bin(Op::Mul, x, c);
        assert_eq!(range(&a, e), Interval::new(-8, 6));
    }

    #[test]
    fn intersect_detects_empty() {
        let a = Interval::new(0, 10);
        let b = Interval::new(11, 20);
        assert_eq!(a.intersect(&b), None, "disjoint intervals have no meet");
        assert_eq!(
            a.intersect(&Interval::new(5, 20)),
            Some(Interval::new(5, 10))
        );
        assert_eq!(a.intersect(&Interval::point(10)), Some(Interval::point(10)));
    }
}

#[cfg(test)]
mod propagate_tests {
    use super::*;
    use crate::arena::VarInfo;
    use crate::constraint::{ConstraintSet, RangeConstraint};

    #[test]
    fn var_domain_narrows_through_add_and_mul() {
        let mut a = ExprArena::new();
        let (_, x) = a.fresh_var(VarInfo::byte());
        let four = a.constant(4);
        let seven = a.constant(7);
        let scaled = a.bin(Op::Mul, x, four);
        let off = a.bin(Op::Add, scaled, seven); // x*4 + 7
        let mut cs = ConstraintSet::new();
        // 27 <= x*4 + 7 <= 48  ⇒  5 <= x <= 10 (ceil(20/4), floor(41/4)).
        cs.push_range(RangeConstraint::range(off, 27, 48, 31));
        let dom = propagate(&a, &cs).expect("satisfiable");
        assert_eq!((dom[0].lo, dom[0].hi), (5, 10));
    }

    #[test]
    fn empty_interval_is_detected() {
        let mut a = ExprArena::new();
        let (_, x) = a.fresh_var(VarInfo::byte());
        let ten = a.constant(10);
        let sum = a.bin(Op::Add, x, ten); // x + 10 ∈ [10, 265]
        let mut cs = ConstraintSet::new();
        cs.push_range(RangeConstraint::range(sum, 300, 400, 300));
        assert_eq!(propagate(&a, &cs), None, "disjoint bounds refute");
    }

    #[test]
    fn contradicting_ranges_refute_each_other() {
        let mut a = ExprArena::new();
        let (_, x) = a.fresh_var(VarInfo::byte());
        let mut cs = ConstraintSet::new();
        cs.push_range(RangeConstraint::range(x, 0, 10, 5));
        cs.push_range(RangeConstraint::range(x, 20, 30, 25));
        assert_eq!(propagate(&a, &cs), None);
    }

    #[test]
    fn second_pass_flows_between_constraints() {
        // Constraint on x narrows what x + y can reach; the second pass
        // then narrows y further than one pass could.
        let mut a = ExprArena::new();
        let (_, x) = a.fresh_var(VarInfo::byte());
        let (_, y) = a.fresh_var(VarInfo::byte());
        let sum = a.bin(Op::Add, x, y);
        let mut cs = ConstraintSet::new();
        cs.push_range(RangeConstraint::range(sum, 0, 20, 10));
        cs.push_range(RangeConstraint::range(x, 15, 200, 15));
        let dom = propagate(&a, &cs).expect("satisfiable");
        assert!(dom[0].lo >= 15 && dom[0].hi <= 20, "x: {:?}", dom[0]);
        assert!(
            dom[1].hi <= 5,
            "y must fit under the sum bound: {:?}",
            dom[1]
        );
    }

    #[test]
    fn negation_spine_inverts() {
        let mut a = ExprArena::new();
        let (_, x) = a.fresh_var(VarInfo::range(-100, 100));
        let neg = a.un(crate::op::UnOp::Neg, x);
        let mut cs = ConstraintSet::new();
        cs.push_range(RangeConstraint::range(neg, 10, 20, 15));
        let dom = propagate(&a, &cs).expect("satisfiable");
        assert_eq!((dom[0].lo, dom[0].hi), (-20, -10));
    }

    #[test]
    fn uninvertible_spines_do_not_false_refute() {
        let mut a = ExprArena::new();
        let (_, x) = a.fresh_var(VarInfo::range(-1000, 1000));
        let masked = a.mask_char(x); // x & 0xff: not invertible
        let mut cs = ConstraintSet::new();
        cs.push_range(RangeConstraint::range(masked, 0, 200, 100));
        assert!(propagate(&a, &cs).is_some(), "conservative, not wrong");
    }
}
