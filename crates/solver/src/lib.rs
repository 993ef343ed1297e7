//! `solver` — symbolic expressions and a finite-domain constraint solver.
//!
//! The reproduction's stand-in for the STP-class solver behind the paper's
//! concolic engine. Program inputs are bounded integer variables (bytes of
//! argv/socket data, modelled syscall returns); path conditions are
//! conjunctions over a hash-consed expression DAG ([`ExprArena`]).
//! [`solve()`](solve()) finds satisfying assignments using interval
//! refutation, backward interval propagation, algebraic inversion, and
//! guided stochastic search — exactly the workload shapes the benchmarks
//! generate (§5 of the paper).
//!
//! # The constraint vocabulary
//!
//! A [`ConstraintSet`] is a conjunction of two constraint forms:
//!
//! | form | meaning | produced by |
//! |------|---------|-------------|
//! | [`Lit`] | `expr != 0` (or `== 0` when negated) | every symbolic branch; an address pin |
//! | [`RangeConstraint`] | `lo <= expr <= hi` | address concretization in a known region |
//!
//! A concretized address takes one of two shapes: a
//! **region range** ([`RangeConstraint::range`]), the bounds that keep
//! the access inside its object, or — when no region is known — the
//! classic CUTE-style **equality pin**, the literal `expr == observed`.
//! A range carries the *observed* witness value from the producing run
//! as a search hint. A path step holds exactly one [`Constraint`]: a
//! literal or a range.
//!
//! # Branch literals
//!
//! ```
//! use solver::{ExprArena, VarInfo, ConstraintSet, Lit, Op, solve, SolveCfg};
//!
//! let mut arena = ExprArena::new();
//! let (_, x) = arena.fresh_var(VarInfo::byte());
//! let g = arena.constant(b'G' as i64);
//! let cond = arena.bin(Op::Eq, x, g);
//! let mut cs = ConstraintSet::new();
//! cs.push(Lit { expr: cond, positive: true });
//! let model = solve(&arena, &cs, None, &SolveCfg::default()).unwrap();
//! assert_eq!(model[0], b'G' as i64);
//! ```
//!
//! # Range constraints and interval propagation
//!
//! A region bound leaves the solver freedom an equality pin would
//! destroy: below, the offset `x + 2` must stay inside a 10-cell buffer
//! *and* the branch literal demands `x > 5` — satisfiable together,
//! while the pin `x + 2 == 3` (the observed offset) would be UNSAT.
//!
//! ```
//! use solver::{
//!     ExprArena, VarInfo, ConstraintSet, Lit, Op, RangeConstraint, solve, SolveCfg,
//! };
//!
//! let mut arena = ExprArena::new();
//! let (_, x) = arena.fresh_var(VarInfo::byte());
//! let two = arena.constant(2);
//! let off = arena.bin(Op::Add, x, two);      // the address offset
//! let five = arena.constant(5);
//! let deep = arena.bin(Op::Gt, x, five);     // a later forced branch
//!
//! let mut cs = ConstraintSet::new();
//! cs.push_range(RangeConstraint::range(off, 0, 9, 3)); // 0 <= x+2 <= 9
//! cs.push(Lit { expr: deep, positive: true });          // x > 5
//! let model = solve(&arena, &cs, None, &SolveCfg::default()).unwrap();
//! assert!(model[0] > 5 && model[0] + 2 <= 9);
//!
//! // Pinning the observed offset instead is provably unsatisfiable.
//! let three = arena.constant(3);
//! let pin = arena.bin(Op::Eq, off, three);   // x + 2 == 3
//! let mut pinned = ConstraintSet::new();
//! pinned.push(Lit { expr: pin, positive: true });
//! pinned.push(Lit { expr: deep, positive: true });
//! assert!(solve(&arena, &pinned, None, &SolveCfg::default()).is_none());
//! ```
//!
//! Backward propagation ([`propagate`]) narrows
//! variable domains under the range constraints before any search, and
//! proves emptiness (UNSAT) outright when the bounds cannot be met:
//!
//! ```
//! use solver::{ExprArena, VarInfo, ConstraintSet, RangeConstraint, interval::propagate};
//!
//! let mut arena = ExprArena::new();
//! let (_, x) = arena.fresh_var(VarInfo::byte());
//! let hundred = arena.constant(100);
//! let sum = arena.bin(solver::Op::Add, x, hundred);
//!
//! // 120 <= x + 100 <= 140 narrows x to [20, 40].
//! let mut cs = ConstraintSet::new();
//! cs.push_range(RangeConstraint::range(sum, 120, 140, 130));
//! let domains = propagate(&arena, &cs).expect("satisfiable");
//! assert_eq!((domains[0].lo, domains[0].hi), (20, 40));
//!
//! // Bounds the expression can never reach are refuted without search:
//! // x + 100 <= 355, so 400 <= x + 100 admits nothing.
//! let mut empty = ConstraintSet::new();
//! empty.push_range(RangeConstraint::range(sum, 400, 500, 400));
//! assert!(propagate(&arena, &empty).is_none());
//! ```

pub mod arena;
pub mod cache;
pub mod constraint;
pub mod fasthash;
pub mod interval;
pub mod op;
pub mod solve;

pub use arena::{ArenaSnapshot, ExprArena, ExprRef, Node, VarId, VarInfo};
pub use cache::{Fnv128, PrefixCache, FNV128_OFFSET, FNV128_PRIME};
pub use constraint::{Constraint, ConstraintSet, Lit, RangeConstraint};
pub use fasthash::{FastHasher, FastMap, FastSet, FastState};
pub use interval::{div_ceil, div_floor, propagate, range, range_in, Interval};
pub use op::{eval_op, eval_unop, Op, UnOp};
pub use solve::{
    mix_seed, solve, solve_with_stats, solve_with_stats_cached, SolveCfg, SolveStats, XorShift,
    GOLDEN_RATIO,
};

/// The parallel replay workers share one read-only [`ExprArena`] and
/// move [`ConstraintSet`]s across thread boundaries; both are plain
/// owned data (no `Rc`, no interior mutability), and this keeps it that
/// way at compile time. The COW arena's frozen prefix and the prefix
/// cache join the boundary: a snapshot is shared across worker threads
/// via `Arc`, and the cache is read by every worker during a solve
/// streak — `Sync` here is what lets them be shared without copies,
/// and the freeze/bank discipline (single writer, between streaks) is
/// what keeps the sharing race-free.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ExprArena>();
    assert_send_sync::<ArenaSnapshot>();
    assert_send_sync::<PrefixCache>();
    assert_send_sync::<ConstraintSet>();
    assert_send_sync::<SolveCfg>();
    assert_send_sync::<SolveStats>();
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Builds a random expression over byte variables from fuzz bytes.
    fn arb_expr(arena: &mut ExprArena, vars: &[ExprRef], rng_ops: &[u8], depth: usize) -> ExprRef {
        if rng_ops.is_empty() || depth > 4 {
            return vars[rng_ops.first().copied().unwrap_or(0) as usize % vars.len()];
        }
        let (op_byte, rest) = rng_ops.split_first().expect("checked non-empty");
        let half = rest.len() / 2;
        match op_byte % 6 {
            0 => {
                let c = arena.constant((*op_byte as i64) * 3 - 100);
                let a = arb_expr(arena, vars, &rest[..half], depth + 1);
                arena.bin(Op::Add, a, c)
            }
            1 => {
                let a = arb_expr(arena, vars, &rest[..half], depth + 1);
                let b = arb_expr(arena, vars, &rest[half..], depth + 1);
                arena.bin(Op::Sub, a, b)
            }
            2 => {
                let c = arena.constant((*op_byte % 7) as i64 + 1);
                let a = arb_expr(arena, vars, &rest[..half], depth + 1);
                arena.bin(Op::Mul, a, c)
            }
            3 => {
                let a = arb_expr(arena, vars, &rest[..half], depth + 1);
                arena.mask_char(a)
            }
            4 => {
                let c = arena.constant(*op_byte as i64);
                let a = arb_expr(arena, vars, &rest[..half], depth + 1);
                arena.bin(Op::Xor, a, c)
            }
            _ => {
                let a = arb_expr(arena, vars, &rest[..half], depth + 1);
                arena.un(UnOp::Neg, a)
            }
        }
    }

    const OPS: [Op; 16] = [
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Div,
        Op::Rem,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Shl,
        Op::Shr,
        Op::Eq,
        Op::Ne,
        Op::Lt,
        Op::Le,
        Op::Gt,
        Op::Ge,
    ];

    /// Grows an arena by one handle per fuzz step: a constant (mostly
    /// ones the simplifications match), a fresh variable, or a unary or
    /// binary operation over earlier handles.
    fn grow(arena: &mut ExprArena, pool: &mut Vec<ExprRef>, steps: &[(u8, u8, u8, i64)]) {
        for &(kind, x, y, c) in steps {
            let pick = |k: u8| pool[k as usize % pool.len()];
            let e = match kind % 8 {
                0 => arena.constant([0, 1, 255, -1, i64::MAX, i64::MIN, c][x as usize % 7]),
                1 => arena.fresh_var(VarInfo::range(-1, i64::from(x) * 16)).1,
                2 => {
                    let a = pick(x);
                    arena.un([UnOp::Neg, UnOp::Not, UnOp::BitNot][y as usize % 3], a)
                }
                3 => {
                    let a = pick(x);
                    arena.mask_char(a)
                }
                _ => {
                    let (a, b) = (pick(x), pick(y));
                    arena.bin(OPS[(kind >> 4) as usize], a, b)
                }
            };
            pool.push(e);
        }
    }

    fn assert_concrete_iff_no_support(arena: &ExprArena) {
        for i in 0..arena.len() {
            let e = ExprRef(i as u32);
            assert_eq!(
                arena.is_concrete(e),
                arena.support(e).is_empty(),
                "{}",
                arena.display(e)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Folding is total: every node the constructors intern is a
        /// constant exactly when its support is empty. Checked over
        /// every node of a random arena as built, and after substitution
        /// pins some variables.
        #[test]
        fn concreteness_is_an_empty_support(
            steps in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<i64>()), 1..64),
            pins in proptest::collection::vec((any::<u8>(), any::<i64>()), 1..4),
        ) {
            let mut arena = ExprArena::new();
            let mut pool: Vec<ExprRef> =
                (0..2).map(|_| arena.fresh_var(VarInfo::byte()).1).collect();
            grow(&mut arena, &mut pool, &steps);
            assert_concrete_iff_no_support(&arena);

            let n_vars = arena.n_vars() as u32;
            let map: FastMap<VarId, i64> =
                pins.iter().map(|&(v, c)| (VarId(u32::from(v) % n_vars), c)).collect();
            arena.substitute_many(&pool, &map);
            assert_concrete_iff_no_support(&arena);
        }

        /// Any model returned by the solver satisfies the constraints.
        #[test]
        fn solver_models_are_sound(
            ops in proptest::collection::vec(any::<u8>(), 1..24),
            targets in proptest::collection::vec(0i64..256, 1..4),
        ) {
            let mut arena = ExprArena::new();
            let vars: Vec<ExprRef> =
                (0..4).map(|_| arena.fresh_var(VarInfo::byte()).1).collect();
            let mut cs = ConstraintSet::new();
            for t in &targets {
                let e = arb_expr(&mut arena, &vars, &ops, 0);
                let c = arena.constant(*t);
                let cmp = arena.bin(Op::Eq, e, c);
                cs.push(Lit { expr: cmp, positive: true });
            }
            let cfg = SolveCfg { max_iters: 4000, ..SolveCfg::default() };
            if let Some(model) = solve(&arena, &cs, None, &cfg) {
                prop_assert!(cs.satisfied(&arena, &model));
                for (i, v) in model.iter().enumerate() {
                    let info = arena.var_info(VarId(i as u32));
                    prop_assert!(*v >= info.lo && *v <= info.hi);
                }
            }
        }

        /// Interval analysis always contains the concrete evaluation.
        #[test]
        fn interval_contains_eval(
            ops in proptest::collection::vec(any::<u8>(), 1..24),
            assign in proptest::collection::vec(0i64..256, 4),
        ) {
            let mut arena = ExprArena::new();
            let vars: Vec<ExprRef> =
                (0..4).map(|_| arena.fresh_var(VarInfo::byte()).1).collect();
            let e = arb_expr(&mut arena, &vars, &ops, 0);
            let r = range(&arena, e);
            let v = arena.eval(e, &assign);
            prop_assert!(r.contains(v), "range {:?} must contain eval {}", r, v);
        }

        /// Constant folding agrees with evaluation.
        #[test]
        fn folding_agrees_with_eval(a in any::<i64>(), b in any::<i64>()) {
            let mut arena = ExprArena::new();
            for op in [Op::Add, Op::Sub, Op::Mul, Op::Div, Op::Rem, Op::And,
                       Op::Or, Op::Xor, Op::Eq, Op::Ne, Op::Lt, Op::Le] {
                let ca = arena.constant(a);
                let cb = arena.constant(b);
                let e = arena.bin(op, ca, cb);
                prop_assert_eq!(arena.eval(e, &[]), eval_op(op, a, b));
            }
        }

        /// The stall proof is sound: whenever a set over two byte
        /// variables comes back `refuted`, or the proof alone (run
        /// directly, whether or not the search would stall) claims it,
        /// none of the 65,536 assignments satisfies it. The sets mix the
        /// proof's three shapes: single-byte comparisons with constants
        /// biased to the domain edges (enumeration), the octal-mode
        /// linear form over both bytes (hulls), random expressions, and
        /// range constraints.
        #[test]
        fn refuted_sets_have_no_model(
            ops in proptest::collection::vec(any::<u8>(), 1..16),
            items in proptest::collection::vec((any::<u8>(), 0i64..256, any::<bool>()), 2..8),
            seed in proptest::collection::vec(0i64..256, 2),
        ) {
            let mut arena = ExprArena::new();
            let vars: Vec<ExprRef> =
                (0..2).map(|_| arena.fresh_var(VarInfo::byte()).1).collect();
            let mut cs = ConstraintSet::new();
            for (k, &(shape, c, positive)) in items.iter().enumerate() {
                let (e, c) = match shape % 4 {
                    0 => (vars[(shape >> 7) as usize], [0, 1, 254, 255][c as usize % 4]),
                    1 => (vars[(shape >> 7) as usize], c),
                    2 => {
                        let base = arena.constant(c % 64);
                        let scale = arena.constant(((shape >> 2) % 9 + 1) as i64);
                        let hi = arena.bin(Op::Sub, vars[0], base);
                        let hi = arena.bin(Op::Mul, hi, scale);
                        let lo = arena.bin(Op::Sub, vars[1], base);
                        (arena.bin(Op::Add, hi, lo), c - 128)
                    }
                    _ => (arb_expr(&mut arena, &vars, &ops[k.min(ops.len() - 1)..], 0), c),
                };
                if shape % 13 == 12 {
                    cs.push_range(RangeConstraint::range(e, c - 40, c, c));
                    continue;
                }
                let op = [Op::Eq, Op::Ne, Op::Lt, Op::Le, Op::Gt, Op::Ge][(shape >> 2) as usize % 6];
                let c = arena.constant(c);
                let cmp = arena.bin(op, e, c);
                cs.push(Lit { expr: cmp, positive });
            }
            let cfg = SolveCfg { max_iters: 2000, ..SolveCfg::default() };
            let (model, stats) = solve_with_stats(&arena, &cs, Some(&seed), &cfg);
            let claimed = solve::stall_proof_refutes(&arena, &cs, &seed);
            if stats.refuted || claimed {
                prop_assert!(model.is_none());
                let mut ev = arena::Evaluator::new(&arena);
                for x in 0..256i64 {
                    for y in 0..256i64 {
                        let assign = [x, y];
                        ev.invalidate();
                        let sat = cs.lits.iter().all(|l| {
                            (ev.eval(&arena, l.expr, &assign) != 0) == l.positive
                        }) && cs.ranges.iter().all(|r| r.admits(ev.eval(&arena, r.expr, &assign)));
                        prop_assert!(!sat, "refuted set satisfied by {:?}", assign);
                    }
                }
            }
        }

        /// Solving a pending set with the prefix cache populated from an
        /// executed path is bit-identical to solving without it: same
        /// verdict, same model, same search statistics (the prefix-hit
        /// counters are reporting, not behavior). This is the solver-level
        /// half of the cache-invariance proof; the bench suite pins the
        /// engine-level half end to end.
        #[test]
        fn cached_solve_is_bit_identical(
            ops in proptest::collection::vec(any::<u8>(), 1..24),
            assign in proptest::collection::vec(0i64..256, 4),
            n_lits in 2usize..6,
        ) {
            let mut arena = ExprArena::new();
            let vars: Vec<ExprRef> =
                (0..4).map(|_| arena.fresh_var(VarInfo::byte()).1).collect();
            // Simulate an executed run: each path literal asserts the
            // truth value its expression actually took, so every literal
            // holds under `assign` — the registration precondition.
            let mut path = ConstraintSet::new();
            for i in 0..n_lits {
                let e = arb_expr(&mut arena, &vars, &ops[i.min(ops.len() - 1)..], 0);
                path.push(Lit { expr: e, positive: arena.eval(e, &assign) != 0 });
            }
            prop_assert!(path.satisfied(&arena, &assign));
            arena.freeze();
            let mut cache = PrefixCache::new();
            cache.register_path(&arena, &path.lits, &path.ranges);
            let cfg = SolveCfg { max_iters: 2000, ..SolveCfg::default() };
            for k in 0..path.lits.len() {
                let pending = path.negate_at(k);
                let (plain_model, plain_stats) =
                    solve_with_stats(&arena, &pending, Some(&assign), &cfg);
                let (cached_model, cached_stats) = solve_with_stats_cached(
                    &arena, &pending, Some(&assign), &cfg, Some(&cache),
                );
                prop_assert_eq!(&plain_model, &cached_model);
                prop_assert_eq!(plain_stats.iters, cached_stats.iters);
                prop_assert_eq!(plain_stats.inversions, cached_stats.inversions);
                prop_assert_eq!(plain_stats.restarts, cached_stats.restarts);
                prop_assert_eq!(plain_stats.refuted, cached_stats.refuted);
                prop_assert_eq!(cached_stats.prefix_lits_saved, k as u64);
                prop_assert_eq!(cached_stats.prefix_hit, k > 0);
            }
        }
    }
}
