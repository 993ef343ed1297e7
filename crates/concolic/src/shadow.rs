//! The concolic VM host: symbolic shadows over concrete execution.
//!
//! [`SymHost`] mirrors every VM value that depends on program input with
//! an expression in the solver arena. Branches on shadowed conditions
//! append literals to the run's path (§2.1's constraint collection).
//!
//! Symbolic pointer components are concretized — but, by default, with an
//! **offset-generalizing** constraint rather than the equality pin of the
//! CUTE lineage: the component is bounded to the values that keep the
//! access inside the base pointer's object
//! ([`Concretization::RegionBounds`]), with the observed value retained
//! as a search hint. Pins over-constrain: replay's forced prefixes
//! routinely need a *different* stream offset than the failing run
//! observed, and under pins such a prefix is UNSAT. [`Concretization::Pin`]
//! restores the classic behavior for comparison.

use crate::input::InputVars;
use crate::label::{LabelMap, Profile};
use minic::ast::{BinOp, UnOp};
use minic::cost::Meter;
use minic::memory::Memory;
use minic::types::Sys;
use minic::vm::{CrashKind, Host, HostStop, PtrRegion};
use minic::{BranchId, Loc};
use oskit::Kernel;
use solver::{
    div_ceil, div_floor, Constraint, ExprArena, ExprRef, Lit, Op, RangeConstraint, VarId, VarInfo,
};

/// Shadow value: `None` for concrete, `Some(expr)` for input-dependent.
pub type SymV = Option<ExprRef>;

/// How symbolic address components are concretized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Concretization {
    /// The classic CUTE-style equality pin (`expr == observed`).
    Pin,
    /// Offset-generalizing: bound the component to the values that keep
    /// the access inside the object's region, falling back to the pin
    /// when no region is known.
    #[default]
    RegionBounds,
}

/// Where a path literal came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOrigin {
    /// A branch instruction (negatable during exploration).
    Branch(BranchId),
    /// A constraint from concretizing a symbolic address.
    Concretization,
}

/// One entry of a run's path condition.
#[derive(Debug, Clone, Copy)]
pub struct PathStep {
    /// The constraint this step asserts: a branch condition literal, or
    /// a concretization's region range or equality pin
    /// ([`concretization_step`]).
    pub constraint: Constraint,
    /// Why the constraint exists.
    pub origin: StepOrigin,
    /// The direction taken (meaningful for branch steps).
    pub taken: bool,
}

impl PathStep {
    /// A branch step: the condition `expr` asserted the way `taken` says.
    pub fn branch(bid: BranchId, expr: ExprRef, taken: bool) -> Self {
        PathStep {
            constraint: Constraint::Lit(Lit {
                expr,
                positive: taken,
            }),
            origin: StepOrigin::Branch(bid),
            taken,
        }
    }

    /// The branch location and condition literal of a branch step;
    /// `None` for a concretization step.
    pub fn as_branch(&self) -> Option<(BranchId, Lit)> {
        match (self.origin, self.constraint) {
            (StepOrigin::Branch(bid), Constraint::Lit(lit)) => Some((bid, lit)),
            _ => None,
        }
    }
}

/// Which component of a `ptr + idx * stride` a concretization targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtrComponent {
    /// The base pointer itself is symbolic.
    Base,
    /// The element index is symbolic (the common stream-offset case).
    Index,
}

/// Builds the path step concretizing one symbolic component of a pointer
/// addition. Shared by the analysis host ([`SymHost`]) and the replay
/// host, and the one place that decides a concretization's constraint.
///
/// Under [`Concretization::RegionBounds`] with a live region, the step
/// keeps the access in bounds instead of pinning it:
///
/// - a symbolic *index* `i` of `ptr + i*stride` (base at cell offset
///   `off` of a `cells`-cell object) is bounded to
///   `ceil(-off/stride) <= i <= floor((cells-1-off)/stride)`;
/// - a symbolic *base* `p` of `p + idx*stride` is bounded to the object.
///
/// The range carries the observed value as a search hint. Without a
/// region, under [`Concretization::Pin`], or when the observed value
/// falls outside the computed bounds (dead object, exotic arithmetic),
/// the step is the equality pin `expr == observed`.
#[allow(clippy::too_many_arguments)]
pub fn concretization_step(
    arena: &mut ExprArena,
    mode: Concretization,
    expr: ExprRef,
    observed: i64,
    component: PtrComponent,
    stride: u32,
    other_observed: i64,
    region: Option<PtrRegion>,
) -> PathStep {
    let stride = stride.max(1) as i64;
    let bounds = match (mode, region) {
        (Concretization::RegionBounds, Some(r)) if r.cells > 0 => {
            let cells = r.cells as i64;
            Some(match component {
                PtrComponent::Index => {
                    // Cell offset of the base pointer within its object.
                    let off = other_observed.wrapping_sub(r.base);
                    (div_ceil(-off, stride), div_floor(cells - 1 - off, stride))
                }
                PtrComponent::Base => {
                    let shift = other_observed.wrapping_mul(stride);
                    let lo = r.base.wrapping_sub(shift);
                    (lo, r.base.wrapping_add(cells - 1).wrapping_sub(shift))
                }
            })
        }
        _ => None,
    };
    let constraint = match bounds {
        // Sanity: the producing run's value must be admissible, or the
        // region arithmetic does not describe this access.
        Some((lo, hi)) if lo <= observed && observed <= hi => {
            Constraint::Range(RangeConstraint::range(expr, lo, hi, observed))
        }
        _ => {
            let c = arena.constant(observed);
            Constraint::Lit(Lit {
                expr: arena.bin(Op::Eq, expr, c),
                positive: true,
            })
        }
    };
    PathStep {
        constraint,
        origin: StepOrigin::Concretization,
        taken: true,
    }
}

/// Translates a VM binary operator to a solver operator.
pub fn map_binop(op: BinOp) -> Op {
    match op {
        BinOp::Add => Op::Add,
        BinOp::Sub => Op::Sub,
        BinOp::Mul => Op::Mul,
        BinOp::Div => Op::Div,
        BinOp::Rem => Op::Rem,
        BinOp::BitAnd => Op::And,
        BinOp::BitOr => Op::Or,
        BinOp::BitXor => Op::Xor,
        BinOp::Shl => Op::Shl,
        BinOp::Shr => Op::Shr,
        BinOp::Eq => Op::Eq,
        BinOp::Ne => Op::Ne,
        BinOp::Lt => Op::Lt,
        BinOp::Le => Op::Le,
        BinOp::Gt => Op::Gt,
        BinOp::Ge => Op::Ge,
    }
}

/// Translates a VM unary operator to a solver operator.
pub fn map_unop(op: UnOp) -> solver::UnOp {
    match op {
        UnOp::Neg => solver::UnOp::Neg,
        UnOp::Not => solver::UnOp::Not,
        UnOp::BitNot => solver::UnOp::BitNot,
    }
}

/// The concolic host. Owns the arena, the kernel and the run's records.
pub struct SymHost {
    /// Expression arena (session-wide, moved in and out per run).
    pub arena: ExprArena,
    /// Kernel backing this run.
    pub kernel: Kernel,
    /// Input variable tables.
    pub vars: InputVars,
    /// The path condition collected this run.
    pub path: Vec<PathStep>,
    /// Branch labels observed this run.
    pub labels: LabelMap,
    /// Per-location execution counts this run.
    pub profile: Profile,
    /// Observed values of non-determinism variables created this run.
    pub nondet_values: Vec<(VarId, i64)>,
    /// Captured stdout.
    pub stdout: Vec<u8>,
    /// Concretizations that emitted the offset-generalizing range form.
    pub concretization_ranges: u64,
    /// Concretizations that fell back to (or were configured as) the pin.
    pub concretization_pins: u64,
    /// How symbolic address components are concretized.
    pub concretization: Concretization,
    /// Cap on path length (0 = unlimited): keeps pathological runs from
    /// exhausting memory.
    pub max_path_len: usize,
    /// True while the path is still being recorded (below the cap).
    path_overflow: bool,
}

impl SymHost {
    /// Creates a host for one run.
    pub fn new(arena: ExprArena, kernel: Kernel, vars: InputVars, n_branches: usize) -> Self {
        SymHost {
            arena,
            kernel,
            vars,
            path: Vec::new(),
            labels: LabelMap::new(n_branches),
            profile: Profile::new(n_branches),
            nondet_values: Vec::new(),
            stdout: Vec::new(),
            concretization_ranges: 0,
            concretization_pins: 0,
            concretization: Concretization::default(),
            max_path_len: 200_000,
            path_overflow: false,
        }
    }

    fn lift(&mut self, v: i64, s: &SymV) -> ExprRef {
        match s {
            Some(e) => *e,
            None => self.arena.constant(v),
        }
    }

    fn push_step(&mut self, step: PathStep) {
        if self.max_path_len > 0 && self.path.len() >= self.max_path_len {
            self.path_overflow = true;
            return;
        }
        self.path.push(step);
    }

    /// True if the path was truncated at the cap.
    pub fn path_overflowed(&self) -> bool {
        self.path_overflow
    }

    /// Creates a fresh non-determinism variable observed at `value`.
    fn fresh_nondet(&mut self, value: i64, lo: i64, hi: i64) -> ExprRef {
        let (id, e) = self.arena.fresh_var(VarInfo::range(lo, hi));
        self.nondet_values.push((id, value));
        e
    }
}

impl Host for SymHost {
    type V = SymV;

    fn shadow_binop(&mut self, op: BinOp, a: (i64, &SymV), b: (i64, &SymV), _out: i64) -> SymV {
        if a.1.is_none() && b.1.is_none() {
            return None;
        }
        let ea = self.lift(a.0, a.1);
        let eb = self.lift(b.0, b.1);
        Some(self.arena.bin(map_binop(op), ea, eb))
    }

    fn shadow_unop(&mut self, op: UnOp, a: (i64, &SymV), _out: i64) -> SymV {
        let e = (*a.1)?;
        Some(self.arena.un(map_unop(op), e))
    }

    fn shadow_mask_char(&mut self, a: (i64, &SymV), _out: i64) -> SymV {
        let e = (*a.1)?;
        Some(self.arena.mask_char(e))
    }

    fn shadow_bool(&mut self, a: (i64, &SymV), _out: i64) -> SymV {
        let e = (*a.1)?;
        Some(self.arena.boolify(e))
    }

    fn shadow_ptr_add(
        &mut self,
        ptr: (i64, &SymV),
        idx: (i64, &SymV),
        stride: u32,
        _out: i64,
        region: Option<PtrRegion>,
    ) -> SymV {
        // Addresses stay concrete; each symbolic component is concretized
        // with a region range or an equality pin per the policy.
        for (component, (val, sh), other) in [
            (PtrComponent::Base, ptr, idx.0),
            (PtrComponent::Index, idx, ptr.0),
        ] {
            if let Some(e) = sh {
                let step = concretization_step(
                    &mut self.arena,
                    self.concretization,
                    *e,
                    val,
                    component,
                    stride,
                    other,
                    region,
                );
                if matches!(step.constraint, Constraint::Range(_)) {
                    self.concretization_ranges += 1;
                } else {
                    self.concretization_pins += 1;
                }
                self.push_step(step);
            }
        }
        None
    }

    fn shadow_ptr_diff(
        &mut self,
        a: (i64, &SymV),
        b: (i64, &SymV),
        stride: u32,
        _out: i64,
    ) -> SymV {
        if a.1.is_none() && b.1.is_none() {
            return None;
        }
        let ea = self.lift(a.0, a.1);
        let eb = self.lift(b.0, b.1);
        let diff = self.arena.bin(Op::Sub, ea, eb);
        let s = self.arena.constant(stride.max(1) as i64);
        Some(self.arena.bin(Op::Div, diff, s))
    }

    fn on_branch(
        &mut self,
        bid: BranchId,
        cond: (i64, &SymV),
        taken: bool,
        _loc: Loc,
    ) -> Result<u64, HostStop> {
        let symbolic = cond.1.is_some();
        self.labels.observe(bid, symbolic);
        self.profile.observe(bid, symbolic);
        if let Some(e) = cond.1 {
            self.push_step(PathStep::branch(bid, *e, taken));
        }
        Ok(0)
    }

    fn syscall(
        &mut self,
        sys: Sys,
        args: &[(i64, SymV)],
        mem: &mut Memory<SymV>,
        _meter: &mut Meter,
    ) -> Result<(i64, SymV), HostStop> {
        let raw: Vec<i64> = args.iter().map(|a| a.0).collect();
        let eff = self
            .kernel
            .dispatch(sys, &raw, mem)
            .map_err(|f| HostStop::Crash(CrashKind::Mem(f)))?;
        // Apply writes, attaching input shadows where the bytes map to
        // declared symbolic input variables.
        for w in &eff.writes {
            for (i, v) in w.values.iter().enumerate() {
                let shadow: SymV = if w.is_input {
                    match &w.stream {
                        Some((src, off)) => self
                            .vars
                            .var_for(src, off + i)
                            .map(|vid| self.arena.var_expr(vid)),
                        // Input-flagged writes without a stream are
                        // non-deterministic kernel outputs (select ready
                        // flags): fresh 0/1 variables.
                        None if matches!(sys, Sys::Select) => Some(self.fresh_nondet(*v, 0, 1)),
                        None => None,
                    }
                } else {
                    None
                };
                mem.store(w.addr.wrapping_add(i as i64), *v, shadow)
                    .map_err(|f| HostStop::Crash(CrashKind::Mem(f)))?;
            }
        }
        if let Some(out) = &eff.stdout {
            self.stdout.extend_from_slice(out);
        }
        if let Some(sig) = self.kernel.take_pending_signal() {
            return Err(HostStop::Crash(CrashKind::Signal(sig)));
        }
        // The return values of input-returning calls are symbolic
        // (§2.1: "the return values of any functions that return input").
        let ret_shadow: SymV = if eff.ret_is_input {
            let (lo, hi) = match sys {
                Sys::Read => (-1, raw.get(2).copied().unwrap_or(0).max(0)),
                Sys::Select => (0, raw.get(1).copied().unwrap_or(0).max(0)),
                Sys::Time => (0, i64::MAX / 2),
                Sys::Rand => (0, 0x7fff),
                _ => (i64::MIN / 2, i64::MAX / 2),
            };
            Some(self.fresh_nondet(eff.ret, lo, hi))
        } else {
            None
        };
        Ok((eff.ret, ret_shadow))
    }

    fn output(&mut self, bytes: &[u8]) {
        self.stdout.extend_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{ArgSpec, InputSpec, InputVars};
    use minic::build;
    use minic::memory::pack;
    use minic::vm::{RunOutcome, Vm};
    use oskit::KernelConfig;

    /// Runs a program with symbolic argv and returns the host.
    fn run_symbolic(src: &str, argv: Vec<Vec<u8>>, sym_args: &[usize]) -> (RunOutcome, SymHost) {
        let cp = build(&[("main", src)]).unwrap();
        let mut arena = ExprArena::new();
        let mut spec = InputSpec::default();
        spec.argv.push(ArgSpec::Fixed(argv[0].clone()));
        for (i, len) in sym_args.iter().enumerate() {
            let _ = i;
            spec.argv.push(ArgSpec::Symbolic(*len));
        }
        let vars = InputVars::alloc(&mut arena, &spec);
        let host = SymHost::new(
            arena,
            Kernel::new(KernelConfig::default()),
            vars,
            cp.n_branches(),
        );
        let mut vm = Vm::new(&cp, host);
        vm.prepare(&argv);
        // Mark argv bytes symbolic.
        let objs: Vec<_> = vm.argv_objects().to_vec();
        for (ai, arg_vars) in vm.host.vars.argv.clone().iter().enumerate() {
            for (bi, vid) in arg_vars.iter().enumerate() {
                let e = vm.host.arena.var_expr(*vid);
                vm.mem
                    .set_shadow(pack(objs[ai], bi as u32), Some(e))
                    .unwrap();
            }
        }
        let out = vm.resume();
        (out, vm.host)
    }

    #[test]
    fn branch_on_argv_is_symbolic() {
        let src = r#"
            int main(int argc, char **argv) {
                if (argv[1][0] == 'a') { return 1; }
                return 0;
            }
        "#;
        let (out, host) = run_symbolic(src, vec![b"p".to_vec(), b"a".to_vec()], &[1]);
        assert_eq!(out, RunOutcome::Exited(1));
        assert_eq!(host.path.len(), 1);
        assert!(host.path[0].taken);
        assert_eq!(host.labels.count(crate::label::BranchLabel::Symbolic), 1);
        // The literal must be (in0 == 97).
        assert_eq!(
            host.arena.display(host.path[0].constraint.expr()),
            "(in0 == 97)"
        );
    }

    #[test]
    fn branch_on_constant_is_concrete() {
        let src = r#"
            int main(int argc, char **argv) {
                int x = 5;
                if (x > 3) { return 1; }
                return 0;
            }
        "#;
        let (_, host) = run_symbolic(src, vec![b"p".to_vec(), b"a".to_vec()], &[1]);
        assert!(host.path.is_empty());
        assert_eq!(host.labels.count(crate::label::BranchLabel::Concrete), 1);
        assert_eq!(host.labels.count(crate::label::BranchLabel::Symbolic), 0);
    }

    #[test]
    fn symbolic_values_propagate_through_memory_and_arithmetic() {
        let src = r#"
            int main(int argc, char **argv) {
                int stash[4];
                stash[2] = argv[1][0] * 2 + 1;
                int y = stash[2];
                if (y > 100) { return 1; }
                return 0;
            }
        "#;
        let (_, host) = run_symbolic(src, vec![b"p".to_vec(), b"Z".to_vec()], &[1]);
        assert_eq!(host.path.len(), 1);
        let s = host.arena.display(host.path[0].constraint.expr());
        assert!(s.contains("in0"), "condition must mention the input: {s}");
        assert!(s.contains("* 2"), "arithmetic must be recorded: {s}");
    }

    #[test]
    fn symbolic_index_is_concretized() {
        let src = r#"
            int table[10];
            int main(int argc, char **argv) {
                int i = argv[1][0] % 10;
                table[i] = 1;
                return table[i];
            }
        "#;
        let (_, host) = run_symbolic(src, vec![b"p".to_vec(), b"5".to_vec()], &[1]);
        assert!(host.concretization_ranges + host.concretization_pins >= 1);
        assert!(host
            .path
            .iter()
            .any(|s| s.origin == StepOrigin::Concretization));
    }

    #[test]
    fn short_circuit_records_both_literals() {
        let src = r#"
            int main(int argc, char **argv) {
                char c = argv[1][0];
                if (c >= 'a' && c <= 'z') { return 1; }
                return 0;
            }
        "#;
        let (out, host) = run_symbolic(src, vec![b"p".to_vec(), b"m".to_vec()], &[1]);
        assert_eq!(out, RunOutcome::Exited(1));
        // Two branch steps: the && (on c >= 'a') and the if (on the
        // boolified c <= 'z').
        let branch_steps = host
            .path
            .iter()
            .filter(|s| matches!(s.origin, StepOrigin::Branch(_)))
            .count();
        assert_eq!(branch_steps, 2);
    }

    /// [`concretization_step`], one case per arm: the region range of a
    /// symbolic index (stride 1, and stride 4 from a mid-object base),
    /// the plain object range of a symbolic base, and the equality pin
    /// without a region, for an empty region, for an observed value
    /// outside the bounds, and under [`Concretization::Pin`].
    #[test]
    fn concretization_step_builds_one_constraint_per_arm() {
        use PtrComponent::{Base, Index};
        let region = |cells| Some(PtrRegion { base: 1000, cells });
        let rb = Concretization::RegionBounds;
        // (case, mode, observed, component, stride, other component's
        // observed value, region, range bounds or `None` for the pin)
        let cases = [
            (
                "index, stride 1",
                rb,
                3,
                Index,
                1,
                1000,
                region(10),
                Some((0, 9)),
            ),
            // off = 6: ceil(-6/4) = -1, floor((40-1-6)/4) = 8.
            (
                "index, stride 4",
                rb,
                2,
                Index,
                4,
                1006,
                region(40),
                Some((-1, 8)),
            ),
            // idx 2 at stride 4 shifts the object's cells down by 8.
            ("base", rb, 1000, Base, 4, 2, region(40), Some((992, 1031))),
            ("no region", rb, 3, Index, 1, 1000, None, None),
            ("empty region", rb, 0, Index, 1, 1000, region(0), None),
            ("out of bounds", rb, 12, Index, 1, 1000, region(10), None),
            (
                "pin mode",
                Concretization::Pin,
                3,
                Index,
                1,
                1000,
                region(10),
                None,
            ),
        ];
        for (case, mode, observed, component, stride, other, region, bounds) in cases {
            let mut arena = ExprArena::new();
            let (_, x) = arena.fresh_var(VarInfo::byte());
            let nodes = arena.len();
            let step = concretization_step(
                &mut arena, mode, x, observed, component, stride, other, region,
            );
            assert_eq!(step.origin, StepOrigin::Concretization, "{case}");
            match bounds {
                Some((lo, hi)) => {
                    let rc = RangeConstraint::range(x, lo, hi, observed);
                    assert_eq!(step.constraint, Constraint::Range(rc), "{case}");
                    assert_eq!(arena.len(), nodes, "{case}: a range interns no pin");
                }
                None => {
                    let c = arena.constant(observed);
                    let pin = Lit {
                        expr: arena.bin(Op::Eq, x, c),
                        positive: true,
                    };
                    assert_eq!(step.constraint, Constraint::Lit(pin), "{case}");
                }
            }
        }
    }
}
