//! Hash-consed expression arena.
//!
//! Symbolic expressions form a DAG interned in one arena per analysis
//! session. Interning gives (1) cheap `Copy` handles that can shadow every
//! VM cell, (2) structural sharing across the millions of shadow
//! operations a concolic run performs, and (3) constant folding at
//! construction so trivially concrete expressions never materialize.
//!
//! Folding is total: every constructor turns an operation whose operands
//! are all constants into a constant, so a node is `Const` exactly when
//! its support is empty. [`ExprArena::is_concrete`] answers that in O(1).

use crate::fasthash::{FastMap, FastSet};
use crate::op::{eval_op, eval_unop, Op, UnOp};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Handle to an interned expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprRef(pub u32);

/// Identifier of a symbolic input variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// An interned expression node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// A constant.
    Const(i64),
    /// A symbolic input variable.
    Var(VarId),
    /// A binary operation.
    Bin(Op, ExprRef, ExprRef),
    /// A unary operation.
    Un(UnOp, ExprRef),
}

/// Metadata of a symbolic variable: its inclusive domain.
///
/// Input bytes get `[0, 255]`; modelled syscall returns get the range the
/// model allows (e.g. `[-1, n]` for `read`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarInfo {
    /// Smallest allowed value.
    pub lo: i64,
    /// Largest allowed value.
    pub hi: i64,
}

impl VarInfo {
    /// A byte-valued input variable.
    pub fn byte() -> Self {
        VarInfo { lo: 0, hi: 255 }
    }

    /// An arbitrary bounded variable.
    pub fn range(lo: i64, hi: i64) -> Self {
        VarInfo { lo, hi }
    }

    /// Clamps `v` into the domain.
    pub fn clamp(&self, v: i64) -> i64 {
        v.clamp(self.lo, self.hi)
    }
}

/// An immutable, generation-stamped prefix of an arena.
///
/// Produced by [`ExprArena::freeze`] and shared by reference count: a
/// cloned arena (e.g. the clone a SAT job runs its model on) costs one
/// `Arc` bump for the frozen prefix instead of copying every node and
/// intern entry. Nothing ever mutates a snapshot after freeze — a later
/// `freeze` that must extend a *shared* snapshot copies its core into
/// a fresh snapshot with a higher generation, so every generation
/// number names one immutable node prefix forever. The prefix solve
/// cache keys its entries on this generation.
#[derive(Debug)]
pub struct ArenaSnapshot {
    nodes: Vec<Node>,
    intern: FastMap<Node, ExprRef>,
    consts: HashMap<i64, ExprRef>,
    generation: u64,
}

impl ArenaSnapshot {
    /// The generation stamp: strictly increasing per freeze that added
    /// nodes, starting at 1 (an unfrozen arena reports generation 0).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of nodes in the frozen prefix.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the snapshot holds no nodes (never produced by `freeze`,
    /// which skips allocating for an empty arena).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// The expression arena: interned nodes plus the variable table.
///
/// Copy-on-write: nodes split into an immutable frozen prefix (an
/// [`ArenaSnapshot`] behind an `Arc`, shared across clones) and a
/// mutable suffix owned by this arena. Handles are absolute indices
/// across the split, so freezing is invisible to every reader —
/// `node`, `eval`, `support` and friends behave exactly as if the
/// arena were one flat vector.
#[derive(Debug, Default, Clone)]
pub struct ExprArena {
    /// Frozen prefix, shared by clones. `None` until the first freeze.
    base: Option<Arc<ArenaSnapshot>>,
    /// Node count of the frozen prefix (0 until the first freeze).
    base_len: u32,
    /// Mutable suffix nodes appended since the last freeze.
    nodes: Vec<Node>,
    /// Intern map of the suffix's variable and operation nodes (values
    /// are absolute handles). Their keys are arena handles, so they take
    /// the internal hasher.
    intern: FastMap<Node, ExprRef>,
    /// Intern map of the suffix's constants. A constant can come from a
    /// bug report (a logged syscall's return value, or a value computed
    /// from one), so this map keeps SipHash.
    consts: HashMap<i64, ExprRef>,
    /// Variable table: small and append-only, kept whole (not snapshotted).
    vars: Vec<VarInfo>,
}

impl ExprArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interned nodes.
    pub fn len(&self) -> usize {
        self.base_len as usize + self.nodes.len()
    }

    /// True if no nodes have been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The generation of the frozen prefix (0 = never frozen).
    pub fn generation(&self) -> u64 {
        self.base.as_ref().map_or(0, |b| b.generation)
    }

    /// Number of nodes in the frozen prefix.
    pub fn frozen_len(&self) -> usize {
        self.base_len as usize
    }

    /// Freezes the current node set into an immutable snapshot and
    /// returns its generation.
    ///
    /// After this call the whole arena is frozen prefix: clones share
    /// it by reference count (O(1) for the nodes) instead of copying.
    /// When this arena solely owns its current snapshot the suffix is
    /// appended in place — the common engine loop case, O(suffix) per
    /// freeze, O(total nodes) across a session. When the snapshot is
    /// still shared (a clone is alive), its core is copied once into
    /// the successor snapshot; the clone keeps reading the old
    /// generation untouched. A freeze with an empty suffix is free and
    /// keeps the existing generation — so the engines can freeze once
    /// per run without churning generations on runs that interned
    /// nothing new.
    pub fn freeze(&mut self) -> u64 {
        if self.nodes.is_empty() {
            return self.generation();
        }
        let suffix_nodes = std::mem::take(&mut self.nodes);
        let suffix_intern = std::mem::take(&mut self.intern);
        let suffix_consts = std::mem::take(&mut self.consts);
        let mut core = match self.base.take() {
            None => ArenaSnapshot {
                nodes: Vec::new(),
                intern: FastMap::default(),
                consts: HashMap::new(),
                generation: 0,
            },
            Some(arc) => match Arc::try_unwrap(arc) {
                Ok(owned) => owned,
                Err(shared) => ArenaSnapshot {
                    nodes: shared.nodes.clone(),
                    intern: shared.intern.clone(),
                    consts: shared.consts.clone(),
                    generation: shared.generation,
                },
            },
        };
        core.nodes.extend(suffix_nodes);
        core.intern.extend(suffix_intern);
        core.consts.extend(suffix_consts);
        core.generation += 1;
        let generation = core.generation;
        self.base_len = core.nodes.len() as u32;
        self.base = Some(Arc::new(core));
        generation
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.vars.len()
    }

    /// The domain of a variable.
    pub fn var_info(&self, v: VarId) -> VarInfo {
        self.vars[v.0 as usize]
    }

    /// All variable domains, indexed by `VarId`.
    pub fn var_infos(&self) -> &[VarInfo] {
        &self.vars
    }

    /// Creates a fresh symbolic variable with the given domain.
    pub fn fresh_var(&mut self, info: VarInfo) -> (VarId, ExprRef) {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(info);
        let r = self.intern(Node::Var(id));
        (id, r)
    }

    /// The expression handle of an existing variable.
    pub fn var_expr(&mut self, v: VarId) -> ExprRef {
        debug_assert!((v.0 as usize) < self.vars.len(), "unknown variable");
        self.intern(Node::Var(v))
    }

    /// The node behind a handle.
    pub fn node(&self, r: ExprRef) -> Node {
        if r.0 < self.base_len {
            self.base.as_ref().expect("handle below base_len").nodes[r.0 as usize]
        } else {
            self.nodes[(r.0 - self.base_len) as usize]
        }
    }

    /// True when `e` is a constant. Constructors fold every operation
    /// over constants, so this is exactly `support(e).is_empty()`,
    /// without the walk.
    pub fn is_concrete(&self, e: ExprRef) -> bool {
        matches!(self.node(e), Node::Const(_))
    }

    fn intern(&mut self, n: Node) -> ExprRef {
        let base = self.base.as_deref();
        let found = match n {
            Node::Const(v) => base
                .and_then(|b| b.consts.get(&v))
                .or_else(|| self.consts.get(&v)),
            _ => base
                .and_then(|b| b.intern.get(&n))
                .or_else(|| self.intern.get(&n)),
        };
        if let Some(r) = found {
            return *r;
        }
        let r = ExprRef(self.base_len + self.nodes.len() as u32);
        self.nodes.push(n);
        match n {
            Node::Const(v) => self.consts.insert(v, r),
            _ => self.intern.insert(n, r),
        };
        r
    }

    /// Interns a constant.
    pub fn constant(&mut self, v: i64) -> ExprRef {
        self.intern(Node::Const(v))
    }

    /// Builds `a op b` with constant folding and light simplification.
    pub fn bin(&mut self, op: Op, a: ExprRef, b: ExprRef) -> ExprRef {
        let (na, nb) = (self.node(a), self.node(b));
        if let (Node::Const(x), Node::Const(y)) = (na, nb) {
            return self.constant(eval_op(op, x, y));
        }
        // Identity simplifications that show up constantly in shadows.
        match (op, na, nb) {
            (Op::Add, _, Node::Const(0)) | (Op::Sub, _, Node::Const(0)) => return a,
            (Op::Add, Node::Const(0), _) => return b,
            (Op::Mul, _, Node::Const(1)) => return a,
            (Op::Mul, Node::Const(1), _) => return b,
            (Op::Mul, _, Node::Const(0)) | (Op::Mul, Node::Const(0), _) => return self.constant(0),
            (Op::And, _, Node::Const(0)) | (Op::And, Node::Const(0), _) => return self.constant(0),
            (Op::Or, _, Node::Const(0)) | (Op::Xor, _, Node::Const(0)) => return a,
            (Op::Or, Node::Const(0), _) | (Op::Xor, Node::Const(0), _) => return b,
            // Masking an already-masked byte: (x & 255) & 255.
            (Op::And, Node::Bin(Op::And, _, m), Node::Const(255))
                if self.node(m) == Node::Const(255) =>
            {
                return a;
            }
            // A byte variable masked to a byte is itself.
            (Op::And, Node::Var(v), Node::Const(255)) => {
                let info = self.var_info(v);
                if info.lo >= 0 && info.hi <= 255 {
                    return a;
                }
            }
            _ => {}
        }
        self.intern(Node::Bin(op, a, b))
    }

    /// Builds a unary operation with constant folding.
    pub fn un(&mut self, op: UnOp, a: ExprRef) -> ExprRef {
        if let Node::Const(x) = self.node(a) {
            return self.constant(eval_unop(op, x));
        }
        // Double negations cancel.
        if let Node::Un(inner_op, inner) = self.node(a) {
            if inner_op == op && matches!(op, UnOp::Neg | UnOp::BitNot) {
                return inner;
            }
        }
        self.intern(Node::Un(op, a))
    }

    /// Builds `x != 0` (the VM's `Bool` normalization).
    pub fn boolify(&mut self, a: ExprRef) -> ExprRef {
        // Comparisons are already 0/1.
        if let Node::Bin(op, _, _) = self.node(a) {
            if op.is_comparison() {
                return a;
            }
        }
        let zero = self.constant(0);
        self.bin(Op::Ne, a, zero)
    }

    /// Builds `x & 0xff` (char masking).
    pub fn mask_char(&mut self, a: ExprRef) -> ExprRef {
        let m = self.constant(0xff);
        self.bin(Op::And, a, m)
    }

    /// Evaluates an expression under a full variable assignment.
    ///
    /// `assign[v]` is the value of variable `v`. Iterative (explicit
    /// stack) so deep shadow chains cannot overflow the Rust stack.
    /// Because interning assigns children smaller indices than parents,
    /// a dense slot vector doubles as the memo table.
    pub fn eval(&self, root: ExprRef, assign: &[i64]) -> i64 {
        let mut memo: Vec<Option<i64>> = vec![None; root.0 as usize + 1];
        let mut stack = vec![(root, false)];
        while let Some((r, expanded)) = stack.pop() {
            if memo[r.0 as usize].is_some() {
                continue;
            }
            let n = self.node(r);
            if !expanded {
                match n {
                    Node::Const(v) => memo[r.0 as usize] = Some(v),
                    Node::Var(v) => {
                        memo[r.0 as usize] = Some(assign.get(v.0 as usize).copied().unwrap_or(0));
                    }
                    Node::Bin(_, a, b) => {
                        stack.push((r, true));
                        stack.push((a, false));
                        stack.push((b, false));
                    }
                    Node::Un(_, a) => {
                        stack.push((r, true));
                        stack.push((a, false));
                    }
                }
            } else {
                let v = match n {
                    Node::Bin(op, a, b) => eval_op(
                        op,
                        memo[a.0 as usize].expect("child evaluated"),
                        memo[b.0 as usize].expect("child evaluated"),
                    ),
                    Node::Un(op, a) => eval_unop(op, memo[a.0 as usize].expect("child evaluated")),
                    _ => unreachable!("leaves are evaluated eagerly"),
                };
                memo[r.0 as usize] = Some(v);
            }
        }
        memo[root.0 as usize].expect("root evaluated")
    }

    /// Rewrites an expression, replacing the mapped variables by
    /// constants (used to pin uncontrollable non-determinism to its
    /// observed values before solving for the controllable inputs).
    pub fn substitute(&mut self, root: ExprRef, map: &FastMap<VarId, i64>) -> ExprRef {
        if map.is_empty() {
            return root;
        }
        self.subst_memo(root, map, &mut FastMap::default())
    }

    /// Substitutes many roots sharing one rewrite memo (linear in the
    /// union of the DAGs instead of quadratic per-root work).
    pub fn substitute_many(
        &mut self,
        roots: &[ExprRef],
        map: &FastMap<VarId, i64>,
    ) -> Vec<ExprRef> {
        if map.is_empty() {
            return roots.to_vec();
        }
        let mut memo = FastMap::default();
        roots
            .iter()
            .map(|r| self.subst_memo(*r, map, &mut memo))
            .collect()
    }

    fn subst_memo(
        &mut self,
        r: ExprRef,
        map: &FastMap<VarId, i64>,
        memo: &mut FastMap<ExprRef, ExprRef>,
    ) -> ExprRef {
        if let Some(out) = memo.get(&r) {
            return *out;
        }
        let out = match self.node(r) {
            Node::Const(_) => r,
            Node::Var(v) => match map.get(&v) {
                Some(c) => self.constant(*c),
                None => r,
            },
            Node::Bin(op, a, b) => {
                let na = self.subst_memo(a, map, memo);
                let nb = self.subst_memo(b, map, memo);
                if na == a && nb == b {
                    r
                } else {
                    self.bin(op, na, nb)
                }
            }
            Node::Un(op, a) => {
                let na = self.subst_memo(a, map, memo);
                if na == a {
                    r
                } else {
                    self.un(op, na)
                }
            }
        };
        memo.insert(r, out);
        out
    }

    /// Collects the variables an expression depends on (sorted, deduped).
    pub fn support(&self, root: ExprRef) -> Vec<VarId> {
        let mut seen = FastSet::default();
        let mut vars = Vec::new();
        let mut stack = vec![root];
        while let Some(r) = stack.pop() {
            if !seen.insert(r) {
                continue;
            }
            match self.node(r) {
                Node::Const(_) => {}
                Node::Var(v) => {
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
                Node::Bin(_, a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                Node::Un(_, a) => stack.push(a),
            }
        }
        vars.sort();
        vars
    }

    /// Renders an expression for diagnostics.
    pub fn display(&self, r: ExprRef) -> String {
        let mut s = String::new();
        self.fmt_expr(r, &mut s, 0);
        s
    }

    fn fmt_expr(&self, r: ExprRef, out: &mut String, depth: usize) {
        use fmt::Write as _;
        if depth > 64 {
            out.push_str("...");
            return;
        }
        match self.node(r) {
            Node::Const(v) => {
                let _ = write!(out, "{v}");
            }
            Node::Var(v) => {
                let _ = write!(out, "in{}", v.0);
            }
            Node::Bin(op, a, b) => {
                out.push('(');
                self.fmt_expr(a, out, depth + 1);
                let sym = match op {
                    Op::Add => "+",
                    Op::Sub => "-",
                    Op::Mul => "*",
                    Op::Div => "/",
                    Op::Rem => "%",
                    Op::And => "&",
                    Op::Or => "|",
                    Op::Xor => "^",
                    Op::Shl => "<<",
                    Op::Shr => ">>",
                    Op::Eq => "==",
                    Op::Ne => "!=",
                    Op::Lt => "<",
                    Op::Le => "<=",
                    Op::Gt => ">",
                    Op::Ge => ">=",
                };
                let _ = write!(out, " {sym} ");
                self.fmt_expr(b, out, depth + 1);
                out.push(')');
            }
            Node::Un(op, a) => {
                let sym = match op {
                    UnOp::Neg => "-",
                    UnOp::Not => "!",
                    UnOp::BitNot => "~",
                };
                out.push_str(sym);
                self.fmt_expr(a, out, depth + 1);
            }
        }
    }
}

/// A reusable, generation-stamped evaluation scratchpad.
///
/// `ExprArena::eval` allocates a memo sized by the expression's index on
/// every call — fine for one-off evaluations, ruinous inside a search
/// loop over thousands of literals. An `Evaluator` keeps one buffer and
/// invalidates it by bumping a generation counter when the assignment
/// changes, so evaluating many literals under the same assignment shares
/// all common subexpression results. The stamps also make one evaluator
/// safe to reuse across arenas: after an invalidation no slot written
/// before it reads as current.
#[derive(Debug, Clone)]
pub struct Evaluator {
    values: Vec<i64>,
    stamp: Vec<u32>,
    generation: u32,
    /// The traversal stack, kept between calls (empty between them).
    stack: Vec<(ExprRef, bool)>,
}

impl Evaluator {
    /// Creates an evaluator sized for the arena (grows on demand).
    pub fn new(arena: &ExprArena) -> Self {
        Evaluator {
            values: vec![0; arena.len()],
            stamp: vec![0; arena.len()],
            generation: 1,
            stack: Vec::new(),
        }
    }

    /// Creates an empty evaluator (grows on first use), for one that
    /// will serve arenas of different sizes.
    pub fn empty() -> Self {
        Evaluator {
            values: Vec::new(),
            stamp: Vec::new(),
            generation: 1,
            stack: Vec::new(),
        }
    }

    /// Invalidates all memoized results (call after the assignment
    /// changes).
    pub fn invalidate(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Extremely rare wraparound: clear stamps explicitly.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.generation = 1;
        }
    }

    fn ensure(&mut self, n: usize) {
        if self.values.len() < n {
            self.values.resize(n, 0);
            self.stamp.resize(n, 0);
        }
    }

    /// Evaluates `root` under `assign`, sharing results with every other
    /// evaluation since the last [`Evaluator::invalidate`].
    pub fn eval(&mut self, arena: &ExprArena, root: ExprRef, assign: &[i64]) -> i64 {
        self.ensure(arena.len());
        let g = self.generation;
        self.stack.push((root, false));
        while let Some((r, expanded)) = self.stack.pop() {
            let i = r.0 as usize;
            if self.stamp[i] == g {
                continue;
            }
            let n = arena.node(r);
            if !expanded {
                match n {
                    Node::Const(v) => {
                        self.values[i] = v;
                        self.stamp[i] = g;
                    }
                    Node::Var(v) => {
                        self.values[i] = assign.get(v.0 as usize).copied().unwrap_or(0);
                        self.stamp[i] = g;
                    }
                    Node::Bin(_, a, b) => {
                        self.stack.push((r, true));
                        self.stack.push((a, false));
                        self.stack.push((b, false));
                    }
                    Node::Un(_, a) => {
                        self.stack.push((r, true));
                        self.stack.push((a, false));
                    }
                }
            } else {
                let v = match n {
                    Node::Bin(op, a, b) => {
                        eval_op(op, self.values[a.0 as usize], self.values[b.0 as usize])
                    }
                    Node::Un(op, a) => eval_unop(op, self.values[a.0 as usize]),
                    _ => unreachable!("leaves are evaluated eagerly"),
                };
                self.values[i] = v;
                self.stamp[i] = g;
            }
        }
        self.values[root.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluator_matches_eval_and_shares_memo() {
        let mut a = ExprArena::new();
        let (_, x) = a.fresh_var(VarInfo::byte());
        let ten = a.constant(10);
        let t = a.bin(Op::Mul, x, ten);
        let e1 = a.bin(Op::Add, t, x);
        let e2 = a.bin(Op::Sub, t, x);
        let mut ev = Evaluator::new(&a);
        let assign = [4i64];
        assert_eq!(ev.eval(&a, e1, &assign), a.eval(e1, &assign));
        assert_eq!(ev.eval(&a, e2, &assign), a.eval(e2, &assign));
        // After the assignment changes, invalidation is required.
        let assign2 = [5i64];
        ev.invalidate();
        assert_eq!(ev.eval(&a, e1, &assign2), a.eval(e1, &assign2));
    }

    #[test]
    fn substitute_many_matches_individual() {
        let mut a = ExprArena::new();
        let (vx, x) = a.fresh_var(VarInfo::byte());
        let (_, y) = a.fresh_var(VarInfo::byte());
        let s = a.bin(Op::Add, x, y);
        let t = a.bin(Op::Mul, s, x);
        let map: FastMap<VarId, i64> = [(vx, 3)].into_iter().collect();
        let many = a.substitute_many(&[s, t], &map);
        assert_eq!(many[0], a.substitute(s, &map));
        assert_eq!(many[1], a.substitute(t, &map));
    }

    #[test]
    fn constant_folding() {
        let mut a = ExprArena::new();
        let x = a.constant(3);
        let y = a.constant(4);
        let s = a.bin(Op::Add, x, y);
        assert_eq!(a.node(s), Node::Const(7));
    }

    #[test]
    fn interning_dedupes() {
        let mut a = ExprArena::new();
        let (_, v) = a.fresh_var(VarInfo::byte());
        let one = a.constant(1);
        let e1 = a.bin(Op::Add, v, one);
        let e2 = a.bin(Op::Add, v, one);
        assert_eq!(e1, e2);
    }

    #[test]
    fn identity_simplifications() {
        let mut a = ExprArena::new();
        let (_, v) = a.fresh_var(VarInfo::byte());
        let zero = a.constant(0);
        let one = a.constant(1);
        assert_eq!(a.bin(Op::Add, v, zero), v);
        assert_eq!(a.bin(Op::Mul, v, one), v);
        assert_eq!(a.node(a.clone().bin(Op::Mul, v, zero)), Node::Const(0));
    }

    #[test]
    fn byte_var_mask_is_identity() {
        let mut a = ExprArena::new();
        let (_, v) = a.fresh_var(VarInfo::byte());
        assert_eq!(a.mask_char(v), v);
        let (_, w) = a.fresh_var(VarInfo::range(-1, 1000));
        assert_ne!(a.mask_char(w), w);
    }

    #[test]
    fn boolify_of_comparison_is_identity() {
        let mut a = ExprArena::new();
        let (_, v) = a.fresh_var(VarInfo::byte());
        let c = a.constant(65);
        let cmp = a.bin(Op::Eq, v, c);
        assert_eq!(a.boolify(cmp), cmp);
        assert_ne!(a.boolify(v), v);
    }

    #[test]
    fn eval_matches_structure() {
        let mut a = ExprArena::new();
        let (_, x) = a.fresh_var(VarInfo::byte());
        let (_, y) = a.fresh_var(VarInfo::byte());
        let ten = a.constant(10);
        let t = a.bin(Op::Mul, x, ten);
        let e = a.bin(Op::Add, t, y); // x*10 + y
        assert_eq!(a.eval(e, &[4, 2]), 42);
    }

    #[test]
    fn support_collects_vars() {
        let mut a = ExprArena::new();
        let (vx, x) = a.fresh_var(VarInfo::byte());
        let (vy, y) = a.fresh_var(VarInfo::byte());
        let e = a.bin(Op::Add, x, y);
        let e2 = a.bin(Op::Add, e, x);
        assert_eq!(a.support(e2), vec![vx, vy]);
    }

    #[test]
    fn double_negation_cancels() {
        let mut a = ExprArena::new();
        let (_, v) = a.fresh_var(VarInfo::byte());
        let n1 = a.un(UnOp::Neg, v);
        let n2 = a.un(UnOp::Neg, n1);
        assert_eq!(n2, v);
    }

    #[test]
    fn display_renders() {
        let mut a = ExprArena::new();
        let (_, v) = a.fresh_var(VarInfo::byte());
        let c = a.constant(71);
        let e = a.bin(Op::Eq, v, c);
        assert_eq!(a.display(e), "(in0 == 71)");
    }

    #[test]
    fn deep_chain_eval_does_not_overflow() {
        let mut a = ExprArena::new();
        let (_, mut e) = a.fresh_var(VarInfo::byte());
        for _ in 0..100_000 {
            let one = a.constant(1);
            e = a.bin(Op::Add, e, one);
        }
        assert_eq!(a.eval(e, &[5]), 100_005);
    }

    #[test]
    fn freeze_is_invisible_to_readers() {
        let mut a = ExprArena::new();
        let (_, x) = a.fresh_var(VarInfo::byte());
        let ten = a.constant(10);
        let t = a.bin(Op::Mul, x, ten);
        let mut flat = a.clone(); // never frozen, the reference behavior
        assert_eq!(a.generation(), 0);
        assert_eq!(a.freeze(), 1);
        assert_eq!(a.generation(), 1);
        assert_eq!(a.frozen_len(), a.len());
        // Same handles, same nodes, same eval across the split.
        assert_eq!(a.node(t), flat.node(t));
        assert_eq!(a.eval(t, &[4]), 40);
        // Interning dedupes against the frozen prefix.
        assert_eq!(a.constant(10), ten);
        assert_eq!(a.bin(Op::Mul, x, ten), t);
        assert_eq!(a.len(), flat.len(), "no duplicate nodes after freeze");
        // New nodes keep absolute numbering identical to the flat arena.
        let one_a = a.constant(1);
        let one_f = flat.constant(1);
        assert_eq!(one_a, one_f);
        let e_a = a.bin(Op::Add, t, one_a);
        let e_f = flat.bin(Op::Add, t, one_f);
        assert_eq!(e_a, e_f);
        assert_eq!(a.eval(e_a, &[4]), flat.eval(e_f, &[4]));
    }

    #[test]
    fn freeze_with_empty_suffix_is_free() {
        let mut a = ExprArena::new();
        assert_eq!(a.freeze(), 0, "empty arena: nothing to freeze");
        assert_eq!(a.generation(), 0);
        a.constant(3);
        assert_eq!(a.freeze(), 1);
        assert_eq!(a.freeze(), 1, "no new nodes: generation stable");
        a.constant(4);
        assert_eq!(a.freeze(), 2);
    }

    #[test]
    fn frozen_snapshot_is_never_mutated_under_a_live_clone() {
        let mut central = ExprArena::new();
        let (_, x) = central.fresh_var(VarInfo::byte());
        let five = central.constant(5);
        let e = central.bin(Op::Add, x, five);
        let g1 = central.freeze();

        // A clone shares the frozen prefix by refcount.
        let worker = central.clone();
        assert_eq!(worker.generation(), g1);

        // Central extends and refreezes while the clone is alive: the
        // shared generation-g1 snapshot must stay byte-identical, so the
        // new generation is built from a copied core.
        let seven = central.constant(7);
        central.bin(Op::Mul, e, seven);
        let g2 = central.freeze();
        assert_eq!(g2, g1 + 1);
        assert_eq!(worker.generation(), g1, "clone still reads g1");
        assert_eq!(worker.len(), 3, "clone's node count unchanged");
        assert_eq!(worker.node(e), Node::Bin(Op::Add, x, five));
        assert_eq!(central.eval(e, &[2]), worker.eval(e, &[2]));
    }

    #[test]
    fn clone_of_frozen_arena_diverges_without_aliasing() {
        let mut a = ExprArena::new();
        let (_, x) = a.fresh_var(VarInfo::byte());
        a.freeze();
        let mut b = a.clone();
        // Both sides append different suffixes on the shared base.
        let two = a.constant(2);
        let ea = a.bin(Op::Add, x, two);
        let three = b.constant(3);
        let eb = b.bin(Op::Add, x, three);
        assert_eq!(a.node(ea), Node::Bin(Op::Add, x, two));
        assert_eq!(b.node(eb), Node::Bin(Op::Add, x, three));
        assert_eq!(a.eval(ea, &[1]), 3);
        assert_eq!(b.eval(eb, &[1]), 4);
    }
}
