//! Branch-implication analysis: which branch outcomes are *implied* by
//! the outcome of an earlier, dominating branch.
//!
//! The instrumentation plans log one bit per instrumented branch
//! execution. Some of those bits carry no information: a re-test of an
//! unmodified variable (`if (p) ... if (p)`), or the structural negation
//! of a condition just evaluated (`if (x < n) ... if (x >= n)`), always
//! repeats (or inverts) the earlier outcome. This pass finds such pairs
//! so the plan can *suppress* the implied branch's log bit and replay can
//! reconstruct it from the implying branch's already-replayed outcome.
//!
//! An implication `b -> Suppressed { by: a, negated }` is emitted only when
//! it holds on **every** execution, not just the recorded one:
//!
//! 1. `a`'s condition node strictly dominates `b`'s in the function's
//!    CFG — whenever `b` executes, some execution of `a` preceded it;
//! 2. the two conditions are structurally equal up to negation
//!    (comparison operators are canonicalized, so `x < n` pairs with
//!    `n > x`, `x >= n`, `!(x < n)`, …);
//! 3. the conditions are pure: only integer literals, scalar variables
//!    and pure operators — no calls, loads through pointers, array or
//!    field accesses, assignments, or short-circuit operators;
//! 4. every variable read by the condition is a local (or parameter)
//!    declared exactly once in the function, shadowing no global, and
//!    never address-taken anywhere in the function — so no call or
//!    pointer store can modify it behind the analysis's back;
//! 5. no CFG node that may write one of those variables lies on any
//!    path from `a` to `b` that does not pass through `a` again (the
//!    value observed at `b` is the value the *most recent* execution of
//!    `a` observed).
//!
//! The invariant replay relies on: at every execution of `b`, the most
//! recent execution of `a` (which exists, by dominance) had outcome `o`,
//! and `b`'s outcome is exactly `o ^ negated` — in the recorded run *and
//! in every candidate run the search tries*, which is why reconstructing
//! the bit can never steer replay differently than the logged bit would
//! have.

use instrument::Suppressed;
use minic::ast::{walk_expr, Ast, Block, Expr, ExprKind, FuncDef, Stmt, StmtKind, UnOp};
use minic::cfg::{build_cfg, Cfg, NodeId, NodeKind};
use minic::BranchId;
use std::collections::{BTreeMap, BTreeSet};

/// Per-program implication table, indexed by [`BranchId`]. Each entry
/// is the plan layer's [`Suppressed`] edge: the branch it is keyed
/// under always takes the same direction as `by`'s most recent
/// execution (inverted when `negated`), so `instrument::Plan::suppress`
/// takes [`ImplicationMap::iter`] as it is.
#[derive(Debug, Clone, Default)]
pub struct ImplicationMap {
    implied: Vec<Option<Suppressed>>,
}

impl ImplicationMap {
    /// An empty map over `n_branches` locations (nothing implied).
    pub fn empty(n_branches: usize) -> Self {
        ImplicationMap {
            implied: vec![None; n_branches],
        }
    }

    /// The implication for branch `b`, if one was found.
    pub fn get(&self, b: BranchId) -> Option<Suppressed> {
        self.implied.get(b.0 as usize).copied().flatten()
    }

    /// Number of branch locations with an implication.
    pub fn n_implied(&self) -> usize {
        self.implied.iter().filter(|i| i.is_some()).count()
    }

    /// All `(branch, implication)` pairs, in `BranchId` order.
    pub fn iter(&self) -> impl Iterator<Item = (BranchId, Suppressed)> + '_ {
        self.implied
            .iter()
            .enumerate()
            .filter_map(|(i, imp)| imp.map(|imp| (BranchId(i as u32), imp)))
    }

    /// Total branch locations covered (implied or not).
    pub fn len(&self) -> usize {
        self.implied.len()
    }

    /// True when no location has an implication.
    pub fn is_empty(&self) -> bool {
        self.n_implied() == 0
    }
}

/// Runs the implication analysis over a whole program.
pub fn analyze(ast: &Ast) -> ImplicationMap {
    let mut map = ImplicationMap::empty(ast.n_branches());
    // A condition variable that resolves to a global (or names a
    // function) is off-limits: calls between the two branches could
    // rewrite it.
    let mut global_names: BTreeSet<&str> = ast.globals.iter().map(|g| g.name.as_str()).collect();
    global_names.extend(ast.funcs.iter().map(|f| f.name.as_str()));
    for f in &ast.funcs {
        analyze_func(f, &global_names, &mut map);
    }
    map
}

/// The set of variable names a statement's *header* expressions may
/// write. Nested bodies own their own CFG nodes, so only the
/// expressions evaluated *at* this node are charged here.
#[derive(Debug, Default, Clone)]
struct Writes {
    names: BTreeSet<String>,
    /// A store through a pointer, array element, or field — may alias
    /// anything, so it invalidates every implication crossing it.
    wild: bool,
}

impl Writes {
    fn hits(&self, vars: &BTreeSet<String>) -> bool {
        self.wild || vars.iter().any(|v| self.names.contains(v))
    }
}

fn expr_writes(e: &Expr, w: &mut Writes) {
    walk_expr(e, &mut |x| match &x.kind {
        ExprKind::Assign { lhs, .. } => match &lhs.kind {
            ExprKind::Ident(n) => {
                w.names.insert(n.clone());
            }
            _ => w.wild = true,
        },
        ExprKind::IncDec { expr, .. } => match &expr.kind {
            ExprKind::Ident(n) => {
                w.names.insert(n.clone());
            }
            _ => w.wild = true,
        },
        // Calls cannot write a never-address-taken local (the only
        // variables an implication is allowed to read).
        _ => {}
    });
}

fn header_writes(s: &Stmt) -> Writes {
    let mut w = Writes::default();
    match &s.kind {
        StmtKind::Decl { name, init, .. } => {
            if let Some(e) = init {
                expr_writes(e, &mut w);
            }
            w.names.insert(name.clone());
        }
        StmtKind::Expr(e) | StmtKind::Return(Some(e)) => expr_writes(e, &mut w),
        StmtKind::If { cond, .. }
        | StmtKind::While { cond, .. }
        | StmtKind::DoWhile { cond, .. } => expr_writes(cond, &mut w),
        StmtKind::For { cond, step, .. } => {
            // The condition node and the step node share this StmtId;
            // charging both expressions to both nodes is conservative.
            if let Some(c) = cond {
                expr_writes(c, &mut w);
            }
            if let Some(st) = step {
                expr_writes(st, &mut w);
            }
        }
        StmtKind::Switch { scrutinee, .. } => expr_writes(scrutinee, &mut w),
        StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue | StmtKind::Block(_) => {}
    }
    w
}

/// Visits every statement of a block, recursing into all nested bodies
/// (including `for` initializers and `switch` arms).
fn visit_stmts<'a>(b: &'a Block, f: &mut impl FnMut(&'a Stmt)) {
    for s in &b.stmts {
        visit_stmt(s, f);
    }
}

fn visit_stmt<'a>(s: &'a Stmt, f: &mut impl FnMut(&'a Stmt)) {
    f(s);
    match &s.kind {
        StmtKind::If { then_b, else_b, .. } => {
            visit_stmts(then_b, f);
            if let Some(e) = else_b {
                visit_stmts(e, f);
            }
        }
        StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => visit_stmts(body, f),
        StmtKind::For { init, body, .. } => {
            if let Some(i) = init {
                visit_stmt(i, f);
            }
            visit_stmts(body, f);
        }
        StmtKind::Switch { cases, default, .. } => {
            for c in cases {
                for st in &c.body {
                    visit_stmt(st, f);
                }
            }
            if let Some(d) = default {
                for st in d {
                    visit_stmt(st, f);
                }
            }
        }
        StmtKind::Block(b) => visit_stmts(b, f),
        _ => {}
    }
}

/// A normalized condition: canonical structural key, overall negation
/// parity, and the variables it reads. `None` when the condition is not
/// pure (or uses constructs the canonicalizer does not model).
fn norm_cond(e: &Expr) -> Option<(String, bool, BTreeSet<String>)> {
    let mut idents = BTreeSet::new();
    let mut pure = true;
    walk_expr(e, &mut |x| match &x.kind {
        ExprKind::IntLit(_) => {}
        ExprKind::Ident(n) => {
            idents.insert(n.clone());
        }
        ExprKind::Unary { .. } | ExprKind::Binary { .. } => {}
        _ => pure = false,
    });
    if !pure {
        return None;
    }
    // Strip `!` chains: each one flips the branch outcome exactly
    // (mini-C comparisons and `!` produce 0/1).
    let mut core = e;
    let mut neg = false;
    while let ExprKind::Unary {
        op: UnOp::Not,
        expr,
    } = &core.kind
    {
        neg = !neg;
        core = expr;
    }
    // Canonicalize the comparison layer so `x < n`, `n > x`, `x >= n`
    // and `n <= x` all share a key (with the right parity).
    use minic::ast::BinOp::*;
    let (key, cmp_neg) = match &core.kind {
        ExprKind::Binary { op, lhs, rhs } if op.is_comparison() => {
            let (l, r) = (ser(lhs), ser(rhs));
            match op {
                Eq | Ne => {
                    let (a, b) = if l <= r { (l, r) } else { (r, l) };
                    (format!("(eq {a} {b})"), *op == Ne)
                }
                Lt => (format!("(lt {l} {r})"), false),
                Gt => (format!("(lt {r} {l})"), false),
                Ge => (format!("(lt {l} {r})"), true),
                Le => (format!("(lt {r} {l})"), true),
                _ => unreachable!("is_comparison covers exactly these"),
            }
        }
        _ => (ser(core), false),
    };
    Some((key, neg ^ cmp_neg, idents))
}

/// Deterministic structural serialization of a pure condition subtree.
fn ser(e: &Expr) -> String {
    match &e.kind {
        ExprKind::IntLit(v) => format!("#{v}"),
        ExprKind::Ident(n) => format!("${n}"),
        ExprKind::Unary { op, expr } => format!("({op:?} {})", ser(expr)),
        ExprKind::Binary { op, lhs, rhs } => {
            format!("({op:?} {} {})", ser(lhs), ser(rhs))
        }
        _ => unreachable!("purity was checked before serialization"),
    }
}

/// Forward reachability from `starts`, never entering `banned`.
fn reach_avoiding(cfg: &Cfg, starts: &[NodeId], banned: NodeId) -> Vec<bool> {
    let mut seen = vec![false; cfg.nodes.len()];
    let mut stack: Vec<NodeId> = starts.iter().copied().filter(|s| *s != banned).collect();
    while let Some(n) = stack.pop() {
        if std::mem::replace(&mut seen[n.0 as usize], true) {
            continue;
        }
        for s in &cfg.nodes[n.0 as usize].succs {
            if *s != banned && !seen[s.0 as usize] {
                stack.push(*s);
            }
        }
    }
    seen
}

fn analyze_func(f: &FuncDef, global_names: &BTreeSet<&str>, map: &mut ImplicationMap) {
    // Statement-level conditions only: `&&`/`||`/`?:` live inside
    // expressions (no CFG condition node of their own) and a `case`
    // comparison's outcome is never a pure function of an earlier one.
    let mut conds: Vec<(BranchId, &Expr)> = Vec::new();
    let mut decl_counts: BTreeMap<&str, usize> = BTreeMap::new();
    let mut addr_taken: BTreeSet<&str> = BTreeSet::new();
    let mut stmt_writes: BTreeMap<u32, Writes> = BTreeMap::new();
    for p in &f.params {
        *decl_counts.entry(p.name.as_str()).or_insert(0) += 1;
    }
    visit_stmts(&f.body, &mut |s| {
        match &s.kind {
            StmtKind::If { branch, cond, .. }
            | StmtKind::While { branch, cond, .. }
            | StmtKind::DoWhile { branch, cond, .. } => conds.push((*branch, cond)),
            StmtKind::For {
                branch: Some(b),
                cond: Some(c),
                ..
            } => conds.push((*b, c)),
            StmtKind::Decl { name, .. } => {
                *decl_counts.entry(name.as_str()).or_insert(0) += 1;
            }
            _ => {}
        }
        stmt_writes.insert(s.id.0, header_writes(s));
        walk_stmt_header_exprs(s, &mut |e| {
            if let ExprKind::AddrOf(inner) = &e.kind {
                if let Some(n) = base_ident(inner) {
                    addr_taken.insert(n);
                }
            }
        });
    });
    if conds.len() < 2 {
        return;
    }

    let cfg = build_cfg(f);
    let dom = cfg.dominators();
    let empty = Writes::default();
    let node_writes: Vec<&Writes> = cfg
        .nodes
        .iter()
        .map(|n| match n.kind {
            NodeKind::Stmt(sid) | NodeKind::Cond(_, sid) => {
                stmt_writes.get(&sid.0).unwrap_or(&empty)
            }
            NodeKind::Entry | NodeKind::Exit => &empty,
        })
        .collect();

    // Resolve each statement condition to its CFG node and normal form.
    struct Cand {
        bid: BranchId,
        node: NodeId,
        key: String,
        neg: bool,
        vars: BTreeSet<String>,
    }
    let mut cands: Vec<Cand> = Vec::new();
    for (bid, cond) in conds {
        let Some(node) = cfg.cond_node(bid) else {
            continue;
        };
        let Some((key, neg, vars)) = norm_cond(cond) else {
            continue;
        };
        // Every variable read must be a unique, never-address-taken
        // local — the only identities a call or store cannot touch.
        let safe = vars.iter().all(|v| {
            decl_counts.get(v.as_str()) == Some(&1)
                && !global_names.contains(v.as_str())
                && !addr_taken.contains(v.as_str())
        });
        if safe {
            cands.push(Cand {
                bid,
                node,
                key,
                neg,
                vars,
            });
        }
    }
    cands.sort_by_key(|c| c.bid);

    for bi in 0..cands.len() {
        if map.get(cands[bi].bid).is_some() {
            continue;
        }
        // Among all valid impliers, the smallest BranchId wins: the
        // earliest equivalent branch, which roots chains directly.
        for ai in 0..cands.len() {
            if ai == bi {
                continue;
            }
            let (a, b) = (&cands[ai], &cands[bi]);
            if a.key != b.key || !dom.strictly_dominates(a.node, b.node) {
                continue;
            }
            // Rule 5: no interfering write on any a-avoiding path a→b.
            let fwd = reach_avoiding(&cfg, &cfg.nodes[a.node.0 as usize].succs, a.node);
            let bwd = {
                // Backward reachability from b in the graph minus a.
                let preds = cfg.preds();
                let mut seen = vec![false; cfg.nodes.len()];
                let mut stack = vec![b.node];
                while let Some(n) = stack.pop() {
                    if std::mem::replace(&mut seen[n.0 as usize], true) {
                        continue;
                    }
                    for p in &preds[n.0 as usize] {
                        if *p != a.node && !seen[p.0 as usize] {
                            stack.push(*p);
                        }
                    }
                }
                seen
            };
            let interfered =
                (0..cfg.nodes.len()).any(|w| fwd[w] && bwd[w] && node_writes[w].hits(&a.vars));
            if interfered {
                continue;
            }
            map.implied[b.bid.0 as usize] = Some(Suppressed {
                by: a.bid,
                negated: a.neg != b.neg,
            });
            break;
        }
    }
}

/// Walks only the expressions evaluated *at* this statement's own CFG
/// node(s) plus nothing nested — but for address-taken detection we must
/// see every expression in the function, so this recursion mirrors
/// `walk_stmt_exprs` over headers while `visit_stmt` supplies the
/// nesting.
fn walk_stmt_header_exprs<'a>(s: &'a Stmt, f: &mut impl FnMut(&'a Expr)) {
    match &s.kind {
        StmtKind::Decl { init, .. } => {
            if let Some(e) = init {
                walk_expr(e, f);
            }
        }
        StmtKind::Expr(e) | StmtKind::Return(Some(e)) => walk_expr(e, f),
        StmtKind::If { cond, .. }
        | StmtKind::While { cond, .. }
        | StmtKind::DoWhile { cond, .. } => walk_expr(cond, f),
        StmtKind::For { cond, step, .. } => {
            if let Some(c) = cond {
                walk_expr(c, f);
            }
            if let Some(st) = step {
                walk_expr(st, f);
            }
        }
        StmtKind::Switch { scrutinee, .. } => walk_expr(scrutinee, f),
        StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue | StmtKind::Block(_) => {}
    }
}

/// The identifier at the bottom of an lvalue chain (`&x`, `&x[i]`,
/// `&x.f`, `&*p` all mark the chain's base).
fn base_ident(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Ident(n) => Some(n),
        ExprKind::Index { base, .. } | ExprKind::Field { base, .. } => base_ident(base),
        ExprKind::Deref(inner) | ExprKind::AddrOf(inner) => base_ident(inner),
        ExprKind::Unary { expr, .. } | ExprKind::Cast { expr, .. } => base_ident(expr),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::parse;

    fn imap(src: &str) -> ImplicationMap {
        let ast = parse(src).unwrap();
        analyze(&ast)
    }

    #[test]
    fn retest_of_unmodified_local_is_implied() {
        let m = imap(
            r#"
            int main(int argc, char **argv) {
                int p = argc;
                if (p) { sys_getuid(); }
                if (p) { sys_time(); }
                return 0;
            }
        "#,
        );
        assert_eq!(
            m.get(BranchId(1)),
            Some(Suppressed {
                by: BranchId(0),
                negated: false
            })
        );
        assert_eq!(m.get(BranchId(0)), None, "the root is never implied");
    }

    #[test]
    fn negated_retest_is_implied_with_parity() {
        let m = imap(
            r#"
            int main(int argc, char **argv) {
                int x = argc;
                int n = 4;
                if (x < n) { sys_getuid(); }
                if (x >= n) { sys_time(); }
                if (!(x < n)) { sys_getuid(); }
                if (n > x) { sys_time(); }
                return 0;
            }
        "#,
        );
        let root = BranchId(0);
        assert_eq!(
            m.get(BranchId(1)),
            Some(Suppressed {
                by: root,
                negated: true
            })
        );
        assert_eq!(
            m.get(BranchId(2)),
            Some(Suppressed {
                by: root,
                negated: true
            })
        );
        assert_eq!(
            m.get(BranchId(3)),
            Some(Suppressed {
                by: root,
                negated: false
            })
        );
    }

    #[test]
    fn write_between_tests_blocks_the_implication() {
        let m = imap(
            r#"
            int main(int argc, char **argv) {
                int p = argc;
                if (p) { sys_getuid(); }
                p = p - 1;
                if (p) { sys_time(); }
                return 0;
            }
        "#,
        );
        assert_eq!(m.get(BranchId(1)), None);
    }

    #[test]
    fn write_on_one_arm_blocks_the_implication() {
        // The write sits inside the first branch's then-arm: some paths
        // to the re-test carry it, so the implication must not fire.
        let m = imap(
            r#"
            int main(int argc, char **argv) {
                int p = argc;
                if (p) { p = 0; }
                if (p) { sys_time(); }
                return 0;
            }
        "#,
        );
        assert_eq!(m.get(BranchId(1)), None);
    }

    #[test]
    fn loop_body_write_blocks_but_loop_exit_retest_holds() {
        // `while (p) { p = p - 1; } if (p)`: at the `if`, the most
        // recent `while` evaluation was the exit check on the *final*
        // value — but the body write can sit between two evaluations of
        // the `while` itself, so only the `if` (which always runs after
        // the final, write-free exit check) is implied.
        let m = imap(
            r#"
            int main(int argc, char **argv) {
                int p = argc;
                while (p) { p = p - 1; }
                if (p) { sys_time(); }
                return 0;
            }
        "#,
        );
        assert_eq!(
            m.get(BranchId(1)),
            Some(Suppressed {
                by: BranchId(0),
                negated: false
            })
        );
    }

    #[test]
    fn address_taken_variable_is_never_implied() {
        let m = imap(
            r#"
            int main(int argc, char **argv) {
                int p = argc;
                int *q = &p;
                if (p) { *q = 0; }
                if (p) { sys_time(); }
                return 0;
            }
        "#,
        );
        assert_eq!(m.get(BranchId(1)), None);
    }

    #[test]
    fn global_variable_is_never_implied() {
        let m = imap(
            r#"
            int g = 1;
            int poke() { g = 0; return 0; }
            int main(int argc, char **argv) {
                if (g) { poke(); }
                if (g) { sys_time(); }
                return 0;
            }
        "#,
        );
        assert_eq!(m.get(BranchId(1)), None);
    }

    #[test]
    fn impure_conditions_are_skipped() {
        let m = imap(
            r#"
            int f(int x) { return x; }
            int main(int argc, char **argv) {
                if (f(argc)) { sys_getuid(); }
                if (f(argc)) { sys_time(); }
                if (argv[0]) { sys_getuid(); }
                if (argv[0]) { sys_time(); }
                return 0;
            }
        "#,
        );
        assert_eq!(m.n_implied(), 0);
    }

    #[test]
    fn non_dominating_same_condition_is_not_implied() {
        // Both `if (p)` tests live on sibling arms: neither dominates
        // the other, so no implication either way.
        let m = imap(
            r#"
            int main(int argc, char **argv) {
                int p = argc;
                int q = argc + 1;
                if (q) { if (p) { sys_getuid(); } } else { if (p) { sys_time(); } }
                return 0;
            }
        "#,
        );
        assert_eq!(m.get(BranchId(1)), None);
        assert_eq!(m.get(BranchId(2)), None);
    }

    #[test]
    fn chain_roots_at_the_earliest_branch() {
        let m = imap(
            r#"
            int main(int argc, char **argv) {
                int p = argc;
                if (p) { sys_getuid(); }
                if (p) { sys_time(); }
                if (p) { sys_getuid(); }
                return 0;
            }
        "#,
        );
        assert_eq!(m.get(BranchId(1)).unwrap().by, BranchId(0));
        assert_eq!(m.get(BranchId(2)).unwrap().by, BranchId(0));
        assert_eq!(m.n_implied(), 2);
    }

    #[test]
    fn same_name_in_other_function_does_not_confuse() {
        let m = imap(
            r#"
            int helper(int p) {
                if (p) { return 1; }
                return 0;
            }
            int main(int argc, char **argv) {
                int p = argc;
                if (p) { helper(p); }
                if (p) { sys_time(); }
                return 0;
            }
        "#,
        );
        // helper's `if (p)` (b0) is in another function; main's re-test
        // (b2) is implied by main's first test (b1) only.
        assert_eq!(m.get(BranchId(0)), None);
        assert_eq!(
            m.get(BranchId(2)),
            Some(Suppressed {
                by: BranchId(1),
                negated: false
            })
        );
    }
}
