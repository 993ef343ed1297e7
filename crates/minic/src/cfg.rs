//! Statement-level control-flow graphs.
//!
//! The static analysis (the `staticax` crate in this workspace) runs its
//! fixed points over the structured AST, but the CFG is the ground truth
//! for reachability questions: which branches can execute, which
//! statements are dead, and how conditions relate to the paths the
//! replay engine must distinguish. The [`Dominators`] analysis below
//! feeds `staticax`'s branch-implication pass. Tests also use it to
//! validate compiler output against an independent derivation of
//! control flow.

use crate::ast::*;

/// Index of a CFG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// What a CFG node represents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// Function entry.
    Entry,
    /// Function exit (all returns and fallthrough converge here).
    Exit,
    /// A non-branching statement.
    Stmt(StmtId),
    /// The evaluation of a branch condition; successors are ordered
    /// `[taken, not-taken]`.
    Cond(BranchId, StmtId),
}

/// One node with its successor edges.
#[derive(Debug, Clone)]
pub struct Node {
    /// The node payload.
    pub kind: NodeKind,
    /// Successor nodes. For [`NodeKind::Cond`], index 0 is the true edge.
    pub succs: Vec<NodeId>,
}

/// A per-function control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Function name (for diagnostics).
    pub func: String,
    /// All nodes; `entry` and `exit` index into this.
    pub nodes: Vec<Node>,
    /// The entry node.
    pub entry: NodeId,
    /// The exit node.
    pub exit: NodeId,
}

impl Cfg {
    /// Nodes reachable from entry.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.entry];
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n.0 as usize], true) {
                continue;
            }
            for s in &self.nodes[n.0 as usize].succs {
                if !seen[s.0 as usize] {
                    stack.push(*s);
                }
            }
        }
        seen
    }

    /// All branch ids that appear on reachable condition nodes.
    pub fn reachable_branches(&self) -> Vec<BranchId> {
        let seen = self.reachable();
        let mut out = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if seen[i] {
                if let NodeKind::Cond(bid, _) = n.kind {
                    out.push(bid);
                }
            }
        }
        out.sort();
        out
    }

    /// Predecessor lists (inverse of `succs`).
    pub fn preds(&self) -> Vec<Vec<NodeId>> {
        let mut preds = vec![Vec::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            for s in &n.succs {
                preds[s.0 as usize].push(NodeId(i as u32));
            }
        }
        preds
    }

    /// Dominator sets: `a` dominates `b` iff every path entry→`b` passes
    /// through `a`.
    pub fn dominators(&self) -> Dominators {
        let preds = self.preds();
        Dominators::solve(self.nodes.len(), self.entry, |n| {
            preds[n.0 as usize].clone()
        })
    }

    /// Post-dominator sets: `a` post-dominates `b` iff every path
    /// `b`→exit passes through `a` (dominators of the reversed graph,
    /// rooted at exit).
    pub fn post_dominators(&self) -> Dominators {
        Dominators::solve(self.nodes.len(), self.exit, |n| {
            self.nodes[n.0 as usize].succs.clone()
        })
    }

    /// The condition node carrying branch `bid`, if any. `For` step nodes
    /// share the statement id but not the `Cond` kind, so the lookup is
    /// unambiguous.
    pub fn cond_node(&self, bid: BranchId) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Cond(b, _) if b == bid))
            .map(|i| NodeId(i as u32))
    }
}

/// Dominator (or post-dominator) sets over one [`Cfg`], solved by the
/// classic iterative data-flow equations on bitsets:
/// `dom(root) = {root}`, `dom(n) = {n} ∪ ⋂ dom(preds(n))`.
///
/// Nodes unreachable from the root keep the full set (the equation's
/// top element); [`Dominators::dominates`] reports `false` for them so
/// callers never derive facts about code that cannot execute.
#[derive(Debug, Clone)]
pub struct Dominators {
    /// One bitset per node; bit `a` set in `sets[b]` means `a dom b`.
    sets: Vec<Vec<u64>>,
    /// Nodes reachable from the root of the solve.
    reachable: Vec<bool>,
}

impl Dominators {
    fn solve(n: usize, root: NodeId, preds_of: impl Fn(NodeId) -> Vec<NodeId>) -> Dominators {
        let words = n.div_ceil(64);
        let full = vec![u64::MAX; words];
        let mut sets = vec![full; n];
        let mut only_self = vec![0u64; words];
        only_self[root.0 as usize / 64] |= 1 << (root.0 as usize % 64);
        sets[root.0 as usize] = only_self;

        // Reachability from the root along the (possibly reversed) edges
        // the caller handed us, i.e. against the `preds_of` direction.
        let mut succs = vec![Vec::new(); n];
        for b in 0..n {
            for p in preds_of(NodeId(b as u32)) {
                succs[p.0 as usize].push(b);
            }
        }
        let mut reachable = vec![false; n];
        let mut stack = vec![root.0 as usize];
        while let Some(v) = stack.pop() {
            if std::mem::replace(&mut reachable[v], true) {
                continue;
            }
            stack.extend(succs[v].iter().copied().filter(|s| !reachable[*s]));
        }

        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..n {
                if b == root.0 as usize || !reachable[b] {
                    continue;
                }
                let mut next = vec![u64::MAX; words];
                for p in preds_of(NodeId(b as u32)) {
                    if !reachable[p.0 as usize] {
                        continue;
                    }
                    for (w, pw) in next.iter_mut().zip(&sets[p.0 as usize]) {
                        *w &= pw;
                    }
                }
                next[b / 64] |= 1 << (b % 64);
                if next != sets[b] {
                    sets[b] = next;
                    changed = true;
                }
            }
        }
        Dominators { sets, reachable }
    }

    /// Does `a` dominate `b` (reflexively)? `false` when `b` is
    /// unreachable from the solve's root.
    pub fn dominates(&self, a: NodeId, b: NodeId) -> bool {
        self.reachable[b.0 as usize]
            && self.sets[b.0 as usize][a.0 as usize / 64] >> (a.0 as usize % 64) & 1 == 1
    }

    /// Does `a` dominate `b` with `a != b`?
    pub fn strictly_dominates(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Was `n` reachable from the solve's root?
    pub fn is_reachable(&self, n: NodeId) -> bool {
        self.reachable[n.0 as usize]
    }
}

/// Builds the CFG of one function definition.
pub fn build_cfg(def: &FuncDef) -> Cfg {
    let mut b = Builder {
        nodes: vec![
            Node {
                kind: NodeKind::Entry,
                succs: Vec::new(),
            },
            Node {
                kind: NodeKind::Exit,
                succs: Vec::new(),
            },
        ],
        exit: NodeId(1),
        breaks: Vec::new(),
        continues: Vec::new(),
    };
    let entry = NodeId(0);
    let ends = b.block(&def.body, vec![entry]);
    // Fallthrough reaches exit (the compiler's implicit `return 0`).
    for e in ends {
        b.connect(e, NodeId(1));
    }
    Cfg {
        func: def.name.clone(),
        nodes: b.nodes,
        entry,
        exit: NodeId(1),
    }
}

struct Builder {
    nodes: Vec<Node>,
    exit: NodeId,
    breaks: Vec<Vec<NodeId>>,
    continues: Vec<Vec<NodeId>>,
}

impl Builder {
    fn add(&mut self, kind: NodeKind) -> NodeId {
        self.nodes.push(Node {
            kind,
            succs: Vec::new(),
        });
        NodeId(self.nodes.len() as u32 - 1)
    }

    fn connect(&mut self, from: NodeId, to: NodeId) {
        let succs = &mut self.nodes[from.0 as usize].succs;
        if !succs.contains(&to) {
            succs.push(to);
        }
    }

    fn connect_all(&mut self, froms: &[NodeId], to: NodeId) {
        for f in froms {
            self.connect(*f, to);
        }
    }

    /// Adds a block; `preds` are the dangling edges flowing in. Returns the
    /// dangling edges flowing out (empty if the block never falls through).
    fn block(&mut self, b: &Block, preds: Vec<NodeId>) -> Vec<NodeId> {
        let mut cur = preds;
        for s in &b.stmts {
            cur = self.stmt(s, cur);
        }
        cur
    }

    fn stmt(&mut self, s: &Stmt, preds: Vec<NodeId>) -> Vec<NodeId> {
        match &s.kind {
            StmtKind::Decl { .. } | StmtKind::Expr(_) => {
                let n = self.add(NodeKind::Stmt(s.id));
                self.connect_all(&preds, n);
                vec![n]
            }
            StmtKind::If {
                branch,
                then_b,
                else_b,
                ..
            } => {
                let c = self.add(NodeKind::Cond(*branch, s.id));
                self.connect_all(&preds, c);
                let mut out = self.block(then_b, vec![c]);
                match else_b {
                    Some(e) => out.extend(self.block(e, vec![c])),
                    None => out.push(c),
                }
                out
            }
            StmtKind::While { branch, body, .. } => {
                let c = self.add(NodeKind::Cond(*branch, s.id));
                self.connect_all(&preds, c);
                self.breaks.push(Vec::new());
                self.continues.push(Vec::new());
                let body_out = self.block(body, vec![c]);
                self.connect_all(&body_out, c);
                let conts = self.continues.pop().expect("pushed above");
                self.connect_all(&conts, c);
                let mut out = self.breaks.pop().expect("pushed above");
                out.push(c);
                out
            }
            StmtKind::DoWhile { branch, body, .. } => {
                let c = self.add(NodeKind::Cond(*branch, s.id));
                self.breaks.push(Vec::new());
                self.continues.push(Vec::new());
                // Body entry: preds flow into the first stmt; we model the
                // body with a pass-through by connecting preds directly.
                let body_out = self.block(body, preds);
                self.connect_all(&body_out, c);
                let conts = self.continues.pop().expect("pushed above");
                self.connect_all(&conts, c);
                // True edge loops back: approximate by re-entering the body
                // is structurally awkward node-wise; the back edge goes to
                // the condition's own node (self-loop approximation).
                self.connect(c, c);
                let mut out = self.breaks.pop().expect("pushed above");
                out.push(c);
                out
            }
            StmtKind::For {
                branch,
                init,
                step,
                body,
                ..
            } => {
                let mut cur = preds;
                if let Some(i) = init {
                    cur = self.stmt(i, cur);
                }
                let c = match branch {
                    Some(b) => self.add(NodeKind::Cond(*b, s.id)),
                    None => self.add(NodeKind::Stmt(s.id)),
                };
                self.connect_all(&cur, c);
                self.breaks.push(Vec::new());
                self.continues.push(Vec::new());
                let body_out = self.block(body, vec![c]);
                let conts = self.continues.pop().expect("pushed above");
                let step_in: Vec<NodeId> = body_out.into_iter().chain(conts).collect();
                let back = if step.is_some() {
                    let sn = self.add(NodeKind::Stmt(s.id));
                    self.connect_all(&step_in, sn);
                    vec![sn]
                } else {
                    step_in
                };
                self.connect_all(&back, c);
                let mut out = self.breaks.pop().expect("pushed above");
                if branch.is_some() {
                    out.push(c);
                }
                out
            }
            StmtKind::Switch { cases, default, .. } => {
                self.breaks.push(Vec::new());
                let mut check_pred = preds;
                let mut fallthrough: Vec<NodeId> = Vec::new();
                let mut out = Vec::new();
                for c in cases {
                    let cn = self.add(NodeKind::Cond(c.branch, s.id));
                    self.connect_all(&check_pred, cn);
                    let mut body_in = vec![cn];
                    body_in.append(&mut fallthrough);
                    let mut cur = body_in;
                    for st in &c.body {
                        cur = self.stmt(st, cur);
                    }
                    fallthrough = cur;
                    check_pred = vec![cn];
                }
                match default {
                    Some(d) => {
                        let mut cur: Vec<NodeId> = check_pred;
                        cur.extend(fallthrough);
                        for st in d {
                            cur = self.stmt(st, cur);
                        }
                        out.extend(cur);
                    }
                    None => {
                        out.extend(check_pred);
                        out.extend(fallthrough);
                    }
                }
                out.extend(self.breaks.pop().expect("pushed above"));
                out
            }
            StmtKind::Return(_) => {
                let n = self.add(NodeKind::Stmt(s.id));
                self.connect_all(&preds, n);
                self.connect(n, self.exit);
                Vec::new()
            }
            StmtKind::Break => {
                let n = self.add(NodeKind::Stmt(s.id));
                self.connect_all(&preds, n);
                self.breaks
                    .last_mut()
                    .expect("checked break in scope")
                    .push(n);
                Vec::new()
            }
            StmtKind::Continue => {
                let n = self.add(NodeKind::Stmt(s.id));
                self.connect_all(&preds, n);
                self.continues
                    .last_mut()
                    .expect("checked continue in scope")
                    .push(n);
                Vec::new()
            }
            StmtKind::Block(b) => self.block(b, preds),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn cfg_of(src: &str) -> Cfg {
        let ast = parse(src).unwrap();
        build_cfg(&ast.funcs[0])
    }

    #[test]
    fn straight_line_chains_to_exit() {
        let cfg = cfg_of("int main() { int a = 1; int b = 2; return a + b; }");
        assert!(cfg.reachable()[cfg.exit.0 as usize]);
        assert_eq!(cfg.reachable_branches().len(), 0);
    }

    #[test]
    fn if_has_two_paths() {
        let cfg = cfg_of("int main() { int x = 1; if (x) { x = 2; } return x; }");
        assert_eq!(cfg.reachable_branches().len(), 1);
        // The condition node must have two successors.
        let cond = cfg
            .nodes
            .iter()
            .find(|n| matches!(n.kind, NodeKind::Cond(..)))
            .unwrap();
        assert_eq!(cond.succs.len(), 2);
    }

    #[test]
    fn while_has_back_edge() {
        let cfg = cfg_of("int main() { int i = 0; while (i < 3) { i++; } return i; }");
        let cond_id = cfg
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Cond(..)))
            .unwrap();
        // Some node's successor list contains the condition (the back edge).
        let has_back = cfg
            .nodes
            .iter()
            .enumerate()
            .any(|(i, n)| i > cond_id && n.succs.contains(&NodeId(cond_id as u32)));
        assert!(has_back);
    }

    #[test]
    fn code_after_return_is_unreachable() {
        let cfg = cfg_of("int main() { return 1; int x = 2; x = 3; return x; }");
        let reach = cfg.reachable();
        let unreachable = cfg
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| !reach[*i] && matches!(n.kind, NodeKind::Stmt(_)))
            .count();
        assert!(unreachable >= 2);
    }

    #[test]
    fn break_exits_loop() {
        let cfg = cfg_of("int main() { while (1) { break; } return 0; }");
        assert!(cfg.reachable()[cfg.exit.0 as usize]);
    }

    #[test]
    fn switch_cases_are_all_reachable() {
        let src = r#"
            int main() {
                int x = 2; int r = 0;
                switch (x) {
                    case 1: r = 1; break;
                    case 2: r = 2; break;
                    default: r = 9;
                }
                return r;
            }
        "#;
        let cfg = cfg_of(src);
        assert_eq!(cfg.reachable_branches().len(), 2);
    }

    #[test]
    fn for_loop_without_condition() {
        let cfg = cfg_of("int main() { for (;;) { break; } return 0; }");
        assert!(cfg.reachable()[cfg.exit.0 as usize]);
        assert!(cfg.reachable_branches().is_empty());
    }

    #[test]
    fn entry_dominates_everything_reachable() {
        let cfg = cfg_of("int main() { int x = 1; if (x) { x = 2; } return x; }");
        let dom = cfg.dominators();
        for (i, _) in cfg.nodes.iter().enumerate() {
            let n = NodeId(i as u32);
            if dom.is_reachable(n) {
                assert!(dom.dominates(cfg.entry, n), "entry must dominate {n:?}");
                assert!(dom.dominates(n, n), "dominance is reflexive at {n:?}");
            }
        }
        assert!(!dom.strictly_dominates(cfg.entry, cfg.entry));
    }

    #[test]
    fn sequential_conds_dominate_in_order() {
        // if (x) {} if (y) {}: the first condition dominates the second,
        // never the reverse, and neither then-body dominates the exit.
        let cfg = cfg_of(
            "int main() { int x = 1; int y = 2; if (x) { x = 3; } if (y) { y = 4; } return 0; }",
        );
        let conds: Vec<NodeId> = cfg
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Cond(..)))
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        assert_eq!(conds.len(), 2);
        let dom = cfg.dominators();
        assert!(dom.strictly_dominates(conds[0], conds[1]));
        assert!(!dom.dominates(conds[1], conds[0]));
        // A branch body (the `x = 3` statement) must not dominate exit.
        let then_stmt = NodeId(conds[0].0 + 1);
        assert!(!dom.dominates(then_stmt, cfg.exit));
    }

    #[test]
    fn branch_body_does_not_dominate_join() {
        let cfg = cfg_of("int main() { int x = 1; if (x) { x = 2; } else { x = 3; } return x; }");
        let dom = cfg.dominators();
        let cond = cfg.cond_node(BranchId(0)).unwrap();
        // The condition dominates both arms and the exit; neither arm
        // dominates the exit (the other arm bypasses it).
        for s in &cfg.nodes[cond.0 as usize].succs.clone() {
            assert!(dom.strictly_dominates(cond, *s));
            assert!(!dom.dominates(*s, cfg.exit));
        }
        assert!(dom.dominates(cond, cfg.exit));
    }

    #[test]
    fn loop_condition_dominates_body_but_not_vice_versa() {
        let cfg = cfg_of("int main() { int i = 0; while (i < 3) { i = i + 1; } return i; }");
        let dom = cfg.dominators();
        let cond = cfg.cond_node(BranchId(0)).unwrap();
        let body: Vec<NodeId> = cfg
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| *i > cond.0 as usize && matches!(n.kind, NodeKind::Stmt(_)) && *i != 1)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        assert!(!body.is_empty());
        for b in body {
            assert!(dom.strictly_dominates(cond, b));
            assert!(
                !dom.dominates(b, cond),
                "back edge must not invert dominance"
            );
        }
    }

    #[test]
    fn post_dominators_mirror_dominators() {
        let cfg = cfg_of("int main() { int x = 1; if (x) { x = 2; } return x; }");
        let pdom = cfg.post_dominators();
        // Exit post-dominates every node that can reach it.
        for (i, _) in cfg.nodes.iter().enumerate() {
            let n = NodeId(i as u32);
            if pdom.is_reachable(n) {
                assert!(pdom.dominates(cfg.exit, n));
            }
        }
        // The then-body does not post-dominate the condition (the
        // fall-through edge bypasses it).
        let cond = cfg.cond_node(BranchId(0)).unwrap();
        let then_stmt = cfg.nodes[cond.0 as usize].succs[0];
        assert!(!pdom.dominates(then_stmt, cond));
    }

    #[test]
    fn unreachable_nodes_are_not_dominated() {
        let cfg = cfg_of("int main() { return 1; int x = 2; return x; }");
        let dom = cfg.dominators();
        let reach = cfg.reachable();
        for (i, r) in reach.iter().enumerate() {
            let n = NodeId(i as u32);
            if !*r {
                assert!(!dom.is_reachable(n));
                assert!(!dom.dominates(cfg.entry, n));
            }
        }
    }
}
