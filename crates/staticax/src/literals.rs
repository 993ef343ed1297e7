//! String-literal cluster extraction, feeding the multi-byte forcing
//! escalation rule.
//!
//! The adaptive loop's second named rule (see `instrument::escalate`)
//! needs to know, per branch-location cluster, which string literals the
//! program compares input against: when replay reports a repair burst at
//! a `strcmp`/scan-loop cluster, the next plan generation forces the
//! whole literal as one priority set instead of letting the search
//! re-derive it byte by byte.
//!
//! The scan is purely syntactic: every call that passes a string literal
//! of length ≥ 2 to a *defined* function (the scan loop must be visible
//! for its branches to cluster) contributes that literal to the callee's
//! cluster, whose branch set is simply every branch location inside the
//! callee. Library string routines (`strcmp`, `strncmp`, hand-rolled
//! scanners) all fit this shape; a false positive only ever costs a few
//! UNSAT priority solves at replay time, never deployment overhead.
//!
//! A cluster is the plan layer's [`LiteralCluster`]: the branch
//! locations of the callee's body and the distinct literals (in
//! first-seen order) its call sites pass in, handed to
//! `instrument::escalate` as they are.

use instrument::LiteralCluster;
use minic::ast::{walk_block_exprs, ExprKind};
use minic::CompiledProgram;

/// Scans the whole program for calls passing string literals into
/// defined functions; one cluster per such callee with at least one
/// branch location. Deterministic: callees appear in definition order.
pub fn literal_clusters(cp: &CompiledProgram) -> Vec<LiteralCluster> {
    let ast = &cp.prog.ast;
    // Collect (callee → literals) over every function body.
    let mut found: Vec<(String, Vec<Vec<u8>>)> = Vec::new();
    for func in &ast.funcs {
        walk_block_exprs(&func.body, &mut |e| {
            let ExprKind::Call { callee, args } = &e.kind else {
                return;
            };
            if ast.func(callee).is_none() {
                return;
            }
            for a in args {
                let ExprKind::StrLit(bytes) = &a.kind else {
                    continue;
                };
                if bytes.len() < 2 {
                    continue;
                }
                let slot = match found.iter_mut().find(|(c, _)| c == callee) {
                    Some(s) => s,
                    None => {
                        found.push((callee.clone(), Vec::new()));
                        found.last_mut().expect("just pushed")
                    }
                };
                if !slot.1.contains(bytes) {
                    slot.1.push(bytes.clone());
                }
            }
        });
    }
    // Order clusters by callee definition order and attach branch sets.
    let mut clusters = Vec::new();
    for func in &ast.funcs {
        let Some((_, literals)) = found.iter().find(|(c, _)| *c == func.name) else {
            continue;
        };
        let branches: Vec<u32> = ast
            .branches
            .iter()
            .filter(|b| b.func == func.name)
            .map(|b| b.id.0)
            .collect();
        if branches.is_empty() {
            continue;
        }
        clusters.push(LiteralCluster {
            branches,
            literals: literals.clone(),
        });
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> CompiledProgram {
        let ast = minic::parse(src).expect("parses");
        let prog = minic::check(ast).expect("checks");
        minic::bytecode::compile(prog).expect("compiles")
    }

    #[test]
    fn strcmp_style_call_clusters_the_callee_branches() {
        let cp = compile(
            r#"
            int eq(char *a, char *b) {
                int i;
                for (i = 0; a[i] != 0 && b[i] != 0; i = i + 1) {
                    if (a[i] != b[i]) { return 0; }
                }
                return a[i] == b[i];
            }
            int main(int argc, char **argv) {
                if (argc > 1 && eq(argv[1], "GET /")) { return 1; }
                return 0;
            }
            "#,
        );
        let clusters = literal_clusters(&cp);
        assert_eq!(clusters.len(), 1);
        let c = &clusters[0];
        assert_eq!(c.literals, vec![b"GET /".to_vec()]);
        // eq's for-loop guard and body-if both cluster; main's branches
        // do not.
        assert!(!c.branches.is_empty());
        for b in &c.branches {
            assert_eq!(cp.branch(minic::BranchId(*b)).func, "eq");
        }
    }

    #[test]
    fn short_literals_and_branchless_callees_are_skipped() {
        let cp = compile(
            r#"
            int id(char *s) { return s[0]; }
            int pick(char *s) { if (s[0] > 32) { return 1; } return 0; }
            int main(int argc, char **argv) {
                int n;
                n = id("ab");
                n = n + pick("x");
                return n;
            }
            "#,
        );
        // `id` receives "ab" (long enough) but has no branches; `pick`
        // has a branch but only ever receives the too-short "x".
        assert!(literal_clusters(&cp).is_empty());
    }
}
