//! Abstract syntax tree for mini-C.
//!
//! Branch locations are first-class: the parser assigns a stable
//! [`BranchId`] to every conditional construct (`if`, `while`, `for`,
//! `do`/`while`, `&&`, `||`, `?:`, and each `case` of a `switch`). A
//! `BranchId` is the paper's "branch location"; the instrumentation methods,
//! the analyses and the replay engine all speak in terms of these ids, which
//! is what makes a branch log recorded by one component consumable by
//! another.

use crate::span::{Span, UnitId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a branch *location* (a conditional in the source code).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct BranchId(pub u32);

impl fmt::Display for BranchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Identifier of an expression node, used to index checker side tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExprId(pub u32);

/// Identifier of a statement node, used to index checker side tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StmtId(pub u32);

/// The syntactic category a branch location came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchKind {
    /// An `if` condition.
    If,
    /// A `while` condition.
    While,
    /// A `do`/`while` condition.
    DoWhile,
    /// A `for` condition.
    For,
    /// Short-circuit `&&`.
    LogicalAnd,
    /// Short-circuit `||`.
    LogicalOr,
    /// The condition of a ternary `?:`.
    Ternary,
    /// One `case` comparison of a `switch`.
    SwitchCase,
}

/// Static metadata about one branch location.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchInfo {
    /// The branch location id.
    pub id: BranchId,
    /// What kind of conditional it is.
    pub kind: BranchKind,
    /// Source unit the branch lives in (application vs. library).
    pub unit: UnitId,
    /// Source line of the condition.
    pub line: u32,
    /// Source column of the condition.
    pub col: u32,
    /// Name of the enclosing function.
    pub func: String,
}

/// Syntactic base type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaseTy {
    /// `int` (64-bit in this dialect).
    Int,
    /// `char` (one byte, stored widened).
    Char,
    /// `void` (function returns / opaque pointers).
    Void,
    /// `struct <name>`.
    Struct(String),
}

/// A syntactic type: base type, pointer depth, and array dimensions.
///
/// `int *x[10]` parses as base `Int`, `stars == 1`, `dims == [Some(10)]`,
/// i.e. an array of ten `int *` — matching C for the subset we accept.
/// A dimension of `None` (written `[]`) is inferred from the initializer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeExpr {
    /// Base type.
    pub base: BaseTy,
    /// Number of `*`s applied to the base.
    pub stars: u8,
    /// Array dimensions, outermost first; `None` means "infer".
    pub dims: Vec<Option<usize>>,
    /// Source region of the type.
    pub span: Span,
}

impl TypeExpr {
    /// A plain (non-pointer, non-array) type expression.
    pub fn plain(base: BaseTy, span: Span) -> Self {
        TypeExpr {
            base,
            stars: 0,
            dims: Vec::new(),
            span,
        }
    }
}

/// Binary operators that do not short-circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    /// True for the six comparison operators.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Arithmetic negation `-`.
    Neg,
    /// Logical not `!`.
    Not,
    /// Bitwise not `~`.
    BitNot,
}

/// Short-circuit logical operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogOp {
    /// `&&`.
    And,
    /// `||`.
    Or,
}

/// Increment/decrement forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IncDec {
    PreInc,
    PreDec,
    PostInc,
    PostDec,
}

/// An expression node.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Stable id for side tables.
    pub id: ExprId,
    /// The expression variant.
    pub kind: ExprKind,
    /// Source region.
    pub span: Span,
}

/// Expression variants.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer or character literal.
    IntLit(i64),
    /// String literal (becomes a pointer to read-only data).
    StrLit(Vec<u8>),
    /// Identifier (local, parameter, global, or function name).
    Ident(String),
    /// Unary `-`, `!`, `~`.
    Unary { op: UnOp, expr: Box<Expr> },
    /// Pointer dereference `*e`.
    Deref(Box<Expr>),
    /// Address-of `&e`.
    AddrOf(Box<Expr>),
    /// Non-short-circuit binary operation.
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Short-circuit `&&` / `||`; a branch location.
    Logical {
        op: LogOp,
        branch: BranchId,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Ternary `cond ? a : b`; a branch location.
    Ternary {
        branch: BranchId,
        cond: Box<Expr>,
        then_e: Box<Expr>,
        else_e: Box<Expr>,
    },
    /// Assignment, plain (`op == None`) or compound (`op == Some(+)` etc.).
    Assign {
        op: Option<BinOp>,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `++`/`--` in prefix or postfix position.
    IncDec { op: IncDec, expr: Box<Expr> },
    /// Direct function call (user function or builtin).
    Call { callee: String, args: Vec<Expr> },
    /// Array/pointer indexing `base[index]`.
    Index { base: Box<Expr>, index: Box<Expr> },
    /// Struct field access `base.field` or `base->field` (`arrow == true`).
    Field {
        base: Box<Expr>,
        field: String,
        arrow: bool,
    },
    /// `sizeof(type)`, in abstract cells.
    Sizeof(TypeExpr),
    /// C-style cast `(type)expr`.
    Cast { ty: TypeExpr, expr: Box<Expr> },
}

/// A `{ ... }` block of statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The statements in order.
    pub stmts: Vec<Stmt>,
    /// Source region of the whole block.
    pub span: Span,
}

/// A statement node.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Stable id for side tables (e.g. local slot assignment).
    pub id: StmtId,
    /// The statement variant.
    pub kind: StmtKind,
    /// Source region.
    pub span: Span,
}

/// One `case` arm of a `switch`.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchCase {
    /// The (constant) case value.
    pub value: i64,
    /// Branch location of the implicit `scrutinee == value` comparison.
    pub branch: BranchId,
    /// Statements of the arm (may be empty: fallthrough).
    pub body: Vec<Stmt>,
    /// Source region of the `case` label.
    pub span: Span,
}

/// Statement variants.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Local variable declaration with optional scalar initializer.
    Decl {
        name: String,
        ty: TypeExpr,
        init: Option<Expr>,
    },
    /// Expression statement.
    Expr(Expr),
    /// `if` with optional `else`; a branch location.
    If {
        branch: BranchId,
        cond: Expr,
        then_b: Block,
        else_b: Option<Block>,
    },
    /// `while` loop; a branch location.
    While {
        branch: BranchId,
        cond: Expr,
        body: Block,
    },
    /// `do { } while (cond);`; a branch location.
    DoWhile {
        branch: BranchId,
        body: Block,
        cond: Expr,
    },
    /// `for` loop; the condition (if present) is a branch location.
    For {
        branch: Option<BranchId>,
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Block,
    },
    /// `switch` over an integer scrutinee.
    Switch {
        scrutinee: Expr,
        cases: Vec<SwitchCase>,
        default: Option<Vec<Stmt>>,
    },
    /// `return` with optional value.
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// Nested block.
    Block(Block),
}

/// A global-variable initializer.
#[derive(Debug, Clone, PartialEq)]
pub enum Init {
    /// A single constant expression (or string literal).
    Expr(Expr),
    /// `{ a, b, c }` aggregate initializer.
    List(Vec<Init>),
}

/// A struct definition.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    /// Struct tag name.
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<FieldDef>,
    /// Source region.
    pub span: Span,
    /// Defining unit.
    pub unit: UnitId,
}

/// One field of a struct.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: TypeExpr,
    /// Source region.
    pub span: Span,
}

/// A global variable definition.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDef {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: TypeExpr,
    /// Optional initializer (must be constant).
    pub init: Option<Init>,
    /// Source region.
    pub span: Span,
    /// Defining unit.
    pub unit: UnitId,
}

/// One function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared type (arrays decay to pointers).
    pub ty: TypeExpr,
    /// Source region.
    pub span: Span,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: TypeExpr,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Function body.
    pub body: Block,
    /// Source region of the header.
    pub span: Span,
    /// Defining unit.
    pub unit: UnitId,
}

/// A parsed (but not yet checked) program: all units merged.
#[derive(Debug, Clone, Default)]
pub struct Ast {
    /// Unit names in parse order; `UnitId(i)` names `units[i]`.
    pub units: Vec<String>,
    /// Struct definitions.
    pub structs: Vec<StructDef>,
    /// Global variables.
    pub globals: Vec<GlobalDef>,
    /// Function definitions.
    pub funcs: Vec<FuncDef>,
    /// Table of every branch location, indexed by `BranchId`.
    pub branches: Vec<BranchInfo>,
    /// Total number of expression ids handed out.
    pub n_exprs: u32,
    /// Total number of statement ids handed out.
    pub n_stmts: u32,
}

impl Ast {
    /// Looks up a function definition by name.
    pub fn func(&self, name: &str) -> Option<&FuncDef> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Number of branch locations in the whole program.
    pub fn n_branches(&self) -> usize {
        self.branches.len()
    }
}

/// Walks all expressions of a statement, calling `f` on each (pre-order).
pub fn walk_stmt_exprs<'a>(stmt: &'a Stmt, f: &mut impl FnMut(&'a Expr)) {
    match &stmt.kind {
        StmtKind::Decl { init, .. } => {
            if let Some(e) = init {
                walk_expr(e, f);
            }
        }
        StmtKind::Expr(e) => walk_expr(e, f),
        StmtKind::If {
            cond,
            then_b,
            else_b,
            ..
        } => {
            walk_expr(cond, f);
            walk_block_exprs(then_b, f);
            if let Some(b) = else_b {
                walk_block_exprs(b, f);
            }
        }
        StmtKind::While { cond, body, .. } => {
            walk_expr(cond, f);
            walk_block_exprs(body, f);
        }
        StmtKind::DoWhile { body, cond, .. } => {
            walk_block_exprs(body, f);
            walk_expr(cond, f);
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            if let Some(s) = init {
                walk_stmt_exprs(s, f);
            }
            if let Some(e) = cond {
                walk_expr(e, f);
            }
            if let Some(e) = step {
                walk_expr(e, f);
            }
            walk_block_exprs(body, f);
        }
        StmtKind::Switch {
            scrutinee,
            cases,
            default,
        } => {
            walk_expr(scrutinee, f);
            for c in cases {
                for s in &c.body {
                    walk_stmt_exprs(s, f);
                }
            }
            if let Some(d) = default {
                for s in d {
                    walk_stmt_exprs(s, f);
                }
            }
        }
        StmtKind::Return(Some(e)) => walk_expr(e, f),
        StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
        StmtKind::Block(b) => walk_block_exprs(b, f),
    }
}

/// Walks all expressions of a block (pre-order).
pub fn walk_block_exprs<'a>(block: &'a Block, f: &mut impl FnMut(&'a Expr)) {
    for s in &block.stmts {
        walk_stmt_exprs(s, f);
    }
}

/// Walks an expression tree (pre-order), calling `f` on each node.
pub fn walk_expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    match &e.kind {
        ExprKind::IntLit(_) | ExprKind::StrLit(_) | ExprKind::Ident(_) | ExprKind::Sizeof(_) => {}
        ExprKind::Unary { expr, .. }
        | ExprKind::Deref(expr)
        | ExprKind::AddrOf(expr)
        | ExprKind::IncDec { expr, .. }
        | ExprKind::Cast { expr, .. } => walk_expr(expr, f),
        ExprKind::Binary { lhs, rhs, .. }
        | ExprKind::Logical { lhs, rhs, .. }
        | ExprKind::Assign { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        ExprKind::Ternary {
            cond,
            then_e,
            else_e,
            ..
        } => {
            walk_expr(cond, f);
            walk_expr(then_e, f);
            walk_expr(else_e, f);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::Index { base, index } => {
            walk_expr(base, f);
            walk_expr(index, f);
        }
        ExprKind::Field { base, .. } => walk_expr(base, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Pos;

    fn dummy_expr(id: u32, kind: ExprKind) -> Expr {
        Expr {
            id: ExprId(id),
            kind,
            span: Span::point(UnitId(0), Pos::new(1, 1)),
        }
    }

    #[test]
    fn walk_expr_visits_all_nodes() {
        let e = dummy_expr(
            2,
            ExprKind::Binary {
                op: BinOp::Add,
                lhs: Box::new(dummy_expr(0, ExprKind::IntLit(1))),
                rhs: Box::new(dummy_expr(1, ExprKind::IntLit(2))),
            },
        );
        let mut seen = Vec::new();
        walk_expr(&e, &mut |x| seen.push(x.id.0));
        assert_eq!(seen, vec![2, 0, 1]);
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::Le.is_comparison());
        assert!(!BinOp::Shl.is_comparison());
    }
}
