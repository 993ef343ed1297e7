//! Stack bytecode and the AST-to-bytecode compiler.
//!
//! One compiled program serves every execution mode: plain concrete runs,
//! instrumented (logging) runs, concolic analysis runs and guided replay
//! runs all execute the same bytecode under different
//! [`Host`](crate::vm::Host)s. Every source-level conditional compiles to
//! exactly one [`Instr::Branch`] carrying its [`BranchId`], which is what
//! makes branch logs comparable across runs.

use crate::ast::*;
use crate::check::{Callee, DeclSlot, Program, Res};
use crate::error::{Error, Result};
use crate::span::{Loc, Span};
use crate::types::*;

/// A bytecode instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Push a constant.
    Const(i64),
    /// Push the address of an interned string's rodata object.
    Str(StrId),
    /// Push the address of a frame cell.
    AddrLocal(u32),
    /// Push the address of a global's first cell.
    AddrGlobal(GlobalId),
    /// Pop an address, push the cell value.
    Load,
    /// Pop value then address, store the cell.
    Store,
    /// Like [`Instr::Store`] but masks the value to one byte first.
    StoreChar,
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,
    /// Swap the top two values.
    Swap,
    /// Rotate the third-from-top to the top: `[x y z]` becomes `[y z x]`.
    Rot3,
    /// Pop two values, push the binary operation result.
    Bin(BinOp),
    /// Pop one value, push the unary operation result.
    Un(UnOp),
    /// Mask the top of stack to one byte.
    MaskChar,
    /// Normalize the top of stack to 0/1.
    Bool,
    /// Pop index then pointer, push `ptr + index * stride`.
    PtrAdd(u32),
    /// Pop two pointers, push `(a - b) / stride`.
    PtrDiff(u32),
    /// Add a constant cell offset to the pointer on top (field access).
    Offset(u32),
    /// Unconditional jump.
    Jump(u32),
    /// Pop the condition of branch location `bid`; jump to `on_true` if
    /// nonzero, else `on_false`. The single instrumentable instruction.
    Branch {
        bid: BranchId,
        on_true: u32,
        on_false: u32,
    },
    /// Call a user function (argument count from its signature).
    Call(FuncId),
    /// Call a builtin with an explicit argument count.
    CallBuiltin(Builtin, u8),
    /// Pop the return value, pop the frame, push the value for the caller.
    Ret,
}

/// A compiled function body.
#[derive(Debug, Clone)]
pub struct CompiledFunc {
    /// Function name.
    pub name: String,
    /// Bytecode.
    pub code: Vec<Instr>,
    /// Source location of each instruction (parallel to `code`).
    pub locs: Vec<Loc>,
    /// Number of parameters (stored in frame cells `0..n_params`).
    pub n_params: usize,
    /// Frame size in cells.
    pub frame_cells: usize,
}

/// A compiled program: checked program plus bytecode for every function.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The checked program (AST, types, branch table, globals, strings).
    pub prog: Program,
    /// Compiled bodies, indexed by `FuncId`.
    pub funcs: Vec<CompiledFunc>,
}

impl CompiledProgram {
    /// Total number of branch locations.
    pub fn n_branches(&self) -> usize {
        self.prog.ast.branches.len()
    }

    /// Branch metadata by id.
    pub fn branch(&self, id: BranchId) -> &BranchInfo {
        self.prog.branch(id)
    }
}

/// Compiles a checked program to bytecode.
pub fn compile(prog: Program) -> Result<CompiledProgram> {
    let mut funcs = Vec::with_capacity(prog.funcs.len());
    for info in &prog.funcs {
        let def = &prog.ast.funcs[info.ast_index];
        let mut c = FnCompiler::new(&prog);
        c.block(&def.body)?;
        // Implicit `return 0` (reachable only if the body falls through).
        c.emit(Instr::Const(0), def.span);
        c.emit(Instr::Ret, def.span);
        let (code, locs) = c.finish()?;
        funcs.push(CompiledFunc {
            name: info.name.clone(),
            code,
            locs,
            n_params: info.params.len(),
            frame_cells: info.frame_cells,
        });
    }
    Ok(CompiledProgram { prog, funcs })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Label(usize);

#[derive(Debug, Clone, Copy)]
enum PatchSlot {
    Jump,
    BranchTrue,
    BranchFalse,
}

struct FnCompiler<'p> {
    prog: &'p Program,
    code: Vec<Instr>,
    locs: Vec<Loc>,
    labels: Vec<Option<u32>>,
    patches: Vec<(usize, PatchSlot, Label)>,
    break_stack: Vec<Label>,
    continue_stack: Vec<Label>,
}

impl<'p> FnCompiler<'p> {
    fn new(prog: &'p Program) -> Self {
        FnCompiler {
            prog,
            code: Vec::new(),
            locs: Vec::new(),
            labels: Vec::new(),
            patches: Vec::new(),
            break_stack: Vec::new(),
            continue_stack: Vec::new(),
        }
    }

    fn emit(&mut self, i: Instr, span: Span) {
        self.code.push(i);
        self.locs.push(Loc::from_span(span));
    }

    fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    fn bind(&mut self, l: Label) {
        debug_assert!(self.labels[l.0].is_none(), "label bound twice");
        self.labels[l.0] = Some(self.code.len() as u32);
    }

    fn emit_jump(&mut self, target: Label, span: Span) {
        self.patches
            .push((self.code.len(), PatchSlot::Jump, target));
        self.emit(Instr::Jump(u32::MAX), span);
    }

    fn emit_branch(&mut self, bid: BranchId, on_true: Label, on_false: Label, span: Span) {
        let pc = self.code.len();
        self.patches.push((pc, PatchSlot::BranchTrue, on_true));
        self.patches.push((pc, PatchSlot::BranchFalse, on_false));
        self.emit(
            Instr::Branch {
                bid,
                on_true: u32::MAX,
                on_false: u32::MAX,
            },
            span,
        );
    }

    fn finish(mut self) -> Result<(Vec<Instr>, Vec<Loc>)> {
        for (pc, slot, label) in &self.patches {
            let target = self.labels[label.0].expect("unbound label");
            match (&mut self.code[*pc], slot) {
                (Instr::Jump(t), PatchSlot::Jump) => *t = target,
                (Instr::Branch { on_true, .. }, PatchSlot::BranchTrue) => *on_true = target,
                (Instr::Branch { on_false, .. }, PatchSlot::BranchFalse) => *on_false = target,
                _ => unreachable!("patch slot does not match instruction"),
            }
        }
        Ok((self.code, self.locs))
    }

    // ---- type helpers -------------------------------------------------------

    fn ty(&self, e: &Expr) -> &Type {
        &self.prog.expr_ty[e.id.0 as usize]
    }

    fn stride_of_pointee(&self, e: &Expr) -> u32 {
        match self.ty(e).decayed() {
            Type::Ptr(p) => p.size_cells(&self.prog.structs).max(1) as u32,
            _ => 1,
        }
    }

    fn size_of(&self, t: &Type) -> u32 {
        t.size_cells(&self.prog.structs) as u32
    }

    // ---- statements ---------------------------------------------------------

    fn block(&mut self, b: &Block) -> Result<()> {
        for s in &b.stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<()> {
        match &s.kind {
            StmtKind::Decl { init, .. } => {
                if let Some(e) = init {
                    let DeclSlot { offset, ty } = self.prog.decl_slot[s.id.0 as usize]
                        .clone()
                        .expect("checked decl has a slot");
                    self.emit(Instr::AddrLocal(offset as u32), s.span);
                    self.value(e)?;
                    if ty == Type::Char {
                        self.emit(Instr::StoreChar, s.span);
                    } else {
                        self.emit(Instr::Store, s.span);
                    }
                }
                Ok(())
            }
            StmtKind::Expr(e) => {
                self.value(e)?;
                self.emit(Instr::Pop, s.span);
                Ok(())
            }
            StmtKind::If {
                branch,
                cond,
                then_b,
                else_b,
            } => {
                let lt = self.new_label();
                let lf = self.new_label();
                let lend = self.new_label();
                self.value(cond)?;
                self.emit_branch(*branch, lt, lf, cond.span);
                self.bind(lt);
                self.block(then_b)?;
                self.emit_jump(lend, s.span);
                self.bind(lf);
                if let Some(b) = else_b {
                    self.block(b)?;
                }
                self.bind(lend);
                Ok(())
            }
            StmtKind::While { branch, cond, body } => {
                let lcond = self.new_label();
                let lbody = self.new_label();
                let lend = self.new_label();
                self.bind(lcond);
                self.value(cond)?;
                self.emit_branch(*branch, lbody, lend, cond.span);
                self.bind(lbody);
                self.continue_stack.push(lcond);
                self.break_stack.push(lend);
                self.block(body)?;
                self.continue_stack.pop();
                self.break_stack.pop();
                self.emit_jump(lcond, s.span);
                self.bind(lend);
                Ok(())
            }
            StmtKind::DoWhile { branch, body, cond } => {
                let lbody = self.new_label();
                let lcond = self.new_label();
                let lend = self.new_label();
                self.bind(lbody);
                self.continue_stack.push(lcond);
                self.break_stack.push(lend);
                self.block(body)?;
                self.continue_stack.pop();
                self.break_stack.pop();
                self.bind(lcond);
                self.value(cond)?;
                self.emit_branch(*branch, lbody, lend, cond.span);
                self.bind(lend);
                Ok(())
            }
            StmtKind::For {
                branch,
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let lcond = self.new_label();
                let lbody = self.new_label();
                let lstep = self.new_label();
                let lend = self.new_label();
                self.bind(lcond);
                if let (Some(c), Some(b)) = (cond, branch) {
                    self.value(c)?;
                    self.emit_branch(*b, lbody, lend, c.span);
                }
                self.bind(lbody);
                self.continue_stack.push(lstep);
                self.break_stack.push(lend);
                self.block(body)?;
                self.continue_stack.pop();
                self.break_stack.pop();
                self.bind(lstep);
                if let Some(st) = step {
                    self.value(st)?;
                    self.emit(Instr::Pop, st.span);
                }
                self.emit_jump(lcond, s.span);
                self.bind(lend);
                Ok(())
            }
            StmtKind::Switch {
                scrutinee,
                cases,
                default,
            } => self.switch(s.span, scrutinee, cases, default.as_deref()),
            StmtKind::Return(value) => {
                match value {
                    Some(e) => self.value(e)?,
                    None => self.emit(Instr::Const(0), s.span),
                }
                self.emit(Instr::Ret, s.span);
                Ok(())
            }
            StmtKind::Break => {
                let target = *self.break_stack.last().expect("checked break in scope");
                self.emit_jump(target, s.span);
                Ok(())
            }
            StmtKind::Continue => {
                let target = *self
                    .continue_stack
                    .last()
                    .expect("checked continue in scope");
                self.emit_jump(target, s.span);
                Ok(())
            }
            StmtKind::Block(b) => self.block(b),
        }
    }

    fn switch(
        &mut self,
        span: Span,
        scrutinee: &Expr,
        cases: &[SwitchCase],
        default: Option<&[Stmt]>,
    ) -> Result<()> {
        let lend = self.new_label();
        let pre_labels: Vec<Label> = cases.iter().map(|_| self.new_label()).collect();
        let body_labels: Vec<Label> = cases.iter().map(|_| self.new_label()).collect();
        let ldefault_pre = self.new_label();
        let ldefault_body = self.new_label();

        self.value(scrutinee)?;
        for (c, pre) in cases.iter().zip(&pre_labels) {
            let lnext = self.new_label();
            self.emit(Instr::Dup, c.span);
            self.emit(Instr::Const(c.value), c.span);
            self.emit(Instr::Bin(BinOp::Eq), c.span);
            self.emit_branch(c.branch, *pre, lnext, c.span);
            self.bind(lnext);
        }
        // No case matched: discard the scrutinee, go to default (or end).
        self.emit(Instr::Pop, span);
        self.emit_jump(ldefault_pre, span);

        // Trampolines that discard the scrutinee copy before entering a body.
        for (pre, body) in pre_labels.iter().zip(&body_labels) {
            self.bind(*pre);
            self.emit(Instr::Pop, span);
            self.emit_jump(*body, span);
        }
        self.bind(ldefault_pre);
        self.emit_jump(ldefault_body, span);

        // Bodies laid out in order; fallthrough is sequential execution.
        self.break_stack.push(lend);
        for (c, body) in cases.iter().zip(&body_labels) {
            self.bind(*body);
            for st in &c.body {
                self.stmt(st)?;
            }
        }
        self.bind(ldefault_body);
        if let Some(d) = default {
            for st in d {
                self.stmt(st)?;
            }
        }
        self.break_stack.pop();
        self.bind(lend);
        Ok(())
    }

    // ---- expressions --------------------------------------------------------

    /// Compiles an expression for its value (arrays decay to addresses).
    fn value(&mut self, e: &Expr) -> Result<()> {
        match &e.kind {
            ExprKind::IntLit(v) => {
                self.emit(Instr::Const(*v), e.span);
                Ok(())
            }
            ExprKind::StrLit(_) => {
                let id = self.prog.str_id[e.id.0 as usize].expect("checked string is interned");
                self.emit(Instr::Str(id), e.span);
                Ok(())
            }
            ExprKind::Ident(_) | ExprKind::Index { .. } | ExprKind::Field { .. } => {
                self.place(e)?;
                if !matches!(self.ty(e), Type::Array(..)) {
                    self.emit(Instr::Load, e.span);
                }
                Ok(())
            }
            ExprKind::Deref(_) => {
                self.place(e)?;
                self.emit(Instr::Load, e.span);
                Ok(())
            }
            ExprKind::AddrOf(inner) => self.place(inner),
            ExprKind::Unary { op, expr } => {
                self.value(expr)?;
                self.emit(Instr::Un(*op), e.span);
                Ok(())
            }
            ExprKind::Binary { op, lhs, rhs } => self.binary(e, *op, lhs, rhs),
            ExprKind::Logical {
                op,
                branch,
                lhs,
                rhs,
            } => {
                let lt = self.new_label();
                let lf = self.new_label();
                let lend = self.new_label();
                self.value(lhs)?;
                self.emit_branch(*branch, lt, lf, lhs.span);
                match op {
                    LogOp::And => {
                        self.bind(lt);
                        self.value(rhs)?;
                        self.emit(Instr::Bool, rhs.span);
                        self.emit_jump(lend, e.span);
                        self.bind(lf);
                        self.emit(Instr::Const(0), e.span);
                    }
                    LogOp::Or => {
                        self.bind(lt);
                        self.emit(Instr::Const(1), e.span);
                        self.emit_jump(lend, e.span);
                        self.bind(lf);
                        self.value(rhs)?;
                        self.emit(Instr::Bool, rhs.span);
                    }
                }
                self.bind(lend);
                Ok(())
            }
            ExprKind::Ternary {
                branch,
                cond,
                then_e,
                else_e,
            } => {
                let lt = self.new_label();
                let lf = self.new_label();
                let lend = self.new_label();
                self.value(cond)?;
                self.emit_branch(*branch, lt, lf, cond.span);
                self.bind(lt);
                self.value(then_e)?;
                self.emit_jump(lend, e.span);
                self.bind(lf);
                self.value(else_e)?;
                self.bind(lend);
                Ok(())
            }
            ExprKind::Assign { op, lhs, rhs } => self.assign(e, *op, lhs, rhs),
            ExprKind::IncDec { op, expr } => self.incdec(e, *op, expr),
            ExprKind::Call { args, .. } => {
                for a in args {
                    self.value(a)?;
                }
                match self.prog.callee[e.id.0 as usize].expect("checked call has a callee") {
                    Callee::Func(fid) => self.emit(Instr::Call(fid), e.span),
                    Callee::Builtin(b) => {
                        self.emit(Instr::CallBuiltin(b, args.len() as u8), e.span)
                    }
                }
                Ok(())
            }
            ExprKind::Sizeof(_) => {
                // The checker validated the type; recompute its size here.
                let size = match &e.kind {
                    ExprKind::Sizeof(te) => self.sizeof_type(te)?,
                    _ => unreachable!(),
                };
                self.emit(Instr::Const(size as i64), e.span);
                Ok(())
            }
            ExprKind::Cast { expr, .. } => {
                self.value(expr)?;
                if self.ty(e) == &Type::Char {
                    self.emit(Instr::MaskChar, e.span);
                }
                Ok(())
            }
        }
    }

    fn sizeof_type(&self, te: &TypeExpr) -> Result<usize> {
        // Mirror the checker's resolution (definitions cannot fail here).
        let mut ty = match &te.base {
            BaseTy::Int => Type::Int,
            BaseTy::Char => Type::Char,
            BaseTy::Void => Type::Void,
            BaseTy::Struct(name) => {
                let sid = self
                    .prog
                    .structs
                    .iter()
                    .position(|s| &s.name == name)
                    .ok_or_else(|| Error::compile(te.span, format!("unknown struct `{name}`")))?;
                Type::Struct(StructId(sid as u32))
            }
        };
        for _ in 0..te.stars {
            ty = Type::Ptr(Box::new(ty));
        }
        for dim in te.dims.iter().rev() {
            let n = dim.ok_or_else(|| Error::compile(te.span, "sizeof of unsized array"))?;
            ty = Type::Array(Box::new(ty), n);
        }
        Ok(ty.size_cells(&self.prog.structs))
    }

    fn binary(&mut self, e: &Expr, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<()> {
        let lt = self.ty(lhs).decayed();
        let rt = self.ty(rhs).decayed();
        let l_ptr = matches!(lt, Type::Ptr(_));
        let r_ptr = matches!(rt, Type::Ptr(_));
        match op {
            BinOp::Add if l_ptr && !r_ptr => {
                let stride = self.stride_of_pointee(lhs);
                self.value(lhs)?;
                self.value(rhs)?;
                self.emit(Instr::PtrAdd(stride), e.span);
            }
            BinOp::Add if r_ptr && !l_ptr => {
                let stride = self.stride_of_pointee(rhs);
                self.value(lhs)?;
                self.value(rhs)?;
                self.emit(Instr::Swap, e.span);
                self.emit(Instr::PtrAdd(stride), e.span);
            }
            BinOp::Sub if l_ptr && !r_ptr => {
                let stride = self.stride_of_pointee(lhs);
                self.value(lhs)?;
                self.value(rhs)?;
                self.emit(Instr::Un(UnOp::Neg), e.span);
                self.emit(Instr::PtrAdd(stride), e.span);
            }
            BinOp::Sub if l_ptr && r_ptr => {
                let stride = self.stride_of_pointee(lhs);
                self.value(lhs)?;
                self.value(rhs)?;
                self.emit(Instr::PtrDiff(stride), e.span);
            }
            _ => {
                self.value(lhs)?;
                self.value(rhs)?;
                self.emit(Instr::Bin(op), e.span);
            }
        }
        Ok(())
    }

    /// Emits the `[addr, value] -> [value]` store epilogue shared by
    /// assignments and increments, leaving the stored value on the stack.
    fn store_keep(&mut self, char_lvalue: bool, span: Span) {
        if char_lvalue {
            self.emit(Instr::MaskChar, span);
        }
        self.emit(Instr::Dup, span); // [a, v, v]
        self.emit(Instr::Rot3, span); // [v, v, a]
        self.emit(Instr::Swap, span); // [v, a, v]
        if char_lvalue {
            self.emit(Instr::StoreChar, span);
        } else {
            self.emit(Instr::Store, span);
        }
    }

    fn assign(&mut self, e: &Expr, op: Option<BinOp>, lhs: &Expr, rhs: &Expr) -> Result<()> {
        let lty = self.ty(lhs).clone();
        let char_lvalue = lty == Type::Char;
        self.place(lhs)?;
        match op {
            None => {
                self.value(rhs)?;
            }
            Some(op) => {
                // Compound: load the old value, apply the operation.
                self.emit(Instr::Dup, e.span); // [a, a]
                self.emit(Instr::Load, e.span); // [a, old]
                let l_ptr = matches!(lty.decayed(), Type::Ptr(_));
                if l_ptr && matches!(op, BinOp::Add | BinOp::Sub) {
                    let stride = self.stride_of_pointee(lhs);
                    self.value(rhs)?;
                    if op == BinOp::Sub {
                        self.emit(Instr::Un(UnOp::Neg), e.span);
                    }
                    self.emit(Instr::PtrAdd(stride), e.span);
                } else {
                    self.value(rhs)?;
                    self.emit(Instr::Bin(op), e.span);
                }
            }
        }
        self.store_keep(char_lvalue, e.span);
        Ok(())
    }

    fn incdec(&mut self, e: &Expr, op: IncDec, target: &Expr) -> Result<()> {
        let tty = self.ty(target).clone();
        let char_lvalue = tty == Type::Char;
        let is_ptr = matches!(tty.decayed(), Type::Ptr(_));
        let delta: i64 = match op {
            IncDec::PreInc | IncDec::PostInc => 1,
            IncDec::PreDec | IncDec::PostDec => -1,
        };
        let post = matches!(op, IncDec::PostInc | IncDec::PostDec);
        self.place(target)?; // [a]
        self.emit(Instr::Dup, e.span); // [a, a]
        self.emit(Instr::Load, e.span); // [a, old]
        if post {
            // Keep the old value as the expression result.
            // [a, old] -> compute new -> [old, new, a] -> store.
            self.emit(Instr::Dup, e.span); // [a, old, old]
            self.bump_by(delta, is_ptr, target, e.span); // [a, old, new]
            if char_lvalue {
                self.emit(Instr::MaskChar, e.span);
            }
            self.emit(Instr::Rot3, e.span); // [old, new, a]
            self.emit(Instr::Swap, e.span); // [old, a, new]
            if char_lvalue {
                self.emit(Instr::StoreChar, e.span);
            } else {
                self.emit(Instr::Store, e.span);
            }
        } else {
            // [a, old] -> [a, new] -> store_keep leaves [new].
            self.bump_by(delta, is_ptr, target, e.span);
            self.store_keep(char_lvalue, e.span);
        }
        Ok(())
    }

    fn bump_by(&mut self, delta: i64, is_ptr: bool, target: &Expr, span: Span) {
        self.emit(Instr::Const(delta), span);
        if is_ptr {
            let stride = self.stride_of_pointee(target);
            self.emit(Instr::PtrAdd(stride), span);
        } else {
            self.emit(Instr::Bin(BinOp::Add), span);
        }
    }

    /// Compiles an expression for its address.
    fn place(&mut self, e: &Expr) -> Result<()> {
        match &e.kind {
            ExprKind::Ident(_) => {
                match self.prog.res[e.id.0 as usize].expect("checked ident is resolved") {
                    Res::Local { offset } => self.emit(Instr::AddrLocal(offset as u32), e.span),
                    Res::Global(gid) => self.emit(Instr::AddrGlobal(gid), e.span),
                }
                Ok(())
            }
            ExprKind::Deref(inner) => self.value(inner),
            ExprKind::Index { base, index } => {
                let elem = self.ty(e).clone();
                let stride = self.size_of(&elem).max(1);
                self.value(base)?;
                self.value(index)?;
                self.emit(Instr::PtrAdd(stride), e.span);
                Ok(())
            }
            ExprKind::Field { base, arrow, .. } => {
                if *arrow {
                    self.value(base)?;
                } else {
                    self.place(base)?;
                }
                let off =
                    self.prog.field_offset[e.id.0 as usize].expect("checked field has an offset");
                if off > 0 {
                    self.emit(Instr::Offset(off as u32), e.span);
                }
                Ok(())
            }
            _ => Err(Error::compile(e.span, "expression is not addressable")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::parser::parse;

    fn compile_src(src: &str) -> CompiledProgram {
        compile(check(parse(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn compiles_minimal_program() {
        let cp = compile_src("int main() { return 42; }");
        let main = &cp.funcs[0];
        assert!(main.code.contains(&Instr::Const(42)));
        assert!(main.code.contains(&Instr::Ret));
        assert_eq!(main.code.len(), main.locs.len());
    }

    #[test]
    fn every_branch_location_appears_exactly_once() {
        let src = r#"
            int main() {
                int x = 1;
                if (x) { x = 2; }
                while (x < 10) { x++; }
                for (x = 0; x < 5; x++) { }
                int y = x > 0 && x < 100;
                switch (x) { case 1: y = 1; break; default: y = 0; }
                return y ? 1 : 0;
            }
        "#;
        let cp = compile_src(src);
        let mut seen = std::collections::HashMap::new();
        for f in &cp.funcs {
            for i in &f.code {
                if let Instr::Branch { bid, .. } = i {
                    *seen.entry(*bid).or_insert(0) += 1;
                }
            }
        }
        assert_eq!(seen.len(), cp.n_branches());
        assert!(seen.values().all(|&c| c == 1));
    }

    #[test]
    fn branch_targets_are_patched() {
        let cp = compile_src("int main() { int x = 0; if (x) { x = 1; } return x; }");
        for f in &cp.funcs {
            for i in &f.code {
                match i {
                    Instr::Jump(t) => assert!((*t as usize) <= f.code.len()),
                    Instr::Branch {
                        on_true, on_false, ..
                    } => {
                        assert!((*on_true as usize) < f.code.len());
                        assert!((*on_false as usize) < f.code.len());
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn pointer_indexing_uses_element_stride() {
        let src = r#"
            struct pair { int a; int b; };
            struct pair table[4];
            int main() { return table[2].b; }
        "#;
        let cp = compile_src(src);
        assert!(cp.funcs[0].code.contains(&Instr::PtrAdd(2)));
        assert!(cp.funcs[0].code.contains(&Instr::Offset(1)));
    }

    #[test]
    fn char_stores_are_masked() {
        let cp = compile_src("int main() { char c; c = 300; return c; }");
        assert!(cp.funcs[0].code.contains(&Instr::StoreChar));
    }
}
