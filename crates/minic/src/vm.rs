//! The bytecode VM and its [`Host`] extension trait.
//!
//! A single VM executes every mode the paper needs:
//!
//! - concrete runs ([`NullHost`] or a kernel-backed host),
//! - instrumented deployment runs (a logging host adds 17-unit charges and
//!   collects the branch bitvector),
//! - concolic analysis runs (a symbolic host mirrors every operand with a
//!   shadow expression and labels branches),
//! - guided replay runs (a replay host compares branch directions against
//!   the recorded bitvector and aborts on divergence).
//!
//! The host sees every branch (with its condition shadow), every syscall,
//! and may stop the run at any point ([`HostStop`]).

use crate::ast::{BinOp, BranchId, UnOp};
use crate::bytecode::{CompiledFunc, CompiledProgram, Instr};
use crate::check::InitCell;
use crate::cost::{op_cost, Meter};
use crate::eval;
use crate::memory::{pack, MemFault, Memory, ObjId, ObjKind};
use crate::span::Loc;
use crate::types::{Builtin, FuncId, StrId, Sys};

/// Why a crash happened.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CrashKind {
    /// A memory fault (the simulated SIGSEGV).
    Mem(MemFault),
    /// Integer division or remainder by zero.
    DivByZero,
    /// `assert(0)`.
    AssertFail,
    /// `abort()`.
    ExplicitAbort,
    /// An externally injected signal (the paper's SEGFAULT injection).
    Signal(i32),
    /// Call stack exceeded the frame limit.
    StackOverflow,
}

impl std::fmt::Display for CrashKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashKind::Mem(m) => write!(f, "{m}"),
            CrashKind::DivByZero => write!(f, "division by zero"),
            CrashKind::AssertFail => write!(f, "assertion failure"),
            CrashKind::ExplicitAbort => write!(f, "abort()"),
            CrashKind::Signal(s) => write!(f, "signal {s}"),
            CrashKind::StackOverflow => write!(f, "stack overflow"),
        }
    }
}

/// Where and why a run crashed — the "crash site" a bug report records and
/// replay must reach again.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CrashInfo {
    /// The crash reason.
    pub kind: CrashKind,
    /// Source location of the crashing operation.
    pub loc: Loc,
    /// Name of the function that crashed.
    pub func: String,
}

/// Result of one VM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// `main` returned or `exit()` was called.
    Exited(i64),
    /// The program crashed.
    Crashed(CrashInfo),
    /// The host aborted the run (e.g. replay divergence).
    Aborted(String),
    /// The instruction budget was exhausted.
    OutOfFuel,
}

impl RunOutcome {
    /// The crash info if the run crashed.
    pub fn crash(&self) -> Option<&CrashInfo> {
        match self {
            RunOutcome::Crashed(c) => Some(c),
            _ => None,
        }
    }
}

/// A host-initiated stop of the current run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostStop {
    /// Abort the run with a reason (maps to [`RunOutcome::Aborted`]).
    Abort(String),
    /// Crash the program at the current location (e.g. signal delivery).
    Crash(CrashKind),
}

/// Bounds of the memory object a pointer-arithmetic base refers to,
/// passed to [`Host::shadow_ptr_add`] so concolic hosts can emit
/// in-bounds-of-region constraints instead of hard equality pins when
/// concretizing a symbolic address component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtrRegion {
    /// Packed address of the object's first cell (`pack(obj, 0)`).
    pub base: i64,
    /// Number of cells in the object.
    pub cells: u32,
}

/// Extension point observing and steering a VM run.
///
/// `V` is the per-cell/per-operand *shadow* value: `()` for concrete runs,
/// a symbolic expression handle for concolic runs. All shadow methods have
/// trivial defaults so concrete hosts only implement `syscall`.
pub trait Host {
    /// Shadow value type attached to every stack slot and memory cell.
    type V: Clone + Default;

    /// Shadow of a literal constant.
    fn shadow_const(&mut self, _v: i64) -> Self::V {
        Self::V::default()
    }

    /// Shadow of a string-literal address.
    fn shadow_str(&mut self, _s: StrId, _addr: i64) -> Self::V {
        Self::V::default()
    }

    /// Shadow of a binary operation result.
    fn shadow_binop(
        &mut self,
        _op: BinOp,
        _a: (i64, &Self::V),
        _b: (i64, &Self::V),
        _out: i64,
    ) -> Self::V {
        Self::V::default()
    }

    /// Shadow of a unary operation result.
    fn shadow_unop(&mut self, _op: UnOp, _a: (i64, &Self::V), _out: i64) -> Self::V {
        Self::V::default()
    }

    /// Shadow of a byte-mask (`(char)` casts and char stores).
    fn shadow_mask_char(&mut self, _a: (i64, &Self::V), _out: i64) -> Self::V {
        Self::V::default()
    }

    /// Shadow of a 0/1 normalization.
    fn shadow_bool(&mut self, _a: (i64, &Self::V), _out: i64) -> Self::V {
        Self::V::default()
    }

    /// Shadow of pointer arithmetic; hosts may concretize symbolic indices
    /// here, as concolic engines do — either with a pinning constraint or
    /// with a region-bounds constraint derived from `region` (the bounds
    /// of the object the base pointer refers to, when it is live).
    fn shadow_ptr_add(
        &mut self,
        _ptr: (i64, &Self::V),
        _idx: (i64, &Self::V),
        _stride: u32,
        _out: i64,
        _region: Option<PtrRegion>,
    ) -> Self::V {
        Self::V::default()
    }

    /// Shadow of a pointer difference.
    fn shadow_ptr_diff(
        &mut self,
        _a: (i64, &Self::V),
        _b: (i64, &Self::V),
        _stride: u32,
        _out: i64,
    ) -> Self::V {
        Self::V::default()
    }

    /// Called at every executed branch with its id, condition (concrete
    /// value + shadow) and taken direction. Returns extra cost units to
    /// charge as instrumentation (e.g. 17 for a logged branch).
    fn on_branch(
        &mut self,
        _bid: BranchId,
        _cond: (i64, &Self::V),
        _taken: bool,
        _loc: Loc,
    ) -> Result<u64, HostStop> {
        Ok(0)
    }

    /// Called when execution reaches the watched location (if set).
    fn on_watch_loc(&mut self, _loc: Loc) -> Result<(), HostStop> {
        Ok(())
    }

    /// Called on function entry.
    fn on_call(&mut self, _f: FuncId) -> Result<(), HostStop> {
        Ok(())
    }

    /// Performs a system call. The host owns all kernel state; it may read
    /// and write VM memory (buffers) through `mem` and account extra cost
    /// through `meter`.
    fn syscall(
        &mut self,
        sys: Sys,
        args: &[(i64, Self::V)],
        mem: &mut Memory<Self::V>,
        meter: &mut Meter,
    ) -> Result<(i64, Self::V), HostStop>;

    /// Receives program output (printf, sys_write to stdout).
    fn output(&mut self, _bytes: &[u8]) {}
}

/// A minimal concrete host: syscalls fail with -1, output is captured.
#[derive(Debug, Default)]
pub struct NullHost {
    /// Captured program output.
    pub stdout: Vec<u8>,
}

impl Host for NullHost {
    type V = ();

    fn syscall(
        &mut self,
        _sys: Sys,
        _args: &[(i64, ())],
        _mem: &mut Memory<()>,
        _meter: &mut Meter,
    ) -> Result<(i64, ()), HostStop> {
        Ok((-1, ()))
    }

    fn output(&mut self, bytes: &[u8]) {
        self.stdout.extend_from_slice(bytes);
    }
}

/// The cells of a NUL-terminated byte string object.
fn cstr_cells(bytes: &[u8]) -> Vec<i64> {
    bytes.iter().map(|&b| b as i64).chain([0]).collect()
}

struct Frame {
    obj: ObjId,
    ret_func: FuncId,
    ret_pc: usize,
    stack_base: usize,
}

/// Default instruction budget: generous for benchmarks, finite for safety.
pub const DEFAULT_FUEL: u64 = 500_000_000;

/// Maximum call depth before a simulated stack overflow.
pub const MAX_FRAMES: usize = 512;

/// The virtual machine.
pub struct Vm<'p, H: Host> {
    /// The program being executed.
    pub cp: &'p CompiledProgram,
    /// Program memory.
    pub mem: Memory<H::V>,
    /// The host observing/steering this run.
    pub host: H,
    /// Execution counters.
    pub meter: Meter,
    /// Remaining instruction budget.
    pub fuel: u64,
    /// Optional watched source location (see [`Host::on_watch_loc`]).
    pub watch_loc: Option<Loc>,
    stack: Vec<(i64, H::V)>,
    frames: Vec<Frame>,
    global_objs: Vec<ObjId>,
    str_objs: Vec<ObjId>,
    argv_objs: Vec<ObjId>,
    cur_func: FuncId,
    /// Index of the next instruction in `cur_func`. The dispatch loop
    /// keeps it in a local and writes it back whenever anything may read
    /// it: at every exit and before every builtin.
    pc: usize,
}

impl<'p, H: Host> Vm<'p, H> {
    /// Creates a VM for `cp` with the given host.
    pub fn new(cp: &'p CompiledProgram, host: H) -> Self {
        Vm {
            cp,
            mem: Memory::new(),
            host,
            meter: Meter::default(),
            fuel: DEFAULT_FUEL,
            watch_loc: None,
            stack: Vec::with_capacity(64),
            frames: Vec::with_capacity(16),
            global_objs: Vec::new(),
            str_objs: Vec::new(),
            argv_objs: Vec::new(),
            cur_func: FuncId(0),
            pc: 0,
        }
    }

    /// Memory objects holding the argv strings (for marking them symbolic).
    pub fn argv_objects(&self) -> &[ObjId] {
        &self.argv_objs
    }

    /// Lays out globals, rodata and argv, then runs `main` to completion.
    pub fn run(&mut self, argv: &[Vec<u8>]) -> RunOutcome {
        self.prepare(argv);
        self.resume()
    }

    /// Lays out memory and the entry frame without executing anything.
    ///
    /// After `prepare`, callers may mark memory symbolic (argv bytes via
    /// [`Vm::argv_objects`]) before starting execution with
    /// [`Vm::resume`].
    pub fn prepare(&mut self, argv: &[Vec<u8>]) {
        self.setup(argv);
        let main = self.cp.prog.main;
        self.push_entry_frame(main, argv.len());
    }

    /// Executes from the current program point to completion.
    pub fn resume(&mut self) -> RunOutcome {
        self.dispatch()
    }

    fn setup(&mut self, argv: &[Vec<u8>]) {
        let prog = &self.cp.prog;
        // Globals.
        for (i, g) in prog.globals.iter().enumerate() {
            let obj = self
                .mem
                .alloc(ObjKind::Global(crate::types::GlobalId(i as u32)), g.size);
            self.global_objs.push(obj);
        }
        // Rodata strings, filled as they are allocated (the trailing NUL
        // is the last cell).
        for (i, s) in prog.strings.iter().enumerate() {
            let obj = self
                .mem
                .alloc_init(ObjKind::Rodata(StrId(i as u32)), cstr_cells(s));
            self.str_objs.push(obj);
        }
        // Globals' initializers may reference rodata, so fill after interning.
        for (i, g) in prog.globals.iter().enumerate() {
            let obj = self.global_objs[i];
            for (off, cell) in g.init.iter().enumerate() {
                let v = match cell {
                    InitCell::Int(v) => *v,
                    InitCell::Str(sid) => pack(self.str_objs[sid.0 as usize], 0),
                };
                self.mem
                    .store(pack(obj, off as u32), v, H::V::default())
                    .expect("global initializers fit their object");
            }
        }
        // argv objects.
        for a in argv {
            let obj = self.mem.alloc_init(ObjKind::External, cstr_cells(a));
            self.argv_objs.push(obj);
        }
    }

    fn push_entry_frame(&mut self, main: FuncId, argc: usize) {
        let f = &self.cp.funcs[main.0 as usize];
        let obj = self.mem.alloc(ObjKind::Frame(main), f.frame_cells.max(1));
        if f.n_params == 2 {
            // argv array object: argc pointers.
            let argv_arr = self.mem.alloc(ObjKind::External, argc.max(1));
            for (i, o) in self.argv_objs.iter().enumerate() {
                let addr = pack(argv_arr, i as u32);
                self.mem
                    .store(addr, pack(*o, 0), H::V::default())
                    .expect("argv array write in bounds");
            }
            self.mem
                .store(pack(obj, 0), argc as i64, H::V::default())
                .expect("argc slot in bounds");
            self.mem
                .store(pack(obj, 1), pack(argv_arr, 0), H::V::default())
                .expect("argv slot in bounds");
        }
        self.frames.push(Frame {
            obj,
            ret_func: main,
            ret_pc: usize::MAX,
            stack_base: 0,
        });
        self.cur_func = main;
        self.pc = 0;
    }

    /// The crash site: the location at the *post-increment* `pc`, which
    /// every recorded report (and so every golden crash site) pins.
    fn cur_loc(&self) -> Loc {
        let f = &self.cp.funcs[self.cur_func.0 as usize];
        f.locs
            .get(self.pc.min(f.locs.len().saturating_sub(1)))
            .copied()
            .unwrap_or_default()
    }

    fn crash(&self, kind: CrashKind) -> RunOutcome {
        RunOutcome::Crashed(CrashInfo {
            kind,
            loc: self.cur_loc(),
            func: self.cp.funcs[self.cur_func.0 as usize].name.clone(),
        })
    }

    fn stop(&self, stop: HostStop) -> RunOutcome {
        match stop {
            HostStop::Abort(reason) => RunOutcome::Aborted(reason),
            HostStop::Crash(kind) => self.crash(kind),
        }
    }

    /// The loop-top bookkeeping of the instruction at `pc`, shared by the
    /// loop and by every fused arm: the fuel check and decrement,
    /// `meter.instrs`, the watch hook, then the `pc` advance. Returns the
    /// instruction, or the outcome that ends the run before it executes
    /// (with `pc` written back, still on that instruction).
    #[inline(always)]
    fn step(&mut self, func: &CompiledFunc, pc: &mut usize) -> Result<Instr, RunOutcome> {
        if self.fuel == 0 {
            self.pc = *pc;
            return Err(RunOutcome::OutOfFuel);
        }
        self.fuel -= 1;
        self.meter.instrs += 1;
        let instr = func.code[*pc];
        if let Some(w) = self.watch_loc {
            let loc = func.locs[*pc];
            if loc == w {
                if let Err(stop) = self.host.on_watch_loc(loc) {
                    self.pc = *pc;
                    return Err(self.stop(stop));
                }
            }
        }
        *pc += 1;
        Ok(instr)
    }

    /// The instruction at `pc` when an arm may run it in place as its
    /// fused successor: the loop top would reach it without stopping
    /// (fuel remains and it is not on [`Vm::watch_loc`]), so its
    /// [`step`](Vm::step) cannot end the run.
    #[inline(always)]
    fn fusable_next(&self, func: &CompiledFunc, pc: usize) -> Option<Instr> {
        if self.fuel == 0 || self.watch_loc.is_some_and(|w| func.locs[pc] == w) {
            return None;
        }
        func.code.get(pc).copied()
    }

    /// `Load`: pushes the cell at `addr`.
    #[inline(always)]
    fn exec_load(&mut self, addr: i64) -> Result<(), MemFault> {
        self.meter.charge(op_cost::MEM);
        let (v, sh) = self.mem.load(addr)?;
        let sh = sh.clone();
        self.stack.push((v, sh));
        Ok(())
    }

    /// `Bin(op)`: pushes `a op b`.
    #[inline(always)]
    fn exec_bin(
        &mut self,
        op: BinOp,
        (a, sha): (i64, H::V),
        (b, shb): (i64, H::V),
    ) -> Result<(), CrashKind> {
        self.meter.charge(op_cost::ALU);
        let out = eval::binop(op, a, b).map_err(|_| CrashKind::DivByZero)?;
        let sh = self.host.shadow_binop(op, (a, &sha), (b, &shb), out);
        self.stack.push((out, sh));
        Ok(())
    }

    /// The interpreter loop.
    ///
    /// The running function and its frame object live in locals,
    /// re-fetched only at `Call` and `Ret`, and so does `pc`, written back
    /// to the VM on every exit and before every builtin. Two hot pairs are
    /// fused: an `AddrLocal` followed by a `Load`, and a `Const` followed
    /// by a `Bin`, run the successor in place without materializing the
    /// intermediate stack slot. A fused successor still goes through
    /// [`step`](Vm::step) and shares its semantics (`exec_load`,
    /// `exec_bin`) with its own arm, so fuel, meters, host callbacks and
    /// crash sites are exactly those of the unfused sequence.
    fn dispatch(&mut self) -> RunOutcome {
        let cp = self.cp;
        let mut func = &cp.funcs[self.cur_func.0 as usize];
        let mut frame_obj = self.frames.last().map_or(ObjId::NULL, |f| f.obj);
        let mut pc = self.pc;
        // Every exit stores `pc` back first: crash sites and `resume`
        // read it.
        macro_rules! leave {
            ($e:expr) => {{
                self.pc = pc;
                return $e;
            }};
        }
        macro_rules! pop {
            () => {
                self.stack.pop().expect("compiler keeps the stack balanced")
            };
        }
        macro_rules! fault {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(f) => leave!(self.crash(CrashKind::Mem(f))),
                }
            };
        }
        macro_rules! step {
            () => {
                match self.step(func, &mut pc) {
                    Ok(instr) => instr,
                    Err(outcome) => return outcome,
                }
            };
        }
        loop {
            match step!() {
                Instr::Const(v) => {
                    self.meter.charge(op_cost::FREE_OP);
                    let sh = self.host.shadow_const(v);
                    if let Some(Instr::Bin(op)) = self.fusable_next(func, pc) {
                        step!();
                        let a = pop!();
                        if let Err(kind) = self.exec_bin(op, a, (v, sh)) {
                            leave!(self.crash(kind));
                        }
                    } else {
                        self.stack.push((v, sh));
                    }
                }
                Instr::Str(id) => {
                    self.meter.charge(op_cost::FREE_OP);
                    let addr = pack(self.str_objs[id.0 as usize], 0);
                    let sh = self.host.shadow_str(id, addr);
                    self.stack.push((addr, sh));
                }
                Instr::AddrLocal(off) => {
                    self.meter.charge(op_cost::FREE_OP);
                    let addr = pack(frame_obj, off);
                    if let Some(Instr::Load) = self.fusable_next(func, pc) {
                        step!();
                        fault!(self.exec_load(addr));
                    } else {
                        self.stack.push((addr, H::V::default()));
                    }
                }
                Instr::AddrGlobal(gid) => {
                    self.meter.charge(op_cost::FREE_OP);
                    let obj = self.global_objs[gid.0 as usize];
                    self.stack.push((pack(obj, 0), H::V::default()));
                }
                Instr::Load => {
                    let (addr, _) = pop!();
                    fault!(self.exec_load(addr));
                }
                instr @ (Instr::Store | Instr::StoreChar) => {
                    self.meter.charge(op_cost::MEM);
                    let (mut v, mut sh) = pop!();
                    let (addr, _) = pop!();
                    if matches!(instr, Instr::StoreChar) {
                        let out = v & 0xff;
                        sh = self.host.shadow_mask_char((v, &sh), out);
                        v = out;
                    }
                    fault!(self.mem.store(addr, v, sh));
                }
                Instr::Dup => {
                    self.meter.charge(op_cost::FREE_OP);
                    let top = self.stack.last().expect("dup on nonempty stack").clone();
                    self.stack.push(top);
                }
                Instr::Pop => {
                    self.meter.charge(op_cost::FREE_OP);
                    pop!();
                }
                Instr::Swap => {
                    self.meter.charge(op_cost::FREE_OP);
                    let y = pop!();
                    let x = pop!();
                    self.stack.push(y);
                    self.stack.push(x);
                }
                Instr::Rot3 => {
                    self.meter.charge(op_cost::FREE_OP);
                    // [x y z] -> [y z x]
                    let z = pop!();
                    let y = pop!();
                    let x = pop!();
                    self.stack.push(y);
                    self.stack.push(z);
                    self.stack.push(x);
                }
                Instr::Bin(op) => {
                    let b = pop!();
                    let a = pop!();
                    if let Err(kind) = self.exec_bin(op, a, b) {
                        leave!(self.crash(kind));
                    }
                }
                Instr::Un(op) => {
                    self.meter.charge(op_cost::ALU);
                    let (a, sha) = pop!();
                    let out = eval::unop(op, a);
                    let sh = self.host.shadow_unop(op, (a, &sha), out);
                    self.stack.push((out, sh));
                }
                Instr::MaskChar => {
                    self.meter.charge(op_cost::ALU);
                    let (a, sha) = pop!();
                    let out = a & 0xff;
                    let sh = self.host.shadow_mask_char((a, &sha), out);
                    self.stack.push((out, sh));
                }
                Instr::Bool => {
                    self.meter.charge(op_cost::ALU);
                    let (a, sha) = pop!();
                    let out = (a != 0) as i64;
                    let sh = self.host.shadow_bool((a, &sha), out);
                    self.stack.push((out, sh));
                }
                Instr::PtrAdd(stride) => {
                    self.meter.charge(op_cost::ALU);
                    let (idx, shi) = pop!();
                    let (ptr, shp) = pop!();
                    let out = ptr.wrapping_add(idx.wrapping_mul(stride as i64));
                    // Bounds of the base pointer's object, for hosts that
                    // emit region constraints on symbolic components.
                    let (obj, _) = crate::memory::unpack(ptr);
                    let region = self.mem.object_cells(obj).map(|cells| PtrRegion {
                        base: pack(obj, 0),
                        cells: cells.len() as u32,
                    });
                    let sh =
                        self.host
                            .shadow_ptr_add((ptr, &shp), (idx, &shi), stride, out, region);
                    self.stack.push((out, sh));
                }
                Instr::PtrDiff(stride) => {
                    self.meter.charge(op_cost::ALU);
                    let (b, shb) = pop!();
                    let (a, sha) = pop!();
                    let out = a.wrapping_sub(b) / stride.max(1) as i64;
                    let sh = self.host.shadow_ptr_diff((a, &sha), (b, &shb), stride, out);
                    self.stack.push((out, sh));
                }
                Instr::Offset(k) => {
                    self.meter.charge(op_cost::FREE_OP);
                    let (ptr, sh) = pop!();
                    self.stack.push((ptr.wrapping_add(k as i64), sh));
                }
                Instr::Jump(t) => {
                    self.meter.charge(op_cost::JUMP);
                    pc = t as usize;
                }
                Instr::Branch {
                    bid,
                    on_true,
                    on_false,
                } => {
                    self.meter.charge(op_cost::BRANCH);
                    self.meter.branches += 1;
                    let (cond, sh) = pop!();
                    let taken = cond != 0;
                    let loc = func.locs[pc - 1];
                    match self.host.on_branch(bid, (cond, &sh), taken, loc) {
                        Ok(extra) => {
                            if extra > 0 {
                                self.meter.charge_instrumentation(extra);
                            }
                        }
                        Err(stop) => leave!(self.stop(stop)),
                    }
                    pc = if taken {
                        on_true as usize
                    } else {
                        on_false as usize
                    };
                }
                Instr::Call(fid) => {
                    self.meter.charge(op_cost::CALL);
                    if let Err(stop) = self.host.on_call(fid) {
                        leave!(self.stop(stop));
                    }
                    if self.frames.len() >= MAX_FRAMES {
                        leave!(self.crash(CrashKind::StackOverflow));
                    }
                    let callee = &cp.funcs[fid.0 as usize];
                    let obj = self
                        .mem
                        .alloc(ObjKind::Frame(fid), callee.frame_cells.max(1));
                    // Pop args (pushed left-to-right) into slots 0..n.
                    for i in (0..callee.n_params).rev() {
                        let (v, sh) = pop!();
                        self.mem
                            .store(pack(obj, i as u32), v, sh)
                            .expect("parameter slots are in bounds");
                    }
                    self.frames.push(Frame {
                        obj,
                        ret_func: self.cur_func,
                        ret_pc: pc,
                        stack_base: self.stack.len(),
                    });
                    self.cur_func = fid;
                    pc = 0;
                    func = callee;
                    frame_obj = obj;
                }
                Instr::CallBuiltin(b, argc) => {
                    self.meter.charge(op_cost::BUILTIN);
                    let n = argc as usize;
                    let mut args = Vec::with_capacity(n);
                    for _ in 0..n {
                        args.push(pop!());
                    }
                    args.reverse();
                    // Builtins crash at the current site.
                    self.pc = pc;
                    match self.builtin(b, &args) {
                        Ok(ret) => self.stack.push(ret),
                        Err(outcome) => return outcome,
                    }
                }
                Instr::Ret => {
                    self.meter.charge(op_cost::RET);
                    let (v, sh) = pop!();
                    let frame = self.frames.pop().expect("ret inside a frame");
                    self.mem.kill(frame.obj);
                    self.stack.truncate(frame.stack_base);
                    let Some(caller) = self.frames.last() else {
                        leave!(RunOutcome::Exited(v));
                    };
                    frame_obj = caller.obj;
                    self.cur_func = frame.ret_func;
                    pc = frame.ret_pc;
                    func = &cp.funcs[frame.ret_func.0 as usize];
                    self.stack.push((v, sh));
                }
            }
        }
    }

    fn builtin(&mut self, b: Builtin, args: &[(i64, H::V)]) -> Result<(i64, H::V), RunOutcome> {
        match b {
            Builtin::Printf => {
                let out = match self.format_printf(args) {
                    Ok(s) => s,
                    Err(f) => return Err(self.crash(CrashKind::Mem(f))),
                };
                self.meter.charge(op_cost::PRINTF_BYTE * out.len() as u64);
                self.host.output(&out);
                Ok((out.len() as i64, H::V::default()))
            }
            Builtin::Malloc => {
                self.meter.charge(op_cost::MALLOC);
                let n = args[0].0.clamp(0, 1 << 24) as usize;
                let obj = self.mem.alloc(ObjKind::Heap, n.max(1));
                Ok((pack(obj, 0), H::V::default()))
            }
            Builtin::Free => match self.mem.free(args[0].0) {
                Ok(()) => Ok((0, H::V::default())),
                Err(f) => Err(self.crash(CrashKind::Mem(f))),
            },
            Builtin::Exit => Err(RunOutcome::Exited(args[0].0)),
            Builtin::Abort => Err(self.crash(CrashKind::ExplicitAbort)),
            Builtin::Assert => {
                if args[0].0 == 0 {
                    Err(self.crash(CrashKind::AssertFail))
                } else {
                    Ok((0, H::V::default()))
                }
            }
            Builtin::Sys(sys) => {
                self.meter.charge(op_cost::SYSCALL);
                self.meter.syscalls += 1;
                match self.host.syscall(sys, args, &mut self.mem, &mut self.meter) {
                    Ok(ret) => Ok(ret),
                    Err(stop) => Err(self.stop_owned(stop)),
                }
            }
        }
    }

    fn stop_owned(&self, stop: HostStop) -> RunOutcome {
        self.stop(stop)
    }

    fn format_printf(&self, args: &[(i64, H::V)]) -> Result<Vec<u8>, MemFault> {
        let fmt = self.mem.read_cstr(args[0].0, 4096)?;
        let mut out = Vec::with_capacity(fmt.len());
        let mut ai = 1usize;
        let mut i = 0usize;
        while i < fmt.len() {
            let c = fmt[i];
            if c != b'%' {
                out.push(c);
                i += 1;
                continue;
            }
            i += 1;
            // Skip flags and width.
            while i < fmt.len() && (fmt[i].is_ascii_digit() || fmt[i] == b'-' || fmt[i] == b'.') {
                i += 1;
            }
            if i >= fmt.len() {
                out.push(b'%');
                break;
            }
            let conv = fmt[i];
            i += 1;
            let arg = |ai: usize| args.get(ai).map(|a| a.0).unwrap_or(0);
            match conv {
                b'%' => out.push(b'%'),
                b'd' | b'u' => {
                    out.extend_from_slice(arg(ai).to_string().as_bytes());
                    ai += 1;
                }
                b'x' => {
                    out.extend_from_slice(format!("{:x}", arg(ai)).as_bytes());
                    ai += 1;
                }
                b'c' => {
                    out.push((arg(ai) & 0xff) as u8);
                    ai += 1;
                }
                b's' => {
                    let s = self.mem.read_cstr(arg(ai), 1 << 20)?;
                    out.extend_from_slice(&s);
                    ai += 1;
                }
                other => {
                    out.push(b'%');
                    out.push(other);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;

    fn run_src(src: &str) -> (RunOutcome, NullHost) {
        let cp = build(&[("main", src)]).unwrap();
        let mut vm = Vm::new(&cp, NullHost::default());
        let out = vm.run(&[]);
        let meter = vm.meter.clone();
        assert!(meter.instrs > 0);
        let Vm { host, .. } = vm;
        (out, host)
    }

    fn exit_code(src: &str) -> i64 {
        match run_src(src).0 {
            RunOutcome::Exited(v) => v,
            other => panic!("expected exit, got {other:?}"),
        }
    }

    #[test]
    fn returns_value_from_main() {
        assert_eq!(exit_code("int main() { return 42; }"), 42);
    }

    #[test]
    fn arithmetic_and_locals() {
        assert_eq!(
            exit_code("int main() { int a = 6; int b = 7; return a * b; }"),
            42
        );
    }

    #[test]
    fn if_else_and_comparisons() {
        let src = r#"
            int main() {
                int x = 5;
                if (x > 3) { return 1; } else { return 2; }
            }
        "#;
        assert_eq!(exit_code(src), 1);
    }

    #[test]
    fn while_loop_sums() {
        let src = r#"
            int main() {
                int i = 0; int sum = 0;
                while (i < 10) { sum += i; i++; }
                return sum;
            }
        "#;
        assert_eq!(exit_code(src), 45);
    }

    #[test]
    fn for_loop_and_break_continue() {
        let src = r#"
            int main() {
                int sum = 0;
                for (int i = 0; i < 100; i++) {
                    if (i % 2) { continue; }
                    if (i >= 10) { break; }
                    sum += i;
                }
                return sum;
            }
        "#;
        assert_eq!(exit_code(src), 20);
    }

    #[test]
    fn do_while_runs_once() {
        let src = "int main() { int n = 0; do { n++; } while (0); return n; }";
        assert_eq!(exit_code(src), 1);
    }

    #[test]
    fn recursion_fibonacci() {
        let src = r#"
            int fib(int n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            int main() { return fib(10); }
        "#;
        assert_eq!(exit_code(src), 55);
    }

    #[test]
    fn pointers_and_arrays() {
        let src = r#"
            int main() {
                int arr[5];
                int *p = arr;
                for (int i = 0; i < 5; i++) { arr[i] = i * i; }
                p = p + 2;
                return *p + arr[4];
            }
        "#;
        assert_eq!(exit_code(src), 20);
    }

    #[test]
    fn pointer_difference() {
        let src = r#"
            int main() {
                int arr[8];
                int *a = &arr[1];
                int *b = &arr[6];
                return b - a;
            }
        "#;
        assert_eq!(exit_code(src), 5);
    }

    #[test]
    fn structs_and_field_access() {
        let src = r#"
            struct point { int x; int y; };
            struct point make(int x, int y, struct point *out) {
                out->x = x; out->y = y; return 0;
            }
            int main() {
                struct point p;
                make(3, 4, &p);
                return p.x * p.x + p.y * p.y;
            }
        "#;
        // `make` returns struct? no — returns int 0 via struct ret? We declared
        // return type struct point which is invalid; fixed below.
        let _ = src;
        let src = r#"
            struct point { int x; int y; };
            int make(int x, int y, struct point *out) {
                out->x = x; out->y = y; return 0;
            }
            int main() {
                struct point p;
                make(3, 4, &p);
                return p.x * p.x + p.y * p.y;
            }
        "#;
        assert_eq!(exit_code(src), 25);
    }

    #[test]
    fn switch_with_fallthrough() {
        let src = r#"
            int classify(int x) {
                int r = 0;
                switch (x) {
                    case 1:
                    case 2: r = 10; break;
                    case 3: r = 20; break;
                    default: r = -1;
                }
                return r;
            }
            int main() { return classify(1) + classify(2) + classify(3) + classify(9); }
        "#;
        assert_eq!(exit_code(src), 39);
    }

    #[test]
    fn logical_short_circuit() {
        let src = r#"
            int count = 0;
            int bump() { count++; return 1; }
            int main() {
                int a = 0 && bump();
                int b = 1 || bump();
                return count * 10 + a + b;
            }
        "#;
        assert_eq!(exit_code(src), 1);
    }

    #[test]
    fn ternary_expression() {
        assert_eq!(
            exit_code("int main() { int x = 7; return x > 5 ? 100 : 200; }"),
            100
        );
    }

    #[test]
    fn char_semantics_mask_to_byte() {
        let src = r#"
            int main() {
                char c = 300;
                char d = (char)(256 + 65);
                return c * 1000 + d;
            }
        "#;
        assert_eq!(exit_code(src), 44 * 1000 + 65);
    }

    #[test]
    fn string_literals_and_indexing() {
        let src = r#"
            int main() {
                char *s = "ABC";
                return s[0] + s[2];
            }
        "#;
        assert_eq!(exit_code(src), 65 + 67);
    }

    #[test]
    fn global_initializers() {
        let src = r#"
            int table[4] = {10, 20, 30, 40};
            char *greeting = "hey";
            int main() { return table[1] + greeting[0]; }
        "#;
        assert_eq!(exit_code(src), 20 + 104);
    }

    #[test]
    fn malloc_free_roundtrip() {
        let src = r#"
            int main() {
                int *p = (int*)malloc(4);
                p[0] = 5; p[3] = 7;
                int v = p[0] + p[3];
                free(p);
                return v;
            }
        "#;
        assert_eq!(exit_code(src), 12);
    }

    #[test]
    fn out_of_bounds_crashes() {
        let src = "int main() { int arr[2]; return arr[5]; }";
        let (out, _) = run_src(src);
        assert!(matches!(
            out,
            RunOutcome::Crashed(CrashInfo {
                kind: CrashKind::Mem(MemFault::OutOfBounds { .. }),
                ..
            })
        ));
    }

    #[test]
    fn null_deref_crashes() {
        let src = "int main() { int *p = 0; return *p; }";
        let (out, _) = run_src(src);
        assert!(matches!(
            out.crash().map(|c| &c.kind),
            Some(CrashKind::Mem(MemFault::NullDeref))
        ));
    }

    #[test]
    fn use_after_free_crashes() {
        let src = r#"
            int main() {
                int *p = (int*)malloc(2);
                free(p);
                return p[0];
            }
        "#;
        let (out, _) = run_src(src);
        assert!(matches!(
            out.crash().map(|c| &c.kind),
            Some(CrashKind::Mem(MemFault::UseAfterFree))
        ));
    }

    #[test]
    fn division_by_zero_crashes() {
        let (out, _) = run_src("int main() { int z = 0; return 4 / z; }");
        assert!(matches!(
            out.crash().map(|c| &c.kind),
            Some(CrashKind::DivByZero)
        ));
    }

    #[test]
    fn assert_failure_crashes_with_location() {
        let src = "int main() {\n  assert(1);\n  assert(0);\n  return 0;\n}";
        let (out, _) = run_src(src);
        let crash = out.crash().expect("crashed");
        assert_eq!(crash.kind, CrashKind::AssertFail);
        assert_eq!(crash.loc.line, 3);
    }

    #[test]
    fn stack_overflow_detected() {
        let src = "int rec(int n) { return rec(n + 1); } int main() { return rec(0); }";
        let (out, _) = run_src(src);
        assert!(matches!(
            out.crash().map(|c| &c.kind),
            Some(CrashKind::StackOverflow)
        ));
    }

    #[test]
    fn infinite_loop_runs_out_of_fuel() {
        let cp = build(&[("main", "int main() { while (1) { } return 0; }")]).unwrap();
        let mut vm = Vm::new(&cp, NullHost::default());
        vm.fuel = 10_000;
        assert_eq!(vm.run(&[]), RunOutcome::OutOfFuel);
    }

    #[test]
    fn printf_formats_output() {
        let src = r#"
            int main() {
                printf("x=%d s=%s c=%c h=%x%%\n", 42, "hi", 65, 255);
                return 0;
            }
        "#;
        let (_, host) = run_src(src);
        assert_eq!(host.stdout, b"x=42 s=hi c=A h=ff%\n");
    }

    #[test]
    fn argv_reaches_main() {
        let src = r#"
            int main(int argc, char **argv) {
                if (argc != 2) { return -1; }
                return argv[1][0];
            }
        "#;
        let cp = build(&[("main", src)]).unwrap();
        let mut vm = Vm::new(&cp, NullHost::default());
        let out = vm.run(&[b"prog".to_vec(), b"Zebra".to_vec()]);
        assert_eq!(out, RunOutcome::Exited(b'Z' as i64));
    }

    #[test]
    fn exit_builtin_stops_program() {
        let src = "int f() { exit(7); return 1; } int main() { f(); return 0; }";
        assert_eq!(exit_code(src), 7);
    }

    #[test]
    fn meter_counts_branches() {
        let src = r#"
            int main() {
                int n = 0;
                for (int i = 0; i < 10; i++) { n += i; }
                return n;
            }
        "#;
        let cp = build(&[("main", src)]).unwrap();
        let mut vm = Vm::new(&cp, NullHost::default());
        vm.run(&[]);
        assert_eq!(vm.meter.branches, 11); // 10 taken + 1 exit evaluation
    }

    /// Crosses both fused pairs of the dispatch loop: locals read through
    /// `AddrLocal→Load`, constants folded into `Const→Bin` (the loop test,
    /// the body's multiply, the final `x / 0` crash), with calls and
    /// returns re-entering the loop in between.
    const FUSED_PAIRS_SRC: &str = r#"
        int acc(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                s = s + i * 3;
            }
            return s;
        }
        int main() {
            int x = acc(5);
            int y = x - 30;
            if (y == 0) { x = x + acc(2); }
            return x / 0;
        }
    "#;

    /// Aborts the run at the `abort_at`-th watch hit, counting every hit.
    #[derive(Default)]
    struct WatchAbort {
        abort_at: u32,
        hits: u32,
    }

    impl Host for WatchAbort {
        type V = ();

        fn on_watch_loc(&mut self, _loc: Loc) -> Result<(), HostStop> {
            self.hits += 1;
            if self.hits == self.abort_at {
                return Err(HostStop::Abort(format!("watch hit {}", self.hits)));
            }
            Ok(())
        }

        fn syscall(
            &mut self,
            _sys: Sys,
            _args: &[(i64, ())],
            _mem: &mut Memory<()>,
            _meter: &mut Meter,
        ) -> Result<(i64, ()), HostStop> {
            Ok((-1, ()))
        }
    }

    /// Runs `host` on `cp` under `fuel` (`None`: the default budget).
    fn fueled_run<H: Host>(
        cp: &CompiledProgram,
        host: H,
        watch: Option<Loc>,
        fuel: Option<u64>,
    ) -> (RunOutcome, Meter, H) {
        let mut vm = Vm::new(cp, host);
        vm.watch_loc = watch;
        if let Some(f) = fuel {
            vm.fuel = f;
        }
        let out = vm.run(&[]);
        (out, vm.meter, vm.host)
    }

    /// Every budget from 0 to N+1 (N: the unlimited run's instruction
    /// count) must either run out of fuel after exactly `budget`
    /// instructions, and then resume, refueled, to the unlimited run's
    /// end, or reproduce the unlimited run's outcome and meter. Resuming
    /// checks that no stop leaves a fused pair half-executed.
    fn sweep_fuel<H: Host>(
        cp: &CompiledProgram,
        watch: Option<Loc>,
        host: impl Fn() -> H,
        check_host: impl Fn(&H, &H),
    ) -> RunOutcome {
        let (full, full_meter, full_host) = fueled_run(cp, host(), watch, None);
        let n = full_meter.instrs;
        for budget in 0..=n + 1 {
            let mut vm = Vm::new(cp, host());
            vm.watch_loc = watch;
            vm.fuel = budget;
            let mut out = vm.run(&[]);
            if budget < n {
                assert_eq!(out, RunOutcome::OutOfFuel, "budget {budget} of {n}");
                assert_eq!(vm.meter.instrs, budget, "budget {budget} of {n}");
                vm.fuel = DEFAULT_FUEL;
                out = vm.resume();
            }
            assert_eq!(out, full, "budget {budget} of {n}");
            assert_eq!(vm.meter, full_meter, "budget {budget} of {n}");
            check_host(&vm.host, &full_host);
        }
        full
    }

    #[test]
    fn fuel_sweep_is_exact_across_fused_pairs() {
        let cp = build(&[("main", FUSED_PAIRS_SRC)]).unwrap();
        let code: Vec<&Instr> = cp.funcs.iter().flat_map(|f| &f.code).collect();
        let has_pair = |a: fn(&Instr) -> bool, b: fn(&Instr) -> bool| {
            code.windows(2).any(|w| a(w[0]) && b(w[1]))
        };
        assert!(has_pair(
            |i| matches!(i, Instr::AddrLocal(_)),
            |i| matches!(i, Instr::Load)
        ));
        assert!(has_pair(
            |i| matches!(i, Instr::Const(0)),
            |i| matches!(i, Instr::Bin(BinOp::Div))
        ));

        let full = sweep_fuel(&cp, None, NullHost::default, |_, _| {});
        let crash = full.crash().expect("x / 0 crashes");
        assert_eq!(crash.kind, CrashKind::DivByZero);
        assert_eq!(crash.func, "main");

        // Watch the Load of the loop body's `i` (an AddrLocal→Load pair
        // before `Const(3)`). Its AddrLocal shares the location, so hit 1
        // is the AddrLocal and hit 2 the Load itself, where the run must
        // abort.
        let f = cp.funcs.iter().find(|f| f.name == "acc").unwrap();
        let pc = (1..f.code.len() - 1)
            .find(|&pc| {
                matches!(f.code[pc - 1], Instr::AddrLocal(_))
                    && f.code[pc] == Instr::Load
                    && f.code[pc + 1] == Instr::Const(3)
            })
            .unwrap();
        let watch = Some(f.locs[pc]);
        assert_eq!(f.locs[pc - 1], f.locs[pc]);
        let aborted = sweep_fuel(
            &cp,
            watch,
            || WatchAbort {
                abort_at: 2,
                hits: 0,
            },
            |h, full| assert_eq!(h.hits, full.hits),
        );
        assert_eq!(aborted, RunOutcome::Aborted("watch hit 2".into()));
        // The abort leaves the VM on the Load with its address pushed:
        // resuming re-enters the Load (hit 3) and ends as unwatched.
        let mut vm = Vm::new(
            &cp,
            WatchAbort {
                abort_at: 2,
                hits: 0,
            },
        );
        vm.watch_loc = watch;
        assert_eq!(vm.run(&[]), aborted);
        assert_eq!(vm.resume(), full);

        // A watch that never aborts only observes: the run ends exactly as
        // unwatched, and every pass of the loop body reports three hits —
        // the AddrLocal, the Load and the multiply, whose span also starts
        // at `i`.
        let (out, meter, h) = fueled_run(&cp, WatchAbort::default(), watch, None);
        let (_, bare_meter, _) = fueled_run(&cp, NullHost::default(), None, None);
        assert_eq!(out, full);
        assert_eq!(meter, bare_meter);
        assert_eq!(h.hits, 3 * (5 + 2));
    }

    #[test]
    fn dangling_frame_pointer_faults() {
        let src = r#"
            int *leak() { int x = 5; return &x; }
            int main() { int *p = leak(); return *p; }
        "#;
        let (out, _) = run_src(src);
        assert!(matches!(
            out.crash().map(|c| &c.kind),
            Some(CrashKind::Mem(MemFault::UseAfterFree))
        ));
    }
}
