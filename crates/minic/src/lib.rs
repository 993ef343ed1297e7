//! `minic` — a mini-C language substrate with an instrumentable VM.
//!
//! This crate is the reproduction's replacement for *CIL + compiled C*:
//! a C-like language whose programs carry stable, source-level **branch
//! locations** ([`ast::BranchId`]) through parsing, compilation and
//! execution. One bytecode VM executes four different ways depending on
//! the [`vm::Host`] plugged in:
//!
//! - plain concrete execution (baseline timing),
//! - instrumented execution (branch-bit logging, the paper's §2.3),
//! - concolic execution (dynamic analysis, §2.1),
//! - guided replay (§3).
//!
//! # Example
//!
//! ```
//! use minic::{build, vm::{NullHost, RunOutcome, Vm}};
//!
//! let cp = build(&[("main", "int main() { return 40 + 2; }")]).unwrap();
//! let mut vm = Vm::new(&cp, NullHost::default());
//! assert_eq!(vm.run(&[]), RunOutcome::Exited(42));
//! ```

pub mod ast;
pub mod bytecode;
pub mod cfg;
pub mod check;
pub mod cost;
pub mod error;
pub mod eval;
pub mod lexer;
pub mod memory;
pub mod parser;
pub mod span;
pub mod token;
pub mod types;
pub mod vm;

pub use ast::{Ast, BranchId, BranchInfo, BranchKind};
pub use bytecode::{CompiledProgram, Instr};
pub use check::{check, Program};
pub use error::{Error, Result};
pub use parser::{parse, parse_units};
pub use span::{Loc, Span, UnitId};
pub use types::{Builtin, FuncId, GlobalId, StrId, Sys, Type};
pub use vm::{CrashInfo, CrashKind, Host, HostStop, NullHost, RunOutcome, Vm};

/// Parses, checks and compiles a multi-unit program in one step.
///
/// Units are `(name, source)` pairs; ids are assigned across units in
/// order, deterministically.
pub fn build(units: &[(&str, &str)]) -> Result<CompiledProgram> {
    bytecode::compile(check::check(parser::parse_units(units)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_pipeline_works() {
        let cp = build(&[("main", "int main() { if (1) { return 1; } return 0; }")]).unwrap();
        assert_eq!(cp.n_branches(), 1);
    }

    #[test]
    fn build_reports_errors_from_every_phase() {
        assert!(build(&[("main", "int main() { return @; }")]).is_err()); // lex
        assert!(build(&[("main", "int main() { if }")]).is_err()); // parse
        assert!(build(&[("main", "int main() { return nope; }")]).is_err()); // check
    }
}
