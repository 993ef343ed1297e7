//! `instrument` — instrumentation methods and the user-site runtime.
//!
//! Everything that happens between "the developer ships the program" and
//! "a bug report arrives" (§2.3 + §4 of the paper):
//!
//! - [`Plan`]: which branch locations are logged, per the four methods
//!   (`dynamic`, `static`, `dynamic+static`, `all branches`), plus the
//!   log-format decision ([`LogFormat`]);
//! - the plan's inputs, defined here and built directly by their
//!   producers: [`DynLabel`] (written by `concolic`), [`Suppressed`] and
//!   [`LiteralCluster`] (from `staticax`) and [`EscalationReport`]
//!   (filled in by `replay`, read by [`escalate()`]). This crate
//!   depends on no analysis or search crate;
//! - [`BranchLog`]: the one writer of branch bits, in either format —
//!   the paper's flat bit-per-branch log ([`BranchTrace`]) or the
//!   per-branch-location extension ([`CursorTrace`]: one bit stream and
//!   cursor per location, with a spend counter and a compact on-wire
//!   encoding) — with 4 KiB buffered flushing and the 17-instruction
//!   per-branch cost; both formats ship as a [`TraceLog`];
//! - [`SyscallLog`]: selective syscall-result logging (`read` counts,
//!   `select` ready sets — never input data);
//! - [`LoggingHost`]: the instrumented execution host;
//! - [`BugReport`]: the shippable crash artifact;
//! - [`compress`]: transfer-time LZSS compression (the gzip 10–20×
//!   observation).

pub mod compress;
pub mod escalate;
pub mod host;
pub mod logger;
pub mod plan;
pub mod syscall_log;

pub use escalate::{escalate, EscalationReport, LiteralCluster, LocationEscalation};
pub use host::{BugReport, LoggingHost};
pub use logger::{BranchLog, BranchTrace, CursorTrace, LocStream, TraceLog};
pub use plan::{DynLabel, LogFormat, Method, Plan, Suppressed};
pub use syscall_log::{is_logged, SysRecord, SyscallLog};
