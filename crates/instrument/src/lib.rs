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
//! - [`BitLog`]/[`BranchTrace`]: the flat bit-per-branch log with 4 KiB
//!   buffered flushing and its 17-instruction per-branch cost;
//! - [`CursorLog`]/[`CursorTrace`]: the per-branch-location log-format
//!   extension (one bit stream and cursor per location, with a spend
//!   counter and a compact on-wire encoding), unified with the flat
//!   format under [`TraceLog`];
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
pub use host::{BranchLogger, BugReport, LoggingHost};
pub use logger::{BitLog, BranchTrace, CursorLog, CursorTrace, LocStream, TraceCursor, TraceLog};
pub use plan::{DynLabel, LogFormat, Method, Plan, Suppressed};
pub use syscall_log::{is_logged, SysCursor, SysRecord, SyscallLog};
