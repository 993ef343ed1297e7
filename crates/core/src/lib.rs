//! `retrace-core` — the paper's system end to end.
//!
//! One crate that wires the substrates together into the workflow of
//! "Striking a New Balance Between Program Instrumentation and Debugging
//! Time" (EuroSys'11):
//!
//! ```text
//!   analyses (concolic §2.1 + static §2.2)
//!        │
//!        ▼
//!   instrumentation plan (§2.3: dynamic / static / dynamic+static / all)
//!        │
//!        ▼
//!   user-site logged execution  ──crash──►  BugReport (bits + syscall log)
//!                                                │
//!                                                ▼
//!   developer-site guided replay (§3)  ──►  reproducing input
//! ```
//!
//! See [`Workbench`] for the main entry point.

pub mod metrics;
pub mod pipeline;

pub use concolic::Concretization;
pub use instrument::{escalate, EscalationReport, LocationEscalation};
pub use metrics::{LocationRow, Overhead, ReplayRow, TriageRow};
pub use pipeline::{to_dyn_labels, AnalysisBundle, LoggedRun, Workbench};
pub use search::{FrontierStats, SearchLimits, SearchPolicy, Strategy};
// The one documented home of the golden-ratio seed-mixing helper (the
// engines' per-call solver seeds and restart seeds all derive through
// it).
pub use solver::{mix_seed, GOLDEN_RATIO};
