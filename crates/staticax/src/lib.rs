//! `staticax` — whole-program static analysis (paper §2.2).
//!
//! Replaces the paper's CIL-based dataflow + points-to pipeline:
//! an Andersen-style inclusion-based points-to analysis feeds an
//! interprocedural taint fixed point that identifies every branch whose
//! condition *may* depend on program input (argv, `read` data, `select`
//! results, clock, PRNG). The result over-approximates the true symbolic
//! set — the intended bias: the static method trades instrumentation
//! overhead for guaranteed-complete symbolic-branch coverage.

pub mod absloc;
pub mod analysis;
pub mod implication;
pub mod literals;
pub mod pointsto;
pub mod taint;

pub use absloc::{AbsLoc, Interner, NodeKey};
pub use analysis::{analyze, analyze_program, StaticConfig, StaticResult};
pub use implication::ImplicationMap;
pub use literals::literal_clusters;
pub use pointsto::PointsTo;
pub use taint::TaintResult;
