//! `concolic` — the dynamic analysis engine (paper §2.1).
//!
//! A concolic (concrete + symbolic) execution engine over the `minic` VM:
//! program inputs are shadowed with solver expressions, every executed
//! branch is labeled `Symbolic` or `Concrete`, and exploration negates
//! path conditions one at a time to discover new paths — the mechanism
//! the paper uses both to find which branches depend on input (and thus
//! need instrumentation) and to generate tests pre-ship.
//!
//! The LC/HC coverage axis of the paper's evaluation maps to
//! [`search::SearchLimits::max_runs`].

pub mod engine;
pub mod input;
pub mod label;
pub mod shadow;

pub use engine::{AnalysisResult, Engine, FoundCrash, RunRecord, SessionConfig};
pub use input::{
    realize, realize_streams, ArgSpec, ClientSpec, FileSpec, InputSpec, InputVars, Streams,
};
pub use label::{LabelMap, Profile};
pub use search::Concretization;
pub use shadow::{mark_argv_symbolic, PathStep, Shadow, StepOrigin, SymHost, SymV};
