//! The deterministic cost model.
//!
//! The paper reports instrumentation overhead as `perf`-measured CPU time,
//! normalized to the uninstrumented run. We reproduce the same quantity
//! with a deterministic cost model: every VM operation is charged a fixed
//! number of *cost units* chosen to approximate the machine-code footprint
//! of a compiled C program (addressing and stack shuffling are free, as a
//! register allocator would make them; memory traffic and control flow
//! dominate). Branch logging charges [`BRANCH_LOG_COST`] units per logged
//! execution — the paper's measured "17 instructions per instrumented
//! branch" — plus a flush cost every [`LOG_BUFFER_BYTES`] of log.

use serde::{Deserialize, Serialize};

/// Cost of logging one branch execution (paper: 17 instructions).
pub const BRANCH_LOG_COST: u64 = 17;

/// Extra cost per branch execution logged through a per-location bit
/// cursor (load the location's cursor, bump it, store it back — the
/// cursor-table indirection the flat format does not pay). Charged on
/// top of [`BRANCH_LOG_COST`] and accounted separately so the
/// instrumentation-spend columns stay honest about what the log-format
/// extension costs.
pub const CURSOR_STEP_COST: u64 = 6;

/// Branch-log buffer size in bytes (paper: 4 KiB buffer flushed to disk).
pub const LOG_BUFFER_BYTES: usize = 4096;

/// Cost of flushing one full log buffer to "disk".
pub const LOG_FLUSH_COST: u64 = 2000;

/// Cost of logging one syscall result record.
pub const SYSCALL_LOG_COST: u64 = 25;

/// Per-operation base costs.
pub mod op_cost {
    /// Loads and stores hit memory.
    pub const MEM: u64 = 2;
    /// Arithmetic and logic.
    pub const ALU: u64 = 1;
    /// A conditional branch (compare + jump, partially mispredicted).
    pub const BRANCH: u64 = 4;
    /// An unconditional jump.
    pub const JUMP: u64 = 1;
    /// Call sequence (spill, jump, prologue).
    pub const CALL: u64 = 10;
    /// Return sequence.
    pub const RET: u64 = 5;
    /// Builtin dispatch (printf formatting etc. add more per byte).
    pub const BUILTIN: u64 = 10;
    /// Kernel crossing for a system call.
    pub const SYSCALL: u64 = 100;
    /// Heap allocation.
    pub const MALLOC: u64 = 30;
    /// Per output byte formatted by printf.
    pub const PRINTF_BYTE: u64 = 1;
    /// Pure stack/addressing operations (register-allocated away).
    pub const FREE_OP: u64 = 0;
}

/// Execution counters accumulated by a VM run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Meter {
    /// Total cost units (the model's "CPU time").
    pub units: u64,
    /// VM instructions executed.
    pub instrs: u64,
    /// Branch instructions executed.
    pub branches: u64,
    /// System calls performed.
    pub syscalls: u64,
    /// Cost units attributable to instrumentation (logging + flushes).
    pub instrumentation_units: u64,
}

impl Meter {
    /// Charges base execution cost.
    pub fn charge(&mut self, units: u64) {
        self.units += units;
    }

    /// Charges cost attributable to instrumentation (also counted in
    /// `units`, so normalized CPU time includes it).
    pub fn charge_instrumentation(&mut self, units: u64) {
        self.units += units;
        self.instrumentation_units += units;
    }

    /// CPU time of this run relative to a baseline run, in percent
    /// (100.0 = identical cost).
    pub fn relative_cpu_percent(&self, baseline: &Meter) -> f64 {
        if baseline.units == 0 {
            return 100.0;
        }
        self.units as f64 * 100.0 / baseline.units as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_cpu_is_percent() {
        let base = Meter {
            units: 1000,
            ..Meter::default()
        };
        let run = Meter {
            units: 2070,
            ..Meter::default()
        };
        let pct = run.relative_cpu_percent(&base);
        assert!((pct - 207.0).abs() < 1e-9);
    }

    #[test]
    fn zero_baseline_defaults_to_hundred() {
        let base = Meter::default();
        let run = Meter {
            units: 5,
            ..Meter::default()
        };
        assert_eq!(run.relative_cpu_percent(&base), 100.0);
    }

    #[test]
    fn instrumentation_units_also_count_in_total() {
        let mut m = Meter::default();
        m.charge(10);
        m.charge_instrumentation(17);
        assert_eq!(m.units, 27);
        assert_eq!(m.instrumentation_units, 17);
    }
}
