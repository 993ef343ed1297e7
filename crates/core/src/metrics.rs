//! Experiment metrics: the quantities the paper's tables and figures
//! report, in serializable form.

use serde::{Deserialize, Serialize};

/// Instrumentation overhead of one configuration relative to the
/// uninstrumented baseline (Figures 2, 4 and 5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Overhead {
    /// Configuration name (e.g. "dynamic+static (hc)").
    pub config: String,
    /// Normalized CPU time in percent (100 = baseline).
    pub cpu_pct: f64,
    /// Cost units of the instrumented run.
    pub units: u64,
    /// Cost units of the baseline run.
    pub baseline_units: u64,
    /// Executions of instrumented branches.
    pub instrumented_execs: u64,
    /// Branch-log bytes produced.
    pub log_bytes: u64,
    /// Syscall-log bytes produced.
    pub syscall_log_bytes: u64,
    /// Requests completed (servers; 0 otherwise).
    pub requests: u64,
}

impl Overhead {
    /// Branch-log storage per request (Figure 4b), when requests > 0.
    pub fn storage_per_request(&self) -> f64 {
        if self.requests == 0 {
            return (self.log_bytes + self.syscall_log_bytes) as f64;
        }
        (self.log_bytes + self.syscall_log_bytes) as f64 / self.requests as f64
    }
}

/// One replay-experiment outcome (Tables 1, 3, 5, 6).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayRow {
    /// Configuration name.
    pub config: String,
    /// Scenario/experiment id.
    pub experiment: usize,
    /// Whether the bug was reproduced within budget.
    pub reproduced: bool,
    /// Replay runs used.
    pub runs: usize,
    /// Total instructions executed across replay runs (deterministic
    /// work proxy for the paper's seconds).
    pub total_instrs: u64,
    /// Wall-clock milliseconds (machine-dependent, informational).
    pub wall_ms: u64,
    /// Solver invocations.
    pub solver_calls: usize,
    /// Syscall-order divergences survived during the search.
    pub syscall_divergences: u64,
    /// Frontier drain restarts (starvation events) during the search.
    pub frontier_restarts: u64,
    /// Concretizations emitted as offset-generalizing ranges.
    pub concretization_ranges: u64,
    /// Concretizations pinned at emission.
    pub concretization_pins: u64,
    /// Earliest-suspect forced-set repairs scheduled.
    pub repairs: u64,
    /// Prefixes whose repair budget was cut off.
    pub repair_cutoffs: u64,
    /// Branch-log bits the deployment shipped.
    pub log_bits: u64,
    /// Branch locations with their own bit stream (0 = flat format).
    pub cursor_locations: usize,
    /// Extra instrumentation units the per-location cursor format spent
    /// at the user site (0 = flat format).
    pub cursor_spend_units: u64,
    /// Suppressed-branch executions at the user site: bits the
    /// implication analysis proved redundant, so the log never carried
    /// them and replay reconstructed them for free.
    pub suppressed_bits: u64,
    /// Solver calls that started from a cached path prefix.
    pub cache_hits: u64,
    /// Solver calls that found no cached prefix (all of them when the
    /// prefix cache is off).
    pub cache_misses: u64,
    /// Literals skipped via cached prefixes, summed across hits.
    pub prefix_len_saved: u64,
}

impl ReplayRow {
    /// The range-vs-pin concretization cell: `ranges/pins`.
    pub fn concretization_cell(&self) -> String {
        format!(
            "{}/{}",
            self.concretization_ranges, self.concretization_pins
        )
    }

    /// The repair-activation cell: `scheduled(cutoffs)`.
    pub fn repair_cell(&self) -> String {
        format!("{}({})", self.repairs, self.repair_cutoffs)
    }

    /// The instrumentation-spend cell: shipped log bits, and — under the
    /// per-location cursor format — the stream count and the extra units
    /// the cursor table cost at the user site (`bits b @N loc +U u`).
    /// A flat-format row reads `bits b`: zero extra spend, by design.
    pub fn spend_cell(&self) -> String {
        spend_cell(
            self.log_bits,
            self.cursor_locations,
            self.cursor_spend_units,
            self.suppressed_bits,
        )
    }

    /// The prefix-cache cell: hit count over total solves, plus the
    /// literals the hits skipped (`hits/solves (+N lits)`).
    pub fn cache_cell(&self) -> String {
        cache_cell(self.cache_hits, self.cache_misses, self.prefix_len_saved)
    }

    /// The table cell: work (and wall time), or ∞ on timeout.
    pub fn cell(&self) -> String {
        if !self.reproduced {
            return "∞".to_string();
        }
        format!("{} / {}ms", self.work_cell(), self.wall_ms)
    }

    /// The table cell with the wall masked: work in instructions, or ∞
    /// on timeout.
    pub fn work_cell(&self) -> String {
        if !self.reproduced {
            "∞".to_string()
        } else if self.total_instrs >= 1_000_000 {
            format!("{:.1}Mi", self.total_instrs as f64 / 1e6)
        } else {
            format!("{:.1}Ki", self.total_instrs as f64 / 1e3)
        }
    }
}

/// Formats an instrumentation-spend cell from its raw counters — the
/// one definition of the `instr spend` column's shape, shared by
/// [`ReplayRow::spend_cell`] and the golden-table tests (so a format
/// change cannot silently diverge from the pinned tables).
/// A suppression-enabled row appends `-Nsup`: N branch executions whose
/// bits the implication analysis kept out of the shipped log.
pub fn spend_cell(
    log_bits: u64,
    cursor_locations: usize,
    cursor_spend_units: u64,
    suppressed_bits: u64,
) -> String {
    let base = if cursor_locations == 0 {
        format!("{log_bits}b")
    } else {
        format!("{log_bits}b@{cursor_locations}loc+{cursor_spend_units}u")
    };
    if suppressed_bits == 0 {
        base
    } else {
        format!("{base}-{suppressed_bits}sup")
    }
}

/// Formats a prefix-cache cell from its raw counters — the one
/// definition of the `prefix cache` column's shape, shared by
/// [`ReplayRow::cache_cell`] and the golden-table tests. The ledger
/// invariant `hits + misses == solver calls` makes the denominator the
/// solve count; a cache-off row reads `0/N`.
pub fn cache_cell(cache_hits: u64, cache_misses: u64, prefix_len_saved: u64) -> String {
    let total = cache_hits + cache_misses;
    if prefix_len_saved == 0 {
        format!("{cache_hits}/{total}")
    } else {
        format!("{cache_hits}/{total}+{prefix_len_saved}l")
    }
}

/// One triage-class outcome: an equivalence class of bug reports,
/// replayed once by its representative (the fleet-triage table).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TriageRow {
    /// Class index (in first-seen corpus order — deterministic).
    pub class: usize,
    /// Program (binary) the class's reports came from.
    pub program: String,
    /// Crash site: `kind @ unit:line:col` of the representative.
    pub crash: String,
    /// Reports in the class (representative included).
    pub members: usize,
    /// Whether the representative's replay reproduced the crash.
    pub reproduced: bool,
    /// Replay runs the representative needed.
    pub runs: usize,
    /// Solver invocations of the representative's replay.
    pub solver_calls: usize,
    /// Total instructions across the representative's replay runs.
    pub total_instrs: u64,
    /// Members whose report digest matched the re-deployed witness
    /// (representative included; `== members` when the class is tight).
    pub conformed: usize,
    /// Wall-clock milliseconds for the class (replay + conformance;
    /// machine-dependent — masked in golden tables).
    pub wall_ms: u64,
}

impl TriageRow {
    /// The reproduction cell: runs and solver calls, or ∞ on timeout.
    pub fn replay_cell(&self) -> String {
        if !self.reproduced {
            return "∞".to_string();
        }
        format!("{}r/{}s", self.runs, self.solver_calls)
    }

    /// The conformance cell: `conformed/members`.
    pub fn conformance_cell(&self) -> String {
        format!("{}/{}", self.conformed, self.members)
    }
}

/// Formats a reports-per-second throughput cell from a report count and
/// a wall-clock duration — the one definition of the headline metric's
/// shape, shared by the triage table and its smoke test. Sub-millisecond
/// walls clamp to 1 ms so the figure stays finite.
pub fn throughput_cell(reports: usize, wall_ms: u64) -> String {
    let secs = wall_ms.max(1) as f64 / 1e3;
    format!("{:.0} reports/s", reports as f64 / secs)
}

/// Branch-location counts per configuration (Table 2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocationRow {
    /// Configuration name.
    pub config: String,
    /// Number of instrumented branch locations.
    pub instrumented_locations: usize,
    /// Total branch locations in the program.
    pub total_locations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_per_request_divides() {
        let o = Overhead {
            config: "x".into(),
            cpu_pct: 120.0,
            units: 12,
            baseline_units: 10,
            instrumented_execs: 5,
            log_bytes: 90,
            syscall_log_bytes: 10,
            requests: 10,
        };
        assert!((o.storage_per_request() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn replay_cell_formats_timeout() {
        let r = ReplayRow {
            config: "dynamic".into(),
            experiment: 3,
            reproduced: false,
            runs: 100,
            total_instrs: 1,
            wall_ms: 1,
            solver_calls: 5,
            syscall_divergences: 0,
            frontier_restarts: 0,
            concretization_ranges: 12,
            concretization_pins: 3,
            repairs: 1,
            repair_cutoffs: 0,
            log_bits: 120,
            cursor_locations: 0,
            cursor_spend_units: 0,
            suppressed_bits: 0,
            cache_hits: 0,
            cache_misses: 5,
            prefix_len_saved: 0,
        };
        assert_eq!(r.cell(), "∞");
        assert_eq!(r.concretization_cell(), "12/3");
        assert_eq!(r.repair_cell(), "1(0)");
        assert_eq!(r.spend_cell(), "120b");
        assert_eq!(r.cache_cell(), "0/5");
        let hitting = ReplayRow {
            cache_hits: 3,
            cache_misses: 2,
            prefix_len_saved: 11,
            ..r.clone()
        };
        assert_eq!(hitting.cache_cell(), "3/5+11l");
        let cursored = ReplayRow {
            cursor_locations: 9,
            cursor_spend_units: 720,
            ..r.clone()
        };
        assert_eq!(cursored.spend_cell(), "120b@9loc+720u");
        let suppressed = ReplayRow {
            suppressed_bits: 17,
            ..r
        };
        assert_eq!(suppressed.spend_cell(), "120b-17sup");
        let both = ReplayRow {
            suppressed_bits: 4,
            ..cursored
        };
        assert_eq!(both.spend_cell(), "120b@9loc+720u-4sup");
    }
}
