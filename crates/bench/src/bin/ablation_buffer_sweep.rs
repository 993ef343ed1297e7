//! Ablation: the 4 KiB log-buffer choice (§4).
//!
//! "We use a buffer of 4KB in order to avoid writing to disk too often."
//! Sweeps the buffer size on the counter-loop workload and reports the
//! flush count and total instrumentation cost per size — the knee should
//! sit near small-KiB sizes, after which bigger buffers stop helping.

use instrument::{BranchLog, LogFormat};
use minic::cost::{BRANCH_LOG_COST, LOG_FLUSH_COST};
use retrace_bench::render;

fn main() {
    let bits: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2_000_000);
    let mut rows = Vec::new();
    for buffer_bytes in [16usize, 64, 256, 1024, 4096, 16384, 65536] {
        let mut log = BranchLog::with_buffer_size(LogFormat::Flat, buffer_bytes);
        let mut cost = 0u64;
        for i in 0..bits {
            cost += log.push(0, i % 3 != 0);
        }
        let flush_cost = log.flushes() * LOG_FLUSH_COST;
        rows.push(vec![
            format!("{buffer_bytes}"),
            log.flushes().to_string(),
            cost.to_string(),
            format!("{:.3}", flush_cost as f64 * 100.0 / cost as f64),
            format!("{:.2}", cost as f64 / bits as f64),
        ]);
    }
    println!(
        "{}",
        render::table(
            &format!("Ablation: log buffer size ({bits} branch bits)"),
            &[
                "buffer bytes",
                "flushes",
                "total cost",
                "flush cost %",
                "cost/bit"
            ],
            &rows,
        )
    );
    println!(
        "per-bit floor is {BRANCH_LOG_COST} units; the paper's 4096-byte choice sits \
         where flush overhead is already negligible"
    );
}
