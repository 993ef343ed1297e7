//! T5 + T8 — Tables 5 and 8: uServer reproduction WITHOUT syscall-result
//! logging (experiments 1 and 4).
//!
//! Paper shapes: every configuration slows down (the engine must search
//! for `read`/`select` outcomes through the symbolic models); dynamic
//! configurations suffer the most (model search compounds the branch
//! search); static can fall slightly behind all-branches.

use retrace_bench::fixtures::{nosyscall_tables, Knobs};

fn main() {
    let budget: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(300);
    let knobs = Knobs::workers(retrace_bench::workers_arg());
    println!("{}", nosyscall_tables(knobs, budget, true));
    println!("paper shape: all configurations significantly slower than Table 3");
}
