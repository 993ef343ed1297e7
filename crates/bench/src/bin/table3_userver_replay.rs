//! T3 + T4 — Tables 3 and 4: uServer bug reproduction across the five
//! input scenarios, with the logged/not-logged symbolic-branch counts.
//!
//! Paper shapes: all-branches and static reproduce fastest; combined is
//! only slightly slower despite far less instrumentation; dynamic is
//! slowest with several LC entries not finishing (∞); replay time
//! correlates with the number of *unlogged* symbolic branch locations.

use instrument::Method;
use retrace_bench::experiments::{
    analysis_summary, analyze_coverages, replay_one, userver_analysis_bench,
};
use retrace_bench::fixtures::{adaptive_table, Knobs};
use retrace_bench::render;
use retrace_bench::setup::{userver_experiments, Coverage};

fn main() {
    let budget: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(300);
    let knobs = Knobs::from_args();
    let (workers, cache) = (knobs.workers, knobs.cache);
    let mut abench = userver_analysis_bench(42);
    knobs.apply(&mut abench);
    let bundles = analyze_coverages(&abench.wb);
    println!("{}", analysis_summary("LC", &bundles.lc));
    println!("{}", analysis_summary("HC", &bundles.hc));

    // The `+impl` rows suppress every log bit the branch-implication
    // analysis proves redundant: same method, strictly less spend.
    let configs: Vec<(String, Method, Coverage, bool)> = vec![
        ("dynamic (lc)".into(), Method::Dynamic, Coverage::Lc, false),
        ("dynamic (hc)".into(), Method::Dynamic, Coverage::Hc, false),
        (
            "dynamic+static (lc)".into(),
            Method::DynamicStatic,
            Coverage::Lc,
            false,
        ),
        (
            "dynamic+static+impl (lc)".into(),
            Method::DynamicStatic,
            Coverage::Lc,
            true,
        ),
        (
            "dynamic+static (hc)".into(),
            Method::DynamicStatic,
            Coverage::Hc,
            false,
        ),
        ("static".into(), Method::Static, Coverage::Hc, false),
        ("static+impl".into(), Method::Static, Coverage::Hc, true),
        (
            "all branches".into(),
            Method::AllBranches,
            Coverage::Hc,
            false,
        ),
    ];

    let mut t3 = Vec::new();
    let mut t4 = Vec::new();
    for mut exp_def in userver_experiments(42) {
        knobs.apply(&mut exp_def);
        for (name, method, cov, suppress) in &configs {
            let bundle = match cov {
                Coverage::Lc => &bundles.lc,
                Coverage::Hc => &bundles.hc,
            };
            let plan = if *suppress {
                exp_def.wb.plan_suppressed(*method, bundle)
            } else {
                exp_def.wb.plan(*method, bundle)
            };
            let exp_id: usize = exp_def
                .name
                .rsplit(' ')
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            let (row, stats, transfer) = replay_one(&exp_def, name, exp_id, &plan, budget);
            t3.push(vec![
                format!("exp {exp_id}"),
                name.clone(),
                row.cell(),
                row.runs.to_string(),
                row.spend_cell(),
                format!("{} / {}", row.syscall_divergences, row.frontier_restarts),
                row.concretization_cell(),
                row.repair_cell(),
                row.cache_cell(),
            ]);
            t4.push(vec![
                format!("exp {exp_id}"),
                name.clone(),
                stats.logged_cell(),
                stats.unlogged_cell(),
                transfer.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        render::table(
            &format!(
                "Table 3: uServer bug reproduction (budget {budget} runs, {workers} worker{}, cache {}; ∞ = timeout)",
                if workers == 1 { "" } else { "s" },
                if cache { "on" } else { "off" }
            ),
            &[
                "experiment",
                "config",
                "replay work / wall",
                "runs",
                "instr spend",
                "sysdiv / restarts",
                "conc rng/pin",
                "repairs",
                "prefix cache",
            ],
            &t3,
        )
    );
    println!(
        "{}",
        render::table(
            "Table 4: symbolic branch locations logged / NOT logged (locs / execs)",
            &[
                "experiment",
                "config",
                "logged",
                "not logged",
                "report bytes"
            ],
            &t4,
        )
    );
    // The adaptive gen-2 column family: re-run the combined (lc) rows
    // through the two-generation escalation loop. Gen 2 sheds the bits
    // gen 1's replay never consulted and attacks the exp-4 grind with
    // checkpoints + multi-byte literal forcing.
    println!("{}", adaptive_table(knobs, &[1, 2, 3, 4, 5], budget));
    println!(
        "paper shapes: static & all-branches fastest; dynamic+static close behind;\n\
         dynamic slowest with ∞ entries at LC; unlogged symbolic locations correlate \
         with replay time; adaptive gen-2 converges the exp-4 grind well under the \
         static 298-run baseline at a fraction of the locations"
    );
}
