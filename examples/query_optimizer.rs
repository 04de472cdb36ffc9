//! Query-optimizer scenario: pick a join order using selectivity
//! estimates instead of running the joins.
//!
//! A three-way spatial query — "streams that cross roads inside census
//! blocks" — can be evaluated as `(TS ⋈ CAR) ⋈ TCB` or `(TS ⋈ TCB) ⋈ CAR`
//! (and so on). The dominant cost driver is the size of the intermediate
//! result, which is exactly what join selectivity estimation predicts.
//! This example builds GH histogram files once per dataset, scores every
//! pairwise join from the files alone, picks the plan with the smallest
//! intermediate, and then verifies the ranking against the exact joins.
//!
//! ```sh
//! cargo run --release --example query_optimizer
//! ```

#![expect(
    clippy::disallowed_methods,
    clippy::expect_used,
    reason = "example program: prints wall-clock timings and aborts on setup errors to stay short"
)]

use sj_core::{presets, Dataset, Extent, GhHistogram, Grid};
use std::time::Instant;

fn main() {
    let scale = 0.05;
    let datasets: Vec<Dataset> = vec![
        presets::ts(scale),
        presets::tcb(scale),
        presets::cas(scale),
        presets::car(scale),
    ];

    // One-time statistics pass: a GH histogram file per dataset, all on a
    // shared grid (a real SDBMS would persist these next to the tables).
    let extent = Extent::unit();
    let grid = Grid::new(6, extent).expect("level 6 within bounds");
    let t = Instant::now();
    let histograms: Vec<GhHistogram> = datasets
        .iter()
        .map(|ds| GhHistogram::build(grid, &ds.rects))
        .collect();
    println!(
        "built {} GH histogram files (level 6) in {:.1?}\n",
        histograms.len(),
        t.elapsed()
    );

    // Score all pairwise joins from the histogram files alone.
    println!("{:<14} {:>16} {:>16}", "join", "est. pairs", "actual pairs");
    let mut plans: Vec<(String, f64, u64)> = Vec::new();
    for i in 0..datasets.len() {
        for j in (i + 1)..datasets.len() {
            let est = histograms[i].estimate(&histograms[j]).expect("shared grid");
            let actual = sj_core::sweep_join_count(&datasets[i].rects, &datasets[j].rects);
            let name = format!("{} ⋈ {}", datasets[i].name, datasets[j].name);
            println!("{name:<14} {:>16.0} {:>16}", est.pairs, actual);
            plans.push((name, est.pairs, actual));
        }
    }

    // The optimizer decision: order joins by estimated intermediate size.
    plans.sort_by(|a, b| a.1.total_cmp(&b.1));
    println!("\noptimizer ranking (smallest estimated intermediate first):");
    for (rank, (name, est, _)) in plans.iter().enumerate() {
        println!("  {}. {name}  (~{est:.0} pairs)", rank + 1);
    }

    // Validate: does the estimated ranking match the actual ranking?
    let mut actual_sorted = plans.clone();
    actual_sorted.sort_by_key(|p| p.2);
    let agree = plans
        .iter()
        .zip(&actual_sorted)
        .filter(|(a, b)| a.0 == b.0)
        .count();
    println!(
        "\nranking agreement with the exact joins: {agree}/{} positions",
        plans.len()
    );
}
