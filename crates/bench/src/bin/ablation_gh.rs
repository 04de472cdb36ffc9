//! Ablation studies for design choices DESIGN.md calls out (not figures
//! from the paper, but the comparisons its design arguments rest on):
//!
//! * **Basic vs. revised GH** — how much accuracy the fractional-mass
//!   refinement of Section 3.2.2 buys at each level (Figure 4's point).
//! * **Sd correction on/off for PH** — the `AvgSpan` division of Eq. 3 is
//!   approximated here by comparing PH to an unadjusted variant built from
//!   GH-free parts; we report PH's level sweep alongside its level-0
//!   parametric baseline to expose the multiple-counting drift.
//! * **R-tree split algorithms and bulk loaders** — join/build cost of
//!   Linear vs Quadratic splits vs STR vs Hilbert packing, which justifies
//!   using STR packing for the baselines.
//!
//! ```sh
//! cargo run --release -p sj-bench --bin ablation_gh -- --scale 0.2
//! ```

#![expect(
    clippy::disallowed_methods,
    clippy::expect_used,
    reason = "benchmark harness: wall-clock timing is what it measures, and a failed setup step aborts the run"
)]

use sj_bench::{banner, pct, render_table, HarnessConfig};
use sj_core::experiment::{fig7_row, HistogramScheme};
use sj_core::{join_count, RTree, RTreeConfig, SplitAlgorithm};
use std::time::Instant;

fn main() {
    let cfg = HarnessConfig::from_args();
    banner("Ablations: GH refinement & R-tree construction", &cfg);
    let contexts = cfg.prepare_contexts();

    // Ablation 1: basic vs revised GH accuracy per level.
    for ctx in &contexts {
        println!("--- {}: basic vs revised GH ---", ctx.name);
        let mut rows = Vec::new();
        for level in cfg.levels.clone() {
            let basic = fig7_row(ctx, HistogramScheme::GhBasic, level);
            let revised = fig7_row(ctx, HistogramScheme::Gh, level);
            rows.push(vec![
                level.to_string(),
                pct(basic.error_pct),
                pct(revised.error_pct),
                pct(basic.space_pct),
                pct(revised.space_pct),
            ]);
        }
        println!(
            "{}",
            render_table(
                &[
                    "level",
                    "basic err",
                    "revised err",
                    "basic space",
                    "revised space"
                ],
                &rows
            )
        );
    }

    // Ablation 2: PH with and without the AvgSpan multiple-counting
    // correction of Eq. 3 (paper Figure 1's motivation).
    use sj_core::{Grid, PhHistogram};
    for ctx in &contexts {
        println!("--- {}: PH AvgSpan correction on/off ---", ctx.name);
        let mut rows = Vec::new();
        for level in cfg.levels.clone() {
            let grid = Grid::new(level, ctx.extent).expect("level within bounds");
            let ha = PhHistogram::build(grid, &ctx.left.rects);
            let hb = PhHistogram::build(grid, &ctx.right.rects);
            let corrected = ha.estimate(&hb).expect("same grid").selectivity;
            let uncorrected = ha.estimate_uncorrected(&hb).expect("same grid").selectivity;
            let err = |est: f64| sj_core::error_pct(est, ctx.baseline.selectivity);
            rows.push(vec![
                level.to_string(),
                pct(err(corrected)),
                pct(err(uncorrected)),
                format!("{:.2}", (ha.avg_span() + hb.avg_span()) / 2.0),
            ]);
        }
        println!(
            "{}",
            render_table(
                &["level", "corrected err", "uncorrected err", "mean AvgSpan"],
                &rows
            )
        );
    }

    // Ablation 3: R-tree construction strategies (on the first join's
    // left dataset — construction cost is per-dataset).
    if let Some(ctx) = contexts.first() {
        println!(
            "--- R-tree construction: {} ({} rects) ---",
            ctx.left.name,
            ctx.left.len()
        );
        let rects = &ctx.left.rects;
        let other = RTree::bulk_load_str(RTreeConfig::default(), &ctx.right.rects);
        let mut rows = Vec::new();
        let mut measure = |label: &str, build: &dyn Fn() -> RTree| {
            let t0 = Instant::now();
            let tree = build();
            let build_time = t0.elapsed();
            let t1 = Instant::now();
            let pairs = join_count(&tree, &other);
            let join_time = t1.elapsed();
            rows.push(vec![
                label.to_string(),
                format!("{build_time:.1?}"),
                format!("{join_time:.1?}"),
                tree.height().to_string(),
                format!("{:.1} MiB", tree.size_bytes() as f64 / (1024.0 * 1024.0)),
                pairs.to_string(),
            ]);
        };
        measure("STR bulk load", &|| {
            RTree::bulk_load_str(RTreeConfig::default(), rects)
        });
        measure("Hilbert bulk load", &|| {
            RTree::bulk_load_hilbert(RTreeConfig::default(), rects)
        });
        measure("dynamic quadratic", &|| {
            let mut t = RTree::new(RTreeConfig::default());
            for (i, r) in rects.iter().enumerate() {
                t.insert(*r, i as u64);
            }
            t
        });
        measure("dynamic linear", &|| {
            let mut t = RTree::new(RTreeConfig {
                split: SplitAlgorithm::Linear,
                ..RTreeConfig::default()
            });
            for (i, r) in rects.iter().enumerate() {
                t.insert(*r, i as u64);
            }
            t
        });
        println!(
            "{}",
            render_table(
                &["construction", "build", "join", "height", "size", "pairs"],
                &rows
            )
        );
        println!("(identical pair counts across rows confirm the ablation is apples-to-apples)");
    }
}
