//! Approximate aggregate answering — the paper's introduction scenario:
//! *"finding the approximate number of bridges in a given spatial extent
//! may simply be satisfied by doing a join selectivity estimation between
//! the streams and rivers datasets for that extent"*.
//!
//! We treat stream × road MBR intersections as bridge candidates and
//! answer "about how many bridges in this window?" from GH histograms,
//! comparing against the exact windowed join.
//!
//! ```sh
//! cargo run --release --example approximate_count
//! ```

#![expect(
    clippy::disallowed_methods,
    clippy::expect_used,
    reason = "example program: prints wall-clock timings and aborts on setup errors to stay short"
)]

use sj_core::{presets, Extent, GhHistogram, Grid, Rect};
use std::time::Instant;

fn main() {
    let scale = 0.1;
    let streams = presets::cas(scale);
    let roads = presets::car(scale);
    println!(
        "streams: {} MBRs, roads: {} MBRs (California presets, scale {scale})\n",
        streams.len(),
        roads.len()
    );

    // One-time statistics pass: a GH histogram file per dataset. Every
    // window query below is answered from these files alone.
    let grid = Grid::new(7, Extent::unit()).expect("level in range");
    let t = Instant::now();
    let hs = GhHistogram::build(grid, &streams.rects);
    let hr = GhHistogram::build(grid, &roads.rects);
    println!(
        "built 2 GH histogram files (level 7) in {:.1?}\n",
        t.elapsed()
    );

    let windows = [
        ("whole state", Rect::new(0.0, 0.0, 1.0, 1.0)),
        ("north-west quadrant", Rect::new(0.0, 0.5, 0.5, 1.0)),
        ("metro area", Rect::new(0.55, 0.15, 0.75, 0.35)),
        ("rural strip", Rect::new(0.0, 0.0, 1.0, 0.1)),
    ];

    println!(
        "{:<22} {:>14} {:>14} {:>9} {:>12} {:>12}",
        "window", "approx count", "exact count", "err", "approx time", "exact time"
    );
    for (name, win) in windows {
        // Approximate "number of bridges" in the window: the windowed
        // join-pair estimate, straight from the histogram files.
        let t = Instant::now();
        let est = hs.estimate_pairs_in_window(&hr, &win).expect("shared grid");
        let approx_time = t.elapsed();

        // Exact: run the windowed join for comparison (pairs whose
        // intersection touches the window).
        let t = Instant::now();
        let ws: Vec<Rect> = streams
            .rects
            .iter()
            .filter(|r| r.intersects(&win))
            .copied()
            .collect();
        let wr: Vec<Rect> = roads
            .rects
            .iter()
            .filter(|r| r.intersects(&win))
            .copied()
            .collect();
        let mut exact = 0u64;
        sj_core::sweep_join_pairs(&ws, &wr, |i, j| {
            if let Some(overlap) = ws[i].intersection(&wr[j]) {
                if overlap.intersects(&win) {
                    exact += 1;
                }
            }
        });
        let exact_time = t.elapsed();

        let err = sj_core::error_pct(est, exact as f64);
        println!(
            "{name:<22} {:>14.0} {:>14} {:>8.1}% {:>12.1?} {:>12.1?}",
            est, exact, err, approx_time, exact_time
        );
    }

    // Range-query counts come from the same files.
    println!("\nrange-query counts from the same histogram file:");
    let q = Rect::new(0.55, 0.15, 0.75, 0.35);
    let est = hr.estimate_window_count(&q);
    let exact = roads.rects.iter().filter(|r| r.intersects(&q)).count();
    println!(
        "  roads intersecting the metro window: estimated {est:.0}, exact {exact} \
         ({:.1}% error)",
        sj_core::error_pct(est, exact as f64)
    );
}
