//! Multi-way spatial query through the sj-query engine: register tables,
//! let the GH-cost-based planner order a chain join, inspect the EXPLAIN
//! output, execute, and compare the estimate to reality.
//!
//! ```sh
//! cargo run --release -p sj-query --example multiway_query
//! ```

#![expect(
    clippy::expect_used,
    reason = "example program: aborts on setup errors to stay short"
)]

use sj_datagen::presets;
use sj_geo::Rect;
use sj_query::{Catalog, ChainJoinQuery};

fn main() {
    let scale = 0.01;
    let mut catalog = Catalog::with_level(6);
    for ds in [presets::ts(scale), presets::tcb(scale), presets::cas(scale)] {
        println!("registering {} ({} objects)", ds.name, ds.len());
        catalog.register(ds).expect("fresh names");
    }

    // "Streams that cross a census block that contains a California
    // stream" — a 3-way chain join. The planner decides where to start.
    let query = ChainJoinQuery::new(["TS", "TCB", "CAS"]);
    let plan = catalog.plan(&query).expect("plannable");
    println!("\nEXPLAIN\n{plan}\n");

    let result = plan.execute(&catalog).expect("executable");
    println!(
        "executed in {:?}: {} tuples ({} opening pairs, {} probes)",
        result.stats.elapsed,
        result.tuples.len(),
        result.stats.opening_pairs,
        result.stats.probes,
    );
    println!(
        "estimate vs actual: {:.0} vs {} ({:+.1}%)",
        plan.estimated_result,
        result.tuples.len(),
        (plan.estimated_result / result.tuples.len().max(1) as f64 - 1.0) * 100.0
    );

    // The same query restricted to a window.
    let window = Rect::new(0.25, 0.25, 0.75, 0.75);
    let windowed = catalog
        .plan(&ChainJoinQuery::new(["TS", "TCB", "CAS"]).within(window))
        .expect("plannable");
    let wres = windowed.execute(&catalog).expect("executable");
    println!(
        "\nwindowed to [0.25,0.75]²: {} tuples ({} filtered by the window)",
        wres.tuples.len(),
        wres.stats.window_filtered
    );
}
