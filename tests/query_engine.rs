//! Integration tests for the sj-query engine against the paper presets:
//! plans over realistic clustered data, estimate quality, statistics
//! persistence, and consistency between plan orders.

#![expect(
    clippy::unwrap_used,
    reason = "integration-test helpers run outside #[test] fns; a failed setup step must fail the test loudly"
)]

use sj_datagen::presets;
use sj_geo::Rect;
use sj_query::{Catalog, ChainJoinQuery, StarJoinQuery};

fn preset_catalog() -> Catalog {
    let mut c = Catalog::with_level(6);
    c.register(presets::ts(0.01)).unwrap();
    c.register(presets::tcb(0.01)).unwrap();
    c.register(presets::cas(0.01)).unwrap();
    c.register(presets::sp(0.01)).unwrap();
    c
}

#[test]
fn two_way_plan_estimate_matches_exact_join() {
    let c = preset_catalog();
    let plan = c.plan(&ChainJoinQuery::new(["TS", "TCB"])).unwrap();
    let result = plan.execute(&c).unwrap();
    let exact = sj_sweep_count(&c, "TS", "TCB");
    assert_eq!(result.tuples.len() as u64, exact, "execution must be exact");
    let est_err = (plan.estimated_result - exact as f64).abs() / exact as f64;
    assert!(est_err < 0.25, "plan estimate err {est_err:.3}");
}

fn sj_sweep_count(c: &Catalog, a: &str, b: &str) -> u64 {
    sj_sweep::sweep_join_count(&c.dataset(a).unwrap().rects, &c.dataset(b).unwrap().rects)
}

#[test]
fn chain_execution_is_order_independent() {
    // However the planner opens the chain, results must be identical to
    // a plan forced through a different edge (we emulate by reversing the
    // chain, which flips edge preferences).
    let c = preset_catalog();
    let forward = c.plan(&ChainJoinQuery::new(["TS", "TCB", "CAS"])).unwrap();
    let backward = c.plan(&ChainJoinQuery::new(["CAS", "TCB", "TS"])).unwrap();
    let mut f: Vec<Vec<u64>> = forward.execute(&c).unwrap().tuples;
    let mut b: Vec<Vec<u64>> = backward
        .execute(&c)
        .unwrap()
        .tuples
        .into_iter()
        .map(|t| t.into_iter().rev().collect())
        .collect();
    f.sort();
    b.sort();
    assert_eq!(f, b, "chain results must not depend on plan order");
}

#[test]
fn star_query_on_presets() {
    let c = preset_catalog();
    let plan = StarJoinQuery::new("TCB", ["TS", "SP"]).plan(&c).unwrap();
    let result = plan.execute(&c).unwrap();
    // Verify a sample of tuples satisfies both predicates.
    let (dc, d1, d2) = (
        c.dataset("TCB").unwrap(),
        c.dataset("TS").unwrap(),
        c.dataset("SP").unwrap(),
    );
    for t in result.tuples.iter().take(100) {
        assert!(dc.rects[t[0] as usize].intersects(&d1.rects[t[1] as usize]));
        assert!(dc.rects[t[0] as usize].intersects(&d2.rects[t[2] as usize]));
    }
}

#[test]
fn windowed_query_only_returns_window_tuples() {
    let c = preset_catalog();
    let w = Rect::new(0.1, 0.1, 0.5, 0.5);
    let plan = c
        .plan(&ChainJoinQuery::new(["TS", "TCB"]).within(w))
        .unwrap();
    let result = plan.execute(&c).unwrap();
    let (da, db) = (c.dataset("TS").unwrap(), c.dataset("TCB").unwrap());
    assert!(!result.tuples.is_empty());
    for t in &result.tuples {
        assert!(da.rects[t[0] as usize].intersects(&w));
        assert!(db.rects[t[1] as usize].intersects(&w));
    }
}

#[test]
fn statistics_survive_a_catalog_rebuild() {
    let dir = std::env::temp_dir().join(format!("sj_query_engine_it-{}", std::process::id()));
    let c1 = preset_catalog();
    c1.save_statistics(&dir).unwrap();
    let e1 = c1.estimate_join_pairs("TS", "TCB").unwrap();

    let mut c2 = Catalog::with_level(6);
    for (name, ds) in [("TS", presets::ts(0.01)), ("TCB", presets::tcb(0.01))] {
        let bytes = std::fs::read(dir.join(format!("{name}.hist"))).unwrap();
        c2.register_with_statistics(ds, &bytes).unwrap();
    }
    assert_eq!(c2.estimate_join_pairs("TS", "TCB").unwrap(), e1);
    std::fs::remove_dir_all(&dir).ok();
}
