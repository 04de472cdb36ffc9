use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::plan::{Plan, PlanStep};
use sj_datagen::Dataset;
use sj_geo::Rect;
use sj_rtree::join_pairs;
use std::time::{Duration, Instant};

/// Resolves a tuple slot to its dataset rectangle with bounds checking.
///
/// Tuple ids are `u64` (R-tree entry ids); an id outside the dataset is
/// a catalog-consistency bug (a dataset changed between planning and
/// execution) and comes back as [`QueryError::TupleIdOutOfRange`]
/// instead of an index panic — the same discipline clippy's cast lints
/// enforce on this crate and on grid coordinates in sj-histogram.
fn tuple_rect(ds: &Dataset, table: &str, id: u64) -> Result<Rect, QueryError> {
    usize::try_from(id)
        .ok()
        .and_then(|i| ds.rects.get(i).copied())
        .ok_or_else(|| QueryError::TupleIdOutOfRange {
            table: table.to_string(),
            id,
            len: ds.rects.len(),
        })
}

/// Execution statistics for one plan run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Total wall-clock execution time.
    pub elapsed: Duration,
    /// Tuples materialized by the opening join.
    pub opening_pairs: usize,
    /// R-tree probes issued by attach steps.
    pub probes: usize,
    /// Tuples discarded by the window filter.
    pub window_filtered: usize,
}

/// The result of executing a plan: tuples of object ids, one column per
/// table in the *original chain order* of [`Plan::tables`].
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Result tuples; `tuples[k][i]` is the id in table `i` (chain order).
    pub tuples: Vec<Vec<u64>>,
    /// Execution statistics.
    pub stats: ExecStats,
}

impl Plan {
    /// Executes the plan against the catalog it was planned on.
    ///
    /// # Errors
    /// Propagates unknown-table errors (catalog changed since planning)
    /// and aborts with [`QueryError::ResultTooLarge`] when an intermediate
    /// exceeds the catalog's tuple budget.
    pub fn execute(&self, catalog: &Catalog) -> Result<QueryResult, QueryError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock fills ExecStats timing, never affects results"
        )]
        let start = Instant::now();
        let budget = catalog.config().tuple_budget;
        let mut stats = ExecStats::default();

        // Partial tuples carry one slot per chain position; unbound slots
        // hold u64::MAX until their attach step runs.
        const UNBOUND: u64 = u64::MAX;
        let n = self.tables.len();
        let mut tuples: Vec<Vec<u64>> = Vec::new();

        for step in &self.steps {
            match *step {
                PlanStep::JoinEdge { left, right, .. } => {
                    let tl = catalog.rtree(&self.tables[left])?;
                    let tr = catalog.rtree(&self.tables[right])?;
                    join_pairs(tl, tr, |a, b| {
                        let mut t = vec![UNBOUND; n];
                        t[left] = a;
                        t[right] = b;
                        tuples.push(t);
                    });
                    stats.opening_pairs = tuples.len();
                    // Early window filter on the two bound columns.
                    if let Some(w) = &self.window {
                        let dl = catalog.dataset(&self.tables[left])?;
                        let dr = catalog.dataset(&self.tables[right])?;
                        let before = tuples.len();
                        let mut kept = Vec::with_capacity(tuples.len());
                        for t in std::mem::take(&mut tuples) {
                            let keep = tuple_rect(dl, &self.tables[left], t[left])?.intersects(w)
                                && tuple_rect(dr, &self.tables[right], t[right])?.intersects(w);
                            if keep {
                                kept.push(t);
                            }
                        }
                        tuples = kept;
                        stats.window_filtered += before - tuples.len();
                    }
                }
                PlanStep::Probe { table, via, .. } => {
                    let probe_tree = catalog.rtree(&self.tables[table])?;
                    let via_ds = catalog.dataset(&self.tables[via])?;
                    let mut next: Vec<Vec<u64>> = Vec::with_capacity(tuples.len());
                    for t in &tuples {
                        let via_rect = tuple_rect(via_ds, &self.tables[via], t[via])?;
                        stats.probes += 1;
                        probe_tree.query_intersecting(&via_rect, |e| {
                            if let Some(w) = &self.window {
                                if !e.rect.intersects(w) {
                                    stats.window_filtered += 1;
                                    return;
                                }
                            }
                            let mut extended = t.clone();
                            extended[table] = e.id;
                            next.push(extended);
                        });
                        if next.len() > budget {
                            return Err(QueryError::ResultTooLarge {
                                produced: next.len(),
                                budget,
                            });
                        }
                    }
                    tuples = next;
                }
            }
            if tuples.len() > budget {
                return Err(QueryError::ResultTooLarge {
                    produced: tuples.len(),
                    budget,
                });
            }
        }

        debug_assert!(
            tuples.iter().all(|t| t.iter().all(|&id| id != UNBOUND)),
            "plan left unbound columns"
        );
        stats.elapsed = start.elapsed();
        Ok(QueryResult { tuples, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;
    use crate::plan::ChainJoinQuery;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sj_datagen::Dataset;
    use sj_geo::{Extent, Rect};

    fn random_table(name: &str, n: usize, seed: u64, side: f64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let rects = (0..n)
            .map(|_| {
                let x = rng.random_range(0.0..1.0 - side);
                let y = rng.random_range(0.0..1.0 - side);
                Rect::new(
                    x,
                    y,
                    x + rng.random_range(0.0..side),
                    y + rng.random_range(0.0..side),
                )
            })
            .collect();
        Dataset::new(name, Extent::unit(), rects)
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::with_level(5);
        c.register(random_table("a", 300, 1, 0.06)).unwrap();
        c.register(random_table("b", 250, 2, 0.06)).unwrap();
        c.register(random_table("c", 200, 3, 0.06)).unwrap();
        c
    }

    /// Brute-force chain join for verification.
    fn brute_chain(cat: &Catalog, names: &[&str], window: Option<Rect>) -> Vec<Vec<u64>> {
        let tables: Vec<&Dataset> = names.iter().map(|n| cat.dataset(n).unwrap()).collect();
        let mut tuples: Vec<Vec<u64>> = (0..tables[0].len()).map(|i| vec![i as u64]).collect();
        for k in 1..tables.len() {
            let mut next = Vec::new();
            for t in &tuples {
                let prev_rect = tables[k - 1].rects[usize::try_from(t[k - 1]).unwrap()];
                for (j, r) in tables[k].rects.iter().enumerate() {
                    if prev_rect.intersects(r) {
                        let mut e = t.clone();
                        e.push(j as u64);
                        next.push(e);
                    }
                }
            }
            tuples = next;
        }
        if let Some(w) = window {
            tuples.retain(|t| {
                t.iter()
                    .enumerate()
                    .all(|(k, &id)| tables[k].rects[usize::try_from(id).unwrap()].intersects(&w))
            });
        }
        tuples.sort();
        tuples
    }

    #[test]
    fn two_way_join_matches_brute_force() {
        let c = catalog();
        let plan = c.plan(&ChainJoinQuery::new(["a", "b"])).unwrap();
        let mut got = plan.execute(&c).unwrap().tuples;
        got.sort();
        assert_eq!(got, brute_chain(&c, &["a", "b"], None));
        assert!(!got.is_empty(), "fixture join should be non-empty");
    }

    #[test]
    fn three_way_chain_matches_brute_force() {
        let c = catalog();
        let plan = c.plan(&ChainJoinQuery::new(["a", "b", "c"])).unwrap();
        let result = plan.execute(&c).unwrap();
        let mut got = result.tuples;
        got.sort();
        assert_eq!(got, brute_chain(&c, &["a", "b", "c"], None));
        assert!(result.stats.probes > 0, "three-way chains must probe");
    }

    #[test]
    fn windowed_chain_matches_brute_force() {
        let c = catalog();
        let w = Rect::new(0.2, 0.2, 0.7, 0.7);
        let plan = c
            .plan(&ChainJoinQuery::new(["a", "b", "c"]).within(w))
            .unwrap();
        let result = plan.execute(&c).unwrap();
        let mut got = result.tuples;
        got.sort();
        assert_eq!(got, brute_chain(&c, &["a", "b", "c"], Some(w)));
        assert!(
            result.stats.window_filtered > 0,
            "window should filter something"
        );
    }

    #[test]
    fn estimated_result_tracks_actual() {
        let c = catalog();
        let plan = c.plan(&ChainJoinQuery::new(["a", "b", "c"])).unwrap();
        let actual = plan.execute(&c).unwrap().tuples.len() as f64;
        assert!(actual > 0.0);
        let ratio = plan.estimated_result / actual;
        assert!(
            (0.4..2.5).contains(&ratio),
            "estimate {:.0} vs actual {actual:.0} (ratio {ratio:.2})",
            plan.estimated_result
        );
    }

    #[test]
    fn tuple_budget_aborts_runaway_plans() {
        let mut c = Catalog::new(CatalogConfig {
            tuple_budget: 10,
            ..CatalogConfig::default()
        });
        c.register(random_table("x", 200, 7, 0.3)).unwrap();
        c.register(random_table("y", 200, 8, 0.3)).unwrap();
        let plan = c.plan(&ChainJoinQuery::new(["x", "y"])).unwrap();
        assert!(matches!(
            plan.execute(&c),
            Err(QueryError::ResultTooLarge { budget: 10, .. })
        ));
    }

    #[test]
    fn tuple_order_is_chain_order_regardless_of_plan_order() {
        // Even when the planner opens in the middle of the chain, columns
        // come back in chain order.
        let c = catalog();
        let plan = c.plan(&ChainJoinQuery::new(["a", "b", "c"])).unwrap();
        let result = plan.execute(&c).unwrap();
        let (da, db, dc) = (
            c.dataset("a").unwrap(),
            c.dataset("b").unwrap(),
            c.dataset("c").unwrap(),
        );
        for t in result.tuples.iter().take(50) {
            let (ra, rb, rc) = (
                da.rects[usize::try_from(t[0]).unwrap()],
                db.rects[usize::try_from(t[1]).unwrap()],
                dc.rects[usize::try_from(t[2]).unwrap()],
            );
            assert!(ra.intersects(&rb), "a-b predicate violated");
            assert!(rb.intersects(&rc), "b-c predicate violated");
        }
    }
}
