use crate::catalog::Catalog;
use crate::error::QueryError;
use sj_geo::Rect;
use std::fmt;

/// Estimates one join edge through the catalog's degradation ladder,
/// recording a warning when a fallback tier served it.
fn estimate_edge(
    catalog: &Catalog,
    a: &str,
    b: &str,
    warnings: &mut Vec<String>,
) -> Result<f64, QueryError> {
    let outcome = catalog.estimate_join_pairs_detailed(a, b, &catalog.config().degradation)?;
    if outcome.is_degraded() {
        let reasons = outcome
            .skipped
            .iter()
            .map(|s| format!("{}: {}", s.tier.name(), s.reason))
            .collect::<Vec<_>>()
            .join("; ");
        warnings.push(format!(
            "estimate for {a} ⋈ {b} degraded to the {} tier ({reasons})",
            outcome.tier
        ));
    }
    Ok(outcome.pairs)
}

/// A chain spatial join: find tuples `(o₀, …, o_{n-1})`, one object per
/// table, where each consecutive pair of objects' MBRs intersects —
/// optionally with every participating object intersecting a window.
#[derive(Debug, Clone)]
pub struct ChainJoinQuery {
    /// Tables in chain order (predicates connect neighbors).
    pub tables: Vec<String>,
    /// Optional window every tuple member must intersect.
    pub window: Option<Rect>,
}

impl ChainJoinQuery {
    /// Creates a chain join over the given tables.
    pub fn new<I, S>(tables: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            tables: tables.into_iter().map(Into::into).collect(),
            window: None,
        }
    }

    /// Restricts the query to a window.
    #[must_use]
    pub fn within(mut self, window: Rect) -> Self {
        self.window = Some(window);
        self
    }
}

/// One step of an executable plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanStep {
    /// Open the plan with an R-tree join between two chain-adjacent
    /// tables (indices into [`Plan::tables`]).
    JoinEdge {
        /// Left table index (chain position).
        left: usize,
        /// Right table index.
        right: usize,
        /// Estimated result size of this edge.
        estimated_pairs: f64,
    },
    /// Attach a neighboring table by probing its R-tree with the MBRs of
    /// the adjacent, already-joined table.
    Probe {
        /// Chain index of the table being attached.
        table: usize,
        /// Chain index of the already-bound neighbor whose MBRs drive the
        /// probes.
        via: usize,
        /// Estimated intermediate size after this step.
        estimated_tuples: f64,
    },
}

/// An executable, explainable plan for a [`ChainJoinQuery`].
#[derive(Debug, Clone)]
pub struct Plan {
    /// Tables in the *original chain order* (tuple column order).
    pub tables: Vec<String>,
    /// Steps in execution order.
    pub steps: Vec<PlanStep>,
    /// Window, if any.
    pub window: Option<Rect>,
    /// Estimated final result size.
    pub estimated_result: f64,
    /// Degradation warnings: one entry per edge whose estimate was not
    /// served by the primary statistics (see
    /// [`crate::EstimateOutcome`]).
    pub warnings: Vec<String>,
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ChainJoin [{}]", self.tables.join(" ⋈ "))?;
        if let Some(w) = &self.window {
            writeln!(
                f,
                "  window [{:.3},{:.3}]x[{:.3},{:.3}]",
                w.xlo, w.xhi, w.ylo, w.yhi
            )?;
        }
        for (i, step) in self.steps.iter().enumerate() {
            match step {
                PlanStep::JoinEdge {
                    left,
                    right,
                    estimated_pairs,
                } => writeln!(
                    f,
                    "  {i}. rtree-join {} ⋈ {}   (~{estimated_pairs:.0} pairs)",
                    self.tables[*left], self.tables[*right]
                )?,
                PlanStep::Probe {
                    table,
                    via,
                    estimated_tuples,
                } => writeln!(
                    f,
                    "  {i}. probe {} via {}      (~{estimated_tuples:.0} tuples)",
                    self.tables[*table], self.tables[*via]
                )?,
            }
        }
        for w in &self.warnings {
            writeln!(f, "  !! {w}")?;
        }
        write!(f, "  => ~{:.0} result tuples", self.estimated_result)
    }
}

/// The cost-based join-order optimizer.
///
/// For a chain `t₀ – t₁ – … – t_{n-1}` the executable orders are exactly:
/// start at some edge `(tᵢ, tᵢ₊₁)` and repeatedly extend the bound
/// interval left or right. The planner estimates every edge's result size
/// with the GH histogram files, opens with the cheapest edge, and at each
/// step extends to the side with the smaller estimated growth factor
/// (estimated partners per bound object).
pub struct Planner<'a> {
    catalog: &'a Catalog,
}

impl<'a> Planner<'a> {
    /// Creates a planner over a catalog.
    #[must_use]
    pub fn new(catalog: &'a Catalog) -> Self {
        Self { catalog }
    }

    /// Produces a plan for the query.
    ///
    /// # Errors
    /// Unknown tables, too-short chains and estimation failures.
    pub fn plan(&self, query: &ChainJoinQuery) -> Result<Plan, QueryError> {
        let n = query.tables.len();
        if n < 2 {
            return Err(QueryError::TooFewTables(n));
        }
        for name in &query.tables {
            let _ = self.catalog.table(name)?;
        }

        // Edge result-size estimates from the histogram files (or a
        // fallback tier, with a warning recorded on the plan).
        let mut warnings = Vec::new();
        let mut edge_pairs = Vec::with_capacity(n - 1);
        for i in 0..n - 1 {
            edge_pairs.push(estimate_edge(
                self.catalog,
                &query.tables[i],
                &query.tables[i + 1],
                &mut warnings,
            )?);
        }
        // Growth factor of attaching table b via its neighbor a: expected
        // partners in b per object of a.
        let growth = |edge: usize, via: usize| -> Result<f64, QueryError> {
            let via_len = self.catalog.table_len(&query.tables[via])?;
            #[allow(clippy::cast_precision_loss)]
            Ok(if via_len == 0 {
                0.0
            } else {
                edge_pairs[edge] / via_len as f64
            })
        };

        // Opening edge: the smallest estimated pair count. (`n >= 2`
        // guarantees at least one edge; the guard keeps this panic-free.)
        let Some((start, _)) = edge_pairs
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
        else {
            return Err(QueryError::TooFewTables(n));
        };

        let mut steps = vec![PlanStep::JoinEdge {
            left: start,
            right: start + 1,
            estimated_pairs: edge_pairs[start],
        }];
        let mut estimate = edge_pairs[start];
        let (mut lo, mut hi) = (start, start + 1);
        while lo > 0 || hi < n - 1 {
            // Candidate extensions: attach lo-1 via lo, or hi+1 via hi.
            let left_growth = if lo > 0 {
                Some(growth(lo - 1, lo)?)
            } else {
                None
            };
            let right_growth = if hi < n - 1 {
                Some(growth(hi, hi)?)
            } else {
                None
            };
            // Pick the cheaper extension; the loop condition guarantees
            // at least one side is available.
            let (g, go_left) = match (left_growth, right_growth) {
                (Some(l), Some(r)) if l <= r => (l, true),
                (Some(l), None) => (l, true),
                (_, Some(r)) => (r, false),
                (None, None) => break,
            };
            estimate *= g;
            if go_left {
                steps.push(PlanStep::Probe {
                    table: lo - 1,
                    via: lo,
                    estimated_tuples: estimate,
                });
                lo -= 1;
            } else {
                steps.push(PlanStep::Probe {
                    table: hi + 1,
                    via: hi,
                    estimated_tuples: estimate,
                });
                hi += 1;
            }
        }

        Ok(Plan {
            tables: query.tables.clone(),
            steps,
            window: query.window,
            estimated_result: estimate,
            warnings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_datagen::Dataset;
    use sj_geo::Extent;

    fn grid_of_rects(name: &str, n_per_axis: usize, side: f64) -> Dataset {
        let mut rects = Vec::new();
        for i in 0..n_per_axis {
            for j in 0..n_per_axis {
                let x = (i as f64 + 0.5) / n_per_axis as f64;
                let y = (j as f64 + 0.5) / n_per_axis as f64;
                rects.push(Rect::centered(sj_geo::Point::new(x, y), side, side));
            }
        }
        Dataset::new(name, Extent::unit(), rects)
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::with_level(5);
        // "dense" overlaps heavily with everything; "sparse_*" only join
        // each other lightly.
        c.register(grid_of_rects("dense", 30, 0.08)).unwrap();
        c.register(grid_of_rects("sparse_a", 10, 0.01)).unwrap();
        c.register(grid_of_rects("sparse_b", 10, 0.01)).unwrap();
        c
    }

    #[test]
    fn chain_needs_two_tables() {
        let c = catalog();
        assert!(matches!(
            c.plan(&ChainJoinQuery::new(["dense"])),
            Err(QueryError::TooFewTables(1))
        ));
    }

    #[test]
    fn unknown_table_rejected() {
        let c = catalog();
        assert!(matches!(
            c.plan(&ChainJoinQuery::new(["dense", "nope"])),
            Err(QueryError::UnknownTable(_))
        ));
    }

    #[test]
    fn planner_opens_with_cheapest_edge() {
        let c = catalog();
        // Chain: dense – sparse_a – sparse_b. Edge (sparse_a, sparse_b)
        // is far cheaper than (dense, sparse_a): the plan must open there.
        let q = ChainJoinQuery::new(["dense", "sparse_a", "sparse_b"]);
        let plan = c.plan(&q).unwrap();
        assert!(
            matches!(
                plan.steps[0],
                PlanStep::JoinEdge {
                    left: 1,
                    right: 2,
                    ..
                }
            ),
            "expected to open with the sparse edge, got {:?}",
            plan.steps[0]
        );
        // The remaining step attaches `dense` via `sparse_a`.
        assert!(matches!(
            plan.steps[1],
            PlanStep::Probe {
                table: 0,
                via: 1,
                ..
            }
        ));
        assert_eq!(plan.steps.len(), 2);
    }

    #[test]
    fn explain_output_mentions_all_tables() {
        let c = catalog();
        let plan = c.plan(&ChainJoinQuery::new(["dense", "sparse_a"])).unwrap();
        let text = format!("{plan}");
        assert!(text.contains("dense"), "{text}");
        assert!(text.contains("sparse_a"), "{text}");
        assert!(text.contains("rtree-join"), "{text}");
    }

    #[test]
    fn estimates_are_positive_for_overlapping_tables() {
        let c = catalog();
        let plan = c
            .plan(&ChainJoinQuery::new(["dense", "sparse_a", "sparse_b"]))
            .unwrap();
        assert!(plan.estimated_result >= 0.0);
        assert!(plan.estimated_result.is_finite());
    }
}

/// A star spatial join: one `center` table and `satellites`; find tuples
/// `(c, s₁, …, s_k)` where every satellite object's MBR intersects the
/// center object's MBR ("census blocks containing a school, a hospital
/// and a fire station").
#[derive(Debug, Clone)]
pub struct StarJoinQuery {
    /// The hub table every predicate involves.
    pub center: String,
    /// The satellite tables.
    pub satellites: Vec<String>,
    /// Optional window every tuple member must intersect.
    pub window: Option<Rect>,
}

impl StarJoinQuery {
    /// Creates a star join.
    pub fn new<I, S>(center: impl Into<String>, satellites: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            center: center.into(),
            satellites: satellites.into_iter().map(Into::into).collect(),
            window: None,
        }
    }

    /// Restricts the query to a window.
    #[must_use]
    pub fn within(mut self, window: Rect) -> Self {
        self.window = Some(window);
        self
    }

    /// Lowers the star to an executable [`Plan`] via the chain machinery:
    /// since every predicate involves the center, a star is a "chain"
    /// whose probes all go `via` the center. The planner orders the
    /// satellites by ascending estimated fan-out so the intermediate
    /// stays as small as possible for as long as possible.
    ///
    /// # Errors
    /// Unknown tables, an empty satellite list, and estimation failures.
    pub fn plan(&self, catalog: &Catalog) -> Result<Plan, QueryError> {
        if self.satellites.is_empty() {
            return Err(QueryError::TooFewTables(1));
        }
        let _ = catalog.table(&self.center)?;
        for s in &self.satellites {
            let _ = catalog.table(s)?;
        }
        let center_len = catalog.table_len(&self.center)?;

        // Estimated fan-out of each satellite: partners per center object.
        let mut warnings = Vec::new();
        let mut sats: Vec<(usize, f64, f64)> = Vec::new(); // (idx, pairs, growth)
        for (i, s) in self.satellites.iter().enumerate() {
            let pairs = estimate_edge(catalog, &self.center, s, &mut warnings)?;
            #[allow(clippy::cast_precision_loss)]
            let growth = if center_len == 0 {
                0.0
            } else {
                pairs / center_len as f64
            };
            sats.push((i, pairs, growth));
        }
        sats.sort_by(|a, b| a.2.total_cmp(&b.2));

        // Tuple layout: column 0 = center, column 1 + i = satellite i (in
        // the *query's* order). The plan visits them in fan-out order.
        let mut tables = Vec::with_capacity(1 + self.satellites.len());
        tables.push(self.center.clone());
        tables.extend(self.satellites.iter().cloned());

        let (first_idx, first_pairs, _) = sats[0];
        let mut steps = vec![PlanStep::JoinEdge {
            left: 0,
            right: 1 + first_idx,
            estimated_pairs: first_pairs,
        }];
        let mut estimate = first_pairs;
        for &(idx, _, growth) in &sats[1..] {
            estimate *= growth;
            steps.push(PlanStep::Probe {
                table: 1 + idx,
                via: 0,
                estimated_tuples: estimate,
            });
        }
        Ok(Plan {
            tables,
            steps,
            window: self.window,
            estimated_result: estimate,
            warnings,
        })
    }
}

#[cfg(test)]
mod star_tests {
    use super::*;
    use sj_datagen::Dataset;
    use sj_geo::{Extent, Point};

    fn grid_of_rects(name: &str, n_per_axis: usize, side: f64) -> Dataset {
        let mut rects = Vec::new();
        for i in 0..n_per_axis {
            for j in 0..n_per_axis {
                let x = (i as f64 + 0.5) / n_per_axis as f64;
                let y = (j as f64 + 0.5) / n_per_axis as f64;
                rects.push(Rect::centered(Point::new(x, y), side, side));
            }
        }
        Dataset::new(name, Extent::unit(), rects)
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::with_level(5);
        c.register(grid_of_rects("center", 12, 0.1)).unwrap();
        c.register(grid_of_rects("dense_sat", 25, 0.06)).unwrap();
        c.register(grid_of_rects("sparse_sat", 8, 0.01)).unwrap();
        c
    }

    #[test]
    fn star_plan_orders_satellites_by_fanout() {
        let c = catalog();
        let q = StarJoinQuery::new("center", ["dense_sat", "sparse_sat"]);
        let plan = q.plan(&c).unwrap();
        // The sparse satellite (column 2) has the smaller fan-out, so the
        // plan must open with it, then probe the dense one (column 1).
        assert!(
            matches!(
                plan.steps[0],
                PlanStep::JoinEdge {
                    left: 0,
                    right: 2,
                    ..
                }
            ),
            "expected to open with the sparse satellite, got {:?}",
            plan.steps[0]
        );
        assert!(matches!(
            plan.steps[1],
            PlanStep::Probe {
                table: 1,
                via: 0,
                ..
            }
        ));
    }

    #[test]
    fn star_execution_matches_brute_force() {
        let c = catalog();
        let q = StarJoinQuery::new("center", ["dense_sat", "sparse_sat"]);
        let plan = q.plan(&c).unwrap();
        let mut got = plan.execute(&c).unwrap().tuples;
        got.sort();

        // Brute force: center × sat1 × sat2, both predicates via center.
        let (dc, d1, d2) = (
            c.dataset("center").unwrap(),
            c.dataset("dense_sat").unwrap(),
            c.dataset("sparse_sat").unwrap(),
        );
        let mut expected = Vec::new();
        for (ci, cr) in dc.rects.iter().enumerate() {
            for (i1, r1) in d1.rects.iter().enumerate() {
                if !cr.intersects(r1) {
                    continue;
                }
                for (i2, r2) in d2.rects.iter().enumerate() {
                    if cr.intersects(r2) {
                        expected.push(vec![ci as u64, i1 as u64, i2 as u64]);
                    }
                }
            }
        }
        expected.sort();
        assert_eq!(got, expected);
        assert!(!got.is_empty(), "fixture star join should be non-empty");
    }

    #[test]
    fn star_needs_a_satellite() {
        let c = catalog();
        let q = StarJoinQuery::new("center", Vec::<String>::new());
        assert!(matches!(q.plan(&c), Err(QueryError::TooFewTables(1))));
    }

    #[test]
    fn star_window_filters() {
        let c = catalog();
        let w = Rect::new(0.0, 0.0, 0.45, 0.45);
        let q = StarJoinQuery::new("center", ["sparse_sat"]).within(w);
        let result = q.plan(&c).unwrap().execute(&c).unwrap();
        let dc = c.dataset("center").unwrap();
        let ds = c.dataset("sparse_sat").unwrap();
        for t in &result.tuples {
            assert!(dc.rects[usize::try_from(t[0]).unwrap()].intersects(&w));
            assert!(ds.rects[usize::try_from(t[1]).unwrap()].intersects(&w));
        }
    }
}
