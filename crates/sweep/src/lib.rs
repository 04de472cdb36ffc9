//! Plane-sweep rectangle intersection join (Preparata & Shamos, 1985 —
//! the paper's ref \[21\]).
//!
//! This crate implements the classic *forward plane sweep* over two sets
//! of axis-parallel rectangles sorted by their left edge: the rectangle
//! whose left edge comes first scans forward in the *other* set for
//! rectangles whose left edge falls inside its x-span, testing the y
//! intervals directly. Every intersecting pair is reported exactly once.
//!
//! It serves two roles in the workspace:
//!
//! * **Ground truth oracle** — an R-tree-free implementation against which
//!   the R-tree join is validated (the two must agree bit-for-bit on pair
//!   counts).
//! * **Alternative join backend** — Section 2 of the paper notes one could
//!   "directly perform a plane sweep algorithm on the two samples"; this
//!   backend makes that variant available to the sampling estimator.

use sj_geo::Rect;

/// Counts intersecting pairs between `a` and `b` with a forward plane
/// sweep. Complexity `O(n log n + m log m + S)` where `S` is the number of
/// x-overlapping pairs scanned.
///
/// ```
/// use sj_geo::Rect;
/// let a = vec![Rect::new(0.0, 0.0, 1.0, 1.0)];
/// let b = vec![Rect::new(0.5, 0.5, 2.0, 2.0), Rect::new(3.0, 3.0, 4.0, 4.0)];
/// assert_eq!(sj_sweep::sweep_join_count(&a, &b), 1);
/// ```
#[must_use]
pub fn sweep_join_count(a: &[Rect], b: &[Rect]) -> u64 {
    let mut n = 0u64;
    sweep_join_pairs(a, b, |_, _| n += 1);
    n
}

/// Counts intersecting pairs like [`sweep_join_count`], splitting `a`
/// into contiguous chunks swept against all of `b` on `threads` scoped
/// worker threads. Pair counts are integers, so the result is exactly
/// equal to the serial count for every thread count.
///
/// `threads <= 1` (or a small input) runs the serial [`sweep_join_count`]
/// on the caller's thread.
#[must_use]
pub fn sweep_join_count_parallel(a: &[Rect], b: &[Rect], threads: usize) -> u64 {
    let threads = threads.max(1).min(a.len().max(1));
    if threads == 1 || a.len() < 2 * threads {
        return sweep_join_count(a, b);
    }
    let chunk_len = a.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = a
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || sweep_join_count(chunk, b)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .sum()
    })
}

/// Visits every intersecting pair `(index_in_a, index_in_b)` exactly once.
pub fn sweep_join_pairs<F: FnMut(usize, usize)>(a: &[Rect], b: &[Rect], mut emit: F) {
    if a.is_empty() || b.is_empty() {
        return;
    }
    let mut ia: Vec<u32> = (0..a.len() as u32).collect();
    let mut ib: Vec<u32> = (0..b.len() as u32).collect();
    ia.sort_by(|&p, &q| a[p as usize].xlo.total_cmp(&a[q as usize].xlo));
    ib.sort_by(|&p, &q| b[p as usize].xlo.total_cmp(&b[q as usize].xlo));

    let (mut i, mut j) = (0usize, 0usize);
    while i < ia.len() && j < ib.len() {
        let ra = a[ia[i] as usize];
        let rb = b[ib[j] as usize];
        if ra.xlo <= rb.xlo {
            // `ra` opens first; every b opening within ra's x-span
            // x-overlaps it (consumed b's all opened strictly earlier).
            for &jb in &ib[j..] {
                let rb2 = b[jb as usize];
                if rb2.xlo > ra.xhi {
                    break;
                }
                if ra.ylo <= rb2.yhi && rb2.ylo <= ra.yhi {
                    emit(ia[i] as usize, jb as usize);
                }
            }
            i += 1;
        } else {
            for &ja in &ia[i..] {
                let ra2 = a[ja as usize];
                if ra2.xlo > rb.xhi {
                    break;
                }
                if rb.ylo <= ra2.yhi && ra2.ylo <= rb.yhi {
                    emit(ja as usize, ib[j] as usize);
                }
            }
            j += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Partition-based parallel plane sweep (Tsitsigkos & Mamoulis)
// ---------------------------------------------------------------------

/// The tile grid geometry of a [`TiledSweep`] plan: a `t × t` grid over
/// the joint bounding box of both inputs.
#[derive(Debug, Clone, Copy)]
struct TileGrid {
    xmin: f64,
    ymin: f64,
    dx: f64,
    dy: f64,
    t: u32,
}

impl TileGrid {
    /// Tile index along one axis, clamped into `0..t`. A degenerate axis
    /// (`d == 0`, or non-finite ratios) maps everything to tile 0, which
    /// keeps the partition total (every point owned by exactly one tile).
    fn axis_tile(v: f64, min: f64, d: f64, t: u32) -> u32 {
        let tf = f64::from(t);
        let u = (v - min) / d;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let i = u.floor().clamp(0.0, tf - 1.0) as u32;
        i
    }

    fn tile_of(&self, x: f64, y: f64) -> (u32, u32) {
        (
            Self::axis_tile(x, self.xmin, self.dx, self.t),
            Self::axis_tile(y, self.ymin, self.dy, self.t),
        )
    }
}

/// One tile of a [`TiledSweep`] partition plan: the rectangles of both
/// inputs replicated into this tile, plus the tile's own grid
/// coordinates for reference-point deduplication.
#[derive(Debug, Clone)]
pub struct SweepTile {
    grid: TileGrid,
    ti: u32,
    tj: u32,
    a: Vec<Rect>,
    b: Vec<Rect>,
}

impl SweepTile {
    /// Counts the intersecting pairs owned by this tile: a local
    /// [`sweep_join_pairs`] over the replicated rectangles, counting a
    /// pair only when its *reference point* — the bottom-left corner of
    /// the pairwise intersection, `(max(xlo), max(ylo))` — falls in this
    /// tile. The reference point lies inside both rectangles, so exactly
    /// one tile across the plan counts each pair; summing tile counts
    /// equals the serial [`sweep_join_count`] exactly (integer counts, no
    /// rounding to argue about).
    #[must_use]
    pub fn count(&self) -> u64 {
        let mut n = 0u64;
        sweep_join_pairs(&self.a, &self.b, |i, j| {
            let (ra, rb) = (&self.a[i], &self.b[j]);
            let rx = ra.xlo.max(rb.xlo);
            let ry = ra.ylo.max(rb.ylo);
            if self.grid.tile_of(rx, ry) == (self.ti, self.tj) {
                n += 1;
            }
        });
        n
    }

    /// Number of rectangles replicated into this tile, `(|a|, |b|)`.
    #[must_use]
    pub fn sizes(&self) -> (usize, usize) {
        (self.a.len(), self.b.len())
    }
}

/// A partition-based parallel plane-sweep plan (Tsitsigkos & Mamoulis,
/// "Parallel In-Memory Evaluation of Spatial Joins"): the joint bounding
/// box is tiled, every rectangle is replicated into each tile it
/// overlaps, and each tile is swept *independently* — no shared state —
/// with duplicates suppressed by the reference-point rule (see
/// [`SweepTile::count`]). Callers map [`SweepTile::count`] over
/// [`TiledSweep::into_tiles`] with whatever executor they own (sj-core
/// feeds it through its `Parallelism` layer) and sum.
#[derive(Debug, Clone)]
pub struct TiledSweep {
    tiles: Vec<SweepTile>,
}

impl TiledSweep {
    /// The per-tile work items. Tiles with either side empty are already
    /// pruned (they cannot own a pair).
    #[must_use]
    pub fn into_tiles(self) -> Vec<SweepTile> {
        self.tiles
    }

    /// Number of (non-empty) tiles in the plan.
    #[must_use]
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Sums [`SweepTile::count`] serially — the single-threaded reference
    /// evaluation of the plan.
    #[must_use]
    pub fn count_serial(&self) -> u64 {
        self.tiles.iter().map(SweepTile::count).sum()
    }
}

/// Builds a [`TiledSweep`] plan over `a` and `b` with roughly
/// `tiles_hint` tiles (rounded up to a `t × t` grid, `t` capped at 64).
///
/// ```
/// use sj_geo::Rect;
/// let a = vec![Rect::new(0.0, 0.0, 1.0, 1.0), Rect::new(2.0, 2.0, 3.0, 3.0)];
/// let b = vec![Rect::new(0.5, 0.5, 2.5, 2.5)];
/// let plan = sj_sweep::tile_sweep(&a, &b, 16);
/// let total: u64 = plan.into_tiles().iter().map(|t| t.count()).sum();
/// assert_eq!(total, sj_sweep::sweep_join_count(&a, &b));
/// ```
#[must_use]
pub fn tile_sweep(a: &[Rect], b: &[Rect], tiles_hint: usize) -> TiledSweep {
    if a.is_empty() || b.is_empty() {
        return TiledSweep { tiles: Vec::new() };
    }
    // Joint bounding box of both inputs.
    let mut xmin = f64::INFINITY;
    let mut ymin = f64::INFINITY;
    let mut xmax = f64::NEG_INFINITY;
    let mut ymax = f64::NEG_INFINITY;
    for r in a.iter().chain(b) {
        xmin = xmin.min(r.xlo);
        ymin = ymin.min(r.ylo);
        xmax = xmax.max(r.xhi);
        ymax = ymax.max(r.yhi);
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let t = ((tiles_hint.max(1) as f64).sqrt().ceil() as u32).clamp(1, 64);
    let grid = TileGrid {
        xmin,
        ymin,
        dx: (xmax - xmin) / f64::from(t),
        dy: (ymax - ymin) / f64::from(t),
        t,
    };
    let ts = t as usize;
    let mut tiles: Vec<SweepTile> = (0..t * t)
        .map(|k| SweepTile {
            grid,
            ti: k % t,
            tj: k / t,
            a: Vec::new(),
            b: Vec::new(),
        })
        .collect();
    // Replicate each rectangle into every tile it overlaps.
    let mut scatter = |rects: &[Rect], pick_a: bool| {
        for r in rects {
            let (i0, j0) = grid.tile_of(r.xlo, r.ylo);
            let (i1, j1) = grid.tile_of(r.xhi, r.yhi);
            for tj in j0..=j1 {
                for ti in i0..=i1 {
                    let tile = &mut tiles[tj as usize * ts + ti as usize];
                    if pick_a {
                        tile.a.push(*r);
                    } else {
                        tile.b.push(*r);
                    }
                }
            }
        }
    };
    scatter(a, true);
    scatter(b, false);
    tiles.retain(|tile| !tile.a.is_empty() && !tile.b.is_empty());
    TiledSweep { tiles }
}

/// Counts intersecting pairs via a [`tile_sweep`] plan evaluated on
/// `threads` scoped worker threads (`4 × threads` tiles for load
/// balance). Integer tile counts and reference-point deduplication make
/// the result exactly equal to the serial [`sweep_join_count`] for every
/// thread count; `threads <= 1` evaluates the plan serially.
///
/// This is the standalone entry point; `sj-core`'s exact oracle builds
/// the same plan and maps it over its own `Parallelism` layer instead.
#[must_use]
pub fn sweep_join_count_tiled(a: &[Rect], b: &[Rect], threads: usize) -> u64 {
    let threads = threads.max(1);
    let plan = tile_sweep(a, b, 4 * threads);
    if threads == 1 || plan.num_tiles() <= 1 {
        return plan.count_serial();
    }
    let tiles = plan.into_tiles();
    let chunk_len = tiles.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = tiles
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || chunk.iter().map(SweepTile::count).sum::<u64>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .sum()
    })
}

/// Naive `O(n·m)` join, for validating the sweep on small inputs and as a
/// last-resort backend for tiny samples.
#[must_use]
pub fn brute_force_count(a: &[Rect], b: &[Rect]) -> u64 {
    let mut n = 0u64;
    for ra in a {
        for rb in b {
            if ra.intersects(rb) {
                n += 1;
            }
        }
    }
    n
}

/// Exact selectivity of the spatial join: `pairs / (|a| · |b|)`.
/// Returns `0.0` when either input is empty.
#[must_use]
pub fn sweep_join_selectivity(a: &[Rect], b: &[Rect]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    {
        sweep_join_count(a, b) as f64 / (a.len() as f64 * b.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_rects(n: usize, seed: u64, max_side: f64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = rng.random_range(0.0..1.0);
                let y = rng.random_range(0.0..1.0);
                Rect::new(
                    x,
                    y,
                    x + rng.random_range(0.0..max_side),
                    y + rng.random_range(0.0..max_side),
                )
            })
            .collect()
    }

    #[test]
    fn sweep_matches_brute_force() {
        let a = random_rects(500, 21, 0.05);
        let b = random_rects(400, 22, 0.08);
        assert_eq!(sweep_join_count(&a, &b), brute_force_count(&a, &b));
    }

    #[test]
    fn parallel_matches_serial_for_all_thread_counts() {
        let a = random_rects(400, 31, 0.06);
        let b = random_rects(350, 32, 0.09);
        let serial = sweep_join_count(&a, &b);
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                sweep_join_count_parallel(&a, &b, threads),
                serial,
                "threads={threads}"
            );
        }
        assert_eq!(sweep_join_count_parallel(&[], &b, 4), 0);
        assert_eq!(sweep_join_count_parallel(&a, &[], 4), 0);
    }

    #[test]
    fn sweep_is_symmetric() {
        let a = random_rects(300, 23, 0.1);
        let b = random_rects(300, 24, 0.02);
        assert_eq!(sweep_join_count(&a, &b), sweep_join_count(&b, &a));
    }

    #[test]
    fn empty_inputs() {
        let a = random_rects(10, 25, 0.1);
        assert_eq!(sweep_join_count(&a, &[]), 0);
        assert_eq!(sweep_join_count(&[], &a), 0);
        assert_eq!(sweep_join_selectivity(&[], &a), 0.0);
    }

    #[test]
    fn touching_rectangles_count() {
        let a = vec![Rect::new(0.0, 0.0, 1.0, 1.0)];
        let b = vec![Rect::new(1.0, 1.0, 2.0, 2.0)]; // corner touch
        assert_eq!(sweep_join_count(&a, &b), 1);
    }

    #[test]
    fn identical_rects_all_pairs() {
        let a = vec![Rect::new(0.25, 0.25, 0.75, 0.75); 13];
        let b = vec![Rect::new(0.5, 0.5, 0.9, 0.9); 7];
        assert_eq!(sweep_join_count(&a, &b), 13 * 7);
    }

    #[test]
    fn pairs_emitted_exactly_once() {
        let a = random_rects(200, 26, 0.2);
        let b = random_rects(200, 27, 0.2);
        let mut pairs = Vec::new();
        sweep_join_pairs(&a, &b, |i, j| pairs.push((i, j)));
        let total = pairs.len();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), total, "duplicate pair emitted");
        assert_eq!(total as u64, brute_force_count(&a, &b));
    }

    #[test]
    fn point_datasets() {
        let pts: Vec<Rect> = (0..100)
            .map(|i| Rect::new(f64::from(i), 0.0, f64::from(i), 0.0))
            .collect();
        // A point set joined with itself: only coincident points pair.
        assert_eq!(sweep_join_count(&pts, &pts), 100);
        let sel = sweep_join_selectivity(&pts, &pts);
        assert!((sel - 0.01).abs() < 1e-12);
    }

    #[test]
    fn tiled_matches_serial_for_all_thread_counts() {
        let a = random_rects(400, 41, 0.06);
        let b = random_rects(350, 42, 0.09);
        let serial = sweep_join_count(&a, &b);
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                sweep_join_count_tiled(&a, &b, threads),
                serial,
                "threads={threads}"
            );
        }
        assert_eq!(sweep_join_count_tiled(&[], &b, 4), 0);
        assert_eq!(sweep_join_count_tiled(&a, &[], 4), 0);
    }

    #[test]
    fn tiled_plan_partitions_pairs_exactly() {
        // Large rects replicate into many tiles; reference-point dedup
        // must still count every pair exactly once.
        let a = random_rects(250, 43, 0.4);
        let b = random_rects(250, 44, 0.4);
        for hint in [1, 4, 16, 100] {
            let plan = tile_sweep(&a, &b, hint);
            assert_eq!(
                plan.count_serial(),
                sweep_join_count(&a, &b),
                "tiles_hint={hint}"
            );
        }
    }

    #[test]
    fn tiled_handles_boundary_and_degenerate_geometry() {
        // Corner-touching pair whose reference point sits exactly on a
        // tile boundary.
        let a = vec![Rect::new(0.0, 0.0, 1.0, 1.0)];
        let b = vec![Rect::new(1.0, 1.0, 2.0, 2.0)];
        assert_eq!(sweep_join_count_tiled(&a, &b, 4), 1);
        // Identical rects: all pairs, counted once each.
        let a = vec![Rect::new(0.25, 0.25, 0.75, 0.75); 13];
        let b = vec![Rect::new(0.5, 0.5, 0.9, 0.9); 7];
        assert_eq!(sweep_join_count_tiled(&a, &b, 8), 13 * 7);
        // Point datasets: degenerate extents on the y axis (all zero
        // height) still partition correctly.
        let pts: Vec<Rect> = (0..100)
            .map(|i| Rect::new(f64::from(i), 0.0, f64::from(i), 0.0))
            .collect();
        assert_eq!(sweep_join_count_tiled(&pts, &pts, 8), 100);
        // Single coincident point: fully degenerate bounding box.
        let p = vec![Rect::new(0.5, 0.5, 0.5, 0.5)];
        assert_eq!(sweep_join_count_tiled(&p, &p, 8), 1);
    }

    #[test]
    fn tiled_clustered_data() {
        // Heavy clustering stresses uneven tile occupancy.
        let mut rng = StdRng::seed_from_u64(45);
        let clustered: Vec<Rect> = (0..600)
            .map(|i| {
                let (cx, cy) = if i % 3 == 0 { (0.2, 0.2) } else { (0.8, 0.7) };
                let x = cx + rng.random_range(-0.05..0.05);
                let y = cy + rng.random_range(-0.05..0.05);
                Rect::new(x, y, x + 0.02, y + 0.02)
            })
            .collect();
        let other = random_rects(500, 46, 0.05);
        let serial = sweep_join_count(&clustered, &other);
        assert_eq!(sweep_join_count_tiled(&clustered, &other, 4), serial);
        assert_eq!(sweep_join_count_tiled(&clustered, &other, 16), serial);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_sweep_equals_brute_force(
            seed_a in 0u64..1000, seed_b in 0u64..1000,
            na in 0usize..80, nb in 0usize..80,
        ) {
            let a = random_rects(na, seed_a, 0.3);
            let b = random_rects(nb, seed_b, 0.3);
            prop_assert_eq!(sweep_join_count(&a, &b), brute_force_count(&a, &b));
        }

        #[test]
        fn prop_tiled_equals_serial(
            seed_a in 0u64..500, seed_b in 0u64..500,
            na in 0usize..60, nb in 0usize..60,
            hint in 1usize..40,
        ) {
            let a = random_rects(na, seed_a, 0.3);
            let b = random_rects(nb, seed_b, 0.3);
            prop_assert_eq!(
                tile_sweep(&a, &b, hint).count_serial(),
                sweep_join_count(&a, &b)
            );
        }
    }
}
