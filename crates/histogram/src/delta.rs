//! Signed histogram deltas: incremental statistics maintenance with
//! exact equivalence to a full rebuild.
//!
//! Every per-cell statistic of the four families is a pure sum over the
//! input MBRs, accumulated exactly (integer counters or fixed-point
//! [`Mass`]). Sums form a group under exact addition, so a batch of
//! mutations has a well-defined *signed* summary:
//!
//! ```text
//! Δ = build(inserts) − build(deletes)
//! ```
//!
//! and applying it to an existing histogram reproduces the full rebuild
//! bit-for-bit:
//!
//! ```text
//! apply_delta(build(D), Δ)  ≡  build(D ∪ Δ⁺ ∖ Δ⁻)
//! ```
//!
//! — the identity `sj-lint verify-equivalence` proves dynamically
//! across the same matrix as the shard merges. Each side of the batch
//! is binned by the family's one `build_rows` pass (an insert batch is
//! just another shard) into a touched-cell accumulator instead of a
//! dense grid, then the sides are differenced statistic by statistic in
//! the family's declared order (`schema.rs`), the order
//! `first_divergence` walks too.
//!
//! Signedness is what makes deletes safe: unsigned `u32` cell counters
//! widen to `i64` inside the delta, and application range-checks every
//! counter and scalar *before* writing anything, so a delete-heavy batch
//! that would underflow yields a typed
//! [`HistogramError::DeltaOutOfRange`] and leaves the histogram
//! untouched — never a debug-panic or a silent wrap.
//!
//! A delta is **sparse**: each statistic array keeps only the ascending
//! indices of the cells whose value changed, with their signed changes.
//! A batch of small rectangles touches a few hundred cells of a
//! 16,384-cell level-7 grid, so building and applying a delta costs
//! what the batch touches, not the whole grid.
//!
//! A small batch's build never allocates a grid either. A side's
//! binning pass records each contribution as a `(cell, value)` pair in
//! emission order; a stable sort by cell then sums each cell's pairs in
//! that same order, which is the order a dense build adds them in.
//! Every contribution is a count of one or an exact [`Mass`], so each
//! touched cell's sum equals the dense array's entry, and a cell no
//! rectangle reaches is zero on both sides — exactly the entries a
//! dense difference drops. A side whose rectangles could record more
//! pairs in one array than the grid has cells (whole dataset files
//! through `sjsel apply-delta`, or a few grid-spanning rectangles) is
//! binned densely instead, as registration bins a table, and its
//! non-zero cells taken: the same cells with the same sums, so the
//! build's memory is bounded by the grid whatever the batch, and a
//! large batch costs what a dense build costs. Subtracting the two
//! sides cell by cell, as the dense difference did, and dropping zero
//! results therefore gives the dense difference's support and values
//! bit for bit (the reference in the tests keeps the dense two-sided
//! difference to prove it). With `threads` row bands each band sorts
//! its own cells; a band writes only its own rows of row-major
//! lattices, so the bands concatenate in ascending index order and
//! every thread count gives the same delta.
//!
//! A delta is an in-memory value. It is never written to disk: the
//! daemon's WAL and `sjsel apply-delta` both keep a batch as its
//! rectangles and build the delta from them when it is applied.

#![warn(clippy::float_arithmetic)]

use crate::band::{build_shard_merge, map_row_bands, RowBanded};
use crate::grid::ix;
use crate::mass::Mass;
use crate::schema::{Column, ColumnMut, Family, Repr, Schema, Sink};
use crate::{CorruptSection, Grid, HistogramError, HistogramKind};
use sj_geo::Rect;
use std::ops::AddAssign;

/// Signed per-array delta values. Counts widen from the histograms'
/// `u32` to `i64` so a delete-side excess is representable instead of
/// underflowing; masses are natively signed.
#[derive(Debug, Clone, PartialEq)]
enum DeltaValues {
    /// Signed counter updates.
    Counts(Vec<i64>),
    /// Signed mass updates.
    Masses(Vec<Mass>),
}

/// One named per-cell delta array in sparse form, positionally matching
/// the family's declared array order ([`Schema::arrays`]): the strictly
/// ascending indices of the cells whose statistic changed, and the
/// non-zero signed change at each.
#[derive(Debug, Clone, PartialEq)]
struct DeltaArray {
    name: &'static str,
    /// Length of the dense statistic array this delta updates.
    cells: usize,
    indices: Vec<u32>,
    values: DeltaValues,
}

/// The touched cells of one per-cell array: during a binning pass, the
/// `(cell, value)` contributions in emission order (a count
/// contribution is always one); once settled, the strictly ascending
/// cells any contribution reached, with each cell's exact sum. A
/// settled list may leave out a cell whose sum is zero: it differences
/// like a cell nothing touched.
enum Touched {
    Counts(Vec<(u32, u32)>),
    Masses(Vec<(u32, Mass)>),
}

/// A [`Sink`] that records only what a binning pass touches: the
/// scalars, and per declared array its [`Touched`] cells.
struct TouchedBins {
    scalars: Vec<u64>,
    arrays: Vec<Touched>,
}

impl TouchedBins {
    /// No contributions yet, shaped by `schema`.
    fn new(schema: &Schema) -> Self {
        Self {
            scalars: vec![0; schema.scalars.len()],
            arrays: schema
                .arrays
                .iter()
                .map(|stat| match stat.repr {
                    Repr::Count => Touched::Counts(Vec::new()),
                    Repr::Mass => Touched::Masses(Vec::new()),
                })
                .collect(),
        }
    }

    /// The settled cells of a dense histogram: its scalars, and each
    /// array's non-zero cells.
    fn of_dense<H: Family>(h: &H) -> Self {
        Self {
            scalars: h.scalars(),
            arrays: h
                .columns()
                .into_iter()
                .map(|column| match column {
                    Column::Count(values) => Touched::Counts(non_zero(values)),
                    Column::Mass(values) => Touched::Masses(non_zero(values)),
                })
                .collect(),
        }
    }

    /// Sorts each array's contributions by cell (stably, so a cell's
    /// contributions keep their emission order) and sums each cell's
    /// run, leaving one entry per touched cell.
    fn settle(&mut self) {
        for array in &mut self.arrays {
            match array {
                Touched::Counts(entries) => sum_runs(entries),
                Touched::Masses(entries) => sum_runs(entries),
            }
        }
    }

    /// Appends `band`'s settled cells, all above this one's.
    fn append(&mut self, band: TouchedBins) {
        for (a, b) in self.scalars.iter_mut().zip(band.scalars) {
            *a += b;
        }
        for (a, b) in self.arrays.iter_mut().zip(band.arrays) {
            match (a, b) {
                (Touched::Counts(a), Touched::Counts(b)) => a.extend(b),
                (Touched::Masses(a), Touched::Masses(b)) => a.extend(b),
                // Both come from one schema: positions share a repr.
                _ => {}
            }
        }
    }
}

impl Sink for TouchedBins {
    fn add_scalar(&mut self, k: usize, v: u64) {
        if let Some(slot) = self.scalars.get_mut(k) {
            *slot += v;
        }
    }

    fn add_count(&mut self, array: usize, cell: usize) {
        if let Some(Touched::Counts(entries)) = self.arrays.get_mut(array) {
            entries.push((cell_index(cell), 1));
        }
    }

    fn add_mass(&mut self, array: usize, cell: usize, v: Mass) {
        if let Some(Touched::Masses(entries)) = self.arrays.get_mut(array) {
            entries.push((cell_index(cell), v));
        }
    }
}

/// A lattice index as stored in a delta. Lattices hold at most
/// 4^MAX_LEVEL cells, well inside `u32`.
fn cell_index(cell: usize) -> u32 {
    u32::try_from(cell).unwrap_or(u32::MAX)
}

/// The non-zero entries of a dense array, ascending.
fn non_zero<T: Copy + Default + PartialEq>(values: &[T]) -> Vec<(u32, T)> {
    values
        .iter()
        .enumerate()
        .filter(|(_, v)| **v != T::default())
        .map(|(cell, v)| (cell_index(cell), *v))
        .collect()
}

/// Stable-sorts `(cell, value)` contributions by cell and folds each
/// cell's run into one entry, adding in emission order.
fn sum_runs<T: Copy + AddAssign>(entries: &mut Vec<(u32, T)>) {
    entries.sort_by_key(|(cell, _)| *cell);
    entries.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
}

/// An upper bound on the contributions one binning pass of `rects`
/// makes to any single array of any family, counted only until it
/// passes `cap`: a rectangle adds at most one per cell of its block
/// (overlap, intersection, face and count arrays), two per cell along
/// the block's rows or columns (its two vertical or two horizontal
/// edges), or four (its corners).
fn contributions_bound(grid: &Grid, rects: &[Rect], cap: usize) -> usize {
    let mut bound = 0;
    for r in rects {
        if bound > cap {
            break;
        }
        let (c0, c1, r0, r1) = grid.cell_range(r);
        bound += 2 * ix(c1 - c0 + 1) * ix(r1 - r0 + 1) + 4;
    }
    bound
}

/// The touched cells of `rects` on `grid` for family `H`: one binning
/// pass per row band, each settled, concatenated in band order. A batch
/// that could record more contributions to one array than the grid has
/// cells is binned densely instead, the way registration bins a table,
/// and its non-zero cells taken: recording stays within about twice a
/// dense array's bytes whatever the batch, and a large batch costs what a
/// dense build costs.
fn touched<H: RowBanded>(grid: Grid, rects: &[Rect], threads: usize) -> TouchedBins {
    let cells = grid.num_cells();
    if contributions_bound(&grid, rects, cells) > cells {
        return TouchedBins::of_dense(&build_shard_merge::<H>(grid, rects, threads));
    }
    let bands = map_row_bands(grid.cells_per_axis(), threads, |lo, hi| {
        let mut bins = TouchedBins::new(&H::SCHEMA);
        H::build_rows(grid, rects, lo, hi, &mut bins);
        bins.settle();
        bins
    });
    let mut all = TouchedBins::new(&H::SCHEMA);
    for band in bands {
        all.append(band);
    }
    all
}

/// The sparse difference `ins − del` of two touched-cell lists: a merge
/// over the union of their cells, where a cell one side did not touch
/// is zero (`T::default()`) there. Keeps the ascending cells whose
/// difference is not zero, and those differences.
fn touched_difference<T: Copy + Default, D>(
    ins: &[(u32, T)],
    del: &[(u32, T)],
    sub: impl Fn(T, T) -> D,
    is_zero: impl Fn(&D) -> bool,
) -> (Vec<u32>, Vec<D>) {
    let mut indices = Vec::with_capacity(ins.len().max(del.len()));
    let mut values = Vec::with_capacity(ins.len().max(del.len()));
    let (mut ins, mut del) = (ins.iter().peekable(), del.iter().peekable());
    let zero = T::default();
    loop {
        let (cell, a, b) = match (ins.peek(), del.peek()) {
            (None, None) => break,
            (Some(&&(i, a)), Some(&&(j, b))) if i == j => {
                ins.next();
                del.next();
                (i, a, b)
            }
            (Some(&&(i, a)), Some(&&(j, _))) if i < j => {
                ins.next();
                (i, a, zero)
            }
            (Some(&&(i, a)), None) => {
                ins.next();
                (i, a, zero)
            }
            (_, Some(&&(j, b))) => {
                del.next();
                (j, zero, b)
            }
        };
        let d = sub(a, b);
        if !is_zero(&d) {
            indices.push(cell);
            values.push(d);
        }
    }
    (indices, values)
}

/// A signed batch update to one histogram: the exact statistic-wise
/// difference `build(inserts) − build(deletes)` for a fixed kind and
/// grid.
///
/// # Examples
/// ```
/// use sj_geo::{Extent, Rect};
/// use sj_histogram::{Grid, GhHistogram, HistogramDelta, HistogramKind, SpatialHistogram};
///
/// let grid = Grid::new(3, Extent::unit())?;
/// let base = vec![
///     Rect::new(0.10, 0.10, 0.22, 0.18),
///     Rect::new(0.55, 0.60, 0.70, 0.71),
/// ];
/// let ins = vec![Rect::new(0.30, 0.05, 0.42, 0.30)];
/// let del = vec![base[1]];
///
/// // Incremental maintenance equals a full rebuild, bit for bit.
/// let mut maintained = GhHistogram::build_from(grid, &base);
/// maintained.apply_delta(&HistogramDelta::build(HistogramKind::Gh, grid, &ins, &del))?;
/// let rebuilt = GhHistogram::build_from(grid, &[base[0], ins[0]]);
/// assert_eq!(maintained.to_bytes(), rebuilt.to_bytes());
/// # Ok::<(), sj_histogram::HistogramError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramDelta {
    kind: HistogramKind,
    grid: Grid,
    inserts: u64,
    deletes: u64,
    /// Signed deltas of the family's `u64` scalars, in declaration
    /// order. `i128` holds the full ± range of a `u64` difference.
    scalars: Vec<(&'static str, i128)>,
    arrays: Vec<DeltaArray>,
}

impl HistogramDelta {
    /// Builds the signed delta of an insert/delete batch (serial).
    #[must_use]
    pub fn build(kind: HistogramKind, grid: Grid, inserts: &[Rect], deletes: &[Rect]) -> Self {
        Self::build_parallel(kind, grid, inserts, deletes, 1)
    }

    /// Builds the signed delta of an insert/delete batch, driving both
    /// sides through the row-band shard driver with `threads` workers —
    /// bit-identical to the serial build at every thread count.
    #[must_use]
    pub fn build_parallel(
        kind: HistogramKind,
        grid: Grid,
        inserts: &[Rect],
        deletes: &[Rect],
        threads: usize,
    ) -> Self {
        crate::traits::with_family!(kind, H => build_impl::<H>(grid, inserts, deletes, threads))
    }

    /// Number of rectangles in the insert batch.
    #[must_use]
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Number of rectangles in the delete batch.
    #[must_use]
    pub fn deletes(&self) -> u64 {
        self.deletes
    }

    /// Whether every statistic delta is zero (applying it is a no-op).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scalars.iter().all(|(_, d)| *d == 0)
            && self.arrays.iter().all(|a| a.indices.is_empty())
    }

    /// Sorted, de-duplicated flat indices of every cell any per-cell
    /// statistic of this delta touches. For the gridded families (PH
    /// and both GH variants) every array shares the grid's lattice, so
    /// these are the grid cells whose statistics changed.
    pub(crate) fn touched_cells(&self) -> Vec<usize> {
        let mut cells: Vec<usize> = self
            .arrays
            .iter()
            .flat_map(|a| a.indices.iter().map(|i| crate::grid::ix(*i)))
            .collect();
        cells.sort_unstable();
        cells.dedup();
        cells
    }
}

/// Builds the delta for one concrete family: both batch sides are
/// binned into touched-cell lists, then every statistic is differenced
/// in declaration order.
fn build_impl<H: RowBanded>(
    grid: Grid,
    inserts: &[Rect],
    deletes: &[Rect],
    threads: usize,
) -> HistogramDelta {
    let ins = touched::<H>(grid, inserts, threads);
    let del = touched::<H>(grid, deletes, threads);
    let scalars = H::SCHEMA
        .scalars
        .iter()
        .zip(ins.scalars.iter().zip(&del.scalars))
        .map(|(name, (iv, dv))| (*name, i128::from(*iv) - i128::from(*dv)))
        .collect();
    let arrays = H::SCHEMA
        .arrays
        .iter()
        .zip(ins.arrays.iter().zip(&del.arrays))
        .map(|(stat, pair)| {
            let (indices, values) = match pair {
                (Touched::Counts(ic), Touched::Counts(dc)) => {
                    let sub = |a: u32, b: u32| i64::from(a) - i64::from(b);
                    let (indices, values) = touched_difference(ic, dc, sub, |d| *d == 0);
                    (indices, DeltaValues::Counts(values))
                }
                (Touched::Masses(im), Touched::Masses(dm)) => {
                    let (indices, values) =
                        touched_difference(im, dm, Mass::saturating_sub, |d| d.is_zero());
                    (indices, DeltaValues::Masses(values))
                }
                // Unreachable: both sides come from one declaration, so
                // every position has one representation.
                _ => (Vec::new(), DeltaValues::Counts(Vec::new())),
            };
            DeltaArray {
                name: stat.name,
                cells: stat.lattice.len(&grid),
                indices,
                values,
            }
        })
        .collect();
    HistogramDelta {
        kind: H::SCHEMA.kind,
        grid,
        inserts: inserts.len() as u64,
        deletes: deletes.len() as u64,
        scalars,
        arrays,
    }
}

/// Checked scalar update: `u64 + i128` staying within `u64`.
fn checked_scalar(current: u64, d: i128, statistic: &'static str) -> Result<u64, HistogramError> {
    let value = i128::from(current) + d;
    u64::try_from(value).map_err(|_| HistogramError::DeltaOutOfRange {
        statistic,
        cell: None,
        value,
    })
}

/// Checked counter update: `u32 + i64` staying within `u32`.
fn checked_count(
    current: u32,
    d: i64,
    statistic: &'static str,
    cell: usize,
) -> Result<u32, HistogramError> {
    let value = i64::from(current) + d;
    u32::try_from(value).map_err(|_| HistogramError::DeltaOutOfRange {
        statistic,
        cell: Some(cell),
        value: i128::from(value),
    })
}

/// Applies a delta to one concrete family, atomically: a pre-flight
/// pass over the read-only statistics range-checks every scalar and
/// every touched counter (and that every touched index exists), and only
/// a fully in-range delta is committed through the writable statistics
/// — the same declaration, so the same order — writing the touched
/// entries alone. On error the histogram is bit-for-bit untouched.
pub(crate) fn apply_impl<H: Family>(
    h: &mut H,
    delta: &HistogramDelta,
) -> Result<(), HistogramError> {
    let schema = &H::SCHEMA;
    if schema.kind != delta.kind {
        return Err(HistogramError::KindMismatch {
            left: schema.kind,
            right: delta.kind,
        });
    }
    let (left, right) = (h.grid(), delta.grid);
    if !left.compatible(&right) {
        return Err(HistogramError::GridMismatch {
            left_level: left.level(),
            right_level: right.level(),
        });
    }

    // Pre-flight: every checked update must be in range. `build` fixes
    // a delta's shape by kind and grid, so a shape mismatch is
    // unreachable; it stays a typed error all the same.
    let shape_err = || {
        HistogramError::corrupt(
            CorruptSection::Payload,
            "delta statistic shape does not match the histogram".to_string(),
        )
    };
    if delta.scalars.len() != schema.scalars.len() || delta.arrays.len() != schema.arrays.len() {
        return Err(shape_err());
    }
    for (current, (name, d)) in h.scalars().into_iter().zip(&delta.scalars) {
        checked_scalar(current, *d, name)?;
    }
    for (current, update) in h.columns().into_iter().zip(&delta.arrays) {
        let len = match (current, &update.values) {
            (Column::Count(c), DeltaValues::Counts(d)) => {
                for (i, dd) in update.indices.iter().zip(d) {
                    let cell = crate::grid::ix(*i);
                    let cur = c.get(cell).ok_or_else(shape_err)?;
                    checked_count(*cur, *dd, update.name, cell)?;
                }
                c.len()
            }
            // Masses are signed and saturating by construction; no
            // per-cell range check is needed.
            (Column::Mass(m), DeltaValues::Masses(_)) => m.len(),
            _ => return Err(shape_err()),
        };
        let last = update.indices.last().map(|i| crate::grid::ix(*i));
        if len != update.cells || last.is_some_and(|i| i >= len) {
            return Err(shape_err());
        }
    }

    // Commit: every update is in range and every index exists (indices
    // ascend, so the last one bounds them all), so the writes below
    // cannot fail (the fallbacks keep the path total anyway).
    for (slot, (_, d)) in h.scalars_mut().into_iter().zip(&delta.scalars) {
        *slot = u64::try_from(i128::from(*slot) + d).unwrap_or(*slot);
    }
    for (target, update) in h.columns_mut().into_iter().zip(&delta.arrays) {
        let cells = update.indices.iter().map(|i| crate::grid::ix(*i));
        match (target, &update.values) {
            (ColumnMut::Count(c), DeltaValues::Counts(d)) => {
                for (cell, dd) in cells.zip(d) {
                    if let Some(slot) = c.get_mut(cell) {
                        *slot = u32::try_from(i64::from(*slot) + dd).unwrap_or(*slot);
                    }
                }
            }
            (ColumnMut::Mass(m), DeltaValues::Masses(d)) => {
                for (cell, dd) in cells.zip(d) {
                    if let Some(slot) = m.get_mut(cell) {
                        *slot += *dd;
                    }
                }
            }
            // Unreachable after the pre-flight shape check.
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_histogram;
    use sj_geo::Extent;

    fn unit_grid(level: u32) -> Grid {
        Grid::new(level, Extent::unit()).unwrap()
    }

    #[expect(
        clippy::float_arithmetic,
        reason = "random test rectangles, not a merge path"
    )]
    fn uniform(n: usize, seed: u64, side: f64) -> Vec<Rect> {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
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
            .collect()
    }

    /// The headline identity: apply_delta(build(D), Δ) is byte-identical
    /// to build(D ∪ Δ⁺ ∖ Δ⁻), for every family and thread count.
    #[test]
    fn apply_matches_full_rebuild_every_kind() {
        let base = uniform(300, 9001, 0.07);
        let ins = uniform(80, 9002, 0.06);
        let grid = unit_grid(4);
        // Delete every third base rect.
        let deleted: Vec<Rect> = base.iter().copied().step_by(3).collect();
        let kept: Vec<Rect> = base
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, r)| *r)
            .collect();
        let target: Vec<Rect> = kept.iter().chain(&ins).copied().collect();
        for kind in HistogramKind::ALL {
            for threads in [1usize, 2, 5] {
                let delta = HistogramDelta::build_parallel(kind, grid, &ins, &deleted, threads);
                let mut maintained = build_histogram(kind, grid, &base);
                maintained.apply_delta(&delta).unwrap();
                let rebuilt = build_histogram(kind, grid, &target);
                assert_eq!(
                    maintained.persist(),
                    rebuilt.persist(),
                    "{kind} x{threads}: incremental maintenance must equal full rebuild"
                );
            }
        }
    }

    /// Deleting objects the histogram never saw is a typed error, and
    /// the failed application leaves the histogram untouched.
    #[test]
    fn underflow_is_typed_and_atomic() {
        let base = uniform(40, 9003, 0.08);
        let phantom = uniform(60, 9004, 0.08);
        let grid = unit_grid(3);
        for kind in HistogramKind::ALL {
            let delta = HistogramDelta::build(kind, grid, &[], &phantom);
            let mut h = build_histogram(kind, grid, &base);
            let before = h.persist();
            let err = h.apply_delta(&delta).unwrap_err();
            assert!(
                matches!(err, HistogramError::DeltaOutOfRange { .. }),
                "{kind}: expected DeltaOutOfRange, got {err:?}"
            );
            assert_eq!(h.persist(), before, "{kind}: failed apply must not mutate");
        }
    }

    /// Insert-then-delete of the same batch is an exact no-op.
    #[test]
    fn delta_of_identical_batches_is_empty() {
        let batch = uniform(50, 9005, 0.05);
        let grid = unit_grid(4);
        for kind in HistogramKind::ALL {
            let delta = HistogramDelta::build(kind, grid, &batch, &batch);
            assert!(delta.is_empty(), "{kind}");
            let mut h = build_histogram(kind, grid, &batch);
            let before = h.persist();
            h.apply_delta(&delta).unwrap();
            assert_eq!(h.persist(), before, "{kind}: empty delta is a no-op");
        }
    }

    /// A small batch keeps only the cells it touches.
    #[test]
    fn small_batches_are_sparse() {
        let grid = unit_grid(6);
        for kind in HistogramKind::ALL {
            let delta = HistogramDelta::build(kind, grid, &uniform(8, 9010, 0.02), &[]);
            for array in &delta.arrays {
                assert!(
                    array.indices.len() * 10 < array.cells,
                    "{kind} `{}`: {} of {} cells kept",
                    array.name,
                    array.indices.len(),
                    array.cells
                );
                assert!(array.indices.windows(2).all(|w| w[0] < w[1]), "{kind}");
            }
            assert!(HistogramDelta::build(kind, grid, &[], &[]).is_empty());
        }
    }

    /// The dense two-sided difference the touched-cell build replaced,
    /// kept as its reference: both sides binned into full grids by the
    /// row-band shard driver, then every cell of every array
    /// differenced.
    fn dense_reference<H: RowBanded>(
        grid: Grid,
        inserts: &[Rect],
        deletes: &[Rect],
        threads: usize,
    ) -> HistogramDelta {
        /// `ins − del` over two dense arrays: the ascending indices
        /// whose difference is not zero, and those differences.
        fn sparse_difference<T: Copy, D>(
            ins: &[T],
            del: &[T],
            sub: impl Fn(T, T) -> D,
            is_zero: impl Fn(&D) -> bool,
        ) -> (Vec<u32>, Vec<D>) {
            let mut indices = Vec::new();
            let mut values = Vec::new();
            for (i, (a, b)) in ins.iter().zip(del).enumerate() {
                let d = sub(*a, *b);
                if !is_zero(&d) {
                    indices.push(u32::try_from(i).unwrap());
                    values.push(d);
                }
            }
            (indices, values)
        }
        let ins: H = build_shard_merge(grid, inserts, threads);
        let del: H = build_shard_merge(grid, deletes, threads);
        let scalars = H::SCHEMA
            .scalars
            .iter()
            .zip(ins.scalars())
            .zip(del.scalars())
            .map(|((name, iv), dv)| (*name, i128::from(iv) - i128::from(dv)))
            .collect();
        let arrays = H::SCHEMA
            .arrays
            .iter()
            .zip(ins.columns().into_iter().zip(del.columns()))
            .map(|(stat, pair)| {
                let (cells, (indices, values)) = match pair {
                    (Column::Count(ic), Column::Count(dc)) => {
                        let sub = |a: u32, b: u32| i64::from(a) - i64::from(b);
                        let (indices, values) = sparse_difference(ic, dc, sub, |d| *d == 0);
                        (ic.len(), (indices, DeltaValues::Counts(values)))
                    }
                    (Column::Mass(im), Column::Mass(dm)) => {
                        let (indices, values) =
                            sparse_difference(im, dm, Mass::saturating_sub, |d| d.is_zero());
                        (im.len(), (indices, DeltaValues::Masses(values)))
                    }
                    _ => panic!("one declaration, one representation"),
                };
                DeltaArray {
                    name: stat.name,
                    cells,
                    indices,
                    values,
                }
            })
            .collect();
        HistogramDelta {
            kind: H::SCHEMA.kind,
            grid,
            inserts: inserts.len() as u64,
            deletes: deletes.len() as u64,
            scalars,
            arrays,
        }
    }

    /// Rectangles on cell boundaries at every level the matrix uses
    /// (dyadic coordinates), degenerate ones, and ones on the extent's
    /// max edge.
    fn boundary_rects() -> Vec<Rect> {
        vec![
            Rect::new(0.25, 0.25, 0.5, 0.375),
            Rect::new(0.125, 0.0, 0.125, 0.625),
            Rect::new(0.0, 0.5, 0.75, 0.5),
            Rect::new(0.5, 0.5, 0.5, 0.5),
            Rect::new(0.875, 0.9, 1.0, 1.0),
            Rect::new(1.0, 0.0, 1.0, 1.0),
            Rect::new(0.0, 1.0, 1.0, 1.0),
            Rect::new(1.0, 1.0, 1.0, 1.0),
            Rect::new(0.0, 0.0, 1.0, 1.0),
        ]
    }

    /// The touched-cell build equals the dense two-sided difference bit
    /// for bit — kind, grid, batch sizes, scalars, indices and values —
    /// for every family at levels 0, 3 and 7 and
    /// every thread count, on batches whose inserts and deletes cancel
    /// in some cells (those cells must drop out), on cell-boundary and
    /// max-edge rectangles, and with either side empty.
    #[test]
    fn touched_cell_build_matches_the_dense_difference() {
        let a = uniform(40, 9011, 0.05);
        let b = uniform(25, 9012, 0.2);
        let c = uniform(30, 9013, 0.01);
        let edges = boundary_rects();
        let cancel_ins: Vec<Rect> = a.iter().chain(&b).copied().collect();
        let cancel_del: Vec<Rect> = c.iter().chain(&a).copied().collect();
        let edge_del: Vec<Rect> = edges.iter().step_by(2).copied().collect();
        // Batches that outgrow the pending lists: grid-spanning
        // rectangles, and many large ones, on one side or both.
        let full = Rect::new(0.0, 0.0, 1.0, 1.0);
        let full_ins: Vec<Rect> = [full, full, full].iter().chain(&c).copied().collect();
        let large_ins = uniform(100, 9014, 0.5);
        let large_del: Vec<Rect> = uniform(60, 9015, 0.5)
            .into_iter()
            .chain(c.clone())
            .collect();
        let batches: [(&str, &[Rect], &[Rect]); 11] = [
            ("full extent", &full_ins, &[full]),
            ("many large", &large_ins, &large_del),
            ("large inserts", &large_ins, &c),
            ("large deletes", &a, &large_del),
            ("mixed", &a, &c),
            ("cancelling", &cancel_ins, &cancel_del),
            ("identical", &b, &b),
            ("boundaries", &edges, &edge_del),
            ("no deletes", &edges, &[]),
            ("no inserts", &[], &b),
            ("empty", &[], &[]),
        ];
        for kind in HistogramKind::ALL {
            for level in [0, 3, 7] {
                let grid = unit_grid(level);
                for (what, ins, del) in batches {
                    for threads in [1usize, 2, 5] {
                        let got = HistogramDelta::build_parallel(kind, grid, ins, del, threads);
                        let want = crate::traits::with_family!(kind, H => {
                            dense_reference::<H>(grid, ins, del, threads)
                        });
                        let at = format!("{kind} level {level} {what} x{threads}");
                        assert_eq!(got.scalars, want.scalars, "{at}: scalars");
                        for (g, w) in got.arrays.iter().zip(&want.arrays) {
                            assert_eq!(g.indices, w.indices, "{at}: `{}` indices", w.name);
                            assert_eq!(g.values, w.values, "{at}: `{}` values", w.name);
                        }
                        assert_eq!(got, want, "{at}");
                    }
                }
            }
        }
        // The cancelling batch really cancels somewhere: `a`'s cells
        // are touched on both sides, yet a dense difference drops
        // every cell only `a` reaches.
        let grid = unit_grid(7);
        let only_a = HistogramDelta::build(HistogramKind::Gh, grid, &a, &[]);
        let cancelled = HistogramDelta::build(HistogramKind::Gh, grid, &cancel_ins, &cancel_del);
        let kept: Vec<usize> = cancelled.touched_cells();
        assert!(
            only_a
                .touched_cells()
                .iter()
                .any(|cell| kept.binary_search(cell).is_err()),
            "some cell touched only by `a` must cancel out"
        );
    }

    /// `contributions_bound` bounds what one binning pass records in any
    /// array, for every family and level, on small, large and boundary
    /// batches; at level 7 a small batch stays under the grid's cell
    /// count (recorded sparsely) and a large one exceeds it (binned
    /// densely).
    #[test]
    fn contributions_bound_covers_every_array() {
        fn most_recorded<H: RowBanded>(grid: Grid, rects: &[Rect]) -> usize {
            let mut bins = TouchedBins::new(&H::SCHEMA);
            H::build_rows(grid, rects, 0, grid.cells_per_axis(), &mut bins);
            bins.arrays
                .iter()
                .map(|array| match array {
                    Touched::Counts(entries) => entries.len(),
                    Touched::Masses(entries) => entries.len(),
                })
                .max()
                .unwrap_or(0)
        }
        let small = uniform(8, 9021, 0.01);
        let large = uniform(60, 9022, 0.5);
        let edges = boundary_rects();
        for kind in HistogramKind::ALL {
            for level in [0, 3, 7] {
                let grid = unit_grid(level);
                for rects in [&small, &large, &edges] {
                    let most =
                        crate::traits::with_family!(kind, H => most_recorded::<H>(grid, rects));
                    let bound = contributions_bound(&grid, rects, usize::MAX);
                    assert!(most <= bound, "{kind} level {level}: {most} > {bound}");
                }
            }
        }
        let grid = unit_grid(7);
        let cells = grid.num_cells();
        assert!(contributions_bound(&grid, &small, cells) <= cells);
        assert!(contributions_bound(&grid, &large, cells) > cells);
    }

    /// Applying a delta of the wrong kind or grid is a typed mismatch.
    #[test]
    fn mismatches_are_typed() {
        let rects = uniform(20, 9009, 0.06);
        let delta = HistogramDelta::build(HistogramKind::Ph, unit_grid(3), &rects, &[]);
        let mut gh = build_histogram(HistogramKind::Gh, unit_grid(3), &rects);
        assert!(matches!(
            gh.apply_delta(&delta),
            Err(HistogramError::KindMismatch { .. })
        ));
        let other = HistogramDelta::build(HistogramKind::Gh, unit_grid(4), &rects, &[]);
        assert!(matches!(
            gh.apply_delta(&other),
            Err(HistogramError::GridMismatch { .. })
        ));
    }
}
