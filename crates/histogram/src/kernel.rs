//! Cache-conscious SoA estimate/build kernels (DESIGN.md §16).
//!
//! The histogram structs store their per-cell statistics as one vector
//! per statistic already, but the hot estimate loops still pay a
//! fixed-point decode (`Mass::to_f64`) and an average derivation per
//! cell *per estimate*. This module provides flat structure-of-arrays
//! **views** — one contiguous slice per statistic, decoded once — plus a
//! per-row occupancy bitmap ([`RowMask`]) so the Eq. 3–5 products run
//! as dense loops over contiguous 64-cell runs and skip every 64-cell
//! stretch the two operands do not share. Masses and averages are
//! decoded to `f64`; counts stay `u32` and the kernels widen them with
//! `f64::from`, which is exact, so a view costs less memory to keep
//! resident ([`ResidentHistogram`]) without changing a result bit. A
//! view writes only occupied cells into zero-initialised slices: the
//! kernels never read any other cell, and pages no occupied cell touches
//! are never made resident.
//!
//! Three views cover the gridded families:
//!
//! * [`PhView`] — PH `Cont`/`Isect` groups (Table 1) with the averages
//!   `Xavg`/`Yavg` pre-derived, plus the scalar `AvgSpan` statistics;
//! * [`GhView`] — revised GH `{C, O, H, V}` masses (Table 2, Eq. 5);
//! * [`GhBasicView`] — basic GH `{C, I, V, H}` counts (Eq. 4).
//!
//! # Bit-identity with the scalar paths
//!
//! `estimate` on the structs dispatches through these kernels, and the
//! result is **bit-identical** to the retained scalar reference loops
//! ([`crate::PhHistogram::estimate_scalar`] and friends): the views
//! pre-compute exactly the `f64` values the scalar loop derives per
//! cell, and both sum in the same **blocked** order. Each accumulator
//! (one for GH and GH-basic, `sum_abc` and `sum_d` for PH) gets one
//! partial per 64-cell mask word, summed from `+0.0` in ascending cell
//! order; the partials are then added in ascending word order, and the
//! family's scalar tail follows. A kernel runs every cell of each word
//! in which both operands have a bit set, occupied or not: an empty view
//! cell stores `0`/`+0.0` in every slot and every stored value is
//! finite, so a cell that one operand lacks contributes exactly `±0.0`,
//! and adding `±0.0` to a sum that started at `+0.0` cannot change its
//! bits. The words it skips hold no jointly occupied cell, so their
//! partials are `+0.0` too. DESIGN.md §16.4 spells the argument out; the
//! `kernel_agreement` integration test pins it across the
//! verify-equivalence scenario matrix, against an independent blocked
//! reference.
//!
//! The same order lets the catalog's pair memo keep an answer across
//! writes: [`ResidentHistogram::estimate_with_partials`] keeps the
//! per-word partials ([`WordPartials`]), and
//! [`ResidentHistogram::repatch`] recomputes only the words a delta
//! touched and re-sums, which gives the cold answer's bits (DESIGN.md
//! §16.6).
//!
//! The build side is served by the crate-internal `BinGrid`, a
//! flattened view of the grid geometry (hoisted cell sizes, row-base
//! flat indices) used by the `bin_*` binning loops that
//! `build`/`build_parallel` delegate to. Those loops stay under
//! `clippy::float_arithmetic`: they accumulate only integers and `Mass`
//! (quantizing once via `Mass::from_f64`), which is what keeps shard
//! merges bit-exact.

use crate::grid::ix;
use crate::grid::Grid;
use crate::mass::Mass;
use crate::schema::Sink;
use crate::{
    GhBasicHistogram, GhHistogram, HistogramDelta, HistogramError, PhHistogram,
    SelectivityEstimate, SpatialHistogram,
};
use sj_geo::{HEdge, Rect, VEdge};
use std::ops::Range;

// ---------------------------------------------------------------------
// Occupancy bitmaps
// ---------------------------------------------------------------------

/// Per-row occupancy bitmap over the grid cells of a view.
///
/// Each grid row is encoded as `ceil(cols / 64)` little-endian `u64`
/// words (bit `c % 64` of word `c / 64` covers column `c`); rows are
/// concatenated in ascending order, so for grids of 64+ columns the
/// encoding coincides with a flat row-major bitmap. The estimate
/// kernels AND the two operands' masks word-by-word: a zero word skips
/// its cells at once, any other word runs all of them as one contiguous
/// pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMask {
    cols: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl RowMask {
    /// An all-empty mask for a `rows × cols` grid.
    #[must_use]
    pub fn empty(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        Self {
            cols,
            words_per_row,
            words: vec![0u64; rows * words_per_row],
        }
    }

    /// Marks cell `(row, col)` occupied.
    pub fn set(&mut self, row: usize, col: usize) {
        self.words[row * self.words_per_row + col / 64] |= 1u64 << (col % 64);
    }

    /// Marks cell `(row, col)` empty.
    pub fn clear(&mut self, row: usize, col: usize) {
        self.words[row * self.words_per_row + col / 64] &= !(1u64 << (col % 64));
    }

    /// Sets or clears the bit of the cell at row-major flat index `idx`.
    fn assign(&mut self, idx: usize, occupied: bool) {
        let (row, col) = (idx / self.cols, idx % self.cols);
        if occupied {
            self.set(row, col);
        } else {
            self.clear(row, col);
        }
    }

    /// `true` when cell `(row, col)` is occupied.
    #[must_use]
    pub fn is_set(&self, row: usize, col: usize) -> bool {
        self.words[row * self.words_per_row + col / 64] & (1u64 << (col % 64)) != 0
    }

    /// Number of occupied cells.
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| ix(w.count_ones())).sum()
    }

    /// The flat cell range word `w` covers: `base..min(base + 64,
    /// row_end)`.
    fn run(&self, w: usize) -> Range<usize> {
        let wpr = self.words_per_row.max(1);
        let col = (w % wpr) * 64;
        let base = (w / wpr) * self.cols + col;
        base..base + (self.cols - col).min(64)
    }

    /// The *joint run* of word `w` against `other`: when both masks set
    /// a bit in it, the contiguous range `base..min(base + 64, row_end)`
    /// of the cells the word covers; else `None`.
    ///
    /// This is the sweep of all three estimate kernels. A word with no
    /// joint bit is skipped without touching the statistic slices; a
    /// word with one runs all of its cells, including those that only
    /// one operand (or neither) occupies. Such a cell adds exactly
    /// `±0.0` to the word's partial: every slot of an empty view cell
    /// holds `0`/`+0.0` and every stored value is finite, so each
    /// product has a zero factor, and adding `±0.0` to a partial that
    /// started at `+0.0` never changes its bits (DESIGN.md §16.4).
    fn joint_run(&self, other: &RowMask, w: usize) -> Option<Range<usize>> {
        debug_assert_eq!(self.cols, other.cols);
        (self.words[w] & other.words[w] != 0).then(|| self.run(w))
    }
}

/// The mask word holding flat cell `idx` of a grid `cols` cells wide
/// (the [`RowMask`] encoding).
fn mask_word(cols: usize, idx: usize) -> usize {
    (idx / cols) * cols.div_ceil(64) + (idx % cols) / 64
}

/// Every mask word's flat cell range on `grid`, in ascending order: the
/// blocks of the blocked reduction, for the scalar reference loops.
pub(crate) fn word_runs(grid: &Grid) -> impl Iterator<Item = Range<usize>> {
    let cols = ix(grid.cells_per_axis());
    (0..cols).flat_map(move |row| {
        (0..cols).step_by(64).map(move |col| {
            let base = row * cols + col;
            base..base + (cols - col).min(64)
        })
    })
}

// ---------------------------------------------------------------------
// Blocked reduction
// ---------------------------------------------------------------------

/// A view kernel as a blocked reduction (DESIGN.md §16.3): `K`
/// accumulators, each summed per 64-cell mask word from `+0.0` in
/// ascending cell order; the answer adds the words' partials in
/// ascending word order, then applies the family's scalar tail.
trait WordKernel<const K: usize> {
    /// The occupancy mask the joint sweep reads.
    fn occ(&self) -> &RowMask;

    /// The `K` partials of one joint run against `other`.
    fn run_partials(&self, other: &Self, run: Range<usize>) -> [f64; K];
}

/// Brings the partials of `a ⋈ b` (`K` per word, word-major) up to
/// date, then adds them from `+0.0` in ascending word order: every word
/// when `parts` is empty, else only `words`, each recomputed from the
/// current views (`+0.0` for a word with no joint bit). `None` when
/// `parts` or `words` does not fit the grid; never for empty `parts`,
/// which is how a cold estimate, one with no memo to keep, calls it.
fn patch_sums<const K: usize, V: WordKernel<K>>(
    a: &V,
    b: &V,
    parts: &mut Vec<f64>,
    words: &[usize],
) -> Option<[f64; K]> {
    let (ma, mb) = (a.occ(), b.occ());
    let n = ma.words.len();
    let fresh = parts.is_empty();
    if fresh {
        parts.resize(n * K, 0.0);
    } else if parts.len() != n * K || words.iter().any(|&w| w >= n) {
        return None;
    }
    let mut recompute = |w: usize| {
        let p = ma
            .joint_run(mb, w)
            .map_or([0.0; K], |run| a.run_partials(b, run));
        parts[w * K..][..K].copy_from_slice(&p);
    };
    if fresh {
        (0..n).for_each(&mut recompute);
    } else {
        words.iter().for_each(|&w| recompute(w));
    }
    let mut sums = [0.0; K];
    for word in parts.chunks_exact(K) {
        for (s, p) in sums.iter_mut().zip(word) {
            *s += p;
        }
    }
    Some(sums)
}

/// The shared GH / GH-basic tail: `IP / 4 / (N₁·N₂)`, from each side's
/// `(N as f64, dataset length)`.
fn ip_estimate(ip: f64, (n1, len1): (f64, usize), (n2, len2): (f64, usize)) -> SelectivityEstimate {
    let denom = n1 * n2;
    let raw = if denom == 0.0 { 0.0 } else { ip / 4.0 / denom };
    SelectivityEstimate::from_selectivity(raw, len1, len2)
}

/// Whether two `f64` slices hold the same bit patterns (`-0.0` and
/// `+0.0` differ here, unlike under `==`).
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn grid_check(a: Grid, b: Grid) -> Result<(), HistogramError> {
    if a.compatible(&b) {
        Ok(())
    } else {
        Err(HistogramError::GridMismatch {
            left_level: a.level(),
            right_level: b.level(),
        })
    }
}

/// Table 1 averages, derived on the fly from the stored sums — the
/// exact expression of the scalar estimate loop.
fn avg(sum: Mass, count: u32) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum.to_f64() / f64::from(count)
    }
}

// ---------------------------------------------------------------------
// PH view (Table 1 / Eq. 3)
// ---------------------------------------------------------------------

/// Flat SoA view of a [`PhHistogram`] for repeated estimation.
///
/// Decodes the per-cell `Cont`/`Isect` statistics into eight contiguous
/// slices (`u32` counts; `f64` coverages and pre-derived `Xavg`/`Yavg`
/// averages per group) plus a [`RowMask`], once; every subsequent
/// [`PhView::estimate`] then runs the four-case `Sa..Sd` sweep over the
/// slices' joint 64-cell runs. The result is bit-identical to
/// [`PhHistogram::estimate_scalar`] on the backing histograms.
///
/// ```
/// use sj_geo::{Extent, Rect};
/// use sj_histogram::kernel::PhView;
/// use sj_histogram::{Grid, PhHistogram, SpatialHistogram};
///
/// let grid = Grid::new(3, Extent::unit())?;
/// let a: Vec<Rect> = (0..40)
///     .map(|i| {
///         let t = f64::from(i) * 0.02;
///         Rect::new(t, t, t + 0.06, t + 0.05)
///     })
///     .collect();
/// let b: Vec<Rect> = (0..30)
///     .map(|i| {
///         let t = f64::from(i) * 0.03;
///         Rect::new(t, 0.9 - t, t + 0.05, 0.97 - t)
///     })
///     .collect();
/// let (ha, hb) = (PhHistogram::build(grid, &a), PhHistogram::build(grid, &b));
///
/// // Decode once, estimate many times (the warm-serving pattern).
/// let (va, vb) = (PhView::new(&ha), PhView::new(&hb));
/// let kernel = va.estimate(&vb)?;
///
/// // The trait path dispatches through the same kernel: bit-identical.
/// let trait_path = ha.estimate_join(&hb)?;
/// assert_eq!(kernel.selectivity.to_bits(), trait_path.selectivity.to_bits());
/// assert_eq!(kernel.pairs.to_bits(), trait_path.pairs.to_bits());
/// # Ok::<(), sj_histogram::HistogramError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PhView {
    grid: Grid,
    len: usize,
    n_f64: f64,
    avg_span: f64,
    cell_area: f64,
    // Cont group: count, coverage, average width, average height.
    // Counts stay `u32`; the kernel widens them with `f64::from`.
    n: Vec<u32>,
    c: Vec<f64>,
    w: Vec<f64>,
    h: Vec<f64>,
    // Isect group, over clipped intersections.
    nx: Vec<u32>,
    cx: Vec<f64>,
    wx: Vec<f64>,
    hx: Vec<f64>,
    occ: RowMask,
}

impl PhView {
    /// Decodes `hist` into the flat SoA form.
    #[must_use]
    pub fn new(hist: &PhHistogram) -> Self {
        let grid = hist.grid();
        let cpa = ix(grid.cells_per_axis());
        let cells = grid.num_cells();
        let mut view = Self {
            grid,
            len: 0,
            n_f64: 0.0,
            avg_span: 0.0,
            cell_area: grid.cell_area(),
            n: vec![0; cells],
            c: vec![0.0; cells],
            w: vec![0.0; cells],
            h: vec![0.0; cells],
            nx: vec![0; cells],
            cx: vec![0.0; cells],
            wx: vec![0.0; cells],
            hx: vec![0.0; cells],
            occ: RowMask::empty(cpa, cpa),
        };
        view.derive_scalars(hist);
        for idx in 0..cells {
            let cell = Self::derive_cell(hist, idx);
            if cell.is_some() {
                view.store(idx, cell);
            }
        }
        view
    }

    /// Re-derives the dataset scalars and the given cells from `hist`
    /// after a delta touched exactly those cells: the result equals
    /// [`PhView::new`] on `hist`, bit for bit.
    fn patch(&mut self, hist: &PhHistogram, cells: &[usize]) {
        self.derive_scalars(hist);
        for &idx in cells {
            self.store(idx, Self::derive_cell(hist, idx));
        }
    }

    fn derive_scalars(&mut self, hist: &PhHistogram) {
        self.len = hist.dataset_len();
        #[allow(clippy::cast_precision_loss)]
        let n_f64 = hist.n as f64;
        self.n_f64 = n_f64;
        self.avg_span = hist.avg_span();
    }

    /// The view's `Cont` and `Isect` values of cell `idx`, or `None` when
    /// every one is zero (the cell is empty).
    fn derive_cell(hist: &PhHistogram, idx: usize) -> Option<[(u32, f64, f64, f64); 2]> {
        let n = hist.num[idx];
        let c = hist.cov[idx].to_f64();
        let w = avg(hist.xsum[idx], n);
        let h = avg(hist.ysum[idx], n);
        let nx = hist.num_x[idx];
        let cx = hist.cov_x[idx].to_f64();
        let wx = avg(hist.xsum_x[idx], nx);
        let hx = avg(hist.ysum_x[idx], nx);
        let occupied = n != 0
            || c != 0.0
            || w != 0.0
            || h != 0.0
            || nx != 0
            || cx != 0.0
            || wx != 0.0
            || hx != 0.0;
        occupied.then_some([(n, c, w, h), (nx, cx, wx, hx)])
    }

    /// Writes one cell's values and occupancy bit; `None` (an empty
    /// cell) writes `0`/`+0.0` into every slot and clears the bit.
    fn store(&mut self, idx: usize, cell: Option<[(u32, f64, f64, f64); 2]>) {
        self.occ.assign(idx, cell.is_some());
        let [cont, isect] = cell.unwrap_or_default();
        (self.n[idx], self.c[idx], self.w[idx], self.h[idx]) = cont;
        (self.nx[idx], self.cx[idx], self.wx[idx], self.hx[idx]) = isect;
    }

    /// Bitwise equality of every field (see [`same_bits`]).
    fn bits_eq(&self, o: &Self) -> bool {
        self.grid == o.grid
            && self.len == o.len
            && same_bits(
                &[self.n_f64, self.avg_span, self.cell_area],
                &[o.n_f64, o.avg_span, o.cell_area],
            )
            && (self.n == o.n && self.nx == o.nx && self.occ == o.occ)
            && [&self.c, &self.w, &self.h, &self.cx, &self.wx, &self.hx]
                .iter()
                .zip([&o.c, &o.w, &o.h, &o.cx, &o.wx, &o.hx])
                .all(|(a, b)| same_bits(a, b))
    }

    /// The grid the backing histogram was built on.
    #[must_use]
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Cardinality of the summarized dataset.
    #[must_use]
    pub fn dataset_len(&self) -> usize {
        self.len
    }

    /// Occupied cells (any non-zero `Cont`/`Isect` statistic).
    #[must_use]
    pub fn occupied_cells(&self) -> usize {
        self.occ.count()
    }

    /// Kernel-path PH estimate (paper Eq. 3 with the `AvgSpan`
    /// correction); bit-identical to [`PhHistogram::estimate`].
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] when the backing
    /// histograms were built on different grids.
    pub fn estimate(&self, other: &PhView) -> Result<SelectivityEstimate, HistogramError> {
        self.estimate_with(other, true)
    }

    /// Kernel-path variant of [`PhHistogram::estimate_uncorrected`].
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] when the backing
    /// histograms were built on different grids.
    pub fn estimate_uncorrected(
        &self,
        other: &PhView,
    ) -> Result<SelectivityEstimate, HistogramError> {
        self.estimate_with(other, false)
    }

    /// The blocked PH reduction (DESIGN.md §16.3): `sum_abc` and `sum_d`
    /// each summed per joint word, then over words in ascending order,
    /// then [`PhView::tail`].
    pub(crate) fn estimate_with(
        &self,
        other: &PhView,
        correct_spans: bool,
    ) -> Result<SelectivityEstimate, HistogramError> {
        grid_check(self.grid, other.grid)?;
        let sums = patch_sums(self, other, &mut Vec::new(), &[]).unwrap_or_default();
        Ok(self.tail(other, sums, correct_spans))
    }

    /// The scalar tail: Eq. 3's `sum_abc + sum_d / span_correction`, over
    /// `N₁·N₂`.
    fn tail(
        &self,
        other: &PhView,
        [sum_abc, sum_d]: [f64; 2],
        correct_spans: bool,
    ) -> SelectivityEstimate {
        let span_correction = if correct_spans {
            (self.avg_span + other.avg_span) / 2.0
        } else {
            1.0
        };
        let size = sum_abc + sum_d / span_correction;
        let denom = self.n_f64 * other.n_f64;
        let raw = if denom == 0.0 { 0.0 } else { size / denom };
        SelectivityEstimate::from_selectivity(raw, self.len, other.len)
    }
}

impl WordKernel<2> for PhView {
    fn occ(&self) -> &RowMask {
        &self.occ
    }

    /// `[sum_abc, sum_d]` of one run: Eq. 1's parametric kernel over the
    /// four `Cont`/`Isect` cases, the scalar reference loop's expressions.
    fn run_partials(&self, other: &Self, run: Range<usize>) -> [f64; 2] {
        let cell_area = self.cell_area;
        let kernel = |n1: f64, c1: f64, w1: f64, h1: f64, n2: f64, c2: f64, w2: f64, h2: f64| {
            n1 * c2 + c1 * n2 + n1 * n2 * (w1 * h2 + w2 * h1) / cell_area
        };
        let mut sum_abc = 0.0f64;
        let mut sum_d = 0.0f64;
        for idx in run {
            let (n1, n1x) = (f64::from(self.n[idx]), f64::from(self.nx[idx]));
            let (n2, n2x) = (f64::from(other.n[idx]), f64::from(other.nx[idx]));
            let (c1, w1, h1) = (self.c[idx], self.w[idx], self.h[idx]);
            let (c1x, w1x, h1x) = (self.cx[idx], self.wx[idx], self.hx[idx]);
            let (c2, w2, h2) = (other.c[idx], other.w[idx], other.h[idx]);
            let (c2x, w2x, h2x) = (other.cx[idx], other.wx[idx], other.hx[idx]);
            // Sa: Cont1 × Cont2; Sb: Cont1 × Isect2; Sc: Isect1 × Cont2.
            sum_abc += kernel(n1, c1, w1, h1, n2, c2, w2, h2);
            sum_abc += kernel(n1, c1, w1, h1, n2x, c2x, w2x, h2x);
            sum_abc += kernel(n1x, c1x, w1x, h1x, n2, c2, w2, h2);
            // Sd: Isect1 × Isect2 — the only multi-counted case.
            sum_d += kernel(n1x, c1x, w1x, h1x, n2x, c2x, w2x, h2x);
        }
        [sum_abc, sum_d]
    }
}

// ---------------------------------------------------------------------
// Revised GH view (Table 2 / Eq. 5)
// ---------------------------------------------------------------------

/// Flat SoA view of a [`GhHistogram`] for repeated estimation.
///
/// Decodes `{C, O, H, V}` into four contiguous slices (`C` as `u32`
/// counts, the masses as `f64`) plus a [`RowMask`], once;
/// [`GhView::intersection_points`] then runs the Eq. 5 corner×overlap
/// and edge×edge products over the slices' joint 64-cell runs.
/// Bit-identical to
/// [`GhHistogram::intersection_points_scalar`].
///
/// ```
/// use sj_geo::{Extent, Rect};
/// use sj_histogram::kernel::GhView;
/// use sj_histogram::{GhHistogram, Grid, SpatialHistogram};
///
/// let grid = Grid::new(5, Extent::unit())?;
/// let streams = vec![Rect::new(0.10, 0.10, 0.30, 0.12)];
/// let roads = vec![Rect::new(0.12, 0.05, 0.14, 0.40)];
/// let hs = GhHistogram::build(grid, &streams);
/// let hr = GhHistogram::build(grid, &roads);
///
/// let (vs, vr) = (GhView::new(&hs), GhView::new(&hr));
/// let kernel = vs.estimate(&vr)?;
/// let trait_path = hs.estimate_join(&hr)?;
/// assert_eq!(kernel.pairs.to_bits(), trait_path.pairs.to_bits());
/// assert!(kernel.pairs > 0.9 && kernel.pairs < 1.1, "one crossing pair");
/// # Ok::<(), sj_histogram::HistogramError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GhView {
    grid: Grid,
    len: usize,
    n_f64: f64,
    // Corner counts stay `u32`; the kernel widens them with `f64::from`.
    c: Vec<u32>,
    o: Vec<f64>,
    h: Vec<f64>,
    v: Vec<f64>,
    occ: RowMask,
}

impl GhView {
    /// Decodes `hist` into the flat SoA form.
    #[must_use]
    pub fn new(hist: &GhHistogram) -> Self {
        let grid = hist.grid();
        let cpa = ix(grid.cells_per_axis());
        let cells = grid.num_cells();
        let mut view = Self {
            grid,
            len: 0,
            n_f64: 0.0,
            c: vec![0; cells],
            o: vec![0.0; cells],
            h: vec![0.0; cells],
            v: vec![0.0; cells],
            occ: RowMask::empty(cpa, cpa),
        };
        view.derive_scalars(hist);
        for idx in 0..cells {
            let cell = Self::derive_cell(hist, idx);
            if cell.is_some() {
                view.store(idx, cell);
            }
        }
        view
    }

    /// Re-derives the dataset scalars and the given cells from `hist`
    /// after a delta touched exactly those cells: the result equals
    /// [`GhView::new`] on `hist`, bit for bit.
    fn patch(&mut self, hist: &GhHistogram, cells: &[usize]) {
        self.derive_scalars(hist);
        for &idx in cells {
            self.store(idx, Self::derive_cell(hist, idx));
        }
    }

    fn derive_scalars(&mut self, hist: &GhHistogram) {
        self.len = hist.dataset_len();
        #[allow(clippy::cast_precision_loss)]
        let n_f64 = hist.n as f64;
        self.n_f64 = n_f64;
    }

    /// The view's `{C, O, H, V}` of cell `idx`, or `None` when every one
    /// is zero (the cell is empty).
    fn derive_cell(hist: &GhHistogram, idx: usize) -> Option<(u32, f64, f64, f64)> {
        let c = hist.c[idx];
        let o = hist.o[idx].to_f64();
        let h = hist.h[idx].to_f64();
        let v = hist.v[idx].to_f64();
        (c != 0 || o != 0.0 || h != 0.0 || v != 0.0).then_some((c, o, h, v))
    }

    /// Writes one cell's values and occupancy bit; `None` (an empty
    /// cell) writes `0`/`+0.0` into every slot and clears the bit.
    fn store(&mut self, idx: usize, cell: Option<(u32, f64, f64, f64)>) {
        self.occ.assign(idx, cell.is_some());
        (self.c[idx], self.o[idx], self.h[idx], self.v[idx]) = cell.unwrap_or_default();
    }

    /// Bitwise equality of every field (see [`same_bits`]).
    fn bits_eq(&self, o: &Self) -> bool {
        self.grid == o.grid
            && self.len == o.len
            && self.n_f64.to_bits() == o.n_f64.to_bits()
            && (self.c == o.c && self.occ == o.occ)
            && same_bits(&self.o, &o.o)
            && same_bits(&self.h, &o.h)
            && same_bits(&self.v, &o.v)
    }

    /// The grid the backing histogram was built on.
    #[must_use]
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Cardinality of the summarized dataset.
    #[must_use]
    pub fn dataset_len(&self) -> usize {
        self.len
    }

    /// Occupied cells (any non-zero `{C, O, H, V}` mass).
    #[must_use]
    pub fn occupied_cells(&self) -> usize {
        self.occ.count()
    }

    /// Kernel-path Eq. 5 intersection-point total, a blocked reduction
    /// (DESIGN.md §16.3): one partial per joint 64-cell word, summed from
    /// `+0.0` in ascending cell order, then the partials in ascending
    /// word order. Bit-identical to
    /// [`GhHistogram::intersection_points_scalar`].
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] when the backing
    /// histograms were built on different grids.
    pub fn intersection_points(&self, other: &GhView) -> Result<f64, HistogramError> {
        grid_check(self.grid, other.grid)?;
        let [ip] = patch_sums(self, other, &mut Vec::new(), &[]).unwrap_or_default();
        Ok(ip)
    }

    /// Kernel-path revised-GH estimate: `IP / 4 / (N₁·N₂)`;
    /// bit-identical to [`GhHistogram::estimate`].
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] when the backing
    /// histograms were built on different grids.
    pub fn estimate(&self, other: &GhView) -> Result<SelectivityEstimate, HistogramError> {
        let ip = self.intersection_points(other)?;
        Ok(self.tail(other, [ip]))
    }

    fn tail(&self, other: &GhView, [ip]: [f64; 1]) -> SelectivityEstimate {
        ip_estimate(ip, (self.n_f64, self.len), (other.n_f64, other.len))
    }
}

impl WordKernel<1> for GhView {
    fn occ(&self) -> &RowMask {
        &self.occ
    }

    /// Eq. 5's corner×overlap and edge×edge products over one run.
    fn run_partials(&self, other: &Self, run: Range<usize>) -> [f64; 1] {
        let (c1, o1) = (&self.c[run.clone()], &self.o[run.clone()]);
        let (h1, v1) = (&self.h[run.clone()], &self.v[run.clone()]);
        let (c2, o2) = (&other.c[run.clone()], &other.o[run.clone()]);
        let (h2, v2) = (&other.h[run.clone()], &other.v[run]);
        let mut partial = 0.0f64;
        for k in 0..c1.len() {
            partial +=
                f64::from(c1[k]) * o2[k] + f64::from(c2[k]) * o1[k] + h1[k] * v2[k] + h2[k] * v1[k];
        }
        [partial]
    }
}

// ---------------------------------------------------------------------
// Basic GH view (Eq. 4)
// ---------------------------------------------------------------------

/// Flat SoA view of a [`GhBasicHistogram`] for repeated estimation.
///
/// Same layout discipline as [`GhView`], over the integer `{C, I, V,
/// H}` counts of Eq. 4. Bit-identical to
/// [`GhBasicHistogram::intersection_points_scalar`].
///
/// ```
/// use sj_geo::{Extent, Rect};
/// use sj_histogram::kernel::GhBasicView;
/// use sj_histogram::{GhBasicHistogram, Grid, SpatialHistogram};
///
/// let grid = Grid::new(3, Extent::unit())?;
/// let a = vec![Rect::new(0.1, 0.1, 0.6, 0.6)];
/// let b = vec![Rect::new(0.4, 0.4, 0.9, 0.9)];
/// let (ha, hb) = (
///     GhBasicHistogram::build(grid, &a),
///     GhBasicHistogram::build(grid, &b),
/// );
/// let (va, vb) = (GhBasicView::new(&ha), GhBasicView::new(&hb));
/// let ip = va.intersection_points(&vb)?;
/// assert!((ip - 4.0).abs() < 1e-12, "one resolved pair = 4 points");
/// let trait_path = ha.estimate_join(&hb)?;
/// assert_eq!(
///     va.estimate(&vb)?.selectivity.to_bits(),
///     trait_path.selectivity.to_bits(),
/// );
/// # Ok::<(), sj_histogram::HistogramError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GhBasicView {
    grid: Grid,
    len: usize,
    n_f64: f64,
    // All four statistics are counts: stored `u32`, widened by the kernel.
    c: Vec<u32>,
    i: Vec<u32>,
    v: Vec<u32>,
    h: Vec<u32>,
    occ: RowMask,
}

impl GhBasicView {
    /// Decodes `hist` into the flat SoA form.
    #[must_use]
    pub fn new(hist: &GhBasicHistogram) -> Self {
        let grid = hist.grid();
        let cpa = ix(grid.cells_per_axis());
        let cells = grid.num_cells();
        let mut view = Self {
            grid,
            len: 0,
            n_f64: 0.0,
            c: vec![0; cells],
            i: vec![0; cells],
            v: vec![0; cells],
            h: vec![0; cells],
            occ: RowMask::empty(cpa, cpa),
        };
        view.derive_scalars(hist);
        for idx in 0..cells {
            let cell = Self::derive_cell(hist, idx);
            if cell.is_some() {
                view.store(idx, cell);
            }
        }
        view
    }

    /// Re-derives the dataset scalars and the given cells from `hist`
    /// after a delta touched exactly those cells: the result equals
    /// [`GhBasicView::new`] on `hist`, bit for bit.
    fn patch(&mut self, hist: &GhBasicHistogram, cells: &[usize]) {
        self.derive_scalars(hist);
        for &idx in cells {
            self.store(idx, Self::derive_cell(hist, idx));
        }
    }

    fn derive_scalars(&mut self, hist: &GhBasicHistogram) {
        self.len = hist.dataset_len();
        #[allow(clippy::cast_precision_loss)]
        let n_f64 = hist.n as f64;
        self.n_f64 = n_f64;
    }

    /// The view's `{C, I, V, H}` of cell `idx`, or `None` when every one
    /// is zero (the cell is empty).
    fn derive_cell(hist: &GhBasicHistogram, idx: usize) -> Option<(u32, u32, u32, u32)> {
        let cell = (hist.c[idx], hist.i[idx], hist.v[idx], hist.h[idx]);
        (cell != (0, 0, 0, 0)).then_some(cell)
    }

    /// Writes one cell's values and occupancy bit; `None` (an empty
    /// cell) writes `0` into every slot and clears the bit.
    fn store(&mut self, idx: usize, cell: Option<(u32, u32, u32, u32)>) {
        self.occ.assign(idx, cell.is_some());
        (self.c[idx], self.i[idx], self.v[idx], self.h[idx]) = cell.unwrap_or_default();
    }

    /// Bitwise equality of every field; the slices are all integers.
    fn bits_eq(&self, o: &Self) -> bool {
        self.grid == o.grid
            && self.len == o.len
            && self.n_f64.to_bits() == o.n_f64.to_bits()
            && (&self.c, &self.i, &self.v, &self.h, &self.occ) == (&o.c, &o.i, &o.v, &o.h, &o.occ)
    }

    /// The grid the backing histogram was built on.
    #[must_use]
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Cardinality of the summarized dataset.
    #[must_use]
    pub fn dataset_len(&self) -> usize {
        self.len
    }

    /// Occupied cells (any non-zero `{C, I, V, H}` count).
    #[must_use]
    pub fn occupied_cells(&self) -> usize {
        self.occ.count()
    }

    /// Kernel-path Eq. 4 intersection-point total, the same blocked
    /// reduction as [`GhView::intersection_points`]; bit-identical to
    /// [`GhBasicHistogram::intersection_points_scalar`].
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] when the backing
    /// histograms were built on different grids.
    pub fn intersection_points(&self, other: &GhBasicView) -> Result<f64, HistogramError> {
        grid_check(self.grid, other.grid)?;
        let [ip] = patch_sums(self, other, &mut Vec::new(), &[]).unwrap_or_default();
        Ok(ip)
    }

    /// Kernel-path basic-GH estimate: `IP / 4 / (N₁·N₂)`;
    /// bit-identical to [`GhBasicHistogram::estimate`].
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] when the backing
    /// histograms were built on different grids.
    pub fn estimate(&self, other: &GhBasicView) -> Result<SelectivityEstimate, HistogramError> {
        let ip = self.intersection_points(other)?;
        Ok(self.tail(other, [ip]))
    }

    fn tail(&self, other: &GhBasicView, [ip]: [f64; 1]) -> SelectivityEstimate {
        ip_estimate(ip, (self.n_f64, self.len), (other.n_f64, other.len))
    }
}

impl WordKernel<1> for GhBasicView {
    fn occ(&self) -> &RowMask {
        &self.occ
    }

    /// Eq. 4's `c₁·i₂ + i₁·c₂ + v₁·h₂ + h₁·v₂` over one run.
    fn run_partials(&self, other: &Self, run: Range<usize>) -> [f64; 1] {
        let (c1, i1) = (&self.c[run.clone()], &self.i[run.clone()]);
        let (v1, h1) = (&self.v[run.clone()], &self.h[run.clone()]);
        let (c2, i2) = (&other.c[run.clone()], &other.i[run.clone()]);
        let (v2, h2) = (&other.v[run.clone()], &other.h[run]);
        let mut partial = 0.0f64;
        for k in 0..c1.len() {
            partial += f64::from(c1[k]) * f64::from(i2[k])
                + f64::from(i1[k]) * f64::from(c2[k])
                + f64::from(v1[k]) * f64::from(h2[k])
                + f64::from(h1[k]) * f64::from(v2[k]);
        }
        [partial]
    }
}

// ---------------------------------------------------------------------
// Resident statistics: a histogram and its view, kept in step
// ---------------------------------------------------------------------

/// The kernel view of one histogram. Euler's statistics are integer
/// counts its estimate reads directly, so Euler has no view.
#[derive(Debug)]
enum FamilyView {
    Ph(PhView),
    GhBasic(GhBasicView),
    Gh(GhView),
    Euler,
}

impl FamilyView {
    fn of(hist: &dyn SpatialHistogram) -> Self {
        let any = hist.as_any();
        if let Some(h) = any.downcast_ref::<GhHistogram>() {
            Self::Gh(GhView::new(h))
        } else if let Some(h) = any.downcast_ref::<PhHistogram>() {
            Self::Ph(PhView::new(h))
        } else if let Some(h) = any.downcast_ref::<GhBasicHistogram>() {
            Self::GhBasic(GhBasicView::new(h))
        } else {
            Self::Euler
        }
    }
}

/// A histogram that keeps its kernel view resident, for serving many
/// estimates (DESIGN.md §16.1).
///
/// [`SpatialHistogram::estimate_join`] decodes both operands' views on
/// every call. A `ResidentHistogram` decodes its view when it is built
/// and again inside [`ResidentHistogram::apply_delta`], the only way to
/// change the histogram it owns, so the view always describes the
/// current histogram: there is no cache key to compare and no
/// invalidation step to forget. [`ResidentHistogram::estimate`] runs the
/// family's kernel on the two resident views and is bit-identical to
/// `estimate_join` on the backing histograms.
///
/// ```
/// use sj_geo::{Extent, Rect};
/// use sj_histogram::kernel::ResidentHistogram;
/// use sj_histogram::{build_histogram, Grid, HistogramDelta, HistogramKind};
///
/// let grid = Grid::new(4, Extent::unit())?;
/// let a = vec![Rect::new(0.1, 0.1, 0.4, 0.4)];
/// let b = vec![Rect::new(0.2, 0.2, 0.5, 0.5), Rect::new(0.6, 0.6, 0.7, 0.7)];
/// let kind = HistogramKind::Gh;
/// let mut ra = ResidentHistogram::new(build_histogram(kind, grid, &a));
/// let rb = ResidentHistogram::new(build_histogram(kind, grid, &b));
///
/// let cold = ra.histogram().estimate_join(rb.histogram())?;
/// assert_eq!(ra.estimate(&rb)?.pairs.to_bits(), cold.pairs.to_bits());
///
/// // A delta re-derives the view: the answer tracks the new dataset.
/// let more = [Rect::new(0.65, 0.65, 0.8, 0.8)];
/// ra.apply_delta(&HistogramDelta::build(kind, grid, &more, &[]))?;
/// let fresh = build_histogram(kind, grid, &[a[0], more[0]]);
/// let cold = fresh.estimate_join(rb.histogram())?;
/// assert_eq!(ra.estimate(&rb)?.pairs.to_bits(), cold.pairs.to_bits());
/// # Ok::<(), sj_histogram::HistogramError>(())
/// ```
#[derive(Debug)]
pub struct ResidentHistogram {
    hist: Box<dyn SpatialHistogram>,
    view: FamilyView,
}

impl ResidentHistogram {
    /// Takes ownership of `hist` and decodes its view.
    #[must_use]
    pub fn new(hist: Box<dyn SpatialHistogram>) -> Self {
        let view = FamilyView::of(hist.as_ref());
        Self { hist, view }
    }

    /// The histogram the view was decoded from.
    #[must_use]
    pub fn histogram(&self) -> &dyn SpatialHistogram {
        self.hist.as_ref()
    }

    /// Applies a signed delta to the histogram
    /// ([`SpatialHistogram::apply_delta`]) and re-derives the view's
    /// dataset scalars and the cells the delta touched. Every other cell
    /// of the histogram is unchanged, and each view cell is a pure
    /// function of its histogram cell, so the patched view equals a
    /// freshly decoded one bit for bit.
    ///
    /// Returns the mask words (the [`RowMask`] encoding) that hold a
    /// touched cell, ascending: the only words whose partials
    /// ([`ResidentHistogram::repatch`]) the delta can have changed.
    ///
    /// # Errors
    /// As [`SpatialHistogram::apply_delta`]; on error neither the
    /// histogram nor the view has changed.
    pub fn apply_delta(&mut self, delta: &HistogramDelta) -> Result<Vec<usize>, HistogramError> {
        self.hist.apply_delta(delta)?;
        let cells = delta.touched_cells();
        // The view was decoded from this histogram, so each downcast
        // names the family the view belongs to.
        let any = self.hist.as_any();
        match &mut self.view {
            FamilyView::Ph(v) => {
                if let Some(h) = any.downcast_ref() {
                    v.patch(h, &cells);
                }
            }
            FamilyView::GhBasic(v) => {
                if let Some(h) = any.downcast_ref() {
                    v.patch(h, &cells);
                }
            }
            FamilyView::Gh(v) => {
                if let Some(h) = any.downcast_ref() {
                    v.patch(h, &cells);
                }
            }
            FamilyView::Euler => {}
        }
        // Cells ascend, and so do their words.
        let cols = ix(self.hist.grid().cells_per_axis());
        let mut words: Vec<usize> = cells.iter().map(|&idx| mask_word(cols, idx)).collect();
        words.dedup();
        Ok(words)
    }

    /// Whether this view and `other`'s are bitwise identical: grid,
    /// dataset scalars, every slice compared with `to_bits`, and the
    /// occupancy words. A test hook for the patched-view contract.
    #[doc(hidden)]
    #[must_use]
    pub fn view_bits_eq(&self, other: &Self) -> bool {
        match (&self.view, &other.view) {
            (FamilyView::Ph(a), FamilyView::Ph(b)) => a.bits_eq(b),
            (FamilyView::GhBasic(a), FamilyView::GhBasic(b)) => a.bits_eq(b),
            (FamilyView::Gh(a), FamilyView::Gh(b)) => a.bits_eq(b),
            (FamilyView::Euler, FamilyView::Euler) => true,
            _ => false,
        }
    }

    /// Join estimate against `other` from the two resident views;
    /// bit-identical to [`SpatialHistogram::estimate_join`].
    ///
    /// # Errors
    /// As [`SpatialHistogram::estimate_join`]:
    /// [`HistogramError::KindMismatch`] across families,
    /// [`HistogramError::GridMismatch`] across grids.
    pub fn estimate(&self, other: &Self) -> Result<SelectivityEstimate, HistogramError> {
        match (&self.view, &other.view) {
            (FamilyView::Gh(a), FamilyView::Gh(b)) => a.estimate(b),
            (FamilyView::Ph(a), FamilyView::Ph(b)) => a.estimate(b),
            (FamilyView::GhBasic(a), FamilyView::GhBasic(b)) => a.estimate(b),
            // Euler estimates from its counts; two different families
            // get the trait path's kind-mismatch error.
            _ => self.hist.estimate_join(other.hist.as_ref()),
        }
    }

    /// [`ResidentHistogram::estimate`] together with the per-word
    /// partials it sums, for a memo that keeps the answer across writes
    /// ([`ResidentHistogram::repatch`]). The answer is bit-identical to
    /// [`ResidentHistogram::estimate`]. Euler has no view kernel, so its
    /// partials are `None`.
    ///
    /// # Errors
    /// As [`ResidentHistogram::estimate`].
    pub fn estimate_with_partials(
        &self,
        other: &Self,
    ) -> Result<(SelectivityEstimate, Option<WordPartials>), HistogramError> {
        let mut partials = WordPartials(Vec::new());
        match self.repatch(other, &mut partials, &[]) {
            // Euler, and two different families.
            Err(HistogramError::KindMismatch { .. }) => Ok((self.estimate(other)?, None)),
            est => Ok((est?, Some(partials))),
        }
    }

    /// Brings an answer of [`ResidentHistogram::estimate_with_partials`]
    /// up to date after writes: recomputes the partials of `words` from
    /// the current views, then re-sums every partial in ascending word
    /// order and applies the tail. It never adds a change to the old
    /// total, so when `words` covers every word the writes since touched
    /// ([`ResidentHistogram::apply_delta`] returns them), the answer and
    /// the partials equal a fresh
    /// [`ResidentHistogram::estimate_with_partials`] bit for bit.
    ///
    /// # Errors
    /// [`HistogramError::GridMismatch`] across grids;
    /// [`HistogramError::KindMismatch`] when the two have no common view
    /// kernel, or `partials` or `words` do not fit it.
    pub fn repatch(
        &self,
        other: &Self,
        partials: &mut WordPartials,
        words: &[usize],
    ) -> Result<SelectivityEstimate, HistogramError> {
        let p = &mut partials.0;
        let est = match (&self.view, &other.view) {
            (FamilyView::Gh(a), FamilyView::Gh(b)) => {
                grid_check(a.grid, b.grid)?;
                patch_sums(a, b, p, words).map(|sums| a.tail(b, sums))
            }
            (FamilyView::Ph(a), FamilyView::Ph(b)) => {
                grid_check(a.grid, b.grid)?;
                patch_sums(a, b, p, words).map(|sums| a.tail(b, sums, true))
            }
            (FamilyView::GhBasic(a), FamilyView::GhBasic(b)) => {
                grid_check(a.grid, b.grid)?;
                patch_sums(a, b, p, words).map(|sums| a.tail(b, sums))
            }
            _ => None,
        };
        est.ok_or(HistogramError::KindMismatch {
            left: self.hist.kind(),
            right: other.hist.kind(),
        })
    }
}

/// The per-word partials of one kernel estimate, kept next to a memoized
/// answer so that a write re-derives only the words it touched
/// (DESIGN.md §16.6). Each is one 64-cell mask word's share of one
/// accumulator, summed from `+0.0` in ascending cell order; a word with
/// no jointly occupied cell holds `+0.0`. They take
/// `8 B × words × accumulators`: one accumulator for GH and GH-basic,
/// two for PH (`sum_abc`, `sum_d`).
#[derive(Debug, Clone)]
pub struct WordPartials(Vec<f64>);

impl WordPartials {
    /// Whether both hold the same partials, compared with `to_bits`. A
    /// test hook for the patched-memo contract.
    #[doc(hidden)]
    #[must_use]
    pub fn bits_eq(&self, other: &Self) -> bool {
        same_bits(&self.0, &other.0)
    }
}

// ---------------------------------------------------------------------
// Build-side binning view
// ---------------------------------------------------------------------

/// Flattened grid geometry for the binning loops: cell sizes hoisted
/// out of the per-cell iteration, flat indices derived from a per-row
/// base instead of re-multiplying per cell. Every derived value is the
/// same expression [`Grid`] evaluates, so the quantized `Mass`
/// contributions — and therefore the built histograms — are
/// bit-identical to binning through [`Grid`] directly.
pub(crate) struct BinGrid {
    cpa: usize,
    xlo: f64,
    ylo: f64,
    cell_w: f64,
    cell_h: f64,
    cell_area: f64,
}

impl BinGrid {
    pub(crate) fn new(grid: &Grid) -> Self {
        let r = grid.extent().rect();
        Self {
            cpa: ix(grid.cells_per_axis()),
            xlo: r.xlo,
            ylo: r.ylo,
            cell_w: grid.cell_width(),
            cell_h: grid.cell_height(),
            cell_area: grid.cell_area(),
        }
    }

    /// Flat index of the first cell of `row` (row-major).
    pub(crate) fn row_base(&self, row: u32) -> usize {
        ix(row) * self.cpa
    }

    /// World-space rectangle of cell `(col, row)` — the same expression
    /// as [`Grid::cell_rect`], with the division hoisted.
    pub(crate) fn cell_rect(&self, col: u32, row: u32) -> Rect {
        let x0 = self.xlo + f64::from(col) * self.cell_w;
        let y0 = self.ylo + f64::from(row) * self.cell_h;
        Rect::new(x0, y0, x0 + self.cell_w, y0 + self.cell_h)
    }

    /// `r.area()` as a fraction of one cell's area.
    pub(crate) fn area_ratio(&self, r: &Rect) -> f64 {
        r.area() / self.cell_area
    }

    /// Clipped overlap of `r` with cell `(col, row)` as an area ratio
    /// (revised GH `O`).
    pub(crate) fn overlap_ratio(&self, r: &Rect, col: u32, row: u32) -> f64 {
        r.intersection_area(&self.cell_rect(col, row)) / self.cell_area
    }

    /// Clipped horizontal-edge length over cell width (revised GH `H`).
    pub(crate) fn h_ratio(&self, edge: &HEdge, col: u32, row: u32) -> f64 {
        edge.clipped_len(&self.cell_rect(col, row)) / self.cell_w
    }

    /// Clipped vertical-edge length over cell height (revised GH `V`).
    pub(crate) fn v_ratio(&self, edge: &VEdge, col: u32, row: u32) -> f64 {
        edge.clipped_len(&self.cell_rect(col, row)) / self.cell_h
    }
}

/// PH `Cont` binning of one fully-contained rect into cell `(col, row)`:
/// `num`, `cov`, `xsum`, `ysum` are the four arrays' sink positions.
#[inline]
#[warn(clippy::float_arithmetic)]
pub(crate) fn bin_ph_cont(
    bg: &BinGrid,
    r: &Rect,
    (col, row): (u32, u32),
    sink: &mut impl Sink,
    [num, cov, xsum, ysum]: [usize; 4],
) {
    let idx = bg.row_base(row) + ix(col);
    sink.add_count(num, idx);
    sink.add_mass(cov, idx, Mass::from_f64(bg.area_ratio(r)));
    sink.add_mass(xsum, idx, Mass::from_f64(r.width()));
    sink.add_mass(ysum, idx, Mass::from_f64(r.height()));
}

/// PH `Isect` binning of one boundary-crossing rect over the banded
/// cell block `(c0..=c1) × (row_lo..=row_hi)`, into the sink positions
/// of `num_x`, `cov_x`, `xsum_x`, `ysum_x`.
#[inline]
#[warn(clippy::float_arithmetic)]
pub(crate) fn bin_ph_isect(
    bg: &BinGrid,
    r: &Rect,
    (c0, c1): (u32, u32),
    (row_lo, row_hi): (u32, u32),
    sink: &mut impl Sink,
    [num_x, cov_x, xsum_x, ysum_x]: [usize; 4],
) {
    for row in row_lo..=row_hi {
        let base = bg.row_base(row);
        for col in c0..=c1 {
            let idx = base + ix(col);
            let cell = bg.cell_rect(col, row);
            // The cell range guarantees a (possibly degenerate) closed
            // intersection exists.
            let clip = r
                .intersection(&cell)
                .unwrap_or_else(|| Rect::from_point(cell.center()));
            sink.add_count(num_x, idx);
            sink.add_mass(cov_x, idx, Mass::from_f64(bg.area_ratio(&clip)));
            sink.add_mass(xsum_x, idx, Mass::from_f64(clip.width()));
            sink.add_mass(ysum_x, idx, Mass::from_f64(clip.height()));
        }
    }
}

/// Revised-GH overlap-mass binning of one rect over a banded block into
/// mass array `o`.
#[inline]
#[warn(clippy::float_arithmetic)]
pub(crate) fn bin_gh_overlap(
    bg: &BinGrid,
    r: &Rect,
    (c0, c1): (u32, u32),
    (row_lo, row_hi): (u32, u32),
    sink: &mut impl Sink,
    o: usize,
) {
    for row in row_lo..=row_hi {
        let base = bg.row_base(row);
        for col in c0..=c1 {
            sink.add_mass(
                o,
                base + ix(col),
                Mass::from_f64(bg.overlap_ratio(r, col, row)),
            );
        }
    }
}

/// Revised-GH horizontal-edge binning along one row into mass array `h`.
#[inline]
#[warn(clippy::float_arithmetic)]
pub(crate) fn bin_gh_hedge(
    bg: &BinGrid,
    edge: &HEdge,
    (c0, c1): (u32, u32),
    row: u32,
    sink: &mut impl Sink,
    h: usize,
) {
    let base = bg.row_base(row);
    for col in c0..=c1 {
        sink.add_mass(
            h,
            base + ix(col),
            Mass::from_f64(bg.h_ratio(edge, col, row)),
        );
    }
}

/// Revised-GH vertical-edge binning along one banded column into mass
/// array `v`.
#[inline]
#[warn(clippy::float_arithmetic)]
pub(crate) fn bin_gh_vedge(
    bg: &BinGrid,
    edge: &VEdge,
    col: u32,
    (row_lo, row_hi): (u32, u32),
    sink: &mut impl Sink,
    v: usize,
) {
    for row in row_lo..=row_hi {
        sink.add_mass(
            v,
            bg.row_base(row) + ix(col),
            Mass::from_f64(bg.v_ratio(edge, col, row)),
        );
    }
}

/// Counter binning over a banded block (basic GH `I`) into count array
/// `out`.
#[inline]
#[warn(clippy::float_arithmetic)]
pub(crate) fn bin_count_block(
    bg: &BinGrid,
    (c0, c1): (u32, u32),
    (row_lo, row_hi): (u32, u32),
    sink: &mut impl Sink,
    out: usize,
) {
    for row in row_lo..=row_hi {
        let base = bg.row_base(row);
        for col in c0..=c1 {
            sink.add_count(out, base + ix(col));
        }
    }
}

/// Counter binning along one row (basic GH `H`) into count array `out`.
#[inline]
#[warn(clippy::float_arithmetic)]
pub(crate) fn bin_count_row(
    bg: &BinGrid,
    (c0, c1): (u32, u32),
    row: u32,
    sink: &mut impl Sink,
    out: usize,
) {
    let base = bg.row_base(row);
    for col in c0..=c1 {
        sink.add_count(out, base + ix(col));
    }
}

/// Counter binning along one banded column (basic GH `V`) into count
/// array `out`.
#[inline]
#[warn(clippy::float_arithmetic)]
pub(crate) fn bin_count_col(
    bg: &BinGrid,
    col: u32,
    (row_lo, row_hi): (u32, u32),
    sink: &mut impl Sink,
    out: usize,
) {
    for row in row_lo..=row_hi {
        sink.add_count(out, bg.row_base(row) + ix(col));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geo::Extent;

    #[test]
    fn row_mask_set_and_count() {
        let mut m = RowMask::empty(8, 8);
        assert_eq!(m.count(), 0);
        m.set(0, 0);
        m.set(3, 7);
        m.set(7, 7);
        assert_eq!(m.count(), 3);
        assert!(m.is_set(3, 7));
        assert!(!m.is_set(3, 6));
        m.clear(3, 7);
        m.clear(3, 6);
        assert_eq!(m.count(), 2);
        assert!(!m.is_set(3, 7));
        assert!(m.is_set(7, 7));
    }

    fn runs(a: &RowMask, b: &RowMask) -> Vec<std::ops::Range<usize>> {
        (0..a.words.len())
            .filter_map(|w| a.joint_run(b, w))
            .collect()
    }

    #[test]
    fn runs_cover_joint_words_in_ascending_order() {
        let mut a = RowMask::empty(3, 130); // three words per row, the last partial
        let mut b = RowMask::empty(3, 130);
        // Row 0: word 0 joint at one cell only; word 1 set in `a` alone.
        a.set(0, 5);
        b.set(0, 5);
        a.set(0, 70);
        // Row 1: word 1 joint; word 2 (cols 128..130) joint at its last cell.
        a.set(1, 64);
        b.set(1, 127);
        b.set(1, 64);
        a.set(1, 129);
        b.set(1, 129);
        // Row 2: each operand sets a different cell of word 0.
        a.set(2, 0);
        b.set(2, 1);
        // A joint word runs all of its cells, whoever occupies them; the
        // last word of a row stops at the row end.
        assert_eq!(runs(&a, &b), vec![0..64, 194..258, 258..260]);
    }

    #[test]
    fn runs_stop_at_the_row_end_below_64_columns() {
        let mut a = RowMask::empty(4, 8); // one partial word per row
        let mut b = RowMask::empty(4, 8);
        a.set(1, 7);
        b.set(1, 7);
        a.set(2, 3);
        b.set(3, 3);
        b.set(3, 0);
        a.set(3, 0);
        assert_eq!(runs(&a, &b), vec![8..16, 24..32]);
        // A single cell per row, as at level 0.
        let (mut a, mut b) = (RowMask::empty(1, 1), RowMask::empty(1, 1));
        assert_eq!(runs(&a, &b), vec![]);
        a.set(0, 0);
        assert_eq!(runs(&a, &b), vec![], "a word set in one operand only");
        b.set(0, 0);
        assert_eq!(runs(&a, &b), vec![0..1]);
    }

    #[test]
    fn bin_grid_matches_grid_geometry() {
        let e = Extent::new(Rect::new(-10.0, 20.0, 30.0, 40.0));
        let grid = Grid::new(3, e).unwrap();
        let bg = BinGrid::new(&grid);
        for row in 0..8 {
            for col in 0..8 {
                assert_eq!(bg.cell_rect(col, row), grid.cell_rect(col, row));
                assert_eq!(bg.row_base(row) + ix(col), grid.flat_index(col, row));
            }
        }
    }

    #[test]
    fn view_occupancy_matches_histogram() {
        let grid = Grid::new(4, Extent::unit()).unwrap();
        let rects = vec![
            Rect::new(0.1, 0.1, 0.11, 0.11),
            Rect::new(0.5, 0.5, 0.8, 0.8),
        ];
        let gh = GhHistogram::build(grid, &rects);
        let view = GhView::new(&gh);
        assert_eq!(view.occupied_cells(), gh.occupied_cells());
        assert!(view.occupied_cells() < grid.num_cells());
    }

    #[test]
    fn word_runs_match_the_mask_encoding() {
        for level in 0..=7 {
            let grid = Grid::new(level, Extent::unit()).unwrap();
            let cols = ix(grid.cells_per_axis());
            let mask = RowMask::empty(cols, cols);
            let runs: Vec<_> = word_runs(&grid).collect();
            assert_eq!(runs.len(), mask.words.len(), "level {level}");
            for (w, run) in runs.into_iter().enumerate() {
                assert_eq!(run, mask.run(w), "level {level}, word {w}");
                assert!(run.clone().all(|idx| mask_word(cols, idx) == w));
            }
        }
    }

    #[test]
    fn a_word_with_no_joint_bit_has_a_positive_zero_partial() {
        // Level 7: two words per row. Both operands occupy row 0's first
        // word; only `a` occupies its second, only `b` row 1's first.
        let grid = Grid::new(7, Extent::unit()).unwrap();
        let w = 1.0 / 128.0;
        let cell =
            |col: f64, row: f64| Rect::new(col * w, row * w, (col + 0.5) * w, (row + 0.5) * w);
        let a = GhView::new(&GhHistogram::build(
            grid,
            &[cell(3.0, 0.0), cell(70.0, 0.0)],
        ));
        let b = GhView::new(&GhHistogram::build(grid, &[cell(3.0, 0.0), cell(5.0, 1.0)]));
        let mut parts = Vec::new();
        let [ip] = patch_sums(&a, &b, &mut parts, &[]).unwrap();
        assert_eq!(parts.len(), 256, "one partial per word");
        assert!(parts[0] > 0.0, "the joint word sums its products");
        for word in [1, 2, 3] {
            assert_eq!(parts[word].to_bits(), 0.0f64.to_bits(), "word {word}");
        }
        assert_eq!(ip.to_bits(), a.intersection_points(&b).unwrap().to_bits());
        // Recomputing a word with no joint bit stores `+0.0` as well.
        parts[1] = -0.0;
        let [again] = patch_sums(&a, &b, &mut parts, &[1]).unwrap();
        assert_eq!(parts[1].to_bits(), 0.0f64.to_bits());
        assert_eq!(again.to_bits(), ip.to_bits());
        assert!(patch_sums::<1, _>(&a, &b, &mut parts, &[256]).is_none());
    }
}
