use crate::{CorruptSection, HistogramError};
use sj_geo::{Extent, Point, Rect};

/// Lossless `u32` → `usize` widening for cell indices and counts.
///
/// Every supported target has `usize` of at least 32 bits, so clippy's
/// cast lints (enabled at the crate root) accept this widening; every
/// narrowing or sign-changing cast in the crate goes through `try_from`
/// or carries a reasoned statement-level `#[expect]`.
pub(crate) const fn ix(v: u32) -> usize {
    v as usize
}

/// Reconstructs the grid encoded in a deserialized histogram header,
/// validating that all four extent coordinates are finite, the corners
/// are properly ordered with a representable positive area (so
/// [`Extent::new`] cannot panic on decoder-controlled input), and the
/// level is within [`Grid::MAX_LEVEL`]. Shared by every family decoder.
pub(crate) fn grid_from_header(
    level: u32,
    (xlo, ylo, xhi, yhi): (f64, f64, f64, f64),
) -> Result<Grid, HistogramError> {
    let corrupt = |m: &str| HistogramError::corrupt(CorruptSection::Header, m);
    if !(xlo.is_finite() && ylo.is_finite() && xhi.is_finite() && yhi.is_finite())
        || xhi <= xlo
        || yhi <= ylo
        || !((xhi - xlo) * (yhi - ylo)).is_normal()
    {
        return Err(corrupt("bad extent"));
    }
    let extent = Extent::new(Rect::new(xlo, ylo, xhi, yhi));
    Grid::new(level, extent).map_err(|_| corrupt("grid level out of range"))
}

/// A regular grid over a spatial extent: `2^level` columns × `2^level`
/// rows, i.e. `4^level` equi-sized cells, exactly the gridding of the
/// paper's Section 3 ("`2^h` vertical and `2^h` horizontal lines, where
/// `h` denotes the level of gridding").
///
/// # Cell assignment convention
///
/// Cells are half-open `[lo, hi)` in both axes, with the final row/column
/// closed at the extent boundary, so every point of the extent maps to
/// exactly one cell. Rectangle→cell ranges follow the same convention:
/// a rectangle whose edge lies exactly on an interior grid line is
/// assigned the cell on the *high* side of the line for that edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid {
    level: u32,
    extent: Extent,
    cells_per_axis: u32,
}

impl Grid {
    /// Maximum supported gridding level. `4^11` ≈ 4.2 M cells keeps even
    /// the largest (PH) histogram file under ~300 MB; the paper evaluates
    /// levels 0–9.
    pub const MAX_LEVEL: u32 = 11;

    /// Creates a grid at `level` over `extent`.
    ///
    /// # Errors
    /// Returns [`HistogramError::LevelTooLarge`] above [`Self::MAX_LEVEL`].
    pub fn new(level: u32, extent: Extent) -> Result<Self, HistogramError> {
        if level > Self::MAX_LEVEL {
            return Err(HistogramError::LevelTooLarge(level));
        }
        Ok(Self {
            level,
            extent,
            cells_per_axis: 1 << level,
        })
    }

    /// Grid level `h`.
    #[must_use]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The underlying extent.
    #[must_use]
    pub fn extent(&self) -> Extent {
        self.extent
    }

    /// Cells per axis (`2^h`).
    #[must_use]
    pub fn cells_per_axis(&self) -> u32 {
        self.cells_per_axis
    }

    /// Total number of cells (`4^h`).
    #[must_use]
    pub fn num_cells(&self) -> usize {
        ix(self.cells_per_axis) * ix(self.cells_per_axis)
    }

    /// Cell width in world units.
    #[must_use]
    pub fn cell_width(&self) -> f64 {
        self.extent.width() / f64::from(self.cells_per_axis)
    }

    /// Cell height in world units.
    #[must_use]
    pub fn cell_height(&self) -> f64 {
        self.extent.height() / f64::from(self.cells_per_axis)
    }

    /// Area of one cell.
    #[must_use]
    pub fn cell_area(&self) -> f64 {
        self.cell_width() * self.cell_height()
    }

    /// Column index of an x coordinate (clamped into the grid).
    #[must_use]
    pub fn col_of(&self, x: f64) -> u32 {
        let n = f64::from(self.cells_per_axis);
        let u = (x - self.extent.rect().xlo) / self.extent.width();
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "clamped to [0, n-1] with n <= 2^MAX_LEVEL; NaN maps to 0"
        )]
        let i = (u * n).floor().clamp(0.0, n - 1.0) as u32;
        i
    }

    /// Row index of a y coordinate (clamped into the grid).
    #[must_use]
    pub fn row_of(&self, y: f64) -> u32 {
        let n = f64::from(self.cells_per_axis);
        let u = (y - self.extent.rect().ylo) / self.extent.height();
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "clamped to [0, n-1] with n <= 2^MAX_LEVEL; NaN maps to 0"
        )]
        let j = (u * n).floor().clamp(0.0, n - 1.0) as u32;
        j
    }

    /// Cell of a point.
    #[must_use]
    pub fn cell_of_point(&self, p: Point) -> (u32, u32) {
        (self.col_of(p.x), self.row_of(p.y))
    }

    /// Flat index of cell `(col, row)` in row-major order.
    ///
    /// Out-of-grid coordinates are clamped into the last column/row, so
    /// the returned index is always `< num_cells()` even in release
    /// builds — corrupt or miscomputed coordinates can therefore never
    /// index a statistics array out of contract. Callers that need to
    /// *detect* out-of-grid coordinates (decoders) use
    /// [`Self::checked_flat_index`] instead. The `debug_assert!` keeps
    /// logic errors loud under `cargo test`.
    #[must_use]
    pub fn flat_index(&self, col: u32, row: u32) -> usize {
        debug_assert!(col < self.cells_per_axis && row < self.cells_per_axis);
        let col = col.min(self.cells_per_axis - 1);
        let row = row.min(self.cells_per_axis - 1);
        ix(row) * ix(self.cells_per_axis) + ix(col)
    }

    /// Flat index of cell `(col, row)`, or a typed error when the
    /// coordinates fall outside the grid — the checked counterpart of
    /// [`Self::flat_index`] for decoder-controlled input.
    ///
    /// # Errors
    /// Returns [`HistogramError::Corrupt`] (payload section) when
    /// `col` or `row` is out of range.
    pub fn checked_flat_index(&self, col: u32, row: u32) -> Result<usize, HistogramError> {
        if col >= self.cells_per_axis || row >= self.cells_per_axis {
            return Err(HistogramError::corrupt(
                CorruptSection::Payload,
                format!(
                    "cell ({col}, {row}) outside the {n}x{n} grid",
                    n = self.cells_per_axis
                ),
            ));
        }
        Ok(ix(row) * ix(self.cells_per_axis) + ix(col))
    }

    /// World-space rectangle of cell `(col, row)`.
    #[must_use]
    pub fn cell_rect(&self, col: u32, row: u32) -> Rect {
        let w = self.cell_width();
        let h = self.cell_height();
        let x0 = self.extent.rect().xlo + f64::from(col) * w;
        let y0 = self.extent.rect().ylo + f64::from(row) * h;
        Rect::new(x0, y0, x0 + w, y0 + h)
    }

    /// Inclusive `(col_lo..=col_hi, row_lo..=row_hi)` range of cells a
    /// rectangle occupies under the half-open convention.
    #[must_use]
    pub fn cell_range(&self, r: &Rect) -> (u32, u32, u32, u32) {
        (
            self.col_of(r.xlo),
            self.col_of(r.xhi),
            self.row_of(r.ylo),
            self.row_of(r.yhi),
        )
    }

    /// Number of cells a rectangle spans.
    #[must_use]
    pub fn span_count(&self, r: &Rect) -> u64 {
        let (c0, c1, r0, r1) = self.cell_range(r);
        u64::from(c1 - c0 + 1) * u64::from(r1 - r0 + 1)
    }

    /// `true` if the rectangle lies within a single cell.
    #[must_use]
    pub fn is_contained_in_one_cell(&self, r: &Rect) -> bool {
        self.span_count(r) == 1
    }

    /// `true` when two grids can be combined for estimation: identical
    /// level and extent.
    #[must_use]
    pub fn compatible(&self, other: &Grid) -> bool {
        self.level == other.level && self.extent == other.extent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_grid(level: u32) -> Grid {
        Grid::new(level, Extent::unit()).unwrap()
    }

    #[test]
    fn level_zero_is_one_cell() {
        let g = unit_grid(0);
        assert_eq!(g.num_cells(), 1);
        assert_eq!(g.cell_area(), 1.0);
        assert_eq!(g.cell_rect(0, 0), Rect::new(0.0, 0.0, 1.0, 1.0));
        assert!(g.is_contained_in_one_cell(&Rect::new(0.1, 0.1, 0.9, 0.9)));
    }

    #[test]
    fn level_two_cell_geometry() {
        let g = unit_grid(2);
        assert_eq!(g.cells_per_axis(), 4);
        assert_eq!(g.num_cells(), 16);
        assert_eq!(g.cell_width(), 0.25);
        assert_eq!(g.cell_rect(1, 2), Rect::new(0.25, 0.5, 0.5, 0.75));
    }

    #[test]
    fn point_assignment_half_open() {
        let g = unit_grid(2);
        // Interior boundary goes to the high cell.
        assert_eq!(g.cell_of_point(Point::new(0.25, 0.0)), (1, 0));
        // Extent max clamps into the last cell.
        assert_eq!(g.cell_of_point(Point::new(1.0, 1.0)), (3, 3));
        // Out-of-extent coordinates clamp.
        assert_eq!(g.cell_of_point(Point::new(-0.5, 2.0)), (0, 3));
    }

    #[test]
    fn cell_range_of_spanning_rect() {
        let g = unit_grid(2);
        let r = Rect::new(0.1, 0.1, 0.6, 0.3);
        assert_eq!(g.cell_range(&r), (0, 2, 0, 1));
        assert_eq!(g.span_count(&r), 6);
        assert!(!g.is_contained_in_one_cell(&r));
        let small = Rect::new(0.3, 0.3, 0.4, 0.4);
        assert_eq!(g.span_count(&small), 1);
        assert!(g.is_contained_in_one_cell(&small));
    }

    #[test]
    fn flat_index_row_major() {
        let g = unit_grid(3);
        assert_eq!(g.flat_index(0, 0), 0);
        assert_eq!(g.flat_index(7, 0), 7);
        assert_eq!(g.flat_index(0, 1), 8);
        assert_eq!(g.flat_index(7, 7), 63);
    }

    #[test]
    fn flat_index_clamps_out_of_grid_coordinates_in_release() {
        // In release builds (debug_assertions off) out-of-grid
        // coordinates must clamp into the last cell instead of
        // producing an index beyond num_cells(). Under `cargo test`
        // the debug_assert fires instead, which is also the contract.
        let g = unit_grid(2);
        if cfg!(debug_assertions) {
            assert!(std::panic::catch_unwind(|| g.flat_index(4, 0)).is_err());
        } else {
            assert_eq!(g.flat_index(4, 0), g.flat_index(3, 0));
            assert_eq!(g.flat_index(0, 9), g.flat_index(0, 3));
            assert!(g.flat_index(u32::MAX, u32::MAX) < g.num_cells());
        }
    }

    #[test]
    fn checked_flat_index_rejects_out_of_grid() {
        let g = unit_grid(2);
        assert_eq!(g.checked_flat_index(3, 3).unwrap(), g.num_cells() - 1);
        assert!(matches!(
            g.checked_flat_index(4, 0),
            Err(HistogramError::Corrupt { .. })
        ));
        assert!(matches!(
            g.checked_flat_index(0, 4),
            Err(HistogramError::Corrupt { .. })
        ));
    }

    #[test]
    fn cells_tile_the_extent() {
        let g = unit_grid(3);
        let mut area = 0.0;
        for row in 0..8 {
            for col in 0..8 {
                area += g.cell_rect(col, row).area();
            }
        }
        assert!((area - 1.0).abs() < 1e-12);
    }

    #[test]
    fn non_unit_extent() {
        let e = Extent::new(Rect::new(-10.0, 20.0, 30.0, 40.0));
        let g = Grid::new(2, e).unwrap();
        assert_eq!(g.cell_width(), 10.0);
        assert_eq!(g.cell_height(), 5.0);
        assert_eq!(g.cell_of_point(Point::new(-10.0, 20.0)), (0, 0));
        assert_eq!(g.cell_of_point(Point::new(29.999, 39.999)), (3, 3));
    }

    #[test]
    fn level_cap() {
        assert!(matches!(
            Grid::new(Grid::MAX_LEVEL + 1, Extent::unit()),
            Err(HistogramError::LevelTooLarge(_))
        ));
        assert!(Grid::new(Grid::MAX_LEVEL, Extent::unit()).is_ok());
    }

    #[test]
    fn compatibility() {
        let a = unit_grid(3);
        let b = unit_grid(3);
        let c = unit_grid(4);
        let d = Grid::new(3, Extent::new(Rect::new(0.0, 0.0, 2.0, 2.0))).unwrap();
        assert!(a.compatible(&b));
        assert!(!a.compatible(&c));
        assert!(!a.compatible(&d));
    }
}
