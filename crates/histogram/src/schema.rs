//! One declaration per histogram family: its statistics, listed once.
//!
//! Every family's state is a grid plus pure sums over the input MBRs:
//! `u64` dataset scalars and per-cell arrays of `u32` counts or exact
//! [`Mass`] sums, each array on a row-major lattice of the grid. A
//! family states that list once, next to its struct, with
//! [`histogram_family!`]: each statistic's name, whether it is a count or
//! a mass, its lattice, and (by position) its file order. The macro
//! derives the family's [`Family`] impl from that one list — its
//! [`Schema`], a `const`, so a shape is known from `(kind, grid)` alone,
//! and the read and write accessors, which therefore always agree on
//! order. Everything that walks the statistics is written once over
//! [`Family`]:
//!
//! * the `.hist` payload codec, [`to_bytes`] / [`from_bytes`], and its
//!   size, [`Schema::size_bytes`];
//! * the exact merge, [`merge_same_grid`];
//! * `first_divergence` (`diff.rs`);
//! * `HistogramDelta` build, decode and apply (`delta.rs`);
//! * the [`Sink`] every binning pass writes through: the family's own
//!   dense arrays when it is registered, a sparse touched-cell
//!   accumulator when a delta is built.
//!
//! The `.hist` payload (wrapped by the envelope of `traits.rs`), all
//! little-endian:
//!
//! ```text
//! magic u32 | level u32 | extent 4 × f64 | scalars, u64 each
//!   | arrays in declaration order: u32 per count, 16 bytes per mass
//! ```

#![warn(clippy::float_arithmetic, clippy::indexing_slicing)]

use crate::grid::{ix, Grid};
use crate::mass::Mass;
use crate::{CorruptSection, HistogramError, HistogramKind};
use bytes::{Buf, BufMut, Bytes};
use std::ops::AddAssign;

/// How one per-cell statistic is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Repr {
    /// A `u32` counter: 4 bytes in the `.hist` payload.
    Count,
    /// An exact fixed-point [`Mass`]: 16 bytes in the `.hist` payload.
    Mass,
}

impl Repr {
    /// Bytes one entry takes in the `.hist` payload.
    const fn file_bytes(self) -> usize {
        match self {
            Self::Count => 4,
            Self::Mass => 16,
        }
    }
}

/// The row-major lattice a statistic array lives on, for a grid with
/// `a` cells per axis.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lattice {
    /// One entry per grid cell: `a` wide, `a` rows.
    Cells,
    /// Interior vertical edges between horizontally adjacent cells:
    /// `a − 1` wide, `a` rows.
    VEdges,
    /// Interior horizontal edges between vertically adjacent cells: `a`
    /// wide, `a − 1` rows.
    HEdges,
    /// Interior vertices where four cells meet: `a − 1` wide, `a − 1`
    /// rows.
    Vertices,
}

impl Lattice {
    /// `(width, rows)` of the lattice on `grid`.
    pub(crate) fn dims(self, grid: &Grid) -> (usize, usize) {
        let axis = ix(grid.cells_per_axis());
        let inner = axis.saturating_sub(1);
        match self {
            Self::Cells => (axis, axis),
            Self::VEdges => (inner, axis),
            Self::HEdges => (axis, inner),
            Self::Vertices => (inner, inner),
        }
    }

    /// Number of entries of the lattice on `grid`.
    pub(crate) fn len(self, grid: &Grid) -> usize {
        let (width, rows) = self.dims(grid);
        width * rows
    }
}

/// One declared per-cell statistic.
#[derive(Debug)]
pub(crate) struct Stat {
    /// Field name, as `first_divergence` and delta errors report it.
    pub(crate) name: &'static str,
    /// Count or mass.
    pub(crate) repr: Repr,
    /// The lattice the array lives on.
    pub(crate) lattice: Lattice,
}

/// A family's statistics in file order: the `.hist` magic, the `u64`
/// dataset scalars, then the per-cell arrays.
#[derive(Debug)]
pub(crate) struct Schema {
    /// The family.
    pub(crate) kind: HistogramKind,
    /// First word of the family's `.hist` payload.
    pub(crate) magic: u32,
    /// Dataset scalar names, in file order.
    pub(crate) scalars: &'static [&'static str],
    /// Per-cell statistics, in file order.
    pub(crate) arrays: &'static [Stat],
}

impl Schema {
    /// Payload bytes before the arrays: magic, level, extent, scalars.
    fn header_bytes(&self) -> usize {
        4 + 4 + 32 + 8 * self.scalars.len()
    }

    /// Payload bytes of the arrays on `grid`.
    fn arrays_bytes(&self, grid: &Grid) -> usize {
        self.arrays
            .iter()
            .map(|a| a.lattice.len(grid) * a.repr.file_bytes())
            .sum()
    }

    /// Size of the family's `.hist` payload on `grid` — the paper's space
    /// cost. It depends on the grid level only, never on the data.
    pub(crate) fn size_bytes(&self, grid: &Grid) -> usize {
        self.header_bytes() + self.arrays_bytes(grid)
    }

    /// Position of the scalar `name` in file order — the [`Sink`]
    /// address a binning pass adds it at. Evaluated in `const` items
    /// only, so a name the family does not declare fails to compile.
    pub(crate) const fn scalar(&self, name: &str) -> usize {
        let (mut at, mut rest) = (0, self.scalars);
        while let Some((first, tail)) = rest.split_first() {
            if str_eq(first, name) {
                return at;
            }
            (at, rest) = (at + 1, tail);
        }
        undeclared()
    }

    /// Position of the per-cell array `name` in file order, as
    /// [`Self::scalar`].
    pub(crate) const fn array(&self, name: &str) -> usize {
        let (mut at, mut rest) = (0, self.arrays);
        while let Some((first, tail)) = rest.split_first() {
            if str_eq(first.name, name) {
                return at;
            }
            (at, rest) = (at + 1, tail);
        }
        undeclared()
    }
}

/// `a == b`, usable in `const` evaluation.
const fn str_eq(a: &str, b: &str) -> bool {
    let (mut a, mut b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    while let (Some((x, a_tail)), Some((y, b_tail))) = (a.split_first(), b.split_first()) {
        if *x != *y {
            return false;
        }
        (a, b) = (a_tail, b_tail);
    }
    true
}

/// The compile error of a [`Schema::scalar`] or [`Schema::array`] lookup
/// of an undeclared name.
#[expect(
    clippy::panic,
    reason = "reached only in const evaluation, where it is a compile error"
)]
const fn undeclared() -> usize {
    panic!("statistic not declared by the family's schema")
}

/// Where one binning pass adds its contributions. Statistics are
/// addressed by their position in the family's declaration
/// ([`Schema::scalar`], [`Schema::array`]); every per-cell contribution
/// is a count of one or an exact [`Mass`], so each is an exact sum
/// whichever sink collects it. Two sinks exist: the family's own dense
/// arrays ([`histogram_family!`] implements this trait for it), which
/// registration fills exactly as it always has, and the touched-cell
/// accumulator of `delta.rs`, which records only the cells a batch
/// reaches.
pub(crate) trait Sink {
    /// Adds `v` to scalar `k`.
    fn add_scalar(&mut self, k: usize, v: u64);

    /// Adds one to cell `cell` of count array `array`.
    fn add_count(&mut self, array: usize, cell: usize);

    /// Adds `v` to cell `cell` of mass array `array`.
    fn add_mass(&mut self, array: usize, cell: usize, v: Mass);
}

/// One dense statistic array as a [`Sink`] target. A position of the
/// other representation is never addressed (positions come from the
/// schema by name), so that arm does nothing.
pub(crate) trait DenseCells {
    /// `self[cell] += 1` on a count array.
    fn add_count(&mut self, cell: usize);

    /// `self[cell] += v` on a mass array.
    fn add_mass(&mut self, cell: usize, v: Mass);
}

#[expect(
    clippy::indexing_slicing,
    reason = "cells come from the grid the array was sized for, one slot per cell"
)]
impl DenseCells for Vec<u32> {
    #[inline]
    fn add_count(&mut self, cell: usize) {
        self[cell] += 1;
    }

    #[inline]
    fn add_mass(&mut self, _: usize, _: Mass) {}
}

#[expect(
    clippy::indexing_slicing,
    reason = "cells come from the grid the array was sized for, one slot per cell"
)]
impl DenseCells for Vec<Mass> {
    #[inline]
    fn add_count(&mut self, _: usize) {}

    #[inline]
    fn add_mass(&mut self, cell: usize, v: Mass) {
        self[cell] += v;
    }
}

/// One per-cell statistic array, read-only.
pub(crate) enum Column<'a> {
    /// Integer counters.
    Count(&'a [u32]),
    /// Exact fixed-point masses.
    Mass(&'a [Mass]),
}

/// One per-cell statistic array, writable in place (never resized).
pub(crate) enum ColumnMut<'a> {
    /// Integer counters.
    Count(&'a mut [u32]),
    /// Exact fixed-point masses.
    Mass(&'a mut [Mass]),
}

/// A histogram family seen as its declared statistics. Implemented only
/// by [`histogram_family!`], so every accessor lists the statistics in
/// the order of [`Self::SCHEMA`].
pub(crate) trait Family: Sized {
    /// The family's statistics, in file order.
    const SCHEMA: Schema;

    /// The grid the statistics live on.
    fn grid(&self) -> Grid;

    /// All-zero statistics on `grid`: the histogram of no rectangles.
    fn zeroed(grid: Grid) -> Self;

    /// The dataset scalars, in [`Schema::scalars`] order.
    fn scalars(&self) -> Vec<u64>;

    /// The dataset scalars, writable, in [`Schema::scalars`] order.
    fn scalars_mut(&mut self) -> Vec<&mut u64>;

    /// The per-cell arrays, in [`Schema::arrays`] order.
    fn columns(&self) -> Vec<Column<'_>>;

    /// The per-cell arrays, writable, in [`Schema::arrays`] order.
    fn columns_mut(&mut self) -> Vec<ColumnMut<'_>>;
}

/// Declares a family's statistics once, in file order, and derives from
/// that list the family's [`Family`] impl plus its inherent `build`,
/// `build_parallel`, `grid`, `dataset_len`, `to_bytes`, `from_bytes` and
/// `size_bytes`. The struct must hold exactly `grid: Grid`, the listed
/// `u64` scalars (the first being the cardinality `n`) and the listed
/// arrays (`Vec<u32>` for `Count`, `Vec<Mass>` for `Mass`); a field of
/// the wrong type fails to compile. The macro also makes the family its
/// own dense [`Sink`]: each position resolves to its field, a constant
/// branch once inlined. The family also implements `RowBanded`, whose
/// `build_rows` is the only per-family build code.
macro_rules! histogram_family {
    (
        $ty:ident: $kind:ident, magic $magic:literal,
        scalars [$($scalar:ident),+ $(,)?],
        arrays [$($array:ident: $repr:ident @ $lattice:ident),+ $(,)?] $(,)?
    ) => {
        impl $crate::schema::Family for $ty {
            const SCHEMA: $crate::schema::Schema = $crate::schema::Schema {
                kind: $crate::HistogramKind::$kind,
                magic: $magic,
                scalars: &[$(stringify!($scalar)),+],
                arrays: &[$($crate::schema::Stat {
                    name: stringify!($array),
                    repr: $crate::schema::Repr::$repr,
                    lattice: $crate::schema::Lattice::$lattice,
                }),+],
            };

            fn grid(&self) -> $crate::Grid {
                self.grid
            }

            fn zeroed(grid: $crate::Grid) -> Self {
                Self {
                    grid,
                    $($scalar: 0,)+
                    $($array: vec![
                        Default::default();
                        $crate::schema::Lattice::$lattice.len(&grid)
                    ],)+
                }
            }

            fn scalars(&self) -> Vec<u64> {
                vec![$(self.$scalar),+]
            }

            fn scalars_mut(&mut self) -> Vec<&mut u64> {
                vec![$(&mut self.$scalar),+]
            }

            fn columns(&self) -> Vec<$crate::schema::Column<'_>> {
                vec![$($crate::schema::Column::$repr(&self.$array)),+]
            }

            fn columns_mut(&mut self) -> Vec<$crate::schema::ColumnMut<'_>> {
                vec![$($crate::schema::ColumnMut::$repr(&mut self.$array)),+]
            }
        }

        impl $crate::schema::Sink for $ty {
            #[inline]
            fn add_scalar(&mut self, k: usize, v: u64) {
                $(if k == const {
                    <$ty as $crate::schema::Family>::SCHEMA.scalar(stringify!($scalar))
                } {
                    self.$scalar += v;
                })+
            }

            #[inline]
            fn add_count(&mut self, array: usize, cell: usize) {
                $(if array == const {
                    <$ty as $crate::schema::Family>::SCHEMA.array(stringify!($array))
                } {
                    $crate::schema::DenseCells::add_count(&mut self.$array, cell);
                })+
            }

            #[inline]
            fn add_mass(&mut self, array: usize, cell: usize, v: $crate::mass::Mass) {
                $(if array == const {
                    <$ty as $crate::schema::Family>::SCHEMA.array(stringify!($array))
                } {
                    $crate::schema::DenseCells::add_mass(&mut self.$array, cell, v);
                })+
            }
        }

        impl $ty {
            /// Builds the histogram of `rects` on `grid`.
            #[must_use]
            pub fn build(grid: $crate::Grid, rects: &[sj_geo::Rect]) -> Self {
                Self::build_parallel(grid, rects, 1)
            }

            /// Builds like [`Self::build`] with grid rows banded across
            /// `threads` scoped worker threads and the band histograms
            /// merged; bit-identical to the serial build for every
            /// thread count (see the row-band driver in `band.rs`).
            #[must_use]
            pub fn build_parallel(
                grid: $crate::Grid,
                rects: &[sj_geo::Rect],
                threads: usize,
            ) -> Self {
                $crate::band::build_shard_merge(grid, rects, threads)
            }

            /// The grid the histogram was built on.
            #[must_use]
            pub fn grid(&self) -> $crate::Grid {
                self.grid
            }

            /// Cardinality of the summarized dataset.
            #[must_use]
            pub fn dataset_len(&self) -> usize {
                usize::try_from(self.n).unwrap_or(usize::MAX)
            }

            /// Serializes the histogram file (layout in `schema.rs`).
            #[must_use]
            pub fn to_bytes(&self) -> bytes::Bytes {
                $crate::schema::to_bytes(self)
            }

            /// Decodes a histogram file written by [`Self::to_bytes`].
            ///
            /// # Errors
            /// Returns [`HistogramError::Corrupt`](crate::HistogramError::Corrupt)
            /// on malformed input.
            pub fn from_bytes(data: &[u8]) -> Result<Self, $crate::HistogramError> {
                $crate::schema::from_bytes(data)
            }

            /// Size of the histogram file in bytes — the paper's space
            /// cost. It depends on the grid level only.
            #[must_use]
            pub fn size_bytes(&self) -> usize {
                <Self as $crate::schema::Family>::SCHEMA.size_bytes(&self.grid)
            }
        }
    };
}
pub(crate) use histogram_family;

/// Serializes a family's `.hist` payload into a fresh buffer
/// ([`encode_into`]).
pub(crate) fn to_bytes<H: Family>(h: &H) -> Bytes {
    let mut out = Vec::with_capacity(H::SCHEMA.size_bytes(&h.grid()));
    encode_into(h, &mut out);
    Bytes::from(out)
}

/// Appends a family's `.hist` payload to `out`: the header, the
/// scalars, then every declared array in file order, each entry one
/// fixed-width little-endian chunk, filled in place into space the
/// column takes up front.
pub(crate) fn encode_into<H: Family>(h: &H, out: &mut Vec<u8>) {
    let grid = h.grid();
    out.reserve(H::SCHEMA.size_bytes(&grid));
    out.put_u32_le(H::SCHEMA.magic);
    out.put_u32_le(grid.level());
    let e = grid.extent().rect();
    for v in [e.xlo, e.ylo, e.xhi, e.yhi] {
        out.put_f64_le(v);
    }
    for v in h.scalars() {
        out.put_u64_le(v);
    }
    for column in h.columns() {
        match column {
            Column::Count(values) => put_chunks(out, values, |v| v.to_le_bytes()),
            Column::Mass(values) => put_chunks(out, values, Mass::to_le_bytes),
        }
    }
}

/// Appends one `N`-byte chunk per value: the space is taken in one
/// step, then each chunk is written into it.
fn put_chunks<T: Copy, const N: usize>(out: &mut Vec<u8>, values: &[T], le: impl Fn(T) -> [u8; N]) {
    let start = out.len();
    out.resize(start + values.len() * N, 0);
    #[expect(
        clippy::indexing_slicing,
        reason = "start is the length before the resize, so out[start..] is the new tail"
    )]
    let (chunks, _) = out[start..].as_chunks_mut::<N>();
    for (dst, &v) in chunks.iter_mut().zip(values) {
        *dst = le(v);
    }
}

/// Decodes a family's `.hist` payload written by [`to_bytes`]. The
/// payload length is checked against the declared shape on the decoded
/// grid before any array is allocated.
pub(crate) fn from_bytes<H: Family>(mut data: &[u8]) -> Result<H, HistogramError> {
    let schema = &H::SCHEMA;
    let corrupt = |s: CorruptSection, m: &str| HistogramError::corrupt(s, m);
    if data.remaining() < schema.header_bytes() {
        return Err(corrupt(CorruptSection::Header, "truncated header"));
    }
    if data.get_u32_le() != schema.magic {
        return Err(corrupt(CorruptSection::Header, "bad magic"));
    }
    let level = data.get_u32_le();
    let coords = (
        data.get_f64_le(),
        data.get_f64_le(),
        data.get_f64_le(),
        data.get_f64_le(),
    );
    let grid = crate::grid::grid_from_header(level, coords)?;
    let scalars: Vec<u64> = schema.scalars.iter().map(|_| data.get_u64_le()).collect();
    if data.remaining() != schema.arrays_bytes(&grid) {
        return Err(corrupt(CorruptSection::Payload, "payload size mismatch"));
    }
    let mut h = H::zeroed(grid);
    for (slot, v) in h.scalars_mut().into_iter().zip(scalars) {
        *slot = v;
    }
    for column in h.columns_mut() {
        match column {
            ColumnMut::Count(values) => {
                for v in values {
                    *v = data.get_u32_le();
                }
            }
            ColumnMut::Mass(values) => {
                for v in values {
                    *v = Mass::get_le(&mut data);
                }
            }
        }
    }
    Ok(h)
}

/// Adds `from`'s statistics into `into`; both are one family on one
/// grid. Integer and fixed-point addition is exact, which is what makes
/// every shard-and-merge build bit-identical to the serial build.
pub(crate) fn merge_same_grid<H: Family>(into: &mut H, from: &H) {
    for (a, b) in into.scalars_mut().into_iter().zip(from.scalars()) {
        *a += b;
    }
    for (a, b) in into.columns_mut().into_iter().zip(from.columns()) {
        match (a, b) {
            (ColumnMut::Count(a), Column::Count(b)) => merge_add(a, b),
            (ColumnMut::Mass(a), Column::Mass(b)) => merge_add(a, b),
            // Both sides come from one declaration, so every position
            // has one representation.
            _ => {}
        }
    }
}

/// Element-wise `into += from`.
fn merge_add<T: Copy + AddAssign>(into: &mut [T], from: &[T]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a += *b;
    }
}
