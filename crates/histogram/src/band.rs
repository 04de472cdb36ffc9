//! Row-band work partitioning and the generic shard-and-merge build
//! driver shared by all four histogram families.
//!
//! All four histogram schemes accumulate per-cell statistics into
//! row-major arrays, and every contribution a rectangle makes lands in a
//! definite grid row (its corner rows, its cell-range rows, or the rows
//! its edges pass through). Splitting the grid rows into contiguous
//! *bands* — one per worker thread — therefore partitions the work with
//! no shared mutable state: each worker scans the full rectangle list in
//! order and applies only the contributions whose row falls in its band.
//! Scalar statistics (cardinality, span sums) are attributed to the band
//! owning the rectangle's bottom row, so the band builds partition *all*
//! statistics of the serial build.
//!
//! Because every per-cell statistic is accumulated exactly (integers, or
//! [`crate::mass::Mass`] fixed point), merging the band histograms with
//! the one declared-statistics merge (`schema.rs`) reproduces the serial build
//! *bit-for-bit* at every thread count — the serial build is just the
//! single-band case of the same code path. The same argument covers
//! rect-range sharding: exact addition is associative, so any partition
//! of the input rectangles merges to the identical histogram.
//!
//! A band writes through a [`Sink`]: the band histogram's own dense
//! arrays here, or the touched-cell accumulator a delta build uses
//! (`delta.rs`). Every lattice is row-major and a band only writes its
//! own rows, so a band's touched cells all sort after the previous
//! band's: the delta build concatenates its bands in row order.

#![warn(clippy::float_arithmetic)]

use crate::grid::Grid;
use crate::schema::{merge_same_grid, Family, Sink};
use sj_geo::Rect;

/// A histogram family buildable from a row-restricted accumulation pass.
/// Implemented by all four families — `build_rows` is the only build
/// code a family writes; [`build_shard_merge`] and the delta build are
/// its drivers.
pub(crate) trait RowBanded: Family + Sink + Send {
    /// Adds the statistics of `rects` on `grid` into `sink`, keeping
    /// only contributions landing in grid rows `lo..hi` and attributing
    /// per-rectangle scalar statistics (counts, span sums) to the band
    /// containing each rectangle's bottom row.
    fn build_rows(grid: Grid, rects: &[Rect], lo: u32, hi: u32, sink: &mut impl Sink);
}

/// The dense histogram of one band: a zeroed family binned into itself.
fn dense_rows<H: RowBanded>(grid: Grid, rects: &[Rect], lo: u32, hi: u32) -> H {
    let mut h = H::zeroed(grid);
    H::build_rows(grid, rects, lo, hi, &mut h);
    h
}

/// Builds a histogram by sharding the grid rows across `threads` band
/// workers and merging the band builds. Bit-identical to the serial
/// (single-band) build for every thread count.
pub(crate) fn build_shard_merge<H: RowBanded>(grid: Grid, rects: &[Rect], threads: usize) -> H {
    let bands = map_row_bands(grid.cells_per_axis(), threads, |lo, hi| {
        dense_rows::<H>(grid, rects, lo, hi)
    });
    let mut bands = bands.into_iter();
    // map_row_bands always yields at least one band; the fallback keeps
    // this path panic-free regardless.
    let mut acc = match bands.next() {
        Some(first) => first,
        None => dense_rows::<H>(grid, rects, 0, grid.cells_per_axis()),
    };
    for band in bands {
        merge_same_grid(&mut acc, &band);
    }
    acc
}

/// Runs `accumulate(row_lo, row_hi)` over contiguous half-open bands of
/// grid rows covering `0..rows`, one scoped worker thread per band, and
/// returns the band results in row order. `threads <= 1` runs a single
/// full-range band on the caller's thread.
pub(crate) fn map_row_bands<T, F>(rows: u32, threads: usize, accumulate: F) -> Vec<T>
where
    T: Send,
    F: Fn(u32, u32) -> T + Sync,
{
    let threads = threads.max(1).min(crate::grid::ix(rows.max(1)));
    if threads == 1 {
        return vec![accumulate(0, rows)];
    }
    // threads <= rows <= 2^MAX_LEVEL here, so the conversion is exact;
    // the saturating fallback keeps the math total anyway.
    let per_band = rows.div_ceil(u32::try_from(threads).unwrap_or(u32::MAX));
    let bounds: Vec<(u32, u32)> = (0..rows)
        .step_by(crate::grid::ix(per_band))
        .map(|lo| (lo, (lo + per_band).min(rows)))
        .collect();
    let accumulate = &accumulate;
    std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .into_iter()
            .map(|(lo, hi)| scope.spawn(move || accumulate(lo, hi)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_cover_all_rows_in_order() {
        for rows in [1u32, 2, 7, 8, 9, 64] {
            for threads in [1usize, 2, 3, 8, 100] {
                let bands = map_row_bands(rows, threads, |lo, hi| (lo, hi));
                assert_eq!(bands[0].0, 0, "rows={rows} threads={threads}");
                assert_eq!(bands.last().unwrap().1, rows);
                for pair in bands.windows(2) {
                    assert_eq!(pair[0].1, pair[1].0, "bands must be contiguous");
                }
                for &(lo, hi) in &bands {
                    assert!(lo < hi, "empty band rows={rows} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn serial_is_one_full_band() {
        let bands = map_row_bands(16, 1, |lo, hi| (lo, hi));
        assert_eq!(bands, vec![(0, 16)]);
    }
}
