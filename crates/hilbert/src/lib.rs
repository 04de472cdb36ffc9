//! Hilbert space-filling curve.
//!
//! The paper uses Hilbert values in two places:
//!
//! * **Sorted Sampling (SS)** sorts the input dataset by the Hilbert value
//!   of each MBR's center before taking every k-th element (Section 2).
//! * **Packed R-trees** in the style of Kamel & Faloutsos ("On Packing
//!   R-trees", CIKM 1993) bulk-load leaves in Hilbert order; the paper's
//!   reference \[15\] underlies both SS and the analytical model extended by
//!   the PH scheme.
//!
//! The implementation is the classic iterative rotate/reflect conversion
//! between the distance along the curve `d` and cell coordinates `(x, y)`
//! on a `2^order × 2^order` grid.

use sj_geo::{Extent, Point, Rect};

/// Default curve order used for Hilbert keys: a 2^16 × 2^16 grid resolves
/// ~65k distinct positions per axis, far below f64 noise for our extents.
pub const DEFAULT_ORDER: u32 = 16;

/// Converts grid coordinates `(x, y)` on a `2^order` grid to the distance
/// along the Hilbert curve.
///
/// # Panics
/// Panics if `x` or `y` does not fit in `order` bits, or if `order > 31`.
#[must_use]
pub fn xy_to_d(order: u32, mut x: u32, mut y: u32) -> u64 {
    assert!(order <= 31, "order must be <= 31");
    let n: u32 = 1 << order;
    assert!(x < n && y < n, "coordinates must fit the grid");
    let mut d: u64 = 0;
    let mut s: u32 = n / 2;
    while s > 0 {
        let rx = u32::from((x & s) > 0);
        let ry = u32::from((y & s) > 0);
        d += u64::from(s) * u64::from(s) * u64::from((3 * rx) ^ ry);
        // Rotate the quadrant (reflection is about the full grid).
        if ry == 0 {
            if rx == 1 {
                x = n - 1 - x;
                y = n - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Converts a distance along the Hilbert curve back to grid coordinates.
///
/// Inverse of [`xy_to_d`].
#[must_use]
pub fn d_to_xy(order: u32, mut d: u64) -> (u32, u32) {
    assert!(order <= 31, "order must be <= 31");
    let n: u64 = 1 << order;
    assert!(d < n * n, "distance must fit the curve");
    let (mut x, mut y): (u64, u64) = (0, 0);
    let mut s: u64 = 1;
    while s < n {
        let rx = 1 & (d / 2);
        let ry = 1 & (d ^ rx);
        // Rotate.
        if ry == 0 {
            if rx == 1 {
                x = s - 1 - x;
                y = s - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += s * rx;
        y += s * ry;
        d /= 4;
        s *= 2;
    }
    (x as u32, y as u32)
}

/// Computes the Hilbert key of a point inside an extent at the given curve
/// order. Points outside the extent are clamped onto its boundary.
#[must_use]
pub fn point_key(order: u32, extent: &Extent, p: Point) -> u64 {
    let n = (1u64 << order) as f64;
    let u = extent.normalize(p);
    let clamp = |v: f64| (v.clamp(0.0, 1.0) * n).min(n - 1.0);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    xy_to_d(order, clamp(u.x).floor() as u32, clamp(u.y).floor() as u32)
}

/// Computes the Hilbert key of an MBR, keyed by its center point — the
/// convention of both the paper's Sorted Sampling and Hilbert R-tree
/// packing.
#[must_use]
pub fn rect_key(order: u32, extent: &Extent, r: &Rect) -> u64 {
    point_key(order, extent, r.center())
}

/// Sorts indices of `rects` by Hilbert key of their centers.
///
/// Returns a permutation: `perm[i]` is the index of the `i`-th rectangle in
/// Hilbert order. The sort is stable so equal keys preserve input order.
#[must_use]
pub fn sort_by_hilbert(order: u32, extent: &Extent, rects: &[Rect]) -> Vec<usize> {
    let keys: Vec<u64> = rects.iter().map(|r| rect_key(order, extent, r)).collect();
    let mut perm: Vec<usize> = (0..rects.len()).collect();
    perm.sort_by_key(|&i| keys[i]);
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn order_one_curve_matches_reference() {
        // The order-1 Hilbert curve visits (0,0), (0,1), (1,1), (1,0).
        assert_eq!(d_to_xy(1, 0), (0, 0));
        assert_eq!(d_to_xy(1, 1), (0, 1));
        assert_eq!(d_to_xy(1, 2), (1, 1));
        assert_eq!(d_to_xy(1, 3), (1, 0));
    }

    #[test]
    fn order_two_curve_is_a_valid_tour() {
        // Each consecutive pair of cells on the curve is 4-adjacent and the
        // curve visits every cell exactly once.
        let n = 4u32;
        let mut seen = vec![false; (n * n) as usize];
        let mut prev: Option<(u32, u32)> = None;
        for d in 0..u64::from(n * n) {
            let (x, y) = d_to_xy(2, d);
            let idx = (y * n + x) as usize;
            assert!(!seen[idx], "cell visited twice");
            seen[idx] = true;
            if let Some((px, py)) = prev {
                let dist = px.abs_diff(x) + py.abs_diff(y);
                assert_eq!(dist, 1, "consecutive cells must be adjacent");
            }
            prev = Some((x, y));
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn point_key_clamps_out_of_extent() {
        let e = Extent::unit();
        // Outside the unit square: must not panic, must clamp.
        let k = point_key(4, &e, Point::new(2.0, -1.0));
        let corner = point_key(4, &e, Point::new(1.0, 0.0));
        assert_eq!(k, corner);
    }

    #[test]
    fn sort_by_hilbert_is_permutation() {
        let e = Extent::unit();
        let rects: Vec<Rect> = (0..32)
            .map(|i| {
                let t = f64::from(i) / 32.0;
                Rect::centered(Point::new(t, (t * 7.0).fract()), 0.01, 0.01)
            })
            .collect();
        let perm = sort_by_hilbert(DEFAULT_ORDER, &e, &rects);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        // Keys must be non-decreasing along the permutation.
        let keys: Vec<u64> = perm
            .iter()
            .map(|&i| rect_key(DEFAULT_ORDER, &e, &rects[i]))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(order in 1u32..12, x in 0u32..4096, y in 0u32..4096) {
            let n = 1u32 << order;
            let (x, y) = (x % n, y % n);
            let d = xy_to_d(order, x, y);
            prop_assert_eq!(d_to_xy(order, d), (x, y));
        }

        #[test]
        fn prop_d_roundtrip(order in 1u32..10, d in 0u64..1_048_576) {
            let n = 1u64 << order;
            let d = d % (n * n);
            let (x, y) = d_to_xy(order, d);
            prop_assert_eq!(xy_to_d(order, x, y), d);
        }

        /// Locality: adjacent curve positions are adjacent grid cells.
        #[test]
        fn prop_unit_steps(order in 1u32..8, d in 0u64..16_384) {
            let n = 1u64 << order;
            let d = d % (n * n - 1);
            let (x0, y0) = d_to_xy(order, d);
            let (x1, y1) = d_to_xy(order, d + 1);
            prop_assert_eq!(x0.abs_diff(x1) + y0.abs_diff(y1), 1);
        }
    }
}
