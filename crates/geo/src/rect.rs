use crate::Point;
use serde::{Deserialize, Serialize};

/// An axis-parallel rectangle: the Minimum Bounding Rectangle (MBR) of a
/// spatial object.
///
/// Invariant: `xlo <= xhi` and `ylo <= yhi` (enforced by [`Rect::new`]).
/// Degenerate rectangles (`xlo == xhi` and/or `ylo == yhi`) are valid and
/// represent points or axis-parallel line segments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Left edge.
    pub xlo: f64,
    /// Bottom edge.
    pub ylo: f64,
    /// Right edge.
    pub xhi: f64,
    /// Top edge.
    pub yhi: f64,
}

/// A horizontal edge (top or bottom side) of an MBR: a segment
/// `[xlo, xhi]` at height `y`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HEdge {
    /// Left endpoint.
    pub xlo: f64,
    /// Right endpoint.
    pub xhi: f64,
    /// Height of the segment.
    pub y: f64,
}

/// A vertical edge (left or right side) of an MBR: a segment
/// `[ylo, yhi]` at abscissa `x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VEdge {
    /// Bottom endpoint.
    pub ylo: f64,
    /// Top endpoint.
    pub yhi: f64,
    /// Abscissa of the segment.
    pub x: f64,
}

impl Rect {
    /// Creates a rectangle from its corner coordinates, normalizing the
    /// ordering so the invariant holds regardless of argument order.
    #[must_use]
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Self {
            xlo: x0.min(x1),
            ylo: y0.min(y1),
            xhi: x0.max(x1),
            yhi: y0.max(y1),
        }
    }

    /// Creates a degenerate rectangle covering a single point.
    #[must_use]
    pub fn from_point(p: Point) -> Self {
        Self {
            xlo: p.x,
            ylo: p.y,
            xhi: p.x,
            yhi: p.y,
        }
    }

    /// Creates a rectangle from its center and full side lengths.
    #[must_use]
    pub fn centered(center: Point, width: f64, height: f64) -> Self {
        debug_assert!(width >= 0.0 && height >= 0.0);
        Self::new(
            center.x - width / 2.0,
            center.y - height / 2.0,
            center.x + width / 2.0,
            center.y + height / 2.0,
        )
    }

    /// The minimum bounding rectangle of a set of rectangles, or `None` for
    /// an empty iterator.
    pub fn mbr_of<I: IntoIterator<Item = Rect>>(rects: I) -> Option<Rect> {
        let mut it = rects.into_iter();
        let first = it.next()?;
        Some(it.fold(first, |acc, r| acc.union(&r)))
    }

    /// Width (`>= 0`).
    #[must_use]
    pub fn width(&self) -> f64 {
        self.xhi - self.xlo
    }

    /// Height (`>= 0`).
    #[must_use]
    pub fn height(&self) -> f64 {
        self.yhi - self.ylo
    }

    /// Area (`>= 0`; zero for degenerate rectangles).
    #[must_use]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    #[must_use]
    pub fn center(&self) -> Point {
        Point::new((self.xlo + self.xhi) / 2.0, (self.ylo + self.yhi) / 2.0)
    }

    /// `true` if the rectangle has zero width or zero height.
    #[must_use]
    pub fn is_degenerate(&self) -> bool {
        self.width() == 0.0 || self.height() == 0.0
    }

    /// `true` if all coordinates are finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.xlo.is_finite() && self.ylo.is_finite() && self.xhi.is_finite() && self.yhi.is_finite()
    }

    /// Closed-interval intersection test: touching rectangles intersect.
    ///
    /// This is the spatial join predicate for the filter step.
    #[must_use]
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.xlo <= other.xhi
            && other.xlo <= self.xhi
            && self.ylo <= other.yhi
            && other.ylo <= self.yhi
    }

    /// `true` if `other` lies entirely within `self` (closed containment).
    #[must_use]
    #[inline]
    pub fn contains(&self, other: &Rect) -> bool {
        self.xlo <= other.xlo
            && other.xhi <= self.xhi
            && self.ylo <= other.ylo
            && other.yhi <= self.yhi
    }

    /// `true` if the point lies within the closed rectangle.
    #[must_use]
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        self.xlo <= p.x && p.x <= self.xhi && self.ylo <= p.y && p.y <= self.yhi
    }

    /// The intersection rectangle, or `None` if the rectangles are disjoint.
    ///
    /// Touching rectangles produce a degenerate (zero-area) intersection.
    #[must_use]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            xlo: self.xlo.max(other.xlo),
            ylo: self.ylo.max(other.ylo),
            xhi: self.xhi.min(other.xhi),
            yhi: self.yhi.min(other.yhi),
        })
    }

    /// Area of the intersection, `0.0` when disjoint.
    #[must_use]
    pub fn intersection_area(&self, other: &Rect) -> f64 {
        let w = (self.xhi.min(other.xhi) - self.xlo.max(other.xlo)).max(0.0);
        let h = (self.yhi.min(other.yhi) - self.ylo.max(other.ylo)).max(0.0);
        w * h
    }

    /// The smallest rectangle covering both `self` and `other`.
    #[must_use]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            xlo: self.xlo.min(other.xlo),
            ylo: self.ylo.min(other.ylo),
            xhi: self.xhi.max(other.xhi),
            yhi: self.yhi.max(other.yhi),
        }
    }

    /// Area increase needed to enlarge `self` to cover `other`
    /// (the Guttman insertion heuristic).
    #[must_use]
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// The four corner points, in (lo,lo), (lo,hi), (hi,lo), (hi,hi) order.
    ///
    /// Degenerate rectangles return coincident corners — deliberately, so
    /// that the Geometric Histogram's intersection-point accounting stays
    /// unbiased for point data (every pairwise MBR intersection contributes
    /// exactly four corner/crossing points, coincident or not).
    #[must_use]
    pub fn corners(&self) -> [Point; 4] {
        [
            Point::new(self.xlo, self.ylo),
            Point::new(self.xlo, self.yhi),
            Point::new(self.xhi, self.ylo),
            Point::new(self.xhi, self.yhi),
        ]
    }

    /// The two horizontal edges (bottom, top).
    #[must_use]
    pub fn h_edges(&self) -> [HEdge; 2] {
        [
            HEdge {
                xlo: self.xlo,
                xhi: self.xhi,
                y: self.ylo,
            },
            HEdge {
                xlo: self.xlo,
                xhi: self.xhi,
                y: self.yhi,
            },
        ]
    }

    /// The two vertical edges (left, right).
    #[must_use]
    pub fn v_edges(&self) -> [VEdge; 2] {
        [
            VEdge {
                ylo: self.ylo,
                yhi: self.yhi,
                x: self.xlo,
            },
            VEdge {
                ylo: self.ylo,
                yhi: self.yhi,
                x: self.xhi,
            },
        ]
    }

    /// Translates the rectangle by `(dx, dy)`.
    #[must_use]
    pub fn translated(&self, dx: f64, dy: f64) -> Rect {
        Rect {
            xlo: self.xlo + dx,
            ylo: self.ylo + dy,
            xhi: self.xhi + dx,
            yhi: self.yhi + dy,
        }
    }

    /// Scales the rectangle about the origin by `(sx, sy)`.
    #[must_use]
    pub fn scaled(&self, sx: f64, sy: f64) -> Rect {
        Rect::new(self.xlo * sx, self.ylo * sy, self.xhi * sx, self.yhi * sy)
    }
}

impl HEdge {
    /// Length of the edge.
    #[must_use]
    pub fn len(&self) -> f64 {
        self.xhi - self.xlo
    }

    /// `true` for zero-length edges (point MBRs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0.0
    }

    /// `true` if any part of this segment lies within the closed rectangle.
    #[must_use]
    pub fn intersects_rect(&self, r: &Rect) -> bool {
        r.ylo <= self.y && self.y <= r.yhi && self.xlo <= r.xhi && r.xlo <= self.xhi
    }

    /// Length of the portion of this segment inside the closed rectangle
    /// (`0.0` when outside; degenerate overlap counts as `0.0` length but
    /// still *intersects*).
    #[must_use]
    pub fn clipped_len(&self, r: &Rect) -> f64 {
        if !(r.ylo <= self.y && self.y <= r.yhi) {
            return 0.0;
        }
        (self.xhi.min(r.xhi) - self.xlo.max(r.xlo)).max(0.0)
    }

    /// `true` if this horizontal segment crosses the vertical segment `v`
    /// (closed-interval test; touching endpoints count).
    #[must_use]
    pub fn crosses(&self, v: &VEdge) -> bool {
        self.xlo <= v.x && v.x <= self.xhi && v.ylo <= self.y && self.y <= v.yhi
    }
}

impl VEdge {
    /// Length of the edge.
    #[must_use]
    pub fn len(&self) -> f64 {
        self.yhi - self.ylo
    }

    /// `true` for zero-length edges (point MBRs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0.0
    }

    /// `true` if any part of this segment lies within the closed rectangle.
    #[must_use]
    pub fn intersects_rect(&self, r: &Rect) -> bool {
        r.xlo <= self.x && self.x <= r.xhi && self.ylo <= r.yhi && r.ylo <= self.yhi
    }

    /// Length of the portion of this segment inside the closed rectangle.
    #[must_use]
    pub fn clipped_len(&self, r: &Rect) -> f64 {
        if !(r.xlo <= self.x && self.x <= r.xhi) {
            return 0.0;
        }
        (self.yhi.min(r.yhi) - self.ylo.max(r.ylo)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(x0, y0, x1, y1)
    }

    #[test]
    fn new_normalizes_corner_order() {
        let a = r(3.0, 4.0, 1.0, 2.0);
        assert_eq!(
            a,
            Rect {
                xlo: 1.0,
                ylo: 2.0,
                xhi: 3.0,
                yhi: 4.0
            }
        );
    }

    #[test]
    fn basic_measures() {
        let a = r(1.0, 2.0, 4.0, 6.0);
        assert_eq!(a.width(), 3.0);
        assert_eq!(a.height(), 4.0);
        assert_eq!(a.area(), 12.0);
        assert_eq!(a.center(), Point::new(2.5, 4.0));
        assert!(!a.is_degenerate());
        assert!(Rect::from_point(Point::new(1.0, 1.0)).is_degenerate());
    }

    #[test]
    fn intersection_is_closed_touching_counts() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 0.0, 2.0, 1.0); // shares the x = 1 edge
        assert!(a.intersects(&b));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.area(), 0.0);
        assert!(i.is_degenerate());

        let c = r(1.0, 1.0, 2.0, 2.0); // shares only the corner (1,1)
        assert!(a.intersects(&c));
        assert_eq!(a.intersection_area(&c), 0.0);
    }

    #[test]
    fn disjoint_rectangles_do_not_intersect() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.1, 0.0, 2.0, 1.0);
        assert!(!a.intersects(&b));
        assert!(a.intersection(&b).is_none());
        assert_eq!(a.intersection_area(&b), 0.0);
    }

    #[test]
    fn containment() {
        let outer = r(0.0, 0.0, 10.0, 10.0);
        let inner = r(2.0, 2.0, 3.0, 3.0);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(outer.contains(&outer), "containment is reflexive (closed)");
        assert!(
            outer.contains_point(&Point::new(0.0, 0.0)),
            "boundary points contained"
        );
        assert!(!outer.contains_point(&Point::new(-0.1, 5.0)));
    }

    #[test]
    fn union_and_enlargement() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, 2.0, 3.0, 3.0);
        let u = a.union(&b);
        assert_eq!(u, r(0.0, 0.0, 3.0, 3.0));
        assert!(approx_eq(a.enlargement(&b), 9.0 - 1.0));
        assert_eq!(a.enlargement(&a), 0.0);
    }

    #[test]
    fn mbr_of_collection() {
        assert!(Rect::mbr_of(std::iter::empty()).is_none());
        let m = Rect::mbr_of(vec![r(0.0, 0.0, 1.0, 1.0), r(-1.0, 2.0, 0.5, 3.0)]).unwrap();
        assert_eq!(m, r(-1.0, 0.0, 1.0, 3.0));
    }

    #[test]
    fn corners_and_edges_of_degenerate_rect() {
        let p = Rect::from_point(Point::new(2.0, 3.0));
        let cs = p.corners();
        assert!(
            cs.iter().all(|c| *c == Point::new(2.0, 3.0)),
            "4 coincident corners"
        );
        assert!(p.h_edges().iter().all(HEdge::is_empty));
        assert!(p.v_edges().iter().all(VEdge::is_empty));
    }

    #[test]
    fn edge_clipping() {
        let cell = r(0.0, 0.0, 1.0, 1.0);
        let h = HEdge {
            xlo: -0.5,
            xhi: 0.5,
            y: 0.25,
        };
        assert!(h.intersects_rect(&cell));
        assert!(approx_eq(h.clipped_len(&cell), 0.5));

        let h_outside = HEdge {
            xlo: -0.5,
            xhi: 0.5,
            y: 2.0,
        };
        assert!(!h_outside.intersects_rect(&cell));
        assert_eq!(h_outside.clipped_len(&cell), 0.0);

        let v = VEdge {
            ylo: 0.9,
            yhi: 3.0,
            x: 1.0,
        }; // on the right boundary
        assert!(v.intersects_rect(&cell));
        assert!(approx_eq(v.clipped_len(&cell), 0.1));
    }

    #[test]
    fn edge_crossing() {
        let h = HEdge {
            xlo: 0.0,
            xhi: 2.0,
            y: 1.0,
        };
        let v = VEdge {
            ylo: 0.0,
            yhi: 2.0,
            x: 1.0,
        };
        assert!(h.crosses(&v));
        let v_far = VEdge {
            ylo: 1.5,
            yhi: 2.0,
            x: 1.0,
        };
        assert!(!h.crosses(&v_far));
        // Touching at an endpoint counts (closed semantics).
        let v_touch = VEdge {
            ylo: 1.0,
            yhi: 2.0,
            x: 2.0,
        };
        assert!(h.crosses(&v_touch));
    }

    #[test]
    fn translate_scale() {
        let a = r(1.0, 1.0, 2.0, 3.0);
        assert_eq!(a.translated(1.0, -1.0), r(2.0, 0.0, 3.0, 2.0));
        assert_eq!(a.scaled(2.0, 0.5), r(2.0, 0.5, 4.0, 1.5));
    }

    /// The number of "intersection points" between two intersecting MBRs is
    /// always exactly 4 = (corners of a in b) + (corners of b in a) +
    /// (h-edge of a × v-edge of b crossings) + (h-edge of b × v-edge of a
    /// crossings), for rectangles in *general position* (no shared
    /// coordinates). This is the identity underlying the Geometric
    /// Histogram (paper Figure 2).
    fn intersection_points(a: &Rect, b: &Rect) -> usize {
        let corners_in =
            |r1: &Rect, r2: &Rect| r1.corners().iter().filter(|c| r2.contains_point(c)).count();
        let crossings = |r1: &Rect, r2: &Rect| {
            r1.h_edges()
                .iter()
                .map(|h| r2.v_edges().iter().filter(|v| h.crosses(v)).count())
                .sum::<usize>()
        };
        corners_in(a, b) + corners_in(b, a) + crossings(a, b) + crossings(b, a)
    }

    proptest! {
        #[test]
        fn prop_intersection_commutes(
            (ax0, ay0, ax1, ay1) in (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
            (bx0, by0, bx1, by1) in (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
        ) {
            let a = Rect::new(ax0, ay0, ax1, ay1);
            let b = Rect::new(bx0, by0, bx1, by1);
            prop_assert_eq!(a.intersects(&b), b.intersects(&a));
            prop_assert_eq!(a.intersection(&b), b.intersection(&a));
            prop_assert!(approx_eq(a.intersection_area(&b), b.intersection_area(&a)));
        }

        #[test]
        fn prop_intersection_contained_in_both(
            (ax0, ay0, ax1, ay1) in (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
            (bx0, by0, bx1, by1) in (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
        ) {
            let a = Rect::new(ax0, ay0, ax1, ay1);
            let b = Rect::new(bx0, by0, bx1, by1);
            if let Some(i) = a.intersection(&b) {
                prop_assert!(a.contains(&i));
                prop_assert!(b.contains(&i));
                prop_assert!(approx_eq(i.area(), a.intersection_area(&b)));
            }
        }

        #[test]
        fn prop_union_contains_both(
            (ax0, ay0, ax1, ay1) in (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
            (bx0, by0, bx1, by1) in (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
        ) {
            let a = Rect::new(ax0, ay0, ax1, ay1);
            let b = Rect::new(bx0, by0, bx1, by1);
            let u = a.union(&b);
            prop_assert!(u.contains(&a));
            prop_assert!(u.contains(&b));
            prop_assert!(u.area() + 1e-12 >= a.area().max(b.area()));
        }

        /// The Geometric Histogram identity: intersecting MBRs in general
        /// position have exactly 4 intersection points; disjoint MBRs 0.
        #[test]
        fn prop_four_intersection_points(
            // Distinct, irregular coordinates make general position
            // overwhelmingly likely; we skip the measure-zero exceptions.
            xs in proptest::collection::vec(0.0..1.0f64, 4),
            ys in proptest::collection::vec(0.0..1.0f64, 4),
        ) {
            let distinct = |v: &[f64]| {
                let mut s = v.to_vec();
                s.sort_by(f64::total_cmp);
                s.windows(2).all(|w| w[0] != w[1])
            };
            prop_assume!(distinct(&xs) && distinct(&ys));
            let a = Rect::new(xs[0], ys[0], xs[1], ys[1]);
            let b = Rect::new(xs[2], ys[2], xs[3], ys[3]);
            let expected = if a.intersects(&b) { 4 } else { 0 };
            prop_assert_eq!(intersection_points(&a, &b), expected);
        }
    }
}
