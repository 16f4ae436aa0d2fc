//! Axis-parallel rectangles.
//!
//! Every spatial region in the paper — uncertainty regions `Ui`, range
//! queries `R(x, y)`, Minkowski sums, `p`-expanded queries, R-tree MBRs —
//! is an axis-parallel rectangle.

use crate::interval::Interval;
use crate::point::Point;

/// A closed axis-parallel rectangle `[min.x, max.x] × [min.y, max.y]`.
///
/// A rectangle with an empty side interval is *empty*; [`Rect::EMPTY`]
/// is the canonical empty value. Degenerate rectangles (zero width
/// and/or height) are valid: a point object is a degenerate rectangle,
/// which lets point and uncertain objects share index machinery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Canonical empty rectangle.
    pub const EMPTY: Rect = Rect {
        min: Point::new(f64::INFINITY, f64::INFINITY),
        max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
    };

    /// Creates a rectangle from opposite corners.
    #[inline]
    pub const fn new(min: Point, max: Point) -> Self {
        Rect { min, max }
    }

    /// Creates `[x0, x1] × [y0, y1]`.
    #[inline]
    pub const fn from_coords(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    /// Rectangle centred at `c` with half-width `w` and half-height `h`.
    ///
    /// This is the paper's range query `R(x, y)` with `c = (x, y)`.
    #[inline]
    pub fn centered(c: Point, w: f64, h: f64) -> Self {
        debug_assert!(w >= 0.0 && h >= 0.0, "half-extents must be non-negative");
        Rect::from_coords(c.x - w, c.y - h, c.x + w, c.y + h)
    }

    /// Degenerate rectangle covering exactly one point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Rect::new(p, p)
    }

    /// Rectangle from the product of two intervals.
    #[inline]
    pub fn from_intervals(x: Interval, y: Interval) -> Self {
        if x.is_empty() || y.is_empty() {
            return Rect::EMPTY;
        }
        Rect::from_coords(x.lo, y.lo, x.hi, y.hi)
    }

    /// Projection onto the x-axis.
    #[inline]
    pub fn x_interval(self) -> Interval {
        Interval::new(self.min.x, self.max.x)
    }

    /// Projection onto the y-axis.
    #[inline]
    pub fn y_interval(self) -> Interval {
        Interval::new(self.min.y, self.max.y)
    }

    /// `true` when the rectangle contains no points.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.x_interval().is_empty() || self.y_interval().is_empty()
    }

    /// Width (0 for empty rectangles).
    #[inline]
    pub fn width(self) -> f64 {
        self.x_interval().length()
    }

    /// Height (0 for empty rectangles).
    #[inline]
    pub fn height(self) -> f64 {
        self.y_interval().length()
    }

    /// Area (0 for empty or degenerate rectangles).
    #[inline]
    pub fn area(self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() * self.height()
        }
    }

    /// Half of the perimeter; the classic R-tree split heuristic metric.
    #[inline]
    pub fn half_perimeter(self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() + self.height()
        }
    }

    /// Centre point.
    #[inline]
    pub fn center(self) -> Point {
        Point::new(self.x_interval().center(), self.y_interval().center())
    }

    /// `true` when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains_point(self, p: Point) -> bool {
        self.x_interval().contains(p.x) && self.y_interval().contains(p.y)
    }

    /// `true` when `other ⊆ self`.
    #[inline]
    pub fn contains_rect(self, other: Rect) -> bool {
        other.is_empty()
            || (self.x_interval().contains_interval(other.x_interval())
                && self.y_interval().contains_interval(other.y_interval()))
    }

    /// `true` when the two rectangles share at least one point
    /// (touching boundaries count as overlap, matching the paper's
    /// closed-region semantics).
    #[inline]
    pub fn overlaps(self, other: Rect) -> bool {
        self.x_interval().overlaps(other.x_interval())
            && self.y_interval().overlaps(other.y_interval())
    }

    /// Intersection `self ∩ other` (possibly empty).
    #[inline]
    pub fn intersect(self, other: Rect) -> Rect {
        Rect::from_intervals(
            self.x_interval().intersect(other.x_interval()),
            self.y_interval().intersect(other.y_interval()),
        )
    }

    /// Area of the intersection; the numerator of the paper's Eq. 6.
    #[inline]
    pub fn intersection_area(self, other: Rect) -> f64 {
        self.intersect(other).area()
    }

    /// Smallest rectangle containing both operands (MBR union).
    #[inline]
    pub fn hull(self, other: Rect) -> Rect {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        Rect::from_intervals(
            self.x_interval().hull(other.x_interval()),
            self.y_interval().hull(other.y_interval()),
        )
    }

    /// Expands every side outward by `(dx, dy)` (shrinks when negative).
    #[inline]
    pub fn expand(self, dx: f64, dy: f64) -> Rect {
        if self.is_empty() {
            return Rect::EMPTY;
        }
        Rect::from_intervals(self.x_interval().expand(dx), self.y_interval().expand(dy))
    }

    /// Translates the rectangle by `(dx, dy)`.
    #[inline]
    pub fn translate(self, dx: f64, dy: f64) -> Rect {
        if self.is_empty() {
            return Rect::EMPTY;
        }
        Rect::new(self.min.translate(dx, dy), self.max.translate(dx, dy))
    }

    /// Increase in half-perimeter if `other` were merged into `self`;
    /// the R-tree `ChooseLeaf` metric.
    #[inline]
    pub fn enlargement(self, other: Rect) -> f64 {
        self.hull(other).half_perimeter() - self.half_perimeter()
    }

    /// Returns `true` when all four coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.min.is_finite() && self.max.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn centered_matches_paper_range_query() {
        // R centred at (10, 20) with half-width 2, half-height 3.
        let q = Rect::centered(Point::new(10.0, 20.0), 2.0, 3.0);
        assert_eq!(q, r(8.0, 17.0, 12.0, 23.0));
        assert_eq!(q.center(), Point::new(10.0, 20.0));
    }

    #[test]
    fn area_and_perimeter() {
        let a = r(0.0, 0.0, 4.0, 3.0);
        assert_eq!(a.area(), 12.0);
        assert_eq!(a.half_perimeter(), 7.0);
        assert_eq!(Rect::EMPTY.area(), 0.0);
        assert_eq!(Rect::from_point(Point::new(1.0, 1.0)).area(), 0.0);
    }

    #[test]
    fn containment() {
        let outer = r(0.0, 0.0, 10.0, 10.0);
        assert!(outer.contains_point(Point::new(0.0, 10.0)));
        assert!(!outer.contains_point(Point::new(10.1, 5.0)));
        assert!(outer.contains_rect(r(1.0, 1.0, 9.0, 9.0)));
        assert!(outer.contains_rect(outer));
        assert!(outer.contains_rect(Rect::EMPTY));
        assert!(!outer.contains_rect(r(-1.0, 0.0, 5.0, 5.0)));
    }

    #[test]
    fn intersection_area_overlapping() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        let b = r(2.0, 2.0, 6.0, 6.0);
        assert!(a.overlaps(b));
        assert_eq!(a.intersect(b), r(2.0, 2.0, 4.0, 4.0));
        assert_eq!(a.intersection_area(b), 4.0);
    }

    #[test]
    fn intersection_disjoint_is_empty() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, 2.0, 3.0, 3.0);
        assert!(!a.overlaps(b));
        assert!(a.intersect(b).is_empty());
        assert_eq!(a.intersection_area(b), 0.0);
    }

    #[test]
    fn touching_edges_overlap_with_zero_area() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 0.0, 2.0, 1.0);
        assert!(a.overlaps(b));
        assert_eq!(a.intersection_area(b), 0.0);
    }

    #[test]
    fn hull_is_mbr() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(3.0, 4.0, 5.0, 6.0);
        assert_eq!(a.hull(b), r(0.0, 0.0, 5.0, 6.0));
        assert_eq!(Rect::EMPTY.hull(a), a);
    }

    #[test]
    fn expand_shrink_translate() {
        let a = r(2.0, 2.0, 4.0, 6.0);
        assert_eq!(a.expand(1.0, 2.0), r(1.0, 0.0, 5.0, 8.0));
        assert!(a.expand(-2.0, 0.0).is_empty());
        assert_eq!(a.translate(1.0, -1.0), r(3.0, 1.0, 5.0, 5.0));
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        assert_eq!(a.enlargement(r(1.0, 1.0, 2.0, 2.0)), 0.0);
        assert!(a.enlargement(r(0.0, 0.0, 12.0, 10.0)) > 0.0);
    }
}
