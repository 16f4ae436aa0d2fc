//! Converters from raw geometry to the database object types.

use iloc_geometry::{Point, Rect};
use iloc_uncertainty::{PointObject, TruncatedGaussianPdf, UncertainObject, UniformPdf};

/// Wraps raw points as [`PointObject`]s with sequential ids.
pub fn point_objects(points: &[Point]) -> Vec<PointObject> {
    points
        .iter()
        .enumerate()
        .map(|(k, &p)| PointObject::new(k as u64, p))
        .collect()
}

/// Wraps rectangles as uniform-pdf [`UncertainObject`]s (the paper's
/// default model) with sequential ids. Their U-catalogs are computed
/// by the engine that takes them in.
pub fn uniform_objects(regions: &[Rect]) -> Vec<UncertainObject> {
    regions
        .iter()
        .enumerate()
        .map(|(k, &r)| UncertainObject::new(k as u64, UniformPdf::new(r)))
        .collect()
}

/// Wraps rectangles as truncated-Gaussian [`UncertainObject`]s with the
/// paper's Figure-13 parameterisation (mean at centre, σ = extent/6).
pub fn gaussian_objects(regions: &[Rect]) -> Vec<UncertainObject> {
    regions
        .iter()
        .enumerate()
        .map(|(k, &r)| UncertainObject::new(k as u64, TruncatedGaussianPdf::paper_default(r)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc_uncertainty::ObjectId;

    #[test]
    fn point_objects_keep_order_and_ids() {
        let pts = vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)];
        let objs = point_objects(&pts);
        assert_eq!(objs.len(), 2);
        assert_eq!(objs[1].id, ObjectId(1));
        assert_eq!(objs[1].loc, Point::new(3.0, 4.0));
    }

    #[test]
    fn uniform_objects_preserve_regions() {
        let rs = vec![Rect::from_coords(0.0, 0.0, 2.0, 2.0)];
        let objs = uniform_objects(&rs);
        assert_eq!(objs[0].region(), rs[0]);
        assert_eq!(objs[0].catalog().len(), 6);
    }

    #[test]
    fn gaussian_objects_have_tighter_pbounds() {
        let rs = vec![Rect::from_coords(0.0, 0.0, 60.0, 60.0)];
        let gauss = gaussian_objects(&rs);
        let unif = uniform_objects(&rs);
        // The 0.3 level: the fourth of the default six.
        let bg = gauss[0].catalog().bounds()[3];
        let bu = unif[0].catalog().bounds()[3];
        assert_eq!((bg.p, bu.p), (0.3, 0.3));
        let (bg, bu) = (bg.rect, bu.rect);
        assert!(bg.area() < bu.area());
    }
}
