//! Query–data duality (paper Section 4.2, Lemmas 2–4).
//!
//! **Lemma 2** (duality): point `Si` satisfies the range query centred
//! at `Sq` iff `Sq` satisfies the same-shaped query centred at `Si`.
//!
//! **Lemma 3**: therefore the IPQ probability of a point object is
//! `∫_{R(xi,yi) ∩ U0} f0` — one rectangle-mass lookup against the
//! *issuer's* pdf instead of an integral that re-forms a query at every
//! point of `U0`. For a uniform issuer this is the area ratio of
//! Eq. 6.
//!
//! **Lemma 4**: for uncertain objects, treating every point of `Ui` as
//! a dual point object gives
//! `pi = ∫_{Ui ∩ (R ⊕ U0)} fi(x,y) · Q(x,y) dx dy`, where the domain is
//! legitimately clipped to the expanded query because `Q` vanishes
//! outside it (Lemma 1).
//!
//! The engines evaluate both lemmas through [`crate::integrate::Integrator`]
//! (`point_probability` for Lemma 3, `object_probability` for Lemma 4),
//! with the dual rectangle [`RangeSpec::at`](crate::query::RangeSpec::at);
//! the tests here hold that arithmetic to the lemmas.

#[cfg(test)]
mod tests {
    use crate::integrate::Integrator;
    use crate::query::RangeSpec;
    use crate::stats::QueryStats;
    use iloc_geometry::minkowski::expand_query;
    use iloc_geometry::{Point, Rect};
    use iloc_uncertainty::{LocationPdf, PdfKind, UniformPdf};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Lemma 3 as the engines compute it.
    fn point_probability(issuer: &PdfKind, range: RangeSpec, loc: Point) -> f64 {
        Integrator::Auto.point_probability(issuer, range, loc, 0, &mut QueryStats::new())
    }

    #[test]
    fn lemma2_symmetry_on_random_pairs() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..10_000 {
            let a = Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
            let b = Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
            let range = RangeSpec::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..30.0));
            assert_eq!(
                range.at(a).contains_point(b),
                range.at(b).contains_point(a),
                "duality violated for {a} / {b}"
            );
        }
    }

    #[test]
    fn lemma3_equals_eq2_brute_force() {
        // Compare the one-lookup dual form with a dense evaluation of
        // the original Eq. 2 integral.
        let issuer = UniformPdf::new(Rect::from_coords(10.0, 10.0, 60.0, 40.0));
        let range = RangeSpec::new(12.0, 8.0);
        let loc = Point::new(65.0, 25.0);
        let dual = point_probability(&issuer.clone().into(), range, loc);

        let n = 600;
        let u0 = issuer.region();
        let (dx, dy) = (u0.width() / n as f64, u0.height() / n as f64);
        let mut acc = 0.0;
        for j in 0..n {
            for i in 0..n {
                let c = Point::new(
                    u0.min.x + (i as f64 + 0.5) * dx,
                    u0.min.y + (j as f64 + 0.5) * dy,
                );
                // Eq. 2: the query centred at the issuer's position c.
                if range.at(c).contains_point(loc) {
                    acc += issuer.density(c) * dx * dy;
                }
            }
        }
        assert!((dual - acc).abs() < 1e-3, "dual {dual} vs eq2 {acc}");
    }

    #[test]
    fn eq6_area_ratio_for_uniform_issuer() {
        // Eq. 6: pi = Area(R(xi,yi) ∩ U0) / Area(U0).
        let u0 = Rect::from_coords(0.0, 0.0, 20.0, 20.0);
        let issuer = UniformPdf::new(u0);
        let range = RangeSpec::square(10.0);
        let loc = Point::new(25.0, 10.0);
        let p = point_probability(&issuer.into(), range, loc);
        let expect = range.at(loc).intersection_area(u0) / u0.area();
        assert!((p - expect).abs() < 1e-12);
        // This particular geometry: R(loc) = [15,35]×[0,20] → overlap
        // 5×20 of 400 = 0.25.
        assert!((p - 0.25).abs() < 1e-12);
    }

    #[test]
    fn q_vanishes_outside_expanded_query() {
        // Lemma 4's Q(x, y) is Lemma 3 at the point (x, y).
        let issuer = UniformPdf::new(Rect::from_coords(0.0, 0.0, 10.0, 10.0));
        let range = RangeSpec::square(5.0);
        let expanded = expand_query(issuer.region(), range.w, range.h);
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..2_000 {
            let p = Point::new(rng.gen_range(-40.0..50.0), rng.gen_range(-40.0..50.0));
            if !expanded.contains_point(p) {
                assert_eq!(
                    issuer.prob_in_rect(range.at(p)),
                    0.0,
                    "Q must vanish outside R ⊕ U0 at {p}"
                );
            }
        }
    }
}
