//! Exact closed form for the uniform/uniform case — the paper's
//! "enhanced method" (Eq. 6 for IPQ, Eq. 8 + separability for IUQ).
//!
//! With a uniform issuer, the point-object qualification `Q(x, y)` of a
//! location `(x, y)` is `Area(R(x,y) ∩ U0) / Area(U0)`, and the area
//! factorises into two 1-D overlap profiles:
//! `Area(R(x,y) ∩ U0) = ox(x) · oy(y)`. With a uniform object pdf the
//! Eq. 8 integrand is constant times that product, so
//!
//! ```text
//! pi = (∫_{Dx} ox dx) · (∫_{Dy} oy dy) / (Area(U0) · Area(Ui))
//! ```
//!
//! where `D = Ui ∩ (R ⊕ U0)`. Both factors are exact integrals of
//! trapezoid functions (`iloc_geometry::OverlapProfile`); evaluation is
//! O(1), independent of region sizes — this is what Figure 8 measures
//! against the sampling baseline.

use iloc_geometry::{Interval, OverlapProfile, Rect};
use iloc_uncertainty::{Axis, LocationPdf};

use crate::query::RangeSpec;

/// One linear segment of a hoisted overlap profile, with the slope and
/// the `c0 + c1·x` coefficients precomputed once per query (the scalar
/// path recomputes them per candidate inside
/// `profile_against_marginal`).
///
/// Zero-width padding segments (`x0 == x1`) are valid and contribute
/// exactly `+0.0` to every integral, which lets [`AxisProfile`] hold a
/// fixed-shape `[HoistedSegment; 3]` the batch kernels iterate without
/// a length branch.
#[derive(Debug, Clone, Copy)]
pub struct HoistedSegment {
    /// Segment start knot.
    pub x0: f64,
    /// Segment end knot (`>= x0`).
    pub x1: f64,
    /// Profile value at `x0`.
    pub y0: f64,
    /// `(y1 − y0) / (x1 − x0)`, bit-identical to the scalar path's
    /// per-candidate recomputation.
    pub slope: f64,
    /// `y0 − slope·x0`: the constant of the `c0 + c1·x` form consumed
    /// by [`LocationPdf::linear_marginal_integral`].
    pub c0: f64,
}

/// One axis of a query's overlap profile in hoisted (SoA-friendly)
/// form: always exactly three segments — an [`OverlapProfile`] has at
/// most four knots — padded with zero-width segments so the batch
/// kernels run a fixed-trip-count inner loop.
#[derive(Debug, Clone, Copy)]
pub struct AxisProfile {
    /// The (padded) profile segments.
    pub segs: [HoistedSegment; 3],
    /// Support lower bound (first knot), `0.0` for a degenerate
    /// profile.
    pub sup_lo: f64,
    /// Support upper bound (last knot), `0.0` for a degenerate
    /// profile.
    pub sup_hi: f64,
}

impl AxisProfile {
    /// Hoists `OverlapProfile::new(w, side)` into fixed-shape segments.
    pub fn new(w: f64, side: Interval) -> Self {
        let profile = OverlapProfile::new(w, side);
        let knots = profile.knots();
        let (sup_lo, sup_hi) = if knots.len() < 2 {
            // Degenerate (w == 0 on a point side): the zero function.
            (0.0, 0.0)
        } else {
            (knots[0].0, knots[knots.len() - 1].0)
        };
        let pad = HoistedSegment {
            x0: sup_hi,
            x1: sup_hi,
            y0: 0.0,
            slope: 0.0,
            c0: 0.0,
        };
        let mut segs = [pad; 3];
        for (k, pair) in knots.windows(2).enumerate() {
            let (x0, y0) = pair[0];
            let (x1, y1) = pair[1];
            let slope = (y1 - y0) / (x1 - x0);
            segs[k] = HoistedSegment {
                x0,
                x1,
                y0,
                slope,
                c0: y0 - slope * x0,
            };
        }
        AxisProfile {
            segs,
            sup_lo,
            sup_hi,
        }
    }

    /// `∫_{[d_lo, d_hi]} profile(x) dx` for [`LANES`] clip intervals at
    /// once, each lane bit-identical to
    /// [`OverlapProfile::integral_over`] but branchless: empty or
    /// zero-length clips select `+0.0` instead of early-returning, and
    /// `x + 0.0` preserves every non-negative total exactly.
    #[inline(always)]
    fn integral_lanes(&self, d_lo: Lanes, d_hi: Lanes) -> Lanes {
        let i_lo = lanes(|l| max(d_lo[l], self.sup_lo));
        let i_hi = lanes(|l| min(d_hi[l], self.sup_hi));
        let mut total = [0.0; LANES];
        for s in &self.segs {
            for l in 0..LANES {
                let a = max(i_lo[l], s.x0);
                let b = min(i_hi[l], s.x1);
                let f_a = s.y0 + s.slope * (a - s.x0);
                let f_b = s.y0 + s.slope * (b - s.x0);
                let contrib = 0.5 * (f_a + f_b) * (b - a);
                total[l] += if b > a { contrib } else { 0.0 };
            }
        }
        total
    }
}

/// Per-query invariants of the closed-form IUQ refinement, computed
/// once per query instead of once per candidate: the issuer's overlap
/// profiles, its area, and the expanded query `R ⊕ U0`.
///
/// Built by the SoA refine path for any **uniform-issuer** query; the
/// batch kernels below consume it.
#[derive(Debug, Clone, Copy)]
pub struct UniformHeader {
    /// Overlap profile along x.
    pub ox: AxisProfile,
    /// Overlap profile along y.
    pub oy: AxisProfile,
    /// The Minkowski sum `R ⊕ U0`.
    pub expanded: Rect,
    /// `Area(U0)`.
    pub u0_area: f64,
    /// `Area(U0) == 0`: every probability is `0.0` and no profile is
    /// built (the scalar path returns before touching one).
    pub degenerate: bool,
}

impl UniformHeader {
    /// Precomputes the per-query invariants for issuer region `u0`.
    pub fn new(u0: Rect, range: RangeSpec, expanded: Rect) -> Self {
        let u0_area = u0.area();
        if u0_area == 0.0 {
            let zero = AxisProfile {
                segs: [HoistedSegment {
                    x0: 0.0,
                    x1: 0.0,
                    y0: 0.0,
                    slope: 0.0,
                    c0: 0.0,
                }; 3],
                sup_lo: 0.0,
                sup_hi: 0.0,
            };
            return UniformHeader {
                ox: zero,
                oy: zero,
                expanded,
                u0_area,
                degenerate: true,
            };
        }
        UniformHeader {
            ox: AxisProfile::new(range.w, u0.x_interval()),
            oy: AxisProfile::new(range.h, u0.y_interval()),
            expanded,
            u0_area,
            degenerate: false,
        }
    }
}

/// Objects per step of [`uniform_uniform_batch`]: the kernel's
/// arithmetic runs on `[f64; LANES]` values, one lane per object, which
/// the compiler turns into packed instructions (two SSE2 registers per
/// value on the x86-64 baseline).
const LANES: usize = 4;

/// One value per object of a [`LANES`]-object step.
type Lanes = [f64; LANES];

/// `f` applied lane by lane.
#[inline(always)]
fn lanes(f: impl FnMut(usize) -> f64) -> Lanes {
    std::array::from_fn(f)
}

/// `a > b ? a : b` — [`f64::max`] for the non-NaN operands the closed
/// form sees, in the one-instruction shape packed hardware offers.
#[inline(always)]
fn max(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// `a < b ? a : b`, the twin of [`max`].
#[inline(always)]
fn min(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// [`LANES`] candidates of the batched uniform/uniform closed form —
/// [`uniform_uniform`] restructured as straight-line selects over the
/// hoisted [`UniformHeader`], every lane the scalar path's operations
/// in the scalar path's order, so results are bit-identical to it (the
/// `hoisted_kernels_match_scalar_bit_for_bit` test).
///
/// The object area is re-derived from the corners: for the valid
/// (`max >= min`) regions a candidate carries, `(hi−lo)·(hi−lo)` is the
/// exact arithmetic of [`Rect::area`], and a zero-extent region lands
/// in the same `area != 0.0 → 0.0` select either way.
#[inline(always)]
fn uniform_lanes(h: &UniformHeader, rects: &[[f64; 4]; LANES]) -> Lanes {
    // Transpose the packed corner quadruples to one value per corner.
    let lo_x = lanes(|l| rects[l][0]);
    let lo_y = lanes(|l| rects[l][1]);
    let hi_x = lanes(|l| rects[l][2]);
    let hi_y = lanes(|l| rects[l][3]);
    let area = lanes(|l| (hi_x[l] - lo_x[l]) * (hi_y[l] - lo_y[l]));
    // Mirrors `ui.intersect(expanded)` (lo.max, hi.min per axis).
    let d_lo_x = lanes(|l| max(lo_x[l], h.expanded.min.x));
    let d_hi_x = lanes(|l| min(hi_x[l], h.expanded.max.x));
    let d_lo_y = lanes(|l| max(lo_y[l], h.expanded.min.y));
    let d_hi_y = lanes(|l| min(hi_y[l], h.expanded.max.y));
    let ix = h.ox.integral_lanes(d_lo_x, d_hi_x);
    let iy = h.oy.integral_lanes(d_lo_y, d_hi_y);
    let v = lanes(|l| (ix[l] * iy[l]) / (h.u0_area * area[l]));
    // `v.clamp(0.0, 1.0)`, then the select that replaces the scalar
    // early return: an empty domain or zero-area object is exactly 0.0
    // (the 0/0 NaN in `v` falls through the clamp and is dropped here).
    let clamped = lanes(|l| min(max(v[l], 0.0), 1.0));
    lanes(|l| {
        let keep = (d_hi_x[l] >= d_lo_x[l]) & (d_hi_y[l] >= d_lo_y[l]) & (area[l] != 0.0);
        if keep {
            clamped[l]
        } else {
            0.0
        }
    })
}

/// Batched uniform/uniform closed form over a packed candidate lane —
/// one `[lo_x, lo_y, hi_x, hi_y]` corner quadruple per object region:
/// `out[k] = uniform_uniform(u0, ui_k, range, expanded)` bit for bit,
/// with all per-query work hoisted into the header.
///
/// The packed (AoS) layout is deliberate: the gather loop that feeds
/// this kernel is bound by random object-table reads, and a single
/// 32-byte push per candidate keeps it short enough to overlap those
/// misses. The kernel transposes `LANES` quadruples at a time and
/// evaluates them as fixed-size lane arrays; a ragged tail is padded
/// with zero rectangles whose results are dropped.
pub fn uniform_uniform_batch(h: &UniformHeader, rects: &[[f64; 4]], out: &mut [f64]) {
    assert_eq!(
        rects.len(),
        out.len(),
        "one output per uniform candidate rect"
    );
    if h.degenerate {
        out.fill(0.0);
        return;
    }
    let (rect_steps, rect_tail) = rects.as_chunks::<LANES>();
    let (out_steps, out_tail) = out.as_chunks_mut::<LANES>();
    for (pi, ui) in out_steps.iter_mut().zip(rect_steps) {
        *pi = uniform_lanes(h, ui);
    }
    if !rect_tail.is_empty() {
        let mut padded = [[0.0; 4]; LANES];
        padded[..rect_tail.len()].copy_from_slice(rect_tail);
        out_tail.copy_from_slice(&uniform_lanes(h, &padded)[..rect_tail.len()]);
    }
}

/// [`uniform_separable`] with the per-query profile construction
/// hoisted into a [`UniformHeader`]: same arithmetic, bit-identical
/// results, one profile build per query instead of one per candidate.
pub fn uniform_separable_hoisted<P: LocationPdf + ?Sized>(
    h: &UniformHeader,
    object_pdf: &P,
) -> Option<f64> {
    if h.degenerate {
        return Some(0.0);
    }
    let domain = object_pdf.region().intersect(h.expanded);
    if domain.is_empty() {
        return Some(0.0);
    }
    let ix = hoisted_profile_marginal(object_pdf, Axis::X, &h.ox, domain.x_interval())?;
    let iy = hoisted_profile_marginal(object_pdf, Axis::Y, &h.oy, domain.y_interval())?;
    Some(((ix * iy) / h.u0_area).clamp(0.0, 1.0))
}

/// [`profile_against_marginal`] over hoisted segments: the `c0`/`c1`
/// coefficients come precomputed from the header; padding segments are
/// skipped by the existing zero-length clip test.
fn hoisted_profile_marginal<P: LocationPdf + ?Sized>(
    pdf: &P,
    axis: Axis,
    profile: &AxisProfile,
    i: Interval,
) -> Option<f64> {
    let mut acc = 0.0;
    for s in &profile.segs {
        let clip = Interval::new(s.x0, s.x1).intersect(i);
        if clip.is_empty() || clip.length() == 0.0 {
            continue;
        }
        acc += pdf.linear_marginal_integral(axis, clip, s.c0, s.slope)?;
    }
    Some(acc)
}

/// Exact IUQ qualification probability for a uniform issuer on `u0` and
/// a uniform object on `ui`; `expanded` is `R ⊕ U0`.
///
/// This is the innermost function of the zero-allocation hot path: the
/// overlap profiles live on the stack ([`OverlapProfile`]) and the
/// whole evaluation is branch-light straight-line arithmetic.
#[inline]
pub fn uniform_uniform(u0: Rect, ui: Rect, range: RangeSpec, expanded: Rect) -> f64 {
    let domain = ui.intersect(expanded);
    if domain.is_empty() || u0.area() == 0.0 || ui.area() == 0.0 {
        return 0.0;
    }
    let ox = OverlapProfile::new(range.w, u0.x_interval());
    let oy = OverlapProfile::new(range.h, u0.y_interval());
    let ix = ox.integral_over(domain.x_interval());
    let iy = oy.integral_over(domain.y_interval());
    ((ix * iy) / (u0.area() * ui.area())).clamp(0.0, 1.0)
}

/// Exact IUQ probability for a uniform issuer and **any axis-separable
/// object pdf** (one providing
/// [`linear_marginal_integral`](LocationPdf::linear_marginal_integral),
/// e.g. the truncated Gaussian the paper evaluates by Monte-Carlo).
///
/// Extends Eq. 8's separability beyond the uniform/uniform case:
/// `pi = (∫ fx·ox)(∫ fy·oy)/Area(U0)`, where each factor integrates a
/// piecewise-*linear* overlap profile against the object's marginal —
/// exact segment by segment. Returns `None` when the object pdf does
/// not expose closed-form marginals.
///
/// Generic over the pdf type so calls with a concrete pdf (from the
/// `PdfKind` dispatch) monomorphise and inline; `&dyn LocationPdf`
/// still works.
pub fn uniform_separable<P: LocationPdf + ?Sized>(
    u0: Rect,
    object_pdf: &P,
    range: RangeSpec,
    expanded: Rect,
) -> Option<f64> {
    if u0.area() == 0.0 {
        return Some(0.0);
    }
    let domain = object_pdf.region().intersect(expanded);
    if domain.is_empty() {
        return Some(0.0);
    }
    let ox = OverlapProfile::new(range.w, u0.x_interval());
    let oy = OverlapProfile::new(range.h, u0.y_interval());
    let ix = profile_against_marginal(object_pdf, Axis::X, &ox, domain.x_interval())?;
    let iy = profile_against_marginal(object_pdf, Axis::Y, &oy, domain.y_interval())?;
    Some(((ix * iy) / u0.area()).clamp(0.0, 1.0))
}

/// `∫_I profile(x) dF_axis(x)`, exact per linear segment.
fn profile_against_marginal<P: LocationPdf + ?Sized>(
    pdf: &P,
    axis: Axis,
    profile: &OverlapProfile,
    i: Interval,
) -> Option<f64> {
    let mut acc = 0.0;
    for seg in profile.knots().windows(2) {
        let (x0, y0) = seg[0];
        let (x1, y1) = seg[1];
        let clip = Interval::new(x0, x1).intersect(i);
        if clip.is_empty() || clip.length() == 0.0 {
            continue;
        }
        // On [x0, x1]: profile(x) = y0 + slope·(x − x0) = c0 + c1·x.
        let slope = (y1 - y0) / (x1 - x0);
        let c1 = slope;
        let c0 = y0 - slope * x0;
        acc += pdf.linear_marginal_integral(axis, clip, c0, c1)?;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc_geometry::minkowski::expand_query;
    use iloc_geometry::Point;

    impl AxisProfile {
        /// One lane of [`AxisProfile::integral_lanes`], spelled with
        /// the std `max`/`min` the scalar path uses.
        fn integral(&self, d_lo: f64, d_hi: f64) -> f64 {
            let i_lo = d_lo.max(self.sup_lo);
            let i_hi = d_hi.min(self.sup_hi);
            let mut total = 0.0;
            for s in &self.segs {
                let a = i_lo.max(s.x0);
                let b = i_hi.min(s.x1);
                let f_a = s.y0 + s.slope * (a - s.x0);
                let f_b = s.y0 + s.slope * (b - s.x0);
                let contrib = 0.5 * (f_a + f_b) * (b - a);
                total += if b > a { contrib } else { 0.0 };
            }
            total
        }
    }

    /// The scalar reference of the lane kernel: one candidate of
    /// [`uniform_lanes`] with std `max`/`min`/`clamp`.
    fn uniform_one(h: &UniformHeader, ui: &[f64; 4]) -> f64 {
        let [lo_x, lo_y, hi_x, hi_y] = *ui;
        let area = (hi_x - lo_x) * (hi_y - lo_y);
        let d_lo_x = lo_x.max(h.expanded.min.x);
        let d_hi_x = hi_x.min(h.expanded.max.x);
        let d_lo_y = lo_y.max(h.expanded.min.y);
        let d_hi_y = hi_y.min(h.expanded.max.y);
        let ix = h.ox.integral(d_lo_x, d_hi_x);
        let iy = h.oy.integral(d_lo_y, d_hi_y);
        let v = (ix * iy) / (h.u0_area * area);
        let nonempty = d_hi_x >= d_lo_x && d_hi_y >= d_lo_y;
        if nonempty && area != 0.0 {
            v.clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    fn expanded(u0: Rect, range: RangeSpec) -> Rect {
        expand_query(u0, range.w, range.h)
    }

    #[test]
    fn object_far_away_has_zero_probability() {
        let u0 = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let ui = Rect::from_coords(100.0, 100.0, 110.0, 110.0);
        let range = RangeSpec::square(5.0);
        assert_eq!(uniform_uniform(u0, ui, range, expanded(u0, range)), 0.0);
    }

    #[test]
    fn object_always_in_range_has_probability_one() {
        // Tiny U0 and Ui sitting on top of each other, huge range.
        let u0 = Rect::centered(Point::new(50.0, 50.0), 1.0, 1.0);
        let ui = Rect::centered(Point::new(50.0, 50.0), 1.0, 1.0);
        let range = RangeSpec::square(100.0);
        let p = uniform_uniform(u0, ui, range, expanded(u0, range));
        assert!((p - 1.0).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn coincident_unit_squares_quarter_overlap() {
        // U0 = Ui = unit square at origin, range half-size 0.5.
        // pi = E[Area(R(X) ∩ U0)] = ∫∫ ox·oy / (1·1); by symmetry
        // ∫_0^1 ox(x) dx with w=0.5 over side [0,1]: trapezoid of
        // support [-0.5,1.5], plateau 1 on [0.5,0.5]… plateau height
        // min(2w, 1) = 1 at the single point x=0.5; ∫_0^1 = 0.75.
        // pi = 0.75² = 0.5625.
        let u0 = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let ui = u0;
        let range = RangeSpec::square(0.5);
        let p = uniform_uniform(u0, ui, range, expanded(u0, range));
        assert!((p - 0.5625).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn matches_monte_carlo_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let u0 = Rect::from_coords(0.0, 0.0, 40.0, 20.0);
        let ui = Rect::from_coords(30.0, 10.0, 90.0, 50.0);
        let range = RangeSpec::new(15.0, 10.0);
        let p = uniform_uniform(u0, ui, range, expanded(u0, range));

        // Double Monte-Carlo on the definition (Eq. 4): sample issuer
        // and object positions, count range membership.
        let mut rng = StdRng::seed_from_u64(17);
        const N: usize = 400_000;
        let mut hits = 0usize;
        for _ in 0..N {
            let q = Point::new(rng.gen_range(0.0..40.0), rng.gen_range(0.0..20.0));
            let o = Point::new(rng.gen_range(30.0..90.0), rng.gen_range(10.0..50.0));
            if (o.x - q.x).abs() <= range.w && (o.y - q.y).abs() <= range.h {
                hits += 1;
            }
        }
        let reference = hits as f64 / N as f64;
        assert!((p - reference).abs() < 5e-3, "closed {p} vs mc {reference}");
    }

    #[test]
    fn restricting_to_expanded_region_changes_nothing() {
        // Lemma 4: integrating over Ui ∩ (R ⊕ U0) instead of Ui is
        // lossless because Q vanishes outside. Equivalently, passing a
        // *larger* `expanded` must give the same result.
        let u0 = Rect::from_coords(0.0, 0.0, 20.0, 20.0);
        let ui = Rect::from_coords(25.0, 0.0, 60.0, 35.0);
        let range = RangeSpec::square(10.0);
        let tight = uniform_uniform(u0, ui, range, expanded(u0, range));
        let loose = uniform_uniform(
            u0,
            ui,
            range,
            Rect::from_coords(-1_000.0, -1_000.0, 1_000.0, 1_000.0),
        );
        assert!((tight - loose).abs() < 1e-12);
    }

    #[test]
    fn separable_matches_uniform_uniform() {
        use iloc_uncertainty::UniformPdf;
        let u0 = Rect::from_coords(0.0, 0.0, 30.0, 50.0);
        let ui = Rect::from_coords(20.0, 10.0, 80.0, 90.0);
        let range = RangeSpec::new(12.0, 18.0);
        let expanded = expanded(u0, range);
        let reference = uniform_uniform(u0, ui, range, expanded);
        let via_separable = uniform_separable(u0, &UniformPdf::new(ui), range, expanded)
            .expect("uniform is separable");
        assert!((reference - via_separable).abs() < 1e-12);
    }

    #[test]
    fn separable_gaussian_matches_quadrature() {
        use crate::stats::QueryStats;
        use iloc_uncertainty::TruncatedGaussianPdf;
        use iloc_uncertainty::UniformPdf;
        let u0 = Rect::from_coords(0.0, 0.0, 40.0, 40.0);
        let issuer = UniformPdf::new(u0);
        let range = RangeSpec::square(15.0);
        let expanded = expanded(u0, range);
        for ui in [
            Rect::from_coords(30.0, 10.0, 90.0, 70.0), // partial overlap
            Rect::from_coords(-10.0, -10.0, 50.0, 50.0), // covers U0
            Rect::from_coords(52.0, 52.0, 100.0, 100.0), // corner graze
        ] {
            let object = TruncatedGaussianPdf::paper_default(ui);
            let exact =
                uniform_separable(u0, &object, range, expanded).expect("gaussian is separable");
            let mut stats = QueryStats::new();
            let approx = crate::integrate::grid::object_probability(
                &issuer, range, &object, expanded, 300, &mut stats,
            );
            assert!(
                (exact - approx).abs() < 2e-3,
                "ui={ui:?}: exact {exact} vs grid {approx}"
            );
        }
    }

    #[test]
    fn separable_returns_none_for_non_separable_pdfs() {
        use iloc_geometry::Point;
        use iloc_uncertainty::DiscPdf;
        let u0 = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let object = DiscPdf::new(Point::new(12.0, 5.0), 4.0);
        let range = RangeSpec::square(5.0);
        assert_eq!(
            uniform_separable(u0, &object, range, expanded(u0, range)),
            None
        );
    }

    #[test]
    fn separable_gaussian_far_object_is_zero() {
        use iloc_uncertainty::TruncatedGaussianPdf;
        let u0 = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let object =
            TruncatedGaussianPdf::paper_default(Rect::from_coords(500.0, 500.0, 560.0, 560.0));
        let range = RangeSpec::square(5.0);
        assert_eq!(
            uniform_separable(u0, &object, range, expanded(u0, range)),
            Some(0.0)
        );
    }

    /// Candidate regions that reach every select of the kernel: inside
    /// the issuer, straddling `expanded`, outside it, grazing a corner,
    /// zero width, zero height, a point, and covering the issuer.
    fn kernel_candidates() -> [Rect; 8] {
        [
            Rect::from_coords(10.0, 5.0, 30.0, 15.0),
            Rect::from_coords(40.0, 20.0, 90.0, 60.0),
            Rect::from_coords(500.0, 500.0, 510.0, 510.0),
            Rect::from_coords(46.0, 25.5, 80.0, 60.0),
            Rect::from_coords(5.0, 5.0, 5.0, 9.0),
            Rect::from_coords(12.0, 7.0, 20.0, 7.0),
            Rect::from_coords(3.0, 3.0, 3.0, 3.0),
            Rect::from_coords(-20.0, -20.0, 60.0, 40.0),
        ]
    }

    #[test]
    fn hoisted_kernels_match_scalar_bit_for_bit() {
        // The batch kernel must reproduce `uniform_uniform` exactly —
        // including empty domains, zero-area objects, grazing touches
        // and the degenerate-issuer case — at every lane length: the
        // ragged tails 0..=9 and a long lane, each candidate visiting
        // every position of a step. `uniform_one` is the same formula
        // one candidate at a time. The hoisted separable path must
        // reproduce `uniform_separable`.
        use iloc_uncertainty::TruncatedGaussianPdf;
        let range = RangeSpec::new(9.0, 4.5);
        let candidates = kernel_candidates();
        for u0 in [
            Rect::from_coords(0.0, 0.0, 37.0, 21.0),
            Rect::from_coords(5.0, 5.0, 5.0, 9.0), // degenerate issuer
        ] {
            let e = expanded(Rect::from_coords(0.0, 0.0, 37.0, 21.0), range);
            let header = UniformHeader::new(u0, range, e);
            // A zero-area issuer builds no profile: the scalar path
            // returns 0.0 before touching one, the kernel fills zeros.
            assert_eq!(header.degenerate, u0.area() == 0.0);
            for n in (0..=9).chain([4_096]) {
                for shift in 0..candidates.len().min(n.max(1)) {
                    let lane: Vec<Rect> = (0..n)
                        .map(|k| candidates[(k + shift) % candidates.len()])
                        .collect();
                    let rects: Vec<[f64; 4]> = lane
                        .iter()
                        .map(|r| [r.min.x, r.min.y, r.max.x, r.max.y])
                        .collect();
                    let mut out = vec![f64::NAN; n];
                    uniform_uniform_batch(&header, &rects, &mut out);
                    for (k, ui) in lane.iter().enumerate() {
                        let scalar = uniform_uniform(u0, *ui, range, e);
                        assert_eq!(
                            out[k].to_bits(),
                            scalar.to_bits(),
                            "n {n}, candidate {k}: batch {} vs scalar {scalar}",
                            out[k]
                        );
                        if !header.degenerate {
                            assert_eq!(uniform_one(&header, &rects[k]).to_bits(), scalar.to_bits());
                        }
                    }
                }
            }
        }
        let u0 = Rect::from_coords(0.0, 0.0, 37.0, 21.0);
        let e = expanded(u0, range);
        let header = UniformHeader::new(u0, range, e);
        for ui in [
            Rect::from_coords(10.0, 5.0, 30.0, 15.0),
            Rect::from_coords(44.0, 20.0, 90.0, 60.0),
            Rect::from_coords(500.0, 500.0, 560.0, 560.0),
        ] {
            let g = TruncatedGaussianPdf::paper_default(ui);
            let scalar = uniform_separable(u0, &g, range, e).unwrap();
            let hoisted = uniform_separable_hoisted(&header, &g).unwrap();
            assert_eq!(hoisted.to_bits(), scalar.to_bits(), "gaussian on {ui:?}");
        }
    }

    #[test]
    fn probability_monotone_in_range_size() {
        let u0 = Rect::from_coords(0.0, 0.0, 20.0, 20.0);
        let ui = Rect::from_coords(30.0, 30.0, 50.0, 50.0);
        let mut prev = 0.0;
        for k in 1..=10 {
            let range = RangeSpec::square(5.0 * k as f64);
            let p = uniform_uniform(u0, ui, range, expanded(u0, range));
            assert!(p >= prev - 1e-12, "not monotone at k={k}");
            prev = p;
        }
        assert!(prev > 0.99, "large range should almost surely contain Ui");
    }
}
