//! The **Refine** stage: qualification-probability evaluation,
//! dispatched on the object type through [`CatalogObject`].
//!
//! A plan refines by one of the paper's two methods
//! ([`EvaluatorKind`]):
//!
//! * **duality** — the Section 4.2 enhanced method: Lemma 3 for point
//!   objects, Lemma 4 / Eq. 8 for uncertain objects, both computed
//!   through the context's [`crate::integrate::Integrator`] (closed
//!   form or Monte-Carlo);
//! * **basic** — the Section 3.3 baseline integrating over the issuer
//!   region (Eq. 2 / Eq. 4) on a midpoint grid.

use iloc_geometry::{Point, Rect};
use iloc_index::Pages;
use iloc_uncertainty::{LocationPdf, ObjectId, PdfKind, PointObject, UncertainObject};

use crate::eval::basic;
use crate::integrate::{closed, mc, Integrator};
use crate::stats::QueryStats;

use super::{ExecutionContext, PreparedQuery};

/// Reusable lane buffers for the SoA refine pass, held inside
/// [`super::QueryScratch`] so a warm context refines whole batches
/// without allocating.
///
/// The duality path gathers surviving candidates into two lanes
/// (uniform geometry as packed corner quadruples, every other
/// candidate as a position list); the basic path reuses `grid` for its
/// hoisted issuer-sample plan. Buffers are
/// cleared — never shrunk — between queries and carry no information
/// across them.
#[derive(Debug, Clone, Default)]
pub(crate) struct RefineLanes {
    /// Uniform-pdf lane: one `[lo_x, lo_y, hi_x, hi_y]` chunk per
    /// candidate. A single 32-byte push per gathered candidate (the
    /// batch kernels re-derive the area from the corners), which keeps
    /// the gather loop short enough for the out-of-order core to
    /// overlap the random object-table reads it is really paying for.
    uni: Vec<[f64; 4]>,
    /// Kernel output per uniform candidate (mixed batches only; a
    /// homogeneous batch writes straight into the caller's output).
    uni_out: Vec<f64>,
    /// Output positions of every non-uniform candidate, refined one by
    /// one.
    rest_pos: Vec<u32>,
    /// Hoisted midpoint-grid plan of the basic evaluator: issuer
    /// sample point and density per cell.
    grid: Vec<(Point, f64)>,
}

impl RefineLanes {
    fn clear(&mut self) {
        self.uni.clear();
        self.uni_out.clear();
        self.rest_pos.clear();
    }
}

/// What the pipeline, the engines and the serving layer need of a
/// catalog object: its id, its extent, its filter membership, and its
/// qualification probability — for one object, and for a batch.
pub trait CatalogObject: Clone + Send + Sync + std::fmt::Debug {
    /// The object's identifier, as reported in
    /// [`crate::result::Match`] and routed by.
    fn id(&self) -> ObjectId;

    /// The object's spatial extent (a point object is a degenerate
    /// rectangle): what the index holds and a commit dirties.
    fn extent(&self) -> Rect;

    /// `true` when the object can qualify for a query whose filter
    /// rectangle is `filter` — what an index probe with `filter`
    /// reports (point containment, region overlap).
    fn within(&self, filter: Rect) -> bool;

    /// The duality probability of this one object (Lemma 3 / Lemma
    /// 4), through the context's integrator; a sampled one draws from
    /// the object's own stream, seeded from the context's seed and the
    /// object's id. The reference every batch is held to, and what a
    /// standing query's patch evaluates.
    fn probability(&self, query: &PreparedQuery<'_>, ctx: &mut ExecutionContext) -> f64;

    /// Refines a batch of surviving candidates by `method`, writing one
    /// probability per survivor (in survivor order) into `out`.
    ///
    /// A duality batch is *observably identical* to calling
    /// [`CatalogObject::probability`] on each survivor in turn: same
    /// probabilities (bit for bit), same stats counters.
    fn probabilities(
        method: EvaluatorKind,
        query: &PreparedQuery<'_>,
        objects: &Pages<Self>,
        survivors: &[u32],
        ctx: &mut ExecutionContext,
        out: &mut Vec<f64>,
    );
}

/// A plan's refine method: the paper's two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvaluatorKind {
    /// The Section 4.2 enhanced method, through query–data duality.
    Duality,
    /// The Section 3.3 baseline.
    Basic {
        /// Sampling-grid resolution per axis.
        per_axis: usize,
    },
}

/// The duality batch as the scalar loop.
fn each_probability<O: CatalogObject>(
    query: &PreparedQuery<'_>,
    objects: &Pages<O>,
    survivors: &[u32],
    ctx: &mut ExecutionContext,
    out: &mut Vec<f64>,
) {
    out.clear();
    for &slot in survivors {
        let pi = objects[slot as usize].probability(query, ctx);
        out.push(pi);
    }
}

/// The basic method with the issuer's midpoint samples and densities
/// hoisted out of the per-candidate loop: `per_axis²` density
/// evaluations once per query instead of once per candidate, identical
/// accumulation. `planned` integrates one object over the plan.
fn basic_probabilities<O>(
    per_axis: usize,
    query: &PreparedQuery<'_>,
    objects: &Pages<O>,
    survivors: &[u32],
    ctx: &mut ExecutionContext,
    out: &mut Vec<f64>,
    planned: impl Fn(&O, &[(Point, f64)], f64, &mut QueryStats) -> f64,
) {
    out.clear();
    if survivors.is_empty() {
        return;
    }
    let mut grid = std::mem::take(&mut ctx.scratch.lanes.grid);
    let da = basic::fill_grid_plan(query.issuer.pdf(), per_axis, &mut grid);
    for &slot in survivors {
        out.push(planned(&objects[slot as usize], &grid, da, &mut ctx.stats));
    }
    ctx.scratch.lanes.grid = grid;
}

impl CatalogObject for PointObject {
    fn id(&self) -> ObjectId {
        self.id
    }

    fn extent(&self) -> Rect {
        Rect::from_point(self.loc)
    }

    #[inline]
    fn within(&self, filter: Rect) -> bool {
        filter.contains_point(self.loc)
    }

    #[inline]
    fn probability(&self, query: &PreparedQuery<'_>, ctx: &mut ExecutionContext) -> f64 {
        ctx.integrator.point_probability(
            query.issuer.pdf(),
            query.range,
            self.loc,
            mc::object_seed(ctx.seed, self.id),
            &mut ctx.stats,
        )
    }

    fn probabilities(
        method: EvaluatorKind,
        query: &PreparedQuery<'_>,
        objects: &Pages<PointObject>,
        survivors: &[u32],
        ctx: &mut ExecutionContext,
        out: &mut Vec<f64>,
    ) {
        match method {
            EvaluatorKind::Duality => each_probability(query, objects, survivors, ctx, out),
            EvaluatorKind::Basic { per_axis } => basic_probabilities(
                per_axis,
                query,
                objects,
                survivors,
                ctx,
                out,
                |o, grid, da, stats| {
                    basic::point_probability_planned(grid, da, query.range, o.loc, stats)
                },
            ),
        }
    }
}

impl CatalogObject for UncertainObject {
    fn id(&self) -> ObjectId {
        self.id
    }

    fn extent(&self) -> Rect {
        self.region()
    }

    #[inline]
    fn within(&self, filter: Rect) -> bool {
        filter.overlaps(self.region())
    }

    #[inline]
    fn probability(&self, query: &PreparedQuery<'_>, ctx: &mut ExecutionContext) -> f64 {
        ctx.integrator.object_probability(
            query.issuer.pdf(),
            query.range,
            self.pdf(),
            query.expanded,
            mc::object_seed(ctx.seed, self.id),
            &mut ctx.stats,
        )
    }

    fn probabilities(
        method: EvaluatorKind,
        query: &PreparedQuery<'_>,
        objects: &Pages<UncertainObject>,
        survivors: &[u32],
        ctx: &mut ExecutionContext,
        out: &mut Vec<f64>,
    ) {
        match method {
            EvaluatorKind::Duality => duality_batch(query, objects, survivors, ctx, out),
            EvaluatorKind::Basic { per_axis } => basic_probabilities(
                per_axis,
                query,
                objects,
                survivors,
                ctx,
                out,
                |o, grid, da, stats| {
                    basic::object_probability_planned(grid, da, query.range, o.pdf(), stats)
                },
            ),
        }
    }
}

/// The SoA duality batch (IUQ's hot loop): with `Integrator::Auto`
/// and a uniform issuer, uniform survivors are gathered into one lane
/// and the closed form evaluates over it with all per-query invariants
/// hoisted into a [`closed::UniformHeader`]; otherwise the scalar
/// loop.
///
/// Results are bit-identical to the scalar loop: the uniform lane
/// runs [`closed::uniform_uniform_batch`] (same arithmetic,
/// reassociation-free), a Gaussian runs the hoisted separable form,
/// and a disc goes through the full integrator, whose Monte-Carlo
/// draws from the object's own stream.
fn duality_batch(
    query: &PreparedQuery<'_>,
    objects: &Pages<UncertainObject>,
    survivors: &[u32],
    ctx: &mut ExecutionContext,
    out: &mut Vec<f64>,
) {
    out.clear();
    let batchable =
        ctx.integrator == Integrator::Auto && query.issuer.pdf().uniform_region().is_some();
    if !batchable || survivors.is_empty() {
        return each_probability(query, objects, survivors, ctx, out);
    }
    let u0 = query.issuer.pdf().uniform_region().expect("checked above");
    let header = closed::UniformHeader::new(u0, query.range, query.expanded);
    // The lanes are taken out of the scratch so the context stays
    // borrowable by the integrator; capacity survives.
    let mut lanes = std::mem::take(&mut ctx.scratch.lanes);
    lanes.clear();
    out.resize(survivors.len(), 0.0);
    for (pos, &slot) in survivors.iter().enumerate() {
        match objects[slot as usize].pdf() {
            PdfKind::Uniform(u) => {
                let r = u.region();
                lanes.uni.push([r.min.x, r.min.y, r.max.x, r.max.y]);
            }
            PdfKind::Gaussian(_) | PdfKind::Disc(_) => lanes.rest_pos.push(pos as u32),
        }
    }
    // Uniform lane: one batched kernel call. A homogeneous batch
    // (the IUQ hot case) writes straight into `out`; a mixed batch
    // goes through `uni_out` and scatters by walking positions in
    // step with the (ascending) list of the others.
    if lanes.rest_pos.is_empty() {
        closed::uniform_uniform_batch(&header, &lanes.uni, out);
    } else if !lanes.uni.is_empty() {
        lanes.uni_out.resize(lanes.uni.len(), 0.0);
        closed::uniform_uniform_batch(&header, &lanes.uni, &mut lanes.uni_out);
        let (mut k, mut r) = (0usize, 0usize);
        for (pos, pi) in out.iter_mut().enumerate() {
            if lanes.rest_pos.get(r) == Some(&(pos as u32)) {
                r += 1;
            } else {
                *pi = lanes.uni_out[k];
                k += 1;
            }
        }
        debug_assert_eq!(k, lanes.uni.len());
    }
    // The uniform lane bypassed the integrator's accounting.
    ctx.stats.prob_evals += lanes.uni.len() as u64;
    // The others one by one: a Gaussian through the hoisted closed
    // form (erf dominates, but the profiles are not rebuilt), a disc
    // through the full integrator.
    for &pos in &lanes.rest_pos {
        let object = &objects[survivors[pos as usize] as usize];
        out[pos as usize] = match object.pdf() {
            PdfKind::Gaussian(g) => {
                ctx.stats.prob_evals += 1;
                closed::uniform_separable_hoisted(&header, g)
                    .expect("gaussian marginals are closed-form")
            }
            _ => object.probability(query, ctx),
        };
    }
    ctx.scratch.lanes = lanes;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Issuer, RangeSpec};
    use iloc_uncertainty::UniformPdf;

    #[test]
    fn evaluators_agree_on_uniform_point_case() {
        let issuer = Issuer::uniform(Rect::from_coords(0.0, 0.0, 100.0, 100.0));
        let range = RangeSpec::square(30.0);
        let query = PreparedQuery::new(&issuer, range);
        let object = PointObject::new(0u64, Point::new(110.0, 40.0));
        let mut ctx = ExecutionContext::new(Integrator::Auto);
        let dual = object.probability(&query, &mut ctx);
        let basic = basic::point_probability(issuer.pdf(), range, object.loc, 220, &mut ctx.stats);
        assert!(dual > 0.0 && dual < 1.0);
        assert!((dual - basic).abs() < 5e-3, "dual {dual} vs basic {basic}");
    }

    #[test]
    fn evaluators_agree_on_uniform_object_case() {
        let issuer = Issuer::uniform(Rect::from_coords(0.0, 0.0, 80.0, 80.0));
        let range = RangeSpec::square(25.0);
        let query = PreparedQuery::new(&issuer, range);
        let object = UncertainObject::new(
            1u64,
            UniformPdf::new(Rect::from_coords(70.0, 10.0, 130.0, 70.0)),
        );
        let mut ctx = ExecutionContext::new(Integrator::Auto);
        let dual = object.probability(&query, &mut ctx);
        let basic =
            basic::object_probability(issuer.pdf(), range, object.pdf(), 160, &mut ctx.stats);
        assert!(dual > 0.0 && dual < 1.0);
        assert!((dual - basic).abs() < 5e-3, "dual {dual} vs basic {basic}");
        // The duality path with a uniform issuer must not sample.
        assert_eq!(ctx.stats.mc_samples, 0);
    }
}
