//! The **Refine** stage: qualification-probability evaluation.
//!
//! [`ProbabilityEvaluator`] unifies the paper's two evaluation methods
//! behind one interface, selected per query:
//!
//! * [`DualityEvaluator`] — the Section 4.2 enhanced method: Lemma 3
//!   for point objects, Lemma 4 / Eq. 8 for uncertain objects, both
//!   computed through the context's [`crate::integrate::Integrator`]
//!   (closed form, grid, or Monte-Carlo);
//! * [`BasicEvaluator`] — the Section 3.3 baseline integrating over the
//!   issuer region (Eq. 2 / Eq. 4) on a midpoint grid.

use iloc_geometry::Point;
use iloc_index::Pages;
use iloc_uncertainty::{LocationPdf, ObjectId, PdfKind, PointObject, UncertainObject};

use crate::eval::basic;
use crate::integrate::{closed, Integrator};

use super::{ExecutionContext, PreparedQuery};

/// Reusable lane buffers for the SoA refine pass, held inside
/// [`super::QueryScratch`] so a warm context refines whole batches
/// without allocating.
///
/// The duality path gathers surviving candidates into
/// `PdfKind`-homogeneous lanes (uniform geometry as packed corner
/// quadruples, separable and fallback candidates as position lists);
/// the basic
/// path reuses `grid` for its hoisted issuer-sample plan. Buffers are
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
    /// Output positions of the axis-separable (Gaussian) lane.
    sep_pos: Vec<u32>,
    /// Output positions of everything else, refined through the full
    /// integrator in survivor order (so Monte-Carlo fallbacks consume
    /// the RNG exactly as the scalar loop would).
    fallback_pos: Vec<u32>,
    /// Hoisted midpoint-grid plan of the basic evaluator: issuer
    /// sample point and density per cell.
    grid: Vec<(Point, f64)>,
}

impl RefineLanes {
    fn clear(&mut self) {
        self.uni.clear();
        self.uni_out.clear();
        self.sep_pos.clear();
        self.fallback_pos.clear();
    }
}

/// Objects the pipeline can process: anything carrying a stable id for
/// the result set.
pub trait PipelineObject: Sync {
    /// The object's identifier as reported in [`crate::result::Match`].
    fn object_id(&self) -> ObjectId;
}

impl PipelineObject for PointObject {
    fn object_id(&self) -> ObjectId {
        self.id
    }
}

impl PipelineObject for UncertainObject {
    fn object_id(&self) -> ObjectId {
        self.id
    }
}

/// Computes the qualification probability `pi` of one candidate.
///
/// Implementations draw any randomness from the context's RNG and
/// record their work in the context's stats, so a pipeline run is
/// deterministic per seed and fully cost-accounted.
pub trait ProbabilityEvaluator<O>: Sync {
    /// Refines one candidate.
    fn probability(&self, query: &PreparedQuery<'_>, object: &O, ctx: &mut ExecutionContext)
        -> f64;

    /// Refines a whole batch of surviving candidates, writing one
    /// probability per survivor (in survivor order) into `out`.
    ///
    /// The default is the scalar loop — evaluator implementations that
    /// can batch (the duality path's SoA closed-form lanes, the basic
    /// path's hoisted sample grid) override it. Overrides must be
    /// *observably identical* to the default: same probabilities (bit
    /// for bit where no Monte-Carlo reordering occurs), same stats
    /// counters, same RNG consumption.
    fn probabilities(
        &self,
        query: &PreparedQuery<'_>,
        objects: &Pages<O>,
        survivors: &[u32],
        ctx: &mut ExecutionContext,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        for &slot in survivors {
            let pi = self.probability(query, &objects[slot as usize], ctx);
            out.push(pi);
        }
    }
}

/// The enhanced evaluator built on query–data duality (Section 4.2,
/// Lemmas 2–4), delegating the integral to the context's integrator.
#[derive(Debug, Clone, Copy, Default)]
pub struct DualityEvaluator;

impl ProbabilityEvaluator<PointObject> for DualityEvaluator {
    fn probability(
        &self,
        query: &PreparedQuery<'_>,
        object: &PointObject,
        ctx: &mut ExecutionContext,
    ) -> f64 {
        ctx.integrator.point_probability(
            query.issuer.pdf(),
            query.range,
            object.loc,
            &mut ctx.rng,
            &mut ctx.stats,
        )
    }
}

impl ProbabilityEvaluator<UncertainObject> for DualityEvaluator {
    fn probability(
        &self,
        query: &PreparedQuery<'_>,
        object: &UncertainObject,
        ctx: &mut ExecutionContext,
    ) -> f64 {
        ctx.integrator.object_probability(
            query.issuer.pdf(),
            query.range,
            object.pdf(),
            query.expanded,
            &mut ctx.rng,
            &mut ctx.stats,
        )
    }

    /// The SoA fast path (IUQ's hot loop): with `Integrator::Auto` and
    /// a uniform issuer, survivors are gathered into
    /// `PdfKind`-homogeneous lanes and the closed forms evaluate over
    /// slices with all per-query invariants hoisted into a
    /// [`closed::UniformHeader`].
    ///
    /// Results are bit-identical to the scalar loop: the uniform lane
    /// runs [`closed::uniform_uniform_batch`] (same arithmetic,
    /// reassociation-free), the Gaussian lane runs the hoisted
    /// separable form, and every other pdf goes through the full
    /// integrator **in survivor order**, so Monte-Carlo fallbacks see
    /// the exact RNG stream of the scalar loop (closed-form candidates
    /// never consume randomness).
    fn probabilities(
        &self,
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
            for &slot in survivors {
                let pi = self.probability(query, &objects[slot as usize], ctx);
                out.push(pi);
            }
            return;
        }
        let u0 = query.issuer.pdf().uniform_region().expect("checked above");
        let header = closed::UniformHeader::new(u0, query.range, query.expanded);
        // The lanes are taken out of the scratch so the context stays
        // borrowable by the fallback integrator; capacity survives.
        let mut lanes = std::mem::take(&mut ctx.scratch.lanes);
        lanes.clear();
        out.resize(survivors.len(), 0.0);
        for (pos, &slot) in survivors.iter().enumerate() {
            match objects[slot as usize].pdf() {
                PdfKind::Uniform(u) => {
                    let r = u.region();
                    lanes.uni.push([r.min.x, r.min.y, r.max.x, r.max.y]);
                }
                PdfKind::Gaussian(_) => lanes.sep_pos.push(pos as u32),
                PdfKind::Disc(_) | PdfKind::Shared(_) => lanes.fallback_pos.push(pos as u32),
            }
        }
        // Uniform lane: one batched kernel call. A homogeneous batch
        // (the IUQ hot case) writes straight into `out`; a mixed batch
        // goes through `uni_out` and scatters by walking positions in
        // step with the (ascending) sep/fallback position lists.
        if lanes.sep_pos.is_empty() && lanes.fallback_pos.is_empty() {
            closed::uniform_uniform_batch(&header, &lanes.uni, out);
        } else if !lanes.uni.is_empty() {
            lanes.uni_out.resize(lanes.uni.len(), 0.0);
            closed::uniform_uniform_batch(&header, &lanes.uni, &mut lanes.uni_out);
            let (mut k, mut s, mut f) = (0usize, 0usize, 0usize);
            for (pos, pi) in out.iter_mut().enumerate() {
                if lanes.sep_pos.get(s) == Some(&(pos as u32)) {
                    s += 1;
                } else if lanes.fallback_pos.get(f) == Some(&(pos as u32)) {
                    f += 1;
                } else {
                    *pi = lanes.uni_out[k];
                    k += 1;
                }
            }
            debug_assert_eq!(k, lanes.uni.len());
        }
        // Separable lane: hoisted closed form, still per candidate
        // (erf dominates) but without rebuilding the profiles.
        for &pos in &lanes.sep_pos {
            let object = &objects[survivors[pos as usize] as usize];
            let PdfKind::Gaussian(g) = object.pdf() else {
                unreachable!("separable lane only holds Gaussians");
            };
            out[pos as usize] = closed::uniform_separable_hoisted(&header, g)
                .expect("gaussian marginals are closed-form");
        }
        // The closed-form lanes bypassed the integrator's accounting.
        ctx.stats.prob_evals += (lanes.uni.len() + lanes.sep_pos.len()) as u64;
        // Fallback lane: the full integrator, in survivor order.
        for &pos in &lanes.fallback_pos {
            let object = &objects[survivors[pos as usize] as usize];
            out[pos as usize] = ctx.integrator.object_probability(
                query.issuer.pdf(),
                query.range,
                object.pdf(),
                query.expanded,
                &mut ctx.rng,
                &mut ctx.stats,
            );
        }
        ctx.scratch.lanes = lanes;
    }
}

/// The refine stage as a statically-dispatched enum: the paper's two
/// evaluation methods behind one `Copy` value, so the per-candidate
/// loop compiles to a direct (inlinable) call instead of a virtual one.
///
/// This is what the engines install; the [`ProbabilityEvaluator`]
/// trait remains for plans refining through custom evaluators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvaluatorKind {
    /// The Section 4.2 enhanced method ([`DualityEvaluator`]).
    Duality,
    /// The Section 3.3 baseline ([`BasicEvaluator`]).
    Basic {
        /// Sampling-grid resolution per axis.
        per_axis: usize,
    },
}

impl<O> ProbabilityEvaluator<O> for EvaluatorKind
where
    DualityEvaluator: ProbabilityEvaluator<O>,
    BasicEvaluator: ProbabilityEvaluator<O>,
{
    #[inline]
    fn probability(
        &self,
        query: &PreparedQuery<'_>,
        object: &O,
        ctx: &mut ExecutionContext,
    ) -> f64 {
        match *self {
            EvaluatorKind::Duality => DualityEvaluator.probability(query, object, ctx),
            EvaluatorKind::Basic { per_axis } => {
                BasicEvaluator { per_axis }.probability(query, object, ctx)
            }
        }
    }

    #[inline]
    fn probabilities(
        &self,
        query: &PreparedQuery<'_>,
        objects: &Pages<O>,
        survivors: &[u32],
        ctx: &mut ExecutionContext,
        out: &mut Vec<f64>,
    ) {
        match *self {
            EvaluatorKind::Duality => {
                DualityEvaluator.probabilities(query, objects, survivors, ctx, out)
            }
            EvaluatorKind::Basic { per_axis } => {
                BasicEvaluator { per_axis }.probabilities(query, objects, survivors, ctx, out)
            }
        }
    }
}

/// The Section 3.3 baseline: direct numerical integration over the
/// issuer region with `per_axis`² midpoint samples (the expensive
/// method of Figure 8).
#[derive(Debug, Clone, Copy)]
pub struct BasicEvaluator {
    /// Sampling-grid resolution per axis.
    pub per_axis: usize,
}

impl ProbabilityEvaluator<PointObject> for BasicEvaluator {
    fn probability(
        &self,
        query: &PreparedQuery<'_>,
        object: &PointObject,
        ctx: &mut ExecutionContext,
    ) -> f64 {
        basic::point_probability(
            query.issuer.pdf(),
            query.range,
            object.loc,
            self.per_axis,
            &mut ctx.stats,
        )
    }

    /// Hoists the issuer's midpoint samples and densities out of the
    /// per-candidate loop: `per_axis²` density evaluations once per
    /// query instead of once per candidate, identical accumulation.
    fn probabilities(
        &self,
        query: &PreparedQuery<'_>,
        objects: &Pages<PointObject>,
        survivors: &[u32],
        ctx: &mut ExecutionContext,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        if survivors.is_empty() {
            return;
        }
        let mut grid = std::mem::take(&mut ctx.scratch.lanes.grid);
        let da = basic::fill_grid_plan(query.issuer.pdf(), self.per_axis, &mut grid);
        for &slot in survivors {
            out.push(basic::point_probability_planned(
                &grid,
                da,
                query.range,
                objects[slot as usize].loc,
                &mut ctx.stats,
            ));
        }
        ctx.scratch.lanes.grid = grid;
    }
}

impl ProbabilityEvaluator<UncertainObject> for BasicEvaluator {
    fn probability(
        &self,
        query: &PreparedQuery<'_>,
        object: &UncertainObject,
        ctx: &mut ExecutionContext,
    ) -> f64 {
        basic::object_probability(
            query.issuer.pdf(),
            query.range,
            object.pdf(),
            self.per_axis,
            &mut ctx.stats,
        )
    }

    /// Same hoist as the point override: one issuer sample plan per
    /// query, shared by every candidate's Eq. 4 integration.
    fn probabilities(
        &self,
        query: &PreparedQuery<'_>,
        objects: &Pages<UncertainObject>,
        survivors: &[u32],
        ctx: &mut ExecutionContext,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        if survivors.is_empty() {
            return;
        }
        let mut grid = std::mem::take(&mut ctx.scratch.lanes.grid);
        let da = basic::fill_grid_plan(query.issuer.pdf(), self.per_axis, &mut grid);
        for &slot in survivors {
            out.push(basic::object_probability_planned(
                &grid,
                da,
                query.range,
                objects[slot as usize].pdf(),
                &mut ctx.stats,
            ));
        }
        ctx.scratch.lanes.grid = grid;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::Integrator;
    use crate::query::{Issuer, RangeSpec};
    use iloc_geometry::{Point, Rect};
    use iloc_uncertainty::UniformPdf;

    #[test]
    fn evaluators_agree_on_uniform_point_case() {
        let issuer = Issuer::uniform(Rect::from_coords(0.0, 0.0, 100.0, 100.0));
        let range = RangeSpec::square(30.0);
        let query = PreparedQuery::new(&issuer, range);
        let object = PointObject::new(0u64, Point::new(110.0, 40.0));
        let mut ctx = ExecutionContext::new(Integrator::Auto);
        let dual = DualityEvaluator.probability(&query, &object, &mut ctx);
        let basic = BasicEvaluator { per_axis: 220 }.probability(&query, &object, &mut ctx);
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
        let dual = DualityEvaluator.probability(&query, &object, &mut ctx);
        let basic = BasicEvaluator { per_axis: 160 }.probability(&query, &object, &mut ctx);
        assert!(dual > 0.0 && dual < 1.0);
        assert!((dual - basic).abs() < 5e-3, "dual {dual} vs basic {basic}");
        // The duality path with a uniform issuer must not sample.
        assert_eq!(ctx.stats.mc_samples, 0);
    }
}
