//! The unified query-execution pipeline.
//!
//! Both of the paper's engines answer every query with the same shape
//! of plan — **filter → prune → refine**. Each engine assembles it in
//! one place (`execute_one_into`); the paper-named methods (`ipq`,
//! `cipq`, `iuq`, `ciuq`) are shells over that, and so is the basic
//! method of Section 3.3 (`ipq_basic`, `iuq_basic`).
//!
//! ## Stages ↔ paper sections
//!
//! | Stage | In a [`QueryPipeline`] | Paper |
//! |-------|------|-------|
//! | **Filter** | the engine's index probe, handed to [`QueryPipeline::execute_into`] as a closure: the R-tree or the PTI at threshold 0 probed with the Minkowski sum `R ⊕ U0` (Lemma 1, Section 4.1) or a `p`-expanded query (Definition 7 + Lemma 5), the PTI's threshold probe with node-level pruning (Section 5.3), or a standing query's cached safe envelope re-checked against `R ⊕ U0` | 4.1, 5.1, 5.3 |
//! | **Prune** | `prune`: the three object-level pruning strategies for constrained queries over the PTI's [`StoredBounds`], each recording its eliminations in [`QueryStats`] (`pruned_s1`/`s2`/`s3`) | 5.2 |
//! | **Refine** | `refine`, an [`EvaluatorKind`] dispatched on the object type through [`CatalogObject`]: qualification probabilities through the query–data duality closed/numeric forms (Lemmas 2–4) via the context's [`Integrator`], or the Section 3.3 baseline integrating over the issuer region (Eq. 2 / Eq. 4) | 3.3, 4.2 |
//!
//! Execution state (integrator choice, the seed of the sampling
//! integrators, the per-query cost counters and the reusable
//! [`QueryScratch`] buffers) travels in an [`ExecutionContext`], so a
//! pipeline value itself is immutable.
//!
//! ## The zero-allocation invariant
//!
//! A steady-state query — [`QueryPipeline::execute_into`] through a
//! warm, reused context into a reused answer — performs **no heap
//! allocation**: the probe writes candidates into the context's
//! scratch, index probes run on the scratch traversal stack, the
//! prune stage is held inline, and the refine stage is statically
//! dispatched over the concrete object and
//! [`iloc_uncertainty::PdfKind`] types. The batched refine stage's SoA
//! lane buffers (survivors, probabilities, per-`PdfKind` lanes) live in
//! the same scratch under the same cleared-never-shrunk discipline, and
//! so do the partial answers and the buffer of the one id sort that
//! finishes each answer (`ExecutionContext::gather_into`).
//! `loadgen --check-allocs` (the CI smoke jobs, over a real socket) and
//! `crates/bench/tests/zero_alloc.rs` (under `cargo test`) hold this at
//! exactly zero; treat an allocation on this path as a regression.
//!
//! ```
//! use iloc_core::pipeline::{BatchEngine, ExecutionContext, PointRequest};
//! use iloc_core::{Integrator, Issuer, PointEngine, QueryAnswer, RangeSpec};
//! use iloc_geometry::{Point, Rect};
//!
//! let engine = PointEngine::build(vec![Point::new(5.0, 5.0)]);
//! // One context and one answer, reused across requests.
//! let mut ctx = ExecutionContext::new(Integrator::Auto);
//! let mut answer = QueryAnswer::default();
//! for k in 0..64 {
//!     let c = Point::new(k as f64, 5.0);
//!     let request =
//!         PointRequest::ipq(Issuer::uniform(Rect::centered(c, 2.0, 2.0)), RangeSpec::square(4.0));
//!     engine.execute_one_into(&request, &mut ctx, &mut answer);
//!     // R(5, 5) meets U0 in positive area while k < 11.
//!     assert_eq!(answer.results.len(), usize::from(k < 11));
//! }
//! ```

mod batch;
mod prune;
mod refine;

pub use batch::{
    BatchEngine, Constraint, PointConstraint, PointRequest, QueryRequest, UncertainConstraint,
    UncertainRequest,
};
pub use prune::StoredBounds;
pub use refine::{CatalogObject, EvaluatorKind};

use std::time::Instant;

use iloc_geometry::Rect;
use iloc_index::{AccessStats, Pages, TraversalScratch};

use crate::engine::DEFAULT_QUERY_SEED;
use crate::eval::constrained::PruneContext;
use crate::expand::minkowski_query;
use crate::integrate::Integrator;
use crate::query::{Issuer, RangeSpec};
use crate::result::{sort_matches_into, Match, QueryAnswer};
use crate::stats::QueryStats;

/// Reusable buffers of one query execution: the candidate list the
/// filter stage writes into and the index-traversal stack.
///
/// The scratch lives inside an [`ExecutionContext`]; executing through
/// a warm (reused) context touches only these buffers, which is what
/// makes the steady-state query path allocation-free. Buffers are
/// cleared — never shrunk — between executions, and their contents
/// carry no information across queries (property-tested: a dirty
/// scratch answers bit-identically to a fresh one).
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    /// Candidate object slots produced by the filter stage.
    pub(crate) candidates: Vec<u32>,
    /// DFS stack for R-tree / PTI probes.
    pub(crate) traversal: TraversalScratch,
    /// Candidates surviving the prune pass, in probe order — the
    /// refine stage's batch input.
    pub(crate) survivors: Vec<u32>,
    /// One refined probability per survivor.
    pub(crate) probs: Vec<f64>,
    /// SoA lane buffers of the batched refine stage.
    pub(crate) lanes: refine::RefineLanes,
    /// The unordered partial answers [`ExecutionContext::gather_into`]
    /// sorts into one (taken out of the scratch for the duration of a
    /// gather so the partial executions can borrow the context
    /// mutably).
    partials: Vec<QueryAnswer>,
    /// The id sort's ping-pong buffer.
    id_sort: Vec<Match>,
}

impl QueryScratch {
    /// A scratch with no retained capacity.
    pub fn new() -> Self {
        QueryScratch::default()
    }
}

/// Mutable per-execution state threaded through the stages: the
/// integrator the refine stage uses, the seed its Monte-Carlo paths
/// derive each object's sample stream from
/// ([`crate::integrate::mc::object_seed`]), the cost counters every
/// stage records into, and the reusable [`QueryScratch`] buffers.
///
/// One context serves one query execution *at a time* and is designed
/// to be **reused**: every execution starts by zeroing the stats, and
/// nothing else in the context carries information from one query to
/// the next, so answers through a reused context are bit-identical to
/// answers through a fresh one, while the scratch buffers keep their
/// capacity. A serving loop keeps one long-lived context.
#[derive(Debug, Clone)]
pub struct ExecutionContext {
    /// Strategy for the refine stage's probability integrals.
    pub integrator: Integrator,
    /// Cost counters; moved into the [`QueryAnswer`] on completion.
    pub stats: QueryStats,
    /// Reusable buffers (candidates, traversal stack).
    pub(crate) scratch: QueryScratch,
    seed: u64,
}

impl ExecutionContext {
    /// Context with the engine-default seed; query answers are
    /// deterministic for a given database and query.
    pub fn new(integrator: Integrator) -> Self {
        ExecutionContext {
            integrator,
            stats: QueryStats::new(),
            scratch: QueryScratch::new(),
            seed: DEFAULT_QUERY_SEED,
        }
    }

    /// Reconfigures the integrator ahead of the next execution (a
    /// reused context serves requests with differing integrators).
    #[inline]
    pub fn prepare(&mut self, integrator: Integrator) {
        self.integrator = integrator;
    }

    /// Zeroes the stats (scratch buffers keep their capacity). Called
    /// at the start of every pipeline run.
    fn reset(&mut self) {
        self.stats = QueryStats::new();
    }

    /// Finishes an answer: `each` runs `parts` executions, the `k`-th
    /// into partial answer `k` with its matches in any order, and
    /// `answer` is left with the union of their matches sorted by id
    /// and their cost counters summed. A single engine gathers one
    /// part, a sharded snapshot one per shard. Both the partials and
    /// the sort's buffer live in the scratch, so a warm context
    /// gathers without allocating.
    pub(crate) fn gather_into(
        &mut self,
        parts: usize,
        answer: &mut QueryAnswer,
        mut each: impl FnMut(usize, &mut ExecutionContext, &mut QueryAnswer),
    ) {
        let start = Instant::now();
        let mut partials = std::mem::take(&mut self.scratch.partials);
        partials.resize_with(parts.max(partials.len()), QueryAnswer::default);
        answer.stats = QueryStats::new();
        for (k, partial) in partials[..parts].iter_mut().enumerate() {
            each(k, self, partial);
            answer.stats.absorb(&partial.stats);
        }
        sort_matches_into(
            &mut answer.results,
            partials[..parts].iter().map(|p| p.results.as_slice()),
            &mut self.scratch.id_sort,
        );
        self.scratch.partials = partials;
        answer.stats.elapsed = start.elapsed();
    }
}

/// An imprecise range query with its derived geometry, shared by every
/// stage: the issuer `O0`, the range shape `R`, and the expanded query
/// `R ⊕ U0` of Lemma 1.
#[derive(Debug, Clone, Copy)]
pub struct PreparedQuery<'q> {
    /// The query issuer.
    pub issuer: &'q Issuer,
    /// The range shape.
    pub range: RangeSpec,
    /// The Minkowski sum `R ⊕ U0`; objects outside it cannot qualify.
    pub expanded: Rect,
}

impl<'q> PreparedQuery<'q> {
    /// Prepares a query, computing the expanded rectangle.
    pub fn new(issuer: &'q Issuer, range: RangeSpec) -> Self {
        PreparedQuery {
            issuer,
            range,
            expanded: minkowski_query(issuer, range),
        }
    }
}

/// Post-refinement acceptance test (the only place IPQ/IUQ differ from
/// their constrained variants).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AcceptPolicy {
    /// Keep every strictly positive probability (IPQ / IUQ,
    /// Definitions 3–4).
    Positive,
    /// Keep positive probabilities of at least the threshold `Qp`
    /// (C-IPQ / C-IUQ, Definitions 5–6).
    AtLeast(f64),
}

impl AcceptPolicy {
    /// Does probability `pi` make the result set?
    #[inline]
    pub fn accepts(self, pi: f64) -> bool {
        match self {
            AcceptPolicy::Positive => pi > 0.0,
            AcceptPolicy::AtLeast(qp) => pi > 0.0 && pi >= qp,
        }
    }
}

/// One fully-planned query execution over an object table of `O`:
/// the prepared query, the prune and refine stages, and the acceptance
/// policy. The filter stage is the probe handed to
/// [`QueryPipeline::execute_into`].
///
/// Everything is monomorphised — the object type, the probe closure —
/// so the per-candidate loop runs without virtual calls. The plan is
/// immutable; all mutable state lives in the [`ExecutionContext`].
pub struct QueryPipeline<'p, O> {
    /// The prepared query shared by every stage.
    pub query: PreparedQuery<'p>,
    /// The engine's object table; the probe's slots index into it.
    /// Candidates are refined in the order the probe emits them.
    pub objects: &'p Pages<O>,
    /// Prune stage: the Section 5.2 strategies (Strategy 2, then 1,
    /// then 3; the first that fires eliminates the candidate) over the
    /// candidates' stored bounds, or none — unconstrained queries and
    /// the paper's R-tree baseline refine every candidate.
    pub prune: Option<(PruneContext, StoredBounds<'p>)>,
    /// Refine stage: the qualification-probability method.
    pub refine: EvaluatorKind,
    /// Acceptance policy applied to refined probabilities.
    pub accept: AcceptPolicy,
}

impl<O: CatalogObject> QueryPipeline<'_, O> {
    /// Runs filter → prune → refine, overwriting `answer` with the
    /// result, sorted by id, and its cost accounting. `probe` is the
    /// filter stage: it pushes candidate slots into the vector it is
    /// handed (cleared), recording its logical I/O in the stats and
    /// walking trees on the traversal stack.
    ///
    /// The context's stats are zeroed first, so executing through a
    /// reused context gives the same answer as through a fresh one. A
    /// *steady-state* execution — warm context scratch, an `answer`
    /// whose buffers have already grown to workload size — performs
    /// **zero heap allocations**: candidates land in the context's
    /// [`QueryScratch`], the index probe runs on the scratch traversal
    /// stack, and the matches stage in the scratch and are sorted into
    /// the reused `answer.results`. `loadgen --check-allocs` and
    /// `crates/bench/tests/zero_alloc.rs` pin this invariant.
    pub fn execute_into(
        &self,
        ctx: &mut ExecutionContext,
        answer: &mut QueryAnswer,
        mut probe: impl FnMut(&mut AccessStats, &mut TraversalScratch, &mut Vec<u32>),
    ) {
        ctx.gather_into(1, answer, |_, ctx, part| {
            self.run_into(ctx, part, &mut probe)
        });
    }

    /// [`QueryPipeline::execute_into`] without the sort: the matches
    /// come out in the order the probe emitted their candidates.
    /// Whoever finishes the answer sorts it once
    /// ([`ExecutionContext::gather_into`]).
    pub(crate) fn run_into(
        &self,
        ctx: &mut ExecutionContext,
        answer: &mut QueryAnswer,
        probe: impl FnOnce(&mut AccessStats, &mut TraversalScratch, &mut Vec<u32>),
    ) {
        let start = Instant::now();
        ctx.reset();
        answer.results.clear();
        // The stage buffers are taken out of the scratch for the
        // duration of the run so the context stays borrowable by the
        // refine stage; their capacity survives round trips.
        let mut candidates = std::mem::take(&mut ctx.scratch.candidates);
        candidates.clear();
        probe(
            &mut ctx.stats.access,
            &mut ctx.scratch.traversal,
            &mut candidates,
        );
        let filter_done = Instant::now();
        // Prune pass: collect the whole surviving batch first so the
        // refine stage sees it at once (SoA lanes, hoisted per-query
        // invariants). A plan without pruning (IPQ, IUQ, the Minkowski
        // baselines) refines the candidates as they are.
        let mut kept = std::mem::take(&mut ctx.scratch.survivors);
        let survivors: &[u32] = match &self.prune {
            None => &candidates,
            Some((prune, bounds)) => {
                kept.clear();
                for &slot in &candidates {
                    if !prune::prunes(prune, bounds, slot, &mut ctx.stats) {
                        kept.push(slot);
                    }
                }
                &kept
            }
        };
        let prune_done = Instant::now();
        ctx.stats.refine_batches[crate::stats::refine_batch_bucket(survivors.len())] += 1;
        // Refine pass: one batched call over the survivors.
        let mut probs = std::mem::take(&mut ctx.scratch.probs);
        O::probabilities(
            self.refine,
            &self.query,
            self.objects,
            survivors,
            ctx,
            &mut probs,
        );
        let refine_done = Instant::now();
        // One up-front growth instead of geometric doubling while the
        // accept loop stages (first batch through a cold answer would
        // otherwise recopy the results vector ~log n times).
        answer.results.reserve(survivors.len());
        for (&slot, &pi) in survivors.iter().zip(&probs) {
            if self.accept.accepts(pi) {
                answer.results.push(Match {
                    id: self.objects[slot as usize].id(),
                    probability: pi,
                });
            } else {
                ctx.stats.refined_out += 1;
            }
        }
        ctx.stats.filter_nanos = (filter_done - start).as_nanos() as u64;
        ctx.stats.prune_nanos = (prune_done - filter_done).as_nanos() as u64;
        ctx.stats.refine_nanos = (refine_done - prune_done).as_nanos() as u64;
        ctx.scratch.candidates = candidates;
        ctx.scratch.survivors = kept;
        ctx.scratch.probs = probs;
        answer.stats = std::mem::take(&mut ctx.stats);
        answer.stats.elapsed = start.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc_geometry::Point;
    use iloc_index::{NaiveIndex, RangeIndex};
    use iloc_uncertainty::PointObject;

    fn objects() -> Pages<PointObject> {
        (0..10)
            .map(|k| PointObject::new(k as u64, Point::new(k as f64 * 10.0, 50.0)))
            .collect()
    }

    /// A plan over `objs` and the answer of `execute_into` with a
    /// probe over a naive scan.
    fn execute_naive(objs: &Pages<PointObject>, ctx: &mut ExecutionContext) -> QueryAnswer {
        let index = NaiveIndex::new(
            objs.iter()
                .enumerate()
                .map(|(k, o)| (Rect::from_point(o.loc), k as u32))
                .collect(),
        );
        let issuer = Issuer::uniform(Rect::from_coords(40.0, 40.0, 60.0, 60.0));
        let query = PreparedQuery::new(&issuer, RangeSpec::square(15.0));
        let pipeline = QueryPipeline {
            query,
            objects: objs,
            prune: None,
            refine: EvaluatorKind::Duality,
            accept: AcceptPolicy::Positive,
        };
        let mut answer = QueryAnswer::default();
        pipeline.execute_into(ctx, &mut answer, |stats, traversal, out| {
            index.query_range_scratch(query.expanded, stats, traversal, out)
        });
        answer
    }

    #[test]
    fn pipeline_runs_over_any_range_index_backend() {
        // The same plan executes against a backend the engines never
        // use — the probe is whatever the caller hands over.
        let answer = execute_naive(&objects(), &mut ExecutionContext::new(Integrator::Auto));
        assert!(!answer.results.is_empty());
        for m in &answer.results {
            assert!(m.probability > 0.0);
        }
        // Filter accounting flowed into the answer.
        assert!(answer.stats.access.candidates > 0);
        assert_eq!(answer.stats.prob_evals, answer.stats.access.candidates);
    }

    #[test]
    fn accept_policy_thresholds() {
        assert!(AcceptPolicy::Positive.accepts(1e-9));
        assert!(!AcceptPolicy::Positive.accepts(0.0));
        assert!(AcceptPolicy::AtLeast(0.5).accepts(0.5));
        assert!(!AcceptPolicy::AtLeast(0.5).accepts(0.49));
        assert!(!AcceptPolicy::AtLeast(0.0).accepts(0.0));
    }

    #[test]
    fn context_reseeds_deterministically() {
        // A sampled answer is a function of the context's seed: two
        // fresh contexts agree bit for bit, another seed moves the
        // estimates.
        let objs = objects();
        let mc = Integrator::MonteCarlo { samples: 200 };
        let a = execute_naive(&objs, &mut ExecutionContext::new(mc));
        let b = execute_naive(&objs, &mut ExecutionContext::new(mc));
        let mut reseeded = ExecutionContext::new(mc);
        reseeded.seed = 1;
        let other = execute_naive(&objs, &mut reseeded);
        assert!(a.same_matches(&b));
        assert!(!a.same_matches(&other));
    }

    #[test]
    fn reused_context_gives_bit_identical_answers() {
        // A second execute through the same context reproduces the
        // first Monte-Carlo answer exactly, and so does a fresh one.
        let objs = objects();
        let mc = || ExecutionContext::new(Integrator::MonteCarlo { samples: 200 });
        let mut shared = mc();
        let first = execute_naive(&objs, &mut shared);
        let second = execute_naive(&objs, &mut shared);
        let fresh = execute_naive(&objs, &mut mc());
        assert!(!first.results.is_empty());
        assert!(first.same_matches(&second));
        assert!(first.same_matches(&fresh));
    }
}
