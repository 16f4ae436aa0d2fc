//! The unified query-execution pipeline.
//!
//! Both of the paper's engines answer every query with the same shape
//! of plan — **filter → prune → refine** — which earlier versions of
//! this workspace had duplicated (with small variations) inside
//! `PointEngine` and `UncertainEngine`. This module makes the plan an
//! explicit, composable object so the two engines become thin facades
//! and later scaling work (sharding, caching, async serving) has one
//! seam to plug into.
//!
//! ## Stages ↔ paper sections
//!
//! | Stage | Type | Paper |
//! |-------|------|-------|
//! | **Filter** | [`FilterStage`]: [`RectFilter`] over any [`iloc_index::RangeIndex`] backend (R-tree, naive scan) probed with the Minkowski sum `R ⊕ U0` (Lemma 1, Section 4.1) or a `p`-expanded query (Definition 7 + Lemma 5); [`PtiFilter`] for the PTI's node-level pruning (Section 5.3) | 4.1, 5.1, 5.3 |
//! | **Prune** | [`PruneChain`]: the three object-level pruning strategies for constrained queries, each recording its eliminations in [`QueryStats`] (`pruned_s1`/`s2`/`s3`) | 5.2 |
//! | **Refine** | [`EvaluatorKind`] (static dispatch over the two [`ProbabilityEvaluator`]s): [`DualityEvaluator`] computes qualification probabilities through the query–data duality closed/numeric forms (Lemmas 2–4) via the context's [`Integrator`]; [`BasicEvaluator`] is the Section 3.3 baseline that integrates over the issuer region (Eq. 2 / Eq. 4) | 3.3, 4.2 |
//!
//! Execution state (integrator choice, the seeded RNG, the per-query
//! cost counters and the reusable [`QueryScratch`] buffers) travels in
//! an [`ExecutionContext`], so a pipeline value itself is immutable
//! and shareable.
//!
//! ## The zero-allocation invariant
//!
//! A steady-state query — [`QueryPipeline::execute_into`] through a
//! warm, reused context into a reused answer — performs **no heap
//! allocation**: the filter stage writes candidates into the context's
//! scratch, index probes run on the scratch traversal stack, the
//! built-in prune chain is held inline, and both refine evaluators are
//! statically dispatched (`EvaluatorKind` over the concrete
//! [`iloc_uncertainty::PdfKind`] pdfs). The batched refine stage's SoA
//! lane buffers (survivors, probabilities, per-`PdfKind` lanes) live in
//! the same scratch under the same cleared-never-shrunk discipline.
//! `loadgen --check-allocs` (the CI smoke jobs, over a real socket) and
//! `crates/bench/tests/zero_alloc.rs` (under `cargo test`) hold this at
//! exactly zero; treat an allocation on this path as a regression.
//!
//! ## Batching
//!
//! [`execute_batch`] runs any slice of requests against a
//! [`BatchEngine`] on all cores over scoped threads: requests are
//! chunked per worker, each worker reuses one long-lived context
//! (reset and reseeded identically for every query), so answers are
//! **bit-identical** to sequential execution (property-tested in
//! `tests/pipeline.rs`).
//!
//! ```
//! use iloc_core::pipeline::{execute_batch, PointRequest};
//! use iloc_core::{Issuer, PointEngine, RangeSpec};
//! use iloc_geometry::{Point, Rect};
//!
//! let engine = PointEngine::build(vec![Point::new(5.0, 5.0)]);
//! let requests: Vec<PointRequest> = (0..64)
//!     .map(|k| {
//!         let c = Point::new(k as f64, 5.0);
//!         PointRequest::ipq(Issuer::uniform(Rect::centered(c, 2.0, 2.0)), RangeSpec::square(4.0))
//!     })
//!     .collect();
//! let answers = execute_batch(&engine, &requests);
//! assert_eq!(answers.len(), 64);
//! ```

mod batch;
mod filter;
mod prune;
mod refine;

pub use batch::{
    execute_batch, execute_batch_sequential, BatchEngine, PointConstraint, PointRequest,
    UncertainConstraint, UncertainRequest,
};
pub use filter::{FilterStage, PtiFilter, RectFilter};
pub use prune::{PruneChain, StoredBounds};
pub use refine::{
    BasicEvaluator, DualityEvaluator, EvaluatorKind, PipelineObject, ProbabilityEvaluator,
};

use std::time::Instant;

use iloc_geometry::Rect;
use iloc_index::{Pages, TraversalScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::DEFAULT_QUERY_SEED;
use crate::expand::minkowski_query;
use crate::integrate::Integrator;
use crate::query::{Issuer, RangeSpec};
use crate::result::{Match, QueryAnswer};
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
    /// Ping-pong buffer for the candidate radix sort.
    pub(crate) radix: Vec<u32>,
    /// Candidates surviving the prune pass, in slot order — the refine
    /// stage's batch input.
    pub(crate) survivors: Vec<u32>,
    /// One refined probability per survivor.
    pub(crate) probs: Vec<f64>,
    /// SoA lane buffers of the batched refine stage.
    pub(crate) lanes: refine::RefineLanes,
    /// Per-shard partial answers reused by the sharded fan-out (taken
    /// out of the scratch for the duration of the fan-out so the
    /// per-shard executions can borrow the context mutably).
    pub(crate) shard_partials: Vec<crate::result::QueryAnswer>,
}

/// Sorts candidate slots with an LSD radix sort through a caller-owned
/// ping-pong buffer.
///
/// Index probes emit candidates in DFS order; refining them that way
/// means the final by-id match sort dominates the whole query (a
/// comparison sort of the result set costs more than the refinement
/// itself at paper scale). Counting passes over the *slots* are far
/// cheaper — `O(passes · n)` with 256-way buckets, no comparisons —
/// and the matches then come out already sorted wherever slot order
/// is id order. The engines keep it so under churn: an arrival takes a
/// new last slot, a move keeps its slot and a departure vacates its
/// own without moving another object (`engine::table`), so only an
/// arrival whose id is below a live one's leaves the match sort
/// anything to do. Allocation-free once `aux` has grown to workload
/// size.
pub(crate) fn sort_candidates(v: &mut Vec<u32>, aux: &mut Vec<u32>) {
    /// One counting pass on the byte at `shift`.
    fn radix_pass(src: &[u32], dst: &mut [u32], shift: u32) {
        let mut pos = [0usize; 256];
        for &x in src {
            pos[((x >> shift) & 0xff) as usize] += 1;
        }
        let mut acc = 0usize;
        for p in pos.iter_mut() {
            let count = *p;
            *p = acc;
            acc += count;
        }
        for &x in src {
            let bucket = ((x >> shift) & 0xff) as usize;
            dst[pos[bucket]] = x;
            pos[bucket] += 1;
        }
    }

    if v.len() < 2 || v.windows(2).all(|w| w[0] <= w[1]) {
        return;
    }
    let max = *v.iter().max().expect("non-empty") as u64;
    aux.clear();
    aux.resize(v.len(), 0);
    let mut data_in_v = true;
    let mut shift = 0u32;
    loop {
        if data_in_v {
            radix_pass(v, aux, shift);
        } else {
            radix_pass(aux, v, shift);
        }
        data_in_v = !data_in_v;
        shift += 8;
        if (max >> shift) == 0 {
            break;
        }
    }
    if !data_in_v {
        std::mem::swap(v, aux);
    }
}

impl QueryScratch {
    /// A scratch with no retained capacity.
    pub fn new() -> Self {
        QueryScratch::default()
    }
}

/// Mutable per-execution state threaded through the stages: the
/// integrator the refine stage uses, the seeded RNG feeding its
/// Monte-Carlo paths, the cost counters every stage records into, and
/// the reusable [`QueryScratch`] buffers.
///
/// One context serves one query execution *at a time* and is designed
/// to be **reused**: every execution starts by resetting the
/// context (zeroed stats, reseeded RNG), so answers through a reused
/// context are bit-identical to answers through a fresh one, while the
/// scratch buffers keep their capacity. Batch execution keeps one
/// long-lived context per worker.
#[derive(Debug, Clone)]
pub struct ExecutionContext {
    /// Strategy for the refine stage's probability integrals.
    pub integrator: Integrator,
    /// Deterministic RNG for sampling integrators.
    pub rng: StdRng,
    /// Cost counters; moved into the [`QueryAnswer`] on completion.
    pub stats: QueryStats,
    /// Reusable buffers (candidates, traversal stack).
    pub(crate) scratch: QueryScratch,
    seed: u64,
}

impl ExecutionContext {
    /// Context with the engine-default RNG seed; query answers are
    /// deterministic for a given database and query.
    pub fn new(integrator: Integrator) -> Self {
        ExecutionContext::seeded(integrator, DEFAULT_QUERY_SEED)
    }

    /// Context with an explicit RNG seed.
    pub fn seeded(integrator: Integrator, seed: u64) -> Self {
        ExecutionContext {
            integrator,
            rng: StdRng::seed_from_u64(seed),
            stats: QueryStats::new(),
            scratch: QueryScratch::new(),
            seed,
        }
    }

    /// Reconfigures the integrator ahead of the next execution (the
    /// per-request batch path reuses one context across requests with
    /// differing integrators).
    #[inline]
    pub fn prepare(&mut self, integrator: Integrator) {
        self.integrator = integrator;
    }

    /// Returns the context to its post-construction state: zeroed
    /// stats and a freshly reseeded RNG (scratch buffers keep their
    /// capacity). Called at the start of every
    /// [`QueryPipeline::execute_into`] so a reused context yields the
    /// same answers as a fresh one.
    fn reset(&mut self) {
        self.stats = QueryStats::new();
        self.rng = StdRng::seed_from_u64(self.seed);
    }
}

/// An imprecise range query with its derived geometry, shared by every
/// stage: the issuer `O0`, the range shape `R`, and the expanded query
/// `R ⊕ U0` of Lemma 1.
#[derive(Debug, Clone, Copy)]
pub struct PreparedQuery<'q> {
    /// The query issuer (pdf + U-catalog).
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

/// One fully-planned query execution: the object table, the three
/// stages, and the acceptance policy.
///
/// Generic over the object type `O` (point or uncertain), the filter
/// backend `F` (in turn generic over any [`iloc_index::RangeIndex`]
/// via [`RectFilter`]) and the refine evaluator `E` — by default the
/// statically-dispatched [`EvaluatorKind`], so the whole per-candidate
/// loop monomorphises without virtual calls. The plan is immutable;
/// all mutable state lives in the [`ExecutionContext`].
pub struct QueryPipeline<'p, O, F, E = EvaluatorKind> {
    /// The prepared query shared by every stage.
    pub query: PreparedQuery<'p>,
    /// The engine's object table; filter output indexes into it.
    /// Candidates are refined in slot order, so the pages are read in
    /// order too.
    pub objects: &'p Pages<O>,
    /// Filter stage: index probe producing candidate slots.
    pub filter: F,
    /// Prune stage: object-level elimination before any integral.
    pub prune: PruneChain<'p, O>,
    /// Refine stage: qualification-probability evaluation.
    pub refine: E,
    /// Acceptance policy applied to refined probabilities.
    pub accept: AcceptPolicy,
}

impl<O: PipelineObject, F: FilterStage, E: ProbabilityEvaluator<O>> QueryPipeline<'_, O, F, E> {
    /// Runs filter → prune → refine, returning the answer with its
    /// cost accounting. Convenience wrapper over
    /// [`QueryPipeline::execute_into`] that allocates a fresh answer.
    pub fn execute(&self, ctx: &mut ExecutionContext) -> QueryAnswer {
        let mut answer = QueryAnswer::default();
        self.execute_into(ctx, &mut answer);
        answer
    }

    /// Runs filter → prune → refine, overwriting `answer` with the
    /// result and its cost accounting.
    ///
    /// The context is reset first (zeroed stats, reseeded RNG), so
    /// executing through a reused context gives the same answer as
    /// through a fresh one. A *steady-state* execution — warm context
    /// scratch, an `answer` whose buffers have already grown to
    /// workload size — performs **zero heap allocations**: candidates
    /// land in the context's [`QueryScratch`], the index probe runs on
    /// the scratch traversal stack, and matches stage directly into
    /// the reused `answer.results`. `loadgen --check-allocs` and
    /// `crates/bench/tests/zero_alloc.rs` pin this invariant.
    pub fn execute_into(&self, ctx: &mut ExecutionContext, answer: &mut QueryAnswer) {
        let start = Instant::now();
        ctx.reset();
        answer.results.clear();
        // The stage buffers are taken out of the scratch for the
        // duration of the run so the context stays borrowable by the
        // refine stage; their capacity survives round trips.
        let mut candidates = std::mem::take(&mut ctx.scratch.candidates);
        candidates.clear();
        self.filter.candidates_into(
            &mut ctx.stats.access,
            &mut ctx.scratch.traversal,
            &mut candidates,
        );
        // Refine in slot order: sequential object-table access, and the
        // matches come out pre-sorted (live slots stay in id order
        // under any churn whose new ids increase), collapsing the
        // final sort to a linear check.
        sort_candidates(&mut candidates, &mut ctx.scratch.radix);
        let filter_done = Instant::now();
        // Prune pass: collect the whole surviving batch first so the
        // refine stage sees it at once (SoA lanes, hoisted per-query
        // invariants). Pruning draws no randomness, so the two-pass
        // order leaves the RNG stream — and hence every Monte-Carlo
        // refinement — bit-identical to the interleaved loop. A plan
        // without pruning (IPQ, IUQ, the Minkowski baselines) refines
        // the candidates as they are.
        let mut kept = std::mem::take(&mut ctx.scratch.survivors);
        let survivors: &[u32] = if self.prune.is_empty() {
            &candidates
        } else {
            kept.clear();
            for &slot in &candidates {
                let object = &self.objects[slot as usize];
                if !self
                    .prune
                    .try_prune(&self.query, slot, object, &mut ctx.stats)
                {
                    kept.push(slot);
                }
            }
            &kept
        };
        let prune_done = Instant::now();
        ctx.stats.refine_batches[crate::stats::refine_batch_bucket(survivors.len())] += 1;
        // Refine pass: one batched call over the survivors.
        let mut probs = std::mem::take(&mut ctx.scratch.probs);
        self.refine
            .probabilities(&self.query, self.objects, survivors, ctx, &mut probs);
        let refine_done = Instant::now();
        // One up-front growth instead of geometric doubling while the
        // accept loop stages (first batch through a cold answer would
        // otherwise recopy the results vector ~log n times).
        answer.results.reserve(survivors.len());
        for (&slot, &pi) in survivors.iter().zip(&probs) {
            if self.accept.accepts(pi) {
                answer.results.push(Match {
                    id: self.objects[slot as usize].object_id(),
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
        crate::result::sort_matches(&mut answer.results);
        answer.stats.elapsed = start.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc_geometry::Point;
    use iloc_index::NaiveIndex;
    use iloc_uncertainty::PointObject;

    fn objects() -> Pages<PointObject> {
        (0..10)
            .map(|k| PointObject::new(k as u64, Point::new(k as f64 * 10.0, 50.0)))
            .collect()
    }

    fn naive_index(objs: &Pages<PointObject>) -> NaiveIndex<u32> {
        NaiveIndex::new(
            objs.iter()
                .enumerate()
                .map(|(k, o)| (Rect::from_point(o.loc), k as u32))
                .collect(),
        )
    }

    #[test]
    fn pipeline_runs_over_any_range_index_backend() {
        // The same plan executes against a backend the engines never
        // use — the point of the `RangeIndex`-generic filter stage.
        let objs = objects();
        let index = naive_index(&objs);
        let issuer = Issuer::uniform(Rect::from_coords(40.0, 40.0, 60.0, 60.0));
        let query = PreparedQuery::new(&issuer, RangeSpec::square(15.0));
        let pipeline = QueryPipeline {
            query,
            objects: &objs,
            filter: RectFilter {
                index: &index,
                query: query.expanded,
            },
            prune: PruneChain::none(),
            refine: EvaluatorKind::Duality,
            accept: AcceptPolicy::Positive,
        };
        let mut ctx = ExecutionContext::new(Integrator::Auto);
        let answer = pipeline.execute(&mut ctx);
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
        let mut a = ExecutionContext::new(Integrator::Auto);
        let mut b = ExecutionContext::new(Integrator::Auto);
        use rand::RngCore;
        assert_eq!(a.rng.next_u64(), b.rng.next_u64());
    }

    #[test]
    fn reused_context_gives_bit_identical_answers() {
        // Monte-Carlo refinement consumes the RNG; a second execute
        // through the same context must reseed and reproduce the
        // first answer exactly.
        let objs = objects();
        let index = naive_index(&objs);
        let issuer = Issuer::uniform(Rect::from_coords(40.0, 40.0, 60.0, 60.0));
        let query = PreparedQuery::new(&issuer, RangeSpec::square(15.0));
        let pipeline = QueryPipeline {
            query,
            objects: &objs,
            filter: RectFilter {
                index: &index,
                query: query.expanded,
            },
            prune: PruneChain::none(),
            refine: EvaluatorKind::Duality,
            accept: AcceptPolicy::Positive,
        };
        let mut shared = ExecutionContext::new(Integrator::MonteCarlo { samples: 200 });
        let first = pipeline.execute(&mut shared);
        let second = pipeline.execute(&mut shared);
        let fresh = pipeline.execute(&mut ExecutionContext::new(Integrator::MonteCarlo {
            samples: 200,
        }));
        assert!(!first.results.is_empty());
        assert!(first.same_matches(&second));
        assert!(first.same_matches(&fresh));
    }
}
