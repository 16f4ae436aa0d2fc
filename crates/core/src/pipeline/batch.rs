//! Batched query execution: a scoped-thread fan-out of request chunks
//! with one long-lived execution context per worker.
//!
//! A deployed location service does not answer one query at a time; it
//! drains a queue of requests from millions of issuers.
//! [`execute_batch`] runs any [`BatchEngine`] over a request slice on
//! all cores: the slice is chunked per worker and each worker reuses
//! **one** context — scratch buffers stay warm across its whole chunk,
//! so per-query allocations are amortised away. The context is reset
//! (zeroed stats, reseeded RNG) for every query, exactly as a fresh
//! per-query context would be, so parallel answers are bit-identical
//! to [`execute_batch_sequential`] — determinism is a property of the
//! plan, not of scheduling.

use crate::integrate::Integrator;
use crate::query::{CipqStrategy, CiuqStrategy, Issuer, RangeSpec};
use crate::result::QueryAnswer;

use super::ExecutionContext;

/// An engine that can answer self-contained query requests; the batch
/// executors fan its `execute_one_into` out over request chunks.
pub trait BatchEngine: Sync {
    /// One self-contained query request.
    type Request: Sync;

    /// Answers one request through the caller's context (which the
    /// engine prepares and resets), overwriting `answer` — exactly as
    /// the corresponding sequential engine method would. Reusing one
    /// context and answer across calls keeps the path allocation-free
    /// after warm-up.
    fn execute_one_into(
        &self,
        request: &Self::Request,
        ctx: &mut ExecutionContext,
        answer: &mut QueryAnswer,
    );

    /// Answers one request with a fresh context, returning the answer.
    fn execute_one(&self, request: &Self::Request) -> QueryAnswer {
        let mut ctx = ExecutionContext::new(Integrator::Auto);
        let mut answer = QueryAnswer::default();
        self.execute_one_into(request, &mut ctx, &mut answer);
        answer
    }
}

/// Answers every request in parallel — one contiguous chunk, one scoped
/// thread and one reused context per available core — preserving
/// request order in the output.
pub fn execute_batch<E: BatchEngine>(engine: &E, requests: &[E::Request]) -> Vec<QueryAnswer> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    if workers == 1 || requests.len() < 2 {
        return execute_batch_sequential(engine, requests);
    }
    let chunk_size = requests.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let chunks: Vec<_> = requests
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || execute_batch_sequential(engine, chunk)))
            .collect();
        chunks
            .into_iter()
            .flat_map(|chunk| {
                chunk
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// Answers every request on the calling thread through one reused
/// context — one worker's share of [`execute_batch`], and the reference
/// the parallel path is property-tested against.
pub fn execute_batch_sequential<E: BatchEngine>(
    engine: &E,
    requests: &[E::Request],
) -> Vec<QueryAnswer> {
    let mut ctx = ExecutionContext::new(Integrator::Auto);
    // Result vectors must be freshly allocated (they are moved into the
    // output), but growth-doubling them from empty costs
    // ~log₂(matches) reallocations per query. Pre-sizing each answer to
    // the high-water mark so far collapses that to one exact allocation
    // per query after the first.
    let mut hwm = 0usize;
    requests
        .iter()
        .map(|request| {
            let mut answer = QueryAnswer::default();
            answer.results.reserve(hwm);
            engine.execute_one_into(request, &mut ctx, &mut answer);
            hwm = hwm.max(answer.results.len());
            answer
        })
        .collect()
}

/// The constrained part of a point request (C-IPQ, Definition 5).
#[derive(Debug, Clone, Copy)]
pub struct PointConstraint {
    /// Probability threshold `Qp`.
    pub qp: f64,
    /// Filter strategy to compare (Figure 11).
    pub strategy: CipqStrategy,
}

/// One self-contained request against a point database: an IPQ, or a
/// C-IPQ when a constraint is present.
#[derive(Debug, Clone)]
pub struct PointRequest {
    /// The imprecise issuer.
    pub issuer: Issuer,
    /// The range shape.
    pub range: RangeSpec,
    /// Integrator for the refine stage.
    pub integrator: Integrator,
    /// Optional C-IPQ constraint.
    pub constraint: Option<PointConstraint>,
}

impl PointRequest {
    /// An unconstrained IPQ request.
    pub fn ipq(issuer: Issuer, range: RangeSpec) -> Self {
        PointRequest {
            issuer,
            range,
            integrator: Integrator::Auto,
            constraint: None,
        }
    }

    /// A constrained C-IPQ request.
    pub fn cipq(issuer: Issuer, range: RangeSpec, qp: f64, strategy: CipqStrategy) -> Self {
        PointRequest {
            issuer,
            range,
            integrator: Integrator::Auto,
            constraint: Some(PointConstraint { qp, strategy }),
        }
    }

    /// Overrides the integrator (the experiments use Monte-Carlo for
    /// non-uniform pdfs).
    pub fn with_integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }
}

/// The constrained part of an uncertain request (C-IUQ, Definition 6).
#[derive(Debug, Clone, Copy)]
pub struct UncertainConstraint {
    /// Probability threshold `Qp`.
    pub qp: f64,
    /// Index / pruning combination to use (Figure 12).
    pub strategy: CiuqStrategy,
}

/// One self-contained request against an uncertain-object database: an
/// IUQ, or a C-IUQ when a constraint is present.
#[derive(Debug, Clone)]
pub struct UncertainRequest {
    /// The imprecise issuer.
    pub issuer: Issuer,
    /// The range shape.
    pub range: RangeSpec,
    /// Integrator for the refine stage.
    pub integrator: Integrator,
    /// Optional C-IUQ constraint.
    pub constraint: Option<UncertainConstraint>,
}

impl UncertainRequest {
    /// An unconstrained IUQ request.
    pub fn iuq(issuer: Issuer, range: RangeSpec) -> Self {
        UncertainRequest {
            issuer,
            range,
            integrator: Integrator::Auto,
            constraint: None,
        }
    }

    /// A constrained C-IUQ request.
    pub fn ciuq(issuer: Issuer, range: RangeSpec, qp: f64, strategy: CiuqStrategy) -> Self {
        UncertainRequest {
            issuer,
            range,
            integrator: Integrator::Auto,
            constraint: Some(UncertainConstraint { qp, strategy }),
        }
    }

    /// Overrides the integrator.
    pub fn with_integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{PointEngine, UncertainEngine};
    use iloc_geometry::{Point, Rect};
    use iloc_uncertainty::{UncertainObject, UniformPdf};

    fn point_engine() -> PointEngine {
        PointEngine::build(
            (0..400)
                .map(|k| Point::new((k % 20) as f64 * 50.0, (k / 20) as f64 * 50.0))
                .collect(),
        )
    }

    fn uncertain_engine() -> UncertainEngine {
        UncertainEngine::build(
            (0..100)
                .map(|k| {
                    let c = Point::new(
                        (k % 10) as f64 * 100.0 + 50.0,
                        (k / 10) as f64 * 100.0 + 50.0,
                    );
                    UncertainObject::new(k as u64, UniformPdf::new(Rect::centered(c, 20.0, 20.0)))
                })
                .collect(),
        )
    }

    fn point_requests() -> Vec<PointRequest> {
        (0..64)
            .map(|k| {
                let c = Point::new(100.0 + k as f64 * 12.0, 300.0 + (k % 7) as f64 * 30.0);
                let issuer = Issuer::uniform(Rect::centered(c, 60.0, 60.0));
                if k % 3 == 0 {
                    PointRequest::cipq(
                        issuer,
                        RangeSpec::square(80.0),
                        0.2,
                        CipqStrategy::PExpanded,
                    )
                } else {
                    PointRequest::ipq(issuer, RangeSpec::square(80.0))
                }
            })
            .collect()
    }

    #[test]
    fn parallel_point_batch_is_bit_identical_to_sequential() {
        let engine = point_engine();
        let requests = point_requests();
        let par = execute_batch(&engine, &requests);
        let seq = execute_batch_sequential(&engine, &requests);
        assert_eq!(par.len(), seq.len());
        for (k, (a, b)) in par.iter().zip(&seq).enumerate() {
            assert!(a.same_matches(b), "request {k} diverged");
        }
    }

    #[test]
    fn parallel_uncertain_batch_is_bit_identical_to_sequential() {
        let engine = uncertain_engine();
        let requests: Vec<UncertainRequest> = (0..48)
            .map(|k| {
                let c = Point::new(80.0 + k as f64 * 18.0, 500.0);
                let issuer = Issuer::uniform(Rect::centered(c, 80.0, 80.0));
                match k % 3 {
                    0 => UncertainRequest::iuq(issuer, RangeSpec::square(120.0)),
                    1 => UncertainRequest::ciuq(
                        issuer,
                        RangeSpec::square(120.0),
                        0.3,
                        CiuqStrategy::PtiPExpanded,
                    ),
                    _ => UncertainRequest::ciuq(
                        issuer,
                        RangeSpec::square(120.0),
                        0.3,
                        CiuqStrategy::RTreeMinkowski,
                    ),
                }
            })
            .collect();
        let par = execute_batch(&engine, &requests);
        let seq = execute_batch_sequential(&engine, &requests);
        assert_eq!(par.len(), seq.len());
        for (k, (a, b)) in par.iter().zip(&seq).enumerate() {
            assert!(a.same_matches(b), "request {k} diverged");
        }
    }

    #[test]
    fn batch_answers_match_direct_engine_calls() {
        let engine = point_engine();
        let requests = point_requests();
        let batch = execute_batch(&engine, &requests);
        for (request, answer) in requests.iter().zip(&batch) {
            let direct = match request.constraint {
                None => engine.ipq_with(&request.issuer, request.range, request.integrator),
                Some(c) => engine.cipq_with(
                    &request.issuer,
                    request.range,
                    c.qp,
                    c.strategy,
                    request.integrator,
                ),
            };
            assert!(answer.same_matches(&direct));
        }
    }

    #[test]
    fn empty_batch() {
        let engine = point_engine();
        assert!(execute_batch(&engine, &[]).is_empty());
    }

    /// Answers request `k` with one match of id `k`, and records which
    /// threads answered.
    #[derive(Default)]
    struct Echo(std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>);

    impl BatchEngine for Echo {
        type Request = u64;

        fn execute_one_into(&self, request: &u64, _: &mut ExecutionContext, out: &mut QueryAnswer) {
            self.0.lock().unwrap().insert(std::thread::current().id());
            out.results.clear();
            out.results.push(crate::result::Match {
                id: iloc_uncertainty::ObjectId(*request),
                probability: 1.0,
            });
        }
    }

    fn workers() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    #[test]
    fn output_order_is_request_order_at_every_chunking_edge() {
        let w = workers();
        for len in [0, 1, w - 1, w, w + 1, 10 * w + 3] {
            let requests: Vec<u64> = (0..len as u64).map(|k| k * 7 + 3).collect();
            let answers = execute_batch(&Echo::default(), &requests);
            let ids: Vec<u64> = answers.iter().map(|a| a.results[0].id.0).collect();
            assert_eq!(ids, requests, "length {len}");
        }
    }

    #[test]
    fn chunks_run_on_more_than_one_thread() {
        let engine = Echo::default();
        let _ = execute_batch(&engine, &(0..1_000).collect::<Vec<u64>>());
        if workers() > 1 {
            let threads = engine.0.lock().unwrap().len();
            assert!(threads > 1, "{threads} thread(s) on {} CPUs", workers());
        }
    }
}
