//! Self-contained query requests and the engine trait that answers
//! them one at a time through a caller's reusable context.

use crate::integrate::Integrator;
use crate::query::{CipqStrategy, CiuqStrategy, Issuer, RangeSpec};
use crate::result::QueryAnswer;

use super::{AcceptPolicy, ExecutionContext};

/// An engine that answers self-contained query requests.
pub trait BatchEngine: Sync {
    /// One self-contained query request.
    type Request: Sync;

    /// Answers one request through the caller's context (which the
    /// engine prepares and resets), overwriting `answer`. Reusing one
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

/// The constrained part of a request (C-IPQ / C-IUQ, Definitions 5–6).
#[derive(Debug, Clone, Copy)]
pub struct Constraint<S> {
    /// Probability threshold `Qp`.
    pub qp: f64,
    /// Filter strategy to compare (Figures 11 and 12).
    pub strategy: S,
}

/// The constrained part of a point request.
pub type PointConstraint = Constraint<CipqStrategy>;

/// The constrained part of an uncertain request.
pub type UncertainConstraint = Constraint<CiuqStrategy>;

/// One self-contained request: an unconstrained query, or a
/// constrained one when a constraint is present. `S` is the catalog's
/// constrained-query strategy.
#[derive(Debug, Clone)]
pub struct QueryRequest<S> {
    /// The imprecise issuer.
    pub issuer: Issuer,
    /// The range shape.
    pub range: RangeSpec,
    /// Integrator for the refine stage.
    pub integrator: Integrator,
    /// Optional constraint.
    pub constraint: Option<Constraint<S>>,
}

/// A request against a point database: an IPQ, or a C-IPQ.
pub type PointRequest = QueryRequest<CipqStrategy>;

/// A request against an uncertain-object database: an IUQ, or a C-IUQ.
pub type UncertainRequest = QueryRequest<CiuqStrategy>;

impl<S> QueryRequest<S> {
    fn new(issuer: Issuer, range: RangeSpec, constraint: Option<Constraint<S>>) -> Self {
        QueryRequest {
            issuer,
            range,
            integrator: Integrator::Auto,
            constraint,
        }
    }

    /// Overrides the integrator (the experiments use Monte-Carlo for
    /// non-uniform pdfs).
    pub fn with_integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Which refined probabilities make the answer.
    pub fn accept(&self) -> AcceptPolicy {
        match &self.constraint {
            None => AcceptPolicy::Positive,
            Some(c) => AcceptPolicy::AtLeast(c.qp),
        }
    }
}

impl PointRequest {
    /// An unconstrained IPQ request.
    pub fn ipq(issuer: Issuer, range: RangeSpec) -> Self {
        QueryRequest::new(issuer, range, None)
    }

    /// A constrained C-IPQ request.
    pub fn cipq(issuer: Issuer, range: RangeSpec, qp: f64, strategy: CipqStrategy) -> Self {
        QueryRequest::new(issuer, range, Some(Constraint { qp, strategy }))
    }
}

impl UncertainRequest {
    /// An unconstrained IUQ request.
    pub fn iuq(issuer: Issuer, range: RangeSpec) -> Self {
        QueryRequest::new(issuer, range, None)
    }

    /// A constrained C-IUQ request.
    pub fn ciuq(issuer: Issuer, range: RangeSpec, qp: f64, strategy: CiuqStrategy) -> Self {
        QueryRequest::new(issuer, range, Some(Constraint { qp, strategy }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PointEngine;
    use crate::result::Match;
    use iloc_geometry::{Point, Rect};
    use iloc_uncertainty::LocationPdf;

    #[test]
    fn batch_answers_match_direct_engine_calls() {
        // Every request answers exactly as Lemma 3 applied to every
        // object directly: both filters, both accept policies.
        let engine = PointEngine::build(
            (0..400)
                .map(|k| Point::new((k % 20) as f64 * 50.0, (k / 20) as f64 * 50.0))
                .collect(),
        );
        let range = RangeSpec::square(80.0);
        for k in 0..64 {
            let c = Point::new(100.0 + k as f64 * 12.0, 300.0 + (k % 7) as f64 * 30.0);
            let issuer = Issuer::uniform(Rect::centered(c, 60.0, 60.0));
            let request = match k % 3 {
                0 => PointRequest::cipq(issuer, range, 0.2, CipqStrategy::PExpanded),
                1 => PointRequest::cipq(issuer, range, 0.2, CipqStrategy::MinkowskiSum),
                _ => PointRequest::ipq(issuer, range),
            };
            let accept = request.accept();
            let direct = QueryAnswer {
                results: engine
                    .objects()
                    .iter()
                    .map(|o| Match {
                        id: o.id,
                        probability: request.issuer.pdf().prob_in_rect(range.at(o.loc)),
                    })
                    .filter(|m| accept.accepts(m.probability))
                    .collect(),
                ..QueryAnswer::default()
            };
            assert!(!direct.results.is_empty(), "{k}: degenerate");
            assert!(engine.execute_one(&request).same_matches(&direct), "{k}");
        }
    }
}
