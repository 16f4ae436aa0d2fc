//! Engine for uncertain-object databases (IUQ / C-IUQ) — a thin facade
//! over [`crate::pipeline::QueryPipeline`]: it owns the object table
//! and **one** index, the PTI, and assembles one pipeline per query.
//!
//! The PTI is also where the objects' U-catalogs live: an object is
//! its id and pdf, and its six default-level p-bounds are computed
//! once, on the way in (bulk build or insert), into the PTI's
//! level-major table. Everything that needs a bound reads it there —
//! the PTI's own threshold probe and the Section-5.2 object-level
//! tests ([`UncertainEngine::bounds`]). IUQ and the Minkowski baseline probe the
//! same tree at threshold 0, where it is the plain R-tree over the
//! uncertainty regions.
//!
//! Object table, slot → row map, id map, bound table and tree are all
//! copy-on-write: `clone()` copies spines, and an update to the clone
//! copies the pages, sub-maps and tree path it touches — see
//! [`super::table`] and [`iloc_index::pti`].

use iloc_geometry::Rect;
use iloc_index::{LevelRow, Pages, Pti, PtiParams, PtiQuery, RangeIndex};
use iloc_uncertainty::catalog::{default_bounds, DEFAULT_LEVELS};
use iloc_uncertainty::{ObjectId, PdfKind, UncertainObject};

use crate::eval::constrained::PruneContext;
use crate::integrate::Integrator;
use crate::pipeline::{
    BatchEngine, EvaluatorKind, ExecutionContext, PreparedQuery, QueryPipeline, StoredBounds,
    UncertainRequest,
};
use crate::query::{CiuqStrategy, Issuer, RangeSpec};
use crate::result::QueryAnswer;

use super::table::ObjectTable;

/// An uncertain-object database over a PTI, answering IUQ and C-IUQ.
///
/// Object ids are expected to be unique within one engine (the
/// serving layer routes updates by id).
#[derive(Debug, Clone)]
pub struct UncertainEngine {
    /// The objects by slot and the id → slot map over them; PTI items
    /// are slots.
    table: ObjectTable<UncertainObject>,
    pti: Pti<u32>,
    /// Object slot → row of the PTI's bound table. A vacated slot
    /// keeps its entry, naming a row the PTI has freed.
    rows: Pages<u32>,
}

/// The rows one pdf occupies in the table: its [`DEFAULT_LEVELS`]
/// p-bounds.
fn p_bounds(pdf: &PdfKind) -> [Rect; DEFAULT_LEVELS.len()] {
    default_bounds(pdf).map(|b| b.rect)
}

impl UncertainEngine {
    /// Builds the engine: computes every object's U-catalog into the
    /// level table and bulk loads the PTI over it. Object `k` sits in
    /// slot `k` and holds table row `k`.
    pub fn build(objects: Vec<UncertainObject>) -> Self {
        let n = u32::try_from(objects.len()).expect("object slots are 32-bit");
        let mut columns: Vec<Vec<Rect>> = DEFAULT_LEVELS
            .iter()
            .map(|_| Vec::with_capacity(objects.len()))
            .collect();
        for object in &objects {
            for (column, b) in columns.iter_mut().zip(p_bounds(object.pdf())) {
                column.push(b);
            }
        }
        let pti = Pti::bulk_load_columns(
            DEFAULT_LEVELS.to_vec(),
            columns,
            (0..n).collect(),
            PtiParams::default(),
        );
        UncertainEngine {
            table: ObjectTable::build(objects),
            pti,
            rows: (0..n).collect(),
        }
    }

    /// Inserts one uncertain object dynamically: its p-bounds are
    /// computed here, straight into a row of the PTI's table (a row a
    /// departure freed, when there is one). A new id takes a new last
    /// slot. **Upsert**: when the id is already live, the object is
    /// replaced in its slot (every `Update::Move`, and a retried or
    /// duplicate arrival) — one removal and one insertion in the index
    /// and no other object touched.
    pub fn insert(&mut self, object: UncertainObject) {
        let bounds = p_bounds(object.pdf());
        let (slot, replaced) = self.table.upsert(object);
        let Some(old) = replaced else {
            self.rows.push(self.pti.insert(bounds, slot));
            return;
        };
        assert!(
            self.pti.remove(old.region(), slot),
            "object table and index out of sync"
        );
        *self
            .rows
            .get_mut(slot as usize)
            .expect("a live slot has a row") = self.pti.insert(bounds, slot);
    }

    /// Removes the object with the given id, maintaining the index
    /// incrementally (Guttman condense-tree, exact per-level repair of
    /// the merged bounds); returns `true` when present.
    ///
    /// One [`Pti::remove`], which frees the object's table row, and
    /// nothing else: the object's slot is left vacated (its `rows`
    /// entry too), no other object moves, and no object page is
    /// written.
    pub fn remove(&mut self, id: ObjectId) -> bool {
        let Some((slot, removed)) = self.table.remove(id) else {
            return false;
        };
        assert!(
            self.pti.remove(removed.region(), slot),
            "object table and index out of sync"
        );
        true
    }

    /// Validates the engine's invariants (tests): the PTI's own, and
    /// that the object table, the id map and the slot → row map all
    /// describe the same live set.
    ///
    /// # Panics
    ///
    /// Panics on the first violation.
    pub fn check_invariants(&self) {
        assert_eq!(self.pti.check_invariants(), self.len(), "index size");
        assert_eq!(self.rows.len(), self.slots(), "row map size");
        self.table.check_invariants();
        for (slot, object) in self.live() {
            assert_eq!(self.bounds(slot).rect(0), object.region(), "row map");
        }
    }

    /// `(shared, total)`: how many of this engine's pages — tree
    /// nodes, object and row pages, bound-table pages, id sub-maps —
    /// are the very allocations `other` holds.
    #[doc(hidden)]
    pub fn shared_pages_with(&self, other: &Self) -> (usize, usize) {
        [
            self.table.shared_pages_with(&other.table),
            self.rows.shared_pages_with(&other.rows),
            self.pti.shared_pages_with(&other.pti),
        ]
        .iter()
        .fold((0, 0), |acc, c| (acc.0 + c.0, acc.1 + c.1))
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` when the database is empty.
    pub fn is_empty(&self) -> bool {
        self.table.len() == 0
    }

    /// Number of object slots, vacated ones included.
    pub fn slots(&self) -> usize {
        self.table.slots()
    }

    /// Every slot's object, by slot — what PTI items index. A vacated
    /// slot still holds the object that departed from it;
    /// [`Self::live`] skips those.
    pub fn objects(&self) -> &Pages<UncertainObject> {
        self.table.objects()
    }

    /// The live objects with their slots, in slot order.
    pub fn live(&self) -> impl Iterator<Item = (u32, &UncertainObject)> + '_ {
        self.table.live()
    }

    /// Looks up the live object with this id, if present (the serving
    /// layer uses this to compute a commit's dirty region from the
    /// *pre-update* regions of departing and moving objects).
    pub fn find(&self, id: ObjectId) -> Option<&UncertainObject> {
        self.table.find(id)
    }

    /// Probes the PTI at threshold 0 — the plain R-tree over the
    /// uncertainty regions — with `filter`, pushing the slots of the
    /// objects overlapping it into `out`; the DFS runs on `scratch`.
    pub(crate) fn probe_into(
        &self,
        filter: Rect,
        stats: &mut iloc_index::AccessStats,
        scratch: &mut iloc_index::TraversalScratch,
        out: &mut Vec<u32>,
    ) {
        self.pti.query_range_scratch(filter, stats, scratch, out);
    }

    /// Raw R-tree filter results — indices into [`Self::objects`] whose
    /// regions overlap `filter`. Exposed for harness-level ablations
    /// that assemble their own refinement pipelines.
    pub fn raw_candidates(
        &self,
        filter: iloc_geometry::Rect,
        stats: &mut iloc_index::AccessStats,
    ) -> Vec<u32> {
        self.pti.query_range(filter, stats)
    }

    /// The stored p-bounds of every object slot (what the Section-5.2
    /// pruning chain reads).
    pub fn stored_bounds(&self) -> StoredBounds<'_> {
        StoredBounds {
            index: &self.pti,
            rows: &self.rows,
        }
    }

    /// The stored p-bounds of the object in `slot` — its
    /// [`DEFAULT_LEVELS`] U-catalog, read in place from the PTI's
    /// table.
    pub fn bounds(&self, slot: u32) -> LevelRow<'_> {
        self.stored_bounds().of(slot)
    }

    /// Assembles and runs the plan of one request by `method`. IUQ and
    /// the paper's C-IUQ baseline probe the PTI at threshold 0 with the
    /// Minkowski sum and refine every candidate; the PTI plan runs the
    /// threshold probe (Section 5.3) and the Section 5.2 pruning stack.
    /// The matches come out in probe order, not by id.
    pub(crate) fn execute_by(
        &self,
        request: &UncertainRequest,
        method: EvaluatorKind,
        ctx: &mut ExecutionContext,
        answer: &mut QueryAnswer,
    ) {
        ctx.prepare(request.integrator);
        let query = PreparedQuery::new(&request.issuer, request.range);
        let mut plan = QueryPipeline {
            query,
            objects: self.objects(),
            prune: None,
            refine: method,
            accept: request.accept(),
        };
        if let Some(c) = request.constraint {
            assert!((0.0..=1.0).contains(&c.qp), "threshold must be in [0, 1]");
        }
        match request.constraint {
            // At `qp = 0` no object can ever be pruned (every test
            // bounds `pi` by a positive level), so the plan prunes
            // nothing, and the `Qp`-expanded query is `R ⊕ U0` itself.
            Some(c) if c.strategy == CiuqStrategy::PtiPExpanded => {
                let mut p_expanded = query.expanded;
                if c.qp > 0.0 {
                    let prune = PruneContext::new(&request.issuer, request.range, c.qp);
                    p_expanded = prune.p_expanded;
                    plan.prune = Some((prune, self.stored_bounds()));
                }
                let probe = PtiQuery {
                    expanded: query.expanded,
                    p_expanded,
                    threshold: c.qp,
                };
                plan.run_into(ctx, answer, |stats, scratch, out| {
                    self.pti.query_scratch(&probe, stats, scratch, out)
                })
            }
            _ => plan.run_into(ctx, answer, |stats, scratch, out| {
                self.probe_into(query.expanded, stats, scratch, out)
            }),
        }
    }

    /// **IUQ** (Definition 4) via the enhanced pipeline: Minkowski
    /// filter + Lemma 4 refinement with the best available integrator.
    pub fn iuq(&self, issuer: &Issuer, range: RangeSpec) -> QueryAnswer {
        self.execute_one(&UncertainRequest::iuq(issuer.clone(), range))
    }

    /// IUQ via the **basic method** (Section 3.3, Eq. 4): numerical
    /// integration over the issuer region for every candidate — the
    /// slow baseline of Figure 8.
    pub fn iuq_basic(&self, issuer: &Issuer, range: RangeSpec, per_axis: usize) -> QueryAnswer {
        let request = UncertainRequest::iuq(issuer.clone(), range);
        let mut answer = QueryAnswer::default();
        ExecutionContext::new(Integrator::Auto).gather_into(1, &mut answer, |_, ctx, part| {
            self.execute_by(&request, EvaluatorKind::Basic { per_axis }, ctx, part)
        });
        answer
    }

    /// **C-IUQ** (Definition 6): objects with `pi ≥ qp`, with the index
    /// and pruning stack chosen by `strategy` (Figure 12 compares the
    /// two).
    pub fn ciuq(
        &self,
        issuer: &Issuer,
        range: RangeSpec,
        qp: f64,
        strategy: CiuqStrategy,
    ) -> QueryAnswer {
        self.execute_one(&UncertainRequest::ciuq(issuer.clone(), range, qp, strategy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::minkowski_query;
    use iloc_geometry::{Point, Rect};
    use iloc_uncertainty::UniformPdf;

    fn grid_objects() -> Vec<UncertainObject> {
        // 15×15 uncertain objects with 30×30 regions spaced 70 apart.
        let mut objs = Vec::new();
        let mut id = 0u64;
        for i in 0..15 {
            for j in 0..15 {
                let c = Point::new(50.0 + i as f64 * 70.0, 50.0 + j as f64 * 70.0);
                objs.push(UncertainObject::new(
                    id,
                    UniformPdf::new(Rect::centered(c, 15.0, 15.0)),
                ));
                id += 1;
            }
        }
        objs
    }

    fn issuer() -> Issuer {
        Issuer::uniform(Rect::from_coords(450.0, 450.0, 550.0, 550.0))
    }

    #[test]
    fn iuq_probabilities_in_unit_interval_and_positive() {
        let engine = UncertainEngine::build(grid_objects());
        let ans = engine.iuq(&issuer(), RangeSpec::square(100.0));
        assert!(!ans.results.is_empty());
        for m in &ans.results {
            assert!(m.probability > 0.0 && m.probability <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn iuq_matches_exhaustive_lemma4() {
        let engine = UncertainEngine::build(grid_objects());
        let iss = issuer();
        let range = RangeSpec::square(120.0);
        let expanded = minkowski_query(&iss, range);
        let ans = engine.iuq(&iss, range);
        for obj in engine.objects() {
            let pi = crate::integrate::closed::uniform_uniform(
                iss.region(),
                obj.region(),
                range,
                expanded,
            );
            match ans.probability_of(obj.id) {
                Some(got) => assert!((got - pi).abs() < 1e-12),
                None => assert!(pi <= 1e-12, "missing object with pi={pi}"),
            }
        }
    }

    #[test]
    fn basic_method_converges_to_enhanced() {
        let engine = UncertainEngine::build(grid_objects());
        let iss = issuer();
        let range = RangeSpec::square(100.0);
        let fast = engine.iuq(&iss, range);
        let slow = engine.iuq_basic(&iss, range, 80);
        assert_eq!(fast.results.len(), slow.results.len());
        for (a, b) in fast.results.iter().zip(&slow.results) {
            assert_eq!(a.id, b.id);
            assert!(
                (a.probability - b.probability).abs() < 5e-3,
                "{} vs {}",
                a.probability,
                b.probability
            );
        }
    }

    #[test]
    fn ciuq_strategies_return_identical_answers() {
        let engine = UncertainEngine::build(grid_objects());
        let iss = issuer();
        let range = RangeSpec::square(120.0);
        for &qp in &[0.0, 0.1, 0.25, 0.4, 0.6, 0.9] {
            let a = engine.ciuq(&iss, range, qp, CiuqStrategy::RTreeMinkowski);
            let b = engine.ciuq(&iss, range, qp, CiuqStrategy::PtiPExpanded);
            let ids_a: Vec<_> = a.results.iter().map(|m| m.id).collect();
            let ids_b: Vec<_> = b.results.iter().map(|m| m.id).collect();
            assert_eq!(ids_a, ids_b, "qp={qp}");
            for m in &a.results {
                assert!(m.probability >= qp && m.probability > 0.0);
            }
            // The PTI pipeline must do no more probability evaluations.
            assert!(b.stats.prob_evals <= a.stats.prob_evals, "qp={qp}");
        }
    }

    #[test]
    fn ciuq_pti_pruning_reduces_work_at_high_thresholds() {
        let engine = UncertainEngine::build(grid_objects());
        let iss = issuer();
        let range = RangeSpec::square(150.0);
        let base = engine.ciuq(&iss, range, 0.0, CiuqStrategy::PtiPExpanded);
        let tight = engine.ciuq(&iss, range, 0.5, CiuqStrategy::PtiPExpanded);
        assert!(tight.stats.prob_evals <= base.stats.prob_evals);
        assert!(
            tight.stats.access.candidates <= base.stats.access.candidates,
            "{} vs {}",
            tight.stats.access.candidates,
            base.stats.access.candidates
        );
    }

    #[test]
    fn empty_engine() {
        let engine = UncertainEngine::build(Vec::new());
        assert!(engine.is_empty());
        let ans = engine.iuq(&issuer(), RangeSpec::square(10.0));
        assert!(ans.results.is_empty());
    }

    #[test]
    fn insert_upserts_live_ids() {
        use iloc_uncertainty::ObjectId;
        let mut engine = UncertainEngine::build(grid_objects());
        let n = engine.len();
        // A duplicate arrival replaces the live object in the table and
        // in the index.
        engine.insert(UncertainObject::new(
            0u64,
            UniformPdf::new(Rect::centered(Point::new(500.0, 500.0), 10.0, 10.0)),
        ));
        assert_eq!(engine.len(), n);
        // In its slot: the table keeps its order, nothing was re-keyed.
        let ids: Vec<u64> = engine.objects().iter().map(|o| o.id.0).collect();
        assert_eq!(ids, (0..n as u64).collect::<Vec<_>>());
        let ans = engine.iuq(&issuer(), RangeSpec::square(60.0));
        assert!(ans.probability_of(ObjectId(0)).is_some());
        // Gone from where it was, at threshold 0 and through the
        // threshold probe.
        let old_home = Issuer::uniform(Rect::centered(Point::new(50.0, 50.0), 5.0, 5.0));
        for strategy in [CiuqStrategy::RTreeMinkowski, CiuqStrategy::PtiPExpanded] {
            let ans = engine.ciuq(&old_home, RangeSpec::square(5.0), 0.0, strategy);
            assert!(ans.probability_of(ObjectId(0)).is_none());
        }
        // No orphan: the id is fully gone after one removal.
        assert!(engine.remove(ObjectId(0)));
        assert!(!engine.remove(ObjectId(0)));
        assert_eq!(engine.len(), n - 1);
    }

    #[test]
    fn dynamic_inserts_equal_bulk_build() {
        let objs = grid_objects();
        let bulk = UncertainEngine::build(objs.clone());
        let mut dynamic = UncertainEngine::build(Vec::new());
        for o in objs {
            dynamic.insert(o);
        }
        assert_eq!(dynamic.len(), bulk.len());
        let iss = issuer();
        let range = RangeSpec::square(150.0);
        for &qp in &[0.0, 0.3, 0.6] {
            let a = bulk.ciuq(&iss, range, qp, CiuqStrategy::PtiPExpanded);
            let b = dynamic.ciuq(&iss, range, qp, CiuqStrategy::PtiPExpanded);
            let ids_a: Vec<_> = a.results.iter().map(|m| m.id).collect();
            let ids_b: Vec<_> = b.results.iter().map(|m| m.id).collect();
            assert_eq!(ids_a, ids_b, "qp={qp}");
        }
    }
}
