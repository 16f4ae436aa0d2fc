//! Engine for point-object databases (IPQ / C-IPQ) — a thin facade
//! over [`crate::pipeline::QueryPipeline`]: it owns the object table
//! and the R-tree and assembles one pipeline per query.
//!
//! Table, id map and tree are all copy-on-write (paged, sub-mapped,
//! node by node): `clone()` copies three spines, and an update to the
//! clone copies the object page, the id sub-maps and the tree path it
//! touches — see [`super::table`] and [`iloc_index::rtree`].

use iloc_geometry::{Point, Rect};
use iloc_index::{Pages, RTree, RTreeParams, RangeIndex, TraversalScratch};
use iloc_uncertainty::{ObjectId, PointObject};

use crate::expand::p_expanded_query;
use crate::integrate::Integrator;
use crate::pipeline::{
    BatchEngine, EvaluatorKind, ExecutionContext, PointRequest, PreparedQuery, QueryPipeline,
};
use crate::query::{CipqStrategy, Issuer, RangeSpec};
use crate::result::QueryAnswer;

use super::table::ObjectTable;

/// A point-object database with its R-tree, answering IPQ and C-IPQ.
///
/// Object ids are expected to be unique within one engine (the
/// serving layer routes updates by id); [`PointEngine::insert`]
/// allocates collision-free ids automatically.
#[derive(Debug, Clone)]
pub struct PointEngine {
    /// The objects by slot and the id → slot map over them; tree items
    /// are slots.
    table: ObjectTable<PointObject>,
    tree: RTree<u32>,
    /// Next id handed out by [`PointEngine::insert`]; kept strictly
    /// above every stored id so departures can never make a later
    /// arrival collide with a live object.
    next_id: u64,
}

impl PointEngine {
    /// Builds an engine over raw points (ids are assigned sequentially).
    pub fn build(points: Vec<Point>) -> Self {
        Self::from_objects(
            points
                .into_iter()
                .enumerate()
                .map(|(k, p)| PointObject::new(k as u64, p))
                .collect(),
        )
    }

    /// Builds an engine over existing point objects.
    pub fn from_objects(objects: Vec<PointObject>) -> Self {
        let entries = objects
            .iter()
            .enumerate()
            .map(|(k, o)| (Rect::from_point(o.loc), k as u32))
            .collect();
        let tree = RTree::bulk_load(entries, RTreeParams::default());
        let next_id = objects.iter().map(|o| o.id.0 + 1).max().unwrap_or(0);
        PointEngine {
            table: ObjectTable::build(objects),
            tree,
            next_id,
        }
    }

    /// Inserts one point object dynamically; returns its fresh id.
    pub fn insert(&mut self, loc: Point) -> iloc_uncertainty::ObjectId {
        let id = iloc_uncertainty::ObjectId(self.next_id);
        self.insert_object(PointObject { id, loc });
        id
    }

    /// Inserts one point object with a caller-chosen id (the sharded
    /// serving layer routes arrivals by id). **Upsert**: when the id
    /// is already live, the object is replaced in its slot (every
    /// `Update::Move`, and a retried or duplicate arrival) — one index
    /// removal and one insertion, no other object re-keyed, and the
    /// table keeps its order, so a catalog whose slots are in id order
    /// keeps answering without a sort however much it moves.
    pub fn insert_object(&mut self, object: PointObject) {
        self.next_id = self.next_id.max(object.id.0 + 1);
        let extent = Rect::from_point(object.loc);
        let (slot, replaced) = self.table.upsert(object);
        if let Some(old) = replaced {
            let removed = self.tree.remove(Rect::from_point(old.loc), slot);
            assert!(removed, "object table and R-tree out of sync");
        }
        self.tree.insert(extent, slot);
    }

    /// Removes the object with the given id, maintaining the R-tree
    /// incrementally (no rebuild); returns `true` when present.
    ///
    /// One tree removal and nothing else: the object's slot is left
    /// vacated, no other object moves, and no object page is written.
    pub fn remove(&mut self, id: iloc_uncertainty::ObjectId) -> bool {
        let Some((slot, removed)) = self.table.remove(id) else {
            return false;
        };
        let unindexed = self.tree.remove(Rect::from_point(removed.loc), slot);
        assert!(unindexed, "object table and R-tree out of sync");
        true
    }

    /// Validates the engine's invariants (tests): the R-tree's, and
    /// that the tree and the id map describe the same live set.
    ///
    /// # Panics
    ///
    /// Panics on the first violation.
    pub fn check_invariants(&self) {
        assert_eq!(self.tree.check_invariants(), self.len(), "index size");
        self.table.check_invariants();
    }

    /// `(shared, total)`: how many of this engine's pages — tree
    /// nodes, object pages, id sub-maps — are the very allocations
    /// `other` holds.
    #[doc(hidden)]
    pub fn shared_pages_with(&self, other: &Self) -> (usize, usize) {
        let (a, b) = (
            self.table.shared_pages_with(&other.table),
            self.tree.shared_pages_with(&other.tree),
        );
        (a.0 + b.0, a.1 + b.1)
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

    /// Every slot's object, by slot — what tree items index. A vacated
    /// slot still holds the object that departed from it; [`Self::live`]
    /// skips those.
    pub fn objects(&self) -> &Pages<PointObject> {
        self.table.objects()
    }

    /// The live objects with their slots, in slot order.
    pub fn live(&self) -> impl Iterator<Item = (u32, &PointObject)> + '_ {
        self.table.live()
    }

    /// Looks up the live object with this id, if present (the serving
    /// layer uses this to compute a commit's dirty region from the
    /// *pre-update* locations of departing and moving objects).
    pub fn find(&self, id: ObjectId) -> Option<&PointObject> {
        self.table.find(id)
    }

    /// Probes the R-tree with `filter`, pushing the slots of the
    /// objects inside it into `out`; the DFS runs on `scratch`.
    pub(crate) fn probe_into(
        &self,
        filter: Rect,
        stats: &mut iloc_index::AccessStats,
        scratch: &mut TraversalScratch,
        out: &mut Vec<u32>,
    ) {
        self.tree.query_range_scratch(filter, stats, scratch, out);
    }

    /// Assembles and runs the plan of one request by `method`: the
    /// R-tree probed with the Minkowski sum (Lemma 1), or with the
    /// `p`-expanded query when a C-IPQ asks for it; no pruning (point
    /// objects carry no catalogs); the request's accept policy.
    fn execute_by(
        &self,
        request: &PointRequest,
        method: EvaluatorKind,
        ctx: &mut ExecutionContext,
        answer: &mut QueryAnswer,
    ) {
        ctx.prepare(request.integrator);
        let query = PreparedQuery::new(&request.issuer, request.range);
        let filter = match request.constraint {
            None => query.expanded,
            Some(c) => {
                assert!((0.0..=1.0).contains(&c.qp), "threshold must be in [0, 1]");
                match c.strategy {
                    CipqStrategy::MinkowskiSum => query.expanded,
                    CipqStrategy::PExpanded => {
                        p_expanded_query(&request.issuer, request.range, c.qp)
                    }
                }
            }
        };
        QueryPipeline {
            query,
            objects: self.objects(),
            prune: None,
            refine: method,
            accept: request.accept(),
        }
        .execute_into(ctx, answer, |stats, scratch, out| {
            self.probe_into(filter, stats, scratch, out)
        });
    }

    /// **IPQ** (Definition 3) via the enhanced pipeline: Minkowski-sum
    /// filter (Lemma 1) + exact duality refinement (Lemma 3).
    pub fn ipq(&self, issuer: &Issuer, range: RangeSpec) -> QueryAnswer {
        self.execute_one(&PointRequest::ipq(issuer.clone(), range))
    }

    /// IPQ via the **basic method** (Section 3.3, Eq. 2): numerical
    /// integration over the issuer region for every candidate.
    /// `per_axis` controls the sampling grid (the paper's "set of
    /// sampling points").
    pub fn ipq_basic(&self, issuer: &Issuer, range: RangeSpec, per_axis: usize) -> QueryAnswer {
        let mut answer = QueryAnswer::default();
        self.execute_by(
            &PointRequest::ipq(issuer.clone(), range),
            EvaluatorKind::Basic { per_axis },
            &mut ExecutionContext::new(Integrator::Auto),
            &mut answer,
        );
        answer
    }

    /// **C-IPQ** (Definition 5): objects with `pi ≥ qp`, with the
    /// filter chosen by `strategy` (Figure 11 compares the two).
    pub fn cipq(
        &self,
        issuer: &Issuer,
        range: RangeSpec,
        qp: f64,
        strategy: CipqStrategy,
    ) -> QueryAnswer {
        self.execute_one(&PointRequest::cipq(issuer.clone(), range, qp, strategy))
    }
}

impl BatchEngine for PointEngine {
    type Request = PointRequest;

    fn execute_one_into(
        &self,
        request: &PointRequest,
        ctx: &mut ExecutionContext,
        answer: &mut QueryAnswer,
    ) {
        self.execute_by(request, EvaluatorKind::Duality, ctx, answer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc_uncertainty::LocationPdf;

    fn grid_points() -> Vec<Point> {
        // 21×21 grid with spacing 50 covering [0,1000]².
        let mut pts = Vec::new();
        for i in 0..=20 {
            for j in 0..=20 {
                pts.push(Point::new(i as f64 * 50.0, j as f64 * 50.0));
            }
        }
        pts
    }

    fn issuer() -> Issuer {
        Issuer::uniform(Rect::from_coords(450.0, 450.0, 550.0, 550.0))
    }

    #[test]
    fn ipq_returns_only_positive_probabilities() {
        let engine = PointEngine::build(grid_points());
        let ans = engine.ipq(&issuer(), RangeSpec::square(100.0));
        assert!(!ans.results.is_empty());
        for m in &ans.results {
            assert!(m.probability > 0.0 && m.probability <= 1.0 + 1e-12);
        }
        // A point at the issuer's centre is always in range.
        let centre_id = engine
            .objects()
            .iter()
            .find(|o| o.loc == Point::new(500.0, 500.0))
            .unwrap()
            .id;
        assert!((ans.probability_of(centre_id).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ipq_matches_exhaustive_evaluation() {
        let engine = PointEngine::build(grid_points());
        let iss = issuer();
        let range = RangeSpec::square(120.0);
        let ans = engine.ipq(&iss, range);
        // Exhaustive: Lemma 3 on every object.
        for obj in engine.objects() {
            let pi = iss.pdf().prob_in_rect(range.at(obj.loc));
            match ans.probability_of(obj.id) {
                Some(got) => assert!((got - pi).abs() < 1e-12),
                None => assert!(pi <= 0.0 + 1e-12, "missing object with pi={pi}"),
            }
        }
    }

    #[test]
    fn basic_method_agrees_with_enhanced() {
        let engine = PointEngine::build(grid_points());
        let iss = issuer();
        let range = RangeSpec::square(100.0);
        let fast = engine.ipq(&iss, range);
        let slow = engine.ipq_basic(&iss, range, 120);
        assert_eq!(fast.results.len(), slow.results.len());
        for (a, b) in fast.results.iter().zip(&slow.results) {
            assert_eq!(a.id, b.id);
            assert!((a.probability - b.probability).abs() < 0.02);
        }
        // And the basic method did vastly more work.
        assert!(slow.stats.grid_cells > 100 * fast.stats.prob_evals);
    }

    #[test]
    fn cipq_strategies_agree_on_results() {
        let engine = PointEngine::build(grid_points());
        let iss = issuer();
        let range = RangeSpec::square(100.0);
        for &qp in &[0.0, 0.1, 0.3, 0.5, 0.8, 1.0] {
            let a = engine.cipq(&iss, range, qp, CipqStrategy::MinkowskiSum);
            let b = engine.cipq(&iss, range, qp, CipqStrategy::PExpanded);
            let ids_a: Vec<_> = a.results.iter().map(|m| m.id).collect();
            let ids_b: Vec<_> = b.results.iter().map(|m| m.id).collect();
            assert_eq!(ids_a, ids_b, "qp={qp}");
            // The p-expanded filter must never test more candidates.
            assert!(b.stats.access.candidates <= a.stats.access.candidates);
            for m in &a.results {
                assert!(m.probability >= qp);
            }
        }
    }

    #[test]
    fn cipq_p_expanded_prunes_more_as_threshold_rises() {
        let engine = PointEngine::build(grid_points());
        let iss = issuer();
        let range = RangeSpec::square(150.0);
        let mut prev = u64::MAX;
        for &qp in &[0.1, 0.2, 0.3, 0.4, 0.5] {
            let ans = engine.cipq(&iss, range, qp, CipqStrategy::PExpanded);
            assert!(ans.stats.access.candidates <= prev);
            prev = ans.stats.access.candidates;
        }
    }

    #[test]
    fn empty_engine() {
        let engine = PointEngine::build(Vec::new());
        assert!(engine.is_empty());
        let ans = engine.ipq(&issuer(), RangeSpec::square(10.0));
        assert!(ans.results.is_empty());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn cipq_rejects_bad_threshold() {
        let engine = PointEngine::build(grid_points());
        let _ = engine.cipq(
            &issuer(),
            RangeSpec::square(10.0),
            1.5,
            CipqStrategy::PExpanded,
        );
    }

    #[test]
    fn insert_object_upserts_live_ids() {
        let mut engine = PointEngine::build(vec![Point::new(10.0, 10.0), Point::new(20.0, 20.0)]);
        // A duplicate arrival replaces the live object, never
        // duplicating its id.
        engine.insert_object(PointObject::new(0u64, Point::new(500.0, 500.0)));
        assert_eq!(engine.len(), 2);
        // In its slot: the table keeps its order, nothing was re-keyed.
        let ids: Vec<u64> = engine.objects().iter().map(|o| o.id.0).collect();
        assert_eq!(ids, [0, 1]);
        let old_home = Issuer::uniform(Rect::centered(Point::new(10.0, 10.0), 2.0, 2.0));
        assert!(engine
            .ipq(&old_home, RangeSpec::square(3.0))
            .results
            .is_empty());
        let iss = Issuer::uniform(Rect::centered(Point::new(500.0, 500.0), 30.0, 30.0));
        let ans = engine.ipq(&iss, RangeSpec::square(40.0));
        assert_eq!(ans.results.len(), 1);
        assert_eq!(ans.results[0].id, ObjectId(0));
        // No orphan: the id is fully gone after one removal.
        assert!(engine.remove(ObjectId(0)));
        assert!(!engine.remove(ObjectId(0)));
        assert_eq!(engine.len(), 1);
    }

    #[test]
    fn dynamic_point_inserts_are_queryable() {
        let mut engine = PointEngine::build(Vec::new());
        for p in grid_points() {
            engine.insert(p);
        }
        let reference = PointEngine::build(grid_points());
        let iss = issuer();
        let range = RangeSpec::square(120.0);
        let a = engine.ipq(&iss, range);
        let b = reference.ipq(&iss, range);
        assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.id, y.id);
            assert!((x.probability - y.probability).abs() < 1e-12);
        }
    }
}
