//! Shape assertions on the reproduced experiments: we cannot pin the
//! paper's absolute 2007 milliseconds, but the *qualitative claims* of
//! each figure must hold at any scale. These tests run the experiment
//! code at a reduced scale and assert the claims.

use iloc_bench::experiments::{ablations, fig08, fig09, fig11, fig12, fig13};
use iloc_bench::{Row, Scale, TestBed};

fn tiny_bed() -> TestBed {
    TestBed::build(Scale {
        point_count: 3_000,
        uncertain_count: 2_500,
        queries: 30,
        basic_queries: 3,
        mc_queries: 5,
        seed: 2007,
    })
}

fn series<'a>(rows: &'a [Row], name: &str) -> Vec<&'a Row> {
    rows.iter().filter(|r| r.series.contains(name)).collect()
}

#[test]
fn fig08_basic_dominates_enhanced_and_gap_grows() {
    let bed = tiny_bed();
    let rows = fig08::run(&bed);
    let basic = series(&rows, "basic");
    let enhanced = series(&rows, "enhanced");
    assert_eq!(basic.len(), enhanced.len());
    // Claim 1: basic is slower at every u (compare per-candidate cost
    // to be robust to timer noise: the basic method does ~900 grid
    // cells per candidate, the enhanced method a closed form).
    for (b, e) in basic.iter().zip(&enhanced) {
        let b_cost = b.summary.avg_ms / b.summary.avg_candidates.max(1.0);
        let e_cost = e.summary.avg_ms / e.summary.avg_candidates.max(1.0);
        assert!(
            b_cost > 3.0 * e_cost,
            "u={}: basic/cand {b_cost} not ≫ enhanced/cand {e_cost}",
            b.x
        );
    }
    // Claim 2: the absolute gap widens with u (compare the sweep's
    // endpoints).
    let gap_lo = basic[0].summary.avg_ms - enhanced[0].summary.avg_ms;
    let gap_hi =
        basic[basic.len() - 1].summary.avg_ms - enhanced[enhanced.len() - 1].summary.avg_ms;
    assert!(gap_hi > gap_lo, "gap did not widen: {gap_lo} → {gap_hi}");
}

#[test]
fn fig09_candidates_grow_with_u_and_w() {
    let bed = tiny_bed();
    let rows = fig09::run(&bed);
    // Within each w-series, candidate counts (the deterministic cost
    // driver behind T) must grow with u.
    for w in [500.0, 1000.0, 1500.0] {
        let s = series(&rows, &format!("w={w}"));
        assert_eq!(s.len(), 10);
        assert!(
            s.last().unwrap().summary.avg_candidates > s[0].summary.avg_candidates,
            "w={w}: candidates did not grow with u"
        );
    }
    // And across series at fixed u, larger w ⇒ more candidates.
    let at_u = |w: f64, i: usize| series(&rows, &format!("w={w}"))[i].summary.avg_candidates;
    for i in [0, 5, 9] {
        assert!(at_u(1000.0, i) > at_u(500.0, i));
        assert!(at_u(1500.0, i) > at_u(1000.0, i));
    }
}

#[test]
fn fig11_p_expanded_prunes_monotonically() {
    let bed = tiny_bed();
    let rows = fig11::run(&bed);
    let mink = series(&rows, "Minkowski");
    let pexp = series(&rows, "p-expanded");
    assert_eq!(mink.len(), 11);
    // Minkowski filtering ignores Qp: flat candidate counts.
    for r in &mink {
        assert_eq!(r.summary.avg_candidates, mink[0].summary.avg_candidates);
    }
    // p-expanded candidates are non-increasing in Qp and strictly
    // below Minkowski's by Qp = 0.5.
    let mut prev = f64::INFINITY;
    for r in &pexp {
        assert!(r.summary.avg_candidates <= prev + 1e-9, "qp={}", r.x);
        prev = r.summary.avg_candidates;
    }
    let at = |rows: &[&Row], qp: f64| {
        rows.iter()
            .find(|r| (r.x - qp).abs() < 1e-9)
            .unwrap()
            .summary
            .avg_candidates
    };
    assert!(at(&pexp, 0.5) < 0.8 * at(&mink, 0.5));
    // The filter is cut at exactly Qp, so it keeps falling past the
    // catalog's top level (the paper's "falls as Qp rises").
    assert!(at(&pexp, 0.8) < at(&pexp, 0.5));
    // Identical answer sets at every threshold.
    for (m, p) in mink.iter().zip(&pexp) {
        assert_eq!(m.summary.avg_results, p.summary.avg_results, "qp={}", m.x);
    }
}

#[test]
fn fig12_pti_does_less_refinement_work() {
    let bed = tiny_bed();
    let rows = fig12::run(&bed);
    let rtree = series(&rows, "R-tree");
    let pti = series(&rows, "PTI");
    for (r, p) in rtree.iter().zip(&pti) {
        assert_eq!(r.summary.avg_results, p.summary.avg_results, "qp={}", r.x);
        assert!(
            p.summary.avg_prob_evals <= r.summary.avg_prob_evals + 1e-9,
            "qp={}: PTI evals {} vs R-tree {}",
            r.x,
            p.summary.avg_prob_evals,
            r.summary.avg_prob_evals
        );
    }
    // At a mid threshold the PTI must be doing substantially less work.
    let at = |rows: &[&Row], qp: f64| {
        rows.iter()
            .find(|r| (r.x - qp).abs() < 1e-9)
            .unwrap()
            .summary
            .avg_prob_evals
    };
    assert!(at(&pti, 0.5) < 0.8 * at(&rtree, 0.5));
    assert!(at(&pti, 0.8) <= at(&pti, 0.5));
}

#[test]
fn fig13_p_expanded_stays_at_or_below_the_minkowski_sum() {
    let bed = tiny_bed();
    let rows = fig13::run(&bed);
    let mink = series(&rows, "Minkowski");
    let pexp = series(&rows, "p-expanded");
    assert_eq!(mink.len(), 11);
    assert_eq!(pexp.len(), 11);
    for (m, p) in mink.iter().zip(&pexp) {
        assert_eq!(m.x, p.x);
        // The p-expanded query is inside the Minkowski sum ...
        assert!(
            p.summary.avg_candidates <= m.summary.avg_candidates,
            "qp={}: p-expanded cand {} vs Minkowski {}",
            p.x,
            p.summary.avg_candidates,
            m.summary.avg_candidates
        );
        // ... and every estimate is the object's own, so its matches
        // are a subset of the Minkowski sum's.
        assert!(
            p.summary.avg_results <= m.summary.avg_results,
            "qp={}: p-expanded results {} vs Minkowski {}",
            p.x,
            p.summary.avg_results,
            m.summary.avg_results
        );
    }
    // The cut prunes: fewer candidates by Qp = 0.5 than at Qp = 0.
    assert!(pexp[5].summary.avg_candidates < pexp[0].summary.avg_candidates);
}

#[test]
fn ablation_strategies_compose() {
    let bed = tiny_bed();
    let rows = ablations::pruning_strategies(&bed);
    let evals = |name: &str| {
        rows.iter()
            .find(|r| r.series.contains(name))
            .unwrap()
            .summary
            .avg_prob_evals
    };
    let results = |name: &str| {
        rows.iter()
            .find(|r| r.series.contains(name))
            .unwrap()
            .summary
            .avg_results
    };
    // Identical answers regardless of pruning configuration.
    for name in ["S1 only", "S2 only", "S1+S2", "S1+S2+S3"] {
        assert_eq!(results(name), results("no pruning"), "{name}");
    }
    // Each strategy alone does no worse than no pruning; combined does
    // no worse than each alone.
    assert!(evals("S1 only") <= evals("no pruning"));
    assert!(evals("S2 only") <= evals("no pruning"));
    assert!(evals("S1+S2") <= evals("S1 only").min(evals("S2 only")));
    assert!(evals("S1+S2+S3") <= evals("S1+S2"));
}

#[test]
fn ablation_continuous_slack_changes_cost_not_answers() {
    let bed = tiny_bed();
    let rows = ablations::continuous_slack(&bed);
    // The envelope decides what the index is asked, never what
    // qualifies: every slack filters to the same candidates and
    // answers the same.
    for r in &rows {
        assert_eq!(r.summary.avg_candidates, rows[0].summary.avg_candidates);
        assert_eq!(r.summary.avg_results, rows[0].summary.avg_results);
    }
    let io = |slack: f64| {
        rows.iter()
            .find(|r| r.x == slack)
            .unwrap()
            .summary
            .avg_node_accesses
    };
    assert!(
        io(1_000.0) < io(0.0),
        "a wide envelope must read fewer nodes"
    );
}

#[test]
fn ablation_index_choices_agree() {
    let bed = tiny_bed();
    let rows = ablations::index_choice(&bed);
    for r in &rows {
        assert_eq!(r.summary.avg_results, rows[0].summary.avg_results);
    }
    // The R-tree's logical I/O must be far below the naive scan's item
    // count.
    let naive = rows.iter().find(|r| r.series.contains("naive")).unwrap();
    let rtree = rows.iter().find(|r| r.series.contains("r-tree")).unwrap();
    assert!(rtree.summary.avg_prob_evals == naive.summary.avg_prob_evals);
}
