//! Design-choice ablations beyond the paper's figures (the README's
//! "Reproducing the paper" section):
//!
//! * integrator trade-off (exact / Monte-Carlo) for IUQ;
//! * filter index choice (naive scan / R-tree) for IPQ;
//! * the three C-IUQ pruning strategies, individually and combined;
//! * safe-envelope slack vs index probes for a standing IPQ;
//! * Gaussian uncertain objects: exact closed form vs Monte-Carlo, and
//!   pruning power against uniform objects.

use iloc_core::eval::constrained::{
    strategy1_prunes, strategy2_prunes, strategy3_prunes, PruneContext,
};
use iloc_core::expand::minkowski_query;
use iloc_core::{
    BatchEngine, Integrator, Issuer, PointEngine, PointRequest, RangeSpec, ShardedEngine,
    SubscriptionRegistry, UncertainRequest,
};
use iloc_datagen::{california_points, point_objects, WorkloadGen};
use iloc_geometry::Point;
use iloc_geometry::Rect;
use iloc_index::{AccessStats, NaiveIndex, RTree, RTreeParams, RangeIndex};
use iloc_uncertainty::LocationPdf;

use crate::config::{TestBed, DEFAULT_U, DEFAULT_W};
use crate::harness::{print_table, Row, Summary};

/// Integrator ablation: same IUQ workload under the two numerical
/// backends. Returns rows labelled by backend.
pub fn integrators(bed: &TestBed) -> Vec<Row> {
    let range = RangeSpec::square(DEFAULT_W);
    let queries = bed.scale.mc_queries;
    let backends: [(&str, Integrator); 2] = [
        ("exact closed form", Integrator::Auto),
        ("monte-carlo 250", Integrator::MonteCarlo { samples: 250 }),
    ];
    let mut rows = Vec::new();
    for (label, integ) in backends {
        let issuers = WorkloadGen::new(1400).issuer_regions(queries, DEFAULT_U);
        let s = Summary::collect(queries, |q| {
            let request = UncertainRequest::iuq(Issuer::uniform(issuers[q]), range);
            bed.long_beach.execute_one(&request.with_integrator(integ))
        });
        rows.push(Row {
            x: 0.0,
            series: label.into(),
            summary: s,
        });
    }
    print_table(
        "Ablation: integrator back-ends (IUQ, Long Beach)",
        "-",
        &rows,
    );
    rows
}

/// Index ablation: the same Minkowski-sum filter answered by a naive
/// scan and by the R-tree (plus duality refinement), on the point
/// database.
pub fn index_choice(bed: &TestBed) -> Vec<Row> {
    // Rebuild raw indexes over the same points the testbed uses.
    let pts = california_points(bed.scale.point_count, bed.scale.seed);
    let objs = point_objects(&pts);
    let entries: Vec<(Rect, u32)> = objs
        .iter()
        .enumerate()
        .map(|(k, o)| (Rect::from_point(o.loc), k as u32))
        .collect();
    let naive = NaiveIndex::new(entries.clone());
    let rtree = RTree::bulk_load(entries, RTreeParams::default());

    let range = RangeSpec::square(DEFAULT_W);
    let queries = bed.scale.queries;
    let mut rows = Vec::new();

    let mut run_index = |label: &str, index: &dyn RangeIndex<u32>| {
        let issuers = WorkloadGen::new(1600).issuer_regions(queries, DEFAULT_U);
        let s = Summary::collect(queries, |q| {
            let issuer = Issuer::uniform(issuers[q]);
            let start = std::time::Instant::now();
            let mut answer = iloc_core::QueryAnswer::default();
            let filter = minkowski_query(&issuer, range);
            let mut stats = AccessStats::new();
            let candidates = index.query_range(filter, &mut stats);
            answer.stats.access = stats;
            for idx in candidates {
                let o = &objs[idx as usize];
                answer.stats.prob_evals += 1;
                let pi = issuer.pdf().prob_in_rect(range.at(o.loc));
                if pi > 0.0 {
                    answer.results.push(iloc_core::Match {
                        id: o.id,
                        probability: pi,
                    });
                }
            }
            answer.stats.elapsed = start.elapsed();
            answer
        });
        rows.push(Row {
            x: 0.0,
            series: label.into(),
            summary: s,
        });
    };
    run_index("naive scan", &naive);
    run_index("r-tree", &rtree);
    print_table(
        "Ablation: filter index choice (IPQ, California)",
        "-",
        &rows,
    );
    rows
}

/// Gaussian-object ablation: IUQ over a truncated-Gaussian Long Beach
/// database, comparing the paper's Monte-Carlo evaluation against this
/// workspace's exact separable closed form (an extension beyond the
/// paper — see `integrate::closed::uniform_separable`).
pub fn gaussian_objects(bed: &TestBed) -> Vec<Row> {
    let engine = bed.gaussian_long_beach();
    let range = RangeSpec::square(DEFAULT_W);
    let queries = bed.scale.mc_queries;
    let backends: [(&str, Integrator); 2] = [
        ("exact separable (ours)", Integrator::Auto),
        (
            "monte-carlo 250 (paper)",
            Integrator::MonteCarlo { samples: 250 },
        ),
    ];
    let mut rows = Vec::new();
    for (label, integ) in backends {
        let issuers = WorkloadGen::new(1800).issuer_regions(queries, DEFAULT_U);
        let s = Summary::collect(queries, |q| {
            let request = UncertainRequest::iuq(Issuer::uniform(issuers[q]), range);
            engine.execute_one(&request.with_integrator(integ))
        });
        rows.push(Row {
            x: 0.0,
            series: label.into(),
            summary: s,
        });
    }
    print_table(
        "Ablation: Gaussian uncertain objects — exact closed form vs Monte-Carlo (IUQ)",
        "-",
        &rows,
    );
    rows
}

/// Pruning-power ablation: C-IUQ on uniform vs Gaussian object
/// databases at the same threshold. Gaussian pdfs concentrate mass
/// centrally, so their p-bounds are strictly tighter and Strategies
/// 1–3 (and the PTI) prune more — quantifying how much the paper's
/// machinery gains from peaky distributions.
pub fn gaussian_pruning(bed: &TestBed) -> Vec<Row> {
    let gaussian = bed.gaussian_long_beach();
    let range = RangeSpec::square(DEFAULT_W);
    let qp = 0.4;
    let queries = bed.scale.mc_queries;
    let mut rows = Vec::new();
    let mut run = |label: &str, engine: &iloc_core::UncertainEngine| {
        let issuers = WorkloadGen::new(1900).issuer_regions(queries, DEFAULT_U);
        let s = Summary::collect(queries, |q| {
            engine.ciuq(
                &Issuer::uniform(issuers[q]),
                range,
                qp,
                iloc_core::CiuqStrategy::PtiPExpanded,
            )
        });
        rows.push(Row {
            x: 0.0,
            series: label.into(),
            summary: s,
        });
    };
    run("uniform objects", &bed.long_beach);
    run("gaussian objects", &gaussian);
    print_table(
        "Ablation: pruning power on uniform vs Gaussian objects (C-IUQ at Qp=0.4)",
        "-",
        &rows,
    );
    rows
}

/// Continuous-query ablation: safe-envelope slack vs index probes for
/// a moving issuer re-evaluating an IPQ every tick (an extension
/// beyond the paper's snapshot model), on the serving layer's
/// subscription registry over the California points as one shard.
pub fn continuous_slack(bed: &TestBed) -> Vec<Row> {
    let range = RangeSpec::square(DEFAULT_W);
    let ticks = bed.scale.queries.max(100);
    // A circular tour of the space with the default uncertainty box.
    let trajectory: Vec<Issuer> = (0..ticks)
        .map(|t| {
            let a = t as f64 / ticks as f64 * std::f64::consts::TAU;
            let c = Point::new(5_000.0 + 3_000.0 * a.cos(), 5_000.0 + 3_000.0 * a.sin());
            Issuer::uniform(iloc_geometry::Rect::centered(c, DEFAULT_U, DEFAULT_U))
        })
        .collect();
    let engine: ShardedEngine<PointEngine> =
        ShardedEngine::build(bed.california.objects().iter().copied().collect(), 1);
    let mut rows = Vec::new();
    for slack in [0.0, 100.0, 250.0, 500.0, 1_000.0] {
        let mut registry = SubscriptionRegistry::new();
        let mut id = 0;
        let s = Summary::collect(ticks, |t| {
            let start = std::time::Instant::now();
            let issuer = &trajectory[t];
            if t == 0 {
                id = registry.subscribe(&engine, PointRequest::ipq(issuer.clone(), range), slack);
            } else {
                registry
                    .tick(&engine, id, issuer.pdf().clone())
                    .expect("live subscription");
            }
            let mut answer = iloc_core::QueryAnswer {
                results: registry
                    .get(id)
                    .expect("live subscription")
                    .last_answer()
                    .to_vec(),
                stats: *registry.last_stats(),
            };
            answer.stats.elapsed = start.elapsed();
            answer
        });
        let probes = registry.get(id).expect("live subscription").probes();
        rows.push(Row {
            x: slack,
            series: format!("slack={slack} (probes={probes})"),
            summary: s,
        });
    }
    print_table(
        "Ablation: continuous IPQ safe-envelope slack (moving issuer, California)",
        "envelope slack",
        &rows,
    );
    rows
}

/// Pruning-strategy ablation for C-IUQ at `Qp = 0.4`: how many
/// R-tree-filtered candidates each strategy eliminates, alone and
/// combined.
pub fn pruning_strategies(bed: &TestBed) -> Vec<Row> {
    let range = RangeSpec::square(DEFAULT_W);
    let qp = 0.4;
    let queries = bed.scale.queries;
    let variants: [(&str, [bool; 3]); 5] = [
        ("no pruning", [false, false, false]),
        ("S1 only (p-bounds)", [true, false, false]),
        ("S2 only (p-expanded)", [false, true, false]),
        ("S1+S2", [true, true, false]),
        ("S1+S2+S3 (product)", [true, true, true]),
    ];
    let mut rows = Vec::new();
    for (label, [s1, s2, s3]) in variants {
        let issuers = WorkloadGen::new(1700).issuer_regions(queries, DEFAULT_U);
        let s = Summary::collect(queries, |q| {
            let issuer = Issuer::uniform(issuers[q]);
            let start = std::time::Instant::now();
            let mut answer = iloc_core::QueryAnswer::default();
            let ctx = PruneContext::new(&issuer, range, qp);
            let candidates = bed
                .long_beach
                .raw_candidates(ctx.expanded, &mut answer.stats.access);
            for idx in candidates {
                let obj = &bed.long_beach.objects()[idx as usize];
                let bounds = bed.long_beach.bounds(idx);
                if s1 && strategy1_prunes(&bounds, &ctx) {
                    answer.stats.pruned_s1 += 1;
                    continue;
                }
                if s2 && strategy2_prunes(&bounds, &ctx) {
                    answer.stats.pruned_s2 += 1;
                    continue;
                }
                if s3 && strategy3_prunes(&bounds, &ctx) {
                    answer.stats.pruned_s3 += 1;
                    continue;
                }
                answer.stats.prob_evals += 1;
                let mut qstats = iloc_core::QueryStats::new();
                let pi = Integrator::Auto.object_probability(
                    issuer.pdf(),
                    range,
                    obj.pdf(),
                    ctx.expanded,
                    0,
                    &mut qstats,
                );
                if pi >= qp && pi > 0.0 {
                    answer.results.push(iloc_core::Match {
                        id: obj.id,
                        probability: pi,
                    });
                }
            }
            answer.stats.elapsed = start.elapsed();
            answer
        });
        rows.push(Row {
            x: 0.0,
            series: label.into(),
            summary: s,
        });
    }
    print_table(
        "Ablation: C-IUQ pruning strategies at Qp=0.4 (Long Beach)",
        "-",
        &rows,
    );
    rows
}
