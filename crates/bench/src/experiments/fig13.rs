//! **Figure 13** — C-IPQ under a non-uniform (Gaussian) issuer pdf,
//! evaluated with Monte-Carlo integration (the paper's sensitivity
//! analysis calls for ≥200 samples per C-IPQ evaluation).
//!
//! Paper: same ordering as Figure 11 (p-expanded-query below Minkowski
//! sum at every threshold) but at ~20× higher absolute cost because
//! every candidate now needs hundreds of samples instead of one area
//! ratio. Expected reproduction shape: both curves far above their
//! Figure-11 counterparts; p-expanded still wins and falls with `Qp`.

use iloc_core::integrate::PAPER_MC_SAMPLES_POINT;
use iloc_core::{BatchEngine, CipqStrategy, Integrator, Issuer, PointRequest, RangeSpec};
use iloc_datagen::WorkloadGen;

use crate::config::{TestBed, DEFAULT_U, DEFAULT_W};
use crate::experiments::QP_SWEEP;
use crate::harness::{print_table, Row, Summary};

/// Runs the experiment and returns the rows.
pub fn run(bed: &TestBed) -> Vec<Row> {
    let range = RangeSpec::square(DEFAULT_W);
    let mc = Integrator::MonteCarlo {
        samples: PAPER_MC_SAMPLES_POINT,
    };
    let mut rows = Vec::new();
    for &qp in &QP_SWEEP {
        let issuers = WorkloadGen::new(1300).issuer_regions(bed.scale.mc_queries, DEFAULT_U);
        let s_mink = Summary::collect(bed.scale.mc_queries, |q| {
            let issuer = Issuer::gaussian(issuers[q]);
            let request = PointRequest::cipq(issuer, range, qp, CipqStrategy::MinkowskiSum);
            bed.california.execute_one(&request.with_integrator(mc))
        });
        rows.push(Row {
            x: qp,
            series: "Minkowski sum (Gaussian/MC)".into(),
            summary: s_mink,
        });
        let s_pexp = Summary::collect(bed.scale.mc_queries, |q| {
            let issuer = Issuer::gaussian(issuers[q]);
            let request = PointRequest::cipq(issuer, range, qp, CipqStrategy::PExpanded);
            bed.california.execute_one(&request.with_integrator(mc))
        });
        rows.push(Row {
            x: qp,
            series: "p-expanded-query (Gaussian/MC)".into(),
            summary: s_pexp,
        });
    }
    print_table(
        "Figure 13: T vs Qp under Gaussian issuer pdf (C-IPQ, Monte-Carlo)",
        "probability threshold Qp",
        &rows,
    );
    rows
}
