//! **Figure 12** — C-IUQ: R-tree + Minkowski sum vs PTI +
//! `p`-expanded-query as the probability threshold varies.
//!
//! Paper: the PTI/p-expanded stack wins for all `Qp` (≈60 % gain at
//! `Qp = 0.6`); the gain is smaller than C-IPQ's because uncertainty
//! regions are harder to prune than points. Expected reproduction
//! shape: PTI curve at or below the R-tree curve, gap growing with
//! `Qp`. Past 0.5 the objects' own catalogs stop at their 0.5 level,
//! but the issuer's `Qp`-expanded query keeps shrinking.

use iloc_core::{CiuqStrategy, Issuer, RangeSpec};
use iloc_datagen::WorkloadGen;

use crate::config::{TestBed, DEFAULT_U, DEFAULT_W};
use crate::experiments::QP_SWEEP;
use crate::harness::{print_table, Row, Summary};

/// Runs the experiment and returns the rows.
pub fn run(bed: &TestBed) -> Vec<Row> {
    let range = RangeSpec::square(DEFAULT_W);
    let mut rows = Vec::new();
    for &qp in &QP_SWEEP {
        let issuers = WorkloadGen::new(1200).issuer_regions(bed.scale.queries, DEFAULT_U);
        let s_rtree = Summary::collect(bed.scale.queries, |q| {
            bed.long_beach.ciuq(
                &Issuer::uniform(issuers[q]),
                range,
                qp,
                CiuqStrategy::RTreeMinkowski,
            )
        });
        rows.push(Row {
            x: qp,
            series: "R-tree + Minkowski".into(),
            summary: s_rtree,
        });
        let s_pti = Summary::collect(bed.scale.queries, |q| {
            bed.long_beach.ciuq(
                &Issuer::uniform(issuers[q]),
                range,
                qp,
                CiuqStrategy::PtiPExpanded,
            )
        });
        rows.push(Row {
            x: qp,
            series: "PTI + p-expanded".into(),
            summary: s_pti,
        });
    }
    print_table(
        "Figure 12: T vs Qp (C-IUQ, Long Beach)",
        "probability threshold Qp",
        &rows,
    );
    rows
}
