//! **Figure 11** — C-IPQ: Minkowski-sum filter vs `p`-expanded-query
//! filter as the probability threshold `Qp` varies.
//!
//! Paper: the Minkowski curve is flat in `Qp` (the filter ignores the
//! threshold) while the p-expanded-query curve falls as `Qp` rises —
//! about 3× better at `Qp = 0.6`. Expected reproduction shape: same
//! ordering, p-expanded strictly cheaper with every rise in `Qp`: the
//! issuer's pdf is cut at exactly `Qp`, so past 0.5 its cut lines
//! cross and the filter shrinks below the range itself.

use iloc_core::{CipqStrategy, Issuer, RangeSpec};
use iloc_datagen::WorkloadGen;

use crate::config::{TestBed, DEFAULT_U, DEFAULT_W};
use crate::experiments::QP_SWEEP;
use crate::harness::{print_table, Row, Summary};

/// Runs the experiment and returns the rows.
pub fn run(bed: &TestBed) -> Vec<Row> {
    let range = RangeSpec::square(DEFAULT_W);
    let mut rows = Vec::new();
    for &qp in &QP_SWEEP {
        let issuers = WorkloadGen::new(1100).issuer_regions(bed.scale.queries, DEFAULT_U);
        let s_mink = Summary::collect(bed.scale.queries, |q| {
            bed.california.cipq(
                &Issuer::uniform(issuers[q]),
                range,
                qp,
                CipqStrategy::MinkowskiSum,
            )
        });
        rows.push(Row {
            x: qp,
            series: "Minkowski sum".into(),
            summary: s_mink,
        });
        let s_pexp = Summary::collect(bed.scale.queries, |q| {
            bed.california.cipq(
                &Issuer::uniform(issuers[q]),
                range,
                qp,
                CipqStrategy::PExpanded,
            )
        });
        rows.push(Row {
            x: qp,
            series: "p-expanded-query".into(),
            summary: s_pexp,
        });
    }
    print_table(
        "Figure 11: T vs Qp (C-IPQ, California)",
        "probability threshold Qp",
        &rows,
    );
    rows
}
