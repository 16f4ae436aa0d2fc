//! Workload execution and result aggregation.

use std::time::Duration;

use iloc_core::{QueryAnswer, QueryStats};

/// Averages accumulated over one experiment configuration
/// (one point on one curve of one figure).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Queries executed.
    pub queries: usize,
    /// Mean response time in milliseconds (the paper's `T`).
    pub avg_ms: f64,
    /// Mean candidates surviving the index filter.
    pub avg_candidates: f64,
    /// Mean probability evaluations (refinement work).
    pub avg_prob_evals: f64,
    /// Mean index nodes/buckets visited (logical I/O).
    pub avg_node_accesses: f64,
    /// Mean result-set size.
    pub avg_results: f64,
    /// Mean candidates removed by Strategies 1/2/3.
    pub avg_pruned: (f64, f64, f64),
}

impl Summary {
    /// Runs `queries` times via `f` and averages the outcome.
    pub fn collect(queries: usize, mut f: impl FnMut(usize) -> QueryAnswer) -> Summary {
        assert!(queries > 0, "need at least one query");
        let mut total = QueryStats::new();
        let mut results = 0usize;
        let mut elapsed = Duration::ZERO;
        for q in 0..queries {
            let ans = f(q);
            results += ans.results.len();
            elapsed += ans.stats.elapsed;
            total.absorb(&ans.stats);
        }
        let n = queries as f64;
        Summary {
            queries,
            avg_ms: elapsed.as_secs_f64() * 1_000.0 / n,
            avg_candidates: total.access.candidates as f64 / n,
            avg_prob_evals: total.prob_evals as f64 / n,
            avg_node_accesses: total.access.nodes_visited as f64 / n,
            avg_results: results as f64 / n,
            avg_pruned: (
                total.pruned_s1 as f64 / n,
                total.pruned_s2 as f64 / n,
                total.pruned_s3 as f64 / n,
            ),
        }
    }
}

/// One printed row of an experiment table.
#[derive(Debug, Clone)]
pub struct Row {
    /// x-axis value (e.g. `u` or `Qp`).
    pub x: f64,
    /// Series label (e.g. "basic" / "enhanced").
    pub series: String,
    /// The averaged measurements.
    pub summary: Summary,
}

impl Row {
    /// Renders the row in the fixed-width format used by `reproduce`.
    pub fn render(&self) -> String {
        format!(
            "{:>8.2}  {:<28} T={:>9.3} ms  cand={:>9.1}  evals={:>9.1}  io={:>7.1}  results={:>8.1}",
            self.x,
            self.series,
            self.summary.avg_ms,
            self.summary.avg_candidates,
            self.summary.avg_prob_evals,
            self.summary.avg_node_accesses,
            self.summary.avg_results,
        )
    }
}

/// Prints an experiment header plus rows.
pub fn print_table(title: &str, x_name: &str, rows: &[Row]) {
    println!();
    println!("== {title}");
    println!("   ({x_name} on the x-axis; T = mean response time)");
    for row in rows {
        println!("{}", row.render());
    }
}

/// Serialises rows as CSV (plotting-friendly; one line per row).
pub fn to_csv(x_name: &str, rows: &[Row]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{x_name},series,queries,avg_ms,avg_candidates,avg_prob_evals,avg_node_accesses,avg_results,pruned_s1,pruned_s2,pruned_s3\n"
    ));
    for r in rows {
        let m = &r.summary;
        s.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{}\n",
            r.x,
            r.series.replace(',', ";"),
            m.queries,
            m.avg_ms,
            m.avg_candidates,
            m.avg_prob_evals,
            m.avg_node_accesses,
            m.avg_results,
            m.avg_pruned.0,
            m.avg_pruned.1,
            m.avg_pruned.2,
        ));
    }
    s
}

/// Writes rows as a CSV file.
pub fn write_csv(
    path: impl AsRef<std::path::Path>,
    x_name: &str,
    rows: &[Row],
) -> std::io::Result<()> {
    std::fs::write(path, to_csv(x_name, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc_core::Match;
    use iloc_uncertainty::ObjectId;

    #[test]
    fn collect_averages() {
        let s = Summary::collect(4, |q| {
            let mut a = QueryAnswer::default();
            a.stats.prob_evals = (q + 1) as u64; // 1,2,3,4 → avg 2.5
            a.stats.elapsed = Duration::from_millis(2);
            if q % 2 == 0 {
                a.results.push(Match {
                    id: ObjectId(q as u64),
                    probability: 0.5,
                });
            }
            a
        });
        assert_eq!(s.queries, 4);
        assert!((s.avg_prob_evals - 2.5).abs() < 1e-12);
        assert!((s.avg_ms - 2.0).abs() < 0.5);
        assert!((s.avg_results - 0.5).abs() < 1e-12);
    }

    #[test]
    fn row_renders_all_fields() {
        let r = Row {
            x: 250.0,
            series: "enhanced".into(),
            summary: Summary::default(),
        };
        let s = r.render();
        assert!(s.contains("enhanced"));
        assert!(s.contains("250.00"));
    }

    #[test]
    fn csv_has_header_and_escapes_commas() {
        let rows = vec![Row {
            x: 0.5,
            series: "a,b".into(),
            summary: Summary {
                queries: 3,
                avg_ms: 1.5,
                ..Default::default()
            },
        }];
        let csv = to_csv("qp", &rows);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("qp,series,queries"));
        let row = lines.next().unwrap();
        assert!(row.starts_with("0.5,a;b,3,1.5"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn csv_roundtrips_through_file() {
        let rows = vec![Row {
            x: 1.0,
            series: "s".into(),
            summary: Summary::default(),
        }];
        // Unique per process *and* per call: parallel test runs (or two
        // checkouts sharing a machine) must not race on one temp path.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_nanos();
        let path =
            std::env::temp_dir().join(format!("iloc_csv_test_{}_{nanos}.csv", std::process::id()));
        write_csv(&path, "u", &rows).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, to_csv("u", &rows));
        let _ = std::fs::remove_file(path);
    }
}
