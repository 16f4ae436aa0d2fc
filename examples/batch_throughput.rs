//! Batched query serving: drain a large queue of imprecise queries
//! through `pipeline::execute_batch` (scoped threads, all cores) and check the
//! answers are bit-identical to sequential execution.
//!
//! ```text
//! cargo run --release --example batch_throughput [-- <num_queries>]
//! ```

use std::time::Instant;

use iloc::core::pipeline::{execute_batch, execute_batch_sequential, PointRequest};
use iloc::datagen::{california_points, WorkloadGen};
use iloc::prelude::*;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(50_000);

    let engine = PointEngine::build(california_points(62_000, 1));
    let mut gen = WorkloadGen::new(7);
    let requests: Vec<PointRequest> = (0..n)
        .map(|_| {
            PointRequest::ipq(
                Issuer::uniform(gen.issuer_region(250.0)),
                RangeSpec::square(500.0),
            )
        })
        .collect();

    let t = Instant::now();
    let sequential = execute_batch_sequential(&engine, &requests);
    let t_seq = t.elapsed();

    let t = Instant::now();
    let parallel = execute_batch(&engine, &requests);
    let t_par = t.elapsed();

    assert_eq!(sequential.len(), parallel.len());
    for (a, b) in sequential.iter().zip(&parallel) {
        assert!(a.same_matches(b), "parallel answers diverged");
    }

    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!("{n} IPQ requests over 62k points:");
    println!(
        "  sequential {t_seq:?}  ({:.0} q/s)",
        n as f64 / t_seq.as_secs_f64()
    );
    println!(
        "  parallel   {t_par:?}  ({:.0} q/s, {cores} core(s), {:.1}x)",
        n as f64 / t_par.as_secs_f64(),
        t_seq.as_secs_f64() / t_par.as_secs_f64()
    );
    println!("  answers bit-identical ✓");
}
