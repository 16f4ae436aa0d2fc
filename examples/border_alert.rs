//! Border alert: "receive an alarm when a military adversary has
//! crossed the border" (paper Section 1) — here inverted into a watch
//! query: which of our own monitored assets are close to a sensitive
//! line, given that both the assets *and* the observer drone are
//! imprecisely located?
//!
//! Demonstrates the Gaussian issuer model (Figure 13's setup): the
//! drone's navigation error is bell-shaped, not uniform, and the
//! Monte-Carlo and exact evaluation paths are compared on live data.
//!
//! ```text
//! cargo run --release --example border_alert
//! ```

use iloc::core::integrate::PAPER_MC_SAMPLES_POINT;
use iloc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(4242);

    // Ground sensors strung along the border (a diagonal band).
    let sensors: Vec<Point> = (0..2_000)
        .map(|k| {
            let t = k as f64 / 2_000.0;
            let along = t * 10_000.0;
            let across = 5_000.0 + (t * 12.0).sin() * 300.0 + rng.gen_range(-150.0..150.0);
            Point::new(along, across)
        })
        .collect();
    let engine = PointEngine::build(sensors);

    // The drone holds position near the border mid-point; its nav
    // solution is Gaussian inside a 600×600 error box.
    let drone_box = Rect::centered(Point::new(5_000.0, 5_200.0), 300.0, 300.0);
    let drone = Issuer::gaussian(drone_box);
    let range = RangeSpec::square(500.0);

    // Exact path (closed-form Gaussian rectangle masses).
    let exact = engine.cipq(&drone, range, 0.6, CipqStrategy::PExpanded);
    println!(
        "exact evaluation: {} sensor(s) within range at ≥60% confidence ({:.3} ms)",
        exact.results.len(),
        exact.stats.elapsed.as_secs_f64() * 1e3
    );

    // The paper's Monte-Carlo path (200 samples per candidate), as a
    // system without closed-form Gaussian masses would run it.
    let request = PointRequest::cipq(drone.clone(), range, 0.6, CipqStrategy::PExpanded);
    let mc = engine.execute_one(&request.with_integrator(Integrator::MonteCarlo {
        samples: PAPER_MC_SAMPLES_POINT,
    }));
    println!(
        "monte-carlo evaluation: {} sensor(s) ({:.3} ms, {} samples drawn)",
        mc.results.len(),
        mc.stats.elapsed.as_secs_f64() * 1e3,
        mc.stats.mc_samples
    );

    // The two paths agree on all but threshold-boundary sensors.
    let exact_ids: std::collections::HashSet<_> = exact.results.iter().map(|m| m.id).collect();
    let mc_ids: std::collections::HashSet<_> = mc.results.iter().map(|m| m.id).collect();
    let disagreements = exact_ids.symmetric_difference(&mc_ids).count();
    println!(
        "agreement: {} / {} answers identical ({} borderline flips from sampling noise)",
        exact_ids.intersection(&mc_ids).count(),
        exact_ids.len().max(mc_ids.len()),
        disagreements
    );
}
