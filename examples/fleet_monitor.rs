//! Continuous monitoring: a delivery truck drives across town while
//! the dispatcher keeps a standing query — "which depots are within
//! 300 units of the truck?" — refreshed every tick.
//!
//! The truck's reported position is imprecise (dead-reckoning box),
//! so each refresh is an imprecise range query. A
//! [`SubscriptionRegistry`] holds it as a standing query and amortises
//! index work with a safe envelope: most ticks are answered from
//! cached candidates without touching the R-tree, with answers
//! identical to fresh snapshots.
//!
//! ```text
//! cargo run --release --example fleet_monitor
//! ```

use iloc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(77);

    // 3 000 depots.
    let depots: Vec<PointObject> = (0..3_000u64)
        .map(|k| {
            let loc = Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0));
            PointObject::new(k, loc)
        })
        .collect();
    let engine: ShardedEngine<PointEngine> = ShardedEngine::build(depots, 1);

    // The truck drives a loop; its uncertainty box is ±60 units.
    let ticks = 500usize;
    let trajectory: Vec<Issuer> = (0..ticks)
        .map(|t| {
            let a = t as f64 / ticks as f64 * std::f64::consts::TAU;
            let c = Point::new(5_000.0 + 2_500.0 * a.cos(), 5_000.0 + 2_500.0 * a.sin());
            Issuer::uniform(Rect::centered(c, 60.0, 60.0))
        })
        .collect();

    let range = RangeSpec::square(300.0);
    let mut registry = SubscriptionRegistry::new();
    let start = std::time::Instant::now();
    // Tick 0 registers the standing query; every later tick moves it.
    let id = registry.subscribe(
        &engine,
        PointRequest::ipq(trajectory[0].clone(), range),
        250.0,
    );
    let mut total_answers = registry.get(id).expect("subscribed").last_answer().len();
    for issuer in &trajectory[1..] {
        registry
            .tick(&engine, id, issuer.pdf().clone())
            .expect("subscribed");
        total_answers += registry.get(id).expect("subscribed").last_answer().len();
    }
    let elapsed = start.elapsed();
    let monitor = registry.get(id).expect("subscribed");

    println!(
        "{ticks} refreshes in {:.1} ms ({:.1} µs/tick)",
        elapsed.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e6 / ticks as f64
    );
    println!(
        "index probes: {} (cache hits: {}, {:.0}% of ticks served from the envelope)",
        monitor.probes(),
        monitor.cache_hits(),
        100.0 * monitor.cache_hits() as f64 / ticks as f64
    );
    println!(
        "average answer size: {:.1} depots",
        total_answers as f64 / ticks as f64
    );

    // Cross-check the final tick against a fresh snapshot, bit for bit.
    let last = trajectory.last().expect("non-empty trajectory");
    let snapshot = engine
        .snapshot()
        .execute_one(&PointRequest::ipq(last.clone(), range));
    let continuous = monitor.last_answer();
    assert_eq!(snapshot.results.len(), continuous.len());
    for (a, b) in snapshot.results.iter().zip(continuous) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.probability.to_bits(), b.probability.to_bits());
    }
    println!(
        "final tick matches a fresh snapshot ({} answers)",
        snapshot.results.len()
    );
}
