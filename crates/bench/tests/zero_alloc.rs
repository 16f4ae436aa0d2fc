//! The zero-allocation gate under `cargo test`: every loadgen preset,
//! run against an in-process deployment with the counting allocator
//! installed, must report **exactly zero** front-end allocations per
//! operation across its steady window — queries through
//! `ShardServer::execute_into` behind a server's event loop, the same
//! through a router's scatter-gather, and envelope-cached ticks with
//! and without an idle herd attached. CI repeats the gate across real
//! process boundaries (`loadgen --check-allocs` in the smoke jobs);
//! this is the copy that fails a plain `cargo test -q`.
//!
//! One process holds the clients and the servers here, so the count
//! covers the client's side of the steady window too. `harness = false`
//! because the allocator is global: libtest's own threads would
//! allocate inside the measured window.
//!
//! The write side's share of the invariant is gated here as well: a
//! warm [`SubscriptionRegistry::pump`] that patches 64 standing
//! queries from a 256-update commit's touched set allocates nothing.

use iloc_bench::loadgen::{run, Scenario, SCENARIOS};
use iloc_core::pipeline::PointRequest;
use iloc_core::serve::{ShardedEngine, Update};
use iloc_core::subscribe::{PumpReport, SubscriptionRegistry};
use iloc_core::{Issuer, PointEngine, RangeSpec};
use iloc_geometry::{Point, Rect};
use iloc_server::alloc_count::{self, CountingAllocator};
use iloc_uncertainty::PointObject;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// 64 standing IPQs over 40K points; two 256-move batches that undo
/// each other, so every buffer has seen its largest size after one
/// round. Every pump must patch all 64 and allocate nothing.
fn patched_pump_allocates_nothing() {
    const SIDE: u64 = 200;
    let at = |k: u64, shift: f64| {
        Point::new(
            (k % SIDE) as f64 * 5.0 + shift,
            (k / SIDE) as f64 * 5.0 + shift,
        )
    };
    let objects = (0..SIDE * SIDE)
        .map(|k| PointObject::new(k, at(k, 0.0)))
        .collect();
    let engine: ShardedEngine<PointEngine> = ShardedEngine::build(objects, 4);
    let mut registry: SubscriptionRegistry<PointEngine> = SubscriptionRegistry::new();
    for k in 0..64u64 {
        let center = Point::new(60.0 + (k % 8) as f64 * 125.0, 60.0 + (k / 8) as f64 * 125.0);
        let issuer = Issuer::uniform(Rect::centered(center, 25.0, 25.0));
        registry.subscribe(
            &engine,
            PointRequest::ipq(issuer, RangeSpec::square(50.0)),
            20.0,
        );
    }
    // Every 157th object, so the batch is spread over the domain, sent
    // 400 units away and back.
    let batch = |shift: f64| {
        (0..256u64).map(move |k| Update::Move(PointObject::new(k * 157, at(k * 157 + 80, shift))))
    };
    let mut totals = PumpReport::default();
    for round in 0..8 {
        engine.submit_all(batch(if round % 2 == 0 { 2.0 } else { 0.0 }));
        engine.commit();
        let before = alloc_count::allocations();
        let report = registry.pump(&engine, |_, _, _| {});
        let allocated = alloc_count::allocations() - before;
        assert_eq!(
            (report.woken, report.patched),
            (64, 64),
            "round {round}: every standing query is patched"
        );
        if round >= 4 {
            assert_eq!(allocated, 0, "round {round}: a warm patched pump allocated");
            totals.notified += report.notified;
            totals.objects_evaluated += report.objects_evaluated;
        }
    }
    assert!(totals.notified > 0 && totals.objects_evaluated > 0);
    println!(
        "zero_alloc patched pump: 0 allocations over 4 pumps, {} deltas, {} objects evaluated",
        totals.notified, totals.objects_evaluated
    );
}

fn main() {
    alloc_count::mark_installed();
    patched_pump_allocates_nothing();
    for name in SCENARIOS {
        let scenario = Scenario::preset(name, true).expect("a preset name");
        let report = run(None, &scenario).unwrap_or_else(|e| panic!("{name}: run failed: {e}"));
        // Counted and exactly 0.0 — and no node unhealthy, no push dropped.
        let held = report
            .gate(true, None)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        println!("zero_alloc {name}: {}", held.join("; "));
    }
}
