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
//! Below the front ends, the index probe is gated on its own: R-tree
//! and PTI probes, threshold 0 and a Strategy-1 level, through a warm
//! traversal scratch allocate nothing.
//!
//! The write side's share of the invariant is gated here as well: a
//! warm [`SubscriptionRegistry::pump`] that patches 64 standing
//! queries from a 256-update commit's touched set allocates nothing.
//! So is the router's batched scatter: a warm router serving a 16-deep
//! pipelined burst allocates nothing anywhere in the process.

use std::io::{Read, Write};
use std::net::TcpStream;

use iloc_bench::loadgen::{run, Scenario, SCENARIOS};
use iloc_core::pipeline::PointRequest;
use iloc_core::serve::{shard_of, ShardedEngine, Update};
use iloc_core::subscribe::{PumpReport, SubscriptionRegistry};
use iloc_core::{CipqStrategy, Issuer, PointEngine, RangeSpec};
use iloc_geometry::{Point, Rect};
use iloc_index::{
    AccessStats, Pti, PtiParams, PtiQuery, RTree, RTreeParams, RangeIndex, TraversalScratch,
};
use iloc_router::{Router, RouterConfig};
use iloc_server::alloc_count::{self, CountingAllocator};
use iloc_server::protocol::{self, opcode};
use iloc_server::server::{QueryServer, ServerConfig};
use iloc_uncertainty::{ObjectId, PointObject};

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

/// Index probes through a warm [`TraversalScratch`] into a warm output
/// vector — the R-tree, and the PTI at threshold 0 and at a Strategy-1
/// level — allocate nothing. A node scan writes up to a node's fanout
/// past the length it keeps before it truncates, so this is the gate
/// that warm capacity absorbs that.
fn probes_allocate_nothing() {
    const SIDE: u64 = 150;
    let levels = vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    let regions: Vec<(Rect, u32)> = (0..SIDE * SIDE)
        .map(|k| {
            let (x, y) = ((k % SIDE) as f64 * 4.0, (k / SIDE) as f64 * 4.0);
            (Rect::from_coords(x, y, x + 3.0, y + 3.0), k as u32)
        })
        .collect();
    let rtree = RTree::bulk_load(regions.clone(), RTreeParams::default());
    let pti = Pti::bulk_load(
        levels.clone(),
        regions
            .iter()
            .map(|&(r, id)| {
                let bounds = levels
                    .iter()
                    .map(|&p| r.expand(-p * r.width(), -p * r.height()))
                    .collect();
                (bounds, id)
            })
            .collect(),
        PtiParams::default(),
    );
    let windows: Vec<Rect> = (0..64u64)
        .map(|k| {
            let center = Point::new((k * 37 % 600) as f64, (k * 91 % 600) as f64);
            let half = 2.0 + (k % 8) as f64 * 6.0;
            Rect::centered(center, half, half)
        })
        .collect();
    let mut scratch = TraversalScratch::new();
    let mut out = Vec::new();
    let mut pass = |stats: &mut AccessStats| {
        for &window in &windows {
            out.clear();
            rtree.query_range_scratch(window, stats, &mut scratch, &mut out);
            for (threshold, inset) in [(0.0, 0.0), (0.3, -1.0)] {
                let q = PtiQuery {
                    expanded: window,
                    p_expanded: window.expand(inset, inset),
                    threshold,
                };
                out.clear();
                pti.query_scratch(&q, stats, &mut scratch, &mut out);
            }
        }
    };
    pass(&mut AccessStats::new());
    let mut stats = AccessStats::new();
    let before = alloc_count::allocations();
    for _ in 0..4 {
        pass(&mut stats);
    }
    let allocated = alloc_count::allocations() - before;
    assert!(stats.candidates > 0, "the probes select something");
    assert_eq!(allocated, 0, "a warm index probe allocated");
    println!(
        "zero_alloc probes: 0 allocations over {} probes, {} candidates",
        4 * 3 * windows.len(),
        stats.candidates
    );
}

/// Two single-shard nodes behind a one-loop router; one connection
/// writes 16 IPQ / C-IPQ frames at once (one read pass, so one batch:
/// one upstream write a node) and reads the 16 answers. Once warm, a
/// burst allocates nothing — router, nodes or this client.
fn router_batch_allocates_nothing() {
    const SIDE: u64 = 100;
    let nodes: Vec<_> = (0..2)
        .map(|node| {
            let points = (0..SIDE * SIDE)
                .filter(|&k| shard_of(ObjectId(k), 2) == node)
                .map(|k| PointObject::new(k, Point::new((k % SIDE) as f64, (k / SIDE) as f64)))
                .collect();
            QueryServer::new(points, Vec::new(), 1)
                .start(&ServerConfig::loopback())
                .expect("start node")
        })
        .collect();
    let router = Router::start(&RouterConfig {
        event_loops: 1,
        ..RouterConfig::loopback(nodes.iter().map(|n| n.addr()).collect())
    })
    .expect("start router");
    let mut stream = TcpStream::connect(router.addr()).expect("connect router");
    stream.set_nodelay(true).expect("nodelay");
    let mut burst = Vec::new();
    for k in 0..16u64 {
        let center = Point::new(10.0 + (k % 4) as f64 * 25.0, 10.0 + (k / 4) as f64 * 25.0);
        let issuer = Issuer::uniform(Rect::centered(center, 4.0, 4.0));
        let request = if k % 2 == 0 {
            PointRequest::ipq(issuer, RangeSpec::square(6.0))
        } else {
            PointRequest::cipq(issuer, RangeSpec::square(6.0), 0.3, CipqStrategy::PExpanded)
        };
        protocol::encode_point_query(&mut burst, &request).expect("encode");
    }
    let mut frame = Vec::with_capacity(1 << 16);
    let mut serve_burst = || -> usize {
        stream.write_all(&burst).expect("write burst");
        let mut matches = 0;
        for _ in 0..16 {
            let mut len = [0u8; 4];
            stream.read_exact(&mut len).expect("answer length");
            frame.resize(u32::from_le_bytes(len) as usize, 0);
            stream.read_exact(&mut frame).expect("answer");
            assert_eq!(frame[1], opcode::ANSWER);
            matches += u32::from_le_bytes(frame[2..6].try_into().unwrap()) as usize;
        }
        matches
    };
    for _ in 0..50 {
        serve_burst();
    }
    let before = alloc_count::allocations();
    let matches: usize = (0..20).map(|_| serve_burst()).sum();
    let allocated = alloc_count::allocations() - before;
    assert!(matches > 0, "the bursts match something");
    assert_eq!(allocated, 0, "a warm router burst allocated");
    println!("zero_alloc router batch: 0 allocations over 20 16-deep bursts, {matches} matches");
    drop(router);
    drop(nodes);
}

fn main() {
    alloc_count::mark_installed();
    probes_allocate_nothing();
    patched_pump_allocates_nothing();
    router_batch_allocates_nothing();
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
