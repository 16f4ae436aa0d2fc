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

use iloc_bench::loadgen::{run, Scenario, SCENARIOS};
use iloc_server::alloc_count::{self, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn main() {
    alloc_count::mark_installed();
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
