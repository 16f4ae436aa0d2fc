//! The uncertain catalog's footprint as a tier-1 gate: every p-bound
//! of a stored object lives once, in the PTI's level-major table, so
//! neither an object nor a leaf entry owns a heap block.
//!
//! * building an `UncertainEngine` over `n` uniform objects takes fewer
//!   than `n / 4` allocations, and cloning it — what a commit does to a
//!   touched shard — fewer than `n / 8`. When each object owned a
//!   catalog `Vec` and each PTI leaf entry a `Vec<Rect>`, both took
//!   more than `2n`;
//! * an `UncertainObject` is at most 96 bytes (it was 120 with its
//!   catalog handle) and a leaf entry of the engine's tree is 40.
//!
//! `harness = false`: the counting allocator is global, and libtest's
//! threads would allocate inside the counted windows.

use std::hint::black_box;

use iloc_core::UncertainEngine;
use iloc_geometry::Rect;
use iloc_index::Pti;
use iloc_server::alloc_count::{self, CountingAllocator};
use iloc_uncertainty::{UncertainObject, UniformPdf};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const N: u64 = 20_000;

fn main() {
    assert!(
        std::mem::size_of::<UncertainObject>() <= 96,
        "an UncertainObject is {} bytes",
        std::mem::size_of::<UncertainObject>()
    );
    assert_eq!(Pti::<u32>::LEAF_ENTRY_BYTES, 40);

    let objects: Vec<UncertainObject> = (0..N)
        .map(|k| {
            let (x, y) = ((k % 200) as f64 * 50.0, (k / 200) as f64 * 50.0);
            UncertainObject::new(
                k,
                UniformPdf::new(Rect::from_coords(x, y, x + 30.0, y + 20.0)),
            )
        })
        .collect();

    let before = alloc_count::allocations();
    let engine = black_box(UncertainEngine::build(objects));
    let build = alloc_count::allocations() - before;
    assert!(
        build < N / 4,
        "building over {N} objects took {build} allocations"
    );

    let before = alloc_count::allocations();
    let clone = black_box(engine.clone());
    let cloned = alloc_count::allocations() - before;
    assert!(
        cloned < N / 8,
        "cloning {N} objects took {cloned} allocations"
    );
    assert_eq!(clone.len(), engine.len());

    println!("footprint: build {build} allocations, clone {cloned}, over {N} objects");
}
