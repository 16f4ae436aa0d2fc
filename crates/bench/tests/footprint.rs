//! The catalogs' footprint and sharing as a tier-1 gate.
//!
//! **Footprint** — every p-bound of a stored object lives once, in the
//! PTI's level-major table, so neither an object nor a leaf entry owns
//! a heap block:
//!
//! * building an `UncertainEngine` over `n` uniform objects takes fewer
//!   than `n / 4` allocations. When each object owned a catalog `Vec`
//!   and each PTI leaf entry a `Vec<Rect>`, it took more than `2n`;
//! * an `UncertainObject` is at most 96 bytes (it was 120 with its
//!   catalog handle) and a leaf entry of the engine's tree is 40.
//!
//! **Sharing** — an engine's tables and tree are copy-on-write page by
//! page and node by node, so for both engines:
//!
//! * `clone()` — what a commit does to a touched shard — takes fewer
//!   than `n / 64` allocations: it copies spines, no page and no node
//!   (it took 649 when it copied every node's entry `Vec`);
//! * after one 64-update batch of arrivals, departures and moves
//!   (`UpdateMix::balanced`, the serving workloads' stream) applied to
//!   the clone, at least 85 % of the clone's pages — tree nodes,
//!   object pages, bound-table pages, id sub-maps — are still the very
//!   allocations the parent holds, and the parent has not changed.
//!   (What is not shared is mostly tree: an update rewrites the leaves
//!   it leaves and enters, and the first inserts into STR-packed, full
//!   leaves split them. 85–88 % is what this batch size reads.)
//! * after 64 departures alone, the clone shares every object page:
//!   a departure vacates its slot and writes none (it used to copy
//!   the page the last object was swapped into).
//!
//! `harness = false`: the counting allocator is global, and libtest's
//! threads would allocate inside the counted windows.

use std::hint::black_box;

use iloc_core::serve::{ServeEngine, Update};
use iloc_core::{PointEngine, UncertainEngine};
use iloc_datagen::{PointUpdate, PointUpdateGen, RectUpdate, RectUpdateGen, UpdateMix};
use iloc_index::Pti;
use iloc_server::alloc_count::{self, CountingAllocator};
use iloc_uncertainty::{ObjectId, PointObject, UncertainObject, UniformPdf};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const N: u64 = 20_000;

/// The repo benchmark's dataset seed.
const SEED: u64 = 2007;

fn uncertain_object(id: u64, region: iloc_geometry::Rect) -> UncertainObject {
    UncertainObject::new(id, UniformPdf::new(region))
}

/// Clones `engine` inside a counted window, applies `batch` to the
/// clone and holds the pair to the sharing gate.
fn sharing_gate<E: ServeEngine>(
    name: &str,
    engine: &E,
    batch: Vec<Update<E::Object>>,
    shared_pages_with: impl Fn(&E, &E) -> (usize, usize),
) {
    let before = alloc_count::allocations();
    let mut clone = black_box(engine.clone());
    let cloned = alloc_count::allocations() - before;
    assert!(
        cloned < N / 64,
        "{name}: cloning {N} objects took {cloned} allocations"
    );
    let (shared, total) = shared_pages_with(&clone, engine);
    assert_eq!(shared, total, "{name}: a fresh clone shares every page");

    let updates = batch.len();
    for update in batch {
        match update {
            Update::Arrive(object) | Update::Move(object) => clone.insert_object(object),
            Update::Depart(id) => assert!(clone.remove_object(id), "{name}: {id} is live"),
        }
    }
    let (shared, total) = shared_pages_with(&clone, engine);
    assert!(
        shared * 100 >= total * 85,
        "{name}: {shared} of {total} pages shared after {updates} updates"
    );
    assert_eq!(engine.len(), N as usize, "{name}: the parent changed");

    println!(
        "footprint: {name} clone {cloned} allocations, \
         {shared} of {total} pages shared after {updates} updates, over {N} objects"
    );
}

/// Departs 64 ids spread over the whole table from a clone of `engine`
/// and holds the pair to the departure gate: a departure vacates its
/// slot and writes no object page, so the clone still shares every
/// object page with its parent.
fn departure_gate<E: ServeEngine>(name: &str, engine: &E) {
    let mut clone = engine.clone();
    for id in (0..N).step_by(N as usize / 64).take(64) {
        assert!(clone.remove_object(ObjectId(id)), "{name}: {id} is live");
    }
    let (shared, total) = clone.objects().shared_pages_with(engine.objects());
    assert_eq!(
        shared,
        total,
        "{name}: 64 departures copied {} object pages",
        total - shared
    );
    assert_eq!(clone.len(), N as usize - 64, "{name}: departures");
    println!("footprint: {name} 64 departures share all {total} object pages");
}

fn main() {
    assert!(
        std::mem::size_of::<UncertainObject>() <= 96,
        "an UncertainObject is {} bytes",
        std::mem::size_of::<UncertainObject>()
    );
    assert_eq!(Pti::<u32>::LEAF_ENTRY_BYTES, 40);

    let (regions, mut stream) =
        RectUpdateGen::over_long_beach(N as usize, SEED, UpdateMix::balanced());
    let objects: Vec<UncertainObject> = (0..N)
        .zip(regions)
        .map(|(id, region)| uncertain_object(id, region))
        .collect();
    let before = alloc_count::allocations();
    let engine = black_box(UncertainEngine::build(objects));
    let build = alloc_count::allocations() - before;
    assert!(
        build < N / 4,
        "building over {N} objects took {build} allocations"
    );
    println!("footprint: build {build} allocations over {N} objects");

    let batch = stream
        .stream(64)
        .into_iter()
        .map(|update| match update {
            RectUpdate::Arrive { id, region } => Update::Arrive(uncertain_object(id, region)),
            RectUpdate::Depart { id } => Update::Depart(ObjectId(id)),
            RectUpdate::Move { id, to } => Update::Move(uncertain_object(id, to)),
        })
        .collect();
    sharing_gate(
        "uncertain",
        &engine,
        batch,
        UncertainEngine::shared_pages_with,
    );
    departure_gate("uncertain", &engine);
    engine.check_invariants();

    let (points, mut stream) =
        PointUpdateGen::over_california(N as usize, SEED, UpdateMix::balanced());
    let engine = PointEngine::build(points);
    let batch = stream
        .stream(64)
        .into_iter()
        .map(|update| match update {
            PointUpdate::Arrive { id, loc } => Update::Arrive(PointObject::new(id, loc)),
            PointUpdate::Depart { id } => Update::Depart(ObjectId(id)),
            PointUpdate::Move { id, to } => Update::Move(PointObject::new(id, to)),
        })
        .collect();
    sharing_gate("point", &engine, batch, PointEngine::shared_pages_with);
    departure_gate("point", &engine);
    engine.check_invariants();
}
