//! The object table both engines keep: the objects by slot, in
//! copy-on-write pages, and the id → slot map over them.
//!
//! Everything here is shared between a table and its clones until
//! written: a clone copies two spines (a pointer per 64 objects, a
//! pointer per sub-map), and an update then copies the one object page
//! and the one or two sub-maps it touches. The engines add their index
//! on top; the upsert and the departure bookkeeping exist once, in
//! [`ObjectTable`].
//!
//! **Slots are never reordered.** An arrival takes a new last slot, a
//! move or a repeated arrival overwrites its object's slot, and a
//! departure only unmaps the id: the object stays in its page, unread,
//! and the slot stays vacated until the serving layer rebuilds the
//! engine from its live objects. So when ids are handed out in
//! increasing order — the datagen streams, the benchmark's writers —
//! the live slots stay in id order however much the catalog churns.
//! The id map is the only record of which slots are live: slot `k` is
//! live iff its object's id maps back to `k`.

use std::cmp::Reverse;
use std::sync::Arc;

use iloc_index::Pages;
use iloc_uncertainty::ObjectId;

use crate::pipeline::CatalogObject;

/// Sub-maps of an [`IdMap`]. A power of two; at the paper's catalog
/// sizes a sub-map holds 30–60 ids, half a kilobyte to copy on a
/// write.
const SUB_MAPS: usize = 1024;

/// SplitMix64's finalizer over a raw id: every output bit depends on
/// every input bit, so sequential ids (the common allocation pattern)
/// spread evenly whichever bits a caller then keys on.
pub(crate) fn mix_id(id: ObjectId) -> u64 {
    let mut x = id.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Id → object-table slot, as [`SUB_MAPS`] reference-counted sub-maps
/// keyed by bits 32–41 of [`mix_id`] (the serving layer shards on the
/// whole value modulo a small count, which leaves those bits uniform
/// within a shard). A sub-map is a block of `(id, slot)` sorted by id:
/// looked up by binary search, replaced whole when an id enters or
/// leaves it, written in place (copied first while shared) when an id
/// changes slot.
#[derive(Debug, Clone)]
pub(crate) struct IdMap {
    subs: Vec<Arc<[(ObjectId, u32)]>>,
    len: usize,
}

fn sub_map_of(id: ObjectId) -> usize {
    (mix_id(id) >> 32) as usize % SUB_MAPS
}

impl IdMap {
    /// The map sending the `k`-th id of `ids` to slot `k`; a repeated
    /// id keeps its last slot. One block per occupied sub-map.
    pub fn from_ids(ids: impl Iterator<Item = ObjectId>) -> Self {
        let mut keyed: Vec<(usize, ObjectId, Reverse<u32>)> = ids
            .enumerate()
            .map(|(slot, id)| (sub_map_of(id), id, Reverse(slot as u32)))
            .collect();
        keyed.sort_unstable();
        keyed.dedup_by_key(|&mut (_, id, _)| id);
        // Clones of the one static empty block: no allocation.
        let mut subs = vec![Arc::default(); SUB_MAPS];
        for run in keyed.chunk_by(|a, b| a.0 == b.0) {
            subs[run[0].0] = run.iter().map(|&(_, id, slot)| (id, slot.0)).collect();
        }
        IdMap {
            subs,
            len: keyed.len(),
        }
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The slot of `id`, if present.
    pub fn get(&self, id: ObjectId) -> Option<u32> {
        let sub = &self.subs[sub_map_of(id)];
        let at = sub.binary_search_by_key(&id, |e| e.0).ok()?;
        Some(sub[at].1)
    }

    /// Sends `id` to `slot`, returning the slot it was at.
    pub fn insert(&mut self, id: ObjectId, slot: u32) -> Option<u32> {
        let sub = &mut self.subs[sub_map_of(id)];
        match sub.binary_search_by_key(&id, |e| e.0) {
            Ok(at) => Some(std::mem::replace(&mut Arc::make_mut(sub)[at].1, slot)),
            Err(at) => {
                let (below, above) = sub.split_at(at);
                *sub = below
                    .iter()
                    .chain(std::iter::once(&(id, slot)))
                    .chain(above)
                    .copied()
                    .collect();
                self.len += 1;
                None
            }
        }
    }

    /// Forgets `id`, returning the slot it was at.
    pub fn remove(&mut self, id: ObjectId) -> Option<u32> {
        let sub = &mut self.subs[sub_map_of(id)];
        let at = sub.binary_search_by_key(&id, |e| e.0).ok()?;
        let slot = sub[at].1;
        *sub = sub[..at].iter().chain(&sub[at + 1..]).copied().collect();
        self.len -= 1;
        Some(slot)
    }

    /// `(shared, total)`: how many sub-maps are the very blocks `other`
    /// holds.
    pub fn shared_pages_with(&self, other: &Self) -> (usize, usize) {
        let shared = self
            .subs
            .iter()
            .zip(&other.subs)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        (shared, SUB_MAPS)
    }
}

/// An object table with its id map: slot `k` holds the `k`-th object
/// stored, ids resolve to slots in O(log sub-map), and a removal
/// vacates its slot without moving any other object (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct ObjectTable<O> {
    objects: Pages<O>,
    ids: IdMap,
}

impl<O: CatalogObject> ObjectTable<O> {
    /// The table holding `objects` in order, object `k` in slot `k`.
    ///
    /// # Panics
    ///
    /// Panics when there are more than `u32::MAX` objects.
    pub fn build(objects: Vec<O>) -> Self {
        assert!(
            u32::try_from(objects.len()).is_ok(),
            "object slots are 32-bit"
        );
        let ids = IdMap::from_ids(objects.iter().map(|o| o.id()));
        ObjectTable {
            objects: objects.into_iter().collect(),
            ids,
        }
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Number of slots, vacated ones included.
    pub fn slots(&self) -> usize {
        self.objects.len()
    }

    /// Every slot's object, by slot: a vacated slot still holds the
    /// object that departed from it.
    pub fn objects(&self) -> &Pages<O> {
        &self.objects
    }

    /// The live objects with their slots, in slot order: those whose
    /// id maps back to the slot they are found in.
    pub fn live(&self) -> impl Iterator<Item = (u32, &O)> + '_ {
        (0u32..)
            .zip(&self.objects)
            .filter(|&(slot, object)| self.ids.get(object.id()) == Some(slot))
    }

    /// The live object with this id, if present.
    pub fn find(&self, id: ObjectId) -> Option<&O> {
        self.ids.get(id).map(|slot| &self.objects[slot as usize])
    }

    /// Stores `object` under its id and returns its slot: the slot of
    /// the live object with that id — replaced, and returned too — or
    /// else a new last slot.
    pub fn upsert(&mut self, object: O) -> (u32, Option<O>) {
        let id = object.id();
        if let Some(slot) = self.ids.get(id) {
            let held = self
                .objects
                .get_mut(slot as usize)
                .expect("a mapped slot is live");
            return (slot, Some(std::mem::replace(held, object)));
        }
        let slot = u32::try_from(self.objects.len()).expect("object slots are 32-bit");
        self.ids.insert(id, slot);
        self.objects.push(object);
        (slot, None)
    }

    /// Removes the object with this id, returning its slot and the
    /// departed object. Only the id is unmapped: the object stays in
    /// its slot, vacated, and no object page is written.
    pub fn remove(&mut self, id: ObjectId) -> Option<(u32, &O)> {
        let slot = self.ids.remove(id)?;
        Some((slot, &self.objects[slot as usize]))
    }

    /// Asserts that every mapped id points at a slot holding it.
    pub fn check_invariants(&self) {
        assert_eq!(self.live().count(), self.ids.len(), "id map");
    }

    /// `(shared, total)` over object pages and id sub-maps.
    pub fn shared_pages_with(&self, other: &Self) -> (usize, usize) {
        let (a, b) = (
            self.objects.shared_pages_with(&other.objects),
            self.ids.shared_pages_with(&other.ids),
        );
        (a.0 + b.0, a.1 + b.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc_geometry::Point;
    use iloc_uncertainty::PointObject;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    #[test]
    fn a_departure_vacates_its_slot_and_moves_nothing() {
        let at = |k: u64| Point::new(k as f64, 0.0);
        let mut table = ObjectTable::build((0..10).map(|k| PointObject::new(k, at(k))).collect());
        let live_ids =
            |t: &ObjectTable<PointObject>| -> Vec<u64> { t.live().map(|(_, o)| o.id.0).collect() };
        let parent = table.clone();
        let (slot, departed) = table.remove(ObjectId(3)).expect("live");
        assert_eq!((slot, departed.id), (3, ObjectId(3)));
        assert_eq!(table.remove(ObjectId(3)).map(|(s, _)| s), None);
        assert_eq!((table.len(), table.slots()), (9, 10));
        assert_eq!(table.find(ObjectId(3)), None);
        assert_eq!(
            table.objects()[3].id,
            ObjectId(3),
            "vacated, not overwritten"
        );
        assert_eq!(live_ids(&table), [0, 1, 2, 4, 5, 6, 7, 8, 9]);
        let (shared, total) = table.objects.shared_pages_with(&parent.objects);
        assert_eq!(shared, total, "a departure writes no object page");
        table.check_invariants();

        // A move keeps its slot; an arrival, even of the departed id,
        // takes a new last one.
        assert_eq!(table.upsert(PointObject::new(5u64, at(50))).0, 5);
        assert_eq!(table.upsert(PointObject::new(3u64, at(30))).0, 10);
        assert_eq!(live_ids(&table), [0, 1, 2, 4, 5, 6, 7, 8, 9, 3]);
        assert_eq!(table.find(ObjectId(3)).map(|o| o.loc), Some(at(30)));
        table.check_invariants();
        assert_eq!(live_ids(&parent), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn id_map_matches_a_hash_map() {
        let mut rng = StdRng::seed_from_u64(0x1D);
        // Sequential ids with a repeat: the later slot wins.
        let ids: Vec<ObjectId> = (0..5_000u64).chain([17]).map(ObjectId).collect();
        let mut map = IdMap::from_ids(ids.iter().copied());
        let mut model: HashMap<ObjectId, u32> = ids
            .iter()
            .enumerate()
            .map(|(k, &id)| (id, k as u32))
            .collect();
        assert_eq!(map.get(ObjectId(17)), Some(5_000));
        for step in 0..20_000u32 {
            let id = ObjectId(rng.gen_range(0..6_000));
            if rng.gen_bool(0.5) {
                assert_eq!(map.insert(id, step), model.insert(id, step));
            } else {
                assert_eq!(map.remove(id), model.remove(&id));
            }
            assert_eq!(map.len(), model.len());
        }
        for id in (0..6_000).map(ObjectId) {
            assert_eq!(map.get(id), model.get(&id).copied());
        }
    }

    #[test]
    fn a_cloned_id_map_shares_what_its_writer_left_alone() {
        let parent = IdMap::from_ids((0..40_000).map(ObjectId));
        let mut child = parent.clone();
        assert_eq!(child.shared_pages_with(&parent), (SUB_MAPS, SUB_MAPS));
        // An arrival, a departure and a re-slotting: three sub-maps at
        // most.
        assert_eq!(child.insert(ObjectId(1 << 40), 40_000), None);
        assert_eq!(child.remove(ObjectId(7)), Some(7));
        assert_eq!(child.insert(ObjectId(8), 7), Some(8));
        let (shared, _) = child.shared_pages_with(&parent);
        assert!(shared >= SUB_MAPS - 3, "{shared} sub-maps shared");
        // The parent reads what it read.
        assert_eq!(parent.get(ObjectId(7)), Some(7));
        assert_eq!(parent.get(ObjectId(8)), Some(8));
        assert_eq!(parent.get(ObjectId(1 << 40)), None);
        assert_eq!(parent.len(), 40_000);
        // Sequential ids fill every sub-map, evenly enough.
        let fill = parent.subs.iter().map(|s| s.len());
        assert!(fill.clone().min() >= Some(10) && fill.max() <= Some(80));
    }
}
