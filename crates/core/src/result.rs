//! Query answers.

use std::hint::select_unpredictable;

use iloc_uncertainty::ObjectId;

use crate::stats::QueryStats;

/// One qualifying object with its qualification probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match {
    /// The object's identifier.
    pub id: ObjectId,
    /// Qualification probability `pi` (paper Definitions 3–6): strictly
    /// positive for IPQ/IUQ, at least the threshold for C-IPQ/C-IUQ.
    pub probability: f64,
}

/// The result of one imprecise query: qualifying objects plus cost
/// accounting.
#[derive(Debug, Clone, Default)]
pub struct QueryAnswer {
    /// Matches, sorted by object id.
    pub results: Vec<Match>,
    /// Per-query cost counters.
    pub stats: QueryStats,
}

impl QueryAnswer {
    /// Looks up the probability reported for an object, if present.
    pub fn probability_of(&self, id: ObjectId) -> Option<f64> {
        self.results
            .binary_search_by(|m| m.id.cmp(&id))
            .ok()
            .map(|i| self.results[i].probability)
    }

    /// `true` when `other` reports exactly the same matches: same ids
    /// in the same order with **bit-identical** probabilities. Stats
    /// are not compared. This is the determinism contract batched,
    /// cached, and re-executed plans are tested against.
    pub fn same_matches(&self, other: &QueryAnswer) -> bool {
        self.results.len() == other.results.len()
            && self
                .results
                .iter()
                .zip(&other.results)
                .all(|(a, b)| a.id == b.id && a.probability.to_bits() == b.probability.to_bits())
    }
}

/// Answers shorter than this skip the radix passes: each zeroes and
/// prefix-sums 256 counters whatever the length.
const INSERTION_SORT_BELOW: usize = 32;

/// Sorts the union of `runs` by id into `out`, whose contents it
/// replaces: the one place an answer is put in id order.
///
/// The runs may come in any order, each in any order of its own — a
/// pipeline run's matches in the order its probe found the candidates,
/// the runs of every shard of a fan-out. Ids are unique (one match per
/// object), so the order is fully determined: the result is bit for
/// bit what sorting the concatenation by id gives.
///
/// An LSD radix sort on the id's bytes. A first scan finds the bytes
/// in which the ids differ (the ids of one catalog share their high
/// bytes); each of those then costs one `radix_pass`, the first
/// reading the runs where they lie. The passes alternate between
/// `out` and `aux`, starting on the side that makes the last one land
/// in `out`. Fewer than 32 matches are copied to `out` and sorted
/// there by the standard library's unstable sort, which sorts a slice
/// that short in place. Capacity is kept, so the sort is
/// allocation-free once `out` and `aux` have grown to workload size.
pub fn sort_matches_into<'a, I>(out: &mut Vec<Match>, runs: I, aux: &mut Vec<Match>)
where
    I: IntoIterator<Item = &'a [Match]>,
    I::IntoIter: Clone,
{
    let runs = runs.into_iter();
    let (mut n, mut any, mut all) = (0, 0u64, !0u64);
    for run in runs.clone() {
        n += run.len();
        for m in run {
            (any, all) = (any | m.id.0, all & m.id.0);
        }
    }
    let varying = any ^ all;
    let mut shifts = (0..64).step_by(8).filter(|s| (varying >> s) & 0xff != 0);
    let passes = shifts.clone().count();
    if n < INSERTION_SORT_BELOW || passes == 0 {
        out.clear();
        runs.for_each(|run| out.extend_from_slice(run));
        out.sort_unstable_by_key(|m| m.id);
        return;
    }
    // Every pass writes all `n` slots of its side, so only growth is
    // filled.
    out.resize(n, FILLER);
    aux.resize(n, FILLER);
    let (mut dst, mut src) = (&mut out[..], &mut aux[..]);
    if passes.is_multiple_of(2) {
        std::mem::swap(&mut dst, &mut src);
    }
    radix_pass(runs, dst, shifts.next().expect("a varying byte"));
    for shift in shifts {
        std::mem::swap(&mut dst, &mut src);
        radix_pass([&*src].into_iter(), dst, shift);
    }
}

/// One counting-sort pass of [`sort_matches_into`]: the matches of
/// `runs` into `dst` (of their total length) by the id byte at
/// `shift`, ties kept in input order.
fn radix_pass<'a>(runs: impl Iterator<Item = &'a [Match]> + Clone, dst: &mut [Match], shift: u32) {
    let digit = |m: &Match| ((m.id.0 >> shift) & 0xff) as usize;
    let mut at = [0usize; 256];
    for run in runs.clone() {
        for m in run {
            at[digit(m)] += 1;
        }
    }
    let mut sum = 0;
    for slot in &mut at {
        (*slot, sum) = (sum, sum + *slot);
    }
    for run in runs {
        for m in run {
            let to = &mut at[digit(m)];
            dst[*to] = *m;
            *to += 1;
        }
    }
}

/// Independent compare→advance chains a two-run merge is split into.
/// One chain retires an element every load-compare-advance round trip
/// (~8 cycles); four of them in step keep the core's issue slots busy.
const MERGE_LANES: usize = 4;

/// Outputs below which a two-run merge stays on one chain: with fewer
/// than eight elements a lane, finding the split points costs more
/// than the lanes save.
const SINGLE_CHAIN_BELOW: usize = 8 * MERGE_LANES;

/// Runs a fan-in holds without touching the heap.
const INLINE_RUNS: usize = 16;

/// What newly grown sort and merge scratch is filled with (always
/// overwritten before it is read).
const FILLER: Match = Match {
    id: ObjectId(0),
    probability: 0.0,
};

/// How many elements of `a` are among the first `t` of `a` merged with
/// `b` (equal ids take `a`'s first): the merge-path split point.
fn merge_split(a: &[Match], b: &[Match], t: usize) -> usize {
    let (mut lo, mut hi) = (t.saturating_sub(b.len()), t.min(a.len()));
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        if a[i].id <= b[t - i - 1].id {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    lo
}

/// Merges two id-sorted runs into `out` on a single chain.
fn merge_chain(a: &[Match], b: &[Match], out: &mut [Match]) {
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let take_a = a[i].id <= b[j].id;
        // Which run is next is a coin flip: keep it a select.
        out[k] = select_unpredictable(take_a, a[i], b[j]);
        i += usize::from(take_a);
        j += usize::from(!take_a);
        k += 1;
    }
    let rest_a = &a[i..];
    out[k..k + rest_a.len()].copy_from_slice(rest_a);
    out[k + rest_a.len()..].copy_from_slice(&b[j..]);
}

/// Merges two id-sorted runs into `out` (`out.len() == a.len() +
/// b.len()`), bit-for-bit what sorting their concatenation by id gives.
///
/// The output is cut into [`MERGE_LANES`] equal stretches at their
/// merge-path split points, which makes each stretch an independent
/// merge of a piece of `a` with a piece of `b`; the lanes then advance
/// one element each per step, so the core overlaps their
/// load→compare→advance chains instead of waiting out one. Steps run in
/// blocks no longer than the shortest piece left, inside which no lane
/// can run a piece dry and no end-of-run test is needed; what remains
/// when a piece is down to nothing finishes on [`merge_chain`].
///
/// Runs that are not sorted come out as some permutation of the input,
/// never as a panic.
fn merge_two(a: &[Match], b: &[Match], out: &mut [Match]) {
    debug_assert_eq!(out.len(), a.len() + b.len());
    let n = out.len();
    if n < SINGLE_CHAIN_BELOW || a.is_empty() || b.is_empty() {
        return merge_chain(a, b, out);
    }
    let mut lane_a: [&[Match]; MERGE_LANES] = [&[]; MERGE_LANES];
    let mut lane_b: [&[Match]; MERGE_LANES] = [&[]; MERGE_LANES];
    let mut lane_out: [&mut [Match]; MERGE_LANES] = [(); MERGE_LANES].map(|()| &mut [][..]);
    let (mut rest_a, mut rest_b, mut rest_out) = (a, b, out);
    let (mut from_a, mut done) = (0, 0);
    for lane in 0..MERGE_LANES {
        let end = n * (lane + 1) / MERGE_LANES;
        let len = end - done;
        // Of sorted runs the split points only grow; the clamp keeps
        // the pieces in bounds when the runs are not.
        let of_a = merge_split(a, b, end)
            .saturating_sub(from_a)
            .clamp(len.saturating_sub(rest_b.len()), len.min(rest_a.len()));
        (lane_a[lane], rest_a) = rest_a.split_at(of_a);
        (lane_b[lane], rest_b) = rest_b.split_at(len - of_a);
        (lane_out[lane], rest_out) = rest_out.split_at_mut(len);
        from_a += of_a;
        done = end;
    }
    loop {
        let block = (0..MERGE_LANES)
            .map(|lane| lane_a[lane].len().min(lane_b[lane].len()))
            .min()
            .unwrap_or(0);
        if block == 0 {
            break;
        }
        // Per lane: elements taken from its `a` piece so far; the step
        // number minus that is what it took from its `b` piece.
        let mut taken = [0usize; MERGE_LANES];
        for step in 0..block {
            for lane in 0..MERGE_LANES {
                let x = lane_a[lane][taken[lane]];
                let y = lane_b[lane][step - taken[lane]];
                let take_a = x.id <= y.id;
                lane_out[lane][step] = select_unpredictable(take_a, x, y);
                taken[lane] += usize::from(take_a);
            }
        }
        for lane in 0..MERGE_LANES {
            lane_a[lane] = &lane_a[lane][taken[lane]..];
            lane_b[lane] = &lane_b[lane][block - taken[lane]..];
            lane_out[lane] = &mut std::mem::take(&mut lane_out[lane])[block..];
        }
    }
    for lane in 0..MERGE_LANES {
        merge_chain(lane_a[lane], lane_b[lane], lane_out[lane]);
    }
}

/// The runs of one fan-in, in arrival order: up to [`INLINE_RUNS`] of
/// them on the stack, wider fan-ins on the heap.
struct RunTable<'a> {
    inline: [&'a [Match]; INLINE_RUNS],
    len: usize,
    spilled: Vec<&'a [Match]>,
}

impl<'a> RunTable<'a> {
    fn gather(partials: impl Iterator<Item = &'a [Match]>) -> Self {
        let mut table = RunTable {
            inline: [&[]; INLINE_RUNS],
            len: 0,
            spilled: Vec::new(),
        };
        for run in partials {
            if table.len < INLINE_RUNS {
                table.inline[table.len] = run;
            } else {
                if table.len == INLINE_RUNS {
                    table.spilled.extend_from_slice(&table.inline);
                }
                table.spilled.push(run);
            }
            table.len += 1;
        }
        table
    }

    fn runs(&self) -> &[&'a [Match]] {
        if self.len <= INLINE_RUNS {
            &self.inline[..self.len]
        } else {
            &self.spilled
        }
    }
}

fn total_len(runs: &[&[Match]]) -> usize {
    runs.iter().map(|run| run.len()).sum()
}

/// Fans partial answers from disjoint id partitions into `out`: a
/// k-way merge of the partials, each of which must already be in id
/// order (a node's answer frame). The result is what concatenating
/// and sorting by id would give, bit for bit, and `out.stats` is
/// reset.
///
/// This is the cluster router's fan-in: every node answers in id
/// order, so its answer frames are merged, never sorted again. (An
/// in-process [`serve::ShardedEngine`](crate::serve::ShardedEngine)
/// sorts the union of its shards' unordered matches once instead,
/// with [`sort_matches_into`]; both give the same list.) Nothing is
/// compared twice: the runs merge pairwise, level by level
/// (`merge_two`), the first level reading the partials where they lie
/// and the last writing `out.results`; the levels in between alternate
/// between the vector's first `n` slots and `n` slots of scratch
/// behind them, cut off again before returning.
///
/// Capacity is retained, so a warm `out` makes the merge
/// allocation-free once it has grown to workload size (twice the
/// answer, for three runs or more) — the property the router's
/// scatter-gather hot path is gated on. A fan-in of more than
/// `INLINE_RUNS` runs keeps its run table on the heap.
pub fn merge_partials_into<'a, I>(out: &mut QueryAnswer, partials: I)
where
    I: IntoIterator<Item = &'a [Match]>,
{
    out.stats = Default::default();
    let table = RunTable::gather(partials.into_iter());
    let runs = table.runs();
    let buf = &mut out.results;
    if let [] | [_] = runs {
        buf.clear();
        buf.extend_from_slice(runs.first().copied().unwrap_or_default());
        return;
    }
    let n = total_len(runs);
    let levels = (runs.len() - 1).ilog2() + 1;
    // Stale matches stay where they are: every level writes all `n`
    // slots of its side, so only growth is filled.
    buf.resize(if levels == 1 { n } else { 2 * n }, FILLER);
    let (mut dst, mut src) = buf.split_at_mut(n);
    if levels.is_multiple_of(2) {
        std::mem::swap(&mut dst, &mut src);
    }
    // `width` partials make up one run of the level being read.
    let mut width = 1;
    while width < runs.len() {
        let mut at = 0;
        for group in runs.chunks(2 * width) {
            let end = at + total_len(group);
            if width == 1 {
                let b = group.get(1).copied().unwrap_or_default();
                merge_two(group[0], b, &mut dst[at..end]);
            } else {
                let a_len = total_len(&group[..width.min(group.len())]);
                let (a, b) = src[at..end].split_at(a_len);
                merge_two(a, b, &mut dst[at..end]);
            }
            at = end;
        }
        std::mem::swap(&mut dst, &mut src);
        width *= 2;
    }
    buf.truncate(n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn probability_lookup() {
        let found = [
            Match {
                id: ObjectId(5),
                probability: 0.5,
            },
            Match {
                id: ObjectId(2),
                probability: 0.25,
            },
        ];
        let mut a = QueryAnswer::default();
        sort_matches_into(&mut a.results, [found.as_slice()], &mut Vec::new());
        assert_eq!(a.results[0].id, ObjectId(2));
        assert_eq!(a.probability_of(ObjectId(5)), Some(0.5));
        assert_eq!(a.probability_of(ObjectId(9)), None);
    }

    #[test]
    fn scratch_sort_matches_standard_sort() {
        // Deterministic pseudo-random id streams with runs, duplicate
        // ids, sorted, reversed, tiny, and empty.
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![7],
            (0..100).collect(),
            (0..100).rev().collect(),
            (0..50).chain(25..80).chain(10..30).collect(),
            (0..500).map(|k: u64| (k * 7919) % 1231).collect(),
        ];
        for ids in cases {
            let v: Vec<Match> = ids
                .iter()
                .map(|&id| Match {
                    id: ObjectId(id),
                    probability: id as f64,
                })
                .collect();
            let mut expect = v.clone();
            expect.sort_by_key(|m| m.id);
            let mut got = Vec::new();
            sort_matches_into(&mut got, [v.as_slice()], &mut Vec::new());
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn id_sort_equals_sort_unstable_by_key() {
        // Every length to 80 and a few thousand, dealt out into one to
        // five unordered runs, over id spaces that leave different
        // bytes to sort: one byte, past 2^16, past 2^32, near
        // u64::MAX, a shared middle, shared high bytes, all of them.
        // `out` and `aux` carry stale matches from case to case.
        let spaces: [fn(u64) -> u64; 7] = [
            |x| x & 0xff,
            |x| (1 << 16) + x % (1 << 20),
            |x| (1 << 32) + x % (1 << 36),
            |x| u64::MAX - x % (1 << 24),
            |x| x & 0xff00_0000_0000_00ff,
            |x| 0xabcd_ef00_0000_0000 | (x & 0xffff),
            |x| x,
        ];
        let mut state = 0x45_u64;
        let (mut out, mut aux) = (Vec::new(), Vec::new());
        for space in spaces {
            for len in (0..=80).chain([1_000, 2_345, 5_760]) {
                let mut ids: Vec<u64> = (0..len).map(|_| space(xorshift(&mut state))).collect();
                ids.sort_unstable();
                ids.dedup();
                for k in (1..ids.len()).rev() {
                    ids.swap(k, (xorshift(&mut state) % (k as u64 + 1)) as usize);
                }
                let matches: Vec<Match> = ids
                    .iter()
                    .map(|&id| Match {
                        id: ObjectId(id),
                        probability: f64::from_bits(xorshift(&mut state)),
                    })
                    .collect();
                let mut cuts: Vec<usize> = (0..xorshift(&mut state) % 5)
                    .map(|_| (xorshift(&mut state) % (matches.len() as u64 + 1)) as usize)
                    .collect();
                cuts.push(matches.len());
                cuts.sort_unstable();
                let mut runs = Vec::new();
                let mut from = 0;
                for cut in cuts {
                    runs.push(&matches[from..cut]);
                    from = cut;
                }

                let mut want = matches.clone();
                want.sort_unstable_by_key(|m| m.id);
                sort_matches_into(&mut out, runs.iter().copied(), &mut aux);
                assert_eq!(out.len(), want.len(), "{} ids", ids.len());
                for (got, want) in out.iter().zip(&want) {
                    assert_eq!(got.id, want.id, "{} ids", ids.len());
                    assert_eq!(got.probability.to_bits(), want.probability.to_bits());
                }
            }
        }
    }

    #[test]
    fn merge_partials_matches_single_partition_order() {
        let part = |ids: &[u64]| -> Vec<Match> {
            ids.iter()
                .map(|&id| Match {
                    id: ObjectId(id),
                    probability: id as f64 / 1000.0,
                })
                .collect()
        };
        // Disjoint id partitions, each id-sorted — the shape both the
        // sharded engine and the cluster router hand to the merge.
        let a = part(&[1, 4, 9]);
        let b = part(&[2, 3, 100]);
        let c = part(&[]);
        let mut out = QueryAnswer::default();
        out.results.push(Match {
            id: ObjectId(0),
            probability: 9.9,
        }); // dirty slot
        out.stats.prob_evals = 7;
        merge_partials_into(&mut out, [a.as_slice(), b.as_slice(), c.as_slice()]);
        assert_eq!(
            out.results.iter().map(|m| m.id.0).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 9, 100]
        );
        assert_eq!(out.stats.prob_evals, 0, "stats are reset");
        // Idempotent with capacity retained: merging again into the
        // warm buffer gives the same answer.
        let cap = out.results.capacity();
        merge_partials_into(&mut out, [a.as_slice(), b.as_slice(), c.as_slice()]);
        assert_eq!(out.results.len(), 6);
        assert_eq!(out.results.capacity(), cap);
    }

    /// A deterministic stream for the property below (the drawn seed
    /// picks the interleaving; proptest draws the shape).
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Run lengths that reach every path of the merge: empty runs,
    /// single elements, runs shorter and longer than a lane block, and
    /// (rarely) one long enough for a 1-vs-10,000 skew.
    fn run_len() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(0usize),
            Just(1usize),
            2usize..40,
            100usize..600,
            (0u8..16).prop_map(|r| if r == 0 { 10_000 } else { 3 }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The fan-in equals concatenate-then-sort, bit for bit, for
        /// any number of id-sorted runs of any lengths — ids 0 and
        /// `u64::MAX` included, so no value can be a sentinel — into a
        /// warm `out` holding stale matches and spare capacity; and a
        /// second merge of the same runs leaves the buffer where it is.
        #[test]
        fn merge_equals_concat_then_sort(
            lens in proptest::collection::vec(run_len(), 0..=9),
            seed in 1u64..u64::MAX,
            from_zero in 0u8..2,
            to_max in 0u8..2,
        ) {
            let mut state = seed;
            let n: usize = lens.iter().sum();
            // `n` distinct ascending ids with random gaps.
            let mut ids: Vec<u64> = Vec::with_capacity(n);
            let mut next = u64::from(from_zero == 0);
            for _ in 0..n {
                ids.push(next);
                next += 1 + xorshift(&mut state) % 1_000;
            }
            if let (Some(last), 1) = (ids.last_mut(), to_max) {
                *last = u64::MAX;
            }
            // Deal them out in a shuffled order of owners, so every
            // run is ascending and the runs interleave at random.
            let mut owners: Vec<usize> = lens
                .iter()
                .enumerate()
                .flat_map(|(run, &len)| std::iter::repeat_n(run, len))
                .collect();
            for k in (1..owners.len()).rev() {
                owners.swap(k, (xorshift(&mut state) % (k as u64 + 1)) as usize);
            }
            let mut runs: Vec<Vec<Match>> = lens.iter().map(|&len| Vec::with_capacity(len)).collect();
            for (&id, &run) in ids.iter().zip(&owners) {
                runs[run].push(Match {
                    id: ObjectId(id),
                    probability: f64::from_bits(xorshift(&mut state)),
                });
            }

            let mut want: Vec<Match> = runs.concat();
            want.sort_unstable_by_key(|m| m.id);

            let mut out = QueryAnswer::default();
            let stale = Match { id: ObjectId(u64::MAX), probability: -1.0 };
            out.results.resize(3 * n + 7, stale);
            out.results.reserve(5 * n + 100);
            out.results.truncate(n / 2 + 3);
            for round in 0..2 {
                let before = (out.results.as_ptr(), out.results.capacity());
                merge_partials_into(&mut out, runs.iter().map(|r| r.as_slice()));
                prop_assert_eq!(out.results.len(), want.len());
                for (got, want) in out.results.iter().zip(&want) {
                    prop_assert_eq!(got.id, want.id);
                    prop_assert_eq!(got.probability.to_bits(), want.probability.to_bits());
                }
                if round == 1 {
                    prop_assert_eq!((out.results.as_ptr(), out.results.capacity()), before);
                }
            }
        }
    }

    #[test]
    fn merge_of_unsorted_runs_permutes_instead_of_panicking() {
        // A run out of order is a caller bug (or a misbehaving node);
        // the merge must still hand back exactly the input elements.
        let mut state = 0x2007_u64;
        for len in [0usize, 1, 5, 33, 200, 1_000] {
            let runs: Vec<Vec<Match>> = (0..4)
                .map(|_| {
                    (0..len)
                        .map(|_| Match {
                            id: ObjectId(xorshift(&mut state) % 64),
                            probability: 0.5,
                        })
                        .collect()
                })
                .collect();
            let mut out = QueryAnswer::default();
            merge_partials_into(&mut out, runs.iter().map(|r| r.as_slice()));
            let mut got: Vec<u64> = out.results.iter().map(|m| m.id.0).collect();
            let mut want: Vec<u64> = runs.concat().iter().map(|m| m.id.0).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn wide_fan_in_spills_its_run_table() {
        // More runs than the inline table holds.
        let runs: Vec<Vec<Match>> = (0..3 * INLINE_RUNS as u64 + 1)
            .map(|r| {
                (0..20)
                    .map(|k| Match {
                        id: ObjectId(k * 1_000 + r),
                        probability: r as f64,
                    })
                    .collect()
            })
            .collect();
        let mut want: Vec<Match> = runs.concat();
        want.sort_unstable_by_key(|m| m.id);
        let mut out = QueryAnswer::default();
        merge_partials_into(&mut out, runs.iter().map(|r| r.as_slice()));
        assert_eq!(out.results, want);
    }

    #[test]
    fn same_matches_compares_ids_and_bits() {
        let answer = |ps: &[(u64, f64)]| QueryAnswer {
            results: ps
                .iter()
                .map(|&(id, p)| Match {
                    id: ObjectId(id),
                    probability: p,
                })
                .collect(),
            ..Default::default()
        };
        let a = answer(&[(1, 0.5), (2, 0.25)]);
        assert!(a.same_matches(&answer(&[(1, 0.5), (2, 0.25)])));
        assert!(!a.same_matches(&answer(&[(1, 0.5)])));
        assert!(!a.same_matches(&answer(&[(1, 0.5), (3, 0.25)])));
        assert!(!a.same_matches(&answer(&[(1, 0.5), (2, 0.25 + 1e-16)])));
        // Stats are irrelevant.
        let mut b = answer(&[(1, 0.5), (2, 0.25)]);
        b.stats.prob_evals = 99;
        assert!(a.same_matches(&b));
    }
}
