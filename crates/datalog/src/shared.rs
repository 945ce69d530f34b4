//! Storage whose clones share what they did not change.
//!
//! [`SharedVec`] is what a [`crate::db::Relation`] keeps its tuples in and
//! a workspace its base facts: a vector cut into fixed-size chunks. A
//! full chunk is frozen behind an `Arc` and shared by every clone; only
//! the open chunk at the end, fewer than [`CHUNK`] elements, is a
//! vector's own. [`SharedMap`] is its twin for the maps kept beside such
//! a vector — a relation's dedup map and lazy indexes, a certificate
//! store's ground-head index: a hash map cut into
//! shards, each behind an `Arc`, so that a clone copies one pointer per
//! shard and a write the one shard it touches.
//!
//! **A removal moves nothing.** [`SharedVec::kill`] leaves a tombstone
//! where the element was: positions do not move, no chunk is copied, and
//! iteration skips it. The one operation that moves elements is
//! [`SharedVec::repack`], which closes the gaps and reports which
//! positions went, so that whoever keeps positions elsewhere can follow;
//! a caller re-packs once the tombstones reach the live elements, which
//! keeps a re-pack amortized O(1) per removal. So a vector has two
//! lengths: [`SharedVec::len`] counts the live elements,
//! [`SharedVec::end`] is the next position, one past every element ever
//! pushed and not cut off, live or not.

use std::borrow::Borrow;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

const CHUNK_BITS: u32 = 5;

/// Elements per chunk: what a clone copies at most. A power of two, so a
/// position splits into chunk and offset by shift and mask.
pub const CHUNK: usize = 1 << CHUNK_BITS;

/// Entries per shard at which a [`SharedMap`] doubles its shard count.
const SHARD: usize = CHUNK;

/// A vector in chunks of [`CHUNK`] elements.
///
/// **What is shared.** A clone copies the pointers of the full chunks and
/// the elements of the open one — fewer than `CHUNK`, however long the
/// vector — and the pointers of its tombstone map's shards. Appending to
/// either side then copies nothing: it fills that side's open chunk and,
/// when full, freezes it. Killing an element copies at most one shard of
/// the tombstone map. Truncating copies the kept part of the chunk the
/// cut falls in; re-packing rewrites the chunks from the first tombstone
/// on, copying the elements that stay. Chunks before the first changed
/// position remain shared for as long as both vectors live. (A chunk
/// nobody else holds gives its elements up by move instead.)
///
/// **Why a shared chunk is never written.** There is no operation that
/// writes one: a chunk goes behind its `Arc` when it is full and is only
/// ever read, cloned from, or let go of after that. So a clone taken
/// earlier — a published snapshot a reader thread is probing — cannot
/// observe a later write, and needs no lock to read.
#[derive(Clone, Debug)]
pub struct SharedVec<T> {
    /// The full chunks.
    full: Vec<Arc<[T; CHUNK]>>,
    /// The last, partly filled chunk: fewer than `CHUNK` elements.
    open: Vec<T>,
    /// Bit `p % 64` of the word filed under `p / 64` is set: the element
    /// at position `p` is a tombstone. Words with no bit set are absent.
    dead: SharedMap<usize, u64>,
    /// How many bits `dead` has set.
    tombstones: usize,
}

impl<T> Default for SharedVec<T> {
    fn default() -> Self {
        SharedVec {
            full: Vec::new(),
            open: Vec::new(),
            dead: SharedMap::default(),
            tombstones: 0,
        }
    }
}

impl<T: Clone> SharedVec<T> {
    /// An empty vector.
    pub fn new() -> SharedVec<T> {
        SharedVec::default()
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.end() - self.tombstones
    }

    /// The next position: one past the last element pushed and not cut
    /// off, live or a tombstone.
    pub fn end(&self) -> usize {
        self.full.len() * CHUNK + self.open.len()
    }

    /// Number of tombstones.
    pub fn tombstones(&self) -> usize {
        self.tombstones
    }

    /// Whether there are no live elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element at `pos`, which is below [`SharedVec::end`] — a
    /// tombstone still holds the element it replaced.
    pub fn get(&self, pos: usize) -> &T {
        let chunk = self.full.get(pos >> CHUNK_BITS);
        &chunk.map_or(&self.open[..], |chunk| &chunk[..])[pos & (CHUNK - 1)]
    }

    /// The live elements at position `from` and after, in order, each
    /// with its position.
    pub fn entries_from(&self, from: usize) -> impl Iterator<Item = (usize, &T)> {
        let from = from.min(self.end());
        let chunks = self.full[(from >> CHUNK_BITS).min(self.full.len())..]
            .iter()
            .map(|chunk| &chunk[..])
            .chain(std::iter::once(&self.open[..]));
        let elements = chunks.flatten().skip(from & (CHUNK - 1));
        // The tombstone word of the position last looked at: one lookup
        // per 64 positions, none while there are no tombstones.
        let mut word = (usize::MAX, 0u64);
        (from..).zip(elements).filter(move |&(pos, _)| {
            if self.tombstones == 0 {
                return true;
            }
            if word.0 != pos >> 6 {
                word = (pos >> 6, self.dead.get(&(pos >> 6)).copied().unwrap_or(0));
            }
            word.1 >> (pos & 63) & 1 == 0
        })
    }

    /// The live elements at position `from` and after, in order.
    pub fn iter_from(&self, from: usize) -> impl Iterator<Item = &T> {
        self.entries_from(from).map(|(_, value)| value)
    }

    /// Every live element, in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.iter_from(0)
    }

    /// Appends `value` at position [`SharedVec::end`].
    pub fn push(&mut self, value: T) {
        self.open.push(value);
        if self.open.len() == CHUNK {
            let full = std::mem::replace(&mut self.open, Vec::with_capacity(CHUNK));
            let full: [T; CHUNK] = full.try_into().ok().expect("CHUNK elements");
            self.full.push(Arc::new(full));
        }
    }

    /// Turns the live element at `pos` into a tombstone. Nothing moves and
    /// no chunk is copied.
    pub fn kill(&mut self, pos: usize) {
        let bit = 1u64 << (pos & 63);
        debug_assert!(pos < self.end(), "position {pos} of {}", self.end());
        debug_assert_eq!(self.dead.get(&(pos >> 6)).map_or(0, |w| w & bit), 0);
        self.dead.upsert(pos >> 6, || bit, |word| *word |= bit);
        self.tombstones += 1;
    }

    /// Drops the elements and tombstones at position `end` and after.
    pub fn truncate(&mut self, end: usize) {
        if end >= self.end() {
            return;
        }
        if self.tombstones > 0 {
            for w in (end >> 6)..=((self.end() - 1) >> 6) {
                let kept = if w == end >> 6 {
                    (1u64 << (end & 63)) - 1
                } else {
                    0
                };
                let Some(word) = self.dead.get_mut(&w) else {
                    continue;
                };
                self.tombstones -= (*word & !kept).count_ones() as usize;
                *word &= kept;
                if *word == 0 {
                    self.dead.remove(&w);
                }
            }
        }
        let (chunk, kept) = (end >> CHUNK_BITS, end & (CHUNK - 1));
        if chunk >= self.full.len() {
            return self.open.truncate(kept);
        }
        // The cut falls in a frozen chunk: its kept part reopens.
        self.full.truncate(chunk + 1);
        let cut = self.full.pop().expect("kept above");
        self.open = thaw(cut).take(kept).collect();
    }

    /// Removes every tombstone, closing the gaps — what followed one moves
    /// down a position per tombstone before it — and returns the
    /// positions the tombstones held, ascending. The one operation that
    /// moves elements.
    pub fn repack(&mut self) -> Vec<usize> {
        let mut gone: Vec<usize> = (self.dead.iter())
            .flat_map(|(&w, &bits)| {
                (0..64)
                    .filter(move |b| bits >> b & 1 == 1)
                    .map(move |b| w * 64 + b)
            })
            .collect();
        gone.sort_unstable();
        self.dead.clear();
        self.tombstones = 0;
        let Some(&first) = gone.first() else {
            return gone;
        };
        let rewritten = self
            .full
            .split_off((first >> CHUNK_BITS).min(self.full.len()));
        let last = std::mem::take(&mut self.open);
        let elements = rewritten.into_iter().flat_map(thaw).chain(last);
        let mut doomed = gone.iter().copied().peekable();
        for (pos, value) in (self.end()..).zip(elements) {
            if doomed.next_if_eq(&pos).is_none() {
                self.push(value);
            }
        }
        gone
    }

    /// Removes every element and tombstone.
    pub fn clear(&mut self) {
        self.full.clear();
        self.open.clear();
        self.dead.clear();
        self.tombstones = 0;
    }

    /// How many of this vector's positions sit in a chunk `other` holds
    /// too (same chunk, same place) — the elements neither side has copied
    /// since one was cloned from the other. Tests bound what an operation
    /// copied by it.
    pub fn shared_with(&self, other: &SharedVec<T>) -> usize {
        let pairs = self.full.iter().zip(&other.full);
        CHUNK
            * pairs
                .filter(|(mine, theirs)| Arc::ptr_eq(mine, theirs))
                .count()
    }
}

/// The elements of a frozen chunk: moved out when nobody else holds it,
/// copied otherwise.
fn thaw<T: Clone>(chunk: Arc<[T; CHUNK]>) -> impl Iterator<Item = T> {
    Arc::unwrap_or_clone(chunk).into_iter()
}

/// A hash map whose clones share every shard neither changed.
///
/// **What is shared.** Up to [`CHUNK`] entries the map is one table of
/// its own, which a clone copies — like [`SharedVec`]'s open chunk, a
/// bounded copy. Past that the entries are cut into a power-of-two number
/// of shards by the bits of each key's hash from the 32nd up (a shard's
/// own table indexes by the low bits), each shard a `HashMap` behind an
/// `Arc`. A clone copies one pointer per shard. A write — an
/// [`SharedMap::upsert`], a [`SharedMap::get_mut`] or a
/// [`SharedMap::remove`] of a key that is there — first makes the one
/// shard it touches its own, copying that shard's entries when a clone
/// still holds it. The shard count doubles when the map reaches `CHUNK`
/// entries per shard, so a shard — what a write copies — holds about
/// `CHUNK` entries or fewer however large the map grows; the doubling
/// rewrites every shard, once per doubling of the map, which is amortized
/// O(1) per insert. A probe is one hash, one shard select and one lookup
/// in that shard.
///
/// **Why a shared shard is never written.** Every write to a shard goes
/// through `Arc::make_mut`, which copies a shard some clone still holds
/// before the write reaches it. So, as for [`SharedVec`], a clone taken
/// earlier cannot observe a later write and needs no lock to read.
#[derive(Clone)]
pub struct SharedMap<K, V, S = RandomState> {
    /// Every entry, while there are no shards.
    small: HashMap<K, V, S>,
    /// The shards, once the map outgrew `small`.
    shards: Vec<Arc<HashMap<K, V, S>>>,
    /// Entries in all.
    len: usize,
    /// What hashes a key to select its shard; every table hashes with a
    /// clone of it.
    hasher: S,
}

impl<K, V, S: Default> Default for SharedMap<K, V, S> {
    fn default() -> Self {
        SharedMap {
            small: HashMap::with_hasher(S::default()),
            shards: Vec::new(),
            len: 0,
            hasher: S::default(),
        }
    }
}

/// The shard of `count` (a power of two) a key hashing to `hash` is in.
fn slot(hash: u64, count: usize) -> usize {
    (hash >> 32) as usize & (count - 1)
}

impl<K: Hash + Eq + Clone, V: Clone, S: BuildHasher + Clone> SharedMap<K, V, S> {
    /// An empty map.
    pub fn new() -> SharedMap<K, V, S>
    where
        S: Default,
    {
        SharedMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The table `key` belongs in.
    fn table<Q: Hash + ?Sized>(&self, key: &Q) -> &HashMap<K, V, S> {
        if self.shards.is_empty() {
            return &self.small;
        }
        &self.shards[slot(self.hasher.hash_one(key), self.shards.len())]
    }

    /// The table `key` belongs in, made this map's own.
    fn table_mut<Q: Hash + ?Sized>(&mut self, key: &Q) -> &mut HashMap<K, V, S> {
        if self.shards.is_empty() {
            return &mut self.small;
        }
        let i = slot(self.hasher.hash_one(key), self.shards.len());
        Arc::make_mut(&mut self.shards[i])
    }

    /// The value under `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.table(key).get(key)
    }

    /// The value under `key`, to change in place. Copies the key's shard
    /// when a clone still holds it and the key is there.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(key)?;
        self.table_mut(key).get_mut(key)
    }

    /// Updates the value under `key` with `update`, or, when there is
    /// none, files `insert()` under it.
    pub fn upsert(&mut self, key: K, insert: impl FnOnce() -> V, update: impl FnOnce(&mut V)) {
        if self.len >= self.shards.len().max(1) * SHARD {
            self.grow();
        }
        let inserted = match self.table_mut(&key).entry(key) {
            Entry::Occupied(mut slot) => {
                update(slot.get_mut());
                false
            }
            Entry::Vacant(slot) => {
                slot.insert(insert());
                true
            }
        };
        self.len += usize::from(inserted);
    }

    /// Takes the entry under `key` out. A key that is not there copies
    /// nothing.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(key)?;
        self.len -= 1;
        self.table_mut(key).remove(key)
    }

    /// Every value, to change in place: makes every shard this map's own.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        let shards = self.shards.iter_mut();
        (self.small.values_mut()).chain(shards.flat_map(|shard| Arc::make_mut(shard).values_mut()))
    }

    /// Every entry, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        (self.small.iter()).chain(self.shards.iter().flat_map(|shard| shard.iter()))
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.small.clear();
        self.shards.clear();
        self.len = 0;
    }

    /// How many of this map's shards `other` does not hold too (same
    /// slot, same allocation): the shards copied since one was cloned from
    /// the other. A map of one table of its own counts it, when it holds
    /// anything. Tests bound what an operation copied by it.
    pub fn unshared_shards(&self, other: &SharedMap<K, V, S>) -> usize {
        if self.shards.is_empty() {
            return usize::from(!self.small.is_empty());
        }
        let held = |(i, mine): &(usize, &Arc<HashMap<K, V, S>>)| {
            (other.shards.get(*i)).is_some_and(|theirs| Arc::ptr_eq(mine, theirs))
        };
        self.shards.iter().enumerate().filter(|s| !held(s)).count()
    }

    /// Doubles the shard count (from one table to two shards).
    fn grow(&mut self) {
        let count = (self.shards.len() * 2).max(2);
        // A shard holds about half of `SHARD` entries after the split and
        // fills up to `SHARD` before the next one.
        let capacity = 2 * self.len / count;
        let mut grown: Vec<HashMap<K, V, S>> = (0..count)
            .map(|_| HashMap::with_capacity_and_hasher(capacity, self.hasher.clone()))
            .collect();
        let small = HashMap::with_hasher(self.hasher.clone());
        let small = std::mem::replace(&mut self.small, small);
        let shards = std::mem::take(&mut self.shards).into_iter();
        for (key, value) in std::iter::once(small)
            .chain(shards.map(Arc::unwrap_or_clone))
            .flatten()
        {
            grown[slot(self.hasher.hash_one(&key), count)].insert(key, value);
        }
        self.shards = grown.into_iter().map(Arc::new).collect();
    }
}

impl<K, V, S> PartialEq for SharedMap<K, V, S>
where
    K: Hash + Eq + Clone,
    V: Clone + PartialEq,
    S: BuildHasher + Clone,
{
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .iter()
                .all(|(key, value)| other.get(key) == Some(value))
    }
}

impl<K: fmt::Debug, V: fmt::Debug, S> fmt::Debug for SharedMap<K, V, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shards = self.shards.iter().flat_map(|shard| shard.iter());
        f.debug_map()
            .entries(self.small.iter().chain(shards))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> SharedVec<usize> {
        let mut v = SharedVec::new();
        for i in 0..n {
            v.push(i);
        }
        v
    }

    fn contents(v: &SharedVec<usize>) -> Vec<usize> {
        v.iter().copied().collect()
    }

    #[test]
    fn push_get_and_windows() {
        let v = filled(3 * CHUNK + 7);
        assert_eq!(v.len(), 3 * CHUNK + 7);
        assert_eq!(contents(&v), (0..v.len()).collect::<Vec<_>>());
        for from in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK, v.len() - 1] {
            assert_eq!(*v.get(from), from);
            let window: Vec<usize> = v.iter_from(from).copied().collect();
            assert_eq!(window, (from..v.len()).collect::<Vec<_>>(), "from {from}");
        }
        assert_eq!(v.iter_from(v.len()).count(), 0);
        assert_eq!(v.iter_from(v.len() + 100).count(), 0);
        assert_eq!(filled(2 * CHUNK).iter_from(2 * CHUNK).count(), 0);
        assert_eq!(SharedVec::<usize>::new().iter().count(), 0);
    }

    #[test]
    fn a_clone_copies_the_open_chunk_and_an_append_nothing() {
        let mut v = filled(4 * CHUNK + 3);
        let before = v.clone();
        // The three elements of the open chunk were copied, the full
        // chunks are the same allocations.
        assert_eq!(v.shared_with(&before), 4 * CHUNK);
        v.push(99);
        assert_eq!(v.shared_with(&before), 4 * CHUNK);
        assert_eq!(before.len(), 4 * CHUNK + 3);
        assert_eq!(contents(&before), (0..before.len()).collect::<Vec<_>>());
        assert_eq!(*v.get(4 * CHUNK + 3), 99);
        // A chunk that fills up after the clone is the filler's alone.
        for i in 0..CHUNK {
            v.push(i);
        }
        assert_eq!(v.shared_with(&before), 4 * CHUNK);
        assert_eq!(v.len(), 5 * CHUNK + 4);
    }

    #[test]
    fn truncate_cuts_inside_and_between_chunks() {
        for len in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5] {
            let mut v = filled(2 * CHUNK + 9);
            let before = v.clone();
            v.truncate(len);
            assert_eq!(contents(&v), (0..len).collect::<Vec<_>>());
            assert_eq!(before.len(), 2 * CHUNK + 9, "the clone keeps its tail");
            v.push(1000);
            assert_eq!(*v.get(len), 1000);
            assert_eq!(*before.get(len), len);
        }
        let mut v = filled(5);
        v.truncate(9);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn a_tombstone_moves_nothing_and_a_repack_closes_the_gaps() {
        let n = 3 * CHUNK + 4;
        for doomed in [
            vec![0],
            vec![n - 1],
            vec![CHUNK - 1, CHUNK],
            vec![5, CHUNK + 5, 63, 64, 2 * CHUNK + 5, n - 2],
            (0..n).collect(),
        ] {
            let expected: Vec<usize> = (0..n).filter(|i| !doomed.contains(i)).collect();
            for shared in [false, true] {
                let mut v = filled(n);
                let before = shared.then(|| v.clone());
                let before = before.as_ref();
                for &pos in doomed.iter().rev() {
                    v.kill(pos);
                }
                // Killing copied no chunk and moved no position.
                assert_eq!(contents(&v), expected, "{doomed:?}");
                assert_eq!((v.len(), v.end()), (expected.len(), n));
                assert_eq!(v.tombstones(), doomed.len());
                let window: Vec<usize> = v.iter_from(CHUNK).copied().collect();
                let from_chunk: Vec<usize> =
                    expected.iter().copied().filter(|&i| i >= CHUNK).collect();
                assert_eq!(window, from_chunk);
                if let Some(before) = before {
                    assert_eq!(v.shared_with(before), 3 * CHUNK);
                    assert_eq!(contents(before), (0..n).collect::<Vec<_>>());
                }
                // A re-pack closes the gaps; chunks before the first
                // tombstone stay shared.
                assert_eq!(v.repack(), doomed);
                assert_eq!(contents(&v), expected);
                assert_eq!(
                    (v.len(), v.end(), v.tombstones()),
                    (expected.len(), expected.len(), 0)
                );
                if let Some(before) = before {
                    assert_eq!(v.shared_with(before), doomed[0] / CHUNK * CHUNK);
                    assert_eq!(contents(before), (0..n).collect::<Vec<_>>());
                }
                v.push(7);
                assert_eq!(*v.get(expected.len()), 7);
            }
        }
        let mut v = filled(4);
        assert!(v.repack().is_empty());
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn truncate_takes_the_tombstones_it_cuts() {
        let mut v = filled(3 * CHUNK);
        for pos in [3, 63, 64, 65, 90] {
            v.kill(pos);
        }
        v.truncate(65);
        assert_eq!((v.end(), v.tombstones(), v.len()), (65, 3, 62));
        v.push(1000);
        assert_eq!(v.iter().last(), Some(&1000), "position 65 is live again");
        v.truncate(64);
        assert_eq!((v.end(), v.tombstones()), (64, 2));
        v.truncate(0);
        assert_eq!((v.end(), v.tombstones()), (0, 0));
        assert!(v.is_empty());
    }

    #[test]
    fn a_map_shares_every_shard_it_did_not_write() {
        let mut map: SharedMap<u64, u64> = SharedMap::new();
        assert_eq!(map.get(&1), None);
        assert_eq!(map.remove(&1), None);
        for key in 0..1000 {
            map.upsert(key, || key, |_| unreachable!("fresh"));
        }
        assert_eq!(map.len(), 1000);
        let original = map.clone();
        assert_eq!(map.unshared_shards(&original), 0);
        map.upsert(7, || unreachable!("present"), |value| *value += 1);
        assert_eq!(map.unshared_shards(&original), 1);
        assert_eq!((map.get(&7), original.get(&7)), (Some(&8), Some(&7)));
        // Removing what is not there copies nothing.
        let before = map.clone();
        assert_eq!(map.remove(&5000), None);
        assert!(map.get_mut(&5000).is_none());
        assert_eq!(map.unshared_shards(&before), 0);
        assert_eq!(map.remove(&8), Some(8));
        assert_eq!(map.unshared_shards(&before), 1);
        assert_eq!((map.len(), before.len()), (999, 1000));
        assert_ne!(map, before);
        map.upsert(8, || 8, |_| unreachable!("removed"));
        assert_eq!(map.get(&7), Some(&8));
        map.upsert(7, || 7, |value| *value = 7);
        assert_eq!(map, original);
        assert!(map.shards.len() * SHARD >= map.len());
        assert!(map.shards.len() <= 2 * map.len() / SHARD + 1);
    }

    /// One step of the map model-equivalence property below.
    #[derive(Clone, Debug)]
    enum MapOp {
        Insert(u16, u32),
        Remove(u16),
        Get(u16),
        Clone,
    }

    fn arb_map_ops() -> impl proptest::strategy::Strategy<Value = Vec<(usize, MapOp)>> {
        use proptest::prelude::*;
        let op = (0u8..10, 0u16..600, any::<u32>()).prop_map(|(kind, key, value)| match kind {
            0..=4 => MapOp::Insert(key, value),
            5..=6 => MapOp::Remove(key),
            7..=8 => MapOp::Get(key),
            _ => MapOp::Clone,
        });
        prop::collection::vec((0usize..8, op), 1..400)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A map and every clone taken along the way, each beside a
        /// `HashMap` model: every member equals its own model after every
        /// step, so no member sees a write made to another, and a write
        /// that does not grow the map copies at most the one shard it
        /// touches.
        #[test]
        fn model_equivalence_of_a_shared_map_and_its_clones(ops in arb_map_ops()) {
            let mut family: Vec<(SharedMap<u16, u32>, HashMap<u16, u32>)> =
                vec![(SharedMap::new(), HashMap::new())];
            for (which, op) in ops {
                let target = which % family.len();
                let (map, model) = &mut family[target];
                let before = map.clone();
                match op {
                    MapOp::Insert(key, value) => {
                        map.upsert(key, || value, |old| *old = value);
                        model.insert(key, value);
                    }
                    MapOp::Remove(key) => {
                        assert_eq!(map.remove(&key), model.remove(&key));
                    }
                    MapOp::Get(key) => assert_eq!(map.get(&key), model.get(&key)),
                    MapOp::Clone => {
                        let copy = (map.clone(), model.clone());
                        family.push(copy);
                    }
                }
                let (map, _) = &family[target];
                if map.shards.len() == before.shards.len() {
                    assert!(map.unshared_shards(&before) <= 1);
                }
                for (map, model) in &family {
                    assert_eq!(map.len(), model.len());
                    assert!(model.iter().all(|(key, value)| map.get(key) == Some(value)));
                    assert_eq!(map.iter().count(), model.len());
                }
            }
        }
    }
}
