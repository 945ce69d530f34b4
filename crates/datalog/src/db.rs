//! Tuple storage: relations that keep each tuple once — in chunks their
//! clones share — find it again by hash, and build per-column-set hash
//! indices on demand.
//!
//! A [`Database`] is the fact store of one LogicBlox-style workspace
//! (§3.1 of the paper). Indices are built lazily for the column sets a
//! join actually probes and are maintained incrementally on insert and
//! removal, so repeated semi-naive rounds pay amortized O(1) per probe —
//! and, because a closed quote pattern is a key like any other value
//! ([`crate::unify::Bindings`]), so does proving `says(hub,me,[| good(s5) |])`.

use crate::intern::Symbol;
use crate::shared::{SharedMap, SharedVec};
use crate::unify::hash_value;
use crate::value::Value;
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::ops::ControlFlow;
use std::sync::{Arc, OnceLock, RwLock};

/// A stored tuple.
pub type Tuple = Vec<Value>;

/// A hasher for key columns, keyed once per process: stored tuples arrive
/// in certificates, so the key must not be one an outsider can know.
fn key_hasher() -> DefaultHasher {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    KEYS.get_or_init(RandomState::new).build_hasher()
}

/// The positions filed under one hash, ascending.
#[derive(Clone, Debug)]
enum Bucket {
    One(u32),
    Many(Vec<u32>),
}

impl Bucket {
    fn positions(&self) -> &[u32] {
        match self {
            Bucket::One(pos) => std::slice::from_ref(pos),
            Bucket::Many(positions) => positions,
        }
    }
}

/// The keys of a [`PositionIndex`] are hashes already.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("position indexes are keyed by u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Hash -> the ascending positions of the entries filed under it: a
/// relation's dedup map and each of its indexes, and a workspace's index
/// of its base facts. A [`SharedMap`], so a clone shares every shard and
/// a write copies the one it touches; the caller hashes, and a hash is a
/// superset of what it is looking for (colliding entries share a bucket).
#[derive(Clone, Debug, Default)]
pub struct PositionIndex(SharedMap<u64, Bucket, BuildHasherDefault<PassThrough>>);

impl PositionIndex {
    /// An empty index.
    pub fn new() -> PositionIndex {
        PositionIndex::default()
    }

    /// Files `pos` — larger than every position already there — under
    /// `hash`.
    pub fn add(&mut self, hash: u64, pos: u32) {
        self.0.upsert(
            hash,
            || Bucket::One(pos),
            |bucket| match bucket {
                Bucket::One(first) => *bucket = Bucket::Many(vec![*first, pos]),
                Bucket::Many(positions) => positions.push(pos),
            },
        );
    }

    /// Takes `pos`, which is filed under `hash`, back out.
    pub fn remove(&mut self, hash: u64, pos: u32) {
        let emptied = match self.0.get_mut(&hash) {
            Some(Bucket::One(filed)) => {
                debug_assert_eq!(*filed, pos);
                true
            }
            Some(Bucket::Many(positions)) => {
                let at = positions.binary_search(&pos);
                positions.remove(at.expect("position filed under its hash"));
                positions.is_empty()
            }
            None => unreachable!("position {pos} was filed under its hash"),
        };
        if emptied {
            self.0.remove(&hash);
        }
    }

    /// The positions filed under `hash` that are `from` or later.
    pub fn positions_from(&self, hash: u64, from: usize) -> &[u32] {
        let positions = self.0.get(&hash).map_or(&[][..], Bucket::positions);
        &positions[positions.partition_point(|&pos| (pos as usize) < from)..]
    }

    /// Moves each position down by the number of positions in `gone`
    /// (ascending, none of them filed any more) below it — what a re-pack
    /// ([`SharedVec::repack`]) does to what the positions point at. Order
    /// within a bucket is kept, and nothing is hashed.
    pub fn close_gaps(&mut self, gone: &[usize]) {
        let moved = |pos: &mut u32| *pos -= gone.partition_point(|&g| g < *pos as usize) as u32;
        for bucket in self.0.values_mut() {
            match bucket {
                Bucket::One(pos) => moved(pos),
                Bucket::Many(positions) => positions.iter_mut().for_each(moved),
            }
        }
    }

    /// Number of distinct hashes filed.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether nothing is filed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Removes everything.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// How many of this index's shards `other` does not hold too
    /// ([`SharedMap::unshared_shards`]).
    pub fn unshared_shards(&self, other: &PositionIndex) -> usize {
        self.0.unshared_shards(&other.0)
    }
}

/// How many positions [`Relation::probe`] copies out of an index under
/// one hold of its lock.
const PROBE_BATCH: usize = 32;

#[cfg(test)]
thread_local! {
    /// How many tuples [`Relation::probe`] has shown on this thread.
    pub(crate) static PROBED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Which columns of an atom a probe has values for, and the hash of those
/// values: what [`Relation::probe`] looks up.
#[derive(Clone, Debug)]
pub struct ProbeKey {
    arity: usize,
    /// Bit `c` set: column `c` is part of the key. Columns from the 64th
    /// on never are; the re-match checks them.
    cols: u64,
    hasher: DefaultHasher,
}

impl ProbeKey {
    /// A key with no column bound yet, for an atom of `arity` arguments.
    pub fn new(arity: usize) -> ProbeKey {
        ProbeKey {
            arity,
            cols: 0,
            hasher: key_hasher(),
        }
    }

    /// Binds column `col` to `value`. Columns are bound in ascending
    /// order.
    pub fn bind(&mut self, col: usize, value: &Value) {
        self.bind_if(col, |state| {
            hash_value(value, state);
            true
        });
    }

    /// Binds column `col` to what `feed` hashes, if `feed` returns `true`
    /// ([`crate::unify::Bindings::hash_closed`]).
    pub(crate) fn bind_if(&mut self, col: usize, feed: impl FnOnce(&mut DefaultHasher) -> bool) {
        debug_assert!(col < self.arity, "column {col} of {} arguments", self.arity);
        if col >= u64::BITS as usize {
            return;
        }
        debug_assert_eq!(self.cols >> col, 0, "columns are bound in ascending order");
        let mut attempt = self.hasher.clone();
        if feed(&mut attempt) {
            self.hasher = attempt;
            self.cols |= 1 << col;
        }
    }
}

/// The hash `tuple` is filed under in [`Relation`]'s `all`: every column,
/// in order — also what a [`ProbeKey`] binding all `tuple.len()` columns
/// hashes.
fn hash_all(tuple: &[Value], ignored_bits: u64) -> u64 {
    let mut hasher = key_hasher();
    for value in tuple {
        hash_value(value, &mut hasher);
    }
    hasher.finish() & !ignored_bits
}

/// The hash `tuple` is filed under in the index on `cols`, or `None` when
/// the tuple is too short to have those columns (mixed arity in an
/// untyped store; no atom keyed on them can match it).
fn hash_cols(cols: u64, tuple: &[Value], ignored_bits: u64) -> Option<u64> {
    let mut hasher = key_hasher();
    let mut rest = cols;
    while rest != 0 {
        hash_value(tuple.get(rest.trailing_zeros() as usize)?, &mut hasher);
        rest &= rest - 1;
    }
    Some(hasher.finish() & !ignored_bits)
}

/// One relation: the extension of a single predicate.
///
/// **What is stored.** Each tuple is held once, in `tuples`, at a
/// position that is its insertion rank. Everything else is positions:
/// `all` maps the hash of a whole tuple to where it is (the dedup set),
/// and each lazily built index maps the hash of one *column set* to the
/// ascending positions of the tuples whose columns hash to it. No index
/// holds a [`Value`].
///
/// **Two lengths.** A removed tuple becomes a tombstone: it leaves `all`
/// and every index, its position is marked dead, and nothing else moves.
/// So [`Relation::len`] counts the live tuples and [`Relation::end`] is
/// the next position — one past every tuple inserted and not cut off,
/// live or dead. Positions, delta windows and rollback marks are in the
/// second; sizes in the first. Once the dead positions reach the live
/// ones the relation re-packs: the tombstones go, the tuples after each
/// move down and every position map follows. That is the one event that
/// moves a tuple, and it costs O(relation) once per at least as many
/// removals, so a removal is amortized O(1).
///
/// **What is shared.** `tuples` is a [`SharedVec`]: chunks of
/// [`crate::shared::CHUNK`] tuples, the full ones each frozen behind an
/// `Arc`; `all` and every index are [`SharedMap`]s, shards behind `Arc`s.
/// A clone of the relation — a published snapshot, a transaction's undo
/// copy — copies the chunk and shard pointers and the tuples of the open
/// last chunk (fewer than `CHUNK`, whatever the relation holds), and from
/// then on the two share every chunk and shard neither has changed.
/// Inserting copies the shard of each map the new position is filed in;
/// removing, the shard of each map it is taken out of and one of the
/// tombstone map. A [`Relation::truncate`] copies the kept part of the
/// chunk the cut falls in; a re-pack, the tuples and shards from the first
/// tombstone on. A full chunk is never written again — there is no
/// operation that does — which is what lets a reader thread probe an old
/// snapshot with no lock on the tuples while the writer carries on. One
/// level up, a [`Database`] holds each relation behind an `Arc` too, so a
/// relation nobody wrote to since a clone is the same allocation in both —
/// one pointer copied, its indices warm for both sides.
///
/// **Why candidates are re-matched.** A bucket is found by a 64-bit hash
/// taken in the matcher's view (`Bindings::hash_closed` in [`crate::unify`]),
/// which deliberately identifies values `==` tells apart, and distinct
/// keys can collide besides. A bucket is therefore a superset of the
/// tuples wanted, never a subset: whoever probes must check every tuple
/// it is shown (`match_tuple`), and `contains`/`insert` compare against
/// the tuple at each position.
///
/// **Order.** A bucket lists positions in insertion order, so a probe
/// visits tuples in the order a full scan would, and a semi-naive delta
/// window (`from`) is a binary search for the first position inside it.
/// A bucket never lists a dead position.
///
/// **Locking.** Lazy indices live behind an `RwLock` (not a `RefCell`) so
/// a `Relation` — and therefore a snapshot of a whole [`Database`] — is
/// `Sync`: concurrent authorization readers probe shared snapshots from
/// many threads, taking the read lock once an index is warm. The lock is
/// held to look positions up, never while the visitor passed to
/// [`Relation::probe`] runs: a depth-first join probes its next literal
/// from inside that visitor, and when that literal is over the same
/// relation on a column set not probed before, it takes the write lock.
#[derive(Debug, Default)]
pub struct Relation {
    tuples: SharedVec<Tuple>,
    all: PositionIndex,
    /// Column set (as in [`ProbeKey`]) -> its index.
    indices: RwLock<HashMap<u64, PositionIndex>>,
    /// Hash bits to ignore; zero except in the collision tests.
    ignored_hash_bits: u64,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        // Tuples are shared and positions are the same on both sides, so
        // the indices built so far are as good for the clone as for the
        // original: copying them is a pointer per shard, rebuilding them
        // hashes every tuple.
        let indices = self.indices.read().expect("index lock poisoned");
        Relation {
            tuples: self.tuples.clone(),
            all: self.all.clone(),
            indices: RwLock::new(indices.clone()),
            ignored_hash_bits: self.ignored_hash_bits,
        }
    }
}

impl Relation {
    /// An empty relation.
    pub fn new() -> Relation {
        Relation::default()
    }

    /// An empty relation whose hashes keep only their lowest bit, so that
    /// every bucket is shared by about half the keys.
    #[cfg(test)]
    pub(crate) fn with_colliding_hashes() -> Relation {
        Relation {
            ignored_hash_bits: !1,
            ..Relation::default()
        }
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// The next position: one past every tuple inserted and not cut off,
    /// live or removed. A delta window or a rollback mark is one of these.
    pub fn end(&self) -> usize {
        self.tuples.end()
    }

    /// Whether the relation has no live tuple.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    fn build_index(&self, cols: u64) -> PositionIndex {
        let mut index = PositionIndex::new();
        for (pos, tuple) in self.tuples.entries_from(0) {
            if let Some(hash) = hash_cols(cols, tuple, self.ignored_hash_bits) {
                index.add(hash, pos as u32);
            }
        }
        index
    }

    /// Where `tuple`, which hashes to `hash`, is.
    fn position(&self, hash: u64, tuple: &[Value]) -> Option<u32> {
        let mut positions = self.all.positions_from(hash, 0).iter().copied();
        positions.find(|&pos| self.tuples.get(pos as usize) == tuple)
    }

    /// Whether `tuple` is present.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        let hash = hash_all(tuple, self.ignored_hash_bits);
        self.position(hash, tuple).is_some()
    }

    /// Inserts a tuple; returns `true` when it is new. Existing indices
    /// are maintained incrementally.
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        let hash = hash_all(&tuple, self.ignored_hash_bits);
        if self.position(hash, &tuple).is_some() {
            return false;
        }
        self.file(hash, tuple);
        true
    }

    /// Appends `tuple`, which hashes to `hash` and is not present.
    fn file(&mut self, hash: u64, tuple: Tuple) {
        let ignored_bits = self.ignored_hash_bits;
        let pos = u32::try_from(self.tuples.end()).expect("a relation holds under 2^32 tuples");
        let indices = self.indices.get_mut().expect("index lock poisoned");
        for (&cols, index) in indices.iter_mut() {
            if let Some(hash) = hash_cols(cols, &tuple, ignored_bits) {
                index.add(hash, pos);
            }
        }
        self.all.add(hash, pos);
        self.tuples.push(tuple);
    }

    /// Takes the live tuple at `pos` out of the dedup map and every index
    /// built so far.
    fn unfile(&mut self, pos: usize) {
        let ignored_bits = self.ignored_hash_bits;
        let tuple = self.tuples.get(pos);
        self.all.remove(hash_all(tuple, ignored_bits), pos as u32);
        let indices = self.indices.get_mut().expect("index lock poisoned");
        for (&cols, index) in indices.iter_mut() {
            if let Some(hash) = hash_cols(cols, tuple, ignored_bits) {
                index.remove(hash, pos as u32);
            }
        }
    }

    /// Iterates over the live tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// The live tuples at position `from` or later — the semi-naive delta
    /// window — in insertion order.
    pub fn since(&self, from: usize) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter_from(from)
    }

    /// Shows `visit`, in insertion order, every live tuple at position
    /// `from` or later that has `key.arity` columns and `key`'s values in
    /// its bound columns — and possibly others; `visit` checks each (see
    /// the type's documentation). Stops when `visit` breaks. Builds the
    /// index for the key's column set on first use; a key binding every
    /// column needs none.
    pub fn probe(
        &self,
        key: &ProbeKey,
        from: usize,
        mut visit: impl FnMut(&Tuple) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        #[cfg(test)]
        let mut visit = |tuple: &Tuple| {
            PROBED.with(|n| n.set(n.get() + 1));
            visit(tuple)
        };
        if key.cols == 0 {
            return self.since(from).try_for_each(visit);
        }
        let hash = key.hasher.finish() & !self.ignored_hash_bits;
        let mut show = |positions: &[u32]| {
            let mut tuples = positions.iter().map(|&pos| self.tuples.get(pos as usize));
            tuples.try_for_each(&mut visit)
        };
        if key.cols.count_ones() as usize == key.arity {
            return show(self.all.positions_from(hash, from));
        }
        // `visit` runs outside the index lock (see **Locking**), so the
        // positions are copied out a batch at a time and the walk resumes
        // behind the last one shown.
        let mut from = from;
        loop {
            let mut batch = [0u32; PROBE_BATCH];
            let n = self.with_index(key.cols, |index| {
                let positions = index.positions_from(hash, from);
                let n = positions.len().min(PROBE_BATCH);
                batch[..n].copy_from_slice(&positions[..n]);
                n
            });
            show(&batch[..n])?;
            if n < PROBE_BATCH {
                return ControlFlow::Continue(());
            }
            from = batch[n - 1] as usize + 1;
        }
    }

    /// Reads the index on `cols`, building it first if this is its first
    /// use. A warm index needs only the shared lock, so concurrent
    /// readers over a published snapshot don't serialize.
    fn with_index<R>(&self, cols: u64, read: impl FnOnce(&PositionIndex) -> R) -> R {
        if let Some(index) = self.indices.read().expect("index lock poisoned").get(&cols) {
            return read(index);
        }
        let mut indices = self.indices.write().expect("index lock poisoned");
        read(
            indices
                .entry(cols)
                .or_insert_with(|| self.build_index(cols)),
        )
    }

    /// Removes all tuples (used by full-recompute paths).
    pub fn clear(&mut self) {
        self.tuples.clear();
        self.all.clear();
        self.indices.get_mut().expect("index lock poisoned").clear();
    }

    /// Drops the tuples and tombstones at position `end` and after —
    /// undoing every insert since the relation's [`Relation::end`] was
    /// `end` — and takes the live ones back out of the dedup map and
    /// every index built so far.
    pub fn truncate(&mut self, end: usize) {
        let cut: Vec<usize> = self.tuples.entries_from(end).map(|(pos, _)| pos).collect();
        for pos in cut {
            self.unfile(pos);
        }
        self.tuples.truncate(end);
    }

    /// Removes every tuple in `doomed`, returning how many were removed.
    /// Each becomes a tombstone: a doomed tuple is hashed to find it and
    /// taken out of the dedup map and every index built so far, and no
    /// other tuple is touched or moved — unless the dead positions now
    /// reach the live ones, when the relation re-packs (see the type's
    /// documentation) and [`Relation::end`] falls.
    pub fn remove_tuples(&mut self, doomed: &HashSet<Tuple>) -> usize {
        let ignored_bits = self.ignored_hash_bits;
        let gone: Vec<u32> = doomed
            .iter()
            .filter_map(|tuple| self.position(hash_all(tuple, ignored_bits), tuple))
            .collect();
        for &pos in &gone {
            self.unfile(pos as usize);
            self.tuples.kill(pos as usize);
        }
        if !gone.is_empty() && self.tuples.tombstones() >= self.tuples.len() {
            self.repack();
        }
        gone.len()
    }

    /// Closes the gaps the tombstones leave: the tuples after each move
    /// down, and the dedup map and every index follow them in place.
    fn repack(&mut self) {
        let gone = self.tuples.repack();
        self.all.close_gaps(&gone);
        let indices = self.indices.get_mut().expect("index lock poisoned");
        for index in indices.values_mut() {
            index.close_gaps(&gone);
        }
    }

    /// How many of this relation's positions are stored in a chunk `other`
    /// holds too: the tuples neither has copied since one was cloned from
    /// the other ([`SharedVec::shared_with`]).
    pub fn tuples_shared_with(&self, other: &Relation) -> usize {
        self.tuples.shared_with(&other.tuples)
    }

    /// How many shards of this relation's position maps — the dedup map
    /// and every index — `other` does not hold too
    /// ([`SharedMap::unshared_shards`]; an index `other` has not built
    /// counts whole).
    pub fn unshared_shards(&self, other: &Relation) -> usize {
        let mine = self.indices.read().expect("index lock poisoned");
        let theirs = other.indices.read().expect("index lock poisoned");
        let empty = PositionIndex::new();
        let indices = mine
            .iter()
            .map(|(cols, index)| index.unshared_shards(theirs.get(cols).unwrap_or(&empty)));
        self.all.unshared_shards(&other.all) + indices.sum::<usize>()
    }
}

/// A set of named relations. Each sits behind an `Arc`, so a clone costs
/// a pointer per relation and a relation is copied (see [`Relation`] for
/// what that copies) only when one side first writes to it.
#[derive(Debug, Default, Clone)]
pub struct Database {
    relations: HashMap<Symbol, Arc<Relation>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// The relation for `pred`, if any tuples or an explicit relation
    /// exist.
    pub fn relation(&self, pred: Symbol) -> Option<&Relation> {
        self.relations.get(&pred).map(|rel| &**rel)
    }

    /// The relation for `pred`, created on demand — and made this
    /// database's own if a clone still shares it.
    pub fn relation_mut(&mut self, pred: Symbol) -> &mut Relation {
        Arc::make_mut(self.relations.entry(pred).or_default())
    }

    /// Inserts a fact; returns `true` when new. A fact already present
    /// leaves a shared relation shared.
    pub fn insert(&mut self, pred: Symbol, tuple: Tuple) -> bool {
        let rel = self.relations.entry(pred).or_default();
        let hash = hash_all(&tuple, rel.ignored_hash_bits);
        if rel.position(hash, &tuple).is_some() {
            return false;
        }
        Arc::make_mut(rel).file(hash, tuple);
        true
    }

    /// Whether the fact is present.
    pub fn contains(&self, pred: Symbol, tuple: &[Value]) -> bool {
        self.relations.get(&pred).is_some_and(|r| r.contains(tuple))
    }

    /// Number of live tuples in `pred`'s relation.
    pub fn count(&self, pred: Symbol) -> usize {
        self.relations.get(&pred).map_or(0, |r| r.len())
    }

    /// The next position of `pred`'s relation ([`Relation::end`]): where
    /// the next tuple inserted into it will sit, and so the start of the
    /// delta window that tuple opens.
    pub fn end(&self, pred: Symbol) -> usize {
        self.relations.get(&pred).map_or(0, |r| r.end())
    }

    /// Total number of live tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// Iterates over `(predicate, relation)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Relation)> {
        self.relations.iter().map(|(k, v)| (*k, &**v))
    }

    /// How many of this database's relations some clone still shares —
    /// the ones whose next write copies. Tests bound what a snapshot
    /// holds by it.
    pub fn shared_relations(&self) -> usize {
        let relations = self.relations.values();
        relations.filter(|rel| Arc::strong_count(rel) > 1).count()
    }

    /// Removes the relations named by `preds` (full-recompute support).
    pub fn clear_predicates(&mut self, preds: impl IntoIterator<Item = Symbol>) {
        for p in preds {
            if let Some(rel) = self.relations.get_mut(&p) {
                match Arc::get_mut(rel) {
                    Some(owned) => owned.clear(),
                    None => *rel = Arc::default(),
                }
            }
        }
    }

    /// The next position of every relation: a watermark
    /// [`Database::truncate`] can return to for as long as nothing was
    /// removed and no relation re-packed since.
    pub fn ends(&self) -> impl Iterator<Item = (Symbol, usize)> + '_ {
        self.relations.iter().map(|(pred, rel)| (*pred, rel.end()))
    }

    /// Cuts every relation back to its next position in `ends` (to
    /// nothing when it has none), undoing the inserts since
    /// [`Database::ends`] gave them. A relation that did not grow is not
    /// touched.
    pub fn truncate(&mut self, ends: &HashMap<Symbol, usize>) {
        for (pred, rel) in &mut self.relations {
            let end = ends.get(pred).copied().unwrap_or(0);
            if rel.end() > end {
                Arc::make_mut(rel).truncate(end);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[&str]) -> Tuple {
        vals.iter().map(|v| Value::sym(v)).collect()
    }

    fn since(rel: &Relation, from: usize) -> Vec<Tuple> {
        rel.since(from).cloned().collect()
    }

    /// The tuples a probe of `arity` columns, `bound` as given, is shown
    /// from position `from` on.
    fn shown(rel: &Relation, arity: usize, bound: &[(usize, &str)], from: usize) -> Vec<Tuple> {
        let mut key = ProbeKey::new(arity);
        for (col, v) in bound {
            key.bind(*col, &Value::sym(v));
        }
        let mut out = Vec::new();
        let _ = rel.probe(&key, from, |tuple| {
            out.push(tuple.clone());
            ControlFlow::Continue(())
        });
        out
    }

    #[test]
    fn insert_dedups() {
        let mut rel = Relation::new();
        assert!(rel.insert(t(&["a", "b"])));
        assert!(!rel.insert(t(&["a", "b"])));
        assert!(rel.insert(t(&["a", "c"])));
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(&t(&["a", "b"])));
        assert!(!rel.contains(&t(&["x", "y"])));
    }

    #[test]
    fn select_builds_and_maintains_index() {
        let mut rel = Relation::new();
        rel.insert(t(&["a", "b"]));
        rel.insert(t(&["a", "c"]));
        rel.insert(t(&["d", "b"]));
        // Build index on column 0.
        assert_eq!(
            shown(&rel, 2, &[(0, "a")], 0),
            [t(&["a", "b"]), t(&["a", "c"])]
        );
        // Insert after the index exists: it must be maintained.
        rel.insert(t(&["a", "z"]));
        assert_eq!(shown(&rel, 2, &[(0, "a")], 0).len(), 3);
        // Every column bound: answered from the dedup map, no index.
        assert_eq!(shown(&rel, 2, &[(0, "d"), (1, "b")], 0), [t(&["d", "b"])]);
        assert_eq!(rel.indices.read().unwrap().len(), 1);
        // Missing key.
        assert!(shown(&rel, 2, &[(0, "q")], 0).is_empty());
        // No column bound: everything, in insertion order.
        assert_eq!(shown(&rel, 2, &[], 0), since(&rel, 0));
    }

    #[test]
    fn probe_window_and_early_exit() {
        let mut rel = Relation::new();
        for v in ["b", "c", "d", "e"] {
            rel.insert(t(&["a", v]));
        }
        assert_eq!(
            shown(&rel, 2, &[(0, "a")], 2),
            [t(&["a", "d"]), t(&["a", "e"])]
        );
        assert!(shown(&rel, 2, &[(0, "a")], 4).is_empty());
        assert_eq!(shown(&rel, 2, &[(0, "a"), (1, "c")], 1), [t(&["a", "c"])]);
        assert!(shown(&rel, 2, &[(0, "a"), (1, "c")], 2).is_empty());
        let mut key = ProbeKey::new(2);
        key.bind(0, &Value::sym("a"));
        let mut seen = 0;
        let flow = rel.probe(&key, 0, |_| {
            seen += 1;
            ControlFlow::Break(())
        });
        assert!(flow.is_break());
        assert_eq!(seen, 1);
    }

    #[test]
    fn mixed_arity_tuples_stay_out_of_the_way() {
        let mut rel = Relation::new();
        rel.insert(t(&["a"]));
        rel.insert(t(&["a", "b"]));
        rel.insert(t(&["a", "b", "c"]));
        // The index on column 1 cannot hold the unary tuple.
        assert_eq!(
            shown(&rel, 2, &[(1, "b")], 0),
            [t(&["a", "b"]), t(&["a", "b", "c"])]
        );
        assert_eq!(shown(&rel, 2, &[(0, "a"), (1, "b")], 0), [t(&["a", "b"])]);
        assert_eq!(shown(&rel, 1, &[(0, "a")], 0), [t(&["a"])]);
    }

    #[test]
    fn remove_tuples_repacks_positions() {
        let mut rel = Relation::new();
        for v in ["b", "c", "d"] {
            rel.insert(t(&["a", v]));
        }
        assert_eq!(shown(&rel, 2, &[(0, "a")], 0).len(), 3);
        let doomed = HashSet::from([t(&["a", "b"]), t(&["x", "y"])]);
        assert_eq!(rel.remove_tuples(&doomed), 1);
        // A tombstone: one tuple fewer, nothing moved.
        assert_eq!((rel.len(), rel.end()), (2, 3));
        assert!(!rel.contains(&t(&["a", "b"])));
        assert!(rel.contains(&t(&["a", "d"])));
        assert_eq!(
            shown(&rel, 2, &[(0, "a")], 0),
            [t(&["a", "c"]), t(&["a", "d"])]
        );
        assert_eq!(shown(&rel, 2, &[(0, "a"), (1, "d")], 0), [t(&["a", "d"])]);
        assert_eq!(since(&rel, 2), [t(&["a", "d"])]);
        // The removed tuple can come back, at the end.
        assert!(rel.insert(t(&["a", "b"])));
        assert!(!rel.insert(t(&["a", "c"])));
        assert_eq!(shown(&rel, 2, &[(0, "a")], 3), [t(&["a", "b"])]);
        // Three dead positions reach the one live one: the relation
        // re-packs, and the survivor moves to the front.
        let doomed = HashSet::from([t(&["a", "c"]), t(&["a", "d"])]);
        assert_eq!(rel.remove_tuples(&doomed), 2);
        assert_eq!((rel.len(), rel.end()), (1, 1));
        assert_eq!(shown(&rel, 2, &[(0, "a")], 0), [t(&["a", "b"])]);
        assert_eq!(shown(&rel, 2, &[(0, "a"), (1, "b")], 0), [t(&["a", "b"])]);
        assert!(rel.insert(t(&["a", "c"])));
        assert_eq!(since(&rel, 1), [t(&["a", "c"])]);
    }

    #[test]
    fn colliding_hashes_cost_time_not_answers() {
        let mut rel = Relation::with_colliding_hashes();
        let names: Vec<String> = (0..32).map(|i| format!("s{i}")).collect();
        for name in &names {
            assert!(rel.insert(t(&["hub", name])));
        }
        // Two buckets hold all 32 tuples, yet dedup still tells them apart.
        assert!(rel.all.len() <= 2);
        for name in &names {
            assert!(rel.contains(&t(&["hub", name])));
            assert!(!rel.insert(t(&["hub", name])));
        }
        assert!(!rel.contains(&t(&["hub", "s32"])));
        assert_eq!(rel.len(), 32);
        // A probe is shown more than it asked for, in insertion order, and
        // never less.
        for (col, arity) in [(1, 2), (1, 3)] {
            let seen = shown(&rel, arity, &[(col, "s7")], 0);
            assert!(seen.len() > 1, "the hashes do collide");
            assert!(seen.contains(&t(&["hub", "s7"])));
            let positions: Vec<usize> = seen
                .iter()
                .map(|tuple| rel.iter().position(|other| other == tuple).unwrap())
                .collect();
            assert!(positions.windows(2).all(|w| w[0] < w[1]), "{positions:?}");
        }
        assert_eq!(rel.remove_tuples(&HashSet::from([t(&["hub", "s7"])])), 1);
        assert!(!rel.contains(&t(&["hub", "s7"])));
        assert!(!shown(&rel, 2, &[(1, "s7")], 0).contains(&t(&["hub", "s7"])));
        assert!(rel.contains(&t(&["hub", "s8"])));
    }

    #[test]
    fn since_window() {
        let mut rel = Relation::new();
        rel.insert(t(&["a"]));
        rel.insert(t(&["b"]));
        let mark = rel.len();
        rel.insert(t(&["c"]));
        assert_eq!(since(&rel, mark), [t(&["c"])]);
        assert!(since(&rel, rel.len()).is_empty());
        assert!(since(&rel, 100).is_empty());
    }

    #[test]
    fn database_basics() {
        let mut db = Database::new();
        let p = Symbol::intern("p");
        let q = Symbol::intern("q");
        assert!(db.insert(p, t(&["a"])));
        assert!(!db.insert(p, t(&["a"])));
        assert!(db.insert(q, t(&["a", "b"])));
        assert_eq!(db.count(p), 1);
        assert_eq!(db.total_tuples(), 2);
        assert!(db.contains(p, &t(&["a"])));
        db.clear_predicates([p]);
        assert_eq!(db.count(p), 0);
        assert_eq!(db.count(q), 1);
    }

    #[test]
    fn clone_keeps_tuples_and_warm_indices() {
        let mut rel = Relation::new();
        rel.insert(t(&["a", "b"]));
        shown(&rel, 2, &[(0, "a")], 0);
        let mut cloned = rel.clone();
        assert_eq!(cloned.len(), 1);
        assert_eq!(cloned.indices.read().unwrap().len(), 1);
        assert!(cloned.contains(&t(&["a", "b"])));
        assert!(!cloned.clone().insert(t(&["a", "b"])));
        assert_eq!(shown(&cloned, 2, &[(0, "a")], 0), [t(&["a", "b"])]);
        // The carried index is the clone's own: it follows the clone's
        // inserts and the original's does not.
        cloned.insert(t(&["a", "c"]));
        assert_eq!(shown(&cloned, 2, &[(0, "a")], 0).len(), 2);
        assert_eq!(shown(&rel, 2, &[(0, "a")], 0), [t(&["a", "b"])]);
    }

    #[test]
    fn two_threads_share_one_cold_index() {
        let mut rel = Relation::new();
        for i in 0..512 {
            rel.insert(t(&["hub", &format!("s{i}")]));
        }
        // Warm on another column set: the clone carries that index and
        // must build the one the threads ask for.
        shown(&rel, 2, &[(1, "s0")], 0);
        let cloned = rel.clone();
        let start = std::sync::Barrier::new(2);
        let (first, second) = std::thread::scope(|scope| {
            let probe = || {
                start.wait();
                shown(&cloned, 2, &[(0, "hub")], 500)
            };
            let first = scope.spawn(probe);
            let second = scope.spawn(probe);
            (first.join().unwrap(), second.join().unwrap())
        });
        assert_eq!(first, since(&rel, 500));
        assert_eq!(second, first);
        assert_eq!(cloned.indices.read().unwrap().len(), 2);
        assert_eq!(rel.indices.read().unwrap().len(), 1);
    }
    #[test]
    fn truncate_undoes_inserts_in_every_map() {
        for mut rel in [Relation::new(), Relation::with_colliding_hashes()] {
            for v in ["b", "c", "d", "e"] {
                rel.insert(t(&["a", v]));
            }
            shown(&rel, 2, &[(0, "a")], 0);
            shown(&rel, 2, &[(1, "d")], 0);
            rel.truncate(2);
            assert_eq!(since(&rel, 0), [t(&["a", "b"]), t(&["a", "c"])]);
            assert!(!rel.contains(&t(&["a", "d"])));
            assert_eq!(shown(&rel, 2, &[(0, "a")], 0).len(), 2);
            assert!(!shown(&rel, 2, &[(1, "d")], 0).contains(&t(&["a", "d"])));
            // What was cut off can come back, and is filed again.
            assert!(rel.insert(t(&["a", "d"])));
            assert_eq!(shown(&rel, 2, &[(0, "a")], 2), [t(&["a", "d"])]);
            assert!(shown(&rel, 2, &[(1, "d")], 0).contains(&t(&["a", "d"])));
            rel.truncate(7);
            assert_eq!(rel.len(), 3);
            rel.truncate(0);
            assert!(rel.is_empty() && rel.all.is_empty());
        }
    }

    #[test]
    fn remove_tuples_keeps_indices_warm() {
        let mut rel = Relation::new();
        for i in 0..100 {
            rel.insert(t(&["hub", &format!("s{i}")]));
        }
        shown(&rel, 2, &[(0, "hub")], 0);
        shown(&rel, 2, &[(1, "s40")], 0);
        let before = rel.clone();
        let doomed = HashSet::from([t(&["hub", "s7"]), t(&["hub", "s70"]), t(&["x", "y"])]);
        assert_eq!(rel.remove_tuples(&doomed), 2);
        assert_eq!(rel.indices.read().unwrap().len(), 2, "nothing was dropped");
        let all = shown(&rel, 2, &[(0, "hub")], 0);
        assert_eq!(all, since(&rel, 0));
        assert_eq!(all.len(), 98);
        assert_eq!(shown(&rel, 2, &[(1, "s40")], 0), [t(&["hub", "s40"])]);
        assert!(shown(&rel, 2, &[(1, "s70")], 0).is_empty());
        // Nothing moved: s71 is the first tuple from position 70 on.
        assert_eq!(shown(&rel, 2, &[(0, "hub")], 70)[0], t(&["hub", "s71"]));
        assert_eq!(shown(&rel, 2, &[(0, "hub")], 80)[0], t(&["hub", "s80"]));
        // Two removals copied no tuple, and a shard of each of the three
        // maps per removal at most.
        assert_eq!(rel.tuples_shared_with(&before), 96);
        assert!(rel.unshared_shards(&before) <= 6);
        assert_eq!(before.len(), 100);
    }

    #[test]
    fn database_clone_shares_until_written() {
        let (p, q) = (Symbol::intern("p"), Symbol::intern("q"));
        let mut db = Database::new();
        for i in 0..100 {
            db.insert(p, t(&[&format!("s{i}")]));
        }
        db.insert(q, t(&["a"]));
        let snapshot = db.clone();
        fn same(a: &Database, b: &Database, pred: Symbol) -> bool {
            std::ptr::eq(a.relation(pred).unwrap(), b.relation(pred).unwrap())
        }
        assert!(same(&db, &snapshot, p) && same(&db, &snapshot, q));
        // A fact already present changes nothing, not even ownership.
        assert!(!db.insert(p, t(&["s3"])));
        assert!(same(&db, &snapshot, p));
        assert!(db.insert(p, t(&["fresh"])));
        let (mine, theirs) = (db.relation(p).unwrap(), snapshot.relation(p).unwrap());
        assert!(!std::ptr::eq(mine, theirs));
        assert_eq!((mine.len(), theirs.len()), (101, 100));
        assert!(!snapshot.contains(p, &t(&["fresh"])));
        // Only the open chunk and one shard of the dedup map were copied.
        assert_eq!(mine.tuples_shared_with(theirs), 96);
        assert_eq!(mine.unshared_shards(theirs), 1);
        assert!(same(&db, &snapshot, q));
        // Cutting back to the snapshot's next positions leaves equal
        // contents.
        let ends: HashMap<Symbol, usize> = snapshot.ends().collect();
        db.insert(Symbol::intern("r"), t(&["new"]));
        db.truncate(&ends);
        assert_eq!(db.count(p), 100);
        assert_eq!(db.count(Symbol::intern("r")), 0);
        assert!(!db.contains(p, &t(&["fresh"])));
    }

    /// One step of the model-equivalence property below.
    #[derive(Clone, Debug)]
    enum Op {
        Insert(u8, u8),
        Remove(Vec<(u8, u8)>),
        /// Remove every tuple whose first column is `a{.0}`.
        Purge(u8),
        Truncate(usize),
        Clone,
        /// Probe on column set `.0` (bit c = column c), so that the index
        /// exists from here on.
        Warm(u8, u8, u8),
    }

    fn arb_ops() -> impl proptest::strategy::Strategy<Value = Vec<(usize, Op)>> {
        use proptest::prelude::*;
        let cell = || (0u8..12, 0u8..13);
        let op = (
            0u8..16,
            cell(),
            prop::collection::vec(cell(), 1..6),
            0usize..200,
        )
            .prop_map(|(kind, (a, b), some, n)| match kind {
                0..=7 => Op::Insert(a, b),
                8..=9 => Op::Remove(some),
                10 => Op::Purge(a),
                11 => Op::Truncate(n),
                12..=13 => Op::Clone,
                _ => Op::Warm(1 + (n % 3) as u8, a, b),
            });
        prop::collection::vec((0usize..8, op), 1..80)
    }

    /// `(a, b)` as a tuple; `b == 12` makes it unary (mixed arity).
    fn cell(a: u8, b: u8) -> Tuple {
        let mut tuple = vec![Value::sym(&format!("a{a}"))];
        if b < 12 {
            tuple.push(Value::sym(&format!("b{b}")));
        }
        tuple
    }

    /// The model of a relation: its positions, each holding a live tuple
    /// or nothing (a tombstone).
    type Slots = Vec<Option<Tuple>>;

    fn live(slots: &[Option<Tuple>]) -> impl Iterator<Item = &Tuple> {
        slots.iter().flatten()
    }

    /// What `rel` shows a probe for `(a, b)` on `cols` from `from`,
    /// checked to be in position order and inside the window, then cut
    /// down to the tuples that really match.
    fn matches(rel: &Relation, slots: &Slots, cols: u8, a: u8, b: u8, from: usize) -> Vec<Tuple> {
        let wanted = cell(a, b.min(11));
        let mut key = ProbeKey::new(2);
        for (col, value) in wanted.iter().enumerate() {
            if cols & (1 << col) != 0 {
                key.bind(col, value);
            }
        }
        let mut seen = Vec::new();
        let _ = rel.probe(&key, from, |tuple| {
            seen.push(tuple.clone());
            ControlFlow::Continue(())
        });
        let positions: Vec<usize> = seen
            .iter()
            .map(|tuple| {
                slots
                    .iter()
                    .position(|s| s.as_ref() == Some(tuple))
                    .unwrap()
            })
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]), "{positions:?}");
        assert!(positions.first().is_none_or(|&first| first >= from));
        let is_match = |tuple: &Tuple| {
            tuple.len() == 2 && (0..2).all(|c| cols & (1 << c) == 0 || tuple[c] == wanted[c])
        };
        seen.retain(is_match);
        seen
    }

    /// Removes `doomed` from `rel` and from its model, re-packing the
    /// model once its empty slots reach the filled ones.
    fn remove(rel: &mut Relation, model: &mut Slots, doomed: HashSet<Tuple>) {
        let mut removed = 0;
        for slot in model.iter_mut() {
            if slot.as_ref().is_some_and(|tuple| doomed.contains(tuple)) {
                *slot = None;
                removed += 1;
            }
        }
        let dead = model.iter().filter(|slot| slot.is_none()).count();
        if removed > 0 && dead >= model.len() - dead {
            model.retain(Option::is_some);
        }
        assert_eq!(rel.remove_tuples(&doomed), removed);
    }

    /// Runs `ops` over a family of relations — an original and every clone
    /// taken along the way, each beside a plain `Vec` model of its
    /// positions — and checks after every step that every member still
    /// agrees with its own model: no member ever sees a write made to
    /// another. A removal empties the model's slot; once the empty slots
    /// reach the filled ones the model drops them, which is the re-pack.
    /// The original starts out `preload` tuples long, so that there are
    /// full chunks for the clones to share and for cuts and removals to
    /// fall in.
    fn agrees_with_the_model(mut first: Relation, preload: usize, ops: &[(usize, Op)]) {
        let model: Slots = (0..preload)
            .map(|i| Some(cell((i % 12) as u8, (i / 12) as u8)))
            .collect();
        for tuple in live(&model) {
            assert!(first.insert(tuple.clone()));
        }
        let mut family: Vec<(Relation, Slots)> = vec![(first, model)];
        for (which, op) in ops {
            let target = which % family.len();
            let (rel, model) = &mut family[target];
            match op {
                Op::Insert(a, b) => {
                    let tuple = cell(*a, *b);
                    let fresh = !live(model).any(|t| *t == tuple);
                    assert_eq!(rel.insert(tuple.clone()), fresh);
                    if fresh {
                        model.push(Some(tuple));
                    }
                }
                Op::Remove(some) => {
                    remove(rel, model, some.iter().map(|(a, b)| cell(*a, *b)).collect());
                }
                Op::Purge(a) => {
                    let first = Value::sym(&format!("a{a}"));
                    let doomed = live(model).filter(|t| t[0] == first).cloned().collect();
                    remove(rel, model, doomed);
                }
                Op::Truncate(n) => {
                    let end = n % (model.len() + 1);
                    rel.truncate(end);
                    model.truncate(end);
                }
                Op::Clone => {
                    let copy = (rel.clone(), model.clone());
                    family.push(copy);
                }
                Op::Warm(cols, a, b) => {
                    matches(rel, model, *cols, *a, *b, 0);
                }
            }
            for (rel, model) in &family {
                assert_eq!(rel.len(), live(model).count());
                assert_eq!(rel.end(), model.len());
                assert!(rel.iter().eq(live(model)), "iteration order");
                let windows = [
                    0,
                    model.len() / 2,
                    model.len().saturating_sub(1),
                    model.len(),
                ];
                for from in windows {
                    assert!(rel.since(from).eq(live(&model[from..])), "since({from})");
                }
                let probe = cell((target % 12) as u8, (model.len() % 13) as u8);
                assert_eq!(rel.contains(&probe), live(model).any(|t| *t == probe));
                if let Some(tuple) = live(model).nth(model.len() / 3) {
                    assert!(rel.contains(tuple));
                }
                for cols in 1..4u8 {
                    let (a, b) = ((model.len() % 12) as u8, (target % 12) as u8);
                    for from in windows {
                        let wanted = cell(a, b);
                        let expected: Vec<Tuple> = live(&model[from..])
                            .filter(|tuple| {
                                tuple.len() == 2
                                    && (0..2).all(|c| cols & (1 << c) == 0 || tuple[c] == wanted[c])
                            })
                            .cloned()
                            .collect();
                        assert_eq!(matches(rel, model, cols, a, b, from), expected);
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn model_equivalence_of_a_relation_and_its_clones(
            preload in 0usize..140,
            ops in arb_ops(),
        ) {
            agrees_with_the_model(Relation::new(), preload, &ops);
        }

        #[test]
        fn model_equivalence_when_every_hash_collides(
            preload in 0usize..140,
            ops in arb_ops(),
        ) {
            agrees_with_the_model(Relation::with_colliding_hashes(), preload, &ops);
        }
    }
}
