//! Tuple storage: relations that keep each tuple once, find it again by
//! hash, and build per-column-set hash indices on demand.
//!
//! A [`Database`] is the fact store of one LogicBlox-style workspace
//! (§3.1 of the paper). Indices are built lazily for the column sets a
//! join actually probes and are maintained incrementally on insert, so
//! repeated semi-naive rounds pay amortized O(1) per probe — and, because
//! a closed quote pattern is a key like any other value
//! ([`crate::unify::Bindings`]), so does proving `says(hub,me,[| good(s5) |])`.

use crate::intern::Symbol;
use crate::unify::hash_value;
use crate::value::Value;
use std::collections::hash_map::{DefaultHasher, Entry, RandomState};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::ops::ControlFlow;
use std::sync::{OnceLock, RwLock};

/// A stored tuple.
pub type Tuple = Vec<Value>;

/// A hasher for key columns, keyed once per process: stored tuples arrive
/// in certificates, so the key must not be one an outsider can know.
fn key_hasher() -> DefaultHasher {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    KEYS.get_or_init(RandomState::new).build_hasher()
}

/// The positions whose key columns share one hash, ascending.
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

/// The keys of a [`Buckets`] map are hashes already.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("bucket maps are keyed by u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Hash of the key columns -> the positions of the tuples that have it.
type Buckets = HashMap<u64, Bucket, BuildHasherDefault<PassThrough>>;

/// Appends `pos` (larger than every position already there) under `hash`.
fn add_position(buckets: &mut Buckets, hash: u64, pos: u32) {
    match buckets.entry(hash) {
        Entry::Vacant(slot) => {
            slot.insert(Bucket::One(pos));
        }
        Entry::Occupied(mut slot) => match slot.get_mut() {
            Bucket::One(first) => *slot.get_mut() = Bucket::Many(vec![*first, pos]),
            Bucket::Many(positions) => positions.push(pos),
        },
    }
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
/// **Why candidates are re-matched.** A bucket is found by a 64-bit hash
/// taken in the matcher's view (`Bindings::hash_closed` in [`crate::unify`]),
/// which deliberately identifies values `==` tells apart, and distinct
/// keys can collide besides. A bucket is therefore a superset of the
/// tuples wanted, never a subset: whoever probes must check every tuple
/// it is shown (`match_tuple`), and `contains`/`insert` compare against
/// `tuples[pos]`.
///
/// **Order.** A bucket lists positions in insertion order, so a probe
/// visits tuples in the order a full scan would, and a semi-naive delta
/// window (`from`) is a binary search for the first position inside it.
///
/// **Locking.** Lazy indices live behind an `RwLock` (not a `RefCell`) so
/// a `Relation` — and therefore a snapshot of a whole [`Database`] — is
/// `Sync`: concurrent authorization readers probe shared snapshots from
/// many threads, taking the read lock once an index is warm. The visitor
/// passed to [`Relation::probe`] runs under that lock and must not probe
/// the same relation again: a first probe on another column set would
/// wait for the write lock behind the read lock its own caller holds.
#[derive(Debug, Default)]
pub struct Relation {
    tuples: Vec<Tuple>,
    all: Buckets,
    /// Column set (as in [`ProbeKey`]) -> its index.
    indices: RwLock<HashMap<u64, Buckets>>,
    /// Hash bits to ignore; zero except in the collision tests.
    ignored_hash_bits: u64,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        // Indices are rebuilt on demand; no need to copy them.
        Relation {
            tuples: self.tuples.clone(),
            all: self.all.clone(),
            indices: RwLock::new(HashMap::new()),
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

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    fn build_index(&self, cols: u64) -> Buckets {
        let mut index = Buckets::default();
        for (pos, tuple) in self.tuples.iter().enumerate() {
            if let Some(hash) = hash_cols(cols, tuple, self.ignored_hash_bits) {
                add_position(&mut index, hash, pos as u32);
            }
        }
        index
    }

    /// Whether `tuple`, which hashes to `hash`, is present.
    fn holds(&self, hash: u64, tuple: &[Value]) -> bool {
        self.all.get(&hash).is_some_and(|bucket| {
            let mut positions = bucket.positions().iter();
            positions.any(|&pos| self.tuples[pos as usize] == tuple)
        })
    }

    /// Whether `tuple` is present.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        self.holds(hash_all(tuple, self.ignored_hash_bits), tuple)
    }

    /// Inserts a tuple; returns `true` when it is new. Existing indices
    /// are maintained incrementally.
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        let ignored_bits = self.ignored_hash_bits;
        let hash = hash_all(&tuple, ignored_bits);
        if self.holds(hash, &tuple) {
            return false;
        }
        let pos = u32::try_from(self.tuples.len()).expect("a relation holds under 2^32 tuples");
        let indices = self.indices.get_mut().expect("index lock poisoned");
        for (&cols, index) in indices.iter_mut() {
            if let Some(hash) = hash_cols(cols, &tuple, ignored_bits) {
                add_position(index, hash, pos);
            }
        }
        add_position(&mut self.all, hash, pos);
        self.tuples.push(tuple);
        true
    }

    /// Iterates over all tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// The tuple at `pos` (positions are stable; relations only grow).
    pub fn get(&self, pos: usize) -> &Tuple {
        &self.tuples[pos]
    }

    /// Tuples inserted at or after position `from` — the semi-naive delta
    /// window.
    pub fn since(&self, from: usize) -> &[Tuple] {
        &self.tuples[from.min(self.tuples.len())..]
    }

    /// Shows `visit`, in insertion order, every tuple at position `from`
    /// or later that has `key.arity` columns and `key`'s values in its
    /// bound columns — and possibly others; `visit` checks each (see the
    /// type's documentation, also for what `visit` must not do). Stops
    /// when `visit` breaks. Builds the index for the key's column set on
    /// first use; a key binding every column needs none.
    pub fn probe(
        &self,
        key: &ProbeKey,
        from: usize,
        mut visit: impl FnMut(&Tuple) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if key.cols == 0 {
            return self.since(from).iter().try_for_each(visit);
        }
        let hash = key.hasher.finish() & !self.ignored_hash_bits;
        let mut walk = |buckets: &Buckets| {
            let positions = buckets.get(&hash).map_or(&[][..], Bucket::positions);
            let first = positions.partition_point(|&pos| (pos as usize) < from);
            positions[first..]
                .iter()
                .try_for_each(|&pos| visit(&self.tuples[pos as usize]))
        };
        if key.cols.count_ones() as usize == key.arity {
            return walk(&self.all);
        }
        // Fast path: a warm index needs only the shared lock, so
        // concurrent readers over a published snapshot don't serialize.
        if let Some(index) = self
            .indices
            .read()
            .expect("index lock poisoned")
            .get(&key.cols)
        {
            return walk(index);
        }
        let mut indices = self.indices.write().expect("index lock poisoned");
        let index = indices
            .entry(key.cols)
            .or_insert_with(|| self.build_index(key.cols));
        walk(index)
    }

    /// Removes all tuples (used by full-recompute paths).
    pub fn clear(&mut self) {
        self.tuples.clear();
        self.all.clear();
        self.indices.get_mut().expect("index lock poisoned").clear();
    }

    /// Removes every tuple in `doomed`, returning how many were removed.
    /// Positions are re-packed and indices dropped (rebuilt on demand) —
    /// callers must not hold delta windows across a removal.
    pub fn remove_tuples(&mut self, doomed: &HashSet<Tuple>) -> usize {
        let before = self.tuples.len();
        let ignored_bits = self.ignored_hash_bits;
        self.all.clear();
        let mut kept = 0u32;
        self.tuples.retain(|tuple| {
            let keep = !doomed.contains(tuple);
            if keep {
                add_position(&mut self.all, hash_all(tuple, ignored_bits), kept);
                kept += 1;
            }
            keep
        });
        let removed = before - self.tuples.len();
        if removed > 0 {
            self.indices.get_mut().expect("index lock poisoned").clear();
        }
        removed
    }
}

/// A set of named relations.
#[derive(Debug, Default, Clone)]
pub struct Database {
    relations: HashMap<Symbol, Relation>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// The relation for `pred`, if any tuples or an explicit relation
    /// exist.
    pub fn relation(&self, pred: Symbol) -> Option<&Relation> {
        self.relations.get(&pred)
    }

    /// The relation for `pred`, created on demand.
    pub fn relation_mut(&mut self, pred: Symbol) -> &mut Relation {
        self.relations.entry(pred).or_default()
    }

    /// Inserts a fact; returns `true` when new.
    pub fn insert(&mut self, pred: Symbol, tuple: Tuple) -> bool {
        self.relation_mut(pred).insert(tuple)
    }

    /// Whether the fact is present.
    pub fn contains(&self, pred: Symbol, tuple: &[Value]) -> bool {
        self.relations.get(&pred).is_some_and(|r| r.contains(tuple))
    }

    /// Number of tuples in `pred`'s relation.
    pub fn count(&self, pred: Symbol) -> usize {
        self.relations.get(&pred).map_or(0, Relation::len)
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Iterates over `(predicate, relation)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Relation)> {
        self.relations.iter().map(|(k, v)| (*k, v))
    }

    /// Removes the relations named by `preds` (full-recompute support).
    pub fn clear_predicates(&mut self, preds: impl IntoIterator<Item = Symbol>) {
        for p in preds {
            if let Some(rel) = self.relations.get_mut(&p) {
                rel.clear();
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
        assert_eq!(shown(&rel, 2, &[], 0), rel.since(0));
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
        assert!(!rel.contains(&t(&["a", "b"])));
        assert!(rel.contains(&t(&["a", "d"])));
        assert_eq!(
            shown(&rel, 2, &[(0, "a")], 0),
            [t(&["a", "c"]), t(&["a", "d"])]
        );
        assert_eq!(shown(&rel, 2, &[(0, "a"), (1, "d")], 0), [t(&["a", "d"])]);
        // The removed tuple can come back, at the end.
        assert!(rel.insert(t(&["a", "b"])));
        assert!(!rel.insert(t(&["a", "c"])));
        assert_eq!(shown(&rel, 2, &[(0, "a")], 2), [t(&["a", "b"])]);
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
        assert_eq!(rel.since(mark), &[t(&["c"])]);
        assert!(rel.since(rel.len()).is_empty());
        assert!(rel.since(100).is_empty());
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
    fn clone_drops_indices_but_keeps_tuples() {
        let mut rel = Relation::new();
        rel.insert(t(&["a", "b"]));
        shown(&rel, 2, &[(0, "a")], 0);
        let cloned = rel.clone();
        assert_eq!(cloned.len(), 1);
        assert!(cloned.indices.read().unwrap().is_empty());
        assert!(cloned.contains(&t(&["a", "b"])));
        assert!(!cloned.clone().insert(t(&["a", "b"])));
        assert_eq!(shown(&cloned, 2, &[(0, "a")], 0), [t(&["a", "b"])]);
    }

    #[test]
    fn two_threads_share_one_cold_index() {
        let mut rel = Relation::new();
        for i in 0..512 {
            rel.insert(t(&["hub", &format!("s{i}")]));
        }
        shown(&rel, 2, &[(0, "hub")], 0);
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
        assert_eq!(first, rel.since(500));
        assert_eq!(second, first);
        assert_eq!(cloned.indices.read().unwrap().len(), 1);
    }
}
