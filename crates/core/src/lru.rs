//! A slab-backed bounded map with O(1) lookup, insert and evict under
//! the 2Q policy (A1in/Am, Johnson & Shasha) — the decision cache's
//! storage ([`crate::authz_read`]), and the one bounded map in the
//! system.
//!
//! A `HashMap` from key to slab index plus two intrusive doubly linked
//! lists threaded through the slab, so lookups, touches and evictions
//! are all constant-time — no allocation per touch, no rescans.
//!
//! First-time entries land in a small FIFO probation queue (*A1in*)
//! whose evictions are remembered as key-only ghosts (*A1out*); only a
//! key seen again after leaving probation is promoted to the protected
//! main queue (*Am*), which is kept in recency order. A plain LRU list
//! loses its whole working set to a sequential scan one entry larger
//! than capacity; here such a scan churns through the probation quarter
//! of the map and leaves the protected three quarters untouched.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// Sentinel index meaning "no node".
const NIL: usize = usize::MAX;

/// Which queue a slab node is threaded on.
const AM: usize = 0;
const A1IN: usize = 1;

/// Slab slot: `value` is `None` only while the slot sits on the free
/// list awaiting reuse.
struct Node<K, V> {
    key: K,
    value: Option<V>,
    prev: usize,
    next: usize,
    /// Which list this node is threaded on ([`AM`] or [`A1IN`]).
    queue: usize,
}

/// A map holding at most `capacity` entries, evicting by 2Q on
/// overflow.
pub(crate) struct TwoQueueMap<K, V> {
    index: HashMap<K, usize>,
    slab: Vec<Node<K, V>>,
    free: Vec<usize>,
    /// Most recently used, per queue.
    head: [usize; 2],
    /// Least recently used, per queue.
    tail: [usize; 2],
    /// Entries per queue.
    qlen: [usize; 2],
    capacity: usize,
    /// A1out: keys recently evicted from probation, with the generation
    /// of their latest ghosting. A re-arrival found here is promoted
    /// straight to Am. This map is the truth; `ghost_fifo` entries
    /// whose generation no longer matches are stale.
    ghosts: HashMap<K, u64>,
    /// Ghost age order, `(key, generation)`. Stale entries (their key
    /// was promoted, or re-ghosted under a newer generation) are
    /// dropped when they surface at the front, and the deque is
    /// hard-bounded at twice the ghost budget so mid-deque staleness
    /// can never accumulate without bound.
    ghost_fifo: VecDeque<(K, u64)>,
    ghost_gen: u64,
}

impl<K: Eq + Hash + Clone, V> TwoQueueMap<K, V> {
    /// An empty map evicting above `capacity` entries.
    pub(crate) fn new(capacity: usize) -> TwoQueueMap<K, V> {
        TwoQueueMap {
            index: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: [NIL; 2],
            tail: [NIL; 2],
            qlen: [0; 2],
            capacity,
            ghosts: HashMap::new(),
            ghost_fifo: VecDeque::new(),
            ghost_gen: 0,
        }
    }

    /// Probation-queue budget: a quarter of capacity.
    fn kin(&self) -> usize {
        (self.capacity / 4).max(1)
    }

    /// Ghost-history budget: one full capacity. Ghosts are key-only, so
    /// this costs a fraction of the map itself, and a window this wide
    /// still remembers an entry whose reuse distance is up to roughly
    /// *twice* capacity — the region where an LRU list fails hardest (a
    /// sweep slightly larger than the cache).
    fn kout(&self) -> usize {
        self.capacity.max(1)
    }

    /// Looks up and marks the entry used. A protected (Am) entry
    /// becomes most recently used; a probation (A1in) hit deliberately
    /// does *not* move the entry — a single re-reference inside a scan
    /// window earns no protection.
    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        let &i = self.index.get(key)?;
        if self.slab[i].queue == AM {
            self.detach(i);
            self.attach_front(i, AM);
        }
        self.slab[i].value.as_ref()
    }

    /// Inserts (or replaces, touching) an entry, evicting one to stay
    /// within capacity. A first-time key enters probation, while a key
    /// remembered in the ghost history is promoted straight to the
    /// protected queue.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if let Some(&i) = self.index.get(&key) {
            self.slab[i].value = Some(value);
            if self.slab[i].queue == AM {
                self.detach(i);
                self.attach_front(i, AM);
            }
            return;
        }
        let queue = if self.ghosts.remove(&key).is_some() {
            AM // seen before, within the ghost window: protect
        } else {
            A1IN // first sighting: probation
        };
        let node = Node {
            key: key.clone(),
            value: Some(value),
            prev: NIL,
            next: NIL,
            queue,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i] = node;
                i
            }
            None => {
                self.slab.push(node);
                self.slab.len() - 1
            }
        };
        self.index.insert(key, i);
        self.attach_front(i, queue);
        if self.index.len() > self.capacity {
            self.evict();
        }
    }

    /// Visits every live entry, in slab (not recency) order, without
    /// touching recency. Used by callers that need a full sweep — e.g.
    /// cache invalidation scans — where eviction order is irrelevant.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slab
            .iter()
            .filter_map(|n| n.value.as_ref().map(|v| (&n.key, v)))
    }

    /// Removes an entry, returning its value.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.index.remove(key)?;
        self.detach(i);
        self.free.push(i);
        self.slab[i].value.take()
    }

    /// Drops the next eviction victim: the probation FIFO's oldest
    /// entry while probation is over budget (remembering it as a
    /// ghost), the protected queue's least recently used entry
    /// otherwise.
    fn evict(&mut self) {
        let queue =
            if self.tail[A1IN] != NIL && (self.qlen[A1IN] > self.kin() || self.tail[AM] == NIL) {
                A1IN
            } else {
                AM
            };
        let i = self.tail[queue];
        let key = self.slab[i].key.clone();
        if queue == A1IN {
            // Leaving probation: remembered in the ghost history so a
            // re-arrival within the window earns protection.
            self.ghost_gen += 1;
            self.ghosts.insert(key.clone(), self.ghost_gen);
            self.ghost_fifo.push_back((key.clone(), self.ghost_gen));
            let kout = self.kout();
            // One sweep enforces both budgets: the live-ghost count,
            // and a hard 2x bound on the deque itself so mid-deque
            // stale entries (promoted or re-ghosted keys) can never
            // accumulate past a constant factor of the window.
            while self.ghosts.len() > kout || self.ghost_fifo.len() > 2 * kout {
                match self.ghost_fifo.pop_front() {
                    Some((old, gen)) => {
                        if self.ghosts.get(&old) == Some(&gen) {
                            self.ghosts.remove(&old);
                        }
                    }
                    None => break,
                }
            }
            // Drop stale front entries eagerly; the generation match
            // means a key that was re-ghosted later (and so appears
            // again deeper in the deque) cannot block the sweep.
            while let Some((front, gen)) = self.ghost_fifo.front() {
                if self.ghosts.get(front) == Some(gen) {
                    break;
                }
                self.ghost_fifo.pop_front();
            }
        }
        self.index.remove(&key);
        self.detach(i);
        self.free.push(i);
        self.slab[i].value = None;
    }

    fn detach(&mut self, i: usize) {
        let queue = self.slab[i].queue;
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else if self.head[queue] == i {
            self.head[queue] = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else if self.tail[queue] == i {
            self.tail[queue] = prev;
        }
        self.slab[i].prev = NIL;
        self.slab[i].next = NIL;
        self.qlen[queue] -= 1;
    }

    fn attach_front(&mut self, i: usize, queue: usize) {
        self.slab[i].queue = queue;
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head[queue];
        if self.head[queue] != NIL {
            self.slab[self.head[queue]].prev = i;
        }
        self.head[queue] = i;
        if self.tail[queue] == NIL {
            self.tail[queue] = i;
        }
        self.qlen[queue] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remove_and_slot_reuse() {
        let mut map: TwoQueueMap<u32, &str> = TwoQueueMap::new(3);
        map.insert(1, "a");
        map.insert(2, "b");
        assert_eq!(map.remove(&1), Some("a"));
        assert_eq!(map.remove(&1), None);
        map.insert(3, "c");
        map.insert(4, "d");
        assert_eq!(map.index.len(), 3);
        assert_eq!(map.slab.len(), 3, "the freed slot was reused");
        // 2 is now the oldest untouched entry.
        map.insert(5, "e");
        assert!(map.get(&2).is_none());
        assert_eq!(map.index.len(), 3);
    }

    /// Replays a looped sequential scan (`rounds` passes over `n` keys)
    /// against a map of `cap`, counting hits (key already present).
    fn scan_hits(cap: usize, n: u32, rounds: usize) -> usize {
        let mut map: TwoQueueMap<u32, ()> = TwoQueueMap::new(cap);
        let mut hits = 0;
        for _ in 0..rounds {
            for k in 0..n {
                if map.get(&k).is_some() {
                    hits += 1;
                } else {
                    map.insert(k, ());
                }
            }
        }
        hits
    }

    #[test]
    fn two_queue_survives_the_sequential_scan_cliff() {
        // A working set one-and-a-half times capacity, scanned
        // repeatedly: an LRU list evicts every entry exactly before its
        // reuse — zero hits, the cliff. 2Q's protected queue retains a
        // stable core across passes.
        let (cap, n, rounds) = (64, 96u32, 8);
        let two_q = scan_hits(cap, n, rounds);
        assert!(
            two_q > (rounds - 2) * cap / 4,
            "2Q must retain a protected core under scanning (got {two_q} hits)"
        );
    }

    #[test]
    fn two_queue_promotes_only_via_ghost_history() {
        let mut map: TwoQueueMap<u32, &str> = TwoQueueMap::new(4);
        // kin = 1: probation holds one key at a time once over budget.
        map.insert(1, "a");
        assert_eq!(map.qlen[A1IN], 1, "first sighting lands in probation");
        // A probation hit does not promote (scan resistance).
        assert!(map.get(&1).is_some());
        assert_eq!(map.qlen[A1IN], 1);
        // Push 1 out of probation into the ghost history.
        map.insert(2, "b");
        map.insert(3, "c");
        map.insert(4, "d");
        map.insert(5, "e");
        assert!(map.get(&1).is_none(), "1 was evicted from probation");
        // Its return is a ghost hit: straight to the protected queue.
        map.insert(1, "a-again");
        let &i = map.index.get(&1).unwrap();
        assert_eq!(map.slab[i].queue, AM, "ghost hit promotes to Am");
        // And protected entries are touch-promoted normally.
        assert_eq!(map.get(&1), Some(&"a-again"));
    }

    #[test]
    fn ghost_fifo_stays_bounded_under_promotion_churn() {
        // Regression: a long-lived ghost parked at the deque front must
        // not let stale entries (keys repeatedly ghosted and promoted)
        // accumulate behind it without bound.
        let mut map: TwoQueueMap<u32, ()> = TwoQueueMap::new(8);
        let kout = map.kout();
        for round in 0..500u32 {
            // Distinct filler keys churn through probation into the
            // ghost history...
            for k in 0..12 {
                map.insert(1000 + round * 100 + k, ());
            }
            // ...while one hot key keeps cycling ghost -> promoted.
            map.insert(7, ());
            map.remove(&7);
        }
        assert!(map.ghosts.len() <= kout);
        assert!(
            map.ghost_fifo.len() <= 2 * kout,
            "the ghost deque must stay hard-bounded, got {}",
            map.ghost_fifo.len()
        );
    }

    #[test]
    fn two_queue_respects_capacity_and_remove() {
        let mut map: TwoQueueMap<u32, u32> = TwoQueueMap::new(8);
        for i in 0..100 {
            map.insert(i, i);
        }
        assert_eq!(map.index.len(), 8);
        // Ghost history is bounded too (key-only, one capacity wide).
        assert!(map.ghosts.len() <= 8);
        for i in 0..100 {
            map.remove(&i);
        }
        assert!(map.index.is_empty());
        // Reinsertion after removal works (slots recycled).
        for i in 0..20 {
            map.insert(i, i);
        }
        assert_eq!(map.index.len(), 8);
    }
}
