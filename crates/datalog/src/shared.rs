//! An append-mostly vector whose clones share what they did not change.
//!
//! [`SharedVec`] is what a [`crate::db::Relation`] keeps its tuples in and
//! a workspace its base facts: a vector cut into fixed-size chunks. A
//! full chunk is frozen behind an `Arc` and shared by every clone; only
//! the open chunk at the end, fewer than [`CHUNK`] elements, is a
//! vector's own.

use std::sync::Arc;

const CHUNK_BITS: u32 = 5;

/// Elements per chunk: what a clone copies at most. A power of two, so a
/// position splits into chunk and offset by shift and mask.
pub const CHUNK: usize = 1 << CHUNK_BITS;

/// A vector in chunks of [`CHUNK`] elements.
///
/// **What is shared.** A clone copies the pointers of the full chunks and
/// the elements of the open one — fewer than `CHUNK`, however long the
/// vector. Appending to either side then copies nothing: it fills that
/// side's open chunk and, when full, freezes it. Truncating copies the
/// kept part of the chunk the cut falls in; removing positions rewrites
/// the chunks from the first removed position on, copying the elements
/// that stay. Chunks before the first changed position remain shared for
/// as long as both vectors live. (A chunk nobody else holds gives its
/// elements up by move instead.)
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
}

impl<T> Default for SharedVec<T> {
    fn default() -> Self {
        SharedVec {
            full: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl<T: Clone> SharedVec<T> {
    /// An empty vector.
    pub fn new() -> SharedVec<T> {
        SharedVec::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.full.len() * CHUNK + self.open.len()
    }

    /// Whether there are no elements.
    pub fn is_empty(&self) -> bool {
        self.full.is_empty() && self.open.is_empty()
    }

    /// The element at `pos`.
    pub fn get(&self, pos: usize) -> &T {
        let chunk = self.full.get(pos >> CHUNK_BITS);
        &chunk.map_or(&self.open[..], |chunk| &chunk[..])[pos & (CHUNK - 1)]
    }

    /// The elements at position `from` and after, in order.
    pub fn iter_from(&self, from: usize) -> impl Iterator<Item = &T> {
        let from = from.min(self.len());
        let chunks = self.full[(from >> CHUNK_BITS).min(self.full.len())..]
            .iter()
            .map(|chunk| &chunk[..])
            .chain(std::iter::once(&self.open[..]));
        chunks.flatten().skip(from & (CHUNK - 1))
    }

    /// Every element, in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.iter_from(0)
    }

    /// Appends `value`.
    pub fn push(&mut self, value: T) {
        self.open.push(value);
        if self.open.len() == CHUNK {
            let full = std::mem::replace(&mut self.open, Vec::with_capacity(CHUNK));
            let full: [T; CHUNK] = full.try_into().ok().expect("CHUNK elements");
            self.full.push(Arc::new(full));
        }
    }

    /// Drops the elements at position `len` and after.
    pub fn truncate(&mut self, len: usize) {
        let (chunk, kept) = (len >> CHUNK_BITS, len & (CHUNK - 1));
        if chunk >= self.full.len() {
            return self.open.truncate(kept);
        }
        // The cut falls in a frozen chunk: its kept part reopens.
        self.full.truncate(chunk + 1);
        let cut = self.full.pop().expect("kept above");
        self.open = thaw(cut).take(kept).collect();
    }

    /// Removes the elements at `doomed` — ascending, distinct, in range —
    /// closing the gaps: what followed a removed element moves down.
    pub fn remove_positions(&mut self, doomed: &[usize]) {
        let Some(&first) = doomed.first() else {
            return;
        };
        let rewritten = self
            .full
            .split_off((first >> CHUNK_BITS).min(self.full.len()));
        let last = std::mem::take(&mut self.open);
        let elements = rewritten.into_iter().flat_map(thaw).chain(last);
        let mut doomed = doomed.iter().copied().peekable();
        for (pos, value) in (self.len()..).zip(elements) {
            if doomed.next_if_eq(&pos).is_none() {
                self.push(value);
            }
        }
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.full.clear();
        self.open.clear();
    }

    /// How many of this vector's elements sit in a chunk `other` holds too
    /// (same chunk, same place) — the elements neither side has copied
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
    fn remove_positions_closes_the_gaps() {
        let n = 3 * CHUNK + 4;
        for doomed in [
            vec![0],
            vec![n - 1],
            vec![CHUNK - 1, CHUNK],
            vec![5, CHUNK + 5, 2 * CHUNK + 5, n - 2],
            (0..n).collect(),
        ] {
            let expected: Vec<usize> = (0..n).filter(|i| !doomed.contains(i)).collect();
            // Sole owner: elements move.
            let mut owned = filled(n);
            owned.remove_positions(&doomed);
            assert_eq!(contents(&owned), expected, "{doomed:?}");
            assert_eq!(owned.len(), expected.len());
            // Shared: elements are copied, the clone keeps everything,
            // and the chunks before the first removal stay shared.
            let mut shared = filled(n);
            let before = shared.clone();
            shared.remove_positions(&doomed);
            assert_eq!(contents(&shared), expected, "{doomed:?}");
            assert_eq!(contents(&before), (0..n).collect::<Vec<_>>());
            assert_eq!(shared.shared_with(&before), doomed[0] / CHUNK * CHUNK);
            shared.push(7);
            assert_eq!(*shared.get(expected.len()), 7);
        }
        let mut v = filled(4);
        v.remove_positions(&[]);
        assert_eq!(v.len(), 4);
    }
}
