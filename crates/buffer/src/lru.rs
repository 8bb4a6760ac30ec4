//! A generic LRU recency list.
//!
//! Implemented as a doubly-linked list over a slab of nodes plus a hash map
//! from key to node index, giving O(1) touch / insert / remove / evict. Used
//! by the DRAM buffer pools, whose keys are page ids the engine allocated —
//! which is why the index may use [`face_pagestore::IdHashMap`]'s unkeyed
//! hash. A list over keys that arrive from outside the program must not.

use std::hash::Hash;

use face_pagestore::IdHashMap;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<K> {
    key: K,
    prev: usize,
    next: usize,
}

/// An LRU list of keys. The *front* is the most recently used end; the *back*
/// is the least recently used end (the eviction candidate).
#[derive(Debug, Clone)]
pub struct LruList<K> {
    nodes: Vec<Node<K>>,
    free: Vec<usize>,
    map: IdHashMap<K, usize>,
    head: usize,
    tail: usize,
}

impl<K: Eq + Hash + Copy> Default for LruList<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Copy> LruList<K> {
    /// An empty list.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free: Vec::new(),
            map: IdHashMap::default(),
            head: NIL,
            tail: NIL,
        }
    }

    /// An empty list with preallocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(cap),
            free: Vec::new(),
            map: IdHashMap::with_capacity_and_hasher(cap, Default::default()),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of keys in the list.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Insert `key` as most recently used. If already present, it is moved to
    /// the front. Returns `true` if the key was newly inserted.
    pub fn insert_mru(&mut self, key: K) -> bool {
        if let Some(&idx) = self.map.get(&key) {
            self.unlink(idx);
            self.push_front(idx);
            return false;
        }
        let idx = if let Some(idx) = self.free.pop() {
            self.nodes[idx] = Node {
                key,
                prev: NIL,
                next: NIL,
            };
            idx
        } else {
            self.nodes.push(Node {
                key,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        true
    }

    /// Mark `key` as most recently used. Returns `false` if it is not present.
    pub fn touch(&mut self, key: &K) -> bool {
        if let Some(&idx) = self.map.get(key) {
            self.unlink(idx);
            self.push_front(idx);
            true
        } else {
            false
        }
    }

    /// Remove a specific key. Returns `true` if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        if let Some(idx) = self.map.remove(key) {
            self.unlink(idx);
            self.free.push(idx);
            true
        } else {
            false
        }
    }

    /// The least recently used key, if any (not removed).
    pub fn peek_lru(&self) -> Option<&K> {
        if self.tail == NIL {
            None
        } else {
            Some(&self.nodes[self.tail].key)
        }
    }

    /// The most recently used key, if any.
    pub fn peek_mru(&self) -> Option<&K> {
        if self.head == NIL {
            None
        } else {
            Some(&self.nodes[self.head].key)
        }
    }

    /// Remove and return the least recently used key.
    pub fn pop_lru(&mut self) -> Option<K> {
        if self.tail == NIL {
            return None;
        }
        let key = self.nodes[self.tail].key;
        self.remove(&key);
        Some(key)
    }

    /// Iterate keys from least recently used to most recently used.
    pub fn iter_lru_to_mru(&self) -> impl Iterator<Item = &K> {
        LruIter {
            list: self,
            cur: self.tail,
            forward: false,
        }
    }

    /// Iterate keys from most recently used to least recently used.
    pub fn iter_mru_to_lru(&self) -> impl Iterator<Item = &K> {
        LruIter {
            list: self,
            cur: self.head,
            forward: true,
        }
    }

    /// Remove every key.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.map.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

struct LruIter<'a, K> {
    list: &'a LruList<K>,
    cur: usize,
    forward: bool,
}

impl<'a, K> Iterator for LruIter<'a, K> {
    type Item = &'a K;

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let node = &self.list.nodes[self.cur];
        self.cur = if self.forward { node.next } else { node.prev };
        Some(&node.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_and_evict_in_lru_order() {
        let mut l = LruList::new();
        assert!(l.is_empty());
        assert!(l.insert_mru(1));
        assert!(l.insert_mru(2));
        assert!(l.insert_mru(3));
        assert_eq!(l.len(), 3);
        assert_eq!(l.peek_lru(), Some(&1));
        assert_eq!(l.peek_mru(), Some(&3));
        assert_eq!(l.pop_lru(), Some(1));
        assert_eq!(l.pop_lru(), Some(2));
        assert_eq!(l.pop_lru(), Some(3));
        assert_eq!(l.pop_lru(), None);
    }

    #[test]
    fn touch_moves_to_front() {
        let mut l = LruList::new();
        for k in 1..=4 {
            l.insert_mru(k);
        }
        assert!(l.touch(&1));
        assert_eq!(l.pop_lru(), Some(2));
        assert_eq!(l.peek_mru(), Some(&1));
        assert!(!l.touch(&99));
    }

    #[test]
    fn reinsert_is_a_touch() {
        let mut l = LruList::new();
        l.insert_mru(1);
        l.insert_mru(2);
        assert!(!l.insert_mru(1));
        assert_eq!(l.len(), 2);
        assert_eq!(l.pop_lru(), Some(2));
    }

    #[test]
    fn remove_arbitrary_keys() {
        let mut l = LruList::new();
        for k in 1..=5 {
            l.insert_mru(k);
        }
        assert!(l.remove(&3));
        assert!(!l.remove(&3));
        assert!(!l.contains(&3));
        assert_eq!(l.len(), 4);
        let order: Vec<_> = l.iter_lru_to_mru().copied().collect();
        assert_eq!(order, vec![1, 2, 4, 5]);
        let rev: Vec<_> = l.iter_mru_to_lru().copied().collect();
        assert_eq!(rev, vec![5, 4, 2, 1]);
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut l = LruList::new();
        for k in 0..100 {
            l.insert_mru(k);
        }
        for k in 0..100 {
            l.remove(&k);
        }
        for k in 100..200 {
            l.insert_mru(k);
        }
        // The node slab should not have grown past its initial 100 entries
        // by more than a small amount (free-list reuse).
        assert!(l.nodes.len() <= 101, "slab grew to {}", l.nodes.len());
        assert_eq!(l.len(), 100);
    }

    #[test]
    fn clear_empties_list() {
        let mut l = LruList::new();
        l.insert_mru(1);
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.peek_lru(), None);
        assert_eq!(l.peek_mru(), None);
    }

    #[test]
    fn with_capacity_behaves_identically() {
        let mut l = LruList::with_capacity(16);
        l.insert_mru(7u64);
        assert!(l.contains(&7));
    }

    proptest! {
        /// The LRU list behaves identically to a naive Vec-based model under
        /// an arbitrary sequence of operations.
        #[test]
        fn matches_naive_model(ops in prop::collection::vec((0u8..4, 0u16..32), 0..400)) {
            let mut lru = LruList::new();
            let mut model: Vec<u16> = Vec::new(); // front = MRU

            for (op, key) in ops {
                match op {
                    0 => {
                        // insert_mru
                        lru.insert_mru(key);
                        model.retain(|&k| k != key);
                        model.insert(0, key);
                    }
                    1 => {
                        // touch
                        let expected = model.contains(&key);
                        prop_assert_eq!(lru.touch(&key), expected);
                        if expected {
                            model.retain(|&k| k != key);
                            model.insert(0, key);
                        }
                    }
                    2 => {
                        // remove
                        let expected = model.contains(&key);
                        prop_assert_eq!(lru.remove(&key), expected);
                        model.retain(|&k| k != key);
                    }
                    _ => {
                        // pop_lru
                        prop_assert_eq!(lru.pop_lru(), model.pop());
                    }
                }
                prop_assert_eq!(lru.len(), model.len());
                prop_assert_eq!(lru.peek_lru().copied(), model.last().copied());
                prop_assert_eq!(lru.peek_mru().copied(), model.first().copied());
            }
            let order: Vec<u16> = lru.iter_mru_to_lru().copied().collect();
            prop_assert_eq!(order, model);
        }
    }
}
