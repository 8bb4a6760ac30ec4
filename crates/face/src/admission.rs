//! Ghost-queue admission filtering (ISSUE 7 / ROADMAP item 2).
//!
//! FaCE buys its throughput with flash writes: every DRAM eviction is a page
//! program, including pages that will never be referenced again. WLFC and
//! Flashield both show the highest-leverage wear lever is *admission* — never
//! pay a flash write for a one-touch page. The mechanism is a **ghost
//! directory**: a bounded FIFO of recently rejected page ids, holding no
//! data. A clean page's first touch is recorded only there; if the id is
//! re-referenced while its ghost entry is live, the page has proven it is no
//! one-hit wonder and the re-reference earns the flash write.
//!
//! Both ring policies that filter admission own a [`GhostQueue`] outright,
//! one per ring, under the ring's cache-shard lock:
//!
//! * [`crate::mvfifo::MvFifo`] — when [`crate::CacheConfig::ghost_admission`]
//!   is set, a clean page the directory does not hold is recorded here on
//!   its first touch and admitted only on its comeback;
//! * [`crate::s3fifo::S3Fifo`] — always, as the third queue of the S3-FIFO
//!   policy.
//!
//! A page always routes to the same cache shard, so its first touch and its
//! comeback meet in the same ghost.
//!
//! The ghost directory is deliberately **RAM-only**: it is an admission
//! heuristic, not cache metadata. After a crash it restarts empty — the worst
//! case is a few re-filtered first touches, never a correctness problem.
//!
//! ```
//! use face_cache::GhostQueue;
//! use face_pagestore::PageId;
//!
//! let mut ghost = GhostQueue::new(4);
//! let page = PageId::new(0, 7);
//! // First touch: recorded in the ghost only — no flash write is paid.
//! assert!(!ghost.admit_or_record(page));
//! assert!(ghost.contains(page));
//! // Re-reference while the ghost entry is live: the write is earned, and
//! // the entry is consumed (a third touch of an uncached page starts over).
//! assert!(ghost.admit_or_record(page));
//! assert!(!ghost.contains(page));
//! ```

use std::collections::{HashMap, VecDeque};

use face_pagestore::PageId;

/// A bounded FIFO of page ids with O(1) membership, insertion and logical
/// removal. Eviction is lazy: removing an id only drops it from the index;
/// the queue entry is skipped when it surfaces at the front.
#[derive(Debug, Default)]
pub struct GhostQueue {
    /// Insertion order: (sequence, page). Stale entries — whose sequence no
    /// longer matches the index — are skipped during eviction.
    queue: VecDeque<(u64, PageId)>,
    /// Live members: page → sequence of its newest queue entry.
    index: HashMap<PageId, u64>,
    capacity: usize,
    next_seq: u64,
}

impl GhostQueue {
    /// An empty ghost directory remembering at most `capacity` page ids.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            ..Self::default()
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no ghost entries are live.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `page` has a live ghost entry.
    pub fn contains(&self, page: PageId) -> bool {
        self.index.contains_key(&page)
    }

    /// Record `page` (moving it to the rear if already present), evicting the
    /// oldest ghosts beyond capacity.
    pub fn record(&mut self, page: PageId) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.index.insert(page, seq);
        self.queue.push_back((seq, page));
        while self.index.len() > self.capacity {
            match self.queue.pop_front() {
                Some((s, p)) if self.index.get(&p) == Some(&s) => {
                    self.index.remove(&p);
                }
                Some(_) => {} // stale entry — already removed or re-recorded
                None => break,
            }
        }
        // Opportunistically drop stale front entries so the deque stays
        // proportional to the live population.
        while let Some(&(s, p)) = self.queue.front() {
            if self.index.get(&p) == Some(&s) {
                break;
            }
            self.queue.pop_front();
        }
    }

    /// Remove `page`'s ghost entry if live; returns whether it was.
    pub fn take(&mut self, page: PageId) -> bool {
        self.index.remove(&page).is_some()
    }

    /// The admission decision in one step: a live ghost entry is consumed and
    /// the page is admitted (`true`); otherwise the page is recorded as a
    /// ghost and rejected (`false`).
    pub fn admit_or_record(&mut self, page: PageId) -> bool {
        if self.take(page) {
            true
        } else {
            self.record(page);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u32) -> PageId {
        PageId::new(0, n)
    }

    #[test]
    fn first_touch_rejected_re_reference_admitted() {
        let mut g = GhostQueue::new(4);
        assert!(!g.admit_or_record(p(1)), "first touch is a ghost");
        assert!(g.contains(p(1)));
        assert!(g.admit_or_record(p(1)), "re-reference is admitted");
        assert!(!g.contains(p(1)), "admission consumes the ghost entry");
        assert!(!g.admit_or_record(p(1)), "after consumption it starts over");
    }

    #[test]
    fn capacity_evicts_oldest_ghosts_first() {
        let mut g = GhostQueue::new(2);
        g.record(p(1));
        g.record(p(2));
        g.record(p(3));
        assert!(!g.contains(p(1)), "oldest ghost evicted");
        assert!(g.contains(p(2)));
        assert!(g.contains(p(3)));
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn re_recording_refreshes_position() {
        let mut g = GhostQueue::new(2);
        g.record(p(1));
        g.record(p(2));
        g.record(p(1)); // refresh: p(1) is now newest
        g.record(p(3)); // evicts p(2), the oldest live entry
        assert!(g.contains(p(1)));
        assert!(!g.contains(p(2)));
        assert!(g.contains(p(3)));
    }

    #[test]
    fn lazy_removal_keeps_queue_bounded() {
        let mut g = GhostQueue::new(8);
        for round in 0..1000u32 {
            g.record(p(round % 16));
            g.take(p((round + 1) % 16));
        }
        assert!(g.len() <= 8);
        assert!(
            g.queue.len() <= 64,
            "stale entries must not accumulate: {}",
            g.queue.len()
        );
    }
}
