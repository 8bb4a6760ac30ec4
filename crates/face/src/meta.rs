//! The per-shard mapping-metadata journal and cache checkpoint (paper §4.3).
//!
//! Every page version a group writes to flash gets a compact
//! [`JournalEntry`] — page id, flash slot, pageLSN, dirty bit and the **group
//! epoch** of the batch that carries it. The ring derives a group's entries
//! from its slots when the group forms and hands them over *after* the
//! group's batch write: the metadata records ride along as a small sequential
//! append ([`MetaJournal::seal_group`]). A crash therefore loses metadata and
//! data together — a sealed group is fully recoverable, an unsealed group is
//! fully gone — which is exactly the paper's invariant that the in-flash
//! directory never references pages whose bytes did not reach flash.
//!
//! The journal holds only what a crash keeps: the sealed groups, the latest
//! checkpoint, the durable queue pointers and the epoch counter. Nothing in
//! it is volatile, so a crash is simply a clone of it.
//!
//! A [`CacheCheckpoint`] bounds how much journal a restart must replay: every
//! `checkpoint_interval_groups` sealed groups, the cache snapshots its live
//! directory (queue pointers plus the valid entries in queue order) into one
//! sequential flash write and prunes the sealed groups it covers. Recovery is
//! then `checkpoint + at most checkpoint_interval_groups × group_size journal
//! records`, independent of how long the cache has been running — unlike a
//! segment log that only ever grows.
//!
//! Reconciliation against the WAL happens one level up
//! ([`crate::ring::GroupRing::recover`]): a journaled version whose pageLSN
//! exceeds the durable log end must be discarded (its log records are lost,
//! so serving it would diverge from redo), while dirty versions at or below
//! it substitute for disk reads during redo.

use face_pagestore::{Lsn, PageId};
use serde::{Deserialize, Serialize};

use crate::io::IoLog;

/// Size of one journal entry on flash in bytes (the paper's 24-byte entries
/// plus the 8-byte group epoch).
pub const JOURNAL_ENTRY_BYTES: usize = 32;

/// One mapping-metadata record: which page version occupies which flash slot,
/// stamped with the group epoch whose batch write made it durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// The group epoch that sealed (flushed) this entry. Entries of the same
    /// epoch became durable in the same sequential batch write.
    pub epoch: u64,
    /// The flash slot holding the page version.
    pub slot: u32,
    /// The cached page.
    pub page: PageId,
    /// The pageLSN of the cached version.
    pub lsn: Lsn,
    /// Whether the cached version is newer than the disk copy.
    pub dirty: bool,
}

/// A point-in-time snapshot of a shard's directory, persisted to flash so
/// that restart replays at most `checkpoint_interval_groups` of journal.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheCheckpoint {
    /// Index of the oldest occupied queue slot at snapshot time.
    pub front: u64,
    /// Number of occupied queue slots at snapshot time.
    pub size: u64,
    /// The valid page versions, in queue (oldest-to-newest) order.
    pub entries: Vec<JournalEntry>,
}

impl CacheCheckpoint {
    /// Persistent size in bytes (a small fixed header plus the entries).
    pub fn bytes(&self) -> u64 {
        (JOURNAL_ENTRY_BYTES + self.entries.len() * JOURNAL_ENTRY_BYTES) as u64
    }
}

/// Activity counters of the journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalStats {
    /// Groups sealed (metadata flushed with a batch write).
    pub groups_sealed: u64,
    /// Cache checkpoints written.
    pub checkpoints_written: u64,
    /// Bytes written by seals and checkpoints.
    pub bytes_flushed: u64,
    /// Journal entries pruned by checkpoints (replay they no longer cost).
    pub entries_pruned: u64,
}

/// What [`MetaJournal::recover`] restored, in replay order.
#[derive(Debug, Clone, Default)]
pub struct RecoveredJournal {
    /// Checkpoint entries first (queue order), then sealed groups in epoch
    /// order. Later entries supersede earlier ones for the same page.
    pub entries: Vec<JournalEntry>,
    /// The durable queue front pointer.
    pub front: u64,
    /// The durable queue size.
    pub size: u64,
    /// Whether a cache checkpoint was found and loaded.
    pub checkpoint_loaded: bool,
    /// Entries loaded from the checkpoint snapshot.
    pub checkpoint_entries: u64,
    /// Journal records replayed from sealed groups past the checkpoint.
    pub journal_records_replayed: u64,
}

/// The mapping-metadata journal of one cache shard: the sealed groups since
/// the last checkpoint and the most recent [`CacheCheckpoint`], both
/// "flash-resident" — everything here survives a crash.
#[derive(Debug, Clone)]
pub struct MetaJournal {
    checkpoint_interval_groups: usize,
    /// Sealed groups newer than the checkpoint, oldest first.
    sealed: Vec<Vec<JournalEntry>>,
    /// The most recent directory snapshot.
    checkpoint: Option<CacheCheckpoint>,
    /// Epoch the next group to form will carry.
    next_epoch: u64,
    /// Queue pointers as of the last seal or checkpoint. Like the paper's
    /// directory header, pointer updates ride along with metadata writes and
    /// are charged no extra I/O.
    durable_front: u64,
    durable_size: u64,
    stats: JournalStats,
}

impl MetaJournal {
    /// A journal that writes a [`CacheCheckpoint`] every
    /// `checkpoint_interval_groups` sealed groups.
    pub fn new(checkpoint_interval_groups: usize) -> Self {
        Self {
            checkpoint_interval_groups: checkpoint_interval_groups.max(1),
            sealed: Vec::new(),
            checkpoint: None,
            next_epoch: 1,
            durable_front: 0,
            durable_size: 0,
            stats: JournalStats::default(),
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// The epoch of the group now collecting: the next one to form.
    pub fn current_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Sealed groups not yet folded into a checkpoint — what recovery must
    /// replay beyond the checkpoint.
    pub fn sealed_groups(&self) -> usize {
        self.sealed.len()
    }

    /// The most recent cache checkpoint, if one was written.
    pub fn checkpoint(&self) -> Option<&CacheCheckpoint> {
        self.checkpoint.as_ref()
    }

    /// A group forms: hand out its epoch and advance the counter, so the
    /// versions enqueued from now on belong to the next group. Nothing
    /// becomes durable here; the group's entries wait in the caller until
    /// [`MetaJournal::seal_group`].
    pub fn begin_group(&mut self) -> u64 {
        self.next_epoch += 1;
        self.next_epoch - 1
    }

    /// Seal a group whose batch write completed: its `entries` become
    /// durable (one small sequential append charged to `io`) together with
    /// the queue pointers `front`/`size`. Only the pointers move when
    /// `entries` is empty. Callers seal groups in epoch order — the destage
    /// pipeline's per-shard FIFO guarantees it, and the ring's completion
    /// ordering enforces it.
    pub fn seal_group(
        &mut self,
        entries: Vec<JournalEntry>,
        front: u64,
        size: u64,
        io: &mut IoLog,
    ) {
        self.durable_front = front;
        self.durable_size = size;
        if entries.is_empty() {
            return;
        }
        debug_assert!(
            self.sealed
                .last()
                .and_then(|g| g.first())
                .is_none_or(|prev| prev.epoch < entries[0].epoch),
            "groups must seal in epoch order"
        );
        let bytes = entries.len() * JOURNAL_ENTRY_BYTES;
        io.flash_write_seq(bytes.div_ceil(face_pagestore::PAGE_SIZE).max(1) as u32);
        self.sealed.push(entries);
        self.stats.groups_sealed += 1;
        self.stats.bytes_flushed += bytes as u64;
    }

    /// Whether enough groups have sealed since the last checkpoint that the
    /// owner should snapshot its directory now.
    pub fn checkpoint_due(&self) -> bool {
        self.sealed.len() >= self.checkpoint_interval_groups
    }

    /// Install a directory snapshot: `live` must be the owner's valid entries
    /// in queue order. Covers every sealed group (they are pruned), so replay
    /// after this point starts from the snapshot.
    pub fn install_checkpoint(
        &mut self,
        front: u64,
        size: u64,
        live: Vec<JournalEntry>,
        io: &mut IoLog,
    ) {
        let ckpt = CacheCheckpoint {
            front,
            size,
            entries: live,
        };
        let pages = ckpt
            .bytes()
            .div_ceil(face_pagestore::PAGE_SIZE as u64)
            .max(1) as u32;
        io.flash_write_seq(pages);
        self.stats.bytes_flushed += ckpt.bytes();
        self.stats.checkpoints_written += 1;
        self.stats.entries_pruned += self.sealed.iter().map(|g| g.len() as u64).sum::<u64>();
        self.sealed.clear();
        self.durable_front = front;
        self.durable_size = size;
        self.checkpoint = Some(ckpt);
    }

    /// Durable replay length in entries: what a restart reads beyond loading
    /// the checkpoint. Bounded by the checkpoint cadence.
    pub fn replay_entries(&self) -> u64 {
        self.sealed.iter().map(|g| g.len() as u64).sum()
    }

    /// Restore the durable state after a crash: read the checkpoint (one
    /// sequential flash read) and every sealed group past it (one sequential
    /// read each), returning entries in replay order plus the durable queue
    /// pointers.
    pub fn recover(&self, io: &mut IoLog) -> RecoveredJournal {
        let mut out = RecoveredJournal {
            front: self.durable_front,
            size: self.durable_size,
            ..Default::default()
        };
        if let Some(ckpt) = &self.checkpoint {
            let pages = ckpt
                .bytes()
                .div_ceil(face_pagestore::PAGE_SIZE as u64)
                .max(1) as u32;
            io.flash_read_seq(pages);
            out.checkpoint_loaded = true;
            out.checkpoint_entries = ckpt.entries.len() as u64;
            out.entries.extend(ckpt.entries.iter().copied());
        }
        for group in &self.sealed {
            let bytes = group.len() * JOURNAL_ENTRY_BYTES;
            io.flash_read_seq(bytes.div_ceil(face_pagestore::PAGE_SIZE).max(1) as u32);
            out.journal_records_replayed += group.len() as u64;
            out.entries.extend(group.iter().copied());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(slot: u32, page: u32, lsn: u64, dirty: bool) -> JournalEntry {
        JournalEntry {
            epoch: 0,
            slot,
            page: PageId::new(0, page),
            lsn: Lsn(lsn),
            dirty,
        }
    }

    /// Form a group of versions `n` (slot `n`, page `n`, pageLSN `n`) under
    /// the epoch the journal hands out, as the ring does when a batch leaves
    /// its pending buffer.
    fn form(j: &mut MetaJournal, versions: impl IntoIterator<Item = u32>) -> Vec<JournalEntry> {
        let epoch = j.begin_group();
        versions
            .into_iter()
            .map(|n| JournalEntry {
                epoch,
                ..entry(n, n, n as u64, true)
            })
            .collect()
    }

    #[test]
    fn entries_ride_with_their_group_epoch() {
        let mut j = MetaJournal::new(4);
        let mut io = IoLog::new();
        let group = form(&mut j, [1, 2]);
        assert_eq!(j.current_epoch(), 2, "the next group gets the next epoch");
        assert_eq!(j.sealed_groups(), 0);
        assert!(io.is_empty(), "forming a group writes nothing");

        j.seal_group(group, 0, 2, &mut io);
        assert_eq!(j.sealed_groups(), 1);
        // The seal is one small sequential flash write.
        assert_eq!(io.flash_pages_written(), 1);
        assert_eq!(io.flash_pages_written_random(), 0);
        assert_eq!(j.stats().groups_sealed, 1);
        assert_eq!(j.stats().bytes_flushed, 2 * JOURNAL_ENTRY_BYTES as u64);

        // Both entries carry the epoch of the group that sealed them.
        let rec = j.recover(&mut IoLog::new());
        assert_eq!(rec.entries.len(), 2);
        assert!(rec.entries.iter().all(|e| e.epoch == 1));
    }

    #[test]
    fn crash_loses_only_the_unsealed_group() {
        let mut j = MetaJournal::new(4);
        let mut io = IoLog::new();
        let sealed = form(&mut j, [1]);
        j.seal_group(sealed, 0, 1, &mut io);
        // Formed, its batch write never completed: the crash takes it.
        let _unsealed = form(&mut j, [2]);
        let survivor = j.clone();
        let rec = survivor.recover(&mut io);
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.entries[0].page, PageId::new(0, 1));
        assert_eq!((rec.front, rec.size), (0, 1));
    }

    #[test]
    fn pointers_persist_at_seal_time_only() {
        let mut j = MetaJournal::new(4);
        let mut io = IoLog::new();
        let group = form(&mut j, [1]);
        j.seal_group(group, 3, 9, &mut io);
        // A later group that never seals moves no durable pointer...
        let _unsealed = form(&mut j, [2]);
        let rec = j.clone().recover(&mut io);
        assert_eq!((rec.front, rec.size), (3, 9));
        // ...but an empty seal still persists pointers (dequeue-only
        // progress recorded by the next batch boundary).
        j.seal_group(Vec::new(), 5, 7, &mut io);
        let rec = j.recover(&mut io);
        assert_eq!((rec.front, rec.size), (5, 7));
        assert_eq!(j.sealed_groups(), 1, "an empty seal adds no group");
    }

    #[test]
    fn checkpoint_bounds_replay_and_prunes_groups() {
        let mut j = MetaJournal::new(2);
        let mut io = IoLog::new();
        for g in 0..2u32 {
            let group = form(&mut j, g * 3..g * 3 + 3);
            j.seal_group(group, 0, ((g + 1) * 3) as u64, &mut io);
        }
        assert!(j.checkpoint_due());
        assert_eq!(j.replay_entries(), 6);

        // The owner snapshots its live directory (here: 4 survivors).
        let live: Vec<JournalEntry> = (0..4u32).map(|i| entry(i, i, i as u64, true)).collect();
        j.install_checkpoint(0, 6, live, &mut io);
        assert!(!j.checkpoint_due());
        assert_eq!(j.sealed_groups(), 0);
        assert_eq!(j.replay_entries(), 0, "replay is bounded by the snapshot");
        assert_eq!(j.stats().entries_pruned, 6);
        assert_eq!(j.stats().checkpoints_written, 1);

        let rec = j.recover(&mut IoLog::new());
        assert!(rec.checkpoint_loaded);
        assert_eq!(rec.checkpoint_entries, 4);
        assert_eq!(rec.journal_records_replayed, 0);
        assert_eq!(rec.entries.len(), 4);

        // Groups sealed after the checkpoint replay on top of it.
        let group = form(&mut j, [9]);
        j.seal_group(group, 1, 7, &mut io);
        let rec = j.recover(&mut IoLog::new());
        assert_eq!(rec.journal_records_replayed, 1);
        assert_eq!(rec.entries.len(), 5);
        // Replay order: checkpoint first, then the newer group.
        assert_eq!(rec.entries.last().unwrap().page, PageId::new(0, 9));
        assert_eq!((rec.front, rec.size), (1, 7));
    }

    #[test]
    fn recovery_io_is_sequential_reads_only() {
        let mut j = MetaJournal::new(2);
        let mut io = IoLog::new();
        let group = form(&mut j, 0..5);
        j.seal_group(group, 0, 5, &mut io);
        j.install_checkpoint(0, 5, vec![entry(0, 0, 0, false)], &mut io);
        let mut rio = IoLog::new();
        j.recover(&mut rio);
        assert!(!rio.is_empty());
        assert!(rio.events().iter().all(|e| e.is_flash() && !e.is_write()));
    }

    #[test]
    fn paper_entry_size_keeps_checkpoints_small() {
        // 64k entries at 32 bytes ≈ 2 MB per checkpoint — same order as the
        // paper's 1.5 MB segments.
        let bytes = 64_000 * JOURNAL_ENTRY_BYTES;
        assert!(bytes < 3 * 1024 * 1024);
    }
}
