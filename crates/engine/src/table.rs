//! The slotted-page record layout used by the key-value table layer.
//!
//! Each table bucket is one page. The page body is divided into fixed-size
//! slots of [`SLOT_SIZE`] bytes, each holding a used flag, a 64-bit key, a
//! length and up to [`VALUE_CAPACITY`] bytes of value. Keys hash to a bucket
//! page; collisions within a page use the next free slot. This deliberately
//! simple layout keeps the record layer out of the way of what the
//! reproduction studies — the buffer and flash cache behaviour — while still
//! exercising real page contents, LSNs and redo.
//!
//! ## What a write reports
//!
//! A put or delete changes one slot, and usually only a few bytes of it: the
//! flag, key and length of an overwritten record stay, the padding past the
//! value stays, and successive values of one key tend to share most of
//! their bytes. [`put_with_undo`] and [`delete_with_undo`] therefore report
//! a [`SlotDiff`]: the smallest byte range of the slot outside which the
//! old and the new page agree, with the old and the new bytes of that range.
//! That triple is what the engine logs — `offset`, after-image, before-image
//! of a [`face_wal::LogRecord::Update`] — so the log grows with what
//! changed, not with the slot size. Writing the after-image at the offset
//! turns the old page into the new one (redo), writing the before-image
//! turns the new page back into the old one (undo); a write that changed
//! nothing reports an empty range. The images live in stack arrays inside
//! the diff: the write path allocates nothing.

use face_pagestore::{Page, PAGE_BODY_SIZE};

/// Bytes per record slot.
pub const SLOT_SIZE: usize = 128;

/// Bytes of a slot in front of the value: used flag, key, value length.
const SLOT_HEADER: usize = 1 + 8 + 2;

/// Maximum value length storable in a slot.
pub const VALUE_CAPACITY: usize = SLOT_SIZE - SLOT_HEADER;

/// Number of slots per page.
pub const SLOTS_PER_PAGE: usize = PAGE_BODY_SIZE / SLOT_SIZE;

/// What one put or delete changed in its page: a byte range of the page
/// body lying inside one slot, with its bytes before and after the write.
/// The range is minimal — its first and its last byte differ between the
/// two images — and empty when the write changed nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotDiff {
    /// Body offset of the slot written.
    slot_offset: usize,
    /// The changed range within the slot, `lo..hi`.
    lo: usize,
    hi: usize,
    /// The whole slot before and after the write.
    old: [u8; SLOT_SIZE],
    new: [u8; SLOT_SIZE],
}

impl SlotDiff {
    /// Write `new` over the slot at `slot_offset`, touching only the bytes
    /// that differ from what the page holds.
    fn apply(page: &mut Page, slot_offset: usize, new: [u8; SLOT_SIZE]) -> Self {
        let old: [u8; SLOT_SIZE] = page
            .read_body(slot_offset, SLOT_SIZE)
            .try_into()
            .expect("a slot-sized read");
        let lo = old.iter().zip(&new).position(|(a, b)| a != b).unwrap_or(0);
        let hi = old
            .iter()
            .zip(&new)
            .rposition(|(a, b)| a != b)
            .map_or(lo, |last| last + 1);
        page.write_body(slot_offset + lo, &new[lo..hi]);
        Self {
            slot_offset,
            lo,
            hi,
            old,
            new,
        }
    }

    /// Byte offset within the page body of the first changed byte (of the
    /// slot, for an empty diff).
    pub fn offset(&self) -> usize {
        self.slot_offset + self.lo
    }

    /// The changed range as the write left it: the redo image.
    pub fn after(&self) -> &[u8] {
        &self.new[self.lo..self.hi]
    }

    /// The changed range as the write found it: the undo image.
    pub fn before(&self) -> &[u8] {
        &self.old[self.lo..self.hi]
    }
}

/// Outcome of a put against a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PutOutcome {
    /// The key was inserted into a previously free slot.
    Inserted(SlotDiff),
    /// The key existed and its value was replaced.
    Updated(SlotDiff),
    /// No free slot is available for this key.
    PageFull,
}

fn slot_offset(slot: usize) -> usize {
    slot * SLOT_SIZE
}

fn encode_slot(key: u64, value: &[u8]) -> [u8; SLOT_SIZE] {
    debug_assert!(value.len() <= VALUE_CAPACITY);
    let mut bytes = [0u8; SLOT_SIZE];
    bytes[0] = 1;
    bytes[1..9].copy_from_slice(&key.to_le_bytes());
    bytes[9..SLOT_HEADER].copy_from_slice(&(value.len() as u16).to_le_bytes());
    bytes[SLOT_HEADER..SLOT_HEADER + value.len()].copy_from_slice(value);
    bytes
}

/// The key and value of an occupied slot, borrowed from the page.
fn slot_record(page: &Page, slot: usize) -> Option<(u64, &[u8])> {
    let raw = page.read_body(slot_offset(slot), SLOT_SIZE);
    if raw[0] != 1 {
        return None;
    }
    let key = u64::from_le_bytes(raw[1..9].try_into().unwrap());
    let len = u16::from_le_bytes(raw[9..SLOT_HEADER].try_into().unwrap()) as usize;
    Some((key, &raw[SLOT_HEADER..SLOT_HEADER + len]))
}

/// Find the slot holding `key`, if any.
pub fn find_slot(page: &Page, key: u64) -> Option<usize> {
    (0..SLOTS_PER_PAGE).find(|&s| slot_record(page, s).is_some_and(|(k, _)| k == key))
}

/// Read the value stored for `key`.
pub fn get(page: &Page, key: u64) -> Option<Vec<u8>> {
    let (_, value) = slot_record(page, find_slot(page, key)?)?;
    Some(value.to_vec())
}

/// Insert or update `key` with `value` in place. The outcome carries what
/// changed ([`SlotDiff`]): the caller logs its after-image for redo and its
/// before-image for undo.
pub fn put_with_undo(page: &mut Page, key: u64, value: &[u8]) -> PutOutcome {
    assert!(
        value.len() <= VALUE_CAPACITY,
        "value exceeds slot capacity; enforce at the engine layer"
    );
    let (slot, outcome): (_, fn(SlotDiff) -> PutOutcome) = match find_slot(page, key) {
        Some(slot) => (slot, PutOutcome::Updated),
        None => match (0..SLOTS_PER_PAGE).find(|&s| slot_record(page, s).is_none()) {
            Some(free) => (free, PutOutcome::Inserted),
            None => return PutOutcome::PageFull,
        },
    };
    outcome(SlotDiff::apply(
        page,
        slot_offset(slot),
        encode_slot(key, value),
    ))
}

/// Remove `key` from the page by clearing its slot. Returns what changed,
/// or `None` if the key was absent.
pub fn delete_with_undo(page: &mut Page, key: u64) -> Option<SlotDiff> {
    let slot = find_slot(page, key)?;
    Some(SlotDiff::apply(page, slot_offset(slot), [0u8; SLOT_SIZE]))
}

/// Number of live records in the page.
pub fn record_count(page: &Page) -> usize {
    (0..SLOTS_PER_PAGE)
        .filter(|&s| slot_record(page, s).is_some())
        .count()
}

/// Iterate all live `(key, value)` pairs in the page.
pub fn scan(page: &Page) -> Vec<(u64, Vec<u8>)> {
    (0..SLOTS_PER_PAGE)
        .filter_map(|s| slot_record(page, s))
        .map(|(key, value)| (key, value.to_vec()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use face_pagestore::PageId;

    fn page() -> Page {
        Page::new(PageId::new(1, 0))
    }

    #[test]
    fn put_get_round_trip() {
        let mut p = page();
        let out = put_with_undo(&mut p, 42, b"hello");
        assert!(matches!(out, PutOutcome::Inserted(_)));
        assert_eq!(get(&p, 42).unwrap(), b"hello");
        assert_eq!(get(&p, 43), None);
        assert_eq!(record_count(&p), 1);
    }

    #[test]
    fn update_replaces_value_in_place() {
        let mut p = page();
        put_with_undo(&mut p, 7, b"first");
        let out = put_with_undo(&mut p, 7, b"second value");
        assert!(matches!(out, PutOutcome::Updated(_)));
        assert_eq!(get(&p, 7).unwrap(), b"second value");
        assert_eq!(record_count(&p), 1);
    }

    #[test]
    fn multiple_keys_coexist() {
        let mut p = page();
        for k in 0..10u64 {
            put_with_undo(&mut p, k + 1, format!("value-{k}").as_bytes());
        }
        assert_eq!(record_count(&p), 10);
        for k in 0..10u64 {
            assert_eq!(get(&p, k + 1).unwrap(), format!("value-{k}").as_bytes());
        }
        let mut all = scan(&p);
        all.sort();
        assert_eq!(all.len(), 10);
        assert_eq!(all[0].0, 1);
    }

    #[test]
    fn page_fills_up_cleanly() {
        let mut p = page();
        for k in 0..SLOTS_PER_PAGE as u64 {
            assert!(!matches!(
                put_with_undo(&mut p, k + 1, b"x"),
                PutOutcome::PageFull
            ));
        }
        assert!(matches!(
            put_with_undo(&mut p, 10_000, b"overflow"),
            PutOutcome::PageFull
        ));
        assert_eq!(record_count(&p), SLOTS_PER_PAGE);
        // Updating an existing key still works when full.
        assert!(matches!(
            put_with_undo(&mut p, 1, b"new"),
            PutOutcome::Updated(_)
        ));
    }

    #[test]
    fn delete_frees_the_slot() {
        let mut p = page();
        put_with_undo(&mut p, 5, b"to delete");
        assert!(delete_with_undo(&mut p, 5).is_some());
        assert!(delete_with_undo(&mut p, 5).is_none());
        assert_eq!(get(&p, 5), None);
        assert_eq!(record_count(&p), 0);
        // The freed slot is reusable.
        put_with_undo(&mut p, 6, b"reuse");
        assert_eq!(get(&p, 6).unwrap(), b"reuse");
    }

    #[test]
    fn slot_diff_describes_redo_image() {
        let mut p = page();
        let PutOutcome::Inserted(w) = put_with_undo(&mut p, 9, b"redo me") else {
            panic!("expected insert");
        };
        // Applying the same bytes at the same offset to a fresh page
        // reproduces the record — exactly what redo does.
        let mut replay = page();
        replay.write_body(w.offset(), w.after());
        assert_eq!(get(&replay, 9).unwrap(), b"redo me");
    }

    /// The ranges the usual writes log, as numbers: an insert covers the
    /// slot from its flag to the end of the value, an overwrite only the
    /// bytes that differ, a re-put nothing, a delete what the record
    /// occupied.
    #[test]
    fn diffs_are_as_wide_as_the_change() {
        let mut p = page();
        let range = |out: PutOutcome| match out {
            PutOutcome::Inserted(d) | PutOutcome::Updated(d) => (d.offset(), d.after().len()),
            PutOutcome::PageFull => panic!("page full"),
        };
        put_with_undo(&mut p, 1, b"occupies slot 0");
        let v1 = *b"district-0007\x00\x00\x01";
        let v2 = *b"district-0007\x00\x00\x02";
        // Flag, key, length and value of a first insert into slot 1.
        assert_eq!(range(put_with_undo(&mut p, 2, &v1)), (SLOT_SIZE, 11 + 16));
        // One differing byte, the value's last.
        assert_eq!(
            range(put_with_undo(&mut p, 2, &v2)),
            (SLOT_SIZE + 11 + 15, 1)
        );
        // The same value again: an empty range at the slot's start.
        assert_eq!(range(put_with_undo(&mut p, 2, &v2)), (SLOT_SIZE, 0));
        // A shorter value: from the length field to the old value's end.
        assert_eq!(
            range(put_with_undo(&mut p, 2, &v2[..13])),
            (SLOT_SIZE + 9, 2 + 16)
        );
        // A full-length value over a full-length value keeps only the
        // 11-byte flag/key/length prefix out of the log.
        put_with_undo(&mut p, 2, &[0x11; VALUE_CAPACITY]);
        assert_eq!(
            range(put_with_undo(&mut p, 2, &[0x22; VALUE_CAPACITY])),
            (SLOT_SIZE + 11, VALUE_CAPACITY)
        );
        let d = delete_with_undo(&mut p, 2).unwrap();
        assert_eq!((d.offset(), d.before().len()), (SLOT_SIZE, SLOT_SIZE));
        assert!(d.after().iter().all(|&b| b == 0));
    }

    #[test]
    fn max_value_capacity_fits() {
        let mut p = page();
        let big = vec![0xAB; VALUE_CAPACITY];
        put_with_undo(&mut p, 1, &big);
        assert_eq!(get(&p, 1).unwrap(), big);
    }

    #[test]
    #[should_panic(expected = "slot capacity")]
    fn oversized_value_panics_at_this_layer() {
        let mut p = page();
        let too_big = vec![0u8; VALUE_CAPACITY + 1];
        put_with_undo(&mut p, 1, &too_big);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// The slotted page behaves exactly like a bounded map under any
            /// interleaving of puts, deletes and gets.
            #[test]
            fn page_matches_map_model(
                ops in prop::collection::vec(
                    (0u8..3, 1u64..40, prop::collection::vec(any::<u8>(), 0..32)),
                    1..120,
                )
            ) {
                let mut p = page();
                let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
                for (op, key, value) in ops {
                    match op {
                        0 => {
                            match put_with_undo(&mut p, key, &value) {
                                PutOutcome::PageFull => {
                                    prop_assert!(model.len() >= SLOTS_PER_PAGE);
                                }
                                _ => {
                                    model.insert(key, value);
                                }
                            }
                        }
                        1 => {
                            let removed = delete_with_undo(&mut p, key).is_some();
                            prop_assert_eq!(removed, model.remove(&key).is_some());
                        }
                        _ => {
                            prop_assert_eq!(get(&p, key), model.get(&key).cloned());
                        }
                    }
                    prop_assert_eq!(record_count(&p), model.len());
                }
                for (k, v) in &model {
                    let stored = get(&p, *k);
                    prop_assert_eq!(stored.as_deref(), Some(v.as_slice()));
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// Every write's diff is a redo image, an undo image and minimal:
            /// the after-image at the offset turns the old page into the new
            /// one, the before-image turns it back, both have one length,
            /// the range stays inside one slot, and its first and last byte
            /// really changed. Value lengths cover 0 to the slot's capacity;
            /// the op kinds force identical re-puts, values differing only
            /// in their first or only in their last byte, deletes, and (few
            /// keys, many deletes) first inserts into an emptied slot.
            #[test]
            fn every_diff_is_a_minimal_redo_and_undo_image(
                ops in prop::collection::vec(
                    (
                        0u8..6,
                        1u64..7,
                        prop::collection::vec(any::<u8>(), 0..=VALUE_CAPACITY),
                    ),
                    1..60,
                )
            ) {
                let mut p = page();
                let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
                for (op, key, random) in ops {
                    let current = model.get(&key).cloned();
                    let value = match (op, current) {
                        (1, _) => None,
                        (2, Some(same)) => Some(same),
                        (3, Some(mut v)) if !v.is_empty() => {
                            v[0] ^= 0x5A;
                            Some(v)
                        }
                        (4, Some(mut v)) if !v.is_empty() => {
                            *v.last_mut().unwrap() ^= 0xA5;
                            Some(v)
                        }
                        _ => Some(random),
                    };
                    let old = p.clone();
                    let diff = match &value {
                        Some(v) => match put_with_undo(&mut p, key, v) {
                            PutOutcome::Inserted(d) => {
                                prop_assert!(model.insert(key, v.clone()).is_none());
                                d
                            }
                            PutOutcome::Updated(d) => {
                                prop_assert!(model.insert(key, v.clone()).is_some());
                                d
                            }
                            PutOutcome::PageFull => panic!("six keys cannot fill a page"),
                        },
                        None => match delete_with_undo(&mut p, key) {
                            Some(d) => {
                                prop_assert!(model.remove(&key).is_some());
                                d
                            }
                            None => {
                                prop_assert!(!model.contains_key(&key));
                                prop_assert_eq!(p.body(), old.body());
                                continue;
                            }
                        },
                    };
                    prop_assert_eq!(get(&p, key), model.get(&key).cloned());
                    let (offset, after, before) = (diff.offset(), diff.after(), diff.before());
                    prop_assert_eq!(after.len(), before.len());
                    // Inside one slot, the empty range included.
                    let slot_end = (offset / SLOT_SIZE + 1) * SLOT_SIZE;
                    prop_assert!(offset + after.len() <= slot_end);
                    prop_assert!(slot_end <= PAGE_BODY_SIZE);
                    // Redo: old page + after-image = new page.
                    let mut redone = old.clone();
                    redone.write_body(offset, after);
                    prop_assert_eq!(redone.body(), p.body());
                    // Undo: new page + before-image = old page.
                    let mut undone = p.clone();
                    undone.write_body(offset, before);
                    prop_assert_eq!(undone.body(), old.body());
                    // Minimal: nothing to trim at either end.
                    if let (Some(a), Some(b)) = (after.first(), before.first()) {
                        prop_assert_ne!(a, b);
                        prop_assert_ne!(after.last(), before.last());
                    } else {
                        prop_assert_eq!(p.body(), old.body());
                    }
                }
            }
        }
    }
}
