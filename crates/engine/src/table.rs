//! The slotted-page record layout used by the key-value table layer.
//!
//! Each table bucket is one page. The page body is divided into fixed-size
//! slots of [`SLOT_SIZE`] bytes, each holding a used flag, a 64-bit key, a
//! length and up to [`VALUE_CAPACITY`] bytes of value. Keys hash to a bucket
//! page; collisions within a page use the next free slot. This deliberately
//! simple layout keeps the record layer out of the way of what the
//! reproduction studies — the buffer and flash cache behaviour — while still
//! exercising real page contents, LSNs and redo.

use face_pagestore::{Page, PAGE_BODY_SIZE};

/// Bytes per record slot.
pub const SLOT_SIZE: usize = 128;

/// Maximum value length storable in a slot.
pub const VALUE_CAPACITY: usize = SLOT_SIZE - 1 - 8 - 2;

/// Number of slots per page.
pub const SLOTS_PER_PAGE: usize = PAGE_BODY_SIZE / SLOT_SIZE;

/// Where a record landed inside a page, expressed as a body offset and the
/// bytes written — exactly what the redo log record needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotWrite {
    /// Byte offset within the page body.
    pub offset: usize,
    /// The bytes written at that offset (the slot image).
    pub bytes: Vec<u8>,
}

/// Outcome of a put against a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PutOutcome {
    /// The key was inserted into a previously free slot.
    Inserted(SlotWrite),
    /// The key existed and its value was replaced.
    Updated(SlotWrite),
    /// No free slot is available for this key.
    PageFull,
}

fn slot_offset(slot: usize) -> usize {
    slot * SLOT_SIZE
}

fn encode_slot(key: u64, value: &[u8]) -> Vec<u8> {
    debug_assert!(value.len() <= VALUE_CAPACITY);
    let mut bytes = vec![0u8; SLOT_SIZE];
    bytes[0] = 1;
    bytes[1..9].copy_from_slice(&key.to_le_bytes());
    bytes[9..11].copy_from_slice(&(value.len() as u16).to_le_bytes());
    bytes[11..11 + value.len()].copy_from_slice(value);
    bytes
}

/// The key and value of an occupied slot, borrowed from the page.
fn slot_record(page: &Page, slot: usize) -> Option<(u64, &[u8])> {
    let raw = page.read_body(slot_offset(slot), SLOT_SIZE);
    if raw[0] != 1 {
        return None;
    }
    let key = u64::from_le_bytes(raw[1..9].try_into().unwrap());
    let len = u16::from_le_bytes(raw[9..11].try_into().unwrap()) as usize;
    Some((key, &raw[11..11 + len]))
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

/// Insert or update `key` with `value`, returning the slot image written so
/// the caller can log it for redo.
pub fn put(page: &mut Page, key: u64, value: &[u8]) -> PutOutcome {
    put_with_undo(page, key, value).0
}

/// Like [`put`], but also returns the overwritten slot's pre-image (exactly
/// the bytes an abort must restore). Capturing just the slot keeps the
/// engine's page-latched write path from copying the whole page body.
pub fn put_with_undo(page: &mut Page, key: u64, value: &[u8]) -> (PutOutcome, Option<Vec<u8>>) {
    assert!(
        value.len() <= VALUE_CAPACITY,
        "value exceeds slot capacity; enforce at the engine layer"
    );
    let (slot, existed) = match find_slot(page, key) {
        Some(slot) => (Some(slot), true),
        None => (
            (0..SLOTS_PER_PAGE).find(|&s| slot_record(page, s).is_none()),
            false,
        ),
    };
    let Some(slot) = slot else {
        return (PutOutcome::PageFull, None);
    };
    let offset = slot_offset(slot);
    let undo = page.read_body(offset, SLOT_SIZE).to_vec();
    let bytes = encode_slot(key, value);
    page.write_body(offset, &bytes);
    let write = SlotWrite { offset, bytes };
    let outcome = if existed {
        PutOutcome::Updated(write)
    } else {
        PutOutcome::Inserted(write)
    };
    (outcome, Some(undo))
}

/// Remove `key` from the page. Returns the slot image written (a cleared
/// slot) or `None` if the key was absent.
pub fn delete(page: &mut Page, key: u64) -> Option<SlotWrite> {
    delete_with_undo(page, key).map(|(write, _)| write)
}

/// Like [`delete`], but also returns the removed slot's pre-image for the
/// caller's undo log.
pub fn delete_with_undo(page: &mut Page, key: u64) -> Option<(SlotWrite, Vec<u8>)> {
    let slot = find_slot(page, key)?;
    let offset = slot_offset(slot);
    let undo = page.read_body(offset, SLOT_SIZE).to_vec();
    let bytes = vec![0u8; SLOT_SIZE];
    page.write_body(offset, &bytes);
    Some((SlotWrite { offset, bytes }, undo))
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
        let out = put(&mut p, 42, b"hello");
        assert!(matches!(out, PutOutcome::Inserted(_)));
        assert_eq!(get(&p, 42).unwrap(), b"hello");
        assert_eq!(get(&p, 43), None);
        assert_eq!(record_count(&p), 1);
    }

    #[test]
    fn update_replaces_value_in_place() {
        let mut p = page();
        put(&mut p, 7, b"first");
        let out = put(&mut p, 7, b"second value");
        assert!(matches!(out, PutOutcome::Updated(_)));
        assert_eq!(get(&p, 7).unwrap(), b"second value");
        assert_eq!(record_count(&p), 1);
    }

    #[test]
    fn multiple_keys_coexist() {
        let mut p = page();
        for k in 0..10u64 {
            put(&mut p, k + 1, format!("value-{k}").as_bytes());
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
            assert!(!matches!(put(&mut p, k + 1, b"x"), PutOutcome::PageFull));
        }
        assert!(matches!(
            put(&mut p, 10_000, b"overflow"),
            PutOutcome::PageFull
        ));
        assert_eq!(record_count(&p), SLOTS_PER_PAGE);
        // Updating an existing key still works when full.
        assert!(matches!(put(&mut p, 1, b"new"), PutOutcome::Updated(_)));
    }

    #[test]
    fn delete_frees_the_slot() {
        let mut p = page();
        put(&mut p, 5, b"to delete");
        assert!(delete(&mut p, 5).is_some());
        assert!(delete(&mut p, 5).is_none());
        assert_eq!(get(&p, 5), None);
        assert_eq!(record_count(&p), 0);
        // The freed slot is reusable.
        put(&mut p, 6, b"reuse");
        assert_eq!(get(&p, 6).unwrap(), b"reuse");
    }

    #[test]
    fn slot_write_describes_redo_image() {
        let mut p = page();
        let PutOutcome::Inserted(w) = put(&mut p, 9, b"redo me") else {
            panic!("expected insert");
        };
        // Applying the same bytes at the same offset to a fresh page
        // reproduces the record — exactly what redo does.
        let mut replay = page();
        replay.write_body(w.offset, &w.bytes);
        assert_eq!(get(&replay, 9).unwrap(), b"redo me");
    }

    #[test]
    fn max_value_capacity_fits() {
        let mut p = page();
        let big = vec![0xAB; VALUE_CAPACITY];
        put(&mut p, 1, &big);
        assert_eq!(get(&p, 1).unwrap(), big);
    }

    #[test]
    #[should_panic(expected = "slot capacity")]
    fn oversized_value_panics_at_this_layer() {
        let mut p = page();
        let too_big = vec![0u8; VALUE_CAPACITY + 1];
        put(&mut p, 1, &too_big);
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
                            match put(&mut p, key, &value) {
                                PutOutcome::PageFull => {
                                    prop_assert!(model.len() >= SLOTS_PER_PAGE);
                                }
                                _ => {
                                    model.insert(key, value);
                                }
                            }
                        }
                        1 => {
                            let removed = delete(&mut p, key).is_some();
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
    }
}
