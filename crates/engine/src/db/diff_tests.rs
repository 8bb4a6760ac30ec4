//! Update records carry the byte range that changed, not the slot: what that
//! must not change (a log of whole-slot records still replays; abort,
//! crash-mid-abort and restart undo restore pages byte for byte) and what it
//! does change (record sizes, pinned as numbers).

use super::*;
use crate::table::{SLOTS_PER_PAGE, SLOT_SIZE};
use face_pagestore::{FaultPlan, PAGE_BODY_SIZE};

const BUCKETS: u32 = 64;

fn small_db() -> Database {
    Database::open(
        EngineConfig::in_memory()
            .buffer_frames(8)
            .table_buckets(BUCKETS)
            .flash_cache(CachePolicyKind::FaceGsc, 128),
    )
    .unwrap()
}

/// The body of every table page, read through the buffer pool.
fn bodies(db: &Database) -> Vec<Vec<u8>> {
    (0..BUCKETS)
        .map(|b| {
            db.pool
                .read(PageId::new(TABLE_FILE, b), |p| p.body().to_vec())
                .unwrap()
        })
        .collect()
}

/// The table pages as the engine before diff logging wrote and logged them:
/// whole 128-byte slot images — used flag, key, length, value, zero padding
/// — at slot offsets. A second implementation of the slot layout, so the
/// expected page bytes below do not come from the code under test.
#[derive(Clone, PartialEq, Debug)]
struct SlotModel {
    pages: Vec<Vec<u8>>,
}

/// One whole-slot write: body offset, the slot before, the slot after.
struct SlotWrite {
    offset: u32,
    before: Vec<u8>,
    after: Vec<u8>,
}

impl SlotModel {
    fn new() -> Self {
        Self {
            pages: vec![vec![0u8; PAGE_BODY_SIZE]; BUCKETS as usize],
        }
    }

    fn slot_key(&self, bucket: usize, slot: usize) -> Option<u64> {
        let raw = &self.pages[bucket][slot * SLOT_SIZE..][..SLOT_SIZE];
        (raw[0] == 1).then(|| u64::from_le_bytes(raw[1..9].try_into().unwrap()))
    }

    fn write(&mut self, bucket: usize, slot: usize, after: Vec<u8>) -> SlotWrite {
        let at = slot * SLOT_SIZE;
        let before = self.pages[bucket][at..at + SLOT_SIZE].to_vec();
        self.pages[bucket][at..at + SLOT_SIZE].copy_from_slice(&after);
        SlotWrite {
            offset: at as u32,
            before,
            after,
        }
    }

    fn put(&mut self, bucket: usize, key: u64, value: &[u8]) -> SlotWrite {
        let slot = (0..SLOTS_PER_PAGE)
            .find(|&s| self.slot_key(bucket, s) == Some(key))
            .or_else(|| (0..SLOTS_PER_PAGE).find(|&s| self.slot_key(bucket, s).is_none()))
            .expect("the scenarios never fill a page");
        let mut after = vec![0u8; SLOT_SIZE];
        after[0] = 1;
        after[1..9].copy_from_slice(&key.to_le_bytes());
        after[9..11].copy_from_slice(&(value.len() as u16).to_le_bytes());
        after[11..11 + value.len()].copy_from_slice(value);
        self.write(bucket, slot, after)
    }

    fn delete(&mut self, bucket: usize, key: u64) -> SlotWrite {
        let slot = (0..SLOTS_PER_PAGE)
            .find(|&s| self.slot_key(bucket, s) == Some(key))
            .expect("the scenarios delete live keys only");
        self.write(bucket, slot, vec![0u8; SLOT_SIZE])
    }

    fn restore(&mut self, bucket: usize, w: &SlotWrite) {
        let at = w.offset as usize;
        self.pages[bucket][at..at + SLOT_SIZE].copy_from_slice(&w.before);
    }
}

/// Appends the whole-slot records the parent commit's `put`/`delete` wrote,
/// straight to the log, keeping each transaction's `prev_lsn` chain — and
/// never touching a page: the database sees these writes only as a log to
/// recover from.
struct WholeSlotLog<'a> {
    db: &'a Database,
    model: SlotModel,
    /// Per transaction: its writes so far, oldest first, with their LSNs.
    chains: HashMap<u64, Vec<(usize, SlotWrite, Lsn)>>,
}

impl WholeSlotLog<'_> {
    fn begin(&mut self, txn: u64) -> TxnId {
        self.db.wal.append(&LogRecord::Begin { txn: TxnId(txn) });
        self.chains.insert(txn, Vec::new());
        TxnId(txn)
    }

    fn log(&mut self, txn: TxnId, bucket: usize, write: SlotWrite) {
        let chain = self.chains.get_mut(&txn.0).unwrap();
        let lsn = self.db.wal.append(&LogRecord::Update {
            txn,
            page: PageId::new(TABLE_FILE, bucket as u32),
            offset: write.offset,
            data: write.after.clone(),
            before: write.before.clone(),
            prev_lsn: chain.last().map_or(Lsn::ZERO, |(_, _, lsn)| *lsn),
        });
        chain.push((bucket, write, lsn));
    }

    fn put(&mut self, txn: TxnId, key: u64, value: &[u8]) {
        let bucket = self.db.bucket_of(key).page_no as usize;
        let write = self.model.put(bucket, key, value);
        self.log(txn, bucket, write);
    }

    fn delete(&mut self, txn: TxnId, key: u64) {
        let bucket = self.db.bucket_of(key).page_no as usize;
        let write = self.model.delete(bucket, key);
        self.log(txn, bucket, write);
    }

    fn commit(&mut self, txn: TxnId) {
        self.db.wal.append(&LogRecord::Commit { txn });
        self.chains.remove(&txn.0);
    }

    /// Roll the transaction back in the model; with `clrs`, also log the
    /// `Abort` and the first `clrs` whole-slot compensation records of the
    /// rollback (a complete one ends its chain at LSN 0).
    fn roll_back(&mut self, txn: TxnId, clrs: Option<usize>) {
        let chain = self.chains.remove(&txn.0).unwrap();
        if clrs.is_some() {
            self.db.wal.append(&LogRecord::Abort { txn });
        }
        for (undone, (i, (bucket, write, _))) in chain.iter().enumerate().rev().enumerate() {
            self.model.restore(*bucket, write);
            if clrs.is_some_and(|n| undone < n) {
                self.db.wal.append(&LogRecord::Clr {
                    txn,
                    page: PageId::new(TABLE_FILE, *bucket as u32),
                    offset: write.offset,
                    data: write.before.clone(),
                    undo_next_lsn: if i == 0 { Lsn::ZERO } else { chain[i - 1].2 },
                });
            }
        }
    }
}

/// Format compatibility, as behaviour: a log of the parent commit's records
/// — every update a whole slot at a slot offset, committed, aborted with a
/// complete and with a half-written CLR chain, and in flight at the crash —
/// restarts to exactly the pages the parent's recovery produced, and the
/// engine then keeps working on top of it with trimmed records.
#[test]
fn a_log_of_whole_slot_records_restarts_to_the_same_pages() {
    let db = small_db();
    let mut log = WholeSlotLog {
        db: &db,
        model: SlotModel::new(),
        chains: HashMap::new(),
    };
    // Ids above anything `db.begin()` hands out before the restart.
    let t1 = log.begin(101);
    for k in 0..40u64 {
        log.put(t1, k, format!("first-{k}").as_bytes());
    }
    for k in (0..40u64).step_by(3) {
        log.put(t1, k, format!("second, longer, value of {k}").as_bytes());
    }
    log.commit(t1);
    let t2 = log.begin(102);
    for k in (0..40u64).step_by(5) {
        log.delete(t2, k);
    }
    log.put(t2, 5, &[0xC3; VALUE_CAPACITY]);
    log.put(t2, 41, b"");
    log.commit(t2);
    // Aborted, rollback fully logged.
    let t3 = log.begin(103);
    log.put(t3, 1, b"aborted overwrite");
    log.put(t3, 50, b"aborted insert");
    log.delete(t3, 2);
    log.roll_back(t3, Some(usize::MAX));
    // Aborted, the process died two CLRs into the rollback.
    let t4 = log.begin(104);
    for k in [3u64, 4, 51, 52] {
        log.put(t4, k, b"half rolled back");
    }
    log.roll_back(t4, Some(2));
    // In flight at the crash.
    let t5 = log.begin(105);
    log.put(t5, 6, b"loser overwrite");
    log.delete(t5, 7);
    log.put(t5, 60, &[0x77; VALUE_CAPACITY]);
    log.roll_back(t5, None);
    let expected = log.model;

    db.wal.force_all().unwrap();
    db.crash();
    let report = db.restart().unwrap();
    assert_eq!(report.undo.losers_found, 2);
    assert_eq!(report.undo.updates_undone, 2 + 3);
    assert_eq!(bodies(&db), expected.pages);
    assert_eq!(db.get(3).unwrap().unwrap(), b"second, longer, value of 3");
    assert_eq!(db.get(5).unwrap().unwrap(), [0xC3; VALUE_CAPACITY]);
    assert_eq!(db.get(10).unwrap(), None);
    assert_eq!(db.get(60).unwrap(), None);

    // The same database carries on, now logging trimmed records over pages
    // and a log written the old way.
    let mut model = expected;
    let txn = db.begin();
    assert!(txn.0 > 105, "restart fenced the hand-written ids");
    for k in 0..10u64 {
        let value = format!("after restart {k}");
        db.put(txn, k, value.as_bytes()).unwrap();
        model.put(db.bucket_of(k).page_no as usize, k, value.as_bytes());
    }
    db.commit(txn).unwrap();
    let loser = db.begin();
    db.put(loser, 1, b"never committed").unwrap();
    db.delete(loser, 8).unwrap();
    db.checkpoint().unwrap();
    db.crash();
    db.restart().unwrap();
    assert_eq!(bodies(&db), model.pages);
}

/// A TPC-C-shaped 16-byte value: the key, then a little-endian counter.
fn counter_value(key: u64, counter: u64) -> [u8; 16] {
    let mut v = [0u8; 16];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..].copy_from_slice(&counter.to_le_bytes());
    v
}

const KEYS: u64 = 24;

/// Commit `KEYS` counter values.
fn commit_base(db: &Database) {
    let setup = db.begin();
    for k in 0..KEYS {
        db.put(setup, k, &counter_value(k, 0x0100)).unwrap();
    }
    db.commit(setup).unwrap();
}

/// Over the committed base, leave a transaction open whose writes cover
/// every width of diff: by key, a changed last byte, an unchanged value, a
/// changed first byte, a delete then a full-length re-insert into an emptied
/// slot, a changed byte plus a full-length insert of a new key, and a plain
/// delete; then a second write to every key of the first three kinds, so
/// chains revisit pages. Returns the open transaction.
fn doomed_writes(db: &Database) -> TxnId {
    let txn = db.begin();
    for k in 0..KEYS {
        let mut v = counter_value(k, 0x0100);
        match k % 6 {
            0 => v[15] = 0xEE,
            1 => {}
            2 => v[0] ^= 0xFF,
            3 => {
                assert!(db.delete(txn, k).unwrap());
                db.put(txn, k, &[k as u8 | 0x80; VALUE_CAPACITY]).unwrap();
                continue;
            }
            4 => {
                v[8] = 0x01;
                db.put(txn, 1_000 + k, &[k as u8 | 0x40; VALUE_CAPACITY])
                    .unwrap();
            }
            _ => {
                assert!(db.delete(txn, k).unwrap());
                continue;
            }
        }
        db.put(txn, k, &v).unwrap();
    }
    for k in (0..KEYS).filter(|k| k % 6 < 3) {
        db.put(txn, k, &counter_value(k, 0x0101)).unwrap();
    }
    txn
}

/// How many of `txn`'s update records carry images of each length.
fn image_lengths(db: &Database, txn: TxnId) -> HashMap<usize, usize> {
    let mut lengths = HashMap::new();
    let mut reader = LogReader::new(Arc::clone(&db.log_storage));
    for rec in reader.read_to_end().unwrap() {
        if let LogRecord::Update {
            txn: t,
            data,
            before,
            ..
        } = rec.record
        {
            assert_eq!(data.len(), before.len());
            if t == txn {
                *lengths.entry(data.len()).or_insert(0) += 1;
            }
        }
    }
    lengths
}

#[test]
fn runtime_abort_of_every_diff_width_restores_pages_byte_for_byte() {
    let db = small_db();
    commit_base(&db);
    let before = bodies(&db);
    let txn = doomed_writes(&db);
    assert_ne!(bodies(&db), before);
    db.abort(txn).unwrap();
    assert_eq!(bodies(&db), before);

    // The scenario logged what it says it does. Four keys of each kind: no
    // image bytes for the unchanged values; one byte for the three
    // single-byte changes and for the second write to an unchanged value; 8
    // and 9 where the second write reverts a last or first byte and moves
    // the counter; 21 for a delete (flag to the value's last non-zero
    // byte); the whole slot for a full-length insert.
    let lengths = image_lengths(&db, txn);
    let expected = [(0, 4), (1, 16), (8, 4), (9, 4), (21, 8), (SLOT_SIZE, 8)];
    assert_eq!(lengths, HashMap::from(expected));

    // The compensation is durable and replays to the same bytes, with the
    // flash cache and without it.
    db.crash();
    let report = db.restart().unwrap();
    assert_eq!(report.undo.losers_found, 0);
    assert_eq!(bodies(&db), before);
    db.crash();
    db.restart_cold().unwrap();
    assert_eq!(bodies(&db), before);
}

#[test]
fn restart_undo_of_every_diff_width_restores_pages_from_any_crash_point() {
    // Whether the loser's pages were persisted (checkpoint) or only its
    // records (a log force), and wherever recovery itself dies.
    for checkpoint in [false, true] {
        let mut budget = 0u64;
        loop {
            let db = small_db();
            commit_base(&db);
            let before = bodies(&db);
            doomed_writes(&db);
            if checkpoint {
                db.checkpoint().unwrap();
            } else {
                db.wal.force_all().unwrap();
            }
            db.crash();
            db.arm_restart_crash(budget);
            let mut crashed_in_recovery = false;
            loop {
                match db.restart() {
                    Ok(_) => break,
                    Err(EngineError::Crashed) => crashed_in_recovery = true,
                    Err(other) => panic!("recovery error: {other}"),
                }
            }
            assert_eq!(
                bodies(&db),
                before,
                "checkpoint {checkpoint}, budget {budget}"
            );
            // A fixpoint: nothing left to undo, nothing moves.
            db.crash();
            assert_eq!(db.restart().unwrap().undo.updates_undone, 0);
            assert_eq!(bodies(&db), before);
            if !crashed_in_recovery {
                // The budget outlasted recovery: every crash point is done.
                assert!(budget > 0);
                break;
            }
            budget += 1;
        }
    }
}

#[test]
fn a_rollback_cut_short_is_finished_by_restart_byte_for_byte() {
    // Dormant until armed: then the next disk read fails, once.
    let plan = Arc::new(
        FaultPlan::new(3)
            .armed_on_crash()
            .reads_only()
            .permanent()
            .probability(1.0)
            .max_faults(1),
    );
    let db = Database::open(
        EngineConfig::in_memory()
            .buffer_frames(4)
            .buffer_shards(1)
            .table_buckets(BUCKETS)
            .no_flash_cache()
            .disk_faults(Arc::clone(&plan)),
    )
    .unwrap();
    commit_base(&db);
    let before = bodies(&db);
    let txn = doomed_writes(&db);
    // The rollback walks the transaction's pages newest first. The newest is
    // read last before the fault is armed, so under any replacement policy
    // it is resident and its compensation succeeds; the transaction touched
    // more pages than there are frames, so a later compensation has to read
    // a page back in, and that read fails.
    let pages: Vec<PageId> = LogReader::new(Arc::clone(&db.log_storage))
        .read_to_end()
        .unwrap()
        .into_iter()
        .filter_map(|r| match r.record {
            LogRecord::Update { txn: t, page, .. } if t == txn => Some(page),
            _ => None,
        })
        .collect();
    assert!(
        pages.iter().collect::<HashSet<_>>().len() > 4,
        "fewer pages than frames"
    );
    db.pool.read(*pages.last().unwrap(), |_| ()).unwrap();
    plan.arm();
    assert!(db.abort(txn).is_err(), "the rollback should hit the fault");
    assert_eq!(plan.faults_injected(), 1);
    let compensated = LogReader::new(Arc::clone(&db.log_storage))
        .read_to_end()
        .unwrap()
        .iter()
        .filter(|r| matches!(r.record, LogRecord::Clr { .. }))
        .count();
    assert!(
        compensated > 0 && compensated < 44,
        "the rollback should stop part-way, got {compensated} CLRs"
    );
    db.crash();
    let report = db.restart().unwrap();
    assert_eq!(report.undo.losers_found, 1);
    assert_eq!(report.undo.updates_undone, 44 - compensated as u64);
    assert_eq!(bodies(&db), before);
}

/// Framed bytes one operation appended to the log.
fn logged_bytes(db: &Database, op: impl FnOnce()) -> u64 {
    let start = db.wal.next_lsn();
    op();
    db.wal.next_lsn().0 - start.0
}

/// Record sizes as numbers. A framed update is a 5-byte header (a one-byte
/// payload length and the CRC; 6 bytes once the payload reaches 128), then
/// the tag and seven varints — txn, file, page, offset, the two image
/// lengths, `prev_lsn` — of one byte each below 128 and two below 16,384,
/// then the two images. Here txn 1 writes page 19 (key 7) and page 40
/// (key 8) of file 1 at offsets 0, 11 and 19, and every update chains to the
/// one before it, so `prev_lsn` is 0 for the first record, takes one byte
/// up to LSN 127 and two after. With one-byte lengths and `prev_lsn` a
/// record is 13 bytes plus its images. Before diff logging the images were
/// always the 128-byte slot, 301 bytes per record in the fixed-width
/// encoding.
#[test]
fn update_records_are_as_large_as_the_change() {
    const PARENT: u64 = 301;
    let db = small_db();
    let txn = db.begin();
    let put = |key: u64, value: &[u8]| logged_bytes(&db, || db.put(txn, key, value).unwrap());

    // A first insert logs the slot from its flag to the value's last
    // non-zero byte (flag, key, length, 9 value bytes), both ways.
    // (The Begin before it is 7 bytes, so this record sits at LSN 7.)
    assert_eq!(put(7, &counter_value(7, 41)), 13 + 2 * 20);
    // Overwriting a 16-byte value whose counter moved: one byte each way...
    assert_eq!(put(7, &counter_value(7, 42)), 15);
    // ...two when a carry crosses a byte, three for a far-off counter.
    assert_eq!(put(7, &counter_value(7, 0x0100)), 17);
    assert_eq!(put(7, &counter_value(7, 0x02_0001)), 19);
    // The same value again: one record, no image bytes.
    assert_eq!(put(7, &counter_value(7, 0x02_0001)), 13);
    // The worst 16-byte overwrite — every value byte differs — still leaves
    // out the prefix and the padding (prev_lsn 111 is still one byte).
    let inverted = counter_value(7, 0x02_0001).map(|b| !b);
    assert_eq!(put(7, &inverted), 13 + 2 * 16);

    // Full-length values of high-entropy bytes: an insert into an empty slot
    // is the whole slot, never more than the 301-byte whole-slot record; an overwrite
    // saves the unchanged 11-byte prefix, twice.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut random = || {
        let mut v = [0u8; VALUE_CAPACITY];
        for b in &mut v {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            *b = (state >> 56) as u8 | 1;
        }
        v
    };
    // Payload 5 + 2 × (2-byte length + 128) + 1 (prev_lsn 124) = 266, so a
    // 6-byte header: 272.
    let insert = put(8, &random());
    assert_eq!(insert, 6 + 266);
    assert!(insert <= PARENT);
    // Payload 5 + 2 × (1 + 117) + 2 (prev_lsn 169) = 243; framed 249.
    assert_eq!(put(8, &random()), 6 + 243);
    // Payload 5 + 2 × (2 + 128) + 2 (prev_lsn 441) = 267; framed 273.
    let delete = logged_bytes(&db, || assert!(db.delete(txn, 8).unwrap()));
    assert_eq!(delete, 6 + 267);
    assert!(delete <= PARENT);
    // Payload 5 + 2 × (1 + 27) + 2 (prev_lsn 690) = 63; framed 68.
    assert_eq!(
        logged_bytes(&db, || assert!(db.delete(txn, 7).unwrap())),
        5 + 63
    );
    db.commit(txn).unwrap();
}
