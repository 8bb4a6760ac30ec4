//! Sequential log scanning for recovery.

use std::sync::Arc;

use face_pagestore::Lsn;

use crate::codec::{FrameHeader, MAX_FRAME_HEADER_SIZE};
use crate::record::LogRecord;
use crate::storage::{LogStorage, WalError, WalResult};
use face_pagestore::crc32;

/// Bytes a sequential scan asks the storage for at a time.
const SCAN_CHUNK: usize = 64 * 1024;
/// Bytes a single-record read asks for first: the engine's usual update —
/// a 5-byte frame header, a dozen bytes of varint fields and two images of
/// the byte range that changed, a handful of bytes each — fits with room to
/// spare. A record that does not (an insert into an empty slot logs the
/// whole 128-byte slot both ways, about 272 bytes framed) costs one more
/// read of exactly its frame.
const POINT_CHUNK: usize = 128;
const _: () = assert!(POINT_CHUNK >= MAX_FRAME_HEADER_SIZE);

/// Reads records back from a [`LogStorage`], starting at any LSN that is a
/// record boundary.
///
/// The reader fetches the log in chunks and decodes frames out of its
/// buffer, so a scan touches the storage once per chunk rather than three
/// times per record. It stops cleanly at the end of the log. A torn tail (a
/// frame whose header or payload is incomplete, as happens when a crash
/// interrupts a log write) terminates the scan as "end of log", exactly as a
/// real recovery would treat it; a CRC mismatch in the *middle* of the log is
/// reported as corruption. Reaching the end is not sticky: a later call sees
/// records appended since.
pub struct LogReader {
    storage: Arc<dyn LogStorage>,
    pos: u64,
    /// Log bytes starting at offset `buf_start`; `pos` always lies within.
    buf: Vec<u8>,
    buf_start: u64,
    chunk: usize,
}

/// A record together with its LSN and the LSN of the following record.
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedRecord {
    /// This record's LSN.
    pub lsn: Lsn,
    /// The LSN one past this record (start of the next record).
    pub next_lsn: Lsn,
    /// The decoded record.
    pub record: LogRecord,
}

impl LogReader {
    /// Start reading at the beginning of the log.
    pub fn new(storage: Arc<dyn LogStorage>) -> Self {
        Self::from_lsn(storage, Lsn::ZERO)
    }

    /// Start reading at `lsn` (must be a record boundary).
    pub fn from_lsn(storage: Arc<dyn LogStorage>, lsn: Lsn) -> Self {
        Self {
            storage,
            pos: lsn.0,
            buf: Vec::new(),
            buf_start: lsn.0,
            chunk: SCAN_CHUNK,
        }
    }

    /// Read the one record at `lsn` (`Ok(None)` at or beyond the end of the
    /// log), fetching no more of the log than a record usually needs —
    /// rollback follows a transaction's chain backwards one record at a time.
    pub fn record_at(storage: Arc<dyn LogStorage>, lsn: Lsn) -> WalResult<Option<LoggedRecord>> {
        let mut reader = Self::from_lsn(storage, lsn);
        reader.chunk = POINT_CHUNK;
        reader.next_record()
    }

    /// The LSN the next call to [`LogReader::next_record`] will read.
    pub fn position(&self) -> Lsn {
        Lsn(self.pos)
    }

    /// The header of the frame at `pos`, if the buffer holds all of the frame.
    fn buffered_frame(&self) -> Option<FrameHeader> {
        let window = &self.buf[(self.pos - self.buf_start) as usize..];
        let frame = FrameHeader::decode(window).ok()?;
        (window.len() >= frame.frame_len()).then_some(frame)
    }

    /// Replace the buffer with `want` bytes of the log starting at `pos`
    /// (fewer if the storage has fewer).
    fn fill(&mut self, want: usize) -> WalResult<()> {
        self.buf.resize(want, 0);
        let n = self.storage.read_at(self.pos, &mut self.buf)?;
        self.buf.truncate(n);
        self.buf_start = self.pos;
        Ok(())
    }

    /// Fetch the frame at `pos` from storage and return its header.
    /// `Ok(None)` when the log ends before the frame does: the clean end, or
    /// a torn tail.
    fn fetch_frame(&mut self) -> WalResult<Option<FrameHeader>> {
        // The frame length comes from the log itself; the log's own length
        // bounds what is read (and allocated) for it.
        let available = self.storage.len()?.saturating_sub(self.pos);
        if available == 0 {
            self.buf.clear();
            self.buf_start = self.pos;
            return Ok(None);
        }
        self.fill(available.min(self.chunk as u64) as usize)?;
        // A chunk holds the longest header, so a header the buffer cuts
        // short is torn by the end of the log; one that does not parse claims
        // an absurd length. Either ends the log, as does a frame longer than
        // what is left of it.
        let Ok(frame) = FrameHeader::decode(&self.buf) else {
            return Ok(None);
        };
        if frame.frame_len() as u64 > available {
            return Ok(None);
        }
        if frame.frame_len() > self.buf.len() {
            self.fill(frame.frame_len())?;
        }
        Ok((self.buf.len() >= frame.frame_len()).then_some(frame))
    }

    /// Read the next record, or `Ok(None)` at end of log (including a torn
    /// tail).
    pub fn next_record(&mut self) -> WalResult<Option<LoggedRecord>> {
        let frame = match self.buffered_frame() {
            Some(frame) => frame,
            None => match self.fetch_frame()? {
                Some(frame) => frame,
                None => return Ok(None),
            },
        };
        let at = (self.pos - self.buf_start) as usize + frame.header_len;
        let payload = &self.buf[at..at + frame.payload_len];
        if crc32(payload) != frame.crc {
            return Err(WalError::Corrupt {
                at: self.pos,
                reason: "CRC mismatch".to_string(),
            });
        }
        let record = LogRecord::decode(payload).map_err(|e| WalError::Corrupt {
            at: self.pos,
            reason: e.to_string(),
        })?;
        let lsn = Lsn(self.pos);
        self.pos += frame.frame_len() as u64;
        Ok(Some(LoggedRecord {
            lsn,
            next_lsn: Lsn(self.pos),
            record,
        }))
    }

    /// Collect every remaining record into a vector.
    pub fn read_to_end(&mut self) -> WalResult<Vec<LoggedRecord>> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{LogRecord, TxnId};
    use crate::storage::InMemoryLogStorage;
    use crate::writer::WalWriter;
    use face_pagestore::PageId;

    fn setup() -> (Arc<dyn LogStorage>, Vec<Lsn>) {
        let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
        let w = WalWriter::new(Arc::clone(&storage)).unwrap();
        let lsns = vec![
            w.append(&LogRecord::Begin { txn: TxnId(1) }),
            w.append(&LogRecord::Update {
                txn: TxnId(1),
                page: PageId::new(0, 3),
                offset: 10,
                data: vec![9; 20],
                before: vec![0; 20],
                prev_lsn: Lsn::ZERO,
            }),
            w.append(&LogRecord::Commit { txn: TxnId(1) }),
        ];
        w.force_all().unwrap();
        (storage, lsns)
    }

    #[test]
    fn reads_back_in_order_with_lsns() {
        let (storage, lsns) = setup();
        let mut r = LogReader::new(storage);
        let recs = r.read_to_end().unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].lsn, lsns[0]);
        assert_eq!(recs[1].lsn, lsns[1]);
        assert_eq!(recs[2].lsn, lsns[2]);
        assert_eq!(recs[0].next_lsn, recs[1].lsn);
        assert!(matches!(recs[2].record, LogRecord::Commit { .. }));
        // Reader is exhausted.
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn starts_from_arbitrary_lsn() {
        let (storage, lsns) = setup();
        let mut r = LogReader::from_lsn(storage, lsns[1]);
        assert_eq!(r.position(), lsns[1]);
        let recs = r.read_to_end().unwrap();
        assert_eq!(recs.len(), 2);
        assert!(matches!(recs[0].record, LogRecord::Update { .. }));
    }

    #[test]
    fn empty_log_yields_nothing() {
        let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
        let mut r = LogReader::new(storage);
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn torn_tail_is_end_of_log() {
        let (storage, lsns) = setup();
        // Chop the last record in half.
        let cut = lsns[2].0 + 3;
        storage.truncate(cut).unwrap();
        let mut r = LogReader::new(storage);
        let recs = r.read_to_end().unwrap();
        assert_eq!(recs.len(), 2);
    }

    fn big_update(i: u64, len: usize) -> LogRecord {
        LogRecord::Update {
            txn: TxnId(i),
            page: PageId::new(0, i as u32),
            offset: 0,
            data: vec![i as u8; len],
            before: vec![!(i as u8); len],
            prev_lsn: Lsn(i),
        }
    }

    #[test]
    fn frames_straddling_chunk_boundaries_read_back_whole() {
        let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
        let w = WalWriter::new(Arc::clone(&storage)).unwrap();
        // ~600 KiB of ordinary records, with one frame larger than a whole
        // chunk in the middle: plenty of frames end up split across fetches.
        let mut written = Vec::new();
        for i in 0..2_000u64 {
            let len = if i == 1_000 { 3 * SCAN_CHUNK } else { 128 };
            let rec = big_update(i, len);
            written.push((w.append(&rec), rec));
        }
        w.force_all().unwrap();
        assert!(storage.len().unwrap() > 8 * SCAN_CHUNK as u64);

        let mut r = LogReader::new(Arc::clone(&storage));
        let recs = r.read_to_end().unwrap();
        assert_eq!(recs.len(), written.len());
        for (got, (lsn, rec)) in recs.iter().zip(&written) {
            assert_eq!(got.lsn, *lsn);
            assert_eq!(&got.record, rec);
        }
        assert_eq!(r.position(), w.next_lsn());

        // Point reads fetch one frame, whatever its size.
        for i in [0usize, 999, 1_000, 1_001, 1_999] {
            let (lsn, rec) = &written[i];
            let got = LogReader::record_at(Arc::clone(&storage), *lsn)
                .unwrap()
                .unwrap();
            assert_eq!(&got.record, rec);
        }
        assert!(LogReader::record_at(storage, w.next_lsn())
            .unwrap()
            .is_none());
    }

    /// Point reads of updates with zero-length images, of ones that end one
    /// byte inside and one byte outside the first fetch, and of a full-slot
    /// one: each comes back whole, wherever it sits among the others.
    #[test]
    fn point_reads_cover_empty_images_and_both_sides_of_the_first_fetch() {
        let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
        let w = WalWriter::new(Arc::clone(&storage)).unwrap();
        // A framed update with images shorter than 60 bytes is 13 bytes plus
        // its two images: a 5-byte header (a one-byte length, the CRC) and 8
        // payload bytes (the tag, then txn, file, page, offset, two image
        // lengths and prev_lsn as one-byte varints). So `fits` ends one byte
        // inside the first fetch (13 + 2 × 57 = 127), `fits + 1` one byte
        // outside it (129).
        let fits = (POINT_CHUNK - 13) / 2;
        let mut written = Vec::new();
        for (i, len) in [0, 1, fits, fits + 1, 128, 0, fits + 1, 0]
            .into_iter()
            .enumerate()
        {
            let rec = big_update(i as u64 + 1, len);
            written.push((w.append(&rec), rec));
        }
        w.force_all().unwrap();
        assert_eq!(written[1].0 .0 - written[0].0 .0, 13);
        assert_eq!(
            written[4].0 .0 - written[3].0 .0,
            13 + 2 * (fits as u64 + 1)
        );
        for (lsn, rec) in &written {
            let got = LogReader::record_at(Arc::clone(&storage), *lsn)
                .unwrap()
                .unwrap();
            assert_eq!(&got.record, rec);
        }
        let mut r = LogReader::new(storage);
        assert_eq!(r.read_to_end().unwrap().len(), written.len());
    }

    #[test]
    fn the_end_of_the_log_is_not_sticky() {
        let (storage, _) = setup();
        let mut r = LogReader::new(Arc::clone(&storage));
        assert_eq!(r.read_to_end().unwrap().len(), 3);
        assert!(r.next_record().unwrap().is_none());
        let w = WalWriter::new(Arc::clone(&storage)).unwrap();
        let lsn = w.append(&LogRecord::Begin { txn: TxnId(2) });
        w.force_all().unwrap();
        let rec = r.next_record().unwrap().expect("the appended record");
        assert_eq!(rec.lsn, lsn);
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn a_torn_length_field_cannot_make_the_reader_allocate_the_claim() {
        // The last frame's header is all 0xFF bytes — a length varint that
        // runs on into the tail and claims exabytes — or a well-formed one
        // claiming 4 GiB of payload.
        let mut claims_4_gib = vec![0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        claims_4_gib.extend_from_slice(&[0xFF; 4]);
        for mut header in [vec![0xFFu8; MAX_FRAME_HEADER_SIZE], claims_4_gib] {
            let (storage, lsns) = setup();
            storage.truncate(lsns[2].0).unwrap();
            header.extend_from_slice(b"tail");
            storage.append(&header).unwrap();
            let mut r = LogReader::new(storage);
            assert_eq!(r.read_to_end().unwrap().len(), 2);
            assert!(r.buf.capacity() <= SCAN_CHUNK);
        }
    }

    /// A frame whose length varint the end of the log cuts in two is a torn
    /// tail, for a two- and a three-byte length alike; the record before it
    /// still reads.
    #[test]
    fn a_varint_length_torn_at_the_tail_is_a_clean_end_of_log() {
        for image in [100, 10_000] {
            let (storage, lsns) = setup();
            let w = WalWriter::new(Arc::clone(&storage)).unwrap();
            let lsn = w.append(&big_update(2, image));
            w.force_all().unwrap();
            let mut first = [0u8; 1];
            storage.read_at(lsn.0, &mut first).unwrap();
            assert!(first[0] >= 0x80, "the length takes more than one byte");
            for cut in [2, 1] {
                storage.truncate(lsn.0 + cut).unwrap();
                let mut r = LogReader::new(Arc::clone(&storage));
                let recs = r.read_to_end().unwrap();
                assert_eq!(recs.len(), 3);
                assert_eq!(recs[2].lsn, lsns[2]);
                assert_eq!(r.position(), lsn);
                assert!(LogReader::record_at(Arc::clone(&storage), lsn)
                    .unwrap()
                    .is_none());
            }
        }
    }

    /// An update whose payload is exactly `payload` bytes: its after-image
    /// is sized to fill it, its before-image is empty.
    fn update_with_payload(txn: u64, payload: usize) -> LogRecord {
        // Tag, txn, file, page, offset, the empty image's length and
        // prev_lsn (one byte each), then the after-image behind its length.
        let varint_len = |v: usize| (usize::BITS - (v | 1).leading_zeros()).div_ceil(7) as usize;
        let image = (1..=3)
            .map(|width| payload - 7 - width)
            .find(|&len| 7 + varint_len(len) + len == payload)
            .unwrap();
        let rec = LogRecord::Update {
            txn: TxnId(txn),
            page: PageId::new(1, txn as u32),
            offset: 64,
            data: vec![txn as u8; image],
            before: vec![],
            prev_lsn: Lsn(txn),
        };
        assert_eq!(rec.encode().len(), payload);
        rec
    }

    /// Frames with payloads of 127, 128, 16,383 and 16,384 bytes — one-,
    /// two-, two- and three-byte lengths — among small records: a point read
    /// at every LSN returns that record, and the LSNs step by the frames'
    /// sizes.
    #[test]
    fn record_at_reads_every_record_across_length_widths() {
        let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
        let w = WalWriter::new(Arc::clone(&storage)).unwrap();
        let mut written = Vec::new();
        for (i, (payload, header)) in [(127, 5), (128, 6), (16_383, 6), (16_384, 7)]
            .into_iter()
            .enumerate()
        {
            let i = i as u64 + 1;
            for rec in [
                LogRecord::Begin { txn: TxnId(i) },
                update_with_payload(i, payload),
                LogRecord::Commit { txn: TxnId(i) },
            ] {
                written.push((w.append(&rec), rec));
            }
            let n = written.len();
            let (update, commit) = (written[n - 2].0, written[n - 1].0);
            assert_eq!(commit.0 - update.0, (header + payload) as u64);
        }
        w.force_all().unwrap();
        for (lsn, rec) in &written {
            let got = LogReader::record_at(Arc::clone(&storage), *lsn)
                .unwrap()
                .unwrap();
            assert_eq!((got.lsn, &got.record), (*lsn, rec));
        }
        let recs = LogReader::new(storage).read_to_end().unwrap();
        let lsns: Vec<Lsn> = recs.iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, written.iter().map(|(l, _)| *l).collect::<Vec<_>>());
    }

    /// A log written by hand in the older fixed-width format — `[u32 len]
    /// [u32 crc]` frames around fixed-width fields — is reported corrupt at LSN 0, by
    /// the reader and by restart analysis; it never decodes.
    #[test]
    fn a_log_in_the_fixed_width_format_is_corrupt_at_lsn_zero() {
        let old_frame = |payload: Vec<u8>| {
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&crc32(&payload).to_le_bytes());
            frame.extend(payload);
            frame
        };
        let begin = |tag: u8, txn: u64| {
            let mut p = vec![tag];
            p.extend_from_slice(&txn.to_le_bytes());
            p
        };
        let update = |txn: u64, image: usize| {
            let mut p = begin(2, txn);
            p.extend_from_slice(&PageId::new(1, 3).to_u64().to_le_bytes());
            p.extend_from_slice(&256u32.to_le_bytes());
            for b in [0xAA, 0x55] {
                p.extend_from_slice(&(image as u32).to_le_bytes());
                p.resize(p.len() + image, b);
            }
            p.extend_from_slice(&17u64.to_le_bytes());
            p
        };
        // First records of every length class the old format wrote: short
        // payloads, one whose low length byte has the high bit set, and a
        // full-slot one.
        for first in [
            begin(1, 1),
            begin(1, 300),
            update(1, 4),
            update(1, 60),
            update(1, 128),
        ] {
            let mut log = old_frame(first);
            log.extend(old_frame(update(1, 4)));
            log.extend(old_frame(begin(3, 1)));
            let storage = InMemoryLogStorage::new();
            storage.append(&log).unwrap();
            let storage: Arc<dyn LogStorage> = Arc::new(storage);
            let read = LogReader::new(Arc::clone(&storage)).next_record();
            assert!(
                matches!(read, Err(WalError::Corrupt { at: 0, .. })),
                "{read:?}"
            );
            let plan = crate::recovery::build_recovery_plan(storage);
            assert!(
                matches!(plan, Err(WalError::Corrupt { at: 0, .. })),
                "{:?}",
                plan.err()
            );
        }
    }

    #[test]
    fn mid_log_corruption_is_an_error() {
        let (storage, lsns) = setup();
        // Flip a byte inside the payload of the middle record. Do it by
        // rewriting the whole stream (storage has no random write; rebuild).
        let mut all = vec![0u8; storage.len().unwrap() as usize];
        storage.read_at(0, &mut all).unwrap();
        all[(lsns[2].0 - 3) as usize] ^= 0xFF;
        let corrupted = InMemoryLogStorage::new();
        corrupted.append(&all).unwrap();
        let mut r = LogReader::new(Arc::new(corrupted));
        // First record fine.
        assert!(r.next_record().unwrap().is_some());
        // Second is corrupt.
        assert!(matches!(r.next_record(), Err(WalError::Corrupt { .. })));
    }
}
