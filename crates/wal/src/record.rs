//! Log record types and their binary encoding.

use face_pagestore::{Lsn, PageId};
use serde::{Deserialize, Serialize};

use crate::codec::{ByteReader, ByteWriter, CodecError};

/// A transaction identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TxnId(pub u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "txn:{}", self.0)
    }
}

/// One row of a checkpoint's transaction table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActiveTxn {
    /// The transaction.
    pub txn: TxnId,
    /// LSN of its first record (its `Begin`): nothing the transaction logged
    /// lies below this.
    pub first_lsn: Lsn,
}

/// The state captured by a checkpoint record.
///
/// The paper's checkpoints flush dirty DRAM pages to the flash cache (when
/// FaCE is enabled) or to disk (baseline). The checkpoint record carries
/// what restart needs to start reading the log *here* instead of at LSN 0:
/// the LSN from which redo must scan, the transaction table, and the
/// transaction-id fence.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CheckpointData {
    /// Redo must start scanning from this LSN (the minimum recovery LSN of
    /// any page that was dirty and not yet flushed when the checkpoint
    /// completed; equal to the checkpoint's own LSN for a sharp checkpoint).
    pub redo_lsn: Lsn,
    /// The transaction table: every transaction that may still need undo.
    /// The table is **conservative** — a transaction is listed from its
    /// `Begin` until its `Commit` is appended or its rollback is durable —
    /// so a transaction missing from it has no undo work below
    /// [`CheckpointData::redo_lsn`].
    pub active_txns: Vec<ActiveTxn>,
    /// The transaction-id fence: every id below this may already be in the
    /// log, including ids whose records all lie below the scan start.
    pub next_txn: TxnId,
}

impl CheckpointData {
    /// Where restart analysis anchored at this checkpoint starts reading:
    /// the earlier of the redo LSN and the oldest listed transaction's first
    /// record. Every record redo or undo can need lies at or above it.
    pub fn scan_start(&self) -> Lsn {
        self.active_txns
            .iter()
            .map(|t| t.first_lsn)
            .fold(self.redo_lsn, Lsn::min)
    }
}

/// A single write-ahead log record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LogRecord {
    /// A transaction started.
    Begin {
        /// The transaction.
        txn: TxnId,
    },
    /// A physiological update carrying both images: `data` is the
    /// after-image of the bytes at `offset` within the body of page `page`
    /// (applied by redo), `before` the before-image (applied by undo when
    /// the transaction turns out to be a loser). `data`/`before` are images
    /// of the changed byte range, possibly empty: the engine logs the
    /// smallest range outside which the two page versions agree, and an
    /// update that changed no byte still logs one record (with two
    /// zero-length images) so the transaction's chain and the page LSN
    /// advance as for any other update. `prev_lsn` chains the
    /// transaction's undoable records backwards, ARIES-style, so rollback
    /// can walk from the newest update to the oldest without scanning.
    Update {
        /// The transaction performing the update.
        txn: TxnId,
        /// The updated page.
        page: PageId,
        /// Byte offset within the page body.
        offset: u32,
        /// After-image of the changed range (possibly empty).
        data: Vec<u8>,
        /// Before-image of the same range (what undo restores).
        before: Vec<u8>,
        /// LSN of this transaction's previous undoable record
        /// ([`Lsn::ZERO`] for its first update — updates never sit at log
        /// offset zero, a Begin always precedes them).
        prev_lsn: Lsn,
    },
    /// The transaction committed. A commit record forces the log tail.
    Commit {
        /// The transaction.
        txn: TxnId,
    },
    /// The transaction started rolling back; compensation records follow.
    /// An aborted transaction is a loser until its CLR chain reaches
    /// [`Lsn::ZERO`] — restart undo finishes whatever the runtime rollback
    /// did not get to.
    Abort {
        /// The transaction.
        txn: TxnId,
    },
    /// A compensation log record: the durable trace of undoing one update.
    /// CLRs are **redo-only** — they are repeated by restart redo and never
    /// themselves undone — and `undo_next_lsn` points at the next record of
    /// the same transaction still needing undo ([`Lsn::ZERO`] once the
    /// rollback is complete), so undo work is never repeated across
    /// crashes. `data` is the image of the changed byte range, possibly
    /// empty, exactly as in the update it compensates.
    Clr {
        /// The transaction being rolled back.
        txn: TxnId,
        /// The page the compensation applies to.
        page: PageId,
        /// Byte offset within the page body.
        offset: u32,
        /// Compensation after-image (the compensated update's before-image).
        data: Vec<u8>,
        /// Next record of this transaction to undo; [`Lsn::ZERO`] when the
        /// rollback is complete.
        undo_next_lsn: Lsn,
    },
    /// A fuzzy checkpoint completed.
    Checkpoint(CheckpointData),
}

const TAG_BEGIN: u8 = 1;
const TAG_UPDATE: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_ABORT: u8 = 4;
const TAG_CLR: u8 = 6;
/// Tag 5 was the checkpoint record that listed bare transaction ids; a log
/// holding one is rejected as an unknown tag instead of being misread.
const TAG_CHECKPOINT: u8 = 7;

/// Append the payload of a [`LogRecord::Update`] with these fields to `w`.
/// The images are borrowed, so the engine's write path logs an update
/// straight from the page and its stack pre-image without building the
/// owned record; [`LogRecord::encode_into`] encodes its `Update` through
/// here, so there is one encoding.
pub fn encode_update(
    w: &mut ByteWriter,
    txn: TxnId,
    page: PageId,
    offset: u32,
    data: &[u8],
    before: &[u8],
    prev_lsn: Lsn,
) {
    w.put_u8(TAG_UPDATE);
    w.put_varint(txn.0);
    put_page(w, page);
    w.put_varint(offset.into());
    w.put_bytes(data);
    w.put_bytes(before);
    w.put_varint(prev_lsn.0);
}

/// Append the payload of a [`LogRecord::Clr`] with these fields to `w`; the
/// borrowed counterpart of the owned encoding, as [`encode_update`].
pub fn encode_clr(
    w: &mut ByteWriter,
    txn: TxnId,
    page: PageId,
    offset: u32,
    data: &[u8],
    undo_next_lsn: Lsn,
) {
    w.put_u8(TAG_CLR);
    w.put_varint(txn.0);
    put_page(w, page);
    w.put_varint(offset.into());
    w.put_bytes(data);
    w.put_varint(undo_next_lsn.0);
}

/// A page id is two varints, file then page number: the table file's pages
/// take two to four bytes, where the packed [`PageId::to_u64`] would take
/// five or more.
fn put_page(w: &mut ByteWriter, page: PageId) {
    w.put_varint(page.file.into());
    w.put_varint(page.page_no.into());
}

fn get_page(r: &mut ByteReader<'_>) -> Result<PageId, CodecError> {
    Ok(PageId::new(r.get_varint_u32()?, r.get_varint_u32()?))
}

impl LogRecord {
    /// The transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Update { txn, .. }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn }
            | LogRecord::Clr { txn, .. } => Some(*txn),
            LogRecord::Checkpoint(_) => None,
        }
    }

    /// Encode the record payload (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(32);
        self.encode_into(&mut w);
        w.into_vec()
    }

    /// Append the record payload to `w` (the log writer encodes straight
    /// into the frame it is building).
    pub fn encode_into(&self, w: &mut ByteWriter) {
        match self {
            LogRecord::Begin { txn } => {
                w.put_u8(TAG_BEGIN);
                w.put_varint(txn.0);
            }
            LogRecord::Update {
                txn,
                page,
                offset,
                data,
                before,
                prev_lsn,
            } => encode_update(w, *txn, *page, *offset, data, before, *prev_lsn),
            LogRecord::Commit { txn } => {
                w.put_u8(TAG_COMMIT);
                w.put_varint(txn.0);
            }
            LogRecord::Abort { txn } => {
                w.put_u8(TAG_ABORT);
                w.put_varint(txn.0);
            }
            LogRecord::Clr {
                txn,
                page,
                offset,
                data,
                undo_next_lsn,
            } => encode_clr(w, *txn, *page, *offset, data, *undo_next_lsn),
            LogRecord::Checkpoint(data) => {
                w.put_u8(TAG_CHECKPOINT);
                w.put_varint(data.redo_lsn.0);
                w.put_varint(data.next_txn.0);
                w.put_varint(data.active_txns.len() as u64);
                for t in &data.active_txns {
                    w.put_varint(t.txn.0);
                    w.put_varint(t.first_lsn.0);
                }
            }
        }
    }

    /// Decode a record payload produced by [`LogRecord::encode`].
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(payload);
        let tag = r.get_u8()?;
        match tag {
            TAG_BEGIN => Ok(LogRecord::Begin {
                txn: TxnId(r.get_varint()?),
            }),
            TAG_UPDATE => {
                let txn = TxnId(r.get_varint()?);
                let page = get_page(&mut r)?;
                let offset = r.get_varint_u32()?;
                let data = r.get_bytes()?.to_vec();
                let before = r.get_bytes()?.to_vec();
                let prev_lsn = Lsn(r.get_varint()?);
                Ok(LogRecord::Update {
                    txn,
                    page,
                    offset,
                    data,
                    before,
                    prev_lsn,
                })
            }
            TAG_COMMIT => Ok(LogRecord::Commit {
                txn: TxnId(r.get_varint()?),
            }),
            TAG_ABORT => Ok(LogRecord::Abort {
                txn: TxnId(r.get_varint()?),
            }),
            TAG_CLR => {
                let txn = TxnId(r.get_varint()?);
                let page = get_page(&mut r)?;
                let offset = r.get_varint_u32()?;
                let data = r.get_bytes()?.to_vec();
                let undo_next_lsn = Lsn(r.get_varint()?);
                Ok(LogRecord::Clr {
                    txn,
                    page,
                    offset,
                    data,
                    undo_next_lsn,
                })
            }
            TAG_CHECKPOINT => {
                let redo_lsn = Lsn(r.get_varint()?);
                let next_txn = TxnId(r.get_varint()?);
                let n = r.get_varint()?;
                // The count comes from the log: bound it by what the payload
                // can hold (a row is two varints, two bytes at least) before
                // allocating for it.
                if n > (r.remaining() / 2) as u64 {
                    return Err(CodecError::UnexpectedEnd);
                }
                let mut active_txns = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    active_txns.push(ActiveTxn {
                        txn: TxnId(r.get_varint()?),
                        first_lsn: Lsn(r.get_varint()?),
                    });
                }
                Ok(LogRecord::Checkpoint(CheckpointData {
                    redo_lsn,
                    active_txns,
                    next_txn,
                }))
            }
            other => Err(CodecError::InvalidTag(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: LogRecord) {
        let enc = rec.encode();
        let dec = LogRecord::decode(&enc).unwrap();
        assert_eq!(rec, dec);
    }

    #[test]
    fn all_record_types_round_trip() {
        roundtrip(LogRecord::Begin { txn: TxnId(1) });
        roundtrip(LogRecord::Update {
            txn: TxnId(42),
            page: PageId::new(3, 77),
            offset: 128,
            data: vec![1, 2, 3, 4, 5],
            before: vec![9, 8, 7],
            prev_lsn: Lsn(4096),
        });
        roundtrip(LogRecord::Update {
            txn: TxnId(42),
            page: PageId::new(0, 0),
            offset: 0,
            data: vec![],
            before: vec![],
            prev_lsn: Lsn::ZERO,
        });
        roundtrip(LogRecord::Commit { txn: TxnId(9) });
        roundtrip(LogRecord::Abort { txn: TxnId(10) });
        roundtrip(LogRecord::Clr {
            txn: TxnId(11),
            page: PageId::new(1, 5),
            offset: 256,
            data: vec![0xAA; 16],
            undo_next_lsn: Lsn(777),
        });
        roundtrip(LogRecord::Clr {
            txn: TxnId(12),
            page: PageId::new(0, 0),
            offset: 0,
            data: vec![],
            undo_next_lsn: Lsn::ZERO,
        });
        roundtrip(LogRecord::Checkpoint(CheckpointData {
            redo_lsn: Lsn(12345),
            active_txns: vec![
                ActiveTxn {
                    txn: TxnId(1),
                    first_lsn: Lsn(40),
                },
                ActiveTxn {
                    txn: TxnId(3),
                    first_lsn: Lsn(9000),
                },
            ],
            next_txn: TxnId(4),
        }));
        roundtrip(LogRecord::Checkpoint(CheckpointData::default()));
    }

    /// An update that changed no byte is still a record: zero-length images
    /// at a real offset with a real chain pointer decode to themselves, and
    /// the borrowed encoders write the bytes the owned records do.
    #[test]
    fn zero_length_images_round_trip_and_borrowed_encoding_matches_owned() {
        for image in [&[][..], &[7u8][..], &[0xEE; 128][..]] {
            let before: Vec<u8> = image.iter().map(|b| !b).collect();
            let mut w = ByteWriter::new();
            encode_update(
                &mut w,
                TxnId(42),
                PageId::new(1, 9),
                3_968,
                image,
                &before,
                Lsn(5_150),
            );
            let update = LogRecord::Update {
                txn: TxnId(42),
                page: PageId::new(1, 9),
                offset: 3_968,
                data: image.to_vec(),
                before,
                prev_lsn: Lsn(5_150),
            };
            assert_eq!(w.into_vec(), update.encode());
            roundtrip(update);

            let clr = LogRecord::Clr {
                txn: TxnId(42),
                page: PageId::new(1, 9),
                offset: 3_968,
                data: image.to_vec(),
                undo_next_lsn: Lsn(77),
            };
            let mut w = ByteWriter::new();
            encode_clr(&mut w, TxnId(42), PageId::new(1, 9), 3_968, image, Lsn(77));
            assert_eq!(w.into_vec(), clr.encode());
            roundtrip(clr);
        }
        // What a zero-length update costs the log: 8 payload bytes, the tag
        // and seven one-byte varints (txn 1, file 1, page 1, offset 0, two
        // zero image lengths, prev_lsn 1).
        let mut w = ByteWriter::new();
        encode_update(&mut w, TxnId(1), PageId::new(1, 1), 0, &[], &[], Lsn(1));
        assert_eq!(w.len(), 8);
    }

    #[test]
    fn checkpoint_scan_start_is_the_oldest_of_redo_lsn_and_table() {
        let mut ckpt = CheckpointData {
            redo_lsn: Lsn(500),
            active_txns: vec![],
            next_txn: TxnId(9),
        };
        assert_eq!(ckpt.scan_start(), Lsn(500));
        ckpt.active_txns.push(ActiveTxn {
            txn: TxnId(7),
            first_lsn: Lsn(900),
        });
        assert_eq!(ckpt.scan_start(), Lsn(500));
        ckpt.active_txns.push(ActiveTxn {
            txn: TxnId(3),
            first_lsn: Lsn(120),
        });
        assert_eq!(ckpt.scan_start(), Lsn(120));
    }

    #[test]
    fn txn_accessor() {
        assert_eq!(LogRecord::Begin { txn: TxnId(5) }.txn(), Some(TxnId(5)));
        assert_eq!(LogRecord::Checkpoint(CheckpointData::default()).txn(), None);
        assert_eq!(
            LogRecord::Clr {
                txn: TxnId(6),
                page: PageId::new(0, 1),
                offset: 0,
                data: vec![],
                undo_next_lsn: Lsn::ZERO,
            }
            .txn(),
            Some(TxnId(6))
        );
    }

    #[test]
    fn invalid_tag_rejected() {
        let err = LogRecord::decode(&[99]).unwrap_err();
        assert_eq!(err, CodecError::InvalidTag(99));
        // The retired id-only checkpoint format is not misread as the
        // transaction-table one.
        let mut old = vec![5u8];
        old.extend_from_slice(&[0; 12]);
        assert_eq!(
            LogRecord::decode(&old).unwrap_err(),
            CodecError::InvalidTag(5)
        );
        // A table count the payload cannot hold is rejected before any
        // allocation.
        let mut w = ByteWriter::new();
        w.put_u8(TAG_CHECKPOINT);
        w.put_varint(0);
        w.put_varint(1);
        w.put_varint(u32::MAX.into());
        assert_eq!(
            LogRecord::decode(&w.into_vec()).unwrap_err(),
            CodecError::UnexpectedEnd
        );
        // Truncated payloads: a txn and a file, then nothing.
        assert_eq!(
            LogRecord::decode(&[TAG_UPDATE, 1, 2]).unwrap_err(),
            CodecError::UnexpectedEnd
        );
        assert_eq!(
            LogRecord::decode(&[TAG_CLR, 1, 2]).unwrap_err(),
            CodecError::UnexpectedEnd
        );
    }

    #[test]
    fn update_missing_before_image_is_rejected() {
        // An old-format update (after-image only, no before-image or chain
        // pointer) must not silently decode: the trailing fields are
        // required.
        let mut w = ByteWriter::with_capacity(32);
        w.put_u8(TAG_UPDATE);
        w.put_varint(1);
        put_page(&mut w, PageId::new(0, 1));
        w.put_varint(0);
        w.put_bytes(&[1, 2, 3]);
        assert_eq!(
            LogRecord::decode(&w.into_vec()).unwrap_err(),
            CodecError::UnexpectedEnd
        );
    }

    /// The widest transaction id is a ten-byte varint; a longer varint, or a
    /// ten-byte one past `u64::MAX`, is an error, not a wrapped id.
    #[test]
    fn u64_max_fields_round_trip_and_longer_varints_are_rejected() {
        let begin = LogRecord::Begin {
            txn: TxnId(u64::MAX),
        };
        assert_eq!(begin.encode().len(), 1 + 10);
        roundtrip(begin);
        roundtrip(LogRecord::Update {
            txn: TxnId(u64::MAX),
            page: PageId::new(u32::MAX, u32::MAX),
            offset: u32::MAX,
            data: vec![1],
            before: vec![2],
            prev_lsn: Lsn(u64::MAX),
        });

        let mut eleven = vec![TAG_BEGIN];
        eleven.extend_from_slice(&[0x80; 10]);
        eleven.push(0);
        assert_eq!(LogRecord::decode(&eleven), Err(CodecError::InvalidVarint));
        let mut overflowing = vec![TAG_COMMIT];
        overflowing.extend_from_slice(&[0xFF; 9]);
        overflowing.push(0x02);
        assert_eq!(
            LogRecord::decode(&overflowing),
            Err(CodecError::InvalidVarint)
        );
    }

    /// `file`, `page_no` and `offset` are `u32`s: a larger value in any of
    /// them is an error, never silently truncated.
    #[test]
    fn page_and_offset_fields_above_u32_max_are_errors() {
        let too_big = u64::from(u32::MAX) + 1;
        for field in 0..3 {
            for tag in [TAG_UPDATE, TAG_CLR] {
                let mut w = ByteWriter::new();
                w.put_u8(tag);
                w.put_varint(7);
                for i in 0..3 {
                    w.put_varint(if i == field { too_big } else { 1 });
                }
                w.put_bytes(&[]);
                if tag == TAG_UPDATE {
                    w.put_bytes(&[]);
                }
                w.put_varint(0);
                assert_eq!(
                    LogRecord::decode(&w.into_vec()),
                    Err(CodecError::OutOfRange),
                    "tag {tag}, field {field}"
                );
            }
        }
    }

    /// A checkpoint's table count is checked against what its payload can
    /// hold before the table is allocated: a count of `u64::MAX` would abort
    /// the allocation instead of returning.
    #[test]
    fn a_checkpoint_count_beyond_its_payload_fails_before_allocating() {
        let with_count = |n: u64, rows: u64| {
            let mut w = ByteWriter::new();
            w.put_u8(TAG_CHECKPOINT);
            w.put_varint(100);
            w.put_varint(9);
            w.put_varint(n);
            for t in 0..rows {
                w.put_varint(t);
                w.put_varint(40 + t);
            }
            LogRecord::decode(&w.into_vec())
        };
        assert_eq!(with_count(3, 3).unwrap(), {
            let mut ckpt = CheckpointData {
                redo_lsn: Lsn(100),
                active_txns: vec![],
                next_txn: TxnId(9),
            };
            for t in 0..3 {
                ckpt.active_txns.push(ActiveTxn {
                    txn: TxnId(t),
                    first_lsn: Lsn(40 + t),
                });
            }
            LogRecord::Checkpoint(ckpt)
        });
        // Six payload bytes hold three rows at most.
        for n in [4, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(with_count(n, 3), Err(CodecError::UnexpectedEnd), "{n}");
        }
    }

    #[test]
    fn txn_display() {
        assert_eq!(format!("{}", TxnId(17)), "txn:17");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_record() -> impl Strategy<Value = LogRecord> {
            prop_oneof![
                any::<u64>().prop_map(|t| LogRecord::Begin { txn: TxnId(t) }),
                any::<u64>().prop_map(|t| LogRecord::Commit { txn: TxnId(t) }),
                any::<u64>().prop_map(|t| LogRecord::Abort { txn: TxnId(t) }),
                (
                    any::<u64>(),
                    any::<u64>(),
                    any::<u32>(),
                    prop::collection::vec(any::<u8>(), 0..256),
                    prop::collection::vec(any::<u8>(), 0..256),
                    any::<u64>(),
                )
                    .prop_map(|(t, p, o, d, b, prev)| LogRecord::Update {
                        txn: TxnId(t),
                        page: PageId::from_u64(p),
                        offset: o,
                        data: d,
                        before: b,
                        prev_lsn: Lsn(prev),
                    }),
                (
                    any::<u64>(),
                    any::<u64>(),
                    any::<u32>(),
                    prop::collection::vec(any::<u8>(), 0..256),
                    any::<u64>(),
                )
                    .prop_map(|(t, p, o, d, next)| LogRecord::Clr {
                        txn: TxnId(t),
                        page: PageId::from_u64(p),
                        offset: o,
                        data: d,
                        undo_next_lsn: Lsn(next),
                    }),
                (
                    any::<u64>(),
                    prop::collection::vec((any::<u64>(), any::<u64>()), 0..16),
                    any::<u64>(),
                )
                    .prop_map(|(lsn, txns, fence)| LogRecord::Checkpoint(
                        CheckpointData {
                            redo_lsn: Lsn(lsn),
                            active_txns: txns
                                .into_iter()
                                .map(|(t, first)| ActiveTxn {
                                    txn: TxnId(t),
                                    first_lsn: Lsn(first),
                                })
                                .collect(),
                            next_txn: TxnId(fence),
                        }
                    )),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]
            /// Every record round-trips bit-exactly through the log codec.
            #[test]
            fn encode_decode_round_trips(rec in arb_record()) {
                let encoded = rec.encode();
                prop_assert_eq!(LogRecord::decode(&encoded).unwrap(), rec);
            }

            /// Truncated payloads never panic: they decode to a clean error.
            #[test]
            fn truncation_is_detected(rec in arb_record(), cut in any::<prop::sample::Index>()) {
                let encoded = rec.encode();
                let cut = cut.index(encoded.len().max(1));
                if cut < encoded.len() {
                    prop_assert!(LogRecord::decode(&encoded[..cut]).is_err() ||
                                 // A prefix can only decode successfully if it is
                                 // itself a complete record of the same type,
                                 // which the length prefixes make impossible for
                                 // a strict prefix — so any Ok here must equal
                                 // the original (degenerate empty-data case).
                                 LogRecord::decode(&encoded[..cut]).unwrap() != rec || cut == encoded.len());
                }
            }
        }
    }
}
