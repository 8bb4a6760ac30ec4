//! The lock-class registry: every lock in the workspace belongs to one of
//! these named classes, and the class ranks define the global acquisition
//! order (outer → inner, ascending rank).
//!
//! This table is the single source of truth for the documented lock order.
//! The README "Lock order" section and the ROADMAP standing constraints carry
//! a generated rendering of it between `lock-order:begin`/`lock-order:end`
//! markers, and `face-lint --check-docs` fails the build when they drift.
//! `face-lint` parses this file textually (it has no dependencies, so it
//! cannot link against us); keep each entry on the one-field-per-line layout
//! below.

/// Static description of one lock class.
#[derive(Debug)]
pub struct LockClassSpec {
    /// Stable machine name, used in reports, DOT output and the docs block.
    pub name: &'static str,
    /// Position in the global acquisition order (outer → inner, ascending).
    /// Classes may share a rank when no order between them is documented;
    /// the acquisition graph then learns their relative order dynamically.
    pub rank: u32,
    /// Whether several locks of this class may be held at once (the sites
    /// that do so are deadlock-free by construction, e.g. index-ordered full
    /// sweeps or probes under a pinning `try_lock`).
    pub nestable: bool,
    /// Whether device I/O is forbidden while a lock of this class is held —
    /// the PR 4/5 "no device op under a shard lock" property.
    pub forbids_io: bool,
    /// One-line description rendered into the generated docs block.
    pub doc: &'static str,
}

/// All lock classes, ascending by rank. Index = [`LockClassId`] value.
pub const CLASSES: &[LockClassSpec] = &[
    LockClassSpec {
        name: "txn_stripe",
        rank: 10,
        nestable: false,
        forbids_io: false,
        doc: "transaction-table stripe (`face_engine::db`); never held across a call into another layer",
    },
    LockClassSpec {
        name: "buffer_structural",
        rank: 20,
        nestable: false,
        forbids_io: false,
        doc: "buffer-pool shard structural mutex (`face_buffer::pool`): lookups, replacement and the eviction write-back; never held across a lower-tier fetch (a miss loads under its frame's page latch); cross-shard GSC pulls use `try_lock` only",
    },
    LockClassSpec {
        name: "buffer_map",
        rank: 30,
        nestable: false,
        forbids_io: false,
        doc: "buffer-pool shard id-to-frame map (`face_buffer::pool`)",
    },
    LockClassSpec {
        name: "page_latch",
        rank: 40,
        nestable: true,
        forbids_io: false,
        doc: "per-frame page latch (`face_buffer::pool`); held exclusively across a miss's lower-tier fetch, and a prefetch's window of them across one batched fetch; the GSC donor probe latches candidate frames while the evicted victim's latch is held, with the donor shard pinned by `try_lock`",
    },
    LockClassSpec {
        name: "cache_shard",
        rank: 50,
        nestable: true,
        forbids_io: true,
        doc: "flash-cache shard directory, policy and journal state (`face_cache::concurrent`); full sweeps (stats, recovery) take shards in ascending index order",
    },
    LockClassSpec {
        name: "ghost_admission",
        rank: 55,
        nestable: false,
        forbids_io: true,
        doc: "ghost-queue admission directory stripe (`face_cache::admission`); taken under the cache shard to decide whether a clean first-touch page earns a flash write",
    },
    LockClassSpec {
        name: "wash_table",
        rank: 60,
        nestable: false,
        forbids_io: true,
        doc: "stage-out wash table (`face_engine::tier`)",
    },
    LockClassSpec {
        name: "destage_queue",
        rank: 70,
        nestable: false,
        forbids_io: true,
        doc: "destager worker queue mutex and condvars (`face_cache::destage`)",
    },
    LockClassSpec {
        name: "wal_flush",
        rank: 80,
        nestable: false,
        forbids_io: false,
        doc: "WAL flush lock (`face_wal::writer`); held across the log-device force by the group-commit leader",
    },
    LockClassSpec {
        name: "wal_append",
        rank: 90,
        nestable: false,
        forbids_io: false,
        doc: "WAL append lock over the in-RAM tail (`face_wal::writer`)",
    },
    LockClassSpec {
        name: "wal_storage",
        rank: 100,
        nestable: false,
        forbids_io: false,
        doc: "log-storage internals: append cursor or in-memory buffer (`face_wal::storage`)",
    },
    LockClassSpec {
        name: "flash_slots",
        rank: 110,
        nestable: false,
        forbids_io: false,
        doc: "in-memory flash-store slot and header arrays (`face_cache::store`) — device-internal",
    },
    LockClassSpec {
        name: "page_store",
        rank: 120,
        nestable: false,
        forbids_io: false,
        doc: "page-store internals: segment file handles or in-memory frames (`face_pagestore`) — device-internal",
    },
    LockClassSpec {
        name: "diag",
        rank: 140,
        nestable: false,
        forbids_io: false,
        doc: "diagnostic cells (destager last-error and similar) — leaf",
    },
    LockClassSpec {
        name: "page_buffers",
        rank: 150,
        nestable: false,
        forbids_io: false,
        doc: "shared free list of recycled 4 KiB page buffers (`face_pagestore::page`) — innermost leaf: a `Page` may be created or dropped under any other lock, and nothing is acquired while it is held",
    },
    // Scratch classes below exist only for the witness's own deliberate-
    // violation tests. They share rank 900 so no static rank relation holds
    // between them — ordering is learned dynamically by the acquisition
    // graph, which is what the cycle-detection tests exercise. Names starting
    // with `scratch_` are excluded from the generated docs block.
    LockClassSpec {
        name: "scratch_a",
        rank: 900,
        nestable: false,
        forbids_io: false,
        doc: "witness self-test only",
    },
    LockClassSpec {
        name: "scratch_b",
        rank: 900,
        nestable: false,
        forbids_io: false,
        doc: "witness self-test only",
    },
    LockClassSpec {
        name: "scratch_c",
        rank: 900,
        nestable: false,
        forbids_io: false,
        doc: "witness self-test only",
    },
    LockClassSpec {
        name: "scratch_outer",
        rank: 920,
        nestable: false,
        forbids_io: false,
        doc: "witness self-test only",
    },
    LockClassSpec {
        name: "scratch_inner",
        rank: 930,
        nestable: false,
        forbids_io: true,
        doc: "witness self-test only",
    },
];

/// Handle for a lock class: an index into [`CLASSES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockClassId(pub usize);

impl LockClassId {
    /// The class's static spec.
    pub fn spec(self) -> &'static LockClassSpec {
        &CLASSES[self.0]
    }

    /// The class's machine name.
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// The class's rank in the documented order.
    pub fn rank(self) -> u32 {
        self.spec().rank
    }
}

pub const TXN_STRIPE: LockClassId = LockClassId(0);
pub const BUFFER_STRUCTURAL: LockClassId = LockClassId(1);
pub const BUFFER_MAP: LockClassId = LockClassId(2);
pub const PAGE_LATCH: LockClassId = LockClassId(3);
pub const CACHE_SHARD: LockClassId = LockClassId(4);
pub const GHOST_ADMISSION: LockClassId = LockClassId(5);
pub const WASH_TABLE: LockClassId = LockClassId(6);
pub const DESTAGE_QUEUE: LockClassId = LockClassId(7);
pub const WAL_FLUSH: LockClassId = LockClassId(8);
pub const WAL_APPEND: LockClassId = LockClassId(9);
pub const WAL_STORAGE: LockClassId = LockClassId(10);
pub const FLASH_SLOTS: LockClassId = LockClassId(11);
pub const PAGE_STORE: LockClassId = LockClassId(12);
pub const DIAG: LockClassId = LockClassId(13);
pub const PAGE_BUFFERS: LockClassId = LockClassId(14);
pub const SCRATCH_A: LockClassId = LockClassId(15);
pub const SCRATCH_B: LockClassId = LockClassId(16);
pub const SCRATCH_C: LockClassId = LockClassId(17);
pub const SCRATCH_OUTER: LockClassId = LockClassId(18);
pub const SCRATCH_INNER: LockClassId = LockClassId(19);

/// Number of registered classes, scratch included.
pub const NUM_CLASSES: usize = CLASSES.len();

/// Whether a class is one of the witness-self-test scratch classes, which
/// are excluded from the generated documentation block.
pub fn is_scratch(spec: &LockClassSpec) -> bool {
    spec.name.starts_with("scratch_")
}

/// Render the canonical lock-order documentation block — the exact lines that
/// must appear between the `lock-order:begin`/`lock-order:end` markers in
/// README.md and ROADMAP.md. `face-lint --check-docs` regenerates this text
/// from [`CLASSES`] and rejects any drift.
pub fn lock_order_doc() -> String {
    let mut out = String::new();
    out.push_str("Lock classes, outer → inner (machine-checked by the `face-analysis` lockdep witness; rank ties are ordered dynamically by the acquisition graph):\n\n");
    for c in CLASSES.iter().filter(|c| !is_scratch(c)) {
        out.push_str(&format!(
            "- `{}` (rank {}){}{} — {}\n",
            c.name,
            c.rank,
            if c.nestable { ", nestable" } else { "" },
            if c.forbids_io {
                ", no device I/O while held"
            } else {
                ""
            },
            c.doc
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_match_table_order() {
        let ids = [
            (TXN_STRIPE, "txn_stripe"),
            (BUFFER_STRUCTURAL, "buffer_structural"),
            (BUFFER_MAP, "buffer_map"),
            (PAGE_LATCH, "page_latch"),
            (CACHE_SHARD, "cache_shard"),
            (GHOST_ADMISSION, "ghost_admission"),
            (WASH_TABLE, "wash_table"),
            (DESTAGE_QUEUE, "destage_queue"),
            (WAL_FLUSH, "wal_flush"),
            (WAL_APPEND, "wal_append"),
            (WAL_STORAGE, "wal_storage"),
            (FLASH_SLOTS, "flash_slots"),
            (PAGE_STORE, "page_store"),
            (DIAG, "diag"),
            (PAGE_BUFFERS, "page_buffers"),
            (SCRATCH_A, "scratch_a"),
            (SCRATCH_B, "scratch_b"),
            (SCRATCH_C, "scratch_c"),
            (SCRATCH_OUTER, "scratch_outer"),
            (SCRATCH_INNER, "scratch_inner"),
        ];
        assert_eq!(ids.len(), NUM_CLASSES);
        for (id, name) in ids {
            assert_eq!(id.name(), name);
        }
    }

    #[test]
    fn ranks_ascend() {
        for w in CLASSES.windows(2) {
            assert!(w[0].rank <= w[1].rank, "{} vs {}", w[0].name, w[1].name);
        }
    }

    #[test]
    fn doc_block_mentions_every_class_but_scratch() {
        let doc = lock_order_doc();
        for c in CLASSES {
            assert_eq!(doc.contains(c.name), !is_scratch(c), "{}", c.name);
        }
    }
}
