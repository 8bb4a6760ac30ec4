//! Input generation. Every operation the engine will receive is generated
//! from `--seed` before the timed phase; the engine sees only the operations.
//!
//! Clients own disjoint write sets, because the engine latches pages but
//! locks no keys: two writers of one key would make restart undo restore a
//! stale before-image. TPC-C clients draw from disjoint home-warehouse
//! ranges, and since rows of neighbouring warehouses can share a page (all
//! four WAREHOUSE rows live in one), every key but the read-only ITEM pages
//! also carries its client in the high bits. The zipfian workload gives
//! client *i* the keys ≡ *i* mod 2 to write; reads range over all keys.

use std::time::Instant;

use face_tpcc::{Table, TpccConfig, TpccWorkload};
use face_workload::{MixConfig, Op, WorkloadGen};

use crate::spec::{Kind, Workload, CLIENTS, KV_OPS_PER_TXN, KV_RMW_PCT, KV_THETA, WAREHOUSES};

/// Set on an operation that writes its key.
pub const WRITE: u64 = 1 << 63;
const CLIENT_SHIFT: u32 = 48;

/// One client's transactions, flattened: `ops[ends[i-1]..ends[i]]` is
/// transaction `i`, each op a key with [`WRITE`] set on writes.
#[derive(Debug, Default)]
pub struct Stream {
    ops: Vec<u64>,
    ends: Vec<u32>,
}

impl Stream {
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Every operation, transaction boundaries aside.
    pub fn ops(&self) -> &[u64] {
        &self.ops
    }

    /// Transaction `i`, wrapping around at the end of the stream.
    pub fn txn(&self, i: usize) -> &[u64] {
        let i = i % self.ends.len();
        let lo = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.ops[lo..self.ends[i] as usize]
    }

    fn push_txn(&mut self, ops: impl Iterator<Item = u64>) {
        self.ops.extend(ops);
        self.ends.push(self.ops.len() as u32);
    }
}

/// Home warehouses of `client`: `1..=WAREHOUSES` split into contiguous ranges.
fn home_range(client: usize) -> (u64, u64) {
    let (w, n, c) = (WAREHOUSES as u64, CLIENTS as u64, client as u64);
    (c * w / n + 1, (c + 1) * w / n)
}

/// Generate `txns` transactions for `client`. Client `i` uses `seed + i`.
pub fn generate(w: &Workload, seed: u64, client: usize, txns: usize) -> Stream {
    let seed = seed + client as u64;
    let mut stream = Stream::default();
    match w.kind {
        Kind::Tpcc => {
            let (lo, hi) = home_range(client);
            let config = TpccConfig {
                warehouses: WAREHOUSES,
                seed,
            };
            let mut gen = TpccWorkload::with_home_range(config, lo, hi);
            let owner = (client as u64 + 1) << CLIENT_SHIFT;
            for _ in 0..txns {
                let txn = gen.next_transaction();
                stream.push_txn(txn.accesses.iter().map(|a| {
                    let shared = a.page.file == Table::Item.file_id();
                    debug_assert!(!(shared && a.write), "ITEM is read-only");
                    let key = a.page.to_u64() | if shared { 0 } else { owner };
                    key | if a.write { WRITE } else { 0 }
                }));
            }
        }
        Kind::Kv => {
            let mix = MixConfig {
                keys: w.load_keys,
                theta: KV_THETA,
                rmw_pct: KV_RMW_PCT,
                ops_per_txn: KV_OPS_PER_TXN,
                rotate_every_txns: 0,
                rotate_step: 0,
            };
            let mut gen = WorkloadGen::new(mix, seed);
            let mut txn = Vec::new();
            for _ in 0..txns {
                gen.next_txn(&mut txn);
                stream.push_txn(txn.iter().map(|op| match *op {
                    Op::Get { key } => key,
                    Op::ReadModifyWrite { key } => kv_owned(key, client) | WRITE,
                }));
            }
        }
    }
    stream
}

/// The key next to `key` that `client` may write.
fn kv_owned(key: u64, client: usize) -> u64 {
    key / CLIENTS as u64 * CLIENTS as u64 + client as u64
}

/// Which client loads (and may later write) `key` of the zipfian workload.
pub fn kv_owner(key: u64) -> usize {
    (key % CLIENTS as u64) as usize
}

/// The warm-up and measured streams of every client, and what generating
/// them cost. The warm-up uses `seed`, the measured phase `seed + 1000`.
pub struct Inputs {
    pub warm: Vec<Stream>,
    pub measured: Vec<Stream>,
    pub gen_ns_per_txn: f64,
}

pub fn generate_all(w: &Workload, seed: u64, seconds: u64) -> Inputs {
    let started = Instant::now();
    let measured_txns = (w.stream_txns_per_s * seconds as usize).max(4 * w.cycle_txns);
    let warm: Vec<Stream> = (0..CLIENTS)
        .map(|c| generate(w, seed, c, w.warmup_txns))
        .collect();
    let measured: Vec<Stream> = (0..CLIENTS)
        .map(|c| generate(w, seed + 1000, c, measured_txns))
        .collect();
    let txns: usize = warm.iter().chain(&measured).map(Stream::len).sum();
    Inputs {
        warm,
        measured,
        gen_ns_per_txn: started.elapsed().as_nanos() as f64 / txns.max(1) as f64,
    }
}

/// FNV-1a over every generated operation and transaction boundary.
pub fn hash(inputs: &Inputs) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for s in inputs.warm.iter().chain(&inputs.measured) {
        s.ops.iter().for_each(|&op| eat(op));
        s.ends.iter().for_each(|&end| eat(end as u64));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in &WORKLOADS {
            let a = hash(&generate_all(w, 7, 1));
            let b = hash(&generate_all(w, 7, 1));
            let c = hash(&generate_all(w, 8, 1));
            assert_eq!(a, b, "{}: the seed decides the inputs", w.name);
            assert_ne!(a, c, "{}: another seed gives other inputs", w.name);
        }
    }

    #[test]
    fn clients_write_disjoint_keys() {
        for w in &WORKLOADS {
            let inputs = generate_all(w, 7, 1);
            let written = |s: &Stream| -> HashSet<u64> {
                s.ops
                    .iter()
                    .filter(|&&op| op & WRITE != 0)
                    .map(|&op| op & !WRITE)
                    .collect()
            };
            let a = written(&inputs.measured[0]);
            let b = written(&inputs.measured[1]);
            assert!(
                !a.is_empty() && !b.is_empty(),
                "{}: both clients write",
                w.name
            );
            assert!(a.is_disjoint(&b), "{}: write sets overlap", w.name);
        }
    }

    #[test]
    fn stream_wraps_and_splits_transactions() {
        let w = &WORKLOADS[2];
        let s = generate(w, 7, 1, 10);
        assert_eq!(s.len(), 10);
        assert_eq!(s.txn(0).len(), KV_OPS_PER_TXN as usize);
        assert_eq!(s.txn(3), s.txn(13));
        for &op in s.txn(4) {
            if op & WRITE != 0 {
                assert_eq!(kv_owner(op & !WRITE), 1);
            }
        }
    }
}
