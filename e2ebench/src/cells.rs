//! Standalone layer cells: `MemBuffer::add`/`get` and
//! `SkipList::multi_insert`/`get` driven by a workload's own key stream at
//! the sizes that workload configures. They time each layer without the
//! rest of the engine around it, so the traced run can test whether the
//! drain's skiplist insertion bounds sustained writes.

use std::time::Instant;

use flodb_core::FloDbOptions;
use flodb_membuffer::{AddResult, MemBuffer, MemBufferConfig};
use flodb_memtable::{BatchEntry, SkipList};

use crate::keys::{encode_value, KeySpace, Version, ENTRY_BYTES, VALUE_BYTES};
use crate::metrics::median;

/// Ops timed together; the cell reports the median of the per-batch means.
const BATCH: usize = 256;
/// Upper bound on the keys one cell times, to keep the traced run short.
const MAX_KEYS: usize = 65_536;
/// Per-node overhead the skiplist charges on top of key and value.
const NODE_OVERHEAD: u64 = 64;

pub struct CellFigures {
    pub membuffer_add_ns: f64,
    pub membuffer_get_ns: f64,
    pub multi_insert_ns_per_key: f64,
    pub memtable_get_ns: f64,
}

fn value_for(key: &[u8; 8], seq: u64) -> Box<[u8]> {
    let mut buf = [0u8; VALUE_BYTES];
    encode_value(key, Version { writer: 1, seq }, &mut buf);
    Box::new(buf)
}

fn timed_batches<T>(items: &[T], mut op: impl FnMut(&[T])) -> f64 {
    let per_op: Vec<f64> = items
        .chunks(BATCH)
        .map(|chunk| {
            let t = Instant::now();
            op(chunk);
            t.elapsed().as_nanos() as f64 / chunk.len() as f64
        })
        .collect();
    median(&per_op)
}

/// Runs the cells on `stream` (key indices in the workload's put order)
/// with the Membuffer and Memtable sized as `opts` sizes them; the
/// skiplist starts holding `resident` keys of the preloaded set.
pub fn run(opts: &FloDbOptions, ks: &KeySpace, stream: &[u64], resident: u64) -> CellFigures {
    let config = MemBufferConfig::for_capacity_bytes(
        opts.membuffer_bytes(),
        opts.partition_bits,
        opts.avg_entry_bytes,
    );
    let buffer = MemBuffer::new(config);
    // Drains keep a live Membuffer well below full; time adds up to half
    // its capacity, the range a drained buffer works in.
    let adds = stream
        .len()
        .min(MAX_KEYS)
        .min(config.capacity_entries() / 2);
    let entries: Vec<([u8; 8], Box<[u8]>)> = stream[..adds]
        .iter()
        .enumerate()
        .map(|(n, &i)| {
            let key = ks.key(i);
            (key, value_for(&key, n as u64 + 1))
        })
        .collect();
    let mut added = 0usize;
    let membuffer_add_ns = timed_batches(&entries, |chunk| {
        for (key, value) in chunk {
            if !matches!(
                std::hint::black_box(buffer.add(key, Some(value))),
                AddResult::BucketFull
            ) {
                added += 1;
            }
        }
    });
    let membuffer_get_ns = timed_batches(&entries, |chunk| {
        for (key, _) in chunk {
            std::hint::black_box(buffer.get(key));
        }
    });
    assert!(added > 0, "the Membuffer cell added nothing");
    drop(buffer);

    let memtable_entries =
        (opts.memtable_bytes() as u64 / (ENTRY_BYTES + NODE_OVERHEAD)).min(resident);
    let list = SkipList::new();
    for i in 0..memtable_entries {
        let key = ks.key(i);
        list.insert(&key, Some(&value_for(&key, 0)), 0);
    }
    let inserts = stream.len().min(MAX_KEYS);
    let batch = opts.drain_batch_entries.max(1);
    let mut seq = 1u64;
    let per_key: Vec<f64> = stream[..inserts]
        .chunks(batch)
        .map(|chunk| {
            let entries: Vec<BatchEntry> = chunk
                .iter()
                .map(|&i| {
                    let key = ks.key(i);
                    seq += 1;
                    BatchEntry {
                        value: Some(value_for(&key, seq)),
                        key: Box::new(key),
                        seq,
                    }
                })
                .collect();
            let t = Instant::now();
            std::hint::black_box(list.multi_insert(entries));
            t.elapsed().as_nanos() as f64 / chunk.len() as f64
        })
        .collect();
    let keys: Vec<[u8; 8]> = stream[..inserts].iter().map(|&i| ks.key(i)).collect();
    let memtable_get_ns = timed_batches(&keys, |chunk| {
        for key in chunk {
            std::hint::black_box(list.get(key));
        }
    });
    CellFigures {
        membuffer_add_ns,
        membuffer_get_ns,
        multi_insert_ns_per_key: median(&per_key),
        memtable_get_ns,
    }
}
