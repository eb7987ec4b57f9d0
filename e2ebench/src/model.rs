//! The oracle: the benchmark's own model of the last acknowledged value of
//! every key, and the property checks every read is held to.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};

use flodb_core::{FloDb, KvStore};

use crate::keys::{decode_value, KeySpace, Version};

/// The version every key holds after the set-up preload.
pub const PRELOAD: Version = Version { writer: 0, seq: 1 };

pub struct Model {
    pub ks: KeySpace,
    /// Keys `0..keys` exist; indices at or above it are never written.
    pub keys: u64,
    /// Client owning each half of the keys (`owners[0]` the first half).
    owners: [u32; 2],
    /// Packed last acknowledged [`Version`] per key.
    acked: Vec<AtomicU64>,
    /// Highest sequence number each writer has issued (acknowledged or
    /// not), indexed by writer.
    issued: [AtomicU64; 3],
    /// Key indices ordered by key bytes, for range scans.
    pub sorted: Vec<u32>,
}

impl Model {
    /// A model of `keys` preloaded keys whose halves belong to `owners`.
    pub fn new(ks: KeySpace, keys: u64, owners: [u32; 2]) -> Self {
        let mut sorted: Vec<u32> = (0..keys as u32).collect();
        sorted.sort_by_key(|&i| ks.key(u64::from(i)));
        Model {
            ks,
            keys,
            owners,
            acked: (0..keys).map(|_| AtomicU64::new(PRELOAD.pack())).collect(),
            issued: Default::default(),
            sorted,
        }
    }

    pub fn owner(&self, index: u64) -> u32 {
        self.owners[usize::from(index >= self.keys / 2)]
    }

    /// Resets every key to its preloaded version for a fresh round.
    pub fn reset(&self) {
        for a in &self.acked {
            a.store(PRELOAD.pack(), Ordering::SeqCst);
        }
        for i in &self.issued {
            i.store(0, Ordering::SeqCst);
        }
    }

    /// Claims `writer`'s next sequence number before its put is issued.
    pub fn issue(&self, writer: u32) -> Version {
        let seq = self.issued[writer as usize].fetch_add(1, Ordering::SeqCst) + 1;
        Version { writer, seq }
    }

    pub fn acknowledge(&self, index: u64, v: Version) {
        self.acked[index as usize].store(v.pack(), Ordering::SeqCst);
    }

    pub fn acked(&self, index: u64) -> Version {
        Version::unpack(self.acked[index as usize].load(Ordering::SeqCst))
    }

    fn issued(&self, writer: u32) -> u64 {
        self.issued[writer as usize].load(Ordering::SeqCst)
    }

    /// Checks a value read back for key `index`. `before` is the model's
    /// acknowledged version when the read began; `reader` the reading
    /// client (0 for the benchmark itself). A reader that owns the key saw
    /// no concurrent write to it, so it must read exactly `before`;
    /// otherwise the value must be no older than `before` and no newer
    /// than anything its owner has issued.
    pub fn check(
        &self,
        index: u64,
        key: &[u8],
        value: Option<&[u8]>,
        before: Version,
        reader: u32,
    ) -> Result<(), String> {
        if index >= self.keys {
            return match value {
                None => Ok(()),
                Some(_) => Err(format!("key {index} was never written but reads back")),
            };
        }
        let Some(value) = value else {
            return Err(format!("key {index} is missing"));
        };
        let Some(got) = decode_value(key, value) else {
            return Err(format!(
                "key {index}: value is damaged or belongs to another key"
            ));
        };
        let owner = self.owner(index);
        if reader == owner || reader == 0 {
            return if got == before {
                Ok(())
            } else {
                Err(format!(
                    "key {index}: read {got:?}, acknowledged {before:?}"
                ))
            };
        }
        if got < before {
            return Err(format!(
                "key {index}: stale {got:?}, acknowledged {before:?}"
            ));
        }
        let valid = got == PRELOAD || (got.writer == owner && got.seq <= self.issued(owner));
        if valid {
            Ok(())
        } else {
            Err(format!(
                "key {index}: {got:?} was never issued by its owner {owner}"
            ))
        }
    }

    /// Compares the whole store with the model: every key present with
    /// its last acknowledged value, and nothing else. Scans the key space
    /// in contiguous chunks that together cover every 8-byte key.
    /// Returns (keys checked, failures).
    pub fn compare_store(&self, db: &FloDb) -> (u64, u64) {
        const CHUNK: usize = 4096;
        let mut failures = 0u64;
        let mut first_error = None;
        let mut checked = 0u64;
        let mut low = [0u8; 8];
        for start in (0..self.sorted.len().max(1)).step_by(CHUNK) {
            let end = (start + CHUNK).min(self.sorted.len());
            let high = match self.sorted.get(end) {
                Some(&next) => (u64::from_be_bytes(self.ks.key(u64::from(next))) - 1).to_be_bytes(),
                None => [0xFF; 8],
            };
            let expected = &self.sorted[start.min(end)..end];
            let mut pos = 0usize;
            db.scan_with(&low, &high, &mut |key, value| {
                let Some(index) = self.ks.index(key) else {
                    failures += 1;
                    first_error.get_or_insert_with(|| "a key of the wrong length".to_string());
                    return ControlFlow::Continue(());
                };
                match expected.get(pos) {
                    Some(&want) if u64::from(want) == index => {
                        pos += 1;
                        checked += 1;
                        if let Err(e) = self.check(index, key, Some(value), self.acked(index), 0) {
                            failures += 1;
                            first_error.get_or_insert(e);
                        }
                    }
                    _ => {
                        failures += 1;
                        first_error
                            .get_or_insert_with(|| format!("unexpected key index {index} in scan"));
                    }
                }
                ControlFlow::Continue(())
            });
            if pos < expected.len() {
                failures += (expected.len() - pos) as u64;
                first_error.get_or_insert_with(|| {
                    format!("{} keys missing from range scan", expected.len() - pos)
                });
            }
            if let Some(&next) = self.sorted.get(end) {
                low = self.ks.key(u64::from(next));
            }
        }
        if let Some(e) = first_error {
            eprintln!("full comparison: {failures} failures, first: {e}");
        }
        (checked, failures)
    }
}
