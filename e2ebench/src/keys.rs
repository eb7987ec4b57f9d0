//! Inputs: a seeded generator, the key space and the self-describing value
//! format.
//!
//! Keys are 8 bytes and values 256 bytes (paper §5.1). Key `i` of a run is
//! a bijective mix of `i` and the run's seed, so keys spread uniformly over
//! the 64-bit space (and over the Membuffer's most-significant-bit
//! partitions) while the benchmark can map any key it reads back to its
//! index — a key whose index lies outside the key space was never written.

pub const KEY_BYTES: usize = 8;
pub const VALUE_BYTES: usize = 256;
/// User bytes of one put: key plus value.
pub const ENTRY_BYTES: u64 = (KEY_BYTES + VALUE_BYTES) as u64;

/// SplitMix64: small, seedable and good enough for workload streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

const M1: u64 = 0xBF58_476D_1CE4_E5B9;
const M2: u64 = 0x94D0_49BB_1331_11EB;

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(M1);
    x = (x ^ (x >> 27)).wrapping_mul(M2);
    x ^ (x >> 31)
}

fn unxorshift(y: u64, s: u32) -> u64 {
    let mut x = y;
    for _ in 0..(64 / s) {
        x = y ^ (x >> s);
    }
    x
}

fn mod_inverse(c: u64) -> u64 {
    // Newton's iteration doubles the correct low bits each step.
    let mut inv = c;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(inv)));
    }
    inv
}

fn unmix(mut x: u64) -> u64 {
    x = unxorshift(x, 31);
    x = unxorshift(x.wrapping_mul(mod_inverse(M2)), 27);
    unxorshift(x.wrapping_mul(mod_inverse(M1)), 30)
}

/// The seeded bijection between key indices and 8-byte keys.
#[derive(Debug, Clone, Copy)]
pub struct KeySpace {
    salt: u64,
}

impl KeySpace {
    pub fn new(seed: u64) -> Self {
        KeySpace {
            salt: Rng::new(seed).next_u64(),
        }
    }

    pub fn key(&self, index: u64) -> [u8; KEY_BYTES] {
        mix(index ^ self.salt).to_be_bytes()
    }

    /// The index `key` was made from; `None` if it is not 8 bytes.
    pub fn index(&self, key: &[u8]) -> Option<u64> {
        let raw: [u8; KEY_BYTES] = key.try_into().ok()?;
        Some(unmix(u64::from_be_bytes(raw)) ^ self.salt)
    }
}

/// Who wrote a value, and which of that writer's puts it was. Writer 0 is
/// the set-up preload; clients are 1 and 2. Versions of one key order by
/// `(writer, seq)`: every key has one client owner, which writes after the
/// preload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Version {
    pub writer: u32,
    pub seq: u64,
}

impl Version {
    pub fn pack(self) -> u64 {
        (u64::from(self.writer) << 48) | self.seq
    }

    pub fn unpack(v: u64) -> Self {
        Version {
            writer: (v >> 48) as u32,
            seq: v & ((1 << 48) - 1),
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const BODY: usize = VALUE_BYTES - 8;

/// Encodes the value `version` writes under `key`: key, writer, sequence
/// number, a pseudo-random filler (so tables do not compress to nothing)
/// and a checksum over all of it.
pub fn encode_value(key: &[u8; KEY_BYTES], version: Version, out: &mut [u8; VALUE_BYTES]) {
    out[..8].copy_from_slice(key);
    out[8..12].copy_from_slice(&version.writer.to_be_bytes());
    out[12..20].copy_from_slice(&version.seq.to_be_bytes());
    let mut fill = Rng::new(u64::from_be_bytes(*key) ^ version.pack());
    for chunk in out[20..BODY].chunks_mut(8) {
        let word = fill.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    let sum = fnv1a(&out[..BODY]);
    out[BODY..].copy_from_slice(&sum.to_be_bytes());
}

/// Decodes a value read back under `key`; `None` if it is malformed, its
/// checksum fails, or it was written under another key.
pub fn decode_value(key: &[u8], value: &[u8]) -> Option<Version> {
    if value.len() != VALUE_BYTES || &value[..8] != key {
        return None;
    }
    let sum = u64::from_be_bytes(value[BODY..].try_into().ok()?);
    if fnv1a(&value[..BODY]) != sum {
        return None;
    }
    Some(Version {
        writer: u32::from_be_bytes(value[8..12].try_into().ok()?),
        seq: u64::from_be_bytes(value[12..20].try_into().ok()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_mapping_is_a_bijection() {
        let ks = KeySpace::new(7);
        for i in (0..1_000_000u64).step_by(997).chain([u64::MAX, 0, 1]) {
            assert_eq!(ks.index(&ks.key(i)), Some(i));
        }
        assert_eq!(ks.index(b"short"), None);
    }

    #[test]
    fn values_round_trip_and_detect_damage() {
        let key = KeySpace::new(1).key(42);
        let v = Version { writer: 2, seq: 9 };
        let mut buf = [0u8; VALUE_BYTES];
        encode_value(&key, v, &mut buf);
        assert_eq!(decode_value(&key, &buf), Some(v));
        assert_eq!(decode_value(&KeySpace::new(1).key(43), &buf), None);
        buf[100] ^= 1;
        assert_eq!(decode_value(&key, &buf), None);
        assert_eq!(Version::unpack(v.pack()), v);
    }
}
