//! Bloom filters for SSTable point-read short-circuiting.
//!
//! Classic double-hashing construction: two independent 64-bit FNV-1a
//! variants generate `k` probe positions `h1 + i·h2`. A negative answer is
//! definitive, so a point read can skip a sorted run without touching disk.

use fabric_common::codec::{Decode, Decoder, Encode, Encoder};
use fabric_common::{Error, Result};

/// A serializable bloom filter over byte-string keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    nbits: u64,
    k: u32,
}

fn fnv1a(data: &[u8], seed: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325 ^ seed;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl BloomFilter {
    /// Builds a filter sized for `expected_keys` at `bits_per_key`
    /// (10 bits/key ≈ 1% false-positive rate).
    pub fn new(expected_keys: usize, bits_per_key: usize) -> Self {
        let nbits = (expected_keys.max(1) * bits_per_key.max(1)).max(64) as u64;
        // Optimal k = ln2 * bits/key, clamped to a sane range.
        let k = ((bits_per_key as f64) * 0.69).round().clamp(1.0, 16.0) as u32;
        BloomFilter { bits: vec![0u64; nbits.div_ceil(64) as usize], nbits, k }
    }

    fn probes(&self, key: &[u8]) -> impl Iterator<Item = u64> + '_ {
        let h1 = fnv1a(key, 0);
        let h2 = fnv1a(key, 0x9E3779B97F4A7C15) | 1; // odd → full cycle
        let nbits = self.nbits;
        (0..self.k as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % nbits)
    }

    /// Inserts `key`.
    pub fn insert(&mut self, key: &[u8]) {
        let positions: Vec<u64> = self.probes(key).collect();
        for p in positions {
            self.bits[(p / 64) as usize] |= 1u64 << (p % 64);
        }
    }

    /// Whether `key` *may* be present (false positives possible, false
    /// negatives impossible).
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.probes(key).all(|p| self.bits[(p / 64) as usize] >> (p % 64) & 1 == 1)
    }

    /// Size of the filter's bit array in bytes.
    pub fn byte_size(&self) -> usize {
        self.bits.len() * 8
    }
}

impl Encode for BloomFilter {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.nbits);
        enc.put_u32(self.k);
        enc.put_u32(self.bits.len() as u32);
        for w in &self.bits {
            enc.put_u64(*w);
        }
    }
}

impl Decode for BloomFilter {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let nbits = dec.get_u64()?;
        let k = dec.get_u32()?;
        let nwords = dec.get_u32()? as usize;
        if nwords != (nbits.div_ceil(64)) as usize || k == 0 || k > 64 {
            return Err(Error::Codec(format!(
                "inconsistent bloom header: nbits={nbits} k={k} words={nwords}"
            )));
        }
        let mut bits = Vec::with_capacity(dec.capacity_for(nwords, 8));
        for _ in 0..nwords {
            bits.push(dec.get_u64()?);
        }
        Ok(BloomFilter { bits, nbits, k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(1000, 10);
        let keys: Vec<Vec<u8>> = (0..1000u32).map(|i| format!("key-{i}").into_bytes()).collect();
        for k in &keys {
            f.insert(k);
        }
        for k in &keys {
            assert!(f.may_contain(k), "false negative for {k:?}");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut f = BloomFilter::new(1000, 10);
        for i in 0..1000u32 {
            f.insert(format!("present-{i}").as_bytes());
        }
        let fp = (0..10_000u32)
            .filter(|i| f.may_contain(format!("absent-{i}").as_bytes()))
            .count();
        // 10 bits/key targets ~1%; allow generous slack.
        assert!(fp < 400, "false-positive count too high: {fp}/10000");
    }

    #[test]
    fn empty_filter_contains_nothing_surely() {
        let f = BloomFilter::new(100, 10);
        let hits = (0..1000u32)
            .filter(|i| f.may_contain(format!("k{i}").as_bytes()))
            .count();
        assert_eq!(hits, 0);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut f = BloomFilter::new(50, 8);
        for i in 0..50u32 {
            f.insert(&i.to_le_bytes());
        }
        let bytes = f.encode_to_vec();
        let back = BloomFilter::decode_exact(&bytes).unwrap();
        assert_eq!(back, f);
        for i in 0..50u32 {
            assert!(back.may_contain(&i.to_le_bytes()));
        }
    }

    #[test]
    fn decode_rejects_inconsistent_header() {
        let mut enc = Encoder::new();
        enc.put_u64(128).put_u32(4).put_u32(99); // wrong word count
        assert!(BloomFilter::decode_exact(enc.as_slice()).is_err());
    }

    #[test]
    fn tiny_filter_still_works() {
        let mut f = BloomFilter::new(1, 1);
        f.insert(b"a");
        assert!(f.may_contain(b"a"));
    }
}
