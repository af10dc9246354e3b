//! A deterministic random bit generator built on SHA-256.
//!
//! Every experiment in the PEM reproduction is seeded, so runs are exactly
//! repeatable. [`HashDrbg`] implements [`rand::RngCore`] and
//! [`rand::CryptoRng`], making it usable anywhere the `rand` ecosystem
//! expects a generator (prime generation, nonce sampling, …).

use rand::{CryptoRng, RngCore};

use crate::sha256::Sha256;

/// Deterministic hash-counter DRBG (SHA-256 in counter mode).
///
/// Not reseedable and not fork-safe — it is a *reproducibility* tool for
/// simulations, mirroring NIST Hash_DRBG's generate path.
///
/// # Example
///
/// ```
/// use pem_crypto::drbg::HashDrbg;
/// use rand::RngCore;
///
/// let mut a = HashDrbg::from_seed_label(b"experiment", 7);
/// let mut b = HashDrbg::from_seed_label(b"experiment", 7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct HashDrbg {
    key: [u8; 32],
    counter: u64,
    buffer: [u8; 32],
    buffer_pos: usize,
}

impl HashDrbg {
    /// Creates a generator from arbitrary seed bytes.
    pub fn new(seed: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update(b"pem-drbg-v1");
        h.update(seed);
        Self::from_key(h.finalize())
    }

    /// Creates a generator whose key is `key`, a SHA-256 digest the
    /// caller has already derived (one compression fewer than
    /// [`HashDrbg::new`] over the digest's preimage).
    pub fn from_key(key: [u8; 32]) -> Self {
        HashDrbg {
            key,
            counter: 0,
            buffer: [0u8; 32],
            buffer_pos: 32, // force refill on first use
        }
    }

    /// Creates a generator from a label and numeric stream id — the
    /// conventional way agents derive per-window randomness.
    pub fn from_seed_label(label: &[u8], stream: u64) -> Self {
        let mut h = Sha256::new();
        h.update(label);
        h.update(&stream.to_be_bytes());
        Self::new(&h.finalize())
    }

    fn refill(&mut self) {
        let mut h = Sha256::new();
        h.update(&self.key);
        h.update(&self.counter.to_be_bytes());
        self.buffer = h.finalize();
        self.counter += 1;
        self.buffer_pos = 0;
    }
}

impl RngCore for HashDrbg {
    fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill_bytes(&mut b);
        u32::from_le_bytes(b)
    }

    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut written = 0;
        while written < dest.len() {
            if self.buffer_pos >= 32 {
                self.refill();
            }
            let take = (32 - self.buffer_pos).min(dest.len() - written);
            dest[written..written + take]
                .copy_from_slice(&self.buffer[self.buffer_pos..self.buffer_pos + take]);
            self.buffer_pos += take;
            written += take;
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl CryptoRng for HashDrbg {}

#[cfg(test)]
mod tests {
    use super::*;
    use pem_bignum::BigUint;

    #[test]
    fn deterministic_streams() {
        let mut a = HashDrbg::new(b"seed");
        let mut b = HashDrbg::new(b"seed");
        let mut buf_a = [0u8; 100];
        let mut buf_b = [0u8; 100];
        a.fill_bytes(&mut buf_a);
        b.fill_bytes(&mut buf_b);
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = HashDrbg::new(b"seed-1");
        let mut b = HashDrbg::new(b"seed-2");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn label_and_stream_separation() {
        let mut a = HashDrbg::from_seed_label(b"agent", 0);
        let mut b = HashDrbg::from_seed_label(b"agent", 1);
        let mut c = HashDrbg::from_seed_label(b"tnega", 0);
        let x = a.next_u64();
        assert_ne!(x, b.next_u64());
        assert_ne!(x, c.next_u64());
    }

    #[test]
    fn chunked_reads_match_bulk() {
        let mut a = HashDrbg::new(b"chunk");
        let mut b = HashDrbg::new(b"chunk");
        let mut bulk = [0u8; 96];
        a.fill_bytes(&mut bulk);
        let mut pieces = Vec::new();
        for size in [1usize, 31, 32, 32] {
            let mut p = vec![0u8; size];
            b.fill_bytes(&mut p);
            pieces.extend_from_slice(&p);
        }
        assert_eq!(&bulk[..], &pieces[..]);
    }

    #[test]
    fn drives_bignum_sampling() {
        let mut rng = HashDrbg::new(b"bignum");
        let bound = BigUint::from(1_000_000u64);
        for _ in 0..50 {
            assert!(BigUint::random_below(&bound, &mut rng) < bound);
        }
    }

    #[test]
    fn bytes_look_unbiased() {
        // Crude sanity check: mean of 10k bytes within 10 of 127.5.
        let mut rng = HashDrbg::new(b"bias");
        let mut buf = vec![0u8; 10_000];
        rng.fill_bytes(&mut buf);
        let mean: f64 = buf.iter().map(|&b| b as f64).sum::<f64>() / buf.len() as f64;
        assert!((mean - 127.5).abs() < 10.0, "mean {mean}");
    }
}
