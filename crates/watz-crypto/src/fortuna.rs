//! Fortuna PRNG (Ferguson & Schneier), generator part.
//!
//! OP-TEE's stock PRNG cannot be seeded, so the WaTZ authors added Fortuna to
//! LibTomCrypt and feed it the MKVB (the hash of the fused OTPMK) to derive
//! the device attestation key pair **deterministically at every boot** (§V).
//! We reproduce exactly that usage: a seedable, deterministic generator.
//!
//! The generator is AES-256 in counter mode; reseeding sets
//! `key = SHA-256(key || seed)`, and after every request the key is replaced
//! by two fresh counter blocks (the "generator gate") so earlier outputs
//! cannot be reconstructed from a captured state.

use crate::aes::Aes;
use crate::sha256::Sha256;

/// Fortuna generator.
#[derive(Clone)]
pub struct Fortuna {
    key: [u8; 32],
    counter: u128,
    cipher: Aes,
}

impl core::fmt::Debug for Fortuna {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fortuna {{ counter: {} }}", self.counter)
    }
}

impl Fortuna {
    /// Creates a generator seeded with `seed` (e.g. the device MKVB).
    #[must_use]
    pub fn from_seed(seed: &[u8]) -> Self {
        // The first reseed, from the all-zero key and counter, without
        // expanding a key that is replaced at once.
        let key = Self::rehash(&[0u8; 32], seed);
        Fortuna {
            key,
            counter: 1,
            cipher: Aes::new_256(&key),
        }
    }

    /// Mixes additional seed material into the generator state.
    pub fn reseed(&mut self, seed: &[u8]) {
        self.key = Self::rehash(&self.key, seed);
        self.counter = self.counter.wrapping_add(1);
        self.cipher = Aes::new_256(&self.key);
    }

    /// Fills `out` with pseudorandom bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        // The output blocks and the two generator-gate blocks that rekey
        // the generator (so previous outputs are unrecoverable) are one
        // counter stream, drawn four blocks per cipher call.
        let out_len = out.len();
        let out_blocks = out_len.div_ceil(16);
        let total = out_blocks + 2;
        let mut next_key = [0u8; 32];
        let mut done = 0;
        while done < total {
            let take = (total - done).min(4);
            // Counter is encoded little-endian per the Fortuna reference
            // design. Lanes past `take` are encrypted and discarded.
            let mut batch: [[u8; 16]; 4] =
                core::array::from_fn(|i| self.counter.wrapping_add(i as u128).to_le_bytes());
            self.cipher.encrypt4(&mut batch);
            self.counter = self.counter.wrapping_add(take as u128);
            for (idx, block) in (done..).zip(&batch[..take]) {
                let dst = if idx < out_blocks {
                    let start = 16 * idx;
                    &mut out[start..(start + 16).min(out_len)]
                } else {
                    let start = 16 * (idx - out_blocks);
                    &mut next_key[start..start + 16]
                };
                dst.copy_from_slice(&block[..dst.len()]);
            }
            done += take;
        }
        self.key = next_key;
        self.cipher = Aes::new_256(&self.key);
    }

    /// Returns `n` pseudorandom bytes.
    #[must_use]
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        self.fill_bytes(&mut out);
        out
    }

    /// Returns a pseudorandom `u64`.
    #[must_use]
    pub fn next_u64(&mut self) -> u64 {
        let mut buf = [0u8; 8];
        self.fill_bytes(&mut buf);
        u64::from_le_bytes(buf)
    }

    fn rehash(key: &[u8; 32], seed: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(key);
        h.update(seed);
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::tests::oracle::TableAes;

    /// The one-block-at-a-time generator over the table AES oracle.
    struct OracleFortuna {
        key: [u8; 32],
        counter: u128,
    }

    impl OracleFortuna {
        fn reseed(&mut self, seed: &[u8]) {
            self.key = Fortuna::rehash(&self.key, seed);
            self.counter = self.counter.wrapping_add(1);
        }

        fn fill_bytes(&mut self, out: &mut [u8]) {
            let aes = TableAes::new(&self.key);
            let mut next_block = || {
                let mut block = self.counter.to_le_bytes();
                aes.encrypt_block(&mut block);
                self.counter = self.counter.wrapping_add(1);
                block
            };
            for chunk in out.chunks_mut(16) {
                chunk.copy_from_slice(&next_block()[..chunk.len()]);
            }
            let (k0, k1) = (next_block(), next_block());
            self.key[..16].copy_from_slice(&k0);
            self.key[16..].copy_from_slice(&k1);
        }
    }

    #[test]
    fn batched_stream_matches_one_block_oracle() {
        let mut g = Fortuna::from_seed(b"mkvb");
        let mut o = OracleFortuna {
            key: [0u8; 32],
            counter: 0,
        };
        o.reseed(b"mkvb");
        for len in [
            0usize, 1, 15, 16, 17, 31, 32, 33, 47, 48, 49, 64, 65, 100, 1000,
        ] {
            let mut expect = vec![0u8; len];
            o.fill_bytes(&mut expect);
            assert_eq!(g.bytes(len), expect, "{len}-byte request");
            assert_eq!((g.key, g.counter), (o.key, o.counter));
            if len == 33 {
                g.reseed(b"entropy");
                o.reseed(b"entropy");
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Fortuna::from_seed(b"mkvb");
        let mut b = Fortuna::from_seed(b"mkvb");
        assert_eq!(a.bytes(100), b.bytes(100));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Fortuna::from_seed(b"device-a");
        let mut b = Fortuna::from_seed(b"device-b");
        assert_ne!(a.bytes(32), b.bytes(32));
    }

    #[test]
    fn reseed_changes_stream() {
        let mut a = Fortuna::from_seed(b"seed");
        let mut b = Fortuna::from_seed(b"seed");
        b.reseed(b"entropy");
        assert_ne!(a.bytes(32), b.bytes(32));
    }

    #[test]
    fn generator_gate_rolls_key() {
        let mut g = Fortuna::from_seed(b"seed");
        let first = g.bytes(16);
        let second = g.bytes(16);
        assert_ne!(first, second);
    }

    #[test]
    fn output_looks_balanced() {
        // Crude sanity check: ~50% ones over 64 KiB.
        let mut g = Fortuna::from_seed(b"balance");
        let data = g.bytes(65536);
        let ones: u32 = data.iter().map(|b| b.count_ones()).sum();
        let total = 65536 * 8;
        let ratio = f64::from(ones) / f64::from(total as u32);
        assert!((0.49..0.51).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn partial_block_requests() {
        let mut g = Fortuna::from_seed(b"partial");
        assert_eq!(g.bytes(1).len(), 1);
        assert_eq!(g.bytes(17).len(), 17);
        assert_eq!(g.bytes(0).len(), 0);
    }
}
