//! AES-128-GCM (NIST SP 800-38D), constant-time.
//!
//! WaTZ encrypts the `msg3` secret blob with AES-GCM-128 under the session
//! encryption key `Ke` (§IV). Fig 7 of the paper sweeps the blob size from
//! 0.5 MB to 3 MB through exactly this code path.
//!
//! Both halves follow Käsper & Schwabe ("Faster and Timing-Attack
//! Resistant AES-GCM", CHES 2009):
//!
//! - **CTR:** four counter blocks per call of the bitsliced [`Aes`].
//! - **GHASH:** the carry-less multiply of BearSSL's `ghash_ctmul64`. A
//!   64×64 carry-less product is four integer multiplies of operands
//!   masked to every fourth bit, so carries land in the 3-bit holes and
//!   are masked away; three Karatsuba products on the plain halves and
//!   three on the bit-reversed halves give the 256-bit product, which a
//!   shift-and-xor folds modulo the GCM polynomial.
//!
//! Neither half branches on, indexes by or addresses by key or data bits,
//! so the hash key `H` and the secret blob leave no timing trace. `H`'s
//! halves, their bit reversals and their xors are computed once in
//! [`AesGcm128::new`].

use crate::aes::Aes;
use crate::{ct_eq, CryptoError, Result};

/// GCM authentication tag length in bytes.
pub const TAG_LEN: usize = 16;

/// Recommended IV length in bytes (96 bits).
pub const IV_LEN: usize = 12;

/// AES-128-GCM AEAD cipher.
///
/// ```
/// use watz_crypto::gcm::AesGcm128;
/// let cipher = AesGcm128::new(&[0x42; 16]);
/// let iv = [7u8; 12];
/// let (ct, tag) = cipher.encrypt(&iv, b"secret blob", b"evidence header");
/// let pt = cipher.decrypt(&iv, &ct, b"evidence header", &tag).unwrap();
/// assert_eq!(pt, b"secret blob");
/// ```
#[derive(Clone)]
pub struct AesGcm128 {
    aes: Aes,
    ghash: GhashKey,
}

impl core::fmt::Debug for AesGcm128 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material (the hash key `H` included).
        f.write_str("AesGcm128")
    }
}

impl AesGcm128 {
    /// Creates a cipher from a 128-bit key.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        let aes = Aes::new_128(key);
        let ghash = GhashKey::new(&aes.encrypt(&[0u8; 16]));
        AesGcm128 { aes, ghash }
    }

    /// Encrypts `plaintext` with additional authenticated data `aad`.
    ///
    /// Returns the ciphertext and the 16-byte authentication tag.
    #[must_use]
    pub fn encrypt(
        &self,
        iv: &[u8; IV_LEN],
        plaintext: &[u8],
        aad: &[u8],
    ) -> (Vec<u8>, [u8; TAG_LEN]) {
        let j0 = self.j0(iv);
        let mut ct = plaintext.to_vec();
        self.ctr(&mut ct, inc32(j0));
        let tag = self.tag(&j0, aad, &ct);
        (ct, tag)
    }

    /// Decrypts `ciphertext`, verifying the tag against the AAD first.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::AuthenticationFailed`] if the tag does not
    /// verify; no plaintext is released in that case.
    pub fn decrypt(
        &self,
        iv: &[u8; IV_LEN],
        ciphertext: &[u8],
        aad: &[u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<Vec<u8>> {
        let j0 = self.j0(iv);
        let expect = self.tag(&j0, aad, ciphertext);
        if !ct_eq(&expect, tag) {
            return Err(CryptoError::AuthenticationFailed);
        }
        let mut pt = ciphertext.to_vec();
        self.ctr(&mut pt, inc32(j0));
        Ok(pt)
    }

    fn j0(&self, iv: &[u8; IV_LEN]) -> [u8; 16] {
        // 96-bit IV: J0 = IV || 0^31 || 1.
        let mut j0 = [0u8; 16];
        j0[..IV_LEN].copy_from_slice(iv);
        j0[15] = 1;
        j0
    }

    /// XORs the keystream starting at counter block `counter` into
    /// `data`, four blocks per cipher call.
    fn ctr(&self, data: &mut [u8], mut counter: [u8; 16]) {
        for chunk in data.chunks_mut(64) {
            let mut keystream = [[0u8; 16]; 4];
            for block in &mut keystream {
                *block = counter;
                counter = inc32(counter);
            }
            self.aes.encrypt4(&mut keystream);
            for (b, k) in chunk.iter_mut().zip(keystream.as_flattened()) {
                *b ^= k;
            }
        }
    }

    fn tag(&self, j0: &[u8; 16], aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        let mut y = 0u128;
        self.ghash.update(&mut y, aad);
        self.ghash.update(&mut y, ct);
        let mut len_block = [0u8; 16];
        len_block[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
        len_block[8..].copy_from_slice(&((ct.len() as u64) * 8).to_be_bytes());
        self.ghash.update(&mut y, &len_block);

        let e_j0 = self.aes.encrypt(j0);
        let mut tag = y.to_be_bytes();
        for (t, e) in tag.iter_mut().zip(e_j0.iter()) {
            *t ^= e;
        }
        tag
    }
}

/// Increments the rightmost 32 bits of the counter block (inc_32).
fn inc32(mut block: [u8; 16]) -> [u8; 16] {
    let ctr = u32::from_be_bytes([block[12], block[13], block[14], block[15]]).wrapping_add(1);
    block[12..].copy_from_slice(&ctr.to_be_bytes());
    block
}

/// The GHASH key `H` in the form the carry-less multiply consumes: its
/// high and low halves, their bit reversals and, for Karatsuba, the xor
/// of the two halves in both forms.
#[derive(Clone)]
struct GhashKey {
    h0: u64,
    h1: u64,
    h2: u64,
    h0r: u64,
    h1r: u64,
    h2r: u64,
}

impl GhashKey {
    fn new(h: &[u8; 16]) -> Self {
        let h = u128::from_be_bytes(*h);
        let (h1, h0) = split(h);
        let (h0r, h1r) = (h0.reverse_bits(), h1.reverse_bits());
        GhashKey {
            h0,
            h1,
            h2: h0 ^ h1,
            h0r,
            h1r,
            h2r: h0r ^ h1r,
        }
    }

    /// Absorbs `data` into the running hash `y`: `y = (y ^ block) · H`
    /// per 16-byte block, the final partial block zero-padded.
    fn update(&self, y: &mut u128, data: &[u8]) {
        let (mut y1, mut y0) = split(*y);
        let mut absorb = |block: &[u8]| {
            y1 ^= u64::from_be_bytes(block[..8].try_into().expect("8 bytes"));
            y0 ^= u64::from_be_bytes(block[8..].try_into().expect("8 bytes"));
            (y1, y0) = self.mul(y1, y0);
        };
        let mut chunks = data.chunks_exact(16);
        for block in &mut chunks {
            absorb(block);
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut block = [0u8; 16];
            block[..tail.len()].copy_from_slice(tail);
            absorb(&block);
        }
        *y = (u128::from(y1) << 64) | u128::from(y0);
    }

    /// `(y1 || y0) · H` in GF(2^128), in GCM's bit-reflected convention.
    fn mul(&self, y1: u64, y0: u64) -> (u64, u64) {
        let (y0r, y1r) = (y0.reverse_bits(), y1.reverse_bits());
        let (y2, y2r) = (y0 ^ y1, y0r ^ y1r);

        // Karatsuba on the plain halves (low 64 bits of each product) and
        // on the reversed halves (whose reversal is the high 64 bits).
        let z0 = bmul64(y0, self.h0);
        let z1 = bmul64(y1, self.h1);
        let z2 = bmul64(y2, self.h2) ^ z0 ^ z1;
        let z0h = bmul64(y0r, self.h0r);
        let z1h = bmul64(y1r, self.h1r);
        let z2h = bmul64(y2r, self.h2r) ^ z0h ^ z1h;
        let (z0h, z1h, z2h) = (
            z0h.reverse_bits() >> 1,
            z1h.reverse_bits() >> 1,
            z2h.reverse_bits() >> 1,
        );

        // The 256-bit product v3..v0, shifted left by one bit because the
        // operands are bit-reflected.
        let (v0, v1, v2, v3) = (z0, z0h ^ z2, z1 ^ z2h, z1h);
        let v3 = (v3 << 1) | (v2 >> 63);
        let v2 = (v2 << 1) | (v1 >> 63);
        let v1 = (v1 << 1) | (v0 >> 63);
        let v0 = v0 << 1;

        // Reduce modulo x^128 + x^7 + x^2 + x + 1.
        let v2 = v2 ^ v0 ^ (v0 >> 1) ^ (v0 >> 2) ^ (v0 >> 7);
        let v1 = v1 ^ (v0 << 63) ^ (v0 << 62) ^ (v0 << 57);
        let v3 = v3 ^ v1 ^ (v1 >> 1) ^ (v1 >> 2) ^ (v1 >> 7);
        let v2 = v2 ^ (v1 << 63) ^ (v1 << 62) ^ (v1 << 57);
        (v3, v2)
    }
}

/// Splits a 128-bit value into its high and low 64-bit halves.
fn split(x: u128) -> (u64, u64) {
    ((x >> 64) as u64, (x & u128::from(u64::MAX)) as u64)
}

/// Carry-less 64×64 → 64 (low half) multiplication with integer
/// multiplies. Each operand is split into four masks of every fourth bit,
/// so each 4-bit column of one product sums at most 15 one-bit terms
/// (16 only at bit 60, whose carry leaves the word): the column's low bit
/// is the carry-less bit, and its carries stay in the three zero bits
/// above it, which the final masks drop.
fn bmul64(x: u64, y: u64) -> u64 {
    const M0: u64 = 0x1111_1111_1111_1111;
    const M1: u64 = 0x2222_2222_2222_2222;
    const M2: u64 = 0x4444_4444_4444_4444;
    const M3: u64 = 0x8888_8888_8888_8888;
    let (x0, x1, x2, x3) = (x & M0, x & M1, x & M2, x & M3);
    let (y0, y1, y2, y3) = (y & M0, y & M1, y & M2, y & M3);
    let m = u64::wrapping_mul;
    let z0 = m(x0, y0) ^ m(x1, y3) ^ m(x2, y2) ^ m(x3, y1);
    let z1 = m(x0, y1) ^ m(x1, y0) ^ m(x2, y3) ^ m(x3, y2);
    let z2 = m(x0, y2) ^ m(x1, y1) ^ m(x2, y0) ^ m(x3, y3);
    let z3 = m(x0, y3) ^ m(x1, y2) ^ m(x2, y1) ^ m(x3, y0);
    (z0 & M0) | (z1 & M1) | (z2 & M2) | (z3 & M3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::tests::oracle::TableAes;
    use crate::aes::tests::XorShift;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// GF(2^128) multiplication with the GCM polynomial (bit-reflected per
    /// spec), one bit per step: the bitwise oracle for [`GhashKey::mul`].
    fn gf_mul(x: u128, y: u128) -> u128 {
        const R: u128 = 0xe1 << 120;
        let mut z = 0u128;
        let mut v = y;
        for i in 0..128 {
            if (x >> (127 - i)) & 1 == 1 {
                z ^= v;
            }
            let lsb = v & 1;
            v >>= 1;
            if lsb == 1 {
                v ^= R;
            }
        }
        z
    }

    /// GHASH composed from the bitwise oracle, one zero-padded block at a
    /// time.
    fn oracle_ghash(h: u128, y: &mut u128, data: &[u8]) {
        for chunk in data.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            *y = gf_mul(*y ^ u128::from_be_bytes(block), h);
        }
    }

    /// AES-128-GCM composed from the table AES and bitwise GHASH oracles.
    fn oracle_encrypt(key: &[u8; 16], iv: &[u8; 12], pt: &[u8], aad: &[u8]) -> (Vec<u8>, [u8; 16]) {
        let aes = TableAes::new(key);
        let encrypt = |block: &[u8; 16]| {
            let mut b = *block;
            aes.encrypt_block(&mut b);
            b
        };
        let h = u128::from_be_bytes(encrypt(&[0u8; 16]));
        let mut j0 = [0u8; 16];
        j0[..12].copy_from_slice(iv);
        j0[15] = 1;
        let mut ct = pt.to_vec();
        let mut counter = j0;
        for chunk in ct.chunks_mut(16) {
            counter = inc32(counter);
            for (c, k) in chunk.iter_mut().zip(encrypt(&counter)) {
                *c ^= k;
            }
        }
        let mut y = 0u128;
        oracle_ghash(h, &mut y, aad);
        oracle_ghash(h, &mut y, &ct);
        let lens = (u128::from(aad.len() as u64 * 8) << 64) | u128::from(ct.len() as u64 * 8);
        y = gf_mul(y ^ lens, h);
        let tag = (y ^ u128::from_be_bytes(encrypt(&j0))).to_be_bytes();
        (ct, tag)
    }

    #[test]
    fn ghash_matches_bitwise_oracle() {
        let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
        let mut data = [0u8; 257];
        for case in 0..1_200 {
            let h: [u8; 16] = rng.array();
            let len = case % 258;
            rng.fill(&mut data[..len]);
            let y0 = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
            let mut y = y0;
            GhashKey::new(&h).update(&mut y, &data[..len]);
            let mut expect = y0;
            oracle_ghash(u128::from_be_bytes(h), &mut expect, &data[..len]);
            assert_eq!(y, expect, "case {case}, {len} bytes");
        }
    }

    #[test]
    fn gcm_matches_oracle_composition() {
        let mut rng = XorShift(0x6a09_e667_f3bc_c908);
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 4_096 + 7] {
            for aad_len in [0usize, 20] {
                let key: [u8; 16] = rng.array();
                let iv: [u8; 12] = rng.array();
                let mut pt = vec![0u8; len];
                rng.fill(&mut pt);
                let mut aad = vec![0u8; aad_len];
                rng.fill(&mut aad);
                let cipher = AesGcm128::new(&key);
                let (ct, tag) = cipher.encrypt(&iv, &pt, &aad);
                assert_eq!((ct.clone(), tag), oracle_encrypt(&key, &iv, &pt, &aad));
                assert_eq!(cipher.decrypt(&iv, &ct, &aad, &tag).unwrap(), pt);

                let mut bad_tag = tag;
                bad_tag[len % 16] ^= 0x01;
                assert!(cipher.decrypt(&iv, &ct, &aad, &bad_tag).is_err());
                if len > 0 {
                    let mut bad_ct = ct.clone();
                    bad_ct[len - 1] ^= 0x80;
                    assert!(cipher.decrypt(&iv, &bad_ct, &aad, &tag).is_err());
                }
                if aad_len > 0 {
                    let mut bad_aad = aad.clone();
                    bad_aad[0] ^= 0x02;
                    assert!(cipher.decrypt(&iv, &ct, &bad_aad, &tag).is_err());
                }
            }
        }
    }

    // SP 800-38A F.5.1 (CTR-AES128.Encrypt): exactly one four-lane call.
    // The standard increments the whole block; for these four counters
    // that equals `inc32`.
    #[test]
    fn sp800_38a_ctr_aes128() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let counter: [u8; 16] = core::array::from_fn(|i| 0xf0 + i as u8);
        let pt = "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
                  30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710";
        let mut data: Vec<u8> = (0..pt.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&pt[i..i + 2], 16).unwrap())
            .collect();
        AesGcm128::new(&key).ctr(&mut data, counter);
        assert_eq!(
            hex(&data),
            "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff\
             5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee"
        );
    }

    // NIST GCM spec, test case 1: zero key, zero IV, empty everything.
    #[test]
    fn nist_case1_empty() {
        let cipher = AesGcm128::new(&[0u8; 16]);
        let (ct, tag) = cipher.encrypt(&[0u8; 12], b"", b"");
        assert!(ct.is_empty());
        assert_eq!(hex(&tag), "58e2fccefa7e3061367f1d57a4e7455a");
    }

    // NIST GCM spec, test case 2: zero key/IV, 16 zero bytes of plaintext.
    #[test]
    fn nist_case2_single_block() {
        let cipher = AesGcm128::new(&[0u8; 16]);
        let (ct, tag) = cipher.encrypt(&[0u8; 12], &[0u8; 16], b"");
        assert_eq!(hex(&ct), "0388dace60b6a392f328c2b971b2fe78");
        assert_eq!(hex(&tag), "ab6e47d42cec13bdf53a67b21257bddf");
    }

    #[test]
    fn roundtrip_with_aad() {
        let cipher = AesGcm128::new(b"0123456789abcdef");
        let iv = [9u8; 12];
        let msg = b"the confidential secret blob of the relying party";
        let aad = b"watz-msg3";
        let (ct, tag) = cipher.encrypt(&iv, msg, aad);
        assert_ne!(&ct[..], &msg[..]);
        let pt = cipher.decrypt(&iv, &ct, aad, &tag).unwrap();
        assert_eq!(pt, msg);
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let cipher = AesGcm128::new(&[1u8; 16]);
        let iv = [2u8; 12];
        let (mut ct, tag) = cipher.encrypt(&iv, b"data", b"");
        ct[0] ^= 1;
        assert_eq!(
            cipher.decrypt(&iv, &ct, b"", &tag),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn tampered_tag_rejected() {
        let cipher = AesGcm128::new(&[1u8; 16]);
        let iv = [2u8; 12];
        let (ct, mut tag) = cipher.encrypt(&iv, b"data", b"");
        tag[15] ^= 0x80;
        assert!(cipher.decrypt(&iv, &ct, b"", &tag).is_err());
    }

    #[test]
    fn wrong_aad_rejected() {
        let cipher = AesGcm128::new(&[1u8; 16]);
        let iv = [2u8; 12];
        let (ct, tag) = cipher.encrypt(&iv, b"data", b"aad-one");
        assert!(cipher.decrypt(&iv, &ct, b"aad-two", &tag).is_err());
    }

    #[test]
    fn large_payload_roundtrip() {
        let cipher = AesGcm128::new(&[7u8; 16]);
        let iv = [3u8; 12];
        let msg: Vec<u8> = (0..65_537u32).map(|i| (i % 251) as u8).collect();
        let (ct, tag) = cipher.encrypt(&iv, &msg, b"");
        let pt = cipher.decrypt(&iv, &ct, b"", &tag).unwrap();
        assert_eq!(pt, msg);
    }
}
