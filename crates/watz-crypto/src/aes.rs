//! AES block cipher (FIPS 197), 128- and 256-bit keys, bitsliced and
//! constant-time.
//!
//! AES-128 backs the CMAC and GCM constructions of the WaTZ protocol;
//! AES-256 backs the Fortuna generator (Fortuna's reference design uses a
//! 256-bit block cipher key that is rehashed on every reseed).
//!
//! # Layout
//!
//! The cipher follows the 64-bit bitsliced layout of Käsper & Schwabe
//! ("Faster and Timing-Attack Resistant AES-GCM", CHES 2009) as BearSSL's
//! `aes_ct64` lays it out. Four blocks are processed at once in eight
//! `u64` words: word `i` holds bit `i` of every state byte of all four
//! blocks. Within a word, bits `16r..16r+16` hold row `r`, as four
//! columns of four lanes (one lane per block). [`interleave_in`] and
//! [`ortho`] (an 8×8 bit transpose) move between bytes and that layout.
//!
//! # Why it is constant-time
//!
//! No step reads a table or branches on state or key bits:
//!
//! - SubBytes is the Boyar–Peralta S-box circuit (113 XOR/AND/XNOR gates)
//!   applied to all 128 bytes of the four blocks in one pass.
//! - ShiftRows and MixColumns are masks, shifts and rotates of whole words.
//! - The key schedule runs `SubWord` through the same circuit, and the
//!   round keys are expanded once, in [`Aes::new_128`] / [`Aes::new_256`].
//!
//! One block costs as much as four, so bulk callers (GCM's counter mode,
//! Fortuna) use [`Aes::encrypt4`]. The cipher encrypts only: CMAC, GCM
//! and Fortuna never run the inverse cipher.

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;

/// Rounds of AES-256, the largest key size supported.
const MAX_ROUNDS: usize = 14;

const RCON: [u32; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// An expanded AES key, ready for encryption.
#[derive(Clone)]
pub struct Aes {
    /// Round keys in bitsliced form, the same key in all four lanes.
    round_keys: [[u64; 8]; MAX_ROUNDS + 1],
    rounds: usize,
}

impl core::fmt::Debug for Aes {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        write!(f, "Aes {{ rounds: {} }}", self.rounds)
    }
}

impl Aes {
    /// Expands a 128-bit key (AES-128, 10 rounds).
    #[must_use]
    pub fn new_128(key: &[u8; 16]) -> Self {
        Self::expand(key, 10)
    }

    /// Expands a 256-bit key (AES-256, 14 rounds).
    #[must_use]
    pub fn new_256(key: &[u8; 32]) -> Self {
        Self::expand(key, 14)
    }

    fn expand(key: &[u8], rounds: usize) -> Self {
        let nk = key.len() / 4;
        let total_words = 4 * (rounds + 1);
        // Words are little-endian, as `interleave_in` consumes them.
        let mut w = [0u32; 4 * (MAX_ROUNDS + 1)];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = le_word(bytes);
        }
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                // RotWord moves byte 0 to the top: a right rotation of a
                // little-endian word.
                temp = sub_word(temp.rotate_right(8)) ^ RCON[i / nk - 1];
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - nk] ^ temp;
        }
        let mut round_keys = [[0u64; 8]; MAX_ROUNDS + 1];
        for (rk, words) in round_keys.iter_mut().zip(w[..total_words].chunks_exact(4)) {
            let (lo, hi) = interleave_in([words[0], words[1], words[2], words[3]]);
            *rk = [lo, lo, lo, lo, hi, hi, hi, hi];
            ortho(rk);
        }
        Aes { round_keys, rounds }
    }

    /// Encrypts a single 16-byte block in place.
    ///
    /// This costs one four-block call; prefer [`Aes::encrypt4`] for bulk
    /// data.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let mut blocks = [*block, [0; 16], [0; 16], [0; 16]];
        self.encrypt4(&mut blocks);
        *block = blocks[0];
    }

    /// Returns the encryption of `block` without mutating the input.
    #[must_use]
    pub fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }

    /// Encrypts four independent 16-byte blocks in place, in one pass.
    pub fn encrypt4(&self, blocks: &mut [[u8; 16]; 4]) {
        let mut q = [0u64; 8];
        for (i, block) in blocks.iter().enumerate() {
            let words = core::array::from_fn(|j| le_word(&block[4 * j..4 * j + 4]));
            (q[i], q[i + 4]) = interleave_in(words);
        }
        ortho(&mut q);
        add_round_key(&mut q, &self.round_keys[0]);
        for rk in &self.round_keys[1..self.rounds] {
            sub_bytes(&mut q);
            shift_rows(&mut q);
            mix_columns(&mut q);
            add_round_key(&mut q, rk);
        }
        sub_bytes(&mut q);
        shift_rows(&mut q);
        add_round_key(&mut q, &self.round_keys[self.rounds]);
        ortho(&mut q);
        for (i, block) in blocks.iter_mut().enumerate() {
            let words = interleave_out(q[i], q[i + 4]);
            for (bytes, word) in block.chunks_exact_mut(4).zip(words) {
                bytes.copy_from_slice(&word.to_le_bytes());
            }
        }
    }
}

fn le_word(bytes: &[u8]) -> u32 {
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

/// `SubWord`: the S-box on each byte of a word, through the same circuit
/// as the rounds (one lane, bit 0 of each byte).
fn sub_word(x: u32) -> u32 {
    let mut q = [u64::from(x), 0, 0, 0, 0, 0, 0, 0];
    ortho(&mut q);
    sub_bytes(&mut q);
    ortho(&mut q);
    // The low 32 bits of word 0 are the substituted input bytes.
    (q[0] & 0xffff_ffff) as u32
}

/// Spreads one block's four little-endian words over two 64-bit words
/// (16-bit groups), ready for [`ortho`].
fn interleave_in(w: [u32; 4]) -> (u64, u64) {
    let spread = |x: u32| {
        let mut x = u64::from(x);
        x |= x << 16;
        x &= 0x0000_ffff_0000_ffff;
        x |= x << 8;
        x & 0x00ff_00ff_00ff_00ff
    };
    let [x0, x1, x2, x3] = w.map(spread);
    (x0 | (x2 << 8), x1 | (x3 << 8))
}

/// The inverse of [`interleave_in`].
fn interleave_out(q0: u64, q1: u64) -> [u32; 4] {
    let gather = |x: u64| {
        let mut x = x & 0x00ff_00ff_00ff_00ff;
        x |= x >> 8;
        x &= 0x0000_ffff_0000_ffff;
        ((x | (x >> 16)) & 0xffff_ffff) as u32
    };
    [gather(q0), gather(q1), gather(q0 >> 8), gather(q1 >> 8)]
}

/// Transposes the eight words as 8×8 bit matrices: afterwards, word `i`
/// holds bit `i` of every byte. The transpose is its own inverse.
fn ortho(q: &mut [u64; 8]) {
    fn swap(q: &mut [u64; 8], a: usize, b: usize, lo: u64, shift: u32) {
        let hi = lo << shift;
        let (x, y) = (q[a], q[b]);
        q[a] = (x & lo) | ((y & lo) << shift);
        q[b] = ((x & hi) >> shift) | (y & hi);
    }
    for (a, b) in [(0, 1), (2, 3), (4, 5), (6, 7)] {
        swap(q, a, b, 0x5555_5555_5555_5555, 1);
    }
    for (a, b) in [(0, 2), (1, 3), (4, 6), (5, 7)] {
        swap(q, a, b, 0x3333_3333_3333_3333, 2);
    }
    for (a, b) in [(0, 4), (1, 5), (2, 6), (3, 7)] {
        swap(q, a, b, 0x0f0f_0f0f_0f0f_0f0f, 4);
    }
}

fn add_round_key(q: &mut [u64; 8], rk: &[u64; 8]) {
    for (x, k) in q.iter_mut().zip(rk) {
        *x ^= k;
    }
}

/// SubBytes on all 128 bytes at once: the Boyar–Peralta circuit
/// ("A new combinational logic minimization technique with applications
/// to cryptology", SEA 2010). Inputs `x0..x7` and outputs `s0..s7` run
/// from the most to the least significant bit.
#[allow(clippy::many_single_char_names)]
fn sub_bytes(q: &mut [u64; 8]) {
    let [x7, x6, x5, x4, x3, x2, x1, x0] = *q;

    // Top linear transformation.
    let y14 = x3 ^ x5;
    let y13 = x0 ^ x6;
    let y9 = x0 ^ x3;
    let y8 = x0 ^ x5;
    let t0 = x1 ^ x2;
    let y1 = t0 ^ x7;
    let y4 = y1 ^ x3;
    let y12 = y13 ^ y14;
    let y2 = y1 ^ x0;
    let y5 = y1 ^ x6;
    let y3 = y5 ^ y8;
    let t1 = x4 ^ y12;
    let y15 = t1 ^ x5;
    let y20 = t1 ^ x1;
    let y6 = y15 ^ x7;
    let y10 = y15 ^ t0;
    let y11 = y20 ^ y9;
    let y7 = x7 ^ y11;
    let y17 = y10 ^ y11;
    let y19 = y10 ^ y8;
    let y16 = t0 ^ y11;
    let y21 = y13 ^ y16;
    let y18 = x0 ^ y16;

    // Non-linear section: inversion in GF(2^8) over GF(2^4).
    let t2 = y12 & y15;
    let t3 = y3 & y6;
    let t4 = t3 ^ t2;
    let t5 = y4 & x7;
    let t6 = t5 ^ t2;
    let t7 = y13 & y16;
    let t8 = y5 & y1;
    let t9 = t8 ^ t7;
    let t10 = y2 & y7;
    let t11 = t10 ^ t7;
    let t12 = y9 & y11;
    let t13 = y14 & y17;
    let t14 = t13 ^ t12;
    let t15 = y8 & y10;
    let t16 = t15 ^ t12;
    let t17 = t4 ^ t14;
    let t18 = t6 ^ t16;
    let t19 = t9 ^ t14;
    let t20 = t11 ^ t16;
    let t21 = t17 ^ y20;
    let t22 = t18 ^ y19;
    let t23 = t19 ^ y21;
    let t24 = t20 ^ y18;

    let t25 = t21 ^ t22;
    let t26 = t21 & t23;
    let t27 = t24 ^ t26;
    let t28 = t25 & t27;
    let t29 = t28 ^ t22;
    let t30 = t23 ^ t24;
    let t31 = t22 ^ t26;
    let t32 = t31 & t30;
    let t33 = t32 ^ t24;
    let t34 = t23 ^ t33;
    let t35 = t27 ^ t33;
    let t36 = t24 & t35;
    let t37 = t36 ^ t34;
    let t38 = t27 ^ t36;
    let t39 = t29 & t38;
    let t40 = t25 ^ t39;

    let t41 = t40 ^ t37;
    let t42 = t29 ^ t33;
    let t43 = t29 ^ t40;
    let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;
    let z0 = t44 & y15;
    let z1 = t37 & y6;
    let z2 = t33 & x7;
    let z3 = t43 & y16;
    let z4 = t40 & y1;
    let z5 = t29 & y7;
    let z6 = t42 & y11;
    let z7 = t45 & y17;
    let z8 = t41 & y10;
    let z9 = t44 & y12;
    let z10 = t37 & y3;
    let z11 = t33 & y4;
    let z12 = t43 & y13;
    let z13 = t40 & y5;
    let z14 = t29 & y2;
    let z15 = t42 & y9;
    let z16 = t45 & y14;
    let z17 = t41 & y8;

    // Bottom linear transformation.
    let t46 = z15 ^ z16;
    let t47 = z10 ^ z11;
    let t48 = z5 ^ z13;
    let t49 = z9 ^ z10;
    let t50 = z2 ^ z12;
    let t51 = z2 ^ z5;
    let t52 = z7 ^ z8;
    let t53 = z0 ^ z3;
    let t54 = z6 ^ z7;
    let t55 = z16 ^ z17;
    let t56 = z12 ^ t48;
    let t57 = t50 ^ t53;
    let t58 = z4 ^ t46;
    let t59 = z3 ^ t54;
    let t60 = t46 ^ t57;
    let t61 = z14 ^ t57;
    let t62 = t52 ^ t58;
    let t63 = t49 ^ t58;
    let t64 = z4 ^ t59;
    let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63;
    let s6 = t56 ^ !t62;
    let s7 = t48 ^ !t60;
    let t67 = t64 ^ t65;
    let s3 = t53 ^ t66;
    let s4 = t51 ^ t66;
    let s5 = t47 ^ t65;
    let s1 = t64 ^ !s3;
    let s2 = t55 ^ !t67;

    *q = [s7, s6, s5, s4, s3, s2, s1, s0];
}

/// ShiftRows: row `r` (bits `16r..16r+16` of each word) rotates left by
/// `r` columns of four lanes.
fn shift_rows(q: &mut [u64; 8]) {
    for x in q.iter_mut() {
        let v = *x;
        *x = (v & 0x0000_0000_0000_ffff)
            | ((v & 0x0000_0000_fff0_0000) >> 4)
            | ((v & 0x0000_0000_000f_0000) << 12)
            | ((v & 0x0000_ff00_0000_0000) >> 8)
            | ((v & 0x0000_00ff_0000_0000) << 8)
            | ((v & 0xf000_0000_0000_0000) >> 12)
            | ((v & 0x0fff_0000_0000_0000) << 4);
    }
}

/// MixColumns: multiplication by `x` (`xtime`) is a shift across the bit
/// words, and the column's other rows are the row rotations `r` (one row)
/// and `rotate_left(32)` (two rows).
fn mix_columns(q: &mut [u64; 8]) {
    let [q0, q1, q2, q3, q4, q5, q6, q7] = *q;
    let [r0, r1, r2, r3, r4, r5, r6, r7] = q.map(|x| x.rotate_right(16));
    let rot2 = |x: u64| x.rotate_left(32);
    *q = [
        q7 ^ r7 ^ r0 ^ rot2(q0 ^ r0),
        q0 ^ r0 ^ q7 ^ r7 ^ r1 ^ rot2(q1 ^ r1),
        q1 ^ r1 ^ r2 ^ rot2(q2 ^ r2),
        q2 ^ r2 ^ q7 ^ r7 ^ r3 ^ rot2(q3 ^ r3),
        q3 ^ r3 ^ q7 ^ r7 ^ r4 ^ rot2(q4 ^ r4),
        q4 ^ r4 ^ r5 ^ rot2(q5 ^ r5),
        q5 ^ r5 ^ r6 ^ rot2(q6 ^ r6),
        q6 ^ r6 ^ r7 ^ rot2(q7 ^ r7),
    ];
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The byte-wise table cipher the bitsliced one replaced, kept as the
    /// differential oracle (and for the inverse cipher, which production
    /// code never needs).
    pub(crate) mod oracle {
        pub(crate) const SBOX: [u8; 256] = [
            0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7,
            0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf,
            0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5,
            0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a,
            0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e,
            0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
            0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef,
            0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
            0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff,
            0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d,
            0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee,
            0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
            0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5,
            0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25, 0x2e,
            0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
            0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
            0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55,
            0x28, 0xdf, 0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
            0xb0, 0x54, 0xbb, 0x16,
        ];

        const INV_SBOX: [u8; 256] = {
            let mut inv = [0u8; 256];
            let mut i = 0;
            while i < 256 {
                inv[SBOX[i] as usize] = i as u8;
                i += 1;
            }
            inv
        };

        const RCON: [u8; 15] = [
            0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d,
            0x9a,
        ];

        fn xtime(b: u8) -> u8 {
            (b << 1) ^ (if b & 0x80 != 0 { 0x1b } else { 0 })
        }

        fn gmul(mut a: u8, mut b: u8) -> u8 {
            let mut p = 0u8;
            for _ in 0..8 {
                if b & 1 != 0 {
                    p ^= a;
                }
                a = xtime(a);
                b >>= 1;
            }
            p
        }

        /// An expanded key of the byte-wise cipher.
        pub(crate) struct TableAes {
            round_keys: Vec<[u8; 16]>,
            rounds: usize,
        }

        impl TableAes {
            pub(crate) fn new(key: &[u8]) -> Self {
                let nk = key.len() / 4;
                let rounds = nk + 6;
                let total_words = 4 * (rounds + 1);
                let mut w: Vec<[u8; 4]> = Vec::with_capacity(total_words);
                for i in 0..nk {
                    w.push([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
                }
                for i in nk..total_words {
                    let mut temp = w[i - 1];
                    if i % nk == 0 {
                        temp = [
                            SBOX[temp[1] as usize] ^ RCON[i / nk - 1],
                            SBOX[temp[2] as usize],
                            SBOX[temp[3] as usize],
                            SBOX[temp[0] as usize],
                        ];
                    } else if nk > 6 && i % nk == 4 {
                        temp = temp.map(|b| SBOX[b as usize]);
                    }
                    let prev = w[i - nk];
                    w.push(core::array::from_fn(|j| prev[j] ^ temp[j]));
                }
                let round_keys = w
                    .chunks_exact(4)
                    .map(|c| core::array::from_fn(|j| c[j / 4][j % 4]))
                    .collect();
                TableAes { round_keys, rounds }
            }

            pub(crate) fn encrypt_block(&self, block: &mut [u8; 16]) {
                add_round_key(block, &self.round_keys[0]);
                for round in 1..self.rounds {
                    sub_bytes(block);
                    shift_rows(block);
                    mix_columns(block);
                    add_round_key(block, &self.round_keys[round]);
                }
                sub_bytes(block);
                shift_rows(block);
                add_round_key(block, &self.round_keys[self.rounds]);
            }

            pub(crate) fn decrypt_block(&self, block: &mut [u8; 16]) {
                add_round_key(block, &self.round_keys[self.rounds]);
                for round in (1..self.rounds).rev() {
                    inv_shift_rows(block);
                    inv_sub_bytes(block);
                    add_round_key(block, &self.round_keys[round]);
                    inv_mix_columns(block);
                }
                inv_shift_rows(block);
                inv_sub_bytes(block);
                add_round_key(block, &self.round_keys[0]);
            }
        }

        fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
            for i in 0..16 {
                state[i] ^= rk[i];
            }
        }

        fn sub_bytes(state: &mut [u8; 16]) {
            for b in state.iter_mut() {
                *b = SBOX[*b as usize];
            }
        }

        fn inv_sub_bytes(state: &mut [u8; 16]) {
            for b in state.iter_mut() {
                *b = INV_SBOX[*b as usize];
            }
        }

        // State is column-major: state[4*c + r] is row r, column c.
        fn shift_rows(state: &mut [u8; 16]) {
            let s = *state;
            for r in 1..4 {
                for c in 0..4 {
                    state[4 * c + r] = s[4 * ((c + r) % 4) + r];
                }
            }
        }

        fn inv_shift_rows(state: &mut [u8; 16]) {
            let s = *state;
            for r in 1..4 {
                for c in 0..4 {
                    state[4 * ((c + r) % 4) + r] = s[4 * c + r];
                }
            }
        }

        fn mix_columns(state: &mut [u8; 16]) {
            for c in 0..4 {
                let col = [
                    state[4 * c],
                    state[4 * c + 1],
                    state[4 * c + 2],
                    state[4 * c + 3],
                ];
                state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
                state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
                state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
                state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
            }
        }

        fn inv_mix_columns(state: &mut [u8; 16]) {
            for c in 0..4 {
                let col = [
                    state[4 * c],
                    state[4 * c + 1],
                    state[4 * c + 2],
                    state[4 * c + 3],
                ];
                state[4 * c] = gmul(col[0], 0x0e)
                    ^ gmul(col[1], 0x0b)
                    ^ gmul(col[2], 0x0d)
                    ^ gmul(col[3], 0x09);
                state[4 * c + 1] = gmul(col[0], 0x09)
                    ^ gmul(col[1], 0x0e)
                    ^ gmul(col[2], 0x0b)
                    ^ gmul(col[3], 0x0d);
                state[4 * c + 2] = gmul(col[0], 0x0d)
                    ^ gmul(col[1], 0x09)
                    ^ gmul(col[2], 0x0e)
                    ^ gmul(col[3], 0x0b);
                state[4 * c + 3] = gmul(col[0], 0x0b)
                    ^ gmul(col[1], 0x0d)
                    ^ gmul(col[2], 0x09)
                    ^ gmul(col[3], 0x0e);
            }
        }
    }

    use oracle::TableAes;

    /// Seeded xorshift64 byte source for the differential tests.
    pub(crate) struct XorShift(pub(crate) u64);

    impl XorShift {
        pub(crate) fn next_u64(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        pub(crate) fn fill(&mut self, out: &mut [u8]) {
            for b in out {
                *b = self.next_u64().to_le_bytes()[0];
            }
        }

        pub(crate) fn array<const N: usize>(&mut self) -> [u8; N] {
            let mut out = [0u8; N];
            self.fill(&mut out);
            out
        }
    }

    // FIPS 197 Appendix C.1; the inverse cipher of the oracle takes the
    // ciphertext back to the plaintext.
    #[test]
    fn fips197_aes128() {
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let pt: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let mut block = pt;
        let aes = Aes::new_128(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a
            ]
        );
        TableAes::new(&key).decrypt_block(&mut block);
        assert_eq!(block, pt);
    }

    // FIPS 197 Appendix C.3.
    #[test]
    fn fips197_aes256() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let mut block = pt;
        let aes = Aes::new_256(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49,
                0x60, 0x89
            ]
        );
        TableAes::new(&key).decrypt_block(&mut block);
        assert_eq!(block, pt);
    }

    // RFC 3686-style known AES-128 single-block vector (SP 800-38A F.1.1).
    #[test]
    fn sp800_38a_ecb_block1() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block: [u8; 16] = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        Aes::new_128(&key).encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
                0xef, 0x97
            ]
        );
    }

    #[test]
    fn roundtrip_random_blocks() {
        // Deterministic pseudo-random roundtrips across both key sizes:
        // the bitsliced cipher encrypts, the oracle's inverse decrypts.
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 24) as u8
        };
        let key128: [u8; 16] = core::array::from_fn(|_| next());
        let key256: [u8; 32] = core::array::from_fn(|_| next());
        let (a128, o128) = (Aes::new_128(&key128), TableAes::new(&key128));
        let (a256, o256) = (Aes::new_256(&key256), TableAes::new(&key256));
        for _ in 0..64 {
            let block: [u8; 16] = core::array::from_fn(|_| next());
            let mut b = block;
            a128.encrypt_block(&mut b);
            assert_ne!(b, block);
            o128.decrypt_block(&mut b);
            assert_eq!(b, block);
            let mut b = block;
            a256.encrypt_block(&mut b);
            o256.decrypt_block(&mut b);
            assert_eq!(b, block);
        }
    }

    #[test]
    fn sbox_circuit_matches_table() {
        for x in 0..=255u8 {
            // Each byte of the word goes through the circuit on its own.
            let word = u32::from_le_bytes([x, x.wrapping_add(1), x ^ 0x5a, !x]);
            let expect =
                u32::from_le_bytes(word.to_le_bytes().map(|b| oracle::SBOX[usize::from(b)]));
            assert_eq!(sub_word(word), expect, "SubWord({word:08x})");
        }
    }

    fn check_against_oracle(key: &[u8], aes: &Aes, rng: &mut XorShift) {
        let oracle = TableAes::new(key);
        let mut blocks: [[u8; 16]; 4] = core::array::from_fn(|_| rng.array());
        // Keep the four lanes distinct so a lane mix-up cannot hide.
        for i in 1..4 {
            blocks[i][0] = blocks[0][0] ^ i as u8;
        }
        let mut expect = blocks;
        for b in &mut expect {
            oracle.encrypt_block(b);
        }
        let mut single = blocks[2];
        aes.encrypt_block(&mut single);
        assert_eq!(single, expect[2], "one-lane call");
        aes.encrypt4(&mut blocks);
        assert_eq!(blocks, expect, "four-lane call");
    }

    #[test]
    fn aes128_matches_table_oracle() {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        for _ in 0..1_000 {
            let key: [u8; 16] = rng.array();
            check_against_oracle(&key, &Aes::new_128(&key), &mut rng);
        }
    }

    #[test]
    fn aes256_matches_table_oracle() {
        let mut rng = XorShift(0xd1b5_4a32_d192_ed03);
        for _ in 0..1_000 {
            let key: [u8; 32] = rng.array();
            check_against_oracle(&key, &Aes::new_256(&key), &mut rng);
        }
    }
}
