//! NIST P-256 (secp256r1) arithmetic: 256-bit integers, Montgomery-form
//! modular arithmetic, and Jacobian-coordinate group operations.
//!
//! The paper selects secp256r1 "as recommended by the NIST" for both the
//! attestation key pair (ECDSA) and the session keys (ECDHE). This module is
//! the shared arithmetic core for [`crate::ecdsa`] and [`crate::ecdh`].
//!
//! **Field arithmetic.** One [`Modulus`] type serves both the field prime
//! `p` and the group order `n`: a 4×64-bit CIOS Montgomery multiplication
//! with a dedicated squaring (Gueron & Krasnov, "Fast prime field
//! elliptic-curve cryptography with 256-bit primes", 2015). Values on the
//! hot path stay in Montgomery form `a·R mod m` (`R = 2^256`); they are
//! converted once on the way in and once on the way out. Inversion is
//! Fermat's `a^(m-2)` evaluated by a fixed 4-bit window over the public
//! exponent, so its sequence of operations depends only on `m`. All
//! Montgomery constants are computed at compile time from `m`.
//!
//! **Scalar multiplication.** The generator uses a table of 960 affine
//! points (`d·16^w·G`, 64 windows × 15 digits, in Montgomery form), so
//! `k·G` is 64 mixed additions. Any other point uses one fixed 4-bit
//! window routine ([`JacobianPoint::mul_scalar`]) with a 16-entry table on
//! the stack: 4 doublings and one addition per digit. It serves both the
//! ECDH shared secret and the `u2·Q` half of ECDSA verification.
//!
//! **Constant time.** Both scalar multiplications reduce the scalar mod `n`
//! and then run the same operations for every scalar: every digit, zero or
//! not, costs one addition; each table lookup reads every entry of its
//! window and keeps the wanted one with a mask; infinity operands are
//! resolved by masked selection. The one branch in point addition (the
//! doubling case `P == Q`) cannot be reached from a reduced scalar's digit
//! sums, so it is never taken on a secret-scalar path. A test-only trace of
//! field operations and table reads checks this for scalars of different
//! Hamming weight and length. Validation of public inputs (point decoding,
//! signature ranges) may branch.
//!
//! **Oracle.** The fold-reduction arithmetic, Fermat inversion and
//! double-and-add that this module used before Montgomery form live on in
//! the unit tests (`tests::oracle`) as an independent differential oracle.

/// A 256-bit unsigned integer, four little-endian `u64` limbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct U256(pub [u64; 4]);

impl U256 {
    /// Zero.
    pub const ZERO: U256 = U256([0; 4]);
    /// One.
    pub const ONE: U256 = U256([1, 0, 0, 0]);

    /// Builds from a 32-byte big-endian encoding.
    #[must_use]
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut word = [0u8; 8];
            word.copy_from_slice(&bytes[(3 - i) * 8..(4 - i) * 8]);
            limbs[i] = u64::from_be_bytes(word);
        }
        U256(limbs)
    }

    /// Serializes to 32 big-endian bytes.
    #[must_use]
    pub fn to_be_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[(3 - i) * 8..(4 - i) * 8].copy_from_slice(&self.0[i].to_be_bytes());
        }
        out
    }

    /// Parses a hexadecimal string (no `0x` prefix, up to 64 digits).
    ///
    /// # Panics
    ///
    /// Panics on invalid hex; intended for tests and benchmarks.
    #[must_use]
    pub fn from_hex(s: &str) -> Self {
        assert!(s.len() <= 64, "hex too long");
        let mut bytes = [0u8; 32];
        let padded = format!("{s:0>64}");
        for i in 0..32 {
            bytes[i] = u8::from_str_radix(&padded[2 * i..2 * i + 2], 16).expect("invalid hex");
        }
        U256::from_be_bytes(&bytes)
    }

    /// True if the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// True if the lowest bit is set.
    #[must_use]
    pub fn is_odd(&self) -> bool {
        self.0[0] & 1 == 1
    }

    /// Returns bit `i` (0 = least significant).
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits.
    #[must_use]
    pub fn bits(&self) -> usize {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return 64 * i + (64 - self.0[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// `self < other`.
    #[must_use]
    pub fn lt(&self, other: &U256) -> bool {
        for i in (0..4).rev() {
            if self.0[i] != other.0[i] {
                return self.0[i] < other.0[i];
            }
        }
        false
    }

    /// Wrapping addition; returns (sum, carry).
    #[must_use]
    pub const fn adc(&self, other: &U256) -> (U256, bool) {
        // Carries ride in a u128 rather than a bool pair: the compiler
        // turns this into an add-with-carry chain.
        let mut out = [0u64; 4];
        let mut carry = 0u128;
        let mut i = 0;
        while i < 4 {
            let t = self.0[i] as u128 + other.0[i] as u128 + carry;
            out[i] = t as u64;
            carry = t >> 64;
            i += 1;
        }
        (U256(out), carry != 0)
    }

    /// Wrapping subtraction; returns (difference, borrow).
    #[must_use]
    pub const fn sbb(&self, other: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = 0u128;
        let mut i = 0;
        while i < 4 {
            let t = (self.0[i] as u128).wrapping_sub(other.0[i] as u128 + borrow);
            out[i] = t as u64;
            borrow = t >> 127;
            i += 1;
        }
        (U256(out), borrow != 0)
    }

    /// Full 256×256 → 512-bit multiplication (lo, hi).
    #[must_use]
    pub fn widening_mul(&self, other: &U256) -> (U256, U256) {
        let mut t = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let cur =
                    u128::from(t[i + j]) + u128::from(self.0[i]) * u128::from(other.0[j]) + carry;
                t[i + j] = cur as u64;
                carry = cur >> 64;
            }
            t[i + 4] = carry as u64;
        }
        (
            U256([t[0], t[1], t[2], t[3]]),
            U256([t[4], t[5], t[6], t[7]]),
        )
    }
}

/// All-ones if `a == b`, else zero, without a data-dependent branch.
const fn ct_eq_mask(a: u64, b: u64) -> u64 {
    let v = a ^ b;
    ((v | v.wrapping_neg()) >> 63).wrapping_sub(1)
}

/// All-ones if `x == 0`, else zero, without a data-dependent branch.
const fn ct_is_zero(x: &U256) -> u64 {
    ct_eq_mask(x.0[0] | x.0[1] | x.0[2] | x.0[3], 0)
}

/// `a` where `mask` is all-ones, `b` where it is zero.
const fn ct_select(mask: u64, a: &U256, b: &U256) -> U256 {
    let mut out = [0u64; 4];
    let mut i = 0;
    while i < 4 {
        out[i] = (a.0[i] & mask) | (b.0[i] & !mask);
        i += 1;
    }
    U256(out)
}

/// Hex digit `w` (0 = least significant) of `k`.
fn nibble(k: &U256, w: usize) -> u64 {
    (k.0[w / 16] >> ((w % 16) * 4)) & 0xf
}

/// What the constant-time gate records: every multiplicative and additive
/// field operation, and the index of every entry read from a table that a
/// secret digit selects from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Mul,
    Sqr,
    Add,
    Sub,
    Read(u8),
}

/// Records `op` in the test-only trace; compiles to nothing otherwise.
#[inline(always)]
fn trace(op: Op) {
    #[cfg(test)]
    tests::ct_trace::record(op);
    #[cfg(not(test))]
    let _ = op;
}

/// Montgomery arithmetic modulo an odd `m` with `2^255 < m < 2^256`.
///
/// [`Modulus::mul`], [`Modulus::sqr`] and [`Modulus::inv`] act on Montgomery
/// representatives: `mul(a·R, b·R) = a·b·R`. A product of one Montgomery
/// and one plain operand is therefore plain (`mul(a·R, b) = a·b`), which is
/// how ECDSA's few scalar products avoid conversions. Addition,
/// subtraction and negation work in either form. No operation branches on
/// its operands.
#[derive(Debug, Clone, Copy)]
pub struct Modulus {
    /// The modulus itself.
    pub m: U256,
    /// `-m⁻¹ mod 2^64`, the per-limb reduction factor.
    m_inv: u64,
    /// `R mod m`: one in Montgomery form.
    one: U256,
    /// `R² mod m`, which [`Modulus::to_mont`] multiplies by.
    r2: U256,
}

impl Modulus {
    /// Creates a context, computing the Montgomery constants from `m`.
    ///
    /// # Panics
    ///
    /// Panics (at compile time for the curve constants) unless `m` is odd
    /// and `2^255 < m`.
    #[must_use]
    pub const fn new(m: U256) -> Self {
        assert!(
            m.0[0] & 1 == 1 && m.0[3] >> 63 == 1,
            "modulus must be odd and above 2^255"
        );
        // Newton's iteration doubles the correct low bits of m⁻¹ mod 2^64
        // each round: 1 → 2 → 4 → … → 64.
        let mut inv = 1u64;
        let mut i = 0;
        while i < 6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m.0[0].wrapping_mul(inv)));
            i += 1;
        }
        // R mod m = 2^256 - m, the wrapping negation (m > 2^255).
        let one = U256::ZERO.sbb(&m).0;
        // R² mod m: double R mod m another 256 times.
        let mut r2 = one;
        let mut i = 0;
        while i < 256 {
            r2 = add_mod(&r2, &r2, &m);
            i += 1;
        }
        Modulus {
            m,
            m_inv: inv.wrapping_neg(),
            one,
            r2,
        }
    }

    /// Reduces any 256-bit value into `[0, m)`.
    #[must_use]
    pub fn reduce(&self, x: U256) -> U256 {
        self.sub_if_ge(x, 0)
    }

    /// `hi·2^256 + lo` minus `m` if it is at least `m`; the value must be
    /// below `2m` (so `hi` is 0 or 1).
    fn sub_if_ge(&self, lo: U256, hi: u64) -> U256 {
        let (d, borrow) = lo.sbb(&self.m);
        // Keep `lo` only when the subtraction borrowed past a zero top word.
        let keep = (u64::from(borrow) & !hi & 1).wrapping_neg();
        ct_select(keep, &lo, &d)
    }

    /// `(a + b) mod m`, inputs must be `< m`.
    #[must_use]
    pub fn add(&self, a: &U256, b: &U256) -> U256 {
        trace(Op::Add);
        add_mod(a, b, &self.m)
    }

    /// `(a - b) mod m`, inputs must be `< m`.
    #[must_use]
    pub fn sub(&self, a: &U256, b: &U256) -> U256 {
        trace(Op::Sub);
        let (diff, borrow) = a.sbb(b);
        let mask = u64::from(borrow).wrapping_neg();
        let fix = ct_select(mask, &self.m, &U256::ZERO);
        diff.adc(&fix).0
    }

    /// `(-a) mod m`.
    #[must_use]
    pub fn neg(&self, a: &U256) -> U256 {
        self.sub(&U256::ZERO, a)
    }

    /// Montgomery product `a·b·R⁻¹ mod m` (CIOS: multiply and reduce one
    /// limb of `b` at a time). `b` must be `< m`; `a` may be any 256-bit
    /// value.
    #[must_use]
    pub fn mul(&self, a: &U256, b: &U256) -> U256 {
        trace(Op::Mul);
        let (a, m) = (&a.0, &self.m.0);
        let mut t = [0u64; 6];
        for &bi in &b.0 {
            let mut c = 0u64;
            for j in 0..4 {
                let uv = u128::from(t[j]) + u128::from(a[j]) * u128::from(bi) + u128::from(c);
                t[j] = uv as u64;
                c = (uv >> 64) as u64;
            }
            let uv = u128::from(t[4]) + u128::from(c);
            t[4] = uv as u64;
            t[5] = (uv >> 64) as u64;
            // Add q·m so the low limb cancels, then shift down one limb.
            let q = t[0].wrapping_mul(self.m_inv);
            let uv = u128::from(t[0]) + u128::from(q) * u128::from(m[0]);
            let mut c = (uv >> 64) as u64;
            for j in 1..4 {
                let uv = u128::from(t[j]) + u128::from(q) * u128::from(m[j]) + u128::from(c);
                t[j - 1] = uv as u64;
                c = (uv >> 64) as u64;
            }
            let uv = u128::from(t[4]) + u128::from(c);
            t[3] = uv as u64;
            t[4] = t[5] + (uv >> 64) as u64;
        }
        self.sub_if_ge(U256([t[0], t[1], t[2], t[3]]), t[4])
    }

    /// Montgomery square `a²·R⁻¹ mod m`, `a < m`: the six cross products
    /// are computed once and doubled, then the 512-bit square is reduced.
    #[must_use]
    pub fn sqr(&self, a: &U256) -> U256 {
        trace(Op::Sqr);
        let a = &a.0;
        let mut t = [0u64; 8];
        for i in 0..3 {
            let mut c = 0u64;
            for j in (i + 1)..4 {
                let uv = u128::from(t[i + j]) + u128::from(a[i]) * u128::from(a[j]) + u128::from(c);
                t[i + j] = uv as u64;
                c = (uv >> 64) as u64;
            }
            t[i + 4] = c;
        }
        t[7] = t[6] >> 63;
        for k in (2..7).rev() {
            t[k] = (t[k] << 1) | (t[k - 1] >> 63);
        }
        t[1] <<= 1;
        let mut c = 0u64;
        for i in 0..4 {
            let sq = u128::from(a[i]) * u128::from(a[i]);
            let lo = u128::from(t[2 * i]) + (sq & u128::from(u64::MAX)) + u128::from(c);
            t[2 * i] = lo as u64;
            let hi = u128::from(t[2 * i + 1]) + (sq >> 64) + (lo >> 64);
            t[2 * i + 1] = hi as u64;
            c = (hi >> 64) as u64;
        }
        // Montgomery reduction of the 512-bit t, one limb at a time; `top`
        // carries into the limb the next round adds its carry to.
        let mut top = 0u64;
        for i in 0..4 {
            let q = t[i].wrapping_mul(self.m_inv);
            let mut c = 0u64;
            for j in 0..4 {
                let uv =
                    u128::from(t[i + j]) + u128::from(q) * u128::from(self.m.0[j]) + u128::from(c);
                t[i + j] = uv as u64;
                c = (uv >> 64) as u64;
            }
            let uv = u128::from(t[i + 4]) + u128::from(c) + u128::from(top);
            t[i + 4] = uv as u64;
            top = (uv >> 64) as u64;
        }
        self.sub_if_ge(U256([t[4], t[5], t[6], t[7]]), top)
    }

    /// Converts into Montgomery form: `a·R mod m` (any 256-bit `a`).
    #[must_use]
    pub fn to_mont(&self, a: &U256) -> U256 {
        self.mul(a, &self.r2)
    }

    /// Converts out of Montgomery form: `a·R⁻¹ mod m`.
    #[must_use]
    pub fn from_mont(&self, a: &U256) -> U256 {
        self.mul(a, &U256::ONE)
    }

    /// Montgomery inverse: `a·R ↦ a⁻¹·R` (`m` must be prime; zero maps to
    /// zero). Computes `a^(m-2)` with a fixed 4-bit window over the public
    /// exponent: 14 multiplications build `a^1..a^15`, then each of the 63
    /// remaining digits costs four squarings and, if non-zero, one
    /// multiplication. The sequence depends on `m` only.
    #[must_use]
    pub fn inv(&self, a: &U256) -> U256 {
        let mut powers = [*a; 16];
        for i in 2..16 {
            powers[i] = self.mul(&powers[i - 1], a);
        }
        let e = self.m.sbb(&U256([2, 0, 0, 0])).0;
        // The top digit of m - 2 is non-zero because m > 2^255.
        let mut acc = powers[nibble(&e, 63) as usize];
        for w in (0..63).rev() {
            for _ in 0..4 {
                acc = self.sqr(&acc);
            }
            let d = nibble(&e, w) as usize;
            if d != 0 {
                acc = self.mul(&acc, &powers[d]);
            }
        }
        acc
    }
}

/// `(a + b) mod m` for `a, b < m`, branch-free (shared by
/// [`Modulus::add`] and the compile-time constant computation).
const fn add_mod(a: &U256, b: &U256, m: &U256) -> U256 {
    let (sum, carry) = a.adc(b);
    let (d, borrow) = sum.sbb(m);
    // Keep the raw sum only when it neither overflowed nor reached m.
    let keep = ((borrow as u64) & !(carry as u64)).wrapping_neg();
    ct_select(keep, &sum, &d)
}

/// Curve parameters for P-256.
pub mod curve {
    use super::{Modulus, U256};

    /// Field prime `p = 2^256 - 2^224 + 2^192 + 2^96 - 1`.
    pub const P: U256 = U256([
        0xffff_ffff_ffff_ffff,
        0x0000_0000_ffff_ffff,
        0x0000_0000_0000_0000,
        0xffff_ffff_0000_0001,
    ]);

    /// Group order `n`.
    pub const N: U256 = U256([
        0xf3b9_cac2_fc63_2551,
        0xbce6_faad_a717_9e84,
        0xffff_ffff_ffff_ffff,
        0xffff_ffff_0000_0000,
    ]);

    /// Curve coefficient `b` (`a` is `p - 3`).
    pub const B: U256 = U256([
        0x3bce_3c3e_27d2_604b,
        0x651d_06b0_cc53_b0f6,
        0xb3eb_bd55_7698_86bc,
        0x5ac6_35d8_aa3a_93e7,
    ]);

    /// Base point x-coordinate.
    pub const GX: U256 = U256([
        0xf4a1_3945_d898_c296,
        0x7703_7d81_2deb_33a0,
        0xf8bc_e6e5_63a4_40f2,
        0x6b17_d1f2_e12c_4247,
    ]);

    /// Base point y-coordinate.
    pub const GY: U256 = U256([
        0xcbb6_4068_37bf_51f5,
        0x2bce_3357_6b31_5ece,
        0x8ee7_eb4a_7c0f_9e16,
        0x4fe3_42e2_fe1a_7f9b,
    ]);

    /// Field modulus context.
    pub static FP: Modulus = Modulus::new(P);

    /// Order modulus context.
    pub static FN: Modulus = Modulus::new(N);
}

/// A point on P-256 in affine coordinates, or the point at infinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AffinePoint {
    /// The identity element.
    Infinity,
    /// A finite point `(x, y)`.
    Point {
        /// x-coordinate.
        x: U256,
        /// y-coordinate.
        y: U256,
    },
}

impl AffinePoint {
    /// The P-256 base point `G`.
    #[must_use]
    pub fn generator() -> Self {
        AffinePoint::Point {
            x: curve::GX,
            y: curve::GY,
        }
    }

    /// Checks `y² = x³ - 3x + b (mod p)`.
    #[must_use]
    pub fn is_on_curve(&self) -> bool {
        match self {
            AffinePoint::Infinity => true,
            AffinePoint::Point { x, y } => {
                let fp = &curve::FP;
                let (x, y) = (fp.to_mont(x), fp.to_mont(y));
                let y2 = fp.sqr(&y);
                let x3 = fp.mul(&fp.sqr(&x), &x);
                let three_x = fp.add(&fp.add(&x, &x), &x);
                let rhs = fp.add(&fp.sub(&x3, &three_x), &fp.to_mont(&curve::B));
                y2 == rhs
            }
        }
    }

    /// Encodes as 64 bytes (`x || y`, big-endian).
    ///
    /// # Panics
    ///
    /// Panics on the point at infinity, which has no affine encoding.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; 64] {
        match self {
            AffinePoint::Infinity => panic!("cannot encode the point at infinity"),
            AffinePoint::Point { x, y } => {
                let mut out = [0u8; 64];
                out[..32].copy_from_slice(&x.to_be_bytes());
                out[32..].copy_from_slice(&y.to_be_bytes());
                out
            }
        }
    }

    /// Decodes from 64 bytes, validating curve membership.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CryptoError::InvalidPoint`] if the coordinates are out
    /// of range or the point is not on the curve.
    pub fn from_bytes(bytes: &[u8; 64]) -> crate::Result<Self> {
        let mut xb = [0u8; 32];
        let mut yb = [0u8; 32];
        xb.copy_from_slice(&bytes[..32]);
        yb.copy_from_slice(&bytes[32..]);
        let x = U256::from_be_bytes(&xb);
        let y = U256::from_be_bytes(&yb);
        if !x.lt(&curve::P) || !y.lt(&curve::P) {
            return Err(crate::CryptoError::InvalidPoint);
        }
        let point = AffinePoint::Point { x, y };
        if !point.is_on_curve() {
            return Err(crate::CryptoError::InvalidPoint);
        }
        Ok(point)
    }

    /// Converts to Jacobian coordinates (Montgomery form).
    #[must_use]
    pub fn to_jacobian(&self) -> JacobianPoint {
        match self.to_mont() {
            None => JacobianPoint::infinity(),
            Some(q) => q.to_jacobian(),
        }
    }

    /// The finite point's coordinates in Montgomery form.
    fn to_mont(self) -> Option<MontAffine> {
        match self {
            AffinePoint::Infinity => None,
            AffinePoint::Point { x, y } => Some(MontAffine {
                x: curve::FP.to_mont(&x),
                y: curve::FP.to_mont(&y),
            }),
        }
    }

    /// Scalar multiplication `k · self`, in constant time in `k` (see
    /// [`JacobianPoint::mul_scalar`]).
    #[must_use]
    pub fn mul_scalar(&self, k: &U256) -> AffinePoint {
        self.to_jacobian().mul_scalar(k).to_affine()
    }

    /// Fixed-base scalar multiplication `k · G` via the precomputed
    /// generator table — the hot path of keygen, signing and ECDHE.
    ///
    /// `AffinePoint::mul_base(k) == G.mul_scalar(k)` for all `k`, but this
    /// runs in 64 mixed additions instead of ~252 doublings plus 64
    /// general additions. Constant time in `k`.
    #[must_use]
    pub fn mul_base(k: &U256) -> AffinePoint {
        mul_base_jacobian(k).to_affine()
    }
}

/// Fixed-base `k · G` in Jacobian form (used directly by ECDSA verify to
/// fold the `u1·G + u2·Q` sum without an intermediate affine conversion).
#[must_use]
pub fn mul_base_jacobian(k: &U256) -> JacobianPoint {
    GeneratorTable::get().mul(k)
}

/// A finite affine point with coordinates in Montgomery form.
#[derive(Debug, Clone, Copy)]
struct MontAffine {
    x: U256,
    y: U256,
}

impl MontAffine {
    fn to_jacobian(self) -> JacobianPoint {
        JacobianPoint {
            x: self.x,
            y: self.y,
            z: curve::FP.one,
        }
    }
}

/// Precomputed windowed table for the generator: radix-16 decomposition,
/// `points[w * 15 + (d - 1)] = d · 16^w · G` for `w ∈ 0..64`, `d ∈ 1..=15`.
///
/// A 256-bit scalar splits into 64 hex digits, so `k · G` is the sum of one
/// selected entry per window — no doublings at all. Entries are stored
/// affine in Montgomery form (one batch inversion at build time) so each
/// accumulation is a mixed addition.
struct GeneratorTable {
    points: Vec<MontAffine>,
}

impl GeneratorTable {
    fn get() -> &'static GeneratorTable {
        use std::sync::OnceLock;
        static TABLE: OnceLock<GeneratorTable> = OnceLock::new();
        TABLE.get_or_init(GeneratorTable::build)
    }

    fn build() -> GeneratorTable {
        let mut jac: Vec<JacobianPoint> = Vec::with_capacity(64 * 15);
        let mut base = AffinePoint::generator().to_jacobian();
        for _ in 0..64 {
            let mut acc = base;
            for _ in 0..15 {
                jac.push(acc);
                acc = acc.add(&base);
            }
            // After pushing 1·base .. 15·base, acc holds 16·base: the next
            // window's base, for free (no explicit doubling chain).
            base = acc;
        }
        GeneratorTable {
            points: batch_to_affine(&jac),
        }
    }

    /// `k · G`: one masked scan and one mixed addition per hex digit of
    /// `k mod n`; a zero digit's sum is computed and discarded by mask.
    fn mul(&self, k: &U256) -> JacobianPoint {
        let k = curve::FN.reduce(*k);
        let mut acc = JacobianPoint::infinity();
        for (w, window) in self.points.chunks_exact(15).enumerate() {
            let d = nibble(&k, w);
            let mut entry = MontAffine {
                x: U256::ZERO,
                y: U256::ZERO,
            };
            for (i, candidate) in (1u64..).zip(window) {
                trace(Op::Read(i as u8));
                let hit = ct_eq_mask(i, d);
                entry.x = ct_select(hit, &candidate.x, &entry.x);
                entry.y = ct_select(hit, &candidate.y, &entry.y);
            }
            let sum = acc.add_mont_affine(&entry);
            acc = JacobianPoint::select(ct_eq_mask(d, 0), &acc, &sum);
        }
        acc
    }
}

/// Converts a batch of Jacobian points (all finite) to affine with a single
/// field inversion (Montgomery's trick); coordinates stay in Montgomery form.
fn batch_to_affine(points: &[JacobianPoint]) -> Vec<MontAffine> {
    let fp = &curve::FP;
    // prefix[i] = z_0 · z_1 · … · z_i
    let mut prefix = Vec::with_capacity(points.len());
    let mut acc = fp.one;
    for p in points {
        debug_assert!(!p.is_infinity());
        acc = fp.mul(&acc, &p.z);
        prefix.push(acc);
    }
    let mut suffix_inv = fp.inv(&acc); // (z_0 · … · z_{n-1})^-1
    let mut out = Vec::with_capacity(points.len());
    for i in (0..points.len()).rev() {
        let zinv = if i == 0 {
            suffix_inv
        } else {
            fp.mul(&suffix_inv, &prefix[i - 1])
        };
        suffix_inv = fp.mul(&suffix_inv, &points[i].z);
        let zinv2 = fp.sqr(&zinv);
        out.push(MontAffine {
            x: fp.mul(&points[i].x, &zinv2),
            y: fp.mul(&points[i].y, &fp.mul(&zinv2, &zinv)),
        });
    }
    out.reverse();
    out
}

/// A point in Jacobian projective coordinates (`x/z²`, `y/z³`), each
/// coordinate in Montgomery form; `z = 0` is the point at infinity.
#[derive(Debug, Clone, Copy)]
pub struct JacobianPoint {
    x: U256,
    y: U256,
    z: U256,
}

impl JacobianPoint {
    /// The identity element.
    #[must_use]
    pub fn infinity() -> Self {
        JacobianPoint {
            x: curve::FP.one,
            y: curve::FP.one,
            z: U256::ZERO,
        }
    }

    /// True if this is the identity.
    #[must_use]
    pub fn is_infinity(&self) -> bool {
        ct_is_zero(&self.z) != 0
    }

    /// `a` where `mask` is all-ones, `b` where it is zero.
    fn select(mask: u64, a: &JacobianPoint, b: &JacobianPoint) -> JacobianPoint {
        JacobianPoint {
            x: ct_select(mask, &a.x, &b.x),
            y: ct_select(mask, &a.y, &b.y),
            z: ct_select(mask, &a.z, &b.z),
        }
    }

    /// Point doubling (dbl-2001-b, a = -3). Needs no special case: at
    /// infinity (`z = 0`) the formula yields `z3 = 2yz = 0` again.
    #[must_use]
    pub fn double(&self) -> JacobianPoint {
        let fp = &curve::FP;
        let delta = fp.sqr(&self.z);
        let gamma = fp.sqr(&self.y);
        let beta = fp.mul(&self.x, &gamma);
        // alpha = 3 (x - delta)(x + delta)
        let t0 = fp.sub(&self.x, &delta);
        let t1 = fp.add(&self.x, &delta);
        let t2 = fp.mul(&t0, &t1);
        let alpha = fp.add(&fp.add(&t2, &t2), &t2);
        // x3 = alpha^2 - 8 beta
        let beta2 = fp.add(&beta, &beta);
        let beta4 = fp.add(&beta2, &beta2);
        let beta8 = fp.add(&beta4, &beta4);
        let x3 = fp.sub(&fp.sqr(&alpha), &beta8);
        // z3 = (y + z)^2 - gamma - delta
        let yz = fp.add(&self.y, &self.z);
        let z3 = fp.sub(&fp.sub(&fp.sqr(&yz), &gamma), &delta);
        // y3 = alpha (4 beta - x3) - 8 gamma^2
        let g2 = fp.sqr(&gamma);
        let g2_2 = fp.add(&g2, &g2);
        let g2_4 = fp.add(&g2_2, &g2_2);
        let g2_8 = fp.add(&g2_4, &g2_4);
        let y3 = fp.sub(&fp.mul(&alpha, &fp.sub(&beta4, &x3)), &g2_8);
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General point addition. Infinity operands are resolved by masked
    /// selection; `P + (-P)` falls out of the formula as `z3 = 0`. Only
    /// `P == Q` branches (to [`JacobianPoint::double`]), which the scalar
    /// multiplications never reach from a reduced scalar.
    #[must_use]
    pub fn add(&self, other: &JacobianPoint) -> JacobianPoint {
        let fp = &curve::FP;
        let z1z1 = fp.sqr(&self.z);
        let z2z2 = fp.sqr(&other.z);
        let u1 = fp.mul(&self.x, &z2z2);
        let u2 = fp.mul(&other.x, &z1z1);
        let s1 = fp.mul(&fp.mul(&self.y, &other.z), &z2z2);
        let s2 = fp.mul(&fp.mul(&other.y, &self.z), &z1z1);
        let h = fp.sub(&u2, &u1);
        let r = fp.sub(&s2, &s1);
        let inf1 = ct_is_zero(&self.z);
        let inf2 = ct_is_zero(&other.z);
        if ct_is_zero(&h) & ct_is_zero(&r) & !inf1 & !inf2 != 0 {
            return self.double();
        }
        let hh = fp.sqr(&h);
        let hhh = fp.mul(&h, &hh);
        let v = fp.mul(&u1, &hh);
        // x3 = r^2 - hhh - 2v
        let x3 = fp.sub(&fp.sub(&fp.sqr(&r), &hhh), &fp.add(&v, &v));
        // y3 = r (v - x3) - s1 hhh
        let y3 = fp.sub(&fp.mul(&r, &fp.sub(&v, &x3)), &fp.mul(&s1, &hhh));
        let z3 = fp.mul(&fp.mul(&self.z, &other.z), &h);
        let sum = JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        };
        let sum = JacobianPoint::select(inf1, other, &sum);
        JacobianPoint::select(inf2, self, &sum)
    }

    /// Mixed addition with an affine point (`z₂ = 1`), saving four
    /// multiplications and a squaring over the general [`JacobianPoint::add`].
    #[must_use]
    pub fn add_affine(&self, other: &AffinePoint) -> JacobianPoint {
        match other.to_mont() {
            None => *self,
            Some(q) => self.add_mont_affine(&q),
        }
    }

    /// [`JacobianPoint::add_affine`] for a finite Montgomery-form point,
    /// with the same special-case handling as [`JacobianPoint::add`].
    fn add_mont_affine(&self, other: &MontAffine) -> JacobianPoint {
        let fp = &curve::FP;
        let z1z1 = fp.sqr(&self.z);
        let u2 = fp.mul(&other.x, &z1z1);
        let s2 = fp.mul(&fp.mul(&other.y, &self.z), &z1z1);
        let h = fp.sub(&u2, &self.x);
        let r = fp.sub(&s2, &self.y);
        let inf1 = ct_is_zero(&self.z);
        if ct_is_zero(&h) & ct_is_zero(&r) & !inf1 != 0 {
            return self.double();
        }
        let hh = fp.sqr(&h);
        let hhh = fp.mul(&h, &hh);
        let v = fp.mul(&self.x, &hh);
        let x3 = fp.sub(&fp.sub(&fp.sqr(&r), &hhh), &fp.add(&v, &v));
        let y3 = fp.sub(&fp.mul(&r, &fp.sub(&v, &x3)), &fp.mul(&self.y, &hhh));
        let z3 = fp.mul(&self.z, &h);
        let sum = JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        };
        JacobianPoint::select(inf1, &other.to_jacobian(), &sum)
    }

    /// Scalar multiplication `k · self` by a fixed 4-bit window, constant
    /// time in `k`.
    ///
    /// A 16-entry table `[0·P, 1·P, …, 15·P]` lives on the stack. For each
    /// hex digit of `k mod n`, most significant first, the accumulator is
    /// doubled four times and the digit's entry — found by a masked scan of
    /// all 16 — is added. With `k < n`, the accumulator before an addition
    /// is `16·K` for the digits `K` read so far, and `16·K ± d ≡ 0 (mod n)`
    /// only for `K = d = 0`, which the infinity masks handle; so the
    /// doubling branch in [`JacobianPoint::add`] is never taken.
    #[must_use]
    pub fn mul_scalar(&self, k: &U256) -> JacobianPoint {
        let k = curve::FN.reduce(*k);
        let mut table = [JacobianPoint::infinity(); 16];
        table[1] = *self;
        table[2] = self.double();
        for i in 3..16 {
            table[i] = table[i - 1].add(self);
        }
        let lookup = |d: u64| {
            let mut out = JacobianPoint::infinity();
            for (i, entry) in (0u64..).zip(&table) {
                trace(Op::Read(i as u8));
                out = JacobianPoint::select(ct_eq_mask(i, d), entry, &out);
            }
            out
        };
        let mut acc = lookup(nibble(&k, 63));
        for w in (0..63).rev() {
            acc = acc.double().double().double().double();
            acc = acc.add(&lookup(nibble(&k, w)));
        }
        acc
    }

    /// Converts back to affine coordinates (out of Montgomery form).
    #[must_use]
    pub fn to_affine(&self) -> AffinePoint {
        if self.is_infinity() {
            return AffinePoint::Infinity;
        }
        let fp = &curve::FP;
        let zinv = fp.inv(&self.z);
        let zinv2 = fp.sqr(&zinv);
        let zinv3 = fp.mul(&zinv2, &zinv);
        AffinePoint::Point {
            x: fp.from_mont(&fp.mul(&self.x, &zinv2)),
            y: fp.from_mont(&fp.mul(&self.y, &zinv3)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-only recorder behind [`trace`]. [`ct_trace::capture`] returns
    /// the field operations and secret-indexed table reads that one call
    /// performed on this thread.
    pub(super) mod ct_trace {
        use super::super::Op;
        use std::cell::RefCell;

        thread_local! {
            static LOG: RefCell<Option<Vec<Op>>> = const { RefCell::new(None) };
        }

        pub fn record(op: Op) {
            LOG.with(|log| {
                if let Some(ops) = log.borrow_mut().as_mut() {
                    ops.push(op);
                }
            });
        }

        pub fn capture<R>(f: impl FnOnce() -> R) -> Vec<Op> {
            LOG.with(|log| *log.borrow_mut() = Some(Vec::new()));
            std::hint::black_box(f());
            LOG.with(|log| log.borrow_mut().take().expect("capture is not nested"))
        }
    }

    /// The fold-reduction arithmetic, Fermat inversion and double-and-add
    /// this module used before Montgomery form, kept as an independent
    /// differential oracle. Values are plain (not Montgomery) throughout.
    mod oracle {
        use super::super::{curve, AffinePoint, U256};
        use crate::ecdsa::Signature;

        /// Modular arithmetic by folding: `hi·2^256 + lo ≡ hi·r + lo`
        /// with `r = 2^256 mod m`, for any `m` in `(2^255, 2^256)`.
        pub struct Fold {
            pub m: U256,
            r: U256,
        }

        impl Fold {
            pub fn new(m: U256) -> Self {
                let (r, _) = U256::ZERO.sbb(&m);
                Fold { m, r }
            }

            pub fn reduce(&self, mut x: U256) -> U256 {
                while !x.lt(&self.m) {
                    x = x.sbb(&self.m).0;
                }
                x
            }

            pub fn add(&self, a: &U256, b: &U256) -> U256 {
                let (sum, carry) = a.adc(b);
                if carry || !sum.lt(&self.m) {
                    sum.sbb(&self.m).0
                } else {
                    sum
                }
            }

            pub fn sub(&self, a: &U256, b: &U256) -> U256 {
                let (diff, borrow) = a.sbb(b);
                if borrow {
                    diff.adc(&self.m).0
                } else {
                    diff
                }
            }

            pub fn mul(&self, a: &U256, b: &U256) -> U256 {
                let (mut lo, mut hi) = a.widening_mul(b);
                while !hi.is_zero() {
                    let (prod_lo, prod_hi) = hi.widening_mul(&self.r);
                    let (sum, carry) = lo.adc(&prod_lo);
                    lo = sum;
                    let (new_hi, overflow) = prod_hi.adc(&U256([u64::from(carry), 0, 0, 0]));
                    assert!(!overflow);
                    hi = new_hi;
                }
                self.reduce(lo)
            }

            pub fn pow(&self, base: &U256, exp: &U256) -> U256 {
                let mut result = self.reduce(U256::ONE);
                let base = self.reduce(*base);
                for i in (0..exp.bits()).rev() {
                    result = self.mul(&result, &result);
                    if exp.bit(i) {
                        result = self.mul(&result, &base);
                    }
                }
                result
            }

            pub fn inv(&self, a: &U256) -> U256 {
                self.pow(a, &self.m.sbb(&U256([2, 0, 0, 0])).0)
            }
        }

        pub fn fp() -> Fold {
            Fold::new(curve::P)
        }

        pub fn fn_() -> Fold {
            Fold::new(curve::N)
        }

        /// Jacobian point with plain coordinates and branching formulas.
        #[derive(Clone, Copy)]
        pub struct Point {
            x: U256,
            y: U256,
            z: U256,
        }

        impl Point {
            fn infinity() -> Self {
                Point {
                    x: U256::ONE,
                    y: U256::ONE,
                    z: U256::ZERO,
                }
            }

            pub fn from_affine(p: &AffinePoint) -> Self {
                match p {
                    AffinePoint::Infinity => Point::infinity(),
                    AffinePoint::Point { x, y } => Point {
                        x: *x,
                        y: *y,
                        z: U256::ONE,
                    },
                }
            }

            fn double(&self) -> Point {
                if self.z.is_zero() || self.y.is_zero() {
                    return Point::infinity();
                }
                let fp = fp();
                let delta = fp.mul(&self.z, &self.z);
                let gamma = fp.mul(&self.y, &self.y);
                let beta = fp.mul(&self.x, &gamma);
                let t = fp.mul(&fp.sub(&self.x, &delta), &fp.add(&self.x, &delta));
                let alpha = fp.add(&fp.add(&t, &t), &t);
                let beta4 = fp.add(&fp.add(&beta, &beta), &fp.add(&beta, &beta));
                let beta8 = fp.add(&beta4, &beta4);
                let x3 = fp.sub(&fp.mul(&alpha, &alpha), &beta8);
                let yz = fp.add(&self.y, &self.z);
                let z3 = fp.sub(&fp.sub(&fp.mul(&yz, &yz), &gamma), &delta);
                let g2 = fp.mul(&gamma, &gamma);
                let g2_4 = fp.add(&fp.add(&g2, &g2), &fp.add(&g2, &g2));
                let g2_8 = fp.add(&g2_4, &g2_4);
                let y3 = fp.sub(&fp.mul(&alpha, &fp.sub(&beta4, &x3)), &g2_8);
                Point {
                    x: x3,
                    y: y3,
                    z: z3,
                }
            }

            pub fn add(&self, other: &Point) -> Point {
                if self.z.is_zero() {
                    return *other;
                }
                if other.z.is_zero() {
                    return *self;
                }
                let fp = fp();
                let z1z1 = fp.mul(&self.z, &self.z);
                let z2z2 = fp.mul(&other.z, &other.z);
                let u1 = fp.mul(&self.x, &z2z2);
                let u2 = fp.mul(&other.x, &z1z1);
                let s1 = fp.mul(&fp.mul(&self.y, &other.z), &z2z2);
                let s2 = fp.mul(&fp.mul(&other.y, &self.z), &z1z1);
                let h = fp.sub(&u2, &u1);
                let r = fp.sub(&s2, &s1);
                if h.is_zero() {
                    return if r.is_zero() {
                        self.double()
                    } else {
                        Point::infinity()
                    };
                }
                let hh = fp.mul(&h, &h);
                let hhh = fp.mul(&h, &hh);
                let v = fp.mul(&u1, &hh);
                let x3 = fp.sub(&fp.sub(&fp.mul(&r, &r), &hhh), &fp.add(&v, &v));
                let y3 = fp.sub(&fp.mul(&r, &fp.sub(&v, &x3)), &fp.mul(&s1, &hhh));
                let z3 = fp.mul(&fp.mul(&self.z, &other.z), &h);
                Point {
                    x: x3,
                    y: y3,
                    z: z3,
                }
            }

            /// Double-and-add, most significant bit first.
            pub fn mul_scalar(&self, k: &U256) -> Point {
                let mut acc = Point::infinity();
                for i in (0..k.bits()).rev() {
                    acc = acc.double();
                    if k.bit(i) {
                        acc = acc.add(self);
                    }
                }
                acc
            }

            pub fn to_affine(self) -> AffinePoint {
                if self.z.is_zero() {
                    return AffinePoint::Infinity;
                }
                let fp = fp();
                let zinv = fp.inv(&self.z);
                let zinv2 = fp.mul(&zinv, &zinv);
                AffinePoint::Point {
                    x: fp.mul(&self.x, &zinv2),
                    y: fp.mul(&self.y, &fp.mul(&zinv2, &zinv)),
                }
            }
        }

        /// `k·G` by double-and-add.
        pub fn mul_g(k: &U256) -> AffinePoint {
            Point::from_affine(&AffinePoint::generator())
                .mul_scalar(k)
                .to_affine()
        }

        /// ECDSA verification over the oracle arithmetic.
        pub fn verify(q: &AffinePoint, digest: &[u8; 32], sig: &Signature) -> bool {
            let n = curve::N;
            if sig.r.is_zero() || sig.s.is_zero() || !sig.r.lt(&n) || !sig.s.lt(&n) {
                return false;
            }
            let fn_ = fn_();
            let w = fn_.inv(&sig.s);
            let u1 = fn_.mul(&fn_.reduce(U256::from_be_bytes(digest)), &w);
            let u2 = fn_.mul(&sig.r, &w);
            let g = Point::from_affine(&AffinePoint::generator());
            let sum = g
                .mul_scalar(&u1)
                .add(&Point::from_affine(q).mul_scalar(&u2));
            match sum.to_affine() {
                AffinePoint::Infinity => false,
                AffinePoint::Point { x, .. } => fn_.reduce(x) == sig.r,
            }
        }
    }

    /// Seeded xorshift64 stream of 256-bit values.
    fn xorshift(seed: u64) -> impl FnMut() -> U256 {
        let mut s = seed;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        move || U256([next(), next(), next(), next()])
    }

    /// Differential cases per operation in the oracle cross-checks.
    const ORACLE_CASES: usize = 1000;

    #[test]
    fn u256_roundtrip_bytes() {
        let v = U256::from_hex("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
        assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
    }

    #[test]
    fn u256_add_sub_inverse() {
        let a = U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff00");
        let b = U256::from_hex("00000000000000000000000000000000000000000000000000000000000000ff");
        let (sum, carry) = a.adc(&b);
        assert!(!carry);
        let (diff, borrow) = sum.sbb(&b);
        assert!(!borrow);
        assert_eq!(diff, a);
    }

    #[test]
    fn u256_mul_small() {
        let a = U256([7, 0, 0, 0]);
        let b = U256([6, 0, 0, 0]);
        let (lo, hi) = a.widening_mul(&b);
        assert_eq!(lo, U256([42, 0, 0, 0]));
        assert!(hi.is_zero());
    }

    #[test]
    fn u256_mul_carries_into_high() {
        let max = U256([u64::MAX; 4]);
        let (lo, hi) = max.widening_mul(&max);
        // (2^256 - 1)^2 = 2^512 - 2^257 + 1
        assert_eq!(lo, U256([1, 0, 0, 0]));
        assert_eq!(hi, U256([u64::MAX - 1, u64::MAX, u64::MAX, u64::MAX]));
    }

    #[test]
    fn modulus_reduce_wide_agrees_with_naive() {
        let fp = &curve::FP;
        // x mod p for x slightly above p.
        let (above, _) = fp.m.adc(&U256([12345, 0, 0, 0]));
        assert_eq!(fp.reduce(above), U256([12345, 0, 0, 0]));
    }

    #[test]
    fn field_mul_matches_pow() {
        let fp = &curve::FP;
        let a = fp.to_mont(&U256::from_hex("deadbeef"));
        let a2 = fp.from_mont(&fp.mul(&a, &a));
        let a2_pow = oracle::fp().pow(&U256::from_hex("deadbeef"), &U256([2, 0, 0, 0]));
        assert_eq!(a2, a2_pow);
        assert_eq!(fp.sqr(&a), fp.mul(&a, &a));
    }

    #[test]
    fn field_inverse() {
        let fp = &curve::FP;
        let a = fp.to_mont(&U256::from_hex("123456789abcdef123456789abcdef"));
        let inv = fp.inv(&a);
        assert_eq!(fp.from_mont(&fp.mul(&a, &inv)), U256::ONE);
    }

    #[test]
    fn order_inverse() {
        let fn_ = &curve::FN;
        let a = fn_.to_mont(&U256::from_hex("abcdef0102030405"));
        assert_eq!(fn_.from_mont(&fn_.mul(&a, &fn_.inv(&a))), U256::ONE);
    }

    #[test]
    fn montgomery_field_ops_match_fold_oracle() {
        for (modulus, fold) in [(&curve::FP, oracle::fp()), (&curve::FN, oracle::fn_())] {
            let m = modulus.m;
            let m_minus = |k: u64| m.sbb(&U256([k, 0, 0, 0])).0;
            let below_2_256 = |k: u64| fold.reduce(U256::ZERO.sbb(&U256([k, 0, 0, 0])).0);
            let mut inputs = vec![
                U256::ZERO,
                U256::ONE,
                m_minus(1),
                m_minus(2),
                below_2_256(1),
                below_2_256(2),
                below_2_256(1 << 40),
            ];
            let mut next = xorshift(0x2545_f491_4f6c_dd1d ^ m.0[0]);
            while inputs.len() < ORACLE_CASES + 7 {
                inputs.push(fold.reduce(next()));
            }
            for pair in inputs.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                let (am, bm) = (modulus.to_mont(&a), modulus.to_mont(&b));
                assert_eq!(modulus.from_mont(&am), a, "Montgomery round trip of {a:?}");
                assert_eq!(modulus.from_mont(&modulus.mul(&am, &bm)), fold.mul(&a, &b));
                assert_eq!(modulus.from_mont(&modulus.sqr(&am)), fold.mul(&a, &a));
                assert_eq!(modulus.from_mont(&modulus.inv(&am)), fold.inv(&a));
                assert_eq!(modulus.add(&a, &b), fold.add(&a, &b));
                assert_eq!(modulus.sub(&a, &b), fold.sub(&a, &b));
                let wide = next();
                assert_eq!(modulus.reduce(wide), fold.reduce(wide));
            }
        }
    }

    #[test]
    fn scalar_mults_match_double_and_add_oracle() {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        // A few public points for the variable-base routine.
        let points: Vec<AffinePoint> = (0..4).map(|_| AffinePoint::mul_base(&next())).collect();
        for i in 0..ORACLE_CASES {
            let k = next();
            assert_eq!(
                AffinePoint::mul_base(&k),
                oracle::mul_g(&k),
                "k·G for {k:?}"
            );
            let q = &points[i % points.len()];
            let expected = oracle::Point::from_affine(q).mul_scalar(&k).to_affine();
            assert_eq!(q.mul_scalar(&k), expected, "k·Q for {k:?}");
        }
    }

    #[test]
    fn verify_matches_oracle() {
        use crate::ecdsa::SigningKey;
        let mut next = xorshift(0x0123_4567_89ab_cdef);
        let keys: Vec<SigningKey> = (0..4)
            .map(|_| SigningKey::from_scalar(curve::FN.reduce(next())).expect("non-zero scalar"))
            .collect();
        let mut accepted = 0;
        for i in 0..ORACLE_CASES {
            let key = &keys[i % keys.len()];
            let digest = next().to_be_bytes();
            let mut sig = key.sign_deterministic(&digest);
            // Every other case is tampered: a flipped bit in r, s or the
            // digest, or a different key.
            let mut digest_checked = digest;
            match i % 8 {
                1 => sig.r.0[i % 4] ^= 1 << (i % 64),
                3 => sig.s.0[(i / 4) % 4] ^= 1 << (i % 61),
                5 => digest_checked[i % 32] ^= 0x80,
                7 => {
                    sig = keys[(i + 1) % keys.len()].sign_deterministic(&digest);
                }
                _ => {}
            }
            let q = key.verifying_key();
            let got = q.verify(&digest_checked, &sig);
            assert_eq!(
                got,
                oracle::verify(q.point(), &digest_checked, &sig),
                "case {i}"
            );
            accepted += usize::from(got);
        }
        assert_eq!(
            accepted,
            ORACLE_CASES / 2,
            "exactly the untampered half verifies"
        );
    }

    #[test]
    fn secret_scalar_paths_have_one_operation_trace() {
        use crate::ecdh::EphemeralKeyPair;
        let scalars = [
            // Hamming weight 1: 2^200.
            U256([0, 0, 0, 1 << 8]),
            // Hamming weight 128.
            U256([0xaaaa_aaaa_aaaa_aaaa; 4]),
            // Hamming weight 251.
            U256([
                u64::MAX,
                u64::MAX,
                0xffff_ffff_ffff_fff0,
                0x7fff_ffff_ffff_ffff,
            ]),
            // Bit length 129: 2^128 + 1.
            U256([1, 0, 1, 0]),
        ];
        let peer = AffinePoint::mul_base(&U256::from_hex("c0ffee")).to_bytes();
        let base = |k: &U256| ct_trace::capture(|| AffinePoint::mul_base(k));
        let ecdh = |k: &U256| {
            ct_trace::capture(|| {
                EphemeralKeyPair::from_scalar(*k)
                    .expect("scalar in range")
                    .diffie_hellman(&peer)
            })
        };
        let _ = base(&U256::ONE); // builds the generator table outside any trace
        for path in [&base as &dyn Fn(&U256) -> Vec<Op>, &ecdh] {
            let reference = path(&scalars[0]);
            assert!(reference.iter().any(|op| matches!(op, Op::Read(_))));
            for k in &scalars[1..] {
                assert!(
                    path(k) == reference,
                    "operation trace depends on the scalar {k:?}"
                );
            }
        }
        // The trace does see a scalar-dependent branch: double-and-add over
        // the same field operations gives a different trace per weight.
        let g = AffinePoint::generator().to_jacobian();
        let leaky = |k: &U256| {
            ct_trace::capture(|| {
                let mut acc = JacobianPoint::infinity();
                for i in (0..256).rev() {
                    acc = acc.double();
                    if k.bit(i) {
                        acc = acc.add(&g);
                    }
                }
                acc
            })
        };
        assert!(leaky(&scalars[0]) != leaky(&scalars[1]));
    }

    #[test]
    fn generator_on_curve() {
        assert!(AffinePoint::generator().is_on_curve());
    }

    #[test]
    fn doubling_stays_on_curve() {
        let g2 = AffinePoint::generator().to_jacobian().double().to_affine();
        assert!(g2.is_on_curve());
        assert_ne!(g2, AffinePoint::generator());
    }

    #[test]
    fn add_matches_double() {
        let g = AffinePoint::generator().to_jacobian();
        let via_add = g.add(&g).to_affine();
        let via_double = g.double().to_affine();
        assert_eq!(via_add, via_double);
    }

    #[test]
    fn three_g_two_ways() {
        let g = AffinePoint::generator().to_jacobian();
        let g2 = g.double();
        let a = g2.add(&g).to_affine(); // 2G + G
        let b = g.add(&g2).to_affine(); // G + 2G
        assert_eq!(a, b);
        assert!(a.is_on_curve());
        let c = g.mul_scalar(&U256([3, 0, 0, 0])).to_affine();
        assert_eq!(a, c);
    }

    #[test]
    fn order_times_generator_is_infinity() {
        let ng = AffinePoint::generator().mul_scalar(&curve::N);
        assert_eq!(ng, AffinePoint::Infinity);
    }

    #[test]
    fn n_minus_one_g_is_negative_g() {
        let (n_minus_1, _) = curve::N.sbb(&U256::ONE);
        let p = AffinePoint::generator().mul_scalar(&n_minus_1);
        match (p, AffinePoint::generator()) {
            (AffinePoint::Point { x, y }, AffinePoint::Point { x: gx, y: gy }) => {
                assert_eq!(x, gx);
                assert_eq!(y, curve::FP.neg(&gy));
            }
            _ => panic!("unexpected infinity"),
        }
    }

    #[test]
    fn scalar_mul_distributes() {
        // (a + b) G == aG + bG for fixed scalars.
        let a = U256::from_hex("1111111111111111");
        let b = U256::from_hex("2222222222222222222222");
        let ab = curve::FN.add(&a, &b);
        let g = AffinePoint::generator().to_jacobian();
        let lhs = g.mul_scalar(&ab).to_affine();
        let rhs = g.mul_scalar(&a).add(&g.mul_scalar(&b)).to_affine();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn mul_base_matches_double_and_add() {
        // Deterministic xorshift64 scalars: table path vs the oracle's
        // double-and-add.
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        for _ in 0..16 {
            let k = next();
            assert_eq!(AffinePoint::mul_base(&k), oracle::mul_g(&k));
        }
    }

    #[test]
    fn mul_base_edge_scalars() {
        let g = AffinePoint::generator();
        assert_eq!(AffinePoint::mul_base(&U256::ZERO), AffinePoint::Infinity);
        assert_eq!(AffinePoint::mul_base(&U256::ONE), g);
        assert_eq!(
            AffinePoint::mul_base(&U256([2, 0, 0, 0])),
            g.to_jacobian().double().to_affine()
        );
        // n·G = ∞ through the table path too.
        assert_eq!(AffinePoint::mul_base(&curve::N), AffinePoint::Infinity);
        let (n_minus_1, _) = curve::N.sbb(&U256::ONE);
        assert_eq!(AffinePoint::mul_base(&n_minus_1), g.mul_scalar(&n_minus_1));
        // Scalars above n wrap identically in both paths.
        let max = U256([u64::MAX; 4]);
        assert_eq!(AffinePoint::mul_base(&max), g.mul_scalar(&max));
    }

    #[test]
    fn add_affine_matches_general_add() {
        let g = AffinePoint::generator();
        let p = g.to_jacobian().double(); // 2G, z != 1
        let q5 = g.mul_scalar(&U256([5, 0, 0, 0]));
        let mixed = p.add_affine(&q5).to_affine();
        let general = p.add(&q5.to_jacobian()).to_affine();
        assert_eq!(mixed, general);
        // Doubling case: P + P with P affine.
        let two_g = g.to_jacobian().add_affine(&g).to_affine();
        assert_eq!(two_g, g.to_jacobian().double().to_affine());
        // Inverse case: 2G + (-2G) = ∞.
        let AffinePoint::Point { x, y } = p.to_affine() else {
            panic!()
        };
        let neg = AffinePoint::Point {
            x,
            y: curve::FP.neg(&y),
        };
        assert!(p.add_affine(&neg).is_infinity());
        // Infinity operands.
        assert_eq!(JacobianPoint::infinity().add_affine(&q5).to_affine(), q5);
        assert_eq!(
            p.add_affine(&AffinePoint::Infinity).to_affine(),
            p.to_affine()
        );
    }

    #[test]
    fn point_encoding_roundtrip() {
        let g5 = AffinePoint::generator().mul_scalar(&U256([5, 0, 0, 0]));
        let bytes = g5.to_bytes();
        let decoded = AffinePoint::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, g5);
    }

    #[test]
    fn off_curve_point_rejected() {
        let mut bytes = AffinePoint::generator().to_bytes();
        bytes[63] ^= 1;
        assert!(AffinePoint::from_bytes(&bytes).is_err());
    }

    #[test]
    fn coordinate_out_of_range_rejected() {
        let mut bytes = [0xffu8; 64];
        bytes[32..].copy_from_slice(&curve::GY.to_be_bytes());
        assert!(AffinePoint::from_bytes(&bytes).is_err());
    }
}
