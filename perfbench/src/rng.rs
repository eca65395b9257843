//! The seeded generator every input is drawn from (SplitMix64).
//!
//! Each input stream takes its own lane, so adding draws to one stream
//! never shifts another.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// The stream `lane` of `seed`.
    #[must_use]
    pub fn new(seed: u64, lane: &str) -> Self {
        // FNV-1a of the lane name keeps lanes independent and stable.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in lane.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng {
            state: seed ^ h.rotate_left(17),
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift: bias below 2^-32 for the n used here.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_lanes_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, "x").next_u64()).collect();
        let mut r = Rng::new(7, "x");
        assert_eq!(a[0], r.next_u64());
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(7, "y").next_u64());
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(8, "x").next_u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(1, "b");
        assert!((0..1000).all(|_| r.below(9) < 9));
    }
}
