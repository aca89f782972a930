//! The seeded input stream. Every seeded input a workload feeds the
//! certifier (δ values, window order) is drawn from one of these, so the
//! same `--seed` reproduces the same inputs bit for bit.

/// SplitMix64: tiny, fast, and fully determined by its 64-bit state.
#[derive(Clone, Debug)]
pub struct Stream(u64);

impl Stream {
    /// The stream for `seed`, separated per workload by `salt` so two
    /// workloads never share draws.
    pub fn new(seed: u64, salt: &str) -> Self {
        let mut s = Stream(seed ^ 0x9e37_79b9_7f4a_7c15);
        for b in salt.bytes() {
            s.0 ^= u64::from(b);
            s.next_u64();
        }
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `+1.0` or `-1.0` with equal probability.
    pub fn sign(&mut self) -> f64 {
        if self.next_u64() & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }
}

/// FNV-1a over a sequence of 64-bit words: the per-run digest of every ε̄
/// bit pattern, which must repeat exactly for the same seed.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn eat_bits(&mut self, values: &[f64]) {
        for v in values {
            self.eat(v.to_bits());
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, salt: &str) -> Vec<u64> {
        let mut s = Stream::new(seed, salt);
        (0..64).map(|_| s.next_u64()).collect()
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(draws(7, "serve_mix"), draws(7, "serve_mix"));
    }

    #[test]
    fn seeds_and_salts_separate_streams() {
        assert_ne!(draws(7, "serve_mix"), draws(8, "serve_mix"));
        assert_ne!(draws(7, "serve_mix"), draws(7, "oneshot_fc"));
    }

    #[test]
    fn draws_stay_in_range() {
        let mut s = Stream::new(3, "range");
        for _ in 0..10_000 {
            let u = s.uniform(5e-4, 2e-3);
            assert!((5e-4..2e-3).contains(&u), "{u}");
            assert!(s.below(3) < 3);
            assert!(s.sign().abs() == 1.0);
        }
    }

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        let d = |vals: &[f64]| {
            let mut d = Digest::default();
            d.eat_bits(vals);
            d.value()
        };
        assert_eq!(d(&[0.25, 0.5]), d(&[0.25, 0.5]));
        assert_ne!(d(&[0.25, 0.5]), d(&[0.5, 0.25]));
        assert_ne!(d(&[0.25]), d(&[f64::from_bits(0.25f64.to_bits() + 1)]));
    }
}
