//! Seeded input generation.
//!
//! Every payload byte, offset, op choice, yield count and exit code a
//! workload feeds the runtime comes out of one of these streams, so the same
//! `--seed` reproduces the same inputs and the program under test sees only
//! the generated values, never the seed.

/// One splitmix64 step: the stream-derivation function (seed → per-ULP
/// stream states) and a decent 64-bit mixer.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xorshift64* stream: a handful of cycles per draw, so generating inputs
/// inside a measured loop does not show in the numbers.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream `(seed, workload tag, index)`. Distinct tags and indices
    /// give unrelated streams; the state is never zero.
    pub fn new(seed: u64, tag: &str, index: u64) -> Rng {
        let mut s = seed;
        for b in tag.bytes() {
            s = splitmix64(&mut s) ^ u64::from(b);
        }
        s ^= index.wrapping_mul(0xD605_BBB5_8C8A_BBC9);
        Rng(splitmix64(&mut s) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`); the multiply-shift bias is below 2^-32
    /// for the small `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64() >> 32) * u128::from(n)) >> 32) as u64
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// FNV-1a over the generated inputs: the self-tests compare it between two
/// generations to prove "same seed ⇒ same inputs".
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A pool of `n` seeded payloads of `len` bytes each. Workloads pick a
/// payload by seeded index per operation instead of generating bytes inside
/// the measured loop.
pub fn payload_pool(rng: &mut Rng, n: usize, len: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|_| {
            let mut p = vec![0u8; len];
            rng.fill(&mut p);
            p
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ() {
        let draw = |seed, tag, idx| {
            let mut r = Rng::new(seed, tag, idx);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "echo", 0), draw(7, "echo", 0));
        assert_ne!(draw(7, "echo", 0), draw(8, "echo", 0));
        assert_ne!(draw(7, "echo", 0), draw(7, "echo", 1));
        assert_ne!(draw(7, "echo", 0), draw(7, "mix", 0));
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = Rng::new(1, "t", 0);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
