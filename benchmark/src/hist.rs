//! Fixed-size log-linear latency histogram.
//!
//! 128 sub-buckets per octave: a bucket is at most 1/128 ≈ 0.8 % wide, so a
//! reported quantile is within 1 % of the exact sample (checked against a
//! sorted vector below). The size does not depend on the sample count, so
//! the harness's own memory stays flat however fast the workload runs and
//! does not pollute `peak_rss_mib`. The runtime's own `ulp_core::hist` is
//! log2-bucketed (factor-of-two resolution) — too coarse to gate a 10 %
//! regression bound, which is why the benchmark carries its own.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2^MAX_EXP ns (~18 min) land in the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) << SUB_BITS;

#[derive(Clone)]
pub struct LogHist {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    if e >= MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
    (((e - SUB_BITS + 1) as u64) << SUB_BITS | sub) as usize
}

/// `[lo, hi)` covered by bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, i + 1);
    }
    let shift = (i >> SUB_BITS) - 1;
    let lo = (SUB | (i & (SUB - 1))) << shift;
    (lo, lo + (1 << shift))
}

/// 1-based rank of the `q`-quantile among `n > 0` samples: `ceil(q·n)`, with
/// a hair of slack so that 0.99 × 200 000 is 198 000 and not, through
/// floating-point dust, 198 001.
fn rank_of(q: f64, n: u64) -> u64 {
    ((q.clamp(0.0, 1.0) * n as f64 - 1e-6).ceil() as u64).clamp(1, n)
}

impl LogHist {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[index(ns)] += 1;
        self.count += 1;
        self.sum += ns;
        self.max = self.max.max(ns);
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean in ns; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The sample of rank `ceil(q·n)` in ns, interpolated by rank inside its
    /// bucket and clamped to the observed maximum; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = rank_of(q, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, hi) = bounds(i);
                let frac = (rank - seen) as f64 / c as f64;
                // Samples are whole ns in `lo..=hi-1`.
                let v = lo as f64 + (hi - 1 - lo) as f64 * frac;
                return v.min(self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }

    /// Samples strictly above the reported `q`-quantile's rank — printed
    /// beside every percentile so a reader can judge how much it rests on.
    pub fn samples_beyond(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        self.count - rank_of(q, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn buckets_tile_the_range() {
        let mut expect_lo = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bounds(i);
            assert_eq!(lo, expect_lo, "bucket {i}");
            assert!(hi > lo);
            assert_eq!(index(lo), i);
            assert_eq!(index(hi - 1), i);
            assert!(lo < SUB || (hi - lo) as f64 / lo as f64 <= 1.0 / SUB as f64);
            expect_lo = hi;
        }
        assert_eq!(expect_lo, 1 << MAX_EXP);
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    /// Quantile error ≤ 1 % against a sorted vector, on three shapes:
    /// log-uniform over six decades, a tight cluster, and a bimodal mix with
    /// a far tail (the shape of an echo request with and without a sleep).
    #[test]
    fn quantiles_within_one_percent_of_sorted_vector() {
        let mut rng = Rng::new(42, "hist", 0);
        type Shape = Box<dyn FnMut(&mut Rng) -> u64>;
        let shapes: [Shape; 3] = [
            Box::new(|r| {
                let e = r.below(20);
                (1u64 << e) + r.below(1 << e)
            }),
            Box::new(|r| 4_700 + r.below(300)),
            Box::new(|r| {
                if r.below(100) < 97 {
                    80_000 + r.below(30_000)
                } else {
                    2_000_000 + r.below(9_000_000)
                }
            }),
        ];
        for mut shape in shapes {
            let mut h = LogHist::default();
            let mut all = Vec::new();
            for _ in 0..200_000 {
                let v = shape(&mut rng);
                h.record(v);
                all.push(v);
            }
            all.sort_unstable();
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let exact = all[rank_of(q, all.len() as u64) as usize - 1] as f64;
                let got = h.quantile(q);
                assert!(
                    (got - exact).abs() / exact <= 0.01,
                    "q={q}: histogram {got} vs exact {exact}"
                );
            }
            assert_eq!(h.count(), 200_000);
            assert_eq!(h.max(), *all.last().unwrap());
            assert_eq!(h.samples_beyond(0.99), 2_000);
            let mean = all.iter().sum::<u64>() as f64 / all.len() as f64;
            assert!((h.mean() - mean).abs() < 1e-6 * mean);
        }
    }

    #[test]
    fn merge_adds_up() {
        let (mut a, mut b) = (LogHist::default(), LogHist::default());
        a.record(100);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1_000_000);
        assert_eq!(LogHist::default().quantile(0.5), 0.0);
    }
}
