//! Order statistics and the seeded randomness the workloads draw from.

/// The nearest-rank `p`-quantile (`p` in `[0, 1]`) of `values`.
/// Panics on an empty slice: every caller measures at least one sample.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// SplitMix64: a small, seedable generator, so a workload seed fixes
/// every draw the benchmark makes.
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of one workload seed; distinct
    /// `stream`s give unrelated sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Uniform draws over `0..n` without replacement within each pass of
/// `n` draws. Every index is equally likely at every draw, but the
/// workload mix is exact at each pass boundary, so a run's share of
/// large answers does not depend on the seed.
pub struct Deck {
    order: Vec<usize>,
    next: usize,
    rng: Rng,
}

impl Deck {
    /// A deck over `0..n`, shuffled from `rng`.
    pub fn new(n: usize, rng: Rng) -> Deck {
        Deck {
            order: (0..n).collect(),
            next: n,
            rng,
        }
    }

    /// The next index.
    pub fn draw(&mut self) -> usize {
        if self.next == self.order.len() {
            for i in (1..self.order.len()).rev() {
                let j = self.rng.below(i + 1);
                self.order.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn deck_passes_are_permutations_and_seeded() {
        let mut a = Deck::new(31, Rng::new(5, 1));
        let mut b = Deck::new(31, Rng::new(5, 1));
        for _ in 0..3 {
            let pass: Vec<usize> = (0..31).map(|_| a.draw()).collect();
            let mut sorted = pass.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..31).collect::<Vec<_>>());
            assert_eq!(pass, (0..31).map(|_| b.draw()).collect::<Vec<_>>());
        }
    }
}
