//! Seeded request generators.
//!
//! The benchmark owns its random number generator so that a request
//! stream depends on the seed alone: a change to the program's own RNG
//! cannot change the inputs the benchmark feeds it.

use pluto_core::Lut;
use std::sync::Arc;

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(`s`) popularity over ranks `0..n`, drawn independently by
/// inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Ranks `0..n` with weight `1 / (rank + 1)^s`.
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// A rank drawn from `rng`.
    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.unit();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// Inputs per query, inclusive.
pub const MIN_INPUTS: u64 = 8;
/// Inputs per query, inclusive.
pub const MAX_INPUTS: u64 = 64;
/// One query in this many is marked for the serial-oracle check.
pub const SAMPLE_EVERY: u64 = 64;

/// One generated query.
#[derive(Debug, Clone)]
pub struct Query {
    /// The table to query.
    pub lut: Arc<Lut>,
    /// Input indices, each within the table.
    pub inputs: Vec<u64>,
    /// Whether this query is checked against the serial oracle.
    pub sampled: bool,
}

fn random_inputs(rng: &mut SplitMix, domain: u64) -> Vec<u64> {
    let len = MIN_INPUTS + rng.below(MAX_INPUTS - MIN_INPUTS + 1);
    (0..len).map(|_| rng.below(domain)).collect()
}

/// `serve_small` traffic: Zipf-popular queries against a fixed LUT set
/// (most popular first).
#[derive(Debug, Clone)]
pub struct SmallStream {
    rng: SplitMix,
    zipf: Zipf,
    luts: Vec<Arc<Lut>>,
}

impl SmallStream {
    /// Zipf exponent of LUT popularity.
    pub const ZIPF_S: f64 = 1.0;

    /// The stream for `seed` over `luts`.
    pub fn new(seed: u64, luts: Vec<Arc<Lut>>) -> Self {
        SmallStream {
            rng: SplitMix::new(seed),
            zipf: Zipf::new(luts.len(), Self::ZIPF_S),
            luts,
        }
    }

    /// The next query.
    pub fn next_query(&mut self) -> Query {
        let lut = Arc::clone(&self.luts[self.zipf.sample(&mut self.rng)]);
        let inputs = random_inputs(&mut self.rng, lut.len() as u64);
        Query {
            lut,
            inputs,
            sampled: self.rng.below(SAMPLE_EVERY) == 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pluto_core::lut::catalog;

    fn small_luts() -> Vec<Arc<Lut>> {
        vec![
            Arc::new(catalog::add(4).unwrap()),
            Arc::new(catalog::popcount(4).unwrap()),
            Arc::new(catalog::xor(1).unwrap()),
        ]
    }

    /// What identifies a query: table name and contents, inputs, sampling.
    type Key = (String, Vec<u64>, Vec<u64>, bool);

    fn key(q: &Query) -> Key {
        (
            q.lut.name().to_string(),
            q.lut.elements().to_vec(),
            q.inputs.clone(),
            q.sampled,
        )
    }

    fn small(seed: u64) -> Vec<Key> {
        let mut s = SmallStream::new(seed, small_luts());
        (0..500).map(|_| key(&s.next_query())).collect()
    }

    #[test]
    fn small_stream_is_reproducible_and_seed_dependent() {
        assert_eq!(small(7), small(7));
        assert_ne!(small(7), small(8));
    }

    #[test]
    fn generated_inputs_fit_their_tables() {
        let mut s = SmallStream::new(1, small_luts());
        for q in (0..300).map(|_| s.next_query()) {
            let n = q.inputs.len() as u64;
            assert!((MIN_INPUTS..=MAX_INPUTS).contains(&n));
            assert!(q.lut.apply_all(&q.inputs).is_ok());
        }
    }

    #[test]
    fn zipf_draws_follow_the_zipf_shares() {
        let z = Zipf::new(5, 1.0);
        let mut rng = SplitMix::new(11);
        let mut counts = [0usize; 5];
        let n = 100_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        let h: f64 = (1..=5).map(|r| 1.0 / r as f64).sum();
        for (r, &c) in counts.iter().enumerate() {
            let share = 1.0 / (r + 1) as f64 / h;
            // Five standard deviations of a binomial share.
            let tol = 5.0 * (share * (1.0 - share) / n as f64).sqrt();
            assert!((c as f64 / n as f64 - share).abs() < tol, "rank {r}: {c}");
        }
    }
}
