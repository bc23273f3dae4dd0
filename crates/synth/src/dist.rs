//! Distribution toolkit.
//!
//! Implemented here rather than pulling `rand_distr`, keeping the workspace
//! within its approved dependency set. Each sampler is deterministic given
//! the RNG.

use rand::Rng;

/// Log-normal sampler: `exp(mu + sigma·Z)` with `Z ~ N(0,1)` via Box–Muller.
///
/// Used for payment amounts — the paper's Figure 5 survival functions are
/// classic heavy-tailed money distributions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of the underlying normal.
    pub mu: f64,
    /// Standard deviation of the underlying normal.
    pub sigma: f64,
}

impl LogNormal {
    /// Creates a sampler with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> LogNormal {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
        LogNormal { mu, sigma }
    }

    /// A log-normal whose *median* is `median` with shape `sigma`.
    pub fn with_median(median: f64, sigma: f64) -> LogNormal {
        assert!(median > 0.0);
        LogNormal::new(median.ln(), sigma)
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// One standard-normal draw (Box–Muller, using a single pair member).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Zipf sampler over ranks `0..n` with exponent `s`: `P(k) ∝ 1/(k+1)^s`.
///
/// Used wherever the paper reports heavy concentration: offer placement
/// (top-10 Market Makers ⇒ 50% of offers), destination popularity, hub
/// traffic.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Creates a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s.is_finite() && s >= 0.0);
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Draws a rank in `0..n` (0 is the most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

/// Weighted categorical sampler over arbitrary items.
#[derive(Debug, Clone)]
pub struct Categorical<T> {
    items: Vec<T>,
    cumulative: Vec<f64>,
}

impl<T: Clone> Categorical<T> {
    /// Builds from `(item, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if empty or any weight is negative/non-finite, or all weights
    /// are zero.
    pub fn new(pairs: impl IntoIterator<Item = (T, f64)>) -> Categorical<T> {
        let mut items = Vec::new();
        let mut cumulative = Vec::new();
        let mut total = 0.0;
        for (item, weight) in pairs {
            assert!(weight.is_finite() && weight >= 0.0, "bad weight {weight}");
            total += weight;
            items.push(item);
            cumulative.push(total);
        }
        assert!(!items.is_empty(), "categorical needs at least one item");
        assert!(total > 0.0, "categorical needs positive total weight");
        for c in &mut cumulative {
            *c /= total;
        }
        Categorical { items, cumulative }
    }

    /// Draws one item.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &T {
        let u: f64 = rng.gen();
        let idx = self
            .cumulative
            .partition_point(|&c| c < u)
            .min(self.items.len() - 1);
        &self.items[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn lognormal_median_is_respected() {
        let mut rng = rng();
        let d = LogNormal::with_median(50.0, 1.0);
        let mut samples: Vec<f64> = (0..10_001).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[5_000];
        assert!((35.0..70.0).contains(&median), "median = {median}");
    }

    #[test]
    fn lognormal_is_positive_and_heavy_tailed() {
        let mut rng = rng();
        let d = LogNormal::with_median(1.0, 2.0);
        let samples: Vec<f64> = (0..10_000).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        let max = samples.iter().cloned().fold(0.0, f64::max);
        assert!(max > 100.0, "heavy tail expected, max = {max}");
    }

    #[test]
    fn zipf_concentrates_on_low_ranks() {
        let mut rng = rng();
        let z = Zipf::new(100, 1.1);
        let mut counts = vec![0u32; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let top10: u32 = counts[..10].iter().sum();
        let total: u32 = counts.iter().sum();
        let frac = top10 as f64 / total as f64;
        // With s = 1.1 over 100 ranks the top 10 carry roughly half.
        assert!((0.45..0.75).contains(&frac), "top-10 share = {frac}");
    }

    #[test]
    fn zipf_mass_sums_to_one() {
        let z = Zipf::new(50, 1.0);
        // The masses telescope to the last cumulative entry.
        assert_eq!(z.cumulative.len(), 50);
        assert!((z.cumulative[49] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn categorical_matches_weights() {
        let mut rng = rng();
        let c = Categorical::new([("a", 0.5), ("b", 0.3), ("c", 0.2)]);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..30_000 {
            *counts.entry(*c.sample(&mut rng)).or_insert(0u32) += 1;
        }
        let frac = |k: &str| counts[k] as f64 / 30_000.0;
        assert!((frac("a") - 0.5).abs() < 0.02);
        assert!((frac("b") - 0.3).abs() < 0.02);
        assert!((frac("c") - 0.2).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_empty() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn categorical_rejects_zero_weights() {
        let _ = Categorical::new([("a", 0.0)]);
    }
}
