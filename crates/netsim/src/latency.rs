//! Link latency models.

use crate::sim::SimTime;
use rand::Rng;

/// How long a message takes to cross a link.
///
/// The consensus experiments use [`LatencyModel::Jittered`] for healthy
/// validators and [`LatencyModel::Heavy`] for the paper's "struggling to stay
/// in sync" cohort (§IV: validators whose "latency made it almost impossible
/// to participate in the distributed protocol").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Constant latency.
    Fixed(SimTime),
    /// Uniform in `[base, base + jitter]`.
    Jittered {
        /// Minimum latency.
        base: SimTime,
        /// Maximum additional delay.
        jitter: SimTime,
    },
    /// A heavy-tailed model: usually `base`, but with probability
    /// `spike_prob` the latency spikes to `base + spike`.
    Heavy {
        /// Common-case latency.
        base: SimTime,
        /// Extra delay on a spike.
        spike: SimTime,
        /// Probability of a spike (0.0–1.0).
        spike_prob: f64,
    },
}

impl LatencyModel {
    /// Samples a latency.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        match *self {
            LatencyModel::Fixed(t) => t,
            LatencyModel::Jittered { base, jitter } => {
                if jitter == SimTime::ZERO {
                    base
                } else {
                    base + SimTime::from_millis(rng.gen_range(0..=jitter.as_millis()))
                }
            }
            LatencyModel::Heavy {
                base,
                spike,
                spike_prob,
            } => {
                if rng.gen_bool(spike_prob.clamp(0.0, 1.0)) {
                    base + spike
                } else {
                    base
                }
            }
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::Fixed(SimTime::from_millis(50))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    impl LatencyModel {
        /// The lowest latency the model can produce.
        fn min_latency(&self) -> SimTime {
            match *self {
                LatencyModel::Fixed(t) => t,
                LatencyModel::Jittered { base, .. } => base,
                LatencyModel::Heavy { base, .. } => base,
            }
        }
    }

    #[test]
    fn fixed_is_constant() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let m = LatencyModel::Fixed(SimTime::from_millis(42));
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimTime::from_millis(42));
        }
    }

    #[test]
    fn jittered_stays_in_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let m = LatencyModel::Jittered {
            base: SimTime::from_millis(10),
            jitter: SimTime::from_millis(5),
        };
        for _ in 0..100 {
            let t = m.sample(&mut rng);
            assert!(t >= SimTime::from_millis(10) && t <= SimTime::from_millis(15));
        }
    }

    #[test]
    fn heavy_spikes_with_expected_frequency() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let m = LatencyModel::Heavy {
            base: SimTime::from_millis(10),
            spike: SimTime::from_millis(1_000),
            spike_prob: 0.5,
        };
        let spikes = (0..1_000)
            .filter(|_| m.sample(&mut rng) > SimTime::from_millis(10))
            .count();
        assert!((350..650).contains(&spikes), "spikes = {spikes}");
    }

    #[test]
    fn min_latency_matches_base() {
        assert_eq!(
            LatencyModel::default().min_latency(),
            SimTime::from_millis(50)
        );
    }
}
