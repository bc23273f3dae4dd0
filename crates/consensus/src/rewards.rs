//! The paper's §IV proposal, made runnable: "A solution could be
//! introducing a carefully crafted reward system that would stimulate the
//! entry of new validation servers in Ripple. For example, the reward could
//! be defined as an added tax value to the transactions that go through in
//! each validation round. A larger number of validators would lead to a
//! better distributed validation process that in turn would improve the
//! reliability of the entire system."
//!
//! This module simulates that economy: a per-transaction tax funds a reward
//! pool split across active validators; independent operators join while
//! expected revenue beats their operating cost and leave when it does not.
//! The availability payoff is quantified as the probability that a round
//! misses its 80% quorum given independently-failing validators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::rounds::{support_required, QUORUM_PCT};

/// The reward policy under test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardPolicy {
    /// Added tax per transaction, in basis points of the average fee base.
    /// Zero reproduces today's Ripple (validation pays nothing).
    pub tax_bps: u32,
    /// A validator's operating cost per round, in XRP (hardware, bandwidth
    /// — the paper: "running a validator is an expensive task").
    pub operating_cost_per_round: f64,
}

/// The simulated market around the policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EconomyConfig {
    /// Validators at the start (the paper's December 2015: R1–R5 plus a
    /// handful of volunteers).
    pub initial_validators: usize,
    /// Operators who would run a validator if it paid.
    pub candidate_pool: usize,
    /// Transactions per consensus round (fee base for the tax).
    pub transactions_per_round: f64,
    /// Average taxable value per transaction, in XRP.
    pub fee_base_xrp: f64,
    /// Independent per-round availability of each validator.
    pub validator_availability: f64,
    /// Rounds per simulated epoch (entry/exit decisions happen per epoch).
    pub rounds_per_epoch: u64,
    /// Number of epochs.
    pub epochs: usize,
}

impl Default for EconomyConfig {
    fn default() -> Self {
        EconomyConfig {
            initial_validators: 8,
            candidate_pool: 120,
            transactions_per_round: 50.0,
            fee_base_xrp: 1.0,
            validator_availability: 0.97,
            rounds_per_epoch: 10_000,
            epochs: 40,
        }
    }
}

/// Per-epoch trajectory of the simulated economy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EconomyOutcome {
    /// Validator count at the end of each epoch.
    pub validators: Vec<usize>,
    /// Expected per-validator revenue per round at each epoch.
    pub revenue_per_round: Vec<f64>,
    /// Probability that a round misses the 80% quorum at each epoch.
    pub quorum_failure_prob: Vec<f64>,
}

impl EconomyOutcome {
    /// The final, equilibrium validator count.
    pub fn equilibrium_validators(&self) -> usize {
        self.validators.last().copied().unwrap_or(0)
    }

    /// The final quorum-failure probability.
    pub fn final_failure_prob(&self) -> f64 {
        self.quorum_failure_prob.last().copied().unwrap_or(1.0)
    }

    /// The final expected per-validator revenue per round (0.0 for an
    /// empty trajectory — no panicking `last().unwrap()` on consumers).
    pub fn final_revenue(&self) -> f64 {
        self.revenue_per_round.last().copied().unwrap_or(0.0)
    }
}

/// Probability that fewer than a quorum ([`QUORUM_PCT`]) of `n` validators are up when
/// each is independently available with probability `p` — the chance a
/// round cannot reach its quorum.
fn quorum_failure_probability(n: usize, p: f64) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let needed = support_required(n, QUORUM_PCT);
    let p = p.clamp(0.0, 1.0);
    // Degenerate availabilities first: the recursion below would produce
    // 0 · ∞ at the boundaries.
    if p >= 1.0 {
        return 0.0;
    }
    if p <= 0.0 {
        return 1.0;
    }
    // P(X < needed), X ~ Binomial(n, p), computed with stable recursion.
    let mut prob_k = (1.0 - p).powi(n as i32); // P(X = 0)
    let mut cumulative = 0.0;
    for k in 0..needed {
        cumulative += prob_k;
        // advance to P(X = k+1)
        prob_k *= (n - k) as f64 / (k + 1) as f64 * (p / (1.0 - p));
    }
    cumulative.clamp(0.0, 1.0)
}

/// Simulates the reward economy. Deterministic for a given seed.
///
/// # Examples
///
/// ```
/// use ripple_consensus::{simulate_reward_economy, EconomyConfig, RewardPolicy};
///
/// let funded = simulate_reward_economy(
///     RewardPolicy { tax_bps: 150, operating_cost_per_round: 0.01 },
///     EconomyConfig::default(),
///     7,
/// );
/// let unfunded = simulate_reward_economy(
///     RewardPolicy { tax_bps: 0, operating_cost_per_round: 0.01 },
///     EconomyConfig::default(),
///     7,
/// );
/// assert!(funded.equilibrium_validators() > unfunded.equilibrium_validators());
/// assert!(funded.final_failure_prob() < unfunded.final_failure_prob());
/// ```
pub fn simulate_reward_economy(
    policy: RewardPolicy,
    config: EconomyConfig,
    seed: u64,
) -> EconomyOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut validators = config.initial_validators;
    let mut out = EconomyOutcome {
        validators: Vec::with_capacity(config.epochs),
        revenue_per_round: Vec::with_capacity(config.epochs),
        quorum_failure_prob: Vec::with_capacity(config.epochs),
    };
    let pool_per_round =
        config.transactions_per_round * config.fee_base_xrp * (policy.tax_bps as f64 / 10_000.0);

    for _ in 0..config.epochs {
        let revenue = if validators == 0 {
            0.0
        } else {
            pool_per_round / validators as f64
        };

        // Entry: candidates trickle in while a *new* entrant would still
        // profit (they evaluate the pool split across validators + 1, with
        // a 10% hysteresis margin and per-epoch entry friction).
        let mut joined = 0;
        while validators < config.initial_validators + config.candidate_pool && joined < 4 {
            let prospective = pool_per_round / (validators + 1) as f64;
            if prospective > policy.operating_cost_per_round * 1.1 {
                validators += 1;
                joined += 1;
                // Entry is sticky: some candidates hesitate an epoch.
                if rng.gen_bool(0.35) {
                    break;
                }
            } else {
                break;
            }
        }
        // Exit: volunteers without revenue churn away slowly (the paper's
        // observed dynamics: freewallet-style disappearances), down to the
        // committed core of five.
        if revenue < policy.operating_cost_per_round * 0.9 && validators > 5 && rng.gen_bool(0.5) {
            validators -= 1;
        }

        out.validators.push(validators);
        out.revenue_per_round.push(if validators == 0 {
            0.0
        } else {
            pool_per_round / validators as f64
        });
        out.quorum_failure_prob.push(quorum_failure_probability(
            validators,
            config.validator_availability,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> EconomyConfig {
        EconomyConfig::default()
    }

    /// Today's network: no reward at all.
    fn no_reward(operating_cost_per_round: f64) -> RewardPolicy {
        RewardPolicy {
            tax_bps: 0,
            operating_cost_per_round,
        }
    }

    #[test]
    fn no_reward_economy_shrinks_to_the_core() {
        let outcome = simulate_reward_economy(no_reward(0.01), config(), 1);
        assert!(
            outcome.equilibrium_validators() <= config().initial_validators,
            "no revenue, no growth: {}",
            outcome.equilibrium_validators()
        );
        assert!(outcome.equilibrium_validators() >= 5, "the core persists");
    }

    #[test]
    fn taxes_grow_the_validator_set() {
        let cfg = config();
        let low = simulate_reward_economy(
            RewardPolicy {
                tax_bps: 20,
                operating_cost_per_round: 0.01,
            },
            cfg,
            2,
        );
        let high = simulate_reward_economy(
            RewardPolicy {
                tax_bps: 200,
                operating_cost_per_round: 0.01,
            },
            cfg,
            2,
        );
        assert!(
            high.equilibrium_validators() > low.equilibrium_validators(),
            "more tax, more validators: {} vs {}",
            high.equilibrium_validators(),
            low.equilibrium_validators()
        );
        assert!(high.equilibrium_validators() > cfg.initial_validators);
    }

    #[test]
    fn equilibrium_revenue_tracks_cost() {
        let policy = RewardPolicy {
            tax_bps: 100,
            operating_cost_per_round: 0.01,
        };
        let outcome = simulate_reward_economy(policy, config(), 3);
        let final_revenue = outcome.final_revenue();
        // Free entry pushes per-validator revenue towards cost.
        assert!(
            final_revenue < policy.operating_cost_per_round * 2.5,
            "entry should dilute windfalls: {final_revenue}"
        );
        assert!(final_revenue > policy.operating_cost_per_round * 0.5);
    }

    #[test]
    fn more_validators_mean_fewer_quorum_failures() {
        let p = 0.97;
        let mut prev = quorum_failure_probability(5, p);
        for n in [10, 20, 40, 80] {
            let prob = quorum_failure_probability(n, p);
            assert!(
                prob <= prev + 1e-12,
                "failure probability must shrink with n: {prob} at {n}"
            );
            prev = prob;
        }
        assert!(quorum_failure_probability(80, p) < 1e-4);
    }

    #[test]
    fn quorum_failure_edge_cases() {
        assert_eq!(quorum_failure_probability(0, 0.99), 1.0);
        assert!(quorum_failure_probability(5, 1.0) < 1e-12);
        assert!((quorum_failure_probability(5, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reward_economy_reduces_availability_risk() {
        let cfg = config();
        let without = simulate_reward_economy(no_reward(0.01), cfg, 4);
        let with = simulate_reward_economy(
            RewardPolicy {
                tax_bps: 150,
                operating_cost_per_round: 0.01,
            },
            cfg,
            4,
        );
        assert!(
            with.final_failure_prob() < without.final_failure_prob(),
            "the paper's proposal must help: {} vs {}",
            with.final_failure_prob(),
            without.final_failure_prob()
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let policy = RewardPolicy {
            tax_bps: 80,
            operating_cost_per_round: 0.02,
        };
        let a = simulate_reward_economy(policy, config(), 9);
        let b = simulate_reward_economy(policy, config(), 9);
        assert_eq!(a, b);
    }
}
