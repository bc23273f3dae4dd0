//! Multi-round chaos campaigns: RPCA under a timed fault schedule, with
//! safety and liveness invariants checked every round.
//!
//! This automates the paper's §IV `validator_watch` observation at the
//! message level. A [`ChaosCampaign`] drives a [`RoundEngine`] for a fixed
//! number of rounds while a [`FaultPlan`] disturbs the network on a virtual
//! -time schedule; an [`InvariantChecker`] asserts the no-fork safety
//! property after every round and tracks quorum-stall windows (maximal
//! runs of uncommitted rounds) and the recovery lag once the faults clear.
//!
//! Determinism is a hard guarantee: the same seed and the same plan yield
//! a byte-identical [`ChaosOutcome::digest`], so chaos regressions are
//! exactly reproducible.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use ripple_crypto::{sha512_half, Digest256};
use ripple_netsim::{FaultPlan, SimTime};
use ripple_obs::{span, LazyCounter, LazyHistogram, LazyTimer};

use crate::rounds::{RoundEngine, RoundError, RoundOutcome};
use crate::validator::Validator;

// Campaign observability (the paper's §IV per-round accounting as registry
// metrics): invariant-check cost and verdicts, per-round fault pressure,
// and liveness summaries (stall lengths, rounds-to-recover).
static INVARIANT_CHECKS: LazyCounter = LazyCounter::new("consensus.invariant.checks");
static INVARIANT_FORKS: LazyCounter = LazyCounter::new("consensus.invariant.forks");
static INVARIANT_CHECK_NS: LazyTimer = LazyTimer::new("consensus.invariant.check_ns");
static INVARIANT_PAGES_AT_QUORUM: LazyHistogram =
    LazyHistogram::new("consensus.invariant.pages_at_quorum");
static CHAOS_ROUNDS: LazyCounter = LazyCounter::new("consensus.chaos.rounds");
static CHAOS_COMMITTED: LazyCounter = LazyCounter::new("consensus.chaos.committed_rounds");
static CHAOS_HONEST_VALIDATIONS: LazyHistogram =
    LazyHistogram::new("consensus.chaos.honest_validations");
static CHAOS_DROPPED_MSGS: LazyHistogram = LazyHistogram::new("consensus.chaos.dropped_msgs");
static CHAOS_STALL_ROUNDS: LazyHistogram = LazyHistogram::new("consensus.chaos.stall_rounds");
static CHAOS_RECOVERY_ROUNDS: LazyHistogram = LazyHistogram::new("consensus.chaos.recovery_rounds");

/// A safety violation detected by the [`InvariantChecker`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForkViolation {
    /// The round in which it happened.
    pub round: u64,
    /// The conflicting pages, each with its honest-validator support.
    pub pages: Vec<(Digest256, usize)>,
}

impl std::fmt::Display for ForkViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fork in round {}: {} pages each reached quorum",
            self.round,
            self.pages.len()
        )
    }
}

impl std::error::Error for ForkViolation {}

/// Per-round record kept by a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Round index, starting at 0.
    pub round: u64,
    /// Virtual time at which the round started.
    pub started_at: SimTime,
    /// The committed page hash, if quorum was reached.
    pub committed: Option<Digest256>,
    /// Fraction of the UNL behind the winning page.
    pub agreement: f64,
    /// How many honest validators managed to sign a validation.
    pub honest_validations: usize,
    /// Messages the network dropped during this round (loss, partitions,
    /// crashes — a direct view of how hard the fault plan hit).
    pub messages_dropped: u64,
}

/// A maximal run of rounds in which no page committed — the paper's
/// quorum-stall phenomenon (§IV: losing ≥ 20% of validators halts page
/// creation until they return).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallWindow {
    /// First uncommitted round of the run.
    pub first_round: u64,
    /// Number of consecutive uncommitted rounds.
    pub rounds: u64,
}

/// How consensus recovered once the fault schedule settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// When the last scheduled disturbance cleared.
    pub faults_cleared_at: SimTime,
    /// Rounds from the first post-clear round to the first commit,
    /// inclusive (1 = the very first undisturbed round committed).
    pub rounds_to_recover: u64,
    /// Virtual time between the faults clearing and the first commit.
    pub time_to_recover: SimTime,
}

/// Everything a chaos campaign produces.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// One record per round, in order.
    pub rounds: Vec<RoundRecord>,
    /// Every maximal run of uncommitted rounds.
    pub stalls: Vec<StallWindow>,
    /// Recovery after the plan settled, if the campaign observed one
    /// (`None` when the plan is empty, never cleared in the horizon, or
    /// consensus never recommitted).
    pub recovery: Option<Recovery>,
    /// Rounds that committed a page.
    pub committed_rounds: u64,
    /// A digest over every per-round result: two runs with the same seed
    /// and plan produce byte-identical digests.
    pub digest: Digest256,
}

/// Checks safety (no fork) and measures liveness (stalls, recovery)
/// across the rounds of a campaign.
///
/// The no-fork invariant: in any round, at most one page may gather a
/// quorum of *honest* validations. Two pages at quorum simultaneously
/// would mean two conflicting ledgers both considered final — the
/// catastrophic outcome RPCA's 80% threshold exists to prevent.
#[derive(Debug)]
pub struct InvariantChecker {
    honest: Vec<bool>,
    quorum_needed: usize,
    next_round: u64,
    current_stall: Option<StallWindow>,
    stalls: Vec<StallWindow>,
}

impl InvariantChecker {
    /// Builds a checker for a population, given which indices are honest
    /// and the quorum size in validators.
    pub fn new(honest: Vec<bool>, quorum_needed: usize) -> InvariantChecker {
        InvariantChecker {
            honest,
            quorum_needed,
            next_round: 0,
            current_stall: None,
            stalls: Vec::new(),
        }
    }

    /// Ingests one round's outcome, asserting the no-fork invariant.
    ///
    /// # Errors
    ///
    /// [`ForkViolation`] if two or more distinct pages each reached a
    /// quorum of honest validations.
    pub fn observe(&mut self, outcome: &RoundOutcome) -> Result<(), ForkViolation> {
        let t_check = Instant::now();
        let round = self.next_round;
        self.next_round += 1;
        INVARIANT_CHECKS.add(1);

        // Tally honest validations per page.
        let mut support: HashMap<Digest256, usize> = HashMap::new();
        for (&v, &page) in &outcome.validations {
            if self.honest.get(v).copied().unwrap_or(false) {
                *support.entry(page).or_insert(0) += 1;
            }
        }
        let mut at_quorum: Vec<(Digest256, usize)> = support
            .into_iter()
            .filter(|&(_, count)| count >= self.quorum_needed)
            .collect();
        INVARIANT_PAGES_AT_QUORUM.record(at_quorum.len() as u64);
        if at_quorum.len() > 1 {
            at_quorum.sort_by_key(|&(page, _)| *page.as_bytes());
            INVARIANT_FORKS.add(1);
            INVARIANT_CHECK_NS.record(t_check.elapsed());
            return Err(ForkViolation {
                round,
                pages: at_quorum,
            });
        }

        // Liveness bookkeeping.
        if outcome.committed.is_some() {
            if let Some(stall) = self.current_stall.take() {
                self.stalls.push(stall);
            }
        } else {
            match &mut self.current_stall {
                Some(stall) => stall.rounds += 1,
                None => {
                    self.current_stall = Some(StallWindow {
                        first_round: round,
                        rounds: 1,
                    });
                }
            }
        }
        INVARIANT_CHECK_NS.record(t_check.elapsed());
        Ok(())
    }

    /// Finishes the campaign, returning every stall window (including one
    /// still open at the end). Each window's length lands in the
    /// `consensus.chaos.stall_rounds` histogram.
    pub fn into_stalls(mut self) -> Vec<StallWindow> {
        if let Some(stall) = self.current_stall.take() {
            self.stalls.push(stall);
        }
        for stall in &self.stalls {
            CHAOS_STALL_ROUNDS.record(stall.rounds);
        }
        self.stalls
    }
}

/// A multi-round consensus campaign under a timed [`FaultPlan`].
///
/// Rounds are fixed-duration (see [`RoundEngine::round_duration`]), so a
/// plan event at virtual time `t` lands in round `t / round_duration` —
/// chaos scenarios are scripted in time and observed in rounds.
#[derive(Debug)]
pub struct ChaosCampaign {
    engine: RoundEngine,
    plan: FaultPlan,
    rounds: u64,
    seed: u64,
    core_txs_per_round: u64,
}

impl ChaosCampaign {
    /// Builds a campaign over `validators`, disturbed by `plan`, running
    /// `rounds` rounds with all randomness derived from `seed`.
    pub fn new(
        validators: Vec<Validator>,
        plan: FaultPlan,
        rounds: u64,
        seed: u64,
    ) -> ChaosCampaign {
        ChaosCampaign {
            engine: RoundEngine::new(validators),
            plan,
            rounds,
            seed,
            core_txs_per_round: 3,
        }
    }

    /// Overrides the per-iteration proposal deadline (shrinks the round
    /// duration accordingly).
    #[must_use]
    pub fn with_iteration_timeout(mut self, timeout: SimTime) -> ChaosCampaign {
        self.engine = self.engine.with_iteration_timeout(timeout);
        self
    }

    /// How much virtual time each round occupies.
    pub fn round_duration(&self) -> SimTime {
        self.engine.round_duration()
    }

    /// Candidate positions for round `r`: a shared core of transactions
    /// every validator gossips, plus one unique transaction per validator
    /// (which the thresholds strip, as in the paper's model).
    fn positions(&self, round: u64) -> Vec<BTreeSet<u64>> {
        let n = self.engine.validator_count();
        let base = round * 1_000_000;
        (0..n as u64)
            .map(|v| {
                let mut set: BTreeSet<u64> =
                    (0..self.core_txs_per_round).map(|k| base + k).collect();
                set.insert(base + 1_000 + v);
                set
            })
            .collect()
    }

    /// Seed for round `r`, split from the campaign seed (splitmix-style
    /// mixing so neighbouring rounds get unrelated streams).
    fn round_seed(&self, round: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Runs the campaign to completion.
    ///
    /// # Errors
    ///
    /// [`ForkViolation`] the moment any round commits two pages at quorum
    /// (the campaign stops there: a forked history has no further
    /// meaning); [`RoundError`] never occurs in practice since positions
    /// are built per validator, but is surfaced rather than unwrapped.
    pub fn run(mut self) -> Result<ChaosOutcome, CampaignError> {
        let honest = self.engine.honest_mask();
        let quorum_needed = self.engine.quorum_needed();
        let mut checker = InvariantChecker::new(honest.clone(), quorum_needed);
        self.engine.network_mut().install_plan(self.plan.clone());

        let mut records = Vec::with_capacity(self.rounds as usize);
        for round in 0..self.rounds {
            let _round_span = span("consensus", "chaos_round");
            let started_at = self.engine.network().now();
            let dropped_before = self.engine.network().dropped();
            let positions = self.positions(round);
            let outcome = self
                .engine
                .run_round(&positions, self.round_seed(round))
                .map_err(CampaignError::Round)?;
            checker.observe(&outcome).map_err(CampaignError::Fork)?;
            let honest_validations = outcome
                .validations
                .keys()
                .filter(|&&v| honest.get(v).copied().unwrap_or(false))
                .count();
            let messages_dropped = self.engine.network().dropped() - dropped_before;
            CHAOS_ROUNDS.add(1);
            if outcome.committed.is_some() {
                CHAOS_COMMITTED.add(1);
            }
            CHAOS_HONEST_VALIDATIONS.record(honest_validations as u64);
            CHAOS_DROPPED_MSGS.record(messages_dropped);
            records.push(RoundRecord {
                round,
                started_at,
                committed: outcome.committed.as_ref().map(|(page, _)| *page),
                agreement: outcome.agreement,
                honest_validations,
                messages_dropped,
            });
        }
        let stalls = checker.into_stalls();

        let recovery = self.measure_recovery(&records);
        if let Some(recovery) = &recovery {
            CHAOS_RECOVERY_ROUNDS.record(recovery.rounds_to_recover);
        }
        let committed_rounds = records.iter().filter(|r| r.committed.is_some()).count() as u64;
        let digest = digest_records(&records);
        Ok(ChaosOutcome {
            rounds: records,
            stalls,
            recovery,
            committed_rounds,
            digest,
        })
    }

    /// Rounds-to-recover: from the first round starting at or after the
    /// plan's settle time to the first committed round.
    fn measure_recovery(&self, records: &[RoundRecord]) -> Option<Recovery> {
        if self.plan.is_empty() {
            return None;
        }
        let cleared = self.plan.settles_at();
        let first_clear_idx = records.iter().position(|r| r.started_at >= cleared)?;
        let committed_idx = records[first_clear_idx..]
            .iter()
            .position(|r| r.committed.is_some())
            .map(|offset| first_clear_idx + offset)?;
        let commit_time =
            records[committed_idx].started_at + self.engine.round_duration() - cleared;
        Some(Recovery {
            faults_cleared_at: cleared,
            rounds_to_recover: (committed_idx - first_clear_idx + 1) as u64,
            time_to_recover: commit_time,
        })
    }
}

/// Why a campaign aborted.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The no-fork invariant failed.
    Fork(ForkViolation),
    /// A round refused to start (impossible by construction, but never
    /// silently unwrapped).
    Round(RoundError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Fork(v) => write!(f, "safety violation: {v}"),
            CampaignError::Round(e) => write!(f, "round setup failed: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Digest over every per-round result. Byte-identical across runs with
/// the same seed and plan — the campaign's determinism witness.
fn digest_records(records: &[RoundRecord]) -> Digest256 {
    let mut bytes = Vec::with_capacity(16 + records.len() * 56);
    bytes.extend_from_slice(b"CHAOSRUN");
    for r in records {
        bytes.extend_from_slice(&r.round.to_be_bytes());
        bytes.extend_from_slice(&r.started_at.as_millis().to_be_bytes());
        match &r.committed {
            Some(page) => {
                bytes.push(1);
                bytes.extend_from_slice(page.as_bytes());
            }
            None => bytes.push(0),
        }
        bytes.extend_from_slice(&r.agreement.to_bits().to_be_bytes());
        bytes.extend_from_slice(&(r.honest_validations as u64).to_be_bytes());
        bytes.extend_from_slice(&r.messages_dropped.to_be_bytes());
    }
    sha512_half(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::ValidatorProfile;
    use ripple_netsim::NodeId;

    impl ChaosCampaign {
        /// The round that virtual time `t` falls into.
        fn round_of(&self, t: SimTime) -> u64 {
            t.as_millis() / self.engine.round_duration().as_millis().max(1)
        }
    }

    fn honest(n: usize) -> Vec<Validator> {
        (0..n)
            .map(|i| {
                Validator::new(
                    i,
                    format!("v{i}"),
                    ValidatorProfile::Reliable { availability: 1.0 },
                )
            })
            .collect()
    }

    fn fast(campaign: ChaosCampaign) -> ChaosCampaign {
        campaign.with_iteration_timeout(SimTime::from_millis(100))
    }

    #[test]
    fn quiet_network_commits_every_round() {
        let outcome = fast(ChaosCampaign::new(honest(5), FaultPlan::new(), 6, 42))
            .run()
            .unwrap();
        assert_eq!(outcome.committed_rounds, 6);
        assert!(outcome.stalls.is_empty());
        assert!(
            outcome.recovery.is_none(),
            "no faults, nothing to recover from"
        );
    }

    #[test]
    fn majority_crash_stalls_quorum_until_restart() {
        // Rounds are 500ms. Crash 2 of 5 validators (40% > 20%) during
        // rounds 2–3; §IV predicts page creation halts, then resumes.
        let plan = FaultPlan::new()
            .crash_at(SimTime::from_millis(1_000), NodeId(3))
            .crash_at(SimTime::from_millis(1_000), NodeId(4))
            .restart_at(SimTime::from_millis(2_000), NodeId(3))
            .restart_at(SimTime::from_millis(2_000), NodeId(4));
        let outcome = fast(ChaosCampaign::new(honest(5), plan, 8, 7))
            .run()
            .unwrap();
        assert_eq!(
            outcome.stalls,
            [StallWindow {
                first_round: 2,
                rounds: 2
            }],
            "the crash, and only the crash, stalls quorum"
        );
        let recovery = outcome.recovery.expect("validators came back");
        assert_eq!(recovery.rounds_to_recover, 1, "first clean round commits");
        assert_eq!(outcome.committed_rounds, 6);
    }

    #[test]
    fn identical_seeds_and_plans_are_byte_identical() {
        let run = || {
            let plan = FaultPlan::new()
                .partition_at(
                    SimTime::from_millis(500),
                    vec![NodeId(0), NodeId(1)],
                    vec![NodeId(2), NodeId(3), NodeId(4)],
                )
                .heal_at(SimTime::from_millis(1_500))
                .loss_burst(
                    SimTime::from_millis(2_000),
                    SimTime::from_millis(2_500),
                    0.5,
                );
            fast(ChaosCampaign::new(honest(5), plan, 8, 99))
                .run()
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.stalls, b.stalls);
        assert_eq!(a.recovery, b.recovery);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let plan = || FaultPlan::new().loss_burst(SimTime::ZERO, SimTime::from_secs(2), 0.4);
        let a = fast(ChaosCampaign::new(honest(5), plan(), 4, 1))
            .run()
            .unwrap();
        let b = fast(ChaosCampaign::new(honest(5), plan(), 4, 2))
            .run()
            .unwrap();
        assert_ne!(a.digest, b.digest, "seed must reach the loss sampling");
    }

    #[test]
    fn invariant_checker_flags_synthetic_fork() {
        use crate::rounds::page_hash;
        let page_a = page_hash(&[1u64].into_iter().collect());
        let page_b = page_hash(&[2u64].into_iter().collect());
        let mut checker = InvariantChecker::new(vec![true; 10], 4);
        let outcome = RoundOutcome {
            committed: None,
            validations: (0..10)
                .map(|v| (v, if v < 5 { page_a } else { page_b }))
                .collect(),
            agreement: 0.5,
        };
        let err = checker.observe(&outcome).unwrap_err();
        assert_eq!(err.round, 0);
        assert_eq!(err.pages.len(), 2);
        assert!(err.to_string().contains("fork in round 0"));
    }

    #[test]
    fn byzantine_validations_do_not_count_toward_forks() {
        use crate::rounds::page_hash;
        let page_a = page_hash(&[1u64].into_iter().collect());
        let page_b = page_hash(&[2u64].into_iter().collect());
        // Validators 5..10 are byzantine: their united front behind page_b
        // must not register as a second quorum.
        let honest = (0..10).map(|v| v < 5).collect();
        let mut checker = InvariantChecker::new(honest, 4);
        let outcome = RoundOutcome {
            committed: None,
            validations: (0..10)
                .map(|v| (v, if v < 5 { page_a } else { page_b }))
                .collect(),
            agreement: 0.5,
        };
        assert!(checker.observe(&outcome).is_ok());
    }

    #[test]
    fn stall_windows_merge_consecutive_failures_only() {
        let mut checker = InvariantChecker::new(vec![true; 5], 4);
        let committed = RoundOutcome {
            committed: Some((crate::rounds::page_hash(&BTreeSet::new()), BTreeSet::new())),
            validations: HashMap::new(),
            agreement: 1.0,
        };
        let failed = RoundOutcome {
            committed: None,
            validations: HashMap::new(),
            agreement: 0.4,
        };
        for outcome in [&committed, &failed, &failed, &committed, &failed] {
            checker.observe(outcome).unwrap();
        }
        let stalls = checker.into_stalls();
        assert_eq!(
            stalls,
            vec![
                StallWindow {
                    first_round: 1,
                    rounds: 2
                },
                StallWindow {
                    first_round: 4,
                    rounds: 1
                },
            ]
        );
    }

    #[test]
    fn round_of_maps_time_to_rounds() {
        let campaign = fast(ChaosCampaign::new(honest(3), FaultPlan::new(), 1, 0));
        assert_eq!(campaign.round_duration(), SimTime::from_millis(500));
        assert_eq!(campaign.round_of(SimTime::from_millis(499)), 0);
        assert_eq!(campaign.round_of(SimTime::from_millis(500)), 1);
        assert_eq!(campaign.round_of(SimTime::from_millis(1_250)), 2);
    }
}
