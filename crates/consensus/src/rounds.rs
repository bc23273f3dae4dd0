//! Message-level RPCA: one consensus round over a simulated network, each
//! message handed to the deadline window it lands in.
//!
//! The protocol follows Schwartz, Youngs and Britto's white paper (the
//! paper's reference [6]): validators start from their own candidate
//! transaction sets and run proposal iterations with escalating agreement
//! thresholds (50% → 55% → 60% → 80% of the UNL); a transaction survives an
//! iteration only if enough trusted peers propose it. After the final
//! iteration each validator seals its position into a page and broadcasts a
//! signed validation; the page is committed if at least 80% of the UNL
//! validated the same hash.
//!
//! The engine supports the failure modes the paper worries about: byzantine
//! validators (equivocating positions), crashed validators, partitions, and
//! validators whose latency pushes their proposals past the iteration
//! deadline. It is the only in-process RPCA driver: each validator counts
//! its own UNL ([`RoundEngine::with_unls`]; by default everyone's), and the
//! UNL analysis ([`run_unl_round`](crate::unl::run_unl_round)) is one round.
//!
//! # One validator, two transports
//!
//! Each validator is a [`ValidatorCore`], as in `ripple-node`. The engine
//! drives n of them and keeps only what a simulator alone has: crash
//! skipping, byzantine lies (drawn from the round's RNG between sends) and
//! the omniscient [`RoundOutcome`], tallied over every validator's sealed
//! page.
//!
//! # Deadline windows, not an event queue
//!
//! Each phase sends its messages at the phase's start, drawing every fate
//! and arrival time from `ripple-netsim`'s link model ([`Network`]) in
//! sender order. When the phase's deadline passes, every message that has
//! landed by then — at or before the deadline — goes to its recipient's
//! core; the rest stay in flight, carried to the window they land in, where
//! a proposal from an earlier round is dropped as stale. A core files one
//! message per sender and slot and its deadline counts what is filed, so
//! the order messages land in within a window changes nothing, and no
//! time-ordered queue is kept. A crash or cut on the way is read at each
//! message's arrival time ([`Network::arrives`]), so a message dropped in
//! flight is counted in the round whose window holds its arrival. Messages
//! still in flight when the engine's last round ends are never counted.
//!
//! # Interned positions
//!
//! Positions only shrink within the union a round starts from: refinement
//! keeps a subset of what a validator and its peers proposed, and a
//! byzantine lie is a subset of the liar's own position. So
//! [`RoundEngine::run_round`] interns the sorted, de-duplicated union of the
//! initial positions once — the round's *candidate table*, one buffer every
//! core shares — and from then on a position is an ascending `Arc<[u32]>`
//! of indices into it. A broadcast shares one buffer among its recipients,
//! and support is counted by the core's kernel: a dense `support[ix] += 1`
//! whose survivors come out already ascending.
//!
//! A proposal belongs to its round: it names the round it was sent in (the
//! simulator's stand-in for the previous-ledger hash a real proposal
//! carries), and one still in flight when a later round starts is dropped on
//! receipt and counted in `consensus.rounds.stale_proposals` — so that union
//! is the only id space a round ever sees.
//!
//! # One rulebook
//!
//! The thresholds are integer percent ([`RPCA_THRESHOLDS`], [`QUORUM_PCT`]),
//! [`support_required`] is the one exact ceiling over them, and
//! [`tally_validations`] is the one validation count. The validator core,
//! the UNL analysis, the statistical campaign and `ripple-node`'s cluster
//! harness all call these; none spells the rule itself.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ripple_crypto::{sha512_half, Digest256};
use ripple_netsim::{LatencyModel, Network, NodeId, SimTime};
use ripple_obs::{span, LazyCounter, LazyHistogram};

use crate::core::{Refused, ValidatorCore};
use crate::validator::{Validator, ValidatorProfile};

/// The escalating agreement thresholds of RPCA, in percent of the UNL.
pub const RPCA_THRESHOLDS: [u32; 4] = [50, 55, 60, 80];

/// The share of the UNL, in percent, that must validate one page for it to
/// be committed.
pub const QUORUM_PCT: u32 = 80;

/// Phases per round, simulated or wall-clock: the RPCA proposal iterations
/// plus the validation phase.
pub const PHASES: u64 = RPCA_THRESHOLDS.len() as u64 + 1;

// Round instrumentation: message accounting in the style of the per-round
// bookkeeping that Amores-Sesar et al. and Chase & MacBrough lean on for
// safety/liveness arguments. All of it is derived from the seeded
// simulation, so it lands in the deterministic snapshot sections.
static ROUNDS_RUN: LazyCounter = LazyCounter::new("consensus.rounds.run");
static PROPOSALS_SENT: LazyCounter = LazyCounter::new("consensus.rounds.proposals_sent");
static VALIDATIONS_SENT: LazyCounter = LazyCounter::new("consensus.rounds.validations_sent");
static VALIDATION_MSGS_SEEN: LazyHistogram =
    LazyHistogram::new("consensus.rounds.validation_msgs_seen");
// One per position buffer built (interned, refined or lied).
// Against `proposals_sent` it shows that a broadcast shares its buffer: an
// honest round builds at most 5 n of them for 4 n (n - 1) proposals.
static POSITION_ALLOCS: LazyCounter = LazyCounter::new("consensus.rounds.position_allocs");
// Proposals dropped because they name an earlier round. Registered by the
// first one, so a run without any has no such key in its snapshot.
static STALE_PROPOSALS: LazyCounter = LazyCounter::new("consensus.rounds.stale_proposals");

/// A message on its way to `to`, landing at `at`. A proposal carries its
/// round, iteration and position (ascending indices into that round's
/// candidate table, one buffer shared by a broadcast's recipients); a
/// validation carries nothing the engine reads, since each page is tallied
/// where it is sealed.
#[derive(Debug)]
struct InFlight {
    from: usize,
    to: usize,
    at: SimTime,
    proposal: Option<Proposal>,
}

/// A proposal's round, iteration and position.
type Proposal = (u64, usize, Arc<[u32]>);

/// Why a round could not even be started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RoundError {
    /// `initial_positions` did not provide exactly one set per validator.
    PositionCountMismatch {
        /// The validator count.
        expected: usize,
        /// The number of positions supplied.
        actual: usize,
    },
    /// The engine has no validators at all.
    NoValidators,
    /// A validator's UNL is missing, omits it, or names a validator the
    /// engine does not have.
    InvalidUnl {
        /// Whose UNL it is.
        validator: usize,
    },
}

impl std::fmt::Display for RoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoundError::PositionCountMismatch { expected, actual } => write!(
                f,
                "one initial position per validator: expected {expected}, got {actual}"
            ),
            RoundError::NoValidators => write!(f, "cannot run a round with zero validators"),
            RoundError::InvalidUnl { validator } => write!(
                f,
                "validator {validator} must appear in its own UNL of known validators"
            ),
        }
    }
}

impl std::error::Error for RoundError {}

/// Outcome of a single consensus round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// The committed page hash and transaction set, if quorum was reached.
    pub committed: Option<(Digest256, BTreeSet<u64>)>,
    /// Each validator's signed page hash.
    pub validations: HashMap<usize, Digest256>,
    /// Fraction of the UNL that validated the winning page (0.0 if none).
    pub agreement: f64,
}

/// A message-level RPCA engine over a simulated network.
pub struct RoundEngine {
    validators: Vec<Validator>,
    network: Network,
    /// Messages sent but not yet landed, in send order.
    in_flight: Vec<InFlight>,
    iteration_timeout: SimTime,
    /// Rounds started so far; the current round's number is this minus one.
    rounds_started: u64,
    /// `cores[v]`: validator `v`'s UNL, position and filed proposals.
    cores: Vec<ValidatorCore>,
}

impl std::fmt::Debug for RoundEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundEngine")
            .field("validators", &self.validators.len())
            .field("iteration_timeout", &self.iteration_timeout)
            .field("rounds_started", &self.rounds_started)
            .finish()
    }
}

impl RoundEngine {
    /// Creates an engine for the given validator population. Every validator
    /// trusts every other (a single shared UNL, as in the study period's
    /// default configuration).
    pub fn new(validators: Vec<Validator>) -> RoundEngine {
        let n = validators.len();
        let mut network = Network::new(n);
        network.set_default_latency(LatencyModel::Jittered {
            base: SimTime::from_millis(20),
            jitter: SimTime::from_millis(30),
        });
        let everyone: BTreeSet<usize> = (0..n).collect();
        RoundEngine {
            validators,
            network,
            in_flight: Vec::new(),
            iteration_timeout: SimTime::from_millis(500),
            rounds_started: 0,
            cores: (0..n)
                .filter_map(|v| ValidatorCore::new(v, &everyone, n))
                .collect(),
        }
    }

    /// Gives validator `v` its own UNL, `unls[v]`: it counts only those
    /// validators' proposals, against `support_required(unls[v].len(), pct)`.
    ///
    /// # Errors
    ///
    /// [`RoundError::InvalidUnl`] unless each validator has one UNL, which
    /// names it and only validators the engine has.
    pub fn with_unls(mut self, unls: &[BTreeSet<usize>]) -> Result<RoundEngine, RoundError> {
        let n = self.validators.len();
        self.cores = (0..n.max(unls.len()))
            .map(|validator| {
                unls.get(validator)
                    .and_then(|unl| ValidatorCore::new(validator, unl, n))
                    .ok_or(RoundError::InvalidUnl { validator })
            })
            .collect::<Result<_, _>>()?;
        Ok(self)
    }

    /// Access to the underlying network for failure injection (partitions,
    /// crashes, per-node latency, fault plans).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Read-only access to the underlying network (clock, drop counters).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// How much virtual time one round occupies. Rounds are fixed-duration:
    /// each proposal iteration and the validation phase runs to its
    /// deadline, so round `r` spans exactly
    /// `[r · round_duration, (r + 1) · round_duration)` — which is what
    /// makes timed [`FaultPlan`](ripple_netsim::FaultPlan) events land in
    /// predictable rounds.
    pub fn round_duration(&self) -> SimTime {
        SimTime::from_millis(self.iteration_timeout.as_millis() * PHASES)
    }

    /// Overrides the per-iteration proposal deadline.
    pub fn with_iteration_timeout(mut self, timeout: SimTime) -> RoundEngine {
        self.iteration_timeout = timeout;
        self
    }

    /// Number of validators.
    pub fn validator_count(&self) -> usize {
        self.validators.len()
    }

    /// Runs one full round from the given initial positions (one candidate
    /// transaction set per validator).
    ///
    /// # Errors
    ///
    /// [`RoundError::PositionCountMismatch`] if `initial_positions.len()`
    /// differs from the validator count; [`RoundError::NoValidators`] for
    /// an empty engine.
    pub fn run_round(
        &mut self,
        initial_positions: &[BTreeSet<u64>],
        seed: u64,
    ) -> Result<RoundOutcome, RoundError> {
        if self.validators.is_empty() {
            return Err(RoundError::NoValidators);
        }
        if initial_positions.len() != self.validators.len() {
            return Err(RoundError::PositionCountMismatch {
                expected: self.validators.len(),
                actual: initial_positions.len(),
            });
        }
        let _span = span("consensus", "run_round");
        ROUNDS_RUN.add(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.validators.len();
        let round = self.rounds_started;
        self.rounds_started += 1;
        let table: Arc<[u64]> = intern(initial_positions).into();
        for (core, set) in self.cores.iter_mut().zip(initial_positions) {
            core.open_round(round, Arc::clone(&table), indices(&table, set).into());
        }
        POSITION_ALLOCS.add(n as u64);
        let mut support: Vec<u32> = vec![0; table.len()];

        for iteration in 0..RPCA_THRESHOLDS.len() {
            for v in 0..n {
                if self.network.is_crashed(NodeId(v)) {
                    continue;
                }
                let position = Arc::clone(self.cores[v].position());
                let byzantine = matches!(
                    self.validators[v].profile,
                    ValidatorProfile::Byzantine { .. }
                );
                for to in (0..n).filter(|&to| to != v) {
                    // A byzantine validator equivocates: a different random
                    // subset of its position to each peer.
                    let position = match byzantine {
                        true => {
                            POSITION_ALLOCS.add(1);
                            position
                                .iter()
                                .copied()
                                .filter(|_| rng.gen_bool(0.5))
                                .collect()
                        }
                        false => Arc::clone(&position),
                    };
                    self.send(v, to, Some((round, iteration, position)), &mut rng);
                }
                PROPOSALS_SENT.add(n as u64 - 1);
            }
            self.land_until_deadline();

            // The deadline passes for every running honest validator
            // (byzantine nodes keep their own plans).
            for v in 0..n {
                let byzantine = matches!(
                    self.validators[v].profile,
                    ValidatorProfile::Byzantine { .. }
                );
                if !byzantine && !self.network.is_crashed(NodeId(v)) {
                    self.cores[v].deadline(iteration, &mut support);
                    POSITION_ALLOCS.add(1);
                }
            }
        }

        // Validation phase: everyone seals its final position and broadcasts
        // a validation. Pages are tallied here; the messages only move the
        // clock and the counters, as on the real network.
        let mut validations: HashMap<usize, Digest256> = HashMap::new();
        for v in 0..n {
            if self.network.is_crashed(NodeId(v)) {
                continue;
            }
            validations.insert(v, self.cores[v].seal());
            for to in (0..n).filter(|&to| to != v) {
                self.send(v, to, None, &mut rng);
            }
            VALIDATIONS_SENT.add(n as u64 - 1);
        }
        VALIDATION_MSGS_SEEN.record(self.land_until_deadline() as u64);

        let tally = tally_validations(validations.values().copied(), n);
        let committed = tally.winner.filter(|_| tally.committed).map(|page| {
            let set = (0..n)
                .find(|v| validations.get(v) == Some(&page))
                .map(|v| self.cores[v].ids().into_iter().collect())
                .unwrap_or_default();
            (page, set)
        });

        Ok(RoundOutcome {
            committed,
            validations,
            agreement: tally.count as f64 / n as f64,
        })
    }

    /// Sends one message from `from` to `to` now; unless the link drops it
    /// at once, it is in flight until its arrival time.
    fn send(&mut self, from: usize, to: usize, proposal: Option<Proposal>, rng: &mut StdRng) {
        if let Some(at) = self.network.send(NodeId(from), NodeId(to), rng) {
            self.in_flight.push(InFlight {
                from,
                to,
                at,
                proposal,
            });
        }
    }

    /// Runs one phase's window to its deadline, `iteration_timeout` after
    /// the phase started: every message in flight that lands by then and
    /// survives its arrival check goes to its recipient — a proposal to the
    /// core, which drops and counts one from an earlier round — and the
    /// rest stay in flight. Returns how many validations landed.
    fn land_until_deadline(&mut self) -> usize {
        let deadline = self.network.now() + self.iteration_timeout;
        let mut validations = 0;
        let mut in_flight = std::mem::take(&mut self.in_flight);
        in_flight.retain_mut(|msg| {
            if msg.at > deadline {
                return true;
            }
            if self
                .network
                .arrives(NodeId(msg.from), NodeId(msg.to), msg.at)
            {
                match msg.proposal.take() {
                    Some((round, iteration, position)) => {
                        let filed =
                            self.cores[msg.to].on_proposal(msg.from, round, iteration, position);
                        if filed == Err(Refused::Stale) {
                            STALE_PROPOSALS.add(1);
                        }
                    }
                    None => validations += 1,
                }
            }
            false
        });
        self.in_flight = in_flight;
        // Every phase occupies exactly `iteration_timeout` of virtual time
        // (see `round_duration`).
        self.network.advance_to(deadline);
        validations
    }

    /// Quorum size in validators ([`QUORUM_PCT`] of them, rounded up).
    pub fn quorum_needed(&self) -> usize {
        support_required(self.validators.len(), QUORUM_PCT)
    }

    /// Which validators are honest (not byzantine) by profile.
    pub fn honest_mask(&self) -> Vec<bool> {
        self.validators
            .iter()
            .map(|v| !matches!(v.profile, ValidatorProfile::Byzantine { .. }))
            .collect()
    }
}

/// The candidate table of `sets`: their union, ascending.
fn intern<'a>(sets: impl IntoIterator<Item = &'a BTreeSet<u64>>) -> Vec<u64> {
    let mut ids: Vec<u64> = sets.into_iter().flatten().copied().collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// `set` as ascending indices into `candidates`, an ascending table that
/// holds all of it (one merge walk).
fn indices(candidates: &[u64], set: &BTreeSet<u64>) -> Vec<u32> {
    let mut at = 0;
    set.iter()
        .map(|tx| {
            while candidates[at] != *tx {
                at += 1;
            }
            u32::try_from(at).expect("a round has fewer than 2^32 candidates")
        })
        .collect()
}

/// How many of `n` UNL members are `pct` percent of them, rounded up: what a
/// transaction needs to survive an iteration at that threshold, and — at
/// [`QUORUM_PCT`] — what a page needs to be committed. Integer arithmetic,
/// so exact at every `n`: `(0.55 * 100.0).ceil()` is 56.
pub fn support_required(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100)
}

/// The validation phase's count over one UNL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationTally {
    /// The most-validated page (the smallest hash among equals), if anyone
    /// validated at all.
    pub winner: Option<Digest256>,
    /// How many validated `winner`.
    pub count: usize,
    /// Whether `count` reaches [`QUORUM_PCT`] of the UNL.
    pub committed: bool,
}

/// Counts one round's validations — one page per validator that signed —
/// against a UNL of `unl_len` members.
pub fn tally_validations(
    pages: impl IntoIterator<Item = Digest256>,
    unl_len: usize,
) -> ValidationTally {
    let mut pages: Vec<Digest256> = pages.into_iter().collect();
    pages.sort_unstable();
    let winner = pages
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len()))
        .max_by_key(|&(page, count)| (count, std::cmp::Reverse(page)));
    let count = winner.map_or(0, |(_, count)| count);
    ValidationTally {
        winner: winner.map(|(page, _)| page),
        count,
        committed: count > 0 && count >= support_required(unl_len, QUORUM_PCT),
    }
}

/// Hash of a sealed transaction set.
pub fn page_hash(txs: &BTreeSet<u64>) -> Digest256 {
    hash_page(txs.iter().copied())
}

/// Hash of a page whose transaction ids arrive ascending.
pub(crate) fn hash_page(ascending: impl ExactSizeIterator<Item = u64>) -> Digest256 {
    let mut bytes = Vec::with_capacity(8 + ascending.len() * 8);
    bytes.extend_from_slice(b"RNDPAGE!");
    for tx in ascending {
        bytes.extend_from_slice(&tx.to_be_bytes());
    }
    sha512_half(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::tally_support;

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

    fn positions(n: usize, txs: &[u64]) -> Vec<BTreeSet<u64>> {
        vec![txs.iter().copied().collect(); n]
    }

    #[test]
    fn unanimous_positions_commit() {
        let mut engine = RoundEngine::new(honest(5));
        let outcome = engine.run_round(&positions(5, &[1, 2, 3]), 1).unwrap();
        let (_, set) = outcome.committed.expect("should commit");
        assert_eq!(set, [1, 2, 3].into_iter().collect());
        assert_eq!(outcome.agreement, 1.0);
    }

    #[test]
    fn minority_transaction_is_dropped() {
        // Tx 99 appears in only 2 of 5 initial positions (40% < 50%).
        let mut init = positions(5, &[1, 2]);
        init[0].insert(99);
        init[1].insert(99);
        let mut engine = RoundEngine::new(honest(5));
        let outcome = engine.run_round(&init, 2).unwrap();
        let (_, set) = outcome.committed.expect("should commit");
        assert!(!set.contains(&99), "disputed tx should be dropped");
        assert!(set.contains(&1) && set.contains(&2));
    }

    #[test]
    fn strong_majority_transaction_survives() {
        // Tx 7 appears in 4 of 5 positions (80%).
        let mut init = positions(5, &[1]);
        for p in init.iter_mut().take(4) {
            p.insert(7);
        }
        let mut engine = RoundEngine::new(honest(5));
        let outcome = engine.run_round(&init, 3).unwrap();
        let (_, set) = outcome.committed.expect("should commit");
        assert!(set.contains(&7));
    }

    #[test]
    fn one_byzantine_of_five_is_tolerated() {
        let mut vals = honest(5);
        vals[4] = Validator::new(4, "byz", ValidatorProfile::Byzantine { availability: 1.0 });
        let mut engine = RoundEngine::new(vals);
        let outcome = engine.run_round(&positions(5, &[1, 2, 3]), 4).unwrap();
        // 4 honest validators (80%) agree: exactly at quorum.
        assert!(
            outcome.committed.is_some(),
            "agreement = {}",
            outcome.agreement
        );
    }

    #[test]
    fn two_byzantine_of_five_block_quorum() {
        let mut vals = honest(5);
        for i in [3, 4] {
            vals[i] = Validator::new(
                i,
                format!("byz{i}"),
                ValidatorProfile::Byzantine { availability: 1.0 },
            );
        }
        let mut engine = RoundEngine::new(vals);
        let outcome = engine.run_round(&positions(5, &[1, 2, 3]), 5).unwrap();
        assert!(outcome.committed.is_none(), "3/5 honest cannot reach 80%");
        assert!(outcome.agreement <= 0.6 + f64::EPSILON);
    }

    #[test]
    fn partition_halts_consensus() {
        let mut engine = RoundEngine::new(honest(5));
        engine
            .network_mut()
            .partition_groups(&[NodeId(0), NodeId(1), NodeId(2)], &[NodeId(3), NodeId(4)]);
        // Groups start from different positions; neither can reach 80%.
        let mut init = positions(5, &[1]);
        init[3] = [2u64].into_iter().collect();
        init[4] = [2u64].into_iter().collect();
        let outcome = engine.run_round(&init, 6).unwrap();
        // Neither side can gather 80% support for its transactions, so the
        // escalating thresholds strip them all: consensus either fails or
        // (as on the real network) closes an *empty* ledger — no disputed
        // transaction goes through.
        match outcome.committed {
            None => {}
            Some((_, set)) => assert!(set.is_empty(), "partition must not commit txs: {set:?}"),
        }
    }

    #[test]
    fn crashed_minority_does_not_block() {
        let mut engine = RoundEngine::new(honest(5));
        engine.network_mut().crash(NodeId(4));
        let outcome = engine.run_round(&positions(5, &[1, 2]), 7).unwrap();
        assert!(outcome.committed.is_some());
        assert!(!outcome.validations.contains_key(&4));
    }

    #[test]
    fn crashed_majority_blocks() {
        let mut engine = RoundEngine::new(honest(5));
        engine.network_mut().crash(NodeId(2));
        engine.network_mut().crash(NodeId(3));
        engine.network_mut().crash(NodeId(4));
        let outcome = engine.run_round(&positions(5, &[1]), 8).unwrap();
        assert!(outcome.committed.is_none());
    }

    #[test]
    fn slow_validator_misses_iterations_but_quorum_holds() {
        let mut engine =
            RoundEngine::new(honest(5)).with_iteration_timeout(SimTime::from_millis(200));
        engine
            .network_mut()
            .set_node_uplink_latency(NodeId(4), LatencyModel::Fixed(SimTime::from_millis(5_000)));
        // The slow node's proposals never arrive; tx 9 proposed only by it
        // is dropped, but the shared txs commit with 4+1 validations (its
        // validation still counts since tallying is direct).
        let mut init = positions(5, &[1, 2]);
        init[4].insert(9);
        let outcome = engine.run_round(&init, 9).unwrap();
        let (_, set) = outcome.committed.expect("should commit");
        assert!(!set.contains(&9));
    }

    #[test]
    fn different_tx_sets_converge_to_common_subset() {
        // Each validator sees a core set plus a unique tx; the core commits.
        let core = [10u64, 20, 30];
        let mut init = positions(5, &core);
        for (i, p) in init.iter_mut().enumerate() {
            p.insert(1_000 + i as u64);
        }
        let mut engine = RoundEngine::new(honest(5));
        let outcome = engine.run_round(&init, 10).unwrap();
        let (_, set) = outcome.committed.expect("should commit");
        assert_eq!(set, core.into_iter().collect());
    }

    #[test]
    fn position_count_mismatch_is_an_error_not_a_panic() {
        let mut engine = RoundEngine::new(honest(5));
        let err = engine.run_round(&positions(3, &[1]), 1).unwrap_err();
        assert_eq!(
            err,
            RoundError::PositionCountMismatch {
                expected: 5,
                actual: 3
            }
        );
        assert!(err.to_string().contains("expected 5, got 3"));
    }

    #[test]
    fn a_bad_unl_is_an_error_not_a_panic() {
        let refused = |sets: &[&[usize]]| {
            let unls: Vec<BTreeSet<usize>> = sets
                .iter()
                .map(|set| set.iter().copied().collect())
                .collect();
            match RoundEngine::new(honest(3)).with_unls(&unls) {
                Err(RoundError::InvalidUnl { validator }) => Some(validator),
                _ => None,
            }
        };
        assert_eq!(refused(&[&[0], &[0, 2], &[2]]), Some(1), "omits its owner");
        assert_eq!(
            refused(&[&[0, 1], &[1], &[1, 2, 7]]),
            Some(2),
            "names validator 7"
        );
        assert_eq!(refused(&[&[0], &[1]]), Some(2), "one UNL short");
        assert_eq!(refused(&[&[0], &[1], &[2], &[3]]), Some(3), "one UNL over");
        assert_eq!(refused(&[&[0, 1, 2], &[1], &[2, 0]]), None);
        assert_eq!(
            RoundError::InvalidUnl { validator: 1 }.to_string(),
            "validator 1 must appear in its own UNL of known validators"
        );
    }

    #[test]
    fn empty_engine_is_an_error() {
        let mut engine = RoundEngine::new(Vec::new());
        assert_eq!(
            engine.run_round(&[], 1).unwrap_err(),
            RoundError::NoValidators
        );
    }

    #[test]
    fn rounds_are_fixed_duration() {
        let mut engine =
            RoundEngine::new(honest(5)).with_iteration_timeout(SimTime::from_millis(100));
        assert_eq!(engine.round_duration(), SimTime::from_millis(500));
        engine.run_round(&positions(5, &[1]), 1).unwrap();
        assert_eq!(engine.network().now(), SimTime::from_millis(500));
        engine.run_round(&positions(5, &[2]), 2).unwrap();
        assert_eq!(engine.network().now(), SimTime::from_millis(1_000));
    }

    /// One refinement through a core's wire path, the one `ripple-node`
    /// feeds: validator 0 holds `own` and validators `1..` propose `peers`,
    /// in arrival order, for `iteration`, under a UNL of `unl_len` members
    /// (the silent ones included). The table starts as `own` and grows by
    /// each peer's new ids, so index order is not id order.
    fn refine(
        own: &BTreeSet<u64>,
        peers: &[BTreeSet<u64>],
        unl_len: usize,
        iteration: usize,
    ) -> BTreeSet<u64> {
        let unl: BTreeSet<usize> = (0..unl_len).collect();
        let mut core = ValidatorCore::new(0, &unl, unl_len).expect("valid UNL");
        let table: Arc<[u64]> = own.iter().copied().collect();
        core.open_round(0, table, (0..own.len() as u32).collect());
        for (from, peer) in peers.iter().enumerate() {
            core.on_wire_proposal(from + 1, 0, iteration, peer)
                .expect("filed");
        }
        core.deadline(iteration, &mut Vec::new());
        let ids = core.ids();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending ids");
        ids.into_iter().collect()
    }

    #[test]
    fn refine_position_matches_threshold_semantics() {
        let own: BTreeSet<u64> = [1, 2].into_iter().collect();
        let a: BTreeSet<u64> = [1, 3].into_iter().collect();
        let b: BTreeSet<u64> = [1].into_iter().collect();
        let peers = [a.clone(), b];
        // tx 1 has support 3, tx 2 has 1, tx 3 has 1. 50% of a 3-member
        // UNL is 2.
        assert_eq!(refine(&own, &peers, 3, 0), [1u64].into_iter().collect());
        // 80% of a 5-member UNL is 4.
        assert_eq!(refine(&own, &peers, 5, 3), BTreeSet::new());
        // 50% of a 2-member UNL is 1: everything anyone proposed survives.
        assert_eq!(refine(&own, &[a], 2, 0), [1u64, 2, 3].into_iter().collect());
    }

    /// The threshold rule as it was first written — a hashed support map —
    /// kept as the oracle the dense kernel is compared against.
    fn refine_naive<'a>(
        own: &BTreeSet<u64>,
        peers: impl IntoIterator<Item = &'a BTreeSet<u64>>,
        required: usize,
    ) -> BTreeSet<u64> {
        let mut support: HashMap<u64, usize> = HashMap::new();
        for tx in own {
            *support.entry(*tx).or_insert(0) += 1;
        }
        for peer_position in peers {
            for tx in peer_position {
                *support.entry(*tx).or_insert(0) += 1;
            }
        }
        support
            .into_iter()
            .filter(|&(_, count)| count >= required)
            .map(|(tx, _)| tx)
            .collect()
    }

    #[test]
    fn support_kernel_matches_the_naive_tally() {
        let mut rng = StdRng::seed_from_u64(0x7a11);
        // The wire path's UNL and iteration, drawn apart so the cases stay
        // the kernel's.
        let mut knobs = StdRng::seed_from_u64(0x7a12);
        // One buffer for every case: the kernel must hand it back zeroed.
        let mut support: Vec<u32> = Vec::new();
        let draw = |rng: &mut StdRng| -> BTreeSet<u64> {
            match rng.gen_range(0..8) {
                0 => BTreeSet::new(),
                _ => {
                    let len = rng.gen_range(0..=80);
                    (0..len).map(|_| 1_000 + rng.gen_range(0..120u64)).collect()
                }
            }
        };
        let mut kept_some = 0;
        let mut dropped_some = 0;
        let mut wire_kept_some = 0;
        let mut wire_dropped_some = 0;
        for case in 0..2_500 {
            let own = draw(&mut rng);
            let peers: Vec<BTreeSet<u64>> =
                (0..rng.gen_range(0..=40)).map(|_| draw(&mut rng)).collect();
            let required = rng.gen_range(1..=peers.len() + 2);
            let expected = refine_naive(&own, &peers, required);

            let candidates = intern(std::iter::once(&own).chain(&peers));
            let positions: Vec<Vec<u32>> = std::iter::once(&own)
                .chain(&peers)
                .map(|set| indices(&candidates, set))
                .collect();
            support.resize(candidates.len(), 0);
            let kept = tally_support(&mut support, positions.iter().map(Vec::as_slice), required);
            assert!(
                kept.windows(2).all(|w| w[0] < w[1]),
                "case {case}: ascending"
            );
            assert!(support.iter().all(|&held| held == 0), "case {case}: zeroed");
            let kept: BTreeSet<u64> = kept.iter().map(|&ix| candidates[ix as usize]).collect();
            assert_eq!(kept, expected, "case {case}: kernel, required {required}");
            kept_some += usize::from(!expected.is_empty());
            dropped_some += usize::from(expected.len() < candidates.len());

            // The core's wire path, at the threshold its UNL sets.
            let iteration = knobs.gen_range(0..RPCA_THRESHOLDS.len());
            let unl_len = peers.len() + 1 + knobs.gen_range(0..=2);
            let required = support_required(unl_len, RPCA_THRESHOLDS[iteration]);
            let expected = refine_naive(&own, &peers, required);
            assert_eq!(
                refine(&own, &peers, unl_len, iteration),
                expected,
                "case {case}: wire path, required {required}"
            );
            wire_kept_some += usize::from(!expected.is_empty());
            wire_dropped_some += usize::from(expected.len() < candidates.len());
        }
        // The draw covers both sides of the threshold, many times over.
        assert!(kept_some > 500 && dropped_some > 500);
        // At RPCA's thresholds a candidate needs half the UNL or more, so
        // fewer cases keep anything — but still hundreds.
        assert!(
            wire_kept_some > 300 && wire_dropped_some > 500,
            "{wire_kept_some} kept, {wire_dropped_some} dropped"
        );
    }

    #[test]
    fn unsupported_candidates_never_survive() {
        // `required = 0` keeps what somebody proposed, not the whole table.
        let mut support = vec![0; 4];
        assert_eq!(tally_support(&mut support, [&[1u32, 3][..]], 0), [1, 3]);
        // A UNL of one needs one holder: its owner's position survives.
        let own: BTreeSet<u64> = [5].into_iter().collect();
        assert_eq!(refine(&own, &[], 1, 0), own);
    }

    #[test]
    fn a_proposal_from_an_earlier_round_is_not_tallied() {
        // Everything validator 4 hears is one round and a bit old, so each
        // proposal arrives in the iteration it was sent for — of the next
        // round. Matched by iteration number alone, round 0's {1, 2} would
        // out-vote validator 4's own {3, 4} in round 1 and it would seal
        // {1, 2}; named by round, they are dropped, it hears nothing, its
        // lone vote clears no gate and it seals the empty page.
        let mut engine = RoundEngine::new(honest(5));
        let late = LatencyModel::Fixed(engine.round_duration() + SimTime::from_millis(100));
        for from in 0..4 {
            engine
                .network_mut()
                .set_link_latency(NodeId(from), NodeId(4), late);
        }
        engine.run_round(&positions(5, &[1, 2]), 1).unwrap();
        let outcome = engine.run_round(&positions(5, &[3, 4]), 2).unwrap();
        assert_eq!(outcome.validations[&4], page_hash(&BTreeSet::new()));
        let (page, set) = outcome.committed.expect("four of five is a quorum");
        assert_eq!(set, [3, 4].into_iter().collect());
        assert!((0..4).all(|v| outcome.validations[&v] == page));
        assert_eq!(outcome.agreement, 0.8);
    }

    #[test]
    fn support_required_rounds_up() {
        for n in 1..=1_000usize {
            for pct in RPCA_THRESHOLDS {
                let required = support_required(n, pct);
                // The least count whose share of n is at least pct percent.
                assert!(required * 100 >= n * pct as usize, "n {n}, {pct}%");
                assert!((required - 1) * 100 < n * pct as usize, "n {n}, {pct}%");
            }
        }
        // `(0.55 * 100.0).ceil()` is 56.
        assert_eq!(support_required(100, 55), 55);
        assert_eq!(support_required(5, 50), 3);
        assert_eq!(support_required(5, QUORUM_PCT), 4);
        assert_eq!(support_required(4, QUORUM_PCT), 4);
        assert_eq!(support_required(10, 55), 6);
        assert_eq!(support_required(0, QUORUM_PCT), 0);
    }

    /// The validation count as `run_round`, `Node::finalize` and
    /// `harness::run_cluster` each used to spell it: a hashed tally, its
    /// maximum, the quorum test. Which of several equally validated pages
    /// wins was left to the map's iteration order, so only the count and the
    /// verdict are comparable on a tie.
    fn tally_naive(pages: &[Digest256], unl_len: usize) -> (Vec<Digest256>, usize, bool) {
        let mut tally: HashMap<Digest256, usize> = HashMap::new();
        for page in pages {
            *tally.entry(*page).or_insert(0) += 1;
        }
        let count = tally.values().copied().max().unwrap_or(0);
        let mut winners: Vec<Digest256> = tally
            .iter()
            .filter(|&(_, &c)| c == count)
            .map(|(&page, _)| page)
            .collect();
        winners.sort_unstable();
        let committed = count > 0 && count >= support_required(unl_len, QUORUM_PCT);
        (winners, count, committed)
    }

    #[test]
    fn tally_validations_matches_the_three_bodies_it_replaces() {
        let page = |i: u8| sha512_half(&[i]);
        // Nobody validated.
        assert_eq!(
            tally_validations([], 5),
            ValidationTally {
                winner: None,
                count: 0,
                committed: false
            }
        );
        assert!(!tally_validations([], 0).committed);
        // Exactly at quorum, and one short of it.
        let at = tally_validations([page(1), page(1), page(2), page(1), page(1)], 5);
        assert_eq!(
            (at.winner, at.count, at.committed),
            (Some(page(1)), 4, true)
        );
        let short = tally_validations([page(1), page(2), page(1), page(1)], 5);
        assert_eq!(
            (short.winner, short.count, short.committed),
            (Some(page(1)), 3, false)
        );
        // A tie goes to the smaller hash, whatever the arrival order.
        let (lo, hi) = (page(1).min(page(2)), page(1).max(page(2)));
        assert_eq!(tally_validations([hi, lo, hi, lo], 5).winner, Some(lo));
        assert_eq!(tally_validations([lo, hi, lo, hi], 5).winner, Some(lo));

        let mut rng = StdRng::seed_from_u64(0x7a117);
        let mut ties = 0;
        let mut commits = 0;
        for case in 0..2_000 {
            let unl_len = rng.gen_range(1..=12usize);
            let distinct = rng.gen_range(1..=3u8);
            let pages: Vec<Digest256> = (0..rng.gen_range(0..=unl_len))
                .map(|_| page(rng.gen_range(0..distinct)))
                .collect();
            let (winners, count, committed) = tally_naive(&pages, unl_len);
            let got = tally_validations(pages.iter().copied(), unl_len);
            assert_eq!(got.winner, winners.first().copied(), "case {case}");
            assert_eq!(
                (got.count, got.committed),
                (count, committed),
                "case {case}"
            );
            ties += usize::from(winners.len() > 1);
            commits += usize::from(committed);
        }
        assert!(
            ties > 100 && commits > 100,
            "{ties} ties, {commits} commits"
        );
    }

    #[test]
    fn page_hash_is_order_insensitive_but_content_sensitive() {
        let a: BTreeSet<u64> = [1, 2, 3].into_iter().collect();
        let b: BTreeSet<u64> = [3, 2, 1].into_iter().collect();
        let c: BTreeSet<u64> = [1, 2].into_iter().collect();
        assert_eq!(page_hash(&a), page_hash(&b));
        assert_ne!(page_hash(&a), page_hash(&c));
    }
}
