//! Unique Node Lists and fork analysis.
//!
//! The paper (§IV): "by design, each Ripple validator can choose which
//! transactions to sign and support. […] However, in both cases, unless all
//! validators collude, the disagreement would be noticeable to any of the
//! 'correct' validators that participate in the process."
//!
//! Each validator trusts a *Unique Node List* (UNL) and counts support only
//! within it. When UNLs overlap too little, two cliques can each reach
//! their own 80% quorum ([`QUORUM_PCT`], counted by the same integer
//! [`support_required`] as every proposal threshold) on different pages — a
//! fork. This module builds such UNLs, runs one [`RoundEngine`] round under
//! them, and reports both the fork and whether a correct validator could
//! *detect* it (conflicting validations visible from its vantage point).

use std::collections::BTreeSet;

use ripple_crypto::Digest256;

use crate::rounds::{support_required, RoundEngine, QUORUM_PCT};
use crate::validator::{Validator, ValidatorProfile};

/// Outcome of one UNL-aware round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnlRoundOutcome {
    /// Pages that reached ≥80% quorum *within some validator's UNL view*.
    pub quorum_pages: Vec<Digest256>,
    /// Whether two different pages both reached quorum — a ledger fork.
    pub forked: bool,
    /// Whether at least one validator observed validations for two
    /// different quorum pages (the paper's "noticeable disagreement").
    pub detectable: bool,
    /// The page each validator sealed and validated.
    pub pages: Vec<Digest256>,
}

/// Runs one UNL-aware round: a [`RoundEngine`] round of reliable validators
/// in which each counts support only among its UNL (which must include
/// itself), then validates its final position.
///
/// The engine's default network (at most 50 ms latency against a 500 ms
/// iteration deadline, no loss) makes this the synchronous RPCA round.
///
/// # Examples
///
/// ```
/// use std::collections::BTreeSet;
/// use ripple_consensus::{run_unl_round, two_clique_unls};
///
/// // Two blind cliques with conflicting transactions fork.
/// let unls = two_clique_unls(10, 0);
/// let positions: Vec<BTreeSet<u64>> = (0..10)
///     .map(|i| if i < 5 { BTreeSet::from([1]) } else { BTreeSet::from([2]) })
///     .collect();
/// let outcome = run_unl_round(&unls, &positions);
/// assert!(outcome.forked);
/// ```
///
/// # Panics
///
/// Panics if `unls.len() != initial_positions.len()`, or if a UNL omits its
/// owner or names a validator outside `0..unls.len()`.
pub fn run_unl_round(
    unls: &[BTreeSet<usize>],
    initial_positions: &[BTreeSet<u64>],
) -> UnlRoundOutcome {
    assert_eq!(unls.len(), initial_positions.len(), "one UNL per validator");
    if unls.is_empty() {
        return UnlRoundOutcome::default(); // no validators, no fork
    }
    let reliable = ValidatorProfile::Reliable { availability: 1.0 };
    let validators = (0..unls.len()).map(|i| Validator::new(i, format!("v{i}"), reliable));
    // Any seed: it only draws latencies, and none reaches the deadline.
    let outcome = RoundEngine::new(validators.collect())
        .with_unls(unls)
        .and_then(|mut engine| engine.run_round(initial_positions, 0))
        .unwrap_or_else(|err| panic!("{err}"));
    let pages: Vec<Digest256> = (0..unls.len()).map(|v| outcome.validations[&v]).collect();

    // Quorum is evaluated from each validator's own UNL view.
    let mut quorum_pages: Vec<Digest256> = Vec::new();
    for (unl, &mine) in unls.iter().zip(&pages) {
        let agreeing = unl.iter().filter(|&&peer| pages[peer] == mine).count();
        if agreeing >= support_required(unl.len(), QUORUM_PCT) && !quorum_pages.contains(&mine) {
            quorum_pages.push(mine);
        }
    }
    let forked = quorum_pages.len() > 1;

    // Detection: some validator whose UNL contains signers of two distinct
    // quorum pages sees the conflict.
    let detectable = forked
        && unls.iter().any(|unl| {
            let seen: BTreeSet<Digest256> = unl
                .iter()
                .map(|&peer| pages[peer])
                .filter(|p| quorum_pages.contains(p))
                .collect();
            seen.len() > 1
        });

    UnlRoundOutcome {
        quorum_pages,
        forked,
        detectable,
        pages,
    }
}

/// Builds two cliques of `n/2` validators whose UNLs share
/// `overlap` members from the other side — the classic fork-threshold
/// construction.
pub fn two_clique_unls(n: usize, overlap: usize) -> Vec<BTreeSet<usize>> {
    let half = n / 2;
    (0..n)
        .map(|i| {
            let (own, other) = if i < half {
                (0..half, half..n)
            } else {
                (half..n, 0..half)
            };
            // Adopt `overlap` members from the other clique.
            own.chain(other.take(overlap)).collect()
        })
        .collect()
}

/// Sweeps the two-clique overlap from 0 to `n/2`, returning for each
/// overlap whether conflicting initial positions still fork.
pub fn fork_sweep(n: usize) -> Vec<(usize, bool)> {
    let positions: Vec<BTreeSet<u64>> = (0..n)
        .map(|i| BTreeSet::from([if i < n / 2 { 1 } else { 2 }]))
        .collect();
    let forks = |overlap| run_unl_round(&two_clique_unls(n, overlap), &positions).forked;
    (0..=n / 2)
        .map(|overlap| (overlap, forks(overlap)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::rounds::{page_hash, RPCA_THRESHOLDS};

    fn conflicting_positions(n: usize) -> Vec<BTreeSet<u64>> {
        (0..n)
            .map(|i| {
                if i < n / 2 {
                    BTreeSet::from([1])
                } else {
                    BTreeSet::from([2])
                }
            })
            .collect()
    }

    #[test]
    fn disjoint_unls_fork_and_are_undetectable() {
        let n = 10;
        let unls = two_clique_unls(n, 0);
        let outcome = run_unl_round(&unls, &conflicting_positions(n));
        assert!(outcome.forked, "two blind cliques commit different pages");
        assert!(
            !outcome.detectable,
            "with zero overlap nobody sees both quorums"
        );
        assert_eq!(outcome.quorum_pages.len(), 2);
    }

    #[test]
    fn shared_unl_never_forks() {
        let n = 10;
        let all: BTreeSet<usize> = (0..n).collect();
        let unls = vec![all; n];
        let outcome = run_unl_round(&unls, &conflicting_positions(n));
        assert!(!outcome.forked);
        // Everyone converges to the same position: with the inclusive 50%
        // gate an exact 50/50 split adopts both transactions everywhere
        // (any other split strips the minority one) — either way there is
        // exactly one page.
        assert_eq!(outcome.quorum_pages.len(), 1);
        for page in &outcome.pages {
            assert_eq!(page, &outcome.pages[0], "single shared view");
        }
    }

    #[test]
    fn unanimous_positions_commit_regardless_of_unls() {
        let n = 8;
        let unls = two_clique_unls(n, 1);
        let positions = vec![BTreeSet::from([7, 9]); n];
        let outcome = run_unl_round(&unls, &positions);
        assert!(!outcome.forked);
        assert_eq!(outcome.quorum_pages.len(), 1);
        assert_eq!(outcome.pages[0], page_hash(&BTreeSet::from([7, 9])));
    }

    #[test]
    fn moderate_overlap_makes_forks_detectable() {
        // With some cross-clique trust, a fork (if it happens) is visible
        // to the validators that straddle both cliques.
        let n = 10;
        for overlap in 1..=2 {
            let unls = two_clique_unls(n, overlap);
            let outcome = run_unl_round(&unls, &conflicting_positions(n));
            if outcome.forked {
                assert!(
                    outcome.detectable,
                    "overlap {overlap}: straddling validators must notice"
                );
            }
        }
    }

    #[test]
    fn sweep_shows_overlap_eventually_prevents_forks() {
        let sweep = fork_sweep(10);
        assert!(sweep[0].1, "zero overlap forks");
        assert!(
            sweep.iter().any(|&(_, forked)| !forked),
            "enough overlap prevents the fork: {sweep:?}"
        );
        // Once prevention kicks in it persists for larger overlaps.
        let first_safe = sweep.iter().position(|&(_, f)| !f).unwrap();
        for &(overlap, forked) in &sweep[first_safe..] {
            assert!(!forked, "overlap {overlap} regressed to forking");
        }
    }

    #[test]
    #[should_panic(expected = "must appear in its own UNL")]
    fn unl_must_contain_self() {
        let unls = vec![BTreeSet::from([1]), BTreeSet::from([1])];
        let _ = run_unl_round(&unls, &[BTreeSet::new(), BTreeSet::new()]);
    }

    #[test]
    fn no_validators_no_fork() {
        assert_eq!(run_unl_round(&[], &[]), UnlRoundOutcome::default());
    }

    #[test]
    #[should_panic(expected = "validator 1 must appear in its own UNL of known validators")]
    fn unl_naming_a_missing_validator_is_refused() {
        let unls = vec![BTreeSet::from([0, 1]), BTreeSet::from([0, 1, 2])];
        let _ = run_unl_round(&unls, &[BTreeSet::new(), BTreeSet::new()]);
    }

    #[test]
    fn the_sweep_matches_the_pinned_table() {
        // `F` forks, `.` does not, one column per overlap 0..=n/2.
        let table: String = [10, 20, 40]
            .map(|n| {
                let row: String = fork_sweep(n)
                    .iter()
                    .map(|&(_, forked)| if forked { 'F' } else { '.' })
                    .collect();
                format!("n={n:>2} {row}\n")
            })
            .concat();
        assert_eq!(
            table,
            "n=10 FF....\n\
             n=20 FFF........\n\
             n=40 FFFFFF...............\n"
        );
    }

    /// `run_unl_round` as it was before it ran on `RoundEngine`: a
    /// synchronous loop in which every validator refines a snapshot of the
    /// positions against its UNL, threshold by threshold — kept as the
    /// oracle the engine round is compared against, with the refinement
    /// spelled out as a hashed count.
    fn run_unl_round_reference(
        unls: &[BTreeSet<usize>],
        initial_positions: &[BTreeSet<u64>],
    ) -> UnlRoundOutcome {
        let mut positions: Vec<BTreeSet<u64>> = initial_positions.to_vec();
        for &threshold in &RPCA_THRESHOLDS {
            let snapshot = positions.clone();
            for (i, unl) in unls.iter().enumerate() {
                let mut support: HashMap<u64, usize> = HashMap::new();
                for &member in unl {
                    for &tx in &snapshot[member] {
                        *support.entry(tx).or_insert(0) += 1;
                    }
                }
                let required = support_required(unl.len(), threshold);
                positions[i] = support
                    .into_iter()
                    .filter(|&(_, count)| count >= required)
                    .map(|(tx, _)| tx)
                    .collect();
            }
        }

        let pages: Vec<Digest256> = positions.iter().map(page_hash).collect();
        let mut quorum_pages: Vec<Digest256> = Vec::new();
        for (i, unl) in unls.iter().enumerate() {
            let mine = pages[i];
            let agreeing = unl.iter().filter(|&&peer| pages[peer] == mine).count();
            if agreeing >= support_required(unl.len(), QUORUM_PCT) && !quorum_pages.contains(&mine)
            {
                quorum_pages.push(mine);
            }
        }
        let forked = quorum_pages.len() > 1;
        let detectable = forked
            && unls.iter().any(|unl| {
                let seen: BTreeSet<Digest256> = unl
                    .iter()
                    .map(|&peer| pages[peer])
                    .filter(|p| quorum_pages.contains(p))
                    .collect();
                seen.len() > 1
            });
        UnlRoundOutcome {
            quorum_pages,
            forked,
            detectable,
            pages,
        }
    }

    #[test]
    fn engine_round_equals_the_synchronous_reference() {
        let mut rng = StdRng::seed_from_u64(0x0a1);
        let (mut forks, mut detected, mut split) = (0, 0, 0);
        for case in 0..600 {
            let n = rng.gen_range(2..=24usize);
            let unls = if case % 4 == 0 {
                two_clique_unls(n, rng.gen_range(0..=n / 2))
            } else {
                let keep = rng.gen_range(0.3..1.0);
                (0..n)
                    .map(|i| {
                        let mut unl: BTreeSet<usize> =
                            (0..n).filter(|_| rng.gen_bool(keep)).collect();
                        unl.insert(i);
                        unl
                    })
                    .collect()
            };
            let pool = rng.gen_range(1..=6u64);
            let positions: Vec<BTreeSet<u64>> = (0..n)
                .map(|_| match rng.gen_range(0..6) {
                    0 => BTreeSet::new(),
                    _ => (0..rng.gen_range(1..=4))
                        .map(|_| rng.gen_range(0..pool))
                        .collect(),
                })
                .collect();
            let expected = run_unl_round_reference(&unls, &positions);
            assert_eq!(
                run_unl_round(&unls, &positions),
                expected,
                "case {case}: n {n}, UNLs {unls:?}, positions {positions:?}"
            );
            forks += usize::from(expected.forked);
            detected += usize::from(expected.detectable);
            split += usize::from(expected.pages.iter().any(|&p| p != expected.pages[0]));
        }
        // The draw reaches forks, detected forks and split views alike.
        assert!(
            forks > 25 && detected > 10 && split > 50,
            "{forks} forks, {detected} detectable, {split} split"
        );
    }
}
