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
//! fork. This module runs the round dynamics under configurable UNLs and
//! reports both the fork and whether a correct validator could *detect* it
//! (conflicting validations visible from its vantage point).

use std::collections::BTreeSet;

use ripple_crypto::Digest256;

use crate::rounds::{page_hash, refine_position, support_required, QUORUM_PCT, RPCA_THRESHOLDS};

/// Outcome of one UNL-aware round.
#[derive(Debug, Clone, PartialEq)]
pub struct UnlRoundOutcome {
    /// Pages that reached ≥80% quorum *within some validator's UNL view*.
    pub quorum_pages: Vec<Digest256>,
    /// Whether two different pages both reached quorum — a ledger fork.
    pub forked: bool,
    /// Whether at least one validator observed validations for two
    /// different quorum pages (the paper's "noticeable disagreement").
    pub detectable: bool,
    /// Final position (transaction set) per validator.
    pub positions: Vec<BTreeSet<u64>>,
}

/// Runs one synchronous UNL-aware round: every validator iterates the RPCA
/// thresholds counting support only among its UNL (which must include
/// itself), then validates its final position.
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
/// Panics if `unls.len() != initial_positions.len()` or a UNL omits its
/// owner.
pub fn run_unl_round(
    unls: &[BTreeSet<usize>],
    initial_positions: &[BTreeSet<u64>],
) -> UnlRoundOutcome {
    assert_eq!(unls.len(), initial_positions.len(), "one UNL per validator");
    for (i, unl) in unls.iter().enumerate() {
        assert!(unl.contains(&i), "validator {i} must appear in its own UNL");
    }
    let mut positions: Vec<BTreeSet<u64>> = initial_positions.to_vec();

    for &threshold in &RPCA_THRESHOLDS {
        let snapshot = positions.clone();
        for (i, unl) in unls.iter().enumerate() {
            let peers = unl.iter().filter(|&&peer| peer != i);
            positions[i] = refine_position(
                &snapshot[i],
                peers.map(|&peer| &snapshot[peer]),
                support_required(unl.len(), threshold),
            );
        }
    }

    // Validation: each validator signs its final page; quorum is evaluated
    // from each validator's own UNL view.
    let pages: Vec<Digest256> = positions.iter().map(page_hash).collect();
    let mut quorum_pages: Vec<Digest256> = Vec::new();
    for (i, unl) in unls.iter().enumerate() {
        let mine = pages[i];
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
        positions,
    }
}

/// Builds two cliques of `n/2` validators whose UNLs share
/// `overlap` members from the other side — the classic fork-threshold
/// construction.
pub fn two_clique_unls(n: usize, overlap: usize) -> Vec<BTreeSet<usize>> {
    let half = n / 2;
    let mut unls = Vec::with_capacity(n);
    for i in 0..n {
        let mut unl: BTreeSet<usize> = if i < half {
            (0..half).collect()
        } else {
            (half..n).collect()
        };
        // Adopt `overlap` members from the other clique.
        let other: Vec<usize> = if i < half {
            (half..n).take(overlap).collect()
        } else {
            (0..half).take(overlap).collect()
        };
        unl.extend(other);
        unl.insert(i);
        unls.push(unl);
    }
    unls
}

/// Sweeps the two-clique overlap from 0 to `n/2`, returning for each
/// overlap whether conflicting initial positions still fork.
pub fn fork_sweep(n: usize) -> Vec<(usize, bool)> {
    let half = n / 2;
    let mut left_positions: Vec<BTreeSet<u64>> = vec![BTreeSet::from([1]); half];
    let mut right_positions: Vec<BTreeSet<u64>> = vec![BTreeSet::from([2]); n - half];
    let mut positions = Vec::new();
    positions.append(&mut left_positions);
    positions.append(&mut right_positions);
    (0..=half)
        .map(|overlap| {
            let unls = two_clique_unls(n, overlap);
            let outcome = run_unl_round(&unls, &positions);
            (overlap, outcome.forked)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for position in &outcome.positions {
            assert_eq!(position, &outcome.positions[0], "single shared view");
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
        assert_eq!(outcome.positions[0], BTreeSet::from([7, 9]));
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
}
