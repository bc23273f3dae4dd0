//! Shared scaffolding for the workspace's integration tests and examples:
//! the standard cast, funded ledgers, honest validator sets, chaos-run
//! shorthand, and the seeded small-history configuration.
//!
//! Everything here is deterministic — same arguments, same objects — so
//! tests built on it can assert exact values.

use ripple_consensus::{ChaosCampaign, ChaosOutcome, Validator, ValidatorProfile};
use ripple_crypto::AccountId;
use ripple_ledger::{Currency, Drops, LedgerState, Value};
use ripple_netsim::{FaultPlan, SimTime};
use ripple_synth::SynthConfig;

/// The standard cast account for index `i`: `AccountId` of twenty `i`
/// bytes. Index 0 is reserved (the all-zero id reads as a placeholder in
/// dumps), so tests usually start at 1.
pub fn acct(i: u8) -> AccountId {
    AccountId::from_bytes([i; 20])
}

/// The first `n` cast accounts, indices `1..=n`.
pub fn cast(n: u8) -> Vec<AccountId> {
    (1..=n).map(acct).collect()
}

/// A ledger with cast accounts `1..=n` created and funded with `xrp` each.
pub fn funded_state(n: u8, xrp: u64) -> LedgerState {
    let mut state = LedgerState::new();
    for id in cast(n) {
        state.create_account(id, Drops::from_xrp(xrp));
    }
    state
}

/// `n` fully honest, always-available validators named `v0..`.
pub fn honest_validators(n: usize) -> Vec<Validator> {
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

/// Millisecond shorthand for [`SimTime`].
pub fn ms(t: u64) -> SimTime {
    SimTime::from_millis(t)
}

/// Runs a standard chaos campaign — five honest validators, 100ms
/// iterations (500ms rounds) — panicking if the no-fork invariant breaks,
/// so the returned outcome is always from a safe run.
pub fn chaos_run(plan: FaultPlan, rounds: u64, seed: u64) -> ChaosOutcome {
    ChaosCampaign::new(honest_validators(5), plan, rounds, seed)
        .with_iteration_timeout(ms(100))
        .run()
        .expect("no-fork invariant must hold")
}

/// The standard seeded small-history configuration used across the
/// end-to-end suites: `SynthConfig::small(payments)` with the seed set.
pub fn study_config(seed: u64, payments: usize) -> SynthConfig {
    SynthConfig {
        seed,
        ..SynthConfig::small(payments)
    }
}

/// Asserts the IOU zero-sum law: for each currency, the net positions of
/// all accounts cancel exactly — debt is moved, never created.
pub fn assert_iou_zero_sum(state: &LedgerState, currencies: &[Currency]) {
    for &currency in currencies {
        let mut total = Value::ZERO;
        let accounts: Vec<AccountId> = state.accounts().map(|(id, _)| *id).collect();
        for account in accounts {
            total = total + state.net_position(account, currency);
        }
        assert!(
            total.is_zero(),
            "net positions in {currency} must cancel, got {total}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn funded_state_creates_the_cast() {
        let state = funded_state(4, 100);
        for id in cast(4) {
            assert_eq!(
                state.account(&id).expect("created").balance,
                Drops::from_xrp(100)
            );
        }
        assert_iou_zero_sum(&state, &[Currency::USD]);
    }

    #[test]
    fn mini_history_is_seed_deterministic() {
        let mini_history = || ripple_synth::Generator::new(study_config(5, 200)).run();
        let (a, b) = (mini_history(), mini_history());
        assert_eq!(a.events.len(), b.events.len());
    }
}
