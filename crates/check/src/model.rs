//! An obviously-correct reference ledger.
//!
//! [`ModelLedger`] re-implements `LedgerState::apply` with plain
//! `BTreeMap`s, straight-line validation, and none of the production
//! code's structural sharing or ordering tricks. The differential runner
//! applies every generated transaction to both and demands identical
//! results — including the exact [`LedgerError`] on rejection — and
//! identical state after every step.

use std::collections::BTreeMap;

use ripple_crypto::AccountId;
use ripple_ledger::{
    Amount, Currency, Drops, FeeSchedule, LedgerError, LedgerState, Transaction, TxKind, TxResult,
    Value,
};

/// A model account: `(balance in drops, next sequence, owner count)`.
type ModelAccount = (u64, u32, u32);

/// The naive reference ledger.
#[derive(Debug, Clone)]
pub struct ModelLedger {
    accounts: BTreeMap<AccountId, ModelAccount>,
    /// `(truster, trustee, currency) -> raw limit`.
    trust: BTreeMap<(AccountId, AccountId, Currency), i128>,
    /// Canonical pair balances: `(low, high, currency) -> raw amount high
    /// owes low`; zero entries are removed.
    owed: BTreeMap<(AccountId, AccountId, Currency), i128>,
    /// `(owner, offer_seq) -> (taker_gets, taker_pays)`.
    offers: BTreeMap<(AccountId, u32), (Amount, Amount)>,
    fees: FeeSchedule,
    burned: u64,
}

impl Default for ModelLedger {
    fn default() -> Self {
        ModelLedger::new()
    }
}

impl ModelLedger {
    /// An empty model with the main-net fee schedule (matching
    /// `LedgerState::new`).
    pub fn new() -> ModelLedger {
        ModelLedger {
            accounts: BTreeMap::new(),
            trust: BTreeMap::new(),
            owed: BTreeMap::new(),
            offers: BTreeMap::new(),
            fees: FeeSchedule::mainnet(),
            burned: 0,
        }
    }

    /// Funds a new account (sequence starts at 1, like the real ledger).
    pub fn create_account(&mut self, id: AccountId, balance: Drops) {
        let prev = self.accounts.insert(id, (balance.as_drops(), 1, 0));
        assert!(prev.is_none(), "model account already exists");
    }

    /// The signed amount `holder` is owed by `counterparty` (raw units).
    fn claim(&self, holder: AccountId, counterparty: AccountId, currency: Currency) -> i128 {
        if holder <= counterparty {
            *self
                .owed
                .get(&(holder, counterparty, currency))
                .unwrap_or(&0)
        } else {
            -*self
                .owed
                .get(&(counterparty, holder, currency))
                .unwrap_or(&0)
        }
    }

    /// Grows `holder`'s claim on `counterparty` by `delta` raw units.
    fn adjust_claim(
        &mut self,
        holder: AccountId,
        counterparty: AccountId,
        currency: Currency,
        delta: i128,
    ) {
        let (key, sign) = if holder <= counterparty {
            ((holder, counterparty, currency), 1)
        } else {
            ((counterparty, holder, currency), -1)
        };
        let entry = self.owed.entry(key).or_insert(0);
        *entry += sign * delta;
        if *entry == 0 {
            self.owed.remove(&key);
        }
    }

    /// Capacity of the hop `from -> to`: trust extended by `to` minus the
    /// claim `to` already holds on `from`.
    fn hop_capacity(&self, from: AccountId, to: AccountId, currency: Currency) -> i128 {
        let limit = *self.trust.get(&(to, from, currency)).unwrap_or(&0);
        limit - self.claim(to, from, currency)
    }

    fn reserve_for(&self, owned: u32) -> u64 {
        self.fees.reserve_for(owned).as_drops()
    }

    fn charge_fee(&mut self, account: AccountId, fee: u64) {
        let root = self.accounts.get_mut(&account).expect("caller validated");
        root.0 -= fee;
        self.burned += fee;
    }

    fn refund_fee(&mut self, account: AccountId, fee: u64) {
        let root = self.accounts.get_mut(&account).expect("caller validated");
        root.0 += fee;
        self.burned -= fee;
    }

    /// Applies one signed transaction, mirroring `LedgerState::apply`'s
    /// exact validation order and error values.
    pub fn apply(&mut self, tx: &Transaction) -> Result<TxResult, LedgerError> {
        let &(balance, sequence, owner_count) = self
            .accounts
            .get(&tx.account)
            .ok_or(LedgerError::NoSuchAccount(tx.account))?;
        if sequence != tx.sequence {
            return Err(LedgerError::BadSequence {
                expected: sequence,
                got: tx.sequence,
            });
        }
        let fee = tx.fee.as_drops();
        if fee < self.fees.base_fee.as_drops() {
            return Err(LedgerError::FeeTooLow {
                fee: tx.fee,
                minimum: self.fees.base_fee,
            });
        }
        let spendable = balance.saturating_sub(self.reserve_for(owner_count));
        if fee > spendable {
            return Err(LedgerError::InsufficientXrp {
                account: tx.account,
                needed: tx.fee,
                available: Drops::new(spendable),
            });
        }

        match &tx.kind {
            TxKind::Payment {
                destination,
                amount,
                send_max: _,
                paths,
            } => match amount {
                Amount::Xrp(drops) => {
                    self.charge_fee(tx.account, fee);
                    if let Err(e) = self.xrp_transfer(tx.account, *destination, drops.as_drops()) {
                        self.refund_fee(tx.account, fee);
                        return Err(e);
                    }
                }
                Amount::Iou(iou) => {
                    if iou.currency.is_xrp() {
                        return Err(LedgerError::XrpOnTrustLine);
                    }
                    if !iou.value.is_positive() {
                        return Err(LedgerError::NonPositiveAmount);
                    }
                    if tx.account == *destination {
                        return Err(LedgerError::SelfPayment);
                    }
                    let hops: &[AccountId] = match paths.as_slice() {
                        [] => &[],
                        [only] => only.as_slice(),
                        more => {
                            return Err(LedgerError::MultiPathUnsupported { paths: more.len() })
                        }
                    };
                    let mut chain = vec![tx.account];
                    chain.extend_from_slice(hops);
                    chain.push(*destination);
                    for (i, stop) in chain.iter().enumerate() {
                        if chain[..i].contains(stop) {
                            return Err(LedgerError::PathLoop { account: *stop });
                        }
                    }
                    for stop in &chain[1..] {
                        if !self.accounts.contains_key(stop) {
                            return Err(LedgerError::NoSuchAccount(*stop));
                        }
                    }
                    // Two-phase like the real ledger: validate every hop
                    // against the *pre* state, then apply all of them.
                    for pair in chain.windows(2) {
                        let capacity = self.hop_capacity(pair[0], pair[1], iou.currency);
                        if iou.value.raw() > capacity {
                            return Err(LedgerError::TrustLimitExceeded {
                                from: pair[0],
                                to: pair[1],
                                capacity: Value::from_raw(capacity),
                                requested: iou.value,
                            });
                        }
                    }
                    self.charge_fee(tx.account, fee);
                    for pair in chain.windows(2) {
                        self.adjust_claim(pair[1], pair[0], iou.currency, iou.value.raw());
                    }
                }
            },
            TxKind::TrustSet {
                trustee,
                currency,
                limit,
            } => {
                self.set_trust(tx.account, *trustee, *currency, *limit)?;
                self.charge_fee(tx.account, fee);
            }
            TxKind::OfferCreate {
                taker_gets,
                taker_pays,
            } => {
                let root = self.accounts.get_mut(&tx.account).expect("checked above");
                root.2 += 1;
                self.offers
                    .insert((tx.account, tx.sequence), (*taker_gets, *taker_pays));
                self.charge_fee(tx.account, fee);
            }
            TxKind::OfferCancel { offer_seq } => {
                if self.offers.remove(&(tx.account, *offer_seq)).is_none() {
                    return Err(LedgerError::NoSuchOffer {
                        owner: tx.account,
                        offer_seq: *offer_seq,
                    });
                }
                let root = self.accounts.get_mut(&tx.account).expect("checked above");
                root.2 = root.2.saturating_sub(1);
                self.charge_fee(tx.account, fee);
            }
            TxKind::AccountSet { .. } => {
                self.charge_fee(tx.account, fee);
            }
        }

        let root = self.accounts.get_mut(&tx.account).expect("checked above");
        root.1 += 1;
        Ok(TxResult::Applied)
    }

    fn xrp_transfer(
        &mut self,
        from: AccountId,
        to: AccountId,
        drops: u64,
    ) -> Result<(), LedgerError> {
        if drops == 0 {
            return Err(LedgerError::NonPositiveAmount);
        }
        if from == to {
            return Err(LedgerError::SelfPayment);
        }
        if !self.accounts.contains_key(&to) {
            return Err(LedgerError::NoSuchAccount(to));
        }
        let &(balance, _, owner_count) = self
            .accounts
            .get(&from)
            .ok_or(LedgerError::NoSuchAccount(from))?;
        let spendable = balance.saturating_sub(self.reserve_for(owner_count));
        if drops > spendable {
            return Err(LedgerError::InsufficientXrp {
                account: from,
                needed: Drops::new(drops),
                available: Drops::new(spendable),
            });
        }
        self.accounts.get_mut(&from).expect("checked").0 -= drops;
        self.accounts.get_mut(&to).expect("checked").0 += drops;
        Ok(())
    }

    fn set_trust(
        &mut self,
        truster: AccountId,
        trustee: AccountId,
        currency: Currency,
        limit: Value,
    ) -> Result<(), LedgerError> {
        if currency.is_xrp() {
            return Err(LedgerError::XrpOnTrustLine);
        }
        if limit.is_negative() {
            return Err(LedgerError::NegativeLimit);
        }
        if !self.accounts.contains_key(&trustee) {
            return Err(LedgerError::NoSuchAccount(trustee));
        }
        let key = (truster, trustee, currency);
        let existed = self.trust.contains_key(&key);
        let root = self
            .accounts
            .get_mut(&truster)
            .ok_or(LedgerError::NoSuchAccount(truster))?;
        if limit.is_zero() {
            if existed {
                root.2 = root.2.saturating_sub(1);
                self.trust.remove(&key);
            }
        } else {
            if !existed {
                root.2 += 1;
            }
            self.trust.insert(key, limit.raw());
        }
        Ok(())
    }

    /// Compares the model against a production [`LedgerState`], returning
    /// a description of the first mismatch.
    pub fn compare(&self, state: &LedgerState) -> Result<(), String> {
        let theirs: BTreeMap<AccountId, ModelAccount> = state
            .accounts()
            .map(|(&id, root)| {
                (
                    id,
                    (root.balance.as_drops(), root.sequence, root.owner_count),
                )
            })
            .collect();
        if theirs != self.accounts {
            return Err(first_map_diff("account", &self.accounts, &theirs));
        }
        let their_trust: BTreeMap<(AccountId, AccountId, Currency), i128> = state
            .trust_lines()
            .map(|l| ((l.truster, l.trustee, l.currency), l.limit.raw()))
            .collect();
        if their_trust != self.trust {
            return Err(first_map_diff("trust line", &self.trust, &their_trust));
        }
        let their_owed: BTreeMap<(AccountId, AccountId, Currency), i128> = state
            .pair_balances()
            .map(|(low, high, cur, val)| ((low, high, cur), val.raw()))
            .collect();
        if their_owed != self.owed {
            return Err(first_map_diff("pair balance", &self.owed, &their_owed));
        }
        let their_offers: BTreeMap<(AccountId, u32), (Amount, Amount)> = state
            .offers()
            .map(|o| ((o.owner, o.offer_seq), (o.taker_gets, o.taker_pays)))
            .collect();
        if their_offers != self.offers {
            return Err(format!(
                "offer books differ: model holds {}, ledger holds {}",
                self.offers.len(),
                their_offers.len()
            ));
        }
        if state.total_burned().as_drops() != self.burned {
            return Err(format!(
                "burned drops differ: model {}, ledger {}",
                self.burned,
                state.total_burned().as_drops()
            ));
        }
        Ok(())
    }
}

fn first_map_diff<K: Ord + std::fmt::Debug + Clone, V: PartialEq + std::fmt::Debug>(
    what: &str,
    model: &BTreeMap<K, V>,
    ledger: &BTreeMap<K, V>,
) -> String {
    for (k, v) in model {
        match ledger.get(k) {
            None => return format!("{what} {k:?} present in model, missing in ledger"),
            Some(w) if w != v => return format!("{what} {k:?} differs: model {v:?}, ledger {w:?}"),
            _ => {}
        }
    }
    for k in ledger.keys() {
        if !model.contains_key(k) {
            return format!("{what} {k:?} present in ledger, missing in model");
        }
    }
    format!("{what} maps differ in an unexpected way")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_crypto::SimKeypair;
    use ripple_ledger::IouAmount;

    #[test]
    fn a_path_that_revisits_an_account_is_refused_by_both_ledgers() {
        let keys = SimKeypair::from_seed(b"looper");
        let sender = AccountId::from_public_key(&keys.public_key());
        let [x, y, z, d] = [2u8, 3, 4, 5].map(|n| AccountId::from_bytes([n; 20]));
        let mut state = LedgerState::new();
        let mut model = ModelLedger::new();
        for a in [sender, x, y, z, d] {
            state.create_account(a, Drops::from_xrp(100));
            model.create_account(a, Drops::from_xrp(100));
        }
        // Y trusts X for 10 USD, every other hop has 1000.
        let wide: Value = "1000".parse().unwrap();
        let lines = [(x, sender, wide), (z, y, wide), (x, z, wide), (d, y, wide)];
        for (truster, trustee, limit) in lines.into_iter().chain([(y, x, "10".parse().unwrap())]) {
            state
                .set_trust(truster, trustee, Currency::USD, limit)
                .unwrap();
            model
                .set_trust(truster, trustee, Currency::USD, limit)
                .unwrap();
        }
        let tx = Transaction::build(
            sender,
            1,
            Drops::new(10),
            TxKind::Payment {
                destination: d,
                amount: Amount::Iou(IouAmount::new("10".parse().unwrap(), Currency::USD, y)),
                send_max: None,
                paths: vec![vec![x, y, z, x, y]],
            },
        )
        .signed(&keys);
        let refused = Err(LedgerError::PathLoop { account: x });
        assert_eq!(model.apply(&tx), refused);
        assert_eq!(state.apply(&tx), refused);
        // No fee, no sequence bump, no hop: the two still agree.
        assert_eq!(model.burned, 0);
        assert_eq!(model.compare(&state), Ok(()));
    }
}
