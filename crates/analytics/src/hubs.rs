//! Figure 7: the most influential users — hop frequency, trust, balances.

use std::collections::HashMap;

use ripple_crypto::AccountId;
use ripple_ledger::{Currency, LedgerState, PaymentRecord, Value};
use ripple_orderbook::RateTable;

/// One row of the Figure 7 panels.
#[derive(Debug, Clone, PartialEq)]
pub struct HubRow {
    /// The account.
    pub account: AccountId,
    /// Display label (gateway name, or the abbreviated account id).
    pub label: String,
    /// Whether the account is a publicly announced gateway (the green
    /// highlight in Fig. 7a).
    pub is_gateway: bool,
    /// Times the account appeared as an intermediate hop (Fig. 7a).
    pub hop_count: u64,
    /// Trust received from others (sum of incoming limits, Fig. 7b
    /// positive bars), in raw currency units summed across currencies.
    pub trust_received: Value,
    /// Trust given to others (Fig. 7b negative bars).
    pub trust_given: Value,
    /// Net balance aggregated into the reference currency (Fig. 7c):
    /// negative for debt (gateways), positive for credit (users).
    pub balance_eur: Value,
}

/// The Figure 7 report: the top-N intermediaries with their trust and
/// balance profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct HubReport {
    /// Rows, most frequent intermediary first.
    pub rows: Vec<HubRow>,
    /// Total multi-hop payments analysed.
    pub multi_hop_payments: u64,
    /// Fraction of multi-hop payments touched by the listed rows.
    pub coverage: f64,
}

/// Builds the Figure 7 report.
///
/// `gateway_names` maps announced-gateway accounts to their public names;
/// everything else is labelled with its abbreviated address, as in the
/// paper's figures.
pub fn hub_report<'a>(
    payments: impl Iterator<Item = &'a PaymentRecord>,
    state: &LedgerState,
    gateway_names: &HashMap<AccountId, String>,
    rates: &RateTable,
    top: usize,
) -> HubReport {
    let mut hop_counts: HashMap<AccountId, u64> = HashMap::new();
    let mut multi_hop_payments = 0u64;
    let mut touched: HashMap<AccountId, u64> = HashMap::new();
    for p in payments {
        if !p.paths.is_multi_hop() {
            continue;
        }
        multi_hop_payments += 1;
        let mut seen_this_payment: Vec<AccountId> = Vec::new();
        for hop in p.paths.intermediaries() {
            *hop_counts.entry(*hop).or_insert(0) += 1;
            if !seen_this_payment.contains(hop) {
                seen_this_payment.push(*hop);
            }
        }
        for hop in seen_this_payment {
            *touched.entry(hop).or_insert(0) += 1;
        }
    }

    let mut ranked: Vec<(AccountId, u64)> = hop_counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(top);

    // Trust aggregation over the final ledger state. The same pass notes
    // the currencies each listed account has a trust line in: only those
    // count towards its balance, as in the tests' `balance_in_reference`.
    let mut trust_received: HashMap<AccountId, Value> = HashMap::new();
    let mut trust_given: HashMap<AccountId, Value> = HashMap::new();
    let mut positions: HashMap<AccountId, Vec<(Currency, Value)>> = ranked
        .iter()
        .map(|&(account, _)| (account, Vec::new()))
        .collect();
    for line in state.trust_lines() {
        let recv = trust_received.entry(line.trustee).or_insert(Value::ZERO);
        *recv = *recv + line.limit;
        let given = trust_given.entry(line.truster).or_insert(Value::ZERO);
        *given = *given + line.limit;
        for party in [line.truster, line.trustee] {
            if let Some(held) = positions.get_mut(&party) {
                if !held.iter().any(|&(currency, _)| currency == line.currency) {
                    held.push((line.currency, Value::ZERO));
                }
            }
        }
    }
    // One pass over the pair balances nets every listed account's position
    // per currency (positive = the system owes the account).
    for (low, high, currency, balance) in state.pair_balances() {
        for (party, signed) in [(low, balance), (high, -balance)] {
            let position = positions
                .get_mut(&party)
                .and_then(|held| held.iter_mut().find(|(c, _)| *c == currency));
            if let Some((_, position)) = position {
                *position = *position + signed;
            }
        }
    }

    let rows: Vec<HubRow> = ranked
        .iter()
        .map(|&(account, hop_count)| {
            let is_gateway = gateway_names.contains_key(&account);
            let label = gateway_names
                .get(&account)
                .cloned()
                .unwrap_or_else(|| account.short());
            HubRow {
                account,
                label,
                is_gateway,
                hop_count,
                trust_received: trust_received.get(&account).copied().unwrap_or(Value::ZERO),
                trust_given: trust_given.get(&account).copied().unwrap_or(Value::ZERO),
                balance_eur: positions[&account]
                    .iter()
                    .map(|&(currency, position)| rates.to_reference(currency, position))
                    .sum(),
            }
        })
        .collect();

    // Coverage: payments touched by at least one of the top rows.
    // (Approximation from per-account touch counts using
    // inclusion-exclusion would need per-payment sets; we bound it by the
    // max single-account touch count and the sum, capped at 1.)
    let covered: u64 = rows
        .iter()
        .map(|r| touched.get(&r.account).copied().unwrap_or(0))
        .max()
        .unwrap_or(0);
    let coverage = if multi_hop_payments == 0 {
        0.0
    } else {
        (covered as f64 / multi_hop_payments as f64).min(1.0)
    };

    HubReport {
        rows,
        multi_hop_payments,
        coverage,
    }
}

/// Renders the report as text (the three Figure 7 panels side by side).
pub fn hub_table(report: &HubReport) -> String {
    let mut out = format!(
        "{:<24} {:>3} {:>10} {:>16} {:>16} {:>16}\n",
        "user", "gw", "hops", "trust-recv", "trust-given", "balance(EUR)"
    );
    for row in &report.rows {
        out.push_str(&format!(
            "{:<24} {:>3} {:>10} {:>16} {:>16} {:>16}\n",
            row.label,
            if row.is_gateway { "*" } else { "" },
            row.hop_count,
            row.trust_received.to_string(),
            row.trust_given.to_string(),
            row.balance_eur.to_string(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_crypto::sha512_half;
    use ripple_ledger::{Drops, PathSummary, RippleTime};

    /// Net position of `account` across all currencies, converted into the
    /// rate table's reference currency (EUR in the paper's Fig. 7c).
    ///
    /// One account at a time this rescans the ledger once per currency: the
    /// oracle for [`hub_report`], which nets all its rows in one pass.
    fn balance_in_reference(state: &LedgerState, account: AccountId, rates: &RateTable) -> Value {
        let mut total = Value::ZERO;
        let mut currencies: Vec<Currency> = Vec::new();
        for line in state.trust_lines() {
            if (line.truster == account || line.trustee == account)
                && !currencies.contains(&line.currency)
            {
                currencies.push(line.currency);
            }
        }
        for currency in currencies {
            let position = state.net_position(account, currency);
            if !position.is_zero() {
                total = total + rates.to_reference(currency, position);
            }
        }
        total
    }

    fn acct(n: u8) -> AccountId {
        AccountId::from_bytes([n; 20])
    }

    fn rec(hops: Vec<AccountId>) -> PaymentRecord {
        PaymentRecord {
            tx_hash: sha512_half(&[hops.len() as u8]),
            sender: acct(1),
            destination: acct(2),
            currency: Currency::USD,
            issuer: None,
            amount: "1".parse().unwrap(),
            timestamp: RippleTime::EPOCH,
            ledger_seq: 1,
            paths: PathSummary::from_paths(vec![hops]),
            cross_currency: false,
            source_currency: None,
        }
    }

    fn simple_state() -> LedgerState {
        let mut s = LedgerState::new();
        for i in 1..=5 {
            s.create_account(acct(i), Drops::from_xrp(100));
        }
        // 1 and 2 trust gateway 3.
        s.set_trust(acct(1), acct(3), Currency::USD, "100".parse().unwrap())
            .unwrap();
        s.set_trust(acct(2), acct(3), Currency::USD, "200".parse().unwrap())
            .unwrap();
        // Gateway 3 owes 1 fifty USD (a deposit).
        s.ripple_hop(acct(3), acct(1), Currency::USD, "50".parse().unwrap())
            .unwrap();
        s
    }

    #[test]
    fn ranks_intermediaries_by_frequency() {
        let records = [rec(vec![acct(3)]), rec(vec![acct(3)]), rec(vec![acct(4)])];
        let state = simple_state();
        let report = hub_report(
            records.iter(),
            &state,
            &HashMap::new(),
            &RateTable::eur_2015(),
            10,
        );
        assert_eq!(report.rows[0].account, acct(3));
        assert_eq!(report.rows[0].hop_count, 2);
        assert_eq!(report.multi_hop_payments, 3);
    }

    #[test]
    fn gateway_labels_apply() {
        let records = [rec(vec![acct(3)])];
        let state = simple_state();
        let mut names = HashMap::new();
        names.insert(acct(3), "SnapSwap".to_string());
        let report = hub_report(records.iter(), &state, &names, &RateTable::eur_2015(), 10);
        assert!(report.rows[0].is_gateway);
        assert_eq!(report.rows[0].label, "SnapSwap");
    }

    #[test]
    fn trust_aggregates_in_and_out() {
        let records = [rec(vec![acct(3)])];
        let state = simple_state();
        let report = hub_report(
            records.iter(),
            &state,
            &HashMap::new(),
            &RateTable::eur_2015(),
            10,
        );
        let row = &report.rows[0];
        // Gateway 3 receives 100 + 200 trust and gives none.
        assert_eq!(row.trust_received, "300".parse().unwrap());
        assert_eq!(row.trust_given, Value::ZERO);
    }

    #[test]
    fn gateway_balance_is_negative_user_positive() {
        let state = simple_state();
        let rates = RateTable::eur_2015();
        let gw = balance_in_reference(&state, acct(3), &rates);
        assert!(gw.is_negative(), "gateway owes deposits: {gw}");
        let user = balance_in_reference(&state, acct(1), &rates);
        assert!(user.is_positive(), "user holds claims: {user}");
        // 50 USD at 0.9 = 45 EUR.
        assert_eq!(user, "45".parse().unwrap());
    }

    fn assert_balances_match_the_oracle(report: &HubReport, state: &LedgerState) {
        let rates = RateTable::eur_2015();
        for row in &report.rows {
            assert_eq!(
                row.balance_eur,
                balance_in_reference(state, row.account, &rates),
                "{}",
                row.label
            );
        }
    }

    #[test]
    fn balances_match_the_per_account_oracle_on_a_generated_history() {
        use ripple_synth::{Generator, SynthConfig};
        let output = Generator::new(SynthConfig {
            seed: 31_337,
            ..SynthConfig::small(6_000)
        })
        .run();
        let report = hub_report(
            output.payments(),
            &output.final_state,
            &HashMap::new(),
            &RateTable::eur_2015(),
            50,
        );
        assert_eq!(report.rows.len(), 50);
        assert!(report.rows.iter().any(|r| r.balance_eur.is_negative()));
        assert!(report.rows.iter().any(|r| r.balance_eur.is_positive()));
        assert_balances_match_the_oracle(&report, &output.final_state);
    }

    #[test]
    fn balance_without_a_trust_line_in_its_currency_stays_excluded() {
        let mut state = simple_state();
        // 1 withdraws its USD trust in 3 while still holding 3's fifty USD,
        // and opens an unrelated EUR line: 1 is listed, but not for USD.
        state
            .set_trust(acct(1), acct(3), Currency::USD, Value::ZERO)
            .unwrap();
        state
            .set_trust(acct(1), acct(4), Currency::EUR, "10".parse().unwrap())
            .unwrap();
        let records = [rec(vec![acct(1), acct(3)])];
        let report = hub_report(
            records.iter(),
            &state,
            &HashMap::new(),
            &RateTable::eur_2015(),
            10,
        );
        let user = report.rows.iter().find(|r| r.account == acct(1)).unwrap();
        assert_eq!(user.balance_eur, Value::ZERO);
        let gateway = report.rows.iter().find(|r| r.account == acct(3)).unwrap();
        assert_eq!(gateway.balance_eur, "-45".parse().unwrap());
        assert_balances_match_the_oracle(&report, &state);
    }

    #[test]
    fn top_truncates() {
        let records = [rec(vec![acct(3)]), rec(vec![acct(4)]), rec(vec![acct(5)])];
        let state = simple_state();
        let report = hub_report(
            records.iter(),
            &state,
            &HashMap::new(),
            &RateTable::eur_2015(),
            2,
        );
        assert_eq!(report.rows.len(), 2);
    }

    #[test]
    fn table_renders_flags() {
        let records = [rec(vec![acct(3)])];
        let state = simple_state();
        let mut names = HashMap::new();
        names.insert(acct(3), "Bitstamp".to_string());
        let report = hub_report(records.iter(), &state, &names, &RateTable::eur_2015(), 10);
        let table = hub_table(&report);
        assert!(table.contains("Bitstamp"));
        assert!(table.contains('*'));
    }
}
