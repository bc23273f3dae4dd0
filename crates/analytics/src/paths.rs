//! Figure 6: payment-path structure.
//!
//! Both histograms consider only the payments that "require more than one
//! hop on the trust-lines to reach destination" (10M of the paper's 23M) —
//! direct XRP transfers are excluded.

use std::collections::BTreeMap;

use ripple_ledger::PaymentRecord;

/// Figure 6(a): number of payment *paths* per intermediate-hop count.
/// Every path with intermediaries contributes one sample
/// ([`ripple_ledger::PathSummary::hop_counts`]).
pub fn path_hop_histogram<'a>(
    payments: impl Iterator<Item = &'a PaymentRecord>,
) -> BTreeMap<usize, u64> {
    let mut histogram = BTreeMap::new();
    for hops in payments.flat_map(|p| p.paths.hop_counts()) {
        *histogram.entry(hops).or_insert(0) += 1;
    }
    histogram
}

/// Figure 6(b): number of *payments* per parallel-path count.
pub fn parallel_path_histogram<'a>(
    payments: impl Iterator<Item = &'a PaymentRecord>,
) -> BTreeMap<usize, u64> {
    let mut histogram = BTreeMap::new();
    for p in payments {
        if !p.paths.is_multi_hop() {
            continue;
        }
        *histogram.entry(p.paths.parallel_paths()).or_insert(0) += 1;
    }
    histogram
}

/// Renders a histogram as an aligned text table.
pub fn histogram_table(histogram: &BTreeMap<usize, u64>, x_label: &str) -> String {
    let mut out = format!("{x_label:>6} {:>12}\n", "count");
    for (k, v) in histogram {
        out.push_str(&format!("{k:>6} {v:>12}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_crypto::{sha512_half, AccountId};
    use ripple_ledger::{Currency, PathSummary, RippleTime};

    fn acct(n: u8) -> AccountId {
        AccountId::from_bytes([n; 20])
    }

    fn rec(paths: Vec<Vec<AccountId>>) -> PaymentRecord {
        PaymentRecord {
            tx_hash: sha512_half(&[paths.len() as u8]),
            sender: acct(1),
            destination: acct(2),
            currency: Currency::USD,
            issuer: None,
            amount: "1".parse().unwrap(),
            timestamp: RippleTime::EPOCH,
            ledger_seq: 1,
            paths: PathSummary::from_paths(paths),
            cross_currency: false,
            source_currency: None,
        }
    }

    #[test]
    fn direct_payments_are_excluded() {
        let records = [rec(vec![Vec::new()]), rec(vec![vec![acct(3)]])];
        let hops = path_hop_histogram(records.iter());
        assert_eq!(hops.get(&1), Some(&1));
        assert_eq!(hops.len(), 1);
        let parallel = parallel_path_histogram(records.iter());
        assert_eq!(parallel.get(&1), Some(&1));
    }

    #[test]
    fn every_parallel_path_counts_for_hops() {
        let records = [rec(vec![vec![acct(3)], vec![acct(3), acct(4), acct(5)]])];
        let hops = path_hop_histogram(records.iter());
        assert_eq!(hops.get(&1), Some(&1));
        assert_eq!(hops.get(&3), Some(&1));
    }

    #[test]
    fn parallel_counts_payments_not_paths() {
        let records = [
            rec(vec![vec![acct(3)], vec![acct(4)]]),
            rec(vec![vec![acct(3)], vec![acct(4)]]),
            rec(vec![vec![acct(3)]]),
        ];
        let parallel = parallel_path_histogram(records.iter());
        assert_eq!(parallel.get(&2), Some(&2));
        assert_eq!(parallel.get(&1), Some(&1));
    }

    #[test]
    fn mtl_shape_spikes_at_eight_hops_six_paths() {
        // Six parallel paths of exactly eight hops, the spam signature.
        let chain: Vec<AccountId> = (10..18).map(acct).collect();
        let records = [rec(vec![chain.clone(); 6])];
        let hops = path_hop_histogram(records.iter());
        assert_eq!(hops.get(&8), Some(&6));
        let parallel = parallel_path_histogram(records.iter());
        assert_eq!(parallel.get(&6), Some(&1));
    }

    #[test]
    fn table_renders() {
        let records = [rec(vec![vec![acct(3)]])];
        let table = histogram_table(&path_hop_histogram(records.iter()), "hops");
        assert!(table.contains("hops"));
        assert!(table.contains('1'));
    }
}
