//! Generator configuration, calibrated to the paper's reported marginals.

use ripple_ledger::{Currency, RippleTime};
use serde::{Deserialize, Serialize};

/// Full generator configuration.
///
/// Defaults reproduce the paper's proportions at a scale of 200 000
/// payments (the paper's history holds 23M; every experiment scales
/// linearly, and `EXPERIMENTS.md` records the scaling factor used for each
/// reproduction).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SynthConfig {
    /// RNG seed; equal seeds give byte-identical histories.
    pub seed: u64,
    /// Number of payments to generate.
    pub payments: usize,
    /// History start (the paper: system genesis, January 2013).
    pub start: RippleTime,
    /// History end (the paper: September 2015).
    pub end: RippleTime,
    /// Number of communities (regional clusters of gateways and users).
    pub communities: usize,
    /// Gateways per community.
    pub gateways_per_community: usize,
    /// Number of Market Makers (offer placement follows a Zipf over them).
    pub market_makers: usize,
    /// Number of ordinary users.
    pub users: usize,
    /// Number of merchants (users with fixed menu prices, à la the latte).
    pub merchants: usize,
    /// Fraction of all payments that are direct XRP transfers
    /// (paper: 49%, including the spam sub-campaigns below).
    pub xrp_fraction: f64,
    /// Fraction of all payments in the MTL spam campaign
    /// (paper: 3.3M of 23M ≈ 14%, forced 8 hops / 6 parallel paths).
    pub mtl_fraction: f64,
    /// Fraction of all payments in CCK micro-spam (Fig. 4 ranks CCK second,
    /// just above MTL).
    pub cck_fraction: f64,
    /// Fraction of XRP payments bounced off `ACCOUNT_ZERO`
    /// (paper: "over 1M payments" ≈ 4.3% of the total, ~9% of XRP traffic).
    pub account_zero_fraction: f64,
    /// Fraction of XRP payments that are `~Ripple Spin` gambling bets
    /// (paper: 700k ≈ 10% of XRP payments).
    pub spin_fraction: f64,
    /// Probability that a non-spam IOU payment is cross-currency
    /// (Table II's replay window: 68.7% of submitted payments).
    pub cross_currency_prob: f64,
    /// Probability that a user repeats one of its habitual
    /// (amount, destination) pairs instead of paying someone new.
    pub habit_prob: f64,
    /// Mean ledger-page interval in seconds (payments landing in the same
    /// page share a timestamp — the paper's `T` is the page close time).
    pub page_interval_secs: u64,
    /// Probability that a payment lands in the same page as its
    /// predecessor (burstiness).
    pub same_page_prob: f64,
    /// Fraction of single-currency IOU payments whose destination lies in
    /// the sender's own community (reachable through a shared gateway, so
    /// they survive the Table II Market-Maker removal; together with the
    /// hub-covered community pair this calibrates single-currency delivery
    /// near the paper's 36.1%).
    pub same_community_fraction: f64,
    /// Offer events archived per payment (the paper: ~90M offers next to
    /// 23M payments; we default lower to bound archive size — concentration
    /// statistics are scale-free).
    pub offers_per_payment: f64,
    /// Snapshot instant for the Table II replay (the paper: February 2015).
    pub snapshot_at: Option<RippleTime>,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            seed: 20130101,
            payments: 200_000,
            start: RippleTime::from_ymd_hms(2013, 1, 1, 0, 0, 0),
            end: RippleTime::from_ymd_hms(2015, 9, 30, 23, 59, 59),
            communities: 8,
            gateways_per_community: 4,
            market_makers: 230,
            users: 4_000,
            merchants: 150,
            xrp_fraction: 0.49,
            mtl_fraction: 0.14,
            cck_fraction: 0.155,
            account_zero_fraction: 0.09,
            spin_fraction: 0.10,
            cross_currency_prob: 0.65,
            habit_prob: 0.12,
            page_interval_secs: 5,
            same_page_prob: 0.05,
            same_community_fraction: 0.2,
            offers_per_payment: 1.0,
            snapshot_at: Some(RippleTime::from_ymd_hms(2015, 2, 1, 0, 0, 0)),
        }
    }
}

impl SynthConfig {
    /// A small configuration for fast tests.
    pub fn small(payments: usize) -> SynthConfig {
        SynthConfig {
            payments,
            users: 600,
            merchants: 40,
            market_makers: 40,
            ..SynthConfig::default()
        }
    }

    /// The IOU currency mix for non-spam payments, as `(currency, weight)`
    /// pairs. Weights follow Figure 4's ranked counts (BTC 4.7%, USD 3.8%,
    /// CNY 3.3%, JPY 2.1%, …, EUR 0.4%) rescaled over the non-XRP,
    /// non-spam remainder, plus a geometrically decaying tail of minor
    /// codes so the ranked plot spans the figure's five decades.
    pub fn iou_currency_mix(&self) -> Vec<(Currency, f64)> {
        let mut mix = vec![
            (Currency::BTC, 4.7),
            (Currency::USD, 3.8),
            (Currency::CNY, 3.3),
            (Currency::JPY, 2.1),
            (Currency::code("SFO"), 1.6),
            (Currency::code("DVC"), 1.2),
            (Currency::code("GWD"), 0.9),
            (Currency::EUR, 0.4),
            (Currency::code("RSC"), 0.33),
            (Currency::code("ICE"), 0.27),
            (Currency::STR, 0.22),
            (Currency::code("GKO"), 0.18),
            (Currency::KRW, 0.15),
            (Currency::code("TRC"), 0.12),
            (Currency::code("LTC"), 0.10),
            (Currency::code("CAD"), 0.085),
            (Currency::code("FMM"), 0.07),
            (Currency::code("MXN"), 0.058),
            (Currency::code("XNT"), 0.048),
            (Currency::code("CXN"), 0.04),
            (Currency::code("FBR"), 0.033),
            (Currency::code("DNX"), 0.027),
            (Currency::code("WTC"), 0.022),
            (Currency::code("ILS"), 0.018),
            (Currency::code("DOG"), 0.015),
            (Currency::GBP, 0.012),
            (Currency::code("XEC"), 0.010),
            (Currency::code("NZD"), 0.008),
            (Currency::code("LWT"), 0.007),
            (Currency::code("NXT"), 0.006),
            (Currency::code("YOU"), 0.005),
            (Currency::code("ONC"), 0.004),
            (Currency::code("TBC"), 0.0033),
            (Currency::code("CSC"), 0.0027),
            (Currency::code("MRH"), 0.0022),
            (Currency::code("SWD"), 0.0018),
            (Currency::AUD, 0.0015),
            (Currency::code("NMC"), 0.0012),
            (Currency::code("CTC"), 0.001),
            (Currency::code("PCV"), 0.0008),
            (Currency::code("IOU"), 0.0007),
            (Currency::code("LIK"), 0.0006),
            (Currency::code("UKN"), 0.0005),
            (Currency::code("RES"), 0.0004),
            (Currency::code("JED"), 0.0003),
            (Currency::code("VTC"), 0.0002),
            (Currency::code("RJP"), 0.0001),
        ];
        // Normalize to 1.0 (the caller scopes these to the IOU remainder).
        let total: f64 = mix.iter().map(|&(_, w)| w).sum();
        for (_, w) in &mut mix {
            *w /= total;
        }
        mix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_paper_window() {
        let c = SynthConfig::default();
        assert!(c.start < c.end);
        assert_eq!(c.start.to_string(), "2013-01-01 00:00:00");
        assert!(c.end.to_string().starts_with("2015-09-30"));
    }

    #[test]
    fn spam_fractions_leave_room_for_iou_traffic() {
        let c = SynthConfig::default();
        let spam = c.xrp_fraction + c.mtl_fraction + c.cck_fraction;
        assert!(spam < 0.9, "IOU remainder must be non-trivial");
    }

    #[test]
    fn currency_mix_is_normalized_and_ranked() {
        let mix = SynthConfig::default().iou_currency_mix();
        let total: f64 = mix.iter().map(|&(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(mix[0].0, Currency::BTC);
        // Weights are non-increasing (the ranked Fig. 4 shape).
        for pair in mix.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        // The tail spans several decades, like the figure's log axis.
        let ratio = mix[0].1 / mix.last().unwrap().1;
        assert!(ratio > 10_000.0, "span = {ratio}");
    }

    #[test]
    fn small_config_shrinks_population() {
        let c = SynthConfig::small(1_000);
        assert_eq!(c.payments, 1_000);
        assert!(c.users < SynthConfig::default().users);
    }
}
