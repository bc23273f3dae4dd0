//! Reference exchange rates for the study period.
//!
//! Used in two places: the synthetic workload prices its offers around these
//! mid-rates, and the Figure 7(c) balance analysis aggregates every
//! currency into EUR ("the balance aggregated and shown in EUR").

use std::collections::HashMap;

use ripple_ledger::{Currency, Value};

use crate::rate::Rate;

/// A table of mid-market rates into a reference currency.
#[derive(Debug, Clone)]
pub struct RateTable {
    rates: HashMap<Currency, Rate>,
}

impl RateTable {
    /// Creates an empty table with the given reference currency.
    pub fn new(reference: Currency) -> RateTable {
        let mut rates = HashMap::new();
        rates.insert(reference, Rate::UNIT);
        RateTable { rates }
    }

    /// Approximate 2015-era rates into EUR, covering the paper's leading
    /// currencies (Fig. 4/5): BTC ≈ 230 EUR, USD ≈ 0.9 EUR, CNY ≈ 0.14 EUR,
    /// JPY ≈ 0.0074 EUR, XRP ≈ 0.007 EUR, and nominal rates for the spam
    /// codes.
    pub fn eur_2015() -> RateTable {
        let mut t = RateTable::new(Currency::EUR);
        t.set(Currency::USD, Rate::new(9, 10));
        t.set(Currency::BTC, Rate::new(230, 1));
        t.set(Currency::CNY, Rate::new(14, 100));
        t.set(Currency::JPY, Rate::new(74, 10_000));
        t.set(Currency::GBP, Rate::new(135, 100));
        t.set(Currency::AUD, Rate::new(65, 100));
        t.set(Currency::KRW, Rate::new(75, 100_000));
        t.set(Currency::XRP, Rate::new(7, 1_000));
        t.set(Currency::XAU, Rate::new(1_000, 1));
        t.set(Currency::XAG, Rate::new(14, 1));
        t.set(Currency::XPT, Rate::new(900, 1));
        t.set(Currency::STR, Rate::new(2, 1_000));
        // Spam currencies have no real market; give them dust values.
        t.set(Currency::CCK, Rate::new(1, 1_000));
        t.set(Currency::MTL, Rate::new(1, 1_000_000));
        t
    }

    /// Sets the rate of `currency` into the reference.
    pub fn set(&mut self, currency: Currency, rate: Rate) {
        self.rates.insert(currency, rate);
    }

    /// The rate of `currency` into the reference, if known.
    pub fn rate(&self, currency: Currency) -> Option<Rate> {
        self.rates.get(&currency).copied()
    }

    /// Converts an amount of `currency` into the reference currency.
    /// Unknown currencies convert at a nominal dust rate (1:10⁶) so spam
    /// codes never dominate aggregate balances.
    pub fn to_reference(&self, currency: Currency, amount: Value) -> Value {
        match self.rates.get(&currency) {
            Some(rate) => {
                if amount.is_negative() {
                    -rate.apply(-amount)
                } else {
                    rate.apply(amount)
                }
            }
            None => amount.mul_ratio(1, 1_000_000),
        }
    }

    /// The cross rate between two currencies (via the reference).
    pub fn cross(&self, from: Currency, to: Currency) -> Option<Rate> {
        let f = self.rate(from)?;
        let t = self.rate(to)?;
        // from->ref->to: (f.num/f.den) / (t.num/t.den)
        Some(Rate::new(1, 1).compose(&f).compose(&invert(t)))
    }
}

fn invert(rate: Rate) -> Rate {
    // Safe: Rate's invariants guarantee positivity.
    let f = rate.to_f64();
    Rate::from_amounts(Value::from_f64(1.0), Value::from_f64(f)).unwrap_or(Rate::UNIT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_unit() {
        let t = RateTable::eur_2015();
        assert_eq!(t.rate(Currency::EUR).unwrap(), Rate::UNIT);
        assert_eq!(
            t.to_reference(Currency::EUR, "5".parse().unwrap()),
            "5".parse().unwrap()
        );
    }

    #[test]
    fn btc_is_worth_hundreds_of_eur() {
        let t = RateTable::eur_2015();
        let one_btc = t.to_reference(Currency::BTC, "1".parse().unwrap());
        assert_eq!(one_btc, "230".parse().unwrap());
    }

    #[test]
    fn negative_amounts_stay_negative() {
        let t = RateTable::eur_2015();
        let debt = t.to_reference(Currency::USD, "-100".parse().unwrap());
        assert_eq!(debt, "-90".parse().unwrap());
    }

    #[test]
    fn unknown_currency_converts_at_dust() {
        let t = RateTable::eur_2015();
        let v = t.to_reference(Currency::code("ZZZ"), "1000000".parse().unwrap());
        assert_eq!(v, "1".parse().unwrap());
    }

    #[test]
    fn cross_rate_roundtrip_is_close() {
        let t = RateTable::eur_2015();
        let usd_to_cny = t.cross(Currency::USD, Currency::CNY).unwrap();
        // 0.9 EUR / 0.14 EUR ≈ 6.43 CNY per USD.
        let f = usd_to_cny.to_f64();
        assert!((6.3..6.6).contains(&f), "rate = {f}");
    }
}
