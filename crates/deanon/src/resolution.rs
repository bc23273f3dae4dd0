//! Table I: the rounding grid, and the timestamp coarsening ladder.
//!
//! "Currencies have different market strengths. […] We group currencies
//! with similar market strength together and we apply the same rounding
//! process to members of the same strength group."
//!
//! | Strength | Currencies            | Max (m) | Average (a) | Low (l) |
//! |----------|-----------------------|---------|-------------|---------|
//! | Powerful | BTC, XAG, XAU, XPT    | 10⁻³    | 10⁻²        | 10⁻¹    |
//! | Medium   | CNY, EUR, USD, AUD, GBP, JPY | 10¹ | 10²     | 10³     |
//! | Weak     | XRP, CCK, STR, KRW, MTL (and all other codes) | 10⁵ | 10⁶ | 10⁷ |
//!
//! Figure 3 additionally uses a *high* (`h`) amount level paired with
//! minute timestamps. Table I defines only three exponents, so we model
//! `High` with the maximum-resolution exponent — the figure's `⟨A_h, T_mn⟩`
//! row then differs from `⟨A_m, T_sc⟩` in its timestamp resolution, which
//! is the dominant term.

use ripple_ledger::{Currency, RippleTime, Value};
use serde::{Deserialize, Serialize};

/// Market-strength group of a currency (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CurrencyStrength {
    /// BTC and precious metals: single units are worth hundreds of euro.
    Powerful,
    /// The major fiat currencies.
    Medium,
    /// Everything else, including XRP and the spam codes.
    Weak,
}

impl CurrencyStrength {
    /// Classifies a currency.
    pub fn of(currency: Currency) -> CurrencyStrength {
        match currency.as_bytes() {
            b"BTC" | b"XAG" | b"XAU" | b"XPT" => CurrencyStrength::Powerful,
            b"CNY" | b"EUR" | b"USD" | b"AUD" | b"GBP" | b"JPY" => CurrencyStrength::Medium,
            _ => CurrencyStrength::Weak,
        }
    }
}

/// Amount resolution level (Fig. 3's `m`, `h`, `a`, `l` subscripts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AmountResolution {
    /// Maximum resolution (`A_m`).
    Maximum,
    /// High resolution (`A_h`) — see the module docs for its mapping.
    High,
    /// Average resolution (`A_a`).
    Average,
    /// Low resolution (`A_l`).
    Low,
}

impl AmountResolution {
    /// The rounding exponent for a strength group at this resolution:
    /// amounts are rounded to the closest `10^exponent`. This is Table I's
    /// primitive — the grid is keyed by strength group, not by individual
    /// currency, so an attacker who only knows "what kind of money" can
    /// still round correctly.
    pub fn exponent_for(self, strength: CurrencyStrength) -> i32 {
        let base = match strength {
            CurrencyStrength::Powerful => -3,
            CurrencyStrength::Medium => 1,
            CurrencyStrength::Weak => 5,
        };
        match self {
            AmountResolution::Maximum | AmountResolution::High => base,
            AmountResolution::Average => base + 1,
            AmountResolution::Low => base + 2,
        }
    }

    /// The rounding exponent for a currency at this resolution: amounts are
    /// rounded to the closest `10^exponent`.
    pub fn exponent(self, currency: Currency) -> i32 {
        self.exponent_for(CurrencyStrength::of(currency))
    }

    /// Rounds `amount` of a currency in `strength` at this resolution.
    ///
    /// # Examples
    ///
    /// ```
    /// use ripple_deanon::{AmountResolution, CurrencyStrength};
    ///
    /// let v = "47".parse().unwrap();
    /// let rounded = AmountResolution::Maximum.round_for(CurrencyStrength::Medium, v);
    /// assert_eq!(rounded.to_string(), "50");
    /// ```
    pub fn round_for(self, strength: CurrencyStrength, amount: Value) -> Value {
        amount.round_to_pow10(self.exponent_for(strength))
    }

    /// Rounds `amount` of `currency` at this resolution.
    ///
    /// # Examples
    ///
    /// ```
    /// use ripple_deanon::AmountResolution;
    /// use ripple_ledger::Currency;
    ///
    /// let v = "4.5".parse().unwrap();
    /// // USD at maximum resolution rounds to the closest tens: 4.5 -> 0.
    /// assert!(AmountResolution::Maximum.round(Currency::USD, v).is_zero());
    /// ```
    pub fn round(self, currency: Currency, amount: Value) -> Value {
        self.round_for(CurrencyStrength::of(currency), amount)
    }

    /// All levels, finest first.
    pub fn all() -> [AmountResolution; 4] {
        [
            AmountResolution::Maximum,
            AmountResolution::High,
            AmountResolution::Average,
            AmountResolution::Low,
        ]
    }
}

/// Timestamp resolution level (Fig. 3's `sc`, `mn`, `hr`, `dy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimeResolution {
    /// Seconds (`T_sc`) — the ledger's native precision.
    Seconds,
    /// Minutes (`T_mn`).
    Minutes,
    /// Hours (`T_hr`).
    Hours,
    /// Days (`T_dy`).
    Days,
}

impl TimeResolution {
    /// Coarsens a timestamp to this resolution.
    ///
    /// # Examples
    ///
    /// ```
    /// use ripple_deanon::TimeResolution;
    /// use ripple_ledger::RippleTime;
    ///
    /// let t = RippleTime::from_ymd_hms(2015, 8, 24, 15, 41, 3);
    /// assert_eq!(
    ///     TimeResolution::Days.coarsen(t).to_string(),
    ///     "2015-08-24 00:00:00",
    /// );
    /// ```
    pub fn coarsen(self, t: RippleTime) -> RippleTime {
        match self {
            TimeResolution::Seconds => t,
            TimeResolution::Minutes => t.truncate_to_minute(),
            TimeResolution::Hours => t.truncate_to_hour(),
            TimeResolution::Days => t.truncate_to_day(),
        }
    }

    /// All levels, finest first.
    pub fn all() -> [TimeResolution; 4] {
        [
            TimeResolution::Seconds,
            TimeResolution::Minutes,
            TimeResolution::Hours,
            TimeResolution::Days,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strength_groups_match_table1() {
        for cur in [Currency::BTC, Currency::XAG, Currency::XAU, Currency::XPT] {
            assert_eq!(CurrencyStrength::of(cur), CurrencyStrength::Powerful);
        }
        for code in ["CNY", "EUR", "USD", "AUD", "GBP", "JPY"] {
            assert_eq!(
                CurrencyStrength::of(Currency::code(code)),
                CurrencyStrength::Medium
            );
        }
        for code in ["XRP", "CCK", "STR", "KRW", "MTL", "ZZZ"] {
            assert_eq!(
                CurrencyStrength::of(Currency::code(code)),
                CurrencyStrength::Weak
            );
        }
    }

    #[test]
    fn exponents_match_table1() {
        use AmountResolution::*;
        // Powerful: 10^-3, 10^-2, 10^-1.
        assert_eq!(Maximum.exponent(Currency::BTC), -3);
        assert_eq!(Average.exponent(Currency::BTC), -2);
        assert_eq!(Low.exponent(Currency::BTC), -1);
        // Medium: 10^1, 10^2, 10^3.
        assert_eq!(Maximum.exponent(Currency::EUR), 1);
        assert_eq!(Average.exponent(Currency::EUR), 2);
        assert_eq!(Low.exponent(Currency::EUR), 3);
        // Weak: 10^5, 10^6, 10^7.
        assert_eq!(Maximum.exponent(Currency::XRP), 5);
        assert_eq!(Average.exponent(Currency::MTL), 6);
        assert_eq!(Low.exponent(Currency::KRW), 7);
    }

    #[test]
    fn paper_examples_round_as_described() {
        // "For the EUR currency […] maximum (Am), achieved by rounding to
        // the closest tens".
        let v: Value = "47".parse().unwrap();
        assert_eq!(
            AmountResolution::Maximum
                .round(Currency::EUR, v)
                .to_string(),
            "50"
        );
        // "for BTC […] Am, rounding to the closest thousandth".
        let v: Value = "0.0154".parse().unwrap();
        assert_eq!(
            AmountResolution::Maximum
                .round(Currency::BTC, v)
                .to_string(),
            "0.015"
        );
        // MTL spam amounts of order 1e9 survive weak-group rounding with
        // plenty of distinct buckets.
        let v: Value = "1234567890".parse().unwrap();
        assert_eq!(
            AmountResolution::Maximum
                .round(Currency::MTL, v)
                .to_string(),
            "1234600000"
        );
    }

    #[test]
    fn high_aliases_maximum_exponent() {
        assert_eq!(
            AmountResolution::High.exponent(Currency::USD),
            AmountResolution::Maximum.exponent(Currency::USD)
        );
    }

    #[test]
    fn time_ladder_coarsens_progressively() {
        let t = RippleTime::from_ymd_hms(2015, 8, 24, 15, 41, 3);
        assert_eq!(TimeResolution::Seconds.coarsen(t), t);
        assert_eq!(
            TimeResolution::Minutes.coarsen(t).to_string(),
            "2015-08-24 15:41:00"
        );
        assert_eq!(
            TimeResolution::Hours.coarsen(t).to_string(),
            "2015-08-24 15:00:00"
        );
        assert_eq!(
            TimeResolution::Days.coarsen(t).to_string(),
            "2015-08-24 00:00:00"
        );
    }
}
