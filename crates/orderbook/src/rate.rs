//! Exact rational exchange rates.

use ripple_ledger::Value;
use serde::{Deserialize, Serialize};

/// An exchange rate expressed as the exact rational `pays/gets`: how many
/// units of the *pays* currency one unit of the *gets* currency costs.
///
/// Lower is cheaper for the taker; books sort ascending.
///
/// # Examples
///
/// ```
/// use ripple_orderbook::Rate;
///
/// let cheap = Rate::new(108, 100); // 1.08
/// let pricey = Rate::new(11, 10);  // 1.10
/// assert!(cheap < pricey);
/// let paid = cheap.apply("50".parse().unwrap());
/// assert_eq!(paid.to_string(), "54");
/// ```
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Rate {
    num: u64,
    den: u64,
}

impl Rate {
    /// The identity rate (1:1).
    pub const UNIT: Rate = Rate { num: 1, den: 1 };

    /// Builds `num/den`.
    ///
    /// # Panics
    ///
    /// Panics if `den` or `num` is zero (offers always exchange something
    /// for something).
    pub fn new(num: u64, den: u64) -> Rate {
        assert!(num > 0 && den > 0, "rates must be positive");
        Rate { num, den }
    }

    /// Builds the rate implied by an offer: wants `pays` in exchange for
    /// `gets`. Returns `None` if either side is non-positive.
    pub fn from_amounts(pays: Value, gets: Value) -> Option<Rate> {
        if !pays.is_positive() || !gets.is_positive() {
            return None;
        }
        // Values are i128 micro-units; keep exactness via u64 clamp only
        // when safe, else reduce by gcd first.
        let (mut n, mut d) = (pays.raw() as u128, gets.raw() as u128);
        let g = gcd(n, d);
        n /= g;
        d /= g;
        if n > u64::MAX as u128 || d > u64::MAX as u128 {
            return None;
        }
        Some(Rate {
            num: n as u64,
            den: d as u64,
        })
    }

    /// The price the taker pays for `amount` of the gets-currency
    /// (rounded toward zero at ledger precision).
    pub fn apply(&self, amount: Value) -> Value {
        amount.mul_ratio(self.num, self.den)
    }

    /// Composes two legs (e.g. EUR→XRP then XRP→USD) into one effective
    /// rate, saturating on overflow by reducing first.
    pub fn compose(&self, other: &Rate) -> Rate {
        let n = self.num as u128 * other.num as u128;
        let d = self.den as u128 * other.den as u128;
        let g = gcd(n, d);
        let (n, d) = (n / g, d / g);
        if n > u64::MAX as u128 || d > u64::MAX as u128 {
            // Degrade gracefully to a float-derived approximation.
            let approx = (n as f64 / d as f64 * 1_000_000.0).round() as u64;
            return Rate::new(approx.max(1), 1_000_000);
        }
        Rate::new(n as u64, d as u64)
    }

    /// The rate as a float (reporting only).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

impl PartialEq for Rate {
    fn eq(&self, other: &Self) -> bool {
        self.num as u128 * other.den as u128 == other.num as u128 * self.den as u128
    }
}

impl Eq for Rate {}

impl PartialOrd for Rate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.num as u128 * other.den as u128).cmp(&(other.num as u128 * self.den as u128))
    }
}

impl std::fmt::Display for Rate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ordering_uses_cross_multiplication() {
        assert!(Rate::new(1, 3) < Rate::new(1, 2));
        assert_eq!(Rate::new(2, 4), Rate::new(1, 2));
        assert!(Rate::new(3, 2) > Rate::UNIT);
    }

    #[test]
    fn apply_and_invert_round_trip_exactly_for_clean_ratios() {
        let r = Rate::new(3, 2);
        let amount: Value = "10".parse().unwrap();
        let paid = r.apply(amount);
        assert_eq!(paid.to_string(), "15");
        assert_eq!(Rate::new(2, 3).apply(paid), amount, "the reciprocal rate");
    }

    #[test]
    fn from_amounts_reduces() {
        let r = Rate::from_amounts("110".parse().unwrap(), "100".parse().unwrap()).unwrap();
        assert_eq!(r, Rate::new(11, 10));
        assert!(Rate::from_amounts(Value::ZERO, "1".parse().unwrap()).is_none());
    }

    #[test]
    fn compose_chains_legs() {
        // EUR->XRP at 4 XRP/EUR, XRP->USD at 0.3 USD/XRP => 1.2 USD/EUR.
        let leg1 = Rate::new(4, 1);
        let leg2 = Rate::new(3, 10);
        assert_eq!(leg1.compose(&leg2), Rate::new(12, 10));
    }

    proptest! {
        #[test]
        fn compare_consistent_with_floats(a in 1u64..10_000, b in 1u64..10_000,
                                          c in 1u64..10_000, d in 1u64..10_000) {
            let (r1, r2) = (Rate::new(a, b), Rate::new(c, d));
            let float_cmp = (a as f64 / b as f64).partial_cmp(&(c as f64 / d as f64)).unwrap();
            // Floats can misjudge near-equality; only check strict cases.
            if (a as f64 / b as f64 - c as f64 / d as f64).abs() > 1e-9 {
                prop_assert_eq!(r1.cmp(&r2), float_cmp);
            }
        }

        #[test]
        fn apply_never_inflates_then_deflates(amount in 1i64..1_000_000, n in 1u64..1000, d in 1u64..1000) {
            let r = Rate::new(n, d);
            let v = Value::from_int(amount);
            let there = r.apply(v);
            let back = Rate::new(d, n).apply(there);
            // Round-trip loses at most one micro-unit per conversion.
            prop_assert!((back.raw() - v.raw()).abs() <= (d as i128));
        }
    }
}
