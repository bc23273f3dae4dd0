//! Amount arithmetic.
//!
//! The ledger tracks two kinds of value:
//!
//! * [`Drops`] — the native XRP, counted in integer drops (1 XRP = 10⁶
//!   drops). XRP "is the only currency that cannot be owed to other users —
//!   it is effectively transferred from balance to balance" (paper §III.B).
//! * [`Value`] — a signed fixed-point decimal with six fractional digits,
//!   matching the 10⁻⁶ precision the paper reports for ledger amounts
//!   (§V.A). IOU balances, trust limits and offer amounts all use it.
//!
//! [`Value`] deliberately avoids floating point: every analysis in the study
//! (fingerprint rounding above all) must be exact and reproducible.

use serde::{Deserialize, Serialize};

use crate::currency::Currency;
use ripple_crypto::AccountId;

/// Fractional digits carried by [`Value`].
pub const VALUE_SCALE_DIGITS: u32 = 6;
/// The scaling factor (10⁶).
pub const VALUE_SCALE: i128 = 1_000_000;

/// A signed fixed-point decimal with six fractional digits.
///
/// # Examples
///
/// ```
/// use ripple_ledger::Value;
///
/// let price: Value = "4.5".parse()?;
/// assert_eq!(price.to_string(), "4.5");
/// assert_eq!((price + price).to_string(), "9");
/// # Ok::<(), ripple_ledger::ValueParseError>(())
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Value(i128);

impl Value {
    /// Zero.
    pub const ZERO: Value = Value(0);
    /// One.
    pub const ONE: Value = Value(VALUE_SCALE);

    /// Builds a value from raw scaled units (micro-units).
    pub const fn from_raw(raw: i128) -> Value {
        Value(raw)
    }

    /// Builds a value from an integer count of whole units.
    pub const fn from_int(units: i64) -> Value {
        Value(units as i128 * VALUE_SCALE)
    }

    /// Returns the raw scaled representation (micro-units).
    pub const fn raw(self) -> i128 {
        self.0
    }

    /// Whether the value is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Whether the value is strictly positive.
    pub fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Whether the value is strictly negative.
    pub fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Absolute value (saturating: `|i128::MIN|` clamps to `i128::MAX`).
    pub fn abs(self) -> Value {
        Value(self.0.checked_abs().unwrap_or(i128::MAX))
    }

    /// Multiplies by the rational `num/den`, rounding toward zero.
    ///
    /// This is how exchange rates are applied: rates are kept as integer
    /// ratios so the arithmetic stays exact and deterministic.
    ///
    /// The product is computed as `(a/d)·n + ((a mod d)·n)/d`, which equals
    /// the full-width `a·n/d` under truncation toward zero but keeps the
    /// intermediate terms a factor of `den` smaller; inputs extreme enough
    /// to overflow even the decomposed form saturate instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn mul_ratio(self, num: u64, den: u64) -> Value {
        assert!(den != 0, "rate denominator must be non-zero");
        let (n, d) = (num as i128, den as i128);
        let whole = self.0 / d;
        let rem = self.0 % d;
        // `rem·n` cannot overflow (|rem| < den ≤ 2⁶⁴, n ≤ 2⁶⁴ ⇒ < 2¹²⁸ signed
        // range only when den is near u64::MAX; saturate for that fringe too).
        let tail = rem.checked_mul(n).map(|t| t / d);
        match (whole.checked_mul(n), tail) {
            (Some(head), Some(tail)) => match head.checked_add(tail) {
                Some(exact) => Value(exact),
                None => Value::saturated(self.0 >= 0),
            },
            _ => Value::saturated(self.0 >= 0),
        }
    }

    /// The saturation endpoint with the given sign.
    fn saturated(positive: bool) -> Value {
        if positive {
            Value(i128::MAX)
        } else {
            Value(i128::MIN)
        }
    }

    /// Rounds to the nearest multiple of 10^`exp` (ties away from zero).
    ///
    /// This is the paper's Table I rounding primitive: "a given resolution
    /// level rounds the original value to the corresponding closest 10^x
    /// value", where x ranges from −3 (BTC at maximum resolution) to +7 (weak
    /// currencies at low resolution).
    ///
    /// `exp` below −6 returns the value unchanged (finer than the ledger's
    /// own precision).
    ///
    /// # Examples
    ///
    /// ```
    /// use ripple_ledger::Value;
    ///
    /// let v: Value = "1234.567891".parse().unwrap();
    /// assert_eq!(v.round_to_pow10(2).to_string(), "1200");
    /// assert_eq!(v.round_to_pow10(-2).to_string(), "1234.57");
    /// ```
    pub fn round_to_pow10(self, exp: i32) -> Value {
        let shift = exp + VALUE_SCALE_DIGITS as i32;
        if shift <= 0 {
            return self;
        }
        if shift > 38 {
            // 10³⁹ exceeds the i128 range, so |value| < half the rounding
            // step always: everything rounds to zero.
            return Value::ZERO;
        }
        let factor = 10i128.pow(shift as u32);
        let half = factor / 2;
        // Saturate the tie-break nudge at the raw endpoints instead of
        // overflowing; the quotient below shrinks it back into range.
        let adjusted = if self.0 >= 0 {
            self.0.saturating_add(half)
        } else {
            self.0.saturating_sub(half)
        };
        Value(adjusted / factor * factor)
    }

    /// Saturating conversion to `f64`, for reporting/statistics only (the
    /// ledger itself never computes on floats).
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / VALUE_SCALE as f64
    }

    /// Builds a value from an `f64`, rounding to the ledger precision. Meant
    /// for workload generators; ledger-critical code should parse decimal
    /// strings instead.
    pub fn from_f64(x: f64) -> Value {
        Value((x * VALUE_SCALE as f64).round() as i128)
    }
}

impl std::ops::Add for Value {
    type Output = Value;

    /// Saturating at the `i128` endpoints rather than panicking: ledger
    /// amounts live far below the raw range, so a saturated sum only ever
    /// arises from adversarial inputs — which must degrade, not abort.
    fn add(self, rhs: Value) -> Value {
        match self.0.checked_add(rhs.0) {
            Some(raw) => Value(raw),
            None => Value::saturated(self.0 >= 0),
        }
    }
}

impl std::ops::Sub for Value {
    type Output = Value;

    /// Saturating, mirroring `Add`.
    fn sub(self, rhs: Value) -> Value {
        match self.0.checked_sub(rhs.0) {
            Some(raw) => Value(raw),
            None => Value::saturated(self.0 >= 0),
        }
    }
}

impl std::ops::Neg for Value {
    type Output = Value;

    /// Saturating: `-i128::MIN` clamps to `i128::MAX`.
    fn neg(self) -> Value {
        Value(self.0.checked_neg().unwrap_or(i128::MAX))
    }
}

impl std::iter::Sum for Value {
    fn sum<I: Iterator<Item = Value>>(iter: I) -> Value {
        iter.fold(Value::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        let whole = abs / VALUE_SCALE as u128;
        let frac = abs % VALUE_SCALE as u128;
        if frac == 0 {
            write!(f, "{sign}{whole}")
        } else {
            let mut frac_str = format!("{frac:06}");
            while frac_str.ends_with('0') {
                frac_str.pop();
            }
            write!(f, "{sign}{whole}.{frac_str}")
        }
    }
}

/// Error parsing a [`Value`] from a decimal string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueParseError;

impl std::fmt::Display for ValueParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "expected a decimal number with at most {VALUE_SCALE_DIGITS} fractional digits"
        )
    }
}

impl std::error::Error for ValueParseError {}

impl std::str::FromStr for Value {
    type Err = ValueParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (sign, body) = match s.strip_prefix('-') {
            Some(rest) => (-1i128, rest),
            None => (1i128, s),
        };
        if body.is_empty() {
            return Err(ValueParseError);
        }
        let (whole_str, frac_str) = match body.split_once('.') {
            Some((w, fr)) => (w, fr),
            None => (body, ""),
        };
        if frac_str.len() > VALUE_SCALE_DIGITS as usize {
            return Err(ValueParseError);
        }
        if whole_str.is_empty() && frac_str.is_empty() {
            return Err(ValueParseError);
        }
        let digits = |t: &str| -> Result<i128, ValueParseError> {
            if t.is_empty() {
                return Ok(0);
            }
            if !t.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ValueParseError);
            }
            t.parse::<i128>().map_err(|_| ValueParseError)
        };
        let whole = digits(whole_str)?;
        let mut frac = digits(frac_str)?;
        for _ in frac_str.len()..VALUE_SCALE_DIGITS as usize {
            frac *= 10;
        }
        Ok(Value(sign * (whole * VALUE_SCALE + frac)))
    }
}

/// An integer count of XRP drops (1 XRP = 10⁶ drops).
///
/// # Examples
///
/// ```
/// use ripple_ledger::Drops;
///
/// let fee = Drops::new(10);
/// let stash = Drops::from_xrp(100);
/// assert_eq!(stash.checked_sub(fee).unwrap().as_drops(), 99_999_990);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Drops(u64);

impl Drops {
    /// Zero drops.
    pub const ZERO: Drops = Drops(0);

    /// Wraps a raw drop count.
    pub const fn new(drops: u64) -> Drops {
        Drops(drops)
    }

    /// Converts whole XRP into drops.
    pub const fn from_xrp(xrp: u64) -> Drops {
        Drops(xrp * 1_000_000)
    }

    /// Returns the raw drop count.
    pub const fn as_drops(self) -> u64 {
        self.0
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: Drops) -> Option<Drops> {
        self.0.checked_add(rhs.0).map(Drops)
    }

    /// Checked subtraction (fails on underflow — balances can't go negative).
    pub fn checked_sub(self, rhs: Drops) -> Option<Drops> {
        self.0.checked_sub(rhs.0).map(Drops)
    }

    /// The XRP amount as a [`Value`] (XRP units, not drops).
    pub fn to_value(self) -> Value {
        Value::from_raw(self.0 as i128)
    }
}

impl std::fmt::Display for Drops {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} XRP", self.to_value())
    }
}

impl std::iter::Sum for Drops {
    fn sum<I: Iterator<Item = Drops>>(iter: I) -> Drops {
        iter.fold(Drops::ZERO, |a, b| {
            a.checked_add(b).expect("drop sum overflow")
        })
    }
}

/// An issued (IOU) amount: value, currency, and the issuer whose debt it is.
///
/// The paper (§III.B): "for every user and every currency (except XRP) Ripple
/// keeps the balance of the debit with a record consisting of three fields:
/// amount, currency, and issuers".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IouAmount {
    /// How much.
    pub value: Value,
    /// In which currency.
    pub currency: Currency,
    /// Whose debt the holder carries.
    pub issuer: AccountId,
}

impl IouAmount {
    /// Convenience constructor.
    pub fn new(value: Value, currency: Currency, issuer: AccountId) -> IouAmount {
        IouAmount {
            value,
            currency,
            issuer,
        }
    }
}

impl std::fmt::Display for IouAmount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}/{}",
            self.value,
            self.currency,
            self.issuer.short()
        )
    }
}

/// Either native XRP or an issued amount.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Amount {
    /// Native XRP.
    Xrp(Drops),
    /// An issued (IOU) amount.
    Iou(IouAmount),
}

impl Amount {
    /// The currency of the amount (XRP for the native asset).
    pub fn currency(&self) -> Currency {
        match self {
            Amount::Xrp(_) => Currency::XRP,
            Amount::Iou(iou) => iou.currency,
        }
    }

    /// The numeric value, in XRP units for the native asset.
    pub fn value(&self) -> Value {
        match self {
            Amount::Xrp(d) => d.to_value(),
            Amount::Iou(iou) => iou.value,
        }
    }
}

impl std::fmt::Display for Amount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Amount::Xrp(d) => write!(f, "{d}"),
            Amount::Iou(iou) => write!(f, "{iou}"),
        }
    }
}

impl From<Drops> for Amount {
    fn from(d: Drops) -> Amount {
        Amount::Xrp(d)
    }
}

impl From<IouAmount> for Amount {
    fn from(iou: IouAmount) -> Amount {
        Amount::Iou(iou)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_display_round_trip_basics() {
        for s in ["0", "1", "4.5", "-4.5", "0.000001", "123456789.654321"] {
            let v: Value = s.parse().unwrap();
            assert_eq!(v.to_string(), s, "round-trip of {s}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in ["", "-", ".", "1.2.3", "1,5", "1.1234567", "abc"] {
            assert!(s.parse::<Value>().is_err(), "{s} should not parse");
        }
    }

    #[test]
    fn parse_pads_fraction() {
        let v: Value = "1.5".parse().unwrap();
        assert_eq!(v.raw(), 1_500_000);
    }

    #[test]
    fn rounding_matches_table1_semantics() {
        // EUR at maximum resolution rounds to the closest tens (10^1).
        let v: Value = "4.5".parse().unwrap();
        assert_eq!(v.round_to_pow10(1), Value::ZERO);
        let v: Value = "7".parse().unwrap();
        assert_eq!(v.round_to_pow10(1).to_string(), "10");
        // BTC at maximum resolution rounds to the closest thousandth (10^-3).
        assert!("0.0123456".parse::<Value>().is_err()); // beyond ledger precision
        let v: Value = "0.012345".parse().unwrap();
        assert_eq!(v.round_to_pow10(-3).to_string(), "0.012");
        // Weak currencies at low resolution round to the closest 10^7.
        let v: Value = "12345678".parse().unwrap();
        assert_eq!(v.round_to_pow10(7).to_string(), "10000000");
    }

    #[test]
    fn rounding_ties_away_from_zero() {
        let v: Value = "15".parse().unwrap();
        assert_eq!(v.round_to_pow10(1).to_string(), "20");
        let v: Value = "-15".parse().unwrap();
        assert_eq!(v.round_to_pow10(1).to_string(), "-20");
    }

    #[test]
    fn rounding_below_precision_is_identity() {
        let v: Value = "1.000001".parse().unwrap();
        assert_eq!(v.round_to_pow10(-7), v);
    }

    #[test]
    fn drops_conversions() {
        assert_eq!(Drops::from_xrp(1).as_drops(), 1_000_000);
        assert_eq!(Drops::from_xrp(2).to_value().to_string(), "2");
        assert_eq!(Drops::new(10).to_value().to_string(), "0.00001");
    }

    #[test]
    fn drops_subtraction_underflow_is_none() {
        assert!(Drops::new(5).checked_sub(Drops::new(6)).is_none());
    }

    #[test]
    fn mul_ratio_applies_exchange_rate() {
        let v: Value = "100".parse().unwrap();
        // 1 EUR = 1.08 USD expressed as 108/100.
        assert_eq!(v.mul_ratio(108, 100).to_string(), "108");
    }

    #[test]
    fn amount_accessors() {
        let iou = IouAmount::new("3".parse().unwrap(), Currency::USD, AccountId::ZERO);
        let a: Amount = iou.into();
        assert_eq!(a.currency(), Currency::USD);
        assert!(!a.currency().is_xrp());
        let x: Amount = Drops::from_xrp(3).into();
        assert_eq!(x.value(), "3".parse().unwrap());
        assert!(x.currency().is_xrp());
    }

    proptest! {
        #[test]
        fn value_display_parse_round_trip(raw in -1_000_000_000_000_000i128..1_000_000_000_000_000) {
            let v = Value::from_raw(raw);
            let parsed: Value = v.to_string().parse().unwrap();
            prop_assert_eq!(parsed, v);
        }

        #[test]
        fn rounding_idempotent(raw in -1_000_000_000_000i128..1_000_000_000_000, exp in -6i32..8) {
            let v = Value::from_raw(raw);
            let once = v.round_to_pow10(exp);
            prop_assert_eq!(once.round_to_pow10(exp), once);
        }

        #[test]
        fn rounding_error_bounded(raw in -1_000_000_000_000i128..1_000_000_000_000, exp in -6i32..8) {
            let v = Value::from_raw(raw);
            let rounded = v.round_to_pow10(exp);
            let bound = 10i128.pow((exp + 6).max(0) as u32);
            prop_assert!((rounded.raw() - v.raw()).abs() * 2 <= bound);
        }

        #[test]
        fn add_sub_inverse(a in -1i128<<100..1i128<<100, b in -1i128<<100..1i128<<100) {
            let (va, vb) = (Value::from_raw(a), Value::from_raw(b));
            prop_assert_eq!(va + vb - vb, va);
        }
    }
}
