//! Currency codes.
//!
//! Ripple currencies are three-character codes. Most map to ISO 4217, but —
//! as the paper's appendix highlights — the ledger happily carries arbitrary
//! codes like `CCK` and `MTL`, two of the most-traded "currencies" in its
//! first three years, which the authors attribute to denial-of-service spam.

use serde::{Deserialize, Serialize};

/// A three-character currency code, or the native XRP.
///
/// XRP is special-cased (as in the real ledger) because it is the only asset
/// that moves balance-to-balance rather than as an IOU.
///
/// # Examples
///
/// ```
/// use ripple_ledger::Currency;
///
/// assert!(Currency::XRP.is_xrp());
/// assert_eq!(Currency::code("USD").to_string(), "USD");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Currency([u8; 3]);

impl Currency {
    /// The native asset.
    pub const XRP: Currency = Currency(*b"XRP");
    /// US dollar.
    pub const USD: Currency = Currency(*b"USD");
    /// Euro.
    pub const EUR: Currency = Currency(*b"EUR");
    /// Bitcoin.
    pub const BTC: Currency = Currency(*b"BTC");
    /// Chinese yuan.
    pub const CNY: Currency = Currency(*b"CNY");
    /// Japanese yen.
    pub const JPY: Currency = Currency(*b"JPY");
    /// Pound sterling.
    pub const GBP: Currency = Currency(*b"GBP");
    /// Australian dollar.
    pub const AUD: Currency = Currency(*b"AUD");
    /// South-Korean won.
    pub const KRW: Currency = Currency(*b"KRW");
    /// Silver (ounce).
    pub const XAG: Currency = Currency(*b"XAG");
    /// Gold (ounce).
    pub const XAU: Currency = Currency(*b"XAU");
    /// Platinum (ounce).
    pub const XPT: Currency = Currency(*b"XPT");
    /// Stellar's lumen, traded on Ripple in the study period.
    pub const STR: Currency = Currency(*b"STR");
    /// Non-ISO code the paper flags as probable DoS spam (micro-payments).
    pub const CCK: Currency = Currency(*b"CCK");
    /// Non-ISO code the paper flags as DoS spam (8-hop, 6-path, ~1e9 amounts).
    pub const MTL: Currency = Currency(*b"MTL");

    /// Builds a currency from a three-character code.
    ///
    /// # Panics
    ///
    /// Panics if `code` is not exactly three ASCII characters. Use
    /// [`Currency::try_code`] for fallible construction.
    pub fn code(code: &str) -> Currency {
        Currency::try_code(code).expect("currency code must be 3 ASCII characters")
    }

    /// Fallible constructor from a three-character ASCII code.
    pub fn try_code(code: &str) -> Option<Currency> {
        let bytes = code.as_bytes();
        if bytes.len() != 3 || !bytes.iter().all(|b| b.is_ascii_alphanumeric()) {
            return None;
        }
        Some(Currency([bytes[0], bytes[1], bytes[2]]))
    }

    /// Returns the raw code bytes.
    pub const fn as_bytes(&self) -> &[u8; 3] {
        &self.0
    }

    /// Whether this is the native XRP asset.
    pub fn is_xrp(&self) -> bool {
        *self == Currency::XRP
    }
}

impl std::fmt::Display for Currency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Codes are validated ASCII at construction.
        f.write_str(std::str::from_utf8(&self.0).expect("ascii code"))
    }
}

impl std::str::FromStr for Currency {
    type Err = CurrencyParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Currency::try_code(s).ok_or(CurrencyParseError)
    }
}

/// Error parsing a currency code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CurrencyParseError;

impl std::fmt::Display for CurrencyParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "currency codes are exactly 3 ASCII alphanumerics")
    }
}

impl std::error::Error for CurrencyParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xrp_is_special() {
        assert!(Currency::XRP.is_xrp());
        assert!(!Currency::USD.is_xrp());
    }

    #[test]
    fn parse_and_display_round_trip() {
        let c: Currency = "DOG".parse().unwrap();
        assert_eq!(c.to_string(), "DOG");
    }

    #[test]
    fn rejects_bad_codes() {
        assert!(Currency::try_code("TOOLONG").is_none());
        assert!(Currency::try_code("ab").is_none());
        assert!(Currency::try_code("U$D").is_none());
    }

    #[test]
    fn ordering_is_stable() {
        assert!(Currency::BTC < Currency::USD);
    }
}
