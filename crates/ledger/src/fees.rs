//! Transaction fees and account reserves.
//!
//! "A small XRP fee is collected for each transaction submitted to the
//! system. The aim is to mitigate denial of service attacks. […] The fees
//! collected during transactions are not destined to other Ripple users, or
//! validators […]. They are destroyed after the corresponding transaction is
//! confirmed." (paper §III.A)

use crate::amount::Drops;
use serde::{Deserialize, Serialize};

/// The fee and reserve schedule enforced by [`crate::LedgerState`].
///
/// # Examples
///
/// ```
/// use ripple_ledger::FeeSchedule;
///
/// let fees = FeeSchedule::default();
/// assert_eq!(fees.base_fee.as_drops(), 10);
/// assert_eq!(fees.reserve_for(2).as_drops(), 30_000_000); // 20 + 2·5 XRP
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeeSchedule {
    /// Burned on every transaction.
    pub base_fee: Drops,
    /// Minimum balance every account must hold.
    pub base_reserve: Drops,
    /// Additional reserve per owned object (trust line or offer).
    pub owner_reserve: Drops,
}

impl FeeSchedule {
    /// The historical main-net schedule: 10 drops fee, 20 XRP base reserve,
    /// 5 XRP owner reserve.
    pub fn mainnet() -> FeeSchedule {
        FeeSchedule {
            base_fee: Drops::new(10),
            base_reserve: Drops::from_xrp(20),
            owner_reserve: Drops::from_xrp(5),
        }
    }

    /// The reserve required for an account owning `owned_objects` objects.
    pub fn reserve_for(&self, owned_objects: u32) -> Drops {
        Drops::new(
            self.base_reserve.as_drops() + self.owner_reserve.as_drops() * owned_objects as u64,
        )
    }
}

impl Default for FeeSchedule {
    fn default() -> Self {
        FeeSchedule::mainnet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mainnet_matches_historical_values() {
        let f = FeeSchedule::mainnet();
        assert_eq!(f.base_fee.as_drops(), 10);
        assert_eq!(f.base_reserve, Drops::from_xrp(20));
        assert_eq!(f.owner_reserve, Drops::from_xrp(5));
    }

    #[test]
    fn reserve_scales_with_owned_objects() {
        let f = FeeSchedule::mainnet();
        assert_eq!(f.reserve_for(0), Drops::from_xrp(20));
        assert_eq!(f.reserve_for(10), Drops::from_xrp(70));
    }

    #[test]
    fn zero_schedule_is_free() {
        let f = FeeSchedule {
            base_fee: Drops::ZERO,
            base_reserve: Drops::ZERO,
            owner_reserve: Drops::ZERO,
        };
        assert_eq!(f.reserve_for(100), Drops::ZERO);
    }
}
