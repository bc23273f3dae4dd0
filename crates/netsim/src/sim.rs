//! Virtual time.

/// Virtual time, in milliseconds since simulation start.
///
/// # Examples
///
/// ```
/// use ripple_netsim::SimTime;
///
/// let t = SimTime::from_millis(1_500);
/// assert_eq!(t + SimTime::from_millis(500), SimTime::from_secs(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds from milliseconds.
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms)
    }

    /// Builds from seconds.
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000)
    }

    /// The raw millisecond count.
    pub const fn as_millis(self) -> u64 {
        self.0
    }
}

impl std::ops::Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl std::ops::Sub for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{:03}s", self.0 / 1_000, self.0 % 1_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic() {
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
        assert_eq!(
            SimTime::from_millis(500) - SimTime::from_millis(700),
            SimTime::ZERO
        );
        assert_eq!(SimTime::from_millis(1_234).to_string(), "1.234s");
    }
}
