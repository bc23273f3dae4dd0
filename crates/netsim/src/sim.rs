//! The discrete-event core: a virtual clock and a time-ordered event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// A deterministic discrete-event simulation over events of type `E`.
///
/// Events scheduled for the same instant are delivered in scheduling order.
///
/// # Examples
///
/// ```
/// use ripple_netsim::{SimTime, Simulation};
///
/// let mut sim: Simulation<&str> = Simulation::new();
/// sim.schedule(SimTime::from_millis(10), "b");
/// sim.schedule(SimTime::from_millis(5), "a");
/// assert_eq!(sim.step(), Some((SimTime::from_millis(5), "a")));
/// assert_eq!(sim.step(), Some((SimTime::from_millis(10), "b")));
/// assert_eq!(sim.step(), None);
/// ```
#[derive(Debug)]
pub struct Simulation<E> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Entry<E>>>,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Simulation<E> {
        Simulation {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
        }
    }

    /// The current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to `now` (the event fires
    /// immediately but never rewinds the clock).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Entry { at, seq, event }));
    }

    /// Schedules `event` after a relative `delay`.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// The clock never rewinds: if [`Simulation::advance_to`] moved `now`
    /// past a pending event, that event still pops but `now` stays put.
    pub fn step(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.queue.pop()?;
        self.now = self.now.max(entry.at);
        Some((entry.at, entry.event))
    }

    /// Pops the next event only if it fires at or before `deadline`.
    pub fn step_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.queue.peek() {
            Some(Reverse(entry)) if entry.at <= deadline => self.step(),
            _ => None,
        }
    }

    /// Advances the clock to `t` without delivering anything (idle time).
    /// Moving backwards is a no-op: the clock is monotone.
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_millis(30), 3);
        sim.schedule(SimTime::from_millis(10), 1);
        sim.schedule(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| sim.step().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut sim = Simulation::new();
        for i in 0..10 {
            sim.schedule(SimTime::from_millis(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| sim.step().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_millis(10), ());
        sim.schedule(SimTime::from_millis(20), ());
        sim.step();
        assert_eq!(sim.now(), SimTime::from_millis(10));
        // Scheduling in the past clamps to now.
        sim.schedule(SimTime::from_millis(1), ());
        let (at, _) = sim.step().unwrap();
        assert_eq!(at, SimTime::from_millis(10));
    }

    #[test]
    fn step_until_respects_deadline() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_millis(100), ());
        assert!(sim.step_until(SimTime::from_millis(50)).is_none());
        assert!(sim.step_until(SimTime::from_millis(100)).is_some());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_millis(10), "first");
        sim.step();
        sim.schedule_in(SimTime::from_millis(5), "second");
        let (at, _) = sim.step().unwrap();
        assert_eq!(at, SimTime::from_millis(15));
    }

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
