//! Timed, seed-deterministic fault schedules for chaos experiments.
//!
//! A [`FaultPlan`] is a declarative list of [`FaultEvent`]s: partitions
//! and crashes that fire at fixed virtual times, loss bursts and delay
//! spikes that hold over a window, and permanent per-node clock skew.
//! Installed into a [`Network`](crate::Network) via
//! [`install_plan`](crate::Network::install_plan), the plan is consulted
//! per message: at send time for its windows and the link's state, and
//! again at the message's arrival time for the crashes and cuts due by
//! then. The same plan over the same seed replays the exact same fault
//! trajectory, so chaos runs are fully reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::network::NodeId;
use crate::sim::SimTime;

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// At `at`, sever all traffic between the `left` and `right` groups.
    PartitionAt {
        /// Fire time.
        at: SimTime,
        /// One side of the cut.
        left: Vec<NodeId>,
        /// The other side of the cut.
        right: Vec<NodeId>,
    },
    /// At `at`, heal every partition currently in force.
    HealAt {
        /// Fire time.
        at: SimTime,
    },
    /// At `at`, crash `node` (all its traffic is dropped).
    CrashAt {
        /// Fire time.
        at: SimTime,
        /// The node to take down.
        node: NodeId,
    },
    /// At `at`, restart a crashed `node`.
    RestartAt {
        /// Fire time.
        at: SimTime,
        /// The node to bring back.
        node: NodeId,
    },
    /// Over `[from, until)`, add `loss` to every link's drop probability
    /// (the effective probability is clamped to `[0, 1]`).
    LossBurst {
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Additional loss probability.
        loss: f64,
    },
    /// Over `[from, until)`, add `extra` latency to every message.
    DelaySpike {
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Additional one-way latency.
        extra: SimTime,
    },
    /// Permanently delay every message *sent by* `node` by `offset`,
    /// modelling a validator whose clock lags the network.
    ClockSkew {
        /// The skewed node.
        node: NodeId,
        /// How far its messages lag.
        offset: SimTime,
    },
}

impl FaultEvent {
    /// The fire time of a discrete event (`None` for window/permanent
    /// events, which have no single instant).
    fn fire_at(&self) -> Option<SimTime> {
        match self {
            FaultEvent::PartitionAt { at, .. }
            | FaultEvent::HealAt { at }
            | FaultEvent::CrashAt { at, .. }
            | FaultEvent::RestartAt { at, .. } => Some(*at),
            FaultEvent::LossBurst { .. }
            | FaultEvent::DelaySpike { .. }
            | FaultEvent::ClockSkew { .. } => None,
        }
    }

    /// The time at which this event stops disturbing the network
    /// (`None` for events whose effect is permanent unless countered).
    fn clears_at(&self) -> Option<SimTime> {
        match self {
            FaultEvent::PartitionAt { at, .. } | FaultEvent::CrashAt { at, .. } => Some(*at),
            FaultEvent::HealAt { at } | FaultEvent::RestartAt { at, .. } => Some(*at),
            FaultEvent::LossBurst { until, .. } | FaultEvent::DelaySpike { until, .. } => {
                Some(*until)
            }
            FaultEvent::ClockSkew { .. } => None,
        }
    }
}

/// A deterministic, time-ordered schedule of faults.
///
/// Built with the fluent `*_at` methods (or [`FaultPlan::randomized`] for
/// a seed-derived schedule) and installed into a network. Discrete events
/// fire once when virtual time first reaches them; window events apply to
/// every message whose send falls inside their span.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    /// Indices of discrete events, sorted by fire time (stable in
    /// insertion order for ties).
    discrete: Vec<usize>,
    /// How many discrete events have already fired.
    cursor: usize,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    fn push(mut self, event: FaultEvent) -> FaultPlan {
        self.events.push(event);
        self.discrete = (0..self.events.len())
            .filter(|&i| self.events[i].fire_at().is_some())
            .collect();
        self.discrete
            .sort_by_key(|&i| self.events[i].fire_at().expect("filtered to discrete"));
        self
    }

    /// Rebuilds a plan from a list of events (e.g. a subset of
    /// [`FaultPlan::events`] kept while shrinking a failing schedule).
    /// Events are taken as-is — the builder-method argument checks are
    /// not re-run, so only feed this events that came from a valid plan.
    pub fn from_events(events: Vec<FaultEvent>) -> FaultPlan {
        let mut discrete: Vec<usize> = (0..events.len())
            .filter(|&i| events[i].fire_at().is_some())
            .collect();
        discrete.sort_by_key(|&i| events[i].fire_at().expect("filtered to discrete"));
        FaultPlan {
            events,
            discrete,
            cursor: 0,
        }
    }

    /// Schedules a two-group partition at `at`.
    #[must_use]
    pub fn partition_at(self, at: SimTime, left: Vec<NodeId>, right: Vec<NodeId>) -> FaultPlan {
        self.push(FaultEvent::PartitionAt { at, left, right })
    }

    /// Schedules a full heal at `at`.
    #[must_use]
    pub fn heal_at(self, at: SimTime) -> FaultPlan {
        self.push(FaultEvent::HealAt { at })
    }

    /// Schedules a crash of `node` at `at`.
    #[must_use]
    pub fn crash_at(self, at: SimTime, node: NodeId) -> FaultPlan {
        self.push(FaultEvent::CrashAt { at, node })
    }

    /// Schedules a restart of `node` at `at`.
    #[must_use]
    pub fn restart_at(self, at: SimTime, node: NodeId) -> FaultPlan {
        self.push(FaultEvent::RestartAt { at, node })
    }

    /// Adds `loss` extra drop probability over `[from, until)`.
    #[must_use]
    pub fn loss_burst(self, from: SimTime, until: SimTime, loss: f64) -> FaultPlan {
        assert!(from < until, "empty loss-burst window");
        assert!((0.0..=1.0).contains(&loss), "loss must be in [0, 1]");
        self.push(FaultEvent::LossBurst { from, until, loss })
    }

    /// Adds `extra` latency to every message over `[from, until)`.
    #[must_use]
    pub fn delay_spike(self, from: SimTime, until: SimTime, extra: SimTime) -> FaultPlan {
        assert!(from < until, "empty delay-spike window");
        self.push(FaultEvent::DelaySpike { from, until, extra })
    }

    /// Permanently skews `node`'s clock by `offset`.
    #[must_use]
    pub fn clock_skew(self, node: NodeId, offset: SimTime) -> FaultPlan {
        self.push(FaultEvent::ClockSkew { node, offset })
    }

    /// A seed-deterministic random plan over `node_count` nodes and a
    /// `horizon` of virtual time: one partition-and-heal, one
    /// crash-and-restart, and one loss burst, all at seed-derived times.
    /// The same arguments always produce the same plan.
    pub fn randomized(seed: u64, node_count: usize, horizon: SimTime) -> FaultPlan {
        assert!(node_count >= 2, "need at least two nodes to disturb");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa_17_5c_4e_d0_1e_u64);
        let ms = horizon.as_millis().max(10);
        // A time drawn uniformly from tenths `lo..hi` of the horizon.
        fn tenth(rng: &mut StdRng, ms: u64, lo: u64, hi: u64) -> SimTime {
            SimTime::from_millis(rng.gen_range(ms * lo / 10..ms * hi / 10))
        }

        let cut = 1 + rng.gen_range(0..node_count - 1);
        let left: Vec<NodeId> = (0..cut).map(NodeId).collect();
        let right: Vec<NodeId> = (cut..node_count).map(NodeId).collect();
        let part_at = tenth(&mut rng, ms, 0, 3);
        let heal_at = tenth(&mut rng, ms, 4, 6);

        let victim = NodeId(rng.gen_range(0..node_count));
        let crash_at = tenth(&mut rng, ms, 0, 4);
        let restart_at = tenth(&mut rng, ms, 5, 7);

        // `8·ms/10` separates the two draws, so from < until always holds.
        let burst_from = tenth(&mut rng, ms, 6, 8);
        let burst_until = tenth(&mut rng, ms, 8, 10);
        let loss = rng.gen_range(0.2..0.8);

        FaultPlan::new()
            .partition_at(part_at, left, right)
            .heal_at(heal_at)
            .crash_at(crash_at, victim)
            .restart_at(restart_at, victim)
            .loss_burst(burst_from, burst_until, loss)
    }

    /// All events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan holds no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The last instant at which the plan still disturbs the network: the
    /// max over discrete fire times and window ends. Permanent clock skew
    /// is ignored (it never clears). `SimTime::ZERO` for an empty plan.
    pub fn settles_at(&self) -> SimTime {
        self.events
            .iter()
            .filter_map(FaultEvent::clears_at)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Drains (clones of) the discrete events due at or before `now`,
    /// advancing the internal cursor so each fires exactly once.
    pub fn take_due(&mut self, now: SimTime) -> Vec<FaultEvent> {
        let due: Vec<FaultEvent> = self.due_by(now).cloned().collect();
        self.cursor += due.len();
        due
    }

    /// The discrete events not fired yet that are due at or before `t`, in
    /// firing order, without firing them.
    pub(crate) fn due_by(&self, t: SimTime) -> impl Iterator<Item = &FaultEvent> {
        self.discrete[self.cursor..]
            .iter()
            .map(|&idx| &self.events[idx])
            .take_while(move |event| event.fire_at().is_some_and(|at| at <= t))
    }

    /// Total extra loss probability from bursts active at `now`
    /// (uncapped; the network clamps the effective probability).
    pub fn extra_loss(&self, now: SimTime) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::LossBurst { from, until, loss } if *from <= now && now < *until => {
                    Some(*loss)
                }
                _ => None,
            })
            .sum()
    }

    /// Total extra latency for a message sent by `sender` at `now`:
    /// active delay spikes plus the sender's permanent clock skew.
    pub fn extra_delay(&self, now: SimTime, sender: NodeId) -> SimTime {
        let mut extra = SimTime::ZERO;
        for event in &self.events {
            match event {
                FaultEvent::DelaySpike {
                    from,
                    until,
                    extra: e,
                } if *from <= now && now < *until => {
                    extra = extra + *e;
                }
                FaultEvent::ClockSkew { node, offset } if *node == sender => {
                    extra = extra + *offset;
                }
                _ => {}
            }
        }
        extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultPlan {
        /// Resets the fired-event cursor so the plan can be replayed.
        fn rewind(&mut self) {
            self.cursor = 0;
        }
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    #[test]
    fn take_due_fires_each_event_once_in_time_order() {
        let mut plan = FaultPlan::new()
            .heal_at(ms(300))
            .crash_at(ms(100), NodeId(1))
            .partition_at(ms(200), vec![NodeId(0)], vec![NodeId(1)]);
        assert!(plan.take_due(ms(50)).is_empty());
        let due = plan.take_due(ms(250));
        assert_eq!(due.len(), 2);
        assert!(matches!(due[0], FaultEvent::CrashAt { .. }));
        assert!(matches!(due[1], FaultEvent::PartitionAt { .. }));
        // Already-fired events never repeat.
        assert!(plan.take_due(ms(250)).is_empty());
        let due = plan.take_due(ms(1_000));
        assert_eq!(due.len(), 1);
        assert!(matches!(due[0], FaultEvent::HealAt { .. }));
    }

    #[test]
    fn window_queries_respect_half_open_spans() {
        let plan = FaultPlan::new()
            .loss_burst(ms(100), ms(200), 0.4)
            .delay_spike(ms(150), ms(250), ms(30));
        assert_eq!(plan.extra_loss(ms(99)), 0.0);
        assert_eq!(plan.extra_loss(ms(100)), 0.4);
        assert_eq!(plan.extra_loss(ms(199)), 0.4);
        assert_eq!(plan.extra_loss(ms(200)), 0.0);
        assert_eq!(plan.extra_delay(ms(149), NodeId(0)), SimTime::ZERO);
        assert_eq!(plan.extra_delay(ms(150), NodeId(0)), ms(30));
        assert_eq!(plan.extra_delay(ms(250), NodeId(0)), SimTime::ZERO);
    }

    #[test]
    fn overlapping_bursts_sum() {
        let plan =
            FaultPlan::new()
                .loss_burst(ms(0), ms(100), 0.5)
                .loss_burst(ms(50), ms(150), 0.7);
        assert_eq!(plan.extra_loss(ms(60)), 1.2, "sums are uncapped here");
    }

    #[test]
    fn clock_skew_applies_only_to_its_node_at_all_times() {
        let plan = FaultPlan::new().clock_skew(NodeId(2), ms(80));
        assert_eq!(plan.extra_delay(ms(0), NodeId(2)), ms(80));
        assert_eq!(plan.extra_delay(ms(99_999), NodeId(2)), ms(80));
        assert_eq!(plan.extra_delay(ms(0), NodeId(1)), SimTime::ZERO);
    }

    #[test]
    fn settles_at_is_the_last_disturbance() {
        let plan = FaultPlan::new()
            .crash_at(ms(100), NodeId(0))
            .restart_at(ms(400), NodeId(0))
            .loss_burst(ms(200), ms(600), 0.3);
        assert_eq!(plan.settles_at(), ms(600));
        assert_eq!(FaultPlan::new().settles_at(), SimTime::ZERO);
    }

    #[test]
    fn randomized_plans_are_seed_deterministic() {
        let a = FaultPlan::randomized(11, 5, SimTime::from_secs(30));
        let b = FaultPlan::randomized(11, 5, SimTime::from_secs(30));
        let c = FaultPlan::randomized(12, 5, SimTime::from_secs(30));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
    }

    #[test]
    fn rewind_replays_discrete_events() {
        let mut plan = FaultPlan::new().crash_at(ms(10), NodeId(0));
        assert_eq!(plan.take_due(ms(20)).len(), 1);
        assert!(plan.take_due(ms(20)).is_empty());
        plan.rewind();
        assert_eq!(plan.take_due(ms(20)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "empty loss-burst window")]
    fn loss_burst_rejects_empty_window() {
        let _ = FaultPlan::new().loss_burst(ms(10), ms(10), 0.5);
    }
}
