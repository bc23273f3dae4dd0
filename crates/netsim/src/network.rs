//! The link model: per-link latency, loss, partitions and crashes, and the
//! fault plan that changes them as virtual time passes.
//!
//! A message's fate is drawn when it is sent ([`Network::send`]): dropped
//! there, or given an arrival time. With a plan installed, the link is
//! checked again at that arrival time ([`Network::arrives`]), so a message
//! in flight when an endpoint crashes or its link is cut is dropped at the
//! receiver. Neither step keeps the message: the caller holds what is in
//! flight and decides when to ask.

use std::collections::{HashMap, HashSet};

use rand::Rng;
use ripple_obs::LazyCounter;

use crate::faults::{FaultEvent, FaultPlan};
use crate::latency::LatencyModel;
use crate::sim::SimTime;

static FATE_DELIVERED: LazyCounter = LazyCounter::new("netsim.fate.delivered");
static FATE_LOST: LazyCounter = LazyCounter::new("netsim.fate.lost");
static FATE_PARTITIONED: LazyCounter = LazyCounter::new("netsim.fate.partitioned");
static FATE_SENDER_CRASHED: LazyCounter = LazyCounter::new("netsim.fate.sender_crashed");
static FATE_RECEIVER_CRASHED: LazyCounter = LazyCounter::new("netsim.fate.receiver_crashed");
static IN_FLIGHT_DROPPED: LazyCounter = LazyCounter::new("netsim.in_flight_dropped");

/// Identifier of a simulated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// The fate decided for a single message at send time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeliveryFate {
    /// On its way; arrives after `latency`.
    Delivered {
        /// Sampled one-way latency, fault modifiers included.
        latency: SimTime,
    },
    /// Dropped: the sender is crashed.
    SenderCrashed,
    /// Dropped: the receiver is crashed.
    ReceiverCrashed,
    /// Dropped: the link is partitioned.
    Partitioned,
    /// Dropped: probabilistic loss on the link.
    Lost,
}

/// Which nodes are down and which directed links are cut.
#[derive(Debug, Clone, Default)]
struct Cuts {
    crashed: HashSet<NodeId>,
    partitioned: HashSet<(NodeId, NodeId)>,
}

impl Cuts {
    /// Applies one discrete fault event; window and permanent events are
    /// queried per message instead.
    fn apply(&mut self, event: &FaultEvent) {
        match event {
            FaultEvent::PartitionAt { left, right, .. } => self.cut(left, right),
            FaultEvent::HealAt { .. } => self.partitioned.clear(),
            FaultEvent::CrashAt { node, .. } => {
                self.crashed.insert(*node);
            }
            FaultEvent::RestartAt { node, .. } => {
                self.crashed.remove(node);
            }
            FaultEvent::LossBurst { .. }
            | FaultEvent::DelaySpike { .. }
            | FaultEvent::ClockSkew { .. } => {}
        }
    }

    /// Cuts every link between `left` and `right`, both directions.
    fn cut(&mut self, left: &[NodeId], right: &[NodeId]) {
        for &a in left {
            for &b in right {
                self.partitioned.insert((a, b));
                self.partitioned.insert((b, a));
            }
        }
    }

    /// Whether traffic from `from` to `to` is blocked.
    fn blocks(&self, from: NodeId, to: NodeId) -> bool {
        self.crashed.contains(&from)
            || self.crashed.contains(&to)
            || self.partitioned.contains(&(from, to))
    }
}

/// The links of a simulated network of `n` nodes.
///
/// Link latency can be tuned per pair, partitions silently discard traffic
/// between separated groups, and an installed [`FaultPlan`] crashes,
/// restarts, cuts and heals on a virtual-time schedule, and adds loss and
/// latency over its windows.
#[derive(Debug)]
pub struct Network {
    node_count: usize,
    now: SimTime,
    default_latency: LatencyModel,
    link_latency: HashMap<(NodeId, NodeId), LatencyModel>,
    cuts: Cuts,
    plan: Option<FaultPlan>,
    sent: u64,
    dropped: u64,
}

impl Network {
    /// Creates a network of `node_count` fully connected nodes with default
    /// latency and no loss.
    pub fn new(node_count: usize) -> Network {
        Network {
            node_count,
            now: SimTime::ZERO,
            default_latency: LatencyModel::default(),
            link_latency: HashMap::new(),
            cuts: Cuts::default(),
            plan: None,
            sent: 0,
            dropped: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Messages sent so far (including dropped ones).
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Messages dropped by loss, partition or crash, at send time or in
    /// flight.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Sets the latency model used for links without an explicit override.
    pub fn set_default_latency(&mut self, model: LatencyModel) {
        self.default_latency = model;
    }

    /// Overrides the latency of the directed link `from -> to`.
    pub fn set_link_latency(&mut self, from: NodeId, to: NodeId, model: LatencyModel) {
        self.link_latency.insert((from, to), model);
    }

    /// Makes every link *from* `node` use `model` (models a slow node's
    /// uplink, like the paper's lagging validators).
    pub fn set_node_uplink_latency(&mut self, node: NodeId, model: LatencyModel) {
        for to in 0..self.node_count {
            if to != node.0 {
                self.link_latency.insert((node, NodeId(to)), model);
            }
        }
    }

    /// Severs communication between `a` and `b` in both directions.
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.cuts.cut(&[a], &[b]);
    }

    /// Splits the network into two groups with no traffic across.
    pub fn partition_groups(&mut self, left: &[NodeId], right: &[NodeId]) {
        self.cuts.cut(left, right);
    }

    /// Heals all partitions.
    pub fn heal(&mut self) {
        self.cuts.partitioned.clear();
    }

    /// Crashes a node: all traffic to and from it is dropped.
    pub fn crash(&mut self, node: NodeId) {
        self.cuts.crashed.insert(node);
    }

    /// Restarts a crashed node.
    pub fn restart(&mut self, node: NodeId) {
        self.cuts.crashed.remove(&node);
    }

    /// Whether a node is crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.cuts.crashed.contains(&node)
    }

    /// Installs a timed fault schedule. Its discrete events (partitions,
    /// heals, crashes, restarts) fire as virtual time reaches them; its
    /// window events modulate loss and latency while active. Installing a
    /// plan also enables the arrival-time check of [`Network::arrives`].
    pub fn install_plan(&mut self, plan: FaultPlan) {
        self.plan = Some(plan);
        self.apply_faults_until(self.now);
    }

    /// Fires every discrete fault event due at or before `now`.
    fn apply_faults_until(&mut self, now: SimTime) {
        let Some(plan) = self.plan.as_mut() else {
            return;
        };
        for event in plan.take_due(now) {
            self.cuts.apply(&event);
        }
    }

    /// Decides what happens to a message from `from` to `to` sent now:
    /// the single authority for crash, partition, and loss checks.
    ///
    /// The effective loss probability is the sum of the [`FaultPlan`]'s
    /// active bursts, clamped to `[0, 1]`, and is drawn only when above 0;
    /// the latency is the link model's sample plus any active delay spike
    /// and the sender's clock skew.
    pub fn delivery_fate<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        to: NodeId,
        rng: &mut R,
    ) -> DeliveryFate {
        if self.cuts.crashed.contains(&from) {
            return DeliveryFate::SenderCrashed;
        }
        if self.cuts.crashed.contains(&to) {
            return DeliveryFate::ReceiverCrashed;
        }
        if self.cuts.partitioned.contains(&(from, to)) {
            return DeliveryFate::Partitioned;
        }
        let now = self.now;
        let loss = self
            .plan
            .as_ref()
            .map_or(0.0, |p| p.extra_loss(now))
            .clamp(0.0, 1.0);
        if loss > 0.0 && rng.gen_bool(loss) {
            return DeliveryFate::Lost;
        }
        let latency = self
            .link_latency
            .get(&(from, to))
            .unwrap_or(&self.default_latency)
            .sample(rng);
        let extra = self
            .plan
            .as_ref()
            .map_or(SimTime::ZERO, |p| p.extra_delay(now, from));
        DeliveryFate::Delivered {
            latency: latency + extra,
        }
    }

    /// Sends a message from `from` to `to` now, drawing its fate with
    /// `rng`: its arrival time, or `None` if it was dropped.
    pub fn send<R: Rng + ?Sized>(
        &mut self,
        from: NodeId,
        to: NodeId,
        rng: &mut R,
    ) -> Option<SimTime> {
        self.sent += 1;
        let fate = self.delivery_fate(from, to, rng);
        match fate {
            DeliveryFate::Delivered { .. } => FATE_DELIVERED.add(1),
            DeliveryFate::Lost => FATE_LOST.add(1),
            DeliveryFate::Partitioned => FATE_PARTITIONED.add(1),
            DeliveryFate::SenderCrashed => FATE_SENDER_CRASHED.add(1),
            DeliveryFate::ReceiverCrashed => FATE_RECEIVER_CRASHED.add(1),
        }
        match fate {
            DeliveryFate::Delivered { latency } => Some(self.now + latency),
            _ => {
                self.dropped += 1;
                None
            }
        }
    }

    /// Whether a message from `from` to `to` that lands at `at` (no earlier
    /// than now) is handed over. With a [`FaultPlan`] installed, one whose
    /// endpoint is crashed or whose link is cut at `at` — the plan's events
    /// due by then included — is dropped in flight and counted; without a
    /// plan every message arrives. Nothing fires: the clock and the fault
    /// state stay where [`Network::advance_to`] left them, so messages may
    /// be asked about in any order.
    pub fn arrives(&mut self, from: NodeId, to: NodeId, at: SimTime) -> bool {
        let Some(plan) = &self.plan else {
            return true;
        };
        let mut due = plan.due_by(at).peekable();
        let blocked = if due.peek().is_none() {
            self.cuts.blocks(from, to)
        } else {
            let mut cuts = self.cuts.clone();
            due.for_each(|event| cuts.apply(event));
            cuts.blocks(from, to)
        };
        if blocked {
            self.dropped += 1;
            IN_FLIGHT_DROPPED.add(1);
        }
        !blocked
    }

    /// Advances the clock to `t`, firing any fault events due on the way.
    /// Never moves backwards.
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
        self.apply_faults_until(self.now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    type Rng = rand::rngs::StdRng;

    fn rng() -> Rng {
        Rng::seed_from_u64(42)
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    #[test]
    fn partition_blocks_both_directions() {
        let mut rng = rng();
        let mut net = Network::new(2);
        net.partition(NodeId(0), NodeId(1));
        assert!(net.send(NodeId(0), NodeId(1), &mut rng).is_none());
        assert!(net.send(NodeId(1), NodeId(0), &mut rng).is_none());
        net.heal();
        assert!(net.send(NodeId(0), NodeId(1), &mut rng).is_some());
        assert_eq!((net.sent(), net.dropped()), (3, 2));
    }

    #[test]
    fn group_partition_blocks_cross_traffic_only() {
        let mut rng = rng();
        let mut net = Network::new(4);
        net.partition_groups(&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
        assert!(net.send(NodeId(0), NodeId(1), &mut rng).is_some());
        assert!(net.send(NodeId(0), NodeId(2), &mut rng).is_none());
        assert!(net.send(NodeId(3), NodeId(1), &mut rng).is_none());
    }

    #[test]
    fn crashed_node_is_silent() {
        let mut rng = rng();
        let mut net = Network::new(2);
        net.crash(NodeId(1));
        assert!(net.send(NodeId(0), NodeId(1), &mut rng).is_none());
        assert!(net.send(NodeId(1), NodeId(0), &mut rng).is_none());
        net.restart(NodeId(1));
        assert!(net.send(NodeId(0), NodeId(1), &mut rng).is_some());
    }

    #[test]
    fn lossy_link_drops_roughly_half() {
        let mut rng = rng();
        let mut net = Network::new(2);
        net.install_plan(FaultPlan::new().loss_burst(SimTime::ZERO, ms(10), 0.5));
        let delivered = (0..1_000)
            .filter(|_| net.send(NodeId(0), NodeId(1), &mut rng).is_some())
            .count();
        assert!((400..600).contains(&delivered), "delivered = {delivered}");
        // Past the burst, nothing is lost.
        net.advance_to(ms(10));
        assert!((0..100).all(|_| net.send(NodeId(0), NodeId(1), &mut rng).is_some()));
    }

    #[test]
    fn per_link_latency_override() {
        let mut rng = rng();
        let mut net = Network::new(3);
        net.set_default_latency(LatencyModel::Fixed(ms(10)));
        net.set_node_uplink_latency(NodeId(1), LatencyModel::Fixed(ms(500)));
        net.advance_to(ms(7));
        assert_eq!(net.send(NodeId(0), NodeId(2), &mut rng), Some(ms(17)));
        assert_eq!(net.send(NodeId(1), NodeId(2), &mut rng), Some(ms(507)));
        net.set_link_latency(NodeId(2), NodeId(0), LatencyModel::Fixed(ms(1)));
        assert_eq!(net.send(NodeId(2), NodeId(0), &mut rng), Some(ms(8)));
    }

    #[test]
    fn delivery_fate_names_the_cause() {
        let mut rng = rng();
        let mut net = Network::new(3);
        net.crash(NodeId(0));
        assert_eq!(
            net.delivery_fate(NodeId(0), NodeId(1), &mut rng),
            DeliveryFate::SenderCrashed
        );
        assert_eq!(
            net.delivery_fate(NodeId(1), NodeId(0), &mut rng),
            DeliveryFate::ReceiverCrashed
        );
        net.restart(NodeId(0));
        net.partition(NodeId(0), NodeId(1));
        assert_eq!(
            net.delivery_fate(NodeId(0), NodeId(1), &mut rng),
            DeliveryFate::Partitioned
        );
        // Crash takes precedence over partition.
        net.crash(NodeId(0));
        assert_eq!(
            net.delivery_fate(NodeId(0), NodeId(1), &mut rng),
            DeliveryFate::SenderCrashed
        );
        assert!(matches!(
            net.delivery_fate(NodeId(1), NodeId(2), &mut rng),
            DeliveryFate::Delivered { .. }
        ));
    }

    #[test]
    fn loss_burst_stacks_on_link_loss_and_clamps() {
        let mut rng = rng();
        let mut net = Network::new(2);
        // A lossy link is a standing burst; a second burst stacks on it, and
        // 0.6 + 0.9 clamps to 1.0 instead of panicking in `gen_bool`: every
        // send inside both bursts is lost.
        net.install_plan(
            FaultPlan::new()
                .loss_burst(SimTime::ZERO, SimTime::from_secs(10), 0.6)
                .loss_burst(SimTime::ZERO, SimTime::from_secs(10), 0.9),
        );
        for _ in 0..50 {
            assert_eq!(
                net.delivery_fate(NodeId(0), NodeId(1), &mut rng),
                DeliveryFate::Lost
            );
        }
    }

    #[test]
    fn loss_probabilities_clamp_and_compose() {
        let mut rng = rng();
        let mut net = Network::new(2);
        net.install_plan(
            FaultPlan::new()
                .loss_burst(SimTime::ZERO, ms(20), 0.6)
                .loss_burst(SimTime::ZERO, ms(10), 0.9),
        );
        let lost = |net: &Network, rng: &mut Rng| {
            (0..1_000)
                .filter(|_| net.delivery_fate(NodeId(0), NodeId(1), rng) == DeliveryFate::Lost)
                .count()
        };
        // Inside both bursts the clamped sum is 1.0.
        assert_eq!(lost(&net, &mut rng), 1_000);
        // Past the shorter burst, only the other's 0.6 is left.
        net.advance_to(ms(10));
        let left = lost(&net, &mut rng);
        assert!((500..700).contains(&left), "lost = {left}");
        // Past both, nothing is lost.
        net.advance_to(ms(20));
        assert_eq!(lost(&net, &mut rng), 0);
    }

    #[test]
    fn no_loss_draws_no_randomness() {
        // A link without loss samples only its latency model, so a fixed
        // latency leaves the RNG untouched.
        let mut net = Network::new(2);
        net.set_default_latency(LatencyModel::Fixed(ms(5)));
        net.install_plan(FaultPlan::new().loss_burst(ms(100), ms(200), 0.5));
        let mut used = rng();
        for _ in 0..10 {
            net.send(NodeId(0), NodeId(1), &mut used);
        }
        assert_eq!(used.next_u64(), rng().next_u64());
    }

    #[test]
    fn plan_crash_fires_when_time_reaches_it() {
        let mut rng = rng();
        let mut net = Network::new(2);
        net.set_default_latency(LatencyModel::Fixed(ms(10)));
        net.install_plan(
            FaultPlan::new()
                .crash_at(ms(50), NodeId(1))
                .restart_at(ms(100), NodeId(1)),
        );
        // Before the crash time, traffic flows.
        let at = net.send(NodeId(0), NodeId(1), &mut rng).expect("sent");
        assert!(net.arrives(NodeId(0), NodeId(1), at));
        // Move past the crash: sends to node 1 now fail.
        net.advance_to(ms(60));
        assert!(net.is_crashed(NodeId(1)));
        assert!(net.send(NodeId(0), NodeId(1), &mut rng).is_none());
        // Past the restart, the node is reachable again.
        net.advance_to(ms(100));
        assert!(!net.is_crashed(NodeId(1)));
        assert!(net.send(NodeId(0), NodeId(1), &mut rng).is_some());
    }

    #[test]
    fn in_flight_message_dropped_when_receiver_crashes_before_delivery() {
        let mut rng = rng();
        let mut net = Network::new(2);
        net.set_default_latency(LatencyModel::Fixed(ms(100)));
        net.install_plan(FaultPlan::new().crash_at(ms(50), NodeId(1)));
        // Sent at t=0 (arrives t=100), but node 1 dies at t=50.
        let at = net.send(NodeId(0), NodeId(1), &mut rng).expect("sent");
        assert_eq!(at, ms(100));
        assert!(!net.arrives(NodeId(0), NodeId(1), at), "dropped in flight");
        assert_eq!(net.dropped(), 1);
        // Asking fired nothing: the crash is still ahead of the clock.
        assert!(!net.is_crashed(NodeId(1)));
        assert_eq!(net.now(), SimTime::ZERO);
    }

    #[test]
    fn arrival_checks_read_the_plan_at_each_arrival_time_in_any_order() {
        let mut net = Network::new(3);
        net.install_plan(
            FaultPlan::new()
                .crash_at(ms(20), NodeId(2))
                .partition_at(ms(30), vec![NodeId(0)], vec![NodeId(1)])
                .restart_at(ms(40), NodeId(2))
                .heal_at(ms(50)),
        );
        // (from, to, arrival, handed over), asked out of time order.
        let cases = [
            (0, 1, 55, true),
            (0, 2, 25, false),
            (0, 1, 30, false),
            (1, 0, 45, false),
            (0, 2, 40, true),
            (2, 0, 19, true),
            (0, 1, 29, true),
            (1, 0, 50, true),
        ];
        for (from, to, at, expected) in cases {
            assert_eq!(
                net.arrives(NodeId(from), NodeId(to), ms(at)),
                expected,
                "{from} -> {to} at {at} ms"
            );
        }
        assert_eq!(net.dropped(), 3);
        // Without a plan there is no arrival check at all.
        let mut bare = Network::new(2);
        bare.crash(NodeId(1));
        assert!(bare.arrives(NodeId(0), NodeId(1), ms(5)));
        assert_eq!(bare.dropped(), 0);
    }

    #[test]
    fn delay_spike_slows_messages_inside_its_window() {
        let mut rng = rng();
        let mut net = Network::new(2);
        net.set_default_latency(LatencyModel::Fixed(ms(10)));
        net.install_plan(FaultPlan::new().delay_spike(SimTime::ZERO, ms(30), ms(500)));
        assert_eq!(net.send(NodeId(0), NodeId(1), &mut rng), Some(ms(510)));
        // Outside the window, latency returns to the base model.
        net.advance_to(ms(30));
        assert_eq!(net.send(NodeId(0), NodeId(1), &mut rng), Some(ms(40)));
    }

    #[test]
    fn clock_skew_delays_only_the_skewed_sender() {
        let mut rng = rng();
        let mut net = Network::new(3);
        net.set_default_latency(LatencyModel::Fixed(ms(10)));
        net.install_plan(FaultPlan::new().clock_skew(NodeId(0), ms(200)));
        assert_eq!(net.send(NodeId(0), NodeId(2), &mut rng), Some(ms(210)));
        assert_eq!(net.send(NodeId(1), NodeId(2), &mut rng), Some(ms(10)));
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = || {
            let mut rng = Rng::seed_from_u64(7);
            let mut net = Network::new(4);
            net.set_default_latency(LatencyModel::Jittered {
                base: ms(5),
                jitter: ms(20),
            });
            let mut arrivals = Vec::new();
            for i in 0..20 {
                let from = NodeId(i % 4);
                for to in (0..4).filter(|&to| to != from.0) {
                    arrivals.push(net.send(from, NodeId(to), &mut rng));
                }
            }
            arrivals
        };
        assert_eq!(run(), run());
    }
}
