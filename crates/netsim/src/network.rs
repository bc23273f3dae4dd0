//! A message-passing overlay on top of the event engine: per-link latency,
//! loss, and partitions.

use std::collections::{HashMap, HashSet};

use rand::Rng;
use ripple_obs::LazyCounter;

use crate::faults::{FaultEvent, FaultPlan};
use crate::latency::LatencyModel;
use crate::sim::{SimTime, Simulation};

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

/// A message delivered to a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The payload.
    pub msg: M,
}

/// The fate decided for a single message at send time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeliveryFate {
    /// Enqueued; will arrive after `latency`.
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

impl DeliveryFate {
    /// Whether the message survives to be delivered.
    pub fn is_delivered(self) -> bool {
        matches!(self, DeliveryFate::Delivered { .. })
    }
}

/// A simulated network of `n` nodes.
///
/// Messages are routed through the internal [`Simulation`]; call
/// [`Network::step`] to advance to the next delivery. Link latency can be
/// tuned per pair, a lossy network drops messages probabilistically, and
/// partitions silently discard traffic between separated groups.
#[derive(Debug)]
pub struct Network<M> {
    node_count: usize,
    sim: Simulation<Delivery<M>>,
    default_latency: LatencyModel,
    link_latency: HashMap<(NodeId, NodeId), LatencyModel>,
    default_loss: f64,
    partitioned: HashSet<(NodeId, NodeId)>,
    crashed: HashSet<NodeId>,
    plan: Option<FaultPlan>,
    sent: u64,
    dropped: u64,
}

impl<M> Network<M> {
    /// Creates a network of `node_count` fully connected nodes with default
    /// latency and no loss.
    pub fn new(node_count: usize) -> Network<M> {
        Network {
            node_count,
            sim: Simulation::new(),
            default_latency: LatencyModel::default(),
            link_latency: HashMap::new(),
            default_loss: 0.0,
            partitioned: HashSet::new(),
            crashed: HashSet::new(),
            plan: None,
            sent: 0,
            dropped: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Messages sent so far (including dropped ones).
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Messages dropped by loss, partition or crash.
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

    /// Sets the default message-loss probability.
    pub fn set_default_loss(&mut self, p: f64) {
        self.default_loss = p.clamp(0.0, 1.0);
    }

    /// Severs communication between `a` and `b` in both directions.
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.partitioned.insert((a, b));
        self.partitioned.insert((b, a));
    }

    /// Splits the network into two groups with no traffic across.
    pub fn partition_groups(&mut self, left: &[NodeId], right: &[NodeId]) {
        for &a in left {
            for &b in right {
                self.partition(a, b);
            }
        }
    }

    /// Heals all partitions.
    pub fn heal(&mut self) {
        self.partitioned.clear();
    }

    /// Whether `a` and `b` are currently partitioned from each other.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.partitioned.contains(&(a, b))
    }

    /// Crashes a node: all traffic to and from it is dropped.
    pub fn crash(&mut self, node: NodeId) {
        self.crashed.insert(node);
    }

    /// Restarts a crashed node.
    pub fn restart(&mut self, node: NodeId) {
        self.crashed.remove(&node);
    }

    /// Whether a node is crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.contains(&node)
    }

    /// Installs a timed fault schedule. Its discrete events (partitions,
    /// heals, crashes, restarts) fire as virtual time reaches them; its
    /// window events modulate loss and latency while active. Installing a
    /// plan also enables delivery-time fault checks: a message in flight
    /// when its endpoint crashes or its link partitions is dropped at the
    /// receiver, not just at the sender.
    pub fn install_plan(&mut self, plan: FaultPlan) {
        self.plan = Some(plan);
        self.apply_faults_until(self.sim.now());
    }

    /// Fires every discrete fault event due at or before `now`.
    fn apply_faults_until(&mut self, now: SimTime) {
        let Some(plan) = self.plan.as_mut() else {
            return;
        };
        for event in plan.take_due(now) {
            match event {
                FaultEvent::PartitionAt { left, right, .. } => {
                    self.partition_groups(&left, &right);
                }
                FaultEvent::HealAt { .. } => self.heal(),
                FaultEvent::CrashAt { node, .. } => self.crash(node),
                FaultEvent::RestartAt { node, .. } => self.restart(node),
                // Window and permanent events are queried per message.
                FaultEvent::LossBurst { .. }
                | FaultEvent::DelaySpike { .. }
                | FaultEvent::ClockSkew { .. } => {}
            }
        }
    }

    /// Decides what happens to a message from `from` to `to` sent now:
    /// the single authority for crash, partition, and loss checks.
    ///
    /// The effective loss probability is the default loss plus any active
    /// [`FaultPlan`] burst, clamped to
    /// `[0, 1]`; the latency is the link model's sample plus any active
    /// delay spike and the sender's clock skew.
    pub fn delivery_fate<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        to: NodeId,
        rng: &mut R,
    ) -> DeliveryFate {
        if self.crashed.contains(&from) {
            return DeliveryFate::SenderCrashed;
        }
        if self.crashed.contains(&to) {
            return DeliveryFate::ReceiverCrashed;
        }
        if self.partitioned.contains(&(from, to)) {
            return DeliveryFate::Partitioned;
        }
        let now = self.sim.now();
        let extra = self.plan.as_ref().map_or(0.0, |p| p.extra_loss(now));
        let loss = (self.default_loss + extra).clamp(0.0, 1.0);
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

    /// Sends `msg` from `from` to `to`, sampling latency/loss with `rng`.
    /// Returns `true` if the message was enqueued (not dropped).
    pub fn send<R: Rng + ?Sized>(&mut self, from: NodeId, to: NodeId, msg: M, rng: &mut R) -> bool {
        self.apply_faults_until(self.sim.now());
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
            DeliveryFate::Delivered { latency } => {
                self.sim.schedule_in(latency, Delivery { from, to, msg });
                true
            }
            _ => {
                self.dropped += 1;
                false
            }
        }
    }

    /// Broadcasts `msg` from `from` to every other node.
    pub fn broadcast<R: Rng + ?Sized>(&mut self, from: NodeId, msg: M, rng: &mut R)
    where
        M: Clone,
    {
        for to in 0..self.node_count {
            if to != from.0 {
                self.send(from, NodeId(to), msg.clone(), rng);
            }
        }
    }

    /// Whether a popped delivery must be discarded by delivery-time fault
    /// state. Only remote messages are affected — local timers fire even
    /// on crashed nodes, so actors can observe their own restart.
    fn blocked_at_delivery(&self, d: &Delivery<M>) -> bool {
        d.from != d.to
            && (self.crashed.contains(&d.from)
                || self.crashed.contains(&d.to)
                || self.partitioned.contains(&(d.from, d.to)))
    }

    /// Advances to the next delivery at or before `deadline`.
    ///
    /// With a [`FaultPlan`] installed, due fault events fire first and
    /// messages in flight across a crash or partition are dropped at
    /// delivery time.
    pub fn step_until(&mut self, deadline: SimTime) -> Option<(SimTime, Delivery<M>)> {
        loop {
            let (at, delivery) = self.sim.step_until(deadline)?;
            self.apply_faults_until(at);
            if self.plan.is_some() && self.blocked_at_delivery(&delivery) {
                self.dropped += 1;
                IN_FLIGHT_DROPPED.add(1);
                continue;
            }
            return Some((at, delivery));
        }
    }

    /// Advances the clock to `t` with no deliveries (idle time), firing
    /// any fault events due on the way. Never moves backwards.
    pub fn advance_to(&mut self, t: SimTime) {
        self.sim.advance_to(t);
        self.apply_faults_until(self.sim.now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    impl<M> Network<M> {
        /// Advances to the next delivery, however far away.
        fn step(&mut self) -> Option<(SimTime, Delivery<M>)> {
            self.step_until(SimTime::from_millis(u64::MAX))
        }

        /// Heals the partition between `a` and `b` only, in both directions.
        fn heal_pair(&mut self, a: NodeId, b: NodeId) {
            self.partitioned.remove(&(a, b));
            self.partitioned.remove(&(b, a));
        }

        /// Schedules a local (self-addressed) event, e.g. a timer.
        fn schedule_local(&mut self, node: NodeId, delay: SimTime, msg: M) {
            self.sim.schedule_in(
                delay,
                Delivery {
                    from: node,
                    to: node,
                    msg,
                },
            );
        }
    }

    type Rng = rand::rngs::StdRng;

    fn rng() -> Rng {
        Rng::seed_from_u64(42)
    }

    #[test]
    fn delivery_carries_payload_and_latency() {
        let mut rng = rng();
        let mut net: Network<u32> = Network::new(2);
        net.set_default_latency(LatencyModel::Fixed(SimTime::from_millis(5)));
        assert!(net.send(NodeId(0), NodeId(1), 99, &mut rng));
        let (at, d) = net.step().unwrap();
        assert_eq!(at, SimTime::from_millis(5));
        assert_eq!((d.from, d.to, d.msg), (NodeId(0), NodeId(1), 99));
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let mut rng = rng();
        let mut net: Network<&str> = Network::new(5);
        net.broadcast(NodeId(2), "v", &mut rng);
        let mut receivers: Vec<usize> = std::iter::from_fn(|| net.step())
            .map(|(_, d)| d.to.0)
            .collect();
        receivers.sort_unstable();
        assert_eq!(receivers, vec![0, 1, 3, 4]);
    }

    #[test]
    fn partition_blocks_both_directions() {
        let mut rng = rng();
        let mut net: Network<()> = Network::new(2);
        net.partition(NodeId(0), NodeId(1));
        assert!(!net.send(NodeId(0), NodeId(1), (), &mut rng));
        assert!(!net.send(NodeId(1), NodeId(0), (), &mut rng));
        net.heal();
        assert!(net.send(NodeId(0), NodeId(1), (), &mut rng));
        assert_eq!(net.dropped(), 2);
    }

    #[test]
    fn group_partition_blocks_cross_traffic_only() {
        let mut rng = rng();
        let mut net: Network<()> = Network::new(4);
        net.partition_groups(&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
        assert!(net.send(NodeId(0), NodeId(1), (), &mut rng));
        assert!(!net.send(NodeId(0), NodeId(2), (), &mut rng));
        assert!(!net.send(NodeId(3), NodeId(1), (), &mut rng));
    }

    #[test]
    fn crashed_node_is_silent() {
        let mut rng = rng();
        let mut net: Network<()> = Network::new(2);
        net.crash(NodeId(1));
        assert!(!net.send(NodeId(0), NodeId(1), (), &mut rng));
        assert!(!net.send(NodeId(1), NodeId(0), (), &mut rng));
        net.restart(NodeId(1));
        assert!(net.send(NodeId(0), NodeId(1), (), &mut rng));
    }

    #[test]
    fn lossy_link_drops_roughly_half() {
        let mut rng = rng();
        let mut net: Network<u32> = Network::new(2);
        net.set_default_loss(0.5);
        let delivered = (0..1_000)
            .filter(|&i| net.send(NodeId(0), NodeId(1), i, &mut rng))
            .count();
        assert!((400..600).contains(&delivered), "delivered = {delivered}");
    }

    #[test]
    fn per_link_latency_override() {
        let mut rng = rng();
        let mut net: Network<u8> = Network::new(3);
        net.set_default_latency(LatencyModel::Fixed(SimTime::from_millis(10)));
        net.set_node_uplink_latency(NodeId(1), LatencyModel::Fixed(SimTime::from_millis(500)));
        net.send(NodeId(0), NodeId(2), 0, &mut rng);
        net.send(NodeId(1), NodeId(2), 1, &mut rng);
        let (t0, d0) = net.step().unwrap();
        assert_eq!((t0, d0.msg), (SimTime::from_millis(10), 0));
        let (t1, d1) = net.step().unwrap();
        assert_eq!((t1, d1.msg), (SimTime::from_millis(500), 1));
    }

    #[test]
    fn local_timers_fire() {
        let mut net: Network<&str> = Network::new(1);
        net.schedule_local(NodeId(0), SimTime::from_millis(30), "tick");
        let (at, d) = net.step().unwrap();
        assert_eq!(at, SimTime::from_millis(30));
        assert_eq!(d.msg, "tick");
        assert_eq!(d.from, d.to);
    }

    #[test]
    fn delivery_fate_names_the_cause() {
        let mut rng = rng();
        let mut net: Network<()> = Network::new(3);
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
        // Crash takes precedence over partition, matching the legacy
        // check order.
        net.crash(NodeId(0));
        assert_eq!(
            net.delivery_fate(NodeId(0), NodeId(1), &mut rng),
            DeliveryFate::SenderCrashed
        );
        assert!(net
            .delivery_fate(NodeId(1), NodeId(2), &mut rng)
            .is_delivered());
    }

    #[test]
    fn loss_probabilities_clamp_and_compose() {
        let mut rng = rng();
        let mut net: Network<()> = Network::new(2);
        // Out-of-range settings clamp instead of panicking in gen_bool.
        net.set_default_loss(-0.5);
        assert!(net
            .delivery_fate(NodeId(0), NodeId(1), &mut rng)
            .is_delivered());
        net.set_default_loss(7.0);
        assert_eq!(
            net.delivery_fate(NodeId(0), NodeId(1), &mut rng),
            DeliveryFate::Lost
        );
        net.set_default_loss(0.0);
        assert!(net
            .delivery_fate(NodeId(0), NodeId(1), &mut rng)
            .is_delivered());
    }

    #[test]
    fn loss_burst_stacks_on_link_loss_and_clamps() {
        let mut rng = rng();
        let mut net: Network<()> = Network::new(2);
        net.set_default_loss(0.6);
        net.install_plan(FaultPlan::new().loss_burst(SimTime::ZERO, SimTime::from_secs(10), 0.9));
        // 0.6 + 0.9 clamps to 1.0: every send inside the burst is lost.
        for _ in 0..50 {
            assert_eq!(
                net.delivery_fate(NodeId(0), NodeId(1), &mut rng),
                DeliveryFate::Lost
            );
        }
    }

    #[test]
    fn heal_pair_leaves_other_partitions_in_force() {
        let mut rng = rng();
        let mut net: Network<()> = Network::new(3);
        net.partition(NodeId(0), NodeId(1));
        net.partition(NodeId(0), NodeId(2));
        net.heal_pair(NodeId(1), NodeId(0));
        assert!(!net.is_partitioned(NodeId(0), NodeId(1)));
        assert!(net.send(NodeId(0), NodeId(1), (), &mut rng));
        assert!(net.is_partitioned(NodeId(0), NodeId(2)));
        assert!(!net.send(NodeId(0), NodeId(2), (), &mut rng));
    }

    #[test]
    fn plan_crash_fires_when_time_reaches_it() {
        let mut rng = rng();
        let mut net: Network<u8> = Network::new(2);
        net.set_default_latency(LatencyModel::Fixed(SimTime::from_millis(10)));
        net.install_plan(
            FaultPlan::new()
                .crash_at(SimTime::from_millis(50), NodeId(1))
                .restart_at(SimTime::from_millis(100), NodeId(1)),
        );
        // Before the crash time, traffic flows.
        assert!(net.send(NodeId(0), NodeId(1), 1, &mut rng));
        assert!(net.step().is_some());
        // Move past the crash: sends to node 1 now fail.
        net.advance_to(SimTime::from_millis(60));
        assert!(net.is_crashed(NodeId(1)));
        assert!(!net.send(NodeId(0), NodeId(1), 2, &mut rng));
        // Past the restart, the node is reachable again.
        net.advance_to(SimTime::from_millis(100));
        assert!(!net.is_crashed(NodeId(1)));
        assert!(net.send(NodeId(0), NodeId(1), 3, &mut rng));
    }

    #[test]
    fn in_flight_message_dropped_when_receiver_crashes_before_delivery() {
        let mut rng = rng();
        let mut net: Network<u8> = Network::new(2);
        net.set_default_latency(LatencyModel::Fixed(SimTime::from_millis(100)));
        net.install_plan(FaultPlan::new().crash_at(SimTime::from_millis(50), NodeId(1)));
        // Sent at t=0 (arrives t=100), but node 1 dies at t=50.
        assert!(net.send(NodeId(0), NodeId(1), 9, &mut rng));
        assert!(net.step().is_none(), "delivery must be suppressed");
        assert_eq!(net.dropped(), 1);
    }

    #[test]
    fn delay_spike_slows_messages_inside_its_window() {
        let mut rng = rng();
        let mut net: Network<u8> = Network::new(2);
        net.set_default_latency(LatencyModel::Fixed(SimTime::from_millis(10)));
        net.install_plan(FaultPlan::new().delay_spike(
            SimTime::ZERO,
            SimTime::from_millis(30),
            SimTime::from_millis(500),
        ));
        net.send(NodeId(0), NodeId(1), 1, &mut rng);
        let (at, _) = net.step().unwrap();
        assert_eq!(at, SimTime::from_millis(510));
        // Outside the window, latency returns to the base model.
        net.send(NodeId(0), NodeId(1), 2, &mut rng);
        let (at, _) = net.step().unwrap();
        assert_eq!(at, SimTime::from_millis(520));
    }

    #[test]
    fn clock_skew_delays_only_the_skewed_sender() {
        let mut rng = rng();
        let mut net: Network<u8> = Network::new(3);
        net.set_default_latency(LatencyModel::Fixed(SimTime::from_millis(10)));
        net.install_plan(FaultPlan::new().clock_skew(NodeId(0), SimTime::from_millis(200)));
        net.send(NodeId(0), NodeId(2), 0, &mut rng);
        net.send(NodeId(1), NodeId(2), 1, &mut rng);
        let (t_first, d_first) = net.step().unwrap();
        assert_eq!((t_first.as_millis(), d_first.msg), (10, 1));
        let (t_second, d_second) = net.step().unwrap();
        assert_eq!((t_second.as_millis(), d_second.msg), (210, 0));
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = || {
            let mut rng = Rng::seed_from_u64(7);
            let mut net: Network<u32> = Network::new(4);
            net.set_default_latency(LatencyModel::Jittered {
                base: SimTime::from_millis(5),
                jitter: SimTime::from_millis(20),
            });
            for i in 0..20 {
                net.broadcast(NodeId((i % 4) as usize), i, &mut rng);
            }
            std::iter::from_fn(|| net.step())
                .map(|(t, d)| (t.as_millis(), d.to.0, d.msg))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
